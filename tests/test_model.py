import json
import math
import time
import warnings
import zipfile
from dataclasses import replace

import numpy as np
import pytest

from dynstress.autodiff import Tensor, attention, linear
from dynstress.model import (
    ModelConfig,
    context_array,
    context_memory,
    cross_attention_states,
    decode,
    forward_batch,
    init_params,
    layer_norm,
    load_checkpoint,
    lstm_states,
    param_shapes,
    positional_encoding,
    save_checkpoint,
    speech_inputs,
    transformer_layer,
    transformer_states,
)
from dynstress.segmentation import DataError
from dynstress.vad import ALL_CODES, DEFAULT_CODE, VadCode, is_stress

H = 8


def lstm_cfg(**kw):
    return ModelConfig("lstm", feature_dim=6, hidden=H, dropout=0.0, **kw)


def tr_cfg(**kw):
    return ModelConfig("transformer", feature_dim=6, hidden=H, heads=2,
                       ffn=16, layers=2, dropout=0.0, **kw)


def make_params(cfg, seed=0):
    return init_params(cfg, np.random.default_rng(seed))


def context(n):
    """A (n, 3) context array: the default code, then n - 1 random codes."""
    rng = np.random.default_rng(42)
    return context_array([
        VadCode(*(int(b) for b in rng.integers(0, 2, 3))) for _ in range(n - 1)
    ])


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


# --- recurrent encoder ---

def speech_lstm(seq, params):
    """The speech LSTM's states of raw (B, T, 6) features."""
    acts = speech_inputs(seq, params, lstm_cfg())
    return lstm_states(acts, params["speech_lstm.u"]).data


def naive_lstm(seq, w, u, b, hidden):
    """Step-by-step reference recurrence."""
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    out = []
    for x in seq:
        z = x @ w + h @ u + b
        i = sigmoid(z[:hidden])
        f = sigmoid(z[hidden : 2 * hidden])
        g = np.tanh(z[2 * hidden : 3 * hidden])
        o = sigmoid(z[3 * hidden :])
        c = f * c + i * g
        h = o * np.tanh(c)
        out.append(h.copy())
    return np.stack(out)


def test_recurrent_zero_params():
    cfg = lstm_cfg()
    params = make_params(cfg)
    for name in ("speech_lstm.w", "speech_lstm.u", "speech_lstm.b"):
        params[name].data[:] = 0.0
    seq = np.random.default_rng(0).normal(size=(1, 4, 6))
    states = speech_lstm(seq, params)
    assert np.allclose(states, 0.0)


def test_recurrent_matches_naive_reference():
    cfg = lstm_cfg()
    params = make_params(cfg, seed=3)
    seq = np.random.default_rng(1).normal(size=(4, 6))
    got = speech_lstm(seq[None], params)[0]
    want = naive_lstm(seq, params["speech_lstm.w"].data,
                      params["speech_lstm.u"].data,
                      params["speech_lstm.b"].data, H)
    assert got.shape == (4, H)
    assert np.max(np.abs(got - want)) < 1e-10


def test_recurrent_single_step():
    cfg = lstm_cfg()
    params = make_params(cfg, seed=5)
    seq = np.random.default_rng(2).normal(size=(1, 6))
    got = speech_lstm(seq[None], params)[0]
    want = naive_lstm(seq, params["speech_lstm.w"].data,
                      params["speech_lstm.u"].data,
                      params["speech_lstm.b"].data, H)
    assert np.allclose(got, want)


def test_recurrent_causality_bitwise():
    cfg = lstm_cfg()
    params = make_params(cfg, seed=7)
    seq = np.random.default_rng(3).normal(size=(5, 6))
    base = speech_lstm(seq[None], params)[0]
    bumped = seq.copy()
    bumped[3] += 1.0
    after = speech_lstm(bumped[None], params)[0]
    assert after[:3].tobytes() == base[:3].tobytes()
    assert not np.allclose(after[3:], base[3:])


def test_recurrent_dim_mismatch():
    for cfg in (lstm_cfg(), tr_cfg()):
        params = make_params(cfg)
        with pytest.raises(DataError, match="input dim 5"):
            speech_inputs(np.zeros((1, 3, 5)), params, cfg)


# --- cross-attention ---

def cross_attend(primary, ctx, params):
    """Cross-attention of ``primary`` over ``ctx``, projections included."""
    q = linear(primary, params["attn.wq"], params["attn.bq"])
    _, k, v = context_memory(ctx, params)
    return cross_attention_states(q, k, v)


def naive_cross_attention(primary, ctx, params, bk):
    """Direct dense transcription, with a key bias ``bk`` of its own."""
    wq, bq = params["attn.wq"].data, params["attn.bq"].data
    wk = params["attn.wk"].data
    wv, bv = params["attn.wv"].data, params["attn.bv"].data
    q = primary @ wq + bq
    k = ctx @ wk + bk
    v = ctx @ wv + bv
    out = np.zeros_like(q)
    for i in range(len(q)):
        scores = np.array([q[i] @ k[j] / np.sqrt(q.shape[1]) for j in range(len(k))])
        e = np.exp(scores - scores.max())
        a = e / e.sum()
        out[i] = q[i] + sum(a[j] * v[j] for j in range(len(k)))
    return out


def test_cross_attention_single_context():
    cfg = lstm_cfg()
    params = make_params(cfg, seed=9)
    rng = np.random.default_rng(4)
    primary = rng.normal(size=(3, H))
    ctx = rng.normal(size=(1, H))
    got = cross_attend(Tensor(primary[None]), Tensor(ctx[None]), params).data[0]
    # softmax over one position is exactly 1: output = q + v
    q = primary @ params["attn.wq"].data + params["attn.bq"].data
    v = ctx @ params["attn.wv"].data + params["attn.bv"].data
    assert np.allclose(got, q + v)


def test_cross_attention_identical_context_states():
    cfg = lstm_cfg()
    params = make_params(cfg, seed=11)
    rng = np.random.default_rng(5)
    primary = Tensor(rng.normal(size=(1, 2, H)))
    row = rng.normal(size=H)
    got_a = cross_attend(primary, Tensor(np.stack([[row] * 3])), params)
    got_b = cross_attend(primary, Tensor(np.stack([[row] * 5])), params)
    assert np.allclose(got_a.data, got_b.data)


def test_cross_attention_matches_dense_oracle():
    cfg = lstm_cfg()
    params = make_params(cfg, seed=13)
    rng = np.random.default_rng(6)
    primary = rng.normal(size=(2, H)) * 0.3
    ctx = rng.normal(size=(3, H)) * 0.3
    got = cross_attend(Tensor(primary[None]), Tensor(ctx[None]), params).data[0]
    # a key bias adds q.bk to every score of a query, so it cannot matter
    want = naive_cross_attention(primary, ctx, params, rng.normal(size=H))
    assert np.max(np.abs(got - want)) < 1e-10


def test_attention_weights_normalised():
    rng = np.random.default_rng(7)
    q = Tensor(rng.normal(size=(2, 4, 5)) * 10)
    eye = Tensor(np.broadcast_to(np.eye(5), (2, 5, 5)))
    # unit keys and values: each output row is that query's weights
    w = attention(q, eye, eye, 1).data
    assert np.all(w >= 0)
    assert np.max(np.abs(w.sum(axis=-1) - 1.0)) < 1e-6


# --- transformer encoder ---

def speech_transformer(x, params, cfg):
    """The speech transformer's states of raw (B, T, 6) features."""
    return transformer_states(speech_inputs(x, params, cfg), params, cfg, "enc",
                              cfg.layers).data


def test_transformer_shapes_and_determinism():
    cfg = tr_cfg()
    params = make_params(cfg, seed=15)
    x = np.random.default_rng(8).normal(size=(1, 4, 6))
    a = speech_transformer(x, params, cfg)
    b = speech_transformer(x, params, cfg)
    assert a.shape == (1, 4, H)
    assert a.tobytes() == b.tobytes()


def test_transformer_permutation_equivariance_without_positions():
    cfg = tr_cfg()
    params = make_params(cfg, seed=17)
    seq = np.random.default_rng(9).normal(size=(1, 5, 6))
    perm = np.array([3, 0, 4, 1, 2])

    def encode(x):  # transformer_states without the positional encoding
        h = linear(Tensor(x), params["proj.w"], params["proj.b"])
        for i in range(cfg.layers):
            h = transformer_layer(h, params, f"enc{i}", cfg.heads)
        return layer_norm(h, params["enc.lnf.g"], params["enc.lnf.b"]).data

    base, permuted = encode(seq), encode(seq[:, perm])
    assert np.max(np.abs(permuted - base[:, perm])) < 1e-10


@pytest.mark.parametrize("layers", [1, 2])
def test_masked_transformer_states_equal_the_unpadded_run(layers):
    """Each sequence padded after its own rows, with the padding masked out
    of the keys, has the states of its unpadded run on its rows."""
    cfg = replace(tr_cfg(), layers=layers)
    params = make_params(cfg, seed=21)
    P = speech_inputs(np.random.default_rng(12).normal(size=(4, 5, 6)), params, cfg)
    lengths = np.array([1, 3, 5, 2])
    mask = np.arange(5) < lengths[:, None]
    got = transformer_states(P, params, cfg, "enc", cfg.layers, mask=mask).data
    for b, n in enumerate(lengths):
        want = transformer_states(Tensor(P.data[b : b + 1, :n]), params, cfg, "enc",
                                  cfg.layers).data
        np.testing.assert_allclose(got[b, :n], want[0], rtol=1e-12, atol=1e-15)
    # the last layer computing only each sequence's own last row
    last = transformer_states(P, params, cfg, "enc", cfg.layers, lengths - 1, mask).data
    np.testing.assert_allclose(last[:, 0], got[np.arange(4), lengths - 1],
                               rtol=1e-12, atol=1e-15)
    # without a mask, the padding is attended to and the states move
    unmasked = transformer_states(P, params, cfg, "enc", cfg.layers).data
    assert not np.allclose(unmasked[0, :1], got[0, :1])


def test_positions_break_equivariance():
    cfg = tr_cfg()
    params = make_params(cfg, seed=17)
    seq = np.random.default_rng(9).normal(size=(1, 5, 6))
    perm = np.array([3, 0, 4, 1, 2])
    base, permuted = (speech_transformer(x, params, cfg) for x in (seq, seq[:, perm]))
    assert not np.allclose(permuted, base[:, perm])


def test_positional_encoding_values():
    enc = positional_encoding(4, 6)
    assert enc.shape == (4, 6)
    assert np.allclose(enc[0], [0, 1, 0, 1, 0, 1])


def test_positional_encoding_is_computed_once_read_only_and_exact():
    enc = positional_encoding(5, 6)
    for p in range(5):
        for j in range(6):
            angle = p / 10000.0 ** (2 * (j // 2) / 6)
            want = math.sin(angle) if j % 2 == 0 else math.cos(angle)
            assert enc[p, j] == pytest.approx(want, rel=0, abs=1e-15), (p, j)
    assert not enc.flags.writeable
    with pytest.raises(ValueError):
        enc[0, 0] = 1.0
    assert positional_encoding(5, 6) is enc
    # encoder calls reuse the cached array: a second forward computes none
    cfg = tr_cfg()
    params = make_params(cfg)
    x = np.random.default_rng(8).normal(size=(2, 3, 6))
    speech_transformer(x, params, cfg)
    misses = positional_encoding.cache_info().misses
    speech_transformer(x, params, cfg)
    assert positional_encoding.cache_info().misses == misses


# --- forward_batch on one sequence ---

def test_forward_zero_params_gives_half_probs():
    for cfg in (lstm_cfg(), tr_cfg()):
        params = make_params(cfg)
        for n in sorted(params):
            params[n].data[:] = 0.0
        X = np.random.default_rng(10).normal(size=(1, 3, 6))
        S = context(3)[None]
        probs = forward_batch(X, S, params, cfg).data[0]
        assert probs.tolist() == [0.5, 0.5, 0.5]
        # strict > 0.5 threshold: all-zero code, not stress
        assert decode(probs) == VadCode(0, 0, 0)
        assert not is_stress(decode(probs))


def test_forward_threshold_contract():
    for cfg in (lstm_cfg(), tr_cfg()):
        params = make_params(cfg, seed=19)
        X = np.random.default_rng(11).normal(size=(1, 4, 6))
        S = context(4)[None]
        probs = forward_batch(X, S, params, cfg).data[0]
        assert all(0.0 < p < 1.0 for p in probs)
        assert decode(probs) == VadCode(*(int(p > 0.5) for p in probs))


def test_decode_is_the_strict_threshold_code_for_every_pattern():
    for v, a, d in np.ndindex(2, 2, 2):
        # a 1 is just above the threshold, a 0 exactly on it
        probs = np.array([0.5 + 1e-12 * b for b in (v, a, d)])
        assert decode(probs) == VadCode(v, a, d)
        assert decode(probs) == VadCode(*(int(p > 0.5) for p in probs))


def test_forward_length_mismatch():
    cfg = lstm_cfg()
    params = make_params(cfg)
    S = context(2)[None]
    with pytest.raises(DataError):
        forward_batch(np.zeros((1, 3, 6)), S, params, cfg)


@pytest.mark.parametrize("X, S, message", [
    (np.zeros((3, 6)), context(3), r"expects \(B, T, d\)"),
    (np.zeros((1, 0, 6)), np.zeros((1, 0, 3)), "empty sequences"),
], ids=["2-D", "T=0"])
def test_forward_rejects_unbatched_and_empty_sequences(X, S, message):
    cfg = lstm_cfg()
    with pytest.raises(DataError, match=message):
        forward_batch(X, S, make_params(cfg), cfg)


@pytest.mark.parametrize("length", range(6))
def test_context_array_is_the_default_code_then_the_previous_labels(length):
    """``context_array(previous)`` gives the rows of ``[DEFAULT_CODE,
    *previous]`` as float64, whatever codes precede the window."""
    rng = np.random.default_rng(length)
    previous = [ALL_CODES[i] for i in rng.integers(0, len(ALL_CODES), length)]
    got = context_array(previous)
    want = [[c.valence, c.arousal, c.dominance] for c in [DEFAULT_CODE, *previous]]
    assert got.dtype == np.float64 and got.shape == (length + 1, 3)
    assert got.tolist() == want


def test_dropout_draws_one_speech_mask_row_then_the_context_masks():
    # Only the last speech state is read, so only it gets a mask; the
    # speech mask is drawn before the context mask.
    cfg = ModelConfig("lstm", feature_dim=6, hidden=H, dropout=0.3)
    params = make_params(cfg)
    X = np.random.default_rng(10).normal(size=(2, 4, 6))
    S = np.stack([context(4)] * 2)
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    forward_batch(X, S, params, cfg, rng=rng)
    ref.random((2, 1, H))
    ref.random((2, 4, H))
    assert rng.random() == ref.random()


# Golden regressions: frozen at the first verified build; guards against
# silent numeric drift.
GOLDEN = {
    "lstm": (0.5030728523458083, 0.5001192467520816, 0.49720258431318815),
    "transformer": (0.6249955418241514, 0.6988267620153206, 0.5817082332565299),
}


def test_forward_golden_regression():
    for arch, cfg in (("lstm", lstm_cfg()), ("transformer", tr_cfg())):
        params = make_params(cfg, seed=21)
        X = np.random.default_rng(12).normal(size=(1, 3, 6))
        S = context(3)[None]
        probs = forward_batch(X, S, params, cfg).data[0]
        assert np.allclose(probs, GOLDEN[arch], atol=1e-12), (arch, probs)


@pytest.mark.parametrize("setting", [
    {"arch": "gru"}, {"arch": "transformer", "hidden": 6}, {"arch": "transformer", "heads": 0},
    {"dropout": 1.0}, {"dropout": -0.1}, {"hidden": 0}, {"hidden": -4}, {"feature_dim": 0},
    {"arch": "transformer", "ffn": 0},
    # an LSTM holds no transformer field, not even a valid one
    {"layers": 2}, {"heads": 2}, {"ffn": 2},
])
def test_model_config_rejects_bad_settings(setting):
    with pytest.raises(DataError):
        ModelConfig(**{"arch": "lstm", "feature_dim": 4, **setting})


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("field", ["layers"])
@pytest.mark.parametrize("arch", ["lstm", "transformer"])
def test_model_config_rejects_non_positive_layer_counts(arch, field, value):
    # an LSTM takes no layer count at all; a transformer's must be positive
    reason = {"lstm": "shapes only the transformer", "transformer": "must be positive"}[arch]
    with pytest.raises(DataError, match=f"^{field} {reason}"):
        ModelConfig(arch, feature_dim=4, **{field: value})


@pytest.mark.parametrize("cfg, count", [(lstm_cfg(), 13), (tr_cfg(), 60)],
                         ids=["lstm", "transformer"])
def test_params_have_no_key_bias(cfg, count):
    names = sorted(make_params(cfg))
    assert len(names) == count
    assert not [n for n in names if n.endswith(".bk")]


# --- checkpoints ---

def test_checkpoint_roundtrip(tmp_path):
    """The config comes back whole, dropout included, and each parameter as
    a read-only float32 tensor holding its float32 value."""
    for cfg in (lstm_cfg(), tr_cfg()):
        params = make_params(cfg, seed=23)
        p = tmp_path / f"{cfg.arch}.ckpt"
        save_checkpoint(p, params, cfg)
        loaded, lcfg = load_checkpoint(p)
        assert lcfg == cfg
        assert list(loaded) == list(param_shapes(cfg))
        for n in params:
            assert loaded[n].data.dtype == np.float32, n
            assert not loaded[n].data.flags.writeable, n
            assert loaded[n].data.tobytes() == params[n].data.astype(np.float32).tobytes()


def test_checkpoint_bytes_depend_on_the_parameters_only(tmp_path, monkeypatch):
    """Two saves of one model, at different wall-clock times, write the same
    bytes: no member carries the time of the save."""
    cfg = tr_cfg()
    params = make_params(cfg, seed=23)
    save_checkpoint(tmp_path / "a.ckpt", params, cfg)
    monkeypatch.setattr(time, "time", lambda: 2e9)  # 2033
    save_checkpoint(tmp_path / "b.ckpt", params, cfg)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_numpy_alone_reads_a_checkpoints_parameters(tmp_path):
    """A checkpoint is an .npz: np.load without pickles reads `params`, every
    tensor raveled in param_shapes order into one float32 vector."""
    for cfg in (lstm_cfg(), tr_cfg()):
        params = make_params(cfg, seed=23)
        save_checkpoint(tmp_path / "m.ckpt", params, cfg)
        with np.load(tmp_path / "m.ckpt", allow_pickle=False) as npz:
            flat = npz["params"]
        assert flat.dtype == np.dtype("<f4")
        want = np.concatenate([params[n].data.ravel() for n in param_shapes(cfg)])
        assert flat.tobytes() == want.astype(np.float32).tobytes()


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_checkpoint_with_non_finite_tensor_is_rejected(tmp_path, value):
    # A CRC-valid checkpoint holding NaN would predict code (0, 0, 0) for
    # every window; loading it must fail and name the tensor.
    cfg = lstm_cfg()
    params = make_params(cfg)
    params["head.b"].data[1] = value
    save_checkpoint(tmp_path / "x.ckpt", params, cfg)
    with pytest.raises(DataError, match="head.b"):
        load_checkpoint(tmp_path / "x.ckpt")


@pytest.mark.parametrize("value", [1e39, -1e39], ids=["1e39", "-1e39"])
def test_save_checkpoint_rejects_values_beyond_float32(tmp_path, value):
    # float32 would hold it as inf, which load_checkpoint rejects; saving
    # must fail first, with no warning, and leave an existing file alone.
    cfg = lstm_cfg()
    params = make_params(cfg)
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, params, cfg)
    before = path.read_bytes()
    params["head.b"].data[0] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="head.b"):
            save_checkpoint(path, params, cfg)
    assert path.read_bytes() == before


def test_forward_on_loaded_checkpoint_records_no_tape(tmp_path):
    for cfg in (lstm_cfg(), tr_cfg()):
        save_checkpoint(tmp_path / "m.ckpt", make_params(cfg, seed=24), cfg)
        params, lcfg = load_checkpoint(tmp_path / "m.ckpt")
        assert not any(p.requires_grad for p in params.values())
        rng = np.random.default_rng(25)
        S = context(3)[None]
        probs = forward_batch(rng.normal(size=(1, 3, 6)), S, params, lcfg)
        assert not probs.requires_grad
        assert probs._parents == () and probs._backward is None


def test_checkpoint_corruption_detected(tmp_path):
    cfg = lstm_cfg()
    save_checkpoint(tmp_path / "x.ckpt", make_params(cfg), cfg)
    blob = bytearray((tmp_path / "x.ckpt").read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    (tmp_path / "bad.ckpt").write_bytes(bytes(blob))
    with pytest.raises(DataError):
        load_checkpoint(tmp_path / "bad.ckpt")
    with pytest.raises(DataError):
        load_checkpoint(tmp_path / "missing.ckpt")


def test_save_checkpoint_writes_only_the_configs_tensors(tmp_path):
    """Tensors the config does not build, such as the key biases attention
    once had, are not written."""
    for cfg in (lstm_cfg(), tr_cfg()):
        params = make_params(cfg, seed=26)
        old = dict(params)
        for wk in [n for n in params if n.endswith(".wk")]:
            old[wk[:-2] + "bk"] = Tensor(np.ones(H))
        save_checkpoint(tmp_path / "old.ckpt", old, cfg)
        save_checkpoint(tmp_path / "new.ckpt", params, cfg)
        assert (tmp_path / "old.ckpt").read_bytes() == (tmp_path / "new.ckpt").read_bytes()


def test_save_checkpoint_rejects_a_tensor_of_another_shape(tmp_path):
    cfg = lstm_cfg()
    params = make_params(cfg)
    params["head.w"] = Tensor(params["head.w"].data.T)
    with pytest.raises(DataError, match=r"tensor head.w has shape \(3, 16\), not \(16, 3\)"):
        save_checkpoint(tmp_path / "x.ckpt", params, cfg)
    assert not (tmp_path / "x.ckpt").exists()


def test_checkpoint_with_reordered_tensors_is_rejected(tmp_path):
    """Two tensors swapped in the header's list keep its total size, so only
    the item-by-item comparison with param_shapes can catch them."""
    cfg = tr_cfg()
    save_checkpoint(tmp_path / "x.ckpt", make_params(cfg), cfg)
    with zipfile.ZipFile(tmp_path / "x.ckpt") as z:
        header = json.loads(z.read("header.json"))
        vector = z.read("params.npy")
    tensors = header["tensors"]
    tensors[0], tensors[1] = tensors[1], tensors[0]
    with zipfile.ZipFile(tmp_path / "x.ckpt", "w") as z:
        z.writestr("header.json", json.dumps(header))
        z.writestr("params.npy", vector)
    with pytest.raises(DataError, match="malformed checkpoint .header lists tensor .'proj.b'"):
        load_checkpoint(tmp_path / "x.ckpt")
