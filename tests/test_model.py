import numpy as np
import pytest

from dynstress.autodiff import Tensor, attention, linear
from dynstress.model import (
    ModelConfig,
    context_array,
    cross_attention_states,
    decode,
    forward_batch,
    init_params,
    layer_norm,
    load_checkpoint,
    lstm_states,
    param_names,
    positional_encoding,
    save_checkpoint,
    transformer_layer,
    transformer_states,
)
from dynstress.segmentation import DataError
from dynstress.vad import DEFAULT_CODE, VadCode, is_stress

H = 8


def lstm_cfg(**kw):
    return ModelConfig("lstm", feature_dim=6, hidden=H, heads=2, ffn=16,
                       dropout=0.0, **kw)


def tr_cfg(**kw):
    return ModelConfig("transformer", feature_dim=6, hidden=H, heads=2,
                       ffn=16, layers=2, ctx_layers=1, dropout=0.0, **kw)


def make_params(cfg, seed=0):
    return init_params(cfg, np.random.default_rng(seed))


def context(n):
    rng = np.random.default_rng(42)
    return [DEFAULT_CODE] + [
        VadCode(*(int(b) for b in rng.integers(0, 2, 3))) for _ in range(n - 1)
    ]


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


# --- recurrent encoder ---

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
    states = lstm_states(Tensor(seq), params, "speech_lstm", H).data
    assert np.allclose(states, 0.0)


def test_recurrent_matches_naive_reference():
    cfg = lstm_cfg()
    params = make_params(cfg, seed=3)
    seq = np.random.default_rng(1).normal(size=(4, 6))
    got = lstm_states(Tensor(seq[None]), params, "speech_lstm", H).data[0]
    want = naive_lstm(seq, params["speech_lstm.w"].data,
                      params["speech_lstm.u"].data,
                      params["speech_lstm.b"].data, H)
    assert got.shape == (4, H)
    assert np.max(np.abs(got - want)) < 1e-10


def test_recurrent_single_step():
    cfg = lstm_cfg()
    params = make_params(cfg, seed=5)
    seq = np.random.default_rng(2).normal(size=(1, 6))
    got = lstm_states(Tensor(seq[None]), params, "speech_lstm", H).data[0]
    want = naive_lstm(seq, params["speech_lstm.w"].data,
                      params["speech_lstm.u"].data,
                      params["speech_lstm.b"].data, H)
    assert np.allclose(got, want)


def test_recurrent_causality_bitwise():
    cfg = lstm_cfg()
    params = make_params(cfg, seed=7)
    seq = np.random.default_rng(3).normal(size=(5, 6))
    base = lstm_states(Tensor(seq[None]), params, "speech_lstm", H).data[0]
    bumped = seq.copy()
    bumped[3] += 1.0
    after = lstm_states(Tensor(bumped[None]), params, "speech_lstm", H).data[0]
    assert after[:3].tobytes() == base[:3].tobytes()
    assert not np.allclose(after[3:], base[3:])


def test_recurrent_dim_mismatch():
    cfg = lstm_cfg()
    params = make_params(cfg)
    with pytest.raises(DataError):
        lstm_states(Tensor(np.zeros((1, 3, 5))), params, "speech_lstm", H)


# --- cross-attention ---

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
    got = cross_attention_states(
        Tensor(primary[None]), Tensor(ctx[None]), params
    ).data[0]
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
    got_a = cross_attention_states(primary, Tensor(np.stack([[row] * 3])), params)
    got_b = cross_attention_states(primary, Tensor(np.stack([[row] * 5])), params)
    assert np.allclose(got_a.data, got_b.data)


def test_cross_attention_matches_dense_oracle():
    cfg = lstm_cfg()
    params = make_params(cfg, seed=13)
    rng = np.random.default_rng(6)
    primary = rng.normal(size=(2, H)) * 0.3
    ctx = rng.normal(size=(3, H)) * 0.3
    got = cross_attention_states(
        Tensor(primary[None]), Tensor(ctx[None]), params
    ).data[0]
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

def test_transformer_shapes_and_determinism():
    cfg = tr_cfg()
    params = make_params(cfg, seed=15)
    x = Tensor(np.random.default_rng(8).normal(size=(1, 4, 6)))
    a = transformer_states(x, params, cfg, "enc", "proj", cfg.layers).data
    b = transformer_states(x, params, cfg, "enc", "proj", cfg.layers).data
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


def test_positions_break_equivariance():
    cfg = tr_cfg()
    params = make_params(cfg, seed=17)
    seq = np.random.default_rng(9).normal(size=(1, 5, 6))
    perm = np.array([3, 0, 4, 1, 2])
    base, permuted = (
        transformer_states(Tensor(x), params, cfg, "enc", "proj", cfg.layers).data
        for x in (seq, seq[:, perm])
    )
    assert not np.allclose(permuted, base[:, perm])


def test_positional_encoding_values():
    enc = positional_encoding(4, 6)
    assert enc.shape == (4, 6)
    assert np.allclose(enc[0], [0, 1, 0, 1, 0, 1])


# --- forward_batch on one sequence ---

def test_forward_zero_params_gives_half_probs():
    for cfg in (lstm_cfg(), tr_cfg()):
        params = make_params(cfg)
        for n in param_names(params):
            params[n].data[:] = 0.0
        X = np.random.default_rng(10).normal(size=(1, 3, 6))
        S = context_array(context(3))[None]
        probs = forward_batch(X, S, params, cfg).data[0]
        assert probs.tolist() == [0.5, 0.5, 0.5]
        # strict > 0.5 threshold: all-zero code, not stress
        assert decode(probs) == VadCode(0, 0, 0)
        assert not is_stress(decode(probs))


def test_forward_threshold_contract():
    for cfg in (lstm_cfg(), tr_cfg()):
        params = make_params(cfg, seed=19)
        X = np.random.default_rng(11).normal(size=(1, 4, 6))
        S = context_array(context(4))[None]
        probs = forward_batch(X, S, params, cfg).data[0]
        assert all(0.0 < p < 1.0 for p in probs)
        assert decode(probs) == VadCode(*(int(p > 0.5) for p in probs))


def test_forward_length_mismatch():
    cfg = lstm_cfg()
    params = make_params(cfg)
    S = context_array(context(2))[None]
    with pytest.raises(DataError):
        forward_batch(np.zeros((1, 3, 6)), S, params, cfg)


def test_forward_context_must_start_with_default():
    bad = [VadCode(1, 1, 1)] + context(3)[1:]
    with pytest.raises(DataError):
        context_array(bad)


def test_dropout_draws_one_speech_mask_row_then_the_context_masks():
    # Only the last speech state is read, so only it gets a mask; the
    # speech mask is drawn before the context mask.
    cfg = ModelConfig("lstm", feature_dim=6, hidden=H, heads=2, dropout=0.3)
    params = make_params(cfg)
    X = np.random.default_rng(10).normal(size=(2, 4, 6))
    S = np.stack([context_array(context(4))] * 2)
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
        S = context_array(context(3))[None]
        probs = forward_batch(X, S, params, cfg).data[0]
        assert np.allclose(probs, GOLDEN[arch], atol=1e-12), (arch, probs)


@pytest.mark.parametrize("setting", [
    {"arch": "gru"}, {"hidden": 6}, {"heads": 0}, {"dropout": 1.0},
    {"dropout": -0.1}, {"hidden": 0}, {"hidden": -4}, {"feature_dim": 0},
    {"ffn": 0},
])
def test_model_config_rejects_bad_settings(setting):
    with pytest.raises(DataError):
        ModelConfig(**{"arch": "lstm", "feature_dim": 4, **setting})


@pytest.mark.parametrize("cfg, count", [(lstm_cfg(), 13), (tr_cfg(), 60)],
                         ids=["lstm", "transformer"])
def test_params_have_no_key_bias(cfg, count):
    names = param_names(make_params(cfg))
    assert len(names) == count
    assert not [n for n in names if n.endswith(".bk")]


# --- checkpoints ---

def test_checkpoint_roundtrip(tmp_path):
    for cfg in (lstm_cfg(), tr_cfg()):
        params = make_params(cfg, seed=23)
        p = tmp_path / f"{cfg.arch}.ckpt"
        save_checkpoint(p, params, cfg)
        loaded, lcfg = load_checkpoint(p)
        assert lcfg.arch == cfg.arch
        assert lcfg.feature_dim == cfg.feature_dim
        assert set(loaded) == set(params)
        for n in params:
            assert np.allclose(
                loaded[n].data, params[n].data.astype(np.float32), atol=0
            )


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


def test_forward_on_loaded_checkpoint_records_no_tape(tmp_path):
    for cfg in (lstm_cfg(), tr_cfg()):
        save_checkpoint(tmp_path / "m.ckpt", make_params(cfg, seed=24), cfg)
        params, lcfg = load_checkpoint(tmp_path / "m.ckpt")
        assert not any(p.requires_grad for p in params.values())
        rng = np.random.default_rng(25)
        S = context_array(context(3))[None]
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


def test_checkpoint_with_key_biases_loads_and_predicts_the_same(tmp_path):
    """Checkpoints saved while attention still had a key bias load with the
    biases dropped, and the model's output never depended on them."""
    for cfg in (lstm_cfg(), tr_cfg()):
        params = make_params(cfg, seed=26)
        rng = np.random.default_rng(27)
        old = dict(params)
        for wk in [n for n in params if n.endswith(".wk")]:
            old[wk[:-2] + "bk"] = Tensor(rng.normal(size=H))
        save_checkpoint(tmp_path / "old.ckpt", old, cfg)
        save_checkpoint(tmp_path / "new.ckpt", params, cfg)
        loaded, _ = load_checkpoint(tmp_path / "old.ckpt")
        assert set(loaded) == set(params)
        X = rng.normal(size=(2, 4, 6))
        S = np.stack([context_array(context(4))] * 2)
        want = forward_batch(X, S, load_checkpoint(tmp_path / "new.ckpt")[0], cfg)
        assert forward_batch(X, S, loaded, cfg).data.tobytes() == want.data.tobytes()

