import gc
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from dynstress import model, training
from dynstress.autodiff import Tensor, linear, pick_rows
from dynstress.evaluation import EvalReport
from dynstress.model import (
    ModelConfig,
    _dropout,
    context_memory,
    context_states,
    forward_batch,
    init_params,
    load_checkpoint,
    lstm_states,
    readout,
    save_checkpoint,
    speech_inputs,
    transformer_states,
)
from dynstress.pipeline import RecordingData, build_samples
from dynstress.segmentation import DataError
from dynstress.training import (
    EVAL_BATCH,
    Adam,
    TrainConfig,
    TrainSample,
    TrainingDiverged,
    batch_loss_graph,
    evaluate_accuracy,
    evaluate_loss,
    gradient,
    numerical_gradient,
    _bce_terms,
    _rollout_contexts,
    _teacher_forced,
    train,
)
from dynstress.vad import DEFAULT_CODE, VadCode


def reduced_cfg(arch, layers=1):
    """A small model; ``layers`` counts the transformer's speech layers."""
    if arch == "lstm":
        return ModelConfig("lstm", feature_dim=8, hidden=8, dropout=0.0)
    return ModelConfig("transformer", feature_dim=8, hidden=8, heads=2,
                       ffn=16, layers=layers, dropout=0.0)


def random_batch(rng, B=2, T=3, d=8):
    X = rng.normal(size=(B, T, d))
    S = rng.integers(0, 2, size=(B, T, 3)).astype(float)
    S[:, 0, :] = 0.0
    targets = rng.integers(0, 2, size=(B, 3)).astype(float)
    return X, S, targets


def repeated_context_batch(rng, B=12, T=4, distinct=4):
    """A batch whose rows cycle through ``distinct`` contexts."""
    X, S, targets = random_batch(rng, B=B, T=T)
    S = S[np.arange(B) % distinct]
    assert len({row.tobytes() for row in S}) == distinct
    return X, S, targets


def bce(probs, targets):
    """``batch_loss_graph`` of (B, 3) probabilities and 0/1 targets."""
    return float(batch_loss_graph(Tensor(np.array(probs, dtype=np.float64)),
                                  np.array(targets, dtype=np.float64)).data)


def test_bce_half_probs():
    assert bce([[0.5, 0.5, 0.5]], [[0, 1, 0]]) == pytest.approx(math.log(2), abs=1e-12)


def test_bce_perfect_probs_near_zero():
    assert 0 < bce([[1.0, 0.0, 1.0]], [[1, 0, 1]]) < 1e-6


def test_bce_spot_value():
    terms = _bce_terms(np.array([[0.9, 0.8, 0.1]]), np.array([[1.0, 1.0, 0.0]]))[0]
    np.testing.assert_allclose(terms, -np.log([0.9, 0.8, 0.9]), rtol=0, atol=1e-10)
    expect = (-math.log(0.9) - math.log(0.8) - math.log(0.9)) / 3
    assert bce([[0.9, 0.8, 0.1]], [[1, 1, 0]]) == pytest.approx(expect, abs=1e-10)


def test_bce_total_is_mean_of_components():
    """The batch loss is the mean of the per-dimension terms over rows and
    dimensions alike."""
    probs = np.array([[0.3, 0.6, 0.9], [0.2, 0.7, 0.4]])
    targets = np.array([[1, 0, 1], [0, 0, 1]], dtype=np.float64)
    terms = _bce_terms(probs, targets)
    assert terms.shape == (2, 3)
    assert bce(probs, targets) == pytest.approx(terms.mean(), abs=1e-15)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batch_loss_is_float64_and_its_gradient_takes_the_probabilities_dtype(dtype):
    """The mean BCE of float32 probabilities is a float64 scalar, as the
    float64 divisor of a float32 sum gives under value-based casting and
    NEP 50 alike, while the probabilities' gradient stays float32; float64
    probabilities give float64 throughout."""
    probs = Tensor(np.array([[0.3, 0.6, 0.9], [0.2, 0.7, 0.4]], dtype), requires_grad=True)
    targets = np.array([[1, 0, 1], [0, 0, 1]], dtype=np.float64)
    loss = batch_loss_graph(probs, targets)
    assert loss.data.dtype == np.float64 and loss.shape == ()
    loss.backward()
    assert probs.grad.dtype == dtype
    t, p = targets, probs.data.astype(np.float64)
    want = ((1.0 - t) / (1.0 - p) - t / p) / t.size
    np.testing.assert_allclose(probs.grad, want, rtol=1e-6 if dtype == np.float32 else 1e-15)


@pytest.mark.parametrize("arch, dropout, repeated", [
    ("lstm", 0.0, False), ("transformer", 0.0, False), ("lstm", 0.3, False),
    ("transformer", 0.3, False), ("lstm", 0.3, True), ("transformer", 0.3, True),
], ids=["lstm", "transformer", "lstm-dropout", "transformer-dropout",
        "lstm-repeated-contexts", "transformer-repeated-contexts"])
def test_gradient_matches_finite_differences(arch, dropout, repeated):
    """With dropout, a fresh rng of one seed for every loss evaluation fixes
    the masks, so central differences check the dropout backward too.  Rows
    that share a context add their gradients through the gather."""
    cfg = replace(reduced_cfg(arch), dropout=dropout)
    rng = np.random.default_rng(1)
    params = init_params(cfg, rng)
    if repeated:
        X, S, targets = repeated_context_batch(rng, B=3, T=3, distinct=2)
    else:
        X, S, targets = random_batch(rng, B=1)

    def masks():
        return np.random.default_rng(5) if dropout else None

    _, grads = gradient(params, X, S, targets, cfg, rng=masks())

    def loss_fn(rng=None):
        probs = forward_batch(X, S, params, cfg, rng=rng)
        return float(batch_loss_graph(probs, targets).data)

    if dropout:  # an rng switches dropout on
        assert loss_fn(masks()) != loss_fn()
    num = numerical_gradient(lambda: loss_fn(masks()), params, h=1e-3)
    for n in sorted(params):
        a, b = grads[n], num[n]
        rel = np.abs(a - b) / np.maximum(np.abs(a) + np.abs(b), 1e-8)
        assert rel.max() < 1e-4, (n, rel.max())


def test_zero_logit_bias_gradient_identity():
    # With all parameters zero, probs are 0.5 and the gradient of the final
    # bias is mean(p - t) / 3 for each dimension (total loss averages dims).
    cfg = reduced_cfg("lstm")
    rng = np.random.default_rng(2)
    params = init_params(cfg, rng)
    for n in sorted(params):
        params[n].data[:] = 0.0
    X, S, targets = random_batch(rng, B=4)
    _, grads = gradient(params, X, S, targets, cfg)
    expect = (0.5 - targets).mean(axis=0) / 3.0
    assert np.allclose(grads["head.b"], expect, atol=1e-12)


def test_duplicated_sample_gradient_invariance():
    cfg = reduced_cfg("lstm")
    rng = np.random.default_rng(3)
    params = init_params(cfg, rng)
    X, S, targets = random_batch(rng, B=1)
    _, g1 = gradient(params, X, S, targets, cfg)
    X2 = np.concatenate([X, X])
    S2 = np.concatenate([S, S])
    t2 = np.concatenate([targets, targets])
    _, g2 = gradient(params, X2, S2, t2, cfg)
    for n in g1:
        assert np.allclose(g1[n], g2[n], atol=1e-12)


@pytest.mark.parametrize("arch", ["lstm", "transformer"])
def test_gradient_leaves_no_cyclic_garbage(arch):
    """The tape is freed when backward returns, not left for the cyclic
    collector, which lets dead tapes pile up between collections."""
    cfg = reduced_cfg(arch)
    params = init_params(cfg, np.random.default_rng(0))
    X, S, targets = random_batch(np.random.default_rng(1))
    gc.collect()
    gc.disable()
    try:
        gradient(params, X, S, targets, cfg)
        assert gc.collect() == 0
    finally:
        gc.enable()


def plain_forward(X, S, params, cfg, rng=None):
    """``forward_batch`` without its savings: the speech encoder computes
    every row's state and the context encoder encodes every row."""
    P = speech_inputs(X, params, cfg)
    if cfg.arch == "lstm":
        hs = lstm_states(P, params["speech_lstm.u"])
    else:
        hs = transformer_states(P, params, cfg, "enc", cfg.layers)
    hs, hc = pick_rows(hs, np.full(len(X), X.shape[1] - 1)), context_states(S, params, cfg)
    if rng is not None and cfg.dropout > 0:  # the speech mask first, as in fuse
        hs, hc = _dropout(hs, cfg.dropout, rng), _dropout(hc, cfg.dropout, rng)
    q = linear(hs, params["attn.wq"], params["attn.bq"])
    return readout(q, *context_memory(hc, params), params, cfg)


def within(got, want, scale=1e-12):
    return np.abs(got - want).max() <= scale * np.abs(want).max()


@pytest.mark.parametrize("arch", ["lstm", "transformer"])
def test_forward_and_gradient_equal_the_plain_path(arch, monkeypatch):
    """Encoding each distinct context once and only the last speech row
    changes no probability and no gradient beyond rounding, dropout on."""
    # two speech layers: the last-row layer reads a full one's output
    cfg = replace(reduced_cfg(arch, layers=2), dropout=0.3)
    rng = np.random.default_rng(31)
    params = init_params(cfg, rng)
    X, S, targets = repeated_context_batch(rng)

    def masks():
        return np.random.default_rng(5)

    probs = forward_batch(X, S, params, cfg, rng=masks()).data
    assert not np.array_equal(probs, forward_batch(X, S, params, cfg).data)
    assert within(probs, plain_forward(X, S, params, cfg, rng=masks()).data)
    loss, grads = gradient(params, X, S, targets, cfg, rng=masks())
    monkeypatch.setattr(training, "forward_batch", plain_forward)
    want_loss, want = gradient(params, X, S, targets, cfg, rng=masks())
    assert loss == pytest.approx(want_loss, rel=1e-12, abs=0)
    for n in sorted(params):
        assert np.any(want[n] != 0.0), n
        assert within(grads[n], want[n]), n


@pytest.mark.parametrize("arch", ["lstm", "transformer"])
def test_context_encoder_sees_each_distinct_context_once(arch, monkeypatch):
    """The gradient, rollout and validation forwards each encode only the
    distinct contexts of their batch."""
    rng = np.random.default_rng(32)
    cfg = replace(reduced_cfg(arch), dropout=0.3)
    params = init_params(cfg, rng)
    samples = make_samples(rng, 24)
    pool = [samples[k].context for k in range(3)]
    assert len({c.tobytes() for c in pool}) == 3
    prev = [((i + 5) % 24, (i + 7) % 24) for i in range(24)]
    samples = [replace(s, context=pool[i % 3], prev_indices=prev[i])
               for i, s in enumerate(samples)]
    encoded = []

    def counting(S, *args):
        encoded.append(len(S))
        return context_states(S, *args)

    monkeypatch.setattr(model, "context_states", counting)
    idx = np.arange(16)
    X = np.stack([samples[i].features for i in idx])
    S = np.stack([samples[i].context for i in idx])
    targets = training._targets([samples[i] for i in idx])
    gradient(params, X, S, targets, cfg, rng=np.random.default_rng(0))
    assert encoded == [3]
    encoded.clear()
    _rollout_contexts(samples, idx, params, cfg)
    assert encoded == [3]
    encoded.clear()
    evaluate_loss(samples, params, cfg)
    assert encoded == [3]


def test_adam_zero_gradient_is_noop():
    cfg = reduced_cfg("lstm")
    params = init_params(cfg, np.random.default_rng(4))
    before = {n: p.data.copy() for n, p in params.items()}
    opt = Adam(params)
    opt.step({n: np.zeros_like(p.data) for n, p in params.items()})
    for n, p in params.items():
        assert np.array_equal(p.data, before[n])


def test_adam_updates_in_place_like_the_rebinding_formula():
    """Adam writes into the same arrays, so a Tensor view taken before a step
    sees it; three steps are bit-equal to rebinding each array anew."""
    cfg = reduced_cfg("lstm")
    params = init_params(cfg, np.random.default_rng(4))
    arrays = {n: p.data for n, p in params.items()}
    views = {n: Tensor(p.data) for n, p in params.items()}
    want = {n: p.data.copy() for n, p in params.items()}
    m = {n: np.zeros_like(w) for n, w in want.items()}
    v = {n: np.zeros_like(w) for n, w in want.items()}
    opt = Adam(params, lr=0.01)
    rng = np.random.default_rng(5)
    b1, b2, eps = 0.9, 0.999, 1e-8
    for t in range(1, 4):
        grads = {n: rng.normal(size=w.shape) for n, w in want.items()}
        opt.step(grads)
        for n, g in grads.items():
            m[n] = b1 * m[n] + (1.0 - b1) * g
            v[n] = b2 * v[n] + (1.0 - b2) * g * g
            want[n] = want[n] - 0.01 * (m[n] / (1.0 - b1 ** t)) / (
                np.sqrt(v[n] / (1.0 - b2 ** t)) + eps)
    for n, p in params.items():
        assert p.data is arrays[n]
        assert np.array_equal(p.data, want[n])
        assert np.array_equal(views[n].data, want[n])


def float32_params(cfg, rng):
    """``init_params`` cast to float32, as ``train`` casts them."""
    params = init_params(cfg, rng)
    for p in params.values():
        p.data = p.data.astype(np.float32)
    return params


# tensors of one LSTM step: the speech and context inputs, their
# projections, recurrences and row gathers (8), the two dropout nodes, the
# query, key and value projections, attention, its residual, the head and
# the loss; the transformer's encoder layers make up the rest of its count
STEP_TENSORS = {"lstm": 17, "transformer": 58}


@pytest.mark.parametrize("arch", STEP_TENSORS)
def test_a_training_step_records_only_the_models_nodes(arch, monkeypatch):
    """A paper-sized step (B = 16, T = 5, d = 40, hidden 128, dropout on)
    makes one tensor per node: dropout, the head and the batch loss are one
    node each, and no constant operand is wrapped in a tensor of its own."""
    rng = np.random.default_rng(44)
    cfg = ModelConfig(arch, feature_dim=40)
    params = float32_params(cfg, rng)
    X, S, targets = random_batch(rng, B=16, T=5, d=40)
    made = []
    init = Tensor.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)
    monkeypatch.setattr(Tensor, "__init__", recording)
    gradient(params, X, S, targets, cfg, rng=np.random.default_rng(0))
    assert len(made) == STEP_TENSORS[arch]


@pytest.mark.parametrize("arch", ["lstm", "transformer"])
def test_a_float32_step_records_no_float64_array(arch, monkeypatch):
    """A float32 rollout, gradient and Adam step, dropout on, from float64
    features, contexts and targets: the only float64 tensor on the tape is
    the scalar loss, no backward hands on a float64 gradient array, and
    every gradient and both Adam moments are float32."""
    rng = np.random.default_rng(41)
    cfg = replace(reduced_cfg(arch), dropout=0.3)
    params = float32_params(cfg, rng)
    samples = [replace(s, prev_indices=((i + 3) % 12, (i + 5) % 12))
               for i, s in enumerate(make_samples(rng, 12))]
    made, handed = [], []
    init, accum = Tensor.__init__, Tensor._accum

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self.data)

    def recording_accum(self, g):
        handed.append(np.asarray(g))
        accum(self, g)
    monkeypatch.setattr(Tensor, "__init__", recording)
    monkeypatch.setattr(Tensor, "_accum", recording_accum)
    idx = np.arange(8)
    X = np.stack([samples[i].features for i in idx])
    S = np.stack([samples[i].context for i in idx])
    const = {n: Tensor(p.data) for n, p in params.items()}
    S[::2] = _rollout_contexts(samples, idx[::2], const, cfg)
    targets = training._targets([samples[i] for i in idx])
    assert X.dtype == S.dtype == targets.dtype == np.float64
    _, grads = gradient(params, X, S, targets, cfg, rng=np.random.default_rng(0))
    opt = Adam(params)
    opt.step(grads)
    assert sum(a.dtype == np.float32 and a.size > 1 for a in made) > 20
    assert [a.shape for a in made if a.dtype != np.float32 and a.size > 1] == []
    assert handed and [g.shape for g in handed if g.dtype != np.float32 and g.size > 1] == []
    for n, p in params.items():
        assert p.data.dtype == grads[n].dtype == np.float32, n
        assert opt.m[n].dtype == opt.v[n].dtype == np.float32, n


def float64_copy(params):
    return {n: Tensor(p.data.astype(np.float64), requires_grad=True)
            for n, p in params.items()}


@pytest.mark.parametrize("arch", ["lstm", "transformer"])
def test_float32_gradient_matches_float64(arch):
    """On float32 parameters and a float32-representable batch, the float32
    loss is within 1e-6 of the float64 one, and each float32 gradient within
    1e-5 of the float64 gradient's norm (1.8e-6 was the largest over 20
    seeds), with the same dropout masks."""
    rng = np.random.default_rng(43)
    cfg = replace(reduced_cfg(arch, layers=2), dropout=0.3)
    p32 = float32_params(cfg, rng)
    p64 = float64_copy(p32)
    X, S, targets = repeated_context_batch(rng)
    X = X.astype(np.float32).astype(np.float64)
    loss32, g32 = gradient(p32, X, S, targets, cfg, rng=np.random.default_rng(5))
    loss64, g64 = gradient(p64, X, S, targets, cfg, rng=np.random.default_rng(5))
    assert loss32 == pytest.approx(loss64, rel=1e-6, abs=0)
    for n in sorted(p64):
        assert g32[n].dtype == np.float32 and g64[n].dtype == np.float64, n
        assert np.any(g64[n] != 0.0), n
        assert np.linalg.norm(g32[n] - g64[n]) <= 1e-5 * np.linalg.norm(g64[n]), n


def test_float32_adam_matches_float64():
    """Three float32 Adam steps leave each parameter within 4 float32 epsilons
    of its tensor's largest magnitude of the float64 steps on the same
    gradients (1.4 was the largest over 30 seeds), and the moments within
    1e-6 of their tensor's largest (2.5e-7)."""
    rng = np.random.default_rng(44)
    p32 = float32_params(reduced_cfg("lstm"), rng)
    p64 = float64_copy(p32)
    opt32, opt64 = Adam(p32, lr=0.01), Adam(p64, lr=0.01)
    for _ in range(3):
        grads = {n: rng.normal(size=p.shape).astype(np.float32) for n, p in p32.items()}
        opt32.step(grads)
        opt64.step({n: g.astype(np.float64) for n, g in grads.items()})
    eps = np.finfo(np.float32).eps
    for n in p64:
        assert p32[n].data.dtype == np.float32, n
        assert within(p32[n].data, p64[n].data, 4 * eps), n
        assert within(opt32.m[n], opt64.m[n], 1e-6), n
        assert within(opt32.v[n], opt64.v[n], 1e-6), n


def test_teacher_forced_extremes():
    """p = 1 always keeps the ground truth and p = 0 always rolls out."""
    rng = np.random.default_rng(5)
    assert all(_teacher_forced(1.0, rng) for _ in range(1000))
    assert not any(_teacher_forced(0.0, rng) for _ in range(1000))


def test_teacher_forced_frequency():
    rng = np.random.default_rng(6)
    hits = sum(_teacher_forced(0.8, rng) for _ in range(10_000))
    assert 0.78 <= hits / 10_000 <= 0.82


def make_samples(rng, count, T=3, d=8):
    samples = []
    for _ in range(count):
        target = VadCode(*(int(b) for b in rng.integers(0, 2, 3)))
        ctx = np.zeros((T, 3))
        ctx[1:] = rng.integers(0, 2, size=(T - 1, 3))
        samples.append(TrainSample(
            features=rng.normal(size=(T, d)),
            context=ctx,
            target=target,
        ))
    return samples


def test_rollout_contexts_substitute_binarised_predictions():
    """Each context slot that names a sample holds that sample's binarised
    prediction under its own ground-truth context; -1 slots keep the truth."""
    rng = np.random.default_rng(21)
    cfg = reduced_cfg("lstm")
    params = init_params(cfg, rng)
    prev = [(-1, 5), (2, -1), (-1, -1), (0, 1), (7, 3), (4, 4), (1, -1), (6, 0)]
    samples = [replace(s, prev_indices=p)
               for s, p in zip(make_samples(rng, len(prev)), prev)]
    truth = [s.context.copy() for s in samples]
    idx = [0, 3, 3, 4, 6, 7]
    out = _rollout_contexts(samples, idx, params, cfg)
    assert out.shape == (len(idx), 3, 3)
    changed = 0
    for row, i in enumerate(idx):
        assert np.array_equal(out[row][0], truth[i][0])  # default code
        for slot, j in enumerate(samples[i].prev_indices, start=1):
            if j < 0:
                assert np.array_equal(out[row][slot], truth[i][slot])
                continue
            probs = forward_batch(samples[j].features[None],
                                  samples[j].context[None], params, cfg).data[0]
            assert np.array_equal(out[row][slot], (probs > 0.5).astype(float))
            changed += not np.array_equal(out[row][slot], truth[i][slot])
    assert changed  # some predictions differ from the ground truth
    for s, t in zip(samples, truth):
        assert np.array_equal(s.context, t)  # samples are not modified


def test_single_batch_overfit(tmp_path):
    rng = np.random.default_rng(7)
    samples = make_samples(rng, 16)
    cfg = ModelConfig("lstm", feature_dim=8, hidden=16, dropout=0.0)
    tcfg = TrainConfig(epochs=1, iterations_per_epoch=200, batch_size=16,
                       seed=1, patience=10, learning_rate=0.01)
    # train on the fixed 16 samples, validating on the same set
    result = train(samples, samples, tcfg, cfg, out_dir=tmp_path)
    assert result["history"][-1][3] < 0.05  # val loss on the training set


def test_overfit_loss_decreases_over_intervals(tmp_path):
    rng = np.random.default_rng(8)
    samples = make_samples(rng, 16)
    cfg = ModelConfig("lstm", feature_dim=8, hidden=16, dropout=0.0)
    # log every 20 steps by running 20-step epochs
    tcfg = TrainConfig(epochs=6, iterations_per_epoch=20, batch_size=16,
                       seed=2, patience=20, learning_rate=0.01)
    result = train(samples, samples, tcfg, cfg, out_dir=tmp_path)
    losses = [row[2] for row in result["history"]]
    drops = sum(b < a for a, b in zip(losses, losses[1:]))
    assert drops / (len(losses) - 1) >= 0.95


def test_train_determinism(tmp_path):
    rng = np.random.default_rng(9)
    samples = make_samples(rng, 24)
    val = make_samples(rng, 8)
    cfg = ModelConfig("lstm", feature_dim=8, hidden=8, dropout=0.3)
    tcfg = TrainConfig(epochs=2, iterations_per_epoch=10, batch_size=4, seed=3)
    train(samples, val, tcfg, cfg, tmp_path / "a")
    train(samples, val, tcfg, cfg, tmp_path / "b")
    assert (tmp_path / "a/metrics.csv").read_bytes() == \
           (tmp_path / "b/metrics.csv").read_bytes()
    assert (tmp_path / "a/best.ckpt").read_bytes() == \
           (tmp_path / "b/best.ckpt").read_bytes()


@pytest.mark.parametrize("p, rollout_steps", [(1.0, 0), (0.0, 6)])
def test_train_teacher_forcing_extremes(p, rollout_steps, tmp_path, monkeypatch):
    """The loop draws ``_teacher_forced`` for each batch row: p = 1 never
    rolls out, p = 0 rolls out at every one of the 2 x 3 steps."""
    rng = np.random.default_rng(10)
    samples = make_samples(rng, 8)
    calls = []
    rollout = training._rollout_contexts

    def counting(*args):
        calls.append(args)
        return rollout(*args)
    monkeypatch.setattr(training, "_rollout_contexts", counting)
    tcfg = TrainConfig(epochs=2, iterations_per_epoch=3, batch_size=4,
                       teacher_forcing_p=p, seed=4)
    train(samples, samples, tcfg, reduced_cfg("lstm"), tmp_path)
    assert len(calls) == rollout_steps


def test_train_rolls_out_only_the_rows_that_drew_a_rollout(tmp_path, monkeypatch):
    """_rollout_contexts gets the batch rows whose teacher-forcing draw chose
    a rollout, in batch order, and no teacher-forced row."""
    samples = make_samples(np.random.default_rng(10), 8)
    calls = []
    rollout = training._rollout_contexts

    def recording(samples, idx, *args):
        calls.append([int(i) for i in idx])
        return rollout(samples, idx, *args)
    monkeypatch.setattr(training, "_rollout_contexts", recording)
    tcfg = TrainConfig(epochs=2, iterations_per_epoch=3, batch_size=4,
                       teacher_forcing_p=0.5, seed=4)
    train(samples, samples, tcfg, reduced_cfg("lstm"), tmp_path)
    want = []
    for epoch in range(2):
        for it in range(3):
            rng = training._step_rng(4, 1, epoch, it)
            idx = rng.integers(0, len(samples), size=4)
            drew = [not training._teacher_forced(0.5, rng) for _ in idx]
            if any(drew):
                want.append([int(i) for i, d in zip(idx, drew) if d])
    assert calls == want
    assert sum(map(len, want)) < 4 * len(want)  # some rows were teacher forced


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_train_step_feeds_gradient_rollouts_or_ground_truth(p, tmp_path, monkeypatch):
    """With p = 0 every batch row reaches ``gradient`` with its one-step
    rollout under the step's parameters (each slot naming a sample holds
    that sample's binarised prediction); with p = 1, with its ground truth."""
    rng = np.random.default_rng(12)
    cfg = reduced_cfg("lstm")
    recordings = [RecordingData(
        f"r{k}", "train", rng.normal(size=(n, cfg.feature_dim)), [],
        [VadCode(*(int(b) for b in rng.integers(0, 2, 3))) for _ in range(n)],
        [None] * n, None) for k, n in enumerate((6, 5))]
    samples = build_samples(recordings, history=2)
    real_gradient = training.gradient
    rows = changed = 0

    def checking(params, X, S, targets, cfg, rng=None):
        nonlocal rows, changed
        view = {n: Tensor(t.data) for n, t in params.items()}
        for x, ctx in zip(X, S):
            (s,) = [s for s in samples if np.array_equal(s.features, x)]
            want = s.context.copy()
            for slot, j in enumerate(s.prev_indices if p == 0 else (), start=1):
                if j >= 0:
                    probs = forward_batch(samples[j].features[None],
                                          samples[j].context[None], view, cfg).data[0]
                    want[slot] = probs > 0.5
            assert np.array_equal(ctx, want)
            rows += 1
            changed += not np.array_equal(ctx, s.context)
        return real_gradient(params, X, S, targets, cfg, rng=rng)
    monkeypatch.setattr(training, "gradient", checking)
    tcfg = TrainConfig(epochs=2, iterations_per_epoch=3, batch_size=6,
                       teacher_forcing_p=p, seed=5)
    train(samples, samples, tcfg, cfg, tmp_path)
    assert rows == 2 * 3 * 6
    assert (changed > 0) == (p == 0)  # some rollouts differ from the truth


def run_with_val_losses(losses, epochs, out, patience=1):
    """``train`` on a fixed sample set, with ``evaluate_loss`` returning the
    validation ``losses`` in turn."""
    samples = make_samples(np.random.default_rng(13), 8)
    losses = iter(losses)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "evaluate_loss",
                   lambda *args: (next(losses), EvalReport(1, 1, 1, 1)))
        tcfg = TrainConfig(epochs=epochs, iterations_per_epoch=2, batch_size=4,
                           teacher_forcing_p=0.5, seed=6, patience=patience)
        return train(samples, samples, tcfg, reduced_cfg("lstm"), out)


@pytest.mark.parametrize("patience, losses, best_epoch", [
    (0, [1.0, 1.5], 0),
    (1, [1.0, 0.5, 0.6, 0.7], 1),
    (2, [1.0, 0.9, 0.95, 0.85, 0.9, 0.91, 0.92], 3),
    (1, [1.0, 1.0, 1.0], 0),  # a tie does not improve
], ids=["patience-0", "patience-1", "patience-2", "patience-1-ties"])
def test_train_stops_early_and_keeps_the_best_epochs_checkpoint(
    patience, losses, best_epoch, tmp_path
):
    """An epoch improves when its validation loss is strictly below the best
    so far, and writes best.ckpt; the loop stops after the epoch that makes
    more than ``patience`` epochs in a row without improvement, so it runs
    exactly ``losses`` (the later ones, which would improve, go unread)."""
    result = run_with_val_losses([*losses, 0.1, 0.1], len(losses) + 2,
                                 tmp_path / "stopped", patience)
    assert result["epochs_run"] == len(losses)
    assert [row[3] for row in result["history"]] == losses
    assert result["best_val_loss"] == losses[best_epoch] == min(losses)
    assert len(result["metrics"].read_text().splitlines()) == 1 + len(losses)
    ckpt = result["checkpoint"].read_bytes()
    assert ckpt == run_with_val_losses(
        losses, best_epoch + 1, tmp_path / "best", patience)["checkpoint"].read_bytes()
    if best_epoch:  # best.ckpt was written again at the later best epoch
        assert ckpt != run_with_val_losses(
            losses, 1, tmp_path / "epoch0", patience)["checkpoint"].read_bytes()
    save_checkpoint(tmp_path / "last.ckpt", result["params"], reduced_cfg("lstm"))
    assert ckpt != (tmp_path / "last.ckpt").read_bytes()


def test_train_keeps_its_log_when_the_validation_loss_turns_non_finite(tmp_path):
    """Each epoch's metrics.csv row is written once its validation has run:
    a NaN validation loss at epoch 2 of 5 raises after its row, and best.ckpt
    is the one a 2-epoch run writes."""
    with pytest.raises(TrainingDiverged, match="non-finite validation loss: nan"):
        run_with_val_losses([1.0, 0.9, np.nan], 5, tmp_path / "diverged")
    rows = (tmp_path / "diverged" / "metrics.csv").read_text().splitlines()
    assert rows[0] == "epoch,step,train_loss,val_loss,val_acc,val_f1,lr"
    assert [row.split(",")[:2] for row in rows[1:]] == [["0", "2"], ["1", "4"], ["2", "6"]]
    assert [row.split(",")[3] for row in rows[1:]] == ["1.0", "0.9", "nan"]
    two = run_with_val_losses([1.0, 0.9], 2, tmp_path / "two")
    assert (tmp_path / "diverged" / "best.ckpt").read_bytes() == \
           two["checkpoint"].read_bytes()
    assert (tmp_path / "two" / "metrics.csv").read_text().splitlines() == rows[:3]


@pytest.mark.parametrize("arch", ["lstm", "transformer"])
def test_best_checkpoint_holds_the_trained_parameters_bit_for_bit(arch, tmp_path):
    """Training runs in float32 and the checkpoint stores float32, so after a
    one-epoch run (whose one epoch is the best) every reloaded tensor, cast
    back to float32, has the bytes of the parameters training ended with."""
    rng = np.random.default_rng(45)
    samples = make_samples(rng, 12)
    cfg = replace(reduced_cfg(arch), dropout=0.3)
    tcfg = TrainConfig(epochs=1, iterations_per_epoch=4, batch_size=4,
                       teacher_forcing_p=0.5, seed=9)
    result = train(samples, make_samples(rng, 6), tcfg, cfg, tmp_path)
    params, loaded = load_checkpoint(result["checkpoint"])
    assert loaded == cfg
    assert params.keys() == result["params"].keys()
    for n, p in result["params"].items():
        assert p.data.dtype == np.float32, n
        assert params[n].data.astype(np.float32).tobytes() == p.data.tobytes(), n


def test_an_lstm_takes_a_hidden_size_its_head_count_does_not_divide(tmp_path):
    """Only the transformer's self-attention splits into heads: an LSTM
    holds no head count, so hidden size 6, which the transformer's default 4
    heads do not divide, builds, trains a step, and its checkpoint loads back
    as the same model."""
    cfg = ModelConfig("lstm", feature_dim=8, hidden=6)
    assert cfg.heads is None and cfg.hidden % ModelConfig("transformer", 8).heads != 0
    samples = make_samples(np.random.default_rng(15), 8)
    tcfg = TrainConfig(epochs=1, iterations_per_epoch=1, batch_size=4, seed=7)
    result = train(samples, samples, tcfg, cfg, tmp_path)
    params, loaded = load_checkpoint(result["checkpoint"])
    assert loaded == cfg
    assert params.keys() == result["params"].keys()
    for n, p in result["params"].items():
        assert np.array_equal(params[n].data, p.data.astype(np.float32))


@pytest.mark.parametrize("arch", ["lstm", "transformer"])
def test_gradient_raises_diverged_on_a_nan_feature(arch):
    rng = np.random.default_rng(14)
    cfg = reduced_cfg(arch)
    params = init_params(cfg, rng)
    X, S, targets = random_batch(rng)
    X[1, 2, 5] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(TrainingDiverged, match="non-finite training loss"):
            gradient(params, X, S, targets, cfg)


def test_rollout_and_validation_get_an_untaped_view(tmp_path, monkeypatch):
    """Rollout and validation run on constant tensors that share the trained
    parameters' arrays, so their forwards record no tape."""
    samples = make_samples(np.random.default_rng(10), 8)
    seen = []

    def recording(fn):
        def wrapped(*args):
            seen.append(args[-2])  # each takes (..., params, cfg)
            return fn(*args)
        return wrapped
    for name in ("_rollout_contexts", "evaluate_loss", "evaluate_accuracy"):
        monkeypatch.setattr(training, name, recording(getattr(training, name)))
    tcfg = TrainConfig(epochs=1, iterations_per_epoch=3, batch_size=4,
                       teacher_forcing_p=0.0, seed=4)
    result = train(samples, samples, tcfg, reduced_cfg("lstm"), tmp_path)
    assert len(seen) == 3 + 1  # three rollouts, one validation pass
    for view in seen:
        assert view is seen[0]
        for n, p in result["params"].items():
            assert not view[n].requires_grad
            assert view[n].data is p.data


@pytest.mark.parametrize("arch", ["lstm", "transformer"])
def test_train_runs_one_validation_forward_per_epoch(tmp_path, monkeypatch, arch):
    """With the validation set inside one EVAL_BATCH chunk, each epoch runs
    the model over the validation rows exactly once, for the loss and the
    accuracy and F1 that metrics.csv records alike."""
    rng = np.random.default_rng(17)
    train_samples, val_samples = make_samples(rng, 8), make_samples(rng, 10)
    assert len(val_samples) <= EVAL_BATCH
    val_X = np.stack([s.features for s in val_samples])
    val_forwards = 0

    def counting(X, *args, **kwargs):
        nonlocal val_forwards
        val_forwards += X.shape == val_X.shape and np.array_equal(X, val_X)
        return forward_batch(X, *args, **kwargs)
    monkeypatch.setattr(training, "forward_batch", counting)
    epochs = 3
    tcfg = TrainConfig(epochs=epochs, iterations_per_epoch=2, batch_size=4,
                       teacher_forcing_p=0.5, seed=8, patience=epochs)
    result = train(train_samples, val_samples, tcfg, reduced_cfg(arch), tmp_path)
    assert result["epochs_run"] == epochs
    assert val_forwards == epochs


def test_train_rejects_empty(tmp_path):
    """A DataError (a ValueError) naming the empty set, before any file is written."""
    cfg = ModelConfig("lstm", feature_dim=8, hidden=8)
    with pytest.raises(DataError, match="^no training samples$"):
        train([], [], TrainConfig(), cfg, tmp_path / "run")
    sample = TrainSample(np.zeros((1, 8)), np.zeros((1, 3)), DEFAULT_CODE)
    with pytest.raises(DataError, match="^no validation samples$"):
        train([sample], [], TrainConfig(), cfg, tmp_path / "run")
    assert not (tmp_path / "run").exists()


def test_gradient_rejects_an_empty_batch():
    cfg = reduced_cfg("lstm")
    X, S, targets = random_batch(np.random.default_rng(0), B=0)
    with pytest.raises(ValueError, match="batch must be non-empty"):
        gradient(init_params(cfg, np.random.default_rng(0)), X, S, targets, cfg)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(teacher_forcing_p=1.2)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)


@pytest.mark.parametrize("arch", ["lstm", "transformer"])
def test_validation_matches_numpy_bce_and_confusion_counts(arch):
    """evaluate_loss returns a numpy BCE bit for bit and a hand-counted
    confusion matrix, and evaluate_accuracy scores that matrix, including
    probabilities clamped at 0/1, over two full validation chunks and a
    short last one."""
    rng = np.random.default_rng(31)
    samples = make_samples(rng, 150)
    assert len(samples) > 2 * EVAL_BATCH
    cfg = reduced_cfg(arch)
    params = init_params(cfg, rng)
    # valence saturates at 0 and arousal at 1, so both hit the clamp and
    # dominance alone decides stress
    params["head.b"].data[:] = [-40.0, 40.0, 0.0]
    batch = EVAL_BATCH
    total = 0.0
    tp = fp = tn = fn = 0
    for lo in range(0, len(samples), batch):
        chunk = samples[lo : lo + batch]
        X = np.stack([s.features for s in chunk])
        S = np.stack([s.context for s in chunk])
        T = np.array([s.target.as_tuple() for s in chunk], dtype=float)
        probs = forward_batch(X, S, params, cfg).data
        p = np.clip(probs, 1e-7, 1.0 - 1e-7)
        total += float(
            (-(T * np.log(p) + (1.0 - T) * np.log(1.0 - p))).mean(axis=1).sum()
        )
        for s, q in zip(chunk, probs):
            pred = q[0] <= 0.5 and q[1] > 0.5 and q[2] <= 0.5
            truth = s.target.as_tuple() == (0, 1, 0)
            tp += pred and truth
            fp += pred and not truth
            fn += truth and not pred
            tn += not pred and not truth
    assert tp and tn and (fp or fn)  # every branch of the scorer is reached
    got, report = evaluate_loss(samples, params, cfg)
    assert got.hex() == (total / len(samples)).hex()
    assert report == EvalReport(tp=tp, fp=fp, tn=tn, fn=fn)
    acc, f1 = evaluate_accuracy(samples, params, cfg)
    assert acc == (tp + tn) / len(samples)
    assert f1 == 2 * tp / (2 * tp + fp + fn)
