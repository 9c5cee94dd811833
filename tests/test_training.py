import gc
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from dynstress import model, training
from dynstress.autodiff import Tensor, linear
from dynstress.evaluation import EvalReport
from dynstress.model import (
    ModelConfig,
    context_memory,
    context_states,
    forward_batch,
    init_params,
    lstm_states,
    param_names,
    readout,
    speech_inputs,
    transformer_states,
)
from dynstress.pipeline import RecordingData, build_samples
from dynstress.training import (
    EVAL_BATCH,
    Adam,
    EarlyStopping,
    TrainConfig,
    TrainSample,
    TrainingDiverged,
    bce_loss,
    batch_loss_graph,
    evaluate_accuracy,
    evaluate_loss,
    gradient,
    numerical_gradient,
    sample_context,
    _rollout_contexts,
    train,
)
from dynstress.vad import DEFAULT_CODE, VadCode


def reduced_cfg(arch):
    if arch == "lstm":
        return ModelConfig("lstm", feature_dim=8, hidden=8, heads=2, ffn=16,
                           dropout=0.0)
    return ModelConfig("transformer", feature_dim=8, hidden=8, heads=2,
                       ffn=16, layers=1, ctx_layers=1, dropout=0.0)


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


def test_bce_half_probs():
    rep = bce_loss((0.5, 0.5, 0.5), VadCode(0, 1, 0))
    assert rep.total == pytest.approx(math.log(2), abs=1e-12)


def test_bce_perfect_probs_near_zero():
    rep = bce_loss((1.0, 0.0, 1.0), VadCode(1, 0, 1))
    assert 0 < rep.total < 1e-6


def test_bce_spot_value():
    rep = bce_loss((0.9, 0.8, 0.1), VadCode(1, 1, 0))
    expect = (-math.log(0.9) - math.log(0.8) - math.log(0.9)) / 3
    assert rep.total == pytest.approx(expect, abs=1e-10)
    assert rep.valence == pytest.approx(-math.log(0.9), abs=1e-10)


def test_bce_total_is_mean_of_components():
    rep = bce_loss((0.3, 0.6, 0.9), VadCode(1, 0, 1))
    assert rep.total == pytest.approx(
        (rep.valence + rep.arousal + rep.dominance) / 3
    )


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
    for n in param_names(params):
        a, b = grads[n], num[n]
        rel = np.abs(a - b) / np.maximum(np.abs(a) + np.abs(b), 1e-8)
        assert rel.max() < 1e-4, (n, rel.max())


def test_zero_logit_bias_gradient_identity():
    # With all parameters zero, probs are 0.5 and the gradient of the final
    # bias is mean(p - t) / 3 for each dimension (total loss averages dims).
    cfg = reduced_cfg("lstm")
    rng = np.random.default_rng(2)
    params = init_params(cfg, rng)
    for n in param_names(params):
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
    hs, hc = hs[:, -1:, :], context_states(S, params, cfg)
    if rng is not None and cfg.dropout > 0:  # the speech mask first, as in fuse
        hs = hs * Tensor((rng.random(hs.shape) >= cfg.dropout) / (1.0 - cfg.dropout))
        hc = hc * Tensor((rng.random(hc.shape) >= cfg.dropout) / (1.0 - cfg.dropout))
    q = linear(hs, params["attn.wq"], params["attn.bq"])
    return readout(q, *context_memory(hc, params), params, cfg)


def within(got, want, scale=1e-12):
    return np.abs(got - want).max() <= scale * np.abs(want).max()


@pytest.mark.parametrize("arch", ["lstm", "transformer"])
def test_forward_and_gradient_equal_the_plain_path(arch, monkeypatch):
    """Encoding each distinct context once and only the last speech row
    changes no probability and no gradient beyond rounding, dropout on."""
    # two speech layers: the last-row layer reads a full one's output
    cfg = replace(reduced_cfg(arch), dropout=0.3, layers=2)
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
    for n in param_names(params):
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


def test_sample_context_extremes():
    rng = np.random.default_rng(5)
    gt = [VadCode(0, 0, 0), VadCode(0, 1, 0)]
    ro = [VadCode(0, 0, 0), VadCode(1, 1, 1)]
    assert sample_context(gt, ro, 1.0, rng) is gt
    assert sample_context(gt, ro, 0.0, rng) is ro
    with pytest.raises(ValueError):
        sample_context(gt, ro[:1], 0.5, rng)


def test_sample_context_frequency():
    rng = np.random.default_rng(6)
    gt, ro = [VadCode(0, 1, 0)], [VadCode(1, 1, 1)]
    hits = sum(
        sample_context(gt, ro, 0.8, rng) is gt for _ in range(10_000)
    )
    assert 0.78 <= hits / 10_000 <= 0.82


def test_early_stopping_patience_zero():
    s = EarlyStopping(patience=0)
    assert s.update(1.0)
    assert not s.update(1.5)
    assert s.stop


def test_early_stopping_tracks_best():
    s = EarlyStopping(patience=2)
    losses = [1.0, 0.9, 0.95, 0.85, 0.9, 0.91, 0.92]
    for v in losses:
        s.update(v)
    assert s.best == 0.85
    assert s.stop


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
    cfg = ModelConfig("lstm", feature_dim=8, hidden=16, heads=2, dropout=0.0)
    tcfg = TrainConfig(epochs=1, iterations_per_epoch=200, batch_size=16,
                       seed=1, patience=10, learning_rate=0.01)
    # train on the fixed 16 samples, validating on the same set
    result = train(samples, samples, tcfg, cfg, out_dir=tmp_path)
    assert result["history"][-1][3] < 0.05  # val loss on the training set


def test_overfit_loss_decreases_over_intervals(tmp_path):
    rng = np.random.default_rng(8)
    samples = make_samples(rng, 16)
    cfg = ModelConfig("lstm", feature_dim=8, hidden=16, heads=2, dropout=0.0)
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
    cfg = ModelConfig("lstm", feature_dim=8, hidden=8, heads=2, dropout=0.3)
    tcfg = TrainConfig(epochs=2, iterations_per_epoch=10, batch_size=4, seed=3)
    train(samples, val, tcfg, cfg, tmp_path / "a")
    train(samples, val, tcfg, cfg, tmp_path / "b")
    assert (tmp_path / "a/metrics.csv").read_bytes() == \
           (tmp_path / "b/metrics.csv").read_bytes()
    assert (tmp_path / "a/best.ckpt").read_bytes() == \
           (tmp_path / "b/best.ckpt").read_bytes()


@pytest.mark.parametrize("p, rollout_steps", [(1.0, 0), (0.0, 6)])
def test_train_teacher_forcing_extremes(p, rollout_steps, tmp_path, monkeypatch):
    """The loop draws teacher forcing as sample_context does: p = 1 never
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


def test_train_stops_early_and_keeps_the_best_epochs_checkpoint(tmp_path, monkeypatch):
    """Validation losses 1.0, 0.5, 0.6, 0.7 with patience 1: the loop stops
    after epoch 3, and best.ckpt is the one epoch 1 wrote."""
    samples = make_samples(np.random.default_rng(13), 8)
    cfg = reduced_cfg("lstm")

    def run(epochs, out):
        losses = iter([1.0, 0.5, 0.6, 0.7, 0.8, 0.9])
        monkeypatch.setattr(training, "evaluate_loss",
                            lambda *args: (next(losses), EvalReport(1, 1, 1, 1)))
        tcfg = TrainConfig(epochs=epochs, iterations_per_epoch=2, batch_size=4,
                           teacher_forcing_p=0.5, seed=6, patience=1)
        return train(samples, samples, tcfg, cfg, tmp_path / out)
    result = run(6, "stopped")
    assert result["epochs_run"] == 4
    assert [row[3] for row in result["history"]] == [1.0, 0.5, 0.6, 0.7]
    assert result["best_val_loss"] == 0.5
    assert len(result["metrics"].read_text().splitlines()) == 1 + 4
    ckpt = result["checkpoint"].read_bytes()
    assert ckpt == run(2, "epoch1")["checkpoint"].read_bytes()
    assert ckpt != run(1, "epoch0")["checkpoint"].read_bytes()


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
    cfg = ModelConfig("lstm", feature_dim=8, hidden=8, heads=2)
    with pytest.raises(ValueError):
        train([], [], TrainConfig(), cfg, tmp_path)


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
