"""Acceptance suite: one test per release criterion.

Each test states its criterion in the docstring and checks the stated
tolerance; independent oracles are (re)implemented locally so a defect in
the library cannot hide in the check itself.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

from dynstress.autodiff import Tensor
from dynstress.evaluation import labelling_sweep, majority_vote, score_sequence_level
from dynstress.features import MfccConfig, dct_basis, mfcc_frames
from dynstress.labelling import LabellingConfig, relabel_sequence
from dynstress.model import (
    ModelConfig,
    context_array,
    forward_batch,
    init_params,
    load_checkpoint,
)
from dynstress.segmentation import segment
from dynstress.training import (
    TrainConfig,
    TrainSample,
    _teacher_forced,
    batch_loss_graph,
    evaluate_accuracy,
    gradient,
    numerical_gradient,
    train,
)
from dynstress.vad import (
    STRESS_CODE,
    Emotion,
    VadCode,
    encode_emotion,
    hamming_distance,
    is_stress,
)

ALPHABET = [encode_emotion(e) for e in Emotion]  # six catalogue entries
SR = 16000


def brute_force_relabel(seq, n, lam, tau):
    """Independent transcription of the distance/decay/threshold equations."""
    threshold = tau * sum(2.0 * math.exp(-lam * k) for k in range(n + 1))
    out = []
    for t in range(len(seq)):
        theta = 0.0
        for tp in range(t, max(-1, t - n - 1), -1):
            theta += math.exp(-lam * (t - tp)) * hamming_distance(
                STRESS_CODE, seq[tp]
            )
        out.append(STRESS_CODE if theta <= threshold else seq[t])
    return out


def test_criterion_1_labelling_oracle_equivalence():
    """All 6^k sequences (k <= 6) x 72 (n, lambda, tau) configs, exact match,
    under two minutes."""
    start = time.monotonic()
    sequences = [
        list(seq)
        for k in range(1, 7)
        for seq in itertools.product(ALPHABET, repeat=k)
    ]
    mismatches = 0
    checked = 0
    for n in range(6):
        for lam in (0.01, 0.1, 0.8, 1.0):
            for tau in (0.25, 0.5, 0.75):
                cfg = LabellingConfig(n=n, lam=lam, tau=tau)
                for seq in sequences:
                    got = relabel_sequence(seq, cfg)
                    want = brute_force_relabel(seq, n, lam, tau)
                    mismatches += got != want
                    checked += 1
    elapsed = time.monotonic() - start
    assert checked == 55_986 * 72
    assert mismatches == 0
    assert elapsed < 120.0, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_2_n0_sweep_row_constant_across_lambda():
    """The n=0 row of the agreement grid is identical for every lambda,
    exactly, on arbitrary corpora."""
    for seed in (0, 1, 2):
        rng = random.Random(seed)
        ref_cfg = LabellingConfig(n=rng.randint(1, 5), lam=0.8, tau=0.5)
        pairs = []
        for _ in range(30):
            seq = [rng.choice(ALPHABET) for _ in range(rng.randint(1, 12))]
            pairs.append((seq, relabel_sequence(seq, ref_cfg)))
        cells = labelling_sweep(pairs, n_values=[0],
                                lambdas=[0.01, 0.1, 0.8, 1.0])
        assert len({c.binary_agreement for c in cells}) == 1
        assert len({c.exact_agreement for c in cells}) == 1


@pytest.mark.parametrize("arch", ["lstm", "transformer"])
def test_criterion_3_gradient_fidelity(arch):
    """Central finite differences (h=1e-3) agree with the analytic gradients
    to max relative error < 1e-4 on reduced models, under a minute."""
    start = time.monotonic()
    if arch == "lstm":
        cfg = ModelConfig("lstm", feature_dim=8, hidden=8,
                          dropout=0.0)
    else:
        cfg = ModelConfig("transformer", feature_dim=8, hidden=8, heads=2,
                          ffn=16, layers=1, dropout=0.0)
    rng = np.random.default_rng(11)
    params = init_params(cfg, rng)
    T = 4  # history n=3 plus the current window
    X = rng.normal(size=(1, T, 8))
    S = rng.integers(0, 2, size=(1, T, 3)).astype(float)
    S[:, 0, :] = 0.0
    targets = rng.integers(0, 2, size=(1, 3)).astype(float)
    _, grads = gradient(params, X, S, targets, cfg)

    def loss_fn():
        return float(
            batch_loss_graph(forward_batch(X, S, params, cfg), targets).data
        )

    num = numerical_gradient(loss_fn, params, h=1e-3)
    worst = 0.0
    for n in sorted(params):
        rel = np.abs(grads[n] - num[n]) / np.maximum(
            np.abs(grads[n]) + np.abs(num[n]), 1e-8
        )
        worst = max(worst, float(rel.max()))
    elapsed = time.monotonic() - start
    assert worst < 1e-4, worst
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"


HAPPY = encode_emotion(Emotion.HAPPINESS)
LEARN_D = 8


def _lagged_corpus(rng, mu_fear, mu_happy, n_seq, seq_len, history):
    """Features cluster by the current emotion; the stress target follows the
    emotion two windows back."""
    samples = []
    for _ in range(n_seq):
        fear = rng.random(seq_len) < 0.5
        feats = np.where(fear[:, None], mu_fear, mu_happy)
        feats = feats + 0.3 * rng.normal(size=(seq_len, LEARN_D))
        stress = [
            STRESS_CODE if (t >= 2 and fear[t - 2]) else HAPPY
            for t in range(seq_len)
        ]
        for t in range(max(history, 2), seq_len):
            ctx = context_array(stress[t - history : t])
            samples.append(TrainSample(
                features=feats[t - history : t + 1],
                context=ctx,
                target=stress[t],
            ))
    return samples


def _train_lagged(seed, history, tmp_path):
    rng = np.random.default_rng(seed)
    mu_fear = rng.normal(size=LEARN_D)
    mu_happy = rng.normal(size=LEARN_D)
    tr = _lagged_corpus(rng, mu_fear, mu_happy, 60, 14, history)
    va = _lagged_corpus(rng, mu_fear, mu_happy, 20, 14, history)
    cfg = ModelConfig("lstm", feature_dim=LEARN_D, hidden=32, dropout=0.0)
    tcfg = TrainConfig(epochs=1, iterations_per_epoch=2000, batch_size=16,
                       learning_rate=0.01, seed=seed, patience=10,
                       teacher_forcing_p=1.0)
    out = tmp_path / f"learn-{seed}-{history}"
    train(tr, va, tcfg, cfg, out)
    params, _ = load_checkpoint(out / "best.ckpt")
    acc, _ = evaluate_accuracy(va, params, cfg)
    return acc


def test_criterion_4_synthetic_learnability(tmp_path):
    """Recurrent model with n=3 context reaches >= 0.90 segment accuracy on a
    two-Gaussian corpus with 2-window-lagged labels within 2000 steps; the
    n=0 model stays strictly lower, for three seeds, under ten minutes."""
    start = time.monotonic()
    for seed in (0, 1, 2):
        acc_n3 = _train_lagged(seed, history=3, tmp_path=tmp_path)
        acc_n0 = _train_lagged(seed, history=0, tmp_path=tmp_path)
        assert acc_n3 >= 0.90, (seed, acc_n3)
        assert acc_n0 < acc_n3, (seed, acc_n0, acc_n3)
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"learnability check took {elapsed:.1f}s"


def test_criterion_5_segmentation_counts():
    """45 min -> 539 windows, 25 s -> 4, and the closed-form count holds over
    200 random durations."""
    def clip(duration_s):
        return int(round(duration_s * SR))  # its sample count

    assert len(segment(clip(2700))) == 539
    assert len(segment(clip(25))) == 4
    rng = np.random.default_rng(5)
    for _ in range(200):
        dur = float(rng.uniform(10.0, 2 * 3600.0))
        c = clip(dur)
        assert len(segment(c)) == int((c / SR - 10.0) // 5.0) + 1


def test_criterion_6_mfcc_pipeline():
    """DCT orthonormality within 1e-12; 998 frames per 10 s window;
    amplitude scaling shifts only coefficient 0 (within 1e-6)."""
    basis = dct_basis(64)
    assert np.max(np.abs(basis @ basis.T - np.eye(64))) < 1e-12

    x = 0.3 * np.random.default_rng(6).normal(size=10 * SR)
    frames = mfcc_frames(x)
    assert frames.shape == (998, 40)

    diff = mfcc_frames(2.0 * x) - frames
    assert np.max(np.abs(diff[:, 1:])) < 1e-6
    assert np.allclose(diff[:, 0], np.log(2.0) * basis[0].sum(), atol=1e-6)


def test_criterion_7_teacher_forcing_rate():
    """Ground-truth context usage over 1e4 seeded draws lies in [0.78, 0.82]
    for p = 0.8."""
    rng = np.random.default_rng(7)
    # the draw train makes for each batch row; True keeps the ground truth
    hits = sum(_teacher_forced(0.8, rng) for _ in range(10_000))
    assert 0.78 <= hits / 10_000 <= 0.82


def test_criterion_8_loss_spot_values():
    """BCE at (0.5, 0.5, 0.5) equals ln 2 within 1e-12; at zero logits the
    final-bias gradient is mean(0.5 - target) / 3."""
    # the mean batch loss that gradient differentiates
    loss = batch_loss_graph(Tensor(np.array([[0.5, 0.5, 0.5]])),
                            np.array([VadCode(0, 1, 0).as_tuple()], dtype=float))
    assert abs(float(loss.data) - math.log(2.0)) < 1e-12

    cfg = ModelConfig("lstm", feature_dim=8, hidden=8, dropout=0.0)
    params = init_params(cfg, np.random.default_rng(8))
    for n in sorted(params):
        params[n].data[:] = 0.0
    rng = np.random.default_rng(9)
    X = rng.normal(size=(4, 3, 8))
    S = np.zeros((4, 3, 3))
    targets = rng.integers(0, 2, size=(4, 3)).astype(float)
    _, grads = gradient(params, X, S, targets, cfg)
    assert np.allclose(grads["head.b"], (0.5 - targets).mean(axis=0) / 3.0,
                       atol=1e-12)


def test_criterion_9_sequence_scorer_vs_reference():
    """Sequence-level scorer matches an independent reference exactly on a
    50-recording randomized fixture."""
    rng = random.Random(99)
    groups, truth = {}, {}
    for i in range(50):
        rec = f"rec{i}"
        groups[rec] = [rng.random() < 0.5 for _ in range(rng.randint(1, 9))]
        truth[rec] = rng.random() < 0.5
    got = score_sequence_level(groups, truth)

    # reference: explicit vote + confusion counting
    tp = fp = tn = fn = 0
    for rec in groups:
        flags = groups[rec]
        vote = sum(flags) * 2 >= len(flags)  # ties count as stress
        assert vote == majority_vote(flags)
        if vote and truth[rec]:
            tp += 1
        elif vote and not truth[rec]:
            fp += 1
        elif not vote and truth[rec]:
            fn += 1
        else:
            tn += 1
    assert (got.tp, got.fp, got.tn, got.fn) == (tp, fp, tn, fn)
    assert got.accuracy == (tp + tn) / 50
    denom = 2 * tp + fp + fn
    assert got.f1 == (2 * tp / denom if denom else 0.0)


def test_criterion_10_training_determinism(tmp_path):
    """Two runs with the same seed and config produce bitwise-identical
    metrics logs and checkpoints."""
    rng = np.random.default_rng(10)
    samples = []
    for _ in range(24):
        ctx = np.zeros((3, 3))
        ctx[1:] = rng.integers(0, 2, size=(2, 3))
        samples.append(TrainSample(
            features=rng.normal(size=(3, 8)),
            context=ctx,
            target=VadCode(*(int(b) for b in rng.integers(0, 2, 3))),
        ))
    cfg = ModelConfig("lstm", feature_dim=8, hidden=8, dropout=0.3)
    tcfg = TrainConfig(epochs=2, iterations_per_epoch=10, batch_size=4, seed=4)
    train(samples, samples[:8], tcfg, cfg, tmp_path / "a")
    train(samples, samples[:8], tcfg, cfg, tmp_path / "b")
    assert (tmp_path / "a/metrics.csv").read_bytes() == \
           (tmp_path / "b/metrics.csv").read_bytes()
    assert (tmp_path / "a/best.ckpt").read_bytes() == \
           (tmp_path / "b/best.ckpt").read_bytes()
