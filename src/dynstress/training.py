"""Optimisation: per-dimension BCE, Adam, teacher forcing, early stopping."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .autodiff import Tensor
from .evaluation import EvalReport
from .model import (
    ModelConfig,
    binarise,
    decode,
    forward_batch,
    init_params,
    save_checkpoint,
)
from .segmentation import DataError
from .vad import VadCode, is_stress

_CLAMP = 1e-7
LR_DECAY, LR_DECAY_EVERY = 0.5, 5  # the learning rate halves every 5 epochs
EVAL_BATCH = 64  # samples per validation forward pass
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and floor


class TrainingDiverged(RuntimeError):
    """Raised when the loss becomes non-finite."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    iterations_per_epoch: int = 1000
    batch_size: int = 16
    learning_rate: float = 0.001
    teacher_forcing_p: float = 0.8
    seed: int = 0
    patience: int = 5

    def __post_init__(self):
        if not 0.0 <= self.teacher_forcing_p <= 1.0:
            raise DataError("teacher_forcing_p must be in [0, 1]")
        for name in ("epochs", "iterations_per_epoch", "batch_size"):
            if getattr(self, name) <= 0:
                raise DataError(f"{name} must be positive")
        for name in ("seed", "patience"):
            if getattr(self, name) < 0:
                raise DataError(f"{name} must not be negative")
        if not 0.0 < self.learning_rate < np.inf:  # NaN fails too
            raise DataError(
                f"learning_rate must be positive and finite, got {self.learning_rate}")


def _bce_terms(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Elementwise BCE of probabilities ``p`` against 0/1 targets ``t`` of their
    dtype, ``p`` clamped to [1e-7, 1 - 1e-7] before the logs."""
    p = np.clip(p, _CLAMP, 1.0 - _CLAMP)
    return -(t * np.log(p) + (1.0 - t) * np.log(1.0 - p))


def batch_loss_graph(probs: Tensor, targets: np.ndarray) -> Tensor:
    """Mean BCE over a batch as one node of the autodiff graph, a float64
    scalar; the gradient is zero where the clamp holds a probability.

    ``probs`` is (B, 3); ``targets`` is a float (B, 3) array of 0/1.
    """
    t = np.asarray(targets, dtype=probs.data.dtype)
    terms = _bce_terms(probs.data, t)
    def back(g):
        p = np.clip(probs.data, _CLAMP, 1.0 - _CLAMP)
        inside = (probs.data >= _CLAMP) & (probs.data <= 1.0 - _CLAMP)
        g = np.full(terms.shape, g / terms.size, dtype=terms.dtype)
        probs._accum(g * ((1.0 - t) / (1.0 - p) - t / p) * inside)
    # float64 for float32 terms too: the divisor is a float64 scalar
    return Tensor._make(terms.sum() / np.float64(terms.size), (probs,), back)


def gradient(
    params, X: np.ndarray, S: np.ndarray, targets: np.ndarray,
    cfg: ModelConfig, rng: np.random.Generator | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Exact reverse-mode gradients of the mean batch loss; dropout draws its
    masks from ``rng`` when one is given.

    Returns (loss value, gradient arrays keyed like the parameters).
    """
    if X.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    for p in params.values():
        p.grad = None
    probs = forward_batch(X, S, params, cfg, rng=rng)
    loss = batch_loss_graph(probs, targets)
    value = float(loss.data)
    if not np.isfinite(value):
        raise TrainingDiverged(f"non-finite training loss: {value}")
    loss.backward()
    grads = {
        n: (params[n].grad if params[n].grad is not None
            else np.zeros_like(params[n].data))
        for n in params
    }
    return value, grads


def numerical_gradient(loss_fn, params, h: float = 1e-3) -> dict[str, np.ndarray]:
    """Central finite differences of a scalar loss over every parameter.

    Independent oracle for the analytic gradients; O(2 * n_params) loss
    evaluations, intended for reduced-size models only.
    """
    grads = {}
    for name in sorted(params):
        data = params[name].data
        g = np.zeros_like(data)
        flat = data.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            down = loss_fn()
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads[name] = g
    return grads


def _teacher_forced(p: float, rng: np.random.Generator) -> bool:
    """The teacher-forcing draw ``train`` makes for each batch row: True
    (ground truth) with probability p."""
    return rng.random() < p


class Adam:
    """Adam with bias correction.  Updates every ``params[n].data`` in
    place, so a caller holding that array, or a view of it, sees each step."""

    def __init__(self, params, lr=0.001):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {n: np.zeros_like(p.data) for n, p in params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1c = 1.0 - _BETA1 ** self.t
        b2c = 1.0 - _BETA2 ** self.t
        for n, p in self.params.items():
            g, m, v = grads[n], self.m[n], self.v[n]
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            v += (1.0 - _BETA2) * g * g
            p.data -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + _EPS)


@dataclass
class TrainSample:
    """One sliding-window training example."""

    features: np.ndarray          # (T, d)
    context: np.ndarray           # (T, 3) ground-truth context (default first)
    target: VadCode
    prev_indices: tuple[int, ...] = ()  # dataset indices of the context windows
    # (-1 where no full sample exists; ground truth is used there); without
    # them a sample always trains on its ground truth, whatever teacher_forcing_p


def _step_rng(seed: int, *counters: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, *counters)))


def _rollout_contexts(
    samples: Sequence[TrainSample], idx: Sequence[int], params, cfg: ModelConfig,
) -> np.ndarray:
    """Contexts (len(idx), T, 3) for the rows ``idx`` that drew a rollout:
    predict each of their context windows with ground-truth context,
    binarise, and substitute into a copy of the row's context.  Gradients
    never flow through these predictions."""
    S = np.stack([samples[i].context for i in idx])
    needed = sorted({j for i in idx for j in samples[i].prev_indices if j >= 0})
    if needed:
        X = np.stack([samples[j].features for j in needed])
        C = np.stack([samples[j].context for j in needed])
        probs = forward_batch(X, C, params, cfg).data
        preds = dict(zip(needed, binarise(probs).astype(np.float64)))
        # context rows: [default, label_{t-h}, ..., label_{t-1}]
        for row, i in enumerate(idx):
            for slot, j in enumerate(samples[i].prev_indices, start=1):
                if j >= 0:
                    S[row, slot] = preds[j]
    return S


def _targets(samples: Sequence[TrainSample]) -> np.ndarray:
    return np.array([s.target.as_tuple() for s in samples], dtype=np.float64)


def evaluate_loss(samples: Sequence[TrainSample], params,
                  cfg: ModelConfig) -> tuple[float, EvalReport]:
    """Mean BCE and the stress confusion counts over samples with
    ground-truth contexts, both from one forward per ``EVAL_BATCH`` chunk;
    ``perfbench`` traces it by this name as ``training.validation``.
    Records a tape only when ``params`` are trainable; ``train`` passes an
    untaped view."""
    total = 0.0
    preds, truths = [], []
    for lo in range(0, len(samples), EVAL_BATCH):
        chunk = samples[lo : lo + EVAL_BATCH]
        X = np.stack([s.features for s in chunk])
        S = np.stack([s.context for s in chunk])
        probs = forward_batch(X, S, params, cfg).data
        total += float(_bce_terms(probs, _targets(chunk).astype(probs.dtype)).mean(axis=1).sum())
        preds += [is_stress(decode(p)) for p in probs]
        truths += [is_stress(s.target) for s in chunk]
    return total / max(len(samples), 1), EvalReport.from_pairs(preds, truths)


def evaluate_accuracy(samples: Sequence[TrainSample], params,
                      cfg: ModelConfig) -> tuple[float, float]:
    """Segment accuracy / F1 on the stress decision, ground-truth contexts."""
    report = evaluate_loss(samples, params, cfg)[1]
    return report.accuracy, report.f1


def train(
    train_samples: Sequence[TrainSample],
    val_samples: Sequence[TrainSample],
    tcfg: TrainConfig,
    mcfg: ModelConfig,
    out_dir: str | Path,
) -> dict:
    """Full optimisation loop.  Each epoch writes its ``metrics.csv`` row once
    its validation has run, so a run that raises leaves the rows of the
    epochs it validated, a non-finite validation loss last.  An epoch whose
    validation loss is strictly below the best so far writes ``best.ckpt``;
    the loop stops once more than ``patience`` epochs in a row have not.

    Mini-batches are drawn with replacement; teacher forcing draws one
    Bernoulli per sequence per step.  A sample without ``prev_indices`` has
    no context window to roll out, so it always trains on its ground-truth
    context, whatever ``teacher_forcing_p`` is.  Deterministic given
    (config, seed).
    """
    if not train_samples or not val_samples:
        raise DataError(f"no {'validation' if train_samples else 'training'} samples")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    params = init_params(mcfg, _step_rng(tcfg.seed, 0))
    # The one place the model's precision is set: every tensor, gradient and
    # Adam moment follows these float32 parameters, as inference on their checkpoint does.
    for p in params.values():
        p.data = p.data.astype(np.float32)
    opt = Adam(params, lr=tcfg.learning_rate)
    # Rollout and validation read the same buffers, which Adam updates in
    # place, through constant tensors, so their forwards record no tape.
    const = {n: Tensor(p.data) for n, p in params.items()}
    ckpt_path = out_dir / "best.ckpt"
    metrics_path = out_dir / "metrics.csv"
    ckpt_path.unlink(missing_ok=True)  # best.ckpt belongs to this run's metrics.csv
    best, since_best, history = np.inf, 0, []
    with open(metrics_path, "w", newline="") as f:
        log = csv.writer(f)
        log.writerow(["epoch", "step", "train_loss", "val_loss", "val_acc", "val_f1", "lr"])
        for epoch in range(tcfg.epochs):
            opt.lr = tcfg.learning_rate * LR_DECAY ** (epoch // LR_DECAY_EVERY)
            epoch_loss = 0.0
            for it in range(tcfg.iterations_per_epoch):
                rng = _step_rng(tcfg.seed, 1, epoch, it)
                idx = rng.integers(0, len(train_samples), size=tcfg.batch_size)
                roll = np.array([
                    not _teacher_forced(tcfg.teacher_forcing_p, rng) for _ in idx
                ])
                X = np.stack([train_samples[i].features for i in idx])
                S = np.stack([train_samples[i].context for i in idx])
                if roll.any():
                    S[roll] = _rollout_contexts(train_samples, idx[roll], const, mcfg)
                T = _targets([train_samples[i] for i in idx])
                loss, grads = gradient(params, X, S, T, mcfg, rng=rng)
                opt.step(grads)
                epoch_loss += loss
            train_loss = epoch_loss / tcfg.iterations_per_epoch
            val_loss, val = evaluate_loss(val_samples, const, mcfg)
            history.append((epoch, (epoch + 1) * tcfg.iterations_per_epoch, train_loss,
                            val_loss, val.accuracy, val.f1, opt.lr))
            log.writerow([repr(x) if isinstance(x, float) else x for x in history[-1]])
            f.flush()  # the log is readable while the run goes on
            if not np.isfinite(val_loss):
                raise TrainingDiverged(f"non-finite validation loss: {val_loss}")
            if val_loss < best:  # strictly better: keep this epoch's parameters
                best, since_best = val_loss, 0
                save_checkpoint(ckpt_path, params, mcfg)
            elif (since_best := since_best + 1) > tcfg.patience:
                break
    return {
        "params": params,
        "best_val_loss": best,
        "epochs_run": len(history),
        "checkpoint": ckpt_path,
        "metrics": metrics_path,
        "history": history,
    }
