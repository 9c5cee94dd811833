"""Scoring: segment/sequence-level accuracy and F1, majority voting,
the labelling sweep grid and ablation grids."""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .labelling import LabellingConfig, relabel_sequence
from .vad import VadCode, is_stress


@dataclass(frozen=True)
class EvalReport:
    """Binary scores with stress as the positive class."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.total if self.total else 0.0

    @property
    def f1(self) -> float:
        denom = 2 * self.tp + self.fp + self.fn
        return 2 * self.tp / denom if denom else 0.0

    @classmethod
    def from_pairs(cls, predictions: Sequence[bool], truths: Sequence[bool]):
        if len(predictions) != len(truths):
            raise ValueError("predictions and truths differ in length")
        cells = Counter(zip(map(bool, predictions), map(bool, truths)))
        return cls(cells[True, True], cells[True, False], cells[False, False],
                   cells[False, True])


def majority_vote(window_stress: Sequence[bool]) -> bool:
    """Aggregate per-window stress decisions; ties count as stress."""
    if not window_stress:
        raise ValueError("majority_vote needs at least one window")
    yes = sum(bool(w) for w in window_stress)
    return yes >= len(window_stress) - yes


def score_segment_level(
    predictions: Sequence[bool], truths: Sequence[bool]
) -> EvalReport:
    """Elementwise comparison of per-window stress decisions."""
    return EvalReport.from_pairs(predictions, truths)


def score_sequence_level(
    predictions_by_recording: Mapping[str, Sequence[bool]],
    truth_by_recording: Mapping[str, bool],
) -> EvalReport:
    """Majority vote per recording, then accuracy/F1 over recordings."""
    if set(predictions_by_recording) != set(truth_by_recording):
        raise ValueError("recording ids of predictions and truths differ")
    preds, truths = [], []
    for rec in sorted(predictions_by_recording):
        group = predictions_by_recording[rec]
        if not group:
            raise ValueError(f"recording {rec!r} has no window predictions")
        preds.append(majority_vote(group))
        truths.append(bool(truth_by_recording[rec]))
    return EvalReport.from_pairs(preds, truths)


# --- labelling sweep (Table-III-style grid) ---

@dataclass(frozen=True)
class SweepCell:
    n: int
    lam: float
    binary_agreement: float  # stress/non-stress agreement with the reference
    exact_agreement: float   # full VAD-code agreement


def labelling_sweep(
    sequences: Sequence[tuple[Sequence[VadCode], Sequence[VadCode | None]]],
    n_values: Sequence[int],
    lambdas: Sequence[float],
    tau: float = 0.5,
) -> list[SweepCell]:
    """Agreement of the relabelling output against reference stress labels.

    ``sequences`` pairs each windowed emotion sequence with its time-aligned
    reference label sequence; windows whose reference is ``None`` are
    relabelled but not counted.  Both agreement flavours are reported since
    the reference may carry only stress/non-stress information.
    """
    if not sequences:
        raise ValueError("sweep needs at least one sequence")
    for emo, ref in sequences:
        if len(emo) != len(ref):
            raise ValueError("emotion and reference sequences are misaligned")
    if all(r is None for _, ref in sequences for r in ref):
        raise ValueError("sweep needs at least one window with a reference")
    cells = []
    for n in n_values:
        for lam in lambdas:
            config = LabellingConfig(n=n, lam=lam, tau=tau)
            match_bin = match_exact = count = 0
            for emotions, reference in sequences:
                out = relabel_sequence(list(emotions), config)
                for got, ref in zip(out, reference):
                    if ref is None:
                        continue
                    match_bin += is_stress(got) == is_stress(ref)
                    match_exact += got == ref
                    count += 1
            cells.append(SweepCell(n, lam, match_bin / count, match_exact / count))
    return cells


def write_sweep_csv(cells: Sequence[SweepCell], path: str | Path,
                    which: str = "binary") -> None:
    """Grid CSV of ``which`` agreement, binary or exact: one row per n, one
    column per lambda."""
    if which not in ("binary", "exact"):
        raise ValueError(f"which must be 'binary' or 'exact', got {which!r}")
    n_values = sorted({c.n for c in cells})
    lambdas = sorted({c.lam for c in cells})
    by_key = {(c.n, c.lam): c for c in cells}
    attr = f"{which}_agreement"
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["n"] + [f"lambda={g}" for g in lambdas])
        for n in n_values:
            w.writerow(
                [n] + [repr(getattr(by_key[(n, g)], attr)) for g in lambdas]
            )


# --- ablation grids ---

@dataclass(frozen=True)
class AblationCell:
    checkpoint: str
    features: str
    n: int
    report: EvalReport


def ablation_grid(entries: Sequence[AblationCell], path: str | Path) -> None:
    """Accuracy/F1 per (checkpoint, feature type, n) cell, as CSV."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["checkpoint", "features", "n", "accuracy", "f1",
                    "tp", "fp", "tn", "fn"])
        for c in entries:
            r = c.report
            w.writerow([c.checkpoint, c.features, c.n,
                        repr(r.accuracy), repr(r.f1), r.tp, r.fp, r.tn, r.fn])
