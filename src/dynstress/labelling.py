"""Temporal stress relabelling via decayed Hamming distances.

Each window's emotion code is compared against the canonical stress code;
distances over the current and up to ``n`` preceding windows are summed with
exponentially decaying weights, and windows whose total falls at or below a
threshold are relabelled as stress.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .segmentation import DataError
from .vad import STRESS_CODE, VadCode, hamming_distance


@dataclass(frozen=True)
class LabellingConfig:
    """Relabelling knobs: history length ``n``, decay ``lam``, relative
    threshold ``tau`` (the absolute threshold is ``tau * theta_max``)."""

    n: int
    lam: float
    tau: float = 0.5

    def __post_init__(self):
        if self.n < 0:
            raise DataError(f"n must be >= 0, got {self.n}")
        if not 0.0 < self.lam < math.inf:  # NaN fails too
            raise DataError(f"lam must be positive and finite, got {self.lam}")
        if not 0.0 <= self.tau <= 1.0:
            raise DataError(f"tau must be in [0, 1], got {self.tau}")

    @cached_property
    def decay(self) -> tuple[tuple[float, ...], float]:
        """Per-age weights e^(-lam * age), ages 0..n, and the threshold."""
        weights = tuple(math.exp(-self.lam * k) for k in range(self.n + 1))
        return weights, self.tau * theta_max(self.n, self.lam)


def theta_max(n: int, lam: float) -> float:
    """Upper bound of the decayed distance total over n+1 windows (all at
    distance 2)."""
    return 2.0 * sum(math.exp(-lam * k) for k in range(n + 1))


def relabel_sequence(
    emotions: Sequence[VadCode], config: LabellingConfig
) -> list[VadCode]:
    """Stress where the decayed distance total over a window and its ``n``
    predecessors is at or below the threshold, else the window's own code.

    Windows near the start use all available past windows (fewer than n).
    """
    if not emotions:
        raise ValueError("emotions must be non-empty")
    n = config.n
    # totals are summed newest first, like theta_max, so exact threshold
    # ties are decided consistently
    weights, threshold = config.decay
    dists = [hamming_distance(STRESS_CODE, e) for e in emotions]
    out: list[VadCode] = []
    for t, code in enumerate(emotions):
        total = 0.0
        for age in range(min(t, n) + 1):
            total += weights[age] * dists[t - age]
        out.append(STRESS_CODE if total <= threshold else code)
    return out
