"""Seeded synthetic corpora, written with the library's own writers.

A corpus is a directory of ragged-length 16 kHz WAVs, a JSON-lines manifest
with multi-span emotion labels (some stretches left unlabelled, so a
recording splits into several labelled runs) and, when asked for, one FSEQ
embedding file per recording.  The same seed always gives the same files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dynstress import features, model, segmentation, vad

SR = 16000
WINDOW_S, HOP_S = 10, 5
# Fear is the stress code; drawing it more often than the rest gives the
# relabeller and the models a mix of stress and non-stress windows.
EMOTIONS = ("fear", "happiness", "sadness", "anger", "disgust", "neutral")
EMOTION_P = (0.35, 0.13, 0.13, 0.13, 0.13, 0.13)


@dataclass(frozen=True)
class Recording:
    utterance_id: str
    duration_s: int
    spans: tuple[tuple[float, float, str], ...]  # (start_s, end_s, emotion)

    @property
    def windows(self) -> int:
        """Number of 10 s / 5 s windows the paper's segmentation yields."""
        return (self.duration_s - WINDOW_S) // HOP_S + 1


def _spans(rng: np.random.Generator, duration_s: int, gaps: bool):
    spans, t = [], 0.0
    while t < duration_s:
        if gaps and spans and rng.random() < 0.15:
            t += float(rng.integers(6, 13))  # unlabelled gap
            continue
        end = min(float(duration_s), t + float(rng.integers(8, 31)))
        spans.append((t, end, EMOTIONS[rng.choice(len(EMOTIONS), p=EMOTION_P)]))
        t = end
    return tuple(spans)


def write_corpus(
    root: Path, rng: np.random.Generator,
    splits: list[tuple[str, int, int, int]], feature_dim: int | None = None,
    gaps: bool = True,
) -> list[Recording]:
    """Write ``count`` recordings per ``(split, count, min_s, max_s)`` entry,
    plus ``manifest.jsonl`` and, if ``feature_dim`` is set, ``feats/<id>.fseq``
    with one row per window.  With ``gaps`` some stretches stay unlabelled;
    without, every window is labelled and a recording is one labelled run.

    The lengths of a split are ``count`` evenly spaced values from ``max_s``
    down to ``min_s``, for every seed.  So every seed writes the same amount
    of audio and allocates the same buffers in the same order, and peak
    memory does not depend on how earlier buffers fragmented the heap."""
    root.mkdir(parents=True, exist_ok=True)
    if feature_dim is not None:
        (root / "feats").mkdir(exist_ok=True)
        code_dirs = rng.normal(size=(3, feature_dim))
    recordings, lines = [], []
    for split, count, min_s, max_s in splits:
        lengths = np.linspace(max_s, min_s, count).round().astype(int).tolist()
        for i, duration in enumerate(lengths):
            rec = Recording(f"{split}_{i:03d}", duration, _spans(rng, duration, gaps))
            audio = rng.standard_normal(duration * SR, dtype=np.float32)
            audio *= 0.02  # unlabelled stretches are quiet
            for start, end, emotion in rec.spans:
                loud = 12.5 if emotion in ("fear", "anger", "disgust") else 4.0
                audio[int(start * SR) : int(end * SR)] *= loud
            segmentation.write_wav(root / f"{rec.utterance_id}.wav", audio)
            if feature_dim is not None:
                codes = np.array([
                    vad.parse_label(label).as_tuple() if label else (0, 0, 0)
                    for label in window_labels(rec)
                ], dtype=np.float64)
                mat = codes @ code_dirs + rng.normal(size=(rec.windows, feature_dim))
                features.write_fseq(root / "feats" / f"{rec.utterance_id}.fseq", mat)
            lines.append(json.dumps({
                "audio_path": f"{rec.utterance_id}.wav",
                "speaker_id": f"spk{i % 4}",
                "utterance_id": rec.utterance_id,
                "text_id": "t0",
                "spans": [{"start_s": s, "end_s": e, "label": lab}
                          for s, e, lab in rec.spans],
                "split": split,
            }))
            recordings.append(rec)
    (root / "manifest.jsonl").write_text("\n".join(lines) + "\n")
    return recordings


def mfcc_frame_count(n_samples: int) -> int:
    """Frames the library's default MFCC framing cuts from ``n_samples``."""
    cfg = features.MfccConfig()
    flen = int(round(cfg.frame_len_s * SR))
    fhop = int(round(cfg.frame_hop_s * SR))
    return (n_samples - flen) // fhop + 1


def window_labels(rec: Recording) -> list[str | None]:
    """Emotion of the span holding each window's midpoint, else None."""
    out = []
    for k in range(rec.windows):
        mid = k * HOP_S + WINDOW_S / 2
        out.append(next((lab for s, e, lab in rec.spans if s <= mid < e), None))
    return out


def write_checkpoint(path: Path, arch: str, feature_dim: int,
                     rng: np.random.Generator) -> None:
    cfg = model.ModelConfig(arch=arch, feature_dim=feature_dim)
    model.save_checkpoint(path, model.init_params(cfg, rng), cfg)
