"""Manifest-to-training-set assembly and sequential inference.

Ties together segmentation, features, relabelling and the model: builds
sliding-window samples for training and rolls the model out over recordings
at inference time, feeding its own past predictions as context.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import Tensor, linear
from .features import read_fseq, window_mfcc
from .labelling import LabellingConfig, relabel_sequence
from .model import (ModelConfig, context_array, context_memo, context_memory, context_states,
                    decode, readout_array, speech_inputs, speech_states)
from .segmentation import ClipRecord, DataError, align_labels, load_clip, segment, wav_length
from .training import TrainSample
from .vad import VadCode


@dataclass
class RecordingData:
    """Per-recording windows: features plus ground-truth labels."""

    clip_id: str
    split: str
    features: np.ndarray              # (n_windows, d) for labelled windows
    emotion_codes: list[VadCode]      # one per labelled window
    stress_codes: list[VadCode]       # relabelled ground truth
    reference_codes: list[VadCode | None]  # from stress_spans, if present
    stress_label: bool | None         # recording-level truth, if any


def _labelled_runs(labels: list[VadCode | None]) -> list[tuple[int, int]]:
    """Maximal [start, end) runs of consecutively labelled windows."""
    runs, start = [], None
    for i, lab in enumerate(labels):
        if lab is not None and start is None:
            start = i
        elif lab is None and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(labels)))
    return runs


def clip_features(
    rec: ClipRecord, base_dir: str | Path, feature_spec: str | None,
) -> np.ndarray:
    """One feature row per window of a clip, by ``feature_spec``: MFCC of its
    samples (`mfcc`, d = 40), the same with pooled deltas appended
    (`mfcc+deltas`, d = 80), the rows of the precomputed embedding file
    `<dir>/<utterance_id>.fseq` (`file:<dir>`), or none (None, d = 0).  Only
    MFCC decodes the clip's WAV; every other spec reads just its sample
    count, under the same checks.  The spec is checked before any file is read."""
    mfcc = feature_spec in ("mfcc", "mfcc+deltas")
    if not (mfcc or feature_spec is None or feature_spec.startswith("file:")):
        raise DataError(f"unknown feature spec {feature_spec!r}: "
                        "use mfcc, mfcc+deltas or file:<dir>")
    if mfcc:
        samples = load_clip(rec, base_dir)
        segment(len(samples), rec.utterance_id)  # a short clip is a DataError
        return window_mfcc(samples, feature_spec == "mfcc+deltas")
    # an absolute audio_path ignores base_dir, as in load_clip
    windows = segment(wav_length(Path(base_dir) / rec.audio_path), rec.utterance_id)
    if feature_spec is None:
        return np.zeros((len(windows), 0))
    mat = read_fseq(Path(feature_spec[5:]) / f"{rec.utterance_id}.fseq")
    if mat.shape[0] != len(windows):
        raise DataError(f"{rec.utterance_id}: embedding file has {mat.shape[0]} rows, "
                        f"clip has {len(windows)} windows")
    return mat


def load_recording(
    rec: ClipRecord, base_dir: str | Path, feature_spec: str | None,
    lab_cfg: LabellingConfig,
) -> list[RecordingData]:
    """One RecordingData per maximal labelled run of a clip's windows, with
    the features of :func:`clip_features`; ``feature_spec=None`` skips them
    (labelling-only use)."""
    feats = clip_features(rec, base_dir, feature_spec)
    windows = range(len(feats))
    labels = align_labels(windows, rec.spans)
    refs = align_labels(windows, rec.stress_spans)
    out = []
    for run_idx, (lo, hi) in enumerate(_labelled_runs(labels)):
        emotions = labels[lo:hi]
        out.append(RecordingData(
            clip_id=f"{rec.utterance_id}#{run_idx}",
            split=rec.split,
            features=feats[lo:hi],
            emotion_codes=emotions,
            stress_codes=relabel_sequence(emotions, lab_cfg),
            reference_codes=refs[lo:hi],
            stress_label=rec.stress_label,
        ))
    return out


def build_samples(
    recordings: list[RecordingData], history: int
) -> list[TrainSample]:
    """Sliding-window samples: features for windows t-h..t, ground-truth
    context [default, s_{t-h}, ..., s_{t-1}], target s_t.

    ``prev_indices`` point at the samples for the context windows so teacher
    forcing can substitute model rollouts; -1 where no full-length sample
    exists (early windows keep ground truth there).  A recording's windows
    t >= h become consecutive samples, so window j's sample is found by
    position.
    """
    if history < 0:
        raise DataError(f"history must be non-negative, got {history}")
    samples: list[TrainSample] = []
    for rd in recordings:
        first = len(samples) - history  # the sample index of window 0
        for t in range(history, len(rd.stress_codes)):
            samples.append(TrainSample(
                features=rd.features[t - history : t + 1],
                context=context_array(rd.stress_codes[t - history : t]),
                target=rd.stress_codes[t],
                prev_indices=tuple(
                    first + j if j >= history else -1 for j in range(t - history, t)
                ),
            ))
    return samples


def last_speech_states(
    features: np.ndarray, history: int, params, cfg: ModelConfig,
) -> np.ndarray:
    """Last speech state (N, H) of each window ``features[max(0, t - history)
    : t + 1]``.  Every row is projected once, and every window is encoded in
    one call: with k = min(N - 1, history), window t is gathered as the k + 1
    rows from max(0, t - k).  A window t < k is then the first k + 1 rows,
    of which it owns the first t + 1, so its state is row min(t, k)."""
    if history < 0:
        raise DataError(f"history must be non-negative, got {history}")
    N = features.shape[0]
    k = max(min(N - 1, history), 0)  # 0 for a recording without windows
    P = speech_inputs(features, params, cfg).data
    t = np.arange(N)
    own = np.minimum(t, k)  # each window's last row
    windows = Tensor(P[(t - own)[:, None] + np.arange(k + 1)])
    return speech_states(windows, params, cfg, own + 1).data[:, 0]


def predict_recording(
    features: np.ndarray, history: int, params, cfg: ModelConfig,
) -> list[VadCode]:
    """Sequential inference over one recording's windows.

    The context is built from the model's own past predictions (the default
    code stands in before any prediction exists), mirroring deployment where
    no ground-truth stress labels are available.  Speech does not depend on
    the predictions, so it is encoded up front, and every window's query is
    projected in one matrix product.  Each distinct context is encoded once,
    under the codes it holds, into a memory of plain arrays: its keys, its
    values and its last state.  The memory is :func:`context_memo`'s, so a
    loaded checkpoint encodes a context once for every recording and history
    it is run on, and any other ``params`` once per call.  A step then reads
    its window out with a few array operations, :func:`readout_array`, and
    builds no tape.
    """
    last = last_speech_states(features, history, params, cfg)
    queries = linear(Tensor(last), params["attn.wq"], params["attn.bq"]).data
    memo = context_memo(params, cfg)
    preds: list[VadCode] = []
    caller = np.geterr()
    # readout_array's sigmoid may overflow to its exact 0; the errstate costs
    # about 1 us to enter, so it is entered once per call, not once per window
    with np.errstate(over="ignore"):
        for t in range(features.shape[0]):
            key = tuple(preds[max(0, t - history) : t])
            if key not in memo:
                with np.errstate(**caller):  # the encoder's overflows still count
                    ctx = context_array(key)
                    hc, k, v = context_memory(context_states(ctx[None], params, cfg),
                                              params)
                memo[key] = k.data[0], v.data[0], hc.data[0, -1]
            preds.append(decode(readout_array(queries[t], *memo[key], params, cfg)))
    return preds
