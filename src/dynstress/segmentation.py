"""Sliding-window segmentation, label alignment and concatenation augmentation.

Recordings are cut into fixed 10 s windows advancing in 5 s hops; short
emotion-labelled clips from the same speaker and sentence are concatenated to
synthesise temporal emotion progressions.
"""

from __future__ import annotations

import json
import math
import wave
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .vad import VadCode, parse_label

REQUIRED_SAMPLE_RATE = 16000
WINDOW_S, HOP_S = 10.0, 5.0  # the paper's window length and hop, in seconds
WINDOW_SAMPLES = int(WINDOW_S * REQUIRED_SAMPLE_RATE)
HOP_SAMPLES = int(HOP_S * REQUIRED_SAMPLE_RATE)


class DataError(ValueError):
    """Malformed or unusable input data (bad WAV, bad manifest, ...) or a
    setting outside its valid range."""


@dataclass
class AudioClip:
    samples: np.ndarray  # float amplitudes in [-1, 1]
    sample_rate: int
    speaker_id: str
    utterance_id: str
    text_id: str = ""

    def __post_init__(self):
        if self.sample_rate != REQUIRED_SAMPLE_RATE:
            raise DataError(
                f"clip {self.utterance_id!r}: sample rate must be "
                f"{REQUIRED_SAMPLE_RATE} Hz, got {self.sample_rate}"
            )
        self.samples = np.asarray(self.samples, dtype=np.float64)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass
class SegmentWindow:
    index: int
    start: float
    end: float
    clip_id: str


@dataclass(frozen=True)
class LabelSpan:
    start: float
    end: float
    code: VadCode

    def __post_init__(self):
        # NaN fails every comparison, so only an infinite end needs its own test
        if not (0.0 <= self.start < self.end and math.isfinite(self.end)):
            raise DataError(
                f"span [{self.start}, {self.end}) needs finite 0 <= start < end"
            )


def window_count(n_samples: int) -> int:
    """Number of full windows in ``n_samples`` samples (0 when shorter than
    one window); trailing audio shorter than a hop is dropped."""
    return max(0, (n_samples - WINDOW_SAMPLES) // HOP_SAMPLES + 1)


def segment(clip: AudioClip) -> list[SegmentWindow]:
    """Cut a clip into overlapping windows; trailing audio shorter than a
    full window is dropped."""
    count = window_count(len(clip.samples))
    if count == 0:
        raise DataError(
            f"clip {clip.utterance_id!r} is {clip.duration:.2f}s, "
            f"shorter than one {WINDOW_S:.0f}s window"
        )
    return [
        SegmentWindow(
            index=k,
            start=k * HOP_S,
            end=k * HOP_S + WINDOW_S,
            clip_id=clip.utterance_id,
        )
        for k in range(count)
    ]


def align_labels(
    windows: Sequence[SegmentWindow], spans: Sequence[LabelSpan]
) -> list[VadCode | None]:
    """The label of the span containing each window's midpoint.

    Spans are half-open [start, end); a window whose midpoint no span covers
    gets None.  Overlapping spans are rejected.
    """
    spans = sorted(spans, key=lambda s: s.start)
    for a, b in zip(spans, spans[1:]):
        if b.start < a.end:
            raise DataError(f"overlapping label spans: {a} / {b}")
    labels = []
    for w in windows:
        mid = (w.start + w.end) / 2.0
        label = None
        for s in spans:
            if s.start <= mid < s.end:
                label = s.code
                break
        labels.append(label)
    return labels


def concat_augment(
    clips: Sequence[AudioClip],
    emotions: Sequence[VadCode],
    gap_s: float = 0.0,
) -> tuple[AudioClip, VadCode, list[LabelSpan]]:
    """Concatenate same-speaker, same-sentence clips spoken in different
    emotional states.

    Returns the joined clip, the label of the final emotional state, and the
    per-span emotion labels so overlapping windows can straddle transitions.
    Joins are raw abutment, optionally separated by ``gap_s`` of silence.
    """
    if len(clips) < 2:
        raise DataError("concat_augment needs at least two clips")
    if len(emotions) != len(clips):
        raise DataError("need one emotion code per clip")
    speaker = clips[0].speaker_id
    text = clips[0].text_id
    for c in clips[1:]:
        if c.speaker_id != speaker:
            raise DataError(
                f"speaker mismatch: {c.speaker_id!r} vs {speaker!r}"
            )
        if c.text_id != text:
            raise DataError(f"text mismatch: {c.text_id!r} vs {text!r}")
    # NaN fails too; a 16-bit WAV's 32-bit data size holds under 2**31 samples
    if not 0.0 <= gap_s * REQUIRED_SAMPLE_RATE < 2**31:
        raise DataError(f"gap_s must be a non-negative number of seconds "
                        f"that fits in a WAV file, got {gap_s}")
    gap = np.zeros(int(round(gap_s * REQUIRED_SAMPLE_RATE)))
    pieces, spans = [], []
    cursor = 0.0
    for i, (c, e) in enumerate(zip(clips, emotions)):
        if i > 0 and len(gap):
            pieces.append(gap)
            cursor += len(gap) / REQUIRED_SAMPLE_RATE
        pieces.append(c.samples)
        spans.append(LabelSpan(cursor, cursor + c.duration, e))
        cursor += c.duration
    joined = AudioClip(
        samples=np.concatenate(pieces),
        sample_rate=REQUIRED_SAMPLE_RATE,
        speaker_id=speaker,
        utterance_id="+".join(c.utterance_id for c in clips),
        text_id=text,
    )
    return joined, emotions[-1], spans


# --- WAV I/O (RIFF, 16-bit signed PCM, mono, 16 kHz) ---

def load_wav(path: str | Path, speaker_id: str = "", utterance_id: str = "",
             text_id: str = "") -> AudioClip:
    path = Path(path)
    if not path.exists():
        raise DataError(f"missing WAV file: {path}")
    try:
        with wave.open(str(path), "rb") as wf:
            if wf.getcomptype() != "NONE":
                raise DataError(f"{path}: compressed WAV not supported")
            if wf.getsampwidth() != 2:
                raise DataError(f"{path}: expected 16-bit PCM")
            if wf.getnchannels() != 1:
                raise DataError(f"{path}: expected mono audio")
            rate = wf.getframerate()
            n_frames = wf.getnframes()
            raw = wf.readframes(n_frames)
    # EOFError: the file ends inside a header; RuntimeError: a chunk's size
    # points outside the chunk
    except (wave.Error, EOFError, RuntimeError) as e:
        reason = str(e) or "truncated or corrupt chunk"
        raise DataError(f"{path}: not a readable WAV file ({reason})") from e
    if rate != REQUIRED_SAMPLE_RATE:
        raise DataError(
            f"{path}: sample rate {rate} Hz, expected {REQUIRED_SAMPLE_RATE}"
        )
    if len(raw) != 2 * n_frames:
        raise DataError(
            f"{path}: data chunk holds {len(raw)} bytes, header says {2 * n_frames}"
        )
    pcm = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return AudioClip(pcm, rate, speaker_id, utterance_id or path.stem, text_id)


def write_wav(path: str | Path, samples: np.ndarray) -> None:
    pcm = np.clip(np.asarray(samples) * 32768.0, -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(REQUIRED_SAMPLE_RATE)
        wf.writeframes(pcm.tobytes())


# --- Manifest (JSON lines, one record per clip) ---

@dataclass
class ClipRecord:
    audio_path: str
    speaker_id: str
    utterance_id: str
    text_id: str
    spans: list[LabelSpan]
    split: str
    stress_spans: list[LabelSpan] = field(default_factory=list)
    stress_label: bool | None = None  # recording-level truth, if any


def _parse_spans(raw) -> list[LabelSpan]:
    if not isinstance(raw, list):
        raise ValueError(f"spans must be a list, not {type(raw).__name__}")
    spans = []
    for s in raw:
        if not (isinstance(s, dict) and isinstance(s.get("label"), str)):
            raise ValueError("each span must be an object with a string label")
        for key in ("start_s", "end_s"):
            # bool is an int subclass; "0" or true is not a span bound
            if isinstance(s[key], bool) or not isinstance(s[key], (int, float)):
                raise ValueError(
                    f"span {key} must be a number, not {type(s[key]).__name__}"
                )
        spans.append(LabelSpan(
            float(s["start_s"]), float(s["end_s"]), parse_label(s["label"])
        ))
    return spans


_TEXT_FIELDS = ("audio_path", "speaker_id", "utterance_id", "text_id", "split")


def read_manifest(path: str | Path) -> list[ClipRecord]:
    path = Path(path)
    if not path.exists():
        raise DataError(f"missing manifest: {path}")
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: manifest is not UTF-8 (byte {e.start})") from None
    records = []
    first_line: dict[str, int] = {}  # utterance_id -> the line that used it first
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        # OverflowError: a span bound too large for a float;
        # RecursionError: JSON nested too deeply to parse
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError(f"not a JSON object but {type(obj).__name__}")
            for key in _TEXT_FIELDS:
                if key in obj and not isinstance(obj[key], str):
                    raise ValueError(
                        f"{key} must be a string, not {type(obj[key]).__name__}"
                    )
            stress_label = obj.get("stress_label")
            if not (stress_label is None or isinstance(stress_label, bool)):
                raise ValueError(
                    f"stress_label must be true or false, got {stress_label!r}"
                )
            rec = ClipRecord(
                audio_path=obj["audio_path"],
                speaker_id=obj.get("speaker_id", ""),
                utterance_id=obj.get("utterance_id", Path(obj["audio_path"]).stem),
                text_id=obj.get("text_id", ""),
                spans=_parse_spans(obj.get("spans", [])),
                split=obj.get("split", "train"),
                stress_spans=_parse_spans(obj.get("stress_spans", [])),
                stress_label=stress_label,
            )
        except (KeyError, ValueError, TypeError, OverflowError, RecursionError) as e:
            raise DataError(f"{path}:{lineno}: bad manifest record ({e})") from e
        # recordings are keyed by utterance_id in run ids and feature files
        if rec.utterance_id in first_line:
            raise DataError(f"{path}:{lineno}: utterance_id {rec.utterance_id!r} "
                            f"is already used on line {first_line[rec.utterance_id]}")
        first_line[rec.utterance_id] = lineno
        records.append(rec)
    return records


def load_clip(rec: ClipRecord, base_dir: str | Path = ".") -> AudioClip:
    p = Path(rec.audio_path)
    if not p.is_absolute():
        p = Path(base_dir) / p
    return load_wav(p, rec.speaker_id, rec.utterance_id, rec.text_id)
