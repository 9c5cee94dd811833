"""Sliding-window segmentation, label alignment and concatenation augmentation.

Recordings are cut into fixed 10 s windows advancing in 5 s hops; short
emotion-labelled clips from the same speaker and sentence are concatenated to
synthesise temporal emotion progressions.
"""

from __future__ import annotations

import io
import json
import math
import tokenize
import wave
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterable, Sequence

import numpy as np

from .vad import VadCode, parse_label

REQUIRED_SAMPLE_RATE = 16000
WINDOW_S, HOP_S = 10.0, 5.0  # the paper's window length and hop, in seconds
WINDOW_SAMPLES = int(WINDOW_S * REQUIRED_SAMPLE_RATE)
HOP_SAMPLES = int(HOP_S * REQUIRED_SAMPLE_RATE)


class DataError(ValueError):
    """Malformed or unusable input data (bad WAV, bad manifest, ...) or a
    setting outside its valid range."""


def open_input(path: str | Path, what: str) -> BinaryIO:
    """``path`` opened for binary reading; one that cannot be opened (missing,
    a directory, unreadable) is a DataError naming ``what`` and the path."""
    try:
        return open(path, "rb")
    except (OSError, ValueError) as e:  # ValueError: a NUL or lone surrogate in it
        raise DataError(f"cannot read {what} {path}: {getattr(e, 'strerror', e)}") from None


def read_f32_npy(raw: bytes | memoryview, what: str) -> np.ndarray:
    """The read-only float32 array of ``.npy`` bytes, in its declared shape, a
    view of ``raw``; the header is checked against the byte count before the
    payload is read."""
    f = io.BytesIO(raw[: 10 + 0xFFFF])  # a version 1.0 header fits: the payload is not copied
    try:
        np.lib.format.read_magic(f)
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(f)
        payload = len(raw) - f.tell()
        if fortran_order or dtype != np.dtype("<f4") or payload != 4 * math.prod(shape):
            raise ValueError(f"{'Fortran-order ' * fortran_order}{dtype} {shape} in {payload} "
                             f"bytes; C-order <f4 takes {4 * math.prod(shape)}")
        # a negative or boolean dimension, or one too large for numpy, fails here
        return np.frombuffer(raw, "<f4", count=payload // 4, offset=f.tell()).reshape(shape)
    # numpy parses the header with ast and tokenize, which raise more than ValueError
    except (ValueError, TypeError, SyntaxError, MemoryError, tokenize.TokenError) as e:
        reason = str(e).partition("\n")[0]
        raise DataError(f"{what}: not a float32 .npy array ({reason})") from None


def read_text(path: str | Path, what: str) -> str:
    """``path`` read through :func:`open_input` and decoded as UTF-8."""
    with open_input(path, what) as f:
        try:
            return f.read().decode("utf-8")
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: {what} is not UTF-8 (byte {e.start})") from None


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


def segment(n_samples: int, clip_id: str = "") -> range:
    """The indices of the windows of a clip of ``n_samples`` samples: window
    k spans [k * HOP_S, k * HOP_S + WINDOW_S) seconds, and trailing audio
    shorter than a hop is dropped."""
    count = window_count(n_samples)
    if count == 0:
        raise DataError(
            f"clip {clip_id!r} is {n_samples / REQUIRED_SAMPLE_RATE:.2f}s, "
            f"shorter than one {WINDOW_S:.0f}s window"
        )
    return range(count)


def align_labels(
    windows: Sequence[int], spans: Sequence[LabelSpan]
) -> list[VadCode | None]:
    """The label of the span containing the midpoint of each window index.

    Spans are half-open [start, end); a window whose midpoint no span covers
    gets None.  Overlapping spans are rejected.
    """
    spans = sorted(spans, key=lambda s: s.start)
    for a, b in zip(spans, spans[1:]):
        if b.start < a.end:
            raise DataError(f"overlapping label spans: {a} / {b}")
    labels = []
    for k in windows:
        mid = k * HOP_S + WINDOW_S / 2.0
        label = None
        for s in spans:
            if s.start <= mid < s.end:
                label = s.code
                break
        labels.append(label)
    return labels


def concat_augment(
    records: Sequence[ClipRecord], clips: Iterable[np.ndarray], gap_s: float = 0.0,
) -> tuple[np.ndarray, list[LabelSpan]]:
    """Join the samples ``clips`` of ``records``: same-speaker,
    same-sentence clips, each spoken in the one emotional state of its one
    labelled span.

    Returns the joined samples and one span per record, so overlapping
    windows can straddle transitions; the last span's code is the final
    state.  Joins are raw abutment, optionally separated by ``gap_s`` of
    silence.  Every rule is checked before the first clip is drawn, so a
    generator that decodes them decodes none for a rejected group; a clip
    without samples is rejected as it is drawn.
    """
    if len(records) < 2:
        raise DataError("concat_augment needs at least two clips")
    speaker, text = records[0].speaker_id, records[0].text_id
    for r in records:
        if r.speaker_id != speaker:
            raise DataError(f"speaker mismatch: {r.speaker_id!r} vs {speaker!r}")
        if r.text_id != text:
            raise DataError(f"text mismatch: {r.text_id!r} vs {text!r}")
        if len(r.spans) != 1:
            raise DataError(f"{r.utterance_id}: augment needs one labelled "
                            f"span per record, got {len(r.spans)}")
    # NaN fails too; a 16-bit WAV's 32-bit data size holds under 2**31 samples
    if not 0.0 <= gap_s * REQUIRED_SAMPLE_RATE < 2**31:
        raise DataError(f"gap_s must be a non-negative number of seconds "
                        f"that fits in a WAV file, got {gap_s}")
    gap = np.zeros(int(round(gap_s * REQUIRED_SAMPLE_RATE)))
    pieces, spans = [], []
    cursor = 0.0
    for r, samples in zip(records, clips, strict=True):
        if not len(samples):
            raise DataError(f"{r.utterance_id}: {r.audio_path} holds no samples to join")
        if pieces and len(gap):
            pieces.append(gap)
            cursor += len(gap) / REQUIRED_SAMPLE_RATE
        pieces.append(samples)
        duration = len(samples) / REQUIRED_SAMPLE_RATE
        spans.append(LabelSpan(cursor, cursor + duration, r.spans[0].code))
        cursor += duration
    return np.concatenate(pieces), spans


# --- WAV I/O (RIFF, 16-bit signed PCM, mono, 16 kHz) ---

def _read_pcm(path: Path) -> bytes:
    """The 16-bit samples' bytes of a mono 16 kHz PCM WAV file whose data
    chunk holds as many bytes as its header says."""
    try:
        with open_input(path, "WAV file") as f, wave.open(f, "rb") as wf:
            if wf.getsampwidth() != 2:
                raise DataError(f"{path}: expected 16-bit PCM")
            if wf.getnchannels() != 1:
                raise DataError(f"{path}: expected mono audio")
            if wf.getframerate() != REQUIRED_SAMPLE_RATE:
                raise DataError(f"{path}: sample rate must be {REQUIRED_SAMPLE_RATE} Hz, "
                                f"got {wf.getframerate()}")
            n_frames = wf.getnframes()
            raw = wf.readframes(n_frames)
    # wave.Error: also any format but PCM; EOFError: the file ends inside a
    # header; RuntimeError: a chunk's size points outside the chunk
    except (wave.Error, EOFError, RuntimeError) as e:
        reason = str(e) or "truncated or corrupt chunk"
        raise DataError(f"{path}: not a readable WAV file ({reason})") from e
    if len(raw) != 2 * n_frames:
        raise DataError(
            f"{path}: data chunk holds {len(raw)} bytes, header says {2 * n_frames}"
        )
    return raw


def load_wav(path: str | Path) -> np.ndarray:
    """The float64 samples, in [-1, 1), of a 16-bit mono 16 kHz PCM WAV file."""
    pcm = np.frombuffer(_read_pcm(Path(path)), dtype="<i2").astype(np.float64)
    pcm *= 1.0 / 32768.0  # in place, and exact: the divisor is a power of two
    return pcm


def wav_length(path: str | Path) -> int:
    """The sample count of the WAV file that :func:`load_wav` would decode,
    under the same checks, without decoding its samples."""
    return len(_read_pcm(Path(path))) // 2


def write_wav(path: str | Path, samples: np.ndarray) -> None:
    pcm = np.clip(np.asarray(samples) * 32768.0, -32768, 32767).astype("<i2")
    # open() first: wave.open of a path that cannot be created leaves a
    # half-built writer whose finaliser raises a second, unraisable error
    with open(path, "wb") as f, wave.open(f, "wb") as wf:
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
    text = read_text(path, "manifest")
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
            # it names the recording's .fseq and augmented .wav files
            if rec.utterance_id in ("", ".", "..") or any(
                    c in rec.utterance_id for c in "/\\\0"):
                raise ValueError(f"utterance_id {rec.utterance_id!r} "
                                 "is not a plain file name")
        except (KeyError, ValueError, TypeError, OverflowError, RecursionError) as e:
            raise DataError(f"{path}:{lineno}: bad manifest record ({e})") from e
        # recordings are keyed by utterance_id in run ids and feature files
        if rec.utterance_id in first_line:
            raise DataError(f"{path}:{lineno}: utterance_id {rec.utterance_id!r} "
                            f"is already used on line {first_line[rec.utterance_id]}")
        first_line[rec.utterance_id] = lineno
        records.append(rec)
    return records


def load_clip(rec: ClipRecord, base_dir: str | Path = ".") -> np.ndarray:
    """The samples of ``rec``'s WAV file; an absolute audio_path ignores base_dir."""
    return load_wav(Path(base_dir) / rec.audio_path)
