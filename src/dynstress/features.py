"""Per-window speech features: from-scratch MFCC (d=40) and loaders for
precomputed self-supervised embeddings (d=1024)."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .segmentation import (
    HOP_SAMPLES,
    REQUIRED_SAMPLE_RATE,
    WINDOW_S,
    WINDOW_SAMPLES,
    DataError,
    window_count,
)


@dataclass(frozen=True)
class MfccConfig:
    """The paper's MFCC recipe; only the delta option is settable."""

    frame_len_s: ClassVar[float] = 0.025
    frame_hop_s: ClassVar[float] = 0.010
    n_fft: ClassVar[int] = 512
    n_mels: ClassVar[int] = 64
    n_coeffs: ClassVar[int] = 40
    pre_emphasis: ClassVar[float] = 0.97
    fmin: ClassVar[float] = 0.0
    fmax: ClassVar[float] = 8000.0
    log_floor: ClassVar[float] = 1e-10
    include_deltas: bool = False  # appends pooled deltas, doubling d

    @property
    def dim(self) -> int:
        return self.n_coeffs * (2 if self.include_deltas else 1)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=float) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=float) / 2595.0) - 1.0)


def mel_filterbank() -> np.ndarray:
    """Triangular mel filters on the HTK scale, shape (n_mels, n_fft//2 + 1)."""
    cfg = MfccConfig
    n_bins = cfg.n_fft // 2 + 1
    mel_pts = np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(cfg.fmax), cfg.n_mels + 2)
    hz_pts = mel_to_hz(mel_pts)
    bin_freqs = np.arange(n_bins) * REQUIRED_SAMPLE_RATE / cfg.n_fft
    fb = np.zeros((cfg.n_mels, n_bins))
    for j in range(cfg.n_mels):
        lo, mid, hi = hz_pts[j], hz_pts[j + 1], hz_pts[j + 2]
        rise = (bin_freqs - lo) / (mid - lo)
        fall = (hi - bin_freqs) / (hi - mid)
        fb[j] = np.maximum(0.0, np.minimum(rise, fall))
    return fb


def dct_basis(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis matrix, rows are basis vectors."""
    k = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    basis = np.cos(np.pi * k * (2 * m + 1) / (2 * n))
    basis *= np.sqrt(2.0 / n)
    basis[0] *= np.sqrt(0.5)
    return basis


_FRAME_LEN = int(round(MfccConfig.frame_len_s * REQUIRED_SAMPLE_RATE))
_FRAME_HOP = int(round(MfccConfig.frame_hop_s * REQUIRED_SAMPLE_RATE))
_WINDOW_FRAMES = (WINDOW_SAMPLES - _FRAME_LEN) // _FRAME_HOP + 1  # 998
_HOP_FRAMES = HOP_SAMPLES // _FRAME_HOP  # 500
_HANN = np.hanning(_FRAME_LEN)
_FILTERBANK = mel_filterbank()
_DCT = dct_basis(MfccConfig.n_mels).T[:, : MfccConfig.n_coeffs]


def _mfcc_rows(samples: np.ndarray) -> np.ndarray:
    """MFCC rows of every full frame of ``samples``, with pre-emphasis
    restarting at ``samples[0]``."""
    emph = np.empty_like(samples)
    emph[0] = samples[0]
    emph[1:] = samples[1:] - MfccConfig.pre_emphasis * samples[:-1]
    frames = sliding_window_view(emph, _FRAME_LEN)[::_FRAME_HOP] * _HANN
    mag = np.abs(np.fft.rfft(frames, n=MfccConfig.n_fft, axis=1))
    mel = mag @ _FILTERBANK.T
    logmel = np.log(np.maximum(mel, MfccConfig.log_floor))
    return logmel @ _DCT


def mfcc_frames(samples: np.ndarray) -> np.ndarray:
    """MFCC matrix for one 10 s window, shape (n_frames, n_coeffs).

    Pipeline: pre-emphasis, 25 ms / 10 ms Hann frames, magnitude spectrum
    (n_fft=512), 64 mel filters, log with floor, orthonormal DCT-II, first
    40 coefficients.  A 10 s window yields 998 frames.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if len(samples) != WINDOW_SAMPLES:
        raise DataError(
            f"expected exactly {WINDOW_SAMPLES} samples ({WINDOW_S:.0f} s at "
            f"{REQUIRED_SAMPLE_RATE} Hz), got {len(samples)}"
        )
    return _mfcc_rows(samples)


def delta_frames(frames: np.ndarray) -> np.ndarray:
    """Temporal derivatives via standard regression over +-2 frames."""
    width = 2
    padded = np.pad(frames, ((width, width), (0, 0)), mode="edge")
    num = sum(
        k * (padded[width + k : len(frames) + width + k] -
             padded[width - k : len(frames) + width - k])
        for k in range(1, width + 1)
    )
    denom = 2 * sum(k * k for k in range(1, width + 1))
    return num / denom


def pool_window(frames: np.ndarray) -> np.ndarray:
    """Mean over frames, one value per coefficient."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] == 0:
        raise DataError("pool_window needs a non-empty frame matrix")
    return frames.mean(axis=0)


def window_mfcc(samples: np.ndarray, cfg: MfccConfig = MfccConfig()) -> np.ndarray:
    """Pooled features of every 10 s / 5 s window of a clip, shape
    (n_windows, d) with d = 40, or 80 with deltas; trailing audio shorter
    than a hop is dropped.

    Each frame is computed once: window k pools clip frames
    [500k, 500k + 998).  Frames are computed in blocks of one hop whose
    pre-emphasis restarts at the block's first sample.  The Hann window is
    exactly zero at that sample, so the restart never reaches a spectrum and
    every row is bit-identical to ``mfcc_frames`` of the window's samples.
    Blocks also bound the memory that frames and spectra take.
    """
    samples = np.asarray(samples, dtype=np.float64)
    count = window_count(len(samples))
    if count == 0:
        raise DataError(
            f"expected at least {WINDOW_SAMPLES} samples ({WINDOW_S:.0f} s at "
            f"{REQUIRED_SAMPLE_RATE} Hz), got {len(samples)}"
        )
    n_frames = (count - 1) * _HOP_FRAMES + _WINDOW_FRAMES
    rows = np.empty((n_frames, MfccConfig.n_coeffs))
    for lo in range(0, n_frames, _HOP_FRAMES):
        hi = min(lo + _HOP_FRAMES, n_frames)
        rows[lo:hi] = _mfcc_rows(
            samples[lo * _FRAME_HOP : (hi - 1) * _FRAME_HOP + _FRAME_LEN]
        )
    out = np.empty((count, cfg.dim))
    for k in range(count):
        frames = rows[k * _HOP_FRAMES : k * _HOP_FRAMES + _WINDOW_FRAMES]
        out[k, : MfccConfig.n_coeffs] = pool_window(frames)
        if cfg.include_deltas:
            out[k, MfccConfig.n_coeffs :] = pool_window(delta_frames(frames))
    return out


# --- FSEQ feature files: magic "FSEQ", version, rows, cols, f32 LE payload ---

_FSEQ_MAGIC = b"FSEQ"
_FSEQ_VERSION = 1


def write_fseq(path: str | Path, matrix: np.ndarray) -> None:
    matrix = np.asarray(matrix, dtype=np.float32)
    if matrix.ndim != 2:
        raise DataError("feature matrix must be 2-D")
    with open(path, "wb") as f:
        f.write(_FSEQ_MAGIC)
        f.write(struct.pack("<III", _FSEQ_VERSION, matrix.shape[0], matrix.shape[1]))
        f.write(matrix.astype("<f4").tobytes())


def read_fseq(path: str | Path) -> np.ndarray:
    path = Path(path)
    if not path.exists():
        raise DataError(f"missing feature file: {path}")
    blob = path.read_bytes()
    if blob[:4] != _FSEQ_MAGIC:
        raise DataError(f"{path}: bad magic, not an FSEQ file")
    if len(blob) < 16:
        raise DataError(f"{path}: truncated header")
    version, rows, cols = struct.unpack("<III", blob[4:16])
    if version != _FSEQ_VERSION:
        raise DataError(f"{path}: unsupported FSEQ version {version}")
    expected = 16 + 4 * rows * cols
    if len(blob) != expected:
        raise DataError(f"{path}: payload is {len(blob)} bytes, expected {expected}")
    data = np.frombuffer(blob[16:], dtype="<f4").reshape(rows, cols)
    return data.astype(np.float64)


def load_embeddings(path: str | Path) -> np.ndarray:
    """Load precomputed per-window embeddings of any width, one row per window."""
    mat = read_fseq(path)
    if not np.all(np.isfinite(mat)):
        raise DataError(f"{path}: non-finite values in embeddings")
    return mat
