import numpy as np
import pytest

from dynstress import features
from dynstress.features import (
    MfccConfig,
    dct_basis,
    delta_frames,
    hz_to_mel,
    load_embeddings,
    mel_filterbank,
    mel_to_hz,
    mfcc_frames,
    pool_window,
    read_fseq,
    window_mfcc,
    write_fseq,
)
from dynstress.segmentation import DataError

SR = 16000
TEN_S = 10 * SR


def test_mel_scale_roundtrip():
    f = np.array([0.0, 100.0, 1000.0, 8000.0])
    assert np.allclose(mel_to_hz(hz_to_mel(f)), f)


def test_dct_orthonormal():
    basis = dct_basis(64)
    eye = basis @ basis.T
    assert np.max(np.abs(eye - np.eye(64))) < 1e-12


def test_filterbank_shape_and_coverage():
    fb = mel_filterbank()
    assert fb.shape == (64, 257)
    assert np.all(fb >= 0)
    # each filter covers one contiguous band
    for row in fb:
        nz = np.flatnonzero(row > 0)
        if len(nz):
            assert np.all(np.diff(nz) == 1)
    # adjacent triangles sum to at most one at every bin
    assert fb.sum(axis=0).max() <= 1.0 + 1e-9


def test_frame_count():
    frames = mfcc_frames(np.zeros(TEN_S))
    assert frames.shape == (998, 40)


def test_wrong_length_rejected():
    with pytest.raises(DataError):
        mfcc_frames(np.zeros(TEN_S - 1))


def test_silence_gives_identical_frames():
    frames = mfcc_frames(np.zeros(TEN_S))
    assert np.allclose(frames, frames[0])
    # silence hits the log floor in every mel band
    cfg = MfccConfig()
    expect = dct_basis(64)[:40] @ np.full(64, np.log(cfg.log_floor))
    assert np.allclose(frames[0], expect)


def test_pure_tone_peaks_in_matching_band():
    t = np.arange(TEN_S) / SR
    tone = 0.5 * np.sin(2 * np.pi * 1000.0 * t)
    cfg = MfccConfig()
    fb = mel_filterbank()
    # recompute filterbank energies for the first frame
    emph = np.empty(TEN_S)
    emph[0] = tone[0]
    emph[1:] = tone[1:] - cfg.pre_emphasis * tone[:-1]
    frame = emph[:400] * np.hanning(400)
    mel = fb @ np.abs(np.fft.rfft(frame, 512))
    centers = np.array([
        np.average(np.arange(fb.shape[1]), weights=row) for row in fb
    ]) * SR / cfg.n_fft
    peak = np.argmax(mel)
    assert abs(centers[peak] - 1000.0) < 150.0


def test_determinism():
    rng = np.random.default_rng(5)
    x = rng.normal(size=TEN_S)
    a, b = mfcc_frames(x), mfcc_frames(x)
    assert a.tobytes() == b.tobytes()


def test_amplitude_scaling_shifts_only_c0():
    rng = np.random.default_rng(8)
    # loud noise keeps mel energies far from the log floor
    x = 0.3 * rng.normal(size=TEN_S)
    base = mfcc_frames(x)
    scaled = mfcc_frames(2.0 * x)
    diff = scaled - base
    assert np.max(np.abs(diff[:, 1:])) < 1e-6
    # c0 shift equals log(2) * sum of the DCT row over the mel bands
    expect = np.log(2.0) * dct_basis(64)[0].sum()
    assert np.allclose(diff[:, 0], expect, atol=1e-6)


def test_pool_window():
    frame = np.arange(40.0)
    assert np.allclose(pool_window(np.stack([frame] * 5)), frame)
    v = np.random.default_rng(0).normal(size=(1, 40))
    assert np.allclose(pool_window(np.vstack([v, -v])), 0.0)
    m = np.random.default_rng(1).normal(size=(3, 40))
    assert np.allclose(pool_window(m), m.mean(axis=0))
    with pytest.raises(DataError):
        pool_window(np.zeros((0, 40)))


def test_window_mfcc_builds_no_filterbank_or_dct(monkeypatch):
    """The mel filterbank and the DCT basis are built once, not per window."""
    calls = []

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(features, "mel_filterbank", counting(mel_filterbank))
    monkeypatch.setattr(features, "dct_basis", counting(dct_basis))
    x = np.random.default_rng(4).normal(size=TEN_S) * 0.1
    for cfg in (MfccConfig(), MfccConfig(include_deltas=True)):
        window_mfcc(x, cfg)
    assert calls == []


def test_window_mfcc_dims():
    x = np.random.default_rng(2).normal(size=TEN_S) * 0.1
    assert window_mfcc(x).shape == (1, 40)
    assert window_mfcc(x, MfccConfig(include_deltas=True)).shape == (1, 80)
    x = np.random.default_rng(2).normal(size=27 * SR) * 0.1
    assert window_mfcc(x).shape == (4, 40)


def per_window_mfcc(x, cfg):
    """The plain path: pooled MFCC of each 10 s / 5 s window on its own."""
    rows = []
    for k in range((len(x) - TEN_S) // (5 * SR) + 1):
        frames = mfcc_frames(x[5 * SR * k : 5 * SR * k + TEN_S])
        row = pool_window(frames)
        if cfg.include_deltas:
            row = np.concatenate([row, pool_window(delta_frames(frames))])
        rows.append(row)
    return np.stack(rows)


@pytest.mark.parametrize("deltas", [False, True], ids=["mfcc", "deltas"])
@pytest.mark.parametrize("n_samples", [TEN_S, 37 * SR + 4321], ids=["10s", "37s-ragged"])
def test_window_mfcc_equals_per_window_path(n_samples, deltas):
    """Every clip frame is computed once, yet each row is bit-identical to
    the window's own MFCC, whose pre-emphasis restarts at its first sample."""
    x = 0.1 * np.random.default_rng(6).normal(size=n_samples)
    # loud samples exactly at every window start expose a wrong restart
    x[:: 5 * SR] = np.where(np.arange(len(x[:: 5 * SR])) % 2, -0.9, 0.9)
    cfg = MfccConfig(include_deltas=deltas)
    got = window_mfcc(x, cfg)
    assert got.shape == ((n_samples - TEN_S) // (5 * SR) + 1, cfg.dim)
    assert np.array_equal(got, per_window_mfcc(x, cfg))


def test_window_mfcc_rejects_less_than_one_window():
    with pytest.raises(DataError, match="at least 160000 samples"):
        window_mfcc(np.zeros(TEN_S - 1))


def test_delta_of_constant_is_zero():
    frames = np.ones((10, 40))
    assert np.allclose(delta_frames(frames), 0.0)


def test_fseq_roundtrip(tmp_path):
    mat = np.random.default_rng(3).normal(size=(5, 1024)).astype(np.float32)
    p = tmp_path / "x.fseq"
    write_fseq(p, mat)
    back = read_fseq(p)
    assert back.shape == (5, 1024)
    assert np.allclose(back, mat)


def test_load_embeddings_checks(tmp_path):
    p = tmp_path / "e.fseq"
    write_fseq(p, np.zeros((3, 1024)))
    assert load_embeddings(p).shape == (3, 1024)
    bad = tmp_path / "nan.fseq"
    mat = np.zeros((2, 1024))
    mat[1, 7] = np.nan
    write_fseq(bad, mat)
    with pytest.raises(DataError):
        load_embeddings(bad)
    trunc = tmp_path / "t.fseq"
    trunc.write_bytes((tmp_path / "e.fseq").read_bytes()[:-8])
    with pytest.raises(DataError):
        load_embeddings(trunc)
    with pytest.raises(DataError):
        load_embeddings(tmp_path / "missing.fseq")
