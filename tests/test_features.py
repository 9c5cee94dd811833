import os
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dynstress import features
from dynstress.features import (
    MfccConfig,
    dct_basis,
    delta_frames,
    hz_to_mel,
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
BLOCK = 250 * 160  # samples from one MFCC block's start to the next


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


@pytest.mark.parametrize("rows", [10, 248, 250, 998])
def test_banded_mel_matches_dense_filterbank(rows):
    """Each filter group multiplies only its own bins; the zeros it skips
    change no more than the sums' last bits."""
    mag = np.random.default_rng(rows).random((rows, 257))
    np.testing.assert_allclose(features._mel_energies(mag),
                               mag @ mel_filterbank().T, rtol=1e-14, atol=0)


def test_mfcc_frames_match_the_dense_formula():
    """The padded-buffer, banded path against the textbook one: frames
    zero-padded by rfft's n, and the whole filterbank in one product."""
    x = 0.3 * np.random.default_rng(12).normal(size=TEN_S)
    cfg = MfccConfig()
    emph = np.append(x[0], x[1:] - cfg.pre_emphasis * x[:-1])
    frames = np.stack([emph[i : i + 400] for i in range(0, TEN_S - 399, 160)])
    mag = np.abs(np.fft.rfft(frames * np.hanning(400), n=512))
    mel = np.log(np.maximum(mag @ mel_filterbank().T, cfg.log_floor))
    want = mel @ dct_basis(64)[:40].T
    np.testing.assert_allclose(mfcc_frames(x), want, rtol=0, atol=1e-12)


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
    for deltas in (False, True):
        window_mfcc(x, deltas)
    assert calls == []


def test_window_mfcc_dims():
    x = np.random.default_rng(2).normal(size=TEN_S) * 0.1
    assert window_mfcc(x).shape == (1, 40)
    assert window_mfcc(x, deltas=True).shape == (1, 80)
    x = np.random.default_rng(2).normal(size=27 * SR) * 0.1
    assert window_mfcc(x).shape == (4, 40)


def per_window_mfcc(x, deltas):
    """The plain path: pooled MFCC of each 10 s / 5 s window on its own."""
    rows = []
    for k in range((len(x) - TEN_S) // (5 * SR) + 1):
        frames = mfcc_frames(x[5 * SR * k : 5 * SR * k + TEN_S])
        row = pool_window(frames)
        if deltas:
            row = np.concatenate([row, pool_window(delta_frames(frames))])
        rows.append(row)
    return np.stack(rows)


@pytest.mark.parametrize("deltas", [False, True], ids=["mfcc", "deltas"])
@pytest.mark.parametrize(
    "n_samples", [TEN_S, 37 * SR + 4321, 121 * SR + 999],
    ids=["10s", "37s-ragged", "121s-48-blocks"],
)
def test_window_mfcc_equals_per_window_path(n_samples, deltas):
    """Every clip frame is computed once, yet each row is bit-identical to
    the window's own MFCC, whose pre-emphasis restarts at its first sample.

    A clip of n windows has 2n + 2 blocks of 250 frames, the last one 248
    frames long: 4 blocks for the shortest clip, 48 for the longest here,
    more than the threads that compute them."""
    x = 0.1 * np.random.default_rng(6).normal(size=n_samples)
    # loud samples exactly at every block start (and so at every window
    # start) expose a wrong restart
    x[::BLOCK] = np.where(np.arange(len(x[::BLOCK])) % 2, -0.9, 0.9)
    got = window_mfcc(x, deltas)
    assert got.shape == ((n_samples - TEN_S) // (5 * SR) + 1, 80 if deltas else 40)
    assert np.array_equal(got, per_window_mfcc(x, deltas))


@pytest.mark.parametrize("helpers", [None, 3], ids=["own-pool", "3-helpers"])
def test_concurrent_window_mfcc_calls_match_lone_calls(monkeypatch, helpers):
    """Callers that share the helper pool neither deadlock nor write into
    each other's rows, also with more threads than cores and thread
    switches as often as the interpreter allows."""
    clips = [0.1 * np.random.default_rng(k).normal(size=(20 + 7 * k) * SR + 77 * k)
             for k in range(4)]
    want = [window_mfcc(clip, deltas=True) for clip in clips]
    pool = None
    if helpers is not None:
        pool = ThreadPoolExecutor(helpers)
        monkeypatch.setattr(features, "_POOL", pool)
        monkeypatch.setattr(features, "_HELPERS", helpers)
    got = [[] for _ in clips]

    def run(k):
        for _ in range(3):
            got[k].append(window_mfcc(clips[k], deltas=True))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(clips))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        if pool is not None:
            pool.shutdown()
    assert not any(t.is_alive() for t in threads)
    for rows, expected in zip(got, want):
        assert len(rows) == 3
        assert all(np.array_equal(r, expected) for r in rows)


def test_window_mfcc_starts_its_helper_threads_once(monkeypatch):
    real = features._mfcc_rows
    workers = set()

    def recording_rows(samples):
        workers.add(threading.current_thread())
        return real(samples)

    monkeypatch.setattr(features, "_mfcc_rows", recording_rows)
    x = 0.1 * np.random.default_rng(9).normal(size=30 * SR)
    before = threading.active_count()
    for _ in range(20):
        window_mfcc(x)
    assert threading.active_count() - before <= features._HELPERS
    assert len(workers - {threading.current_thread()}) <= features._HELPERS


class BlockError(Exception):
    pass


@pytest.mark.parametrize("raiser", ["caller", "helper"])
def test_block_error_reaches_caller_after_every_helper_stops(monkeypatch, raiser):
    """The first block that the raising thread takes fails while the other
    thread computes blocks; window_mfcc raises that error only once no block
    is running, and none starts afterwards."""
    monkeypatch.setattr(features, "_HELPERS", max(features._HELPERS, 1))
    real = features._mfcc_rows
    lock = threading.Lock()
    running, calls = [0], [0]
    helper_started = threading.Event()

    def failing_rows(samples):
        on_caller = threading.current_thread() is threading.main_thread()
        if on_caller:
            helper_started.wait(timeout=10)
        else:
            helper_started.set()
        with lock:
            running[0] += 1
            calls[0] += 1
        try:
            time.sleep(0.005)  # keep the threads' blocks overlapping
            if on_caller == (raiser == "caller"):
                raise BlockError(raiser)
            return real(samples)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(features, "_mfcc_rows", failing_rows)
    with pytest.raises(BlockError, match=raiser):
        window_mfcc(0.1 * np.random.default_rng(10).normal(size=60 * SR))
    assert running[0] == 0
    done = calls[0]
    time.sleep(0.05)
    assert calls[0] == done


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_window_mfcc_runs_in_a_forked_child():
    """A child forked after the helpers started has none of their threads,
    so it must not wait on the parent's pool."""
    x = 0.1 * np.random.default_rng(11).normal(size=30 * SR)
    want = window_mfcc(x)
    with warnings.catch_warnings():
        # Python 3.12+ warns that forking a multi-threaded process can deadlock
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if np.array_equal(window_mfcc(x), want) else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.05)
    else:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("window_mfcc hung in the forked child")
    assert os.waitstatus_to_exitcode(status) == 0


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
    assert np.array_equal(back, mat)


@pytest.mark.parametrize("order", ["C", "F"])
def test_np_load_reads_a_written_feature_file_bit_for_bit(tmp_path, order):
    """A feature file is a plain `.npy` array, whatever the matrix's dtype
    and memory order: np.load and read_fseq read the same float32 rows."""
    mat = np.asarray(np.random.default_rng(4).normal(size=(6, 3)), order=order)
    p = tmp_path / "x.fseq"
    write_fseq(p, mat)
    back = np.load(p)
    assert back.dtype == np.dtype("<f4")
    assert back.tobytes() == mat.astype("<f4").tobytes()
    assert read_fseq(p).tobytes() == back.tobytes()


@pytest.mark.parametrize("array", [np.zeros((2, 3), ">f4"), np.zeros((2, 3), "<i4"),
                                   np.zeros((3, 2), "<f4").T],
                         ids=["big-endian", "int32", "fortran-order"])
def test_read_fseq_rejects_24_bytes_that_are_not_c_order_f4(tmp_path, array):
    with open(tmp_path / "x.fseq", "wb") as f:
        np.save(f, array)
    with pytest.raises(DataError, match=r"not a float32 \.npy array \(.*\(2, 3\) in 24 bytes"):
        read_fseq(tmp_path / "x.fseq")


def test_read_fseq_reads_np_save_rows_as_read_only_float32(tmp_path):
    """README's exporter line: np.save of a float32 matrix to an open file (a
    path would gain a `.npy` suffix)."""
    emb = np.random.default_rng(5).normal(size=(4, 1024)).astype("<f4")
    p = tmp_path / "u1.fseq"
    with open(p, "wb") as f:
        np.save(f, emb)
    out = read_fseq(p)
    assert out.dtype == np.float32 and np.array_equal(out, emb)
    assert not out.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        out[0, 0] = 1.0


@pytest.mark.parametrize("shape", [(4,), (2, 3, 4)], ids=["1-D", "3-D"])
def test_write_fseq_rejects_a_matrix_that_is_not_2d(tmp_path, shape):
    with pytest.raises(DataError, match="must be 2-D"):
        write_fseq(tmp_path / "x.fseq", np.zeros(shape))
    assert not (tmp_path / "x.fseq").exists()


def test_load_embeddings_checks(tmp_path):
    """read_fseq, the one reader of embedding files, rejects non-finite values."""
    p = tmp_path / "e.fseq"
    write_fseq(p, np.zeros((3, 1024)))
    assert read_fseq(p).shape == (3, 1024)
    bad = tmp_path / "nan.fseq"
    mat = np.zeros((2, 1024))
    mat[1, 7] = np.nan
    write_fseq(bad, mat)
    with pytest.raises(DataError, match="non-finite"):
        read_fseq(bad)
    trunc = tmp_path / "t.fseq"
    trunc.write_bytes((tmp_path / "e.fseq").read_bytes()[:-8])
    with pytest.raises(DataError):
        read_fseq(trunc)
    with pytest.raises(DataError):
        read_fseq(tmp_path / "missing.fseq")
