import warnings
from dataclasses import replace

import numpy as np
import pytest

from dynstress import pipeline, segmentation
from dynstress.autodiff import Tensor, linear
from dynstress.features import delta_frames, mfcc_frames, pool_window, write_fseq
from dynstress.labelling import LabellingConfig, relabel_sequence
from dynstress.model import (
    ModelConfig,
    context_array,
    context_memory,
    context_states,
    decode,
    forward_batch,
    init_params,
    load_checkpoint,
    lstm_states,
    readout,
    readout_array,
    save_checkpoint,
    speech_inputs,
    speech_states,
    transformer_states,
)
from dynstress.pipeline import (
    build_samples,
    last_speech_states,
    load_recording,
    predict_recording,
)
from dynstress.segmentation import (
    ClipRecord,
    DataError,
    LabelSpan,
    load_clip,
    segment,
    write_wav,
)
from dynstress.vad import ALL_CODES, VadCode, is_stress

SR = 16000
FEAR = VadCode(0, 1, 0)
HAPPY = VadCode(1, 1, 1)
SAD = VadCode(0, 0, 0)

LAB = LabellingConfig(n=2, lam=0.8, tau=0.5)


def small_cfg(arch, **kw):
    """A hidden-8 model; the transformer's with 2 heads and a 16-wide ffn."""
    own = {"heads": 2, "ffn": 16} if arch == "transformer" else {}
    return ModelConfig(arch, hidden=8, **own, **kw)


def write_clip(tmp_path, name, duration_s, seed=0):
    rng = np.random.default_rng(seed)
    write_wav(tmp_path / f"{name}.wav", 0.1 * rng.normal(size=duration_s * SR))


def record(name, spans, stress_spans=(), split="train"):
    return ClipRecord(
        audio_path=f"{name}.wav", speaker_id="spk", utterance_id=name,
        text_id="t", spans=list(spans), split=split,
        stress_spans=list(stress_spans),
    )


@pytest.fixture()
def clip_dir(tmp_path):
    write_clip(tmp_path, "full", 30)
    return tmp_path


def test_load_recording_single_run(clip_dir):
    rec = record("full", [LabelSpan(0, 15, FEAR), LabelSpan(15, 30, HAPPY)])
    out = load_recording(rec, clip_dir, None, LAB)
    assert len(out) == 1
    rd = out[0]
    # 30 s -> 5 windows, midpoints 5,10,15,20,25
    assert rd.emotion_codes == [FEAR, FEAR, HAPPY, HAPPY, HAPPY]
    assert rd.stress_codes == relabel_sequence(rd.emotion_codes, LAB)
    assert rd.clip_id == "full#0"
    assert rd.features.shape == (5, 0)  # feature extraction skipped


def test_load_recording_gap_splits_runs(clip_dir):
    # midpoint 15 uncovered: windows 0,1 | 3,4 form two labelled runs
    rec = record("full", [LabelSpan(0, 12, FEAR), LabelSpan(18, 30, HAPPY)])
    out = load_recording(rec, clip_dir, None, LAB)
    assert [rd.clip_id for rd in out] == ["full#0", "full#1"]
    assert out[0].emotion_codes == [FEAR, FEAR]
    assert out[1].emotion_codes == [HAPPY, HAPPY]
    # each run is relabelled independently (history resets at the gap)
    assert out[1].stress_codes == relabel_sequence([HAPPY, HAPPY], LAB)


def test_load_recording_reference_codes(clip_dir):
    rec = record(
        "full",
        [LabelSpan(0, 30, FEAR)],
        stress_spans=[LabelSpan(0, 15, FEAR)],
    )
    rd = load_recording(rec, clip_dir, None, LAB)[0]
    assert rd.reference_codes == [FEAR, FEAR, None, None, None]


def test_load_recording_mfcc_features(tmp_path):
    write_clip(tmp_path, "short", 20, seed=3)
    rec = record("short", [LabelSpan(0, 20, FEAR)])
    rd = load_recording(rec, tmp_path, "mfcc", LAB)[0]
    assert rd.features.shape == (3, 40)
    assert np.all(np.isfinite(rd.features))


def test_build_samples_counts_and_context(clip_dir):
    rec = record("full", [LabelSpan(0, 30, FEAR)])
    rd = load_recording(rec, clip_dir, None, LAB)[0]
    rd = replace(rd, features=np.arange(5.0)[:, None])  # row k is window k
    samples = build_samples([rd], history=2)
    assert len(samples) == 3  # windows 2,3,4 of 5
    for t, s in enumerate(samples, start=2):
        assert np.array_equal(s.features[:, 0], [t - 2, t - 1, t])
    s0 = samples[0]
    assert s0.context.shape == (3, 3)
    assert np.array_equal(s0.context[0], [0, 0, 0])
    assert np.array_equal(
        s0.context[1:],
        [c.as_tuple() for c in rd.stress_codes[:2]],
    )
    assert s0.target == rd.stress_codes[2]


def test_build_samples_prev_indices(clip_dir):
    rec = record("full", [LabelSpan(0, 30, FEAR)])
    rd = load_recording(rec, clip_dir, None, LAB)[0]
    samples = build_samples([rd], history=2)
    # window 2 has no full-length predecessors; window 4 points at 2 and 3
    assert samples[0].prev_indices == (-1, -1)
    assert samples[1].prev_indices == (-1, 0)
    assert samples[2].prev_indices == (0, 1)
    # a second recording's indices start after the first's samples
    samples = build_samples([rd, rd], history=2)
    assert [s.prev_indices for s in samples[3:]] == [(-1, -1), (-1, 3), (3, 4)]


def test_build_samples_history_zero(clip_dir):
    rec = record("full", [LabelSpan(0, 30, FEAR)])
    rd = load_recording(rec, clip_dir, None, LAB)[0]
    samples = build_samples([rd], history=0)
    assert len(samples) == 5
    for s in samples:
        assert s.context.shape == (1, 3)
        assert s.prev_indices == ()


def test_build_samples_rejects_negative_history(clip_dir):
    rec = record("full", [LabelSpan(0, 30, FEAR)])
    rd = load_recording(rec, clip_dir, None, LAB)[0]
    with pytest.raises(DataError, match="history"):
        build_samples([rd], history=-1)


def test_load_recording_decodes_each_wav_once(clip_dir, monkeypatch):
    rec = record("full", [LabelSpan(0, 30, FEAR)])
    calls = []
    load_wav = segmentation.load_wav

    def counting_load_wav(*args, **kwargs):
        calls.append(args[0])
        return load_wav(*args, **kwargs)

    monkeypatch.setattr(segmentation, "load_wav", counting_load_wav)
    (rd,) = load_recording(rec, clip_dir, "mfcc+deltas", LAB)
    assert len(calls) == 1
    monkeypatch.undo()
    # rows match the per-window MFCC and deltas of the same decoded clip
    samples = load_clip(rec, clip_dir)
    windows = segment(len(samples))
    assert rd.features.shape == (len(windows), 80)
    for k, row in enumerate(rd.features):
        frames = mfcc_frames(samples[80000 * k : 80000 * k + 160000])
        assert np.array_equal(row[:40], pool_window(frames))
        assert np.array_equal(row[40:], pool_window(delta_frames(frames)))


def test_file_features_pass_rows_through(clip_dir):
    emb = clip_dir / "emb"
    emb.mkdir()
    rows = np.random.default_rng(3).normal(size=(5, 7)).astype(np.float32)
    write_fseq(emb / "full.fseq", rows)
    rec = record("full", [LabelSpan(0, 30, FEAR)])
    (rd,) = load_recording(rec, clip_dir, f"file:{emb}", LAB)
    assert np.array_equal(rd.features, rows.astype(np.float64))
    # a 30 s clip has 5 windows
    write_fseq(emb / "full.fseq", rows[:4])
    with pytest.raises(DataError, match="4 rows"):
        load_recording(rec, clip_dir, f"file:{emb}", LAB)


def test_file_features_decode_no_wav(clip_dir, monkeypatch):
    """Under file: features a clip's WAV gives only its window count, read
    from its header with load_wav's checks: its samples are not decoded."""
    emb = clip_dir / "emb"
    emb.mkdir()
    write_fseq(emb / "full.fseq", np.zeros((5, 7)))
    rec = record("full", [LabelSpan(0, 12, FEAR), LabelSpan(18, 30, HAPPY)],
                 [LabelSpan(0, 30, SAD)])
    decoded = load_recording(rec, clip_dir, None, LAB)

    def no_decode(*args, **kwargs):
        raise AssertionError("a WAV was decoded")
    monkeypatch.setattr(segmentation, "load_wav", no_decode)
    got = load_recording(rec, clip_dir, f"file:{emb}", LAB)
    assert [replace(rd, features=None) for rd in got] == \
        [replace(rd, features=None) for rd in decoded]
    wav = (clip_dir / "full.wav").read_bytes()
    (clip_dir / "full.wav").write_bytes(wav[:-2000])
    with pytest.raises(DataError, match="full.wav: data chunk holds"):
        load_recording(rec, clip_dir, f"file:{emb}", LAB)


def test_build_samples_skips_short_runs(clip_dir):
    rec = record("full", [LabelSpan(0, 12, FEAR), LabelSpan(18, 30, HAPPY)])
    rds = load_recording(rec, clip_dir, None, LAB)
    # both runs have 2 windows; history 3 needs 4
    assert build_samples(rds, history=3) == []


def test_predict_recording_zero_params():
    cfg = ModelConfig("lstm", feature_dim=4, hidden=8, dropout=0.0)
    params = init_params(cfg, np.random.default_rng(0))
    for n in sorted(params):
        params[n].data[:] = 0.0
    feats = np.random.default_rng(1).normal(size=(4, 4))
    preds = predict_recording(feats, history=2, params=params, cfg=cfg)
    assert preds == [VadCode(0, 0, 0)] * 4
    assert not any(is_stress(c) for c in preds)


def test_predict_recording_matches_manual_rollout():
    cfg = ModelConfig("lstm", feature_dim=4, hidden=8, dropout=0.0)
    params = init_params(cfg, np.random.default_rng(7))
    feats = np.random.default_rng(8).normal(size=(5, 4))
    history = 2
    got = predict_recording(feats, history, params, cfg)
    manual = []
    for t in range(5):
        lo = max(0, t - history)
        X = feats[lo : t + 1][None]
        S = context_array(manual[lo:t])[None]
        probs = forward_batch(X, S, params, cfg).data[0]
        manual.append(VadCode(*(int(p > 0.5) for p in probs)))
    assert got == manual


def test_predict_recording_uses_own_predictions():
    # with nonzero params the context matters: feeding different histories
    # must be observable, so check causality instead of exact equality
    cfg = ModelConfig("lstm", feature_dim=4, hidden=8, dropout=0.0)
    params = init_params(cfg, np.random.default_rng(9))
    rng = np.random.default_rng(10)
    feats = rng.normal(size=(6, 4))
    base = predict_recording(feats, 3, params, cfg)
    bumped = feats.copy()
    bumped[4] += 10.0
    after = predict_recording(bumped, 3, params, cfg)
    assert after[:4] == base[:4]


def plain_predict(feats, history, params, cfg):
    """Sequential inference as one whole ``forward_batch`` per window."""
    preds = []
    for t in range(feats.shape[0]):
        lo = max(0, t - history)
        S = context_array(preds[lo:t])[None]
        probs = forward_batch(feats[lo : t + 1][None], S, params, cfg).data[0]
        preds.append(VadCode(*(int(p > 0.5) for p in probs)))
    return preds


def ragged_cases(arch, seed):
    """(features, history, params, cfg) for n = 0..5 and recordings of one
    window, of at most n windows and of many more than n windows."""
    rng = np.random.default_rng(seed)
    cfg = small_cfg(arch, feature_dim=16, dropout=0.0)
    params = init_params(cfg, rng)
    for n in range(6):
        for N in (1, int(rng.integers(1, n + 1)) if n else 1,
                  int(rng.integers(3 * n + 5, 3 * n + 20))):
            yield rng.normal(size=(N, 16)), n, params, cfg


@pytest.mark.parametrize("arch", ["lstm", "transformer"])
def test_predict_recording_equals_per_window_forward(arch, tmp_path):
    """Identical codes for float64 parameters and features, and for the
    float32 parameters a checkpoint loads with float32 features, as
    ``eval`` and ``ablate`` run them on feature files."""
    seen = {"float64": set(), "float32": set()}
    for seed in range(3):
        loaded = None
        for feats, n, params, cfg in ragged_cases(arch, seed):
            if loaded is None:  # every case of a seed shares its parameters
                save_checkpoint(tmp_path / "m.ckpt", params, cfg)
                loaded, _ = load_checkpoint(tmp_path / "m.ckpt")
            for X, p in ((feats, params), (feats.astype(np.float32), loaded)):
                got = predict_recording(X, n, p, cfg)
                assert got == plain_predict(X, n, p, cfg), (seed, n, len(X), X.dtype)
                seen[X.dtype.name].update(got)
    # the decisions vary, so equal codes say something
    assert all(len(codes) > 1 for codes in seen.values())


@pytest.mark.parametrize("arch", ["lstm", "transformer"])
def test_inference_on_a_loaded_checkpoint_records_no_float64_tensor(arch, tmp_path,
                                                                   monkeypatch):
    """A loaded checkpoint infers in float32 from float64 features (as MFCC
    gives) and from float32 ones (as a feature file gives): no float64
    tensor of more than one element is made."""
    rng = np.random.default_rng(5)
    cfg = small_cfg(arch, feature_dim=16)
    save_checkpoint(tmp_path / "m.ckpt", init_params(cfg, rng), cfg)
    params, _ = load_checkpoint(tmp_path / "m.ckpt")
    made = []
    init = Tensor.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self.data)
    monkeypatch.setattr(Tensor, "__init__", recording)
    # the step loop builds no tensor: the probabilities it decodes are watched too
    probs = []

    def watching(p):
        probs.append(p.dtype)
        return decode(p)
    monkeypatch.setattr(pipeline, "decode", watching)
    feats = rng.normal(size=(12, 16))
    for X in (feats, feats.astype(np.float32)):
        predict_recording(X, 3, params, cfg)
    assert sum(a.dtype == np.float32 and a.size > 1 for a in made) > 20
    assert [a.shape for a in made if a.dtype != np.float32 and a.size > 1] == []
    assert probs == [np.float32] * 24


def readouts(feats, n, params, cfg, rng):
    """(readout_array, readout) probabilities of every window's query over the
    memory of a random context of min(t, n) codes."""
    queries = linear(Tensor(last_speech_states(feats, n, params, cfg)),
                     params["attn.wq"], params["attn.bq"]).data
    for t, q in enumerate(queries):
        codes = [ALL_CODES[i] for i in rng.integers(0, 8, size=min(t, n))]
        S = context_array(codes)[None]
        hc, k, v = context_memory(context_states(S, params, cfg), params)
        want = readout(Tensor(q[None, None]), hc, k, v, params, cfg).data[0]
        with np.errstate(over="ignore"):
            got = readout_array(q, k.data[0], v.data[0], hc.data[0, -1], params, cfg)
        yield got, want


@pytest.mark.parametrize("arch", ["lstm", "transformer"])
def test_readout_array_equals_readout(arch, tmp_path):
    """The step loop's array readout against the taped one on the same
    context memory: to 1e-12 relative in float64, and in float32 to 4e-7
    absolute, a few units in the last place of a probability near 1."""
    rng = np.random.default_rng(0)
    loaded = None
    for feats, n, params, cfg in ragged_cases(arch, 6):
        if loaded is None:
            save_checkpoint(tmp_path / "m.ckpt", params, cfg)
            loaded, _ = load_checkpoint(tmp_path / "m.ckpt")
        for got, want in readouts(feats, n, params, cfg, rng):
            assert got.dtype == want.dtype == np.float64
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        for got, want in readouts(feats.astype(np.float32), n, loaded, cfg, rng):
            assert got.dtype == want.dtype == np.float32
            np.testing.assert_allclose(got, want, rtol=0, atol=4e-7)


@pytest.mark.parametrize("arch", ["lstm", "transformer"])
def test_a_vanishing_probability_decodes_without_a_warning(arch, tmp_path):
    """A head logit below -1000 overflows the sigmoid's exp in float64 and in
    float32: the probability is exactly 0, no RuntimeWarning is raised, and
    the codes are those of the per-window forward."""
    feats, n, params, cfg = list(ragged_cases(arch, 7))[-1]
    params = dict(params, **{"head.b": Tensor(np.array([-1e4, 0.0, 0.0]))})
    save_checkpoint(tmp_path / "m.ckpt", params, cfg)
    loaded, _ = load_checkpoint(tmp_path / "m.ckpt")
    for X, p in ((feats, params), (feats.astype(np.float32), loaded)):
        probs = [got for got, _ in readouts(X, n, p, cfg, np.random.default_rng(1))]
        assert all(row[0] == 0.0 for row in probs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = predict_recording(X, n, p, cfg)
        assert got == plain_predict(X, n, p, cfg)
        assert {c.valence for c in got} == {0} and len(set(got)) > 1


@pytest.mark.parametrize("arch", ["lstm", "transformer"])
def test_batched_last_speech_states_equal_per_window(arch):
    for feats, n, params, cfg in ragged_cases(arch, 3):
        got = last_speech_states(feats, n, params, cfg)
        for t in range(feats.shape[0]):
            X = feats[max(0, t - n) : t + 1][None]
            want = speech_states(speech_inputs(X, params, cfg), params, cfg).data[0, -1]
            np.testing.assert_allclose(got[t], want, rtol=1e-12, atol=0)


def test_speech_is_encoded_once_per_recording(monkeypatch):
    """One projection of every row and one encoder call over every window,
    also when the recording has no more windows than the history."""
    projected, batches = [], []

    def counting_inputs(X, *args):
        projected.append(X.shape)
        return speech_inputs(X, *args)

    def counting(P, *args):
        batches.append(P.shape[:2])
        return speech_states(P, *args)

    monkeypatch.setattr(pipeline, "speech_inputs", counting_inputs)
    monkeypatch.setattr(pipeline, "speech_states", counting)
    feats = np.random.default_rng(1).normal(size=(9, 4))
    for arch in ("lstm", "transformer"):
        cfg = small_cfg(arch, feature_dim=4, dropout=0.0)
        params = init_params(cfg, np.random.default_rng(0))
        for N, n, window in ((9, 3, 4), (9, 0, 1), (3, 3, 3), (2, 3, 2), (1, 3, 1)):
            projected.clear()
            batches.clear()
            predict_recording(feats[:N], n, params, cfg)
            assert projected == [(N, 4)], (arch, N, n)
            assert batches == [(N, window)], (arch, N, n)


def contexts(codes, n):
    """The distinct contexts, as tuples of codes, that self-fed ``codes`` met."""
    return {tuple(codes[max(0, t - n) : t]) for t in range(len(codes))}


@pytest.mark.parametrize("arch", ["lstm", "transformer"])
def test_context_encoder_runs_once_per_distinct_context(arch, monkeypatch, tmp_path):
    """Once per call for an ``init_params`` dict; for a loaded checkpoint,
    once across every recording and n it is run on."""
    calls = []

    def counting(S, *args):
        calls.append(S.shape)
        return context_states(S, *args)

    monkeypatch.setattr(pipeline, "context_states", counting)
    repeated = False
    for feats, n, params, cfg in ragged_cases(arch, 4):
        calls.clear()
        distinct = contexts(predict_recording(feats, n, params, cfg), n)
        assert len(calls) == len(distinct), (n, len(feats))
        assert all(shape[0] == 1 for shape in calls)
        repeated |= len(distinct) < len(feats)
    assert repeated  # some context recurs, so the count says something
    save_checkpoint(tmp_path / "m.ckpt", params, cfg)  # every case's parameters
    loaded, _ = load_checkpoint(tmp_path / "m.ckpt")
    calls.clear()
    seen, per_call = set(), 0
    for feats, n, _, cfg in ragged_cases(arch, 4):
        distinct = contexts(predict_recording(feats.astype(np.float32), n, loaded, cfg), n)
        seen |= distinct
        per_call += len(distinct)
        assert len(calls) == len(seen), (n, len(feats))
    assert len(seen) < per_call  # calls meet each other's contexts


def test_a_loaded_checkpoint_keeps_one_memory_per_config(tmp_path):
    """The transformer's head count shapes no tensor, so one checkpoint runs
    under configs that differ in it alone; the codes under each, in turn,
    are those of the per-window forward under it."""
    differ = False
    for seed in (10, 15):
        loaded = None
        for feats, n, params, cfg in ragged_cases("transformer", seed):
            if loaded is None:  # every case of a seed shares its parameters
                save_checkpoint(tmp_path / "m.ckpt", params, cfg)
                loaded, _ = load_checkpoint(tmp_path / "m.ckpt")
            X, got = feats.astype(np.float32), {}
            for heads in (2, 4, 8):
                c = replace(cfg, heads=heads)
                got[heads] = predict_recording(X, n, loaded, c)
                assert got[heads] == plain_predict(X, n, loaded, c), (seed, n, len(X), heads)
            differ |= len({tuple(codes) for codes in got.values()}) > 1
    assert differ  # the configs decide differently, so equal codes say something


@pytest.mark.parametrize("arch", ["lstm", "transformer"])
def test_a_loaded_checkpoint_is_read_only(arch, tmp_path):
    """Its tensors cannot be replaced or removed, their arrays cannot be
    written, and a plain dict copy infers the same codes."""
    feats, n, params, cfg = list(ragged_cases(arch, 9))[-1]
    save_checkpoint(tmp_path / "m.ckpt", params, cfg)
    loaded, _ = load_checkpoint(tmp_path / "m.ckpt")
    with pytest.raises(TypeError):
        loaded["head.b"] = params["head.b"]
    with pytest.raises(TypeError):
        del loaded["head.b"]
    assert not any(t.data.flags.writeable for t in loaded.values())
    X = feats.astype(np.float32)
    assert predict_recording(X, n, dict(loaded), cfg) == predict_recording(X, n, loaded, cfg)


@pytest.mark.parametrize("arch", ["lstm", "transformer"])
def test_speech_states_are_the_last_row_of_the_full_encoder(arch):
    """The speech encoder computes only the state the head reads: the LSTM
    slices its recurrence, and the transformer's last layer (of two) runs on
    the last row alone."""
    cfg = small_cfg(arch, feature_dim=4, dropout=0.3)
    params = init_params(cfg, np.random.default_rng(2))
    P = speech_inputs(np.random.default_rng(3).normal(size=(2, 4, 4)), params, cfg)
    if arch == "lstm":
        full = lstm_states(P, params["speech_lstm.u"]).data
    else:
        full = transformer_states(P, params, cfg, "enc", cfg.layers).data
    last = speech_states(P, params, cfg).data
    assert last.shape == (2, 1, 8)
    assert np.abs(last - full[:, -1:]).max() <= 1e-12 * np.abs(full[:, -1:]).max()


def test_predict_recording_rejects_negative_history():
    cfg = ModelConfig("lstm", feature_dim=4, hidden=8, dropout=0.0)
    params = init_params(cfg, np.random.default_rng(0))
    with pytest.raises(DataError, match="history"):
        predict_recording(np.zeros((3, 4)), -1, params, cfg)
