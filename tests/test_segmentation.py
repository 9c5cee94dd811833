import json
import wave

import numpy as np
import pytest

from dynstress.cli import main
from dynstress.segmentation import (
    ClipRecord,
    DataError,
    LabelSpan,
    align_labels,
    concat_augment,
    load_wav,
    read_manifest,
    segment,
    wav_length,
    write_wav,
)
from dynstress.vad import VadCode

SR = 16000
FEAR = VadCode(0, 1, 0)
HAPPY = VadCode(1, 1, 1)
DISGUST = VadCode(0, 1, 1)


def n_samples(duration_s):
    return int(round(duration_s * SR))


def make_clip(duration_s, emotion=HAPPY, speaker="spk1", utt="utt1", text="t1"):
    """A silent clip's record, with one span over all of it, and its samples."""
    rec = ClipRecord(f"{utt}.wav", speaker, utt, text, [LabelSpan(0, duration_s, emotion)],
                     "train")
    return rec, np.zeros(n_samples(duration_s))


def join(clips, gap_s=0.0):
    records, samples = zip(*clips)
    return concat_augment(records, samples, gap_s)


def test_window_counts():
    assert segment(n_samples(10)) == range(1)
    assert segment(n_samples(25)) == range(4)
    # 45-minute session length
    assert len(segment(n_samples(2700))) == 539


def test_short_clip_rejected():
    with pytest.raises(DataError, match=r"clip 'u' is 9\.50s, shorter than one 10s window"):
        segment(n_samples(9.5), "u")


def test_window_count_formula_property():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = n_samples(float(rng.uniform(10.0, 3 * 3600.0)))
        expect = int((n / SR - 10.0) // 5.0) + 1
        assert len(segment(n)) == expect


def test_window_geometry():
    """Window k is [5k, 5k + 10) s: a span of the 0.1 s about its midpoint
    labels it alone."""
    windows = segment(n_samples(60))
    assert windows == range(11)
    for k in windows:
        labels = align_labels(windows, [LabelSpan(5 * k + 4.95, 5 * k + 5.05, FEAR)])
        assert labels == [FEAR if j == k else None for j in windows]


def test_sample_coverage(tmp_path):
    """The bounds `segment` writes cover every retained sample of a 35 s
    clip, and its interior samples by exactly two windows."""
    n = n_samples(35)
    write_wav(tmp_path / "u.wav", np.zeros(n))
    (tmp_path / "m.jsonl").write_text(json.dumps({
        "audio_path": "u.wav", "speaker_id": "s", "utterance_id": "u",
        "text_id": "t", "spans": [], "split": "train"}) + "\n")
    assert main(["segment", "--manifest", str(tmp_path / "m.jsonl"),
                 "--out", str(tmp_path / "seg")]) == 0
    rows = (tmp_path / "seg" / "windows.jsonl").read_text().splitlines()
    bounds = [(int(r["start_s"] * SR), int(r["end_s"] * SR)) for r in map(json.loads, rows)]
    assert len(bounds) == len(segment(n)) == 6
    cover = np.zeros(n, dtype=int)
    for lo, hi in bounds:
        cover[lo:hi] += 1
    end = bounds[-1][1]
    assert cover[:end].min() >= 1
    assert np.all(cover[5 * SR : end - 5 * SR] == 2)


def test_align_labels_midpoint_rule():
    windows = segment(n_samples(50))
    spans = [LabelSpan(0, 30, FEAR)]
    labels = align_labels(windows, spans)
    # midpoints 5,10,...; window [40,50) midpoint 45 uncovered
    assert labels == [FEAR] * 5 + [None] * (len(windows) - 5)

    spans = [LabelSpan(0, 10, HAPPY), LabelSpan(10, 20, FEAR)]
    labels = align_labels(segment(n_samples(15)), spans)
    # window [5,15) midpoint 10 falls in the second half-open span
    assert labels[1] == FEAR


def test_align_rejects_overlap():
    with pytest.raises(DataError):
        align_labels(segment(n_samples(20)), [
            LabelSpan(0, 12, FEAR), LabelSpan(10, 20, HAPPY),
        ])


def test_concat_augment():
    a = make_clip(5, HAPPY, utt="a-happy")
    b = make_clip(5, DISGUST, utt="a-disgust")
    joined, spans = join([a, b])
    assert len(joined) == len(a[1]) + len(b[1])
    assert [s.code for s in spans] == [HAPPY, DISGUST]
    assert spans[0].start == 0 and spans[1].end == pytest.approx(10.0)


def test_concat_identical_states():
    joined, spans = join([make_clip(5, FEAR, utt="x1"), make_clip(5, FEAR, utt="x2")])
    assert [s.code for s in spans] == [FEAR, FEAR]
    assert len(joined) == 10 * SR


def test_concat_mismatches():
    a = make_clip(5, speaker="s1")
    b = make_clip(5, speaker="s2")
    with pytest.raises(DataError, match="speaker mismatch: 's2' vs 's1'"):
        join([a, b])
    with pytest.raises(DataError, match="at least two clips"):
        join([make_clip(5)])


@pytest.mark.parametrize("texts, spans, gap_s, message", [
    (("t1", "t2"), [1, 1], 0.0, "text mismatch: 't2' vs 't1'"),
    (("t1", "t1"), [1, 0], 0.0, "x1: augment needs one labelled span per record, got 0"),
    (("t1", "t1"), [1, 2], 0.0, "x1: augment needs one labelled span per record, got 2"),
    (("t1", "t1"), [1, 1], -1.0, "gap_s must be a non-negative number"),
], ids=["text-mismatch", "emotion-too-few", "emotion-too-many", "gap-negative"])
def test_concat_rejects_other_texts_and_missing_emotions(texts, spans, gap_s, message):
    """Every rule is checked on the records alone, before a clip is drawn,
    so a generator that decodes clips decodes none for a rejected group."""
    records = [ClipRecord(f"x{i}.wav", "s", f"x{i}", t, [LabelSpan(0, 5, FEAR)] * k, "train")
               for i, (t, k) in enumerate(zip(texts, spans))]
    undrawn = (pytest.fail("a clip was drawn") for _ in records)
    with pytest.raises(DataError, match=message):
        concat_augment(records, undrawn, gap_s)


def test_concat_gap():
    joined, spans = join([make_clip(5, HAPPY), make_clip(5, FEAR)], gap_s=1.0)
    assert len(joined) == 11 * SR
    assert spans[1].start == pytest.approx(6.0)


def test_wrong_rate_rejected(tmp_path):
    """A clip is 16 kHz: load_wav and wav_length reject an 8 kHz file alike."""
    path = tmp_path / "x.wav"
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(8000)
        wf.writeframes(bytes(16000))
    for read in (load_wav, wav_length):
        with pytest.raises(DataError, match="sample rate must be 16000 Hz, got 8000"):
            read(path)


def test_wav_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    samples = rng.uniform(-0.5, 0.5, SR * 2)
    path = tmp_path / "x.wav"
    write_wav(path, samples)
    got = load_wav(path)
    assert got.dtype == np.float64
    assert len(got) == len(samples)
    assert np.max(np.abs(got - samples)) < 1.0 / 32768


def test_load_wav_scales_every_int16_exactly(tmp_path):
    pcm = np.concatenate([
        [-32768, -32767, -1, 0, 1, 32766, 32767],
        np.random.default_rng(1).integers(-32768, 32768, SR),
    ]).astype("<i2")
    path = tmp_path / "x.wav"
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(SR)
        wf.writeframes(pcm.tobytes())
    samples = load_wav(path)
    assert samples.dtype == np.float64
    assert np.array_equal(samples, pcm / 32768.0)


def test_load_wav_missing(tmp_path):
    with pytest.raises(DataError):
        load_wav(tmp_path / "nope.wav")


def test_manifest_roundtrip(tmp_path):
    m = tmp_path / "m.jsonl"
    m.write_text(
        '{"audio_path": "a.wav", "speaker_id": "s", "utterance_id": "u", '
        '"text_id": "t", "spans": [{"start_s": 0, "end_s": 30, "label": "fear"}], '
        '"split": "train"}\n'
    )
    recs = read_manifest(m)
    assert len(recs) == 1
    assert recs[0].spans[0].code == FEAR
    assert recs[0].split == "train"


def test_manifest_bad_record(tmp_path):
    m = tmp_path / "m.jsonl"
    m.write_text('{"speaker_id": "s"}\n')
    with pytest.raises(DataError):
        read_manifest(m)


@pytest.mark.parametrize("repeat", [
    {"audio_path": "y.wav", "utterance_id": "x"},
    {"audio_path": "other/x.wav"},  # defaulted from the audio path's stem
])
def test_manifest_rejects_repeated_utterance_id(tmp_path, repeat):
    m = tmp_path / "m.jsonl"
    m.write_text(json.dumps({"audio_path": "x.wav"}) + "\n"
                 + json.dumps({"audio_path": "z.wav"}) + "\n\n" + json.dumps(repeat))
    with pytest.raises(DataError, match=r"m\.jsonl:4: utterance_id 'x' .*line 1"):
        read_manifest(m)


@pytest.mark.parametrize("field", ["spans", "stress_spans"])
@pytest.mark.parametrize("start, end", [
    (0, "nan"), ("nan", 10), (0, "inf"), (20, 5), (5, 5), (-1, 10),
])
def test_manifest_rejects_bad_spans(tmp_path, field, start, end):
    good = {"audio_path": "a.wav", "spans": [
        {"start_s": 0, "end_s": 10, "label": "fear"}]}
    bad = {"audio_path": "b.wav", field: [
        {"start_s": start, "end_s": end, "label": "fear"}]}
    m = tmp_path / "m.jsonl"
    m.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(DataError, match=r"m\.jsonl:2: .*span"):
        read_manifest(m)


@pytest.mark.parametrize("start, end", [
    (0, float("nan")), (float("nan"), 10), (0, float("inf")),
    ("0", 10), (0, "10"), (True, 10), (0, False), (None, 10),
])
def test_manifest_span_bounds_are_finite_json_numbers(tmp_path, start, end):
    bad = {"audio_path": "b.wav", "spans": [
        {"start_s": start, "end_s": end, "label": "fear"}]}
    m = tmp_path / "m.jsonl"
    m.write_text(json.dumps({"audio_path": "a.wav"}) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(DataError, match=r"m\.jsonl:2: .*span"):
        read_manifest(m)


@pytest.mark.parametrize("label", ["no", "true", 1, 0, [], {}])
def test_manifest_rejects_non_boolean_stress_label(tmp_path, label):
    good = {"audio_path": "a.wav", "stress_label": False}
    bad = {"audio_path": "b.wav", "stress_label": label}
    m = tmp_path / "m.jsonl"
    m.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(DataError, match=r"m\.jsonl:2: .*stress_label"):
        read_manifest(m)
    m.write_text(json.dumps(good) + "\n" + json.dumps({"audio_path": "b.wav"}))
    assert [r.stress_label for r in read_manifest(m)] == [False, None]

