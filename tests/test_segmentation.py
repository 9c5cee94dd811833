import json
import wave

import numpy as np
import pytest

from dynstress.segmentation import (
    AudioClip,
    DataError,
    LabelSpan,
    align_labels,
    concat_augment,
    load_wav,
    read_manifest,
    segment,
    write_wav,
)
from dynstress.vad import VadCode

SR = 16000
FEAR = VadCode(0, 1, 0)
HAPPY = VadCode(1, 1, 1)
DISGUST = VadCode(0, 1, 1)


def make_clip(duration_s, speaker="spk1", utt="utt1", text="t1"):
    n = int(round(duration_s * SR))
    return AudioClip(np.zeros(n), SR, speaker, utt, text)


def test_window_counts():
    assert len(segment(make_clip(10))) == 1
    assert len(segment(make_clip(25))) == 4
    assert [w.start for w in segment(make_clip(25))] == [0, 5, 10, 15]
    # 45-minute session length
    assert len(segment(make_clip(2700))) == 539


def test_short_clip_rejected():
    with pytest.raises(DataError):
        segment(make_clip(9.5))


def test_window_geometry():
    for w in segment(make_clip(60)):
        assert w.end - w.start == 10.0
        assert w.start == 5.0 * w.index


def test_window_count_formula_property():
    rng = np.random.default_rng(3)
    for _ in range(200):
        dur = float(rng.uniform(10.0, 3 * 3600.0))
        clip = make_clip(dur)
        expect = int((clip.duration - 10.0) // 5.0) + 1
        assert len(segment(clip)) == expect


def test_sample_coverage():
    clip = make_clip(35)
    windows = segment(clip)
    cover = np.zeros(len(clip.samples), dtype=int)
    for w in windows:
        cover[int(w.start * SR) : int(w.end * SR)] += 1
    # every retained sample covered; interior samples by exactly two windows
    assert cover[: int(windows[-1].end * SR)].min() >= 1
    interior = cover[5 * SR : int((windows[-1].end - 5) * SR)]
    assert np.all(interior == 2)


def test_wrong_rate_rejected():
    with pytest.raises(DataError):
        AudioClip(np.zeros(80000), 8000, "s", "u")


def test_align_labels_midpoint_rule():
    clip = make_clip(50)
    windows = segment(clip)
    spans = [LabelSpan(0, 30, FEAR)]
    labels = align_labels(windows, spans)
    # midpoints 5,10,...; window [40,50) midpoint 45 uncovered
    assert labels == [FEAR] * 5 + [None] * (len(windows) - 5)

    spans = [LabelSpan(0, 10, HAPPY), LabelSpan(10, 20, FEAR)]
    labels = align_labels(segment(make_clip(15)), spans)
    # window [5,15) midpoint 10 falls in the second half-open span
    assert labels[1] == FEAR


def test_align_rejects_overlap():
    with pytest.raises(DataError):
        align_labels(segment(make_clip(20)), [
            LabelSpan(0, 12, FEAR), LabelSpan(10, 20, HAPPY),
        ])


def test_concat_augment():
    a = make_clip(5, utt="a-happy")
    b = make_clip(5, utt="a-disgust")
    joined, final, spans = concat_augment([a, b], [HAPPY, DISGUST])
    assert final == DISGUST
    assert len(joined.samples) == len(a.samples) + len(b.samples)
    assert [s.code for s in spans] == [HAPPY, DISGUST]
    assert spans[0].start == 0 and spans[1].end == pytest.approx(10.0)


def test_concat_identical_states():
    a, b = make_clip(5, utt="x1"), make_clip(5, utt="x2")
    _, final, _ = concat_augment([a, b], [FEAR, FEAR])
    assert final == FEAR


def test_concat_mismatches():
    a = make_clip(5, speaker="s1")
    b = make_clip(5, speaker="s2")
    with pytest.raises(DataError):
        concat_augment([a, b], [HAPPY, FEAR])
    with pytest.raises(DataError):
        concat_augment([make_clip(5)], [HAPPY])


@pytest.mark.parametrize("texts, emotions, message", [
    (("t1", "t2"), [HAPPY, FEAR], "text mismatch: 't2' vs 't1'"),
    (("t1", "t1"), [HAPPY], "one emotion code per clip"),
], ids=["text-mismatch", "emotion-too-few"])
def test_concat_rejects_other_texts_and_missing_emotions(texts, emotions, message):
    clips = [make_clip(5, utt=f"x{i}", text=t) for i, t in enumerate(texts)]
    with pytest.raises(DataError, match=message):
        concat_augment(clips, emotions)


def test_concat_gap():
    a, b = make_clip(5), make_clip(5)
    joined, _, spans = concat_augment([a, b], [HAPPY, FEAR], gap_s=1.0)
    assert len(joined.samples) == 11 * SR
    assert spans[1].start == pytest.approx(6.0)


def test_wav_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    samples = rng.uniform(-0.5, 0.5, SR * 2)
    path = tmp_path / "x.wav"
    write_wav(path, samples)
    clip = load_wav(path, "s", "u")
    assert clip.sample_rate == SR
    assert len(clip.samples) == len(samples)
    assert np.max(np.abs(clip.samples - samples)) < 1.0 / 32768


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
    samples = load_wav(path).samples
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

