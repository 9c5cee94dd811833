import itertools

import pytest

from dynstress.vad import (
    ALL_CODES,
    STRESS_CODE,
    Emotion,
    VadCode,
    encode_emotion,
    hamming_distance,
    is_stress,
    parse_label,
)


def test_table_encodings():
    assert encode_emotion(Emotion.HAPPINESS) == VadCode(1, 1, 1)
    assert encode_emotion(Emotion.SADNESS) == VadCode(0, 0, 0)
    assert encode_emotion(Emotion.ANGER) == VadCode(0, 1, 1)
    assert encode_emotion(Emotion.FEAR) == VadCode(0, 1, 0)
    assert encode_emotion(Emotion.DISGUST) == VadCode(0, 1, 1)
    assert encode_emotion(Emotion.NEUTRAL) == VadCode(0, 0, 0)


def test_stress_code():
    assert STRESS_CODE == VadCode(0, 1, 0)
    assert is_stress(STRESS_CODE)
    # Fear and stress share an encoding by construction.
    assert is_stress(encode_emotion(Emotion.FEAR))
    for c in ALL_CODES:
        assert is_stress(c) is (c == STRESS_CODE), c


def test_code_validation():
    with pytest.raises(ValueError):
        VadCode(2, 0, 0)
    with pytest.raises(ValueError):
        VadCode(0, -1, 1)


def test_hamming_examples():
    assert hamming_distance(VadCode(0, 1, 0), VadCode(0, 1, 0)) == 0
    assert hamming_distance(VadCode(0, 1, 0), VadCode(1, 1, 1)) == 2
    assert hamming_distance(VadCode(0, 1, 0), VadCode(0, 1, 1)) == 1


def test_hamming_is_a_metric():
    for a, b, c in itertools.product(ALL_CODES, repeat=3):
        assert hamming_distance(a, b) == hamming_distance(b, a)
        assert (hamming_distance(a, b) == 0) == (a == b)
        assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)


def test_catalogue_distances_bounded():
    for e in Emotion:
        assert hamming_distance(STRESS_CODE, encode_emotion(e)) in (0, 1, 2)


def test_text_roundtrip():
    for code in ALL_CODES:
        assert VadCode.from_text(code.to_text()) == code
    assert parse_label("0,1,0") == STRESS_CODE
    assert parse_label("Fear") == STRESS_CODE
    with pytest.raises(ValueError):
        parse_label("boredom")
    with pytest.raises(ValueError):
        VadCode.from_text("0,1")


def test_ordering_is_componentwise():
    assert VadCode(0, 0, 1) < VadCode(0, 1, 0)
    assert sorted(ALL_CODES)[0] == VadCode(0, 0, 0)
    assert sorted(ALL_CODES)[-1] == VadCode(1, 1, 1)
