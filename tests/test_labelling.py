import itertools
import math
import random

import pytest

from dynstress.labelling import LabellingConfig, relabel_sequence, theta_max
from dynstress.segmentation import DataError
from dynstress.vad import STRESS_CODE, Emotion, VadCode, encode_emotion, hamming_distance

FEAR = encode_emotion(Emotion.FEAR)
HAPPY = encode_emotion(Emotion.HAPPINESS)
SAD = encode_emotion(Emotion.SADNESS)
ANGER = encode_emotion(Emotion.ANGER)

ALPHABET = [encode_emotion(e) for e in Emotion]


def brute_force_relabel(seq, n, lam, tau):
    """Independent transcription of the distance/decay/threshold equations."""
    threshold = tau * sum(2.0 * math.exp(-lam * k) for k in range(n + 1))
    out = []
    for t in range(len(seq)):
        theta = 0.0
        for tp in range(t, max(-1, t - n - 1), -1):
            delta = math.exp(-lam * (t - tp))
            theta += delta * hamming_distance(STRESS_CODE, seq[tp])
        out.append(STRESS_CODE if theta <= threshold else seq[t])
    return out


def test_theta_max_examples():
    assert theta_max(0, 0.8) == 2.0
    assert theta_max(0, 123.0) == 2.0
    assert theta_max(1, 0.8) == pytest.approx(2 * (1 + math.exp(-0.8)), abs=1e-10)
    expect = 2 * sum(math.exp(-0.8 * k) for k in range(5))
    assert theta_max(4, 0.8) == pytest.approx(expect, abs=1e-10)


def test_config_validation():
    with pytest.raises(ValueError):
        LabellingConfig(n=-1, lam=0.8)
    with pytest.raises(ValueError):
        LabellingConfig(n=0, lam=0.0)
    # NaN and inf weights would make every decayed total NaN, so no window
    # could ever relabel
    for lam in (float("nan"), float("inf"), -1.0):
        with pytest.raises(DataError):
            LabellingConfig(n=0, lam=lam)
    with pytest.raises(ValueError):
        LabellingConfig(n=0, lam=0.8, tau=1.5)


def test_relabel_examples():
    cfg = LabellingConfig(n=2, lam=0.8, tau=0.5)
    assert relabel_sequence([FEAR] * 5, cfg) == [STRESS_CODE] * 5
    assert relabel_sequence([HAPPY] * 3, cfg) == [HAPPY] * 3
    # First window: theta = 1.0 equals T = 1.0 exactly; ties label stress.
    assert relabel_sequence([SAD, FEAR, FEAR], cfg) == [
        STRESS_CODE, STRESS_CODE, STRESS_CODE,
    ]
    # Last window: theta = 1 + e^-0.8 + e^-1.6 equals T exactly.
    assert relabel_sequence([ANGER] * 3, cfg) == [STRESS_CODE] * 3
    # n=0: a lone happy window has theta 2 > T = 1.
    assert relabel_sequence([HAPPY], LabellingConfig(n=0, lam=0.8)) == [HAPPY]
    # n=1: theta = 2 e^-0.8 at the fear window, below T = 1 + e^-0.8.
    assert relabel_sequence([HAPPY, FEAR], LabellingConfig(n=1, lam=0.8)) == [
        HAPPY, STRESS_CODE,
    ]
    # n=3: three fear windows pull anger (theta 1 <= T ~ 1.74) to stress.
    out = relabel_sequence([FEAR, FEAR, FEAR, ANGER], LabellingConfig(n=3, lam=0.8))
    assert out == [STRESS_CODE] * 4
    with pytest.raises(ValueError):
        relabel_sequence([], cfg)


def test_length_and_alphabet_preservation():
    rng = random.Random(7)
    cfg = LabellingConfig(n=3, lam=0.8, tau=0.5)
    for _ in range(200):
        seq = [rng.choice(ALPHABET) for _ in range(rng.randint(1, 12))]
        out = relabel_sequence(seq, cfg)
        assert len(out) == len(seq)
        for got, src in zip(out, seq):
            assert got in (STRESS_CODE, src)


def test_lambda_invariance_at_n0():
    rng = random.Random(11)
    for _ in range(100):
        seq = [rng.choice(ALPHABET) for _ in range(rng.randint(1, 8))]
        outs = [
            relabel_sequence(seq, LabellingConfig(n=0, lam=lam, tau=0.5))
            for lam in (0.01, 0.1, 0.8, 1.0, 42.0)
        ]
        assert all(o == outs[0] for o in outs)


def test_large_lambda_degenerates_to_n0():
    rng = random.Random(13)
    for _ in range(100):
        seq = [rng.choice(ALPHABET) for _ in range(rng.randint(1, 10))]
        big = relabel_sequence(seq, LabellingConfig(n=5, lam=50.0, tau=0.5))
        base = relabel_sequence(seq, LabellingConfig(n=0, lam=50.0, tau=0.5))
        assert big == base


def test_stress_absorption():
    for n in range(4):
        for tau in (0.0, 0.25, 1.0):
            cfg = LabellingConfig(n=n, lam=0.8, tau=tau)
            seq = [STRESS_CODE] * (n + 3)
            assert relabel_sequence(seq, cfg) == seq


def test_oracle_equivalence_spot():
    # Full-enumeration equivalence lives in the acceptance suite; here a
    # randomized spot check across configs.
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randint(0, 5)
        lam = rng.choice([0.01, 0.1, 0.8, 1.0])
        tau = rng.choice([0.25, 0.5, 0.75])
        seq = [rng.choice(ALPHABET) for _ in range(rng.randint(1, 6))]
        cfg = LabellingConfig(n=n, lam=lam, tau=tau)
        assert relabel_sequence(seq, cfg) == brute_force_relabel(seq, n, lam, tau)
