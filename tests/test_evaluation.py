import random

import pytest

from dynstress.evaluation import (
    EvalReport,
    labelling_sweep,
    majority_vote,
    score_segment_level,
    score_sequence_level,
    write_sweep_csv,
)
from dynstress.labelling import LabellingConfig, relabel_sequence
from dynstress.vad import Emotion, encode_emotion

ALPHABET = [encode_emotion(e) for e in Emotion]
FEAR = encode_emotion(Emotion.FEAR)
HAPPY = encode_emotion(Emotion.HAPPINESS)


def reference_scorer(preds, truths):
    """Independent confusion-count implementation."""
    tp = sum(p and t for p, t in zip(preds, truths))
    fp = sum(p and not t for p, t in zip(preds, truths))
    fn = sum(not p and t for p, t in zip(preds, truths))
    tn = sum(not p and not t for p, t in zip(preds, truths))
    total = len(preds)
    acc = (tp + tn) / total
    f1 = (2 * tp / (2 * tp + fp + fn)) if (2 * tp + fp + fn) else 0.0
    return acc, f1, (tp, fp, tn, fn)


def test_majority_vote():
    assert majority_vote([True, True, False]) is True
    assert majority_vote([False, False, False, True]) is False
    assert majority_vote([True, False]) is True  # ties count as stress
    assert majority_vote([True]) is True
    assert majority_vote([False]) is False
    with pytest.raises(ValueError):
        majority_vote([])


def test_from_pairs_rejects_lists_of_different_lengths():
    with pytest.raises(ValueError, match="differ in length"):
        EvalReport.from_pairs([True, False], [True])


def test_report_identities():
    r = EvalReport(tp=3, fp=1, tn=4, fn=2)
    assert r.accuracy == pytest.approx(7 / 10)
    assert r.f1 == pytest.approx(6 / 9)
    assert EvalReport(0, 0, 5, 0).f1 == 0.0  # 0/0 defined as 0


def test_segment_level_basic():
    r = score_segment_level([True, False, True], [True, True, True])
    assert r.tp == 2 and r.fn == 1
    assert r.accuracy == pytest.approx(2 / 3)


def test_sequence_level_basic():
    r = score_sequence_level(
        {"rec": [True, True, False]}, {"rec": True}
    )
    assert r.accuracy == 1.0 and r.f1 == 1.0

    r = score_sequence_level(
        {"a": [True, True], "b": [True, False, False]},
        {"a": True, "b": True},
    )
    assert r.accuracy == 0.5


def test_sequence_level_mismatched_ids():
    with pytest.raises(ValueError):
        score_sequence_level({"a": [True]}, {"b": True})
    with pytest.raises(ValueError):
        score_sequence_level({"a": []}, {"a": True})


def test_sequence_level_matches_reference_on_random_fixture():
    rng = random.Random(17)
    groups, truth = {}, {}
    for i in range(50):
        rec = f"rec{i}"
        groups[rec] = [rng.random() < 0.5 for _ in range(rng.randint(1, 9))]
        truth[rec] = rng.random() < 0.5
    got = score_sequence_level(groups, truth)
    votes = [majority_vote(groups[r]) for r in sorted(groups)]
    truths = [truth[r] for r in sorted(groups)]
    acc, f1, counts = reference_scorer(votes, truths)
    assert got.accuracy == acc
    assert got.f1 == f1
    assert (got.tp, got.fp, got.tn, got.fn) == counts


def test_role_swap_transposes_fp_fn():
    rng = random.Random(3)
    preds = [rng.random() < 0.5 for _ in range(100)]
    truths = [rng.random() < 0.5 for _ in range(100)]
    a = score_segment_level(preds, truths)
    b = score_segment_level(truths, preds)
    assert (a.fp, a.fn) == (b.fn, b.fp)
    assert a.accuracy == b.accuracy


def test_permutation_invariance():
    rng = random.Random(5)
    preds = [rng.random() < 0.5 for _ in range(60)]
    truths = [rng.random() < 0.5 for _ in range(60)]
    order = list(range(60))
    rng.shuffle(order)
    a = score_segment_level(preds, truths)
    b = score_segment_level([preds[i] for i in order], [truths[i] for i in order])
    assert a == b


# --- labelling sweep ---

def random_sequences(rng, count=20, max_len=12):
    return [
        [rng.choice(ALPHABET) for _ in range(rng.randint(1, max_len))]
        for _ in range(count)
    ]


def test_sweep_self_agreement_is_perfect():
    rng = random.Random(7)
    seqs = random_sequences(rng)
    cfg = LabellingConfig(n=2, lam=0.8, tau=0.5)
    pairs = [(s, relabel_sequence(s, cfg)) for s in seqs]
    cells = labelling_sweep(pairs, n_values=[2], lambdas=[0.8], tau=0.5)
    assert cells[0].binary_agreement == 1.0
    assert cells[0].exact_agreement == 1.0


def test_sweep_n0_row_constant_across_lambda():
    rng = random.Random(9)
    seqs = random_sequences(rng)
    ref_cfg = LabellingConfig(n=3, lam=0.8, tau=0.5)
    pairs = [(s, relabel_sequence(s, ref_cfg)) for s in seqs]
    cells = labelling_sweep(pairs, n_values=[0], lambdas=[0.01, 0.1, 0.8, 1.0])
    assert len({c.binary_agreement for c in cells}) == 1
    assert len({c.exact_agreement for c in cells}) == 1


def test_sweep_lagged_fear_fixture():
    # stress follows fear episodes with a 2-window lag: longer history helps.
    # The pool needs an intermediate-distance emotion (anger, distance 1 from
    # the stress code); with only fear/happy the n=1 and n=2 labellers produce
    # identical output and the comparison degenerates to a tie.
    anger = encode_emotion(Emotion.ANGER)
    rng = random.Random(11)
    pairs = []
    for _ in range(40):
        length = rng.randint(8, 14)
        emotions = [rng.choice([FEAR, anger, HAPPY]) for _ in range(length)]
        reference = [
            FEAR if (t >= 2 and emotions[t - 2] == FEAR) else HAPPY
            for t in range(length)
        ]
        pairs.append((emotions, reference))
    cells = labelling_sweep(pairs, n_values=[0, 1, 2], lambdas=[0.8], tau=0.5)
    by_n = {c.n: c.binary_agreement for c in cells}
    assert by_n[0] < by_n[1] < by_n[2]


def test_sweep_empty_rejected():
    with pytest.raises(ValueError):
        labelling_sweep([], [0], [0.8])
    with pytest.raises(ValueError):
        labelling_sweep([([FEAR], [FEAR, FEAR])], [0], [0.8])
    with pytest.raises(ValueError, match="at least one window with a reference"):
        labelling_sweep([([FEAR], [None]), ([HAPPY, FEAR], [None, None])], [0], [0.5])


def test_sweep_csv_layout(tmp_path):
    rng = random.Random(13)
    seqs = random_sequences(rng, count=5)
    cfg = LabellingConfig(n=1, lam=0.8, tau=0.5)
    pairs = [(s, relabel_sequence(s, cfg)) for s in seqs]
    cells = labelling_sweep(pairs, n_values=[0, 1], lambdas=[0.1, 0.8])
    out = tmp_path / "grid.csv"
    write_sweep_csv(cells, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,lambda=0.1,lambda=0.8"
    assert len(lines) == 3


def test_sweep_csv_rejects_an_unknown_agreement(tmp_path):
    """`which` names binary or exact agreement; any other value, even a
    capitalised one, is an error and writes no file."""
    cells = labelling_sweep([([FEAR, HAPPY], [HAPPY, HAPPY])], [0], [0.8])
    out = tmp_path / "grid.csv"
    for which in ("Binary", "bogus"):
        with pytest.raises(ValueError, match=repr(which)):
            write_sweep_csv(cells, out, which)
        assert not out.exists()
