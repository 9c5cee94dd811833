import json
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from dynstress import cli, segmentation
from dynstress.autodiff import Tensor
from dynstress.cli import main
from dynstress.features import read_fseq, write_fseq
from dynstress.model import ModelConfig, init_params, save_checkpoint
from dynstress.segmentation import write_wav
from dynstress.training import TrainingDiverged

SR = 16000


def manifest_line(name, spans, split="train", stress_spans=None, extra=None):
    obj = {
        "audio_path": f"{name}.wav",
        "speaker_id": "spk",
        "utterance_id": name,
        "text_id": "t1",
        "spans": [
            {"start_s": a, "end_s": b, "label": lab} for a, b, lab in spans
        ],
        "split": split,
    }
    if stress_spans:
        obj["stress_spans"] = [
            {"start_s": a, "end_s": b, "label": lab} for a, b, lab in stress_spans
        ]
    if extra:
        obj.update(extra)
    return json.dumps(obj)


@pytest.fixture()
def data_dir(tmp_path):
    rng = np.random.default_rng(0)
    for name in ("a", "b"):
        write_wav(tmp_path / f"{name}.wav", 0.1 * rng.normal(size=30 * SR))
    lines = [
        manifest_line("a", [(0, 15, "fear"), (15, 30, "happiness")],
                      stress_spans=[(0, 15, "fear"), (15, 30, "happiness")]),
        manifest_line("b", [(0, 30, "anger")], split="test",
                      stress_spans=[(0, 30, "anger")]),
    ]
    (tmp_path / "manifest.jsonl").write_text("\n".join(lines) + "\n")
    return tmp_path


def run(args):
    return main([str(a) for a in args])


def test_unknown_flag_exits_usage(data_dir, capsys):
    with pytest.raises(SystemExit) as e:
        run(["label", "--manifest", data_dir / "manifest.jsonl", "--frobnicate"])
    assert e.value.code == 1


def test_missing_subcommand_exits_usage():
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 1


def test_missing_wav_exits_data(tmp_path, capsys):
    (tmp_path / "m.jsonl").write_text(
        manifest_line("ghost", [(0, 30, "fear")]) + "\n"
    )
    code = run(["label", "--manifest", tmp_path / "m.jsonl",
                "--out", tmp_path / "run"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_bad_manifest_exits_data(tmp_path):
    (tmp_path / "m.jsonl").write_text('{"speaker_id": "s"}\n')
    assert run(["segment", "--manifest", tmp_path / "m.jsonl",
                "--out", tmp_path / "run"]) == 2


def test_segment_writes_windows(data_dir):
    out = data_dir / "seg"
    assert run(["segment", "--manifest", data_dir / "manifest.jsonl",
                "--out", out]) == 0
    rows = [json.loads(l) for l in (out / "windows.jsonl").read_text().splitlines()]
    assert len(rows) == 10  # two 30 s clips, 5 windows each
    assert {r["label"] for r in rows} == {"0,1,0", "1,1,1", "0,1,1"}
    assert (out / "resolved_config.json").exists()


def test_label_happy_path_and_determinism(data_dir):
    out1, out2 = data_dir / "lab1", data_dir / "lab2"
    args = ["label", "--manifest", data_dir / "manifest.jsonl",
            "--n", "2", "--lambda", "0.8", "--tau", "0.5"]
    assert run(args + ["--out", out1]) == 0
    assert run(args + ["--out", out2]) == 0
    body1 = (out1 / "labels.jsonl").read_bytes()
    assert body1 == (out2 / "labels.jsonl").read_bytes()
    rows = [json.loads(l) for l in body1.decode().splitlines()]
    assert len(rows) == 10
    assert all(set(r) == {"clip_id", "window", "emotion", "stress_code",
                          "stress"} for r in rows)
    resolved = json.loads((out1 / "resolved_config.json").read_text())
    assert resolved["n"] == 2 and resolved["lam"] == 0.8


def test_config_file_merge(data_dir):
    cfg = data_dir / "run.cfg"
    cfg.write_text("n = 1  # short history\ntau = 0.75\n")
    out = data_dir / "cfglab"
    assert run(["label", "--manifest", data_dir / "manifest.jsonl",
                "--config", cfg, "--tau", "0.25", "--out", out]) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["n"] == 1       # filled from the file
    assert resolved["tau"] == 0.25  # explicit flag beats the file
    # an explicit flag wins even when it equals the flag's default
    assert run(["label", "--manifest", data_dir / "manifest.jsonl",
                "--config", cfg, "--tau", "0.5", "--out", out]) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["n"] == 1 and resolved["tau"] == 0.5
    # booleans: 1/true/yes and 0/false/no in any case
    for spelling, want in (("Yes", True), ("FALSE", False)):
        cfg.write_text(f"deltas = {spelling}\n")
        assert run(["extract", "--manifest", data_dir / "manifest.jsonl",
                    "--config", cfg, "--out", out]) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["deltas"] is want


def test_config_file_sets_only_optional_flags(data_dir):
    """File keys that name a required flag (here the repeatable --ckpt) or
    no flag at all are ignored."""
    write_checkpoints(data_dir)
    cfg = data_dir / "run.cfg"
    cfg.write_text("ckpt = absent.ckpt\nmanifest = absent.jsonl\n"
                   "func = x\nsubparser = y\nhelp = 1\n")
    out = data_dir / "cfgabl"
    assert run(["ablate", "--manifest", data_dir / "manifest.jsonl",
                "--config", cfg, "--ckpt", data_dir / "good.ckpt",
                "--n-values", "0..0", "--out", out]) == 0
    assert len((out / "ablation.csv").read_text().splitlines()) == 2


def write_checkpoints(d):
    """A valid checkpoint plus three CRC-valid ones with a bad header, one cut
    inside the model dimensions, one naming the architecture 'gru' and one
    with zero speech layers, and
    three whose tensors do not fit the header's model: one without `head.w`,
    one with `head.w` of the wrong shape, one with a NaN `head.b`."""
    cfg = ModelConfig("lstm", feature_dim=40, hidden=8, heads=2)
    params = init_params(cfg, np.random.default_rng(0))
    save_checkpoint(d / "good.ckpt", params, cfg)
    save_checkpoint(d / "no-head.ckpt",
                    {n: p for n, p in params.items() if n != "head.w"}, cfg)
    save_checkpoint(d / "bad-head.ckpt",
                    {**params, "head.w": Tensor(params["head.w"].data.reshape(3, 16))}, cfg)
    save_checkpoint(d / "nan-head.ckpt",
                    {**params, "head.b": Tensor(np.full(3, np.nan))}, cfg)
    body = (d / "good.ckpt").read_bytes()[:-4]
    # magic (4), version (4), arch length (1), arch, six model dimensions
    assert body[8:13] == b"\x04lstm"
    zero_layers = body[:21] + struct.pack("<I", 0) + body[25:]  # the third dimension
    for name, edited in (("cut", body[:23]), ("gru", body[:8] + b"\x03gru" + body[13:]),
                         ("zero-layers", zero_layers)):
        (d / f"{name}.ckpt").write_bytes(edited + struct.pack("<I", zlib.crc32(edited)))


INPUT_ERRORS = {
    "missing-config": ["label", "--config", "absent.cfg"],
    "non-numeric": ["label", "--config", "bad.cfg"],
    "no-spans": ["augment"],
    "negative-n": ["label", "--n", "-1"],
    "hidden-not-divisible-by-heads": ["train", "--hidden", "6"],
    "hidden-zero": ["train", "--hidden", "0"],
    "hidden-negative": ["train", "--hidden", "-4"],
    "teacher-forcing-p-above-1": ["train", "--teacher-forcing-p", "2"],
    "dropout-1": ["train", "--dropout", "1.0"],
    "bad-n-values": ["ablate", "--ckpt", "good.ckpt", "--n-values", "0..x"],
    "bad-lambda": ["sweep", "--lambda", "a"],
    "lambda-nan": ["label", "--lambda", "nan"],
    "sweep-lambda-inf": ["sweep", "--lambda", "0.1,inf"],
    "negative-learning-rate": ["train", "--lr", "-0.001"],
    "negative-seed": ["train", "--seed", "-1"],
    "negative-patience": ["train", "--patience", "-3"],
    "config-boolean-not-recognised": ["extract", "--config", "bad-bool.cfg"],
    "bad-sweep-n": ["sweep", "--n", "1..q"],
    "truncated-checkpoint-header": ["eval", "--ckpt", "cut.ckpt"],
    "unknown-checkpoint-arch": ["eval", "--ckpt", "gru.ckpt"],
    "checkpoint-zero-layers": ["eval", "--ckpt", "zero-layers.ckpt"],
    "checkpoint-missing-tensor": ["eval", "--ckpt", "no-head.ckpt"],
    "checkpoint-tensor-wrong-shape": ["ablate", "--ckpt", "bad-head.ckpt"],
    "checkpoint-tensor-nan": ["eval", "--ckpt", "nan-head.ckpt"],
    "eval-split-without-recordings": ["eval", "--ckpt", "good.ckpt",
                                      "--split", "nosuch"],
    "ablate-split-without-recordings": ["ablate", "--ckpt", "good.ckpt",
                                        "--split", "nosuch"],
    "empty-sweep-n": ["sweep", "--n", "5..0"],
    "empty-n-values": ["ablate", "--ckpt", "good.ckpt", "--n-values", "5..0"],
    "manifest-line-is-a-list": ["label"],
    "manifest-line-is-a-number": ["label"],
    "manifest-not-utf8": ["label"],
    "manifest-split-not-a-string": ["label"],
    "manifest-utterance-id-not-a-string": ["label"],
    "wav-empty": ["label"],
    "wav-cut-inside-header": ["label"],
    "wav-odd-data-bytes": ["label"],
    "wav-cut-inside-data": ["label"],
    "span-bound-is-a-string": ["label"],
    "span-bound-is-a-boolean": ["label"],
    "manifest-repeats-utterance-id": ["eval", "--ckpt", "good.ckpt"],
    "config-not-utf8": ["label", "--config", "latin1.cfg"],
    "augment-gap-negative": ["augment", "--gap-s", "-1"],
    "augment-gap-nan": ["augment", "--gap-s", "nan"],
    "augment-gap-inf": ["augment", "--gap-s", "inf"],
    "augment-gap-beyond-a-wav": ["augment", "--gap-s", "1e300"],
}

# Cases above that write or replace one fixture file: (file name, new bytes).
BROKEN_FILES = {
    "config-boolean-not-recognised": ("bad-bool.cfg", lambda d: b"deltas = on\n"),
    "config-not-utf8": ("latin1.cfg", lambda d: b"tau = 0.5  # caf\xe9\n"),
    "no-spans": ("manifest.jsonl", lambda d: "".join(
        manifest_line(name, []) + "\n" for name in ("a", "b")).encode()),
    "manifest-line-is-a-list": ("manifest.jsonl", lambda d: b"[1]\n"),
    "manifest-line-is-a-number": ("manifest.jsonl", lambda d: b"3\n"),
    "manifest-not-utf8": ("manifest.jsonl", lambda d: (
        d / "manifest.jsonl").read_bytes().replace(b'"t1"', b'"t\xff"')),
    "manifest-split-not-a-string": ("manifest.jsonl", lambda d: manifest_line(
        "a", [(0, 30, "fear")], extra={"split": 3}).encode()),
    "manifest-utterance-id-not-a-string": ("manifest.jsonl", lambda d: manifest_line(
        "a", [(0, 30, "fear")], extra={"utterance_id": [1]}).encode()),
    "wav-empty": ("a.wav", lambda d: b""),
    "wav-cut-inside-header": ("a.wav", lambda d: (d / "a.wav").read_bytes()[:30]),
    "wav-odd-data-bytes": ("a.wav", lambda d: (d / "a.wav").read_bytes()[:-1]),
    "wav-cut-inside-data": ("a.wav", lambda d: (d / "a.wav").read_bytes()[:-2000]),
    "span-bound-is-a-string": ("manifest.jsonl", lambda d: manifest_line(
        "a", [("0", 30, "fear")]).encode()),
    "span-bound-is-a-boolean": ("manifest.jsonl", lambda d: manifest_line(
        "a", [(0, 30, "fear")], stress_spans=[(True, 30, "fear")]).encode()),
    # b.wav's record takes its id from its file name, which a.wav's record uses
    "manifest-repeats-utterance-id": ("manifest.jsonl", lambda d: "\n".join([
        manifest_line("a", [(0, 30, "fear")], split="test", extra={"utterance_id": "b"}),
        json.dumps({"audio_path": "b.wav", "split": "test", "spans": [
            {"start_s": 0, "end_s": 30, "label": "anger"}]}),
    ]).encode()),
}


@pytest.mark.parametrize("case", INPUT_ERRORS)
def test_input_errors_exit_data_with_one_line(case, data_dir, capsys):
    manifest = data_dir / "manifest.jsonl"
    cmd, *flags = INPUT_ERRORS[case]
    (data_dir / "bad.cfg").write_text("n = four\n")
    write_checkpoints(data_dir)
    if case in BROKEN_FILES:
        name, body = BROKEN_FILES[case]
        (data_dir / name).write_bytes(body(data_dir))
    flags = [data_dir / f if f.endswith((".cfg", ".ckpt")) else f for f in flags]
    args = [cmd, "--manifest", manifest, "--out", data_dir / case, *flags]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_train_rejects_feature_files_of_different_widths(data_dir, capsys):
    """The embedding files of one split must share a width: a mismatch is a
    data error naming the recording and both widths, not a stacking error."""
    emb = data_dir / "emb"
    emb.mkdir()
    rng = np.random.default_rng(5)
    for name, width in (("a", 8), ("b", 9)):
        write_fseq(emb / f"{name}.fseq", rng.normal(size=(5, width)))
    (data_dir / "manifest.jsonl").write_text("".join(
        manifest_line(name, [(0, 30, "fear")]) + "\n" for name in ("a", "b")))
    code = run(["train", "--manifest", data_dir / "manifest.jsonl",
                "--out", data_dir / "run", "--features", f"file:{emb}",
                "--n", "2", "--epochs", "1", "--iterations", "1"])
    assert code == 2
    assert capsys.readouterr().err == "error: b#0: features are 9 wide, but a#0's are 8\n"


def test_extract_writes_fseq(data_dir):
    out = data_dir / "feats"
    assert run(["extract", "--manifest", data_dir / "manifest.jsonl",
                "--out", out]) == 0
    mat = read_fseq(out / "a.fseq")
    assert mat.shape == (5, 40)


def test_sweep_writes_grids(data_dir):
    out = data_dir / "sweep"
    assert run(["sweep", "--manifest", data_dir / "manifest.jsonl",
                "--n", "0..2", "--lambda", "0.1,0.8", "--out", out]) == 0
    lines = (out / "sweep_binary.csv").read_text().strip().splitlines()
    assert lines[0] == "n,lambda=0.1,lambda=0.8"
    assert len(lines) == 4
    assert (out / "sweep_exact.csv").exists()


def test_sweep_relabels_whole_runs(tmp_path):
    """A window without a reference still feeds the relabelling history of
    the windows after it; it is only left out of the agreement counts."""
    write_wav(tmp_path / "c.wav", np.zeros(40 * SR))
    (tmp_path / "m.jsonl").write_text(manifest_line(
        "c", [(0, 12, "anger"), (12, 18, "happiness"), (18, 40, "anger")],
        stress_spans=[(0, 12, "anger"), (18, 40, "anger")],
    ) + "\n")
    out = tmp_path / "sweep"
    assert run(["sweep", "--manifest", tmp_path / "m.jsonl", "--n", "1",
                "--lambda", "0.01", "--tau", "0.6", "--out", out]) == 0
    # all 7 windows relabel to S S happiness anger S S S; window 2 has no
    # reference, and of the other six only window 3 keeps anger
    for name in ("sweep_exact.csv", "sweep_binary.csv"):
        rows = (out / name).read_text().splitlines()
        assert rows == ["n,lambda=0.01", f"1,{1 / 6!r}"]


def test_sweep_without_references_exits_data(tmp_path):
    write_wav(tmp_path / "c.wav", np.zeros(10 * SR))
    (tmp_path / "m.jsonl").write_text(
        manifest_line("c", [(0, 10, "fear")]) + "\n"
    )
    assert run(["sweep", "--manifest", tmp_path / "m.jsonl",
                "--out", tmp_path / "run"]) == 2


def test_train_divergence_exits_3_with_one_line(data_dir, monkeypatch, capsys):
    def diverging(*args):
        raise TrainingDiverged("non-finite training loss: nan")
    monkeypatch.setattr(cli, "train", diverging)
    code = run(["train", "--manifest", data_dir / "manifest.jsonl",
                "--out", data_dir / "run", "--n", "2"])
    assert code == 3
    err = capsys.readouterr().err
    assert err == "error: non-finite training loss: nan\n"


def test_train_then_eval_roundtrip(data_dir):
    out = data_dir / "train"
    code = run([
        "train", "--manifest", data_dir / "manifest.jsonl", "--out", out,
        "--n", "2", "--hidden", "8", "--dropout", "0.0",
        "--epochs", "1", "--iterations", "5", "--batch-size", "4",
        "--seed", "1",
    ])
    assert code == 0
    assert (out / "best.ckpt").exists()
    assert (out / "metrics.csv").exists()

    ev = data_dir / "eval"
    code = run([
        "eval", "--manifest", data_dir / "manifest.jsonl", "--out", ev,
        "--ckpt", out / "best.ckpt", "--n", "2", "--split", "test",
    ])
    assert code == 0
    summary = json.loads((ev / "eval.json").read_text())
    assert summary["level"] == "segment"
    assert 0.0 <= summary["accuracy"] <= 1.0
    assert summary["tp"] + summary["fp"] + summary["tn"] + summary["fn"] == 5

    seq = data_dir / "eval-seq"
    code = run([
        "eval", "--manifest", data_dir / "manifest.jsonl", "--out", seq,
        "--ckpt", out / "best.ckpt", "--n", "2", "--split", "test",
        "--level", "sequence",
    ])
    assert code == 0
    assert json.loads((seq / "eval.json").read_text())["level"] == "sequence"

    abl = data_dir / "ablate"
    code = run([
        "ablate", "--manifest", data_dir / "manifest.jsonl", "--out", abl,
        "--ckpt", out / "best.ckpt", "--n-values", "0..2", "--split", "test",
    ])
    assert code == 0
    lines = (abl / "ablation.csv").read_text().strip().splitlines()
    assert len(lines) == 4  # header + one row per n value


def test_augment_command(tmp_path):
    rng = np.random.default_rng(4)
    for name in ("u1", "u2"):
        write_wav(tmp_path / f"{name}.wav", 0.1 * rng.normal(size=5 * SR))
    lines = [
        manifest_line("u1", [(0, 5, "happiness")]),
        manifest_line("u2", [(0, 5, "fear")]),
    ]
    (tmp_path / "m.jsonl").write_text("\n".join(lines) + "\n")
    out = tmp_path / "aug"
    assert run(["augment", "--manifest", tmp_path / "m.jsonl",
                "--out", out]) == 0
    rows = [json.loads(l) for l in (out / "augmented.jsonl").read_text().splitlines()]
    assert len(rows) == 1
    assert rows[0]["final_label"] == "0,1,0"
    assert (out / f"{rows[0]['utterance_id']}.wav").exists()


def test_run_dir_env_fallback(data_dir, monkeypatch, tmp_path):
    target = tmp_path / "envrun"
    monkeypatch.setenv("DYNSTRESS_RUN_DIR", str(target))
    assert run(["label", "--manifest", data_dir / "manifest.jsonl"]) == 0
    assert (target / "labels.jsonl").exists()


@pytest.fixture()
def decoded(monkeypatch):
    """File names of the WAVs decoded, in decode order."""
    names = []
    load_wav = segmentation.load_wav

    def counting(path, *args):
        names.append(Path(path).name)
        return load_wav(path, *args)
    monkeypatch.setattr(segmentation, "load_wav", counting)
    return names


@pytest.mark.parametrize("cmd", ["eval", "ablate"])
def test_eval_and_ablate_decode_only_their_split(cmd, data_dir, decoded):
    write_checkpoints(data_dir)
    assert run([cmd, "--manifest", data_dir / "manifest.jsonl",
                "--out", data_dir / cmd, "--ckpt", data_dir / "good.ckpt",
                "--split", "test"]) == 0
    assert decoded == ["b.wav"]


def write_split_manifest(d, splits, labelled=True):
    """One 15 s clip (two windows) per split, named after its split."""
    rng = np.random.default_rng(5)
    lines = []
    for split in splits:
        write_wav(d / f"{split}.wav", 0.1 * rng.normal(size=15 * SR))
        spans = [(0, 15, "fear")] if labelled or split == "train" else []
        lines.append(manifest_line(split, spans, split=split))
    (d / "m.jsonl").write_text("\n".join(lines) + "\n")
    return d / "m.jsonl"


TRAIN_FLAGS = ["--n", "1", "--hidden", "8", "--epochs", "1",
               "--iterations", "2", "--batch-size", "2"]


@pytest.mark.parametrize("splits, val_split", [
    (("train", "val", "test"), "val"),
    (("test", "train"), "test"),
    (("train",), "train"),
])
def test_train_decodes_train_and_validation_split_only(
    splits, val_split, tmp_path, decoded, capsys
):
    """Validation uses val, else test, else train; no other split is decoded,
    train is decoded once, and the printed line names the split."""
    manifest = write_split_manifest(tmp_path, splits)
    assert run(["train", "--manifest", manifest, "--out", tmp_path / "run",
                *TRAIN_FLAGS]) == 0
    assert sorted(decoded) == sorted({"train.wav", f"{val_split}.wav"})
    assert f"on {val_split!r} after" in capsys.readouterr().out


def test_train_val_split_without_labelled_windows_exits_data(tmp_path, capsys):
    manifest = write_split_manifest(tmp_path, ("train", "val", "test"),
                                    labelled=False)
    assert run(["train", "--manifest", manifest, "--out", tmp_path / "run",
                *TRAIN_FLAGS]) == 2
    assert capsys.readouterr().err == (
        "error: no recordings to validate on in split 'val'\n")


def test_eval_and_ablate_follow_the_checkpoint_mfcc_width(data_dir, decoded):
    """A `train --deltas` checkpoint (d = 80) is scored on deltas features;
    ablate decodes the split once per MFCC width among its checkpoints."""
    manifest = data_dir / "manifest.jsonl"
    for name, extra in (("plain", []), ("deltas", ["--deltas"])):
        assert run(["train", "--manifest", manifest, "--out", data_dir / name,
                    "--n", "2", "--hidden", "8", "--epochs", "1",
                    "--iterations", "2", "--batch-size", "2", *extra]) == 0
    plain, deltas = (data_dir / name / "best.ckpt" for name in ("plain", "deltas"))
    decoded.clear()
    assert run(["eval", "--manifest", manifest, "--out", data_dir / "ev",
                "--ckpt", deltas, "--n", "2"]) == 0
    assert decoded == ["b.wav"]
    decoded.clear()
    assert run(["ablate", "--manifest", manifest, "--out", data_dir / "abl",
                "--ckpt", deltas, "--ckpt", plain, "--ckpt", deltas,
                "--n-values", "0..1"]) == 0
    assert decoded == ["b.wav", "b.wav"]
    assert len((data_dir / "abl" / "ablation.csv").read_text().splitlines()) == 7


def test_sequence_level_votes_once_per_recording(tmp_path):
    """An unlabelled gap splits a recording into two labelled runs; the
    sequence level still scores it as one recording."""
    write_wav(tmp_path / "c.wav", 0.1 * np.random.default_rng(6).normal(size=60 * SR))
    (tmp_path / "m.jsonl").write_text(manifest_line(
        "c", [(0, 25, "anger"), (35, 60, "anger")], split="test",
        extra={"stress_label": True}) + "\n")
    cfg = ModelConfig("lstm", feature_dim=40, hidden=8, heads=2)
    params = init_params(cfg, np.random.default_rng(0))
    for p in params.values():
        p.data[:] = 0.0  # every probability is 0.5: never stress
    save_checkpoint(tmp_path / "zero.ckpt", params, cfg)
    out = tmp_path / "seq"
    assert run(["eval", "--manifest", tmp_path / "m.jsonl", "--out", out,
                "--ckpt", tmp_path / "zero.ckpt", "--level", "sequence"]) == 0
    summary = json.loads((out / "eval.json").read_text())
    assert {k: summary[k] for k in ("tp", "fp", "tn", "fn")} == {
        "tp": 0, "fp": 0, "tn": 0, "fn": 1}
