import dataclasses
import errno
import io
import json
import shlex
import struct
import zipfile
from pathlib import Path

import numpy as np
import pytest

from dynstress import cli, segmentation, training
from dynstress.cli import main
from dynstress.features import read_fseq, write_fseq
from dynstress.labelling import LabellingConfig
from dynstress.model import ModelConfig, init_params, save_checkpoint
from dynstress.segmentation import write_wav
from dynstress.training import TrainConfig

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
    # window k of each clip spans [5k, 5k + 10) s
    assert [(r["clip_id"], r["index"], r["start_s"], r["end_s"]) for r in rows] == [
        (clip, k, 5.0 * k, 5.0 * k + 10) for clip in ("a", "b") for k in range(5)]
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


def test_config_file_names_a_flag_by_its_long_option(data_dir):
    """`lambda` names --lambda, whose dest is `lam`; `teacher-forcing-p`
    and `teacher_forcing_p` both name --teacher-forcing-p."""
    cfg = data_dir / "run.cfg"
    cfg.write_text("n = 1\ntau = 0.75\nlambda = 0.5\n")
    out = data_dir / "cfglab"
    assert run(["label", "--manifest", data_dir / "manifest.jsonl",
                "--config", cfg, "--out", out]) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert (resolved["n"], resolved["lam"], resolved["tau"]) == (1, 0.5, 0.75)
    parser = cli.build_parser()
    for spelling in ("teacher-forcing-p", "teacher_forcing_p"):
        cfg.write_text(f"{spelling} = 0.25\nbatch-size = 4\n")
        argv = ["train", "--manifest", "m", "--config", str(cfg)]
        args = cli._merge_config(parser, parser.parse_args(argv), argv)
        assert (args.teacher_forcing_p, args.batch_size) == (0.25, 4)


def test_config_file_key_naming_no_option_exits_data(data_dir, capsys):
    """A misspelt key is an error, not a silently ignored line; a key that
    names another subcommand's flag (`arch`, of train) is not."""
    cfg = data_dir / "run.cfg"
    out = data_dir / "cfglab"
    argv = ["label", "--manifest", data_dir / "manifest.jsonl", "--config", cfg,
            "--out", out]
    cfg.write_text("n = 1\nlamda = 0.5\n")
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "lamda" in err
    assert not (out / "resolved_config.json").exists()
    cfg.write_text("n = 1\narch = transformer\n")
    assert run(argv) == 0


def write_checkpoint(path, header, vector):
    """A checkpoint zip of a `header.json` member (JSON text, or any object
    to encode) and a `params.npy` member holding ``vector``."""
    with zipfile.ZipFile(path, "w") as z:
        z.writestr("header.json", header if isinstance(header, str) else json.dumps(header))
        with z.open("params.npy", "w") as f:
            np.lib.format.write_array(f, vector)


def write_checkpoints(d):
    """A valid checkpoint; one whose header text is cut inside the model
    config, one of the retired header version 2, one naming the architecture
    'gru', a transformer header with zero speech layers, an LSTM header with
    the transformer's `ffn` and a retired SPCK (version 1) file; and three
    whose tensors do not fit the header's model: a vector cut short before
    `head.w`, a tensor list giving `head.w` another shape, a NaN in `head.b`.
    Each member's CRC is valid."""
    cfg = ModelConfig("lstm", feature_dim=40, hidden=8)
    save_checkpoint(d / "good.ckpt", init_params(cfg, np.random.default_rng(0)), cfg)
    with zipfile.ZipFile(d / "good.ckpt") as z:
        header = json.loads(z.read("header.json"))
    with np.load(d / "good.ckpt") as npz:
        vector = npz["params"]
    assert [name for name, _ in header["tensors"][-2:]] == ["head.w", "head.b"]

    def edited(**model):
        return {**header, "model": {**header["model"], **model}}

    for name, head, vec in (
        ("cut", json.dumps(header)[:40], vector),
        ("version-2", {**header, "version": 2}, vector),
        ("gru", edited(arch="gru"), vector),
        ("zero-layers", edited(arch="transformer", layers=0, heads=2, ffn=16), vector),
        ("lstm-with-ffn", edited(ffn=16), vector),
        ("no-head", header, vector[: -16 * 3 - 3]),
        ("bad-head", {**header, "tensors": header["tensors"][:-2] + [["head.w", [3, 16]],
                                                                    ["head.b", [3]]]}, vector),
        ("nan-head", header, np.concatenate([vector[:-1], [np.nan]]).astype("<f4")),
    ):
        write_checkpoint(d / f"{name}.ckpt", head, vec)
    (d / "spck.ckpt").write_bytes(b"SPCK" + struct.pack("<IB", 1, 4) + b"lstm" + bytes(28))


INPUT_ERRORS = {
    "missing-config": ["label", "--config", "absent.cfg"],
    "non-numeric": ["label", "--config", "bad.cfg"],
    "no-spans": ["augment"],
    "negative-n": ["label", "--n", "-1"],
    "hidden-not-divisible-by-heads": ["train", "--arch", "transformer", "--hidden", "6"],
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
    "config-sets-deltas": ["extract", "--config", "deltas.cfg"],
    "bad-sweep-n": ["sweep", "--n", "1..q"],
    "truncated-checkpoint-header": ["eval", "--ckpt", "cut.ckpt"],
    "unknown-checkpoint-arch": ["eval", "--ckpt", "gru.ckpt"],
    "checkpoint-zero-layers": ["eval", "--ckpt", "zero-layers.ckpt"],
    "checkpoint-lstm-with-ffn": ["eval", "--ckpt", "lstm-with-ffn.ckpt"],
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
    # feature files need only a clip's window count, but its WAV is checked as fully
    "wav-cut-inside-data-under-file-features": ["train", "--features", "file:emb"],
    "span-bound-is-a-string": ["label"],
    "span-bound-is-a-boolean": ["label"],
    "manifest-repeats-utterance-id": ["eval", "--ckpt", "good.ckpt"],
    "config-not-utf8": ["label", "--config", "latin1.cfg"],
    "augment-gap-negative": ["augment", "--manifest", "same-split.jsonl", "--gap-s", "-1"],
    "augment-gap-nan": ["augment", "--manifest", "same-split.jsonl", "--gap-s", "nan"],
    "augment-gap-inf": ["augment", "--manifest", "same-split.jsonl", "--gap-s", "inf"],
    "augment-gap-beyond-a-wav": ["augment", "--manifest", "same-split.jsonl",
                                 "--gap-s", "1e300"],
    "utterance-id-not-a-file-name": ["extract"],
    "config-value-not-a-choice": ["eval", "--ckpt", "good.ckpt",
                                  "--config", "bogus-level.cfg"],
    "wav-not-pcm": ["label"],
    "train-n-beyond-the-windows": ["train", "--n", "5"],
    "manifest-missing": ["label", "--manifest", "absent.jsonl"],
    "manifest-spans-an-object": ["label"],
    "manifest-span-not-an-object": ["label"],
    "unknown-feature-spec": ["extract", "--features", "bogus"],
    "fseq-cut-inside-header": ["extract", "--features", "file:emb"],
    "fseq-retired-format": ["extract", "--features", "file:emb"],
    "fseq-float64": ["extract", "--features", "file:emb"],
    "fseq-fortran-order": ["extract", "--features", "file:emb"],
    "checkpoint-version-2": ["eval", "--ckpt", "spck.ckpt"],
    "checkpoint-unknown-version": ["eval", "--ckpt", "version-2.ckpt"],
    "augment-record-with-two-spans": ["augment"],
    "config-names-a-config-file": ["label", "--config", "nested.cfg"],
    "manifest-is-a-directory": ["label"],
    "config-is-a-directory": ["label", "--config", "dir.cfg"],
    "wav-is-a-directory": ["label"],
    "fseq-is-a-directory": ["extract", "--features", "file:emb"],
    "fseq-missing": ["extract", "--features", "file:absent"],
    "checkpoint-is-a-directory": ["eval", "--ckpt", "dir.ckpt"],
    "checkpoint-missing": ["eval", "--ckpt", "absent.ckpt"],
    "out-is-a-file": ["label"],
    "wav-sample-rate-8000": ["label"],
    "wav-sample-rate-8000-under-file-features": ["train", "--features", "file:emb"],
    "utterance-id-holds-a-nul": ["extract"],
    "config-out-holds-a-nul": ["label", "--config", "nul-out.cfg"],
    # every output the CLI writes, with a directory in its place
    "resolved-config-is-a-directory": ["label"],
    "windows-is-a-directory": ["segment"],
    "augmented-manifest-is-a-directory": ["augment"],
    "joined-wav-is-a-directory": ["augment", "--manifest", "same-split.jsonl"],
    "labels-is-a-directory": ["label"],
    "extracted-fseq-is-a-directory": ["extract"],
    "metrics-is-a-directory": ["train", "--hidden", "8", "--epochs", "1",
                               "--iterations", "1"],
    "best-checkpoint-is-a-directory": ["train", "--hidden", "8", "--epochs", "1",
                                       "--iterations", "1"],
    "eval-json-is-a-directory": ["eval", "--ckpt", "good.ckpt"],
    "sweep-binary-is-a-directory": ["sweep"],
    "sweep-exact-is-a-directory": ["sweep"],
    "ablation-is-a-directory": ["ablate", "--ckpt", "good.ckpt", "--n-values", "0..0"],
    "extracted-fseq-name-too-long": ["extract"],
}


def npy_bytes(array) -> bytes:
    """``np.save`` of ``array``, as a user's exporter writes a feature file."""
    f = io.BytesIO()
    np.save(f, array)
    return f.getvalue()


# augment joins clips of one split only, the fixture's a and b differ in split,
# and a joined clip takes one emotion per record: a and b of one span in one split
SAME_SPLIT = "".join(manifest_line(name, [(0, 30, emotion)]) + "\n"
                     for name, emotion in (("a", "fear"), ("b", "anger")))

# A BROKEN_FILES body: a directory takes the file's place.
DIRECTORY = None

LONG_ID = "u" * 300  # longer than a file name may be

# Cases above that write or replace one fixture file: (file name, new bytes).
BROKEN_FILES = {
    "manifest-is-a-directory": ("manifest.jsonl", DIRECTORY),
    "config-is-a-directory": ("dir.cfg", DIRECTORY),
    "wav-is-a-directory": ("a.wav", DIRECTORY),
    "fseq-is-a-directory": ("emb/a.fseq", DIRECTORY),
    "checkpoint-is-a-directory": ("dir.ckpt", DIRECTORY),
    # outputs, in the case's run directory
    **{case: (f"{case}/{name}", DIRECTORY) for case, name in (
        ("resolved-config-is-a-directory", "resolved_config.json"),
        ("windows-is-a-directory", "windows.jsonl"),
        ("augmented-manifest-is-a-directory", "augmented.jsonl"),
        ("joined-wav-is-a-directory", "a+b.wav"),
        ("labels-is-a-directory", "labels.jsonl"),
        ("extracted-fseq-is-a-directory", "a.fseq"),
        ("metrics-is-a-directory", "metrics.csv"),
        ("best-checkpoint-is-a-directory", "best.ckpt"),
        ("eval-json-is-a-directory", "eval.json"),
        ("sweep-binary-is-a-directory", "sweep_binary.csv"),
        ("sweep-exact-is-a-directory", "sweep_exact.csv"),
        ("ablation-is-a-directory", "ablation.csv"))},
    "out-is-a-file": ("out-is-a-file", lambda d: b""),  # the case's run directory
    "extracted-fseq-name-too-long": ("manifest.jsonl", lambda d: manifest_line(
        "a", [(0, 30, "fear")], extra={"utterance_id": LONG_ID}).encode()),
    "utterance-id-holds-a-nul": ("manifest.jsonl", lambda d: manifest_line(
        "a", [(0, 30, "fear")], extra={"utterance_id": "a\0b"}).encode()),
    "config-out-holds-a-nul": ("nul-out.cfg", lambda d: b"out = a\0b\n"),
    # the fmt chunk's sample rate and byte rate
    "wav-sample-rate-8000": ("a.wav", lambda d: (d / "a.wav").read_bytes().replace(
        struct.pack("<II", SR, 2 * SR), struct.pack("<II", 8000, 16000), 1)),
    "wav-sample-rate-8000-under-file-features": ("a.wav", lambda d: (
        d / "a.wav").read_bytes().replace(
        struct.pack("<II", SR, 2 * SR), struct.pack("<II", 8000, 16000), 1)),
    # `deltas = true` became `features = mfcc+deltas`
    "config-sets-deltas": ("deltas.cfg", lambda d: b"deltas = yes\n"),
    "config-value-not-a-choice": ("bogus-level.cfg", lambda d: b"level = bogus\n"),
    "config-names-a-config-file": ("nested.cfg", lambda d: b"config = other.cfg\n"),
    "augment-record-with-two-spans": ("manifest.jsonl", lambda d: (
        d / "manifest.jsonl").read_bytes().replace(b'"split": "test"', b'"split": "train"')),
    "utterance-id-not-a-file-name": ("manifest.jsonl", lambda d: manifest_line(
        "a", [(0, 30, "fear")], extra={"utterance_id": "sub/r0"}).encode()),
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
    "wav-cut-inside-data-under-file-features": (
        "a.wav", lambda d: (d / "a.wav").read_bytes()[:-2000]),
    "span-bound-is-a-string": ("manifest.jsonl", lambda d: manifest_line(
        "a", [("0", 30, "fear")]).encode()),
    "span-bound-is-a-boolean": ("manifest.jsonl", lambda d: manifest_line(
        "a", [(0, 30, "fear")], stress_spans=[(True, 30, "fear")]).encode()),
    # format tag 3, IEEE float, in place of 1, PCM
    "wav-not-pcm": ("a.wav", lambda d: (d / "a.wav").read_bytes().replace(
        b"fmt \x10\0\0\0\x01\0", b"fmt \x10\0\0\0\x03\0", 1)),
    "manifest-spans-an-object": ("manifest.jsonl", lambda d: manifest_line(
        "a", [], extra={"spans": {"start_s": 0, "end_s": 30, "label": "fear"}}).encode()),
    "manifest-span-not-an-object": ("manifest.jsonl", lambda d: manifest_line(
        "a", [], extra={"spans": [3]}).encode()),
    "fseq-cut-inside-header": ("emb/a.fseq", lambda d: (d / "emb/a.fseq").read_bytes()[:40]),
    # the hand-rolled layout that `.npy` feature files replaced: magic, version, rows, cols
    "fseq-retired-format": ("emb/a.fseq", lambda d: b"FSEQ" + struct.pack("<III", 1, 5, 8)
                            + bytes(160)),
    "fseq-float64": ("emb/a.fseq", lambda d: npy_bytes(np.zeros((5, 8)))),
    "fseq-fortran-order": ("emb/a.fseq", lambda d: npy_bytes(np.zeros((8, 5), "<f4").T)),
    # b.wav's record takes its id from its file name, which a.wav's record uses
    "manifest-repeats-utterance-id": ("manifest.jsonl", lambda d: "\n".join([
        manifest_line("a", [(0, 30, "fear")], split="test", extra={"utterance_id": "b"}),
        json.dumps({"audio_path": "b.wav", "split": "test", "spans": [
            {"start_s": 0, "end_s": 30, "label": "anger"}]}),
    ]).encode()),
}

# Cases above whose error line must name the input or output at fault.
NAMED_IN_ERROR = {
    **{f"augment-gap-{kind}": "gap_s" for kind in ("negative", "nan", "inf", "beyond-a-wav")},
    "augment-record-with-two-spans": "a: augment needs one labelled span per record, got 2",
    "config-names-a-config-file": "nested.cfg: config ",
    "config-sets-deltas": "deltas.cfg: deltas names no option",
    **{case: f"{BROKEN_FILES[case][0]}: Is a directory" for case in BROKEN_FILES
       if BROKEN_FILES[case][1] is DIRECTORY},
    "missing-config": "absent.cfg: No such file",
    "manifest-missing": "absent.jsonl: No such file",
    "fseq-missing": "absent/a.fseq: No such file",
    "fseq-cut-inside-header": "emb/a.fseq: not a float32 .npy array "
                              "(EOF: reading array header",
    "fseq-retired-format": "emb/a.fseq: not a float32 .npy array (the magic string is not correct; "
                           "expected b'\\x93NUMPY', got b'FSEQ\\x01\\x00')",
    "fseq-float64": "emb/a.fseq: not a float32 .npy array (float64 (5, 8) in 320 bytes; "
                    "C-order <f4 takes 160)",
    "fseq-fortran-order": "emb/a.fseq: not a float32 .npy array (Fortran-order float32 (5, 8) "
                          "in 160 bytes; C-order <f4 takes 160)",
    "checkpoint-missing": "absent.ckpt: No such file",
    "truncated-checkpoint-header": "cut.ckpt: malformed checkpoint (Expecting",
    "unknown-checkpoint-arch": "gru.ckpt: malformed checkpoint (unknown architecture 'gru')",
    "checkpoint-zero-layers": "malformed checkpoint (layers must be positive, got 0)",
    "checkpoint-lstm-with-ffn": "lstm-with-ffn.ckpt: malformed checkpoint (lstm model fields "
                                "are arch, feature_dim, hidden, dropout, got {",
    "checkpoint-missing-tensor": "no-head.ckpt: malformed checkpoint (params.npy holds float32",
    "checkpoint-tensor-wrong-shape": "header lists tensor ['head.w', [3, 16]]",
    "checkpoint-tensor-nan": "nan-head.ckpt: tensor head.b holds NaN or inf",
    "checkpoint-version-2": "spck.ckpt: SPCK (version 1) checkpoints are retired",
    "checkpoint-unknown-version": "malformed checkpoint (unsupported checkpoint version 2)",
    "out-is-a-file": "out-is-a-file: File exists",
    "wav-sample-rate-8000": "sample rate",
    "wav-sample-rate-8000-under-file-features": "a.wav: sample rate must be 16000 Hz, got 8000",
    "wav-cut-inside-data-under-file-features": "a.wav: data chunk holds 958000 bytes, "
                                               "header says 960000",
    "extracted-fseq-name-too-long": f"{LONG_ID}.fseq: File name too long",
    "utterance-id-holds-a-nul": "utterance_id 'a\\x00b' is not a plain file name",
    "config-out-holds-a-nul": "run directory 'a\\x00b' holds a NUL byte",
}


@pytest.mark.parametrize("case", INPUT_ERRORS)
def test_input_errors_exit_data_with_one_line(case, data_dir, monkeypatch, capsys):
    manifest = data_dir / "manifest.jsonl"
    cmd, *flags = INPUT_ERRORS[case]
    # the run directory, named here and not by --out so that a config file's
    # `out` can take its place
    monkeypatch.setenv("DYNSTRESS_RUN_DIR", str(data_dir / case))
    (data_dir / "bad.cfg").write_text("n = four\n")
    (data_dir / "same-split.jsonl").write_text(SAME_SPLIT)
    write_checkpoints(data_dir)
    (data_dir / "emb").mkdir()
    for name in ("a", "b"):  # five windows in each 30 s clip
        write_fseq(data_dir / "emb" / f"{name}.fseq", np.zeros((5, 8)))
    if case in BROKEN_FILES:
        name, body = BROKEN_FILES[case]
        if body is DIRECTORY:
            (data_dir / name).unlink(missing_ok=True)
            (data_dir / name).mkdir(parents=True)
        else:
            (data_dir / name).write_bytes(body(data_dir))
    flags = [data_dir / f if f.endswith((".cfg", ".ckpt", ".jsonl"))
             else f"file:{data_dir / f[5:]}" if f.startswith("file:") else f for f in flags]
    args = [cmd, "--manifest", manifest, *flags]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert NAMED_IN_ERROR.get(case, "") in err, err


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


def test_train_checks_the_validation_width_before_training(data_dir, capsys):
    """Validation features as wide as the training split's, checked by the
    same rule before the first step: no epoch runs and no metrics.csv is
    written."""
    emb = data_dir / "emb"
    emb.mkdir()
    rng = np.random.default_rng(5)
    for name, width in (("a", 8), ("b", 16)):  # a is in train, b in test
        write_fseq(emb / f"{name}.fseq", rng.normal(size=(5, width)))
    out = data_dir / "run"
    code = run(["train", "--manifest", data_dir / "manifest.jsonl", "--out", out,
                "--features", f"file:{emb}", "--n", "1", "--epochs", "1",
                "--iterations", "50"])
    assert code == 2
    assert capsys.readouterr().err == "error: b#0: features are 16 wide, but a#0's are 8\n"
    assert not (out / "metrics.csv").exists()


def test_a_write_error_naming_no_file_exits_data(data_dir, monkeypatch, capsys):
    """An output error without a file name, such as a full disk, names no
    path, not None."""
    def full_disk(path, mat):
        raise OSError(errno.ENOSPC, "No space left on device")
    monkeypatch.setattr(cli, "write_fseq", full_disk)
    assert run(["extract", "--manifest", data_dir / "manifest.jsonl",
                "--out", data_dir / "run"]) == 2
    assert capsys.readouterr().err == "error: cannot write output: No space left on device\n"


def test_a_corrupt_checkpoint_is_not_a_write_error(data_dir, capsys):
    """Read from disk, a zip whose central directory offset is too large
    makes zipfile raise OSError (EINVAL, a seek before the file's start),
    and the CLI reports an OSError that reaches it as an output it cannot
    write; such a checkpoint is a malformed input."""
    write_checkpoints(data_dir)
    blob = bytearray((data_dir / "good.ckpt").read_bytes())
    end = blob.rindex(b"PK\x05\x06")  # the end-of-central-directory record
    blob[end + 16 : end + 20] = struct.pack("<I", 2**31)
    (data_dir / "bad.ckpt").write_bytes(bytes(blob))
    with pytest.raises(OSError), zipfile.ZipFile(data_dir / "bad.ckpt") as z:
        z.read("header.json")
    assert run(["eval", "--manifest", data_dir / "manifest.jsonl", "--ckpt",
                data_dir / "bad.ckpt", "--out", data_dir / "run"]) == 2
    err = capsys.readouterr().err
    assert "bad.ckpt: malformed checkpoint" in err and "cannot write" not in err, err
    assert err.count("\n") == 1


def test_extract_writes_fseq(data_dir):
    out = data_dir / "feats"
    assert run(["extract", "--manifest", data_dir / "manifest.jsonl",
                "--out", out]) == 0
    mat = read_fseq(out / "a.fseq")
    assert mat.shape == (5, 40)


def test_extract_mfcc_with_deltas_writes_80_wide_fseq(data_dir):
    """`--features mfcc+deltas` appends the pooled deltas to the 40 MFCCs."""
    for spec in ("mfcc", "mfcc+deltas"):
        assert run(["extract", "--manifest", data_dir / "manifest.jsonl",
                    "--out", data_dir / spec, "--features", spec]) == 0
    plain, wide = (read_fseq(data_dir / spec / "a.fseq") for spec in ("mfcc", "mfcc+deltas"))
    assert wide.shape == (5, 80)
    assert np.array_equal(wide[:, :40], plain)


@pytest.mark.parametrize("cmd", ["extract", "train"])
def test_deltas_flag_is_a_usage_error(cmd, data_dir, capsys):
    """`--deltas` became `--features mfcc+deltas`; the old flag exits 1."""
    with pytest.raises(SystemExit) as e:
        run([cmd, "--manifest", data_dir / "manifest.jsonl", "--out", data_dir / "run",
             "--deltas"])
    assert e.value.code == 1
    assert "--deltas" in capsys.readouterr().err
    assert not (data_dir / "run").exists()


def test_features_help_names_its_three_values():
    """The commands that read features say which values --features takes,
    and no command offers --deltas."""
    commands = cli.build_parser()._get_positional_actions()[0].choices
    for cmd, parser in commands.items():
        text = " ".join(parser.format_help().split())
        assert "--deltas" not in text
        if cmd in ("extract", "train", "eval", "ablate"):
            assert all(v in text for v in ("mfcc ", "mfcc+deltas", "file:<dir>")), cmd


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
    """A NaN validation loss at epoch 1 of 3 exits 3 with one line, and
    leaves metrics.csv with the rows of epochs 0 and 1, and epoch 0's
    best.ckpt."""
    losses = iter([0.7, float("nan")])
    evaluate_loss = training.evaluate_loss
    monkeypatch.setattr(training, "evaluate_loss", lambda *args: (
        next(losses), evaluate_loss(*args)[1]))
    out = data_dir / "run"
    code = run(["train", "--manifest", data_dir / "manifest.jsonl", "--out", out,
                "--n", "2", "--hidden", "8", "--epochs", "3", "--iterations", "2",
                "--batch-size", "2"])
    assert code == 3
    assert capsys.readouterr().err == "error: non-finite validation loss: nan\n"
    rows = (out / "metrics.csv").read_text().splitlines()
    assert [row.split(",")[::3] for row in rows] == [
        ["epoch", "val_loss", "lr"], ["0", "0.7", "0.001"], ["1", "nan", "0.001"]]
    assert sorted(f.name for f in out.iterdir()) == [
        "best.ckpt", "metrics.csv", "resolved_config.json"]


def test_train_removes_an_earlier_runs_checkpoint(data_dir, monkeypatch, capsys):
    """A run that diverges before any epoch improves leaves no best.ckpt, not
    the one an earlier run left in the same directory."""
    evaluate_loss = training.evaluate_loss
    monkeypatch.setattr(training, "evaluate_loss", lambda *args: (
        float("nan"), evaluate_loss(*args)[1]))
    out = data_dir / "run"
    out.mkdir()
    (out / "best.ckpt").write_bytes(b"an earlier run's checkpoint")
    code = run(["train", "--manifest", data_dir / "manifest.jsonl", "--out", out,
                "--n", "2", "--hidden", "8", "--epochs", "3", "--iterations", "1",
                "--batch-size", "2"])
    assert code == 3
    assert capsys.readouterr().err == "error: non-finite validation loss: nan\n"
    assert sorted(f.name for f in out.iterdir()) == ["metrics.csv", "resolved_config.json"]


@pytest.mark.parametrize("arch, epochs", [("lstm", 20), ("transformer", 50)])
def test_resolved_config_records_the_epoch_budget(arch, epochs, data_dir):
    """`--epochs 0` (the default) is resolved to the architecture's budget
    before resolved_config.json is written, even by a run that then fails."""
    out = data_dir / "run"
    assert run(["train", "--manifest", data_dir / "manifest.jsonl", "--out", out,
                "--arch", arch, "--n", "5"]) == 2
    assert json.loads((out / "resolved_config.json").read_text())["epochs"] == epochs


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


def test_augment_keeps_splits_apart(tmp_path):
    """Clips of one speaker and sentence are joined within their split only,
    so no test audio reaches a training record."""
    rng = np.random.default_rng(4)
    splits = {"u1": "train", "u2": "test", "u3": "train", "u4": "test"}
    for name in splits:
        write_wav(tmp_path / f"{name}.wav", 0.1 * rng.normal(size=5 * SR))
    (tmp_path / "m.jsonl").write_text("".join(
        manifest_line(name, [(0, 5, "fear")], split=split) + "\n"
        for name, split in splits.items()))
    out = tmp_path / "aug"
    assert run(["augment", "--manifest", tmp_path / "m.jsonl", "--out", out]) == 0
    rows = [json.loads(l) for l in (out / "augmented.jsonl").read_text().splitlines()]
    assert [(r["utterance_id"], r["split"]) for r in rows] == [
        ("u1+u3", "train"), ("u2+u4", "test")]


def test_augment_with_a_joined_id_too_long_for_a_file_name_exits_data(tmp_path, capsys):
    """30 clips with 13-character ids join into a 419-character id, longer
    than a file name may be."""
    names = [f"utterance-{k:03d}" for k in range(30)]
    for name in names:
        write_wav(tmp_path / f"{name}.wav", np.zeros(SR // 10))
    (tmp_path / "m.jsonl").write_text("".join(
        manifest_line(name, [(0, 0.1, "fear")]) + "\n" for name in names))
    assert run(["augment", "--manifest", tmp_path / "m.jsonl",
                "--out", tmp_path / "aug"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"{'+'.join(names)}.wav: File name too long" in err


@pytest.mark.parametrize("empty", ["u1", "u2"])
def test_augment_of_a_wav_without_samples_names_its_record(empty, tmp_path, capsys):
    """A record whose WAV holds no samples would join as a zero-length span:
    the one error line names that record and its file."""
    for name in ("u1", "u2"):
        write_wav(tmp_path / f"{name}.wav", np.zeros(0 if name == empty else SR))
    (tmp_path / "m.jsonl").write_text("".join(
        manifest_line(name, [(0, 1, "fear")]) + "\n" for name in ("u1", "u2")))
    assert run(["augment", "--manifest", tmp_path / "m.jsonl",
                "--out", tmp_path / "aug"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {empty}: {empty}.wav holds no samples to join\n"


@pytest.mark.parametrize("first_wav", ["absent", "present"])
def test_extract_rejects_an_unknown_feature_spec_before_reading_a_wav(
        first_wav, data_dir, monkeypatch, capsys):
    """A misspelt ``--features`` is named whether or not the first clip's WAV
    exists, and no WAV is read to find it out."""
    if first_wav == "absent":
        (data_dir / "a.wav").unlink()
    read = []
    read_pcm = segmentation._read_pcm
    monkeypatch.setattr(segmentation, "_read_pcm",
                        lambda path: read.append(path) or read_pcm(path))
    assert run(["extract", "--manifest", data_dir / "manifest.jsonl",
                "--out", data_dir / "run", "--features", "mfc"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown feature spec 'mfc'") and err.count("\n") == 1, err
    assert read == []


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


@pytest.mark.parametrize("flag, value, kind", [("--n", "1..q", "int"),
                                              ("--lambda", "a", "float")])
def test_sweep_parses_its_grid_before_decoding(flag, value, kind, data_dir, decoded,
                                               capsys):
    assert run(["sweep", "--manifest", data_dir / "manifest.jsonl",
                "--out", data_dir / "sweep", flag, value]) == 2
    assert capsys.readouterr().err == f"error: bad {kind} list {value!r}\n"
    assert decoded == []


@pytest.mark.parametrize("cmd", ["eval", "ablate"])
def test_eval_and_ablate_decode_only_their_split(cmd, data_dir, decoded):
    write_checkpoints(data_dir)
    assert run([cmd, "--manifest", data_dir / "manifest.jsonl",
                "--out", data_dir / cmd, "--ckpt", data_dir / "good.ckpt",
                "--split", "test"]) == 0
    assert decoded == ["b.wav"]


@pytest.mark.parametrize("cmd, flags, want", [
    ("segment", [], []),
    ("label", [], []),
    ("sweep", [], []),
    ("extract", ["--features", "file:emb"], []),
    ("extract", ["--features", "mfcc"], ["a.wav", "b.wav"]),
    ("extract", ["--features", "mfcc+deltas"], ["a.wav", "b.wav"]),
    ("augment", ["--manifest", "same-split.jsonl"], ["a.wav", "b.wav"]),
], ids=["segment", "label", "sweep", "extract-file", "extract-mfcc", "extract-mfcc+deltas",
        "augment"])
def test_only_mfcc_and_augment_decode_audio(cmd, flags, want, data_dir, decoded,
                                            monkeypatch):
    """Window counts come from the WAV header: a command decodes a clip only
    for its MFCC or to join it, and then once."""
    (data_dir / "emb").mkdir()
    for name in ("a", "b"):  # a 30 s clip has 5 windows
        write_fseq(data_dir / "emb" / f"{name}.fseq", np.zeros((5, 3)))
    (data_dir / "same-split.jsonl").write_text(SAME_SPLIT)
    monkeypatch.chdir(data_dir)
    assert run([cmd, "--manifest", "manifest.jsonl", "--out", "run", *flags]) == 0
    assert decoded == want


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
    """A `train --features mfcc+deltas` checkpoint (d = 80) is scored on
    deltas features under `--features mfcc`; ablate decodes the split once
    per MFCC width among its checkpoints."""
    manifest = data_dir / "manifest.jsonl"
    for name, extra in (("plain", []), ("deltas", ["--features", "mfcc+deltas"])):
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
    rows = (data_dir / "abl" / "ablation.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == [
        "mfcc+deltas", "mfcc+deltas", "mfcc", "mfcc", "mfcc+deltas", "mfcc+deltas"]


def test_an_80_wide_model_scores_on_feature_files(data_dir):
    """The width rule applies to `--features mfcc` only: under `file:`
    features an 80-wide model is scored on the files' rows, and its
    ablation rows name that spec."""
    emb = data_dir / "emb"
    emb.mkdir()
    write_fseq(emb / "b.fseq", np.random.default_rng(7).normal(size=(5, 80)))
    cfg = ModelConfig("lstm", feature_dim=80, hidden=8)
    save_checkpoint(data_dir / "w80.ckpt", init_params(cfg, np.random.default_rng(0)), cfg)
    out = data_dir / "abl"
    assert run(["ablate", "--manifest", data_dir / "manifest.jsonl", "--out", out,
                "--ckpt", data_dir / "w80.ckpt", "--features", f"file:{emb}",
                "--n-values", "0..1"]) == 0
    rows = (out / "ablation.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == [f"file:{emb}"] * 2


def test_eval_equals_its_ablate_cell(data_dir):
    """`eval --n k` reports the counts of ablate's row for n = k, given the
    row's checkpoint and its features value as `--features`: that column
    holds `--features` values only, `mfcc+deltas` for the 80-wide model
    that `--features mfcc` scores on deltas."""
    write_checkpoints(data_dir)
    cfg = ModelConfig("lstm", feature_dim=80, hidden=8)
    save_checkpoint(data_dir / "w80.ckpt", init_params(cfg, np.random.default_rng(1)), cfg)
    manifest = data_dir / "manifest.jsonl"
    assert run(["ablate", "--manifest", manifest, "--out", data_dir / "abl",
                "--ckpt", data_dir / "good.ckpt", "--ckpt", data_dir / "w80.ckpt",
                "--n-values", "0..2"]) == 0
    rows = [row.split(",") for row in
            (data_dir / "abl" / "ablation.csv").read_text().splitlines()[1:]]
    assert [(row[1], row[2]) for row in rows] == [
        (features, str(k)) for features in ("mfcc", "mfcc+deltas") for k in range(3)]
    for i, (ckpt, features, n, _, _, *counts) in enumerate(rows):
        out = data_dir / f"ev{i}"
        assert run(["eval", "--manifest", manifest, "--out", out, "--ckpt", ckpt,
                    "--features", features, "--n", n]) == 0
        summary = json.loads((out / "eval.json").read_text())
        assert [int(x) for x in counts] == [summary[c] for c in ("tp", "fp", "tn", "fn")]


COMMON_DEFAULTS = {"manifest": "m", "base_dir": None, "out": None, "config": None}
LABEL_DEFAULTS = {"n": 4, "lam": 0.8, "tau": 0.5}
RESOLVED_DEFAULTS = {
    "segment": ([], {}),
    "augment": ([], {"gap_s": 0.0}),
    "label": ([], LABEL_DEFAULTS),
    "extract": ([], {"features": "mfcc"}),
    "train": ([], {**LABEL_DEFAULTS, "arch": "lstm", "features": "mfcc",
                   "hidden": 128, "dropout": 0.3, "epochs": 0,
                   "iterations": 1000, "batch_size": 16, "lr": 0.001,
                   "teacher_forcing_p": 0.8, "patience": 5, "seed": 0}),
    "eval": (["--ckpt", "c"], {**LABEL_DEFAULTS, "ckpt": "c", "features": "mfcc",
                               "level": "segment", "split": "test"}),
    "sweep": ([], {"n": "0..5", "lam": "0.01,0.1,0.8,1", "tau": 0.5}),
    "ablate": (["--ckpt", "c"], {**LABEL_DEFAULTS, "ckpt": ["c"], "features": "mfcc",
                                 "n_values": "0..5", "split": "test"}),
}


@pytest.mark.parametrize("cmd", RESOLVED_DEFAULTS)
def test_every_subcommand_resolves_its_defaults(cmd):
    """Every flag's name and default, given only the required flags."""
    required, defaults = RESOLVED_DEFAULTS[cmd]
    args = vars(cli.build_parser().parse_args([cmd, "--manifest", "m", *required]))
    del args["func"], args["subparser"]
    # as resolved_config.json writes them: 0 and false, 0.0 and 0 differ
    want = {"command": cmd, **COMMON_DEFAULTS, **defaults}
    assert json.dumps(args, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_readme_cli_examples_parse():
    """Each `dynstress ...` line of README's CLI block is a valid command
    line, and the block shows every subcommand."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("dynstress ")]
    parser = cli.build_parser()
    for argv in examples:
        parser.parse_args(argv)  # a usage error exits
    commands = parser._get_positional_actions()[0].choices
    assert {argv[0] for argv in examples} == set(commands)


# (subcommand, flag dest, config class, field): flags whose default is a field's
LIBRARY_DEFAULTS = [
    ("train", "hidden", ModelConfig, "hidden"),
    ("train", "dropout", ModelConfig, "dropout"),
    ("train", "iterations", TrainConfig, "iterations_per_epoch"),
    ("train", "batch_size", TrainConfig, "batch_size"),
    ("train", "lr", TrainConfig, "learning_rate"),
    ("train", "teacher_forcing_p", TrainConfig, "teacher_forcing_p"),
    ("train", "patience", TrainConfig, "patience"),
    ("train", "seed", TrainConfig, "seed"),
    ("label", "tau", LabellingConfig, "tau"),
    ("sweep", "tau", LabellingConfig, "tau"),
]


@pytest.mark.parametrize("cmd, dest, cls, field", LIBRARY_DEFAULTS,
                         ids=[f"{cmd}-{dest}" for cmd, dest, *_ in LIBRARY_DEFAULTS])
def test_flag_default_is_its_config_field_default(cmd, dest, cls, field):
    """The library's config class states the default once: the flag's
    default is the same value, of the same type."""
    required = RESOLVED_DEFAULTS[cmd][0]
    got = getattr(cli.build_parser().parse_args([cmd, "--manifest", "m", *required]), dest)
    want = next(f.default for f in dataclasses.fields(cls) if f.name == field)
    assert (got, type(got)) == (want, type(want))


def test_sequence_level_votes_once_per_recording(tmp_path):
    """An unlabelled gap splits a recording into two labelled runs; the
    sequence level still scores it as one recording."""
    write_wav(tmp_path / "c.wav", 0.1 * np.random.default_rng(6).normal(size=60 * SR))
    (tmp_path / "m.jsonl").write_text(manifest_line(
        "c", [(0, 25, "anger"), (35, 60, "anger")], split="test",
        extra={"stress_label": True}) + "\n")
    cfg = ModelConfig("lstm", feature_dim=40, hidden=8)
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
