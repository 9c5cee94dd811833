"""Command-line entry point wiring the pipeline stages together.

Exit codes: 0 success, 1 usage error, 2 data or output error, 3 numeric divergence.
Every run writes its fully resolved configuration next to its outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import evaluation, pipeline
from .features import MfccConfig, write_fseq
from .labelling import LabellingConfig
from .model import ModelConfig, load_checkpoint
from .segmentation import (
    HOP_S,
    WINDOW_S,
    DataError,
    align_labels,
    concat_augment,
    load_clip,
    read_manifest,
    read_text,
    write_wav,
)
from .training import TrainConfig, TrainingDiverged, train
from .vad import is_stress

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3
# each architecture's epoch budget when --epochs is 0
EPOCHS = {"lstm": TrainConfig.epochs, "transformer": 50}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def _merge_config(parser, args: argparse.Namespace, argv) -> argparse.Namespace:
    """Read the `key = value` lines of --config ('#' starts a comment) into
    the subcommand's flag defaults, so flags given on the command line win
    over the file even when they equal the built-in default.  A key names a
    flag by its dest or long option (`lam` or `lambda`), `-` and `_` alike;
    its value is checked as if typed after the flag."""
    path = args.config
    if not path:
        return args
    text = read_text(path, "config file")
    # keys of all commands (the top parser's positional) map to None, and this
    # command's optional flags, listed last so that they win, to their actions
    flags = {}
    for p in (parser, *parser._get_positional_actions()[0].choices.values(),
              args.subparser):
        flags.update(dict.fromkeys(p._defaults))
        for a in p._actions:
            own = p is args.subparser and not a.required and hasattr(args, a.dest)
            for key in (a.dest, *(o[2:] for o in a.option_strings if o[:2] == "--")):
                flags[key.replace("-", "_")] = a if own else None
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}: bad config line {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        key = key.replace("-", "_")
        if key == "config":  # the file is read only when --config names it
            raise DataError(f"{path}: config cannot be set in a config file")
        if key not in flags:
            raise DataError(f"{path}: {key} names no option")
        if (a := flags[key]) is None:  # a required, internal or other command's key
            continue
        try:
            typed = (a.type or str)(value)
        except ValueError:  # only a typed flag's value can fail: str never does
            raise DataError(f"{path}: {key} must be {a.type.__name__}, "
                            f"got {value!r}") from None
        if a.choices is not None and typed not in a.choices:
            raise DataError(f"{path}: {key} must be one of "
                            f"{', '.join(a.choices)}, got {value!r}")
        args.subparser.set_defaults(**{a.dest: typed})
    return parser.parse_args(argv)


def _run_dir(args) -> Path:
    """The run's output directory, made if need be, holding its
    resolved_config.json."""
    out = Path(args.out or os.environ.get("DYNSTRESS_RUN_DIR", "runs"))
    if "\0" in str(out):  # a config file's `out` may hold one; mkdir raises ValueError
        raise DataError(f"run directory {str(out)!r} holds a NUL byte")
    out.mkdir(parents=True, exist_ok=True)
    resolved = {k: v for k, v in vars(args).items() if k not in ("func", "subparser")}
    (out / "resolved_config.json").write_text(
        json.dumps(resolved, indent=2, sort_keys=True, default=str) + "\n")
    return out


def _lab_cfg(args) -> LabellingConfig:
    return LabellingConfig(n=args.n, lam=args.lam, tau=args.tau)


def _base_dir(args) -> Path:
    return Path(args.base_dir) if args.base_dir else Path(args.manifest).parent


# --- subcommands ---

def cmd_segment(args, out):
    with open(out / "windows.jsonl", "w") as f:
        for rec in read_manifest(args.manifest):
            windows = range(len(pipeline.clip_features(rec, _base_dir(args), None)))
            for k, label in zip(windows, align_labels(windows, rec.spans)):
                f.write(json.dumps({
                    "clip_id": rec.utterance_id, "index": k,
                    "start_s": k * HOP_S, "end_s": k * HOP_S + WINDOW_S,
                    "label": label.to_text() if label else None,
                }) + "\n")
    return 0


def cmd_augment(args, out):
    records = read_manifest(args.manifest)
    # clips of different splits are never joined, so no audio crosses a split
    groups: dict[tuple[str, str, str], list] = {}
    for rec in records:
        groups.setdefault((rec.speaker_id, rec.text_id, rec.split), []).append(rec)
    with open(out / "augmented.jsonl", "w") as f:
        for (speaker, text, split), recs in groups.items():
            if len(recs) < 2:
                continue
            samples, spans = concat_augment(
                recs, (load_clip(r, _base_dir(args)) for r in recs), args.gap_s)
            utterance_id = "+".join(r.utterance_id for r in recs)
            wav_path = out / f"{utterance_id}.wav"
            write_wav(wav_path, samples)
            f.write(json.dumps({
                "audio_path": wav_path.name,
                "speaker_id": speaker,
                "utterance_id": utterance_id,
                "text_id": text,
                "spans": [{"start_s": s.start, "end_s": s.end,
                           "label": s.code.to_text()} for s in spans],
                "final_label": spans[-1].code.to_text(),
                "split": split,
            }) + "\n")
    return 0


def cmd_label(args, out):
    lab = _lab_cfg(args)
    with open(out / "labels.jsonl", "w") as f:
        for rec in read_manifest(args.manifest):
            for rd in pipeline.load_recording(rec, _base_dir(args), None, lab):
                for i, (emo, stress) in enumerate(
                    zip(rd.emotion_codes, rd.stress_codes)
                ):
                    f.write(json.dumps({
                        "clip_id": rd.clip_id, "window": i,
                        "emotion": emo.to_text(),
                        "stress_code": stress.to_text(),
                        "stress": is_stress(stress),
                    }) + "\n")
    return 0


def cmd_extract(args, out):
    for rec in read_manifest(args.manifest):
        write_fseq(out / f"{rec.utterance_id}.fseq",
                   pipeline.clip_features(rec, _base_dir(args), args.features))
    return 0


def _load_split(args, records, split: str, features: str, use: str, like=()) -> list:
    """RecordingData of ``split`` with ``features`` in manifest order, an
    error when it has none or when its feature widths differ from each other
    or from those of the recordings ``like``; the clips of other splits are
    never decoded."""
    lab = _lab_cfg(args)
    recs = [rd for rec in records if rec.split == split for rd in
            pipeline.load_recording(rec, _base_dir(args), features, lab)]
    if not recs:
        raise DataError(f"no recordings to {use} in split {split!r}")
    first = (like or recs)[0]
    width = first.features.shape[1]
    for rd in recs:
        if rd.features.shape[1] != width:
            raise DataError(f"{rd.clip_id}: features are {rd.features.shape[1]} wide, "
                            f"but {first.clip_id}'s are {width}")
    return recs


def cmd_train(args, out):
    records = read_manifest(args.manifest)
    names = {rec.split for rec in records}
    val_split = next((s for s in ("val", "test") if s in names), "train")
    train_recs = _load_split(args, records, "train", args.features, "train on")
    val_recs = train_recs if val_split == "train" else _load_split(
        args, records, val_split, args.features, "validate on", train_recs)
    train_samples = pipeline.build_samples(train_recs, args.n)
    val_samples = pipeline.build_samples(val_recs, args.n)
    if not train_samples or not val_samples:
        raise DataError("no usable training/validation samples in manifest")
    d = train_samples[0].features.shape[1]
    mcfg = ModelConfig(arch=args.arch, feature_dim=d, hidden=args.hidden,
                       dropout=args.dropout)
    tcfg = TrainConfig(
        epochs=args.epochs,
        iterations_per_epoch=args.iterations,
        batch_size=args.batch_size,
        learning_rate=args.lr,
        teacher_forcing_p=args.teacher_forcing_p,
        seed=args.seed,
        patience=args.patience,
    )
    result = train(train_samples, val_samples, tcfg, mcfg, out)
    print(f"best validation loss {result['best_val_loss']:.6f} on {val_split!r} "
          f"after {result['epochs_run']} epochs -> {result['checkpoint']}")
    return 0


def _report(recs, n, params, mcfg, level: str) -> evaluation.EvalReport:
    """Scores of the model's self-fed predictions over ``recs``: one per
    window at the segment level; at the sequence level, one vote per
    recording over the windows of all its labelled runs (`utt#k`), whose
    truth is its stress_label, else the majority of its windows."""
    preds, truths, labels = {}, {}, {}
    for rd in recs:
        utt = rd.clip_id.rsplit("#", 1)[0]
        codes = pipeline.predict_recording(rd.features, n, params, mcfg)
        preds.setdefault(utt, []).extend(is_stress(c) for c in codes)
        truths.setdefault(utt, []).extend(is_stress(c) for c in rd.stress_codes)
        labels[utt] = rd.stress_label
    if level == "segment":
        return evaluation.score_segment_level(
            [p for utt in preds for p in preds[utt]],
            [t for utt in truths for t in truths[utt]])
    truth = {utt: evaluation.majority_vote(truths[utt]) if label is None else label
             for utt, label in labels.items()}
    return evaluation.score_sequence_level(preds, truth)


def _cells(args, ckpts, n_values, level: str):
    """An AblationCell per checkpoint and history n, in that order, scored at
    ``level`` on ``--split``, which is decoded once per feature spec among
    the checkpoints: under ``--features mfcc`` an 80-wide model was trained
    on ``mfcc+deltas`` and is scored on them."""
    records = read_manifest(args.manifest)
    loaded: dict[str, list] = {}  # --split's recordings by feature spec
    for ckpt in ckpts:
        params, mcfg = load_checkpoint(ckpt)
        wide = args.features == "mfcc" and mcfg.feature_dim == 2 * MfccConfig.n_coeffs
        spec = "mfcc+deltas" if wide else args.features
        if spec not in loaded:
            loaded[spec] = _load_split(args, records, args.split, spec, "evaluate")
        for n in n_values:
            report = _report(loaded[spec], n, params, mcfg, level)
            yield evaluation.AblationCell(str(ckpt), spec, n, report)


def cmd_eval(args, out):
    report = next(_cells(args, [args.ckpt], [args.n], args.level)).report
    summary = {
        "level": args.level, "accuracy": report.accuracy, "f1": report.f1,
        "tp": report.tp, "fp": report.fp, "tn": report.tn, "fn": report.fn,
    }
    (out / "eval.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"{args.level}-level accuracy={report.accuracy:.4f} f1={report.f1:.4f}")
    return 0


def _parse_list(text: str, kind: type) -> list:
    """Comma-separated values; an int list may also be `lo..hi` (inclusive)."""
    try:
        if kind is int and ".." in text:
            lo, hi = text.split("..")
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [kind(x) for x in text.split(",")]
    except ValueError:
        raise DataError(f"bad {kind.__name__} list {text!r}") from None
    if not values:
        raise DataError(f"empty {kind.__name__} range {text!r}")
    return values


def cmd_sweep(args, out):
    records = read_manifest(args.manifest)
    n_values = _parse_list(args.n, int)
    lambdas = _parse_list(args.lam, float)
    sequences = []
    # load_recording relabels each run with this placeholder config, but sweep
    # reads only the emotion codes and the stress_spans references
    lab = LabellingConfig(n=0, lam=1.0, tau=0.5)
    for rec in records:
        if not rec.stress_spans:
            continue
        for rd in pipeline.load_recording(rec, _base_dir(args), None, lab):
            # whole runs, so windows without a reference still feed the history
            if any(r is not None for r in rd.reference_codes):
                sequences.append((rd.emotion_codes, rd.reference_codes))
    if not sequences:
        raise DataError("sweep needs records with stress_spans references")
    cells = evaluation.labelling_sweep(sequences, n_values, lambdas, args.tau)
    evaluation.write_sweep_csv(cells, out / "sweep_binary.csv", "binary")
    evaluation.write_sweep_csv(cells, out / "sweep_exact.csv", "exact")
    print(f"wrote {len(cells)} sweep cells to {out}")
    return 0


def cmd_ablate(args, out):
    n_values = _parse_list(args.n_values, int)
    cells = list(_cells(args, args.ckpt, n_values, "segment"))
    evaluation.ablation_grid(cells, out / "ablation.csv")
    print(f"wrote {len(cells)} ablation cells to {out}")
    return 0


def build_parser() -> _Parser:
    # flags shared by several commands; their actions are shared too, so
    # each parser built here makes its own, whose defaults _merge_config sets
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--manifest", required=True)
    common.add_argument("--base-dir", default=None,
                        help="directory audio paths are relative to "
                             "(default: the manifest's directory)")
    common.add_argument("--out", default=None)
    common.add_argument("--config", default=None, help="key=value config file")
    labels = argparse.ArgumentParser(add_help=False)
    labels.add_argument("--n", type=int, default=4)
    labels.add_argument("--lambda", dest="lam", type=float, default=0.8)
    labels.add_argument("--tau", type=float, default=LabellingConfig.tau)
    features = argparse.ArgumentParser(add_help=False)
    features.add_argument("--features", default="mfcc",
                          help="mfcc (d = 40), mfcc+deltas (pooled deltas appended, "
                               "d = 80) or file:<dir> (<dir>/<utterance_id>.fseq)")

    parser = _Parser(prog="dynstress")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *parents):
        """A subcommand taking the common flags, then those of ``parents``."""
        p = sub.add_parser(name, help=help, parents=[common, *parents])
        p.set_defaults(func=func, subparser=p)
        return p

    command("segment", cmd_segment, "cut clips into windows")

    p = command("augment", cmd_augment, "concatenate same-speaker clips")
    p.add_argument("--gap-s", type=float, default=0.0)

    command("label", cmd_label, "derive temporal stress labels", labels)

    command("extract", cmd_extract, "write per-window feature files", features)

    p = command("train", cmd_train, "train a stress classifier", labels, features)
    p.add_argument("--arch", choices=["lstm", "transformer"], default="lstm")
    p.add_argument("--hidden", type=int, default=ModelConfig.hidden)
    p.add_argument("--dropout", type=float, default=ModelConfig.dropout)
    p.add_argument("--epochs", type=int, default=0, help="0 = architecture default ("
                   + " / ".join(f"{e} {arch}" for arch, e in EPOCHS.items()) + ")")
    p.add_argument("--iterations", type=int, default=TrainConfig.iterations_per_epoch)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--teacher-forcing-p", type=float,
                   default=TrainConfig.teacher_forcing_p)
    p.add_argument("--patience", type=int, default=TrainConfig.patience)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)

    p = command("eval", cmd_eval, "score a checkpoint", labels, features)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--level", choices=["segment", "sequence"], default="segment")
    p.add_argument("--split", default="test")

    p = command("sweep", cmd_sweep, "labelling agreement grid")
    p.add_argument("--n", default="0..5")
    p.add_argument("--lambda", dest="lam", default="0.01,0.1,0.8,1")
    p.add_argument("--tau", type=float, default=LabellingConfig.tau)

    p = command("ablate", cmd_ablate, "evaluate checkpoints over a grid",
                labels, features)
    p.add_argument("--ckpt", action="append", required=True)
    p.add_argument("--n-values", default="0..5")
    p.add_argument("--split", default="test")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(parser, args, argv)
        if args.command == "train" and args.epochs == 0:  # before the run records it
            args.epochs = EPOCHS[args.arch]
        out = _run_dir(args)
        return args.func(args, out)
    except TrainingDiverged as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_DIVERGED
    except DataError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_DATA
    except OSError as e:  # inputs open through open_input, so an output failed
        sys.stderr.write(f"error: cannot write {e.filename or 'output'}: {e.strerror}\n")
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
