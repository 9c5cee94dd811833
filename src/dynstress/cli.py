"""Command-line entry point wiring the pipeline stages together.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric divergence.
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
    DataError,
    align_labels,
    concat_augment,
    load_clip,
    read_manifest,
    segment,
    write_wav,
)
from .training import TrainConfig, TrainingDiverged, train
from .vad import is_stress

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def _read_config_file(path: str) -> dict:
    """Simple key=value config; '#' starts a comment."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except OSError as e:
        raise DataError(f"cannot read config file {path}: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: config file is not UTF-8 (byte {e.start})") from None
    values = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}: bad config line {line!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        values[key.replace("-", "_")] = val
    return values


# config-file spellings of a flag that is on or off
_BOOLEANS = {"1": True, "true": True, "yes": True,
             "0": False, "false": False, "no": False}


def _merge_config(parser, args: argparse.Namespace, argv) -> argparse.Namespace:
    """File values become the flag defaults, so flags given on the command
    line win over the file even when they equal the built-in default."""
    if not getattr(args, "config", None):
        return args
    file_vals = _read_config_file(args.config)
    # the subcommand's own parser holds the flag defaults
    sub = args.subparser
    # optional flags only: required ones always come from the command line
    flags = {a.dest for a in sub._actions if not a.required}
    defaults = {}
    for key, val in file_vals.items():
        if key not in flags or not hasattr(args, key):
            continue
        default = sub.get_default(key)
        try:
            if isinstance(default, bool):
                val = _BOOLEANS[val.lower()]
            elif isinstance(default, (int, float)):
                val = type(default)(val)
        except (KeyError, ValueError):
            raise DataError(
                f"{args.config}: {key} must be "
                f"{type(default).__name__}, got {val!r}"
            ) from None
        defaults[key] = val
    sub.set_defaults(**defaults)
    return parser.parse_args(argv)


def _out_dir(args) -> Path:
    out = Path(getattr(args, "out", None) or
               os.environ.get("DYNSTRESS_RUN_DIR", "runs"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_resolved(args, out: Path) -> None:
    resolved = {
        k: v for k, v in vars(args).items() if k not in ("func", "subparser")
    }
    (out / "resolved_config.json").write_text(
        json.dumps(resolved, indent=2, sort_keys=True, default=str) + "\n"
    )


def _lab_cfg(args) -> LabellingConfig:
    return LabellingConfig(n=args.n, lam=args.lam, tau=args.tau)


def _add_label_flags(p):
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--lambda", dest="lam", type=float, default=0.8)
    p.add_argument("--tau", type=float, default=0.5)


def _add_common(p):
    p.add_argument("--manifest", required=True)
    p.add_argument("--base-dir", default=None,
                   help="directory audio paths are relative to "
                        "(default: the manifest's directory)")
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None, help="key=value config file")


def _base_dir(args) -> Path:
    return Path(args.base_dir) if args.base_dir else Path(args.manifest).parent


# --- subcommands ---

def cmd_segment(args, out):
    with open(out / "windows.jsonl", "w") as f:
        for rec in read_manifest(args.manifest):
            windows = segment(load_clip(rec, _base_dir(args)))
            for w, label in zip(windows, align_labels(windows, rec.spans)):
                f.write(json.dumps({
                    "clip_id": w.clip_id, "index": w.index,
                    "start_s": w.start, "end_s": w.end,
                    "label": label.to_text() if label else None,
                }) + "\n")
    return 0


def cmd_augment(args, out):
    records = read_manifest(args.manifest)
    groups: dict[tuple[str, str], list] = {}
    for rec in records:
        groups.setdefault((rec.speaker_id, rec.text_id), []).append(rec)
    with open(out / "augmented.jsonl", "w") as f:
        for (speaker, text), recs in groups.items():
            if len(recs) < 2:
                continue
            for r in recs:
                if not r.spans:
                    raise DataError(f"{r.utterance_id}: augment needs a "
                                    "labelled span per record")
            clips = [load_clip(r, _base_dir(args)) for r in recs]
            emotions = [r.spans[0].code for r in recs]
            joined, final, spans = concat_augment(clips, emotions, args.gap_s)
            wav_path = out / f"{joined.utterance_id}.wav"
            write_wav(wav_path, joined.samples)
            f.write(json.dumps({
                "audio_path": wav_path.name,
                "speaker_id": speaker,
                "utterance_id": joined.utterance_id,
                "text_id": text,
                "spans": [{"start_s": s.start, "end_s": s.end,
                           "label": s.code.to_text()} for s in spans],
                "final_label": final.to_text(),
                "split": recs[0].split,
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
    mfcc_cfg = MfccConfig(include_deltas=args.deltas)
    for rec in read_manifest(args.manifest):
        clip = load_clip(rec, _base_dir(args))
        mat = pipeline.clip_feature_matrix(
            clip, segment(clip), args.features, mfcc_cfg
        )
        write_fseq(out / f"{rec.utterance_id}.fseq", mat)
    return 0


def _load_split(args, records, split: str, mfcc_cfg, use: str) -> list:
    """RecordingData of ``split`` in manifest order, an error when it has
    none or when its feature widths differ; the clips of other splits are
    never decoded."""
    lab = _lab_cfg(args)
    recs = [rd for rec in records if rec.split == split for rd in
            pipeline.load_recording(rec, _base_dir(args), args.features, lab, mfcc_cfg)]
    if not recs:
        raise DataError(f"no recordings to {use} in split {split!r}")
    width = recs[0].features.shape[1]
    for rd in recs:
        if rd.features.shape[1] != width:
            raise DataError(f"{rd.clip_id}: features are {rd.features.shape[1]} wide, "
                            f"but {recs[0].clip_id}'s are {width}")
    return recs


def _checkpoint_mfcc(mcfg: ModelConfig) -> MfccConfig:
    """The MFCC setting a checkpoint was trained with: deltas double the width."""
    return MfccConfig(include_deltas=mcfg.feature_dim == 2 * MfccConfig.n_coeffs)


def cmd_train(args, out):
    records = read_manifest(args.manifest)
    names = {rec.split for rec in records}
    val_split = next((s for s in ("val", "test") if s in names), "train")
    mfcc_cfg = MfccConfig(include_deltas=args.deltas)
    train_recs = _load_split(args, records, "train", mfcc_cfg, "train on")
    val_recs = train_recs if val_split == "train" else _load_split(
        args, records, val_split, mfcc_cfg, "validate on")
    train_samples = pipeline.build_samples(train_recs, args.n)
    val_samples = pipeline.build_samples(val_recs, args.n)
    if not train_samples or not val_samples:
        raise DataError("no usable training/validation samples in manifest")
    d = train_samples[0].features.shape[1]
    mcfg = ModelConfig(arch=args.arch, feature_dim=d, hidden=args.hidden,
                       dropout=args.dropout)
    default_epochs = 20 if args.arch == "lstm" else 50
    tcfg = TrainConfig(
        epochs=args.epochs if args.epochs else default_epochs,
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


def _stress_flags(recs, n, params, mcfg):
    """(run, predicted flags, true flags) for each labelled run."""
    for rd in recs:
        codes = pipeline.predict_recording(rd.features, n, params, mcfg)
        yield rd, [is_stress(c) for c in codes], [is_stress(c) for c in rd.stress_codes]


def _segment_report(recs, n, params, mcfg) -> evaluation.EvalReport:
    preds, truths = [], []
    for _, pred, true in _stress_flags(recs, n, params, mcfg):
        preds += pred
        truths += true
    return evaluation.score_segment_level(preds, truths)


def _sequence_report(recs, n, params, mcfg) -> evaluation.EvalReport:
    """One vote per recording over the windows of all its labelled runs
    (`utt#k`).  The truth is its stress_label, else the majority of its
    windows."""
    preds, windows, labels = {}, {}, {}
    for rd, pred, true in _stress_flags(recs, n, params, mcfg):
        utt = rd.clip_id.rsplit("#", 1)[0]
        preds.setdefault(utt, []).extend(pred)
        windows.setdefault(utt, []).extend(true)
        labels[utt] = rd.stress_label
    truth = {utt: evaluation.majority_vote(windows[utt]) if label is None else label
             for utt, label in labels.items()}
    return evaluation.score_sequence_level(preds, truth)


def cmd_eval(args, out):
    params, mcfg = load_checkpoint(args.ckpt)
    recs = _load_split(args, read_manifest(args.manifest), args.split,
                       _checkpoint_mfcc(mcfg), "evaluate")
    report_fn = _segment_report if args.level == "segment" else _sequence_report
    report = report_fn(recs, args.n, params, mcfg)
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
    sequences = []
    # Reference labels come from each record's stress_spans; the dummy
    # labelling config below only drives windowing, not the sweep itself.
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
    n_values = _parse_list(args.n, int)
    lambdas = _parse_list(args.lam, float)
    cells = evaluation.labelling_sweep(sequences, n_values, lambdas, args.tau)
    evaluation.write_sweep_csv(cells, out / "sweep_binary.csv", "binary")
    evaluation.write_sweep_csv(cells, out / "sweep_exact.csv", "exact")
    print(f"wrote {len(cells)} sweep cells to {out}")
    return 0


def cmd_ablate(args, out):
    n_values = _parse_list(args.n_values, int)
    records = read_manifest(args.manifest)
    recs_by_mfcc: dict[MfccConfig, list] = {}  # one load per MFCC setting
    cells = []
    for ckpt in args.ckpt:
        params, mcfg = load_checkpoint(ckpt)
        mfcc_cfg = _checkpoint_mfcc(mcfg)
        if mfcc_cfg not in recs_by_mfcc:
            recs_by_mfcc[mfcc_cfg] = _load_split(
                args, records, args.split, mfcc_cfg, "evaluate")
        for n in n_values:
            report = _segment_report(recs_by_mfcc[mfcc_cfg], n, params, mcfg)
            cells.append(evaluation.AblationCell(
                str(ckpt), args.features, n, report
            ))
    evaluation.ablation_grid(cells, out / "ablation.csv")
    print(f"wrote {len(cells)} ablation cells to {out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="dynstress")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("segment", parents=[], help="cut clips into windows")
    _add_common(p)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("augment", help="concatenate same-speaker clips")
    _add_common(p)
    p.add_argument("--gap-s", type=float, default=0.0)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("label", help="derive temporal stress labels")
    _add_common(p)
    _add_label_flags(p)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("extract", help="write per-window feature files")
    _add_common(p)
    p.add_argument("--features", default="mfcc")
    p.add_argument("--deltas", action="store_true")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train a stress classifier")
    _add_common(p)
    _add_label_flags(p)
    p.add_argument("--arch", choices=["lstm", "transformer"], default="lstm")
    p.add_argument("--features", default="mfcc")
    p.add_argument("--deltas", action="store_true")
    p.add_argument("--hidden", type=int, default=128)
    p.add_argument("--dropout", type=float, default=0.3)
    p.add_argument("--epochs", type=int, default=0,
                   help="0 = architecture default (20 lstm / 50 transformer)")
    p.add_argument("--iterations", type=int, default=1000)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--teacher-forcing-p", type=float, default=0.8)
    p.add_argument("--patience", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint")
    _add_common(p)
    _add_label_flags(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--features", default="mfcc")
    p.add_argument("--level", choices=["segment", "sequence"], default="segment")
    p.add_argument("--split", default="test")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="labelling agreement grid")
    _add_common(p)
    p.add_argument("--n", default="0..5")
    p.add_argument("--lambda", dest="lam", default="0.01,0.1,0.8,1")
    p.add_argument("--tau", type=float, default=0.5)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("ablate", help="evaluate checkpoints over a grid")
    _add_common(p)
    _add_label_flags(p)
    p.add_argument("--ckpt", action="append", required=True)
    p.add_argument("--features", default="mfcc")
    p.add_argument("--n-values", default="0..5")
    p.add_argument("--split", default="test")
    p.set_defaults(func=cmd_ablate)

    for sp in sub.choices.values():
        sp.set_defaults(subparser=sp)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(parser, args, argv)
        out = _out_dir(args)
        _write_resolved(args, out)
        return args.func(args, out)
    except TrainingDiverged as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_DIVERGED
    except DataError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
