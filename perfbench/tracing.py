"""Spans around the library's public functions, and the per-layer metrics
computed from them.

Tracing patches the module attributes of ``dynstress`` while a traced
operation runs and restores them afterwards, so untraced operations run the
library untouched.  Spans stay in memory (name, start, end, parent, workload,
operation id, lane) and are written out once the run ends.  A layer's self
time is its span minus its child spans.
"""

from __future__ import annotations

import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

import corpus

ARCHS = ("lstm", "transformer")
PHASES = ("gradient", "rollout", "validation", "infer")


def _mfcc_frames(args, out):
    return corpus.mfcc_frame_count(len(args[0]))


def _rows(args, out):
    return args[0].shape[0]


def _length(args, out):
    return len(out)


# (module, attribute, span name, size of the work done by one call)
TARGETS = (
    ("segmentation", "load_wav", "segmentation.load_wav", None),
    ("segmentation", "segment", "segmentation.segment", None),
    ("segmentation", "align_labels", "segmentation.align", None),
    ("features", "window_mfcc", "features.window_mfcc", _mfcc_frames),
    ("features", "mel_filterbank", "features.mel_filterbank", None),
    ("features", "read_fseq", "features.read_fseq", None),
    ("labelling", "relabel_sequence", "labelling.relabel", _length),
    ("pipeline", "load_recording", "pipeline.load_recording", None),
    ("pipeline", "build_samples", "pipeline.build_samples", None),
    ("pipeline", "predict_recording", "pipeline.predict_recording", _length),
    ("model", "forward_batch", "model.forward", _rows),
    ("model", "lstm_states", "model.lstm", None),
    ("model", "transformer_states", "model.transformer", None),
    ("model", "cross_attention_states", "model.cross_attention", None),
    ("model", "load_checkpoint", "model.load_checkpoint", None),
    ("model", "save_checkpoint", "training.checkpoint", None),
    ("autodiff", "Tensor.backward", "autodiff.backward", None),
    ("training", "train", "training.loop", None),
    ("training", "gradient", "training.gradient", None),
    ("training", "_rollout_contexts", "training.rollout", None),
    ("training", "Adam.step", "training.adam", None),
    ("training", "evaluate_loss", "training.validation", None),
    ("training", "evaluate_accuracy", "training.validation", None),
    ("evaluation", "score_segment_level", "evaluation.score", None),
)
_PHASE_OF = {"training.gradient": "gradient", "training.rollout": "rollout",
             "training.validation": "validation",
             "pipeline.predict_recording": "infer"}
_PER_LANE = ("autodiff.backward", "training.loop", "training.gradient",
             "training.rollout", "training.adam", "training.validation",
             "training.checkpoint")
OP = "op"  # the benchmark's own span around one operation


def metric_units() -> dict[str, str]:
    """Every per-layer metric, in report order, with its unit.

    Times are self time as a share of traced wall time; a layer that a
    workload never calls reports 0.  ``model.forward`` is inclusive;
    ``model.head`` is the self time of ``forward_batch``.
    """
    shares = ["segmentation.load_wav", "segmentation.segment",
              "segmentation.align", "features.window_mfcc",
              "features.mel_filterbank", "features.read_fseq",
              "labelling.relabel", "pipeline.load_recording",
              "pipeline.build_samples", "pipeline.predict_recording",
              "model.load_checkpoint", "evaluation.score"]
    for phase in PHASES:
        shares += [f"model.lstm.{phase}", f"model.transformer.{phase}"]
        for part in ("forward", "cross_attention", "head"):
            shares += [f"model.{part}.{phase}.{arch}" for arch in ARCHS]
    shares += [f"{name}.{arch}" for name in _PER_LANE for arch in ARCHS]
    units = {f"{name}_share": "share" for name in shares}
    units.update({
        "trace.covered_share": "share",
        "trace.overhead_share": "share",
        "process.sys_share": "share",
        "process.minor_faults_per_item": "count",
        "segmentation.wav_loads_per_recording": "count",
        "features.mfcc_frames_per_audio_frame": "ratio",
        "features.mel_filterbank_calls_per_window": "count",
        "labelling.windows_relabelled": "count",
        "pipeline.forward_calls_per_window": "count",
    })
    for arch in ARCHS:
        units[f"autodiff.tensors_per_step.{arch}"] = "count"
        units[f"autodiff.tensors_per_window.{arch}"] = "count"
        units[f"training.rollout_windows_per_step.{arch}"] = "count"
    return units


class Tracer:
    """Records spans while :meth:`tracing` is active."""

    def __init__(self, workload: str):
        self.workload = workload
        self.lane = ""
        self.spans: list[list] = []  # name, start, end, parent, op, lane, size, tensors
        self._stack: list[int] = []
        self._op = -1
        self.tensors = 0
        self._patches = self._build_patches()

    def _span(self, name, fn, size):
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                   self._op, self.lane, 0, self.tensors]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
                rec[7] = self.tensors - rec[7]
            if size is not None:
                rec[6] = size(args, out)
            return out
        return traced

    def _build_patches(self):
        """(owner, attribute, traced) triples: every module of the package
        that holds a traced function, under any name, gets the wrapper."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "dynstress" or n.startswith("dynstress.")]
        patches = []
        for mod_name, attr, name, size in TARGETS:
            mod = importlib.import_module(f"dynstress.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                patches.append((owner, meth,
                                self._span(name, getattr(owner, meth), size)))
                continue
            fn = getattr(mod, attr)
            traced = self._span(name, fn, size)
            for m in modules:
                for key, value in vars(m).items():
                    if value is fn:
                        patches.append((m, key, traced))
        tensor = importlib.import_module("dynstress.autodiff").Tensor
        init = tensor.__init__

        def counting_init(obj, *args, **kwargs):
            self.tensors += 1
            init(obj, *args, **kwargs)
        patches.append((tensor, "__init__", counting_init))
        return patches

    @contextmanager
    def tracing(self, op: int):
        """Trace one operation: patch, record an ``op`` span, restore."""
        saved = [(owner, key, vars(owner)[key]) for owner, key, _ in self._patches]
        for owner, key, traced in self._patches:
            setattr(owner, key, traced)
        self._op = op
        rec = [OP, perf_counter(), 0.0, -1, op, "", 0, self.tensors]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            rec[7] = self.tensors - rec[7]
            self._stack.pop()
            for owner, key, original in saved:
                setattr(owner, key, original)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for name, t0, t1, parent, op, lane, size, tensors in self.spans:
                f.write(json.dumps({
                    "name": name, "start": t0, "end": t1, "parent": parent,
                    "workload": self.workload, "op": op, "lane": lane,
                    "size": size, "tensors": tensors,
                }) + "\n")


def layer_metrics(spans, ref_ops: set[int], ref_meta: dict) -> dict[str, float]:
    """Per-layer metrics from the spans of one run.

    Shares use every traced operation.  Counts use only ``ref_ops``, which
    cover each operation of the workload's cycle exactly once, so they repeat
    exactly from run to run; ``ref_meta`` sums those operations' audio frames
    and segmented windows.
    """
    units = metric_units()
    values = dict.fromkeys(units, 0.0)
    child = [0.0] * len(spans)
    for name, t0, t1, parent, *_ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    phase = [""] * len(spans)
    wall = covered = 0.0
    counts: dict[str, float] = {}

    def add(key, amount):
        counts[key] = counts.get(key, 0.0) + amount

    for i, (name, t0, t1, parent, op, lane, size, tensors) in enumerate(spans):
        phase[i] = _PHASE_OF.get(name, phase[parent] if parent >= 0 else "")
        self_time = t1 - t0 - child[i]
        if name == OP:
            wall += t1 - t0
            continue
        if name == "model.forward":
            if f"model.forward.{phase[i]}.{lane}_share" in values:
                values[f"model.forward.{phase[i]}.{lane}_share"] += t1 - t0
            key = f"model.head.{phase[i]}.{lane}"
        elif name in ("model.lstm", "model.transformer"):
            key = f"{name}.{phase[i]}"
        elif name == "model.cross_attention":
            key = f"{name}.{phase[i]}.{lane}"
        elif name in _PER_LANE:
            key = f"{name}.{lane}"
        else:
            key = name
        # A call outside the known phases or lanes has no metric; it then
        # shows as a drop in trace.covered_share.
        if f"{key}_share" in values:
            values[f"{key}_share"] += self_time
            covered += self_time
        if op not in ref_ops:
            continue
        add(f"calls:{name}", 1)
        add(f"size:{name}", size)
        if name == "model.forward" and phase[i] == "rollout":
            add(f"rollout_rows:{lane}", size)
        if name in ("training.gradient", "training.rollout"):
            add(f"step_tensors:{lane}", tensors)
        if name == "training.gradient":
            add(f"steps:{lane}", 1)
        if name == "pipeline.predict_recording":
            add(f"infer_tensors:{lane}", tensors)
            add(f"infer_windows:{lane}", size)
        if name == "model.forward" and phase[i] == "infer":
            add("infer_forwards", 1)

    for key in values:
        if key.endswith("_share") and wall:
            values[key] /= wall
    values["trace.covered_share"] = covered / wall if wall else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    def c(key):
        return counts.get(key, 0.0)

    values["segmentation.wav_loads_per_recording"] = ratio(
        c("calls:segmentation.load_wav"), c("calls:pipeline.load_recording"))
    values["features.mfcc_frames_per_audio_frame"] = ratio(
        c("size:features.window_mfcc"), ref_meta.get("audio_frames", 0))
    values["features.mel_filterbank_calls_per_window"] = ratio(
        c("calls:features.mel_filterbank"), ref_meta.get("windows", 0))
    values["labelling.windows_relabelled"] = c("size:labelling.relabel")
    values["pipeline.forward_calls_per_window"] = ratio(
        c("infer_forwards"), c("size:pipeline.predict_recording"))
    for arch in ARCHS:
        steps = c(f"steps:{arch}")
        values[f"autodiff.tensors_per_step.{arch}"] = ratio(
            c(f"step_tensors:{arch}"), steps)
        values[f"autodiff.tensors_per_window.{arch}"] = ratio(
            c(f"infer_tensors:{arch}"), c(f"infer_windows:{arch}"))
        values[f"training.rollout_windows_per_step.{arch}"] = ratio(
            c(f"rollout_rows:{arch}"), steps)
    return values


def step_seconds(spans) -> dict[str, list[float]]:
    """Traced training steps by lane: the time from one Adam update's end
    to the next one's within the same ``training.train`` call."""
    ends: dict[tuple, list[float]] = {}
    for name, t0, t1, parent, op, lane, *_ in spans:
        if name == "training.adam":
            ends.setdefault((parent, lane), []).append(t1)
    steps: dict[str, list[float]] = {}
    for (_, lane), times in ends.items():
        steps.setdefault(lane, []).extend(b - a for a, b in zip(times, times[1:]))
    return steps
