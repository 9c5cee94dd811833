"""The benchmark's three workloads and their output checks.

Each workload is a closed loop with one client: it runs its operations one
after the other, in a fixed cycle, through the same public library calls the
CLI subcommands make.  ``run(p)`` performs operation ``p`` of the cycle and
returns its output and the seconds spent per lane (a lane is the part of an
operation that belongs to one architecture, or the whole operation).
``check(p, output)`` compares an output against an independent computation
and returns an error message or None; it never runs inside the timed region.

* ``prep``: one recording through ``load_recording(..., "mfcc", ...)`` and
  ``build_samples``, the path ``extract``, ``train`` and ``eval`` start with.
  MFCC dominates and no model code runs, so it isolates segmentation,
  features and labelling.  Work is seconds of audio.
* ``train``: ``training.train`` for a fixed step budget on samples built in
  set-up (d=40, n=4, B=16, hidden 128, p=0.8), LSTM then transformer, each
  with its validation and checkpoint write.  No audio work runs, so it
  isolates autodiff, model, rollout and Adam.  Every window is labelled, so
  the sample count is the same for every seed.  Work is batch rows.
* ``infer``: what ``ablate`` does: load the test split with 1024-d ``file:``
  embeddings, then for an LSTM and a transformer checkpoint and n = 0..5
  predict every recording sequentially and score it.  No backward runs;
  the wide input shifts work to the input matmuls and the ragged lengths
  will show the padding cost of any later lockstep batching.  Every window
  is labelled, so each recording is one run and the work per cycle is the
  same for every seed.  Work is windows.
"""

from __future__ import annotations

import hashlib
import math
import wave
from pathlib import Path
from time import perf_counter

import numpy as np

import corpus
from dynstress import evaluation, labelling, model, pipeline, segmentation, training
from dynstress.vad import STRESS_CODE, VadCode, hamming_distance, is_stress, parse_label

HISTORY = 4
LAB = labelling.LabellingConfig(n=HISTORY, lam=0.8, tau=0.5)
ARCHS = ("lstm", "transformer")


class Prep:
    rate_names = {"audio": "prep_audio_s_per_s"}
    FEATURE_CHECKS = 3  # recordings whose MFCC rows are recomputed

    def __init__(self, work: Path, seed: int, tracer):
        self.work = work
        rng = np.random.default_rng(seed)
        self.recordings = corpus.write_corpus(work, rng, [("train", 12, 25, 120)])
        self.records = segmentation.read_manifest(work / "manifest.jsonl")
        self.feature_checks = set(np.random.default_rng(seed + 1).choice(
            len(self.records), self.FEATURE_CHECKS, replace=False).tolist())
        self.run(0)  # warm-up

    def __len__(self):
        return len(self.records)

    def items(self, p):
        return {"audio": float(self.recordings[p].duration_s)}

    def meta(self, p):
        rec = self.recordings[p]
        return {"windows": rec.windows,
                "audio_frames": corpus.mfcc_frame_count(rec.duration_s * corpus.SR)}

    def run(self, p):
        rds = pipeline.load_recording(self.records[p], self.work, "mfcc", LAB)
        return (rds, pipeline.build_samples(rds, HISTORY)), None

    def digest(self, output):
        rds, samples = output
        h = hashlib.sha256()
        for rd in rds:
            h.update(rd.features.tobytes())
            h.update(repr((rd.clip_id, rd.emotion_codes, rd.stress_codes)).encode())
        h.update(repr(len(samples)).encode())
        return h.hexdigest()

    def check(self, p, output):
        rds, samples = output
        rec = self.recordings[p]
        runs = _labelled_runs(corpus.window_labels(rec))
        if len(rds) != len(runs):
            return f"{rec.utterance_id}: {len(rds)} labelled runs, expected {len(runs)}"
        pcm = _decode_wav(self.work / f"{rec.utterance_id}.wav")
        for rd, (lo, labels) in zip(rds, runs):
            emotions = [parse_label(lab) for lab in labels]
            if rd.emotion_codes != emotions:
                return f"{rd.clip_id}: emotion codes differ from the span labels"
            if rd.stress_codes != brute_force_relabel(emotions, LAB):
                return f"{rd.clip_id}: stress codes differ from the brute-force relabel"
            if p in self.feature_checks:
                for row, k in enumerate(range(lo, lo + len(labels))):
                    start = k * corpus.HOP_S * corpus.SR
                    window = pcm[start : start + corpus.WINDOW_S * corpus.SR]
                    ref = reference_mfcc(window)
                    # float64 throughout; 1e-9 leaves room for a reordered
                    # sum but not for a changed formula.
                    if not np.allclose(rd.features[row], ref, rtol=1e-9, atol=1e-9):
                        return f"{rd.clip_id}: MFCC row {row} differs from recomputation"
        expected = sum(max(0, len(labels) - HISTORY) for _, labels in runs)
        if len(samples) != expected:
            return f"{rec.utterance_id}: {len(samples)} samples, expected {expected}"
        return None


class Train:
    rate_names = {arch: f"train_{arch}_samples_per_s" for arch in ARCHS}
    # Step budgets give each architecture about half of the cycle's time.
    STEPS = {"lstm": 24, "transformer": 8}
    BATCH = 16

    def __init__(self, work: Path, seed: int, tracer):
        self.work, self.tracer, self.seed = work, tracer, seed
        rng = np.random.default_rng(seed)
        corpus.write_corpus(work, rng, [("train", 10, 60, 160), ("val", 3, 60, 120)],
                            feature_dim=40, gaps=False)
        by_split: dict[str, list] = {}
        for rec in segmentation.read_manifest(work / "manifest.jsonl"):
            for rd in pipeline.load_recording(rec, work, f"file:{work / 'feats'}", LAB):
                by_split.setdefault(rd.split, []).append(rd)
        self.train_samples = pipeline.build_samples(by_split["train"], HISTORY)
        self.val_samples = pipeline.build_samples(by_split["val"], HISTORY)
        for arch in ARCHS:  # warm-up
            self._train(arch, steps=1)

    def __len__(self):
        return len(ARCHS)

    def items(self, p):
        return {ARCHS[p]: float(self.STEPS[ARCHS[p]] * self.BATCH)}

    def meta(self, p):
        return {}

    def _train(self, arch, steps):
        tcfg = training.TrainConfig(epochs=1, iterations_per_epoch=steps,
                                    batch_size=self.BATCH, seed=self.seed)
        mcfg = model.ModelConfig(arch=arch, feature_dim=40)
        result = training.train(self.train_samples, self.val_samples, tcfg, mcfg,
                                self.work / "out" / arch)
        return result["history"]

    def run(self, p):
        arch = ARCHS[p]
        self.tracer.lane = arch
        try:
            return self._train(arch, self.STEPS[arch]), None
        finally:
            self.tracer.lane = ""

    def digest(self, output):
        return repr(output)

    def check(self, p, output):
        for epoch, step, train_loss, val_loss, *_ in output:
            if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
                return f"{ARCHS[p]}: non-finite loss {train_loss} / {val_loss}"
        return None

    @staticmethod
    def loss(output):
        """Mean training BCE over the step budget."""
        return output[0][2]


class Infer:
    rate_names = {arch: f"infer_{arch}_windows_per_s" for arch in ARCHS}
    N_VALUES = range(6)

    def __init__(self, work: Path, seed: int, tracer):
        self.work, self.tracer = work, tracer
        rng = np.random.default_rng(seed)
        self.recordings = corpus.write_corpus(work, rng, [("test", 6, 30, 110)],
                                              feature_dim=1024, gaps=False)
        self.records = segmentation.read_manifest(work / "manifest.jsonl")
        self.ckpts = []
        for arch in ARCHS:
            path = work / f"{arch}.ckpt"
            corpus.write_checkpoint(path, arch, 1024, rng)
            self.ckpts.append((arch, path))
        self._load()
        for _, path in self.ckpts:  # warm-up, the same work for every seed
            params, mcfg = model.load_checkpoint(path)
            pipeline.predict_recording(np.zeros((8, 1024)), HISTORY, params, mcfg)

    def __len__(self):
        return 1

    def _load(self):
        spec = f"file:{self.work / 'feats'}"
        return [rd for rec in self.records
                for rd in pipeline.load_recording(rec, self.work, spec, LAB)]

    def items(self, p):
        labelled = sum(sum(lab is not None for lab in corpus.window_labels(rec))
                       for rec in self.recordings)
        return {arch: float(labelled * len(self.N_VALUES)) for arch in ARCHS}

    def meta(self, p):
        return {"windows": sum(rec.windows for rec in self.recordings)}

    def run(self, p):
        rds = self._load()
        codes, reports, seconds = {}, {}, {}
        for arch, path in self.ckpts:
            self.tracer.lane = arch
            t0 = perf_counter()
            params, mcfg = model.load_checkpoint(path)
            for n in self.N_VALUES:
                preds, truths, per_rd = [], [], []
                for rd in rds:
                    got = pipeline.predict_recording(rd.features, n, params, mcfg)
                    per_rd.append(got)
                    preds.extend(is_stress(c) for c in got)
                    truths.extend(is_stress(c) for c in rd.stress_codes)
                codes[arch, n] = per_rd
                reports[arch, n] = evaluation.score_segment_level(preds, truths)
            seconds[arch] = perf_counter() - t0
        self.tracer.lane = ""
        return (rds, codes, reports), seconds

    def digest(self, output):
        _, codes, reports = output
        return repr(sorted(codes.items())) + repr(sorted(reports.items()))

    def check(self, p, output):
        rds, codes, reports = output
        for arch, path in self.ckpts:
            params, mcfg = model.load_checkpoint(path)
            for n in self.N_VALUES:
                for rd, got in zip(rds, codes[arch, n]):
                    if got != plain_predict(rd.features, n, params, mcfg):
                        return f"{arch} n={n} {rd.clip_id}: codes differ from a plain loop"
                windows = sum(len(rd.stress_codes) for rd in rds)
                if reports[arch, n].total != windows:
                    return f"{arch} n={n}: scored {reports[arch, n].total} of {windows} windows"
        return None


WORKLOADS = {"prep": Prep, "train": Train, "infer": Infer}


def brute_force_relabel(emotions, cfg):
    """Independent transcription of the decayed-Hamming relabelling rule."""
    threshold = cfg.tau * sum(2.0 * math.exp(-cfg.lam * k) for k in range(cfg.n + 1))
    out = []
    for t in range(len(emotions)):
        theta = 0.0
        for tp in range(t, max(-1, t - cfg.n - 1), -1):
            theta += math.exp(-cfg.lam * (t - tp)) * hamming_distance(
                STRESS_CODE, emotions[tp])
        out.append(STRESS_CODE if theta <= threshold else emotions[t])
    return out


def reference_mfcc(window):
    """Pooled MFCC of one 10 s window, transcribed from the paper's recipe
    rather than taken from the library: pre-emphasis 0.97, 25 ms / 10 ms Hann
    frames, magnitude of a 512-point FFT, 64 triangular HTK mel filters over
    0-8 kHz, log with a 1e-10 floor, orthonormal DCT-II, first 40
    coefficients, mean over frames."""
    flen, fhop, n_fft, n_mels, n_coeffs = 400, 160, 512, 64, 40
    x = np.asarray(window, dtype=np.float64)
    emph = np.concatenate([x[:1], x[1:] - 0.97 * x[:-1]])
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(flen) / (flen - 1))
    frames = np.stack([emph[s : s + flen] * hann
                       for s in range(0, len(emph) - flen + 1, fhop)])
    mag = np.abs(np.fft.rfft(frames, n=n_fft))

    def mel(hz):
        return 2595.0 * np.log10(1.0 + hz / 700.0)

    edges = 700.0 * (10.0 ** (np.linspace(mel(0.0), mel(8000.0), n_mels + 2) / 2595.0) - 1.0)
    freqs = np.arange(n_fft // 2 + 1) * corpus.SR / n_fft
    filters = np.array([
        np.clip(np.minimum((freqs - lo) / (mid - lo), (hi - freqs) / (hi - mid)), 0.0, None)
        for lo, mid, hi in zip(edges, edges[1:], edges[2:])
    ])
    logmel = np.log(np.maximum(mag @ filters.T, 1e-10))
    k, m = np.arange(n_coeffs)[:, None], np.arange(n_mels)[None, :]
    dct = np.sqrt(2.0 / n_mels) * np.cos(np.pi * k * (2 * m + 1) / (2 * n_mels))
    dct[0] /= np.sqrt(2.0)
    return (logmel @ dct.T).mean(axis=0)


def plain_predict(feats, n, params, mcfg):
    """Sequential inference as a plain per-window ``forward_batch`` loop."""
    preds = []
    for t in range(feats.shape[0]):
        lo = max(0, t - n)
        ctx = np.array([(0, 0, 0)] + [c.as_tuple() for c in preds[lo:t]], dtype=np.float64)
        probs = model.forward_batch(feats[lo : t + 1][None], ctx[None], params, mcfg).data[0]
        preds.append(VadCode(*(int(p > 0.5) for p in probs)))
    return preds


def _labelled_runs(labels):
    """(first window, labels) of each maximal run of labelled windows."""
    runs, start = [], None
    for k, lab in enumerate(labels + [None]):
        if lab is not None and start is None:
            start = k
        elif lab is None and start is not None:
            runs.append((start, labels[start:k]))
            start = None
    return runs


def _decode_wav(path):
    with wave.open(str(path), "rb") as wf:
        raw = wf.readframes(wf.getnframes())
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
