"""dynstress benchmark: one workload, one seed, one timed closed loop.

    python3 perfbench/run.py --workload prep|train|infer|all --seed N \
        --seconds S --trace 0|1

The timed loop runs the workload's cycle of operations until ``--seconds``
of loop time have passed and at least two cycles are done.  Set-up (corpus
synthesis, checkpoint writing, warm-up) runs SETUPS times, spread evenly
over the loop: each set-up replaces the state with a fresh one built from the
same seed, outside the loop's clock.  The median set-up is ``setup_s``; since
the host's speed drifts within seconds, set-ups taken back to back would
sample only one moment of it.  Outputs are checked after the loop.  With
``--trace 1`` every other operation is traced (alternating per cycle, so each
operation is seen both ways) and the per-layer metrics come from the traced
ones; the untraced ones give the tracing overhead.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by name and unit, and the run's environment.  The exit
code is 1 when an operation raised or failed a check.
"""

from __future__ import annotations

import ctypes
import os

# One BLAS/OpenMP thread: must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def keep_freed_memory():
    """Make glibc reuse freed memory instead of returning it to the kernel.

    By default every large numpy temporary is a fresh mmap that is faulted in
    page by page and unmapped when freed.  The cost of those page faults
    swings with the load on the host, and it made the MFCC rate vary by a
    third from one minute to the next.  Returns whether both settings took."""
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(libc.mallopt(m_mmap_threshold, 32 << 20)
                and libc.mallopt(m_trim_threshold, 1 << 30))


MALLOC_TUNED = keep_freed_memory()

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUPS = 9
MIN_CYCLES = 2
END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["prep", "train", "infer", "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)), "loadavg": os.getloadavg(),
        "malloc_tuned": MALLOC_TUNED,
    }


def set_up(cls, work, seed, tracer):
    """One set-up in a fresh directory: the state and its seconds."""
    shutil.rmtree(work, ignore_errors=True)
    t0 = perf_counter()
    state = cls(work, seed, tracer)
    return state, perf_counter() - t0


def measure(cls, work, seed, seconds, tracer, trace):
    """Closed loop over the workload's cycle, in SETUPS segments of equal loop
    time with a set-up before each; the last ends after MIN_CYCLES.  Returns
    the last state, the set-up times, the operation records, the first
    output of each operation, the failure messages, and process figures: the
    share of the loop's time spent in the kernel, its minor page faults, and
    peak memory.  Peak memory is read after one set-up and one cycle: later
    operations and set-ups run on a heap that earlier ones fragmented, so the
    peak after them varies with the timing."""
    ops, first, errors, setups = [], {}, [], []
    digests = {}
    loop_s = sys_s = 0.0
    faults = 0
    peak_rss_mb = None
    i = 0
    for k in range(SETUPS):
        wl = None  # release the previous state before building the next
        wl, dt = set_up(cls, work, seed, tracer)
        setups.append(dt)
        n = len(wl)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        start = perf_counter()
        stop = False
        while True:
            cycle, p = divmod(i, n)
            if (loop_s + perf_counter() - start >= (k + 1) * seconds / SETUPS
                    and (k < SETUPS - 1 or cycle >= MIN_CYCLES)):
                break
            traced = bool(trace) and (p + cycle) % 2 == 1
            try:
                t0 = perf_counter()
                if traced:
                    with tracer.tracing(i):
                        output, lanes = wl.run(p)
                else:
                    output, lanes = wl.run(p)
                dt = perf_counter() - t0
            except Exception:
                traceback.print_exc()
                errors.append(f"operation {i} raised")
                ops.append({"i": i, "p": p, "cycle": cycle, "traced": traced, "ok": False})
                stop = True
                break
            if lanes is None:
                lanes = {lane: dt for lane in wl.items(p)}
            ops.append({"i": i, "p": p, "cycle": cycle, "traced": traced, "ok": True,
                        "seconds": dt, "lanes": lanes})
            digest = wl.digest(output)
            if p not in first:
                first[p], digests[p] = output, digest
                if len(first) == n:
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            elif digest != digests[p]:
                errors.append(f"operation {i}: output differs from its first run")
                ops[-1]["ok"] = False
            i += 1
        loop_s += perf_counter() - start
        end = resource.getrusage(resource.RUSAGE_SELF)
        sys_s += end.ru_stime - usage.ru_stime
        faults += end.ru_minflt - usage.ru_minflt
        if stop:
            break
    if peak_rss_mb is None:  # stopped before one cycle was done
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    process = {"sys_share": sys_s / loop_s, "minor_faults": faults,
               "peak_rss_mb": peak_rss_mb}
    return wl, setups, ops, first, errors, process


def rates(wl, ops):
    """Work per second: per operation of the cycle, the median seconds over
    its repeats; work summed over the cycle divided by those medians summed.
    Returns the overall rate and the rate of each lane, by metric name."""
    total_items = total_s = 0.0
    lane_items = dict.fromkeys(wl.rate_names, 0.0)
    lane_s = dict.fromkeys(wl.rate_names, 0.0)
    for p in range(len(wl)):
        runs = [o for o in ops if o["p"] == p and o["ok"]]
        if not runs:
            continue
        items = wl.items(p)
        total_items += sum(items.values())
        total_s += statistics.median(o["seconds"] for o in runs)
        for lane, amount in items.items():
            lane_items[lane] += amount
            lane_s[lane] += statistics.median(o["lanes"][lane] for o in runs)
    overall = total_items / total_s if total_s else 0.0
    return overall, {name: lane_items[lane] / lane_s[lane] if lane_s[lane] else 0.0
                     for lane, name in wl.rate_names.items()}


def traced_metrics(wl, ops, tracer, process, untraced_rate):
    """Per-layer metrics of a traced run, plus the tracing overhead and the
    untraced rate of each lane."""
    import tracing
    # The first MIN_CYCLES cycles trace each operation of the cycle once.
    ref = [o for o in ops if o["traced"] and o["cycle"] < MIN_CYCLES]
    ref_meta: dict[str, float] = {}
    for o in ref:
        for key, value in wl.meta(o["p"]).items():
            ref_meta[key] = ref_meta.get(key, 0) + value
    metrics = tracing.layer_metrics(tracer.spans, {o["i"] for o in ref}, ref_meta)
    traced_rate, _ = rates(wl, [o for o in ops if o["traced"]])
    metrics["trace.overhead_share"] = (
        1.0 - traced_rate / untraced_rate if untraced_rate else 0.0)
    metrics["process.sys_share"] = process["sys_share"]
    done = sum(sum(wl.items(o["p"]).values()) for o in ops if o["ok"])
    metrics["process.minor_faults_per_item"] = (
        process["minor_faults"] / done if done else 0.0)
    return metrics


def run_one(args) -> int:
    src = ROOT / "src"
    if not (src / "dynstress" / "__init__.py").is_file():
        print(f"error: no dynstress sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    tracer = tracing.Tracer(args.workload)
    work = OUT / f"{args.workload}-seed{args.seed}"
    wl, setups, ops, first, errors, process = measure(
        workloads.WORKLOADS[args.workload], work, args.seed, args.seconds, tracer,
        args.trace)
    setup_s = statistics.median(setups)
    for p, output in sorted(first.items()):
        message = wl.check(p, output)
        if message:
            errors.append(message)
            next(o for o in ops if o["p"] == p)["ok"] = False
    shutil.rmtree(work, ignore_errors=True)
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)

    attempted = len(ops)
    failed = sum(not o["ok"] for o in ops)
    overall, lane_rates = rates(wl, [o for o in ops if not o["traced"]])
    losses = {}
    if args.workload == "train":
        losses = {arch: wl.loss(first[p]) for p, arch in enumerate(workloads.ARCHS)
                  if p in first}
    if args.trace:
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        metrics = traced_metrics(wl, ops, tracer, process, overall)
        metrics.update(lane_rates)
        units = tracing.metric_units()
        for cls in workloads.WORKLOADS.values():
            units.update(dict.fromkeys(cls.rate_names.values(), "1/s"))
        # Step latency exists on one workload only, so it is printed here
        # rather than listed among the per-layer metrics.
        extra = {}
        for lane, steps in tracing.step_seconds(tracer.spans).items():
            if len(steps) >= 2:
                deciles = statistics.quantiles(steps, n=10)
                extra[f"training.step_ms_p50.{lane}"] = (1e3 * statistics.median(steps), "ms")
                extra[f"training.step_ms_p90.{lane}"] = (1e3 * deciles[8], "ms")
                extra[f"training.steps_timed.{lane}"] = (len(steps), "count")
    else:
        metrics = {"setup_s": setup_s, "items_per_s": overall,
                   "peak_rss_mb": process["peak_rss_mb"]}
        units = END_TO_END_UNITS
        extra = {name: (rate, "1/s") for name, rate in lane_rates.items()}
    # The loss at a given seed should repeat exactly: any change, up or
    # down, is arithmetic drift, so it is printed but not ranked.
    extra.update({f"train_{arch}_loss": (v, "bce") for arch, v in losses.items()})
    extra["failed_share"] = (failed / attempted, "share")
    for name, (value, unit) in extra.items():
        print(f"metric {name} {value!r} {unit}")
    for name, unit in units.items():
        print(f"metric {name} {metrics.get(name, 0.0)!r} {unit}")
    print("env " + json.dumps(environment()))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in units.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    results, code = {}, 0
    for name in ("prep", "train", "infer"):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"{name}: {line}")
        if proc.returncode != 0:
            code = proc.returncode
        if lines:
            results[name] = json.loads(lines[-1])
    if len(results) < 3:
        return code or 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
