#!/usr/bin/env python3
"""Closed-loop benchmark of quasigor: one client, one task at a time.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The package is imported from ``src/`` next
to this directory.  A run builds the workload's tasks from the seed, then
repeats rounds (one pass over every task) until the timed tasks have
taken ``--seconds``, always finishing the round it is in.  Each task's output is checked after
its timed call.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs
untraced rounds for ``--seconds`` as the baseline, then sets up again and
runs one round with spans around the package's public functions.  It
prints the per-layer metrics and writes the spans to ``.perfbench_out/``.
The last line of standard output is the result object; the line before
it holds the run's details and environment.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
WORKLOAD_NAMES = ("deformation-f2", "generic-gb", "divisor-rings")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small stand-in inputs (self-test)")
    p.add_argument("--setup-only", action="store_true",
                   help="import and build the inputs, then exit (one set-up sample)")
    return p.parse_args(argv)


def import_package():
    """Import quasigor from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import quasigor
    except ImportError as exc:
        raise SystemExit(f"error: cannot import quasigor from {SRC}: {exc}") from None
    if Path(quasigor.__file__).resolve().parent != SRC / "quasigor":
        raise SystemExit(f"error: quasigor was imported from {quasigor.__file__}, not {SRC}")


def source_digest() -> str:
    """Digest of the package and the benchmark, to key determinism records."""
    h = hashlib.sha256()
    for path in sorted([*SRC.joinpath("quasigor").rglob("*"), *BENCH_DIR.rglob("*.py")]):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict:
    from quasigor import fields

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        import gmpy2  # noqa: F401
        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    rational = fields.QQ.one
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "gmpy2": has_gmpy2,
        "rational_backend": f"{type(rational).__module__}.{type(rational).__qualname__}",
        "seed": seed,
        "git_commit": commit,
        "source_digest": source_digest(),
    }


def measure_setup(args) -> list[float]:
    """Wall time of fresh interpreters that import the package and build the
    inputs: interpreter start, import, input generation and parsing."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        # A pipe makes run() wait on the pipe's end, not poll for the exit in
        # steps of up to 50 ms, which would quantize the samples.
        subprocess.run(cmd, check=True, timeout=120, cwd=ROOT, stdout=subprocess.PIPE)
        samples.append(time.perf_counter() - start)
    return samples


class Loop:
    """Runs rounds of tasks and keeps latencies and failure counts."""

    def __init__(self):
        self.latencies: list[float] = []
        self.rounds: list[float] = []
        self.attempted = 0
        self.failed = 0

    def round(self, tasks, tracer=None) -> float:
        from workloads import CheckFailed  # importable once the package is

        busy = 0.0
        for index, task in enumerate(tasks):
            if tracer:
                tracer.task = f"{index}:{task.name}"
                tracer.active = True
            start = time.perf_counter()
            try:
                output = task.run()
                error = None
            except Exception:  # a raising task is a failed task
                error = traceback.format_exc()
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.active = False
            busy += elapsed
            self.latencies.append(elapsed)
            self.attempted += 1
            if error is None:
                try:
                    task.check(output)
                except CheckFailed as exc:
                    error = f"check failed: {exc}"
                except Exception:  # a check that cannot run fails the task too
                    error = traceback.format_exc()
            if error is not None:
                self.failed += 1
                print(f"task {task.name}: {error}", file=sys.stderr)
        self.rounds.append(busy)
        return busy

    def for_seconds(self, tasks, seconds: float):
        """Whole rounds until the timed tasks have taken ``seconds``."""
        while not self.rounds or sum(self.rounds) < seconds:
            self.round(tasks)


def p90_ms(values) -> float:
    """90th percentile in milliseconds (the value itself for one sample)."""
    if len(values) < 2:
        return values[0] * 1000.0
    return statistics.quantiles(values, n=10, method="inclusive")[8] * 1000.0


def end_to_end(args, workloads) -> tuple[dict, dict, Loop]:
    setup = measure_setup(args)
    tasks = workloads.build(args.workload, args.seed, args.tiny)
    loop = Loop()
    loop.for_seconds(tasks, args.seconds)
    metrics = {
        "wall_s": (statistics.median(loop.rounds), "s"),
        "task_p50_ms": (statistics.median(loop.latencies) * 1000.0, "ms"),
        "task_p90_ms": (p90_ms(loop.latencies), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    detail = {
        "tasks_per_round": len(tasks),
        "rounds": len(loop.rounds),
        "round_s": loop.rounds,
        "task_samples": len(loop.latencies),
        "setup_samples_s": setup,
    }
    return metrics, detail, loop


PER_LAYER_UNITS = {"calls": "count", "divisor_gens": "count", "input_gens": "count",
                   "basis_size": "count", "pairs": "count", "zero_pairs": "count",
                   "cells": "count", "useful_ratio": "ratio", "max_bits": "bits"}


def per_layer(args, workloads) -> tuple[dict, dict, Loop]:
    import tracing

    loop = Loop()
    loop.for_seconds(workloads.build(args.workload, args.seed, args.tiny), args.seconds)
    baseline = statistics.median(loop.rounds)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.task, tracer.active = "setup", True
        tasks = workloads.build(args.workload, args.seed, args.tiny)
        tracer.active = False
        traced = loop.round(tasks, tracer)
    finally:
        tracer.uninstall()

    values = tracer.metrics()
    values["trace.overhead_s"] = traced - baseline
    metrics = {name: (value, PER_LAYER_UNITS.get(name.rsplit(".", 1)[1], "s"))
               for name, value in values.items()}

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}"
    spans_path = OUT_DIR / f"spans-{stem}.jsonl"
    tracer.write(spans_path)
    counters = {name: values[name] for name in tracing.DETERMINISTIC}
    drift = check_determinism(OUT_DIR / f"counters-{stem}-{source_digest()}.json", counters)
    detail = {
        "untraced_round_s": baseline,
        "traced_round_s": traced,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "counters": counters,
        "counter_drift": drift,
    }
    return metrics, detail, loop


def check_determinism(record: Path, counters: dict) -> dict:
    """Compare the deterministic counters with an earlier run of the same
    seed and source tree; the first run writes the record."""
    if not record.exists():
        record.write_text(json.dumps(counters, sort_keys=True) + "\n", encoding="utf-8")
        return {}
    earlier = json.loads(record.read_text(encoding="utf-8"))
    drift = {k: [earlier.get(k), v] for k, v in counters.items() if earlier.get(k) != v}
    for name, (was, now) in drift.items():
        print(f"error: nondeterministic counter {name}: {was} before, {now} now", file=sys.stderr)
    return drift


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import workloads

    if args.setup_only:
        workloads.build(args.workload, args.seed, args.tiny)
        return 0

    env = environment(args.seed)
    measure = per_layer if args.trace else end_to_end
    metrics, detail, loop = measure(args, workloads)
    detail["fail_frac"] = loop.failed / loop.attempted
    drift = detail.get("counter_drift")
    result = {
        "correct": loop.failed == 0 and not drift,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "tiny": args.tiny, "environment": env, "detail": detail}
    OUT_DIR.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    (OUT_DIR / name).write_text(json.dumps({**record, "result": result}, indent=2) + "\n",
                                encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
