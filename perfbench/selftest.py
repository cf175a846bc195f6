#!/usr/bin/env python3
"""Self-test of the benchmark, run from the repository root:

    python3 perfbench/selftest.py

1. Runs every workload at tiny size through run.py, untraced and traced
   (the traced run twice), and checks that each result is correct and
   names exactly the metrics BENCHMARK.json lists, each with its unit.
2. Checks that a changed counter is reported as drift.
3. Corrupts one output of each workload on purpose and checks that the
   workload's output check rejects it.
4. Runs run.py in a directory that holds only BENCHMARK.json and the
   benchmark, where it must fail without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
failures: list[str] = []


def expect(condition: bool, message: str):
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT, env=None):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


def check_results():
    for workload in run.WORKLOAD_NAMES:
        for trace, group in ((0, "end_to_end"), (1, "per_layer"), (1, "per_layer")):
            done = run_benchmark(workload, trace)
            label = f"{workload} --trace {trace}"
            if done.returncode != 0:
                expect(False, f"{label} exited {done.returncode}: {done.stderr.strip()[-300:]}")
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label} is correct with no failed tasks")
            wanted = {m["name"]: m["unit"] for m in SPEC[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted, f"{label} reports every {group} metric with its unit"
                   + ("" if got == wanted else f" (differs: {set(got.items()) ^ set(wanted.items())})"))


def check_drift_detection():
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as tmp:
        record = Path(tmp) / "counters.json"
        expect(run.check_determinism(record, {"groebner.pairs": 10}) == {}, "first record is written")
        expect(run.check_determinism(record, {"groebner.pairs": 10}) == {}, "same counters: no drift")
        expect(run.check_determinism(record, {"groebner.pairs": 11}) == {"groebner.pairs": [10, 11]},
               "changed counter is reported as drift")


def rejected(task, output) -> bool:
    try:
        task.check(output)
    except workloads.CheckFailed:
        return True
    return False


def check_corruption():
    from quasigor.groebner import GroebnerBasis

    (pipeline,) = workloads.build("deformation-f2", 7, tiny=True)
    code, text = pipeline.run()
    expect(not rejected(pipeline, (code, text)), "deformation-f2: true output passes")
    expect(rejected(pipeline, (2, text)), "deformation-f2: nonzero exit code is rejected")
    expect(rejected(pipeline, (code, text.replace('"mu_canonical": 1', '"mu_canonical": 2'))),
           "deformation-f2: changed report is rejected")

    gb_task, *_, edge_task = workloads.build("generic-gb", 7, tiny=True)
    out = gb_task.run()
    expect(not rejected(gb_task, out), "generic-gb: true output passes")
    basis = out["basis"]
    expect(rejected(gb_task, {**out, "basis": GroebnerBasis(basis.ring, basis.order, basis.polys[:-1])}),
           "generic-gb: basis missing an element is rejected")
    two = basis.ring.field.scalar(2)
    scaled = (basis.polys[0].scaled(two),) + basis.polys[1:]
    expect(rejected(gb_task, {**out, "basis": GroebnerBasis(basis.ring, basis.order, scaled)}),
           "generic-gb: non-monic basis is rejected")
    expect(rejected(gb_task, {**out, "members": [False] + out["members"][1:]}),
           "generic-gb: wrong membership answer is rejected")
    dimension = edge_task.run()
    expect(not rejected(edge_task, dimension), "generic-gb: true edge-ideal dimension passes")
    expect(rejected(edge_task, dimension + 1), "generic-gb: wrong edge-ideal dimension is rejected")

    divisor_task = workloads.build("divisor-rings", 7, tiny=True)[0]
    out = divisor_task.run()
    expect(not rejected(divisor_task, out), "divisor-rings: true output passes")
    gens, rels = out["degrees"]
    expect(rejected(divisor_task, {**out, "degrees": (gens[:-1], rels)}),
           "divisor-rings: wrong generator degrees are rejected")
    expect(rejected(divisor_task, {**out, "kuenneth": [k + 1 for k in out["kuenneth"]]}),
           "divisor-rings: wrong Kuenneth dimensions are rejected")


def check_bare_directory():
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path, ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        done = run_benchmark("generic-gb", 0, cwd=Path(bare), env=env)
        expect(done.returncode != 0 and '"metrics"' not in done.stdout,
               "without the package the benchmark fails and prints no result")


if __name__ == "__main__":
    run.import_package()
    import workloads

    run.OUT_DIR.mkdir(exist_ok=True)
    check_results()
    check_drift_detection()
    check_corruption()
    check_bare_directory()
    print(f"{len(failures)} failure(s)")
    raise SystemExit(1 if failures else 0)
