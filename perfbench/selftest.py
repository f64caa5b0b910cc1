"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Every check can fail.  One pass of each workload runs in this process and
   its results are checked with the right references (no failure allowed),
   then with the references of one label perturbed at a time (each label
   must fail at least one operation), then with all of them perturbed
   (every operation must fail).
2. A traced run exits 0 with correct results; run.py itself refuses to print
   metrics other than those BENCHMARK.json declares.
3. In a directory that holds only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.

Exits 0 when all hold.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

from run import HERE, ROOT, SRC, WORKLOADS

SEED = 7


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_references(name: str) -> list:
    """Run one pass of a workload, then re-check its results against
    perturbed references; return the problems found."""
    from worker import check_pass, run_pass
    from workloads import Refs, build

    ref = Refs()
    workload = build(name, SEED, defaultdict(float), ref)
    _, _, outcomes, _, done = run_pass(workload, None, 0, [])
    problems = [f"{name}: fails with the right references: {f}" for f in check_pass(outcomes, done)]
    for label in sorted(ref.labels):
        ref.wrong = {label}
        failed = len(check_pass(outcomes, done))
        print(f"{name}: wrong {label!r} -> {failed} of {len(outcomes)} operations failed")
        if failed == 0:
            problems.append(f"{name}: a wrong {label!r} reference fails no check")
    ref.wrong = {"all"}
    failed = len(check_pass(outcomes, done))
    print(f"{name}: all references wrong -> {failed} of {len(outcomes)} operations failed")
    if failed != len(outcomes):
        problems.append(f"{name}: with every reference wrong only {failed} of {len(outcomes)} operations fail")
    return problems


def main() -> int:
    os.environ.pop("SCHWARZIAN_LAB_THREADS", None)
    sys.path.insert(0, str(SRC))
    problems = []
    for name in WORKLOADS:
        problems += check_references(name)

    proc = bench("--workload", "quadrature-operators", "--seed", str(SEED), "--seconds", "1", "--trace", "1")
    if proc.returncode != 0 or not json.loads(proc.stdout.strip().splitlines()[-1])["correct"]:
        problems.append(f"traced run failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")

    (ROOT / ".bench_build").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "schlicht-bounds", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("benchmark did not fail without the library sources")
        print(f"without sources: exit {proc.returncode}, {proc.stderr.strip().splitlines()[-1]}")

    for problem in problems:
        print("SELFTEST FAILED:", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
