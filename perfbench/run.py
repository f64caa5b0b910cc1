"""schwarzian-lab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: schlicht-bounds,
identity-suites, quadrature-operators (see perfbench/README.md).  The
library runs from `src/` as it is; nothing is built.

`--trace 0` prints the end-to-end metrics: `setup_s` (median over fresh
processes that import the package and generate the inputs, half of them
started before the workload process and half after it), then from one
single-threaded workload process `run_s` (median pass time), `op_s.p50`,
`op_s.tail`, `peak_rss_mb` and `pass_share`.  The times are scaled to the
reference host speed by a calibration loop timed around each measurement
(worker.scale); the unscaled medians are printed beside them.  `--trace 1`
runs the workload untraced and then traced, each for half of `--seconds`,
and prints the per-layer metrics of the first traced pass with
`trace.overhead_s` and `host.calib_s`.  Metric names and units come from
BENCHMARK.json.  The last line of standard output is the JSON result; every
check failure is also listed on standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

from worker import calibrate, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
# fresh processes timed for setup_s, on each side of the workload process:
# the host's speed drifts in phases, so the samples straddle the run
SETUP_RUNS_EACH_SIDE = 10
DEADLINE_S = 170.0


def worker_env() -> dict:
    """Single-threaded workload environment: the norm sampler's thread pool
    is switched off (ROADMAP measured it slower) and so are BLAS threads."""
    env = dict(os.environ)
    env.pop("SCHWARZIAN_LAB_THREADS", None)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def worker_cmd(args, mode: str, seconds: float, extra=()) -> list:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(seconds), "--mode", mode, *extra]


class BenchError(RuntimeError):
    pass


def remaining(deadline: float) -> float:
    left = deadline - monotonic()
    if left <= 0:
        raise BenchError("benchmark deadline exceeded")
    return left


def run_worker(cmd, deadline: float) -> dict:
    """Run a worker to completion (it is killed on timeout) and parse its
    JSON report from the last line of its output."""
    try:
        proc = subprocess.run(cmd, env=worker_env(), capture_output=True, text=True, timeout=remaining(deadline))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {' '.join(cmd)}\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def time_setup(cmd, deadline: float) -> float:
    """Seconds from spawning a fresh process until it reports that the
    package is imported and the inputs are generated, scaled by the
    calibration loop timed before the spawn and after the process ended."""
    before = calibrate()
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, env=worker_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        _, err = proc.communicate(timeout=remaining(deadline))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line.strip():
        raise BenchError(f"setup failed ({proc.returncode}): {' '.join(cmd)}\n{err.strip()}")
    return scale(elapsed, before, calibrate())


def read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def environment(numpy_version: str) -> dict:
    cpuinfo = read_text("/proc/cpuinfo")
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if line.startswith("model name")), "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (read_text(str(index / f)).strip() for f in ("level", "type", "size"))
        caches[f"L{level} {kind}"] = size
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu": model,
        "caches": caches,
        "source_sha256": digest.hexdigest(),
    }


def end_to_end(report: dict, setup_s: float) -> dict:
    ops = report["op_ref_s"]
    return {
        "setup_s": setup_s,
        "run_s": statistics.median(report["pass_ref_s"]),
        "op_s.p50": statistics.median(ops),
        "op_s.tail": statistics.quantiles(ops, n=100, method="inclusive")[report["tail_percentile"] - 1],
        "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
        "pass_share": 1.0 - report["failed"] / report["attempted"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = monotonic() + DEADLINE_S
    if not (SRC / "schwarzian_lab" / "__init__.py").is_file():
        raise BenchError(f"no library sources under {SRC}; run from the root of a schwarzian-lab checkout")

    if args.trace:
        # half the time untraced, half traced; one pass each is enough here
        plain = run_worker(worker_cmd(args, "plain", args.seconds / 2, ["--min-passes", "1"]), deadline)
        trace_out = ROOT / ".bench_build" / "perfbench" / f"trace-{args.workload}-{args.seed}.json"
        traced = run_worker(worker_cmd(args, "trace", args.seconds / 2, ["--min-passes", "1", "--trace-out", str(trace_out)]),
                            deadline)
        reports = [plain, traced]
        values = dict(traced["layer"])
        values["trace.overhead_s"] = statistics.median(traced["pass_ref_s"]) - statistics.median(plain["pass_ref_s"])
        values["host.calib_s"] = statistics.median(plain["calib_s"])
    else:
        setup_cmd = worker_cmd(args, "setup", 0.0)
        setups = [time_setup(setup_cmd, deadline) for _ in range(SETUP_RUNS_EACH_SIDE)]
        plain = run_worker(worker_cmd(args, "plain", args.seconds), deadline)
        setups += [time_setup(setup_cmd, deadline) for _ in range(SETUP_RUNS_EACH_SIDE)]
        reports = [plain]
        values = end_to_end(plain, statistics.median(setups))
    declared = [m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]]
    if sorted(values) != sorted(declared):
        raise BenchError(f"metrics {sorted(values)} differ from BENCHMARK.json {sorted(declared)}")

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    for r in reports:
        for failure in r["failures"]:
            print(f"FAILED [{r['mode']}] {failure}", file=sys.stderr)

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(environment(plain["numpy"]), sort_keys=True))
    for r in reports:
        print(f"  {r['mode']} passes: {len(r['pass_s'])} x {r['ops_per_pass']} operations, "
              f"wall s per pass min {min(r['pass_s']):.4f} median {statistics.median(r['pass_s']):.4f} "
              f"max {max(r['pass_s']):.4f}; scaled median {statistics.median(r['pass_ref_s']):.4f}")
    if not args.trace:
        raw = plain["op_s"]
        print(f"  op_s.tail is p{plain['tail_percentile']} of {len(raw)} operations; unscaled op_s.p50 "
              f"{statistics.median(raw):.6g} s, op_s.tail "
              f"{statistics.quantiles(raw, n=100, method='inclusive')[plain['tail_percentile'] - 1]:.6g} s")
    print(f"  fail_share {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    print(f"  host.calib_s {statistics.median(plain['calib_s']):.6f} s (fixed pure-Python loop between operations; "
          f"{len(plain['calib_s'])} times, min {min(plain['calib_s']):.6f} max {max(plain['calib_s']):.6f})")
    for name, value in values.items():
        print(f"  {name:30s} {value:.6g} {UNITS[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # a terminated benchmark unwinds through subprocess.run, which kills the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        sys.exit(1)
