"""One workload in one process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode plain|trace|setup

`setup` imports schwarzian_lab, generates the inputs and exits; it is what
`setup_s` times.  `plain` runs timed passes over the workload's operations
until the next pass would overrun `--seconds` (and at least the workload's
minimum number of passes), then checks every result.  Every operation time
is reported twice: as measured, and scaled to the reference host speed by
the calibration loop timed around it (see `run_pass`).  The package's memoized
functions (the `sigma_a` / `sigma_b` expansions) are cleared before every
pass, so each pass expands what it uses, as one CLI invocation does.
`trace` does the same with the layer tracer installed; its per-layer
metrics come from the first pass.  The last line of standard output is one
JSON document.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

CALIBRATION_N = 300_000
# the calibration loop's time at the host speed that scaled times refer to
REFERENCE_CALIB_S = 0.020
# operation time between two calibrations within a pass
SEGMENT_S = 0.25


def calibrate() -> float:
    """Fixed pure-Python loop; its time tracks the host's current CPU speed."""
    t0 = perf_counter()
    acc = 0
    for i in range(CALIBRATION_N):
        acc += i * i
    return perf_counter() - t0


def library_caches() -> list:
    """The lru-cached functions of the imported schwarzian_lab modules."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "schwarzian_lab":
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)) and getattr(value, "__module__", "") == name:
                    found[id(value)] = value
    return list(found.values())


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds` at the reference host speed, given the calibration loop's
    times just before and just after it was measured."""
    return seconds * REFERENCE_CALIB_S / ((before + after) / 2)


def run_pass(workload, tracer, pass_index, calib_s):
    """Time every operation of one pass; return the per-op times as measured
    and as scaled, the outcomes, the op ids used for tracing and the results.

    The host's speed drifts in phases of seconds to minutes, so the
    calibration loop runs before the first operation, after the last one,
    and between two operations whenever SEGMENT_S of operation time has
    passed since the last calibration.  Each operation's scaled time uses
    the two calibrations around its segment.  Calibrations, like the checks,
    are outside the timed calls; their times are appended to `calib_s`."""
    done, outcomes, op_times, scaled, op_ids = {}, [], [], [], []
    before = calibrate()
    calib_s.append(before)
    segment_start, segment_s = 0, 0.0
    for i, op in enumerate(workload.ops):
        op_id = pass_index * len(workload.ops) + i
        if tracer is not None:
            tracer.begin_op(op_id)
        t0 = perf_counter()
        try:
            result, error = op.call(done), None
        except Exception as exc:  # a raising operation is a failed one
            result, error = None, f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        if tracer is not None:
            tracer.end_op(op_id, op.name, t0, t1)
        op_times.append(t1 - t0)
        op_ids.append(op_id)
        done[op.name] = result
        outcomes.append((op, result, error))
        segment_s += t1 - t0
        if segment_s >= SEGMENT_S or i == len(workload.ops) - 1:
            after = calibrate()
            calib_s.append(after)
            scaled.extend(scale(t, before, after) for t in op_times[segment_start:])
            before, segment_start, segment_s = after, len(op_times), 0.0
    return op_times, scaled, outcomes, op_ids, done


def check_pass(outcomes, done):
    failures = []
    for op, result, error in outcomes:
        if error is None:
            try:
                error = op.check(result, done)
            except Exception as exc:  # a check that cannot read the result fails it
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"{op.name}: {error}")
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("plain", "trace", "setup"), required=True)
    ap.add_argument("--min-passes", type=int, default=None, help="override the workload's minimum pass count")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    import numpy
    import workloads

    counts = defaultdict(float)
    workload = workloads.build(args.workload, args.seed, counts)
    if args.mode == "setup":
        print(json.dumps({"ready": True}), flush=True)
        return 0

    caches = library_caches()  # before the tracer replaces them with wrappers
    tracer = None
    if args.mode == "trace":
        from layertrace import Tracer

        tracer = Tracer(counts)
        tracer.install()

    pass_s, pass_ref_s, op_s, op_ref_s, calib_s, failures = [], [], [], [], [], []
    attempted = 0
    layer = None
    min_passes = workload.min_passes if args.min_passes is None else args.min_passes
    t_start = perf_counter()
    while True:
        for cache in caches:
            cache.cache_clear()
        times, scaled, outcomes, op_ids, done = run_pass(workload, tracer, len(pass_s), calib_s)
        if tracer is not None and layer is None:
            layer = tracer.metrics(op_ids=set(op_ids), counts=dict(counts))
        pass_s.append(sum(times))
        pass_ref_s.append(sum(scaled))
        op_s.extend(times)
        op_ref_s.extend(scaled)
        attempted += len(outcomes)
        failures.extend(check_pass(outcomes, done))
        elapsed = perf_counter() - t_start
        if len(pass_s) >= min_passes and elapsed * (len(pass_s) + 1) / len(pass_s) > args.seconds:
            break

    if tracer is not None and args.trace_out:
        out = Path(args.trace_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({"workload": args.workload, "seed": args.seed, **tracer.dump()}))

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "numpy": numpy.__version__,
        "pass_s": pass_s,
        "pass_ref_s": pass_ref_s,
        "op_s": op_s,
        "op_ref_s": op_ref_s,
        "ops_per_pass": len(workload.ops),
        "tail_percentile": workload.tail_percentile,
        "calib_s": calib_s,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layer": layer,
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
