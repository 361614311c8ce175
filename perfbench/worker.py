"""One benchmark workload in a fresh process; started by ``perfbench/run.py``.

    python3 perfbench/worker.py --workload NAME --setup
        import the package, build the workload's program state, and print the
        monotonic clock at the point where the first timed call would start,
        then one timing of the reference loop.
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        run the workload and print one JSON line with its figures.

Untraced runs are a closed loop: one call at a time, each starting when the
previous one returns, until the next call would end after ``--seconds``.
Before each call and after the last one, the run times a fixed pure-Python
loop (``reference_loop``), which tells ``run.py`` how fast the host ran.
Traced runs alternate two untraced and two traced passes over a fixed list of
cases, and check that the deterministic counts of the two traced passes agree
and obey their conservation laws.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

import numpy

from workloads import Checks, workloads

MIN_CALLS = 3
REFERENCE_ITERATIONS = 500_000

ap = argparse.ArgumentParser()
ap.add_argument("--workload", required=True)
ap.add_argument("--setup", action="store_true")
ap.add_argument("--seed", type=int)
ap.add_argument("--seconds", type=float)
ap.add_argument("--trace", type=int, choices=(0, 1))


def reference_loop() -> float:
    """Seconds taken by a fixed integer loop that touches no package code:
    a probe of the interpreter's speed on the host at this moment."""
    t0 = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - t0


def timed_run(wl, seed: int, seconds: float) -> dict:
    """Closed loop over the seed's cases; returns the work and the timed
    seconds of every step, per rate, and the reference loop's timings."""
    base = wl.setup()
    cases = wl.cases(seed)
    checks = Checks()
    work: dict[str, list[float]] = {r: [] for r in wl.rates}
    timed: dict[str, list[float]] = {r: [] for r in wl.rates}
    reference: list[float] = []
    start = time.monotonic()
    calls = 0
    last = 0.0
    while calls < MIN_CALLS or time.monotonic() - start + last <= seconds:
        case = cases[calls % len(cases)]
        wl.prepare([case])
        reference.append(reference_loop())
        outputs = []
        last = 0.0
        for step in wl.steps(case, base):
            t0 = time.perf_counter()
            outputs.append(step.fn())
            dt = time.perf_counter() - t0
            work[step.rate].append(step.work)
            timed[step.rate].append(dt)
            last += dt
        wl.check(case, outputs, checks)
        calls += 1
    reference.append(reference_loop())
    return {
        "calls": calls,
        "work": work,
        "seconds": timed,
        "reference_s": reference,
        "checks": checks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _pass(wl, base, cases, tracer=None) -> tuple[float, list]:
    """Run every case once; returns (wall seconds, outputs per case)."""
    wall = 0.0
    results = []
    for case in cases:
        outputs = []
        for step in wl.steps(case, base):
            t0 = time.perf_counter()
            if tracer is None:
                outputs.append(step.fn())
            else:
                outputs.append(tracer.span(f"bench.{step.rate}", step.fn))
            wall += time.perf_counter() - t0
        if tracer is not None:
            tracer.end_call()
        results.append((case, outputs))
    return wall, results


def traced_run(wl, seed: int) -> dict:
    import layers
    from tracing import Tracer

    base = wl.setup()
    cases = wl.cases(seed)[:wl.trace_cases]
    wl.prepare(cases)
    untraced = []
    passes = []
    results = []
    for _ in range(2):
        wall, outputs = _pass(wl, base, cases)
        untraced.append(wall)
        tracer = Tracer()
        tracer.install()
        try:
            wall, traced = _pass(wl, base, cases, tracer)
        finally:
            tracer.remove()
        passes.append((tracer, wall))
        results += outputs + traced
    checks = Checks()
    for case, outputs in results:
        wl.check(case, outputs, checks)
    metrics = layers.layer_metrics(passes, statistics.mean(untraced), checks)
    return {"calls": len(results), "checks": checks, "metrics": metrics}


def main() -> int:
    args = ap.parse_args()
    if not args.setup and None in (args.seed, args.seconds, args.trace):
        ap.error("a run needs --seed, --seconds and --trace")
    wl = workloads()[args.workload]
    if args.setup:
        wl.setup()
        ready = time.monotonic()
        print(json.dumps({"ready": ready, "reference_s": reference_loop()}), flush=True)
        return 0
    try:
        if args.trace:
            out = traced_run(wl, args.seed)
        else:
            out = timed_run(wl, args.seed, args.seconds)
    finally:
        wl.cleanup()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out["env"] = {"numpy": numpy.__version__, "blas": blas.get("name"),
                  "blas_version": blas.get("version")}
    checks = out.pop("checks")
    out.update(attempted=checks.attempted, failed=checks.failed, correct=checks.correct,
               notes=checks.notes)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
