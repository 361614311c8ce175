"""Benchmark entry point: run one workload and print its figures.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The workload runs in a fresh
single-threaded child process (``perfbench/worker.py``) with BLAS pinned to
one thread; set-up time is measured on separate child processes that only
import the package and build the workload's state. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the environment and
the workload's own rates, including the failure rate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# workload -> seconds allowed for a traced run, about four times what one took
# on a 2-core host, so that a host twice as slow still finishes
TRACE_ALLOWANCE_S = {"desk_sim": 120.0, "gossip_wide": 60.0, "fork_replay": 80.0,
                     "attack_sweep": 60.0}
# median time of worker.reference_loop on the 2-core host where the benchmark
# was built; work_per_s and setup_s are scaled to a host that runs it this fast
NOMINAL_REFERENCE_S = 0.055
SETUP_PROBES = 4            # set-up probes before the run, and again after it
RUN_SLACK_S = 60.0          # allowance for set-up probes and worker start-up
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in BLAS_VARS:
        env[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "blockclique").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def child(args: list[str], deadline: float) -> str:
    """Run a worker to completion and return its last stdout line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for the workload")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                           + proc.stderr[-4000:])
    return proc.stdout.strip().splitlines()[-1]


def nominal_seconds(timed: list[float], reference: list[float]) -> float:
    """Seconds the calls would have taken on the nominal host. Call i is
    scaled by the reference loop timed just before it (``reference[i]``) and
    just after it (``reference[i + 1]``)."""
    assert len(reference) == len(timed) + 1
    return sum(dt * 2 * NOMINAL_REFERENCE_S / (before + after)
               for dt, before, after in zip(timed, reference, reference[1:]))


def setup_seconds(workload: str, deadline: float, warm_up: bool) -> list[tuple]:
    """Set-up time of ``SETUP_PROBES`` fresh processes, each with a timing of
    the reference loop made right after it. A warm-up probe is discarded; it
    leaves the bytecode caches as an installed package would have them."""
    samples = []
    for _ in range(SETUP_PROBES + warm_up):
        start = time.monotonic()
        probe = json.loads(child(["--workload", workload, "--setup"], deadline))
        samples.append((probe["ready"] - start, probe["reference_s"]))
    return samples[warm_up:]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=TRACE_ALLOWANCE_S)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "blockclique" / "__init__.py").is_file():
        print(f"no blockclique sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    allowance = (TRACE_ALLOWANCE_S[args.workload] if args.trace
                 else RUN_SLACK_S + 2 * args.seconds)
    deadline = time.monotonic() + allowance
    env = {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "blas_threads": min(BLAS_THREADS, os.cpu_count() or 1),
    }
    run = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        if args.trace:
            result = json.loads(child(run, deadline))
        else:
            # probes on both sides of the run see more of the host's drift
            setup = setup_seconds(args.workload, deadline, warm_up=True)
            result = json.loads(child(run, deadline))
            setup += setup_seconds(args.workload, deadline, warm_up=False)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    attempted, failed = result["attempted"], result["failed"]
    env.update(result["env"])
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "env": env,
        "calls": result["calls"],
        "failure_rate": failed / attempted,
        "notes": result["notes"],
    }
    if args.trace:
        metrics = result["metrics"]
    else:
        work, timed = result["work"], result["seconds"]
        rates = {r: sum(work[r]) / sum(timed[r]) for r in work}
        reference = result["reference_s"]
        nominal_rates = {r: sum(work[r]) / nominal_seconds(timed[r], reference) for r in work}
        setup_s, setup_reference_s = zip(*setup)
        setup_host_speed = NOMINAL_REFERENCE_S / statistics.median(setup_reference_s)
        metrics = {
            "setup_s": {"value": statistics.median(setup_s) * setup_host_speed, "unit": "s"},
            "work_per_s": {"value": nominal_rates[next(iter(rates))], "unit": "1/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        details.update(rates=rates, nominal_rates=nominal_rates, reference_samples_s=reference,
                       setup_host_speed=setup_host_speed, setup_samples_s=setup_s,
                       setup_reference_samples_s=setup_reference_s, rate_samples={
            r: [w / t for w, t in zip(work[r], timed[r])] for r in work})
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": result["correct"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
