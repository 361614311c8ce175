"""Freeze the golden outputs that the benchmark compares byte for byte.

    PYTHONPATH=src python3 perfbench/freeze.py [desk_sim gossip_wide fork_replay]

Writes ``perfbench/goldens/<workload>.json``: for each case of the
workload's pool, the ``metrics.json`` text of a simulation, or the digests of
a generated trace and of its ``replay.jsonl``. Rerun only when a change is
meant to alter these outputs, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import sys

from workloads import GOLDENS, ReplayWorkload, SimWorkload, sha256, workloads


def freeze(wl) -> dict:
    base = wl.setup()
    golden = {}
    for case in wl.pool:
        (step,) = wl.steps(case, base)
        output = step.fn()
        if isinstance(wl, SimWorkload):
            golden[str(case)] = wl.output(output)
        else:
            rc, text = output
            if rc != 0:
                raise SystemExit(f"replay of trace {case} exited {rc}")
            golden[str(case)] = {"trace_sha256": wl.trace(case)[2],
                                 "replay_sha256": sha256(text)}
        print(wl.name, case, file=sys.stderr)
    return golden


def main() -> int:
    all_workloads = workloads()
    names = sys.argv[1:] or ["desk_sim", "gossip_wide", "fork_replay"]
    GOLDENS.mkdir(exist_ok=True)
    for name in names:
        wl = all_workloads[name]
        if not isinstance(wl, (SimWorkload, ReplayWorkload)):
            raise SystemExit(f"{name} has no goldens")
        try:
            golden = freeze(wl)
        finally:
            wl.cleanup()
        with open(GOLDENS / f"{name}.json", "w") as fp:
            json.dump(golden, fp, indent=1, sort_keys=True)
            fp.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
