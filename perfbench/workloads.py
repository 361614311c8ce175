"""The four benchmark workloads: their inputs, timed steps and output checks.

A workload turns the benchmark seed into an ordered list of cases. Running a
case means running its timed steps, one at a time, and then checking what
they returned. Every step reports the work it did in its own unit (simulated
seconds, replayed blocks, analyzer rows, Monte Carlo walks); the first rate
of a workload is its headline ``work_per_s``.

Outputs of ``desk_sim``, ``gossip_wide`` and ``fork_replay`` are compared
byte for byte with goldens frozen by ``perfbench/freeze.py``. The seed picks
the order in which a run visits the frozen cases, so every seed is checkable.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
from pathlib import Path

from blockclique import cli, netsim, security
from blockclique.chain import write_trace
from blockclique.netsim import SimConfig, apply_overrides

from forkgen import fork_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDENS = HERE / "goldens"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Checks:
    """Tally of checks. A failed check counts against ``failure_rate``; a
    failed check that marks wrong output (a golden mismatch, a broken law)
    also makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes: list[str] = []

    def check(self, ok: bool, note: str, wrong_output: bool = True) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.correct = self.correct and not wrong_output
            if note not in self.notes and len(self.notes) < 20:
                self.notes.append(note)
        return ok


class Step:
    """One timed call: ``fn()`` does ``work`` units of ``rate`` work."""

    def __init__(self, rate: str, work: float, fn):
        self.rate = rate
        self.work = work
        self.fn = fn


class Workload:
    name = ""
    rates: tuple = ()
    trace_cases = 1
    pool: list = []
    _golden = None

    def cases(self, seed: int) -> list:
        """The run's cases: the frozen pool in an order drawn from the seed."""
        order = list(self.pool)
        random.Random(seed).shuffle(order)
        return order

    def golden(self) -> dict:
        if self._golden is None:
            with open(GOLDENS / f"{self.name}.json") as fp:
                self._golden = json.load(fp)
        return self._golden

    def prepare(self, cases: list) -> None:
        """Build the inputs of ``cases`` before they are timed."""

    def cleanup(self) -> None:
        """Remove what the run wrote."""


# -- network simulations ------------------------------------------------------

class SimWorkload(Workload):
    """``run_simulation`` on a config file with a few fields overridden; each
    case is one simulator seed, and its golden is the ``metrics.json`` text
    that ``blockclique simulate`` writes for it."""

    rates = ("sim_speed",)

    def __init__(self, name: str, config: str, overrides: dict, pool_size: int,
                 trace_cases: int):
        self.name = name
        self.config = ROOT / config
        self.overrides = overrides
        self.pool = list(range(1, pool_size + 1))
        self.trace_cases = trace_cases

    def setup(self) -> SimConfig:
        with open(self.config) as fp:
            return apply_overrides(SimConfig.from_dict(json.load(fp)), self.overrides)

    def output(self, metrics) -> str:
        record = metrics.to_dict()
        record["manifest"] = cli.MANIFEST_NAME
        return cli.canonical_json(record) + "\n"

    def steps(self, case, base: SimConfig) -> list[Step]:
        cfg = apply_overrides(base, {"seed": str(case)})
        return [Step("sim_speed", cfg.duration, lambda: netsim.run_simulation(cfg))]

    def check(self, case, outputs: list, checks: Checks) -> None:
        text = self.output(outputs[0])
        want = self.golden().get(str(case))
        checks.check(text == want, f"{self.name} seed {case}: metrics.json differs from golden")


# -- trace replay ---------------------------------------------------------------

class ReplayWorkload(Workload):
    """``blockclique replay`` in-process on a generated fork-heavy trace, with
    validation on and default protocol parameters; each case is one generator
    seed, and its golden is the digest of ``replay.jsonl``."""

    name = "fork_replay"
    rates = ("replay_blocks_per_s",)

    def __init__(self, periods: int, pool_size: int, trace_cases: int):
        self.periods = periods
        self.pool = list(range(1, pool_size + 1))
        self.trace_cases = trace_cases
        self.workdir = ROOT / ".bench_work" / f"replay-{os.getpid()}"
        self._inputs: dict = {}

    def setup(self):
        return cli.build_parser()

    def prepare(self, cases: list) -> None:
        for case in cases:
            self.trace(case)

    def trace(self, case) -> tuple[Path, int, str]:
        """Write the case's trace once; returns (path, blocks, trace digest)."""
        if case not in self._inputs:
            self.workdir.mkdir(parents=True, exist_ok=True)
            path = self.workdir / f"trace-{case}.jsonl"
            blocks = fork_trace(case, self.periods)
            with open(path, "w") as fp:
                write_trace(blocks, fp)
            self._inputs[case] = (path, len(blocks), sha256(path.read_text()))
        return self._inputs[case]

    def replay(self, path: Path) -> tuple[int, str]:
        """Exit code and standard output, which holds the bytes that
        ``--out`` would write to ``replay.jsonl``."""
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli.main(["replay", "--trace", str(path)])
        return rc, stdout.getvalue()

    def steps(self, case, base) -> list[Step]:
        path, blocks, _ = self.trace(case)
        return [Step("replay_blocks_per_s", blocks, lambda: self.replay(path))]

    def check(self, case, outputs: list, checks: Checks) -> None:
        rc, text = outputs[0]
        _, _, trace_digest = self.trace(case)
        want = self.golden()[str(case)]
        checks.check(trace_digest == want["trace_sha256"],
                     f"trace {case}: generated trace differs from golden")
        checks.check(rc == 0 and sha256(text) == want["replay_sha256"],
                     f"trace {case}: replay exit {rc} or replay.jsonl differs from golden")
        for line in text.splitlines():
            status = json.loads(line)["status"]
            checks.check(status not in ("invalid", "unresolved"),
                         f"trace {case}: a block replayed as {status}")

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        parent = self.workdir.parent
        if parent.exists() and not any(parent.iterdir()):
            parent.rmdir()


# -- attack analysis ----------------------------------------------------------------

ATTACK_ARGS = ["attack", "--beta", "0.05", "--mu", "0.01", "--F", "64", "--E", "8",
               "--duration", "--sweep", "beta=0.05:0.45:0.01"]
ATTACK_ROWS = 41
MC_POINT = dict(attacker_share=0.5, miss_rate=0.01, finality=64, endorsement_slots=8)


class AttackWorkload(Workload):
    """``blockclique attack --sweep`` in-process, plus one Monte Carlo
    cross-check at the criterion-3b point; each case is one Monte Carlo seed.

    The sweep rows at beta <= 0.07 come out as ``nan`` today: each such row
    is counted as a failed check, which is why this workload's baseline
    failure rate is above zero."""

    name = "attack_sweep"
    rates = ("sweep_rows_per_s", "mc_walks_per_s")

    def __init__(self, walks: int, trace_cases: int):
        self.walks = walks
        self.trace_cases = trace_cases
        self._matrix_mean = 0.0

    def prepare(self, cases: list) -> None:
        if not self._matrix_mean:
            tm = security.ThreatModel(**MC_POINT)
            self._matrix_mean = security.attack_duration_stats(tm)[0]

    def setup(self):
        return security.ThreatModel(**MC_POINT)

    def cases(self, seed: int) -> list:
        rng = random.Random(seed)
        return [rng.getrandbits(63) for _ in range(64)]

    def sweep(self) -> tuple[int, str]:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli.main(ATTACK_ARGS)
        return rc, stdout.getvalue()

    def steps(self, case, tm) -> list[Step]:
        return [Step("sweep_rows_per_s", ATTACK_ROWS, self.sweep),
                Step("mc_walks_per_s", self.walks,
                     lambda: security.simulate_attacks(tm, self.walks, seed=case))]

    def check(self, case, outputs: list, checks: Checks) -> None:
        (rc, csv), sample = outputs
        lines = csv.splitlines()
        if not checks.check(rc == 0 and len(lines) == ATTACK_ROWS + 1,
                            f"sweep exit {rc} with {len(lines) - 1} rows"):
            return
        header = lines[0].split(",")
        prev = -math.inf
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            p, log10_p = float(row["p_success"] or "nan"), float(row["log10_p"] or "nan")
            ok = (math.isfinite(p) and math.isfinite(log10_p) and 0.0 <= p <= 1.0
                  and log10_p > prev)
            checks.check(ok, f"beta {row['beta']}: p_success {row['p_success']}, "
                             f"log10_p {row['log10_p']}", wrong_output=False)
            if math.isfinite(log10_p):
                prev = log10_p
        sigma = sample.std_duration / math.sqrt(sample.walks)
        checks.check(abs(sample.mean_duration - self._matrix_mean) <= 3 * sigma,
                     f"Monte Carlo mean {sample.mean_duration:.2f} is more than 3 sigma "
                     f"({sigma:.2f}) from the matrix mean {self._matrix_mean:.2f}",
                     wrong_output=False)


def workloads() -> dict:
    return {
        "desk_sim": SimWorkload("desk_sim", "configs/throughput_12mbps_desk.json",
                                {"duration": "240"}, pool_size=12, trace_cases=1),
        "gossip_wide": SimWorkload("gossip_wide", "configs/toy.json",
                                   {"N": "512", "duration": "120"}, pool_size=16,
                                   trace_cases=2),
        "fork_replay": ReplayWorkload(periods=12, pool_size=16, trace_cases=3),
        "attack_sweep": AttackWorkload(walks=20_000, trace_cases=1),
    }
