"""Finality-fork attack analysis: the absorbing random walk over the fitness
difference between an attack clique and the blockclique.

The walk lives on states -F(E+1)..0. Per slot it jumps forward n points with
probability P+n = beta * C(E, n-1) beta^(n-1) (1-beta)^(E-n+1) (the attacker
creates a block carrying n-1 of its own endorsements), backward with the
gamma-analogue, or stays put with probability (1-beta) mu. Reaching 0 is
attack success, reaching -F(E+1) failure; jumps overshooting a barrier are
absorbed at it.

Success probabilities span hundreds of orders of magnitude across the
parameter range, so the transient linear system is solved after a diagonal
rescaling by the decaying characteristic root of the jump polynomial; this
keeps every solution component at O(1) and gives componentwise relative
accuracy, verified against the closed form for E = 0. Plain dense solves are
used for the (well-scaled) duration moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, SingularSystem

DEFAULT_MC_CAP = 10_000_000


@dataclass(frozen=True)
class ThreatModel:
    """Attack-analysis inputs. The walk assumes honest messages beat
    ``max_delay``; with ``slot_interval`` given, the record flags whether
    that delay breaks the half-slot bound."""

    attacker_share: float
    miss_rate: float = 0.0
    finality: int = 64
    endorsement_slots: int = 0
    max_delay: float = 0.0
    slot_interval: Optional[float] = None

    def __post_init__(self):
        if not (0.0 <= self.attacker_share < 1.0):
            raise ValueError("attacker_share must lie in [0, 1)")
        if not (0.0 <= self.miss_rate < 1.0):
            raise ValueError("miss_rate must lie in [0, 1)")
        if self.finality < 1:
            raise ValueError("finality must be positive")
        if self.endorsement_slots < 0:
            raise ValueError("endorsement_slots must be non-negative")

    @property
    def active_share(self) -> float:
        """Proportion of the total resource in active honest use."""
        return (1.0 - self.attacker_share) * (1.0 - self.miss_rate)

    @property
    def span(self) -> int:
        """Distance between the two absorbing barriers, F(E+1)."""
        return self.finality * (self.endorsement_slots + 1)

    @property
    def default_start(self) -> int:
        """Walk start: one full jump short of the failure barrier."""
        return -(self.finality - 1) * (self.endorsement_slots + 1)

    @property
    def delay_assumption_violated(self) -> Optional[bool]:
        if self.slot_interval is None:
            return None
        return not (self.max_delay < self.slot_interval / 2.0)


def jump_probabilities(tm: ThreatModel) -> tuple[list[float], list[float], float]:
    """Per-slot jump distribution (forward n=1..E+1, backward n=1..E+1, stay)."""
    beta = tm.attacker_share
    gamma = tm.active_share
    e = tm.endorsement_slots
    fwd = [beta * math.comb(e, n - 1) * beta ** (n - 1) * (1.0 - beta) ** (e - n + 1)
           for n in range(1, e + 2)]
    bwd = [gamma * math.comb(e, n - 1) * gamma ** (n - 1) * (1.0 - gamma) ** (e - n + 1)
           for n in range(1, e + 2)]
    return fwd, bwd, (1.0 - beta) * tm.miss_rate


class FitnessChain:
    """Explicit transition matrix over all states -F(E+1)..0 (both absorbing
    endpoints included as identity rows). States are ordered from the failure
    barrier up to the success barrier."""

    def __init__(self, tm: ThreatModel):
        self.tm = tm
        m = tm.span
        fwd, bwd, stay = jump_probabilities(tm)
        size = m + 1
        p = np.zeros((size, size))
        p[0, 0] = 1.0       # failure barrier
        p[m, m] = 1.0       # success barrier
        # one pass per jump size; a pass touches each row once, so mass that
        # overshoots into a barrier cell accumulates in jump order
        ks = np.arange(1, m)
        rows = m - ks       # state -k is row m-k
        p[rows, rows] += stay
        for n, pr in enumerate(fwd, start=1):
            p[rows, m - np.maximum(ks - n, 0)] += pr
        for n, pr in enumerate(bwd, start=1):
            p[rows, m - np.minimum(ks + n, m)] += pr
        self.matrix = p
        self.states = list(range(-m, 1))


def _transient_system(tm: ThreatModel) -> tuple[np.ndarray, np.ndarray]:
    """(I - Q) over transient states k=1..M-1 (distance from success), plus
    the one-jump success mass vector, both read off ``FitnessChain.matrix``
    (state -k is its row M-k)."""
    m = tm.span
    if m < 2:
        raise SingularSystem("no transient states")
    fwd, bwd, _ = jump_probabilities(tm)
    if sum(fwd) + sum(bwd) <= 0.0:
        raise SingularSystem("walk has no transition mass toward either barrier")
    p = FitnessChain(tm).matrix
    transient = slice(m - 1, 0, -1)     # k = 1..M-1
    return np.eye(m - 1) - p[transient, transient], p[transient, m].copy()


def _decay_root(tm: ThreatModel) -> Optional[float]:
    """Root in (0,1) of the jump polynomial; the geometric rate at which the
    success probability decays with distance. None when the walk does not
    drift toward failure."""
    fwd, bwd, stay = jump_probabilities(tm)
    if not any(p > 0 for p in fwd):
        return None

    def phi(z: float) -> float:
        s = stay - 1.0
        for n, p in enumerate(bwd, start=1):
            s += p * z ** n
        for n, p in enumerate(fwd, start=1):
            s += p * z ** (-n)
        return s

    hi = 1.0 - 1e-9
    if phi(hi) >= 0.0:
        return None
    lo = 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if phi(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _solve_success(tm: ThreatModel, start: Optional[int]) -> tuple[float, float]:
    m = tm.span
    if start is None:
        start = tm.default_start
    if start >= 0:
        return 1.0, 0.0
    if start <= -m:
        return 0.0, -math.inf
    a, r = _transient_system(tm)
    k0 = -start
    z = _decay_root(tm)
    if z is None:
        z = 1.0     # no drift toward failure: solve the system unscaled
    try:
        # scale only the jump band and the one-jump mass: z^(j-i) and z^-k
        # overflow far from the diagonal, where 0 * inf would give nan
        ks = np.arange(1, m, dtype=float)
        rows, cols = np.nonzero(a)
        scaled = np.zeros_like(a)
        scaled[rows, cols] = a[rows, cols] * np.power(z, ks[cols] - ks[rows])
        (hit,) = np.nonzero(r)
        rhs = np.zeros_like(r)
        rhs[hit] = r[hit] * np.power(z, -ks[hit])
        y = np.linalg.solve(scaled, rhs)
        for _ in range(2):
            y += np.linalg.solve(scaled, rhs - scaled @ y)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    yk = float(y[k0 - 1])
    if yk <= 0.0:
        return 0.0, -math.inf
    log10_p = k0 * math.log10(z) + math.log10(yk)
    return yk * z ** k0, log10_p


def attack_success_probability(tm: ThreatModel, start: Optional[int] = None) -> float:
    """Probability that the attack clique overtakes the blockclique, starting
    from fitness difference ``start`` (default: on the verge of failing)."""
    return _solve_success(tm, start)[0]


def attack_success_log10(tm: ThreatModel, start: Optional[int] = None) -> float:
    """log10 of the success probability, valid beyond float underflow."""
    return _solve_success(tm, start)[1]


def closed_form_success(tm: ThreatModel) -> float:
    """Closed-form success probability for E = 0 and beta < gamma:
    (g - 1) / (g^F - 1) with g = gamma/beta."""
    if tm.endorsement_slots != 0:
        raise DomainError("closed form requires zero endorsement slots")
    beta, gamma = tm.attacker_share, tm.active_share
    if beta >= gamma:
        raise DomainError("closed form requires attacker share below active honest share")
    if beta == 0.0:
        return 0.0
    g = gamma / beta
    f = tm.finality
    if f == 1:
        return 1.0
    # evaluate in log space when g^F overflows
    log_num = math.log(g - 1.0)
    log_den = f * math.log(g) + math.log1p(-(g ** -f))
    return math.exp(log_num - log_den)


def attack_duration_stats(tm: ThreatModel, start: Optional[int] = None) -> tuple[float, float]:
    """Mean and standard deviation of the attack duration in slots, from the
    fundamental-matrix identities (mean N 1, variance (2N - I) t - t o t)."""
    if start is None:
        start = tm.default_start
    if start >= 0 or start <= -tm.span:
        return 0.0, 0.0
    a, _ = _transient_system(tm)
    try:
        t = np.linalg.solve(a, np.ones(a.shape[0]))
        w = np.linalg.solve(a, t)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    k0 = -start
    mean = float(t[k0 - 1])
    var = float(2.0 * w[k0 - 1] - mean - mean * mean)
    return mean, math.sqrt(max(var, 0.0))


def duration_tail_bound(tm: ThreatModel, n: int) -> float:
    """Upper bound on P(attack lasts more than n slots): a run of F(E+1)
    one-way jumps ends the attack, and disjoint windows are independent."""
    if n < 0:
        raise ValueError("slot count must be non-negative")
    m = tm.span
    beta, gamma = tm.attacker_share, tm.active_share
    base = 1.0 - beta ** m - gamma ** m
    return base ** (n // m)


def newcomer_safety_threshold(miss_rate: float, endorsement_slots: int = 0,
                              tol: float = 1e-9) -> float:
    """Largest attacker share whose clique grows slower in expectation than the
    honest clique: solves beta (1 + beta E) = gamma (1 + gamma E) by bisection.
    The solution is independent of E (it reduces to beta = gamma)."""
    if not (0.0 <= miss_rate < 1.0):
        raise ValueError("miss_rate must lie in [0, 1)")
    e = endorsement_slots

    def growth_gap(beta: float) -> float:
        gamma = (1.0 - beta) * (1.0 - miss_rate)
        return gamma * (1.0 + gamma * e) - beta * (1.0 + beta * e)

    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        gap = growth_gap(mid)
        if gap == 0.0:
            return mid
        if gap > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass
class AttackSample:
    """Monte Carlo outcome of simulated attack walks."""

    successes: int
    walks: int
    durations: np.ndarray

    @property
    def success_rate(self) -> float:
        return self.successes / self.walks

    @property
    def mean_duration(self) -> float:
        return float(self.durations.mean())

    @property
    def std_duration(self) -> float:
        return float(self.durations.std())

    def tail_frequency(self, n: int) -> float:
        return float((self.durations > n).mean())


def simulate_attacks(tm: ThreatModel, walks: int, seed: int = 0,
                     start: Optional[int] = None,
                     max_slots: int = DEFAULT_MC_CAP) -> AttackSample:
    """Simulate the fitness-difference walk directly; the independent check on
    the matrix results."""
    m = tm.span
    if start is None:
        start = tm.default_start
    fwd, bwd, stay = jump_probabilities(tm)
    probs = np.array([stay] + fwd + bwd)
    deltas = np.array([0] + list(range(1, len(fwd) + 1))
                      + [-n for n in range(1, len(bwd) + 1)], dtype=np.int64)
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    rng = np.random.default_rng(np.random.PCG64(seed))
    state = np.full(walks, start, dtype=np.int64)
    durations = np.zeros(walks, dtype=np.int64)
    successes = 0
    index = np.arange(walks)
    t = 0
    while index.size:
        t += 1
        if t > max_slots:
            raise RuntimeError("Monte Carlo walk exceeded the slot cap")
        u = rng.random(index.size)
        state[index] += deltas[np.searchsorted(cum, u, side="right")]
        cur = state[index]
        done = (cur >= 0) | (cur <= -m)
        if done.any():
            finished = index[done]
            durations[finished] = t
            successes += int((state[finished] >= 0).sum())
            index = index[~done]
    return AttackSample(successes, walks, durations)


def analyze(tm: ThreatModel, start: Optional[int] = None,
            with_duration: bool = False,
            tail_slots: Optional[Sequence[int]] = None) -> dict:
    """Full analyzer record used by the command-line front end."""
    p, log10_p = _solve_success(tm, start)
    record: dict = {
        "beta": tm.attacker_share,
        "mu": tm.miss_rate,
        "gamma": tm.active_share,
        "finality": tm.finality,
        "endorsement_slots": tm.endorsement_slots,
        "start": start if start is not None else tm.default_start,
        "p_success": p,
        "log10_p": log10_p,
        "mean_slots": None,
        "std_slots": None,
        "tail_bounds": [],
        "beta_star": newcomer_safety_threshold(tm.miss_rate, tm.endorsement_slots),
    }
    if with_duration:
        mean, std = attack_duration_stats(tm, start)
        record["mean_slots"] = mean
        record["std_slots"] = std
    if tail_slots:
        record["tail_bounds"] = [
            {"slots": n, "bound": duration_tail_bound(tm, n)} for n in tail_slots
        ]
    violated = tm.delay_assumption_violated
    if violated is not None:
        record["delay_assumption_violated"] = violated
    return record
