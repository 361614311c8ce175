"""Finality-fork attack analysis: the absorbing random walk over the fitness
difference between an attack clique and the blockclique.

The walk lives on states -F(E+1)..0. Per slot it jumps forward n points with
probability P+n = beta * C(E, n-1) beta^(n-1) (1-beta)^(E-n+1) (the attacker
creates a block carrying n-1 of its own endorsements), backward with the
gamma-analogue, or stays put with probability (1-beta) mu. Reaching 0 is
attack success, reaching -F(E+1) failure; jumps overshooting a barrier are
absorbed at it.

Jumps span at most E+1 states, so the transient block I - Q is a banded
Toeplitz matrix with 2(E+1)+1 constant diagonals. ``_band`` is the one
builder of the transition model (the tests' ``FitnessChain`` oracle is a
dense view of it), and every solve factors the band once, block by block, in
O(M (E+1)^2) with M = F(E+1), never forming a dense matrix of order M.

Success probabilities span hundreds of orders of magnitude across the
parameter range, so the success system is solved after a diagonal rescaling
by the decaying characteristic root of the jump polynomial, which keeps the
band; this keeps every solution component at O(1) and gives componentwise
relative accuracy, verified against the closed form for E = 0. The
(well-scaled) duration moments share one unscaled factorisation.
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


def _band(tm: ThreatModel) -> tuple[np.ndarray, list[float], list[float]]:
    """The walk's transitions as the 2(E+1)+1 diagonal constants of its
    banded Toeplitz transient block, indexed by the change in distance from
    the success barrier (-(E+1)..E+1: forward jumps, stay, backward jumps),
    plus the one-jump success mass by distance from success and the failure
    mass by distance from failure (1..E+1). Mass that overshoots a barrier is
    absorbed at it, summed in jump order."""
    fwd, bwd, stay = jump_probabilities(tm)
    hit = [sum(fwd[k:]) for k in range(len(fwd))]
    miss = [sum(bwd[k:]) for k in range(len(bwd))]
    return np.array(fwd[::-1] + [stay] + bwd), hit, miss


def _transient_band(tm: ThreatModel) -> tuple[np.ndarray, np.ndarray]:
    """The 2(E+1)+1 diagonal constants of I - Q over the transient states
    k=1..M-1 (distance from success), plus the one-jump success mass of the
    states k=1..min(E+1, M-1)."""
    if tm.span < 2:
        raise SingularSystem("no transient states")
    band, hit, _ = _band(tm)
    e1 = len(hit)
    if not (band[:e1].any() or band[e1 + 1:].any()):
        raise SingularSystem("walk has no transition mass toward either barrier")
    coeffs = -band
    coeffs[e1] = 1.0 - band[e1]
    return coeffs, np.array(hit[:tm.span - 1])


class _BandLU:
    """Block LU, without pivoting between blocks, of the order-n banded
    Toeplitz matrix whose 2b+1 diagonals are ``coeffs`` (offsets -b..b).

    Cut into b x b blocks, the band is block tridiagonal with the same three
    blocks in every block row; the last block is padded with decoupled
    identity unknowns. The Schur-complement recurrence S_i = D - L S_{i-1}^-1 U
    then runs over about n/b blocks, and dense linear algebra only ever sees
    b x b blocks. I - Q is a nonsingular M-matrix, and so is any positive
    diagonal similarity of it; their Schur complements stay M-matrices, so
    the recurrence needs no pivoting (Golub & Van Loan, Matrix Computations,
    sections 4.3 and 4.5)."""

    def __init__(self, coeffs: np.ndarray, n: int):
        b = (len(coeffs) - 1) // 2
        blocks = -(-n // b)
        self.coeffs, self.n, self.b = coeffs, n, b
        ext = np.zeros(4 * b + 1)
        ext[b:3 * b + 1] = coeffs       # offset d sits at 2b + d
        off = np.arange(b)[None, :] - np.arange(b)[:, None]
        diag, upper, lower = ext[2 * b + off], ext[3 * b + off], ext[b + off]
        keep = np.arange(b) < n - (blocks - 1) * b
        diags = [diag] * (blocks - 1) + [np.where(np.outer(keep, keep), diag, np.eye(b))]
        self._lowers = [lower] * (blocks - 1) + [lower * keep[:, None]]
        uppers = [upper] * max(blocks - 2, 0) + [upper * keep[None, :]]
        self._invs: list[np.ndarray] = []   # S_i^-1
        self._gains: list[np.ndarray] = []  # S_i^-1 U_i
        for i in range(blocks):
            s = diags[i] - self._lowers[i] @ self._gains[-1] if i else diags[0]
            inv = np.linalg.inv(s)
            self._invs.append(inv)
            if i < blocks - 1:
                self._gains.append(inv @ uppers[i])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """A^-1 rhs: one forward block sweep, then block back substitution."""
        invs, gains, lowers = self._invs, self._gains, self._lowers
        blocks, b = len(invs), self.b
        v = np.zeros(blocks * b)
        v[:self.n] = rhs
        v = v.reshape(blocks, b)
        v[0] = invs[0] @ v[0]
        for i in range(1, blocks):
            v[i] = invs[i] @ (v[i] - lowers[i] @ v[i - 1])
        for i in range(blocks - 2, -1, -1):
            v[i] -= gains[i] @ v[i + 1]
        return v.reshape(-1)[:self.n]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A x, for refinement residuals."""
        b = self.b
        padded = np.zeros(self.n + 2 * b)
        padded[b:b + self.n] = x
        return np.convolve(padded, self.coeffs[::-1], "valid")


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
        if mid == lo or mid == hi:
            break       # a fixed point: further steps would return this mid
        if phi(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _scaled(values: np.ndarray, z: float, powers: np.ndarray) -> np.ndarray:
    """values * z^powers, with zero entries left zero where z^powers
    overflows (0 * inf would give nan)."""
    out = np.zeros_like(values)
    nz = values != 0.0
    out[nz] = values[nz] * np.power(z, powers[nz])
    return out


def _solve_success(tm: ThreatModel, start: Optional[int]) -> tuple[float, float]:
    m = tm.span
    if start is None:
        start = tm.default_start
    if start >= 0:
        return 1.0, 0.0
    if start <= -m:
        return 0.0, -math.inf
    coeffs, hit = _transient_band(tm)
    k0 = -start
    z = _decay_root(tm)
    if z is None:
        z = 1.0     # no drift toward failure: solve the system unscaled
    # the z-scaling is a diagonal similarity: z^(j-i) on the band, z^-k on
    # the one-jump mass
    e1 = len(coeffs) // 2
    scaled = _scaled(coeffs, z, np.arange(-e1, e1 + 1))
    rhs = np.zeros(m - 1)
    rhs[:len(hit)] = _scaled(hit, z, -np.arange(1, len(hit) + 1))
    try:
        lu = _BandLU(scaled, m - 1)
        y = lu.solve(rhs)
        for _ in range(2):
            y += lu.solve(rhs - lu.matvec(y))
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
    """Mean and standard deviation of the attack duration in slots. The mean
    solves (I - Q) t = 1. By first-step analysis the variance solves
    (I - Q) v = s, where s_k = sum_j P_kj (1 + t_j - t_k)^2 over every state j,
    barriers included with t_j = 0; unlike (2N - I) t - t o t, it subtracts
    nothing of the size of the squared mean."""
    if start is None:
        start = tm.default_start
    if start >= 0 or start <= -tm.span:
        return 0.0, 0.0
    coeffs, _ = _transient_band(tm)
    band, _, _ = _band(tm)
    n, b = tm.span - 1, (len(band) - 1) // 2
    try:
        lu = _BandLU(coeffs, n)     # one factorisation for both moments
        t = lu.solve(np.ones(n))
        # row b + d of `dev` is 1 + t_j - t_k for the state j d away from k;
        # past either barrier, where overshooting mass is absorbed, t_j is 0
        padded = np.ones(n + 2 * b)
        padded[b:b + n] += t
        dev = np.lib.stride_tricks.sliding_window_view(padded, n) - t
        dev *= dev
        v = lu.solve(band @ dev)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    k0 = -start
    return float(t[k0 - 1]), math.sqrt(max(float(v[k0 - 1]), 0.0))


def duration_tail_bound(tm: ThreatModel, n: int) -> float:
    """Upper bound on P(attack lasts more than n slots): a run of F(E+1)
    one-way jumps ends the attack, and disjoint windows are independent."""
    if n < 0:
        raise ValueError("slot count must be non-negative")
    m = tm.span
    beta, gamma = tm.attacker_share, tm.active_share
    base = 1.0 - beta ** m - gamma ** m
    return base ** (n // m)


def newcomer_safety_threshold(miss_rate: float) -> float:
    """Largest attacker share whose clique grows slower in expectation than the
    honest clique: the root of beta (1 + beta E) = gamma (1 + gamma E) with
    gamma = (1 - beta)(1 - mu). x (1 + x E) increases for x >= 0, so that
    holds exactly when beta = gamma, whatever E: beta = (1 - mu) / (2 - mu)."""
    if not (0.0 <= miss_rate < 1.0):
        raise ValueError("miss_rate must lie in [0, 1)")
    return (1.0 - miss_rate) / (2.0 - miss_rate)


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
        "beta_star": newcomer_safety_threshold(tm.miss_rate),
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
