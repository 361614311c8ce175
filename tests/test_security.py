import math

import numpy as np
import pytest

from blockclique.errors import DomainError, SingularSystem
from blockclique.security import (
    AttackSample, ThreatModel, _decay_root, _transient_band, analyze,
    attack_duration_stats, attack_success_log10, attack_success_probability,
    closed_form_success, duration_tail_bound, jump_probabilities,
    newcomer_safety_threshold, simulate_attacks,
)

from oracle_security import FitnessChain


def _dense_system(tm):
    """(I - Q) over the transient states k=1..M-1 (distance from success) and
    the one-jump success mass, read off ``FitnessChain.matrix`` (state -k is
    its row M-k)."""
    m = tm.span
    p = FitnessChain(tm).matrix
    transient = slice(m - 1, 0, -1)
    return np.eye(m - 1) - p[transient, transient], p[transient, m].copy()


def _dense_reference(tm):
    """Success probability, its log10, and the duration mean and sd from
    dense solves of order M-1: the scaled success solve with two refinement
    steps, and plain solves for the duration moments, the variance from the
    first-step sums over ``FitnessChain.matrix``'s rows."""
    k0 = -tm.default_start
    if k0 == 0:
        return 1.0, 0.0, 0.0, 0.0
    a, r = _dense_system(tm)
    z = _decay_root(tm) or 1.0
    ks = np.arange(1, tm.span, dtype=float)
    rows, cols = np.nonzero(a)
    scaled = np.zeros_like(a)
    scaled[rows, cols] = a[rows, cols] * np.power(z, ks[cols] - ks[rows])
    (hit,) = np.nonzero(r)
    rhs = np.zeros_like(r)
    rhs[hit] = r[hit] * np.power(z, -ks[hit])
    y = np.linalg.solve(scaled, rhs)
    for _ in range(2):
        y += np.linalg.solve(scaled, rhs - scaled @ y)
    t = np.linalg.solve(a, np.ones(tm.span - 1))
    rows = tm.span - np.arange(1, tm.span)
    t_all = np.zeros(tm.span + 1)          # 0 at both barriers
    t_all[rows] = t
    p = FitnessChain(tm).matrix[rows]
    s = (p * (1.0 + t_all[None, :] - t[:, None]) ** 2).sum(axis=1)
    v = np.linalg.solve(a, s)
    yk, mean, var = float(y[k0 - 1]), float(t[k0 - 1]), float(v[k0 - 1])
    return (yk * z ** k0, k0 * math.log10(z) + math.log10(yk), mean,
            math.sqrt(max(var, 0.0)))


def _bisect_200(tm):
    """The decay root by 200 bisection steps, the reference for the early
    exit of ``_decay_root``."""
    fwd, bwd, stay = jump_probabilities(tm)
    if not any(p > 0 for p in fwd):
        return None

    def phi(z):
        s = stay - 1.0
        for n, p in enumerate(bwd, start=1):
            s += p * z ** n
        for n, p in enumerate(fwd, start=1):
            s += p * z ** (-n)
        return s

    lo, hi = 1e-12, 1.0 - 1e-9
    if phi(hi) >= 0.0:
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if phi(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# beta on both sides of gamma = (1 - beta)(1 - mu) at every mu
BAND_GRID = [ThreatModel(beta, mu, f, e)
             for f in (1, 2, 3, 8, 64) for e in (0, 1, 2, 8)
             for mu in (0.0, 0.01, 0.1, 0.3) for beta in (0.05, 0.3, 0.45, 0.6)]


class TestJumpProbabilities:
    def test_no_endorsements_two_outcomes(self):
        tm = ThreatModel(0.3, 0.0, 8, 0)
        fwd, bwd, stay = jump_probabilities(tm)
        assert fwd == [pytest.approx(0.3)]
        assert bwd == [pytest.approx(0.7)]
        assert stay == 0.0

    def test_binomial_term(self):
        tm = ThreatModel(0.2, 0.0, 8, 2)
        fwd, _, _ = jump_probabilities(tm)
        assert fwd[1] == pytest.approx(0.2 * 2 * 0.2 * 0.8)

    @pytest.mark.parametrize("beta,mu,e", [
        (0.1, 0.0, 0), (0.45, 0.01, 8), (0.3, 0.2, 3), (0.0, 0.5, 2),
    ])
    def test_total_mass_is_one(self, beta, mu, e):
        tm = ThreatModel(beta, mu, 4, e)
        fwd, bwd, stay = jump_probabilities(tm)
        assert sum(fwd) + sum(bwd) + stay == pytest.approx(1.0, abs=1e-12)

    def test_gamma_definition(self):
        tm = ThreatModel(0.25, 0.1, 4, 0)
        assert tm.active_share == pytest.approx(0.75 * 0.9)


class TestFitnessChain:
    def test_rows_stochastic_to_1e12(self):
        for beta, mu, f, e in [(0.45, 0.01, 64, 8), (0.3, 0.0, 8, 0), (0.2, 0.3, 16, 2)]:
            chain = FitnessChain(ThreatModel(beta, mu, f, e))
            dev = np.abs(chain.matrix.sum(axis=1) - 1.0).max()
            assert dev < 1e-12

    def test_absorbing_rows_are_identity(self):
        chain = FitnessChain(ThreatModel(0.3, 0.0, 4, 1))
        m = chain.matrix.shape[0] - 1
        assert chain.matrix[0, 0] == 1.0 and chain.matrix[0].sum() == 1.0
        assert chain.matrix[m, m] == 1.0 and chain.matrix[m].sum() == 1.0

    def test_state_range(self):
        tm = ThreatModel(0.3, 0.0, 4, 2)
        chain = FitnessChain(tm)
        assert chain.states[0] == -12 and chain.states[-1] == 0


class TestSuccessProbability:
    def test_matches_closed_form_on_grid(self):
        for b10 in range(1, 10):
            beta = 0.05 * b10
            for f in (4, 8, 16, 32, 64):
                for mu in (0.0, 0.01):
                    tm = ThreatModel(beta, mu, f, 0)
                    numeric = attack_success_probability(tm)
                    closed = closed_form_success(tm)
                    assert abs(numeric - closed) / closed < 1e-9

    def test_reference_point_e0(self):
        p = attack_success_probability(ThreatModel(0.45, 0.01, 64, 0))
        assert 0.5e-6 < p < 2e-6

    def test_reference_point_e8_order_of_magnitude(self):
        lg = attack_success_log10(ThreatModel(0.45, 0.01, 64, 8))
        assert -17.0 <= lg <= -15.0

    def test_boundary_starts(self):
        tm = ThreatModel(0.3, 0.0, 8, 0)
        assert attack_success_probability(tm, start=0) == 1.0
        assert attack_success_probability(tm, start=-tm.span) == 0.0

    def test_monotone_decreasing_in_finality(self):
        probs = [attack_success_probability(ThreatModel(0.4, 0.01, f, 0))
                 for f in (4, 8, 16, 32, 64)]
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_endorsements_strengthen_security(self):
        base = attack_success_log10(ThreatModel(0.45, 0.01, 64, 0))
        strong = attack_success_log10(ThreatModel(0.45, 0.01, 64, 8))
        assert strong < base

    def test_log_domain_beyond_underflow(self):
        lg = attack_success_log10(ThreatModel(0.05, 0.0, 64, 0))
        tm = ThreatModel(0.05, 0.0, 64, 0)
        gamma = tm.active_share
        g = gamma / 0.05
        expected = math.log10(g - 1.0) - 64 * math.log10(g) - math.log10(1 - g ** -64)
        assert lg == pytest.approx(expected, abs=1e-6)

    def test_singular_when_no_transient_states(self):
        # F=1 has no states between the barriers; a valid ThreatModel keeps
        # gamma positive, so this is the one reachable degenerate system
        with pytest.raises(SingularSystem):
            _transient_band(ThreatModel(0.3, 0.0, 1, 0))

    def test_f1_success_is_certain_from_parity(self):
        assert attack_success_probability(ThreatModel(0.3, 0.0, 1, 0)) == 1.0

    def test_no_decay_root_matches_plain_solve(self):
        # beta >= gamma: the walk does not drift toward failure, so the
        # solve runs unscaled
        tm = ThreatModel(0.5, 0.1, 64, 8)
        assert _decay_root(tm) is None
        a, r = _dense_system(tm)
        expected = np.linalg.solve(a, r)[-tm.default_start - 1]
        assert 0.0 < expected < 1.0
        assert attack_success_probability(tm) == pytest.approx(expected, rel=1e-12)
        assert attack_success_log10(tm) == pytest.approx(math.log10(expected), rel=1e-12)


class TestBandSolver:
    @staticmethod
    def _close(got, want):
        return abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("f", [1, 2, 3, 8, 64])
    def test_matches_dense_solves(self, f):
        for tm in BAND_GRID:
            if tm.finality != f:
                continue
            p, log10_p, mean, sd = _dense_reference(tm)
            got = attack_success_probability(tm), attack_success_log10(tm)
            got += attack_duration_stats(tm)
            for name, g, w in zip(("p", "log10_p", "mean", "sd"), got, (p, log10_p, mean, sd)):
                assert self._close(g, w), (tm, name, g, w)

    def test_decay_root_early_exit_is_the_200_step_float(self):
        for tm in BAND_GRID:
            assert _decay_root(tm) == _bisect_200(tm), tm


class TestClosedForm:
    def test_f1_is_certain_success(self):
        assert closed_form_success(ThreatModel(0.2, 0.0, 1, 0)) == 1.0

    def test_requires_e0(self):
        with pytest.raises(DomainError):
            closed_form_success(ThreatModel(0.2, 0.0, 4, 1))

    def test_requires_subcritical_attacker(self):
        with pytest.raises(DomainError):
            closed_form_success(ThreatModel(0.5, 0.0, 4, 0))

    def test_strictly_decreasing_in_f(self):
        vals = [closed_form_success(ThreatModel(0.3, 0.0, f, 0)) for f in range(2, 30)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestDuration:
    def test_410_598_pair_arises_at_ten_percent_miss(self):
        # the 410/598 slot pair of the duration point check (acceptance
        # criterion 3a, 5% bounds) arises at a 10% miss rate; held here to 1%
        mean, std = attack_duration_stats(ThreatModel(0.5, 0.10, 64, 8))
        assert mean == pytest.approx(410, rel=0.01)
        assert std == pytest.approx(598, rel=0.01)

    def test_pure_backward_drift_fails_in_one_slot(self):
        # from one jump short of the failure barrier, an attacker with no
        # resources is absorbed by the first honest block
        mean, std = attack_duration_stats(ThreatModel(0.0, 0.0, 8, 0))
        assert mean == pytest.approx(1.0)
        assert std == pytest.approx(0.0, abs=1e-9)

    def test_sd_without_cancellation(self):
        # a tight walk whose sd is about 1.5% of its mean: the first-step
        # variance keeps the digits that 2N t - t - t^2 cancels away (1.2e-11
        # relative). The reference solves the same walk, its probabilities
        # taken from the decimal inputs, by banded elimination at 50 digits
        # (mpmath); the float inputs' own exact sd is 0.967268797014009.
        _, std = attack_duration_stats(ThreatModel(0.0, 0.01, 64, 3), start=-1)
        assert std == pytest.approx(0.96726879701400562, rel=1e-14)

    def test_matrix_matches_monte_carlo(self):
        tm = ThreatModel(0.5, 0.01, 16, 2)
        mean, std = attack_duration_stats(tm)
        sample = simulate_attacks(tm, 200_000, seed=11)
        mc_sigma = sample.std_duration / math.sqrt(sample.walks)
        assert abs(sample.mean_duration - mean) < 4 * mc_sigma


class TestTailBound:
    def test_below_span_bound_is_one(self):
        tm = ThreatModel(0.3, 0.0, 8, 0)
        assert duration_tail_bound(tm, tm.span - 1) == 1.0

    def test_non_increasing(self):
        tm = ThreatModel(0.3, 0.0, 8, 0)
        vals = [duration_tail_bound(tm, n) for n in range(0, 400, 8)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_bound_holds_against_monte_carlo(self):
        tm = ThreatModel(0.3, 0.0, 8, 2)
        sample = simulate_attacks(tm, 50_000, seed=5)
        for n in range(0, 1000, 24):
            assert sample.tail_frequency(n) <= duration_tail_bound(tm, n)


class TestNewcomerThreshold:
    def test_one_percent_miss(self):
        assert round(newcomer_safety_threshold(0.01), 3) == 0.497

    def test_zero_miss_exactly_half(self):
        assert newcomer_safety_threshold(0.0) == 0.5

    def test_strictly_decreasing_in_miss_rate(self):
        vals = [newcomer_safety_threshold(mu) for mu in (0.0, 0.01, 0.05, 0.1, 0.3)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_solves_growth_balance(self):
        # beta (1 + beta E) = gamma (1 + gamma E), gamma = (1 - beta)(1 - mu)
        for mu in (0.0, 0.01, 0.3):
            beta = newcomer_safety_threshold(mu)
            gamma = (1.0 - beta) * (1.0 - mu)
            for e in (0, 2, 8):
                assert beta * (1.0 + beta * e) == pytest.approx(
                    gamma * (1.0 + gamma * e), rel=0, abs=1e-12)


class TestMonteCarlo:
    def test_success_rate_matches_matrix_within_four_sigma(self):
        tm = ThreatModel(0.4, 0.01, 8, 0)
        p = attack_success_probability(tm)
        sample = simulate_attacks(tm, 1_000_000, seed=7)
        sigma = math.sqrt(p * (1 - p) / sample.walks)
        assert abs(sample.success_rate - p) < 4 * sigma

    def test_deterministic_given_seed(self):
        tm = ThreatModel(0.4, 0.0, 4, 1)
        a = simulate_attacks(tm, 10_000, seed=3)
        b = simulate_attacks(tm, 10_000, seed=3)
        assert a.successes == b.successes
        assert np.array_equal(a.durations, b.durations)


class TestAnalyzeRecord:
    def test_record_fields(self):
        tm = ThreatModel(0.45, 0.01, 64, 0, slot_interval=32.0, max_delay=1.0)
        rec = analyze(tm, with_duration=True, tail_slots=[0, 64, 128])
        assert set(rec) >= {"p_success", "log10_p", "mean_slots", "std_slots",
                            "tail_bounds", "beta_star"}
        assert rec["delay_assumption_violated"] is False
        assert len(rec["tail_bounds"]) == 3

    def test_delay_warning_flag(self):
        tm = ThreatModel(0.45, 0.01, 64, 0, slot_interval=32.0, max_delay=20.0)
        assert analyze(tm)["delay_assumption_violated"] is True
