import math

import numpy as np
import pytest

from hardybench import (
    INF,
    cli,
    cpq,
    franchetti_cp,
    gamma_pq,
    holder_conjugate,
    interpolation_upper,
    lambda_pq,
)
from hardybench import constants
from hardybench.spaces import _golden_max, _golden_min


def gamma_dense_oracle(p, q, n_gamma=20001, n_x=20001):
    """Independent recomputation of gamma_{p,q} by dense grid scans:
    tabulate g(gamma) = min_x x^p + (gamma-x)^q on a gamma grid and locate
    the crossing g = 1 by linear interpolation."""
    gammas = np.linspace(1.0, 2.0, n_gamma)
    gvals = np.empty(n_gamma)
    for i, gamma in enumerate(gammas):
        x = np.linspace(0.0, gamma, n_x)
        gvals[i] = np.min(x**p + (gamma - x) ** q)
    j = int(np.searchsorted(gvals, 1.0))
    if j == 0:
        return gammas[0]
    g0, g1 = gvals[j - 1], gvals[j]
    return gammas[j - 1] + (1.0 - g0) / (g1 - g0) * (gammas[j] - gammas[j - 1])


def gamma_nested_reference(p, q):
    """The nested search that `gamma_pq` replaced: bisection on [1, 2] for
    g(gamma) = 1, with g(gamma) = min_x x^p + (gamma - x)^q found by golden
    section inside each step."""

    def inner_min(gamma):
        fn = lambda x: x**p + (gamma - x) ** q  # noqa: E731
        return _golden_min(fn, 0.0, gamma, 1e-12 * max(1.0, gamma))[1]

    lo, hi = 1.0, 2.0
    while hi - lo > 1e-11:
        mid = 0.5 * (lo + hi)
        if inner_min(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def franchetti_full_scan_reference(p):
    """`franchetti_cp`'s scan before it went coarse to fine: the objective
    on all 100 001 nodes, then golden-section search around the first
    maximum; returns (value, canonical maximizer, near-maximizers)."""
    s = 1.0 / (p - 1.0)

    def objective(alpha):
        alpha = np.asarray(alpha, dtype=float)
        beta = 1.0 - alpha
        m, t = np.maximum(alpha, beta), np.minimum(alpha, beta)
        t /= m
        first = t ** (p - 1.0)
        first += 1.0
        first **= 1.0 / p
        t **= s
        t += 1.0
        t **= 1.0 - 1.0 / p
        m *= first
        m *= t
        return m

    alphas = np.linspace(0.0, 1.0, 100_001)
    values = np.concatenate([objective(a) for a in np.array_split(alphas, 13)])
    top = float(np.max(values))
    near = alphas[values >= top - 1e-9]
    idx = int(np.argmax(values))
    h = alphas[1] - alphas[0]
    lo = max(0.0, alphas[idx] - 2 * h)
    hi = min(1.0, alphas[idx] + 2 * h)
    alpha_star, value = _golden_max(lambda a: float(objective(a)), lo, hi, 1e-12)
    if value < top:
        alpha_star, value = alphas[idx], top
    if alpha_star > 0.5:
        alpha_star = 1.0 - alpha_star
    return float(value), float(alpha_star), near


class TestFranchetti:
    def test_p1_exact(self):
        assert franchetti_cp(1.0).value == 2.0

    def test_p2_is_one(self):
        assert abs(franchetti_cp(2.0).value - 1.0) < 1e-12

    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 7.0])
    def test_dual_symmetry(self, p):
        assert abs(franchetti_cp(p).value - franchetti_cp(holder_conjugate(p)).value) < 1e-10

    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 2.5, 4.0, 10.0])
    def test_range_and_upper_bound(self, p):
        c = franchetti_cp(p).value
        assert 1.0 - 1e-12 <= c <= 2.0
        assert c <= interpolation_upper(p) + 1e-12
        if p != 1.0:
            assert c < 2.0

    def test_minimum_at_two(self):
        ps = [1.3, 1.7, 2.0, 2.6, 4.0]
        vals = [franchetti_cp(p).value for p in ps]
        assert min(vals) == vals[2]

    def test_maximizer_reproduces_value(self):
        rep = franchetti_cp(3.0)
        a = rep.maximizer_or_root
        s = 1.0 / (3.0 - 1.0)
        val = (a**2 + (1 - a) ** 2) ** (1 / 3) * (a**s + (1 - a) ** s) ** (1 - 1 / 3)
        assert abs(val - rep.value) < 1e-10

    def test_symmetric_near_maximizers(self):
        rep = franchetti_cp(3.0)
        near = rep.near_maximizers
        a = rep.maximizer_or_root
        assert np.min(np.abs(near - a)) < 1e-4
        assert np.min(np.abs(near - (1.0 - a))) < 1e-4

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            franchetti_cp(0.9)

    def test_large_p_tends_to_two(self):
        # the powers of alpha and 1 - alpha underflow here unless the larger
        # of the two is factored out; C_p would then read 1
        ps = [1e6, 1e7, 1e8, 1e12, 1e300]
        vals = [franchetti_cp(p).value for p in ps]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert 2.0 - 1e-9 <= vals[-1] < 2.0
        for p, c in zip(ps, vals):
            assert abs(c - franchetti_cp(holder_conjugate(p)).value) <= 1e-9

    # values at the default scan before the factored objective, to 1e-12
    PINNED = [(1.1, 1.5782633397482997), (1.5, 1.0957314336981363),
              (2.5, 1.0348817249893631), (3.0, 1.0957314336981363), (4.0, 1.211565031277261)]

    def test_pinned_values(self):
        for p, value in self.PINNED:
            assert abs(franchetti_cp(p).value - value) <= 1e-12 * value


def table_ps(p_spec, q_spec):
    """The p at which `constants --p p_spec --q q_spec` evaluates C_p."""
    seen = []

    def spy(p):
        seen.append(p)
        return franchetti_cp(p)

    original = cli.franchetti_cp
    cli.franchetti_cp = spy
    try:
        cli.cmd_constants(cli.RunConfig(command="constants", p=p_spec, q=q_spec))
    finally:
        cli.franchetti_cp = original
    return seen


BENCHMARK_TABLES = (("1.1:4.0:0.1", "2.5"), ("1.25,1.5,2,3,4", "1.25,1.5,2,3,4"))
EXTREME_PS = (1 + 1e-9, 1 + 1e-6, 1.0005, 1.9999, 2.0001, 200.0, 1e3, 1e6)
# every other p at which this file calls franchetti_cp
TEST_PS = (1.1, 1.2, 1.3, 1.5, 1.7, 2.0, 2.5, 2.6, 3.0, 4.0, 7.0, 10.0, 1e7, 1e8, 1e12, 1e300)


class TestCoarseToFineScan:
    @staticmethod
    def all_ps():
        ps = [p for spec in BENCHMARK_TABLES for p in table_ps(*spec)]
        ps += list(EXTREME_PS) + list(TEST_PS)
        ps += [holder_conjugate(p) for p in (1.2, 1.5, 3.0, 7.0, 1e6, 1e7, 1e8, 1e12, 1e300)]
        ps += list(1.0 + 99.0 * np.random.default_rng(28).random(300))
        return [p for p in ps if p > 1.0]  # C_1 = 2 is exact and scans nothing

    def test_matches_the_full_scan_bit_for_bit(self):
        ps = self.all_ps()
        assert len(ps) > 350
        for p in ps:
            rep = franchetti_cp(p)
            value, alpha, near = franchetti_full_scan_reference(p)
            assert rep.value == value, p
            assert rep.maximizer_or_root == alpha, p
            np.testing.assert_array_equal(rep.near_maximizers, near, err_msg=repr(p))

    def test_refines_few_nodes_except_when_flat(self):
        ps = table_ps(*BENCHMARK_TABLES[0])
        assert len(ps) >= 30 and 2.0 in ps
        for p in ps:
            nodes = franchetti_cp(p).details["nodes"]
            if p == 2.0:
                assert nodes == constants._CP_NODES
            else:
                assert nodes <= 2000, p


class TestInterpolationUpper:
    def test_exact_values(self):
        assert interpolation_upper(2.0) == 1.0
        assert interpolation_upper(1.0) == 2.0
        assert interpolation_upper(INF) == 2.0
        assert abs(interpolation_upper(4.0) - math.sqrt(2.0)) < 1e-15


class TestGamma:
    @pytest.mark.parametrize("p", [1.25, 1.5, 2.0, 3.0, 4.0])
    def test_diagonal_closed_form(self, p):
        # inner minimum at x = y = gamma/2 gives 2 (gamma/2)^p = 1
        exact = 2.0 ** (1.0 - 1.0 / p)
        assert abs(gamma_pq(p, p).value - exact) <= 4 * math.ulp(exact)

    def test_bracket_on_grid(self):
        for p in (1.3, 2.0, 3.0):
            for q in (p, p + 0.5, p + 2.0):
                g = gamma_pq(p, q).value
                assert 2.0 ** (1 - 1 / p) - 1e-9 <= g <= 2.0 ** (1 - 1 / q) + 1e-9

    def test_monotone_in_p_and_q(self):
        g_row = [gamma_pq(p, 2.5).value for p in (1.2, 1.8, 2.4, 3.0)]
        assert all(a < b + 1e-12 for a, b in zip(g_row, g_row[1:]))
        g_col = [gamma_pq(2.5, q).value for q in (1.2, 1.8, 2.4, 3.0)]
        assert all(a < b + 1e-12 for a, b in zip(g_col, g_col[1:]))

    def test_residual(self):
        rep = gamma_pq(1.7, 3.1)
        assert rep.details["residual"] < 1e-14

    def test_symmetric(self):
        assert gamma_pq(1.7, 3.1).value == gamma_pq(3.1, 1.7).value

    @pytest.mark.parametrize("p", [1.01, 1.1, 1.7, 2.5, 4.0, 50.0])
    def test_matches_nested_reference(self, p):
        for q in (1.01, 1.1, 1.7, 2.5, 4.0, 50.0):
            ref = gamma_nested_reference(p, q)
            assert abs(gamma_pq(p, q).value - ref) <= 1e-11 * ref

    def test_dense_oracle_agreement(self):
        # frozen from the dense-scan oracle (different algorithm family)
        assert abs(gamma_pq(2.0, 4.0).value - gamma_dense_oracle(2.0, 4.0)) < 1e-6

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            gamma_pq(1.0, 2.0)

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    def test_large_p_tends_to_two(self, q):
        # y rounds to 1 for large p, and y**p would read 0 or 1
        vals = [gamma_pq(p, q).value for p in (1e16, 1e17, 1e18, 1e20, 1e300)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert 2.0 - 1e-14 <= vals[0] and vals[-1] == 2.0

    # values before y^b was taken as c^b x^{eb}, to 1e-12
    PINNED = [((1.1, 4.0), 1.4863393175617603), ((1.5, 2.5), 1.407565958513588),
              ((1.7, 3.1), 1.4894736080194853), ((2.5, 4.0), 1.6111796104906229)]

    def test_pinned_values(self):
        for (p, q), value in self.PINNED:
            assert abs(gamma_pq(p, q).value - value) <= 1e-12 * value


class TestCpq:
    def test_bracket_on_grid(self):
        for p in (1.2, 1.6, 2.0, 2.7):
            for q in (p + 0.3, p + 1.0, p + 3.0):
                rep = cpq(p, q)
                qprime = holder_conjugate(q)
                upper = 2.0 ** (1.0 / (p * qprime) + min(1.0 / p, 1.0 / qprime))
                assert 1.0 - 1e-9 <= rep.value <= upper + 1e-9

    def test_recomputation_oracle(self):
        # both branches recomputed from scratch with the dense-scan oracle
        p, q = 2.0, 4.0
        rep = cpq(p, q)
        branch_a = (2.0 * gamma_dense_oracle(p, q)) ** (1.0 / p)
        qprime, pprime = holder_conjugate(q), holder_conjugate(p)
        branch_b = (2.0 * gamma_dense_oracle(qprime, pprime)) ** (1.0 / qprime)
        assert abs(rep.value - min(branch_a, branch_b)) < 1e-5

    def test_parameter_order_enforced(self):
        with pytest.raises(ValueError):
            cpq(3.0, 2.0)
        with pytest.raises(ValueError):
            cpq(2.0, 2.0)


class TestLambda:
    def test_dominates_interpolation_factor(self):
        for p, q in ((1.5, 2.5), (1.2, 4.0), (2.2, 3.0)):
            rep = lambda_pq(p, q)
            assert rep.value >= max(interpolation_upper(p), interpolation_upper(q)) - 1e-12

    def test_near_two_beats_two(self):
        rep = lambda_pq(1.9, 2.1)
        assert rep.details["min_with_2"] < 2.0

    def test_continuity_along_sweep(self):
        qs = np.arange(2.05, 3.0, 0.01)
        vals = [lambda_pq(1.9, float(q)).value for q in qs]
        jumps = np.abs(np.diff(vals))
        assert np.max(jumps) < 0.05
