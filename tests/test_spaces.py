import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardybench import (
    INF,
    FourierCoeffs,
    Lorentz,
    Lp,
    Orlicz,
    SampledFunction,
    WeightedLp,
    decreasing_rearrangement,
    holder_conjugate,
    hp_norm,
    lorentz_norm,
    lp_norm,
    luxemburg_norm,
    make_grid,
    orlicz_amemiya_norm,
    orlicz_modular,
    phi_from_rho,
    synthesize,
)
from hardybench import spaces
from hardybench.errors import InvalidGeneratorError, NoConvergenceError, RangeExceededError
from hardybench.spaces import PhiSpec
from hardybench.testfunctions import random_trig_polynomial


def verify_shapes():
    """The `verify orlicz` shapes: ten degree-12 trigonometric polynomials on 512 points."""
    g = make_grid(512)
    rng = np.random.default_rng([0, 12])
    return [synthesize(random_trig_polynomial(rng, 12), g) for _ in range(10)]


def random_samples(rng, grid, scale=1.0):
    vals = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
    return SampledFunction(grid, scale * vals)


def power_exponent(p, q, theta):
    """r with phi(x) = x^r for the generator rho(t) = t^theta."""
    return 1.0 / (1.0 / p + theta * (1.0 / q - 1.0 / p))


def amemiya_power(f, r):
    """inf_k (1 + k^r ||f||_r^r) / k = r (r-1)^{1/r-1} ||f||_r for phi(x) = x^r."""
    return r * (r - 1.0) ** (1.0 / r - 1.0) * lp_norm(f, r)


# generators rho(t) = t^theta as (p, q, theta); phi(x) = x^r, r = power_exponent(p, q, theta)
GENERATORS = [(2.0, 4.0, 0.0), (1.5, 3.0, 0.0), (1.5, 3.0, 0.5), (2.0, 4.0, 0.25), (1.1, 20.0, 1.0)]
# the generators of the benchmark's oracle-tables workload
BENCH_GENERATORS = [(1.5, 3.0, 0.5), (2.0, 4.0, 0.25), (1.5, 3.0, 0.0)]
# generators outside the power family, where the log-log table is not exact
NON_POWER = {
    "t^0.3+0.5t^0.9": (1.1, 20.0, lambda t: np.asarray(t, dtype=float) ** 0.3
                       + 0.5 * np.asarray(t, dtype=float) ** 0.9),
    "log1p": (1.5, 3.0, np.log1p),
}
HOMOGENEITY_SCALES = (0.125, 3.0, 17.0, 2.0**1020, 2.0**-1030)


class TestLpNorm:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.7, INF])
    def test_constant(self, grid64, p):
        f = SampledFunction(grid64, np.full(64, -2.5 + 0j))
        assert abs(lp_norm(f, p) - 2.5) < 1e-13

    def test_half_indicator(self, grid64):
        vals = np.zeros(64, dtype=complex)
        vals[:32] = 1.0
        f = SampledFunction(grid64, vals)
        assert abs(lp_norm(f, 2.0) - 1.0 / np.sqrt(2.0)) < 1e-14

    def test_weighted_is_norm_of_product(self, grid64, rng):
        f = random_samples(rng, grid64)
        w = SampledFunction(grid64, (0.5 + rng.random(64)).astype(complex))
        fw = SampledFunction(grid64, f.values * w.values.real)
        for p in (1.0, 2.5, INF):
            assert abs(lp_norm(f, p, weight=w) - lp_norm(fw, p)) < 1e-12

    def test_p_below_one_rejected(self, grid64):
        f = SampledFunction(grid64, np.ones(64, dtype=complex))
        with pytest.raises(ValueError):
            lp_norm(f, 0.5)

    @pytest.mark.parametrize("values", ["constant", "random"])
    def test_nan_p_rejected(self, grid64, rng, values):
        if values == "constant":
            f = SampledFunction(grid64, np.ones(64, dtype=complex))
        else:
            f = random_samples(rng, grid64)
        w = SampledFunction(grid64, np.full(64, 2.0 + 0j))
        for norm in (
            lambda: lp_norm(f, np.nan),
            lambda: lp_norm(f, np.nan, weight=w),
            lambda: Lp(np.nan).norm(f),
            lambda: WeightedLp(np.nan, w).norm(f),
            lambda: hp_norm(FourierCoeffs(2, np.arange(5.0)), np.nan, grid64),
        ):
            with pytest.raises(ValueError):
                norm()

    def test_positive_weight_required(self, grid64):
        f = SampledFunction(grid64, np.ones(64, dtype=complex))
        w = SampledFunction(grid64, np.zeros(64, dtype=complex))
        with pytest.raises(ValueError):
            lp_norm(f, 2.0, weight=w)
        for bad in (np.nan, np.inf, 1.0 + 1.0j):
            values = np.ones(64, dtype=complex)
            values[5] = bad
            w = SampledFunction(grid64, values)
            with pytest.raises(ValueError):
                lp_norm(f, 2.0, weight=w)
            with pytest.raises(ValueError):
                WeightedLp(2.0, w)


@pytest.mark.parametrize("c", [1e155, 1e-170])
def test_constant_whose_power_sum_leaves_the_floats(grid64, c):
    # 64 c^p overflows or underflows for p in {2, 3}; every norm of a
    # constant still reads the constant (Lorentz: c (p/q)^{1/q})
    f = SampledFunction(grid64, np.full(64, c + 0j))
    one = SampledFunction(grid64, np.ones(64, dtype=complex))
    coeffs = FourierCoeffs(3, np.array([0, 0, 0, c, 0, 0, 0], dtype=complex))
    norms = [lp_norm(f, 2.0), lp_norm(f, 3.0), hp_norm(coeffs, 2.0, grid64),
             hp_norm(coeffs, 3.0, grid64), WeightedLp(2.0, one).norm(f),
             lorentz_norm(f, 3.0, 2.0) / 1.5**0.5]
    for value in norms:
        assert abs(value - c) <= 1e-13 * c


class TestRearrangement:
    def test_constant(self, grid64):
        f = SampledFunction(grid64, np.full(64, -3.0 + 0j))
        assert np.allclose(decreasing_rearrangement(f), 3.0)

    def test_three_values(self):
        g = make_grid(3)
        f = SampledFunction(g, np.array([3.0, -1.0, 2.0], dtype=complex))
        assert np.allclose(decreasing_rearrangement(f), [3.0, 2.0, 1.0])

    def test_preserves_lp_norm(self, grid64, rng):
        f = random_samples(rng, grid64)
        star = decreasing_rearrangement(f)
        for p in (1.0, 2.0, 3.3):
            direct = float(np.mean(star**p) ** (1 / p))
            assert abs(direct - lp_norm(f, p)) < 1e-12


class TestLorentz:
    def test_constant_closed_form(self, grid64):
        # integral of t^{q/p-1} over [0,1] is p/q
        f = SampledFunction(grid64, np.full(64, 1.7 + 0j))
        for p, q in ((3.0, 1.5), (2.0, 2.0), (4.0, 1.0)):
            assert abs(lorentz_norm(f, p, q) - 1.7 * (p / q) ** (1 / q)) < 1e-10

    def test_pp_equals_lp(self, grid1024, rng):
        for _ in range(10):
            f = random_samples(rng, grid1024)
            p = float(rng.uniform(1.0, 6.0))
            assert abs(lorentz_norm(f, p, p) - lp_norm(f, p)) < 1e-12

    def test_zero_function(self, grid64):
        f = SampledFunction(grid64, np.zeros(64, dtype=complex))
        assert lorentz_norm(f, 2.0, 1.5) == 0.0

    def test_parameter_validation(self, grid64):
        f = SampledFunction(grid64, np.ones(64, dtype=complex))
        with pytest.raises(ValueError):
            lorentz_norm(f, 1.5, 2.0)  # q > p
        with pytest.raises(ValueError):
            Lorentz(p=2.0, q=0.5)


class TestPhiFromRho:
    def test_theta_zero_gives_xp(self):
        phi = phi_from_rho(2.0, 4.0, 0.0)
        x = np.exp(np.linspace(np.log(1e-4), np.log(1e4), 64))
        assert np.max(np.abs(phi.phi(x) - x**2.0) / x**2.0) < 1e-8

    def test_theta_one_gives_xq(self):
        phi = phi_from_rho(2.0, 4.0, 1.0)
        x = np.exp(np.linspace(np.log(1e-2), np.log(1e2), 64))
        assert np.max(np.abs(phi.phi(x) - x**4.0) / x**4.0) < 1e-8

    def test_theta_half_power(self):
        # exponent of phi^{-1} is 1/2 + (1/4 - 1/2)/2 = 3/8, so phi = x^{8/3}
        phi = phi_from_rho(2.0, 4.0, 0.5)
        x = np.exp(np.linspace(np.log(1e-3), np.log(1e3), 64))
        assert np.max(np.abs(phi.phi(x) - x ** (8 / 3)) / x ** (8 / 3)) < 1e-7

    def test_inverse_pair(self):
        phi = phi_from_rho(1.5, 3.0, 0.3)
        x = np.array([1e-6, 1e-2, 1.0, 1e3])
        assert np.max(np.abs(phi.phi(phi.phi_inv(x)) - x) / x) < 1e-8

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            phi_from_rho(2.0, 2.0, 0.5)  # needs p < q
        with pytest.raises(ValueError):
            phi_from_rho(2.0, 4.0, 1.5)  # theta outside [0, 1]

    def test_nonconvex_generator_rejected(self):
        # rho(t) = t^{-6} makes phi^{-1} superlinear, i.e. phi concave
        with pytest.raises(InvalidGeneratorError):
            phi_from_rho(2.0, 4.0, rho=lambda t: t**-6.0)

    def test_extension_moves_only_the_short_end(self):
        phi = phi_from_rho(1.1, 20.0, 1.0)  # phi^{-1}(x) = x^{1/20}: y in [0.25, 3.99]
        lo, hi = phi.y_table[0], phi.y_table[-1]
        covered = phi.extended_to(np.array([lo, 1.0, hi]))
        assert covered.x_table[0] == phi.x_table[0] and covered.x_table[-1] == phi.x_table[-1]
        low = phi.extended_to(np.array([1e-3, 1.0]))
        assert low.y_table[0] <= 1e-3 and low.x_table[-1] == phi.x_table[-1]
        high = phi.extended_to(np.array([1.0, 1e3]))
        assert high.y_table[-1] >= 1e3 and high.x_table[0] == phi.x_table[0]

    @pytest.mark.parametrize("p, q, theta", GENERATORS)
    def test_reads_the_tables_loglog(self, rng, p, q, theta):
        # the logs taken once at build give the bits of taking them per call
        phi = phi_from_rho(p, q, theta)
        for t, nodes, values, read in (
            (phi.y_table, phi.y_table, phi.x_table, phi.phi),
            (phi.x_table, phi.x_table, phi.y_table, phi.phi_inv),
        ):
            args = np.exp(rng.uniform(np.log(t[0]), np.log(t[-1]), 200))
            args = np.concatenate([args, t[[0, 1, -2, -1]]])
            ref = np.exp(np.interp(np.log(args), np.log(nodes), np.log(values)))
            assert np.array_equal(read(args), ref)
            assert read(np.array([0.0]))[0] == 0.0

    def test_out_of_range_raises(self, grid64):
        phi = phi_from_rho(2.0, 4.0, 0.5)
        with pytest.raises(RangeExceededError):
            phi.phi(np.array([1e300]))


class TestOrliczModular:
    def test_zero_function(self, grid64):
        phi = phi_from_rho(2.0, 4.0, 0.25)
        f = SampledFunction(grid64, np.zeros(64, dtype=complex))
        assert orlicz_modular(f, phi) == 0.0

    def test_power_path_constant(self, grid64):
        phi = phi_from_rho(3.0, 5.0, 0.0)  # phi(x) = x^3
        f = SampledFunction(grid64, np.full(64, 1.4 + 0j))
        assert abs(orlicz_modular(f, phi) - 1.4**3) < 1e-8

    def test_monotone_in_modulus(self, grid64, rng):
        phi = phi_from_rho(1.5, 3.0, 0.5)
        for _ in range(5):
            f = random_samples(rng, grid64)
            g = SampledFunction(grid64, f.values * rng.uniform(0.0, 1.0, 64))
            assert orlicz_modular(g, phi) <= orlicz_modular(f, phi) + 1e-12


def _modular_auto(values_abs, phi, scale):
    """Modular of scale*|f| and the table it was read on, which is extended
    to cover scale*|f| on the first miss: the reference's lazy table."""
    scaled = values_abs * scale
    try:
        return float(np.mean(phi.phi(scaled))), phi
    except RangeExceededError:
        phi = phi.extended_to(scaled)
    return float(np.mean(phi.phi(scaled))), phi


def luxemburg_expanding_reference(f, phi):
    """The search that `luxemburg_norm` replaced: from lambda = max|f|, double
    until I_phi(f/lambda) <= 1 and halve until it exceeds 1, then bisect to
    relative width 1e-10 and return the feasible end."""
    a = np.abs(f.values)
    lo = hi = float(np.max(a))
    modular, phi = _modular_auto(a, phi, 1.0 / hi)
    while modular > 1.0:
        lo, hi = hi, 2.0 * hi
        modular, phi = _modular_auto(a, phi, 1.0 / hi)
    while _modular_auto(a, phi, 1.0 / lo)[0] <= 1.0:
        hi, lo = lo, 0.5 * lo
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if _modular_auto(a, phi, 1.0 / mid)[0] <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


def luxemburg_bisection_reference(f, phi):
    """The bisection that `luxemburg_norm` replaced: bisect the proven
    bracket [mean|f| / u, max|f| / u], u = phi^{-1}(1), to relative width
    1e-10 and return the feasible end."""
    a, e = spaces._normalised(np.abs(f.values))
    u = float(phi.phi_inv(1.0))
    lo, hi = float(np.mean(a)) / u, float(np.max(a)) / u
    phi = spaces._covering(phi, a, lo, hi)
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if spaces._modular(a * (1.0 / mid), phi) <= 1.0:
            hi = mid
        else:
            lo = mid
    return np.ldexp(hi, e)


def amemiya_golden_reference(f, phi):
    """The golden-section search that `orlicz_amemiya_norm` replaced: minimise
    s (1 + I_phi(f/s)) over its proven bracket to a width of 1e-9 times its
    top and return the objective at the final midpoint."""
    a, e = spaces._normalised(np.abs(f.values))
    v = float(phi.phi_inv(1.0 / (phi.p - 1.0)))
    lo, hi = float(np.mean(a)) / v, 2.0 * float(np.max(a)) / float(phi.phi_inv(1.0))
    phi = spaces._covering(phi, a, lo, hi)
    objective = lambda s: s * (1.0 + spaces._modular(a * (1.0 / s), phi))  # noqa: E731
    return np.ldexp(spaces._golden_min(objective, lo, hi, 1e-9 * hi)[1], e)


@pytest.mark.parametrize("name", sorted(NON_POWER))
def test_norms_match_the_replaced_searches(name):
    # outside the power family the searches meet the kinks of the table
    p, q, rho = NON_POWER[name]
    phi = phi_from_rho(p, q, rho=rho)
    for f in verify_shapes():
        ref = luxemburg_bisection_reference(f, phi)
        assert abs(luxemburg_norm(f, phi) - ref) <= 1e-10 * ref
        ref = amemiya_golden_reference(f, phi)
        assert abs(orlicz_amemiya_norm(f, phi) - ref) <= 1e-11 * ref


@pytest.mark.parametrize("p, q, theta", GENERATORS)
def test_power_family_closed_forms(p, q, theta):
    # phi(x) = x^r is exact in log-log, and both roots are read to the ulp
    phi = phi_from_rho(p, q, theta)
    r = power_exponent(p, q, theta)
    for f in verify_shapes():
        ref = lp_norm(f, r)
        assert abs(luxemburg_norm(f, phi) - ref) <= 1e-13 * ref
        ref = amemiya_power(f, r)
        assert abs(orlicz_amemiya_norm(f, phi) - ref) <= 1e-13 * ref


class TestTableReads:
    """Reads of the phi table (`spaces._loglog`) per norm call on the
    `verify orlicz` shapes: the first secant step lands on the root of the
    power family, and outside it the table's kinks cost a few more."""

    @pytest.fixture
    def reads(self, monkeypatch):
        count, original = [0], spaces._loglog

        def counted(*args):
            count[0] += 1
            return original(*args)

        monkeypatch.setattr(spaces, "_loglog", counted)
        return count

    def most_reads(self, reads, norm, phi):
        most = 0
        for f in verify_shapes():
            reads[0] = 0
            norm(f, phi)
            most = max(most, reads[0])
        return most

    @pytest.mark.parametrize("p, q, theta", BENCH_GENERATORS)
    def test_power_family(self, reads, p, q, theta):
        phi = phi_from_rho(p, q, theta)
        assert self.most_reads(reads, luxemburg_norm, phi) <= 6
        assert self.most_reads(reads, orlicz_amemiya_norm, phi) <= 8

    @pytest.mark.parametrize("name", sorted(NON_POWER))
    def test_non_power(self, reads, name):
        p, q, rho = NON_POWER[name]
        phi = phi_from_rho(p, q, rho=rho)
        assert self.most_reads(reads, luxemburg_norm, phi) <= 12
        assert self.most_reads(reads, orlicz_amemiya_norm, phi) <= 16


class TestLuxemburgBracket:
    @pytest.mark.parametrize("scale", [1.0, 3.0, 2.0**1020, 2.0**-1020])
    def test_ends_straddle_the_unit_modular(self, rng, scale):
        # both modulars read at the returned ends, on the caller's scale
        phi = phi_from_rho(1.5, 3.0, 0.5)
        grid = make_grid(512)
        for _ in range(5):
            a = np.abs(random_samples(rng, grid, scale).values)
            lo, hi = spaces._luxemburg_bracket(a, phi)
            assert spaces._modular(a * (1.0 / lo), phi) > 1.0
            top = spaces._modular(a * (1.0 / hi), phi)
            assert top <= 1.0
            assert top == 1.0 or lo < hi <= lo * (1.0 + 8.0 * np.finfo(float).eps)

    def test_zero(self):
        assert spaces._luxemburg_bracket(np.zeros(8), phi_from_rho(1.5, 3.0, 0.5)) == (0.0, 0.0)


class TestZeroin:
    def test_step_function(self):
        # a jump at 0.3: bisection takes over from the interpolation
        (x, v, _), (y, w, _) = spaces._zeroin(lambda t: (0.5 if t < 0.3 else -0.5, None), 0.0, 1.0, 1e-12)
        assert {v > 0.0, w > 0.0} == {True, False}
        assert abs(x - 0.3) <= 1e-12 and abs(y - 0.3) <= 1e-12

    def test_unbracketed_raises(self):
        with pytest.raises(NoConvergenceError):
            spaces._zeroin(lambda t: (1.0 + t, None), 0.0, 1.0, 1e-12)


class TestLuxemburg:
    def test_zero_function(self, grid64):
        phi = phi_from_rho(2.0, 4.0, 0.25)
        f = SampledFunction(grid64, np.zeros(64, dtype=complex))
        assert luxemburg_norm(f, phi) == 0.0

    def test_power_phi_equals_lp(self, grid64, rng):
        phi = phi_from_rho(2.0, 4.0, 0.0)  # phi(x) = x^2
        f = random_samples(rng, grid64)
        assert abs(luxemburg_norm(f, phi) - lp_norm(f, 2.0)) < 1e-13 * lp_norm(f, 2.0)

    def test_homogeneity(self, grid64, rng):
        phi = phi_from_rho(1.5, 3.0, 0.5)
        f = random_samples(rng, grid64)
        base = luxemburg_norm(f, phi)
        for a in HOMOGENEITY_SCALES:
            fa = SampledFunction(grid64, a * f.values)
            assert abs(luxemburg_norm(fa, phi) - a * base) < 1e-12 * a * base

    @pytest.mark.parametrize("p, q, theta", [(1.5, 3.0, 0.5), (2.0, 4.0, 0.25), (1.1, 20.0, 1.0)])
    def test_matches_expanding_reference(self, p, q, theta):
        # the `verify orlicz` shapes: degree-12 trigonometric polynomials on 512 points
        g = make_grid(512)
        rng = np.random.default_rng([0, 12])
        phi = phi_from_rho(p, q, theta)
        for _ in range(10):
            f = synthesize(random_trig_polynomial(rng, 12), g)
            ref = luxemburg_expanding_reference(f, phi)
            assert abs(luxemburg_norm(f, phi) - ref) <= 1e-10 * ref

    def test_constant_with_rho_one_equal_two(self, grid64):
        # rho(t) = 2 t^{1/2} gives phi^{-1}(1) = 2, so ||c||_phi = c / 2
        phi = phi_from_rho(2.0, 4.0, rho=lambda t: 2.0 * np.asarray(t, dtype=float) ** 0.5)
        c = 3.7
        f = SampledFunction(grid64, np.full(64, c, dtype=complex))
        assert abs(luxemburg_norm(f, phi) - c / 2.0) <= 1e-13 * c / 2.0


class TestAmemiya:
    def test_zero_function(self, grid64):
        phi = phi_from_rho(2.0, 4.0, 0.25)
        f = SampledFunction(grid64, np.zeros(64, dtype=complex))
        assert orlicz_amemiya_norm(f, phi) == 0.0

    @pytest.mark.parametrize("p, q, theta", GENERATORS)
    def test_quadratic_phi_closed_form(self, grid64, rng, p, q, theta):
        # phi(x) = x^r: the minimum over k of (1 + k^r s^r)/k, s = ||f||_r, is
        # r (r-1)^{1/r-1} s; for r = 2 it is 2s, attained at k = 1/s
        phi = phi_from_rho(p, q, theta)
        f = random_samples(rng, grid64)
        ref = amemiya_power(f, power_exponent(p, q, theta))
        assert abs(orlicz_amemiya_norm(f, phi) - ref) <= 1e-13 * ref

    def test_homogeneity(self, grid64, rng):
        phi = phi_from_rho(1.5, 3.0, 0.5)
        f = random_samples(rng, grid64)
        base = orlicz_amemiya_norm(f, phi)
        for a in HOMOGENEITY_SCALES:
            fa = SampledFunction(grid64, a * f.values)
            assert abs(orlicz_amemiya_norm(fa, phi) - a * base) < 1e-12 * a * base

    def test_sandwich(self, grid64, rng):
        for p, q, theta in ((1.5, 3.0, 0.5), (2.0, 4.0, 0.25)):
            phi = phi_from_rho(p, q, theta)
            for _ in range(5):
                f = random_samples(rng, grid64)
                lux = luxemburg_norm(f, phi)
                am = orlicz_amemiya_norm(f, phi)
                assert lux <= am * (1 + 1e-8)
                assert am <= 2.0 * lux * (1 + 1e-8)


class TestOrliczTableExtension:
    @pytest.fixture
    def extensions(self, monkeypatch):
        calls, original = [], PhiSpec.extended_to

        def counted(self, values):
            calls.append(values)
            return original(self, values)

        monkeypatch.setattr(PhiSpec, "extended_to", counted)
        return calls

    @pytest.mark.parametrize("norm", [luxemburg_norm, orlicz_amemiya_norm])
    def test_in_table_bracket_extends_nothing(self, grid64, rng, extensions, norm):
        phi = phi_from_rho(1.5, 3.0, 0.5)
        norm(random_samples(rng, grid64), phi)
        assert extensions == []

    @pytest.mark.parametrize("norm", [luxemburg_norm, orlicz_amemiya_norm])
    def test_bracket_outside_extends_once(self, grid64, rng, extensions, norm):
        # phi^{-1}(x) = x^{1/20} tabulates y in [0.25, 3.99] only; the power
        # family is exact in log-log, so the extended table reads x^20 still
        phi = phi_from_rho(1.1, 20.0, 1.0)
        f = random_samples(rng, grid64)
        value = norm(f, phi)
        assert len(extensions) == 1
        ref = lp_norm(f, 20.0) if norm is luxemburg_norm else amemiya_power(f, 20.0)
        assert abs(value - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("norm", [luxemburg_norm, orlicz_amemiya_norm])
    def test_zero_function_reads_no_table(self, grid64, extensions, norm):
        phi = phi_from_rho(1.1, 20.0, 1.0)
        assert norm(SampledFunction(grid64, np.zeros(64, dtype=complex)), phi) == 0.0
        assert extensions == []


class TestOrliczInputs:
    @pytest.mark.parametrize("p, q, theta", [(1.5, 3.0, 0.5), (1.1, 20.0, 1.0), (2.0, 4.0, 0.25)])
    @pytest.mark.parametrize("tiny", [1e-30, 1e-100, 1e-300, 0.0])
    def test_tiny_entry_matches_closed_forms(self, grid64, p, q, theta, tiny):
        # phi(tiny) underflows: the table stops at the smallest normal double
        # and phi reads 0 below it
        values = np.ones(64, dtype=complex)
        values[5] = tiny
        f = SampledFunction(grid64, values)
        phi = phi_from_rho(p, q, theta)
        r = power_exponent(p, q, theta)
        lux, ref = luxemburg_norm(f, phi), lp_norm(f, r)
        assert abs(lux - ref) <= 1e-13 * ref
        am, ref = orlicz_amemiya_norm(f, phi), amemiya_power(f, r)
        assert abs(am - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("norm", [luxemburg_norm, orlicz_amemiya_norm])
    def test_least_subnormal_entry_below_the_table(self, grid64, norm):
        # rho(t) = 0.3 t^{1/2} gives phi(y) = (y / 0.3)^{8/3} and u = 0.3: the
        # entry 5e-324 times 1/lambda reads 0 at the top of the bracket but
        # the least subnormal inside it, so the table must reach phi = 0
        phi = phi_from_rho(2.0, 4.0, rho=lambda t: 0.3 * np.asarray(t, dtype=float) ** 0.5)
        values = np.zeros(64, dtype=complex)
        values[0], values[1] = 0.75, 5e-324
        f = SampledFunction(grid64, values)
        r = 8.0 / 3.0
        ref = lp_norm(f, r) / 0.3 if norm is luxemburg_norm else amemiya_power(f, r) / 0.3
        assert abs(norm(f, phi) - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("norm", [luxemburg_norm, orlicz_amemiya_norm])
    def test_nonfinite_samples_rejected(self, grid64, rng, bad, norm):
        values = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        values[7] = bad
        f = SampledFunction(grid64, values)
        with pytest.raises(ValueError):
            norm(f, phi_from_rho(1.5, 3.0, 0.5))


class TestSpaceAxioms:
    """Banach-function-norm axioms on random data for every space family."""

    def spaces(self, grid):
        phi = phi_from_rho(1.5, 3.0, 0.5)
        w = SampledFunction(grid, (0.5 + np.linspace(0, 1, grid.n_points)).astype(complex))
        return [
            Lp(1.0),
            Lp(2.5),
            Lp(INF),
            WeightedLp(2.0, w),
            Lorentz(3.0, 1.5),
            Orlicz(phi, "luxemburg"),
            Orlicz(phi, "amemiya"),
        ]

    def test_triangle_inequality(self, grid64, rng):
        for space in self.spaces(grid64):
            for _ in range(3):
                f = random_samples(rng, grid64)
                g = random_samples(rng, grid64)
                s = SampledFunction(grid64, f.values + g.values)
                lhs = space.norm(s)
                rhs = space.norm(f) + space.norm(g)
                assert lhs <= rhs * (1 + 1e-9)

    def test_absolute_homogeneity(self, grid64, rng):
        for space in self.spaces(grid64):
            f = random_samples(rng, grid64)
            base = space.norm(f)
            fa = SampledFunction(grid64, -2.5 * f.values)
            assert abs(space.norm(fa) - 2.5 * base) < 1e-8 * base

    def test_lattice_property(self, grid64, rng):
        for space in self.spaces(grid64):
            for _ in range(3):
                f = random_samples(rng, grid64)
                shrink = rng.uniform(0.0, 1.0, 64)
                g = SampledFunction(grid64, f.values * shrink)
                assert space.norm(g) <= space.norm(f) + 1e-12 * max(space.norm(f), 1.0)

    def test_holder_pairing(self, grid64, rng):
        for p in (1.0, 1.5, 2.0, 4.0):
            pprime = holder_conjugate(p)
            for _ in range(3):
                f = random_samples(rng, grid64)
                g = random_samples(rng, grid64)
                pairing = abs(np.mean(f.values * g.values))
                assert pairing <= lp_norm(f, p) * lp_norm(g, pprime) * (1 + 1e-9)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), p=st.floats(1.0, 6.0))
def test_lorentz_diagonal_matches_lp(seed, p):
    rng = np.random.default_rng(seed)
    g = make_grid(128)
    f = synthesize(random_trig_polynomial(rng, 12), g)
    assert abs(lorentz_norm(f, p, p) - lp_norm(f, p)) < 1e-12 * max(lp_norm(f, p), 1.0)
