import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardybench import (
    FourierCoeffs,
    SampledFunction,
    analyze,
    lp_norm,
    make_grid,
    rotate_samples,
    synthesize,
    translate,
)
from hardybench.errors import DegreeExceedsGridError


def random_coeffs(rng, degree):
    vals = rng.standard_normal(2 * degree + 1) + 1j * rng.standard_normal(2 * degree + 1)
    return FourierCoeffs(degree=degree, coeffs=vals)


class TestMakeGrid:
    def test_four_points(self):
        g = make_grid(4)
        assert np.allclose(g.theta, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
        assert g.quad_weight == 0.25

    def test_smallest_grid(self):
        g = make_grid(2)
        assert np.allclose(g.theta, [0.0, np.pi])

    def test_weights_sum_to_one(self):
        g = make_grid(4096)
        assert abs(g.quad_weight * g.n_points - 1.0) < 1e-15

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            make_grid(1)

    def test_angles_equispaced(self):
        g = make_grid(17)
        steps = np.diff(g.theta)
        assert np.allclose(steps, 2 * np.pi / 17)


class TestAnalyze:
    def test_constant(self, grid64):
        f = SampledFunction(grid64, np.ones(64, dtype=complex))
        c = analyze(f, 5)
        assert abs(c.coeff(0) - 1.0) < 1e-14
        for k in range(1, 6):
            assert abs(c.coeff(k)) < 1e-14
            assert abs(c.coeff(-k)) < 1e-14

    def test_pure_harmonic(self, grid64):
        f = SampledFunction(grid64, np.exp(1j * grid64.theta))
        c = analyze(f, 3)
        assert abs(c.coeff(1) - 1.0) < 1e-14
        assert abs(c.coeff(0)) < 1e-14
        assert abs(c.coeff(-1)) < 1e-14

    def test_round_trip_degree5(self, grid64, rng):
        c = random_coeffs(rng, 5)
        f = synthesize(c, grid64)
        back = analyze(f, 5)
        assert np.max(np.abs(back.coeffs - c.coeffs)) < 1e-13

    def test_degree_must_fit(self, grid64):
        with pytest.raises(DegreeExceedsGridError):
            analyze(SampledFunction(grid64, np.ones(64, dtype=complex)), 32)


class TestSynthesize:
    def test_constant(self, grid64):
        f = synthesize(FourierCoeffs(0, np.array([1.0 + 0j])), grid64)
        assert np.allclose(f.values, 1.0)

    def test_first_harmonic(self, grid64):
        f = synthesize(FourierCoeffs(1, np.array([0, 0, 1.0], dtype=complex)), grid64)
        assert np.allclose(f.values, np.exp(1j * grid64.theta))

    def test_fejer_coefficients_match_closed_form(self, grid64):
        # coefficient sum vs trigonometric quotient, n = 2
        from hardybench import fejer_kernel, fejer_multipliers

        coeffs = fejer_multipliers(2, 2).astype(complex)
        from_coeffs = synthesize(FourierCoeffs(2, coeffs), grid64)
        closed = fejer_kernel(2, grid64)
        assert np.max(np.abs(from_coeffs.values - closed.values)) < 1e-12


    def test_aliased_degree_matches_direct_sum(self, grid64, rng):
        # 2d + 1 > N: wavenumbers k and k +- 64 share a bin and add there
        c = random_coeffs(rng, 40)
        f = synthesize(c, grid64)
        direct = np.exp(1j * np.outer(grid64.theta, c.wavenumbers)) @ c.coeffs
        assert np.max(np.abs(f.values - direct)) <= 1e-12 * np.max(np.abs(direct))


class TestTranslate:
    def test_zero_angle_identity(self, grid64, rng):
        f = synthesize(random_coeffs(rng, 6), grid64)
        g = translate(f, 0.0)
        assert np.max(np.abs(g.values - f.values)) < 1e-12

    def test_two_half_turns(self, grid64, rng):
        f = synthesize(random_coeffs(rng, 6), grid64)
        g = translate(translate(f, np.pi), np.pi)
        assert np.max(np.abs(g.values - f.values)) < 1e-12

    def test_continuity_in_angle(self, grid256, rng):
        f = synthesize(random_coeffs(rng, 8), grid256)
        norms = [lp_norm(SampledFunction(grid256, translate(f, t).values - f.values), 2.0)
                 for t in (1e-1, 1e-2, 1e-3)]
        assert norms[0] > norms[1] > norms[2]
        assert norms[2] < 1e-2 * lp_norm(f, 2.0)

    def test_grid_multiple_matches_sample_rotation(self, grid64, rng):
        f = synthesize(random_coeffs(rng, 10), grid64)
        m = 5
        spectral = translate(f, 2 * np.pi * m / 64)
        rolled = rotate_samples(f, m)
        assert np.max(np.abs(spectral.values - rolled.values)) < 1e-11

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
    def test_norm_invariance(self, grid64, rng, p):
        f = synthesize(random_coeffs(rng, 9), grid64)
        g = translate(f, 2 * np.pi * 7 / 64)
        assert abs(lp_norm(g, p) - lp_norm(f, p)) < 1e-12 * lp_norm(f, p)


@settings(max_examples=30, deadline=None)
@given(degree=st.integers(min_value=0, max_value=10), seed=st.integers(0, 2**31))
def test_analysis_synthesis_round_trip(degree, seed):
    rng = np.random.default_rng(seed)
    g = make_grid(2 * degree + 2 + (seed % 13))
    c = random_coeffs(rng, degree)
    back = analyze(synthesize(c, g), degree)
    scale = np.max(np.abs(c.coeffs)) + 1e-30
    assert np.max(np.abs(back.coeffs - c.coeffs)) < 1e-12 * max(scale, 1.0)
