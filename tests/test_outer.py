import numpy as np
import pytest

from hardybench import (
    Lorentz,
    Lp,
    SampledFunction,
    WeightSpec,
    analyze,
    conjugate_function,
    isometry_check,
    lp_norm,
    make_grid,
    outer_function,
    synthesize,
)
from hardybench.testfunctions import random_analytic_polynomial


class TestConjugateFunction:
    def test_constant_maps_to_zero(self, grid256):
        u = SampledFunction(grid256, np.full(256, 2.5, dtype=complex))
        tilde = conjugate_function(u)
        assert np.max(np.abs(tilde.values)) < 1e-13

    def test_cos_maps_to_sin(self, grid256):
        u = SampledFunction(grid256, np.cos(grid256.theta).astype(complex))
        tilde = conjugate_function(u)
        assert np.max(np.abs(tilde.values.real - np.sin(grid256.theta))) < 1e-12

    def test_involution_on_mean_zero(self, grid256, rng):
        vals = rng.standard_normal(256)
        vals -= vals.mean()
        u = SampledFunction(grid256, vals.astype(complex))
        d = grid256.n_points // 2 - 1
        twice = conjugate_function(conjugate_function(u, d), d)
        # double conjugation is -1 on mean-zero band-limited functions
        proj = synthesize(analyze(u, d), grid256).values.real
        assert np.max(np.abs(twice.values.real + proj)) < 1e-10

    def test_mean_of_conjugate_vanishes(self, grid256, rng):
        u = SampledFunction(grid256, rng.standard_normal(256).astype(complex))
        tilde = conjugate_function(u)
        assert abs(np.mean(tilde.values)) < 1e-13


class TestOuterFunction:
    def test_unit_weight(self, grid256):
        w = WeightSpec(SampledFunction(grid256, np.ones(256, dtype=complex)))
        big_w = outer_function(w)
        assert np.max(np.abs(big_w.values - 1.0)) < 1e-12

    def test_regularized_linear_factor(self):
        # |1 - (1-eps) e^{i theta}| is the modulus of the outer function
        # 1 - (1-eps) z (zero-free in the closed disk, positive at 0)
        g = make_grid(2048)
        eps = 1e-2
        rho = 1.0 - eps
        target = 1.0 - rho * np.exp(1j * g.theta)
        w = WeightSpec(SampledFunction(g, np.abs(target).astype(complex)))
        big_w = outer_function(w)
        assert np.max(np.abs(big_w.values - target)) < 1e-6

    def test_exp_cos_modulus(self):
        g = make_grid(1024)
        w = WeightSpec(SampledFunction(g, np.exp(np.cos(g.theta)).astype(complex)))
        big_w = outer_function(w, degree=256)
        assert np.max(np.abs(np.abs(big_w.values) - w.values)) < 1e-8

    def test_modulus_error_decreases_with_degree(self):
        # log w is not band-limited here, so the truncation error must
        # shrink as the degree doubles
        g = make_grid(2048)
        w = WeightSpec(SampledFunction(g, (2.0 + np.sin(g.theta)).astype(complex)))
        errs = []
        for d in (4, 8, 16):
            big_w = outer_function(w, degree=d)
            errs.append(float(np.max(np.abs(np.abs(big_w.values) - w.values))))
        assert errs[0] > errs[1] > errs[2]  # halves until roundoff saturation
        assert errs[2] < 1e-9

    def test_positive_weight_required(self, grid256):
        vals = np.cos(grid256.theta).astype(complex)
        with pytest.raises(ValueError):
            WeightSpec(SampledFunction(grid256, vals))
        for bad in (np.nan, np.inf, 1.0 + 1.0j):
            vals = np.ones(256, dtype=complex)
            vals[7] = bad
            with pytest.raises(ValueError):
                WeightSpec(SampledFunction(grid256, vals))


class TestIsometryCheck:
    def test_unit_weight_all_equal(self, grid256, rng):
        w = WeightSpec(SampledFunction(grid256, np.ones(256, dtype=complex)))
        f = random_analytic_polynomial(rng, 8)
        rep = isometry_check(f, w, Lp(2.0))
        base = lp_norm(synthesize(f, grid256), 2.0)
        assert abs(rep.norm_outer_times_f - base) < 1e-12
        assert abs(rep.norm_weight_times_f - base) < 1e-12
        assert abs(rep.norm_weighted_space - base) < 1e-12

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    def test_smooth_weight_three_norms(self, p, rng):
        g = make_grid(2048)
        w = WeightSpec(SampledFunction(g, np.exp(np.cos(g.theta)).astype(complex)))
        f = random_analytic_polynomial(rng, 16)
        rep = isometry_check(f, w, Lp(p), degree=512)
        assert rep.max_relative_deviation < 1e-8
        assert rep.negative_frequency_leakage < 1e-8

    def test_lorentz_evaluator(self, rng):
        g = make_grid(1024)
        w = WeightSpec(SampledFunction(g, np.exp(np.cos(g.theta)).astype(complex)))
        f = random_analytic_polynomial(rng, 12)
        rep = isometry_check(f, w, Lorentz(2.5, 1.5), degree=256)
        assert rep.max_relative_deviation < 1e-8

    def test_requires_analytic_input(self, grid256, rng):
        from hardybench.testfunctions import random_trig_polynomial

        w = WeightSpec(SampledFunction(grid256, np.ones(256, dtype=complex)))
        with pytest.raises(ValueError):
            isometry_check(random_trig_polynomial(rng, 4), w, Lp(2.0))
