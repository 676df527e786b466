import numpy as np
import pytest

from hardybench import (
    FourierCoeffs,
    KernelSpec,
    SampledFunction,
    analytic_restriction,
    analyze,
    backward_shift,
    convolution_operator,
    hp_norm,
    identity_minus,
    identity_operator,
    kernel_l1_norm,
    lp_norm,
    make_grid,
    substitute_fm,
    synthesize,
)
from hardybench.errors import DegreeExceedsGridError, NotInvariantError
from hardybench.operators import (
    OperatorRep,
    _circulant_from_first_column,
    analytic_synthesis,
    synthesis_matrix,
)
from hardybench.testfunctions import random_analytic_polynomial, random_trig_polynomial


class TestConvolutionOperator:
    def test_constant_kernel_is_mean_projector(self, grid64, rng):
        spec = KernelSpec.custom(
            SampledFunction(grid64, np.ones(64, dtype=complex)),
            nonneg=True,
            hat_nonneg=True,
        )
        op = convolution_operator(spec, grid64)
        f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        out = op.apply(f)
        assert np.max(np.abs(out - np.mean(f))) < 1e-13
        assert np.linalg.matrix_rank(op.matrix) == 1

    def test_fejer0_gives_subtract_mean(self, grid64, rng):
        op = identity_minus(convolution_operator(KernelSpec.fejer(0), grid64))
        f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        assert np.max(np.abs(op.apply(f) - (f - np.mean(f)))) < 1e-13

    @pytest.mark.parametrize("k", [-5, -1, 0, 2, 3])
    def test_fejer_eigenfunctions(self, grid256, k):
        n = 3
        op = convolution_operator(KernelSpec.fejer(n), grid256)
        e = np.exp(1j * k * grid256.theta)
        expected = max(0.0, 1.0 - abs(k) / (n + 1)) * e
        assert np.max(np.abs(op.apply(e) - expected)) < 1e-10

    def test_dense_and_fft_paths_agree(self, grid256, rng):
        op = convolution_operator(KernelSpec.poisson(0.6), grid256)
        f = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        assert np.max(np.abs(op.matrix @ f - op.apply(f))) < 1e-12

    def test_circulant_flag(self, grid64):
        op = convolution_operator(KernelSpec.fejer(2), grid64)
        assert op.circulant

    @pytest.mark.parametrize(
        "spec",
        [KernelSpec.fejer(0), KernelSpec.fejer(1), KernelSpec.fejer(4), KernelSpec.poisson(0.6)],
    )
    @pytest.mark.parametrize("n_pts", [64, 256])
    def test_lazy_matrix_equals_dense_construction(self, spec, n_pts):
        g = make_grid(n_pts)
        dense = _circulant_from_first_column(spec.sample(g).values / n_pts)
        op = convolution_operator(spec, g)
        assert np.array_equal(op.matrix, dense)
        assert np.array_equal(identity_minus(op).matrix, np.eye(n_pts) - dense)
        assert np.array_equal(identity_operator(g).matrix, np.eye(n_pts))

    def test_non_finite_kernel_sample_rejected(self, grid64):
        values = np.ones(64, dtype=complex)
        values[5] = np.nan
        spec = KernelSpec.custom(SampledFunction(grid64, values), nonneg=False, hat_nonneg=False)
        with pytest.raises(ValueError, match="finite"):
            convolution_operator(spec, grid64)


class TestRowApply:
    """apply and apply_adjoint on an (S, N) array act on each row."""

    def _rows(self, rng, n):
        return rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))

    def _check_rows(self, op, x):
        for fn in (op.apply, op.apply_adjoint):
            batch = fn(x)
            assert batch.shape == x.shape
            for i in range(x.shape[0]):
                assert np.array_equal(batch[i], fn(x[i]))

    @pytest.mark.parametrize("n", [0, 2, 4])
    def test_circulant_rows_are_bit_identical(self, grid64, rng, n):
        # r = 2n + 1 against log2 64 = 6: the band apply at n <= 2, FFT at n = 4
        op = identity_minus(convolution_operator(KernelSpec.fejer(n), grid64))
        assert bool(op._band_tables()) == (n <= 2)
        self._check_rows(op, self._rows(rng, 64))

    def test_poisson_rows_are_bit_identical(self, grid64, rng):
        op = identity_minus(convolution_operator(KernelSpec.poisson(0.6), grid64))
        assert not op._band_tables()
        self._check_rows(op, self._rows(rng, 64))

    @pytest.mark.parametrize("kind", ["complex", "real"])
    def test_dense_rows_match_single_vectors(self, rng, kind):
        m = rng.standard_normal((64, 64))
        if kind == "complex":
            m = m + 1j * rng.standard_normal((64, 64))
        op = OperatorRep(matrix=m, basis="grid", grid=make_grid(64))
        assert op.matrix.dtype == complex
        x = self._rows(rng, 64)
        for fn, ref in ((op.apply, m), (op.apply_adjoint, m.conj().T)):
            batch = fn(x)
            for i in range(x.shape[0]):
                single = fn(x[i])
                assert np.max(np.abs(batch[i] - single)) <= 1e-15 * np.max(np.abs(single))
                assert np.max(np.abs(single - ref @ x[i])) <= 1e-13 * np.max(np.abs(single))

    def test_complex_matrix_is_held_without_a_copy(self, rng):
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        op = OperatorRep(matrix=m, basis="grid", grid=make_grid(8))
        assert op.matrix is m


def _fft_reference(x, m):
    return np.fft.ifft(np.fft.fft(x, axis=-1) * m, axis=-1)


class TestCirculantApplyPaths:
    """Exact Fejer multipliers, and the band and FFT applies of a circulant."""

    @pytest.mark.parametrize(
        "n_pts,n", [(9, 4), (16, 7), (16, 10), (64, 40), (512, 1), (64, 0), (2048, 4)]
    )
    def test_fejer_multipliers_match_fft_of_column(self, n_pts, n):
        # 2n + 1 > N folds frequencies onto one bin: (9, 4) just fits, the rest alias
        op = convolution_operator(KernelSpec.fejer(n), make_grid(n_pts))
        assert np.max(np.abs(op.multipliers - np.fft.fft(op.column))) <= 2e-15

    @pytest.mark.parametrize("n_pts,n", [(9, 4), (64, 0), (64, 31), (512, 1), (2048, 4)])
    def test_fejer_difference_is_exactly_one_off_the_band(self, n_pts, n):
        m = identity_minus(convolution_operator(KernelSpec.fejer(n), make_grid(n_pts))).multipliers
        ks = np.arange(n_pts)
        off = np.minimum(ks, n_pts - ks) > n
        assert np.all(m[off] == 1.0)
        assert m[0] == 0.0

    @pytest.mark.parametrize("n", [0, 1, 2, 4])
    @pytest.mark.parametrize("n_pts", [64, 512, 2048])
    def test_band_and_fft_applies_agree(self, rng, n, n_pts):
        op = identity_minus(convolution_operator(KernelSpec.fejer(n), make_grid(n_pts)))
        assert bool(op._band_tables()) == (2 * n + 1 <= np.log2(n_pts))
        for shape in ((n_pts,), (5, n_pts)):
            x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            tol = 1e-14 * np.max(np.abs(x))
            assert np.max(np.abs(op.apply(x) - _fft_reference(x, op.multipliers))) <= tol
            ref = _fft_reference(x, np.conj(op.multipliers))
            assert np.max(np.abs(op.apply_adjoint(x) - ref)) <= tol

    def test_scaled_copy_keeps_the_band_apply(self, rng):
        from hardybench.opnorm import _in_range

        def pow2(v, e):
            v = np.asarray(v, dtype=complex)
            return np.ldexp(v.real, e) + 1j * np.ldexp(v.imag, e)

        base = identity_minus(convolution_operator(KernelSpec.fejer(1), make_grid(512)))
        big = OperatorRep(
            basis="grid",
            grid=base.grid,
            column=pow2(base.column, 700),
            multipliers=pow2(base.multipliers, 700),
        )
        copy = _in_range(big, 1.5)
        assert copy is not big and copy._band_tables() and big._band_tables()
        e = int(np.frexp(np.max(np.abs(big.column)))[1])
        x = rng.standard_normal((3, 512)) + 1j * rng.standard_normal((3, 512))
        for fn, ref in ((copy.apply, big.apply), (copy.apply_adjoint, big.apply_adjoint)):
            assert np.array_equal(fn(x), pow2(ref(x), -e))

    def test_identity_and_zero_circulants(self, grid64, rng):
        one = identity_operator(grid64)
        zero = identity_minus(one)
        assert one._band_tables()[1].size == 0 and zero._band_tables()[1].size == 0
        x = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
        for fn in (one.apply, one.apply_adjoint):
            assert np.array_equal(fn(x), x)
        for fn in (zero.apply, zero.apply_adjoint):
            assert np.array_equal(fn(x), np.zeros_like(x))


class TestIdentityMinus:
    def test_on_identity(self, grid64, rng):
        op = identity_minus(identity_operator(grid64))
        f = rng.standard_normal(64)
        assert np.max(np.abs(op.apply(f))) < 1e-14

    def test_on_zero(self, grid64, rng):
        zero = identity_minus(identity_operator(grid64))
        op = identity_minus(zero)
        f = rng.standard_normal(64)
        assert np.max(np.abs(op.apply(f) - f)) < 1e-14

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_circulant_eigenvalues_match_multipliers(self, grid256, n):
        # eigenvalues of the circulant = DFT of its first column
        from hardybench import fejer_multipliers

        op = identity_minus(convolution_operator(KernelSpec.fejer(n), grid256))
        eig = np.fft.fft(op.matrix[:, 0])
        d = 8
        ks = np.arange(-d, d + 1)
        expected = 1.0 - fejer_multipliers(n, d)
        assert np.max(np.abs(eig[ks % 256] - expected)) < 1e-10


class TestAnalyticRestriction:
    def test_identity(self, grid64):
        r = analytic_restriction(identity_operator(grid64), 7)
        assert np.max(np.abs(r.matrix - np.eye(8))) < 1e-12

    @pytest.mark.parametrize("n,d", [(2, 6), (4, 10)])
    def test_fejer_diagonal(self, grid256, n, d):
        op = convolution_operator(KernelSpec.fejer(n), grid256)
        r = analytic_restriction(op, d)
        ks = np.arange(d + 1)
        expected = np.maximum(0.0, 1.0 - ks / (n + 1))
        assert np.max(np.abs(np.diag(r.matrix) - expected)) < 1e-12
        off = r.matrix - np.diag(np.diag(r.matrix))
        assert np.max(np.abs(off)) < 1e-12

    def test_poisson_diagonal(self, grid256):
        r = analytic_restriction(convolution_operator(KernelSpec.poisson(0.5), grid256), 6)
        assert np.max(np.abs(np.diag(r.matrix) - 0.5 ** np.arange(7))) < 1e-12

    @pytest.mark.parametrize("spec", [KernelSpec.fejer(3), KernelSpec.poisson(0.5)])
    def test_circulant_matches_dense(self, grid256, spec):
        op = identity_minus(convolution_operator(spec, grid256))
        dense = OperatorRep(matrix=op.matrix, basis="grid", grid=grid256)
        diff = analytic_restriction(op, 16).matrix - analytic_restriction(dense, 16).matrix
        assert np.max(np.abs(diff)) < 1e-12

    def test_non_invariant_rejected(self, grid64):
        # multiplication by e^{i theta} shifts frequencies out of the span
        shift = np.diag(np.exp(1j * grid64.theta))
        op = OperatorRep(matrix=shift, basis="grid", grid=grid64)
        with pytest.raises(NotInvariantError):
            analytic_restriction(op, 5)

    def test_degree_must_fit(self, grid64):
        with pytest.raises(DegreeExceedsGridError):
            analytic_restriction(identity_operator(grid64), 40)


class TestBackwardShift:
    def test_annihilates_constants(self, grid64):
        b = backward_shift(5, grid64)
        c = np.zeros(6, dtype=complex)
        c[0] = 3.0
        assert np.max(np.abs(b.matrix @ c)) == 0.0

    def test_first_harmonic_to_constant(self, grid64):
        b = backward_shift(5, grid64)
        c = np.zeros(6, dtype=complex)
        c[1] = 1.0
        out = b.matrix @ c
        assert out[0] == 1.0 and np.max(np.abs(out[1:])) == 0.0

    def test_modulus_identity_with_subtract_mean(self, grid256, rng):
        # |Bf| = |f - mean(f)| pointwise on the circle
        d = 12
        b = backward_shift(d, grid256)
        c = random_analytic_polynomial(rng, d)
        analytic = c.coeffs[d:]
        shifted = analytic_synthesis(b.matrix @ analytic, 256)
        f = synthesize(c, grid256).values
        assert np.max(np.abs(np.abs(shifted) - np.abs(f - np.mean(f)))) < 1e-11

    def test_degree_validation(self, grid64):
        with pytest.raises(ValueError):
            backward_shift(0, grid64)


class TestSubstitution:
    def test_identity_substitution(self, grid64, rng):
        f = random_analytic_polynomial(rng, 6)
        g = substitute_fm(f, 1)
        assert np.max(np.abs(g.coeffs - f.coeffs)) == 0.0

    def test_first_harmonic(self, grid64):
        c = np.zeros(3, dtype=complex)
        c[2] = 1.0  # e^{i theta}
        g = substitute_fm(FourierCoeffs(1, c), 3)
        assert g.degree == 3
        assert g.coeff(3) == 1.0
        assert all(g.coeff(k) == 0.0 for k in range(3))

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_matches_coefficient_loop(self, rng, m):
        f = random_analytic_polynomial(rng, 7)
        g = substitute_fm(f, m)
        expected = np.zeros(2 * m * 7 + 1, dtype=complex)
        for k in range(8):
            expected[m * 7 + m * k] = f.coeff(k)
        assert g.degree == m * 7
        assert np.array_equal(g.coeffs, expected)

    def test_nyquist_validation(self, grid64):
        f = random_analytic_polynomial(np.random.default_rng(0), 10)
        with pytest.raises(DegreeExceedsGridError):
            substitute_fm(f, 4, grid64)

    def test_requires_analytic(self, rng):
        f = random_trig_polynomial(rng, 4)
        with pytest.raises(ValueError):
            substitute_fm(f, 2)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("m", [2, 3])
    def test_hp_norm_invariance(self, grid1024, rng, p, m):
        for _ in range(5):
            f = random_analytic_polynomial(rng, 10, grid1024, decay=0.5,
                                           min_modulus_ratio=0.1)
            fm = substitute_fm(f, m, grid1024)
            a = hp_norm(f, p, grid1024)
            b = hp_norm(fm, p, grid1024)
            assert abs(a - b) < 1e-8 * a


class TestConvolutionNormLaw:
    @pytest.mark.parametrize("spec", [KernelSpec.fejer(2), KernelSpec.poisson(0.4)])
    def test_contraction_on_every_vector(self, grid256, rng, spec):
        op = convolution_operator(spec, grid256)
        l1 = kernel_l1_norm(spec, grid256)
        for p in (1.0, 2.0, 3.0):
            for _ in range(5):
                f = synthesize(random_trig_polynomial(rng, 20), grid256)
                lhs = lp_norm(SampledFunction(grid256, op.apply(f.values)), p)
                assert lhs <= l1 * lp_norm(f, p) * (1 + 1e-10)

    def test_constant_witness_attains_l1_norm(self, grid256):
        # K >= 0 convolution preserves constants, so ||C_K|| = ||K||_1
        for spec in (KernelSpec.fejer(3), KernelSpec.poisson(0.7)):
            op = convolution_operator(spec, grid256)
            ones = np.ones(256, dtype=complex)
            ratio = lp_norm(SampledFunction(grid256, op.apply(ones)), 2.0)
            assert abs(ratio - kernel_l1_norm(spec, grid256)) < 1e-6

    def test_no_negative_frequencies_introduced(self, grid256, rng):
        op = convolution_operator(KernelSpec.fejer(4), grid256)
        f = random_analytic_polynomial(rng, 16)
        image = op.apply(synthesize(f, grid256).values)
        coeffs = analyze(SampledFunction(grid256, image), grid256.max_degree)
        neg = np.abs(coeffs.coeffs[: grid256.max_degree])
        assert np.max(neg) < 1e-12 * max(np.max(np.abs(image)), 1.0)


class TestSynthesisMatrix:
    def test_columns_are_exponentials(self, grid64):
        e = synthesis_matrix(grid64, 3)
        assert np.allclose(e[:, 2], np.exp(2j * grid64.theta))

    def test_weighted_isometry_for_l2(self, grid64, rng):
        e = synthesis_matrix(grid64, 10)
        c = rng.standard_normal(11) + 1j * rng.standard_normal(11)
        samples = e @ c
        assert abs(lp_norm(SampledFunction(grid64, samples), 2.0) - np.linalg.norm(c)) < 1e-12
