import numpy as np
import pytest

from hardybench import (
    INF,
    KernelSpec,
    SampledFunction,
    WeightedLp,
    analytic_restriction,
    backward_shift,
    brute_force_oracle,
    convolution_operator,
    exact_norm_endpoint,
    exact_norm_p2,
    franchetti_cp,
    identity_minus,
    identity_operator,
    lower_bound_certificate,
    make_grid,
    power_method_pnorm,
    subspace_norm,
)
from hardybench.errors import (
    DegreeExceedsGridError,
    OracleTooLargeError,
    UnsupportedExactError,
)
from hardybench.operators import (
    OperatorRep,
    analytic_analysis,
    analytic_synthesis,
    synthesis_matrix,
)
from hardybench.opnorm import DEFAULT_SEED, _coeff_starts, _subspace_ascent, certified_ratio
from hardybench.problems import (
    endpoint_norm_identity_minus,
    fejer_difference_operator,
    fejer_hp_estimate,
)


def small_op(matrix):
    matrix = np.asarray(matrix, dtype=complex)
    return OperatorRep(matrix=matrix, basis="grid", grid=make_grid(matrix.shape[0]))


class TestExactEndpoints:
    def test_identity(self, grid64):
        for p in (1.0, INF):
            est = exact_norm_endpoint(identity_operator(grid64), p)
            assert abs(est.value - 1.0) < 1e-14
            assert not est.is_certified_lower_bound

    @pytest.mark.parametrize("n_pts", [64, 512])
    def test_subtract_mean_column_sums(self, n_pts):
        # columns of I - (1/N) ones sum to (1 - 1/N) + (N-1)/N = 2 - 2/N
        g = make_grid(n_pts)
        op = fejer_difference_operator(0, g)
        for p in (1.0, INF):
            est = exact_norm_endpoint(op, p)
            assert abs(est.value - (2.0 - 2.0 / n_pts)) < 1e-12

    def test_witness_replays_value(self, grid256, rng):
        op = fejer_difference_operator(2, grid256)
        for p in (1.0, INF):
            est = exact_norm_endpoint(op, p)
            replay = lower_bound_certificate(op, est.witness, p)
            assert abs(replay.value - est.value) < 1e-10 * est.value

    def test_approach_to_two_over_n(self):
        # closed-form column sums approach 2 monotonically in N
        values = []
        for n_pts in (512, 2048, 8192):
            g = make_grid(n_pts)
            values.append(endpoint_norm_identity_minus(KernelSpec.fejer(1), g))
        assert values[0] < values[1] < values[2] < 2.0
        assert values[2] > 2.0 - 6.0 / 8192

    def test_closed_form_matches_dense(self, grid256):
        for spec in (KernelSpec.fejer(3), KernelSpec.poisson(0.5)):
            op = identity_minus(convolution_operator(spec, grid256))
            dense = exact_norm_endpoint(op, 1.0).value
            fast = endpoint_norm_identity_minus(spec, grid256)
            assert abs(dense - fast) < 1e-12

    def test_weighted_domain_unsupported(self, grid64):
        w = SampledFunction(grid64, np.full(64, 2.0, dtype=complex))
        op = OperatorRep(
            matrix=np.eye(64), basis="grid", grid=grid64, domain=WeightedLp(1.0, w)
        )
        with pytest.raises(UnsupportedExactError):
            exact_norm_endpoint(op, 1.0)

    def test_interior_p_rejected(self, grid64):
        with pytest.raises(UnsupportedExactError):
            exact_norm_endpoint(identity_operator(grid64), 1.5)


class TestExactP2:
    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_fejer_difference_is_one(self, n):
        g = make_grid(256)  # N > 2(n+1)
        est = exact_norm_p2(fejer_difference_operator(n, g))
        assert abs(est.value - 1.0) < 1e-10

    def test_poisson_diagonal_on_analytic_basis(self, grid256):
        r = analytic_restriction(convolution_operator(KernelSpec.poisson(0.7), grid256), 8)
        est = exact_norm_p2(r)
        assert abs(est.value - 1.0) < 1e-12  # k = 0 entry dominates

    def test_clustered_top_spectrum_is_still_exact(self, grid256):
        # eigenvalues 1 - r^k cluster just below 1; the increment test of
        # plain power iteration stalls here, so the exact path must not
        op = identity_minus(convolution_operator(KernelSpec.poisson(0.5), grid256))
        rst = analytic_restriction(op, 16)
        est = exact_norm_p2(rst)
        assert abs(est.value - (1.0 - 0.5**16)) < 1e-12
        grid_est = exact_norm_p2(op)
        assert abs(grid_est.value - 1.0) < 1e-12  # max over grid frequencies

    def test_zero_operator(self, grid64):
        op = OperatorRep(matrix=np.zeros((64, 64)), basis="grid", grid=grid64)
        assert exact_norm_p2(op).value == 0.0

    def test_matches_svd(self, rng):
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        est = exact_norm_p2(small_op(m))
        assert abs(est.value - np.linalg.svd(m, compute_uv=False)[0]) < 1e-10


class TestPowerMethod:
    @pytest.mark.parametrize("p", [1.3, 2.0, 4.0])
    def test_identity(self, grid64, p):
        est = power_method_pnorm(identity_operator(grid64), p, starts=2)
        assert abs(est.value - 1.0) < 1e-12

    def test_subtract_mean_bracket_p3(self):
        g = make_grid(512)
        est = power_method_pnorm(fejer_difference_operator(0, g), 3.0, starts=4)
        c3 = franchetti_cp(3.0).value
        assert c3 - 1e-3 <= est.value <= 2.0 ** (1.0 / 3.0) + 1e-3

    def test_diagonal_two_one(self):
        est = power_method_pnorm(small_op(np.diag([2.0, 1.0])), 2.5, starts=4)
        assert abs(est.value - 2.0) < 2e-3
        oracle = brute_force_oracle(np.diag([2.0, 1.0]), 2.5)
        assert abs(est.value - oracle) < 5e-3

    def test_weighted_domain(self, rng):
        # similarity transform: weighted norm equals plain norm of D A D^{-1}
        g = make_grid(8)
        w = SampledFunction(g, (0.5 + rng.random(8)).astype(complex))
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        op = OperatorRep(matrix=m, basis="grid", grid=g, domain=WeightedLp(3.0, w))
        est = power_method_pnorm(op, 3.0, starts=8)
        d = w.values.real
        plain = power_method_pnorm(small_op((m * d[:, None]) / d[None, :]), 3.0, starts=8)
        assert abs(est.value - plain.value) < 5e-6 * plain.value

    def test_endpoints_rejected(self, grid64):
        with pytest.raises(ValueError):
            power_method_pnorm(identity_operator(grid64), 1.0)
        with pytest.raises(ValueError):
            power_method_pnorm(identity_operator(grid64), INF)

    def test_nonfinite_rejected(self, grid64):
        bad = np.eye(64)
        bad[0, 0] = np.nan
        op = OperatorRep(matrix=bad, basis="grid", grid=grid64)
        with pytest.raises(ValueError):
            power_method_pnorm(op, 2.5)

    def test_scale_equivariance(self, rng):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        base = power_method_pnorm(small_op(m), 1.7, starts=4).value
        scaled = power_method_pnorm(small_op(3.5 * m), 1.7, starts=4).value
        assert abs(scaled - 3.5 * base) < 1e-9 * scaled


class TestSubspaceNorm:
    def test_backward_shift_h2(self, grid256):
        est = subspace_norm(backward_shift(12, grid256), 2.0)
        assert abs(est.value - 1.0) < 1e-10
        assert est.method == "exact_p2"

    @pytest.mark.parametrize("n", [1, 3])
    def test_fejer_difference_h2(self, grid256, n):
        r = analytic_restriction(fejer_difference_operator(n, grid256), 12)
        est = subspace_norm(r, 2.0)
        assert abs(est.value - 1.0) < 1e-8

    def test_monotone_in_degree(self, grid1024):
        op = fejer_difference_operator(0, grid1024)
        vals = []
        for d in (8, 16, 24):
            est = subspace_norm(analytic_restriction(op, d), 1.5, starts=4)
            vals.append(est.value)
        assert vals[1] >= vals[0] - 1e-8
        assert vals[2] >= vals[1] - 1e-8

    def test_small_p_stays_below_known_bound(self, grid1024):
        # the subtract-mean norm on the analytic subspace near p = 1 is < 1.7047
        est = fejer_hp_estimate(0, 1.01, 64, grid1024, starts=4)
        assert 1.0 - 1e-9 <= est.value <= 1.7047

    def test_witness_replays_value(self, grid256):
        r = analytic_restriction(fejer_difference_operator(1, grid256), 10)
        est = subspace_norm(r, 3.0, starts=4)
        replay = lower_bound_certificate(r, est.witness, 3.0)
        assert abs(replay.value - est.value) < 1e-10 * est.value


def _restricted_starts(n, degree, grid):
    op = analytic_restriction(fejer_difference_operator(n, grid), degree)
    return op, np.array(_coeff_starts(op, 4, DEFAULT_SEED))


class TestBatchedSubspaceAscent:
    @pytest.mark.parametrize("p", [1.5, 4.0])
    def test_batch_matches_single_rows(self, grid256, p):
        op, starts = _restricted_starts(1, 12, grid256)
        vals, cs, iters, ok = _subspace_ascent(op, starts, p, 1e-10, 10_000)
        for i, c0 in enumerate(starts):
            v1, c1, it1, ok1 = _subspace_ascent(op, c0[None, :], p, 1e-10, 10_000)
            assert abs(v1[0] - vals[i]) <= 1e-12 * vals[i]
            assert np.max(np.abs(c1[0] - cs[i])) <= 1e-12 * np.max(np.abs(cs[i]))
            assert (it1[0], ok1[0]) == (iters[i], ok[i])

    def test_zero_start_keeps_other_rows(self, grid256):
        op, starts = _restricted_starts(0, 10, grid256)
        ref_vals, ref_cs, ref_iters, _ = _subspace_ascent(op, starts, 3.0, 1e-10, 10_000)
        batch = np.insert(starts, 2, 0.0, axis=0)
        vals, cs, iters, ok = _subspace_ascent(op, batch, 3.0, 1e-10, 10_000)
        assert vals[2] == 0.0 and iters[2] == 0 and ok[2]
        assert not np.any(cs[2])
        others = np.arange(batch.shape[0]) != 2
        assert np.allclose(vals[others], ref_vals, rtol=1e-12, atol=0.0)
        assert np.array_equal(iters[others], ref_iters)
        assert np.max(np.abs(cs[others] - ref_cs)) <= 1e-12 * np.max(np.abs(ref_cs))

    def test_capped_row_reports_unconverged(self, grid256):
        op, starts = _restricted_starts(0, 12, grid256)
        _, _, iters, ok = _subspace_ascent(op, starts, 1.5, 1e-10, 10_000)
        assert ok.all()
        cap = int(iters.max()) - 1
        assert np.sum(iters <= cap) >= 2  # some rows finish under the cap
        _, _, capped_iters, capped_ok = _subspace_ascent(op, starts, 1.5, 1e-10, cap)
        assert np.array_equal(capped_ok, iters <= cap)
        assert np.array_equal(capped_iters, np.minimum(iters, cap))

    @pytest.mark.parametrize("n_pts", [64, 65])
    def test_fft_matches_synthesis_matrix(self, n_pts, rng):
        g = make_grid(n_pts)
        for d in (0, 1, 7, g.max_degree):
            e = synthesis_matrix(g, d)
            c = rng.standard_normal((3, d + 1)) + 1j * rng.standard_normal((3, d + 1))
            x = rng.standard_normal((3, n_pts)) + 1j * rng.standard_normal((3, n_pts))
            synth = analytic_synthesis(c, n_pts)
            assert np.max(np.abs(synth - c @ e.T)) <= 1e-12 * np.max(np.abs(synth))
            coeffs = analytic_analysis(x, d)
            ref = x @ e.conj() / n_pts
            assert np.max(np.abs(coeffs - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_fft_synthesis_rejects_degree_beyond_grid(self):
        with pytest.raises(DegreeExceedsGridError):
            analytic_synthesis(np.ones(65, dtype=complex), 64)

    @pytest.mark.parametrize("p", [1.0, 1.5, 4.0, INF])
    def test_certified_ratio_matches_synthesis_matrix(self, grid256, rng, p):
        for op in (
            backward_shift(20, grid256),
            analytic_restriction(fejer_difference_operator(2, grid256), 20),
        ):
            e = synthesis_matrix(grid256, op.degree)
            w = rng.standard_normal(21) + 1j * rng.standard_normal(21)
            num, den = e @ (op.matrix @ w), e @ w
            if p == INF:
                ref = np.max(np.abs(num)) / np.max(np.abs(den))
            else:
                ref = (np.sum(np.abs(num) ** p) / np.sum(np.abs(den) ** p)) ** (1.0 / p)
            assert abs(certified_ratio(op, w, p) - ref) <= 1e-13 * ref


class TestBruteForceOracle:
    @pytest.mark.parametrize("p", [1.0, 1.7, 2.0, INF])
    def test_identity(self, p):
        assert abs(brute_force_oracle(np.eye(2, dtype=complex), p) - 1.0) < 2e-3

    def test_diagonal(self):
        assert abs(brute_force_oracle(np.diag([2.0, 1.0]), 2.0) - 2.0) < 2e-3

    def test_matches_exact_p2(self, rng):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        o = brute_force_oracle(m, 2.0)
        assert abs(o - np.linalg.svd(m, compute_uv=False)[0]) < 5e-3

    def test_dimension_limit(self):
        with pytest.raises(OracleTooLargeError):
            brute_force_oracle(np.eye(4), 2.0)

    def test_dim_one(self):
        assert brute_force_oracle(np.array([[3.0 + 4.0j]]), 1.3) == 5.0


class TestCertificates:
    def test_convolution_constant_witness(self, grid256):
        op = convolution_operator(KernelSpec.fejer(2), grid256)
        est = lower_bound_certificate(op, np.ones(256, dtype=complex), 2.0)
        assert abs(est.value - 1.0) < 1e-12

    def test_subtract_mean_fixes_harmonic(self, grid256):
        op = fejer_difference_operator(0, grid256)
        est = lower_bound_certificate(op, np.exp(1j * grid256.theta), 1.5)
        assert abs(est.value - 1.0) < 1e-12

    def test_power_witness_replay(self, grid256):
        op = fejer_difference_operator(0, grid256)
        est = power_method_pnorm(op, 3.0, starts=4)
        replay = lower_bound_certificate(op, est.witness, 3.0)
        assert abs(replay.value - est.value) < 1e-10 * est.value

    def test_zero_witness_rejected(self, grid64):
        with pytest.raises(ValueError):
            lower_bound_certificate(identity_operator(grid64), np.zeros(64), 2.0)


class TestEstimatesRespectExactValues:
    @pytest.mark.parametrize("n", [0, 2])
    def test_power_below_interpolation_bound(self, n):
        g = make_grid(512)
        op = fejer_difference_operator(n, g)
        for p in (1.5, 3.0):
            est = power_method_pnorm(op, p, starts=4)
            assert est.value <= 2.0 ** abs(1.0 - 2.0 / p) + 1e-8

    def test_power_vs_oracle_sample(self, rng):
        for i in range(6):
            dim = 2 + (i % 2)
            m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            for p in (1.3, 2.5, 4.0):
                est = power_method_pnorm(small_op(m), p, starts=4)
                oracle = brute_force_oracle(m, p)
                assert abs(est.value - oracle) < 5e-3
