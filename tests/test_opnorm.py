import tracemalloc
import warnings
from itertools import product

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
    holder_conjugate,
    identity_minus,
    identity_operator,
    lower_bound_certificate,
    make_grid,
    operator_norm,
    power_method_pnorm,
    subspace_norm,
)
from hardybench.errors import (
    DegreeExceedsGridError,
    OracleTooLargeError,
    UnsupportedExactError,
)
from hardybench import operators, opnorm
from hardybench.operators import (
    OperatorRep,
    analytic_analysis,
    analytic_synthesis,
    synthesis_matrix,
)
from hardybench.opnorm import (
    DEFAULT_SEED,
    _ascend,
    _SampleMap,
    _coeff_starts,
    _column_scores,
    _dual_ascent,
    _dual_map,
    _grid_starts,
    _in_range,
    _oracle_scan,
    _oracle_seeds,
    _row_lp,
    _streamed_top,
    _subspace_exchange_ascent,
    certified_ratio,
)
from hardybench.problems import (
    backward_shift_estimate,
    fejer_difference_operator,
    fejer_hp_estimate,
    fejer_lp_estimate,
)


def small_op(matrix):
    matrix = np.asarray(matrix, dtype=complex)
    return OperatorRep(matrix=matrix, basis="grid", grid=make_grid(matrix.shape[0]))


def far_scaled_matrix():
    """A 3 x 3 standard complex normal matrix, whose products with 2^700 or
    2^-700 have sums of |.|^p that overflow or underflow."""
    rng = np.random.default_rng(3)
    return rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))


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
            values.append(exact_norm_endpoint(fejer_difference_operator(1, g), 1.0).value)
        assert values[0] < values[1] < values[2] < 2.0
        assert values[2] > 2.0 - 6.0 / 8192

    def test_closed_form_matches_dense(self, grid256):
        for spec in (KernelSpec.fejer(3), KernelSpec.poisson(0.5)):
            op = identity_minus(convolution_operator(spec, grid256))
            dense = OperatorRep(matrix=op.matrix, basis="grid", grid=grid256)
            for p in (1.0, INF):
                fast = exact_norm_endpoint(op, p).value
                assert abs(fast - exact_norm_endpoint(dense, p).value) < 1e-12

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

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("n_pts", [512, 2048])
    def test_fejer_difference_certifies_exactly_one(self, n_pts, n):
        # exact multipliers: no roundoff lifts the certificate above the true norm 1
        g = make_grid(n_pts)
        est = exact_norm_p2(fejer_difference_operator(n, g))
        assert est.value == 1.0
        assert np.array_equal(est.witness, np.exp(2j * np.pi * (n + 1) * np.arange(n_pts) / n_pts))

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

    @pytest.mark.parametrize("scale", [2.0**700, 2.0**-700], ids=["2**700", "2**-700"])
    def test_far_scaled_value_is_finite(self, scale):
        # the value within the Riesz-Thorin bracket; the next test pins it
        m = far_scaled_matrix()
        a = np.abs(m)
        riesz_thorin = a.sum(axis=0).max() ** (1.0 / 3.0) * a.sum(axis=1).max() ** (2.0 / 3.0)
        with np.errstate(over="ignore", invalid="ignore"):
            value = power_method_pnorm(small_op(scale * m), 3.0).value
        assert 0.0 < value <= scale * riesz_thorin and np.isfinite(value)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_far_scaled_matches_unscaled(self, p):
        # the ascent runs on the operator divided by a power of two
        m = far_scaled_matrix()
        a = m / 2.0 ** np.frexp(np.max(np.abs(m)))[1]  # largest entry in [1/2, 1)
        base = power_method_pnorm(small_op(a), p).value
        for scale in (2.0**700, 2.0**-700):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                value = power_method_pnorm(small_op(scale * a), p).value
            assert abs(value - scale * base) <= 1e-12 * scale * base


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMatrixFreeCirculants:
    # a dense 8192 x 8192 complex matrix takes 1 GiB

    @pytest.mark.parametrize("p", [1.0, 2.0, INF])
    def test_fejer_lp_estimate_forms_no_dense_matrix(self, p):
        peak = _traced_peak(lambda: fejer_lp_estimate(1, p, make_grid(8192)))
        assert peak < 16 * 2**20

    def test_analytic_restriction_forms_no_dense_matrix(self):
        peak = _traced_peak(
            lambda: analytic_restriction(fejer_difference_operator(1, make_grid(8192)), 32)
        )
        assert peak < 16 * 2**20


def _dense_scores(op):
    a = np.abs(op.matrix)
    return a.sum(axis=0), (a**2).sum(axis=0)


def _random_circulant(n, rng):
    col = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / n
    return OperatorRep(basis="grid", grid=make_grid(n), column=col, multipliers=np.fft.fft(col))


class TestColumnScores:
    # a circulant's column sums tie in exact arithmetic, so the spike starts
    # follow their roundoff: the matrix-free sums must be the dense ones

    @pytest.mark.parametrize("n_pts", [64, 256, 512, 2048])
    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_fejer_matches_dense_bit_for_bit(self, n, n_pts):
        op = fejer_difference_operator(n, make_grid(n_pts))
        scores = _column_scores(op)
        for got, ref in zip(scores, _dense_scores(op)):
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))
            assert np.argmax(got) == np.argmax(ref)

    @pytest.mark.parametrize(
        "make_op",
        [
            lambda rng: _random_circulant(256, rng),
            lambda rng: small_op(rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))),
        ],
        ids=["random-circulant", "dense"],
    )
    def test_other_operators_match_dense_bit_for_bit(self, rng, make_op):
        op = make_op(rng)
        for got, ref in zip(_column_scores(op), _dense_scores(op)):
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))
            assert np.argmax(got) == np.argmax(ref)


class TestMatrixFreePowerMethod:
    @pytest.fixture()
    def no_dense_circulant(self, monkeypatch):
        def refuse(col):
            raise AssertionError("a dense circulant matrix was built")

        monkeypatch.setattr(operators, "_circulant_from_first_column", refuse)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_power_method_builds_no_matrix(self, no_dense_circulant, weighted):
        g = make_grid(512)
        domain = None
        if weighted:
            domain = WeightedLp(1.5, SampledFunction(g, np.exp(np.cos(g.theta)).astype(complex)))
        op = identity_minus(convolution_operator(KernelSpec.fejer(1), g, domain=domain))
        est = power_method_pnorm(op, 1.5, starts=2)
        assert abs(certified_ratio(op, est.witness, 1.5) - est.value) <= 1e-12 * est.value

    def test_fejer_lp_estimate_builds_no_matrix(self, no_dense_circulant):
        est = fejer_lp_estimate(1, 1.5, make_grid(512), starts=2)
        assert 1.0 < est.value <= 2.0 ** (1.0 / 3.0) + 1e-12

    @pytest.mark.parametrize("bad", ["nan-column", "overflowing-multipliers"])
    def test_nonfinite_circulant_rejected_before_iterating(
        self, no_dense_circulant, monkeypatch, grid64, bad
    ):
        col = np.zeros(64, dtype=complex)
        if bad == "nan-column":
            col[3] = np.nan
        else:  # a finite column whose DFT overflows
            col[:] = 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            op = OperatorRep(basis="grid", grid=grid64, column=col, multipliers=np.fft.fft(col))

        def no_iteration(*args, **kwargs):
            raise AssertionError("the power iteration ran")

        monkeypatch.setattr("hardybench.opnorm._dual_ascent", no_iteration)
        with pytest.raises(ValueError, match="non-finite"):
            power_method_pnorm(op, 1.5)


_DISPATCH = [
    ("grid", 1.0, "exact_p1", lambda op: exact_norm_endpoint(op, 1.0)),
    ("grid", 1.5, "power", lambda op: power_method_pnorm(op, 1.5, starts=2, seed=3)),
    ("grid", 2.0, "exact_p2", lambda op: exact_norm_p2(op, seed=3)),
    ("grid", INF, "exact_pinf", lambda op: exact_norm_endpoint(op, INF)),
    ("analytic", 1.0, "power", lambda op: subspace_norm(op, 1.0, starts=2, seed=3)),
    ("analytic", 1.5, "power", lambda op: subspace_norm(op, 1.5, starts=2, seed=3)),
    ("analytic", 2.0, "exact_p2", lambda op: exact_norm_p2(op, seed=3)),
    ("analytic", INF, "power", lambda op: subspace_norm(op, INF, starts=2, seed=3)),
]


class TestOperatorNorm:
    @pytest.mark.parametrize("basis,p,method,solver", _DISPATCH)
    def test_chooses_the_solver(self, grid64, basis, p, method, solver):
        op = fejer_difference_operator(1, grid64)
        if basis == "analytic":
            op = analytic_restriction(op, 8)
        est = operator_norm(op, p, starts=2, seed=3)
        direct = solver(op)
        assert est.method == method
        assert est.value == direct.value
        assert np.array_equal(est.witness, direct.witness)


def _power_starts(n, grid):
    op = fejer_difference_operator(n, grid)
    return (op.apply, op.apply_adjoint), np.array(_grid_starts(op, 4, DEFAULT_SEED))


def _weighted_circulant(grid, rng, p):
    w = SampledFunction(grid, (0.5 + rng.random(grid.n_points)).astype(complex))
    op = identity_minus(convolution_operator(KernelSpec.fejer(2), grid, domain=WeightedLp(p, w)))
    d = w.values.real
    return op, d, (op.matrix * d[:, None]) / d[None, :]


class TestBatchedPowerAscent:
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_batch_matches_single_rows(self, grid64, p):
        (fwd, adj), starts = _power_starts(1, grid64)
        vals, xs, iters, ok = _dual_ascent(fwd, adj, starts, p, 1e-10, 10_000)
        for i, x0 in enumerate(starts):
            v1, x1, it1, ok1 = _dual_ascent(fwd, adj, x0[None, :], p, 1e-10, 10_000)
            assert abs(v1[0] - vals[i]) <= 1e-12 * vals[i]
            assert np.max(np.abs(x1[0] - xs[i])) <= 1e-12 * np.max(np.abs(xs[i]))
            assert (it1[0], ok1[0]) == (iters[i], ok[i])

    def test_zero_start_keeps_other_rows(self, grid64):
        (fwd, adj), starts = _power_starts(0, grid64)
        ref_vals, ref_xs, ref_iters, _ = _dual_ascent(fwd, adj, starts, 3.0, 1e-10, 10_000)
        batch = np.insert(starts, 2, 0.0, axis=0)
        vals, xs, iters, ok = _dual_ascent(fwd, adj, batch, 3.0, 1e-10, 10_000)
        assert vals[2] == 0.0 and iters[2] == 0 and ok[2]
        assert not np.any(xs[2])
        others = np.arange(batch.shape[0]) != 2
        assert np.allclose(vals[others], ref_vals, rtol=1e-12, atol=0.0)
        assert np.array_equal(iters[others], ref_iters)
        assert np.max(np.abs(xs[others] - ref_xs)) <= 1e-12 * np.max(np.abs(ref_xs))

    def test_capped_row_reports_unconverged(self, grid64):
        (fwd, adj), starts = _power_starts(1, grid64)
        _, _, iters, ok = _dual_ascent(fwd, adj, starts, 1.5, 1e-10, 10_000)
        assert ok.all()
        cap = int(iters.max()) - 1
        assert np.sum(iters <= cap) >= 2  # some rows finish under the cap
        _, _, capped_iters, capped_ok = _dual_ascent(fwd, adj, starts, 1.5, 1e-10, cap)
        assert np.array_equal(capped_ok, iters <= cap)
        assert np.array_equal(capped_iters, np.minimum(iters, cap))

    @pytest.mark.parametrize("p", [1.02, 1.5, 3.0])
    def test_tiny_and_huge_starts_are_scaled(self, grid64, p):
        # the l^p norm of these spikes underflows, is subnormal or overflows
        (fwd, adj), starts = _power_starts(1, grid64)
        spike = starts[1][None, :]
        ref = _dual_ascent(fwd, adj, spike, p, 1e-10, 10_000)[0][0]
        for scale in (1e-310, 1e-200, 1e200):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                vals, xs, _, ok = _dual_ascent(fwd, adj, scale * spike, p, 1e-10, 10_000)
            assert abs(vals[0] - ref) <= 1e-12 * ref and ok[0]
            assert np.all(np.isfinite(xs))

    def test_weighted_fft_matches_dense_similarity(self, grid64, rng):
        op, d, sim = _weighted_circulant(grid64, rng, 1.5)
        x = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
        vals, xs, iters, ok = _ascend(op, x, 1.5, 1e-10, 10_000)
        ref_vals, ref_xs, ref_iters, ref_ok = _dual_ascent(
            lambda v: v @ sim.T, lambda v: v @ sim.conj(), x, 1.5, 1e-10, 10_000
        )
        assert np.allclose(vals, ref_vals, rtol=1e-12, atol=0.0)
        ref_w = ref_xs / d
        assert np.max(np.abs(xs - ref_w)) <= 1e-12 * np.max(np.abs(ref_w))
        assert np.array_equal(iters, ref_iters) and np.array_equal(ok, ref_ok)

    def test_weighted_circulant_matches_dense_similarity(self, grid64, rng):
        op, _, sim = _weighted_circulant(grid64, rng, 3.0)
        est = power_method_pnorm(op, 3.0, starts=8)
        plain = power_method_pnorm(small_op(sim), 3.0, starts=8)
        assert abs(est.value - plain.value) < 5e-6 * plain.value
        assert abs(certified_ratio(op, est.witness, 3.0) - est.value) <= 1e-12 * est.value

    def test_weighted_circulant_exact_p2(self, grid64, rng):
        op, _, sim = _weighted_circulant(grid64, rng, 2.0)
        est = exact_norm_p2(op)
        assert abs(est.value - np.linalg.svd(sim, compute_uv=False)[0]) < 1e-10

    def test_weighted_clustered_top_spectrum_falls_back_to_svd(self, grid64):
        # a nearly flat weight keeps the clustered top of 1 - P_r, which
        # stalls the power iteration; the dense similarity is then formed
        w = SampledFunction(grid64, (1.0 + 0.01 * np.cos(grid64.theta)).astype(complex))
        op = identity_minus(
            convolution_operator(KernelSpec.poisson(0.5), grid64, domain=WeightedLp(2.0, w))
        )
        d = w.values.real
        top = np.linalg.svd((op.matrix * d[:, None]) / d[None, :], compute_uv=False)[0]
        assert abs(exact_norm_p2(op).value - top) < 1e-12


def _reference_dual_ascent(apply_rows, adjoint_rows, x0, p, tol, max_iter, project=None):
    """The dual-vector iteration with separate norms, two dualizations and a
    division per step: the arithmetic that the fused duality map replaced."""
    pprime = holder_conjugate(p)
    x0 = np.asarray(x0, dtype=complex)
    best_val = np.full(x0.shape[0], -1.0)
    best_x = x0.copy()
    iters = np.zeros(x0.shape[0], dtype=int)
    converged = np.ones(x0.shape[0], dtype=bool)
    nx = _row_lp(x0, p)
    best_val[nx == 0.0] = 0.0
    rows = np.flatnonzero(nx != 0.0)
    x = x0[rows] / nx[rows, None]
    prev = np.full(rows.size, -1.0)
    for it in range(max_iter):
        if rows.size == 0:
            break
        y = apply_rows(x)
        val = _row_lp(y, p)
        up = val > best_val[rows]
        best_val[rows[up]] = val[up]
        best_x[rows[up]] = x[up]
        stop = (val == 0.0) | ((prev >= 0.0) & (val - prev <= tol * val))
        if stop.any():
            iters[rows[stop]] = it + 1
            rows, y, val = rows[~stop], y[~stop], val[~stop]
        prev = val
        xn = _dual_map(adjoint_rows(_dual_map(y, p)[0]), pprime)[0]
        if project is not None:
            xn = project(xn)
        nn = _row_lp(xn, p)
        if np.any(nn == 0.0):
            iters[rows[nn == 0.0]] = it + 1
            keep = nn != 0.0
            rows, prev, xn, nn = rows[keep], prev[keep], xn[keep], nn[keep]
        x = xn / nn[:, None]
    iters[rows] = max_iter
    converged[rows] = False
    return best_val, best_x, iters, converged


def _fused_case(grid, basis, p):
    """(apply, adjoint, starts, synthesis) on grid64 Fejer n = 1, or on its
    degree-8 analytic restriction as `_ascend` runs it: on coefficients,
    with synthesis = (S, S+).  A zero row and a row with subnormal entries
    ride along."""
    op = fejer_difference_operator(1, grid)
    if basis == "grid":
        fwd, adj, synthesis = op.apply, op.apply_adjoint, None
        starts = np.array(_grid_starts(op, 4, DEFAULT_SEED))
    else:
        res = analytic_restriction(op, 8)
        t = _SampleMap(res, p)
        fwd = lambda c: t(res.apply(c))
        adj = lambda y: t.inverse_adjoint(res.apply_adjoint(t.adjoint(y)))
        synthesis = (t.synthesise, t.inverse)
        starts = np.array(_coeff_starts(res, 4, DEFAULT_SEED))
    tiny = starts[-1].copy()
    tiny[0::4], tiny[1::4], tiny[2::4] = 4e-320 + 3e-320j, -3e-310j, -2e-308
    return fwd, adj, np.vstack([starts, np.zeros(starts.shape[1]), tiny]), synthesis


def _sample_space_reference(fwd, adj, batch, p, synthesis):
    """`_reference_dual_ascent` in sample space: the iterate is S c, each
    dual update is projected by S S+, and the witnesses are mapped back to
    coefficients by S+."""
    if synthesis is None:
        return _reference_dual_ascent(fwd, adj, batch, p, 1e-10, 10_000)
    s, s_inv = synthesis
    vals, ys, iters, ok = _reference_dual_ascent(
        lambda y: fwd(s_inv(y)), adj, s(batch), p, 1e-10, 10_000, lambda y: s(s_inv(y))
    )
    return vals, s_inv(ys), iters, ok


def _assert_rows_follow(vals, xs, ref):
    """Every row matches the reference `ref` within 1e-12 on value and 1e-10
    on witness."""
    ref_vals, ref_xs = ref[:2]
    assert np.all(np.abs(vals - ref_vals) <= 1e-12 * ref_vals)
    scale = np.maximum(np.max(np.abs(ref_xs), axis=1), np.finfo(float).tiny)
    assert np.all(np.max(np.abs(xs - ref_xs), axis=1) <= 1e-10 * scale)


class TestFusedDualAscent:
    # the fused duality map against the iteration with separate norms, two
    # dualizations and a division per step; on an analytic basis also the
    # coefficient iterate against the projected samples

    @pytest.mark.parametrize("basis", ["grid", "analytic"])
    @pytest.mark.parametrize("p", [1.02, 1.5, 3.0, 4.0, 64.0])
    def test_matches_reference_arithmetic(self, grid64, basis, p):
        fwd, adj, batch, synthesis = _fused_case(grid64, basis, p)
        vals, xs, _, ok = _dual_ascent(fwd, adj, batch, p, 1e-10, 10_000, synthesis)
        ref = _sample_space_reference(fwd, adj, batch, p, synthesis)
        ref_vals, ref_xs = ref[:2]
        assert np.all(np.isfinite(vals)) and np.all(np.isfinite(xs))
        assert vals[-2] == 0.0 and not np.any(xs[-2])
        assert np.array_equal(ok, ref[3])
        win = int(np.argmax(ref_vals))
        assert int(np.argmax(vals)) == win
        assert abs(vals[win] - ref_vals[win]) <= 1e-12 * ref_vals[win]
        scale = np.maximum(np.max(np.abs(ref_xs), axis=1), np.finfo(float).tiny)
        wit_err = np.max(np.abs(xs - ref_xs), axis=1) / scale
        if basis == "analytic":  # every row follows the reference
            _assert_rows_follow(vals, xs, ref)
            return
        # On the grid some starts sit near a saddle or a plateau, where
        # roundoff decides the path: a one-ulp change of the reference's own
        # starts moves the half-circle arc's witness by 5e-2 at p = 3, and at
        # p = 64 the row with subnormal entries stops on a plateau after 4
        # steps in one arithmetic and climbs for 37 in the other.  The
        # winning row still agrees; at p = 64 its maximum is so flat that the
        # same one-ulp change moves the reference's own witness by 1e-8.
        if p < 64.0:
            assert wit_err[win] <= 1e-10


class TestCoefficientStateAscent:
    # `_ascend` keeps an analytic iterate as its coefficients: every row
    # follows the sample-space iteration that projects each dual update

    @pytest.mark.parametrize("p", [1.02, 1.5, 3.0, 4.0, 64.0])
    def test_ascend_matches_sample_space_reference(self, grid64, p):
        res = analytic_restriction(fejer_difference_operator(1, grid64), 8)
        fwd, adj, batch, synthesis = _fused_case(grid64, "analytic", p)
        vals, cs, _, ok = _ascend(res, batch, p, 1e-10, 10_000)
        ref = _sample_space_reference(fwd, adj, batch, p, synthesis)
        assert vals[-2] == 0.0 and not np.any(cs[-2])
        assert np.array_equal(ok, ref[3])
        _assert_rows_follow(vals, cs, ref)


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

    @pytest.mark.parametrize("p", [1.0, 1.5, 4.0, INF])
    def test_far_scaled_matches_unscaled(self, grid256, p):
        r = analytic_restriction(fejer_difference_operator(1, grid256), 12)
        a = 0.75 * r.matrix  # largest entry in [1/2, 1)
        base = subspace_norm(OperatorRep(matrix=a, basis="analytic", grid=grid256, degree=12), p)
        for scale in (2.0**700, 2.0**-700):
            op = OperatorRep(matrix=scale * a, basis="analytic", grid=grid256, degree=12)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                value = subspace_norm(op, p).value
            assert abs(value - scale * base.value) <= 1e-12 * scale * base.value

    def test_large_shift_endpoint(self, grid256):
        # 1e10 times the shift read 1.0e10 when the companion ascent at
        # q = 1.02 overflowed.  It now runs on 1e10 / 2^34 times the shift,
        # which differs from the shift by roundoff; the q = 1.02 ascent's
        # stopped value moves by 5e-7 relative under that change
        op = backward_shift(16, grid256)
        value = subspace_norm(op, 1.0).value
        assert abs(value - 1.0629133) <= 5e-8
        big = OperatorRep(matrix=1e10 * op.matrix, basis="analytic", grid=grid256, degree=16)
        assert abs(subspace_norm(big, 1.0).value - 1e10 * value) <= 1e-6 * 1e10 * value

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
        vals, cs, iters, ok = _ascend(op, starts, p, 1e-10, 10_000)
        for i, c0 in enumerate(starts):
            v1, c1, it1, ok1 = _ascend(op, c0[None, :], p, 1e-10, 10_000)
            assert abs(v1[0] - vals[i]) <= 1e-12 * vals[i]
            assert np.max(np.abs(c1[0] - cs[i])) <= 1e-12 * np.max(np.abs(cs[i]))
            assert (it1[0], ok1[0]) == (iters[i], ok[i])

    def test_zero_start_keeps_other_rows(self, grid256):
        op, starts = _restricted_starts(0, 10, grid256)
        ref_vals, ref_cs, ref_iters, _ = _ascend(op, starts, 3.0, 1e-10, 10_000)
        batch = np.insert(starts, 2, 0.0, axis=0)
        vals, cs, iters, ok = _ascend(op, batch, 3.0, 1e-10, 10_000)
        assert vals[2] == 0.0 and iters[2] == 0 and ok[2]
        assert not np.any(cs[2])
        others = np.arange(batch.shape[0]) != 2
        assert np.allclose(vals[others], ref_vals, rtol=1e-12, atol=0.0)
        assert np.array_equal(iters[others], ref_iters)
        assert np.max(np.abs(cs[others] - ref_cs)) <= 1e-12 * np.max(np.abs(ref_cs))

    def test_capped_row_reports_unconverged(self, grid256):
        op, starts = _restricted_starts(0, 12, grid256)
        _, _, iters, ok = _ascend(op, starts, 1.5, 1e-10, 10_000)
        assert ok.all()
        cap = int(iters.max()) - 1
        assert np.sum(iters <= cap) >= 2  # some rows finish under the cap
        _, _, capped_iters, capped_ok = _ascend(op, starts, 1.5, 1e-10, cap)
        assert np.array_equal(capped_ok, iters <= cap)
        assert np.array_equal(capped_iters, np.minimum(iters, cap))

    @pytest.mark.parametrize("p", [1.0, INF])
    def test_endpoint_rows_are_certified_companion_rows(self, grid256, p):
        op, starts = _restricted_starts(1, 12, grid256)
        batch = np.insert(starts, 2, 0.0, axis=0)
        vals, cs, iters, ok = _ascend(op, batch, p, 1e-10, 10_000)
        q = 64.0 if p == INF else 1.02
        _, smooth, smooth_iters, smooth_ok = _ascend(op, batch, q, 1e-10, 10_000)
        assert np.array_equal(iters, smooth_iters) and np.array_equal(ok, smooth_ok)
        assert vals[2] == 0.0 and not np.any(cs[2])
        smooth_vals = np.array([certified_ratio(op, c, p) if np.any(c) else 0.0 for c in smooth])
        win = int(np.argmax(smooth_vals))
        others = np.arange(batch.shape[0]) != win
        assert np.array_equal(vals[others], smooth_vals[others])
        assert np.array_equal(cs[others], smooth[others])
        # only the p = inf winner may be replaced, by a polish that
        # certifies strictly higher
        assert vals[win] == certified_ratio(op, cs[win], p)
        if p == 1.0 or vals[win] == smooth_vals[win]:
            assert vals[win] == smooth_vals[win] and np.array_equal(cs[win], smooth[win])
        else:
            assert vals[win] > smooth_vals[win]

    def test_zero_starts_at_infinity(self, grid256):
        op = backward_shift(8, grid256)
        vals, cs, _, ok = _ascend(op, np.zeros((2, 9), dtype=complex), INF, 1e-10, 10_000)
        assert not np.any(vals) and not np.any(cs) and ok.all()

    def test_p1_builds_no_synthesis_matrix(self, grid256, monkeypatch):
        def no_matrix(*args, **kwargs):
            raise AssertionError("synthesis_matrix was called")

        monkeypatch.setattr("hardybench.opnorm.synthesis_matrix", no_matrix)
        for n in (0, 1):
            est = fejer_hp_estimate(n, 1.0, 8, grid256, starts=2)
            op = analytic_restriction(fejer_difference_operator(n, grid256), 8)
            assert est.value == certified_ratio(op, est.witness, 1.0)

    @pytest.mark.parametrize("operator", ["shift", "fejer0", "fejer1"])
    def test_pinf_estimate_dominates_per_start_exchange(self, grid256, operator):
        if operator == "shift":
            op = backward_shift(8, grid256)
        else:
            op = analytic_restriction(fejer_difference_operator(int(operator[-1]), grid256), 8)
        est = subspace_norm(op, INF, starts=4)
        e_mat = synthesis_matrix(grid256, op.degree)
        exchange = max(
            certified_ratio(op, _subspace_exchange_ascent(op, e_mat, c0), INF)
            for c0 in _coeff_starts(op, 4, DEFAULT_SEED)
        )
        assert est.value >= exchange * (1.0 - 1e-15)

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


class TestWeightedAnalytic:
    @staticmethod
    def _restricted(grid, p):
        w = SampledFunction(grid, np.exp(np.cos(grid.theta)).astype(complex))
        op = convolution_operator(KernelSpec.fejer(1), grid, domain=WeightedLp(p, w))
        return analytic_restriction(identity_minus(op), 12), w.values.real

    @pytest.mark.parametrize("p", [1.5, 2.0, INF])
    def test_norm_is_rejected(self, grid256, p):
        # the unweighted ascent returned 1.0000000074 as exact_p2 at p = 2;
        # the weighted norm is 1.1928902
        op, _ = self._restricted(grid256, p)
        calls = [lambda: operator_norm(op, p), lambda: subspace_norm(op, p)]
        if p == 2.0:
            calls.append(lambda: exact_norm_p2(op))
        for call in calls:
            with pytest.raises(ValueError, match="weighted analytic"):
                call()

    @pytest.mark.parametrize("p", [1.5, 2.0, INF])
    def test_certificate_keeps_the_weight(self, grid256, rng, p):
        op, w = self._restricted(grid256, p)
        c = rng.standard_normal(13) + 1j * rng.standard_normal(13)
        num = analytic_synthesis(op.matrix @ c, 256) * w
        den = analytic_synthesis(c, 256) * w
        if p == INF:
            ref = np.max(np.abs(num)) / np.max(np.abs(den))
        else:
            ref = (np.sum(np.abs(num) ** p) / np.sum(np.abs(den) ** p)) ** (1.0 / p)
        assert abs(lower_bound_certificate(op, c, p).value - ref) <= 1e-13 * ref


class TestSampleMap:
    @pytest.mark.parametrize("basis", ["grid", "analytic"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_certified_ratio_matches_weighted_lp_norm_of_samples(
        self, grid256, rng, basis, weighted
    ):
        # the reference synthesises by the dense matrix, weights the samples
        # and takes their power means itself
        w, domain = np.ones(256), None
        if weighted:
            w = np.exp(np.cos(grid256.theta))
            domain = WeightedLp(1.5, SampledFunction(grid256, w.astype(complex)))
        op = identity_minus(convolution_operator(KernelSpec.fejer(2), grid256, domain=domain))
        if basis == "analytic":
            op = analytic_restriction(op, 12)
        e = synthesis_matrix(grid256, 12) if basis == "analytic" else np.eye(256)
        c = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
        num, den = np.abs(w * (e @ (op.matrix @ c))), np.abs(w * (e @ c))
        for p in (1.0, 1.5, 2.0, 4.0, INF):
            if p == INF:
                ref = np.max(num) / np.max(den)
            else:
                ref = (np.mean(num**p) / np.mean(den**p)) ** (1.0 / p)
            assert abs(certified_ratio(op, c, p) - ref) <= 1e-12 * ref
        t = _SampleMap(op)
        assert np.max(np.abs(t.inverse(t(c)) - c)) <= 1e-13 * np.max(np.abs(c))
        if basis == "analytic":  # T T+ is a projection onto the range of T
            y = rng.standard_normal(256) + 1j * rng.standard_normal(256)
            proj = t(t.inverse(y))
            assert np.max(np.abs(t(t.inverse(proj)) - proj)) <= 1e-13 * np.max(np.abs(proj))


class TestDualize:
    @pytest.mark.parametrize("p", [1.02, 1.5, 2.0, 4.0])
    def test_subnormal_entries_are_finite(self, p):
        # complex division by a subnormal modulus overflows to nan
        y = np.array([4e-320 + 3e-320j, 1.5 - 2.0j, 0.0, -3e-310j, -2e-308, 1e-300 + 1e-300j])
        out = _dual_map(y, p)[0]
        assert np.all(np.isfinite(out))
        a = np.abs(y)
        normal = a >= np.finfo(float).tiny
        ref = y[normal] / a[normal]
        ref *= a[normal] ** (p - 1.0)
        assert np.array_equal(out[normal], ref)  # other entries bit-identical
        assert out[2] == 0.0
        sub = np.flatnonzero((a > 0.0) & ~normal)
        target = a[sub] ** (p - 1.0)
        assert np.all(np.abs(np.abs(out[sub]) - target) <= 1e-12 * target + 2e-323)
        resolved = target >= np.finfo(float).tiny
        phase_err = np.abs(np.angle(np.exp(1j * (np.angle(out[sub]) - np.angle(y[sub])))))
        assert np.all(phase_err[resolved] <= 1e-15)
        assert np.all(phase_err[~resolved & (target > 1e-321)] <= 1e-3)


class TestExchangeAscent:
    def test_p1_raises_no_warning(self, grid64):
        op = analytic_restriction(fejer_difference_operator(1, grid64), 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = subspace_norm(op, 1.0, starts=2, seed=3)
        assert abs(certified_ratio(op, est.witness, 1.0) - est.value) <= 1e-12 * est.value


class TestBruteForceOracle:
    @pytest.mark.parametrize("p", [1.0, 1.7, 2.0, INF])
    def test_identity(self, p):
        assert abs(brute_force_oracle(np.eye(2, dtype=complex), p) - 1.0) < 2e-3

    def test_diagonal(self):
        assert abs(brute_force_oracle(np.diag([2.0, 1.0]), 2.0) - 2.0) < 2e-3

    def test_matches_exact_p2(self, rng):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        for m in [m] + criterion_9_matrices():
            s = np.linalg.svd(m, compute_uv=False)[0]
            assert abs(brute_force_oracle(m, 2.0) - s) <= 1e-9 * s

    def test_endpoints_match_column_and_row_sums(self):
        for m in criterion_9_matrices():
            for p, axis in ((1.0, 0), (INF, 1)):
                exact = np.abs(m).sum(axis=axis).max()
                assert abs(brute_force_oracle(m, p) - exact) <= 1e-12 * exact

    def test_not_below_certified_values(self):
        # the oracle checks the power method, so it must not read below it;
        # and the two agree from both sides, well inside criterion 9's 5e-3
        for m in criterion_9_matrices():
            op = small_op(m)
            for p in (1.3, 2.0, 2.5, 4.0):
                est = exact_norm_p2(op) if p == 2.0 else power_method_pnorm(op, p, starts=8)
                oracle = brute_force_oracle(m, p)
                assert oracle >= est.value * (1.0 - 1e-9)
                assert abs(oracle - est.value) <= 1e-8 * est.value

    def test_maximiser_with_a_tiny_coordinate(self):
        # the maximiser's smaller coordinate has about 5e-4 of the p-mass,
        # below the coarse grid step; dual ascent and Nelder-Mead both reach
        # this value
        rng = np.random.default_rng(5)
        for _ in range(3):
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert abs(brute_force_oracle(m, 1.3) - 1.767166557568) <= 1e-11

    def test_dimension_limit(self):
        with pytest.raises(OracleTooLargeError):
            brute_force_oracle(np.eye(4), 2.0)

    def test_dim_one(self):
        assert brute_force_oracle(np.array([[3.0 + 4.0j]]), 1.3) == 5.0

    # (matrix, values at p = 1, 1.05, 1.3, 2, 4, inf) at the default resolution.
    # Entries are re-pinned only when the oracle rises.  Four rose when the
    # scan moved to the faces of the l^inf sphere: dim2a, dim2b and dim3 at
    # p = 1.05 (by 2.1e-7, 4.2e-7 and 3.1e-12) and dim3 at p = inf (from
    # 2.321399226184193 to the exact max row sum)
    PINNED = [
        (
            [[1.0 + 0.5j, -0.3 + 0.2j], [0.7 - 1.1j, 0.4 + 0.9j]],
            [2.421874469790424, 2.343586129177096, 2.1035298015313155,
             1.9871011293075953, 2.0162216165091107, 2.2887262612200843],
        ),
        (
            [[2.0, 1.0 - 1.0j], [0.5j, -1.5 + 0.25j]],
            [2.934904194947651, 2.839709235100877, 2.5698154918395004,
             2.5974667297574383, 2.896316564374877, 3.4142135623730083],
        ),
        (
            [[0.9 + 0.1j, -0.4 + 0.6j, 0.3 - 0.2j],
             [0.2 - 0.7j, 1.1, -0.5 + 0.3j],
             [-0.6 + 0.4j, 0.1 + 0.8j, 0.7 - 0.5j]],
            [2.627336029922654, 2.495506687752493, 2.0832124266055763,
             1.9255779833753024, 1.988595215600069, 2.4111061784125827],
        ),
    ]

    @pytest.mark.parametrize("matrix, expected", PINNED, ids=["dim2a", "dim2b", "dim3"])
    def test_pinned_values(self, matrix, expected):
        for p, value in zip((1.0, 1.05, 1.3, 2.0, 4.0, INF), expected):
            assert abs(brute_force_oracle(np.array(matrix), p) - value) <= 1e-12 * value

    def test_scaled_far_from_one(self, rng):
        # |Ax|^p overflows or underflows unless A is scaled first
        for m, p, scale in ((np.eye(2), 4.0, 1e80), (np.eye(2), 4.0, 1e-300), (np.eye(2), 64.0, 1e5)):
            expected = brute_force_oracle(m, p) * scale
            assert abs(brute_force_oracle(m * scale, p) - expected) <= 1e-12 * expected
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = np.ldexp(m.view(float), -np.frexp(np.abs(m).max())[1]).view(complex)  # max in [1/2, 1)
        for p in (1.3, 4.0):
            base = brute_force_oracle(m, p)
            for scale in (2.0**900, 2.0**-900):
                expected = base * scale
                assert abs(brute_force_oracle(m * scale, p) - expected) <= 1e-12 * expected
        # a power-of-two scale changes only the roundoff of |Ax|^p; near
        # p = 1 it must not pick another basin
        for matrix, _ in self.PINNED:
            m = np.array(matrix)
            expected = brute_force_oracle(m, 1.05) / 4.0
            assert abs(brute_force_oracle(m / 4.0, 1.05) - expected) <= 1e-12 * expected

    def test_dim3_memory(self):
        # the scan streams into a top-k, so memory is O(chunk + k)
        m = np.array(self.PINNED[2][0])
        assert _traced_peak(lambda: brute_force_oracle(m, 1.3)) < 8 * 2**20

    def test_dim3_memory_does_not_grow_with_resolution(self):
        m = np.array(self.PINNED[2][0])
        assert _traced_peak(lambda: brute_force_oracle(m, 1.3, 4_000_000)) < 8 * 2**20

    @pytest.mark.parametrize("p", [np.nan, 0.5, -1.0])
    def test_exponent_outside_one_to_inf_rejected(self, p):
        with pytest.raises(ValueError):
            brute_force_oracle(np.eye(2), p)

    def test_nonfinite_entry_rejected(self):
        m = np.eye(3, dtype=complex)
        m[1, 2] = np.nan
        with pytest.raises(ValueError):
            brute_force_oracle(m, 2.0)

    @pytest.mark.parametrize("resolution", [-5, 0, 2.5, True])
    def test_resolution_must_be_positive_integer(self, resolution):
        with pytest.raises(ValueError):
            brute_force_oracle(np.eye(2), 2.0, resolution)


def criterion_9_matrices():
    """The 50 random complex 2x2 and 3x3 matrices of acceptance criterion 9."""
    rng = np.random.default_rng([DEFAULT_SEED, 9])
    return [
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for dim in (2 + i % 2 for i in range(50))
    ]


def oracle_disc(k):
    """The points u + iv of the closed unit disc on a k-point grid of [-1, 1]
    per axis, v varying fastest."""
    u = np.linspace(-1.0, 1.0, k)
    z = np.array([x + 1j * y for x in u for y in u])
    return z[np.abs(z) <= 1.0]


def materialised_scan(a, disc, p):
    """The scan with every point's row built: on face k of the l^inf sphere,
    x = (..., 1, z, ...) with 1 at index k and the free coordinates z running
    over every tuple of disc points, the last varying fastest."""
    dim = a.shape[0]
    x = np.array([
        np.insert(np.array(z), k, 1.0)
        for k in range(dim)
        for z in product(disc, repeat=dim - 1)
    ])

    def row_norms(v):
        v = np.abs(v)
        if p == INF:
            return v.max(axis=1)
        return (v**p).sum(axis=1) ** (1.0 / p)

    return row_norms(x @ a.T) / row_norms(x)


def reference_seeds(vals, points, n_seeds, min_sep):
    """The greedy walk down the full stable ranking, one candidate at a time."""
    seeds, taken = [], []
    for idx in np.argsort(-vals, kind="stable"):
        if len(seeds) >= n_seeds:
            break
        prm = points(np.array([idx]))[0]
        if all(np.max(np.abs(prm - q)) >= min_sep for q in taken):
            seeds.append(int(idx))
            taken.append(prm)
    return seeds


def oracle_chunks(vals, n_chunks=7):
    """A scan for `_oracle_seeds`: yields `vals` afresh in uneven chunks."""
    return lambda: iter(np.array_split(vals, n_chunks))


class TestOracleScanAndSeeds:
    @pytest.mark.parametrize("p", [1.0, 1.3, 4.0, INF])
    @pytest.mark.parametrize("dim, k", [(2, 60), (3, 14)])
    def test_scan_matches_materialised_rows(self, rng, monkeypatch, dim, k, p):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        disc = oracle_disc(k)
        assert disc.size % 7 != 0
        # chunks of 7 points of the first free coordinate, the last one partial
        monkeypatch.setattr(opnorm, "_ORACLE_CHUNK_ROWS", 7 * disc.size ** (dim - 2))
        chunks = list(_oracle_scan(a, disc, p))
        per_face = [7] * (disc.size // 7) + [disc.size % 7]
        assert [c.size for c in chunks] == [r * disc.size ** (dim - 2) for r in per_face] * dim
        vals = np.concatenate(chunks)
        ref = materialised_scan(a, disc, p)
        assert vals.shape == ref.shape
        assert np.all(np.abs(vals - ref) <= 1e-13 * ref)

    @staticmethod
    def tied_arrays():
        rng = np.random.default_rng(5)
        yield rng.integers(0, 4, 3000).astype(float)
        yield np.repeat(rng.standard_normal(40), 75)
        yield np.zeros(500)
        for a in (np.eye(3), np.diag([2.0, 1.0, 1.0])):
            for p in (1.3, 4.0):
                yield np.concatenate(list(_oracle_scan(a.astype(complex), oracle_disc(14), p)))

    def test_ranking_is_the_stable_sort(self):
        for vals in self.tied_arrays():
            order = np.argsort(-vals, kind="stable")
            for k in (1, 16, 4096, vals.size):
                for n_chunks in (1, 7, 64):
                    top, top_vals, size = _streamed_top(np.array_split(vals, n_chunks), k)
                    assert size == vals.size
                    assert top.size >= min(k, vals.size)
                    np.testing.assert_array_equal(top, order[: top.size])
                    np.testing.assert_array_equal(top_vals, vals[top])
                    # every value tied with the last one kept is kept too
                    assert top.size == np.count_nonzero(vals >= vals[top[-1]])

    @pytest.mark.parametrize("dim, p", [(2, 1.3), (3, 1.3), (3, 4.0), (3, INF)])
    def test_streamed_scan_ranks_as_the_materialised_scan(self, monkeypatch, dim, p):
        # identity-like matrices tie most of the scan; small chunks split
        # every tied run across many chunk boundaries
        disc = oracle_disc(14)
        a = np.diag([2.0] + [1.0] * (dim - 1)).astype(complex)
        whole = np.concatenate(list(_oracle_scan(a, disc, p)))
        chunk = 5 * disc.size ** (dim - 2)
        monkeypatch.setattr(opnorm, "_ORACLE_CHUNK_ROWS", chunk)
        # the values keep their bits whatever the chunking
        np.testing.assert_array_equal(np.concatenate(list(_oracle_scan(a, disc, p))), whole)
        order = np.argsort(-whole, kind="stable")
        for k in (1, 16, 4096):
            k = min(k, whole.size - 1)
            top, top_vals, size = _streamed_top(_oracle_scan(a, disc, p), k)
            assert size == whole.size
            np.testing.assert_array_equal(top, order[: top.size])
            np.testing.assert_array_equal(top_vals, whole[top])
            assert top.size == np.count_nonzero(whole >= whole[top[-1]])
            # the values tied with the k-th run across chunk boundaries
            tied = np.flatnonzero(whole == whole[top[-1]])
            assert np.unique(tied // chunk).size > 1

    def test_seeds_match_the_greedy_walk(self):
        for vals in self.tied_arrays():
            pts = np.linspace(0.0, 1.0, vals.size)[np.random.default_rng(6).permutation(vals.size)]

            def points(idx):
                return pts[idx][:, None]

            for n_seeds, min_sep in ((6, 0.05), (16, 0.01)):
                seeds, seed_vals = _oracle_seeds(oracle_chunks(vals), points, n_seeds, min_sep)
                assert list(seeds) == reference_seeds(vals, points, n_seeds, min_sep)
                np.testing.assert_array_equal(seed_vals, vals[seeds])

    def test_seeds_widen_past_a_clustered_top(self):
        # the 5000 largest values share one basin, so the top 4096 give one
        # seed; each widening runs the scan again
        vals = -np.arange(20_000.0)

        def points(idx):
            return (idx // 5000).astype(float)[:, None]

        for n_seeds, scans in ((4, 2), (6, 3)):
            runs = []

            def scan():
                runs.append(1)
                return oracle_chunks(vals)()

            seeds, _ = _oracle_seeds(scan, points, n_seeds, 1.0)
            assert list(seeds) == [0, 5000, 10_000, 15_000]
            assert len(runs) == scans


class TestTiedStarts:
    @pytest.mark.parametrize("degree", [8, 16, 32])
    def test_backward_shift_witness_does_not_follow_the_seed(self, degree):
        # every nonzero singular value is 1, so all five p = 2 starts tie
        g = make_grid(256)
        ests = [backward_shift_estimate(degree, 2.0, g, seed=s) for s in (1, 2, 7)]
        for est in ests[1:]:
            np.testing.assert_array_equal(est.witness, ests[0].witness)
            assert est.value == ests[0].value


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

    @pytest.mark.parametrize("p", [1.3, 2.0, 3.0])
    def test_replay_is_scale_invariant(self, p):
        m = far_scaled_matrix()
        witness = np.array([1.0, -0.5 + 0.25j, 0.3j])
        base = certified_ratio(small_op(m), witness, p)
        for scale in (2.0**700, 2.0**-700):
            value = certified_ratio(small_op(scale * m), witness, p)
            assert abs(value - scale * base) <= 1e-13 * scale * base

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


@pytest.fixture(scope="module")
def grid_transfer():
    """fejer_lp_estimate at N = 512, memoised by (n, p)."""
    g, cache = make_grid(512), {}

    def estimate(n, p):
        if (n, p) not in cache:
            cache[n, p] = fejer_lp_estimate(n, p, g)
        return cache[n, p]

    return estimate


class TestGridWitnessTransfer:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_dual_exponents_agree(self, grid_transfer, n):
        # I - K_n is self-adjoint, so its l^p and l^p' norms are equal
        a, b = grid_transfer(n, 1.5).value, grid_transfer(n, 3.0).value
        assert abs(a - b) <= 1e-9 * max(a, b)

    def test_returned_witness_is_stationary(self, grid_transfer):
        # the transferred witness x((n+1) theta) is re-ascended, so one more
        # ascent from the returned witness gains nothing
        est = grid_transfer(1, 1.5)
        op = fejer_difference_operator(1, make_grid(512))
        _, xs, _, _ = _ascend(_in_range(op, 1.5), [est.witness], 1.5, 1e-12, 5000)
        assert certified_ratio(op, xs[0], 1.5) - est.value < 1e-10 * est.value

    def test_grid_win_reports_the_bump_ascent(self, grid_transfer):
        # a transfer win counts the direct solve, the order-0 base solve and
        # the 4 re-ascended bumps
        g = make_grid(512)
        est = grid_transfer(1, 1.5)
        direct = operator_norm(fejer_difference_operator(1, g), 1.5)
        base = power_method_pnorm(fejer_difference_operator(0, g), 1.5)
        assert est.value > direct.value  # the transfer wins
        assert est.n_starts == direct.n_starts + base.n_starts + 4
        assert est.n_iters > direct.n_iters + base.n_iters

    def test_subspace_win_reports_the_bump_ascent(self):
        g = make_grid(1024)
        est = fejer_hp_estimate(1, 1.5, 32, g)
        direct = operator_norm(analytic_restriction(fejer_difference_operator(1, g), 32), 1.5)
        base = subspace_norm(analytic_restriction(fejer_difference_operator(0, g), 16), 1.5)
        assert est.value > direct.value  # the transfer wins
        assert est.n_starts == direct.n_starts + base.n_starts + 4
        assert est.n_iters > direct.n_iters + base.n_iters


class TestShiftIsFejerZero:
    @pytest.mark.parametrize("n_points, degree", [(64, 8), (1024, 32)])
    @pytest.mark.parametrize("p", [1.0, 1.5, 4.0, INF])
    def test_certified_ratios_agree(self, rng, n_points, degree, p):
        # for N > d, |S B c| = |(I - E_N) S c| pointwise: the backward shift
        # and I - K_0 restricted to the degree-d section replay alike
        g = make_grid(n_points)
        shift = backward_shift(degree, g)
        fejer0 = analytic_restriction(fejer_difference_operator(0, g), degree)
        for _ in range(5):
            c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
            a, b = certified_ratio(shift, c, p), certified_ratio(fejer0, c, p)
            assert abs(a - b) <= 1e-14 * a
