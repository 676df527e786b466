"""Problem-grade norm estimators for the Fejer difference operators and the
backward shift.

For order n >= 1 the good witnesses of I - C_{K_n} are m-fold substitutions
f(z^m), m > n, of witnesses of I - C_{K_0}: on such lacunary vectors K_n
acts exactly like K_0 (its multipliers vanish above order n).  Generic
multi-start ascent does not find these on its own, so the estimators here
combine direct search with explicit witness transfer from the order-0
problem, plus a perturb-and-polish step that escapes the lacunary saddle.
All values remain certified lower bounds (witness replay).
"""

from __future__ import annotations

import numpy as np

from .grid import CircleGrid, FourierCoeffs
from .kernels import KernelSpec
from .operators import (
    OperatorRep,
    analytic_restriction,
    backward_shift,
    convolution_operator,
    identity_minus,
    substitute_fm,
    synthesis_matrix,
)
from .opnorm import (
    DEFAULT_SEED,
    NormEstimate,
    _subspace_ascent,
    _subspace_exchange_ascent,
    certified_ratio,
    exact_norm_endpoint,
    exact_norm_p2,
    power_method_pnorm,
    subspace_norm,
)
from .spaces import INF


def fejer_difference_operator(n: int, grid: CircleGrid) -> OperatorRep:
    """The grid operator I - C_{K_n}."""
    return identity_minus(convolution_operator(KernelSpec.fejer(n), grid))


def endpoint_norm_identity_minus(kernel: KernelSpec, grid: CircleGrid) -> float:
    """Exact L^1 (= L^inf) norm of I - C_K from the kernel samples alone.

    The column sums of I - (1/N) K(theta_j - theta_l) are all equal to
    |1 - K(0)/N| + (1/N) sum_{j != 0} |K(theta_j)|, so no dense matrix is
    needed.  Agrees with exact_norm_endpoint on the dense representation.
    """
    k = kernel.sample(grid).values.real
    n_pts = grid.n_points
    return float(abs(1.0 - k[0] / n_pts) + np.sum(np.abs(k[1:])) / n_pts)


def fejer_lp_estimate(
    n: int,
    p: float,
    grid: CircleGrid,
    starts: int = 8,
    seed: int = DEFAULT_SEED,
) -> NormEstimate:
    """Certified estimate of ||I - C_{K_n}||_{L^p} with witness transfer.

    p in {1, 2, inf} use the exact formulas.  For other p and n >= 1, the
    best order-0 witness is resampled as x(theta) -> x((n+1) theta) and
    replayed on the order-n operator; the better of the direct search and
    the transferred certificate is returned.
    """
    op_n = fejer_difference_operator(n, grid)
    if p == 1.0 or p == INF:
        return exact_norm_endpoint(op_n, p)
    if p == 2.0:
        return exact_norm_p2(op_n, seed=seed)
    est = power_method_pnorm(op_n, p, starts=starts, seed=seed)
    if n >= 1:
        op_0 = fejer_difference_operator(0, grid)
        base = power_method_pnorm(op_0, p, starts=starts, seed=seed)
        m = n + 1
        idx = (m * np.arange(grid.n_points)) % grid.n_points
        transferred = base.witness[idx]
        value = certified_ratio(op_n, transferred, p)
        if value > est.value:
            est = NormEstimate(
                value=value,
                witness=transferred,
                method="power",
                n_starts=est.n_starts + base.n_starts,
                n_iters=est.n_iters + base.n_iters,
                converged=est.converged and base.converged,
            )
    return est


def _polish_subspace(op, witness, p, seed, trials=4, noise=1e-3):
    """Perturb a (possibly saddle-point) witness and re-ascend; returns the
    best certified ratio and witness."""
    best_val = certified_ratio(op, witness, p)
    best_w = witness
    scale = np.linalg.norm(witness)
    starts = []
    for t in range(trials):
        rng = np.random.default_rng([seed, 7, t])
        bump = rng.standard_normal(witness.size) + 1j * rng.standard_normal(witness.size)
        starts.append(witness + noise * scale / np.linalg.norm(bump) * bump)
    if p == 1.0 or p == INF:
        e_mat = synthesis_matrix(op.grid, op.degree)
        cands = [_subspace_exchange_ascent(op, e_mat, start, p)[1] for start in starts]
    else:
        _, cands, _, _ = _subspace_ascent(op, starts, p, 1e-12, 5000)
    for cand in cands:
        if np.any(cand != 0):
            val = certified_ratio(op, cand, p)
            if val > best_val:
                best_val, best_w = val, cand
    return best_val, best_w


def fejer_hp_estimate(
    n: int,
    p: float,
    degree: int,
    grid: CircleGrid,
    starts: int = 8,
    seed: int = DEFAULT_SEED,
) -> NormEstimate:
    """Certified estimate of ||I - C_{K_n}|| on the degree-`degree` analytic
    subspace with the induced L^p norm, including substitution transfer.

    For n >= 1 the order-0 problem is solved at base degree floor(d/(n+1)),
    its witness is pushed through f -> f(z^{n+1}) into the degree-d space,
    replayed on the order-n operator, and polished by perturbed re-ascent.
    """
    op_n = analytic_restriction(fejer_difference_operator(n, grid), degree)
    direct = (
        exact_norm_p2(op_n, seed=seed)
        if p == 2.0
        else subspace_norm(op_n, p, starts=starts, seed=seed)
    )
    if n == 0 or p == 2.0:
        return direct
    m = n + 1
    base_degree = degree // m
    if base_degree < 1:
        return direct
    op_0 = analytic_restriction(fejer_difference_operator(0, grid), base_degree)
    base = subspace_norm(op_0, p, starts=starts, seed=seed)
    full = np.zeros(2 * base_degree + 1, dtype=complex)
    full[base_degree:] = base.witness
    pushed = substitute_fm(FourierCoeffs(base_degree, full), m, grid)
    transferred = np.zeros(degree + 1, dtype=complex)
    transferred[: pushed.degree + 1] = pushed.coeffs[pushed.degree :]
    value, witness = _polish_subspace(op_n, transferred, p, seed)
    if value > direct.value:
        return NormEstimate(
            value=value,
            witness=witness,
            method="power",
            n_starts=direct.n_starts + base.n_starts,
            n_iters=direct.n_iters + base.n_iters,
            converged=direct.converged and base.converged,
        )
    return direct


def backward_shift_estimate(
    degree: int,
    p: float,
    grid: CircleGrid,
    starts: int = 8,
    seed: int = DEFAULT_SEED,
) -> NormEstimate:
    """Certified estimate of the backward-shift norm on the degree-`degree`
    analytic subspace with the induced L^p norm."""
    op = backward_shift(degree, grid)
    if p == 2.0:
        return exact_norm_p2(op, seed=seed)
    return subspace_norm(op, p, starts=starts, seed=seed)
