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

from .grid import CircleGrid
from .kernels import KernelSpec
from .operators import (
    OperatorRep,
    analytic_restriction,
    backward_shift,
    convolution_operator,
    identity_minus,
)
from .opnorm import (
    DEFAULT_SEED,
    NormEstimate,
    _ascend,
    _in_range,
    certified_ratio,
    operator_norm,
    power_method_pnorm,
    subspace_norm,
)


def fejer_difference_operator(n: int, grid: CircleGrid) -> OperatorRep:
    """The grid operator I - C_{K_n}."""
    return identity_minus(convolution_operator(KernelSpec.fejer(n), grid))


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
    handed to `_transfer`.
    """
    op_n = fejer_difference_operator(n, grid)
    direct = operator_norm(op_n, p, starts=starts, seed=seed)
    if n == 0 or not direct.is_certified_lower_bound:  # an exact value needs no transfer
        return direct
    base = power_method_pnorm(fejer_difference_operator(0, grid), p, starts=starts, seed=seed)
    idx = ((n + 1) * np.arange(grid.n_points)) % grid.n_points
    return _transfer(op_n, p, direct, base, base.witness[idx], seed)


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

    For n >= 1 the order-0 problem is solved at base degree floor(d/(n+1))
    and its witness is pushed through f -> f(z^{n+1}) into the degree-d
    space and handed to `_transfer`.
    """
    op_n = analytic_restriction(fejer_difference_operator(n, grid), degree)
    direct = operator_norm(op_n, p, starts=starts, seed=seed)
    m = n + 1
    base_degree = degree // m
    if n == 0 or not direct.is_certified_lower_bound or base_degree < 1:  # exact at p = 2
        return direct
    op_0 = analytic_restriction(fejer_difference_operator(0, grid), base_degree)
    base = subspace_norm(op_0, p, starts=starts, seed=seed)
    transferred = np.zeros(degree + 1, dtype=complex)
    transferred[: m * base_degree + 1 : m] = base.witness  # f -> f(z^m)
    return _transfer(op_n, p, direct, base, transferred, seed)


def _transfer(op, p, direct, base, witness, seed) -> NormEstimate:
    """The better of the direct search `direct` and the order-0 solve `base`
    carried to the order-n operator `op` as `witness`, on either basis.

    The witness may sit on a lacunary saddle, so it is perturbed by 4
    random bumps of 1e-3 relative size and re-ascended.  If the best
    certified ratio among it and the ascended bumps beats `direct`, it is
    returned with the starts and iterations of both solves and of the 4
    bumps' ascent; else `direct`.
    """
    best_val, best_w = certified_ratio(op, witness, p), witness
    scale = np.linalg.norm(witness)
    bumps = []
    for t in range(4):
        rng = np.random.default_rng([seed, 7, t])
        bump = rng.standard_normal(witness.size) + 1j * rng.standard_normal(witness.size)
        bumps.append(witness + 1e-3 * scale / np.linalg.norm(bump) * bump)
    _, cands, iters, ok = _ascend(_in_range(op, p), bumps, p, 1e-12, 5000)
    for cand in cands:
        if np.any(cand != 0):
            val = certified_ratio(op, cand, p)
            if val > best_val:
                best_val, best_w = val, cand
    if best_val <= direct.value:
        return direct
    return NormEstimate(
        value=best_val,
        witness=best_w,
        method="power",
        n_starts=direct.n_starts + base.n_starts + len(bumps),
        n_iters=direct.n_iters + base.n_iters + int(iters.sum()),
        converged=direct.converged and base.converged and bool(ok.all()),
    )


def backward_shift_estimate(
    degree: int,
    p: float,
    grid: CircleGrid,
    starts: int = 8,
    seed: int = DEFAULT_SEED,
) -> NormEstimate:
    """Certified estimate of the backward-shift norm on the degree-`degree`
    analytic subspace with the induced L^p norm."""
    return operator_norm(backward_shift(degree, grid), p, starts=starts, seed=seed)
