"""Closed-form and variationally defined approximation constants.

All one-dimensional optimizations follow the same recipe: a dense grid
scan establishes the bracket (unimodality is checked numerically, never
assumed), then golden-section search refines it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spaces import INF, _golden_max, _golden_min, holder_conjugate


@dataclass
class ConstantReport:
    name: str
    value: float
    params: tuple
    maximizer_or_root: float
    tolerance: float
    near_maximizers: np.ndarray | None = field(default=None, repr=False)
    details: dict = field(default_factory=dict)


def franchetti_cp(p: float) -> ConstantReport:
    """Norm of "subtract the mean" on L^p:

        C_p = max_{0<=a<=1} (a^{p-1} + (1-a)^{p-1})^{1/p}
                          * (a^{1/(p-1)} + (1-a)^{1/(p-1)})^{1-1/p},

    with C_1 = 2 exactly.  The objective is symmetric about a = 1/2 and in
    general has two symmetric maximizers; the canonical one (<= 1/2) is
    reported, all near-maximizers found by the 100 001-point scan are
    attached.
    """
    if p < 1.0:
        raise ValueError(f"p must lie in [1, inf), got {p}")
    if p == 1.0:
        return ConstantReport(
            name="franchetti_cp", value=2.0, params=(p,), maximizer_or_root=0.5,
            tolerance=0.0,
        )

    s = 1.0 / (p - 1.0)

    def objective(alpha):
        alpha = np.asarray(alpha, dtype=float)
        first = (alpha ** (p - 1.0) + (1.0 - alpha) ** (p - 1.0)) ** (1.0 / p)
        second = (alpha**s + (1.0 - alpha) ** s) ** (1.0 - 1.0 / p)
        return first * second

    alphas = np.linspace(0.0, 1.0, 100_001)
    values = objective(alphas)
    top = float(np.max(values))
    near = alphas[values >= top - 1e-9]
    idx = int(np.argmax(values))
    h = alphas[1] - alphas[0]
    lo = max(0.0, alphas[idx] - 2 * h)
    hi = min(1.0, alphas[idx] + 2 * h)
    alpha_star, value = _golden_max(lambda a: float(objective(a)), lo, hi, 1e-12)
    if value < top:  # grid saw something at least as good (flat objective)
        alpha_star, value = alphas[idx], top
    if alpha_star > 0.5:
        alpha_star = 1.0 - alpha_star  # canonical representative
    return ConstantReport(
        name="franchetti_cp", value=float(value), params=(p,),
        maximizer_or_root=float(alpha_star), tolerance=1e-12,
        near_maximizers=near,
    )


def interpolation_upper(p: float) -> float:
    """Riesz-Thorin upper bound 2^{|1-2/p|}; equals 2 at both endpoints."""
    if p != INF and p < 1.0:
        raise ValueError(f"p must lie in [1, inf], got {p}")
    expo = 1.0 if p == INF else abs(1.0 - 2.0 / p)
    return 2.0**expo


def gamma_pq(p: float, q: float) -> ConstantReport:
    """gamma_{p,q} = inf{ gamma > 0 : min_{x+y=gamma, x,y>=0} (x^p + y^q) = 1 }.

    The inner minimum g(gamma) is strictly convex in x (golden section);
    g is continuous and increasing in gamma, so the outer equation
    g(gamma) = 1 is solved by bisection on [1, 2].  That bracket holds for
    all 1 < p, q: g(1) < 1, since x^p + (1-x)^q < x + (1-x) inside (0, 1),
    and g(2) >= 1, since one of x and 2 - x is at least 1.
    """
    if not (1.0 < p < INF and 1.0 < q < INF):
        raise ValueError(f"gamma_pq needs 1 < p, q < inf, got p={p}, q={q}")

    def inner_min(gamma):
        fn = lambda x: x**p + (gamma - x) ** q  # noqa: E731
        _, val = _golden_min(fn, 0.0, gamma, 1e-12 * max(1.0, gamma))
        return val

    lo, hi = 1.0, 2.0
    while hi - lo > 1e-11:
        mid = 0.5 * (lo + hi)
        if inner_min(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    gamma = 0.5 * (lo + hi)
    residual = abs(inner_min(gamma) - 1.0)
    return ConstantReport(
        name="gamma_pq", value=float(gamma), params=(p, q),
        maximizer_or_root=float(gamma), tolerance=1e-11,
        details={"residual": residual},
    )


def cpq(p: float, q: float) -> ConstantReport:
    """Orlicz interpolation constant

        C_{p,q} = min{ (2 gamma_{p,q})^{1/p}, (2 gamma_{q',p'})^{1/q'} },

    for 1 < p < q < inf, with the proven bracket
    1 <= C_{p,q} <= 2^{1/(p q') + min{1/p, 1/q'}} checked on the result.
    """
    if not 1.0 < p < q < INF:
        raise ValueError(f"cpq needs 1 < p < q < inf, got p={p}, q={q}")
    pprime = holder_conjugate(p)
    qprime = holder_conjugate(q)
    branch_a = (2.0 * gamma_pq(p, q).value) ** (1.0 / p)
    branch_b = (2.0 * gamma_pq(qprime, pprime).value) ** (1.0 / qprime)
    value = min(branch_a, branch_b)
    upper = 2.0 ** (1.0 / (p * qprime) + min(1.0 / p, 1.0 / qprime))
    if not (1.0 - 1e-9 <= value <= upper + 1e-9):
        raise RuntimeError(
            f"C_{{p,q}} = {value} violates its proven bracket [1, {upper}]"
        )
    return ConstantReport(
        name="cpq", value=float(value), params=(p, q),
        maximizer_or_root=float(value), tolerance=1e-9,
        details={"branch_pq": branch_a, "branch_dual": branch_b, "upper": upper},
    )


def lambda_pq(p: float, q: float) -> ConstantReport:
    """Lambda_{p,q} = C_{p,q} * max{2^{|1-2/p|}, 2^{|1-2/q|}}.

    The effective bound for Hardy-Orlicz approximation constants is
    min{2, Lambda_{p,q}}, reported alongside.
    """
    if not 1.0 < p < q < INF:
        raise ValueError(f"lambda_pq needs 1 < p < q < inf, got p={p}, q={q}")
    c = cpq(p, q)
    factor = max(interpolation_upper(p), interpolation_upper(q))
    value = c.value * factor
    return ConstantReport(
        name="lambda_pq", value=float(value), params=(p, q),
        maximizer_or_root=float(value), tolerance=1e-9,
        details={"cpq": c.value, "factor": factor, "min_with_2": min(2.0, value)},
    )
