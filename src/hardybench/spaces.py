"""Norm evaluators: L^p, weighted L^p, Lorentz L^{p,q}, Orlicz L^phi.

All evaluators act on SampledFunction values with the normalized counting
measure (weight 1/N per grid point), so norms of constants equal their
modulus in every space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidGeneratorError, NoConvergenceError, RangeExceededError
from .grid import CircleGrid, FourierCoeffs, SampledFunction, synthesize

INF = math.inf

_PHI_TABLE_NODES = 4096  # 2^12 log-spaced nodes per table
_PHI_RANGE = (1e-12, 1e12)  # initial argument range of phi^{-1}

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_TINY = np.finfo(float).tiny  # the smallest normal double
_SUBNORMAL = np.finfo(float).smallest_subnormal


# ---------------------------------------------------------------------------
# L^p and weighted L^p
# ---------------------------------------------------------------------------


def _row_lp(v: np.ndarray, p: float) -> np.ndarray:
    """l^p norms along the last axis.  A row whose sum of |v|^p falls outside
    [smallest normal, inf) is summed again after division by its largest
    modulus, so a finite row reads 0 or inf only when its norm does."""
    a = np.abs(v).astype(float, copy=False)
    if p == INF:
        return np.max(a, axis=-1)
    with np.errstate(over="ignore"):
        a **= p
    s = np.sum(a, axis=-1)
    out = s ** (1.0 / p)
    odd = (s < _TINY) | (s == INF)
    if odd.any():
        a = np.abs(v)
        amax = np.max(a, axis=-1)
        odd &= (amax > 0.0) & (amax < INF)
        m = np.where(odd, amax, 1.0)
        out = np.where(odd, m * np.sum((a / m[..., None]) ** p, axis=-1) ** (1.0 / p), out)
    return out


def lp_norm(f: SampledFunction, p: float, weight: SampledFunction | None = None) -> float:
    """((1/N) sum |f_j w_j|^p)^{1/p}; max |f_j w_j| for p = inf.

    The weighted norm is, by definition, the unweighted norm of f*w.
    """
    if not (p == INF or p >= 1.0):  # NaN fails both tests
        raise ValueError(f"p must lie in [1, inf], got {p}")
    values = f.values
    if weight is not None:
        values = values * _weight_values(weight)
    norm = float(_row_lp(values, p))
    return norm if p == INF else norm * f.grid.quad_weight ** (1.0 / p)


def _weight_values(weight: SampledFunction) -> np.ndarray:
    """The samples of a weight as a real array; ValueError unless every
    sample is finite, real (imaginary part exactly 0) and strictly positive."""
    v = weight.values
    if not np.all(np.isfinite(v) & (v.imag == 0.0) & (v.real > 0.0)):
        raise ValueError("weight must be finite, real and strictly positive at every grid point")
    return v.real


def hp_norm(c: FourierCoeffs, p: float, grid: CircleGrid,
            weight: SampledFunction | None = None) -> float:
    """Induced norm of an analytic polynomial: synthesize, then take L^p."""
    return lp_norm(synthesize(c, grid), p, weight=weight)


def holder_conjugate(p: float) -> float:
    """p' with 1/p + 1/p' = 1 (shared helper, so the formula lives once)."""
    if p == 1.0:
        return INF
    if p == INF:
        return 1.0
    return p / (p - 1.0)


# ---------------------------------------------------------------------------
# Decreasing rearrangement and Lorentz norms
# ---------------------------------------------------------------------------


def decreasing_rearrangement(f: SampledFunction) -> np.ndarray:
    """|f| sorted descending: the step heights of f* on [(i-1)/N, i/N).

    Stable sort on |value| with ties broken by original index, so the
    rearrangement is deterministic.
    """
    a = np.abs(f.values)
    order = np.argsort(-a, kind="stable")
    return a[order]


def lorentz_norm(f: SampledFunction, p: float, q: float) -> float:
    """Lorentz norm ( int_0^1 [t^{1/p} f*(t)]^q dt/t )^{1/q}, 1 <= q <= p < inf.

    The integral is evaluated exactly on the step function f*:
        sum_i (p/q) * (t_i^{q/p} - t_{i-1}^{q/p}) * (f*_i)^q,  t_i = i/N.
    """
    if not (1.0 <= q <= p) or p == INF:
        raise ValueError(f"Lorentz parameters need 1 <= q <= p < inf, got p={p}, q={q}")
    star = decreasing_rearrangement(f)
    n = star.size
    t = np.arange(n + 1) / n
    pieces = (p / q) * np.diff(t ** (q / p))
    return float(_row_lp(star * pieces ** (1.0 / q), q))


# ---------------------------------------------------------------------------
# Orlicz functions phi built from a quasi-concave generator rho
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PhiSpec:
    """A convex Orlicz function phi, tabulated together with its inverse.

    phi^{-1}(x) = x^{1/p} * rho(x^{1/q - 1/p}) is tabulated at log-spaced
    arguments x; phi itself is the same monotone table read backwards.
    Interpolation is linear in log-log coordinates, which keeps the table
    monotone and is exact on the power family rho(t) = t^theta.

    Tables are immutable; `extended_to` returns a new PhiSpec on a wider
    range (possible only while the generator is attached).
    """

    p: float
    q: float
    x_table: np.ndarray = field(repr=False)  # arguments of phi^{-1}
    y_table: np.ndarray = field(repr=False)  # phi^{-1}(x); phi maps y -> x
    rho: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)
    theta: float | None = None

    def __post_init__(self):
        if not np.all(np.diff(self.y_table) > 0.0):
            raise InvalidGeneratorError("phi^{-1} table is not strictly increasing")
        _check_convexity(self.x_table, self.y_table)
        object.__setattr__(self, "_log_x", np.log(self.x_table))  # the tables' logs,
        object.__setattr__(self, "_log_y", np.log(self.y_table))  # taken once

    def phi(self, y: np.ndarray) -> np.ndarray:
        """phi(y) for y >= 0; exact zeros map to 0 (phi(0) = 0)."""
        return _loglog(y, self.y_table, self.x_table, self._log_y, self._log_x)

    def phi_inv(self, x: np.ndarray) -> np.ndarray:
        return _loglog(x, self.x_table, self.y_table, self._log_x, self._log_y)

    def extended_to(self, values: np.ndarray) -> "PhiSpec":
        """New PhiSpec whose phi-range covers all positive entries of `values`,
        down to where phi falls below the smallest normal double.  Only an
        end that falls short moves, with headroom so that repeated
        extensions are rare; a table that covers them is returned as is."""
        if self.rho is None:
            raise RangeExceededError("phi table has no generator attached; cannot auto-extend")
        pos = np.abs(values[np.abs(values) > 0.0])
        lo, hi = float(np.min(pos)), float(np.max(pos))
        # convert the needed phi-domain [lo, hi] to a phi^{-1}-domain bracket
        x_lo, x_hi = self.x_table[0], self.x_table[-1]
        if lo < self.y_table[0]:
            while x_lo > _TINY and _phi_inv_formula(x_lo, self.p, self.q, self.rho) > lo * 0.5:
                x_lo = max(x_lo * 1e-6, _TINY)
        if hi > self.y_table[-1]:
            for _ in range(40):
                if _phi_inv_formula(x_hi, self.p, self.q, self.rho) >= hi * 2.0:
                    break
                x_hi *= 1e6
            else:
                raise NoConvergenceError("phi table extension failed at the upper end")
        if x_lo == self.x_table[0] and x_hi == self.x_table[-1]:
            return self
        return _build_phi(self.p, self.q, self.rho, self.theta, x_lo, x_hi)


def _loglog(t, nodes, values, log_nodes, log_values) -> np.ndarray:
    """The increasing table nodes -> values, read at t >= 0 linearly in
    log-log coordinates.  0 maps to 0, and so does t below the first node
    when the first value is below 2^-1021; other t outside raise."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t >= nodes[0] if values[0] < 2.0 * _TINY else t > 0.0
    if np.any(pos):
        tp = t[pos]
        if np.min(tp) < nodes[0] or np.max(tp) > nodes[-1]:
            raise RangeExceededError("argument outside the tabulated range; extend the table")
        out[pos] = np.exp(np.interp(np.log(tp), log_nodes, log_values))
    return out


def _phi_inv_formula(x, p, q, rho):
    return x ** (1.0 / p) * rho(x ** (1.0 / q - 1.0 / p))


def _check_convexity(x_table: np.ndarray, y_table: np.ndarray) -> None:
    # chord slopes of phi (x as a function of y) must be nondecreasing;
    # tolerance is relative because slopes span many orders of magnitude
    slopes = np.diff(x_table) / np.diff(y_table)
    drop = np.diff(slopes)
    scale = np.maximum(slopes[:-1], slopes[1:])
    if np.any(drop < -1e-8 * np.maximum(scale, 1e-300)):
        raise InvalidGeneratorError(
            "tabulated phi is not convex; generator rho is not admissible"
        )


def _build_phi(p, q, rho, theta, x_lo, x_hi) -> PhiSpec:
    x = np.exp(np.linspace(math.log(x_lo), math.log(x_hi), _PHI_TABLE_NODES))
    y = _phi_inv_formula(x, p, q, rho)
    return PhiSpec(p=p, q=q, x_table=x, y_table=y, rho=rho, theta=theta)


def phi_from_rho(p: float, q: float, theta: float | None = 0.0,
                 rho: Callable[[np.ndarray], np.ndarray] | None = None) -> PhiSpec:
    """Build phi from phi^{-1}(x) = x^{1/p} rho(x^{1/q-1/p}), 1 < p < q < inf.

    The default generator family is rho(t) = t^theta with theta in [0, 1]
    (concave and quasi-concave); theta = 0 gives phi(x) = x^p unchanged,
    theta = 1 gives phi(x) = x^q.  A custom `rho` callable may be supplied
    instead; it must be increasing, which makes the log-log slope of phi at
    least p (the Amemiya norm's bracket rests on that).
    """
    if not 1.0 < p < q < INF:
        raise ValueError(f"need 1 < p < q < inf, got p={p}, q={q}")
    if rho is None:
        if theta is None or not 0.0 <= theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {theta}")
        expo = float(theta)
        rho = lambda t: np.asarray(t, dtype=float) ** expo  # noqa: E731
    else:
        theta = None
    return _build_phi(p, q, rho, theta, *_PHI_RANGE)


# ---------------------------------------------------------------------------
# Orlicz modular and the two equivalent norms
# ---------------------------------------------------------------------------


def orlicz_modular(f: SampledFunction, phi: PhiSpec) -> float:
    """I_phi(f) = (1/N) sum phi(|f_j|).

    Raises RangeExceededError when some |f_j| falls outside the tabulated
    range (extend the table, e.g. via phi.extended_to).
    """
    return _modular(np.abs(f.values), phi)


def _modular(y: np.ndarray, phi: PhiSpec) -> float:
    """The mean of phi(y), y >= 0."""
    return float(np.mean(phi.phi(y)))


def _normalised_modulus(f: SampledFunction) -> tuple[np.ndarray, int]:
    """|f| / 2^e and e, where 2^e brings max|f| into [1/2, 1): the Orlicz
    norms are homogeneous, the scaling is exact and no sum can overflow.
    ValueError unless every sample has a finite modulus."""
    a = np.abs(f.values)
    if not np.all(np.isfinite(a)):
        raise ValueError("Orlicz norms need samples of finite modulus")
    e = int(np.frexp(np.max(a))[1])
    return np.ldexp(a, -e), e


def _covering(phi: PhiSpec, a: np.ndarray, lo: float, hi: float) -> PhiSpec:
    """phi, extended once unless `_loglog` reads it at a * (1/s) for every s
    in the search bracket [lo, hi]: rounding is monotone, so the positive
    ones lie in [min(a > 0) * (1/hi) or the least subnormal, max(a) * (1/lo)]."""
    y = np.array([max(np.min(a[a > 0.0]) * (1.0 / hi), _SUBNORMAL), np.max(a) * (1.0 / lo)])
    if y[1] <= phi.y_table[-1] and (y[0] >= phi.y_table[0] or phi.x_table[0] < 2.0 * _TINY):
        return phi
    return phi.extended_to(y)


def luxemburg_norm(f: SampledFunction, phi: PhiSpec) -> float:
    """inf{ lambda > 0 : I_phi(f/lambda) <= 1 }, bisected to relative width
    1e-10 on a proven bracket; the feasible end `hi` is returned.

    With u = phi^{-1}(1) the norm lies in [mean|f| / u, max|f| / u].  phi is
    convex (`_check_convexity`), so by Jensen I_phi(f/lambda) >=
    phi(mean|f| / lambda) > phi(u) = 1 for lambda < mean|f| / u; phi is
    increasing, so at lambda = max|f| / u every phi(|f_j| / lambda) <= 1.
    """
    a, e = _normalised_modulus(f)
    if not np.any(a > 0.0):
        return 0.0
    u = float(phi.phi_inv(1.0))
    lo, hi = float(np.mean(a)) / u, float(np.max(a)) / u
    phi = _covering(phi, a, lo, hi)
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if _modular(a * (1.0 / mid), phi) <= 1.0:
            hi = mid
        else:
            lo = mid
    return math.ldexp(hi, e)


def orlicz_amemiya_norm(f: SampledFunction, phi: PhiSpec) -> float:
    """inf_{k>0} (1 + I_phi(k f))/k: golden-section search over s = 1/k on a
    proven bracket, to a width of 1e-9 times its top; the objective at the
    final midpoint is returned.

    g(s) = s (1 + I_phi(f/s)) is convex, a perspective of the convex
    modular.  Its minimiser s* lies in [mean|f| / phi^{-1}(1/(p-1)),
    2 max|f| / u], u = phi^{-1}(1).  Upper end: s* <= g(s*) <= g(L) <= 2L
    for the Luxemburg norm L <= max|f| / u.  Lower end: rho increases, so
    phi has log-log slope >= p and y phi'(y) - phi(y) >= (p-1) phi(y); the
    optimality condition mean (y phi' - phi)(|f|/s*) <= 1 then gives
    (p-1) I_phi(f/s*) <= 1, and Jensen phi(mean|f| / s*) <= 1/(p-1).
    phi^{-1}(1/(p-1)) comes from the generator when it leaves the table.
    """
    a, e = _normalised_modulus(f)
    if not np.any(a > 0.0):
        return 0.0
    c = 1.0 / (phi.p - 1.0)
    in_table = phi.x_table[0] <= c <= phi.x_table[-1]
    v = float(phi.phi_inv(c) if in_table else _phi_inv_formula(c, phi.p, phi.q, phi.rho))
    lo, hi = float(np.mean(a)) / v, 2.0 * float(np.max(a)) / float(phi.phi_inv(1.0))
    phi = _covering(phi, a, lo, hi)
    objective = lambda s: s * (1.0 + _modular(a * (1.0 / s), phi))  # noqa: E731
    return math.ldexp(_golden_min(objective, lo, hi, 1e-9 * hi)[1], e)


def _golden_max(fn, lo, hi, tol):
    """Golden-section search for the maximum of a unimodal fn on [lo, hi];
    returns the midpoint of the final bracket (width <= tol) and fn there."""
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > tol:
        if f1 > f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = fn(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = fn(x2)
    x = 0.5 * (lo + hi)
    return x, fn(x)


def _golden_min(fn, lo, hi, tol):
    x, v = _golden_max(lambda t: -fn(t), lo, hi, tol)
    return x, -v


# ---------------------------------------------------------------------------
# Space specifications (dispatch layer)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Lp:
    p: float

    def norm(self, f: SampledFunction) -> float:
        return lp_norm(f, self.p)


@dataclass(frozen=True, eq=False)
class WeightedLp:
    p: float
    weight: SampledFunction

    def __post_init__(self):
        _weight_values(self.weight)

    def norm(self, f: SampledFunction) -> float:
        return lp_norm(f, self.p, weight=self.weight)


@dataclass(frozen=True, eq=False)
class Lorentz:
    p: float
    q: float

    def __post_init__(self):
        if not (1.0 <= self.q <= self.p) or self.p == INF:
            raise ValueError(
                f"Lorentz parameters need 1 <= q <= p < inf, got p={self.p}, q={self.q}"
            )

    def norm(self, f: SampledFunction) -> float:
        return lorentz_norm(f, self.p, self.q)


@dataclass(frozen=True, eq=False)
class Orlicz:
    phi: PhiSpec
    flavor: str = "luxemburg"  # or "amemiya"

    def norm(self, f: SampledFunction) -> float:
        if self.flavor == "luxemburg":
            return luxemburg_norm(f, self.phi)
        if self.flavor == "amemiya":
            return orlicz_amemiya_norm(f, self.phi)
        raise ValueError(f"unknown Orlicz norm flavor {self.flavor!r}")
