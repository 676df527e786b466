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
_EPS = np.finfo(float).eps
_MARGIN = 2.0**-20  # widening of the proven Orlicz brackets in log scale
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
    monotone and is exact on the power family rho(t) = t^theta.  The logs
    of both tables and the slope of every segment in each direction are
    taken once, at build; one binary search per argument then gives phi
    and its log-log slope sigma(y) = y phi'(y) / phi(y) together.

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
        log_x, log_y = np.log(self.x_table), np.log(self.y_table)  # taken once
        dx, dy = np.diff(log_x), np.diff(log_y)
        object.__setattr__(self, "_log_x", log_x)
        object.__setattr__(self, "_log_y", log_y)
        object.__setattr__(self, "_sigma", _segment_slopes(dx, dy))  # of phi
        object.__setattr__(self, "_sigma_inv", _segment_slopes(dy, dx))  # of phi^{-1}

    def phi(self, y: np.ndarray) -> np.ndarray:
        """phi(y) for y >= 0; exact zeros map to 0 (phi(0) = 0)."""
        return self._phi_and_slope(y)[0]

    def phi_inv(self, x: np.ndarray) -> np.ndarray:
        return _loglog(x, self.x_table, self.y_table, self._log_x, self._log_y, self._sigma_inv)[0]

    def _phi_and_slope(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """phi(y) and its log-log slope sigma(y), the slope of the segment
        that holds y (0 where phi reads 0)."""
        return _loglog(y, self.y_table, self.x_table, self._log_y, self._log_x, self._sigma)

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


def _segment_slopes(rise: np.ndarray, run: np.ndarray) -> np.ndarray:
    """rise / run per segment, the last repeated for the last node."""
    slopes = rise / run
    return np.append(slopes, slopes[-1])


def _loglog(t, nodes, values, log_nodes, log_values, slopes) -> tuple[np.ndarray, np.ndarray]:
    """The increasing table nodes -> values, read at t >= 0 linearly in
    log-log coordinates, and the slope of the segment read (the one that
    starts at or below log t): the bits of np.interp from one search.
    0 maps to 0, and so does t below the first node when the first value is
    below 2^-1021, both with slope 0; other t outside raise."""
    t = np.asarray(t, dtype=float)
    out, slope = np.zeros_like(t), np.zeros_like(t)
    pos = t >= nodes[0] if values[0] < 2.0 * _TINY else t > 0.0
    if np.any(pos):
        tp = t[pos]
        if np.min(tp) < nodes[0] or np.max(tp) > nodes[-1]:
            raise RangeExceededError("argument outside the tabulated range; extend the table")
        lt = np.log(tp)
        j = np.searchsorted(log_nodes, lt, side="right") - 1
        s = slopes[j]
        out[pos] = np.exp(s * (lt - log_nodes[j]) + log_values[j])
        slope[pos] = s
    return out, slope


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


def _normalised(a: np.ndarray) -> tuple[np.ndarray, int]:
    """a / 2^e and e, where 2^e brings max(a) into [1/2, 1): the Orlicz
    norms are homogeneous, the scaling is exact and no sum can overflow.
    ValueError unless every modulus is finite."""
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


def _log_bracket(a: np.ndarray, phi: PhiSpec, lo: float, hi: float):
    """The proven bracket [lo, hi] of a scale s, as t = log s, and phi
    covering every s = e^t between its ends.  Each end moves out by _MARGIN:
    on a constant modulus the proven end is the root itself, and rounding
    could put the root just outside."""
    t_lo, t_hi = math.log(lo) - _MARGIN, math.log(hi) + _MARGIN
    return t_lo, t_hi, _covering(phi, a, math.exp(t_lo), math.exp(t_hi))


def _zeroin(fn, lo: float, hi: float, xtol: float):
    """A sign change of a decreasing fn on [lo, hi] by Brent's zeroin
    (R. P. Brent, Algorithms for Minimization without Derivatives, 1973,
    ch. 4): inverse quadratic or secant steps with a bisection fallback.

    fn(x) returns (value, data) with value > 0 at lo and <= 0 at hi.  The
    search stops at a value 0 or once the bracket is at most 4 eps max(1,
    |x|) + xtol wide; it returns (x, value, data) at its two ends, the best
    estimate first, one value > 0 and the other <= 0.
    """
    b, c = (lo, *fn(lo)), (hi, *fn(hi))
    if not b[1] > 0.0 or c[1] > 0.0:
        raise NoConvergenceError(f"bracket does not hold: {b[1]!r} at {lo!r}, {c[1]!r} at {hi!r}")
    a = c
    d = e = c[0] - b[0]
    while True:
        if (b[1] > 0.0) == (c[1] > 0.0):
            c = a
            d = e = b[0] - a[0]
        if abs(c[1]) < abs(b[1]):
            a, b, c = b, c, b
        tol = 2.0 * _EPS * max(1.0, abs(b[0])) + 0.5 * xtol
        m = 0.5 * (c[0] - b[0])
        if abs(m) <= tol or b[1] == 0.0:
            return b, c
        if abs(e) < tol or abs(a[1]) <= abs(b[1]):
            d = e = m  # bisection
        else:
            s = b[1] / a[1]
            if a is c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic
                q, r = a[1] / c[1], b[1] / c[1]
                p = s * (2.0 * m * q * (q - r) - (b[0] - a[0]) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a = b
        x = b[0] + (d if abs(d) > tol else math.copysign(tol, m))
        b = (x, *fn(x))


def _luxemburg_bracket(a: np.ndarray, phi: PhiSpec) -> tuple[float, float]:
    """(lo, hi) with I_phi(a * (1/lo)) > 1 >= I_phi(a * (1/hi)) for the moduli
    a = |f| (lo = hi = 0 when a = 0): a few ulps apart, unless hi reads
    I_phi = 1 exactly and so is the norm to the rounding of the modular.
    Both modulars are read at the returned scales; they are read on a / 2^e
    and scaled back by 2^e, which changes no product a_j * (1/s) while s and
    1/s stay normal.

    log I_phi(f/e^t) decreases in t; its root is found by `_zeroin`, and on
    the power family, where it is linear in t, the first secant step lands
    on it.  With u = phi^{-1}(1) the root lies in [mean|f| / u, max|f| / u].
    phi is convex (`_check_convexity`), so by Jensen I_phi(f/lambda) >=
    phi(mean|f| / lambda) > phi(u) = 1 for lambda < mean|f| / u; phi is
    increasing, so at lambda = max|f| / u every phi(|f_j| / lambda) <= 1.
    """
    a, e = _normalised(a)
    if not np.any(a > 0.0):
        return 0.0, 0.0
    u = float(phi.phi_inv(1.0))
    t_lo, t_hi, phi = _log_bracket(a, phi, float(np.mean(a)) / u, float(np.max(a)) / u)

    def log_modular(t):
        s = math.exp(t)
        return math.log(_modular(a * (1.0 / s), phi)), s

    (_, _, s1), (_, v2, s2) = _zeroin(log_modular, t_lo, t_hi, 0.0)
    lo, hi = (s2, s1) if v2 > 0.0 else (s1, s2)
    return math.ldexp(lo, e), math.ldexp(hi, e)


def luxemburg_norm(f: SampledFunction, phi: PhiSpec) -> float:
    """inf{ lambda > 0 : I_phi(f/lambda) <= 1 }: the feasible end `hi` of
    `_luxemburg_bracket`, so I_phi(f * (1/lambda)) <= 1 holds as computed at
    the returned lambda, which is at most a few ulps above the infimum."""
    return _luxemburg_bracket(np.abs(f.values), phi)[1]


def orlicz_amemiya_norm(f: SampledFunction, phi: PhiSpec) -> float:
    """inf_{k>0} (1 + I_phi(k f))/k = min_s g(s), g(s) = s (1 + I_phi(f/s)):
    g at the root of g'(s) = 0, found by `_zeroin` in t = log s to a bracket
    of relative width 1e-9 or less.

    g'(s) = 1 - mean phi(y) (sigma(y) - 1) with y = |f|/s and sigma the
    table's log-log slope, so the root is that of t -> log mean phi(y)
    (sigma(y) - 1), which decreases in s (y phi'(y) - phi(y) increases for
    convex phi) and on the power family is linear in t.

    g is convex, a perspective of the convex modular.  Its minimiser s*
    lies in [mean|f| / phi^{-1}(1/(p-1)), 2 max|f| / u], u = phi^{-1}(1).
    Upper end: s* <= g(s*) <= g(L) <= 2L for the Luxemburg norm L <= max|f|
    / u.  Lower end: rho increases, so phi has log-log slope >= p and
    y phi'(y) - phi(y) >= (p-1) phi(y); the optimality condition mean
    (y phi' - phi)(|f|/s*) <= 1 then gives (p-1) I_phi(f/s*) <= 1, and Jensen
    phi(mean|f| / s*) <= 1/(p-1).  phi^{-1}(1/(p-1)) comes from the generator
    when it leaves the table.
    """
    a, e = _normalised(np.abs(f.values))
    if not np.any(a > 0.0):
        return 0.0
    c = 1.0 / (phi.p - 1.0)
    in_table = phi.x_table[0] <= c <= phi.x_table[-1]
    v = float(phi.phi_inv(c) if in_table else _phi_inv_formula(c, phi.p, phi.q, phi.rho))
    lo, hi = float(np.mean(a)) / v, 2.0 * float(np.max(a)) / float(phi.phi_inv(1.0))
    t_lo, t_hi, phi = _log_bracket(a, phi, lo, hi)

    def slope_excess(t):
        s = math.exp(t)
        y_phi, sigma = phi._phi_and_slope(a * (1.0 / s))
        return math.log(float(np.mean(y_phi * (sigma - 1.0)))), s * (1.0 + float(np.mean(y_phi)))

    return math.ldexp(_zeroin(slope_excess, t_lo, t_hi, 1e-9)[0][2], e)


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
