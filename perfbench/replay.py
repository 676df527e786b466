"""The benchmark's own arithmetic: witness replay, closed forms, proven bounds.

Nothing here imports hardybench.  Every certified value the program returns
is recomputed from its witness with numpy alone, and every table value is
compared with a closed form or with an independent 1-D maximisation, so a
check never compares the program with a stored copy of its own output.
"""

from __future__ import annotations

import math

import numpy as np

INF = math.inf


class CheckFailure(AssertionError):
    """A program output that contradicts the benchmark's own computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


def close(value: float, expected: float, rel: float, what: str) -> None:
    require(
        abs(value - expected) <= rel * max(abs(expected), 1e-300),
        f"{what}: {value!r} differs from {expected!r} by more than {rel:g} relative",
    )


def vec_norm(v: np.ndarray, p: float) -> float:
    """Discrete L^p norm; the uniform quadrature weight cancels in ratios."""
    a = np.abs(v)
    if p == INF:
        return float(np.max(a))
    return float(np.sum(a**p) ** (1.0 / p))


def holder_conjugate(p: float) -> float:
    if p == 1.0:
        return INF
    if p == INF:
        return 1.0
    return p / (p - 1.0)


def interpolation_upper(p: float) -> float:
    """2^{|1-2/p|}, the Riesz-Thorin bound for ||I - K|| with K an average."""
    return 2.0 ** (1.0 if p == INF else abs(1.0 - 2.0 / p))


# ---------------------------------------------------------------------------
# Fejer operators from the closed-form multipliers (1 - |k|/(n+1))_+
# ---------------------------------------------------------------------------


def fejer_gap_multipliers(n: int, n_points: int) -> np.ndarray:
    """Eigenvalues of I - C_{K_n} in numpy FFT bin order."""
    k = np.abs(np.fft.fftfreq(n_points, 1.0 / n_points))
    return 1.0 - np.maximum(0.0, 1.0 - k / (n + 1))


def grid_ratio(x: np.ndarray, n: int, p: float, weight: np.ndarray | None = None) -> float:
    """||w (I - C_{K_n}) x||_p / ||w x||_p for grid samples x."""
    y = np.fft.ifft(np.fft.fft(x) * fejer_gap_multipliers(n, x.size))
    if weight is not None:
        x, y = x * weight, y * weight
    return vec_norm(y, p) / vec_norm(x, p)


def synthesize(c: np.ndarray, n_points: int) -> np.ndarray:
    """Samples of sum_k c_k e^{ik theta_j} up to the factor N, by one FFT."""
    bins = np.zeros(n_points, dtype=complex)
    bins[: c.size] = c
    return np.fft.ifft(bins)


def analytic_fejer_ratio(c: np.ndarray, n: int, p: float, n_points: int) -> float:
    """Induced L^p ratio of I - C_{K_n} at the analytic polynomial c."""
    gap = np.minimum(1.0, np.arange(c.size) / (n + 1))
    return vec_norm(synthesize(gap * c, n_points), p) / vec_norm(synthesize(c, n_points), p)


def analytic_shift_ratio(c: np.ndarray, p: float, n_points: int) -> float:
    """Induced L^p ratio of the backward shift (c_0, ..., c_d) -> (c_1, ..., c_d, 0)."""
    shifted = np.zeros_like(c)
    shifted[:-1] = c[1:]
    return vec_norm(synthesize(shifted, n_points), p) / vec_norm(synthesize(c, n_points), p)


def matrix_ratio(a: np.ndarray, x: np.ndarray, p: float) -> float:
    return vec_norm(a @ x, p) / vec_norm(x, p)


# ---------------------------------------------------------------------------
# proven upper bounds
# ---------------------------------------------------------------------------


def riesz_thorin(col_sums: np.ndarray, row_sums: np.ndarray, p: float) -> float:
    """||B||_p <= ||B||_1^{1/p} ||B||_inf^{1-1/p} (max column / row sums of |B|)."""
    return float(np.max(col_sums)) ** (1.0 / p) * float(np.max(row_sums)) ** (1.0 - 1.0 / p)


def matrix_riesz_thorin(a: np.ndarray, p: float) -> float:
    m = np.abs(a)
    return riesz_thorin(m.sum(axis=0), m.sum(axis=1), p)


def weighted_fejer_riesz_thorin(n: int, weight: np.ndarray, p: float) -> float:
    """Riesz-Thorin bound for B = D_w (I - C_{K_n}) D_w^{-1} without forming B.

    I - C_{K_n} is circulant with first column a = ifft(gap multipliers), so
    |B_jl| = w_j |a_{j-l}| / w_l and both sums of |B| are circular
    convolutions of |a| with w or 1/w.
    """
    n_points = weight.size
    abs_a = np.abs(np.fft.ifft(fejer_gap_multipliers(n, n_points)))
    fa = np.fft.fft(abs_a)
    cols = np.fft.ifft(np.fft.fft(weight) * np.conj(fa)).real / weight
    rows = weight * np.fft.ifft(np.fft.fft(1.0 / weight) * fa).real
    return riesz_thorin(cols, rows, p)


def weighted_fejer_matrix(n: int, weight: np.ndarray) -> np.ndarray:
    """Dense B = D_w (I - C_{K_n}) D_w^{-1}; used only for the p = 2 check."""
    n_points = weight.size
    a = np.fft.ifft(fejer_gap_multipliers(n, n_points))
    idx = (np.arange(n_points)[:, None] - np.arange(n_points)[None, :]) % n_points
    return weight[:, None] * a[idx] / weight[None, :]


# ---------------------------------------------------------------------------
# constants and closed forms
# ---------------------------------------------------------------------------


def franchetti(p: float) -> float:
    """C_p, the norm of f -> f - mean(f) on L^p, by dense scan plus golden section."""
    if p == 1.0:
        return 2.0
    s = 1.0 / (p - 1.0)

    def objective(a):
        a = np.asarray(a, dtype=float)
        return (a ** (p - 1.0) + (1.0 - a) ** (p - 1.0)) ** (1.0 / p) * (
            a**s + (1.0 - a) ** s
        ) ** (1.0 - 1.0 / p)

    alphas = np.linspace(0.0, 0.5, 20_001)
    i = int(np.argmax(objective(alphas)))
    lo, hi = alphas[max(i - 1, 0)], alphas[min(i + 1, alphas.size - 1)]
    refined = -_golden_min(lambda a: -float(objective(a)), lo, hi, 1e-13)
    return max(refined, float(objective(alphas[i])))


def _golden_min(fn, lo: float, hi: float, tol: float) -> float:
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    while hi - lo > tol:
        x1, x2 = hi - golden * (hi - lo), lo + golden * (hi - lo)
        if fn(x1) < fn(x2):
            hi = x2
        else:
            lo = x1
    return fn(0.5 * (lo + hi))


def gamma_residual(gamma: float, p: float, q: float) -> float:
    """min_{x+y=gamma, x,y>=0} x^p + y^q, which is 1 at gamma = gamma_{p,q}."""
    return _golden_min(lambda x: x**p + (gamma - x) ** q, 0.0, gamma, 1e-13)


def gamma_diagonal(p: float) -> float:
    """gamma_{p,p} = 2^{1-1/p}: min_{x+y=g} x^p + y^p = 2 (g/2)^p = 1."""
    return 2.0 ** (1.0 - 1.0 / p)


def power_exponent(p: float, q: float, theta: float) -> float:
    """phi(x) = x^r for the generator rho(t) = t^theta: 1/r = 1/p + theta (1/q - 1/p)."""
    return 1.0 / (1.0 / p + theta * (1.0 / q - 1.0 / p))


def mean_lp(values: np.ndarray, p: float) -> float:
    """L^p norm for the normalized counting measure."""
    return float(np.mean(np.abs(values) ** p) ** (1.0 / p))


def amemiya_power(lp_value: float, r: float) -> float:
    """inf_k (1 + k^r ||f||_r^r) / k = r (r-1)^{1/r-1} ||f||_r for phi(x) = x^r."""
    return r * (r - 1.0) ** (1.0 / r - 1.0) * lp_value


def lorentz_constant(c: float, p: float, q: float) -> float:
    """||c||_{L^{p,q}} = c (p/q)^{1/q} for a constant function c > 0."""
    return c * (p / q) ** (1.0 / q)
