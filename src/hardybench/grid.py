"""Uniform circle grids, sampling, Fourier analysis/synthesis, translation.

The circle carries the normalized measure dm = dtheta/(2*pi), so every
discrete integral below is a plain mean: (1/N) * sum over grid points.
On an N-point grid the exponentials e^{ik*theta}, |k| <= (N-1)/2, are
exactly orthonormal for that mean, which makes analysis and synthesis
exact (to roundoff) for band-limited functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegreeExceedsGridError


@dataclass(frozen=True, eq=False)
class CircleGrid:
    """Equispaced angles theta_j = 2*pi*j/N with quadrature weight 1/N each."""

    n_points: int
    theta: np.ndarray = field(repr=False)
    quad_weight: float

    @property
    def max_degree(self) -> int:
        """Largest degree d with 2d+1 <= N (alias-free band limit)."""
        return (self.n_points - 1) // 2


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Complex point samples of a function on a CircleGrid."""

    grid: CircleGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (self.grid.n_points,):
            raise ValueError(
                f"expected {self.grid.n_points} samples, got shape {values.shape}"
            )
        object.__setattr__(self, "values", values)


@dataclass(frozen=True, eq=False)
class FourierCoeffs:
    """Trigonometric coefficients c_k for k = -degree..degree (2d+1 entries)."""

    degree: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.shape != (2 * self.degree + 1,):
            raise ValueError(
                f"degree {self.degree} needs {2 * self.degree + 1} coefficients, "
                f"got shape {coeffs.shape}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    def coeff(self, k: int) -> complex:
        if abs(k) > self.degree:
            return 0.0 + 0.0j
        return self.coeffs[k + self.degree]

    @property
    def wavenumbers(self) -> np.ndarray:
        return np.arange(-self.degree, self.degree + 1)

    def is_analytic(self, tol: float = 1e-12) -> bool:
        """True when all negative-frequency coefficients vanish (within tol)."""
        scale = max(np.max(np.abs(self.coeffs)), 1.0)
        return bool(np.all(np.abs(self.coeffs[: self.degree]) <= tol * scale))


def make_grid(n_points: int) -> CircleGrid:
    """Uniform N-point discretization of the circle, N >= 2."""
    if n_points < 2:
        raise ValueError(f"grid needs at least 2 points, got {n_points}")
    theta = 2.0 * np.pi * np.arange(n_points) / n_points
    return CircleGrid(n_points=n_points, theta=theta, quad_weight=1.0 / n_points)


def analyze(f: SampledFunction, degree: int) -> FourierCoeffs:
    """Coefficients c_k = (1/N) sum_j f(theta_j) e^{-ik theta_j}, |k| <= degree.

    Exact for trigonometric polynomials of degree <= `degree` whenever
    N > 2*degree (no aliasing).
    """
    n = f.grid.n_points
    if 2 * degree + 1 > n:
        raise DegreeExceedsGridError(
            f"degree {degree} needs {2 * degree + 1} grid points, grid has {n}"
        )
    fhat = np.fft.fft(f.values) / n
    ks = np.arange(-degree, degree + 1)
    return FourierCoeffs(degree=degree, coeffs=fhat[ks % n])


def synthesize(c: FourierCoeffs, grid: CircleGrid) -> SampledFunction:
    """Point samples f(theta_j) = sum_k c_k e^{ik theta_j}.

    Each c_k is added into FFT bin k mod N, which folds wavenumbers that
    alias on the grid (2d + 1 > N) exactly, and the bins are inverted in
    O(N log N).
    """
    n = grid.n_points
    bins = np.zeros(n, dtype=complex)
    np.add.at(bins, c.wavenumbers % n, c.coeffs)
    return SampledFunction(grid=grid, values=np.fft.ifft(bins) * n)


def translate_coeffs(c: FourierCoeffs, angle: float) -> FourierCoeffs:
    """Rotation by `angle`: c_k -> c_k e^{-ik*angle}."""
    phase = np.exp(-1j * c.wavenumbers * angle)
    return FourierCoeffs(degree=c.degree, coeffs=c.coeffs * phase)


def translate(f: SampledFunction, angle: float) -> SampledFunction:
    """Rotate f by `angle`: (tau f)(theta) = f(theta - angle).

    Implemented spectrally, so the result is exact for band-limited inputs
    and any real angle.
    """
    c = analyze(f, f.grid.max_degree)
    return synthesize(translate_coeffs(c, angle), f.grid)


def rotate_samples(f: SampledFunction, steps: int) -> SampledFunction:
    """Index-shift translation by angle 2*pi*steps/N; exact for any samples.

    Agrees with the spectral path on band-limited inputs.  The spectral
    path is canonical for non-grid angles.
    """
    return SampledFunction(grid=f.grid, values=np.roll(f.values, steps))
