"""Random test-function ensembles used by the verification suites.

Analytic test polynomials are drawn with geometrically decaying
coefficients and an optional modulus margin: decaying spectra keep
|f|^p resolvable by the working quadrature grid, and the margin keeps
zeros away from the circle, so identities that are exact in the
continuum hold to near machine precision in the discrete model.
"""

from __future__ import annotations

import numpy as np

from .grid import CircleGrid, FourierCoeffs, SampledFunction, synthesize
from .kernels import KernelSpec


def random_analytic_polynomial(
    rng: np.random.Generator,
    degree: int,
    grid: CircleGrid | None = None,
    decay: float = 0.5,
    min_modulus_ratio: float = 0.0,
) -> FourierCoeffs:
    """Random analytic polynomial c_k ~ decay^k * CN(0,1), k = 0..degree.

    With min_modulus_ratio > 0 (requires a grid), draws are rejected until
    min |f| >= ratio * max |f| on the grid; RuntimeError after 100 draws.
    """
    for _ in range(100):
        coeffs = np.zeros(2 * degree + 1, dtype=complex)
        scale = decay ** np.arange(degree + 1)
        coeffs[degree:] = scale * (
            rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        )
        f = FourierCoeffs(degree=degree, coeffs=coeffs)
        if min_modulus_ratio <= 0.0:
            return f
        vals = np.abs(synthesize(f, grid).values)
        if vals.min() >= min_modulus_ratio * vals.max():
            return f
    raise RuntimeError("rejection sampling failed to produce a margined polynomial")


def random_trig_polynomial(
    rng: np.random.Generator, degree: int, decay: float = 1.0
) -> FourierCoeffs:
    """Random trigonometric polynomial with coefficients on -degree..degree."""
    ks = np.arange(-degree, degree + 1)
    scale = decay ** np.abs(ks)
    coeffs = scale * (
        rng.standard_normal(2 * degree + 1) + 1j * rng.standard_normal(2 * degree + 1)
    )
    return FourierCoeffs(degree=degree, coeffs=coeffs)


def random_nonneg_kernel(
    rng: np.random.Generator, grid: CircleGrid, degree: int = 8
) -> KernelSpec:
    """Random nonnegative kernel |g|^2 / mean|g|^2 with unit discrete mass."""
    g = random_trig_polynomial(rng, degree)
    vals = np.abs(synthesize(g, grid).values) ** 2
    vals = vals / vals.mean()
    samples = SampledFunction(grid=grid, values=vals.astype(complex))
    return KernelSpec.custom(samples, nonneg=True, hat_nonneg=False)
