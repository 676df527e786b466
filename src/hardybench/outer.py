"""Outer functions: boundary construction from a weight, and the isometry
f -> Wf between weighted and unweighted Hardy-type spaces.

The boundary values of the outer function with modulus w are
W = exp(u + i*conj(u)) with u = log w, where conj(u) is the harmonic
conjugate (Fourier multiplier -i*sign(k), zero mean).  W is zero-free and
|W| = w up to the spectral truncation of log w.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import CircleGrid, FourierCoeffs, SampledFunction, analyze, synthesize
from .spaces import Lp, WeightedLp, _weight_values, lp_norm


@dataclass(frozen=True, eq=False)
class WeightSpec:
    """Finite, real, strictly positive weight samples; log w is then
    trivially summable."""

    samples: SampledFunction = field(repr=False)

    def __post_init__(self):
        _weight_values(self.samples)

    @property
    def grid(self) -> CircleGrid:
        return self.samples.grid

    @property
    def values(self) -> np.ndarray:
        return self.samples.values.real


def conjugate_function(u: SampledFunction, degree: int | None = None) -> SampledFunction:
    """Harmonic conjugate via the multiplier c_k -> -i*sign(k)*c_k, |k| <= degree.

    The conjugate of a real function is real with zero mean; degree defaults
    to N/2 - 1.
    """
    g = u.grid
    if degree is None:
        degree = g.n_points // 2 - 1
    c = analyze(u, degree)
    ks = c.wavenumbers
    tilde = FourierCoeffs(degree=degree, coeffs=-1j * np.sign(ks) * c.coeffs)
    values = synthesize(tilde, g).values
    return SampledFunction(grid=g, values=values.real.astype(complex))


def outer_function(weight: WeightSpec, degree: int | None = None) -> SampledFunction:
    """Boundary samples of the outer function with |W| = w.

    u = log w is projected to the given spectral degree before
    exponentiating, so |W| matches w only up to the truncation error of
    log w; smooth weights converge spectrally fast in the degree.
    """
    g = weight.grid
    if degree is None:
        degree = g.n_points // 2 - 1
    u = SampledFunction(grid=g, values=np.log(weight.values).astype(complex))
    u_proj = synthesize(analyze(u, degree), g)
    u_tilde = conjugate_function(u, degree)
    values = np.exp(u_proj.values.real + 1j * u_tilde.values.real)
    return SampledFunction(grid=g, values=values)


@dataclass
class IsometryReport:
    norm_outer_times_f: float  # ||W f||_X
    norm_weight_times_f: float  # ||w f||_X
    norm_weighted_space: float  # ||f||_{X(w)}
    max_relative_deviation: float
    negative_frequency_leakage: float


def isometry_check(
    f: FourierCoeffs,
    weight: WeightSpec,
    space,
    degree: int | None = None,
) -> IsometryReport:
    """Compare ||Wf||_X, ||wf||_X and ||f||_{X(w)} for analytic f.

    For non-L^p spaces the weighted norm ||f||_{X(w)} is by definition
    ||wf||_X, so the contentful comparison there is against ||Wf||_X.
    Also reports how much of Wf leaks into negative frequencies relative
    to its size (outer times analytic stays analytic).
    """
    if not f.is_analytic():
        raise ValueError("isometry_check expects an analytic polynomial")
    g = weight.grid
    fw = synthesize(f, g)
    w_outer = outer_function(weight, degree)
    wf = SampledFunction(g, fw.values * weight.values)
    outer_f = SampledFunction(g, fw.values * w_outer.values)

    norm_outer = space.norm(outer_f)
    norm_wf = space.norm(wf)
    if isinstance(space, Lp):
        weighted = WeightedLp(p=space.p, weight=weight.samples)
        norm_weighted = weighted.norm(fw)
    else:
        norm_weighted = space.norm(wf)

    trio = np.array([norm_outer, norm_wf, norm_weighted])
    scale = float(np.max(trio))
    deviation = float((np.max(trio) - np.min(trio)) / max(scale, 1e-300))

    coeffs = analyze(outer_f, g.max_degree)
    neg = np.abs(coeffs.coeffs[: g.max_degree])
    leakage = float(np.max(neg) / max(lp_norm(outer_f, 2.0), 1e-300))
    return IsometryReport(
        norm_outer_times_f=norm_outer,
        norm_weight_times_f=norm_wf,
        norm_weighted_space=norm_weighted,
        max_relative_deviation=deviation,
        negative_frequency_leakage=leakage,
    )
