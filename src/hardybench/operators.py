"""Finite-dimensional operators: convolutions, Riesz restriction, backward shift.

Grid-basis operators are dense N x N matrices acting on point samples;
convolutions are circulant and additionally carry their eigenvalues (the
discrete multipliers), which enables an FFT fast path for apply().

Analytic-basis operators are (d+1) x (d+1) matrices acting on coefficients
(c_0, ..., c_d) of analytic polynomials; norms on this basis are always
evaluated through synthesis, so the subspace carries the induced norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegreeExceedsGridError, NotInvariantError
from .grid import CircleGrid, FourierCoeffs, SampledFunction, analyze, synthesize
from .kernels import KernelSpec

_CIRCULANT_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class OperatorRep:
    """Dense operator with an attached basis, grid, and optional fast path."""

    matrix: np.ndarray = field(repr=False)
    basis: str  # "grid" | "analytic"
    grid: CircleGrid
    degree: int | None = None  # analytic basis only
    domain: object | None = None  # SpaceSpec the operator norm refers to
    multipliers: np.ndarray | None = field(default=None, repr=False)  # FFT order
    circulant: bool = False

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self.multipliers is not None:
            return np.fft.ifft(np.fft.fft(x) * self.multipliers)
        return self.matrix @ x

    def apply_adjoint(self, x: np.ndarray) -> np.ndarray:
        if self.multipliers is not None:
            return np.fft.ifft(np.fft.fft(x) * np.conj(self.multipliers))
        return self.matrix.conj().T @ x


def _verify_circulant(matrix: np.ndarray, rng: np.random.Generator) -> bool:
    """One random rotation test: does A commute with the grid shift?"""
    n = matrix.shape[0]
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    lhs = np.roll(matrix @ x, 1)
    rhs = matrix @ np.roll(x, 1)
    scale = max(np.max(np.abs(lhs)), 1.0)
    return bool(np.max(np.abs(lhs - rhs)) <= _CIRCULANT_TOL * scale)


def _circulant_from_first_column(col: np.ndarray) -> np.ndarray:
    n = col.size
    doubled = np.concatenate([col, col])
    view = np.lib.stride_tricks.as_strided(
        doubled[n:],
        shape=(n, n),
        strides=(doubled.strides[0], -doubled.strides[0]),
    )
    return view.copy()


def convolution_operator(
    kernel: KernelSpec, grid: CircleGrid, domain: object | None = None
) -> OperatorRep:
    """Circulant matrix A[j][l] = (1/N) K(theta_j - theta_l).

    The eigenvalues (discrete multipliers) are the DFT of the first column,
    so the FFT fast path agrees with the dense matrix to roundoff.
    """
    samples = kernel.sample(grid).values
    col = samples / grid.n_points
    matrix = _circulant_from_first_column(col)
    multipliers = np.fft.fft(col)
    op = OperatorRep(
        matrix=matrix,
        basis="grid",
        grid=grid,
        domain=domain,
        multipliers=multipliers,
        circulant=True,
    )
    if not _verify_circulant(matrix, np.random.default_rng(0)):
        raise NotInvariantError("convolution matrix failed the rotation test")
    return op


def identity_operator(grid: CircleGrid, domain: object | None = None) -> OperatorRep:
    n = grid.n_points
    return OperatorRep(
        matrix=np.eye(n, dtype=float),
        basis="grid",
        grid=grid,
        domain=domain,
        multipliers=np.ones(n, dtype=complex),
        circulant=True,
    )


def identity_minus(op: OperatorRep) -> OperatorRep:
    """I - A on the same basis."""
    matrix = np.eye(op.dim, dtype=op.matrix.dtype) - op.matrix
    multipliers = None if op.multipliers is None else 1.0 - op.multipliers
    return OperatorRep(
        matrix=matrix,
        basis=op.basis,
        grid=op.grid,
        degree=op.degree,
        domain=op.domain,
        multipliers=multipliers,
        circulant=op.circulant,
    )


def analytic_restriction(op: OperatorRep, degree: int) -> OperatorRep:
    """Matrix of a grid operator on analytic coefficients (c_0, ..., c_d).

    Requires the operator to map span{e^{ik theta} : 0 <= k <= degree} into
    itself within 1e-10 (relative); otherwise NotInvariantError.
    """
    if op.basis != "grid":
        raise ValueError("analytic_restriction expects a grid-basis operator")
    g = op.grid
    if 2 * degree + 1 > g.n_points:
        raise DegreeExceedsGridError(
            f"degree {degree} does not fit on a grid of {g.n_points} points"
        )
    full_degree = g.max_degree
    ks = np.arange(degree + 1)
    restricted = np.zeros((degree + 1, degree + 1), dtype=complex)
    for k in ks:
        basis_fn = np.exp(1j * k * g.theta)
        image = op.apply(basis_fn)
        coeffs = analyze(SampledFunction(g, image), full_degree)
        inside = coeffs.coeffs[full_degree : full_degree + degree + 1]
        scale = max(float(np.max(np.abs(image))), 1.0)
        outside = np.sum(np.abs(coeffs.coeffs)) - np.sum(np.abs(inside))
        if outside > 1e-10 * scale * (2 * full_degree + 1):
            raise NotInvariantError(
                f"operator leaks frequency content outside 0..{degree} "
                f"(leakage {outside:.3e} at basis frequency {k})"
            )
        restricted[:, k] = inside
    return OperatorRep(
        matrix=restricted,
        basis="analytic",
        grid=g,
        degree=degree,
        domain=op.domain,
    )


def backward_shift(degree: int, grid: CircleGrid | None = None) -> OperatorRep:
    """Coefficient map (c_0, c_1, ..., c_d) -> (c_1, ..., c_d, 0).

    On the circle this is f -> e^{-i theta} (f - mean(f)), so |Bf| equals
    |f - mean(f)| pointwise.
    """
    if degree < 1:
        raise ValueError(f"backward shift needs degree >= 1, got {degree}")
    if grid is None:
        from .grid import DEFAULT_GRID_SIZE, make_grid

        grid = make_grid(DEFAULT_GRID_SIZE)
    matrix = np.zeros((degree + 1, degree + 1), dtype=float)
    matrix[np.arange(degree), np.arange(1, degree + 1)] = 1.0
    return OperatorRep(matrix=matrix, basis="analytic", grid=grid, degree=degree)


def substitute_fm(
    f: FourierCoeffs, m: int, grid: CircleGrid | None = None
) -> FourierCoeffs:
    """f_m with f_m(e^{i theta}) = f(e^{i m theta}): coefficient k moves to mk.

    Requires f analytic.  When a grid is supplied, the result must stay
    band-limited on it (2*m*deg + 1 <= N), else DegreeExceedsGridError.
    """
    if m < 1:
        raise ValueError(f"substitution index must be >= 1, got {m}")
    if not f.is_analytic():
        raise ValueError("substitute_fm expects an analytic polynomial")
    new_degree = m * f.degree
    if grid is not None and 2 * new_degree + 1 > grid.n_points:
        raise DegreeExceedsGridError(
            f"substituted degree {new_degree} exceeds the band limit of "
            f"an {grid.n_points}-point grid"
        )
    coeffs = np.zeros(2 * new_degree + 1, dtype=complex)
    for k in range(f.degree + 1):
        coeffs[new_degree + m * k] = f.coeff(k)
    return FourierCoeffs(degree=new_degree, coeffs=coeffs)


def synthesis_matrix(grid: CircleGrid, degree: int) -> np.ndarray:
    """N x (d+1) matrix taking analytic coefficients to grid samples."""
    if degree >= grid.n_points:
        raise DegreeExceedsGridError(
            f"degree {degree} needs more than {grid.n_points} grid points"
        )
    return np.exp(1j * np.outer(grid.theta, np.arange(degree + 1)))


def analytic_synthesis(c: np.ndarray, n_points: int) -> np.ndarray:
    """Grid samples of analytic polynomials, one per coefficient row of c.

    A zero-padded inverse FFT: the rows of c @ synthesis_matrix(grid, d).T.
    """
    if c.shape[-1] > n_points:
        raise DegreeExceedsGridError(
            f"degree {c.shape[-1] - 1} needs more than {n_points} grid points"
        )
    return np.fft.ifft(c, n=n_points, norm="forward")


def analytic_analysis(x: np.ndarray, degree: int) -> np.ndarray:
    """Coefficients 0..degree of the grid samples in each row of x.

    The forward FFT scaled by 1/N: the orthogonal projection onto the
    analytic span, the rows of x @ synthesis_matrix(grid, d).conj() / N.
    """
    return np.fft.fft(x, norm="forward")[..., : degree + 1]


def grid_image(op: OperatorRep, c: np.ndarray) -> np.ndarray:
    """Samples of A applied to the analytic polynomial with coefficients c."""
    if op.basis != "analytic":
        raise ValueError("grid_image expects an analytic-basis operator")
    out = FourierCoeffs(degree=op.degree, coeffs=_analytic_to_full(op.matrix @ c))
    return synthesize(out, op.grid).values


def _analytic_to_full(c_analytic: np.ndarray) -> np.ndarray:
    d = c_analytic.size - 1
    full = np.zeros(2 * d + 1, dtype=complex)
    full[d:] = c_analytic
    return full
