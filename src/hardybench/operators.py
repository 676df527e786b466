"""Finite-dimensional operators: convolutions, Riesz restriction, backward shift.

Grid-basis operators act on point samples.  A convolution is a circulant,
diagonal in the Fourier basis: it is held by its first column and its
multipliers (the DFT of that column), applied by FFT, and its dense N x N
matrix is built only when `.matrix` is read.  Other grid operators are held
by their dense matrix, stored complex.  `apply` and `apply_adjoint` are the
one way an operator is applied, to a vector or to each row of an (S, N)
array.

Analytic-basis operators are (d+1) x (d+1) matrices acting on coefficients
(c_0, ..., c_d) of analytic polynomials; norms on this basis are always
evaluated through synthesis, so the subspace carries the induced norm.
"""

from __future__ import annotations

import numpy as np

from .errors import DegreeExceedsGridError, NotInvariantError
from .grid import CircleGrid, FourierCoeffs, SampledFunction, analyze
from .kernels import KernelSpec


class OperatorRep:
    """An operator with an attached basis and grid.

    Either `matrix` (dense, stored complex) or a circulant's first `column`
    together with its `multipliers` is given; a circulant's matrix is built
    on first read of `.matrix` and kept.
    """

    def __init__(
        self,
        matrix: np.ndarray | None = None,
        *,
        basis: str,  # "grid" | "analytic"
        grid: CircleGrid,
        degree: int | None = None,  # analytic basis only
        domain: object | None = None,  # SpaceSpec the operator norm refers to
        column: np.ndarray | None = None,
        multipliers: np.ndarray | None = None,  # FFT order
    ):
        if (matrix is None) == (column is None) or (column is None) != (multipliers is None):
            raise ValueError(
                "an operator is a dense matrix, or a circulant's first column "
                "with its multipliers"
            )
        self._matrix = None if matrix is None else np.asarray(matrix, dtype=complex)
        self._adjoint = None  # conj of the multipliers or of the matrix, on first use
        self.basis = basis
        self.grid = grid
        self.degree = degree
        self.domain = domain
        self.column = column
        self.multipliers = multipliers

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = _circulant_from_first_column(self.column)
        return self._matrix

    @property
    def circulant(self) -> bool:
        return self.multipliers is not None

    @property
    def dim(self) -> int:
        return self.column.size if self.circulant else self._matrix.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x for a vector x, or for each row x of an (S, N) array."""
        if self.circulant:
            return np.fft.ifft(np.fft.fft(x, axis=-1) * self.multipliers, axis=-1)
        return x @ self._matrix.T

    def apply_adjoint(self, x: np.ndarray) -> np.ndarray:
        """A^H x for a vector x, or for each row x of an (S, N) array."""
        if self._adjoint is None:
            self._adjoint = np.conj(self.multipliers if self.circulant else self._matrix)
        if self.circulant:
            return np.fft.ifft(np.fft.fft(x, axis=-1) * self._adjoint, axis=-1)
        return x @ self._adjoint  # x @ conj(M) is the row form of A^H x


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
    """Circulant A[j][l] = (1/N) K(theta_j - theta_l).

    Held by its first column K/N and its eigenvalues (discrete multipliers),
    the DFT of that column; no N x N array is formed.
    """
    samples = kernel.sample(grid).values
    if not np.all(np.isfinite(samples)):
        raise ValueError("kernel samples must be finite")
    col = samples / grid.n_points
    return OperatorRep(
        basis="grid", grid=grid, domain=domain, column=col, multipliers=np.fft.fft(col)
    )


def identity_operator(grid: CircleGrid, domain: object | None = None) -> OperatorRep:
    n = grid.n_points
    column = np.zeros(n)
    column[0] = 1.0
    return OperatorRep(
        basis="grid",
        grid=grid,
        domain=domain,
        column=column,
        multipliers=np.ones(n, dtype=complex),
    )


def identity_minus(op: OperatorRep) -> OperatorRep:
    """I - A on the same basis."""
    if not op.circulant:
        return OperatorRep(
            matrix=np.eye(op.dim) - op.matrix,
            basis=op.basis,
            grid=op.grid,
            degree=op.degree,
            domain=op.domain,
        )
    e0 = np.zeros_like(op.column)
    e0[0] = 1.0
    return OperatorRep(
        basis=op.basis,
        grid=op.grid,
        degree=op.degree,
        domain=op.domain,
        column=e0 - op.column,
        multipliers=1.0 - op.multipliers,
    )


def analytic_restriction(op: OperatorRep, degree: int) -> OperatorRep:
    """Matrix of a grid operator on analytic coefficients (c_0, ..., c_d).

    A circulant restricts to the diagonal of its multipliers at k = 0..d.
    Any other operator must map span{e^{ik theta} : 0 <= k <= degree} into
    itself within 1e-10 (relative); otherwise NotInvariantError.
    """
    if op.basis != "grid":
        raise ValueError("analytic_restriction expects a grid-basis operator")
    g = op.grid
    if 2 * degree + 1 > g.n_points:
        raise DegreeExceedsGridError(
            f"degree {degree} does not fit on a grid of {g.n_points} points"
        )
    if op.circulant:
        restricted = np.diag(op.multipliers[: degree + 1])
    else:
        full_degree = g.max_degree
        restricted = np.zeros((degree + 1, degree + 1), dtype=complex)
        for k in range(degree + 1):
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


def backward_shift(degree: int, grid: CircleGrid) -> OperatorRep:
    """Coefficient map (c_0, c_1, ..., c_d) -> (c_1, ..., c_d, 0).

    On the circle this is f -> e^{-i theta} (f - mean(f)), so |Bf| equals
    |f - mean(f)| pointwise.
    """
    if degree < 1:
        raise ValueError(f"backward shift needs degree >= 1, got {degree}")
    matrix = np.zeros((degree + 1, degree + 1), dtype=complex)
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
    coeffs[new_degree::m] = f.coeffs[f.degree :]
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
