"""Finite-dimensional operators: convolutions, Riesz restriction, backward shift.

Grid-basis operators act on point samples.  A convolution is a circulant,
diagonal in the Fourier basis: it is held by its first column and its
multipliers (the DFT of that column; a Fejer kernel's come exactly from its
closed form), and its dense N x N matrix is built only when `.matrix` is
read.  Other grid operators are held by their dense matrix, stored complex.
`apply` and `apply_adjoint` are the one way an operator is applied, to a
vector or to each row of an (S, N) array.

A circulant is applied in one of two ways, chosen once from its multipliers
(`_band_form`).  When all but r <= log2 N of them equal one value c, as for
I - K_n (r = 2n + 1, c = 1), the band apply takes
A x = c x + sum_{k in S} (m_k - c) xhat_k e_k through two products with
N x r tables of e^{-2 pi i k j / N}; otherwise an FFT pair applies it.  On
32-row batches with one BLAS thread (2-CPU shared host), the band apply
measured slower than the FFT pair from r = 13, 19, 15 and 15 at N = 256,
1024, 2048 and 8192, and from r = 9 to 17 between runs at N = 512; log2 N
is 8 to 13 there.  Both paths are row-exact: each row of an (S, N) batch
equals, bit for bit, the apply of that row alone.

Analytic-basis operators are (d+1) x (d+1) matrices acting on coefficients
(c_0, ..., c_d) of analytic polynomials; norms on this basis are always
evaluated through synthesis, so the subspace carries the induced norm.
"""

from __future__ import annotations

import numpy as np

from .errors import DegreeExceedsGridError, NotInvariantError
from .grid import CircleGrid, FourierCoeffs, SampledFunction, analyze
from .kernels import KernelSpec, fejer_multipliers


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
        self._band = None  # a circulant's `_band_form`, on first use
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
        """A x for a vector x, or for each row x of an (S, N) array.

        A circulant takes the band apply when all but r <= log2 N of its
        multipliers are equal, and an FFT pair otherwise; a dense operator
        one matrix product.  Each row of a batch equals that row's own apply
        bit for bit on both circulant paths."""
        if not self.circulant:
            return x @ self._matrix.T
        band = self._band_tables()
        if band:
            c, d, ec, e = band
            return _band_apply(x, c, d, ec, e)
        return _fft_apply(x, self.multipliers)

    def apply_adjoint(self, x: np.ndarray) -> np.ndarray:
        """A^H x for a vector x, or for each row x of an (S, N) array, on
        the path `apply` takes: A^H has the conjugate multipliers."""
        if self.circulant and self._band_tables():
            c, d, ec, e = self._band
            return _band_apply(x, np.conj(c), np.conj(d), ec, e)
        if self._adjoint is None:
            self._adjoint = np.conj(self.multipliers if self.circulant else self._matrix)
        if self.circulant:
            return _fft_apply(x, self._adjoint)
        return x @ self._adjoint  # x @ conj(M) is the row form of A^H x

    def _band_tables(self) -> tuple:
        """A circulant's `_band_form`, built on first use."""
        if self._band is None:
            self._band = _band_form(self.multipliers)
        return self._band


def _band_form(m: np.ndarray) -> tuple:
    """(c, d, Ec, E) when all multipliers but those at a set S of
    r <= log2 N frequencies equal one value c, else ().

    d holds (m_k - c) / N for k in S.  Ec is the N x r table of
    e^{-2 pi i k j / N}, so x @ Ec is the DFT of x at S, and E = Ec^H.  Each
    phase is the integer (k j) mod N before it is scaled, so a large k j
    adds no roundoff.
    """
    n = m.size
    values, counts = np.unique(m, return_counts=True)
    c = values[np.argmax(counts)]
    ks = np.flatnonzero(m != c)
    if ks.size > np.log2(n):
        return ()
    ec = np.exp(-2j * np.pi / n * (np.outer(np.arange(n), ks) % n))
    return c, (m[ks] - c) / n, ec, np.ascontiguousarray(ec.conj().T)


def _band_apply(x, c, d, ec, e):
    """c x + ((x @ Ec) d) @ E, row by row.

    Both products are stacked, (..., 1, N) @ (N, r) and (..., 1, r) @ (r, N),
    so numpy issues one identical product per row and a batch row equals
    the single-vector apply bit for bit; a plain x @ Ec would not."""
    coef = x[..., None, :] @ ec
    coef *= d
    y = (coef @ e)[..., 0, :]
    if c == 1.0:  # I - K_n: no temporary for c x
        y += x
    elif c != 0.0:
        y += c * x
    return y


def _fft_apply(x, m):
    """The inverse FFT of m times the FFT of x, along the last axis, in the
    FFT's own output array."""
    f = np.fft.fft(x, axis=-1)
    f *= m
    return np.fft.ifft(f, axis=-1, out=f)


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

    Held by its first column K/N and its eigenvalues (discrete multipliers);
    no N x N array is formed.  A Fejer kernel's multipliers are its closed
    form `fejer_multipliers(n, n)` added into bin k mod N, so they are exact
    (also when 2n + 1 > N folds frequencies together), and those of I - K_n
    are exactly 1 off |k| <= n.  Other kernels take the DFT of the column.
    """
    samples = kernel.sample(grid).values
    if not np.all(np.isfinite(samples)):
        raise ValueError("kernel samples must be finite")
    n = grid.n_points
    col = samples / n
    if kernel.kind == "fejer":
        multipliers = np.zeros(n, dtype=complex)
        order = kernel.order
        np.add.at(multipliers, np.arange(-order, order + 1) % n, fejer_multipliers(order, order))
    else:
        multipliers = np.fft.fft(col)
    return OperatorRep(basis="grid", grid=grid, domain=domain, column=col, multipliers=multipliers)


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
