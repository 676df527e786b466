"""Operator norm estimation: exact endpoint formulas, dual-vector power
iteration for matrix p-norms, analytic-subspace ascent, and a brute-force
oracle for matrices of dimension <= 3, which scans the faces of the l^inf
sphere in Cartesian coordinates and shares no code with the ascents.

Every norm is ||T A c||_p / ||T c||_p for the sample map T = diag(w) S that
`_SampleMap` builds: S is the identity on a grid basis and synthesis onto
the grid on an analytic one; w is the domain's weight, or 1.
`certified_ratio` replays each witness through T, so no iterative value can
exceed the true norm.  `_ascend` runs every ascent; a smooth one is the
dual-vector iteration.  On a grid basis its iterate is the samples T c;
grid starts enter it as samples, not through T: built from the unweighted
A (column scores, top singular vector), they guess the extremal samples.
On an analytic basis its iterate is the coefficient vector c itself, and a
step takes five FFTs: S A c, S A^H S^H of the first dual, the analysis of
the second dual back to coefficients, and the synthesis of the new
iterate for its norm; below p = 1.1 a sixth re-reads the iterate from
those samples (`_REREAD_BELOW`).  Each solver runs on `_in_range(op, p)`,
a copy divided by a power of two when the operator's entries would take
the iteration's powers outside the normal floats.  At the endpoints
p in {1, inf} of an analytic basis the iteration runs at a smooth
companion exponent and each witness is certified at p; one exchange
ascent on the dense synthesis matrix polishes the p = inf winner.
Operators are applied only through `OperatorRep.apply` and
`apply_adjoint`, which take a circulant such as I - K_n, whose multipliers
differ from one value at only r = 2n + 1 <= log2 N frequencies, through a
band product with N x r tables, and any other circulant through an FFT
pair.  The grid power method reads no dense matrix of a circulant: its
column scores are summed row by row, so it needs O(N) memory.  Each
duality map (`_dual_map`) takes one modulus, one power and one
reciprocal, and gives the norms from the same sums; a grid step writes
both into buffers kept for the whole ascent.

The brute-force oracle ranks the values of a dense scan in a running top-k
(`_streamed_top`), which sends the scan the k-th largest value so far, the
cut.  The dim-3 scan (`_oracle_scan`) then skips every set of points whose
proven bound times 1 + 1e-9 lies strictly below the cut: for lead points
z1 within r1 of zeta1 and inner points z2 within r2 of zeta2 on face k,
|(A x)_i| <= |a_ik + a_if0 zeta1 + a_if1 zeta2| + |a_if0| r1 + |a_if1| r2
by the triangle inequality, and ||x||_p^p >= 1 + min |z1|^p + min |z2|^p.
A skipped point yields -inf, below the cut, which drops it anyway; every
other value is computed by the same elementwise arithmetic, so ranking,
seeds and the oracle's value are bit for bit those of the full scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import OracleTooLargeError, UnsupportedExactError
from .operators import (
    OperatorRep,
    analytic_analysis,
    analytic_synthesis,
    synthesis_matrix,
)
from .spaces import _TINY, INF, WeightedLp, _row_lp, holder_conjugate

DEFAULT_SEED = 0x4841524459  # ascii bytes of "HARDY"; reproducible tables

_MAX_ITER = 10_000
# coarse-scan rows per chunk; at dim 3, 1/4x of it ran as fast and 4x ran
# 30-70 % slower, at tracemalloc peaks of 1.1, 3.6 and 12 MiB for 1/4x, 1x, 4x
_ORACLE_CHUNK_ROWS = 1 << 16
# disc points per block of the dim-3 scan's tiles (`_TilePruner`); the four
# default dim-3 scans of the oracle-tables matrices (p = 1.3, 4) took about
# 80 ms of CPU time at 3 and at 4, 4-13 % more at 5 and 6, and 17 and 32 %
# more at 2 and 8 (best of 24 runs, one BLAS thread, x86-64 with AVX-512)
_ORACLE_TILE = 4


@dataclass
class NormEstimate:
    """A norm value together with the witness vector that certifies it."""

    value: float
    witness: np.ndarray = field(repr=False)
    method: str
    n_starts: int = 1
    n_iters: int = 0
    converged: bool = True

    @property
    def is_certified_lower_bound(self) -> bool:
        """False for an exact formula's value, which needs no certificate."""
        return not self.method.startswith("exact")


# ---------------------------------------------------------------------------
# duality maps; vector norms are spaces._row_lp (uniform weights cancel in ratios)
# ---------------------------------------------------------------------------


def _dual_map(
    y: np.ndarray, p: float, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The complex duality map sign(y)|y|^{p-1}, elementwise with 0 -> 0,
    and the sums of |y|^p along the last axis, from one modulus a = |y| and
    one power m = a^{p-1}.

    The dual is (y * (1/a)) * m, which equals y / a * m bit for bit; the
    sums are those of a m.  The reciprocal is taken in place of a.  An
    entry below the smallest normal modulus, whose reciprocal overflows, is
    0 if it is 0 and otherwise takes its sign after an exact power-of-two
    scaling, so each entry's dual depends on that entry alone.  The dual is
    written into `out` when it is given (an array other than y), else into
    a new array; y is left as it is.
    """
    a = np.abs(y)
    m = a ** (p - 1.0)
    sums = np.sum(a * m, axis=-1)
    small = a < _TINY
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = np.multiply(y, np.reciprocal(a, out=a), out=out)
        out *= m
    if small.any():
        scaled = y[small] * 2.0**600
        r = np.abs(scaled)
        out[small] = np.divide(scaled, r, out=np.zeros_like(scaled), where=r > 0.0) * m[small]
    return out, sums


class _SampleMap:
    """T = diag(w) S.  S is the identity on a grid basis, and on an analytic
    one the zero-padded inverse FFT onto the grid, or the identity at p = 2
    when unweighted (Parseval).  w is the domain's weight, or None for 1.
    T+ = S+ diag(1/w) is a left inverse; `adjoint` is T^H / N and
    `inverse_adjoint` N (T+)^H, whose factors cancel in (T+)^H A^H T^H.
    """

    def __init__(self, op: OperatorRep, p: float | None = None):
        self.w = op.domain.weight.values.real if isinstance(op.domain, WeightedLp) else None
        self.synthesises = op.basis == "analytic" and not (p == 2.0 and self.w is None)
        self.n, self.degree = op.grid.n_points, op.degree

    def synthesise(self, c):  # S c
        return analytic_synthesis(c, self.n) if self.synthesises else c

    def __call__(self, c):  # T c
        x = self.synthesise(c)
        return x if self.w is None else self.w * x

    def inverse_adjoint(self, c):  # N (T+)^H c
        x = self.synthesise(c)
        return x if self.w is None else x / self.w

    def inverse(self, x):  # T+ x
        x = x if self.w is None else x / self.w
        return analytic_analysis(x, self.degree) if self.synthesises else x

    def adjoint(self, y):  # T^H y / N
        y = y if self.w is None else y * self.w
        return analytic_analysis(y, self.degree) if self.synthesises else y


def certified_ratio(op: OperatorRep, witness: np.ndarray, p: float) -> float:
    """||T A c||_p / ||T c||_p at c = witness: the norm ratio in the
    operator's own domain, always a lower bound."""
    t = _SampleMap(op)
    d = _row_lp(t(witness), p)
    if d == 0.0:
        raise ValueError("certificate witness must be nonzero")
    return float(_row_lp(t(op.apply(witness)), p) / d)


def lower_bound_certificate(op: OperatorRep, f: np.ndarray, p: float) -> NormEstimate:
    """Replay a witness: returns ||A f||_p / ||f||_p, a valid lower bound."""
    f = np.asarray(f, dtype=complex)
    return NormEstimate(value=certified_ratio(op, f, p), witness=f, method="certificate")


# ---------------------------------------------------------------------------
# exact formulas: p in {1, inf} (grid, unweighted), and p = 2
# ---------------------------------------------------------------------------


def exact_norm_endpoint(op: OperatorRep, p: float) -> NormEstimate:
    """Exact L^1 / L^inf operator norm on an unweighted grid basis.

    With quadrature weight 1/N on both sides the weights cancel:
        ||A||_{L^1}   = max_l sum_j |A[j][l]|   (max column sum),
        ||A||_{L^inf} = max_j sum_l |A[j][l]|   (max row sum).
    Every column and every row of a circulant's |A| sums to the l^1 norm of
    its first column, so column 0 and row 0 serve and no matrix is formed.
    """
    t = _SampleMap(op)
    if t.w is not None or t.synthesises:
        raise UnsupportedExactError("exact endpoint norms need an unweighted grid-basis operator")
    n = op.dim
    if p == 1.0:
        idx = 0 if op.circulant else int(np.argmax(np.abs(op.matrix).sum(axis=0)))
        witness = np.zeros(n, dtype=complex)
        witness[idx] = 1.0
        method = "exact_p1"
    elif p == INF:
        if op.circulant:
            row = op.column[-np.arange(n) % n]  # A[0][l] = column[-l mod N]
        else:
            row = op.matrix[int(np.argmax(np.abs(op.matrix).sum(axis=1)))]
        witness = np.ones(n, dtype=complex)
        nz = np.abs(row) > 0.0
        witness[nz] = np.conj(row[nz]) / np.abs(row[nz])
        method = "exact_pinf"
    else:
        raise UnsupportedExactError(f"exact endpoint formula needs p in {{1, inf}}, got {p}")
    value = certified_ratio(op, witness, p)
    return NormEstimate(value=value, witness=witness, method=method)


def exact_norm_p2(op: OperatorRep, seed: int = DEFAULT_SEED) -> NormEstimate:
    """Largest singular value, exact for the L^2 operator norm.

    Circulant operators are diagonal in the Fourier basis, so their 2-norm
    is max |eigenvalue| with a pure exponential as the exact witness.
    Otherwise: the dual-vector iteration at p = 2, which is power iteration
    on the normal operator A^H A, run as one batch from the all-ones start
    and 4 random starts.  A clustered spectral top keeps some start from
    meeting the increment test (1e-12 relative) within the iteration cap
    `_MAX_ITER`; a dense SVD then finishes the job exactly.  Otherwise the
    first start within 1e-12 of the largest value gives the witness.  A
    weighted analytic operator raises ValueError (see `_ascend`).
    """
    t = _SampleMap(op, 2.0)
    if op.circulant and t.w is None:
        idx = int(np.argmax(np.abs(op.multipliers)))
        witness = np.exp(2j * np.pi * idx * np.arange(op.dim) / op.dim)
        return NormEstimate(certified_ratio(op, witness, 2.0), witness, "exact_p2")
    n = op.dim
    starts = [np.ones(n, dtype=complex)]
    for i in range(4):
        rng = np.random.default_rng([seed, 2, i])
        starts.append(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    vals, xs, iters, ok = _ascend(_in_range(op, 2.0), starts, 2.0, 1e-12, _MAX_ITER)
    if ok.all():
        vec = xs[_first_best(vals)]
    else:  # the SVD of the dense T A T+, S being the identity here
        vec = t.inverse(np.linalg.svd(t.inverse(t(op.matrix.T).T))[2][0].conj())
    return NormEstimate(
        value=certified_ratio(op, vec, 2.0),
        witness=vec,
        method="exact_p2",
        n_starts=len(starts),
        n_iters=int(iters.sum()),
    )


# ---------------------------------------------------------------------------
# dual-vector power iteration, and the one ascent entry for every basis
# ---------------------------------------------------------------------------


def _pow2_exponent(amax: float, r: float) -> int:
    """0 when powers up to r of values between amax and 4 amax stay inside
    [2^-960, 2^1000]; otherwise the exponent e of amax = m 2^e, m in
    [1/2, 1), so that dividing by 2^e brings amax into [1/2, 1)."""
    e = int(np.frexp(amax)[1])
    return 0 if -960.0 / r < e - 1 and e + 2 < 1000.0 / r else e


def _companion(p: float) -> float:
    """The exponent the dual-vector iteration runs at: p itself, or the
    smooth companion 64 at p = inf and 1.02 at p = 1."""
    return 64.0 if p == INF else 1.02 if p == 1.0 else p


def _in_range(op: OperatorRep, p: float) -> OperatorRep:
    """op, or op / 2^e when `_pow2_exponent` of its largest entry is e != 0
    at r = q + q', q the `_companion` of p: a step of the iteration at q
    raises the entries to at most |A|^{q q'} = |A|^{q + q'}, and the start
    builders' powers (|A|^2 in the column scores, |A|^4 at q = 2) are no
    higher.  The scaling is exact, so the copy's iterates are op's, and its
    norms are 2^-e times op's at the same witnesses."""
    q = _companion(p)
    amax = np.max(np.abs(op.column if op.circulant else op.matrix))
    e = _pow2_exponent(float(amax), q + holder_conjugate(q))
    if e == 0:
        return op

    def scale(v):
        v = np.asarray(v, dtype=complex)
        return np.ldexp(v.real, -e) + 1j * np.ldexp(v.imag, -e)

    parts = (
        dict(column=scale(op.column), multipliers=scale(op.multipliers))
        if op.circulant
        else dict(matrix=scale(op.matrix))
    )
    return OperatorRep(basis=op.basis, grid=op.grid, degree=op.degree, domain=op.domain, **parts)


# Below this exponent the coefficient iterate is re-read from its samples
# each step, which is the arithmetic of projecting the update by S S+ in
# sample space.  There the first duality map raises a sample at roundoff
# level, 2^-52 of its row's largest, to more than 3 % of the largest dual
# (2^(-52 (p - 1)) > 2^-5.2), so the roundoff of the transforms decides
# which way a start that is symmetric in exact arithmetic turns: a
# lacunary start c(z^2) keeps its odd coefficients 0 only up to roundoff
# and climbs to a saddle.  Re-reading repeats those transforms, so values
# at p = 1 (companion q = 1.02) equal the projected iteration's.
_REREAD_BELOW = 1.1


def _dual_ascent(apply_rows, adjoint_rows, x0, p, tol, max_iter, synthesis=None):
    """Dual-vector iteration for 1 < p < inf, run from every start (row of
    x0) at once.  At p = 2 it is power iteration on A^H A.

    Without `synthesis` the iterate x is a vector of samples.  A step
    y = A x, z = A^H dual_p(y), x' = dual_p'(z) / ||.||_p calls `_dual_map`
    twice; ||y||_p comes from the first call's sums and ||x'||_p from the
    second's, since sum |dual_p'(z)|^p = sum |z|^p'.

    With `synthesis` = (S, S+), the iterate is a coefficient vector c whose
    samples are S c, `apply_rows` gives the samples S A c and
    `adjoint_rows` maps samples to samples.  The step analyses the dual
    update, c' = S+ dual_p'(z), synthesises S c' for ||S c'||_p and
    divides c' by it: five transforms, where projecting each update by
    S S+ in sample space took six.  Below p = `_REREAD_BELOW` the next
    iterate is instead S+ (S c' / ||S c'||_p), the projected iteration's
    arithmetic.

    Each row keeps its own stop rule and best iterate, and leaves the batch
    when it stops.  Returns per-row arrays: best value, best iterate,
    iterations and convergence; a zero start gives value 0 at itself.

    On a grid basis both duality maps are written into buffers kept for the
    whole run and the update is scaled in place, so a step allocates only
    the applies' outputs and the duality maps' real temporaries.  An
    analytic step allocates its duals: buffers there measured more page
    faults per round of the hp-sweep benchmark (about 50k against 31k).
    """
    pprime = holder_conjugate(p)
    synthesise, analyse = synthesis or (lambda x: x, None)
    reread = analyse is not None and p < _REREAD_BELOW
    x0 = np.asarray(x0, dtype=complex)
    best_val = np.full(x0.shape[0], -1.0)
    best_x = x0.copy()
    iters = np.zeros(x0.shape[0], dtype=int)
    converged = np.ones(x0.shape[0], dtype=bool)

    s0 = synthesise(x0)
    with np.errstate(over="ignore"):
        nx = _row_lp(s0, p)
    # a finite nonzero row whose norm underflows or overflows is scaled by
    # the power of two that brings its largest modulus into [1/2, 1)
    amax = np.max(np.abs(x0), axis=1)
    odd = ((nx < _TINY) | (nx == INF)) & (amax > 0.0) & (amax < INF)
    if odd.any():
        x0, s0 = x0.copy(), s0.copy()
        x0[odd] = np.ldexp(x0[odd].view(float), -np.frexp(amax[odd])[1][:, None]).view(complex)
        s0[odd] = synthesise(x0[odd])
        nx[odd] = _row_lp(s0[odd], p)
    best_val[nx == 0.0] = 0.0
    rows = np.flatnonzero(nx != 0.0)  # original row of each live row
    x = analyse(s0[rows] / nx[rows, None]) if reread else x0[rows] / nx[rows, None]
    prev = np.full(rows.size, -1.0)
    duals = None if analyse else np.empty((2, rows.size, x.shape[-1]), dtype=complex)
    for it in range(max_iter):
        if rows.size == 0:
            break
        out = None if duals is None else duals[0, : rows.size]
        dy, val = _dual_map(apply_rows(x), p, out=out)
        val **= 1.0 / p
        up = val > best_val[rows]
        best_val[rows[up]] = val[up]
        best_x[rows[up]] = x[up]
        stop = (val == 0.0) | ((prev >= 0.0) & (val - prev <= tol * val))
        if stop.any():
            iters[rows[stop]] = it + 1
            keep = ~stop
            rows, dy, val = rows[keep], dy[keep], val[keep]
        prev = val
        out = None if duals is None else duals[1, : rows.size]
        xn, nn = _dual_map(adjoint_rows(dy), pprime, out=out)
        if analyse is None:
            sn = xn
            nn **= 1.0 / p
        else:
            xn = analyse(xn)
            sn = synthesise(xn)
            nn = _row_lp(sn, p)
        if np.any(nn == 0.0):
            iters[rows[nn == 0.0]] = it + 1
            keep = nn != 0.0
            rows, prev, xn, sn, nn = rows[keep], prev[keep], xn[keep], sn[keep], nn[keep]
        if analyse is None:  # scaled in its buffer
            xn *= (1.0 / nn)[:, None]
            x = xn
        else:
            x = analyse(sn * (1.0 / nn)[:, None]) if reread else xn * (1.0 / nn)[:, None]
    iters[rows] = max_iter
    converged[rows] = False
    return best_val, best_x, iters, converged


def _ascend(op: OperatorRep, starts, p: float, tol: float, max_iter: int):
    """Ascend ||A x||_p / ||x||_p from every start (row of `starts`, in the
    operator's own basis) at once; 1 < p < inf on a grid basis and
    1 <= p <= inf on an analytic one.  The solvers pass `_in_range(op, p)`,
    so that the iteration's powers stay in the floats.

    With T the `_SampleMap` at p, the dual-vector iteration applies
    T A T+ and (T+)^H A^H T^H.  When S is the identity its iterate is the
    samples T x: it starts from x and returns the witnesses T+ y.  When S
    synthesises, its iterate is the coefficient vector c itself, which
    `_dual_ascent` synthesises only for norms: a step takes S A c,
    dualises, applies S A^H S^H, dualises, analyses c' = S+ of the update
    and synthesises S c' for its norm, and the best iterates are the
    witnesses.

    At p in {1, inf} the iteration runs at the `_companion` exponent
    (q = 1.02 or 64) and each row is certified at p; at p = inf the
    exchange ascent then polishes the winning row once and replaces it only
    if it certifies strictly higher.  A weighted analytic operator raises
    ValueError: none of these ascents optimises its norm.

    Returns per-start arrays: best value, witness, iterations and
    convergence; a zero start gives value 0 at itself.
    """
    x0 = np.asarray(starts, dtype=complex)
    t = _SampleMap(op, p)
    if t.synthesises and t.w is not None:
        raise ValueError("no ascent optimises the norm of a weighted analytic operator")
    if t.synthesises and (p == 1.0 or p == INF):
        _, xs, iters, ok = _ascend(op, x0, _companion(p), tol, max_iter)
        vals = np.array([certified_ratio(op, c, p) if np.any(c) else 0.0 for c in xs])
        win = int(np.argmax(vals))
        if p == INF and vals[win] > 0.0:
            c = _subspace_exchange_ascent(op, synthesis_matrix(op.grid, op.degree), xs[win])
            val = certified_ratio(op, c, p)
            if val > vals[win]:
                vals[win], xs[win] = val, c
        return vals, xs, iters, ok
    if t.synthesises:  # the iterate is c, with samples S c
        apply_rows, synthesis = (lambda c: t(op.apply(c))), (t.synthesise, t.inverse)
    else:  # the iterate is the samples T x
        apply_rows, synthesis = (lambda y: t(op.apply(t.inverse(y)))), None
    vals, xs, iters, ok = _dual_ascent(
        apply_rows,
        lambda y: t.inverse_adjoint(op.apply_adjoint(t.adjoint(y))),
        x0,
        p,
        tol,
        max_iter,
        synthesis,
    )
    return vals, xs if t.synthesises else t.inverse(xs), iters, ok


def _first_best(vals: np.ndarray) -> int:
    """The first start whose value is within 1e-12 relative of the largest:
    starts that tie up to roundoff are told apart by their order, not by
    their last bits."""
    return int(np.argmax(vals >= vals.max() * (1.0 - 1e-12)))


def _best(op: OperatorRep, p: float, vals, xs, iters, ok) -> NormEstimate:
    """The estimate of the first start within 1e-12 of the largest value,
    replayed at its witness."""
    witness = xs[_first_best(vals)].copy()
    return NormEstimate(
        value=certified_ratio(op, witness, p),
        witness=witness,
        method="power",
        n_starts=len(vals),
        n_iters=int(iters.sum()),
        converged=bool(ok.all()),
    )


def _top_singular_vector(op: OperatorRep, seed_key: list[int]) -> np.ndarray:
    """A start near the top right singular vector: the best iterate of p = 2
    power iteration (on A^H A) from the all-ones vector and a random complex
    draw, taken from the row that reaches the larger value."""
    n = op.dim
    rng = np.random.default_rng(seed_key)
    x0 = np.array([np.ones(n), rng.standard_normal(n) + 1j * rng.standard_normal(n)])
    vals, xs, _, _ = _dual_ascent(op.apply, op.apply_adjoint, x0, 2.0, 1e-8, 2000)
    return xs[int(np.argmax(vals))]


def _two_level_starts(n: int) -> list[np.ndarray]:
    """Mean-zero two-level arc functions; natural test vectors for averaging
    kernels (their extremal vectors are two-level).  Widths sweep a 2^{1/4}
    geometric grid so the best arc measure is matched within ~9%."""
    starts = []
    seen = set()
    width = float(n // 2)
    while width >= 2.0:
        w = int(round(width))
        if w not in seen:
            seen.add(w)
            x = np.full(n, -w / (n - w), dtype=complex)
            x[:w] = 1.0
            starts.append(x)
        width /= 2.0 ** 0.25
    return starts


def _column_scores(op: OperatorRep) -> tuple[np.ndarray, np.ndarray]:
    """The column sums of |A| and of |A|^2, added up one row at a time.

    Row i of a circulant's |A| is row 0 rolled by i, taken from a doubled
    copy of row 0, so no N x N array is formed.  Rows are added in order,
    as np.sum(axis=0) adds them, so the sums equal those of the dense |A|
    bit for bit.
    """
    n = op.dim
    if op.circulant:
        r0 = np.abs(op.column[-np.arange(n) % n])  # A[0][l] = column[-l mod N]
        doubled = np.concatenate([r0, r0])
        rows = (doubled[n - i : 2 * n - i] for i in range(n))  # np.roll(r0, i)
    else:
        rows = (np.abs(row) for row in op.matrix)
    s1, s2 = np.zeros(n), np.zeros(n)
    for r in rows:
        s1 += r
        s2 += r**2
    return s1, s2


def _grid_starts(op: OperatorRep, n_random: int, seed: int) -> list[np.ndarray]:
    """The all-ones vector, a spike at the largest column sum of |A| and of
    |A|^2, the top-singular-vector start, the two-level arcs and `n_random`
    random vectors, in O(N) memory besides a dense operator's own matrix.

    `_column_scores` adds the rows in the dense sum's order: a circulant's
    column sums tie in exact arithmetic, so roundoff picks the spikes, and
    another order would pick other spikes.
    """
    n = op.dim
    starts = [np.ones(n, dtype=complex)]
    for col_score in _column_scores(op):
        spike = np.zeros(n, dtype=complex)
        spike[int(np.argmax(col_score))] = 1.0
        starts.append(spike)
    starts.append(_top_singular_vector(op, [seed, 3]))
    starts.extend(_two_level_starts(n))
    for i in range(n_random):
        rng = np.random.default_rng([seed, 4, i])
        starts.append(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return starts


def power_method_pnorm(
    op: OperatorRep, p: float, starts: int = 8, seed: int = DEFAULT_SEED
) -> NormEstimate:
    """Certified lower bound for ||A||_{L^p}, 1 < p < inf, by dual-vector
    power iteration with multiple deterministic and random starts.

    A weighted domain iterates on w A w^{-1}, the grid case of T A T+.
    Each start stops when its value rises by at most 1e-10 relative, or
    after `_MAX_ITER` iterations.  Non-convergence of an individual start
    is not an error; the best certified value is returned with
    converged=False.  A circulant's finiteness is checked on its column and
    multipliers, and its dense matrix is never formed.
    """
    if p == 1.0 or p == INF:
        raise ValueError("use exact_norm_endpoint for p in {1, inf}")
    if not 1.0 < p < INF:
        raise ValueError(f"power method needs 1 < p < inf, got {p}")
    entries = (op.column, op.multipliers) if op.circulant else (op.matrix,)
    if not all(np.all(np.isfinite(e)) for e in entries):
        raise ValueError("operator matrix contains non-finite entries")
    if op.basis != "grid":
        raise ValueError("power_method_pnorm expects a grid-basis operator")
    work = _in_range(op, p)
    return _best(op, p, *_ascend(work, _grid_starts(work, starts, seed), p, 1e-10, _MAX_ITER))


# ---------------------------------------------------------------------------
# analytic-subspace norms (induced norm through synthesis)
# ---------------------------------------------------------------------------


def _automorphism_starts(degree: int) -> list[np.ndarray]:
    """Truncated disk automorphisms (z-a)/(1-az) and their lacunary
    substitutions c(z^m): coefficient vectors.

    Extremal problems on analytic polynomials are often attained near
    unimodular boundary functions, and substituted copies probe the
    z -> z^m symmetry of the circle; together they give high-quality
    deterministic starts at every degree.
    """
    starts = []
    ks = np.arange(degree + 1)
    for a in (0.3, 0.5, 0.7, 0.8, 0.9, 0.95):
        c = np.zeros(degree + 1, dtype=complex)
        c[0] = -a
        c[1:] = (1.0 - a * a) * a ** (ks[1:] - 1.0)
        starts.append(c)
    lacunary = []
    for c in starts[2:]:  # a >= 0.7 carry most of the action
        for m in (2, 3, 5):
            if m <= degree:
                sub = np.zeros(degree + 1, dtype=complex)
                sub[::m] = c[: degree // m + 1]
                lacunary.append(sub)
    return starts + lacunary


def _coeff_starts(op: OperatorRep, n_random: int, seed: int) -> list[np.ndarray]:
    d = op.degree
    starts = [np.ones(d + 1, dtype=complex)]
    for k in (0, d // 2, d):
        spike = np.zeros(d + 1, dtype=complex)
        spike[k] = 1.0
        starts.append(spike)
    starts.append(_top_singular_vector(op, [seed, 5]))
    if d >= 1:
        starts.extend(_automorphism_starts(d))
    for i in range(n_random):
        rng = np.random.default_rng([seed, 6, i])
        starts.append(rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1))
    return starts


def _subspace_exchange_ascent(op, e_mat, c0):
    """Exchange ascent for the p = inf norm on an analytic basis: linearize
    at the current maximizing grid point, take the unimodular grid function
    that maximizes the linearization, project it onto the analytic span,
    repeat.  It stops after 300 steps, or after 30 in a row that raise the
    best ratio by no more than 1e-14 relative; returns the best iterate.

    `_ascend` runs it once per call, from the companion ascent's winner.
    Over 32 endpoint solves it added at most 2 ulps, so the companion ascent
    alone could stand; it and the dense synthesis matrix `e_mat` stay
    because the benchmark's self-test counts `synthesis_matrix` calls on
    hp-sweep, and both go with the next change to the benchmark.
    """
    w = 1.0 / e_mat.shape[0]
    e_adj = e_mat.conj().T

    def sup(c):  # the sup norm of the synthesis of c
        return _row_lp(e_mat @ c, INF)

    def ratio(c):
        den = sup(c)
        return 0.0 if den == 0.0 else sup(op.apply(c)) / den

    c = c0 / max(sup(c0), 1e-300)
    best_val, best_c = ratio(c0), c0
    since_improve = 0
    for _ in range(300):
        y = e_mat @ op.apply(c)
        j = int(np.argmax(np.abs(y)))
        sigma = y[j] / max(abs(y[j]), 1e-300)
        row = ((e_mat[j] @ op.matrix) @ e_adj) * w
        cand = np.where(np.abs(row) > 0.0, sigma * np.conj(row) / np.abs(row), sigma)
        c_new = w * (e_adj @ cand)
        val = ratio(c_new)
        if val > best_val * (1.0 + 1e-14):
            best_val, best_c = val, c_new
            since_improve = 0
        else:
            since_improve += 1
            if since_improve > 30:
                break
        c = c_new / max(sup(c_new), 1e-300)
    return best_c


def subspace_norm(
    op: OperatorRep, p: float, starts: int = 8, seed: int = DEFAULT_SEED
) -> NormEstimate:
    """Certified lower bound of the induced norm of an analytic-basis
    operator: max ||synth(A c)||_{L^p} / ||synth(c)||_{L^p} over c != 0.

    The degree-d value lower-bounds the degree-(d+1) value (nested
    subspaces), which in turn lower-bounds the full analytic-subspace norm.
    Each start stops as in `power_method_pnorm` (1e-10 relative, or
    `_MAX_ITER` iterations).  A weighted domain raises ValueError (see
    `_ascend`).
    """
    if op.basis != "analytic":
        raise ValueError("subspace_norm expects an analytic-basis operator")
    if not (p == INF or p >= 1.0):
        raise ValueError(f"p must lie in [1, inf], got {p}")
    if p == 2.0:
        return exact_norm_p2(op, seed=seed)
    work = _in_range(op, p)
    return _best(op, p, *_ascend(work, _coeff_starts(work, starts, seed), p, 1e-10, _MAX_ITER))


def operator_norm(
    op: OperatorRep, p: float, starts: int = 8, seed: int = DEFAULT_SEED
) -> NormEstimate:
    """The norm of an operator on its own domain, by the solver that fits:
    exact at p = 2, the subspace ascent on an analytic basis, the exact
    column or row sums at p in {1, inf}, and the dual-vector power method
    otherwise.
    """
    if p == 2.0:
        return exact_norm_p2(op, seed=seed)
    if op.basis == "analytic":
        return subspace_norm(op, p, starts=starts, seed=seed)
    if p == 1.0 or p == INF:
        return exact_norm_endpoint(op, p)
    return power_method_pnorm(op, p, starts=starts, seed=seed)


# ---------------------------------------------------------------------------
# brute-force oracle (dimension <= 3)
# ---------------------------------------------------------------------------


class _DiscBlocks:
    """The disc cut into the blocks of the dim-3 scan's bound: runs of at
    most `size` consecutive points that share a real part (on the Cartesian
    disc, pieces of one grid row), also cut at every multiple of `period`
    when it is given.  Block b holds the `count[b]` points from `start[b]`;
    `centre` is the centre of its bounding box, `radius` the largest
    |z - centre| over its points and `least` the smallest of `powers`
    (|disc|^p, or None) over them.  Row b of `take` lists the disc indices
    of the window of `width` points from `window[b]`, which holds the block
    and may reach into the next."""

    def __init__(self, disc: np.ndarray, powers, size: int, period: int | None = None):
        n = disc.size
        pos = np.arange(n)
        run = np.ones(n, dtype=bool)
        run[1:] = disc.real[1:] != disc.real[:-1]
        if period:
            run |= pos % period == 0
        run_start = np.maximum.accumulate(np.where(run, pos, 0))
        self.start = np.flatnonzero((pos - run_start) % size == 0)
        self.count = np.diff(np.append(self.start, n))

        def mid(x):
            return 0.5 * (np.minimum.reduceat(x, self.start) + np.maximum.reduceat(x, self.start))

        self.centre = mid(disc.real) + 1j * mid(disc.imag)
        self.radius = np.maximum.reduceat(np.abs(disc - np.repeat(self.centre, self.count)), self.start)
        self.least = None if powers is None else np.minimum.reduceat(powers, self.start)
        self.width = min(size, n)
        self.window = np.minimum(self.start, n - self.width)
        self.take = self.window[:, None] + np.arange(self.width)


def _prefixes(buffers, shape):
    """A view of the given shape on the start of each buffer."""
    size = shape[0] * shape[1]
    return [buf.reshape(-1)[:size].reshape(shape) for buf in buffers]


def _row_powers(terms, p: float, acc: np.ndarray, tmp: np.ndarray, reach=None) -> None:
    """Into `acc`: the sum over i of |t_i|^p, or the max of |t_i| at
    p = inf, over the complex arrays t_i that `terms` yields, with the
    arrays in reach[i] added to |t_i| first when `reach` is given.  Every
    |t_i| but the first is formed in `tmp`."""
    for i, t in enumerate(terms):
        s = np.abs(t, out=acc if i == 0 else tmp)
        for r in () if reach is None else reach[i]:
            s += r
        if p != INF:
            s **= p
        if i == 0:
            continue
        if p == INF:
            np.maximum(acc, s, out=acc)
        else:
            acc += s


class _TilePruner:
    """The dim-3 scan's pruning: which values of a chunk must be computed
    under a cut, and those values.  Lead points and inner points are cut
    into `_DiscBlocks` of `_ORACLE_TILE` points, the lead blocks also at
    every chunk start; a tile is a lead block times an inner block.
    `face` sets the tables of a face, `kept` pairs each lead point of the
    kept tiles of a chunk with the tile's inner block, and `fill` computes
    the values of those pairs' windows and scatters them into the chunk,
    -inf elsewhere.  Both work in prefixes of the scan's buffers and of the
    chunk."""

    def __init__(self, disc: np.ndarray, powers, per_chunk: int):
        self.disc, self.n, self.per_chunk = disc, disc.size, per_chunk
        self.leads = _DiscBlocks(disc, powers, _ORACLE_TILE, per_chunk)
        self.blocks = _DiscBlocks(disc, powers, _ORACLE_TILE)
        # the lead blocks of chunk c are first[c] up to first[c + 1]
        self.first = np.searchsorted(self.leads.start, np.arange(0, self.n + per_chunk, per_chunk))
        if powers is not None:
            self.window_powers = powers[self.blocks.take]

    def face(self, a: np.ndarray, k: int, f0: int, f1: int) -> None:
        """The tables of face k, with lead coordinate f0 and inner f1."""
        leads, blocks = self.leads, self.blocks
        self.windows = [(a[i, f1] * self.disc)[blocks.take] for i in range(3)]
        self.lead_centres = [a[i, k] + a[i, f0] * leads.centre for i in range(3)]
        self.inner_centres = [a[i, f1] * blocks.centre for i in range(3)]
        self.lead_reach = [np.abs(a[i, f0]) * leads.radius for i in range(3)]
        self.inner_reach = [np.abs(a[i, f1]) * blocks.radius for i in range(3)]

    def kept(self, lo: int, p: float, thr: float, buffers):
        """The pairs of the kept tiles of the chunk from lead row lo, the
        tiles whose quotient is not below `thr`, as arrays of lead rows
        (from 0) and inner blocks; or None when their windows would not
        fit the buffers."""
        leads, blocks = self.leads, self.blocks
        c = lo // self.per_chunk
        j = slice(self.first[c], self.first[c + 1])
        u, acc, tmp = _prefixes(buffers, (j.stop - j.start, blocks.start.size))
        terms = (np.add.outer(h[j], z, out=u) for h, z in zip(self.lead_centres, self.inner_centres))
        reach = [(r1[j, None], r2) for r1, r2 in zip(self.lead_reach, self.inner_reach)]
        _row_powers(terms, p, acc, tmp, reach)
        if p != INF:
            acc /= np.add.outer(1.0 + leads.least[j], blocks.least, out=tmp)
        tile, b = np.divmod(np.flatnonzero(~(acc < thr)), blocks.start.size)
        # every lead point of each kept tile, paired with the tile's inner block
        count = leads.count[j][tile]
        total = int(count.sum())
        if total * (blocks.width + 1) > buffers[2].size:
            return None
        rows = np.repeat(leads.start[j][tile] - lo - (np.cumsum(count) - count), count)
        rows += np.arange(total)
        return rows, np.repeat(b, count)

    def fill(self, out: np.ndarray, rows, b, heads, lead_den, p: float, sums, mods) -> None:
        """The values of each kept pair's window, by the full scan's
        elementwise arithmetic, scattered into the chunk `out`, whose other
        points are set to -inf."""
        blocks = self.blocks
        size = rows.size * blocks.width
        t, acc, tmp = _prefixes((sums, mods, out), (rows.size, blocks.width))
        column = sums.reshape(-1)[size : size + rows.size, None]  # a head per pair

        def gathered(i):
            np.take(self.windows[i], b, axis=0, out=t, mode="clip")
            np.take(heads[i], rows, out=column[:, 0], mode="clip")
            return np.add(column, t, out=t)

        _row_powers(map(gathered, range(3)), p, acc, tmp)
        if p != INF:
            np.take(self.window_powers, b, axis=0, out=tmp, mode="clip")
            den = mods.reshape(-1)[size : size + rows.size, None]
            np.take(lead_den, rows, out=den[:, 0], mode="clip")
            acc /= np.add(den, tmp, out=tmp)
            acc **= 1.0 / p
        out.fill(-INF)
        flat = out.reshape(-1)
        # row j of `target` is flat[j : j + width]
        target = np.lib.stride_tricks.as_strided(
            flat, (flat.size - blocks.width + 1, blocks.width), flat.strides * 2
        )
        rows *= self.n
        rows += blocks.window[b]
        target[rows] = acc


def _oracle_scan(a: np.ndarray, disc: np.ndarray, p: float):
    """The oracle's coarse scan: yields ||A x||_p / ||x||_p on the faces of
    the l^inf sphere, chunk by chunk in scan order.  On face k, x_k = 1 and
    the other coordinates run over every tuple of points of `disc` (complex,
    |z| <= 1), the last varying fastest; face 0 comes first.  Output row i of
    A x is a_ik + sum_j a_ij z_j, an outer sum of the tables a_ij * disc, and
    ||x||_p^p = 1 + sum_j |z_j|^p is an outer sum of the table |disc|^p;
    ||x||_inf = 1.  The |.|^p of the output rows are added over i (the max
    is taken at p = inf).  A chunk spans `_ORACLE_CHUNK_ROWS` rows, a run of
    points of the first free coordinate, and every value is computed
    elementwise, so its bits do not depend on the chunking.  One output
    row's outer sums, and their moduli and powers, are written into two
    buffers allocated once per scan (`out=` runs the same ufunc loops, so
    the bits are those of fresh arrays); each yielded chunk is a new array.
    No array of all the scan's points is built: a caller that streams the
    chunks (`_streamed_top`) needs memory O(chunk), whatever the
    resolution.

    The scan takes a cut by the send protocol, `cut = yield chunk`.
    Driven by `next` or a for loop it receives None and computes every
    value.  Sent a cut c (`_streamed_top` sends its running k-th largest
    value), a dim-3 chunk skips what provably lies strictly below c and
    yields -inf there; every other value is computed by the same
    elementwise arithmetic and has the same bits (`_TilePruner`).  On face
    k, with lead coordinate f0 and inner coordinate f1, a tile is a block
    of lead points z1 within r1 of a centre zeta1 with |z1|^p >= m1 times a
    block of inner points z2 within r2 of zeta2 with |z2|^p >= m2.  On it
    output row i obeys
        |a_ik + a_if0 z1 + a_if1 z2|
            <= U_i = |a_ik + a_if0 zeta1 + a_if1 zeta2| + |a_if0| r1 + |a_if1| r2
    and ||x||_p^p = 1 + |z1|^p + |z2|^p >= 1 + m1 + m2, so every value in
    the tile is at most B = (sum_i U_i^p / (1 + m1 + m2))^{1/p}, or
    max_i U_i at p = inf.  A tile is skipped only when B (1 + 1e-9) < c.
    The test compares the quotient under the root with (c / (1 + 2e-9))^p
    (c / (1 + 2e-9) at p = inf), whose rounding the doubled margin absorbs;
    the margin 1e-9 covers the roundoff of bound and values, a few ulps
    relative.  A value tied with c is never skipped, nor is a tile whose
    quotient is inf or NaN (the comparison is false).  Roundoff is not
    relative where quantities underflow, so a chunk prunes nothing unless
    that threshold lies in [2^-1000, inf), where an error of order 2^-1070
    is far below 1e-9 of it.  When the kept windows would not fit the
    buffers, the whole chunk is computed."""
    dim, n = a.shape[0], disc.size
    if p != INF:
        powers = np.abs(disc) ** p
    per_chunk = max(1, _ORACLE_CHUNK_ROWS // n ** (dim - 2))
    # sized for a whole chunk; a partial last chunk uses a prefix
    shape = (min(per_chunk, n),) + (n,) * (dim - 2)
    sums, mods = np.empty(shape, dtype=complex), np.empty(shape)
    pruner = None if dim == 2 else _TilePruner(disc, None if p == INF else powers, per_chunk)
    cut = None
    for k in range(dim):
        free = [j for j in range(dim) if j != k]
        if pruner is not None:
            inner = [a[i, free[1]] * disc for i in range(dim)]
            pruner.face(a, k, *free)
        for lo in range(0, n, per_chunk):
            lead = disc[lo : lo + per_chunk]
            # output row i's terms that depend on the lead point alone
            heads = (a[i, k] + a[i, free[0]] * lead for i in range(dim))
            out = np.empty((len(lead),) + shape[1:])
            kept = None
            if pruner is not None:
                heads = list(heads)
                lead_den = None if p == INF else 1.0 + powers[lo : lo + len(lead)]
                if cut is not None:
                    thr = cut / (1.0 + 2e-9)
                    if p != INF:
                        thr **= p
                    if 2.0**-1000 <= thr < INF:
                        kept = pruner.kept(lo, p, thr, (sums, mods, out))
            if kept is not None:
                pruner.fill(out, *kept, heads, lead_den, p, sums, mods)
            else:
                mod = mods[: len(lead)]
                terms = heads if dim == 2 else (
                    np.add.outer(h, t, out=sums[: len(lead)]) for h, t in zip(heads, inner)
                )
                _row_powers(terms, p, out, mod)
                if p != INF:
                    den = 1.0 + powers[lo : lo + len(lead)]
                    out /= den if dim == 2 else np.add.outer(den, powers, out=mod)
                    out **= 1.0 / p
            cut = yield out.ravel()


def _streamed_top(chunks, k: int):
    """Stream the scan's `chunks` into a running top-k: the indices of the k
    largest values and of every value tied with the k-th, ranked by value
    descending and then index ascending (a prefix of
    np.argsort(-vals, kind="stable") of the concatenated chunks), their
    values, and the scan's size.  A value below the k-th largest seen so far
    is never kept, so memory is O(chunk + k).

    `chunks` is any iterable; a generator is advanced by sending it that
    running cut (`_oracle_scan` skips what lies strictly below it), any
    other iterable by `next`.  The cut only rises, and every value kept is
    at or above the cut in force when its chunk was made, so a skipped
    value, strictly below that cut, could never have been kept: the result
    is that of the full scan."""
    idx, top = np.empty(0, dtype=np.intp), np.empty(0)
    cut, seen = -np.inf, 0
    chunks = iter(chunks)
    advance = getattr(chunks, "send", lambda _: next(chunks))
    chunk = next(chunks, None)
    while chunk is not None:
        new = np.flatnonzero(chunk >= cut)
        # the kept indices stay ascending: earlier chunks come first
        idx, top = np.concatenate([idx, seen + new]), np.concatenate([top, chunk[new]])
        seen += chunk.size
        if top.size > k:
            cut = np.partition(top, top.size - k)[top.size - k]
            keep = top >= cut
            idx, top = idx[keep], top[keep]
        try:
            chunk = advance(cut)
        except StopIteration:
            chunk = None
    order = np.argsort(-top, kind="stable")
    return idx[order], top[order], seen


def _oracle_seeds(scan, points, n_seeds: int, min_sep: float):
    """Walk down the ranking of the values that `scan()` yields, chunk by
    chunk, and take each index whose point (`points(indices)` gives their
    rows) lies at least `min_sep` away, in the max norm, from every index
    taken before, until `n_seeds` are taken; returns their indices and
    values.  The walk runs on the top 4096 and their ties, streamed from the
    scan in memory O(chunk + k) (`_streamed_top`); while it yields too few
    seeds, it rescans the matrix with k four times larger, up to the whole
    scan.  The points are held one contiguous row per coordinate, and the
    max-norm distance to a taken index is built one coordinate at a time
    with np.maximum, over the candidates after it only (a max is exact, so
    the seeds are those of a row-wise max)."""
    k = 4096
    while True:
        ranked, top, size = _streamed_top(scan(), k)
        cols = np.ascontiguousarray(points(ranked).T)  # one row per coordinate
        free = np.ones(len(ranked), dtype=bool)
        taken = []
        while len(taken) < n_seeds and free.any():
            j = int(np.argmax(free))  # the first candidate still far enough
            taken.append(j)
            # no candidate before j is free; the max-norm distance to j of
            # the others, one coordinate at a time
            sep = np.abs(cols[0, j:] - cols[0, j])
            for col in cols[1:]:
                np.maximum(sep, np.abs(col[j:] - col[j]), out=sep)
            free[j:] &= sep >= min_sep
        if len(taken) == n_seeds or len(ranked) == size:
            return ranked[taken], top[taken]
        k *= 4


def brute_force_oracle(matrix: np.ndarray, p: float, resolution: int | None = None) -> float:
    """Max of ||Ax||_p / ||x||_p by a dense scan and a compass search, dim <= 3.

    Every direction has a representative on the face of the l^inf sphere of
    its largest coordinate: x_k = 1, and each other coordinate a point
    z = u + iv of the closed unit disc, taken in Cartesian coordinates, so
    the parametrisation has no singular point.  `_oracle_scan` evaluates a
    grid of the disc with m points per axis on every face; `resolution`
    sets the scan to at least k^2 rows at dim 2 and k^3 (k + 1) / 2 at
    dim 3, k = round((2 resolution)^{1/(2 dim - 2)}).  Several coarse maxima,
    pairwise at least three grid steps apart within a face and never
    blocked by a seed of another face, seed a compass search on (u, v) of
    every free coordinate; the seeds are ranked by value and then by scan
    index (`_oracle_seeds`), so ties do not leave their choice to the sort.
    The scan is streamed into a running top-k that keeps every value tied
    with the k-th (`_streamed_top`), so the oracle's memory is O(chunk + k)
    whatever the `resolution`; when the top k give too few seeds, the walk
    rescans the matrix with k four times larger.  The top-k sends the scan
    its running cut, and a dim-3 scan skips every tile of points whose
    proven bound, times 1 + 1e-9, is strictly below it (`_oracle_scan`):
    the skipped values could never be ranked, so the seeds and the result
    are bit for bit those of the full scan.
    All seeds climb as one batch, each with its own step, unconstrained,
    except that at p = inf each z is mapped to z / max(1, |z|): there the
    norm max(1, |z|) has a ridge at |z| = 1 that stalls axis moves.  The
    oracle shares no code with the dual-vector ascent it checks.
    """
    if not (p == INF or p >= 1.0):
        raise ValueError(f"p must lie in [1, inf], got {p}")
    if resolution is not None and (
        isinstance(resolution, bool)
        or not isinstance(resolution, (int, np.integer))
        or resolution < 1
    ):
        raise ValueError(f"resolution must be None or a positive integer, got {resolution!r}")
    a = np.ascontiguousarray(matrix, dtype=complex)
    dim = a.shape[0]
    if a.shape != (dim, dim) or dim > 3:
        raise OracleTooLargeError(f"oracle supports dimension <= 3, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if dim == 1:
        return float(np.abs(a[0, 0]))
    # keep |Ax|^p inside the floats: if the scan's top, between max|a|^p and
    # 3 (3 max|a|)^p, might leave them, scale A by the power of two that brings
    # max|a| into [1/2, 1) (as `_in_range` does) and scale the result back;
    # only then, since near p = 1 the seeds hinge on roundoff
    expo = _pow2_exponent(float(np.max(np.abs(a))), p)
    a = np.ldexp(a.view(float), -expo).view(complex)
    if resolution is None:
        # comfortably above the 1e4 / 1e5 floors: dim-3 basins at p near 1
        # are narrow and need the denser coarse pass
        resolution = 20_000 if dim == 2 else 1_000_000

    n_free = (dim - 1) * 2  # (u, v) of each coordinate but the face's
    k = max(4, int(round((2.0 * resolution) ** (1.0 / n_free))))
    rows = k * k if dim == 2 else k**3 * (k + 1) // 2

    def disc_grid(m):
        u = np.linspace(-1.0, 1.0, m)
        z = (u[:, None] + 1j * u).ravel()
        return z[np.abs(z) <= 1.0]

    # the disc holds about pi (m - 1)^2 / 4 grid points; grow m from that
    # estimate until the scan has its rows
    m = max(3, int(2.0 * ((rows / dim) ** (1.0 / (dim - 1)) / np.pi) ** 0.5))
    disc = disc_grid(m)
    while dim * disc.size ** (dim - 1) < rows:
        m += 1
        disc = disc_grid(m)
    h = 2.0 / (m - 1)  # the grid step
    free = np.array([[j for j in range(dim) if j != f] for f in range(dim)])

    def row_norms(v):
        # l^p norm of each row.  The columns are combined one after another,
        # the order in which np.sum(axis=1) adds rows this short, without its
        # per-row loop overhead
        v = np.abs(v)
        if p == INF:
            return reduce(np.maximum, v.T)
        return reduce(np.add, (v**p).T) ** (1.0 / p)

    def ratios(face, prm):
        # ||Ax||_p / ||x||_p at x_face = 1 and z = u + iv elsewhere, the
        # rows of prm holding (u, v) of each z in turn
        z = prm.view(complex)
        if p == INF:
            z = z / np.maximum(1.0, np.abs(z))
        x = np.ones((len(face), dim), dtype=complex)
        x[np.arange(len(face))[:, None], free[face]] = z
        return row_norms(x @ a.T) / row_norms(x)

    def compass(face, prm, val):
        # pattern search from each row of prm, all rows in one batch; a row
        # leaves the batch once its step falls below 1e-13
        prm, val = prm.copy(), val.copy()
        step = np.full(len(val), h)
        live = np.arange(len(val))
        moves = np.vstack([np.eye(n_free), -np.eye(n_free)])
        for _ in range(70):
            if live.size == 0:
                break
            trials = prm[live, None, :] + step[live, None, None] * moves
            tvals = ratios(np.repeat(face[live], len(moves)), trials.reshape(-1, n_free))
            tvals = tvals.reshape(live.size, -1)
            i = np.argmax(tvals, axis=1)
            top = tvals[np.arange(live.size), i]
            up = top > val[live]
            val[live[up]] = top[up]
            prm[live[up]] = trials[up, i[up]]
            step[live[~up]] *= 0.5
            live = live[step[live] >= 1e-13]
        return val

    per_face = disc.size ** (dim - 1)
    min_sep = 3.0 * h

    def points(idx):  # the face, min_sep apart, and the (u, v) of scan rows idx
        z = disc[np.stack(np.unravel_index(idx % per_face, (disc.size,) * (dim - 1)), axis=-1)]
        return np.hstack([(idx // per_face)[:, None] * min_sep, z.view(float)])

    def scan():
        return _oracle_scan(a, disc, p)

    seeds, vals = _oracle_seeds(scan, points, 6 if dim == 2 else 16, min_sep)
    best = compass(seeds // per_face, points(seeds)[:, 1:], vals).max()
    return float(np.ldexp(best, expo))
