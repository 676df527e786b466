"""Command-line front end: reproducible tables and verification reports.

Output is CSV (with a '#'-prefixed JSON header line carrying the full run
configuration) or a single JSON object {config, rows, checks}.  Identical
configurations, including the seed, produce byte-identical files: rows are
sorted by their parameter tuple and floats are written with repr.

Exit codes: 0 success, 1 verification failure, internal inconsistency or
numerical failure (NoConvergenceError and other RuntimeErrors), 2 usage
error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .constants import franchetti_cp, gamma_pq, interpolation_upper, lambda_pq
from .errors import InternalInconsistencyError
from .grid import make_grid, synthesize
from .kernels import KernelSpec, kernel_l1_norm
from .operators import (
    analytic_restriction,
    backward_shift,
    convolution_operator,
    identity_minus,
    substitute_fm,
)
from .opnorm import DEFAULT_SEED, certified_ratio, operator_norm
from .outer import WeightSpec, conjugate_function, isometry_check, outer_function
from .problems import (
    backward_shift_estimate,
    fejer_difference_operator,
    fejer_hp_estimate,
    fejer_lp_estimate,
)
from .spaces import (
    INF,
    Lp,
    SampledFunction,
    hp_norm,
    lorentz_norm,
    lp_norm,
    luxemburg_norm,
    orlicz_amemiya_norm,
    phi_from_rho,
)
from .testfunctions import random_analytic_polynomial, random_nonneg_kernel, random_trig_polynomial


@dataclass
class RunConfig:
    command: str
    grid_size: int = 1024
    degree: int = 32
    p: str = ""
    q: str = ""
    kernel: str = ""
    space: str = "lp"
    starts: int = 8
    seed: int = DEFAULT_SEED
    out: str = ""
    format: str = "csv"
    suite: str = ""
    problem: str = ""


def _parse_p(text: str) -> float:
    if text in ("inf", "Inf", "INF", "oo"):
        return INF
    value = float(text)
    if not (math.isfinite(value) or value == INF):
        raise ValueError(f"exponent must be a number or inf, got {text!r}")
    return value


def _parse_list(text: str, cast=float) -> list:
    return [cast(tok) for tok in text.split(",") if tok]


def _parse_range(text: str) -> list[float]:
    """'lo:hi:step' inclusive sweep, or a comma list, or a single value."""
    if ":" in text:
        try:  # a field count other than three, or a field that is no number
            lo, hi, step = (float(t) for t in text.split(":"))
        except ValueError:
            raise ValueError(f"range {text!r} needs the form lo:hi:step") from None
        if not all(math.isfinite(v) for v in (lo, hi, step)) or step <= 0.0 or hi < lo:
            raise ValueError(f"range {text!r} needs finite lo <= hi and step > 0")
        n = int(round((hi - lo) / step))
        # rounding keeps float drift (1.4000000000000001) out of the tables
        return [round(lo + i * step, 12) for i in range(n + 1) if lo + i * step <= hi + 1e-12]
    return _parse_list(text, _parse_p)


def _parse_kernel(text: str) -> KernelSpec:
    kind, _, param = text.partition(":")
    if kind == "fejer":
        return KernelSpec.fejer(int(param))
    if kind == "poisson":
        return KernelSpec.poisson(float(param))
    raise ValueError(f"unknown kernel {text!r}; expected fejer:<n> or poisson:<r>")


def _check_kernel_fits(kernel: KernelSpec, n_grid: int) -> None:
    """Reject a kernel that an n_grid-point grid does not represent as the
    kernel the proven bounds assume: a Fejer band |k| <= n must not alias
    (2n + 1 <= N), and the N samples of P_r, whose mean is
    (1 + r^N) / (1 - r^N), must have unit mass to 1e-12."""
    if kernel.kind == "fejer" and 2 * kernel.order + 1 > n_grid:
        raise ValueError(
            f"Fejer order {kernel.order} needs a grid of at least {2 * kernel.order + 1} points, "
            f"got {n_grid}"
        )
    if kernel.kind == "poisson":
        t = kernel.radius**n_grid
        if 1.0 + t > (1.0 + 1e-12) * (1.0 - t):
            raise ValueError(
                f"Poisson radius {kernel.radius} has no unit mass on a grid of {n_grid} points; "
                f"it needs (1 + r^N) / (1 - r^N) <= 1 + 1e-12"
            )


def _sweep_orders(cfg: RunConfig) -> list:
    """The Fejer orders of a sweep's rows; problem2 has the one order None."""
    if cfg.problem == "problem2":
        return [None]
    return sorted(_parse_list(cfg.q, int) if cfg.q else [0, 1, 2])


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == INF:
            return "inf"
        return repr(value)
    return "" if value is None else str(value)


def _emit(cfg: RunConfig, rows: list[dict], checks: list[dict]) -> str:
    if cfg.format == "json":
        payload = {"config": asdict(cfg), "rows": rows, "checks": checks}
        return json.dumps(payload, sort_keys=True, default=_fmt, indent=1) + "\n"
    buf = io.StringIO()
    buf.write("# " + json.dumps(asdict(cfg), sort_keys=True) + "\n")
    body = rows if rows else checks
    if body:
        writer = csv.writer(buf, lineterminator="\n")
        header = list(body[0].keys())
        writer.writerow(header)
        for row in body:
            writer.writerow([_fmt(row.get(k)) for k in header])
    return buf.getvalue()


def _write(cfg: RunConfig, text: str) -> None:
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _witness_hash(witness: np.ndarray) -> str:
    data = np.round(np.asarray(witness, dtype=complex), 12).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def _estimate_identity_minus(kernel, space, p, n_grid, degree, starts, seed):
    """Estimate ||I - C_K|| on L^p (grid) or H^p (analytic restriction)."""
    g = make_grid(n_grid)
    if kernel.kind == "fejer":
        if space == "hp":
            return fejer_hp_estimate(kernel.order, p, degree, g, starts=starts, seed=seed)
        return fejer_lp_estimate(kernel.order, p, g, starts=starts, seed=seed)
    op = identity_minus(convolution_operator(kernel, g))
    if space == "hp":
        op = analytic_restriction(op, degree)
    return operator_norm(op, p, starts=starts, seed=seed)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_constants(cfg: RunConfig) -> tuple[list[dict], list[dict]]:
    ps = _parse_range(cfg.p) if cfg.p else [2.0]
    qs = _parse_range(cfg.q) if cfg.q else [None]
    for q in qs:
        if not (q is None or q >= 1.0):
            raise ValueError(f"q must lie in [1, inf], got {q!r}")
    rows = []
    for p in sorted(ps):
        c_p, upper = franchetti_cp(p).value, interpolation_upper(p)
        for q in sorted(qs, key=lambda v: (v is None, v)):
            row = {
                "p": p,
                "q": q,
                "franchetti_cp": c_p,
                "interpolation_upper": upper,
                "gamma_pq": None,
                "cpq": None,
                "lambda_pq": None,
                "min_2_lambda": None,
            }
            if q is not None and 1.0 < p and 1.0 < q and p < INF and q < INF:
                row["gamma_pq"] = gamma_pq(p, q).value
                if p < q:
                    lam = lambda_pq(p, q)
                    row["cpq"] = lam.details["cpq"]
                    row["lambda_pq"] = lam.value
                    row["min_2_lambda"] = lam.details["min_with_2"]
            rows.append(row)
    return rows, []


def cmd_opnorm(cfg: RunConfig) -> tuple[list[dict], list[dict]]:
    kernel = _parse_kernel(cfg.kernel)
    p = _parse_p(cfg.p) if cfg.p else 2.0
    est = _estimate_identity_minus(
        kernel, cfg.space, p, cfg.grid_size, cfg.degree, cfg.starts, cfg.seed
    )
    upper = interpolation_upper(p)
    if cfg.space == "hp":
        lower = 1.0  # (I - C_K) fixes a high frequency on the analytic span
    else:
        lower = franchetti_cp(p).value if p < INF else 2.0
    if not (est.value <= upper + 1e-6):
        raise InternalInconsistencyError(
            f"certified lower bound {est.value} exceeds the proven upper bound {upper}"
        )
    row = {
        "kernel": kernel.label(),
        "space": cfg.space,
        "p": p,
        "grid_size": cfg.grid_size,
        "degree": cfg.degree if cfg.space == "hp" else None,
        "estimate": est.value,
        "lower_analytic": lower,
        "upper_analytic": upper,
        "bracket_width": upper - est.value,
        "method": est.method,
        "witness_hash": _witness_hash(est.witness),
        "n_starts": est.n_starts,
        "n_iters": est.n_iters,
        "converged": est.converged,
    }
    return [row], []


def cmd_sweep(cfg: RunConfig) -> tuple[list[dict], list[dict]]:
    ps = _parse_range(cfg.p) if cfg.p else [1.5, 2.0, 3.0]
    degrees = [cfg.degree // 2, cfg.degree] if cfg.degree >= 4 else [cfg.degree]
    g = make_grid(cfg.grid_size)
    orders = _sweep_orders(cfg)

    def estimate(n, p, d):
        if n is None:
            return backward_shift_estimate(d, p, g, starts=cfg.starts, seed=cfg.seed)
        return fejer_hp_estimate(n, p, d, g, starts=cfg.starts, seed=cfg.seed)

    def operator(n, d):
        if n is None:
            return backward_shift(d, g)
        return analytic_restriction(fejer_difference_operator(n, g), d)

    # Problem1's I - K_n has the norms 2 - 2(n+1)/N on l^1_N and l^inf_N
    # (its largest column and row sums: K_n >= 0 has mass 1 and K_n(0) =
    # n+1 <= N) and 1 on l^2_N.  For problem2, with N > d, |S B c| =
    # |(I - E_N) S c| pointwise (S synthesis, E_N the mean), and I - E_N has
    # the norms 2 - 2/N on l^1_N and l^inf_N and 1 on l^2_N: it is problem1
    # at n = 0.  Complex Riesz-Thorin between l^2_N and either endpoint
    # bounds the row by (2 - 2(n+1)/N)^{|1-2/p|}, and a restriction to the
    # degree-d section raises no norm.
    def upper_bound(n, p):
        endpoint = 2.0 - 2.0 * (1 if n is None else n + 1) / cfg.grid_size
        return endpoint ** (1.0 if p == INF else abs(1.0 - 2.0 / p))

    rows = []
    for p in sorted(ps):
        for n in orders:
            upper = upper_bound(n, p)
            # each row needs degrees d and 2d; solve each distinct degree once.
            # The subspaces are nested, so the witness of each degree,
            # zero-padded, certifies at the next one and keeps the values
            # monotone in degree.
            values, witness = {}, None
            for d in sorted(set(degrees) | {2 * d for d in degrees}):
                est = estimate(n, p, d)
                values[d], best = est.value, est.witness
                if witness is not None:
                    padded = np.pad(witness, (0, d + 1 - witness.size))
                    replay = certified_ratio(operator(n, d), padded, p)
                    if replay > values[d]:
                        values[d], best = replay, padded
                witness = best
            for d in degrees:
                rows.append(
                    {
                        "problem": cfg.problem,
                        "p": p,
                        "n": n,
                        "degree": d,
                        "grid_size": cfg.grid_size,
                        "estimate": values[d],
                        "upper_analytic": upper,
                        "bracket_width": upper - values[d],
                        "estimate_2d": values[2 * d],
                    }
                )
    rows.sort(key=lambda r: (r["p"], r["n"] if r["n"] is not None else -1, r["degree"]))
    for row in rows:
        if not (row["estimate"] <= row["upper_analytic"] + 1e-6):
            raise InternalInconsistencyError(
                f"estimate {row['estimate']} exceeds upper bound in row {row}"
            )
    return rows, []


def _check(name: str, passed: bool, residual: float, tolerance: float) -> dict:
    return {
        "check": name,
        "passed": bool(passed),
        "residual": float(residual),
        "tolerance": float(tolerance),
    }


def _verify_convolution(cfg: RunConfig) -> list[dict]:
    g = make_grid(cfg.grid_size)
    rng = np.random.default_rng([cfg.seed, 10])
    kernels = [KernelSpec.fejer(n) for n in range(5)]
    kernels += [KernelSpec.poisson(r) for r in (0.3, 0.7)]
    kernels += [random_nonneg_kernel(rng, g) for _ in range(2)]
    checks = []
    for i, kernel in enumerate(kernels):
        l1 = kernel_l1_norm(kernel, g)
        op = convolution_operator(kernel, g)
        for p in (1.0, 2.0, INF):
            est = operator_norm(op, p, seed=cfg.seed)
            checks.append(
                _check(f"norm_equals_l1[{kernel.label()}#{i},p={p:g}]",
                       abs(est.value - l1) <= 1e-5, abs(est.value - l1), 1e-5)
            )
        for p in (1.5, 3.0):
            est = operator_norm(op, p, starts=4, seed=cfg.seed)
            checks.append(
                _check(f"norm_equals_l1[{kernel.label()}#{i},p={p:g}]",
                       abs(est.value - l1) <= 1e-3, abs(est.value - l1), 1e-3)
            )
    return checks


_TWO_SIDED_ORDERS = (0, 1, 2, 4)
_TWO_SIDED_MIN_GRID = 64


def _verify_two_sided(cfg: RunConfig) -> list[dict]:
    checks = []
    n_grid = cfg.grid_size
    for n in _TWO_SIDED_ORDERS:
        kernel = KernelSpec.fejer(n)
        for p in (1.0, 1.5, 2.0, 3.0, INF):
            est = _estimate_identity_minus(
                kernel, "lp", p, n_grid, cfg.degree, cfg.starts, cfg.seed
            )
            upper = interpolation_upper(p)
            if p == 1.0 or p == INF:
                exact = 2.0 - 2.0 * (n + 1) / n_grid
                checks.append(
                    _check(f"endpoint_exact[n={n},p={p:g}]",
                           abs(est.value - exact) <= 1e-12,
                           abs(est.value - exact), 1e-12)
                )
            elif p == 2.0:
                checks.append(
                    _check(f"l2_exact_one[n={n}]", abs(est.value - 1.0) <= 1e-10,
                           abs(est.value - 1.0), 1e-10)
                )
            else:
                lower = franchetti_cp(p).value
                ok = lower - 5e-3 <= est.value <= upper + 1e-6
                residual = max(lower - est.value, est.value - upper, 0.0)
                checks.append(_check(f"bracket[n={n},p={p:g}]", ok, residual, 5e-3))
    return checks


def _verify_monotone(cfg: RunConfig) -> list[dict]:
    # finite-degree transcription of the kernel-order monotonicity: the
    # substitution f -> f(z^{n+1}) transfers degree-(d/(n+1)) witnesses of
    # the n = 0 problem into the order-n problem at degree d
    g = make_grid(cfg.grid_size)
    p = _parse_p(cfg.p) if cfg.p else 1.5
    d = cfg.degree
    checks = []
    base_cache: dict[int, float] = {}
    for n in (1, 2, 4):
        base_degree = d // (n + 1)
        if base_degree not in base_cache:
            base_cache[base_degree] = fejer_hp_estimate(
                0, p, base_degree, g, starts=cfg.starts, seed=cfg.seed
            ).value
        base = base_cache[base_degree]
        est = fejer_hp_estimate(n, p, d, g, starts=cfg.starts, seed=cfg.seed)
        ok = est.value >= base - 1e-6
        checks.append(
            _check(f"order_monotone[n={n},p={p:g},d={d}]", ok, base - est.value, 1e-6)
        )
    # f(z^m) on m*N points takes each value of f on N points m times, so the
    # norms agree for every p and N (on N points an N/m-point rule would enter)
    rng = np.random.default_rng([cfg.seed, 11])
    worst = 0.0
    fine = {m: make_grid(m * g.n_points) for m in (2, 3)}
    for _ in range(10):
        f = random_analytic_polynomial(rng, 10, g, decay=0.5, min_modulus_ratio=0.1)
        a = hp_norm(f, p, g)
        for m, g_m in fine.items():
            worst = max(worst, abs(hp_norm(substitute_fm(f, m, g_m), p, g_m) - a) / a)
    checks.append(_check(f"substitution_isometry[p={p:g},m*N points]", worst <= 1e-8, worst, 1e-8))
    return checks


def _verify_orlicz(cfg: RunConfig) -> list[dict]:
    g = make_grid(min(cfg.grid_size, 512))
    rng = np.random.default_rng([cfg.seed, 12])
    checks = []
    for p, q, theta in ((1.5, 3.0, 0.5), (2.0, 4.0, 0.25)):
        phi = phi_from_rho(p, q, theta)
        worst_sandwich = 0.0
        worst_hom = 0.0
        for _ in range(10):
            f = synthesize(random_trig_polynomial(rng, 12), g)
            lux = luxemburg_norm(f, phi)
            am = orlicz_amemiya_norm(f, phi)
            worst_sandwich = max(
                worst_sandwich, (lux - am) / lux, (am - 2.0 * lux) / lux
            )
            a = float(rng.uniform(0.25, 4.0))
            fa = SampledFunction(g, a * f.values)
            worst_hom = max(worst_hom, abs(luxemburg_norm(fa, phi) - a * lux) / (a * lux))
        checks.append(
            _check(f"sandwich[p={p:g},q={q:g},theta={theta:g}]",
                   worst_sandwich <= 1e-8, worst_sandwich, 1e-8)
        )
        checks.append(
            _check(f"homogeneity[p={p:g},q={q:g}]", worst_hom <= 1e-12, worst_hom, 1e-12)
        )
        x = np.exp(np.linspace(np.log(1e-3), np.log(1e3), 101))
        expo = 1.0 / (1.0 / p + theta * (1.0 / q - 1.0 / p))
        err = float(np.max(np.abs(phi.phi(x) - x**expo) / x**expo))
        checks.append(_check(f"power_law[theta={theta:g}]", err <= 1e-7, err, 1e-7))
    return checks


def _verify_lorentz(cfg: RunConfig) -> list[dict]:
    g = make_grid(min(cfg.grid_size, 1024))
    rng = np.random.default_rng([cfg.seed, 13])
    checks = []
    worst_pp = 0.0
    worst_rearr = 0.0
    for _ in range(20):
        f = synthesize(random_trig_polynomial(rng, 16), g)
        p = float(rng.uniform(1.0, 5.0))
        worst_pp = max(worst_pp, abs(lorentz_norm(f, p, p) - lp_norm(f, p)))
        star = np.sort(np.abs(f.values))[::-1]
        direct = float(np.mean(star**p) ** (1.0 / p))
        worst_rearr = max(worst_rearr, abs(direct - lp_norm(f, p)))
    checks.append(_check("lorentz_pp_equals_lp", worst_pp <= 1e-12, worst_pp, 1e-12))
    checks.append(_check("rearrangement_preserves_lp", worst_rearr <= 1e-12, worst_rearr, 1e-12))
    c = 2.7
    fc = SampledFunction(g, np.full(g.n_points, c, dtype=complex))
    p, q = 3.0, 1.5
    expected = c * (p / q) ** (1.0 / q)
    err = abs(lorentz_norm(fc, p, q) - expected)
    checks.append(_check("constant_closed_form", err <= 1e-10, err, 1e-10))
    return checks


def _verify_outer(cfg: RunConfig) -> list[dict]:
    g = make_grid(cfg.grid_size)
    rng = np.random.default_rng([cfg.seed, 14])
    checks = []
    u = SampledFunction(g, np.cos(g.theta).astype(complex))
    tilde = conjugate_function(u)
    err = float(np.max(np.abs(tilde.values.real - np.sin(g.theta))))
    checks.append(_check("conjugate_cos_is_sin", err <= 1e-12, err, 1e-12))
    w = WeightSpec(SampledFunction(g, np.exp(np.cos(g.theta)).astype(complex)))
    big_w = outer_function(w, degree=min(512, g.n_points // 2 - 1))
    err = float(np.max(np.abs(np.abs(big_w.values) - w.values) / w.values))
    checks.append(_check("outer_modulus_matches_weight", err <= 1e-8, err, 1e-8))
    worst_dev = 0.0
    worst_leak = 0.0
    for _ in range(5):
        f = random_analytic_polynomial(rng, 16)
        for p in (1.0, 2.0, 4.0):
            rep = isometry_check(f, w, Lp(p), degree=min(512, g.n_points // 2 - 1))
            worst_dev = max(worst_dev, rep.max_relative_deviation)
            worst_leak = max(worst_leak, rep.negative_frequency_leakage)
    checks.append(_check("isometry_three_norms", worst_dev <= 1e-8, worst_dev, 1e-8))
    checks.append(_check("analytic_leakage", worst_leak <= 1e-8, worst_leak, 1e-8))
    return checks


_SUITES = {
    "convolution": _verify_convolution,
    "two-sided": _verify_two_sided,
    "monotone": _verify_monotone,
    "orlicz": _verify_orlicz,
    "lorentz": _verify_lorentz,
    "outer": _verify_outer,
}


def cmd_verify(cfg: RunConfig) -> tuple[list[dict], list[dict]]:
    checks = _SUITES[cfg.suite](cfg)
    return [], checks


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardybench",
        description="kernels, operator norms and approximation constants on the circle",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--grid-size", "-N", type=int, default=1024)
        sp.add_argument("--degree", "-d", type=int, default=32)
        sp.add_argument("--p", type=str, default="")
        sp.add_argument("--q", type=str, default="")
        sp.add_argument("--starts", type=int, default=8)
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sp.add_argument("--out", type=str, default="")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")

    common(sub.add_parser("constants", help="constant tables over p (and q) sweeps"))
    sp = sub.add_parser("opnorm", help="estimate ||I - C_K|| on L^p or H^p")
    common(sp)
    sp.add_argument("--kernel", type=str, required=True, metavar="fejer:<n>|poisson:<r>")
    sp.add_argument("--space", choices=("lp", "hp"), default="lp")
    sp = sub.add_parser("sweep", help="bracket tables for the open norm problems")
    common(sp)
    sp.add_argument("--problem", choices=("problem1", "problem2"), required=True)
    sp = sub.add_parser("verify", help="run a named invariant suite")
    common(sp)
    sp.add_argument("suite", choices=sorted(_SUITES))
    return parser


def _check_usage(cfg: RunConfig) -> None:
    """Reject option values that would run or pass silently, before any compute."""
    if cfg.starts < 0:
        raise ValueError(f"--starts must be >= 0, got {cfg.starts}")
    uses_degree = cfg.command == "sweep" or (cfg.command == "opnorm" and cfg.space == "hp")
    if uses_degree:
        if cfg.degree < 1:
            raise ValueError(f"--degree must be >= 1 for analytic subspaces, got {cfg.degree}")
        top = 2 * cfg.degree if cfg.command == "sweep" else cfg.degree  # sweep rows need 2d
        # the band limits of analytic_synthesis (problem2) and analytic_restriction
        if (top >= cfg.grid_size) if cfg.problem == "problem2" else (2 * top + 1 > cfg.grid_size):
            raise ValueError(f"degree {top} does not fit on a grid of {cfg.grid_size} points")
    kernels = []
    if cfg.command == "opnorm":
        kernels = [_parse_kernel(cfg.kernel)]
    elif cfg.command == "sweep":
        kernels = [KernelSpec.fejer(n) for n in _sweep_orders(cfg) if n is not None]
    elif cfg.suite == "two-sided":
        kernels = [KernelSpec.fejer(max(_TWO_SIDED_ORDERS))]
    for kernel in kernels:
        _check_kernel_fits(kernel, cfg.grid_size)
    if cfg.suite == "two-sided" and cfg.grid_size < _TWO_SIDED_MIN_GRID:
        # the brackets hold the continuum constant C_p, which smaller
        # N-point models fall below
        raise ValueError(
            f"verify two-sided needs a grid of at least {_TWO_SIDED_MIN_GRID} points, "
            f"got {cfg.grid_size}"
        )
    reads_p = cfg.command in ("opnorm", "sweep") or cfg.suite == "monotone"
    if cfg.p and reads_p:
        ps = _parse_range(cfg.p) if cfg.command == "sweep" else [_parse_p(cfg.p)]
        for p in ps:
            if p < 1.0:
                raise ValueError(f"--p must lie in [1, inf], got {p!r}")


_COMMANDS = {
    "constants": cmd_constants,
    "opnorm": cmd_opnorm,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    cfg = RunConfig(**{f.name: getattr(args, f.name, f.default) for f in fields(RunConfig)})
    try:
        _check_usage(cfg)
        rows, checks = _COMMANDS[cfg.command](cfg)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:  # NoConvergenceError and other numerical failures
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write(cfg, _emit(cfg, rows, checks))
    if checks and not all(c["passed"] for c in checks):
        failed = [c["check"] for c in checks if not c["passed"]]
        print(f"FAILED {len(failed)} checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
