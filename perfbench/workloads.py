"""The three workloads: inputs made from the seed, operations, and checks.

A workload is a fixed list of operations, each one call into a public
hardybench function, run in order as one round.  Every operation has a
check that recomputes what it can with `replay` (never a stored copy of an
earlier output) and returns the operation's share of `bracket_gap`: the
proven upper bound used in the check minus the certified value, or 0 for
outputs that are not certified estimates.

Functions are looked up on their module when an operation runs, so the
wrappers that `spans.Tracer` installs see every call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from hardybench import cli, grid, kernels, operators, opnorm, problems, spaces
from replay import INF, close, require
import replay

REPLAY_REL = 1e-9  # certified value against the benchmark's replay at its witness


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object, dict], float]  # (result, all results by label) -> gap


class Workload:
    """A list of operations; subclasses fill `self.ops` from the seed.

    FULL holds the benchmark's sizes.  SMALL runs the same code paths in a
    fraction of a second; it is the warm-up and the self-test's workload.
    """

    name = ""
    FULL: dict = {}
    SMALL: dict = {}

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.small = small
        self.ops: list[Op] = []
        self.build(self.SMALL if small else self.FULL)

    def build(self, size: dict) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One round of the small version: every code path runs once."""
        if not self.small:
            type(self)(self.seed, small=True).run_round()

    def run_round(self) -> tuple[dict, dict, dict]:
        """Run every operation once; returns (results, errors, seconds) by label."""
        results, errors, seconds = {}, {}, {}
        for op in self.ops:
            t0 = time.perf_counter()
            try:
                results[op.label] = op.call()
            except Exception as exc:  # counted as a failed operation
                errors[op.label] = f"{type(exc).__name__}: {exc}"
            seconds[op.label] = time.perf_counter() - t0
        return results, errors, seconds

    def check(self, results: dict) -> tuple[float, list[str]]:
        """Check every result; returns (bracket gap, failure messages)."""
        gap, failures = 0.0, []
        for op in self.ops:
            if op.label not in results:
                continue
            try:
                gap += op.check(results[op.label], results)
            except (AssertionError, ArithmeticError, ValueError) as exc:
                failures.append(f"{op.label}: {exc}")
        return gap, failures


# ---------------------------------------------------------------------------
# lp-grid: I - K_n on grid-basis L^p and L^p(w)
# ---------------------------------------------------------------------------


class LpGrid(Workload):
    """Fejer orders 0, 1, 4: exact endpoints and p = 2 on dense N = 2048
    matrices; orders 0, 1: the dual-vector power method at N = 512 for
    p in {1.5, 3}; order 1 on the weighted space L^p(w), w = e^{cos theta},
    at N = 256.  The round is kept near 5 s so that a run holds several."""

    name = "lp-grid"
    EXACT_P = (1.0, INF, 2.0)
    WEIGHTED_ORDER = 1
    FULL = dict(n_exact=2048, n_power=512, n_weighted=256, exact_orders=(0, 1, 4),
                power_orders=(0, 1), power_p=(1.5, 3.0), weighted_p=(1.5, 2.0, 3.0))
    SMALL = dict(n_exact=64, n_power=64, n_weighted=32, exact_orders=(0, 1),
                 power_orders=(0,), power_p=(1.5,), weighted_p=(1.5, 2.0))

    def build(self, size: dict) -> None:
        n_exact, n_power = size["n_exact"], size["n_power"]
        g_exact, g_power = grid.make_grid(n_exact), grid.make_grid(n_power)
        g_w = grid.make_grid(size["n_weighted"])
        weight = np.exp(np.cos(g_w.theta))
        weight_fn = grid.SampledFunction(g_w, weight.astype(complex))
        seed = self.seed
        franchetti = {p: replay.franchetti(p) for p in size["power_p"]}

        for n in size["exact_orders"]:
            for p in self.EXACT_P:
                self.ops.append(Op(
                    f"lp[n={n},p={p:g},N={n_exact}]",
                    lambda n=n, p=p: problems.fejer_lp_estimate(n, p, g_exact, seed=seed),
                    lambda est, _, n=n, p=p: self._check_exact(est, n, p, n_exact),
                ))
        for n in size["power_orders"]:
            for p in size["power_p"]:
                self.ops.append(Op(
                    f"lp[n={n},p={p:g},N={n_power}]",
                    lambda n=n, p=p: problems.fejer_lp_estimate(n, p, g_power, seed=seed),
                    lambda est, _, n=n, p=p: self._check_power(est, n, p, franchetti[p]),
                ))
        n = self.WEIGHTED_ORDER
        for p in size["weighted_p"]:
            self.ops.append(Op(
                f"lpw[n={n},p={p:g},N={g_w.n_points}]",
                lambda p=p: self._weighted(n, p, g_w, weight_fn, seed),
                lambda est, _, p=p: self._check_weighted(est, n, p, weight),
            ))

    @staticmethod
    def _weighted(n, p, g, weight_fn, seed):
        domain = spaces.WeightedLp(p, weight_fn)
        kernel = kernels.KernelSpec.fejer(n)
        op = operators.identity_minus(operators.convolution_operator(kernel, g, domain=domain))
        if p == 2.0:
            return opnorm.exact_norm_p2(op, seed=seed)
        return opnorm.power_method_pnorm(op, p, seed=seed)

    @staticmethod
    def _replay(est, n, p, weight=None):
        close(est.value, replay.grid_ratio(est.witness, n, p, weight), REPLAY_REL, "replay")

    def _check_exact(self, est, n, p, n_points):
        self._replay(est, n, p)
        if p == 2.0:
            require(abs(est.value - 1.0) <= 1e-10, f"p = 2 value {est.value!r} is not 1")
            return 1.0 - est.value
        exact = 2.0 - 2.0 * (n + 1) / n_points
        require(abs(est.value - exact) <= 1e-12, f"endpoint value {est.value!r} is not {exact!r}")
        return exact - est.value

    def _check_power(self, est, n, p, c_p):
        self._replay(est, n, p)
        upper = replay.interpolation_upper(p)
        require(
            c_p - 5e-3 <= est.value <= upper + 1e-6,
            f"value {est.value!r} outside [C_p - 5e-3, 2^|1-2/p| + 1e-6] = [{c_p - 5e-3!r}, {upper + 1e-6!r}]",
        )
        return upper - est.value

    def _check_weighted(self, est, n, p, weight):
        self._replay(est, n, p, weight)
        if p == 2.0:
            top = float(np.linalg.norm(replay.weighted_fejer_matrix(n, weight), 2))
            require(abs(est.value - top) <= 1e-9, f"p = 2 value {est.value!r} is not sigma_max {top!r}")
            return top - est.value
        upper = replay.weighted_fejer_riesz_thorin(n, weight, p)
        require(est.value <= upper * (1.0 + 1e-12), f"value {est.value!r} above Riesz-Thorin {upper!r}")
        return upper - est.value


# ---------------------------------------------------------------------------
# hp-sweep: the sweep tables for Problems 1 and 2 on analytic subspaces
# ---------------------------------------------------------------------------


class HpSweep(Workload):
    """The estimates behind `sweep --problem problem1 --p 1.5,4 --q 0,1,2
    -N 1024 -d 32` and `sweep --problem problem2 --p 1.5,2,3,inf -N 1024
    -d 32`: each row at degrees d and 2d, for d in {16, 32}, in the order
    the sweep makes them."""

    name = "hp-sweep"
    FULL = dict(n_points=1024, degrees=(16, 32, 32, 64), problem1_p=(1.5, 4.0),
                orders=(0, 1, 2), problem2_p=(1.5, 2.0, 3.0, INF))
    SMALL = dict(n_points=64, degrees=(4,), problem1_p=(1.5,), orders=(0, 1),
                 problem2_p=(1.5, 2.0, INF))

    def build(self, size: dict) -> None:
        n_points, degrees = size["n_points"], size["degrees"]
        g = grid.make_grid(n_points)
        seed = self.seed
        for p in size["problem1_p"]:
            for n in size["orders"]:
                for k, d in enumerate(degrees):
                    self.ops.append(Op(
                        f"problem1[p={p:g},n={n},d={d}]#{k}",
                        lambda n=n, p=p, d=d: problems.fejer_hp_estimate(n, p, d, g, seed=seed),
                        lambda est, _, n=n, p=p: self._check_fejer(est, n, p, n_points),
                    ))
        for p in size["problem2_p"]:
            for k, d in enumerate(degrees):
                self.ops.append(Op(
                    f"problem2[p={p:g},d={d}]#{k}",
                    lambda p=p, d=d: problems.backward_shift_estimate(d, p, g, seed=seed),
                    lambda est, _, p=p: self._check_shift(est, p, n_points),
                ))

    @staticmethod
    def _check_fejer(est, n, p, n_points):
        close(est.value, replay.analytic_fejer_ratio(est.witness, n, p, n_points), REPLAY_REL, "replay")
        upper = replay.interpolation_upper(p)
        require(
            1.0 - 1e-9 <= est.value <= upper + 1e-6,
            f"value {est.value!r} outside [1 - 1e-9, {upper + 1e-6!r}]",
        )
        return upper - est.value

    @staticmethod
    def _check_shift(est, p, n_points):
        close(est.value, replay.analytic_shift_ratio(est.witness, p, n_points), REPLAY_REL, "replay")
        if p == 2.0:
            require(abs(est.value - 1.0) <= 1e-10, f"p = 2 value {est.value!r} is not 1")
            return 1.0 - est.value
        require(1.0 - 1e-9 <= est.value <= 2.0 + 1e-6, f"value {est.value!r} outside [1, 2]")
        return 2.0 - est.value


# ---------------------------------------------------------------------------
# oracle-tables: brute-force oracle, constant tables, Orlicz and Lorentz norms
# ---------------------------------------------------------------------------


def _isometric_copy(a: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """P D A D' Q with permutations P, Q and unimodular diagonals D, D'.

    Every l^p operator norm and the Riesz-Thorin bound are unchanged, so the
    seed moves the inputs without changing how hard the problem is.
    """
    dim = a.shape[0]
    left = np.exp(2j * np.pi * rng.random(dim))
    right = np.exp(2j * np.pi * rng.random(dim))
    b = left[:, None] * a * right[None, :]
    return b[rng.permutation(dim)][:, rng.permutation(dim)]


def _random_samples(rng: np.random.Generator, degree: int, n_points: int) -> np.ndarray:
    """A random trigonometric polynomial of the given degree, sampled by FFT."""
    bins = np.zeros(n_points, dtype=complex)
    ks = np.arange(-degree, degree + 1) % n_points
    bins[ks] = rng.standard_normal(ks.size) + 1j * rng.standard_normal(ks.size)
    return np.fft.ifft(bins) * n_points


class OracleTables(Workload):
    """brute_force_oracle on 2x2 and 3x3 matrices, each paired with
    power_method_pnorm; the constant tables of `constants --p 1.1:4.0:0.1
    --q 2.5` and `constants --p 1.25,1.5,2,3,4 --q 1.25,1.5,2,3,4`; and the
    Orlicz and Lorentz norms of the `verify orlicz` and `verify lorentz`
    shapes."""

    name = "oracle-tables"
    FULL = dict(
        dims=(2, 2, 2, 2, 3, 3), resolution=None, oracle_p=(1.3, 4.0),
        tables=(("1.1:4.0:0.1", "2.5"), ("1.25,1.5,2,3,4", "1.25,1.5,2,3,4")),
        generators=((1.5, 3.0, 0.5), (2.0, 4.0, 0.25), (1.5, 3.0, 0.0)),
        n_orlicz=512, orlicz_funcs=10, n_lorentz=1024, lorentz_funcs=20,
    )
    SMALL = dict(
        dims=(2, 3), resolution=2_000, oracle_p=(1.3,), tables=(("1.5,2,3", "2.5"),),
        generators=((1.5, 3.0, 0.5), (1.5, 3.0, 0.0)),
        n_orlicz=64, orlicz_funcs=2, n_lorentz=64, lorentz_funcs=4,
    )

    def build(self, size: dict) -> None:
        base = np.random.default_rng(0x4F5241)  # fixed matrices; the seed permutes them
        seed = self.seed
        resolution = size["resolution"]
        for i, dim in enumerate(size["dims"]):
            a0 = base.standard_normal((dim, dim)) + 1j * base.standard_normal((dim, dim))
            a = _isometric_copy(a0, np.random.default_rng([seed, 20, i]))
            op = operators.OperatorRep(matrix=a, basis="grid", grid=grid.make_grid(dim))
            for p in size["oracle_p"]:
                power = f"power[{i},p={p:g}]"
                self.ops.append(Op(
                    power,
                    lambda op=op, p=p: opnorm.power_method_pnorm(op, p, seed=seed),
                    lambda est, _, a=a, p=p: self._check_power(est, a, p),
                ))
                self.ops.append(Op(
                    f"oracle[{i},p={p:g}]",
                    lambda a=a, p=p: opnorm.brute_force_oracle(a, p, resolution),
                    lambda val, res, a=a, p=p, power=power: self._check_oracle(val, res.get(power), a, p),
                ))
        for p_spec, q_spec in size["tables"]:
            cfg = cli.RunConfig(command="constants", p=p_spec, q=q_spec)
            self.ops.append(Op(
                f"constants[p={p_spec},q={q_spec}]",
                lambda cfg=cfg: cli.cmd_constants(cfg)[0],
                lambda rows, _: self._check_constants(rows),
            ))

        rng = np.random.default_rng([seed, 12])
        g_orlicz = grid.make_grid(size["n_orlicz"])
        for p, q, theta in size["generators"]:
            funcs = [
                grid.SampledFunction(g_orlicz, _random_samples(rng, 12, g_orlicz.n_points))
                for _ in range(size["orlicz_funcs"])
            ]
            r = replay.power_exponent(p, q, theta)
            self.ops.append(Op(
                f"orlicz[p={p:g},q={q:g},theta={theta:g}]",
                lambda p=p, q=q, theta=theta, funcs=funcs: self._orlicz(p, q, theta, funcs),
                lambda norms, _, r=r, funcs=funcs: self._check_orlicz(norms, r, funcs),
            ))

        rng = np.random.default_rng([seed, 13])
        g_lorentz = grid.make_grid(size["n_lorentz"])
        cases = []
        for _ in range(size["lorentz_funcs"]):
            f = grid.SampledFunction(g_lorentz, _random_samples(rng, 16, g_lorentz.n_points))
            p = float(rng.uniform(1.0, 5.0))
            cases.append((f, p, p))
        self.ops.append(Op(
            "lorentz",
            lambda: [spaces.lorentz_norm(f, p, q) for f, p, q in cases],
            lambda norms, _: self._check_lorentz(norms, cases),
        ))
        const = grid.SampledFunction(g_lorentz, np.full(g_lorentz.n_points, 2.7, dtype=complex))
        self.ops.append(Op(
            "lorentz[constant,p=3,q=1.5]",
            lambda: spaces.lorentz_norm(const, 3.0, 1.5),
            lambda val, _: self._check_lorentz([val], [(2.7, 3.0, 1.5)]),
        ))

    @staticmethod
    def _orlicz(p, q, theta, funcs):
        phi = spaces.phi_from_rho(p, q, theta)
        return [(spaces.luxemburg_norm(f, phi), spaces.orlicz_amemiya_norm(f, phi)) for f in funcs]

    @staticmethod
    def _check_power(est, a, p):
        close(est.value, replay.matrix_ratio(a, est.witness, p), REPLAY_REL, "replay")
        upper = replay.matrix_riesz_thorin(a, p)
        require(est.value <= upper * (1.0 + 1e-12), f"value {est.value!r} above Riesz-Thorin {upper!r}")
        return upper - est.value

    @staticmethod
    def _check_oracle(value, power, a, p):
        upper = replay.matrix_riesz_thorin(a, p)
        require(value <= upper * (1.0 + 1e-12), f"oracle {value!r} above Riesz-Thorin {upper!r}")
        if power is not None:
            require(abs(value - power.value) <= 5e-3, f"oracle {value!r} and power {power.value!r} differ")
        return 0.0

    @staticmethod
    def _check_constants(rows):
        c_by_p = {}
        for row in rows:
            p, q = row["p"], row["q"]
            close(row["franchetti_cp"], replay.franchetti(p), 1e-9, f"C_p at p={p!r}")
            close(row["interpolation_upper"], replay.interpolation_upper(p), 1e-14, "2^|1-2/p|")
            if abs(p - 2.0) < 1e-9:
                require(abs(row["franchetti_cp"] - 1.0) <= 1e-12, "C_2 is not 1")
            c_by_p[p] = row["franchetti_cp"]
            if row["gamma_pq"] is not None:
                g = row["gamma_pq"]
                close(replay.gamma_residual(g, p, q), 1.0, 1e-8, f"gamma_pq({p!r}, {q!r}) root")
                if abs(p - q) < 1e-9:
                    close(g, replay.gamma_diagonal(p), 1e-9, f"gamma_pp at p={p!r}")
            if row["lambda_pq"] is not None:
                factor = max(replay.interpolation_upper(p), replay.interpolation_upper(q))
                close(row["lambda_pq"], row["cpq"] * factor, 1e-12, "Lambda = C_pq * max 2^|1-2/p|")
                require(row["min_2_lambda"] == min(2.0, row["lambda_pq"]), "min(2, Lambda)")
        for p, c in c_by_p.items():
            for p2, c2 in c_by_p.items():
                if p != 2.0 and abs(replay.holder_conjugate(p) - p2) < 1e-9:
                    close(c, c2, 1e-9, f"C_p = C_p' at p={p!r}")
        return 0.0

    @staticmethod
    def _check_orlicz(norms, r, funcs):
        for (lux, am), f in zip(norms, funcs):
            lp = replay.mean_lp(f.values, r)
            close(lux, lp, 1e-9, "Luxemburg against L^r")
            close(am, replay.amemiya_power(lp, r), 1e-9, "Amemiya against its closed form")
            require(lux <= am * (1.0 + 1e-12) and am <= 2.0 * lux * (1.0 + 1e-12), "Lux <= Am <= 2 Lux")
        return 0.0

    @staticmethod
    def _check_lorentz(norms, cases):
        """L^{p,p} = L^p; a constant c has ||c||_{p,q} = c (p/q)^{1/q}."""
        for value, (f, p, q) in zip(norms, cases):
            if isinstance(f, float):
                close(value, replay.lorentz_constant(f, p, q), 1e-10, "constant L^{p,q}")
            else:
                close(value, replay.mean_lp(f.values, p), 1e-10, "L^{p,p} against L^p")
        return 0.0


WORKLOADS = {w.name: w for w in (LpGrid, HpSweep, OracleTables)}
