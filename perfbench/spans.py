"""Spans around the calls into each hardybench layer, and the per-layer metrics.

`Tracer.install` replaces each traced public function with a wrapper in
every hardybench module that holds it, so names that `problems`, `opnorm`
and `cli` import directly (such as `hardybench.problems.subspace_norm`) are
traced too.  Nothing inside the program changes.

A span is (name, start, end, parent).  Spans are kept in memory in flat
arrays and written out once, when the run ends.  The self time of a span is
its duration minus the durations of its direct children; children nest
strictly inside their parent, because the workloads are single-threaded.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

# group -> [(module, attribute)], where attribute "Class.method" wraps a method
LAYERS = {
    "operators.build": [
        ("operators", "convolution_operator"),
        ("operators", "identity_minus"),
        ("operators", "analytic_restriction"),
        ("operators", "backward_shift"),
    ],
    "operators.apply": [
        ("operators", "OperatorRep.apply"),
        ("operators", "OperatorRep.apply_adjoint"),
    ],
    "operators.synthesis": [("operators", "synthesis_matrix")],
    "opnorm.power": [("opnorm", "power_method_pnorm")],
    "opnorm.subspace": [("opnorm", "subspace_norm")],
    "opnorm.exact": [("opnorm", "exact_norm_p2"), ("opnorm", "exact_norm_endpoint")],
    "opnorm.certify": [("opnorm", "certified_ratio")],
    "opnorm.oracle": [("opnorm", "brute_force_oracle")],
    "problems": [
        ("problems", "fejer_lp_estimate"),
        ("problems", "fejer_hp_estimate"),
        ("problems", "backward_shift_estimate"),
    ],
    "spaces.phi_build": [("spaces", "phi_from_rho"), ("spaces", "PhiSpec.extended_to")],
    "spaces.orlicz": [("spaces", "luxemburg_norm"), ("spaces", "orlicz_amemiya_norm")],
    "spaces.lorentz": [("spaces", "lorentz_norm")],
    "constants": [
        ("constants", "franchetti_cp"),
        ("constants", "gamma_pq"),
        ("constants", "cpq"),
        ("constants", "lambda_pq"),
        ("constants", "interpolation_upper"),
    ],
}

SOLVES = ("opnorm.power", "opnorm.subspace", "opnorm.exact")
ROUND = "bench.round"


def _operator_key(op, p) -> tuple:
    """p, basis, degree and a fingerprint of the operator and its weight."""
    h = hashlib.blake2b(digest_size=16)
    data = op.multipliers if op.multipliers is not None else op.matrix
    h.update(np.ascontiguousarray(data).tobytes())
    weight = getattr(op.domain, "weight", None)
    if weight is not None:
        h.update(np.ascontiguousarray(weight.values).tobytes())
    return (float(p), op.basis, op.degree, op.dim, op.grid.n_points, h.hexdigest())


class Tracer:
    """Records spans and per-call counts for the wrapped layer functions."""

    def __init__(self):
        self.groups: list[str] = []
        self.group_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.round_counts: list[Counter] = []
        self._solve_keys: set = set()
        self._solve_results: dict[int, list] = {}
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _gid(self, group: str) -> int:
        if group not in self.group_id:
            self.group_id[group] = len(self.groups)
            self.groups.append(group)
        return self.group_id[group]

    def _open(self, gid: int) -> int:
        i = len(self.start)
        self.name.append(gid)
        self.parent.append(self.stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start[i] = time.perf_counter()
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def round(self):
        """The root span of one workload round; counts and repeats restart."""
        self.counts = Counter()
        self._solve_keys = set()
        i = self._open(self._gid(ROUND))
        try:
            yield
        finally:
            self._close(i)
            self.round_counts.append(self.counts)

    def _wrap(self, group: str, label: str, fn):
        gid = self._gid(group)
        tracer = self
        solve = group in SOLVES
        is_problem = group == "problems"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_solve = solve and tracer._in_solve()
            i = tracer._open(gid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            tracer.counts[group + ".calls"] += 1
            tracer.counts[label] += 1
            if solve and not outer_solve:
                tracer._record_solve(group, i, args, kwargs, result)
            if is_problem:
                tracer._record_transfer(i, result)
            return result

        return traced

    def _in_solve(self) -> bool:
        solve_ids = {self.group_id[g] for g in SOLVES if g in self.group_id}
        return any(self.name[j] in solve_ids for j in self.stack[1:])

    def _record_solve(self, group, i, args, kwargs, result) -> None:
        c = self.counts
        if group != "opnorm.exact":
            c[group + ".starts"] += result.n_starts
            c[group + ".iters"] += result.n_iters
            c["opnorm.unconverged"] += int(not result.converged)
        op = args[0]
        p = args[1] if len(args) > 1 else kwargs.get("p", 2.0)
        key = _operator_key(op, p)
        c["problems.solves"] += 1
        if key in self._solve_keys:
            c["problems.repeat_solves"] += 1
            c["problems.repeat_s"] += self.end[i] - self.start[i]
        self._solve_keys.add(key)
        parent = self.parent[i]
        if parent >= 0 and self.groups[self.name[parent]] == "problems":
            self._solve_results.setdefault(parent, []).append(result)

    def _record_transfer(self, i, result) -> None:
        solves = self._solve_results.pop(i, [])
        if len(solves) >= 2:  # a direct solve and a base solve to transfer from
            self.counts["problems.transfer_attempts"] += 1
            self.counts["problems.transfer_wins"] += int(result is not solves[0])

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in LAYERS wherever a hardybench module holds it."""
        modules = [m for n, m in sys.modules.items() if n == "hardybench" or n.startswith("hardybench.")]
        for group, targets in LAYERS.items():
            for mod_name, attr in targets:
                owner = sys.modules["hardybench." + mod_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(group, attr, original))
                    self._restore.append((cls, meth, original))
                    continue
                original = getattr(owner, attr)
                wrapped = self._wrap(group, attr, original)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, wrapped)
                            self._restore.append((module, name, original))

    def uninstall(self) -> None:
        for target, name, original in reversed(self._restore):
            setattr(target, name, original)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "groups": np.array(self.groups),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())

    def round_metrics(self) -> list[dict[str, float]]:
        """Per-layer metrics of each recorded round, in order."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        roots = np.flatnonzero(a["name"] == self.group_id.get(ROUND, -1))
        bounds = list(roots) + [dur.size]
        out = []
        for r, counts in enumerate(self.round_counts):
            lo, hi = bounds[r], bounds[r + 1]
            names = a["name"][lo:hi]
            self_s, incl_s = Counter(), Counter()
            for gid, group in enumerate(self.groups):
                sel = names == gid
                self_s[group] = float(self_time[lo:hi][sel].sum())
                incl_s[group] = float(dur[lo:hi][sel].sum())
            out.append(
                {
                    "self_s": self_s,
                    "incl_s": incl_s,
                    "counts": counts,
                    "self_sum_s": float(self_time[lo:hi].sum()),
                }
            )
        return out


def layer_metrics(rnd: dict, overhead_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced round (names as in BENCHMARK.json)."""
    s, incl, c = rnd["self_s"], rnd["incl_s"], rnd["counts"]

    def rate(group):
        return c[group + ".iters"] / incl[group] if incl[group] > 0.0 else 0.0

    return {
        "operators.build_calls": c["operators.build.calls"],
        "operators.build_s": s["operators.build"],
        "operators.apply_calls": c["operators.apply.calls"],
        "operators.apply_s": s["operators.apply"],
        "operators.synthesis_calls": c["operators.synthesis.calls"],
        "operators.synthesis_s": s["operators.synthesis"],
        "opnorm.power_calls": c["opnorm.power.calls"],
        "opnorm.power_s": s["opnorm.power"],
        "opnorm.power_starts": c["opnorm.power.starts"],
        "opnorm.power_iters": c["opnorm.power.iters"],
        "opnorm.power_iters_per_s": rate("opnorm.power"),
        "opnorm.subspace_calls": c["opnorm.subspace.calls"],
        "opnorm.subspace_s": s["opnorm.subspace"],
        "opnorm.subspace_starts": c["opnorm.subspace.starts"],
        "opnorm.subspace_iters": c["opnorm.subspace.iters"],
        "opnorm.subspace_iters_per_s": rate("opnorm.subspace"),
        "opnorm.exact_calls": c["opnorm.exact.calls"],
        "opnorm.exact_s": s["opnorm.exact"],
        "opnorm.certify_calls": c["opnorm.certify.calls"],
        "opnorm.certify_s": s["opnorm.certify"],
        "opnorm.oracle_calls": c["opnorm.oracle.calls"],
        "opnorm.oracle_s": s["opnorm.oracle"],
        "opnorm.unconverged": c["opnorm.unconverged"],
        "problems.self_s": s["problems"],
        "problems.solves": c["problems.solves"],
        "problems.repeat_solves": c["problems.repeat_solves"],
        "problems.repeat_s": c["problems.repeat_s"],
        "problems.transfer_attempts": c["problems.transfer_attempts"],
        "problems.transfer_wins": c["problems.transfer_wins"],
        "spaces.phi_build_s": s["spaces.phi_build"],
        "spaces.phi_extensions": c["PhiSpec.extended_to"],
        "spaces.orlicz_calls": c["spaces.orlicz.calls"],
        "spaces.orlicz_s": s["spaces.orlicz"],
        "spaces.lorentz_s": s["spaces.lorentz"],
        "constants.calls": c["constants.calls"],
        "constants.s": s["constants"],
        "trace.overhead_s": overhead_s,
    }
