"""Fast self-test of the benchmark's checks and tracing (a few seconds).

    python3 -m pytest -q perfbench

Runs the small version of every workload, so the real program produces the
values that the checks see.
"""

from __future__ import annotations

import copy
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hardybench.problems  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def small_round(request):
    wl = workloads.WORKLOADS[request.param](seed=3, small=True)
    results, errors, _ = wl.run_round()
    return wl, results, errors


def _fails(wl, results, label, value) -> bool:
    """Does the check of `label` reject `value` in place of the real result?"""
    _, failures = wl.check({**results, label: value})
    return any(f.startswith(label + ":") for f in failures)


def _perturbed(value: float) -> float:
    return value * (1.0 + 1e-6)


def test_small_round_passes(small_round):
    wl, results, errors = small_round
    assert not errors
    gap, failures = wl.check(results)
    assert not failures
    assert gap > 0.0


def test_checks_reject_perturbed_values(small_round):
    wl, results, _ = small_round
    tried = 0
    for label, res in results.items():
        if hasattr(res, "witness"):  # a certified NormEstimate
            bad = copy.copy(res)
            bad.value = _perturbed(res.value)
            assert _fails(wl, results, label, bad), label
        elif isinstance(res, list) and res and isinstance(res[0], dict):  # constant table
            for field in ("franchetti_cp", "gamma_pq", "lambda_pq"):
                rows = [dict(r) for r in res]
                row = next((r for r in rows if r[field] is not None), None)
                if row is None:
                    continue
                row[field] = _perturbed(row[field])
                assert _fails(wl, results, label, rows), (label, field)
        elif isinstance(res, list) and res and isinstance(res[0], tuple):  # Orlicz norms
            for i in (0, 1):
                pairs = list(res)
                pairs[0] = tuple(_perturbed(v) if j == i else v for j, v in enumerate(pairs[0]))
                assert _fails(wl, results, label, pairs), (label, i)
        elif isinstance(res, list):  # Lorentz norms
            assert _fails(wl, results, label, [_perturbed(res[0])] + res[1:]), label
        elif label.startswith("oracle["):
            # the oracle is a sampled maximum without a witness; its check is
            # agreement with the certified power method within 5e-3
            assert _fails(wl, results, label, res + 1e-2), label
        else:  # a closed-form float
            assert _fails(wl, results, label, _perturbed(res)), label
        tried += 1
    assert tried == len(wl.ops)


def test_checks_reject_swapped_witnesses(small_round):
    wl, results, _ = small_round
    rng = np.random.default_rng(5)
    estimates = {k: v for k, v in results.items() if hasattr(v, "witness")}
    for label, res in estimates.items():
        bad = copy.copy(res)
        w = res.witness
        bad.witness = rng.standard_normal(w.shape) + 1j * rng.standard_normal(w.shape)
        assert _fails(wl, results, label, bad), label


def test_traced_self_times_add_up_to_wall_time():
    wl = workloads.HpSweep(seed=3, small=True)
    untraced = []
    for _ in range(3):
        t0 = time.perf_counter()
        wl.run_round()
        untraced.append(time.perf_counter() - t0)
    tracer = spans.Tracer()
    traced = []
    tracer.install()
    try:
        assert hardybench.problems.subspace_norm.__wrapped__ is not None
        for _ in range(3):
            t0 = time.perf_counter()
            with tracer.round():
                wl.run_round()
            traced.append(time.perf_counter() - t0)
    finally:
        tracer.uninstall()
    assert not hasattr(hardybench.problems.subspace_norm, "__wrapped__")
    overhead = statistics.median(traced) - statistics.median(untraced)
    for rnd, wall in zip(tracer.round_metrics(), traced):
        assert abs(rnd["self_sum_s"] - wall) <= max(overhead, 0.0) + 1e-3
        layers = spans.layer_metrics(rnd, overhead)
        assert layers["problems.solves"] > 0
        assert layers["problems.transfer_attempts"] > 0
        assert layers["opnorm.subspace_calls"] > 0
        assert layers["operators.synthesis_calls"] > 0
        assert 0.0 < layers["problems.self_s"] < wall
