"""Acceptance gate: each numbered criterion runs at its stated tolerance
and prints one PASS/FAIL line (plus runtime) regardless of outcome.

Criterion 4 checks the kernel-order monotonicity ||I - K_n|| >= ||I - K_0||
on the analytic subspace, which follows from the substitution f -> f(z^{n+1}).
That witness of a degree-d order-0 witness has degree (n+1)*d, so the
finite-section forms compare sections of matching degree: 4a holds the
order-0 baseline at degree d and lets the order-n side use degree (n+1)*d,
4c holds the order-n side at degree d against a baseline at degree d/(n+1).
"""

import time

import numpy as np

from hardybench import (
    INF,
    KernelSpec,
    Lp,
    SampledFunction,
    WeightSpec,
    brute_force_oracle,
    cpq,
    exact_norm_endpoint,
    exact_norm_p2,
    franchetti_cp,
    gamma_pq,
    holder_conjugate,
    hp_norm,
    interpolation_upper,
    isometry_check,
    lambda_pq,
    kernel_l1_norm,
    lorentz_norm,
    lp_norm,
    luxemburg_norm,
    make_grid,
    orlicz_amemiya_norm,
    phi_from_rho,
    power_method_pnorm,
    substitute_fm,
    synthesize,
)
from hardybench.opnorm import DEFAULT_SEED
from hardybench.operators import OperatorRep, convolution_operator
from hardybench.problems import (
    backward_shift_estimate,
    fejer_difference_operator,
    fejer_hp_estimate,
    fejer_lp_estimate,
)
from hardybench.testfunctions import random_analytic_polynomial, random_trig_polynomial


def report(number, passed, detail, elapsed, budget):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number}: {status} ({elapsed:.1f}s / budget {budget:.0f}s) - {detail}")


def test_criterion_1_franchetti_constant():
    t0 = time.time()
    failures = []
    if franchetti_cp(1.0).value != 2.0:
        failures.append("C_1 != 2")
    if abs(franchetti_cp(2.0).value - 1.0) > 1e-12:
        failures.append("C_2 != 1")
    for p in (1.2, 1.5, 3.0, 7.0):
        gap = abs(franchetti_cp(p).value - franchetti_cp(holder_conjugate(p)).value)
        if gap > 1e-10:
            failures.append(f"C_p != C_p' at p={p} (gap {gap:.2e})")
    elapsed = time.time() - t0
    ok = not failures and elapsed < 1.0
    report(1, ok, failures or "C_1=2, C_2=1, dual symmetry at 1e-10", elapsed, 1)
    assert not failures
    assert elapsed < 1.0


def test_criterion_2_convolution_norm_law():
    t0 = time.time()
    g = make_grid(2048)
    kernels = [KernelSpec.fejer(n) for n in range(5)]
    kernels += [KernelSpec.poisson(r) for r in (0.3, 0.7)]
    worst_exact, worst_power = 0.0, 0.0
    for kernel in kernels:
        l1 = kernel_l1_norm(kernel, g)
        op = convolution_operator(kernel, g)
        for p in (1.0, INF):
            worst_exact = max(worst_exact, abs(exact_norm_endpoint(op, p).value - l1))
        worst_exact = max(worst_exact, abs(exact_norm_p2(op).value - l1))
        for p in (1.5, 3.0):
            est = power_method_pnorm(op, p, starts=4)
            worst_power = max(worst_power, abs(est.value - l1))
    elapsed = time.time() - t0
    ok = worst_exact <= 1e-5 and worst_power <= 1e-3 and elapsed < 30.0
    report(
        2, ok,
        f"max |est - ||K||_1|: exact {worst_exact:.2e} (tol 1e-5), "
        f"power {worst_power:.2e} (tol 1e-3)",
        elapsed, 30,
    )
    assert worst_exact <= 1e-5
    assert worst_power <= 1e-3
    assert elapsed < 30.0


def test_criterion_3_two_sided_estimate():
    t0 = time.time()
    n_grid = 2048
    g = make_grid(n_grid)
    failures = []
    for n in (0, 1, 2, 4):
        for p in (1.25, 1.5, 2.0, 3.0, 6.0):
            est = fejer_lp_estimate(n, p, g, starts=4)
            lo = franchetti_cp(p).value - 5e-3
            hi = interpolation_upper(p) + 1e-6
            if not lo <= est.value <= hi:
                failures.append(f"bracket n={n} p={p}: {est.value:.6f} not in [{lo:.6f},{hi:.6f}]")
            if p == 2.0 and abs(est.value - 1.0) > 1e-10:
                failures.append(f"p=2 n={n}: {est.value} != 1")
        for p in (1.0, INF):
            est = fejer_lp_estimate(n, p, g)
            exact = 2.0 - 2.0 * (n + 1) / n_grid
            if abs(est.value - exact) > 1e-12:
                failures.append(f"endpoint n={n} p={p}: {est.value} != {exact}")
            if n == 0 and est.value < 2.0 - 3.0 / n_grid:
                failures.append(f"endpoint n=0 below 2 - 3/N")
    # monotone approach of the endpoint value to 2 as N grows
    sweep = [
        exact_norm_endpoint(fejer_difference_operator(1, make_grid(m)), 1.0).value
        for m in (512, 2048, 8192)
    ]
    if not (sweep[0] < sweep[1] < sweep[2] < 2.0):
        failures.append(f"endpoint N-sweep not monotone toward 2: {sweep}")
    elapsed = time.time() - t0
    ok = not failures and elapsed < 120.0
    report(3, ok, failures or "all brackets, exact endpoints and N-sweep hold", elapsed, 120)
    assert not failures
    assert elapsed < 120.0


def test_criterion_4a_fixed_degree_monotonicity_as_stated():
    """Order-monotonicity against a fixed-degree baseline: the order-n
    estimate at degree (n+1)*d dominates the order-0 estimate at degree d,
    the degree that the substitution witness f(z^{n+1}) needs.

    The same-degree form est(n, d) >= est(0, d) is not asserted: the
    substitution argument does not reach it, and certified lower bounds at
    d = 32 order the other way.
    """
    t0 = time.time()
    g = make_grid(1024)
    d = 32
    failures = []
    for p in (1.5, 4.0):
        base = fejer_hp_estimate(0, p, d, g, starts=8).value
        for n in (1, 2, 4):
            degree = (n + 1) * d
            est = fejer_hp_estimate(n, p, degree, g, starts=8).value
            if est < base - 1e-6:
                failures.append(
                    f"p={p} n={n}: est at degree {degree} {est:.7f} "
                    f"< est(0) at degree {d} {base:.7f} - 1e-6"
                )
    elapsed = time.time() - t0
    ok = not failures and elapsed < 120.0
    report(
        "4a", ok,
        failures or "monotone against the fixed-degree order-0 baseline at 1e-6",
        elapsed, 120,
    )
    assert not failures, (
        "order-n estimate at degree (n+1)*d below the order-0 estimate at "
        f"degree d: {failures}"
    )
    assert elapsed < 120.0


def test_criterion_4b_substitution_isometry():
    t0 = time.time()
    g = make_grid(1024)
    rng = np.random.default_rng([DEFAULT_SEED, 40])
    worst = 0.0
    for _ in range(20):
        f = random_analytic_polynomial(rng, 10, g, decay=0.5, min_modulus_ratio=0.1)
        for m in (2, 3):
            fm = substitute_fm(f, m, g)
            for p in (1.5, 4.0):
                a = hp_norm(f, p, g)
                worst = max(worst, abs(hp_norm(fm, p, g) - a) / a)
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 120.0
    report("4b", ok, f"substitution identity worst rel dev {worst:.2e} (tol 1e-8)", elapsed, 120)
    assert worst <= 1e-8
    assert elapsed < 120.0


def test_criterion_4c_degree_matched_monotonicity():
    """Degree-matched transcription of the order-monotonicity: the order-n
    estimate at degree d dominates the order-0 estimate at degree d/(n+1),
    which is what the substitution witnesses actually provide."""
    t0 = time.time()
    g = make_grid(1024)
    d = 32
    failures = []
    for p in (1.5, 4.0):
        for n in (1, 2, 4):
            base = fejer_hp_estimate(0, p, d // (n + 1), g, starts=8).value
            est = fejer_hp_estimate(n, p, d, g, starts=8).value
            if est < base - 1e-6:
                failures.append(f"p={p} n={n}: {est:.8f} < base {base:.8f} - 1e-6")
    elapsed = time.time() - t0
    ok = not failures and elapsed < 120.0
    report("4c", ok, failures or "degree-matched monotonicity holds at 1e-6", elapsed, 120)
    assert not failures
    assert elapsed < 120.0


def test_criterion_5_backward_shift():
    t0 = time.time()
    failures = []
    g = make_grid(4096)
    for d in (8, 32):
        val = backward_shift_estimate(d, 2.0, g).value
        if abs(val - 1.0) > 1e-10:
            failures.append(f"H^2 norm at d={d}: {val} != 1")
    values = {}
    for d in (16, 32, 64):
        values[d] = backward_shift_estimate(d, INF, g, starts=4).value
        if values[d] > 2.0 + 1e-9:
            failures.append(f"H^inf estimate exceeds 2 at d={d}: {values[d]}")
    if not values[16] <= values[32] <= values[64]:
        failures.append(f"H^inf estimates not nondecreasing: {values}")
    if values[64] < 1.8:
        failures.append(f"H^inf estimate at d=64 below 1.8: {values[64]}")
    elapsed = time.time() - t0
    ok = not failures and elapsed < 180.0
    report(
        5, ok,
        failures or f"H^2 exact 1; H^inf estimates {values[16]:.3f} <= "
        f"{values[32]:.3f} <= {values[64]:.3f} <= 2, last >= 1.8",
        elapsed, 180,
    )
    assert not failures
    assert elapsed < 180.0


def test_criterion_6_interpolation_constants():
    t0 = time.time()
    failures = []
    for p in (1.5, 2.0, 3.0):
        gap = abs(gamma_pq(p, p).value - 2.0 ** (1.0 - 1.0 / p))
        if gap > 1e-9:
            failures.append(f"gamma_pp at p={p}: gap {gap:.2e}")
    ps = np.linspace(1.1, 3.0, 20)
    for p in ps:
        for q in ps:
            if p <= q:
                val = gamma_pq(float(p), float(q)).value
                if not 2.0 ** (1 - 1 / p) - 1e-9 <= val <= 2.0 ** (1 - 1 / q) + 1e-9:
                    failures.append(f"gamma bracket p={p:.2f} q={q:.2f}")
            if p < q:
                rep = cpq(float(p), float(q))
                qprime = holder_conjugate(float(q))
                upper = 2.0 ** (1.0 / (p * qprime) + min(1.0 / p, 1.0 / qprime))
                if not 1.0 - 1e-9 <= rep.value <= upper + 1e-9:
                    failures.append(f"C bracket p={p:.2f} q={q:.2f}")
    lam = lambda_pq(1.9, 2.1)
    if not lam.details["min_with_2"] < 2.0:
        failures.append(f"min(2, Lambda(1.9,2.1)) = {lam.details['min_with_2']} not < 2")
    elapsed = time.time() - t0
    ok = not failures and elapsed < 30.0
    report(6, ok, failures or "gamma/C brackets on 20x20 grid; Lambda(1.9,2.1) < 2", elapsed, 30)
    assert not failures
    assert elapsed < 30.0


def test_criterion_7_norm_evaluator_suite():
    t0 = time.time()
    g = make_grid(1024)
    rng = np.random.default_rng([DEFAULT_SEED, 70])
    failures = []
    worst = 0.0
    for _ in range(100):
        f = synthesize(random_trig_polynomial(rng, 16), g)
        p = float(rng.uniform(1.0, 6.0))
        worst = max(worst, abs(lorentz_norm(f, p, p) - lp_norm(f, p)))
    if worst > 1e-12:
        failures.append(f"Lorentz diagonal vs L^p: {worst:.2e}")
    c = 1.7
    fc = SampledFunction(g, np.full(g.n_points, c, dtype=complex))
    for p, q in ((3.0, 1.5), (4.0, 2.0)):
        gap = abs(lorentz_norm(fc, p, q) - c * (p / q) ** (1.0 / q))
        if gap > 1e-10:
            failures.append(f"constant Lorentz norm p={p} q={q}: {gap:.2e}")
    for p, q, theta in ((1.5, 3.0, 0.5), (2.0, 4.0, 0.25)):
        phi = phi_from_rho(p, q, theta)
        for _ in range(25):
            f = synthesize(random_trig_polynomial(rng, 12), g)
            lux = luxemburg_norm(f, phi)
            am = orlicz_amemiya_norm(f, phi)
            if not (lux <= am * (1 + 1e-8) and am <= 2.0 * lux * (1 + 1e-8)):
                failures.append(f"sandwich violated: lux={lux}, am={am}")
    for theta, expo in ((0.0, 2.0), (1.0, 4.0)):
        phi = phi_from_rho(2.0, 4.0, theta)
        x = np.exp(np.linspace(np.log(1e-2), np.log(1e2), 64))
        err = float(np.max(np.abs(phi.phi(x) - x**expo) / x**expo))
        if err > 1e-7:
            failures.append(f"power law theta={theta}: {err:.2e}")
    elapsed = time.time() - t0
    ok = not failures and elapsed < 60.0
    report(7, ok, failures or "Lorentz identities, Orlicz sandwich and power laws hold", elapsed, 60)
    assert not failures
    assert elapsed < 60.0


def test_criterion_8_outer_isometry():
    t0 = time.time()
    g = make_grid(2048)
    w = WeightSpec(SampledFunction(g, np.exp(np.cos(g.theta)).astype(complex)))
    rng = np.random.default_rng([DEFAULT_SEED, 80])
    worst_dev, worst_leak = 0.0, 0.0
    for _ in range(20):
        f = random_analytic_polynomial(rng, 16)
        for p in (1.0, 2.0, 4.0):
            rep = isometry_check(f, w, Lp(p), degree=512)
            worst_dev = max(worst_dev, rep.max_relative_deviation)
            worst_leak = max(worst_leak, rep.negative_frequency_leakage)
    elapsed = time.time() - t0
    ok = worst_dev <= 1e-8 and worst_leak <= 1e-8 and elapsed < 60.0
    report(
        8, ok,
        f"three-norm deviation {worst_dev:.2e}, leakage {worst_leak:.2e} (tol 1e-8)",
        elapsed, 60,
    )
    assert worst_dev <= 1e-8
    assert worst_leak <= 1e-8
    assert elapsed < 60.0


def test_criterion_9_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng([DEFAULT_SEED, 9])
    worst = 0.0
    for i in range(50):
        dim = 2 + (i % 2)
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        op = OperatorRep(matrix=m, basis="grid", grid=make_grid(dim))
        for p in (1.3, 2.0, 2.5, 4.0):
            oracle = brute_force_oracle(m, p)
            est = exact_norm_p2(op) if p == 2.0 else power_method_pnorm(op, p, starts=8)
            worst = max(worst, abs(est.value - oracle))
    elapsed = time.time() - t0
    ok = worst <= 5e-3 and elapsed < 120.0
    report(9, ok, f"worst |power - oracle| = {worst:.2e} (tol 5e-3)", elapsed, 120)
    assert worst <= 5e-3
    assert elapsed < 120.0
