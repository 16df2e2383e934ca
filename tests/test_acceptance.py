"""Acceptance gate: eleven end-to-end behavioural guarantees.

Each test prints exactly one [PASS]/[FAIL] line with the measured quantity
and its bound, then asserts. Run with -s to see the lines for passing tests.
"""

import numpy as np
import pytest

from breathenet.balancer import bdba_solve, bfdba_solve
from breathenet.busy import busy_degrees, targets
from breathenet.coverage import (
    ExactNeighbourhoodEvaluator,
    InfeasibleCoverage,
    exact_coverage,
    min_power_search,
    train_surrogate,
)
from breathenet.harness import ExperimentSpec, compare_runs, run_experiment
from breathenet.jacobian import (
    approx_from_matrix,
    estimate_jacobian,
    laplacian_check,
    support_graph,
)
from breathenet.model import AlgorithmConfig
from breathenet.mrdata import generate_mr, remove_redundant, to_attenuation
from breathenet.synth import (
    _bbox,
    _prb_for,
    drift_bundle,
    line_topology,
    proportional_bundle,
    random_bundle,
    tidal_bundle,
)
from breathenet.traffic import (
    Hotspot,
    PathlossModel,
    PeriodSpec,
    TrafficScenario,
    assign_users,
    sample_users,
)


def report(num: int, name: str, passed: bool, detail: str) -> None:
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {num:02d} {name}: {detail}"
    print(line, flush=True)
    assert passed, line


def pipeline_state(bundle, cfg, estimate_seed=0):
    """Sample period 1 of a bundle and estimate the Jacobian at the initial
    powers. Returns (approx, f, f_bar)."""
    topo, pathloss, scenario = bundle
    users = sample_users(scenario, pathloss, topo, 1)
    p = topo.initial_powers()
    mr = generate_mr(users, p, cfg.top_m)
    f = busy_degrees(assign_users(users, p), users, topo)
    f_bar = targets(f, topo, cfg.target_mode)
    return estimate_jacobian(mr, p, f, f_bar, topo, cfg, seed=estimate_seed), f, f_bar


def test_c01_estimated_jacobian_has_laplacian_structure():
    cfg = AlgorithmConfig(epsilon=0.02, n_s=5000, r_c=-120.0)
    worst_rel = 0.0
    sign_violations = 0
    connected = 0
    sigma_ok = 0
    for s in range(10):
        bundle = random_bundle(periods=1, total_users=100000, seed=100 + s,
                               background=0.5)
        approx, _, f_bar = pipeline_state(bundle, cfg, estimate_seed=s)
        rep = laplacian_check(approx, f_bar)
        worst_rel = max(worst_rel, rep.max_relative_residual)
        sign_violations += rep.sign_violations
        if len(support_graph(approx).components) == 1:
            connected += 1
            sigma_ok += rep.second_smallest_singular_value > 0.0
    ok = worst_rel <= 0.05 and sign_violations == 0 and sigma_ok == connected
    report(1, "jacobian-laplacian-structure", ok,
           f"worst relative row-sum residual {worst_rel:.4f} (bound 0.05), "
           f"sign violations {sign_violations}, sigma_2 > 0 in "
           f"{sigma_ok}/{connected} connected cases")


def test_c02_adjustments_are_zero_sum_over_a_long_run():
    bundle = random_bundle(periods=200, total_users=8000, seed=19)
    cfg = AlgorithmConfig(gamma=0.5, r_c=-120.0, n_s=2000, coverage_sample=1500)
    spec = ExperimentSpec(*bundle, cfg=cfg, algorithm="bdba", periods=200,
                          seed=23)
    result = run_experiment(spec)
    worst = 0.0
    counted = 0
    for s in result.steps:
        if s.fallback or s.held:
            continue
        norm = float(np.abs(s.u).sum())
        if norm > 0:
            worst = max(worst, abs(float(s.u.sum())) / norm)
            counted += 1
    ok = counted > 100 and worst <= 1e-9
    report(2, "zero-sum-adjustment", ok,
           f"worst |sum(u)| / ||u||_1 = {worst:.3e} over {counted} steps "
           f"(bound 1e-9)")


def test_c03_pseudoinverse_solve_matches_analytic_and_reference():
    u, _ = bdba_solve(approx_from_matrix([[1.0, -1.0], [-1.0, 1.0]]),
                      np.array([0.2, -0.2]))
    analytic_err = float(np.abs(u - np.array([0.1, -0.1])).max())

    # reference: least squares restricted to the zero-sum subspace
    n = 10
    basis = np.linalg.svd(np.vstack([np.ones(n), np.zeros((n - 1, n))]))[2][1:].T
    rng = np.random.default_rng(123)
    worst_gap = 0.0
    for _ in range(50):
        mask = np.triu(rng.random((n, n)) < 0.35, k=1)
        mask[np.arange(n - 1), np.arange(1, n)] = True
        w = np.where(mask, rng.uniform(0.2, 1.0, size=(n, n)), 0.0)
        w = w + w.T
        a = np.diag(w.sum(axis=1)) - w + 0.01 * rng.standard_normal((n, n))
        d = rng.standard_normal(n)
        got, _ = bdba_solve(approx_from_matrix(a), d)
        coeff, *_ = np.linalg.lstsq(a @ basis, d, rcond=0.05)
        ref = basis @ coeff
        gap = abs(float(np.linalg.norm(a @ got - d))
                  - float(np.linalg.norm(a @ ref - d)))
        worst_gap = max(worst_gap, gap)
    ok = analytic_err <= 1e-12 and worst_gap <= 1e-8
    report(3, "pseudoinverse-solve", ok,
           f"analytic error {analytic_err:.2e} (bound 1e-12), worst residual "
           f"gap to reference {worst_gap:.2e} over 50 systems (bound 1e-8)")


def test_c04_estimator_tracks_the_finite_difference_oracle():
    topo = line_topology(3, spacing=400.0, prb=_prb_for(50000, 3, 0.5))
    lo, hi = _bbox(topo)
    center = ((lo[0] + hi[0]) / 2, (lo[1] + hi[1]) / 2)
    scenario = TrafficScenario(
        periods=(PeriodSpec(50000, (Hotspot(center, 1.0, 500.0, truncate=2.0),)),),
        seed=41)
    users = sample_users(scenario, PathlossModel(seed=42), topo, 1)
    p = topo.initial_powers()
    cfg = AlgorithmConfig(epsilon=0.1, n_s=50000, r_c=-120.0)
    mr = generate_mr(users, p, cfg.top_m)
    f = busy_degrees(assign_users(users, p), users, topo)
    f_bar = targets(f, topo, cfg.target_mode)
    approx = estimate_jacobian(mr, p, f, f_bar, topo, cfg, seed=5)

    oracle = np.zeros((3, 3))
    for j in range(3):
        for sign in (+1.0, -1.0):
            q = p.copy()
            q[j] = p[j] * (1.0 + sign * cfg.epsilon)
            oracle[:, j] += sign * busy_degrees(assign_users(users, q), users, topo)
    oracle /= (2.0 * cfg.epsilon * p)[None, :]
    oracle /= f_bar[:, None]

    got = approx.matrix.toarray()
    worst_rel = 0.0
    for i in range(3):
        scale = np.abs(oracle[i]).max()
        for j in range(3):
            if abs(oracle[i, j]) >= 0.1 * scale:
                worst_rel = max(worst_rel,
                                abs(got[i, j] - oracle[i, j]) / abs(oracle[i, j]))
    exact = float(np.abs(got - oracle).max())
    ok = worst_rel <= 0.25
    report(4, "finite-difference-agreement", ok,
           f"worst relative error on significant entries {worst_rel:.3e} "
           f"(bound 0.25); max absolute gap {exact:.2e}")


PROPORTIONAL = dict(periods=50, total_users=100000, seed=5)
PROPORTIONAL_CFG = AlgorithmConfig(gamma=0.5, tau=0.001, r_c=-120.0, n_s=5000,
                                   coverage_sample=4000)


def test_c05_bdba_drives_proportional_traffic_to_consensus():
    bundle = proportional_bundle(**PROPORTIONAL)
    spec = ExperimentSpec(*bundle, cfg=PROPORTIONAL_CFG, algorithm="bdba",
                          periods=50, seed=4)
    d = run_experiment(spec).metrics.d_inf
    windows = d.reshape(10, 5).mean(axis=1)
    drifts = float(np.diff(windows).max())
    ok = d[0] >= 0.5 and d[-1] < 0.05 and drifts <= 0.01
    report(5, "bdba-consensus", ok,
           f"max disagreement {d[0]:.3f} -> {d[-1]:.4f} over 50 periods "
           f"(need >= 0.5 -> < 0.05), worst 5-step window drift {drifts:+.4f} "
           f"(bound +0.01)")


def test_c06_bfdba_converges_to_its_own_fixed_point():
    u, _ = bfdba_solve(approx_from_matrix(np.diag([0.8, 1.2, 1.0])),
                       0.001 * np.array([43.0, 40.0, 41.0]),
                       np.array([43.0, 40.0, 41.0]), tau=0.001)
    analytic_err = float(np.abs(u).max())

    bundle = proportional_bundle(**PROPORTIONAL)
    spec = ExperimentSpec(*bundle, cfg=PROPORTIONAL_CFG, algorithm="bfdba",
                          periods=50, seed=4)
    result = run_experiment(spec)
    state = result.busy[-1]
    p_in = result.steps[-2].p_next  # powers in force while period 50 was measured
    capacity = bundle.topo.prb_vector()
    scale = float(state.f @ capacity) / float(capacity.sum())
    f_star = (1.0 - spec.cfg.tau * p_in) * scale
    dev = float(np.abs(state.f - f_star).max()) / scale
    ok = analytic_err <= 1e-12 and dev <= 0.1
    report(6, "bfdba-fixed-point", ok,
           f"analytic fixed-point residual {analytic_err:.2e} (bound 1e-12), "
           f"relative deviation after 50 periods {dev:.4f} (bound 0.1)")


def test_c07_bdba_tracks_slow_traffic_drift():
    bundle = drift_bundle(periods=100, total_users=60000, seed=7)
    cfg = AlgorithmConfig(gamma=0.5, r_c=-120.0, n_s=5000, coverage_sample=3000)
    spec = ExperimentSpec(*bundle, cfg=cfg, algorithm="bdba", periods=100,
                          seed=9)
    d = run_experiment(spec).metrics.d_inf
    tracked = float(d[19:].max())
    ok = tracked <= 0.25
    report(7, "drift-tracking", ok,
           f"max disagreement over periods 20..100 is {tracked:.4f} "
           f"(bound 0.25), start was {d[0]:.3f}")


def test_c08_coverage_evaluation_and_search_at_scale():
    topo, pathloss, scenario = random_bundle(nx=5, ny=4, periods=1,
                                             total_users=60000, seed=77)
    users = sample_users(scenario, pathloss, topo, 1)
    p = topo.initial_powers()
    ds = remove_redundant(to_attenuation(generate_mr(users, p, 6), p))

    def brute_force(powers, r_c):
        covered = sum(
            1 for idx in range(len(ds))
            if any(v <= powers[aid - 1] - r_c for aid, v in ds.record(idx).entries))
        return covered / len(ds)

    rng = np.random.default_rng(8)
    exact_ok = True
    rep = exact_coverage(ds, p, -95.0)
    exact_ok &= rep.F == brute_force(p, -95.0)
    perturbed = p + rng.uniform(-6.0, 3.0, size=topo.n)
    exact_ok &= exact_coverage(ds, perturbed, -95.0).F == brute_force(perturbed, -95.0)

    class Counting:
        def __init__(self, inner):
            self.inner, self.neighbours, self.calls = inner, inner.neighbours, 0

        def rates(self, powers):
            self.calls += 1
            return self.inner.rates(powers)

    evaluator = Counting(ExactNeighbourhoodEvaluator(ds, -95.0))
    start = p - 8.0
    p_max = np.array([a.p_max for a in topo.antennas])
    bound = int(np.ceil((p_max - start) / 1.0).sum())
    p_min = min_power_search(start, topo, evaluator, f_con=0.999, delta_p=1.0)
    rates_after = evaluator.inner.rates(p_min)
    search_ok = (np.all(p_min >= start) and np.all(p_min <= p_max)
                 and np.all(rates_after >= 0.999)
                 and evaluator.calls <= bound + 1)

    with pytest.raises(InfeasibleCoverage):
        min_power_search(p, topo, ExactNeighbourhoodEvaluator(ds, -60.0),
                         f_con=0.999, delta_p=1.0)

    ok = rep.k_prime >= 10000 and exact_ok and search_ok
    report(8, "coverage-at-scale", ok,
           f"deduplicated batch size {rep.k_prime} (need >= 10000), exact "
           f"evaluator == brute force: {exact_ok}, search met the floor in "
           f"{evaluator.calls} rounds (bound {bound + 1}), infeasible floor "
           f"raised as expected")


def test_c09_coverage_surrogate_accuracy_and_monotonicity():
    dims = 5
    weights = np.array([0.35, 0.25, 0.2, 0.12, 0.08])
    lo, hi = 20.0, 50.0

    def target(x):
        x01 = (x - lo) / (hi - lo)
        bumps = weights * (1.0 / (1.0 + np.exp(-6.0 * (x01 - 0.45))))
        return 1.0 - np.prod(1.0 - bumps, axis=1)

    rng = np.random.default_rng(7)
    x_train = rng.uniform(lo, hi, size=(4000, dims))
    x_test = rng.uniform(lo, hi, size=(1500, dims))
    net = train_surrogate(x_train, target(x_train), epochs=4000, lr=0.02,
                          seed=3, input_min=np.full(dims, lo),
                          input_max=np.full(dims, hi))
    mae = float(np.abs(net.predict(x_test) - target(x_test)).mean())

    a = rng.uniform(lo, hi, size=(1000, dims))
    b = rng.uniform(lo, hi, size=(1000, dims))
    lo_pts, hi_pts = np.minimum(a, b), np.maximum(a, b)
    violations = int((net.predict(hi_pts) < net.predict(lo_pts) - 1e-12).sum())

    ok = mae <= 0.05 and violations == 0
    report(9, "surrogate-quality", ok,
           f"held-out MAE {mae:.4f} (bound 0.05), monotonicity violations "
           f"{violations}/1000 ordered pairs")


def test_c10_fast_variant_is_not_slower_on_a_large_network():
    bundle = random_bundle(nx=25, ny=20, periods=3, total_users=60000,
                           n_hotspots=8, seed=21)
    cfg = AlgorithmConfig(gamma=0.5, tau=0.001, r_c=-120.0, n_s=2000,
                          coverage_sample=4000)
    means = {}
    for algo in ("bdba", "bfdba"):
        spec = ExperimentSpec(*bundle, cfg=cfg, algorithm=algo, periods=3,
                              seed=17)
        means[algo] = run_experiment(spec).metrics.mean_step_seconds
    ratio = means["bfdba"] / means["bdba"]
    ok = ratio <= 1.0
    report(10, "fast-variant-speed", ok,
           f"mean step time on 500 antennas: bfdba {means['bfdba'] * 1e3:.1f} ms "
           f"vs bdba {means['bdba'] * 1e3:.1f} ms, ratio {ratio:.3f} (bound 1.0)")


def test_c11_tidal_day_improves_on_the_static_baseline():
    bundle = tidal_bundle(periods=24, total_users=40000, seed=3)
    cfg = AlgorithmConfig(gamma=0.5, tau=0.001, r_c=-95.0, f_con=0.999,
                          n_s=5000, coverage_sample=3000)
    metrics = {}
    for algo in ("none", "bdba", "bfdba"):
        spec = ExperimentSpec(*bundle, cfg=cfg, algorithm=algo, periods=24,
                              seed=13)
        metrics[algo] = run_experiment(spec).metrics
    parts = []
    ok = True
    for algo in ("bdba", "bfdba"):
        cmp = compare_runs(metrics["none"], metrics[algo])
        std_red = cmp["mean_std_busy"]["reduction_pct"]
        over_red = cmp["mean_over_busy"]["reduction_pct"]
        cov = metrics[algo].min_coverage
        ok &= std_red >= 30.0 and over_red >= 30.0 and cov >= cfg.f_con
        parts.append(f"{algo}: busy spread -{std_red:.1f}%, over-busy share "
                     f"-{over_red:.1f}%, min coverage {cov:.4f}")
    report(11, "tidal-improvement", ok,
           "; ".join(parts) + " (need >= 30% and coverage >= 0.999)")
