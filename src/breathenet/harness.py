"""Experiment orchestration: multi-period runs under {none, bdba, bfdba},
per-period balance metrics, run comparison, the invariant property suite,
and the on-disk results layout (metrics.csv, steps.jsonl, manifest.json,
charts/*.svg)."""

from __future__ import annotations

import csv
import importlib.metadata
import json
import os
import platform
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import scipy

from .balancer import DENSE_LIMIT, BalanceStep, SingularJacobian, bdba_solve, bfdba_solve, save_steps_jsonl, step
from .busy import BusyState, busy_degrees, disagreement, targets
from .coverage import ExactNeighbourhoodEvaluator, exact_coverage
from .jacobian import approx_from_matrix, estimate_jacobian, laplacian_check, support_graph
from .model import AlgorithmConfig, ConfigError, NetworkTopology, topology_from_dict, topology_to_dict
from .mrdata import generate_mr, remove_redundant, subsample, to_attenuation
from .synth import ScenarioBundle, drift_bundle, proportional_bundle, random_bundle, tidal_bundle, two_island_bundle
from .traffic import (
    PathlossModel,
    TrafficScenario,
    _sampling_workers,
    assign_users,
    pathloss_from_dict,
    pathloss_to_dict,
    sample_users,
    scenario_from_dict,
    scenario_to_dict,
)

ALGORITHMS = ("none", "bdba", "bfdba")

_BUNDLES: dict[str, Callable[..., ScenarioBundle]] = {
    "random": random_bundle,
    "proportional": proportional_bundle,
    "drift": drift_bundle,
    "tidal": tidal_bundle,
    "two-island": two_island_bundle,
}


@dataclass
class ExperimentSpec:
    topo: NetworkTopology
    pathloss: PathlossModel
    scenario: TrafficScenario
    cfg: AlgorithmConfig
    algorithm: str = "none"
    periods: int = 1
    seed: int = 0
    output_dir: str | None = None
    # raw holds the dict the spec was parsed from, echoed into the manifest
    raw: dict | None = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.periods < 1:
            raise ConfigError("periods must be at least 1")
        if self.periods > self.scenario.horizon:
            raise ConfigError(
                f"periods={self.periods} exceeds the scenario horizon "
                f"{self.scenario.horizon}")
        if self.algorithm == "bdba" and self.topo.n > DENSE_LIMIT:
            raise ConfigError(
                "algorithm 'bdba' solves densely and takes at most "
                f"{DENSE_LIMIT} antennas, this topology has {self.topo.n}; "
                "use 'bfdba'")


def spec_from_dict(d: dict) -> ExperimentSpec:
    """Build a spec from a plain dict (the on-disk JSON format).

    Either a 'bundle' block ({"name": ..., **kwargs} naming a built-in
    generator) or explicit 'topology' + 'scenario' (+ optional 'pathloss')
    blocks describe the world; 'cfg' holds AlgorithmConfig overrides.
    """
    if "bundle" in d:
        block = dict(d["bundle"])
        name = block.pop("name")
        if name not in _BUNDLES:
            raise ConfigError(f"unknown bundle {name!r}; "
                              f"choose from {sorted(_BUNDLES)}")
        topo, pathloss, scenario = _BUNDLES[name](**block)
    else:
        try:
            topo = topology_from_dict(d["topology"])
            scenario = scenario_from_dict(d["scenario"])
        except KeyError as exc:
            raise ConfigError(f"spec is missing the {exc.args[0]!r} block") from exc
        pathloss = pathloss_from_dict(d.get("pathloss", {}))
    cfg = AlgorithmConfig().with_overrides(**d.get("cfg", {}))
    return ExperimentSpec(
        topo=topo, pathloss=pathloss, scenario=scenario, cfg=cfg,
        algorithm=d.get("algorithm", "none"),
        periods=int(d.get("periods", scenario.horizon)),
        seed=int(d.get("seed", 0)),
        output_dir=d.get("output_dir"),
        raw=d,
    )


def spec_to_dict(spec: ExperimentSpec) -> dict:
    from dataclasses import asdict

    return {
        "topology": topology_to_dict(spec.topo),
        "pathloss": pathloss_to_dict(spec.pathloss),
        "scenario": scenario_to_dict(spec.scenario),
        "cfg": asdict(spec.cfg),
        "algorithm": spec.algorithm,
        "periods": spec.periods,
        "seed": spec.seed,
        "output_dir": spec.output_dir,
    }


_METRIC_COLUMNS = ("period", "std_busy", "over_busy", "d_inf", "coverage",
                   "step_seconds")


@dataclass
class MetricsSeries:
    """Per-period balance metrics of one run.

    std_busy is the root-mean-square gap between busy-degrees and their
    targets; over_busy the share of antennas at or above the threshold.
    """

    period: np.ndarray
    std_busy: np.ndarray
    over_busy: np.ndarray
    d_inf: np.ndarray
    coverage: np.ndarray
    step_seconds: np.ndarray

    def __post_init__(self):
        cols = [np.asarray(getattr(self, c)) for c in _METRIC_COLUMNS]
        if len({len(c) for c in cols}) != 1:
            raise ValueError("metric columns must share one length")
        self.period = np.asarray(self.period, dtype=int)
        for name in _METRIC_COLUMNS[1:]:
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        if len(self.period) and np.any(np.diff(self.period) <= 0):
            raise ValueError("periods must be strictly increasing")
        for name in ("over_busy", "coverage"):
            v = getattr(self, name)
            if len(v) and (v.min() < 0 or v.max() > 1):
                raise ValueError(f"{name} must lie in [0, 1]")
        if len(self.std_busy) and self.std_busy.min() < 0:
            raise ValueError("std_busy must be non-negative")

    def __len__(self) -> int:
        return len(self.period)

    @property
    def mean_std_busy(self) -> float:
        return float(self.std_busy.mean())

    @property
    def mean_over_busy(self) -> float:
        return float(self.over_busy.mean())

    @property
    def mean_step_seconds(self) -> float:
        return float(self.step_seconds.mean())

    @property
    def min_coverage(self) -> float:
        return float(self.coverage.min())

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(_METRIC_COLUMNS)
            for row in zip(*(getattr(self, c) for c in _METRIC_COLUMNS)):
                w.writerow([int(row[0])] + [repr(float(v)) for v in row[1:]])

    @classmethod
    def from_csv(cls, path) -> "MetricsSeries":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if tuple(header) != _METRIC_COLUMNS:
                raise ValueError(f"unexpected metrics header {header}")
            rows = [tuple(r) for r in reader]
        cols = list(zip(*rows)) if rows else [[] for _ in _METRIC_COLUMNS]
        return cls(period=np.array([int(v) for v in cols[0]]),
                   **{name: np.array([float(v) for v in cols[k]])
                      for k, name in enumerate(_METRIC_COLUMNS) if k > 0})


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    metrics: MetricsSeries
    steps: list[BalanceStep]
    busy: list[BusyState]
    final_powers: np.ndarray
    # period, exception type and message of the failure that ended the run
    aborted: dict | None = None


def _metrics_row(state: BusyState, threshold: float) -> tuple[float, float, float]:
    gap = state.f - state.f_bar
    std = float(np.sqrt(np.mean(gap * gap)))
    over = float(np.mean(state.f >= threshold))
    return std, over, float(np.abs(state.d).max())


def _coverage_dataset(mr, powers, cfg: AlgorithmConfig, seed: int):
    cov = to_attenuation(mr, powers)
    cov = subsample(cov, cfg.coverage_sample, seed=seed)
    return remove_redundant(cov)


def run_experiment(spec: ExperimentSpec, output_dir=None,
                   progress: bool = False) -> ExperimentResult:
    """Run the spec for its period count and return metrics plus step records.

    Deterministic for fixed seeds apart from the wall-clock column. With
    algorithm='none' the powers never move (the static baseline). If a
    period raises (for example an infeasible coverage floor), results for
    the committed periods are still written, with the failing period and
    the exception recorded under "aborted" in the manifest, before the
    error propagates.
    """
    out = Path(output_dir) if output_dir is not None else (
        Path(spec.output_dir) if spec.output_dir else None)
    topo, cfg = spec.topo, spec.cfg
    p = topo.initial_powers()
    rows: list[tuple] = []
    steps: list[BalanceStep] = []
    busy: list[BusyState] = []
    try:
        for k in range(1, spec.periods + 1):
            users = sample_users(spec.scenario, spec.pathloss, topo, k)
            mr = generate_mr(users, p, cfg.top_m)
            cov = _coverage_dataset(mr, p, cfg, seed=spec.seed + 7919 * k)
            if spec.algorithm == "none":
                # the batch was recorded at p: its serving antennas are the
                # strongest-pilot assignment
                f = busy_degrees(mr.serving(), users, topo)
                f_bar = targets(f, topo, cfg.target_mode)
                state = BusyState(period=k, f=f, f_bar=f_bar,
                                  d=disagreement(f, f_bar))
                seconds = 0.0
            else:
                evaluator = ExactNeighbourhoodEvaluator(cov, cfg.r_c)
                rec = step(topo, p, users, mr, evaluator, cfg,
                           spec.algorithm, period=k, seed=spec.seed + k)
                steps.append(rec)
                state = rec.busy
                seconds = rec.duration_s
                p = rec.p_next
            # coverage the chosen powers provide on this period's records;
            # for the baseline these are the recording powers themselves.
            # The staleness warning is expected here: the query drifts from
            # the recording powers by exactly this period's adjustment.
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", message=".*recorded.*away from.*")
                F = exact_coverage(cov, p, cfg.r_c).F
            busy.append(state)
            std, over, dinf = _metrics_row(state, cfg.over_busy_threshold)
            rows.append((k, std, over, dinf, F, seconds))
            if progress:
                print(f"period {k:4d}  std={std:.4f}  over={over:.3f}  "
                      f"d_inf={dinf:.4f}  F={F:.5f}", flush=True)
    except Exception as exc:
        if out is not None:
            partial = ExperimentResult(
                spec, _series_from_rows(rows), steps, busy, p,
                aborted={"period": k, "type": type(exc).__name__,
                         "message": str(exc)})
            write_results(partial, out)
        raise
    result = ExperimentResult(spec, _series_from_rows(rows), steps, busy, p)
    if out is not None:
        write_results(result, out)
    return result


def _series_from_rows(rows) -> MetricsSeries:
    arr = list(zip(*rows)) if rows else [[] for _ in _METRIC_COLUMNS]
    return MetricsSeries(*[np.asarray(c) for c in arr])


def _versions() -> dict:
    try:
        own = importlib.metadata.version("breathenet")
    except importlib.metadata.PackageNotFoundError:
        own = "unknown"
    return {"breathenet": own, "numpy": np.__version__,
            "scipy": scipy.__version__, "python": platform.python_version()}


def _threads() -> dict:
    """The user-sampling thread count, the BLAS thread settings as the
    environment holds them (null when unset) and the BLAS build."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        blas = None
    return {"sampling_workers": _sampling_workers(),
            **{var: os.environ.get(var) for var in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "blas": blas}


def write_results(result: ExperimentResult, out_dir) -> Path:
    """Write metrics.csv, steps.jsonl, busy.csv, manifest.json and one SVG
    chart per metric. Everything except wall-clock fields is reproducible
    byte for byte for a fixed spec."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result.metrics.to_csv(out / "metrics.csv")
    save_steps_jsonl(result.steps, out / "steps.jsonl")
    with open(out / "busy.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["period", "antenna_id", "f", "f_bar", "d"])
        for state in result.busy:
            for i in range(len(state.f)):
                w.writerow([state.period, i + 1, repr(float(state.f[i])),
                            repr(float(state.f_bar[i])), repr(float(state.d[i]))])
    spec = result.spec
    manifest = {
        "spec": spec.raw if spec.raw is not None else spec_to_dict(spec),
        "versions": _versions(),
        "threads": _threads(),
        "seeds": {"run": spec.seed, "scenario": spec.scenario.seed,
                  "pathloss": spec.pathloss.seed},
        "algorithm": spec.algorithm,
        "periods_completed": len(result.metrics),
    }
    if result.aborted is not None:
        manifest["aborted"] = result.aborted
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    charts = out / "charts"
    charts.mkdir(exist_ok=True)
    m = result.metrics
    for name in _METRIC_COLUMNS[1:]:
        _write_svg_chart(charts / f"{name}.svg", name, m.period,
                         getattr(m, name))
    return out


def _write_svg_chart(path, title: str, xs, ys) -> None:
    """Minimal self-contained line chart; no third-party plotting."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    width, height, pad = 640.0, 360.0, 46.0
    x0, x1 = (float(xs.min()), float(xs.max())) if len(xs) else (0.0, 1.0)
    y0, y1 = (float(ys.min()), float(ys.max())) if len(ys) else (0.0, 1.0)
    if x1 - x0 < 1e-12:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 < 1e-12:
        y0, y1 = y0 - 0.5, y1 + 0.5
    def sx(v):
        return pad + (v - x0) / (x1 - x0) * (width - 2 * pad)
    def sy(v):
        return height - pad - (v - y0) / (y1 - y0) * (height - 2 * pad)
    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
        f'stroke="black"/>',
        f'<text x="{pad}" y="{height - pad + 18}" font-family="sans-serif" '
        f'font-size="11">{x0:.6g}</text>',
        f'<text x="{width - pad}" y="{height - pad + 18}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{x1:.6g}</text>',
        f'<text x="{pad - 4}" y="{height - pad}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{y0:.6g}</text>',
        f'<text x="{pad - 4}" y="{pad + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{y1:.6g}</text>',
    ]
    if len(xs) == 1:
        parts.append(f'<circle cx="{sx(xs[0]):.2f}" cy="{sy(ys[0]):.2f}" '
                     f'r="3" fill="steelblue"/>')
    elif len(xs):
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="steelblue" stroke-width="1.5"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def _reduction_pct(before: float, after: float) -> float | None:
    # undefined when the baseline mean is zero but the treated one is not
    if before == 0.0:
        return 0.0 if after == 0.0 else None
    return 100.0 * (1.0 - after / before)


def compare_runs(a: MetricsSeries, b: MetricsSeries) -> dict:
    """Percentage reductions of run b relative to run a (positive = b lower).

    Covers the mean busy-degree standard deviation, the mean over-busy
    proportion and the mean step wall-clock; d_inf and the minimum coverage
    ride along for context.
    """
    if len(a) != len(b):
        raise ValueError(f"runs cover different period counts "
                         f"({len(a)} vs {len(b)})")

    def block(ma: float, mb: float) -> dict:
        return {"a": ma, "b": mb, "reduction_pct": _reduction_pct(ma, mb)}

    return {
        "periods": len(a),
        "mean_std_busy": block(a.mean_std_busy, b.mean_std_busy),
        "mean_over_busy": block(a.mean_over_busy, b.mean_over_busy),
        "mean_step_seconds": block(a.mean_step_seconds, b.mean_step_seconds),
        "mean_d_inf": block(float(a.d_inf.mean()), float(b.d_inf.mean())),
        "min_coverage": {"a": a.min_coverage, "b": b.min_coverage},
    }


class PropertyCheck(NamedTuple):
    name: str
    passed: bool
    detail: str


def _quiet_run(spec: ExperimentSpec) -> ExperimentResult:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_experiment(spec)


def _check_laplacian(quick: bool = False) -> PropertyCheck:
    """Estimator structure on fresh scenarios at recording powers.

    Uses a narrow perturbation (the one-sided counts only agree as the
    shift band narrows) and scenarios large enough that every antenna fills
    its n_s sampling budget, so the residual reflects the estimator rather
    than small-sample noise.
    """
    cfg = AlgorithmConfig(epsilon=0.02, n_s=5000, r_c=-120.0)
    worst = 0.0
    violations = 0
    sigma_ok = True
    for s in range(2 if quick else 10):
        topo, pathloss, scenario = random_bundle(
            periods=1, total_users=100000, seed=100 + s, background=0.5)
        p = topo.initial_powers()
        users = sample_users(scenario, pathloss, topo, 1)
        mr = generate_mr(users, p, cfg.top_m)
        f = busy_degrees(assign_users(users, p), users, topo)
        f_bar = targets(f, topo, cfg.target_mode)
        approx = estimate_jacobian(mr, p, f, f_bar, topo, cfg, seed=s)
        rep = laplacian_check(approx, f_bar)
        sg = support_graph(approx)
        worst = max(worst, rep.max_relative_residual)
        violations += rep.sign_violations
        if sg.strongly_connected and rep.second_smallest_singular_value <= 0:
            sigma_ok = False
    ok = violations == 0 and worst <= 0.05 and sigma_ok
    detail = (f"sign_violations={violations}, "
              f"max_row_residual={worst:.4f} (limit 0.05), "
              f"sigma2_positive_under_connectivity={sigma_ok}")
    return PropertyCheck("laplacian-structure", ok, detail)


def _check_zero_sum(bundle: ScenarioBundle, cfg: AlgorithmConfig,
                    periods: int, seed: int) -> PropertyCheck:
    spec = ExperimentSpec(*bundle, cfg=cfg, algorithm="bdba", periods=periods,
                          seed=seed)
    result = _quiet_run(spec)
    worst = 0.0
    checked = 0
    for rec in result.steps:
        if rec.fallback or rec.held:
            continue
        checked += 1
        norm = np.abs(rec.u).sum()
        if norm > 0:
            worst = max(worst, abs(rec.u.sum()) / norm)
    ok = checked > 0 and worst <= 1e-9
    return PropertyCheck(
        "zero-sum-adjustment", ok,
        f"max |sum u| / ||u||_1 = {worst:.3e} over {checked} steps (limit 1e-9)")


def _check_pseudoinverse() -> PropertyCheck:
    approx = approx_from_matrix([[1.0, -1.0], [-1.0, 1.0]])
    u, _ = bdba_solve(approx, np.array([0.2, -0.2]))
    err = float(np.abs(u - np.array([0.1, -0.1])).max())
    return PropertyCheck("pseudoinverse-analytic", err <= 1e-12,
                         f"|u - (0.1, -0.1)|_inf = {err:.3e} (limit 1e-12)")


def _check_fast_fixed_point() -> PropertyCheck:
    diag = np.array([0.8, 1.2, 1.0])
    approx = approx_from_matrix(np.diag(diag))
    p = np.array([43.0, 40.0, 41.0])
    tau = 0.001
    d = tau * p  # the disagreement exactly at the fast balancer's fixed point
    u, _ = bfdba_solve(approx, d, p, tau)
    err = float(np.abs(u).max())
    return PropertyCheck("fast-balancer-fixed-point", err <= 1e-12,
                         f"|u|_inf at the fixed point = {err:.3e} (limit 1e-12)")


def _check_singular_fallback(quick: bool, cfg: AlgorithmConfig) -> PropertyCheck:
    bundle = two_island_bundle(total_users=2500 if quick else 4000, seed=17)
    topo, pathloss, scenario = bundle
    p = topo.initial_powers()
    users = sample_users(scenario, pathloss, topo, 1)
    mr = generate_mr(users, p, cfg.top_m)
    assignment = assign_users(users, p)
    f = busy_degrees(assignment, users, topo)
    f_bar = targets(f, topo, cfg.target_mode)
    approx = estimate_jacobian(mr, p, f, f_bar, topo, cfg, seed=5)
    sg = support_graph(approx)
    raised = False
    try:
        bdba_solve(approx, disagreement(f, f_bar))
    except SingularJacobian as exc:
        raised = len(exc.components) >= 2
    spec = ExperimentSpec(*bundle, cfg=cfg, algorithm="bdba", periods=1, seed=17)
    result = _quiet_run(spec)
    fell_back = bool(result.steps and result.steps[0].fallback)
    ok = (not sg.strongly_connected) and raised and fell_back
    return PropertyCheck(
        "designed-singular-fallback", ok,
        f"strongly_connected={sg.strongly_connected}, solver_raised={raised}, "
        f"step_fell_back={fell_back}")


def _check_consensus(quick: bool, seed: int) -> PropertyCheck:
    periods = 12 if quick else 50
    users = 25000 if quick else 100000
    bundle = proportional_bundle(periods=periods, total_users=users, seed=seed)
    cfg = AlgorithmConfig(gamma=0.5, r_c=-120.0, f_con=0.999,
                          n_s=1500 if quick else 5000,
                          coverage_sample=1500 if quick else 4000)
    spec = ExperimentSpec(*bundle, cfg=cfg, algorithm="bdba", periods=periods,
                          seed=seed)
    result = _quiet_run(spec)
    d0 = float(result.metrics.d_inf[0])
    dT = float(result.metrics.d_inf[-1])
    ok = dT <= (0.2 if quick else 0.05) and dT < d0
    return PropertyCheck(
        "consensus-proportional", ok,
        f"d_inf fell {d0:.3f} -> {dT:.3f} over {periods} steps "
        f"(limit {'0.2 quick' if quick else '0.05'})")


def _check_reproducibility(bundle: ScenarioBundle, cfg: AlgorithmConfig,
                           periods: int, seed: int) -> PropertyCheck:
    spec = ExperimentSpec(*bundle, cfg=cfg, algorithm="bdba",
                          periods=periods, seed=seed)
    r1 = _quiet_run(spec)
    r2 = _quiet_run(spec)
    same = all(np.array_equal(getattr(r1.metrics, c), getattr(r2.metrics, c))
               for c in _METRIC_COLUMNS if c != "step_seconds")
    same = same and all(np.array_equal(s1.p_next, s2.p_next)
                        and np.array_equal(s1.u, s2.u)
                        for s1, s2 in zip(r1.steps, r2.steps))
    same = same and all(np.array_equal(b1.f, b2.f)
                        for b1, b2 in zip(r1.busy, r2.busy))
    return PropertyCheck(
        "reproducibility", same,
        "two identical runs matched exactly (timing excluded)" if same
        else "re-run diverged from the first run")


def _check_baseline_neutral(bundle: ScenarioBundle, cfg: AlgorithmConfig,
                            periods: int, seed: int) -> PropertyCheck:
    spec = ExperimentSpec(*bundle, cfg=cfg, algorithm="none",
                          periods=periods, seed=seed)
    result = _quiet_run(spec)
    held = np.array_equal(result.final_powers, bundle.topo.initial_powers())
    ok = held and not result.steps and float(result.metrics.step_seconds.max(
        initial=0.0)) == 0.0
    return PropertyCheck(
        "baseline-neutrality", ok,
        "powers untouched and no adjustment records" if ok
        else f"powers_held={held}, steps={len(result.steps)}")


def property_suite(bundle: ScenarioBundle | None = None,
                   cfg: AlgorithmConfig | None = None,
                   quick: bool = False) -> list[PropertyCheck]:
    """Execute the named invariant checks and return their ledger.

    The supplied bundle feeds the structural checks; the consensus and
    designed-failure checks always build their dedicated scenarios. quick
    trims user counts and step counts for test-suite latency.
    """
    soak = 3 if quick else 10
    if bundle is None:
        bundle = random_bundle(periods=soak, total_users=8000 if quick else 30000,
                               seed=11)
    if cfg is None:
        cfg = AlgorithmConfig(gamma=0.5, r_c=-120.0,
                              n_s=1500 if quick else 5000,
                              coverage_sample=1500 if quick else 4000)
    soak = min(soak, bundle.scenario.horizon)
    checks = [
        _check_laplacian(quick),
        _check_zero_sum(bundle, cfg, periods=soak, seed=23),
        _check_pseudoinverse(),
        _check_fast_fixed_point(),
        _check_singular_fallback(quick, cfg),
        _check_consensus(quick, seed=29),
        _check_reproducibility(bundle, cfg, periods=min(2, soak), seed=31),
        _check_baseline_neutral(bundle, cfg, periods=min(2, soak), seed=37),
    ]
    return checks
