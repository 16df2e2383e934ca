"""Experiment orchestration: multi-period runs under {none, bdba, bfdba},
per-period balance metrics, run comparison, and the on-disk results layout
(metrics.csv, steps.jsonl, manifest.json, charts/*.svg)."""

from __future__ import annotations

import csv
import inspect
import json
import os
import platform
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .balancer import DENSE_LIMIT, BalanceStep, save_steps_jsonl, step
from .busy import BusyState, busy_degrees, disagreement, targets
from .coverage import ExactNeighbourhoodEvaluator, exact_coverage
from .model import AlgorithmConfig, ConfigError, NetworkTopology, check_keys, config_field, floats, topology_from_dict, topology_to_dict
from .mrdata import generate_mr, remove_redundant, subsample, to_attenuation
from .synth import (
    ScenarioBundle,
    drift_bundle,
    grid_topology,
    proportional_bundle,
    random_bundle,
    tidal_bundle,
    two_island_bundle,
)
from .traffic import (
    PathlossModel,
    TrafficScenario,
    _sampling_workers,
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
        if self.seed < 0:
            raise ConfigError(f"run seed must be non-negative, got {self.seed}")
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
    blocks describe the world, never both; 'cfg' holds AlgorithmConfig
    overrides. A key that no block knows raises a ConfigError naming the
    block and the key.
    """
    check_keys(d, ("bundle", "topology", "scenario", "pathloss", "cfg",
                   "algorithm", "periods", "seed", "output_dir"), "spec")
    if "bundle" in d:
        explicit = [key for key in ("topology", "scenario", "pathloss")
                    if key in d]
        if explicit:
            raise ConfigError(f"spec: the 'bundle' block cannot go with "
                              f"{explicit}: a bundle builds the whole world")
        block = config_field(d, "bundle", dict, "spec")
        if "name" not in block:
            raise ConfigError("the bundle block is missing its 'name'")
        name = config_field(block, "name", str, "bundle")
        del block["name"]
        if name not in _BUNDLES:
            raise ConfigError(f"unknown bundle {name!r}; "
                              f"choose from {sorted(_BUNDLES)}")
        allowed = _bundle_keywords(_BUNDLES[name])
        unknown = sorted(set(block) - set(allowed), key=str)
        if unknown:
            raise ConfigError(f"bundle {name!r} takes no keyword(s) {unknown}; "
                              f"choose from {sorted(allowed)}")
        kwargs = {key: config_field(block, key, kind, "bundle", default)
                  for key, (kind, default) in allowed.items() if key in block}
        if kwargs.get("seed", 0) < 0:
            raise ConfigError(
                f"bundle: seed must be non-negative, got {kwargs['seed']}")
        for key in ("nx", "ny", "n_hotspots"):
            if kwargs.get(key, 1) < 1:
                raise ConfigError(
                    f"bundle: {key} must be at least 1, got {kwargs[key]}")
        betas = kwargs.get("betas")
        if betas is not None:
            if not all(np.isfinite(b) and b >= 0 for b in betas):
                raise ConfigError("bundle: betas must be finite and "
                                  f"non-negative, got {list(betas)}")
            if len(betas) != kwargs.get("periods", len(betas)):
                raise ConfigError(
                    f"bundle: betas lists {len(betas)} period(s), "
                    f"periods is {kwargs['periods']}")
        topo, pathloss, scenario = _BUNDLES[name](**kwargs)
    else:
        try:
            raw_topo, raw_scenario = d["topology"], d["scenario"]
        except KeyError as exc:
            raise ConfigError(f"spec is missing the {exc.args[0]!r} block") from exc
        topo = topology_from_dict(raw_topo)
        scenario = scenario_from_dict(raw_scenario)
        pathloss = pathloss_from_dict(d.get("pathloss", {}))
    overrides = d.get("cfg", {})
    if not isinstance(overrides, dict):
        raise ConfigError(f"spec: cfg {overrides!r} is not an object of "
                          "AlgorithmConfig fields")
    # keyword arguments must be strings; a dict built in Python may hold others
    bad = [key for key in overrides if not isinstance(key, str)]
    if bad:
        raise ConfigError(f"spec: cfg key(s) {bad!r} are not strings")
    cfg = AlgorithmConfig().with_overrides(**overrides)
    return ExperimentSpec(
        topo=topo, pathloss=pathloss, scenario=scenario, cfg=cfg,
        algorithm=d.get("algorithm", "none"),
        periods=config_field(d, "periods", int, "spec", scenario.horizon),
        seed=config_field(d, "seed", int, "spec", 0),
        output_dir=config_field(d, "output_dir", str, "spec", None),
        raw=d,
    )


# the kinds of the bundle keywords whose default is None
_NONE_DEFAULT_KINDS = {"p_max": float, "betas": floats}


def _bundle_keywords(factory: Callable[..., ScenarioBundle]) -> dict[str, tuple]:
    """The keywords a bundle generator takes, each mapped to (kind,
    default), where the kind is the default's own, or the one in
    ``_NONE_DEFAULT_KINDS`` for a None default: the generator's own
    parameters, plus the ``grid_topology`` options it forwards through
    ``**grid_kw``."""
    params = list(inspect.signature(factory).parameters.values())
    if any(p.kind is p.VAR_KEYWORD for p in params):
        # the bundles fix the grid's shape themselves
        grid = inspect.signature(grid_topology).parameters.values()
        params = [p for p in grid if p.name not in ("nx", "ny")] + params
    return {p.name: (_NONE_DEFAULT_KINDS.get(p.name, type(p.default)), p.default)
            for p in params if p.kind is not p.VAR_KEYWORD}


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
            header = next(reader, [])
            if tuple(header) != _METRIC_COLUMNS:
                raise ValueError(f"unexpected metrics header {header}")
            rows = []
            for row in reader:
                if len(row) != len(header):
                    raise ValueError(f"line {reader.line_num} has {len(row)} "
                                     f"fields, the header {len(header)}")
                rows.append(tuple(row))
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
    # the subsample picks rows from the batch size and the seed alone, and
    # the domain switch works row by row: switching only the kept rows gives
    # the same batch
    cov = subsample(mr, cfg.coverage_sample, seed=seed)
    return remove_redundant(to_attenuation(cov, powers))


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
    if out is not None:
        # an unusable directory fails before the first period, not after
        # the last
        out.mkdir(parents=True, exist_ok=True)
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
            # the batch was recorded at p: its serving antennas are the
            # strongest-pilot assignment
            f = busy_degrees(mr.serving(), users, topo)
            f_bar = targets(f, topo, cfg.target_mode)
            state = BusyState(period=k, f=f, f_bar=f_bar,
                              d=disagreement(f, f_bar))
            seconds = 0.0
            if spec.algorithm != "none":
                evaluator = ExactNeighbourhoodEvaluator(cov, cfg.r_c)
                rec = step(topo, p, state, mr, evaluator, cfg, spec.algorithm,
                           seed=spec.seed + k)
                steps.append(rec)
                seconds = rec.duration_s
                p = rec.p_next
            # coverage the chosen powers provide on this period's records;
            # for the baseline these are the recording powers themselves
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
    # imported here: the run itself needs neither
    import importlib.metadata

    import scipy

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
    for label, run in (("a", a), ("b", b)):
        if not len(run):
            raise ValueError(f"run {label} completed no period; "
                             "there is nothing to compare")
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
