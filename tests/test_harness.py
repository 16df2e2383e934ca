"""Experiment orchestration: specs, runs, persistence, comparison, the
property suite and the CLI."""

import json

import numpy as np
import pytest

from breathenet.balancer import DENSE_LIMIT
from breathenet.coverage import InfeasibleCoverage
from breathenet.harness import (
    ExperimentSpec,
    MetricsSeries,
    compare_runs,
    property_suite,
    run_experiment,
    spec_from_dict,
    spec_to_dict,
    write_results,
)
from breathenet.model import AlgorithmConfig, Antenna, ConfigError, NetworkTopology
from breathenet.synth import proportional_bundle, random_bundle
from breathenet.traffic import Hotspot, PathlossModel, PeriodSpec, TrafficScenario, _sampling_workers

QUICK_CFG = AlgorithmConfig(gamma=0.5, r_c=-120.0, n_s=1500,
                            coverage_sample=1000)


def quick_spec(algorithm="bdba", periods=2, seed=3, cfg=QUICK_CFG, **bundle_kw):
    kw = dict(nx=3, ny=2, periods=periods, total_users=6000, seed=11)
    kw.update(bundle_kw)
    bundle = random_bundle(**kw)
    return ExperimentSpec(*bundle, cfg=cfg, algorithm=algorithm,
                          periods=periods, seed=seed)


def series(periods, std, over=0.0, d_inf=0.0, coverage=1.0, seconds=0.0):
    k = len(periods)
    return MetricsSeries(period=np.asarray(periods),
                         std_busy=np.full(k, std), over_busy=np.full(k, over),
                         d_inf=np.full(k, d_inf),
                         coverage=np.full(k, coverage),
                         step_seconds=np.full(k, seconds))


class TestSpecs:
    def test_round_trip_through_dict(self):
        spec = quick_spec()
        again = spec_from_dict(spec_to_dict(spec))
        assert again.topo == spec.topo
        assert again.scenario == spec.scenario
        assert again.pathloss == spec.pathloss
        assert again.cfg == spec.cfg
        assert again.algorithm == spec.algorithm

    def test_bundle_block(self):
        spec = spec_from_dict({
            "bundle": {"name": "random", "nx": 2, "ny": 2, "periods": 2,
                       "total_users": 500, "seed": 1},
            "cfg": {"gamma": 0.5, "r_c": -120.0},
            "algorithm": "bfdba",
            "seed": 7,
        })
        assert spec.topo.n == 4
        assert spec.periods == 2
        assert spec.cfg.gamma == 0.5

    def test_unknown_bundle_rejected(self):
        with pytest.raises(ConfigError, match="unknown bundle"):
            spec_from_dict({"bundle": {"name": "volcano"}})

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError):
            quick_spec(algorithm="magic")

    def test_periods_beyond_horizon_rejected(self):
        bundle = random_bundle(nx=2, ny=2, periods=2, total_users=500, seed=1)
        with pytest.raises(ConfigError, match="horizon"):
            ExperimentSpec(*bundle, cfg=QUICK_CFG, algorithm="none", periods=9)

    def test_unknown_cfg_key_named(self):
        d = {"bundle": {"name": "random", "nx": 2, "ny": 2, "periods": 1,
                        "total_users": 100, "seed": 1},
             "cfg": {"gama": 0.5, "r_c": -110.0}}
        with pytest.raises(ConfigError, match="gama"):
            spec_from_dict(d)
        with pytest.raises(ConfigError, match="gama"):
            AlgorithmConfig().with_overrides(gama=0.5)

    def test_missing_blocks_named(self):
        with pytest.raises(ConfigError, match="topology"):
            spec_from_dict({"scenario": {}})

    def test_bdba_capped_at_the_dense_limit(self):
        def spec(n, algorithm):
            return spec_from_dict({
                "bundle": {"name": "random", "nx": n, "ny": 1, "periods": 1,
                           "total_users": 100, "seed": 1},
                "algorithm": algorithm})

        with pytest.raises(ConfigError, match="bfdba"):
            spec(DENSE_LIMIT + 1, "bdba")
        assert spec(DENSE_LIMIT + 1, "bfdba").topo.n == DENSE_LIMIT + 1
        assert spec(DENSE_LIMIT, "bdba").topo.n == DENSE_LIMIT


class TestMetricsSeries:
    def test_column_lengths_must_agree(self):
        with pytest.raises(ValueError):
            MetricsSeries(period=np.array([1, 2]), std_busy=np.zeros(3),
                          over_busy=np.zeros(2), d_inf=np.zeros(2),
                          coverage=np.ones(2), step_seconds=np.zeros(2))

    def test_periods_strictly_increasing(self):
        with pytest.raises(ValueError):
            series([1, 1], std=0.1)

    def test_bounded_columns_checked(self):
        with pytest.raises(ValueError):
            series([1], std=0.1, coverage=1.5)
        with pytest.raises(ValueError):
            series([1], std=-0.1)

    def test_csv_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(70)
        m = MetricsSeries(period=np.arange(1, 6),
                          std_busy=rng.uniform(0, 0.5, 5),
                          over_busy=rng.uniform(0, 1, 5),
                          d_inf=rng.uniform(0, 2, 5),
                          coverage=rng.uniform(0.9, 1.0, 5),
                          step_seconds=rng.uniform(0, 0.2, 5))
        path = tmp_path / "metrics.csv"
        m.to_csv(path)
        again = MetricsSeries.from_csv(path)
        for col in ("period", "std_busy", "over_busy", "d_inf", "coverage",
                    "step_seconds"):
            np.testing.assert_array_equal(getattr(again, col), getattr(m, col))

    def test_header_checked_on_load(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            MetricsSeries.from_csv(path)


class TestRunExperiment:
    def test_deterministic_apart_from_wall_clock(self):
        spec = quick_spec()
        r1 = run_experiment(spec)
        r2 = run_experiment(spec)
        for col in ("period", "std_busy", "over_busy", "d_inf", "coverage"):
            np.testing.assert_array_equal(getattr(r1.metrics, col),
                                          getattr(r2.metrics, col))
        np.testing.assert_array_equal(r1.final_powers, r2.final_powers)
        for s1, s2 in zip(r1.steps, r2.steps):
            np.testing.assert_array_equal(s1.u, s2.u)
            np.testing.assert_array_equal(s1.p_next, s2.p_next)

    def test_static_baseline_never_moves_powers(self):
        spec = quick_spec(algorithm="none")
        result = run_experiment(spec)
        np.testing.assert_array_equal(result.final_powers,
                                      spec.topo.initial_powers())
        assert result.steps == []
        assert float(result.metrics.step_seconds.max()) == 0.0

    def test_balancing_beats_the_baseline(self):
        # proportional traffic keeps the geometry fixed, so repeated steps
        # should keep tightening the busy spread
        bundle = proportional_bundle(periods=4, total_users=8000, seed=11)
        runs = {}
        for algo in ("none", "bdba"):
            spec = ExperimentSpec(*bundle, cfg=QUICK_CFG, algorithm=algo,
                                  periods=4, seed=3)
            runs[algo] = run_experiment(spec).metrics
        assert runs["bdba"].mean_std_busy < 0.6 * runs["none"].mean_std_busy
        assert np.all(np.diff(runs["bdba"].std_busy) < 0)

    def test_partial_results_written_on_mid_run_failure(self, tmp_path):
        # period 2 drops every user far outside reach, so its coverage floor
        # is unsatisfiable; period 1 must still land on disk
        ants = tuple(Antenna(id=i, p=43.0, p_max=49.0, r=2000,
                             position=((i - 1) * 500.0, 0.0)) for i in (1, 2))
        topo = NetworkTopology(ants, (frozenset({2}), frozenset({1})))
        near = PeriodSpec(2000, (Hotspot((250.0, 0.0), 1.0, 300.0, truncate=2.0),))
        far = PeriodSpec(2000, (Hotspot((80000.0, 0.0), 1.0, 100.0, truncate=2.0),))
        scenario = TrafficScenario(periods=(near, far), seed=5)
        spec = ExperimentSpec(topo, PathlossModel(seed=6), scenario,
                              AlgorithmConfig(gamma=0.5, r_c=-95.0),
                              algorithm="bdba", periods=2, seed=9,
                              output_dir=str(tmp_path / "out"))
        with pytest.raises(InfeasibleCoverage, match="period 2"):
            run_experiment(spec)
        written = MetricsSeries.from_csv(tmp_path / "out" / "metrics.csv")
        assert list(written.period) == [1]
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["periods_completed"] == 1
        assert manifest["aborted"]["period"] == 2

    def test_manifest_records_why_the_run_aborted(self, tmp_path):
        # r_c -40 dBm is out of reach at rated power for every record
        cfg = AlgorithmConfig(gamma=0.5, r_c=-40.0, n_s=800)
        spec = quick_spec(periods=2, cfg=cfg, nx=2, ny=2, total_users=1500)
        with pytest.raises(InfeasibleCoverage) as info:
            run_experiment(spec, output_dir=tmp_path / "out")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["periods_completed"] == 0
        assert manifest["aborted"] == {"period": 1,
                                       "type": "InfeasibleCoverage",
                                       "message": str(info.value)}
        assert "rated power" in manifest["aborted"]["message"]
        written = MetricsSeries.from_csv(tmp_path / "out" / "metrics.csv")
        assert len(written) == 0


class TestResultsLayout:
    def test_files_and_manifest(self, tmp_path):
        spec = quick_spec()
        result = run_experiment(spec)
        out = write_results(result, tmp_path / "run")
        for name in ("metrics.csv", "steps.jsonl", "busy.csv", "manifest.json"):
            assert (out / name).is_file(), name
        charts = sorted(p.name for p in (out / "charts").iterdir())
        assert charts == ["coverage.svg", "d_inf.svg", "over_busy.svg",
                          "std_busy.svg", "step_seconds.svg"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["algorithm"] == "bdba"
        assert manifest["periods_completed"] == 2
        assert manifest["seeds"]["run"] == spec.seed
        assert "numpy" in manifest["versions"]

    def test_manifest_records_the_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = write_results(run_experiment(quick_spec(periods=1)), tmp_path / "run")
        threads = json.loads((out / "manifest.json").read_text())["threads"]
        assert threads["sampling_workers"] == _sampling_workers()
        assert 1 <= threads["sampling_workers"] <= 3
        assert threads["OPENBLAS_NUM_THREADS"] == "1"
        assert threads["OMP_NUM_THREADS"] is None
        assert threads["MKL_NUM_THREADS"] is None
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert threads["blas"] == {"name": blas["name"], "version": blas["version"]}

    def test_busy_csv_rows(self, tmp_path):
        spec = quick_spec(periods=1)
        result = run_experiment(spec, output_dir=tmp_path / "run")
        lines = (tmp_path / "run" / "busy.csv").read_text().strip().splitlines()
        assert lines[0] == "period,antenna_id,f,f_bar,d"
        assert len(lines) == 1 + spec.topo.n

    def test_steps_jsonl_row_per_period(self, tmp_path):
        spec = quick_spec()
        run_experiment(spec, output_dir=tmp_path / "run")
        lines = (tmp_path / "run" / "steps.jsonl").read_text().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["period"] == 1


class TestCompareRuns:
    def test_self_comparison_is_all_zero(self):
        m = series([1, 2, 3], std=0.2, over=0.4, d_inf=0.5, seconds=0.01)
        cmp = compare_runs(m, m)
        assert cmp["mean_std_busy"]["reduction_pct"] == 0.0
        assert cmp["mean_over_busy"]["reduction_pct"] == 0.0
        assert cmp["mean_step_seconds"]["reduction_pct"] == 0.0

    def test_halved_mean_is_fifty_percent(self):
        a = series([1, 2], std=0.4)
        b = series([1, 2], std=0.2)
        assert compare_runs(a, b)["mean_std_busy"]["reduction_pct"] == pytest.approx(50.0)

    def test_zero_baseline_handled(self):
        a = series([1], std=0.0, seconds=0.0)
        b = series([1], std=0.1, seconds=0.0)
        cmp = compare_runs(a, b)
        assert cmp["mean_std_busy"]["reduction_pct"] is None
        assert cmp["mean_step_seconds"]["reduction_pct"] == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compare_runs(series([1], std=0.1), series([1, 2], std=0.1))


def test_property_suite_quick_passes():
    checks = property_suite(quick=True)
    for c in checks:
        assert c.passed, f"{c.name}: {c.detail}"
    assert {c.name for c in checks} == {
        "laplacian-structure", "zero-sum-adjustment", "pseudoinverse-analytic",
        "fast-balancer-fixed-point", "designed-singular-fallback",
        "consensus-proportional", "reproducibility", "baseline-neutrality"}


class TestCli:
    def write_spec(self, tmp_path):
        spec = {
            "bundle": {"name": "random", "nx": 2, "ny": 2, "periods": 2,
                       "total_users": 1500, "seed": 4},
            "cfg": {"gamma": 0.5, "r_c": -120.0, "n_s": 800,
                    "coverage_sample": 600},
            "algorithm": "bdba",
            "seed": 2,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return path

    def test_run_and_compare(self, tmp_path, capsys):
        from breathenet.cli import main

        spec_path = self.write_spec(tmp_path)
        out = tmp_path / "results"
        assert main(["run", str(spec_path), "--quiet", "-o", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "mean std_busy" in captured
        assert (out / "metrics.csv").is_file()

        assert main(["compare", str(out), str(out)]) == 0
        cmp = json.loads(capsys.readouterr().out)
        assert cmp["mean_std_busy"]["reduction_pct"] == 0.0

    def test_run_flag_overrides(self, tmp_path, capsys):
        from breathenet.cli import main

        spec_path = self.write_spec(tmp_path)
        assert main(["run", str(spec_path), "--quiet", "--algorithm", "none",
                     "--periods", "1"]) == 0
        assert "algorithm=none periods=1" in capsys.readouterr().out

    def test_readme_quick_start_config(self, tmp_path, capsys):
        from pathlib import Path

        from breathenet.cli import main

        config = Path(__file__).resolve().parents[1] / "configs" / "demo_experiment.json"
        # the README calls it a 24-period tidal day on a 50-antenna grid
        # under bdba
        spec = spec_from_dict(json.loads(config.read_text()))
        assert (spec.topo.n, spec.periods, spec.algorithm) == (50, 24, "bdba")
        out = tmp_path / "tidal-bdba"
        assert main(["run", str(config), "-o", str(out), "--periods", "2"]) == 0
        assert "algorithm=bdba periods=2" in capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["periods_completed"] == 2
        assert "aborted" not in manifest

    def test_train_coverage(self, tmp_path, capsys):
        from breathenet.cli import main
        from breathenet.model import topology_to_dict
        from breathenet.mrdata import generate_mr, save_csv, to_attenuation
        from breathenet.traffic import UserBatch

        ants = tuple(Antenna(id=i, p=43.0, p_max=49.0, r=100) for i in (1, 2))
        topo = NetworkTopology(ants, (frozenset({2}), frozenset({1})))
        topo_path = tmp_path / "topo.json"
        topo_path.write_text(json.dumps(topology_to_dict(topo)))

        rng = np.random.default_rng(71)
        att = rng.uniform(60.0, 100.0, size=(80, 2))
        users = UserBatch(np.zeros((80, 2)), att,
                          np.ones(80, dtype=np.int64), period=1)
        p = topo.initial_powers()
        batch_path = tmp_path / "mr.csv"
        save_csv(to_attenuation(generate_mr(users, p, 2), p), batch_path)

        out = tmp_path / "surrogates"
        code = main(["train-coverage", str(batch_path),
                     "--topology", str(topo_path), "-o", str(out),
                     "--samples", "120", "--epochs", "150", "--r-c", "-55"])
        assert code == 0
        assert (out / "index.json").is_file()
        assert "per-antenna nets" in capsys.readouterr().out
