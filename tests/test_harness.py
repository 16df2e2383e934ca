"""Experiment orchestration: specs, runs, persistence, comparison and the
CLI."""

import copy
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import breathenet
from breathenet.balancer import DENSE_LIMIT, SingularJacobian, bdba_solve
from breathenet.busy import busy_degrees, disagreement, targets
from breathenet.coverage import InfeasibleCoverage
from breathenet.harness import (
    ExperimentSpec,
    MetricsSeries,
    compare_runs,
    run_experiment,
    spec_from_dict,
    spec_to_dict,
    write_results,
)
from breathenet.jacobian import estimate_jacobian, support_graph
from breathenet.model import AlgorithmConfig, Antenna, ConfigError, NetworkTopology
from breathenet.mrdata import generate_mr
from breathenet.synth import proportional_bundle, random_bundle, two_island_bundle
from breathenet.traffic import Hotspot, PathlossModel, PeriodSpec, TrafficScenario, _sampling_workers, sample_users

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

    @pytest.mark.parametrize("name", [["random"], {"random": 1}],
                             ids=["list", "dict"])
    def test_a_bundle_name_that_is_not_a_string_rejected(self, name):
        with pytest.raises(ConfigError,
                           match=r"bundle: name .* is not a valid str"):
            spec_from_dict({"bundle": {"name": name}})

    def test_bundle_without_name_rejected(self):
        with pytest.raises(ConfigError, match="missing its 'name'"):
            spec_from_dict({"bundle": {"nx": 2, "ny": 2}})

    @pytest.mark.parametrize("name, key", [("tidal", "peroids"),
                                           ("two-island", "prb")])
    def test_unknown_bundle_keyword_named(self, name, key):
        with pytest.raises(ConfigError, match=f"no keyword\\(s\\) \\['{key}'\\]"):
            spec_from_dict({"bundle": {"name": name, key: 3}})

    def test_unknown_int_and_str_bundle_keywords_named(self):
        # a dict from Python may mix key types: they are listed by their text
        with pytest.raises(ConfigError, match=r"no keyword\(s\) \[5, 'bogus'\]"):
            spec_from_dict({"bundle": {"name": "random", 5: 1, "bogus": 2}})

    def test_bundle_forwards_grid_keywords(self):
        spec = spec_from_dict({"bundle": {"name": "random", "nx": 2, "ny": 2,
                                          "total_users": 100, "prb": 7}})
        assert {a.r for a in spec.topo.antennas} == {7}

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

    def test_non_string_cfg_key_named(self):
        # a spec dict built in Python may hold keys JSON never would
        d = {"bundle": {"name": "random"}, "cfg": {5: 1, "bogus": 2}}
        with pytest.raises(ConfigError) as exc:
            spec_from_dict(d)
        assert str(exc.value) == "spec: cfg key(s) [5] are not strings"

    @pytest.mark.parametrize("block, where, key", [
        (lambda d: d, "spec", "peroids"),
        (lambda d: d, "spec", "algoritm"),
        (lambda d: d["topology"], "topology", "antenas"),
        (lambda d: d["topology"]["antennas"][1], "antenna #2", "pwoer"),
        (lambda d: d["scenario"], "scenario", "sed"),
        (lambda d: d["scenario"]["periods"][1], "period 2", "total_user"),
        (lambda d: d["scenario"]["periods"][0]["hotspots"][1],
         "period 1, hotspot 2", "truncat"),
        (lambda d: d["pathloss"], "pathloss", "shadowing_sigm"),
    ], ids=["top-periods", "top-algorithm", "topology", "antenna",
            "scenario", "period", "hotspot", "pathloss"])
    def test_unknown_key_named(self, block, where, key):
        d = spec_to_dict(quick_spec())
        block(d)[key] = 1
        with pytest.raises(ConfigError) as exc:
            spec_from_dict(d)
        assert str(exc.value).startswith(f"{where}: unknown key(s) ['{key}']; "
                                         "known keys: [")

    def test_missing_blocks_named(self):
        with pytest.raises(ConfigError, match="topology"):
            spec_from_dict({"scenario": {}})

    @pytest.mark.parametrize("block, edit, message", [
        ("topology", lambda t: t["antennas"][1].pop("prb"),
         "antenna 2: missing 'prb'"),
        ("topology", lambda t: t["antennas"][1].update(prb="many"),
         "antenna 2: prb 'many' is not a valid int"),
        ("scenario", lambda s: s["periods"][1]["hotspots"][0].pop("weight"),
         "period 2, hotspot 1: missing 'weight'"),
        ("pathloss", lambda p: p.update(exponent="x"),
         "pathloss: exponent 'x' is not a valid float"),
        ("scenario", lambda s: s.update(demand=["x", 2]),
         "scenario: demand ['x', 2] is not a valid int_pair"),
        ("scenario", lambda s: s.update(demand=5),
         "scenario: demand 5 is not a valid int_pair"),
        ("topology", lambda t: t["neighbours"]["2"].append("x"),
         "neighbours: 2 [1, 3, 4, 5, 6, 'x'] is not a valid antenna_ids"),
        (None, lambda d: d.update(periods="x"),
         "spec: periods 'x' is not a valid int"),
        (None, lambda d: d.update(seed="x"),
         "spec: seed 'x' is not a valid int"),
        ("cfg", lambda c: c.update(gamma="x"),
         "cfg: gamma 'x' is not a valid float"),
        (None, lambda d: d.update(cfg=[1]),
         "spec: cfg [1] is not an object of AlgorithmConfig fields"),
        ("cfg", lambda c: c.update(n_s=2.7), "cfg: n_s 2.7 is not a valid int"),
        ("cfg", lambda c: c.update(n_s=float("inf")),
         "cfg: n_s inf is not a valid int"),
        ("cfg", lambda c: c.update(n_s="800"), "cfg: n_s '800' is not a valid int"),
        ("cfg", lambda c: c.update(top_m=True), "cfg: top_m True is not a valid int"),
        ("cfg", lambda c: c.update(gamma=True),
         "cfg: gamma True is not a valid float"),
        ("topology", lambda t: t["antennas"][1].update(prb=False),
         "antenna 2: prb False is not a valid int"),
        ("scenario", lambda s: s.update(demand=[1, 2.5]),
         "scenario: demand [1, 2.5] is not a valid int_pair"),
        ("topology", lambda t: t["neighbours"]["2"].append(True),
         "neighbours: 2 [1, 3, 4, 5, 6, True] is not a valid antenna_ids"),
        ("topology", lambda t: t["antennas"][1]["power"].update(value=True),
         "antenna 2: power: malformed power entry: {'value': True, 'unit': 'dbm'}"),
        ("bundle", lambda d: d.update(bundle={"name": "tidal",
                                              "periods": 2.5}),
         "bundle: periods 2.5 is not a valid int"),
        ("bundle", lambda d: d.update(bundle={"name": "random",
                                              "total_users": True}),
         "bundle: total_users True is not a valid int"),
        ("bundle", lambda d: d.update(bundle={"name": "random", "seed": -1}),
         "bundle: seed must be non-negative, got -1"),
        ("bundle", lambda d: d.update(bundle={"name": "tidal", "seed": -1}),
         "bundle: seed must be non-negative, got -1"),
        ("bundle", lambda d: d.update(bundle={"name": "tidal", "seed": -2}),
         "bundle: seed must be non-negative, got -2"),
        ("pathloss", lambda p: p.update(exponent=float("nan")),
         "pathloss exponent must be finite, got nan"),
        ("pathloss", lambda p: p.update(reference_loss=float("inf")),
         "pathloss reference_loss must be finite, got inf"),
        ("pathloss", lambda p: p.update(shadowing_sigma=float("nan")),
         "pathloss shadowing_sigma must be finite, got nan"),
        ("pathloss", lambda p: p.update(shadowing_sigma=float("inf")),
         "pathloss shadowing_sigma must be finite, got inf"),
        (None, lambda d: d.update(output_dir=5),
         "spec: output_dir 5 is not a valid str"),
        ("bundle", lambda d: d.update(bundle={"name": "proportional",
                                              "betas": [1.0, "x"]}),
         "bundle: betas [1.0, 'x'] is not a valid floats"),
        ("bundle", lambda d: d.update(bundle={"name": "proportional",
                                              "periods": 2, "betas": [1.0]}),
         "bundle: betas lists 1 period(s), periods is 2"),
        ("bundle", lambda d: d.update(bundle={"name": "proportional",
                                              "betas": [1.0, float("nan")]}),
         "bundle: betas must be finite and non-negative, got [1.0, nan]"),
        ("bundle", lambda d: d.update(bundle={"name": "proportional",
                                              "betas": [1.0, -0.5]}),
         "bundle: betas must be finite and non-negative, got [1.0, -0.5]"),
        ("bundle", lambda d: d.update(bundle={"name": "random", "nx": 0}),
         "bundle: nx must be at least 1, got 0"),
        ("bundle", lambda d: d.update(bundle={"name": "random", "ny": -3}),
         "bundle: ny must be at least 1, got -3"),
        ("bundle", lambda d: d.update(bundle={"name": "random",
                                              "n_hotspots": 0}),
         "bundle: n_hotspots must be at least 1, got 0"),
        ("scenario", lambda s: s["periods"][0]["hotspots"][0].update(
            weight=float("nan")), "hotspot weight must be non-negative, got nan"),
        ("scenario", lambda s: s["periods"][0]["hotspots"][0].update(
            spread=float("nan")),
         "hotspot spread must be positive and finite, got nan"),
        ("scenario", lambda s: s["periods"][0]["hotspots"][0].update(
            truncate=float("nan")),
         "hotspot truncate must be positive and finite, got nan"),
        ("scenario", lambda s: s["periods"][0]["hotspots"][0].update(
            truncate=float("inf")),
         "hotspot truncate must be positive and finite, got inf"),
        ("topology", lambda t: t["antennas"][1]["p_max"].update(
            value=float("inf")),
         "antenna 2: p_max inf dBm must be finite"),
        ("scenario", lambda s: s["periods"][1].update(total_users=0),
         "period 2: total_users must be at least 1, got 0"),
        (None, lambda d: d.update(pathloss=[1]), "pathloss: [1] is not an object"),
        ("scenario", lambda s: s["periods"][0]["hotspots"].__setitem__(0, 5),
         "period 1, hotspot 1: 5 is not an object"),
        ("topology", lambda t: t.update(antennas=5),
         "topology: antennas 5 is not a valid list"),
        ("topology", lambda t: t.update(neighbours=[1]),
         "topology: neighbours [1] is not a valid dict"),
        ("bundle", lambda d: d.update(bundle=[1]),
         "spec: bundle [1] is not a valid dict"),
        (None, lambda d: d.update(bundle={"name": "random", "nx": 2, "ny": 2}),
         "spec: the 'bundle' block cannot go with ['topology', 'scenario', "
         "'pathloss']: a bundle builds the whole world"),
        ("topology", lambda t: t["antennas"][1]["power"].update(unti="w"),
         "antenna 2: power: power entry: unknown key(s) ['unti']; "
         "known keys: ['unit', 'value']"),
        ("topology", lambda t: t["neighbours"].update({"9": [1]}),
         "neighbours: unknown key(s) ['9']; known keys are the antenna ids "
         "'1'..'6'"),
    ], ids=["no-prb", "bad-prb", "no-weight", "bad-exponent", "bad-demand",
            "scalar-demand", "bad-neighbour", "bad-periods", "bad-seed",
            "bad-cfg-value", "cfg-not-an-object", "fractional-int",
            "infinite-int", "string-int", "bool-int", "bool-float", "bool-prb",
            "fractional-demand", "bool-neighbour", "bool-power",
            "fractional-bundle-int", "bool-bundle-int", "negative-random-seed",
            "negative-tidal-seed", "negative-tidal-seed-2", "nan-exponent",
            "infinite-reference-loss", "nan-sigma", "infinite-sigma",
            "int-output-dir", "string-beta", "betas-short-of-periods",
            "nan-beta", "negative-beta", "zero-nx", "negative-ny",
            "zero-hotspots", "nan-weight", "nan-spread", "nan-truncate",
            "infinite-truncate", "infinite-p-max", "zero-users",
            "list-pathloss", "int-hotspot", "int-antennas", "list-neighbours",
            "list-bundle", "bundle-beside-explicit-blocks",
            "unknown-power-key", "unknown-neighbours-key"])
    def test_bad_block_field_named(self, block, edit, message):
        # a bundle builds the whole world, so its cases start from no blocks
        d = {} if block == "bundle" else spec_to_dict(quick_spec())
        edit(d if block in (None, "bundle") else d[block])
        with pytest.raises(ConfigError) as exc:
            spec_from_dict(d)
        assert str(exc.value) == message

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

    def test_a_run_loads_no_scipy_sparse(self, tmp_path):
        # the import, one bdba period (dense SVD solve) and one bfdba period,
        # results written, in a fresh interpreter
        specs = [spec_to_dict(quick_spec(algorithm=a, periods=1))
                 for a in ("bdba", "bfdba")]
        script = textwrap.dedent("""
            import json, sys
            import breathenet
            from breathenet.harness import spec_from_dict
            loaded = ["scipy.sparse" in sys.modules]
            for k, d in enumerate(json.loads(sys.argv[1])):
                r = breathenet.run_experiment(spec_from_dict(d),
                                              output_dir=f"{sys.argv[2]}/{k}")
                assert [(s.algorithm, s.fallback) for s in r.steps] == \\
                    [(d["algorithm"], False)]
                loaded.append("scipy.sparse" in sys.modules)
            print(json.dumps(loaded))
            """)
        src = Path(breathenet.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", script, json.dumps(specs), str(tmp_path)],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [False, False, False]
        assert (tmp_path / "1" / "manifest.json").is_file()

    def test_two_islands_fall_back_to_bfdba(self):
        # two clusters with no MR between them: the estimate's support is
        # disconnected, so its rank is below n - 1 by design
        cfg = AlgorithmConfig(gamma=0.5, r_c=-120.0, n_s=1500,
                              coverage_sample=1500)
        bundle = two_island_bundle(total_users=2500, seed=17)
        topo, pathloss, scenario = bundle
        p = topo.initial_powers()
        users = sample_users(scenario, pathloss, topo, 1)
        mr = generate_mr(users, p, cfg.top_m)
        f = busy_degrees(mr.serving(), users, topo)
        f_bar = targets(f, topo, cfg.target_mode)
        approx = estimate_jacobian(mr, p, f, f_bar, topo, cfg, seed=5)
        assert not support_graph(approx).strongly_connected
        with pytest.raises(SingularJacobian) as exc:
            bdba_solve(approx, disagreement(f, f_bar))
        assert len(exc.value.components) >= 2

        spec = ExperimentSpec(*bundle, cfg=cfg, algorithm="bdba", periods=1,
                              seed=17)
        with pytest.warns(UserWarning, match="falling back"):
            result = run_experiment(spec)
        assert [(s.algorithm, s.fallback) for s in result.steps] == \
            [("bfdba", True)]

    def test_static_baseline_never_moves_powers(self):
        spec = quick_spec(algorithm="none")
        result = run_experiment(spec)
        np.testing.assert_array_equal(result.final_powers,
                                      spec.topo.initial_powers())
        assert result.steps == []
        assert float(result.metrics.step_seconds.max()) == 0.0

    def test_every_controller_records_one_busy_state_per_period(self):
        # period 1 is recorded at the initial powers under every controller,
        # so its busy state does not depend on which one balances
        first = {}
        for algo in ("none", "bdba", "bfdba"):
            result = run_experiment(quick_spec(algorithm=algo))
            assert [s.period for s in result.busy] == [1, 2]
            first[algo] = result.busy[0]
        for algo in ("bdba", "bfdba"):
            for name in ("f", "f_bar", "d"):
                np.testing.assert_array_equal(getattr(first[algo], name),
                                              getattr(first["none"], name))

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

    @pytest.mark.parametrize("a_periods, empty_run", [([], "a"), ([1], "b")])
    def test_run_without_periods_named(self, a_periods, empty_run):
        a, b = series(a_periods, std=0.1), series([], std=0.1)
        with pytest.raises(ValueError, match=f"run {empty_run} completed no period"):
            compare_runs(a, b)


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

    def test_run_into_an_existing_file_is_one_error_line(self, tmp_path,
                                                          capsys, monkeypatch):
        from breathenet import harness
        from breathenet.cli import main

        spec_path = self.write_spec(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("")
        sampled = []
        monkeypatch.setattr(harness, "sample_users",
                            lambda *args: sampled.append(args))
        with pytest.raises(SystemExit) as exc:
            main(["run", str(spec_path), "--quiet", "-o", str(taken)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == \
            f"breathenet: error: {taken}: cannot write results (File exists)\n"
        assert not sampled  # it stops before period 1

    def test_zero_periods_flag_rejected(self, tmp_path, capsys):
        from breathenet.cli import main

        spec_path = self.write_spec(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["run", str(spec_path), "--quiet", "--periods", "0"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == \
            "breathenet: error: periods must be at least 1\n"

    @pytest.mark.parametrize("cfg, flags, want", [
        ({"gamma": "x"}, [], "cfg: gamma 'x' is not a valid float"),
        ([1], [], "spec: cfg [1] is not an object of AlgorithmConfig fields"),
        ([1], ["--gamma", "0.5"],
         "spec: cfg [1] is not an object of AlgorithmConfig fields"),
    ], ids=["bad-value", "not-an-object", "not-an-object-with-a-flag"])
    def test_a_bad_cfg_is_one_error_line(self, tmp_path, capsys, cfg, flags, want):
        from breathenet.cli import main

        spec_path = self.write_spec(tmp_path)
        spec_path.write_text(json.dumps(
            dict(json.loads(spec_path.read_text()), cfg=cfg)))
        with pytest.raises(SystemExit) as exc:
            main(["run", str(spec_path), "--quiet", *flags])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"breathenet: error: {want}\n"

    @pytest.mark.parametrize("value", [float("nan"), float("inf")],
                             ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["epsilon", "tau", "delta_p", "r_c",
                                       "over_busy_threshold"])
    def test_a_non_finite_cfg_value_is_one_error_line(self, tmp_path, capsys,
                                                      field, value):
        from breathenet.cli import main

        spec_path = self.write_spec(tmp_path)
        spec = json.loads(spec_path.read_text())
        spec["cfg"][field] = value
        spec_path.write_text(json.dumps(spec))  # NaN and Infinity tokens
        with pytest.raises(SystemExit) as exc:
            main(["run", str(spec_path), "--quiet"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == \
            f"breathenet: error: {field} must be finite, got {value}\n"

    def test_a_bad_bundle_shape_is_one_error_line(self, tmp_path, capsys):
        from breathenet.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            {"bundle": {"name": "random", "nx": 0}, "algorithm": "bfdba"}))
        with pytest.raises(SystemExit) as exc:
            main(["run", str(spec_path), "--quiet"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == \
            "breathenet: error: bundle: nx must be at least 1, got 0\n"

    @pytest.mark.parametrize("block, flags", [
        (None, ["--seed", "-1"]), ("pathloss", []), ("scenario", [])],
        ids=["run", "pathloss", "scenario"])
    def test_a_negative_seed_is_one_error_line(self, tmp_path, capsys, block,
                                               flags):
        from breathenet.cli import main

        d = spec_to_dict(quick_spec())
        if block is not None:
            d[block]["seed"] = -1
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(d))
        with pytest.raises(SystemExit) as exc:
            main(["run", str(spec_path), "--quiet", *flags])
        assert exc.value.code == 2
        assert capsys.readouterr().err == \
            f"breathenet: error: {block or 'run'} seed must be non-negative, got -1\n"

    @pytest.mark.parametrize("text, want", [
        (None, "cannot read spec (No such file or directory)"),
        ("{bad", "not valid JSON (Expecting property name enclosed in "
                 "double quotes: line 1 column 2 (char 1))"),
        ("[1]", "the spec's top level is not a JSON object"),
    ], ids=["missing", "invalid-json", "not-an-object"])
    def test_an_unreadable_spec_file_is_one_error_line(self, tmp_path, capsys,
                                                      text, want):
        from breathenet.cli import main

        spec_path = tmp_path / "spec.json"
        if text is not None:
            spec_path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["run", str(spec_path), "--quiet"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == \
            f"breathenet: error: {spec_path}: {want}\n"

    def test_compare_names_a_run_with_no_period(self, tmp_path, capsys):
        from breathenet.cli import main

        done, empty = tmp_path / "done", tmp_path / "empty"
        for directory, rows in ((done, 1), (empty, 0)):
            directory.mkdir()
            MetricsSeries(*(np.arange(1, rows + 1) for _ in range(6))
                          ).to_csv(directory / "metrics.csv")
        # the empty run holds only the header
        assert (empty / "metrics.csv").read_text().count("\n") == 1
        for pair in ((done, empty), (empty, done)):
            with pytest.raises(SystemExit) as exc:
                main(["compare", *map(str, pair)])
            assert exc.value.code == 2
            assert capsys.readouterr().err == \
                f"breathenet: error: {empty}: metrics.csv holds no period\n"

    @pytest.mark.parametrize("case", ["no-metrics", "other-header", "empty",
                                      "short-row", "long-row",
                                      "period-counts"])
    def test_compare_names_an_unreadable_pair(self, tmp_path, capsys, case):
        from breathenet.cli import main

        a, b = tmp_path / "a", tmp_path / "b"
        for directory, periods in ((a, 1), (b, 2)):
            directory.mkdir()
            series(range(1, periods + 1), std=0.1).to_csv(directory / "metrics.csv")
        if case == "no-metrics":
            (b / "metrics.csv").unlink()
            want = f"{b}: cannot read metrics.csv (No such file or directory)"
        elif case == "other-header":
            (b / "metrics.csv").write_text("period,std\n1,0.1\n")
            want = f"{b}: metrics.csv: unexpected metrics header ['period', 'std']"
        elif case == "empty":
            (b / "metrics.csv").write_text("")
            want = f"{b}: metrics.csv: unexpected metrics header []"
        elif case in ("short-row", "long-row"):
            lines = (b / "metrics.csv").read_text().splitlines()
            lines[2] = (lines[2].rsplit(",", 1)[0] if case == "short-row"
                        else lines[2] + ",0.5")
            (b / "metrics.csv").write_text("\n".join(lines) + "\n")
            fields = 5 if case == "short-row" else 7
            want = f"{b}: metrics.csv: line 3 has {fields} fields, the header 6"
        else:
            want = f"{a} vs {b}: runs cover different period counts (1 vs 2)"
        with pytest.raises(SystemExit) as exc:
            main(["compare", str(a), str(b)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"breathenet: error: {want}\n"

    def test_every_cfg_field_is_a_flag(self, tmp_path):
        from dataclasses import fields

        from breathenet.cli import main

        values = {"epsilon": 0.2, "gamma": 0.5, "tau": 0.02, "delta_p": 2.0,
                  "n_s": 700, "f_con": 0.99, "r_c": -121.0,
                  "target_mode": "local", "top_m": 4,
                  "over_busy_threshold": 0.8, "coverage_sample": 500,
                  "svd_cutoff": 0.1}
        assert set(values) == {f.name for f in fields(AlgorithmConfig)}
        flags = [a for k, v in values.items()
                 for a in (f"--{k.replace('_', '-')}", str(v))]
        out = tmp_path / "results"
        assert main(["run", str(self.write_spec(tmp_path)), "--quiet",
                     "--algorithm", "none", "--periods", "1", "-o", str(out),
                     *flags]) == 0
        cfg = json.loads((out / "manifest.json").read_text())["spec"]["cfg"]
        assert cfg == values
        assert {k: type(v) for k, v in cfg.items()} == \
            {k: type(v) for k, v in values.items()}

    def test_every_bad_leaf_is_one_error_line(self, tmp_path, capsys,
                                              monkeypatch):
        # each leaf of a small valid spec (the first antenna, period and
        # hotspot stand for the rest) set to each ill-typed or out-of-range
        # value: the run completes, or stops with one error: line naming the
        # leaf's field; a power entry's value and unit belong to its field
        base = spec_to_dict(ExperimentSpec(
            *random_bundle(nx=3, ny=2, periods=2, total_users=600, seed=11),
            cfg=AlgorithmConfig(r_c=-120.0), algorithm="bfdba", periods=1))

        def leaves(node, path=()):
            for k, v in (node.items() if isinstance(node, dict)
                         else [(0, node[0])]):
                if isinstance(v, dict) or (isinstance(v, list) and v
                                           and isinstance(v[0], dict)):
                    yield from leaves(v, path + (k,))
                else:
                    yield path + (k,)

        paths = list(leaves(base))
        assert len(paths) == 41
        bad_values = ["x", None, [], {}, True, 2.7, -1, 0, float("nan"),
                      float("inf"), [1], {"value": "x"}]
        monkeypatch.chdir(tmp_path)  # an output_dir of "x" writes here
        from breathenet.cli import main

        failures = []
        for path in paths:
            field = [k for k in path if k not in (0, "value", "unit")][-1]
            for value in bad_values:
                d = copy.deepcopy(base)
                node = d
                for k in path[:-1]:
                    node = node[k]
                node[path[-1]] = value
                spec_path = tmp_path / "spec.json"
                spec_path.write_text(json.dumps(d))
                try:
                    code = main(["run", str(spec_path), "--quiet"])
                except SystemExit as exc:
                    code = exc.code
                except InfeasibleCoverage:
                    # a finite number, or null for the field's default, can
                    # still set a coverage floor the world cannot meet
                    well_typed = value is None or (
                        type(value) in (int, float) and math.isfinite(value))
                    code = 0 if well_typed else "infeasible"
                err = capsys.readouterr().err
                lines = err.splitlines()
                if not (code == 0 or (code == 2 and len(lines) == 1
                                      and "error:" in lines[0]
                                      and field in lines[0])):
                    failures.append((path, value, code, err))
        assert failures == []

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
