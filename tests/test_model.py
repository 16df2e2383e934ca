"""Topology, config and unit-conversion checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from breathenet.harness import _BUNDLES
from breathenet.model import (
    AlgorithmConfig,
    Antenna,
    ConfigError,
    NetworkTopology,
    check_keys,
    topology_from_dict,
    topology_to_dict,
    watts_to_dbm,
)


def make_topo(n, neighbours=None, p=40.0, p_max=49.0, r=100):
    ants = tuple(Antenna(id=i, p=p, p_max=p_max, r=r) for i in range(1, n + 1))
    if neighbours is None:
        neighbours = [set() for _ in range(n)]
    return NetworkTopology(ants, tuple(frozenset(s) for s in neighbours))


class TestPowerUnits:
    def test_one_watt_is_30_dbm(self):
        assert watts_to_dbm(1.0) == pytest.approx(30.0, abs=1e-12)

    def test_one_milliwatt_is_0_dbm(self):
        assert watts_to_dbm(0.001) == pytest.approx(0.0, abs=1e-12)

    def test_80_watts(self):
        # independent evaluation of the defining formula
        assert watts_to_dbm(80.0) == pytest.approx(10.0 * math.log10(80000.0),
                                                   abs=1e-12)
        assert watts_to_dbm(80.0) == pytest.approx(49.0309, abs=1e-4)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            watts_to_dbm(0.0)
        with pytest.raises(ValueError):
            watts_to_dbm(-3.0)


class TestAntennaValidation:
    def test_id_must_start_at_one(self):
        with pytest.raises(ConfigError):
            Antenna(id=0, p=40.0, p_max=49.0, r=100)

    def test_pilot_above_rated_rejected(self):
        with pytest.raises(ConfigError):
            Antenna(id=1, p=50.0, p_max=49.0, r=100)

    @pytest.mark.parametrize("p", [0.0, -3.0, float("nan")])
    def test_pilot_must_be_positive_dbm(self, p):
        with pytest.raises(ConfigError, match="antenna 7: power "):
            Antenna(id=7, p=p, p_max=49.0, r=100)

    def test_prb_must_be_positive_integer(self):
        with pytest.raises(ConfigError):
            Antenna(id=1, p=40.0, p_max=49.0, r=0)
        with pytest.raises(ConfigError):
            Antenna(id=1, p=40.0, p_max=49.0, r=12.5)

    def test_vectors(self):
        topo = make_topo(3, p=41.0, p_max=55.0, r=64)
        np.testing.assert_array_equal(topo.initial_powers(), [41.0] * 3)
        np.testing.assert_array_equal(topo.p_max_vector(), [55.0] * 3)
        np.testing.assert_array_equal(topo.prb_vector(), [64.0] * 3)

    def test_positions_require_all_set(self):
        ants = (Antenna(1, 40.0, 49.0, 10, position=(0.0, 0.0)),
                Antenna(2, 40.0, 49.0, 10))
        topo = NetworkTopology(ants, (frozenset({2}), frozenset({1})))
        with pytest.raises(ConfigError):
            topo.positions()


class TestTopologyValidation:
    def test_ids_must_be_dense(self):
        ants = (Antenna(1, 40.0, 49.0, 10), Antenna(3, 40.0, 49.0, 10))
        with pytest.raises(ConfigError):
            NetworkTopology(ants, (frozenset(), frozenset()))

    def test_self_loop_rejected(self):
        with pytest.raises(ConfigError):
            make_topo(2, neighbours=[{1}, {1}])

    def test_neighbour_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            make_topo(2, neighbours=[{5}, {1}])


class TestAlgorithmConfig:
    def test_defaults(self):
        cfg = AlgorithmConfig()
        assert cfg.epsilon == 0.1
        assert cfg.gamma == 1.0
        assert cfg.tau == 0.01
        assert cfg.delta_p == 1.0
        assert cfg.f_con == 0.999
        assert cfg.over_busy_threshold == 0.7
        assert cfg.top_m == 6

    @pytest.mark.parametrize("field,value", [
        ("epsilon", 0.0), ("gamma", 0.0), ("gamma", 1.5), ("tau", -0.1),
        ("delta_p", 0.0), ("n_s", 0), ("f_con", 0.0), ("f_con", 1.1),
        ("target_mode", "median"), ("top_m", 0),
        ("coverage_sample", -1), ("svd_cutoff", 1.0), ("svd_cutoff", -0.1),
    ])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ConfigError):
            AlgorithmConfig(**{field: value})

    def test_overrides_keep_validation(self):
        cfg = AlgorithmConfig().with_overrides(gamma=0.5, tau=0.0)
        assert cfg.gamma == 0.5 and cfg.tau == 0.0
        with pytest.raises(ConfigError):
            AlgorithmConfig().with_overrides(gamma=2.0)

    def test_whole_numbers_read_as_ints(self):
        cfg = AlgorithmConfig().with_overrides(n_s=800.0, top_m=np.int64(4))
        assert (cfg.n_s, cfg.top_m) == (800, 4)
        assert type(cfg.n_s) is int and type(cfg.top_m) is int


class TestTopologySerialization:
    def test_round_trip(self):
        topo = make_topo(3, neighbours=[{2}, {1, 3}, {2}], p=41.0, p_max=55.0)
        again = topology_from_dict(topology_to_dict(topo))
        assert again == topo

    def test_unit_tags_required(self):
        d = topology_to_dict(make_topo(1))
        d["antennas"][0]["power"] = 40.0  # bare number, no unit
        with pytest.raises(ConfigError):
            topology_from_dict(d)

    def test_watt_entries_converted(self):
        d = {"antennas": [{"id": 1, "power": {"value": 1.0, "unit": "watts"},
                           "p_max": {"value": 80.0, "unit": "watts"},
                           "prb": 100}],
             "neighbours": {}}
        topo = topology_from_dict(d)
        assert topo.antennas[0].p == pytest.approx(30.0)
        assert topo.antennas[0].p_max == pytest.approx(watts_to_dbm(80.0))

    # a dict from Python may mix key types: unknown keys are listed by their
    # text, not compared with each other
    def test_unknown_int_and_str_keys_named(self):
        with pytest.raises(ConfigError,
                           match=r"^topology: unknown key\(s\) \[5, 'bogus'\]"):
            check_keys({5: 1, "bogus": 2}, ("a",), "topology")

    def test_unknown_int_and_str_neighbour_keys_named(self):
        d = topology_to_dict(make_topo(3))
        d["neighbours"].update({9: [1], "x": [2]})
        with pytest.raises(ConfigError,
                           match=r"^neighbours: unknown key\(s\) \[9, 'x'\]"):
            topology_from_dict(d)

    def test_asymmetric_neighbours_rejected(self):
        d = topology_to_dict(make_topo(3, neighbours=[{2, 3}, {1}, set()]))
        with pytest.raises(ConfigError, match="antenna 1 lists 3, but antenna 3"):
            topology_from_dict(d)

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.lists(
        st.lists(st.booleans(), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    def test_symmetry_rule_matches_oracle(self, lists):
        # lists[i][j]: antenna i+1 lists antenna j+1 (the diagonal is ignored)
        n = len(lists)
        neigh = [{j + 1 for j in range(n) if lists[i][j] and j != i}
                 for i in range(n)]
        first = next(((i, j) for i in range(1, n + 1)
                      for j in range(1, n + 1)
                      if j in neigh[i - 1] and i not in neigh[j - 1]), None)
        topo = make_topo(n, neighbours=neigh)
        d = topology_to_dict(topo)
        if first is None:
            assert topology_from_dict(d) == topo
        else:
            i, j = first
            with pytest.raises(ConfigError) as exc:
                topology_from_dict(d)
            assert str(exc.value) == (f"neighbours: antenna {i} lists {j}, "
                                      f"but antenna {j} does not list {i}")

    @pytest.mark.parametrize("name", sorted(_BUNDLES))
    def test_bundle_topologies_pass_validation(self, name):
        # two-island is disconnected by design; only symmetry is enforced
        topo = _BUNDLES[name]().topo
        assert topology_from_dict(topology_to_dict(topo)) == topo

    def test_missing_antennas_block(self):
        with pytest.raises(ConfigError):
            topology_from_dict({"neighbours": {}})
