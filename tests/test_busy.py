"""Busy-degree, target and disagreement arithmetic."""

import numpy as np
import pytest

from breathenet.busy import (
    ZeroTraffic,
    busy_degrees,
    disagreement,
    targets,
)
from breathenet.model import Antenna, NetworkTopology
from breathenet.traffic import UserBatch


def make_topo(r_values, neighbours=None):
    n = len(r_values)
    ants = tuple(Antenna(id=i + 1, p=40.0, p_max=49.0, r=r)
                 for i, r in enumerate(r_values))
    if neighbours is None:
        neighbours = [set(range(1, n + 1)) - {i + 1} for i in range(n)]
    return NetworkTopology(ants, tuple(frozenset(s) for s in neighbours))


def batch(demands, n_antennas):
    u = len(demands)
    return UserBatch(positions=np.zeros((u, 2)),
                     attenuation=np.zeros((u, n_antennas)),
                     demand=np.asarray(demands, dtype=np.int64), period=1)


class TestBusyDegrees:
    def test_no_users_gives_zero_vector(self):
        topo = make_topo([100, 100])
        f = busy_degrees(np.zeros(0, dtype=np.int64), batch([], 2), topo)
        np.testing.assert_array_equal(f, [0.0, 0.0])

    def test_full_utilization(self):
        # exactly r_i unit-demand users on each antenna
        topo = make_topo([3, 5])
        assignment = np.array([1] * 3 + [2] * 5, dtype=np.int64)
        f = busy_degrees(assignment, batch([1] * 8, 2), topo)
        np.testing.assert_array_equal(f, [1.0, 1.0])

    def test_mass_conservation(self):
        rng = np.random.default_rng(7)
        topo = make_topo([17, 23, 11, 40])
        demands = rng.integers(1, 5, size=500)
        assignment = rng.integers(1, 5, size=500).astype(np.int64)
        f = busy_degrees(assignment, batch(demands, 4), topo)
        assert np.dot(f, topo.prb_vector()) == pytest.approx(demands.sum(),
                                                             abs=1e-9)

    def test_rejects_out_of_range_ids(self):
        topo = make_topo([10, 10])
        with pytest.raises(ValueError):
            busy_degrees(np.array([1, 3]), batch([1, 1], 2), topo)

    def test_rejects_length_mismatch(self):
        topo = make_topo([10, 10])
        with pytest.raises(ValueError):
            busy_degrees(np.array([1]), batch([1, 1], 2), topo)

    def test_can_exceed_one(self):
        topo = make_topo([2])
        f = busy_degrees(np.array([1, 1, 1]), batch([1, 1, 1], 1), topo)
        assert f[0] == pytest.approx(1.5)


class TestTargets:
    def test_equal_capacity_global_is_plain_mean(self):
        topo = make_topo([100, 100])
        np.testing.assert_allclose(targets(np.array([0.2, 0.4]), topo),
                                   [0.3, 0.3], atol=1e-15)

    def test_uniform_f_is_fixed_point_both_modes(self):
        topo = make_topo([10, 20, 30])
        f = np.array([0.4, 0.4, 0.4])
        np.testing.assert_allclose(targets(f, topo, "global"), f, atol=1e-15)
        np.testing.assert_allclose(targets(f, topo, "local"), f, atol=1e-15)

    def test_weighted_mean(self):
        # (1*0.6 + 2*0.3 + 3*0.1) / 6 = 1.5 / 6
        topo = make_topo([1, 2, 3])
        f = np.array([0.6, 0.3, 0.1])
        np.testing.assert_allclose(targets(f, topo, "global"),
                                   np.full(3, 0.25), atol=1e-15)

    def test_local_mode_uses_neighbourhood_only(self):
        topo = make_topo([10, 10, 10], neighbours=[{2}, {1, 3}, {2}])
        f = np.array([0.2, 0.4, 0.8])
        got = targets(f, topo, "local")
        np.testing.assert_allclose(got, [0.3, (0.2 + 0.4 + 0.8) / 3, 0.6],
                                   atol=1e-15)

    def test_all_idle_raises(self):
        topo = make_topo([10, 10])
        with pytest.raises(ZeroTraffic):
            targets(np.zeros(2), topo)

    def test_unknown_mode(self):
        topo = make_topo([10])
        with pytest.raises(ValueError):
            targets(np.array([0.5]), topo, "median")


class TestDisagreement:
    def test_zero_at_equilibrium(self):
        f = np.array([0.3, 0.5, 0.7])
        np.testing.assert_array_equal(disagreement(f, f.copy()), np.zeros(3))

    def test_hand_case(self):
        d = disagreement(np.array([0.0, 0.6]), np.array([0.3, 0.3]))
        np.testing.assert_allclose(d, [1.0, -1.0], atol=1e-15)

    def test_capacity_weighted_sum_is_zero_under_global_targets(self):
        rng = np.random.default_rng(11)
        topo = make_topo([100] * 8)
        f = rng.uniform(0.05, 0.9, size=8)
        d = disagreement(f, targets(f, topo, "global"))
        assert abs(d.sum()) <= 1e-12

    def test_non_positive_target_raises(self):
        with pytest.raises(ZeroTraffic):
            disagreement(np.array([0.1]), np.array([0.0]))
