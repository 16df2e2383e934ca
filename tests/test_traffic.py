"""Traffic sampling, pathloss and strongest-pilot assignment."""

import os
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from breathenet import traffic
from breathenet.model import Antenna, ConfigError, NetworkTopology
from breathenet.mrdata import generate_mr
from breathenet.synth import grid_topology, tidal_bundle
from breathenet.traffic import (
    AttenuationRecipe,
    Hotspot,
    PathlossModel,
    PeriodSpec,
    TrafficScenario,
    UserBatch,
    assign_users,
    block_rows,
    sample_users,
    scenario_from_dict,
    scenario_to_dict,
)


def line_topo(n, spacing=500.0):
    ants = tuple(Antenna(id=i + 1, p=43.0, p_max=49.0, r=100,
                         position=(i * spacing, 0.0)) for i in range(n))
    neigh = [set() for _ in range(n)]
    for i in range(n - 1):
        neigh[i].add(i + 2)
        neigh[i + 1].add(i + 1)
    return NetworkTopology(ants, tuple(frozenset(s) for s in neigh))


def one_period(total, hotspots, seed=0, **kw):
    return TrafficScenario(periods=(PeriodSpec(total, tuple(hotspots)),),
                           seed=seed, **kw)


class TestScenarioValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            one_period(10, [Hotspot((0, 0), 0.4, 100.0),
                            Hotspot((1, 1), 0.4, 100.0)])

    def test_empty_hotspot_list_rejected(self):
        with pytest.raises(ConfigError):
            PeriodSpec(10, ())

    def test_bad_demand_range(self):
        with pytest.raises(ConfigError):
            one_period(10, [Hotspot((0, 0), 1.0, 100.0)], demand=(2, 1))

    def test_proportional_mode_needs_frozen_geometry(self):
        a = PeriodSpec(100, (Hotspot((0, 0), 1.0, 50.0),))
        b = PeriodSpec(80, (Hotspot((9, 9), 1.0, 50.0),))
        with pytest.raises(ConfigError):
            TrafficScenario(periods=(a, b), mode="proportional")

    def test_round_trip_dict(self):
        s = one_period(50, [Hotspot((3.0, 4.0), 1.0, 80.0, truncate=2.0)],
                       seed=9, mode="free", demand=(1, 3))
        assert scenario_from_dict(scenario_to_dict(s)) == s


class TestSampling:
    def test_empty_period(self):
        topo = line_topo(2)
        scenario = one_period(0, [Hotspot((0, 0), 1.0, 100.0)])
        users = sample_users(scenario, PathlossModel(), topo, 1)
        assert len(users) == 0
        assert int(users.demand.sum()) == 0

    def test_point_blob_on_antenna_one(self):
        # users drop essentially onto antenna 1, no shadowing, so its
        # attenuation column is the smallest for every user
        topo = line_topo(3)
        scenario = one_period(
            200, [Hotspot(tuple(topo.antennas[0].position), 1.0, 1e-6)])
        model = PathlossModel(shadowing_sigma=0.0)
        users = sample_users(scenario, model, topo, 1)
        assert (np.argmin(users.attenuation, axis=1) == 0).all()

    def test_symmetric_split(self):
        # membership of each blob is Binomial(U, 1/2); truncation keeps the
        # blobs apart so position sign identifies the blob. 5 sigma slack.
        topo = line_topo(2, spacing=1000.0)
        u = 10000
        scenario = one_period(u, [
            Hotspot((0.0, 0.0), 0.5, 50.0, truncate=3.0),
            Hotspot((1000.0, 0.0), 0.5, 50.0, truncate=3.0)], seed=13)
        users = sample_users(scenario, PathlossModel(), topo, 1)
        left = int((users.positions[:, 0] < 500.0).sum())
        assert abs(left - u / 2) <= 5 * np.sqrt(u * 0.25)

    def test_pathloss_matches_formula(self):
        topo = line_topo(2)
        scenario = one_period(50, [Hotspot((250.0, 40.0), 1.0, 90.0)], seed=2)
        model = PathlossModel(exponent=3.0, reference_loss=30.0,
                              shadowing_sigma=0.0)
        users = sample_users(scenario, model, topo, 1)
        sites = topo.positions()
        dist = np.maximum(np.hypot(users.positions[:, None, 0] - sites[None, :, 0],
                                   users.positions[:, None, 1] - sites[None, :, 1]),
                          1.0)
        np.testing.assert_allclose(users.attenuation,
                                   30.0 + 30.0 * np.log10(dist), atol=1e-9)

    def test_deterministic_for_fixed_seeds(self):
        topo = line_topo(3)
        scenario = one_period(500, [Hotspot((600.0, 0.0), 1.0, 300.0)], seed=5)
        model = PathlossModel(seed=8)
        a = sample_users(scenario, model, topo, 1)
        b = sample_users(scenario, model, topo, 1)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.attenuation, b.attenuation)
        np.testing.assert_array_equal(a.demand, b.demand)

    def test_period_index_bounds(self):
        topo = line_topo(2)
        scenario = one_period(10, [Hotspot((0, 0), 1.0, 100.0)])
        with pytest.raises(ValueError):
            sample_users(scenario, PathlossModel(), topo, 0)
        with pytest.raises(ValueError):
            sample_users(scenario, PathlossModel(), topo, 2)

    def test_truncation_bounds_offsets(self):
        topo = line_topo(2)
        scenario = one_period(
            2000, [Hotspot((500.0, 0.0), 1.0, 100.0, truncate=1.5)], seed=4)
        users = sample_users(scenario, PathlossModel(), topo, 1)
        radius = np.hypot(users.positions[:, 0] - 500.0, users.positions[:, 1])
        assert radius.max() <= 150.0 + 1e-9

    @staticmethod
    def full_recheck_positions(scenario, k):
        """Period k's positions, every offset checked again after each round
        of redraws; the scenario must never need the fallback."""
        spec = scenario.periods[k - 1]
        rng = np.random.default_rng(np.random.SeedSequence(scenario.seed,
                                                           spawn_key=(k,)))
        weights = np.array([h.weight for h in spec.hotspots])
        counts = rng.multinomial(spec.total_users, weights / weights.sum())
        chunks = []
        for h, cnt in zip(spec.hotspots, counts):
            if cnt:
                offsets = rng.normal(0.0, h.spread, size=(cnt, 2))
                if h.truncate is not None:
                    cap = h.truncate * h.spread
                    for _ in range(64):
                        far = np.hypot(offsets[:, 0], offsets[:, 1]) > cap
                        if not far.any():
                            break
                        offsets[far] = rng.normal(0.0, h.spread,
                                                  size=(int(far.sum()), 2))
                    assert (np.hypot(offsets[:, 0], offsets[:, 1]) <= cap).all()
                chunks.append(np.asarray(h.center, float) + offsets)
        return np.concatenate(chunks)

    def test_redraws_match_the_full_recheck(self):
        bundle = tidal_bundle()
        # a truncate of one spread redraws 61% of the offsets each round
        many = one_period(2000, [Hotspot((500.0, 0.0), 0.7, 100.0, truncate=1.0),
                                 Hotspot((0.0, 0.0), 0.3, 50.0, truncate=1.6)],
                          seed=6)
        worlds = [(bundle.scenario, bundle.pathloss, bundle.topo, k)
                  for k in range(1, bundle.scenario.horizon + 1)]
        worlds.append((many, PathlossModel(), line_topo(2), 1))
        for scenario, model, topo, k in worlds:
            users = sample_users(scenario, model, topo, k)
            assert np.array_equal(users.positions,
                                  self.full_recheck_positions(scenario, k)), k

    def test_truncation_fallback_stays_within_the_cap(self):
        # a cap of 1 m at a spread of 100 m: nearly every offset is still
        # beyond it after 64 rounds and is moved onto it
        scenario = one_period(
            2000, [Hotspot((500.0, 0.0), 1.0, 100.0, truncate=0.01)], seed=4)
        users = sample_users(scenario, PathlossModel(), line_topo(2), 1)
        radius = np.hypot(users.positions[:, 0] - 500.0, users.positions[:, 1])
        assert radius.max() <= 1.0 * (1 + 1e-12)
        assert np.count_nonzero(np.isclose(radius, 1.0)) > 1900


class TestProportionalMode:
    def make(self, counts, seed=21):
        hot = (Hotspot((200.0, 0.0), 0.7, 150.0),
               Hotspot((800.0, 0.0), 0.3, 150.0))
        periods = tuple(PeriodSpec(c, hot) for c in counts)
        return TrafficScenario(periods=periods, seed=seed, mode="proportional")

    def test_shrinking_gives_nested_subsets(self):
        topo = line_topo(2, spacing=1000.0)
        scenario = self.make([1000, 700, 400])
        model = PathlossModel(seed=1)
        p1 = sample_users(scenario, model, topo, 1)
        p2 = sample_users(scenario, model, topo, 2)
        p3 = sample_users(scenario, model, topo, 3)
        as_set = lambda b: set(map(tuple, np.round(b.positions, 9)))
        assert as_set(p3) <= as_set(p2) <= as_set(p1)

    def test_growth_tiles_the_frozen_draw(self):
        topo = line_topo(2, spacing=1000.0)
        scenario = self.make([400, 1000])
        model = PathlossModel(seed=1)
        base = sample_users(scenario, model, topo, 1)
        grown = sample_users(scenario, model, topo, 2)
        assert len(grown) == 1000
        np.testing.assert_array_equal(grown.positions[:400], base.positions)
        np.testing.assert_array_equal(grown.positions[400:800], base.positions)

    def test_relative_density_constant(self):
        # per-antenna assignment shares stay exactly proportional
        topo = line_topo(2, spacing=1000.0)
        scenario = self.make([900, 300])
        model = PathlossModel(seed=1)
        p = topo.initial_powers()
        s1 = np.bincount(assign_users(sample_users(scenario, model, topo, 1), p),
                         minlength=3)[1:]
        s2 = np.bincount(assign_users(sample_users(scenario, model, topo, 2), p),
                         minlength=3)[1:]
        np.testing.assert_allclose(s1 / s1.sum(), s2 / s2.sum(), atol=0.06)


class TestAssignment:
    def batch(self, attenuation):
        att = np.asarray(attenuation, dtype=float)
        return UserBatch(np.zeros((len(att), 2)), att,
                         np.ones(len(att), dtype=np.int64), period=1)

    def test_smaller_attenuation_wins(self):
        got = assign_users(self.batch([[10.0, 20.0]]), np.array([30.0, 30.0]))
        np.testing.assert_array_equal(got, [1])

    def test_tie_goes_to_lowest_id(self):
        got = assign_users(self.batch([[10.0, 10.0]]), np.array([30.0, 30.0]))
        np.testing.assert_array_equal(got, [1])

    def test_power_offsets_attenuation(self):
        got = assign_users(self.batch([[10.0, 20.0]]), np.array([30.0, 41.0]))
        np.testing.assert_array_equal(got, [2])

    def test_boost_never_loses_users(self):
        rng = np.random.default_rng(17)
        att = rng.uniform(60.0, 120.0, size=(1000, 3))
        users = self.batch(att)
        p = np.array([40.0, 40.0, 40.0])
        before = int((assign_users(users, p) == 2).sum())
        p_up = p + np.array([0.0, 3.0, 0.0])
        after = int((assign_users(users, p_up) == 2).sum())
        assert after >= before

    def test_power_length_checked(self):
        with pytest.raises(ValueError):
            assign_users(self.batch([[10.0, 20.0]]), np.array([30.0]))

    def test_empty_batch(self):
        got = assign_users(self.batch(np.zeros((0, 2))), np.array([30.0, 30.0]))
        assert len(got) == 0


class TestTotalTraffic:
    def test_empty(self):
        users = UserBatch(np.zeros((0, 2)), np.zeros((0, 2)),
                          np.zeros(0, dtype=np.int64), period=1)
        assert int(users.demand.sum()) == 0

    def test_three_unit_users(self):
        users = UserBatch(np.zeros((3, 2)), np.zeros((3, 2)),
                          np.ones(3, dtype=np.int64), period=1)
        assert int(users.demand.sum()) == 3

    def test_sampled_period_count(self):
        topo = line_topo(2)
        scenario = one_period(500, [Hotspot((0, 0), 1.0, 200.0)])
        users = sample_users(scenario, PathlossModel(), topo, 1)
        assert int(users.demand.sum()) == 500


def unblocked_attenuation(positions, sites, model, k):
    """The whole-matrix pathloss formula on the squared distance, the
    reference for the row-blocked kernel: one (U, n) expression and one
    (U, n) shadowing draw."""
    dx = positions[:, None, 0] - sites[None, :, 0]
    dy = positions[:, None, 1] - sites[None, :, 1]
    att = (model.reference_loss
           + 5.0 * model.exponent * np.log10(np.maximum(dx * dx + dy * dy, 1.0)))
    if model.shadowing_sigma > 0 and len(positions):
        shadow_rng = np.random.default_rng(
            np.random.SeedSequence(model.seed, spawn_key=(k, 1)))
        att += model.shadowing_sigma * shadow_rng.standard_normal(att.shape)
    return att


WORKER_COUNTS = (1, 2, 3)


def sample_per_worker_count(monkeypatch, *args):
    """sample_users(*args) once per worker count, keyed by the count, with
    the matrix filled under that count."""
    batches = {}
    for workers in WORKER_COUNTS:
        monkeypatch.setattr(traffic, "_sampling_workers", lambda: workers)
        batches[workers] = sample_users(*args)
        batches[workers].attenuation  # the fill runs on first access
    return batches


def in_time(call, timeout=60.0):
    """call() on a thread joined with a timeout: its result, or the
    exception it raised. The kernel must end and leave no worker behind."""
    before = set(threading.enumerate())
    outcome = []

    def run():
        try:
            outcome.append(call())
        except Exception as exc:
            outcome.append(exc)

    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout)
    assert not caller.is_alive(), "the fill is still waiting"
    assert set(threading.enumerate()) <= before
    return outcome[0]


def sample_in_time(*args):
    """sample_users(*args) with its matrix filled, through ``in_time``."""

    def fill():
        batch = sample_users(*args)
        batch.attenuation
        return batch

    return in_time(fill)


def at_each_worker_count(name, points):
    """Parametrize ``workers`` over WORKER_COUNTS and ``name`` over the
    values of ``points``; the first point's cases keep the bare worker-count
    id, the others append their key."""
    first = next(iter(points))
    return pytest.mark.parametrize(("workers", name), [
        pytest.param(workers, value,
                     id=str(workers) if key == first else f"{workers}-{key}")
        for key, value in points.items() for workers in WORKER_COUNTS])


class FailingDraw:
    """A shadowing generator that counts its draws; the draw for block
    ``fail_at`` (from 1) raises, and with ``fail_at=None`` none does."""

    def __init__(self, rng, fail_at):
        self.rng = rng
        self.fail_at = fail_at
        self.draws = 0

    def standard_normal(self, out):
        self.draws += 1
        if self.draws == self.fail_at:
            raise RuntimeError("shadowing draw failed")
        return self.rng.standard_normal(out=out)


class TestBlockedAttenuation:
    """The attenuation kernel fills the matrix in row blocks on one to three
    threads; under every worker count it must be bitwise the one-shot
    formula on both sides of every block edge."""

    N = 64
    B = block_rows(N)

    def sample(self, monkeypatch, users, model, demand=(1, 1), k=1):
        topo = line_topo(self.N, spacing=150.0)
        spots = [Hotspot((4000.0, 300.0), 0.7, 2500.0),
                 Hotspot((9000.0, -200.0), 0.3, 800.0, truncate=2.0)]
        scenario = TrafficScenario(
            periods=tuple(PeriodSpec(users, tuple(spots)) for _ in range(k)),
            seed=17, demand=demand)
        return topo, sample_per_worker_count(monkeypatch, scenario, model, topo, k)

    def assert_unblocked(self, topo, batches, model, k=1):
        for workers, batch in batches.items():
            want = unblocked_attenuation(batch.positions, topo.positions(), model, k)
            assert np.array_equal(batch.attenuation, want), workers

    @pytest.mark.parametrize("users", [0, 1, B - 1, B, B + 1, 3 * B + 7])
    def test_matches_unblocked_formula(self, monkeypatch, users):
        model = PathlossModel(exponent=3.7, reference_loss=31.5,
                              shadowing_sigma=6.0, seed=23)
        topo, batches = self.sample(monkeypatch, users, model, k=2)
        assert all(b.attenuation.shape == (users, self.N) for b in batches.values())
        self.assert_unblocked(topo, batches, model, k=2)

    def test_without_shadowing(self, monkeypatch):
        model = PathlossModel(shadowing_sigma=0.0, seed=5)
        topo, batches = self.sample(monkeypatch, 2 * self.B + 3, model)
        self.assert_unblocked(topo, batches, model)

    def test_with_a_demand_range(self, monkeypatch):
        model = PathlossModel(seed=8)
        topo, batches = self.sample(monkeypatch, self.B + 5, model, demand=(2, 5))
        assert all(b.demand.min() >= 2 and b.demand.max() <= 5
                   for b in batches.values())
        self.assert_unblocked(topo, batches, model)

    def test_fewer_blocks_than_workers(self, monkeypatch):
        users = 2 * self.B - 5
        assert len(range(0, users, self.B)) < max(WORKER_COUNTS)
        model = PathlossModel(shadowing_sigma=3.0, seed=9)
        topo, batches = self.sample(monkeypatch, users, model)
        self.assert_unblocked(topo, batches, model)

    # the first draw fails before any block is filled
    @at_each_worker_count("fail_at", {"second": 2, "first": 1})
    def test_a_failing_draw_is_raised_and_frees_every_worker(self, monkeypatch,
                                                             workers, fail_at):
        real_rng = np.random.default_rng

        def rng_for(seed):
            rng = real_rng(seed)
            # the shadowing stream is the one spawned with key (k, 1)
            return (FailingDraw(rng, fail_at) if seed.spawn_key == (1, 1)
                    else rng)

        monkeypatch.setattr(np.random, "default_rng", rng_for)
        monkeypatch.setattr(traffic, "_sampling_workers", lambda: workers)
        topo = line_topo(self.N, spacing=150.0)
        scenario = TrafficScenario(
            periods=(PeriodSpec(4 * self.B, (Hotspot((4000.0, 0.0), 1.0, 2500.0),)),),
            seed=17)
        got = sample_in_time(scenario, PathlossModel(seed=3), topo, 1)
        assert isinstance(got, RuntimeError)
        assert str(got) == "shadowing draw failed"

    @pytest.mark.parametrize("workers", [w for w in WORKER_COUNTS if w >= 2])
    def test_draws_take_turns_in_block_order(self, monkeypatch, workers):
        # each draw sleeps before it takes its numbers: a draw made outside
        # the turn overlaps another one and takes the stream out of order
        real_rng = np.random.default_rng
        counting = threading.Lock()
        drawing, overlaps = [0], []

        class SlowDraw(FailingDraw):
            def standard_normal(self, out):
                with counting:
                    drawing[0] += 1
                    if drawing[0] > 1:
                        overlaps.append(drawing[0])
                time.sleep(0.002)
                try:
                    return super().standard_normal(out)
                finally:
                    with counting:
                        drawing[0] -= 1

        def rng_for(seed):
            rng = real_rng(seed)
            return SlowDraw(rng, None) if seed.spawn_key == (1, 1) else rng

        monkeypatch.setattr(np.random, "default_rng", rng_for)
        monkeypatch.setattr(traffic, "_sampling_workers", lambda: workers)
        topo = line_topo(self.N, spacing=150.0)
        scenario = TrafficScenario(
            periods=(PeriodSpec(12 * self.B - 7,
                                (Hotspot((4000.0, 0.0), 1.0, 2500.0),)),),
            seed=19)
        model = PathlossModel(shadowing_sigma=5.0, seed=6)
        batch = sample_in_time(scenario, model, topo, 1)
        assert not overlaps
        monkeypatch.setattr(np.random, "default_rng", real_rng)
        want = unblocked_attenuation(batch.positions, topo.positions(), model, 1)
        assert np.array_equal(batch.attenuation, want)

    def test_more_workers_than_cores_under_a_short_switch_interval(self, monkeypatch):
        # more workers than cores, at most 8 to keep the batch small
        workers = min((os.cpu_count() or 1) + 1, 8)
        monkeypatch.setattr(traffic, "_sampling_workers", lambda: workers)
        topo = line_topo(self.N, spacing=150.0)
        scenario = TrafficScenario(
            periods=(PeriodSpec(2 * workers * self.B + 1,
                                (Hotspot((4000.0, 0.0), 1.0, 2500.0),)),),
            seed=5)
        model = PathlossModel(shadowing_sigma=4.0, seed=11)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            batch = sample_in_time(scenario, model, topo, 1)
        finally:
            sys.setswitchinterval(interval)
        want = unblocked_attenuation(batch.positions, topo.positions(), model, 1)
        assert np.array_equal(batch.attenuation, want)

    @pytest.mark.parametrize("later", [B // 3, 2 * B + 11])
    def test_proportional_rescale(self, monkeypatch, later):
        topo = line_topo(self.N, spacing=150.0)
        spots = (Hotspot((4000.0, 0.0), 1.0, 3000.0),)
        base_users = self.B + 9
        scenario = TrafficScenario(
            periods=(PeriodSpec(base_users, spots), PeriodSpec(later, spots)),
            seed=41, mode="proportional")
        model = PathlossModel(seed=42)
        bases = sample_per_worker_count(monkeypatch, scenario, model, topo, 1)
        self.assert_unblocked(topo, bases, model)
        base = bases[1]
        want_base = unblocked_attenuation(base.positions, topo.positions(), model, 1)
        perm = np.random.default_rng(
            np.random.SeedSequence(41, spawn_key=(0, 97))).permutation(base_users)
        reps, rem = divmod(later, base_users)
        pick = np.concatenate([np.tile(np.arange(base_users), reps), perm[:rem]])
        for workers, got in sample_per_worker_count(
                monkeypatch, scenario, model, topo, 2).items():
            assert np.array_equal(got.positions, base.positions[pick]), workers
            assert np.array_equal(got.attenuation, want_base[pick]), workers


class TestStreamedRanking:
    """generate_mr ranks each block of a sampled batch as the kernel
    finishes it, on the kernel's threads. Under every worker count the
    reports must be bitwise generate_mr on the explicit one-shot matrix."""

    N = 64
    B = block_rows(N)
    POWERS = 40.0 + np.arange(N) % 7

    def scenario(self, *counts, mode="free"):
        spots = (Hotspot((4000.0, 300.0), 0.6, 2500.0),
                 Hotspot((7000.0, -200.0), 0.4, 900.0))
        return TrafficScenario(
            periods=tuple(PeriodSpec(c, spots) for c in counts), seed=29,
            mode=mode)

    def assert_streamed(self, monkeypatch, scenario, model, k, top_m=6,
                        want_att=None):
        """generate_mr(sample_users(..., k)) under each worker count equals
        generate_mr on the batch's explicit matrix ``want_att(batch, topo)``,
        by default the one-shot formula at the batch's own positions."""
        topo = line_topo(self.N, spacing=150.0)
        if want_att is None:
            def want_att(batch, topo):
                return unblocked_attenuation(batch.positions, topo.positions(),
                                             model, k)
        for workers in WORKER_COUNTS:
            monkeypatch.setattr(traffic, "_sampling_workers", lambda: workers)
            batch = sample_users(scenario, model, topo, k)
            got = generate_mr(batch, self.POWERS, top_m)
            explicit = UserBatch(batch.positions, want_att(batch, topo),
                                 batch.demand, k)
            want = generate_mr(explicit, self.POWERS, top_m)
            assert np.array_equal(got.ids, want.ids), workers
            assert np.array_equal(got.values, want.values), workers
            assert got.ids.shape == (len(batch), min(top_m, self.N))

    @pytest.mark.parametrize("users", [0, 1, B - 1, B, B + 1, 3 * B + 7])
    def test_matches_the_explicit_matrix(self, monkeypatch, users):
        model = PathlossModel(exponent=3.3, shadowing_sigma=5.0, seed=31)
        self.assert_streamed(monkeypatch, self.scenario(users, users), model, 2)

    def test_without_shadowing(self, monkeypatch):
        model = PathlossModel(shadowing_sigma=0.0, seed=31)
        self.assert_streamed(monkeypatch, self.scenario(2 * self.B + 3), model, 1)

    @pytest.mark.parametrize("top_m", [N, N + 5])
    def test_top_m_at_least_the_antenna_count(self, monkeypatch, top_m):
        self.assert_streamed(monkeypatch, self.scenario(self.B + 5),
                             PathlossModel(seed=31), 1, top_m=top_m)

    @pytest.mark.parametrize("later", [B // 3, 2 * B + 11], ids=["thin", "tile"])
    def test_proportional_rescale(self, monkeypatch, later):
        base_users = self.B + 9
        scenario = self.scenario(base_users, later, mode="proportional")
        model = PathlossModel(seed=43)
        perm = np.random.default_rng(
            np.random.SeedSequence(29, spawn_key=(0, 97))).permutation(base_users)
        reps, rem = divmod(later, base_users)
        pick = np.concatenate([np.tile(np.arange(base_users), reps), perm[:rem]])

        def base_rows(batch, topo):
            base = sample_users(scenario, model, topo, 1)
            assert np.array_equal(batch.positions, base.positions[pick])
            return unblocked_attenuation(base.positions, topo.positions(),
                                         model, 1)[pick]

        self.assert_streamed(monkeypatch, scenario, model, 2, want_att=base_rows)

    @at_each_worker_count("failing_block", {"third": 2, "first": 0, "last": 5})
    def test_a_failing_consumer_is_raised_and_frees_every_worker(
            self, monkeypatch, workers, failing_block):
        monkeypatch.setattr(traffic, "_sampling_workers", lambda: workers)
        topo = line_topo(self.N, spacing=150.0)
        batch = sample_users(self.scenario(6 * self.B), PathlossModel(seed=3),
                             topo, 1)
        seen = []

        def consume(lo, hi, att, spare):
            seen.append(lo)
            if lo == failing_block * self.B:
                raise RuntimeError("consumer failed")

        got = in_time(lambda: batch.each_block(consume))
        assert isinstance(got, RuntimeError)
        assert str(got) == "consumer failed"
        assert failing_block * self.B in seen
        # the batch streams again in full afterwards
        seen.clear()
        batch.each_block(lambda lo, hi, att, spare: seen.append(lo))
        assert sorted(seen) == list(range(0, 6 * self.B, self.B))

    @pytest.mark.parametrize("workers", [w for w in WORKER_COUNTS if w >= 2])
    def test_a_failing_block_stops_the_draw(self, monkeypatch, workers):
        # the consumer fails on block 0 of 40: every worker must stop
        # drawing, leaving most blocks undrawn
        blocks = 40
        real_rng = np.random.default_rng
        shadowing = []

        def rng_for(seed):
            rng = real_rng(seed)
            if seed.spawn_key != (1, 1):
                return rng
            shadowing.append(FailingDraw(rng, fail_at=None))
            return shadowing[-1]

        monkeypatch.setattr(np.random, "default_rng", rng_for)
        monkeypatch.setattr(traffic, "_sampling_workers", lambda: workers)
        topo = line_topo(self.N, spacing=150.0)
        batch = sample_users(self.scenario(blocks * self.B),
                             PathlossModel(seed=3), topo, 1)

        def consume(lo, hi, att, spare):
            if lo == 0:
                raise RuntimeError("consumer failed")

        got = in_time(lambda: batch.each_block(consume))
        assert isinstance(got, RuntimeError)
        [draw] = shadowing
        assert draw.draws < blocks // 2, draw.draws

    @pytest.mark.parametrize("workers", [w for w in WORKER_COUNTS if w >= 2])
    def test_a_draw_slot_is_reused_only_after_its_block_ended(
            self, monkeypatch, workers):
        # slow consumers keep every worker's planes busy: each draw must land
        # in a buffer whose last block has already reached its consumer
        blocks = 24
        real_rng = np.random.default_rng
        owner, consumed, clobbered = {}, set(), []

        class RecordingDraw(FailingDraw):
            def standard_normal(self, out):
                slot = out.__array_interface__["data"][0]
                if slot in owner and owner[slot] not in consumed:
                    clobbered.append((self.draws, owner[slot]))
                owner[slot] = self.draws
                return super().standard_normal(out)

        def rng_for(seed):
            rng = real_rng(seed)
            return RecordingDraw(rng, None) if seed.spawn_key == (1, 1) else rng

        monkeypatch.setattr(np.random, "default_rng", rng_for)
        monkeypatch.setattr(traffic, "_sampling_workers", lambda: workers)
        topo = line_topo(self.N, spacing=150.0)
        batch = sample_users(self.scenario(blocks * self.B),
                             PathlossModel(seed=3), topo, 1)

        def consume(lo, hi, att, spare):
            consumed.add(lo // self.B)
            time.sleep(0.002)

        in_time(lambda: batch.each_block(consume))
        assert len(consumed) == blocks
        assert not clobbered

    PAIRS = 6

    def mirrored(self):
        """Antennas in mirror pairs about x = 0, and users on that axis or
        within 1e-9 m of it: at equal powers every row holds an exact tie
        or a near-tie straddling a cut at an odd top_m, and σ = 0 keeps it."""
        rng = np.random.default_rng(7)
        half = np.column_stack([rng.uniform(100.0, 3000.0, self.PAIRS),
                                rng.uniform(-3000.0, 3000.0, self.PAIRS)])
        sites = np.concatenate([half, half * [-1.0, 1.0]])
        users = 3 * block_rows(len(sites)) + 7
        x = np.where(rng.random(users) < 0.3, 0.0,
                     rng.uniform(-1e-9, 1e-9, users))
        positions = np.column_stack([x, rng.uniform(-4000.0, 4000.0, users)])
        model = PathlossModel(exponent=3.1, shadowing_sigma=0.0, seed=1)
        batch = UserBatch(positions,
                          AttenuationRecipe(positions, sites, model, 1, (43.0, 49.0)),
                          np.ones(users, np.int64), 1)
        return batch, unblocked_attenuation(positions, sites, model, 1)

    @staticmethod
    def ranked(att, powers, m):
        """The top m of each row by received strength, ties to the lowest
        id, written out with one lexsort of the whole explicit matrix."""
        v = powers - att
        order = np.lexsort((np.broadcast_to(np.arange(att.shape[1]), att.shape),
                            -v), axis=1)[:, :m]
        return order + 1, np.take_along_axis(v, order, axis=1)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_ties_at_the_cut_rank_as_the_explicit_matrix(self, monkeypatch,
                                                         workers):
        monkeypatch.setattr(traffic, "_sampling_workers", lambda: workers)
        batch, att = self.mirrored()
        powers = np.full(2 * self.PAIRS, 43.0)
        for top_m in (1, 3, 5):
            want_ids, want_vals = self.ranked(att, powers, top_m)
            v = np.sort(powers - att, axis=1)[:, ::-1]
            # ties and near-ties (within 1e-9 dB) straddle the cut in every row
            assert (v[:, top_m - 1] - v[:, top_m] <= 1e-9).all()
            assert (v[:, top_m - 1] == v[:, top_m]).any()
            got = generate_mr(batch, powers, top_m)
            explicit = generate_mr(UserBatch(batch.positions, att, batch.demand, 1),
                                   powers, top_m)
            for mr in (got, explicit):
                assert np.array_equal(mr.ids, want_ids), (workers, top_m)
                assert np.array_equal(mr.values, want_vals), (workers, top_m)

    def test_one_period_holds_no_user_by_antenna_matrix(self, monkeypatch):
        # 20k users x 1000 antennas: the matrix alone would be 160 MB
        monkeypatch.setattr(traffic, "_sampling_workers",
                            lambda: traffic.MAX_SAMPLING_WORKERS)
        topo = line_topo(1000, spacing=30.0)
        scenario = one_period(20000, [Hotspot((15000.0, 0.0), 1.0, 8000.0)],
                              seed=3)
        tracemalloc.start()
        try:
            mr = generate_mr(sample_users(scenario, PathlossModel(seed=4), topo, 1),
                             topo.initial_powers())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(mr) == 20000
        assert peak < 16 * 2**20, peak / 2**20


def pruned_attenuation(positions, sites, model, k, margin):
    """The attenuation of a pruning recipe, written out for every pair at
    once, and each cell's candidacy: candidate z from the (k, 1) stream in
    row-major order over the candidate cells, any other cell's z from its
    row's (k, 2, row) stream in ascending antenna order, clipped."""
    pathloss = unblocked_attenuation(positions, sites,
                                     PathlossModel(model.exponent,
                                                   model.reference_loss, 0.0),
                                     k)
    rank = traffic.CANDIDATE_RANK
    cut = np.partition(pathloss, rank - 1, axis=1)[:, rank - 1] + margin
    candidate = pathloss <= cut[:, None]
    z = np.empty_like(pathloss)
    z[candidate] = np.random.default_rng(np.random.SeedSequence(
        model.seed, spawn_key=(k, 1))).standard_normal(np.count_nonzero(candidate))
    for r, row in enumerate(candidate):
        z[r, ~row] = np.random.default_rng(np.random.SeedSequence(
            model.seed, spawn_key=(k, 2, r))).standard_normal(np.count_nonzero(~row))
    np.clip(z, -traffic.SHADOW_CLIP, traffic.SHADOW_CLIP, out=z, where=~candidate)
    return pathloss + model.shadowing_sigma * z, candidate


class TestCandidateDraw:
    """Above the gate a recipe draws the period's stream only for each row's
    candidate cells, and generate_mr ranks any row an undrawn cell might
    enter in full. Under every worker count the batch must be bitwise the
    brute-force fill that applies the same z definition to every pair."""

    # 256 antennas: above the gate at sigma 2
    GRID = grid_topology(16, 16, spacing=300.0)
    LINE = line_topo(1000, spacing=30.0)
    MODEL = PathlossModel(seed=4)
    # 400 antennas at sigma 0.5: each bucket lists 19-52 sites, and most
    # users lie on the buckets
    INDEXED = grid_topology(20, 20, spacing=300.0)
    SHARP = PathlossModel(shadowing_sigma=0.5, seed=4)
    # 500 antennas at sigma 2: most buckets list between n/8 and n/2 sites
    HALF = grid_topology(25, 20, spacing=300.0)

    def world(self, topo, blocks=3):
        users = blocks * block_rows(topo.n) + 7
        sites = topo.positions()
        centre = tuple(sites.mean(axis=0))
        spread = float(np.ptp(sites, axis=0).max()) / 3
        scenario = one_period(users, [Hotspot(centre, 1.0, spread)], seed=9)
        return scenario, sites

    def sample(self, topo, blocks=3, model=MODEL):
        scenario, sites = self.world(topo, blocks)
        batch = sample_users(scenario, model, topo, 1)
        margin = batch._recipe.margin
        assert margin is not None
        return batch, pruned_attenuation(batch.positions, sites, model, 1, margin)

    @staticmethod
    def count_completed(monkeypatch):
        """Count the rows ``Undrawn.complete`` completes, on any thread."""
        completed = []
        complete = traffic.Undrawn.complete

        def counting(self, rows, held):
            completed.extend(rows)
            complete(self, rows, held)

        monkeypatch.setattr(traffic.Undrawn, "complete", counting)
        return completed

    @pytest.mark.parametrize("side, sigma, box, pruned", [
        (16, 2.0, (43.0, 49.0), True),
        (14, 2.0, (43.0, 49.0), False),  # 196 antennas: under the gate
        (16, 0.0, (43.0, 49.0), False),
        (16, 2.0, (30.0, 49.0), False),  # a wide box widens the margin
    ])
    def test_the_gate(self, side, sigma, box, pruned):
        sites = grid_topology(side, side).positions()
        recipe = AttenuationRecipe(np.zeros((1, 2)), sites,
                                   PathlossModel(shadowing_sigma=sigma), 1, box)
        assert (recipe.margin is not None) == pruned

    @pytest.mark.parametrize("topo", [GRID, LINE], ids=["grid", "line"])
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_ranks_as_the_brute_force_fill(self, monkeypatch, topo, workers):
        monkeypatch.setattr(traffic, "_sampling_workers", lambda: workers)
        completed = self.count_completed(monkeypatch)
        batch, (att, candidate) = self.sample(topo)
        rng = np.random.default_rng(workers)
        p_max = topo.p_max_vector()
        for where, powers in [("initial", topo.initial_powers()),
                              ("box", rng.uniform(43.0, p_max)),
                              ("below", rng.uniform(0.0, p_max))]:
            completed.clear()
            for top_m in (1, 6, 8):
                want_ids, want_vals = TestStreamedRanking.ranked(att, powers, top_m)
                got = generate_mr(batch, powers, top_m)
                assert np.array_equal(got.ids, want_ids), (where, top_m)
                assert np.array_equal(got.values, want_vals), (where, top_m)
            # inside the box no row of this world needs its undrawn cells;
            # far below it some rows must be ranked in full
            assert bool(completed) == (where == "below"), where
        if topo is self.GRID:
            # on a plane the gate admits networks where candidates are a
            # minority; users far off a line see most of it within the margin
            assert candidate.sum() < candidate.size / 2
            # the rows in indexed buckets take the index, though they are
            # fewer than half
            seen = []
            batch.each_block(lambda lo, hi, att, spare, undrawn:
                             seen.append(undrawn))
            near = sum(len(u.rows) for u in seen if u.columns is not None)
            assert 0 < 2 * near < len(batch)

    def indexed(self, monkeypatch):
        """The INDEXED world's batch and brute-force fill, at a block size
        that splits its 1487 users into about a dozen blocks. Most rows take
        the site index, some stay dense, and some blocks hold both."""
        monkeypatch.setattr(traffic, "BLOCK_ELEMENTS", 1 << 14)
        batch, fill = self.sample(self.INDEXED, blocks=37, model=self.SHARP)
        seen = []
        batch.each_block(lambda lo, hi, att, spare, undrawn: seen.append(
            (lo, undrawn.columns is None, len(undrawn.rows))))
        near = sum(rows for _, dense, rows in seen if not dense)
        assert 2 * near > len(batch) > near
        assert len({lo for lo, _, _ in seen}) > traffic.MAX_SAMPLING_WORKERS
        assert len(seen) > len({lo for lo, _, _ in seen})
        return batch, fill

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_indexed_rows_rank_as_the_brute_force_fill(self, monkeypatch,
                                                       workers):
        monkeypatch.setattr(traffic, "_sampling_workers", lambda: workers)
        completed = self.count_completed(monkeypatch)
        batch, (att, _) = self.indexed(monkeypatch)
        rng = np.random.default_rng(workers)
        p_max = self.INDEXED.p_max_vector()
        for where, powers in [("initial", self.INDEXED.initial_powers()),
                              ("box", rng.uniform(43.0, p_max)),
                              ("below", rng.uniform(0.0, p_max))]:
            for top_m in (1, 6, 8):
                completed.clear()
                want_ids, want_vals = TestStreamedRanking.ranked(att, powers, top_m)
                got = in_time(lambda: generate_mr(batch, powers, top_m))
                assert np.array_equal(got.ids, want_ids), (where, top_m)
                assert np.array_equal(got.values, want_vals), (where, top_m)
                # inside the box a list within the nearest candidates stands;
                # at sigma 0.5 an 8th entry may lie past the margin
                if top_m <= traffic.CANDIDATE_RANK:
                    assert bool(completed) == (where == "below"), (where, top_m)
        # a list longer than a bucket's superset ranks every row in full
        completed.clear()
        want_ids, want_vals = TestStreamedRanking.ranked(att, powers, 60)
        got = in_time(lambda: generate_mr(batch, powers, 60))
        assert np.array_equal(got.ids, want_ids)
        assert np.array_equal(got.values, want_vals)
        assert len(completed) == len(batch)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_buckets_listing_up_to_half_the_sites_are_indexed(self, monkeypatch,
                                                              workers):
        monkeypatch.setattr(traffic, "_sampling_workers", lambda: workers)
        batch, (att, _) = self.sample(self.HALF)
        index = traffic._site_index(batch._recipe.sites, batch._recipe.margin,
                                    self.MODEL.exponent)
        # every bucket is indexed, nearly all of them listing over n/8 sites
        sizes = index.size
        assert (index.slot >= 0).all() and 2 * sizes.max() <= self.HALF.n
        assert 10 * np.count_nonzero(8 * sizes > self.HALF.n) > 9 * sizes.size
        seen = []
        in_time(lambda: batch.each_block(lambda lo, hi, att, spare, undrawn:
                                         seen.append(undrawn)))
        near = sum(len(u.rows) for u in seen if u.columns is not None)
        assert 2 * near > len(batch)
        rng = np.random.default_rng(workers)
        p_max = self.HALF.p_max_vector()
        for where, powers in [("initial", self.HALF.initial_powers()),
                              ("box", rng.uniform(43.0, p_max)),
                              ("below", rng.uniform(0.0, p_max))]:
            for top_m in (1, 6, 8):
                want_ids, want_vals = TestStreamedRanking.ranked(att, powers, top_m)
                got = in_time(lambda: generate_mr(batch, powers, top_m))
                assert np.array_equal(got.ids, want_ids), (where, top_m)
                assert np.array_equal(got.values, want_vals), (where, top_m)

    def test_indexed_matrix_and_assignment(self, monkeypatch):
        batch, (att, _) = self.indexed(monkeypatch)
        powers = np.random.default_rng(4).uniform(0.0, 49.0, self.INDEXED.n)
        got = in_time(lambda: assign_users(batch, powers))
        assert batch._matrix is None  # assignment forms no U x n matrix
        matrix = in_time(lambda: batch.attenuation)
        assert np.array_equal(matrix, att)
        assert np.array_equal(got, np.argmax(powers - matrix, axis=1) + 1)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_matrix_and_assignment_are_the_brute_force_fill(self, monkeypatch,
                                                            workers):
        monkeypatch.setattr(traffic, "_sampling_workers", lambda: workers)
        batch, (att, _) = self.sample(self.GRID)
        powers = np.random.default_rng(3).uniform(43.0, 49.0, self.GRID.n)
        serving = generate_mr(batch, powers).serving()
        assert np.array_equal(batch.attenuation, att)
        assert np.array_equal(assign_users(batch, powers), serving)

    def test_proportional_rescale(self):
        scenario, sites = self.world(self.GRID)
        [base_period] = scenario.periods
        later_period = replace(base_period,
                               total_users=2 * base_period.total_users + 5)
        scenario = replace(scenario, mode="proportional",
                           periods=(base_period, later_period))
        base = sample_users(scenario, self.MODEL, self.GRID, 1)
        att, _ = pruned_attenuation(base.positions, sites, self.MODEL, 1,
                                    base._recipe.margin)
        later = sample_users(scenario, self.MODEL, self.GRID, 2)
        powers = np.random.default_rng(5).uniform(0.0, 49.0, self.GRID.n)
        want_ids, want_vals = TestStreamedRanking.ranked(att[later.pick], powers, 6)
        got = generate_mr(later, powers)
        assert np.array_equal(got.ids, want_ids)
        assert np.array_equal(got.values, want_vals)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(top_m=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           # every such world stays above the gate
           sigma=st.floats(0.5, 1.5), exponent=st.floats(3.5, 4.5),
           low=st.sampled_from([0.0, 43.0]))
    def test_no_undrawn_cell_beats_a_listed_entry(self, top_m, seed, sigma,
                                                  exponent, low):
        model = PathlossModel(exponent=exponent, shadowing_sigma=sigma, seed=seed)
        batch, (att, candidate) = self.sample(self.GRID, blocks=1, model=model)
        powers = np.random.default_rng(seed).uniform(low, 49.0, self.GRID.n)
        got = generate_mr(batch, powers, top_m)
        v = powers - att
        cols = got.ids.astype(np.int64) - 1
        assert np.array_equal(np.take_along_axis(v, cols, axis=1), got.values)
        last_v, last_id = got.values[:, -1:], cols[:, -1:]
        listed = np.zeros(v.shape, bool)
        np.put_along_axis(listed, cols, True, axis=1)
        beats = (v > last_v) | ((v == last_v) & (np.arange(self.GRID.n) < last_id))
        assert not (beats & ~candidate & ~listed).any()

    # each failure point: (the step that raises, which call of it raises)
    FAILURES = {"geometry": ("_mark_candidates", 2), "draw": ("draw", 2),
                "consumer": ("consume", 2)}

    @at_each_worker_count("failure", FAILURES)
    def test_a_failure_is_raised_and_frees_every_worker(self, monkeypatch,
                                                        workers, failure):
        step, fail_at = failure
        monkeypatch.setattr(traffic, "_sampling_workers", lambda: workers)
        batch, _ = self.sample(self.GRID, blocks=6)
        calls = []
        guard = threading.Lock()

        def counted():
            with guard:
                calls.append(None)
                return len(calls)

        real_rng = np.random.default_rng
        if step == "draw":
            monkeypatch.setattr(np.random, "default_rng", lambda seed: (
                FailingDraw(real_rng(seed), fail_at) if seed.spawn_key == (1, 1)
                else real_rng(seed)))
        elif step == "_mark_candidates":
            mark = traffic._mark_candidates

            def failing_mark(*args):
                if counted() == fail_at:
                    raise RuntimeError("_mark_candidates failed")
                return mark(*args)

            monkeypatch.setattr(traffic, "_mark_candidates", failing_mark)

        def consume(lo, hi, att, spare, undrawn):
            if step == "consume" and counted() == fail_at:
                raise RuntimeError("consume failed")

        got = in_time(lambda: batch.each_block(consume))
        assert isinstance(got, RuntimeError)
        assert str(got) == ("shadowing draw failed" if step == "draw"
                            else f"{step} failed")

    def test_more_workers_than_cores_under_a_short_switch_interval(
            self, monkeypatch):
        workers = min((os.cpu_count() or 1) + 1, 8)
        monkeypatch.setattr(traffic, "_sampling_workers", lambda: workers)
        batch, (att, _) = self.sample(self.GRID, blocks=2 * workers + 1)
        powers = self.GRID.initial_powers()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = in_time(lambda: generate_mr(batch, powers))
            matrix = in_time(lambda: batch.attenuation)
        finally:
            sys.setswitchinterval(interval)
        want_ids, want_vals = TestStreamedRanking.ranked(att, powers, 6)
        assert np.array_equal(got.ids, want_ids)
        assert np.array_equal(got.values, want_vals)
        assert np.array_equal(matrix, att)


def pathloss_to(users, site_x, site_y, model):
    """The kernel's pathloss from each user to site coordinates broadcast
    against its rows, written out as one expression."""
    dx = users[:, 0, None] - site_x
    dy = users[:, 1, None] - site_y
    return (model.reference_loss
            + 5.0 * model.exponent * np.log10(np.maximum(dx * dx + dy * dy, 1.0)))


@st.composite
def site_layouts(draw):
    """(sites, users, margin, exponent): sites on a plane of any aspect, on
    a line (level or slanted), piled on a few points, or placed so that a
    user on a bucket corner has a site exactly at its bucket's radius;
    users anywhere in and around the box, on bucket corners and edges,
    within 1 m of a site, and kilometres off."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(traffic.CANDIDATE_RANK, 40))
    kind = draw(st.sampled_from(["plane", "level", "slanted", "piled", "tight"]))
    exponent = draw(st.floats(2.0, 8.0))
    margin = draw(st.floats(0.5, 40.0))
    width = draw(st.floats(1.0, 1e5))
    if kind == "plane":
        sites = rng.uniform(0.0, 1.0, (n, 2)) * [width, draw(st.floats(1.0, 1e5))]
    elif kind in ("level", "slanted"):
        x = rng.uniform(0.0, width, n)
        sites = np.column_stack([x, 0.1 * x if kind == "slanted" else np.zeros(n)])
    elif kind == "piled":
        points = rng.uniform(0.0, width, (draw(st.integers(1, 3)), 2))
        sites = points[rng.integers(0, len(points), n)]
    else:
        # a user u on the lower-left corner of the middle bucket, the
        # bucket centre c, six sites piled beyond c on the line from u, and
        # one site t beyond u on it: |u - t| is kf * (|u - pile|) and
        # |c - t| the bucket's radius, both up to rounding
        exponent, n = 4.0, 36
        margin = draw(st.floats(0.5, 10.0))
        edge = 1e4
        side = traffic.INDEX_SIDE * edge / np.sqrt(n)
        origin = -2 * side
        corner = origin + side * np.ceil((edge / 2 - origin) / side)
        u = np.array([corner, corner])
        c = u + side / 2
        hd = side / np.sqrt(2)
        unit = (c - u) / hd
        d6 = draw(st.floats(0.2, 1.5)) * side
        kf = 10 ** (margin / (10 * exponent))
        fillers = rng.uniform(0.0, edge / 8, (n - 7, 2))
        fillers[::2] = edge - fillers[::2]
        sites = np.concatenate([[[0.0, 0.0], [edge, edge]], fillers[2:],
                                np.repeat([c + d6 * unit], 6, axis=0),
                                [u - kf * (d6 + hd) * unit]])
    low, span = sites.min(axis=0), np.ptp(sites, axis=0) + 1.0
    users = [low + rng.uniform(-0.5, 1.5, (40, 2)) * span,
             sites[rng.integers(0, n, 20)] + rng.uniform(-0.7, 0.7, (20, 2)),
             low + [[-5000.0, 0.0], [0.0, 8000.0], [span[0] + 3000.0, -4000.0]]]
    if kind == "tight":
        users.append([u])
    return sites, np.concatenate(users), margin, exponent


class TestSiteIndex:
    """Each bucket's superset must hold every candidate cell of any user in
    the bucket, and the cut computed on the superset's columns must be the
    full row's, bit for bit, on any layout, with O(n) buckets."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(layout=site_layouts())
    def test_supersets_hold_the_candidates_and_the_cut(self, layout):
        sites, users, margin, exponent = layout
        n = len(sites)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(traffic, "INDEX_SHARE", 1)  # keep every bucket
            index = traffic._build_site_index(sites, margin, exponent)
        grid = index.grid
        nx, ny = grid.shape
        assert nx * ny <= 24 * n + 25
        # users on bucket corners and on the middle of bucket edges
        corners = grid.origin + grid.side * np.column_stack(
            [np.arange(nx + 1), np.arange(nx + 1) % (ny + 1)])
        users = np.concatenate([users, corners, corners + [grid.side / 2, 0.0]])
        slots = index.slots(grid.of(users))
        inside = (((users - grid.origin) / grid.side >= 0)
                  & ((users - grid.origin) / grid.side < [nx, ny])).all(axis=1)
        assert np.array_equal(slots >= 0, inside)
        model = PathlossModel(exponent=exponent, shadowing_sigma=0.0)
        rank = traffic.CANDIDATE_RANK
        full = pathloss_to(users[inside], sites[None, :, 0], sites[None, :, 1],
                           model)
        cut = np.partition(full, rank - 1, axis=1)[:, rank - 1] + margin
        columns = index.table[slots[inside]]
        assert (np.diff(columns, axis=1) >= 0).all()
        assert np.array_equal(np.count_nonzero(columns < n, axis=1),
                              index.size[slots[inside]])
        listed = np.zeros((len(columns), n + 1), bool)
        np.put_along_axis(listed, columns.astype(np.intp), True, axis=1)
        assert not (full <= cut[:, None])[~listed[:, :n]].any()
        near = pathloss_to(users[inside], index.x[columns], index.y[columns],
                           model)
        assert np.array_equal(
            np.partition(near, rank - 1, axis=1)[:, rank - 1] + margin, cut)
        assert (near[columns == n] == np.inf).all()


class TestPathlossFidelity:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(distances=st.lists(st.floats(0.0, 1e7), min_size=1, max_size=8),
           angle=st.floats(0.0, 2 * np.pi),
           exponent=st.floats(2.0, 10.0),
           sigma=st.floats(0.0, 20.0),
           reference_loss=st.floats(0.0, 150.0),
           seed=st.integers(0, 2**32 - 1))
    def test_streamed_attenuation_is_the_textbook_formula(
            self, distances, angle, exponent, sigma, reference_loss, seed):
        # the squared-distance form differs from the hypot form by rounding
        # alone: a few ulps of terms below 1000 dB
        user = np.array([[1234.5, -678.9]])
        d = np.array(distances)
        sites = user + np.column_stack([d * np.cos(angle), d * np.sin(angle)])
        model = PathlossModel(exponent=exponent, reference_loss=reference_loss,
                              shadowing_sigma=sigma, seed=seed)
        got = []
        AttenuationRecipe(user, sites, model, 1, (43.0, 49.0)).stream(
            lambda lo, hi, att, spare: got.append(att.copy()))
        [att] = got
        z = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(1, 1))).standard_normal(len(d))
        hypot = np.hypot(user[0, 0] - sites[:, 0], user[0, 1] - sites[:, 1])
        want = (reference_loss + 10.0 * exponent * np.log10(np.maximum(hypot, 1.0))
                + sigma * z)
        assert (np.abs(att[0] - want) < 1e-9).all(), np.abs(att[0] - want).max()


class TestSamplingWorkers:
    @pytest.mark.parametrize("cores, want", [(1, 1), (2, 2), (3, 3), (8, 3)])
    def test_usable_cores_capped_at_three(self, monkeypatch, cores, want):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
        assert traffic._sampling_workers() == want

    def test_cpu_count_without_an_affinity_call(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert traffic._sampling_workers() == 2
