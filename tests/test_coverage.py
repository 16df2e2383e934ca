"""Coverage evaluation, the failing-antenna graph and the minimum-power
search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from breathenet.coverage import (
    ExactNeighbourhoodEvaluator,
    InfeasibleCoverage,
    build_fail_graph,
    covered,
    exact_coverage,
    min_power_search,
)
from breathenet.model import Antenna, NetworkTopology
from breathenet.mrdata import MrRecord, dataset_from_records, remove_redundant
from test_mrdata import brute_force_survivors, records_as_tuples


def make_topo(n, p=40.0, p_max=49.0, neighbours=None):
    ants = tuple(Antenna(id=i, p=p, p_max=p_max, r=100)
                 for i in range(1, n + 1))
    if neighbours is None:
        neighbours = [set(range(1, n + 1)) - {i} for i in range(1, n + 1)]
    return NetworkTopology(ants, tuple(frozenset(s) for s in neighbours))


def att_dataset(records, n):
    return dataset_from_records([MrRecord(tuple(r)) for r in records],
                                "attenuation", n)


def random_dataset(rng, k, n, max_entries=3, lo=50.0, hi=110.0):
    records = []
    for _ in range(k):
        size = int(rng.integers(1, max_entries + 1))
        ids = rng.choice(n, size=size, replace=False) + 1
        vals = rng.uniform(lo, hi, size=size)
        records.append(tuple(zip(ids.tolist(), vals.tolist())))
    return att_dataset(records, n)


def brute_force_coverage(ds, powers, r_c):
    """Double loop over records and entries; F = 1 - uncovered / K', which
    can differ from covered / K' in the last bit (12/17 vs 1 - 5/17)."""
    uncovered = 0
    for idx in range(len(ds)):
        rec = ds.record(idx)
        if not any(v <= powers[aid - 1] - r_c for aid, v in rec.entries):
            uncovered += 1
    return 1.0 - uncovered / len(ds) if len(ds) else 1.0


def brute_force_neighbourhood(ds, powers, i, r_c):
    hits, total = 0, 0
    for idx in range(len(ds)):
        rec = ds.record(idx)
        if all(aid != i for aid, _ in rec.entries):
            continue
        total += 1
        if any(v <= powers[aid - 1] - r_c for aid, v in rec.entries):
            hits += 1
    return hits / total if total else 1.0


def neighbourhood_rate(ds, powers, i, r_c):
    return ExactNeighbourhoodEvaluator(ds, r_c).rates(powers)[i - 1]


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


@st.composite
def att_batches(draw):
    """Small attenuation batches with powers and r_c on a 1 dB grid, so
    entries sit exactly on a coverage cut and records duplicate or dominate
    one another often."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 24))
    levels = 60.0 + np.arange(draw(st.integers(1, 10)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    records = []
    for _ in range(k):
        size = int(rng.integers(1, min(3, n) + 1))
        ids = rng.choice(n, size=size, replace=False) + 1
        records.append(tuple(zip(ids.tolist(), rng.choice(levels, size).tolist())))
    powers = rng.integers(36, 45, size=n).astype(float)
    return att_dataset(records, n), powers, -25.0


class RecordingEvaluator:
    """Wraps an evaluator and logs every queried power vector with its rates."""

    def __init__(self, inner):
        self.inner = inner
        self.neighbours = inner.neighbours
        self.queries = []

    def rates(self, powers):
        r = self.inner.rates(powers)
        self.queries.append((np.asarray(powers, float).copy(), r.copy()))
        return r


class TestExactCoverage:
    def test_all_reachable(self):
        ds = att_dataset([[(1, 60.0)], [(2, 65.0)], [(1, 70.0), (2, 80.0)]], 2)
        rep = exact_coverage(ds, np.array([40.0, 40.0]), r_c=-40.0)
        assert rep.F == 1.0
        assert rep.uncovered_count == 0
        assert rep.k_prime == 3

    def test_one_of_four_uncovered(self):
        ds = att_dataset([[(1, 60.0)], [(1, 60.0)], [(1, 60.0)], [(1, 99.0)]], 1)
        rep = exact_coverage(ds, np.array([40.0]), r_c=-40.0)
        assert rep.F == 0.75
        assert rep.uncovered_count == 1

    def test_matches_brute_force(self):
        rng = np.random.default_rng(50)
        ds = random_dataset(rng, 2000, 6)
        for r_c in (-55.0, -45.0, -35.0):
            p = rng.uniform(38.0, 44.0, size=6)
            rep = exact_coverage(ds, p, r_c)
            assert rep.F == brute_force_coverage(ds, p, r_c)

    @PROPERTY
    @given(att_batches())
    def test_matches_brute_force_on_drawn_batches(self, batch):
        ds, p, r_c = batch
        assert exact_coverage(ds, p, r_c).F == brute_force_coverage(ds, p, r_c)

    @PROPERTY
    @given(att_batches())
    def test_redundancy_removal_keeps_a_dominating_record(self, batch):
        # a kept record listing a subset of the antennas, each at >= the
        # attenuation, is covered only if the dropped one is
        ds, p, r_c = batch
        kept = remove_redundant(ds)
        survivors = [dict(kept.record(r).entries) for r in range(len(kept))]
        for row in range(len(ds)):
            rec = dict(ds.record(row).entries)
            assert any(a.keys() <= rec.keys() and all(a[i] >= rec[i] for i in a)
                       for a in survivors)
        assert covered(ds, p, r_c).all() == covered(kept, p, r_c).all()

    @PROPERTY
    @given(att_batches())
    def test_redundancy_removal_keeps_exactly_the_brute_force_survivors(self, batch):
        ds, _, _ = batch
        records = [ds.record(r) for r in range(len(ds))]
        expected = [records[i].entries for i in brute_force_survivors(records)]
        assert records_as_tuples(remove_redundant(ds)) == expected

    def test_empty_batch_warns(self):
        ds = att_dataset([], 2)
        with pytest.warns(UserWarning):
            rep = exact_coverage(ds, np.array([40.0, 40.0]), r_c=-90.0)
        assert rep.F == 1.0

    def test_needs_attenuation_domain_and_matching_length(self):
        ds = dataset_from_records([MrRecord(((1, -20.0),))], "signal", 1)
        with pytest.raises(ValueError):
            exact_coverage(ds, np.array([40.0]), r_c=-90.0)
        with pytest.raises(ValueError):
            exact_coverage(att_dataset([[(1, 60.0)]], 1), np.zeros(2), -90.0)


class TestNeighbourhoodCoverage:
    def test_isolated_antenna_fully_covered(self):
        ds = att_dataset([[(1, 60.0)], [(1, 65.0)], [(2, 200.0)]], 2)
        assert neighbourhood_rate(ds, np.array([40.0, 40.0]), 1, -30.0) == 1.0

    def test_heavy_attenuation_zero_rate(self):
        ds = att_dataset([[(1, 200.0)], [(1, 190.0)]], 1)
        assert neighbourhood_rate(ds, np.array([0.0]), 1, -30.0) == 0.0

    def test_matches_restricted_brute_force(self):
        rng = np.random.default_rng(51)
        ds = random_dataset(rng, 800, 5)
        p = rng.uniform(38.0, 44.0, size=5)
        for i in range(1, 6):
            got = neighbourhood_rate(ds, p, i, -45.0)
            assert got == brute_force_neighbourhood(ds, p, i, -45.0)

    def test_listed_peer_can_cover(self):
        # the record listing antenna 1 is rescued by its antenna-2 entry
        ds = att_dataset([[(1, 99.0), (2, 60.0)]], 2)
        assert neighbourhood_rate(ds, np.array([40.0, 40.0]), 1, -30.0) == 1.0

    def test_unmentioned_antenna_reports_one(self):
        ds = att_dataset([[(1, 60.0)]], 2)
        assert neighbourhood_rate(ds, np.array([40.0, 40.0]), 2, -90.0) == 1.0


class TestEvaluator:
    def test_rates_match_per_antenna_calls(self):
        rng = np.random.default_rng(52)
        ds = random_dataset(rng, 600, 5)
        evaluator = ExactNeighbourhoodEvaluator(ds, r_c=-45.0)
        for _ in range(5):
            p = rng.uniform(36.0, 46.0, size=5)
            got = evaluator.rates(p)
            for i in range(1, 6):
                assert got[i - 1] == brute_force_neighbourhood(ds, p, i, -45.0)


    @PROPERTY
    @given(att_batches())
    def test_rates_match_brute_force_on_drawn_batches(self, batch):
        ds, p, r_c = batch
        got = ExactNeighbourhoodEvaluator(ds, r_c).rates(p)
        want = [brute_force_neighbourhood(ds, p, i, r_c)
                for i in range(1, ds.n_antennas + 1)]
        np.testing.assert_array_equal(got, want)

    @PROPERTY
    @given(att_batches(), st.data())
    def test_coverage_is_monotone_in_each_power(self, batch, data):
        ds, p, r_c = batch
        up = p.copy()
        up[data.draw(st.integers(0, len(p) - 1))] += data.draw(
            st.sampled_from([0.5, 1.0, 4.0]))
        evaluator = ExactNeighbourhoodEvaluator(ds, r_c)
        assert exact_coverage(ds, p, r_c).F <= exact_coverage(ds, up, r_c).F
        assert (evaluator.rates(p) <= evaluator.rates(up)).all()


class TestFailGraph:
    def test_vertices_edges_components(self):
        rates = np.array([0.5, 0.6, 1.0, 0.2, 0.9])
        neighbours = [{2}, {1, 3}, {2}, {5}, {4}]
        g = build_fail_graph(rates, f_con=0.8, neighbours=neighbours)
        assert g.vertices == (1, 2, 4)
        assert g.components == ((1, 2), (4,))

    def test_empty_when_all_pass(self):
        g = build_fail_graph(np.ones(3), 0.999, [set(), set(), set()])
        assert g.vertices == () and g.components == ()

    def test_matches_networkx_components(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(53)
        for _ in range(10):
            n = 15
            rates = rng.uniform(0.0, 1.0, size=n)
            mask = np.triu(rng.random((n, n)) < 0.2, k=1)
            neighbours = [set() for _ in range(n)]
            for i, j in zip(*np.nonzero(mask)):
                neighbours[i].add(j + 1)
                neighbours[j].add(i + 1)
            g = build_fail_graph(rates, 0.5, neighbours)
            sub = nx.Graph()
            sub.add_nodes_from(v for v in g.vertices)
            for i in g.vertices:
                for j in neighbours[i - 1]:
                    if j in g.vertices:
                        sub.add_edge(i, j)
            expected = {tuple(sorted(c)) for c in nx.connected_components(sub)}
            assert set(g.components) == expected


class TestMinPowerSearch:
    def test_untouched_when_all_pass(self):
        ds = att_dataset([[(1, 60.0)], [(2, 62.0)]], 2)
        topo = make_topo(2)
        evaluator = ExactNeighbourhoodEvaluator(ds, r_c=-40.0)
        start = topo.initial_powers()
        got = min_power_search(start, topo, evaluator, 0.999, 1.0)
        np.testing.assert_array_equal(got, start)

    def test_single_failing_antenna_minimal_steps(self):
        # antenna 2 needs exactly enough 1 dB rounds to reach its worst record
        ds = att_dataset([[(1, 60.0)], [(2, 74.3)], [(2, 70.0)]], 2)
        topo = make_topo(2)
        r_c, f_con, delta_p = -30.0, 0.999, 1.0
        evaluator = ExactNeighbourhoodEvaluator(ds, r_c=r_c)
        start = topo.initial_powers()

        # oracle: smallest step count whose reach covers everything
        need = None
        for m in range(64):
            if 40.0 + m * delta_p - r_c >= 74.3:
                need = m
                break
        assert need == 5

        got = min_power_search(start, topo, evaluator, f_con, delta_p)
        np.testing.assert_array_equal(got, [40.0, 40.0 + need * delta_p])

    def test_component_raises_its_minimum_rate_member(self):
        # both antennas fail inside one component with distinct rates; every
        # round must bump the worst member still below rated power
        records = ([[(1, 75.0)]] * 4 + [[(1, 62.0)]] * 6
                   + [[(2, 73.0)]] * 5 + [[(2, 62.0)]] * 5
                   + [[(1, 62.0), (2, 62.0)]] * 2)
        ds = att_dataset(records, 2)
        topo = make_topo(2)
        p_max = topo.p_max_vector()
        evaluator = RecordingEvaluator(ExactNeighbourhoodEvaluator(ds, r_c=-30.0))
        got = min_power_search(topo.initial_powers(), topo, evaluator,
                               0.999, 1.0)
        rates_final = evaluator.inner.rates(got)
        assert (rates_final >= 0.999).all()
        assert len(evaluator.queries) > 2
        for (p_before, rates), (p_after, _) in zip(evaluator.queries,
                                                   evaluator.queries[1:]):
            moved = np.flatnonzero(p_after != p_before)
            assert len(moved) == 1
            open_failing = [a for a in (1, 2) if rates[a - 1] < 0.999
                            and p_before[a - 1] < p_max[a - 1]]
            target = min(open_failing, key=lambda a: (rates[a - 1], a))
            assert moved[0] == target - 1

    def test_round_bound_respected(self):
        rng = np.random.default_rng(54)
        ds = random_dataset(rng, 400, 4, lo=60.0, hi=86.0)
        topo = make_topo(4, p=40.0, p_max=52.0)
        evaluator = RecordingEvaluator(ExactNeighbourhoodEvaluator(ds, r_c=-35.0))
        start = topo.initial_powers()
        min_power_search(start, topo, evaluator, 0.999, 1.0)
        bound = int(np.ceil((topo.p_max_vector() - start) / 1.0).sum())
        assert len(evaluator.queries) <= bound + 1

    def test_infeasible_component_raises(self):
        ds = att_dataset([[(1, 99.0)]], 1)
        topo = make_topo(1, p=49.0, p_max=49.0)
        evaluator = ExactNeighbourhoodEvaluator(ds, r_c=-30.0)
        with pytest.raises(InfeasibleCoverage) as exc:
            min_power_search(topo.initial_powers(), topo, evaluator, 0.999, 1.0)
        assert exc.value.antennas == (1,)

    def test_pinned_component_raises_an_open_neighbour(self):
        # antenna 1 fails at rated power because one record it shares with
        # antenna 2 is reachable only through antenna 2, which can still rise
        records = ([[(1, 60.0)]] * 4 + [[(1, 99.0), (2, 75.0)]]
                   + [[(2, 60.0)]] * 19)
        ds = att_dataset(records, 2)
        topo = make_topo(2, p_max=49.0)
        evaluator = ExactNeighbourhoodEvaluator(ds, r_c=-30.0)
        start = np.array([49.0, 40.0])
        np.testing.assert_array_equal(evaluator.rates(start), [0.8, 0.95])
        got = min_power_search(start, topo, evaluator, 0.9, 1.0)
        np.testing.assert_array_equal(got, [49.0, 45.0])
        assert (evaluator.rates(got) >= 0.9).all()

    def test_start_above_rated_rejected(self):
        ds = att_dataset([[(1, 60.0)]], 1)
        topo = make_topo(1)
        evaluator = ExactNeighbourhoodEvaluator(ds, r_c=-40.0)
        with pytest.raises(ValueError):
            min_power_search(np.array([50.0]), topo, evaluator, 0.999, 1.0)

    def test_result_meets_requirement_everywhere(self):
        rng = np.random.default_rng(55)
        ds = random_dataset(rng, 500, 5, lo=60.0, hi=88.0)
        topo = make_topo(5, p=40.0, p_max=58.0)
        evaluator = ExactNeighbourhoodEvaluator(ds, r_c=-35.0)
        got = min_power_search(topo.initial_powers(), topo, evaluator,
                               0.999, 1.0)
        assert (evaluator.rates(got) >= 0.999).all()
        assert (got >= topo.initial_powers()).all()
        assert (got <= topo.p_max_vector()).all()


    @PROPERTY
    @given(att_batches(), st.sampled_from([40.0, 42.0, 46.0]),
           st.sampled_from([0.5, 0.9, 0.999, 1.0]), st.sampled_from([1.0, 2.5]))
    def test_result_meets_the_floor_or_raises(self, batch, p_max, f_con, delta_p):
        ds, p, r_c = batch
        topo = make_topo(ds.n_antennas, p=36.0, p_max=p_max)
        start = np.minimum(p, p_max)
        evaluator = ExactNeighbourhoodEvaluator(ds, r_c)
        try:
            got = min_power_search(start, topo, evaluator, f_con, delta_p)
        except InfeasibleCoverage:
            return
        assert (got >= start).all() and (got <= p_max).all()
        assert (evaluator.rates(got) >= f_con).all()
