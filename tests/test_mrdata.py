"""Measurement-record batches: generation, domain switch, redundancy
deletion, ranked tables and sampling."""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from breathenet import mrdata
from breathenet.mrdata import (
    BLOCK_ELEMENTS,
    MrDataset,
    MrRecord,
    co_neighbours,
    dataset_from_records,
    generate_mr,
    remove_redundant,
    sample_for_jacobian,
    subsample,
    to_attenuation,
)
from breathenet.synth import proportional_bundle, random_bundle
from breathenet.traffic import UserBatch, assign_users, block_rows, sample_users


def batch_from_attenuation(att):
    att = np.asarray(att, dtype=float)
    return UserBatch(np.zeros((len(att), 2)), att,
                     np.ones(len(att), dtype=np.int64), period=1)


def records_as_tuples(ds):
    out = []
    for idx in range(len(ds)):
        out.append(ds.record(idx).entries)
    return out


def brute_force_survivors(records):
    """O(K^2) reference for redundancy deletion.

    Record b dies when some other record a lists a subset of b's antennas
    with entrywise >= values on the shared ones; for fully identical records
    only the earliest survives.
    """
    parsed = [dict(r.entries) for r in records]
    keep = []
    for b, rb in enumerate(parsed):
        doomed = False
        for a, ra in enumerate(parsed):
            if a == b or not set(ra) <= set(rb):
                continue
            if not all(ra[i] >= rb[i] for i in ra):
                continue
            identical = set(ra) == set(rb) and all(ra[i] == rb[i] for i in ra)
            if identical:
                if a < b:
                    doomed = True
                    break
            else:
                doomed = True
                break
        if not doomed:
            keep.append(b)
    return keep


def pairwise_survivors(ds):
    """Redundancy deletion compared pair by pair, in both directions.

    Records are grouped by antenna set. Within a set, a strict dominator
    (a >= b entrywise, not b >= a) deletes b, and of identical records
    (a >= b and b >= a) the earlier one deletes the later. Across sets, a
    record listing a strict subset of b's antennas deletes b when it is >=
    on each of them. Returns the keep mask.
    """
    mask = ds.ids > 0
    keys, vals = [], []
    for r in range(len(ds)):
        order = np.argsort(ds.ids[r, mask[r]], kind="stable")
        keys.append(tuple(ds.ids[r, mask[r]][order].tolist()))
        vals.append(ds.values[r, mask[r]][order])
    groups = {}
    for r, key in enumerate(keys):
        groups.setdefault(key, []).append(r)
    deleted = np.zeros(len(ds), dtype=bool)
    for key, rows in groups.items():
        rows = np.asarray(rows)
        vb = np.array([vals[r] for r in rows])
        ge = (vb[:, None, :] >= vb[None, :, :]).all(axis=2)  # ge[a, b]: a >= b
        strict = ge & ~ge.T
        equal = ge & ge.T
        earlier = rows[:, None] < rows[None, :]
        deleted[rows] |= (strict | (equal & earlier)).any(axis=0)
        for t in range(1, len(key)):
            for sub in combinations(key, t):
                if sub not in groups:
                    continue
                va = np.array([vals[r] for r in groups[sub]])
                cols = [key.index(a) for a in sub]
                deleted[rows] |= (va[None, :, :] >= vb[:, None, cols]
                                  ).all(axis=2).any(axis=1)
    return ~deleted


def assert_matches_pairwise(ds):
    got = remove_redundant(ds)
    keep = pairwise_survivors(ds)
    assert np.array_equal(got.ids, ds.ids[keep])
    # bitwise, so that NaN and the sign of zero count
    assert np.array_equal(got.values.view(np.uint64),
                          ds.values[keep].view(np.uint64))
    return got, keep


class TestGeneration:
    def test_single_user_two_antennas(self):
        users = batch_from_attenuation([[10.0, 20.0]])
        ds = generate_mr(users, np.array([30.0, 30.0]), top_m=2)
        assert records_as_tuples(ds) == [((1, 20.0), (2, 10.0))]
        assert ds.domain == "signal"
        np.testing.assert_array_equal(ds.recorded_powers, [30.0, 30.0])

    def test_top_m_one_keeps_serving_only(self):
        rng = np.random.default_rng(0)
        users = batch_from_attenuation(rng.uniform(60, 110, size=(200, 4)))
        p = np.array([40.0, 41.0, 39.0, 40.0])
        ds = generate_mr(users, p, top_m=1)
        assert ds.top_m == 1
        np.testing.assert_array_equal(ds.serving(), assign_users(users, p))

    def test_serving_agrees_with_assignment(self):
        rng = np.random.default_rng(1)
        users = batch_from_attenuation(rng.uniform(60, 110, size=(1000, 5)))
        p = rng.uniform(38, 44, size=5)
        ds = generate_mr(users, p, top_m=3)
        np.testing.assert_array_equal(ds.serving(), assign_users(users, p))

    def test_entries_sorted_descending_with_id_tie_break(self):
        users = batch_from_attenuation([[10.0, 10.0, 5.0]])
        ds = generate_mr(users, np.array([30.0, 30.0, 30.0]), top_m=3)
        assert records_as_tuples(ds) == [((3, 25.0), (1, 20.0), (2, 20.0))]

    def test_every_tie_listed_by_ascending_id(self):
        # whole-dB attenuations at equal powers tie often; each record lists
        # every antenna once, by falling strength and each tie by ascending
        # id, the order estimate_jacobian's down-shift reads
        rng = np.random.default_rng(12)
        users = batch_from_attenuation(rng.integers(60, 64, size=(300, 4)))
        ds = generate_mr(users, np.full(4, 40.0), top_m=4)
        ties = ds.values[:, 1:] == ds.values[:, :-1]
        assert ties.any()
        np.testing.assert_array_equal(np.sort(ds.ids, axis=1),
                                      np.broadcast_to(np.arange(1, 5), (300, 4)))
        assert (ds.values[:, 1:] <= ds.values[:, :-1]).all()
        assert (ds.ids[:, 1:][ties] > ds.ids[:, :-1][ties]).all()

    def test_top_m_wider_than_network_is_clipped(self):
        users = batch_from_attenuation([[10.0, 12.0]])
        ds = generate_mr(users, np.array([30.0, 30.0]), top_m=6)
        assert ds.top_m == 2

    def test_record_validation(self):
        with pytest.raises(ValueError):
            MrRecord(())
        with pytest.raises(ValueError):
            MrRecord(((1, 5.0), (1, 4.0)))


def unblocked_generate_mr(att, powers, top_m):
    """Whole-batch ranking, the reference for the row-blocked kernel: one
    (U, n) received matrix, argpartition of its negation, lexsort."""
    n = att.shape[1]
    m = min(top_m, n)
    u = len(att)
    if u == 0:
        return np.zeros((0, m), np.int32), np.zeros((0, m))
    received = powers[None, :] - att
    if m < n:
        part = np.argpartition(-received, m - 1, axis=1)[:, :m]
    else:
        part = np.broadcast_to(np.arange(n), (u, n)).copy()
    vals = np.take_along_axis(received, part, axis=1)
    order = np.lexsort((part, -vals), axis=1)
    ids = np.take_along_axis(part, order, axis=1).astype(np.int32) + 1
    vals = np.take_along_axis(vals, order, axis=1)
    return ids, vals


class TestBlockedGeneration:
    """generate_mr ranks users in row blocks; on tie-free batches it must be
    bitwise the whole-batch ranking on both sides of every block edge."""

    N = 64
    B = block_rows(N)

    @pytest.mark.parametrize("top_m", [1, 6, N, N + 10])
    @pytest.mark.parametrize("users", [0, 1, B - 1, B, B + 1, 3 * B + 7])
    def test_matches_unblocked_ranking(self, users, top_m):
        rng = np.random.default_rng(users + 7 * top_m)
        att = rng.uniform(60.0, 140.0, size=(users, self.N))
        p = rng.uniform(38.0, 46.0, size=self.N)
        ds = generate_mr(batch_from_attenuation(att), p, top_m)
        ids, vals = unblocked_generate_mr(att, p, top_m)
        assert ds.ids.dtype == ids.dtype == np.int32
        assert np.array_equal(ds.ids, ids)
        assert np.array_equal(ds.values, vals)
        assert np.array_equal(ds.recorded_powers, p)


@st.composite
def tied_batches(draw):
    """Small batches whose entries come from a few attenuation levels, so
    exact ties across antennas (whole tied rows included) are common."""
    n = draw(st.integers(1, 40))
    u = draw(st.integers(0, 16))
    levels = np.array([61.0, 60.0, 62.0, 75.0])[:draw(st.integers(1, 4))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    att = levels[rng.integers(0, len(levels), size=(u, n))]
    if u and draw(st.booleans()):
        att[draw(st.integers(0, u - 1))] = 61.0
    powers = np.where(rng.random(n) < draw(st.sampled_from([0.0, 0.5])),
                      41.0, 40.0)
    return att, powers, draw(st.integers(1, 8))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tied_batches())
def test_serving_equals_assignment_under_ties(batch):
    att, p, top_m = batch
    users = batch_from_attenuation(att)
    ds = generate_mr(users, p, top_m)
    np.testing.assert_array_equal(ds.serving(), assign_users(users, p))
    # the whole record follows (-received, id), also across the top_m cut
    received = p[None, :] - att
    want = [sorted(range(len(p)), key=lambda j: (-row[j], j))[:ds.top_m]
            for row in received]
    np.testing.assert_array_equal(ds.ids - 1, np.array(want).reshape(ds.ids.shape))


@st.composite
def non_finite_batches(draw):
    """Small batches over a few levels, NaN, +-inf and +-0.0, at times with
    a NaN or +inf power, rows with fewer finite cells than a record holds,
    and top_m up to n + 2."""
    n = draw(st.integers(1, 12))
    u = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = np.array([61.0, 60.0, np.nan, np.inf, -np.inf, 0.0, -0.0])
    levels = levels[draw(st.lists(st.integers(0, len(levels) - 1),
                                  min_size=1, max_size=len(levels), unique=True))]
    att = levels[rng.integers(0, len(levels), size=(u, n))]
    if u and draw(st.booleans()):
        row = att[draw(st.integers(0, u - 1))]
        row[rng.random(n) < 0.7] = np.inf
    # powers of 0.0 and -0.0 make zero received strengths of either sign
    powers = rng.choice(draw(st.sampled_from([(40.0, 41.0), (0.0, -0.0, 61.0)])), n)
    if draw(st.booleans()):
        powers[rng.integers(0, n)] = draw(st.sampled_from([np.nan, np.inf]))
    return att, powers, draw(st.integers(1, n + 2))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(non_finite_batches())
def test_non_finite_cells_rank_as_a_stable_sort(batch):
    att, p, top_m = batch
    with np.errstate(invalid="ignore"):
        ds = generate_mr(batch_from_attenuation(att), p, top_m)
        # strength descending, ties by ascending id, NaN last
        want = np.argsort(att - p, axis=1, kind="stable")[:, :ds.top_m]
        received = p - att
    assert np.array_equal(ds.ids - 1, want)
    # bitwise, so that NaN and the sign of zero count
    assert np.array_equal(ds.values.view(np.uint64),
                          np.take_along_axis(received, want, axis=1).view(np.uint64))


class TestDomainSwitch:
    def test_single_entry(self):
        ds = dataset_from_records([MrRecord(((1, 20.0),))], "signal", 1)
        att = to_attenuation(ds, np.array([30.0]))
        assert records_as_tuples(att) == [((1, 10.0),)]
        assert att.domain == "attenuation"

    def test_empty_batch(self):
        ds = dataset_from_records([], "signal", 2)
        att = to_attenuation(ds, np.array([30.0, 30.0]))
        assert len(att) == 0

    def test_double_switch_rejected(self):
        ds = dataset_from_records([MrRecord(((1, 20.0),))], "signal", 1)
        att = to_attenuation(ds, np.array([30.0]))
        with pytest.raises(ValueError):
            to_attenuation(att, np.array([30.0]))


@st.composite
def hand_built_batches(draw):
    """(n, records): up to 40 records over n = 1..8 antennas, listing 1..6
    of them (one width for the whole batch, or a width per record), with
    values from a coarse grid that holds NaN and both signed zeros."""
    n = draw(st.integers(1, 8))
    width = st.integers(1, min(n, 6))
    if draw(st.booleans()):
        width = st.just(draw(width))
    level = st.sampled_from([0.0, -0.0, 1.0, 2.0, float("nan")])

    def record(w):
        return st.tuples(st.permutations(range(1, n + 1)),
                         st.lists(level, min_size=w, max_size=w)).map(
            lambda pv: MrRecord(tuple(zip(pv[0][:w], pv[1]))))

    return n, draw(st.lists(width.flatmap(record), max_size=40))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(hand_built_batches())
def test_redundancy_removal_keeps_the_brute_force_survivors(batch):
    n, records = batch
    ds = dataset_from_records(records, "attenuation", n)
    keep = brute_force_survivors(records)
    got = remove_redundant(ds)
    assert np.array_equal(got.ids, ds.ids[keep])
    # bitwise, so that NaN and the sign of zero count
    assert np.array_equal(got.values.view(np.uint64),
                          ds.values[keep].view(np.uint64))


class TestRedundancyDeletion:
    def att_ds(self, records, n=4):
        return dataset_from_records([MrRecord(tuple(r)) for r in records],
                                    "attenuation", n)

    def test_subset_with_higher_attenuation_deletes(self):
        # covering {1: 5} forces coverage of {1: 4, 2: 9}
        ds = remove_redundant(self.att_ds([[(1, 5.0)], [(1, 4.0), (2, 9.0)]]))
        assert records_as_tuples(ds) == [((1, 5.0),)]

    def test_identical_records_keep_earliest(self):
        ds = remove_redundant(self.att_ds([[(1, 5.0), (2, 7.0)],
                                           [(1, 5.0), (2, 7.0)]]))
        assert len(ds) == 1

    def test_incomparable_records_both_survive(self):
        ds = remove_redundant(self.att_ds([[(1, 5.0), (2, 3.0)],
                                           [(1, 4.0), (2, 9.0)]]))
        assert len(ds) == 2

    def test_matches_brute_force_on_random_batch(self):
        rng = np.random.default_rng(33)
        records = []
        for _ in range(200):
            size = int(rng.integers(1, 4))
            ids = rng.choice(4, size=size, replace=False) + 1
            # coarse grid so subset/equality cases actually occur
            vals = rng.integers(0, 4, size=size).astype(float)
            records.append(MrRecord(tuple(zip(ids.tolist(), vals.tolist()))))
        ds = self.att_ds([r.entries for r in records])
        got = remove_redundant(ds)
        expected = brute_force_survivors(records)
        assert records_as_tuples(got) == [records[i].entries for i in expected]

    def test_idempotent(self):
        rng = np.random.default_rng(34)
        records = []
        for _ in range(120):
            size = int(rng.integers(1, 4))
            ids = rng.choice(4, size=size, replace=False) + 1
            vals = rng.integers(0, 3, size=size).astype(float)
            records.append(tuple(zip(ids.tolist(), vals.tolist())))
        once = remove_redundant(self.att_ds(records))
        twice = remove_redundant(once)
        assert records_as_tuples(once) == records_as_tuples(twice)

    def test_deletion_is_coverage_sound(self):
        # whenever every survivor is covered, every deleted record is too
        rng = np.random.default_rng(35)
        records = []
        for _ in range(150):
            size = int(rng.integers(1, 4))
            ids = rng.choice(3, size=size, replace=False) + 1
            vals = rng.integers(0, 5, size=size).astype(float)
            records.append(tuple(zip(ids.tolist(), vals.tolist())))
        ds = self.att_ds(records, n=3)
        kept = set(records_as_tuples(remove_redundant(ds)))

        def covered(rec, reach):
            return any(v <= reach[aid - 1] for aid, v in rec)

        for trial in range(50):
            reach = rng.uniform(-1.0, 5.0, size=3)
            if all(covered(r, reach) for r in kept):
                assert all(covered(r, reach) for r in records)

    def test_signal_domain_rejected(self):
        ds = dataset_from_records([MrRecord(((1, 20.0),))], "signal", 1)
        with pytest.raises(ValueError):
            remove_redundant(ds)

    def test_one_large_antenna_set(self):
        # 1 600 records of one set: 1.3 M predecessor pairs, ten blocks
        rng = np.random.default_rng(41)
        k, m = 1600, 6
        ids = np.argsort(rng.random((k, m)), axis=1).astype(np.int32) + 1
        values = rng.integers(60, 70, size=(k, m)).astype(float)
        _, keep = assert_matches_pairwise(MrDataset(ids, values, "attenuation", m))
        assert 10 < keep.sum() < k - 10

    def test_many_sets_on_a_coarse_grid(self):
        rng = np.random.default_rng(42)
        k, n, m = 3000, 5, 3
        ids = np.array([rng.choice(n, m, replace=False) for _ in range(k)],
                       dtype=np.int32) + 1
        values = rng.integers(0, 3, size=(k, m)).astype(float)
        assert_matches_pairwise(MrDataset(ids, values, "attenuation", n))

    def test_identical_records_far_apart_keep_the_earliest(self):
        a = [(2, 7.0), (1, 5.0)]
        records = [[(1, 1.0), (2, 1.0)], a, [(1, 9.0), (2, 0.0)],
                   [(1, 0.0), (2, 9.0)], a, [(1, 2.0), (2, 2.0)], a]
        got, keep = assert_matches_pairwise(self.att_ds(records, 2))
        assert np.flatnonzero(keep).tolist() == [1, 2, 3]

    def test_signed_zeros_are_equal(self):
        for first, second in ((0.0, -0.0), (-0.0, 0.0)):
            records = [[(1, 3.0), (2, first)], [(1, 3.0), (2, second)]]
            got, _ = assert_matches_pairwise(self.att_ds(records, 2))
            assert len(got) == 1
            assert np.signbit(got.values[0, 1]) == np.signbit(first)

    @pytest.mark.parametrize("nan_at", [1, 2])
    def test_nan_entry_never_dominates_and_is_never_dominated(self, nan_at):
        # nan_at=1 puts the NaN at the lowest id, the leading sort column
        hi = [(1, 9.0), (2, 9.0)]
        lo = [(1, 1.0), (2, 1.0)]
        nan_rec = [(1, 5.0), (2, 5.0)]
        nan_rec[nan_at - 1] = (nan_at, float("nan"))
        records = [hi, nan_rec, lo, nan_rec, list(reversed(nan_rec))]
        got, keep = assert_matches_pairwise(self.att_ds(records, 2))
        assert np.flatnonzero(keep).tolist() == [0, 1, 3, 4]

    def test_nan_entry_outside_a_subset_still_deletes(self):
        # a record listing only antenna 2 dominates through antenna 2 alone
        records = [[(2, 9.0)], [(1, float("nan")), (2, 4.0)],
                   [(1, 3.0), (2, float("nan"))]]
        _, keep = assert_matches_pairwise(self.att_ds(records, 2))
        assert np.flatnonzero(keep).tolist() == [0, 2]

    def test_mixed_widths(self):
        rng = np.random.default_rng(43)
        levels = np.array([0.0, -0.0, 1.0, 2.0, np.nan])
        records = []
        for _ in range(600):
            size = int(rng.integers(1, 5))
            aids = rng.choice(5, size=size, replace=False) + 1
            vals = rng.choice(levels, size=size, p=[0.3, 0.2, 0.25, 0.2, 0.05])
            records.append(list(zip(aids.tolist(), vals.tolist())))
        assert_matches_pairwise(self.att_ds(records, 5))

    def test_a_row_listing_no_antenna_deletes_every_other_row(self):
        # only a hand-built batch holds such a row: it lists a subset of
        # every record, so the first one survives alone
        nan = float("nan")
        ids = np.array([[1, 2], [0, 0], [2, 0], [0, 0], [1, 0]], np.int32)
        values = np.array([[9.0, nan], [nan, nan], [-0.0, nan], [nan, nan],
                           [nan, nan]])
        got = remove_redundant(MrDataset(ids, values, "attenuation", 2))
        assert np.array_equal(got.ids, ids[[1]])
        # a batch of such rows keeps its first
        got = remove_redundant(MrDataset(ids[[1, 3]], values[[1, 3]],
                                         "attenuation", 2))
        assert len(got) == 1

    def test_memory_stays_bounded_on_one_large_set(self):
        # 6 000 records of one set hold 18 M predecessor pairs: about
        # 430 MB if every pair were compared at once
        rng = np.random.default_rng(44)
        k, m = 6000, 6
        ids = np.tile(np.arange(1, m + 1, dtype=np.int32), (k, 1))
        values = rng.integers(60, 80, size=(k, m)).astype(float)
        ds = MrDataset(ids, values, "attenuation", m)
        tracemalloc.start()
        try:
            remove_redundant(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def two_key_dominated_in_set(ids, vals, records):
    """``mrdata._dominated_in_set`` with its first sort: one lexsort on the
    t id columns, then the t values descending."""
    t = ids.shape[1]
    items = np.flatnonzero(~np.isnan(vals).any(axis=1))
    keys = ([-vals[:, c][items] for c in range(t - 1, -1, -1)]
            + [ids[:, c][items] for c in range(t - 1, -1, -1)])
    if keys:
        items = items[np.lexsort(keys)]
    pos = np.arange(len(items))
    first = np.zeros(len(items), dtype=bool)
    first[:1] = True
    for c in range(t):
        col = ids[:, c][items]
        first[1:] |= col[1:] != col[:-1]
    start = np.maximum.accumulate(np.where(first, pos, 0))
    real = np.flatnonzero(items < records)
    lo_rank = np.searchsorted(real, start)
    preds = np.searchsorted(real, pos) - lo_rank
    cols = [(vals[:, c][items[real]], vals[:, c][items]) for c in range(1, t)]
    cand = np.flatnonzero(preds)
    ends = np.cumsum(preds[cand])
    dominated = np.zeros(len(items), dtype=bool)
    lo, done = 0, 0
    while lo < len(cand):
        hi = max(lo + 1, int(np.searchsorted(ends, done + BLOCK_ELEMENTS,
                                             side="right")))
        js = cand[lo:hi]
        counts = preds[js]
        offset = np.cumsum(counts) - counts
        b = np.repeat(js, counts)
        a = np.arange(len(b)) + np.repeat(lo_rank[js] - offset, counts)
        for col_a, col_b in cols:
            ge = np.flatnonzero(col_a[a] >= col_b[b])
            a, b = a[ge], b[ge]
        dominated[b] = True
        lo, done = hi, int(ends[hi - 1])
    return items[dominated]


class TestDominanceOrder:
    """The dominance pass sorts on the antenna set, packed into int64 words,
    and the first value, and re-sorts a run tied on both by the other
    values: it must delete what the sort on every id and value column
    deletes."""

    def assert_matches_brute_force(self, records, n):
        records = [MrRecord(tuple(r)) for r in records]
        ds = dataset_from_records(records, "attenuation", n)
        got = remove_redundant(ds)
        keep = brute_force_survivors(records)
        assert np.array_equal(got.ids, ds.ids[keep])
        assert np.array_equal(got.values.view(np.uint64),
                              ds.values[keep].view(np.uint64))
        return keep

    def test_ids_near_a_billion_take_three_words(self):
        # 31-bit ids, two to a word: a set of six packs into three words
        pool = 10**9 + np.array([0, 1, 5, 7, 2**20, 2**29, 3 * 2**25])
        rng = np.random.default_rng(46)
        records = []
        for _ in range(300):
            aids = rng.choice(pool, int(rng.integers(5, 7)), replace=False)
            vals = rng.integers(0, 3, size=len(aids)).astype(float)
            records.append(list(zip(aids.tolist(), vals.tolist())))
        assert len(mrdata._packed_sets(np.sort(pool)[None, :6])) == 3
        keep = self.assert_matches_brute_force(records, int(pool.max()))
        assert 10 < len(keep) < 290

    def test_a_tie_on_set_and_first_value_whose_dominator_comes_later(self):
        # every item of set {1, 2} has 5.0 first, the projection of record 0
        # among them; only the last record, 5.0 and 4.0, is kept
        records = [[(1, 5.0), (2, 1.0), (3, 0.0)], [(1, 5.0), (2, 1.0)],
                   [(2, 3.0), (1, 5.0)], [(1, 5.0), (2, 4.0)]]
        assert self.assert_matches_brute_force(records, 3) == [3]

    def test_signed_zeros_in_the_first_column_tie(self):
        # the records alternate -0.0 and 0.0 first: record 1 dominates them
        # all, record 3 being identical to it
        records = [[(1, -0.0), (2, 1.0)], [(1, 0.0), (2, 2.0)],
                   [(1, 0.0), (2, 1.0)], [(1, -0.0), (2, 2.0)]]
        assert self.assert_matches_brute_force(records, 2) == [1]

    @pytest.mark.parametrize("world", ["random", "proportional"])
    def test_deletes_what_the_two_key_sort_deletes(self, world, monkeypatch):
        if world == "random":
            bundle = random_bundle(nx=16, ny=16, total_users=10000, seed=5)
        else:
            # period 2 tiles 2 400 of period 1's records again: identical
            # records, so runs tied on set and first value
            bundle = proportional_bundle(periods=2, total_users=4000,
                                         betas=[1.0, 1.6])
        powers = bundle.topo.initial_powers()
        for k in range(1, bundle.scenario.horizon + 1):
            batch = sample_users(bundle.scenario, bundle.pathloss,
                                 bundle.topo, k)
            ds = to_attenuation(generate_mr(batch, powers), powers)
            got = remove_redundant(ds)
            with monkeypatch.context() as patch:
                patch.setattr(mrdata, "_dominated_in_set",
                              two_key_dominated_in_set)
                want = remove_redundant(ds)
            assert np.array_equal(got.ids, want.ids)
            assert np.array_equal(got.values.view(np.uint64),
                                  want.values.view(np.uint64))
            assert len(got) < len(ds)
        if world == "proportional":
            assert len(np.unique(ds.values, axis=0)) < len(ds)


class TestJacobianSampling:
    def serving_ds(self, values):
        recs = [MrRecord(((1, float(v)),)) for v in values]
        return dataset_from_records(recs, "signal", 1)

    def test_small_set_returned_whole(self):
        ds = self.serving_ds([-70.0, -72.0, -68.0])
        rows, sizes = sample_for_jacobian(ds, 10)
        np.testing.assert_array_equal(rows, [0, 1, 2])
        np.testing.assert_array_equal(sizes, [3])

    def test_exact_budget_returns_full_set(self):
        ds = self.serving_ds([-70.0, -72.0, -68.0])
        rows, sizes = sample_for_jacobian(ds, 3)
        np.testing.assert_array_equal(rows, [0, 1, 2])
        np.testing.assert_array_equal(sizes, [3])

    def test_subsample_is_distribution_faithful(self):
        rng = np.random.default_rng(6)
        ds = self.serving_ds(rng.normal(-70.0, 5.0, size=10000))
        rows, sizes = sample_for_jacobian(ds, 100, seed=9)
        assert len(rows) == 100
        np.testing.assert_array_equal(sizes, [100])
        full = ds.values[:, 0]
        ks = stats.ks_2samp(full, ds.values[rows, 0])
        assert ks.pvalue > 0.01

    def test_deterministic_per_antenna(self):
        rng = np.random.default_rng(7)
        ds = self.serving_ds(rng.normal(-70.0, 5.0, size=500))
        a, _ = sample_for_jacobian(ds, 50, seed=3)
        b, _ = sample_for_jacobian(ds, 50, seed=3)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, sample_for_jacobian(ds, 50, seed=4)[0])

    def test_groups_match_the_per_antenna_rule(self):
        # interleaved serving antennas, one without records: antenna i's
        # rows are flatnonzero(serving == i), subsampled by its own stream,
        # and every antenna's rows come back together in record order
        rng = np.random.default_rng(8)
        serving = rng.choice([1, 2, 4], size=300, p=[0.6, 0.1, 0.3])
        recs = [MrRecord(((int(i), -70.0),)) for i in serving]
        ds = dataset_from_records(recs, "signal", 4)
        n_s, seed = 40, 5
        rows, sizes = sample_for_jacobian(ds, n_s, seed=seed)
        expected = []
        for i in range(1, 5):
            mine = np.flatnonzero(serving == i)
            if len(mine) > n_s:
                gen = np.random.default_rng(
                    np.random.SeedSequence(seed, spawn_key=(i,)))
                pick = gen.choice(len(mine), size=n_s, replace=False)
                pick.sort()
                mine = mine[pick]
            expected.append(mine)
        np.testing.assert_array_equal(rows, np.sort(np.concatenate(expected)))
        np.testing.assert_array_equal(sizes, [len(e) for e in expected])
        assert sizes[0] == n_s < (serving == 1).sum()
        assert 0 < sizes[1] < n_s and sizes[2] == 0

    def test_budget_validated(self):
        with pytest.raises(ValueError):
            sample_for_jacobian(self.serving_ds([-70.0]), 0)


def brute_force_co_neighbours(ds):
    sets = [set() for _ in range(ds.n_antennas)]
    for idx in range(len(ds)):
        listed = [aid for aid, _ in ds.record(idx).entries]
        for a in listed:
            for b in listed:
                if a != b:
                    sets[a - 1].add(b)
    return sets


class TestCoNeighbours:
    def test_co_occurrence(self):
        ds = dataset_from_records(
            [MrRecord(((1, -70.0), (2, -75.0))), MrRecord(((3, -80.0),))],
            "signal", 3)
        sets = co_neighbours(ds)
        assert sets == [{2}, {1}, set()]

    def test_symmetric_by_construction(self):
        rng = np.random.default_rng(8)
        users = batch_from_attenuation(rng.uniform(60, 110, size=(400, 6)))
        sets = co_neighbours(generate_mr(users, np.full(6, 40.0), 3))
        for i, peers in enumerate(sets, start=1):
            for j in peers:
                assert i in sets[j - 1]

    def test_padded_records_and_the_highest_id(self):
        # antenna 9 is the last row and column of the table; 4, 7 and 8
        # appear in no record
        recs = [((9, 70.0), (1, 72.0), (3, 80.0)), ((2, 65.0),),
                ((5, 60.0), (9, 61.0)), ((6, 75.0), (2, 76.0), (1, 90.0)),
                ((3, 71.0), (5, 73.0))]
        ds = dataset_from_records([MrRecord(r) for r in recs], "attenuation", 9)
        assert (ds.ids == 0).any()
        sets = co_neighbours(ds)
        assert sets == brute_force_co_neighbours(ds)
        assert sets[8] == {1, 3, 5}
        assert sets[3] == sets[6] == sets[7] == set()

    def test_single_entry_records_give_no_pairs(self):
        rng = np.random.default_rng(12)
        users = batch_from_attenuation(rng.uniform(60, 110, size=(300, 7)))
        ds = generate_mr(users, np.full(7, 40.0), top_m=1)
        assert co_neighbours(ds) == [set()] * 7

    def test_empty_batch(self):
        ds = dataset_from_records([], "signal", 4)
        assert co_neighbours(ds) == [set()] * 4

    @pytest.mark.parametrize("top_m", [2, 3, 6])
    def test_random_batches(self, top_m):
        rng = np.random.default_rng(top_m)
        n = 30
        att = rng.uniform(60, 140, size=(500, n))
        att[:, n - 5:] += 200.0  # the last antennas never make a record
        att[:40, n - 1] = 10.0  # except the highest id, for a few users
        ds = generate_mr(batch_from_attenuation(att), np.full(n, 40.0), top_m)
        sets = co_neighbours(ds)
        assert sets == brute_force_co_neighbours(ds)
        assert sets[n - 2] == set() and sets[n - 1]


class TestSubsample:
    def make(self, k):
        rng = np.random.default_rng(12)
        users = batch_from_attenuation(rng.uniform(60, 110, size=(k, 3)))
        return generate_mr(users, np.full(3, 40.0), 2)

    def test_zero_cap_keeps_all(self):
        ds = self.make(40)
        assert subsample(ds, 0) is ds

    def test_cap_above_size_keeps_all(self):
        ds = self.make(40)
        assert subsample(ds, 100) is ds

    def test_capped_subset(self):
        ds = self.make(200)
        small = subsample(ds, 50, seed=1)
        assert len(small) == 50
        rows = {tuple(r) for r in ds.ids.tolist()}
        assert all(tuple(r) in rows for r in small.ids.tolist())
        again = subsample(ds, 50, seed=1)
        np.testing.assert_array_equal(small.ids, again.ids)
