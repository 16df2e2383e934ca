"""Measurement-report batches: generation from simulated users, the switch
from received signal to attenuation, redundancy deletion, and the record
samples of the Jacobian estimate and the coverage pipeline.

A record lists the ``top_m`` strongest antennas for one user, strongest first,
so the first entry is the main service antenna. Batches are stored as padded
arrays: ``ids`` holds 1-based antenna ids with 0 padding, ``values`` holds
received strength (dBm) or attenuation (dB) with NaN padding.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .traffic import BLOCK_ELEMENTS, UserBatch

_PAD_SENTINEL = np.iinfo(np.int32).max


@dataclass(frozen=True)
class MrRecord:
    """One measurement report: ((antenna_id, value), ...) strongest first."""

    entries: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("a record needs at least one entry")
        ids = [i for i, _ in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate antenna ids in record: {ids}")


@dataclass
class MrDataset:
    """Padded-array batch of measurement records."""

    ids: np.ndarray
    values: np.ndarray
    domain: str
    n_antennas: int
    recorded_powers: np.ndarray | None = None

    def __post_init__(self):
        if self.domain not in ("signal", "attenuation"):
            raise ValueError(f"unknown record domain {self.domain!r}")
        if self.ids.shape != self.values.shape:
            raise ValueError("ids/values shape mismatch")

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def top_m(self) -> int:
        return self.ids.shape[1]

    def entry_mask(self) -> np.ndarray:
        return self.ids > 0

    def serving(self) -> np.ndarray:
        """Main service antenna id per record."""
        if len(self.ids) == 0:
            return np.zeros(0, dtype=np.int64)
        return self.ids[:, 0].astype(np.int64)

    def record(self, idx: int) -> MrRecord:
        m = self.ids[idx] > 0
        return MrRecord(tuple(zip(self.ids[idx, m].tolist(),
                                  self.values[idx, m].tolist())))


def dataset_from_records(records, domain: str, n_antennas: int,
                         recorded_powers=None) -> MrDataset:
    width = max((len(r.entries) for r in records), default=1)
    k = len(records)
    ids = np.zeros((k, width), dtype=np.int32)
    values = np.full((k, width), np.nan)
    for row, rec in enumerate(records):
        for col, (aid, val) in enumerate(rec.entries):
            ids[row, col] = aid
            values[row, col] = val
    powers = None if recorded_powers is None else np.asarray(recorded_powers, float)
    return MrDataset(ids, values, domain, n_antennas, recorded_powers=powers)


def generate_mr(users: UserBatch, powers: np.ndarray, top_m: int = 6) -> MrDataset:
    """Record the top_m strongest antennas for every user under ``powers``.

    Entries are sorted by received strength descending with exact ties broken
    by ascending antenna id, also where a tie straddles the top_m cut, so
    entry 0 agrees with ``assign_users``. Users are ranked one row block at a
    time as ``users.each_block`` hands the blocks over: for a sampled batch
    that is on the attenuation kernel's own threads, while each block is
    fresh, so no (U, n) array is ever formed.

    m sweeps of ``argmin`` along the rows of attenuation - powers pick each
    row's m smallest cells, the m strongest pilots, in order: each sweep
    takes a row's first least cell and writes +inf over it. Columns ascend
    with the antenna ids, so ties go to the lowest id, as in ``argmax``,
    also across the cut. A row whose picks hold a non-finite value (it has
    a NaN, or fewer than m finite cells) gets its cells back and sorts in
    full stably instead, NaN last. The values recorded are powers -
    attenuation at the listed cells, in pick order. A batch rescaled from a
    base period ranks the base's rows and takes its users' rows from them;
    ranking is per row, so that is bitwise what ranking its own rows gives.

    A block of a pruning recipe comes with ``undrawn``, the cells whose
    shadowing the period's stream did not draw; they rank as absent. A row
    stands when its m-th listed value beats the most any undrawn cell could
    reach: its power less its pathloss plus the clipped shadowing's
    ``reach``. That is checked first against the row's cut and the highest
    power, then cell by cell for the rows that fail it. Every other row has
    its undrawn cells completed and is ranked in full, so each record is
    that of the whole matrix, at any powers. A part of indexed rows holds
    each row over its bucket's sites, ``undrawn.columns``, ascending with
    the pads last: its picks are mapped to those antenna ids, its powers
    are read through them, and the pathloss of a row's other antennas is
    computed only for the rows the cell-by-cell check takes.
    """
    if top_m < 1:
        raise ValueError("top_m must be at least 1")
    powers = np.asarray(powers, dtype=float)
    n = users.n_antennas
    if powers.shape != (n,):
        raise ValueError("power vector length does not match antenna count")
    m = min(top_m, n)
    ids = np.empty((users.source_rows, m), np.int32)
    vals = np.empty((users.source_rows, m))
    top = powers.max(initial=-np.inf)
    # by column id, with a pad column's power: its attenuation is +inf
    padded = np.append(powers, 0.0)

    def strongest(spare, r):
        """Each row's m smallest cells of ``spare``, least first and ties by
        ascending column, as (columns, values); ``r`` numbers its rows, as a
        column. ``spare`` is overwritten."""
        part = np.empty((m, len(spare)), np.intp)
        worth = np.empty((m, len(spare)))
        at = np.empty(len(spare), np.intp)  # flat positions of the picks
        starts = r[:, 0] * spare.shape[1]
        for k in range(m):
            # each row's first least cell, then +inf over it
            np.argmin(spare, axis=1, out=part[k])
            np.add(part[k], starts, out=at)
            np.take(spare, at, out=worth[k])
            np.put(spare, at, np.inf)
        part, worth = part.T, worth.T
        # argmin takes a NaN before anything and revisits +inf cells: a row
        # with a NaN or fewer than m finite cells sorts in full stably
        odd = np.flatnonzero(~np.isfinite(worth).all(axis=1))
        if odd.size:
            # backwards, so that a cell picked twice gets its first value
            for k in reversed(range(m)):
                spare[odd, part[odd, k]] = worth[odd, k]
            part[odd] = np.argsort(spare[odd], axis=1, kind="stable")[:, :m]
            worth[odd] = spare[odd[:, None], part[odd]]
        return part, worth

    def record(rows, att, part, r, columns=None):
        # the listed columns' antenna ids, in the order they were picked
        at = part if columns is None else columns[r, part]
        ids[rows] = at + 1
        vals[rows] = padded[at] - att[r, part]

    def settle(att, worst, undrawn):
        """Complete and rank in full the rows an undrawn cell might enter:
        where the m-th listed attenuation - powers, ``worst``, is not below
        the least an undrawn cell can take, its pathloss less ``reach``
        minus its power."""
        # an undrawn cell's pathloss lies above its row's cut and its power
        # is at most top; rounding is monotone, so both bounds hold in floats
        rows = np.flatnonzero(~(worst < undrawn.cut - undrawn.reach - top))
        if not rows.size:
            return
        held = undrawn.held(rows, att)
        least = np.min(held - undrawn.reach - powers, axis=1,
                       where=undrawn.cells(rows), initial=np.inf)
        enters = ~(worst[rows] < least)
        if enters.any():
            rows, held = rows[enters], held[enters]
            undrawn.complete(rows, held)
            r = np.arange(len(rows))[:, None]
            record(undrawn.rows[rows], held, strongest(held - powers, r)[0], r)

    def rank(lo, hi, att, spare, undrawn=None):
        columns = None if undrawn is None else undrawn.columns
        r = np.arange(len(att))[:, None]
        # attenuation - powers is exactly -(powers - attenuation): IEEE
        # subtraction rounds symmetrically
        if columns is None:
            np.subtract(att, powers, out=spare)
        else:
            np.take(padded, columns, out=spare, mode="clip")
            np.subtract(att, spare, out=spare)
        if undrawn is None:
            record(slice(lo, hi), att, strongest(spare, r)[0], r)
            return
        np.copyto(spare, np.inf, where=undrawn.outside)
        if columns is None or m < columns.shape[1]:
            part, worth = strongest(spare, r)
            record(undrawn.rows, att, part, r, columns)
            worst = worth[:, -1]
        else:  # a list as long as the columns reaches an undrawn cell
            worst = np.full(len(att), np.inf)
        settle(att, worst, undrawn)

    users.each_block(rank)
    if users.pick is not None:
        ids, vals = ids[users.pick], vals[users.pick]
    return MrDataset(ids, vals, "signal", n, recorded_powers=powers.copy())


def to_attenuation(ds: MrDataset, powers: np.ndarray) -> MrDataset:
    """Switch a signal-domain batch to attenuation: each entry becomes
    a = p_entry_antenna - s, with ``powers`` recorded on the result."""
    if ds.domain == "attenuation":
        raise ValueError("batch is already in the attenuation domain")
    powers = np.asarray(powers, dtype=float)
    if powers.shape != (ds.n_antennas,):
        raise ValueError("power vector length does not match antenna count")
    # powers by 1-based id, NaN at the padding id 0
    values = np.concatenate(([np.nan], powers))[ds.ids] - ds.values
    return MrDataset(ds.ids.copy(), values, "attenuation", ds.n_antennas,
                     recorded_powers=powers.copy())


def remove_redundant(ds: MrDataset) -> MrDataset:
    """Delete records made redundant for coverage purposes.

    Record B is redundant when some record A lists a subset of B's antennas
    with entrywise greater-or-equal attenuation on the shared antennas: if A
    is covered then B is covered automatically. Of identical records only
    the earliest survives. A NaN entry compares >= with nothing, so it
    never lets its record dominate or be dominated through that antenna.
    A row listing no antenna (only a hand-built batch holds one) lists a
    subset of every record: the first such row deletes every other row.
    Survivor order is preserved.

    One sorted pass runs per record width t. It takes the records that list
    t antennas and, for every wider record, its projection onto each t of
    its antennas: a projection can be dominated, but never dominates.
    The items are sorted by their antenna set, packed into int64 words, and
    within a set by their first value, descending; a run tied on both goes
    on by the other values, descending. So within a set the values sort
    lexicographically descending, ties kept with records first and in
    input order. A dominator then always precedes what it dominates, and of
    identical records the earliest comes first, so an item is dominated
    exactly when some record before it in its set is >= it entrywise. Only
    those pairs are compared, ``BLOCK_ELEMENTS`` pairs at a time and one
    column at a time, so memory does not grow with the size of a set. A
    batch of one width (every generated batch) has no projections, and its
    pass runs on views of the sorted entries.
    """
    if ds.domain != "attenuation":
        raise ValueError("redundancy deletion operates on attenuation batches")
    k = len(ds)
    if k <= 1:
        return MrDataset(ds.ids.copy(), ds.values.copy(), ds.domain,
                         ds.n_antennas, recorded_powers=ds.recorded_powers)

    mask = ds.entry_mask()
    sort_ids = np.where(mask, ds.ids, _PAD_SENTINEL)
    order = np.argsort(sort_ids, axis=1, kind="stable")
    sids = np.take_along_axis(sort_ids, order, axis=1)
    svals = np.take_along_axis(ds.values, order, axis=1)
    sizes = mask.sum(axis=1)
    deleted = np.zeros(k, dtype=bool)
    for t in np.unique(sizes):
        owners, ids, vals, records = _width_items(sids, svals, sizes, t)
        deleted[owners[_dominated_in_set(ids, vals, records)]] = True
    keep = ~deleted
    return MrDataset(ds.ids[keep].copy(), ds.values[keep].copy(), ds.domain,
                     ds.n_antennas, recorded_powers=ds.recorded_powers)


def _width_items(sids: np.ndarray, svals: np.ndarray, sizes: np.ndarray,
                 t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The items of width t: ``(owners, ids, values, records)``.

    The first ``records`` items are the rows that list t antennas, in input
    order; after them comes each wider row's projection onto every t of its
    antennas. ``owners`` holds each item's row. ``sids``/``svals`` hold each
    row's entries in ascending id order, with ``_PAD_SENTINEL`` padding.
    """
    rows = np.flatnonzero(sizes == t)
    if len(rows) == len(sids):
        return rows, sids[:, :t], svals[:, :t], len(rows)
    owners, ids, vals = [rows], [sids[rows, :t]], [svals[rows, :t]]
    for w in np.unique(sizes[sizes > t]):
        wider = np.flatnonzero(sizes == w)
        for cols in combinations(range(w), t):
            at = np.ix_(wider, cols)
            owners.append(wider)
            ids.append(sids[at])
            vals.append(svals[at])
    return (np.concatenate(owners), np.concatenate(ids), np.concatenate(vals),
            len(rows))


def _dominated_in_set(ids: np.ndarray, vals: np.ndarray,
                      records: int) -> np.ndarray:
    """Indices of the items with an entrywise >= record listing the same
    antennas; of identical records, all but the earliest.

    Items 0 .. ``records`` - 1 are records, the rest projections, which are
    never taken as dominators.
    """
    t = ids.shape[1]
    items, first = _set_order(ids, vals)
    pos = np.arange(len(items))
    # position j's set starts at start[j]; its dominators are the records
    # among positions start[j] .. j - 1. ``real`` lists the records'
    # positions: those dominators are real[lo_rank[j]:lo_rank[j] + preds[j]]
    start = np.maximum.accumulate(np.where(first, pos, 0))
    real = np.flatnonzero(items < records)
    lo_rank = np.searchsorted(real, start)
    preds = np.searchsorted(real, pos) - lo_rank
    # every predecessor is >= in column 0, the leading sort key; the other
    # columns are gathered by dominator rank and by position
    cols = [(vals[:, c][items[real]], vals[:, c][items]) for c in range(1, t)]
    cand = np.flatnonzero(preds)
    ends = np.cumsum(preds[cand])
    dominated = np.zeros(len(items), dtype=bool)
    lo, done = 0, 0
    while lo < len(cand):
        # positions lo..hi-1 of cand hold at most BLOCK_ELEMENTS pairs, or
        # one item's predecessors when they are more
        hi = max(lo + 1, int(np.searchsorted(ends, done + BLOCK_ELEMENTS,
                                             side="right")))
        js = cand[lo:hi]
        counts = preds[js]
        offset = np.cumsum(counts) - counts
        # every (dominator rank a, position b) pair of the positions js
        b = np.repeat(js, counts)
        a = np.arange(len(b)) + np.repeat(lo_rank[js] - offset, counts)
        for col_a, col_b in cols:
            ge = np.flatnonzero(col_a[a] >= col_b[b])
            a, b = a[ge], b[ge]
        dominated[b] = True
        lo, done = hi, int(ends[hi - 1])
    return items[dominated]


def _set_order(ids: np.ndarray,
               vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The items with no NaN entry, sorted by antenna set, within a set by
    their values lexicographically descending, then in item order; and a
    mask of the positions where a set starts."""
    t = ids.shape[1]
    # a NaN entry is neither >= nor <= anything: its item takes no part
    items = np.flatnonzero(~np.isnan(vals).any(axis=1))
    first = np.zeros(len(items), dtype=bool)
    first[:1] = True
    if not t:  # width 0 (rows listing no antenna): one set, in item order
        return items, first
    # primary key: the antenna set; then the first value, descending; then
    # the item order, which the stable sort keeps
    words = _packed_sets(ids[items])
    v0 = vals[items, 0]
    order = np.lexsort([-v0, *words[::-1]])
    items = items[order]
    for word in words:
        word = word[order]
        first[1:] |= word[1:] != word[:-1]
    # a run tied on set and first value goes on by the other values,
    # descending, ties again in item order; == takes -0.0 for 0.0
    v0 = v0[order]
    tied = np.append(False, ~first[1:] & (v0[1:] == v0[:-1]))  # to the last
    if t > 1 and tied.any():
        # each run's items, numbered by run
        at = np.flatnonzero(tied | np.append(tied[1:], False))
        keys = [-vals[items[at], c] for c in range(t - 1, 0, -1)]
        items[at] = items[at][np.lexsort([*keys, np.cumsum(~tied)[at]])]
    return items, first


def _packed_sets(ids: np.ndarray) -> list[np.ndarray]:
    """Each row's ascending positive ids packed into int64 words, first id
    highest: ``bit_length(max id)`` bits per id, as many ids as fit in 63
    bits per word. Rows compare as their id lists do, word by word."""
    bits = int(ids.max(initial=1)).bit_length()
    per = 63 // bits
    words = []
    for lo in range(0, ids.shape[1], per):
        word = np.zeros(len(ids), np.int64)
        for c in range(lo, min(lo + per, ids.shape[1])):
            np.left_shift(word, bits, out=word)
            np.bitwise_or(word, ids[:, c], out=word)
        words.append(word)
    return words


def sample_for_jacobian(ds: MrDataset, n_s: int,
                        seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Uniformly sample up to n_s serving-record indices of every antenna.

    Returns ``(rows, sizes)``: ``rows`` holds the sampled record indices in
    ascending order, and ``sizes[i-1]`` is how many antenna i got. An antenna
    with at most n_s serving records keeps them all; a larger set, taken in
    record order, is sampled without replacement, deterministically given
    (seed, i). Records served by no antenna 1..n are never sampled.
    """
    if n_s < 1:
        raise ValueError("n_s must be at least 1")
    n = ds.n_antennas
    serving = ds.serving()
    counts = np.bincount(serving, minlength=n + 1)
    sizes = np.minimum(counts[1:n + 1], n_s)
    over = np.flatnonzero(counts[1:n + 1] > n_s) + 1
    keep = (serving > 0) & (serving <= n)
    if over.size:
        # a stable sort lists each antenna's records in ascending order, in
        # one run per antenna that ends at ends[i]
        order = np.argsort(serving, kind="stable")
        ends = np.cumsum(counts)
        for i in over:
            mine = order[ends[i] - counts[i]:ends[i]]
            rng = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(int(i),)))
            pick = rng.choice(len(mine), size=n_s, replace=False)
            keep[mine] = False
            keep[mine[pick]] = True
    return np.flatnonzero(keep), sizes


def co_neighbours(ds: MrDataset) -> list[set[int]]:
    """Antennas are neighbours when they appear in the same record."""
    n = ds.n_antennas
    # adjacency over ids 0..n; id 0 is the padding and is masked out below
    adj = np.zeros((n + 1, n + 1), dtype=bool)
    for c1 in range(ds.top_m):
        for c2 in range(c1 + 1, ds.top_m):
            adj[ds.ids[:, c1], ds.ids[:, c2]] = True
    adj[0, :] = False
    adj[:, 0] = False
    adj |= adj.T
    np.fill_diagonal(adj, False)
    return [set(np.flatnonzero(row).tolist()) for row in adj[1:]]


def subsample(ds: MrDataset, cap: int, seed: int = 0) -> MrDataset:
    """Uniform record subsample (without replacement) used to cap the
    coverage pipeline; cap=0 keeps everything."""
    if cap <= 0 or len(ds) <= cap:
        return ds
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(len(ds),)))
    pick = rng.choice(len(ds), size=cap, replace=False)
    pick.sort()
    return MrDataset(ds.ids[pick].copy(), ds.values[pick].copy(), ds.domain,
                     ds.n_antennas, recorded_powers=ds.recorded_powers)
