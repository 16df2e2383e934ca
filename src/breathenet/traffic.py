"""Monte-Carlo tidal traffic: weighted Gaussian hotspots, log-distance
pathloss with frozen shadowing, and strongest-pilot user assignment."""

from __future__ import annotations

import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .model import (ConfigError, NetworkTopology, check_keys, config_field,
                    int_pair, point)

# Elements per scratch buffer of the row-blocked U x n kernels (1 MiB of
# float64): large enough that per-block overhead vanishes, small enough that
# no temporary grows with the user count.
BLOCK_ELEMENTS = 1 << 17

# Most threads filling one period's attenuation. Each thread, the calling
# one among them, fills a block's pathloss, takes its turn at the sequential
# shadowing stream, then hands the block on (to the MR ranking, say). The
# draws run one at a time, in block order. Measured serially on one period
# (2-core x86), the candidate draw (see CANDIDATE_RANK) takes about 0.09 s
# of a 0.42 s generate_mr pass on grid-2k and 0.11 s of 0.51 s on grid-500,
# the site index (see SiteIndex) having cut the pathloss and candidate
# marking to 14M of 60M and 13M of 30M cells, so the turns still seldom
# wait; a dense draw costs 12-15 ns per cell and, from three threads on,
# sets the pace.
MAX_SAMPLING_WORKERS = 3

# A row's candidate cells are the antennas whose deterministic pathloss lies
# within the recipe's margin of the row's CANDIDATE_RANK-th smallest; only
# they are drawn from the period's shadowing stream. Any other cell's z comes
# from its row's own stream, only when a ranking needs the row in full, and
# is clipped at SHADOW_CLIP: its shadowing lowers its attenuation by at most
# SHADOW_CLIP * sigma dB.
CANDIDATE_RANK = 6
SHADOW_CLIP = 4.0

# The pruned fill finds each row's candidates through a bucket index of the
# sites (see SiteIndex): squares of side INDEX_SIDE * sqrt(bbox area / n).
# A row whose bucket's superset lists at most n / INDEX_SHARE sites is
# computed and ranked on those sites alone. Its fill and its ranking's argmin
# sweeps cost in proportion to its width, so supersets of up to half the
# sites pay (grid-500's list 60-208 of 500). INDEX_SLACK widens each
# superset's radius against rounding.
INDEX_SIDE = 0.5
INDEX_SHARE = 2
INDEX_SLACK = 1e-6


@dataclass(frozen=True)
class PathlossModel:
    """Log-distance pathloss: loss = reference_loss + 10*exponent*log10(d) + shadowing.

    Distances are clamped at 1 m before the logarithm. The loss is computed
    from the squared distance, as 5*exponent*log10(max(d^2, 1)), the same
    function without a square root. Shadowing is zero-mean Gaussian with
    ``shadowing_sigma`` dB, drawn once per (user, antenna) pair and frozen
    for the whole sampling period.
    """

    exponent: float = 3.5
    reference_loss: float = 32.0
    shadowing_sigma: float = 2.0
    seed: int = 0

    def __post_init__(self):
        for name in ("exponent", "reference_loss", "shadowing_sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(
                    f"pathloss {name} must be finite, got {getattr(self, name)}")
        if self.exponent < 2.0:
            raise ConfigError(f"pathloss exponent must be >= 2, got {self.exponent}")
        if self.shadowing_sigma < 0:
            raise ConfigError("pathloss shadowing_sigma must be non-negative, "
                              f"got {self.shadowing_sigma}")
        if self.seed < 0:
            raise ConfigError(f"pathloss seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class Hotspot:
    """Gaussian traffic blob; ``truncate`` (in units of spread) optionally
    rejects samples beyond that radius to keep users inside the service area:
    a sample is redrawn up to 64 times, then scaled onto the radius."""

    center: tuple[float, float]
    weight: float
    spread: float
    truncate: float | None = None

    def __post_init__(self):
        if not self.weight >= 0:
            raise ConfigError(
                f"hotspot weight must be non-negative, got {self.weight}")
        if not 0 < self.spread < math.inf:
            raise ConfigError(
                f"hotspot spread must be positive and finite, got {self.spread}")
        if self.truncate is not None and not 0 < self.truncate < math.inf:
            raise ConfigError("hotspot truncate must be positive and finite, "
                              f"got {self.truncate}")


@dataclass(frozen=True)
class PeriodSpec:
    total_users: int
    hotspots: tuple[Hotspot, ...]

    def __post_init__(self):
        if self.total_users < 0:
            raise ConfigError("total_users must be non-negative")
        if not self.hotspots:
            raise ConfigError("a period needs at least one hotspot")
        w = sum(h.weight for h in self.hotspots)
        if abs(w - 1.0) > 1e-9:
            raise ConfigError(f"hotspot weights must sum to 1, got {w}")


@dataclass(frozen=True)
class TrafficScenario:
    """Fully expanded per-period traffic description.

    ``mode`` is 'free' (arbitrary per-period geometry) or 'proportional'
    (every period has period 1's hotspot geometry; only the user count
    scales, which is the regime where the consensus result applies).
    ``demand`` gives the inclusive integer PRB-demand range per user.
    """

    periods: tuple[PeriodSpec, ...]
    seed: int = 0
    mode: str = "free"
    demand: tuple[int, int] = (1, 1)

    def __post_init__(self):
        if not self.periods:
            raise ConfigError("scenario needs at least one period")
        if self.mode not in ("free", "proportional"):
            raise ConfigError(f"unknown scenario mode {self.mode!r}")
        if self.seed < 0:
            raise ConfigError(f"scenario seed must be non-negative, got {self.seed}")
        lo, hi = self.demand
        if lo < 1 or hi < lo:
            raise ConfigError(f"bad demand range {self.demand}")
        if self.mode == "proportional":
            frozen = self.periods[0].hotspots
            for k in range(1, len(self.periods)):
                if self.periods[k].hotspots != frozen:
                    raise ConfigError(
                        f"proportional mode: hotspot geometry changes at period {k + 1}")

    @property
    def horizon(self) -> int:
        return len(self.periods)


class UserBatch:
    """Array-backed batch of users for one period.

    ``len`` is the user count. ``attenuation`` is the U x n matrix of
    attenuation (dB) from every user to every antenna, frozen for the
    period, so shadowing is constant within it. A batch is built either
    from an explicit matrix or, by ``sample_users``, from an
    ``AttenuationRecipe``: then it holds no U x n array. ``each_block``
    streams the recipe's row blocks: each worker thread, the calling thread
    among them, fills a block's pathloss, takes its turn at the shadowing
    draw and runs the consumer on the block (``generate_mr`` ranks it
    there). A recipe that prunes draws only each row's candidate cells and
    hands the consumer the rest as ``Undrawn``; every row in an indexed
    bucket of the sites' ``SiteIndex`` comes over that bucket's sites only.
    ``attenuation`` copies the streamed blocks into the whole matrix on
    first access, computes every indexed row's other cells, completes every
    row's undrawn cells from the row's own stream, and keeps it.
    """

    def __init__(self, positions: np.ndarray,
                 attenuation: np.ndarray | AttenuationRecipe,
                 demand: np.ndarray, period: int):
        if len(positions) != len(attenuation) or len(positions) != len(demand):
            raise ValueError("batch arrays disagree on user count")
        self.positions = positions
        self.demand = demand
        self.period = period
        self._recipe = (attenuation if isinstance(attenuation, AttenuationRecipe)
                        else None)
        self._matrix = attenuation if self._recipe is None else None

    def __len__(self) -> int:
        return len(self.demand)

    @property
    def n_antennas(self) -> int:
        return (self._matrix if self._recipe is None else self._recipe).shape[1]

    @property
    def pick(self) -> np.ndarray | None:
        """The source row of each user, for a batch rescaled from a base
        period's draw; None when source row r is user r."""
        return None if self._recipe is None else self._recipe.pick

    @property
    def source_rows(self) -> int:
        """Rows of the matrix ``each_block`` streams."""
        return len(self) if self._recipe is None else len(self._recipe.positions)

    def each_block(self, consume) -> None:
        """Call ``consume(lo, hi, att, spare)`` for every row block
        [lo, hi) of the source matrix, with ``undrawn=`` added when the
        recipe prunes, once for each part of a block; see
        ``AttenuationRecipe.stream``. An explicit matrix
        is handed over in slices on the calling thread."""
        if self._recipe is not None:
            self._recipe.stream(consume)
            return
        att = self._matrix
        rows = block_rows(att.shape[1])
        spare = np.empty((min(rows, len(att)), att.shape[1]))
        for lo in range(0, len(att), rows):
            hi = min(lo + rows, len(att))
            consume(lo, hi, att[lo:hi], spare[:hi - lo])

    @property
    def attenuation(self) -> np.ndarray:
        """The U x n matrix, for a sampled batch copied from the streamed
        blocks, with every undrawn cell completed, on first access."""
        if self._matrix is None:
            full = np.empty((self.source_rows, self.n_antennas))

            def put(lo, hi, att, spare, undrawn=None):
                if undrawn is None:
                    full[lo:hi] = att
                    return
                every = np.arange(len(att))
                held = undrawn.held(every, att)
                undrawn.complete(every, held)
                full[undrawn.rows] = held

            self.each_block(put)
            self._matrix = full if self.pick is None else full[self.pick]
        return self._matrix


@dataclass(frozen=True, eq=False)
class AttenuationRecipe:
    """What one period's attenuation matrix is computed from: the users at
    ``positions``, the antenna ``sites``, the pathloss ``model`` and the
    shadowing streams spawned from ``model.seed``. ``power_box`` is
    (lowest initial pilot, highest p_max) of the topology, dBm; it sets how
    far the recipe may prune (see ``margin``). ``pick`` (None for all)
    selects the source rows that make a batch rescaled from this period's
    draw.
    """

    positions: np.ndarray
    sites: np.ndarray
    model: PathlossModel
    period: int
    power_box: tuple[float, float]
    pick: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        users = len(self.positions) if self.pick is None else len(self.pick)
        return users, len(self.sites)

    def __len__(self) -> int:
        return self.shape[0]

    @property
    def margin(self) -> float | None:
        """How far past a row's ``CANDIDATE_RANK``-th smallest pathloss a
        candidate cell may lie: the power box's span plus twice the clipped
        shadowing. At any powers inside the box no other cell can then
        outshine the row's ``CANDIDATE_RANK`` nearest, unless one of those
        draws a z beyond ``SHADOW_CLIP``. None when the recipe
        draws every cell: without shadowing, or when the candidates would
        not be a minority. About CANDIDATE_RANK * 10^(margin / (5 exponent))
        antennas of an even layout lie within the margin, so pruning needs n
        above twice that.
        """
        sigma = self.model.shadowing_sigma
        if sigma == 0:
            return None
        low, high = self.power_box
        margin = (high - low) + 2 * SHADOW_CLIP * sigma
        if (math.log10(len(self.sites) / (2 * CANDIDATE_RANK))
                <= margin / (5 * self.model.exponent)):
            return None
        return margin

    def stream(self, consume) -> None:
        """Fill the attenuation of every source row, one row block at a
        time, on up to ``_sampling_workers()`` threads, and hand each block
        to ``consume(lo, hi, att, spare)`` on the thread that filled it.
        ``att`` holds rows [lo, hi) of

            reference_loss + 5*exponent*log10(max(dx^2 + dy^2, 1)) + sigma*z,

        the ``PathlossModel`` formula taken from the squared distance,
        operation by operation in the order of the one-shot (U, n) matrix
        expression. ``spare`` is scratch of the same shape the consumer may
        overwrite; ``att`` it only reads. Once ``consume`` returns, both are
        reused, and so is ``undrawn``'s mask. Blocks arrive in
        no fixed order.

        Without a ``margin`` every cell's z comes from the stream spawned
        with key ``(period, 1)``, in row-major order, so each value is
        bitwise the one-shot matrix's, whatever the thread count. With one,
        only each row's candidate cells (deterministic pathloss at most
        ``margin`` above the row's ``CANDIDATE_RANK``-th smallest) take
        their z from that stream, in row-major order over candidate cells,
        in source-row order. The other cells hold their deterministic
        pathloss, and ``consume`` gets them as the keyword ``undrawn``, an
        ``Undrawn`` that completes any row on request.

        A pruned fill looks each row up in the sites' ``SiteIndex``, when
        the sites have one. The blocks are cut by cost, a row in an indexed
        bucket counting the widest bucket's sites and any other row n
        cells, so that no block holds more cells than a block of full rows.
        A block's indexed rows reach ``consume`` as one part: ``att`` holds
        them (``undrawn.rows``) over their bucket's sites only
        (``undrawn.columns``), and their cut and candidates are bitwise
        those of the full rows. The block's other rows follow as a second
        part over every antenna; ``lo`` and ``hi`` stay the block's. A
        dense fill's block is one part of full rows, which reaches
        ``consume`` without ``undrawn``.

        Every thread, the calling thread among them, runs the same loop: it
        takes the next block, fills its pathloss and marks its candidates,
        then waits for its turn, the block before it drawn, and draws that
        block's z from the sequential stream. So the stream is drawn block
        by block in order, as one draw would yield it. It adds sigma*z and
        runs the consumer. Each thread keeps its own attenuation, spare and
        shadow planes (and mask planes when pruning), which a block's parts
        share, so memory stays a few blocks whatever the user count. A
        thread that raises stops the others at their next take or turn,
        and the error reaches the caller. With one worker the calling
        thread runs the loop alone. numpy's ufuncs and the generator
        release the GIL, so the threads run at once.
        """
        positions, sites, model = self.positions, self.sites, self.model
        n = len(sites)
        rows = block_rows(n)
        sigma, margin = model.shadowing_sigma, self.margin
        index = (_site_index(sites, margin, model.exponent)
                 if margin is not None else None)
        slots = None if index is None else index.slots(index.grid.of(positions))
        # a block holds as many cells as a block of full rows
        blocks = _blocks_by_cost(
            np.full(len(positions), n) if slots is None
            else np.where(slots >= 0, index.width, n), rows * n)
        upcoming = enumerate(blocks)
        workers = max(1, min(_sampling_workers(), len(blocks)))
        shadow_rng = (np.random.default_rng(
            np.random.SeedSequence(model.seed, spawn_key=(self.period, 1)))
            if sigma > 0 else None)
        # each thread's att, spare and shadow planes and its candidate and
        # undrawn masks, flat so that a block's parts can share them; buffers
        # allocated inside the workers grow per-thread malloc arenas
        planes = np.empty((workers, 3, min(rows, len(positions)) * n))
        masks = (np.empty((workers, 2, planes.shape[2]), bool)
                 if margin is not None else [None] * workers)
        turn = threading.Condition()  # guards upcoming, drawn and stopped
        drawn = 0  # blocks whose z is drawn
        stopped = False

        def parts_of(lo, hi, own, own_masks):
            """The parts of block [lo, hi), pathloss filled and candidates
            marked, each as (att, spare, candidate, undrawn); a dense
            block's one part has neither candidate nor undrawn."""
            slot = None if slots is None else slots[lo:hi]
            near = [] if slot is None else np.flatnonzero(slot >= 0)
            if not len(near):
                groups = [(np.arange(lo, hi), None)]
            else:
                far = np.flatnonzero(slot < 0)
                bucket = slot[near]
                columns = index.table[bucket, :index.size[bucket].max()]
                groups = [(lo + near, columns)]
                if far.size:
                    groups.append((lo + far, None))
            parts, offset = [], 0
            for src, columns in groups:
                x, y = positions[src, 0, None], positions[src, 1, None]
                shape = (len(src), n if columns is None else columns.shape[1])
                end = offset + shape[0] * shape[1]
                att, spare = (p[offset:end].reshape(shape) for p in own[:2])
                if columns is None:
                    _pathloss(x, y, sites[None, :, 0], sites[None, :, 1],
                              model, att, spare)
                else:
                    # "clip": with "raise" take fills a temporary first
                    np.take(index.x, columns, out=att, mode="clip")
                    np.take(index.y, columns, out=spare, mode="clip")
                    _pathloss(x, y, att, spare, model, att, spare)
                candidate = undrawn = None
                if margin is not None:
                    candidate, outside = (m[offset:end].reshape(shape)
                                          for m in own_masks)
                    cut = _mark_candidates(att, spare, margin, candidate,
                                           outside)
                    undrawn = Undrawn(self, src, outside, cut, columns)
                parts.append((att, spare, candidate, undrawn))
                offset = end
            return parts

        def run(own, own_masks):
            """Take, fill, draw and consume blocks until none is left or a
            thread has failed."""
            nonlocal drawn, stopped
            try:
                while True:
                    with turn:
                        block = None if stopped else next(upcoming, None)
                    if block is None:
                        return
                    b, (lo, hi) = block
                    parts = parts_of(lo, hi, own, own_masks)
                    sizes = [att.size if candidate is None
                             else np.count_nonzero(candidate)
                             for att, _, candidate, _ in parts]
                    if shadow_rng is not None:
                        shadow = own[2][:sum(sizes)]
                        runs = ([shadow] if len(parts) == 1
                                else [shadow[run] for run
                                      in _stream_runs(lo, hi, parts, sizes)])
                        with turn:
                            turn.wait_for(lambda: stopped or drawn == b)
                            if stopped:
                                return
                        # no other thread draws until drawn moves on; the
                        # lock stays free for the next take meanwhile
                        for run in runs:
                            shadow_rng.standard_normal(out=run)
                        with turn:
                            drawn += 1
                            turn.notify_all()
                        np.multiply(shadow, sigma, out=shadow)
                        start = 0
                        for (att, _, candidate, _), size in zip(parts, sizes):
                            z = shadow[start:start + size]
                            if candidate is None:
                                np.add(att, z.reshape(att.shape), out=att)
                            else:
                                att[candidate] += z
                            start += size
                    for att, spare, _, undrawn in parts:
                        if undrawn is None:
                            consume(lo, hi, att, spare)
                        else:
                            consume(lo, hi, att, spare, undrawn=undrawn)
            except BaseException:
                with turn:
                    stopped = True
                    turn.notify_all()
                raise

        # the calling thread is one of the workers; with one, no thread starts
        with ThreadPoolExecutor(max(1, workers - 1)) as pool:
            helpers = [pool.submit(run, *own)
                       for own in zip(planes[1:], masks[1:])]
            run(planes[0], masks[0])
            for helper in helpers:
                helper.result()


@dataclass(frozen=True, eq=False)
class Undrawn:
    """The cells of a streamed part whose z the period's stream did not
    draw.

    The part holds the source rows ``rows`` of one block, over every
    antenna, or, when ``columns`` is given, each row over its own
    ``columns``: the sites of its bucket in ascending order, padded with n
    (a pad cell's pathloss is +inf). ``outside`` marks the part's undrawn
    cells; they hold their deterministic pathloss, and in row r every one
    of them lies above ``cut[r]``. So does every antenna a row's columns
    leave out. Their z is clipped at ``SHADOW_CLIP``, so shadowing lowers
    their attenuation by at most ``reach`` dB.
    """

    recipe: AttenuationRecipe
    rows: np.ndarray
    outside: np.ndarray
    cut: np.ndarray
    columns: np.ndarray | None = None

    @property
    def reach(self) -> float:
        return SHADOW_CLIP * self.recipe.model.shadowing_sigma

    def held(self, rows: np.ndarray, att: np.ndarray) -> np.ndarray:
        """The part rows ``rows`` of ``att`` over every antenna, as a new
        (len(rows), n) array: a drawn cell with its attenuation, an undrawn
        one with its deterministic pathloss, computed here for the antennas
        a row's columns leave out."""
        if self.columns is None:
            return att[rows]
        recipe = self.recipe
        users, sites = recipe.positions[self.rows[rows]], recipe.sites
        held = np.empty((len(rows), len(sites)))
        _pathloss(users[:, 0, None], users[:, 1, None], sites[None, :, 0],
                  sites[None, :, 1], recipe.model, held, np.empty_like(held))
        r, c = np.nonzero(~self.outside[rows])
        held[r, self.columns[rows[r], c]] = att[rows[r], c]
        return held

    def cells(self, rows: np.ndarray) -> np.ndarray:
        """The undrawn cells of the part rows ``rows`` over every antenna."""
        if self.columns is None:
            return self.outside[rows]
        cells = np.ones((len(rows), len(self.recipe.sites)), bool)
        r, c = np.nonzero(~self.outside[rows])
        cells[r, self.columns[rows[r], c]] = False
        return cells

    def complete(self, rows: np.ndarray, held: np.ndarray) -> None:
        """Add sigma*z to the undrawn cells of the part rows ``rows``, held
        in ``held`` over every antenna, as ``held`` gives them. Row r's z
        comes from the stream spawned with key ``(period, 2, source row)``,
        in ascending antenna order, clipped. Only the seeding runs row by
        row; the rows' values are drawn into one buffer and added at once."""
        cells = self.cells(rows)
        counts = np.count_nonzero(cells, axis=1)
        model, period = self.recipe.model, self.recipe.period
        z = np.empty(int(counts.sum()))
        start = 0
        for row, count in zip(self.rows[rows].tolist(), counts.tolist()):
            np.random.default_rng(np.random.SeedSequence(
                model.seed, spawn_key=(period, 2, row))
            ).standard_normal(out=z[start:start + count])
            start += count
        np.clip(z, -SHADOW_CLIP, SHADOW_CLIP, out=z)
        np.multiply(z, model.shadowing_sigma, out=z)
        held[cells] += z


def _pathloss(x, y, site_x, site_y, model: PathlossModel, out: np.ndarray,
              scratch: np.ndarray) -> None:
    """Write reference_loss + 5*exponent*log10(max(dx^2 + dy^2, 1)) into
    ``out``, dx = x - site_x and dy = y - site_y broadcast to its shape,
    one ufunc at a time; ``scratch`` is overwritten, and ``site_x`` and
    ``site_y`` may be ``out`` and ``scratch``. Both are C-contiguous, so a
    cell gets the same bits whatever the shape it is computed in.
    10*exponent*log10(d) is taken as 5*exponent*log10(d^2)."""
    np.subtract(x, site_x, out=out)
    np.subtract(y, site_y, out=scratch)
    np.multiply(out, out, out=out)
    np.multiply(scratch, scratch, out=scratch)
    np.add(out, scratch, out=out)
    np.maximum(out, 1.0, out=out)
    np.log10(out, out=out)
    np.multiply(out, 5.0 * model.exponent, out=out)
    np.add(out, model.reference_loss, out=out)


def _blocks_by_cost(cost: np.ndarray, budget: int) -> list[tuple[int, int]]:
    """Consecutive row blocks [lo, hi), each as long as its rows' ``cost``
    stays within ``budget``; a row costs at most ``budget``."""
    ends = np.cumsum(cost)
    blocks, lo = [], 0
    while lo < len(cost):
        hi = int(np.searchsorted(ends, ends[lo] - cost[lo] + budget,
                                 side="right"))
        blocks.append((lo, hi))
        lo = hi
    return blocks


def _stream_runs(lo: int, hi: int, parts: list, sizes: list) -> list[slice]:
    """The slices of block [lo, hi)'s z buffer to draw into, in stream
    order (source-row order over the candidate cells), one per run of
    consecutive rows of one part, so that each part's ``sizes[k]`` values
    land together, part after part. ``parts`` holds ``(att, spare,
    candidate, undrawn)`` each."""
    owner = np.empty(hi - lo, np.intp)
    counts = np.empty(hi - lo, np.intp)
    for k, (_, _, candidate, undrawn) in enumerate(parts):
        owner[undrawn.rows - lo] = k
        counts[undrawn.rows - lo] = np.count_nonzero(candidate, axis=1)
    starts = np.flatnonzero(np.diff(owner, prepend=-1))
    taken = np.cumsum([0] + sizes[:-1]).tolist()  # each part's next value
    runs = []
    for k, count in zip(owner[starts].tolist(),
                        np.add.reduceat(counts, starts).tolist()):
        runs.append(slice(taken[k], taken[k] + count))
        taken[k] += count
    return runs


def _mark_candidates(pathloss: np.ndarray, scratch: np.ndarray, margin: float,
                     candidate: np.ndarray, outside: np.ndarray) -> np.ndarray:
    """Mark each row's candidate cells, whose ``pathloss`` is at most
    ``margin`` above the row's ``CANDIDATE_RANK``-th smallest, in
    ``candidate`` and the others in ``outside``; ``scratch`` is overwritten.
    Returns each row's cut: its candidates lie at or below it."""
    np.copyto(scratch, pathloss)
    scratch.partition(CANDIDATE_RANK - 1, axis=1)
    cut = scratch[:, CANDIDATE_RANK - 1] + margin
    np.less_equal(pathloss, cut[:, None], out=candidate)
    np.logical_not(candidate, out=outside)
    return cut


@dataclass(frozen=True, eq=False)
class BucketGrid:
    """Square buckets of side ``side`` from ``origin``: bucket (i, j)
    covers [origin + (i, j) * side, origin + (i + 1, j + 1) * side), and
    its number is j * nx + i, ``shape`` being (nx, ny)."""

    origin: np.ndarray
    side: float
    shape: tuple[int, int]

    @classmethod
    def over(cls, sites: np.ndarray) -> BucketGrid:
        """The buckets over the sites' bounding box and a border of two
        buckets. Their side is INDEX_SIDE * sqrt(area / n), the area
        floored at span^2 / n so that a thin or collinear layout stays
        within 24n + 25 buckets, and the side at 1 m."""
        n = len(sites)
        low, high = sites.min(axis=0), sites.max(axis=0)
        width, height = (high - low).tolist()
        span = max(width, height)
        side = max(INDEX_SIDE * math.sqrt(max(width * height, span * span / n)
                                          / n), 1.0)
        shape = tuple(math.ceil(extent / side) + 4 for extent in (width, height))
        return cls(low - 2 * side, side, shape)

    def of(self, positions: np.ndarray) -> np.ndarray:
        """The bucket number of each position, -1 outside the buckets."""
        cell = (positions - self.origin) / self.side
        nx, ny = self.shape
        inside = ((cell[:, 0] >= 0) & (cell[:, 0] < nx)
                  & (cell[:, 1] >= 0) & (cell[:, 1] < ny))
        cell = np.where(inside[:, None], cell, 0).astype(np.intp)
        return np.where(inside, cell[:, 1] * nx + cell[:, 0], -1)


@dataclass(frozen=True, eq=False)
class SiteIndex:
    """The buckets of a ``BucketGrid`` over the antenna sites, each listing
    a superset of the candidate sites of every user inside it.

    ``slot`` maps each bucket to its number among the indexed buckets, or
    to -1 when the bucket is not indexed. Indexed bucket k lists ``size[k]``
    sites, in ascending order, in row k of ``table``, padded with n. ``x``
    and ``y`` are the site coordinates with a pad site n at +inf, whose
    pathloss is +inf.
    """

    grid: BucketGrid
    slot: np.ndarray
    size: np.ndarray
    table: np.ndarray
    x: np.ndarray
    y: np.ndarray

    @property
    def width(self) -> int:
        """The most sites an indexed bucket lists."""
        return self.table.shape[1]

    def slots(self, buckets: np.ndarray) -> np.ndarray:
        """The indexed bucket of each of ``buckets``, -1 where it has none."""
        return np.where(buckets >= 0, self.slot[buckets], -1)


def _site_index(sites: np.ndarray, margin: float,
                exponent: float) -> SiteIndex | None:
    """``_build_site_index(sites, margin, exponent)``, built once for the
    process and kept."""
    sites = np.ascontiguousarray(sites, dtype=float)
    return _cached_site_index(sites.tobytes(), len(sites), margin, exponent)


@functools.lru_cache(maxsize=4)
def _cached_site_index(raw: bytes, n: int, margin: float,
                       exponent: float) -> SiteIndex | None:
    return _build_site_index(np.frombuffer(raw).reshape(n, 2), margin,
                             exponent)


def _build_site_index(sites: np.ndarray, margin: float,
                      exponent: float) -> SiteIndex | None:
    """Index the ``sites`` of a recipe that prunes at ``margin`` on
    ``BucketGrid.over(sites)``: None when no bucket's superset lists at
    most n / INDEX_SHARE sites.

    A user within the half-diagonal hd of bucket centre c has its
    CANDIDATE_RANK-th nearest site within D6 + hd, D6 being c's; its
    candidate cells lie within kf * max(D6 + hd, 1) of it,
    kf = 10^(margin / (10 exponent)), since the pathloss is
    10 exponent log10(max(d, 1)) plus constants. The superset is every site
    within that radius plus hd of c, widened by INDEX_SLACK: it holds the
    user's nearest sites and candidates, so the cut and the candidates
    computed on it are the full row's. The bucket centres are taken
    ``BLOCK_ELEMENTS`` distances at a time, and only the indexed buckets'
    sites are kept, one row per bucket, padded to the widest.
    """
    n = len(sites)
    grid = BucketGrid.over(sites)
    (nx, ny), side = grid.shape, grid.side
    half_diagonal = side / math.sqrt(2)
    kf = 10 ** (margin / (10 * exponent))
    ids = np.int16 if n < np.iinfo(np.int16).max else np.int32
    slot = np.full(nx * ny, -1, np.int32)
    chunk = max(1, BLOCK_ELEMENTS // n)
    sizes, lists = [], []
    for start in range(0, nx * ny, chunk):
        buckets = np.arange(start, min(start + chunk, nx * ny))
        centres = grid.origin + side * (
            np.column_stack([buckets % nx, buckets // nx]) + 0.5)
        d2 = np.subtract(centres[:, 0, None], sites[None, :, 0])
        np.multiply(d2, d2, out=d2)
        dy = np.subtract(centres[:, 1, None], sites[None, :, 1])
        np.multiply(dy, dy, out=dy)
        np.add(d2, dy, out=d2)
        d6 = np.sqrt(np.partition(d2, CANDIDATE_RANK - 1,
                                  axis=1)[:, CANDIDATE_RANK - 1])
        radius = ((kf * np.maximum(d6 + half_diagonal, 1.0) + half_diagonal)
                  * (1 + INDEX_SLACK))
        member = np.less_equal(d2, (radius * radius)[:, None])
        counts = np.count_nonzero(member, axis=1)
        kept = np.flatnonzero(INDEX_SHARE * counts <= n)
        if kept.size:
            slot[buckets[kept]] = sum(map(len, sizes)) + np.arange(kept.size)
            sizes.append(counts[kept])
            # row by row, each row's sites ascending
            lists.append(np.nonzero(member[kept])[1].astype(ids))
    if not sizes:
        return None
    size = np.concatenate(sizes)
    table = np.full((len(size), size.max()), n, ids)
    # row-major, so each bucket's sites fill its row's first size[k] cells
    table[np.arange(table.shape[1]) < size[:, None]] = np.concatenate(lists)
    return SiteIndex(grid, slot, size, table, np.append(sites[:, 0], np.inf),
                     np.append(sites[:, 1], np.inf))


def sample_users(scenario: TrafficScenario, model: PathlossModel,
                 topo: NetworkTopology, k: int) -> UserBatch:
    """Draw the period-k user population.

    Deterministic given (scenario.seed, model.seed, k): hotspot membership,
    positions and demands come from the scenario stream, shadowing from the
    pathloss stream, both split per period. In proportional mode period 1's
    draw is reused verbatim and only thinned or tiled to the period's user
    count, so the relative density is exactly constant across periods.

    The batch holds the recipe of its attenuation matrix, not the matrix:
    ``generate_mr`` ranks the matrix block by block as it is computed.
    """
    if k < 1:
        raise ValueError(f"period index starts at 1, got {k}")
    if k > scenario.horizon:
        raise ValueError(f"period {k} beyond scenario horizon {scenario.horizon}")
    spec = scenario.periods[k - 1]
    if scenario.mode == "proportional" and k > 1:
        base = sample_users(scenario, model, topo, 1)
        return _rescale_population(base, spec.total_users, scenario.seed, k)
    rng = np.random.default_rng(np.random.SeedSequence(scenario.seed, spawn_key=(k,)))

    u = spec.total_users
    weights = np.array([h.weight for h in spec.hotspots], dtype=float)
    counts = rng.multinomial(u, weights / weights.sum()) if u else np.zeros(len(weights), int)
    chunks = []
    for h, cnt in zip(spec.hotspots, counts):
        if cnt:
            offsets = rng.normal(0.0, h.spread, size=(cnt, 2))
            if h.truncate is not None:
                cap = h.truncate * h.spread
                far = np.flatnonzero(np.hypot(offsets[:, 0], offsets[:, 1]) > cap)
                for _ in range(64):
                    if not far.size:
                        break
                    offsets[far] = rng.normal(0.0, h.spread, size=(far.size, 2))
                    # only the offsets just redrawn can lie beyond the cap
                    far = far[np.hypot(offsets[far, 0], offsets[far, 1]) > cap]
                # after 64 rounds, what still lies beyond moves onto the cap
                radius = np.hypot(offsets[far, 0], offsets[far, 1])
                offsets[far] *= (cap / radius)[:, None]
            chunks.append(np.asarray(h.center, float) + offsets)
    positions = np.concatenate(chunks) if chunks else np.zeros((0, 2))

    lo, hi = scenario.demand
    demand = (np.ones(u, dtype=np.int64) if lo == hi == 1
              else rng.integers(lo, hi + 1, size=u, dtype=np.int64))

    box = (float(topo.initial_powers().min()), float(topo.p_max_vector().max()))
    recipe = AttenuationRecipe(positions, topo.positions(), model, k,
                               power_box=box)
    return UserBatch(positions, recipe, demand, k)


def block_rows(n: int) -> int:
    """Rows per block of a kernel streaming through U x n user data."""
    return max(1, BLOCK_ELEMENTS // max(1, n))


def _sampling_workers() -> int:
    """Threads that compute one period's attenuation blocks: the cores this
    process may run on, at most ``MAX_SAMPLING_WORKERS``."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    return min(MAX_SAMPLING_WORKERS, cores)


def _rescale_population(base: UserBatch, total: int, seed: int,
                        period: int) -> UserBatch:
    """Thin or tile a frozen population to ``total`` users.

    A single scenario-level permutation gives nested subsets, so shrinking
    from one count to a smaller one always drops users rather than swapping
    them; growth repeats the whole population before topping up. The
    result keeps the base's recipe with the picked rows, so its matrix is
    never computed apart from the base's.
    """
    u_star = len(base)
    if total == u_star or u_star == 0:
        return UserBatch(base.positions, base._recipe, base.demand, period)
    perm = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(0, 97))).permutation(u_star)
    reps, rem = divmod(total, u_star)
    pick = np.concatenate([np.tile(np.arange(u_star), reps), perm[:rem]])
    return UserBatch(base.positions[pick],
                     replace(base._recipe, pick=pick),
                     base.demand[pick], period)


def assign_users(users: UserBatch, powers: np.ndarray) -> np.ndarray:
    """Serve each user by the antenna with the strongest received pilot.

    Received strength is powers[i] - attenuation[:, i] (dBm); exact ties go to
    the lowest antenna id. Returns 1-based antenna ids, one per user: entry 0
    of each ``generate_mr`` record, so a sampled batch's matrix is never
    formed.
    """
    from .mrdata import generate_mr  # mrdata imports this module

    powers = np.asarray(powers, dtype=float)
    if powers.shape != (users.n_antennas,):
        raise ValueError(f"power vector length {powers.shape} does not match "
                         f"{users.n_antennas} antennas")
    return generate_mr(users, powers, 1).serving()


def scenario_from_dict(d: dict) -> TrafficScenario:
    check_keys(d, ("periods", "seed", "mode", "demand"), "scenario")
    periods = []
    for k, p in enumerate(config_field(d, "periods", list, "scenario"), start=1):
        check_keys(p, ("total_users", "hotspots"), f"period {k}")
        hotspots = []
        for j, h in enumerate(config_field(p, "hotspots", list, f"period {k}"),
                              start=1):
            where = f"period {k}, hotspot {j}"
            check_keys(h, ("center", "weight", "spread", "truncate"), where)
            hotspots.append(Hotspot(
                center=config_field(h, "center", point, where),
                weight=config_field(h, "weight", float, where),
                spread=config_field(h, "spread", float, where),
                truncate=config_field(h, "truncate", float, where, None)))
        users = config_field(p, "total_users", int, f"period {k}")
        if users < 1:
            raise ConfigError(
                f"period {k}: total_users must be at least 1, got {users}")
        periods.append(PeriodSpec(total_users=users, hotspots=tuple(hotspots)))
    return TrafficScenario(
        periods=tuple(periods),
        seed=config_field(d, "seed", int, "scenario", 0),
        mode=d.get("mode", "free"),
        demand=config_field(d, "demand", int_pair, "scenario", (1, 1)),
    )


def scenario_to_dict(s: TrafficScenario) -> dict:
    return {
        "mode": s.mode,
        "seed": s.seed,
        "demand": list(s.demand),
        "periods": [
            {
                "total_users": p.total_users,
                "hotspots": [{"center": list(h.center), "weight": h.weight,
                              "spread": h.spread,
                              **({"truncate": h.truncate} if h.truncate is not None else {})}
                             for h in p.hotspots],
            }
            for p in s.periods
        ],
    }


def pathloss_from_dict(d: dict) -> PathlossModel:
    check_keys(d, ("exponent", "reference_loss", "shadowing_sigma", "seed"),
               "pathloss")
    return PathlossModel(
        exponent=config_field(d, "exponent", float, "pathloss", 3.5),
        reference_loss=config_field(d, "reference_loss", float, "pathloss", 32.0),
        shadowing_sigma=config_field(d, "shadowing_sigma", float, "pathloss", 2.0),
        seed=config_field(d, "seed", int, "pathloss", 0),
    )


def pathloss_to_dict(m: PathlossModel) -> dict:
    return {"exponent": m.exponent, "reference_loss": m.reference_loss,
            "shadowing_sigma": m.shadowing_sigma, "seed": m.seed}
