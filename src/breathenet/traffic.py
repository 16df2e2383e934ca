"""Monte-Carlo tidal traffic: weighted Gaussian hotspots, log-distance
pathloss with frozen shadowing, and strongest-pilot user assignment."""

from __future__ import annotations

import functools
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import ConfigError, NetworkTopology

# Elements per scratch buffer of the row-blocked U x n kernels (1 MiB of
# float64): large enough that per-block overhead vanishes, small enough that
# no temporary grows with the user count.
BLOCK_ELEMENTS = 1 << 17

# Most threads filling one period's attenuation matrix. One of them draws the
# sequential shadowing stream, about 37% of the kernel; past three workers
# that draw sets the pace.
MAX_SAMPLING_WORKERS = 3


@dataclass(frozen=True)
class PathlossModel:
    """Log-distance pathloss: loss = reference_loss + 10*exponent*log10(d) + shadowing.

    Distances are clamped at 1 m before the logarithm. Shadowing is zero-mean
    Gaussian with ``shadowing_sigma`` dB, drawn once per (user, antenna) pair
    and frozen for the whole sampling period.
    """

    exponent: float = 3.5
    reference_loss: float = 32.0
    shadowing_sigma: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.exponent < 2.0:
            raise ConfigError(f"pathloss exponent must be >= 2, got {self.exponent}")
        if self.shadowing_sigma < 0:
            raise ConfigError("shadowing sigma must be non-negative")


@dataclass(frozen=True)
class Hotspot:
    """Gaussian traffic blob; ``truncate`` (in units of spread) optionally
    rejects samples beyond that radius to keep users inside the service area."""

    center: tuple[float, float]
    weight: float
    spread: float
    truncate: float | None = None

    def __post_init__(self):
        if self.weight < 0:
            raise ConfigError("hotspot weight must be non-negative")
        if self.spread <= 0:
            raise ConfigError("hotspot spread must be positive")
        if self.truncate is not None and self.truncate <= 0:
            raise ConfigError("truncation radius must be positive")


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
    (hotspot geometry frozen from period ``freeze_at`` on; only the user count
    scales, which is the regime where the consensus result applies).
    ``demand`` gives the inclusive integer PRB-demand range per user.
    """

    periods: tuple[PeriodSpec, ...]
    seed: int = 0
    mode: str = "free"
    freeze_at: int | None = None
    demand: tuple[int, int] = (1, 1)

    def __post_init__(self):
        if not self.periods:
            raise ConfigError("scenario needs at least one period")
        if self.mode not in ("free", "proportional"):
            raise ConfigError(f"unknown scenario mode {self.mode!r}")
        lo, hi = self.demand
        if lo < 1 or hi < lo:
            raise ConfigError(f"bad demand range {self.demand}")
        if self.mode == "proportional":
            k_star = self.freeze_at if self.freeze_at is not None else 1
            if not 1 <= k_star <= len(self.periods):
                raise ConfigError(f"freeze_at {k_star} outside scenario horizon")
            frozen = self.periods[k_star - 1].hotspots
            for k in range(k_star, len(self.periods)):
                if self.periods[k].hotspots != frozen:
                    raise ConfigError(
                        f"proportional mode: hotspot geometry changes at period {k + 1}")

    @property
    def horizon(self) -> int:
        return len(self.periods)


class UserBatch:
    """Array-backed batch of users for one period.

    ``len`` is the user count; the attenuation matrix (U x n) is frozen at
    sampling time, so shadowing is constant for the period.
    """

    def __init__(self, positions: np.ndarray, attenuation: np.ndarray,
                 demand: np.ndarray, period: int):
        if len(positions) != len(attenuation) or len(positions) != len(demand):
            raise ValueError("batch arrays disagree on user count")
        self.positions = positions
        self.attenuation = attenuation
        self.demand = demand
        self.period = period

    def __len__(self) -> int:
        return len(self.demand)

    @property
    def n_antennas(self) -> int:
        return self.attenuation.shape[1]


def sample_users(scenario: TrafficScenario, model: PathlossModel,
                 topo: NetworkTopology, k: int) -> UserBatch:
    """Draw the period-k user population.

    Deterministic given (scenario.seed, model.seed, k): hotspot membership,
    positions and demands come from the scenario stream, shadowing from the
    pathloss stream, both split per period. In proportional mode the frozen
    period's draw is reused verbatim and only thinned or tiled to the period's
    user count, so the relative density is exactly constant across periods.
    """
    if k < 1:
        raise ValueError(f"period index starts at 1, got {k}")
    if k > scenario.horizon:
        raise ValueError(f"period {k} beyond scenario horizon {scenario.horizon}")
    spec = scenario.periods[k - 1]
    k_eff = k
    if scenario.mode == "proportional":
        k_star = scenario.freeze_at if scenario.freeze_at is not None else 1
        if k >= k_star:
            k_eff = k_star
    if k_eff != k:
        base = sample_users(scenario, model, topo, k_eff)
        return UserBatch(*_rescale_population(base, spec.total_users,
                                              scenario.seed), period=k)
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
                for _ in range(64):
                    far = np.hypot(offsets[:, 0], offsets[:, 1]) > cap
                    if not far.any():
                        break
                    offsets[far] = rng.normal(0.0, h.spread, size=(int(far.sum()), 2))
                else:
                    offsets = np.clip(offsets, -cap, cap)
            chunks.append(np.asarray(h.center, float) + offsets)
    positions = np.concatenate(chunks) if chunks else np.zeros((0, 2))

    lo, hi = scenario.demand
    demand = (np.ones(u, dtype=np.int64) if lo == hi == 1
              else rng.integers(lo, hi + 1, size=u, dtype=np.int64))

    sites = topo.positions()
    att = np.empty((u, len(sites)))
    shadow_rng = (np.random.default_rng(
        np.random.SeedSequence(model.seed, spawn_key=(k, 1)))
        if model.shadowing_sigma > 0 else None)
    _fill_attenuation(att, positions, sites, model, shadow_rng)
    return UserBatch(positions, att, demand, k)


def block_rows(n: int) -> int:
    """Rows per block of a kernel streaming through U x n user data."""
    return max(1, BLOCK_ELEMENTS // max(1, n))


def _sampling_workers() -> int:
    """Threads that fill one period's attenuation matrix: the cores this
    process may run on, at most ``MAX_SAMPLING_WORKERS``."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    return min(MAX_SAMPLING_WORKERS, cores)


def _fill_attenuation(att: np.ndarray, positions: np.ndarray, sites: np.ndarray,
                      model: PathlossModel, shadow_rng) -> None:
    """Write reference_loss + 10*exponent*log10(max(d, 1)) + sigma*z into
    ``att``, one row block at a time, on up to ``_sampling_workers()`` threads.

    Every block applies the whole-matrix formula operation by operation, in
    the same order, through ``out=`` ufuncs, so ``att`` is bitwise what the
    one-shot expression gives whatever the thread count. The shadowing
    stream is sequential, so one task draws sigma*z for every block in order
    straight into ``att`` (block by block it yields the same numbers as one
    (U, n) draw) and signals each block as it lands. The geometry tasks are
    independent: each computes its block into scratch, waits for that block's
    draw and adds it in. With one worker, or one block, the tasks run inline
    in submission order: the draw first, then the blocks. numpy's ufuncs and
    the generator release the GIL, so the workers run at once.
    """
    n = att.shape[1]
    rows = block_rows(n)
    blocks = [(lo, min(lo + rows, len(att))) for lo in range(0, len(att), rows)]
    workers = min(_sampling_workers(), len(blocks))
    drawn = [threading.Event() for _ in blocks] if shadow_rng is not None else None
    # scratch comes from this thread and is handed round, one pair per worker:
    # buffers allocated inside the workers grow per-thread malloc arenas
    scratch = queue.SimpleQueue()
    for _ in range(max(1, workers)):
        scratch.put(np.empty((2, min(rows, len(att)), n)))
    slope = 10.0 * model.exponent

    def draw():
        try:
            for (lo, hi), done in zip(blocks, drawn):
                blk = att[lo:hi]
                shadow_rng.standard_normal(out=blk)
                np.multiply(blk, model.shadowing_sigma, out=blk)
                done.set()
        finally:
            # a failed draw must not leave a geometry task waiting
            for done in drawn:
                done.set()

    def geometry(b):
        lo, hi = blocks[b]
        pair = scratch.get()
        try:
            bx, by = pair[:, :hi - lo]
            geom = bx if drawn is not None else att[lo:hi]
            np.subtract(positions[lo:hi, 0, None], sites[None, :, 0], out=bx)
            np.subtract(positions[lo:hi, 1, None], sites[None, :, 1], out=by)
            np.hypot(bx, by, out=geom)
            np.clip(geom, 1.0, None, out=geom)
            np.log10(geom, out=geom)
            np.multiply(geom, slope, out=geom)
            np.add(geom, model.reference_loss, out=geom)
            if drawn is not None:
                drawn[b].wait()
                np.add(geom, att[lo:hi], out=att[lo:hi])
        finally:
            scratch.put(pair)

    tasks = ([draw] if drawn is not None else []) + [
        functools.partial(geometry, b) for b in range(len(blocks))]
    if workers <= 1:
        for task in tasks:
            task()
        return
    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(task) for task in tasks]
    for future in futures:
        future.result()


def _rescale_population(base: UserBatch, total: int, seed: int):
    """Thin or tile a frozen population to ``total`` users.

    A single scenario-level permutation gives nested subsets, so shrinking
    from one count to a smaller one always drops users rather than swapping
    them; growth repeats the whole population before topping up.
    """
    u_star = len(base)
    if total == u_star or u_star == 0:
        return base.positions, base.attenuation, base.demand
    perm = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(0, 97))).permutation(u_star)
    reps, rem = divmod(total, u_star)
    pick = np.concatenate([np.tile(np.arange(u_star), reps), perm[:rem]])
    return base.positions[pick], base.attenuation[pick], base.demand[pick]


def assign_users(users: UserBatch, powers: np.ndarray) -> np.ndarray:
    """Serve each user by the antenna with the strongest received pilot.

    Received strength is powers[i] - attenuation[:, i] (dBm); exact ties go to
    the lowest antenna id. Returns 1-based antenna ids, one per user.
    """
    powers = np.asarray(powers, dtype=float)
    if powers.shape != (users.n_antennas,):
        raise ValueError(f"power vector length {powers.shape} does not match "
                         f"{users.n_antennas} antennas")
    if len(users) == 0:
        return np.zeros(0, dtype=np.int64)
    received = powers[None, :] - users.attenuation
    return np.argmax(received, axis=1).astype(np.int64) + 1


def scenario_from_dict(d: dict) -> TrafficScenario:
    periods = []
    for p in d["periods"]:
        hotspots = tuple(Hotspot(center=tuple(float(c) for c in h["center"]),
                                 weight=float(h["weight"]),
                                 spread=float(h["spread"]),
                                 truncate=h.get("truncate"))
                         for h in p["hotspots"])
        periods.append(PeriodSpec(total_users=int(p["total_users"]), hotspots=hotspots))
    demand = d.get("demand", [1, 1])
    return TrafficScenario(
        periods=tuple(periods),
        seed=int(d.get("seed", 0)),
        mode=d.get("mode", "free"),
        freeze_at=d.get("freeze_at"),
        demand=(int(demand[0]), int(demand[1])),
    )


def scenario_to_dict(s: TrafficScenario) -> dict:
    out = {
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
    if s.freeze_at is not None:
        out["freeze_at"] = s.freeze_at
    return out


def pathloss_from_dict(d: dict) -> PathlossModel:
    return PathlossModel(
        exponent=float(d.get("exponent", 3.5)),
        reference_loss=float(d.get("reference_loss", 32.0)),
        shadowing_sigma=float(d.get("shadowing_sigma", 2.0)),
        seed=int(d.get("seed", 0)),
    )


def pathloss_to_dict(m: PathlossModel) -> dict:
    return {"exponent": m.exponent, "reference_loss": m.reference_loss,
            "shadowing_sigma": m.shadowing_sigma, "seed": m.seed}
