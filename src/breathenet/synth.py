"""Synthetic topology and scenario builders behind the spec's ``bundle``
block, the demo config, the benchmark and the tests. Every builder is
deterministic for a fixed seed."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .model import Antenna, NetworkTopology, watts_to_dbm
from .traffic import Hotspot, PathlossModel, PeriodSpec, TrafficScenario


class ScenarioBundle(NamedTuple):
    topo: NetworkTopology
    pathloss: PathlossModel
    scenario: TrafficScenario


def grid_topology(nx: int, ny: int, spacing: float = 500.0, p: float = 43.0,
                  p_max: float | None = None, prb: int = 100,
                  neighbour_radius: float = 1.6) -> NetworkTopology:
    """Rectangular antenna grid; neighbours within neighbour_radius * spacing."""
    if p_max is None:
        p_max = watts_to_dbm(80.0)
    antennas = []
    pos = []
    for iy in range(ny):
        for ix in range(nx):
            pos.append((ix * spacing, iy * spacing))
            antennas.append(Antenna(id=len(antennas) + 1, p=p, p_max=p_max,
                                    r=prb, position=pos[-1]))
    coords = np.asarray(pos)
    limit = neighbour_radius * spacing
    neighbours = []
    for i in range(len(antennas)):
        dist = np.hypot(coords[:, 0] - coords[i, 0], coords[:, 1] - coords[i, 1])
        peers = frozenset(int(j) + 1 for j in np.flatnonzero((dist <= limit) & (dist > 0)))
        neighbours.append(peers)
    return NetworkTopology(tuple(antennas), tuple(neighbours))


def line_topology(n: int, spacing: float = 500.0, **kw) -> NetworkTopology:
    return grid_topology(n, 1, spacing=spacing, **kw)


def _bbox(topo: NetworkTopology) -> tuple[np.ndarray, np.ndarray]:
    coords = topo.positions()
    return coords.min(axis=0), coords.max(axis=0)


def _background(topo: NetworkTopology, weight: float) -> Hotspot:
    lo, hi = _bbox(topo)
    diag = float(np.linalg.norm(hi - lo))
    return Hotspot(center=tuple((lo + hi) / 2.0), weight=weight,
                   spread=max(diag / 2.5, 1.0), truncate=1.6)


def _prb_for(total_users: int, n: int, target_busy: float) -> int:
    """Capacity that puts the network-mean busy-degree near target_busy."""
    return max(1, int(round(total_users / (n * target_busy))))


def random_bundle(nx: int = 5, ny: int = 4, periods: int = 1,
                  total_users: int = 30000, n_hotspots: int = 3,
                  seed: int = 0, spacing: float = 500.0,
                  background: float = 0.3, target_busy: float = 0.5,
                  **grid_kw) -> ScenarioBundle:
    """Independent random hotspot layouts per period over a grid."""
    grid_kw.setdefault("prb", _prb_for(total_users, nx * ny, target_busy))
    topo = grid_topology(nx, ny, spacing=spacing, **grid_kw)
    lo, hi = _bbox(topo)
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(periods):
        raw = rng.uniform(0.5, 1.5, size=n_hotspots)
        weights = raw / raw.sum() * (1.0 - background)
        spots = [Hotspot(center=(float(rng.uniform(lo[0], hi[0])),
                                 float(rng.uniform(lo[1], hi[1]))),
                         weight=float(w),
                         spread=float(rng.uniform(0.6, 1.4) * spacing),
                         truncate=2.5)
                 for w in weights]
        spots.append(_background(topo, background))
        specs.append(PeriodSpec(total_users=total_users, hotspots=tuple(spots)))
    scenario = TrafficScenario(tuple(specs), seed=seed + 1)
    return ScenarioBundle(topo, PathlossModel(seed=seed + 2), scenario)


def proportional_bundle(periods: int = 60, total_users: int = 100000,
                        betas=None, seed: int = 0, spacing: float = 500.0,
                        concentration: float = 0.46, target_busy: float = 0.5,
                        **grid_kw) -> ScenarioBundle:
    """Frozen-geometry scenario for the consensus regime: two tight clusters
    plus a broad background, user counts scaled per period by betas.

    Powers start 14 dB below rated so the consensus fixed point stays inside
    the clamp box (under-loaded antennas need double-digit dB headroom).
    """
    grid_kw.setdefault("prb", _prb_for(total_users, 20, target_busy))
    grid_kw.setdefault("p", 41.0)
    grid_kw.setdefault("p_max", 55.0)
    topo = grid_topology(5, 4, spacing=spacing, **grid_kw)
    lo, hi = _bbox(topo)
    span = hi - lo
    half = concentration / 2.0
    spots = (
        Hotspot(center=(float(lo[0] + 0.22 * span[0]), float(lo[1] + 0.25 * span[1])),
                weight=half, spread=0.9 * spacing, truncate=2.5),
        Hotspot(center=(float(lo[0] + 0.80 * span[0]), float(lo[1] + 0.72 * span[1])),
                weight=half, spread=0.9 * spacing, truncate=2.5),
        _background(topo, 1.0 - concentration),
    )
    if betas is None:
        betas = np.ones(periods)
    specs = tuple(PeriodSpec(total_users=int(round(total_users * b)), hotspots=spots)
                  for b in betas)
    scenario = TrafficScenario(specs, seed=seed + 1, mode="proportional")
    return ScenarioBundle(topo, PathlossModel(seed=seed + 2), scenario)


def drift_bundle(periods: int = 100, total_users: int = 60000,
                 step_m: float = 10.0, seed: int = 0,
                 spacing: float = 500.0, target_busy: float = 0.5,
                 **grid_kw) -> ScenarioBundle:
    """Two clusters drifting by step_m per period: the slow-drift regime."""
    grid_kw.setdefault("prb", _prb_for(total_users, 20, target_busy))
    topo = grid_topology(5, 4, spacing=spacing, **grid_kw)
    lo, hi = _bbox(topo)
    span = hi - lo
    a0 = lo + np.array([0.25, 0.30]) * span
    b0 = lo + np.array([0.75, 0.70]) * span
    va = np.array([1.0, 0.45])
    va = va / np.linalg.norm(va) * step_m
    vb = -va
    specs = []
    for k in range(periods):
        spots = (
            Hotspot(center=tuple(a0 + k * va), weight=0.21,
                    spread=0.85 * spacing, truncate=2.5),
            Hotspot(center=tuple(b0 + k * vb), weight=0.21,
                    spread=0.85 * spacing, truncate=2.5),
            _background(topo, 0.58),
        )
        specs.append(PeriodSpec(total_users=total_users, hotspots=spots))
    scenario = TrafficScenario(tuple(specs), seed=seed + 1)
    return ScenarioBundle(topo, PathlossModel(seed=seed + 2), scenario)


def _site_background(topo: NetworkTopology, weight: float,
                     spacing: float) -> tuple[Hotspot, ...]:
    """Background split into one tight blob per site, so every background
    user stays well inside some antenna's reach at modest power."""
    per = weight / topo.n
    return tuple(Hotspot(center=tuple(pos), weight=per,
                         spread=0.55 * spacing, truncate=2.2)
                 for pos in topo.positions())


def tidal_bundle(periods: int = 24, total_users: int = 40000, seed: int = 0,
                 spacing: float = 500.0, target_busy: float = 0.55,
                 **grid_kw) -> ScenarioBundle:
    """Day/night tide on a 10x5 grid: a 'commercial' cluster dominating early
    periods hands its traffic to a drifting 'residential' cluster."""
    grid_kw.setdefault("prb", _prb_for(total_users, 50, target_busy))
    topo = grid_topology(10, 5, spacing=spacing, **grid_kw)
    lo, hi = _bbox(topo)
    span = hi - lo
    a0 = lo + np.array([0.22, 0.62]) * span
    a1 = lo + np.array([0.38, 0.48]) * span
    b0 = lo + np.array([0.80, 0.35]) * span
    b1 = lo + np.array([0.62, 0.52]) * span
    # cluster weights sized so peak cells run near full load, not multiples
    # of it: the balancer's linearization is built for that regime
    background = _site_background(topo, 0.56, spacing)
    specs = []
    for k in range(periods):
        t = k / max(periods - 1, 1)
        wa = 0.34 - 0.24 * t
        wb = 0.10 + 0.24 * t
        spots = (
            Hotspot(center=tuple(a0 + t * (a1 - a0)), weight=wa,
                    spread=1.2 * spacing, truncate=2.5),
            Hotspot(center=tuple(b0 + t * (b1 - b0)), weight=wb,
                    spread=1.2 * spacing, truncate=2.5),
        ) + background
        specs.append(PeriodSpec(total_users=total_users, hotspots=spots))
    scenario = TrafficScenario(tuple(specs), seed=seed + 1)
    return ScenarioBundle(topo, PathlossModel(seed=seed + 2), scenario)


def two_island_bundle(total_users: int = 4000, seed: int = 0) -> ScenarioBundle:
    """Two antenna clusters 100 km apart: no record ever mentions both, so
    the jacobian support splits and the pseudoinverse solve must refuse."""
    near = grid_topology(3, 1, spacing=500.0, prb=_prb_for(total_users, 6, 0.5))
    antennas = list(near.antennas)
    offset = 100000.0
    for i in range(3):
        a = near.antennas[i]
        antennas.append(Antenna(id=4 + i, p=a.p, p_max=a.p_max, r=a.r,
                                position=(a.position[0] + offset, a.position[1])))
    neighbours = [frozenset({2}), frozenset({1, 3}), frozenset({2}),
                  frozenset({5}), frozenset({4, 6}), frozenset({5})]
    topo = NetworkTopology(tuple(antennas), tuple(neighbours))
    spots = (
        Hotspot(center=(500.0, 0.0), weight=0.5, spread=600.0, truncate=2.5),
        Hotspot(center=(offset + 500.0, 0.0), weight=0.5, spread=600.0, truncate=2.5),
    )
    scenario = TrafficScenario(
        (PeriodSpec(total_users=total_users, hotspots=spots),), seed=seed + 1)
    return ScenarioBundle(topo, PathlossModel(seed=seed + 2), scenario)
