"""Static network description, algorithm configuration and power-unit helpers.

All power arithmetic in this package is carried out in dBm; configuration
files may declare powers in watts or dBm with an explicit unit tag and are
converted on load.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np


class ConfigError(ValueError):
    """Raised when a topology / scenario / config description is invalid."""


_REQUIRED = object()


def config_field(block: dict, key: str, kind, where: str, default=_REQUIRED):
    """``kind(block[key])``, where ``int``, ``float`` and ``str`` are read
    strictly, by ``strict_int``, ``strict_float`` and ``strict_str``; a key
    that is absent or None gives ``default`` as it is, when one is given. A
    missing required key, or a value ``kind`` rejects, raises a ConfigError
    naming ``where`` and ``key``."""
    value = block.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(f"{where}: missing {key!r}")
        return default
    try:
        return _STRICT.get(kind, kind)(value)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {key}: {exc}") from None
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: {key} {value!r} is not a valid "
                          f"{kind.__name__}") from None


def check_keys(block, keys, where: str) -> None:
    """Check that ``block`` is an object whose keys all lie in ``keys``, so
    that a misspelt key is never silently ignored; a ConfigError names
    ``where`` and the keys it does not know."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where}: {block!r} is not an object")
    unknown = sorted(set(block) - set(keys), key=str)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {unknown}; "
                          f"known keys: {sorted(keys)}")


def strict_int(value) -> int:
    """An int from a whole, finite number. A bool, a string, or a number
    with a fraction or no finite value raises TypeError or ValueError
    rather than being rounded or read as 0 or 1."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise TypeError(f"{value!r} is not a number")
    if not isinstance(value, numbers.Integral) and not float(value).is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


def strict_float(value) -> float:
    """``float(value)``, but a bool raises TypeError."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def strict_str(value) -> str:
    """``value`` itself when it is a str; anything else raises TypeError
    rather than being read as its text."""
    if not isinstance(value, str):
        raise TypeError(f"{value!r} is not a string")
    return value


_STRICT = {int: strict_int, float: strict_float, str: strict_str}


def point(xy) -> tuple[float, float]:
    """An (x, y) pair of floats from a two-item sequence."""
    x, y = xy
    return strict_float(x), strict_float(y)


def floats(values) -> tuple[float, ...]:
    """A tuple of floats from a sequence of numbers."""
    return tuple(strict_float(v) for v in values)


def int_pair(ab) -> tuple[int, int]:
    """An (a, b) pair of ints from a two-item sequence."""
    a, b = ab
    return strict_int(a), strict_int(b)


def antenna_ids(ids) -> frozenset[int]:
    """A set of antenna ids from a sequence of ints."""
    return frozenset(strict_int(j) for j in ids)


def watts_to_dbm(p: float) -> float:
    """Convert transmit power in watts to dBm. Rejects non-positive input."""
    if p <= 0:
        raise ValueError(f"power must be positive, got {p} W")
    return 10.0 * math.log10(p * 1000.0)


def _power_to_dbm(obj) -> float:
    """Read a power entry from a config dict: {"value": x, "unit": "watts"|"dbm"}."""
    if isinstance(obj, (int, float)):
        raise ConfigError("power entries need an explicit unit tag, e.g. "
                          '{"value": 20, "unit": "watts"}')
    try:
        value = strict_float(obj["value"])
        unit = str(obj["unit"]).lower()
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed power entry: {obj!r}") from exc
    check_keys(obj, ("value", "unit"), "power entry")
    if unit == "watts":
        return watts_to_dbm(value)
    if unit == "dbm":
        return value
    raise ConfigError(f"unknown power unit {unit!r} (want 'watts' or 'dbm')")


@dataclass(frozen=True)
class Antenna:
    """One antenna: pilot power, rated ceiling, PRB capacity, planar position.

    Powers are dBm. ``r`` is the PRB capacity used as the busy-degree
    denominator and must be a positive integer.
    """

    id: int
    p: float
    p_max: float
    r: int
    position: tuple[float, float] | None = None

    def __post_init__(self):
        if self.id < 1:
            raise ConfigError(f"antenna ids start at 1, got {self.id}")
        # messages name the spec fields: power (p), p_max and prb (r)
        if not math.isfinite(self.p_max):
            raise ConfigError(f"antenna {self.id}: p_max {self.p_max} dBm "
                              "must be finite")
        # the Jacobian estimator perturbs the pilot by a relative epsilon and
        # divides by 2 * epsilon * p
        if not self.p > 0:
            raise ConfigError(f"antenna {self.id}: power {self.p} dBm "
                              "must be positive")
        if not self.p <= self.p_max:
            raise ConfigError(f"antenna {self.id}: power {self.p} dBm above "
                              f"p_max {self.p_max} dBm")
        if int(self.r) != self.r or self.r < 1:
            raise ConfigError(f"antenna {self.id}: prb must be a positive "
                              f"integer, got {self.r}")


@dataclass(frozen=True)
class NetworkTopology:
    """Immutable antenna set plus the declared neighbour relation.

    Antenna ids must be dense 1..n. ``neighbours[k]`` holds the neighbour ids
    of antenna k+1 and must be free of self-loops; ``topology_from_dict``
    also requires the relation to be symmetric.
    """

    antennas: tuple[Antenna, ...]
    neighbours: tuple[frozenset[int], ...]

    def __post_init__(self):
        n = len(self.antennas)
        if n == 0:
            raise ConfigError("topology needs at least one antenna")
        ids = [a.id for a in self.antennas]
        if ids != list(range(1, n + 1)):
            raise ConfigError(f"antenna ids must be dense 1..{n}, got {ids}")
        if len(self.neighbours) != n:
            raise ConfigError("neighbour list length does not match antenna count")
        for i, peers in enumerate(self.neighbours, start=1):
            for j in peers:
                if not 1 <= j <= n:
                    raise ConfigError(f"antenna {i}: neighbour id {j} out of range")
                if j == i:
                    raise ConfigError(f"antenna {i}: self-loop in neighbour set")

    @property
    def n(self) -> int:
        return len(self.antennas)

    def initial_powers(self) -> np.ndarray:
        return np.array([a.p for a in self.antennas], dtype=float)

    def p_max_vector(self) -> np.ndarray:
        return np.array([a.p_max for a in self.antennas], dtype=float)

    def prb_vector(self) -> np.ndarray:
        return np.array([a.r for a in self.antennas], dtype=float)

    def positions(self) -> np.ndarray:
        if any(a.position is None for a in self.antennas):
            raise ConfigError("topology has antennas without positions")
        return np.array([a.position for a in self.antennas], dtype=float)


@dataclass(frozen=True)
class AlgorithmConfig:
    """Tuning knobs of the balancing loop.

    epsilon   relative perturbation used by the Jacobian estimator
    gamma     smoothing factor applied to the adjustment, in (0, 1]
    tau       power-decay weight of the fast balancer (per dBm)
    delta_p   increment of the minimum-power search, dB
    n_s       per-antenna record sample cap for the Jacobian estimator
    f_con     required neighbourhood coverage rate
    r_c       coverage signal threshold, dBm
    target_mode  'global' or 'local' busy-degree targets
    top_m     antennas listed per measurement record
    over_busy_threshold  busy-degree at or above which an antenna counts as over-busy
    coverage_sample  cap on records fed to the coverage pipeline (0 = all)
    svd_cutoff  relative singular-value floor of the least-squares solve;
                directions weaker than this fraction of the largest are
                treated as sampling noise and dropped
    """

    epsilon: float = 0.1
    gamma: float = 1.0
    tau: float = 0.01
    delta_p: float = 1.0
    n_s: int = 5000
    f_con: float = 0.999
    r_c: float = -90.0
    target_mode: str = "global"
    top_m: int = 6
    over_busy_threshold: float = 0.7
    coverage_sample: int = 0
    svd_cutoff: float = 0.05

    def __post_init__(self):
        for name in ("epsilon", "tau", "delta_p", "r_c", "over_busy_threshold"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(
                    f"{name} must be finite, got {getattr(self, name)}")
        if not 0 < self.epsilon:
            raise ConfigError("epsilon must be positive")
        if not 0 < self.gamma <= 1:
            raise ConfigError("gamma must lie in (0, 1]")
        if self.tau < 0:
            raise ConfigError("tau must be non-negative")
        if self.delta_p <= 0:
            raise ConfigError("delta_p must be positive")
        if self.n_s < 1:
            raise ConfigError("n_s must be at least 1")
        if not 0 < self.f_con <= 1:
            raise ConfigError("f_con must lie in (0, 1]")
        if self.target_mode not in ("global", "local"):
            raise ConfigError(f"unknown target_mode {self.target_mode!r}")
        if self.top_m < 1:
            raise ConfigError("top_m must be at least 1")
        if self.coverage_sample < 0:
            raise ConfigError("coverage_sample must be >= 0")
        if not 0 <= self.svd_cutoff < 1:
            raise ConfigError("svd_cutoff must lie in [0, 1)")

    def with_overrides(self, **kwargs) -> "AlgorithmConfig":
        """This config with the given fields replaced, each read as the
        type of its default; a None value keeps the field as it is."""
        known = [f.name for f in fields(self)]
        unknown = sorted(set(kwargs) - set(known))
        if unknown:
            raise ConfigError(f"unknown cfg key(s) {unknown}; known keys: {known}")
        return replace(self, **{
            f.name: config_field(kwargs, f.name, type(f.default), "cfg",
                                 getattr(self, f.name))
            for f in fields(self) if f.name in kwargs})


def topology_from_dict(d: dict) -> NetworkTopology:
    check_keys(d, ("antennas", "neighbours"), "topology")
    antennas = []
    for k, a in enumerate(config_field(d, "antennas", list, "topology"), start=1):
        check_keys(a, ("id", "power", "p_max", "prb", "position"),
                   f"antenna #{k}")
        where = f"antenna {a.get('id', f'#{k}')}"
        antennas.append(Antenna(
            id=config_field(a, "id", int, where),
            p=config_field(a, "power", _power_to_dbm, where),
            p_max=config_field(a, "p_max", _power_to_dbm, where),
            r=config_field(a, "prb", int, where),
            position=config_field(a, "position", point, where, None),
        ))
    antennas.sort(key=lambda a: a.id)
    n = len(antennas)
    raw_neigh = config_field(d, "neighbours", dict, "topology", {})
    # the known keys are the ids "1".."n", too many to list
    unknown = sorted(set(raw_neigh) - {str(i) for i in range(1, n + 1)},
                     key=str)
    if unknown:
        raise ConfigError(f"neighbours: unknown key(s) {unknown}; known keys "
                          f"are the antenna ids '1'..'{n}'")
    neighbours = [config_field(raw_neigh, str(i), antenna_ids, "neighbours",
                               frozenset()) for i in range(1, n + 1)]
    topo = NetworkTopology(tuple(antennas), tuple(neighbours))
    for i, peers in enumerate(topo.neighbours, start=1):
        for j in sorted(peers):
            if i not in topo.neighbours[j - 1]:
                raise ConfigError(f"neighbours: antenna {i} lists {j}, but "
                                  f"antenna {j} does not list {i}")
    return topo


def topology_to_dict(topo: NetworkTopology) -> dict:
    return {
        "antennas": [
            {
                "id": a.id,
                "power": {"value": a.p, "unit": "dbm"},
                "p_max": {"value": a.p_max, "unit": "dbm"},
                "prb": int(a.r),
                **({"position": list(a.position)} if a.position is not None else {}),
            }
            for a in topo.antennas
        ],
        "neighbours": {str(i): sorted(peers)
                       for i, peers in enumerate(topo.neighbours, start=1)},
    }
