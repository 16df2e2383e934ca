"""Busy-degree arithmetic: per-antenna load relative to PRB capacity, the
capacity-weighted balance targets and the disagreement vector driving the
balancer."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import NetworkTopology
from .traffic import UserBatch


class ZeroTraffic(ValueError):
    """Raised when targets are requested for an all-idle network."""


@dataclass(frozen=True)
class BusyState:
    """Snapshot of one period: busy-degrees f, targets f_bar, disagreement d."""

    period: int
    f: np.ndarray
    f_bar: np.ndarray
    d: np.ndarray


def busy_degrees(assignment: np.ndarray, users: UserBatch,
                 topo: NetworkTopology) -> np.ndarray:
    """Per-antenna busy-degree: summed assigned demand over PRB capacity.

    Demands are integers, so the numerator is exact before the division.
    """
    n = topo.n
    if len(assignment) != len(users):
        raise ValueError("assignment length does not match user count")
    if len(assignment) and (assignment.min() < 1 or assignment.max() > n):
        raise ValueError("assignment contains out-of-range antenna ids")
    load = np.bincount(assignment - 1, weights=users.demand, minlength=n) if len(assignment) \
        else np.zeros(n)
    return load / topo.prb_vector()


def targets(f: np.ndarray, topo: NetworkTopology, mode: str = "global") -> np.ndarray:
    """Balance targets f_bar.

    global: every antenna targets the capacity-weighted network mean
    sum_j r_j f_j / sum_j r_j. local: antenna i targets the same weighted
    mean over itself and its declared neighbours.
    """
    r = topo.prb_vector()
    f = np.asarray(f, dtype=float)
    if f.shape != r.shape:
        raise ValueError("busy-degree length does not match antenna count")
    if not (f > 0).any():
        raise ZeroTraffic("all busy-degrees are zero; targets undefined")
    if mode == "global":
        mean = float(np.dot(r, f) / r.sum())
        return np.full_like(f, mean)
    if mode == "local":
        out = np.empty_like(f)
        for i, peers in enumerate(topo.neighbours):
            idx = [i] + [j - 1 for j in sorted(peers)]
            out[i] = np.dot(r[idx], f[idx]) / r[idx].sum()
        return out
    raise ValueError(f"unknown target mode {mode!r}")


def disagreement(f: np.ndarray, f_bar: np.ndarray) -> np.ndarray:
    """d_i = 1 - f_i / f_bar_i, positive when antenna i is under-loaded."""
    f = np.asarray(f, dtype=float)
    f_bar = np.asarray(f_bar, dtype=float)
    if f.shape != f_bar.shape:
        raise ValueError("shape mismatch between f and f_bar")
    if (f_bar <= 0).any():
        raise ZeroTraffic("non-positive target busy-degree")
    return 1.0 - f / f_bar
