"""Power rebalancing: the full-Jacobian pseudoinverse balancer (bdba), the
diagonal fast balancer (bfdba) and the per-period step that ties estimation,
solving, damping and the coverage floor together.

The pseudoinverse solve works in the zero-sum subspace: the adjustment u is
the least-squares solution of A~ u = d among vectors with sum(u) = 0, which
coincides with pinv(A~) d when A~ is an exact Laplacian and keeps the total
pilot budget unchanged even for noisy estimates.
"""

from __future__ import annotations

import functools
import json
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .busy import BusyState
from .coverage import InfeasibleCoverage, min_power_search
from .jacobian import JacobianApprox, estimate_jacobian, support_graph
from .model import AlgorithmConfig, NetworkTopology
from .mrdata import MrDataset

# the largest network bdba's dense SVD serves; ExperimentSpec rejects bdba
# on more antennas
DENSE_LIMIT = 2000


class SingularJacobian(RuntimeError):
    """The estimate has effective rank below n-1. Its support components, and
    the message that names them, are computed on first access."""

    def __init__(self, approx: JacobianApprox):
        super().__init__(approx)
        self.approx = approx

    @functools.cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        return support_graph(self.approx).components

    def __str__(self) -> str:
        return (f"jacobian support splits into {len(self.components)} "
                f"components: {self.components}")


def _zero_sum_basis(n: int) -> np.ndarray:
    """Orthonormal Helmert-style basis of the zero-sum subspace, (n, n-1)."""
    k = np.arange(1, n, dtype=float)
    s = np.sqrt(k * (k + 1.0))
    # column k-1: 1/s in rows < k, -k/s in row k, zero below
    basis = np.triu(np.broadcast_to(1.0 / s, (n, n - 1)))
    basis[np.arange(1, n), np.arange(n - 1)] = -k / s
    return basis


def bdba_solve(approx: JacobianApprox, d: np.ndarray,
               cutoff: float = 0.05) -> tuple[np.ndarray, dict]:
    """Solve A~ u = d for the zero-sum least-squares adjustment u.

    Dense path: SVD of the estimate restricted to the zero-sum basis.
    Structural rank below n - 1 at tolerance rtol * sigma_max
    (rtol = 1e-10 * n) raises SingularJacobian: the record support does not
    connect the network. Two or more empty rows, or two or more empty
    columns, bound the rank by n - 2, so that verdict is reached before the
    SVD.
    Separately, directions weaker than ``cutoff`` times the largest singular
    value are dropped from the solve; the estimate is Monte Carlo sampled and
    those directions carry more noise than signal, producing adjustments far
    outside the perturbation range the estimate was built from. The
    left-over disagreement is picked up on later periods. The solve is
    dense, so experiment specs cap bdba at DENSE_LIMIT antennas; larger
    networks run bfdba.
    """
    n = approx.n
    d = np.asarray(d, dtype=float)
    if d.shape != (n,):
        raise ValueError("disagreement length does not match matrix size")
    if n == 1:
        return np.zeros(1), {"singular_values": [], "residual": float(abs(d[0])),
                             "method": "trivial"}
    if ((np.diff(approx.indptr) == 0).sum() >= 2
            or (np.bincount(approx.indices, minlength=n) == 0).sum() >= 2):
        raise SingularJacobian(approx)
    a = approx.toarray()
    basis = _zero_sum_basis(n)
    u_svd, sigma, vt = np.linalg.svd(a @ basis, full_matrices=False)
    sigma_max = sigma[0] if len(sigma) else 0.0
    rank_floor = 1e-10 * n * sigma_max
    if int((sigma > rank_floor).sum()) < n - 1:
        raise SingularJacobian(approx)
    keep = sigma >= cutoff * sigma_max
    w = vt.T[:, keep] @ ((u_svd[:, keep].T @ d) / sigma[keep])
    u = basis @ w
    residual = float(np.linalg.norm(a @ u - d))
    return u, {"singular_values": sigma.tolist(), "cutoff": float(cutoff),
               "rank": int(keep.sum()), "residual": residual,
               "sum_u": float(u.sum()), "method": "svd"}


def bfdba_solve(approx: JacobianApprox, d: np.ndarray, powers: np.ndarray,
                tau: float) -> tuple[np.ndarray, dict]:
    """Fast diagonal solve: u_i = (d_i - tau * p_i) / A~_ii.

    The tau term trades exact balance for a steady pull toward lower pilot
    powers; the resulting fixed point has f_i = (1 - tau * p_i) * f_bar.
    When any diagonal entry is non-positive the solve holds: u is zero and
    the diag dict is {"method": "hold", "degenerate": [1-based ids]}.
    """
    n = approx.n
    d = np.asarray(d, dtype=float)
    powers = np.asarray(powers, dtype=float)
    if d.shape != (n,) or powers.shape != (n,):
        raise ValueError("d and powers must have one entry per antenna")
    diag = approx.diagonal()
    bad = np.flatnonzero(diag <= 0)
    if len(bad):
        return np.zeros(n), {"method": "hold", "degenerate": (bad + 1).tolist()}
    d2 = d - tau * powers
    u = d2 / diag
    return u, {"d2_inf": float(np.abs(d2).max()), "method": "diagonal"}


@dataclass
class BalanceStep:
    """Everything one balancing period produced, kept for audit."""

    period: int
    algorithm: str
    u: np.ndarray
    p_next: np.ndarray
    clamp_flags: tuple[str, ...]
    residual: float | None
    duration_s: float
    solver_diag: dict
    fallback: bool
    held: bool

    def to_json_dict(self) -> dict:
        return {
            "period": self.period,
            "algorithm": self.algorithm,
            "u": [float(x) for x in self.u],
            "p_next": [float(x) for x in self.p_next],
            "clamp_flags": list(self.clamp_flags),
            "residual": self.residual,
            "duration_s": self.duration_s,
            "fallback": self.fallback,
            "held": self.held,
        }


def step(topo: NetworkTopology, powers: np.ndarray, state: BusyState,
         mr_signal: MrDataset, coverage_eval, cfg: AlgorithmConfig,
         algorithm: str, seed: int = 0) -> BalanceStep:
    """Run one balancing period from its busy state.

    ``state`` holds the period's busy-degrees, targets and disagreement,
    counted on ``mr_signal``'s serving antennas; ``mr_signal`` must be the
    period's unfiltered batch recorded at ``powers`` (ValueError otherwise).
    Estimates the Jacobian from the signal-domain records, solves for the
    adjustment with the requested algorithm (falling back from bdba to bfdba
    on a singular estimate; bfdba holds powers, u = 0, when the diagonal is
    degenerate), damps it to p + gamma * u, caps that at p_max, and runs the
    minimum-power coverage search from there: the search result is the next
    power vector. Each antenna is flagged ``hit_max`` where p + gamma * u
    exceeds p_max, ``hit_min`` where the search raised it above
    p + gamma * u, and ``none`` elsewhere. The recorded duration covers
    estimation + solve + coverage.
    """
    if algorithm not in ("bdba", "bfdba"):
        raise ValueError(f"unknown balancing algorithm {algorithm!r}")
    period = state.period
    powers = np.asarray(powers, dtype=float)
    if (mr_signal.recorded_powers is None
            or not np.array_equal(mr_signal.recorded_powers, powers)):
        raise ValueError(f"period {period}: the MR batch was not recorded at "
                         "the powers being balanced, so its serving antennas "
                         "are not the users' assignment")

    t0 = time.perf_counter()
    fallback = False
    approx = estimate_jacobian(mr_signal, powers, state.f, state.f_bar, topo,
                               cfg, seed=seed,
                               diagonal_only=(algorithm == "bfdba"))
    used = algorithm
    if algorithm == "bdba":
        try:
            u, diag = bdba_solve(approx, state.d, cutoff=cfg.svd_cutoff)
        except SingularJacobian:
            warnings.warn(f"period {period}: singular jacobian, "
                          "falling back to the diagonal balancer")
            fallback = True
            used = "bfdba"
    if used == "bfdba":
        u, diag = bfdba_solve(approx, state.d, powers, cfg.tau)
    held = diag["method"] == "hold"
    if held:
        warnings.warn(f"period {period}: non-positive jacobian diagonal at "
                      f"antennas {tuple(diag['degenerate'])}; holding powers")

    p_max = topo.p_max_vector()
    star = powers + cfg.gamma * u
    try:
        p_next = min_power_search(np.minimum(star, p_max), topo, coverage_eval,
                                  cfg.f_con, cfg.delta_p)
    except InfeasibleCoverage as exc:
        raise InfeasibleCoverage(exc.antennas,
                                 f"period {period}: {exc.reason}") from exc
    duration = time.perf_counter() - t0

    flags = tuple("hit_max" if s > hi else "hit_min" if s < lo else "none"
                  for s, lo, hi in zip(star, p_next, p_max))
    return BalanceStep(period=period, algorithm=used, u=u, p_next=p_next,
                       clamp_flags=flags, residual=diag.get("residual"),
                       duration_s=duration, solver_diag=diag,
                       fallback=fallback, held=held)


def save_steps_jsonl(steps, path) -> None:
    with open(path, "w") as fh:
        for rec in steps:
            fh.write(json.dumps(rec.to_json_dict()) + "\n")
