"""Power rebalancing: the full-Jacobian pseudoinverse balancer (bdba), the
diagonal fast balancer (bfdba), clamped power application and the per-period
step that ties estimation, solving and the coverage floor together.

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
from dataclasses import dataclass, field

import numpy as np

from .busy import BusyState, busy_degrees, disagreement, targets
from .coverage import InfeasibleCoverage, min_power_search
from .jacobian import JacobianApprox, estimate_jacobian, support_graph
from .model import AlgorithmConfig, NetworkTopology
from .mrdata import MrDataset
from .traffic import UserBatch

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


class DegenerateDiagonal(RuntimeError):
    """The fast balancer found non-positive diagonal entries."""

    def __init__(self, antennas):
        self.antennas = tuple(int(a) for a in antennas)
        super().__init__(f"non-positive jacobian diagonal at antennas {self.antennas}")


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
    SVD (stored zeros count as entries and leave the decision to it).
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
    csr = approx.matrix.tocsr()
    if ((np.diff(csr.indptr) == 0).sum() >= 2
            or (np.bincount(csr.indices, minlength=n) == 0).sum() >= 2):
        raise SingularJacobian(approx)
    a = csr.toarray()
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
    Raises DegenerateDiagonal when any diagonal entry is non-positive.
    """
    n = approx.n
    d = np.asarray(d, dtype=float)
    powers = np.asarray(powers, dtype=float)
    if d.shape != (n,) or powers.shape != (n,):
        raise ValueError("d and powers must have one entry per antenna")
    diag = approx.matrix.diagonal()
    bad = np.flatnonzero(diag <= 0)
    if len(bad):
        raise DegenerateDiagonal(bad + 1)
    d2 = d - tau * powers
    u = d2 / diag
    return u, {"d2_inf": float(np.abs(d2).max()), "method": "diagonal"}


@dataclass
class BalanceStep:
    """Everything one balancing period produced, kept for audit."""

    period: int
    algorithm: str
    u: np.ndarray
    p_prev: np.ndarray
    p_next: np.ndarray
    clamp_flags: tuple[str, ...]
    residual: float | None = None
    duration_s: float = 0.0
    busy: BusyState | None = None
    solver_diag: dict = field(default_factory=dict)
    p_min: np.ndarray | None = None
    fallback: bool = False
    held: bool = False

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


def apply_and_clamp(powers: np.ndarray, u: np.ndarray, gamma: float,
                    p_min: np.ndarray, p_max: np.ndarray,
                    algorithm: str = "", period: int = 0) -> BalanceStep:
    """p_next = median(p_min, p + gamma * u, p_max), flagged per antenna.

    Raises InfeasibleCoverage when some p_min exceeds its p_max (the coverage
    floor cannot be met within the rated power).
    """
    if not 0 < gamma <= 1:
        raise ValueError("gamma must lie in (0, 1]")
    powers = np.asarray(powers, dtype=float)
    u = np.asarray(u, dtype=float)
    p_min = np.asarray(p_min, dtype=float)
    p_max = np.asarray(p_max, dtype=float)
    bad = np.flatnonzero(p_min > p_max)
    if len(bad):
        raise InfeasibleCoverage(tuple(bad + 1),
                                 "coverage floor above rated power")
    star = powers + gamma * u
    nxt = np.clip(star, p_min, p_max)
    flags = tuple("hit_max" if s > hi else "hit_min" if s < lo else "none"
                  for s, lo, hi in zip(star, p_min, p_max))
    return BalanceStep(period=period, algorithm=algorithm, u=u.copy(),
                       p_prev=powers.copy(), p_next=nxt,
                       clamp_flags=flags, p_min=p_min.copy())


def step(topo: NetworkTopology, powers: np.ndarray, users: UserBatch,
         mr_signal: MrDataset, coverage_eval, cfg: AlgorithmConfig,
         algorithm: str, period: int, seed: int = 0) -> BalanceStep:
    """Run one full balancing period.

    Computes busy-degrees, targets and disagreement from the period's users,
    served by each record's main service antenna (``mr_signal`` must be the
    period's unfiltered batch recorded at ``powers``; ValueError otherwise),
    estimates the Jacobian from the signal-domain records, solves for the
    adjustment with the requested algorithm (falling back from bdba to bfdba
    on a singular estimate, and holding powers when even the diagonal is
    degenerate), raises the coverage floor via the minimum-power search, and
    clamps. The recorded duration covers estimation + solve + coverage.
    """
    if algorithm not in ("bdba", "bfdba"):
        raise ValueError(f"unknown balancing algorithm {algorithm!r}")
    powers = np.asarray(powers, dtype=float)
    if (mr_signal.recorded_powers is None
            or not np.array_equal(mr_signal.recorded_powers, powers)):
        raise ValueError(f"period {period}: the MR batch was not recorded at "
                         "the powers being balanced, so its serving antennas "
                         "are not the users' assignment")
    f = busy_degrees(mr_signal.serving(), users, topo)
    f_bar = targets(f, topo, cfg.target_mode)
    d = disagreement(f, f_bar)
    state = BusyState(period=period, f=f, f_bar=f_bar, d=d)

    t0 = time.perf_counter()
    fallback = False
    held = False
    approx = estimate_jacobian(mr_signal, powers, f, f_bar, topo, cfg,
                               seed=seed, diagonal_only=(algorithm == "bfdba"))
    used = algorithm
    try:
        if algorithm == "bdba":
            try:
                u, diag = bdba_solve(approx, d, cutoff=cfg.svd_cutoff)
            except SingularJacobian:
                warnings.warn(f"period {period}: singular jacobian, "
                              "falling back to the diagonal balancer")
                fallback = True
                used = "bfdba"
                u, diag = bfdba_solve(approx, d, powers, cfg.tau)
        else:
            u, diag = bfdba_solve(approx, d, powers, cfg.tau)
    except DegenerateDiagonal as exc:
        warnings.warn(f"period {period}: {exc}; holding powers")
        held = True
        u = np.zeros(topo.n)
        diag = {"method": "hold", "degenerate": list(exc.antennas)}

    p_max = topo.p_max_vector()
    start = np.minimum(powers + cfg.gamma * u, p_max)
    try:
        p_min = min_power_search(start, topo, coverage_eval, cfg.f_con, cfg.delta_p)
    except InfeasibleCoverage as exc:
        raise InfeasibleCoverage(exc.antennas,
                                 f"period {period}: {exc.reason}") from exc
    duration = time.perf_counter() - t0

    rec = apply_and_clamp(powers, u, cfg.gamma, p_min, p_max,
                          algorithm=used, period=period)
    rec.busy = state
    rec.solver_diag = diag
    rec.residual = diag.get("residual")
    rec.duration_s = duration
    rec.fallback = fallback
    rec.held = held
    return rec


def save_steps_jsonl(steps, path) -> None:
    with open(path, "w") as fh:
        for rec in steps:
            fh.write(json.dumps(rec.to_json_dict()) + "\n")
