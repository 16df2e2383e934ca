"""Estimation of the busy-degree Jacobian from measurement records.

The estimator never re-runs the simulator: it counts, inside each antenna's
serving records, how many users would change service under a +/- epsilon
relative shift of a single pilot power, and converts those counts into
derivative estimates. The resulting matrix (normalized by the targets) has
Laplacian sign structure: non-negative diagonal, non-positive off-diagonal,
row sums near zero.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .model import AlgorithmConfig, NetworkTopology
from .mrdata import MrDataset, sample_for_jacobian


@dataclass
class JacobianApprox:
    """Normalized Jacobian estimate A~ with A~_ij ~ (df_i/dp_j) / f_bar_i.

    ``matrix`` is sparse n x n, per-dB. ``sample_sizes`` holds the per-antenna
    record counts actually used; ``serving_counts`` the full |M_i|;
    ``empty_rows`` the antennas that had no serving records (their rows are
    structurally zero).
    """

    matrix: sp.csr_matrix
    epsilon: float
    sample_sizes: np.ndarray
    serving_counts: np.ndarray
    empty_rows: tuple[int, ...]
    diagonal_only: bool = False

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def support_edges(self) -> np.ndarray:
        """Directed edges (i, j), 1-based, where A~_ij != 0 for i != j."""
        coo = self.matrix.tocoo()
        keep = coo.row != coo.col
        edges = np.stack([coo.row[keep] + 1, coo.col[keep] + 1], axis=1)
        return edges[np.lexsort((edges[:, 1], edges[:, 0]))]


def approx_from_matrix(matrix, epsilon: float = 0.1,
                       diagonal_only: bool = False) -> JacobianApprox:
    """Wrap an explicit matrix (dense or sparse) for the solvers; handy for
    analytic cases where no record batch exists."""
    m = sp.csr_matrix(np.asarray(matrix, dtype=float)) if not sp.issparse(matrix) \
        else matrix.tocsr()
    if m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    n = m.shape[0]
    zeros = np.zeros(n, dtype=int)
    return JacobianApprox(matrix=m, epsilon=epsilon, sample_sizes=zeros,
                          serving_counts=zeros.copy(), empty_rows=(),
                          diagonal_only=diagonal_only)


def estimate_jacobian(ds: MrDataset, powers: np.ndarray, f: np.ndarray,
                      f_bar: np.ndarray, topo: NetworkTopology,
                      cfg: AlgorithmConfig, seed: int = 0,
                      diagonal_only: bool = False) -> JacobianApprox:
    """Assemble the normalized Jacobian estimate from one record batch.

    For each antenna i, up to cfg.n_s serving records are sampled. Two counts
    are taken per record set M_i:

      down-shift: lowering i's received strength by epsilon*p_i, how many
        records switch their maximum to antenna j (at most one j per record);
      up-shift: raising competitor j's strength by epsilon*p_j, in how many
        records j strictly beats every other listed entry.

    Each switched record carries the average traffic mass of its set,
    f_i * r_i / |M_i| PRBs, and the count ratios of the two opposite shifts
    are averaged over the 2*epsilon*p span, giving central-difference-style
    estimates:

      df_i/dp_i ~ [f_i * Dminus_i/ n_i + sum_j Dplus_{j,i}/n_j * f_j r_j/r_i] / (2 eps p_i)
      df_i/dp_j ~ -[f_i * Dplus_{i,j}/n_i + Dminus_{j,i}/n_j * f_j r_j/r_i] / (2 eps p_j)

    and A~_ij = (df_i/dp_j) / f_bar_i. Antennas without serving records yield
    zero rows and a warning. With ``diagonal_only`` the off-diagonal entries
    are not assembled (the counting pass is shared).
    """
    if ds.domain != "signal":
        raise ValueError("jacobian estimation needs signal-domain records")
    n = topo.n
    if ds.n_antennas != n:
        raise ValueError(f"records cover {ds.n_antennas} antennas, "
                         f"the topology {n}")
    powers = np.asarray(powers, dtype=float)
    f = np.asarray(f, dtype=float)
    f_bar = np.asarray(f_bar, dtype=float)
    if powers.shape != (n,) or f.shape != (n,) or f_bar.shape != (n,):
        raise ValueError("powers/f/f_bar must have one entry per antenna")
    if (f_bar <= 0).any():
        raise ValueError("targets must be positive to normalize the estimate")
    eps = cfg.epsilon

    serving = ds.serving()
    serving_counts = np.bincount(serving, minlength=n + 1)[1:] if len(serving) \
        else np.zeros(n, dtype=np.int64)
    rows, sample_sizes = sample_for_jacobian(ds, cfg.n_s, seed=seed)
    empty = tuple(int(i + 1) for i in np.flatnonzero(sample_sizes == 0))
    if empty:
        warnings.warn(f"antennas without serving records: {empty}; "
                      "their jacobian rows are zero")

    # switch counts keyed by the flat (n+1)^2 cell (serving i, competitor j)
    ids = ds.ids[rows]
    vals = ds.values[rows]
    srv = ids[:, 0].astype(np.int64)
    m = ids.shape[1]
    down = up = np.zeros(0, dtype=np.int64)
    if m > 1:
        # down-shift: the strongest competitor is column 1 (entries are
        # sorted by value desc, ties by id asc), so it wins or nobody does
        j1 = ids[:, 1].astype(np.int64)
        has = j1 > 0
        lowered = vals[:, 0] - eps * powers[srv - 1]
        win = has & ((vals[:, 1] > lowered)
                     | ((vals[:, 1] == lowered) & (j1 < srv)))
        down = srv[win] * (n + 1) + j1[win]
        # up-shift: a boosted competitor must strictly beat every entry,
        # and column 0 holds the row maximum
        keys = []
        for c in range(1, m):
            jc = ids[:, c].astype(np.int64)
            has = jc > 0
            boosted = np.where(has, vals[:, c] + eps * powers[np.where(has, jc, 1) - 1],
                               -np.inf)
            win = has & (boosted > vals[:, 0])
            keys.append(srv[win] * (n + 1) + jc[win])
        up = np.concatenate(keys)
    dminus = np.bincount(down, minlength=(n + 1) ** 2).reshape(n + 1, n + 1)
    dplus = np.bincount(up, minlength=(n + 1) ** 2).reshape(n + 1, n + 1)

    denom = np.maximum(sample_sizes, 1).astype(float)
    rminus = dminus[1:, 1:] / denom[:, None]
    rplus = dplus[1:, 1:] / denom[:, None]

    r = topo.prb_vector()
    mass = f * r
    diag_unnorm = (f * rminus.sum(axis=1)
                   + (rplus * mass[:, None]).sum(axis=0) / r) / (2.0 * eps * powers)
    dense = np.zeros((n, n))
    if not diagonal_only:
        off = -(f[:, None] * rplus + rminus.T * mass[None, :] / r[:, None]) \
            / (2.0 * eps * powers[None, :])
        np.fill_diagonal(off, 0.0)
        dense = off
    dense[np.arange(n), np.arange(n)] = diag_unnorm
    dense /= f_bar[:, None]
    matrix = sp.csr_matrix(dense)
    matrix.eliminate_zeros()
    return JacobianApprox(matrix=matrix, epsilon=eps, sample_sizes=sample_sizes,
                          serving_counts=serving_counts.astype(np.int64),
                          empty_rows=empty, diagonal_only=diagonal_only)


@dataclass(frozen=True)
class SupportGraph:
    """Directed support of the estimate plus its strong-connectivity verdict."""

    n: int
    edges: tuple[tuple[int, int], ...]
    strongly_connected: bool
    components: tuple[tuple[int, ...], ...]


def support_graph(approx: JacobianApprox) -> SupportGraph:
    n = approx.n
    edges = [(int(a), int(b)) for a, b in approx.support_edges()]
    adj = [[] for _ in range(n)]
    radj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a - 1].append(b - 1)
        radj[b - 1].append(a - 1)
    components = _strong_components(adj, radj)
    return SupportGraph(n=n, edges=tuple(edges),
                        strongly_connected=len(components) == 1,
                        components=components)


def _strong_components(adj, radj) -> tuple[tuple[int, ...], ...]:
    """Kosaraju with iterative DFS; components listed with 1-based ids."""
    n = len(adj)
    seen = np.zeros(n, dtype=bool)
    order = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [(start, iter(adj[start]))]
        seen[start] = True
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(adj[w])))
                    advanced = True
                    break
            if not advanced:
                order.append(v)
                stack.pop()
    comp = np.full(n, -1, dtype=np.int64)
    label = 0
    for v in reversed(order):
        if comp[v] >= 0:
            continue
        stack = [v]
        comp[v] = label
        while stack:
            x = stack.pop()
            for w in radj[x]:
                if comp[w] < 0:
                    comp[w] = label
                    stack.append(w)
        label += 1
    out = [[] for _ in range(label)]
    for v in range(n):
        out[comp[v]].append(v + 1)
    return tuple(tuple(sorted(c)) for c in sorted(out, key=min))


@dataclass(frozen=True)
class LaplacianReport:
    """Structural check of the unnormalized rows f_bar_i * A~_ij."""

    row_sums: np.ndarray
    row_max_abs: np.ndarray
    max_row_sum_residual: float
    max_relative_residual: float
    sign_violations: int
    second_smallest_singular_value: float


def laplacian_check(approx: JacobianApprox, f_bar: np.ndarray) -> LaplacianReport:
    """Quantify how close the unnormalized estimate is to a graph Laplacian:
    non-negative diagonal, non-positive off-diagonal, zero row sums, and a
    single vanishing singular value when the support is strongly connected."""
    n = approx.n
    unnorm = approx.matrix.toarray() * np.asarray(f_bar, dtype=float)[:, None]
    diag = np.diag(unnorm)
    off = unnorm.copy()
    np.fill_diagonal(off, 0.0)
    violations = int((diag < 0).sum() + (off > 0).sum())
    row_sums = unnorm.sum(axis=1)
    row_max = np.abs(unnorm).max(axis=1) if n else np.zeros(0)
    nz = row_max > 0
    rel = float(np.max(np.abs(row_sums[nz]) / row_max[nz])) if nz.any() else 0.0
    sigma = np.linalg.svd(unnorm, compute_uv=False)
    second_smallest = float(sigma[-2]) if n >= 2 else float(sigma[-1]) if n else 0.0
    return LaplacianReport(
        row_sums=row_sums,
        row_max_abs=row_max,
        max_row_sum_residual=float(np.abs(row_sums).max()) if n else 0.0,
        max_relative_residual=rel,
        sign_violations=violations,
        second_smallest_singular_value=second_smallest,
    )
