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
    record counts actually used; ``empty_rows`` the antennas that had no
    serving records (their rows are structurally zero).
    """

    matrix: sp.csr_matrix
    sample_sizes: np.ndarray
    empty_rows: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def support_edges(self) -> np.ndarray:
        """Directed edges (i, j), 1-based, where A~_ij != 0 for i != j."""
        coo = self.matrix.tocoo()
        keep = coo.row != coo.col
        edges = np.stack([coo.row[keep] + 1, coo.col[keep] + 1], axis=1)
        return edges[np.lexsort((edges[:, 1], edges[:, 0]))]


def approx_from_matrix(matrix) -> JacobianApprox:
    """Wrap an explicit matrix (dense or sparse) for the solvers; handy for
    analytic cases where no record batch exists."""
    m = sp.csr_matrix(np.asarray(matrix, dtype=float)) if not sp.issparse(matrix) \
        else matrix.tocsr()
    if m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    return JacobianApprox(matrix=m, sample_sizes=np.zeros(m.shape[0], dtype=int),
                          empty_rows=())


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
    are not assembled (the counting pass is shared). The sparse matrix is
    built from the (i, j, count) switch triplets alone, in
    O(records * top_m + n) memory; no n x n array is formed.
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

    rows, sample_sizes = sample_for_jacobian(ds, cfg.n_s, seed=seed)
    empty = tuple(int(i + 1) for i in np.flatnonzero(sample_sizes == 0))
    if empty:
        warnings.warn(f"antennas without serving records: {empty}; "
                      "their jacobian rows are zero")

    # switches keyed i * n + j by the 0-based (serving i, competitor j);
    # padding entries get id -1
    ids = ds.ids[rows].astype(np.int64) - 1
    vals = ds.values[rows]
    srv = ids[:, 0]
    m = ids.shape[1]
    down = up = np.zeros(0, dtype=np.int64)
    if m > 1:
        # down-shift: the strongest competitor is column 1 (entries are
        # sorted by value desc, ties by id asc), so it wins or nobody does
        j1 = ids[:, 1]
        lowered = vals[:, 0] - eps * powers[srv]
        win = (j1 >= 0) & ((vals[:, 1] > lowered)
                           | ((vals[:, 1] == lowered) & (j1 < srv)))
        down = srv[win] * n + j1[win]
        # up-shift: a boosted competitor must strictly beat every entry,
        # and column 0 holds the row maximum
        keys = []
        for c in range(1, m):
            jc = ids[:, c]
            win = (jc >= 0) & (vals[:, c] + eps * powers[jc] > vals[:, 0])
            keys.append(srv[win] * n + jc[win])
        up = np.concatenate(keys)

    denom = np.maximum(sample_sizes, 1).astype(float)
    r = topo.prb_vector()
    mass = f * r
    span = 2.0 * eps * powers
    # the up-shift cells sorted by (i, j): bincount then adds each column
    # in the order of a dense axis-0 sum
    up_keys, up_counts = np.unique(up, return_counts=True)
    up_i, up_j = np.divmod(up_keys, n)
    rplus = up_counts / denom[up_i]
    diag = (f * (np.bincount(down // n, minlength=n) / denom)
            + np.bincount(up_j, weights=rplus * mass[up_i], minlength=n) / r) \
        / span / f_bar
    cells, values = np.arange(n) * (n + 1), diag
    if not diagonal_only:
        dn_keys, dn_counts = np.unique(down, return_counts=True)
        dn_i, dn_j = np.divmod(dn_keys, n)
        # cell (i, j) takes f_i * Dplus_ij / n_i from i's records, then
        # Dminus_ji / n_j * mass_j / r_i from j's
        off, inverse = np.unique(np.concatenate([up_keys, dn_j * n + dn_i]),
                                 return_inverse=True)
        total = np.bincount(inverse, weights=np.concatenate(
            [f[up_i] * rplus, dn_counts / denom[dn_i] * mass[dn_i] / r[dn_j]]))
        row, col = np.divmod(off, n)
        cells = np.concatenate([cells, off])
        values = np.concatenate([values, -total / span[col] / f_bar[row]])
    keep = values != 0  # drops 0.0 and -0.0 cells, as a dense scan would
    matrix = sp.csr_matrix((values[keep], np.divmod(cells[keep], n)),
                           shape=(n, n))
    return JacobianApprox(matrix=matrix, sample_sizes=sample_sizes,
                          empty_rows=empty)


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
