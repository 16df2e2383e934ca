"""Estimation of the busy-degree Jacobian from measurement records.

The estimator never re-runs the simulator: it counts, inside each antenna's
serving records, how many users would change service under a +/- epsilon
relative shift of a single pilot power, and converts those counts into
derivative estimates. The resulting matrix (normalized by the targets) has
Laplacian sign structure: non-negative diagonal, non-positive off-diagonal,
row sums near zero.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .model import AlgorithmConfig, NetworkTopology
from .mrdata import MrDataset, sample_for_jacobian


@dataclass
class JacobianApprox:
    """Normalized Jacobian estimate A~ with A~_ij ~ (df_i/dp_j) / f_bar_i.

    The n x n estimate, per-dB, is held as CSR arrays: row i stores its
    columns ``indices[indptr[i]:indptr[i + 1]]``, ascending, with values
    ``data`` at the same positions. They are the arrays scipy's
    ``csr_matrix`` holds for the same entries, index dtype included.
    ``sample_sizes`` holds the per-antenna record counts actually used;
    ``empty_rows`` the antennas that had no serving records (their rows are
    structurally zero).
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    sample_sizes: np.ndarray
    empty_rows: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    def toarray(self) -> np.ndarray:
        """The dense n x n estimate."""
        n = self.n
        out = np.zeros(n * n)
        starts = np.repeat(np.arange(n) * n, np.diff(self.indptr))
        out[starts + self.indices] = self.data
        return out.reshape(n, n)

    def diagonal(self) -> np.ndarray:
        """A~_ii for every i, 0.0 where the cell is not stored."""
        rows = np.repeat(np.arange(self.n, dtype=self.indices.dtype),
                         np.diff(self.indptr))
        on = np.flatnonzero(rows == self.indices)
        out = np.zeros(self.n)
        out[rows[on]] = self.data[on]
        return out

    @functools.cached_property
    def matrix(self):
        """The estimate as a scipy ``csr_matrix`` over the same arrays.
        scipy.sparse is imported here, on first use, so that the balancing
        loop, which reads only the arrays, never loads it."""
        import scipy.sparse as sp

        return sp.csr_matrix((self.data, self.indices, self.indptr),
                             shape=(self.n, self.n))


def _csr_arrays(keys: np.ndarray, data: np.ndarray,
                n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, indices, data) of the entries at ascending, distinct flat
    cells ``keys`` = row * n + col, with scipy's index dtype: int32 unless
    n or the entry count needs int64."""
    idx = np.int32 if max(len(keys), n) <= np.iinfo(np.int32).max else np.int64
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    return indptr.astype(idx), (keys % n).astype(idx), data


def approx_from_matrix(matrix) -> JacobianApprox:
    """Wrap an explicit dense matrix for the solvers; handy for analytic
    cases where no record batch exists. It keeps the nonzero cells, as
    scipy's ``csr_matrix`` would."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    keys = np.flatnonzero(a)  # row-major, so ascending (row, col)
    n = len(a)
    return JacobianApprox(*_csr_arrays(keys, a.ravel()[keys], n),
                          sample_sizes=np.zeros(n, dtype=int), empty_rows=())


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
    are not assembled (the counting pass is shared). The CSR arrays are
    built from the (i, j, count) switch triplets alone, in
    O(records * top_m + n) memory; no n x n array is formed.

    Every record must list its entries by falling received strength, tied
    entries by ascending id, padding last, as ``generate_mr`` records them:
    the down-shift reads column 1 as the strongest competitor, the first of
    any tied with it, and the up-shift stops reading a record at the first
    column that even the largest shift cannot lift above column 0.
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

    # switches keyed i * n + j by the 0-based (serving i, competitor j). The
    # rows are read in place when every record is sampled. eps * p is looked
    # up by 1-based id, NaN at the padding id 0, so padding never wins
    if len(rows) == len(ds):
        ids, vals = ds.ids, ds.values
    else:
        ids, vals = ds.ids[rows], ds.values[rows]
    shift = np.empty(n + 1)
    shift[0] = np.nan
    np.multiply(eps, powers, out=shift[1:])
    srv, best = ids[:, 0], vals[:, 0]

    def keys(hit, j):
        return (srv[hit].astype(np.int64) - 1) * n + (j - 1)

    down = up = np.zeros(0, dtype=np.int64)
    if ids.shape[1] > 1:
        # down-shift: the strongest competitor is column 1 (entries fall by
        # value; generate_mr breaks ties by id asc), so it wins or nobody does
        j1, v1 = ids[:, 1], vals[:, 1]
        lowered = best - shift[srv]
        near = np.flatnonzero(v1 >= lowered)
        j = j1[near]
        win = (j > 0) & ((v1[near] > lowered[near]) | (j < srv[near]))
        down = keys(near[win], j[win])
        # up-shift: a boosted competitor must strictly beat column 0, the
        # row maximum. Values fall along the row and rounding is monotone,
        # so a record whose column c misses even under the largest shift
        # misses in every later column too: only the records still near
        # are read
        reach = shift[1:].max()
        near = np.flatnonzero(v1 + reach > best)
        found = []
        for c in range(1, ids.shape[1]):
            vc, top = vals[near, c], best[near]
            if c > 1:
                still = vc + reach > top
                near, vc, top = near[still], vc[still], top[still]
            j = ids[near, c]
            win = vc + shift[j] > top
            found.append(keys(near[win], j[win]))
        up = np.concatenate(found)

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
    cells, values = cells[keep], values[keep]
    # the diagonal cells and the off-diagonal ones are each ascending: a
    # stable sort merges the two runs
    order = np.argsort(cells, kind="stable")
    return JacobianApprox(*_csr_arrays(cells[order], values[order], n),
                          sample_sizes=sample_sizes, empty_rows=empty)


@dataclass(frozen=True)
class SupportGraph:
    """Directed support of the estimate plus its strong-connectivity verdict."""

    n: int
    strongly_connected: bool
    components: tuple[tuple[int, ...], ...]


def support_graph(approx: JacobianApprox) -> SupportGraph:
    """Strong components of the estimate's support, with an edge i -> j
    wherever A~_ij is stored. Components list 1-based ids in ascending
    order and are ordered by their smallest member."""
    # imported on first use: csgraph loads scipy.linalg and
    # scipy.sparse.linalg, about 10 MB resident that a run which never
    # names the components does not need
    from scipy.sparse.csgraph import connected_components

    count, labels = connected_components(approx.matrix, directed=True,
                                         connection="strong")
    members = [[] for _ in range(count)]
    for v, label in enumerate(labels.tolist()):
        members[label].append(v + 1)
    # disjoint ascending tuples sort by their first, smallest, member
    components = tuple(sorted(map(tuple, members)))
    return SupportGraph(n=approx.n, strongly_connected=count == 1,
                        components=components)


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
    unnorm = approx.toarray() * np.asarray(f_bar, dtype=float)[:, None]
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
