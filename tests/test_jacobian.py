"""Jacobian estimation from record batches and its structural checks."""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from breathenet.busy import busy_degrees, targets
from breathenet.jacobian import (
    approx_from_matrix,
    estimate_jacobian,
    laplacian_check,
    support_graph,
)
from breathenet.model import AlgorithmConfig, Antenna, NetworkTopology
from breathenet.mrdata import MrDataset, MrRecord, dataset_from_records, generate_mr
from breathenet.synth import line_topology, random_bundle
from breathenet.traffic import UserBatch, assign_users, sample_users


def make_topo(n, r=100):
    ants = tuple(Antenna(id=i, p=40.0, p_max=49.0, r=r)
                 for i in range(1, n + 1))
    neigh = tuple(frozenset(set(range(1, n + 1)) - {i}) for i in range(1, n + 1))
    return NetworkTopology(ants, neigh)


def batch_from_attenuation(att, demand=None):
    att = np.asarray(att, dtype=float)
    if demand is None:
        demand = np.ones(len(att), dtype=np.int64)
    return UserBatch(np.zeros((len(att), 2)), att,
                     np.asarray(demand, dtype=np.int64), period=1)


def finite_difference_matrix(users, topo, p, f_bar, eps):
    """Central difference of the busy-degrees by re-running assignment at
    p_j * (1 +/- eps), normalized like the estimator."""
    n = topo.n
    out = np.zeros((n, n))
    for j in range(n):
        for sign in (1.0, -1.0):
            q = p.copy()
            q[j] += sign * eps * p[j]
            f_shift = busy_degrees(assign_users(users, q), users, topo)
            out[:, j] += sign * f_shift
    out /= (2.0 * eps * p)[None, :]
    return out / np.asarray(f_bar)[:, None]


def estimate_for(users, topo, p, cfg, seed=0):
    mr = generate_mr(users, p, cfg.top_m)
    f = busy_degrees(assign_users(users, p), users, topo)
    f_bar = targets(f, topo, cfg.target_mode)
    return estimate_jacobian(mr, p, f, f_bar, topo, cfg, seed=seed), f, f_bar


class TestEstimator:
    def test_single_antenna_has_zero_matrix(self):
        topo = make_topo(1, r=10)
        users = batch_from_attenuation(np.full((5, 1), 70.0))
        approx, _, _ = estimate_for(users, topo, np.array([40.0]),
                                    AlgorithmConfig())
        np.testing.assert_array_equal(approx.matrix.toarray(), [[0.0]])

    def test_symmetric_band_case(self):
        # every record's runner-up sits 2 dB behind while the shift moves
        # received strength by 4 dB, so every user flips in both directions;
        # symmetric capacities and loads force a symmetric estimate
        topo = make_topo(2, r=100)
        att = np.array([[70.0, 72.0]] * 50 + [[72.0, 70.0]] * 50)
        users = batch_from_attenuation(att)
        p = np.array([40.0, 40.0])
        approx, f, f_bar = estimate_for(users, topo, p,
                                        AlgorithmConfig(epsilon=0.1))
        a = approx.matrix.toarray()
        np.testing.assert_allclose(f, [0.5, 0.5])
        assert a[0, 1] == a[1, 0] < 0
        assert a[0, 0] == -a[0, 1]
        assert a[1, 1] == -a[1, 0]

    def test_matches_finite_difference_oracle(self):
        topo = line_topology(3, spacing=400.0, prb=350)
        from breathenet.synth import _bbox
        from breathenet.traffic import Hotspot, PathlossModel, PeriodSpec, TrafficScenario

        lo, hi = _bbox(topo)
        center = ((lo[0] + hi[0]) / 2, (lo[1] + hi[1]) / 2)
        scenario = TrafficScenario(
            periods=(PeriodSpec(20000, (Hotspot(center, 1.0, 500.0, truncate=2.0),)),),
            seed=41, demand=(1, 3))
        users = sample_users(scenario, PathlossModel(seed=42), topo, 1)
        p = topo.initial_powers()
        cfg = AlgorithmConfig(epsilon=0.1, n_s=50000)
        approx, f, f_bar = estimate_for(users, topo, p, cfg, seed=5)
        got = approx.matrix.toarray()
        oracle = finite_difference_matrix(users, topo, p, f_bar, cfg.epsilon)
        for i in range(3):
            row_scale = np.abs(oracle[i]).max()
            for j in range(3):
                if abs(oracle[i, j]) >= 0.1 * row_scale:
                    rel = abs(got[i, j] - oracle[i, j]) / abs(oracle[i, j])
                    assert rel <= 0.25, (i, j, got[i, j], oracle[i, j])

    def test_estimator_is_exact_under_unit_demand_full_sampling(self):
        # uniform per-record mass equals the true per-user demand, so the
        # perturbation counts reproduce the finite difference identically
        topo = make_topo(3, r=50)
        rng = np.random.default_rng(14)
        att = rng.uniform(60.0, 90.0, size=(600, 3))
        users = batch_from_attenuation(att)
        p = np.array([40.0, 41.0, 39.0])
        cfg = AlgorithmConfig(epsilon=0.1, n_s=10000)
        approx, f, f_bar = estimate_for(users, topo, p, cfg)
        oracle = finite_difference_matrix(users, topo, p, f_bar, cfg.epsilon)
        np.testing.assert_allclose(approx.matrix.toarray(), oracle, atol=1e-12)

    def test_a_shift_that_only_ties_switches_by_id(self):
        # eps * p = 4 dB at antennas 1 and 2, whose runners-up sit exactly
        # 4 dB behind. A boosted competitor that only ties the best does not
        # win, even where antenna 3's 5 dB shift would; lowered onto a tie,
        # the serving antenna loses to a lower id only
        topo = make_topo(3)
        mr = dataset_from_records(
            [MrRecord(((1, -70.0), (2, -74.0))), MrRecord(((2, -70.0), (1, -74.0))),
             MrRecord(((3, -60.0), (1, -70.0)))],
            "signal", 3)
        p, f, f_bar = np.array([40.0, 40.0, 50.0]), np.full(3, 0.5), np.ones(3)
        cfg = AlgorithmConfig(epsilon=0.1)
        got = estimate_jacobian(mr, p, f, f_bar, topo, cfg).matrix.toarray()
        dense, _, _ = per_antenna_estimate(mr, p, f, f_bar, topo, cfg, 0, False)
        np.testing.assert_array_equal(got, dense)
        # only antenna 2's record switches, and only down to antenna 1
        assert got[0, 0] == 0.0 and got[1, 0] == 0.0
        assert got[1, 1] > 0.0 and got[0, 1] < 0.0
        assert not got[2].any() and not got[:, 2].any()

    def test_full_sample_budget_ignores_seed(self):
        topo = make_topo(3)
        rng = np.random.default_rng(15)
        users = batch_from_attenuation(rng.uniform(60.0, 90.0, size=(300, 3)))
        p = np.full(3, 40.0)
        cfg = AlgorithmConfig(n_s=300)
        a, _, _ = estimate_for(users, topo, p, cfg, seed=1)
        b, _, _ = estimate_for(users, topo, p, cfg, seed=2)
        np.testing.assert_array_equal(a.matrix.toarray(), b.matrix.toarray())

    def test_unserved_antenna_warns_and_zeroes_row(self):
        topo = make_topo(2, r=10)
        # antenna 1 wins every user
        users = batch_from_attenuation(np.array([[60.0, 90.0]] * 20))
        p = np.array([40.0, 40.0])
        mr = generate_mr(users, p, 2)
        f = busy_degrees(assign_users(users, p), users, topo)
        f_bar = targets(f, topo)
        with pytest.warns(UserWarning, match="without serving records"):
            approx = estimate_jacobian(mr, p, f, f_bar, topo, AlgorithmConfig())
        assert approx.empty_rows == (2,)
        np.testing.assert_array_equal(approx.matrix.toarray()[1], [0.0, 0.0])

    def test_requires_signal_domain(self):
        from breathenet.mrdata import to_attenuation

        topo = make_topo(2)
        users = batch_from_attenuation([[70.0, 75.0]])
        p = np.array([40.0, 40.0])
        att = to_attenuation(generate_mr(users, p, 2), p)
        with pytest.raises(ValueError):
            estimate_jacobian(att, p, np.array([0.1, 0.1]),
                              np.array([0.1, 0.1]), topo, AlgorithmConfig())

    def test_diagonal_only_skips_off_entries(self):
        topo = make_topo(3)
        rng = np.random.default_rng(16)
        users = batch_from_attenuation(rng.uniform(60.0, 90.0, size=(300, 3)))
        p = np.full(3, 40.0)
        full, _, _ = estimate_for(users, topo, p, AlgorithmConfig())
        mr = generate_mr(users, p, 6)
        f = busy_degrees(assign_users(users, p), users, topo)
        f_bar = targets(f, topo)
        diag = estimate_jacobian(mr, p, f, f_bar, topo, AlgorithmConfig(),
                                 diagonal_only=True)
        got = diag.matrix.toarray()
        np.testing.assert_allclose(np.diag(got),
                                   np.diag(full.matrix.toarray()), atol=1e-12)
        assert (got[~np.eye(3, dtype=bool)] == 0).all()

    @pytest.mark.filterwarnings("ignore:antennas without serving records")
    @pytest.mark.parametrize("diagonal_only", [False, True])
    def test_memory_stays_linear(self, diagonal_only):
        # n = 1500 antennas: one dense (n+1)^2 count array alone is 18 MB
        topo, pathloss, scenario = random_bundle(
            nx=50, ny=30, periods=1, total_users=3000, seed=5)
        p = topo.initial_powers()
        users = sample_users(scenario, pathloss, topo, 1)
        cfg = AlgorithmConfig()
        mr = generate_mr(users, p, cfg.top_m)
        f = busy_degrees(mr.serving(), users, topo)
        f_bar = targets(f, topo, cfg.target_mode)
        tracemalloc.start()
        try:
            estimate_jacobian(mr, p, f, f_bar, topo, cfg,
                              diagonal_only=diagonal_only)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def per_antenna_estimate(ds, powers, f, f_bar, topo, cfg, seed, diagonal_only):
    """The estimator written per antenna: flatnonzero of the serving column,
    the (seed, i) subsample, and np.add.at count matrices."""
    n, eps = topo.n, cfg.epsilon
    serving = ds.ids[:, 0].astype(np.int64)
    sizes = np.zeros(n, dtype=np.int64)
    dminus = np.zeros((n + 1, n + 1))
    dplus = np.zeros((n + 1, n + 1))
    for i in range(1, n + 1):
        rows = np.flatnonzero(serving == i)
        if len(rows) > cfg.n_s:
            gen = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
            pick = gen.choice(len(rows), size=cfg.n_s, replace=False)
            pick.sort()
            rows = rows[pick]
        sizes[i - 1] = len(rows)
        for row in rows:
            ids, vals = ds.ids[row], ds.values[row]
            if len(ids) > 1 and ids[1] > 0:
                lowered = vals[0] - eps * powers[i - 1]
                if vals[1] > lowered or (vals[1] == lowered and ids[1] < i):
                    np.add.at(dminus, (i, ids[1]), 1.0)
            for c in range(1, len(ids)):
                if ids[c] > 0 and vals[c] + eps * powers[ids[c] - 1] > vals[0]:
                    np.add.at(dplus, (i, ids[c]), 1.0)
    denom = np.maximum(sizes, 1).astype(float)
    rminus = dminus[1:, 1:] / denom[:, None]
    rplus = dplus[1:, 1:] / denom[:, None]
    r = topo.prb_vector()
    mass = f * r
    dense = np.zeros((n, n))
    if not diagonal_only:
        dense = -(f[:, None] * rplus + rminus.T * mass[None, :] / r[:, None]) \
            / (2.0 * eps * powers[None, :])
    dense[np.arange(n), np.arange(n)] = (
        f * rminus.sum(axis=1)
        + (rplus * mass[:, None]).sum(axis=0) / r) / (2.0 * eps * powers)
    dense /= f_bar[:, None]
    empty = tuple(int(i + 1) for i in np.flatnonzero(sizes == 0))
    return dense, sizes, empty


class TestGroupedEstimatorOracle:
    @pytest.mark.parametrize("top_m", [1, 3, 6])
    @pytest.mark.parametrize("diagonal_only", [False, True])
    def test_equals_the_per_antenna_estimator(self, top_m, diagonal_only):
        self.check(top_m, diagonal_only, "plain")

    @pytest.mark.parametrize("diagonal_only", [False, True])
    @pytest.mark.parametrize("case", ["idle", "silent"])
    def test_idle_and_silent_antennas(self, case, diagonal_only):
        self.check(6, diagonal_only, case)

    @pytest.mark.parametrize("diagonal_only", [False, True])
    @pytest.mark.parametrize("case", ["mixed-width", "permuted"])
    def test_hand_built_batches(self, case, diagonal_only):
        self.check(6, diagonal_only, case)

    @staticmethod
    def check(top_m, diagonal_only, case):
        # antenna 5 serves more than n_s records, so it is subsampled;
        # antenna 6 serves nobody: 40 dB down, or ("silent") 2 dB under each
        # user's best so it still wins shifts; "idle" zeroes antenna 2's load
        # while it keeps its records, so some cells compute to -0.0;
        # "mixed-width" cuts each record to 1..top_m entries, padding the
        # rest, and "permuted" shuffles the records
        topo = make_topo(6, r=80)
        rng = np.random.default_rng(17)
        att = rng.uniform(60.0, 85.0, size=(500, 6))
        att[:, 4] -= 6.0
        att[:, 5] += 40.0
        p = np.array([40.0, 41.0, 39.0, 40.5, 40.0, 42.0])
        if case == "silent":
            att[:, 5] = p[5] - (p[:5] - att[:, :5]).max(axis=1) + 2.0
        users = batch_from_attenuation(att, rng.integers(1, 4, size=500))
        cfg = AlgorithmConfig(epsilon=0.1, n_s=60, top_m=top_m)
        mr = generate_mr(users, p, top_m)
        f = busy_degrees(mr.serving(), users, topo)
        f_bar = targets(f, topo, cfg.target_mode)
        if case == "idle":
            f[1] = 0.0
        if case == "mixed-width":
            widths = rng.integers(1, top_m + 1, size=len(mr))
            mr = dataset_from_records(
                [MrRecord(mr.record(k).entries[:w]) for k, w in enumerate(widths)],
                "signal", 6, recorded_powers=p)
            assert mr.top_m == top_m and (mr.ids == 0).any()
        if case == "permuted":
            whole = replace(cfg, n_s=len(mr))
            with pytest.warns(UserWarning, match="without serving records"):
                before = estimate_jacobian(mr, p, f, f_bar, topo, whole).matrix
            order = rng.permutation(len(mr))
            mr = MrDataset(mr.ids[order], mr.values[order], "signal", 6,
                           recorded_powers=p)
            # with every record sampled, record order cannot move a bit
            with pytest.warns(UserWarning, match="without serving records"):
                after = estimate_jacobian(mr, p, f, f_bar, topo, whole).matrix
            for name in ("indptr", "indices", "data"):
                assert getattr(after, name).tobytes() == \
                    getattr(before, name).tobytes()
        with pytest.warns(UserWarning, match="without serving records"):
            got = estimate_jacobian(mr, p, f, f_bar, topo, cfg, seed=3,
                                    diagonal_only=diagonal_only)
        dense, sizes, empty = per_antenna_estimate(mr, p, f, f_bar, topo, cfg,
                                                   3, diagonal_only)
        assert empty == (6,) and sizes[4] == cfg.n_s
        if case == "idle" and not diagonal_only:
            assert (np.signbit(dense) & (dense == 0)).any()
        if case == "silent":
            assert dense[5, 5] > 0
        ref = sp.csr_matrix(dense)
        m = got.matrix
        assert m.has_sorted_indices
        assert np.array_equal(m.indptr, ref.indptr)
        assert np.array_equal(m.indices, ref.indices)
        on = np.repeat(np.arange(6), np.diff(m.indptr)) == m.indices
        assert np.array_equal(m.data[~on], ref.data[~on])
        # the down-shift row sum is an integer count divided once, where the
        # oracle adds per-entry ratios
        np.testing.assert_allclose(m.data[on], ref.data[on], rtol=1e-12, atol=0)
        assert np.array_equal(got.sample_sizes, sizes)
        assert got.empty_rows == empty


def assert_scipy_arrays(approx, ref):
    """approx's CSR arrays, and those behind its ``matrix``, are ``ref``'s
    byte for byte, index dtype included."""
    for name in ("indptr", "indices", "data"):
        want = getattr(ref, name)
        for got in (getattr(approx, name), getattr(approx.matrix, name)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


@st.composite
def square_matrices(draw):
    """Dense n x n with empty rows and columns and -0.0 cells."""
    n = draw(st.integers(0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = np.where(rng.random((n, n)) < draw(st.sampled_from([0.1, 0.5, 1.0])),
                 rng.normal(size=(n, n)), 0.0)
    a[rng.random((n, n)) < 0.15] = -0.0
    a[rng.choice(n, size=min(n, draw(st.integers(0, 2))), replace=False)] = 0.0
    a[:, rng.choice(n, size=min(n, draw(st.integers(0, 2))), replace=False)] = 0.0
    return a


@st.composite
def estimate_inputs(draw):
    """A small signal batch with ties, silent antennas, idle antennas and
    sample caps below the serving counts."""
    n = draw(st.integers(1, 7))
    users = draw(st.integers(1, 300))
    top_m = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    att = rng.uniform(60.0, 85.0, size=(users, n))
    if draw(st.booleans()):
        att = np.round(att)  # whole dB: ties among listed entries
    silent = rng.random(n) < 0.2
    att[:, silent] += 60.0
    p = rng.uniform(38.0, 42.0, size=n)
    batch = batch_from_attenuation(att, rng.integers(1, 4, size=users))
    return (make_topo(n), batch, p, top_m, draw(st.sampled_from([users, 60, 7])),
            rng.random(n) < 0.2, draw(st.booleans()), draw(st.integers(0, 9)))


class TestCsrArrays:
    @settings(max_examples=150, deadline=None)
    @given(square_matrices())
    def test_matrix_arrays_are_scipys(self, a):
        approx = approx_from_matrix(a)
        assert approx.n == len(a)
        assert_scipy_arrays(approx, sp.csr_matrix(a))
        assert np.array_equal(approx.toarray(), a)
        assert np.array_equal(approx.diagonal(), np.diag(a))

    @settings(max_examples=60, deadline=None)
    @given(estimate_inputs())
    def test_estimate_arrays_are_scipys(self, case):
        topo, users, p, top_m, n_s, idle, diagonal_only, seed = case
        cfg = AlgorithmConfig(epsilon=0.1, n_s=n_s, top_m=top_m)
        mr = generate_mr(users, p, top_m)
        f = busy_degrees(mr.serving(), users, topo)
        f_bar = targets(f, topo, cfg.target_mode)
        f[idle] = 0.0  # idle rows give -0.0 cells, which are not stored
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            approx = estimate_jacobian(mr, p, f, f_bar, topo, cfg, seed=seed,
                                       diagonal_only=diagonal_only)
        dense = approx.toarray()
        # a dense scan stores every nonzero cell, in (row, col) order
        assert_scipy_arrays(approx, sp.csr_matrix(dense))
        assert np.array_equal(approx.diagonal(), np.diag(dense))


class TestSupportGraph:
    def test_diagonal_matrix_not_connected(self):
        sg = support_graph(approx_from_matrix(np.diag([1.0, 2.0, 3.0])))
        assert not sg.strongly_connected
        assert sg.components == ((1,), (2,), (3,))

    def test_symmetric_tridiagonal_chain_connected(self):
        a = (np.diag(np.full(5, 2.0)) - np.diag(np.ones(4), 1)
             - np.diag(np.ones(4), -1))
        sg = support_graph(approx_from_matrix(a))
        assert sg.strongly_connected
        assert sg.components == ((1, 2, 3, 4, 5),)

    def test_matches_networkx_components(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(19)
        for trial in range(20):
            n = 12
            mask = rng.random((n, n)) < 0.12
            np.fill_diagonal(mask, False)
            a = np.where(mask, -1.0, 0.0)
            np.fill_diagonal(a, 1.0)
            sg = support_graph(approx_from_matrix(a))
            g = nx.DiGraph()
            g.add_nodes_from(range(1, n + 1))
            g.add_edges_from((i + 1, j + 1) for i, j in zip(*np.nonzero(mask)))
            # ascending ids, components ordered by their smallest member
            expected = tuple(sorted((tuple(sorted(c)) for c in
                                     nx.strongly_connected_components(g)),
                                    key=min))
            assert sg.components == expected
            assert sg.strongly_connected == (len(expected) == 1)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            approx_from_matrix(np.zeros((2, 3)))


class TestLaplacianCheck:
    def test_exact_laplacian_is_clean(self):
        a = np.array([[2.0, -1.0, -1.0],
                      [-1.0, 1.0, 0.0],
                      [-1.0, 0.0, 1.0]])
        rep = laplacian_check(approx_from_matrix(a), np.ones(3))
        assert rep.sign_violations == 0
        assert rep.max_row_sum_residual == 0.0
        assert rep.max_relative_residual == 0.0
        assert rep.second_smallest_singular_value > 0

    def test_positive_off_diagonal_flagged(self):
        a = np.array([[1.0, 0.5], [-1.0, 1.0]])
        rep = laplacian_check(approx_from_matrix(a), np.ones(2))
        assert rep.sign_violations == 1

    def test_negative_diagonal_flagged(self):
        a = np.array([[-1.0, 0.0], [0.0, 1.0]])
        rep = laplacian_check(approx_from_matrix(a), np.ones(2))
        assert rep.sign_violations == 1

    def test_estimated_matrix_is_near_laplacian(self):
        # one full-size scenario; acceptance sweeps ten of these
        topo, pathloss, scenario = random_bundle(
            periods=1, total_users=100000, seed=101, background=0.5)
        cfg = AlgorithmConfig(epsilon=0.02, n_s=5000, r_c=-120.0)
        users = sample_users(scenario, pathloss, topo, 1)
        p = topo.initial_powers()
        approx, f, f_bar = estimate_for(users, topo, p, cfg, seed=1)
        rep = laplacian_check(approx, f_bar)
        assert rep.sign_violations == 0
        assert rep.max_relative_residual <= 0.05
        if support_graph(approx).strongly_connected:
            assert rep.second_smallest_singular_value > 0

    def test_normalization_undone_by_f_bar(self):
        a = np.array([[1.0, -1.0], [-1.0, 1.0]])
        f_bar = np.array([0.5, 0.25])
        approx = approx_from_matrix(a / f_bar[:, None])
        rep = laplacian_check(approx, f_bar)
        np.testing.assert_allclose(rep.row_sums, [0.0, 0.0], atol=1e-15)
