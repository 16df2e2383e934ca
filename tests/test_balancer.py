"""Adjustment solvers and the per-period balancing step with its clamp."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from breathenet import balancer
from breathenet.balancer import (
    SingularJacobian,
    _zero_sum_basis,
    bdba_solve,
    bfdba_solve,
    save_steps_jsonl,
    step,
)
from breathenet.busy import BusyState, busy_degrees, disagreement, targets
from breathenet.coverage import ExactNeighbourhoodEvaluator, InfeasibleCoverage
from breathenet.jacobian import approx_from_matrix, estimate_jacobian, support_graph
from breathenet.model import AlgorithmConfig, Antenna, NetworkTopology
from breathenet.mrdata import generate_mr, to_attenuation
from breathenet.traffic import UserBatch


def make_topo(n, r=100, p=40.0, p_max=49.0):
    ants = tuple(Antenna(id=i, p=p, p_max=p_max, r=r) for i in range(1, n + 1))
    neigh = tuple(frozenset(set(range(1, n + 1)) - {i}) for i in range(1, n + 1))
    return NetworkTopology(ants, neigh)


def batch_from_attenuation(att):
    att = np.asarray(att, dtype=float)
    return UserBatch(np.zeros((len(att), 2)), att,
                     np.ones(len(att), dtype=np.int64), period=1)


def random_near_laplacian(rng, n, noise=0.01, connect=False):
    mask = np.triu(rng.random((n, n)) < 0.35, k=1)
    if connect:
        mask[np.arange(n - 1), np.arange(1, n)] = True
    w = np.where(mask, rng.uniform(0.2, 1.0, size=(n, n)), 0.0)
    w = w + w.T
    lap = np.diag(w.sum(axis=1)) - w
    return lap + noise * rng.standard_normal((n, n))


def loop_zero_sum_basis(n):
    """Helmert basis one column at a time: 1 above row k, -k at row k, each
    column divided by sqrt(k (k + 1))."""
    basis = np.zeros((n, n - 1))
    for k in range(1, n):
        basis[:k, k - 1] = 1.0
        basis[k, k - 1] = -float(k)
        basis[:, k - 1] /= np.sqrt(k * (k + 1.0))
    return basis


def svd_rank(a):
    """Rank of the estimate on the zero-sum subspace, by the dense solver's
    rule: singular values above 1e-10 * n * sigma_max."""
    n = len(a)
    sigma = np.linalg.svd(a @ loop_zero_sum_basis(n), full_matrices=False)[1]
    return int((sigma > 1e-10 * n * (sigma[0] if len(sigma) else 0.0)).sum())


PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)


@st.composite
def estimates_with_empty_lines(draw):
    """Near-Laplacian or random sparse matrices, n in 2..8, with 0-3 rows and
    0-3 columns zeroed, and a disagreement vector."""
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        a = random_near_laplacian(rng, n, noise=draw(st.sampled_from([0.0, 0.01])),
                                  connect=draw(st.booleans()))
    else:
        a = np.where(rng.random((n, n)) < draw(st.sampled_from([0.2, 0.5, 0.9])),
                     rng.uniform(-1.0, 1.0, size=(n, n)), 0.0)
    a[rng.choice(n, size=min(n, draw(st.integers(0, 3))), replace=False), :] = 0.0
    a[:, rng.choice(n, size=min(n, draw(st.integers(0, 3))), replace=False)] = 0.0
    return a, rng.standard_normal(n)


class TestZeroSumBasis:
    def test_orthonormal_and_orthogonal_to_ones(self):
        for n in (2, 5, 9):
            basis = _zero_sum_basis(n)
            assert basis.shape == (n, n - 1)
            np.testing.assert_allclose(basis.T @ basis, np.eye(n - 1),
                                       atol=1e-12)
            np.testing.assert_allclose(np.ones(n) @ basis, 0.0, atol=1e-12)

    def test_equals_the_column_loop(self):
        for n in (2, 3, 50):
            assert np.array_equal(_zero_sum_basis(n), loop_zero_sum_basis(n))


class TestPseudoinverseSolve:
    def test_analytic_two_by_two(self):
        approx = approx_from_matrix([[1.0, -1.0], [-1.0, 1.0]])
        u, diag = bdba_solve(approx, np.array([0.2, -0.2]))
        np.testing.assert_allclose(u, [0.1, -0.1], atol=1e-12)
        assert diag["method"] == "svd"

    def test_zero_disagreement_is_fixed_point(self):
        approx = approx_from_matrix([[1.0, -1.0], [-1.0, 1.0]])
        u, _ = bdba_solve(approx, np.zeros(2))
        np.testing.assert_allclose(u, [0.0, 0.0], atol=1e-15)

    def test_returns_the_zero_sum_representative(self):
        rng = np.random.default_rng(40)
        a = random_near_laplacian(rng, 7)
        d = rng.standard_normal(7)
        u, _ = bdba_solve(approx_from_matrix(a), d)
        assert abs(u.sum()) <= 1e-9 * max(1.0, np.abs(u).sum())
        # shifting along the all-ones direction cannot improve an exact
        # Laplacian's residual; here it only moves the solution off zero sum
        lap = random_near_laplacian(rng, 7, noise=0.0, connect=True)
        u0, _ = bdba_solve(approx_from_matrix(lap), d)
        base = np.linalg.norm(lap @ u0 - d)
        for c in (-2.0, 0.5, 3.0):
            shifted = np.linalg.norm(lap @ (u0 + c * np.ones(7)) - d)
            assert shifted == pytest.approx(base, abs=1e-9)

    def test_matches_dense_least_squares_oracle(self):
        rng = np.random.default_rng(41)
        cutoff = 0.05
        for _ in range(10):
            a = random_near_laplacian(rng, 10)
            d = rng.standard_normal(10)
            u, _ = bdba_solve(approx_from_matrix(a), d, cutoff=cutoff)
            basis = _zero_sum_basis(10)
            w, *_ = np.linalg.lstsq(a @ basis, d, rcond=cutoff)
            u_ref = basis @ w
            assert np.linalg.norm(a @ u - d) == pytest.approx(
                np.linalg.norm(a @ u_ref - d), abs=1e-8)
            np.testing.assert_allclose(u, u_ref, atol=1e-8)

    def test_residual_optimal_among_zero_sum_vectors(self):
        rng = np.random.default_rng(42)
        a = random_near_laplacian(rng, 8)
        d = rng.standard_normal(8)
        u, _ = bdba_solve(approx_from_matrix(a), d, cutoff=0.0)
        base = np.linalg.norm(a @ u - d)
        for _ in range(100):
            v = rng.standard_normal(8)
            v -= v.mean()
            assert np.linalg.norm(a @ (u + 0.1 * v) - d) >= base - 1e-12

    def test_disconnected_support_raises(self):
        block = np.array([[1.0, -1.0, 0.0, 0.0],
                          [-1.0, 1.0, 0.0, 0.0],
                          [0.0, 0.0, 1.0, -1.0],
                          [0.0, 0.0, -1.0, 1.0]])
        with pytest.raises(SingularJacobian) as exc:
            bdba_solve(approx_from_matrix(block), np.array([0.1, -0.1, 0.2, -0.2]))
        assert exc.value.components == ((1, 2), (3, 4))

    def test_components_are_found_on_first_access(self, monkeypatch):
        block = np.kron(np.eye(2), [[1.0, -1.0], [-1.0, 1.0]])
        calls = []

        def counted(approx):
            calls.append(approx)
            return support_graph(approx)

        monkeypatch.setattr(balancer, "support_graph", counted)
        with pytest.raises(SingularJacobian) as exc:
            bdba_solve(approx_from_matrix(block), np.zeros(4))
        assert calls == []
        assert exc.value.components == ((1, 2), (3, 4))
        assert "2 components" in str(exc.value)
        assert len(calls) == 1

    def test_single_antenna_trivial(self):
        u, diag = bdba_solve(approx_from_matrix([[0.0]]), np.array([0.4]))
        np.testing.assert_array_equal(u, [0.0])
        assert diag["method"] == "trivial"

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bdba_solve(approx_from_matrix(np.eye(2)), np.zeros(3))

    def test_two_empty_rows_rejected_before_the_svd(self, monkeypatch):
        a = random_near_laplacian(np.random.default_rng(44), 6, connect=True)
        a[[1, 4], :] = 0.0

        def no_svd(*args, **kwargs):
            raise AssertionError("SVD reached")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        with pytest.raises(SingularJacobian):
            bdba_solve(approx_from_matrix(a), np.zeros(6))

    @PROPERTY
    @given(estimates_with_empty_lines())
    def test_raises_exactly_when_the_svd_rank_is_short(self, case):
        a, d = case
        n = len(a)
        approx = approx_from_matrix(a)
        if svd_rank(a) < n - 1:
            with pytest.raises(SingularJacobian) as exc:
                bdba_solve(approx, d)
            assert exc.value.components == support_graph(approx).components
        else:
            u, _ = bdba_solve(approx, d)
            assert abs(u.sum()) <= 1e-9 * np.abs(u).sum()


class TestFastSolve:
    def test_plain_division_when_tau_zero(self):
        approx = approx_from_matrix(np.diag([2.0, 2.0]))
        u, _ = bfdba_solve(approx, np.array([0.2, -0.2]), np.array([30.0, 30.0]),
                           tau=0.0)
        np.testing.assert_allclose(u, [0.1, -0.1], atol=1e-15)

    def test_zero_offset_disagreement_is_fixed_point(self):
        approx = approx_from_matrix(np.diag([2.0, 3.0]))
        p = np.array([30.0, 40.0])
        tau = 0.01
        u, _ = bfdba_solve(approx, tau * p, p, tau=tau)
        np.testing.assert_allclose(u, [0.0, 0.0], atol=1e-15)

    def test_power_decay_term(self):
        approx = approx_from_matrix(np.diag([2.0, 2.0]))
        u, _ = bfdba_solve(approx, np.array([0.2, -0.2]), np.array([30.0, 30.0]),
                           tau=0.01)
        np.testing.assert_allclose(u, [-0.05, -0.25], atol=1e-15)

    def test_non_positive_diagonal_holds(self):
        approx = approx_from_matrix(np.diag([2.0, 0.0, -1.0]))
        u, diag = bfdba_solve(approx, np.ones(3), np.full(3, 40.0), tau=0.01)
        np.testing.assert_array_equal(u, np.zeros(3))
        assert diag == {"method": "hold", "degenerate": [2, 3]}

    @PROPERTY
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1),
           st.floats(0.0, 0.05), st.floats(0.0, 1.0))
    def test_divides_or_holds(self, n, seed, tau, bad_share):
        # the diagonal alone decides: off-diagonal entries are noise here
        rng = np.random.default_rng(seed)
        diag = rng.choice([-1.0, 0.0, 1.0], size=n,
                          p=[bad_share / 2, bad_share / 2, 1 - bad_share])
        diag *= rng.uniform(0.01, 5.0, size=n)
        a = rng.standard_normal((n, n))
        np.fill_diagonal(a, diag)
        d = rng.uniform(-1.0, 1.0, size=n)
        p = rng.uniform(0.0, 50.0, size=n)
        u, info = bfdba_solve(approx_from_matrix(a), d, p, tau)
        if (diag > 0).all():
            assert np.array_equal(u, (d - tau * p) / diag)
            assert info["method"] == "diagonal"
        else:
            np.testing.assert_array_equal(u, np.zeros(n))
            assert info["method"] == "hold"
            assert info["degenerate"] == [i + 1 for i in range(n)
                                          if diag[i] <= 0]


def step_inputs(att, r=100, r_c=-120.0, period=1, p_max=49.0, **cfg_kw):
    """A step's arguments on a batch recorded at the initial powers (40 dBm),
    with the period's busy state counted on its serving antennas."""
    topo = make_topo(np.asarray(att).shape[1], r=r, p_max=p_max)
    users = batch_from_attenuation(att)
    p = topo.initial_powers()
    mr = generate_mr(users, p, 6)
    cov = to_attenuation(mr, p)
    cfg = AlgorithmConfig(r_c=r_c, **cfg_kw)
    evaluator = ExactNeighbourhoodEvaluator(cov, cfg.r_c)
    f = busy_degrees(mr.serving(), users, topo)
    f_bar = targets(f, topo, cfg.target_mode)
    state = BusyState(period=period, f=f, f_bar=f_bar, d=disagreement(f, f_bar))
    return topo, p, state, mr, evaluator, cfg


class TestStep:
    def test_balanced_network_stays_put(self):
        att = np.array([[70.0, 72.0]] * 50 + [[72.0, 70.0]] * 50)
        topo, p, state, mr, evaluator, cfg = step_inputs(att)
        rec = step(topo, p, state, mr, evaluator, cfg, "bdba")
        np.testing.assert_allclose(rec.u, [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(rec.p_next, p, atol=1e-12)
        assert rec.period == 1

    def test_adjustment_drains_the_busy_antenna(self):
        att = np.array([[70.0, 72.0]] * 80 + [[72.0, 70.0]] * 20)
        topo, p, state, mr, evaluator, cfg = step_inputs(att)
        rec = step(topo, p, state, mr, evaluator, cfg, "bdba")
        assert rec.u[0] < 0 < rec.u[1]

    @pytest.mark.parametrize("algorithm", ["bdba", "bfdba"])
    def test_solves_the_estimate_of_its_busy_state(self, algorithm):
        # half of antenna 1's records switch, so the estimate depends on f
        att = np.array([[70.0, 70.2]] * 30 + [[70.0, 90.0]] * 30
                       + [[70.2, 70.0]] * 20)
        topo, p, state, mr, evaluator, cfg = step_inputs(att)
        rec = step(topo, p, state, mr, evaluator, cfg, algorithm, seed=5)
        approx = estimate_jacobian(mr, p, state.f, state.f_bar, topo, cfg,
                                   seed=5, diagonal_only=(algorithm == "bfdba"))
        u = (bdba_solve(approx, state.d, cfg.svd_cutoff)[0]
             if algorithm == "bdba" else bfdba_solve(approx, state.d, p, cfg.tau)[0])
        np.testing.assert_array_equal(rec.u, u)

    def test_degenerate_estimate_holds_powers(self):
        # runner-up 30 dB behind: no record can flip, the matrix is zero
        att = np.array([[60.0, 90.0]] * 30 + [[90.0, 60.0]] * 30)
        topo, p, state, mr, evaluator, cfg = step_inputs(att)
        with pytest.warns(UserWarning):
            rec = step(topo, p, state, mr, evaluator, cfg, "bfdba")
        assert rec.held
        np.testing.assert_array_equal(rec.p_next, p)
        np.testing.assert_array_equal(rec.u, np.zeros(2))

    def test_singular_estimate_falls_back_to_diagonal(self):
        # flips exist within each pair but the pairs never interact
        att = np.array([[70.0, 72.0, 95.0, 95.0]] * 25
                       + [[72.0, 70.0, 95.0, 95.0]] * 25
                       + [[95.0, 95.0, 70.0, 72.0]] * 25
                       + [[95.0, 95.0, 72.0, 70.0]] * 25)
        topo, p, state, mr, evaluator, cfg = step_inputs(att)
        with pytest.warns(UserWarning, match="falling back"):
            rec = step(topo, p, state, mr, evaluator, cfg, "bdba")
        assert rec.fallback
        assert rec.algorithm == "bfdba"

    def test_infeasible_coverage_names_the_period(self):
        att = np.array([[70.0, 72.0]] * 50 + [[72.0, 70.0]] * 50)
        topo, p, state, mr, evaluator, cfg = step_inputs(att, r_c=-10.0,
                                                         period=3)
        with pytest.raises(InfeasibleCoverage, match="period 3"):
            step(topo, p, state, mr, evaluator, cfg, "bdba")

    def test_unknown_algorithm_rejected(self):
        att = np.array([[70.0, 72.0]] * 10)
        topo, p, state, mr, evaluator, cfg = step_inputs(att)
        with pytest.raises(ValueError):
            step(topo, p, state, mr, evaluator, cfg, "newton")

    def test_batch_recorded_at_other_powers_rejected(self):
        # the serving antennas of a batch are the assignment only at the
        # powers it was recorded at
        att = np.array([[70.0, 72.0]] * 50 + [[72.0, 70.0]] * 50)
        topo, p, state, mr, evaluator, cfg = step_inputs(att)
        with pytest.raises(ValueError, match="recorded"):
            step(topo, p + np.array([3.0, 0.0]), state, mr, evaluator, cfg,
                 "bdba")
        mr.recorded_powers = None
        with pytest.raises(ValueError, match="recorded"):
            step(topo, p, state, mr, evaluator, cfg, "bfdba")

    def test_coverage_floor_enters_the_clamp(self):
        # reach at the start powers is 69.5 dB, below every entry, so the
        # search has to raise somebody
        att = np.array([[70.0, 72.0]] * 50 + [[72.0, 70.0]] * 50)
        topo, p, state, mr, evaluator, cfg = step_inputs(att, r_c=-29.5)
        rec = step(topo, p, state, mr, evaluator, cfg, "bdba")
        assert (rec.p_next >= p).all() and (rec.p_next > p).any()
        rates = evaluator.rates(rec.p_next)
        assert (rates >= cfg.f_con).all()

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.floats(0.01, 1.0),
           st.floats(40.0, 46.0), st.floats(0.0, 1.0),
           st.sampled_from(["bdba", "bfdba"]))
    def test_next_powers_stay_in_the_clamp_box(self, n, seed, gamma, p_max,
                                               reach, algorithm):
        # r_c runs up to the weakest user's best strength at p_max, so the
        # floor is always feasible and often binds; a ceiling near the
        # 40 dBm start makes it bind too
        rng = np.random.default_rng(seed)
        att = rng.uniform(60.0, 80.0, size=(int(rng.integers(5, 40)), n))
        r_c = -60.0 + reach * (p_max - att.min(axis=1).max() + 60.0)
        topo, p, state, mr, evaluator, cfg = step_inputs(
            att, r_c=r_c, p_max=p_max, gamma=gamma)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # fallback and hold
            rec = step(topo, p, state, mr, evaluator, cfg, algorithm)
        star = p + gamma * rec.u
        p_max = topo.p_max_vector()
        lower = np.minimum(star, p_max)
        assert (lower <= rec.p_next).all() and (rec.p_next <= p_max).all()
        flags = np.array(rec.clamp_flags)
        np.testing.assert_array_equal(rec.p_next[flags != "hit_min"],
                                      lower[flags != "hit_min"])
        np.testing.assert_array_equal(flags == "hit_min", rec.p_next > star)
        np.testing.assert_array_equal(flags == "hit_max", star > p_max)
        assert (evaluator.rates(rec.p_next) >= cfg.f_con).all()


def test_steps_jsonl_round_trip(tmp_path):
    att = np.array([[70.0, 72.0]] * 40 + [[72.0, 70.0]] * 60)
    topo, p, state, mr, evaluator, cfg = step_inputs(att)
    rec = step(topo, p, state, mr, evaluator, cfg, "bdba")
    path = tmp_path / "steps.jsonl"
    save_steps_jsonl([rec], path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1
    loaded = json.loads(lines[0])
    assert loaded["period"] == 1
    assert loaded["algorithm"] == "bdba"
    np.testing.assert_allclose(loaded["u"], rec.u)
    np.testing.assert_allclose(loaded["p_next"], rec.p_next)
