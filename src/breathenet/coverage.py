"""Coverage evaluation and the coverage-constrained minimum-power floor.

A deduplicated attenuation batch is the working representation: record l is
covered under powers p iff some listed antenna i has attenuation
a <= p_i - r_c, i.e. its received pilot clears the threshold r_c. Because
attenuation is power-independent, one batch answers coverage queries for any
hypothetical power vector, which is what the minimum-power search exploits.

The monotone surrogate is a small fully-connected net whose effective
weights are squares of the stored parameters, making the output provably
non-decreasing in every input power. The loop never uses it: it prices
coverage with the exact kernel, and the surrogate is kept for acceptance
criterion c09, which fits it to exact-kernel labels.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import NetworkTopology
from .mrdata import MrDataset, co_neighbours


class InfeasibleCoverage(RuntimeError):
    """The coverage requirement cannot be met within rated powers."""

    def __init__(self, antennas, reason: str):
        self.antennas = tuple(int(a) for a in antennas)
        self.reason = reason
        super().__init__(f"{reason} (antennas {self.antennas})")


@dataclass(frozen=True)
class CoverageReport:
    F: float
    uncovered_count: int
    k_prime: int


def _require_attenuation(ds: MrDataset) -> None:
    if ds.domain != "attenuation":
        raise ValueError("coverage needs an attenuation-domain batch")


def covered(ds: MrDataset, powers: np.ndarray, r_c: float) -> np.ndarray:
    """Per record: some listed antenna i has attenuation <= p_i - r_c."""
    # the cut by 1-based id, NaN at the padding id 0, so padding never covers
    cut = np.concatenate(([np.nan], powers - r_c))
    return (ds.values <= cut[ds.ids]).any(axis=1)


def exact_coverage(ds: MrDataset, powers: np.ndarray, r_c: float) -> CoverageReport:
    """Network coverage rate F = 1 - uncovered / K' over the whole batch.

    An empty batch counts as fully covered (with a warning).
    """
    _require_attenuation(ds)
    powers = np.asarray(powers, dtype=float)
    if powers.shape != (ds.n_antennas,):
        raise ValueError("power vector length does not match antenna count")
    k_prime = len(ds)
    if k_prime == 0:
        warnings.warn("coverage requested for an empty batch; reporting 1.0")
        return CoverageReport(F=1.0, uncovered_count=0, k_prime=0)
    uncovered = int(k_prime - covered(ds, powers, r_c).sum())
    return CoverageReport(F=1.0 - uncovered / k_prime,
                          uncovered_count=uncovered, k_prime=k_prime)


class ExactNeighbourhoodEvaluator:
    """Per-antenna neighbourhood rates from one batch, fast to re-query.

    The neighbourhood of antenna i is judged on the records listing i: its
    rate is the covered share of them. Their coverers are their own listed
    antennas, so an uncovered record drags down the rate of every antenna it
    lists, and whichever of them is best placed to cover it is itself
    failing, hence raisable by the minimum-power search. Antennas mentioned
    by no record report 1.0.

    Built once per period; ``rates(powers)`` prices every neighbourhood in
    one ``covered`` pass and one ``bincount`` over the (record, antenna)
    mentions.
    """

    def __init__(self, ds: MrDataset, r_c: float):
        _require_attenuation(ds)
        self.ds = ds
        self.r_c = r_c
        self.n = ds.n_antennas
        self.neighbours = co_neighbours(ds)
        rows, cols = np.nonzero(ds.entry_mask())
        self._rows = rows
        self._aid = ds.ids[rows, cols].astype(np.int64) - 1
        self._seen = np.bincount(self._aid, minlength=self.n)

    def rates(self, powers: np.ndarray) -> np.ndarray:
        powers = np.asarray(powers, dtype=float)
        flags = covered(self.ds, powers, self.r_c)[self._rows]
        hits = np.bincount(self._aid, weights=flags, minlength=self.n)
        # the sums are exact small integers, so each rate is one rounding
        return np.where(self._seen > 0, hits / np.maximum(self._seen, 1), 1.0)


@dataclass(frozen=True)
class FailGraph:
    """Antennas failing the coverage requirement, linked when neighbours."""

    vertices: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]


def build_fail_graph(rates: np.ndarray, f_con: float,
                     neighbours: list[set[int]]) -> FailGraph:
    failing = [i + 1 for i in range(len(rates)) if rates[i] < f_con]
    fail_set = set(failing)
    components = []
    seen: set[int] = set()
    for start in failing:
        if start in seen:
            continue
        comp = []
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in neighbours[v - 1]:
                if w in fail_set and w not in seen:
                    seen.add(w)
                    stack.append(w)
        components.append(tuple(sorted(comp)))
    return FailGraph(tuple(failing), tuple(components))


def min_power_search(powers: np.ndarray, topo: NetworkTopology, evaluator,
                     f_con: float, delta_p: float) -> np.ndarray:
    """Smallest per-antenna powers (>= the given start) meeting the coverage
    requirement in every neighbourhood.

    Per round, each connected component of failing antennas has its
    minimum-rate member still below rated power raised by delta_p (ties by
    lowest id). When every member is pinned at p_max, the minimum-rate
    co-listed neighbour of the component still below rated power is raised
    instead: its reach can cover the component's uncovered records. Raises
    InfeasibleCoverage when no such neighbour exists either. Rounds are
    bounded by sum_i ceil((p_max_i - start_i) / delta_p).
    """
    p = np.asarray(powers, dtype=float).copy()
    p_max = topo.p_max_vector()
    if p.shape != p_max.shape:
        raise ValueError("power vector length does not match antenna count")
    if (p > p_max).any():
        raise ValueError("search start above rated power")
    bound = int(np.ceil(np.maximum(p_max - p, 0.0) / delta_p).sum())
    for _ in range(bound + 1):
        rates = evaluator.rates(p)
        graph = build_fail_graph(rates, f_con, evaluator.neighbours)
        if not graph.vertices:
            return p
        raise_ids = set()
        for comp in graph.components:
            open_members = [a for a in comp if p[a - 1] < p_max[a - 1]]
            if not open_members:
                # every member is at p_max; a co-listed neighbour below it
                # can still reach the records the members fail on
                listed = set().union(*(evaluator.neighbours[b - 1] for b in comp))
                open_members = [a for a in listed if p[a - 1] < p_max[a - 1]]
            if not open_members:
                raise InfeasibleCoverage(
                    comp, "component still failing with all members and "
                    "co-listed neighbours at rated power")
            raise_ids.add(min(open_members, key=lambda a: (rates[a - 1], a)))
        # two components can pick the same neighbour; it moves one step
        for a in raise_ids:
            p[a - 1] = min(p[a - 1] + delta_p, p_max[a - 1])
    graph = build_fail_graph(evaluator.rates(p), f_con, evaluator.neighbours)
    if graph.vertices:
        raise InfeasibleCoverage(graph.vertices, "round bound exhausted")
    return p


# ---------------------------------------------------------------------------
# monotone surrogate


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp of a non-positive argument never overflows: 1 / (1 + e^-z) for
    # z >= 0 and e^z / (1 + e^z) below, without masked copies
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


@dataclass
class MonotoneMlp:
    """Coverage surrogate, non-decreasing in every input by construction.

    Effective weights are the squares of the stored parameters ``omegas`` and
    hidden activations are logistic, so every path from input to output is a
    composition of non-decreasing maps. Inputs are powers normalized with the
    training bounds; the network output is linear and is not clipped.
    """

    omegas: list[np.ndarray]
    biases: list[np.ndarray]
    input_min: np.ndarray
    input_max: np.ndarray
    training_mse: float

    @property
    def sizes(self) -> tuple[int, ...]:
        return (self.omegas[0].shape[1],) + tuple(w.shape[0] for w in self.omegas)

    def forward01(self, x01: np.ndarray) -> np.ndarray:
        h = np.atleast_2d(np.asarray(x01, dtype=float))
        last = len(self.omegas) - 1
        for layer, (w, b) in enumerate(zip(self.omegas, self.biases)):
            z = h @ (w * w).T + b
            h = z if layer == last else _sigmoid(z)
        return h[:, 0]

    def predict(self, powers: np.ndarray) -> np.ndarray:
        """Evaluate at raw power vectors (dBm), normalizing with the training
        bounds; warns (but still evaluates) outside the trained box."""
        x = np.atleast_2d(np.asarray(powers, dtype=float))
        if x.shape[1] != len(self.input_min):
            raise ValueError(f"expected {len(self.input_min)} member powers, "
                             f"got {x.shape[1]}")
        span = self.input_max - self.input_min
        x01 = (x - self.input_min) / span
        if (x01 < 0).any() or (x01 > 1).any():
            warnings.warn("surrogate queried outside its training power box")
        return self.forward01(x01)


def default_hidden_sizes(d: int) -> tuple[int, int, int]:
    """Three hidden layers sized to the neighbourhood: (4d, 2d, d)."""
    return (4 * d, 2 * d, d)


# per-parameter step bounds for resilient backprop; inputs are normalized to
# [0, 1] so a unit step already crosses the whole box
STEP_MIN = 1e-9
STEP_MAX = 1.0


def train_surrogate(x: np.ndarray, y: np.ndarray,
                    hidden_sizes: tuple[int, ...] | None = None,
                    epochs: int = 4000, lr: float = 0.02, seed: int = 0,
                    input_min: np.ndarray | None = None,
                    input_max: np.ndarray | None = None) -> MonotoneMlp:
    """Fit the monotone net to (power vector, coverage rate) samples by
    full-batch resilient backpropagation on the mean squared error.

    Gradients flow through the squaring, d(w^2)/dw = 2w. Each parameter keeps
    its own step size, grown 1.2x while the gradient sign holds and halved on
    a flip with the update skipped for that epoch (the iRprop- rule), so the
    loss settles within an epoch or two of any overshoot. lr sets the initial
    step. Training aborts with a RuntimeError when the MSE rises or goes
    non-finite for 10 consecutive epochs; the step adaptation recovers from
    any finite overshoot, so a streak that long means the loss surface itself
    is poisoned (non-finite inputs). Deterministic for a fixed seed. Requires
    at least 100 samples and targets inside [0, 1].
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if x.ndim != 2 or len(x) != len(y):
        raise ValueError("x must be (N, d) with matching targets")
    if len(x) < 100:
        raise ValueError(f"need at least 100 training samples, got {len(x)}")
    if (y < 0).any() or (y > 1).any():
        raise ValueError("coverage targets must lie in [0, 1]")
    d = x.shape[1]
    lo = x.min(axis=0) if input_min is None else np.asarray(input_min, float)
    hi = x.max(axis=0) if input_max is None else np.asarray(input_max, float)
    if ((hi - lo) <= 0).any():
        raise ValueError("degenerate normalization bounds")
    x01 = (x - lo) / (hi - lo)

    sizes = (d,) + tuple(hidden_sizes if hidden_sizes is not None
                         else default_hidden_sizes(d)) + (1,)
    rng = np.random.default_rng(seed)
    omegas = [rng.normal(0.0, 0.5 / np.sqrt(sizes[l]), size=(sizes[l + 1], sizes[l]))
              for l in range(len(sizes) - 1)]
    biases = [rng.normal(0.0, 0.1, size=sizes[l + 1]) for l in range(len(sizes) - 1)]
    biases[-1][:] = y.mean()

    params = omegas + biases
    steps = [np.full_like(p, lr) for p in params]
    prev_grad = [np.zeros_like(p) for p in params]
    n_samples = len(x01)
    last = len(omegas) - 1

    mse = np.inf
    best = np.inf
    rising = 0
    for epoch in range(1, epochs + 1):
        acts = [x01]
        h = x01
        for layer in range(last + 1):
            z = h @ (omegas[layer] ** 2).T + biases[layer]
            h = z if layer == last else _sigmoid(z)
            acts.append(h)
        pred = acts[-1][:, 0]
        new_mse = float(np.mean((pred - y) ** 2))
        # a non-finite loss can never improve, so it counts as a rise
        if not np.isfinite(new_mse) or new_mse > mse:
            rising += 1
            if rising >= 10:
                raise RuntimeError(
                    f"surrogate training diverged at epoch {epoch}: "
                    f"mse rose 10 epochs straight to {new_mse:.3e} "
                    f"(best was {best:.3e})")
        else:
            rising = 0
        mse = new_mse
        best = min(best, new_mse)

        grads: list = [None] * len(params)
        delta = (2.0 / n_samples) * (pred - y)[:, None]
        for layer in range(last, -1, -1):
            h_in = acts[layer]
            grads[layer] = (delta.T @ h_in) * 2.0 * omegas[layer]
            grads[last + 1 + layer] = delta.sum(axis=0)
            if layer > 0:
                back = delta @ (omegas[layer] ** 2)
                delta = back * h_in * (1.0 - h_in)
        for param, g, st, pg in zip(params, grads, steps, prev_grad):
            same = pg * g > 0
            flip = pg * g < 0
            st[same] = np.minimum(st[same] * 1.2, STEP_MAX)
            st[flip] = np.maximum(st[flip] * 0.5, STEP_MIN)
            g = g.copy()
            g[flip] = 0.0
            param -= np.sign(g) * st
            pg[:] = g

    mlp = MonotoneMlp(omegas=omegas, biases=biases, input_min=lo, input_max=hi,
                      training_mse=0.0)
    # recorded MSE belongs to the returned parameters, not the epoch before
    mlp.training_mse = float(np.mean((mlp.forward01(x01) - y) ** 2))
    return mlp
