"""Per-layer tracing from outside the package.

The tracer replaces each traced public function with a timing wrapper
everywhere the package holds a reference to it: every ``breathenet.*``
module attribute that is the same function object, and the two evaluator
methods on their class. Wrapping by reference keeps the trace working when
a later change moves an import. A name that no longer exists is reported as
absent, and its layer reads 0.

Spans (name, start, end, parent) stay in memory until ``write_spans``. A
span's self time is its duration minus the time its child spans cover.
Counts are taken by hooks at the same boundaries, after the span closes.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Callable


def _count_users(c, a, users):
    c["traffic.users"] += len(users)
    mb = len(users) * users.n_antennas * 8 / 2**20
    c["traffic.attenuation_mb"] = max(c["traffic.attenuation_mb"], mb)


def _count_records(c, a, ds):
    c["mrdata.records"] += len(ds)


def _count_kept(c, a, ds):
    c["mrdata.redundant_input"] += len(a["ds"])
    c["mrdata.records_kept"] += len(ds)


def _count_estimate(c, a, approx):
    c["jacobian.sampled_records"] += int(approx.sample_sizes.sum())
    c["jacobian.nnz"] += int(approx.matrix.nnz)
    c["jacobian.empty_rows"] += len(approx.empty_rows)


def _count_step(c, a, rec):
    c["balancer.fallbacks"] += int(rec.fallback)
    c["balancer.held"] += int(rec.held)


# span name -> (module, attribute path, count hook or None)
TARGETS: dict[str, tuple[str, str, Callable | None]] = {
    "traffic.sample_users": ("traffic", "sample_users", _count_users),
    "traffic.assign_users": ("traffic", "assign_users", None),
    "mrdata.generate_mr": ("mrdata", "generate_mr", _count_records),
    "mrdata.to_attenuation": ("mrdata", "to_attenuation", None),
    "mrdata.subsample": ("mrdata", "subsample", None),
    "mrdata.remove_redundant": ("mrdata", "remove_redundant", _count_kept),
    "mrdata.build_per_antenna_tables": ("mrdata", "build_per_antenna_tables", None),
    "mrdata.co_neighbours": ("mrdata", "co_neighbours", None),
    "coverage.evaluator_init": ("coverage", "ExactNeighbourhoodEvaluator.__init__", None),
    "coverage.rates": ("coverage", "ExactNeighbourhoodEvaluator.rates", None),
    "coverage.min_power_search": ("coverage", "min_power_search", None),
    "coverage.exact_coverage": ("coverage", "exact_coverage", None),
    "busy.busy_degrees": ("busy", "busy_degrees", None),
    "jacobian.estimate_jacobian": ("jacobian", "estimate_jacobian", _count_estimate),
    "jacobian.support_graph": ("jacobian", "support_graph", None),
    "balancer.step": ("balancer", "step", _count_step),
    "balancer.bdba_solve": ("balancer", "bdba_solve", None),
    "balancer.bfdba_solve": ("balancer", "bfdba_solve", None),
    "harness.run_experiment": ("harness", "run_experiment", None),
    "harness.write_results": ("harness", "write_results", None),
}

# per-layer metric -> span names whose self time it sums
SELF_TIMES = {
    "traffic.sample_users.s": ("traffic.sample_users",),
    "traffic.assign_users.s": ("traffic.assign_users",),
    "mrdata.generate_mr.s": ("mrdata.generate_mr",),
    "mrdata.remove_redundant.s": ("mrdata.remove_redundant",),
    "mrdata.prep.s": ("mrdata.to_attenuation", "mrdata.subsample",
                      "mrdata.build_per_antenna_tables"),
    "coverage.evaluator_init.s": ("coverage.evaluator_init",),
    "coverage.co_neighbours.s": ("mrdata.co_neighbours",),
    "coverage.search.s": ("coverage.min_power_search",),
    "coverage.rates.s": ("coverage.rates",),
    "coverage.exact_coverage.s": ("coverage.exact_coverage",),
    "busy.busy_degrees.s": ("busy.busy_degrees",),
    "jacobian.estimate.s": ("jacobian.estimate_jacobian",),
    "jacobian.support_graph.s": ("jacobian.support_graph",),
    "balancer.step.s": ("balancer.step",),
    "balancer.bdba_solve.s": ("balancer.bdba_solve",),
    "balancer.bfdba_solve.s": ("balancer.bfdba_solve",),
    "harness.run_experiment.self_s": ("harness.run_experiment",),
    "harness.write_results.s": ("harness.write_results",),
}

CALLS = {
    "traffic.sample_users.calls": "traffic.sample_users",
    "traffic.assign_users.calls": "traffic.assign_users",
}

COUNTS = ("traffic.users", "mrdata.records",
          "mrdata.records_kept", "jacobian.sampled_records", "jacobian.nnz",
          "jacobian.empty_rows", "balancer.fallbacks", "balancer.held")


def unit(metric: str) -> str:
    if metric.endswith((".s", ".self_s")):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


class Tracer:
    """Spans and counts of the traced calls; ``install`` patches the package,
    ``uninstall`` puts every original back."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.observers: defaultdict[str, list[Callable]] = defaultdict(list)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def observe(self, name: str, fn: Callable) -> None:
        """Call ``fn(arguments, result)`` after every call of span ``name``;
        ``arguments`` maps parameter names to the values passed."""
        self.observers[name].append(fn)

    def _wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        sig = inspect.signature(fn)
        spans, stack, counts = self.spans, self._stack, self.counts
        observers = self.observers[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            if hook is not None or observers:
                bound = sig.bind(*args, **kwargs).arguments
                if hook is not None:
                    hook(counts, bound, result)
                for obs in observers:
                    obs(bound, result)
            return result

        return traced

    def install(self) -> None:
        for name, (mod, path, hook) in TARGETS.items():
            module = sys.modules.get(f"breathenet.{mod}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = (owner.__dict__.get(attr) if isinstance(owner, type)
                        else getattr(owner, attr, None))
            if not callable(original):
                self.absent.append(name)
                continue
            traced = self._wrap(name, original, hook)
            if isinstance(owner, type):
                self._set(owner, attr, traced)
                continue
            for modname, m in list(sys.modules.items()):
                if modname == "breathenet" or modname.startswith("breathenet."):
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, key, traced)

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: defaultdict[str, float] = defaultdict(float)
        for k, (name, t0, t1, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[k]
        return out

    def root_seconds(self) -> float:
        return sum(t1 - t0 for _, t0, t1, parent in self.spans if parent < 0)

    def per_layer(self, rounds: int) -> dict[str, float]:
        """Every per-layer metric, per round of the workload."""
        own = self.self_times()
        calls: defaultdict[str, int] = defaultdict(int)
        search_rounds = 0
        for name, _, _, parent in self.spans:
            calls[name] += 1
            if (name == "coverage.rates" and parent >= 0
                    and self.spans[parent][0] == "coverage.min_power_search"):
                search_rounds += 1
        metrics = {m: sum(own.get(s, 0.0) for s in names) / rounds
                   for m, names in SELF_TIMES.items()}
        metrics.update({m: calls[s] / rounds for m, s in CALLS.items()})
        metrics.update({m: self.counts[m] / rounds for m in COUNTS})
        # the largest single matrix, not a per-round sum
        metrics["traffic.attenuation_mb"] = self.counts["traffic.attenuation_mb"]
        fed = self.counts["mrdata.redundant_input"]
        metrics["mrdata.kept_ratio"] = self.counts["mrdata.records_kept"] / fed if fed else 0.0
        metrics["coverage.search.rounds"] = search_rounds / rounds
        return metrics

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent}) + "\n")
