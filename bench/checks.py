"""Output checks on results directories written by ``run_experiment``.

Every check either recomputes a quantity apart from the code under test
(plain numpy on the files, the spec and the topology) or tests a property the
method must have. Each returns ``Check`` records; the self-tests in
``selftest.py`` show that each rejects a deliberately broken directory.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BALANCING = ("bdba", "bfdba")
# c11's bound: each balancer cuts mean std_busy and the mean over-busy share
# by at least this much against the static baseline
CLAIM_CUT_PCT = 30.0


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def read_metrics(run_dir) -> dict[str, np.ndarray]:
    with open(Path(run_dir) / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: np.array([float(r[key]) for r in rows]) for key in
            (rows[0].keys() if rows else ())}


def read_steps(run_dir) -> list[dict]:
    with open(Path(run_dir) / "steps.jsonl") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_busy(run_dir) -> list[dict]:
    with open(Path(run_dir) / "busy.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def check_run(run_dir, spec) -> list[Check]:
    """Checks of one run against its spec."""
    run_dir = Path(run_dir)
    m = read_metrics(run_dir)
    steps = read_steps(run_dir)
    done = len(m.get("period", ()))
    checks = [Check("periods-complete", done == spec.periods,
                    f"{spec.algorithm}: {done} of {spec.periods} periods")]
    checks.append(_served_once(run_dir, spec))
    f = m.get("coverage", np.ones(0))
    floor_ok = bool(len(f)) and float(f.min()) >= spec.cfg.f_con
    checks.append(Check("coverage-floor", floor_ok,
                        f"{spec.algorithm}: min F {f.min() if len(f) else 'n/a'} "
                        f"(floor {spec.cfg.f_con})"))
    if spec.algorithm == "none":
        moved = len(steps) != 0 or bool(np.any(m.get("step_seconds", 0.0) != 0.0))
        checks.append(Check("static-baseline", not moved,
                            f"none: {len(steps)} steps written"))
        return checks
    checks.append(_clamp_box(steps, spec))
    if spec.algorithm == "bdba":
        checks.append(_zero_sum(steps))
    return checks


def _served_once(run_dir, spec) -> Check:
    """sum_i f_i * r_i equals the period's user count: every user is served
    by exactly one antenna (unit demands)."""
    if tuple(spec.scenario.demand) != (1, 1):
        return Check("users-served-once", False,
                     f"needs unit demands, scenario has {spec.scenario.demand}")
    prb = spec.topo.prb_vector()
    served: dict[int, float] = {}
    for row in read_busy(run_dir):
        k = int(row["period"])
        served[k] = served.get(k, 0.0) + float(row["f"]) * prb[int(row["antenna_id"]) - 1]
    worst = 0.0
    for k, total in served.items():
        worst = max(worst, abs(total - spec.scenario.periods[k - 1].total_users))
    ok = len(served) > 0 and worst <= 1e-6
    return Check("users-served-once", ok,
                 f"{spec.algorithm}: max |sum f*r - users| = {worst:.2e} "
                 f"over {len(served)} periods")


def _clamp_box(steps, spec) -> Check:
    """min(p_prev + gamma*u, p_max) <= p_next <= p_max for every step."""
    p = spec.topo.initial_powers()
    p_max = spec.topo.p_max_vector()
    worst = 0.0
    for rec in steps:
        u = np.asarray(rec["u"])
        nxt = np.asarray(rec["p_next"])
        lower = np.minimum(p + spec.cfg.gamma * u, p_max)
        worst = max(worst, float(np.max(lower - nxt)), float(np.max(nxt - p_max)))
        p = nxt
    ok = len(steps) == spec.periods and worst <= 1e-9
    return Check("clamp-box", ok,
                 f"{spec.algorithm}: worst box violation {worst:.2e} dB "
                 f"over {len(steps)} steps")


def _zero_sum(steps) -> Check:
    """Every bdba step that neither fell back nor held is zero-sum."""
    worst = 0.0
    checked = 0
    for rec in steps:
        if rec["fallback"] or rec["held"]:
            continue
        u = np.asarray(rec["u"])
        norm = float(np.abs(u).sum())
        checked += 1
        if norm > 0:
            worst = max(worst, abs(float(u.sum())) / norm)
    return Check("bdba-zero-sum", worst <= 1e-9,
                 f"bdba: max |sum u| / ||u||_1 = {worst:.2e} over {checked} steps")


def _without(d: dict, key: str) -> dict:
    return {k: v for k, v in d.items() if k != key}


def check_repeat(first_dir, again_dir) -> Check:
    """Every non-timing output of a repeat is bitwise identical to the first."""
    a, b = read_metrics(first_dir), read_metrics(again_dir)
    same_metrics = a.keys() == b.keys() and all(
        np.array_equal(a[k], b[k]) for k in a if k != "step_seconds")
    same_steps = ([_without(s, "duration_s") for s in read_steps(first_dir)]
                  == [_without(s, "duration_s") for s in read_steps(again_dir)])
    same_busy = ((Path(first_dir) / "busy.csv").read_bytes()
                 == (Path(again_dir) / "busy.csv").read_bytes())
    ok = same_metrics and same_steps and same_busy
    return Check("repeat-identical", ok,
                 f"{Path(again_dir).name}: metrics {same_metrics}, "
                 f"steps {same_steps}, busy {same_busy}")


def check_claim(dirs: dict[str, Path], f_con: float, compared: dict) -> list[Check]:
    """The paper's claim with c11's bound, against the static baseline.

    ``compared`` holds ``compare_runs(none, algo)`` per balancer; its
    reductions must agree with the ones recomputed here from metrics.csv.
    """
    base = read_metrics(dirs["none"])
    checks = []
    for algo in BALANCING:
        if algo not in dirs:
            continue
        m = read_metrics(dirs[algo])
        cuts = {col: 100.0 * (1.0 - m[col].mean() / base[col].mean())
                for col in ("std_busy", "over_busy")}
        cov = float(m["coverage"].min())
        ok = (min(cuts.values()) >= CLAIM_CUT_PCT and cov >= f_con)
        reported = compared[algo]
        agree = all(abs(reported[f"mean_{col}"]["reduction_pct"] - cut) <= 1e-9
                    for col, cut in cuts.items())
        checks.append(Check(
            "tidal-claim", ok and agree,
            f"{algo}: std_busy -{cuts['std_busy']:.1f}%, over-busy "
            f"-{cuts['over_busy']:.1f}% (need {CLAIM_CUT_PCT:.0f}%), min F "
            f"{cov:.4f}, compare_runs agrees {agree}"))
        low = float(m["over_busy"].min())
        checks.append(Check("over-busy-reaches-zero", low == 0.0,
                            f"{algo}: lowest over-busy share {low:.3f}"))
    return checks


def covered(ds, powers: np.ndarray, r_c: float) -> np.ndarray:
    """Per record: some listed antenna is received at or above r_c."""
    mask = ds.ids > 0
    cut = powers[np.where(mask, ds.ids, 1) - 1] - r_c
    return (mask & (ds.values <= cut)).any(axis=1)


def neighbourhood_rates(ds, powers: np.ndarray, r_c: float) -> np.ndarray:
    """Covered share of the records listing each antenna (1.0 when none)."""
    cov = covered(ds, powers, r_c)
    rows, cols = np.nonzero(ds.ids > 0)
    aid = ds.ids[rows, cols].astype(np.int64) - 1
    hits = np.bincount(aid, weights=cov[rows], minlength=ds.n_antennas)
    seen = np.bincount(aid, minlength=ds.n_antennas)
    return np.where(seen > 0, hits / np.maximum(seen, 1), 1.0)


class CoverageRecount:
    """Recounts coverage from the deduplicated batches the program built.

    Attach with ``attach(tracer)``; after each run, ``verify`` checks that
    every neighbourhood rate at the powers ``min_power_search`` returned
    meets f_con, and that F recounted at each period's final powers equals
    the F in metrics.csv.
    """

    def __init__(self):
        self._batches: dict[int, tuple] = {}
        self.searches: list[tuple] = []
        self.scored: list[tuple] = []

    def attach(self, tracer) -> None:
        tracer.observe("coverage.evaluator_init", self._evaluator)
        tracer.observe("coverage.min_power_search", self._search)
        tracer.observe("coverage.exact_coverage", self._score)

    def _evaluator(self, a, _):
        self._batches[id(a["self"])] = (a["ds"], a["r_c"])

    def _search(self, a, p):
        batch = self._batches.get(id(a["evaluator"]))
        if batch is not None:
            self.searches.append(batch + (np.array(p),))

    def _score(self, a, _):
        self.scored.append((a["ds"], a["r_c"]))

    def verify(self, run_dir, spec) -> list[Check]:
        worst = 1.0
        for ds, r_c, p in self.searches:
            worst = min(worst, float(neighbourhood_rates(ds, p, r_c).min()))
        searched = len(self.searches)
        checks = []
        if spec.algorithm != "none":
            checks.append(Check(
                "recount-rates", searched == spec.periods and worst >= spec.cfg.f_con,
                f"{spec.algorithm}: lowest recounted rate {worst:.5f} over "
                f"{searched} searches (f_con {spec.cfg.f_con})"))
        reported = read_metrics(run_dir).get("coverage", np.ones(0))
        finals = ([np.asarray(s["p_next"]) for s in read_steps(run_dir)]
                  if spec.algorithm != "none"
                  else [spec.topo.initial_powers()] * len(reported))
        mismatched = 0
        for (ds, r_c), p, f in zip(self.scored, finals, reported):
            k = len(ds)
            recount = 1.0 - int(k - covered(ds, p, r_c).sum()) / k if k else 1.0
            mismatched += recount != f
        ok = len(self.scored) == len(reported) == len(finals) and mismatched == 0
        checks.append(Check("recount-F", ok,
                            f"{spec.algorithm}: {mismatched} of {len(reported)} "
                            "periods differ from the recount"))
        return checks + self.clear()

    def clear(self) -> list[Check]:
        """Forget the captured batches; returns no checks."""
        self._batches.clear()
        self.searches.clear()
        self.scored.clear()
        return []
