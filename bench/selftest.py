"""Self-tests of the output checks: each must pass a real results directory
and reject a deliberately broken copy of it.

    python3 bench/selftest.py

Runs a small bdba experiment twice (plus its static baseline) into
``.bench_out/selftest/`` and exits non-zero when a check passes a broken
directory or fails an intact one.
"""

import csv
import json
import shutil
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
# run.py pins the BLAS/OpenMP threads on import, before numpy loads
from run import OUT, use_checkout_package  # noqa: E402


def _small_run(breathenet, out: Path, algorithm: str):
    spec = breathenet.harness.spec_from_dict({
        "bundle": {"name": "random", "nx": 4, "ny": 3, "periods": 2,
                   "total_users": 6000, "seed": 5},
        "cfg": {"gamma": 0.5, "tau": 0.001, "r_c": -120.0},
        "algorithm": algorithm, "periods": 2, "seed": 5})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        breathenet.run_experiment(spec, output_dir=out)
    return spec


def _edit_steps(run_dir: Path, edit) -> None:
    path = run_dir / "steps.jsonl"
    steps = [json.loads(line) for line in path.read_text().splitlines()]
    edit(steps)
    path.write_text("".join(json.dumps(s) + "\n" for s in steps))


def _edit_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def main() -> int:
    breathenet = use_checkout_package()
    import checks

    root = OUT / "selftest"
    shutil.rmtree(root, ignore_errors=True)
    first, again = root / "first", root / "again"
    spec = _small_run(breathenet, first / "bdba", "bdba")
    _small_run(breathenet, again / "bdba", "bdba")
    none_spec = _small_run(breathenet, first / "none", "none")
    p_max = spec.topo.p_max_vector()
    prb = spec.topo.prb_vector()

    def unbalance(steps):
        rec = next(s for s in steps if not (s["fallback"] or s["held"]))
        rec["u"][0] += 0.01

    def overdrive(steps):
        steps[0]["p_next"][0] = float(p_max[0]) + 1.0

    def drop_user(rows):
        row = next(r for r in rows[1:] if float(r[2]) > 0)
        row[2] = repr(float(row[2]) - 1.0 / float(prb[int(row[1]) - 1]))

    def shift_std(rows):
        rows[1][1] = repr(float(rows[1][1]) + 1e-9)

    def named(log, name):
        found = [c for c in log if c.name == name]
        return found and all(c.ok for c in found)

    intact = (checks.check_run(first / "bdba", spec)
              + checks.check_run(first / "none", none_spec)
              + [checks.check_repeat(first / "bdba", again / "bdba")])
    results = [("intact directories pass every check",
                all(c.ok for c in intact) and named(intact, "bdba-zero-sum"))]

    cases = [
        ("non-zero-sum u", "bdba-zero-sum", lambda d: _edit_steps(d, unbalance)),
        ("p_next above p_max", "clamp-box", lambda d: _edit_steps(d, overdrive)),
        ("busy.csv drops a user", "users-served-once",
         lambda d: _edit_csv(d / "busy.csv", drop_user)),
    ]
    for label, name, breaks in cases:
        broken = root / name
        shutil.copytree(first / "bdba", broken)
        breaks(broken)
        results.append((f"{label} fails {name}",
                        not named(checks.check_run(broken, spec), name)))
    broken = root / "repeat-identical"
    shutil.copytree(again / "bdba", broken)
    _edit_csv(broken / "metrics.csv", shift_std)
    results.append(("a repeat whose std_busy differs fails repeat-identical",
                    not checks.check_repeat(first / "bdba", broken).ok))

    for label, ok in results:
        print(f"selftest {'PASS' if ok else 'FAIL'} {label}")
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
