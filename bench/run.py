"""Per-period control-loop benchmark of breathenet.

    python3 bench/run.py --workload grid-500 --seed 21 --seconds 20 --trace 0
    python3 bench/run.py                 # self-tests, then every workload

Run from the root of a checkout: the package is imported from ``src/``. One
round of a workload builds its specs with ``spec_from_dict`` and runs each
through ``run_experiment(spec, output_dir=...)`` (and ``compare_runs`` where
a static baseline is part of the round). Rounds repeat until ``--seconds`` of
run_experiment wall clock have passed, and at least twice, so that the repeat
check has a second round to compare. An operation is one simulated period; it
fails when it raises or ends with its powers held.

With ``--trace 0`` the last line reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run. Results go to
``.bench_out/<workload>/`` under the checkout.
"""

import os

# one BLAS/OpenMP thread, before numpy loads here or in any child process
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
MIN_ROUNDS = 2

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS, build_specs  # noqa: E402


def use_checkout_package():
    """Import breathenet from this checkout's src/, never from elsewhere."""
    if not (SRC / "breathenet" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'breathenet'} not found; run from a checkout "
                 "that holds the package sources")
    sys.path.insert(0, str(SRC))
    import breathenet

    if Path(breathenet.__file__).resolve().parent != SRC / "breathenet":
        sys.exit(f"error: imported breathenet from {breathenet.__file__}")
    return breathenet


def probe_setup(workload: str, seed: int) -> None:
    """Child process: a fresh interpreter's import plus building every spec."""
    if not (SRC / "breathenet" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'breathenet'} not found")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import breathenet  # noqa: F401

    build_specs(workload, seed)
    print(repr(time.perf_counter() - t0))


def measure_setup(workload: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def environment(np, scipy) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {**{v: os.environ[v] for v in THREAD_VARS},
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    setup = [] if trace else measure_setup(workload, seed)
    breathenet = use_checkout_package()
    import numpy as np
    import scipy

    import checks
    from tracing import Tracer, unit

    print("env " + json.dumps(environment(np, scipy)), flush=True)
    specs = build_specs(workload, seed)
    out = OUT / workload
    shutil.rmtree(out, ignore_errors=True)
    tracer = recount = None
    if trace:
        tracer = Tracer()
        recount = checks.CoverageRecount()
        recount.attach(tracer)
        tracer.install()

    log: list = []
    control: list[float] = []  # step_seconds of every balancing period
    spread: list[float] = []  # mean std_busy of each balancing run, round 1
    attempted = failed = completed = rounds = 0
    measured = 0.0
    while rounds < MIN_ROUNDS or measured < seconds:
        rounds += 1
        started = measured
        dirs = {}
        results = {}
        for spec in specs:
            run_dir = out / f"round{rounds}" / spec.algorithm
            dirs[spec.algorithm] = run_dir
            t0 = time.perf_counter()
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    results[spec.algorithm] = breathenet.run_experiment(
                        spec, output_dir=run_dir)
            except Exception as exc:  # the raising period fails; the run stops
                print(f"error {spec.algorithm} round {rounds}: "
                      f"{type(exc).__name__}: {exc}", flush=True)
            measured += time.perf_counter() - t0
            m = (checks.read_metrics(run_dir)
                 if (run_dir / "metrics.csv").exists() else {})
            done = len(m.get("period", ()))
            attempted += spec.periods
            completed += done
            failed += spec.periods - done
            if recount is not None:
                log += recount.verify(run_dir, spec) if done else recount.clear()
            if not done:
                log.append(checks.Check("periods-complete", False,
                                        f"{spec.algorithm}: no period completed"))
                continue
            log += checks.check_run(run_dir, spec)
            if rounds > 1:
                log.append(checks.check_repeat(out / "round1" / spec.algorithm,
                                               run_dir))
            if spec.algorithm != "none":
                failed += sum(s["held"] for s in checks.read_steps(run_dir))
                control += m["step_seconds"].tolist()
                if rounds == 1:
                    spread.append(float(m["std_busy"].mean()))
        print(f"round {rounds} run_experiment wall {measured - started:.3f} s",
              flush=True)
        if "none" in results and len(results) == len(specs):
            compared = {a: breathenet.compare_runs(results["none"].metrics,
                                                   results[a].metrics)
                        for a in results if a != "none"}
            log += checks.check_claim(dirs, specs[0].cfg.f_con, compared)
            moved = not np.array_equal(results["none"].final_powers,
                                       specs[0].topo.initial_powers())
            log.append(checks.Check("static-baseline", not moved,
                                    f"none: final powers moved {moved}"))

    correct = report_checks(log)
    print(f"rounds {rounds} attempted {attempted} failed {failed} "
          f"run_experiment wall {measured:.3f} s", flush=True)
    if trace:
        tracer.uninstall()
        metrics = tracer.per_layer(rounds)
        tracer.write_spans(out / "spans.jsonl")
        print(f"trace periods_per_s {completed / measured:.4f} 1/s, spans "
              f"cover {100 * tracer.root_seconds() / measured:.2f}% of "
              f"{measured:.3f} s, absent layers {tracer.absent or 'none'}")
        payload = {name: {"value": value, "unit": unit(name)}
                   for name, value in metrics.items()}
    else:
        payload = {
            "setup_s": (statistics.median(setup), "s"),
            "periods_per_s": (completed / measured, "1/s"),
            "control_s": (statistics.median(control) if control else 0.0, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "std_busy": (statistics.fmean(spread) if spread else 0.0,
                         "busy-degree"),
        }
        print(f"samples setup_s {len(setup)}, control_s {len(control)}")
        payload = {k: {"value": v, "unit": u} for k, (v, u) in payload.items()}
    for name, m in payload.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": payload}), flush=True)
    return 0


def report_checks(log) -> bool:
    """One line per check name: PASS only when every instance passed."""
    by_name: dict[str, list] = {}
    for c in log:
        by_name.setdefault(c.name, []).append(c)
    for name, items in by_name.items():
        bad = [c for c in items if not c.ok]
        shown = bad[0] if bad else items[-1]
        print(f"check {name} {'FAIL' if bad else 'PASS'} "
              f"({len(items) - len(bad)}/{len(items)}) {shown.detail}")
    return bool(log) and all(c.ok for c in log)


def run_all(args) -> int:
    """Self-tests of the checks, then every workload in a fresh process."""
    code = subprocess.run([sys.executable, str(BENCH / "selftest.py")],
                          cwd=ROOT).returncode
    summary = {"selftest": code == 0}
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        summary[workload] = json.loads(lines[-1]) if done.returncode == 0 else None
        code = code or done.returncode or not summary[workload]["correct"]
    print(json.dumps(summary))
    return 1 if code else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: self-tests and all)")
    parser.add_argument("--seed", type=int, default=21)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    if args.workload is None:
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
