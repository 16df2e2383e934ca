"""The benchmark's workloads: the spec dicts each one runs, built from a seed.

A workload is a list of spec dicts, one per algorithm, that share one world.
Every dict goes through ``breathenet.harness.spec_from_dict``, as a spec file
given to ``breathenet run`` would. Nothing here imports numpy at module level,
so a set-up probe can start its clock before the package loads.
"""

from __future__ import annotations

# c11's configuration: the paper's whole-day experiment against the static
# baseline on the 50-antenna tidal grid.
TIDAL_CFG = {"gamma": 0.5, "tau": 0.001, "r_c": -95.0, "f_con": 0.999,
             "n_s": 5000, "coverage_sample": 3000}

# Layout seed of both grids (hotspot centres, weights and spreads). The
# workload seed varies only the Monte-Carlo draw over that layout: user
# positions, demands and shadowing. Another layout can move users so far off
# the grid that the coverage floor becomes infeasible (see the README).
GRID_LAYOUT_SEED = 21

WORKLOADS = ("tidal-compare", "grid-500", "grid-2k")


def spec_dicts(workload: str, seed: int) -> list[dict]:
    """The spec dicts of one round of ``workload`` for workload seed ``seed``."""
    if workload == "tidal-compare":
        # Criterion c11's world and run seeds, whatever the workload seed:
        # with the draw varied, bdba aborts on some draws (InfeasibleCoverage
        # in period 24 on tidal_bundle seed 115), and a failure that comes
        # and goes with the seed would make the failed share differ between
        # runs. See the README.
        base = {"bundle": {"name": "tidal", "periods": 24,
                           "total_users": 40000, "seed": 3},
                "cfg": TIDAL_CFG, "periods": 24, "seed": 13}
        return [dict(base, algorithm=a) for a in ("none", "bdba", "bfdba")]
    if workload == "grid-500":
        base = _grid_world(nx=25, ny=20, periods=3, total_users=60000,
                           draw_seed=seed)
        # the whole deduplicated batch; r_c stays where the floor is feasible
        # at rated power on every draw tried
        base.update(cfg={"gamma": 0.5, "tau": 0.001, "r_c": -117.0,
                         "f_con": 0.999, "coverage_sample": 0},
                    periods=3, seed=seed, algorithm="bfdba")
        return [base]
    if workload == "grid-2k":
        # n = 2000 = balancer.DENSE_LIMIT, the largest network on the dense
        # solve path. Its inputs ignore the seed: every period fails (held
        # powers) and the failed share must be exactly the same on every run.
        base = {"bundle": {"name": "random", "nx": 50, "ny": 40, "periods": 2,
                           "total_users": 30000, "n_hotspots": 8,
                           "seed": GRID_LAYOUT_SEED},
                "cfg": {"gamma": 0.5, "tau": 0.001, "r_c": -135.0,
                        "f_con": 0.999, "coverage_sample": 4000},
                "periods": 2, "seed": GRID_LAYOUT_SEED, "algorithm": "bdba"}
        return [base]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _grid_world(nx: int, ny: int, periods: int, total_users: int,
                draw_seed: int) -> dict:
    """Explicit topology/scenario/pathloss blocks of the fixed grid layout,
    with the draw seeded from ``draw_seed`` (random_bundle's own offsets, so
    draw seed 21 is random_bundle(seed=21) itself)."""
    from breathenet import AlgorithmConfig, ExperimentSpec, random_bundle
    from breathenet.harness import spec_to_dict

    bundle = random_bundle(nx=nx, ny=ny, periods=periods,
                           total_users=total_users, n_hotspots=8,
                           seed=GRID_LAYOUT_SEED)
    d = spec_to_dict(ExperimentSpec(*bundle, cfg=AlgorithmConfig(),
                                    periods=periods))
    d["scenario"]["seed"] = draw_seed + 1
    d["pathloss"]["seed"] = draw_seed + 2
    return {"topology": d["topology"], "scenario": d["scenario"],
            "pathloss": d["pathloss"]}


def build_specs(workload: str, seed: int) -> list:
    """Every ExperimentSpec of one round, through the public spec parser."""
    from breathenet.harness import spec_from_dict

    return [spec_from_dict(d) for d in spec_dicts(workload, seed)]
