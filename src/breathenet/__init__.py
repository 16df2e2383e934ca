"""breathenet: a simulator and optimizer for breathing cellular networks.

Per-period traffic is sampled over an antenna grid, busy-degrees are derived
from measurement-report data, and pilot powers are rebalanced so that load
equalizes across antennas without dropping coverage below a floor.
"""

from .balancer import (
    SingularJacobian,
    BalanceStep,
    bdba_solve,
    bfdba_solve,
    save_steps_jsonl,
    step,
)
from .busy import BusyState, ZeroTraffic, busy_degrees, disagreement, targets
from .coverage import (
    CoverageReport,
    ExactNeighbourhoodEvaluator,
    InfeasibleCoverage,
    MonotoneMlp,
    build_fail_graph,
    exact_coverage,
    min_power_search,
    train_surrogate,
)
from .harness import (
    ExperimentResult,
    ExperimentSpec,
    MetricsSeries,
    compare_runs,
    run_experiment,
    write_results,
)
from .jacobian import (
    JacobianApprox,
    LaplacianReport,
    SupportGraph,
    estimate_jacobian,
    laplacian_check,
    support_graph,
)
from .model import (
    AlgorithmConfig,
    Antenna,
    ConfigError,
    NetworkTopology,
    topology_from_dict,
    topology_to_dict,
    watts_to_dbm,
)
from .mrdata import (
    MrDataset,
    MrRecord,
    co_neighbours,
    dataset_from_records,
    generate_mr,
    remove_redundant,
    sample_for_jacobian,
    subsample,
    to_attenuation,
)
from .synth import (
    ScenarioBundle,
    drift_bundle,
    grid_topology,
    line_topology,
    proportional_bundle,
    random_bundle,
    tidal_bundle,
    two_island_bundle,
)
from .traffic import (
    Hotspot,
    PathlossModel,
    PeriodSpec,
    TrafficScenario,
    UserBatch,
    assign_users,
    sample_users,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
