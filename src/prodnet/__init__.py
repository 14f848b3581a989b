"""Production-network percolation, resilience estimation, and interventions.

The package models production networks as directed graphs whose products
fail when all their suppliers fail or when a required input fails, and
provides: seeded architecture generators, exact percolation trials,
Monte Carlo resilience estimation, the closed-form bounds for each
architecture, expected-cascade bounds via the topological/fixed-point/
Katz pipeline, and budget-constrained protection planning.
"""

__version__ = "0.8.0"

from .bounds import (
    BoundResult,
    ClampWarning,
    GWExpectedBounds,
    cascade_tail_g,
    cascade_tail_g_envelope,
    gw_bound_lower,
    gw_bound_upper,
    gw_bounds,
    gw_expected_bounds,
    gw_extinction,
    parallel_bounds,
    powerlaw_pmf,
    powerlaw_tail_constant,
    rdag_lb_x,
    simulate_extinction_depths,
    tree_bounds,
    tree_catastrophe_prob,
    tree_expected_survivors_envelope,
    tree_node_count,
    tree_tier_survival,
    trellis_bounds,
)
from .contagion import (
    BetaVector,
    KatzResilienceBound,
    dag_beta,
    dag_resilience_lb,
    dag_sparse_bound,
    fixed_point_beta,
    katz_beta,
    katz_centrality,
    resilience_lb_katz,
    vulnerability_ranking,
)
from .errors import (
    ConvergenceError,
    CyclicGraphError,
    FormatError,
    ParameterError,
    PreconditionError,
    ProdnetError,
    SizeError,
    UnsupportedRegimeError,
    ValidationError,
)
from .estimator import (
    DEFAULT_EPSILON_GRID,
    ResilienceCurve,
    estimate_resilience,
    estimate_resilience_ensemble,
    estimate_survival_prob,
    resilience_curve,
)
from .fileio import (
    DuplicateEdgeWarning,
    load_network_json,
    parse_edge_csv,
    parse_io_table,
    save_edge_csv,
    save_network_json,
)
from .generators import (
    BranchingDistribution,
    GWTreeResult,
    generate_backward_tree,
    generate_gw_tree,
    generate_parallel,
    generate_rdag,
    generate_trellis,
)
from .interventions import (
    InterventionPlan,
    SupplierAllocation,
    evaluate_intervention,
    optimal_protection,
    post_intervention_resilience_lb,
    supplier_allocation,
)
from .network import ProductionNetwork, reverse_graph, topological_order
from .percolation import (
    BatchResult,
    CascadeOutcome,
    PercolationConfig,
    derive_subseed,
    run_batch,
    run_coupled_pair,
    run_trial,
)
