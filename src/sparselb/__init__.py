"""Load balancing under task-server compatibility constraints.

Simulates JSQ(d) on bipartite compatibility graphs, integrates the
mean-field occupancy ODE of the fully flexible system, generates and
certifies sparse random compatibility graphs, and verifies the pathwise
coupling inequality and steady-state tail bounds at desk scale.
"""

__version__ = "0.1.0"  # read by records.FORMAT_VERSION, so set before the imports

from .graph import (
    BipartiteGraph,
    GraphFormatError,
    GraphGenerationError,
    GraphSpec,
    braess_example,
    complete_bipartite,
    generate_fixed_server_degree,
    generate_geometric,
    generate_inhomogeneous,
    perfect_matching,
    read_graph,
    write_graph,
)
from .meanfield import (
    StabilityWeights,
    default_depth,
    empty_occupancy,
    fixed_point,
    integrate_ode,
    psi_series,
    stability_weights,
)
from .policy import (
    AssignmentPolicy,
    empirical_lipschitz,
    jsqd_policy,
)
from .properties import (
    SparsityReport,
    SubcriticalityReport,
    optimal_subcriticality_load,
    sparsity_deficiency,
    sparsity_trend,
    uniform_subcriticality_metric,
)
from .records import (
    CoupledRecord,
    SteadyStateSummary,
    TrajectoryRecord,
    compare_trajectories,
)
from .simulator import (
    InvariantViolation,
    ServiceDistribution,
    coupled_simulate,
    lyapunov_series,
    simulate,
    steady_state,
    tail_moment_margin,
)
