"""Exact and approximate counting for Holant problems with regular symmetric functions."""

from .errors import (
    FailedPreconditionError,
    HolantError,
    InfeasibleBoundaryError,
    InfeasibleInstanceError,
    InstanceParseError,
    InvalidArgumentError,
    ResourceExhaustedError,
)
from .values import ONE, ZERO, GaussianRational, Value, as_value, format_value, parse_value
from .symfun import (
    BooleanSymmetricFunction,
    PeerPartition,
    SymmetricFunction,
    builtin,
    compositions,
    composition_of,
    evaluate_by_peers,
    from_boolean_weights,
    peer_partition,
    peering_closure_at,
    pin,
    regularity,
)
from .graphcore import (
    Graph,
    HolantInstance,
    SubInstance,
    complete_graph,
    cube_graph,
    cycle_graph,
    edge_ball,
    grid_graph,
    incidence_transform,
    path_graph,
    prism_graph,
    random_graph,
    random_outerplanar,
    restrict_instance,
    vertex_boundary,
)
from .sepdecomp import (
    BalancedSeparator,
    SeparatorDecomposition,
    balanced_separator,
    build_decomposition,
    find_min_width,
    validate,
)
from .exact import (
    FptSolver,
    brute_force_hol,
    fpt_hol,
    hol_with_boundary,
    simple_dp_hol,
)
from .approx import (
    ApproxResult,
    RadiusPolicy,
    estimate_marginal,
    fptas_hol,
    marginal_distribution,
    tractable_search,
)
from .gates import (
    SsmGateReport,
    gate_colorings,
    gate_ising,
    gate_potts,
    gate_subgraphs_world,
)
from .models import ModelSpec, build_model, ising_prefactor
from .oracle import GibbsOracle, gibbs_oracle, ising_partition_mpf, spin_partition_brute, subgraphs_world_brute
from .instancefile import (
    InstanceDocument,
    parse_instance,
    parse_instance_document,
    serialize_instance,
)

__version__ = "0.1.0"
