"""Exact computation with locally order-preserving almost automorphisms of
locally finite rooted trees: tree pairs, revealing-pair dynamics, and a
certified finite-orbit / ping-pong dichotomy driver for finitely generated
subgroups acting on the tree boundary."""

from .treespace import (
    Address,
    BoundaryPoint,
    ClopenSet,
    FormatError,
    TypeGraph,
    address_str,
    boundary_point,
    epsilon_neighborhood,
    eventually_periodic_witness,
    is_isolated,
    load_type_graph,
    parse_address,
    parse_eps,
    parse_point,
    point_is_isolated,
    visual_distance,
)
from .element import (
    Element,
    GeneratorFamily,
    TreePair,
    builtin_generators,
    compose,
    element_from_map,
    format_element,
    identity,
    make_element,
    parse_element,
    random_element,
    reduce,
)
from .revealing import (
    BudgetExceeded,
    Chain,
    CycleData,
    DynamicsReport,
    HypCertificate,
    RevealingPair,
    chains,
    dynamics,
    hyp_power_bound,
    is_elliptic,
    is_revealing,
    order,
    recheck_hyp_certificate,
    reveal,
)
from .subgroup import (
    AdmissiblePartition,
    Budgets,
    GeneratingSet,
    GroupClosure,
    Orbit,
    RestrictedElement,
    common_admissible_partition,
    enumerate_elements,
    finite_closure,
    format_generating_set,
    orbit,
    parse_generating_set,
    parse_word,
    restrict,
    restricted_closure,
    word_inverse,
    word_str,
)
from .alternative import (
    DichotomyResult,
    PingPongWitness,
    ProximalContraction,
    build_pingpong,
    dichotomy,
    free_group_smoke,
    neumann_disjoint,
    proximal_contraction,
    stable_intersection,
    stable_set,
    verify_pingpong,
)

__version__ = "0.1.0"
