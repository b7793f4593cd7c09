"""adjointkit: finite adjoint modal algebras, end to end.

Lattices with computed Galois adjoints, multi-agent appearance/information
operators, dynamic actions with no-miracle validation, a bounded action
quantale, a symbolic derivation engine, a scenario DSL and a CLI.
"""

from .errors import (
    AdjointKitError,
    EmptyActionSet,
    EmptyGroup,
    FactStabilityViolation,
    ForeignElement,
    GeneratorMismatch,
    InternalError,
    KernelMismatch,
    LatticeMismatch,
    LatticeTooLarge,
    MissingGenerator,
    NoMiracleViolation,
    NotALattice,
    NotAPoset,
    NotBoolean,
    NotDistributive,
    NotJoinPreserving,
    NotMeetPreserving,
    ParseError,
    ResolutionError,
    TooManyWorlds,
    UnknownAction,
    UnknownAgent,
    WordLengthExceeded,
)
from .lattice import Element, FiniteLattice, build_from_order, powerset_lattice
from .maps import (
    JOIN_PRESERVING,
    MEET_PRESERVING,
    UNCLASSIFIED,
    AdjointPair,
    LatticeMap,
    check_demorgan_lift,
    compose,
    de_morgan_dual,
    gfp_meet,
    gfp_meet_reflexive,
    identity_map,
    left_adjoint,
    lfp_join,
    lfp_join_reflexive,
    map_from_generators,
    map_from_table,
    pointwise_join,
    pointwise_meet,
    power,
    right_adjoint,
    validate_join_preserving,
    validate_meet_preserving,
    verify_adjunction,
)
from .epistemic import MAMA, CoclosureReport, build_mama, check_coclosure_consequences
from .dynamics import (
    ActionLabel,
    DynamicAlgebra,
    KernelReport,
    build_dynamic_algebra,
)
from .quantale import (
    ActionQuantale,
    EpistemicSystemView,
    QuantaleLift,
    binary_to_indexed,
    check_epistemic_quantale,
    check_epistemic_system,
    check_quantale_laws,
    indexed_to_binary,
    lift_action_appearance,
)
from .terms import Assumptions, Sequent, parse_entailment, parse_term, render_term
from .derivation import (
    DEFAULT_MAX_DEPTH,
    NotProved,
    ProofNode,
    prove,
    render_proof,
    verify_tree,
)
from .semantics import SemanticModel, entails, eval_term, holds
from .scenario import ScenarioDoc, instantiate, parse_scenario, serialize

__version__ = "0.1.0"
