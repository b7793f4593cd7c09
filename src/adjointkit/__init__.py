"""adjointkit: finite adjoint modal algebras, end to end.

Lattices with computed Galois adjoints, multi-agent appearance/information
operators, dynamic actions with no-miracle validation, a bounded action
quantale, a symbolic derivation engine, a scenario DSL and a CLI.

Importing the package imports none of its modules. Each public name below,
and each module name, is resolved on first access by the module
__getattr__ of PEP 562, so a CLI command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names the package re-exports from it
_EXPORTS = {
    "errors": (
        "AdjointKitError", "EmptyActionSet", "EmptyGroup", "FactStabilityViolation",
        "ForeignElement", "GeneratorMismatch", "InternalError", "KernelMismatch",
        "LatticeMismatch", "LatticeTooLarge", "MissingGenerator", "NoMiracleViolation",
        "NotALattice", "NotAPoset", "NotBoolean", "NotDistributive", "NotJoinPreserving",
        "NotMeetPreserving", "ParseError", "ResolutionError", "TooManyWorlds",
        "UnknownAction", "UnknownAgent", "WordLengthExceeded",
    ),
    "lattice": ("Element", "FiniteLattice", "build_from_order", "powerset_lattice"),
    "maps": (
        "JOIN_PRESERVING", "MEET_PRESERVING", "UNCLASSIFIED", "AdjointPair", "LatticeMap",
        "check_demorgan_lift", "compose", "de_morgan_dual", "gfp_meet",
        "gfp_meet_reflexive", "identity_map", "left_adjoint", "lfp_join",
        "lfp_join_reflexive", "map_from_generators", "map_from_table", "pointwise_join",
        "pointwise_meet", "power", "right_adjoint", "validate_join_preserving",
        "validate_meet_preserving", "verify_adjunction",
    ),
    "epistemic": ("MAMA", "CoclosureReport", "build_mama", "check_coclosure_consequences"),
    "dynamics": ("ActionLabel", "DynamicAlgebra", "build_dynamic_algebra"),
    "quantale": (
        "ActionQuantale", "EpistemicSystemView", "QuantaleLift", "binary_to_indexed",
        "check_epistemic_quantale", "check_epistemic_system", "check_quantale_laws",
        "indexed_to_binary", "lift_action_appearance",
    ),
    "terms": ("Assumptions", "Sequent", "parse_entailment", "parse_term", "render_term"),
    "derivation": (
        "DEFAULT_MAX_DEPTH", "NotProved", "ProofNode", "prove", "render_proof", "verify_tree",
    ),
    "semantics": ("SemanticModel", "entails", "eval_term", "holds"),
    "scenario": ("ScenarioDoc", "instantiate", "parse_scenario", "serialize"),
}
_MODULES = frozenset(_EXPORTS) | {"cli"}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
