"""Interaction systems: components cooperating through multiway interactions.

The package models two-layer interaction systems (an interaction model plus
one labeled transition system per component), composes their global behavior,
decides reachability by explicit-state search, classifies communication
topologies (star / line), and implements two reductions: a linear-bounded
machine run compiles into a line-shaped system, and any system transforms
into a hub-and-spokes system with the same reachable states up to the hub
coordinate.
"""

from .errors import ModelError, ParseError
from .model import (
    Interaction,
    InteractionModel,
    InteractionSystem,
    LocalBehavior,
    PortId,
    canonicalize,
    canonicalize_system,
    validate_model,
    validate_system,
)
from .oracle import (
    GenParams,
    Verdict,
    brute_force_reachable,
    check_theorem1,
    check_theorem2,
    gen_random_system,
)
from .reduce_linear import (
    accept_predicate,
    compile_lsa,
    config_to_gstate,
    extend_halt_propagation,
)
from .reduce_star import project_state, starify
from .semantics import (
    GlobalState,
    ReachResult,
    ReachableSet,
    StatePredicate,
    enabled_interactions,
    explore,
    is_reachable,
    replay_trace,
    resolve_predicate,
    step,
    successors,
)
from .topology import InteractionGraph, TopologyClass, classify, export_dot, interaction_graph
from .turing import (
    DTM,
    Configuration,
    Outcome,
    RunResult,
    initial_config,
    run_tm,
    tm_step,
    validate_dtm,
)
from .validation import Finding, ValidationReport

__version__ = "0.1.0"

__all__ = [
    "Configuration",
    "DTM",
    "Finding",
    "GenParams",
    "GlobalState",
    "Interaction",
    "InteractionGraph",
    "InteractionModel",
    "InteractionSystem",
    "LocalBehavior",
    "ModelError",
    "Outcome",
    "ParseError",
    "PortId",
    "ReachResult",
    "ReachableSet",
    "RunResult",
    "StatePredicate",
    "TopologyClass",
    "ValidationReport",
    "Verdict",
    "accept_predicate",
    "brute_force_reachable",
    "canonicalize",
    "canonicalize_system",
    "check_theorem1",
    "check_theorem2",
    "classify",
    "compile_lsa",
    "config_to_gstate",
    "enabled_interactions",
    "explore",
    "export_dot",
    "extend_halt_propagation",
    "gen_random_system",
    "initial_config",
    "interaction_graph",
    "is_reachable",
    "project_state",
    "replay_trace",
    "resolve_predicate",
    "run_tm",
    "starify",
    "step",
    "successors",
    "tm_step",
    "validate_dtm",
    "validate_model",
    "validate_system",
]
