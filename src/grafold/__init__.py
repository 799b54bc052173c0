"""grafold: pseudoknot-free RNA folding as loop-grammar graph rewriting.

Structures are rewritten by eleven loop-building rules; the reachable
structures form a labelled transition system scored by a pluggable
free-energy observable; a greedy, self-adapting controller walks that space
and emits traces. See the README for the command-line interface.
"""

from .structure import (
    BasePair,
    PrimarySequence,
    SecondaryStructure,
    SequenceError,
    StructureError,
    ValidationReport,
    Violation,
    emit_dot_bracket,
    is_admissible_pair,
    parse_dot_bracket,
    parse_sequence,
    validate_structure,
)
from .grammar import (
    ALL_RULES,
    DerivationError,
    GluingError,
    Grammar,
    LoopKind,
    Match,
    RuleId,
    apply_match,
    derive,
    enumerate_inverse_matches,
    enumerate_matches,
    gluing_check,
    invert_match,
)
from .energy import (
    EnergyModel,
    ExternalEvaluationError,
    ExternalModel,
    LoopClass,
    LoopTableModel,
    LoopTableParams,
    NussinovModel,
    ParameterError,
    decompose_loops,
    example_parameters,
    load_parameters,
    observable,
)
from .space import (
    LTS,
    ExploreLimits,
    LTSStats,
    NoFoldedStateError,
    alternating_gc_sequence,
    build_lts,
    export_lts,
    fit_growth_base,
    growth_sweep,
    min_energy_state,
    stats,
    successors,
    validate_lts_json,
)
from .controller import (
    AdaptiveMachine,
    Constraint,
    Controller,
    MachineConfigError,
    RunLimits,
    Trace,
    TraceRecord,
    UnknownStrategyError,
    register_strategy,
    run,
)

__version__ = "0.1.0"
