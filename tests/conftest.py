import sys
from pathlib import Path
from typing import Callable

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import grafold
from grafold.controller import (
    AdaptiveMachine,
    Constraint,
    MachineState,
    StrategyDecision,
    register_strategy,
)
from grafold.energy import EnergyModel
from grafold.structure import PrimarySequence, SecondaryStructure


class ScriptedModel(EnergyModel):
    """Test energy model: per-key overrides on top of a default function."""

    mode = "scripted"

    def __init__(
        self,
        overrides: dict[str, float] | None = None,
        default: Callable[[SecondaryStructure], float] = lambda s: -1.0,
    ):
        self.overrides = overrides or {}
        self.default = default

    def energy(self, s: SecondaryStructure) -> float:
        if s.key in self.overrides:
            return self.overrides[s.key]
        return self.default(s)


def trap_model() -> ScriptedModel:
    """On GGGAAACCC: a deep one-pair minimum whose continuations all rise,
    but one continuation regains greedy progress a step later."""
    return ScriptedModel({"..(...)..": -2.0, "(((...)))": -1.5})


def _even_pairs(ctx) -> StrategyDecision:
    return StrategyDecision(satisfied=len(ctx.structure.pairs) % 2 == 0)


register_strategy("even-pairs", _even_pairs)

EXAMPLE_MACHINE = AdaptiveMachine.from_file(
    Path(grafold.__file__).parent / "data" / "example_machine.json"
)


def psi_machine() -> AdaptiveMachine:
    """A greedy state whose adaptation phases may pass only structures with
    an even number of pairs (the ψ of its self-transition), resuming in
    itself or in a one-step lookahead state."""
    w0 = MachineState(
        "w0",
        Constraint.phi0(),
        (("w0", Constraint.of_strategy("even-pairs")), ("w1", Constraint.true())),
    )
    w1 = MachineState(
        "w1", Constraint.of_strategy("lookahead", depth=1), (("w0", Constraint.true()),)
    )
    return AdaptiveMachine((w0, w1), "w0")


# Fixture families, sized so exhaustive oracles stay fast.
SOUNDNESS_SEQUENCES = [
    "AAAA",
    "GAAAC",
    "GGAAACC",
    "GGUAAACC",
    "GGGAAACCC",
    "GGUCAAAGACC",
    "GCGCGCGCGCGC",
]

COMPLETENESS_SEQUENCES = [
    "AAAA",
    "GAAAC",
    "GGAAACC",
    "GGUAAACC",
    "GGGAAACCC",
    "GCGCGCGCGC",
]

NUSSINOV_SEQUENCES = SOUNDNESS_SEQUENCES + [
    "GCGCGCGCGCGCGC",
    "GGGGAAAACCCCAAAA",
    "GCAGUAAACUGCAAAU",
    "AUGGCAAACGCCAUAA",
]


@pytest.fixture
def seq_gggaaaccc() -> PrimarySequence:
    return PrimarySequence("GGGAAACCC")


@pytest.fixture
def seq_gaaac() -> PrimarySequence:
    return PrimarySequence("GAAAC")
