import random
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Callable
from unittest import mock

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

import grafold
from grafold.controller import (
    AdaptiveMachine,
    Constraint,
    MachineState,
    StrategyDecision,
    register_strategy,
)
from grafold.energy import EnergyModel, LoopTableParams, example_parameters
from grafold.grammar import Grammar, _apply_unchecked, enumerate_matches
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


@contextmanager
def counting_builds():
    """Yields (public, unchecked): every structure built in the block through
    the normalizing constructor, and every one built through
    ``SecondaryStructure._unchecked``, in build order."""
    public: list[SecondaryStructure] = []
    unchecked: list[SecondaryStructure] = []
    post_init, build = SecondaryStructure.__post_init__, SecondaryStructure._unchecked.__func__

    def counting_post_init(s):
        public.append(s)
        post_init(s)

    def counting_unchecked(cls, sequence, pairs, key=None):
        s = build(cls, sequence, pairs, key)
        unchecked.append(s)
        return s

    with mock.patch.object(SecondaryStructure, "__post_init__", counting_post_init), \
            mock.patch.object(SecondaryStructure, "_unchecked", classmethod(counting_unchecked)):
        yield public, unchecked


def random_derivation(bases: str, min_h: int, data):
    """Each structure of a random derivation from the unfolded strand down to
    a terminal structure, with its matches."""
    g = Grammar(min_hairpin_unpaired=min_h)
    s = SecondaryStructure(PrimarySequence(bases))
    while True:
        matches = enumerate_matches(s, g)
        yield s, matches
        if not matches:
            return
        s = _apply_unchecked(s, data.draw(st.sampled_from(matches)).added)


def rounding_sensitive_parameters() -> LoopTableParams:
    """A table whose terms span sixteen orders of magnitude, so a sum taken
    in another order than the full decomposition's rounds differently."""
    rng = random.Random(0)

    def value() -> float:
        return rng.uniform(-1, 1) * 10.0 ** rng.randint(-3, 16)

    example = example_parameters()
    return LoopTableParams(
        stack={key: value() for key in example.stack},
        hairpin={length: value() for length in example.hairpin},
        bulge={length: value() for length in example.bulge},
        internal={length: value() for length in example.internal},
        multibranch_offset=value(),
        multibranch_per_branch=value(),
        multibranch_per_unpaired=value(),
    )


def falling_loop_parameters() -> LoopTableParams:
    """The example table with negative hairpin entries, least at length 7
    (neither the first nor the last), bulges cheaper than internal loops,
    and a negative multibranch ``per_unpaired``, so the multibranch term
    falls as a loop keeps more unpaired positions."""
    params = example_parameters()
    return LoopTableParams(
        stack=params.stack,
        hairpin={n: abs(n - 7) * 0.3 - 5.0 for n in params.hairpin},
        bulge={n: value - 2.0 for n, value in params.bulge.items()},
        internal=params.internal,
        multibranch_offset=params.multibranch_offset,
        multibranch_per_branch=params.multibranch_per_branch,
        multibranch_per_unpaired=-0.7,
    )


def tied_loop_parameters() -> LoopTableParams:
    """The example table's lengths with every stack, bulge and internal
    entry 0.0, every hairpin entry 1.0 and no multibranch charge per
    unpaired position: a hairpin alone and a hairpin behind a stack, a
    bulge or an internal loop score the same, so many moves of one outer
    pair, and of outer pairs with one left end, tie, and the tie rule
    picks the move."""
    params = example_parameters()
    return LoopTableParams(
        stack=dict.fromkeys(params.stack, 0.0),
        hairpin=dict.fromkeys(params.hairpin, 1.0),
        bulge=dict.fromkeys(params.bulge, 0.0),
        internal=dict.fromkeys(params.internal, 0.0),
        multibranch_offset=params.multibranch_offset,
        multibranch_per_branch=params.multibranch_per_branch,
        multibranch_per_unpaired=0.0,
    )


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
