import dataclasses
import functools
import math
import random
import shlex
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grafold.controller import Controller, RunLimits, run
from grafold.energy import (
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
    observable_from_terms,
    parse_parameters,
    _term,
)
from grafold.grammar import (
    Grammar,
    _apply_unchecked,
    _sites,
    enumerate_inverse_matches,
    enumerate_matches,
)
from grafold.structure import (
    BasePair,
    PrimarySequence,
    SecondaryStructure,
    emit_dot_bracket,
    loop_index,
    parse_dot_bracket,
)
from conftest import (
    ScriptedModel,
    falling_loop_parameters,
    random_derivation,
    rounding_sensitive_parameters,
    tied_loop_parameters,
)
from oracles import Loop, all_valid_structures, stack_walk_loops, table_loop_term


def structure(bases: str, db: str, min_h: int = 1) -> SecondaryStructure:
    return parse_dot_bracket(PrimarySequence(bases), db, min_hairpin_unpaired=min_h)


def as_loops(decomposition) -> tuple[Loop, ...]:
    """The (kind, region) pairs of :func:`decompose_loops` as the oracle's
    records, field by field: kind, closing pair, branches, unpaired count."""
    return tuple(
        Loop(kind, region.closing, tuple(region.branches), len(region.free))
        for kind, region in decomposition
    )


class TestDecompose:
    def test_hairpin_in_stack(self):
        s = structure("GGGAAACCC", "(((...)))")
        loops = as_loops(decompose_loops(s))
        by_closing = {l.closing: l for l in loops if l.closing}
        assert by_closing[BasePair(2, 6)].kind is LoopClass.HAIRPIN
        assert by_closing[BasePair(2, 6)].unpaired == 3
        assert by_closing[BasePair(1, 7)].kind is LoopClass.STACK
        assert by_closing[BasePair(0, 8)].kind is LoopClass.STACK
        exterior = loops[-1]
        assert exterior.kind is LoopClass.EXTERIOR and exterior.unpaired == 0

    def test_empty_structure(self):
        s = SecondaryStructure(PrimarySequence("GAAAC"))
        loops = as_loops(decompose_loops(s))
        assert len(loops) == 1
        assert loops[0].kind is LoopClass.EXTERIOR
        assert loops[0].unpaired == 5 and loops[0].branches == ()

    def test_multibranch(self):
        s = SecondaryStructure(
            PrimarySequence("GGAACAGAACC"),
            {BasePair(0, 10), BasePair(1, 4), BasePair(6, 9)},
        )
        loops = as_loops(decompose_loops(s))
        multi = [l for l in loops if l.kind is LoopClass.MULTI]
        assert len(multi) == 1
        assert multi[0].closing == BasePair(0, 10)
        assert multi[0].branches == (BasePair(1, 4), BasePair(6, 9))
        assert multi[0].unpaired == 1

    def test_bulge_and_internal(self):
        bulge = SecondaryStructure(
            PrimarySequence("GGGAAACCC"), {BasePair(0, 8), BasePair(1, 6)}
        )
        kinds = {r.closing: kind for kind, r in decompose_loops(bulge) if r.closing}
        assert kinds[BasePair(0, 8)] is LoopClass.BULGE
        internal = SecondaryStructure(
            PrimarySequence("GGGAAACCC"), {BasePair(0, 8), BasePair(2, 6)}
        )
        kinds = {r.closing: kind for kind, r in decompose_loops(internal) if r.closing}
        assert kinds[BasePair(0, 8)] is LoopClass.INTERNAL

    @pytest.mark.parametrize("bases", ["GAAAC", "GGUAAACC", "GCGCGCGCGC"])
    def test_partition_invariant(self, bases):
        seq = PrimarySequence(bases)
        for pair_set in all_valid_structures(seq, 1):
            s = SecondaryStructure(seq, pair_set)
            loops = as_loops(decompose_loops(s))
            assert sum(l.unpaired for l in loops) + 2 * len(s.pairs) == len(seq)
            closings = [l.closing for l in loops if l.closing is not None]
            assert len(closings) == len(set(closings)) == len(s.pairs)
            assert sum(1 for l in loops if l.kind is LoopClass.EXTERIOR) == 1

    def test_stable_under_reserialization(self):
        for db in ["(((...)))", "(.(...).)", "((....)).", "........."]:
            s = structure("GGGAAACCC", db)
            reparsed = parse_dot_bracket(s.sequence, s.key)
            assert decompose_loops(reparsed) == decompose_loops(s)


@pytest.mark.parametrize("min_h", [1, 3])
@given(bases=st.text(alphabet="ACGU", min_size=1, max_size=14), data=st.data())
@settings(max_examples=30, deadline=None)
def test_decompose_equals_stack_walk_along_derivations(min_h, bases, data):
    g = Grammar(min_hairpin_unpaired=min_h)
    s = SecondaryStructure(PrimarySequence(bases))
    while True:
        assert as_loops(decompose_loops(s)) == stack_walk_loops(s)
        matches = enumerate_matches(s, g)
        if not matches:
            break
        s = _apply_unchecked(s, data.draw(st.sampled_from(matches)).added)


class TestNussinov:
    def test_per_pair(self):
        model = NussinovModel()
        assert model.energy(structure("GGAAACC", "((...))")) == -2.0
        assert model.energy(structure("GAAAC", "(...)")) == -1.0
        assert model.energy(SecondaryStructure(PrimarySequence("AAAA"))) == 0.0

    def test_observable_infinite_when_unpaired(self):
        model = NussinovModel()
        assert observable(SecondaryStructure(PrimarySequence("AAAA")), model) == math.inf
        assert observable(structure("GAAAC", "(...)"), model) == -1.0
        assert observable(structure("GGAAACC", "((...))"), model) == -2.0


class TestLoopTable:
    def test_example_hand_sum(self):
        # two GC/GC stacks at -3.0 each plus a length-3 hairpin at 4.0
        model = LoopTableModel(example_parameters())
        assert model.energy(structure("GGGAAACCC", "(((...)))")) == pytest.approx(-2.0)

    def test_additivity_over_shuffled_loops(self):
        params = example_parameters()
        s = structure("GGGAGGGAGAAACCCACACCC", "(((.(((.(...))).).)))")
        model = LoopTableModel(params)
        terms = [model.loop_term(s.sequence.bases, loop) for loop in loop_index(s)]
        assert len(terms) == len(decompose_loops(s))
        random.Random(0).shuffle(terms)
        assert sum(terms) == pytest.approx(LoopTableModel(params).energy(s))

    def test_multibranch_term(self):
        params = example_parameters()
        rows = LoopTableModel(params)._term_rows(11)
        term = _term(params, rows, "GGAACAGAACC", BasePair(0, 10), 2, BasePair(1, 4), 1)
        assert term == pytest.approx(3.0 + 0.4 * 2 + 0.1 * 1)

    def test_long_hairpin_extrapolates(self):
        params = example_parameters()
        bases = "G" + "A" * 35 + "C"
        s = structure(bases, "(" + "." * 35 + ")")
        expected = 9.4 + 1.75 * 0.616 * math.log(35 / 30)
        assert LoopTableModel(params).energy(s) == pytest.approx(expected)

    def test_wobble_stack_entry(self):
        params = example_parameters()
        s = structure("GGAAAUC", "((...))")  # outer G-C, inner G-U
        term = sum(
            LoopTableModel(params).loop_term(s.sequence.bases, region)
            for kind, region in decompose_loops(s)
            if kind is LoopClass.STACK
        )
        assert term == pytest.approx(-(3.0 + 1.0) / 2)


MODELS = [
    NussinovModel(),
    LoopTableModel(example_parameters()),
    LoopTableModel(rounding_sensitive_parameters()),
    # energy only: no loop terms, so its observable is its energy and its
    # moves are scored by the plain scan
    ScriptedModel(default=lambda s: -0.5 * len(s.pairs)),
]


def short_table_parameters() -> LoopTableParams:
    """:func:`rounding_sensitive_parameters` with hairpin and bulge lengths
    1-3 and internal lengths 2-3 only, so that most loops extrapolate."""
    params = rounding_sensitive_parameters()
    return LoopTableParams(
        stack=params.stack,
        hairpin={n: params.hairpin[n] for n in (1, 2, 3)},
        bulge={n: params.bulge[n] for n in (1, 2, 3)},
        internal={n: params.internal[n] for n in (2, 3)},
        multibranch_offset=params.multibranch_offset,
        multibranch_per_branch=params.multibranch_per_branch,
        multibranch_per_unpaired=params.multibranch_per_unpaired,
    )


LENGTH_CLASSES = [LoopClass.HAIRPIN, LoopClass.BULGE, LoopClass.INTERNAL]


@pytest.mark.parametrize("kind", LENGTH_CLASSES)
def test_length_terms_equal_the_formula(kind):
    # every length up to 200, read twice from each of two parameter sets
    # with tables of different lengths: the table's entry, past its end the
    # last entry extrapolated (bit for bit), and below its first entry an
    # error. Every entry of the model's term row is that value (None below
    # the first entry): the rows made for a 20-base strand, and those made
    # again, longer, for a 203-base one, of which the first are a prefix
    sets = [short_table_parameters(), rounding_sensitive_parameters()]
    bases = "G" + "A" * 201 + "C"
    # no branch closes a hairpin, one flush on the left a bulge, one with
    # gaps on both sides an internal loop
    branch = {LoopClass.BULGE: BasePair(1, 200), LoopClass.INTERNAL: BasePair(2, 200)}.get(kind)
    args = (BasePair(0, 202), 0 if branch is None else 1, branch)
    for params in sets:
        table = getattr(params, kind.value)
        longest = max(table)

        def want(length):
            if length < min(table):
                return None
            return table.get(length, table[longest] + 1.75 * 0.616 * math.log(length / longest))

        model = LoopTableModel(params)
        short = model._term_rows(20)[LENGTH_CLASSES.index(kind)]
        rows = model._term_rows(len(bases))
        row = rows[LENGTH_CLASSES.index(kind)]
        assert len(short) >= 21 and len(row) >= len(bases) + 1
        assert row[: len(short)] == short
        for length, entry in enumerate(row):
            assert entry == want(length)
        for length in range(201):
            for _ in range(2):
                if want(length) is None:
                    with pytest.raises(ParameterError, match=f"^{kind.value} table has no entry"):
                        _term(params, rows, bases, *args, length)
                    continue
                assert _term(params, rows, bases, *args, length) == want(length)


def assert_least_move_finds_each(s, sites, terms, model, matches, asked) -> None:
    # float ==, not approx: the loop-local sum must be the full sum, bit for
    # bit. Each asked move is sought alone, with the threshold at its
    # target's exact observable and every other target of ``matches``
    # visited: least_move must return that move with that score, so a score
    # above it, one below it, or a double bound above it fails
    keys = {_apply_unchecked(s, m.added).key for m in matches}
    for added in dict.fromkeys(m.added for m in asked):
        target = _apply_unchecked(s, added)
        score = observable(target, model)
        got = model.least_move(s, terms, sites, score, keys - {target.key})
        assert got == (score, target.key, added)


def loop_terms(model, s: SecondaryStructure, loops):
    """The loop terms a run keeps for ``s``."""
    return [model.loop_term(s.sequence.bases, loop) for loop in loops]


def assert_moves_score_exactly(s: SecondaryStructure, matches, min_h, models=MODELS) -> None:
    loops = loop_index(s)
    sites = _sites(s, Grammar(min_hairpin_unpaired=min_h), loops)
    for model in models:
        terms = loop_terms(model, s, loops)
        assert observable_from_terms(s, model, terms) == observable(s, model)
        assert_least_move_finds_each(s, sites, terms, model, matches, matches)


class TestSuccessorObservables:
    # each fixture covers loops a move can create or split: the exterior
    # loop, multibranch loops of two and three branches, Rule-1 doubles that
    # make a stack, a bulge and an internal loop, and Rule-2 moves with the
    # closing pair (or an enclosed branch) as context, and a hairpin right of
    # a nested branch, so that the split loop's term is not the one sorted
    # just before the new pair; behind a four-pair helix, the terms between
    # the two are several, so adding them in another grouping rounds
    # differently under the rounding-sensitive table
    @pytest.mark.parametrize(
        "bases,db,rules",
        [
            ("GGGAAACCC", ".........",
             {"Hairpin-Rule-1", "Helix-Rule-1", "Bulge-r-Rule-1", "Internal-loop-Rule-1"}),
            ("GGAAACCGGAAACC", ".(...)..(...).",
             {"Multi-branched-loop-Rule-1", "Helix-Rule-2"}),
            ("GGAAACGAAACGAAACC", ".(...)(...)(...).", {"Multi-branched-loop-Rule-2"}),
            ("GGGAAACGAAACCGAAACCC", "(.(...)(...).(...).)",
             {"Multi-branched-loop-Rule-1", "Multi-branched-loop-Rule-2", "Helix-Rule-2"}),
            ("GGGGAAAAACCCC", "(...........)",
             {"Helix-Rule-1", "Bulge-r-Rule-1", "Bulge-l-Rule-1", "Internal-loop-Rule-1",
              "Helix-Rule-2", "Bulge-r-Rule-2", "Bulge-l-Rule-2", "Internal-loop-Rule-2"}),
            ("GGGGAAACCCC", "(..(...)..)",
             {"Helix-Rule-1", "Helix-Rule-2", "Bulge-r-Rule-2", "Internal-loop-Rule-2"}),
            ("GAGGAAACCAGAAACAAC", "(.((...))........)", {"Hairpin-Rule-1"}),
            ("GAGGGGAAACCCCAGAAACAAC", "(.((((...))))........)", {"Hairpin-Rule-1"}),
        ],
    )
    def test_fixtures(self, bases, db, rules):
        s = structure(bases, db, min_h=3)
        matches = enumerate_matches(s, Grammar())
        assert rules <= {m.rule.label for m in matches}
        assert_moves_score_exactly(s, matches, min_h=3)


@pytest.mark.parametrize("min_h", [1, 3])
@given(bases=st.text(alphabet="ACGU", min_size=1, max_size=14), data=st.data())
@settings(max_examples=30, deadline=None)
def test_successor_observables_along_derivations(min_h, bases, data):
    g = Grammar(min_hairpin_unpaired=min_h)
    s = SecondaryStructure(PrimarySequence(bases))
    while True:
        matches = enumerate_matches(s, g)
        assert_moves_score_exactly(s, matches, min_h)
        if not matches:
            break
        s = _apply_unchecked(s, data.draw(st.sampled_from(matches)).added)


TABLES = [rounding_sensitive_parameters(), short_table_parameters()]

#: Each model with the term it gives a closed loop, from the oracle loop and
#: the sequence; the external model's energy is not a sum of loop terms.
TERM_MODELS = [
    *(
        (LoopTableModel(params), functools.partial(table_loop_term, params=params))
        for params in TABLES
    ),
    (NussinovModel(), lambda loop, seq: -1.0),
    (ExternalModel("false"), lambda loop, seq: None),
]


@pytest.mark.parametrize("min_h", [1, 3])
@given(bases=st.text(alphabet="ACGU", min_size=1, max_size=14), data=st.data())
@settings(max_examples=30, deadline=None)
def test_energy_is_left_fold_of_table_terms_along_derivations(min_h, bases, data):
    # float ==: the energy is the left-to-right fold, from 0.0, of the loop
    # terms in decomposition order, whatever rounding the interpreter's sum()
    # uses; each closed loop's term is the table's own entry (asymmetric
    # stack entries, extrapolated lengths of every loop class), or -1.0
    # under Nussinov, and the exterior loop's is 0.0; an external model
    # gives None for every loop
    for s, _ in random_derivation(bases, min_h, data):
        decomposition = decompose_loops(s)
        closed = as_loops(decomposition)[:-1]
        for model, closed_term in TERM_MODELS:
            terms = [model.loop_term(s.sequence.bases, region) for _, region in decomposition]
            assert terms[:-1] == [closed_term(loop, s.sequence) for loop in closed]
            if isinstance(model, ExternalModel):
                assert terms[-1] is None
                continue
            assert terms[-1] == 0.0
            total = 0.0
            for term in terms:
                total += term
            assert model.energy(s) == total


class ExteriorHeavyModel(EnergyModel):
    """Loop terms only, with an exterior term so large that the order of the
    fold shows in the rounding."""

    def loop_term(self, bases, loop):
        return 1e16 if loop.closing is None else 1.0


def test_energy_folds_terms_in_loop_index_order():
    # the exterior loop's term comes first: (0.0 + 1e16) + 1.0 + 1.0 rounds
    # back to 1e16 at each step, where the closed loops' terms first would
    # give 1e16 + 2.0
    s = structure("GGAAACC", "((...))")
    model = ExteriorHeavyModel()
    terms = [model.loop_term(s.sequence.bases, loop) for loop in loop_index(s)]
    assert terms == [1e16, 1.0, 1.0]
    assert model.energy(s) == observable_from_terms(s, model, terms) == 1e16
    with pytest.raises(NotImplementedError):
        EnergyModel().energy(s)


@pytest.mark.parametrize("min_h", [1, 3])
@given(bases=st.text(alphabet="ACGU", min_size=1, max_size=14), data=st.data())
@settings(max_examples=30, deadline=None)
def test_successor_observables_extrapolate_along_derivations(min_h, bases, data):
    # with tables that end at length 3, most moves make or split a loop
    # whose term extrapolates, so the scorer reads extrapolated lengths
    model = LoopTableModel(short_table_parameters())
    for s, matches in random_derivation(bases, min_h, data):
        assert_moves_score_exactly(s, matches, min_h, models=[model])


BOUND_MODELS = [
    LoopTableModel(params)
    for params in (
        example_parameters(),
        rounding_sensitive_parameters(),
        short_table_parameters(),
        falling_loop_parameters(),
        tied_loop_parameters(),
    )
]


def assert_double_bounds_hold(s: SecondaryStructure, matches, min_h) -> None:
    # a bulge or internal double adds an outer pair and an inner pair that is
    # not stacked on it; least_move finds each such double alone at its exact
    # observable, under Nussinov and on every table, so no pruning skips it
    doubles = [m for m in matches if len(m.added) == 2 and m.rule.label != "Helix-Rule-1"]
    loops = loop_index(s)
    sites = _sites(s, Grammar(min_hairpin_unpaired=min_h), loops)
    for model in [NussinovModel(), *BOUND_MODELS]:
        terms = loop_terms(model, s, loops)
        assert_least_move_finds_each(s, sites, terms, model, matches, doubles)


@pytest.mark.parametrize("min_h", [1, 3])
@pytest.mark.parametrize(
    "bases,db",
    [
        # no child, and a helix after the new loops
        ("GGGGAAAAAAACCCCGGGAAACCC", "...............(((...)))"),
        # one child
        ("GGGGGAAACCCCC", "....(...)...."),
        # two children, with up to two and up to three unpaired positions
        # between an outer pair and each child
        ("GGGGAAACGAAACCCC", "...(...)(...)..."),
        ("GGGGGAAACGAAACCCCC", "....(...)(...)...."),
    ],
)
def test_double_bound_fixtures(min_h, bases, db):
    s = structure(bases, db, min_h=3)
    matches = enumerate_matches(s, Grammar(min_hairpin_unpaired=min_h))
    assert any(len(m.added) == 2 and m.rule.label != "Helix-Rule-1" for m in matches)
    assert_double_bounds_hold(s, matches, min_h)


@pytest.mark.parametrize("min_h", [1, 3])
@given(bases=st.text(alphabet="ACGU", min_size=1, max_size=14), data=st.data())
@settings(max_examples=40, deadline=None)
def test_double_bound_along_derivations(min_h, bases, data):
    for s, matches in random_derivation(bases, min_h, data):
        assert_double_bounds_hold(s, matches, min_h)


def full_choice(s, matches, model, visited):
    """The least (observable, key) among the built successors of ``s`` that
    are not in ``visited`` and score at most its observable, with the added
    pairs of a move building it, or None; the unpruned reference of
    :meth:`EnergyModel.least_move`."""
    threshold = observable(s, model)
    scored = []
    for m in matches:
        target = _apply_unchecked(s, m.added)
        score = observable(target, model)
        if score <= threshold and target.key not in visited:
            scored.append((score, target.key, m.added))
    return min(scored, default=None)


@pytest.mark.parametrize("min_h", [1, 3])
@given(bases=st.text(alphabet="ACGU", min_size=1, max_size=14), data=st.data())
@settings(max_examples=60, deadline=None)
def test_phi0_move_equals_full_scoring_along_derivations(min_h, bases, data):
    # the pruned search (the loop-table model's fused pass, or the Nussinov
    # model's walk that stops right of its best move) finds the same least
    # (score, key) move as the plain scan over built successors, and as
    # scoring every built successor, whichever successors are visited; the
    # drawn visited set holds the unfiltered winner about half the time, so
    # the search must also pass over visited moves tied with its result. One
    # controller per model serves the whole derivation, so later structures
    # are scored through sites, and their loops, memoized for earlier ones
    g = Grammar(min_hairpin_unpaired=min_h)
    controllers = [Controller(grammar=g, model=m) for m in [NussinovModel(), *BOUND_MODELS]]
    for s, matches in random_derivation(bases, min_h, data):
        keys = sorted({_apply_unchecked(s, m.added).key for m in matches})
        for controller in controllers:
            model = controller.model
            visited = data.draw(st.sets(st.sampled_from(keys))) if keys else set()
            winner = full_choice(s, matches, model, set())
            if winner is not None and data.draw(st.booleans()):
                visited.add(winner[1])
            entry = controller._moves(s)
            args = (s, entry.terms, entry.sites, observable(s, model), visited)
            got = model.least_move(*args)
            want = full_choice(s, matches, model, visited)
            assert got == want
            assert EnergyModel.least_move(model, *args) == want


@pytest.mark.parametrize(
    "bases,db",
    [
        ("GGGGAAACGAAACCCC", "...(...)(...)..."),
        ("GGGGAAAAAAACCCCGGGAAACCC", "...............(((...)))"),
    ],
)
def test_plain_scan_never_scores_a_visited_target(monkeypatch, bases, db):
    # the plain scan keys each target before it builds it: the external
    # command is asked for every unvisited target once and for no visited one
    table = LoopTableModel(example_parameters())
    invoked = []

    def fake_invoke(self, strand, key):
        invoked.append(key)
        return table.energy(parse_dot_bracket(PrimarySequence(strand), key))

    monkeypatch.setattr(ExternalModel, "_invoke", fake_invoke)
    s = structure(bases, db)
    g = Grammar(min_hairpin_unpaired=1)
    matches = enumerate_matches(s, g)
    keys = sorted({_apply_unchecked(s, m.added).key for m in matches})
    visited = set(keys[::2])
    model = ExternalModel("unused")
    loops = loop_index(s)
    args = (s, loop_terms(model, s, loops), _sites(s, g, loops), observable(s, table), visited)
    got = ExternalModel.least_move(model, *args)
    assert sorted(invoked) == sorted(set(keys) - visited)
    assert got == full_choice(s, matches, table, visited)


@pytest.mark.parametrize("min_h", [1, 3])
@given(bases=st.text(alphabet="ACGU", min_size=1, max_size=14), data=st.data())
@settings(max_examples=40, deadline=None)
def test_phi0_match_read_off_the_site_along_derivations(min_h, bases, data):
    # the rule φ0 names for its move, read off the source's site, is that
    # of the first, in rule order, of the matches that yield its target by
    # adding the move's pairs: the first inverse move of the target, read
    # off the target's loops, that removes them. The target carries the key
    # the search wrote, which is its dot-bracket
    g = Grammar(min_hairpin_unpaired=min_h)
    controllers = [Controller(grammar=g, model=m) for m in [NussinovModel(), *BOUND_MODELS]]
    for s, _ in random_derivation(bases, min_h, data):
        for controller in controllers:
            choice = controller._phi0(s)
            if choice is None:
                continue
            label, target = choice
            added = tuple(sorted(target.pairs - s.pairs))
            inverse = enumerate_inverse_matches(target, g)
            assert label == next(m for m, _ in inverse if m.added == added).rule.label
            assert target.pairs > s.pairs and 1 <= len(added) <= 2
            assert target.key == emit_dot_bracket(target)


def _without(table: dict, key) -> dict:
    return {k: v for k, v in table.items() if k != key}


# each table breaks one rule, and the type raises the parser's message
@pytest.mark.parametrize(
    "change, message",
    [
        (lambda p: {"hairpin": _without(p.hairpin, 4)},
         r"^\[hairpin\] lengths must be contiguous starting at 1"),
        (lambda p: {"internal": {1: 0.5, **p.internal}},
         r"^\[internal\] lengths must be contiguous starting at 2"),
        (lambda p: {"bulge": {}}, r"^\[bulge\] section is empty"),
        (lambda p: {"multibranch_per_unpaired": math.nan},
         r"^\[multibranch\] per_unpaired: non-finite number 'nan'"),
        (lambda p: {"stack": _without(p.stack, ("GU", "UG"))},
         r"^\[stack\] missing 1 entries, e.g. 'GU/UG'"),
        (lambda p: {"stack": {**p.stack, ("AA", "AU"): 0.0}},
         r"^\[stack\] AA/AU: 'AA' is not an admissible pair type"),
    ],
    ids=["hairpin-hole", "internal-from-1", "empty-bulge", "nan-multibranch",
         "missing-stack-entry", "inadmissible-stack-key"],
)
def test_tables_built_in_code_are_checked(change, message):
    params = example_parameters()
    with pytest.raises(ParameterError, match=message):
        dataclasses.replace(params, **change(params))


class TestParameterLoading:
    def test_example_table_parsed_once(self):
        assert example_parameters() is example_parameters()

    def test_example_file_loads(self, tmp_path):
        params = example_parameters()
        assert len(params.stack) == 36
        assert params.hairpin[3] == pytest.approx(4.0)
        assert min(params.bulge) == 1 and min(params.internal) == 2

    def test_tables_are_read_only_copies(self):
        # the packaged tables are shared by every caller, and a table
        # changed after it was passed in leaves the parameters as checked
        params = example_parameters()
        with pytest.raises(TypeError):
            params.hairpin[4] = params.hairpin[4]
        hairpin = dict(params.hairpin)
        built = dataclasses.replace(params, hairpin=hairpin)
        hairpin.pop(4)
        assert built == params and built.hairpin[4] == params.hairpin[4]

    def test_load_from_path(self, tmp_path):
        from importlib import resources

        text = resources.files("grafold").joinpath("data/example_loop_params.ini").read_text()
        path = tmp_path / "params.ini"
        path.write_text(text)
        assert load_parameters(path) == example_parameters()

    def _example_text(self) -> str:
        from importlib import resources

        return resources.files("grafold").joinpath("data/example_loop_params.ini").read_text()

    def test_missing_section(self):
        text = self._example_text().replace("[hairpin]", "[hairpins]")
        with pytest.raises(ParameterError, match=r"section"):
            parse_parameters(text)

    def test_malformed_number(self):
        text = self._example_text().replace("offset = 3.0", "offset = three")
        with pytest.raises(ParameterError, match="malformed number"):
            parse_parameters(text)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "section, key, entry",
        [("stack", "GC/CG", "-3.0"), ("hairpin", "4", "4.2"), ("multibranch", "per_unpaired", "0.1")],
    )
    def test_non_finite_number(self, section, key, entry, value):
        text = self._example_text().replace(f"\n{key} = {entry}\n", f"\n{key} = {value}\n")
        assert text != self._example_text()
        with pytest.raises(ParameterError, match=rf"^\[{section}\] {key}: non-finite number"):
            parse_parameters(text)

    def test_non_contiguous_lengths(self):
        text = self._example_text().replace("\n7 = 4.8\n", "\n")
        with pytest.raises(ParameterError, match="contiguous"):
            parse_parameters(text)

    def test_inadmissible_stack_key(self):
        text = self._example_text().replace("AU/AU =", "AA/AU =", 1)
        with pytest.raises(ParameterError, match="admissible|missing"):
            parse_parameters(text)

    def test_missing_stack_entry(self):
        text = self._example_text().replace("GU/UG = -1.0\n", "")
        with pytest.raises(ParameterError, match="missing"):
            parse_parameters(text)


def _write_stub(tmp_path, body: str) -> str:
    script = tmp_path / "stub.py"
    script.write_text(body)
    return f"{sys.executable} {script}"


class TestExternal:
    def test_stub_value(self, tmp_path):
        cmd = _write_stub(tmp_path, "print(-1.5)\n")
        model = ExternalModel(cmd)
        s = structure("GAAAC", "(...)")
        assert model.energy(s) == pytest.approx(-1.5)
        assert observable(s, model) == pytest.approx(-1.5)

    def test_stub_reads_protocol(self, tmp_path):
        body = (
            "import sys\n"
            "seq = sys.stdin.readline().strip()\n"
            "db = sys.stdin.readline().strip()\n"
            "print(-0.5 * db.count('('))\n"
        )
        model = ExternalModel(_write_stub(tmp_path, body))
        s = structure("GGAAACC", "((...))")
        assert model.energy(s) == pytest.approx(-1.0)

    def test_nonzero_exit(self, tmp_path):
        cmd = _write_stub(tmp_path, "import sys; sys.exit(3)\n")
        s = structure("GAAAC", "(...)")
        with pytest.raises(ExternalEvaluationError) as exc:
            ExternalModel(cmd).energy(s)
        assert exc.value.reason == "nonzero-exit"

    def test_unparsable_output(self, tmp_path):
        cmd = _write_stub(tmp_path, "print('not a number')\n")
        s = structure("GAAAC", "(...)")
        with pytest.raises(ExternalEvaluationError) as exc:
            ExternalModel(cmd).energy(s)
        assert exc.value.reason == "unparsable-output"

    @pytest.mark.parametrize("printed", ["nan", "inf", "-inf"])
    def test_non_finite_output(self, tmp_path, printed):
        cmd = _write_stub(tmp_path, f"print({printed!r})\n")
        s = structure("GAAAC", "(...)")
        with pytest.raises(ExternalEvaluationError) as exc:
            ExternalModel(cmd).energy(s)
        assert exc.value.reason == "non-finite-output"

    def test_timeout_is_not_cached(self):
        cmd = f"{shlex.quote(sys.executable)} -c 'import time; time.sleep(30)'"
        model = ExternalModel(cmd, timeout=0.2)
        s = structure("GAAAC", "(...)")
        for _ in range(2):
            with pytest.raises(ExternalEvaluationError) as exc:
                model.energy(s)
            assert exc.value.reason == "timeout"

    def test_command_not_found(self):
        s = structure("GAAAC", "(...)")
        with pytest.raises(ExternalEvaluationError) as exc:
            ExternalModel("definitely-not-a-real-command-xyz").energy(s)
        assert exc.value.reason == "command-not-found"

    def test_cache_hits_once(self, tmp_path):
        counter = tmp_path / "count"
        body = (
            "from pathlib import Path\n"
            f"p = Path({str(counter)!r})\n"
            "p.write_text(str(int(p.read_text() or '0') + 1) if p.exists() else '1')\n"
            "print(-2.5)\n"
        )
        model = ExternalModel(_write_stub(tmp_path, body))
        s = structure("GAAAC", "(...)")
        assert model.energy(s) == pytest.approx(-2.5)
        assert model.energy(s) == pytest.approx(-2.5)
        assert counter.read_text() == "1"

    @pytest.mark.parametrize("n", [16, 24])
    def test_cache_calls_out_once_per_structure_of_a_run(self, monkeypatch, n):
        # φ0 scores every unvisited successor through energy(), outside the
        # controller's run memo, so a run evaluates structures again; the
        # cache keeps it to one command call each
        scorer = LoopTableModel(example_parameters())
        invoked = []
        evaluated = 0
        energy = ExternalModel.energy

        def fake_invoke(self, bases, db):
            invoked.append(db)
            return scorer.energy(parse_dot_bracket(PrimarySequence(bases), db))

        def counting_energy(self, s):
            nonlocal evaluated
            evaluated += 1
            return energy(self, s)

        monkeypatch.setattr(ExternalModel, "_invoke", fake_invoke)
        monkeypatch.setattr(ExternalModel, "energy", counting_energy)
        rng = random.Random(1)
        seq = PrimarySequence("".join(rng.choice("ACGU") for _ in range(n)))
        model = ExternalModel("unused")
        run(None, seq, Grammar(allow_inverse=True), model, RunLimits(max_steps=40))
        assert invoked and len(invoked) == len(set(invoked))
        assert evaluated > len(invoked)

    def test_unfolded_state_never_calls_out(self):
        # +inf shortcut: the command would fail if invoked
        model = ExternalModel("definitely-not-a-real-command-xyz")
        s = SecondaryStructure(PrimarySequence("AAAA"))
        assert observable(s, model) == math.inf
