import dataclasses
import math
import random
import shlex
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grafold.controller import Controller, RunLimits, _phi0_move, run
from grafold.energy import (
    ExternalEvaluationError,
    ExternalEvaluator,
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
    parse_parameters,
    _term,
    _terms,
)
from grafold.grammar import (
    Grammar,
    _apply_unchecked,
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
from conftest import random_derivation
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
        terms = _terms(params, s.sequence.bases, loop_index(s))
        assert len(terms) == len(decompose_loops(s))
        random.Random(0).shuffle(terms)
        assert sum(terms) == pytest.approx(LoopTableModel(params).energy(s))

    def test_multibranch_term(self):
        params = example_parameters()
        term = _term(
            params, "GGAACAGAACC", LoopClass.MULTI, BasePair(0, 10), 2, BasePair(1, 4), 1
        )
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
            term
            for (kind, _), term in zip(
                decompose_loops(s), _terms(params, s.sequence.bases, loop_index(s)), strict=True
            )
            if kind is LoopClass.STACK
        )
        assert term == pytest.approx(-(3.0 + 1.0) / 2)


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


MODELS = [
    NussinovModel(),
    LoopTableModel(example_parameters()),
    LoopTableModel(rounding_sensitive_parameters()),
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


@pytest.mark.parametrize("kind", [LoopClass.HAIRPIN, LoopClass.BULGE, LoopClass.INTERNAL])
def test_length_terms_equal_the_formula(kind):
    # every length up to 200, read twice from each of two parameter sets
    # with tables of different lengths: the table's entry, past its end the
    # last entry extrapolated (bit for bit), and below its first entry an error
    sets = [short_table_parameters(), rounding_sensitive_parameters()]
    bases = "G" + "A" * 201 + "C"
    branch = None if kind is LoopClass.HAIRPIN else BasePair(1, 201)
    args = (kind, BasePair(0, 202), 0 if branch is None else 1, branch)
    for length in range(201):
        for _ in range(2):
            for params in sets:
                table = getattr(params, kind.value)
                if length < min(table):
                    with pytest.raises(ParameterError, match=f"^{kind.value} table has no entry"):
                        _term(params, bases, *args, length)
                    continue
                longest = max(table)
                want = table.get(length, table[longest] + 1.75 * 0.616 * math.log(length / longest))
                assert _term(params, bases, *args, length) == want


def region_of(s: SecondaryStructure, outer: BasePair):
    """The loop of ``s`` a move with outer pair ``outer`` adds its pairs in:
    the one whose unpaired positions hold ``outer.i``."""
    (region,) = [loop for loop in loop_index(s) if outer.i in loop.free]
    return region


def assert_moves_score_exactly(s: SecondaryStructure, matches, models=MODELS) -> None:
    # float ==, not approx: the loop-local sum must be the full sum, bit for bit
    for model in models:
        scorer = model.move_scorer(s, loop_index(s))
        assert scorer.observable() == observable(s, model)
        scores = [
            (scorer.single if len(m.added) == 1 else scorer.double)(
                *m.added, region_of(s, m.added[0])
            )
            for m in matches
        ]
        assert scores == [observable(_apply_unchecked(s, m.added), model) for m in matches]


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
        assert_moves_score_exactly(s, matches)


@pytest.mark.parametrize("min_h", [1, 3])
@given(bases=st.text(alphabet="ACGU", min_size=1, max_size=14), data=st.data())
@settings(max_examples=30, deadline=None)
def test_successor_observables_along_derivations(min_h, bases, data):
    g = Grammar(min_hairpin_unpaired=min_h)
    s = SecondaryStructure(PrimarySequence(bases))
    while True:
        matches = enumerate_matches(s, g)
        assert_moves_score_exactly(s, matches)
        if not matches:
            break
        s = _apply_unchecked(s, data.draw(st.sampled_from(matches)).added)


TABLES = [rounding_sensitive_parameters(), short_table_parameters()]


@pytest.mark.parametrize("min_h", [1, 3])
@given(bases=st.text(alphabet="ACGU", min_size=1, max_size=14), data=st.data())
@settings(max_examples=30, deadline=None)
def test_energy_is_left_fold_of_table_terms_along_derivations(min_h, bases, data):
    # float ==: the energy is the left-to-right fold, from 0.0, of the loop
    # terms in decomposition order, whatever rounding the interpreter's sum()
    # uses; each term is the table's own entry (asymmetric stack entries,
    # extrapolated lengths of every loop class)
    for s, _ in random_derivation(bases, min_h, data):
        for params in TABLES:
            total = 0.0
            terms = _terms(params, s.sequence.bases, loop_index(s))
            for loop, term in zip(as_loops(decompose_loops(s)), terms, strict=True):
                assert term == table_loop_term(loop, s.sequence, params)
                total += term
            assert LoopTableModel(params).energy(s) == total


@pytest.mark.parametrize("min_h", [1, 3])
@given(bases=st.text(alphabet="ACGU", min_size=1, max_size=14), data=st.data())
@settings(max_examples=30, deadline=None)
def test_successor_observables_extrapolate_along_derivations(min_h, bases, data):
    # with tables that end at length 3, most moves make or split a loop
    # whose term extrapolates, so the scorer reads extrapolated lengths
    model = LoopTableModel(short_table_parameters())
    for s, matches in random_derivation(bases, min_h, data):
        assert_moves_score_exactly(s, matches, models=[model])


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


BOUND_MODELS = [
    LoopTableModel(params)
    for params in (
        example_parameters(),
        rounding_sensitive_parameters(),
        short_table_parameters(),
        falling_loop_parameters(),
    )
]


def assert_double_bounds_hold(s: SecondaryStructure, matches) -> None:
    # a bulge or internal double adds an outer pair and an inner pair that is
    # not stacked on it; the bound of its outer pair must not exceed its exact
    # observable on any table, and under Nussinov it is that observable
    doubles = [m for m in matches if len(m.added) == 2 and m.rule.label != "Helix-Rule-1"]
    for model in BOUND_MODELS:
        scorer = model.move_scorer(s, loop_index(s))
        for m in doubles:
            target = _apply_unchecked(s, m.added)
            bound = scorer.double_bound(m.added[0], region_of(s, m.added[0]))
            assert bound <= observable(target, model)
    nussinov = NussinovModel()
    scorer = nussinov.move_scorer(s, loop_index(s))
    for m in doubles:
        bound = scorer.double_bound(m.added[0], region_of(s, m.added[0]))
        assert bound == observable(_apply_unchecked(s, m.added), nussinov)


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
    assert_double_bounds_hold(s, matches)


@pytest.mark.parametrize("min_h", [1, 3])
@given(bases=st.text(alphabet="ACGU", min_size=1, max_size=14), data=st.data())
@settings(max_examples=40, deadline=None)
def test_double_bound_along_derivations(min_h, bases, data):
    for s, matches in random_derivation(bases, min_h, data):
        assert_double_bounds_hold(s, matches)


def full_choice(s, matches, model, visited):
    """The least (observable, key) among the built successors of ``s`` that
    are not in ``visited`` and score at most its observable, with the added
    pairs of a move building it, or None; the unpruned reference of
    ``_phi0_move``."""
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
    # the pruned one-pass search finds the same least (score, key) move as
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
            got = _phi0_move(entry, observable(s, model), visited)
            want = full_choice(s, matches, model, visited)
            assert got == want


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
        evaluator = ExternalEvaluator(cmd)
        s = structure("GAAAC", "(...)")
        assert evaluator.evaluate(s.sequence, s) == pytest.approx(-1.5)
        assert observable(s, ExternalModel(evaluator)) == pytest.approx(-1.5)

    def test_stub_reads_protocol(self, tmp_path):
        body = (
            "import sys\n"
            "seq = sys.stdin.readline().strip()\n"
            "db = sys.stdin.readline().strip()\n"
            "print(-0.5 * db.count('('))\n"
        )
        evaluator = ExternalEvaluator(_write_stub(tmp_path, body))
        s = structure("GGAAACC", "((...))")
        assert evaluator.evaluate(s.sequence, s) == pytest.approx(-1.0)

    def test_nonzero_exit(self, tmp_path):
        cmd = _write_stub(tmp_path, "import sys; sys.exit(3)\n")
        s = structure("GAAAC", "(...)")
        with pytest.raises(ExternalEvaluationError) as exc:
            ExternalEvaluator(cmd).evaluate(s.sequence, s)
        assert exc.value.reason == "nonzero-exit"

    def test_unparsable_output(self, tmp_path):
        cmd = _write_stub(tmp_path, "print('not a number')\n")
        s = structure("GAAAC", "(...)")
        with pytest.raises(ExternalEvaluationError) as exc:
            ExternalEvaluator(cmd).evaluate(s.sequence, s)
        assert exc.value.reason == "unparsable-output"

    @pytest.mark.parametrize("printed", ["nan", "inf", "-inf"])
    def test_non_finite_output(self, tmp_path, printed):
        cmd = _write_stub(tmp_path, f"print({printed!r})\n")
        s = structure("GAAAC", "(...)")
        with pytest.raises(ExternalEvaluationError) as exc:
            ExternalEvaluator(cmd).evaluate(s.sequence, s)
        assert exc.value.reason == "non-finite-output"

    def test_timeout_is_not_cached(self):
        cmd = f"{shlex.quote(sys.executable)} -c 'import time; time.sleep(30)'"
        evaluator = ExternalEvaluator(cmd, timeout=0.2)
        s = structure("GAAAC", "(...)")
        for _ in range(2):
            with pytest.raises(ExternalEvaluationError) as exc:
                evaluator.evaluate(s.sequence, s)
            assert exc.value.reason == "timeout"

    def test_command_not_found(self):
        s = structure("GAAAC", "(...)")
        with pytest.raises(ExternalEvaluationError) as exc:
            ExternalEvaluator("definitely-not-a-real-command-xyz").evaluate(s.sequence, s)
        assert exc.value.reason == "command-not-found"

    def test_cache_hits_once(self, tmp_path):
        counter = tmp_path / "count"
        body = (
            "from pathlib import Path\n"
            f"p = Path({str(counter)!r})\n"
            "p.write_text(str(int(p.read_text() or '0') + 1) if p.exists() else '1')\n"
            "print(-2.5)\n"
        )
        evaluator = ExternalEvaluator(_write_stub(tmp_path, body))
        s = structure("GAAAC", "(...)")
        assert evaluator.evaluate(s.sequence, s) == pytest.approx(-2.5)
        assert evaluator.evaluate(s.sequence, s) == pytest.approx(-2.5)
        assert counter.read_text() == "1"

    @pytest.mark.parametrize("n", [16, 24])
    def test_cache_calls_out_once_per_structure_of_a_run(self, monkeypatch, n):
        # the controller's run memo does not cover the move scorer, which
        # scores every successor through energy(), so a run evaluates
        # structures again; the cache keeps it to one command call each
        scorer = LoopTableModel(example_parameters())
        invoked = []
        evaluated = 0
        evaluate = ExternalEvaluator.evaluate

        def fake_invoke(self, bases, db):
            invoked.append(db)
            return scorer.energy(parse_dot_bracket(PrimarySequence(bases), db))

        def counting_evaluate(self, seq, s):
            nonlocal evaluated
            evaluated += 1
            return evaluate(self, seq, s)

        monkeypatch.setattr(ExternalEvaluator, "_invoke", fake_invoke)
        monkeypatch.setattr(ExternalEvaluator, "evaluate", counting_evaluate)
        rng = random.Random(1)
        seq = PrimarySequence("".join(rng.choice("ACGU") for _ in range(n)))
        model = ExternalModel(ExternalEvaluator("unused"))
        run(None, seq, Grammar(allow_inverse=True), model, RunLimits(max_steps=40))
        assert invoked and len(invoked) == len(set(invoked))
        assert evaluated > len(invoked)

    def test_unfolded_state_never_calls_out(self):
        # +inf shortcut: the evaluator would fail if invoked
        model = ExternalModel(ExternalEvaluator("definitely-not-a-real-command-xyz"))
        s = SecondaryStructure(PrimarySequence("AAAA"))
        assert observable(s, model) == math.inf
