import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grafold.grammar import Grammar, _apply_unchecked, enumerate_matches
from grafold.structure import (
    BasePair,
    PrimarySequence,
    SecondaryStructure,
    SequenceError,
    StructureError,
    emit_dot_bracket,
    is_admissible_pair,
    key_with_pairs,
    loop_index,
    pairs_cross,
    parse_dot_bracket,
    parse_sequence,
    split_loop,
    validate_structure,
)
from conftest import random_derivation
from oracles import all_valid_structures


class TestParseSequence:
    def test_bare_string(self):
        seq = parse_sequence("GAAAC")
        assert seq.bases == "GAAAC"
        assert seq.name is None

    def test_fasta_record_lowercase(self):
        seq = parse_sequence(">x\nggau")
        assert seq.bases == "GGAU"
        assert seq.name == "x"

    def test_t_normalized_to_u(self):
        assert parse_sequence("gatc").bases == "GAUC"

    def test_multiline_body(self):
        assert parse_sequence(">r1\nGGG\nAAA\nCCC\n").bases == "GGGAAACCC"

    def test_invalid_character(self):
        with pytest.raises(SequenceError):
            parse_sequence("GXA")

    def test_empty(self):
        with pytest.raises(SequenceError):
            parse_sequence("")
        with pytest.raises(SequenceError):
            parse_sequence(">header only\n")

    def test_second_record_rejected(self):
        with pytest.raises(SequenceError):
            parse_sequence(">a\nGGG\n>b\nCCC")


class TestSecondaryStructure:
    def test_pairs_normalized(self):
        seq = PrimarySequence("GGAAACC")
        canonical = frozenset({BasePair(0, 6), BasePair(1, 5)})
        for given in (
            {(6, 0), (5, 1)},
            [BasePair(0, 6), (1, 5)],
            frozenset({(1, 5), BasePair(0, 6)}),
            frozenset({BasePair(6, 0), BasePair(1, 5)}),
        ):
            s = SecondaryStructure(seq, given)
            assert s.pairs == canonical
            assert type(s.pairs) is frozenset
            assert all(type(p) is BasePair and p.i < p.j for p in s.pairs)


class TestAdmissiblePairs:
    @pytest.mark.parametrize(
        "a,b,expected",
        [("A", "U", True), ("G", "U", True), ("G", "C", True), ("A", "G", False),
         ("A", "A", False), ("C", "U", False)],
    )
    def test_examples(self, a, b, expected):
        assert is_admissible_pair(a, b) is expected

    def test_symmetric(self):
        for a in "ACGU":
            for b in "ACGU":
                assert is_admissible_pair(a, b) == is_admissible_pair(b, a)


class TestValidateStructure:
    def test_nested_pairs_pass(self):
        seq = PrimarySequence("GGAAACC")
        s = SecondaryStructure(seq, {BasePair(0, 6), BasePair(1, 5)})
        assert validate_structure(s, 3).ok

    def test_hairpin_too_small(self):
        seq = PrimarySequence("GAAC")
        s = SecondaryStructure(seq, {BasePair(0, 3)})
        report = validate_structure(s, 3)
        assert report.codes() == ("hairpin-too-small",)

    def test_crossing(self):
        seq = PrimarySequence("GGAAACCUAAG")
        s = SecondaryStructure(seq, {BasePair(0, 6), BasePair(2, 10)})
        assert "crossing" in validate_structure(s, 1).codes()

    def test_position_paired_twice(self):
        seq = PrimarySequence("GGAAACC")
        s = SecondaryStructure(seq, {BasePair(0, 6), BasePair(0, 5)})
        assert "position-paired-twice" in validate_structure(s, 3).codes()

    def test_out_of_range(self):
        seq = PrimarySequence("GAAAC")
        s = SecondaryStructure(seq, {BasePair(0, 9)})
        assert validate_structure(s, 3).codes() == ("index-out-of-range",)

    def test_inadmissible_letters(self):
        seq = PrimarySequence("AAAAA")
        s = SecondaryStructure(seq, {BasePair(0, 4)})
        assert "inadmissible-pair" in validate_structure(s, 3).codes()

    def test_non_innermost_pair_not_hairpin_checked(self):
        # outer pair encloses a paired region, so only the inner pair must
        # satisfy the hairpin minimum
        seq = PrimarySequence("GGGAAACCC")
        s = SecondaryStructure(seq, {BasePair(0, 8), BasePair(2, 6)})
        assert validate_structure(s, 3).ok


class TestDotBracket:
    def test_parse_basic(self):
        seq = PrimarySequence("GGAAACC")
        s = parse_dot_bracket(seq, "((...))")
        assert s.pairs == {BasePair(0, 6), BasePair(1, 5)}

    def test_parse_empty(self):
        seq = PrimarySequence("GAAAC")
        assert parse_dot_bracket(seq, ".....").pairs == frozenset()

    def test_unbalanced(self):
        seq = PrimarySequence("GGAAACC")
        with pytest.raises(StructureError):
            parse_dot_bracket(seq, "((...)")
        with pytest.raises(StructureError):
            parse_dot_bracket(seq, "(...)))")

    def test_length_mismatch(self):
        with pytest.raises(StructureError):
            parse_dot_bracket(PrimarySequence("GAAAC"), "(...)" + ".")

    def test_unknown_character(self):
        with pytest.raises(StructureError):
            parse_dot_bracket(PrimarySequence("GAAAC"), "[...]")

    def test_strict_rejects_invalid(self):
        seq = PrimarySequence("GAC")
        with pytest.raises(StructureError) as exc:
            parse_dot_bracket(seq, "(.)")
        assert any(v.code == "hairpin-too-small" for v in exc.value.violations)

    def test_permissive_builds_fixtures(self):
        seq = PrimarySequence("GAC")
        s = parse_dot_bracket(seq, "(.)", strict=False)
        assert s.pairs == {BasePair(0, 2)}

    def test_emit(self):
        seq = PrimarySequence("GGAAACC")
        s = SecondaryStructure(seq, {BasePair(0, 6), BasePair(1, 5)})
        assert emit_dot_bracket(s) == "((...))"
        assert emit_dot_bracket(SecondaryStructure(PrimarySequence("GAAAC"))) == "....."

    @pytest.mark.parametrize("bases", ["GAAAC", "GGUAAACC", "GGGAAACCC"])
    def test_round_trip_exhaustive(self, bases):
        seq = PrimarySequence(bases)
        for pair_set in all_valid_structures(seq, 1):
            s = SecondaryStructure(seq, pair_set)
            recovered = parse_dot_bracket(seq, emit_dot_bracket(s), min_hairpin_unpaired=1)
            assert recovered.pairs == s.pairs


class TestPairsCross:
    def test_examples(self):
        assert pairs_cross(BasePair(0, 4), BasePair(2, 6))
        assert pairs_cross(BasePair(2, 6), BasePair(0, 4))
        assert not pairs_cross(BasePair(0, 6), BasePair(1, 5))
        assert not pairs_cross(BasePair(0, 2), BasePair(3, 6))

    def test_valid_structures_are_noncrossing_matchings(self):
        seq = PrimarySequence("GCGCGCGC")
        for pair_set in all_valid_structures(seq, 1):
            pairs = sorted(pair_set)
            positions = [p for pair in pairs for p in pair]
            assert len(positions) == len(set(positions))
            for idx, p in enumerate(pairs):
                for q in pairs[idx + 1:]:
                    assert not pairs_cross(p, q)


@given(st.text(alphabet="acgtuACGTU", min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_parse_sequence_normalizes_to_upper_rna(text):
    seq = parse_sequence(text)
    assert set(seq.bases) <= set("ACGU")
    assert len(seq) == len(text)
    # idempotent once normalized
    assert parse_sequence(seq.bases).bases == seq.bases


@pytest.mark.parametrize("min_h", [1, 3], ids=["min1", "min3"])
@given(bases=st.text(alphabet="ACGU", min_size=1, max_size=14), data=st.data())
@settings(max_examples=40, deadline=None)
def test_key_with_pairs_along_derivations(min_h, bases, data):
    # at every structure of a random derivation, each match's target key read
    # off the source key is the key of the built target
    grammar = Grammar(min_hairpin_unpaired=min_h)
    s = SecondaryStructure(PrimarySequence(bases))
    while True:
        matches = enumerate_matches(s, grammar)
        for m in matches:
            built = SecondaryStructure(s.sequence, s.pairs | frozenset(m.added))
            assert key_with_pairs(s.key, m.added) == built.key
        if not matches:
            break
        s = _apply_unchecked(s, data.draw(st.sampled_from(matches)).added)


def _loops_by_closing(loops) -> dict:
    by_closing = {loop.closing: (loop.free, loop.branches) for loop in loops}
    assert len(by_closing) == len(loops)
    return by_closing


def _assert_split_equals_child_view(s: SecondaryStructure, added) -> None:
    # the source's loops with the one holding the new outer pair swapped for
    # split_loop's result are the child's loops, list for list; the source's
    # view is left as it was
    loops = loop_index(s)
    (k,) = [k for k, loop in enumerate(loops) if added[0].i in loop.free]
    split = loops[:k] + split_loop(loops[k], added) + loops[k + 1 :]
    child = _apply_unchecked(s, added)
    assert _loops_by_closing(split) == _loops_by_closing(loop_index(child))
    assert loops == loop_index(s)


GC24 = PrimarySequence("GC" * 12)


@pytest.mark.parametrize(
    "pairs, added, rule",
    [
        # a hairpin in the exterior loop, between two branches
        ([(0, 5), (18, 23)], [(7, 16)], "Hairpin-Rule-1"),
        # a new pair in the exterior loop that encloses three branches
        ([(2, 7), (8, 13), (14, 19)], [(1, 22)], "Multi-branched-loop-Rule-2"),
        # a new pair that encloses two of its loop's three branches
        ([(0, 23), (2, 7), (8, 13), (16, 21)], [(1, 14)], "Multi-branched-loop-Rule-1"),
        # Rule-1 doubles beside a branch of a closed loop
        ([(0, 23), (16, 21)], [(2, 13), (3, 12)], "Helix-Rule-1"),
        ([(0, 23), (16, 21)], [(2, 13), (3, 10)], "Bulge-r-Rule-1"),
        ([(0, 23), (16, 21)], [(2, 13), (5, 12)], "Bulge-l-Rule-1"),
        ([(0, 23), (16, 21)], [(2, 13), (4, 11)], "Internal-loop-Rule-1"),
        # a double whose inner pair encloses a branch, right of another branch
        ([(0, 5), (10, 15)], [(7, 20), (8, 17)], "Bulge-r-Rule-1"),
    ],
    ids=["exterior", "multi-3", "multi-2", "stacked", "bulge-r", "bulge-l", "internal",
         "double-over-branch"],
)
def test_split_loop_fixtures(pairs, added, rule):
    s = SecondaryStructure(GC24, frozenset(BasePair(*p) for p in pairs))
    added = tuple(BasePair(*p) for p in added)
    assert rule in [m.rule.label for m in enumerate_matches(s, Grammar()) if m.added == added]
    _assert_split_equals_child_view(s, added)


@pytest.mark.parametrize("min_h", [1, 3], ids=["min1", "min3"])
@given(bases=st.text(alphabet="ACGU", min_size=1, max_size=16), data=st.data())
@settings(max_examples=40, deadline=None)
def test_split_loop_along_derivations(min_h, bases, data):
    for s, matches in random_derivation(bases, min_h, data):
        for m in matches:
            _assert_split_equals_child_view(s, m.added)
