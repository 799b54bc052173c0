import dataclasses
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grafold.grammar import (
    ALL_RULES,
    BULGE_L_2,
    BULGE_R_1,
    BULGE_R_2,
    HAIRPIN_1,
    HELIX_1,
    HELIX_2,
    INTERNAL_2,
    DerivationError,
    GluingError,
    Grammar,
    LoopKind,
    Match,
    RuleId,
    _apply_unchecked,
    _inner_pairs,
    _inverse_steps,
    _loop_sites,
    _rule_moves,
    _site_rule,
    _sites,
    _stacked_pair,
    apply_match,
    derive,
    enumerate_inverse_matches,
    enumerate_matches,
    gluing_check,
    invert_match,
)
from grafold.structure import (
    BasePair,
    PrimarySequence,
    SecondaryStructure,
    StructureError,
    loop_index,
    parse_dot_bracket,
    validate_structure,
)
import grafold.grammar
from oracles import brute_force_matches


G3 = Grammar()
G1 = Grammar(min_hairpin_unpaired=1)


def empty(bases: str) -> SecondaryStructure:
    return SecondaryStructure(PrimarySequence(bases))


class TestRuleSet:
    def test_eleven_rules(self):
        assert len(ALL_RULES) == 11
        assert len(set(ALL_RULES)) == 11

    def test_hairpin_has_no_rule_2(self):
        with pytest.raises(ValueError):
            RuleId(LoopKind.HAIRPIN, 2)
        assert sum(1 for r in ALL_RULES if r.loop_kind is LoopKind.HAIRPIN) == 1

    def test_labels(self):
        assert HAIRPIN_1.label == "Hairpin-Rule-1"
        assert BULGE_L_2.label == "Bulge-l-Rule-2"

    def test_label_and_sort_key_computed_once(self):
        # exports and the transition sort read them for every transition
        for rule in ALL_RULES:
            assert rule.label is rule.label and rule.sort_key is rule.sort_key

    def test_match_arity_enforced(self):
        with pytest.raises(ValueError):
            Match(HAIRPIN_1, (BasePair(0, 4), BasePair(1, 3)))
        with pytest.raises(ValueError):
            Match(HELIX_2, (BasePair(0, 4),))  # missing context
        with pytest.raises(ValueError):
            Match(HELIX_1, (BasePair(0, 6), BasePair(1, 5)), (BasePair(2, 4),))

    def test_match_normalizes_pairs(self):
        # reversed, unsorted, plain-tuple and list input all give the
        # canonical form that enumeration builds directly
        canonical = Match(HELIX_1, (BasePair(0, 6), BasePair(1, 5)))
        assert Match(HELIX_1, ((5, 1), (6, 0))) == canonical
        assert Match(HELIX_1, [BasePair(1, 5), (0, 6)]) == canonical
        assert all(type(p) is BasePair for p in Match(HELIX_1, ((5, 1), (6, 0))).added)
        assert Match(HELIX_2, ((5, 1),), [(6, 0)]).context == (BasePair(0, 6),)


class TestGluingCheck:
    def test_hairpin_on_empty(self):
        m = Match(HAIRPIN_1, (BasePair(0, 4),))
        assert gluing_check(empty("GAAAC"), m, G3)

    def test_hairpin_endpoints_paired(self):
        s = parse_dot_bracket(PrimarySequence("GAAAC"), "(...)")
        m = Match(HAIRPIN_1, (BasePair(0, 4),))
        assert not gluing_check(s, m, G3)

    def test_helix_rule1_on_empty(self):
        m = Match(HELIX_1, (BasePair(0, 6), BasePair(1, 5)))
        assert gluing_check(empty("GGAAACC"), m, G3)

    def test_hairpin_below_minimum(self):
        m = Match(HAIRPIN_1, (BasePair(0, 3),))
        assert not gluing_check(empty("GAAC"), m, G3)
        assert gluing_check(empty("GAAC"), m, G1)

    def test_context_must_exist(self):
        m = Match(HELIX_2, (BasePair(1, 5),), (BasePair(0, 6),))
        assert not gluing_check(empty("GGAAACC"), m, G3)
        s = parse_dot_bracket(PrimarySequence("GGAAACC"), "(.....)", min_hairpin_unpaired=1)
        assert gluing_check(s, m, Grammar(min_hairpin_unpaired=1))

    # alternating G and C: every (even, odd) pair is admissible
    GC12 = PrimarySequence("GCGCGCGCGCGC")

    @pytest.mark.parametrize(
        "pairs,m",
        [
            # crosses the existing pair (0,5)
            ([(0, 5)], Match(HAIRPIN_1, ((2, 7),))),
            # endpoint 0 is already paired
            ([(0, 5)], Match(HAIRPIN_1, ((0, 9),))),
            # out of range at either end
            ([], Match(HAIRPIN_1, ((0, 12),))),
            ([], Match(HAIRPIN_1, ((-1, 4),))),
            # a position paired with itself
            ([], Match(HAIRPIN_1, ((3, 3),))),
            # the context pair (1,10) is absent; (2,7) extends (0,11)
            ([(0, 11)], Match(INTERNAL_2, ((2, 7),), ((1, 10),))),
            # the right site with the wrong rule
            ([(0, 11)], Match(BULGE_R_2, ((2, 7),), ((0, 11),))),
            # outward Rule-2 when the parent loop has a second branch (6,9)
            ([(0, 11), (6, 9)], Match(BULGE_R_2, ((1, 4),), ((0, 11),))),
            # a Rule-1 double whose inner pair is not the outer one's only branch
            ([(6, 9)], Match(BULGE_R_1, ((0, 11), (1, 4)))),
        ],
    )
    def test_rejections(self, pairs, m):
        s = SecondaryStructure(self.GC12, frozenset(BasePair(*p) for p in pairs))
        assert validate_structure(s, 1).ok
        assert not gluing_check(s, m, G1)
        with pytest.raises(GluingError):
            apply_match(s, m, G1)

    @pytest.mark.parametrize(
        "pairs,m",
        [
            ([(0, 5)], Match(HAIRPIN_1, ((6, 9),))),
            ([(0, 11)], Match(INTERNAL_2, ((2, 7),), ((0, 11),))),
            ([(0, 11)], Match(BULGE_R_2, ((1, 4),), ((0, 11),))),
            ([(0, 11), (6, 9)], Match(HAIRPIN_1, ((1, 4),))),
            ([], Match(BULGE_R_1, ((0, 11), (1, 4)))),
        ],
    )
    def test_acceptances_next_to_the_rejections(self, pairs, m):
        s = SecondaryStructure(self.GC12, frozenset(BasePair(*p) for p in pairs))
        assert gluing_check(s, m, G1)
        assert apply_match(s, m, G1).pairs == s.pairs | set(m.added)


class TestInvalidInput:
    @pytest.mark.parametrize(
        "bases,pairs,grammar",
        [
            ("GCGCGCGCGC", [(0, 5), (2, 7)], G1),  # crossing
            ("GCGCGCGCGC", [(0, 5), (0, 9)], G1),  # position 0 paired twice
            ("AAAAAAAAAA", [(0, 5)], G1),  # A-A is inadmissible
            ("GCGCGCGCGC", [(0, 3)], G3),  # hairpin below the grammar's minimum
        ],
    )
    def test_inverse_rejects_invalid_structure(self, bases, pairs, grammar):
        s = SecondaryStructure(PrimarySequence(bases), frozenset(BasePair(*p) for p in pairs))
        with pytest.raises(StructureError):
            enumerate_inverse_matches(s, grammar)

    def test_apply_onto_structure_invalid_under_grammar(self):
        # (0,2) encloses one base: valid under min hairpin 1, not under 3
        s = parse_dot_bracket(PrimarySequence("GACGAAAC"), "(.).....", min_hairpin_unpaired=1)
        m = Match(HAIRPIN_1, (BasePair(3, 7),))
        assert not gluing_check(s, m, G3)
        with pytest.raises(GluingError):
            apply_match(s, m, G3)
        with pytest.raises(DerivationError):
            derive(s, G3, [m])


class TestEnumerateMatches:
    def test_single_hairpin(self):
        matches = enumerate_matches(empty("GAAAC"), G3)
        assert matches == [Match(HAIRPIN_1, (BasePair(0, 4),))]

    def test_no_complementary_letters(self):
        assert enumerate_matches(empty("AAAA"), G3) == []

    def test_gggaaaccc_grid(self, seq_gggaaaccc):
        matches = enumerate_matches(SecondaryStructure(seq_gggaaaccc), G3)
        hairpins = [m for m in matches if m.rule is HAIRPIN_1]
        assert {m.added[0] for m in hairpins} == {
            BasePair(i, j) for i in (0, 1, 2) for j in (6, 7, 8)
        }
        by_rule = {}
        for m in matches:
            by_rule[m.rule.label] = by_rule.get(m.rule.label, 0) + 1
        assert by_rule == {
            "Hairpin-Rule-1": 9,
            "Helix-Rule-1": 4,
            "Bulge-r-Rule-1": 2,
            "Bulge-l-Rule-1": 2,
            "Internal-loop-Rule-1": 1,
        }

    def test_deterministic(self, seq_gggaaaccc):
        s = SecondaryStructure(seq_gggaaaccc)
        assert enumerate_matches(s, G3) == enumerate_matches(s, G3)


class TestOracleEquivalence:
    @pytest.mark.parametrize("bases", ["GAAAC", "GGUAAACC", "GGGAAACCC", "GCGCGCGC"])
    @pytest.mark.parametrize("grammar", [G3, G1], ids=["min3", "min1"])
    def test_empty_structure(self, bases, grammar):
        s = empty(bases)
        assert enumerate_matches(s, grammar) == brute_force_matches(s, grammar)

    def test_partially_folded(self, seq_gggaaaccc):
        s = SecondaryStructure(seq_gggaaaccc)
        # chase a couple of derivation levels and compare at each state
        frontier = [s]
        for _ in range(2):
            next_frontier = []
            for state in frontier:
                assert enumerate_matches(state, G3) == brute_force_matches(state, G3)
                for m in enumerate_matches(state, G3):
                    next_frontier.append(apply_match(state, m, G3))
            frontier = next_frontier[:6]

    @pytest.mark.parametrize(
        "bases,db",
        [
            # exterior runs on both sides of a branch, inner pairs flush with it
            ("UCGUCCCGGGGUC", ".....(.)....."),
            ("UGUUGGCUCGCG", "...(.....).."),
            # a new pair under a closing pair, with and without gaps to it
            ("CUGGUCCGCUC", "..(.(..).)."),
            # a branch right or left of the new pair: no parent-side match
            ("UCGCUGCUCCGGC", ".(......(.))."),
            ("CCCGGCCCGCGGGU", "....((..)....)"),
        ],
    )
    def test_loop_geometry(self, bases, db):
        s = parse_dot_bracket(PrimarySequence(bases), db, min_hairpin_unpaired=1)
        assert enumerate_matches(s, G1) == brute_force_matches(s, G1)

    def test_multibranch_sites(self):
        seq = PrimarySequence("GGAAACAGAAACAAAC")
        s = parse_dot_bracket(seq, ".(...).(...)....")
        matches = enumerate_matches(s, G3)
        assert matches == brute_force_matches(s, G3)
        assert any(m.rule.loop_kind is LoopKind.MULTI for m in matches)

    def test_multibranch_rule2_three_branches(self):
        seq = PrimarySequence("GGAAACGAAACGAAACC")
        s = parse_dot_bracket(seq, ".(...)(...)(...).")
        matches = enumerate_matches(s, G3)
        assert matches == brute_force_matches(s, G3)
        multi2 = [
            m for m in matches
            if m.rule.loop_kind is LoopKind.MULTI and m.rule.variant == 2
        ]
        assert any(m.added == (BasePair(0, 16),) for m in multi2)
        closing = next(m for m in multi2 if m.added == (BasePair(0, 16),))
        assert len(closing.context) == 3

    def test_multibranch_allows_empty_separators(self):
        # branches flush against the closing pair and each other
        seq = PrimarySequence("GGAAACGAAACC")
        s = parse_dot_bracket(seq, ".(...)(...).")
        m = Match(
            RuleId(LoopKind.MULTI, 1),
            (BasePair(0, 11),),
            (BasePair(1, 5), BasePair(6, 10)),
        )
        assert gluing_check(s, m, G3)
        assert apply_match(s, m, G3).key == "((...)(...))"


class TestApplyInvert:
    def test_apply_hairpin(self, seq_gaaac):
        s = SecondaryStructure(seq_gaaac)
        m = Match(HAIRPIN_1, (BasePair(0, 4),))
        t = apply_match(s, m, G3)
        assert t.key == "(...)"
        assert s.pairs == frozenset()

    def test_apply_helix(self):
        m = Match(HELIX_1, (BasePair(0, 6), BasePair(1, 5)))
        assert apply_match(empty("GGAAACC"), m, G3).key == "((...))"

    def test_apply_rechecks_gluing(self, seq_gaaac):
        s = parse_dot_bracket(seq_gaaac, "(...)")
        with pytest.raises(GluingError):
            apply_match(s, Match(HAIRPIN_1, (BasePair(0, 4),)), G3)

    def test_invert_is_inverse(self, seq_gggaaaccc):
        s = SecondaryStructure(seq_gggaaaccc)
        for m in enumerate_matches(s, G3):
            t = apply_match(s, m, G3)
            assert invert_match(t, m) == s
            assert apply_match(invert_match(t, m), m, G3) == t

    def test_invert_missing_pair(self, seq_gaaac):
        s = SecondaryStructure(seq_gaaac)
        with pytest.raises(GluingError, match="not present"):
            invert_match(s, Match(HAIRPIN_1, (BasePair(0, 4),)))


class TestDerive:
    def test_empty_script(self, seq_gaaac):
        s = SecondaryStructure(seq_gaaac)
        assert derive(s, G3, []) == [s]

    def test_six_step_derivation(self):
        # helix growth, then internal loop, bulges and a hairpin, mirroring
        # the classic build-up of a stem with interior decorations
        seq = PrimarySequence("GGGAGGGAGAAACCCACACCC")
        script = [
            Match(HELIX_1, (BasePair(0, 20), BasePair(1, 19))),
            Match(HELIX_2, (BasePair(2, 18),), (BasePair(1, 19),)),
            Match(INTERNAL_2, (BasePair(4, 16),), (BasePair(2, 18),)),
            Match(BULGE_R_2, (BasePair(5, 14),), (BasePair(4, 16),)),
            Match(HAIRPIN_1, (BasePair(8, 12),)),
            Match(BULGE_L_2, (BasePair(6, 13),), (BasePair(8, 12),)),
        ]
        states = derive(SecondaryStructure(seq), G3, script)
        assert len(states) == 7
        assert len(states[-1].pairs) == 7
        assert states[-1].key == "(((.(((.(...))).).)))"
        for state in states:
            assert validate_structure(state, 3).ok

    def test_failing_step_reports_index(self, seq_gggaaaccc):
        s = SecondaryStructure(seq_gggaaaccc)
        script = [
            Match(HAIRPIN_1, (BasePair(2, 6),)),
            Match(HAIRPIN_1, (BasePair(2, 7),)),  # endpoint 2 already paired
        ]
        with pytest.raises(DerivationError) as exc:
            derive(s, G3, script)
        assert exc.value.index == 1


class TestInverseEnumeration:
    def test_round_trip(self, seq_gggaaaccc):
        s = parse_dot_bracket(seq_gggaaaccc, "(((...)))")
        for m, source in enumerate_inverse_matches(s, G3):
            assert apply_match(source, m, G3) == s

    def test_duality_with_forward(self, seq_gggaaaccc):
        # t appears as an inverse source of s exactly when s is a forward
        # successor of t
        start = SecondaryStructure(seq_gggaaaccc)
        reachable = {start.key: start}
        frontier = [start]
        while frontier:
            nxt = []
            for state in frontier:
                for m in enumerate_matches(state, G3):
                    t = apply_match(state, m, G3)
                    if t.key not in reachable:
                        reachable[t.key] = t
                        nxt.append(t)
            frontier = nxt
        forward = {
            (src.key, apply_match(src, m, G3).key, m)
            for src in reachable.values()
            for m in enumerate_matches(src, G3)
        }
        backward = {
            (source.key, s.key, m)
            for s in reachable.values()
            for m, source in enumerate_inverse_matches(s, G3)
        }
        assert backward == forward


class TestMonotonicityAndSoundness:
    def test_reachable_structures_validate(self, seq_gggaaaccc):
        start = SecondaryStructure(seq_gggaaaccc)
        seen = {start.key}
        frontier = [start]
        while frontier:
            nxt = []
            for state in frontier:
                for m in enumerate_matches(state, G3):
                    t = apply_match(state, m, G3)
                    assert len(t.pairs) - len(state.pairs) in (1, 2)
                    assert validate_structure(t, 3).ok
                    if t.key not in seen:
                        seen.add(t.key)
                        nxt.append(t)
            frontier = nxt
        assert len(seen) == 20


@given(st.text(alphabet="ACGU", min_size=1, max_size=10))
@settings(max_examples=40, deadline=None)
def test_every_enumerated_match_applies_validly(bases):
    s = empty(bases)
    for m in enumerate_matches(s, G3):
        t = apply_match(s, m, G3)
        assert validate_structure(t, 3).ok


@pytest.mark.parametrize("grammar", [G1, G3], ids=["min1", "min3"])
@given(bases=st.text(alphabet="ACGU", min_size=1, max_size=12), data=st.data())
@settings(max_examples=40, deadline=None)
def test_enumeration_equals_brute_force_along_derivations(grammar, bases, data):
    # the loop-indexed scan against the per-site gluing predicate, at every
    # structure of a random derivation down to a terminal one
    s = empty(bases)
    while True:
        matches = enumerate_matches(s, grammar)
        assert matches == brute_force_matches(s, grammar)
        if not matches:
            break
        s = apply_match(s, data.draw(st.sampled_from(matches)), grammar)


@pytest.mark.parametrize("grammar", [G1, G3], ids=["min1", "min3"])
@given(bases=st.text(alphabet="ACGU", min_size=1, max_size=12), data=st.data())
@settings(max_examples=40, deadline=None)
def test_loop_moves_merge_to_the_matches_along_derivations(grammar, bases, data):
    # each loop's moves, classified on their own, join unpaired positions of
    # that loop and come in match order; sorted together as (rule position,
    # added) like the folding-space build sorts them, they are the
    # structure's matches without their context
    s = empty(bases)
    while True:
        per_loop = []
        for loop in loop_index(s):
            moves = list(_rule_moves(bases, _loop_sites(bases, grammar.min_hairpin_unpaired, loop)))
            assert all(set(added[0]) <= set(loop.free) for _, added, _ in moves)
            assert moves == sorted(moves)
            per_loop.append([(at, added) for at, added, _ in moves])
        merged = sorted([move for moves in per_loop for move in moves])
        matches = enumerate_matches(s, grammar)
        assert merged == [(ALL_RULES.index(m.rule), m.added) for m in matches]
        if not matches:
            break
        s = apply_match(s, data.draw(st.sampled_from(matches)), grammar)


@pytest.mark.parametrize("grammar", [G1, G3], ids=["min1", "min3"])
@given(bases=st.text(alphabet="ACGU", min_size=1, max_size=12), data=st.data())
@settings(max_examples=40, deadline=None)
def test_site_pairs_are_base_pairs_along_derivations(grammar, bases, data):
    # the scan builds its pairs without the namedtuple's own constructor:
    # each outer, inner and stacked pair is a BasePair equal to, and hashing
    # as, the one BasePair(i, j) builds, and each site's ranges are the
    # unpaired run after a, cut at b - 1, and the run before b, cut at a + 1
    s = empty(bases)
    while True:
        for loop in loop_index(s):
            free = set(loop.free)
            for site in _loop_sites(bases, grammar.min_hairpin_unpaired, loop):
                (a, b), _, _, c_hi, d_lo, _ = site
                a_end, b_start = a, b
                while a_end + 1 in free:
                    a_end += 1
                while b_start - 1 in free:
                    b_start -= 1
                assert (c_hi, d_lo) == (min(a_end, b - 1), max(b_start, a + 1))
                stacked = _stacked_pair(bases, site)
                inner = _inner_pairs(bases, site)
                assert stacked is None or stacked in inner
                for pair in [site[0], *inner]:
                    want = BasePair(pair[0], pair[1])
                    assert type(pair) is BasePair and pair == want and hash(pair) == hash(want)
                    assert (pair.i, pair.j) == (want.i, want.j)
        matches = enumerate_matches(s, grammar)
        if not matches:
            break
        s = apply_match(s, data.draw(st.sampled_from(matches)), grammar)


@pytest.mark.parametrize("db", ["..........", "((....))..........", "(((...)))............"])
def test_hairpins_taken_without_classifying_the_other_moves(monkeypatch, db):
    # the hairpins are read straight off the sites; the pass that walks the
    # inner pairs of the doubles starts only when a reader asks past them
    s = parse_dot_bracket(PrimarySequence("GGGAAACCCUUGGGAAACCCA"[: len(db)]), db)
    sites = _sites(s, G3, loop_index(s))
    hairpins = sum(1 for site in sites if not site[1])
    walked = []
    inner_pairs = grafold.grammar._inner_pairs

    def walk(bases, site):
        walked.append(site)
        return inner_pairs(bases, site)

    monkeypatch.setattr(grafold.grammar, "_inner_pairs", walk)
    moves = _rule_moves(s.sequence.bases, sites)
    taken = [next(moves) for _ in range(hairpins)]
    assert hairpins and [at for at, _, _ in taken] == [0] * hairpins
    assert walked == []
    taken += moves
    assert walked
    assert taken == [
        (ALL_RULES.index(m.rule), m.added, m.context) for m in enumerate_matches(s, G3)
    ]


@pytest.mark.parametrize("grammar", [G1, G3], ids=["min1", "min3"])
@given(bases=st.text(alphabet="ACGU", min_size=1, max_size=12), data=st.data())
@settings(max_examples=40, deadline=None)
def test_inverse_matches_dual_to_forward_along_derivations(grammar, bases, data):
    # at every structure s of a random derivation, the inverse moves are the
    # forward matches, from s without R, that add exactly R: one pair or two
    # nested pairs of s. The lazy generator lists them in the same order:
    # labelled by rule and built by removing their pairs, its steps are the
    # (label, source) list of the (match, source) pairs
    s = empty(bases)
    while True:
        pairs = s.sorted_pairs
        removals = [(p,) for p in pairs]
        removals += [(p, q) for p, q in combinations(pairs, 2) if q.j < p.j]
        want = [
            (m, source)
            for removed in removals
            for source in (s.without(removed),)
            for m in enumerate_matches(source, grammar)
            if m.added == removed
        ]
        want.sort(key=lambda item: item[0].sort_key)
        assert enumerate_inverse_matches(s, grammar) == want
        assert [
            (f"inverse:{ALL_RULES[at].label}", s.without(removed))
            for at, removed, _ in _inverse_steps(loop_index(s))
        ] == [(f"inverse:{m.rule.label}", source) for m, source in want]
        matches = enumerate_matches(s, grammar)
        if not matches:
            break
        s = apply_match(s, data.draw(st.sampled_from(matches)), grammar)


def first_match_yielding(t: SecondaryStructure, added) -> Match:
    """The first, in rule order, of the matches that yield ``t`` by adding
    ``added``: the first inverse move of ``t`` that removes them, read off
    the loops of ``t``."""
    # a structure valid under the grammar is valid under the weakest one
    return next(m for m, _ in enumerate_inverse_matches(t, G1) if m.added == added)


@pytest.mark.parametrize("grammar", [G1, G3], ids=["min1", "min3"])
@given(bases=st.text(alphabet="ACGU", min_size=1, max_size=12), data=st.data())
@settings(max_examples=40, deadline=None)
def test_site_match_is_the_first_match_along_derivations(grammar, bases, data):
    # the rule read off the source's site of a move's outer pair is that of
    # the first match, in rule order, of those that add the move's pairs:
    # the one enumerate_matches lists first, and the first the loops of the
    # target give
    s = empty(bases)
    while True:
        sites = {site[0]: site for site in _sites(s, grammar, loop_index(s))}
        matches = enumerate_matches(s, grammar)
        first: dict[tuple, Match] = {}
        for m in matches:
            first.setdefault(m.added, m)
        for added, m in first.items():
            target = _apply_unchecked(s, added)
            site = sites[added[0]]
            assert m == first_match_yielding(target, added)
            assert ALL_RULES[_site_rule(bases, site, added)] == m.rule
        if not matches:
            break
        s = apply_match(s, data.draw(st.sampled_from(matches)), grammar)


def test_outward_rule2_move_comes_before_the_inward_one_of_its_rule():
    # (1,8) stacks both on the pair outside it and on the pair inside it:
    # two Helix-Rule-2 matches add or remove it, and the one whose context
    # is the outer pair comes first, forward and inverse
    seq = PrimarySequence("GGGAAAACCC")
    middle, outer, inner = BasePair(1, 8), BasePair(0, 9), BasePair(2, 7)
    want = [Match(HELIX_2, (middle,), (outer,)), Match(HELIX_2, (middle,), (inner,))]
    s = parse_dot_bracket(seq, "(((....)))")
    assert [m for m, _ in enumerate_inverse_matches(s, G3) if m.added == (middle,)] == want
    steps = [
        Match(ALL_RULES[at], removed, context)
        for at, removed, context in _inverse_steps(loop_index(s))
        if removed == (middle,)
    ]
    assert steps == want
    source = s.without((middle,))
    assert [m for m in enumerate_matches(source, G3) if m.added == (middle,)] == want
    site = next(site for site in _sites(source, G3, loop_index(source)) if site[0] == middle)
    assert want[0] == first_match_yielding(s, (middle,))
    assert ALL_RULES[_site_rule(seq.bases, site, (middle,))] == HELIX_2


@pytest.mark.parametrize("grammar", [G1, G3], ids=["min1", "min3"])
@given(bases=st.text(alphabet="ACGU", min_size=1, max_size=12), data=st.data())
@settings(max_examples=40, deadline=None)
def test_enumerated_matches_equal_checked_matches_along_derivations(grammar, bases, data):
    # the enumerator builds its matches without Match.__post_init__; each
    # must be the match the checked constructor builds from its fields
    s = empty(bases)
    while True:
        matches = enumerate_matches(s, grammar)
        for m in matches:
            checked = Match(m.rule, m.added, m.context)
            assert m == checked and hash(m) == hash(checked)
            for got, want in ((m.added, checked.added), (m.context, checked.context)):
                assert type(got) is tuple and got == want
                assert all(type(pair) is BasePair for pair in got)
            wrong_arity = m.added[:1] if len(m.added) == 2 else m.added + (BasePair(0, s.n),)
            with pytest.raises(ValueError):
                dataclasses.replace(m, added=wrong_arity)
        if not matches:
            break
        s = apply_match(s, data.draw(st.sampled_from(matches)), grammar)
