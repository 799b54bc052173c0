import itertools
import json
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grafold.structure
import oracles
from grafold import space
from grafold.energy import LoopTableModel, NussinovModel, example_parameters
from grafold.grammar import HAIRPIN_1, Grammar, RuleId
from grafold.space import (
    ExploreLimits,
    LTSTransition,
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
from grafold.structure import PrimarySequence, SecondaryStructure, loop_index, validate_structure
from conftest import COMPLETENESS_SEQUENCES, SOUNDNESS_SEQUENCES, ScriptedModel, counting_builds
from oracles import all_valid_structures, built_lts, json_export, nussinov_max_pairs

MODEL = NussinovModel()
G3 = Grammar()
MODELS = {"nussinov": MODEL, "loop-table": LoopTableModel(example_parameters())}


class TestSuccessors:
    def test_single(self, seq_gaaac):
        succ = successors(SecondaryStructure(seq_gaaac), G3)
        assert len(succ) == 1
        assert succ[0][1].key == "(...)"

    def test_terminal_empty(self):
        s = SecondaryStructure(PrimarySequence("AAAA"))
        assert successors(s, G3) == []

    def test_keeps_all_matches(self, seq_gggaaaccc):
        succ = successors(SecondaryStructure(seq_gggaaaccc), G3)
        assert len(succ) == 18  # one per match even when targets repeat


class TestBuildLts:
    def test_gggaaaccc_exactly_twenty_states(self, seq_gggaaaccc):
        lts = build_lts(seq_gggaaaccc, G3, MODEL)
        assert len(lts.states) == 20
        expected = all_valid_structures(seq_gggaaaccc, 3)
        assert {st.structure.pairs for st in lts.states} == expected

    def test_unfoldable(self):
        lts = build_lts(PrimarySequence("AAAA"), G3, MODEL)
        assert len(lts.states) == 1
        assert lts.terminal == {0}
        assert lts.initial == 0

    def test_gaaac(self, seq_gaaac):
        lts = build_lts(seq_gaaac, G3, MODEL)
        assert len(lts.states) == 2
        assert len(lts.transitions) == 1
        assert lts.transitions[0].rule.label == "Hairpin-Rule-1"

    def test_determinism(self, seq_gggaaaccc):
        a = build_lts(seq_gggaaaccc, G3, MODEL)
        b = build_lts(seq_gggaaaccc, G3, MODEL)
        assert [s.key for s in a.states] == [s.key for s in b.states]
        assert a.transitions == b.transitions

    def test_each_state_scored_once(self, seq_gggaaaccc):
        # a target reached again reuses its state's energy
        scored = []
        model = ScriptedModel(default=lambda s: scored.append(s.key) or -1.0)
        lts = build_lts(seq_gggaaaccc, G3, model)
        assert len(lts.transitions) > len(lts.states)
        assert sorted(scored) == sorted(st.key for st in lts.states[1:])

    def test_dag_graded_by_pair_count(self):
        lts = build_lts(alternating_gc_sequence(10), G3, MODEL)
        sizes = {st.index: len(st.structure.pairs) for st in lts.states}
        for t in lts.transitions:
            assert sizes[t.target] > sizes[t.source]

    def test_depth_bound(self):
        for bases in SOUNDNESS_SEQUENCES:
            seq = PrimarySequence(bases)
            lts = build_lts(seq, G3, MODEL)
            assert max(lts.depths) <= len(seq) // 2

    @pytest.mark.parametrize("bases", SOUNDNESS_SEQUENCES)
    def test_reachable_states_valid(self, bases):
        lts = build_lts(PrimarySequence(bases), G3, MODEL)
        for st in lts.states:
            assert validate_structure(st.structure, 3).ok

    @pytest.mark.parametrize("bases", COMPLETENESS_SEQUENCES)
    @pytest.mark.parametrize("min_h", [1, 3], ids=["min1", "min3"])
    def test_reachable_equals_brute_force(self, bases, min_h):
        seq = PrimarySequence(bases)
        lts = build_lts(seq, Grammar(min_hairpin_unpaired=min_h), MODEL)
        reachable = {st.structure.pairs for st in lts.states}
        expected = all_valid_structures(seq, min_h)
        assert reachable == expected


@given(
    bases=st.text(alphabet="ACGU", min_size=1, max_size=9),
    min_h=st.sampled_from([1, 3]),
)
@settings(max_examples=60, deadline=None)
def test_reachability_matches_enumeration_on_random_sequences(bases, min_h):
    seq = PrimarySequence(bases)
    lts = build_lts(seq, Grammar(min_hairpin_unpaired=min_h), MODEL)
    assert {s.structure.pairs for s in lts.states} == all_valid_structures(seq, min_h)


class FakeClock:
    """A stand-in for the ``time`` module whose clock advances one second
    per reading, so a ``max_seconds`` budget ends a build after a fixed
    number of BFS pops."""

    def __init__(self):
        self._ticks = itertools.count()

    def monotonic(self) -> float:
        return float(next(self._ticks))


@given(
    bases=st.text(alphabet="ACGU", min_size=1, max_size=14),
    model=st.sampled_from(sorted(MODELS)),
    min_h=st.sampled_from([1, 3]),
    allow_inverse=st.booleans(),
    max_states=st.sampled_from([None, 1, 2, 7, 40]),
    max_depth=st.sampled_from([None, 1, 2]),
    max_seconds=st.sampled_from([None, 0.5, 3.5, 20.5]),
    energy_ceiling=st.sampled_from([None, -4.0, -1.0, 0.0, 2.5]),
)
@settings(max_examples=150, deadline=None)
def test_build_and_export_equal_the_reference(
    bases, model, min_h, allow_inverse, max_states, max_depth, max_seconds, energy_ceiling
):
    # the keyed build against one that builds and keys every successor, and
    # the written JSON against json.dumps, under every exploration limit
    seq = PrimarySequence(bases)
    g = Grammar(min_hairpin_unpaired=min_h, allow_inverse=allow_inverse)
    limits = ExploreLimits(max_states, max_depth, max_seconds, energy_ceiling)
    with mock.patch.object(space, "time", FakeClock()):
        lts = build_lts(seq, g, MODELS[model], limits)
    with mock.patch.object(oracles, "time", FakeClock()):
        ref = built_lts(seq, g, MODELS[model], limits)
    assert lts == ref
    assert export_lts(lts, "json") == json_export(ref)
    assert export_lts(lts, "dot") == export_lts(ref, "dot")


@pytest.mark.parametrize("energy", [-0.0, 1e-300, -12.25, 1 / 3, 1e22, float("-inf")])
def test_json_energies_written_as_json_writes_them(seq_gaaac, energy):
    lts = build_lts(seq_gaaac, G3, ScriptedModel(default=lambda s: energy))
    assert export_lts(lts, "json") == json_export(lts)


def test_each_new_state_built_once(seq_gggaaaccc):
    # a match whose target key is already indexed builds nothing: one
    # structure per state and one key (the start state's) for the whole build.
    # Only the start state goes through the normalizing constructor
    keyed = []
    emit = grafold.structure.emit_dot_bracket

    def counting_emit(s):
        keyed.append(s)
        return emit(s)

    with counting_builds() as (public, unchecked), \
            mock.patch.object(grafold.structure, "emit_dot_bracket", counting_emit):
        lts = build_lts(seq_gggaaaccc, G3, MODEL)
    assert len(lts.transitions) > len(lts.states) == 20
    assert len(public) == 1
    assert len(public) + len(unchecked) == len(lts.states)
    assert len(keyed) == 1


@pytest.mark.parametrize(
    "bases, model, limits, built_count",
    [
        ("GCGCGCGCGCGCGC", "loop-table", ExploreLimits(energy_ceiling=3.0), 155),
        ("GCGCGCGCGCGCGCGCGC", "nussinov", ExploreLimits(max_states=100), 1259),
    ],
    ids=["energy-ceiling", "max-states"],
)
def test_each_turned_away_target_built_once(bases, model, limits, built_count):
    # a target that a limit turned away is remembered for the build: later
    # matches onto it neither build nor score it again
    seq = PrimarySequence(bases)
    with counting_builds() as (public, unchecked):
        lts = build_lts(seq, G3, MODELS[model], limits)
    built = public + unchecked
    assert lts.truncated_by is not None
    assert len(public) == 1
    assert len(built) == len(set(built)) == built_count
    assert lts == built_lts(seq, G3, MODELS[model], limits)


@pytest.mark.parametrize(
    "bases, model, limits",
    [
        ("GCGCGCGCGCGCGC", "loop-table", ExploreLimits(energy_ceiling=3.0)),
        ("GCGCGCGCGCGCGCGCGC", "nussinov", ExploreLimits(max_states=100)),
        ("CGAUUCAAAUGACG", "nussinov", None),
    ],
    ids=["energy-ceiling", "max-states", "unlimited"],
)
def test_loops_carried_from_the_parent(bases, model, limits):
    # the build works out one loop view, the start state's; every other
    # state's loops come from one split of the loops of the state it was
    # reached from, made only for a target the build keeps, so a target
    # that a limit turned away carries no loops
    seq = PrimarySequence(bases)
    with mock.patch.object(space, "loop_index", wraps=loop_index) as views, \
            mock.patch.object(space, "split_loop", wraps=grafold.structure.split_loop) as splits:
        lts = build_lts(seq, G3, MODELS[model], limits)
    assert [c.args for c in views.call_args_list] == [(lts.states[0].structure,)]
    assert splits.call_count == len(lts.states) - 1
    assert (lts.truncated_by is None) is (limits is None)
    assert lts == built_lts(seq, G3, MODELS[model], limits)


def test_targets_built_with_the_key_read_off_their_source(seq_gggaaaccc):
    # a model that reads keys finds each target's key already there: the
    # build writes one key, the start state's
    keyed = []
    emit = grafold.structure.emit_dot_bracket

    def counting_emit(s):
        keyed.append(s)
        return emit(s)

    with mock.patch.object(grafold.structure, "emit_dot_bracket", counting_emit):
        lts = build_lts(seq_gggaaaccc, G3, ScriptedModel())
    assert len(keyed) == 1
    assert all(st.structure.key == st.key == emit(st.structure) for st in lts.states)


def _loop_ids(structure: SecondaryStructure) -> list[tuple]:
    return [(loop.closing, tuple(loop.branches)) for loop in loop_index(structure)]


@pytest.mark.parametrize(
    "bases, min_h", [("GCGCGCGCGCGCGC", 3), ("CGAUUCAAAUGACG", 1)], ids=["gc-14", "multi"]
)
def test_each_distinct_loop_scanned_once_per_build(bases, min_h):
    # the build scans a loop, named by its closing pair and branches, the
    # first time a state holds it, and never again in that build
    scanned = []
    loop_sites = space._loop_sites

    def counting_loop_sites(bases, min_hairpin, region):
        scanned.append((region.closing, tuple(region.branches)))
        return loop_sites(bases, min_hairpin, region)

    seq, g = PrimarySequence(bases), Grammar(min_hairpin_unpaired=min_h)
    with mock.patch.object(space, "_loop_sites", counting_loop_sites):
        lts = build_lts(seq, g, MODEL)
        per_build = len(scanned)
        assert build_lts(seq, g, MODEL) == lts
    loops = [loop for st in lts.states for loop in _loop_ids(st.structure)]
    assert len(set(scanned[:per_build])) == per_build
    assert set(scanned[:per_build]) == set(loops)
    assert len(loops) > 2 * per_build
    # the memo lives for one build: the second build scans the same loops
    assert scanned[per_build:] == scanned[:per_build]


def test_transition_fields_by_name(seq_gggaaaccc):
    lts = build_lts(seq_gggaaaccc, G3, MODEL)
    for t in lts.transitions:
        assert (t.source, t.target, t.rule, t.matches) == tuple(t)
        assert isinstance(t.rule, RuleId) and t.matches >= 1
    t = LTSTransition(source=0, target=1, rule=HAIRPIN_1, matches=2)
    assert (t.source, t.target, t.rule.label, t.matches) == (0, 1, "Hairpin-Rule-1", 2)


class TestLimits:
    def test_max_states(self):
        seq = alternating_gc_sequence(14)
        lts = build_lts(seq, G3, MODEL, ExploreLimits(max_states=25))
        assert lts.truncated_by == "max_states"
        assert len(lts.states) == 25
        assert not lts.complete

    def test_max_depth(self, seq_gggaaaccc):
        lts = build_lts(seq_gggaaaccc, G3, MODEL, ExploreLimits(max_depth=1))
        assert lts.truncated_by == "max_depth"
        assert max(lts.depths) == 1

    def test_energy_ceiling_prunes_everything(self, seq_gggaaaccc):
        lts = build_lts(seq_gggaaaccc, G3, MODEL, ExploreLimits(energy_ceiling=-10.0))
        assert lts.truncated_by == "energy_ceiling"
        assert len(lts.states) == 1

    def test_time_budget(self):
        seq = alternating_gc_sequence(14)
        lts = build_lts(seq, G3, MODEL, ExploreLimits(max_seconds=1e-9))
        assert lts.truncated_by == "max_seconds"

    def test_limits_must_be_positive(self):
        with pytest.raises(ValueError):
            ExploreLimits(max_states=0)


class TestMinEnergy:
    def test_matches_dp_oracle(self, seq_gggaaaccc):
        lts = build_lts(seq_gggaaaccc, G3, MODEL)
        result = min_energy_state(lts)
        assert lts.states[result.index].key == "(((...)))"
        assert result.energy == -3.0
        assert result.energy == -float(nussinov_max_pairs(seq_gggaaaccc, 3))
        assert result.exact

    def test_matches_dp_oracle_n20(self):
        seq = PrimarySequence("GGGGGAAAAACCCCCAAAAA")
        lts = build_lts(seq, G3, MODEL)
        result = min_energy_state(lts)
        assert result.energy == -float(nussinov_max_pairs(seq, 3)) == -5.0

    def test_no_folded_state(self):
        lts = build_lts(PrimarySequence("AAAA"), G3, MODEL)
        with pytest.raises(NoFoldedStateError):
            min_energy_state(lts)

    def test_tie_breaks_lexicographically(self):
        # two single-pair structures, no two-pair structure: tie at -1.0
        seq = PrimarySequence("GGAAAAC")
        lts = build_lts(seq, G3, MODEL)
        finite = sorted(st.key for st in lts.states if st.structure.pairs)
        assert len(finite) == 2
        result = min_energy_state(lts)
        assert lts.states[result.index].key == min(finite) == "(.....)"

    def test_truncated_flagged_inexact(self):
        seq = alternating_gc_sequence(12)
        lts = build_lts(seq, G3, MODEL, ExploreLimits(max_states=5))
        assert not min_energy_state(lts).exact


class TestStats:
    def test_counts(self, seq_gggaaaccc):
        lts = build_lts(seq_gggaaaccc, G3, MODEL)
        report = stats(lts)
        assert report.states == 20
        # two-pair structures arrive at depth 1 through the two-pair rules
        assert report.depth_histogram == (1, 18, 1)
        assert report.terminal_states == len(lts.terminal)
        assert sum(report.rule_counts.values()) == report.transitions
        assert "states=20" in report.describe()

    def test_fit_undefined_for_single_point(self):
        assert fit_growth_base([4], [1]) is None

    def test_fit_recovers_exact_base(self):
        lengths = [8, 10, 12, 14]
        counts = [int(2.0**n) for n in lengths]
        base = fit_growth_base(lengths, counts)
        assert base == pytest.approx(2.0, rel=1e-3)

    def test_growth_sweep_monotone(self):
        seqs = [alternating_gc_sequence(n) for n in range(8, 13)]
        sweep = growth_sweep(seqs, G3, MODEL)
        counts = [c for _, c in sweep.entries]
        assert counts == sorted(counts)
        assert sweep.base is not None and sweep.base > 1.0
        assert not sweep.truncated


class TestExport:
    def test_dot_two_nodes(self, seq_gaaac):
        lts = build_lts(seq_gaaac, G3, MODEL)
        dot = export_lts(lts, "dot")
        assert dot.count("label=") == 3  # 2 nodes + 1 edge
        assert "Hairpin-Rule-1" in dot
        assert "+inf" in dot

    def test_byte_determinism(self, seq_gggaaaccc):
        lts = build_lts(seq_gggaaaccc, G3, MODEL)
        assert export_lts(lts, "dot") == export_lts(lts, "dot")
        assert export_lts(lts, "json") == export_lts(lts, "json")
        rebuilt = build_lts(seq_gggaaaccc, G3, MODEL)
        assert export_lts(rebuilt, "json") == export_lts(lts, "json")

    def test_json_schema_round_trip(self, seq_gggaaaccc):
        lts = build_lts(seq_gggaaaccc, G3, MODEL)
        doc = json.loads(export_lts(lts, "json"))
        validate_lts_json(doc)
        assert doc["sequence"] == "GGGAAACCC"
        assert doc["states"][0]["energy"] is None  # unfolded state
        assert doc["grammar"] == {"min_hairpin": 3, "allow_inverse": False}
        assert doc["truncated_by"] is None

    def test_json_schema_rejects_bad_docs(self):
        with pytest.raises(ValueError):
            validate_lts_json([])
        with pytest.raises(ValueError):
            validate_lts_json({"sequence": "GA"})

    @pytest.mark.parametrize(
        "edits",
        [
            [(("transitions",), 5)],
            [(("initial",), [0])],
            [(("transitions", 0, "from"), [0])],
            [(("transitions", 0, "to"), {"id": 1})],
            [(("initial",), False)],
            [(("transitions", 0, "from"), False)],
            [(("transitions", 0, "to"), True), (("states", 1, "id"), True)],
            [(("transitions", 0, "matches"), True)],
            [(("grammar", "min_hairpin"), True)],
            [(("states", 0, "id"), False)],
            [(("states", 1, "energy"), True)],
            # what no export writes: a non-finite energy, a rule that is no
            # rule label, a transition made by fewer than one match
            [(("states", 1, "energy"), math.nan)],
            [(("states", 1, "energy"), math.inf)],
            [(("states", 1, "energy"), -math.inf)],
            [(("transitions", 0, "rule"), "bogus")],
            [(("transitions", 0, "matches"), -3)],
        ],
        ids=[
            "transitions-not-a-list", "initial-unhashable", "from-unhashable", "to-unhashable",
            "initial-bool", "from-bool", "to-and-id-bool", "matches-bool", "min-hairpin-bool",
            "id-bool", "energy-bool", "energy-nan", "energy-infinity", "energy-minus-infinity",
            "rule-not-a-label", "matches-negative",
        ],
    )
    def test_json_schema_rejects_ill_typed_fields(self, seq_gggaaaccc, edits):
        # an ill-typed field is a schema mismatch (ValueError), not a
        # TypeError from a set lookup; a JSON true or false is no integer or
        # number, though bool is an int in Python and False == 0 finds id 0
        doc = json.loads(export_lts(build_lts(seq_gggaaaccc, G3, MODEL), "json"))
        for (*where, key), value in edits:
            record = doc
            for step in where:
                record = record[step]
            record[key] = value
        with pytest.raises(ValueError):
            validate_lts_json(doc)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["states"].append(dict(doc["states"][1])),
            lambda doc: doc["states"][2].update(db="((((((((("),
            lambda doc: doc["states"][2].update(db=doc["states"][2]["db"][:-1]),
            lambda doc: doc["states"][2].update(db=doc["states"][2]["db"] + "."),
            lambda doc: doc["states"][2].update(db=")))...((("),
            lambda doc: doc["states"][2].update(db="(((xxx)))"),
        ],
        ids=["repeated-id", "unbalanced-db", "short-db", "long-db", "closed-first-db",
             "foreign-character-db"],
    )
    def test_json_schema_rejects_repeated_ids_and_foreign_dbs(self, seq_gggaaaccc, edit):
        # two states under one id, or a db that is no structure of the
        # sequence (wrong length, brackets that do not balance, characters
        # other than '.()'), is a schema mismatch
        doc = json.loads(export_lts(build_lts(seq_gggaaaccc, G3, MODEL), "json"))
        validate_lts_json(doc)
        edit(doc)
        with pytest.raises(ValueError):
            validate_lts_json(doc)

    def test_unknown_format(self, seq_gaaac):
        lts = build_lts(seq_gaaac, G3, MODEL)
        with pytest.raises(ValueError):
            export_lts(lts, "svg")
