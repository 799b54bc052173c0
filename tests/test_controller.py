import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grafold.controller import (
    AdaptiveMachine,
    Constraint,
    Controller,
    MachineConfigError,
    MachineState,
    RunLimits,
    StrategyContext,
    StrategyDecision,
    UnknownStrategyError,
    _get_strategy,
    register_strategy,
    run,
)
from grafold.energy import LoopTableModel, NussinovModel, example_parameters, observable
from grafold.grammar import (
    Grammar,
    _sites,
    apply_match,
    enumerate_inverse_matches,
    enumerate_matches,
)
from grafold.space import successors
from grafold.structure import (
    PrimarySequence,
    SecondaryStructure,
    emit_dot_bracket,
    loop_index,
    parse_dot_bracket,
    validate_structure,
)
import grafold.controller
from conftest import (
    EXAMPLE_MACHINE,
    ScriptedModel,
    counting_builds,
    psi_machine,
    random_derivation,
    trap_model,
)
from oracles import EagerController, phi0_select

G3 = Grammar()
NUSSINOV = NussinovModel()
MODELS = {"nussinov": NUSSINOV, "loop-table": LoopTableModel(example_parameters())}
MACHINES = {
    "default": AdaptiveMachine.default(),
    "example": EXAMPLE_MACHINE,
    "psi-strategy": psi_machine(),
}


def labelled_steps(structure, grammar=G3):
    """The forward steps of ``structure`` as (rule label, target), from the
    public successor enumeration."""
    return [(m.rule.label, t) for m, t in successors(structure, grammar)]


def make_context(structure, model, grammar=G3, best=None, params=None):
    """A strategy context built outside a run, from the public successor
    enumeration and the plain observable."""
    return StrategyContext(
        structure=structure,
        energy=observable(structure, model),
        s_state="w0",
        successors=labelled_steps(structure, grammar),
        successors_of=lambda s: labelled_steps(s, grammar),
        score=lambda s: observable(s, model),
        best=best,
        params=params or {},
    )


def check(constraint, structure, model):
    """The controller's constraint check at ``structure``, outside a run."""
    return Controller(model=model)._check(constraint, structure, "w0")


class TestPhi0Select:
    """The phi0 oracle itself, on hand-scored successors."""

    def test_picks_unique_minimum(self):
        seq = PrimarySequence("GGAAACC")
        empty = SecondaryStructure(seq)
        succs = successors(empty, G3)
        model = ScriptedModel({".(...).": 2.6}, default=lambda s: 4.8)
        chosen = phi0_select(empty, succs, model)
        assert chosen is not None
        assert chosen[1].key == ".(...)."

    def test_absent_when_only_successor_is_higher(self):
        seq = PrimarySequence("GGAAACC")
        s = parse_dot_bracket(seq, ".(...).")
        model = ScriptedModel({".(...).": 2.6, "((...))": 3.9})
        succs = successors(s, G3)
        assert [t.key for _, t in succs] == ["((...))"]
        assert phi0_select(s, succs, model) is None

    def test_absent_on_empty_successors(self):
        s = SecondaryStructure(PrimarySequence("AAAA"))
        assert phi0_select(s, [], NUSSINOV) is None

    def test_tie_breaks_on_smallest_key(self, seq_gggaaaccc):
        empty = SecondaryStructure(seq_gggaaaccc)
        chosen = phi0_select(empty, successors(empty, G3), NUSSINOV)
        assert chosen is not None
        assert chosen[1].key == "((....))."  # smallest among the -2.0 targets

    def test_equal_observable_is_accepted(self):
        seq = PrimarySequence("GAAAC")
        s = SecondaryStructure(seq)
        model = ScriptedModel(default=lambda s: 0.0)
        # successor observable 0.0 vs +inf current
        assert phi0_select(s, successors(s, G3), model) is not None


class TestCheckConstraint:
    """The controller's one constraint evaluator."""

    def test_true_always_satisfied(self):
        decision = check(Constraint.true(), SecondaryStructure(PrimarySequence("AAAA")), NUSSINOV)
        assert decision.satisfied and decision.target is None

    def test_phi0_unsatisfied_at_local_minimum(self, seq_gggaaaccc):
        trap = parse_dot_bracket(seq_gggaaaccc, "..(...)..")
        assert not check(Constraint.phi0(), trap, trap_model()).satisfied

    def test_phi0_witness(self, seq_gggaaaccc):
        empty = SecondaryStructure(seq_gggaaaccc)
        decision = check(Constraint.phi0(), empty, NUSSINOV)
        assert decision.satisfied
        assert decision.target.key == "((....))."
        assert decision.move == "Helix-Rule-1"
        assert decision.target == phi0_select(empty, successors(empty, G3), NUSSINOV)[1]

    def test_unregistered_strategy(self):
        with pytest.raises(UnknownStrategyError):
            check(
                Constraint.of_strategy("frobnicate"),
                SecondaryStructure(PrimarySequence("GAAAC")),
                NUSSINOV,
            )

    def test_registered_strategy_receives_params(self):
        seen = {}

        def probe(ctx):
            seen.update(ctx.params)
            return StrategyDecision(satisfied=False)

        register_strategy("probe-test", probe)
        check(
            Constraint.of_strategy("probe-test", knob=7),
            SecondaryStructure(PrimarySequence("GAAAC")),
            NUSSINOV,
        )
        assert seen == {"knob": 7}


class TestMachineConfig:
    def test_default_machine(self):
        machine = AdaptiveMachine.default()
        w0 = machine.state("w0")
        assert w0.constraint.kind == "phi0"
        assert w0.transitions == (("w0", Constraint.true()),)

    def test_from_config(self):
        machine = AdaptiveMachine.from_config(
            {
                "initial": "w0",
                "states": [
                    {"id": "w0", "constraint": "phi0"},
                    {"id": "w1", "constraint": {"strategy": "lookahead", "params": {"depth": 3}}},
                ],
                "transitions": [
                    {"from": "w0", "to": "w1"},
                    {"from": "w1", "to": "w0", "psi": "true"},
                ],
            }
        )
        w1 = machine.state("w1")
        assert w1.constraint.strategy == "lookahead"
        assert w1.constraint.params_dict == {"depth": 3}
        assert machine.state("w0").transitions[0][0] == "w1"

    def test_from_packaged_example(self):
        from importlib import resources

        with resources.as_file(
            resources.files("grafold").joinpath("data/example_machine.json")
        ) as path:
            machine = AdaptiveMachine.from_file(path)
        assert {st.id for st in machine.states} == {"w0", "w1"}
        assert machine.initial == "w0"

    def test_bad_configs(self):
        with pytest.raises(MachineConfigError):
            AdaptiveMachine.from_config({"states": [], "initial": "w0"})
        with pytest.raises(MachineConfigError):
            AdaptiveMachine.from_config(
                {"initial": "nope", "states": [{"id": "w0", "constraint": "phi0"}]}
            )
        with pytest.raises(MachineConfigError):
            AdaptiveMachine.from_config(
                {
                    "initial": "w0",
                    "states": [{"id": "w0", "constraint": "phi0"}],
                    "transitions": [{"from": "w0", "to": "ghost"}],
                }
            )
        with pytest.raises(MachineConfigError, match="'ghost' -> 'w0' references unknown state"):
            AdaptiveMachine.from_config(
                {
                    "initial": "w0",
                    "states": [{"id": "w0", "constraint": "phi0"}],
                    "transitions": [{"from": "ghost", "to": "w0"}],
                }
            )

    def test_initial_state_must_be_greedy(self):
        machine = AdaptiveMachine(
            (MachineState("w0", Constraint.true()),), "w0"
        )
        with pytest.raises(MachineConfigError, match="phi0"):
            Controller(machine)

    def test_transitions_must_be_a_list(self):
        with pytest.raises(MachineConfigError, match="transitions"):
            AdaptiveMachine.from_config(
                {
                    "initial": "w0",
                    "states": [{"id": "w0", "constraint": "phi0"}],
                    "transitions": 5,
                }
            )

    def test_state_id_must_be_a_string(self):
        with pytest.raises(MachineConfigError, match="bad state record"):
            AdaptiveMachine.from_config(
                {"initial": "w0", "states": [{"id": ["w0"], "constraint": "phi0"}]}
            )

    def test_strategy_param_called_name(self):
        constraint = Constraint.from_config({"strategy": "lookahead", "params": {"name": 1}})
        assert constraint.strategy == "lookahead"
        assert constraint.params_dict == {"name": 1}

    def test_constraint_parsing(self):
        assert Constraint.from_config("phi0") == Constraint.phi0()
        assert Constraint.from_config("true") == Constraint.true()
        assert Constraint.from_config("lookahead") == Constraint.of_strategy("lookahead")
        with pytest.raises(MachineConfigError):
            Constraint.from_config(42)


class TestSteadyStep:
    def test_first_step_on_gggaaaccc(self, seq_gggaaaccc):
        controller = Controller(model=NUSSINOV)
        trace = controller.run(seq_gggaaaccc)
        first_move = trace.records[1]
        assert first_move.db == "((....))."
        assert first_move.energy == -2.0
        assert first_move.mode == "steady"

    def test_terminal_signals_adaptation(self, seq_gggaaaccc):
        controller = Controller(model=NUSSINOV)
        controller.run(seq_gggaaaccc)  # ends exhausted at a terminal structure
        assert controller.steady_step() is False

    def test_true_state_takes_first_unvisited_forward_move(self, seq_gggaaaccc):
        # phi0 fails at the trap, which still has forward moves; the
        # adaptation phase resumes there in the "true" state w1, whose
        # steady moves then take the first unvisited successor, in match
        # order, until a terminal structure
        w0 = MachineState("w0", Constraint.phi0(), (("w1", Constraint.true()),))
        w1 = MachineState("w1", Constraint.true())
        trace = run(AdaptiveMachine((w0, w1), "w0"), seq_gggaaaccc, model=trap_model())
        resumed = next(k for k, r in enumerate(trace.records) if r.s_state == "w1")
        assert trace.records[resumed].db == "..(...).."
        moves = trace.records[resumed + 1:]
        assert moves and all(r.s_state == "w1" and r.mode == "steady" for r in moves)
        for k, record in enumerate(moves, start=resumed + 1):
            visited = {r.db for r in trace.records[:k]}
            source = parse_dot_bracket(seq_gggaaaccc, trace.records[k - 1].db)
            want = next(
                (m.rule.label, t.key)
                for m, t in successors(source, G3)
                if t.key not in visited
            )
            assert (record.move, record.db) == want
        assert not successors(parse_dot_bracket(seq_gggaaaccc, moves[-1].db), G3)
        assert trace.summary.termination == "no-adaptation-targets"


class TestAdaptationScenario:
    """A one-pair minimum whose sole useful continuation regains greedy
    progress one step later: adaptation must last exactly one move."""

    def test_one_step_adaptation(self, seq_gggaaaccc):
        controller = Controller(model=trap_model())
        trace = controller.run(seq_gggaaaccc)
        adapting = [r for r in trace.records if r.mode == "adapting"]
        assert len(adapting) == 1
        assert adapting[0].db == ".((...))."
        assert adapting[0].move == "Helix-Rule-2"
        # the trace walks: empty -> trap -> (adapt) -> resume -> optimum
        keys = [r.db for r in trace.records]
        assert keys == [
            ".........",
            "..(...)..",
            ".((...)).",
            ".((...)).",
            "(((...)))",
        ]
        resume = trace.records[3]
        assert resume.mode == "steady" and resume.note == "adaptation-complete:w0->w0"
        assert trace.summary.final_db == "(((...)))"
        assert trace.summary.best_energy == -2.0
        assert trace.summary.best_db == "..(...).."

    def test_terminal_without_inverse_terminates(self):
        trace = run(None, PrimarySequence("GAAAC"))
        assert trace.summary.termination == "exhausted"
        assert trace.summary.final_db == "(...)"

    def test_depth_limit_zero_terminates_with_best(self, seq_gggaaaccc):
        limits = RunLimits(max_adaptation_depth=0)
        trace = run(None, seq_gggaaaccc, model=trap_model(), limits=limits)
        assert trace.summary.termination == "adaptation-depth-limit"
        assert trace.summary.final_db == "..(...).."
        assert trace.summary.best_energy == -2.0

    @pytest.mark.parametrize("bases, final_db", [("AAAA", "...."), ("GGGAAACCC", "((....)).")])
    def test_depth_limit_without_moves_ends_exhausted(self, bases, final_db):
        # the adaptation search starts at a structure with no forward move,
        # and inverse moves are off: a depth limit cuts no move off, so the
        # run ends as it does without the limit
        seq = PrimarySequence(bases)
        limited = run(None, seq, limits=RunLimits(max_adaptation_depth=0))
        assert limited.summary.termination == "exhausted"
        assert limited.summary.final_db == final_db
        assert limited.to_jsonl() == run(None, seq).to_jsonl()


class TestRun:
    def test_gggaaaccc_nussinov(self, seq_gggaaaccc):
        trace = run(None, seq_gggaaaccc, model=NUSSINOV)
        # the greedy first move lands in a -2.0 terminal trap
        assert trace.summary.final_db == "((....))."
        assert trace.summary.best_energy == -2.0
        assert trace.summary.termination == "exhausted"

    def test_aaaa_trace_length_one(self):
        trace = run(None, PrimarySequence("AAAA"))
        assert len(trace.records) == 1
        assert math.isinf(trace.summary.best_energy)
        assert trace.summary.final_db == "...."

    def test_gaaac(self, seq_gaaac):
        trace = run(None, seq_gaaac)
        assert [r.db for r in trace.records] == [".....", "(...)"]
        assert trace.summary.best_energy == -1.0

    def test_steady_observables_non_increasing(self, seq_gggaaaccc):
        # adaptation may raise the observable; uninterrupted steady
        # stretches never do
        for model in (NUSSINOV, trap_model()):
            trace = run(None, seq_gggaaaccc, model=model)
            for a, b in zip(trace.records, trace.records[1:]):
                if a.mode == "steady" and b.mode == "steady":
                    assert b.energy <= a.energy or math.isinf(a.energy)

    def test_best_seen_is_min_over_records(self, seq_gggaaaccc):
        trace = run(None, seq_gggaaaccc, model=trap_model())
        finite = [r.energy for r in trace.records if math.isfinite(r.energy)]
        assert trace.summary.best_energy == min(finite)

    def test_determinism(self, seq_gggaaaccc):
        a = run(None, seq_gggaaaccc, model=trap_model())
        b = run(None, seq_gggaaaccc, model=trap_model())
        assert a.to_jsonl() == b.to_jsonl()

    def test_max_steps(self, seq_gggaaaccc):
        trace = run(None, seq_gggaaaccc, limits=RunLimits(max_steps=0))
        assert trace.summary.termination == "max-steps"
        assert len(trace.records) == 1

    def test_trace_jsonl_round_trips(self, seq_gggaaaccc):
        trace = run(None, seq_gggaaaccc, model=trap_model())
        lines = trace.to_jsonl().strip().split("\n")
        records = [json.loads(line) for line in lines]
        assert records[0]["energy"] is None  # +inf encodes as null
        assert records[-1]["summary"]["final_db"] == trace.summary.final_db
        assert len(records) == len(trace.records) + 1


class TestInverseMoves:
    def test_backtracking_reaches_the_optimum(self, seq_gggaaaccc):
        g = Grammar(allow_inverse=True)
        trace = run(None, seq_gggaaaccc, grammar=g, model=NUSSINOV)
        assert trace.summary.best_energy == -3.0
        assert trace.summary.best_db == "(((...)))"
        assert any(
            r.move and r.move.startswith("inverse:") for r in trace.records
        )
        assert trace.summary.termination == "exhausted"

    def test_all_visited_structures_valid(self, seq_gggaaaccc):
        g = Grammar(allow_inverse=True)
        trace = run(None, seq_gggaaaccc, grammar=g, model=NUSSINOV)
        for record in trace.records:
            s = parse_dot_bracket(seq_gggaaaccc, record.db)
            assert validate_structure(s, 3).ok

    def test_plateau_terminates(self, seq_gggaaaccc):
        # constant observable: the visited-set guard must prevent cycling
        model = ScriptedModel(default=lambda s: -1.0)
        g = Grammar(allow_inverse=True)
        trace = run(None, seq_gggaaaccc, grammar=g, model=model)
        assert trace.summary.termination == "exhausted"
        steady_moves = [r for r in trace.records[1:] if r.mode == "steady" and r.move]
        assert len({r.db for r in steady_moves}) == len(steady_moves)


@pytest.mark.parametrize(
    "model, machine",
    [
        pytest.param(model, machine, id=model if machine == "default" else f"{model}-{machine}")
        for machine in sorted(MACHINES)
        for model in sorted(MODELS)
    ],
)
@given(bases=st.text(alphabet="ACGU", min_size=1, max_size=14))
@settings(max_examples=40, deadline=None)
def test_allow_inverse_trace_invariants(machine, model, bases):
    # inverse moves on the default machine, the packaged example machine
    # (a lookahead strategy state) and a machine with a strategy ψ: steady
    # φ0 moves never raise the energy, every move is a forward or inverse
    # match of the structure it leaves, and the summary's best is the least
    # record
    seq = PrimarySequence(bases)
    g = Grammar(allow_inverse=True)
    s_machine = MACHINES[machine]
    trace = run(s_machine, seq, grammar=g, model=MODELS[model], limits=RunLimits(max_steps=40))
    records = trace.records
    for prev, rec in zip(records, records[1:]):
        if rec.move is None:
            continue
        if rec.mode == "steady" and s_machine.state(rec.s_state).constraint == Constraint.phi0():
            assert rec.energy <= prev.energy
        before = parse_dot_bracket(seq, prev.db)
        if rec.move.startswith("inverse:"):
            moves = {
                (f"inverse:{m.rule.label}", source.key)
                for m, source in enumerate_inverse_matches(before, g)
            }
        else:
            moves = {
                (m.rule.label, apply_match(before, m, g).key)
                for m in enumerate_matches(before, g)
            }
        assert (rec.move, rec.db) in moves
    assert trace.summary.best_energy == min(r.energy for r in records)
    if math.isfinite(trace.summary.best_energy):
        best = min((r.energy, r.db) for r in records)
        assert (trace.summary.best_energy, trace.summary.best_db) == best


def _lazy_and_eager(bases, grammar, model, machine, limits):
    seq = PrimarySequence(bases)
    lazy = Controller(machine, grammar, model, limits).run(seq)
    eager = EagerController(machine, grammar, model, limits).run(seq)
    return lazy, eager


class TestLazyAdaptation:
    """The adaptation BFS builds a child only when the search takes it; the
    fully expanded BFS of oracles.EagerController gives the same runs."""

    @given(
        bases=st.text(alphabet="ACGU", min_size=1, max_size=16),
        min_hairpin=st.sampled_from([1, 3]),
        model=st.sampled_from(sorted(MODELS)),
        allow_inverse=st.booleans(),
        machine=st.sampled_from(sorted(MACHINES)),
        max_states=st.sampled_from([None, 1, 2, 3, 5, 10]),
        max_depth=st.sampled_from([None, 0, 1, 2]),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_run_as_eager_bfs(
        self, bases, min_hairpin, model, allow_inverse, machine, max_states, max_depth
    ):
        lazy, eager = _lazy_and_eager(
            bases,
            Grammar(min_hairpin_unpaired=min_hairpin, allow_inverse=allow_inverse),
            MODELS[model],
            MACHINES[machine],
            RunLimits(
                max_steps=40, max_adaptation_states=max_states, max_adaptation_depth=max_depth
            ),
        )
        assert lazy.to_jsonl() == eager.to_jsonl()
        assert lazy.summary.termination == eager.summary.termination

    @pytest.mark.parametrize(
        "bases, min_hairpin, allow_inverse, machine, model, max_states, max_depth",
        [
            ("AUUGUUAUG", 1, True, "default", "loop-table", 5, None),
            ("AGAUACCAUGGCCC", 3, True, "default", "loop-table", 3, None),
            ("GAAUAGGCUACAUA", 3, True, "psi-strategy", "loop-table", 3, None),
            ("UCUCAUGUAGCCAGA", 1, True, "example", "nussinov", 3, 1),
            ("GCGCAACCCUGAG", 3, False, "example", "loop-table", 1, 2),
        ],
    )
    def test_state_limit_truncates_where_eager_bfs_does(
        self, bases, min_hairpin, allow_inverse, machine, model, max_states, max_depth
    ):
        lazy, eager = _lazy_and_eager(
            bases,
            Grammar(min_hairpin_unpaired=min_hairpin, allow_inverse=allow_inverse),
            MODELS[model],
            MACHINES[machine],
            RunLimits(
                max_steps=40, max_adaptation_states=max_states, max_adaptation_depth=max_depth
            ),
        )
        assert lazy.summary.termination == "adaptation-state-limit"
        assert lazy.to_jsonl() == eager.to_jsonl()

    def test_children_built_only_when_taken(self, monkeypatch, seq_gggaaaccc):
        # the trap's first phase starts at its one-pair minimum and resumes
        # at a forward child of it, so a lazy search never needs the
        # origin's inverse moves; the eager search builds them anyway.
        # The run builds every structure but the unfolded one through the
        # unchecked constructor: forward children (lazily in _Moves.forward,
        # eagerly in _Moves.steps), φ0 targets and inverse sources, so
        # a count of 0 means a build escaped the count. Inverse sources are
        # built by SecondaryStructure.without: the lazy search builds one
        # only when it takes it, so over the whole run the sources it builds
        # are exactly the inverse children its child iterators hand out
        without = SecondaryStructure.without
        sources: list[str] = []

        def counting_without(s, pairs, key=None):
            source = without(s, pairs, key)
            sources.append(source.key)
            return source

        monkeypatch.setattr(SecondaryStructure, "without", counting_without)

        def fold(cls):
            """(unchecked build count, trace, first phase's origin, the
            records it added, the inverse sources it built), then over the
            whole run the inverse sources built and the inverse children
            taken, by key"""
            phases, taken = [], []

            class Probe(cls):
                def adaptation_phase(self):
                    origin = self.state.structure.key
                    records, built = len(self._records), len(sources)
                    outcome = super().adaptation_phase()
                    phases.append((origin, self._records[records:], sources[built:]))
                    return outcome

                def _children(self, node, held):
                    for label, child in super()._children(node, held):
                        if label.startswith("inverse:"):
                            taken.append(child.key)
                        yield label, child

            sources.clear()
            with counting_builds() as (public, unchecked):
                trace = Probe(
                    grammar=Grammar(allow_inverse=True),
                    model=trap_model(),
                    limits=RunLimits(max_steps=40),
                ).run(seq_gggaaaccc)
            assert len(public) == 1
            return (len(unchecked), trace, *phases[0], sources[:], taken)

        lazy_built, lazy, origin, added, lazy_first, lazy_sources, taken = fold(Controller)
        eager_built, eager, _, _, eager_first, eager_sources, _ = fold(EagerController)
        assert lazy.to_jsonl() == eager.to_jsonl()
        assert 0 < lazy_built < eager_built
        assert origin == "..(...).."
        assert [(r.move, r.db) for r in added] == [
            ("Helix-Rule-2", ".((...))."), (None, ".((...)).")
        ]
        assert lazy_first == []
        assert eager_first[0] == "........."  # the origin's only inverse source
        assert lazy_sources == taken
        assert 0 < len(lazy_sources) < len(eager_sources)


class TestScoredSelection:
    """The controller decides phi0 from scored, lazily built moves;
    phi0_select over the built, visited-filtered successors is the oracle."""

    @pytest.mark.parametrize(
        "bases,grammar,model",
        [
            ("GGGAAACCC", Grammar(allow_inverse=True), NUSSINOV),
            ("GGGAGGGAGAAACCCACACCC", Grammar(allow_inverse=True),
             LoopTableModel(example_parameters())),
            ("GGGAGGGAGAAACCCACACCC", G3, LoopTableModel(example_parameters())),
            ("GGGAAACCC", Grammar(allow_inverse=True), trap_model()),
        ],
        ids=["nussinov-inverse", "loop-table-inverse", "loop-table", "scripted-inverse"],
    )
    def test_same_choice_as_phi0_select(self, bases, grammar, model):
        trace, compared, visited_ties, _ = checked_run(bases, grammar, model, max_steps=40)
        assert compared > len(trace.records) // 2
        # inverse moves lead back to visited structures, some tied at the
        # minimal score; forward-only runs never meet a visited successor
        assert (visited_ties > 0) is grammar.allow_inverse

    def test_kept_choice_searched_again_once_its_target_is_visited(self, monkeypatch):
        # a structure keeps its phi0 choice while the choice's target is
        # unvisited; inverse moves lead back to structures whose choice was
        # visited since, and each such check searches again
        searched = []
        least_move = LoopTableModel.least_move

        def counting_least_move(model, s, terms, sites, threshold, visited):
            searched.append(s.key)
            return least_move(model, s, terms, sites, threshold, visited)

        monkeypatch.setattr(LoopTableModel, "least_move", counting_least_move)
        *_, checked = checked_run(SEEDED_40, Grammar(allow_inverse=True), MODELS["loop-table"], 60)
        assert len(searched) - len(set(searched)) > 0
        assert set(searched) == set(checked)
        assert len(checked) > len(searched)


#: The first 40 of ``"".join(rng.choice("ACGU") ...)`` with rng = random.Random(1).
SEEDED_40 = "CAGAUUUUCAUAUUAUGCAGAAAAUCUACUUCGCCUGAUA"


def test_phi0_targets_built_with_the_key_phi0_move_wrote(monkeypatch):
    # a phi0 target, in a steady step or an adaptation check, is built with
    # the key least_move wrote for it, and each child the adaptation search
    # takes is built with the key the search read off its parent's key to
    # see that it is new: each such key is the structure's dot-bracket, and
    # the fold writes one key fewer per keyed build than the same fold whose
    # structures are built without one
    build = SecondaryStructure._unchecked.__func__
    emit = grafold.structure.emit_dot_bracket

    def fold(keep_keys: bool):
        given, emitted = [], []

        def unchecked(cls, sequence, pairs, key=None):
            s = build(cls, sequence, pairs, key if keep_keys else None)
            if key is not None:
                given.append((s, key))
            return s

        def counting_emit(s):
            emitted.append(s)
            return emit(s)

        with monkeypatch.context() as patch:
            patch.setattr(SecondaryStructure, "_unchecked", classmethod(unchecked))
            patch.setattr(grafold.structure, "emit_dot_bracket", counting_emit)
            trace = Controller(model=MODELS["loop-table"]).run(PrimarySequence(SEEDED_40))
        return trace, given, len(emitted)

    trace, given, emitted = fold(keep_keys=True)
    plain, plain_given, plain_emitted = fold(keep_keys=False)
    assert trace.to_jsonl() == plain.to_jsonl()
    steady_moves = sum(r.mode == "steady" and r.move is not None for r in trace.records)
    assert len(given) == len(plain_given) > steady_moves > 0
    assert all(key == emit(s) for s, key in given)
    assert emitted == plain_emitted - len(given)


def checked_run(bases, grammar, model, max_steps):
    """A run whose every phi0 choice, a (rule label, target) step, is checked
    against phi0_select over the built, visited-filtered successors, its
    match read as its rule label: its trace, the number of choices
    compared, how many of them had a visited successor tied at the least
    score, and the key of each structure checked."""
    compared = visited_ties = 0
    checked = []

    class Checked(Controller):
        def _phi0(self, structure):
            nonlocal compared, visited_ties
            succs = successors(structure, self.grammar)
            fresh = [(m, t) for m, t in succs if t.key not in self._visited]
            want = phi0_select(structure, fresh, self.model)
            got = super()._phi0(structure)
            assert got == (None if want is None else (want[0].rule.label, want[1]))
            compared += 1
            checked.append(structure.key)
            if succs:
                scores = [observable(t, self.model) for _, t in succs]
                low = min(scores)
                visited_ties += any(
                    t.key in self._visited and e == low
                    for (_, t), e in zip(succs, scores)
                )
            return got

    trace = Checked(grammar=grammar, model=model, limits=RunLimits(max_steps=max_steps)).run(
        PrimarySequence(bases)
    )
    return trace, compared, visited_ties, checked


@pytest.mark.parametrize("min_h", [1, 3])
@given(bases=st.text(alphabet="ACGU", min_size=1, max_size=14), data=st.data())
@settings(max_examples=30, deadline=None)
def test_run_memo_moves_equal_fresh_ones_along_derivations(min_h, bases, data):
    # one controller serves the whole derivation, so later structures read
    # loops memoized for earlier ones: the merged sites equal a fresh scan
    # of every loop, in the same order. The search's children, read lazily
    # and without validation, are the public enumerations' matches as
    # (label, structure): the forward targets, then the inverse sources,
    # each built with its key read off the parent's, which is its
    # dot-bracket
    g = Grammar(min_hairpin_unpaired=min_h, allow_inverse=True)
    controller = Controller(grammar=g, model=NUSSINOV)
    for s, matches in random_derivation(bases, min_h, data):
        entry = controller._moves(s)
        assert entry.sites == _sites(s, g, loop_index(s))
        outer = [site[0] for site in entry.sites]
        assert outer == sorted(set(outer))
        children = list(controller._children(s, set()))
        assert children == [(m.rule.label, apply_match(s, m, g)) for m in matches] + [
            (f"inverse:{m.rule.label}", source) for m, source in enumerate_inverse_matches(s, g)
        ]
        assert all(child.key == emit_dot_bracket(child) for _, child in children)


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("min_h", [1, 3])
@given(bases=st.text(alphabet="ACGU", min_size=1, max_size=14), data=st.data())
@settings(max_examples=30, deadline=None)
def test_strategy_steps_equal_public_successors_along_derivations(model, min_h, bases, data):
    # one controller serves the whole derivation, with some successors of
    # each structure visited: a strategy's successors are the unvisited
    # public successors as (rule label, target), in match order, handed
    # out once; successors_of gives them all, each target keyed by its
    # dot-bracket
    g = Grammar(min_hairpin_unpaired=min_h)
    controller = Controller(grammar=g, model=MODELS[model])
    for s, _ in random_derivation(bases, min_h, data):
        public = [(m.rule.label, t.key) for m, t in successors(s, g)]
        keys = sorted({key for _, key in public})
        controller._visited = set(data.draw(st.lists(st.sampled_from(keys))) if keys else [])
        ctx = controller._context(s, "w0", {})
        steps = list(ctx.successors)
        assert [(label, t.key) for label, t in steps] == [
            (label, key) for label, key in public if key not in controller._visited
        ]
        assert list(ctx.successors) == []
        every = ctx.successors_of(s)
        assert [(label, t.key) for label, t in every] == public
        assert all(t.key == emit_dot_bracket(t) for _, t in every)


def test_strategy_steps_built_only_when_taken(seq_gggaaaccc):
    # a strategy that never reads its successors builds none of them; one
    # that takes the first builds that one alone
    register_strategy("reads-nothing", lambda ctx: StrategyDecision(satisfied=False))
    register_strategy(
        "takes-one", lambda ctx: StrategyDecision(satisfied=True, target=next(ctx.successors)[1])
    )
    empty = SecondaryStructure(seq_gggaaaccc)
    first = successors(empty, G3)[0][1]
    for name, built in [("reads-nothing", 0), ("takes-one", 1)]:
        for model in MODELS.values():
            with counting_builds() as (public, unchecked):
                decision = check(Constraint.of_strategy(name), empty, model)
            assert public == [] and len(unchecked) == built
            assert decision.target == (first if built else None)


@pytest.mark.parametrize(
    "bases, min_h", [("GCGCGCGCGCGCGC", 3), ("CGAUUCAAAUGACG", 1)], ids=["gc-14", "multi"]
)
def test_each_distinct_loop_scanned_once_per_run(monkeypatch, bases, min_h):
    # a run scans a loop, named by its closing pair and branches, and works
    # out its term when the first record that holds it is made, and never
    # again in that run
    scanned, termed = [], []
    loop_sites = grafold.controller._loop_sites
    loop_term = LoopTableModel.loop_term

    def counting_loop_sites(bases, min_hairpin, region):
        scanned.append((region.closing, tuple(region.branches)))
        return loop_sites(bases, min_hairpin, region)

    def counting_loop_term(model, bases, region):
        termed.append((region.closing, tuple(region.branches)))
        return loop_term(model, bases, region)

    monkeypatch.setattr(grafold.controller, "_loop_sites", counting_loop_sites)
    monkeypatch.setattr(LoopTableModel, "loop_term", counting_loop_term)
    seq = PrimarySequence(bases)
    controller = Controller(
        grammar=Grammar(min_hairpin_unpaired=min_h, allow_inverse=True),
        model=MODELS["loop-table"],
        limits=RunLimits(max_steps=40),
    )
    trace = controller.run(seq)
    per_run = len(scanned)
    records = controller._move_memo.values()
    read = [entry for entry in records if "sites" in vars(entry)]
    loops = [(loop.closing, tuple(loop.branches)) for entry in records for loop in entry.loops]
    # the memoized sites of every structure the run read them for equal a
    # fresh scan, merged by outer pair
    for entry in read:
        assert entry.sites == _sites(entry.structure, controller.grammar, entry.loops)
        outer = [site[0] for site in entry.sites]
        assert outer == sorted(set(outer))
    assert controller.run(seq).to_jsonl() == trace.to_jsonl()
    assert len(set(scanned[:per_run])) == per_run
    assert set(scanned[:per_run]) == set(loops)
    assert len(loops) > 2 * per_run
    # the memo lives for one run: the second run scans the same loops
    assert scanned[per_run:] == scanned[:per_run]
    assert termed == scanned


def _fields(loop):
    return loop.closing, loop.free, loop.branches


@pytest.mark.parametrize(
    "machine, allow_inverse",
    [("default", False), ("default", True), ("example", False)],
    ids=["forward", "inverse", "example-machine"],
)
def test_run_records_share_the_memo_regions(machine, allow_inverse):
    # every record of a run holds, for each of its loops, the one region the
    # run's loop memo keeps, so the records hold exactly as many distinct
    # regions as the memo has entries; each record's loops still equal a
    # fresh loop_index, so no path changed a shared region in place
    controller = Controller(
        machine=MACHINES[machine],
        grammar=Grammar(allow_inverse=allow_inverse),
        model=MODELS["loop-table"],
        limits=RunLimits(max_steps=20),
    )
    controller.run(PrimarySequence("CAGAUUUUCAUAUUAUGCAGAAAAUCUACU"))
    records = controller._move_memo.values()
    held = {id(loop) for entry in records for loop in entry.loops}
    assert len(held) == len(controller._loop_memo) < sum(len(e.loops) for e in records)
    assert held == {id(region) for region, _ in controller._loop_memo.values()}
    for entry in records:
        assert list(map(_fields, entry.loops)) == list(map(_fields, loop_index(entry.structure)))


@pytest.mark.parametrize("min_h", [1, 3])
@given(bases=st.text(alphabet="ACGU", min_size=1, max_size=14), data=st.data())
@settings(max_examples=30, deadline=None)
def test_records_hold_one_region_per_loop_along_derivations(min_h, bases, data):
    # one controller makes the records of a derivation's structures and of
    # their forward and inverse children: two records that hold a loop under
    # the same (closing pair, branches) hold the same region
    g = Grammar(min_hairpin_unpaired=min_h, allow_inverse=True)
    controller = Controller(grammar=g, model=MODELS["loop-table"])
    for s, _ in random_derivation(bases, min_h, data):
        for _, t in [(None, s), *controller._children(s, set())]:
            controller._moves(t)
    held = {}
    for entry in controller._move_memo.values():
        for loop in entry.loops:
            assert held.setdefault((loop.closing, tuple(loop.branches)), loop) is loop


class TestStrategies:
    def test_lookahead_machine_reaches_optimum(self, seq_gggaaaccc):
        machine = AdaptiveMachine.from_config(
            {
                "initial": "w0",
                "states": [
                    {"id": "w0", "constraint": "phi0"},
                    {"id": "w1", "constraint": {"strategy": "lookahead", "params": {"depth": 2}}},
                ],
                "transitions": [
                    {"from": "w0", "to": "w1"},
                    {"from": "w1", "to": "w0"},
                ],
            }
        )
        trace = run(machine, seq_gggaaaccc, model=trap_model())
        assert trace.summary.final_db == "(((...)))"
        assert any(r.s_state == "w1" for r in trace.records)

    def test_lookahead_scores_through_ctx_score(self, seq_gggaaaccc):
        model = ScriptedModel({"..(...)..": -2.0, "(((...)))": -3.0})
        trap = parse_dot_bracket(seq_gggaaaccc, "..(...)..")
        ctx = make_context(trap, model, params={"depth": 2})
        lookahead = _get_strategy("lookahead")
        scored, expanded = [], []

        def score(s):
            scored.append(s.key)
            return observable(s, model)

        def successors_of(s):
            expanded.append(s.key)
            return labelled_steps(s)

        plain = lookahead(ctx)
        assert plain.satisfied and plain.target is not None
        assert lookahead(replace(ctx, score=score, successors_of=successors_of)) == plain
        assert ".((...))." in scored and "(((...)))" in scored
        assert sorted(expanded) == sorted(t.key for _, t in ctx.successors)
        # the controller evaluates the same constraint from its run memos
        assert check(Constraint.of_strategy("lookahead", depth=2), trap, model) == plain
        # a depth below 1 looks at no step, so nothing lower is reachable
        scored.clear()
        expanded.clear()
        shallow = replace(ctx, score=score, successors_of=successors_of, params={"depth": 0})
        assert lookahead(shallow) == StrategyDecision(satisfied=False)
        assert scored == expanded == []
        assert not check(Constraint.of_strategy("lookahead", depth=0), trap, model).satisfied

    def test_lookahead_rejects_non_integer_depth(self, seq_gggaaaccc):
        machine = AdaptiveMachine.from_config(
            {
                "initial": "w0",
                "states": [
                    {"id": "w0", "constraint": "phi0"},
                    {"id": "w1", "constraint": {"strategy": "lookahead",
                                                "params": {"depth": [1]}}},
                ],
                "transitions": [{"from": "w0", "to": "w1"}],
            }
        )
        with pytest.raises(MachineConfigError, match="depth"):
            run(machine, seq_gggaaaccc, model=trap_model())

    def test_restart_from_best(self):
        restart = _get_strategy("restart-from-best")
        s = parse_dot_bracket(PrimarySequence("GAAAC"), "(...)")
        best_structure = SecondaryStructure(PrimarySequence("GAAAC"), {(0, 4)})
        worse = SecondaryStructure(PrimarySequence("GAAAC"))
        decision = restart(make_context(s, NUSSINOV, best=(-1.0, s)))
        assert not decision.satisfied  # already at the best structure
        decision = restart(make_context(worse, NUSSINOV, best=(-1.0, best_structure)))
        assert decision.satisfied
        assert decision.target == best_structure

    def test_restart_unsatisfied_without_best(self):
        ctx = make_context(SecondaryStructure(PrimarySequence("GAAAC")), NUSSINOV, best=None)
        assert not _get_strategy("restart-from-best")(ctx).satisfied

    def test_restart_self_loop_machine_terminates(self, seq_gggaaaccc):
        # a restart state with a self-loop invites an endless jump-back
        # cycle; the occupied-configuration guard must break it
        machine = AdaptiveMachine.from_config(
            {
                "initial": "w0",
                "states": [
                    {"id": "w0", "constraint": "phi0"},
                    {"id": "w1", "constraint": {"strategy": "restart-from-best"}},
                ],
                "transitions": [
                    {"from": "w0", "to": "w1"},
                    {"from": "w1", "to": "w1"},
                    {"from": "w1", "to": "w0"},
                ],
            }
        )
        trace = run(machine, seq_gggaaaccc, model=trap_model(),
                    limits=RunLimits(max_steps=500))
        assert trace.summary.termination != "max-steps"
        assert trace.summary.best_energy == -2.0

    def test_transition_constraint_filters_adaptation(self, seq_gggaaaccc):
        # forbid the structure adaptation would normally resume at; the
        # search must route around it to the next admissible one
        def forbid(ctx):
            return StrategyDecision(satisfied=ctx.structure.key != ctx.params["key"])

        register_strategy("forbid-key", forbid)

        def machine_with_psi(psi):
            return AdaptiveMachine(
                (MachineState("w0", Constraint.phi0(), (("w0", psi),)),), "w0"
            )

        free = run(machine_with_psi(Constraint.true()), seq_gggaaaccc, model=trap_model())
        resumed_free = [r for r in free.records if r.mode == "adapting"][0]
        assert resumed_free.db == ".((...))."

        fenced = run(
            machine_with_psi(Constraint.of_strategy("forbid-key", key=".((...)).")),
            seq_gggaaaccc,
            model=trap_model(),
        )
        adapting = [r for r in fenced.records if r.mode == "adapting"]
        assert adapting and all(r.db != ".((...))." for r in adapting)
        assert adapting[0].db == "(.(...).)"  # the next structure regaining descent
        assert fenced.summary.final_db == "(((...)))"

    def test_every_outgoing_psi_fences_the_search(self, seq_gggaaaccc):
        # a structure enters the search only when every outgoing ψ holds
        # there, so the w0 -> w0 fence keeps ".((...))." out even though the
        # phase ends in w1, whose transition is unconstrained
        register_strategy(
            "forbid-key",
            lambda ctx: StrategyDecision(satisfied=ctx.structure.key != ctx.params["key"]),
        )

        def machine_with_psi(psi):
            return AdaptiveMachine(
                (
                    MachineState(
                        "w0", Constraint.phi0(), (("w1", Constraint.true()), ("w0", psi))
                    ),
                    MachineState("w1", Constraint.phi0()),
                ),
                "w0",
            )

        def phase(psi):
            """The adapting keys and the resume record of the run's one
            adaptation phase (w1 has no transitions)."""
            records = run(machine_with_psi(psi), seq_gggaaaccc, model=trap_model()).records
            end = next(r for r in records if r.note and r.note.startswith("adaptation-complete"))
            return [r.db for r in records if r.mode == "adapting"], end

        adapting, end = phase(Constraint.true())
        assert adapting == [".((...))."]
        assert (end.db, end.note) == (".((...)).", "adaptation-complete:w0->w1")

        adapting, end = phase(Constraint.of_strategy("forbid-key", key=".((...))."))
        assert ".((...))." not in adapting
        assert (end.db, end.note) == ("(.(...).)", "adaptation-complete:w0->w1")

    def test_true_state_pingpong_terminates(self):
        # two mutually-reachable unconstrained states at a terminal
        # structure must not bounce forever
        machine = AdaptiveMachine(
            (
                MachineState("w0", Constraint.phi0(), (("wa", Constraint.true()),)),
                MachineState("wa", Constraint.true(), (("wb", Constraint.true()),)),
                MachineState("wb", Constraint.true(), (("wa", Constraint.true()),)),
            ),
            "w0",
        )
        trace = run(machine, PrimarySequence("GAAAC"), limits=RunLimits(max_steps=100))
        assert trace.summary.termination == "exhausted"
        assert trace.summary.final_db == "(...)"
