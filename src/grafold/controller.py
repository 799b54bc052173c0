"""Greedy folding driven by a two-level machine: structures below, constraints above.

The lower level is the folding space: structures connected by rule
applications (plus their inverses when backtracking is enabled). The upper
level is a small constraint machine whose states gate how the structure may
evolve. While the current machine state's constraint is satisfiable the run
is *steady* and takes the move the constraint selects; when it is not, an
*adaptation* phase searches the folding space breadth-first for the nearest
structure at which some successor machine state's constraint holds again,
then resumes there.

The built-in greedy constraint ("phi0") requires a successor of minimal
observable not exceeding the current one; with it alone and no backtracking
a run descends monotonically and stops in a local minimum. Every run emits a
trace; the best structure seen anywhere along it is reported in the summary.

Plateau guard: because "phi0" accepts equal-observable moves, a single run
never revisits a structure during steady stepping (a run-scoped visited set
filters candidate successors). Forward-only runs cannot revisit anyway; the
guard matters once inverse moves are enabled.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from collections import deque
from collections.abc import Container, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

from .energy import EnergyModel, NussinovModel, observable_from_terms
from .grammar import (
    ALL_RULES,
    Grammar,
    _apply_unchecked,
    _by_outer_pair,
    _inverse_steps,
    _loop_sites,
    _LoopMemo,
    _rule_moves,
    _site_rule,
)
from .structure import (
    PrimarySequence,
    SecondaryStructure,
    cached,
    key_with_pairs,
    key_without_pairs,
    loop_index,
)

__all__ = [
    "Constraint",
    "MachineState",
    "AdaptiveMachine",
    "MachineConfigError",
    "UnknownStrategyError",
    "RunLimits",
    "RunState",
    "TraceRecord",
    "TraceSummary",
    "Trace",
    "StrategyContext",
    "StrategyDecision",
    "register_strategy",
    "Controller",
    "run",
]

GREEDY = "phi0"
UNCONSTRAINED = "true"
STRATEGY = "strategy"


class MachineConfigError(ValueError):
    """A constraint-machine configuration is invalid."""


class UnknownStrategyError(ValueError):
    """A constraint references a strategy that was never registered."""


@dataclass(frozen=True)
class Constraint:
    """A machine-state or transition constraint.

    ``kind`` is "phi0" (greedy descent), "true" (no restriction) or
    "strategy" (a registered pluggable strategy with parameters).
    """

    kind: str
    strategy: str | None = None
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in (GREEDY, UNCONSTRAINED, STRATEGY):
            raise MachineConfigError(f"unknown constraint kind {self.kind!r}")
        if (self.kind == STRATEGY) != (self.strategy is not None):
            raise MachineConfigError("strategy constraints need a strategy name, others none")

    @classmethod
    def phi0(cls) -> "Constraint":
        return cls(GREEDY)

    @classmethod
    def true(cls) -> "Constraint":
        return cls(UNCONSTRAINED)

    @classmethod
    def of_strategy(cls, name: str, **params: object) -> "Constraint":
        return cls(STRATEGY, name, tuple(sorted(params.items())))

    @property
    def params_dict(self) -> dict[str, object]:
        return dict(self.params)

    @classmethod
    def from_config(cls, obj: object) -> "Constraint":
        if isinstance(obj, str):
            if obj == GREEDY:
                return cls.phi0()
            if obj == UNCONSTRAINED:
                return cls.true()
            return cls.of_strategy(obj)
        if (isinstance(obj, dict) and isinstance(obj.get("strategy"), str)
                and obj.keys() <= {"strategy", "params"}):
            params = obj.get("params", {})
            if not isinstance(params, dict):
                raise MachineConfigError(f"strategy params must be an object: {obj!r}")
            return cls(STRATEGY, obj["strategy"], tuple(sorted(params.items())))
        raise MachineConfigError(f"cannot parse constraint {obj!r}")

    def describe(self) -> str:
        if self.kind == STRATEGY:
            return f"{self.strategy}({', '.join(f'{k}={v}' for k, v in self.params)})"
        return self.kind


@dataclass(frozen=True)
class MachineState:
    """One upper-level state: its invariant plus outgoing transitions.

    ``transitions`` lists (target state id, transition constraint) pairs.
    An adaptation phase out of this state admits a structure into its search
    only when every transition constraint holds there, whichever target the
    phase ends in.
    """

    id: str
    constraint: Constraint
    transitions: tuple[tuple[str, Constraint], ...] = ()


@dataclass(frozen=True)
class AdaptiveMachine:
    """The upper-level constraint machine."""

    states: tuple[MachineState, ...]
    initial: str

    def __post_init__(self) -> None:
        ids = [st.id for st in self.states]
        if len(set(ids)) != len(ids):
            raise MachineConfigError("duplicate machine state ids")
        if self.initial not in ids:
            raise MachineConfigError(f"initial state {self.initial!r} is not defined")
        known = set(ids)
        for st in self.states:
            for target, _ in st.transitions:
                if target not in known:
                    raise MachineConfigError(
                        f"transition {st.id!r} -> {target!r} references unknown state"
                    )

    def state(self, sid: str) -> MachineState:
        for st in self.states:
            if st.id == sid:
                return st
        raise KeyError(sid)

    @classmethod
    def default(cls) -> "AdaptiveMachine":
        """Single greedy state with a self-loop: descend, adapt in place, stop."""
        w0 = MachineState("w0", Constraint.phi0(), (("w0", Constraint.true()),))
        return cls((w0,), "w0")

    @classmethod
    def from_config(cls, doc: Mapping) -> "AdaptiveMachine":
        """Build a machine from a decoded JSON configuration.

        Expected shape::

            {"initial": "w0",
             "states": [{"id": "w0", "constraint": "phi0"},
                        {"id": "w1", "constraint": {"strategy": "lookahead",
                                                    "params": {"depth": 2}}}],
             "transitions": [{"from": "w0", "to": "w0", "psi": "true"},
                             {"from": "w0", "to": "w1"}]}

        ``psi`` defaults to "true". Any other key of the document, a record
        or a strategy constraint raises :class:`MachineConfigError`.
        """
        try:
            raw_states = doc["states"]
            initial = doc["initial"]
        except (KeyError, TypeError):
            raise MachineConfigError("machine config needs 'states' and 'initial'")
        unknown = sorted(doc.keys() - {"initial", "states", "transitions"})
        if unknown:
            raise MachineConfigError(f"unknown machine config key(s) {unknown}")
        if not isinstance(raw_states, list) or not raw_states:
            raise MachineConfigError("'states' must be a nonempty list")
        raw_transitions = doc.get("transitions", [])
        if not isinstance(raw_transitions, list):
            raise MachineConfigError("'transitions' must be a list")
        outgoing: dict[str, list[tuple[str, Constraint]]] = {}
        for t in raw_transitions:
            if not (
                isinstance(t, dict) and isinstance(t.get("from"), str)
                and isinstance(t.get("to"), str) and t.keys() <= {"from", "to", "psi"}
            ):
                raise MachineConfigError(f"bad transition record {t!r}")
            psi = Constraint.from_config(t.get("psi", "true"))
            outgoing.setdefault(t["from"], []).append((t["to"], psi))
        states = []
        for raw in raw_states:
            if not (isinstance(raw, dict) and isinstance(raw.get("id"), str)
                    and raw.keys() == {"id", "constraint"}):
                raise MachineConfigError(f"bad state record {raw!r}")
            sid = raw["id"]
            states.append(
                MachineState(sid, Constraint.from_config(raw["constraint"]),
                             tuple(outgoing.get(sid, ())))
            )
        known = {st.id for st in states}
        for source, [(target, _), *_] in outgoing.items():
            if source not in known:
                message = f"transition {source!r} -> {target!r} references unknown state"
                raise MachineConfigError(message)
        return cls(tuple(states), initial)

    @classmethod
    def from_file(cls, path: str | Path) -> "AdaptiveMachine":
        try:
            doc = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise MachineConfigError(f"machine file is not valid JSON: {exc}")
        return cls.from_config(doc)


@dataclass(frozen=True)
class RunLimits:
    """Optional bounds on a single run."""

    max_steps: int | None = None
    max_adaptation_depth: int | None = None
    max_adaptation_states: int | None = None

    def __post_init__(self) -> None:
        for name in ("max_steps", "max_adaptation_depth", "max_adaptation_states"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class RunState:
    """The coupled configuration: machine state over a structure."""

    s_state: str
    structure: SecondaryStructure
    energy: float


@dataclass(frozen=True)
class TraceRecord:
    step: int
    s_state: str
    db: str
    energy: float
    mode: str
    move: str | None = None
    note: str | None = None

    def to_json(self) -> dict:
        return {
            "step": self.step,
            "s_state": self.s_state,
            "db": self.db,
            "energy": None if math.isinf(self.energy) else self.energy,
            "mode": self.mode,
            "move": self.move,
            "note": self.note,
        }


@dataclass(frozen=True)
class TraceSummary:
    final_s_state: str
    final_db: str
    final_energy: float
    best_energy: float
    best_db: str
    termination: str
    steps: int

    def to_json(self) -> dict:
        return {
            "summary": {
                "final_s_state": self.final_s_state,
                "final_db": self.final_db,
                "final_energy": None if math.isinf(self.final_energy) else self.final_energy,
                "best_energy": None if math.isinf(self.best_energy) else self.best_energy,
                "best_db": self.best_db,
                "termination": self.termination,
                "steps": self.steps,
            }
        }


@dataclass(frozen=True)
class Trace:
    sequence: PrimarySequence
    records: tuple[TraceRecord, ...]
    summary: TraceSummary

    def to_jsonl(self) -> str:
        lines = [json.dumps(r.to_json()) for r in self.records]
        lines.append(json.dumps(self.summary.to_json()))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Constraints and strategies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StrategyContext:
    """Everything a strategy may inspect when evaluated.

    A step is a forward move as (rule label, target structure); the pairs
    it adds are ``target.pairs - structure.pairs``. ``successors`` is a
    one-pass iterator of the unvisited steps of ``structure`` in match
    order, each target built when it is taken; ``successors_of`` builds a
    new list of every step of any structure on each call; ``score`` gives
    its observable and ``least_step`` the least (observable, target key) of
    its steps, or None, both kept in the run's record of each structure.
    """

    structure: SecondaryStructure
    energy: float
    s_state: str
    successors: Iterator[tuple[str, SecondaryStructure]]
    successors_of: Callable[[SecondaryStructure], list[tuple[str, SecondaryStructure]]]
    score: Callable[[SecondaryStructure], float]
    least_step: Callable[[SecondaryStructure], tuple[float, str] | None]
    best: tuple[float, SecondaryStructure] | None
    params: dict[str, object]


@dataclass(frozen=True)
class StrategyDecision:
    """Outcome of a constraint check: satisfiable, and optionally a move."""

    satisfied: bool
    target: SecondaryStructure | None = None
    move: str | None = None
    note: str | None = None


StrategyFn = Callable[[StrategyContext], StrategyDecision]

_STRATEGIES: dict[str, StrategyFn] = {}


def register_strategy(name: str, fn: StrategyFn) -> None:
    """Register a pluggable strategy usable from machine configurations."""
    _STRATEGIES[name] = fn


def _get_strategy(name: str) -> StrategyFn:
    try:
        return _STRATEGIES[name]
    except KeyError:
        raise UnknownStrategyError(
            f"strategy {name!r} is not registered (known: {sorted(_STRATEGIES)})"
        )


def _lookahead_strategy(ctx: StrategyContext) -> StrategyDecision:
    """Escape strategy: accept when a strictly lower observable is reachable
    within ``depth`` forward steps; move one step toward the best such
    structure. The last level reads the least step of each structure on
    the level before; a step into a structure already scored cannot win."""
    depth = ctx.params.get("depth", 2)
    if depth < 1:
        return StrategyDecision(satisfied=False)
    best_choice: tuple[float, str, str, SecondaryStructure] | None = None
    for label, first in ctx.successors:
        frontier = [first]
        seen = {first.key}
        level = 1
        local_best = (ctx.score(first), first.key)
        while level < depth - 1 and frontier:
            next_frontier = []
            for node in frontier:
                for _, child in ctx.successors_of(node):
                    if child.key in seen:
                        continue
                    seen.add(child.key)
                    next_frontier.append(child)
                    local_best = min(local_best, (ctx.score(child), child.key))
            frontier = next_frontier
            level += 1
        if depth > 1:
            local_best = min([local_best, *filter(None, map(ctx.least_step, frontier))])
        candidate = (local_best[0], local_best[1], first.key, first)
        if best_choice is None or candidate[:3] < best_choice[:3]:
            best_choice = candidate
            best_move = label
    if best_choice is not None and best_choice[0] < ctx.energy:
        return StrategyDecision(
            satisfied=True,
            target=best_choice[3],
            move=best_move,
            note=f"lookahead(depth={depth})",
        )
    return StrategyDecision(satisfied=False)


def _restart_from_best_strategy(ctx: StrategyContext) -> StrategyDecision:
    """Escape strategy: jump back to the best structure seen in this run.
    It takes no params."""
    if ctx.best is None:
        return StrategyDecision(satisfied=False)
    best_energy, best_structure = ctx.best
    if not math.isfinite(best_energy) or best_structure.key == ctx.structure.key:
        return StrategyDecision(satisfied=False)
    return StrategyDecision(satisfied=True, target=best_structure, note="restart-from-best")


register_strategy("lookahead", _lookahead_strategy)
register_strategy("restart-from-best", _restart_from_best_strategy)

#: The name and the param names of each built-in strategy.
_BUILT_IN = {
    _lookahead_strategy: ("lookahead", {"depth"}),
    _restart_from_best_strategy: ("restart-from-best", set()),
}


def _check_params(fn: StrategyFn, params: dict[str, object]) -> None:
    """Raise :class:`MachineConfigError` when the built-in strategy ``fn``
    does not take ``params``: an unknown name, or a lookahead ``depth``
    (2 when left out) that is not an integer. A strategy registered from
    outside checks its own params when called."""
    if fn not in _BUILT_IN:
        return
    name, known = _BUILT_IN[fn]
    unknown = sorted(set(params) - known)
    if unknown:
        raise MachineConfigError(f"unknown {name} param(s) {unknown}: {params!r}")
    if type(params.get("depth", 2)) is not int:
        raise MachineConfigError(f"lookahead depth must be an integer: {params!r}")


# ---------------------------------------------------------------------------
# The controller
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdaptationOutcome:
    resumed: bool
    reason: str | None = None


#: The φ0 choice of a structure whose moves have not been searched yet.
_UNSEARCHED = object()

#: The trace label of an inverse move of each rule, by rule position.
_INVERSE_LABELS = tuple(f"inverse:{rule.label}" for rule in ALL_RULES)


class _Moves:
    """The run's one record of a structure: its ``loops``, their
    ``loop_sites`` (:func:`~grafold.grammar._loop_sites`) and their
    ``terms`` (:meth:`~grafold.energy.EnergyModel.loop_term`), read through
    the run's loop memo, which works each out once per distinct loop; its
    observable, folded from the terms; its φ0 choice, the rule label and
    the built target, and, for strategies, its least step, kept once
    searched. The sites merged by outer pair are worked out on first read."""

    # the (rule label, target) of the last φ0 search, None when it found
    # no move, or _UNSEARCHED
    phi0: object = _UNSEARCHED

    def __init__(self, structure: SecondaryStructure, model: EnergyModel, memo: _LoopMemo):
        self.structure, self.model = structure, model
        self.loops, kept = zip(*map(memo, loop_index(structure)))
        self.loop_sites, self.terms = zip(*kept)
        self.energy = observable_from_terms(structure, model, self.terms)

    @cached
    def sites(self) -> list[tuple]:
        return _by_outer_pair(self.loop_sites)

    @cached
    def least(self) -> tuple[float, str] | None:
        """The least (observable, target key) of the forward steps, or None:
        the model's ``least_move`` with no threshold and nothing visited."""
        move = self.model.least_move(self.structure, self.terms, self.sites, math.inf, ())
        return move and move[:2]

    def forward(self, held: Container[str]) -> Iterator[tuple[str, SecondaryStructure]]:
        """The forward steps to targets whose keys are not in ``held``, as
        (rule label, target), in match order. Each target's key is read off
        this structure's key, and the target is built, with it, only when
        it is taken."""
        structure = self.structure
        key = structure.key
        for at, added, _ in _rule_moves(structure.sequence.bases, self.sites):
            target_key = key_with_pairs(key, added)
            if target_key not in held:
                yield ALL_RULES[at].label, _apply_unchecked(structure, added, target_key)


def _path(
    node: SecondaryStructure,
    parent: dict[str, tuple[str | None, str | None, SecondaryStructure]],
) -> list[tuple[str, SecondaryStructure]]:
    """The (move label, structure) steps of the adaptation search from its
    origin to ``node``, read off the ``parent`` links."""
    path: list[tuple[str, SecondaryStructure]] = []
    key: str | None = node.key
    while key is not None:
        prev_key, label, structure = parent[key]
        if label is not None:
            path.append((label, structure))
        key = prev_key
    path.reverse()
    return path


class Controller:
    """Owns one run: the machine, the grammar, the model and the trace."""

    def __init__(
        self,
        machine: AdaptiveMachine | None = None,
        grammar: Grammar | None = None,
        model: EnergyModel | None = None,
        limits: RunLimits | None = None,
    ):
        self.machine = machine or AdaptiveMachine.default()
        self.grammar = grammar or Grammar()
        self.model = model or NussinovModel()
        self.limits = limits or RunLimits()
        initial = self.machine.state(self.machine.initial)
        if initial.constraint.kind != GREEDY:
            raise MachineConfigError(
                f"initial machine state must use the {GREEDY!r} constraint, "
                f"got {initial.constraint.describe()!r}"
            )
        self._records: list[TraceRecord] = []
        self._visited: set[str] = set()
        self._occupied_since_move: set[tuple[str, str]] = set()
        self._best: tuple[float, SecondaryStructure] | None = None
        # the run's record of each structure, keyed by dot-bracket key
        self._move_memo: dict[str, _Moves] = {}
        # each distinct loop's one region, its sites and its term, made for
        # the strand of the first record
        self._loop_memo: _LoopMemo | None = None
        self.state: RunState | None = None

    # -- bookkeeping -------------------------------------------------------

    def _record(
        self,
        state: RunState,
        mode: str,
        move: str | None = None,
        note: str | None = None,
    ) -> None:
        rec = TraceRecord(
            step=len(self._records),
            s_state=state.s_state,
            db=state.structure.key,
            energy=state.energy,
            mode=mode,
            move=move,
            note=note,
        )
        self._records.append(rec)
        if math.isfinite(state.energy):
            cand = (state.energy, state.structure)
            if self._best is None or (cand[0], cand[1].key) < (
                self._best[0],
                self._best[1].key,
            ):
                self._best = cand

    def _observable(self, structure: SecondaryStructure) -> float:
        """The observable of ``structure``, kept in its run record."""
        return self._moves(structure).energy

    def _moves(self, structure: SecondaryStructure) -> _Moves:
        """The run's record of ``structure``, made once per run."""
        key = structure.key
        entry = self._move_memo.get(key)
        if entry is None:
            if self._loop_memo is None:
                bases, min_h = structure.sequence.bases, self.grammar.min_hairpin_unpaired
                model = self.model
                self._loop_memo = _LoopMemo(
                    lambda loop: (_loop_sites(bases, min_h, loop), model.loop_term(bases, loop))
                )
            entry = self._move_memo[key] = _Moves(structure, self.model, self._loop_memo)
        return entry

    def _phi0(self, structure: SecondaryStructure) -> tuple[str, SecondaryStructure] | None:
        """The greedy choice among the unvisited successors of ``structure``:
        the one of minimal observable, ties broken on the smallest key, if it
        does not exceed the observable of ``structure``; None otherwise.

        It is the model's :meth:`~grafold.energy.EnergyModel.least_move` on
        the structure's record, as (rule label, target): the rule of the
        first match, in rule order, that adds its pairs, read off the site
        of its outer pair, and the target built with the key the search
        wrote. The visited set only grows, so the kept choice stands until
        its own target is visited; only then is the search run again."""
        entry = self._moves(structure)
        choice = entry.phi0
        if choice is _UNSEARCHED or choice is not None and choice[1].key in self._visited:
            move = self.model.least_move(
                structure, entry.terms, entry.sites, entry.energy, self._visited
            )
            choice = None
            if move is not None:
                _, key, added = move
                sites = entry.sites
                site = sites[bisect_left(sites, (added[0],))]
                at = _site_rule(structure.sequence.bases, site, added)
                choice = (ALL_RULES[at].label, _apply_unchecked(structure, added, key))
            entry.phi0 = choice
        return choice

    def _check(
        self, constraint: Constraint, structure: SecondaryStructure, s_state: str
    ) -> StrategyDecision:
        """Evaluate ``constraint`` at ``structure``. "true" always holds,
        with no preferred move; "phi0" holds exactly when :meth:`_phi0` finds
        a move, which becomes the witness; a strategy constraint delegates to
        its registered function.

        Raises:
            UnknownStrategyError: for an unregistered strategy name.
        """
        if constraint.kind == UNCONSTRAINED:
            return StrategyDecision(satisfied=True)
        if constraint.kind == GREEDY:
            selected = self._phi0(structure)
            if selected is None:
                return StrategyDecision(satisfied=False)
            label, target = selected
            return StrategyDecision(satisfied=True, target=target, move=label)
        fn = _get_strategy(constraint.strategy or "")
        return fn(self._context(structure, s_state, constraint.params_dict))

    def _context(
        self, structure: SecondaryStructure, s_state: str, params: dict[str, object]
    ) -> StrategyContext:
        entry = self._moves(structure)
        return StrategyContext(
            structure=structure,
            energy=entry.energy,
            s_state=s_state,
            successors=entry.forward(self._visited),
            successors_of=lambda s: list(self._moves(s).forward(())),
            score=self._observable,
            least_step=lambda s: self._moves(s).least,
            best=self._best,
            params=params,
        )

    # -- the two phases ------------------------------------------------------

    def steady_step(self) -> bool:
        """Attempt one steady move; False signals that adaptation is needed."""
        assert self.state is not None
        state = self.state
        constraint = self.machine.state(state.s_state).constraint
        decision = self._check(constraint, state.structure, state.s_state)
        target, move, note = decision.target, decision.move, decision.note
        if decision.satisfied and target is None and constraint.kind == UNCONSTRAINED:
            fresh = self._moves(state.structure).forward(self._visited)
            move, target = next(fresh, (move, None))
        if not decision.satisfied or target is None:
            return False
        self._move_to(state.s_state, target, mode="steady", move=move, note=note)
        return True

    def _enter(self, s_state: str, structure: SecondaryStructure) -> None:
        """Track occupancy. Entering a structure never seen before is
        progress and clears the occupied set; re-entering a known one only
        accumulates, so repeats can be detected."""
        config = (s_state, structure.key)
        if structure.key not in self._visited:
            self._visited.add(structure.key)
            self._occupied_since_move = {config}
        else:
            self._occupied_since_move.add(config)

    def _move_to(
        self,
        s_state: str,
        structure: SecondaryStructure,
        mode: str,
        move: str | None,
        note: str | None,
    ) -> None:
        self.state = RunState(s_state, structure, self._observable(structure))
        self._enter(s_state, structure)
        self._record(self.state, mode, move=move, note=note)

    def _psi_holds(self, psis: tuple[Constraint, ...], structure: SecondaryStructure) -> bool:
        """All transition constraints must hold at every structure of the phase."""
        s_state = self.state.s_state if self.state else ""
        return all(
            psi.kind == UNCONSTRAINED or self._check(psi, structure, s_state).satisfied
            for psi in psis
        )

    def _children(
        self, node: SecondaryStructure, held: Container[str]
    ) -> Iterator[tuple[str, SecondaryStructure]]:
        """The (move label, structure) steps out of ``node`` to structures
        whose keys are not in ``held``, each built when it is taken: the
        forward targets in match order, then, when the grammar allows them,
        the inverse sources in match order, read and built as
        :meth:`_Moves.forward` reads and builds its targets. The run builds
        only valid structures, so they are not validated."""
        entry = self._moves(node)
        yield from entry.forward(held)
        if self.grammar.allow_inverse:
            key = node.key
            for at, removed, _ in _inverse_steps(entry.loops):
                source_key = key_without_pairs(key, removed)
                if source_key not in held:
                    yield _INVERSE_LABELS[at], node.without(removed, source_key)

    def adaptation_phase(self) -> AdaptationOutcome:
        """Search the folding space for a structure where some successor
        machine state's constraint is satisfiable again.

        Breadth-first over forward rule applications (plus inverses when the
        grammar allows them), stopping at the first structure, in
        deterministic order, at which a candidate target constraint holds.
        A resume that would visit nothing new and land in a configuration
        already occupied since the last new structure is skipped: the run is
        deterministic, so rerunning it could only repeat itself (livelock).

        The frontier holds one child iterator per expanded structure, so a
        child is built and checked against ψ only when the search takes it.
        Its key is read off its parent's first, and a child whose key the
        search already holds is not built. Structures are taken in the
        order a fully expanded BFS would queue them, and
        ``max_adaptation_states`` counts them, the origin first.
        """
        assert self.state is not None
        origin = self.state
        machine_state = self.machine.state(origin.s_state)
        candidates = machine_state.transitions
        if not candidates:
            return AdaptationOutcome(False, "no-adaptation-targets")
        psis = tuple(psi for _, psi in candidates)
        max_states = self.limits.max_adaptation_states
        max_depth = self.limits.max_adaptation_depth

        parent: dict[str, tuple[str | None, str | None, SecondaryStructure]] = {
            origin.structure.key: (None, None, origin.structure)
        }
        frontier: deque[
            tuple[int, SecondaryStructure, Iterator[tuple[str, SecondaryStructure]]]
        ] = deque()
        depth = 0
        node: SecondaryStructure | None = origin.structure
        explored = 0
        limit_hit: str | None = None

        while node is not None:
            explored += 1
            if max_states is not None and explored > max_states:
                limit_hit = "adaptation-state-limit"
                break
            for target_id, _psi in candidates:
                if (target_id, node.key) in self._occupied_since_move and all(
                    structure.key in self._visited for _, structure in _path(node, parent)
                ):
                    continue
                target_constraint = self.machine.state(target_id).constraint
                if self._check(target_constraint, node, target_id).satisfied:
                    self._resume(origin, target_id, node, _path(node, parent))
                    return AdaptationOutcome(True)
            if max_depth is not None and depth >= max_depth:
                # the limit ends the phase only if it kept the search from a
                # move: a structure has a forward move exactly when it has a
                # site, and an inverse one exactly when it has a pair
                if self._moves(node).sites or self.grammar.allow_inverse and node.pairs:
                    limit_hit = "adaptation-depth-limit"
            else:
                frontier.append((depth + 1, node, self._children(node, parent)))
            node = None
            while frontier and node is None:
                depth, expanded, children = frontier[0]
                for label, child in children:
                    if self._psi_holds(psis, child):
                        parent[child.key] = (expanded.key, label, child)
                        node = child
                        break
                else:
                    frontier.popleft()

        return AdaptationOutcome(False, limit_hit or "exhausted")

    def _resume(
        self,
        origin: RunState,
        target_id: str,
        node: SecondaryStructure,
        path: list[tuple[str, SecondaryStructure]],
    ) -> None:
        for label, structure in path:
            self._move_to(origin.s_state, structure, "adapting", label, None)
        note = f"adaptation-complete:{origin.s_state}->{target_id}"
        self._move_to(target_id, node, "steady", None, note)

    # -- driving -------------------------------------------------------------

    def run(self, seq: PrimarySequence) -> Trace:
        """Alternate steady steps and adaptation phases until termination.

        Raises:
            UnknownStrategyError: when a constraint of the machine names an
                unregistered strategy, before the run starts.
            MachineConfigError: when a constraint of the machine gives a
                built-in strategy params it does not take, before the run
                starts.
        """
        for st in self.machine.states:
            for constraint in (st.constraint, *(psi for _, psi in st.transitions)):
                if constraint.kind == STRATEGY:
                    _check_params(_get_strategy(constraint.strategy), constraint.params_dict)
        s0 = SecondaryStructure(seq)
        self._move_memo = {}
        self._loop_memo = None
        self.state = RunState(self.machine.initial, s0, self._observable(s0))
        self._records = []
        self._visited = {s0.key}
        self._occupied_since_move = {(self.state.s_state, s0.key)}
        self._best = None
        self._record(self.state, "steady", note="initial")

        termination = "terminated"
        while True:
            max_steps = self.limits.max_steps
            if max_steps is not None and len(self._records) - 1 >= max_steps:
                termination = "max-steps"
                break
            if self.steady_step():
                continue
            outcome = self.adaptation_phase()
            if not outcome.resumed:
                termination = outcome.reason or "exhausted"
                break

        assert self.state is not None
        final = self.state
        if self._best is not None:
            best_energy, best_structure = self._best
            best_db = best_structure.key
        else:
            best_energy, best_db = math.inf, self._records[0].db
        summary = TraceSummary(
            final_s_state=final.s_state,
            final_db=final.structure.key,
            final_energy=final.energy,
            best_energy=best_energy,
            best_db=best_db,
            termination=termination,
            steps=len(self._records) - 1,
        )
        return Trace(seq, tuple(self._records), summary)


def run(
    machine: AdaptiveMachine | None,
    seq: PrimarySequence,
    grammar: Grammar | None = None,
    model: EnergyModel | None = None,
    limits: RunLimits | None = None,
) -> Trace:
    """Run the folding controller on a sequence and return its trace."""
    return Controller(machine, grammar, model, limits).run(seq)
