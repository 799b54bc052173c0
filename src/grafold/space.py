"""Breadth-first construction and export of the folding space.

The folding space of a sequence is the labelled transition system whose
states are all structures derivable from the unfolded start state and whose
transitions are single rule applications. States are deduplicated by their
dot-bracket key; parallel matches producing the same (source, target, rule)
triple merge into one transition with a match count. Construction is fully
deterministic, so exports are byte-stable.
"""

from __future__ import annotations

import json
import math
import time
from collections import deque
from dataclasses import dataclass
from statistics import linear_regression
from typing import NamedTuple

from .energy import EnergyModel, observable
from .grammar import (
    ALL_RULES,
    Grammar,
    Match,
    RuleId,
    _apply_unchecked,
    _loop_sites,
    _LoopMemo,
    _rule_moves,
    enumerate_matches,
)
from .structure import PrimarySequence, SecondaryStructure, key_with_pairs, loop_index, split_loop

__all__ = [
    "ExploreLimits",
    "LTSState",
    "LTSTransition",
    "LTS",
    "LTSStats",
    "MinEnergyResult",
    "NoFoldedStateError",
    "GrowthSweep",
    "successors",
    "build_lts",
    "min_energy_state",
    "stats",
    "fit_growth_base",
    "growth_sweep",
    "alternating_gc_sequence",
    "export_lts",
    "validate_lts_json",
]


class NoFoldedStateError(ValueError):
    """The transition system contains no state with a finite observable."""


@dataclass(frozen=True)
class ExploreLimits:
    """Bounds on exploration; a triggered bound truncates, never fails.

    Attributes:
        max_states: Stop discovering new states past this count.
        max_depth: Do not expand states at this BFS depth.
        max_seconds: Wall-clock budget for construction.
        energy_ceiling: Prune successors whose observable exceeds this.
    """

    max_states: int | None = None
    max_depth: int | None = None
    max_seconds: float | None = None
    energy_ceiling: float | None = None

    def __post_init__(self) -> None:
        for name in ("max_states", "max_depth", "max_seconds"):
            value = getattr(self, name)
            if value is not None and not value > 0:  # nan included
                raise ValueError(f"{name} must be positive, got {value}")
        if self.energy_ceiling is not None and math.isnan(self.energy_ceiling):
            raise ValueError("energy_ceiling must be a number, got nan")


@dataclass(frozen=True)
class LTSState:
    index: int
    key: str
    structure: SecondaryStructure
    energy: float


class LTSTransition(NamedTuple):
    source: int
    target: int
    rule: RuleId
    matches: int


@dataclass(frozen=True)
class LTS:
    sequence: PrimarySequence
    min_hairpin: int
    allow_inverse: bool
    energy_mode: str
    states: tuple[LTSState, ...]
    transitions: tuple[LTSTransition, ...]
    depths: tuple[int, ...]
    terminal: frozenset[int]
    initial: int = 0
    truncated_by: str | None = None

    @property
    def complete(self) -> bool:
        return self.truncated_by is None


def successors(
    s: SecondaryStructure, g: Grammar
) -> list[tuple[Match, SecondaryStructure]]:
    """All one-step derivations from ``s``, one entry per match, in match order."""
    return [(m, _apply_unchecked(s, m.added)) for m in enumerate_matches(s, g)]


def build_lts(
    seq: PrimarySequence,
    g: Grammar,
    em: EnergyModel,
    limits: ExploreLimits | None = None,
) -> LTS:
    """Breadth-first closure of the folding space from the unfolded state.

    States are deduplicated by dot-bracket key and annotated with their
    observable. Each distinct loop is scanned once per build and keeps its
    moves as (rule position, added pairs) in match order. A move changes one
    loop, so a new state's loops are its source's with that loop swapped
    for :func:`split_loop`'s result, looked up in the loop memo. A state's
    moves are its loops' moves sorted together: two loops never add the
    same outer pair, so the sort keeps match order, and parallel matches
    stay equal, adjacent entries. Each move's target key is read off its
    source's key (:func:`key_with_pairs`), so a target is built, with that
    key, and scored only when its key is new, and a target that a limit
    turned away is not built again. When a limit triggers, the result is
    marked via ``truncated_by`` instead of failing. Only forward moves are
    followed: ``g.allow_inverse`` is only echoed in the export's ``grammar``.
    """
    limits = limits or ExploreLimits()
    start = time.monotonic()
    bases, min_h = seq.bases, g.min_hairpin_unpaired
    s0 = SecondaryStructure(seq)
    states = [LTSState(0, s0.key, s0, observable(s0, em))]
    index: dict[str, int] = {s0.key: 0}
    depths = [0]
    # sources are expanded in index order, so each source's transitions,
    # sorted by (target, rule), extend the ones made so far in sorted order
    transitions: list[LTSTransition] = []
    terminal: set[int] = set()
    truncated: str | None = None
    # the limit that turned a key away: it turns the key away on every
    # later match too, as the observable is fixed and states are never dropped
    turned_away: dict[str, str] = {}
    # each distinct loop as (region, its (rule position, added) moves)
    loop_memo = _LoopMemo(
        lambda loop: [
            (at, added) for at, added, _ in _rule_moves(bases, _loop_sites(bases, min_h, loop))
        ]
    )

    def fed(regions):
        return tuple([entry for entry in map(loop_memo, regions) if entry[1]])

    # each queued state with the memo entries of its loops that have moves
    queue = deque([(0, fed(loop_index(s0)))])

    while queue:
        if limits.max_seconds is not None and time.monotonic() - start > limits.max_seconds:
            truncated = "max_seconds"
            break
        src, loops = queue.popleft()
        if not loops:
            terminal.add(src)
            continue
        if limits.max_depth is not None and depths[src] >= limits.max_depth:
            truncated = "max_depth"
            continue
        source = states[src]
        moves = loops[0][1] if len(loops) == 1 else sorted([m for _, ms in loops for m in ms])
        # (target, rule position in ALL_RULES) -> parallel matches
        edges: dict[tuple[int, int], int] = {}
        for at, added in moves:
            key = key_with_pairs(source.key, added)
            tgt = index.get(key)
            if tgt is None:  # an indexed target passed the ceiling when it was added
                reason = turned_away.get(key)
                if reason is None:
                    target = _apply_unchecked(source.structure, added, key)
                    e = observable(target, em)
                    if limits.energy_ceiling is not None and e > limits.energy_ceiling:
                        reason = "energy_ceiling"
                    elif limits.max_states is not None and len(states) >= limits.max_states:
                        reason = "max_states"
                if reason is not None:
                    truncated = turned_away[key] = reason
                    continue
                tgt = len(states)
                states.append(LTSState(tgt, key, target, e))
                index[key] = tgt
                depths.append(depths[src] + 1)
                k = [added[0].i in region.free for region, _ in loops].index(True)
                split = fed(split_loop(loops[k][0], added))
                queue.append((tgt, loops[:k] + split + loops[k + 1 :]))
            edge = (tgt, at)
            edges[edge] = edges.get(edge, 0) + 1
        transitions += [
            LTSTransition(src, tgt, ALL_RULES[at], count)
            for (tgt, at), count in sorted(edges.items())
        ]

    return LTS(
        sequence=seq,
        min_hairpin=g.min_hairpin_unpaired,
        allow_inverse=g.allow_inverse,
        energy_mode=em.mode,
        states=tuple(states),
        transitions=tuple(transitions),
        depths=tuple(depths),
        terminal=frozenset(terminal),
        truncated_by=truncated,
    )


@dataclass(frozen=True)
class MinEnergyResult:
    index: int
    energy: float
    exact: bool  # false when the LTS was truncated: the value is only a bound


def min_energy_state(lts: LTS) -> MinEnergyResult:
    """The state with minimal finite observable; ties go to the smallest key.

    Raises:
        NoFoldedStateError: every state is unfolded (observable +inf).
    """
    finite = [
        (st.energy, st.key, st.index) for st in lts.states if math.isfinite(st.energy)
    ]
    if not finite:
        raise NoFoldedStateError(
            f"no folded state exists for sequence {lts.sequence.bases!r}"
        )
    e, _, idx = min(finite)
    return MinEnergyResult(idx, e, exact=lts.complete)


@dataclass(frozen=True)
class LTSStats:
    states: int
    transitions: int
    terminal_states: int
    depth_histogram: tuple[int, ...]
    rule_counts: dict[str, int]
    truncated_by: str | None

    def describe(self) -> str:
        return (
            f"states={self.states} transitions={self.transitions} "
            f"terminal={self.terminal_states} max_depth={len(self.depth_histogram) - 1} "
            f"truncated_by={self.truncated_by or 'none'}"
        )


def stats(lts: LTS) -> LTSStats:
    """Size, depth and per-rule transition counts of a transition system."""
    max_depth = max(lts.depths) if lts.depths else 0
    histogram = [0] * (max_depth + 1)
    for d in lts.depths:
        histogram[d] += 1
    rule_counts: dict[str, int] = {}
    for t in lts.transitions:
        rule_counts[t.rule.label] = rule_counts.get(t.rule.label, 0) + 1
    return LTSStats(
        states=len(lts.states),
        transitions=len(lts.transitions),
        terminal_states=len(lts.terminal),
        depth_histogram=tuple(histogram),
        rule_counts=dict(sorted(rule_counts.items())),
        truncated_by=lts.truncated_by,
    )


def fit_growth_base(lengths: list[int], state_counts: list[int]) -> float | None:
    """Fit state counts ~ base**n by regressing log(count) on n.

    Returns None when fewer than two data points are available (the base is
    then undefined).
    """
    if len(lengths) != len(state_counts):
        raise ValueError("lengths and state_counts must have equal size")
    if len(lengths) < 2 or any(c <= 0 for c in state_counts):
        return None
    slope = linear_regression(lengths, [math.log(c) for c in state_counts]).slope
    return math.exp(slope)


@dataclass(frozen=True)
class GrowthSweep:
    entries: tuple[tuple[int, int], ...]  # (sequence length, state count)
    base: float | None
    truncated: bool

    def describe(self) -> str:
        points = " ".join(f"n={n}:{c}" for n, c in self.entries)
        base = f"{self.base:.3f}" if self.base is not None else "undefined"
        return f"{points} fitted_base={base}"


def growth_sweep(
    sequences: list[PrimarySequence],
    g: Grammar,
    em: EnergyModel,
    limits: ExploreLimits | None = None,
) -> GrowthSweep:
    """State counts across a sequence family, with a fitted exponential base.

    The base is fitted over completely explored members only; ``truncated``
    flags that some member hit a limit.
    """
    entries: list[tuple[int, int]] = []
    complete: list[tuple[int, int]] = []
    truncated = False
    for seq in sequences:
        lts = build_lts(seq, g, em, limits)
        entries.append((len(seq), len(lts.states)))
        if lts.complete:
            complete.append((len(seq), len(lts.states)))
        else:
            truncated = True
    base = fit_growth_base([n for n, _ in complete], [c for _, c in complete])
    return GrowthSweep(tuple(entries), base, truncated)


def alternating_gc_sequence(n: int) -> PrimarySequence:
    """The documented sweep family: 'GCGC...' prefixes of length n.

    Each member is a prefix of the next, so valid structures embed and state
    counts are monotone nondecreasing in n.
    """
    return PrimarySequence(("GC" * ((n + 1) // 2))[:n], name=f"gc-alt-{n}")


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def _energy_json(e: float) -> str:
    return "null" if math.isinf(e) else repr(e)


def _energy_label(e: float) -> str:
    return "+inf" if math.isinf(e) else str(e)


def export_lts(lts: LTS, fmt: str) -> str:
    """Serialize a transition system to 'json' or 'dot' text.

    Byte-deterministic for a given LTS. In JSON, the +inf observable of the
    unfolded state is encoded as null.
    """
    if fmt == "json":
        return _export_json(lts)
    if fmt == "dot":
        return _export_dot(lts)
    raise ValueError(f"unknown export format {fmt!r} (expected 'json' or 'dot')")


def _json_list(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def _export_json(lts: LTS) -> str:
    """The bytes ``json.dumps(doc, indent=2) + "\\n"`` gives for the export
    as a document of dicts, written from one template per state and one per
    transition: ``json`` has no C encoder for indented output. Keys hold only
    ``.()`` and rule labels are fixed ASCII, so neither needs escaping; the
    header strings go through ``json.dumps``."""
    states = [
        f'    {{\n      "id": {st.index},\n      "db": "{st.key}",\n'
        f'      "energy": {_energy_json(st.energy)}\n    }}'
        for st in lts.states
    ]
    transitions = [
        f'    {{\n      "from": {t.source},\n      "to": {t.target},\n'
        f'      "rule": "{t.rule.label}",\n      "matches": {t.matches}\n    }}'
        for t in lts.transitions
    ]
    return (
        f'{{\n  "sequence": {json.dumps(lts.sequence.bases)},\n'
        f'  "grammar": {{\n    "min_hairpin": {lts.min_hairpin},\n'
        f'    "allow_inverse": {json.dumps(lts.allow_inverse)}\n  }},\n'
        f'  "energy_mode": {json.dumps(lts.energy_mode)},\n'
        f'  "states": {_json_list(states)},\n'
        f'  "transitions": {_json_list(transitions)},\n'
        f'  "initial": {lts.initial},\n'
        f'  "truncated_by": {json.dumps(lts.truncated_by)}\n}}\n'
    )


def _export_dot(lts: LTS) -> str:
    lines = ["digraph folding_space {", "  rankdir=LR;"]
    for st in lts.states:
        label = f"{st.key}\\n{_energy_label(st.energy)}"
        extra = ", peripheries=2" if st.index == lts.initial else ""
        lines.append(f'  n{st.index} [label="{label}"{extra}];')
    for t in lts.transitions:
        label = t.rule.label if t.matches == 1 else f"{t.rule.label} x{t.matches}"
        lines.append(f'  n{t.source} -> n{t.target} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _balanced(db: str) -> bool:
    """True iff ``db`` holds only '.', '(' and ')', and its brackets balance."""
    depth = 0
    for ch in db:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                return False
        elif ch != ".":
            return False
    return depth == 0


def validate_lts_json(doc: object) -> dict:
    """Check a decoded export against the documented schema; returns it.
    Integers are checked by ``type``, as a JSON boolean decodes to an ``int``.
    State ids are unique, and each state's ``db`` is a balanced dot-bracket
    string of the sequence's length; energies are finite or null, rules are
    rule labels and ``matches`` counts at least 1, as an export writes them.

    Raises:
        ValueError: on any shape or type mismatch.
    """
    if not isinstance(doc, dict):
        raise ValueError("export must be a JSON object")
    required = {
        "sequence", "grammar", "energy_mode", "states", "transitions", "initial",
        "truncated_by",
    }
    missing = required - doc.keys()
    if missing:
        raise ValueError(f"missing key(s) {sorted(missing)}")
    if not isinstance(doc["sequence"], str):
        raise ValueError("sequence must be a string")
    grammar = doc["grammar"]
    if not isinstance(grammar, dict) or type(grammar.get("min_hairpin")) is not int:
        raise ValueError("grammar.min_hairpin must be an integer")
    if not isinstance(grammar.get("allow_inverse"), bool):
        raise ValueError("grammar.allow_inverse must be a boolean")
    if not isinstance(doc["energy_mode"], str):
        raise ValueError("energy_mode must be a string")
    states = doc["states"]
    if not isinstance(states, list) or not states:
        raise ValueError("states must be a nonempty list")
    ids = set()
    for st in states:
        if not isinstance(st, dict) or set(st) != {"id", "db", "energy"}:
            raise ValueError(f"bad state record {st!r}")
        if type(st["id"]) is not int or not isinstance(st["db"], str):
            raise ValueError(f"bad state record {st!r}")
        if st["id"] in ids:
            raise ValueError(f"repeated state id {st['id']}")
        if len(st["db"]) != len(doc["sequence"]) or not _balanced(st["db"]):
            raise ValueError(f"state db is no dot-bracket structure of the sequence: {st!r}")
        energy = st["energy"]
        if energy is not None and (type(energy) not in (int, float) or not math.isfinite(energy)):
            raise ValueError(f"state energy must be a finite number or null: {st!r}")
        ids.add(st["id"])
    if not isinstance(doc["transitions"], list):
        raise ValueError("transitions must be a list")
    labels = [rule.label for rule in ALL_RULES]  # a list: a rule may be unhashable
    for t in doc["transitions"]:
        if not isinstance(t, dict) or set(t) != {"from", "to", "rule", "matches"}:
            raise ValueError(f"bad transition record {t!r}")
        if not (all(type(t[k]) is int for k in ("from", "to", "matches"))
                and t["rule"] in labels and t["matches"] >= 1):
            raise ValueError(f"bad transition record {t!r}")
        if t["from"] not in ids or t["to"] not in ids:
            raise ValueError(f"transition references unknown state: {t!r}")
    if type(doc["initial"]) is not int or doc["initial"] not in ids:
        raise ValueError("initial state id is unknown")
    if doc["truncated_by"] is not None and not isinstance(doc["truncated_by"], str):
        raise ValueError("truncated_by must be a string or null")
    return doc
