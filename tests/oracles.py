"""Independent oracles used to verify the engine.

Deliberately naive implementations that share no code path with the package:
exhaustive recursive enumeration of valid structures, a maximum-pairing
dynamic program, a brute-force match scan driven only by the public gluing
predicate, a loop decomposition by a stack walk over the sorted pairs,
loop-table terms read straight off the parameter tables, and the greedy
choice taken over fully built, fully scored successors, and the lookahead
strategy that searches every level breadth-first through a context's
``successors_of`` and ``score``. The exceptions are
the eager adaptation search, a controller subclass that keeps the
controller's constraint checks but builds and checks every child of a
structure as soon as it expands it, and the reference folding-space build
and JSON export, which keep the package's records but build and key every
successor and encode through ``json.dumps``.
"""

from __future__ import annotations

import json
import math
import time
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from grafold.controller import (
    AdaptationOutcome,
    Controller,
    StrategyContext,
    StrategyDecision,
    _path,
)
from grafold.energy import EnergyModel, LoopClass, LoopTableParams, observable
from grafold.grammar import (
    ALL_RULES,
    Grammar,
    LoopKind,
    Match,
    RuleId,
    _inverse_steps,
    gluing_check,
)
from grafold.space import LTS, ExploreLimits, LTSState, LTSTransition, successors
from grafold.structure import (
    BasePair,
    PrimarySequence,
    SecondaryStructure,
    is_admissible_pair,
    validate_structure,
)


def all_valid_structures(seq: PrimarySequence, min_hairpin: int) -> set[frozenset[BasePair]]:
    """Every pair set forming a valid pseudoknot-free structure over seq.

    Enumerates all non-crossing partial matchings recursively, then filters
    with validate_structure, so it is independent of the grammar.
    """
    n = len(seq)

    @lru_cache(maxsize=None)
    def window(lo: int, hi: int) -> tuple[frozenset[BasePair], ...]:
        if lo >= hi:
            return (frozenset(),)
        results = list(window(lo + 1, hi))
        for j in range(lo + 2, hi):
            if not is_admissible_pair(seq[lo], seq[j]):
                continue
            for inside in window(lo + 1, j):
                for right in window(j + 1, hi):
                    results.append(inside | right | {BasePair(lo, j)})
        return tuple(results)

    candidates = window(0, n)
    return {
        ps
        for ps in candidates
        if validate_structure(SecondaryStructure(seq, ps), min_hairpin).ok
    }


def nussinov_max_pairs(seq: PrimarySequence, min_hairpin: int) -> int:
    """Maximum number of base pairs over valid structures (classic DP)."""
    n = len(seq)
    dp = [[0] * n for _ in range(n)]
    for span in range(1, n):
        for i in range(n - span):
            j = i + span
            best = dp[i + 1][j] if i + 1 <= j else 0
            for k in range(i + min_hairpin + 1, j + 1):
                if not is_admissible_pair(seq[i], seq[k]):
                    continue
                inside = dp[i + 1][k - 1] if i + 1 <= k - 1 else 0
                right = dp[k + 1][j] if k + 1 <= j else 0
                best = max(best, 1 + inside + right)
            dp[i][j] = best
    return dp[0][n - 1]


def _rule_arities(rule) -> tuple[int, list[int]]:
    """(number of added pairs, possible context sizes) for a rule."""
    if rule.loop_kind is LoopKind.MULTI:
        return 1, [2] if rule.variant == 1 else [3, 4, 5, 6, 7, 8]
    if rule.variant == 2:
        return 1, [1]
    if rule.loop_kind is LoopKind.HAIRPIN:
        return 1, [0]
    return 2, [0]


def brute_force_matches(s: SecondaryStructure, g: Grammar) -> list[Match]:
    """All matches found by scanning every candidate site with gluing_check."""
    n = s.n
    singles = [BasePair(i, j) for i in range(n) for j in range(i + 1, n)]
    doubles = list(combinations(singles, 2))
    existing = sorted(s.pairs)
    found: list[Match] = []
    for rule in ALL_RULES:
        added_count, context_sizes = _rule_arities(rule)
        added_sets = [(p,) for p in singles] if added_count == 1 else doubles
        for added in added_sets:
            for size in context_sizes:
                if size > len(existing):
                    continue
                for context in combinations(existing, size):
                    m = Match(rule, tuple(added), context)
                    if gluing_check(s, m, g):
                        found.append(m)
    found.sort(key=lambda m: m.sort_key)
    return found


@dataclass(frozen=True)
class Loop:
    """One loop of the stack-walk decomposition.

    Attributes:
        kind: Loop class.
        closing: The pair closing this loop; None for the exterior loop.
        branches: Directly enclosed pairs (left to right).
        unpaired: Count of unpaired positions belonging to this loop.
    """

    kind: LoopClass
    closing: BasePair | None
    branches: tuple[BasePair, ...]
    unpaired: int


def stack_walk_loops(s: SecondaryStructure) -> tuple[Loop, ...]:
    """The loops of a valid structure in ``decompose_loops`` order, found by
    a stack walk over its sorted pairs: closed loops by closing pair, then
    the exterior loop."""
    children: dict[BasePair, list[BasePair]] = {}
    top_level: list[BasePair] = []
    stack: list[BasePair] = []
    for pair in sorted(s.pairs):
        while stack and stack[-1].j < pair.i:
            stack.pop()
        if stack:
            children.setdefault(stack[-1], []).append(pair)
        else:
            top_level.append(pair)
        stack.append(pair)

    loops: list[Loop] = []
    for pair in sorted(s.pairs):
        kids = tuple(children.get(pair, ()))
        unpaired = pair.j - pair.i - 1 - sum(k.j - k.i + 1 for k in kids)
        if not kids:
            kind = LoopClass.HAIRPIN
        elif len(kids) == 1:
            gap_l = kids[0].i - pair.i - 1
            gap_r = pair.j - kids[0].j - 1
            if gap_l == 0 and gap_r == 0:
                kind = LoopClass.STACK
            elif gap_l == 0 or gap_r == 0:
                kind = LoopClass.BULGE
            else:
                kind = LoopClass.INTERNAL
        else:
            kind = LoopClass.MULTI
        loops.append(Loop(kind, pair, kids, unpaired))
    exterior_unpaired = s.n - sum(p.j - p.i + 1 for p in top_level)
    loops.append(Loop(LoopClass.EXTERIOR, None, tuple(top_level), exterior_unpaired))
    return tuple(loops)


def table_loop_term(loop: Loop, seq: PrimarySequence, params: LoopTableParams) -> float:
    """The loop-table term of ``loop``, read off the tables on every call:
    the stack entry keyed (closing pair type, branch pair type); the length
    entry of a hairpin, bulge or internal loop, or past the end of its table
    the last entry plus 1.75 RT ln(length / last length); the multibranch
    line; 0.0 for the exterior loop."""
    if loop.kind is LoopClass.EXTERIOR:
        return 0.0
    if loop.kind is LoopClass.STACK:
        (i, j), (k, l) = loop.closing, loop.branches[0]
        return params.stack[(seq[i] + seq[j], seq[k] + seq[l])]
    if loop.kind is LoopClass.MULTI:
        return (
            params.multibranch_offset
            + params.multibranch_per_branch * len(loop.branches)
            + params.multibranch_per_unpaired * loop.unpaired
        )
    table = {
        LoopClass.HAIRPIN: params.hairpin,
        LoopClass.BULGE: params.bulge,
        LoopClass.INTERNAL: params.internal,
    }[loop.kind]
    last = max(table)
    if loop.unpaired <= last:
        return table[loop.unpaired]
    return table[last] + 1.75 * 0.616 * math.log(loop.unpaired / last)


def phi0_select(
    q: SecondaryStructure,
    succs: list[tuple[Match, SecondaryStructure]],
    em: EnergyModel,
) -> tuple[Match, SecondaryStructure] | None:
    """The greedy choice: the minimal-observable successor, ties broken on
    the smallest dot-bracket key, if it does not exceed the observable of
    ``q``; None when no successor qualifies (or there is none)."""
    if not succs:
        return None
    best = min(succs, key=lambda ms: (observable(ms[1], em), ms[1].key))
    if observable(best[1], em) <= observable(q, em):
        return best
    return None


def reference_lookahead(ctx: StrategyContext) -> StrategyDecision:
    """The lookahead strategy with every level searched breadth-first: each
    first step's structures within ``depth`` forward steps, each built
    through ``ctx.successors_of`` and scored through ``ctx.score`` once, the
    least (score, key) of them deciding; it asks no ``ctx.least_step``."""
    depth = ctx.params.get("depth", 2)
    if depth < 1:
        return StrategyDecision(satisfied=False)
    best_choice: tuple[float, str, str, SecondaryStructure] | None = None
    for label, first in ctx.successors:
        frontier = [first]
        seen = {first.key}
        level = 1
        local_best = (ctx.score(first), first.key)
        while level < depth and frontier:
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


class EagerController(Controller):
    """The controller with a fully expanded adaptation BFS: each structure
    taken off the queue builds, deduplicates and ψ-checks all its forward
    targets and then all its inverse sources before the next one is taken,
    and ``max_adaptation_states`` counts structures taken off the queue."""

    def adaptation_phase(self) -> AdaptationOutcome:
        origin = self.state
        candidates = self.machine.state(origin.s_state).transitions
        if not candidates:
            return AdaptationOutcome(False, "no-adaptation-targets")
        psis = tuple(psi for _, psi in candidates)
        parent = {origin.structure.key: (None, None, origin.structure)}
        queue = deque([(0, origin.structure)])
        explored = 0
        limit_hit = None
        while queue:
            depth, node = queue.popleft()
            explored += 1
            if (
                self.limits.max_adaptation_states is not None
                and explored > self.limits.max_adaptation_states
            ):
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
            max_depth = self.limits.max_adaptation_depth
            entry = self._moves(node)
            moves = list(entry.forward(()))
            if self.grammar.allow_inverse:
                moves.extend(
                    (f"inverse:{ALL_RULES[at].label}", node.without(removed))
                    for at, removed, _ in _inverse_steps(entry.loops)
                )
            if max_depth is not None and depth >= max_depth:
                # the limit ends the phase only if it kept the search from a move
                if moves:
                    limit_hit = "adaptation-depth-limit"
                continue
            for label, child in moves:
                if child.key in parent:
                    continue
                if not self._psi_holds(psis, child):
                    continue
                parent[child.key] = (node.key, label, child)
                queue.append((depth + 1, child))
        return AdaptationOutcome(False, limit_hit or "exhausted")


def built_lts(
    seq: PrimarySequence, g: Grammar, em: EnergyModel, limits: ExploreLimits | None = None
) -> LTS:
    """The folding space built by building every successor of a state
    (``space.successors``) and keying the built structure, with parallel
    matches merged under their ``RuleId`` and transitions sorted by
    (source, target, rule order)."""
    limits = limits or ExploreLimits()
    start = time.monotonic()
    s0 = SecondaryStructure(seq)
    states = [LTSState(0, s0.key, s0, observable(s0, em))]
    index: dict[str, int] = {s0.key: 0}
    depths = [0]
    edges: dict[tuple[int, int, RuleId], int] = {}
    terminal: set[int] = set()
    truncated: str | None = None
    queue: deque[int] = deque([0])

    while queue:
        if limits.max_seconds is not None and time.monotonic() - start > limits.max_seconds:
            truncated = "max_seconds"
            break
        src = queue.popleft()
        succ = successors(states[src].structure, g)
        if not succ:
            terminal.add(src)
            continue
        if limits.max_depth is not None and depths[src] >= limits.max_depth:
            truncated = "max_depth"
            continue
        for match, target in succ:
            tgt = index.get(target.key)
            e = observable(target, em) if tgt is None else states[tgt].energy
            if limits.energy_ceiling is not None and e > limits.energy_ceiling:
                truncated = "energy_ceiling"
                continue
            if tgt is None:
                if limits.max_states is not None and len(states) >= limits.max_states:
                    truncated = "max_states"
                    continue
                tgt = len(states)
                states.append(LTSState(tgt, target.key, target, e))
                index[target.key] = tgt
                depths.append(depths[src] + 1)
                queue.append(tgt)
            key = (src, tgt, match.rule)
            edges[key] = edges.get(key, 0) + 1

    transitions = tuple(
        LTSTransition(src, tgt, rule, count)
        for (src, tgt, rule), count in sorted(
            edges.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2].sort_key)
        )
    )
    return LTS(
        sequence=seq,
        min_hairpin=g.min_hairpin_unpaired,
        allow_inverse=g.allow_inverse,
        energy_mode=em.mode,
        states=tuple(states),
        transitions=transitions,
        depths=tuple(depths),
        terminal=frozenset(terminal),
        truncated_by=truncated,
    )


def json_export(lts: LTS) -> str:
    """The folding-space JSON export as ``json.dumps`` writes it: a document
    of dicts, 2-space indent, +inf and -inf observables as null."""
    doc = {
        "sequence": lts.sequence.bases,
        "grammar": {
            "min_hairpin": lts.min_hairpin,
            "allow_inverse": lts.allow_inverse,
        },
        "energy_mode": lts.energy_mode,
        "states": [
            {"id": st.index, "db": st.key, "energy": None if math.isinf(st.energy) else st.energy}
            for st in lts.states
        ],
        "transitions": [
            {"from": t.source, "to": t.target, "rule": t.rule.label, "matches": t.matches}
            for t in lts.transitions
        ],
        "initial": lts.initial,
        "truncated_by": lts.truncated_by,
    }
    return json.dumps(doc, indent=2) + "\n"
