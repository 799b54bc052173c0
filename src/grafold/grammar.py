"""The eleven loop-building rewrite rules and their matching machinery.

Every rule glues one loop element onto a structure by adding one or two
base pairs; nothing is ever deleted or relabelled. Rule-1 variants build a
loop from scratch, Rule-2 variants extend existing pairs; pre-existing
pairs a rule relies on are the ``context`` of a match (one pair for Rule-2
extensions, the enclosed branches for the multi-branch rules).
Applicability is a gluing check: added pairs must join admissible unpaired
positions, the result must stay a valid pseudoknot-free structure, and the
rule's site predicate must hold.

Site predicates, with (i,j) the added outer pair and ``min`` the grammar's
minimum hairpin size:

* Hairpin Rule-1: add (i,j); i+1..j-1 all unpaired and j-i-1 >= min.
* Helix Rule-1: add (i,j) and (i+1,j-1); four unpaired endpoints.
  Helix Rule-2: stack a pair directly inside or outside an existing pair.
* Bulge-r Rule-1: add (i,j) and (i+1,j') with an unpaired run j'+1..j-1
  (>= 1 base on the 3' side only). Rule-2: one of the two pairs exists.
  Bulge-l: mirrored on the 5' side.
* Internal-loop Rule-1: add (i,j) and (i',j') with nonempty unpaired runs
  on both sides. Rule-2: inner or outer pair exists.
* Multi-branched-loop Rule-1: add a closing pair (i,j) whose interval
  directly contains exactly two branch pairs; Rule-2: three or more.
  Separating runs may be empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import combinations

from .structure import (
    BASES,
    DEFAULT_MIN_HAIRPIN,
    BasePair,
    SecondaryStructure,
    is_admissible_pair,
    loop_index,
    pairs_cross,
    with_pairs_added,
)

__all__ = [
    "LoopKind",
    "RuleId",
    "Match",
    "Grammar",
    "GluingError",
    "DerivationError",
    "ALL_RULES",
    "RULE_DESCRIPTIONS",
    "gluing_check",
    "enumerate_matches",
    "enumerate_inverse_matches",
    "apply_match",
    "invert_match",
    "derive",
]


class LoopKind(Enum):
    HAIRPIN = "Hairpin"
    BULGE_R = "Bulge-r"
    BULGE_L = "Bulge-l"
    HELIX = "Helix"
    INTERNAL = "Internal-loop"
    MULTI = "Multi-branched-loop"


_KIND_ORDER = {kind: n for n, kind in enumerate(LoopKind)}


@dataclass(frozen=True)
class RuleId:
    """One of the eleven productions: a loop kind plus variant 1 or 2."""

    loop_kind: LoopKind
    variant: int

    def __post_init__(self) -> None:
        if self.variant not in (1, 2):
            raise ValueError(f"variant must be 1 or 2, got {self.variant}")
        if self.loop_kind is LoopKind.HAIRPIN and self.variant != 1:
            raise ValueError("the hairpin loop has a single rule (variant 1)")

    @property
    def label(self) -> str:
        return f"{self.loop_kind.value}-Rule-{self.variant}"

    @property
    def sort_key(self) -> tuple[int, int]:
        return (_KIND_ORDER[self.loop_kind], self.variant)


HAIRPIN_1 = RuleId(LoopKind.HAIRPIN, 1)
BULGE_R_1 = RuleId(LoopKind.BULGE_R, 1)
BULGE_R_2 = RuleId(LoopKind.BULGE_R, 2)
BULGE_L_1 = RuleId(LoopKind.BULGE_L, 1)
BULGE_L_2 = RuleId(LoopKind.BULGE_L, 2)
HELIX_1 = RuleId(LoopKind.HELIX, 1)
HELIX_2 = RuleId(LoopKind.HELIX, 2)
INTERNAL_1 = RuleId(LoopKind.INTERNAL, 1)
INTERNAL_2 = RuleId(LoopKind.INTERNAL, 2)
MULTI_1 = RuleId(LoopKind.MULTI, 1)
MULTI_2 = RuleId(LoopKind.MULTI, 2)

#: The fixed production set, in table order.
ALL_RULES: tuple[RuleId, ...] = (
    HAIRPIN_1,
    BULGE_R_1,
    BULGE_R_2,
    BULGE_L_1,
    BULGE_L_2,
    HELIX_1,
    HELIX_2,
    INTERNAL_1,
    INTERNAL_2,
    MULTI_1,
    MULTI_2,
)

RULE_DESCRIPTIONS: dict[RuleId, str] = {
    HAIRPIN_1: "add (i,j) over an unpaired run i+1..j-1 of length >= min_hairpin",
    BULGE_R_1: "add (i,j) and (i+1,j') with an unpaired run j'+1..j-1 on the 3' side only",
    BULGE_R_2: "one bulge pair exists; add the other across the 3'-side unpaired run",
    BULGE_L_1: "add (i,j) and (i',j-1) with an unpaired run i+1..i'-1 on the 5' side only",
    BULGE_L_2: "one bulge pair exists; add the other across the 5'-side unpaired run",
    HELIX_1: "add stacked pairs (i,j) and (i+1,j-1) on four unpaired endpoints",
    HELIX_2: "stack a new pair directly inside or outside an existing pair",
    INTERNAL_1: "add (i,j) and (i',j') with nonempty unpaired runs on both sides",
    INTERNAL_2: "inner or outer pair exists; add the other across two unpaired runs",
    MULTI_1: "close exactly two directly-enclosed branch pairs with a new pair (i,j)",
    MULTI_2: "close three or more directly-enclosed branch pairs with a new pair (i,j)",
}


class GluingError(ValueError):
    """A match failed its gluing conditions on application."""


class DerivationError(ValueError):
    """A derivation script failed at some step."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def _normalized(pairs) -> tuple[BasePair, ...]:
    """``pairs`` as a sorted tuple of ``BasePair(i, j)`` with ``i < j``; a
    tuple already in that form is returned as it is."""
    if type(pairs) is tuple:
        prev = (-1, -1)
        for pair in pairs:
            if type(pair) is not BasePair or pair[0] >= pair[1] or pair <= prev:
                break
            prev = pair
        else:
            return pairs
    return tuple(sorted(BasePair(min(i, j), max(i, j)) for i, j in pairs))


@dataclass(frozen=True)
class Match:
    """A rule together with a concrete site: added pairs plus context pairs.

    Rule-1 matches of helix, bulge and internal loops add two pairs and need
    no context; the hairpin rule adds one. Rule-2 matches add one pair next
    to one existing context pair. Multi-branch matches add the closing pair,
    with the directly enclosed branches as context (two for Rule-1, three or
    more for Rule-2).
    """

    rule: RuleId
    added: tuple[BasePair, ...]
    context: tuple[BasePair, ...] = ()

    def __post_init__(self) -> None:
        added, context = _normalized(self.added), _normalized(self.context)
        if added is not self.added:
            object.__setattr__(self, "added", added)
        if context is not self.context:
            object.__setattr__(self, "context", context)
        kind, variant = self.rule.loop_kind, self.rule.variant
        if kind is LoopKind.MULTI:
            want_added, ctx_ok = 1, (len(context) == 2 if variant == 1 else len(context) >= 3)
        elif variant == 1:
            want_added = 1 if kind is LoopKind.HAIRPIN else 2
            ctx_ok = len(context) == 0
        else:
            want_added, ctx_ok = 1, len(context) == 1
        if len(added) != want_added:
            raise ValueError(
                f"{self.rule.label} adds {want_added} pair(s), got {len(added)}"
            )
        if not ctx_ok:
            raise ValueError(f"{self.rule.label} got {len(context)} context pair(s)")

    @property
    def sort_key(self):
        return (self.rule.sort_key, self.added, self.context)


@dataclass(frozen=True)
class Grammar:
    """The production set plus the biological knobs that parametrize it."""

    min_hairpin_unpaired: int = DEFAULT_MIN_HAIRPIN
    allow_inverse: bool = False
    rules: tuple[RuleId, ...] = ALL_RULES

    def __post_init__(self) -> None:
        if self.min_hairpin_unpaired < 1:
            raise ValueError("min_hairpin_unpaired must be >= 1 (pairs join non-adjacent bases)")
        if len(set(self.rules)) != len(self.rules):
            raise ValueError("duplicate rules")

    @cached_property
    def rule_set(self) -> frozenset[RuleId]:
        return frozenset(self.rules)


# ---------------------------------------------------------------------------
# Gluing machinery
# ---------------------------------------------------------------------------


def _run_clear(partner: dict[int, int], a: int, b: int) -> bool:
    """True iff positions a..b (inclusive) are all unpaired; empty runs pass."""
    return all(pos not in partner for pos in range(a, b + 1))


def _addition_ok(s: SecondaryStructure, min_hairpin: int, added: tuple[BasePair, ...]) -> bool:
    """Shared gluing core: would adding these pairs keep the structure valid?

    Checks admissibility, free non-adjacent endpoints, non-crossing against
    existing and sibling pairs, and the hairpin minimum for any added pair
    that ends up innermost. Assumes ``s`` itself is valid.
    """
    seq, n, partner = s.sequence, s.n, s.partner
    seen: set[int] = set()
    for a, b in added:
        if a < 0 or b >= n or b - a < 2:
            return False
        if not is_admissible_pair(seq[a], seq[b]):
            return False
        if a in partner or b in partner or a in seen or b in seen:
            return False
        seen.update((a, b))
    for p in added:
        for q in s.pairs:
            if pairs_cross(p, q):
                return False
    for p, q in combinations(added, 2):
        if pairs_cross(p, q):
            return False
    for a, b in added:
        has_inner = any(a < pos < b for pos in partner) or any(
            a < c and d < b for c, d in added if (c, d) != (a, b)
        )
        if not has_inner and b - a - 1 < min_hairpin:
            return False
    return True


def _direct_children(s: SecondaryStructure, a: int, b: int) -> tuple[BasePair, ...]:
    """Top-level pairs strictly inside (a, b), left to right."""
    children: list[BasePair] = []
    end = a
    for pair in s.sorted_pairs:
        if pair.i <= end or pair.j >= b:
            continue
        children.append(pair)
        end = pair.j
    return tuple(children)


def _direct_parent(s: SecondaryStructure, a: int, b: int) -> BasePair | None:
    """The innermost existing pair strictly enclosing (a, b), if any."""
    parent: BasePair | None = None
    for pair in s.sorted_pairs:
        if pair.i < a and b < pair.j:
            if parent is None or pair.i > parent.i:
                parent = pair
    return parent


def _single_addition_matches(
    s: SecondaryStructure, pair: BasePair, rule_set: frozenset[RuleId]
) -> list[Match]:
    """All matches whose single added pair is ``pair`` (gluing core assumed ok).

    Classified twice: by the direct interior of the added pair (what it
    closes) and by its direct parent (what it extends inward). The two views
    can both apply, yielding distinct matches.
    """
    a, b = pair
    partner = s.partner
    out: list[Match] = []

    children = _direct_children(s, a, b)
    if not children:
        if HAIRPIN_1 in rule_set:
            out.append(Match(HAIRPIN_1, (pair,)))
    elif len(children) == 1:
        c, d = children[0]
        gap_l, gap_r = c - a - 1, b - d - 1
        if gap_l == 0 and gap_r == 0:
            rule = HELIX_2
        elif gap_l == 0:
            rule = BULGE_R_2
        elif gap_r == 0:
            rule = BULGE_L_2
        else:
            rule = INTERNAL_2
        if rule in rule_set:
            out.append(Match(rule, (pair,), children))
    else:
        rule = MULTI_1 if len(children) == 2 else MULTI_2
        if rule in rule_set:
            out.append(Match(rule, (pair,), children))

    parent = _direct_parent(s, a, b)
    if parent is not None:
        p, q = parent
        if _run_clear(partner, p + 1, a - 1) and _run_clear(partner, b + 1, q - 1):
            gap_l, gap_r = a - p - 1, q - b - 1
            if gap_l == 0 and gap_r == 0:
                rule = HELIX_2
            elif gap_l == 0:
                rule = BULGE_R_2
            elif gap_r == 0:
                rule = BULGE_L_2
            else:
                rule = INTERNAL_2
            if rule in rule_set:
                out.append(Match(rule, (pair,), (parent,)))
    return out


def _double_addition_matches(
    s: SecondaryStructure, first: BasePair, second: BasePair, rule_set: frozenset[RuleId]
) -> list[Match]:
    """The Rule-1 match (if any) adding the nested pair {first, second}."""
    outer, inner = sorted((first, second))
    if not (outer.i < inner.i and inner.j < outer.j):
        return []
    partner = s.partner
    gap_l, gap_r = inner.i - outer.i - 1, outer.j - inner.j - 1
    if gap_l == 0 and gap_r == 0:
        rule = HELIX_1
    elif gap_l == 0 and _run_clear(partner, inner.j + 1, outer.j - 1):
        rule = BULGE_R_1
    elif gap_r == 0 and _run_clear(partner, outer.i + 1, inner.i - 1):
        rule = BULGE_L_1
    elif (
        gap_l >= 1
        and gap_r >= 1
        and _run_clear(partner, outer.i + 1, inner.i - 1)
        and _run_clear(partner, inner.j + 1, outer.j - 1)
    ):
        rule = INTERNAL_1
    else:
        return []
    if rule not in rule_set:
        return []
    return [Match(rule, (outer, inner))]


def _matches_for_added(
    s: SecondaryStructure, g: Grammar, added: tuple[BasePair, ...]
) -> list[Match]:
    """All matches whose exact added-pair set is ``added``."""
    if not _addition_ok(s, g.min_hairpin_unpaired, added):
        return []
    if len(added) == 1:
        return _single_addition_matches(s, added[0], g.rule_set)
    if len(added) == 2:
        return _double_addition_matches(s, added[0], added[1], g.rule_set)
    return []


def gluing_check(s: SecondaryStructure, m: Match, g: Grammar) -> bool:
    """True iff applying ``m`` to ``s`` is admissible.

    Covers base-pair admissibility, free endpoints, non-crossing, validity of
    the result (including the hairpin minimum), presence of the context pairs
    and the rule's site predicate.
    """
    if any(c not in s.pairs for c in m.context):
        return False
    return m in _matches_for_added(s, g, m.added)


#: The Rule-2 (one added pair next to one existing pair) and Rule-1
#: (two added pairs) rule of each gap shape, indexed by (left gap > 0,
#: right gap > 0): both flush is a helix, one gap a bulge, two an internal loop.
_RULE2_BY_GAPS = {
    (False, False): HELIX_2,
    (False, True): BULGE_R_2,
    (True, False): BULGE_L_2,
    (True, True): INTERNAL_2,
}
_RULE1_BY_GAPS = {
    (False, False): HELIX_1,
    (False, True): BULGE_R_1,
    (True, False): BULGE_L_1,
    (True, True): INTERNAL_1,
}

#: The bases each base may pair with (Watson-Crick plus G-U wobble).
_PAIRS_WITH = {a: "".join(b for b in sorted(BASES) if is_admissible_pair(a, b)) for a in BASES}


def enumerate_matches(s: SecondaryStructure, g: Grammar) -> list[Match]:
    """Every match of every grammar rule on ``s``, in deterministic order.

    Every rule adds its pairs inside one loop, so the scan runs over one loop
    index of ``s``: a new pair joins two admissible unpaired positions of one
    loop, its children are the loop's branches between them, and its parent
    is the loop's closing pair when no branch lies outside them. A Rule-1
    double nests a second new pair inside the first, across the runs of
    consecutive unpaired positions next to its ends. Each rule's matches come
    out in (added pairs, context) order, so the result is sorted by (rule,
    added pairs, context) without a sort.

    Args:
        s: A valid structure.
        g: Grammar parameters.

    Returns:
        Sorted list of matches; empty when ``s`` is terminal.
    """
    bases, n, partner = s.sequence.bases, s.n, s.partner
    min_h = g.min_hairpin_unpaired
    # one output list per rule in the grammar; a rule outside it maps to None
    buckets: dict[RuleId, list[Match]] = {rule: [] for rule in ALL_RULES if rule in g.rules}
    hairpins = buckets.get(HAIRPIN_1)
    multi = {more: (rule, buckets.get(rule)) for more, rule in ((False, MULTI_1), (True, MULTI_2))}
    rule2 = {gaps: (rule, buckets.get(rule)) for gaps, rule in _RULE2_BY_GAPS.items()}
    rule1 = {gaps: (rule, buckets.get(rule)) for gaps, rule in _RULE1_BY_GAPS.items()}
    any_double = any(bucket is not None for _, bucket in rule1.values())

    loops, owner, slot = loop_index(s)
    # run_end[a] / run_start[b]: the last / first position of the run of
    # consecutive unpaired positions through a / b
    run_end = [0] * n
    for pos in range(n - 1, -1, -1):
        run_end[pos] = run_end[pos + 1] if pos + 1 < n and pos + 1 not in partner else pos
    run_start = [0] * n
    for pos in range(n):
        run_start[pos] = run_start[pos - 1] if pos and pos - 1 not in partner else pos

    for a in range(n):
        if owner[a] < 0:
            continue
        loop = loops[owner[a]]
        free, before, branches, closing = loop.free, loop.before, loop.branches, loop.closing
        mates = _PAIRS_WITH[bases[a]]
        left = before[slot[a]]
        for y in range(slot[a] + 1, len(free)):
            b = free[y]
            if bases[b] not in mates:
                continue
            kids = tuple(branches[left : before[y]])
            if not kids and b - a - 1 < min_h:
                continue
            pair = BasePair(a, b)
            if closing is not None and left == 0 and before[y] == len(branches):
                p, q = closing
                rule, bucket = rule2[(a - p > 1, q - b > 1)]
                if bucket is not None:
                    bucket.append(Match(rule, (pair,), (closing,)))
            if not kids:
                if hairpins is not None:
                    hairpins.append(Match(HAIRPIN_1, (pair,)))
            elif len(kids) == 1:
                c, d = kids[0]
                rule, bucket = rule2[(c - a > 1, b - d > 1)]
                if bucket is not None:
                    bucket.append(Match(rule, (pair,), kids))
            else:
                rule, bucket = multi[len(kids) > 2]
                if bucket is not None:
                    bucket.append(Match(rule, (pair,), kids))

            if not any_double:
                continue
            # the inner pair (c, d): c in the unpaired run after a, d in the
            # run before b, enclosing the children or a hairpin
            min_span = 2 if kids else min_h + 1
            d_lo = max(run_start[b], a + 1)
            for c in range(a + 1, min(run_end[a], b - 1) + 1):
                inner_mates = _PAIRS_WITH[bases[c]]
                for d in range(max(d_lo, c + min_span), b):
                    if bases[d] not in inner_mates:
                        continue
                    rule, bucket = rule1[(c - a > 1, b - d > 1)]
                    if bucket is not None:
                        bucket.append(Match(rule, (pair, BasePair(c, d))))

    return [m for bucket in buckets.values() for m in bucket]


def enumerate_inverse_matches(
    s: SecondaryStructure, g: Grammar
) -> list[tuple[Match, SecondaryStructure]]:
    """Rule applications that could have produced ``s``, with their sources.

    Each entry is a (match, predecessor) pair such that applying the match to
    the predecessor yields ``s`` exactly. Used for backtracking moves.
    """
    out: list[tuple[Match, SecondaryStructure]] = []
    pairs = s.sorted_pairs
    for pair in pairs:
        source = s.without((pair,))
        for m in _matches_for_added(source, g, (pair,)):
            out.append((m, source))
    for first, second in combinations(pairs, 2):
        outer, inner = sorted((first, second))
        if not (outer.i < inner.i and inner.j < outer.j):
            continue
        source = s.without((first, second))
        for m in _matches_for_added(source, g, (outer, inner)):
            out.append((m, source))
    out.sort(key=lambda item: item[0].sort_key)
    return out


def _apply_unchecked(s: SecondaryStructure, m: Match) -> SecondaryStructure:
    """Fast application for matches known to pass gluing (enumeration output)."""
    return SecondaryStructure(s.sequence, s.pairs | frozenset(m.added))


def apply_match(s: SecondaryStructure, m: Match, g: Grammar) -> SecondaryStructure:
    """Apply one rewrite step, re-checking the gluing conditions defensively.

    Returns the derived structure; ``s`` is unchanged.

    Raises:
        GluingError: the match does not pass :func:`gluing_check` on ``s``.
    """
    if not gluing_check(s, m, g):
        raise GluingError(f"gluing conditions fail for {m.rule.label} adding {list(m.added)}")
    return with_pairs_added(s, m.added, min_hairpin_unpaired=g.min_hairpin_unpaired)


def invert_match(s: SecondaryStructure, m: Match) -> SecondaryStructure:
    """Remove a match's added pairs: the inverse of :func:`apply_match`.

    Raises:
        GluingError: some added pair is not present in ``s``.
    """
    missing = [p for p in m.added if p not in s.pairs]
    if missing:
        raise GluingError(f"cannot invert {m.rule.label}: pair {missing[0]} not present")
    return s.without(m.added)


def derive(
    s0: SecondaryStructure, g: Grammar, script: list[Match] | tuple[Match, ...]
) -> list[SecondaryStructure]:
    """Fold a script of matches over ``s0``, step by step.

    Returns:
        The trajectory [s0, G1, ..., Gn]; the last entry is the final
        structure (``s0`` itself for an empty script).

    Raises:
        DerivationError: carrying the index of the first failing step.
    """
    states = [s0]
    for idx, m in enumerate(script):
        current = states[-1]
        if not gluing_check(current, m, g):
            raise DerivationError(
                f"step {idx} ({m.rule.label} adding {list(m.added)}) is not applicable", idx
            )
        states.append(
            with_pairs_added(current, m.added, min_hairpin_unpaired=g.min_hairpin_unpaired)
        )
    return states
