"""The eleven loop-building rewrite rules and their matching machinery.

Every rule glues one loop element onto a structure by adding one or two
base pairs; nothing is ever deleted or relabelled. Rule-1 variants build a
loop from scratch, Rule-2 variants extend existing pairs; pre-existing
pairs a rule relies on are the ``context`` of a match (one pair for Rule-2
extensions, the enclosed branches for the multi-branch rules).
Applicability is a gluing check: added pairs must join admissible unpaired
positions, the result must stay a valid pseudoknot-free structure, and the
rule's site predicate must hold.

Because every application glues one loop element, the loops of the result
alone tell which applications produce it: the loop an added pair closes
gives the hairpin, inward Rule-2 and multi-branch rules; the loop it is a
branch of gives outward Rule-2 when the pair is that loop's only branch; and
two added pairs are a Rule-1 double when the inner one is the only branch of
the outer one. Gluing checks and inverse moves are both decided this way,
from the loops (:func:`~grafold.structure.loop_index`) of the result.
Forward enumeration reads the loops of the source instead, so the two stay
independent algorithms that tests compare.

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

from bisect import bisect_left
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter

from .structure import (
    BASES,
    DEFAULT_MIN_HAIRPIN,
    BasePair,
    LoopRegion,
    SecondaryStructure,
    StructureError,
    is_admissible_pair,
    loop_index,
    validate_structure,
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
        # plain attributes beside the fields: equality and hashing read the
        # fields only
        object.__setattr__(self, "label", f"{self.loop_kind.value}-Rule-{self.variant}")
        object.__setattr__(self, "sort_key", (_KIND_ORDER[self.loop_kind], self.variant))


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
    """``pairs`` as a sorted tuple of ``BasePair(i, j)`` with ``i < j``."""
    return tuple(sorted(BasePair(min(i, j), max(i, j)) for i, j in pairs))


@dataclass(frozen=True, slots=True)
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
        object.__setattr__(self, "added", added)
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


# the slot setters of a Match, which skip the frozen ``__setattr__``
_set_rule, _set_added, _set_context = (
    Match.rule.__set__, Match.added.__set__, Match.context.__set__
)


def _unchecked_match(
    rule: RuleId, added: tuple[BasePair, ...], context: tuple[BasePair, ...] = ()
) -> Match:
    """A :class:`Match` built without ``__post_init__``: for the enumerator,
    whose pairs are already sorted ``BasePair(i < j)`` tuples of the rule's
    arity."""
    m = object.__new__(Match)
    _set_rule(m, rule)
    _set_added(m, added)
    _set_context(m, context)
    return m


@dataclass(frozen=True)
class Grammar:
    """The biological knobs that parametrize the fixed production set."""

    min_hairpin_unpaired: int = DEFAULT_MIN_HAIRPIN
    allow_inverse: bool = False

    def __post_init__(self) -> None:
        if self.min_hairpin_unpaired < 1:
            raise ValueError("min_hairpin_unpaired must be >= 1 (pairs join non-adjacent bases)")


#: The position in ``ALL_RULES`` (the enumerator's bucket) of the Rule-2
#: (one added pair next to one existing pair) and the Rule-1 (two added
#: pairs) rule of each gap shape, indexed by (left gap > 0, right gap > 0):
#: both flush is a helix, one gap a bulge, two an internal loop.
_GAPS = ((False, False), (False, True), (True, False), (True, True))
_RULE2_AT = dict(zip(_GAPS, map(ALL_RULES.index, (HELIX_2, BULGE_R_2, BULGE_L_2, INTERNAL_2))))
_RULE1_AT = dict(zip(_GAPS, map(ALL_RULES.index, (HELIX_1, BULGE_R_1, BULGE_L_1, INTERNAL_1))))
_MULTI_AT = {False: ALL_RULES.index(MULTI_1), True: ALL_RULES.index(MULTI_2)}

#: The bases each base may pair with (Watson-Crick plus G-U wobble).
_PAIRS_WITH = {a: "".join(b for b in sorted(BASES) if is_admissible_pair(a, b)) for a in BASES}


def _loop_sites(bases: str, min_hairpin: int, region: LoopRegion) -> list[tuple]:
    """The outer pairs a forward move can add inside one loop, by (a, b).

    Every rule adds its pairs inside one loop: a new pair (a, b) joins two
    admissible unpaired positions of the loop, its children are the loop's
    branches between them, and its parent is the loop's closing pair when no
    branch lies outside them. Each site is a tuple ``(pair, kids, region,
    c_hi, d_lo, min_span)``: the new pair, its children, the loop it is
    added in, and the ranges :func:`_inner_pairs` reads. The sites of a
    structure are those of its loops (:func:`~grafold.structure.loop_index`).
    """
    free, branches = region.free, region.branches
    # before[k]: the branches left of free[k], counted once per distinct loop
    before = [bisect_left(branches, (p,)) for p in free]
    size = len(free)
    # run_end[k] / run_start[k]: the last / first position of the run of
    # consecutive unpaired positions through free[k]
    run_end = free[:]
    for k in range(size - 2, -1, -1):
        if free[k + 1] == free[k] + 1:
            run_end[k] = run_end[k + 1]
    run_start = free[:]
    for k in range(1, size):
        if free[k - 1] == free[k] - 1:
            run_start[k] = run_start[k - 1]
    sites = []
    for x in range(size):
        a = free[x]
        mates = _PAIRS_WITH[bases[a]]
        left, a_end = before[x], run_end[x]
        for y in range(x + 1, size):
            b = free[y]
            if bases[b] not in mates:
                continue
            kids = tuple(branches[left : before[y]])
            if not kids and b - a - 1 < min_hairpin:
                continue
            sites.append((
                BasePair(a, b), kids, region, min(a_end, b - 1), max(run_start[y], a + 1),
                2 if kids else min_hairpin + 1,
            ))
    return sites


class _LoopMemo(dict):
    """``make(loop)`` of each loop, worked out on its first lookup and kept
    under the loop's (closing pair, branches), which name it within one
    strand. A move changes one loop, so structures share most loops."""

    def __init__(self, make: Callable[[LoopRegion], list]):
        super().__init__()
        self.make = make

    def __call__(self, loop: LoopRegion) -> list:
        key = (loop.closing, tuple(loop.branches))
        value = self.get(key)
        if value is None:
            value = self[key] = self.make(loop)
        return value


def _inner_pairs(bases: str, site: tuple) -> list[BasePair]:
    """The inner pairs (c, d) of the Rule-1 doubles on the outer pair of a
    :func:`_loop_sites` site, by (c, d): c in the unpaired run after a, d in
    the run before b, enclosing the children or a hairpin."""
    (a, b), _, _, c_hi, d_lo, min_span = site
    out = []
    for c in range(a + 1, c_hi + 1):
        inner_mates = _PAIRS_WITH[bases[c]]
        for d in range(max(d_lo, c + min_span), b):
            if bases[d] in inner_mates:
                out.append(BasePair(c, d))
    return out


def _stacked_pair(bases: str, site: tuple) -> BasePair | None:
    """The inner pair (a+1, b-1) of a :func:`_loop_sites` site's outer pair
    (a, b) when :func:`_inner_pairs` lists it, else None."""
    (a, b), _, _, c_hi, d_lo, min_span = site
    c, d = a + 1, b - 1
    if c <= c_hi and d >= max(d_lo, c + min_span) and bases[d] in _PAIRS_WITH[bases[c]]:
        return BasePair(c, d)
    return None


def _by_outer_pair(per_loop: list[list[tuple]]) -> list[tuple]:
    """The :func:`_loop_sites` lists of the loops of one structure merged by
    outer pair: the order in which :func:`_rule_moves` lists each rule's
    moves in (added, context) order. Two loops never add the same outer
    pair. A lone nonempty list is returned as it is."""
    fed = [sites for sites in per_loop if sites]
    if len(fed) == 1:
        return fed[0]
    return sorted([site for sites in fed for site in sites], key=itemgetter(0))


def _sites(s: SecondaryStructure, g: Grammar, loops: list[LoopRegion]) -> list[tuple]:
    """The :func:`_loop_sites` of every loop of ``loops`` (the loops of
    ``s``), by outer pair (:func:`_by_outer_pair`)."""
    bases, min_h = s.sequence.bases, g.min_hairpin_unpaired
    return _by_outer_pair([_loop_sites(bases, min_h, loop) for loop in loops])


def _rule_moves(bases: str, sites: list[tuple]) -> Iterator[tuple[int, tuple, tuple]]:
    """The forward moves on ``sites``, each as (rule position in
    ``ALL_RULES``, added pairs, context pairs), in match order when the
    sites come by outer pair.

    The hairpins come first, read straight off the sites with no children.
    Only when a reader asks for more does one pass over the sites classify
    the rest, by rule: each site's outward and inward single-pair moves and
    the Rule-1 doubles across the runs of unpaired positions next to its
    ends. The outward move exists when the new pair would be the only
    branch of its loop's closing pair.
    """
    for site in sites:
        if not site[1]:
            yield 0, (site[0],), ()  # ALL_RULES[0] is HAIRPIN_1
    buckets: list[list[tuple]] = [[] for _ in ALL_RULES]
    for site in sites:
        pair, kids, region, c_hi, d_lo, _ = site
        a, b = pair
        added = (pair,)
        closing = region.closing
        if closing is not None and len(kids) == len(region.branches):
            p, q = closing
            buckets[_RULE2_AT[(a - p > 1, q - b > 1)]].append((added, (closing,)))
        if len(kids) == 1:
            c, d = kids[0]
            buckets[_RULE2_AT[(c - a > 1, b - d > 1)]].append((added, kids))
        elif kids:
            buckets[_MULTI_AT[len(kids) > 2]].append((added, kids))
        if c_hi > a and d_lo < b:
            for inner in _inner_pairs(bases, site):
                c, d = inner
                buckets[_RULE1_AT[(c - a > 1, b - d > 1)]].append(((pair, inner), ()))
    for at in range(1, len(ALL_RULES)):
        for added, context in buckets[at]:
            yield at, added, context


def _site_rule(bases: str, site: tuple, added: tuple[BasePair, ...]) -> int:
    """The position in ``ALL_RULES`` of the first, in rule order, of the
    forward moves on one :func:`_loop_sites` site that add ``added``, as
    :func:`_rule_moves` classifies them: the rule of the match
    :func:`enumerate_matches` lists first among those that add ``added``."""
    return next(at for at, step, _ in _rule_moves(bases, [site]) if step == added)


def enumerate_matches(s: SecondaryStructure, g: Grammar) -> list[Match]:
    """Every match of every grammar rule on ``s``, in deterministic order.

    The moves are read off the outer pairs of the loops of ``s``, by outer
    pair (:func:`_sites`), and come out of :func:`_rule_moves` rule by rule,
    so the result is sorted by (rule, added pairs, context) without a sort
    of the matches.

    Args:
        s: A valid structure.
        g: Grammar parameters.

    Returns:
        Sorted list of matches; empty when ``s`` is terminal.
    """
    return [
        _unchecked_match(ALL_RULES[at], added, context)
        for at, added, context in _rule_moves(s.sequence.bases, _sites(s, g, loop_index(s)))
    ]


def _glued(s: SecondaryStructure, m: Match, g: Grammar) -> SecondaryStructure | None:
    """``s`` with ``m`` applied, or None when the gluing conditions fail."""
    seq, n, partner = s.sequence, s.n, s.partner
    ends: set[int] = set()
    for a, b in m.added:
        if not 0 <= a < b < n or not is_admissible_pair(seq[a], seq[b]):
            return None
        if a in partner or b in partner or a in ends or b in ends:
            return None
        ends.update((a, b))
    t = _apply_unchecked(s, m.added)
    if not validate_structure(t, g.min_hairpin_unpaired).ok:
        return None
    # the matches that yield t by adding m.added are its inverse moves
    # that remove them
    if (ALL_RULES.index(m.rule), m.added, m.context) not in _inverse_steps(loop_index(t)):
        return None
    return t


def gluing_check(s: SecondaryStructure, m: Match, g: Grammar) -> bool:
    """True iff applying ``m`` to ``s`` is admissible.

    Covers base-pair admissibility, free endpoints, non-crossing, validity of
    the result (including the hairpin minimum), presence of the context pairs
    and the rule's site predicate. The last two are read off the loops of the
    result: ``m`` must be one of the matches that yield it by adding
    ``m.added``.
    """
    return _glued(s, m, g) is not None


def enumerate_inverse_matches(
    s: SecondaryStructure, g: Grammar
) -> list[tuple[Match, SecondaryStructure]]:
    """Rule applications that could have produced ``s``, with their sources.

    Each entry is a (match, predecessor) pair such that applying the match to
    the predecessor yields ``s`` exactly, sorted by match. The applications
    are read off the loops of ``s``: each pair was added alone, or together
    with the only branch of its loop. Used for backtracking moves.

    Raises:
        StructureError: ``s`` is not valid under ``g``.
    """
    report = validate_structure(s, g.min_hairpin_unpaired)
    if not report.ok:
        raise StructureError(f"invalid structure: {report.describe()}", report.violations)
    return [
        (_unchecked_match(ALL_RULES[at], removed, context), s.without(removed))
        for at, removed, context in _inverse_steps(loop_index(s))
    ]


def _inverse_steps(loops: list[LoopRegion]) -> Iterator[tuple[int, tuple, tuple]]:
    """The inverse moves of the valid structure whose loops are given, each
    as (rule position in ``ALL_RULES``, removed pairs, context pairs), in
    match order: the twin of :func:`_rule_moves`.

    One pass over the loops by closing pair (a, b) sorts the moves into
    rule buckets: a hairpin when the loop has no branch, a multi-branch
    move when it has two or more. A single branch (c, d) gives three moves
    of one gap shape: (a, b) removed inward, (c, d) removed outward, each
    with the other as context, and both removed as a Rule-1 double. (c, d)
    is the pair after (a, b) by left end, so each bucket fills in (removed,
    context) order: the outward move of (c, d) before its inward one.
    """
    buckets: list[list[tuple]] = [[] for _ in ALL_RULES]
    for loop in loops[1:]:
        closing, kids = loop.closing, loop.branches
        if not kids:
            buckets[0].append(((closing,), ()))  # ALL_RULES[0] is HAIRPIN_1
        elif len(kids) == 1:
            kid = kids[0]
            gaps = (kid.i - closing.i > 1, closing.j - kid.j > 1)
            single = buckets[_RULE2_AT[gaps]]
            single.append(((closing,), (kid,)))
            single.append(((kid,), (closing,)))
            buckets[_RULE1_AT[gaps]].append(((closing, kid), ()))
        else:
            buckets[_MULTI_AT[len(kids) > 2]].append(((closing,), tuple(kids)))
    for at, bucket in enumerate(buckets):
        for removed, context in bucket:
            yield at, removed, context


def _apply_unchecked(
    s: SecondaryStructure, added: tuple[BasePair, ...], key: str | None = None
) -> SecondaryStructure:
    """``s`` with the pairs a move adds, for moves known to pass gluing
    (enumeration output), whose pairs are ``BasePair(i < j)``; ``key`` is
    the result's key when the caller already holds it."""
    return SecondaryStructure._unchecked(s.sequence, s.pairs | frozenset(added), key)


def apply_match(s: SecondaryStructure, m: Match, g: Grammar) -> SecondaryStructure:
    """Apply one rewrite step, re-checking the gluing conditions defensively.

    Returns the derived structure; ``s`` is unchanged.

    Raises:
        GluingError: the match does not pass :func:`gluing_check` on ``s``.
    """
    t = _glued(s, m, g)
    if t is None:
        raise GluingError(f"gluing conditions fail for {m.rule.label} adding {list(m.added)}")
    return t


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
        t = _glued(states[-1], m, g)
        if t is None:
            raise DerivationError(
                f"step {idx} ({m.rule.label} adding {list(m.added)}) is not applicable", idx
            )
        states.append(t)
    return states
