"""Loop decomposition and the pluggable free-energy observable.

A valid structure decomposes uniquely into loops: each base pair closes
exactly one loop, each unpaired position belongs to exactly one loop, and
one exterior loop collects the top-level region. Three scoring modes share
that decomposition:

* ``nussinov``: -1.0 kcal/mol per base pair (exact optimum independently
  checkable by dynamic programming, so the default for verification).
* ``loop-table``: additive loop terms from a parameter file; the shipped
  example table uses deterministic demonstration values, not measured
  thermodynamics.
* ``external``: delegate whole-structure evaluation to a command-line tool.

The observable of a structure with zero pairs is +inf in every mode: the
unfolded state has no defined free energy and folding must begin somewhere.
"""

from __future__ import annotations

import configparser
import functools
import math
import shlex
import subprocess
from bisect import bisect_left
from collections.abc import Container
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from itertools import accumulate
from pathlib import Path
from types import MappingProxyType
from typing import ClassVar, Mapping, Sequence

from .grammar import _apply_unchecked, _inner_pairs, _stacked_pair
from .structure import (
    BasePair,
    LoopRegion,
    SecondaryStructure,
    key_with_pairs,
    loop_index,
)

__all__ = [
    "LoopClass",
    "LoopTableParams",
    "EnergyModel",
    "NussinovModel",
    "LoopTableModel",
    "ExternalModel",
    "ExternalEvaluationError",
    "ParameterError",
    "decompose_loops",
    "observable",
    "observable_from_terms",
    "parse_parameters",
    "load_parameters",
    "example_parameters",
]

#: Ordered pair types admissible under Watson-Crick + wobble pairing.
PAIR_TYPES = ("AU", "UA", "CG", "GC", "GU", "UG")

# Jacobson-Stockmayer long-loop extrapolation: 1.75 * RT at 37 C (kcal/mol).
_EXTRAPOLATION_COEFF = 1.75 * 0.616


class ParameterError(ValueError):
    """A loop-parameter file is missing data or malformed."""


class LoopClass(Enum):
    HAIRPIN = "hairpin"
    STACK = "stack"
    BULGE = "bulge"
    INTERNAL = "internal"
    MULTI = "multibranch"
    EXTERIOR = "exterior"


#: The structural minimum length of each length table.
_FIRST_LENGTH = {LoopClass.HAIRPIN: 1, LoopClass.BULGE: 1, LoopClass.INTERNAL: 2}
_MULTIBRANCH_KEYS = ("offset", "per_branch", "per_unpaired")


def _loop_class(closing: BasePair, n_branches: int, first: BasePair | None) -> LoopClass:
    """The class of the loop closed by ``closing`` with ``n_branches``
    branches, the leftmost being ``first``."""
    if n_branches == 1:
        if first.i - closing.i == 1:
            return LoopClass.STACK if closing.j - first.j == 1 else LoopClass.BULGE
        return LoopClass.BULGE if closing.j - first.j == 1 else LoopClass.INTERNAL
    return LoopClass.MULTI if n_branches else LoopClass.HAIRPIN


def decompose_loops(s: SecondaryStructure) -> list[tuple[LoopClass, LoopRegion]]:
    """Partition a valid structure into its loops, each with its class.

    Each pair (i,j) closes the loop classified by its direct interior:
    no branches -> hairpin; one flush branch -> stack; one branch with a gap
    on one side -> bulge; gaps on both sides -> internal; two or more
    branches -> multibranch. Closed loops come first (by closing pair), the
    exterior loop last; each is a :func:`loop_index` region.
    """
    exterior, *closed = loop_index(s)
    loops = [
        (_loop_class(r.closing, len(r.branches), r.branches[0] if r.branches else None), r)
        for r in closed
    ]
    loops.append((LoopClass.EXTERIOR, exterior))
    return loops


@dataclass(frozen=True)
class LoopTableParams:
    """Additive loop-energy parameters (kcal/mol), checked on construction.

    ``stack`` holds all 36 admissible (outer pair type, inner pair type)
    keys; the length tables are nonempty and contiguous from the structural
    minimum (hairpin and bulge at 1, internal at 2); every number is finite.
    Tables that break one of these rules raise :class:`ParameterError`.
    Lengths past a table's end extrapolate logarithmically. The tables are
    kept as read-only copies, so no caller can change them once checked.
    """

    stack: Mapping[tuple[str, str], float]
    hairpin: Mapping[int, float]
    bulge: Mapping[int, float]
    internal: Mapping[int, float]
    multibranch_offset: float
    multibranch_per_branch: float
    multibranch_per_unpaired: float

    def __post_init__(self) -> None:
        for name in ("stack", "hairpin", "bulge", "internal"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))
        for outer, inner in self.stack:
            for ptype in (outer, inner):
                if ptype not in PAIR_TYPES:
                    raise ParameterError(
                        f"[stack] {outer}/{inner}: {ptype!r} is not an admissible pair type"
                    )
        missing = [f"{o}/{i}" for o in PAIR_TYPES for i in PAIR_TYPES if (o, i) not in self.stack]
        if missing:
            raise ParameterError(f"[stack] missing {len(missing)} entries, e.g. {missing[0]!r}")
        # (section, key, number), named as in a parameter file
        numbers = [("stack", f"{o}/{i}", value) for (o, i), value in self.stack.items()]
        for kind, start in _FIRST_LENGTH.items():
            section = kind.value
            table = getattr(self, section)
            if not table:
                raise ParameterError(f"[{section}] section is empty")
            lengths = sorted(table)
            if lengths != list(range(start, start + len(lengths))):
                raise ParameterError(
                    f"[{section}] lengths must be contiguous starting at {start}, got {lengths}"
                )
            numbers += [(section, length, value) for length, value in table.items()]
        for key in _MULTIBRANCH_KEYS:
            numbers.append(("multibranch", key, getattr(self, f"multibranch_{key}")))
        # a nan or an infinity would make energies nan or infinite, and no
        # longer monotone in each term
        for section, key, value in numbers:
            if not math.isfinite(value):
                raise ParameterError(f"[{section}] {key}: non-finite number {str(value)!r}")


def _length_rows(params: LoopTableParams, n: int) -> list[list]:
    """The hairpin, bulge and internal tables of ``params`` as lists indexed
    by length, through ``n`` at least: each table's entries, then its last
    entry extrapolated logarithmically, and None below its first length."""
    rows = []
    for kind, shortest in _FIRST_LENGTH.items():
        table = getattr(params, kind.value)
        longest = shortest + len(table) - 1
        last = table[longest]
        rows.append(
            [None] * shortest
            + [table[length] for length in range(shortest, longest + 1)]
            + [
                last + _EXTRAPOLATION_COEFF * math.log(length / longest)
                for length in range(longest + 1, n + 1)
            ]
        )
    return rows


def _term(
    params: LoopTableParams,
    rows: list[list],
    bases: str,
    closing: BasePair,
    n_branches: int,
    first: BasePair | None,
    unpaired: int,
) -> float:
    """The loop-table term of the loop closed by ``closing`` with
    ``n_branches`` branches, the leftmost being ``first``, and ``unpaired``
    unpaired positions, of the class :func:`_loop_class` gives it; ``rows``
    are the tables' :func:`_length_rows` through the strand's length."""
    if n_branches == 1:
        flush_left, flush_right = first.i - closing.i == 1, closing.j - first.j == 1
        if flush_left and flush_right:
            outer = bases[closing.i] + bases[closing.j]
            return params.stack[(outer, bases[first.i] + bases[first.j])]
        at = 1 if flush_left or flush_right else 2
    elif n_branches:
        return (
            params.multibranch_offset
            + params.multibranch_per_branch * n_branches
            + params.multibranch_per_unpaired * unpaired
        )
    else:
        at = 0
    term = rows[at][unpaired]
    if term is None:
        kind = list(_FIRST_LENGTH)[at]
        raise ParameterError(f"{kind.value} table has no entry for length {unpaired}")
    return term


def _fold_terms(terms: Sequence[float]) -> float:
    """``terms`` added one by one from 0.0 in the order given, the
    :func:`loop_index` order (the exterior loop's first). The fold fixes the
    rounding on every Python (``sum`` compensates from 3.12 on) and lets
    :meth:`LoopTableModel.least_move` reuse a folded prefix."""
    total = 0.0
    for term in terms:
        total += term
    return total


class EnergyModel:
    """Interface: ``energy(structure) -> kcal/mol``."""

    mode: ClassVar[str] = "abstract"

    def energy(self, s: SecondaryStructure) -> float:
        """The :func:`_fold_terms` of the :meth:`loop_term` of each loop of
        ``s``, in :func:`loop_index` order; a model whose energy is not a sum
        of loop terms overrides this."""
        bases = s.sequence.bases
        terms = [self.loop_term(bases, loop) for loop in loop_index(s)]
        if terms[0] is None:
            raise NotImplementedError
        return _fold_terms(terms)

    def loop_term(self, bases: str, loop: LoopRegion) -> float | None:
        """What ``loop``, a :func:`loop_index` region of a structure on
        ``bases``, adds to the energy; None when the energy is not a sum of
        loop terms. A term depends on its own loop only. A model that gives
        terms gives them for every loop, and the energy of every structure
        is the :func:`_fold_terms` of its loops' terms in :func:`loop_index`
        order, the exterior loop's first."""
        return None

    def least_move(
        self,
        s: SecondaryStructure,
        terms: Sequence[float | None],
        sites: list[tuple],
        threshold: float,
        visited: Container[str],
    ) -> tuple[float, str, tuple[BasePair, ...]] | None:
        """The φ0 choice among the forward moves of ``s``: the move on
        ``sites`` (the :func:`~grafold.grammar._loop_sites` of the loops of
        ``s``, by outer pair) with the least (score, target key) among those
        scoring at most ``threshold`` whose target key is not in
        ``visited``, as (score, target key, added pairs); None when no move
        qualifies. ``terms`` are the :meth:`loop_term` of each loop of ``s``,
        in :func:`loop_index` order.

        A move adds an outer pair, alone or with one inner pair nested inside
        it (a Rule-1 double), in one loop of ``s``. Whatever a model prunes,
        its scores are exactly the values :func:`observable` gives for the
        built successors. This base method is the plain scan: each site's
        single and each of its doubles, in
        :func:`~grafold.grammar._inner_pairs` order, is keyed first, and only
        a target whose key is not in ``visited`` is built and scored in full.
        The Nussinov and loop-table models override it with a pruned walk.
        """
        bases, source_key = s.sequence.bases, s.key
        low, best = threshold, None
        for site in sites:
            outer = site[0]
            doubles = [(outer, inner) for inner in _inner_pairs(bases, site)]
            for added in [(outer,), *doubles]:
                key = key_with_pairs(source_key, added)
                if key in visited:
                    continue
                score = observable(_apply_unchecked(s, added, key), self)
                if score < low or score == low and (best is None or key < best[1]):
                    low, best = score, (score, key, added)
        return best


@dataclass(frozen=True)
class NussinovModel(EnergyModel):
    """-1.0 kcal/mol per base pair; the oracle-friendly default."""

    mode: ClassVar[str] = "nussinov"

    def energy(self, s: SecondaryStructure) -> float:
        return float(-len(s.pairs))

    def loop_term(self, bases: str, loop: LoopRegion) -> float:
        return 0.0 if loop.closing is None else -1.0

    def least_move(
        self,
        s: SecondaryStructure,
        terms: Sequence[float],
        sites: list[tuple],
        threshold: float,
        visited: Container[str],
    ) -> tuple[float, str, tuple[BasePair, ...]] | None:
        """On a structure of p pairs every double scores -(p+2) and every
        single -(p+1): the unvisited double of least target key, or failing
        that the unvisited single of least target key, when its score is at
        most ``threshold``. A target's key is the source's key with brackets
        at the added ends, and ``'('`` sorts before ``'.'``, so a move with a
        lesser left end has the lesser key: each search stops at the first
        site right of its best move's left end."""
        bases, source_key = s.sequence.bases, s.key
        double = float(-(len(s.pairs) + 2))
        for score, doubles in ((double, True), (double + 1.0, False)):
            if score > threshold:
                return None
            best_key, best_added = None, ()
            for site in sites:
                outer = site[0]
                if best_key is not None and outer[0] > best_added[0][0]:
                    break
                if doubles:
                    moves = [(outer, inner) for inner in _inner_pairs(bases, site)]
                else:
                    moves = [(outer,)]
                for added in moves:
                    key = key_with_pairs(source_key, added)
                    if key not in visited and (best_key is None or key < best_key):
                        best_key, best_added = key, added
            if best_key is not None:
                return score, best_key, best_added
        return None


@dataclass(frozen=True)
class LoopTableModel(EnergyModel):
    """Sum of per-loop terms from a parameter table."""

    params: LoopTableParams
    mode: ClassVar[str] = "loop-table"
    # the longest :func:`_length_rows` asked for so far, made on first use
    _rows: list = field(default_factory=list, init=False, repr=False, compare=False)

    def loop_term(self, bases: str, loop: LoopRegion) -> float:
        """0.0 for the exterior loop, else the table's :func:`_term`."""
        closing, branches = loop.closing, loop.branches
        if closing is None:
            return 0.0
        first = branches[0] if branches else None
        rows = self._term_rows(len(bases))
        return _term(self.params, rows, bases, closing, len(branches), first, len(loop.free))

    def _term_rows(self, n: int) -> list[list]:
        """The :func:`_length_rows` of the tables through length ``n`` at
        least, made again, longer, when a longer strand asks; the entries
        of shorter lengths never change."""
        if min(map(len, self._rows), default=0) <= n:
            self._rows[:] = _length_rows(self.params, n)
        return self._rows

    @functools.cached_property
    def _least_terms(self) -> tuple[float, float, float]:
        """The least term a bulge or internal loop, a hairpin, and a loop
        with one branch (stack, bulge or internal) can take. A length past a
        table's end adds a positive amount to its last entry, so the least
        entry of a table is the least term of its loop class."""
        params = self.params
        bulge_or_internal = min(min(params.bulge.values()), min(params.internal.values()))
        one_branch = min(min(params.stack.values()), bulge_or_internal)
        return bulge_or_internal, min(params.hairpin.values()), one_branch

    def least_move(
        self,
        s: SecondaryStructure,
        terms: Sequence[float],
        sites: list[tuple],
        threshold: float,
        visited: Container[str],
    ) -> tuple[float, str, tuple[BasePair, ...]] | None:
        """Loop-local scoring. A move adds its pairs inside one loop L: L
        keeps its closing pair with the outer new pair as a branch, and each
        new pair closes a new loop. So the successor's terms are the
        parent's terms with L's term replaced and the new loops' terms
        inserted at the sorted place of their closing pairs, and
        :func:`_fold_terms` folds them in that order, the :func:`loop_index`
        order with the exterior loop's term first. The part of
        the fold before the new loops depends on the outer new pair only: it
        starts from the fold of the parent's terms before L's (``heads``)
        and is finished once per site; each move then adds its new loops'
        terms and the terms after them.

        The bound of a site's bulge and internal doubles folds the same way
        with the new loops' terms replaced by their least values: the outer
        new loop's by the least bulge or internal term, the inner one's by
        the least hairpin term (no children), the least one-branch term (one
        child), or the multibranch term at the fewest or the most unpaired
        positions the inner loop can keep (two or more children; the term is
        monotone in that count). Float addition is monotone in each operand,
        so the bound never exceeds the score of such a double.

        The search is one pass over the sites, by outer pair (a, b). A
        target's key is the source's key with brackets at the added ends,
        and ``'('`` sorts before ``'.'``, so of two moves tied on score the
        one with the lesser a has the lesser key: a tie whose a lies right
        of the best move's loses without being keyed. Each site's single and
        stacked double are scored; its bulge and internal doubles only when
        their bound is below the best score, or equal to it at the best
        move's a, so every skipped move loses. Each site's context is worked
        out once, and each term is read off the model's term rows
        (:meth:`LoopTableModel._term_rows`) and stack table, or made by
        :func:`_term`'s own expression, so every score is the built
        successor's observable bit for bit."""
        # the terms in :func:`loop_index` order: the exterior loop's 0.0, then
        # closed loops by closing pair, so the loop closed by pairs[k] has
        # terms[k + 1]; heads[k] is the left fold of terms[:k]
        heads = list(accumulate(terms, initial=0.0))
        params, rows = self.params, self._term_rows(s.n)
        bases, source_key, pairs = s.sequence.bases, s.key, s.sorted_pairs
        stack = params.stack
        hairpins, bulges, internals = rows
        offset, per_branch = params.multibranch_offset, params.multibranch_per_branch
        per_unpaired = params.multibranch_per_unpaired
        least_outer, least_hairpin, least_one_branch = self._least_terms
        low, best_key, best_added = threshold, None, ()

        def offer(score: float, added: tuple[BasePair, ...]) -> None:
            # an unvisited move scoring at most ``low`` wins when none is held,
            # when it scores below ``low``, or when it ties at the best
            # move's a with a lesser key
            nonlocal low, best_key, best_added
            if score < low or best_key is None or added[0][0] == best_added[0][0]:
                key = key_with_pairs(source_key, added)
                if key not in visited and (score < low or best_key is None or key < best_key):
                    low, best_key, best_added = score, key, added

        for site in sites:
            outer, kids, region, c_hi, d_lo, _ = site
            a, b = outer
            free, closing = region.free, region.closing
            lo, hi = bisect_left(free, a), bisect_left(free, b)
            inside, n_kids = hi - lo - 1, len(kids)
            first = kids[0] if kids else None
            # the fold of the successor's terms before the new loops, and the
            # terms after them
            at = bisect_left(pairs, outer) + 1
            if closing is None:  # the exterior term stays 0.0
                head = heads[at]
            else:  # L's term sorts before outer: refold from it
                n_branches = len(region.branches) - n_kids + 1
                idx = bisect_left(pairs, closing, 0, at - 1) + 1
                head = heads[idx] + _term(
                    params, rows, bases, closing, n_branches, outer, len(free) - inside - 2
                )
                for term in terms[idx + 1 : at]:
                    head += term
            tail = terms[at:]

            if kids:
                score = head + _term(params, rows, bases, outer, n_kids, first, inside)
            else:
                score = head + hairpins[inside]
            for term in tail:
                score += term
            if score <= low:
                offer(score, (outer,))
            stacked = _stacked_pair(bases, site)
            if stacked is not None:
                score = head + stack[(bases[a] + bases[b], bases[a + 1] + bases[b - 1])]
                if kids:
                    score += _term(params, rows, bases, stacked, n_kids, first, inside - 2)
                else:
                    score += hairpins[inside - 2]
                for term in tail:
                    score += term
                if score <= low:
                    offer(score, (outer, stacked))
            if c_hi <= a or d_lo >= b:  # no inner pair
                continue

            bound = head + least_outer
            if not kids:
                bound += least_hairpin
            elif n_kids == 1:
                bound += least_one_branch
            else:
                # the inner loop keeps at least every unpaired position between
                # the first and the last child (inside - runs), and at most
                # inside - 3: the inner pair takes two positions of the runs and
                # leaves at least one in a gap
                runs = (first.i - a - 1) + (b - kids[-1].j - 1)
                kid_terms = offset + per_branch * n_kids
                bound += min(
                    kid_terms + per_unpaired * (inside - runs),
                    kid_terms + per_unpaired * (inside - 3),
                )
            for term in tail:
                bound += term
            if bound < low or bound == low and (best_key is None or a == best_added[0][0]):
                for inner in _inner_pairs(bases, site):
                    if inner == stacked:
                        continue
                    c, d = inner
                    gaps = (c - a - 1) + (b - d - 1)
                    # one flush side makes a bulge; none, an internal loop
                    score = head + (bulges if c - a == 1 or b - d == 1 else internals)[gaps]
                    if kids:
                        score += _term(params, rows, bases, inner, n_kids, first, inside - gaps - 2)
                    else:
                        score += hairpins[inside - gaps - 2]
                    for term in tail:
                        score += term
                    if score <= low:
                        offer(score, (outer, inner))
        return None if best_key is None else (low, best_key, best_added)


class ExternalEvaluationError(RuntimeError):
    """An external evaluator failed; ``reason`` tags the failure kind."""

    def __init__(self, reason: str, detail: str):
        super().__init__(f"external evaluator {reason}: {detail}")
        self.reason = reason
        self.detail = detail


@dataclass
class ExternalModel(EnergyModel):
    """Delegates scoring to a command that scores (sequence, structure) pairs.

    Protocol: the command receives two lines on stdin (the base string, then
    the dot-bracket string) and must print one finite decimal kcal/mol value.
    Results are cached per (bases, structure key) for the lifetime of the
    model: φ0 (:meth:`EnergyModel.least_move`) builds every forward successor
    whose key is not visited, site by site and single before doubles, and
    scores it through :meth:`energy` outside the controller's run memo, so a
    run asks again for structures it has scored.
    """

    command: str
    timeout: float = 10.0
    mode: ClassVar[str] = "external"
    _cache: dict[tuple[str, str], float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def energy(self, s: SecondaryStructure) -> float:
        key = (s.sequence.bases, s.key)
        if key not in self._cache:
            self._cache[key] = self._invoke(*key)
        return self._cache[key]

    def _invoke(self, bases: str, db: str) -> float:
        argv = shlex.split(self.command)
        try:
            proc = subprocess.run(
                argv,
                input=f"{bases}\n{db}\n",
                capture_output=True,
                text=True,
                timeout=self.timeout,
            )
        except FileNotFoundError:
            raise ExternalEvaluationError("command-not-found", argv[0] if argv else "<empty>")
        except subprocess.TimeoutExpired:
            raise ExternalEvaluationError("timeout", f"no result within {self.timeout}s")
        if proc.returncode != 0:
            raise ExternalEvaluationError(
                "nonzero-exit",
                f"exit {proc.returncode}; stderr: {proc.stderr.strip()!r}",
            )
        text = proc.stdout.strip()
        try:
            value = float(text)
        except ValueError:
            raise ExternalEvaluationError("unparsable-output", f"stdout: {text!r}")
        if not math.isfinite(value):
            raise ExternalEvaluationError("non-finite-output", f"stdout: {text!r}")
        return value


def observable(s: SecondaryStructure, model: EnergyModel) -> float:
    """The controller's observable: +inf for zero pairs, else the energy."""
    if not s.pairs:
        return math.inf
    return model.energy(s)


def observable_from_terms(s: SecondaryStructure, model: EnergyModel, terms: Sequence) -> float:
    """The :func:`observable` of ``s`` given the :meth:`~EnergyModel.loop_term`
    of each of its loops, in :func:`loop_index` order: +inf for zero pairs,
    else the :func:`_fold_terms` of the terms in that order (the exterior
    loop's first), or the model's energy when it gives none."""
    if not s.pairs:
        return math.inf
    return model.energy(s) if terms[0] is None else _fold_terms(terms)


# ---------------------------------------------------------------------------
# Parameter files
# ---------------------------------------------------------------------------

_SECTIONS = ("stack", "hairpin", "bulge", "internal", "multibranch")


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ParameterError(f"[{section}] {key}: malformed number {raw!r}")


def parse_parameters(text: str) -> LoopTableParams:
    """Parse loop-table parameters from INI-style text.

    Required sections: [stack] with all 36 ordered pair-type combinations
    ("GC/CG = -3.0"), [hairpin], [bulge] and [internal] as contiguous
    length tables, and [multibranch] with offset, per_branch, per_unpaired.
    The parser reads sections, keys and numbers; :class:`LoopTableParams`
    checks the tables they make.

    Raises:
        ParameterError: missing section or entry, malformed or non-finite
            number, non-contiguous lengths, or an inadmissible pair type.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # type: ignore[assignment]
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ParameterError(f"unreadable parameter file: {exc}")

    for section in _SECTIONS:
        if not parser.has_section(section):
            raise ParameterError(f"missing section [{section}]")
    extra = set(parser.sections()) - set(_SECTIONS)
    if extra:
        raise ParameterError(f"unknown section(s) {sorted(extra)}")

    stack: dict[tuple[str, str], float] = {}
    for key, raw in parser.items("stack"):
        parts = key.split("/")
        if len(parts) != 2 or not all(len(p) == 2 for p in parts):
            raise ParameterError(f"[stack] key must look like 'GC/CG', got {key!r}")
        stack[(parts[0], parts[1])] = _parse_float("stack", key, raw)

    tables: dict[str, dict[int, float]] = {}
    for section in ("hairpin", "bulge", "internal"):
        table = tables[section] = {}
        for key, raw in parser.items(section):
            try:
                length = int(key)
            except ValueError:
                raise ParameterError(f"[{section}] keys must be integer lengths, got {key!r}")
            table[length] = _parse_float(section, key, raw)

    multi = dict(parser.items("multibranch"))
    for key in _MULTIBRANCH_KEYS:
        if key not in multi:
            raise ParameterError(f"[multibranch] missing key {key!r}")
    unknown = set(multi) - set(_MULTIBRANCH_KEYS)
    if unknown:
        raise ParameterError(f"[multibranch] unknown key(s) {sorted(unknown)}")

    multibranch = {
        f"multibranch_{key}": _parse_float("multibranch", key, multi[key])
        for key in _MULTIBRANCH_KEYS
    }
    return LoopTableParams(stack=stack, **tables, **multibranch)


def load_parameters(path: str | Path) -> LoopTableParams:
    """Load and range-check a loop-table parameter file."""
    return parse_parameters(Path(path).read_text())


@functools.cache
def example_parameters() -> LoopTableParams:
    """The packaged demonstration table (deterministic, non-thermodynamic),
    parsed once per process; every call returns the same read-only tables."""
    text = resources.files("grafold").joinpath("data/example_loop_params.ini").read_text()
    return parse_parameters(text)
