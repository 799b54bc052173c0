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
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from itertools import accumulate
from pathlib import Path
from typing import ClassVar, Mapping

from .structure import (
    BasePair,
    LoopRegion,
    PrimarySequence,
    SecondaryStructure,
    loop_index,
)

__all__ = [
    "LoopClass",
    "LoopTableParams",
    "EnergyModel",
    "MoveScorer",
    "NussinovModel",
    "LoopTableModel",
    "ExternalModel",
    "ExternalEvaluator",
    "ExternalEvaluationError",
    "ParameterError",
    "decompose_loops",
    "observable",
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


# The classes as module globals for the per-move scorer: up to Python 3.11,
# ``EnumType.__getattr__`` makes every ``LoopClass.X`` read a slow lookup
_HAIRPIN, _STACK, _BULGE, _INTERNAL, _MULTI = (
    LoopClass.HAIRPIN,
    LoopClass.STACK,
    LoopClass.BULGE,
    LoopClass.INTERNAL,
    LoopClass.MULTI,
)

#: The structural minimum length of each length table.
_FIRST_LENGTH = {_HAIRPIN: 1, _BULGE: 1, _INTERNAL: 2}
_MULTIBRANCH_KEYS = ("offset", "per_branch", "per_unpaired")


def _loop_class(closing: BasePair, n_branches: int, first: BasePair | None) -> LoopClass:
    """The class of the loop closed by ``closing`` with ``n_branches``
    branches, the leftmost being ``first``."""
    if n_branches == 1:
        if first.i - closing.i == 1:
            return _STACK if closing.j - first.j == 1 else _BULGE
        return _BULGE if closing.j - first.j == 1 else _INTERNAL
    return _MULTI if n_branches else _HAIRPIN


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
    Lengths past a table's end extrapolate logarithmically.
    """

    stack: Mapping[tuple[str, str], float]
    hairpin: Mapping[int, float]
    bulge: Mapping[int, float]
    internal: Mapping[int, float]
    multibranch_offset: float
    multibranch_per_branch: float
    multibranch_per_unpaired: float

    def __post_init__(self) -> None:
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


def _term(
    params: LoopTableParams,
    bases: str,
    kind: LoopClass,
    closing: BasePair,
    n_branches: int,
    first: BasePair | None,
    unpaired: int,
) -> float:
    """The loop-table term of the ``kind`` loop closed by ``closing`` with
    ``n_branches`` branches, the leftmost being ``first``, and ``unpaired``
    unpaired positions."""
    if kind is _STACK:
        outer = bases[closing.i] + bases[closing.j]
        return params.stack[(outer, bases[first.i] + bases[first.j])]
    if kind is _MULTI:
        return (
            params.multibranch_offset
            + params.multibranch_per_branch * n_branches
            + params.multibranch_per_unpaired * unpaired
        )
    if kind is _HAIRPIN:
        table = params.hairpin
    else:
        table = params.bulge if kind is _BULGE else params.internal
    term = table.get(unpaired)
    if term is not None:
        return term
    # the table is contiguous from its first length: past its end, its last
    # entry extrapolated logarithmically
    shortest = _FIRST_LENGTH[kind]
    if unpaired < shortest:
        raise ParameterError(f"{kind.value} table has no entry for length {unpaired}")
    longest = shortest + len(table) - 1
    return table[longest] + _EXTRAPOLATION_COEFF * math.log(unpaired / longest)


def _terms(params: LoopTableParams, bases: str, regions: list[LoopRegion]) -> list[float]:
    """The loop-table terms of the loops of a structure (:func:`loop_index`)
    in :func:`decompose_loops` order, the exterior loop's 0.0 last."""
    terms = []
    for r in regions[1:]:
        branches = r.branches
        first = branches[0] if branches else None
        kind = _loop_class(r.closing, len(branches), first)
        terms.append(_term(params, bases, kind, r.closing, len(branches), first, len(r.free)))
    terms.append(0.0)
    return terms


#: The loops of a structure, as :func:`loop_index` lists them.
_Loops = list[LoopRegion]


class EnergyModel:
    """Interface: ``energy(structure) -> kcal/mol``."""

    mode: ClassVar[str] = "abstract"

    def energy(self, s: SecondaryStructure) -> float:
        raise NotImplementedError

    def move_scorer(self, s: SecondaryStructure, loops: _Loops) -> "MoveScorer":
        """The scorer of the forward moves of ``s``; ``loops`` is
        ``loop_index(s)``."""
        return MoveScorer(self, s)


class MoveScorer:
    """The observables of the forward moves of one structure ``s``.

    A move adds an outer pair, alone or with one inner pair nested inside it
    (a Rule-1 double), in one loop of ``s``: the ``region`` each method is
    handed, or a loop of another structure with the same closing pair and
    branches. :meth:`single` and :meth:`double` return exactly the
    value :func:`observable` gives for the built successor, and
    :meth:`observable` exactly that of ``s``. :meth:`double_bound` is a lower
    bound on :meth:`double` over every inner pair that is not stacked on the
    outer pair, that is over its bulge and internal-loop doubles: a selector
    may skip them when the bound cannot win.

    This base class builds each successor and scores it with
    :func:`observable`, and bounds nothing (-inf), so a model that defines
    only :meth:`EnergyModel.energy` has every move scored in full.
    """

    def __init__(self, model: EnergyModel, s: SecondaryStructure):
        self.model = model
        self.s = s

    def observable(self) -> float:
        return observable(self.s, self.model)

    def single(self, outer: BasePair, region: LoopRegion) -> float:
        return self._built((outer,))

    def double(self, outer: BasePair, inner: BasePair, region: LoopRegion) -> float:
        return self._built((outer, inner))

    def double_bound(self, outer: BasePair, region: LoopRegion) -> float:
        return -math.inf

    def _built(self, added: tuple[BasePair, ...]) -> float:
        s = self.s
        successor = SecondaryStructure._unchecked(s.sequence, s.pairs | frozenset(added))
        return observable(successor, self.model)


@dataclass(frozen=True)
class NussinovModel(EnergyModel):
    """-1.0 kcal/mol per base pair; the oracle-friendly default."""

    mode: ClassVar[str] = "nussinov"

    def energy(self, s: SecondaryStructure) -> float:
        return float(-len(s.pairs))

    def move_scorer(self, s: SecondaryStructure, loops: _Loops) -> "MoveScorer":
        return _NussinovScorer(self, s)


class _NussinovScorer(MoveScorer):
    """Every single scores one pair more than ``s``, every double two: the
    double bound is exact."""

    def __init__(self, model: NussinovModel, s: SecondaryStructure):
        super().__init__(model, s)
        pairs = len(s.pairs)
        self._single = float(-(pairs + 1))
        self._double = float(-(pairs + 2))

    def single(self, outer: BasePair, region: LoopRegion) -> float:
        return self._single

    def double(self, outer: BasePair, inner: BasePair, region: LoopRegion) -> float:
        return self._double

    def double_bound(self, outer: BasePair, region: LoopRegion) -> float:
        return self._double


@dataclass(frozen=True)
class LoopTableModel(EnergyModel):
    """Sum of per-loop terms from a parameter table."""

    params: LoopTableParams
    mode: ClassVar[str] = "loop-table"

    def energy(self, s: SecondaryStructure) -> float:
        """The loop terms added one by one, left to right in
        :func:`decompose_loops` order, from 0.0. The fold fixes the rounding
        on every Python (``sum`` compensates from 3.12 on) and lets the move
        scorer reuse a folded prefix."""
        total = 0.0
        for term in _terms(self.params, s.sequence.bases, loop_index(s)):
            total += term
        return total

    def move_scorer(self, s: SecondaryStructure, loops: _Loops) -> "MoveScorer":
        return _LoopTableScorer(self, s, loops)

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


class _LoopTableScorer(MoveScorer):
    """Loop-local scoring. A move adds its pairs inside one loop L: L keeps
    its closing pair with the outer new pair as a branch, and each new pair
    closes a new loop. So the successor's terms are the parent's terms with
    L's term replaced and the new loops' terms inserted at the sorted place
    of their closing pairs, and :meth:`LoopTableModel.energy` folds them in
    that order. The part of the fold before the new loops depends on the
    outer new pair only: it starts from the fold of the parent's terms before
    L's, kept once per scorer, and is finished once per outer pair (the
    context of the last outer pair asked about is kept); each move then adds
    its new loops' terms and the terms after them.

    The bound of a bulge or internal double folds the same way with the new
    loops' terms replaced by their least values: the outer new loop's by the
    least bulge or internal term, the inner one's by the least hairpin term
    (no children), the least one-branch term (one child), or the multibranch
    term at the fewest or the most unpaired positions the inner loop can
    keep (two or more children; the term is monotone in that count). Float
    addition is monotone in each operand, so the bound never exceeds the
    score of such a double."""

    def __init__(self, model: LoopTableModel, s: SecondaryStructure, loops: _Loops):
        super().__init__(model, s)
        seq, params = s.sequence, model.params
        self.params, self.bases = params, seq.bases
        self._least_terms = model._least_terms
        self.terms = _terms(params, seq.bases, loops)
        # heads[k]: the left fold of terms[:k]
        self.heads = list(accumulate(self.terms, initial=0.0))
        self._outer: BasePair | None = None
        self._context: tuple = ()

    def observable(self) -> float:
        return self.heads[-1] if self.s.pairs else math.inf

    def _split(self, outer: BasePair, region: LoopRegion) -> tuple:
        """The folded head and the tail of the successor's terms around the
        new loops, and L's (``region``'s) branches and unpaired positions
        inside ``outer``: the branch count, the leftmost and rightmost
        branch, the unpaired count. All are found by bisection."""
        if outer == self._outer:
            return self._context
        free, before, branches = region.free, region.before, region.branches
        lo, hi = bisect_left(free, outer.i), bisect_left(free, outer.j)
        left = before[lo]
        kids = before[hi] - left
        first_kid = branches[left] if kids else None
        last_kid = branches[left + kids - 1] if kids else None
        terms, at = self.terms, bisect_left(self.s.sorted_pairs, outer)
        closing = region.closing
        if closing is None:  # the exterior term stays 0.0
            head = self.heads[at]
        else:  # L's term sorts before outer: refold from it
            n_branches = len(branches) - kids + 1
            unpaired = len(free) - (hi - lo + 1)
            kind = _loop_class(closing, n_branches, outer)
            idx = bisect_left(self.s.sorted_pairs, closing, 0, at)
            head = self.heads[idx] + _term(
                self.params, self.bases, kind, closing, n_branches, outer, unpaired
            )
            for term in terms[idx + 1 : at]:
                head += term
        self._outer = outer
        self._context = (head, terms[at:], kids, first_kid, last_kid, hi - lo - 1)
        return self._context

    def single(self, outer: BasePair, region: LoopRegion) -> float:
        total, tail, kids, first_kid, _, inside = self._split(outer, region)
        kind = _loop_class(outer, kids, first_kid)
        total += _term(self.params, self.bases, kind, outer, kids, first_kid, inside)
        for term in tail:
            total += term
        return total

    def double(self, outer: BasePair, inner: BasePair, region: LoopRegion) -> float:
        total, tail, kids, first_kid, _, inside = self._split(outer, region)
        params, bases = self.params, self.bases
        gaps = (inner.i - outer.i - 1) + (outer.j - inner.j - 1)
        kind = _loop_class(outer, 1, inner)
        total += _term(params, bases, kind, outer, 1, inner, gaps)
        kind = _loop_class(inner, kids, first_kid)
        total += _term(params, bases, kind, inner, kids, first_kid, inside - gaps - 2)
        for term in tail:
            total += term
        return total

    def double_bound(self, outer: BasePair, region: LoopRegion) -> float:
        total, tail, kids, first_kid, last_kid, inside = self._split(outer, region)
        least_outer, least_hairpin, least_one_branch = self._least_terms
        total += least_outer
        if not kids:
            total += least_hairpin
        elif kids == 1:
            total += least_one_branch
        else:
            # the inner loop keeps at least every unpaired position between
            # the first and the last child (inside - runs), and at most
            # inside - 3: the inner pair takes two positions of the runs and
            # leaves at least one in a gap
            runs = (first_kid.i - outer.i - 1) + (outer.j - last_kid.j - 1)
            params, bases = self.params, self.bases
            total += min(
                _term(params, bases, _MULTI, outer, kids, first_kid, inside - runs),
                _term(params, bases, _MULTI, outer, kids, first_kid, inside - 3),
            )
        for term in tail:
            total += term
        return total


class ExternalEvaluationError(RuntimeError):
    """An external evaluator failed; ``reason`` tags the failure kind."""

    def __init__(self, reason: str, detail: str):
        super().__init__(f"external evaluator {reason}: {detail}")
        self.reason = reason
        self.detail = detail


@dataclass
class ExternalEvaluator:
    """Adapter around a command that scores (sequence, structure) pairs.

    Protocol: the command receives two lines on stdin (the base string, then
    the dot-bracket string) and must print one finite decimal kcal/mol value.
    Results are cached per structure key for the lifetime of the adapter:
    the controller's run memo does not cover the move scorer
    (:meth:`EnergyModel.move_scorer`), which builds each successor and scores
    it through :meth:`ExternalModel.energy`, so a run asks again for
    structures it has scored.
    """

    command: str
    timeout: float = 10.0
    _cache: dict[tuple[str, str], float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def evaluate(self, seq: PrimarySequence, s: SecondaryStructure) -> float:
        key = (seq.bases, s.key)
        if key in self._cache:
            return self._cache[key]
        value = self._invoke(seq.bases, s.key)
        self._cache[key] = value
        return value

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


@dataclass
class ExternalModel(EnergyModel):
    """Delegates scoring to an :class:`ExternalEvaluator`."""

    evaluator: ExternalEvaluator
    mode: ClassVar[str] = "external"

    def energy(self, s: SecondaryStructure) -> float:
        return self.evaluator.evaluate(s.sequence, s)


def observable(s: SecondaryStructure, model: EnergyModel) -> float:
    """The controller's observable: +inf for zero pairs, else the energy."""
    if not s.pairs:
        return math.inf
    return model.energy(s)


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
    parsed once per process; every call returns the same tables, which must
    not be changed."""
    text = resources.files("grafold").joinpath("data/example_loop_params.ini").read_text()
    return parse_parameters(text)
