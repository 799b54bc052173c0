"""Primary and secondary RNA structures: parsing, validation, dot-bracket I/O.

Positions are 0-based. Backbone bonds are implicit between adjacent
positions; base pairs are explicit ``BasePair`` values. A structure's
dot-bracket string doubles as its canonical deduplication key (one bracket
family suffices because only pseudoknot-free structures are supported).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple

__all__ = [
    "BASES",
    "DEFAULT_MIN_HAIRPIN",
    "BasePair",
    "LoopRegion",
    "PrimarySequence",
    "SecondaryStructure",
    "SequenceError",
    "StructureError",
    "Violation",
    "ValidationReport",
    "parse_sequence",
    "is_admissible_pair",
    "pairs_cross",
    "validate_structure",
    "parse_dot_bracket",
    "emit_dot_bracket",
    "key_with_pairs",
    "key_without_pairs",
    "loop_index",
    "split_loop",
]

BASES = frozenset("ACGU")

#: Watson-Crick pairs plus the G-U wobble pair, orientation independent.
_ADMISSIBLE = frozenset({frozenset("GC"), frozenset("AU"), frozenset("GU")})

#: Standard biological minimum of unpaired bases enclosed by a hairpin.
DEFAULT_MIN_HAIRPIN = 3


class SequenceError(ValueError):
    """Raw sequence text could not be parsed."""


class StructureError(ValueError):
    """A secondary structure is malformed or failed validation."""

    def __init__(self, message: str, violations: Iterable["Violation"] = ()):
        super().__init__(message)
        self.violations = tuple(violations)


class cached:
    """``functools.cached_property`` without the lock Python 3.11 takes on
    each first read: the value goes into the instance's ``__dict__``, which
    later reads find first, as this descriptor defines no ``__set__``."""

    def __init__(self, fn: Callable):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class BasePair(NamedTuple):
    """A base pair between sequence positions ``i < j``."""

    i: int
    j: int


def _pair(i: int, j: int) -> BasePair:
    """``BasePair(i, j)`` for the enumerator's hot loops, made without the
    call through the namedtuple's generated ``__new__``."""
    return tuple.__new__(BasePair, (i, j))


@dataclass(frozen=True)
class PrimarySequence:
    """An RNA strand over the alphabet A, C, G, U.

    Attributes:
        bases: The base string, one character per position.
        name: Optional label (e.g. a FASTA header).
    """

    bases: str
    name: str | None = None

    def __post_init__(self) -> None:
        if not self.bases:
            raise SequenceError("sequence must contain at least one base")
        bad = sorted(set(self.bases) - BASES)
        if bad:
            raise SequenceError(f"invalid base(s) {''.join(bad)!r}; expected only A, C, G, U")

    def __len__(self) -> int:
        return len(self.bases)

    def __getitem__(self, pos: int) -> str:
        return self.bases[pos]


def parse_sequence(text: str) -> PrimarySequence:
    """Parse a bare base string or a single FASTA-like record.

    Lowercase letters are accepted and 'T' is normalized to 'U'. A leading
    '>' line becomes the sequence name.

    Args:
        text: Raw input text.

    Returns:
        The parsed PrimarySequence.

    Raises:
        SequenceError: empty input, a second FASTA header, or a character
            outside {A, C, G, U, T} after normalization.
    """
    name: str | None = None
    chunks: list[str] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith(">"):
            if name is not None or chunks:
                raise SequenceError("multiple FASTA records are not supported")
            name = line[1:].strip() or None
            continue
        chunks.append(line)
    raw = "".join(chunks).upper().replace("T", "U")
    if not raw:
        raise SequenceError("empty sequence")
    bad = sorted(set(raw) - BASES)
    if bad:
        raise SequenceError(f"invalid base(s) {''.join(bad)!r}; expected only A, C, G, U (or T)")
    return PrimarySequence(raw, name=name)


def is_admissible_pair(a: str, b: str) -> bool:
    """True iff {a, b} is one of G-C, A-U or G-U (orientation independent)."""
    return frozenset((a, b)) in _ADMISSIBLE


def pairs_cross(p: BasePair, q: BasePair) -> bool:
    """True iff the arcs p and q cross (the pseudoknot pattern i < k < j < l)."""
    (i, j), (k, l) = p, q
    return (i < k < j < l) or (k < i < l < j)


@dataclass(frozen=True)
class SecondaryStructure:
    """A sequence plus a set of base pairs. Immutable and hashable.

    Pairs are normalized to a frozenset of ``BasePair(i, j)`` with ``i < j``
    on construction. Validity is not enforced here; use
    :func:`validate_structure` (violations are data, so deliberately broken
    structures can be built for testing).
    """

    sequence: PrimarySequence
    pairs: frozenset[BasePair] = frozenset()

    def __post_init__(self) -> None:
        normalized = frozenset(BasePair(min(i, j), max(i, j)) for i, j in self.pairs)
        object.__setattr__(self, "pairs", normalized)

    @classmethod
    def _unchecked(
        cls, sequence: PrimarySequence, pairs: frozenset[BasePair], key: str | None = None
    ):
        """A structure built without ``__post_init__``: for the engine's own
        builds, whose ``pairs`` is already a frozenset of ``BasePair(i < j)``.
        A ``key`` the caller already holds fills the cached :attr:`key`."""
        s = object.__new__(cls)
        object.__setattr__(s, "sequence", sequence)
        object.__setattr__(s, "pairs", pairs)
        if key is not None:
            object.__setattr__(s, "key", key)
        return s

    @property
    def n(self) -> int:
        return len(self.sequence)

    @cached
    def sorted_pairs(self) -> tuple[BasePair, ...]:
        return tuple(sorted(self.pairs))

    @cached
    def key(self) -> str:
        """Canonical dot-bracket key; injective over valid structures."""
        return emit_dot_bracket(self)

    def without(self, pairs: Iterable[BasePair], key: str | None = None) -> "SecondaryStructure":
        # a subset of normalized pairs is normalized; ``key`` is the result's
        # key when the caller already holds it
        return SecondaryStructure._unchecked(self.sequence, self.pairs - frozenset(pairs), key)


@dataclass(slots=True)
class LoopRegion:
    """One loop of a structure: its closing pair (None for the exterior
    loop), its unpaired positions and its branches, each left to right, so
    ``bisect_left(branches, (p,))`` counts the branches left of ``p``.
    Read-only once made: a run shares one region per loop between structures."""

    closing: BasePair | None
    free: list[int] = field(default_factory=list)
    branches: list[BasePair] = field(default_factory=list)


def loop_index(s: SecondaryStructure) -> list[LoopRegion]:
    """The loops of a valid structure, from one left-to-right pass:
    ``loops[0]`` is the exterior loop, and ``loops[k]`` for k >= 1 is closed
    by the k-th pair in sorted order. A run interns them in its loop memo."""
    opened = {pair.i: pair for pair in s.pairs}
    loops = [LoopRegion(None)]
    open_loops = [loops[0]]
    for pos in range(s.n):
        loop = open_loops[-1]
        pair = opened.get(pos)
        if pair is not None:
            loop.branches.append(pair)
            inner = LoopRegion(pair)
            open_loops.append(inner)
            loops.append(inner)
        elif loop.closing is not None and pos == loop.closing.j:
            open_loops.pop()
        else:
            loop.free.append(pos)
    return loops


def split_loop(region: LoopRegion, added: tuple[BasePair, ...]) -> list[LoopRegion]:
    """The loops that replace ``region`` when a forward move adds ``added``
    inside it: ``region`` with the outer pair in place of the branches it
    encloses, then the loop each added pair closes, outer first, each cut
    from slices of ``region``'s two lists, at places found by bisection."""
    free, branches = region.free, region.branches
    outer, last = added[0], added[-1]
    x, y = bisect_left(free, outer.i), bisect_left(free, outer.j)
    left = bisect_left(branches, outer)
    right = bisect_left(branches, (outer.j,), left)
    loops = [LoopRegion(
        region.closing, free[:x] + free[y + 1 :], branches[:left] + [outer] + branches[right:]
    )]
    if len(added) == 2:
        c, d = bisect_left(free, last.i, x, y), bisect_left(free, last.j, x, y)
        loops.append(LoopRegion(outer, free[x + 1 : c] + free[d + 1 : y], [last]))
        x, y = c, d
    loops.append(LoopRegion(last, free[x + 1 : y], branches[left:right]))
    return loops


@dataclass(frozen=True)
class Violation:
    """One validation failure; ``code`` is a stable machine-readable tag."""

    code: str
    message: str
    positions: tuple[int, ...] = ()


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> tuple[str, ...]:
        return tuple(v.code for v in self.violations)

    def describe(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(v.message for v in self.violations)


def validate_structure(
    s: SecondaryStructure, min_hairpin_unpaired: int = DEFAULT_MIN_HAIRPIN
) -> ValidationReport:
    """Check every structural invariant and report all violations found.

    Checks, in order: indices in range, admissible pair letters, no position
    paired twice, no crossing pairs, and every innermost pair enclosing at
    least ``min_hairpin_unpaired`` positions.

    Args:
        s: Structure to check.
        min_hairpin_unpaired: Minimum enclosed positions for innermost pairs
            (3 by default; 1 is the weakest setting that still forbids
            pairing adjacent bases).

    Returns:
        A ValidationReport; violations are data, not exceptions.
    """
    violations: list[Violation] = []
    n = s.n
    in_range: list[BasePair] = []
    for pair in s.sorted_pairs:
        i, j = pair
        if i < 0 or j >= n or i >= j:
            violations.append(
                Violation("index-out-of-range", f"pair ({i},{j}) out of range for n={n}", (i, j))
            )
            continue
        in_range.append(pair)

    for i, j in in_range:
        a, b = s.sequence[i], s.sequence[j]
        if not is_admissible_pair(a, b):
            violations.append(
                Violation(
                    "inadmissible-pair",
                    f"pair ({i},{j}) joins {a}-{b}, not one of G-C, A-U, G-U",
                    (i, j),
                )
            )

    counts = Counter()
    for i, j in s.pairs:
        counts[i] += 1
        counts[j] += 1
    for pos, c in sorted(counts.items()):
        if c > 1:
            violations.append(
                Violation("position-paired-twice", f"position {pos} occurs in {c} pairs", (pos,))
            )

    for idx, p in enumerate(in_range):
        for q in in_range[idx + 1 :]:
            if pairs_cross(p, q):
                violations.append(
                    Violation(
                        "crossing",
                        f"pairs ({p.i},{p.j}) and ({q.i},{q.j}) cross",
                        (p.i, p.j, q.i, q.j),
                    )
                )

    for i, j in in_range:
        innermost = not any(i < k and l < j for k, l in in_range if (k, l) != (i, j))
        if innermost and j - i - 1 < min_hairpin_unpaired:
            violations.append(
                Violation(
                    "hairpin-too-small",
                    f"pair ({i},{j}) encloses {j - i - 1} positions, "
                    f"need at least {min_hairpin_unpaired}",
                    (i, j),
                )
            )

    return ValidationReport(tuple(violations))


def parse_dot_bracket(
    sequence: PrimarySequence,
    db: str,
    *,
    strict: bool = True,
    min_hairpin_unpaired: int = DEFAULT_MIN_HAIRPIN,
) -> SecondaryStructure:
    """Parse dot-bracket text into a structure over ``sequence``.

    Args:
        sequence: The underlying sequence; length must match ``db``.
        db: Dot-bracket text using only '.', '(' and ')'.
        strict: When true (default), the result must pass
            :func:`validate_structure`; permissive mode skips validation so
            invalid fixtures can be constructed.
        min_hairpin_unpaired: Validation threshold in strict mode.

    Raises:
        StructureError: length mismatch, unknown character, unbalanced
            brackets, or (strict mode) any validation violation.
    """
    if len(db) != len(sequence):
        raise StructureError(
            f"length mismatch: structure has {len(db)} characters, sequence has {len(sequence)}"
        )
    stack: list[int] = []
    pairs: list[BasePair] = []
    for pos, ch in enumerate(db):
        if ch == "(":
            stack.append(pos)
        elif ch == ")":
            if not stack:
                raise StructureError(f"unbalanced ')' at position {pos}")
            pairs.append(BasePair(stack.pop(), pos))
        elif ch != ".":
            raise StructureError(f"unknown character {ch!r} at position {pos}")
    if stack:
        raise StructureError(f"unbalanced '(' at position {stack[-1]}")
    s = SecondaryStructure(sequence, frozenset(pairs))
    if strict:
        report = validate_structure(s, min_hairpin_unpaired)
        if not report.ok:
            raise StructureError(f"invalid structure: {report.describe()}", report.violations)
    return s


def emit_dot_bracket(s: SecondaryStructure) -> str:
    """Serialize a structure to dot-bracket text (inverse of parse).

    Only canonical for valid structures; crossing pairs cannot be
    represented with a single bracket family.
    """
    chars = ["."] * s.n
    for i, j in s.pairs:
        chars[i] = "("
        chars[j] = ")"
    return "".join(chars)


def key_with_pairs(key: str, pairs: Iterable[BasePair]) -> str:
    """The key of a structure with key ``key`` plus ``pairs``: ``key`` with
    '(' and ')' written at each pair's ends.

    Equals ``SecondaryStructure(seq, s.pairs | pairs).key`` when ``key`` is
    ``s.key`` and the pairs join positions unpaired in ``s``, so a caller can
    look a successor up before it builds it.
    """
    chars = list(key)
    for i, j in pairs:
        chars[i] = "("
        chars[j] = ")"
    return "".join(chars)


def key_without_pairs(key: str, pairs: Iterable[BasePair]) -> str:
    """The key of a structure with key ``key`` less ``pairs``, the removal
    twin of :func:`key_with_pairs`: ``key`` with '.' written at each pair's
    ends."""
    chars = list(key)
    for i, j in pairs:
        chars[i] = chars[j] = "."
    return "".join(chars)
