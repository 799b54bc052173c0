"""Command-line front end: fold, enumerate, eval and rules subcommands.

Exit codes: 0 success, 2 usage or configuration error (an external evaluator
command that cannot be found included), 3 truncated result, 4 the external
evaluator failed during the run (timeout, nonzero exit, unparsable or
non-finite output). Any other exception is an internal error and propagates
(exit 1 with a traceback).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import shlex
import sys
from pathlib import Path

from .controller import (
    AdaptiveMachine,
    Controller,
    MachineConfigError,
    RunLimits,
    UnknownStrategyError,
)
from .energy import (
    EnergyModel,
    ExternalEvaluationError,
    ExternalModel,
    LoopTableModel,
    NussinovModel,
    ParameterError,
    decompose_loops,
    example_parameters,
    load_parameters,
    observable,
)
from .grammar import ALL_RULES, RULE_DESCRIPTIONS, Grammar, LoopKind
from .space import ExploreLimits, _energy_label, build_lts, export_lts, stats
from .structure import (
    PrimarySequence,
    SequenceError,
    StructureError,
    parse_dot_bracket,
    parse_sequence,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRUNCATED = 3
EXIT_EVALUATOR = 4

ENV_EXTERNAL_CMD = "GRAFOLD_EXTERNAL_CMD"


class ConfigError(ValueError):
    """Bad flags or unreadable inputs; maps to exit code 2."""


#: The errors of bad input, each exit code 2: flags, the sequence, the
#: parameter and machine files (an input file that is not UTF-8 included)
#: and the files written.
_CONFIG_ERRORS = (
    ConfigError,
    SequenceError,
    ParameterError,
    MachineConfigError,
    UnknownStrategyError,
    UnicodeDecodeError,
    OSError,
)


def _from_flags(build, **fields):
    """``build(**fields)``, where a ``ValueError`` means a flag out of range."""
    try:
        return build(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _load_sequence(value: str) -> PrimarySequence:
    """Resolve a --seq value: inline bases, or '@path' to read a file."""
    if value.startswith("@"):
        path = Path(value[1:])
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read sequence file {path}: {exc}")
        return parse_sequence(text)
    return parse_sequence(value)


def _build_model(args: argparse.Namespace) -> EnergyModel:
    if args.energy == "nussinov":
        return NussinovModel()
    if args.energy == "loop-table":
        params = load_parameters(args.params) if args.params else example_parameters()
        return LoopTableModel(params)
    command = args.external_cmd or os.environ.get(ENV_EXTERNAL_CMD)
    if not command:
        raise ConfigError(
            f"external energy mode needs --external-cmd or ${ENV_EXTERNAL_CMD}"
        )
    try:
        argv = shlex.split(command)
    except ValueError as exc:
        raise ConfigError(f"cannot parse external command {command!r}: {exc}") from None
    if not argv:
        raise ConfigError(f"external command {command!r} names no program")
    return ExternalModel(command)


def _build_grammar(args: argparse.Namespace) -> Grammar:
    return _from_flags(
        Grammar,
        min_hairpin_unpaired=args.min_hairpin,
        allow_inverse=getattr(args, "allow_inverse", False),
    )


#: The terminations of a fold run cut short by one of its limits.
_LIMIT_TERMINATIONS = ("max-steps", "adaptation-depth-limit", "adaptation-state-limit")


def cmd_fold(args: argparse.Namespace) -> int:
    machine = (
        AdaptiveMachine.from_file(args.s_machine) if args.s_machine else AdaptiveMachine.default()
    )
    sequence = _load_sequence(args.seq)
    grammar = _build_grammar(args)
    model = _build_model(args)
    limits = _from_flags(
        RunLimits, max_steps=args.max_steps, max_adaptation_depth=args.max_adaptation_depth,
        max_adaptation_states=args.max_adaptation_states,
    )
    trace = Controller(machine, grammar, model, limits).run(sequence)
    if args.trace_out:
        Path(args.trace_out).write_text(trace.to_jsonl())
    summary = trace.summary
    if not math.isinf(summary.best_energy):
        print(f"{summary.final_db}  {summary.best_energy}")
    elif summary.termination in _LIMIT_TERMINATIONS:
        print(f"{summary.final_db}  +inf (stopped by {summary.termination})")
    else:
        print(f"{summary.final_db}  +inf (no fold possible)")
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    seq = _load_sequence(args.seq)
    limits = _from_flags(
        ExploreLimits,
        max_states=args.max_states,
        max_depth=args.max_depth,
        max_seconds=args.max_seconds,
        energy_ceiling=args.energy_ceiling,
    )
    lts = build_lts(seq, _build_grammar(args), _build_model(args), limits)
    text = export_lts(lts, args.export)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    print(stats(lts).describe(), file=sys.stderr)
    return EXIT_OK if lts.complete else EXIT_TRUNCATED


def cmd_eval(args: argparse.Namespace) -> int:
    seq = _load_sequence(args.seq)
    grammar = _build_grammar(args)
    model = _build_model(args)
    structure = parse_dot_bracket(seq, args.db, min_hairpin_unpaired=grammar.min_hairpin_unpaired)
    total = observable(structure, model)
    for kind, region in decompose_loops(structure):
        closing = f"({region.closing.i},{region.closing.j})" if region.closing else "-"
        term = model.loop_term(seq.bases, region)
        term_str = "-" if term is None else str(term)
        print(
            f"{kind.value:<12} closing={closing:<10} "
            f"branches={len(region.branches)} unpaired={len(region.free)} energy={term_str}"
        )
    print(f"total {_energy_label(total)}")
    return EXIT_OK


def cmd_rules(args: argparse.Namespace) -> int:
    if args.loop is not None:
        wanted = args.loop.strip().lower()
        kinds = {kind.value.lower(): kind for kind in LoopKind}
        if wanted not in kinds:
            raise ConfigError(
                f"unknown loop kind {args.loop!r}; expected one of {sorted(kinds)}"
            )
        selected = [r for r in ALL_RULES if r.loop_kind is kinds[wanted]]
    else:
        selected = list(ALL_RULES)
    for rule in selected:
        print(f"{rule.label}: {RULE_DESCRIPTIONS[rule]}")
    return EXIT_OK


def _add_sequence_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seq",
        required=True,
        help="bases inline (FASTA text allowed), or @FILE to read from a file",
    )
    parser.add_argument(
        "--min-hairpin",
        type=int,
        default=3,
        metavar="N",
        help="minimum unpaired bases enclosed by a hairpin (default 3)",
    )


def _add_energy_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--energy",
        choices=("nussinov", "loop-table", "external"),
        default="nussinov",
        help="scoring mode (default nussinov)",
    )
    parser.add_argument(
        "--params",
        metavar="FILE",
        help="loop-table parameter file (default: packaged example table)",
    )
    parser.add_argument(
        "--external-cmd",
        metavar="CMD",
        help=f"external evaluator command (or set ${ENV_EXTERNAL_CMD})",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    ``main`` call of the process (``parse_args`` leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="grafold",
        description="Pseudoknot-free RNA folding via loop-grammar rewriting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fold = sub.add_parser("fold", help="run the greedy folding controller")
    _add_sequence_option(fold)
    _add_energy_options(fold)
    fold.add_argument("--allow-inverse", action="store_true",
                      help="permit pair removal during adaptation phases")
    fold.add_argument("--s-machine", metavar="FILE",
                      help="constraint machine JSON (default: built-in greedy machine)")
    fold.add_argument("--max-steps", type=int, metavar="N")
    fold.add_argument("--max-adaptation-depth", type=int, metavar="N")
    fold.add_argument("--max-adaptation-states", type=int, metavar="N")
    fold.add_argument("--trace-out", metavar="FILE", help="write the JSON-lines trace here")
    fold.set_defaults(func=cmd_fold)

    enum = sub.add_parser("enumerate", help="build and export the folding space")
    _add_sequence_option(enum)
    _add_energy_options(enum)
    enum.add_argument("--export", choices=("json", "dot"), default="json")
    enum.add_argument("--out", metavar="FILE", help="write the export here (default stdout)")
    enum.add_argument("--max-states", type=int, metavar="N")
    enum.add_argument("--max-depth", type=int, metavar="N")
    enum.add_argument("--max-seconds", type=float, metavar="S")
    enum.add_argument("--energy-ceiling", type=float, metavar="E")
    enum.set_defaults(func=cmd_enumerate)

    ev = sub.add_parser("eval", help="score one structure and print its loops")
    _add_sequence_option(ev)
    _add_energy_options(ev)
    ev.add_argument("--db", required=True, metavar="STRUCT", help="dot-bracket structure")
    ev.set_defaults(func=cmd_eval)

    rules = sub.add_parser("rules", help="list the rewrite rules and their site predicates")
    rules.add_argument("--loop", metavar="KIND",
                       help="show only one loop kind (e.g. hairpin, helix)")
    rules.set_defaults(func=cmd_rules)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StructureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for violation in exc.violations:
            print(f"  {violation.code}: {violation.message}", file=sys.stderr)
        return EXIT_CONFIG
    except ExternalEvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG if exc.reason == "command-not-found" else EXIT_EVALUATOR
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
