"""Per-layer tracing for the benchmark's traced run.

Wrappers are installed from the benchmark's own files on every module
attribute bound to a hooked function, so they sit on the names the callers
actually look up (``grafold.controller.enumerate_matches``,
``grafold.space.observable``, ...) and ``src/`` carries no tracing code.

Coarse boundaries (one CLI call, a controller step or phase, an LTS build or
export) are recorded as spans: name, start, end, parent span and op id. Hot
leaf calls are only aggregated, as calls and self time under their enclosing
span, so the traced run's memory stays bounded. A hooked name that the
program no longer has is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

SPAN = "span"
LEAF = "leaf"

# (layer metric prefix, module, attribute path, kind)
HOOKS = (
    ("cli.main", "grafold.cli", "main", SPAN),
    ("controller.run", "grafold.controller", "Controller.run", SPAN),
    ("controller.steady_step", "grafold.controller", "Controller.steady_step", SPAN),
    ("controller.adaptation_phase", "grafold.controller", "Controller.adaptation_phase", SPAN),
    ("space.build_lts", "grafold.space", "build_lts", SPAN),
    ("space.export_lts", "grafold.space", "export_lts", SPAN),
    ("controller.phi0_select", "grafold.controller", "phi0_select", LEAF),
    ("grammar.enumerate_matches", "grafold.grammar", "enumerate_matches", LEAF),
    ("grammar.enumerate_inverse_matches", "grafold.grammar", "enumerate_inverse_matches", LEAF),
    ("space.successors", "grafold.space", "successors", LEAF),
    ("energy.observable", "grafold.energy", "observable", LEAF),
    ("energy.decompose_loops", "grafold.energy", "decompose_loops", LEAF),
    ("structure.emit_dot_bracket", "grafold.structure", "emit_dot_bracket", LEAF),
)


class Tracer:
    """Collects spans, per-name call counts and self times, and work counters.

    Self time is a call's duration minus the time spent in wrapped calls
    beneath it. The wrappers' own cost is charged to neither the caller nor
    the callee, so self times stay comparable with the untraced program.
    """

    def __init__(self) -> None:
        self.t0 = perf_counter()
        self.op: int | None = None
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counts: Counter = Counter()
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._frames: list[list[float]] = []  # child time of each open call
        self._open: list[dict] = []  # open spans, innermost last
        self._patches: list[tuple[object, str, object]] = []
        self._scored: set = set()

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        posts = {
            "controller.run": self._post_run,
            "controller.adaptation_phase": self._post_adaptation,
            "grammar.enumerate_matches": self._post_matches,
            "grammar.enumerate_inverse_matches": self._post_inverse,
            "space.successors": self._post_successors,
            "space.build_lts": self._post_build,
            "space.export_lts": self._post_export,
            "energy.observable": self._post_observable,
        }
        for name, module_name, path, kind in HOOKS:
            owner, attr = _resolve(module_name, path)
            original = None if owner is None else vars(owner).get(attr)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, kind == SPAN, posts.get(name))
            if "." in path:  # a method: the class attribute is the one looked up
                self._patch(owner, attr, wrapper)
                continue
            for module in _grafold_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner: object, attr: str, wrapper: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, is_span, post):
        stat = self.stats.setdefault(name, [0, 0.0])
        frames, open_spans, spans = self._frames, self._open, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer_start = perf_counter()
            if is_span:
                span = {
                    "id": len(spans),
                    "name": name,
                    "parent": open_spans[-1]["id"] if open_spans else None,
                    "op": self.op,
                    "leaf": {},
                }
                spans.append(span)
                open_spans.append(span)
            frame = [0.0]
            frames.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                frames.pop()
                own = end - start - frame[0]
                stat[0] += 1
                stat[1] += own
                if is_span:
                    open_spans.pop()
                    span["start"] = start - self.t0
                    span["end"] = end - self.t0
                    span["self"] = own
                elif open_spans:
                    leaf = open_spans[-1]["leaf"].setdefault(name, [0, 0.0])
                    leaf[0] += 1
                    leaf[1] += own
            if post is not None:
                post(result, args)
            if frames:  # the wrapper's own cost is charged to neither side
                frames[-1][0] += perf_counter() - outer_start
            return result

        return wrapper

    # -- work counters --------------------------------------------------------

    def start_op(self, op: int) -> None:
        """Open a new operation: distinct-structure counts are per run."""
        self.op = op
        self._scored.clear()

    def _post_run(self, trace, args) -> None:
        self.counts["controller.steps"] += trace.summary.steps

    def _post_adaptation(self, outcome, args) -> None:
        self.counts["controller.adaptation_phase.resumed"] += bool(outcome.resumed)

    def _post_matches(self, matches, args) -> None:
        self.counts["grammar.matches"] += len(matches)
        for m in matches:
            self.counts["grammar.matches." + m.rule.label] += 1

    def _post_inverse(self, pairs, args) -> None:
        self.counts["grammar.inverse_matches"] += len(pairs)

    def _post_successors(self, succs, args) -> None:
        self.counts["space.successor_entries"] += len(succs)

    def _post_build(self, lts, args) -> None:
        self.counts["space.states"] += len(lts.states)
        self.counts["space.transitions"] += len(lts.transitions)

    def _post_export(self, text, args) -> None:
        self.counts["space.export_lts.bytes"] += len(text.encode())

    def _post_observable(self, value, args) -> None:
        # keyed by the pair set, not the dot-bracket key: reading ``.key``
        # here would itself build keys and move the emit_dot_bracket count
        pairs = args[0].pairs
        if pairs not in self._scored:
            self._scored.add(pairs)
            self.counts["energy.observable.distinct"] += 1

    # -- results --------------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Every deterministic count: calls per hooked name plus work counters."""
        out = {f"{name}.calls": stat[0] for name, stat in self.stats.items()}
        out.update(self.counts)
        return dict(sorted(out.items()))

    def self_seconds(self) -> dict[str, float]:
        return {f"{name}.self_s": stat[1] for name, stat in self.stats.items()}

    def write_spans(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _grafold_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "grafold" or name.startswith("grafold."))]


def _resolve(module_name: str, path: str):
    """The object holding the hooked attribute, and the attribute's name."""
    owner = sys.modules.get(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    return owner, attr
