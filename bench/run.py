"""End-to-end benchmark of grafold's command-line entry point.

Run from the repository root:

    python3 bench/run.py --workload fold-descent --seed 1 --seconds 30 --trace 0

Each run drives ``grafold.cli.main`` in-process, single-threaded, on strands
made from ``--seed`` (the program sees only the generated bases), for
``--seconds`` seconds of whole rounds. Every fold trace and LTS export goes
to a temporary directory under ``.bench_run/`` and is checked after the
timed section (see ``checks.py``); a failed check counts the op as failed.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``.
Every time is process CPU time, so a stall while the process waits for a CPU
is not counted, and is scaled to a reference CPU speed: a fixed pure-Python
computation of the benchmark's own (``reference_s``) is timed next to each op
and each set-up, and times are multiplied by ``REF_S`` over the reference
time next to them. The virtual machines this runs on change speed by up to a
third for minutes at a time; the reference and grafold slow down alike, so
the scaled figures move only when grafold's own cost moves. The unscaled CPU
times are printed beside them. ``setup_s`` is the median time fresh
interpreters take to import grafold (and every module it pulls in) and load
the parameter table, plus the time this process takes to make the inputs.

``--trace 1`` runs a fixed list of ops (the first rounds of the seed) once
untraced and once with the wrappers of ``tracing.py`` installed, and repeats
the traced pass in a child interpreter with another hash seed. It reports the
per-layer metrics, fails the run when the two traced passes disagree on any
work counter, and writes the spans to
``.bench_run/spans-<workload>-seed<seed>.jsonl``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. The error rate is ``failed / attempted``.
``--write-digests`` stores the sha256 of every output of the run in
``digests.json``, keyed by input, as the expected bytes for later runs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

import checks
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
SETUP_REPS = 15
# A fresh interpreter times its own import of grafold (with every module
# grafold pulls in) and parameter load, then the reference, and prints both.
SETUP_CODE = (
    "import time; start = time.process_time(); "
    "import grafold.cli; from grafold.energy import example_parameters; example_parameters(); "
    "setup = time.process_time() - start; "
    "import statistics, run; "
    "print(setup, statistics.median(run.reference_s() for _ in range(5)))"
)
MAX_ROUNDS = 300
CHILD_TIMEOUT_S = 120
# The reference is the Nussinov DP of checks.py on a fixed strand: code of
# the same kind as grafold's (lists, tuples, hashing), which followed
# grafold's speed changes more closely than an arithmetic loop did. REF_S is
# its CPU time on an x86-64 2-vCPU VM under Python 3.11, so scaled times read
# close to CPU seconds there.
REF_BASES = "CUACUGACUCAUAGGCUAGAUAGUUAUUCUAAACUCUUAC"
REF_S = 0.0045


@dataclass(frozen=True)
class Workload:
    """One input family: each round runs one op per entry of ``lengths``."""

    command: str  # grafold subcommand
    flags: tuple[str, ...]
    lengths: tuple[int, ...]
    trace_rounds: int  # fixed work of the traced run, so its counters repeat
    gc_family: bool = False  # alternating-GC strands, the seed shuffles each round

    @property
    def out_flag(self) -> str:
        return "--trace-out" if self.command == "fold" else "--out"

    @property
    def energy_mode(self) -> str:
        return self.flags[self.flags.index("--energy") + 1]


# Why these workloads (shares of traced self time, seed 1): fold-descent is
# the forward-only north-star path, where match enumeration (51%) and energy
# scoring (25%) do most of the work and 95% of scored structures are new;
# fold-backtrack spends 63% of its time inside adaptation phases, is the only
# one with inverse matches (11%), and only 54% of the structures it scores are
# new, so an energy memo shows there; enumerate-gc is the folding-space layer
# (90% in the LTS build, MB-sized exports) with 0.5% energy work, so an
# energy-only change should read unchanged on it.
WORKLOADS = {
    "fold-descent": Workload(
        "fold", ("--energy", "loop-table"), lengths=tuple(range(20, 29)), trace_rounds=5),
    "fold-backtrack": Workload(
        "fold", ("--energy", "loop-table", "--allow-inverse", "--max-steps", "40"),
        lengths=tuple(range(20, 25)), trace_rounds=5),
    "enumerate-gc": Workload(
        "enumerate", ("--energy", "nussinov", "--export", "json"),
        lengths=(16, 17, 18), trace_rounds=3, gc_family=True),
}


@dataclass
class OpResult:
    index: int
    bases: str
    path: Path
    seconds: float
    exit_code: int | None
    error: str = ""


def make_rounds(name: str, workload: Workload, seed: int) -> list[list[str]]:
    rng = random.Random(f"{name}:{seed}")
    rounds = []
    for _ in range(MAX_ROUNDS):
        if workload.gc_family:
            order = list(workload.lengths)
            rng.shuffle(order)
            rounds.append([("GC" * n)[:n] for n in order])
        else:
            rounds.append(["".join(rng.choices("ACGU", k=n)) for n in workload.lengths])
    return rounds


def child_env(**extra: str) -> dict[str, str]:
    path = os.pathsep.join([str(SRC), str(Path(__file__).resolve().parent)])
    return {**os.environ, "PYTHONPATH": path, **extra}


def reference_s() -> float:
    """CPU time of one pass of the reference, with garbage collection off so
    that no collection of grafold's heap lands inside it."""
    gc.disable()
    try:
        start = process_time()
        checks.nussinov_max_pairs(REF_BASES)
        return process_time() - start
    finally:
        gc.enable()


def setup_seconds(name: str, workload: Workload, seed: int, ref_s: float):
    """Set-up time, scaled and unscaled: the median over fresh interpreters of
    the CPU time to import grafold and load the parameter table (each scaled
    by the reference timed in the same interpreter), plus the CPU time of
    making the inputs (scaled by ``ref_s``)."""
    times, scaled = [], []
    for _ in range(SETUP_REPS):
        child = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=child_env(),
                               check=True, capture_output=True, text=True,
                               timeout=CHILD_TIMEOUT_S)
        setup, ref = map(float, child.stdout.split())
        times.append(setup)
        scaled.append(setup * REF_S / ref)
    start = process_time()
    make_rounds(name, workload, seed)
    inputs = process_time() - start
    return (statistics.median(scaled) + inputs * REF_S / ref_s,
            statistics.median(times) + inputs)


def run_ops(cli, workload, rounds, outdir: Path, seconds=None, tracer=None, refs=None):
    """Run whole rounds of ops; stop at the first round boundary past
    ``seconds`` (or after every round when it is None). With ``refs``, the
    reference is timed before each op and after the last, outside the
    ops' time, so op ``i`` runs between ``refs[i]`` and ``refs[i + 1]``."""
    outdir.mkdir()
    suffix = "jsonl" if workload.command == "fold" else workload.energy_mode
    results: list[OpResult] = []
    start, cpu_start = perf_counter(), process_time()
    for strands in rounds:
        if seconds is not None and perf_counter() - start >= seconds:
            break
        for bases in strands:
            index = len(results)
            path = outdir / f"op{index}.{suffix}"
            argv = [workload.command, "--seq", bases, *workload.flags, workload.out_flag, str(path)]
            if tracer is not None:
                tracer.start_op(index)
            if refs is not None:
                refs.append(reference_s())
            error = ""
            sink = io.StringIO()
            t = process_time()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an op that crashes is a failed op, not a failed run
                code, error = None, traceback.format_exc(limit=3)
            elapsed = process_time() - t
            if code != 0 and not error:
                error = f"exit code {code}: {sink.getvalue().strip()[-200:]}"
            results.append(OpResult(index, bases, path, elapsed, code, error))
    if refs is not None:
        refs.append(reference_s())
    return results, process_time() - cpu_start - sum(refs or ())


def check_outputs(gf, name, workload, results, digests) -> dict[int, list[str]]:
    """Problems per op position; records each output's digest in ``digests``."""
    stored = checks.load_digests().get(name, {})
    seen: dict[str, str] = {}
    problems: dict[int, list[str]] = {}
    for position, op in enumerate(results):
        found = [op.error] if op.error else []
        if op.exit_code == 0:
            try:
                if workload.command == "fold":
                    found += checks.check_fold(gf, op.bases, op.path, workload.energy_mode)
                else:
                    found += checks.check_enumerate(gf, op.bases, op.path)
                digest = checks.sha256_file(op.path)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems[position] = found + [f"unreadable output: {exc!r}"]
                continue
            expected = stored.get(op.bases) or seen.get(op.bases)
            if expected is not None and expected != digest:
                found.append(f"output sha256 {digest[:12]} != expected {expected[:12]}")
            seen.setdefault(op.bases, digest)
            digests.setdefault(name, {})[op.bases] = digest
        if found:
            problems[position] = found
    return problems


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def untraced_run(cli, name, workload, rounds, outdir, seconds, seed):
    """The end-to-end metrics, scaled to the reference speed, and the
    unscaled CPU times with the median reference time."""
    refs: list[float] = []
    results, cpu_s = run_ops(cli, workload, rounds, outdir / "run", seconds, refs=refs)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ref_s = statistics.median(refs)
    setup_s, setup_cpu_s = setup_seconds(name, workload, seed, ref_s)
    raw = {
        "op_p50_cpu_s": statistics.median(op.seconds for op in results),
        "ops_per_cpu_s": len(results) / cpu_s,
        "setup_cpu_s": setup_cpu_s,
        "ref_s": ref_s,
    }
    # each op is scaled by the mean of the refs just before and after it, so
    # a change of speed within the run is followed
    scaled = [op.seconds * 2 * REF_S / (refs[i] + refs[i + 1]) for i, op in enumerate(results)]
    metrics = {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(scaled),
        "ops_per_s": len(results) / sum(scaled),
        "peak_rss_mb": peak_mb,
    }
    return results, metrics, raw


def traced_pass(cli, workload, fixed, outdir):
    tracer = Tracer()
    tracer.install()
    try:
        results, cpu_s = run_ops(cli, workload, fixed, outdir, tracer=tracer)
    finally:
        tracer.uninstall()
    return tracer, results, cpu_s


def child_counters(name: str, seed: int) -> dict[str, int]:
    """The work counters of the same traced pass, made in a fresh interpreter
    with another hash seed, so the comparison spans processes."""
    hash_seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--counters-only"],
        cwd=ROOT, env=child_env(PYTHONHASHSEED=hash_seed),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if child.returncode != 0:
        raise RuntimeError(f"counter pass failed: {child.stderr.strip()[-400:]}")
    return json.loads(child.stdout.splitlines()[-1])


def traced_run(cli, name, workload, rounds, outdir, seed, env):
    fixed = rounds[: workload.trace_rounds]
    results, untraced_s = run_ops(cli, workload, fixed, outdir / "untraced")
    tracer, traced, traced_s = traced_pass(cli, workload, fixed, outdir / "traced")
    results += traced

    problems = []
    first = tracer.counters()
    try:
        second = child_counters(name, seed)
    except (RuntimeError, ValueError, IndexError, subprocess.TimeoutExpired) as exc:
        problems.append(str(exc))
        second = first
    if first != second:
        diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        problems.append(f"work counters differ between two traced processes: {diff}")

    values: dict[str, float] = {**first, **tracer.self_seconds()}
    ops = len(fixed) * len(workload.lengths)
    fold_matches = values.get("grammar.matches", 0) + values.get("grammar.inverse_matches", 0)
    values.update({
        "energy.observable.distinct_ratio": ratio(
            values.get("energy.observable.distinct", 0), values.get("energy.observable.calls", 0)),
        "controller.move_ratio": ratio(values.get("controller.steps", 0), fold_matches),
        "space.dedup_ratio": ratio(
            values.get("space.states", 0) - values.get("space.build_lts.calls", 0),
            values.get("space.successor_entries", 0)),
        "src.lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        "trace.untraced_ops_per_s": ops / untraced_s,
        "trace.traced_ops_per_s": ops / traced_s,
    })

    spans = RUN_DIR / f"spans-{name}-seed{seed}.jsonl"
    tracer.write_spans(spans, {"workload": name, "seed": seed, "env": env,
                               "absent": tracer.absent})
    print(f"spans: {spans.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    if tracer.absent:
        print(f"absent hooks (reported as 0): {tracer.absent}")
    return results, values, problems


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="store the digests of this run's outputs as expected")
    parser.add_argument("--counters-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    env = environment()
    try:
        registry = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if not (SRC / "grafold" / "__init__.py").is_file():
        print(f"error: no grafold sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    name, workload = args.workload, WORKLOADS[args.workload]

    import grafold as gf
    import grafold.cli as cli
    if not Path(gf.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: grafold was imported from {gf.__file__}, not {SRC}", file=sys.stderr)
        return 2
    rounds = make_rounds(name, workload, args.seed)

    RUN_DIR.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=RUN_DIR))
    digests: dict[str, dict[str, str]] = {}
    try:
        if args.counters_only:  # the same passes as the traced run, in this process
            fixed = rounds[: workload.trace_rounds]
            run_ops(cli, workload, fixed, outdir / "untraced")
            tracer = traced_pass(cli, workload, fixed, outdir / "traced")[0]
            print(json.dumps(tracer.counters()))
            return 0
        if args.trace:
            results, values, run_problems = traced_run(
                cli, name, workload, rounds, outdir, args.seed, env)
            wanted = registry["per_layer"]
        else:
            results, values, raw = untraced_run(
                cli, name, workload, rounds, outdir, args.seconds, args.seed)
            print("unscaled: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
            run_problems = []
            wanted = registry["end_to_end"]
        problems = check_outputs(gf, name, workload, results, digests)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    if args.write_digests:
        stored = checks.load_digests()
        for key, table in digests.items():
            stored.setdefault(key, {}).update(table)
        checks.DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")

    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    attempted, failed = len(results), len(problems)
    print(json.dumps({"env": env}))
    print(f"workload={name} seed={args.seed} trace={args.trace} ops={attempted} "
          f"failed={failed} error_rate={ratio(failed, attempted)}")
    for key, metric in metrics.items():
        print(f"  {key:<40} {metric['value']:<14.6g} {metric['unit']}")
    for index, found in list(problems.items())[:5]:
        print(f"op {index} failed: {'; '.join(found)[:400]}")
    for problem in run_problems:
        print(f"run check failed: {problem}")
    correct = failed == 0 and not run_problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
