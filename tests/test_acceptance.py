"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import random
import subprocess
import sys
import time

import pytest

from grafold.controller import run
from grafold.energy import LoopTableModel, NussinovModel, example_parameters, observable
from grafold.grammar import Grammar
from grafold.space import (
    alternating_gc_sequence,
    build_lts,
    growth_sweep,
    min_energy_state,
    successors,
)
from grafold.structure import (
    PrimarySequence,
    SecondaryStructure,
    parse_dot_bracket,
    validate_structure,
)
from conftest import (
    COMPLETENESS_SEQUENCES,
    NUSSINOV_SEQUENCES,
    SOUNDNESS_SEQUENCES,
    trap_model,
)
from oracles import all_valid_structures, nussinov_max_pairs

NUSSINOV = NussinovModel()


def _criterion(name: str, budget_seconds: float | None, body) -> None:
    start = time.monotonic()
    try:
        detail = body() or ""
    except BaseException:
        print(f"FAIL  {name}")
        raise
    elapsed = time.monotonic() - start
    budget = f" [{elapsed:.1f}s < {budget_seconds:.0f}s]" if budget_seconds else ""
    print(f"PASS  {name}{budget}  {detail}")
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"{name} exceeded its {budget_seconds}s budget"


def test_criterion_1_grammar_soundness():
    def body():
        checked = 0
        for bases in SOUNDNESS_SEQUENCES:
            seq = PrimarySequence(bases)
            assert len(seq) <= 12
            lts = build_lts(seq, Grammar(), NUSSINOV)
            assert lts.complete
            for st in lts.states:
                report = validate_structure(st.structure, 3)
                assert report.ok, f"{bases}: invalid reachable state {st.key}: {report.describe()}"
                checked += 1
        return f"{checked} reachable structures across {len(SOUNDNESS_SEQUENCES)} sequences"

    _criterion("criterion-1 grammar-soundness", 60, body)


def test_criterion_2_grammar_completeness():
    def body():
        cases = 0
        for bases in COMPLETENESS_SEQUENCES:
            seq = PrimarySequence(bases)
            assert len(seq) <= 10
            for min_h in (1, 3):
                lts = build_lts(seq, Grammar(min_hairpin_unpaired=min_h), NUSSINOV)
                reachable = {st.structure.pairs for st in lts.states}
                expected = all_valid_structures(seq, min_h)
                missing = sorted(
                    SecondaryStructure(seq, ps).key for ps in expected - reachable
                )
                extra = sorted(
                    SecondaryStructure(seq, ps).key for ps in reachable - expected
                )
                assert not missing and not extra, (
                    f"{bases} (min_hairpin={min_h}): "
                    f"unreachable={missing} overreached={extra}"
                )
                cases += 1
        twenty = build_lts(PrimarySequence("GGGAAACCC"), Grammar(), NUSSINOV)
        assert len(twenty.states) == 20, f"GGGAAACCC: {len(twenty.states)} states, expected 20"
        return f"{cases} sequence/min-hairpin cases, GGGAAACCC=20 states"

    _criterion("criterion-2 grammar-completeness", 120, body)


def test_criterion_3_energy_oracle_equivalence():
    def body():
        for bases in NUSSINOV_SEQUENCES:
            seq = PrimarySequence(bases)
            assert len(seq) <= 16
            lts = build_lts(seq, Grammar(), NUSSINOV)
            assert lts.complete
            optimum = nussinov_max_pairs(seq, 3)
            if optimum == 0:
                continue
            result = min_energy_state(lts)
            assert result.energy == -float(optimum), (
                f"{bases}: LTS minimum {result.energy} != DP optimum {-optimum}"
            )
            chosen = lts.states[result.index].structure
            assert len(chosen.pairs) == optimum  # in the DP's co-optimal set
            assert validate_structure(chosen, 3).ok
        return f"{len(NUSSINOV_SEQUENCES)} sequences, exact agreement"

    _criterion("criterion-3 energy-oracle-equivalence", 60, body)


def test_criterion_4_phi0_semantics():
    def body():
        rng = random.Random(20260810)
        grammar = Grammar()
        models = [NUSSINOV, LoopTableModel(example_parameters())]
        steady_steps = 0
        for i in range(200):
            n = rng.randint(5, 14)
            seq = PrimarySequence("".join(rng.choice("ACGU") for _ in range(n)))
            model = models[i % 2]
            trace = run(None, seq, grammar, model)
            for prev, rec in zip(trace.records, trace.records[1:]):
                if rec.mode != "steady" or rec.move is None:
                    continue
                source = parse_dot_bracket(seq, prev.db, min_hairpin_unpaired=3)
                succs = successors(source, grammar)
                best = min(
                    (observable(t, model), t.key) for _, t in succs
                )
                assert (rec.energy, rec.db) == best, (
                    f"{seq.bases}: step {rec.step} chose {rec.db}@{rec.energy}, "
                    f"exhaustive minimum is {best[1]}@{best[0]}"
                )
                assert rec.energy <= observable(source, model)
                steady_steps += 1
            final = parse_dot_bracket(seq, trace.records[-1].db, min_hairpin_unpaired=3)
            final_energy = observable(final, model)
            for _, t in successors(final, grammar):
                assert observable(t, model) >= final_energy, (
                    f"{seq.bases}: terminated at {final.key} but {t.key} is lower"
                )
        return f"200 runs, {steady_steps} steady steps verified exactly"

    _criterion("criterion-4 phi0-semantics", 120, body)


def test_criterion_5_adaptation_semantics():
    def body():
        seq = PrimarySequence("GGGAAACCC")
        trace = run(None, seq, Grammar(), trap_model())
        adapting = [r for r in trace.records if r.mode == "adapting"]
        assert len(adapting) == 1, f"expected exactly one adapting move, got {len(adapting)}"
        idx = trace.records.index(adapting[0])
        assert trace.records[idx - 1].mode == "steady"  # the stuck local minimum
        assert trace.records[idx - 1].db == "..(...).."
        assert trace.records[idx + 1].mode == "steady"  # resumed immediately
        assert trace.records[idx + 1].note == "adaptation-complete:w0->w0"
        return "one adapting move between steady phases, as constructed"

    _criterion("criterion-5 adaptation-semantics", None, body)


def test_criterion_6_loop_partition():
    from grafold.energy import decompose_loops

    def body():
        structures = 0
        for bases in COMPLETENESS_SEQUENCES:
            seq = PrimarySequence(bases)
            for pair_set in all_valid_structures(seq, 1):
                s = SecondaryStructure(seq, pair_set)
                regions = [region for _, region in decompose_loops(s)]
                unpaired = sum(len(r.free) for r in regions)
                assert unpaired + 2 * len(s.pairs) == len(seq), s.key
                closings = [r.closing for r in regions if r.closing is not None]
                assert sorted(closings) == sorted(s.pairs), s.key
                structures += 1
        return f"{structures} structures partitioned exactly"

    _criterion("criterion-6 loop-partition", None, body)


def test_criterion_7_determinism(tmp_path):
    def body():
        def cli(args):
            proc = subprocess.run(
                [sys.executable, "-m", "grafold"] + args, capture_output=True, text=True
            )
            return proc

        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        cli(["fold", "--seq", "GGGAAACCC", "--allow-inverse", "--trace-out", str(a)])
        cli(["fold", "--seq", "GGGAAACCC", "--allow-inverse", "--trace-out", str(b)])
        assert a.read_bytes() == b.read_bytes(), "fold traces differ between runs"
        first = cli(["enumerate", "--seq", "GCGCGCGCGCGC", "--export", "json"]).stdout
        second = cli(["enumerate", "--seq", "GCGCGCGCGCGC", "--export", "json"]).stdout
        assert first == second, "enumerate exports differ between runs"
        third = cli(["enumerate", "--seq", "GCGCGCGCGCGC", "--export", "dot"]).stdout
        fourth = cli(["enumerate", "--seq", "GCGCGCGCGCGC", "--export", "dot"]).stdout
        assert third == fourth, "dot exports differ between runs"
        return "fold traces and both export formats byte-identical"

    _criterion("criterion-7 determinism", None, body)


def test_criterion_8_scale_report():
    def body():
        lengths = list(range(8, 15))
        sweep = growth_sweep(
            [alternating_gc_sequence(n) for n in lengths], Grammar(), NUSSINOV
        )
        counts = [c for _, c in sweep.entries]
        assert not sweep.truncated
        assert counts == sorted(counts), f"counts not monotone: {counts}"
        assert sweep.base is not None and math.isfinite(sweep.base)
        report = (
            f"alternating-GC family {sweep.describe()} "
            f"(literature reference for unconstrained spaces: ~1.8^n)"
        )
        print(f"       scale report: {report}")
        return report

    _criterion("criterion-8 scale-report", 300, body)
