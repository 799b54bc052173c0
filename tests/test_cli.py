import argparse
import json
import subprocess
import sys

import pytest

import grafold.controller
from grafold.cli import build_parser, main
from grafold.controller import StrategyDecision
from grafold.space import validate_lts_json


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strategy_machine(tmp_path, strategy, params, on_psi=False):
    """A machine file: greedy w0, adapting into w1 under ``strategy``; or,
    ``on_psi``, greedy w0 alone, adapting into itself with ``strategy`` as
    the ψ of its self-loop."""
    constraint = {"strategy": strategy, "params": params}
    if on_psi:
        machine = {
            "initial": "w0",
            "states": [{"id": "w0", "constraint": "phi0"}],
            "transitions": [{"from": "w0", "to": "w0", "psi": constraint}],
        }
    else:
        machine = {
            "initial": "w0",
            "states": [{"id": "w0", "constraint": "phi0"}, {"id": "w1", "constraint": constraint}],
            "transitions": [{"from": "w0", "to": "w1"}, {"from": "w1", "to": "w0"}],
        }
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(machine))
    return path


class TestFold:
    def test_nussinov_summary(self, capsys):
        code, out, _ = run_cli(["fold", "--seq", "GGGAAACCC", "--energy", "nussinov"], capsys)
        assert code == 0
        assert out == "((....)).  -2.0\n"

    def test_unfoldable_summary(self, capsys):
        code, out, _ = run_cli(["fold", "--seq", "AAAA", "--energy", "nussinov"], capsys)
        assert code == 0
        assert out == "....  +inf (no fold possible)\n"

    @pytest.mark.parametrize(
        "flags, termination",
        [
            (["--max-steps", "0"], "max-steps"),
            (["--max-adaptation-depth", "0"], "exhausted"),
            (["--max-adaptation-states", "0"], "adaptation-state-limit"),
        ],
    )
    def test_limit_before_any_fold_is_named(self, capsys, flags, termination):
        # a limit that ends the run while the strand is still unfolded is
        # named, not reported as "no fold possible": GGGAAACCC folds without
        # the step limit; on AAAA the adaptation search stops at its origin,
        # which has no move for a depth limit to cut off, so that run ends
        # exhausted
        seq = "GGGAAACCC" if termination == "max-steps" else "AAAA"
        code, out, _ = run_cli(["fold", "--seq", seq, *flags], capsys)
        assert code == 0
        ending = "no fold possible" if termination == "exhausted" else f"stopped by {termination}"
        assert out == f"{'.' * len(seq)}  +inf ({ending})\n"

    def test_inverse_moves_find_the_optimum(self, capsys):
        code, out, _ = run_cli(["fold", "--seq", "GGGAAACCC", "--allow-inverse"], capsys)
        assert code == 0
        assert out.split()[-1] == "-3.0"

    def test_missing_sequence_file(self, capsys):
        code, _, err = run_cli(["fold", "--seq", "@missing.fa"], capsys)
        assert code == 2
        assert "missing.fa" in err

    def test_sequence_from_fasta_file(self, tmp_path, capsys):
        fasta = tmp_path / "seq.fa"
        fasta.write_text(">toy\nggga\naaccc\n")
        code, out, _ = run_cli(["fold", "--seq", f"@{fasta}"], capsys)
        assert code == 0
        assert out.startswith("((....)).")

    def test_trace_written(self, tmp_path, capsys):
        out_path = tmp_path / "trace.jsonl"
        code, _, _ = run_cli(
            ["fold", "--seq", "GAAAC", "--trace-out", str(out_path)], capsys
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        records = [json.loads(line) for line in lines]
        assert records[0]["db"] == "....."
        assert "summary" in records[-1]

    def test_machine_file(self, tmp_path, capsys):
        machine = {
            "initial": "w0",
            "states": [{"id": "w0", "constraint": "phi0"}],
            "transitions": [{"from": "w0", "to": "w0"}],
        }
        path = tmp_path / "machine.json"
        path.write_text(json.dumps(machine))
        code, out, _ = run_cli(
            ["fold", "--seq", "GAAAC", "--s-machine", str(path)], capsys
        )
        assert code == 0 and out.startswith("(...)")

    def test_bad_machine_file(self, tmp_path, capsys):
        path = tmp_path / "machine.json"
        path.write_text("{not json")
        code, _, err = run_cli(["fold", "--seq", "GAAAC", "--s-machine", str(path)], capsys)
        assert code == 2 and "error" in err


    @pytest.mark.parametrize(
        "machine",
        [
            {"initial": "w0", "states": [{"id": "w0", "constraint": "phi0"}], "transitions": 5},
            {"initial": "w0", "states": [{"id": ["w0"], "constraint": "phi0"}]},
            {"initial": "w0", "states": [{"id": "w0", "constraint": "phi0"}],
             "transitions": [{"from": "w9", "to": "w0"}]},
            # a misspelled key is an error wherever it sits, never left unread
            {"initial": "w0", "states": [{"id": "w0", "constraint": "phi0"}],
             "transitons": []},
            {"initial": "w0", "states": [{"id": "w0", "constraint": "phi0", "constrant": "true"}]},
            {"initial": "w0", "states": [{"id": "w0", "constraint": "phi0"}],
             "transitions": [{"from": "w0", "to": "w0", "pis": {"strategy": "no-such"}}]},
            {"initial": "w0",
             "states": [{"id": "w0", "constraint": "phi0"},
                        {"id": "w1", "constraint": {"strategy": "lookahead", "parms": {"depth": 7}}}],
             "transitions": [{"from": "w0", "to": "w1"}, {"from": "w1", "to": "w0"}]},
        ],
        ids=[
            "transitions-not-a-list", "state-id-not-a-string", "transition-from-unknown-state",
            "misspelled-document-key", "misspelled-state-key", "misspelled-transition-key",
            "misspelled-strategy-key",
        ],
    )
    def test_malformed_machine_file(self, tmp_path, capsys, machine):
        path = tmp_path / "machine.json"
        path.write_text(json.dumps(machine))
        code, out, err = run_cli(["fold", "--seq", "GAAAC", "--s-machine", str(path)], capsys)
        assert code == 2 and err.startswith("error: ")
        assert out == ""

    def test_strategy_param_called_name(self, tmp_path, capsys, monkeypatch):
        # "name" is an ordinary strategy param: it reaches the strategy and
        # does not collide with the strategy's own name
        seen = []

        def read_params(ctx):
            seen.append(ctx.params)
            return StrategyDecision(satisfied=False)

        monkeypatch.setitem(grafold.controller._STRATEGIES, "read-params", read_params)
        path = strategy_machine(tmp_path, "read-params", {"name": 1, "depth": 2})
        code, _, _ = run_cli(["fold", "--seq", "GGGAAACCC", "--s-machine", str(path)], capsys)
        assert code == 0
        assert seen and all(params == {"name": 1, "depth": 2} for params in seen)

    @pytest.mark.parametrize(
        "strategy, params, message, on_psi",
        [
            ("lookahead", {"depth": 2, "detph": 3}, "unknown lookahead param(s) ['detph']", False),
            ("lookahead", {"depth": "two"}, "lookahead depth must be an integer", False),
            ("lookahead", {"depth": float("inf")}, "lookahead depth must be an integer", False),
            # none of these may be read as an int
            ("lookahead", {"depth": 2.7}, "lookahead depth must be an integer", False),
            ("lookahead", {"depth": True}, "lookahead depth must be an integer", False),
            ("lookahead", {"depth": "3"}, "lookahead depth must be an integer", False),
            ("restart-from-best", {"detph": 3},
             "unknown restart-from-best param(s) ['detph']", False),
            # a ψ that no structure of the run is checked against: the params
            # are checked when the run starts, not when a strategy is called
            ("lookahead", {"depth": 2.7}, "lookahead depth must be an integer", True),
            ("restart-from-best", {"detph": 3},
             "unknown restart-from-best param(s) ['detph']", True),
        ],
        ids=[
            "misspelled-key", "non-integer-depth", "infinite-depth", "fractional-depth",
            "boolean-depth", "string-depth", "restart-from-best-param",
            "fractional-depth-on-psi", "restart-from-best-param-on-psi",
        ],
    )
    def test_bad_lookahead_params(self, tmp_path, capsys, strategy, params, message, on_psi):
        path = strategy_machine(tmp_path, strategy, params, on_psi)
        code, out, err = run_cli(["fold", "--seq", "GGGAAACCC", "--s-machine", str(path)], capsys)
        assert code == 2 and err.startswith("error: ") and message in err
        assert out == ""

    def test_unregistered_strategy_fails_before_the_run(self, tmp_path, capsys):
        # the name sits on a transition a forward-only run never reaches: it
        # is looked up when the run starts, not when the run gets there
        machine = {
            "initial": "w0",
            "states": [{"id": "w0", "constraint": "phi0"}],
            "transitions": [{"from": "w0", "to": "w0", "psi": {"strategy": "nope"}}],
        }
        path = tmp_path / "machine.json"
        path.write_text(json.dumps(machine))
        code, out, err = run_cli(["fold", "--seq", "GGGAAACCC", "--s-machine", str(path)], capsys)
        assert code == 2 and err.startswith("error: ") and "is not registered" in err
        assert out == ""


class TestEnumerate:
    def test_json_export_and_stats(self, capsys):
        code, out, err = run_cli(
            ["enumerate", "--seq", "GGGAAACCC", "--export", "json"], capsys
        )
        assert code == 0
        doc = validate_lts_json(json.loads(out))
        assert len(doc["states"]) == 20
        assert "states=20" in err

    def test_truncation_exit_code(self, capsys):
        seq = "GC" * 15  # 30-mer
        code, out, err = run_cli(
            ["enumerate", "--seq", seq, "--max-states", "100"], capsys
        )
        assert code == 3
        assert json.loads(out)["truncated_by"] == "max_states"
        assert "truncated_by=max_states" in err

    def test_dot_export(self, capsys):
        code, out, _ = run_cli(["enumerate", "--seq", "GAAAC", "--export", "dot"], capsys)
        assert code == 0
        assert out.startswith("digraph")
        assert out.count("->") == 1
        assert "Hairpin-Rule-1" in out

    def test_export_to_file(self, tmp_path, capsys):
        path = tmp_path / "lts.json"
        code, out, _ = run_cli(
            ["enumerate", "--seq", "GAAAC", "--out", str(path)], capsys
        )
        assert code == 0 and out == ""
        validate_lts_json(json.loads(path.read_text()))

    def test_min_hairpin_flag(self, capsys):
        code, out, _ = run_cli(
            ["enumerate", "--seq", "GAAC", "--min-hairpin", "1"], capsys
        )
        assert code == 0
        assert len(json.loads(out)["states"]) == 2


class TestEval:
    def test_nussinov_total(self, capsys):
        code, out, _ = run_cli(
            ["eval", "--seq", "GGGAAACCC", "--db", "(((...)))"], capsys
        )
        assert code == 0
        assert out.strip().endswith("total -3.0")
        assert out.count("\n") == 5  # hairpin + 2 stacks + exterior + total

    def test_loop_table_example_total(self, capsys):
        code, out, _ = run_cli(
            ["eval", "--seq", "GGGAAACCC", "--db", "(((...)))", "--energy", "loop-table"],
            capsys,
        )
        assert code == 0
        assert out.strip().endswith("total -2.0")
        assert "hairpin" in out and "stack" in out

    # (sequence, structure, extra flags, the exact stdout); "{stub}" in the
    # flags stands for a command that prints -7.25
    PINNED = [
        ("GGGAAACCC", "(((...)))", [],
         "stack        closing=(0,8)      branches=1 unpaired=0 energy=-1.0\n"
         "stack        closing=(1,7)      branches=1 unpaired=0 energy=-1.0\n"
         "hairpin      closing=(2,6)      branches=0 unpaired=3 energy=-1.0\n"
         "exterior     closing=-          branches=1 unpaired=0 energy=0.0\n"
         "total -3.0\n"),
        ("GGGAAACCC", "(((...)))", ["--energy", "loop-table"],
         "stack        closing=(0,8)      branches=1 unpaired=0 energy=-3.0\n"
         "stack        closing=(1,7)      branches=1 unpaired=0 energy=-3.0\n"
         "hairpin      closing=(2,6)      branches=0 unpaired=3 energy=4.0\n"
         "exterior     closing=-          branches=1 unpaired=0 energy=0.0\n"
         "total -2.0\n"),
        ("GGAACAGAACC", "((..).(..))", ["--energy", "loop-table", "--min-hairpin", "1"],
         "multibranch  closing=(0,10)     branches=2 unpaired=1 energy=3.9\n"
         "hairpin      closing=(1,4)      branches=0 unpaired=2 energy=4.5\n"
         "hairpin      closing=(6,9)      branches=0 unpaired=2 energy=4.5\n"
         "exterior     closing=-          branches=1 unpaired=0 energy=0.0\n"
         "total 12.9\n"),
        ("GGAACAGAACC", "((..).(..))", ["--min-hairpin", "1"],
         "multibranch  closing=(0,10)     branches=2 unpaired=1 energy=-1.0\n"
         "hairpin      closing=(1,4)      branches=0 unpaired=2 energy=-1.0\n"
         "hairpin      closing=(6,9)      branches=0 unpaired=2 energy=-1.0\n"
         "exterior     closing=-          branches=1 unpaired=0 energy=0.0\n"
         "total -3.0\n"),
        ("GGGAAACCC", "((....).)", ["--energy", "loop-table"],
         "bulge        closing=(0,8)      branches=1 unpaired=1 energy=3.0\n"
         "hairpin      closing=(1,6)      branches=0 unpaired=4 energy=4.2\n"
         "exterior     closing=-          branches=1 unpaired=0 energy=0.0\n"
         "total 7.2\n"),
        ("GGGAAACCC", "(.(...).)", ["--energy", "loop-table"],
         "internal     closing=(0,8)      branches=1 unpaired=2 energy=2.0\n"
         "hairpin      closing=(2,6)      branches=0 unpaired=3 energy=4.0\n"
         "exterior     closing=-          branches=1 unpaired=0 energy=0.0\n"
         "total 6.0\n"),
        ("GGGAAACCC", "..(...)..", ["--energy", "loop-table"],
         "hairpin      closing=(2,6)      branches=0 unpaired=3 energy=4.0\n"
         "exterior     closing=-          branches=1 unpaired=4 energy=0.0\n"
         "total 4.0\n"),
        ("GGGAAACCC", ".........", ["--energy", "loop-table"],
         "exterior     closing=-          branches=0 unpaired=9 energy=0.0\n"
         "total +inf\n"),
        ("GGGAAACCC", ".........", [],
         "exterior     closing=-          branches=0 unpaired=9 energy=0.0\n"
         "total +inf\n"),
        ("G" + "A" * 35 + "C", "(" + "." * 35 + ")", ["--energy", "loop-table"],
         "hairpin      closing=(0,36)     branches=0 unpaired=35 energy=9.566174432853785\n"
         "exterior     closing=-          branches=1 unpaired=0 energy=0.0\n"
         "total 9.566174432853785\n"),
        ("GGGAAACCC", "(((...)))", ["--energy", "external", "--external-cmd", "{stub}"],
         "stack        closing=(0,8)      branches=1 unpaired=0 energy=-\n"
         "stack        closing=(1,7)      branches=1 unpaired=0 energy=-\n"
         "hairpin      closing=(2,6)      branches=0 unpaired=3 energy=-\n"
         "exterior     closing=-          branches=1 unpaired=0 energy=-\n"
         "total -7.25\n"),
    ]

    @pytest.mark.parametrize(
        "bases, db, flags, printed",
        PINNED,
        ids=[f"{db}-{'-'.join(flags[:2]) or 'nussinov'}" for _, db, flags, _ in PINNED],
    )
    def test_stdout_byte_for_byte(self, tmp_path, capsys, bases, db, flags, printed):
        stub = tmp_path / "stub.py"
        stub.write_text("print(-7.25)\n")
        flags = [f.replace("{stub}", f"{sys.executable} {stub}") for f in flags]
        code, out, err = run_cli(["eval", "--seq", bases, "--db", db, *flags], capsys)
        assert (code, out, err) == (0, printed, "")

    def test_invalid_structure_reports_violations(self, capsys):
        # too-small hairpin: exit 2 and the violation list on stderr
        code, _, err = run_cli(["eval", "--seq", "GGAC", "--db", ".(.)"], capsys)
        assert code == 2
        assert "hairpin-too-small" in err

    def test_inadmissible_pair_reported(self, capsys):
        code, _, err = run_cli(["eval", "--seq", "AAAAA", "--db", "(...)"], capsys)
        assert code == 2
        assert "inadmissible-pair" in err

    def test_unbalanced_structure_rejected(self, capsys):
        code, _, err = run_cli(["eval", "--seq", "GGAAACC", "--db", "((...)."], capsys)
        assert code == 2
        assert "unbalanced" in err


    @pytest.mark.parametrize("command", ["eval", "enumerate"])
    def test_non_finite_parameter_exits_2(self, tmp_path, capsys, command):
        # a nan entry used to print "total nan" and export "energy": NaN
        from importlib import resources

        text = resources.files("grafold").joinpath("data/example_loop_params.ini").read_text()
        params = tmp_path / "params.ini"
        params.write_text(text.replace("\n4 = 4.2\n", "\n4 = nan\n"))
        argv = [command, "--seq", "GAAAAC", "--energy", "loop-table", "--params", str(params)]
        if command == "eval":
            argv += ["--db", "(....)"]
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err == "error: [hairpin] 4: non-finite number 'nan'\n"


class TestRules:
    def test_all_eleven(self, capsys):
        code, out, _ = run_cli(["rules"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 11
        assert lines[0].startswith("Hairpin-Rule-1:")

    def test_filter_hairpin(self, capsys):
        code, out, _ = run_cli(["rules", "--loop", "hairpin"], capsys)
        assert code == 0
        assert out.strip().split("\n") == [out.strip()]
        assert out.startswith("Hairpin-Rule-1:")

    def test_unknown_loop(self, capsys):
        code, _, err = run_cli(["rules", "--loop", "frobnicate"], capsys)
        assert code == 2
        assert "unknown loop kind" in err


class TestDeterminism:
    def _run(self, args):
        return subprocess.run(
            [sys.executable, "-m", "grafold"] + args,
            capture_output=True,
            text=True,
        )

    def test_fold_and_enumerate_byte_identical(self, tmp_path):
        fold_args = ["fold", "--seq", "GGGAAACCC", "--trace-out"]
        first = self._run(fold_args + [str(tmp_path / "a.jsonl")])
        second = self._run(fold_args + [str(tmp_path / "b.jsonl")])
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

        enum = ["enumerate", "--seq", "GGGAAACCC", "--export", "json"]
        assert self._run(enum).stdout == self._run(enum).stdout

    def test_console_script_entry(self):
        result = self._run(["rules"])
        assert result.returncode == 0
        assert len(result.stdout.strip().split("\n")) == 11


class TestOneProcess:
    """Calls of ``main`` in one process share one parser and behave as
    separate processes do."""

    CALLS = (
        ["fold", "--seq", "GGGAAACCC", "--energy", "loop-table", "--allow-inverse"],
        ["eval", "--seq", "GGGAAACCC", "--db", "(((...)))", "--energy", "loop-table"],
        ["enumerate", "--seq", "GGGAAACCC", "--export", "json"],
        ["fold", "--seq", "GGGAAACCC", "--no-such-flag"],
        ["fold", "--seq", "GGGAAACCC"],
    )

    def test_same_as_separate_processes(self, capsys, monkeypatch):
        progs = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        build_parser.cache_clear()
        in_process = []
        for argv in self.CALLS:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        assert progs.count("grafold") == 1
        assert [code for code, _, _ in in_process] == [0, 0, 0, 2, 0]

        for argv, got in zip(self.CALLS, in_process):
            alone = subprocess.run(
                [sys.executable, "-m", "grafold", *argv], capture_output=True, text=True
            )
            assert got == (alone.returncode, alone.stdout, alone.stderr)


class TestExternalMode:
    def test_external_command_via_flag(self, tmp_path, capsys):
        stub = tmp_path / "stub.py"
        stub.write_text("print(-7.25)\n")
        code, out, _ = run_cli(
            [
                "eval",
                "--seq", "GAAAC",
                "--db", "(...)",
                "--energy", "external",
                "--external-cmd", f"{sys.executable} {stub}",
            ],
            capsys,
        )
        assert code == 0
        assert out.strip().endswith("total -7.25")

    def test_external_mode_requires_command(self, capsys, monkeypatch):
        monkeypatch.delenv("GRAFOLD_EXTERNAL_CMD", raising=False)
        code, _, err = run_cli(
            ["eval", "--seq", "GAAAC", "--db", "(...)", "--energy", "external"], capsys
        )
        assert code == 2
        assert "external" in err

    def test_external_command_via_env(self, tmp_path, capsys, monkeypatch):
        stub = tmp_path / "stub.py"
        stub.write_text("print(-1.0)\n")
        monkeypatch.setenv("GRAFOLD_EXTERNAL_CMD", f"{sys.executable} {stub}")
        code, out, _ = run_cli(
            ["fold", "--seq", "GAAAC", "--energy", "external"], capsys
        )
        assert code == 0
        assert out == "(...)  -1.0\n"

    @pytest.mark.parametrize(
        "argv, fail_on",
        [
            (["fold", "--seq", "GGGAAACCCAGGGAAACCC", "--energy", "external"], 4),
            (["enumerate", "--seq", "GGGAAACCC", "--energy", "external"], 4),
            (["eval", "--seq", "GGGAAACCC", "--db", "(((...)))", "--energy", "external"], 1),
        ],
        ids=["fold", "enumerate", "eval"],
    )
    def test_evaluator_failing_mid_run_exits_4(self, tmp_path, capsys, argv, fail_on):
        # the stub answers until its fail_on-th call, which exits nonzero
        calls = tmp_path / "calls"
        stub = tmp_path / "stub.py"
        stub.write_text(
            "from pathlib import Path\n"
            f"p = Path({str(calls)!r})\n"
            "n = int(p.read_text()) + 1 if p.exists() else 1\n"
            "p.write_text(str(n))\n"
            f"if n == {fail_on}:\n"
            "    raise SystemExit(1)\n"
            "print(-1.0 * n)\n"
        )
        code, _, err = run_cli([*argv, "--external-cmd", f"{sys.executable} {stub}"], capsys)
        assert code == 4
        assert calls.read_text() == str(fail_on)
        assert err.startswith("error: external evaluator nonzero-exit")
        assert err.count("\n") == 1

    def test_evaluator_command_not_found_exits_2(self, capsys):
        code, _, err = run_cli(
            ["eval", "--seq", "GAAAC", "--db", "(...)", "--energy", "external",
             "--external-cmd", "definitely-not-a-real-command-xyz"],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: external evaluator command-not-found")
        assert err.count("\n") == 1


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fold", "--seq", "GGGAAACCC", "--min-hairpin", "0"],
             "min_hairpin_unpaired must be >= 1"),
            (["enumerate", "--seq", "GGGAAACCC", "--min-hairpin", "0"],
             "min_hairpin_unpaired must be >= 1"),
            (["eval", "--seq", "GGGGCCCC", "--db", "(((())))", "--min-hairpin", "0"],
             "min_hairpin_unpaired must be >= 1"),
            (["eval", "--seq", "GGGGCCCC", "--db", "(((())))", "--energy", "loop-table",
              "--min-hairpin", "-2"], "min_hairpin_unpaired must be >= 1"),
            (["enumerate", "--seq", "GGGAAACCC", "--max-states", "0"],
             "max_states must be positive, got 0"),
            (["enumerate", "--seq", "GGGAAACCC", "--max-depth", "-1"],
             "max_depth must be positive, got -1"),
            (["enumerate", "--seq", "GGGAAACCC", "--max-seconds", "0"],
             "max_seconds must be positive, got 0.0"),
            (["enumerate", "--seq", "GGGAAACCC", "--max-seconds", "nan"],
             "max_seconds must be positive, got nan"),
            (["enumerate", "--seq", "GGGAAACCC", "--energy-ceiling", "nan"],
             "energy_ceiling must be a number, got nan"),
            (["fold", "--seq", "GGGAAACCC", "--max-steps", "-1"],
             "max_steps must be >= 0, got -1"),
            (["fold", "--seq", "GGGAAACCC", "--max-adaptation-depth", "-2"],
             "max_adaptation_depth must be >= 0, got -2"),
            (["fold", "--seq", "GGGAAACCC", "--max-adaptation-states", "-1"],
             "max_adaptation_states must be >= 0, got -1"),
            (["eval", "--seq", "GAAAC", "--db", "(...)", "--energy", "external",
              "--external-cmd", "stub 'unclosed"], "cannot parse external command"),
            (["eval", "--seq", "GAAAC", "--db", "(...)", "--energy", "external",
              "--external-cmd", " "], "names no program"),
        ],
        ids=["fold-min-hairpin", "enumerate-min-hairpin", "eval-min-hairpin",
             "eval-min-hairpin-loop-table", "max-states", "max-depth",
             "max-seconds", "max-seconds-nan", "energy-ceiling-nan", "max-steps",
             "max-adaptation-depth", "max-adaptation-states", "unparsable-external-cmd",
             "empty-external-cmd"],
    )
    def test_flag_out_of_range_exits_2(self, capsys, argv, message):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1

    def test_input_file_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "seq.fa"
        path.write_bytes(b"\xff\xfeGAAAC\n")
        code, _, err = run_cli(["fold", "--seq", f"@{path}"], capsys)
        assert code == 2 and err.startswith("error: ")

    def test_internal_value_error_propagates(self, monkeypatch):
        # exit 2 means bad input; a ValueError from inside the program is a
        # bug and must surface as one (exit 1 with a traceback)
        def broken_build(*args, **kwargs):
            raise ValueError("internal failure")

        monkeypatch.setattr("grafold.cli.build_lts", broken_build)
        with pytest.raises(ValueError, match="internal failure"):
            main(["enumerate", "--seq", "GGGAAACCC"])
