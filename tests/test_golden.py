"""Byte identity of CLI outputs across versions.

The digests below were recorded from the program before the loop-indexed
match enumerator and the run-scoped successor and energy memos went in.
Any change to the bytes of a fold trace or a folding-space export, on these
fixed inputs, fails here. The larger folds (n = 40 and 60, the first 40 and
60 bases drawn by ``random.Random(1)``) were recorded before the bounded φ0
selector went in; they reach internal loops and hairpins past the 30-entry
tables and steps with many tied candidates. The loop-table folds of the
first 80 and 100 bases were recorded before the adaptation search built
children lazily; at these sizes most of a fold is adaptation search.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

import grafold
from grafold.cli import main

MACHINE = str(Path(grafold.__file__).parent / "data" / "example_machine.json")

STRANDS = ("AUGCACAGGGAAAGAGCU", "CAUGAGGUUCACACGAUAUUUU", "UAAACCUUCACUAGACUCCUGUCAAG")

FOLD_CONFIGS = {
    "loop-table": ["--energy", "loop-table"],
    "nussinov-inverse": ["--energy", "nussinov", "--allow-inverse", "--max-steps", "60"],
    "machine": [
        "--energy", "loop-table", "--allow-inverse", "--max-steps", "30", "--s-machine", MACHINE,
    ],
}

# per config, the trace digest of each strand, in STRANDS order
FOLD_DIGESTS = {
    "loop-table": (
        "eb3f67939bce4243c2aca9c49402bf347bfef0a1455531c11a5ec0683c790683",
        "017599c69d21367ec2e6b4da636f12080f91e8cd73cda514a139b522d52f9abb",
        "648925601786bdfd5ee2d535a000122c04fff709588ff4aac119fd20558a29f4",
    ),
    "nussinov-inverse": (
        "7fd1c31e50fe2e9110621b1303ac57bf9ca3f9ef1475d44e97f8c5aedbdd89f8",
        "5acdc7f829eaff0659f4b5b34cffa17fad4873e24c039eb193cab2e8ca5dc7af",
        "685158990a487fa5d10bfcf1909029b9e5c79f6cb405e5bb72339ca079ea5250",
    ),
    "machine": (
        "3b1f4b731c76a6a8957a55682f038e3ae111edb88fadf8a333675a7ef83b5e16",
        "91e4f6c491340b7d5e3c7d3c8e8150657a5d417dbf7e8c5d839a52b3f7f76985",
        "bcfb89ba0a4dbd095cb318eb80e70ab42a5c78fbf005a50c6c43176959532689",
    ),
}

# the first 40, 60, 80 and 100 of ``"".join(rng.choice("ACGU") ...)`` with rng = random.Random(1)
SEEDED = {
    40: "CAGAUUUUCAUAUUAUGCAGAAAAUCUACUUCGCCUGAUA",
    60: "CAGAUUUUCAUAUUAUGCAGAAAAUCUACUUCGCCUGAUACGAGUCGGUUAUCUUCGGAU",
    80: "CAGAUUUUCAUAUUAUGCAGAAAAUCUACUUCGCCUGAUACGAGUCGGUUAUCUUCGGAUACUGUAUAGUCCCACCUGGU",
    100: (
        "CAGAUUUUCAUAUUAUGCAGAAAAUCUACUUCGCCUGAUACGAGUCGGUUAUCUUCGGAUACUGUAUAGUCCCACCUGGU"
        "GAUCCUAUGCUUGUGAGUAC"
    ),
}

# (config, strand length, extra flags, trace digest)
LARGE_FOLDS = (
    ("loop-table", 40, ["--energy", "loop-table"],
     "0e49c1ac96d1ec9714b49eb9e402f562ddeb32d569ce094d6652b53999770459"),
    ("loop-table", 60, ["--energy", "loop-table"],
     "4248b59ff9dad191ee7e87c61d38e73f81aad928856f1147380eb22b1278b4f6"),
    ("loop-table", 80, ["--energy", "loop-table"],
     "c9402e21eb5accb44325cde7853f2ef15f9b68995c4d6c3d571c4167251883fe"),
    ("loop-table", 100, ["--energy", "loop-table"],
     "d423a0060bf6b9b0da7daf4e59883a9e40860bd45e7772e329f098969419195c"),
    ("nussinov", 40, ["--energy", "nussinov"],
     "6aad0a9c32ab1a26cecdef131103bc261bbed04e56c25747328aa147231ba0c3"),
    ("nussinov", 60, ["--energy", "nussinov"],
     "2a249c727593f33aaa797abfd01a4cd4e6eea5d4462c5f978daf3773f85dbd89"),
    ("loop-table-inverse", 40,
     ["--energy", "loop-table", "--allow-inverse", "--max-steps", "60"],
     "ca1f3a6969190e1ae263173148f37e0cda242bd89162f0c58bf6d4929a60593f"),
)

ENUMERATE_DIGEST = "ecb98f545e1402619c90a46c5508dbd4a7c234e102755c85f1d9afaeca02b37c"


def _digest_of(argv: list[str], path: Path) -> str:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("config", sorted(FOLD_CONFIGS))
@pytest.mark.parametrize("strand", range(len(STRANDS)))
def test_fold_trace_bytes(config, strand, tmp_path):
    out = tmp_path / "trace.jsonl"
    argv = ["fold", "--seq", STRANDS[strand], *FOLD_CONFIGS[config], "--trace-out", str(out)]
    assert _digest_of(argv, out) == FOLD_DIGESTS[config][strand]


@pytest.mark.parametrize(
    "config, n, flags, digest", LARGE_FOLDS, ids=[f"{c}-{n}" for c, n, _, _ in LARGE_FOLDS]
)
def test_large_fold_trace_bytes(config, n, flags, digest, tmp_path):
    out = tmp_path / "trace.jsonl"
    argv = ["fold", "--seq", SEEDED[n], *flags, "--trace-out", str(out)]
    assert _digest_of(argv, out) == digest


def test_enumerate_export_bytes(tmp_path):
    out = tmp_path / "space.json"
    argv = ["enumerate", "--seq", "GCGCGCGCGCGCGC", "--energy", "loop-table",
            "--export", "json", "--out", str(out)]
    assert _digest_of(argv, out) == ENUMERATE_DIGEST
