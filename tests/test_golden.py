"""Byte identity of CLI outputs across versions.

The digests below were recorded from the program before the loop-indexed
match enumerator and the run-scoped successor and energy memos went in.
Any change to the bytes of a fold trace or a folding-space export, on these
fixed inputs, fails here.
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


def test_enumerate_export_bytes(tmp_path):
    out = tmp_path / "space.json"
    argv = ["enumerate", "--seq", "GCGCGCGCGCGCGC", "--energy", "loop-table",
            "--export", "json", "--out", str(out)]
    assert _digest_of(argv, out) == ENUMERATE_DIGEST
