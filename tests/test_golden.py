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
The further folding-space exports (DOT, each exploration limit alone and
two together, a strand too short to fold, and the n = 18 Nussinov export
that is the benchmark's largest) were recorded before the build keyed each
successor before building it and before JSON was written without ``json``'s
encoder. The exports of random non-GC strands (n = 14 to 16, both energy
models, minimum hairpin 1 and 3, two of them with multi-branch states) were
recorded before the build scanned each distinct loop once and merged the
loops' moves; the merged order decides how new states are numbered. The
loop-table fold of the first 150 bases and the backtracking fold of the
first 80 were recorded before forward moves came from one rule-ordered
generator that lists the hairpins before it classifies any other move; the
backtracking fold's adaptation phases take forward children past the
hairpins and inverse children too. The Nussinov fold of the first 150 bases
and the Nussinov backtracking fold of the first 80 were recorded before φ0
chose its move in one pass as the least (score, key) unvisited move; under
Nussinov every double ties, and the backtracking fold meets visited targets.
The folds under a machine whose greedy state's adaptation search checks each
child it takes against a one-step lookahead ψ, and whose second state
restarts from the best structure, were recorded before strategies read
forward moves as (rule label, structure) steps; each does five restarts.
"""

import contextlib
import hashlib
import io
import json
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

# a greedy state whose adaptation search admits only structures with a
# one-step lookahead escape, resuming in itself or in a restart-from-best state
STRATEGY_MACHINE = {
    "initial": "w0",
    "states": [
        {"id": "w0", "constraint": "phi0"},
        {"id": "w1", "constraint": "restart-from-best"},
    ],
    "transitions": [
        {"from": "w0", "to": "w0", "psi": {"strategy": "lookahead", "params": {"depth": 1}}},
        {"from": "w0", "to": "w1", "psi": "true"},
        {"from": "w1", "to": "w0", "psi": "true"},
    ],
}

# the trace digest of each strand under STRATEGY_MACHINE, in STRANDS order
STRATEGY_MACHINE_DIGESTS = (
    "16b40b93bc2302ed6b511ed17c9c2b9d1b992fa5dcd8b27c00bddcb1f9838297",
    "d00abef8e42834edb225fee135da6eb628e386f39a606e13346f7501e57b5143",
    "18f90b8d307908bb0eb25c36069de7424d8b9f71d6b5057f9cc086347e4ff3a2",
)

# the first 40, 60, 80, 100 and 150 of ``"".join(rng.choice("ACGU") ...)``
# with rng = random.Random(1)
SEEDED = {
    40: "CAGAUUUUCAUAUUAUGCAGAAAAUCUACUUCGCCUGAUA",
    60: "CAGAUUUUCAUAUUAUGCAGAAAAUCUACUUCGCCUGAUACGAGUCGGUUAUCUUCGGAU",
    80: "CAGAUUUUCAUAUUAUGCAGAAAAUCUACUUCGCCUGAUACGAGUCGGUUAUCUUCGGAUACUGUAUAGUCCCACCUGGU",
    100: (
        "CAGAUUUUCAUAUUAUGCAGAAAAUCUACUUCGCCUGAUACGAGUCGGUUAUCUUCGGAUACUGUAUAGUCCCACCUGGU"
        "GAUCCUAUGCUUGUGAGUAC"
    ),
    150: (
        "CAGAUUUUCAUAUUAUGCAGAAAAUCUACUUCGCCUGAUACGAGUCGGUUAUCUUCGGAUACUGUAUAGUCCCACCUGGU"
        "GAUCCUAUGCUUGUGAGUACCCAGAAAAUAGCGACGGACCGCGGUGUUAAGUGUCGAGCUACAUCACUUC"
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
    ("loop-table", 150, ["--energy", "loop-table"],
     "9033ce69985c4e629788a953dc695ce0ee3ddd97cf5f968ffe2e6b91b3cc4a1e"),
    ("nussinov", 40, ["--energy", "nussinov"],
     "6aad0a9c32ab1a26cecdef131103bc261bbed04e56c25747328aa147231ba0c3"),
    ("nussinov", 60, ["--energy", "nussinov"],
     "2a249c727593f33aaa797abfd01a4cd4e6eea5d4462c5f978daf3773f85dbd89"),
    ("nussinov", 150, ["--energy", "nussinov"],
     "c67d3d9a828ac1c1512fa7bc08fe9f3fd52170ef41ba587b1e86733557d6f424"),
    ("nussinov-inverse", 80,
     ["--energy", "nussinov", "--allow-inverse", "--max-steps", "80"],
     "ccdc5d8672282f9cd98a678f24dfac2fe203f634c8ffbc7cbb6ad2083727d98b"),
    ("loop-table-inverse", 40,
     ["--energy", "loop-table", "--allow-inverse", "--max-steps", "60"],
     "ca1f3a6969190e1ae263173148f37e0cda242bd89162f0c58bf6d4929a60593f"),
    ("loop-table-inverse", 80,
     ["--energy", "loop-table", "--allow-inverse", "--max-steps", "80"],
     "ba2293a52574312cc3f82b4e83f14459513e131564fccca8948b43dfc8a6c666"),
)

ENUMERATE_DIGEST = "ecb98f545e1402619c90a46c5508dbd4a7c234e102755c85f1d9afaeca02b37c"

GC14 = ["--seq", "GCGCGCGCGCGCGC", "--energy", "loop-table"]

# name: (enumerate flags, exit code, export digest); exit 3 is a truncated space
EXPORTS = {
    "dot": ([*GC14, "--export", "dot"], 0,
            "4bb691a89ce681c009a61b496d3bca2c3917bf6d3740e473b3fbbc253c619e55"),
    "max-states": ([*GC14, "--max-states", "40"], 3,
                   "80621b76750d53bd391a40d24bcc393132024b8c9d1193c43b89c745e0d7f738"),
    "max-states-dot": (
        ["--seq", "GCGCGCGCGCGCGC", "--max-states", "40", "--export", "dot"], 3,
        "02ecc55813fcc804b2871a91432dfd8c3f1e835788d2a8834688eddabf1fbfca"),
    "max-depth": ([*GC14, "--max-depth", "2"], 3,
                  "7d2bb62c194ed2e7ab1d6e9c8c004813257cc654045326dc4d3faa1201b56aed"),
    "energy-ceiling": ([*GC14, "--energy-ceiling", "3.0"], 3,
                       "c5b499cef59526720954f1e38a5a20da4f26f573dd35bfc64bf0e07ccd0ff2ca"),
    "max-states-and-ceiling": (
        [*GC14, "--max-states", "30", "--energy-ceiling", "3.0"], 3,
        "3bd23801e311d8dbe03fa6f9cc26338bd62bdc11c19d35b7c50706c4b4e54742"),
    "max-depth-and-ceiling": (
        [*GC14, "--max-depth", "1", "--energy-ceiling", "3.0"], 3,
        "bc00f7039fc96c29cf0ff8c0453d5a671ed0da5998e3bcbbdef081071b59f8ae"),
    "too-short": (["--seq", "GCGC", "--energy", "loop-table"], 0,
                  "bae7f255b657b7f56b08fca824ec1d89acc8e654d9dfb30b59e26484e610a58f"),
    "nussinov-18": (["--seq", "GCGCGCGCGCGCGCGCGC", "--energy", "nussinov"], 0,
                    "209a24098ec7faa289e2803a8047526a7ab4cdecf2069d1b8edfe9085ca5b523"),
}

# (enumerate flags, JSON export digest) for random ACGU strands
RANDOM_EXPORTS = (
    (["--seq", "UUCGCCUGAUACGAGU", "--energy", "loop-table", "--min-hairpin", "1"],
     "257ef133ac535555b4ae263a0f758e491426778560679675fdc9e6ef6b38ba47"),
    (["--seq", "CCGCUUGGGUCUUCUG", "--energy", "nussinov", "--min-hairpin", "3"],
     "29618c570561c25498ae4dfe92699f7b258af72ce4a91a2918b0704b581a0a6e"),
    (["--seq", "CGAUUCAAAUGACG", "--energy", "nussinov", "--min-hairpin", "1"],
     "9f1f98e96b9cc2e6766ff65ccce4efa74d656ef89f552d8e9f05d1d864a358af"),
    (["--seq", "ACGAUGAGUGUACGA", "--energy", "loop-table", "--min-hairpin", "3"],
     "ddb0a3ea5bd0b4189f73a59ac164071b509b1287aa3a68aa9704d120a14e5899"),
)


def _digest_of(argv: list[str], path: Path, code: int = 0) -> str:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == code
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("config", sorted(FOLD_CONFIGS))
@pytest.mark.parametrize("strand", range(len(STRANDS)))
def test_fold_trace_bytes(config, strand, tmp_path):
    out = tmp_path / "trace.jsonl"
    argv = ["fold", "--seq", STRANDS[strand], *FOLD_CONFIGS[config], "--trace-out", str(out)]
    assert _digest_of(argv, out) == FOLD_DIGESTS[config][strand]


@pytest.mark.parametrize("strand", range(len(STRANDS)))
def test_strategy_machine_fold_trace_bytes(strand, tmp_path):
    machine = tmp_path / "machine.json"
    machine.write_text(json.dumps(STRATEGY_MACHINE))
    out = tmp_path / "trace.jsonl"
    argv = [
        "fold", "--seq", STRANDS[strand], "--energy", "loop-table", "--allow-inverse",
        "--max-steps", "30", "--s-machine", str(machine), "--trace-out", str(out),
    ]
    assert _digest_of(argv, out) == STRATEGY_MACHINE_DIGESTS[strand]
    notes = [json.loads(line).get("note") for line in out.read_text().splitlines()]
    assert notes.count("restart-from-best") == 5


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


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_enumerate_export_bytes_more(name, tmp_path):
    flags, code, digest = EXPORTS[name]
    out = tmp_path / "space"
    assert _digest_of(["enumerate", *flags, "--out", str(out)], out, code) == digest


@pytest.mark.parametrize(
    "flags, digest", RANDOM_EXPORTS, ids=[flags[1] for flags, _ in RANDOM_EXPORTS]
)
def test_random_strand_export_bytes(flags, digest, tmp_path):
    out = tmp_path / "space.json"
    argv = ["enumerate", *flags, "--export", "json", "--out", str(out)]
    assert _digest_of(argv, out) == digest
