"""Output checks for benchmark operations, run after the timed section.

A fold trace must hold only valid structures whose energies a fresh model
reproduces, and its summary's best energy must be the minimum recorded. An
enumerate export must pass the documented schema check, and its minimum must
equal the maximum-pairing dynamic program below, which shares no code with
grafold. Every output's sha256 is compared with the stored digests of the
same input, so a lost byte-identity counts as a failure.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

DIGESTS = Path(__file__).with_name("digests.json")
ADMISSIBLE = {frozenset("GC"), frozenset("AU"), frozenset("GU")}


def nussinov_max_pairs(bases: str, min_hairpin: int = 3) -> int:
    """Maximum number of non-crossing admissible pairs, each enclosing at
    least ``min_hairpin`` positions."""
    n = len(bases)
    best = [[0] * (n + 1) for _ in range(n + 1)]  # best[i][j]: bases[i:j]
    for span in range(min_hairpin + 2, n + 1):
        for i in range(n - span + 1):
            j = i + span
            value = best[i + 1][j]
            for k in range(i + min_hairpin + 1, j):
                if frozenset((bases[i], bases[k])) in ADMISSIBLE:
                    value = max(value, 1 + best[i + 1][k] + best[k + 1][j])
            best[i][j] = value
    return best[0][n]


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_digests() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def check_fold(gf, bases: str, path: Path, energy_mode: str) -> list[str]:
    """Problems found in one fold trace (empty when it is correct)."""
    lines = path.read_text().splitlines()
    records = [json.loads(line) for line in lines[:-1]]
    summary = json.loads(lines[-1]).get("summary") if lines else None
    if not records or summary is None:
        return ["trace has no records or no summary line"]
    seq = gf.parse_sequence(bases)
    model = gf.LoopTableModel(gf.example_parameters()) if energy_mode == "loop-table" \
        else gf.NussinovModel()
    problems = []
    for rec in records:
        s = gf.parse_dot_bracket(seq, rec["db"], strict=False)
        report = gf.validate_structure(s)
        if not report.ok:
            problems.append(f"step {rec['step']}: invalid structure: {report.describe()}")
        rescored = gf.observable(s, model)
        if rescored != (math.inf if rec["energy"] is None else rec["energy"]):
            problems.append(f"step {rec['step']}: energy {rec['energy']} rescored as {rescored}")
    finite = [r["energy"] for r in records if r["energy"] is not None]
    best = min(finite) if finite else None
    if summary["best_energy"] != best:
        problems.append(f"summary best {summary['best_energy']} != recorded minimum {best}")
    if summary["steps"] != len(records) - 1:
        problems.append(f"summary steps {summary['steps']} != {len(records) - 1} records")
    return problems


def check_enumerate(gf, bases: str, path: Path) -> list[str]:
    """Problems found in one JSON folding-space export."""
    try:
        doc = gf.validate_lts_json(json.loads(path.read_text()))
    except ValueError as exc:
        return [f"export fails the schema check: {exc}"]
    if doc["sequence"] != bases or doc["truncated_by"] is not None:
        return ["export is for another sequence or truncated"]
    energies = [st["energy"] for st in doc["states"] if st["energy"] is not None]
    expected = -float(nussinov_max_pairs(bases))
    found = min(energies) if energies else None
    if found != expected:
        return [f"export minimum {found} != dynamic-programming optimum {expected}"]
    return []
