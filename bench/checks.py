"""Output checks shared by the CLI run and the traced in-process run.

Each check raises ``CheckFailed`` with a one-line reason. Scores must
match the oracle to 1e-9 relative; counts must match exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import gen

REL_TOL = 1e-9
# Table cells are printed at 3 decimals.
TABLE_TOL = 5e-4 + 1e-12


class CheckFailed(Exception):
    """An output disagrees with the oracle."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(value, expected: float | None, tol: float = REL_TOL) -> bool:
    if expected is None:
        return value is None
    return value is not None and abs(value - expected) <= tol * abs(expected)


def check_curve_json(text: str, oracle: list[dict]) -> None:
    """Full-precision curve rows (``curve --format json``) against the oracle."""
    rows = json.loads(text)
    require(len(rows) == len(oracle), f"curve has {len(rows)} levels, expected {len(oracle)}")
    for row, want in zip(rows, oracle):
        t = want["t"]
        require(row["t"] == t, f"curve level {row['t']} != {t}")
        got_codes = [row["errors_accuracy"], row["errors_crash"], row["errors_compile"]]
        require(
            (row["total"], row["correct"], got_codes)
            == (want["total"], want["correct"], want["errors_by_code"]),
            f"curve counts at t={t} differ from the oracle",
        )
        require(_close(row["S"], want["S"]), f"S({t}) = {row['S']}, oracle {want['S']}")
        require(_close(row["ES"], want["ES"]), f"ES({t}) = {row['ES']}, oracle {want['ES']}")


def check_score(text: str, oracle: list[dict]) -> None:
    """``score --t 0`` JSON against the oracle's level-0 row."""
    got = json.loads(text)
    want = next(row for row in oracle if row["t"] == 0.0)
    require(got["t"] == 0.0, f"score reports t={got['t']}")
    require(
        (got["total"], got["correct"], got["errors"])
        == (want["total"], want["correct"], sum(want["errors_by_code"])),
        "score counts differ from the oracle",
    )
    require(_close(got["S"], want["S"]), f"S(0) = {got['S']}, oracle {want['S']}")
    require(_close(got["ES"], want["ES"]), f"ES(0) = {got['ES']}, oracle {want['ES']}")


def check_table_csv(text: str, oracle: list[dict]) -> None:
    """``report`` CSV: every printed S(t) and ES(t) is the oracle at 3 decimals."""
    rows = list(csv.DictReader(io.StringIO(text)))
    require(len(rows) == len(oracle), f"table has {len(rows)} rows, expected {len(oracle)}")
    for row, want in zip(rows, oracle):
        require(float(row["t"]) == want["t"], f"table level {row['t']} != {want['t']}")
        if want["S"] is None:
            require(row["S(t)"] == "-", f"table S({row['t']}) should be '-'")
        else:
            require(abs(float(row["S(t)"]) - want["S"]) <= TABLE_TOL, f"table S({row['t']}) off")
        require(abs(float(row["ES(t)"]) - want["ES"]) <= TABLE_TOL, f"table ES({row['t']}) off")


def check_violin(text: str, counts: dict[tuple[str, str], int]) -> None:
    got = {
        (group["framework"], group["task_category"]): len(group["log2_speedups"])
        for group in json.loads(text)
    }
    require(got == counts, "violin group sizes differ from the oracle")


def check_stats(text: str, counts: dict[str, int]) -> None:
    got = json.loads(text)
    require(got["total"] == sum(counts.values()), "stats total differs from the generator")
    require(got["category_counts"] == counts, "stats category counts differ from the generator")


def check_kept(path: Path, samples: list[gen.Truth], duplicates: list[str]) -> None:
    """A dedup output holds exactly the samples that are not planted duplicates."""
    dropped = set(duplicates)
    want = [s.sample_id for s in samples if s.sample_id not in dropped]
    with path.open(encoding="utf-8") as fh:
        got = [json.loads(line)["sample_id"] for line in fh]
    require(got == want, f"dedup kept {len(got)} samples, expected {len(want)}")


def check_simulated(manifests: Path, records: Path, n: int) -> None:
    """A simulator output pair: line counts, graph hashes and outcome shares.

    Each outcome share must lie within five binomial standard deviations
    of the default spec's rate; a fair draw misses that about once in a
    million checks.
    """
    with manifests.open(encoding="utf-8") as fh:
        lines = fh.readlines()
    require(len(lines) == n, f"simulate wrote {len(lines)} manifests, expected {n}")
    for line in lines:
        m = json.loads(line)
        inputs = m["source_digest_inputs"]
        digest = gen.graph_digest(gen.normalize_source(inputs["normalized_source"]), inputs["topology"])
        require(digest == m["graph_hash"], f"graph_hash of {m['sample_id']} does not recompute")
    header, samples = gen.read_truth(manifests, records)
    require(len(samples) == n, f"simulate wrote {len(samples)} records, expected {n}")
    require(
        (header["grid"], header["p"], header["b"]) == (list(map(float, gen.GRID)), gen.P, gen.B),
        "simulate header does not carry the default settings",
    )
    observed = {
        "compile_failure": sum(s.outcome == gen.COMPILE for s in samples),
        "runtime_crash": sum(s.outcome == gen.CRASH for s in samples),
        "accuracy": sum(s.outcome == gen.COMPLETED and s.level == math.inf for s in samples),
    }
    rates = {
        "compile_failure": gen.COMPILE_RATE,
        "runtime_crash": gen.CRASH_RATE,
        "accuracy": gen.ACCURACY_RATE,
    }
    for kind, rate in rates.items():
        spread = 5.0 * math.sqrt(n * rate * (1.0 - rate)) + 1.0
        require(
            abs(observed[kind] - n * rate) <= spread,
            f"simulate {kind} count {observed[kind]} outside {n * rate:.0f} +- {spread:.0f}",
        )
