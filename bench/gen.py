"""Seeded dataset generator and scoring oracle for the benchmark.

The generator writes manifests/records JSONL in the format the README
documents, using only the standard library (``random``, ``hashlib``,
``json``). It never calls ``tcscore``, so the inputs of the scoring and
ingest workloads stay fixed when the simulator's output bytes change.

The oracle recomputes every checked output from ground truth: S(t) and
ES(t) as the geometric mean of per-sample rectified speedups (the
paper's macro = GMRS identity), per-level counts, violin group sizes and
category counts.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

GRID = tuple(range(-10, 1)) + (1, 2, 3, 4)
P = 0.1
B = 0.1
FRAMEWORKS = ("torch", "paddle")
CATEGORY_MIX = {
    "CV": 0.478,
    "NLP": 0.395,
    "Audio": 0.04,
    "Multimodal": 0.04,
    "Scientific": 0.027,
    "Other": 0.02,
}
# Fault mix shared with the simulator's default spec.
COMPILE_RATE = 0.07
CRASH_RATE = 0.03
ACCURACY_RATE = 0.05
KINDS = ("float16", "bfloat16", "float32", "float64")
OPS = ("matmul", "conv2d", "add", "mul", "relu", "gelu", "softmax", "layer_norm")

COMPLETED, CRASH, COMPILE = 0, 2, 3
_CODES = {"completed": COMPLETED, "runtime_crash": CRASH, "compile_failure": COMPILE}


@dataclass(frozen=True)
class Truth:
    """What a sample is, as its producer knows it.

    ``level`` is the smallest grid level at which every comparison of a
    completed sample passes, or +inf when one never passes.
    """

    sample_id: str
    framework: str
    category: str
    outcome: int
    speedup: float | None = None
    level: float = math.inf


@dataclass(frozen=True)
class Dataset:
    manifests: Path
    records: Path
    samples: list[Truth]
    duplicates: list[str]  # planted duplicate-graph sample ids, in file order


def graph_digest(normalized_source: str, topology: list) -> str:
    """Canonical graph hash: sha256 of source, 0x1f, compact topology JSON."""
    payload = (
        normalized_source.encode("utf-8")
        + b"\x1f"
        + json.dumps(topology, separators=(",", ":")).encode("utf-8")
    )
    return hashlib.sha256(payload).hexdigest()


def normalize_source(text: str) -> str:
    """Drop '#' comments and collapse whitespace, as the file format defines."""
    return re.sub(r"\s+", " ", re.sub(r"#[^\n]*", "", text)).strip()


def _graph(rng: random.Random, sample_id: str) -> dict:
    # The sample id is part of the source, so fresh graphs never collide.
    topology = []
    lines = [f"def graph_{sample_id}(x0):"]
    for k in range(rng.randint(3, 8)):
        op = rng.choice(OPS)
        inputs = [k - 1, k - 2] if op in ("matmul", "add", "mul") and k >= 2 else [max(k - 1, 0)]
        topology.append([op, inputs])
        lines.append(f"x{k + 1} = {op}({', '.join(f'x{j}' for j in inputs)})")
    lines.append(f"return x{len(topology)}")
    return {"normalized_source": " ".join(lines), "topology": topology}


def generate(directory: Path, n: int, seed: int, duplicate_share: float) -> Dataset:
    """Write a seeded manifests/records pair and return its ground truth.

    ``duplicate_share`` is the probability that a sample reuses the graph
    of an earlier, original sample; those samples are the planted
    duplicates ``dedup`` must drop.
    """
    rng = random.Random(seed)
    categories = list(CATEGORY_MIX)
    weights = list(CATEGORY_MIX.values())
    samples: list[Truth] = []
    duplicates: list[str] = []
    originals: list[dict] = []
    directory.mkdir(parents=True, exist_ok=True)
    manifests_path = directory / "manifests.jsonl"
    records_path = directory / "records.jsonl"
    header = {"grid": list(GRID), "p": P, "b": B, "producer": f"bench generator seed={seed}"}
    with manifests_path.open("w", encoding="utf-8") as mf, records_path.open(
        "w", encoding="utf-8"
    ) as rf:
        rf.write(json.dumps(header) + "\n")
        for i in range(n):
            sample_id = f"s{i:06d}"
            framework = rng.choice(FRAMEWORKS)
            category = rng.choices(categories, weights)[0]
            opcount = max(1, round(2.0 ** rng.gauss(9.0, 1.2)))
            kinds = [rng.choice(KINDS) for _ in range(rng.randint(1, 3))]
            if originals and rng.random() < duplicate_share:
                digest_inputs = rng.choice(originals)
                duplicates.append(sample_id)
            else:
                digest_inputs = _graph(rng, sample_id)
                originals.append(digest_inputs)
            manifest = {
                "sample_id": sample_id,
                "framework": framework,
                "task_category": category,
                "operator_count": opcount,
                "parameter_count": opcount * rng.randint(100, 4999),
                "dtypes": sorted(set(kinds)),
                "graph_hash": graph_digest(**digest_inputs),
                "source_digest_inputs": digest_inputs,
            }
            mf.write(json.dumps(manifest) + "\n")

            eager = rng.lognormvariate(math.log(0.01), 0.5)
            record = {
                "sample_id": sample_id,
                "eager_time_s": eager,
                "warmup_iters": rng.randint(1, 10),
                "timed_iters": rng.randint(10, 100),
            }
            fate = rng.random()
            if fate < COMPILE_RATE:
                record["outcome"] = {"kind": "compile_failure", "message": "planted"}
                truth = Truth(sample_id, framework, category, COMPILE)
            elif fate < COMPILE_RATE + CRASH_RATE:
                record["outcome"] = {"kind": "runtime_crash", "message": "planted"}
                truth = Truth(sample_id, framework, category, CRASH)
            else:
                compiled = eager / 2.0 ** rng.gauss(0.35, 0.5)
                levels: list[int | None] = [rng.randint(-10, 0) for _ in kinds]
                if fate < COMPILE_RATE + CRASH_RATE + ACCURACY_RATE:
                    levels[rng.randrange(len(levels))] = None
                record["compiled_time_s"] = compiled
                record["outcome"] = {
                    "kind": "completed",
                    "comparisons": [
                        {"tensor_index": k, "kind": kind, "min_passing_t": level}
                        for k, (kind, level) in enumerate(zip(kinds, levels))
                    ],
                }
                truth = Truth(
                    sample_id, framework, category, COMPLETED, eager / compiled, _passing_level(levels)
                )
            rf.write(json.dumps(record) + "\n")
            samples.append(truth)
    return Dataset(manifests_path, records_path, samples, duplicates)


def _passing_level(levels: list) -> float:
    return math.inf if any(level is None for level in levels) else float(max(levels))


def read_truth(manifests: Path, records: Path) -> tuple[dict, list[Truth]]:
    """Ground truth parsed back from a dataset another producer wrote."""
    meta = {}
    with manifests.open(encoding="utf-8") as fh:
        for line in fh:
            m = json.loads(line)
            meta[m["sample_id"]] = (m["framework"], m["task_category"])
    samples = []
    with records.open(encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        for line in fh:
            r = json.loads(line)
            outcome = r["outcome"]
            code = _CODES[outcome["kind"]]
            framework, category = meta[r["sample_id"]]
            if code == COMPLETED:
                levels = [c["min_passing_t"] for c in outcome["comparisons"]]
                speedup = r["eager_time_s"] / r["compiled_time_s"]
                samples.append(
                    Truth(r["sample_id"], framework, category, code, speedup, _passing_level(levels))
                )
            else:
                samples.append(Truth(r["sample_id"], framework, category, code))
    return header, samples


def _error_code(s: Truth, t: float) -> int:
    """0 when correct at level t, else the paper's error code 1, 2 or 3."""
    if s.outcome != COMPLETED:
        return s.outcome
    return 0 if s.level <= min(t, 0.0) else 1


def curve_oracle(samples: list[Truth], grid=GRID, p: float = P, b: float = B) -> list[dict]:
    """Per-level counts and scores from per-sample rectified speedups.

    At t <= 0 both scores equal the geometric mean of rectified speedups;
    at t > 0, ES(t) counts failures the level forgives as 1.
    """
    rows = []
    for t in grid:
        logs = []
        by_code = [0, 0, 0]
        for s in samples:
            code = _error_code(s, t)
            if code == 0:
                r = s.speedup if s.speedup >= 1.0 else s.speedup ** (1.0 + p)
            else:
                by_code[code - 1] += 1
                r = 1.0 if t >= code else b
            logs.append(math.log(r))
        score = math.exp(math.fsum(logs) / len(samples))
        rows.append(
            {
                "t": float(t),
                "total": len(samples),
                "correct": len(samples) - sum(by_code),
                "errors_by_code": by_code,
                "S": score if t <= 0 else None,
                "ES": score,
            }
        )
    return rows


def violin_counts(samples: list[Truth]) -> dict[tuple[str, str], int]:
    """Correct-at-level-0 sample count of every (framework, category) group."""
    counts: dict[tuple[str, str], int] = {}
    for s in samples:
        key = (s.framework, s.category)
        counts[key] = counts.get(key, 0) + (_error_code(s, 0.0) == 0)
    return counts


def category_counts(samples: list[Truth]) -> dict[str, int]:
    counts = {category: 0 for category in CATEGORY_MIX}
    for s in samples:
        counts[s.category] += 1
    return counts
