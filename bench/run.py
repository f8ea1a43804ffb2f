#!/usr/bin/env python3
"""End-to-end benchmark of the tcscore command line.

    python3 bench/run.py --workload score-default --seed 1 --seconds 40 --trace 0

Run from the repository root. The benchmark writes its seeded inputs,
then repeats the workload's command sequence, each command a fresh
``python -m tcscore`` child run one at a time, for ``--seconds``. Every
call's output is checked against an oracle and against the first pass's
bytes. With ``--trace 1`` it instead runs the in-process traced pass of
``layers.py`` and reports per-layer metrics.

Human-readable lines come first; the last line of standard output is the
JSON result. Scratch files go under ``.bench_work/`` in the repository.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

N_SAMPLES = 5000
MIN_PASSES = 5
# Traced runs: each pair is one untraced and one traced in-process pass.
MIN_PAIRS = 3
# Stop starting passes after this long, whatever --seconds says, so a
# run ends well inside its time limit on a slow machine.
MAX_MEASURE_S = 100.0
CALL_TIMEOUT_S = 60.0

WORKLOADS: dict[str, tuple[str, ...]] = {
    # Scoring: every call classifies all samples at every grid level.
    "score-default": ("report", "curve", "violin", "score"),
    # Ingest: reads, hashes and writes; never scores.
    "ingest-audit": ("validate", "stats", "dedup"),
    # Simulator RNG, tolerance scan and file writing; never reads.
    "simulate": ("simulate",),
}
# Share of samples that reuse an earlier sample's graph.
DUPLICATE_SHARE = {"score-default": 0.0, "ingest-audit": 0.1}

_DATA = ["--records", "records.jsonl", "--manifests", "manifests.jsonl"]
COMMANDS: dict[str, tuple[list[str], tuple[str, ...]]] = {
    # command -> (arguments after ``python -m tcscore``, files it writes)
    "report": (["report", *_DATA, "--out", "table.csv"], ("table.csv",)),
    "curve": (["curve", *_DATA, "--format", "json", "--out", "curve.json"], ("curve.json",)),
    "violin": (["violin", *_DATA, "--out", "violin.json"], ("violin.json",)),
    "score": (["score", "--records", "records.jsonl", "--t", "0"], ()),
    "validate": (["validate", *_DATA], ()),
    "stats": (["stats", "--manifests", "manifests.jsonl", "--out", "stats.json"], ("stats.json",)),
    "dedup": (["dedup", "--manifests", "manifests.jsonl", "--out", "kept.jsonl"], ("kept.jsonl",)),
    "simulate": (
        ["simulate", "--manifests", "sim_manifests.jsonl", "--records", "sim_records.jsonl"],
        ("sim_manifests.jsonl", "sim_records.jsonl"),
    ),
}

# A fixed job that never touches tcscore, run in a fresh interpreter just
# before every pass. On a shared virtual machine the speed of a core drifts
# by 20-30% over minutes, and every child process of a pass runs at about
# the same speed as this job. Each pass's times are divided by the job's
# time and multiplied by REFERENCE_S, so the drift cancels and the numbers
# read as seconds on a machine where the job takes REFERENCE_S.
REFERENCE_JOB = """
import hashlib, json, math, random
rng = random.Random(0)
total = 0.0
for i in range(20000):
    line = json.dumps({"id": f"s{i:06d}", "x": rng.random(), "tags": ["float32", "bfloat16"], "n": i})
    total += math.log(json.loads(line)["x"] + 1.0)
    hashlib.sha256(line.encode()).hexdigest()
"""
REFERENCE_S = 0.25


@dataclass
class Call:
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    returncode: int
    stdout: str
    stderr: str


def child_env() -> dict[str, str]:
    """The caller's environment with only this checkout's sources importable."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_call(argv: list[str], cwd: Path) -> Call:
    """Run one child to completion and read its own resource usage.

    ``os.wait4`` returns the usage of exactly this child; the
    ``RUSAGE_CHILDREN`` total would carry the peak of earlier children.
    """
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with out_path.open("wb") as out, err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Call(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, so that the reference
    job and the calls it scales share that core's speed."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def check_program() -> None:
    """Fail unless ``import tcscore`` resolves to this checkout's sources."""
    probe = subprocess.run(
        [sys.executable, "-c", "import tcscore; print(tcscore.__file__)"],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CALL_TIMEOUT_S,
    )
    location = Path(probe.stdout.strip() or ".").resolve()
    if probe.returncode != 0 or SRC.resolve() not in location.parents:
        raise SystemExit(f"tcscore is not importable from {SRC}: {probe.stderr.strip()}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


@dataclass
class Tally:
    """The checked operations of a run: how many were tried, and what went wrong."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def ok(self, label: str, operation) -> bool:
        """Run one operation; an exception fails that operation, not the run."""
        self.attempted += 1
        try:
            operation()
        except Exception as exc:
            self.failures.append(f"{label}{type(exc).__name__}: {exc}")
            return False
        return True


def laps(seconds: float, minimum: int):
    """Yield once per lap: ``minimum`` laps, then more while a typical lap
    (checks included) still ends within ``seconds``, and never past
    ``MAX_MEASURE_S``."""
    durations: list[float] = []
    start = time.perf_counter()
    while len(durations) < minimum or time.perf_counter() - start + statistics.median(durations) <= seconds:
        if time.perf_counter() - start > MAX_MEASURE_S:
            return
        lap = time.perf_counter()
        yield
        durations.append(time.perf_counter() - lap)


@dataclass
class Context:
    """Everything a command's check needs: the inputs and their oracle."""

    work: Path
    n: int
    dataset: gen.Dataset | None = None
    oracle: list[dict] = field(default_factory=list)


def check_call(command: str, call: Call, ctx: Context) -> None:
    checks.require(call.returncode == 0, f"{command} exited {call.returncode}: {call.stderr[-300:]}")
    checks.require("Traceback" not in call.stderr, f"{command} printed a traceback")
    files = COMMANDS[command][1]
    output = (ctx.work / files[0]).read_text(encoding="utf-8") if files else call.stdout
    ds = ctx.dataset
    if command == "report":
        checks.check_table_csv(output, ctx.oracle)
    elif command == "curve":
        checks.check_curve_json(output, ctx.oracle)
    elif command == "violin":
        checks.check_violin(output, gen.violin_counts(ds.samples))
    elif command == "score":
        checks.check_score(output, ctx.oracle)
    elif command == "validate":
        checks.require(output == f"ok: {ctx.n} manifests, {ctx.n} records\n", f"validate said {output!r}")
    elif command == "stats":
        checks.check_stats(output, gen.category_counts(ds.samples))
    elif command == "dedup":
        dropped = len(ds.duplicates)
        want = f"kept {ctx.n - dropped} dropped {dropped}\n"
        checks.require(call.stdout == want, f"dedup said {call.stdout!r}, expected {want!r}")
        checks.check_kept(ctx.work / "kept.jsonl", ds.samples, ds.duplicates)
    elif command == "simulate":
        checks.check_simulated(ctx.work / "sim_manifests.jsonl", ctx.work / "sim_records.jsonl", ctx.n)


def output_digest(command: str, call: Call, work: Path) -> str:
    """Digest of everything a call produced: its stdout and its output files."""
    digest = hashlib.sha256(call.stdout.encode("utf-8"))
    for name in COMMANDS[command][1]:
        digest.update((work / name).read_bytes())
    return digest.hexdigest()


def run_cli(workload: str, seed: int, dataset: gen.Dataset | None, work: Path, tally: Tally, passes_left) -> dict:
    """One timed pass of the workload's command sequence per step of
    ``passes_left`` (see ``laps``); returns the metrics."""
    ctx = Context(work, N_SAMPLES, dataset, gen.curve_oracle(dataset.samples) if dataset else [])
    commands = WORKLOADS[workload]
    argv = {c: [sys.executable, "-m", "tcscore", *COMMANDS[c][0]] for c in commands}
    if workload == "simulate":
        argv["simulate"] += ["--seed", str(seed), "--n", str(N_SAMPLES)]

    references: list[float] = []
    setup: list[float] = []
    calls: dict[str, list[Call]] = {c: [] for c in commands}
    scaled: dict[str, list[float]] = {c: [] for c in commands}
    passes: list[float] = []
    first_digest: dict[str, str] = {}

    def check(command: str, call: Call) -> None:
        check_call(command, call, ctx)
        digest = output_digest(command, call, work)
        checks.require(
            first_digest.setdefault(command, digest) == digest,
            f"{command} output bytes changed between identical calls",
        )

    for _ in passes_left:
        references.append(run_call([sys.executable, "-c", REFERENCE_JOB], work).wall_s)
        scale = REFERENCE_S / references[-1]
        setup.append(run_call([sys.executable, "-c", "import tcscore"], work).wall_s * scale)
        pass_scaled = 0.0
        for command in commands:
            call = run_call(argv[command], work)
            wall = call.wall_s * scale
            pass_scaled += wall
            if tally.ok(f"{command}: ", lambda: check(command, call)):
                calls[command].append(call)
                scaled[command].append(wall)
        passes.append(pass_scaled)

    lines = [
        f"workload {workload}: n={N_SAMPLES} seed={seed} passes={len(passes)}"
        f" reference job median {statistics.median(references):.4f} s"
        f" (scaled times read as if it took {REFERENCE_S} s)"
    ]
    for command, done in calls.items():
        if not done:
            continue
        q1, med, q3 = quartiles([c.wall_s for c in done])
        lines.append(
            f"  {command}_s median {statistics.median(scaled[command]):.4f} s scaled,"
            f" wall {med:.4f} s (q1 {q1:.4f}, q3 {q3:.4f}), n={len(done)},"
            f" cpu {statistics.median(c.cpu_s for c in done):.4f} s,"
            f" rss {statistics.median(c.maxrss_mb for c in done):.1f} MB"
        )
    failed = len(tally.failures)
    lines.append(f"  failed_frac {failed / tally.attempted:.4f} ratio ({failed}/{tally.attempted} calls)")
    metrics = {"setup_s": statistics.median(setup)}
    if all(calls.values()):
        metrics["samples_per_s"] = N_SAMPLES / statistics.median(passes)
        metrics["call_s"] = math.exp(statistics.fmean(math.log(statistics.median(v)) for v in scaled.values()))
        metrics["peak_rss_mb"] = max(statistics.median(c.maxrss_mb for c in done) for done in calls.values())
    print("\n".join(lines))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="tcscore end-to-end benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_to_one_cpu()
    check_program()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    tally = Tally()
    problems: list[str] = []
    try:
        dataset = None
        if args.workload in DUPLICATE_SHARE:
            dataset = gen.generate(work, N_SAMPLES, args.seed, DUPLICATE_SHARE[args.workload])
        if args.trace:
            sys.path.insert(0, str(SRC))
            import layers

            if dataset is None:
                dataset = layers.simulated_dataset(args.seed, work, N_SAMPLES)
            pairs_left = laps(args.seconds, MIN_PAIRS)
            metrics, problems = layers.run(args.workload, dataset, args.seed, work, N_SAMPLES, tally, pairs_left)
        else:
            passes_left = laps(args.seconds, MIN_PASSES)
            metrics = run_cli(args.workload, args.seed, dataset, work, tally, passes_left)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems = tally.failures + problems
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    for problem in problems[:20]:
        print(f"  CHECK FAILED {problem}")
    correct = not problems and set(metrics) == set(units)
    for name, value in metrics.items():
        print(f"  {name} {value!r} {units.get(name)}")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
