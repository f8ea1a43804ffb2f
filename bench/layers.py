"""Traced in-process run: every tcscore layer called directly, with spans.

One pass loads the workload's dataset, scores it over the whole grid and
at level 0, builds violin data, audits, counts and deduplicates graphs,
renders every report and runs the simulator, writing what ``dedup`` and
``simulate`` write. Spans are recorded from here, around each public call,
plus around the names ``tcscore.simulator`` and ``tcscore.dataset`` look
up for ``min_passing_tolerance`` and ``graph_hash``; calls through
``tcscore.scoring.classify`` (the ones ``score_curve`` makes) are counted.

Traced and untraced passes alternate; the difference of their median wall
times is reported as the tracing overhead. The spans of the run are kept
in memory and written to ``.bench_work/trace-<workload>.jsonl`` at the end.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import tcscore.dataset
import tcscore.scoring
import tcscore.simulator
from tcscore.dataset import audit_hashes, dedup, stats
from tcscore.records import load_manifests, load_records, write_manifests, write_records
from tcscore.report import render_curve, render_stats, render_table, render_violin, violin_data
from tcscore.scoring import (
    ScoreConfig,
    classify,
    components,
    error_aware_score,
    join_samples,
    score_curve,
    speedup_score,
)
from tcscore.simulator import SimSpec, records_header, simulate

import checks
import gen

_RENDERERS = ("report.render_table", "report.render_curve", "report.render_violin", "report.render_stats")


class Tracer:
    """In-memory spans ``(name, parent index, start, end)`` and call counts."""

    def __init__(self) -> None:
        self.spans: list[list | tuple] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else None, time.perf_counter(), None])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][3] = time.perf_counter()

    def timed(self, fn, name: str):
        """Wrap a leaf function so that every call records a span."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((name, stack[-1] if stack else None, start, time.perf_counter()))

        return wrapper

    def counted(self, fn, name: str):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def patched(self):
        """Route the program's own lookups of the hot leaf calls through the tracer."""
        targets = [
            (tcscore.simulator, "min_passing_tolerance", self.timed, "tolerance.min_passing_tolerance"),
            (tcscore.simulator, "graph_hash", self.timed, "graphhash.graph_hash"),
            (tcscore.dataset, "graph_hash", self.timed, "graphhash.graph_hash"),
            (tcscore.scoring, "classify", self.counted, "scoring.classify"),
        ]
        saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in targets]
        try:
            for module, attr, wrap, name in targets:
                setattr(module, attr, wrap(getattr(module, attr), name))
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover.

        A span's children run one after another, so their durations add.
        """
        own = [end - start for _, _, start, end in self.spans]
        for _, parent, start, end in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        totals: dict[str, tuple[int, float, float]] = {}
        for (name, _, start, end), own in zip(self.spans, self.self_times()):
            calls, total, self_total = totals.get(name, (0, 0.0, 0.0))
            totals[name] = (calls + 1, total + end - start, self_total + own)
        return totals


def one_pass(span, dataset: gen.Dataset, out: Path, n: int, seed: int) -> tuple[dict[str, str], int]:
    """Call every layer once; returns the outputs to check and the manifests written."""
    with span("pass"):
        with span("records.load_manifests"):
            manifests = load_manifests(dataset.manifests)
        with span("records.load_records"):
            header, records = load_records(dataset.records)
        cfg = ScoreConfig.from_header(header)
        with span("scoring.join_samples"):
            join_samples(manifests, records)
        with span("scoring.score_curve"):
            curve = score_curve(manifests, records, cfg)
        with span("scoring.single_level"):
            comp = components([classify(record, 0.0, cfg) for record in records], 0.0, cfg)
            single = {
                "t": 0.0,
                "S": speedup_score(comp, cfg),
                "ES": error_aware_score(comp, cfg),
                "total": comp.total,
                "correct": comp.correct,
                "errors": comp.errors,
            }
        with span("report.violin_data"):
            groups = violin_data(manifests, records, cfg)
        with span("dataset.audit_hashes"):
            mismatched = audit_hashes(manifests)
        with span("dataset.stats"):
            report = stats(manifests)
        with span("dataset.dedup"):
            kept, _ = dedup(manifests)
        with span("records.write_manifests"):
            write_manifests(out / "kept.jsonl", kept)
        with span("report.render_table"):
            table = render_table(curve, "csv")
        with span("report.render_curve"):
            curve_json = render_curve(curve, "json")
        with span("report.render_violin"):
            violin_json = render_violin(groups, "json")
        with span("report.render_stats"):
            stats_json = render_stats(report, "json")
        spec = SimSpec(seed=seed, n_samples=n)
        with span("simulator.simulate"):
            sim_manifests, sim_records = simulate(spec, ScoreConfig())
        with span("records.write_manifests"):
            write_manifests(out / "sim_manifests.jsonl", sim_manifests)
        with span("records.write_records"):
            write_records(out / "sim_records.jsonl", records_header(spec, ScoreConfig()), sim_records)
    return {
        "table": table,
        "curve": curve_json,
        "violin": violin_json,
        "stats": stats_json,
        "single": json.dumps(single),
        "mismatched": json.dumps(mismatched),
    }, len(kept) + len(sim_manifests)


def check_pass(outputs: dict[str, str], dataset: gen.Dataset, oracle: list[dict], out: Path, n: int) -> str:
    """Check one pass against the oracle; returns a digest of everything it produced."""
    checks.check_curve_json(outputs["curve"], oracle)
    checks.check_table_csv(outputs["table"], oracle)
    checks.check_score(outputs["single"], oracle)
    checks.check_violin(outputs["violin"], gen.violin_counts(dataset.samples))
    checks.check_stats(outputs["stats"], gen.category_counts(dataset.samples))
    checks.require(outputs["mismatched"] == "[]", "audit_hashes found mismatched hashes")
    checks.check_kept(out / "kept.jsonl", dataset.samples, dataset.duplicates)
    checks.check_simulated(out / "sim_manifests.jsonl", out / "sim_records.jsonl", n)
    digest = hashlib.sha256()
    for key in sorted(outputs):
        digest.update(outputs[key].encode("utf-8"))
    for name in ("kept.jsonl", "sim_manifests.jsonl", "sim_records.jsonl"):
        digest.update((out / name).read_bytes())
    return digest.hexdigest()


def layer_metrics(tracer: Tracer, n: int, manifests_written: int) -> dict[str, float]:
    totals = tracer.totals()

    def per_sample(name: str, count: int = n) -> float:
        return totals[name][1] / count * 1e6

    graph_calls, graph_s, _ = totals["graphhash.graph_hash"]
    tol_calls, tol_s, _ = totals["tolerance.min_passing_tolerance"]
    return {
        "records.load_manifests_us": per_sample("records.load_manifests"),
        "records.load_records_us": per_sample("records.load_records"),
        "records.write_manifests_us": per_sample("records.write_manifests", manifests_written),
        "records.write_records_us": per_sample("records.write_records"),
        "scoring.join_samples_us": per_sample("scoring.join_samples"),
        "scoring.score_curve_us": per_sample("scoring.score_curve"),
        "scoring.classify_calls": tracer.counts["scoring.classify"],
        "scoring.single_level_us": per_sample("scoring.single_level"),
        "report.violin_data_us": per_sample("report.violin_data"),
        "report.render_us": sum(totals[name][1] for name in _RENDERERS) * 1e6,
        "dataset.audit_hashes_us": per_sample("dataset.audit_hashes"),
        "dataset.stats_us": per_sample("dataset.stats"),
        "dataset.dedup_us": per_sample("dataset.dedup"),
        "graphhash.graph_hash_calls": graph_calls,
        "graphhash.graph_hash_us": graph_s / graph_calls * 1e6,
        "tolerance.min_passing_tolerance_calls": tol_calls,
        "tolerance.min_passing_tolerance_us": tol_s / tol_calls * 1e6,
        "simulator.simulate_us": per_sample("simulator.simulate"),
        "simulator.self_us": totals["simulator.simulate"][2] / n * 1e6,
    }


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    """One JSON array per line: pass, id, parent id, name, start, duration, self time.

    Times are µs; start counts from the pass's first span, and ids index
    the spans of their pass.
    """
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(["pass", "id", "parent", "name", "start_us", "dur_us", "self_us"]) + "\n")
        for pass_index, tracer in enumerate(tracers):
            origin = tracer.spans[0][2]
            for index, ((name, parent, start, end), own) in enumerate(
                zip(tracer.spans, tracer.self_times())
            ):
                row = [
                    pass_index,
                    index,
                    parent,
                    name,
                    round((start - origin) * 1e6, 3),
                    round((end - start) * 1e6, 3),
                    round(own * 1e6, 3),
                ]
                fh.write(json.dumps(row) + "\n")


def simulated_dataset(seed: int, work: Path, n: int) -> gen.Dataset:
    """The simulator's output, as the dataset the ``simulate`` workload's traced passes read."""
    spec = SimSpec(seed=seed, n_samples=n)
    sim_manifests, sim_records = simulate(spec, ScoreConfig())
    write_manifests(work / "manifests.jsonl", sim_manifests)
    write_records(work / "records.jsonl", records_header(spec, ScoreConfig()), sim_records)
    _, samples = gen.read_truth(work / "manifests.jsonl", work / "records.jsonl")
    return gen.Dataset(work / "manifests.jsonl", work / "records.jsonl", samples, [])


def run(workload: str, dataset: gen.Dataset, seed: int, work: Path, n: int, tally, pairs_left):
    """One untraced and one traced pass per step of ``pairs_left``.

    Each pass is an operation of ``tally``. Returns the metrics and the
    problems found across passes.
    """
    oracle = gen.curve_oracle(dataset.samples)
    out = work / "out"
    out.mkdir()
    untraced: list[float] = []
    traced: list[float] = []
    tracers: list[Tracer] = []
    per_pass: list[dict[str, float]] = []
    digests: set[str] = set()
    problems: list[str] = []

    def untraced_pass() -> None:
        began = time.perf_counter()
        outputs, _ = one_pass(lambda name: nullcontext(), dataset, out, n, seed)
        untraced.append(time.perf_counter() - began)
        digests.add(check_pass(outputs, dataset, oracle, out, n))

    def traced_pass() -> None:
        tracer = Tracer()
        began = time.perf_counter()
        with tracer.patched():
            outputs, written = one_pass(tracer.span, dataset, out, n, seed)
        traced.append(time.perf_counter() - began)
        tracers.append(tracer)
        per_pass.append(layer_metrics(tracer, n, written))
        digests.add(check_pass(outputs, dataset, oracle, out, n))

    for _ in pairs_left:
        tally.ok("untraced pass: ", untraced_pass)
        tally.ok("traced pass: ", traced_pass)

    if len(digests) > 1:
        problems.append("pass outputs differ between identical passes")
    for name in ("scoring.classify_calls", "graphhash.graph_hash_calls", "tolerance.min_passing_tolerance_calls"):
        if len({metrics[name] for metrics in per_pass}) > 1:
            problems.append(f"{name} differs between passes")
    if per_pass and per_pass[0]["scoring.classify_calls"] != n * len(gen.GRID):
        problems.append(f"scoring.classify_calls is not n x {len(gen.GRID)}")

    if not (per_pass and untraced):
        return {}, problems
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    base = statistics.median(untraced)
    metrics["trace.overhead_pct"] = (statistics.median(traced) - base) / base * 100.0
    spans_path = work.parent / f"trace-{workload}.jsonl"
    write_spans(spans_path, tracers)
    print(
        f"workload {workload}: traced n={n} seed={seed} pairs={len(traced)}"
        f" untraced pass {base:.4f} s, traced pass {statistics.median(traced):.4f} s,"
        f" spans in {spans_path}"
    )
    return metrics, problems
