"""Deterministic synthetic workload generator with fault injection.

Stands in for running real frameworks and compilers: per-sample speedups,
operator counts, and output perturbations are drawn from configurable
laws, producing a manifests/records pair that exercises the full scoring
pipeline. All draws come from one fixed-seed PCG64 stream, block by
block in a fixed order, so a given spec maps to byte-identical output
files. As the records producer it owns the numpy tolerance scan that
turns output tensors into passing levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from .graphhash import HashInput, Topology, graph_hash
from .macro import ScoreConfig
from .model import (
    CompileFailure, Completed, RunOutcome, RunRecord, RuntimeCrash, SampleManifest, TensorComparison
)
from .records import (
    RecordsHeader, TaskCategory, _expect_int, _expect_object, _expect_real, _expect_str, level_grid
)
from .tolerance import ScalarKind, atol, rtol

__all__ = [
    "ErrorRates",
    "Log2NormalLaw",
    "SimSpec",
    "min_passing_tolerance",
    "records_header",
    "simulate",
    "simulate_blocks",
]

_OP_VOCAB = (
    "matmul",
    "conv2d",
    "add",
    "mul",
    "relu",
    "gelu",
    "softmax",
    "layer_norm",
    "reshape",
    "transpose",
    "reduce_sum",
    "embedding",
)
_BINARY_OPS = frozenset({"matmul", "add", "mul"})
# Graph depths are drawn from [3, _MAX_DEPTH]; _NODES covers every position below it.
_MAX_DEPTH = 8
_OUTPUT_LEN = 16
# Samples per block: each block draws its random values as arrays and
# scores its comparisons with one min_passing_tolerance call per kind.
# A fixed size keeps the output bytes a function of the spec alone.
BLOCK = 256

DEFAULT_CATEGORY_MIX: Mapping[TaskCategory, float] = {
    TaskCategory.CV: 0.478,
    TaskCategory.NLP: 0.395,
    TaskCategory.AUDIO: 0.04,
    TaskCategory.MULTIMODAL: 0.04,
    TaskCategory.SCIENTIFIC: 0.027,
    TaskCategory.OTHER: 0.02,
}

# Base magnitudes keep clean samples passing at level 0 even after the
# per-sample two-decade jitter applied in simulate().
DEFAULT_NOISE: Mapping[ScalarKind, float] = {
    ScalarKind.FLOAT16: 1e-4,
    ScalarKind.BFLOAT16: 1e-3,
    ScalarKind.FLOAT32: 1e-6,
    ScalarKind.FLOAT64: 1e-9,
}


@dataclass(frozen=True)
class Log2NormalLaw:
    """Law of a positive per-sample quantity whose log2 is normal."""

    log2_mean: float
    log2_stddev: float

    def __post_init__(self) -> None:
        if self.log2_stddev < 0:
            raise ValueError("log2_stddev must be >= 0")


@dataclass(frozen=True)
class ErrorRates:
    """Per-sample fault probabilities; the remainder runs clean."""

    accuracy_violation: float = 0.05
    runtime_crash: float = 0.03
    compile_failure: float = 0.07

    def __post_init__(self) -> None:
        rates = (self.accuracy_violation, self.runtime_crash, self.compile_failure)
        if any(not 0 <= r <= 1 for r in rates):
            raise ValueError("error rates must lie in [0, 1]")
        if sum(rates) > 1:
            raise ValueError("error rates must sum to at most 1")


@dataclass(frozen=True)
class SimSpec:
    """Full description of a synthetic workload; same spec, same bytes out."""

    seed: int = 0
    n_samples: int = 100
    framework: str = "synthetic"
    category_mix: Mapping[TaskCategory, float] = field(
        default_factory=lambda: dict(DEFAULT_CATEGORY_MIX)
    )
    speedup_law: Log2NormalLaw = Log2NormalLaw(0.35, 0.5)
    error_rates: ErrorRates = ErrorRates()
    noise_law: Mapping[ScalarKind, float] = field(
        default_factory=lambda: dict(DEFAULT_NOISE)
    )
    opcount_law: Log2NormalLaw = Log2NormalLaw(9.0, 1.2)

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if not self.category_mix:
            raise ValueError("category_mix must be nonempty")
        if any(w < 0 for w in self.category_mix.values()):
            raise ValueError("category weights must be >= 0")
        total = sum(self.category_mix.values())
        if not 0 < total < math.inf:
            raise ValueError(f"category weights must have a positive, finite sum, got {total}")
        if not self.noise_law:
            raise ValueError("noise_law must be nonempty")
        if any(m < 0 for m in self.noise_law.values()):
            raise ValueError("noise magnitudes must be >= 0")

    @classmethod
    def from_dict(cls, data: Any) -> "SimSpec":
        """Build a spec from parsed JSON; absent keys keep defaults, unknown keys are refused."""
        if not isinstance(data, Mapping):
            raise ValueError("spec must be a JSON object")
        _refuse_unknown_keys(data, cls)
        kwargs: dict[str, Any] = {}
        for key in ("seed", "n_samples"):
            if key in data:
                kwargs[key] = _expect_int(data, key)
        if "framework" in data:
            kwargs["framework"] = _expect_str(data, "framework")
        for key, parse_name in (
            ("category_mix", TaskCategory.from_name),
            ("noise_law", _noise_kind),
        ):
            if key in data:
                weights = _expect_object(data, key)
                kwargs[key] = {parse_name(name): _expect_real(weights, name) for name in weights}
        for key in ("speedup_law", "error_rates", "opcount_law"):
            if key in data:
                params = _expect_object(data, key)
                default = getattr(cls, key)
                _refuse_unknown_keys(params, default, f"{key}: ")
                values = {name: _expect_real(params, name) for name in params}
                kwargs[key] = replace(default, **values)
        return cls(**kwargs)


def _refuse_unknown_keys(data: Mapping[str, Any], model: Any, where: str = "") -> None:
    """Refuse keys of ``data`` that name no field of dataclass ``model``."""
    known = [f.name for f in fields(model)]
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(f"{where}unknown keys {', '.join(unknown)} (expected: {', '.join(known)})")


def _noise_kind(name: str) -> ScalarKind:
    # Ingest maps unknown kind names to OTHER; a spec names only kinds tcscore models.
    try:
        return ScalarKind(name)
    except ValueError:
        expected = ", ".join(kind.value for kind in ScalarKind)
        raise ValueError(f"unknown noise_law kind {name!r} (expected one of: {expected})") from None


def records_header(spec: SimSpec, cfg: ScoreConfig) -> RecordsHeader:
    return RecordsHeader(
        grid=cfg.grid,
        p=cfg.degradation_penalty,
        b=cfg.failure_penalty,
        producer=f"simulator seed={spec.seed}",
    )


def simulate(spec: SimSpec, cfg: ScoreConfig) -> tuple[list[SampleManifest], list[RunRecord]]:
    """Generate a (manifests, records) pair for a synthetic workload.

    Clean samples carry comparisons whose min_passing_t reflects the
    injected noise through the tolerance schedules; accuracy-violation
    samples carry comparisons that never pass; crashes and compile
    failures carry the corresponding outcome and no compiled time.
    """
    blocks = list(simulate_blocks(spec, cfg))
    return [m for ms, _ in blocks for m in ms], [r for _, rs in blocks for r in rs]


def simulate_blocks(
    spec: SimSpec, cfg: ScoreConfig
) -> Iterator[tuple[list[SampleManifest], list[RunRecord]]]:
    """Yield ``simulate``'s output one block of ``BLOCK`` samples at a time.

    The blocks, in order, concatenate to ``simulate(spec, cfg)``; see
    ``_simulate_block`` for the order of the draws within a block. A law
    whose draws leave float range raises when its block is drawn.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    numeric_grid = tuple(t for t in cfg.grid if t <= 0)
    for start in range(0, spec.n_samples, BLOCK):
        ids = range(start, min(start + BLOCK, spec.n_samples))
        yield _simulate_block(rng, spec, numeric_grid, ids)


def _simulate_block(
    rng: np.random.Generator,
    spec: SimSpec,
    grid: tuple[float, ...],
    ids: range,
) -> tuple[list[SampleManifest], list[RunRecord]]:
    """Draw and score the samples numbered ``ids``.

    Every value is drawn as one array per block, in this order: category,
    log2 op count, parameter multiplier, output count, output kinds, eager
    time, warmup iterations, timed iterations, fate, log2 speedup, graph
    depth, graph ops, output baselines, noise exponents, noise and
    wrong-output shifts. Per-output arrays hold one row per output of the
    block, in sample order; speedups and outputs are drawn for every
    sample, whatever its fate. The comparisons are then scored with one
    ``min_passing_tolerance`` call per output kind.
    """
    n = len(ids)
    categories = list(spec.category_mix)
    weights = np.array([spec.category_mix[c] for c in categories], dtype=float)
    kinds = list(spec.noise_law)
    rates = spec.error_rates
    crash_below = rates.compile_failure + rates.runtime_crash
    wrong_below = crash_below + rates.accuracy_violation

    category = rng.choice(len(categories), size=n, p=weights / weights.sum())
    log2_opcount = rng.normal(spec.opcount_law.log2_mean, spec.opcount_law.log2_stddev, size=n)
    multiplier = rng.integers(100, 5000, size=n)
    output_count = rng.integers(1, 4, size=n)
    kind_index = rng.integers(len(kinds), size=int(output_count.sum()))
    eager = rng.lognormal(math.log(0.01), 0.5, size=n)
    warmup = rng.integers(1, 11, size=n)
    timed = rng.integers(10, 101, size=n)
    fate = rng.random(n)
    log2_speedup = rng.normal(spec.speedup_law.log2_mean, spec.speedup_law.log2_stddev, size=n)
    depth = rng.integers(3, _MAX_DEPTH + 1, size=n)
    op_index = rng.integers(len(_OP_VOCAB), size=int(depth.sum()))
    outputs = len(kind_index)
    baseline = rng.uniform(0.5, 1.5, size=(outputs, _OUTPUT_LEN))
    exponent = rng.uniform(-2.0, 2.0, size=outputs)
    noise = rng.uniform(-1.0, 1.0, size=(outputs, _OUTPUT_LEN))
    shift = rng.random(outputs)

    with np.errstate(over="ignore", divide="ignore"):
        opcount = np.rint(2.0**log2_opcount)
        compiled_time = eager / 2.0**log2_speedup
        magnitude = np.array([spec.noise_law[k] for k in kinds])[kind_index] * 10.0**exponent
        recorded_speedup = eager / compiled_time
    # Extreme laws overflow or underflow; RunRecord needs eager / compiled
    # to be finite and positive.
    for key, in_range in (
        ("opcount_law", np.isfinite(opcount)),
        ("speedup_law", np.isfinite(recorded_speedup) & (recorded_speedup > 0)),
        ("noise_law", np.isfinite(magnitude)),
    ):
        if not in_range.all():
            raise ValueError(f"{key}: draws leave float range")

    output_fate = np.repeat(fate, output_count)
    candidate = np.where(
        (output_fate < wrong_below)[:, None],
        # Shift beyond the level-0 bound (1 + |y|, |y| <= 1.5).
        baseline + 4.0 + shift[:, None],
        baseline + noise * magnitude[:, None],
    )
    levels: list[float | None] = [None] * outputs
    completed = output_fate >= crash_below
    for k, kind in enumerate(kinds):
        rows = np.flatnonzero(completed & (kind_index == k))
        passing = min_passing_tolerance(candidate[rows], baseline[rows], kind, grid)
        for row, level in zip(rows.tolist(), passing):
            levels[row] = level

    output_kinds = [kinds[k] for k in kind_index.tolist()]
    op_names = [_OP_VOCAB[o] for o in op_index.tolist()]
    columns = (category, opcount, multiplier, output_count, eager, warmup, timed, fate, compiled_time, depth)
    manifests: list[SampleManifest] = []
    records: list[RunRecord] = []
    first_output = first_op = 0
    for i, cat, ops, mult, count, eager_s, warm, iters, fate_i, compiled_s, size in zip(
        ids, *(column.tolist() for column in columns)
    ):
        sample_id = f"s{i:05d}"
        sample_kinds = output_kinds[first_output : first_output + count]
        operator_count = max(1, int(ops))
        source, topology = _synthesize_graph(sample_id, op_names[first_op : first_op + size])
        digest_inputs = HashInput(source, topology)
        manifests.append(
            SampleManifest(
                sample_id=sample_id,
                framework=spec.framework,
                task_category=categories[cat],
                operator_count=operator_count,
                graph_hash=graph_hash(digest_inputs),
                dtypes=frozenset(sample_kinds),
                parameter_count=operator_count * mult,
                source_digest_inputs=digest_inputs,
            )
        )
        compiled = None
        if fate_i < rates.compile_failure:
            outcome: RunOutcome = CompileFailure("synthetic compile failure")
        elif fate_i < crash_below:
            outcome = RuntimeCrash("synthetic runtime crash")
        else:
            outcome = Completed(
                tuple(
                    TensorComparison(index, kind, levels[first_output + index])
                    for index, kind in enumerate(sample_kinds)
                )
            )
            compiled = compiled_s
        records.append(RunRecord(sample_id, eager_s, outcome, compiled, warm, iters))
        first_output += count
        first_op += size
    return manifests, records


def min_passing_tolerance(
    x: Sequence, y: Sequence, kind: ScalarKind, grid: Sequence[float]
) -> list[float | None]:
    """Smallest grid level at which every element pair of a row is close.

    ``x`` and ``y`` are ``(rows, elements)`` stacks; the result holds one
    level, or None when the row never passes, per row. Elements pair up
    as x against the reference y and are close at level t when
    |x - y| <= atol(t) + rtol(t) * |y|; complex values use the modulus.
    A non-finite element must be matched exactly by its partner (NaN
    matches NaN, infinities agree in sign, per component) and then takes
    no part in the check; otherwise its row never passes.

    ``grid`` must be a nonempty ``level_grid`` with all levels <= 0. Both
    thresholds are nondecreasing in t, so passing is monotone: one
    ascending walk over the levels settles every row, dropping the rows
    that pass at each level.
    """
    lhs = np.asarray(x)
    rhs = np.asarray(y)
    if lhs.ndim != 2 or lhs.shape != rhs.shape:
        raise ValueError(
            f"element arrays must be 2-d with equal shapes, got {lhs.shape} vs {rhs.shape}"
        )
    if lhs.shape[-1] == 0:
        raise ValueError("element sequences must be nonempty")
    levels = level_grid(grid)
    if not levels or levels[-1] > 0:
        raise ValueError("tolerance grid must be nonempty with all levels <= 0")

    finite = np.isfinite(lhs) & np.isfinite(rhs)
    matched = _nan_equal(lhs.real, rhs.real) & _nan_equal(lhs.imag, rhs.imag)
    # Matched non-finite pairs become 0 against 0, which passes at every level.
    lhs, rhs = np.where(finite, lhs, 0), np.where(finite, rhs, 0)
    diff = np.abs(lhs - rhs)
    magnitude = np.abs(rhs)
    passing: list[float | None] = [None] * len(lhs)
    pending = np.flatnonzero(np.all(finite | matched, axis=1))
    diff, magnitude = diff[pending], magnitude[pending]
    for t in levels:
        if not pending.size:
            break
        bound = atol(kind, t) + rtol(kind, t) * magnitude
        passed = np.all(diff <= bound, axis=1)
        for row in pending[passed].tolist():
            passing[row] = t
        failing = ~passed
        pending, diff, magnitude = pending[failing], diff[failing], magnitude[failing]
    return passing


def _nan_equal(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a == b) | (np.isnan(a) & np.isnan(b))


def _node(k: int, op: str) -> tuple[tuple[str, tuple[int, ...]], str]:
    """Node ``k`` of a chain graph: its topology entry and its source statement."""
    if op in _BINARY_OPS and k >= 2:
        inputs: tuple[int, ...] = (k - 1, k - 2)
    elif k >= 1:
        inputs = (k - 1,)
    else:
        inputs = ()
    args = ", ".join(f"x{j}" for j in inputs) or "x0"
    return (op, inputs), f"x{k + 1} = {op}({args})"


_NODES = {(k, op): _node(k, op) for k in range(_MAX_DEPTH) for op in _OP_VOCAB}


def _synthesize_graph(sample_id: str, ops: list[str]) -> tuple[str, Topology]:
    """A graph chaining ``ops``, node by node from ``_NODES``: its normalized source and topology."""
    topology, statements = zip(*[_NODES.get((k, op)) or _node(k, op) for k, op in enumerate(ops)])
    return f"def graph_{sample_id}(x0): {' '.join(statements)} return x{len(ops)}", topology
