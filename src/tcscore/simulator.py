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

import json
import math
from collections import namedtuple
from json.encoder import encode_basestring_ascii as _json_str
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Sequence

import numpy as np

# graph_hash is not called here: it stays importable because the benchmark's tracer wraps it by name.
from .graphhash import _CheckedTuple, _encode_topology, _text_digest, graph_hash  # noqa: F401
from .macro import ScoreConfig
from .records import _OUTCOME_KINDS, ErrorCode, RecordsHeader, TaskCategory, _member, _object, _text
from .records import _is_real, level_grid
from .tolerance import ScalarKind, atol, rtol

if TYPE_CHECKING:
    from .model import RunRecord, SampleManifest

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


def _number(value: Any, key: str) -> float:
    """The spec types' one rule for a number: a finite int, float or numpy real, returned as a float."""
    if not (_is_real(value) or isinstance(value, (np.integer, np.floating)) and math.isfinite(value)):
        raise ValueError(f"{key} must be a finite number")
    return float(value)


class Log2NormalLaw(_CheckedTuple, namedtuple("Log2NormalLaw", "log2_mean log2_stddev")):
    """Law of a positive per-sample quantity whose log2 is normal."""

    __slots__ = ()

    def __new__(cls, log2_mean: float, log2_stddev: float) -> Log2NormalLaw:
        log2_mean, log2_stddev = _number(log2_mean, "log2_mean"), _number(log2_stddev, "log2_stddev")
        if log2_stddev < 0:
            raise ValueError("log2_stddev must be >= 0")
        return tuple.__new__(cls, (log2_mean, log2_stddev))


class ErrorRates(_CheckedTuple, namedtuple("ErrorRates", "accuracy_violation runtime_crash compile_failure")):
    """Per-sample fault probabilities; the remainder runs clean."""

    __slots__ = ()

    def __new__(
        cls, accuracy_violation: float = 0.05, runtime_crash: float = 0.03, compile_failure: float = 0.07
    ) -> ErrorRates:
        rates = tuple(map(_number, (accuracy_violation, runtime_crash, compile_failure), cls._fields))
        if any(not 0 <= r <= 1 for r in rates):
            raise ValueError("error rates must lie in [0, 1]")
        if sum(rates) > 1:
            raise ValueError("error rates must sum to at most 1")
        return tuple.__new__(cls, rates)


class SimSpec(
    _CheckedTuple,
    namedtuple(
        "SimSpec",
        "seed n_samples framework category_mix speedup_law error_rates noise_law opcount_law",
    ),
):
    """Full description of a synthetic workload; same spec, same bytes out."""

    __slots__ = ()

    def __new__(
        cls,
        seed: int = 0,
        n_samples: int = 100,
        framework: str = "synthetic",
        category_mix: Mapping[TaskCategory, float] = DEFAULT_CATEGORY_MIX,
        speedup_law: Log2NormalLaw = Log2NormalLaw(0.35, 0.5),
        error_rates: ErrorRates = ErrorRates(),
        noise_law: Mapping[ScalarKind, float] = DEFAULT_NOISE,
        opcount_law: Log2NormalLaw = Log2NormalLaw(9.0, 1.2),
    ) -> SimSpec:
        for key, value in (("seed", seed), ("n_samples", n_samples)):
            if type(value) is not int:  # a bool or a float would reach numpy, or count one sample
                raise ValueError(f"{key} must be an integer")
        if not 0 <= seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        # Every manifest carries the framework, so its one check runs here.
        _text(framework, "framework")
        category_mix = _weights(category_mix, "category_mix", TaskCategory, "category weights")
        total = sum(category_mix.values())
        if not 0 < total < math.inf:
            raise ValueError(f"category weights must have a positive, finite sum, got {total}")
        noise_law = _weights(noise_law, "noise_law", ScalarKind, "noise magnitudes")
        for law, model, message in (
            (speedup_law, Log2NormalLaw, "speedup_law must be a Log2NormalLaw"),
            (error_rates, ErrorRates, "error_rates must be an ErrorRates"),
            (opcount_law, Log2NormalLaw, "opcount_law must be a Log2NormalLaw"),
        ):
            if not isinstance(law, model):
                raise ValueError(message)
        return tuple.__new__(
            cls,
            (seed, n_samples, framework, category_mix, speedup_law, error_rates, noise_law, opcount_law),
        )

    @classmethod
    def from_dict(cls, data: Any) -> SimSpec:
        """Build a spec from parsed JSON; absent keys keep defaults, unknown keys are refused."""
        if not isinstance(data, Mapping):
            raise ValueError("spec must be a JSON object")
        _refuse_unknown_keys(data, cls)
        # The constructor checks seed, n_samples and framework.
        kwargs: dict[str, Any] = {key: data[key] for key in ("seed", "n_samples", "framework") if key in data}
        # Ingest maps unknown kind names to OTHER; a spec names only kinds tcscore models.
        for key, members, what in (
            ("category_mix", TaskCategory, "task_category"), ("noise_law", ScalarKind, "noise_law kind")
        ):
            if key in data:
                weights = _object(data[key], key)
                kwargs[key] = {_member(members, name, what): weights[name] for name in weights}
        for key in ("speedup_law", "error_rates", "opcount_law"):
            if key in data:
                params = _object(data[key], key)
                default = getattr(cls(), key)
                _refuse_unknown_keys(params, default, f"{key}: ")
                kwargs[key] = default._replace(**params)
        return cls(**kwargs)


def _refuse_unknown_keys(data: Mapping[str, Any], model: Any, where: str = "") -> None:
    """Refuse keys of ``data`` that name no field of named tuple ``model``."""
    known = model._fields
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(f"{where}unknown keys {', '.join(unknown)} (expected: {', '.join(known)})")


def _weights(mapping: Mapping[Any, float], key: str, members: type, noun: str) -> dict[Any, float]:
    """Check that a weight mapping is nonempty, then its keys, then its values; return a copy."""
    weights = dict(mapping)
    if not weights:
        raise ValueError(f"{key} must be nonempty")
    if not all([isinstance(k, members) for k in weights]):
        raise ValueError(f"{key} keys must be {members.__name__} members")
    weights = {k: _number(w, k.value) for k, w in weights.items()}
    if any([w < 0 for w in weights.values()]):
        raise ValueError(f"{noun} must be >= 0")
    return weights


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
    failures carry the corresponding outcome and no compiled time. The
    objects are read back from ``simulate_blocks``' lines through every
    check that ingest runs on a file's lines.
    """
    from .model import _build_manifest, _build_record
    from .records import _check_manifest, _check_record

    grid = frozenset(t for t in cfg.grid if t <= 0)
    manifests: list[SampleManifest] = []
    records: list[RunRecord] = []
    for manifest_lines, record_lines in simulate_blocks(spec, cfg):
        manifests += [_build_manifest(_check_manifest(json.loads(line))) for line in manifest_lines]
        records += [_build_record(_check_record(json.loads(line), grid)) for line in record_lines]
    return manifests, records


def simulate_blocks(spec: SimSpec, cfg: ScoreConfig) -> Iterator[tuple[list[str], list[str]]]:
    """Yield the manifest and record lines of one block of ``BLOCK`` samples at a time.

    Each line is the newline-terminated canonical JSON text that
    ``write_manifests`` and ``write_records`` write for the sample, so
    the blocks' lines, in order, after a ``records_header`` line, are the
    two files of ``tcscore simulate``. See ``_simulate_block`` for the
    order of the draws within a block. A law whose draws leave float
    range raises when its block is drawn.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    numeric_grid = tuple(t for t in cfg.grid if t <= 0)
    for start in range(0, spec.n_samples, BLOCK):
        ids = range(start, min(start + BLOCK, spec.n_samples))
        yield _simulate_block(rng, spec, numeric_grid, ids)


# Each outcome's JSON text but a completed run's, whose comparisons vary.
_FAILED = {
    code: f'{{"kind":{_json_str(_OUTCOME_KINDS[code])},"message":{_json_str(message)}}}'
    for code, message in (
        (ErrorCode.COMPILE_FAILURE, "synthetic compile failure"),
        (ErrorCode.RUNTIME_CRASH, "synthetic runtime crash"),
    )
}
_COMPLETED = _json_str(_OUTCOME_KINDS[None])


def _simulate_block(
    rng: np.random.Generator,
    spec: SimSpec,
    grid: tuple[float, ...],
    ids: range,
) -> tuple[list[str], list[str]]:
    """Draw and score the samples numbered ``ids``; return their manifest and record lines.

    Every value is drawn as one array per block, in this order: category,
    log2 op count, parameter multiplier, output count, output kinds, eager
    time, warmup iterations, timed iterations, fate, log2 speedup, graph
    depth, graph ops, output baselines, noise exponents, noise and
    wrong-output shifts. Per-output arrays hold one row per output of the
    block, in sample order; speedups and outputs are drawn for every
    sample, whatever its fate. The comparisons are then scored with one
    ``min_passing_tolerance`` call per output kind.

    Lines are formatted from the drawn values with their keys in sorted
    order, floats as ``repr`` and strings escaped as ``json`` escapes
    them; sample ids and graph sources need no escaping.
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
    # Extreme laws overflow or underflow; a record needs eager / compiled
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

    framework = _json_str(spec.framework)
    category_names = [_json_str(c.value) for c in categories]
    kind_values = [k.value for k in kinds]
    kind_names = list(map(_json_str, kind_values))
    # Each sample's set of output kinds as a bit mask, and each distinct set's dtypes text.
    kind_mask = np.bitwise_or.reduceat(1 << kind_index, np.cumsum(output_count) - output_count)
    dtype_texts = {
        mask: ",".join(map(_json_str, sorted(v for k, v in enumerate(kind_values) if mask >> k & 1)))
        for mask in set(kind_mask.tolist())
    }
    output_kinds = kind_index.tolist()
    level_texts = ["null" if level is None else repr(level) for level in levels]
    op_names = [_OP_VOCAB[o] for o in op_index.tolist()]
    columns = (
        category, opcount, multiplier, output_count, kind_mask, eager, warmup, timed, fate, compiled_time, depth
    )
    manifest_lines: list[str] = []
    record_lines: list[str] = []
    first_output = first_op = 0
    for i, cat, ops, mult, count, mask, eager_s, warm, iters, fate_i, compiled_s, size in zip(
        ids, *(column.tolist() for column in columns)
    ):
        sample_id = f"s{i:05d}"
        dtypes = dtype_texts[mask]
        operator_count = max(1, int(ops))
        source, topology = _synthesize_graph(sample_id, op_names[first_op : first_op + size])
        manifest_lines.append(
            f'{{"dtypes":[{dtypes}],"framework":{framework},"graph_hash":"{_text_digest(source, topology)}",'
            f'"operator_count":{operator_count},"parameter_count":{operator_count * mult},'
            f'"sample_id":"{sample_id}","source_digest_inputs":{{"normalized_source":"{source}",'
            f'"topology":{topology}}},"task_category":{category_names[cat]}}}\n'
        )
        if fate_i < crash_below:
            code = ErrorCode.COMPILE_FAILURE if fate_i < rates.compile_failure else ErrorCode.RUNTIME_CRASH
            timing, outcome = "", _FAILED[code]
        else:
            comparisons = ",".join([
                f'{{"kind":{kind_names[k]},"min_passing_t":{level_texts[first_output + index]},'
                f'"tensor_index":{index}}}'
                for index, k in enumerate(output_kinds[first_output : first_output + count])
            ])
            timing = f'"compiled_time_s":{compiled_s!r},'
            outcome = f'{{"comparisons":[{comparisons}],"kind":{_COMPLETED}}}'
        record_lines.append(
            f'{{{timing}"eager_time_s":{eager_s!r},"outcome":{outcome},"sample_id":"{sample_id}",'
            f'"timed_iters":{iters},"warmup_iters":{warm}}}\n'
        )
        first_output += count
        first_op += size
    return manifest_lines, record_lines


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

    ``grid`` must be a nonempty ``level_grid`` with all levels <= 0. One
    walk from the loosest level down marks every passing row with the
    level's index, so a row's last mark is its strictest passing level; a
    row never marked, or holding an unmatched non-finite pair, gets None.
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
    comparable = np.all(finite | matched, axis=1)
    # Matched non-finite pairs become 0 against 0, which passes at every level.
    lhs, rhs = np.where(finite, lhs, 0), np.where(finite, rhs, 0)
    diff = np.abs(lhs - rhs)
    magnitude = np.abs(rhs)
    strictest = np.full(len(lhs), len(levels))
    for i, t in reversed(list(enumerate(levels))):
        bound = atol(kind, t) + rtol(kind, t) * magnitude
        strictest[comparable & np.all(diff <= bound, axis=1)] = i
    passing = [*levels, None]
    return [passing[i] for i in strictest.tolist()]


def _nan_equal(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a == b) | (np.isnan(a) & np.isnan(b))


def _node(k: int, op: str) -> tuple[str, str]:
    """Node ``k`` of a chain graph: its topology entry as compact JSON, and its source statement."""
    if op in _BINARY_OPS and k >= 2:
        inputs: tuple[int, ...] = (k - 1, k - 2)
    elif k >= 1:
        inputs = (k - 1,)
    else:
        inputs = ()
    args = ", ".join(f"x{j}" for j in inputs) or "x0"
    return _encode_topology((op, inputs)), f"x{k + 1} = {op}({args})"


_NODES = {(k, op): _node(k, op) for k in range(_MAX_DEPTH) for op in _OP_VOCAB}


def _synthesize_graph(sample_id: str, ops: list[str]) -> tuple[str, str]:
    """A graph chaining ``ops``, node by node from ``_NODES``: its normalized
    source and its topology's compact JSON text, as ``graph_hash`` encodes them."""
    entries, statements = zip(*[_NODES.get((k, op)) or _node(k, op) for k, op in enumerate(ops)])
    return f"def graph_{sample_id}(x0): {' '.join(statements)} return x{len(ops)}", f"[{','.join(entries)}]"
