"""Report rendering: score tables, curve exports, violin data, stats.

Table values print at 3 decimals with ties rounded away from zero; the
speedup-score column shows "-" at positive levels, where only the
error-aware score is defined. Curve exports keep full precision for
external plotting. All renderers are deterministic: identical inputs
produce byte-identical output.
"""

from __future__ import annotations

import io
import json
import math
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from .records import RunRecord, SampleGroup, SampleManifest
from .scoring import CurvePoint, ScoreConfig, ScoreCurve, classify, join_samples

if TYPE_CHECKING:
    from .dataset import StatsReport

__all__ = [
    "CURVE_COLUMNS",
    "TABLE_COLUMNS",
    "level_row",
    "render_curve",
    "render_stats",
    "render_table",
    "render_violin",
    "round_half_away",
    "table_rows",
    "violin_data",
]

TABLE_COLUMNS = ("t", "alpha", "beta", "lambda", "eta", "S(t)", "gamma", "ES(t)")
# published table column -> level_row key
_TABLE_KEYS = dict(zip(TABLE_COLUMNS, ("t", "alpha", "beta", "lambda", "eta", "S", "gamma", "ES")))

CURVE_COLUMNS = (
    "t",
    "total",
    "correct",
    "slowdowns",
    "errors",
    "errors_accuracy",
    "errors_crash",
    "errors_compile",
    "alpha",
    "beta",
    "lambda",
    "eta",
    "share_accuracy",
    "share_crash",
    "share_compile",
    "gamma",
    "S",
    "ES",
)


def round_half_away(value: float, decimals: int = 3) -> str:
    """Render at fixed decimals, ties away from zero."""
    from decimal import ROUND_HALF_UP, Context, Decimal

    quantum = Decimal(1).scaleb(-decimals)
    # 400 digits hold any finite double at 3 decimals; the default 28 do not.
    wide = Context(prec=400)
    return str(Decimal(repr(float(value))).quantize(quantum, ROUND_HALF_UP, wide))


def level_label(t: float) -> str:
    t = float(t)
    return str(int(t)) if t.is_integer() else repr(t)


def level_row(point: CurvePoint) -> dict[str, Any]:
    """One level's full-precision fields, keyed by ``CURVE_COLUMNS``."""
    comp = point.components
    return {
        "t": point.t,
        "total": comp.total,
        "correct": comp.correct,
        "slowdowns": comp.slowdowns,
        "errors": comp.errors,
        "errors_accuracy": comp.errors_by_code[0],
        "errors_crash": comp.errors_by_code[1],
        "errors_compile": comp.errors_by_code[2],
        "alpha": comp.geomean_speedup,
        "beta": comp.geomean_slowdown,
        "lambda": comp.correct_fraction,
        "eta": comp.slowdown_fraction,
        "share_accuracy": comp.error_shares[0],
        "share_crash": comp.error_shares[1],
        "share_compile": comp.error_shares[2],
        "gamma": comp.penalty,
        "S": point.speedup_score,
        "ES": point.error_aware_score,
    }


def curve_rows(curve: ScoreCurve) -> list[dict[str, Any]]:
    """Full-precision rows with every component and score."""
    return [level_row(point) for point in curve.points]


def table_rows(curve: ScoreCurve) -> list[dict[str, str]]:
    """Score table rows keyed by the published column names."""
    return [
        {column: _table_cell(key, row[key]) for column, key in _TABLE_KEYS.items()}
        for row in curve_rows(curve)
    ]


def _table_cell(key: str, value: Any) -> str:
    if key == "t":
        return level_label(value)
    return "-" if value is None else round_half_away(value)


def render_table(curve: ScoreCurve, fmt: str = "csv") -> str:
    rows = table_rows(curve)
    payload = [
        {column: None if cell == "-" else float(cell) for column, cell in row.items()}
        for row in rows
    ]
    return _render(fmt, payload, (TABLE_COLUMNS, rows))


def render_curve(curve: ScoreCurve, fmt: str = "csv") -> str:
    rows = curve_rows(curve)
    return _render(fmt, rows, (CURVE_COLUMNS, rows))


def violin_data(
    manifests: Sequence[SampleGroup | SampleManifest],
    records: Sequence[RunRecord],
    cfg: ScoreConfig,
) -> dict[tuple[str, str], list[float]]:
    """Per-(framework, task_category) log2 speedups of correct samples.

    Correctness is judged at level 0, which must be on the config grid.
    Negative values mark compiled runs slower than eager. Erroneous
    samples contribute nothing, but every group present in the manifests
    appears, possibly with an empty list.
    """
    pairs = join_samples(manifests, records)
    groups: dict[tuple[str, str], list[float]] = {}
    for manifest, _ in pairs:
        groups.setdefault((manifest.framework, manifest.task_category.value), [])
    for manifest, record in pairs:
        sample = classify(record, 0.0, cfg)
        if sample.error_code is None:
            key = (manifest.framework, manifest.task_category.value)
            groups[key].append(math.log2(sample.speedup))
    return dict(sorted(groups.items()))


def render_violin(groups: Mapping[tuple[str, str], Sequence[float]], fmt: str = "json") -> str:
    payload = [
        {"framework": framework, "task_category": category, "log2_speedups": list(values)}
        for (framework, category), values in groups.items()
    ]
    rows = (
        {**entry, "log2_speedups": ";".join(map(_plain, entry["log2_speedups"]))}
        for entry in payload
    )
    return _render(fmt, payload, (("framework", "task_category", "log2_speedups"), rows))


def render_stats(report: StatsReport, fmt: str = "json") -> str:
    payload = {
        "total": report.total,
        "category_counts": dict(report.category_counts),
        "category_shares": dict(report.category_shares),
        "opcount_histograms": {
            category: {str(bin_exp): count for bin_exp, count in hist.items()}
            for category, hist in report.opcount_histograms.items()
        },
    }
    share_rows = (
        {
            "category": category,
            "count": count,
            "share_percent": report.category_shares[category],
        }
        for category, count in report.category_counts.items()
    )
    hist_rows = (
        {"category": category, "bin_exponent": bin_exp, "count": count}
        for category, hist in report.opcount_histograms.items()
        for bin_exp, count in hist.items()
    )
    return _render(
        fmt,
        payload,
        (("category", "count", "share_percent"), share_rows),
        (("category", "bin_exponent", "count"), hist_rows),
    )


_Table = tuple[Sequence[str], Iterable[Mapping[str, Any]]]


def _render(fmt: str, payload: Any, *tables: _Table) -> str:
    """The one format switch: ``payload`` as JSON, or ``tables`` as CSV or
    Markdown, separated by blank lines."""
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        return "\n".join(_csv(columns, rows) for columns, rows in tables)
    if fmt == "md":
        return "\n".join(_md(columns, rows) for columns, rows in tables)
    raise ValueError(f"unknown format {fmt!r}")


def _plain(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv(columns: Sequence[str], rows: Iterable[Mapping[str, Any]]) -> str:
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_plain(row[column]) for column in columns])
    return buffer.getvalue()


def _md(columns: Sequence[str], rows: Iterable[Mapping[str, Any]]) -> str:
    lines = [
        "| " + " | ".join(columns) + " |",
        "| " + " | ".join("---" for _ in columns) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(_plain(row[column]) for column in columns) + " |")
    return "\n".join(lines) + "\n"

