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

from .macro import join_samples
from .records import ScoreRow

if TYPE_CHECKING:
    from .dataset import StatsReport
    from .macro import CurvePoint, ScoreConfig, ScoreCurve
    from .model import RunRecord, SampleManifest
    from .records import SampleGroup

__all__ = [
    "level_row",
    "render_curve",
    "render_stats",
    "render_table",
    "render_violin",
    "round_half_away",
    "table_rows",
    "violin_data",
]

# level_row key -> published table heading, in table column order
_TABLE_HEADINGS = {
    "t": "t", "alpha": "alpha", "beta": "beta", "lambda": "lambda",
    "eta": "eta", "S": "S(t)", "gamma": "gamma", "ES": "ES(t)",
}


def round_half_away(value: float) -> str:
    """Render at 3 decimals, ties away from zero."""
    from decimal import ROUND_HALF_UP, Context, Decimal

    # 400 digits hold any finite double at 3 decimals; the default 28 do not.
    wide = Context(prec=400)
    return str(Decimal(repr(float(value))).quantize(Decimal("0.001"), ROUND_HALF_UP, wide))


def level_label(t: float) -> str:
    return str(int(t)) if t.is_integer() else repr(t)


def level_row(point: CurvePoint) -> dict[str, Any]:
    """One level's full-precision fields: the one list of curve fields, in column order."""
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


def table_rows(curve: ScoreCurve) -> list[dict[str, str]]:
    """Score table rows keyed by the published column names."""
    return [
        {heading: _table_cell(key, row[key]) for key, heading in _TABLE_HEADINGS.items()}
        for row in map(level_row, curve.points)
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
    return _render(fmt, payload, (list(rows[0]), [row.values() for row in rows]))


def render_curve(curve: ScoreCurve, fmt: str = "csv") -> str:
    rows = [level_row(point) for point in curve.points]
    return _render(fmt, rows, (list(rows[0]), [row.values() for row in rows]))


def violin_data(
    manifests: Sequence[SampleGroup | SampleManifest],
    records: Sequence[ScoreRow | RunRecord],
    cfg: ScoreConfig,
) -> dict[tuple[str, str], list[float]]:
    """Per-(framework, task_category) log2 speedups of correct samples.

    Records are read as ``ScoreRow``s at level 0, which must be on the
    grid. Negative values mark compiled runs slower than eager. Erroneous
    samples contribute nothing, but every group present in the manifests
    appears, possibly with an empty list.
    """
    if not all(isinstance(r, ScoreRow) for r in records):
        from .model import score_row

        records = [r if isinstance(r, ScoreRow) else score_row(r) for r in records]
    pairs = join_samples(manifests, records)
    cfg.level(0.0)  # refuses a grid without level 0
    groups: dict[tuple[str, str], list[float]] = {}
    for manifest, row in pairs:
        logs = groups.setdefault((manifest.framework, manifest.task_category.value), [])
        if row.error_code is None and row.passing <= 0.0:
            logs.append(math.log2(row.speedup))
    return dict(sorted(groups.items()))


def render_violin(groups: Mapping[tuple[str, str], Sequence[float]], fmt: str = "json") -> str:
    columns = ("framework", "task_category", "log2_speedups")
    payload = [dict(zip(columns, (*group, list(values)))) for group, values in groups.items()]
    rows = ((*group, ";".join(map(_plain, values))) for group, values in groups.items())
    return _render(fmt, payload, (columns, rows))


def render_stats(report: StatsReport, fmt: str = "json") -> str:
    share_rows = (
        (category, count, report.category_shares[category])
        for category, count in report.category_counts.items()
    )
    hist_rows = (
        (category, bin_exp, count)
        for category, hist in report.opcount_histograms.items()
        for bin_exp, count in hist.items()
    )
    return _render(
        fmt,
        report._asdict(),
        (("category", "count", "share_percent"), share_rows),
        (("category", "bin_exponent", "count"), hist_rows),
    )


# A table: its column names, and its rows as values in column order.
_Table = tuple[Sequence[str], Iterable[Iterable[Any]]]


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


def _csv(columns: Sequence[str], rows: Iterable[Iterable[Any]]) -> str:
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(map(_plain, row) for row in rows)
    return buffer.getvalue()


# A `|` would split a Markdown cell, and a line break would end its row.
_MD_ESCAPES = str.maketrans({"|": "\\|", "\r": "<br>", "\n": "<br>"})


def _md(columns: Sequence[str], rows: Iterable[Iterable[Any]]) -> str:
    lines = [columns, ["---"] * len(columns)]
    lines += ([_plain(value).replace("\r\n", "\n").translate(_MD_ESCAPES) for value in row] for row in rows)
    return "".join("| " + " | ".join(cells) + " |\n" for cells in lines)

