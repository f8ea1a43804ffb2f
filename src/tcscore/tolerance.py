"""Dtype-dependent numeric tolerance schedules and the minimal passing level.

Numeric strictness is a single level t <= 0. Each scalar kind maps the
level to absolute and relative thresholds through a log-linear schedule
10**(slope * t), so loosening t raises both thresholds together and a
pair of outputs that passes at some level passes at every looser one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "DEFAULT_RULES",
    "ScalarKind",
    "ToleranceRule",
    "atol",
    "load_rules",
    "min_passing_tolerance",
    "rtol",
]


class ScalarKind(Enum):
    """Scalar element kinds, each carrying its own tolerance schedule."""

    FLOAT16 = "float16"
    BFLOAT16 = "bfloat16"
    FLOAT32 = "float32"
    FLOAT64 = "float64"
    COMPLEX32 = "complex32"
    COMPLEX64 = "complex64"
    COMPLEX128 = "complex128"
    QUINT8 = "quint8"
    QUINT2X4 = "quint2x4"
    QUINT4X2 = "quint4x2"
    QINT8 = "qint8"
    QINT32 = "qint32"
    OTHER = "other"

    @classmethod
    def from_name(cls, name: str) -> "ScalarKind":
        """Parse a kind name; unknown names fall back to OTHER."""
        try:
            return cls(name)
        except ValueError:
            return cls.OTHER


@dataclass(frozen=True)
class ToleranceRule:
    """Schedule slopes for one kind: tolerance(t) = 10**(slope * t).

    A slope of None pins that tolerance to zero at every level, which
    turns the closeness check into exact comparison.
    """

    kind: ScalarKind
    atol_slope: float | None
    rtol_slope: float | None


DEFAULT_RULES: Mapping[ScalarKind, ToleranceRule] = {
    rule.kind: rule
    for rule in (
        ToleranceRule(ScalarKind.FLOAT16, 1.0, 3 / 5),
        ToleranceRule(ScalarKind.BFLOAT16, 1.0, 1.796 / 5),
        ToleranceRule(ScalarKind.FLOAT32, 1.0, 5.886 / 5),
        ToleranceRule(ScalarKind.FLOAT64, 7 / 5, 7 / 5),
        ToleranceRule(ScalarKind.COMPLEX32, 1.0, 3 / 5),
        ToleranceRule(ScalarKind.COMPLEX64, 1.0, 5.886 / 5),
        ToleranceRule(ScalarKind.COMPLEX128, 7 / 5, 7 / 5),
        ToleranceRule(ScalarKind.QUINT8, 1.0, 5.886 / 5),
        ToleranceRule(ScalarKind.QUINT2X4, 1.0, 5.886 / 5),
        ToleranceRule(ScalarKind.QUINT4X2, 1.0, 5.886 / 5),
        ToleranceRule(ScalarKind.QINT8, 1.0, 5.886 / 5),
        ToleranceRule(ScalarKind.QINT32, 1.0, 5.886 / 5),
        ToleranceRule(ScalarKind.OTHER, None, None),
    )
}


def load_rules(path: str | Path) -> dict[ScalarKind, ToleranceRule]:
    """Tolerance rule table with overrides merged from a JSON config file.

    The file maps kind names to {"atol_slope": ..., "rtol_slope": ...}; a
    null slope pins that tolerance to zero. Kinds the file does not name
    keep their built-in schedule.
    """
    path = Path(path)
    data = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError(f"{path}: rule config must be a JSON object")
    rules = dict(DEFAULT_RULES)
    for name, entry in data.items():
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: entry for {name!r} must be an object")
        kind = ScalarKind.from_name(name)
        rules[kind] = ToleranceRule(
            kind,
            _parse_slope(entry, "atol_slope", name, path),
            _parse_slope(entry, "rtol_slope", name, path),
        )
    return rules


def _parse_slope(entry: dict, key: str, name: str, path: Path) -> float | None:
    value = entry.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{path}: {name}.{key} must be a number or null")
    return float(value)


def atol(
    kind: ScalarKind,
    t: float,
    rules: Mapping[ScalarKind, ToleranceRule] | None = None,
) -> float:
    """Absolute threshold for ``kind`` at level t (t must be <= 0)."""
    return _threshold(kind, t, rules, "atol_slope")


def rtol(
    kind: ScalarKind,
    t: float,
    rules: Mapping[ScalarKind, ToleranceRule] | None = None,
) -> float:
    """Relative threshold for ``kind`` at level t (t must be <= 0)."""
    return _threshold(kind, t, rules, "rtol_slope")


def _threshold(
    kind: ScalarKind,
    t: float,
    rules: Mapping[ScalarKind, ToleranceRule] | None,
    attr: str,
) -> float:
    # Positive levels mean error forgiveness, not numeric thresholds.
    if t > 0:
        raise ValueError(f"tolerance level must be <= 0, got {t}")
    rule = (rules or DEFAULT_RULES)[kind]
    slope: float | None = getattr(rule, attr)
    if slope is None:
        return 0.0
    return 10.0 ** (slope * t)


def min_passing_tolerance(
    x: Sequence,
    y: Sequence,
    kind: ScalarKind,
    grid: Sequence[float],
    rules: Mapping[ScalarKind, ToleranceRule] | None = None,
) -> float | None | list[float | None]:
    """Smallest grid level at which every element pair is close.

    Elements pair up as x against the reference y and are close at level
    t when |x - y| <= atol(t) + rtol(t) * |y|; complex values use the
    modulus. A non-finite element must be matched exactly by its partner
    (NaN matches NaN, infinities agree in sign, per component) and then
    takes no part in the check; otherwise the pair never passes.

    ``x`` and ``y`` are 1-d (one output pair, returning a level or None)
    or 2-d ``(rows, elements)`` stacks (returning one level or None per
    row). ``grid`` must be strictly ascending with all levels <= 0.
    Both thresholds are nondecreasing in t, so passing is monotone: one
    ascending walk over the levels settles every row, dropping the rows
    that pass at each level.
    """
    lhs = np.asarray(x)
    rhs = np.asarray(y)
    if lhs.ndim not in (1, 2) or lhs.shape != rhs.shape:
        raise ValueError(
            f"element arrays must be 1-d or 2-d with equal shapes, got {lhs.shape} vs {rhs.shape}"
        )
    if lhs.shape[-1] == 0:
        raise ValueError("element sequences must be nonempty")
    levels = [float(t) for t in grid]
    if not levels:
        raise ValueError("tolerance grid is empty")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("tolerance grid must be strictly ascending")
    if levels[-1] > 0:
        raise ValueError("tolerance grid levels must be <= 0")

    single = lhs.ndim == 1
    lhs, rhs = np.atleast_2d(lhs, rhs)
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
        bound = atol(kind, t, rules) + rtol(kind, t, rules) * magnitude
        passed = np.all(diff <= bound, axis=1)
        for row in pending[passed].tolist():
            passing[row] = t
        failing = ~passed
        pending, diff, magnitude = pending[failing], diff[failing], magnitude[failing]
    return passing[0] if single else passing


def _nan_equal(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a == b) | (np.isnan(a) & np.isnan(b))
