"""Dtype-dependent numeric tolerance schedules.

Numeric strictness is a single level t <= 0. Each scalar kind maps the
level to absolute and relative thresholds through a log-linear schedule
10**(slope * t), so loosening t raises both thresholds together and a
pair of outputs that passes at some level passes at every looser one.
Scoring only reads the passing levels the records producer wrote.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping

__all__ = ["SLOPES", "ScalarKind", "atol", "rtol"]


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
        return _KINDS.get(name, cls.OTHER)


_KINDS = {kind.value: kind for kind in ScalarKind}


# (atol slope, rtol slope) per kind: tolerance(t) = 10**(slope * t). A
# slope of None pins that tolerance to zero at every level, which turns
# the closeness check into exact comparison.
SLOPES: Mapping[ScalarKind, tuple[float | None, float | None]] = {
    ScalarKind.FLOAT16: (1.0, 3 / 5),
    ScalarKind.BFLOAT16: (1.0, 1.796 / 5),
    ScalarKind.FLOAT32: (1.0, 5.886 / 5),
    ScalarKind.FLOAT64: (7 / 5, 7 / 5),
    ScalarKind.COMPLEX32: (1.0, 3 / 5),
    ScalarKind.COMPLEX64: (1.0, 5.886 / 5),
    ScalarKind.COMPLEX128: (7 / 5, 7 / 5),
    ScalarKind.QUINT8: (1.0, 5.886 / 5),
    ScalarKind.QUINT2X4: (1.0, 5.886 / 5),
    ScalarKind.QUINT4X2: (1.0, 5.886 / 5),
    ScalarKind.QINT8: (1.0, 5.886 / 5),
    ScalarKind.QINT32: (1.0, 5.886 / 5),
    ScalarKind.OTHER: (None, None),
}


def atol(kind: ScalarKind, t: float) -> float:
    """Absolute threshold for ``kind`` at level t (t must be <= 0)."""
    return _threshold(SLOPES[kind][0], t)


def rtol(kind: ScalarKind, t: float) -> float:
    """Relative threshold for ``kind`` at level t (t must be <= 0)."""
    return _threshold(SLOPES[kind][1], t)


def _threshold(slope: float | None, t: float) -> float:
    # Positive levels mean error forgiveness, not numeric thresholds.
    if t > 0:
        raise ValueError(f"tolerance level must be <= 0, got {t}")
    if slope is None:
        return 0.0
    return 10.0 ** (slope * t)
