"""Correctness-aware speedup scoring for tensor-compiler benchmark runs."""

from .macro import ScoreConfig, gamma

__version__ = "0.1.0"


def __getattr__(name: str):
    # The per-sample oracle loads the object model: only a caller that asks for it pays for it.
    if name == "score_curve":
        from .scoring import score_curve

        return score_curve
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
