"""Correctness-aware speedup scoring for tensor-compiler benchmark runs."""

from .macro import ScoreConfig, gamma, score_rows

__version__ = "0.1.0"
