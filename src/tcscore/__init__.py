"""Correctness-aware speedup scoring for tensor-compiler benchmark runs."""

from .scoring import ScoreConfig, gamma, score_curve

__version__ = "0.1.0"
