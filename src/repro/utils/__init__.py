"""Shared utilities: seeded RNG plumbing and statistics helpers."""

from repro.utils.rng import RngMixer, as_generator, spawn_child, stable_hash
from repro.utils.stats import exact_percentile, exact_percentiles, weighted_mean

__all__ = [
    "RngMixer",
    "as_generator",
    "spawn_child",
    "stable_hash",
    "exact_percentile",
    "exact_percentiles",
    "weighted_mean",
]
