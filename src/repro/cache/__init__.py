"""Simulated last-level cache with slices, ways, timing, and Intel CAT.

This is the substitution for real x86 hardware (DESIGN.md): Prime+Probe
and Flush+Reload depend only on set mapping, replacement, and hit/miss
timing separability, all of which the model provides — together with the
two features the paper's attack innovations target: the sliced LLC
(Section V-C1's precomputed slice hash) and Cache Allocation Technology
way partitioning (the paper's first offensive use of CAT).
"""

from repro.cache.model import (
    AccessResult,
    BatchAccessResult,
    Cache,
    CacheConfig,
    WorkingSet,
)
from repro.cache.cat import CatController
from repro.cache.noise import BackgroundNoise, OsPollution

__all__ = [
    "Cache",
    "CacheConfig",
    "AccessResult",
    "BatchAccessResult",
    "WorkingSet",
    "CatController",
    "BackgroundNoise",
    "OsPollution",
]
