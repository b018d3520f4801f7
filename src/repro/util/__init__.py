"""Shared utilities: bit manipulation, deterministic RNG, error types."""

from repro.util.bits import (
    bit_get,
    bit_set,
    bit_flip,
    parity,
    popcount,
)
from repro.util.errors import (
    ReproError,
    ConfigurationError,
    TargetError,
    DatabaseError,
    CampaignError,
)
from repro.util.rng import CampaignRandom

__all__ = [
    "bit_get",
    "bit_set",
    "bit_flip",
    "parity",
    "popcount",
    "ReproError",
    "ConfigurationError",
    "TargetError",
    "DatabaseError",
    "CampaignError",
    "CampaignRandom",
]
