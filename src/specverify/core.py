"""Errors, the action box, and the deviation score shared across the package.

Vectors that cross module boundaries are plain float64 arrays; input is
validated where it enters the program (config, parameter file, score).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ContractViolation(ValueError):
    """A caller broke an operation precondition (e.g. dimension mismatch)."""


class ConfigurationError(ValueError):
    """An invalid configuration value or combination."""


def _frozen_array(values, dim_name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ContractViolation(f"{dim_name} must be a 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ContractViolation(f"{dim_name} contains non-finite entries")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ActionSpace:
    """Axis-aligned box of valid control vectors."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = _frozen_array(self.lower, "lower")
        upper = _frozen_array(self.upper, "upper")
        if lower.shape != upper.shape:
            raise ContractViolation("lower/upper length mismatch")
        if lower.size < 1:
            raise ContractViolation("action space needs at least one dimension")
        if not np.all(lower < upper):
            raise ContractViolation("lower must be strictly below upper in every dimension")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        # Sum of per-dimension ranges; the normalizer for deviation scores.
        object.__setattr__(self, "range_sum", float(np.sum(upper - lower)))

    @property
    def dim(self) -> int:
        return self.lower.size

    def clamp(self, values) -> np.ndarray:
        return np.clip(np.asarray(values, dtype=np.float64), self.lower, self.upper)


def deviation_score(planned: np.ndarray, reference: np.ndarray,
                    space: ActionSpace):
    """L1 distance between two actions over the action-space range sum, in [0, 1];
    for matching rows of actions, the list of each row's score.

    Distances beyond the range sum clamp to 1. A non-finite distance (a NaN or
    infinite entry in either action) raises: clamping it would hide it.
    """
    if planned.shape != reference.shape:
        raise ContractViolation(f"dimension mismatch: {reference.shape} vs {planned.shape}")
    raw = np.abs(reference - planned).sum(axis=-1)
    if not np.isfinite(raw).all():
        row = np.flatnonzero(~np.isfinite(raw))[0] if raw.ndim else ...  # first bad row
        raise ContractViolation(
            f"non-finite deviation between {planned[row]} and {reference[row]}")
    return np.minimum(raw / space.range_sum, 1.0).tolist()
