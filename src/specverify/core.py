"""Errors, the action box, and the deviation score shared across the package.

Observations, contexts and reference actions are plain float64 arrays; env
states and planned actions are float tuples. Input is validated where it
enters the program (config, parameter file, score).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ContractViolation(ValueError):
    """A caller broke an operation precondition (e.g. dimension mismatch)."""


class ConfigurationError(ValueError):
    """An invalid configuration value or combination."""


def is_finite_number(value) -> bool:
    """An int or a finite float; a bool is neither, though Python counts it an int."""
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and math.isfinite(value))


def named(name: str, check, *args, **kwargs):
    """Run an existing check; its error, or an unknown enum value, names ``name``."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise ConfigurationError(f"{name}: {exc}") from exc


@dataclass(frozen=True, eq=False)
class ActionSpace:
    """Axis-aligned box of valid control vectors, held as read-only float64
    arrays; ``Geometry`` builds it from a step bound it has checked."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        for name in ("lower", "upper"):
            bound = np.array(getattr(self, name), dtype=np.float64)
            bound.setflags(write=False)
            object.__setattr__(self, name, bound)
        # Sum of per-dimension ranges; the normalizer for deviation scores.
        object.__setattr__(self, "range_sum", float(np.sum(self.upper - self.lower)))

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
