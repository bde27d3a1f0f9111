"""Closed-form learning-rate schedules for audit plots and config echoes.

Three families: polynomial decay, polynomial decay with a linear warmup
ramp, and cosine annealing with the same ramp.  Warmup runs linearly from 0
to the base rate over ``warmup_epochs``; the base law is then re-parameterized
over the remaining span so the curve is continuous at the joint.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, ValidationError

FAMILIES = ("poly", "poly_warmup", "cosine_warmup")

DEFAULT_EXPONENT = 0.9

# Longest schedule, 100x nnU-Net's 1000-epoch default; a curve holds one
# (epoch, lr) pair per epoch and is built whole before it is printed.
MAX_EPOCHS = 100_000


@dataclass(frozen=True)
class ScheduleSpec:
    family: str
    lr0: float
    max_epochs: int
    exponent: float = DEFAULT_EXPONENT
    warmup_epochs: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if not 0 < self.lr0 < math.inf:
            raise ConfigError(f"lr0 must be positive and finite, got {self.lr0}")
        if not 1 <= self.max_epochs <= MAX_EPOCHS:
            raise ConfigError(f"max_epochs must be in 1..{MAX_EPOCHS}, got {self.max_epochs}")
        if not 0 < self.exponent < math.inf:
            raise ConfigError(f"exponent must be positive and finite, got {self.exponent}")
        if not 0 <= self.warmup_epochs < self.max_epochs:
            raise ConfigError(
                f"warmup_epochs must be in [0, max_epochs), got {self.warmup_epochs}"
            )


def lr_at(spec: ScheduleSpec, epoch: int) -> float:
    """Learning rate at an integer epoch in [0, max_epochs]."""
    if not 0 <= epoch <= spec.max_epochs:
        raise ValidationError(
            f"epoch must be in [0, {spec.max_epochs}], got {epoch}"
        )
    if spec.family == "poly":
        return spec.lr0 * (1.0 - epoch / spec.max_epochs) ** spec.exponent
    if spec.warmup_epochs > 0 and epoch < spec.warmup_epochs:
        return spec.lr0 * epoch / spec.warmup_epochs
    t = (epoch - spec.warmup_epochs) / (spec.max_epochs - spec.warmup_epochs)
    if spec.family == "poly_warmup":
        return spec.lr0 * (1.0 - t) ** spec.exponent
    return spec.lr0 * 0.5 * (1.0 + math.cos(math.pi * t))


def schedule_curve(spec: ScheduleSpec) -> tuple[tuple[int, float], ...]:
    """The full (epoch, lr) sequence from 0 through max_epochs."""
    return tuple((e, lr_at(spec, e)) for e in range(spec.max_epochs + 1))
