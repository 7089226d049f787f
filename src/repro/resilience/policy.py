"""Checkpoint cadence and placement policy.

The NAM's original mission (paper ref [12]) is accelerating
checkpoint/restart: snapshots stream into fabric-attached memory at
memory-class bandwidth with the parallel filesystem as the durable
fallback.  :class:`CheckpointPolicy` makes both knobs — how often to
snapshot and whether to replicate — an explicit object that the elastic trainer and the
checkpoint manager share, instead of constants buried in a loop.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckpointPolicy:
    """When and where training snapshots are taken.

    * ``every_steps`` — checkpoint cadence in optimiser steps,
    * ``replicate`` — write every snapshot to *both* targets so the
      fallback copy exists (NAM is volatile memory; the PFS replica is what
      survives a NAM loss).

    Snapshots go to the NAM fast path; a restore falls back to the PFS on
    a missing/corrupt NAM copy.
    """

    every_steps: int = 10
    replicate: bool = False

    def __post_init__(self) -> None:
        if self.every_steps < 1:
            raise ValueError("every_steps must be >= 1")

    def should_checkpoint(self, completed_steps: int) -> bool:
        """True when a snapshot is due after ``completed_steps`` steps."""
        if completed_steps < 0:
            raise ValueError("completed_steps must be non-negative")
        return completed_steps % self.every_steps == 0

    def restore_order(self) -> tuple[str, ...]:
        """Targets to try on restore, in order: the NAM, then the PFS."""
        return ("nam", "pfs")
