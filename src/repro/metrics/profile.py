"""Instruction-profile reports (the simulator's Nsight Compute stand-in).

Per-request memory / control-flow instruction averages and conflict counts
of one system, the inputs of Figs. 1, 9 and 12.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class InstructionProfile:
    """Per-request instruction metrics for one system on one workload."""

    system: str
    n_requests: int
    mem_inst: float
    control_inst: float
    alu_inst: float = 0.0
    atomic_inst: float = 0.0
    conflicts: float = 0.0
    traversal_steps: float = 0.0
