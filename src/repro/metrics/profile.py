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

    @property
    def total_inst(self) -> float:
        return self.mem_inst + self.control_inst + self.alu_inst + self.atomic_inst

    def normalized_to(self, base: "InstructionProfile") -> dict[str, float]:
        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        return {
            "memory_inst": ratio(self.mem_inst, base.mem_inst),
            "control_inst": ratio(self.control_inst, base.control_inst),
            "conflicts": ratio(self.conflicts, base.conflicts),
            "traversal_steps": ratio(self.traversal_steps, base.traversal_steps),
        }

