"""Device cost model: counted events → cycles → seconds.

Two consumers:

* the SIMT engine already produces cycles directly (its per-step charges use
  :class:`~repro.config.DeviceConfig` weights); this module only converts to
  seconds and adds host-pipeline phases (sort, combine scans) that run as
  separate device launches in the real system;
* the vector engine produces *event counts* (node visits, retries, lock
  spins, scan/sort passes); :class:`CostModel` converts them with per-event
  weights that are **shared across all systems** and can be recalibrated
  from SIMT measurements (:mod:`repro.simt.calibration`), so no system gets
  a private fudge factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import DeviceConfig


@dataclass
class PhaseTime:
    """Seconds spent per pipeline phase of one batch."""

    sort: float = 0.0
    combine: float = 0.0
    query_kernel: float = 0.0
    update_kernel: float = 0.0
    result_cal: float = 0.0
    other: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.sort
            + self.combine
            + self.query_kernel
            + self.update_kernel
            + self.result_cal
            + self.other
        )


@dataclass
class CostModel:
    """Event → cycle weights for the vector engine.

    The defaults were calibrated once against the SIMT engine on the default
    workload (see ``repro/simt/calibration.py``; EXPERIMENTS.md records the
    run): a node visit in a fanout-16 tree costs roughly a header load plus
    half a key row of loads plus the comparison/branch chain.
    """

    device: DeviceConfig = field(default_factory=DeviceConfig)
    #: per node visited during traversal (loads + compares + branches)
    cycles_per_node_visit: float = 40.0
    #: per leaf lookup / leaf mutation slot operation
    cycles_per_leaf_op: float = 30.0
    #: per STM-protected word access (ownership check + version read)
    cycles_per_stm_access: float = 20.0
    #: per lock acquire/release pair including expected spinning
    cycles_per_lock_pair: float = 24.0
    #: per retry/abort: wasted work is re-charged by the caller; this is the
    #: fixed rollback/bookkeeping surcharge
    cycles_per_abort: float = 60.0
    #: per element per radix pass (CUB onesweep-class sort)
    cycles_per_sort_element_pass: float = 0.55
    #: per element for one scan/compact pass over the batch
    cycles_per_scan_element: float = 0.30
    #: per combined (unissued) request during RESULT_CAL
    cycles_per_result_cal: float = 4.0

    def seconds(self, cycles: float) -> float:
        """Device-wide seconds for ``cycles`` of *aggregate* work.

        Aggregate cycles are divided across SMs: the vector engine counts
        total work, the device executes it ``num_sms``-wide.
        """
        return cycles / (self.device.num_sms * self.device.clock_hz)
