"""Configuration dataclasses for the device model, tree, and Eirene.

Configurations are frozen dataclasses validated at construction; invalid
combinations raise :class:`~repro.errors.ConfigError` eagerly rather than
failing deep inside a kernel.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class DeviceConfig:
    """Parameters of the simulated GPU.

    Defaults model an NVIDIA A100 (SXM4 40GB): 108 SMs, 1.41 GHz boost
    clock, warps of 32 threads, 128-byte memory transaction segments.
    The cost weights are the calibrated translation from counted events to
    cycles; they are shared by every system under test (Eirene and both
    baselines), so relative results never depend on per-system constants.
    """

    num_sms: int = 108
    warp_size: int = 32
    clock_ghz: float = 1.41
    segment_bytes: int = 128
    word_bytes: int = 8
    #: cycles to issue one warp instruction (arithmetic / control).
    cycles_per_inst: float = 1.0
    #: amortized cycles per 128B global-memory transaction (latency hiding
    #: by the warp scheduler is folded in; an A100 hides most of the ~400
    #: cycle raw latency at high occupancy).
    cycles_per_mem_transaction: float = 8.0
    #: extra cycles charged per atomic operation that lost its CAS/contended.
    cycles_per_atomic_conflict: float = 32.0
    #: global-memory bandwidth (A100 40GB: 1555 GB/s); bounds the vector
    #: engine's memory-side time as transactions / (bandwidth / segment).
    mem_bandwidth_gbps: float = 1555.0

    def __post_init__(self) -> None:
        if self.num_sms <= 0:
            raise ConfigError(f"num_sms must be positive, got {self.num_sms}")
        if self.warp_size <= 0 or self.warp_size & (self.warp_size - 1):
            raise ConfigError(
                f"warp_size must be a positive power of two, got {self.warp_size}"
            )
        if self.clock_ghz <= 0:
            raise ConfigError(f"clock_ghz must be positive, got {self.clock_ghz}")
        if self.word_bytes <= 0:
            raise ConfigError(f"word_bytes must be positive, got {self.word_bytes}")
        if self.segment_bytes <= 0 or self.segment_bytes % self.word_bytes:
            raise ConfigError(
                "segment_bytes must be a positive multiple of word_bytes, "
                f"got {self.segment_bytes}"
            )
        if self.mem_bandwidth_gbps <= 0:
            raise ConfigError(
                f"mem_bandwidth_gbps must be positive, got {self.mem_bandwidth_gbps}"
            )

    @property
    def words_per_segment(self) -> int:
        return self.segment_bytes // self.word_bytes

    @property
    def clock_hz(self) -> float:
        return self.clock_ghz * 1e9

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert device cycles (per-SM) to wall-clock seconds."""
        return cycles / self.clock_hz

    @property
    def mem_transactions_per_second(self) -> float:
        """Peak 128-byte transactions the memory system can retire."""
        return self.mem_bandwidth_gbps * 1e9 / self.segment_bytes

    @property
    def thread_slots(self) -> int:
        """Thread-instructions retired per cycle device-wide (one warp
        instruction per SM per cycle × warp width)."""
        return self.num_sms * self.warp_size


@dataclass(frozen=True)
class TreeConfig:
    """Shape of the B+tree.

    ``fanout`` is the maximum number of keys per node (the paper uses a
    "regular B+tree"; GPU B-trees typically pick node sizes that fill one or
    two memory segments — fanout 16 puts a node at 38 words = 304 bytes,
    i.e. ~2.4 segments).
    """

    fanout: int = 16
    #: capacity of the node arena as a multiple of the minimum node count
    #: needed for the initial bulk build (headroom for splits).
    arena_headroom: float = 2.0

    def __post_init__(self) -> None:
        if self.fanout < 4:
            raise ConfigError(f"fanout must be >= 4, got {self.fanout}")
        if self.arena_headroom < 1.0:
            raise ConfigError("arena_headroom must be >= 1.0")


@dataclass(frozen=True)
class EireneConfig:
    """Feature flags and tunables for Eirene (§4, §5, §7 of the paper)."""

    #: §5 locality-aware warp reorganization (iteration warps + RF field).
    enable_locality: bool = True
    #: §4.2 split query/update requests into separate kernels. When False
    #: the pipeline selects one *unified* kernel pass instead
    #: (:func:`repro.core.pipeline.eirene_pass_plan`): queries share the
    #: launch with writers, lose the NTG search, and must read their leaf
    #: inside an STM leaf-region transaction (ablation of the paper's
    #: query/update kernel split).
    enable_kernel_partition: bool = True
    #: §4.2 retries of unprotected inner traversal before STM protection.
    stm_retry_threshold: int = 3
    #: §5 number of request groups folded into one iteration warp.
    rgs_per_iteration_warp: int = 4
    #: use the RF field to choose vertical vs horizontal traversal (§5);
    #: when False, iteration warps always traverse horizontally (ablation).
    enable_rf_decision: bool = True
    #: §7: apply Harmonia's narrowed-thread-group search in the query
    #: kernel — warp sub-groups cooperate on one node's key row (one
    #: coalesced row load + a log2(fanout) reduction per visit). Vector
    #: engine only; the SIMT engine keeps per-lane scans.
    enable_narrowed_thread_groups: bool = True

    def __post_init__(self) -> None:
        if self.stm_retry_threshold < 0:
            raise ConfigError("stm_retry_threshold must be >= 0")
        if self.rgs_per_iteration_warp < 1:
            raise ConfigError("rgs_per_iteration_warp must be >= 1")

    def replace(self, **kwargs: object) -> "EireneConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)


@dataclass(frozen=True)
class ExecutionConfig:
    """How the *simulator itself* executes — never what it computes.

    The one setting is observationally neutral: counters, arena contents,
    lane results and timing-model outputs are bit-for-bit identical either
    way. It only trades interpreter wall-clock time, so goldens and figures
    can never depend on it.

    ``REPRO_SLOW_PATH=1`` in the environment forces the reference
    interpreter (``vectorize_slots=False``) regardless of programmatic
    settings — the escape hatch for bisecting a suspected fast-path bug.
    """

    #: use the optimized :meth:`~repro.simt.Warp.step` path (batched
    #: counter flushes, barrier-wait lane parking) and lower Eirene's
    #: unprotected query-kernel launches and split-free update-kernel
    #: launches. Read when a warp or launch is built; attaching an analysis
    #: probe always selects the reference interpreter instead.
    vectorize_slots: bool = True


def _execution_config_from_env() -> ExecutionConfig:
    if os.environ.get("REPRO_SLOW_PATH", "") == "1":
        return ExecutionConfig(vectorize_slots=False)
    return ExecutionConfig()


_execution: ExecutionConfig | None = None


def execution_config() -> ExecutionConfig:
    """The process-wide :class:`ExecutionConfig` (lazily env-initialized)."""
    global _execution
    if _execution is None:
        _execution = _execution_config_from_env()
    return _execution


def set_execution_config(cfg: ExecutionConfig | None) -> ExecutionConfig:
    """Install ``cfg`` process-wide; ``None`` re-reads the environment.

    Returns the previous configuration so tests can restore it. The
    ``REPRO_SLOW_PATH=1`` escape hatch wins even over programmatic
    settings — when set, ``vectorize_slots`` is forced off.
    """
    global _execution
    previous = execution_config()
    if cfg is None or os.environ.get("REPRO_SLOW_PATH", "") == "1":
        cfg = _execution_config_from_env()
    _execution = cfg
    return previous


#: Configuration matching the paper's "+ Combining" ablation bar (Fig. 11):
#: combining-based concurrent control on, locality reorganization off.
COMBINING_ONLY = EireneConfig(enable_locality=False)

#: Full Eirene configuration (all optimizations on).
FULL_EIRENE = EireneConfig()
