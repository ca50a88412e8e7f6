"""Metrics: throughput, QoS (response-time variance), instruction profiles,
and per-pass pipeline traces."""

from .profile import InstructionProfile
from .qos import ResponseTimeStats, ShardQoS, response_time_stats
from .throughput import ThroughputResult, combine
from .trace import PassRecord, PipelineTrace, merge_traces

__all__ = [
    "InstructionProfile",
    "PassRecord",
    "PipelineTrace",
    "ResponseTimeStats",
    "ShardQoS",
    "ThroughputResult",
    "combine",
    "merge_traces",
    "response_time_stats",
]
