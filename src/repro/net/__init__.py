"""Simulated network: reliable, in-order message channels.

This package stands in for the paper's Socket.IO persistent connections
(section 3.3).  The formal model's single assumption — reliable, in-order
delivery between the server and each client (section 2.4) — is enforced
structurally: each unidirectional channel is a FIFO whose delivery times
are monotonically non-decreasing even under random latency.

:mod:`repro.net.faults` deliberately breaks that assumption in a
controlled, seedable way (disconnect/reconnect windows, server-side
partitions, latency spikes) so the session/resync machinery that
restores it can be stress-tested.

Payloads are delivered by reference, so every one must be an immutable
value; crowdlint's ESC001 (``tools/crowdlint/escapes.py``) proves
this for every send site statically.
"""

from repro.net.faults import (
    DisconnectWindow,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    LatencySpike,
    PartitionWindow,
    ShardCrashWindow,
    ShardPartitionWindow,
    fault_plan_from_dict,
)
from repro.net.latency import (
    ConstantLatency,
    LatencyModel,
    LogNormalLatency,
    UniformLatency,
)
from repro.net.network import (
    DroppedMessage,
    Endpoint,
    FaultFilter,
    Network,
    NetworkStats,
)

__all__ = [
    "ConstantLatency",
    "LatencyModel",
    "LogNormalLatency",
    "UniformLatency",
    "DisconnectWindow",
    "DroppedMessage",
    "Endpoint",
    "FaultFilter",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "LatencySpike",
    "Network",
    "NetworkStats",
    "PartitionWindow",
    "ShardCrashWindow",
    "ShardPartitionWindow",
    "fault_plan_from_dict",
]
