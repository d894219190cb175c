"""Durable crash-recovery: shard WAL + cut-addressed checkpoints.

See :mod:`repro.durability.wal` for the log/checkpoint formats and
``DESIGN.md`` ("Durability & crash recovery") for the recovery
protocol invariants.
"""

from repro.durability.wal import (
    CHECKPOINT_VERSION,
    DurabilityConfig,
    DurableLog,
    DurableStore,
    WalCorruptionError,
    WalPosition,
    WalRecord,
    decode_checkpoint,
    encode_checkpoint,
    wal_record_from_dict,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "DurabilityConfig",
    "DurableLog",
    "DurableStore",
    "WalCorruptionError",
    "WalPosition",
    "WalRecord",
    "decode_checkpoint",
    "encode_checkpoint",
    "wal_record_from_dict",
]
