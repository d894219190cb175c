"""CrowdFill servers (paper section 3).

- :mod:`repro.server.backend` — the back-end server: master candidate
  table, message broadcast, action trace, Central Client hosting, and
  completion detection (sections 3.3, 4).
- :mod:`repro.server.frontend` — the front-end server: a REST-style API
  over table specifications, data collection control, and worker
  payment (section 3.2), persisting to the document store.
- :mod:`repro.server.shard` — the sharded multi-backend: key-group
  partitioning across full-replica shards behind a shard-oblivious
  router, with Sutra/Shapiro-style decentralised commit and batched
  delta-compressed shard-to-shard exchange.
"""

from repro.server.backend import (
    BackendServer,
    BootstrapState,
    ClientSession,
    ResyncResult,
)
from repro.server.shard import (
    ExchangeBatch,
    ShardCommit,
    ShardedBackend,
    ShardExchangeError,
    ShardRouter,
    ShardServer,
    decode_exchange,
    encode_exchange,
)

__all__ = [
    "BackendServer",
    "BootstrapState",
    "ClientSession",
    "ResyncResult",
    "ExchangeBatch",
    "ShardCommit",
    "ShardedBackend",
    "ShardExchangeError",
    "ShardRouter",
    "ShardServer",
    "decode_exchange",
    "encode_exchange",
    "FrontendServer",
    "ApiError",
]


def __getattr__(name):
    # FrontendServer pulls in pay/marketplace; import lazily.
    if name in ("FrontendServer", "ApiError"):
        from repro.server import frontend

        return getattr(frontend, name)
    raise AttributeError(f"module 'repro.server' has no attribute {name!r}")
