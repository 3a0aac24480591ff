"""Parallel sharded landscape sweeps (§7 at scale).

Public surface:

* :class:`~repro.parallel.spec.SweepSpec` — pickle-able description of a
  sweep a worker can rebuild from scratch;
* :func:`~repro.parallel.shard.shard_addresses` /
  :data:`~repro.parallel.shard.STRATEGIES` — deterministic partitioning;
* :func:`~repro.parallel.engine.run_sharded_sweep` — the engine: fan out,
  analyze, merge back to one deterministic
  :class:`~repro.core.report.LandscapeReport`;
* :class:`~repro.parallel.supervisor.SupervisorConfig` /
  :func:`~repro.parallel.supervisor.run_supervised_sweep` — the sweep
  supervisor behind the multi-process path: heartbeat-monitored workers,
  respawn-with-resume, poison-shard bisection.

Both sweep entry points accept ``events_path`` to write a
``repro.events/1`` flight-recorder journal (:mod:`repro.obs.events`) —
the live feed behind ``repro status`` / ``repro tail`` and the
``--serve`` HTTP endpoints.

See ``docs/parallelism.md`` for the byte-identity guarantees per shard
strategy and ``docs/robustness.md`` for the supervision failure model.
"""

from repro.parallel.engine import (
    ShardedSweepResult,
    ShardStats,
    run_sharded_sweep,
)
from repro.parallel.shard import STRATEGIES, shard_addresses
from repro.parallel.spec import SweepSpec
from repro.parallel.supervisor import (
    SupervisionStats,
    SupervisorConfig,
    run_supervised_sweep,
)

__all__ = [
    "STRATEGIES",
    "ShardStats",
    "ShardedSweepResult",
    "SupervisionStats",
    "SupervisorConfig",
    "SweepSpec",
    "run_sharded_sweep",
    "run_supervised_sweep",
    "shard_addresses",
]
