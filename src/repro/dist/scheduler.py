"""Work-stealing shard scheduler: the distributed layer's import path.

The scheduler lives in :mod:`repro.bench.batch`, beside the job and
result types it runs; :func:`repro.bench.batch.run_batch` is
:func:`run_sharded` with one shard.
"""

from ..bench.batch import ShardedResult, run_sharded, shard_of

__all__ = ["ShardedResult", "run_sharded", "shard_of"]
