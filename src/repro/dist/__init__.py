"""Distributed solving: the work-stealing shard scheduler.

Many jobs, locality-aware queues, crash-tolerant requeue
(:mod:`repro.dist.scheduler`).  One instance on several cores is the
portfolio race, :func:`repro.core.portfolio.run_portfolio`.
"""

from ..bench.batch import BatchJob, BatchJobResult, BatchResult
from .scheduler import ShardedResult, run_sharded, shard_of

__all__ = [
    "BatchJob", "BatchJobResult", "BatchResult",
    "ShardedResult", "run_sharded", "shard_of",
]
