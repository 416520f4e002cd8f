"""End-to-end smoke check for distributed solving (CI's ``dist-smoke``).

Run with ``python -m repro.dist.smoke`` (or ``make dist-smoke``).  One
asserted scenario, with a deterministic fault seed: a tiny corpus over
2 shards under two strategies, with an injected ``crash@dist_shard``
killing every attempt of one of them.  The scheduler must requeue each
crashed job to its home shard, settle it as ERROR once its attempts run
out, and still settle every job of the other strategy with the correct
verdict.
"""

from __future__ import annotations

import sys

from ..core.strategy import Strategy
from ..qa.generators import conflict_instances
from ..reliability.faults import FaultPlan
from ..reliability.quarantine import QuarantinePolicy
from ..sat.status import SolveStatus
from . import BatchJob, run_sharded

STRATEGY = Strategy(encoding="muldirect", symmetry="s1")
#: The same encoding under a symmetry heuristic the crash fault's
#: ``*/s1`` match does not reach.
UNFAULTED = Strategy(encoding="muldirect", symmetry="b1")

#: Small but non-trivial planted-clique UNSAT instances (sub-second
#: each; the point is the machinery, not the solving).
def _corpus():
    return [
        (inst.name, inst.problem)
        for inst in conflict_instances(7, 4, num_vertices=24,
                                       edge_probability=0.4, clique_size=5)
    ]


def _check(label: str, condition: bool, detail: str = "") -> None:
    if not condition:
        print(f"dist-smoke FAILED: {label} {detail}", file=sys.stderr)
        sys.exit(1)
    print(f"  {label}: OK {detail}")


def main() -> int:
    print("dist-smoke: shard crash recovery")
    corpus = _corpus()
    jobs = [BatchJob(name, problem, strategy)
            for name, problem in corpus
            for strategy in (STRATEGY, UNFAULTED)]
    # Every s1 attempt at the dist_shard site crashes, its retry too;
    # the b1 jobs share the workers and must lose nothing to them.
    result = run_sharded(
        jobs, num_shards=2, workers_per_shard=1,
        quarantine=QuarantinePolicy(threshold=5, base_backoff=0.05,
                                    max_backoff=0.2),
        faults=FaultPlan.parse("seed=3; crash@dist_shard:match=*/s1"))
    _check("all jobs settled",
           len(result.results) == len(jobs) and not result.pending,
           f"({len(result.results)}/{len(jobs)}, "
           f"pending {len(result.pending)})")
    by_strategy = {label: [r for r in result.results
                           if r.job.strategy.label == label]
                   for label in (STRATEGY.label, UNFAULTED.label)}
    _check("zero lost jobs: every unfaulted verdict correct",
           all(r.status is SolveStatus.UNSAT
               for r in by_strategy[UNFAULTED.label]),
           str({str(k): v for k, v in result.status_counts().items()}))
    _check("every crashed job is ERROR after exactly 2 attempts",
           all(r.status is SolveStatus.ERROR and r.attempts == 2
               for r in by_strategy[STRATEGY.label]))
    requeued = sum(s["requeued"] for s in result.shards.values())
    _check("crashes were requeued", requeued >= len(corpus),
           f"({requeued} requeues)")

    print("dist-smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
