"""repro.qa — differential testing, fuzzing and failure minimization.

The paper's claim that all encodings, symmetry variants and engine
configurations are equivalent reformulations makes every instance
self-checking: any SAT/UNSAT disagreement between two (encoding,
symmetry, engine) strategies is a bug by construction.  This package turns that property
into a correctness harness:

* :mod:`repro.qa.generators` — seeded random / adversarial / routing
  instance generators;
* :mod:`repro.qa.differential` — the strategy-matrix runner and
  cross-checker (status agreement, brute-force oracle, audits);
* :mod:`repro.qa.metamorphic` — status-preserving and status-monotone
  transform oracles;
* :mod:`repro.qa.shrink` — the ddmin shrinker and reproducer bundles;
* :mod:`repro.qa.fuzz` — the campaign orchestrator behind ``repro
  fuzz`` and the nightly CI job.

See ``docs/testing.md`` for the test-tier overview and how to replay a
reproducer bundle from a CI artifact.
"""

from .differential import (DEFAULT_SOLVE_LIMITS, DifferentialResult,
                           FailureSignature, StrategyMatrix,
                           recheck_failure, run_differential)
from .fuzz import FuzzFinding, FuzzReport, run_fuzz
from .generators import (INSTANCE_KINDS, MAX_ORACLE_VERTICES, QAInstance,
                         generate_instances)
from .metamorphic import MetamorphicReport, run_metamorphic
from .shrink import (ReproducerBundle, ShrinkResult, load_bundle,
                     shrink_failure, shrink_problem)

__all__ = [
    "DEFAULT_SOLVE_LIMITS", "DifferentialResult", "FailureSignature",
    "StrategyMatrix", "recheck_failure", "run_differential",
    "FuzzFinding", "FuzzReport", "run_fuzz",
    "INSTANCE_KINDS", "MAX_ORACLE_VERTICES", "QAInstance",
    "generate_instances",
    "MetamorphicReport", "run_metamorphic",
    "ReproducerBundle", "ShrinkResult", "load_bundle", "shrink_failure",
    "shrink_problem",
]
