"""Bounded model checking: verify claims over *all* schedules, not samples.

The paper's theorems are universally quantified over asynchronous
schedules.  Randomized and adversarial scheduler sweeps (the test-suite's
bread and butter) sample that space; this subpackage *exhausts* it for
small instances, certifying that

* every maximal execution ends quiescent,
* all terminal states agree (confluence: same outputs, same counters —
  the schedule-invariance the exact complexity formulas imply), and
* user-supplied invariants and the executable lemmas of
  :mod:`repro.core.invariants` hold at the explored states.

Two explorers share that contract:

* :func:`explore_all_schedules` — the trusted reference search.  It
  branches on every non-empty channel at every state, so it visits every
  reachable global state and certifies invariants over all of them.
* :func:`explore_reduced` — the partial-order-reduced, counting-state
  search.  It expands one persistent set of commuting deliveries per
  state where soundness allows, visiting one interleaving per
  Mazurkiewicz trace instead of all of them, and reaches instances the
  reference search cannot (see ``docs/VERIFICATION.md`` for the
  soundness argument and what the reduction does / does not preserve).

``repro verify`` on the command line drives both and reports states
explored, the reduction factor, confluence, and the exact-message-count
certification (e.g. Theorem 1's :math:`n(2\\cdot\\mathsf{ID}_{max}+1)`).
"""

from repro.core.schema import (
    freeze_value,
    node_fingerprint,
    node_state_dict,
    pack_frozen,
    packed_fingerprint,
)
from repro.faults.profile import build_fault_profile
from repro.verification.common import EngineView, VisitedStore
from repro.verification.explorer import (
    ExplorationLimitExceeded,
    ExplorationResult,
    explore_all_schedules,
)
from repro.verification.reduced import (
    REDUCTION_MODES,
    ReducedExplorationResult,
    explore_reduced,
)
from repro.verification.symmetry import GroupElement, RingSymmetry

__all__ = [
    "EngineView",
    "ExplorationLimitExceeded",
    "ExplorationResult",
    "GroupElement",
    "REDUCTION_MODES",
    "ReducedExplorationResult",
    "RingSymmetry",
    "VisitedStore",
    "build_fault_profile",
    "explore_all_schedules",
    "explore_reduced",
    "freeze_value",
    "node_fingerprint",
    "node_state_dict",
    "pack_frozen",
    "packed_fingerprint",
]
