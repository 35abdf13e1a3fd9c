"""repro — Content-Oblivious Leader Election on Rings, reproduced.

A faithful, executable reproduction of Frei, Gelles, Ghazy & Nolin,
*Content-Oblivious Leader Election on Rings* (PODC/DISC 2024,
arXiv:2405.03646): leader election over asynchronous rings whose channels
corrupt every message down to a contentless *pulse*.

Quick start::

    from repro import elect_leader_oriented
    report = elect_leader_oriented([3, 7, 5, 2])
    assert report.leader == 1                      # index of ID 7
    assert report.total_pulses == 4 * (2 * 7 + 1)  # Theorem 1, exactly

Package layout:

* :mod:`repro.core` — the paper's algorithms (1-4), invariants, lower
  bound, composition.
* :mod:`repro.simulator` — the asynchronous fully-defective network
  substrate (channels, schedulers, engine).
* :mod:`repro.defective` — content-over-pulses transport (the Corollary 5
  substrate).
* :mod:`repro.baselines` — classic content-carrying ring elections.
* :mod:`repro.ids` — Algorithm 4's random ID sampling.
* :mod:`repro.analysis` — closed forms and statistics.
* :mod:`repro.verification` — exhaustive and statistical model checking.
"""

from repro.core.anonymous import (
    AnonymousOutcome,
    Prop19Outcome,
    run_anonymous,
    run_prop19,
)
from repro.core.common import LeaderState
from repro.core.composition import ComposedOutcome, run_composed
from repro.core.election import (
    ElectionReport,
    elect_leader_anonymous,
    elect_leader_nonoriented,
    elect_leader_oriented,
)
from repro.core.lower_bound import (
    lower_bound_pulses,
    solitude_pattern,
    solitude_patterns,
)
from repro.core.nonoriented import IdScheme, run_nonoriented
from repro.core.terminating import run_terminating
from repro.core.warmup import run_warmup
from repro.defective.simulation import run_defective_computation
from repro.exceptions import ReproError
from repro.ids.sampling import sample_ids

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "AnonymousOutcome",
    "ComposedOutcome",
    "ElectionReport",
    "IdScheme",
    "LeaderState",
    "Prop19Outcome",
    "ReproError",
    "elect_leader_anonymous",
    "elect_leader_nonoriented",
    "elect_leader_oriented",
    "lower_bound_pulses",
    "run_anonymous",
    "run_composed",
    "run_defective_computation",
    "run_nonoriented",
    "run_prop19",
    "run_terminating",
    "run_warmup",
    "sample_ids",
    "solitude_pattern",
    "solitude_patterns",
]
