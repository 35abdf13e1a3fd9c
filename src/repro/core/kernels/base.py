"""The transition-kernel protocol: one ``step`` per algorithm.

A *kernel* is the single source of truth for one algorithm's semantics:
an explicit state schema (:mod:`repro.core.schema`) plus a pure
threshold-crossing transition

    ``step(state, port, k_pulses) -> (state, emissions, verdict)``

where ``emissions`` is a tuple of ``(port, count)`` pulse runs to send
and ``verdict`` is ``None`` or the terminal output (Algorithm 2's
``api.terminate`` value).  ``step`` mutates ``state`` in place (states
are cheap mutable records — algorithm node objects, kernel-state
dataclasses, or per-instance fleet rows all duck-type it) and also
returns it for fluent use.

``step`` is *chunk-exact*: calling it once with ``k`` pulses is
bit-identical — same counters, same emissions totals, same verdict, and
the same decision points — to calling it ``k`` times with one pulse.
Each kernel guarantees this by advancing in maximal uniform chunks whose
boundaries sit at every counter value the algorithm's branches test
(absorption IDs, the line-14 trigger, the line-18 exit), so per-pulse
engines, the batched engine, and the fleet's whole-round deliveries all
replay the very same function.

Backends consume kernels through thin adapters:

* the event-driven engine's node classes forward ``on_message`` /
  ``on_pulses`` to ``step`` (see :func:`apply_emissions`);
* the fleet engine calls the scalar ``step`` per node (pure-Python
  backend) or the kernel's ``*_np`` column lowerings (NumPy backend);
* the explorers drive the engine's node classes and fingerprint their
  kernel states through the schema.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

Emission = Tuple[int, int]
Emissions = Tuple[Emission, ...]
StepOutcome = Tuple[Any, Emissions, Optional[Any]]


def apply_emissions(api: Any, emissions: Emissions, verdict: Optional[Any]) -> None:
    """Replay a kernel step's effects through a :class:`NodeAPI`.

    Sends every emitted pulse run (``send_many`` degenerates to per-pulse
    ``send`` on non-counting channels, so single-pulse engines observe
    the exact legacy behavior), then terminates with the verdict — after
    the sends, matching the listing order where every send precedes the
    line-19 output.
    """
    for port, count in emissions:
        api.send_many(port, count)
    if verdict is not None:
        api.terminate(verdict)
