"""Discrete-event simulator for asynchronous (fully defective) networks.

This subpackage is the substrate on which every algorithm in the
reproduction runs.  It models the content-oblivious computation model of
the paper (Section 2):

* **Asynchrony** — message delays are arbitrary but finite.  The engine
  realizes this by letting a pluggable :class:`~repro.simulator.scheduler.Scheduler`
  choose, at every step, which non-empty channel delivers its next message.
  Quantified over all schedulers, the engine enumerates exactly the
  executions the asynchronous model allows.
* **FIFO channels** — pulses on a single channel are delivered in the order
  they were sent and are never dropped, duplicated, or injected.
* **Full defectiveness** — a :class:`~repro.simulator.channel.Channel` may
  erase message content, turning every message into a contentless *pulse*.
  Baseline (content-carrying) algorithms run on the same engine with
  non-defective channels.
* **Event-driven nodes** — a node acts once at initialization and then only
  in reaction to message deliveries (:class:`~repro.simulator.node.Node`).

The central entry point is :class:`~repro.simulator.engine.Engine`; ring
construction helpers live in :mod:`~repro.simulator.ring`.
"""

from repro.simulator.channel import Channel
from repro.simulator.engine import Engine, RunResult, run_to_quiescence
from repro.simulator.events import DeliveryRecord, SendRecord
from repro.simulator.network import Network
from repro.simulator.node import Node, NodeAPI, PORT_ZERO, PORT_ONE
from repro.simulator.ring import (
    RingTopology,
    all_flip_patterns,
    build_oriented_ring,
    build_nonoriented_ring,
)
from repro.simulator.scheduler import (
    AdversarialLagScheduler,
    ChoiceSequenceScheduler,
    GlobalFifoScheduler,
    LifoScheduler,
    LongestRunScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    Scheduler,
    all_standard_schedulers,
)
from repro.simulator.timeline import (
    render_event_log,
    render_space_time,
    summarize_counters,
)
from repro.simulator.trace import Trace

# fleet imports repro.core lazily (inside functions); importing it last keeps
# the simulator package import-order-independent of the core package.
from repro.simulator.fleet import (
    HAVE_NUMPY,
    AnonymousFleetResult,
    FleetResult,
    FleetRoundView,
    run_anonymous_fleet,
    run_nonoriented_fleet,
    run_terminating_fleet,
    run_warmup_fleet,
    schedule_bit,
)

__all__ = [
    "HAVE_NUMPY",
    "AnonymousFleetResult",
    "FleetResult",
    "FleetRoundView",
    "run_anonymous_fleet",
    "run_nonoriented_fleet",
    "run_terminating_fleet",
    "run_warmup_fleet",
    "schedule_bit",
    "Channel",
    "Engine",
    "RunResult",
    "run_to_quiescence",
    "all_flip_patterns",
    "DeliveryRecord",
    "SendRecord",
    "Network",
    "Node",
    "NodeAPI",
    "PORT_ZERO",
    "PORT_ONE",
    "RingTopology",
    "build_oriented_ring",
    "build_nonoriented_ring",
    "AdversarialLagScheduler",
    "ChoiceSequenceScheduler",
    "GlobalFifoScheduler",
    "LifoScheduler",
    "LongestRunScheduler",
    "RandomScheduler",
    "RoundRobinScheduler",
    "Scheduler",
    "all_standard_schedulers",
    "Trace",
    "render_event_log",
    "render_space_time",
    "summarize_counters",
]
