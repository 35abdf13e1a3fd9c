"""Differential tests: the batched fast path is observationally exact.

The batched engine coalesces whole FIFO runs into single scheduler steps
(``docs/PERFORMANCE.md``).  Every batched execution corresponds to a
legal unbatched schedule, and the theorems' observables — leader set,
final states and outputs, termination order, exact per-port message
counts — are schedule-invariant, so batched and unbatched runs must
agree on all of them for *any* pair of schedulers.  These tests check
exactly that over a few hundred randomized (ids, scheduler) cases per
algorithm, plus the fault-injection fallback and the counting-channel
primitive itself.
"""

import random

import pytest

from repro.core.nonoriented import IdScheme, run_nonoriented
from repro.core.terminating import TerminatingNode, run_terminating
from repro.core.warmup import run_warmup
from repro.exceptions import ConfigurationError
from repro.simulator.channel import Channel
from repro.simulator.engine import Engine
from repro.faults import FaultModel, apply_fault_model, total_faults
from repro.simulator.ring import build_oriented_ring
from repro.simulator.scheduler import (
    GlobalFifoScheduler,
    LongestRunScheduler,
    all_standard_schedulers,
)

SCHEDULER_NAMES = sorted(all_standard_schedulers())

# Each case draws its own ring size, IDs, and scheduler from a per-case
# seed, so failures name a single replayable case.
N_CASES_PER_ALGORITHM = 90
N_CASES_NONORIENTED = 60


def _make_case(case: int, max_n: int = 8, max_id: int = 60):
    """Seeded (ids, scheduler_name, seed) tuple for one differential case."""
    rng = random.Random(0xD1FF ^ case)
    n = rng.randint(2, max_n)
    ids = rng.sample(range(1, max_id + 1), n)
    name = rng.choice(SCHEDULER_NAMES)
    return ids, name, rng.randrange(2**31)


def _scheduler(name: str, seed: int):
    """A fresh scheduler instance (schedulers are stateful, one per run)."""
    return all_standard_schedulers(seed=seed)[name]


@pytest.mark.parametrize("case", range(N_CASES_PER_ALGORITHM))
def test_warmup_batched_matches_unbatched(case):
    ids, name, seed = _make_case(case)
    slow = run_warmup(ids, scheduler=_scheduler(name, seed))
    fast = run_warmup(ids, scheduler=_scheduler(name, seed), batched=True)
    assert fast.leaders == slow.leaders
    assert fast.states == slow.states
    assert [node.rho_cw for node in fast.nodes] == [
        node.rho_cw for node in slow.nodes
    ]
    assert fast.total_pulses == slow.total_pulses == len(ids) * max(ids)
    assert dict(fast.run.trace.sends_by_port) == dict(slow.run.trace.sends_by_port)
    assert dict(fast.run.trace.recvs_by_port) == dict(slow.run.trace.recvs_by_port)
    assert fast.run.quiescent and slow.run.quiescent


@pytest.mark.parametrize("case", range(N_CASES_PER_ALGORITHM))
def test_terminating_batched_matches_unbatched(case):
    ids, name, seed = _make_case(case)
    slow = run_terminating(ids, scheduler=_scheduler(name, seed))
    fast = run_terminating(ids, scheduler=_scheduler(name, seed), batched=True)
    assert fast.leaders == slow.leaders == [slow.expected_leader]
    assert fast.outputs == slow.outputs
    assert fast.run.termination_order == slow.run.termination_order
    assert (
        fast.total_pulses
        == slow.total_pulses
        == len(ids) * (2 * max(ids) + 1)
    )
    assert fast.run.trace.total_received == slow.run.trace.total_received
    assert dict(fast.run.trace.sends_by_port) == dict(slow.run.trace.sends_by_port)
    assert dict(fast.run.trace.recvs_by_port) == dict(slow.run.trace.recvs_by_port)
    assert fast.run.quiescently_terminated and slow.run.quiescently_terminated


@pytest.mark.parametrize("case", range(N_CASES_NONORIENTED))
def test_nonoriented_batched_matches_unbatched(case):
    ids, name, seed = _make_case(case, max_n=7)
    rng = random.Random(seed)
    flips = [rng.random() < 0.5 for _ in ids]
    scheme = IdScheme.DOUBLED if case % 3 == 0 else IdScheme.SUCCESSOR
    slow = run_nonoriented(
        ids, flips=flips, scheme=scheme, scheduler=_scheduler(name, seed)
    )
    fast = run_nonoriented(
        ids,
        flips=flips,
        scheme=scheme,
        scheduler=_scheduler(name, seed),
        batched=True,
    )
    assert fast.leaders == slow.leaders
    assert fast.states == slow.states
    assert fast.cw_port_labels == slow.cw_port_labels
    assert fast.orientation_consistent == slow.orientation_consistent
    assert fast.total_pulses == slow.total_pulses
    assert dict(fast.run.trace.sends_by_port) == dict(slow.run.trace.sends_by_port)
    assert dict(fast.run.trace.recvs_by_port) == dict(slow.run.trace.recvs_by_port)


#: Scheduler picks of the batched engine on Theorem 1 rings with
#: IDmax = 10^4: (scheduler, n, picks).  Each pick delivers a whole FIFO
#: run, so the n(2*IDmax+1) pulses take far fewer picks; the per-pulse
#: engine takes one pick per pulse.  The counts are exact, so any lost
#: batching fails here, fast or slow machine alike.
BATCHED_PICKS = [
    (GlobalFifoScheduler, 8, 52_089),
    (LongestRunScheduler, 8, 52_108),
    (GlobalFifoScheduler, 32, 60_239),
    (LongestRunScheduler, 32, 60_501),
]


@pytest.mark.parametrize(
    "scheduler,n,picks",
    BATCHED_PICKS,
    ids=[f"{cls.__name__}-{n}" for cls, n, _ in BATCHED_PICKS],
)
def test_batched_pick_counts_are_pinned(scheduler, n, picks):
    id_max = 10**4
    rng = random.Random(1000 * n + id_max)
    ids = rng.sample(range(1, id_max), n - 1) + [id_max]
    rng.shuffle(ids)
    outcome = run_terminating(ids, scheduler=scheduler(), batched=True)
    assert outcome.total_pulses == n * (2 * id_max + 1)
    assert outcome.leaders == [outcome.expected_leader]
    assert outcome.run.steps == picks


class TestFaultFallback:
    """Faulty channels never enter counting mode: the batched engine runs
    them per-pulse, making faulty batched runs *identical* (not merely
    equivalent) to faulty unbatched runs under the same plan."""

    def _run(self, ids, plan, batched):
        nodes = [TerminatingNode(node_id) for node_id in ids]
        topology = build_oriented_ring(nodes)
        apply_fault_model(topology.network, plan)
        result = Engine(
            topology.network, max_steps=200_000, batched=batched
        ).run()
        return nodes, result, topology.network

    @pytest.mark.parametrize("seed", range(8))
    def test_faulty_runs_identical_batched_or_not(self, seed):
        ids = [4, 9, 2, 7]
        plan = FaultModel(drop_rate=0.15, duplicate_rate=0.15, seed=seed)
        nodes_a, run_a, net_a = self._run(ids, plan, batched=False)
        nodes_b, run_b, net_b = self._run(ids, plan, batched=True)
        assert not any(channel.counting for channel in net_b.channels)
        assert total_faults(net_a) == total_faults(net_b)
        assert run_a.steps == run_b.steps
        assert run_a.total_sent == run_b.total_sent
        assert run_a.termination_order == run_b.termination_order
        assert run_a.quiescence_violations == run_b.quiescence_violations
        assert [node.state for node in nodes_a] == [
            node.state for node in nodes_b
        ]
        assert [node.rho_cw for node in nodes_a] == [
            node.rho_cw for node in nodes_b
        ]
        assert [node.rho_ccw for node in nodes_a] == [
            node.rho_ccw for node in nodes_b
        ]

    def test_clean_channels_still_batch_alongside_nothing_faulty(self):
        # Sanity: with no fault plan the same rings do enable counting.
        nodes = [TerminatingNode(node_id) for node_id in [4, 9, 2, 7]]
        topology = build_oriented_ring(nodes)
        Engine(topology.network, batched=True)
        assert all(channel.counting for channel in topology.network.channels)


class TestCountingChannel:
    """The counting queue is seq-exact: schedulers and the engine cannot
    tell it apart from the tuple deque it replaces."""

    def _channel(self):
        channel = Channel(channel_id=0, src=(0, 0), dst=(1, 1))
        channel.enable_counting()
        return channel

    def test_requires_defective(self):
        channel = Channel(channel_id=0, src=(0, 0), dst=(1, 1), defective=False)
        with pytest.raises(ConfigurationError):
            channel.enable_counting()

    def test_requires_empty_queue(self):
        channel = Channel(channel_id=0, src=(0, 0), dst=(1, 1))
        channel.enqueue(send_seq=1)
        with pytest.raises(ConfigurationError):
            channel.enable_counting()

    def test_dequeue_order_matches_tuple_queue(self):
        counting = self._channel()
        plain = Channel(channel_id=1, src=(0, 0), dst=(1, 1))
        for seq in [3, 4, 5, 9, 10]:
            counting.enqueue(send_seq=seq)
            plain.enqueue(send_seq=seq)
        assert counting.pending == plain.pending == 5
        while plain.pending:
            assert counting.peek_send_seq() == plain.peek_send_seq()
            assert counting.dequeue() == plain.dequeue()
        assert not counting and not plain

    def test_contiguous_runs_merge(self):
        channel = self._channel()
        channel.enqueue_many(first_seq=10, count=3)
        channel.enqueue_many(first_seq=13, count=2)
        assert channel.pending == 5
        assert channel.drain() == 5
        assert channel.pending == 0

    def test_partial_dequeue_then_drain(self):
        channel = self._channel()
        channel.enqueue_many(first_seq=1, count=4)
        assert channel.dequeue() == (1, None)
        assert channel.peek_send_seq() == 2
        assert channel.drain() == 3
        assert not channel.pending

    def test_drain_works_on_plain_defective_queue(self):
        channel = Channel(channel_id=0, src=(0, 0), dst=(1, 1))
        channel.enqueue(send_seq=1)
        channel.enqueue(send_seq=2)
        assert channel.drain() == 2
        assert not channel.pending

    def test_drain_refuses_content_channels(self):
        channel = Channel(channel_id=0, src=(0, 0), dst=(1, 1), defective=False)
        channel.enqueue(send_seq=1, content="payload")
        with pytest.raises(ConfigurationError):
            channel.drain()


class TestBatchedEngineModes:
    def test_record_events_disables_counting(self):
        nodes = [TerminatingNode(node_id) for node_id in [3, 5, 2]]
        topology = build_oriented_ring(nodes)
        engine = Engine(topology.network, batched=True, record_events=True)
        assert not any(channel.counting for channel in topology.network.channels)
        result = engine.run()
        assert result.quiescently_terminated
        assert len(result.trace.delivery_records) == result.trace.total_received

    def test_batched_strict_quiescence_passes_on_clean_run(self):
        nodes = [TerminatingNode(node_id) for node_id in [6, 11, 4, 8]]
        topology = build_oriented_ring(nodes)
        result = Engine(
            topology.network, batched=True, strict_quiescence=True
        ).run()
        assert result.quiescently_terminated
