"""Differential tests: the election front doors equal the per-pulse runners.

``elect_leader_oriented``, ``elect_leader_nonoriented`` and
``elect_leader_ear`` run their runner with ``batched=True``: the
adversary picks a channel and the engine delivers that channel's whole
FIFO run.  Each test runs a front door twice, once as it is and once
with its runner forced onto the per-pulse engine (``batched=False``),
under the same fresh scheduler, and requires the two reports to be
equal field by field (leader, states, ``total_pulses``,
``claimed_bound``, ``terminated``, ``quiescent``, ``cw_ports``), the two
traces to agree port by port, and neither run to record a quiescence
violation.  The cases are 60 seeded rings or graphs, each under every
standard scheduler.
"""

import random

import pytest

from repro.core import ear_election, election
from repro.core.nonoriented import IdScheme
from repro.graphs.connectivity import Graph
from repro.graphs.samples import nested_ears, random_ear_composition, theta_graph
from repro.simulator.scheduler import all_standard_schedulers

SCHEDULER_NAMES = sorted(all_standard_schedulers())
N_CASES = 60


def _ring(case: int):
    """Seeded (ids, flips) for one ring case."""
    rng = random.Random(0xF00D ^ case)
    n = rng.randint(2, 8)
    ids = rng.sample(range(1, 61), n)
    return ids, [rng.random() < 0.5 for _ in ids]


def _graph(case: int):
    """Seeded (graph, ids) for one 2-edge-connected case."""
    rng = random.Random(0xEA2 ^ case)
    graph = rng.choice(
        [
            lambda: theta_graph(),
            lambda: theta_graph(0, 1, 2),
            lambda: nested_ears(rng.randint(1, 3)),
            lambda: Graph.ring(rng.randint(3, 7)),
            lambda: random_ear_composition(rng.randrange(2**31)),
        ]
    )()
    return graph, rng.sample(range(1, 41), graph.n)


def _run(monkeypatch, module, runner, door, scheduler, per_pulse):
    """``door(scheduler)``, with ``module.runner`` forced per-pulse if
    asked; returns the ``batched`` flag the runner ran with, the report
    and the runner's outcome."""
    real = getattr(module, runner)
    seen = {}

    def spy(*args, **kwargs):
        if per_pulse:
            kwargs["batched"] = False
        seen["batched"] = kwargs.get("batched", False)
        seen["outcome"] = real(*args, **kwargs)
        return seen["outcome"]

    monkeypatch.setattr(module, runner, spy)
    report = door(scheduler)
    monkeypatch.undo()
    return seen["batched"], report, seen["outcome"]


def _both_ways(monkeypatch, module, runner, door, name, seed):
    """The front door as it runs, then per-pulse, each under a fresh
    scheduler; checks the two agree and returns the front door's report."""
    (fast_batched, fast, fast_out), (slow_batched, slow, slow_out) = (
        _run(
            monkeypatch,
            module,
            runner,
            door,
            all_standard_schedulers(seed=seed)[name],
            per_pulse,
        )
        for per_pulse in (False, True)
    )
    assert fast_batched is True and slow_batched is False
    assert fast == slow
    assert fast.leader is not None
    assert fast.total_pulses == fast.claimed_bound
    assert dict(fast_out.run.trace.sends_by_port) == dict(
        slow_out.run.trace.sends_by_port
    )
    assert dict(fast_out.run.trace.recvs_by_port) == dict(
        slow_out.run.trace.recvs_by_port
    )
    assert fast_out.run.quiescence_violations == []
    assert slow_out.run.quiescence_violations == []
    return fast


@pytest.mark.parametrize("name", SCHEDULER_NAMES)
@pytest.mark.parametrize("case", range(N_CASES))
def test_oriented_front_door_matches_per_pulse(monkeypatch, case, name):
    ids, _ = _ring(case)
    report = _both_ways(
        monkeypatch,
        election,
        "run_terminating",
        lambda scheduler: election.elect_leader_oriented(ids, scheduler=scheduler),
        name,
        case,
    )
    assert report.terminated


@pytest.mark.parametrize("scheme", list(IdScheme))
@pytest.mark.parametrize("name", SCHEDULER_NAMES)
@pytest.mark.parametrize("case", range(N_CASES))
def test_nonoriented_front_door_matches_per_pulse(monkeypatch, case, name, scheme):
    ids, flips = _ring(case)
    report = _both_ways(
        monkeypatch,
        election,
        "run_nonoriented",
        lambda scheduler: election.elect_leader_nonoriented(
            ids, flips=flips, scheme=scheme, scheduler=scheduler
        ),
        name,
        case,
    )
    assert report.cw_ports is not None


@pytest.mark.parametrize("name", SCHEDULER_NAMES)
@pytest.mark.parametrize("case", range(N_CASES))
def test_ear_front_door_matches_per_pulse(monkeypatch, case, name):
    graph, ids = _graph(case)
    report = _both_ways(
        monkeypatch,
        ear_election,
        "run_ear_election",
        lambda scheduler: ear_election.elect_leader_ear(
            graph, ids, scheduler=scheduler
        ),
        name,
        case,
    )
    assert report.leader == ids.index(max(ids))
