"""Pinned certificates of the reduced explorer.

The differential tests compare the reduced explorer against the
unreduced one on terminal verdicts only, so a change in *how* the
reduced search walks the space — which states it keys, how many
transitions it takes, which canonical terminals it reports — goes
unnoticed there.  This module pins the sha256 of every certificate the
reduced explorer issues on a small grid (row × reduction mode).  A
refactor of the explorer's state handling that changes any visited
count, terminal fingerprint or canonical key changes a digest here.

Pinned fields: ``summary()``, ``terminal_node_fingerprints``,
``terminal_outputs``, ``terminal_total_sent`` and
``canonical_terminal_fingerprints``.  Cells the explorer refuses
(symmetry off the ring builder, symmetry under faults) are pinned as
refusals.

The explorer's successor states share every node object but the
receiver with their parent (copy-on-write).  The isolation tests check
that no delivery writes through a shared node: after an exploration the
factory's own nodes, which the root state owns, still equal a fresh
network's nodes after ``on_init`` — including nodes holding mutable
containers (the ear-election lists, a Proposition 19 node's RNG).
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core.anonymous import Prop19Node
from repro.core.ear_election import EarElectionNode
from repro.core.invariants import ALGORITHM2_HOOKS
from repro.core.kernels.ear import build_routing, virtual_ids
from repro.core.nonoriented import NonOrientedNode
from repro.core.schema import freeze_value, node_state_dict, pack_frozen
from repro.core.terminating import TerminatingNode
from repro.core.warmup import WarmupNode
from repro.exceptions import ConfigurationError
from repro.faults import FaultModel, apply_fault_model
from repro.graphs.samples import theta_graph
from repro.simulator.node import NodeAPI
from repro.simulator.ring import build_nonoriented_ring, build_oriented_ring
from repro.verification import REDUCTION_MODES, explore_reduced


def _oriented(node_cls, ids):
    def build():
        return build_oriented_ring([node_cls(i) for i in ids]).network

    return build


def _nonoriented(ids, flips):
    def build():
        return build_nonoriented_ring(
            [NonOrientedNode(i) for i in ids], flips=flips
        ).network

    return build


def _ear(graph, ids):
    """The ear-election network ``test_ear_election.py`` certifies."""
    routing = build_routing(graph)
    vids = virtual_ids(ids, routing)

    def build():
        nodes = []
        for vertex in range(graph.n):
            out_ports, in_route = routing.node_tables(vertex)
            node_vids = tuple(vids[pos] for pos in routing.occurrences[vertex])
            nodes.append(EarElectionNode(node_vids, out_ports, in_route))
        return routing.topology.wire(nodes)

    return build


def _faulted(ids, model):
    def build():
        network = build_oriented_ring([WarmupNode(i) for i in ids]).network
        apply_fault_model(network, model)
        return network

    return build


#: Grid rows: label → (factory, explore_reduced keyword arguments).
ROWS = {
    "warmup-4": (_oriented(WarmupNode, [2, 3, 1, 4]), {}),
    "warmup-dup": (_oriented(WarmupNode, [1, 2, 1, 2]), {}),
    "terminating-4-hooks": (
        _oriented(TerminatingNode, [2, 3, 1, 4]),
        {"invariant_hooks": ALGORITHM2_HOOKS},
    ),
    "nonoriented-3-duals": (
        _nonoriented([1, 2, 3], [False, True, False]),
        {"include_duals": True},
    ),
    "ear-theta": (_ear(theta_graph(0, 1, 1), [2, 4, 1, 3]), {}),
    "faulted-warmup-3": (
        _faulted([1, 2, 3], FaultModel(drop_rate=0.2, duplicate_rate=0.2, seed=11)),
        {},
    ),
}

CELLS = [(row, mode) for row in ROWS for mode in REDUCTION_MODES]

#: Cells the explorer refuses: symmetry needs the ring builder's wiring
#: and is unsound under a fault profile.
REFUSED = {
    (row, mode)
    for row in ("ear-theta", "faulted-warmup-3")
    for mode in ("symmetry", "full")
}


def _explore(row, mode):
    factory, kwargs = ROWS[row]
    return explore_reduced(factory, reduction=mode, **kwargs)


def _digest(result):
    certificate = (
        result.summary(),
        result.terminal_node_fingerprints,
        result.terminal_outputs,
        result.terminal_total_sent,
        result.canonical_terminal_fingerprints,
    )
    return hashlib.sha256(pack_frozen(freeze_value(certificate))).hexdigest()


#: sha256 of each certificate, per (row, reduction) cell.
PINS = {
    "warmup-4/ample":
        "2b14c559e056101a40f6eb46e6480bf323078948fff59db4e92f2f121f8916f0",
    "warmup-4/sleep":
        "44794043742d67afb6095f9d39935b295f1012d8d2006b6a112a851e652082d6",
    "warmup-4/symmetry":
        "4dc65fd05ba92e3e5b4c8d30fc709eb82b942b6eeac43fe67495b806f22845e6",
    "warmup-4/full":
        "1dcae5c890cc485e51d39abb622a8396c90c8cf96868f3bdab0793c99aea5986",
    "warmup-dup/ample":
        "5a550130d2a3cd1a1d96ad9423c77a288a90491e243e96c69587e672896f732c",
    "warmup-dup/sleep":
        "904a938085b5079efc51367cf376d374d35d10ff92a4df352e6852aff7bc1593",
    "warmup-dup/symmetry":
        "9333f82a6bfddde2f77dc2ee49536a8c879749e4271371238aa5888ea4f49526",
    "warmup-dup/full":
        "369dd350a53298ebe069e1a5ec2fd624893535f754ad7420431220f0d321c6ed",
    "terminating-4-hooks/ample":
        "e6b5129c1de966d88c4502e5a99117f7d81168da1be0240f6b8f1729a1a7a9bb",
    "terminating-4-hooks/sleep":
        "894e63494c59596b57f9d0dc9076a60411204d5edc4086d59dbae34f41a1976e",
    "terminating-4-hooks/symmetry":
        "964a514dcb2dcf682edaaa8ba2d3220a9072ea26707fedc8324720031d07cc5f",
    "terminating-4-hooks/full":
        "079c23e31f827548e17023de4afc32050fa9c692f14daad0825a741fcbea8aba",
    "nonoriented-3-duals/ample":
        "d031212d961e0368fce821b1d13c5d76a1b01ec23f93af4a73cf6dd57c34eb2f",
    "nonoriented-3-duals/sleep":
        "bba6238f4c48e6d3a7caca792fb13a8396e30f3c0992a8f999ff47b55ace4e59",
    "nonoriented-3-duals/symmetry":
        "493687e445b809ee5133817ee95221a8195cf923186151dc169cfb529d1b61ce",
    "nonoriented-3-duals/full":
        "d2c37bf0b4e3e75ebfac3451c4e04653d3567da56b2e23bba8f6811de4b813aa",
    "ear-theta/ample":
        "bf61a09998ff4430d2581f5437221207ea9d0bf73515a89a6e2df2abda7e1b94",
    "ear-theta/sleep":
        "6ed733eabc480bd9955df959e1a0b96fd13f2c7943b509b0e9370094f4d848cb",
    "faulted-warmup-3/ample":
        "f38b53877e2d05d9e630cf6fcc1c94f4b6e5b73df4d5d1a3730653dc7238c525",
    "faulted-warmup-3/sleep":
        "a795057f3355e1cd21bc8bc0fc6d7d8afc7feb1d17455ec684499e56c5289505",
}


def test_grid_covers_every_pin():
    assert sorted(PINS) == sorted(f"{row}/{mode}" for row, mode in CELLS
                                  if (row, mode) not in REFUSED)


@pytest.mark.parametrize("row,mode", CELLS, ids=[f"{r}/{m}" for r, m in CELLS])
def test_certificate_pinned(row, mode):
    if (row, mode) in REFUSED:
        with pytest.raises(ConfigurationError):
            _explore(row, mode)
        return
    assert _digest(_explore(row, mode)) == PINS[f"{row}/{mode}"]


# -- copy-on-write isolation --------------------------------------------------


class _DiscardingAPI(NodeAPI):
    """Runs ``on_init`` on a fresh network without queueing anything."""

    def send(self, port, content=None):
        pass

    def terminate(self, output=None):
        raise AssertionError("no node terminates in on_init")


def _node_states(nodes):
    """Every node's full local state, RNG state included.

    ``freeze_value`` reduces a ``random.Random`` to its type name, so the
    generator's internal state is compared through ``getstate()``.
    """
    return [
        freeze_value(
            {
                name: value.getstate() if isinstance(value, random.Random) else value
                for name, value in node_state_dict(node).items()
            }
        )
        for node in nodes
    ]


def _prop19(ids, flips):
    def build():
        nodes = [Prop19Node(i, rng=random.Random(7 * i)) for i in ids]
        return build_nonoriented_ring(nodes, flips=flips).network

    return build


#: Isolation cases: every grid row under its strongest accepted mode,
#: plus a ring of RNG-holding Proposition 19 nodes.
ISOLATION = {
    **{
        row: (factory, kwargs, "sleep" if (row, "full") in REFUSED else "full")
        for row, (factory, kwargs) in ROWS.items()
    },
    "prop19-3": (_prop19([1, 2, 3], [False, True, False]), {}, "sleep"),
}


@pytest.mark.parametrize("case", sorted(ISOLATION))
def test_exploration_leaves_factory_nodes_untouched(case):
    factory, kwargs, mode = ISOLATION[case]
    built = []

    def keep():
        built.append(factory())
        return built[-1]

    # A write through a shared node can corrupt the search itself; the
    # budget (3x the largest case) makes that fail fast instead.
    explore_reduced(keep, reduction=mode, max_states=10_000, **kwargs)
    fresh = factory()
    for node in fresh.nodes:
        node.on_init(_DiscardingAPI())
    (explored,) = built
    assert _node_states(explored.nodes) == _node_states(fresh.nodes)
