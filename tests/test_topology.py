"""The topology layer, pinned byte-identical to the pre-topology stack.

The refactor lifted every channel-wiring loop into ``repro.topology``;
these tests are the contract that the lift changed *nothing observable*
on rings: the channel table (ids, ports, directions) matches the
historic builders entry for entry, the exhaustive explorer reaches the
exact same terminal fingerprints (pinned as SHA-256 hexes computed on
the pre-refactor tree), and the sweep farm derives the exact same shard
keys (pinned likewise), so every existing cache stays warm.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nonoriented import NonOrientedNode
from repro.core.schema import freeze_value, pack_frozen
from repro.core.warmup import WarmupNode
from repro.exceptions import ConfigurationError
from repro.graphs.connectivity import Graph
from repro.simulator.node import PORT_ONE, PORT_ZERO
from repro.simulator.ring import build_nonoriented_ring, build_oriented_ring
from repro.topology import (
    ChannelSpec,
    Topology,
    graph_topology,
    oriented_ring,
    ring_convention,
)
from repro.verification import explore_all_schedules

from .strategies import flip_patterns, two_edge_connected_graphs

#: The historic 4-ring channel table for flips [T, F, T, F], written out
#: longhand (channel id, (src node, src port), (dst node, dst port)).
#: Computed on the pre-topology tree; the convention may never drift.
PINNED_RING_TABLE = [
    (0, (0, 0), (1, 0)),
    (1, (1, 0), (0, 0)),
    (2, (1, 1), (2, 1)),
    (3, (2, 1), (1, 1)),
    (4, (2, 0), (3, 0)),
    (5, (3, 0), (2, 0)),
    (6, (3, 1), (0, 1)),
    (7, (0, 1), (3, 1)),
]

#: Pre-refactor explorer terminal fingerprints,
#: sha256(pack_frozen(freeze_value(fp))).
PINNED_WARMUP_TERMINAL = (
    "834be645027346d88347ae2fcbf75ef5749f343183d576780bb93af8eadfaf37"
)
PINNED_NONORIENTED_TERMINAL = (
    "1e20e704ae4acb8f9c7ca0083d8fec15c66f15be2212c75571b7c787bfba1e49"
)


def _terminal_hex(result):
    assert len(result.terminal_fingerprints) == 1
    packed = pack_frozen(freeze_value(result.terminal_fingerprints[0]))
    return hashlib.sha256(packed).hexdigest()


class TestRingConventionPins:
    def test_pinned_channel_table(self):
        topology = ring_convention([True, False, True, False])
        table = [
            (i, spec.src, spec.dst)
            for i, spec in enumerate(topology.channels)
        ]
        assert table == PINNED_RING_TABLE

    def test_oriented_ring_is_all_false_flips(self):
        assert oriented_ring(5) == ring_convention([False] * 5)
        assert oriented_ring(5).kind == "oriented-ring"
        assert ring_convention([True, False, False]).kind == "nonoriented-ring"

    @given(flips=st.lists(st.booleans(), min_size=1, max_size=6))
    @settings(deadline=None)
    def test_matches_historic_formula(self, flips):
        """Channel 2i is CW over ring edge i, 2i+1 the CCW channel back,
        and a node's CW port is Port_1 unless flipped — for every n and
        flip pattern, not just the pinned example."""
        n = len(flips)
        topology = ring_convention(flips)
        assert len(topology.channels) == 2 * n

        def cw(v):
            return PORT_ZERO if flips[v] else PORT_ONE

        def ccw(v):
            return PORT_ONE if flips[v] else PORT_ZERO

        for i in range(n):
            j = (i + 1) % n
            assert topology.channels[2 * i] == ChannelSpec(i, cw(i), j, ccw(j))
            assert topology.channels[2 * i + 1] == ChannelSpec(
                j, ccw(j), i, cw(i)
            )

    @given(flips=st.lists(st.booleans(), min_size=1, max_size=5))
    @settings(deadline=None, max_examples=25)
    def test_builders_wire_the_convention(self, flips):
        """The simulator's ring builders route through ring_convention:
        the live network's channel list equals the topology's table."""
        nodes = [NonOrientedNode(i + 1) for i in range(len(flips))]
        network = build_nonoriented_ring(nodes, flips=flips).network
        topology = ring_convention(flips)
        assert [
            (channel.src, channel.dst) for channel in network.channels
        ] == [(spec.src, spec.dst) for spec in topology.channels]


class TestExplorerFingerprintPins:
    def test_warmup_terminal_unchanged(self):
        result = explore_all_schedules(
            lambda: build_oriented_ring(
                [WarmupNode(i) for i in [2, 3, 1]]
            ).network
        )
        assert _terminal_hex(result) == PINNED_WARMUP_TERMINAL

    def test_nonoriented_terminal_unchanged(self):
        result = explore_all_schedules(
            lambda: build_nonoriented_ring(
                [NonOrientedNode(i) for i in [2, 3, 1]],
                flips=[True, False, True],
            ).network
        )
        assert _terminal_hex(result) == PINNED_NONORIENTED_TERMINAL


class TestFarmKeyPins:
    """Ring farm keys, pinned at ``SEMANTICS_VERSION`` 2: only a bump of
    that version moves them; the topology layer never does."""

    PINNED = {
        "recovery": "1390c11ed934d6f5ead3b2d563946390b0457ce44bd1bda17a58409a261fdeec",
        "whp": "ada4e9d24dfe9b418c8513ad7b416053f30468c11bb1040383bc1bf6eab41f81",
        "placements": "145c3234282bb999c9b9015a2a90e47fefcfebf979367573eef7ba577a7c2ae7",
        "ear": "bfca951ccd9f252d14c5663dc87fccbc59ad2803cecd32c1311141fbdf599859",
    }

    def test_recovery_key_unchanged(self):
        from repro.farm.campaign import recovery_params
        from repro.farm.keys import shard_key
        from repro.faults.model import FaultModel

        params = recovery_params(
            n=6, id_max=64, faults=FaultModel(drop_rate=0.01, seed=7)
        )
        assert shard_key("recovery", params, 0, 250) == self.PINNED["recovery"]

    def test_whp_key_unchanged(self):
        from repro.farm.campaign import whp_params
        from repro.farm.keys import shard_key

        assert (
            shard_key("whp", whp_params(n=8, c=1.5, seed=3), 0, 100)
            == self.PINNED["whp"]
        )

    def test_placements_key_unchanged(self):
        from repro.farm.campaign import placements_params
        from repro.farm.keys import shard_key

        assert (
            shard_key("placements", placements_params(n=16, seed=0), 0, 100)
            == self.PINNED["placements"]
        )

    def test_ear_key_unchanged(self):
        from repro.farm.campaign import ear_params
        from repro.farm.keys import shard_key
        from repro.graphs.samples import theta_graph

        params = ear_params(theta_graph(0, 1, 2), id_max=64)
        assert shard_key("ear", params, 0, 100) == self.PINNED["ear"]

    def test_topology_semantics_only_for_topology_params(self):
        """The topology_semantics coordinate enters the key payload only
        when params carry a non-None topology — ring keys never move."""
        from repro.farm.keys import (
            SEMANTICS_VERSION,
            TOPOLOGY_SEMANTICS_VERSION,
            digest,
            shard_key,
        )

        ring_like = {"n": 4, "seed": 0}
        base = {
            "semantics": SEMANTICS_VERSION,
            "workload": "whp",
            "params": ring_like,
            "start": 0,
            "stop": 10,
        }
        # No topology -> the payload has no topology_semantics coordinate.
        assert shard_key("whp", ring_like, 0, 10) == digest(base)
        # A topology folds the second version in.
        with_topology = {**ring_like, "topology": {"kind": "general"}}
        assert shard_key("whp", with_topology, 0, 10) == digest(
            {
                **base,
                "params": with_topology,
                "topology_semantics": TOPOLOGY_SEMANTICS_VERSION,
            }
        )


class TestGraphTopology:
    def test_sorted_adjacency_ports(self):
        # theta on 4 vertices: cycle 0-1-2-3 plus chord 0-2.
        graph = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        topology = graph_topology(graph)
        assert topology.kind == "general"
        # vertex 0's sorted neighbors are [1, 2, 3] -> ports 0, 1, 2.
        spec = topology.channels[0]  # edge (0, 1) -> channel 0 is 0 -> 1
        assert spec.src == (0, 0)
        assert topology.port_counts == (3, 2, 3, 2)
        assert topology.total_ports == 10
        assert topology.port_offsets == (0, 3, 5, 8, 10)
        assert topology.port_slot(2, 1) == 6

    def test_port_slot_rejects_out_of_range(self):
        topology = graph_topology(Graph.ring(4))
        with pytest.raises(ConfigurationError):
            topology.port_slot(0, 2)

    def test_descriptor_stable_across_edge_spellings(self):
        graph = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        respelled = Graph.from_edges(
            4, [(2, 0), (0, 3), (3, 2), (2, 1), (1, 0)]
        )
        assert (
            graph_topology(graph).canonical_descriptor()
            == graph_topology(respelled).canonical_descriptor()
        )

    def test_ring_and_general_descriptors_disjoint(self):
        ring_desc = oriented_ring(4).canonical_descriptor()
        graph_desc = graph_topology(Graph.ring(4)).canonical_descriptor()
        assert ring_desc != graph_desc
        assert "flips" in ring_desc and "edges" in graph_desc

    @given(graph=two_edge_connected_graphs())
    @settings(deadline=None, max_examples=40)
    def test_channel_table_well_formed(self, graph):
        """Every directed edge appears exactly once, ports are dense per
        node, and the CSR offsets tile the flat column exactly."""
        topology = graph_topology(graph)
        assert len(topology.channels) == 2 * len(graph.edges)
        seen_src = set()
        for spec in topology.channels:
            assert spec.src not in seen_src  # one outgoing channel per port
            seen_src.add(spec.src)
        degrees = [graph.degree(v) for v in range(graph.n)]
        assert list(topology.port_counts) == degrees
        assert topology.total_ports == sum(degrees)
        slots = {
            topology.port_slot(v, p)
            for v in range(graph.n)
            for p in range(degrees[v])
        }
        assert slots == set(range(topology.total_ports))

    def test_rejects_self_loops_and_multi_edges(self):
        class Raw:
            n = 3
            edges = [(0, 0), (1, 2)]

        with pytest.raises(ConfigurationError):
            graph_topology(Raw())

        class Multi:
            n = 2
            edges = [(0, 1), (1, 0)]

        with pytest.raises(ConfigurationError):
            graph_topology(Multi())


class TestWire:
    def test_wire_rejects_wrong_node_count(self):
        with pytest.raises(ConfigurationError):
            oriented_ring(3).wire([WarmupNode(1), WarmupNode(2)])

    def test_wire_is_reusable(self):
        topology = oriented_ring(3)
        first = topology.wire([WarmupNode(i) for i in [1, 2, 3]])
        second = topology.wire([WarmupNode(i) for i in [1, 2, 3]])
        assert first is not second
        assert len(first.channels) == len(second.channels) == 6


class TestWiringGate:
    def test_channel_wiring_confined_to_topology_package(self):
        """Structural gate (mirrored by the CI grep job): the only
        ``.add_channel(`` call site in the package is Topology.wire —
        every builder and runtime must route through the channel table,
        or the numbering convention stops being decided in one place."""
        import pathlib

        import repro

        src_root = pathlib.Path(repro.__file__).parent
        offenders = []
        for path in sorted(src_root.rglob("*.py")):
            if path.parent.name == "topology":
                continue
            if ".add_channel(" in path.read_text():
                offenders.append(str(path.relative_to(src_root)))
        assert offenders == []
