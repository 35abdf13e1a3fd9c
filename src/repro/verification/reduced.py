"""Partial-order-reduced + symmetry-reduced model checking of the
schedule space.

The unreduced explorer (:mod:`repro.verification.explorer`) expands one
successor per non-empty channel at every state, which makes the visited
state count explode combinatorially: schedules that differ only in the
order of *commuting* deliveries drag the search through every
intermediate state of every interleaving.  This module stacks three
reductions the content-oblivious model admits, selectable via the
``reduction`` argument (``"ample"``, ``"sleep"``, ``"symmetry"``,
``"full"`` = sleep + symmetry):

1. **Counting states** (all modes).  A fully defective channel carries
   contentless pulses, so its queue is fully described by its pulse
   *count*.  State fingerprints are additionally lowered to compact
   packed bytes (:func:`repro.core.schema.pack_frozen`), and the visited
   set can spill to disk (:class:`~repro.verification.common.VisitedStore`)
   so frontier budgets fit in memory.

2. **Persistent/ample sets** (all modes).  Delivering the head of
   channel ``c`` mutates only ``c``'s queue (a pop), the receiver's
   local state, and the tails of the receiver's outgoing channels
   (appends); deliveries into distinct nodes commute.  At each state the
   search expands only the enabled deliveries into one receiver when
   that set is provably persistent (:func:`_persistent`); otherwise it
   expands in full.  The reduction degrades, never lies.

3. **Sleep sets** (``sleep``/``full``).  The ample computation prunes per
   *state*; sleep sets prune per *path*: after expanding commuting
   siblings ``t_1 .. t_k`` from a state, the successor via ``t_i``
   inherits a sleep set containing the earlier independent siblings, so
   the search stops re-executing the other orders of the same
   Mazurkiewicz trace.  This is the classical state-matching variant
   (Godefroid): the visited store remembers, per state, the sleep set it
   was last explored with; re-reaching a state with a sleep set that is
   not a superset re-explores it with the intersection.  Sleep sets
   mostly cut *transitions* — each executed transition copies and
   repacks its receiver, so they cut exactly the dominant cost.

4. **Symmetry** (``symmetry``/``full``).  Visited-set keys are
   canonicalized under the ring's automorphism group
   (:class:`~repro.verification.symmetry.RingSymmetry`): rotations, plus
   orientation-duals when ``include_duals`` is set.  One exploration
   then certifies the whole *orbit of instances* — all ``n`` rotations
   (``2n`` with duals) of the ID-and-flip assignment — reported as
   ``orbit_factor``/``instances_certified``.  With duplicate IDs the
   group also merges genuinely distinct states of the one instance.
   Sleep/stored-sleep labels are translated through the canonicalizing
   group element so both reductions compose.  Unsound under fault
   profiles (drops are per-channel, breaking the symmetry), so that
   combination is rejected with
   :class:`~repro.exceptions.ConfigurationError`.

What the reduction preserves (``docs/VERIFICATION.md`` has the proofs):

* every terminal (quiescent) state of the full schedule space — up to
  the group action in symmetry modes, which is exact (orbit factor
  aside) whenever IDs are unique — hence the confluence verdict,
  elected leader, and exact per-terminal message counts;
* the existence of quiescent-termination violations (their *count* may
  shrink: fewer redundant interleavings witness the same violation);
* invariant hooks are evaluated at every **visited** state — a subset of
  all reachable states.  In symmetry modes each hook battery is
  additionally re-run under one non-identity group element per visited
  representative (``spot_checks``), certifying the lemmas at states of
  the *other* orbit instances too.  For an all-states invariant
  certificate, run the unreduced explorer.

The differential battery in ``tests/test_verification_differential.py``
and the four-way matrix in ``tests/test_reduction_matrix.py`` hold every
mode and the live engine to identical terminal verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.exceptions import ConfigurationError, ProtocolViolation
from repro.simulator.network import Network
from repro.simulator.node import NodeAPI, check_port
from repro.core.schema import (
    copy_node,
    freeze_value,
    node_fingerprint,
    pack_frozen,
    pack_int,
    pack_node,
)
from repro.faults.profile import build_fault_profile
from repro.verification.common import EngineView, VisitedStore
from repro.verification.explorer import ExplorationLimitExceeded, StateHook
from repro.verification.symmetry import RingSymmetry

#: Recognized ``reduction`` arguments, weakest to strongest.
REDUCTION_MODES = ("ample", "sleep", "symmetry", "full")

_EMPTY: FrozenSet[int] = frozenset()


class _Static:
    """Immutable per-exploration context shared by every explored state."""

    __slots__ = (
        "n_nodes",
        "n_channels",
        "src_node",
        "src_port",
        "dst_node",
        "dst_port",
        "contentless",
        "silent",
        "in_channels",
        "out_channels",
        "out_channel",
        "num_ports",
        "content_out",
        "fault_profile",
    )

    def __init__(self, network: Network) -> None:
        channels = network.channels
        self.n_nodes = len(network.nodes)
        self.n_channels = len(channels)
        self.src_node = [channel.src_node for channel in channels]
        self.src_port = [channel.src_port for channel in channels]
        self.dst_node = [channel.dst_node for channel in channels]
        self.dst_port = [channel.dst_port for channel in channels]
        # Defective channels erase content, so a pulse count is the whole
        # queue state (counting representation); content-carrying channels
        # keep real queues.
        self.contentless = [channel.defective for channel in channels]
        self.silent = [
            channel.src_port in network.nodes[channel.src_node].SILENT_SEND_PORTS
            for channel in channels
        ]
        self.in_channels: List[List[int]] = [[] for _ in range(self.n_nodes)]
        self.out_channels: List[List[int]] = [[] for _ in range(self.n_nodes)]
        for channel in channels:
            self.in_channels[channel.dst_node].append(channel.channel_id)
            self.out_channels[channel.src_node].append(channel.channel_id)
        self.out_channel = dict(network.out_channel)
        # Per-node port counts for send-path validation (>= 2 keeps ring
        # diagnostics stable; general topologies extend per degree).
        self.num_ports = [2] * self.n_nodes
        for (node, port) in self.out_channel:
            self.num_ports[node] = max(self.num_ports[node], port + 1)
        for channel in channels:
            self.num_ports[channel.dst_node] = max(
                self.num_ports[channel.dst_node], channel.dst_port + 1
            )
        # Content-carrying out-channels per node: two deliveries into
        # distinct receivers still fail to commute if both receivers can
        # append to the same *content* queue (append order is observable
        # there; on counting queues it is not).
        self.content_out: List[FrozenSet[int]] = [
            frozenset(
                cid for cid in self.out_channels[v] if not self.contentless[cid]
            )
            for v in range(self.n_nodes)
        ]
        self.fault_profile = build_fault_profile(network)


class _RState:
    """One explored global state in counting representation.

    Successors are copy-on-write.  :meth:`clone` copies the node *list*
    and shares the node objects with the parent; :func:`_deliver` then
    replaces the receiver with a private copy
    (:func:`~repro.core.schema.copy_node`) before it runs, because the
    receiver is the only node a delivery can mutate (its sends touch the
    sender — the receiver — and the queues; ``terminate`` touches the
    receiver).  A node object is therefore never written once a second
    state can see it.  The root owns every node: the factory network's
    own objects, mutated only by ``on_init``.  This relies on nodes
    keeping their mutable state to themselves; two nodes sharing one
    mutable object would each get a private copy on their first
    delivery.

    ``node_packed`` holds the per-node packed key components
    (:func:`~repro.core.schema.pack_node`), packed in full at the root
    and otherwise inherited from the parent, with only the receiver's
    repacked after its delivery.  Each component depends on its node
    alone, so every key is byte-identical to packing the whole state
    afresh.
    """

    __slots__ = ("nodes", "queues", "fault_idx", "total_sent", "node_packed")

    def __init__(self, network: Network, static: _Static) -> None:
        self.nodes = network.nodes
        self.queues: List[Any] = [
            0 if static.contentless[cid] else [] for cid in range(static.n_channels)
        ]
        self.fault_idx = (
            [0] * static.n_channels if static.fault_profile is not None else None
        )
        self.total_sent = 0
        self.node_packed: List[bytes] = []  # packed on first use, after on_init

    def clone(self) -> "_RState":
        new = _RState.__new__(_RState)
        new.nodes = list(self.nodes)
        new.queues = [
            queue if isinstance(queue, int) else list(queue) for queue in self.queues
        ]
        new.fault_idx = None if self.fault_idx is None else list(self.fault_idx)
        new.total_sent = self.total_sent
        new.node_packed = list(self.node_packed)
        return new

    def qlen(self, channel_id: int) -> int:
        queue = self.queues[channel_id]
        return queue if isinstance(queue, int) else len(queue)

    def pending_messages(self) -> int:
        return sum(
            queue if isinstance(queue, int) else len(queue) for queue in self.queues
        )

    def enabled(self) -> List[int]:
        return [cid for cid in range(len(self.queues)) if self.qlen(cid)]

    def packed_components(self) -> Tuple[List[bytes], List[bytes]]:
        """Per-node and per-channel packed byte components of this state.

        Each component is self-delimiting and the counts are fixed per
        exploration, so any concatenation of them is injective — the raw
        material for both the plain visited key and the symmetry-canonical
        key (which permutes the components before joining).
        """
        if not self.node_packed:
            self.node_packed = [pack_node(node) for node in self.nodes]
        queue_packed = [
            pack_int(queue)
            if isinstance(queue, int)
            else pack_frozen(tuple(freeze_value(item) for item in queue))
            for queue in self.queues
        ]
        return self.node_packed, queue_packed


class _ReducedAPI(NodeAPI):
    """Capability object handed to nodes while exploring a _RState."""

    __slots__ = ("_static", "_state", "_node_index")

    def __init__(self, static: _Static, state: _RState, node_index: int) -> None:
        self._static = static
        self._state = state
        self._node_index = node_index

    def send(self, port: int, content: Any = None) -> None:
        static, state, sender = self._static, self._state, self._node_index
        node = state.nodes[sender]
        if node.terminated:
            raise ProtocolViolation(
                f"node {sender} attempted to send after terminating"
            )
        if check_port(port, static.num_ports[sender]) in node.SILENT_SEND_PORTS:
            raise ProtocolViolation(
                f"node {sender} sent on port {port}, which its class "
                f"{type(node).__qualname__} declares silent (SILENT_SEND_PORTS)"
            )
        channel_id = static.out_channel[(sender, port)]
        copies = 1
        if static.fault_profile is not None:
            copies = static.fault_profile.copies(
                channel_id, state.fault_idx[channel_id]
            )
            state.fault_idx[channel_id] += 1
        if copies:
            if static.contentless[channel_id]:
                state.queues[channel_id] += copies
            else:
                for _ in range(copies):
                    state.queues[channel_id].append(content)
        state.total_sent += 1

    def terminate(self, output: Any = None) -> None:
        self._state.nodes[self._node_index]._mark_terminated(output)


def _deliver(static: _Static, state: _RState, channel_id: int) -> bool:
    """Deliver ``channel_id``'s FIFO head; True on a quiescence violation."""
    queue = state.queues[channel_id]
    if isinstance(queue, int):
        state.queues[channel_id] = queue - 1
        content = None
    else:
        content = queue.pop(0)
    receiver_index = static.dst_node[channel_id]
    receiver = state.nodes[receiver_index]
    if receiver.terminated:
        return True
    # Copy-on-write: the receiver is shared with the parent until now.
    receiver = copy_node(receiver)
    state.nodes[receiver_index] = receiver
    receiver.on_message(
        _ReducedAPI(static, state, receiver_index),
        static.dst_port[channel_id],
        content,
    )
    state.node_packed[receiver_index] = pack_node(receiver)
    return False


def _independent(static: _Static, a: int, b: int) -> bool:
    """Do deliveries ``a`` and ``b`` commute from every state enabling both?

    Distinct receivers suffice on counting queues: each delivery pops its
    own channel, mutates only its own receiver, and *appends* to the
    receiver's out-channels — and on a counting queue (or under a fault
    profile, whose per-send copies sum identically in either order) the
    append order is unobservable.  If both receivers can append into the
    same content-carrying queue, order becomes observable and the pair is
    conservatively declared dependent.
    """
    ra, rb = static.dst_node[a], static.dst_node[b]
    if ra == rb:
        return False
    return not (static.content_out[ra] & static.content_out[rb])


def _reach(static: _Static, state: _RState, frozen: int) -> Set[int]:
    """Nodes that can process ≥1 delivery while node ``frozen`` never does.

    Sound over-approximation: seed with every non-terminated node (other
    than ``frozen``) holding a deliverable message, then propagate along
    non-silent outgoing channels — a node that acts may send, enabling a
    delivery at the channel's destination.  Anything outside the result
    provably stays inert in every execution avoiding ``frozen``.
    """
    nodes = state.nodes
    reach: Set[int] = set()
    stack: List[int] = []
    for x in range(static.n_nodes):
        if x == frozen or nodes[x].terminated:
            continue
        if any(state.qlen(cid) for cid in static.in_channels[x]):
            reach.add(x)
            stack.append(x)
    while stack:
        actor = stack.pop()
        for cid in static.out_channels[actor]:
            if static.silent[cid]:
                continue
            dst = static.dst_node[cid]
            if dst == frozen or dst in reach or nodes[dst].terminated:
                continue
            reach.add(dst)
            stack.append(dst)
    return reach


def _persistent(static: _Static, state: _RState, receiver: int) -> bool:
    """Is "all enabled deliveries into ``receiver``" a persistent set?

    It is unless some *other* node could send into one of ``receiver``'s
    currently-empty in-channels without ``receiver`` ever acting: then an
    execution avoiding the set could create a new, dependent delivery.
    Non-empty in-channels need no check — their heads are already in the
    set, and FIFO pins everything behind the heads.
    """
    dangerous: List[int] = []
    for cid in static.in_channels[receiver]:
        if state.qlen(cid):
            continue
        src = static.src_node[cid]
        if src == receiver:  # self-loop: the frozen receiver never sends
            continue
        if static.silent[cid] or state.nodes[src].terminated:
            continue
        dangerous.append(src)
    if not dangerous:
        return True
    reach = _reach(static, state, receiver)
    return not any(src in reach for src in dangerous)


def _ample(static: _Static, state: _RState, enabled: List[int]) -> List[int]:
    """The subset of ``enabled`` deliveries to expand at this state.

    Deterministic in the state (required for the memoized search to be a
    well-defined reduced graph): candidate receivers are tried smallest
    delivery-group first, node index breaking ties; the first persistent
    group wins, and full expansion is the fallback.
    """
    by_receiver: Dict[int, List[int]] = {}
    for cid in enabled:
        by_receiver.setdefault(static.dst_node[cid], []).append(cid)
    if len(by_receiver) == 1:
        return enabled  # single receiver: dependent set, no choice to prune
    for receiver in sorted(
        by_receiver, key=lambda node: (len(by_receiver[node]), node)
    ):
        if _persistent(static, state, receiver):
            return by_receiver[receiver]
    return enabled


@dataclass
class ReducedExplorationResult:
    """Certificate produced by one reduced exploration.

    Attributes:
        states_explored: Distinct states visited by the reduced search
            (distinct *canonical* states in symmetry modes).
        transitions: Deliveries executed (reduced-graph edges examined;
            sleep-mode revisits may re-execute an edge).
        enabled_transitions: Sum over expanded states of enabled
            deliveries — what the unreduced search would have branched
            on; ``transitions / enabled_transitions`` quantifies the
            per-state pruning.
        ample_states: States where a proper persistent subset was
            expanded.
        full_expansion_states: States where no receiver's delivery set
            was provably persistent and all branches were taken.
        terminal_node_fingerprints: Distinct quiescent end states (node
            component only; all queues are empty at quiescence).  In
            symmetry modes: one representative per terminal orbit.
        terminal_outputs: Per-node outputs of each distinct terminal
            state (parallel to ``terminal_node_fingerprints``).
        terminal_total_sent: Messages sent on the way into each distinct
            terminal state — the certified exact message complexity.
        quiescence_violations: Executed deliveries that reached a
            terminated node.  Preserved existentially: zero here means
            zero in the full space; a positive count may undercount the
            full space's redundant witnesses.
        max_in_flight: Largest in-flight pulse total over visited states.
        reduction: The reduction mode this certificate was produced
            under (``"ample"``, ``"sleep"``, ``"symmetry"``, ``"full"``).
        include_duals: Whether orientation-duals were in the symmetry
            group.
        sleep_skipped: Ample-set transitions skipped because they were
            asleep (covered by a commuting sibling order).
        orbit_factor: Distinct group images of the initial state — the
            number of instances this run certifies (1 without symmetry).
        instances_certified: Alias of ``orbit_factor`` in spirit: how
            many concrete (ID, flip) assignments the certificate covers.
        spot_checks: Invariant-battery evaluations performed on a
            non-identity group image of a visited representative.
        visited_bytes: Peak estimated footprint of the visited store.
        spilled: Whether the visited store spilled to disk.
        canonical_terminal_fingerprints: Canonical packed form of each
            distinct terminal state (symmetry modes only) — the orbit-
            level terminal certificate.
    """

    states_explored: int
    transitions: int
    enabled_transitions: int
    ample_states: int
    full_expansion_states: int
    terminal_node_fingerprints: List[Tuple]
    terminal_outputs: List[Tuple]
    terminal_total_sent: List[int]
    quiescence_violations: int
    max_in_flight: int
    reduction: str = "ample"
    include_duals: bool = False
    sleep_skipped: int = 0
    orbit_factor: int = 1
    instances_certified: int = 1
    spot_checks: int = 0
    visited_bytes: int = 0
    spilled: bool = False
    canonical_terminal_fingerprints: List[bytes] = field(default_factory=list)

    @property
    def confluent(self) -> bool:
        """All schedules funnel into one terminal state."""
        return len(self.terminal_node_fingerprints) == 1

    @property
    def branch_reduction(self) -> float:
        """Enabled-to-expanded delivery ratio (≥ 1; higher = more pruning)."""
        if not self.transitions:
            return 1.0
        return self.enabled_transitions / self.transitions

    def state_reduction_vs(self, unreduced_states: int) -> float:
        """Certified-work reduction against an unreduced state count.

        Counts orbit breadth: one run certifies ``orbit_factor``
        instances, each of which would cost ``unreduced_states``
        unreduced states to certify individually.
        """
        if not self.states_explored:
            return float(self.orbit_factor)
        return self.orbit_factor * unreduced_states / self.states_explored

    def summary(self) -> Dict[str, Any]:
        """The telemetry dict the CLI and the bench both report."""
        return {
            "reduction": self.reduction,
            "include_duals": self.include_duals,
            "states": self.states_explored,
            "transitions": self.transitions,
            "enabled_transitions": self.enabled_transitions,
            "branch_reduction": round(self.branch_reduction, 3),
            "ample_states": self.ample_states,
            "full_expansion_states": self.full_expansion_states,
            "sleep_skipped": self.sleep_skipped,
            "orbit_factor": self.orbit_factor,
            "instances_certified": self.instances_certified,
            "spot_checks": self.spot_checks,
            "terminal_states": len(self.terminal_node_fingerprints),
            "confluent": self.confluent,
            "quiescence_violations": self.quiescence_violations,
            "max_in_flight": self.max_in_flight,
            "visited_bytes": self.visited_bytes,
            "spilled": self.spilled,
        }


def explore_reduced(
    network_factory: Callable[[], Network],
    max_states: int = 2_000_000,
    invariant_hooks: Sequence[StateHook] = (),
    *,
    reduction: str = "ample",
    include_duals: bool = False,
    spill_dir: Optional[str] = None,
    spill_threshold: Optional[int] = None,
) -> ReducedExplorationResult:
    """Explore the schedule space under the selected reduction stack.

    Same positional calling convention as
    :func:`~repro.verification.explorer.explore_all_schedules`; the
    result certifies the identical terminal-state facts while visiting a
    fraction of the states (reduction telemetry included).

    Args:
        network_factory: Builds a *fresh* network (fresh node objects).
        max_states: Budget on distinct visited states before raising
            :class:`~repro.verification.explorer.ExplorationLimitExceeded`.
        invariant_hooks: Engine-style hooks (e.g.
            :data:`repro.core.invariants.ALGORITHM2_HOOKS`) evaluated at
            every visited state via an
            :class:`~repro.verification.common.EngineView` — and, in
            symmetry modes, additionally at one non-identity group image
            per visited state (the ``spot_checks`` counter).
        reduction: One of :data:`REDUCTION_MODES`.  ``"ample"`` is the
            persistent-set search; ``"sleep"`` stacks sleep sets on it;
            ``"symmetry"`` canonicalizes visited keys under the ring
            automorphisms; ``"full"`` stacks all three.
        include_duals: Add orientation-duals (reflections) to the
            symmetry group.  Sound for the non-oriented setting; leave
            False for chirality-asymmetric oriented algorithms.
        spill_dir: Directory in which a disk-spilled visited set gets
            its own private temp dir, removed on return (the system temp
            dir by default).
        spill_threshold: Estimated visited-set bytes above which the
            store spills to disk; None (default) never spills.

    Returns:
        A :class:`ReducedExplorationResult`.
    """
    if reduction not in REDUCTION_MODES:
        raise ConfigurationError(
            f"unknown reduction {reduction!r}; expected one of {REDUCTION_MODES}"
        )
    use_sleep = reduction in ("sleep", "full")
    use_sym = reduction in ("symmetry", "full")

    network = network_factory()
    static = _Static(network)
    sym: Optional[RingSymmetry] = None
    if use_sym:
        if static.fault_profile is not None:
            raise ConfigurationError(
                "symmetry reduction is unsound under a fault profile "
                "(drops/duplicates are per-channel and break the ring "
                "automorphisms); use reduction='sleep' for faulted networks"
            )
        sym = RingSymmetry.from_network(network, include_duals=include_duals)

    root = _RState(network, static)
    for index, node in enumerate(root.nodes):
        node.on_init(_ReducedAPI(static, root, index))

    def state_key(state: _RState) -> Tuple[bytes, int, bool]:
        """Visited key, canonicalizing element index, label ambiguity.

        The ambiguity flag is True when the state has a nontrivial
        stabilizer (duplicate-ID instances only): canonical channel
        labels are then ill-defined and the sleep layer must not rely
        on them.
        """
        node_packed, queue_packed = state.packed_components()
        if sym is not None:
            return sym.canonical(node_packed, queue_packed)
        key = b"".join(node_packed) + b"".join(queue_packed)
        if state.fault_idx is not None:
            key += pack_frozen(tuple(state.fault_idx))
        return key, 0, False

    spot_element = 1 if (sym is not None and sym.order > 1) else None
    spot_checks = 0

    def check(state: _RState) -> None:
        nonlocal spot_checks
        if not invariant_hooks:
            return
        pending = state.pending_messages()
        views = [EngineView(state.nodes, pending)]
        if spot_element is not None:
            # Satellite certificate: the hook battery also holds at the
            # image of this representative inside another orbit instance.
            views.append(
                EngineView(sym.permute_nodes(spot_element, state.nodes), pending)
            )
            spot_checks += 1
        for view in views:
            for hook in invariant_hooks:
                hook(view)

    store = VisitedStore(
        track_payload=use_sleep,
        spill_dir=spill_dir,
        spill_threshold=spill_threshold,
    )
    try:
        root_key, root_elem, _root_ambiguous = state_key(root)
        if use_sleep:
            store.set_payload(root_key, _EMPTY)
        else:
            store.add(root_key)
        check(root)

        orbit_factor = 1
        if sym is not None:
            orbit_factor = sym.orbit_factor(*root.packed_components())

        terminal_node_fps: List[Tuple] = []
        terminal_outputs: List[Tuple] = []
        terminal_total_sent: List[int] = []
        canonical_terminals: List[bytes] = []
        transitions = 0
        enabled_transitions = 0
        ample_states = 0
        full_expansions = 0
        violations = 0
        sleep_skipped = 0
        max_in_flight = root.pending_messages()

        # Stack entries: (state, sleep set in this representative's actual
        # channel labels, canonicalizing element of the state's key, fresh).
        # ``fresh`` is True exactly once per distinct key (its first push),
        # so per-state statistics are counted exactly once.
        stack: List[Tuple[_RState, FrozenSet[int], int, bool]] = [
            (root, _EMPTY, root_elem, True)
        ]
        while stack:
            state, sleep, elem, fresh = stack.pop()
            enabled = state.enabled()
            if not enabled:
                fp = node_fingerprint(state.nodes)
                if fp not in terminal_node_fps:
                    terminal_node_fps.append(fp)
                    terminal_outputs.append(
                        tuple(
                            freeze_value(getattr(node, "output", None))
                            for node in state.nodes
                        )
                    )
                    terminal_total_sent.append(state.total_sent)
                    if sym is not None:
                        canonical_terminals.append(state_key(state)[0])
                continue
            ample = _ample(static, state, enabled)
            if fresh:
                enabled_transitions += len(enabled)
                if len(ample) < len(enabled):
                    ample_states += 1
                else:
                    full_expansions += 1
            taken: List[int] = []
            for channel_id in ample:
                if channel_id in sleep:
                    sleep_skipped += 1
                    continue
                successor = state.clone()
                transitions += 1
                if _deliver(static, successor, channel_id):
                    violations += 1
                if use_sleep:
                    child_sleep = frozenset(
                        x
                        for x in sleep.union(taken)
                        if _independent(static, x, channel_id)
                    )
                    taken.append(channel_id)
                else:
                    child_sleep = _EMPTY
                key, child_elem, ambiguous = state_key(successor)
                if use_sleep:
                    if ambiguous:
                        # Nontrivial stabilizer: canonical channel labels
                        # are ill-defined, so take no sleep credit here
                        # and record full coverage — always sound.
                        child_sleep = _EMPTY
                        stored_sleep = _EMPTY
                    elif sym is not None:
                        stored_sleep = frozenset(
                            sym.to_canonical_channel(child_elem, cid)
                            for cid in child_sleep
                        )
                    else:
                        stored_sleep = child_sleep
                    previous = store.get_payload(key)
                    if previous is None:
                        store.set_payload(key, stored_sleep)
                    elif previous <= stored_sleep:
                        continue  # already explored at least this much
                    else:
                        # Reached with a strictly smaller sleep set:
                        # re-explore with the intersection (classical
                        # state-matching sleep sets).
                        merged = previous & stored_sleep
                        store.set_payload(key, merged)
                        if sym is not None:
                            merged = frozenset(
                                sym.elements[child_elem].chan_src[label]
                                for label in merged
                            )
                        stack.append((successor, merged, child_elem, False))
                        continue
                else:
                    if not store.add(key):
                        continue
                if len(store) > max_states:
                    raise ExplorationLimitExceeded(
                        f"more than {max_states} reachable states; "
                        "shrink the instance or raise max_states"
                    )
                check(successor)
                max_in_flight = max(max_in_flight, successor.pending_messages())
                stack.append((successor, child_sleep, child_elem, True))

        return ReducedExplorationResult(
            states_explored=len(store),
            transitions=transitions,
            enabled_transitions=enabled_transitions,
            ample_states=ample_states,
            full_expansion_states=full_expansions,
            terminal_node_fingerprints=terminal_node_fps,
            terminal_outputs=terminal_outputs,
            terminal_total_sent=terminal_total_sent,
            quiescence_violations=violations,
            max_in_flight=max_in_flight,
            reduction=reduction,
            include_duals=bool(sym is not None and include_duals),
            sleep_skipped=sleep_skipped,
            orbit_factor=orbit_factor,
            instances_certified=orbit_factor,
            spot_checks=spot_checks,
            visited_bytes=store.peak_bytes,
            spilled=store.spilled,
            canonical_terminal_fingerprints=canonical_terminals,
        )
    finally:
        store.close()
