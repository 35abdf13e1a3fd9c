"""The declarative fault language: one model, compiled onto every backend.

The paper's model (Section 2) is load-bearingly precise about what the
channel noise may *not* do: "pulses cannot be dropped or injected by the
channel."  This package deliberately violates those assumptions — as
*negative* experiments that show the assumptions are load-bearing, and as
the input language for the recovery harness and the graceful-degradation
sweeps.

A :class:`FaultModel` is a frozen, seedable description of every fault the
repo knows how to inject:

* **channel faults** — per-send drop / duplicate / spurious-injection
  probabilities, optionally gated to a bounded :class:`FaultBurst` window;
* **deterministic pulse drops** — :class:`PulseDrop`: remove up to
  ``count`` in-flight pulses at the start of a chosen round;
* **node crashes** — :class:`NodeCrash`: from ``at_round`` the node absorbs
  nothing (deliveries toward it evaporate); with ``restart_after`` it
  reboots into its kernel ``init`` state (crash-restart);
* **state corruption** — :class:`StateCorruption`: overwrite one integer
  state field (validated against the kernel ``SCHEMA``\\ s from
  :mod:`repro.core.schema`) at the start of a chosen round.

The model itself contains **no backend code**.  Each backend owns a thin
compiler:

* :mod:`repro.faults.channel` wraps event-driven
  :class:`~repro.simulator.channel.Channel` objects (Engine, batched
  engine fall back to per-pulse delivery on faulty channels);
* :mod:`repro.faults.profile` replays the same decisions as a pure
  function of ``(channel_id, send_index)`` for the schedule explorers;
* :mod:`repro.faults.fleet` lowers the model onto the fleet engine's
  struct-of-arrays round loop (NumPy and pure-Python columns,
  bit-identically).

Determinism everywhere comes from *counter-based* rolls: every decision is
``mix64`` of pure coordinates ``(seed, kind, instance, round, channel,
pulse)`` — no sequential RNG state — so any backend, any shard layout, and
any replay sees the same fault pattern.  This is the same construction as
the fleet's seeded scheduler (which now imports its mix from here).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.exceptions import ConfigurationError

_MASK64 = (1 << 64) - 1
_TWO64 = 1 << 64

# Odd 64-bit constants for the counter-based decision hash (golden-ratio
# and murmur3-finalizer family); any fixed odd constants would do.  The
# fleet's schedule hash shares these (single source, one stream family).
_KEY_INSTANCE = 0x9E3779B97F4A7C15
_KEY_ROUND = 0xC2B2AE3D27D4EB4F
_KEY_CHANNEL = 0xD6E8FEB86659FD93
_KEY_PULSE = 0x2545F4914F6CDD1D
_MIX_A = 0xFF51AFD7ED558CCD
_MIX_B = 0xC4CEB9FE1A85EC53

# Per-kind stream keys: each fault decision kind draws from a disjoint
# counter stream, so e.g. the drop and spurious rolls at one coordinate
# are independent.
KIND_SEND = 0xB5297A4D3A2F1C9B  # event-channel drop/duplicate roll
KIND_SPURIOUS = 0x7FEB352D8ED4AB63  # spurious-injection roll
KIND_DROP = 0x68E31DA4B1E8D94D  # fleet per-pulse drop roll
KIND_DUPLICATE = 0x1B56C4E9A02C4F8B  # fleet duplicate roll
KIND_CRASH = 0xA0761D6478BD642F  # probabilistic per-node crash roll


def mix64(x: int) -> int:
    """Murmur3 finalizer: a bijective 64-bit mix, pure-Python reference."""
    x &= _MASK64
    x = ((x ^ (x >> 33)) * _MIX_A) & _MASK64
    x = ((x ^ (x >> 33)) * _MIX_B) & _MASK64
    return x ^ (x >> 33)


def roll_u64(
    seed: int,
    kind: int,
    instance: int,
    round_index: int,
    channel: int,
    pulse: int = 0,
) -> int:
    """One 64-bit fault roll — a pure function of its coordinates.

    The NumPy twin in :mod:`repro.faults.fleet` replicates this exact
    add/multiply/mask order with uint64 wraparound arithmetic, so both
    fleet backends (and solo replays at any ``instance_offset``) derive
    identical decisions.
    """
    key = (
        mix64(seed)
        + kind
        + instance * _KEY_INSTANCE
        + round_index * _KEY_ROUND
        + channel * _KEY_CHANNEL
        + pulse * _KEY_PULSE
    ) & _MASK64
    return mix64(key)


def rate_threshold(rate: float) -> int:
    """A probability as a 64-bit integer threshold (``roll < threshold``).

    ``rate >= 1.0`` maps to ``2**64`` (always true) rather than the
    nearest representable uint64, so "certain" faults really are certain.
    """
    if rate >= 1.0:
        return _TWO64
    if rate <= 0.0:
        return 0
    return int(rate * _TWO64)


def _check_rate(name: str, rate: float) -> None:
    if not 0.0 <= rate <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {rate}")


@dataclass(frozen=True)
class FaultBurst:
    """A bounded window of fault opportunities (1-based ordinals).

    Random channel faults only fire for send/round ordinals ``k`` with
    ``start <= k < start + length`` (``length=None`` means unbounded —
    the default behaviour of an ungated model).  Bursts model transient
    interference: the run is clean, takes a bounded beating, and the
    recovery harness asks whether it re-stabilizes.
    """

    start: int = 1
    length: Optional[int] = None

    def __post_init__(self) -> None:
        if self.start < 1:
            raise ConfigurationError(
                f"burst start is a 1-based ordinal; got {self.start}"
            )
        if self.length is not None and self.length < 1:
            raise ConfigurationError(
                f"burst length must be >= 1 (or None for unbounded); "
                f"got {self.length}"
            )

    def covers(self, ordinal: int) -> bool:
        """Whether fault opportunity ``ordinal`` (1-based) is in the burst."""
        if ordinal < self.start:
            return False
        return self.length is None or ordinal < self.start + self.length


@dataclass(frozen=True)
class PulseDrop:
    """One deterministic in-flight pulse loss.

    At the *start* of fleet round ``round_index`` (1-based, before
    deliveries), up to ``count`` pulses currently in flight toward
    ``node`` in ``direction`` are removed — in ``instance`` only, or in
    every instance when ``instance`` is None.  Pulse loss is outside the
    paper's model (FIFO channels never drop), so a fault must surface as
    invariant violations downstream; the statistical checker injects one
    to prove it would catch a buggy kernel.
    """

    round_index: int
    node: int
    direction: str = "cw"
    instance: Optional[int] = None
    count: int = 1

    def __post_init__(self) -> None:
        if self.direction not in ("cw", "ccw"):
            raise ConfigurationError(
                f"fault direction must be 'cw' or 'ccw', got {self.direction!r}"
            )
        if self.round_index < 1 or self.count < 1:
            raise ConfigurationError(
                "fault round_index and count must be >= 1; "
                f"got round_index={self.round_index}, count={self.count}"
            )


@dataclass(frozen=True)
class NodeCrash:
    """A node crash, optionally followed by a restart into ``init`` state.

    From the start of round ``at_round`` the node processes nothing:
    deliveries toward it evaporate and its state freezes.  With
    ``restart_after = r`` it reboots at the start of round
    ``at_round + r`` — state reset by the kernel's ``make_state`` +
    ``init`` (fresh counters, the initial pulse re-sent) — which is the
    self-stabilization question: does the ring reconverge around a
    rebooted participant?  ``restart_after=None`` is a permanent crash.
    """

    node: int
    at_round: int
    restart_after: Optional[int] = None
    instance: Optional[int] = None

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ConfigurationError(f"crash node must be >= 0, got {self.node}")
        if self.at_round < 1:
            raise ConfigurationError(
                f"crash at_round is 1-based; got {self.at_round}"
            )
        if self.restart_after is not None and self.restart_after < 1:
            raise ConfigurationError(
                f"restart_after must be >= 1 (or None); got {self.restart_after}"
            )

    def down(self, round_index: int) -> bool:
        """Whether the node is down at the start of ``round_index``."""
        if round_index < self.at_round:
            return False
        return (
            self.restart_after is None
            or round_index < self.at_round + self.restart_after
        )

    def restarts_at(self, round_index: int) -> bool:
        """Whether the node reboots at the start of ``round_index``."""
        return (
            self.restart_after is not None
            and round_index == self.at_round + self.restart_after
        )


@dataclass(frozen=True)
class StateCorruption:
    """Transient corruption of one integer kernel-state field.

    At the start of round ``at_round``, field ``field`` of ``node`` is
    overwritten with ``value``.  Field names are the *fleet-materialized*
    directional columns of the kernel ``SCHEMA``\\ s (see
    :func:`corruptible_fields`); compilation validates the name against
    the target algorithm and rejects config fields — corrupting an ID is
    a different instance, not a fault.
    """

    node: int
    at_round: int
    field: str = "rho_cw"
    value: int = 0
    instance: Optional[int] = None

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ConfigurationError(
                f"corruption node must be >= 0, got {self.node}"
            )
        if self.at_round < 1:
            raise ConfigurationError(
                f"corruption at_round is 1-based; got {self.at_round}"
            )
        if self.value < 0:
            raise ConfigurationError(
                f"corrupted counter values must be >= 0, got {self.value}"
            )


def corruptible_fields(algorithm: str) -> Tuple[str, ...]:
    """Schema-validated corruption targets for ``algorithm``'s kernel.

    These are the int-kind, non-config fields of the kernel's declared
    ``SCHEMA``, spelled as the directional columns the fleet actually
    materializes (the nonoriented kernel's ``rho``/``sigma`` pairs lower
    to ``rho_cw``/``rho_ccw`` etc.; warmup's identically-zero CCW fields
    are excluded because Algorithm 1 never touches them).
    """
    from repro.core import schema as core_schema
    from repro.core.kernels import nonoriented, terminating, warmup

    try:
        kernel_schema, materialized = {
            "warmup": (warmup.SCHEMA, ("rho_cw", "sigma_cw")),
            "terminating": (
                terminating.SCHEMA,
                (
                    "rho_cw",
                    "sigma_cw",
                    "rho_ccw",
                    "sigma_ccw",
                    "pending_cw",
                    "pending_ccw",
                ),
            ),
            "nonoriented": (
                nonoriented.SCHEMA,
                ("rho_cw", "sigma_cw", "rho_ccw", "sigma_ccw"),
            ),
        }[algorithm]
    except KeyError:
        raise ConfigurationError(
            f"no kernel schema for algorithm {algorithm!r}; choose "
            "'warmup', 'terminating', or 'nonoriented'"
        ) from None
    # Sanity: every materialized column must trace back to a declared
    # non-config int-like schema field (directional names map onto the
    # nonoriented kernel's int_list pairs by dropping the suffix).
    declared = {
        f.name
        for f in kernel_schema.fields
        if f.role != core_schema.CONFIG and f.kind in ("int", "int_list")
    }
    for name in materialized:
        root = name.rsplit("_", 1)[0]
        if name not in declared and root not in declared:
            raise ConfigurationError(
                f"schema drift: {name!r} not declared by {kernel_schema.name}"
            )
    return materialized


@dataclass(frozen=True)
class GroupDrop:
    """One timed pulse deletion *relative to its group* (anchor + trigger).

    Fires at the start of round ``fire + offset`` (``fire`` is the round
    the owning :class:`FaultGroup` triggered; ``offset=0`` is the fire
    round itself) and removes up to ``count`` pulses in flight toward
    node ``(anchor + node_offset) mod n`` in ``direction``.  Standalone
    :class:`PulseDrop` clauses stay absolute; relative drops are what let
    an adversary time interference to a trigger it cannot observe the
    content of.
    """

    offset: int = 0
    node_offset: int = 0
    direction: str = "cw"
    count: int = 1

    def __post_init__(self) -> None:
        if self.direction not in ("cw", "ccw"):
            raise ConfigurationError(
                f"group drop direction must be 'cw' or 'ccw', "
                f"got {self.direction!r}"
            )
        if self.offset < 0:
            raise ConfigurationError(
                f"group drop offset is relative to the fire round and must "
                f"be >= 0; got {self.offset}"
            )
        if self.count < 1:
            raise ConfigurationError(
                f"group drop count must be >= 1; got {self.count}"
            )


#: Threshold triggers read the directional governing counters every
#: fleet lowering materializes: ``rho`` (absorbed-run counter) or
#: ``sigma`` (sent counter) of the anchor node, in the run's primary
#: direction (each directional half of Algorithm 3 evaluates its own).
GROUP_TRIGGER_FIELDS = ("rho", "sigma")


@dataclass(frozen=True)
class FaultGroup:
    """Correlated clauses bound to one anchor node and one shared trigger.

    Independent clause draws measure average-case noise; real
    content-oblivious adversaries *correlate* — a crash plus a burst of
    drops at one node, timed to a counter threshold crossing.  A group
    binds its member clauses to:

    * an **anchor** — the ring position every member is relative to;
    * a **trigger** — either an absolute round (``at_round``) or the
      first round at which the anchor's ``trigger_field`` counter
      reaches ``trigger_threshold`` (a *threshold-crossing* trigger:
      the fire round then differs per instance, following each
      instance's own trajectory).

    Members (at least one is required):

    * ``crash=True`` — the anchor crashes at the fire round; with
      ``restart_after=r`` it reboots ``r`` rounds later (kernel
      fresh-state + init, exactly :class:`NodeCrash` semantics);
    * ``drops`` — :class:`GroupDrop` deletions at rounds/nodes relative
      to the fire round and anchor;
    * ``burst`` — re-anchors the model's random channel rates to the
      fire round: rates fire only for rounds whose *relative* ordinal
      ``round - fire + 1`` the burst covers.  A model carrying any
      group burst must leave its own top-level ``burst`` unset (the
      groups take over the gating).

    Groups are fleet-only (like crashes) and disable lap-skips: a skip
    compresses rounds in closed form without visiting the
    threshold-crossing round, which would change trigger timing.
    """

    anchor: int
    at_round: Optional[int] = None
    trigger_field: Optional[str] = None
    trigger_threshold: Optional[int] = None
    crash: bool = False
    restart_after: Optional[int] = None
    drops: Tuple[GroupDrop, ...] = ()
    burst: Optional[FaultBurst] = None
    instance: Optional[int] = None

    def __post_init__(self) -> None:
        if self.anchor < 0:
            raise ConfigurationError(
                f"group anchor must be >= 0, got {self.anchor}"
            )
        absolute = self.at_round is not None
        thresholded = self.trigger_field is not None
        if absolute == thresholded:
            raise ConfigurationError(
                "a fault group needs exactly one trigger: either at_round "
                "or (trigger_field, trigger_threshold)"
            )
        if absolute and self.at_round < 1:
            raise ConfigurationError(
                f"group at_round is 1-based; got {self.at_round}"
            )
        if thresholded:
            if self.trigger_field not in GROUP_TRIGGER_FIELDS:
                raise ConfigurationError(
                    f"group trigger_field must be one of "
                    f"{list(GROUP_TRIGGER_FIELDS)}, got {self.trigger_field!r}"
                )
            if self.trigger_threshold is None or self.trigger_threshold < 1:
                raise ConfigurationError(
                    "a threshold trigger needs trigger_threshold >= 1; "
                    f"got {self.trigger_threshold}"
                )
        elif self.trigger_threshold is not None:
            raise ConfigurationError(
                "trigger_threshold without trigger_field: pick one trigger"
            )
        if self.restart_after is not None:
            if not self.crash:
                raise ConfigurationError(
                    "restart_after without crash=True: nothing to restart"
                )
            if self.restart_after < 1:
                raise ConfigurationError(
                    f"restart_after must be >= 1 (or None); "
                    f"got {self.restart_after}"
                )
        object.__setattr__(self, "drops", tuple(self.drops))
        if not (self.crash or self.drops or self.burst is not None):
            raise ConfigurationError(
                "a fault group needs at least one member clause "
                "(crash, drops, or burst)"
            )

    # -- fire-round helpers shared by the np/py twin compilers -----------

    def down(self, round_index: int, fire: int) -> bool:
        """Crash-down predicate given the group's fire round."""
        if not self.crash or round_index < fire:
            return False
        return (
            self.restart_after is None
            or round_index < fire + self.restart_after
        )

    def restarts_at(self, round_index: int, fire: int) -> bool:
        """Crash-restart predicate given the group's fire round."""
        return (
            self.crash
            and self.restart_after is not None
            and round_index == fire + self.restart_after
        )

    def burst_active(self, round_index: int, fire: int) -> bool:
        """Whether this group's burst window covers ``round_index``."""
        if self.burst is None or round_index < fire:
            return False
        return self.burst.covers(round_index - fire + 1)


@dataclass(frozen=True)
class FaultModel:
    """One declarative fault description, compiled onto every backend.

    Attributes:
        drop_rate: Per-send probability a pulse evaporates.
        duplicate_rate: Per-send probability an extra twin is injected
            (drop wins when both would fire).
        spurious_rate: Per-opportunity probability a pulse appears out of
            nowhere (event channels roll per send; the fleet rolls per
            channel per round — the same declarative rate, lowered to
            each backend's notion of a fault opportunity).
        seed: Stream seed for every random roll.
        burst: Optional bounded window gating the random rates.
        drops: Deterministic :class:`PulseDrop` clauses (fleet only).
        crashes: :class:`NodeCrash` clauses (fleet only).
        corruptions: :class:`StateCorruption` clauses (fleet only).
        crash_rate: Per-(instance, node) probability the node is dead
            from round 1 (fail-stop at start; one counter roll per
            coordinate, fleet only) — the degradation sweeps' ``crash``
            kind.
        groups: Correlated :class:`FaultGroup` clauses (fleet only).

    The all-zero model is **valid** and means "no faults" — programmatic
    call sites (sweeps, CLI plumbing) branch on :attr:`is_noop` instead
    of being forced to pass ``None`` around.
    """

    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    spurious_rate: float = 0.0
    seed: int = 0
    burst: Optional[FaultBurst] = None
    drops: Tuple[PulseDrop, ...] = ()
    crashes: Tuple[NodeCrash, ...] = ()
    corruptions: Tuple[StateCorruption, ...] = ()
    crash_rate: float = 0.0
    groups: Tuple[FaultGroup, ...] = ()

    def __post_init__(self) -> None:
        _check_rate("drop_rate", self.drop_rate)
        _check_rate("duplicate_rate", self.duplicate_rate)
        _check_rate("spurious_rate", self.spurious_rate)
        _check_rate("crash_rate", self.crash_rate)
        if self.drop_rate + self.duplicate_rate > 1.0:
            raise ConfigurationError(
                "drop_rate + duplicate_rate cannot exceed 1 "
                f"(one roll decides both); got "
                f"{self.drop_rate} + {self.duplicate_rate}"
            )
        # Accept tuples or any sequence; store tuples (frozen dataclass).
        object.__setattr__(self, "drops", tuple(self.drops))
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "corruptions", tuple(self.corruptions))
        object.__setattr__(self, "groups", tuple(self.groups))
        if self.burst is not None and any(
            g.burst is not None for g in self.groups
        ):
            raise ConfigurationError(
                "group bursts re-anchor the random-rate gating to their "
                "fire rounds; a model carrying one must leave its "
                "top-level burst unset"
            )

    @classmethod
    def none(cls) -> "FaultModel":
        """The explicit no-op model (valid, injects nothing)."""
        return cls()

    @property
    def is_noop(self) -> bool:
        """True when this model injects nothing at all."""
        return not (
            self.drop_rate
            or self.duplicate_rate
            or self.spurious_rate
            or self.drops
            or self.crashes
            or self.corruptions
            or self.crash_rate
            or self.groups
        )

    @property
    def has_channel_rates(self) -> bool:
        """True when any random channel-fault rate is nonzero."""
        return bool(self.drop_rate or self.duplicate_rate or self.spurious_rate)

    @property
    def has_group_bursts(self) -> bool:
        """True when any group re-anchors the random-rate gating."""
        return any(g.burst is not None for g in self.groups)

    @property
    def fleet_only_clauses(self) -> Tuple[str, ...]:
        """Clause kinds the event-driven channels cannot express."""
        kinds = []
        if self.drops:
            kinds.append("drops")
        if self.crashes:
            kinds.append("crashes")
        if self.corruptions:
            kinds.append("corruptions")
        if self.crash_rate:
            kinds.append("crash_rate")
        if self.groups:
            kinds.append("groups")
        return tuple(kinds)

    def covers(self, ordinal: int) -> bool:
        """Whether random faults may fire at opportunity ``ordinal``."""
        return self.burst is None or self.burst.covers(ordinal)

    # -- channel-backend decisions (one roll per send, drop wins) --------

    def send_outcome(self, channel_id: int, index: int) -> Tuple[int, bool]:
        """Fate of the ``index``-th send on ``channel_id`` (0-based).

        Returns ``(copies, spurious)`` where ``copies`` is how many
        copies of the sent pulse enter the queue (0 dropped, 1 clean,
        2 duplicated) and ``spurious`` whether an extra pulse from
        nowhere rides along.  Pure in its arguments — the explorers'
        :class:`~repro.faults.profile.ReplayProfile` calls this from any
        branch order and sees the live channel's exact pattern.
        """
        copies = 1
        spurious = False
        if not self.covers(index + 1):
            return copies, spurious
        t_drop = rate_threshold(self.drop_rate)
        t_dup = rate_threshold(self.drop_rate + self.duplicate_rate)
        if t_dup:
            roll = roll_u64(self.seed, KIND_SEND, 0, 0, channel_id, index)
            if roll < t_drop:
                copies = 0
            elif roll < t_dup:
                copies = 2
        if self.spurious_rate > 0.0:
            roll = roll_u64(self.seed, KIND_SPURIOUS, 0, 0, channel_id, index)
            spurious = roll < rate_threshold(self.spurious_rate)
        return copies, spurious

    def pulse_copies(self, channel_id: int, index: int) -> int:
        """Total pulses the ``index``-th send contributes (incl. spurious)."""
        copies, spurious = self.send_outcome(channel_id, index)
        return copies + (1 if spurious else 0)
