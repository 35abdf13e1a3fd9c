"""Declarative state schemas + the canonical state-fingerprint helpers.

Every transition kernel in :mod:`repro.core.kernels` declares its local
state as a :class:`StateSchema`: named fields with a *role* saying how the
field behaves across schedules.  The schema is what lets very
different backends agree on "the same state":

* the event-driven :class:`~repro.simulator.engine.Engine` and the
  schedule explorers hold states as node objects (the schema fields are
  the node's ``__slots__``);
* the fleet engine (:mod:`repro.simulator.fleet`) lowers each field to a
  struct-of-arrays column, one array per field across ``B`` instances
  (NumPy backend), or holds plain kernel-state dataclasses per node
  (pure-Python backend);
* the backend-conformance suite fingerprints the *observable* projection
  of each and asserts bit equality.

Field roles:

* ``config`` — fixed at construction (IDs, schemes, flags); trivially
  schedule-invariant.
* ``observable`` — terminal value is schedule-invariant (the paper's
  counters and verdicts: every legal adversary drives them to the same
  quiescent values, which the differential suites verify bit-for-bit).
* ``transient`` — mid-run bookkeeping whose terminal value may depend on
  delivery batching (node-local pending buffers); excluded from
  cross-backend fingerprints.

This module is also the canonical home of the *generic* object
fingerprinting used by both schedule explorers and the differential
tests (:func:`freeze_value` / :func:`node_state_dict` /
:func:`node_fingerprint`), of its canonical byte form (:func:`pack_frozen`),
and of the per-class fast path (:class:`NodePlan`) through which the
reduced explorer packs and copies nodes.
"""

from __future__ import annotations

import copy
import enum
import functools
import operator
import struct
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

# ---------------------------------------------------------------------------
# Generic object fingerprinting (shared by explorers + differential tests).
# ---------------------------------------------------------------------------


def freeze_value(value: Any) -> Any:
    """Recursively convert a value into a hashable fingerprint component."""
    if value is None or isinstance(value, (int, float, str, bool, bytes)):
        return value
    if isinstance(value, enum.Enum):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(freeze_value(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return frozenset(freeze_value(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((key, freeze_value(val)) for key, val in value.items()))
    # Shared immutable strategy objects (e.g. a CircuitProgram) are
    # identified by type: per-node mutable state must live on the node.
    return type(value).__qualname__


# -- canonical byte form -----------------------------------------------------
#
# The schedule explorers key their visited sets on fingerprints; at frontier
# budgets the nested-tuple form dominates memory (tens of small objects per
# state).  ``pack_frozen`` lowers any value in :func:`freeze_value`'s output
# domain to a compact, *injective*, self-delimiting byte string: equal frozen
# values pack identically and distinct ones differ (each component is
# type-tagged and length-prefixed, so concatenations of packed values stay
# injective too).  Packed forms are also totally ordered as bytes regardless
# of the mix of payload types, which is what lets the symmetry reduction take
# a ``min()`` over group images of heterogeneous node states.

_TAG_NONE = b"\x00"
_TAG_FALSE = b"\x01"
_TAG_TRUE = b"\x02"
_TAG_INT = b"\x03"
_TAG_FLOAT = b"\x04"
_TAG_STR = b"\x05"
_TAG_BYTES = b"\x06"
_TAG_TUPLE = b"\x07"
_TAG_FROZENSET = b"\x08"
_TAG_ENUM = b"\x09"


def _uvarint(value: int) -> bytes:
    """Unsigned LEB128 — the length/count prefix used throughout."""
    if value < 0x80:
        return bytes((value,))
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _pack_int_uncached(value: int) -> bytes:
    # Zigzag so negatives stay compact: 0,-1,1,-2,... -> 0,1,2,3,...
    zig = value << 1 if value >= 0 else ((-value) << 1) - 1
    return _TAG_INT + _uvarint(zig)


#: Packed forms of 0..1023, indexed by value: a bounded memo that no bool
#: reaches, because every caller rules bools out first (``True == 1``, yet
#: ``True`` must pack as a bool).
_SMALL_INTS = tuple(_pack_int_uncached(value) for value in range(1024))


def pack_int(value: int) -> bytes:
    """``pack_frozen(value)`` for an int that is not a bool (a channel count)."""
    if 0 <= value < 1024:
        return _SMALL_INTS[value]
    return _pack_int_uncached(value)


@functools.lru_cache(maxsize=256, typed=True)
def _pack_enum(value: enum.Enum) -> bytes:
    # ``typed`` keeps equal members of distinct IntEnum classes apart.
    name = f"{type(value).__qualname__}.{value.name}".encode()
    return _TAG_ENUM + _uvarint(len(name)) + name


def _pack_str(value: str) -> bytes:
    raw = value.encode()
    return _TAG_STR + _uvarint(len(raw)) + raw


def pack_frozen(value: Any) -> bytes:
    """Canonical byte encoding of a :func:`freeze_value`-domain value.

    Injective: ``pack_frozen(a) == pack_frozen(b)`` iff ``a == b`` (with
    ``bool`` distinguished from ``int`` and ``0.0`` from ``0``, which is
    stricter than tuple equality and therefore still sound for visited-set
    membership).  Raises ``TypeError`` for values outside the frozen
    domain — pass the result of :func:`freeze_value`, not raw state.
    """
    if value is None:
        return _TAG_NONE
    if isinstance(value, bool):
        return _TAG_TRUE if value else _TAG_FALSE
    if isinstance(value, enum.Enum):
        return _pack_enum(value)
    if isinstance(value, int):
        return pack_int(value)
    if isinstance(value, float):
        return _TAG_FLOAT + struct.pack(">d", value)
    if isinstance(value, str):
        return _pack_str(value)
    if isinstance(value, bytes):
        return _TAG_BYTES + _uvarint(len(value)) + value
    if isinstance(value, tuple):
        parts = [pack_frozen(item) for item in value]
        return _TAG_TUPLE + _uvarint(len(parts)) + b"".join(parts)
    if isinstance(value, frozenset):
        # Sort by packed form: element order must not matter, and packed
        # bytes compare totally even across payload types.
        parts = sorted(pack_frozen(item) for item in value)
        return _TAG_FROZENSET + _uvarint(len(parts)) + b"".join(parts)
    raise TypeError(
        f"pack_frozen expects a freeze_value() result, got {type(value).__name__}"
    )


def packed_fingerprint(value: Any) -> bytes:
    """:func:`freeze_value` then :func:`pack_frozen` in one step."""
    return pack_frozen(freeze_value(value))


@functools.lru_cache(maxsize=128)
def _slot_names(cls: type) -> Tuple[str, ...]:
    """``cls``'s ``__slots__`` merged across the MRO, first occurrence first."""
    names: List[str] = []
    for klass in cls.__mro__:
        for name in getattr(klass, "__slots__", ()):
            if name != "__dict__" and name not in names:
                names.append(name)
    return tuple(names)


def node_state_dict(node: Any) -> Dict[str, Any]:
    """Every attribute of ``node`` as a name → value dict.

    Merges ``__slots__`` declarations across the MRO (slotted node classes
    have no ``__dict__`` for their slotted attributes) with any instance
    ``__dict__`` (unslotted subclasses, e.g. the content-carrying
    baselines, keep one).  Unset slots are skipped.
    """
    state: Dict[str, Any] = {}
    for name in _slot_names(type(node)):
        try:
            state[name] = getattr(node, name)
        except AttributeError:
            continue
    state.update(getattr(node, "__dict__", {}))
    return state


# -- per-class fast path -------------------------------------------------------
#
# The reduced explorer packs and copies one receiver node per executed
# delivery.  Done generically (``node_state_dict`` -> ``freeze_value`` ->
# ``pack_frozen``, and ``copy.deepcopy``) that bookkeeping costs more than
# the search itself.  A :class:`NodePlan` resolves a class's slot layout
# once and then writes the *same bytes* directly for the common case: a
# slotted node whose every slot is set and holds a flat value, i.e. a
# scalar (``None``, ``bool``, ``int``, an ``Enum`` member, ``str``) or a
# list/tuple of scalars.  Anything else takes the generic path, whole node.

_SCALAR_TYPES = frozenset({int, bool, str, type(None)})


def _is_scalar(value: Any) -> bool:
    return type(value) in _SCALAR_TYPES or isinstance(value, enum.Enum)


def _is_flat(value: Any) -> bool:
    kind = type(value)
    if kind is list or kind is tuple:
        return all(_is_scalar(item) for item in value)
    return _is_scalar(value)


def _pack_scalar(value: Any) -> Optional[bytes]:
    """``pack_frozen(freeze_value(value))`` for a scalar; None otherwise."""
    kind = type(value)
    if kind is int:  # exact type: a bool must never reach the int memo
        return pack_int(value)
    if kind is bool:
        return _TAG_TRUE if value else _TAG_FALSE
    if value is None:
        return _TAG_NONE
    if isinstance(value, enum.Enum):
        return _pack_enum(value)
    if kind is str:
        return _pack_str(value)
    return None


def _pack_flat_sequence(value: Any) -> Optional[bytes]:
    """``pack_frozen(freeze_value(value))`` for a list or tuple of scalars;
    None for anything else."""
    kind = type(value)
    if kind is not list and kind is not tuple:
        return None
    parts = [_pack_scalar(item) for item in value]
    if None in parts:
        return None
    return _TAG_TUPLE + _uvarint(len(parts)) + b"".join(parts)


def _reader(names: Tuple[str, ...]) -> Callable[[Any], Tuple[Any, ...]]:
    """Read ``names`` off an object as one tuple (AttributeError if unset)."""
    if len(names) == 1:
        read_one = operator.attrgetter(names[0])
        return lambda obj: (read_one(obj),)
    return operator.attrgetter(*names)


class NodePlan:
    """How to pack and copy the instances of one node class.

    Built once per class by :func:`node_plan`.  ``slots`` is the walk
    :func:`node_state_dict` makes.  The plan also holds each field's
    packed ``(name, value)`` tuple header, in the sorted order
    :func:`freeze_value` gives a dict's keys, so :meth:`pack` only
    appends values.  A class qualifies for the fast path (``inline``)
    when its instances have no ``__dict__`` and it defines no
    ``__deepcopy__``; each call then still falls back, for that node, on
    an unset slot or a value that is not flat.
    """

    __slots__ = (
        "cls",
        "slots",
        "inline",
        "_read_slots",
        "_read_fields",
        "_header",
        "_prefixes",
    )

    def __init__(self, cls: type) -> None:
        self.cls = cls
        self.slots = _slot_names(cls)
        fields = tuple(sorted(self.slots))
        self.inline = (
            bool(fields)
            and cls.__dictoffset__ == 0
            and not hasattr(cls, "__deepcopy__")
        )
        if self.inline:
            self._read_slots = _reader(self.slots)
            self._read_fields = _reader(fields)
        self._header = _TAG_TUPLE + _uvarint(len(fields))
        self._prefixes = tuple(
            _TAG_TUPLE + _uvarint(2) + _pack_str(name) for name in fields
        )

    def pack(self, node: Any) -> bytes:
        """Exactly ``pack_frozen(freeze_value(node_state_dict(node)))``."""
        packed = self._pack_flat_node(node) if self.inline else None
        if packed is None:
            packed = pack_frozen(freeze_value(node_state_dict(node)))
        return packed

    def copy(self, node: Any) -> Any:
        """A private copy of ``node``: equal state, no shared mutable object.

        A flat node is rebuilt slot by slot (lists copied, everything else
        immutable and shared); any other node is ``copy.deepcopy``-ed.
        Unlike ``deepcopy``, the slot copy does not keep two slots of one
        node aliased to a single list.
        """
        twin = self._copy_flat_node(node) if self.inline else None
        if twin is None:
            twin = copy.deepcopy(node)
        return twin

    def _pack_flat_node(self, node: Any) -> Optional[bytes]:
        try:
            values = self._read_fields(node)
        except AttributeError:  # an unset slot changes the field count
            return None
        parts = [self._header]
        for prefix, value in zip(self._prefixes, values):
            packed = _pack_scalar(value) or _pack_flat_sequence(value)
            if packed is None:
                return None
            parts.append(prefix)
            parts.append(packed)
        return b"".join(parts)

    def _copy_flat_node(self, node: Any) -> Any:
        try:
            values = self._read_slots(node)
        except AttributeError:
            return None
        twin = self.cls.__new__(self.cls)
        for name, value in zip(self.slots, values):
            if type(value) not in _SCALAR_TYPES:  # the common case first
                if not _is_flat(value):
                    return None
                if type(value) is list:
                    value = list(value)
            setattr(twin, name, value)
        return twin


@functools.lru_cache(maxsize=128)
def node_plan(cls: type) -> NodePlan:
    """The (cached) :class:`NodePlan` of node class ``cls``."""
    return NodePlan(cls)


def pack_node(node: Any) -> bytes:
    """``pack_frozen(freeze_value(node_state_dict(node)))``, via its plan."""
    return node_plan(type(node)).pack(node)


def copy_node(node: Any) -> Any:
    """A private copy of ``node`` (see :meth:`NodePlan.copy`)."""
    return node_plan(type(node)).copy(node)


def node_fingerprint(nodes: Iterable[Any]) -> Tuple[Any, ...]:
    """Canonical digest of every node's full local state.

    The same function applies to explorer states and to the node objects
    of a finished :class:`~repro.simulator.engine.Engine` run, which is
    what makes the explorer-vs-engine differential tests possible.
    """
    return tuple(freeze_value(node_state_dict(node)) for node in nodes)


# ---------------------------------------------------------------------------
# Declarative kernel-state schemas.
# ---------------------------------------------------------------------------

#: Field role literals (see module docstring).
CONFIG = "config"
OBSERVABLE = "observable"
TRANSIENT = "transient"

_ROLES = (CONFIG, OBSERVABLE, TRANSIENT)


@dataclass(frozen=True)
class Field:
    """One named component of a kernel's local state.

    Attributes:
        name: Attribute name, identical on node objects, kernel-state
            dataclasses, and fleet column structs.
        kind: Value shape — ``"int"``, ``"bool"``, ``"enum"``,
            ``"opt_int"``, ``"int_pair"``, or ``"int_list"`` (the fleet
            lowers ``int``/``bool`` fields to SoA columns; structured
            kinds stay per-node).
        role: ``config`` / ``observable`` / ``transient``.
        doc: What the field means in the paper's terms.
    """

    name: str
    kind: str
    role: str = OBSERVABLE
    doc: str = ""

    def __post_init__(self) -> None:
        if self.role not in _ROLES:
            raise ValueError(f"unknown field role {self.role!r}")


@dataclass(frozen=True)
class StateSchema:
    """The declared local state of one transition kernel."""

    name: str
    fields: Tuple[Field, ...]

    def field_names(self) -> Tuple[str, ...]:
        return tuple(f.name for f in self.fields)

    def observable_names(self) -> Tuple[str, ...]:
        """Fields whose terminal values are schedule-invariant (+ config)."""
        return tuple(
            f.name for f in self.fields if f.role in (CONFIG, OBSERVABLE)
        )

    def project(self, state: Any, names: Tuple[str, ...] = ()) -> Dict[str, Any]:
        """Read the schema's fields off any duck-typed state object."""
        return {
            name: getattr(state, name) for name in (names or self.field_names())
        }

    def state_fingerprint(self, state: Any) -> Tuple[Any, ...]:
        """Hashable digest of one state's *observable* projection.

        Works identically on algorithm node objects, kernel-state
        dataclasses, and the per-node dicts the fleet reconstructs from
        its columns — the backend-conformance suite compares exactly
        these digests across all four backends.
        """
        names = self.observable_names()
        if isinstance(state, dict):
            return tuple(freeze_value(state[name]) for name in names)
        return tuple(freeze_value(getattr(state, name)) for name in names)

    def fleet_fingerprint(self, row: Dict[str, Any]) -> Tuple[Any, ...]:
        """:meth:`state_fingerprint` for a fleet-reconstructed state dict."""
        return self.state_fingerprint(row)

    def columns(self, states: Iterable[Any]) -> Dict[str, List[Any]]:
        """Lower a sequence of states to name → per-node value lists
        (the struct-of-arrays layout the fleet engine batches over)."""
        cols: Dict[str, List[Any]] = {name: [] for name in self.field_names()}
        for state in states:
            for name in cols:
                cols[name].append(getattr(state, name))
        return cols
