"""The reduced explorer's per-class node packer and copier.

The reduced explorer keys every state on the nodes' packed bytes and
copies each receiver before a delivery mutates it.  It does both through
a :class:`~repro.core.schema.NodePlan` built once per node class, which
writes flat slotted nodes directly and hands everything else to the
generic path.  These tests hold the plan to the generic definitions on
every node class an explorer sees:

* ``pack_node(node)`` is byte-for-byte
  ``pack_frozen(freeze_value(node_state_dict(node)))``;
* ``copy_node(node)`` equals ``copy.deepcopy(node)`` under
  :func:`node_state_dict` and shares no mutable object with ``node``.

Slot values are drawn to hit the encoder's traps: ``True`` next to ``1``
(equal and hash-equal, but packed differently), ``IntEnum`` members equal
to small ints, ints on both sides of the small-int table, ``None``
outputs, unset slots, flat lists and values that must fall back.
"""

from __future__ import annotations

import copy
import enum
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.lelann import LeLannNode
from repro.core import schema
from repro.core.anonymous import Prop19Node
from repro.core.common import LeaderState
from repro.core.composition import ComposedNode
from repro.core.ear_election import EarElectionNode
from repro.core.kernels.nonoriented import IdScheme
from repro.core.nonoriented import NonOrientedNode
from repro.core.schema import (
    copy_node,
    freeze_value,
    node_plan,
    node_state_dict,
    pack_frozen,
    pack_node,
)
from repro.core.terminating import TerminatingNode
from repro.core.warmup import WarmupNode
from repro.simulator.node import Node


class _Low(enum.IntEnum):
    ONE = 1


class _Other(enum.IntEnum):
    ONE = 1


#: Every node class an explorer sees, as fresh-instance factories.
FACTORIES = {
    "warmup": lambda: WarmupNode(3),
    "terminating": lambda: TerminatingNode(3),
    "terminating-lax": lambda: TerminatingNode(3, strict_lag=False),
    "nonoriented": lambda: NonOrientedNode(3, scheme=IdScheme.DOUBLED),
    "ear": lambda: EarElectionNode((2, 5), (0, 1), {0: 0, 1: 1}),
    "prop19": lambda: Prop19Node(3, rng=random.Random(1)),
    "composed": lambda: ComposedNode(3, lambda leader: WarmupNode(2)),
    "lelann": lambda: LeLannNode(3),
}

_UNSET = object()

SCALARS = st.one_of(
    st.sampled_from([True, False, 1, 0, None, _Low.ONE, _Other.ONE]),
    st.integers(min_value=-3, max_value=1100),
    st.sampled_from(list(LeaderState) + list(IdScheme)),
    st.text(max_size=3),
)
FLAT = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=4),
    st.lists(SCALARS, max_size=4).map(tuple),
)
#: Values outside the flat domain: the plan must hand the node over whole.
NOT_FLAT = st.one_of(
    st.lists(st.lists(st.integers(0, 3), max_size=2), min_size=1, max_size=2),
    st.dictionaries(st.integers(0, 3), st.integers(0, 3), max_size=2),
    st.floats(allow_nan=False),
    st.builds(random.Random, st.integers(0, 9)),
    st.just(_UNSET),
)


@st.composite
def nodes(draw):
    """A node of a drawn class with its slots overwritten by drawn values.

    Mostly every slot holds a flat value (the fast path); up to two slots
    may instead be unset or hold a non-flat value.
    """
    node = FACTORIES[draw(st.sampled_from(sorted(FACTORIES)))]()
    names = node_plan(type(node)).slots
    values = {name: draw(FLAT) for name in names}
    for name in draw(st.lists(st.sampled_from(names), max_size=2, unique=True)):
        values[name] = draw(NOT_FLAT)
    for name, value in values.items():
        if value is _UNSET:
            delattr(node, name)
        else:
            setattr(node, name, value)
    return node


def _generic_pack(node):
    return pack_frozen(freeze_value(node_state_dict(node)))


def _comparable(node):
    """``node``'s state, with RNGs compared through their internal state."""
    return freeze_value(
        {
            name: value.getstate() if isinstance(value, random.Random) else value
            for name, value in node_state_dict(node).items()
        }
    )


def _mutable_ids(root):
    """Ids of every mutable object reachable from ``root`` (root included)."""
    found = set()
    stack = [root]
    while stack:
        value = stack.pop()
        if isinstance(value, (list, dict, set, random.Random, Node)):
            if id(value) in found:
                continue
            found.add(id(value))
        if isinstance(value, (list, tuple, set)):
            stack.extend(value)
        elif isinstance(value, dict):
            stack.extend(value.values())
        elif isinstance(value, Node):
            stack.extend(node_state_dict(value).values())
    return found


@given(nodes())
def test_pack_node_is_the_generic_packing(node):
    assert pack_node(node) == _generic_pack(node)


@given(nodes())
def test_copy_node_equals_deepcopy_and_shares_nothing_mutable(node):
    twin = copy_node(node)
    assert type(twin) is type(node)
    assert _comparable(twin) == _comparable(copy.deepcopy(node))
    assert pack_node(twin) == pack_node(node)
    assert not _mutable_ids(twin) & _mutable_ids(node)


def test_bool_and_int_members_pack_apart():
    """``True``, ``1`` and ``IntEnum`` members equal to 1 hash alike."""
    packed = set()
    for value in (1, True, _Low.ONE, _Other.ONE, 1, True):
        node = WarmupNode(3)
        node.output = value
        assert pack_node(node) == _generic_pack(node)
        packed.add(pack_node(node))
    assert len(packed) == 4


class _Spy:
    """Counts the calls a generic-path function receives."""

    def __init__(self, monkeypatch, owner, name):
        self.calls = 0
        original = getattr(owner, name)

        def spy(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)


def _spies(monkeypatch):
    return _Spy(monkeypatch, schema, "pack_frozen"), _Spy(monkeypatch, copy, "deepcopy")


@pytest.mark.parametrize("case", ["composed", "lelann", "prop19", "ear"])
def test_fallback_classes_take_the_generic_path(case, monkeypatch):
    """Instance ``__dict__`` (composed, baseline), an RNG (Proposition 19)
    or a dict-valued slot (ear routing): the whole node goes generic."""
    node = FACTORIES[case]()
    expected = _generic_pack(node)
    assert node_plan(type(node)).inline == (case in ("prop19", "ear"))
    pack, deepcopy = _spies(monkeypatch)
    assert pack_node(node) == expected
    copy_node(node)
    assert pack.calls and deepcopy.calls


@pytest.mark.parametrize("case", ["warmup", "terminating", "nonoriented"])
def test_flat_classes_take_the_fast_path(case, monkeypatch):
    node = FACTORIES[case]()
    assert node_plan(type(node)).inline
    pack, deepcopy = _spies(monkeypatch)
    pack_node(node)
    copy_node(node)
    assert (pack.calls, deepcopy.calls) == (0, 0)
