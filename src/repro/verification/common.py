"""Machinery shared by the unreduced and reduced schedule explorers.

Two concerns live here so that :mod:`repro.verification.explorer` (the
trusted reference search) and :mod:`repro.verification.reduced` (the
partial-order-reduced search) stay byte-for-byte comparable:

* **Invariant-hook adapters** — the executable lemmas in
  :mod:`repro.core.invariants` are written against a running engine but
  only ever touch ``engine.network.nodes`` and
  ``engine.network.pending_messages()``.  :class:`EngineView` provides
  exactly that surface for an explorer state, so the same hook objects
  certify invariants at every explored state.  Hooks are the explorers'
  only per-state check.
* **The visited set** — :class:`VisitedStore`, in memory or spilled to
  an on-disk table.

State fingerprints (:func:`~repro.core.schema.node_fingerprint` and
friends) live in :mod:`repro.core.schema`, next to the kernel state
schemas; fault replay lives in :mod:`repro.faults.profile`.
"""

from __future__ import annotations

import os
import sqlite3
import tempfile
from typing import Any, FrozenSet, Iterable, Optional, Sequence


class _NetworkFacade:
    """Duck-typed stand-in for a :class:`~repro.simulator.network.Network`."""

    __slots__ = ("nodes", "_pending")

    def __init__(self, nodes: Sequence[Any], pending: int) -> None:
        self.nodes = nodes
        self._pending = pending

    def pending_messages(self) -> int:
        return self._pending


class EngineView:
    """Adapter letting engine invariant hooks run on an explorer state.

    The hooks in :mod:`repro.core.invariants` receive "the engine" but
    only consult ``engine.network`` — its node list and its in-flight
    message count.  An :class:`EngineView` packages one explored global
    state behind that exact surface.
    """

    __slots__ = ("network",)

    def __init__(self, nodes: Sequence[Any], pending: int) -> None:
        self.network = _NetworkFacade(nodes, pending)


# ---------------------------------------------------------------------------
# Compact, optionally disk-spilled visited sets.
# ---------------------------------------------------------------------------

#: Rough per-entry bookkeeping cost of a Python dict/set slot holding a
#: small ``bytes`` key (pointer + hash + allocator overhead).  Only used
#: for the spill heuristic and the reported telemetry; it does not need
#: to be exact, just monotone in the real footprint.
_ENTRY_OVERHEAD = 96


def _encode_labels(labels: Iterable[int]) -> bytes:
    """Sorted LEB128 stream — the on-disk form of a transition-label set."""
    out = bytearray()
    for label in sorted(labels):
        while True:
            byte = label & 0x7F
            label >>= 7
            if label:
                out.append(byte | 0x80)
            else:
                out.append(byte)
                break
    return bytes(out)


def _decode_labels(blob: bytes) -> FrozenSet[int]:
    labels = []
    value = shift = 0
    for byte in blob:
        value |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
        else:
            labels.append(value)
            value = shift = 0
    return frozenset(labels)


class VisitedStore:
    """A visited set keyed on packed byte fingerprints, spillable to disk.

    Two shapes, picked at construction:

    * membership only (``track_payload=False``) — :meth:`add` returns
      whether the key was new;
    * key → label-set payload (``track_payload=True``) — the sleep-set
      search stores, per visited state, the stored sleep set the state
      was last (re-)explored with (:meth:`get_payload` /
      :meth:`set_payload`).

    The store starts as an in-memory ``set``/``dict``.  When
    ``spill_threshold`` (bytes) is given and the estimated footprint
    exceeds it, all entries migrate into a stdlib ``sqlite3`` database
    and subsequent operations hit the database — bounding resident
    memory at frontier budgets at the price of per-op latency.  The
    database lives in a private temp dir, created inside ``spill_dir``
    when one is given and removed by :meth:`close`.  ``peak_bytes`` always
    reports the estimated *logical* footprint (what the in-memory form
    would have cost), which is the capacity-planning number the bench
    records.
    """

    def __init__(
        self,
        track_payload: bool = False,
        spill_dir: Optional[str] = None,
        spill_threshold: Optional[int] = None,
    ) -> None:
        self.track_payload = track_payload
        self.spill_threshold = spill_threshold
        self._spill_dir = spill_dir
        self._mem_set: Optional[set] = None if track_payload else set()
        self._mem_map: Optional[dict] = {} if track_payload else None
        self._approx_bytes = 0
        self.peak_bytes = 0
        self.spilled = False
        self._count = 0
        self._conn: Optional[sqlite3.Connection] = None
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None

    def __len__(self) -> int:
        return self._count

    # -- membership mode ---------------------------------------------------

    def add(self, key: bytes) -> bool:
        """Insert ``key``; True iff it was not present before."""
        if self._conn is not None:
            cursor = self._conn.execute(
                "INSERT OR IGNORE INTO visited (k) VALUES (?)", (key,)
            )
            if cursor.rowcount == 0:
                return False
        else:
            if key in self._mem_set:
                return False
            self._mem_set.add(key)
        self._count += 1
        self._grow(len(key) + _ENTRY_OVERHEAD)
        return True

    # -- payload mode ------------------------------------------------------

    def get_payload(self, key: bytes) -> Optional[FrozenSet[int]]:
        """The stored label set, or None when ``key`` was never visited."""
        if self._conn is not None:
            row = self._conn.execute(
                "SELECT p FROM visited WHERE k = ?", (key,)
            ).fetchone()
            return None if row is None else _decode_labels(row[0])
        return self._mem_map.get(key)

    def set_payload(self, key: bytes, labels: FrozenSet[int]) -> None:
        """Insert or overwrite ``key``'s label set."""
        if self._conn is not None:
            cursor = self._conn.execute(
                "UPDATE visited SET p = ? WHERE k = ?",
                (_encode_labels(labels), key),
            )
            if cursor.rowcount == 0:
                self._conn.execute(
                    "INSERT INTO visited (k, p) VALUES (?, ?)",
                    (key, _encode_labels(labels)),
                )
                self._count += 1
                self._grow(len(key) + _ENTRY_OVERHEAD + 8 * len(labels))
            return
        # Store before growing: the growth may spill, and the spill must
        # carry this key into the database.
        new = key not in self._mem_map
        self._mem_map[key] = frozenset(labels)
        if new:
            self._count += 1
            self._grow(len(key) + _ENTRY_OVERHEAD + 8 * len(labels))

    # -- spill plumbing ----------------------------------------------------

    def _grow(self, nbytes: int) -> None:
        self._approx_bytes += nbytes
        if self._approx_bytes > self.peak_bytes:
            self.peak_bytes = self._approx_bytes
        if (
            self._conn is None
            and self.spill_threshold is not None
            and self._approx_bytes > self.spill_threshold
        ):
            self._spill()

    def _spill(self) -> None:
        # A private directory even inside a caller's ``spill_dir``: two
        # stores sharing one ``spill_dir`` must never see each other's rows.
        self._tmpdir = tempfile.TemporaryDirectory(
            prefix="repro-visited-", dir=self._spill_dir
        )
        path = os.path.join(self._tmpdir.name, "visited.sqlite")
        self._conn = sqlite3.connect(path)
        self._conn.execute("PRAGMA journal_mode = OFF")
        self._conn.execute("PRAGMA synchronous = OFF")
        self._conn.execute("CREATE TABLE visited (k BLOB PRIMARY KEY, p BLOB)")
        if self.track_payload:
            self._conn.executemany(
                "INSERT OR REPLACE INTO visited (k, p) VALUES (?, ?)",
                (
                    (key, _encode_labels(labels))
                    for key, labels in self._mem_map.items()
                ),
            )
            self._mem_map = {}
        else:
            self._conn.executemany(
                "INSERT OR IGNORE INTO visited (k) VALUES (?)",
                ((key,) for key in self._mem_set),
            )
            self._mem_set = set()
        self._conn.commit()
        self.spilled = True

    def close(self) -> None:
        """Release the database and its temp directory (idempotent)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None
