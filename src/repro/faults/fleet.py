"""Fleet-backend compiler: the fault model over struct-of-arrays rounds.

The fleet engine (:mod:`repro.simulator.fleet`) advances ``B`` instances
in lockstep rounds over per-direction ``flight[B, n]`` columns.  This
module lowers a :class:`~repro.faults.model.FaultModel` onto that loop:

* **random channel faults** roll once per *(instance, round, channel)*
  — the fleet's notion of a fault opportunity (event channels roll per
  send; same declarative rates, per-backend opportunity grain).  Drops
  thin the in-flight population pulse-by-pulse (each of the ``f`` pulses
  on a channel rolls independently), duplicates/spurious add at most one
  pulse per channel per round.
* **deterministic drops** (:class:`~repro.faults.model.PulseDrop`)
  remove in-flight pulses at the start of a chosen round.
* **crashes** evaporate all deliveries toward the node while down (its
  state freezes: nothing is delivered, its pending is empty at round
  boundaries, so the kernels never touch it); a restart resets the node
  via the kernel's fresh-state semantics and re-sends its init pulse.
* **corruption** overwrites one materialized column value at the start
  of its round (fields pre-validated against the kernel ``SCHEMA``).

Every decision is a counter-based roll keyed on the **global** instance
index (``instance_offset + row``), so a counterexample replayed solo at
the same global index sees the identical fault pattern.  The NumPy and
pure-Python applications are written as exact twins (same clause order,
same roll coordinates) — the fleet differential tests pin this
bit-for-bit.

Lap-skips and faults: fault opportunities are defined per fleet *round*,
and a lap-skip compresses laps **within** one round, so skipping changes
no fault decision.  Node crashes are the exception — a skip would relay
pulses through a node that must absorb nothing — so a model with crash
clauses disables the skip fast-paths (correctness over throughput; the
recovery harness caps rounds with a watchdog anyway).  Correlated
:class:`~repro.faults.model.FaultGroup` clauses and the probabilistic
``crash_rate`` knob disable skips for the same reason, plus one more: a
threshold-crossing trigger must *visit* the crossing round, which a
closed-form lap jump would skip straight past.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.faults.model import (
    _KEY_CHANNEL,
    _KEY_INSTANCE,
    _KEY_PULSE,
    _KEY_ROUND,
    _MIX_A,
    _MIX_B,
    _TWO64,
    KIND_CRASH,
    KIND_DROP,
    KIND_DUPLICATE,
    KIND_SPURIOUS,
    FaultModel,
    corruptible_fields,
    mix64,
    rate_threshold,
    roll_u64,
)

#: Event-counter keys shared by every fleet fault adapter (same totals on
#: both backends; the differential tests compare the dicts directly).
EVENT_KEYS = (
    "dropped",
    "duplicated",
    "injected",
    "det_dropped",
    "crash_lost",
    "restarts",
    "corruptions",
)


def _fresh_events() -> Dict[str, int]:
    return {key: 0 for key in EVENT_KEYS}


def merge_events(*dicts: Optional[Dict[str, int]]) -> Dict[str, int]:
    """Sum per-kind fault-event counters across adapters."""
    merged = _fresh_events()
    for events in dicts:
        if events:
            for key, value in events.items():
                merged[key] = merged.get(key, 0) + value
    return merged


def _check_node(node: int, n: int, what: str) -> None:
    if not 0 <= node < n:
        raise ConfigurationError(
            f"{what} targets node {node}, outside the ring [0, {n})"
        )


def _np_rolls(
    np_mod: Any,
    seed: int,
    kind: int,
    round_index: int,
    pulse: int,
    instance_offset: int,
    n_rows: int,
    chan_base: int,
    n: int,
) -> Any:
    """Vectorized :func:`~repro.faults.model.roll_u64`: uint64 ``[B, n]``."""
    u64 = np_mod.uint64
    with np_mod.errstate(over="ignore"):
        b = (u64(instance_offset) + np_mod.arange(n_rows, dtype=u64))[:, None]
        c = (u64(chan_base) + np_mod.arange(n, dtype=u64))[None, :]
        x = (
            u64(mix64(seed))
            + u64(kind)
            + b * u64(_KEY_INSTANCE)
            + u64(round_index % _TWO64) * u64(_KEY_ROUND)
            + c * u64(_KEY_CHANNEL)
            + u64(pulse) * u64(_KEY_PULSE)
        )
        x = (x ^ (x >> u64(33))) * u64(_MIX_A)
        x = (x ^ (x >> u64(33))) * u64(_MIX_B)
        x = x ^ (x >> u64(33))
    return x


def _np_under(np_mod: Any, rolls: Any, threshold: int) -> Any:
    """``roll < threshold`` with the 2**64 (certain) threshold handled."""
    if threshold >= _TWO64:
        return np_mod.ones(rolls.shape, dtype=bool)
    return rolls < np_mod.uint64(threshold)


def _np_group_sel(
    np_mod: Any, group: Any, live: Any, instance_offset: int, B: int
) -> Any:
    """Row mask a group may touch: live rows, or the one targeted row."""
    if group.instance is None:
        return live
    sel = np_mod.zeros(B, bool)
    row = group.instance - instance_offset
    if 0 <= row < B:
        sel[row] = live[row]
    return sel


def _np_rate_mask(
    np_mod: Any, model: FaultModel, instance_offset: int, B: int, n: int
) -> Any:
    """The ``crash_rate`` dead-node mask (bool ``[B, n]``): one roll per
    (global instance, node) — channel base 0 in every adapter, so both
    directional runs agree which nodes are dead."""
    rolls = _np_rolls(
        np_mod, model.seed, KIND_CRASH, 0, 0, instance_offset, B, 0, n
    )
    return _np_under(np_mod, rolls, rate_threshold(model.crash_rate))


def _py_rate_mask(model: FaultModel, instance: int, n: int) -> List[bool]:
    """Scalar twin of :func:`_np_rate_mask` for one global instance."""
    threshold = rate_threshold(model.crash_rate)
    return [
        roll_u64(model.seed, KIND_CRASH, instance, 0, v, 0) < threshold
        for v in range(n)
    ]


def _apply_random_np(
    np_mod: Any,
    model: FaultModel,
    events: Dict[str, int],
    round_index: int,
    flight: Any,
    instance_offset: int,
    chan_base: int,
    live: Any,
    window: Any = None,
) -> None:
    """Random drop/dup/spurious over one direction's flight (in place).

    ``live`` is a bool ``[B]`` row mask: rows whose instance already
    quiesced are frozen — the pure-Python twin's per-instance loop has
    exited by then, so the batch must stop rolling faults for them too
    (fault streams must not depend on batch composition).

    ``window`` (bool ``[B]`` or None) is the group-burst gate: when the
    model carries group bursts, the rates fire only in rows whose burst
    window is active *this* round (replacing the model-level
    ``covers`` gate, which per-row fire rounds make meaningless).
    """
    if window is None:
        if not model.covers(round_index):
            return
        active = live
    else:
        active = live & window
        if not active.any():
            return
    B, n = flight.shape
    rows = active[:, None]
    t_drop = rate_threshold(model.drop_rate)
    t_dup = rate_threshold(model.duplicate_rate)
    t_spur = rate_threshold(model.spurious_rate)
    if t_drop:
        fmax = int(flight.max())
        if fmax:
            removed = np_mod.zeros_like(flight)
            for j in range(fmax):
                rolls = _np_rolls(
                    np_mod, model.seed, KIND_DROP, round_index, j,
                    instance_offset, B, chan_base, n,
                )
                removed += _np_under(np_mod, rolls, t_drop) & (flight > j) & rows
            flight -= removed
            events["dropped"] += int(removed.sum())
    if t_dup:
        rolls = _np_rolls(
            np_mod, model.seed, KIND_DUPLICATE, round_index, 0,
            instance_offset, B, chan_base, n,
        )
        hit = _np_under(np_mod, rolls, t_dup) & (flight > 0) & rows
        flight += hit
        events["duplicated"] += int(hit.sum())
    if t_spur:
        rolls = _np_rolls(
            np_mod, model.seed, KIND_SPURIOUS, round_index, 0,
            instance_offset, B, chan_base, n,
        )
        hit = _np_under(np_mod, rolls, t_spur) & rows
        flight += hit
        events["injected"] += int(hit.sum())


def _apply_random_py(
    model: FaultModel,
    events: Dict[str, int],
    round_index: int,
    flight: List[int],
    instance: int,
    chan_base: int,
    window: Any = None,
) -> None:
    """Scalar twin of :func:`_apply_random_np` for one instance;
    ``window`` is the scalar group-burst gate (bool, or None for the
    model-level ``covers`` gate)."""
    if window is None:
        if not model.covers(round_index):
            return
    elif not window:
        return
    n = len(flight)
    t_drop = rate_threshold(model.drop_rate)
    t_dup = rate_threshold(model.duplicate_rate)
    t_spur = rate_threshold(model.spurious_rate)
    if t_drop:
        for v in range(n):
            hits = 0
            for j in range(flight[v]):
                roll = roll_u64(
                    model.seed, KIND_DROP, instance, round_index, chan_base + v, j
                )
                if roll < t_drop:
                    hits += 1
            if hits:
                flight[v] -= hits
                events["dropped"] += hits
    if t_dup:
        for v in range(n):
            if flight[v] > 0:
                roll = roll_u64(
                    model.seed, KIND_DUPLICATE, instance, round_index,
                    chan_base + v, 0,
                )
                if roll < t_dup:
                    flight[v] += 1
                    events["duplicated"] += 1
    if t_spur:
        for v in range(n):
            roll = roll_u64(
                model.seed, KIND_SPURIOUS, instance, round_index,
                chan_base + v, 0,
            )
            if roll < t_spur:
                flight[v] += 1
                events["injected"] += 1


class DirectionFaults:
    """A :class:`FaultModel` compiled onto one directional warmup-kernel
    fleet run (Algorithm 1, or one half of Algorithm 3).

    The direction run materializes exactly two counter columns — its
    ``rho`` and ``sigma`` — so corruption clauses naming the *other*
    direction's fields are silently owned by the twin adapter (the
    caller compiles one adapter per direction).
    """

    def __init__(
        self,
        model: FaultModel,
        n: int,
        direction: str,
        shift: int,
        chan_base: int,
        algorithm: str,
    ) -> None:
        self.model = model
        self.n = n
        self.direction = direction
        self.shift = shift
        self.chan_base = chan_base
        allowed = corruptible_fields(algorithm)
        for corruption in model.corruptions:
            if corruption.field not in allowed:
                raise ConfigurationError(
                    f"cannot corrupt field {corruption.field!r} of algorithm "
                    f"{algorithm!r}; schema-validated targets: {list(allowed)}"
                )
            _check_node(corruption.node, n, "corruption")
        for crash in model.crashes:
            _check_node(crash.node, n, "crash")
        for drop in model.drops:
            _check_node(drop.node, n, "pulse-drop")
        self.drops = tuple(d for d in model.drops if d.direction == direction)
        rho_field = "rho_cw" if direction == "cw" else "rho_ccw"
        sigma_field = "sigma_cw" if direction == "cw" else "sigma_ccw"
        self._owned = {rho_field: "rho", sigma_field: "sigma"}
        self.corruptions = tuple(
            c for c in model.corruptions if c.field in self._owned
        )
        self.groups = model.groups
        for group in model.groups:
            _check_node(group.anchor, n, "group anchor")
        #: Per-group fire rounds: lazily-allocated int64 ``[B]`` (0 =
        #: unfired) on the NumPy path, {global instance: fire} dicts on
        #: the scalar path.  Fire rounds are pure functions of each
        #: instance's own trajectory, so any shard layout agrees.
        self._group_fire_np: Optional[List[Any]] = None
        self._group_fire_py: List[Dict[int, int]] = [{} for _ in model.groups]
        self._rate_mask_np: Any = None
        self._rate_mask_py: Dict[int, List[bool]] = {}
        #: Lap/hop skips relay pulses through every node, which a crashed
        #: node must not do — crash models run skip-free (see module doc).
        #: Groups and crash_rate also need every round visited: threshold
        #: triggers must observe the crossing round itself.
        self.allow_skips = not (model.crashes or model.groups or model.crash_rate)
        self.events = _fresh_events()

    # -- correlated-group lowering (np side) -----------------------------

    def _np_groups_begin(
        self,
        np_mod: Any,
        round_index: int,
        rho: Any,
        sigma: Any,
        live: Any,
        instance_offset: int,
        B: int,
    ) -> Any:
        """Advance per-row trigger state; returns the burst-window row
        mask (bool ``[B]``) when the model carries group bursts, else
        None.  Trigger fields are read *before* any clause mutates the
        columns this round (same position in the scalar twin)."""
        if not self.groups:
            return None
        if self._group_fire_np is None:
            self._group_fire_np = [
                np_mod.zeros(B, np_mod.int64) for _ in self.groups
            ]
        window = np_mod.zeros(B, bool) if self.model.has_group_bursts else None
        for group, fire in zip(self.groups, self._group_fire_np):
            sel = _np_group_sel(np_mod, group, live, instance_offset, B)
            unfired = fire == 0
            if group.at_round is not None:
                newly = sel & unfired if round_index == group.at_round else None
            else:
                vals = (rho if group.trigger_field == "rho" else sigma)[
                    :, group.anchor
                ]
                newly = sel & unfired & (vals >= group.trigger_threshold)
            if newly is not None and newly.any():
                fire[newly] = round_index
            if window is not None and group.burst is not None:
                fired = sel & (fire > 0)
                if fired.any():
                    rel = round_index - fire + 1
                    cov = rel >= group.burst.start
                    if group.burst.length is not None:
                        cov &= rel < group.burst.start + group.burst.length
                    window |= fired & cov
        return window

    def _np_group_drops(
        self,
        np_mod: Any,
        round_index: int,
        flight: Any,
        live: Any,
        instance_offset: int,
        B: int,
        n: int,
    ) -> None:
        for group, fire in zip(self.groups, self._group_fire_np or ()):
            sel = _np_group_sel(np_mod, group, live, instance_offset, B)
            fired = sel & (fire > 0)
            if not fired.any():
                continue
            for drop in group.drops:
                if drop.direction != self.direction:
                    continue
                rows = fired & (fire + drop.offset == round_index)
                if not rows.any():
                    continue
                node = (group.anchor + drop.node_offset) % n
                removed = np_mod.where(
                    rows, np_mod.minimum(flight[:, node], drop.count), 0
                )
                flight[:, node] -= removed
                self.events["det_dropped"] += int(removed.sum())

    def _np_group_crashes(
        self,
        np_mod: Any,
        round_index: int,
        rho: Any,
        sigma: Any,
        flight: Any,
        live: Any,
        instance_offset: int,
        B: int,
        n: int,
        extra: Any,
    ) -> Any:
        for group, fire in zip(self.groups, self._group_fire_np or ()):
            if not group.crash:
                continue
            sel = _np_group_sel(np_mod, group, live, instance_offset, B)
            fired = sel & (fire > 0)
            if not fired.any():
                continue
            if group.restart_after is None:
                down = fired
                restart = None
            else:
                down = fired & (round_index < fire + group.restart_after)
                restart = fired & (round_index == fire + group.restart_after)
            if down.any():
                lost = np_mod.where(down, flight[:, group.anchor], 0)
                self.events["crash_lost"] += int(lost.sum())
                flight[down, group.anchor] = 0
            if restart is not None and restart.any():
                rho[restart, group.anchor] = 0
                sigma[restart, group.anchor] = 1
                flight[restart, (group.anchor + self.shift) % n] += 1
                self.events["restarts"] += int(restart.sum())
                if extra is None:
                    extra = np_mod.zeros(B, np_mod.int64)
                extra[restart] += 1
        return extra

    def _np_crash_rate(
        self,
        np_mod: Any,
        flight: Any,
        live: Any,
        instance_offset: int,
        B: int,
        n: int,
    ) -> None:
        if not self.model.crash_rate:
            return
        if self._rate_mask_np is None:
            self._rate_mask_np = _np_rate_mask(
                np_mod, self.model, instance_offset, B, n
            )
        dead = self._rate_mask_np & live[:, None]
        lost = np_mod.where(dead, flight, 0)
        self.events["crash_lost"] += int(lost.sum())
        flight[dead] = 0

    # -- correlated-group lowering (scalar twin) -------------------------

    def _py_groups_begin(
        self, round_index: int, instance: int, states: List[Any]
    ) -> Any:
        """Scalar twin of :meth:`_np_groups_begin` for one instance."""
        if not self.groups:
            return None
        window = False if self.model.has_group_bursts else None
        for i, group in enumerate(self.groups):
            if group.instance is not None and group.instance != instance:
                continue
            fire = self._group_fire_py[i].get(instance, 0)
            if fire == 0:
                if group.at_round is not None:
                    if round_index == group.at_round:
                        fire = round_index
                else:
                    attr = (
                        "rho_cw" if group.trigger_field == "rho" else "sigma_cw"
                    )
                    if getattr(states[group.anchor], attr) >= group.trigger_threshold:
                        fire = round_index
                if fire:
                    self._group_fire_py[i][instance] = fire
            if window is not None and fire and group.burst_active(round_index, fire):
                window = True
        return window

    def _py_group_drops(
        self, round_index: int, instance: int, flight: List[int]
    ) -> None:
        n = self.n
        for i, group in enumerate(self.groups):
            if group.instance is not None and group.instance != instance:
                continue
            fire = self._group_fire_py[i].get(instance, 0)
            if not fire:
                continue
            for drop in group.drops:
                if drop.direction != self.direction:
                    continue
                if fire + drop.offset != round_index:
                    continue
                node = (group.anchor + drop.node_offset) % n
                removed = min(flight[node], drop.count)
                flight[node] -= removed
                self.events["det_dropped"] += removed

    def _py_group_crashes(
        self,
        round_index: int,
        instance: int,
        gov: List[int],
        states: List[Any],
        flight: List[int],
        kernel: Any,
    ) -> int:
        n = self.n
        extra = 0
        for i, group in enumerate(self.groups):
            if not group.crash:
                continue
            if group.instance is not None and group.instance != instance:
                continue
            fire = self._group_fire_py[i].get(instance, 0)
            if not fire:
                continue
            if group.down(round_index, fire):
                self.events["crash_lost"] += flight[group.anchor]
                flight[group.anchor] = 0
            elif group.restarts_at(round_index, fire):
                states[group.anchor] = kernel.make_state(gov[group.anchor])
                _, emissions, _ = kernel.init(states[group.anchor])
                for _port, cnt in emissions:
                    flight[(group.anchor + self.shift) % n] += cnt
                    extra += cnt
                self.events["restarts"] += 1
        return extra

    def _py_crash_rate(self, instance: int, flight: List[int]) -> None:
        if not self.model.crash_rate:
            return
        mask = self._rate_mask_py.get(instance)
        if mask is None:
            mask = _py_rate_mask(self.model, instance, self.n)
            self._rate_mask_py[instance] = mask
        for v in range(self.n):
            if mask[v]:
                self.events["crash_lost"] += flight[v]
                flight[v] = 0

    def apply_np(
        self,
        np_mod: Any,
        round_index: int,
        rho: Any,
        sigma: Any,
        flight: Any,
        instance_offset: int,
        live: Any,
    ) -> Any:
        """Mutate the columns for one round start; returns extra sends
        (0, or an int64 ``[B]`` array when a restart re-init sent pulses).

        ``live`` is a bool ``[B]`` mask of rows that have not yet
        quiesced; quiesced rows are frozen (the pure-Python twin's
        per-instance loop has already exited for them)."""
        B, n = flight.shape
        extra = None
        window = self._np_groups_begin(
            np_mod, round_index, rho, sigma, live, instance_offset, B
        )
        for drop in self.drops:
            if drop.round_index != round_index:
                continue
            if drop.instance is None:
                removed = np_mod.where(
                    live, np_mod.minimum(flight[:, drop.node], drop.count), 0
                )
                flight[:, drop.node] -= removed
                self.events["det_dropped"] += int(removed.sum())
            else:
                row = drop.instance - instance_offset
                if 0 <= row < B and live[row]:
                    removed = min(int(flight[row, drop.node]), drop.count)
                    flight[row, drop.node] -= removed
                    self.events["det_dropped"] += removed
        self._np_group_drops(
            np_mod, round_index, flight, live, instance_offset, B, n
        )
        for crash in self.model.crashes:
            if crash.instance is None:
                rows: Any = live
                count = int(np_mod.sum(live))
            else:
                row = crash.instance - instance_offset
                if not (0 <= row < B and live[row]):
                    continue
                rows = row
                count = 1
            if count == 0:
                continue
            if crash.down(round_index):
                lost = flight[rows, crash.node]
                self.events["crash_lost"] += int(np_mod.sum(lost))
                flight[rows, crash.node] = 0
            elif crash.restarts_at(round_index):
                rho[rows, crash.node] = 0
                sigma[rows, crash.node] = 1
                flight[rows, (crash.node + self.shift) % n] += 1
                self.events["restarts"] += count
                if extra is None:
                    extra = np_mod.zeros(B, np_mod.int64)
                extra[rows] += 1
        self._np_crash_rate(np_mod, flight, live, instance_offset, B, n)
        extra = self._np_group_crashes(
            np_mod, round_index, rho, sigma, flight, live, instance_offset,
            B, n, extra,
        )
        _apply_random_np(
            np_mod, self.model, self.events, round_index, flight,
            instance_offset, self.chan_base, live, window,
        )
        for corruption in self.corruptions:
            if corruption.at_round != round_index:
                continue
            target = rho if self._owned[corruption.field] == "rho" else sigma
            if corruption.instance is None:
                target[live, corruption.node] = corruption.value
                self.events["corruptions"] += int(np_mod.sum(live))
            else:
                row = corruption.instance - instance_offset
                if 0 <= row < B and live[row]:
                    target[row, corruption.node] = corruption.value
                    self.events["corruptions"] += 1
        return 0 if extra is None else extra

    def apply_py(
        self,
        round_index: int,
        instance: int,
        gov: List[int],
        states: List[Any],
        flight: List[int],
        kernel: Any,
    ) -> int:
        """Scalar twin of :meth:`apply_np` for global ``instance``;
        returns the number of extra pulses sent (restart re-inits)."""
        n = self.n
        extra = 0
        window = self._py_groups_begin(round_index, instance, states)
        for drop in self.drops:
            if drop.round_index != round_index:
                continue
            if drop.instance is None or drop.instance == instance:
                removed = min(flight[drop.node], drop.count)
                flight[drop.node] -= removed
                self.events["det_dropped"] += removed
        self._py_group_drops(round_index, instance, flight)
        for crash in self.model.crashes:
            if crash.instance is not None and crash.instance != instance:
                continue
            if crash.down(round_index):
                self.events["crash_lost"] += flight[crash.node]
                flight[crash.node] = 0
            elif crash.restarts_at(round_index):
                states[crash.node] = kernel.make_state(gov[crash.node])
                _, emissions, _ = kernel.init(states[crash.node])
                for _port, cnt in emissions:
                    flight[(crash.node + self.shift) % n] += cnt
                    extra += cnt
                self.events["restarts"] += 1
        self._py_crash_rate(instance, flight)
        extra += self._py_group_crashes(
            round_index, instance, gov, states, flight, kernel
        )
        _apply_random_py(
            self.model, self.events, round_index, flight, instance,
            self.chan_base, window,
        )
        for corruption in self.corruptions:
            if corruption.at_round != round_index:
                continue
            if corruption.instance is None or corruption.instance == instance:
                attr = (
                    "rho_cw"
                    if self._owned[corruption.field] == "rho"
                    else "sigma_cw"
                )
                setattr(states[corruption.node], attr, corruption.value)
                self.events["corruptions"] += 1
        return extra


#: Terminating-kernel column spellings for corruptible schema fields.
_TERMINATING_COLS = {
    "rho_cw": "rho_cw",
    "sigma_cw": "sigma_cw",
    "rho_ccw": "rho_ccw",
    "sigma_ccw": "sigma_ccw",
    "pending_cw": "pend_cw",
    "pending_ccw": "pend_ccw",
}


class TerminatingFaults:
    """A :class:`FaultModel` compiled onto the terminating fleet run
    (Algorithm 2: both directions in one round loop, CW channels at
    indices ``[0, n)`` and CCW at ``[n, 2n)`` — the seeded scheduler's
    layout)."""

    def __init__(self, model: FaultModel, n: int) -> None:
        self.model = model
        self.n = n
        allowed = corruptible_fields("terminating")
        for corruption in model.corruptions:
            if corruption.field not in allowed:
                raise ConfigurationError(
                    f"cannot corrupt field {corruption.field!r} of algorithm "
                    f"'terminating'; schema-validated targets: {list(allowed)}"
                )
            _check_node(corruption.node, n, "corruption")
        for crash in model.crashes:
            _check_node(crash.node, n, "crash")
        for drop in model.drops:
            _check_node(drop.node, n, "pulse-drop")
        self.cw_drops = tuple(d for d in model.drops if d.direction == "cw")
        self.ccw_drops = tuple(d for d in model.drops if d.direction == "ccw")
        self.groups = model.groups
        for group in model.groups:
            _check_node(group.anchor, n, "group anchor")
        self._group_fire_np: Optional[List[Any]] = None
        self._group_fire_py: List[Dict[int, int]] = [{} for _ in model.groups]
        self._rate_mask_np: Any = None
        self._rate_mask_py: Dict[int, List[bool]] = {}
        self.allow_skips = not (model.crashes or model.groups or model.crash_rate)
        self.events = _fresh_events()

    # -- correlated-group lowering (np side; trigger fields read from the
    # terminating run's primary-direction columns rho_cw/sigma_cw) ------

    def _np_groups_begin(
        self,
        np_mod: Any,
        round_index: int,
        cols: Any,
        live: Any,
        instance_offset: int,
        B: int,
    ) -> Any:
        if not self.groups:
            return None
        if self._group_fire_np is None:
            self._group_fire_np = [
                np_mod.zeros(B, np_mod.int64) for _ in self.groups
            ]
        window = np_mod.zeros(B, bool) if self.model.has_group_bursts else None
        for group, fire in zip(self.groups, self._group_fire_np):
            sel = _np_group_sel(np_mod, group, live, instance_offset, B)
            unfired = fire == 0
            if group.at_round is not None:
                newly = sel & unfired if round_index == group.at_round else None
            else:
                source = (
                    cols.rho_cw if group.trigger_field == "rho" else cols.sigma_cw
                )
                vals = source[:, group.anchor]
                newly = sel & unfired & (vals >= group.trigger_threshold)
            if newly is not None and newly.any():
                fire[newly] = round_index
            if window is not None and group.burst is not None:
                fired = sel & (fire > 0)
                if fired.any():
                    rel = round_index - fire + 1
                    cov = rel >= group.burst.start
                    if group.burst.length is not None:
                        cov &= rel < group.burst.start + group.burst.length
                    window |= fired & cov
        return window

    def _np_group_drops(
        self,
        np_mod: Any,
        round_index: int,
        cw_flight: Any,
        ccw_flight: Any,
        live: Any,
        instance_offset: int,
        B: int,
        n: int,
    ) -> None:
        for group, fire in zip(self.groups, self._group_fire_np or ()):
            sel = _np_group_sel(np_mod, group, live, instance_offset, B)
            fired = sel & (fire > 0)
            if not fired.any():
                continue
            for drop in group.drops:
                rows = fired & (fire + drop.offset == round_index)
                if not rows.any():
                    continue
                flight = cw_flight if drop.direction == "cw" else ccw_flight
                node = (group.anchor + drop.node_offset) % n
                removed = np_mod.where(
                    rows, np_mod.minimum(flight[:, node], drop.count), 0
                )
                flight[:, node] -= removed
                self.events["det_dropped"] += int(removed.sum())

    def _np_group_crashes(
        self,
        np_mod: Any,
        round_index: int,
        cols: Any,
        cw_flight: Any,
        ccw_flight: Any,
        live: Any,
        instance_offset: int,
        B: int,
        n: int,
        extra: Any,
    ) -> Any:
        for group, fire in zip(self.groups, self._group_fire_np or ()):
            if not group.crash:
                continue
            sel = _np_group_sel(np_mod, group, live, instance_offset, B)
            fired = sel & (fire > 0)
            if not fired.any():
                continue
            if group.restart_after is None:
                down = fired
                restart = None
            else:
                down = fired & (round_index < fire + group.restart_after)
                restart = fired & (round_index == fire + group.restart_after)
            if down.any():
                lost = np_mod.where(
                    down,
                    cw_flight[:, group.anchor] + ccw_flight[:, group.anchor],
                    0,
                )
                self.events["crash_lost"] += int(lost.sum())
                cw_flight[down, group.anchor] = 0
                ccw_flight[down, group.anchor] = 0
            if restart is not None and restart.any():
                cols.rho_cw[restart, group.anchor] = 0
                cols.rho_ccw[restart, group.anchor] = 0
                cols.pend_cw[restart, group.anchor] = 0
                cols.pend_ccw[restart, group.anchor] = 0
                cols.sigma_cw[restart, group.anchor] = 1
                cols.sigma_ccw[restart, group.anchor] = 0
                cols.term_sent[restart, group.anchor] = False
                cols.terminated[restart, group.anchor] = False
                cols.out_leader[restart, group.anchor] = False
                cw_flight[restart, (group.anchor + 1) % n] += 1
                self.events["restarts"] += int(restart.sum())
                if extra is None:
                    extra = np_mod.zeros(B, np_mod.int64)
                extra[restart] += 1
        return extra

    def _np_crash_rate(
        self,
        np_mod: Any,
        cw_flight: Any,
        ccw_flight: Any,
        live: Any,
        instance_offset: int,
        B: int,
        n: int,
    ) -> None:
        if not self.model.crash_rate:
            return
        if self._rate_mask_np is None:
            self._rate_mask_np = _np_rate_mask(
                np_mod, self.model, instance_offset, B, n
            )
        dead = self._rate_mask_np & live[:, None]
        lost = np_mod.where(dead, cw_flight + ccw_flight, 0)
        self.events["crash_lost"] += int(lost.sum())
        cw_flight[dead] = 0
        ccw_flight[dead] = 0

    # -- correlated-group lowering (scalar twin) -------------------------

    def _py_groups_begin(
        self, round_index: int, instance: int, states: List[Any]
    ) -> Any:
        if not self.groups:
            return None
        window = False if self.model.has_group_bursts else None
        for i, group in enumerate(self.groups):
            if group.instance is not None and group.instance != instance:
                continue
            fire = self._group_fire_py[i].get(instance, 0)
            if fire == 0:
                if group.at_round is not None:
                    if round_index == group.at_round:
                        fire = round_index
                else:
                    attr = (
                        "rho_cw" if group.trigger_field == "rho" else "sigma_cw"
                    )
                    if getattr(states[group.anchor], attr) >= group.trigger_threshold:
                        fire = round_index
                if fire:
                    self._group_fire_py[i][instance] = fire
            if window is not None and fire and group.burst_active(round_index, fire):
                window = True
        return window

    def _py_group_drops(
        self,
        round_index: int,
        instance: int,
        cw_flight: List[int],
        ccw_flight: List[int],
    ) -> None:
        n = self.n
        for i, group in enumerate(self.groups):
            if group.instance is not None and group.instance != instance:
                continue
            fire = self._group_fire_py[i].get(instance, 0)
            if not fire:
                continue
            for drop in group.drops:
                if fire + drop.offset != round_index:
                    continue
                flight = cw_flight if drop.direction == "cw" else ccw_flight
                node = (group.anchor + drop.node_offset) % n
                removed = min(flight[node], drop.count)
                flight[node] -= removed
                self.events["det_dropped"] += removed

    def _py_group_crashes(
        self,
        round_index: int,
        instance: int,
        ids: List[int],
        states: List[Any],
        out_leader: List[bool],
        cw_flight: List[int],
        ccw_flight: List[int],
        kernel: Any,
    ) -> int:
        n = self.n
        extra = 0
        for i, group in enumerate(self.groups):
            if not group.crash:
                continue
            if group.instance is not None and group.instance != instance:
                continue
            fire = self._group_fire_py[i].get(instance, 0)
            if not fire:
                continue
            if group.down(round_index, fire):
                self.events["crash_lost"] += (
                    cw_flight[group.anchor] + ccw_flight[group.anchor]
                )
                cw_flight[group.anchor] = 0
                ccw_flight[group.anchor] = 0
            elif group.restarts_at(round_index, fire):
                states[group.anchor] = kernel.make_state(ids[group.anchor])
                _, emissions, _ = kernel.init(states[group.anchor])
                for _port, cnt in emissions:
                    cw_flight[(group.anchor + 1) % n] += cnt
                    extra += cnt
                out_leader[group.anchor] = False
                self.events["restarts"] += 1
        return extra

    def _py_crash_rate(
        self, instance: int, cw_flight: List[int], ccw_flight: List[int]
    ) -> None:
        if not self.model.crash_rate:
            return
        mask = self._rate_mask_py.get(instance)
        if mask is None:
            mask = _py_rate_mask(self.model, instance, self.n)
            self._rate_mask_py[instance] = mask
        for v in range(self.n):
            if mask[v]:
                self.events["crash_lost"] += cw_flight[v] + ccw_flight[v]
                cw_flight[v] = 0
                ccw_flight[v] = 0

    def _det_drops_np(
        self,
        np_mod: Any,
        drops: Tuple[Any, ...],
        round_index: int,
        flight: Any,
        instance_offset: int,
        live: Any,
    ) -> None:
        B = flight.shape[0]
        for drop in drops:
            if drop.round_index != round_index:
                continue
            if drop.instance is None:
                removed = np_mod.where(
                    live, np_mod.minimum(flight[:, drop.node], drop.count), 0
                )
                flight[:, drop.node] -= removed
                self.events["det_dropped"] += int(removed.sum())
            else:
                row = drop.instance - instance_offset
                if 0 <= row < B and live[row]:
                    removed = min(int(flight[row, drop.node]), drop.count)
                    flight[row, drop.node] -= removed
                    self.events["det_dropped"] += removed

    def apply_np(
        self,
        np_mod: Any,
        round_index: int,
        cols: Any,
        cw_flight: Any,
        ccw_flight: Any,
        instance_offset: int,
        live: Any,
    ) -> Any:
        """Mutate columns/flights for one round start; returns extra sends
        (0, or int64 ``[B]`` when restart re-inits sent pulses).

        ``live`` freezes already-quiesced rows, matching the pure-Python
        per-instance loop exit (see :meth:`DirectionFaults.apply_np`)."""
        B, n = cw_flight.shape
        extra = None
        window = self._np_groups_begin(
            np_mod, round_index, cols, live, instance_offset, B
        )
        self._det_drops_np(
            np_mod, self.cw_drops, round_index, cw_flight, instance_offset, live
        )
        self._det_drops_np(
            np_mod, self.ccw_drops, round_index, ccw_flight, instance_offset, live
        )
        self._np_group_drops(
            np_mod, round_index, cw_flight, ccw_flight, live, instance_offset,
            B, n,
        )
        for crash in self.model.crashes:
            if crash.instance is None:
                rows: Any = live
                count = int(np_mod.sum(live))
            else:
                row = crash.instance - instance_offset
                if not (0 <= row < B and live[row]):
                    continue
                rows = row
                count = 1
            if count == 0:
                continue
            if crash.down(round_index):
                lost = cw_flight[rows, crash.node] + ccw_flight[rows, crash.node]
                self.events["crash_lost"] += int(np_mod.sum(lost))
                cw_flight[rows, crash.node] = 0
                ccw_flight[rows, crash.node] = 0
            elif crash.restarts_at(round_index):
                # Fresh-state reset (TerminatingColumns.fresh semantics for
                # one node) + the kernel init pulse on the CW channel.
                cols.rho_cw[rows, crash.node] = 0
                cols.rho_ccw[rows, crash.node] = 0
                cols.pend_cw[rows, crash.node] = 0
                cols.pend_ccw[rows, crash.node] = 0
                cols.sigma_cw[rows, crash.node] = 1
                cols.sigma_ccw[rows, crash.node] = 0
                cols.term_sent[rows, crash.node] = False
                cols.terminated[rows, crash.node] = False
                cols.out_leader[rows, crash.node] = False
                cw_flight[rows, (crash.node + 1) % n] += 1
                self.events["restarts"] += count
                if extra is None:
                    extra = np_mod.zeros(B, np_mod.int64)
                extra[rows] += 1
        self._np_crash_rate(
            np_mod, cw_flight, ccw_flight, live, instance_offset, B, n
        )
        extra = self._np_group_crashes(
            np_mod, round_index, cols, cw_flight, ccw_flight, live,
            instance_offset, B, n, extra,
        )
        _apply_random_np(
            np_mod, self.model, self.events, round_index, cw_flight,
            instance_offset, 0, live, window,
        )
        _apply_random_np(
            np_mod, self.model, self.events, round_index, ccw_flight,
            instance_offset, n, live, window,
        )
        for corruption in self.model.corruptions:
            if corruption.at_round != round_index:
                continue
            target = getattr(cols, _TERMINATING_COLS[corruption.field])
            if corruption.instance is None:
                target[live, corruption.node] = corruption.value
                self.events["corruptions"] += int(np_mod.sum(live))
            else:
                row = corruption.instance - instance_offset
                if 0 <= row < B and live[row]:
                    target[row, corruption.node] = corruption.value
                    self.events["corruptions"] += 1
        return 0 if extra is None else extra

    def apply_py(
        self,
        round_index: int,
        instance: int,
        ids: List[int],
        states: List[Any],
        out_leader: List[bool],
        cw_flight: List[int],
        ccw_flight: List[int],
        kernel: Any,
    ) -> int:
        """Scalar twin of :meth:`apply_np` for global ``instance``."""
        n = self.n
        extra = 0
        window = self._py_groups_begin(round_index, instance, states)
        for drops, flight in ((self.cw_drops, cw_flight), (self.ccw_drops, ccw_flight)):
            for drop in drops:
                if drop.round_index != round_index:
                    continue
                if drop.instance is None or drop.instance == instance:
                    removed = min(flight[drop.node], drop.count)
                    flight[drop.node] -= removed
                    self.events["det_dropped"] += removed
        self._py_group_drops(round_index, instance, cw_flight, ccw_flight)
        for crash in self.model.crashes:
            if crash.instance is not None and crash.instance != instance:
                continue
            if crash.down(round_index):
                self.events["crash_lost"] += (
                    cw_flight[crash.node] + ccw_flight[crash.node]
                )
                cw_flight[crash.node] = 0
                ccw_flight[crash.node] = 0
            elif crash.restarts_at(round_index):
                states[crash.node] = kernel.make_state(ids[crash.node])
                _, emissions, _ = kernel.init(states[crash.node])
                for _port, cnt in emissions:
                    # The terminating kernel's init emits on the CW send
                    # port only; route accordingly.
                    cw_flight[(crash.node + 1) % n] += cnt
                    extra += cnt
                out_leader[crash.node] = False
                self.events["restarts"] += 1
        self._py_crash_rate(instance, cw_flight, ccw_flight)
        extra += self._py_group_crashes(
            round_index, instance, ids, states, out_leader, cw_flight,
            ccw_flight, kernel,
        )
        _apply_random_py(
            self.model, self.events, round_index, cw_flight, instance, 0,
            window,
        )
        _apply_random_py(
            self.model, self.events, round_index, ccw_flight, instance, n,
            window,
        )
        for corruption in self.model.corruptions:
            if corruption.at_round != round_index:
                continue
            if corruption.instance is None or corruption.instance == instance:
                setattr(
                    states[corruption.node], corruption.field, corruption.value
                )
                self.events["corruptions"] += 1
        return extra
