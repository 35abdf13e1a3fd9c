"""Fleet-backend compiler: the fault model over struct-of-arrays rounds.

The fleet engine (:mod:`repro.simulator.fleet`) advances ``B`` instances
in lockstep rounds over ``flight[B, n]`` columns, one per *lane*.  A
:class:`Lane` is a travel direction, where its sends land, and the base
of its channel indices.  :func:`fleet_lanes` gives each algorithm's
runs and their lanes, to the fleet's round drivers and to
:func:`compile_fleet_faults`, which lowers a
:class:`~repro.faults.model.FaultModel` onto every run of an algorithm
as one :class:`FleetFaults` adapter over that run's lanes:

* **random channel faults** roll once per *(instance, round, channel)*
  — the fleet's notion of a fault opportunity (event channels roll per
  send; same declarative rates, per-backend opportunity grain).  Drops
  thin the in-flight population pulse-by-pulse (each of the ``f`` pulses
  on a channel rolls independently), duplicates/spurious add at most one
  pulse per channel per round.
* **deterministic drops** (:class:`~repro.faults.model.PulseDrop`, and a
  group's :class:`~repro.faults.model.GroupDrop`) remove in-flight pulses
  on their direction's lane at the start of a chosen round; a clause
  naming a direction the algorithm never runs is rejected.
* **crashes** (:class:`~repro.faults.model.NodeCrash`, a group's crash)
  evaporate all deliveries toward the node on every lane while down (its
  state freezes: nothing is delivered, its pending is empty at round
  boundaries, so the kernels never touch it); a restart resets the node
  to the kernel's fresh-node values and re-sends its init pulse.
* **corruption** overwrites one materialized column value at the start
  of its round (fields pre-validated against the kernel ``SCHEMA``).

Every clause is written once per twin and loops over the lanes.  Every
decision is a counter-based roll keyed on the **global** instance index
(``instance_offset + row``), so a counterexample replayed solo at the
same global index sees the identical fault pattern.  The NumPy and
pure-Python applications are exact twins (same clause order, same roll
coordinates) — the fleet differential tests pin this bit-for-bit.

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

from typing import Any, Dict, List, NamedTuple, Optional, Set, Tuple

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

#: Event-counter keys of the fleet fault adapter (same totals on
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


def _np_rows(
    np_mod: Any, instance: Optional[int], live: Any, instance_offset: int
) -> Any:
    """Row mask a clause may touch: every live row, or its one target
    row (when that instance is live and in this block)."""
    if instance is None:
        return live
    B = live.shape[0]
    sel = np_mod.zeros(B, bool)
    row = instance - instance_offset
    if 0 <= row < B:
        sel[row] = live[row]
    return sel


def _np_rate_mask(
    np_mod: Any, model: FaultModel, instance_offset: int, B: int, n: int
) -> Any:
    """The ``crash_rate`` dead-node mask (bool ``[B, n]``): one roll per
    (global instance, node) — channel base 0 in every run, so both
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


class Lane(NamedTuple):
    """One flight array of a fleet run."""

    #: ``"cw"`` / ``"ccw"``: the drop clauses this lane takes.
    direction: str
    #: +1 when sends from node ``v`` fly toward ``v + 1``, -1 for CCW.
    shift: int
    #: Channel index of node 0's channel in the fault rolls.
    chan_base: int


class _Columns(NamedTuple):
    """Where one fleet run keeps a node's state, for both twins."""

    #: Corruptible schema field -> (NumPy column, kernel-state attribute).
    fields: Dict[str, Tuple[str, str]]
    #: NumPy column -> the value a restarted node takes.
    fresh: Dict[str, Any]


def _direction_columns(direction: str) -> _Columns:
    """A warmup-kernel run (Algorithm 1, one half of Algorithm 3): its
    ``rho``/``sigma`` columns hold the ``direction`` counters, which the
    kernel state keeps in its CW slots whichever way the run travels."""
    return _Columns(
        fields={
            f"rho_{direction}": ("rho", "rho_cw"),
            f"sigma_{direction}": ("sigma", "sigma_cw"),
        },
        fresh={"rho": 0, "sigma": 1},  # kernel.init: one pulse sent
    )


#: Algorithm 2's run: the ``TerminatingColumns`` names, and their values
#: for one node of ``TerminatingColumns.fresh``.
_TERMINATING = _Columns(
    fields={
        "rho_cw": ("rho_cw", "rho_cw"),
        "sigma_cw": ("sigma_cw", "sigma_cw"),
        "rho_ccw": ("rho_ccw", "rho_ccw"),
        "sigma_ccw": ("sigma_ccw", "sigma_ccw"),
        "pending_cw": ("pend_cw", "pending_cw"),
        "pending_ccw": ("pend_ccw", "pending_ccw"),
    },
    fresh={
        "rho_cw": 0,
        "rho_ccw": 0,
        "pend_cw": 0,
        "pend_ccw": 0,
        "sigma_cw": 1,
        "sigma_ccw": 0,
        "term_sent": False,
        "terminated": False,
        "out_leader": False,
    },
)


def fleet_lanes(algorithm: str, n: int) -> Tuple[Tuple[Lane, ...], ...]:
    """The lanes of every fleet run of ``algorithm`` on ``n``-node rings.

    Algorithm 1 (``"warmup"``) runs one CW lane; Algorithm 2
    (``"terminating"``) one run over ``cw`` at channel base 0 and
    ``ccw`` at base ``n``; Algorithm 3 (``"nonoriented"``) one run per
    direction, at the same bases.  The fleet's round drivers and this
    module's fault compiler both read this table.
    """
    cw, ccw = Lane("cw", +1, 0), Lane("ccw", -1, n)
    runs = {
        "warmup": ((cw,),),
        "terminating": ((cw, ccw),),
        "nonoriented": ((cw,), (ccw,)),
    }.get(algorithm)
    if runs is None:
        raise ConfigurationError(f"no fleet lowering for {algorithm!r}")
    return runs


def compile_fleet_faults(
    model: FaultModel, n: int, algorithm: str
) -> Tuple["FleetFaults", ...]:
    """Compile ``model`` onto every fleet run of ``algorithm``.

    Returns one adapter per run of :func:`fleet_lanes`.  Every clause
    is validated here, once: corruption fields against the kernel
    schema, nodes against the ring, drop directions against the lanes
    the algorithm runs.
    """
    runs = fleet_lanes(algorithm, n)
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
    directions = {lane.direction for lanes in runs for lane in lanes}
    for drop in model.drops:
        _check_node(drop.node, n, "pulse-drop")
        _check_direction(drop.direction, directions, algorithm, "pulse-drop")
    for group in model.groups:
        _check_node(group.anchor, n, "group anchor")
        for member in group.drops:
            _check_direction(
                member.direction, directions, algorithm, "group drop"
            )
    return tuple(
        FleetFaults(
            model,
            n,
            lanes,
            _TERMINATING
            if algorithm == "terminating"
            else _direction_columns(lanes[0].direction),
        )
        for lanes in runs
    )


def _check_direction(
    direction: str, directions: Set[str], algorithm: str, what: str
) -> None:
    if direction not in directions:
        raise ConfigurationError(
            f"{what} targets the {direction} direction, which algorithm "
            f"{algorithm!r} never runs"
        )


class FleetFaults:
    """A :class:`FaultModel` compiled onto one fleet run over ``lanes``.

    Clauses aimed at a direction outside ``lanes`` (and corruption of
    fields outside ``columns``) belong to the algorithm's other run —
    Algorithm 3 compiles one adapter per direction.  Group threshold
    triggers read the first lane's counters.
    """

    def __init__(
        self,
        model: FaultModel,
        n: int,
        lanes: Tuple[Lane, ...],
        columns: _Columns,
    ) -> None:
        self.model = model
        self.n = n
        self.lanes = lanes
        self.columns = columns
        lane_of = {lane.direction: i for i, lane in enumerate(lanes)}
        #: (lane index, clause) for the drops and group drops this run takes.
        self.drops = tuple(
            (lane_of[d.direction], d) for d in model.drops
            if d.direction in lane_of
        )
        self.groups = model.groups
        self.group_drops = tuple(
            tuple(
                (lane_of[d.direction], d) for d in group.drops
                if d.direction in lane_of
            )
            for group in model.groups
        )
        #: Per group: the (NumPy column, state attribute) its threshold
        #: trigger reads, None for an ``at_round`` trigger.
        self.triggers = tuple(
            None
            if group.at_round is not None
            else columns.fields[f"{group.trigger_field}_{lanes[0].direction}"]
            for group in model.groups
        )
        self.corruptions = tuple(
            c for c in model.corruptions if c.field in columns.fields
        )
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

    # -- NumPy twin -------------------------------------------------------

    def _np_groups_begin(
        self,
        np_mod: Any,
        round_index: int,
        cols: Dict[str, Any],
        live: Any,
        instance_offset: int,
    ) -> Tuple[List[Any], Any]:
        """Advance per-row trigger state; returns each group's fired-row
        mask and the burst-window row mask (bool ``[B]``, or None when
        the model carries no group burst).  Trigger columns are read
        *before* any clause mutates them this round (same position in
        the scalar twin)."""
        if self._group_fire_np is None:
            self._group_fire_np = [
                np_mod.zeros(live.shape[0], np_mod.int64) for _ in self.groups
            ]
        window = (
            np_mod.zeros(live.shape[0], bool)
            if self.model.has_group_bursts
            else None
        )
        fired_rows = []
        for group, fire, trigger in zip(
            self.groups, self._group_fire_np, self.triggers
        ):
            sel = _np_rows(np_mod, group.instance, live, instance_offset)
            unfired = fire == 0
            if trigger is None:
                newly = sel & unfired if round_index == group.at_round else None
            else:
                vals = cols[trigger[0]][:, group.anchor]
                newly = sel & unfired & (vals >= group.trigger_threshold)
            if newly is not None and newly.any():
                fire[newly] = round_index
            fired = sel & (fire > 0)
            fired_rows.append(fired)
            if window is not None and group.burst is not None and fired.any():
                rel = round_index - fire + 1
                cov = rel >= group.burst.start
                if group.burst.length is not None:
                    cov &= rel < group.burst.start + group.burst.length
                window |= fired & cov
        return fired_rows, window

    def _np_remove(
        self, np_mod: Any, flight: Any, node: int, count: int, rows: Any
    ) -> None:
        """A drop clause: up to ``count`` pulses toward ``node`` vanish
        in ``rows``."""
        removed = np_mod.where(rows, np_mod.minimum(flight[:, node], count), 0)
        flight[:, node] -= removed
        self.events["det_dropped"] += int(removed.sum())

    def _np_crash(
        self,
        np_mod: Any,
        node: int,
        down: Any,
        restart: Any,
        cols: Dict[str, Any],
        flights: Tuple[Any, ...],
        extra: Any,
    ) -> Any:
        """A crash clause: in ``down`` rows every pulse toward ``node``
        evaporates; in ``restart`` rows the node takes the fresh-node
        values and re-sends its init pulse on the first lane.  Returns
        ``extra`` with the re-sent pulses added (allocated on first
        use)."""
        if down is not None and down.any():
            for flight in flights:
                self.events["crash_lost"] += int(flight[down, node].sum())
                flight[down, node] = 0
        if restart is not None and restart.any():
            for name, value in self.columns.fresh.items():
                cols[name][restart, node] = value
            flights[0][restart, (node + self.lanes[0].shift) % self.n] += 1
            self.events["restarts"] += int(restart.sum())
            if extra is None:
                extra = np_mod.zeros(restart.shape[0], np_mod.int64)
            extra[restart] += 1
        return extra

    def apply_np(
        self,
        np_mod: Any,
        round_index: int,
        cols: Dict[str, Any],
        flights: Tuple[Any, ...],
        instance_offset: int,
        live: Any,
    ) -> Any:
        """Mutate the columns for one round start; returns extra sends
        (0, or an int64 ``[B]`` array when a restart re-init sent pulses).

        ``cols`` maps the run's column names to its ``[B, n]`` arrays,
        ``flights`` holds one ``[B, n]`` flight per lane.  ``live`` is a
        bool ``[B]`` mask of rows that have not yet quiesced; quiesced
        rows are frozen (the pure-Python twin's per-instance loop has
        already exited for them)."""
        fired_rows: List[Any] = []
        window = None
        if self.groups:
            fired_rows, window = self._np_groups_begin(
                np_mod, round_index, cols, live, instance_offset
            )
        for lane, drop in self.drops:
            if drop.round_index == round_index:
                rows = _np_rows(np_mod, drop.instance, live, instance_offset)
                self._np_remove(np_mod, flights[lane], drop.node, drop.count, rows)
        for group, members, fired, fire in zip(
            self.groups, self.group_drops, fired_rows, self._group_fire_np or ()
        ):
            for lane, drop in members:
                rows = fired & (fire + drop.offset == round_index)
                if rows.any():
                    node = (group.anchor + drop.node_offset) % self.n
                    self._np_remove(np_mod, flights[lane], node, drop.count, rows)
        extra = None
        for crash in self.model.crashes:
            down, restart = crash.down(round_index), crash.restarts_at(round_index)
            if down or restart:
                rows = _np_rows(np_mod, crash.instance, live, instance_offset)
                extra = self._np_crash(
                    np_mod, crash.node, rows if down else None,
                    rows if restart else None, cols, flights, extra,
                )
        if self.model.crash_rate:
            if self._rate_mask_np is None:
                self._rate_mask_np = _np_rate_mask(
                    np_mod, self.model, instance_offset, *flights[0].shape
                )
            dead = self._rate_mask_np & live[:, None]
            for flight in flights:
                self.events["crash_lost"] += int(flight[dead].sum())
                flight[dead] = 0
        for group, fired, fire in zip(
            self.groups, fired_rows, self._group_fire_np or ()
        ):
            if not group.crash or not fired.any():
                continue
            if group.restart_after is None:
                down, restart = fired, None
            else:
                down = fired & (round_index < fire + group.restart_after)
                restart = fired & (round_index == fire + group.restart_after)
            extra = self._np_crash(
                np_mod, group.anchor, down, restart, cols, flights, extra
            )
        for lane, flight in zip(self.lanes, flights):
            _apply_random_np(
                np_mod, self.model, self.events, round_index, flight,
                instance_offset, lane.chan_base, live, window,
            )
        for corruption in self.corruptions:
            if corruption.at_round == round_index:
                rows = _np_rows(np_mod, corruption.instance, live, instance_offset)
                column = self.columns.fields[corruption.field][0]
                cols[column][rows, corruption.node] = corruption.value
                self.events["corruptions"] += int(rows.sum())
        return 0 if extra is None else extra

    # -- pure-Python twin -------------------------------------------------

    def _py_groups_begin(
        self, round_index: int, instance: int, states: List[Any]
    ) -> Tuple[List[int], Any]:
        """Scalar twin of :meth:`_np_groups_begin` for one instance:
        each group's fire round (0 while unfired or aimed at another
        instance) and the burst gate (bool, or None)."""
        fires = []
        window = False if self.model.has_group_bursts else None
        for group, fired, trigger in zip(
            self.groups, self._group_fire_py, self.triggers
        ):
            if group.instance is not None and group.instance != instance:
                fires.append(0)
                continue
            fire = fired.get(instance, 0)
            if fire == 0:
                if trigger is None:
                    hit = round_index == group.at_round
                else:
                    value = getattr(states[group.anchor], trigger[1])
                    hit = value >= group.trigger_threshold
                if hit:
                    fire = fired[instance] = round_index
            fires.append(fire)
            if window is not None and fire and group.burst_active(round_index, fire):
                window = True
        return fires, window

    def _py_remove(self, flight: List[int], node: int, count: int) -> None:
        removed = min(flight[node], count)
        flight[node] -= removed
        self.events["det_dropped"] += removed

    def _py_crash(
        self,
        node: int,
        down: bool,
        restart: bool,
        gov: List[int],
        states: List[Any],
        flights: Tuple[List[int], ...],
        kernel: Any,
    ) -> int:
        """Scalar twin of :meth:`_np_crash`; the fresh-node values are
        the kernel's ``make_state`` + ``init``.  Returns the re-sent
        pulse count."""
        extra = 0
        if down:
            for flight in flights:
                self.events["crash_lost"] += flight[node]
                flight[node] = 0
        elif restart:
            states[node] = kernel.make_state(gov[node])
            _, emissions, _ = kernel.init(states[node])
            for _port, cnt in emissions:
                flights[0][(node + self.lanes[0].shift) % self.n] += cnt
                extra += cnt
            self.events["restarts"] += 1
        return extra

    def apply_py(
        self,
        round_index: int,
        instance: int,
        gov: List[int],
        states: List[Any],
        flights: Tuple[List[int], ...],
        kernel: Any,
    ) -> int:
        """Scalar twin of :meth:`apply_np` for global ``instance``;
        returns the number of extra pulses sent (restart re-inits)."""
        fires: List[int] = []
        window = None
        if self.groups:
            fires, window = self._py_groups_begin(round_index, instance, states)
        for lane, drop in self.drops:
            if drop.round_index == round_index and drop.instance in (None, instance):
                self._py_remove(flights[lane], drop.node, drop.count)
        for group, members, fire in zip(self.groups, self.group_drops, fires):
            for lane, drop in members:
                if fire and fire + drop.offset == round_index:
                    node = (group.anchor + drop.node_offset) % self.n
                    self._py_remove(flights[lane], node, drop.count)
        extra = 0
        for crash in self.model.crashes:
            if crash.instance in (None, instance):
                extra += self._py_crash(
                    crash.node, crash.down(round_index),
                    crash.restarts_at(round_index), gov, states, flights, kernel,
                )
        if self.model.crash_rate:
            mask = self._rate_mask_py.get(instance)
            if mask is None:
                mask = _py_rate_mask(self.model, instance, self.n)
                self._rate_mask_py[instance] = mask
            for flight in flights:
                for v in range(self.n):
                    if mask[v]:
                        self.events["crash_lost"] += flight[v]
                        flight[v] = 0
        for group, fire in zip(self.groups, fires):
            if fire:
                extra += self._py_crash(
                    group.anchor, group.down(round_index, fire),
                    group.restarts_at(round_index, fire), gov, states,
                    flights, kernel,
                )
        for lane, flight in zip(self.lanes, flights):
            _apply_random_py(
                self.model, self.events, round_index, flight, instance,
                lane.chan_base, window,
            )
        for corruption in self.corruptions:
            if corruption.at_round == round_index and corruption.instance in (
                None, instance,
            ):
                attr = self.columns.fields[corruption.field][1]
                setattr(states[corruption.node], attr, corruption.value)
                self.events["corruptions"] += 1
        return extra
