"""The keyed window operator.

One :class:`WindowOperator` instance is one physical operator ``p_i``: it
owns a state backend, assigns incoming tuples to windows (replicating
across sliding windows), merges session windows per key, registers
event-time timers, and on watermark advance triggers windows — reading
state back through exactly the access pattern its function pair implies:

* incremental aggregate  -> RMW: ``rmw_get``/``rmw_put`` per tuple,
* full-window function + aligned windows -> AAR: ``append`` per tuple,
  ``read_window`` at trigger,
* full-window function + session/count windows -> AUR: ``append`` per
  tuple, ``read_key_window`` per key at trigger.

Session state is always written under the session's *initial* window
boundary (fixed at creation); merges only update in-operator metadata and
the state of every merged initial window is read at trigger time.  This
matches FlowKV's AUR design (§4.2) and works identically on all backends.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.engine.functions import AggregateFunction, ProcessWindowFunction
from repro.engine.windows import CountWindowAssigner, WindowAssigner
from repro.kvstores.api import KeyGroupFn, WindowStateBackend
from repro.model import GLOBAL_WINDOW, StreamRecord, Window
from repro.simenv import CAT_ENGINE, CAT_MIGRATION, CAT_QUERY, SimEnv

# Per-value user-computation charge at trigger time (deserialized object
# handling inside the window function).
_QUERY_PER_VALUE = 250e-9

Collector = Callable[[StreamRecord], None]


@dataclass
class _Session:
    """Metadata of one active session window of one key."""

    initials: list[Window]  # state namespaces holding this session's tuples
    current: Window  # merged (extended) boundary

    def absorb(self, other: "_Session") -> None:
        self.initials.extend(other.initials)
        self.current = self.current.cover(other.current)


@dataclass
class WindowOperator:
    """A physical window operator instance over one key-space partition."""

    assigner: WindowAssigner
    function: AggregateFunction | ProcessWindowFunction
    name: str = "window"
    with_window: bool = False  # emit (key, window, result) instead of result

    env: SimEnv = field(init=False, default=None)
    backend: WindowStateBackend = field(init=False, default=None)
    collector: Collector = field(init=False, default=None)

    def __post_init__(self) -> None:
        self.incremental = isinstance(self.function, AggregateFunction)
        # Whether a triggered window can be read with one whole-window
        # read (AAR) or must be read per key (AUR).  Custom assigners may
        # carry the §8 @AlignedRead-style annotation.
        self.aligned_reads = (
            self.assigner.kind.aligned
            or getattr(self.assigner, "aligned_hint", None) is True
        )
        # Patterns that must see their own writes record by record (count
        # windows fire mid-tuple, sessions merge state they may re-read,
        # incremental RMW reads its previous write) get a per-record
        # handler; None selects the deferred append of process_batch.
        # Held as the plain function, not a bound method, so the operator
        # does not reference itself (it is freed with its state as soon as
        # a rescale or restore drops the instance).
        cls = type(self)
        self._per_record: Callable[[WindowOperator, StreamRecord], None] | None
        if isinstance(self.assigner, CountWindowAssigner):
            self._per_record = cls._process_count
        elif self.assigner.merging:
            self._per_record = cls._process_session
        elif self.incremental:
            self._per_record = cls._process_aligned_rmw
        else:
            self._per_record = None
        self._timers: list[tuple[float, int, tuple]] = []
        self._timer_seq = 0
        self._pending_aligned: set[Window] = set()
        self._window_keys: dict[Window, set[bytes]] = {}  # aligned RMW only
        self._sessions: dict[bytes, list[_Session]] = {}
        self._count_state: dict[bytes, tuple[int, int]] = {}  # key -> (ordinal, count)
        self._max_timestamp = float("-inf")
        self.results_emitted = 0
        # Semantic prefetching: windows/sessions already hinted to the
        # backend, and the max-timestamp up to which timers were scanned.
        self._prefetch_on = False
        self._hinted: set = set()
        self._hint_scan_ts = float("-inf")
        self._hint_boundary: float | None = None  # next grid trigger, if known

    # ------------------------------------------------------------------
    def open(self, env: SimEnv, backend: WindowStateBackend, collector: Collector) -> None:
        self.env = env
        self.backend = backend
        self.collector = collector
        self._prefetch_on = bool(getattr(backend, "prefetch_enabled", False))

    def _register_timer(self, timestamp: float, payload: tuple) -> None:
        self._timer_seq += 1
        heapq.heappush(self._timers, (timestamp, self._timer_seq, payload))

    # ------------------------------------------------------------------
    # semantic prefetch hints
    # ------------------------------------------------------------------
    def _hint_due_triggers(self) -> None:
        """Hint the backend about windows whose trigger is now inevitable.

        A timer with ``ts <= max event timestamp`` fires at the next
        watermark at the latest, so its window's state is about to be
        read; telling the backend lets it overlap that read with the
        compute still ahead of the watermark.  Hints are advisory — they
        never mutate state and cannot change output.
        """
        if self._hint_boundary is not None and self._max_timestamp < self._hint_boundary:
            return  # watermark grid: next boundary not reached yet
        if not self._timers or self._timers[0][0] > self._max_timestamp:
            return  # heap root is the earliest timer: nothing due yet
        if self._max_timestamp <= self._hint_scan_ts:
            return  # no new timers can have become due since last scan
        self._hint_scan_ts = self._max_timestamp
        self._hint_boundary = self.assigner.next_trigger(self._max_timestamp)
        for ts, _seq, payload in self._timers:
            if ts > self._max_timestamp:
                continue
            if payload[0] == "aligned":
                window = payload[1]
                if window in self._hinted:
                    continue
                self._hinted.add(window)
                if self.incremental or not self.aligned_reads:
                    keys = self._window_keys.get(window)
                    if keys:
                        self.backend.prefetch_keys(window, sorted(keys))
                else:
                    self.backend.prefetch_window(window)
            else:
                _kind, key, session = payload
                if session.current.end > ts:
                    continue  # stale timer: session was extended
                marker = (key, session.current)
                if marker in self._hinted:
                    continue
                self._hinted.add(marker)
                for initial in session.initials:
                    self.backend.prefetch_keys(initial, [key])

    # ------------------------------------------------------------------
    # tuple path
    # ------------------------------------------------------------------
    def process(self, record: StreamRecord) -> None:
        self.process_batch((record,))

    def process_batch(self, records: Sequence[StreamRecord]) -> None:
        """The operator's one record entry point (``process`` is a batch
        of one).

        Only the non-incremental, non-merging append path defers state
        writes into one ``multi_append``; the other patterns run their
        per-record handler in a strict loop.  Deferral regroups charges by
        category (all engine, then all serde + store) but per-category
        order matches a record-at-a-time run exactly; no reads happen
        between the deferred writes because triggers only run at
        watermarks, and the runtime flushes batches before broadcasting.
        """
        charge = self.env.charge_cpu
        function_call = self.env.cpu.function_call
        per_record = self._per_record
        if per_record is not None:
            for record in records:
                charge(CAT_ENGINE, function_call)
                if record.timestamp > self._max_timestamp:
                    self._max_timestamp = record.timestamp
                per_record(self, record)
                if self._prefetch_on:
                    self._hint_due_triggers()
            return
        branch_step = self.env.cpu.branch_step
        assign = self.assigner.assign
        entries: list[tuple[bytes, Window, Any, float]] = []
        for record in records:
            charge(CAT_ENGINE, function_call)
            if record.timestamp > self._max_timestamp:
                self._max_timestamp = record.timestamp
            for window in assign(record.timestamp):
                charge(CAT_ENGINE, branch_step)
                entries.append(
                    (record.key, window, record.value, record.timestamp)
                )
                if self.aligned_reads:
                    if window not in self._pending_aligned:
                        self._pending_aligned.add(window)
                        self._arm_aligned_window(window)
                else:
                    # Custom windows without an alignment hint read per
                    # key through the AUR store (§8).
                    self._track_window_key(window, record.key)
        if entries:
            if self._prefetch_on:
                self._hint_write_keys(entries)
            self.backend.multi_append(entries)
        if self._prefetch_on:
            self._hint_due_triggers()

    def _hint_write_keys(
        self, entries: list[tuple[bytes, Window, Any, float]]
    ) -> None:
        """Hint the cells a batch of appends is about to touch.

        Only stores whose append path reads old state (the hash store's
        RCU) act on this; issuing the whole batch up front lets later
        records' reads overlap earlier records' append compute.
        """
        seen: set[tuple[bytes, Window]] = set()
        hints: list[tuple[bytes, Window]] = []
        for key, window, _value, _timestamp in entries:
            marker = (key, window)
            if marker not in seen:
                seen.add(marker)
                hints.append(marker)
        self.backend.prefetch_write_keys(hints)

    def _process_aligned_rmw(self, record: StreamRecord) -> None:
        for window in self.assigner.assign(record.timestamp):
            self.env.charge_cpu(CAT_ENGINE, self.env.cpu.branch_step)
            self._rmw_add(record.key, window, record.value)
            self._track_window_key(window, record.key)

    def _track_window_key(self, window: Window, key: bytes) -> None:
        keys = self._window_keys.get(window)
        if keys is None:
            keys = set()
            self._window_keys[window] = keys
            self._arm_aligned_window(window)
        keys.add(key)

    def _arm_aligned_window(self, window: Window) -> None:
        self._register_timer(window.end, ("aligned", window))

    def _process_session(self, record: StreamRecord) -> None:
        raw = self.assigner.assign(record.timestamp)[0]
        sessions = self._sessions.setdefault(record.key, [])
        self.env.charge_cpu(CAT_ENGINE, self.env.cpu.hash_probe)
        target: _Session | None = None
        for session in sessions:
            if session.current.intersects(raw):
                target = session
                break
        if target is None:
            target = _Session(initials=[raw], current=raw)
            sessions.append(target)
        else:
            target.current = target.current.cover(raw)
            # Extension may bridge into a neighbouring session.
            for other in list(sessions):
                if other is not target and other.current.intersects(target.current):
                    target.absorb(other)
                    sessions.remove(other)
        if self.incremental:
            self._rmw_add(record.key, target.initials[0], record.value)
        else:
            self.backend.append(
                record.key, target.initials[0], record.value, record.timestamp
            )
        self._register_timer(target.current.end, ("session", record.key, target))

    def _process_count(self, record: StreamRecord) -> None:
        assigner: CountWindowAssigner = self.assigner  # type: ignore[assignment]
        ordinal, count = self._count_state.get(record.key, (0, 0))
        window = Window(float(ordinal), float(ordinal + 1))
        if self.incremental:
            self._rmw_add(record.key, window, record.value)
        else:
            self.backend.append(record.key, window, record.value, record.timestamp)
        count += 1
        if count >= assigner.count:
            self._fire_key_window(record.key, window, window)
            self._count_state[record.key] = (ordinal + 1, 0)
        else:
            self._count_state[record.key] = (ordinal, count)

    def _rmw_add(self, key: bytes, window: Window, value: Any) -> None:
        accumulator = self.backend.rmw_get(key, window)
        if accumulator is None:
            accumulator = self.function.create_accumulator()
        self.env.charge_cpu(CAT_QUERY, self.env.cpu.function_call)
        accumulator = self.function.add(value, accumulator)
        self.backend.rmw_put(key, window, accumulator)

    # ------------------------------------------------------------------
    # trigger path
    # ------------------------------------------------------------------
    def on_watermark(self, watermark: float) -> None:
        self.backend.on_watermark(watermark)
        while self._timers and self._timers[0][0] <= watermark:
            _ts, _seq, payload = heapq.heappop(self._timers)
            self.env.charge_cpu(CAT_ENGINE, self.env.cpu.branch_step)
            if payload[0] == "aligned":
                self._fire_aligned(payload[1])
            else:
                _kind, key, session = payload
                self._fire_session(key, session, fired_at=_ts)

    def finish(self) -> None:
        """End of stream: fire everything still pending (global windows)."""
        self.on_watermark(float("inf"))
        self.backend.flush()

    def _fire_aligned(self, window: Window) -> None:
        self._hinted.discard(window)
        if self.incremental:
            keys = self._window_keys.pop(window, None)
            if keys is None:
                return
            for key in sorted(keys):
                accumulator = self.backend.rmw_remove(key, window)
                if accumulator is None:
                    continue
                self.env.charge_cpu(CAT_QUERY, self.env.cpu.function_call)
                self._emit(key, window, self.function.get_result(accumulator))
        elif not self.aligned_reads:
            keys = self._window_keys.pop(window, None)
            if keys is None:
                return
            for key in sorted(keys):
                values = self.backend.read_key_window(key, window)
                if values:
                    self._process_and_emit(key, window, values)
        else:
            if window not in self._pending_aligned:
                return
            self._pending_aligned.discard(window)
            # Collect per key across gradual-loading partitions.
            per_key: dict[bytes, list[Any]] = {}
            for key, values in self.backend.read_window(window):
                per_key.setdefault(key, []).extend(values)
            for key in sorted(per_key):
                self._process_and_emit(key, window, per_key[key])

    def _fire_session(self, key: bytes, session: _Session, fired_at: float) -> None:
        sessions = self._sessions.get(key)
        if not sessions or not any(s is session for s in sessions):
            return  # stale timer: session already fired
        if session.current.end > fired_at:
            return  # stale timer: session was extended; a newer timer exists
        sessions[:] = [s for s in sessions if s is not session]
        if not sessions:
            self._sessions.pop(key, None)
        self._hinted.discard((key, session.current))
        self._fire_key_window(key, session.initials, session.current)

    def _fire_key_window(
        self, key: bytes, initials: Window | list[Window], merged: Window
    ) -> None:
        if isinstance(initials, Window):
            initials = [initials]
        if self.incremental:
            accumulator = None
            for initial in initials:
                part = self.backend.rmw_remove(key, initial)
                if part is None:
                    continue
                if accumulator is None:
                    accumulator = part
                else:
                    self.env.charge_cpu(CAT_QUERY, self.env.cpu.function_call)
                    accumulator = self.function.merge(accumulator, part)
            if accumulator is None:
                return
            self.env.charge_cpu(CAT_QUERY, self.env.cpu.function_call)
            self._emit(key, merged, self.function.get_result(accumulator))
        else:
            values: list[Any] = []
            for initial in initials:
                values.extend(self.backend.read_key_window(key, initial))
            if values:
                self._process_and_emit(key, merged, values)

    # ------------------------------------------------------------------
    # elastic rescaling: in-operator keyed metadata that must travel with
    # the backend state (sessions, tracked window keys, count ordinals).
    # ------------------------------------------------------------------
    def export_keyed_state(
        self, key_groups: set[int], key_group_of: KeyGroupFn
    ) -> dict[str, Any]:
        """Extract the moved key-groups' in-operator metadata.

        ``pending_aligned`` is *copied*, not removed: an aligned window
        may hold keys of both moved and kept groups, so both sides keep
        its trigger armed (firing a window with no remaining state emits
        nothing).  Stale source timers for moved sessions are harmless —
        the firing path re-checks session liveness.
        """
        state: dict[str, Any] = {
            "sessions": {},
            "window_keys": [],
            "count_state": {},
            "pending_aligned": set(self._pending_aligned),
            "max_timestamp": self._max_timestamp,
        }
        for key in [k for k in self._sessions if key_group_of(k) in key_groups]:
            self.env.charge_cpu(CAT_MIGRATION, self.env.cpu.hash_probe)
            state["sessions"][key] = self._sessions.pop(key)
        for window, keys in self._window_keys.items():
            moved = {k for k in keys if key_group_of(k) in key_groups}
            if moved:
                self.env.charge_cpu(
                    CAT_MIGRATION, len(moved) * self.env.cpu.hash_probe
                )
                keys -= moved
                state["window_keys"].append((window, moved))
        for window in [w for w, keys in self._window_keys.items() if not keys]:
            del self._window_keys[window]
        for key in [k for k in self._count_state if key_group_of(k) in key_groups]:
            self.env.charge_cpu(CAT_MIGRATION, self.env.cpu.hash_probe)
            state["count_state"][key] = self._count_state.pop(key)
        return state

    def import_keyed_state(self, state: dict[str, Any]) -> None:
        """Merge migrated metadata and re-register its event-time timers."""
        for key, sessions in state["sessions"].items():
            self.env.charge_cpu(CAT_MIGRATION, self.env.cpu.hash_probe)
            self._sessions.setdefault(key, []).extend(sessions)
            for session in sessions:
                self._register_timer(session.current.end, ("session", key, session))
        for window, keys in state["window_keys"]:
            self.env.charge_cpu(CAT_MIGRATION, len(keys) * self.env.cpu.hash_probe)
            for key in keys:
                self._track_window_key(window, key)
        for key, value in state["count_state"].items():
            self.env.charge_cpu(CAT_MIGRATION, self.env.cpu.hash_probe)
            self._count_state[key] = value
        for window in state["pending_aligned"]:
            if window not in self._pending_aligned:
                self._pending_aligned.add(window)
                self._arm_aligned_window(window)
        if state["max_timestamp"] > self._max_timestamp:
            self._max_timestamp = state["max_timestamp"]

    # ------------------------------------------------------------------
    # checkpointing: the operator's own mutable state, captured alongside
    # the backend snapshot so a restored instance resumes mid-window.
    # ------------------------------------------------------------------
    def checkpoint_state(self) -> dict[str, Any]:
        """All in-operator mutable state, as one picklable object graph.

        The timer heap's session payloads reference the same
        :class:`_Session` objects as ``_sessions``; returning them in one
        structure lets a single pickle preserve that identity, which the
        stale-timer checks in :meth:`_fire_session` depend on.
        """
        return {
            "timers": list(self._timers),
            "timer_seq": self._timer_seq,
            "pending_aligned": set(self._pending_aligned),
            "window_keys": {w: set(ks) for w, ks in self._window_keys.items()},
            "sessions": self._sessions,
            "count_state": dict(self._count_state),
            "max_timestamp": self._max_timestamp,
            "results_emitted": self.results_emitted,
        }

    def restore_checkpoint_state(self, state: dict[str, Any]) -> None:
        """Adopt checkpointed operator state (fresh instance only)."""
        self._timers = list(state["timers"])
        heapq.heapify(self._timers)
        self._timer_seq = state["timer_seq"]
        self._pending_aligned = set(state["pending_aligned"])
        self._window_keys = {w: set(ks) for w, ks in state["window_keys"].items()}
        self._sessions = state["sessions"]
        self._count_state = dict(state["count_state"])
        self._max_timestamp = state["max_timestamp"]
        self.results_emitted = state["results_emitted"]

    def _process_and_emit(self, key: bytes, window: Window, values: list[Any]) -> None:
        self.env.charge_cpu(
            CAT_QUERY, self.env.cpu.function_call + len(values) * _QUERY_PER_VALUE
        )
        for output in self.function.process(key, window, values):
            self._emit(key, window, output)

    def _emit(self, key: bytes, window: Window, output: Any) -> None:
        timestamp = min(window.end, self._max_timestamp) if window is GLOBAL_WINDOW else window.end
        self.results_emitted += 1
        if self.with_window:
            output = (key, window, output)
        self.collector(StreamRecord(key=key, value=output, timestamp=timestamp))
