"""Physical execution on simulated time.

Execution model (documented in DESIGN.md):

* every physical window-operator instance has its own
  :class:`~repro.simenv.SimEnv` (clock + ledger) and its own simulated
  filesystem/state store — states are never shared (§2.1);
* stages are assumed fully pipelined (the paper's workers run 16 task
  slots on 8 vCPUs): job completion time is the *maximum busy time* over
  all instances, not the sum;
* for latency runs, records arrive open-loop at a fixed rate and every
  instance is a single-server FIFO queue: a unit of work starts at
  ``max(arrival, previous completion)`` and its service time is the
  simulated time its processing charged.  Downstream work inherits the
  upstream completion time as its arrival — a queueing network driven by
  the same cost charges that produce throughput numbers;
* a sink record's latency is ``completion_wall - result_timestamp``
  (the window's end), matching the paper's event-time latency metric.

Failure modes surface as typed exceptions: :class:`StoreOOMError` (heap
backend), :class:`SimTimeoutError` (simulated-time budget exceeded) and
:class:`EngineOverloadError` (latency backlog diverged).
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any
from zlib import crc32

from repro.cluster.topology import charge_link
from repro.engine.batch import RecordBatch, record_bytes
from repro.engine.joins import IntervalJoinOperator, JoinStateBackend
from repro.engine.operators import WindowOperator
from repro.engine.plan import LogicalNode, StreamEnvironment
from repro.errors import PlanError, ReproError, SimTimeoutError
from repro.faults import CRASH_RUNTIME_RECORD, CRASH_RUNTIME_WATERMARK
from repro.model import StreamRecord
from repro.rescale.controller import LoadObservation
from repro.rescale.keygroups import contiguous_owner_table
from repro.rescale.live import LiveMigration
from repro.rescale.migration import RescaleEvent, migrate
from repro.rescale.skew import GroupLoadTracker, SplitDecision
from repro.simenv import MetricsLedger, MetricsSnapshot, SimEnv
from repro.storage.filesystem import SimFileSystem


class EngineOverloadError(ReproError):
    """The arrival rate exceeds sustainable throughput (backlog diverged)."""


@dataclass
class PhysicalInstance:
    """One parallel instance of a window operator."""

    name: str
    env: SimEnv
    operator: WindowOperator
    wall_available: float = 0.0
    outbox: list[StreamRecord] = field(default_factory=list)
    cluster_node: int = 0  # hosting node id (0 when no cluster is configured)


@dataclass
class JobResult:
    """Everything the benchmark harness needs from one run."""

    sink_outputs: dict[str, list[Any]]
    latencies: list[float]
    job_seconds: float
    input_records: int
    metrics: MetricsSnapshot
    per_operator: dict[str, MetricsSnapshot]
    operator_stats: dict[str, dict[str, Any]]
    failure: str | None = None
    rescales: list[RescaleEvent] = field(default_factory=list)
    recoveries: list[Any] = field(default_factory=list)  # RecoveryEvent
    checkpoints: int = 0
    checkpoint_stats: list[Any] = field(default_factory=list)  # CheckpointStat
    # Cluster runs only: per-node utilization/traffic breakdown, keyed by
    # node name (empty for legacy single-machine runs).
    node_stats: dict[str, dict[str, Any]] = field(default_factory=dict)
    # Always-on keyed-work accounting (GroupLoadTracker.summary()):
    # records/bytes/busy seconds per key-group, per instance, per node.
    group_load: dict[str, Any] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Input records per simulated second."""
        return self.input_records / self.job_seconds if self.job_seconds > 0 else 0.0

    def p95_latency(self) -> float:
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]


def _fan_out(routes: list):
    """One route calling each of ``routes`` in order (the route itself
    when there is one, a no-op when there are none)."""
    if len(routes) == 1:
        return routes[0]
    routes = tuple(routes)

    def fan_out(*args) -> None:
        for route in routes:
            route(*args)

    return fan_out


def _flush_runs(runs: list, batch_emits: dict[int, Any], arrival: float) -> None:
    """Deliver buffered source runs, in ingest order, as record batches."""
    for node, values, timestamps, origins in runs:
        batch_emits[node.node_id](
            RecordBatch([b""] * len(values), values, timestamps, origins), arrival
        )
    runs.clear()


def _complete_unit(instance: PhysicalInstance, arrival: float, service: float, emit) -> None:
    """Close one work unit of ``service`` simulated seconds on ``instance``.

    The instance is a FIFO server: the unit completes at
    ``max(arrival, previous completion) + service``, and what the operator
    emitted travels on from there, from the instance's node, via ``emit``.
    """
    wall = instance.wall_available
    completion = (wall if wall > arrival else arrival) + service
    instance.wall_available = completion
    outbox = instance.outbox
    if outbox:
        emitted = list(outbox)
        outbox.clear()
        origin = instance.cluster_node
        for out in emitted:
            emit(out.key, out.value, out.timestamp, completion, origin)


class Executor:
    """Compiles a logical plan and pushes records through it."""

    def __init__(self, plan_env: StreamEnvironment) -> None:
        self._plan = plan_env
        self._children: dict[int, list[LogicalNode]] = {}
        for node in plan_env.nodes():
            for parent in node.parents:
                self._children.setdefault(parent.node_id, []).append(node)
        self._stateful_nodes = [
            n for n in plan_env.nodes() if n.kind in ("window", "interval_join")
        ]
        self._instances: dict[int, list[PhysicalInstance]] = {}
        self._sinks: dict[str, list[Any]] = {
            n.name: [] for n in plan_env.nodes() if n.kind == "sink"
        }
        self._latencies: list[float] = []
        # Ledgers/stats of instances retired by a scale-down, per node id.
        self._retired: dict[int, list[tuple[MetricsSnapshot, float, int]]] = {}
        self._rescales: list[RescaleEvent] = []
        self.current_parallelism = plan_env.parallelism * plan_env.workers
        self.records_ingested = 0
        # Authoritative per-key-group routing table (per-group epochs): a
        # live rescale flips entries one group at a time; an aborted live
        # rescale may leave a mixed assignment.
        self.group_owner: list[int] = contiguous_owner_table(
            plan_env.max_key_groups, self.current_parallelism
        )
        # Always-on per-key-group load accounting (records / state bytes
        # / busy seconds).  Pure-Python bookkeeping on the keyed routing
        # path: no simulated charges, so runs stay charge-identical.
        # Counters are global per group — they travel with the group
        # across live migrations; recovery builds a fresh executor (and
        # a fresh tracker) per restore.
        self.load_tracker = GroupLoadTracker(plan_env.max_key_groups)
        self._live: LiveMigration | None = None
        self._rescale_mode = "live"
        self._transfer_chunk_bytes: int | None = None
        self._transfer_queue_limit: int | None = None
        self._checkpointer: Any = None
        self._seed_rescale = True
        self._first_ts: float | None = None
        # Failover repointing: instance index -> hosting node, overriding
        # the cluster's static placement (a promoted standby serves its
        # dead owner's instances from the peer node).
        self.node_override: dict[int, int] = {}
        # Set by ChangelogReplication.bind(); feeds promote-mode rescales.
        self.replication: Any = None
        # Compiled routes into each node's children, by node id; set only
        # while run() executes (see _compile).
        self._emits: dict[int, Any] | None = None
        self._build_instances()

    @property
    def migration_active(self) -> bool:
        """Whether a live state migration is currently in flight."""
        return self._live is not None and not self._live.done

    # ------------------------------------------------------------------
    # back-half API: what checkpoint, recovery, rescale and changelog
    # replication use to move state in and out of a running job.
    # ------------------------------------------------------------------
    @property
    def plan(self) -> StreamEnvironment:
        return self._plan

    @property
    def stateful_nodes(self) -> list[LogicalNode]:
        """The window and interval-join nodes, in plan order."""
        return self._stateful_nodes

    def instances(self, node: LogicalNode) -> list[PhysicalInstance]:
        """The live (mutable) instance list of one stateful node."""
        return self._instances[node.node_id]

    def stateful_instances(
        self,
    ) -> Iterator[tuple[LogicalNode, int, PhysicalInstance, str]]:
        """Every stateful instance as ``(node, index, instance, key)``,
        node by node in plan order; ``key`` (``"op{node}/p{index}"``)
        names the instance in checkpoints and changelog replication."""
        for node in self._stateful_nodes:
            for index, instance in enumerate(self._instances[node.node_id]):
                yield node, index, instance, f"op{node.node_id}/p{index}"

    def busiest_clock(self, default: float = 0.0) -> float:
        """The furthest-advanced instance clock (``default`` with none)."""
        return max(
            (inst.env.clock.now for insts in self._instances.values() for inst in insts),
            default=default,
        )

    def retire_instances(self, parallelism: int) -> None:
        """Close every instance at index ``parallelism`` or above, keeping
        its ledger and results for the job result (a committed scale-down)."""
        for node in self._stateful_nodes:
            instances = self._instances[node.node_id]
            for retired in instances[parallelism:]:
                retired.operator.backend.close()
                self._retired.setdefault(node.node_id, []).append(
                    (retired.env.ledger.snapshot(), retired.env.clock.now,
                     retired.operator.results_emitted)
                )
            del instances[parallelism:]

    def replay(
        self,
        node: LogicalNode,
        index: int,
        group: int,
        records: list[StreamRecord],
        arrival: float,
    ) -> None:
        """Process records a live migration buffered for key-group
        ``group`` at instance ``index`` of ``node``, one work unit each,
        with the same load accounting as routed delivery."""
        instance = self._instances[node.node_id][index]
        for record in records:
            service = self._run_unit(
                node, instance, arrival,
                lambda r=record: instance.operator.process(r),
            )
            self.load_tracker.record(
                group, index, instance.cluster_node,
                1, len(record.key) + record_bytes(record.value), service,
            )

    def job_outputs(self) -> dict[str, Any]:
        """The job-level state a checkpoint carries besides operator
        state: sink outputs, latencies and rescale history."""
        return {
            "sinks": self._sinks,
            "latencies": self._latencies,
            "rescales": self._rescales,
        }

    def set_job_outputs(
        self,
        sinks: dict[str, list[Any]],
        latencies: list[float],
        rescales: list[RescaleEvent],
    ) -> None:
        """Reinstate checkpointed :meth:`job_outputs` (copied)."""
        self._sinks = {name: list(vals) for name, vals in sinks.items()}
        self._latencies = list(latencies)
        self._rescales = list(rescales)

    def cluster_node_of(self, index: int) -> int | None:
        """Hosting node id of instance ``index`` (None without a cluster).

        Consults :attr:`node_override` first, so a standby promotion can
        repoint a dead node's instances at the surviving peer without
        touching the placement of any other instance.
        """
        cluster = self._plan.cluster
        if cluster is None:
            return None
        override = self.node_override.get(index)
        return override if override is not None else cluster.place(index)

    def new_instance(self, node: LogicalNode, index: int) -> PhysicalInstance:
        """Deploy one physical instance of a stateful node (fresh state)."""
        factory = self._plan.backend_factory
        env = SimEnv(cpu=self._plan.cpu, ssd=self._plan.ssd, faults=self._plan.faults)
        fs = SimFileSystem(env)
        name = f"{node.name}/p{index}"
        if node.kind == "interval_join":
            # Engine-managed buffers (MapState analogue) — held in a
            # JoinStateBackend so the key-group machinery (migrate,
            # LiveMigration, sharded checkpoints) moves them like any
            # other keyed state.
            backend = JoinStateBackend(env, max_key_groups=self._plan.max_key_groups)
            operator: Any = IntervalJoinOperator(
                lower=node.params["lower"],
                upper=node.params["upper"],
                join_fn=node.params["fn"],
                name=name,
            )
        else:
            backend = factory(env, fs, name, node.params["info"])
            operator = WindowOperator(
                assigner=node.params["assigner"],
                function=node.params["fn"],
                name=name,
                with_window=node.params.get("with_window", False),
            )
        instance = PhysicalInstance(
            name=name, env=env, operator=operator,
            cluster_node=self.cluster_node_of(index) or 0,
        )
        operator.open(env, backend, instance.outbox.append)
        return instance

    def _build_instances(self) -> None:
        # Join state is engine-managed; only window nodes need a KV
        # backend, so a join-only plan may run (and checkpoint) without
        # a backend_factory.
        if self._plan.backend_factory is None and any(
            node.kind == "window" for node in self._stateful_nodes
        ):
            raise PlanError("StreamEnvironment has no backend_factory")
        for node in self._stateful_nodes:
            self._instances[node.node_id] = [
                self.new_instance(node, i) for i in range(self.current_parallelism)
            ]

    # ------------------------------------------------------------------
    def run(
        self,
        arrival_rate: float | None = None,
        watermark_interval: int = 50,
        sim_timeout: float | None = None,
        overload_backlog: float = 600.0,
        watermark_delay: float = 0.0,
        rescale_policy: Any = None,
        records: list | None = None,
        start_count: int = 0,
        start_max_ts: float = float("-inf"),
        checkpointer: Any = None,
        rescale_mode: str = "live",
        transfer_chunk_bytes: int | None = None,
        transfer_queue_limit: int | None = None,
        seed_rescale_from_checkpoint: bool = True,
    ) -> JobResult:
        """Execute the job.

        Args:
            arrival_rate: records/second open-loop arrival rate; None runs
                in throughput mode (all records available at time 0).
            watermark_interval: records between watermark broadcasts.
            sim_timeout: abort with :class:`SimTimeoutError` once any
                instance's busy time exceeds this many simulated seconds
                (the paper kills jobs at 7200 s).
            overload_backlog: in latency mode, abort with
                :class:`EngineOverloadError` when any instance's queue
                backlog exceeds this many seconds.
            watermark_delay: bounded out-of-orderness — watermarks trail
                the maximum seen timestamp by this much, so records up to
                ``delay`` late are still on time.
            rescale_policy: an object with ``decide(LoadObservation) ->
                int | None`` (e.g. :class:`~repro.rescale.controller.
                ScheduledRescale` or ``RescaleController``), consulted at
                every watermark boundary; a non-None decision triggers a
                stop-the-world rescale to that parallelism.
            records: pre-materialized ``(source_node, value, timestamp)``
                list to run from instead of the plan's sources.  The
                recovery manager materializes sources once so replays see
                the identical record sequence.
            start_count: resume position into ``records`` (a checkpoint's
                record count); arrival times stay on the absolute grid.
            start_max_ts: the watermark state at the checkpoint.
            checkpointer: optional :class:`repro.recovery.Checkpointer`
                consulted at every watermark boundary.
            rescale_mode: ``"live"`` (default) migrates state per
                key-group while un-moved groups keep serving
                (:class:`~repro.rescale.live.LiveMigration`); ``"stw"``
                uses the stop-the-world path; ``"promote"`` runs the
                live path but seeds clean moved groups from warm standby
                replicas (requires changelog replication to be active).
            transfer_chunk_bytes: live-mode per-chunk byte budget.
            transfer_queue_limit: live-mode bound on records buffered per
                in-transit key-group before backpressure forces its
                cutover.
            seed_rescale_from_checkpoint: live-mode only — seed moved
                key-groups that are *clean* since the last checkpoint
                from that checkpoint's shards (checkpoint-read I/O)
                instead of streaming them live; requires a sharding
                ``checkpointer``.
        """
        if rescale_mode not in ("live", "stw", "promote"):
            raise PlanError(f"unknown rescale_mode {rescale_mode!r}")
        self._rescale_mode = rescale_mode
        self._transfer_chunk_bytes = transfer_chunk_bytes
        self._transfer_queue_limit = transfer_queue_limit
        self._checkpointer = checkpointer
        self._seed_rescale = seed_rescale_from_checkpoint
        faults = self._plan.faults
        if records is not None:
            merged = iter(records[start_count:])
        else:
            merged = self.merged_sources()
        count = start_count
        max_ts = start_max_ts
        arrival = 0.0
        failure: str | None = None
        self._last_busy = self._busy_sum()
        self._last_arrival = 0.0
        cluster = self._plan.cluster
        # Latency mode needs the per-record arrival axis, so batching is
        # a throughput-mode-only optimization.
        batch_limit = 1 if arrival_rate else max(1, self._plan.max_batch_records)
        # Source rows buffered for batched delivery.  Three invariants
        # keep a batched run equivalent to record-at-a-time execution:
        # a watermark due mid-batch flushes the partial batch *before*
        # broadcasting, so timer firing order is identical; while a live
        # migration is in flight records are delivered immediately (its
        # intercept and advance hooks are per-record by contract — and a
        # migration only starts at a boundary, when nothing is buffered);
        # and batches split at key-group boundaries on delivery, so each
        # instance still sees exactly its own records, in arrival order.
        # Buffered rows are kept as columns, one (node, values, timestamps,
        # origins) run per stretch of records from the same source.
        runs: list[tuple[LogicalNode, list[Any], list[float], list[int]]] = []
        pending = 0
        boundary_args = (
            arrival_rate, watermark_delay, sim_timeout, overload_backlog,
            rescale_policy, checkpointer, faults,
        )
        emits, batch_emits = self._compile()
        self._emits = emits
        try:
            for source_node, value, timestamp in merged:
                if faults is not None:
                    faults.crash_point(
                        CRASH_RUNTIME_RECORD, now_fn=self.busiest_clock
                    )
                if arrival_rate:
                    arrival = count / arrival_rate
                if self._first_ts is None:
                    self._first_ts = timestamp
                # Source tasks are sharded round-robin over cluster
                # nodes; the record's first shuffle hop starts from
                # its ingest node.
                origin = 0 if cluster is None else cluster.ingest_node(count)
                if batch_limit == 1 or self._live is not None:
                    emits[source_node.node_id](b"", value, timestamp, arrival, origin)
                else:
                    if not runs or runs[-1][0] is not source_node:
                        run_values, run_stamps, run_origins = [], [], []
                        runs.append((source_node, run_values, run_stamps, run_origins))
                    run_values.append(value)
                    run_stamps.append(timestamp)
                    run_origins.append(origin)
                    pending += 1
                count += 1
                self.records_ingested = count
                if timestamp > max_ts:
                    max_ts = timestamp
                if self._live is not None:
                    # One chunk per transfer channel per ingested
                    # record: the migration interleaves with processing.
                    self._live.advance(arrival)
                    if self._live.done:
                        self._live = None
                if pending >= batch_limit or (
                    pending and count % watermark_interval == 0
                ):
                    _flush_runs(runs, batch_emits, arrival)
                    pending = 0
                if count % watermark_interval == 0:
                    self._watermark_boundary(count, max_ts, arrival, *boundary_args)
            if pending:
                _flush_runs(runs, batch_emits, arrival)
            self._finish(arrival)
        except SimTimeoutError:
            failure = "timeout"
        except EngineOverloadError:
            failure = "overload"
        finally:
            self._emits = None
        return self._result(count, failure)

    def _watermark_boundary(
        self,
        count: int,
        max_ts: float,
        arrival: float,
        arrival_rate: float | None,
        watermark_delay: float,
        sim_timeout: float | None,
        overload_backlog: float,
        rescale_policy,
        checkpointer,
        faults,
    ) -> None:
        self._broadcast_watermark(max_ts - watermark_delay, arrival)
        if faults is not None:
            faults.crash_point(CRASH_RUNTIME_WATERMARK, now_fn=self.busiest_clock)
        self._check_limits(sim_timeout, arrival_rate, arrival, overload_backlog)
        # Policy and checkpoints wait for an in-flight migration to
        # settle: decide() is not even consulted, so scheduled thresholds
        # are not consumed mid-flight.
        if rescale_policy is not None and self._live is None:
            busy = self._busy_sum()
            utilization = None
            if arrival_rate and arrival > self._last_arrival:
                n = max(1, self.current_parallelism)
                utilization = (busy - self._last_busy) / n / (arrival - self._last_arrival)
            # One signal path: the per-instance backlog breakdown feeds
            # the SkewController, its max is the aggregate the
            # RescaleController has always seen.
            backlogs = self._instance_backlogs(arrival, arrival_rate, max_ts)
            observation = LoadObservation(
                record_count=count,
                parallelism=self.current_parallelism,
                utilization=utilization,
                backlog_seconds=max(backlogs) if backlogs else 0.0,
                per_instance_backlog=tuple(backlogs),
                owner_table=tuple(self.group_owner),
                group_busy=tuple(self.load_tracker.group_busy),
            )
            self._last_busy, self._last_arrival = busy, arrival
            target = rescale_policy.decide(observation)
            if isinstance(target, SplitDecision):
                table = list(target.table)
                if table != self.group_owner:
                    self.rebalance_to(
                        table, arrival=arrival, at_record=count,
                        hot_groups=list(target.hot_groups),
                    )
            elif target is not None and target != self.current_parallelism:
                self.rescale_to(target, arrival=arrival, at_record=count)
        if checkpointer is not None and self._live is None:
            checkpointer.maybe_checkpoint(self, count, max_ts, rescale_policy)

    # ------------------------------------------------------------------
    def rescale_to(
        self, new_parallelism: int, arrival: float = 0.0, at_record: int = 0
    ) -> RescaleEvent:
        """Rescale to ``new_parallelism``; the event is recorded on the
        job result.

        In ``"live"`` mode (the default) this *starts* an asynchronous
        per-key-group migration (:mod:`repro.rescale.live`) that the run
        loop drives forward one chunk batch per record; ``"stw"`` runs
        the whole stop-the-world migration before returning
        (:mod:`repro.rescale.migration`).
        """
        if self._rescale_mode in ("live", "promote"):
            live = LiveMigration(
                self, new_parallelism, arrival=arrival, at_record=at_record,
                chunk_bytes=self._transfer_chunk_bytes,
                queue_limit=self._transfer_queue_limit,
                seed=self._live_seed(),
            )
            self._rescales.append(live.event)
            if not live.done:
                self._live = live
            return live.event
        event = migrate(self, new_parallelism, arrival=arrival, at_record=at_record)
        self._rescales.append(event)
        return event

    def rebalance_to(
        self,
        table: list[int],
        arrival: float = 0.0,
        at_record: int = 0,
        hot_groups: list[int] | None = None,
    ) -> RescaleEvent:
        """Re-place key-groups onto an explicit owner table (skew split).

        Parallelism is unchanged; only key-groups whose owner differs
        between the current routing table and ``table`` move, via the
        same live per-group machinery as a rescale (drain once, bounded
        buffer-and-replay, per-group cutover, partial rollback on
        faults).  Used by the
        :class:`~repro.rescale.skew.SkewController`; works under any
        ``rescale_mode`` (a split is inherently per-group, so there is
        no stop-the-world variant)."""
        live = LiveMigration(
            self, self.current_parallelism, arrival=arrival, at_record=at_record,
            chunk_bytes=self._transfer_chunk_bytes,
            queue_limit=self._transfer_queue_limit,
            seed=(
                self._live_seed()
                if self._rescale_mode in ("live", "promote")
                else None
            ),
            target_table=table,
            reason="skew-split",
            hot_groups=hot_groups,
        )
        self._rescales.append(live.event)
        if not live.done:
            self._live = live
        return live.event

    def _live_seed(self) -> Any:
        """Where a live migration may seed clean moved groups from: an
        object with ``group_entries`` (or None to stream every group)."""
        if self._rescale_mode == "promote":
            # Rescale-by-replica-promotion: clean moved groups land
            # from the peer's warm standby copy instead of the
            # checkpoint store or the owner's hot path.
            return self.replication
        return self._checkpointer if self._seed_rescale else None

    def rebuild_for_restore(self, parallelism: int) -> None:
        """Redeploy all stateful nodes at ``parallelism`` with fresh state.

        Recovery builds the post-crash executor with this before loading
        checkpointed snapshots into the (empty) instances: the checkpoint
        dictates the parallelism, not the plan's default.
        """
        for node in self._stateful_nodes:
            for instance in self._instances[node.node_id]:
                backend = instance.operator.backend
                if backend is not None:
                    backend.close()
            self._instances[node.node_id] = [
                self.new_instance(node, i) for i in range(parallelism)
            ]
        self.current_parallelism = parallelism
        self.group_owner = contiguous_owner_table(
            self._plan.max_key_groups, parallelism
        )

    def _busy_sum(self) -> float:
        """Total busy time over live and retired instances (monotonic)."""
        live = sum(
            inst.env.clock.now
            for insts in self._instances.values()
            for inst in insts
        )
        retired = sum(
            busy for reports in self._retired.values() for _s, busy, _r in reports
        )
        return live + retired

    def _instance_backlogs(
        self, arrival: float, arrival_rate: float | None, max_ts: float
    ) -> list[float]:
        """Source-queue backlog estimate, per physical instance index.

        Latency mode has a real arrival axis: an instance's backlog is
        how far its completion horizon trails the current arrival (max
        over the stateful operators sharing the index).  Throughput mode
        has no arrival clock, so the event-time span ingested so far
        serves as the wall-time proxy: busy time beyond that span means
        the instance cannot keep up with its sources in real time.  The
        aggregate the :class:`~repro.rescale.controller.RescaleController`
        watches is exactly ``max`` of this list; the per-index breakdown
        lets the :class:`~repro.rescale.skew.SkewController` see *which*
        instance is pinned — one signal path for both.
        """
        width = max((len(insts) for insts in self._instances.values()), default=0)
        if width == 0:
            return []
        if arrival_rate:
            per_index = [float("-inf")] * width
            for insts in self._instances.values():
                for index, inst in enumerate(insts):
                    value = inst.wall_available - arrival
                    if value > per_index[index]:
                        per_index[index] = value
            return per_index
        if self._first_ts is None or max_ts == float("-inf"):
            return []
        span = max(0.0, max_ts - self._first_ts)
        per_index = [0.0] * width
        for insts in self._instances.values():
            for index, inst in enumerate(insts):
                if inst.env.clock.now > per_index[index]:
                    per_index[index] = inst.env.clock.now
        return [max(0.0, value - span) for value in per_index]

    def merged_sources(self):
        """Merge all sources in timestamp order."""
        sources = self._plan.sources()
        if len(sources) == 1:
            node, records = sources[0]
            for value, ts in records:
                yield node, value, ts
            return
        streams = []
        for idx, (node, records) in enumerate(sources):
            iterator = iter(records)
            streams.append((idx, node, iterator))
        heap = []
        for idx, node, iterator in streams:
            first = next(iterator, None)
            if first is not None:
                value, ts = first
                heap.append((ts, idx, value, node, iterator))
        heapq.heapify(heap)
        while heap:
            ts, idx, value, node, iterator = heapq.heappop(heap)
            yield node, value, ts
            nxt = next(iterator, None)
            if nxt is not None:
                nvalue, nts = nxt
                heapq.heappush(heap, (nts, idx, nvalue, node, iterator))

    # ------------------------------------------------------------------
    # compiled record routes
    #
    # Each logical node compiles once per run into a per-record route
    # ``(key, value, timestamp, arrival, origin)`` and a batch route
    # ``(RecordBatch, arrival)``; an edge to a single child calls the
    # child's route directly.  ``origin`` is the cluster node the record
    # currently lives on (its ingest node, or the node of the instance
    # that emitted it): stateless transforms run where the record already
    # is, so only the keyed hand-off to a stateful instance can cross the
    # network, and only there is a StreamRecord built.  Two rules
    # (DESIGN.md, "Compiled record routes"): a route reads executor state
    # that rescale and restore reassign (group_owner, _instances, _live,
    # _sinks, _latencies) at call time, and the tables live only while
    # run() does, so no route keeps the executor in a reference cycle.
    # ------------------------------------------------------------------
    def _compile(self) -> tuple[dict[int, Any], dict[int, Any]]:
        """Per node id: the per-record and the batch route into the
        node's children (what the node emits through)."""
        emits: dict[int, Any] = {}
        batch_emits: dict[int, Any] = {}
        routes: dict[int, Any] = {}
        batch_routes: dict[int, Any] = {}
        # Parents precede children in plan order, so compile backwards.
        for node in reversed(self._plan.nodes()):
            children = self._children.get(node.node_id, ())
            emit = _fan_out([routes[c.node_id] for c in children])
            emit_batch = _fan_out([batch_routes[c.node_id] for c in children])
            emits[node.node_id] = emit
            batch_emits[node.node_id] = emit_batch
            if node.kind != "source":
                route = routes[node.node_id] = self._record_route(node, emit)
                batch_routes[node.node_id] = self._batch_route(
                    node, route, emit, emit_batch
                )
        return emits, batch_emits

    def _record_route(self, node: LogicalNode, emit):
        kind = node.kind
        fn = node.params.get("fn")
        if kind == "map":
            def route(key, value, timestamp, arrival, origin):
                emit(key, fn(value), timestamp, arrival, origin)
        elif kind == "filter":
            def route(key, value, timestamp, arrival, origin):
                if fn(value):
                    emit(key, value, timestamp, arrival, origin)
        elif kind == "flat_map":
            def route(key, value, timestamp, arrival, origin):
                for out in fn(value):
                    emit(key, out, timestamp, arrival, origin)
        elif kind == "key_by":
            name = node.name

            def route(key, value, timestamp, arrival, origin):
                key = fn(value)
                if not isinstance(key, bytes):
                    raise PlanError(f"key_by {name} must return bytes, got {type(key)}")
                emit(key, value, timestamp, arrival, origin)
        elif kind == "union":
            route = emit
        elif kind in ("window", "interval_join"):
            route = self._keyed_route(node, emit)
        elif kind == "sink":
            name = node.name

            def route(key, value, timestamp, arrival, origin):
                self._sinks[name].append(value)
                latency = arrival - timestamp
                self._latencies.append(latency if latency > 0.0 else 0.0)
        else:  # pragma: no cover - source has no inbound records
            raise PlanError(f"cannot handle node kind {kind}")
        return route

    def _keyed_route(self, node: LogicalNode, emit):
        """The keyed hand-off: route one record to its key-group's owner
        and run it there as one work unit (see :meth:`_run_unit`)."""
        node_id = node.node_id
        max_groups = self._plan.max_key_groups
        cluster = self._plan.cluster
        faults = self._plan.faults
        label = f"net/shuffle/{node.name}"
        tracker = self.load_tracker

        def route(key, value, timestamp, arrival, origin):
            record = StreamRecord(key, value, timestamp)
            live = self._live
            if live is not None and live.intercept(node, record, arrival):
                return  # buffered: replays at the new owner on cutover
            group = crc32(key) % max_groups
            inst_index = self.group_owner[group]
            instance = self._instances[node_id][inst_index]
            clock = instance.env.clock
            start = clock.now
            if cluster is not None and origin != instance.cluster_node:
                # Cross-node shuffle hop: the receive wait occupies the
                # destination instance (charged inside its service time).
                # Shuffle channels stay open and pipelined, so a record
                # pays wire bandwidth only (n_requests=0): per-record
                # round-trip latency would serialize throughput in a way
                # no streaming shuffle does.
                charge_link(
                    instance.env, cluster.network, origin, instance.cluster_node,
                    cluster.network.record_overhead_bytes + len(key), label, faults,
                    n_requests=0,
                )
            instance.operator.process(record)
            service = clock.now - start
            _complete_unit(instance, arrival, service, emit)
            tracker.record(
                group, inst_index, instance.cluster_node,
                1, len(key) + record_bytes(value), service,
            )

        return route

    # ------------------------------------------------------------------
    # batched hot path: columnar batches flow through stateless
    # transforms without boxing records; rows materialize only at the
    # keyed hand-off to a stateful instance (split per key-group there)
    # or at a sink.
    # ------------------------------------------------------------------
    def _batch_route(self, node: LogicalNode, route, emit, emit_batch):
        kind = node.kind
        fn = node.params.get("fn")
        if kind == "map":
            def batch_route(batch, arrival):
                emit_batch(batch.with_values([fn(v) for v in batch.values]), arrival)
        elif kind == "filter":
            def batch_route(batch, arrival):
                kept = [i for i, v in enumerate(batch.values) if fn(v)]
                if kept:
                    if len(kept) == len(batch):
                        emit_batch(batch, arrival)
                    else:
                        emit_batch(batch.take(kept), arrival)
        elif kind == "flat_map":
            def batch_route(batch, arrival):
                keys: list[bytes] = []
                values: list[Any] = []
                timestamps: list[float] = []
                origins: list[int] = []
                in_keys = batch.keys
                in_ts = batch.timestamps
                in_origins = batch.origins
                for i, v in enumerate(batch.values):
                    for out in fn(v):
                        keys.append(in_keys[i])
                        values.append(out)
                        timestamps.append(in_ts[i])
                        origins.append(in_origins[i])
                if values:
                    emit_batch(RecordBatch(keys, values, timestamps, origins), arrival)
        elif kind == "key_by":
            name = node.name

            def batch_route(batch, arrival):
                keys = []
                for v in batch.values:
                    key = fn(v)
                    if not isinstance(key, bytes):
                        raise PlanError(
                            f"key_by {name} must return bytes, got {type(key)}"
                        )
                    keys.append(key)
                emit_batch(batch.with_keys(keys), arrival)
        elif kind == "union":
            batch_route = emit_batch
        elif kind in ("window", "interval_join"):
            deliver = self._deliver_batch(node, emit)

            def batch_route(batch, arrival):
                if self._live is None:
                    deliver(batch, arrival)
                    return
                # Per-record fallback while a migration is in flight: the
                # intercept hook buffers moved-group records one by one.
                for key, value, timestamp, origin in zip(
                    batch.keys, batch.values, batch.timestamps, batch.origins
                ):
                    route(key, value, timestamp, arrival, origin)
        elif kind == "sink":
            name = node.name

            def batch_route(batch, arrival):
                self._sinks[name].extend(batch.values)
                latencies = self._latencies
                for ts in batch.timestamps:
                    latencies.append(max(0.0, arrival - ts))
        else:  # pragma: no cover - source has no inbound records
            raise PlanError(f"cannot handle node kind {kind}")
        return batch_route

    def _deliver_batch(self, node: LogicalNode, emit):
        """Compile the batched keyed hand-off: split a batch at key-group
        boundaries and hand each routed instance its rows (arrival order
        preserved within an instance).

        One work unit per (batch, instance): remote rows pay their wire
        charge first — all charges land on the instance's own env, so
        per-category charge order matches per-tuple delivery.
        """
        node_id = node.node_id
        max_groups = self._plan.max_key_groups
        cluster = self._plan.cluster
        faults = self._plan.faults
        label = f"net/shuffle/{node.name}"
        tracker = self.load_tracker

        def deliver(batch: RecordBatch, arrival: float) -> None:
            instances = self._instances[node_id]
            owner = self.group_owner
            keys = batch.keys
            grouped: dict[int, list[int]] = {}  # instance -> rows, first-seen order
            row_group: list[int] = []
            for i, key in enumerate(keys):
                group = crc32(key) % max_groups
                row_group.append(group)
                rows = grouped.get(owner[group])
                if rows is None:
                    grouped[owner[group]] = rows = []
                rows.append(i)
            values = batch.values
            timestamps = batch.timestamps
            origins = batch.origins
            for inst_index, rows in grouped.items():
                instance = instances[inst_index]
                records = [StreamRecord(keys[i], values[i], timestamps[i]) for i in rows]
                clock = instance.env.clock
                start = clock.now
                if cluster is not None:
                    overhead = cluster.network.record_overhead_bytes
                    for i in rows:
                        if origins[i] != instance.cluster_node:
                            charge_link(
                                instance.env, cluster.network, origins[i],
                                instance.cluster_node, overhead + len(keys[i]),
                                label, faults, n_requests=0,
                            )
                instance.operator.process_batch(records)
                service = clock.now - start
                _complete_unit(instance, arrival, service, emit)
                per_group: dict[int, list[int]] = {}
                for i in rows:
                    tally = per_group.get(row_group[i])
                    if tally is None:
                        per_group[row_group[i]] = tally = [0, 0]
                    tally[0] += 1
                    tally[1] += len(keys[i]) + record_bytes(values[i])
                tracker.record_many(
                    inst_index, instance.cluster_node,
                    [(g, n, b) for g, (n, b) in sorted(per_group.items())], service,
                )

        return deliver

    def _run_unit(
        self, node: LogicalNode, instance: PhysicalInstance, arrival: float, thunk
    ) -> float:
        start = instance.env.clock.now
        thunk()
        service = instance.env.clock.now - start
        _complete_unit(instance, arrival, service, self._emits[node.node_id])
        return service

    def _broadcast_watermark(self, watermark: float, arrival: float) -> None:
        for node in self._stateful_nodes:
            for instance in self._instances[node.node_id]:
                self._run_unit(
                    node, instance, arrival,
                    lambda inst=instance: inst.operator.on_watermark(watermark),
                )

    def _finish(self, arrival: float) -> None:
        # End of input: an in-flight migration must settle before the
        # final triggers fire, or buffered records would be lost.
        if self._live is not None:
            self._live.drain_to_completion(arrival)
            self._live = None
        for node in self._stateful_nodes:
            for instance in self._instances[node.node_id]:
                self._run_unit(
                    node, instance, arrival,
                    lambda inst=instance: inst.operator.finish(),
                )

    def _check_limits(
        self,
        sim_timeout: float | None,
        arrival_rate: float | None,
        arrival: float,
        overload_backlog: float,
    ) -> None:
        if sim_timeout is not None:
            busiest = self.busiest_clock()
            if busiest > sim_timeout:
                raise SimTimeoutError(f"busy time {busiest:.0f}s exceeds {sim_timeout:.0f}s")
        if arrival_rate:
            backlog = max(
                (inst.wall_available - arrival
                 for insts in self._instances.values() for inst in insts),
                default=0.0,
            )
            if backlog > overload_backlog:
                raise EngineOverloadError(f"backlog {backlog:.0f}s at rate {arrival_rate}")

    # ------------------------------------------------------------------
    def _result(self, count: int, failure: str | None) -> JobResult:
        total = MetricsLedger()
        per_operator: dict[str, MetricsSnapshot] = {}
        operator_stats: dict[str, dict[str, Any]] = {}
        cluster = self._plan.cluster
        # Per cluster node: summed busy time, busiest instance, instance
        # count, and network traffic — feeds the node-capacity job model.
        node_busy: dict[int, float] = {}
        node_peak: dict[int, float] = {}
        node_count: dict[int, int] = {}
        node_net: dict[int, tuple[float, int]] = {}
        job_seconds = 0.0
        for node in self._stateful_nodes:
            node_ledger = MetricsLedger()
            stats: dict[str, Any] = {"results": 0, "memory_bytes": 0}
            for instance in self._instances[node.node_id]:
                snapshot = instance.env.ledger.snapshot()
                node_ledger.merge(snapshot)
                total.merge(snapshot)
                job_seconds = max(job_seconds, instance.env.clock.now)
                if cluster is not None:
                    host = instance.cluster_node
                    busy = instance.env.clock.now
                    node_busy[host] = node_busy.get(host, 0.0) + busy
                    node_peak[host] = max(node_peak.get(host, 0.0), busy)
                    node_count[host] = node_count.get(host, 0) + 1
                    secs, nbytes = node_net.get(host, (0.0, 0))
                    node_net[host] = (
                        secs + snapshot.network_seconds,
                        nbytes + snapshot.network_bytes,
                    )
                stats["results"] += instance.operator.results_emitted
                backend = instance.operator.backend
                stats["memory_bytes"] += getattr(backend, "memory_bytes", 0)
                for attr in ("compaction_count", "disk_bytes", "prefetch_loads", "prefetch_hits"):
                    value = getattr(backend, attr, None)
                    if value is not None:
                        stats[attr] = stats.get(attr, 0) + value
            # Instances retired by a scale-down still contributed work.
            for snapshot, busy, results in self._retired.get(node.node_id, []):
                node_ledger.merge(snapshot)
                total.merge(snapshot)
                job_seconds = max(job_seconds, busy)
                stats["results"] += results
            loads = stats.get("prefetch_loads", 0)
            if loads:
                stats["prefetch_hit_ratio"] = stats.get("prefetch_hits", 0) / loads
            per_operator[node.name] = node_ledger.snapshot()
            operator_stats[node.name] = stats
        node_stats: dict[str, dict[str, Any]] = {}
        if cluster is not None:
            # Node-capacity job time: a node with more runnable instances
            # than cores cannot overlap them all, so it finishes no sooner
            # than its total work divided by its cores — and never sooner
            # than its busiest single (sequential) instance.  Job time is
            # the slowest node, not a bare max-over-instances.
            for host, machine in enumerate(cluster.nodes):
                busy = node_busy.get(host, 0.0)
                peak = node_peak.get(host, 0.0)
                node_seconds = max(peak, busy / machine.cores)
                job_seconds = max(job_seconds, node_seconds)
                secs, nbytes = node_net.get(host, (0.0, 0))
                node_stats[machine.name] = {
                    "instances": node_count.get(host, 0),
                    "cores": machine.cores,
                    "busy_seconds": busy,
                    "node_seconds": node_seconds,
                    "network_seconds": secs,
                    "network_bytes": nbytes,
                    "keyed_records": self.load_tracker.node_records.get(host, 0),
                    "keyed_busy_seconds": self.load_tracker.node_busy.get(host, 0.0),
                }
            for entry in node_stats.values():
                entry["utilization"] = (
                    entry["busy_seconds"] / (entry["cores"] * job_seconds)
                    if job_seconds > 0 else 0.0
                )
        return JobResult(
            sink_outputs=dict(self._sinks),
            latencies=self._latencies,
            job_seconds=job_seconds,
            input_records=count,
            metrics=total.snapshot(),
            per_operator=per_operator,
            operator_stats=operator_stats,
            failure=failure,
            rescales=list(self._rescales),
            node_stats=node_stats,
            group_load=self.load_tracker.summary(),
        )
