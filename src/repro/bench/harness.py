"""Run driver: executes one (query, backend, window) cell and records it.

Failure handling mirrors the paper: heap OOM and simulated-time timeouts
become crossed bars (Figure 8), latency overload becomes a missing point
(Figure 9) — never an unhandled exception.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

from repro.bench.profiles import ScaleProfile
from repro.errors import StoreOOMError
from repro.nexmark.queries import build_query
from repro.rescale import RescaleEvent, ScheduledRescale
from repro.simenv import MetricsSnapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.recovery import CheckpointStat, RecoveryEvent


@dataclass
class RunRecord:
    """Outcome of one benchmark cell."""

    query: str
    backend: str
    window_size: float
    input_records: int = 0
    job_seconds: float = 0.0
    throughput: float = 0.0  # records / simulated second
    failure: str | None = None
    p95_latency: float | None = None
    arrival_rate: float | None = None
    results: int = 0
    n_instances: int = 1
    metrics: MetricsSnapshot | None = None
    operator_stats: dict[str, dict[str, Any]] = field(default_factory=dict)
    rescales: list[RescaleEvent] = field(default_factory=list)
    output_hash: str | None = None  # order-independent digest of sink outputs
    recoveries: list[RecoveryEvent] = field(default_factory=list)
    checkpoints: int = 0
    checkpoint_stats: list[CheckpointStat] = field(default_factory=list)
    node_stats: dict[str, dict[str, Any]] = field(default_factory=dict)
    group_load: dict[str, Any] = field(default_factory=dict)

    @property
    def checkpoint_bytes(self) -> int:
        """Total bytes written across all checkpoint epochs."""
        return sum(stat.bytes_written for stat in self.checkpoint_stats)

    def checkpoint_bytes_per_epoch(self, *, full: bool | None = None) -> float:
        """Mean bytes written per epoch, optionally full/delta-only."""
        stats = [
            s for s in self.checkpoint_stats
            if full is None or s.full == full
        ]
        if not stats:
            return 0.0
        return sum(s.bytes_written for s in stats) / len(stats)

    @property
    def ok(self) -> bool:
        return self.failure is None

    def stat_sum(self, key: str) -> float:
        return sum(stats.get(key, 0) for stats in self.operator_stats.values())

    @property
    def migration_seconds(self) -> float:
        """Simulated CPU charged to the ``migration`` ledger category."""
        if self.metrics is None:
            return 0.0
        return self.metrics.cpu_seconds.get("migration", 0.0)

    @property
    def recovery_seconds(self) -> float:
        """Simulated CPU charged to the ``recovery`` ledger category."""
        if self.metrics is None:
            return 0.0
        return self.metrics.cpu_seconds.get("recovery", 0.0)

    @property
    def network_seconds(self) -> float:
        """Simulated time charged to the ``network`` ledger category."""
        if self.metrics is None:
            return 0.0
        return self.metrics.cpu_seconds.get("network", 0.0)

    @property
    def network_bytes(self) -> int:
        """Bytes moved over simulated cluster links (0 single-node)."""
        if self.metrics is None:
            return 0
        return self.metrics.counters.get("net_bytes", 0)

    @property
    def restore_seconds(self) -> float:
        """Simulated time spent restoring checkpoints after crashes."""
        return sum(
            event.sim_seconds for event in self.recoveries if event.kind == "restore"
        )

    @property
    def recovery_downtime(self) -> float:
        """Simulated time from failure to serving again, whichever lane
        recovered the job (checkpoint restore or standby promotion);
        failed attempts that degraded are part of the downtime too."""
        return sum(
            event.sim_seconds for event in self.recoveries
            if event.kind in ("restore", "promote", "degraded")
        )


def run_query(
    profile: ScaleProfile,
    query: str,
    backend: str,
    window_size: float,
    sim_timeout: float | None = None,
    arrival_rate: float | None = None,
    duration: float | None = None,
    events_per_second: float | None = None,
    seed: int | None = None,
    flowkv_overrides: dict[str, Any] | None = None,
    workers: int | None = None,
    session_gap: float | None = None,
    parallelism: int | None = None,
    rescale_schedule: dict[int, int] | None = None,
    rescale_policy: Any = None,
    fault_plan: Any = None,
    checkpoint_interval: int | None = None,
    rescale_mode: str = "live",
    transfer_chunk_bytes: int | None = None,
    transfer_queue_limit: int | None = None,
    incremental_checkpoints: bool = True,
    full_snapshot_interval: int | None = None,
    retained_epochs: int | None = None,
    seed_rescale_from_checkpoint: bool = True,
    generator_overrides: dict[str, Any] | None = None,
    cluster: Any = None,
    recovery_mode: str = "restore",
    batch_records: int = 1,
    prefetch_depth: int = 0,
) -> RunRecord:
    """Execute one cell of the evaluation matrix.

    ``rescale_schedule`` maps record counts to target parallelisms; each
    entry triggers a mid-stream rescale (see :mod:`repro.rescale`) —
    asynchronous per-key-group by default (``rescale_mode="live"``), or
    stop-the-world with ``rescale_mode="stw"``.  ``rescale_policy``
    passes an arbitrary policy object (e.g. a
    :class:`~repro.rescale.skew.SkewController`) instead and takes
    precedence over ``rescale_schedule``.  ``parallelism`` overrides the
    profile's starting parallelism (the rescale sweep needs both ends);
    ``transfer_chunk_bytes`` and ``transfer_queue_limit`` tune the live
    transfer.

    ``fault_plan`` (a :class:`repro.faults.FaultPlan`) injects scheduled
    faults; ``checkpoint_interval`` (records) enables checkpointing and
    runs the job under the :class:`repro.recovery.RecoveryManager`, which
    restores and replays through injected crashes.

    ``incremental_checkpoints`` selects per-key-group sharded epochs
    (True, the default) or whole-store snapshots every epoch (False),
    ``full_snapshot_interval`` bounds the shard-chain length,
    ``retained_epochs`` enables chain-aware checkpoint GC, and
    ``seed_rescale_from_checkpoint`` lets live rescales seed clean moved
    key-groups from the latest checkpoint instead of streaming them.

    ``cluster`` (a :class:`repro.cluster.ClusterTopology`) places the
    physical instances on simulated machines: cross-node shuffle hops,
    migration chunks, and checkpoint shard replication/fetch all pay the
    network, and job time respects per-node core budgets.
    """
    factory = profile.backend_factory(backend, **(flowkv_overrides or {}))
    generator = profile.generator(
        seed=seed, duration=duration, events_per_second=events_per_second
    )
    if generator_overrides:
        # Workload-shape tweaks for a single cell (e.g. popularity skew
        # for the incremental-checkpoint comparison).
        generator = replace(generator, **generator_overrides)
    effective_workers = workers or profile.workers
    start_parallelism = parallelism or profile.parallelism
    if session_gap is None:
        session_gap = window_size * profile.session_gap_fraction
    env = build_query(
        query,
        factory,
        generator,
        window_size,
        parallelism=start_parallelism,
        workers=effective_workers,
        session_gap=session_gap,
        cost_scale=profile.latency_cost_scale if arrival_rate else 1.0,
        faults=fault_plan.build() if fault_plan is not None else None,
        cluster=cluster,
        batch_records=batch_records,
        prefetch_depth=prefetch_depth,
    )
    record = RunRecord(query=query, backend=backend, window_size=window_size,
                       arrival_rate=arrival_rate,
                       n_instances=start_parallelism * effective_workers)
    run_kwargs = dict(
        arrival_rate=arrival_rate,
        watermark_interval=(
            profile.latency_watermark_interval
            if arrival_rate
            else profile.watermark_interval
        ),
        sim_timeout=sim_timeout,
        overload_backlog=profile.overload_backlog,
        rescale_policy=(
            rescale_policy
            if rescale_policy is not None
            else ScheduledRescale(dict(rescale_schedule)) if rescale_schedule else None
        ),
        rescale_mode=rescale_mode,
        transfer_chunk_bytes=transfer_chunk_bytes,
        transfer_queue_limit=transfer_queue_limit,
        seed_rescale_from_checkpoint=seed_rescale_from_checkpoint,
    )
    try:
        if checkpoint_interval is not None:
            from repro.recovery import RecoveryManager

            env.validate()
            manager_kwargs: dict[str, Any] = {"incremental": incremental_checkpoints}
            if full_snapshot_interval is not None:
                manager_kwargs["full_snapshot_interval"] = full_snapshot_interval
            if retained_epochs is not None:
                manager_kwargs["retained_epochs"] = retained_epochs
            if recovery_mode != "restore":
                manager_kwargs["mode"] = recovery_mode
            manager = RecoveryManager(env, checkpoint_interval, **manager_kwargs)
            result = manager.run(**run_kwargs)
        else:
            result = env.execute(**run_kwargs)
    except StoreOOMError:
        record.failure = "oom"
        return record
    record.input_records = result.input_records
    record.job_seconds = result.job_seconds
    record.throughput = result.throughput
    record.failure = result.failure
    record.results = sum(len(v) for v in result.sink_outputs.values())
    record.metrics = result.metrics
    record.operator_stats = result.operator_stats
    record.rescales = result.rescales
    record.recoveries = result.recoveries
    record.checkpoints = result.checkpoints
    record.checkpoint_stats = result.checkpoint_stats
    record.node_stats = result.node_stats
    record.group_load = result.group_load
    record.output_hash = output_digest(result.sink_outputs)
    if arrival_rate:
        record.p95_latency = result.p95_latency()
    return record


def output_digest(sink_outputs: dict[str, list[Any]]) -> str:
    """Order-independent digest of all sink outputs.

    Output order varies with parallelism (instances trigger in instance
    order), but the per-(key, window) results do not — sorting the reprs
    per sink makes runs at different parallelisms comparable.
    """
    digest = hashlib.sha256()
    for sink in sorted(sink_outputs):
        digest.update(sink.encode())
        for item in sorted(repr(value) for value in sink_outputs[sink]):
            digest.update(item.encode())
            digest.update(b"\x00")
    return digest.hexdigest()


def run_matrix(
    profile: ScaleProfile,
    queries: list[str],
    backends: list[str],
    window_sizes: list[float] | None = None,
) -> list[RunRecord]:
    """The Figure-8 matrix.

    FlowKV runs first per (query, window) to establish the reference time;
    other backends are then killed at ``timeout_multiplier`` times the
    reference (the paper's 7200 s kill, scaled).
    """
    sizes = list(window_sizes or profile.window_sizes)
    records: list[RunRecord] = []
    for query in queries:
        for size in sizes:
            reference = run_query(profile, query, "flowkv", size)
            timeout = max(
                profile.timeout_floor,
                profile.timeout_multiplier * max(reference.job_seconds, 1e-9),
            )
            for backend in backends:
                if backend == "flowkv":
                    records.append(reference)
                    continue
                records.append(
                    run_query(profile, query, backend, size, sim_timeout=timeout)
                )
    return records


def run_latency(
    profile: ScaleProfile,
    query: str,
    backends: list[str],
    rates: list[float] | None = None,
) -> list[RunRecord]:
    """The Figure-9 sweep: fixed window, open-loop rates, P95 latency.

    For latency runs the generator's event rate equals the arrival rate,
    so event time and wall time advance together (the Kafka feed of §6.2).
    """
    rates = list(rates or profile.latency_rates)
    records: list[RunRecord] = []
    for backend in backends:
        for rate in rates:
            records.append(
                run_query(
                    profile,
                    query,
                    backend,
                    profile.latency_window,
                    arrival_rate=rate,
                    events_per_second=rate,
                    duration=profile.latency_duration,
                    sim_timeout=None,
                )
            )
    return records
