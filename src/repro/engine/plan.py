"""Logical plan construction: the fluent DataStream API (§2.1).

A streaming application is a DAG of logical operations; the environment
compiles it into a physical plan with ``parallelism`` instances per window
operator, each owning a private state-store instance (Figure 1).
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Any

from repro.engine.functions import AggregateFunction, ProcessWindowFunction
from repro.engine.state import BackendFactory, OperatorInfo
from repro.engine.windows import SessionWindowAssigner, WindowAssigner
from repro.errors import PlanError
from repro.rescale.keygroups import DEFAULT_MAX_KEY_GROUPS, validate_parallelism
from repro.simenv import CpuCostModel, SsdCostModel


@dataclass
class LogicalNode:
    """One vertex of the logical plan."""

    node_id: int
    kind: str  # source | map | filter | flat_map | key_by | window | union | sink
    name: str
    params: dict[str, Any] = field(default_factory=dict)
    parents: list["LogicalNode"] = field(default_factory=list)


class DataStream:
    """A handle to a logical node, with transformation methods."""

    def __init__(self, env: "StreamEnvironment", node: LogicalNode) -> None:
        self._env = env
        self._node = node

    @property
    def node(self) -> LogicalNode:
        return self._node

    def _child(self, kind: str, name: str, **params: Any) -> "DataStream":
        node = self._env._add_node(kind, name, parents=[self._node], **params)
        return DataStream(self._env, node)

    def map(self, fn: Callable[[Any], Any], name: str = "map") -> "DataStream":
        """Transform each value."""
        return self._child("map", name, fn=fn)

    def filter(self, predicate: Callable[[Any], bool], name: str = "filter") -> "DataStream":
        """Keep only values where ``predicate`` holds."""
        return self._child("filter", name, fn=predicate)

    def flat_map(
        self, fn: Callable[[Any], Iterable[Any]], name: str = "flat_map"
    ) -> "DataStream":
        """Transform each value into zero or more values."""
        return self._child("flat_map", name, fn=fn)

    def key_by(self, key_fn: Callable[[Any], bytes], name: str = "key_by") -> "DataStream":
        """Partition the stream by ``key_fn(value)`` (must return bytes)."""
        return self._child("key_by", name, fn=key_fn)

    def union(self, *others: "DataStream", name: str = "union") -> "DataStream":
        """Merge this stream with ``others``."""
        node = self._env._add_node(
            "union", name, parents=[self._node] + [o._node for o in others]
        )
        return DataStream(self._env, node)

    def window(self, assigner: WindowAssigner) -> "WindowedStream":
        """Group the keyed stream into windows."""
        return WindowedStream(self._env, self._node, assigner)

    def interval_join(
        self,
        other: "DataStream",
        lower: float,
        upper: float,
        join_fn: Callable[[Any, Any], Any],
        name: str = "interval_join",
    ) -> "DataStream":
        """Join two keyed streams on ``other.ts in [ts+lower, ts+upper]``.

        Both streams must be keyed (by compatible key functions); the
        join emits ``join_fn(left_value, right_value)`` per matching pair
        (§8, Join Operations).
        """
        left = self._child("map", f"{name}/tag_left", fn=lambda v: ("L", v))
        right = other._child("map", f"{name}/tag_right", fn=lambda v: ("R", v))
        merged = left.union(right, name=f"{name}/inputs")
        node = self._env._add_node(
            "interval_join", name, parents=[merged._node],
            lower=float(lower), upper=float(upper), fn=join_fn,
        )
        return DataStream(self._env, node)

    def sink(self, name: str = "sink") -> "DataStream":
        """Terminal collection point; results appear in the job result."""
        return self._child("sink", name)


class WindowedStream:
    """A keyed stream grouped by a window assigner."""

    def __init__(
        self, env: "StreamEnvironment", node: LogicalNode, assigner: WindowAssigner
    ) -> None:
        self._env = env
        self._node = node
        self._assigner = assigner

    def aggregate(
        self, fn: AggregateFunction, name: str = "aggregate", with_window: bool = False
    ) -> DataStream:
        """Incremental aggregation — the RMW access pattern.

        With ``with_window`` the operator emits ``(key, window, result)``
        triples so downstream stages can re-group by window (Q5 shape).
        """
        return self._window_node(fn, name, with_window)

    def process(
        self, fn: ProcessWindowFunction, name: str = "process", with_window: bool = False
    ) -> DataStream:
        """Full-window processing — the Append access pattern."""
        return self._window_node(fn, name, with_window)

    def _window_node(
        self, fn: AggregateFunction | ProcessWindowFunction, name: str, with_window: bool
    ) -> DataStream:
        gap = self._assigner.gap if isinstance(self._assigner, SessionWindowAssigner) else None
        info = OperatorInfo(
            name=name,
            incremental=isinstance(fn, AggregateFunction),
            window_kind=self._assigner.kind,
            session_gap=gap,
            aligned_hint=getattr(self._assigner, "aligned_hint", None),
            ett_predictor=self._assigner.make_predictor(),
            prefetch_depth=self._env.prefetch_depth,
        )
        node = self._env._add_node(
            "window", name, parents=[self._node],
            assigner=self._assigner, fn=fn, info=info, with_window=with_window,
        )
        return DataStream(self._env, node)


class StreamEnvironment:
    """Builds a logical plan and executes it on simulated time.

    Args:
        parallelism: physical instances per window operator (per worker).
        backend_factory: builds one state backend per physical instance;
            see :mod:`repro.bench.backends` for the four paper backends.
        cpu / ssd: cost models shared by all instances.
        workers: number of worker machines (Figure 13 scaling); the
            effective window-operator parallelism is
            ``parallelism * workers``.
        max_key_groups: number of key-groups keyed state is hashed into
            — the unit of ownership for elastic rescaling.  Fixed for
            the lifetime of the job; physical parallelism can never
            exceed it.
        faults: optional :class:`repro.faults.FaultInjector` shared by
            every physical instance's environment (fault injection and
            crash points).
        cluster: optional :class:`repro.cluster.ClusterTopology`.  With a
            cluster, physical instances are placed on simulated nodes
            (round-robin by index) and every cross-node hop — shuffle,
            migration chunk, checkpoint shard — is charged to the
            ``network`` ledger category.  ``None`` (the default) keeps
            the legacy single-machine model, charge-for-charge.
        max_batch_records: records per columnar
            :class:`~repro.engine.batch.RecordBatch` pushed through the
            hot path in throughput mode.  ``1`` (the default) runs the
            exact per-tuple code path; larger batches amortize real
            Python overhead while charging the simulated ledger
            identically per record.  Latency mode (``arrival_rate``)
            always runs per-tuple.
        prefetch_depth: per-instance budget of in-flight background
            state prefetches.  Window operators hint upcoming trigger
            reads (and, on stores whose appends read old state, upcoming
            write cells) so the disk backends overlap state I/O with
            compute.  ``0`` (the default) disables prefetching entirely
            — no hints are computed and charges are bit-identical to a
            build without the subsystem.  Hints are advisory and can
            never change job output.
    """

    def __init__(
        self,
        parallelism: int = 2,
        backend_factory: BackendFactory | None = None,
        cpu: CpuCostModel | None = None,
        ssd: SsdCostModel | None = None,
        workers: int = 1,
        max_key_groups: int = DEFAULT_MAX_KEY_GROUPS,
        faults: Any = None,
        cluster: Any = None,
        max_batch_records: int = 1,
        prefetch_depth: int = 0,
    ) -> None:
        if parallelism < 1 or workers < 1:
            raise PlanError("parallelism and workers must be >= 1")
        if max_batch_records < 1:
            raise PlanError("max_batch_records must be >= 1")
        if prefetch_depth < 0:
            raise PlanError("prefetch_depth must be >= 0")
        self.max_batch_records = max_batch_records
        self.prefetch_depth = prefetch_depth
        self.max_key_groups = max_key_groups
        validate_parallelism(parallelism * workers, max_key_groups)
        self.parallelism = parallelism
        self.workers = workers
        self.cluster = cluster
        self.backend_factory = backend_factory
        self.cpu = cpu or CpuCostModel()
        self.ssd = ssd or SsdCostModel()
        self.faults = faults
        self._nodes: list[LogicalNode] = []
        self._ids = itertools.count()
        self._sources: list[tuple[LogicalNode, Iterable[tuple[Any, float]]]] = []

    def _add_node(
        self, kind: str, name: str, parents: list[LogicalNode] | None = None, **params: Any
    ) -> LogicalNode:
        node_id = next(self._ids)
        if any(existing.name == name for existing in self._nodes):
            name = f"{name}#{node_id}"
        node = LogicalNode(node_id, kind, name, params, parents or [])
        self._nodes.append(node)
        return node

    def from_source(
        self, records: Iterable[tuple[Any, float]], name: str = "source"
    ) -> DataStream:
        """Register a source of ``(value, event_timestamp)`` pairs.

        Multiple sources are merged in timestamp order at execution time.
        """
        node = self._add_node("source", name)
        self._sources.append((node, records))
        return DataStream(self, node)

    # ------------------------------------------------------------------
    def nodes(self) -> list[LogicalNode]:
        return list(self._nodes)

    def sources(self) -> list[tuple[LogicalNode, Iterable[tuple[Any, float]]]]:
        return list(self._sources)

    def validate(self) -> None:
        """Check the plan: every stateful node must be downstream of key_by
        on every input path."""

        def keyed(node: LogicalNode) -> bool:
            if node.kind == "key_by":
                return True
            if node.kind in ("source", "window", "interval_join"):
                return False  # stateful outputs must be re-keyed explicitly
            if not node.parents:
                return False
            return all(keyed(parent) for parent in node.parents)

        for node in self._nodes:
            if node.kind not in ("window", "interval_join"):
                continue
            if not node.parents or not all(keyed(p) for p in node.parents):
                raise PlanError(f"{node.kind} node {node.name} has an unkeyed input")

    def execute(self, **kwargs: Any):
        """Compile and run the job; see :class:`repro.engine.runtime.Executor`."""
        from repro.engine.runtime import Executor

        self.validate()
        return Executor(self).run(**kwargs)
