"""Golden ledger of the state-movement paths: rescale, checkpoint, recovery.

Checkpoint, restore, node failover, standby promotion and live or
stop-the-world rescale are otherwise guarded only by *relative*
equalities (a recovered run's digest equals an uninterrupted run's), so
a change that shifts every one of them by the same simulated amount
passes every other test.  This module pins the absolute numbers of a
small matrix of tiny-stream cells against ``state_movement_golden.json``:
each ledger float bit for bit (as ``float.hex``), every byte, request and
counter value, the output digest, and every field of every
``RescaleEvent`` (per-node reports and group cutovers included),
``RecoveryEvent`` and ``CheckpointStat``.

The golden file is written once, at the commit *before* a refactor of
the state-movement code, and is never regenerated to absorb a change: a
mismatch means simulated results moved.  ``python
tests/test_state_movement_ledger.py --write`` (with ``PYTHONPATH=src``)
writes it.

Cells: Q11-Median on flowkv and rocksdb through a checkpoint-seeded live
2->4 rescale plus a crash, a stop-the-world 4->2 rescale over whole-store
checkpoints plus a crash, a live and a stop-the-world mid-migration fault
that rolls back, and a 4-node node kill recovered by checkpoint restore
and by standby promotion; flowkv with ``rescale_mode="promote"``; a
Q8-Interval live rescale plus a crash (join state); a Q7 Zipf(1.5)
skew split on two nodes (the split seeds from checkpoints too).
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench.harness import RunRecord, run_query
from repro.bench.profiles import TINY_PROFILE
from repro.cluster import ClusterTopology
from repro.faults import (
    CRASH_MIGRATE_IMPORT,
    CRASH_RUNTIME_RECORD,
    FaultPlan,
)
from repro.rescale import SkewController

GOLDEN = Path(__file__).with_name("state_movement_golden.json")

# Half the tiny profile's stream: 2936 input records per Q11/Q8 cell.
PROFILE = replace(TINY_PROFILE, duration=100.0)
WINDOW = TINY_PROFILE.window_sizes[0]
N_RECORDS = 2936
# A fixed fault seed: the golden numbers must not follow FAULT_SEED.
SEED = 7
NODES = 4
DEAD_NODE = 2

HALF = N_RECORDS // 2
CRASH_AT = (4 * N_RECORDS) // 5
# Cut points of tests/test_failover.py: a kill at 7/10 of the stream with
# a checkpoint every quarter promotes instead of degrading.
QUARTER = N_RECORDS // 4
KILL_AT = (7 * N_RECORDS) // 10


def _crash() -> FaultPlan:
    return FaultPlan(seed=SEED).crash(CRASH_RUNTIME_RECORD, on_hit=CRASH_AT)


def _cells() -> dict[str, dict]:
    cells: dict[str, dict] = {}
    for backend in ("flowkv", "rocksdb"):
        q11 = dict(query="q11-median", backend=backend)
        cells[f"q11-median/{backend}/live-seeded-crash"] = dict(
            q11, parallelism=2, rescale_schedule={HALF: 4}, rescale_mode="live",
            checkpoint_interval=PROFILE.watermark_interval, fault_plan=_crash,
        )
        cells[f"q11-median/{backend}/stw-full-crash"] = dict(
            q11, parallelism=4, rescale_schedule={HALF: 2}, rescale_mode="stw",
            checkpoint_interval=QUARTER, incremental_checkpoints=False,
            fault_plan=_crash,
        )
        cells[f"q11-median/{backend}/live-rollback"] = dict(
            q11, parallelism=2, rescale_schedule={HALF: 4}, rescale_mode="live",
            fault_plan=lambda: FaultPlan(seed=SEED).crash(
                CRASH_MIGRATE_IMPORT, on_hit=40
            ),
        )
        cells[f"q11-median/{backend}/stw-rollback"] = dict(
            q11, parallelism=2, rescale_schedule={HALF: 4}, rescale_mode="stw",
            fault_plan=lambda: FaultPlan(seed=SEED).crash(
                CRASH_MIGRATE_IMPORT, on_hit=2
            ),
        )
        for mode in ("restore", "standby"):
            cells[f"q11-median/{backend}/nodes4-kill-{mode}"] = dict(
                q11, parallelism=NODES, workers=1, nodes=NODES,
                checkpoint_interval=QUARTER, recovery_mode=mode,
                fault_plan=lambda: FaultPlan(seed=SEED).kill_node(
                    DEAD_NODE, on_hit=KILL_AT
                ),
            )
    cells["q11-median/flowkv/nodes4-promote-rescale"] = dict(
        query="q11-median", backend="flowkv", parallelism=NODES, workers=1,
        nodes=NODES, checkpoint_interval=QUARTER, recovery_mode="standby",
        rescale_schedule={HALF: 2}, rescale_mode="promote",
    )
    cells["q8-interval/flowkv/live-seeded-crash"] = dict(
        query="q8-interval", backend="flowkv", parallelism=2,
        rescale_schedule={HALF: 4}, rescale_mode="live",
        checkpoint_interval=PROFILE.watermark_interval, fault_plan=_crash,
    )
    # The split fires only on the tiny profile's whole stream.
    cells["q7/flowkv/nodes2-zipf-skew-split"] = dict(
        query="q7", backend="flowkv", parallelism=4, nodes=2,
        duration=TINY_PROFILE.duration,
        checkpoint_interval=PROFILE.watermark_interval,
        generator_overrides={"bidder_zipf": 1.5},
        rescale_policy=lambda: SkewController(
            imbalance_threshold=1.5, patience=3, cooldown=10
        ),
    )
    return cells


CELLS = _cells()


def _run(spec: dict) -> RunRecord:
    spec = dict(spec)
    nodes = spec.pop("nodes", None)
    # Fault plans and policies are stateful once used: build fresh ones.
    for name in ("fault_plan", "rescale_policy"):
        if name in spec:
            spec[name] = spec[name]()
    record = run_query(
        PROFILE, spec.pop("query"), spec.pop("backend"), WINDOW,
        cluster=ClusterTopology.uniform(nodes) if nodes else None, **spec,
    )
    assert record.ok, record.failure
    return record


def _pinned(value):
    """Floats as ``float.hex`` (bit-exact), containers recursively."""
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return {f.name: _pinned(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _pinned(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_pinned(v) for v in value]
    return value


def _observe(record: RunRecord) -> dict:
    metrics = record.metrics
    return {
        "cpu_seconds": _pinned(metrics.cpu_seconds),
        "io_wait_seconds": metrics.io_wait_seconds.hex(),
        "prefetch_wait_seconds": metrics.prefetch_wait_seconds.hex(),
        "bytes_read": metrics.bytes_read,
        "bytes_written": metrics.bytes_written,
        "read_requests": metrics.read_requests,
        "write_requests": metrics.write_requests,
        "counters": dict(sorted(metrics.counters.items())),
        "input_records": record.input_records,
        "results": record.results,
        "output_hash": record.output_hash,
        "rescales": [
            dict(_pinned(event), seeded_groups=event.seeded_groups,
                 seeded_bytes=event.seeded_bytes,
                 bytes_moved=event.bytes_moved,
                 entries_moved=event.entries_moved,
                 downtime_seconds=_pinned(event.downtime_seconds))
            for event in record.rescales
        ],
        "recoveries": _pinned(record.recoveries),
        "checkpoint_stats": _pinned(record.checkpoint_stats),
        "job_seconds": record.job_seconds,
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_cell(golden):
    assert sorted(golden) == sorted(CELLS)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_state_movement_matches_golden(cell, golden):
    observed = _observe(_run(CELLS[cell]))
    expected = dict(golden[cell])
    # job_seconds is a max/sum over per-instance clocks; Python 3.12's
    # float sum() is compensated while 3.10/3.11 add naively, so the
    # same charges can round differently in the last bits.
    assert observed.pop("job_seconds") == pytest.approx(
        expected.pop("job_seconds"), rel=1e-12
    )
    assert observed == expected


def _kinds(cell: dict) -> list[str]:
    return [event["kind"] for event in cell["recoveries"]]


def test_cells_reach_their_branches(golden):
    # The pins are only worth having if every cell took the path its
    # name promises.
    for backend in ("flowkv", "rocksdb"):
        prefix = f"q11-median/{backend}"
        for name in ("live-seeded-crash", "stw-full-crash"):
            cell = golden[f"{prefix}/{name}"]
            assert "crash" in _kinds(cell) and "restore" in _kinds(cell)
            assert cell["rescales"] and cell["checkpoint_stats"]
        seeded = golden[f"{prefix}/live-seeded-crash"]
        assert any(event["seeded_groups"] > 0 for event in seeded["rescales"])
        full = golden[f"{prefix}/stw-full-crash"]
        assert all(stat["full"] for stat in full["checkpoint_stats"])
        live = golden[f"{prefix}/live-rollback"]["rescales"]
        assert [event["aborted"] for event in live] == [True]
        assert live[0]["rolled_back_groups"] > 0 and live[0]["cutovers"]
        stw = golden[f"{prefix}/stw-rollback"]["rescales"]
        assert [(e["aborted"], e["mode"]) for e in stw] == [(True, "stw")]
        restore = _kinds(golden[f"{prefix}/nodes4-kill-restore"])
        assert "node_failure" in restore and "restore" in restore
        promote = _kinds(golden[f"{prefix}/nodes4-kill-standby"])
        assert "promote" in promote and "degraded" not in promote
    promoted = golden["q11-median/flowkv/nodes4-promote-rescale"]["rescales"]
    assert promoted and promoted[0]["seeded_groups"] > 0
    join = golden["q8-interval/flowkv/live-seeded-crash"]
    assert "restore" in _kinds(join) and join["rescales"]
    split = golden["q7/flowkv/nodes2-zipf-skew-split"]["rescales"]
    assert any(event["reason"] == "skew-split" for event in split)
    assert any(event["seeded_groups"] > 0 for event in split)


def _write() -> None:
    golden = {cell: _observe(_run(spec)) for cell, spec in sorted(CELLS.items())}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    _write()
