"""Golden ledger: absolute simulated charges pinned to a committed file.

Every other ledger test compares two runs with each other (batch sizes,
prefetch depth 0 vs off, one-node cluster vs none), so a change that
moves *every* run by the same amount passes them all.  This module pins
the absolute numbers instead: for a small matrix of tiny-stream cells it
compares each ledger float bit for bit (as ``float.hex``), every byte,
request and counter value, and the output digest, against
``charge_ledger_golden.json``.

The golden file is written once, at the commit *before* a refactor of
the charge path, and is never regenerated to absorb a change: a mismatch
means simulated results moved.  ``python tests/test_charge_ledger_golden.py
--write`` (with ``PYTHONPATH=src``) writes it.

Cells: Q5, Q7 and Q11-Median on the four backends at batch 1 and 256;
Q7 on the two disk backends with ``prefetch_depth=2`` (charges booked
through the prefetch capture box); one 2-node cluster cell (charges
booked to ``network``).
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench.harness import RunRecord, run_query
from repro.bench.profiles import TINY_PROFILE
from repro.cluster import ClusterTopology
from repro.simenv import CAT_NETWORK, CAT_PREFETCH

GOLDEN = Path(__file__).with_name("charge_ledger_golden.json")

# Roomy heap so the naive in-heap backend finishes every cell; half the
# tiny profile's stream keeps the 27 cells quick.
PROFILE = replace(TINY_PROFILE, heap_total_bytes=16 << 20, duration=100.0)
WINDOW = TINY_PROFILE.window_sizes[0]
BACKENDS = ("flowkv", "rocksdb", "faster", "memory")


def _cells() -> dict[str, dict]:
    cells: dict[str, dict] = {}
    for query in ("q5", "q7", "q11-median"):
        for backend in BACKENDS:
            for batch in (1, 256):
                cells[f"{query}/{backend}/batch{batch}"] = dict(
                    query=query, backend=backend, batch_records=batch
                )
    for backend in ("rocksdb", "faster"):
        # Batch 16 is where the tiny stream's Q7 triggers read from disk,
        # so hints turn into captured background reads.
        cells[f"q7/{backend}/batch16/prefetch2"] = dict(
            query="q7", backend=backend, batch_records=16, prefetch_depth=2
        )
    cells["q11-median/flowkv/batch1/nodes2"] = dict(
        query="q11-median", backend="flowkv", batch_records=1, nodes=2
    )
    return cells


CELLS = _cells()


def _run(spec: dict) -> RunRecord:
    spec = dict(spec)
    nodes = spec.pop("nodes", None)
    cluster = ClusterTopology.uniform(nodes) if nodes else None
    record = run_query(PROFILE, spec.pop("query"), spec.pop("backend"), WINDOW,
                       cluster=cluster, **spec)
    assert record.ok, record.failure
    return record


def _observe(record: RunRecord) -> dict:
    metrics = record.metrics
    return {
        "cpu_seconds": {cat: metrics.cpu_seconds[cat].hex()
                        for cat in sorted(metrics.cpu_seconds)},
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
        "job_seconds": record.job_seconds,
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_cell(golden):
    assert sorted(golden) == sorted(CELLS)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_ledger_matches_golden(cell, golden):
    observed = _observe(_run(CELLS[cell]))
    expected = dict(golden[cell])
    # job_seconds is a max/sum over per-instance clocks; Python 3.12's
    # float sum() is compensated while 3.10/3.11 add naively, so the
    # same charges can round differently in the last bits.
    assert observed.pop("job_seconds") == pytest.approx(
        expected.pop("job_seconds"), rel=1e-12
    )
    assert observed == expected


def test_special_cells_reach_their_branches(golden):
    # The pins are only worth having if the capture and network
    # branches actually booked something.
    for backend in ("rocksdb", "faster"):
        cell = golden[f"q7/{backend}/batch16/prefetch2"]
        assert float.fromhex(cell["cpu_seconds"][CAT_PREFETCH]) > 0.0
    cluster = golden["q11-median/flowkv/batch1/nodes2"]
    assert float.fromhex(cluster["cpu_seconds"][CAT_NETWORK]) > 0.0
    assert cluster["counters"]["net_bytes"] > 0


def _write() -> None:
    golden = {cell: _observe(_run(spec)) for cell, spec in sorted(CELLS.items())}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    _write()
