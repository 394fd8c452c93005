"""Integration: every query produces identical results on all four
backends, with state spilling to the (simulated) disk.

This is the core correctness claim behind the benchmark harness — the
stores differ only in cost, never in answers.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.backends import faster_backend, flowkv_backend, memory_backend, rocksdb_backend
from repro.core import FlowKVConfig
from repro.kvstores.hashkv import FasterConfig
from repro.kvstores.lsm import LsmConfig
from repro.nexmark import GeneratorConfig, QUERIES, build_query
from repro.nexmark.serde import NexmarkSerde

# Tiny buffers force disk paths (flush, compaction, prefetch) everywhere.
GEN = GeneratorConfig(events_per_second=80.0, duration=250.0, seed=99)
WINDOW = 50.0

SERDE = NexmarkSerde()
FACTORIES = {
    "memory": memory_backend(capacity_bytes=64 << 20),
    "flowkv": flowkv_backend(
        FlowKVConfig(
            write_buffer_bytes=8 << 10,
            data_segment_bytes=32 << 10,
            prefetch_buffer_bytes=64 << 10,
            read_batch_ratio=0.3,
            max_space_amplification=1.3,
        ),
        serde=SERDE,
    ),
    "rocksdb": rocksdb_backend(
        LsmConfig(
            write_buffer_bytes=8 << 10,
            block_cache_bytes=32 << 10,
            level1_bytes=64 << 10,
            max_file_bytes=16 << 10,
        ),
        serde=SERDE,
    ),
    "faster": faster_backend(FasterConfig(memory_log_bytes=16 << 10), serde=SERDE),
}


def run(query: str, backend: str):
    env = build_query(query, FACTORIES[backend], GEN, WINDOW, parallelism=2)
    return env.execute()


@pytest.mark.parametrize("query", sorted(QUERIES))
def test_all_backends_agree(query):
    reference = None
    for backend in FACTORIES:
        result = run(query, backend)
        assert result.failure is None, (query, backend, result.failure)
        outputs = Counter(map(str, result.sink_outputs["results"]))
        if reference is None:
            reference = outputs
        else:
            assert outputs == reference, (query, backend)


@pytest.mark.parametrize("query", ["q7", "q11", "q11-median"])
def test_results_nonempty(query):
    result = run(query, "memory")
    assert len(result.sink_outputs["results"]) > 0


def test_flowkv_uses_disk_under_pressure():
    result = run("q7", "flowkv")
    # AAR per-window files are deleted after reads, so check I/O happened.
    assert result.metrics.bytes_written > 0


def test_persistent_backends_flush_to_disk():
    for backend in ("rocksdb", "faster"):
        result = run("q7", backend)
        assert result.metrics.bytes_written > 0, backend
