"""Damaged state-store writes reach the reader unmasked.

An SSTable reader keeps the entries its writer just encoded, so a block
is parsed at most once on the host.  That is only sound when the bytes
on the device are the bytes that were encoded: a torn or bit-flipped
write must be read back exactly as an entry-by-entry decode of the
damaged file reads it.  These tests pin the outcome of faulted runs.

The pinned outcomes were recorded on the store before any decoded entry
was kept, so they are what decoding every block from the device yields.
Each fault's ``on_io`` ordinal was chosen by a dry run that listed the
run's device writes: every fault lands on an SSTable write (rocksdb) or
a hybrid-log spill (faster), and for the rocksdb bit flips on a write
whose damage changes the outcome for at least one seed.

``FAULT_SEED`` picks the tear length and flipped bit; outcomes are pinned
for the three seeds the fault matrix runs.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.harness import run_query
from repro.bench.profiles import TINY_PROFILE
from repro.faults import FaultPlan
from repro.kvstores.lsm import LsmConfig, LsmStore
from repro.kvstores.lsm.sstable import SSTableReader
from repro.simenv import SimEnv
from repro.storage import SimFileSystem

FAULT_SEED = int(os.environ.get("FAULT_SEED", "7"))
WINDOW_SIZE = 10.0  # the smallest window at which q5 on faster spills its log

# Every device write of these runs lands under the query's state store.
STORE_PREFIX = {"q5": "count_per_auction/", "q7": "max_bid/"}

Q5_CLEAN = "5490eb15b58f13479b2d0bd6736716ebe72409b804dc65b7c10e263d2fb3fb35"
Q7_CLEAN = "adc57db5986490db0d9d904dff6a797a1cad628b2088ae038116a2b7db2be24b"
Q7_FLIPPED = "848df9986bf235aa36d2a605e01ced69336c7f18a2f9318d39f9b51f708e13cf"
RAISED = ("raised", "StoreError")

# (query, backend, fault) -> (on_io, {seed: outcome})
PINS = {
    ("q5", "rocksdb", "bit_flip"): (7, {
        7: RAISED, 23: ("ok", Q5_CLEAN, None), 101: ("ok", Q5_CLEAN, None),
    }),
    ("q5", "rocksdb", "torn_write"): (1, {7: RAISED, 23: RAISED, 101: RAISED}),
    ("q5", "faster", "bit_flip"): (1, {seed: ("ok", Q5_CLEAN, None) for seed in (7, 23, 101)}),
    ("q5", "faster", "torn_write"): (1, {seed: ("ok", Q5_CLEAN, None) for seed in (7, 23, 101)}),
    ("q7", "rocksdb", "bit_flip"): (1, {
        7: ("ok", Q7_FLIPPED, None), 23: RAISED, 101: ("ok", Q7_CLEAN, None),
    }),
    ("q7", "rocksdb", "torn_write"): (1, {7: RAISED, 23: RAISED, 101: RAISED}),
    ("q7", "faster", "bit_flip"): (1, {seed: ("ok", Q7_CLEAN, None) for seed in (7, 23, 101)}),
    ("q7", "faster", "torn_write"): (1, {seed: ("ok", Q7_CLEAN, None) for seed in (7, 23, 101)}),
}


@pytest.mark.parametrize("case", sorted(PINS), ids="/".join)
def test_faulted_run_matches_pin(case):
    query, backend, fault = case
    on_io, outcomes = PINS[case]
    if FAULT_SEED not in outcomes:
        pytest.skip(f"outcomes are pinned for FAULT_SEED in {sorted(outcomes)}")
    plan = getattr(FaultPlan(seed=FAULT_SEED), fault)(
        on_io=on_io, path_prefix=STORE_PREFIX[query]
    )
    try:
        record = run_query(
            TINY_PROFILE, query, backend, WINDOW_SIZE, batch_records=16, fault_plan=plan
        )
        got = ("ok", record.output_hash, record.failure)
    except Exception as exc:  # a deterministic decode failure is an outcome
        got = ("raised", type(exc).__name__)
    assert plan.disk_faults[0].fired == 1  # the fault landed on a store write
    assert got == outcomes[FAULT_SEED]


def test_flipped_flush_is_read_back_flipped():
    """A bit flip on a flushed table's write shows in a point read.

    Seed 3 flips a bit inside the value's bytes, so the store must return
    the damaged value — the one a fresh reader decodes from the file —
    not the value that was put.
    """
    env = SimEnv(faults=FaultPlan(seed=3).bit_flip(on_io=1).build())
    fs = SimFileSystem(env)
    store = LsmStore(env, fs, config=LsmConfig(write_buffer_bytes=1 << 20))
    key, value = b"key", bytes(range(256)) * 8
    store.put(key, value)
    store.flush()
    (record,) = env.faults.fired
    assert record.kind == "bitflip"
    (table,) = fs.list_files("lsm/")
    from_disk = SSTableReader(env, fs, table).get_versions(key)
    assert len(from_disk) == 1
    damaged = from_disk[0].value
    assert damaged != value and len(damaged) == len(value)
    assert store.get(key) == damaged
