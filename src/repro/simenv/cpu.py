"""CPU cost menu.

All constants are in simulated seconds and are calibrated to the rough
magnitudes of the operations on a ~3 GHz core (tens to hundreds of
nanoseconds per pointer-chasing step, ~1 ns/byte for memory-bandwidth-bound
byte work).  The absolute values matter less than their *ratios*: every
store is charged from this same menu, so relative throughput between
backends is decided by how many of each operation their algorithms perform.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CpuCostModel:
    """Per-operation CPU costs (seconds) charged to the simulated clock.

    Attributes:
        hash_probe: one hash-table lookup/insert step (hash + bucket walk).
        key_compare: one key comparison during sorted search or merge.
        branch_step: one tree/skiplist pointer hop.
        bloom_check: one bloom-filter membership test.
        copy_per_byte: memcpy-style byte movement in user space.
        serde_per_byte: serialization/deserialization per byte.
        serde_per_record: fixed per-record serialization overhead
            (object header, dispatch).
        merge_per_entry: fixed per-entry overhead of a sorted merge step
            during LSM compaction or multi-way iteration.
        block_decode_per_byte: decoding an on-disk block into memory
            (checksum + restart-point parsing in RocksDB terms).
        sync_op: one synchronization primitive (atomic CAS, epoch
            protection entry/exit).  Charged by the Faster-style store on
            every operation; FlowKV's single-threaded stores never pay it.
        function_call: invoking a user-defined function (virtual dispatch
            plus argument marshalling).
        syscall: fixed cost of crossing the kernel boundary for an I/O
            request (charged as CPU, separate from device time).
        allocation: one heap allocation.
        crc_per_byte: CRC32 checksum computation over snapshot bytes
            (software CRC at a few GB/s; charged to the ``recovery``
            ledger category on checkpoint seal and verify).
    """

    hash_probe: float = 150e-9
    key_compare: float = 75e-9
    branch_step: float = 60e-9
    bloom_check: float = 120e-9
    copy_per_byte: float = 0.25e-9
    serde_per_byte: float = 1.0e-9
    serde_per_record: float = 200e-9
    merge_per_entry: float = 300e-9
    block_decode_per_byte: float = 0.5e-9
    sync_op: float = 500e-9
    function_call: float = 120e-9
    syscall: float = 1.5e-6
    allocation: float = 80e-9
    crc_per_byte: float = 0.4e-9

    def sorted_search(self, n_entries: int) -> float:
        """Cost of a binary search over ``n_entries`` sorted entries."""
        if n_entries <= 1:
            return self.key_compare
        return n_entries.bit_length() * self.key_compare

    def serde(self, n_bytes: int, n_records: int = 1) -> float:
        """Cost of (de)serializing ``n_records`` totalling ``n_bytes``."""
        return n_bytes * self.serde_per_byte + n_records * self.serde_per_record
