"""In-memory simulated filesystem with SSD-charged access.

Semantics intentionally mirror the subset of POSIX the stores need:
append-only writes, positional reads, delete, rename, and a
``zero_copy_transfer`` that models ``sendfile``-style kernel-side copies
(the paper's AUR compaction uses zero-copy byte transfer, §5).
"""

from __future__ import annotations

from repro.errors import (
    FileExistsInStoreError,
    FileNotFoundInStoreError,
    FileSystemError,
)
from repro.simenv import CAT_STORE_READ, CAT_STORE_WRITE, SimEnv


class SimFileSystem:
    """A flat namespace of append-only files backed by ``bytearray``.

    Every read/write charges the owning environment:

    * one ``syscall`` CPU charge per request,
    * device time per the SSD cost model,
    * user-space copy CPU per byte (except zero-copy transfers).

    CPU charges land in the category passed by the caller so that reads
    issued by compaction are booked as compaction, etc.
    """

    def __init__(self, env: SimEnv) -> None:
        self._env = env
        self._files: dict[str, bytearray] = {}

    # ------------------------------------------------------------------
    # namespace operations (metadata only: charged as a syscall)
    # ------------------------------------------------------------------
    def create(self, name: str) -> None:
        """Create an empty file; error if it already exists."""
        if name in self._files:
            raise FileExistsInStoreError(name)
        self._charge_syscall(CAT_STORE_WRITE)
        self._files[name] = bytearray()

    def exists(self, name: str) -> bool:
        return name in self._files

    def delete(self, name: str) -> None:
        if name not in self._files:
            raise FileNotFoundInStoreError(name)
        self._charge_syscall(CAT_STORE_WRITE)
        del self._files[name]

    def rename(self, old: str, new: str) -> None:
        """POSIX ``rename(2)``: atomically replace ``new`` if it exists.

        Atomic replacement is what makes the write-temp-then-rename
        checkpoint commit protocol safe: observers see either the old
        file or the new one, never a partial mix.
        """
        if old not in self._files:
            raise FileNotFoundInStoreError(old)
        self._charge_syscall(CAT_STORE_WRITE)
        self._files[new] = self._files.pop(old)

    def list_files(self, prefix: str = "") -> list[str]:
        return sorted(name for name in self._files if name.startswith(prefix))

    def size(self, name: str) -> int:
        try:
            return len(self._files[name])
        except KeyError:
            raise FileNotFoundInStoreError(name) from None

    def holds(self, name: str, offset: int, data: bytes) -> bool:
        """Whether ``name`` stores exactly ``data`` at ``offset``.

        A host-side check, not an I/O: uncharged and unseen by the fault
        layer.  A writer uses it to learn whether its bytes reached the
        file unmutated (an injected torn write or bit flip alters them).
        """
        buf = self._files.get(name)
        return buf is not None and buf[offset : offset + len(data)] == data

    def total_bytes(self, prefix: str = "") -> int:
        """Total bytes stored under ``prefix`` (space-amplification checks)."""
        return sum(len(data) for name, data in self._files.items() if name.startswith(prefix))

    # ------------------------------------------------------------------
    # data operations
    # ------------------------------------------------------------------
    def append(self, name: str, data: bytes, category: str = CAT_STORE_WRITE) -> int:
        """Append ``data``; returns the offset at which it was written.

        Creates the file if it does not exist (log files are created lazily
        on first write, like O_CREAT|O_APPEND).
        """
        if self._env.faults is not None:
            # May raise DiskIOError (nothing written) or silently tear /
            # bit-flip the payload (written as mutated, charged as such).
            data = self._env.faults.on_write(name, data, self._env.now)
        buf = self._files.get(name)
        if buf is None:
            buf = bytearray()
            self._files[name] = buf
        offset = len(buf)
        self._charge_syscall(category)
        self._env.charge_cpu(category, len(data) * self._env.cpu.copy_per_byte)
        self._env.charge_write(len(data))
        if len(buf) + len(data) > self._env.ssd.capacity_bytes:
            raise FileSystemError(f"device full writing {name}")
        buf.extend(data)
        return offset

    def read(
        self, name: str, offset: int = 0, length: int | None = None, category: str = CAT_STORE_READ
    ) -> bytes:
        """Read ``length`` bytes at ``offset`` (to EOF if ``length`` is None)."""
        try:
            buf = self._files[name]
        except KeyError:
            raise FileNotFoundInStoreError(name) from None
        if self._env.faults is not None:
            self._env.faults.on_read(name, self._env.now)
        if offset < 0 or offset > len(buf):
            raise FileSystemError(f"read offset {offset} out of range for {name} ({len(buf)}B)")
        end = len(buf) if length is None else min(offset + length, len(buf))
        data = bytes(buf[offset:end])
        self._charge_syscall(category)
        self._env.charge_cpu(category, len(data) * self._env.cpu.copy_per_byte)
        self._env.charge_read(len(data))
        return data

    def zero_copy_transfer(
        self,
        src: str,
        src_offset: int,
        length: int,
        dst: str,
        category: str = CAT_STORE_WRITE,
    ) -> int:
        """Kernel-side copy of a byte range from ``src`` to the end of ``dst``.

        Charges device read + write time but *no* user-space copy CPU,
        modelling ``sendfile`` as used by the AUR store's compaction (§5).
        Returns the destination offset.
        """
        try:
            src_buf = self._files[src]
        except KeyError:
            raise FileNotFoundInStoreError(src) from None
        if src_offset < 0 or src_offset + length > len(src_buf):
            raise FileSystemError(
                f"zero-copy range [{src_offset}, {src_offset + length}) out of bounds for {src}"
            )
        dst_buf = self._files.get(dst)
        if dst_buf is None:
            dst_buf = bytearray()
            self._files[dst] = dst_buf
        offset = len(dst_buf)
        self._charge_syscall(category)
        self._env.charge_read(length)
        self._env.charge_write(length)
        dst_buf.extend(src_buf[src_offset : src_offset + length])
        return offset

    # ------------------------------------------------------------------
    # damage helpers (tests and fault tooling only: uncharged)
    # ------------------------------------------------------------------
    def corrupt(self, name: str, offset: int, xor_mask: int = 0xFF) -> None:
        """Flip bits of one byte in place, as latent media corruption would."""
        try:
            buf = self._files[name]
        except KeyError:
            raise FileNotFoundInStoreError(name) from None
        if not 0 <= offset < len(buf):
            raise FileSystemError(f"corrupt offset {offset} out of range for {name}")
        buf[offset] ^= xor_mask & 0xFF

    def truncate(self, name: str, length: int) -> None:
        """Drop the file's tail beyond ``length`` bytes (a torn write)."""
        try:
            buf = self._files[name]
        except KeyError:
            raise FileNotFoundInStoreError(name) from None
        del buf[length:]

    def _charge_syscall(self, category: str) -> None:
        self._env.charge_cpu(category, self._env.cpu.syscall)
