"""A tour of the three FlowKV store APIs (Listing 1 of the paper).

Uses the stores directly — no stream engine — to show how each pattern's
API and data layout work:

* AAR: ``append(k, v, w)`` + ``get_window(w)`` with per-window log files
  and gradual loading,
* AUR: ``append(k, v, w, t)`` + ``get(k, w)`` with the ETT Stat table and
  predictive batch read,
* RMW: ``get(k, w)`` / ``put(k, w, a)`` hash-buffered aggregates,
* and the generic KV stores' two batch calls: ``multi_append`` is the
  one append body (``append`` is a batch of one), ``write_batch()``
  stages ops and commits them atomically in one store call.

Run:  python examples/store_api_tour.py
"""

from __future__ import annotations

from repro.core.aar import AarStore
from repro.core.aur import AurStore
from repro.core.ett import SessionGapPredictor
from repro.core.rmw import RmwStore
from repro.kvstores.lsm import LsmConfig, LsmStore
from repro.model import Window
from repro.simenv import SimEnv
from repro.storage import SimFileSystem


def tour_aar() -> None:
    print("=== AAR store: append & aligned read ===")
    env = SimEnv()
    fs = SimFileSystem(env)
    store = AarStore(env, fs, "aar", write_buffer_bytes=1 << 10)
    window = Window(0.0, 60.0)
    for i in range(100):
        store.append(f"user{i % 5}".encode(), f"event-{i}".encode(), window)
    print(f"  on-disk files (one per window): {fs.list_files('aar/')}")
    partitions = 0
    tuples = 0
    for key, values in store.get_window(window):  # gradual loading
        partitions += 1
        tuples += len(values)
    print(f"  GetWindow returned {tuples} tuples in {partitions} partitions")
    print(f"  files after read (delete-after-read): {fs.list_files('aar/')}")
    print(f"  simulated cost: {env.now * 1e6:.1f} us\n")


def tour_aur() -> None:
    print("=== AUR store: append & unaligned read ===")
    env = SimEnv()
    fs = SimFileSystem(env)
    store = AurStore(
        env, fs, SessionGapPredictor(gap=10.0), "aur",
        write_buffer_bytes=1 << 10, read_batch_ratio=0.5,
    )
    # Ten users, each with one session starting at a different time.
    for user in range(10):
        window = Window(user * 5.0, user * 5.0 + 10.0)
        for j in range(20):
            ts = user * 5.0 + j * 0.1
            store.append(f"user{user}".encode(), f"e{j}".encode(), window, ts)
    store.flush()
    print(f"  on-disk: {fs.list_files('aur/')}")
    first = store.get(b"user0", Window(0.0, 10.0))
    print(f"  Get(user0) -> {len(first)} values "
          f"(miss: triggered an index scan + predictive batch read)")
    second = store.get(b"user1", Window(5.0, 15.0))
    print(f"  Get(user1) -> {len(second)} values "
          f"(prefetch {'HIT' if store.prefetch_stats.hits else 'miss'})")
    stats = store.prefetch_stats
    print(f"  prefetch: {stats.loads} loaded, {stats.hits} hit, "
          f"{stats.index_scans} index scans\n")


def tour_rmw() -> None:
    print("=== RMW store: read-modify-write ===")
    env = SimEnv()
    fs = SimFileSystem(env)
    store = RmwStore(env, fs, "rmw", write_buffer_bytes=1 << 10)
    window = Window(0.0, 3600.0)
    for i in range(1000):
        key = f"counter{i % 50}".encode()
        current = store.get(key, window)
        count = int.from_bytes(current, "little") if current else 0
        store.put(key, window, (count + 1).to_bytes(8, "little"))
    total = 0
    for i in range(50):
        value = store.remove(f"counter{i}".encode(), window)
        total += int.from_bytes(value, "little")
    print(f"  1000 increments across 50 counters -> sum {total}")
    print(f"  spilled log files: {fs.list_files('rmw/')}")
    print(f"  simulated cost: {env.now * 1e6:.1f} us "
          f"(no synchronization charges: single-threaded by design)")


def tour_batch() -> None:
    print("\n=== Batch API: multi_append / write_batch ===")
    env = SimEnv()
    fs = SimFileSystem(env)
    store = LsmStore(env, fs, "lsm", LsmConfig(write_buffer_bytes=4 << 10))

    # multi_append: one call, per-entry simulated charges unchanged —
    # batching amortizes real Python overhead, never simulated cost.
    store.multi_append([(f"user{i % 3}".encode(), f"e{i}".encode())
                        for i in range(30)])
    store.append(b"user0", b"e30")  # the same body, as a batch of one
    values = [store.get(key) for key in (b"user0", b"user1", b"nobody")]
    print(f"  get -> {[len(v) if v else None for v in values]} bytes")

    # write_batch: accumulate-then-commit.  Nothing reaches the store
    # until commit(); an exception inside the block discards everything.
    with store.write_batch() as batch:
        batch.put(b"config", b"v2")
        batch.append(b"user0", b"late-event")
        batch.delete(b"user2")
    print(f"  after commit: config={store.get(b'config')}, "
          f"user2={store.get(b'user2')}")


if __name__ == "__main__":
    tour_aar()
    tour_aur()
    tour_rmw()
    tour_batch()
