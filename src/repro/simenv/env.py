"""The simulation environment facade.

A :class:`SimEnv` is owned by one physical operator instance (the paper
gives each physical window operator its own store instances and a
single-threaded worker).  All charges — CPU by category, device reads and
writes — advance the instance's clock and are recorded in its ledger.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.simenv.clock import SimClock
from repro.simenv.cpu import CpuCostModel
from repro.simenv.disk import SsdCostModel
from repro.simenv.metrics import CAT_NETWORK, CAT_PREFETCH, MetricsLedger, _unknown_category


def scaled_cost_models(
    factor: float,
    cpu: CpuCostModel | None = None,
    ssd: SsdCostModel | None = None,
) -> tuple[CpuCostModel, SsdCostModel]:
    """Uniformly slow both cost models down by ``factor``.

    Multiplying every CPU cost and dividing device bandwidth by the same
    factor is equivalent to running the identical system on a
    proportionally slower machine: absolute times change, relative
    behaviour between backends does not.  Latency sweeps use this to
    bring simulated capacity into the range of tractable arrival rates.
    """
    cpu = cpu or CpuCostModel()
    ssd = ssd or SsdCostModel()
    scaled_cpu = dataclasses.replace(
        cpu,
        **{
            f.name: getattr(cpu, f.name) * factor
            for f in dataclasses.fields(cpu)
        },
    )
    scaled_ssd = dataclasses.replace(
        ssd,
        read_bandwidth=ssd.read_bandwidth / factor,
        write_bandwidth=ssd.write_bandwidth / factor,
        request_latency=ssd.request_latency * factor,
    )
    return scaled_cpu, scaled_ssd


@dataclass
class SimEnv:
    """Bundles the simulated clock, cost models and metrics ledger.

    Attributes:
        clock: the instance's simulated clock (busy time).
        cpu: CPU cost menu shared by all stores on this instance.
        ssd: SSD device cost model.
        ledger: where charges are attributed.
        faults: optional :class:`repro.faults.FaultInjector` consulted by
            the filesystem on every device I/O and by instrumented crash
            points; shared (not forked) across a job's instances so I/O
            ordinals are global.
    """

    clock: SimClock = field(default_factory=SimClock)
    cpu: CpuCostModel = field(default_factory=CpuCostModel)
    ssd: SsdCostModel = field(default_factory=SsdCostModel)
    ledger: MetricsLedger = field(default_factory=MetricsLedger)
    faults: object | None = None
    # Active prefetch capture box (``[accumulated_seconds]``) or None.
    # While set, charges book to the ``prefetch`` category without
    # advancing the clock — they model background work whose cost is
    # overlapped with foreground CPU (see ``prefetch_capture``).
    _prefetch_capture: list | None = field(default=None, repr=False, compare=False)

    @property
    def now(self) -> float:
        return self.clock.now

    def charge_cpu(self, category: str, seconds: float) -> None:
        """Charge CPU time: advances the clock and books the category.

        One frame, one float add each to the category and the clock; a
        rejected charge changes nothing (DESIGN.md, "The charge path").
        """
        if seconds <= 0.0:
            if seconds == 0.0:
                return
            raise ValueError(f"negative CPU charge: {seconds}")
        if self._prefetch_capture is None:
            try:
                self.ledger.cpu_seconds[category] += seconds
            except KeyError:
                raise _unknown_category(category) from None
            self.clock.now += seconds
            return
        if category not in self.ledger.cpu_seconds:
            raise _unknown_category(category)
        self._prefetch_capture[0] += seconds
        self.ledger.add_cpu(CAT_PREFETCH, seconds)

    def charge_read(self, n_bytes: int, n_requests: int = 1) -> None:
        """Charge a device read: clock advances by the device time."""
        seconds = self.ssd.read_time(n_bytes, n_requests)
        if self._prefetch_capture is not None:
            # Background read: bytes/requests still hit the device, but
            # the device time accumulates in the capture box instead of
            # io_wait — the consumer later pays only the residual.
            self._prefetch_capture[0] += seconds
            self.ledger.add_cpu(CAT_PREFETCH, seconds)
            self.ledger.add_read(n_bytes, 0.0, n_requests)
            return
        self.clock.advance(seconds)
        self.ledger.add_read(n_bytes, seconds, n_requests)

    @contextmanager
    def prefetch_capture(self):
        """Divert charges into a background-prefetch accounting box.

        Inside the context, ``charge_cpu``/``charge_read`` book to the
        ``prefetch`` ledger category and accumulate their seconds into
        the yielded one-element list without advancing the clock.  The
        prefetch executor turns the accumulated seconds into a completion
        time on a serial per-instance device queue; a later demand access
        pays only ``max(0, completion - now)`` via
        :meth:`charge_prefetch_wait`.
        """
        if self._prefetch_capture is not None:
            raise RuntimeError("nested prefetch capture")
        box = [0.0]
        self._prefetch_capture = box
        try:
            yield box
        finally:
            self._prefetch_capture = None

    def charge_prefetch_wait(self, seconds: float) -> None:
        """Charge residual wait for a prefetch that had not completed."""
        if seconds <= 0.0:
            return
        self.clock.advance(seconds)
        self.ledger.add_prefetch_wait(seconds)

    def charge_write(self, n_bytes: int, n_requests: int = 1) -> None:
        """Charge a device write: clock advances by the device time."""
        seconds = self.ssd.write_time(n_bytes, n_requests)
        self.clock.advance(seconds)
        self.ledger.add_write(n_bytes, seconds, n_requests)

    def charge_network(self, seconds: float, n_bytes: int, n_requests: int = 1) -> None:
        """Charge cross-node link time (a cluster transfer's local share).

        The clock advances by the link time and the ``network`` ledger
        category plus byte/request counters record the traffic.  Intra-node
        transfers never reach here — :meth:`repro.cluster.topology.
        NetworkModel.transfer_time` is zero when source and destination
        nodes coincide, so single-node jobs stay charge-free.
        """
        if n_bytes < 0:
            raise ValueError(f"negative network payload: {n_bytes}")
        if seconds > 0.0:
            self.clock.advance(seconds)
            self.ledger.add_cpu(CAT_NETWORK, seconds)
        self.ledger.bump("net_bytes", n_bytes)
        self.ledger.bump("net_requests", n_requests)

    def bump(self, counter: str, delta: int = 1) -> None:
        counters = self.ledger.counters
        counters[counter] = counters.get(counter, 0) + delta

    def fork(self) -> "SimEnv":
        """A fresh env sharing cost models but with its own clock/ledger.

        Used when the physical plan fans a logical operator out into
        parallel instances: each instance accounts independently.
        """
        return SimEnv(
            clock=SimClock(),
            cpu=self.cpu,
            ssd=self.ssd,
            ledger=MetricsLedger(),
            faults=self.faults,
        )
