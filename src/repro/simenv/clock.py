"""Deterministic simulated clock."""

from __future__ import annotations


class SimClock:
    """A monotonically advancing simulated clock measured in seconds.

    The clock only moves when work is charged to it (CPU time or I/O wait),
    which makes every run of the simulator bit-for-bit deterministic.

    ``now`` is a plain attribute: the validated charge path adds to it
    directly, everyone else goes through :meth:`advance`.
    """

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` and return the new time.

        Raises:
            ValueError: if ``seconds`` is negative (time never flows back).
        """
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative time: {seconds}")
        self.now += seconds
        return self.now

    def reset(self, start: float = 0.0) -> None:
        """Reset the clock to ``start`` (used between benchmark runs)."""
        self.now = float(start)

    def __repr__(self) -> str:
        return f"SimClock(now={self.now:.6f})"
