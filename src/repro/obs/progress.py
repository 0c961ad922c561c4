"""Live progress heartbeats for the long-running surfaces.

``repro.check`` and ``repro-bench`` sweeps fan work units out over a
process pool; until this layer existed a 200-config budget printed
nothing until it finished.  :class:`ProgressReporter` plugs into the
sweep harness's ``progress=`` hook: every completed unit flows back
through the parent's result stream (the existing multiprocessing
plumbing -- workers stamp ``started``/``worker`` on each outcome) and
the reporter renders a throttled heartbeat line::

    check: 120/200 units, 14.3/s, eta 6s, util 87% (4 workers), last seed=119 flooding/sim-opt

Lines go to stderr (never stdout, which stays machine-readable) and are
throttled to one per ``interval`` seconds, so even a million-unit sweep
costs a handful of writes.  ``enabled=None`` auto-detects: on when the
stream is a TTY, off when piped -- matching the ``--progress`` /
``--no-progress`` CLI flags that force it either way.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, Optional

__all__ = ["ProgressReporter"]


def _default_describe(outcome: Any) -> str:
    """Best-effort one-phrase description of a sweep outcome."""
    params = getattr(getattr(outcome, "unit", None), "params", None) or {}
    row = getattr(outcome, "row", None)
    bits = []
    seed = params.get("seed")
    if seed is None and isinstance(row, dict):
        seed = row.get("seed")
    if seed is not None:
        bits.append(f"seed={seed}")
    if isinstance(row, dict):
        family = row.get("family")
        backend = row.get("backend") or row.get("backends")
        if family and backend:
            bits.append(f"{family}/{backend}")
        elif family:
            bits.append(str(family))
    if not bits:
        n = params.get("n")
        if n is not None:
            bits.append(f"n={n}")
    return " ".join(bits)


class ProgressReporter:
    """Throttled heartbeat renderer for sweep-shaped work.

    Call :meth:`unit_done` with each completed outcome (any object with
    ``elapsed`` and optionally ``worker``/``unit``/``row`` attributes);
    the reporter tracks throughput and per-worker busy time and prints
    at most one line per ``interval`` seconds.  :meth:`close` prints the
    final line (when enabled) and returns a summary dict that surfaces
    embed in their artifacts.
    """

    #: seconds between two heartbeat lines
    interval = 2.0

    def __init__(
        self,
        total: int,
        *,
        label: str = "sweep",
        stream=None,
        jobs: int = 1,
        describe: Optional[Callable[[Any], str]] = None,
        enabled: Optional[bool] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.total = total
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.jobs = max(jobs, 1)
        self.describe = describe or _default_describe
        if enabled is None:
            enabled = bool(getattr(self.stream, "isatty", lambda: False)())
        self.enabled = enabled
        self.clock = clock
        self.done = 0
        self.busy_seconds = 0.0
        self.workers: dict[int, float] = {}
        self.last_description = ""
        self.lines_printed = 0
        self._t0 = clock()
        self._last_print = self._t0
        self._closed = False

    # -- feed ------------------------------------------------------------

    def unit_done(self, outcome: Any) -> None:
        """Record one completed unit; prints a heartbeat when due."""
        self.done += 1
        elapsed = getattr(outcome, "elapsed", 0.0) or 0.0
        self.busy_seconds += elapsed
        worker = getattr(outcome, "worker", 0) or 0
        self.workers[worker] = self.workers.get(worker, 0.0) + elapsed
        self.last_description = self.describe(outcome)
        if not self.enabled:
            return
        now = self.clock()
        if now - self._last_print >= self.interval or self.done == self.total:
            self._emit(now)

    # -- rendering -------------------------------------------------------

    def _format(self, now: float) -> str:
        wall = max(now - self._t0, 1e-9)
        rate = self.done / wall
        parts = [f"{self.label}: {self.done}/{self.total} units"]
        parts.append(f"{rate:.1f}/s")
        remaining = self.total - self.done
        if remaining > 0 and rate > 0:
            parts.append(f"eta {remaining / rate:.0f}s")
        util = self.busy_seconds / (wall * self.jobs)
        parts.append(f"util {util:.0%} ({len(self.workers) or 1} workers)")
        if self.last_description:
            parts.append(f"last {self.last_description}")
        return ", ".join(parts)

    def _emit(self, now: float) -> None:
        print(self._format(now), file=self.stream, flush=True)
        self.lines_printed += 1
        self._last_print = now

    # -- summary ---------------------------------------------------------

    def summary(self) -> dict:
        """Throughput + per-worker utilization, embeddable in artifacts."""
        wall = max(self.clock() - self._t0, 1e-9)
        return {
            "units": self.done,
            "total": self.total,
            "wall_seconds": round(wall, 3),
            "units_per_sec": round(self.done / wall, 3),
            "utilization": round(self.busy_seconds / (wall * self.jobs), 3),
            "jobs": self.jobs,
            "workers": {
                str(pid): round(busy, 3)
                for pid, busy in sorted(self.workers.items())
            },
        }

    def close(self) -> dict:
        """Print the final heartbeat (if enabled) and return the summary."""
        if not self._closed:
            self._closed = True
            if self.enabled and self.done and self.lines_printed == 0:
                # Short sweeps that finished inside one interval still
                # deserve their single summary line.
                self._emit(self.clock())
        return self.summary()
