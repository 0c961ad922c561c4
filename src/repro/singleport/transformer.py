"""Multi-port to single-port scheduling helpers (Section 8).

Section 8 adapts the multi-port algorithms by structuring communication
into *mp-rounds*, each implemented as a window of *sp-rounds*: for an
overlay of degree ``d``, a window has ``d`` send slots (the node
transmits to its ``k``-th overlay neighbor in slot ``k``) followed by
``d`` poll slots (the node checks the port of its ``k``-th neighbor in
slot ``k``).  All sends of a window therefore precede all polls of the
window, matching the multi-port round semantics exactly, and every port
receives at most one message per window, so polls drain ports
completely.

:class:`WindowSchedule` does the slot arithmetic; it is shared by
:class:`~repro.singleport.linear_consensus.LinearConsensusProcess` and
by the tests that replay multi-port phases under the single-port
discipline.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["WindowSchedule", "Segment"]


@dataclass(frozen=True)
class Segment:
    """A contiguous block of identical windows.

    Attributes
    ----------
    name:
        Identifier used by protocols to dispatch behaviour.
    start:
        First absolute sp-round of the segment.
    windows:
        Number of windows (mp-rounds) in the segment.
    window_len:
        Length of each window in sp-rounds.
    """

    name: str
    start: int
    windows: int
    window_len: int

    @property
    def end(self) -> int:
        """First sp-round after the segment."""
        return self.start + self.windows * self.window_len

    def locate(self, rnd: int) -> tuple[int, int]:
        """``(window index, slot within window)`` for an in-segment round."""
        offset = rnd - self.start
        return offset // self.window_len, offset % self.window_len


class WindowSchedule:
    """An ordered list of :class:`Segment` blocks with O(1)-ish lookup."""

    def __init__(self) -> None:
        self.segments: list[Segment] = []
        self._cursor = 0

    def append(self, name: str, windows: int, window_len: int) -> Segment:
        """Append a segment after everything scheduled so far."""
        if windows < 0 or window_len <= 0:
            raise ValueError(
                f"invalid segment {name!r}: windows={windows}, window_len={window_len}"
            )
        segment = Segment(name, self._cursor, windows, window_len)
        self.segments.append(segment)
        self._cursor = segment.end
        return segment

    @property
    def end(self) -> int:
        """First sp-round after the whole schedule."""
        return self._cursor

    def locate(self, rnd: int) -> tuple[Segment, int, int] | None:
        """``(segment, window, slot)`` for ``rnd``, or ``None`` if out of
        schedule.  Linear scan -- schedules have a handful of segments."""
        if rnd < 0 or rnd >= self._cursor:
            return None
        for segment in self.segments:
            if rnd < segment.end:
                window, slot = segment.locate(rnd)
                return segment, window, slot
        return None
