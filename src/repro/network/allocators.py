"""Round-robin arbiters used by VC and switch allocation.

The paper assumes a canonical wormhole router with separable, input-first
allocators; round-robin pointers provide the strong fairness the starvation
analysis relies on.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

__all__ = ["RoundRobinArbiter"]

T = TypeVar("T")


class RoundRobinArbiter:
    """Grants one of the current requesters, rotating priority each grant.

    The rule is ``pointer % len(requesters)``; the SoA backend keeps its
    pointers in flat arrays and applies the same modulo inline.
    """

    __slots__ = ("_ptr",)

    def __init__(self) -> None:
        self._ptr = 0

    def pick(self, requesters: Sequence[T]) -> T | None:
        """Pick one element; priority rotates so every requester is served."""
        if not requesters:
            return None
        choice = requesters[self._ptr % len(requesters)]
        self._ptr += 1
        return choice

    def rotated(self, items: Sequence[T]) -> list[T]:
        """A copy of ``items`` rotated by the current pointer (no grant)."""
        if not items:
            return []
        offset = self._ptr % len(items)
        self._ptr += 1
        return list(items[offset:]) + list(items[:offset])
