"""The four grow-only parse structures plus alternate starts, counters and
the work queue.

A ParseState is confined to a single parse run. Every structure only grows;
listing operations return canonical ascending order regardless of insertion
order so dumps and traces are deterministic.
"""
from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .core import (
    BSRElement,
    Commencement,
    ContinuationId,
    Descriptor,
    Slot,
    bsr_sort_key,
)


class ResourceExhausted(Exception):
    """Raised when a parse run exceeds its fuel budget (descriptors processed)
    or its instantiation budget; `state` is the run as it stood at the trip."""

    def __init__(self, message: str, state: "ParseState") -> None:
        super().__init__(message)
        self.state = state


class ContinuationRelation:
    """grel: commencement -> continuation id -> continuation (plan, i, l)."""

    __slots__ = ("_grel",)

    def __init__(self) -> None:
        self._grel: dict[Commencement, dict[ContinuationId, object]] = {}

    def add(self, c: Commencement, cid: ContinuationId, cont) -> bool:
        """Record (c, cid); the first continuation stored for a cid wins.
        True iff c is a new commencement."""
        conts = self._grel.get(c)
        if conts is None:
            self._grel[c] = {cid: cont}
            return True
        conts.setdefault(cid, cont)
        return False

    def continuations(self, c: Commencement):
        """The continuations waiting on c, in insertion order (hot path)."""
        conts = self._grel.get(c)
        return conts.values() if conts else ()

    def continuations_for(self, c: Commencement) -> list[tuple[ContinuationId, object]]:
        """(cid, continuation) pairs for c in canonical cid order, for inspection."""
        conts = self._grel.get(c, {})
        return [(cid, conts[cid])
                for cid in sorted(conts, key=lambda x: (x.slot.sort_key, x.left))]

    def pairs(self) -> Iterator[tuple[Commencement, ContinuationId]]:
        for c in self._grel:
            for cid in self._grel[c]:
                yield (c, cid)

    def snapshot(self) -> frozenset:
        """Contents as comparable data, for order-independence checks."""
        return frozenset(self.pairs())


class ExtentRelation:
    """prel: right extents discovered per commencement, kept sorted."""

    __slots__ = ("_rel",)

    def __init__(self) -> None:
        self._rel: dict[Commencement, list[int]] = {}

    def add(self, c: Commencement, r: int) -> None:
        extents = self._rel.get(c)
        if extents is None:
            self._rel[c] = [r]
        elif r not in extents:
            insort(extents, r)

    def extents_for(self, c: Commencement) -> list[int]:
        return self._rel.get(c, [])

    def __len__(self) -> int:
        return sum(len(v) for v in self._rel.values())

    def snapshot(self) -> frozenset:
        return frozenset((c, r) for c, v in self._rel.items() for r in v)


class BsrSet:
    """The forest: (slot, l, r) -> set of pivots, plus a total element count."""

    __slots__ = ("_index", "size")

    def __init__(self) -> None:
        self._index: dict[tuple[Slot, int, int], set[int]] = {}
        self.size = 0

    def add(self, b: BSRElement) -> None:
        self.add4(b.slot, b.left, b.pivot, b.right)

    def add4(self, slot: Slot, l: int, k: int, r: int) -> bool:
        """Unpacked insert used on the engine's hot path; True iff the key
        (slot, l, r) was new."""
        key = (slot, l, r)
        ks = self._index.get(key)
        if ks is None:
            self._index[key] = {k}
            self.size += 1
            return True
        if k not in ks:
            ks.add(k)
            self.size += 1
        return False

    def pivots(self, slot: Slot, l: int, r: int) -> list[int]:
        ks = self._index.get((slot, l, r))
        return sorted(ks) if ks else []

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[BSRElement]:
        for (slot, l, r), ks in self._index.items():
            for k in ks:
                yield BSRElement(slot, l, k, r)

    def sorted_elements(self) -> list[BSRElement]:
        """Canonical dump order: (rendered slot, l, k, r) ascending."""
        return sorted(self, key=bsr_sort_key)

    def snapshot(self) -> frozenset:
        return frozenset(self)


class DescriptorView:
    """uset, read-only: every descriptor queued so far, each exactly once.

    A descriptor after slot 0 is made together with a BSR element of the same
    (slot, l, r), and an empty alternate's slot 0 is itself such a key. The
    descriptors are therefore the forest keys plus the starts (slot, l) of
    non-empty alternates at (l, l); the two parts are disjoint.
    """

    __slots__ = ("_keys", "_starts")

    def __init__(self, bsrs: BsrSet, starts: set) -> None:
        self._keys = bsrs._index
        self._starts = starts

    def __contains__(self, d: Descriptor) -> bool:
        return (d.slot, d.left, d.right) in self._keys or (
            d.left == d.right and (d.slot, d.left) in self._starts)

    def __len__(self) -> int:
        return len(self._keys) + len(self._starts)

    def __iter__(self) -> Iterator[Descriptor]:
        """Ascending by (left, right, slot)."""
        ds = [Descriptor(slot, l, r) for slot, l, r in self._keys]
        ds.extend(Descriptor(slot, l, l) for slot, l in self._starts)
        ds.sort(key=lambda d: (d.left, d.right, d.slot.sort_key))
        return iter(ds)


@dataclass
class Stats:
    """Work counters for one run."""

    descriptors_processed: int = 0
    instantiations: int = 0


@dataclass
class FailureTracking:
    """Furthest token-match failure: max index tried plus the slots tried there."""

    position: int = -1
    slots: set = field(default_factory=set)

    def record(self, position: int, slot: Slot) -> None:
        if position > self.position:
            self.position = position
            self.slots = {slot}
        elif position == self.position:
            self.slots.add(slot)


class ParseState:
    """All mutable context of one parse run over an immutable token buffer."""

    __slots__ = ("input", "starts", "uset", "grel", "prel", "bsrs", "stats", "fuel",
                 "instantiation_budget", "failures", "queue", "lifo",
                 "reverse_alternates")

    def __init__(self, input: Sequence, fuel: Optional[int] = None,
                 lifo: bool = False, reverse_alternates: bool = False,
                 instantiation_budget: Optional[int] = None) -> None:
        self.input = input
        self.grel = ContinuationRelation()
        self.prel = ExtentRelation()
        self.bsrs = BsrSet()
        # (slot 0, l) of every non-empty alternate started at l.
        self.starts: set[tuple[Slot, int]] = set()
        self.uset = DescriptorView(self.bsrs, self.starts)
        self.stats = Stats()
        self.fuel = fuel
        # Guards runaway instantiation of fresh parameterized nonterminals,
        # which mints new grammar structure faster than descriptor fuel burns.
        self.instantiation_budget = instantiation_budget
        self.failures = FailureTracking()
        # Pending descriptor effects; the engine drains this to quiescence.
        self.queue: deque = deque()
        self.lifo = lifo
        self.reverse_alternates = reverse_alternates

