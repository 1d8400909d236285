"""The five grow-only parse structures plus counters and the work queue.

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
    """Raised when a parse run exceeds its fuel budget."""


class DescriptorSet:
    """Seen descriptors, stored as a nested trie: left -> right -> set of slots."""

    __slots__ = ("_trie", "size")

    def __init__(self) -> None:
        self._trie: dict[int, dict[int, set[Slot]]] = {}
        self.size = 0

    def add(self, d: Descriptor) -> bool:
        """Insert; return True iff the descriptor was new."""
        return self.add3(d.slot, d.left, d.right)

    def add3(self, slot: Slot, left: int, right: int) -> bool:
        """Unpacked insert used on the engine's hot path."""
        by_right = self._trie.get(left)
        if by_right is None:
            by_right = self._trie[left] = {}
        slots = by_right.get(right)
        if slots is None:
            slots = by_right[right] = set()
        if slot in slots:
            return False
        slots.add(slot)
        self.size += 1
        return True

    def __contains__(self, d: Descriptor) -> bool:
        by_right = self._trie.get(d.left)
        if by_right is None:
            return False
        slots = by_right.get(d.right)
        return slots is not None and d.slot in slots

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[Descriptor]:
        for left in sorted(self._trie):
            by_right = self._trie[left]
            for right in sorted(by_right):
                for slot in sorted(by_right[right], key=lambda s: s.sort_key):
                    yield Descriptor(slot, left, right)


class ContinuationRelation:
    """grel: commencement -> continuation id -> continuation (plan, i, l)."""

    __slots__ = ("_grel",)

    def __init__(self) -> None:
        self._grel: dict[Commencement, dict[ContinuationId, object]] = {}

    def add(self, c: Commencement, cid: ContinuationId, cont) -> None:
        """Record (c, cid); the first continuation stored for a cid wins."""
        conts = self._grel.get(c)
        if conts is None:
            self._grel[c] = {cid: cont}
        else:
            conts.setdefault(cid, cont)

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


@dataclass
class Stats:
    """Work counters for one run."""

    descriptors_processed: int = 0
    fuel_consumed: int = 0
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

    __slots__ = ("input", "uset", "grel", "prel", "bsrs", "stats", "fuel",
                 "instantiation_budget", "failures", "queue", "lifo",
                 "reverse_alternates")

    def __init__(self, input: Sequence, fuel: Optional[int] = None,
                 lifo: bool = False, reverse_alternates: bool = False,
                 instantiation_budget: Optional[int] = None) -> None:
        self.input = input
        self.uset = DescriptorSet()
        self.grel = ContinuationRelation()
        self.prel = ExtentRelation()
        self.bsrs = BsrSet()
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

