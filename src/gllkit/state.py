"""The four grow-only parse structures plus alternate starts, counters and
the work queue.

A ParseState is confined to a single parse run. Every structure only grows;
listing operations return canonical ascending order regardless of insertion
order so dumps and traces are deterministic.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Collection, Iterator, Optional, Sequence

from .core import (
    BSRElement,
    Commencement,
    ContinuationId,
    Descriptor,
    Slot,
    SymbolId,
    TokenName,
    bsr_sort_key,
    render_slot,
)


class ResourceExhausted(Exception):
    """Raised when a parse run exceeds its fuel budget (descriptors processed)
    or its instantiation budget; `state` is the run as it stood at the trip,
    its forest marked stopped."""

    def __init__(self, message: str, state: "ParseState") -> None:
        super().__init__(message)
        self.state = state
        state.bsrs.stopped = message


class ContinuationRelation:
    """grel: commencement (X, l) -> the continuations (plan, i, l', rights)
    waiting on it, each registered once, plus their number. rights is the
    forest's set of right extents of key (plan.slots[i], l'). The inert
    continuation above the start is counted and listed, but kept out of the
    lists, so applying them never meets it."""

    __slots__ = ("_grel", "_inert", "size")

    def __init__(self) -> None:
        self._grel: dict[tuple[SymbolId, int], list] = {}
        # The commencements the inert continuation (None) is registered on.
        self._inert: set = set()
        self.size = 0

    def add(self, c: tuple[SymbolId, int], cont) -> bool:
        """Register cont on c; True iff c is a new commencement."""
        self.size += 1
        conts = self._grel.get(c)
        new = conts is None
        if new:
            conts = self._grel[c] = []
        if cont is None:
            self._inert.add(c)
        else:
            conts.append(cont)
        return new

    def continuations(self, c: tuple[SymbolId, int]):
        """The continuations waiting on c, in registration order (hot path)."""
        return self._grel.get(c, ())

    def pairs(self) -> Iterator[tuple[Commencement, Optional[ContinuationId]]]:
        """(c, id) per registration; the id of (plan, i, l, _) is
        (plan.slots[i], l), None for the inert continuation."""
        for c, conts in self._grel.items():
            c = Commencement(*c)
            if c in self._inert:
                yield (c, None)
            for plan, i, l, _ in conts:
                yield (c, ContinuationId(plan.slots[i], l))

    def __len__(self) -> int:
        return self.size

    def snapshot(self) -> frozenset:
        """Contents as comparable data, for order-independence checks."""
        return frozenset(self.pairs())


_NONE: frozenset = frozenset()


class ExtentRelation:
    """prel: the right extents r found per commencement (X, k), indexed both
    ways, (X, k) -> {r} and (X, r) -> {k}, plus their number.

    `links` maps a linked commencement, which stores no extents, to [its
    chain, its depth, its one continuation, the last one linked below it].
    A chain (top, deepest) is a path of commencements below top, each called
    in tail position by the one above. A node has the extents found at it or
    below it: deepest maps each to the depth of its deepest origin, and the
    node at depth d has r iff deepest[r] >= d. `carriers` maps a forest key
    (slot, l) to the last commencement linked by a continuation of that key;
    it or the one below may be unlinked since. An id in `left_recursive` has
    an alternate that calls it first: no link."""

    __slots__ = ("_rights", "_lefts", "size", "links", "carriers", "left_recursive")

    def __init__(self) -> None:
        self._rights: dict[tuple[SymbolId, int], set[int]] = {}
        self._lefts: dict[tuple[SymbolId, int], set[int]] = {}
        self.size = 0
        self.links: dict[tuple[SymbolId, int], list] = {}
        self.carriers: dict[tuple[Slot, int], tuple[SymbolId, int]] = {}
        self.left_recursive: set[SymbolId] = set()

    def add(self, c: tuple[SymbolId, int], r: int):
        """Record extent r of c = (X, k); True iff it is new. A linked c
        stores none: its link is returned, for r to be recorded at its chain."""
        rights = self._rights.get(c)
        if rights is None:
            if self.links and c in self.links:
                return self.links[c]
            self._rights[c] = {r}
        elif r in rights:
            return False
        else:
            rights.add(r)
        x, k = c
        lefts = self._lefts.get((x, r))
        if lefts is None:
            self._lefts[(x, r)] = {k}
        else:
            lefts.add(k)
        self.size += 1
        return True

    def link(self, c: tuple[SymbolId, int], caller: tuple[SymbolId, int],
             cont: tuple) -> None:
        """Link new c below caller, whose continuation cont, the only one of
        its key so far, calls c in tail position: in a new chain below an
        unlinked caller, else at the end of the caller's, if it is the end."""
        above = self.links.get(caller)
        if above is None:
            self.links[c] = [(caller, {}), 1, cont, None]
        elif above[3] not in self.links:
            above[3] = c
            self.links[c] = [above[0], above[1] + 1, cont, None]
        else:
            return
        plan, i, l, _ = cont
        self.carriers[(plan.slots[i], l)] = c

    def carry(self, key: tuple[Slot, int]) -> None:
        """A further continuation of key is registered: unlink the one
        linked, since the keys of two continuations may overlap."""
        c = self.carriers.get(key)
        if c in self.links:
            self.unlink(c)

    def unlink(self, c: tuple[SymbolId, int]) -> None:
        """Store linked c's extents and its continuation's keys, and make c
        the top of the nodes below it. The descriptors of those keys stay
        skipped: their effect, each extent at c's caller, is in place."""
        (_, deepest), d, cont, node = link = self.links.pop(c)
        extents = _reached(*link)
        if node in self.links:
            lower = (c, {r: e - d for r, e in deepest.items() if e > d})
            while node in self.links:
                moved = self.links[node]
                moved[:2] = lower, moved[1] - d
                node = moved[3]
        for r in extents:
            deepest[r] = d - 1
            self.add(c, r)
        self.size -= len(extents)  # counted when the chain took them
        cont[3].update(extents)

    def has(self, c: tuple[SymbolId, int], r: int) -> bool:
        link = self.links.get(c)
        if link is None:
            return r in self._rights.get(c, _NONE)
        return link[0][1].get(r, 0) >= link[1]

    def extents(self, c: Commencement):
        """c's right extents, unordered: stored, or a linked c's (hot path)."""
        link = self.links.get(c) if self.links else None
        return self._rights.get(c, _NONE) if link is None else _reached(*link)

    def extents_for(self, c: Commencement) -> list[int]:
        """c's right extents, ascending."""
        return sorted(self.extents(c))

    def lefts_in(self, x: SymbolId, ks, r: int) -> set[int]:
        """The k in ks with r among the extents of (x, k)."""
        return {k for k in ks if self.has((x, k), r)}

    def __len__(self) -> int:
        return self.size

    def snapshot(self) -> frozenset:
        return frozenset((c, r) for c in [*self._rights, *self.links]
                         for r in self.extents(c))


def _reached(chain: tuple, depth: int, *_) -> set[int]:
    """The extents of the node at depth in chain."""
    return {r for r, e in chain[1].items() if e >= depth}


class BsrSet:
    """The forest, stored as its keys (slot, l, r) grouped by (slot, l) into
    sets of right extents; its length counts the elements as the engine makes
    them, each once. A continuation carries the set of its key (`rights`), so
    the engine adds to it directly and counts what it added; a set stays
    empty while no key under it is reached, and no listing sees it.

    An element (slot_i, l, k, r) with i >= 1 exists exactly when descriptor
    (slot_{i-1}, l, k) was queued and symbol i-1 spans k..r, so pivots are
    derived, not stored: l when i <= 1, r-1 after a token, else each k that is
    a right extent of (slot_{i-1}, l) and a left extent of (symbol i-1, r).
    The keys of a linked commencement's continuation are its extents: the
    sizes count them, and every query and listing reads them. Deriving is
    valid only on a drained run; a `stopped` run is read for its sizes.
    `alternates` maps each nonterminal id the run started to the plans of the
    first symbol with that id it met; every key's slot is in them, so the
    forest walk reads them, not a child's own: it may be another object. Ids
    are per grammar, so same-named nonterminals of two grammars stay apart.
    """

    __slots__ = ("_rights", "_prel", "alternates", "size", "nkeys", "stopped")

    def __init__(self, prel: ExtentRelation) -> None:
        self._rights: dict[tuple[Slot, int], set[int]] = {}
        self._prel = prel
        self.alternates: dict[SymbolId, tuple] = {}
        self.size = 0
        self.nkeys = 0
        self.stopped: Optional[str] = None

    def record(self, slot: Slot, l: int, r: int) -> bool:
        """Count one element made under key (slot, l, r), on the engine's hot
        path; True iff the key is new."""
        self.size += 1
        rights = self._rights.get((slot, l))
        if rights is None:
            self._rights[(slot, l)] = {r}
        elif r in rights:
            return False
        else:
            rights.add(r)
        self.nkeys += 1
        return True

    def rights(self, slot: Slot, l: int) -> set[int]:
        """The stored set of right extents of the keys (slot, l, _), created
        empty if there is none. Whoever adds to it counts the new keys in
        nkeys and every element made in size."""
        rights = self._rights.get((slot, l))
        if rights is None:
            rights = self._rights[(slot, l)] = set()
        return rights

    def has_key(self, slot: Slot, l: int, r: int) -> bool:
        rights = self._rights.get((slot, l), _NONE)
        prel = self._prel
        if rights or not prel.links:
            return r in rights
        # an empty set may be carried by a linked commencement's one
        # continuation: its keys are the commencement's extents
        c = prel.carriers.get((slot, l))
        return c in prel.links and prel.has(c, r)

    def key_sets(self):
        """((slot, l), the set of right extents of the keys (slot, l, _)) per
        pair made so far, unordered; a set may be empty. A linked
        commencement's keys are listed here as one set built from its chain."""
        links = self._prel.links
        if not links:
            return self._rights.items()
        sets = dict(self._rights)
        for c, (_, _, (plan, i, l, _), _) in links.items():
            sets[(plan.slots[i], l)] = self._prel.extents(c)
        return sets.items()

    def keys(self) -> Iterator[tuple[Slot, int, int]]:
        for (slot, l), rights in self.key_sets():
            for r in rights:
                yield (slot, l, r)

    def pivots(self, slot: Slot, l: int, r: int) -> Collection[int]:
        """The pivots of the elements under key (slot, l, r), unordered."""
        if not self.has_key(slot, l, r):
            return []
        i = slot.i
        if i <= 1:
            return [l]
        plan = slot.plan
        last = plan.symbols[i - 1].id
        if type(last) is TokenName:
            return [r - 1]
        before = self._rights[(plan.slots[i - 1], l)]
        prel = self._prel
        if prel.links:
            return prel.lefts_in(last, before, r)
        return before & prel._lefts.get((last, r), _NONE)  # lefts_in, without links

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[BSRElement]:
        for slot, l, r in self.keys():
            for k in self.pivots(slot, l, r):
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

    __slots__ = ("_bsrs", "_starts")

    def __init__(self, bsrs: BsrSet, starts: set) -> None:
        self._bsrs = bsrs
        self._starts = starts

    def __contains__(self, d: Descriptor) -> bool:
        return self._bsrs.has_key(d.slot, d.left, d.right) or (
            d.left == d.right and (d.slot, d.left) in self._starts)

    def __len__(self) -> int:
        return self._bsrs.nkeys + len(self._starts)

    def __iter__(self) -> Iterator[Descriptor]:
        """Ascending by (left, right, rendered slot)."""
        ds = [Descriptor(*key) for key in self._bsrs.keys()]
        ds.extend(Descriptor(slot, l, l) for slot, l in self._starts)
        ds.sort(key=lambda d: (d.left, d.right, render_slot(d.slot)))
        return iter(ds)


@dataclass
class Stats:
    """Work counters for one run. A drained run counts in both processed and
    skipped the descriptors whose effect a link made without queueing them."""

    descriptors_processed: int = 0
    instantiations: int = 0
    descriptors_skipped: int = 0


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
        self.bsrs = BsrSet(self.prel)
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

