"""Identifiers, slots, descriptors and forest-edge values shared by every module.

All identifier-like values are interned: structurally equal ids and slots are
the same object, so they hash and compare by identity, in C, on the engine's
hot membership checks.
"""
from __future__ import annotations

from typing import NamedTuple


class SymbolId:
    """Structural name of a grammar symbol (a token name or an application)."""

    __slots__ = ("name", "args", "_rendered")

    name: str
    args: tuple["SymbolId", ...]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({render_id(self)})"


class TokenName(SymbolId):
    """Id of a token symbol. Literal-character tokens keep their quotes: "','".

    Named tokens render with a leading "%" ("%alpha"), so that no token renders
    like a nullary nonterminal of the same name.
    """

    __slots__ = ()

    def __new__(cls, name: str) -> "TokenName":
        key = name
        hit = _TOKEN_INTERN.get(key)
        if hit is not None:
            return hit
        self = object.__new__(cls)
        self.name = name
        self.args = ()
        self._rendered = name if name.startswith("'") else "%" + name
        _TOKEN_INTERN[key] = self
        return self


class Applied(SymbolId):
    """Id of a nonterminal: a name applied to zero or more argument ids."""

    __slots__ = ()

    def __new__(cls, name: str, args: tuple[SymbolId, ...] = ()) -> "Applied":
        args = tuple(args)
        key = (name, args)
        hit = _APPLIED_INTERN.get(key)
        if hit is not None:
            return hit
        self = object.__new__(cls)
        self.name = name
        self.args = args
        self._rendered = None
        _APPLIED_INTERN[key] = self
        return self


_TOKEN_INTERN: dict = {}
_APPLIED_INTERN: dict = {}


def render_id(sid: SymbolId) -> str:
    """Deterministic textual form: 'c' literals verbatim, %name for named
    tokens, name(a,b) for applications."""
    if sid._rendered is None:
        sid._rendered = "%s(%s)" % (sid.name, ",".join(render_id(a) for a in sid.args)) \
            if sid.args else sid.name
    return sid._rendered


class Slot:
    """A grammar position: one alternate of `lhs` with a dot splitting pre/post."""

    __slots__ = ("lhs", "pre", "post", "_rendered")

    lhs: SymbolId
    pre: tuple[SymbolId, ...]
    post: tuple[SymbolId, ...]

    def __new__(cls, lhs: SymbolId, pre=(), post=()) -> "Slot":
        pre = tuple(pre)
        post = tuple(post)
        key = (lhs, pre, post)
        hit = _SLOT_INTERN.get(key)
        if hit is not None:
            return hit
        self = object.__new__(cls)
        self.lhs = lhs
        self.pre = pre
        self.post = post
        self._rendered = None
        _SLOT_INTERN[key] = self
        return self

    def __repr__(self) -> str:
        return f"Slot({render_slot(self)})"


_SLOT_INTERN: dict = {}


def slot_advance(slot: Slot) -> Slot:
    """Move the dot one symbol to the right."""
    if not slot.post:
        raise ValueError(f"cannot advance past the end of alternate: {render_slot(slot)}")
    return Slot(slot.lhs, slot.pre + (slot.post[0],), slot.post[1:])


def slot_retreat(slot: Slot) -> Slot:
    """Move the dot one symbol to the left; a slot at the start stays put."""
    if not slot.pre:
        return slot
    return Slot(slot.lhs, slot.pre[:-1], (slot.pre[-1],) + slot.post)


def render_slot(slot: Slot) -> str:
    """Textual form "lhs ::= pre . post", deterministic and grammar-injective."""
    if slot._rendered is None:
        parts = [render_id(slot.lhs), "::="]
        parts.extend(render_id(s) for s in slot.pre)
        parts.append(".")
        parts.extend(render_id(s) for s in slot.post)
        slot._rendered = " ".join(parts)
    return slot._rendered


class Descriptor(NamedTuple):
    """One unit of parsing work: slot plus left and current right extent."""

    slot: Slot
    left: int
    right: int


class Commencement(NamedTuple):
    """A nonterminal about to be (or being) matched at a left extent."""

    nonterminal: SymbolId
    left: int


class ContinuationId(NamedTuple):
    """Listing form of a continuation (plan, i, l): the descriptor
    (plan.slots[i], l, _) with a hole for its right extent."""

    slot: Slot
    left: int


class BSRElement(NamedTuple):
    """Forest edge: slot, left extent, pivot, right extent."""

    slot: Slot
    left: int
    pivot: int
    right: int


def bsr_sort_key(b: BSRElement):
    return (render_slot(b.slot), b.left, b.pivot, b.right)
