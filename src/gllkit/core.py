"""Identifiers, slots, descriptors and forest-edge values shared by every module.

A symbol id is made together with its symbol, once per grammar: an
Elaborator's registry holds one id per token name and per instance, and each
Token or nonterminal_symbol call makes a new one. Slots are made once per
grammar position by their alternate's plan. So both hash and compare by
identity, in C, on the engine's hot membership checks, and two grammars never
share an id, even where their names are equal.
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

    def __init__(self, name: str) -> None:
        self.name = name
        self.args = ()
        self._rendered = name if name.startswith("'") else "%" + name


class Applied(SymbolId):
    """Id of a nonterminal: a name applied to zero or more argument ids."""

    __slots__ = ()

    def __init__(self, name: str, args: tuple[SymbolId, ...] = ()) -> None:
        self.name = name
        self.args = tuple(args)
        self._rendered = None


def render_id(sid: SymbolId) -> str:
    """Deterministic textual form: 'c' literals verbatim, %name for named
    tokens, name(a,b) for applications."""
    if sid._rendered is None:
        sid._rendered = "%s(%s)" % (sid.name, ",".join(render_id(a) for a in sid.args)) \
            if sid.args else sid.name
    return sid._rendered


class Slot:
    """A grammar position X ::= pre . post: the dot after i symbols of one
    alternate, its plan. Each AltPlan builds its slots once, so a slot is
    known by identity; lhs, pre and post are derived for rendering and dumps."""

    __slots__ = ("plan", "i", "_rendered")

    def __init__(self, plan, i: int) -> None:
        self.plan = plan
        self.i = i
        self._rendered = None

    @property
    def lhs(self) -> SymbolId:
        return self.plan.lhs

    @property
    def pre(self) -> tuple[SymbolId, ...]:
        return tuple([s.id for s in self.plan.symbols[:self.i]])

    @property
    def post(self) -> tuple[SymbolId, ...]:
        return tuple([s.id for s in self.plan.symbols[self.i:]])

    def __repr__(self) -> str:
        return f"Slot({render_slot(self)})"


def render_slot(slot: Slot) -> str:
    """Textual form "lhs ::= pre . post", deterministic and grammar-injective."""
    if slot._rendered is None:
        plan = slot.plan
        parts = [render_id(plan.lhs), "::="]
        parts.extend(render_id(s.id) for s in plan.symbols)
        parts.insert(2 + slot.i, ".")
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
