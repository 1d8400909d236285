"""The generalized-LL engine: descend, ascend and continue actions.

Token symbols carry an identifier plus a token pattern; nonterminal symbols
own a list of alternate plans (symbol sequence, slot chain, semantic action).
Effects are driven through an explicit work queue rather than native
recursion, so deeply cascading descriptor chains cannot overflow the call
stack. FIFO is the default schedule; order independence of the final state
licenses any other.
"""
from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from .core import (
    Applied,
    Commencement,
    Slot,
    SymbolId,
    TokenName,
)
from .state import ParseState, ResourceExhausted

START_NAME = "__START"
START_ID = Applied(START_NAME)


class TokenPattern:
    """A pure classifier over tokens plus a display name."""

    __slots__ = ("classifier", "name")

    def __init__(self, classifier: Callable[[object], Optional[object]], name: str):
        self.classifier = classifier
        self.name = name

    def __repr__(self) -> str:
        return f"TokenPattern({self.name!r})"


class AltPlan:
    """One alternate of a nonterminal, with its precomputed slot chain.

    slots[i] is the alternate's slot with the dot after i symbols; actions are
    either plain (child values -> value) or ambiguity-aware ("multi": child
    value lists -> list of values).
    """

    __slots__ = ("lhs", "symbols", "slots", "action", "action_kind")

    def __init__(self, lhs: SymbolId, symbols: Sequence["Symbol"],
                 action=None, action_kind: str = "plain"):
        self.lhs = lhs
        self.symbols = tuple(symbols)
        self.slots = tuple([Slot(self, i) for i in range(len(self.symbols) + 1)])
        self.action = action
        self.action_kind = action_kind

    def __repr__(self) -> str:
        return f"AltPlan({self.slots[0]!r})"


class Symbol:
    """A grammar symbol: a Token or a Nonterminal, named by its identifier."""

    __slots__ = ("id",)

    id: SymbolId

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.id!r})"


class Token(Symbol):
    __slots__ = ("pattern",)

    def __init__(self, pattern: TokenPattern):
        self.id = TokenName(pattern.name)
        self.pattern = pattern


class Nonterminal(Symbol):
    """A (possibly parameterized instance of a) defined nonterminal.

    Plans may be supplied lazily via a thunk so that self-instantiating
    definitions elaborate without divergence; the thunk is forced at most once,
    the first time the symbol is matched or evaluated.
    """

    __slots__ = ("_plans", "_thunk", "left_recursive")

    def __init__(self, id: SymbolId, plans: Optional[Iterable[AltPlan]] = None,
                 thunk: Optional[Callable[[], Iterable[AltPlan]]] = None):
        if (plans is None) == (thunk is None):
            raise ValueError("exactly one of plans/thunk required")
        self.id = id
        self._plans = None
        self._thunk = thunk
        # whether an alternate calls this nonterminal first, set with the plans
        self.left_recursive = False
        if plans is not None:
            self._set_plans(plans)

    def plans(self) -> tuple[AltPlan, ...]:
        if self._plans is None:
            self._set_plans(self._thunk())
            self._thunk = None
        return self._plans

    def _set_plans(self, plans: Iterable[AltPlan]) -> None:
        """Keep the first of the alternates with equal symbol ids, action and
        action kind, since a tree does not record its alternate, and note
        whether one of them is left-recursive."""
        kept: dict = {}
        for plan in plans:
            ids = tuple([s.id for s in plan.symbols])
            kept.setdefault((ids, plan.action, plan.action_kind), plan)
            if ids and ids[0] is self.id:
                self.left_recursive = True
        self._plans = tuple(kept.values())


def token_symbol(pattern: TokenPattern) -> Token:
    return Token(pattern)


def char_token(ch: str) -> Token:
    """Token matching one literal character; named with its quotes: "'a'".
    Each call makes a new symbol, with its own id."""
    return Token(TokenPattern(lambda t: t if t == ch else None, f"'{ch}'"))


def nonterminal_symbol(name: str, args: Sequence[Symbol],
                       alternates: Sequence[tuple]) -> Nonterminal:
    """Build a nonterminal Symbol with eager plans and a new id, so pass the
    one object wherever this nonterminal is meant.

    Each alternate is (symbols,) or (symbols, action) or
    (symbols, action, action_kind).
    """
    sid = Applied(name, tuple(a.id for a in args))
    plans = [AltPlan(sid, *alt) if isinstance(alt, tuple) else AltPlan(sid, alt)
             for alt in alternates]
    return Nonterminal(sid, plans=plans)


def lazy_nonterminal(sid: SymbolId, thunk: Callable[[], Iterable[AltPlan]]) -> Nonterminal:
    return Nonterminal(sid, thunk=thunk)


# A continuation is (plan, i, l, rights): applied to a right extent r, it makes
# the BSR element under key (plan.slots[i], l, r), whose pivot the forest
# derives, and queues the advanced descriptor when the key is new. rights is
# the forest's own set of right extents of (plan.slots[i], l), fetched once
# when the continuation is registered, so applying it is one int-set probe;
# the loops below add to it and count into bsrs once per batch. A
# continuation is applied to each extent of its commencement once: by descend
# to those found before it was registered, by ascend to those found after. So
# every element is made once. It is also registered once: _act registers
# (plan, i+1, l) on (X, r) only while processing descriptor
# (plan.slots[i], l, r), which is queued once, so grel keeps plain lists.
# Commencements are plain (X, l) tuples here; they equal Commencement.
#
# A new commencement whose one continuation is in tail position (i ==
# len(plan.symbols)), the only one of its key, is linked to its caller (Leo
# 1991): its extents are recorded once, at its chain, and ascend at the
# chain's top. A second call, or a second continuation of the key, unlinks it.
#
# Every descriptor is queued once. One after slot 0 is made together with a
# BSR element of the same (slot, l, r), so it is new exactly when that forest
# key is new. Slot-0 descriptors are queued only when descend starts a new
# commencement, once per alternate, since equal alternates are one plan: an
# empty alternate's start is its forest key, a non-empty one's is recorded in
# state.starts.


def _alternates(state: ParseState, sym: Nonterminal, l: int) -> None:
    """Queue the slot-0 descriptor of every alternate of sym at extent l."""
    bsrs = state.bsrs
    plans = bsrs.alternates.get(sym.id)
    if plans is None:  # the first symbol with this id gives the run its plans
        if sym._plans is None:
            stats = state.stats
            stats.instantiations += 1
            budget = state.instantiation_budget
            if budget is not None and stats.instantiations > budget:
                raise ResourceExhausted(
                    f"instantiation budget of {budget} exhausted", state)
        plans = bsrs.alternates[sym.id] = sym.plans()
        if sym.left_recursive:
            state.prel.left_recursive.add(sym.id)
    if state.reverse_alternates:
        plans = tuple(reversed(plans))
    starts = state.starts
    for plan in plans:
        if plan.symbols:
            starts.add((plan.slots[0], l))
        else:
            bsrs.record(plan.slots[0], l, l)
        state.queue.append((plan, 0, l, l))


def _act(state: ParseState, plan: AltPlan, i: int, l: int, r: int) -> None:
    """Effect of descriptor (plan.slots[i], l, r): handle the symbol after the dot."""
    symbols = plan.symbols
    if i == len(symbols):
        ascend((plan.lhs, l), r, state)
        return
    sym = symbols[i]
    if type(sym) is Token:
        _match_token(state, sym, plan, i, l, r)
    else:
        descend(sym, r, plan, i + 1, l, state)


def _match_token(state: ParseState, sym: Token, plan: AltPlan, i: int, l: int,
                 r: int) -> None:
    """Match token sym at r for descriptor (plan.slots[i], l, r): make the
    element and queue the advanced descriptor, or record the failure."""
    inp = state.input
    if r < len(inp) and sym.pattern.classifier(inp[r]) is not None:
        if state.bsrs.record(plan.slots[i + 1], l, r + 1):
            state.queue.append((plan, i + 1, l, r + 1))
    else:
        state.failures.record(r, plan.slots[i])


def descend(sym: Nonterminal, k: int, plan: AltPlan, i: int, l: int,
            state: ParseState) -> None:
    """Register continuation (plan, i, l) on commencement (sym, k); start sym's
    alternates when the commencement is new, else apply the continuation to
    the extents found so far."""
    bsrs = state.bsrs
    rights = bsrs.rights(plan.slots[i], l)
    c = (sym.id, k)
    cont = (plan, i, l, rights)
    new = state.grel.add(c, cont)
    prel = state.prel
    tail = i == len(plan.symbols)
    if prel.links:
        if tail and not rights:
            prel.carry((plan.slots[i], l))
        if not new and c in prel.links:  # called twice: c is linked no more
            prel.unlink(c)
    if new:
        _alternates(state, sym, k)
        # in tail position, c links below the caller if no alternate of c
        # calls c again at once, the run started the caller's nonterminal,
        # and cont is its key's one continuation (key (slot i-1, l, k) calls
        # only (X, k))
        if tail and c[0] not in prel.left_recursive and (
                plan.lhs in bsrs.alternates) and (
                i == 1 or len(bsrs.rights(plan.slots[i - 1], l)) == 1):
            prel.link(c, (plan.lhs, l), cont)
        return
    extents = prel.extents(c)
    queue = state.queue
    made = 0
    for r in extents:
        if r not in rights:
            rights.add(r)
            made += 1
            queue.append((plan, i, l, r))
    bsrs.size += len(extents)
    bsrs.nkeys += made


def ascend(c: tuple[SymbolId, int], r: int, state: ParseState) -> None:
    """Record extent r of c = (X, k); when it is new, apply every continuation
    registered on c (descend has applied a later one to it). A linked c's
    chain records r once and counts the work at each node it reaches as if
    done there; r ascends at the chain's top when it is new there."""
    prel = state.prel
    new = prel.add(c, r)
    if not new:
        return
    if new is not True:
        (c, deepest), d, _, _ = new  # c is the top of the chain now
        known = deepest.get(r, 0)
        if known >= d:
            return
        deepest[r] = d
        bsrs = state.bsrs
        prel.size += d - known
        bsrs.size += d - known
        bsrs.nkeys += d - known
        state.stats.descriptors_skipped += d - known
        if known or not prel.add(c, r):
            return
    conts = state.grel.continuations(c)
    queue = state.queue
    made = 0
    for plan, i, l, rights in conts:
        if r not in rights:
            rights.add(r)
            made += 1
            queue.append((plan, i, l, r))
    bsrs = state.bsrs
    bsrs.size += len(conts)
    bsrs.nkeys += made


def _drive(state: ParseState) -> None:
    """Drain the work queue to quiescence under the configured schedule.

    The fuel budget trips before the first descriptor past it is processed."""
    queue = state.queue
    pop = queue.pop if state.lifo else queue.popleft
    stats = state.stats
    fuel = state.fuel
    while queue:
        if fuel is not None and stats.descriptors_processed >= fuel:
            raise ResourceExhausted(f"fuel budget of {fuel} exhausted", state)
        plan, i, l, r = pop()
        stats.descriptors_processed += 1
        _act(state, plan, i, l, r)
    stats.descriptors_processed += stats.descriptors_skipped  # see Stats


def _start_parse(s: Symbol, input, fuel: Optional[int], lifo: bool,
                 reverse_alternates: bool,
                 instantiation_budget: Optional[int]) -> ParseState:
    if type(s.id) is Applied and s.id.name == START_NAME:
        raise ValueError(f"{START_NAME} is reserved for the artificial start symbol")
    state = ParseState(input, fuel=fuel, lifo=lifo,
                       reverse_alternates=reverse_alternates,
                       instantiation_budget=instantiation_budget)
    # A token start acts as the descriptor __START ::= . s at 0 (not queued,
    # so not counted), so its match ends up in prel; a nonterminal start is
    # read off prel directly, so its continuation is inert and the forest
    # stays free of artificial-start elements.
    if type(s) is Token:
        _act(state, AltPlan(START_ID, (s,)), 0, 0, 0)
    else:
        state.grel.add((s.id, 0), None)
        _alternates(state, s, 0)
    _drive(state)
    return state


def _accept_commencement(s: Symbol) -> Commencement:
    return Commencement(START_ID if type(s) is Token else s.id, 0)


def run_recognize(s: Symbol, input, fuel: Optional[int] = None, lifo: bool = False,
                  reverse_alternates: bool = False,
                  instantiation_budget: Optional[int] = None) -> tuple[bool, ParseState]:
    """Parse the whole input; accepted iff its full extent was derived from 0."""
    state = _start_parse(s, input, fuel, lifo, reverse_alternates,
                         instantiation_budget)
    extents = state.prel.extents_for(_accept_commencement(s))
    return (len(input) in extents, state)


def run_prefix(s: Symbol, input, fuel: Optional[int] = None, lifo: bool = False,
               reverse_alternates: bool = False,
               instantiation_budget: Optional[int] = None) -> tuple[list[int], ParseState]:
    """All right extents reachable from position 0, ascending."""
    state = _start_parse(s, input, fuel, lifo, reverse_alternates,
                         instantiation_budget)
    return (list(state.prel.extents_for(_accept_commencement(s))), state)
