"""Semantic phase: walk a BSR forest to evaluate, enumerate and count
derivations, with curtailment of cyclic nonterminals, disambiguation filters,
and furthest-failure error reports."""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import islice, product, repeat
from operator import mul
from typing import Callable, NamedTuple, Optional, Sequence

from .core import Slot, SymbolId, render_id, render_slot
from .engine import AltPlan, Symbol, Token, TokenPattern
from .state import BsrSet, ParseState

# Counts saturate here rather than growing without bound on pathological
# forests; the flag in DerivationCount reports when the cap was hit.
COUNT_CAP = 10 ** 30

_NONE: frozenset = frozenset()


@dataclass(frozen=True)
class TreeNode:
    """Nonterminal derivation node spanning input[left:right]."""

    symbol: SymbolId
    left: int
    right: int
    children: tuple

    def render(self) -> str:
        parts = [render_id(self.symbol), str(self.left), str(self.right)]
        parts.extend(c.render() for c in self.children)
        return "(" + " ".join(parts) + ")"

    def to_json(self) -> dict:
        return {"name": render_id(self.symbol), "left": self.left,
                "right": self.right,
                "children": [c.to_json() for c in self.children]}


@dataclass(frozen=True)
class Leaf:
    """Matched token leaf."""

    value: object
    position: int

    def render(self) -> str:
        return f"'{self.value}'@{self.position}"

    def to_json(self) -> dict:
        return {"token": str(self.value), "position": self.position}


@dataclass(frozen=True)
class ErrorReport:
    """One furthest-failure diagnosis: what was expected where."""

    position: int
    expected: tuple[str, ...]
    got: Optional[object]


class DerivationCount(NamedTuple):
    value: int
    saturated: bool


def enumerate_splits(slots: Sequence[Slot], l: int, r: int, bsrs: BsrSet) -> list[tuple[int, ...]]:
    """All boundary vectors (b_0=l, ..., b_n=r) such that symbol i of the
    alternate spans [b_i, b_{i+1}), read off the forest right to left.

    `slots` is the alternate's slot chain: slots[i] has the dot after i
    symbols. The epsilon alternate yields one empty vector when its element
    is present. Vectors come out sorted ascending."""
    n = len(slots) - 1
    if n == 0:
        return [()] if l == r and l in bsrs.pivots(slots[0], l, r) else []
    results: list[tuple[int, ...]] = []

    def walk(i: int, right: int, acc: tuple[int, ...]) -> None:
        if i == 0:
            if right == l:
                results.append((l,) + acc)
            return
        for k in bsrs.pivots(slots[i], l, right):
            walk(i - 1, k, (right,) + acc)

    walk(n, r, ())
    results.sort()
    return results


def _drained(bsrs: BsrSet) -> None:
    """A stopped run's forest holds part of its keys: reading it raises."""
    if bsrs.stopped is not None:
        raise ValueError(f"the forest of a stopped run cannot be read: {bsrs.stopped}")


def evaluate_token(pattern: TokenPattern, input, l: int, r: int) -> list:
    """The token's value when the extents are one apart and it matches."""
    if r == l + 1 and l < len(input) and pattern.classifier(input[l]) is not None:
        return [input[l]]
    return []


def _child_visited(cl: int, cr: int, l: int, r: int,
                   visited: frozenset, sid: SymbolId) -> frozenset:
    # Curtailment: re-entering a nonterminal is only forbidden while the
    # extent pair stays the same; any progress resets the guard.
    if (cl, cr) != (l, r):
        return frozenset()
    return visited | {sid}


def _fold(memo: dict, key, step, args: tuple):
    """memo[key] = step(*args), computed on an explicit stack, so that no
    derivation depth bounds it. A step is a generator function: for each value
    it needs that memo does not hold yet, it yields (key, step, args) and is
    sent that value back, and it returns its own value. Every value is stored
    in memo under its key."""
    stack = [(key, step(*args))]
    value = None
    while stack:
        top, gen = stack[-1]
        try:
            need = gen.send(value)
        except StopIteration as done:
            stack.pop()
            value = memo[top] = done.value
        else:
            key, step, args = need
            stack.append((key, step(*args)))
            value = None
    return value


def evaluate(sym: Symbol, input, bsrs: BsrSet, l: int, r: int) -> list:
    """One semantic value per (curtailed) derivation of input[l:r) at sym:
    alternates in definition order, splits ascending, child values combined
    with the first child varying slowest. Each span's values are computed
    once and shared by every parent that uses the span."""
    _drained(bsrs)
    if isinstance(sym, Token):
        return evaluate_token(sym.pattern, input, l, r)
    memo: dict = {}

    def span(sym, l, r, visited):
        out: list = []
        for plan in bsrs.alternates.get(sym.id, ()):
            for bounds in enumerate_splits(plan.slots, l, r, bsrs):
                child_lists = []
                for i, child in enumerate(plan.symbols):
                    cl, cr = bounds[i], bounds[i + 1]
                    if isinstance(child, Token):
                        vals = evaluate_token(child.pattern, input, cl, cr)
                    else:
                        seen = _child_visited(cl, cr, l, r, visited, sym.id)
                        key = (child.id, cl, cr, seen)
                        vals = [] if child.id in seen else memo.get(key)
                        if vals is None:
                            vals = yield key, span, (child, cl, cr, seen)
                    if not vals:
                        break
                    child_lists.append(vals)
                else:
                    combos = product(*child_lists)
                    if plan.action is None:
                        out.extend(TreeNode(sym.id, l, r, combo) for combo in combos)
                    elif plan.action_kind == "multi":
                        out.extend(plan.action(child_lists))
                    else:
                        out.extend(plan.action(list(combo)) for combo in combos)
        return out

    return _fold(memo, (sym.id, l, r, _NONE), span, (sym, l, r, _NONE))


def _drain(step, node) -> bool:
    """Settle node depth first: step(n) stores the value of n and returns
    None, or returns the node that n waits for. False if one waits on itself."""
    stack, waiting = [node], {node}
    while stack:
        wait = step(stack[-1])
        if wait is None:
            waiting.discard(stack.pop())
        elif wait in waiting:
            return False
        else:
            stack.append(wait)
            waiting.add(wait)
    return True


def count_derivations(sym: Symbol, input, bsrs: BsrSet, l: int, r: int) -> DerivationCount:
    """Curtailed derivation count, saturating at COUNT_CAP.

    A sum-product over the forest keys that the count over l..r may read,
    found top-down by their right ends and grouped by extent (a, b). The prefix
    of key (slot i, a, b) sums, over its pivots k, the prefix of slot i-1
    over a..k times the count of symbol i-1 over k..b; a span's count sums its
    alternates' last prefixes. The groups go by descending a, then ascending
    b, so a group waits only on its own values: the prefix at pivot b, and the
    child at pivot a, which spans the whole extent and alone can be curtailed.
    A group is settled depth first. Only where its values wait on each other
    in a cycle, as in E: E E E | 'a' |, are its spans counted with the ids
    not to re-enter at a..b. Sums and products saturate at COUNT_CAP + 1,
    which leaves them exact below it."""
    _drained(bsrs)
    if isinstance(sym, Token):
        return DerivationCount(len(evaluate_token(sym.pattern, input, l, r)), False)
    cap, alternates, empty, memo = COUNT_CAP + 1, bsrs.alternates, {}, {}
    # a -> slot -> {b: the prefix of key (slot, a, b)} and b -> id -> {a: the
    # count of id over a..b}, None until settled; a -> b -> the group's key
    # slots, each last slot of an alternate followed by its span's id.
    prefixes, spans = defaultdict(dict), defaultdict(lambda: defaultdict(dict))
    groups: dict = defaultdict(lambda: defaultdict(list))
    for (slot, a), rights in bsrs.key_sets():
        prefixes[a][slot], plan = dict.fromkeys(rights), slot.plan
        if slot is plan.slots[-1]:
            for b in rights:
                spans[b][plan.lhs][a] = None
    # Only keys that the count of sym over l..r may read are counted. ends
    # holds the right ends at which a slot or an id is read, whatever the left
    # end: a key (slot i, a, b) reads symbol i-1 at b, and slot i-1 at b - 1
    # after a token, else at each left end of symbol i-1 over ..b.
    ends: dict = defaultdict(set)
    todo = [(sym.id, {r})]
    while todo:
        node, new = todo.pop()
        new = new - ends[node]
        if not new:
            continue
        ends[node] |= new
        if type(node) is not Slot:
            todo.extend((plan.slots[-1], new) for plan in alternates.get(node, ()))
        elif node.i:
            prev, child = node.plan.slots[node.i - 1], node.plan.symbols[node.i - 1]
            if type(child) is not Token:
                todo.append((child.id, new))
            if node.i == 1:
                continue
            if type(child) is Token:
                todo.append((prev, {b - 1 for b in new if b > l}))
            else:
                todo.append((prev, set().union(*[spans[b].get(child.id, empty) for b in new])))
    # A key of slot 1 may wait on the span of its first symbol: list it last.
    for (slot, a), rights in sorted(bsrs.key_sets(), key=lambda e: e[0][0].i == 1):
        plan = slot.plan
        for b in rights & ends[slot] if a >= l else ():
            groups[a][b].append(slot)
            if slot is plan.slots[-1]:
                groups[a][b].append(plan.lhs)

    # settle and curtail read the group's extent a..b and rows pa and sb.
    def settle(node):
        # The value of node, a key's slot or a span's id, kept in its row.
        if type(node) is not Slot:
            if sb[node][a] is None:
                total = 0
                for plan in alternates[node]:
                    got = pa.get(plan.slots[-1], empty).get(b, 0)
                    if got is None:
                        return plan.slots[-1]
                    total += got
                sb[node][a] = min(total, cap)
            return None
        row, i = pa[node], node.i
        if row[b] is not None:
            return None
        plan = node.plan
        before = pa.get(plan.slots[i - 1], empty)
        if i == 0 or type(plan.symbols[i - 1]) is Token:
            row[b] = 1 if i <= 1 else before[b - 1]
            return None
        child = plan.symbols[i - 1].id
        below = sb[child]
        if i == 1:
            row[b] = below[a]
            return None if row[b] is not None else child
        if below.get(a, 0) is None and a in before:
            return child
        if before.get(b, 0) is None and b in below:
            return plan.slots[i - 1]
        if len(before) == 1:  # one pivot, as after a token
            for k in before:
                row[b] = min(before[k] * below[k], cap)
            return None
        ks = before.keys() & below.keys()
        row[b] = min(sum(map(mul, map(before.__getitem__, ks), map(below.__getitem__, ks))), cap)
        return None

    def curtail(node):
        # The value of node = (slot or id, top) that re-enters no id in top
        # at a..b, kept in memo.
        x, top = node
        got = 0
        if type(x) is not Slot:
            for plan in alternates[x]:
                last = plan.slots[-1]
                if b in pa.get(last, empty):
                    value = memo.get((last, top))
                    if value is None:
                        return last, top
                    got += value
        elif x.i == 0:
            got = 1
        elif type(x.plan.symbols[x.i - 1]) is Token:
            got = 1 if x.i == 1 else pa[x.plan.slots[x.i - 1]][b - 1]
        else:
            plan, i = x.plan, x.i
            prev, child = plan.slots[i - 1], plan.symbols[i - 1].id
            before = pa.get(prev, empty) if i > 1 else {a: 1}
            below = sb[child]
            for k in (b, a) if a < b else (a,):  # the pivots in the group
                if k not in before or k not in below:
                    continue
                left = before[k] if k < b else memo.get((prev, top))
                if left is None:
                    return prev, top
                seen = top | {plan.lhs}
                if k == a and child in seen:
                    continue
                value = below[k] if k > a else memo.get((child, seen))
                if value is None:
                    return child, seen
                got += left * value
            ks = before.keys() & below.keys() - {a, b}
            got += sum(map(mul, map(before.__getitem__, ks), map(below.__getitem__, ks)))
        memo[node] = min(got, cap)
        return None

    for a in sorted(groups, reverse=True):
        pa, ga = prefixes[a], groups[a]
        for b in sorted(ga):
            sb, nodes, curtailed = spans[b], ga[b], False
            for node in nodes:
                # A curtailed span reads no prefix of its last slots.
                if curtailed and type(node) is Slot and node is node.plan.slots[-1]:
                    continue
                while settle(node) is not None and not _drain(settle, node):
                    memo.clear()  # a cycle: count the open spans curtailed
                    curtailed = True
                    for x in nodes:
                        if type(x) is not Slot and sb[x][a] is None:
                            _drain(curtail, (x, _NONE))
                            sb[x][a] = memo[(x, _NONE)]
    n = spans[r][sym.id].get(l, 0)
    return DerivationCount(min(n, COUNT_CAP), n > COUNT_CAP)


def iter_trees(sym: Symbol, input, bsrs: BsrSet, l: int, r: int,
               visited: frozenset = frozenset(), classes=None, admitted=None):
    """Lazily yield derivation trees in deterministic order: splits ascending
    by boundary vector, alternates in definition order. With `classes`, a
    RootClasses, only the trees its filter keeps whose root class is in
    `admitted` (any, when None)."""
    if isinstance(sym, Token):
        if evaluate_token(sym.pattern, input, l, r):
            yield Leaf(input[l], l)
        return
    if sym.id in visited:
        return
    splits = (_splits(sym, l, r, bsrs) if classes is None
              else classes.splits(sym, l, r, visited, admitted))
    for plan, bounds, narrowed in splits:
        factories = [
            (lambda child=child, cl=bounds[i], cr=bounds[i + 1], adm=adm:
             iter_trees(child, input, bsrs, cl, cr,
                        _child_visited(cl, cr, l, r, visited, sym.id),
                        classes, adm))
            for i, (child, adm) in enumerate(zip(plan.symbols, narrowed))]
        for combo in _lazy_combos(factories, 0):
            yield TreeNode(sym.id, l, r, combo)


def _splits(sym: Symbol, l: int, r: int, bsrs: BsrSet):
    for plan in bsrs.alternates.get(sym.id, ()):
        for bounds in enumerate_splits(plan.slots, l, r, bsrs):
            yield plan, bounds, repeat(None)


def _lazy_combos(factories: list, i: int):
    if i == len(factories):
        yield ()
        return
    for first in factories[i]():
        for rest in _lazy_combos(factories, i + 1):
            yield (first,) + rest


def extract_trees(sym: Symbol, input, bsrs: BsrSet,
                  limit: Optional[int] = None, filters: Sequence = ()) -> list:
    """Up to `limit` full-extent derivation trees, a prefix of the unlimited
    enumeration; `filters` holds at most one PrecedenceFilter."""
    _drained(bsrs)
    classes = RootClasses(*filters, input, bsrs) if filters else None
    gen = iter_trees(sym, input, bsrs, 0, len(input), frozenset(), classes)
    return list(gen if limit is None else islice(gen, limit))


class PrecedenceFilter:
    """Precedence and associativity declarations, a relation between
    alternates.

    `groups` is the ordered list of (assoc, [token names]) declarations;
    later groups bind tighter. A name is a literal's, quotes included, or a
    declared token's. An alternate's operator is (level, assoc, index) of its
    rightmost token whose name is declared, or None, found once per plan. A
    tree's root class is its root alternate's operator, so the input is never
    read. A child is not admitted when its class binds looser than the
    alternate's operator, or equally on the disallowed side. The tree walk
    applies the filter; count and evaluate do not yet.
    """

    def __init__(self, groups: Sequence[tuple[str, Sequence[str]]]):
        self.levels: dict[str, tuple[int, str]] = {}
        for level, (assoc, names) in enumerate(groups):
            if assoc not in ("left", "right", "nonassoc"):
                raise ValueError(f"unknown associativity {assoc!r}")
            for name in names:
                self.levels[name] = (level, assoc)
        self.operators: dict[AltPlan, Optional[tuple[int, str, int]]] = {}

    def operator(self, plan: AltPlan) -> Optional[tuple[int, str, int]]:
        """The operator of plan, and so the root class of its trees."""
        if plan not in self.operators:
            self.operators[plan] = None
            for i, s in enumerate(plan.symbols):
                if isinstance(s, Token) and s.id.name in self.levels:
                    self.operators[plan] = (*self.levels[s.id.name], i)
        return self.operators[plan]

    def admits(self, plan: AltPlan, i: int, child: Optional[tuple]) -> bool:
        """Whether a tree of root class child may be child i of plan."""
        op = self.operator(plan)
        if op is None or child is None:
            return True
        level, assoc, at = op
        if child[0] != level:
            return child[0] > level
        return assoc == "left" and i < at or assoc == "right" and i > at


class RootClasses:
    """The memo of one tree walk under a PrecedenceFilter: the root classes
    of the kept trees of each span (id, l, r, visited), keyed and curtailed
    as evaluate's spans are."""

    def __init__(self, prec: PrecedenceFilter, input, bsrs: BsrSet):
        self.prec, self.input, self.bsrs, self.memo = prec, input, bsrs, {}

    def _children(self, sym: Symbol, plan: AltPlan, bounds, l, r, visited):
        # A part of a _fold step: per child of the split, the classes that
        # the filter admits there, or None when one child has none.
        admitted: list = []
        for i, child in enumerate(plan.symbols):
            cl, cr = bounds[i], bounds[i + 1]
            if isinstance(child, Token):
                got = [None] if evaluate_token(child.pattern, self.input, cl, cr) else _NONE
            else:
                seen = _child_visited(cl, cr, l, r, visited, sym.id)
                key = (child.id, cl, cr, seen)
                got = _NONE if child.id in seen else self.memo.get(key)
                if got is None:
                    got = yield key, self._span, (child, cl, cr, seen)
            got = [op for op in got if self.prec.admits(plan, i, op)]
            if not got:
                return None
            admitted.append(got)
        return admitted

    def _span(self, sym: Symbol, l: int, r: int, visited: frozenset):
        out = set()
        for plan, bounds, _ in _splits(sym, l, r, self.bsrs):
            if (yield from self._children(sym, plan, bounds, l, r, visited)) is not None:
                out.add(self.prec.operator(plan))
        return frozenset(out)

    def splits(self, sym: Symbol, l: int, r: int, visited: frozenset, admitted):
        """The splits of sym over l..r with a kept tree whose root class is
        in admitted (any, when None), each with its children's admitted
        classes."""
        key = (sym.id, l, r, visited)
        if key not in self.memo:
            _fold(self.memo, key, self._span, (sym, l, r, visited))
        for plan in self.bsrs.alternates.get(sym.id, ()):
            if admitted is not None and self.prec.operator(plan) not in admitted:
                continue
            for bounds in enumerate_splits(plan.slots, l, r, self.bsrs):
                # folding the span read every class that a split needs, so
                # _children returns at once
                children = yield from self._children(sym, plan, bounds, l, r, visited)
                if children is not None:
                    yield plan, bounds, children


def extract_errors(state: ParseState, n: int = 3,
                   accepted: bool = False) -> list[ErrorReport]:
    """Reports for the furthest failed token match: one per distinct slot
    attempted there, sorted by rendered slot, truncated to n. Empty when the
    run accepted (flagging caller misuse) or nothing ever failed."""
    if accepted or state.failures.position < 0:
        return []
    pos = state.failures.position
    rendered = sorted(render_slot(s) for s in state.failures.slots)[:n]
    got = state.input[pos] if pos < len(state.input) else None
    return [ErrorReport(pos, (slot,), got) for slot in rendered]
