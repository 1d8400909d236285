"""Semantic phase: count, evaluate and enumerate the derivations of a BSR
forest, curtailing cyclic nonterminals; one count table per precedence root
class also narrows the filtered tree walk; furthest-failure error reports."""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import islice, product
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


class _Counts:
    """The curtailed tree counts of the spans that the count of sym over l..r
    may read, with one row per root class of at most one PrecedenceFilter.

    A row counts an id's trees whose root alternate has one operator c: it
    is the id itself for c None, else (id, c). The prefix of key (slot i, a,
    b), a scalar, sums over its pivots k the prefix of slot i-1 over a..k
    times the count over k..b of the rows of symbol i-1 that the filter
    admits there; a row sums the last prefixes of its alternates. The keys
    that the root may read, found top-down by their right ends, are grouped
    by extent (a, b): by descending a, then ascending b, a group waits only
    on its own values, the prefix at pivot b and the child at pivot a, which
    spans the whole extent and alone can be curtailed. A group is settled
    depth first. Only where its values wait on each other in a cycle, as in
    E: E E E | 'a' |, are its rows counted with the ids not to re-enter at
    a..b, values kept per group for the tree walk. Sums and products
    saturate at COUNT_CAP + 1, which leaves them exact below it."""

    def __init__(self, sym: Symbol, bsrs: BsrSet, l: int, r: int,
                 prec: Optional[PrecedenceFilter] = None):
        cap, empty = COUNT_CAP + 1, {}
        # plan -> its row, row -> its plans' last slots, id -> its rows, slot i of a
        # plan -> (slot i-1, None at i <= 1; the rows of symbol i-1 that the
        # filter admits there, None at slot 0 and after a token).
        row_of, lasts, rows, steps = {}, defaultdict(list), {}, {}
        for x, alternates in bsrs.alternates.items():
            for plan in alternates:
                op = prec.operator(plan) if prec else None
                row_of[plan] = x if op is None else (x, op)
                lasts[row_of[plan]].append(plan.slots[-1])
            rows[x] = list(dict.fromkeys(row_of[plan] for plan in alternates))
        for plan in row_of:
            steps[plan.slots[0]] = (None, None)
            for i, s in enumerate(plan.symbols):
                reads = None if type(s) is Token else [
                    y for y in rows.get(s.id, ())
                    if prec is None or prec.admits(plan, i, None if y is s.id else y[1])]
                steps[plan.slots[i + 1]] = (plan.slots[i] if i else None, reads)
        # a -> slot -> {b: the prefix of key (slot, a, b)} and b -> row -> {a:
        # the count of row over a..b}, None until settled; a -> b -> the
        # group's key slots, each last slot of an alternate followed by its row.
        prefixes, spans = defaultdict(dict), defaultdict(lambda: defaultdict(dict))
        groups, cyclic = defaultdict(lambda: defaultdict(list)), {}
        # A key of slot 1 may wait on the span of its first symbol: list it last.
        keys = sorted(bsrs.key_sets(), key=lambda e: e[0][0].i == 1)
        for (slot, a), rights in keys:
            prefixes[a][slot], plan = dict.fromkeys(rights), slot.plan
            if slot is plan.slots[-1]:
                for b in rights:
                    spans[b][row_of[plan]][a] = None
        # ends holds the right ends at which a slot or a row is read, whatever
        # the left end: a key (slot i, a, b) reads the admitted rows of symbol
        # i-1 at b, and slot i-1 at b - 1 after a token, else at each left end
        # of those rows over ..b.
        ends: dict = defaultdict(set)
        todo = [(row, {r}) for row in rows.get(sym.id, ())]
        while todo:
            node, new = todo.pop()
            new = new - ends[node]
            if not new:
                continue
            ends[node] |= new
            if type(node) is not Slot:
                todo.extend((last, new) for last in lasts[node])
            else:
                prev, reads = steps[node]
                todo.extend((row, new) for row in reads or ())
                if prev is None:
                    continue
                if reads is None:
                    todo.append((prev, {b - 1 for b in new if b > l}))
                else:
                    todo.append((prev, set().union(*[spans[b].get(row, empty)
                                                     for b in new for row in reads])))
        for (slot, a), rights in keys:
            if a >= l:
                ga, plan = groups[a], slot.plan
                nodes = (slot, row_of[plan]) if slot is plan.slots[-1] else (slot,)
                for b in rights & ends[slot]:
                    ga[b].extend(nodes)

        # settle and curtail read the group's extent a..b, rows pa and sb, and
        # its memo of curtailed values.
        def settle(node):
            # The value of node, a key's slot or a row, kept in its row.
            if type(node) is not Slot:
                if sb[node][a] is None:
                    total = 0
                    for last in lasts[node]:
                        got = pa.get(last, empty).get(b, 0)
                        if got is None:
                            return last
                        total += got
                    sb[node][a] = min(total, cap)
                return None
            row = pa[node]
            if row[b] is not None:
                return None
            prev, reads = steps[node]
            if reads is None:  # slot 0, or after a token
                row[b] = 1 if prev is None else pa[prev][b - 1]
                return None
            got = 0
            if prev is None:  # slot 1: its symbol's count over a..b
                for child in reads:
                    value = sb[child].get(a, 0)
                    if value is None:
                        return child
                    got += value
                row[b] = min(got, cap)
                return None
            before = pa.get(prev, empty)
            for child in reads:
                below = sb[child]
                if a in before and below.get(a, 0) is None:
                    return child
                if b in below and before.get(b, 0) is None:
                    return prev
                if len(before) == 1:  # one pivot, as after a token
                    for k in before:
                        if k in below:
                            got += before[k] * below[k]
                else:
                    ks = before.keys() & below.keys()
                    got += sum(map(mul, map(before.__getitem__, ks), map(below.__getitem__, ks)))
            row[b] = min(got, cap)
            return None

        def curtail(node):
            # The value of node = (slot or row, top) that re-enters no id in
            # top at a..b, kept in memo.
            x, top = node
            got = 0
            if type(x) is not Slot:
                for last in lasts[x]:
                    if b in pa.get(last, empty):
                        value = memo.get((last, top))
                        if value is None:
                            return last, top
                        got += value
            elif (step := steps[x])[1] is None:
                got = 1 if step[0] is None else pa[step[0]][b - 1]
            else:
                prev, reads = step
                before = pa[prev] if prev else {a: 1}
                child, seen = x.plan.symbols[x.i - 1].id, top | {x.plan.lhs}
                for row in reads:
                    below = sb[row]
                    for k in (b, a) if a < b else (a,):  # the pivots in the group
                        if k not in before or k not in below:
                            continue
                        left = before[k] if k < b or prev is None else memo.get((prev, top))
                        if left is None:
                            return prev, top
                        if k == a and child in seen:
                            continue
                        value = below[k] if k > a else memo.get((row, seen))
                        if value is None:
                            return row, seen
                        got += left * value
                    ks = before.keys() & below.keys() - {a, b}
                    got += sum(map(mul, map(before.__getitem__, ks), map(below.__getitem__, ks)))
            memo[node] = min(got, cap)
            return None

        for a in sorted(groups, reverse=True):
            pa, ga = prefixes[a], groups[a]
            for b in sorted(ga):
                sb, nodes, memo = spans[b], ga[b], None
                for node in nodes:
                    # A curtailed span reads no prefix of its last slots.
                    if memo is not None and type(node) is Slot and node is node.plan.slots[-1]:
                        continue
                    while settle(node) is not None and not _drain(settle, node):
                        # a cycle: count the open spans curtailed
                        memo = cyclic[a, b] = {}
                        for x in nodes:
                            if type(x) is not Slot and sb[x][a] is None:
                                _drain(curtail, (x, _NONE))
                                sb[x][a] = memo[(x, _NONE)]
        self.row_of, self.rows, self.steps = row_of, rows, steps
        self.spans, self.cyclic = spans, cyclic

    def kept(self, plan: AltPlan, i: int, a: int, b: int, seen: frozenset):
        """The admitted rows of symbol i of plan over a..b that hold a tree not
        re-entering seen; None for a token. An entry never settled (None) is
        read only at a split without a tree."""
        reads = self.steps[plan.slots[i + 1]][1]
        if reads is None or plan.symbols[i].id in seen:
            return reads and []
        memo, spans = self.cyclic.get((a, b), {}), self.spans[b]
        return [x for x in reads if memo.get((x, seen), spans[x].get(a))]


def count_derivations(sym: Symbol, input, bsrs: BsrSet, l: int, r: int,
                      filters: Sequence = ()) -> DerivationCount:
    """Curtailed derivation count, saturating at COUNT_CAP; `filters` holds
    at most one PrecedenceFilter, and then only the trees it keeps count."""
    _drained(bsrs)
    if isinstance(sym, Token):
        return DerivationCount(len(evaluate_token(sym.pattern, input, l, r)), False)
    counts = _Counts(sym, bsrs, l, r, *filters)
    n = sum(counts.spans[r][row].get(l, 0) for row in counts.rows.get(sym.id, ()))
    return DerivationCount(min(n, COUNT_CAP), n > COUNT_CAP)


def iter_trees(sym: Symbol, input, bsrs: BsrSet, l: int, r: int,
               visited: frozenset = frozenset(), counts: Optional[_Counts] = None,
               admitted=None):
    """Lazily yield derivation trees in deterministic order: splits ascending
    by boundary vector, alternates in definition order. With `counts`, the
    table of a filtered count, only the trees it counts whose root row is in
    `admitted` (any, when None): a split is skipped when a child has no
    admitted row with a tree, and each child is narrowed to those rows."""
    if isinstance(sym, Token):
        if evaluate_token(sym.pattern, input, l, r):
            yield Leaf(input[l], l)
        return
    if sym.id in visited:
        return
    for plan in bsrs.alternates.get(sym.id, ()):
        if admitted is not None and counts.row_of[plan] not in admitted:
            continue
        for bounds in enumerate_splits(plan.slots, l, r, bsrs):
            factories = []
            for i, child in enumerate(plan.symbols):
                cl, cr = bounds[i], bounds[i + 1]
                seen = _child_visited(cl, cr, l, r, visited, sym.id)
                rows = counts.kept(plan, i, cl, cr, seen) if counts else None
                if rows == []:
                    break
                factories.append(partial(iter_trees, child, input, bsrs, cl, cr,
                                         seen, counts, rows))
            else:
                for combo in _lazy_combos(factories, 0):
                    yield TreeNode(sym.id, l, r, combo)


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
    enumeration; `filters` holds at most one PrecedenceFilter, whose count
    table is built once and narrows the walk."""
    _drained(bsrs)
    counts = _Counts(sym, bsrs, 0, len(input), *filters) if filters else None
    gen = iter_trees(sym, input, bsrs, 0, len(input), frozenset(), counts)
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
    alternate's operator, or equally on the disallowed side. count and the
    tree walk apply the filter through one count table; evaluate does not.
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
