"""Independent references that every benchmark answer is checked against.

Nothing here reads gllkit's own output to decide what is right: answers come
from construction (Catalan numbers, the left-associative tree, the digit
rule of the permutation language), from direct recursion over the grammar
text (derivation counts, tree validity, the chart recognizer), or from
`gllkit.naive`, the exponential-time oracle that shares no code with the
engine. Each check returns None when the answer is right and a one-line
description of the mismatch otherwise.
"""
from __future__ import annotations

import math
import re
from collections import Counter
from typing import Optional

from gllkit.dsl import GrammarAst, Lit, Ref
from gllkit.naive import NaiveInterpreter


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def check_count(got, want: int, cap: int) -> Optional[str]:
    """`got` is a DerivationCount; counts above `cap` must saturate at it."""
    if want > cap:
        if got.value != cap or not got.saturated:
            return f"count {got} should saturate at {cap} (true count {want})"
        return None
    if got.value != want or got.saturated:
        return f"count {got}, expected {want}"
    return None


def check_verdict(got, want: bool) -> Optional[str]:
    if got is not want:
        return f"verdict {got}, expected {want}"
    return None


# --- trees -------------------------------------------------------------------

def shape(tree):
    """A gllkit tree as nested tuples: (name, left, right, children) for a
    nonterminal node, (value, position) for a token leaf. Iterative, because
    derivation trees can be deeper than Python's recursion limit."""
    done: dict[int, tuple] = {}
    stack = [(tree, False)]
    while stack:
        node, children_done = stack.pop()
        if not hasattr(node, "children"):
            done[id(node)] = (node.value, node.position)
        elif children_done:
            done[id(node)] = (node.symbol.name, node.left, node.right,
                              tuple(done[id(c)] for c in node.children))
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in node.children)
    return done[id(tree)]


def left_assoc_tree(n_operands: int, name: str = "Expr", operand: str = "a",
                    op: str = "+"):
    """The one left-associative tree of `a+a+...+a`, in `shape` form."""
    tree = (name, 0, 1, ((operand, 0),))
    for i in range(1, n_operands):
        pos = 2 * i
        right = (name, pos, pos + 1, ((operand, pos),))
        tree = (name, 0, pos + 1, (tree, (op, pos - 1), right))
    return tree


def render_shape(tree) -> str:
    """`shape` form in the documented text format of `gllkit parse`."""
    if len(tree) == 2:
        return f"'{tree[0]}'@{tree[1]}"
    name, left, right, children = tree
    return "(" + " ".join([name, str(left), str(right)]
                          + [render_shape(c) for c in children]) + ")"


def check_derivation(ast: GrammarAst, start: str, text: str, tree) -> Optional[str]:
    """`tree` (in `shape` form) derives `text` from `start` by the rules of
    the unparameterized grammar `ast`."""
    defs = {d.name: d for d in ast.definitions}
    if len(tree) != 4 or tree[:3] != (start, 0, len(text)):
        return f"root {tree[:3]}, expected ({start}, 0, {len(text)})"
    stack = [tree]
    while stack:
        name, left, right, children = node = stack.pop()
        pos = left
        for child in children:
            if len(child) == 2:
                if child[1] != pos or pos >= len(text) or text[pos] != child[0]:
                    return f"leaf {child} does not match the input at {pos}"
                pos += 1
            else:
                if child[1] != pos or child[2] < pos:
                    return f"child {child[:3]} does not start at {pos}"
                pos = child[2]
                stack.append(child)
        if pos != right:
            return f"children of {node[:3]} end at {pos}"
        if not any(len(alt) == len(children) and all(
                (isinstance(s, Lit) and len(c) == 2 and c[0] == s.char)
                or (isinstance(s, Ref) and len(c) == 4 and c[0] == s.name)
                for s, c in zip(alt, children))
                for alt in defs[name].alternates):
            return f"no alternate of {name} matches the children of {node[:3]}"
    return None


def check_trees(ast: GrammarAst, start: str, text: str, trees: list,
                limit: int, total: int) -> Optional[str]:
    """`trees` are min(limit, total) distinct derivations of `text`."""
    if len(trees) != min(limit, total):
        return f"{len(trees)} trees, expected {min(limit, total)}"
    if len(set(trees)) != len(trees):
        return "repeated tree"
    for tree in trees:
        problem = check_derivation(ast, start, text, tree)
        if problem:
            return problem
    return None


# --- derivation counts ---------------------------------------------------------

def curtailed_count(ast: GrammarAst, start: str, text: str) -> int:
    """Derivations of `text` from `start`, by direct recursion over the
    grammar, where a nonterminal may not re-enter itself over an unchanged
    extent (the curtailment rule gllkit documents for cyclic grammars)."""
    defs = {d.name: d for d in ast.definitions}
    memo: dict = {}

    def nt(name: str, l: int, r: int, visited: frozenset) -> int:
        if name in visited:
            return 0
        key = (name, l, r, visited)
        if key not in memo:
            memo[key] = sum(seq(alt, 0, l, r, (l, r), visited | {name})
                            for alt in defs[name].alternates)
        return memo[key]

    def seq(alt, i: int, l: int, r: int, extent, visited) -> int:
        if i == len(alt):
            return 1 if l == r else 0
        total = 0
        for mid in range(l, r + 1):
            sym = alt[i]
            if isinstance(sym, Lit):
                first = 1 if mid == l + 1 and text[l] == sym.char else 0
            else:
                first = nt(sym.name, l, mid,
                           visited if (l, mid) == extent else frozenset())
            if first:
                total += first * seq(alt, i + 1, mid, r, extent, visited)
        return total

    return nt(start, 0, len(text), frozenset())


def bracketing_values(digits: list[int], ops: list[str]) -> Counter:
    """Multiset of values of `d0 op0 d1 op1 ...` over every bracketing."""
    n = len(digits)
    table: dict[tuple[int, int], Counter] = {}
    for i in range(n):
        table[i, i] = Counter({digits[i]: 1})
    for width in range(1, n):
        for i in range(n - width):
            j = i + width
            out: Counter = Counter()
            for k in range(i, j):
                for a, ca in table[i, k].items():
                    for b, cb in table[k + 1, j].items():
                        v = a + b if ops[k] == "+" else a * b
                        out[v] += ca * cb
            table[i, j] = out
    return table[0, n - 1]


# --- languages given by a direct rule ---------------------------------------------

def permutation_member(text: str) -> bool:
    """permutation.g: digits 1-4, each at most once, in any order."""
    return set(text) <= set("1234") and len(set(text)) == len(text)


def nested_list_member(text: str) -> bool:
    """list.g: element i of the list is 'a' inside i pairs of parentheses."""
    expected = ""
    i = 0
    while len(expected) < len(text):
        expected += "(" * i + "a" + ")" * i
        i += 1
    return i > 0 and expected == text


CSV_RE = re.compile(r"[A-Za-z](?:,[A-Za-z])*")
TUPLE_RE = re.compile(r"\((?:[A-Za-z](?:,[A-Za-z])*)?\)")


def csv_member(text: str) -> bool:
    return CSV_RE.fullmatch(text) is not None


def tuple_member(text: str) -> bool:
    return TUPLE_RE.fullmatch(text) is not None


# --- random grammars --------------------------------------------------------------

def nullable_names(ast: GrammarAst) -> set[str]:
    nullable: set[str] = set()
    changed = True
    while changed:
        changed = False
        for d in ast.definitions:
            if d.name not in nullable and any(
                    all(isinstance(s, Ref) and s.name in nullable for s in alt)
                    for alt in d.alternates):
                nullable.add(d.name)
                changed = True
    return nullable


def left_recursive(ast: GrammarAst) -> bool:
    """Some nonterminal reaches itself through left corners, counting the
    corners exposed by nullable prefixes."""
    nullable = nullable_names(ast)
    corners: dict[str, set[str]] = {d.name: set() for d in ast.definitions}
    for d in ast.definitions:
        for alt in d.alternates:
            for s in alt:
                if isinstance(s, Lit):
                    break
                corners[d.name].add(s.name)
                if s.name not in nullable:
                    break
    for name in corners:
        seen, todo = set(), list(corners[name])
        while todo:
            nxt = todo.pop()
            if nxt == name:
                return True
            if nxt not in seen:
                seen.add(nxt)
                todo.extend(corners[nxt])
    return False


def chart_accepts(ast: GrammarAst, start: str, text: str) -> bool:
    """Least-fixpoint span recognizer: polynomial, and safe on left recursion."""
    n = len(text)
    spans: dict[str, set] = {d.name: set() for d in ast.definitions}
    changed = True
    while changed:
        changed = False
        for d in ast.definitions:
            for alt in d.alternates:
                reach = {(l, l) for l in range(n + 1)}
                for s in alt:
                    if isinstance(s, Lit):
                        reach = {(l, r + 1) for l, r in reach
                                 if r < n and text[r] == s.char}
                    else:
                        ends = spans[s.name]
                        reach = {(l, r2) for l, r in reach
                                 for r1, r2 in ends if r1 == r}
                new = reach - spans[d.name]
                if new:
                    spans[d.name] |= new
                    changed = True
    return (0, n) in spans[start]


NAIVE_BUDGET = 50_000  # token tests; the naive oracle is exponential on some grammars


class OracleBudget(Exception):
    pass


class CountedInput:
    """A string that raises OracleBudget after `budget` calls of len(), which
    the naive oracle makes once per token test."""

    def __init__(self, text: str, budget: int):
        self.text = text
        self.left = budget

    def __len__(self) -> int:
        self.left -= 1
        if self.left < 0:
            raise OracleBudget
        return len(self.text)

    def __getitem__(self, i):
        return self.text[i]


def random_grammar_accepts(ast: GrammarAst, start: str, text: str) -> bool:
    """The naive oracle where it terminates (no left recursion) within
    NAIVE_BUDGET token tests, else the chart recognizer."""
    if not left_recursive(ast):
        try:
            return NaiveInterpreter(ast).accepts(start, CountedInput(text, NAIVE_BUDGET))
        except OracleBudget:
            pass
    return chart_accepts(ast, start, text)


# --- command-line contract ----------------------------------------------------------

EXIT_MISMATCH = "exit code"


def check_exit(code: int, want: int) -> Optional[str]:
    """gllkit's documented exit codes: 0 accept, 1 reject, 2 error or budget.
    A mismatch message starts with EXIT_MISMATCH, so runs can count them."""
    if code != want:
        return f"{EXIT_MISMATCH} {code}, expected {want}"
    return None
