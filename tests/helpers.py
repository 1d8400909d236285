"""Shared test utilities: random grammar generation, structural analyses of
grammar ASTs, and slow-but-obvious brute-force derivation oracles."""
from __future__ import annotations

import random
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

from gllkit.core import render_id, render_slot
from gllkit.dsl import GrammarAst, Lit, Ref, parse_grammar
from gllkit.engine import Symbol, Token
from gllkit.forest import Leaf

GRAMMARS = Path(__file__).resolve().parent.parent / "grammars"


def load_grammar(name: str) -> GrammarAst:
    return parse_grammar((GRAMMARS / name).read_text())


def random_grammar(rng: random.Random, max_nts: int = 4, max_alts: int = 3,
                   max_len: int = 3, tokens: str = "ab", params: bool = False) -> str:
    """A small random grammar in DSL text form. Nullable and left-recursive
    definitions arise naturally from empty alternates and self-references.

    With params, a definition P(x) is added whose alternates may also use x
    and P(x), and the other definitions may apply P to a token or a name. No
    argument grows, so instantiation stays bounded."""
    names = [f"N{i}" for i in range(rng.randint(1, max_nts))]
    choices = names
    if params:
        choices = names + [f"P({a})" for a in [f"'{t}'" for t in tokens] + names]

    def alternates(choices: list[str]) -> str:
        alts = []
        for _ in range(rng.randint(1, max_alts)):
            syms = []
            for _ in range(rng.randint(0, max_len)):
                if rng.random() < 0.5:
                    syms.append(f"'{rng.choice(tokens)}'")
                else:
                    syms.append(rng.choice(choices))
            alts.append(" ".join(syms))
        return " | ".join(alts)

    lines = [f"{name}: " + alternates(choices) for name in names]
    if params:
        lines.append("P(x): " + alternates(names + ["x", "P(x)"]))
    return "\n".join(lines) + "\n"


def random_input(rng: random.Random, max_len: int = 8, tokens: str = "ab") -> str:
    return "".join(rng.choice(tokens) for _ in range(rng.randint(0, max_len)))


def rendered_state(state) -> tuple:
    """uset, grel, prel and the forest with every slot and commencement id
    rendered, so that runs on separate elaborations, which make separate slots
    and ids, compare equal."""
    def text(t):
        return t if t is None else (render_slot(t[0]),) + tuple(t[1:])

    def commencement(c):
        return (render_id(c[0]),) + tuple(c[1:])
    return (frozenset(map(text, state.uset)),
            frozenset((commencement(c), text(cont)) for c, cont in state.grel.pairs()),
            frozenset((commencement(c), r) for c, r in state.prel.snapshot()),
            frozenset(map(text, state.bsrs)))


def nullable_names(ast: GrammarAst) -> set[str]:
    """Fixpoint of definitions that can derive the empty string
    (non-parameterized definitions only)."""
    nullable: set[str] = set()
    changed = True
    while changed:
        changed = False
        for d in ast.definitions:
            if d.name in nullable:
                continue
            for alt in d.alternates:
                if all(isinstance(s, Ref) and not s.args and s.name in nullable
                       for s in alt):
                    nullable.add(d.name)
                    changed = True
                    break
    return nullable


def is_left_recursive(ast: GrammarAst) -> bool:
    """True iff some definition can reach itself through a left corner,
    counting corners exposed by nullable prefixes."""
    nullable = nullable_names(ast)
    edges: dict[str, set[str]] = {d.name: set() for d in ast.definitions}
    for d in ast.definitions:
        for alt in d.alternates:
            for s in alt:
                if isinstance(s, Lit):
                    break
                edges[d.name].add(s.name)
                if s.name not in nullable:
                    break
    # cycle detection over the left-corner graph
    color: dict[str, int] = {}

    def visit(name: str) -> bool:
        state = color.get(name, 0)
        if state == 1:
            return True
        if state == 2:
            return False
        color[name] = 1
        if any(visit(t) for t in edges.get(name, ())):
            return True
        color[name] = 2
        return False

    return any(visit(d.name) for d in ast.definitions)


def reachable_nonterminals(start: Symbol) -> dict:
    """Id -> symbol of every elaborated nonterminal reachable from start,
    instances of parameterized definitions included."""
    nts: dict = {}
    todo = [start]
    while todo:
        sym = todo.pop()
        if isinstance(sym, Token) or sym.id in nts:
            continue
        nts[sym.id] = sym
        for plan in sym.plans():
            todo.extend(plan.symbols)
    return nts


def instance_left_recursive(start: Symbol) -> bool:
    """is_left_recursive on the elaborated nonterminals reachable from start,
    so that instances of parameterized definitions count too."""
    nts = reachable_nonterminals(start)
    nullable: set = set()
    changed = True
    while changed:
        changed = False
        for sid, sym in nts.items():
            if sid not in nullable and any(all(s.id in nullable for s in plan.symbols)
                                           for plan in sym.plans()):
                nullable.add(sid)
                changed = True
    corners: dict = {sid: set() for sid in nts}
    for sid, sym in nts.items():
        for plan in sym.plans():
            for s in plan.symbols:
                if isinstance(s, Token):
                    break
                corners[sid].add(s.id)
                if s.id not in nullable:
                    break
    try:
        tuple(TopologicalSorter(corners).static_order())
    except CycleError:
        return True
    return False


def chart_extents(start: Symbol, text: str) -> dict:
    """(id, l) -> the set of r such that the nonterminal derives text[l:r],
    for every (id, l) reached from (start, 0) through matched prefixes: a
    least fixpoint over the elaborated alternates that shares nothing with
    the engine, so instances of parameterized definitions are covered too."""
    symbols: dict = {}
    extents: dict = {}

    def reach(sym, l: int) -> set:
        got = extents.get((sym.id, l))
        if got is None:
            symbols.setdefault(sym.id, sym)
            got = extents[(sym.id, l)] = set()
        return got

    reach(start, 0)
    changed = True
    while changed:
        size = sum(map(len, extents.values())), len(extents)
        for sid, l in list(extents):
            for plan in symbols[sid].plans():
                ends = {l}
                for s in plan.symbols:
                    if isinstance(s, Token):
                        ends = {k + 1 for k in ends if k < len(text)
                                and s.pattern.classifier(text[k]) is not None}
                    else:
                        ends = set().union(*[reach(s, k) for k in ends])
                extents[(sid, l)] |= ends
        changed = size != (sum(map(len, extents.values())), len(extents))
    return extents


def brute_count(ast: GrammarAst, start: str, text: str) -> int:
    """Independent derivation counter: direct recursion over the AST with the
    same same-extent curtailment rule the semantic phase uses. Handles only
    non-parameterized definitions."""
    defs = {d.name: d for d in ast.definitions}
    token_decls = {t.name: t.pattern.classifier() for t in ast.tokens}
    memo: dict = {}

    def sym_count(sym, l: int, r: int, visited: frozenset) -> int:
        if isinstance(sym, Lit):
            return 1 if r == l + 1 and text[l] == sym.char else 0
        if sym.name in token_decls:
            return 1 if r == l + 1 and token_decls[sym.name](text[l]) is not None else 0
        return nt_count(sym.name, l, r, visited)

    def nt_count(name: str, l: int, r: int, visited: frozenset) -> int:
        if name in visited:
            return 0
        key = (name, l, r, visited)
        if key in memo:
            return memo[key]
        total = 0
        for alt in defs[name].alternates:
            total += seq_count(alt, 0, l, r, (l, r), visited | {name})
        memo[key] = total
        return total

    def seq_count(alt, i: int, l: int, r: int, parent_extent, visited) -> int:
        if i == len(alt):
            return 1 if l == r else 0
        total = 0
        for mid in range(l, r + 1):
            vis = visited if (l, mid) == parent_extent else frozenset()
            first = sym_count(alt[i], l, mid, vis)
            if first:
                total += first * seq_count(alt, i + 1, mid, r, parent_extent, visited)
        return total

    return nt_count(start, 0, len(text), frozenset())


def random_operator_grammar(rng: random.Random) -> tuple[str, list]:
    """A random expression grammar over E and its precedence groups.

    E has 1-3 binary operators, sometimes a prefix '~' and parentheses, and
    atoms 'a' and sometimes a %digit token; the atoms and parentheses sit
    in E itself or in a second nonterminal P, which may also derive E, a
    cycle that the walk curtails. Some operators are named-pattern tokens
    o{k}, declared by that name. Each operator character appears in one
    alternate only, so a tree node's children name its alternate. The
    groups (assoc, [token names]) come in random order, and some operators
    stay undeclared."""
    ops = rng.sample("+*-^/", rng.randint(1, 3))
    tokens, alts, atoms, names_of = [], [], ["'a'"], {}
    for k, op in enumerate(ops):
        if rng.random() < 0.25:
            tokens.append(f"%token o{k} '{op}'")
            alts.append(f"E o{k} E")
            names_of[op] = f"o{k}"
        else:
            alts.append(f"E '{op}' E")
    if rng.random() < 0.5:
        alts.append("'~' E")
        ops.append("~")
    if rng.random() < 0.5:
        atoms.append("'(' E ')'")
    if rng.random() < 0.5:
        tokens.append("%token num %digit")
        atoms.append("num")
    lines = [*tokens]
    declared = rng.sample(ops, rng.randint(1, len(ops)))
    groups = []
    while declared:
        size = rng.randint(1, len(declared))
        names = [names_of.get(c, f"'{c}'") for c in declared[:size]]
        declared = declared[size:]
        groups.append((rng.choice(["left", "right", "nonassoc"]), names))
    lines += [f"%{assoc} " + " ".join(names) for assoc, names in groups]
    if rng.random() < 0.5:
        cycle = ["E"] if rng.random() < 0.3 else []
        lines += ["E: " + " | ".join(alts + ["P"]), "P: " + " | ".join(atoms + cycle)]
    else:
        lines.append("E: " + " | ".join(alts + atoms))
    return "\n".join(lines) + "\n", groups


def random_expression(rng: random.Random, grammar: str, operands: int) -> str:
    """A random sentence of a random_operator_grammar with that many
    operands."""
    binary = [c for c in "+*-^/" if f"'{c}'" in grammar]
    atoms = "a1" if "%digit" in grammar else "a"

    def expr(n: int) -> str:
        if n == 1:
            out = rng.choice(atoms)
        else:
            k = rng.randint(1, n - 1)
            out = expr(k) + rng.choice(binary) + expr(n - k)
        if "'~'" in grammar and rng.random() < 0.2:
            out = "~" + out
        if "'('" in grammar and rng.random() < 0.2:
            out = "(" + out + ")"
        return out
    return expr(operands)


def precedence_keeps(tree, start: Symbol, groups) -> bool:
    """The precedence rule applied at every node of a built tree. A node's
    alternate is the one whose symbols match its children (the test grammars
    have one). The alternate's operator is its rightmost token declared by
    name, and a child is judged by the operator of the alternate it matched,
    never by its leaf values. A child is refused when its operator binds
    looser, or equally on the side the associativity forbids (either side
    for nonassoc)."""
    levels = {name: (level, assoc)
              for level, (assoc, names) in enumerate(groups) for name in names}
    nts = reachable_nonterminals(start)

    def matches(plan, children) -> bool:
        return len(plan.symbols) == len(children) and all(
            isinstance(s, Token) and s.pattern.classifier(c.value) is not None
            if isinstance(c, Leaf) else s.id is c.symbol
            for s, c in zip(plan.symbols, children))

    def operator(node):
        """(level, assoc, index) of the operator of node's alternate, or None
        for a leaf or an alternate without one."""
        if isinstance(node, Leaf):
            return None
        (plan,) = [p for p in nts[node.symbol].plans() if matches(p, node.children)]
        at = [i for i, s in enumerate(plan.symbols)
              if isinstance(s, Token) and s.id.name in levels]
        return (*levels[plan.symbols[at[-1]].id.name], at[-1]) if at else None

    todo = [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, Leaf):
            continue
        op = operator(node)
        if op is not None:
            level, assoc, at = op
            for i, child in enumerate(node.children):
                child_op = operator(child)
                if child_op is None:
                    continue
                if child_op[0] < level or child_op[0] == level and (
                        assoc == "nonassoc" or (assoc == "left") == (i > at)):
                    return False
        todo.extend(node.children)
    return True
