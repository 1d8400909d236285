"""Semantic phase: split enumeration, evaluation, counting, trees, filters,
and furthest-failure error reports."""
import random
from collections import Counter

import pytest

from gllkit.core import (
    Applied,
    Commencement,
    Slot,
    TokenName,
    render_id,
    render_slot,
)
from gllkit.dsl import Elaborator, parse_grammar
from gllkit.state import ResourceExhausted
from gllkit.engine import (
    AltPlan,
    Nonterminal,
    char_token,
    nonterminal_symbol,
    run_recognize,
    TokenPattern,
)
from gllkit.forest import (
    COUNT_CAP,
    Leaf,
    PrecedenceFilter,
    TreeNode,
    count_derivations,
    enumerate_splits,
    evaluate,
    evaluate_token,
    extract_errors,
    extract_trees,
    iter_trees,
)

from helpers import (
    brute_count,
    chart_extents,
    instance_left_recursive,
    load_grammar,
    precedence_keeps,
    random_expression,
    random_grammar,
    random_input,
    random_operator_grammar,
    reachable_nonterminals,
)


def e_symbol():
    a = char_token("a")
    E = Applied("E")
    sym = Nonterminal(E, thunk=lambda: [
        AltPlan(E, (sym, sym, sym)), AltPlan(E, (a,)), AltPlan(E, ())])
    return sym


def expr_elaborator(text="Expr: Expr '+' Expr | 'a'\n"):
    return Elaborator(parse_grammar(text))


class TestEnumerateSplits:
    def test_triple_on_one_token(self):
        sym = e_symbol()
        _, state = run_recognize(sym, "a")
        chain = sym.plans()[0].slots
        got = enumerate_splits(chain, 0, 1, state.bsrs)
        # Exhaustive over the recorded forest: the all-left split, the split
        # with the middle E empty, and the split with only the first E filled.
        assert got == [(0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 1, 1)]

    def test_single_token_alternate(self):
        sym = e_symbol()
        _, state = run_recognize(sym, "a")
        chain = sym.plans()[1].slots
        assert enumerate_splits(chain, 0, 1, state.bsrs) == [(0, 1)]

    def test_epsilon_alternate(self):
        sym = e_symbol()
        _, state = run_recognize(sym, "a")
        chain = sym.plans()[2].slots
        assert enumerate_splits(chain, 0, 0, state.bsrs) == [()]
        assert enumerate_splits(chain, 0, 1, state.bsrs) == []

    def test_vectors_tile_the_extent(self):
        sym = e_symbol()
        _, state = run_recognize(sym, "aaa")
        chain = sym.plans()[0].slots
        for vec in enumerate_splits(chain, 0, 3, state.bsrs):
            assert vec[0] == 0 and vec[-1] == 3
            assert all(x <= y for x, y in zip(vec, vec[1:]))


class TestEvaluateToken:
    def test_match(self):
        pat = TokenPattern(lambda t: t if t == "a" else None, "'a'")
        assert evaluate_token(pat, "a", 0, 1) == ["a"]

    def test_extents_not_adjacent(self):
        pat = TokenPattern(lambda t: t, "any")
        assert evaluate_token(pat, "a", 0, 0) == []
        assert evaluate_token(pat, "a", 0, 2) == []

    def test_classifier_reject(self):
        pat = TokenPattern(lambda t: t if t == "a" else None, "'a'")
        assert evaluate_token(pat, "b", 0, 1) == []


class TestEvaluate:
    def test_token_symbol(self):
        sym = char_token("a")
        _, state = run_recognize(sym, "a")
        assert evaluate(sym, "a", state.bsrs, 0, 1) == ["a"]

    def test_cyclic_grammar_stays_finite(self):
        sym = e_symbol()
        _, state = run_recognize(sym, "a")
        values = evaluate(sym, "a", state.bsrs, 0, 1)
        assert values
        assert len(values) < 100

    def test_actions_receive_children(self):
        a = char_token("a")
        plus = char_token("+")
        E = Applied("Expr")
        sym = Nonterminal(E, thunk=lambda: [
            AltPlan(E, (sym, plus, sym), action=lambda cs: f"({cs[0]}+{cs[2]})"),
            AltPlan(E, (a,), action=lambda cs: "a")])
        text = "a+a+a"
        _, state = run_recognize(sym, text)
        values = evaluate(sym, text, state.bsrs, 0, len(text))
        assert sorted(values) == ["((a+a)+a)", "(a+(a+a))"]

    def test_multi_action_sees_value_lists(self):
        a = char_token("a")
        E = Applied("X")
        sym = Nonterminal(E, thunk=lambda: [
            AltPlan(E, (a,), action=lambda lists: [len(lists[0])],
                    action_kind="multi")])
        _, state = run_recognize(sym, "a")
        assert evaluate(sym, "a", state.bsrs, 0, 1) == [1]


class TestCounting:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 1), (3, 2), (4, 5),
                                            (5, 14), (6, 42)])
    def test_bracketing_counts(self, n, expected):
        elab = expr_elaborator()
        sym = elab.start_symbol("Expr")
        text = "a" + "+a" * (n - 1)
        _, state = run_recognize(sym, text)
        got = count_derivations(sym, text, state.bsrs, 0, len(text))
        assert got.value == expected and not got.saturated
        assert brute_count(elab.ast, "Expr", text) == expected

    def test_count_matches_evaluation_length(self):
        sym = e_symbol()
        for text in ("", "a", "aa"):
            _, state = run_recognize(sym, text)
            count = count_derivations(sym, text, state.bsrs, 0, len(text))
            values = evaluate(sym, text, state.bsrs, 0, len(text))
            assert count.value == len(values)

    def test_rejected_input_counts_zero(self):
        elab = expr_elaborator()
        sym = elab.start_symbol("Expr")
        _, state = run_recognize(sym, "a+")
        assert count_derivations(sym, "a+", state.bsrs, 0, 2).value == 0


def m_twice(shared: bool):
    """S: T M | M | M M, T: (empty), M: 'a' | T 'a', where the first M
    of S's first and third alternates is built as a second object for id M
    unless shared."""
    a = char_token("a")
    t = nonterminal_symbol("T", [], [((),)])
    m = nonterminal_symbol("M", [], [((a,),), ((t, a),)])
    again = m if shared else Nonterminal(
        m.id, plans=[AltPlan(m.id, (a,)), AltPlan(m.id, (t, a))])
    return nonterminal_symbol("S", [], [((t, again),), ((m,),), ((m, again),)])


class TestOneIdTwoObjects:
    """Symbol objects that share an id are one nonterminal: a run starts the
    plans of the first it meets, and the forest walk reads those for all."""

    @pytest.mark.parametrize("text,count", [("a", 4), ("aa", 4)])
    def test_walks_like_one_object(self, text, count):
        walked = []
        for shared in (True, False):
            sym = m_twice(shared)
            accepted, state = run_recognize(sym, text)
            n = len(text)
            walked.append((
                accepted,
                [(render_slot(b.slot), b.left, b.pivot, b.right)
                 for b in state.bsrs.sorted_elements()],
                count_derivations(sym, text, state.bsrs, 0, n).value,
                len(evaluate(sym, text, state.bsrs, 0, n)),
                [t.render() for t in extract_trees(sym, text, state.bsrs)]))
        assert walked[1] == walked[0]
        accepted, _, counted, evaluated, trees = walked[1]
        assert accepted and counted == evaluated == len(trees) == count


SCHEDULES = ({}, {"lifo": True}, {"reverse_alternates": True})
# Above this many derivations, the trees are not built.
TREE_LIMIT = 500


def leaf_text(tree) -> str:
    """The tokens at a tree's leaves, left to right, read without recursion."""
    out, todo = [], [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, Leaf):
            out.append(node.value)
        else:
            todo.extend(reversed(node.children))
    return "".join(out)


def as_evaluated(tree):
    """A tree as evaluate builds it without actions: tokens are their values."""
    if isinstance(tree, Leaf):
        return tree.value
    return TreeNode(tree.symbol, tree.left, tree.right,
                    tuple(as_evaluated(c) for c in tree.children))


def has_duplicate_alternates(sym) -> bool:
    """Two alternates of one reachable nonterminal have the same symbols, so
    their trees are equal: a tree does not record its alternate."""
    return any(len({tuple(s.id for s in p.symbols) for p in nt.plans()}) < len(nt.plans())
               for nt in reachable_nonterminals(sym).values())


def check_forest(sym, text, schedule):
    """The count of one run agrees with its trees and with its evaluation
    without actions; returns the count."""
    accepted, state = run_recognize(sym, text, **schedule)
    n = len(text)
    count = count_derivations(sym, text, state.bsrs, 0, n)
    assert (count.value > 0) == accepted
    if count.saturated or count.value > TREE_LIMIT:
        return count
    trees = extract_trees(sym, text, state.bsrs)
    assert len(trees) == count.value
    assert has_duplicate_alternates(sym) or len(set(trees)) == len(trees)
    assert all(leaf_text(t) == text for t in trees)
    for k in (0, 1, len(trees) // 2 + 1):
        assert extract_trees(sym, text, state.bsrs, limit=k) == trees[:k]
    assert (Counter(evaluate(sym, text, state.bsrs, 0, n))
            == Counter(as_evaluated(t) for t in trees))
    return count


class TestDifferential:
    """On random grammars (nullable, cyclic and left-recursive) and inputs of
    at most 6 tokens, under every schedule: the count equals the number of
    trees, the number of evaluated trees and, without parameters, the
    brute-force count."""

    def test_random_grammars(self):
        rng = random.Random(1999)
        ambiguous = 0
        for _ in range(150):
            ast = parse_grammar(random_grammar(rng))
            start = ast.definitions[0].name
            for _ in range(3):
                text = random_input(rng, max_len=6)
                want = brute_count(ast, start, text)
                for schedule in SCHEDULES:
                    sym = Elaborator(ast).start_symbol(start)
                    got = check_forest(sym, text, schedule)
                    assert got == (min(want, COUNT_CAP), want > COUNT_CAP), (start, text)
                ambiguous += want > 1
        assert ambiguous > 10

    def test_sub_spans(self):
        """Every extent r of every commencement (X, l) counts as X does on
        text[l:r] alone, so the count is right at every span, not only at
        the root."""
        rng = random.Random(1999)
        spans = 0
        for _ in range(150):
            ast = parse_grammar(random_grammar(rng))
            start = ast.definitions[0].name
            for _ in range(3):
                text = random_input(rng, max_len=6)
                for schedule in SCHEDULES:
                    sym = Elaborator(ast).start_symbol(start)
                    _, state = run_recognize(sym, text, **schedule)
                    for x in reachable_nonterminals(sym).values():
                        for l in range(len(text) + 1):
                            for r in state.prel.extents_for(Commencement(x.id, l)):
                                want = brute_count(ast, x.id.name, text[l:r])
                                got = count_derivations(x, text, state.bsrs, l, r)
                                assert got == (min(want, COUNT_CAP), want > COUNT_CAP), (
                                    x.id.name, text, l, r)
                                spans += 1
        assert spans > 1000

    def test_sub_span_extents_are_complete(self):
        """Every commencement (X, l) of a run lists as extents exactly the r
        at which X derives text[l:r], so no extent is lost, nor invented,
        where links leave them implicit: by brute force without parameters,
        else by a chart fixpoint over the elaborated alternates."""
        cases = [(load_grammar("dup.g"), "D", "aaaa"),
                 (load_grammar("tuples.g"), "AlphaTuples", "(a,b,c,d,e,f)"),
                 (load_grammar("tuples.g"), "AlphaTuples", "(a,b,c,"),
                 (load_grammar("list.g"), "Start", "a(a)((a))(((a)))"),
                 (load_grammar("list.g"), "Start", "a(a)((a))((")]
        rng = random.Random(2718)
        for params in (False, True):
            for _ in range(100):
                ast = parse_grammar(random_grammar(rng, params=params))
                cases += [(ast, ast.definitions[0].name, random_input(rng))
                          for _ in range(2)]
        spans = linked = 0
        for ast, start, text in cases:
            plain = all(not d.params for d in ast.definitions)
            for schedule in SCHEDULES:
                sym = Elaborator(ast).start_symbol(start)
                _, state = run_recognize(sym, text, **schedule)
                want = chart_extents(sym, text)
                got = {c for c, _ in state.grel.pairs()}
                assert got == set(want), (start, text)
                for c in got:
                    x, l = c
                    if plain:
                        ends = {r for r in range(l, len(text) + 1)
                                if brute_count(ast, x.name, text[l:r])}
                        assert ends == want[c], (x.name, text, l)
                    assert state.prel.extents_for(c) == sorted(want[c]), (
                        render_id(x), text, l)
                    spans += len(want[c])
                linked += len(state.prel.links)
        assert spans > 3000 and linked > 300

    def test_random_parameterized_grammars(self):
        rng = random.Random(2024)
        ambiguous = left_recursive = 0
        for _ in range(150):
            ast = parse_grammar(random_grammar(rng, params=True))
            start = ast.definitions[0].name
            for _ in range(3):
                text = random_input(rng, max_len=6)
                counts = {check_forest(Elaborator(ast).start_symbol(start), text, schedule)
                          for schedule in SCHEDULES}
                assert len(counts) == 1, (start, text)
                ambiguous += counts.pop().value > 1
            left_recursive += instance_left_recursive(Elaborator(ast).start_symbol(start))
        assert ambiguous > 10 and left_recursive > 10


def left_recursive_l(actions: bool):
    """L: L 'a' | 'a', optionally with actions that count the leaves."""
    a = char_token("a")
    L = Applied("L")
    sym = Nonterminal(L, thunk=lambda: [
        AltPlan(L, (sym, a), action=(lambda cs: cs[0] + 1) if actions else None),
        AltPlan(L, (a,), action=(lambda cs: 1) if actions else None)])
    return sym


def right_recursive_r():
    """R: 'a' R | 'b'. Its forest stays linear on a^n b, where the forest of
    R: 'a' R | 'a' on a^n would hold every one of the n^2 / 2 suffix spans."""
    a, b = char_token("a"), char_token("b")
    R = Applied("R")
    sym = Nonterminal(R, thunk=lambda: [AltPlan(R, (a, sym)), AltPlan(R, (b,))])
    return sym


def nullable_chain(n: int):
    """C0: C1, C1: C2, ..., Cn: 'a' | (empty): over one extent, a chain of
    n + 1 nonterminals, each the only child of the one before, spanning all
    of it."""
    ids = [Applied(f"C{i}") for i in range(n + 1)]
    syms = [Nonterminal(ids[n], thunk=lambda: [AltPlan(ids[n], (char_token("a"),)),
                                               AltPlan(ids[n], ())])]
    for i in range(n - 1, -1, -1):
        syms.append(Nonterminal(ids[i], thunk=lambda i=i, child=syms[-1]: [
            AltPlan(ids[i], (child,))]))
    return syms[-1]


class TestDepth:
    """Count groups the forest keys by extent and settles each group on an
    explicit stack, and evaluate folds on one, so a derivation deeper than
    the interpreter's stack limit is read back whole: down a long chain of
    extents, left or right, and down a long chain inside one extent."""

    TEXT = "a" * 3000

    def test_count_left_recursive(self):
        sym = left_recursive_l(actions=False)
        _, state = run_recognize(sym, self.TEXT)
        assert count_derivations(sym, self.TEXT, state.bsrs, 0, 3000) == (1, False)

    def test_evaluate_left_recursive_with_actions(self):
        sym = left_recursive_l(actions=True)
        _, state = run_recognize(sym, self.TEXT)
        assert evaluate(sym, self.TEXT, state.bsrs, 0, 3000) == [3000]

    def test_evaluate_left_recursive_tree(self):
        sym = left_recursive_l(actions=False)
        _, state = run_recognize(sym, self.TEXT)
        (tree,) = evaluate(sym, self.TEXT, state.bsrs, 0, 3000)
        for right in range(3000, 1, -1):
            assert (tree.left, tree.right) == (0, right)
            tree, token = tree.children
            assert token == "a"
        assert tree == TreeNode(sym.id, 0, 1, ("a",))

    def test_count_right_recursive(self):
        sym = right_recursive_r()
        text = "a" * 2999 + "b"
        _, state = run_recognize(sym, text)
        assert count_derivations(sym, text, state.bsrs, 0, 3000) == (1, False)

    @pytest.mark.parametrize("text", ["", "a"])
    def test_count_same_extent_chain(self, text):
        sym = nullable_chain(3000)
        _, state = run_recognize(sym, text)
        assert count_derivations(sym, text, state.bsrs, 0, len(text)) == (1, False)

    def test_count_deep_tuple(self):
        sym = Elaborator(load_grammar("tuples.g")).start_symbol("AlphaTuples")
        text = "(" + ",".join("a" * 600) + ")"
        _, state = run_recognize(sym, text)
        assert count_derivations(sym, text, state.bsrs, 0, len(text)) == (1, False)


class TestTrees:
    def test_two_bracketings(self):
        sym = expr_elaborator().start_symbol("Expr")
        _, state = run_recognize(sym, "a+a+a")
        trees = extract_trees(sym, "a+a+a", state.bsrs)
        rendered = sorted(t.render() for t in trees)
        assert len(trees) == 2
        assert rendered == [
            "(Expr 0 5 (Expr 0 1 'a'@0) '+'@1 (Expr 2 5 (Expr 2 3 'a'@2) "
            "'+'@3 (Expr 4 5 'a'@4)))",
            "(Expr 0 5 (Expr 0 3 (Expr 0 1 'a'@0) '+'@1 (Expr 2 3 'a'@2)) "
            "'+'@3 (Expr 4 5 'a'@4))",
        ]

    def test_unambiguous_instance(self):
        elab = Elaborator(load_grammar("csv.g"))
        sym = elab.start_symbol("CSV(alpha)")
        _, state = run_recognize(sym, "v,v")
        trees = extract_trees(sym, "v,v", state.bsrs)
        assert len(trees) == 1

        def leaves(t):
            if isinstance(t, Leaf):
                return [t]
            return [x for c in t.children for x in leaves(c)]

        assert len(leaves(trees[0])) == 3

    def test_limit_is_a_prefix(self):
        sym = expr_elaborator().start_symbol("Expr")
        _, state = run_recognize(sym, "a+a+a")
        all_trees = extract_trees(sym, "a+a+a", state.bsrs)
        first = extract_trees(sym, "a+a+a", state.bsrs, limit=1)
        assert first == all_trees[:1]

    def test_iter_trees_is_lazy(self):
        sym = e_symbol()
        _, state = run_recognize(sym, "a")
        gen = iter_trees(sym, "a", state.bsrs, 0, 1)
        assert next(gen) is not None

    def test_json_shape(self):
        sym = expr_elaborator().start_symbol("Expr")
        _, state = run_recognize(sym, "a")
        (tree,) = extract_trees(sym, "a", state.bsrs)
        assert tree.to_json() == {
            "name": "Expr", "left": 0, "right": 1,
            "children": [{"token": "a", "position": 0}]}


def prec(groups):
    return PrecedenceFilter(groups)


class TestFilters:
    def test_left_assoc_keeps_left_leaning(self):
        elab = expr_elaborator("%left '+'\nExpr: Expr '+' Expr | 'a'\n")
        sym = elab.start_symbol("Expr")
        _, state = run_recognize(sym, "a+a+a")
        flt = [elab.precedence_filter()]
        trees = extract_trees(sym, "a+a+a", state.bsrs, filters=flt)
        assert len(trees) == 1
        assert trees[0].children[0].right == 3  # left operand spans a+a
        assert count_derivations(sym, "a+a+a", state.bsrs, 0, 5, filters=flt).value == 1

    def test_right_assoc_keeps_right_leaning(self):
        elab = expr_elaborator("%right '+'\nExpr: Expr '+' Expr | 'a'\n")
        sym = elab.start_symbol("Expr")
        _, state = run_recognize(sym, "a+a+a")
        flt = [elab.precedence_filter()]
        trees = extract_trees(sym, "a+a+a", state.bsrs, filters=flt)
        assert len(trees) == 1
        assert trees[0].children[0].right == 1
        assert count_derivations(sym, "a+a+a", state.bsrs, 0, 5, filters=flt).value == 1

    def test_nonassoc_rejects_nesting(self):
        elab = expr_elaborator("%nonassoc '+'\nExpr: Expr '+' Expr | 'a'\n")
        sym = elab.start_symbol("Expr")
        _, state = run_recognize(sym, "a+a+a")
        flt = [elab.precedence_filter()]
        assert extract_trees(sym, "a+a+a", state.bsrs, filters=flt) == []
        assert count_derivations(sym, "a+a+a", state.bsrs, 0, 5, filters=flt).value == 0

    def test_precedence_orders_operators(self):
        text = ("%left '+'\n%left '*'\n"
                "Expr: Expr '+' Expr | Expr '*' Expr | 'a'\n")
        elab = expr_elaborator(text)
        sym = elab.start_symbol("Expr")
        _, state = run_recognize(sym, "a+a*a")
        trees = extract_trees(sym, "a+a*a", state.bsrs,
                              filters=[elab.precedence_filter()])
        assert len(trees) == 1
        # '*' binds tighter: the '+' node is the root
        root_ops = [c.value for c in trees[0].children if isinstance(c, Leaf)]
        assert root_ops == ["+"]

    def test_no_filters_is_identity(self):
        elab = expr_elaborator("%left '+'\nExpr: Expr '+' Expr | 'a'\n")
        sym = elab.start_symbol("Expr")
        text = "a+a+a+a"
        _, state = run_recognize(sym, text)
        trees = extract_trees(sym, text, state.bsrs)
        assert extract_trees(sym, text, state.bsrs, filters=[]) == trees
        assert len(set(trees)) == len(trees) == 5

    def test_filters_are_contractive_and_idempotent(self):
        """The filtered trees are a subsequence of the unfiltered ones, and
        the rule keeps each of them."""
        groups = [("left", ["'+'"]), ("right", ["'*'"])]
        elab = expr_elaborator("Expr: Expr '+' Expr | Expr '*' Expr | 'a'\n")
        sym = elab.start_symbol("Expr")
        text = "a*a+a*a+a"
        _, state = run_recognize(sym, text)
        every = iter(extract_trees(sym, text, state.bsrs))
        kept = extract_trees(sym, text, state.bsrs, filters=[prec(groups)])
        assert len(kept) == 1 and all(t in every for t in kept)
        assert all(precedence_keeps(t, sym, groups) for t in kept)


class TestPrecedenceDifferential:
    """On random operator grammars, the filtered trees are the unfiltered
    enumeration kept by the rule applied at every node of each built tree,
    in the same order, and a limit gives a prefix of them."""

    def test_random_operator_grammars(self):
        rng = random.Random(2020)
        pruned = kept = 0
        for _ in range(300):
            text, groups = random_operator_grammar(rng)
            elab = Elaborator(parse_grammar(text))
            sym = elab.start_symbol("E")
            for _ in range(2):
                sentence = random_expression(rng, text, rng.randint(1, 5))
                accepted, state = run_recognize(sym, sentence)
                assert accepted, (text, sentence)
                count = count_derivations(sym, sentence, state.bsrs, 0, len(sentence))
                if count.value > TREE_LIMIT:
                    continue
                every = extract_trees(sym, sentence, state.bsrs)
                want = [t for t in every if precedence_keeps(t, sym, groups)]
                flt = [elab.precedence_filter()]
                got = extract_trees(sym, sentence, state.bsrs, filters=flt)
                assert got == want, (text, sentence)
                assert count_derivations(sym, sentence, state.bsrs, 0, len(sentence),
                                         filters=flt).value == len(got), (text, sentence)
                for k in (0, 1, len(want) // 2 + 1):
                    assert extract_trees(sym, sentence, state.bsrs, limit=k,
                                         filters=flt) == want[:k]
                pruned += len(want) < len(every)
                kept += len(want) > 1
        assert pruned > 100 and kept > 20


class TestStoppedRun:
    def test_forest_calls_on_a_stopped_run_raise(self):
        """A run that a budget stopped holds part of its keys, so count,
        trees and values of it would be wrong; reading them raises. The
        drained run counts 1,430, C(8)."""
        sym = Elaborator(load_grammar("s1.g")).start_symbol("S1")
        text = "a" * 8
        _, state = run_recognize(sym, text)
        assert count_derivations(sym, text, state.bsrs, 0, 8).value == 1430
        for fuel in (10, 40, 80):
            with pytest.raises(ResourceExhausted) as trip:
                run_recognize(sym, text, fuel=fuel)
            bsrs = trip.value.state.bsrs
            assert bsrs.stopped == f"fuel budget of {fuel} exhausted"
            for call in (lambda: count_derivations(sym, text, bsrs, 0, 8),
                         lambda: extract_trees(sym, text, bsrs),
                         lambda: evaluate(sym, text, bsrs, 0, 8)):
                with pytest.raises(ValueError, match="stopped run"):
                    call()


class TestErrors:
    def test_single_expected_token(self):
        sym = e_symbol()
        accepted, state = run_recognize(sym, "b")
        reports = extract_errors(state, 3, accepted=accepted)
        assert len(reports) == 1
        assert reports[0].position == 0
        assert reports[0].expected == ("E ::= . 'a'",)
        assert reports[0].got == "b"

    def test_failure_beyond_last_good_token(self):
        elab = Elaborator(load_grammar("csv.g"))
        sym = elab.start_symbol("CSV(alpha)")
        accepted, state = run_recognize(sym, "v,!")
        reports = extract_errors(state, 3, accepted=accepted)
        assert reports[0].position == 2
        assert any("alpha" in s for r in reports for s in r.expected)
        assert reports[0].got == "!"

    def test_truncation(self):
        elab = Elaborator(load_grammar("csv.g"))
        sym = elab.start_symbol("CSV(alpha)")
        accepted, state = run_recognize(sym, "v,!")
        full = extract_errors(state, 3, accepted=accepted)
        one = extract_errors(state, 1, accepted=accepted)
        assert len(one) == 1 and one == full[:1]

    def test_accepted_run_returns_nothing(self):
        sym = e_symbol()
        accepted, state = run_recognize(sym, "a")
        assert extract_errors(state, 3, accepted=accepted) == []

    def test_end_of_input_has_no_got(self):
        elab = Elaborator(load_grammar("csv.g"))
        sym = elab.start_symbol("CSV(alpha)")
        accepted, state = run_recognize(sym, "v,")
        reports = extract_errors(state, 3, accepted=accepted)
        assert reports[0].position == 2
        assert reports[0].got is None
