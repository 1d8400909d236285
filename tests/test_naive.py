"""The naive continuation-passing recognizer and its agreement with the engine."""
import random
import sys

from gllkit.dsl import Elaborator, parse_grammar
from gllkit.engine import TokenPattern, run_recognize
from gllkit.naive import (
    NaiveInterpreter,
    naive_alternation,
    naive_run,
    naive_sequence,
    naive_token,
)

from helpers import is_left_recursive, load_grammar, random_grammar, random_input


def a_token():
    return naive_token(TokenPattern(lambda t: t if t == "a" else None, "'a'"))


class TestCombinators:
    def test_token_invokes_continuation_at_next_position(self):
        assert a_token()("a", 0, lambda k: k == 1)

    def test_token_classifier_reject(self):
        assert not a_token()("b", 0, lambda k: True)

    def test_token_out_of_range(self):
        assert not a_token()("a", 1, lambda k: True)
        assert not a_token()("", 0, lambda k: True)

    def test_sequence_chains_positions(self):
        seq = naive_sequence([a_token(), a_token()])
        assert naive_run(seq, "aa")
        assert not naive_run(seq, "a")

    def test_alternation_tries_all(self):
        b = naive_token(TokenPattern(lambda t: t if t == "b" else None, "'b'"))
        alt = naive_alternation([a_token(), b])
        assert naive_run(alt, "a") and naive_run(alt, "b")
        assert not naive_run(alt, "c")


class TestInterpreter:
    def test_tuple_language(self):
        oracle = NaiveInterpreter(load_grammar("tuples.g"))
        assert oracle.accepts("AlphaTuples", "(a,b)")
        assert oracle.accepts("AlphaTuples", "()")
        assert not oracle.accepts("AlphaTuples", "(a,)")

    def test_parameterized_instantiation(self):
        oracle = NaiveInterpreter(load_grammar("csv.g"))
        # the oracle handles the non-left-recursive tail only when the
        # recursion bottoms out; use a right-recursive variant instead
        right = NaiveInterpreter(parse_grammar(
            "%token alpha %alpha\nCSV(v): v ',' CSV(v) | v\n"))
        assert right.accepts("CSV(alpha)", "a,b,c")
        assert not right.accepts("CSV(alpha)", "a,b,")
        assert oracle.ast is not right.ast

    def test_words_mode(self):
        oracle = NaiveInterpreter(
            parse_grammar("%token kw 'x'\nS: kw kw\n"), mode="words")
        assert oracle.accepts("S", ["kw", "kw"])
        assert not oracle.accepts("S", ["kw"])


class TestAgreementWithEngine:
    def test_random_non_left_recursive_grammars(self):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(20000)  # the CPS oracle nests a call per symbol
        try:
            rng = random.Random(20260823)
            checked = 0
            while checked < 200:
                ast = parse_grammar(random_grammar(rng))
                if is_left_recursive(ast):
                    continue
                elab = Elaborator(ast)
                oracle = NaiveInterpreter(ast)
                start = ast.definitions[0].name
                sym = elab.start_symbol(start)
                rec = oracle.recognizer(start)
                for _ in range(4):
                    text = random_input(rng)
                    engine_says, _ = run_recognize(sym, text)
                    assert naive_run(rec, text) == engine_says, (start, text)
                checked += 1
        finally:
            sys.setrecursionlimit(limit)
