"""Acceptance gate: the nine headline behaviors, each with its stated
tolerance and time budget. Run with -v for one pass/fail line per criterion."""
import itertools
import random
import sys
import time

from gllkit.cli import main as cli_main
from gllkit.dsl import Elaborator, parse_grammar
from gllkit.engine import run_recognize
from gllkit.forest import count_derivations, extract_errors
from gllkit.naive import NaiveInterpreter, naive_run
from gllkit.core import render_slot

from helpers import (
    GRAMMARS,
    brute_count,
    instance_left_recursive,
    is_left_recursive,
    load_grammar,
    random_grammar,
    random_input,
    rendered_state,
)
from test_engine import GOLDEN_DESCRIPTORS, GOLDEN_FOREST

# every engine run made by this module, for the uniqueness criterion
RUN_LOG: list[tuple[int, int]] = []


def checked_run(sym, text, **kwargs):
    accepted, state = run_recognize(sym, text, **kwargs)
    RUN_LOG.append((state.stats.descriptors_processed, len(state.uset)))
    return accepted, state


def start_of(grammar_file, start):
    return Elaborator(load_grammar(grammar_file)).start_symbol(start)


def report(n, text):
    print(f"criterion {n}: pass ({text})")


def test_criterion_1_golden_trace():
    t0 = time.perf_counter()
    accepted, state = checked_run(start_of("e.g", "E"), "a")
    assert accepted
    descrs = {(render_slot(d.slot), d.left, d.right) for d in state.uset}
    forest = {(render_slot(b.slot), b.left, b.pivot, b.right) for b in state.bsrs}
    assert descrs == GOLDEN_DESCRIPTORS
    assert forest == GOLDEN_FOREST
    assert state.stats.descriptors_processed == 16
    assert time.perf_counter() - t0 < 1.0
    report(1, "exact 16-descriptor / 14-element golden trace")


def test_criterion_2_order_independence():
    t0 = time.perf_counter()
    rng = random.Random(90125)
    grammars = 0
    while grammars < 100:
        ast = parse_grammar(random_grammar(rng))
        start = ast.definitions[0].name
        for _ in range(2):
            text = random_input(rng)
            runs = [checked_run(Elaborator(ast).start_symbol(start), text),
                    checked_run(Elaborator(ast).start_symbol(start), text,
                                lifo=True),
                    checked_run(Elaborator(ast).start_symbol(start), text,
                                reverse_alternates=True)]
            base = rendered_state(runs[0][1])
            for _, other in runs[1:]:
                assert rendered_state(other) == base
        grammars += 1
    assert time.perf_counter() - t0 < 30.0
    report(2, f"{grammars} grammars, 3 schedules each, identical state")


def oracle_pairs(rng: random.Random, want: int, params: bool) -> int:
    """Agreement with the naive recognizer on `want` grammar/input pairs of
    random grammars it can run: left-recursive ones are skipped."""
    pairs = 0
    while pairs < want:
        ast = parse_grammar(random_grammar(rng, params=params))
        start = ast.definitions[0].name
        sym = Elaborator(ast).start_symbol(start)
        if is_left_recursive(ast) or instance_left_recursive(sym):
            continue
        rec = NaiveInterpreter(ast).recognizer(start)
        for _ in range(4):
            text = random_input(rng)
            engine_says, _ = checked_run(sym, text)
            assert naive_run(rec, text) == engine_says, (start, text)
            pairs += 1
    return pairs


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20000)  # the CPS oracle nests a call per symbol
    try:
        plain = oracle_pairs(random.Random(5150), 1000, params=False)
        parameterized = oracle_pairs(random.Random(8128), 200, params=True)
    finally:
        sys.setrecursionlimit(limit)
    assert time.perf_counter() - t0 < 60.0
    report(3, f"{plain} grammar/input pairs agree with the naive recognizer, "
              f"and {parameterized} of parameterized grammars")


def test_criterion_4_ambiguity_counts():
    t0 = time.perf_counter()
    elab = Elaborator(load_grammar("expr.g"))
    sym = elab.start_symbol("Expr")
    expected = [1, 1, 2, 5, 14, 42]
    for n, want in zip(range(1, 7), expected):
        text = "a" + "+a" * (n - 1)
        accepted, state = checked_run(sym, text)
        assert accepted
        got = count_derivations(sym, text, state.bsrs, 0, len(text))
        assert got.value == want and not got.saturated
        assert brute_count(elab.ast, "Expr", text) == want
    assert time.perf_counter() - t0 < 5.0
    report(4, "curtailed counts 1,1,2,5,14,42 match brute force")


def test_criterion_5_ambiguous_scaling():
    results = []
    for grammar_file, start in (("s1.g", "S1"), ("s2.g", "S2"), ("e.g", "E")):
        sym = start_of(grammar_file, start)
        times = {}
        for n in (100, 200):
            t0 = time.perf_counter()
            accepted, _ = checked_run(sym, "a" * n)
            times[n] = time.perf_counter() - t0
            assert accepted
        assert times[100] < 60.0, (start, times)
        ratio = times[200] / times[100]
        assert ratio <= 16.0, (start, ratio)
        results.append(f"{start} x{ratio:.1f}")
    report(5, "polynomial growth: " + ", ".join(results))


def test_criterion_6_context_sensitive_examples():
    sym = start_of("list.g", "Start")
    for text, want in (("a", True), ("a(a)", True), ("a(a)((a))", True),
                       ("a(a)(a)", False)):
        accepted, _ = checked_run(sym, text)
        assert accepted == want, text
    # the self-instantiating grammar must trip the default CLI budget
    for text in ("abc", "aabbcc"):
        code = cli_main(["recognize", "--grammar", str(GRAMMARS / "anbncn.g"),
                         "--start", "Start", "--text", text])
        assert code == 2
    report(6, "nested-list language exact; divergent grammar trips the budget")


def permutation_language():
    digits = "1234"
    accepted = set()
    for k in range(5):
        for combo in itertools.combinations(digits, k):
            for perm in itertools.permutations(combo):
                accepted.add("".join(perm))
    return accepted


def test_criterion_7_permutation_phrases():
    language = permutation_language()
    assert len(language) == 65
    sym = start_of("permutation.g", "Start")
    for text in sorted(language):
        accepted, state = checked_run(sym, text)
        assert accepted, text
        count = count_derivations(sym, text, state.bsrs, 0, len(text))
        assert count.value == 1, text
    rejected = 0
    for k in range(2, 5):
        for text in map("".join, itertools.product("1234", repeat=k)):
            if text in language:
                continue
            assert len(set(text)) < len(text)  # every non-member repeats a digit
            accepted, _ = checked_run(sym, text)
            assert not accepted, text
            rejected += 1
    report(7, f"all 65 permutation phrases accepted once, {rejected} repeats rejected")


def test_criterion_8_descriptor_uniqueness():
    assert len(RUN_LOG) > 1900
    assert all(processed == size for processed, size in RUN_LOG)
    report(8, f"{len(RUN_LOG)} runs: effect invocations always equal |uset|")


def test_criterion_9_error_extraction():
    sym = start_of("csv.g", "CSV(alpha)")
    accepted, state = checked_run(sym, "a,!")
    assert not accepted
    reports = extract_errors(state, 3, accepted=accepted)
    assert reports and all(r.position == 2 for r in reports)
    assert any("alpha" in slot for r in reports for slot in r.expected)
    truncated = extract_errors(state, 1, accepted=accepted)
    assert len(truncated) == 1 and truncated == reports[:1]
    report(9, "furthest failure at 2 expecting the alpha slot; truncation holds")
