"""Tests of the benchmark itself: every reference rejects a wrong answer,
every workload's checks pass right answers and catch wrong ones, and traced
self times add up to the request span.

    python3 -m pytest perfbench
"""
import random
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402
from gllkit.forest import COUNT_CAP, DerivationCount  # noqa: E402

import reference as ref  # noqa: E402
import run as bench  # noqa: E402
from layers import Layers, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Request, grammar_text  # noqa: E402


def load(layers, name, start):
    return layers.load(grammar_text(name), start)


# --- references ------------------------------------------------------------------

def test_count_reference():
    assert ref.check_count(DerivationCount(42, False), ref.catalan(5), COUNT_CAP) is None
    assert ref.check_count(DerivationCount(43, False), ref.catalan(5), COUNT_CAP)
    assert ref.check_count(DerivationCount(42, True), ref.catalan(5), COUNT_CAP)
    big = ref.catalan(70)
    assert ref.check_count(DerivationCount(COUNT_CAP, True), big, COUNT_CAP) is None
    assert ref.check_count(DerivationCount(COUNT_CAP, False), big, COUNT_CAP)


def test_verdict_reference():
    assert ref.check_verdict(True, True) is None
    assert ref.check_verdict(False, True)
    assert ref.check_verdict(None, False)


def test_curtailed_count_reference():
    ast = load(Layers(), "expr.g", "Expr")[0].ast
    for k in range(1, 7):
        assert ref.curtailed_count(ast, "Expr", "+".join("a" * k)) == ref.catalan(k - 1)
    s1 = load(Layers(), "s1.g", "S1")[0].ast
    assert ref.curtailed_count(s1, "S1", "aaaa") == ref.catalan(4)


def s1_trees(text, limit):
    layers = Layers()
    _elab, sym = load(layers, "s1.g", "S1")
    _acc, state, _t = layers.recognize(sym, text)
    return [ref.shape(t) for t in layers.trees(sym, text, state.bsrs, limit)]


def test_tree_reference_accepts_gllkit_trees_and_rejects_tampered_ones():
    ast = load(Layers(), "s1.g", "S1")[0].ast
    trees = s1_trees("aaa", 10)
    assert ref.check_trees(ast, "S1", "aaa", trees, 10, ref.catalan(3)) is None
    assert ref.check_trees(ast, "S1", "aaa", trees[:-1], 10, ref.catalan(3))
    assert ref.check_trees(ast, "S1", "aaa", trees[:1] * 5, 5, ref.catalan(3))
    name, left, right, children = trees[0]
    wrong_leaf = (name, left, right, (("b", 0),) + children[1:])
    wrong_symbol = ("S2", left, right, children)
    no_children = (name, left, right, ())
    for tree in (wrong_leaf, wrong_symbol, no_children):
        assert ref.check_derivation(ast, "S1", "aaa", tree), tree


def test_left_assoc_reference():
    layers = Layers()
    elab, sym = load(layers, "expr_left.g", "Expr")
    text = "a+a+a+a"
    _acc, state, _t = layers.recognize(sym, text)
    trees = layers.trees(sym, text, state.bsrs, 1, [elab.precedence_filter()])
    assert [ref.shape(t) for t in trees] == [ref.left_assoc_tree(4)]
    assert ref.render_shape(ref.left_assoc_tree(4)) == trees[0].render()
    unfiltered = layers.trees(sym, text, state.bsrs, 5)
    assert [ref.shape(t) for t in unfiltered] != [ref.left_assoc_tree(4)] * 5


def test_bracketing_reference():
    assert ref.bracketing_values([1, 2, 3], ["+", "*"]) == Counter({9: 1, 7: 1})
    assert sum(ref.bracketing_values([1] * 6, ["+"] * 5).values()) == ref.catalan(5)


@pytest.mark.parametrize("member, yes, no", [
    (ref.permutation_member, ["", "1", "4213"], ["11", "1231", "5"]),
    (ref.nested_list_member, ["a", "a(a)", "a(a)((a))"], ["", "a(a)(a)", "a((a))"]),
    (ref.csv_member, ["a", "a,b,c"], ["", "a,,b", "a,", "1"]),
    (ref.tuple_member, ["()", "(a)", "(a,b)"], ["(", "(a,)", "(,a)", "a"]),
])
def test_language_references(member, yes, no):
    assert all(member(t) for t in yes)
    assert not any(member(t) for t in no)


def test_random_grammar_references_agree():
    from gllkit.dsl import parse_grammar
    from workloads import random_grammar, random_input
    rng = random.Random(7)
    checked = 0
    while checked < 50:
        ast = parse_grammar(random_grammar(rng))
        if ref.left_recursive(ast):
            continue
        text = random_input(rng)
        start = ast.definitions[0].name
        assert ref.chart_accepts(ast, start, text) == \
            ref.random_grammar_accepts(ast, start, text)
        checked += 1
    # naive explores every derivation of the doubled empty alternate of N2
    blowup = parse_grammar("N0:  | N2 N2 N2\nN1: 'b' N0 'a' | 'b' N2 'b' | 'a'\n"
                           "N2:  |  | N1 N0 N1\n")
    assert not ref.left_recursive(blowup)
    assert not ref.random_grammar_accepts(blowup, "N0", "bbabab")
    assert ref.random_grammar_accepts(blowup, "N0", "aa")
    lr = parse_grammar("N0: N0 'a' | 'b'\n")
    assert ref.left_recursive(lr)
    assert ref.random_grammar_accepts(lr, "N0", "baa")
    assert not ref.random_grammar_accepts(lr, "N0", "aab")


def test_exit_code_reference():
    assert ref.check_exit(2, 2) is None
    assert ref.check_exit(1, 2).startswith(ref.EXIT_MISMATCH)


# --- workloads ------------------------------------------------------------------

def corrupt(answer):
    """A deliberately wrong version of a request's answer."""
    if isinstance(answer, bool) or answer is None:
        return not answer
    if answer == "trip":
        return True
    if isinstance(answer, DerivationCount):
        return DerivationCount(answer.value - 1, False)
    if isinstance(answer, tuple) and isinstance(answer[0], int):  # cli (code, stdout)
        return (answer[0], answer[1] + "x") if answer[0] == 2 else (answer[0] + 1, answer[1])
    if isinstance(answer, tuple):  # (accepted, error reports)
        return answer[0], [(p + 1, got) for p, got in answer[1]]
    if answer and isinstance(answer[0], int):  # evaluated values
        return answer[:-1] + [answer[-1] + 1]
    return answer[:-1] + answer[:1] if len(answer) > 1 else answer * 2  # trees


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_checks_pass_right_answers_and_catch_wrong_ones(name):
    workload = WORKLOADS[name]()
    layers = Layers()
    workload.setup(layers)
    requests = workload.round(random.Random(3))
    for req in requests:
        try:
            answer = req.run(layers)
        except RecursionError:
            continue  # deep forest walks: a defect the benchmark reports
        assert req.check(answer) is None, (req.kind, req.check(answer))
        if name == "cli" and req.kind == "anbncn trip":
            assert req.check((0, answer[1])), req.kind  # exit code is the answer
            continue
        assert req.check(corrupt(answer)), req.kind


def test_rounds_depend_only_on_the_seed():
    workload = WORKLOADS["small"]()
    workload.setup(Layers())
    keys = [[r.key for r in workload.round(random.Random(5))] for _ in range(2)]
    assert keys[0] == keys[1]
    assert keys[0] != [r.key for r in workload.round(random.Random(6))]


# --- measurement ---------------------------------------------------------------

def test_self_times_of_nested_spans():
    spans = [(0, 0, None, "request", 0.0, 10.0),
             (0, 1, 0, "dsl.load", 1.0, 3.0),
             (0, 2, 0, "engine.recognize", 3.0, 8.0),
             (0, 3, 2, "forest.count", 4.0, 5.0)]
    assert self_times(spans) == {"request": 3.0, "dsl": 2.0, "engine": 4.0, "forest": 1.0}


def test_traced_self_times_add_up_to_the_request_span():
    tracer = Tracer()
    layers = Layers(tracer)
    workload = WORKLOADS["forest"]()
    workload.setup(layers)
    tracer.spans.clear()
    run = bench.Run()
    for req in workload.round(random.Random(1))[:6]:
        bench.run_request(req, layers, tracer, True, run)
    roots = {s[0]: s for s in tracer.spans if s[3] == "request"}
    assert len(roots) == 6
    for request_id, root in roots.items():
        spans = [s for s in tracer.spans if s[0] == request_id]
        assert len(spans) >= 3  # request, engine.recognize, forest.*
        total = sum(self_times(spans).values())
        assert total == pytest.approx(root[5] - root[4], abs=1e-9)
        assert root[5] - root[4] == pytest.approx(run.latencies[True][request_id], rel=0.05)


def test_a_request_past_its_deadline_fails(monkeypatch):
    monkeypatch.setattr(bench, "REQUEST_TIMEOUT_S", 0.2)
    run = bench.Run()
    hang = Request("hang", "hang", lambda layers: time.sleep(5), lambda out: None)
    bench.run_request(hang, Layers(), None, False, run)
    assert run.failures["hang"] == 1
    assert run.first_failure["hang"].startswith("RequestTimeout")
    assert run.latencies[False][0] < 1


def test_tail_keeps_ten_samples_above_it():
    samples = list(range(100))
    value, pct = bench.tail(samples)
    assert sum(s > value for s in samples) == bench.TAIL_BEYOND
    assert pct == 90.0


@pytest.mark.parametrize("name", ["small", "ambiguous"])
def test_work_counts_repeat_in_a_fresh_process(name):
    layers = Layers()
    _workload, _rng, first_round = bench.prepare(name, 4, layers)
    work = bench.first_round_work(layers, first_round)
    args = bench.parse_args(["--workload", name, "--seed", "4", "--seconds", "0"])
    assert bench.count_mismatches(args, work) == 0
    work[-1]["engine.descriptors"] += 1
    assert bench.count_mismatches(args, work) == 1


def test_peak_rss_is_read_after_a_fixed_number_of_rounds(monkeypatch):
    done = []

    class Instant:
        name, collect_before, rss_rounds = "instant", False, 3

        def round(self, rng):
            return [Request("noop", "noop", lambda layers: done.append(1), lambda out: None)]

    monkeypatch.setattr(bench, "peak_rss_kib", lambda workload: len(done))
    workload = Instant()
    run = bench.measure(workload, random.Random(1), workload.round(None), Layers(), None, 0.05)
    assert run.rounds > 3
    assert run.peak_rss_kib == 3


def test_fails_without_a_gllkit_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
