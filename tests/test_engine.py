"""Engine actions and whole-run behavior, including the hand-derived golden
trace for the cyclic grammar E: E E E | 'a' | on input "a"."""
import json
import os
import random
import subprocess
import sys
import tracemalloc

import pytest

from gllkit.core import (
    Applied,
    Commencement,
    Descriptor,
    TokenName,
    render_id,
    render_slot,
)
from gllkit.engine import (
    START_ID,
    AltPlan,
    Nonterminal,
    ascend,
    char_token,
    descend,
    lazy_nonterminal,
    nonterminal_symbol,
    run_prefix,
    run_recognize,
    token_symbol,
    TokenPattern,
)
from gllkit.state import ParseState, ResourceExhausted

from helpers import (GRAMMARS, load_grammar, random_grammar, random_input,
                     rendered_state)
from gllkit.dsl import Elaborator, parse_grammar


def e_grammar():
    a = char_token("a")
    E = Applied("E")
    sym = Nonterminal(E, thunk=lambda: [
        AltPlan(E, (sym, sym, sym)), AltPlan(E, (a,)), AltPlan(E, ())])
    return sym


# Hand-derived by stepping the descend/ascend/continue actions on
# E: E E E | 'a' | over "a": exactly these descriptors are processed and
# exactly these forest elements are recorded.
GOLDEN_DESCRIPTORS = {
    ("E ::= . E E E", 0, 0), ("E ::= . 'a'", 0, 0), ("E ::= .", 0, 0),
    ("E ::= 'a' .", 0, 1), ("E ::= E . E E", 0, 0), ("E ::= E . E E", 0, 1),
    ("E ::= E E . E", 0, 0), ("E ::= E E . E", 0, 1), ("E ::= . E E E", 1, 1),
    ("E ::= . 'a'", 1, 1), ("E ::= .", 1, 1), ("E ::= E E E .", 0, 0),
    ("E ::= E E E .", 0, 1), ("E ::= E . E E", 1, 1), ("E ::= E E . E", 1, 1),
    ("E ::= E E E .", 1, 1),
}
GOLDEN_FOREST = {
    ("E ::= .", 0, 0, 0), ("E ::= E . E E", 0, 0, 0), ("E ::= E E . E", 0, 0, 0),
    ("E ::= E E E .", 0, 0, 0), ("E ::= 'a' .", 0, 0, 1),
    ("E ::= E . E E", 0, 0, 1), ("E ::= E E . E", 0, 0, 1),
    ("E ::= E E . E", 0, 1, 1), ("E ::= E E E .", 0, 0, 1),
    ("E ::= E E E .", 0, 1, 1), ("E ::= .", 1, 1, 1), ("E ::= E . E E", 1, 1, 1),
    ("E ::= E E . E", 1, 1, 1), ("E ::= E E E .", 1, 1, 1),
}


class TestGoldenTrace:
    def test_descriptors_and_forest(self):
        accepted, state = run_recognize(e_grammar(), "a")
        assert accepted
        got_descrs = {(render_slot(d.slot), d.left, d.right) for d in state.uset}
        assert got_descrs == GOLDEN_DESCRIPTORS
        got_forest = {(render_slot(b.slot), b.left, b.pivot, b.right)
                      for b in state.bsrs}
        assert got_forest == GOLDEN_FOREST
        assert state.stats.descriptors_processed == 16
        assert len(state.bsrs) == 14


class TestRuns:
    def test_accepts_single_token(self):
        accepted, _ = run_recognize(e_grammar(), "a")
        assert accepted

    def test_accepts_empty(self):
        accepted, _ = run_recognize(e_grammar(), "")
        assert accepted

    def test_rejects_unknown_token(self):
        accepted, _ = run_recognize(e_grammar(), "b")
        assert not accepted

    def test_prefixes(self):
        prefixes, _ = run_prefix(e_grammar(), "ab")
        assert prefixes == [0, 1]

    def test_prefix_of_empty(self):
        prefixes, _ = run_prefix(e_grammar(), "")
        assert prefixes == [0]

    def test_token_only_start(self):
        a = char_token("a")
        prefixes, _ = run_prefix(a, "aa")
        assert prefixes == [1]
        accepted, state = run_recognize(a, "a")
        assert accepted
        assert len(state.bsrs) == 1
        (element,) = list(state.bsrs)
        assert render_slot(element.slot) == "__START ::= 'a' ."
        assert (element.left, element.pivot, element.right) == (0, 0, 1)

    def test_token_start_reject(self):
        accepted, state = run_recognize(char_token("a"), "b")
        assert not accepted
        assert len(state.bsrs) == 0

    def test_epsilon_only_nonterminal(self):
        sym = nonterminal_symbol("Z", (), [((),)])
        accepted, state = run_recognize(sym, "")
        assert accepted
        assert state.prel.extents_for(Commencement(sym.id, 0)) == [0]

    def test_start_name_is_reserved(self):
        sym = nonterminal_symbol("__START", (), [((),)])
        with pytest.raises(ValueError):
            run_recognize(sym, "")

    def test_left_recursive_instance_terminates(self):
        elab = Elaborator(load_grammar("csv.g"))
        start = elab.start_symbol("CSV(alpha)")
        assert render_id(start.id) == "CSV(%alpha)"
        for text in ("", "a", "a,b", "a,b,c", "a,b,c,d,e,f", "a,b,c,d,e,f,"):
            assert len(text) <= 12
            accepted, _ = run_recognize(start, text)
            assert accepted == (len(text) % 2 == 1)

    def test_parameterized_instance_recognizes(self):
        v = char_token("v")
        csv = Applied("CSV", (v.id,))
        comma = char_token(",")
        sym = Nonterminal(csv, thunk=lambda: [
            AltPlan(csv, (sym, comma, sym)), AltPlan(csv, (v,))])
        accepted, state = run_recognize(sym, "v,v")
        assert accepted
        assert 3 in state.prel.extents_for(Commencement(csv, 0))


X_SYM = nonterminal_symbol("X", (), [((),)])
Y_PLAN = AltPlan(Applied("Y"), (X_SYM, X_SYM))  # Y: X X
Z_PLAN = AltPlan(Applied("Z"), (X_SYM,))  # Z: X


def bsr_tuples(state):
    return {(render_slot(b.slot), b.left, b.pivot, b.right) for b in state.bsrs}


def descriptor_tuples(state):
    return {(render_slot(d.slot), d.left, d.right) for d in state.uset}


def queued_tuples(state):
    return [(render_slot(plan.slots[i]), l, r) for plan, i, l, r in state.queue]


def descend_z(state, l):
    """Descend into X at l on behalf of Z: X, registering continuation
    (Z_PLAN, 1, 0)."""
    descend(X_SYM, l, Z_PLAN, 1, 0, state)


def descend_y(state, l):
    """Descend into X at l on behalf of Y: X X, registering continuation
    (Y_PLAN, 1, 0)."""
    descend(X_SYM, l, Y_PLAN, 1, 0, state)


class TestActions:
    def test_descend_first_time_runs_alternates(self):
        state = ParseState("a")
        descend_z(state, 0)
        assert len(state.grel) == 1
        # the continuation carries the forest's set of its key, still empty
        (cont,) = state.grel.continuations((X_SYM.id, 0))
        assert cont[:3] == (Z_PLAN, 1, 0)
        assert cont[3] is state.bsrs.rights(Z_PLAN.slots[1], 0) and not cont[3]
        # X's one alternate is empty: its slot 0 is also a forest key
        assert bsr_tuples(state) == {("X ::= .", 0, 0, 0)}
        assert queued_tuples(state) == [("X ::= .", 0, 0)]

    def test_descend_reuses_recorded_extents(self):
        state = ParseState("")
        descend_z(state, 0)
        assert queued_tuples(state) == [("X ::= .", 0, 0)]
        state.queue.clear()
        ascend(Commencement(X_SYM.id, 0), 0, state)  # the effect of X ::= . at 0
        assert queued_tuples(state) == [("Z ::= X .", 0, 0)]
        state.queue.clear()
        descend_y(state, 0)  # X at 0 again: its extent 0 is reused
        assert queued_tuples(state) == [("Y ::= X . X", 0, 0)]
        assert len(state.bsrs) == 3
        assert descriptor_tuples(state) == {("X ::= .", 0, 0), ("Z ::= X .", 0, 0),
                                            ("Y ::= X . X", 0, 0)}

    def test_redescend_without_extents_queues_nothing(self):
        state = ParseState("a")
        descend_z(state, 0)
        descend_y(state, 0)
        assert len(state.grel) == 2
        assert queued_tuples(state) == [("X ::= .", 0, 0)]
        assert len(state.bsrs) == 1

    def test_ascend_without_continuations_only_grows_prel(self):
        state = ParseState("a")
        c = Commencement(Applied("X"), 0)
        ascend(c, 1, state)
        assert state.prel.extents_for(c) == [1]
        assert len(state.uset) == 0

    def test_ascend_applies_each_continuation(self):
        state = ParseState("")
        descend_z(state, 0)
        descend_y(state, 0)  # registered before X at 0 has an extent
        state.queue.clear()
        ascend(Commencement(X_SYM.id, 0), 0, state)
        assert queued_tuples(state) == [("Z ::= X .", 0, 0), ("Y ::= X . X", 0, 0)]
        assert len(state.bsrs) == 3  # X ::= . and one per continuation

    def test_ascend_with_a_known_extent_does_nothing(self):
        state = ParseState("")
        descend_z(state, 0)
        c = Commencement(X_SYM.id, 0)
        ascend(c, 0, state)
        queued, made = list(state.queue), len(state.bsrs)
        descend_y(state, 0)  # applied to the known extent here, by descend
        assert len(state.queue) == len(queued) + 1
        queued, made = list(state.queue), len(state.bsrs)
        ascend(c, 0, state)
        assert list(state.queue) == queued and len(state.bsrs) == made
        assert len(state.prel) == 1


class TestBudgets:
    def test_fuel_exhaustion(self):
        with pytest.raises(ResourceExhausted):
            run_recognize(e_grammar(), "aaaa", fuel=5)

    def test_fuel_not_tripped_when_sufficient(self):
        accepted, state = run_recognize(e_grammar(), "a", fuel=1000)
        assert accepted
        assert state.stats.descriptors_processed == 16

    def test_fuel_boundary(self):
        accepted, state = run_recognize(e_grammar(), "a", fuel=16)
        assert accepted and state.stats.descriptors_processed == 16
        with pytest.raises(ResourceExhausted, match="fuel budget of 15") as trip:
            run_recognize(e_grammar(), "a", fuel=15)
        assert trip.value.state.stats.descriptors_processed == 15

    def test_instantiation_budget(self):
        a = char_token("a")

        def mk(depth_id):
            sid = Applied("D", (depth_id,))
            sym = lazy_nonterminal(sid, lambda: [
                AltPlan(sid, (mk(sid), a)), AltPlan(sid, (a,))])
            return sym

        start = mk(a.id)
        with pytest.raises(ResourceExhausted, match="instantiation"):
            run_recognize(start, "aaa", instantiation_budget=2)


class TestInvariants:
    def test_no_descriptor_processed_twice(self):
        for text in ("", "a", "aa", "aaa", "b", "ab"):
            _, state = run_recognize(e_grammar(), text)
            assert state.stats.descriptors_processed == len(state.uset)

    def test_forest_soundness(self):
        _, state = run_recognize(e_grammar(), "aa")
        for b in state.bsrs:
            if not b.slot.pre:
                continue
            before = b.slot.plan.slots[b.slot.i - 1]
            assert Descriptor(before, b.left, b.pivot) in state.uset
            last = b.slot.pre[-1]
            if isinstance(last, TokenName):
                assert b.right == b.pivot + 1
            else:
                assert b.right in state.prel.extents_for(Commencement(last, b.pivot))

    def test_schedule_and_alternate_order_do_not_matter(self):
        """Each run elaborates afresh, so the states are compared with their
        slots rendered."""
        base = rendered_state(run_recognize(e_grammar(), "aaa")[1])
        for kwargs in ({"lifo": True}, {"reverse_alternates": True}):
            other = run_recognize(e_grammar(), "aaa", **kwargs)[1]
            assert rendered_state(other) == base


def fresh_start(grammar_file, start):
    return Elaborator(load_grammar(grammar_file)).start_symbol(start)


def run_to_end(sym, text, **kwargs):
    """The final state of a run, also when a budget stopped it."""
    try:
        return run_recognize(sym, text, **kwargs)[1]
    except ResourceExhausted as err:
        return err.state


# Exact work of fixed FIFO runs: descriptors processed, |uset|, |bsrs|,
# |prel|, grel pairs and instantiations. A change to the engine's cost must
# leave these as they are; a change to its work must update them knowingly.
PINNED_WORK = [
    ("e.g", "E", "a" * 20, None, (776, 776, 3814, 231, 484, 1)),
    ("s1.g", "S1", "a" * 30, None, (1022, 1022, 5486, 496, 496, 1)),
    ("expr.g", "Expr", "a" + "+a" * 14, None, (375, 375, 800, 120, 121, 1)),
    ("csv.g", "CSV(alpha)", ",".join("abcdefghi"), None, (144, 144, 210, 45, 46, 1)),
    ("anbncn.g", "Start", "aabbcc", 100, (158, 163, 13, 6, 146, 101)),
    ("dup.g", "D", "aaa", None, (17, 17, 13, 10, 4, 1)),
    # right-recursive lists, where 21 of 23 and 4 of 12 commencements link
    ("tuples.g", "AlphaTuples", "(" + ",".join("abcdefghijklmnopqrst") + ")", None,
     (337, 337, 294, 233, 23, 4)),
    ("list.g", "List('a')", "a(a)((a))(((a)))", None, (49, 49, 32, 16, 16, 9)),
]
SCHEDULES = ({}, {"lifo": True}, {"reverse_alternates": True})


def work_of(state):
    return (state.stats.descriptors_processed, len(state.uset), len(state.bsrs),
            len(state.prel), len(state.grel),
            state.stats.instantiations)


class TestPinnedWork:
    @pytest.mark.parametrize("grammar_file,start,text,budget,want", PINNED_WORK,
                             ids=[w[1] for w in PINNED_WORK])
    def test_work_counts(self, grammar_file, start, text, budget, want):
        state = run_to_end(fresh_start(grammar_file, start), text,
                           instantiation_budget=budget)
        assert work_of(state) == want

    @pytest.mark.parametrize("kwargs", SCHEDULES[1:], ids=["lifo", "reversed"])
    def test_work_counts_do_not_depend_on_schedule(self, kwargs):
        """Where no budget stops the run; a trip point depends on the order."""
        for grammar_file, start, text, budget, want in PINNED_WORK:
            if budget is None:
                state = run_recognize(fresh_start(grammar_file, start), text,
                                      **kwargs)[1]
                assert work_of(state) == want, start


# Prints, as JSON, per run: its work counts, its sorted bsr dump (drained
# runs only), the descriptors in the order the queue was drained and the
# number that links skipped, for the pinned anbncn.g trip, E a^20 and the
# pinned tuples.g list, whose links skip most descriptors. The queue records
# what it hands out.
ORDER_PROBE = """
import json
from collections import deque
import gllkit.state
from gllkit.core import render_slot
from test_engine import PINNED_WORK, fresh_start, run_to_end, work_of

class RecordingQueue(deque):
    def popleft(self):
        plan, i, l, r = item = super().popleft()
        drained.append([render_slot(plan.slots[i]), l, r])
        return item

gllkit.state.deque = RecordingQueue
out = []
for grammar_file, start, text, budget, _ in (PINNED_WORK[4], PINNED_WORK[0],
                                             PINNED_WORK[6]):
    drained = []
    state = run_to_end(fresh_start(grammar_file, start), text,
                       instantiation_budget=budget)
    bsr = ([[render_slot(b.slot), b.left, b.pivot, b.right]
            for b in state.bsrs.sorted_elements()] if budget is None else [])
    out.append([work_of(state), bsr, drained, state.stats.descriptors_skipped])
print(json.dumps(out))
"""


class TestHashSeed:
    def test_queue_order_does_not_depend_on_the_hash_seed(self):
        """The engine orders the queue by registration lists and int sets,
        never by a set of hashed objects, so the drain order, the trip point
        and the listings repeat under any PYTHONHASHSEED."""
        tests = str(GRAMMARS.parent / "tests")
        src = str(GRAMMARS.parent / "src")
        runs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join((src, tests)))
            done = subprocess.run([sys.executable, "-c", ORDER_PROBE],
                                  capture_output=True, text=True, env=env,
                                  timeout=120)
            assert done.returncode == 0, done.stderr
            runs.append(json.loads(done.stdout))
        (trip, _, trip_order, _), (whole, bsr, order, _), linked = runs[0]
        assert trip == list(PINNED_WORK[4][4]) and len(trip_order) == trip[0]
        assert whole == list(PINNED_WORK[0][4]) and len(order) == whole[0]
        assert len(bsr) == whole[2]
        # a drained run counts the descriptors that its links skipped
        (work, bsr, order, skipped) = linked
        assert work == list(PINNED_WORK[6][4]) and len(bsr) == work[2]
        assert len(order) + skipped == work[0] and skipped > len(order)
        assert runs[0] == runs[1]


def assert_uset_is_forest_keys_plus_slot_zero(state):
    """The facts the descriptor view relies on: every forest key is past
    slot 0 or is an empty alternate's slot 0, and every start is a non-empty
    alternate's slot 0, so the two parts of uset are disjoint and its length
    counts each descriptor once."""
    assert all(slot.pre or not slot.post for slot, _, _ in state.bsrs.keys())
    assert all(not slot.pre and slot.post for slot, _ in state.starts)
    listed = list(state.uset)
    assert len(set(listed)) == len(listed) == len(state.uset)


def assert_each_element_made_once(state):
    """len(bsrs) counts the elements as the engine makes them; the listing
    derives them from the keys of the drained run. They agree only if no
    element is made twice and none is derived without being made."""
    listed = list(state.bsrs)
    assert len(set(listed)) == len(listed) == len(state.bsrs)


def assert_each_continuation_registered_once(state):
    """grel keeps a list, not a set, of the continuations waiting on each
    commencement; that is sound only if no (commencement, continuation id)
    is registered twice."""
    pairs = list(state.grel.pairs())
    assert len(set(pairs)) == len(pairs) == len(state.grel)


def assert_continuations_carry_forest_sets(state):
    """Each registered continuation (plan, i, l, rights) adds to the forest's
    own set for key (plan.slots[i], l). A key registered but never reached
    leaves its set empty, and no count or listing sees it."""
    registered = set()
    for c in {c for c, cid in state.grel.pairs() if cid is not None}:
        for plan, i, l, rights in state.grel.continuations(c):
            assert rights is state.bsrs.rights(plan.slots[i], l)
            registered.add((plan.slots[i], l))
    keys = list(state.bsrs.keys())
    assert len(keys) == len(set(keys)) == state.bsrs.nkeys
    assert len(state.uset) == state.bsrs.nkeys + len(state.starts)
    reached = {(slot, l) for slot, l, _ in keys}
    listed = {(d.slot, d.left) for d in state.uset}
    for unreached in registered - reached:
        assert unreached not in listed
    return registered - reached


class TestDescriptorGate:
    @pytest.mark.parametrize("kwargs", SCHEDULES, ids=["fifo", "lifo", "reversed"])
    def test_uset_matches_forest_keys_on_fixed_runs(self, kwargs):
        for grammar_file, start, text, budget, _ in PINNED_WORK:
            state = run_to_end(fresh_start(grammar_file, start), text,
                               instantiation_budget=budget, **kwargs)
            assert_uset_is_forest_keys_plus_slot_zero(state)

    @pytest.mark.parametrize("kwargs", SCHEDULES, ids=["fifo", "lifo", "reversed"])
    def test_each_element_made_once_on_fixed_runs(self, kwargs):
        for grammar_file, start, text, budget, _ in PINNED_WORK:
            if budget is None:  # a tripped run can be read for its length alone
                state = run_recognize(fresh_start(grammar_file, start), text,
                                      **kwargs)[1]
                assert_each_element_made_once(state)

    @pytest.mark.parametrize("kwargs", SCHEDULES, ids=["fifo", "lifo", "reversed"])
    def test_each_continuation_registered_once_on_fixed_runs(self, kwargs):
        for grammar_file, start, text, budget, _ in PINNED_WORK:
            state = run_to_end(fresh_start(grammar_file, start), text,
                               instantiation_budget=budget, **kwargs)
            assert_each_continuation_registered_once(state)

    @pytest.mark.parametrize("kwargs", SCHEDULES, ids=["fifo", "lifo", "reversed"])
    def test_continuations_carry_forest_sets_on_fixed_runs(self, kwargs):
        unreached = 0
        for grammar_file, start, text, budget, _ in PINNED_WORK:
            state = run_to_end(fresh_start(grammar_file, start), text,
                               instantiation_budget=budget, **kwargs)
            unreached += len(assert_continuations_carry_forest_sets(state))
        assert unreached > 0  # the runs do register keys they never reach

    def test_uset_matches_forest_keys_on_random_grammars(self):
        rng = random.Random(4242)
        for _ in range(60):
            ast = parse_grammar(random_grammar(rng))
            start = ast.definitions[0].name
            for _ in range(2):
                text = random_input(rng)
                for kwargs in SCHEDULES:
                    sym = Elaborator(ast).start_symbol(start)
                    state = run_recognize(sym, text, **kwargs)[1]
                    assert_uset_is_forest_keys_plus_slot_zero(state)
                    assert_each_element_made_once(state)
                    assert_each_continuation_registered_once(state)
                    assert_continuations_carry_forest_sets(state)


class TestMemory:
    def test_recognition_peak_is_small(self):
        """The forest is stored as its keys: E on a^60 makes 81,434 elements
        under 5,794 keys, and recognition must not hold a copy of each."""
        sym = fresh_start("e.g", "E")
        tracemalloc.start()
        try:
            _, state = run_recognize(sym, "a" * 60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.stats.descriptors_processed == 5916
        assert peak < 3 * 2 ** 20, f"{peak / 2 ** 20:.1f} MiB"

    @pytest.mark.parametrize("grammar,start,text", [
        (load_grammar("tuples.g"), "AlphaTuples", "(" + ",".join("a" * 2400) + ")"),
        (parse_grammar("R: 'a' R | 'a'\n"), "R", "a" * 2400)], ids=["tuples", "R"])
    def test_right_recursive_list_is_linear(self, grammar, start, text):
        """A right-recursive list of 2,400 items links each commencement to
        its caller, so its extents are stored once, not once per enclosing
        item: the peak was 538 MiB (tuples) and 536 MiB (R) when each was
        copied up the chain of callers, and stays under 16 MiB."""
        sym = Elaborator(grammar).start_symbol(start)
        tracemalloc.start()
        try:
            accepted, state = run_recognize(sym, text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert accepted and len(state.prel.links) >= 2400
        stored = sum(map(len, state.prel._rights.values())) + sum(
            map(len, state.bsrs._rights.values())) + sum(
            len(chain[1]) for chain, depth, *_ in state.prel.links.values()
            if depth == 1)
        assert stored <= 10 * 2400
        assert peak < 16 * 2 ** 20, f"{peak / 2 ** 20:.1f} MiB"

    def test_slots_are_freed_with_their_grammar(self):
        """A slot is a position in its plan, and no table keeps it: once a
        tripped run and its symbol are dropped, every slot it made is freed.
        A fresh process keeps other tests' garbage off this test's clock."""
        env = dict(os.environ, PYTHONPATH=str(GRAMMARS.parent / "src"))
        done = subprocess.run([sys.executable, "-c", SLOT_PROBE],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        tripped, before, after = done.stdout.split()
        assert tripped == "True" and int(after) <= int(before), done.stdout


# Prints whether a run of anbncn.g (renamed, so that it shares no ids with
# another grammar) trips at instantiation budget 200, and the number of live
# slots before the run and after its symbol is dropped.
SLOT_PROBE = """
import gc
from gllkit.core import Slot
from gllkit.dsl import Elaborator, parse_grammar
from gllkit.engine import run_recognize
from gllkit.state import ResourceExhausted

def live_slots():
    gc.collect()
    return sum(1 for o in gc.get_objects() if type(o) is Slot)

before = live_slots()
sym = Elaborator(parse_grammar(
    "Go: Fz('a', 'b', 'c')\\n"
    "Fz(x, y, z): Fz(Sq(x, 'a'), Sq(y, 'b'), Sq(z, 'c')) | x y z\\n"
    "Sq(p, q): p q\\n")).start_symbol("Go")
try:
    run_recognize(sym, "aabbcc", instantiation_budget=200)
    tripped = False
except ResourceExhausted:
    tripped = True
del sym
print(tripped, before, live_slots())
"""


class TestTokenSymbols:
    def test_classifier_match_and_value(self):
        pat = TokenPattern(lambda t: t if t.isdigit() else None, "digit")
        sym = token_symbol(pat)
        accepted, _ = run_recognize(sym, "7")
        assert accepted
        accepted, _ = run_recognize(sym, "x")
        assert not accepted

    def test_empty_input_fails(self):
        accepted, _ = run_recognize(char_token("a"), "")
        assert not accepted

    def test_token_start_acts_as_the_start_descriptor(self):
        """A token start s is matched as __START ::= . s at 0: on a match it
        makes one element and queues one descriptor, else it records the
        failure at that slot."""
        a = char_token("a")
        accepted, state = run_recognize(a, "a")
        assert accepted
        assert bsr_tuples(state) == {("__START ::= 'a' .", 0, 0, 1)}
        assert state.stats.descriptors_processed == 1 == len(state.uset)
        assert len(state.grel) == 0
        accepted, state = run_recognize(a, "b")
        assert not accepted and len(state.bsrs) == 0
        (slot,) = state.failures.slots
        assert state.failures.position == 0 and slot.i == 0
        assert slot.lhs is START_ID and slot.post == (a.id,)
