"""Grow-only parse structures: idempotent inserts, canonical listings."""
from hypothesis import given, strategies as st

from gllkit.core import (
    Applied,
    Commencement,
    ContinuationId,
    Descriptor,
    TokenName,
    bsr_sort_key,
    render_slot,
)
from gllkit.dsl import Elaborator
from gllkit.engine import run_recognize
from gllkit.state import ParseState

from helpers import load_grammar

E = Applied("E")
A = TokenName("'a'")
# E: E E E | 'a' |, elaborated once: a slot is a position in one plan, so
# every run below shares these slots.
E_SYM = Elaborator(load_grammar("e.g")).start_symbol("E")
PLAN, _, EMPTY = E_SYM.plans()  # E ::= E E E, slots S0..S3
S0, S1, S2, S3 = PLAN.slots


def fresh(n=4):
    return ParseState("a" * n)


def e_run(text):
    """The final state of recognizing text with E: E E E | 'a' |."""
    return run_recognize(E_SYM, text)[1]


class TestDescriptorSet:
    """uset: a read-only view of the forest keys plus the alternate starts."""

    def test_membership_after_insert(self):
        state = e_run("a")
        for b in state.bsrs:
            assert Descriptor(b.slot, b.left, b.right) in state.uset
        assert Descriptor(S0, 0, 0) in state.uset  # a start, not a forest key
        assert Descriptor(S0, 1, 1) in state.uset
        assert Descriptor(S0, 0, 1) not in state.uset
        assert Descriptor(S3, 1, 2) not in state.uset

    def test_insert_is_idempotent(self):
        state = e_run("aa")
        listed = list(state.uset)
        assert len(listed) == len(set(listed)) == len(state.uset)
        assert len(state.uset) == state.stats.descriptors_processed

    def test_iteration_is_sorted(self):
        """By (left, right, rendered slot): the rendered text is the one order."""
        listed = [(d.left, d.right, render_slot(d.slot)) for d in e_run("aa").uset]
        assert listed == sorted(listed)
        assert listed[:3] == [(0, 0, "E ::= ."), (0, 0, "E ::= . 'a'"),
                              (0, 0, "E ::= . E E E")]

    @given(st.text(alphabet="ab", max_size=4))
    def test_size_matches_distinct_inserts(self, text):
        state = e_run(text)
        keys = {(b.slot, b.left, b.right) for b in state.bsrs}
        assert len(state.uset) == len(keys) + len(state.starts)
        assert set(state.uset) == {Descriptor(*k) for k in keys} | {
            Descriptor(slot, l, l) for slot, l in state.starts}


class TestContinuationRelation:
    """grel holds continuations (plan, i, l, rights); (plan.slots[i], l) is
    their id, and rights the forest's set of right extents for that key."""

    def test_single_pair(self):
        state = fresh()
        c = Commencement(E, 0)
        cont = (PLAN, 1, 0, state.bsrs.rights(S1, 0))
        assert state.grel.add(c, cont)
        assert list(state.grel.continuations(c)) == [cont]
        assert state.grel.snapshot() == {(c, ContinuationId(S1, 0))}
        assert len(state.grel) == 1

    def test_unseen_commencement_is_empty(self):
        grel = fresh().grel
        assert list(grel.continuations(Commencement(E, 0))) == []
        assert grel.snapshot() == frozenset()
        assert len(grel) == 0

    def test_two_cids_under_one_commencement(self):
        state = fresh()
        c = Commencement(E, 0)
        second = (PLAN, 2, 0, state.bsrs.rights(S2, 0))
        first = (PLAN, 1, 0, state.bsrs.rights(S1, 0))
        assert state.grel.add(c, second)
        assert not state.grel.add(c, first)
        # applied in the order registered
        assert list(state.grel.continuations(c)) == [second, first]
        assert state.grel.snapshot() == {(c, ContinuationId(S1, 0)),
                                         (c, ContinuationId(S2, 0))}
        assert len(state.grel) == 2

    def test_inert_continuation_has_no_id(self):
        """It is counted and listed, but not applied: the lists leave it out."""
        state = fresh()
        c = Commencement(E, 0)
        assert state.grel.add(c, None)
        assert list(state.grel.continuations(c)) == []
        assert state.grel.snapshot() == {(c, None)}
        assert len(state.grel) == 1
        cont = (PLAN, 1, 0, state.bsrs.rights(S1, 0))
        assert not state.grel.add(c, cont)
        assert list(state.grel.continuations(c)) == [cont]
        assert list(state.grel.pairs()) == [(c, None), (c, ContinuationId(S1, 0))]

    def test_plain_tuple_keys_equal_commencements(self):
        """The engine keys grel and prel by plain (X, l) tuples; every
        Commencement-taking accessor reads the same entries."""
        state = fresh()
        cont = (PLAN, 1, 0, state.bsrs.rights(S1, 0))
        assert state.grel.add((E, 0), cont)
        assert list(state.grel.continuations(Commencement(E, 0))) == [cont]
        (c, _), = state.grel.pairs()
        assert type(c) is Commencement
        state.prel.add((E, 0), 2)
        assert state.prel.extents_for(Commencement(E, 0)) == [2]
        assert not state.prel.add(Commencement(E, 0), 2)


class TestExtentRelation:
    def test_ascending_listing(self):
        state = fresh()
        c = Commencement(E, 0)
        state.prel.add(c, 1)
        state.prel.add(c, 0)
        assert state.prel.extents_for(c) == [0, 1]

    def test_unseen_commencement(self):
        assert fresh().prel.extents_for(Commencement(E, 0)) == []

    def test_duplicate_add(self):
        state = fresh()
        c = Commencement(E, 1)
        assert state.prel.add(c, 1)
        assert not state.prel.add(c, 1)
        assert state.prel.extents_for(c) == [1]
        assert len(state.prel) == 1

    def test_indexed_both_ways(self):
        """pivots reads the (X, r) -> {k} index: the key (E ::= E E . E, 0,
        r) has the pivots k of (E ::= E . E E, 0, k) with r an extent of
        (E, k)."""
        state = fresh()
        prel, bsrs = state.prel, state.bsrs
        for k, r in ((0, 2), (1, 2), (0, 3), (1, 2)):
            prel.add(Commencement(E_SYM.id, k), r)
        for slot, r in ((S1, 0), (S1, 1), (S2, 1), (S2, 2), (S2, 3)):
            bsrs.record(slot, 0, r)
        assert sorted(bsrs.pivots(S2, 0, 2)) == [0, 1]
        assert sorted(bsrs.pivots(S2, 0, 3)) == [0]
        assert sorted(bsrs.pivots(S2, 0, 1)) == []
        assert sorted(prel.extents(Commencement(E_SYM.id, 0))) == [2, 3]
        assert len(prel) == 3 == len(prel.snapshot())


EXPR = Elaborator(load_grammar("expr.g")).start_symbol("Expr")
# Expr ::= . Expr '+' Expr, Expr ::= Expr . '+' Expr, ... Expr ::= Expr '+' Expr .
SUM = EXPR.plans()[0].slots


def expr_run(text):
    """The final state of recognizing text with Expr: Expr '+' Expr | 'a'."""
    return run_recognize(EXPR, text)[1]


class TestBsrSet:
    """Pivots are derived from the keys and prel of a drained run."""

    def test_pivots_ascending(self):
        bsrs = e_run("aa").bsrs
        assert sorted(bsrs.pivots(S3, 0, 2)) == [0, 1, 2]
        assert sorted(bsrs.pivots(S2, 0, 2)) == [0, 1, 2]

    def test_pivots_after_a_nonterminal_token_and_first_symbol(self):
        bsrs = expr_run("a+a+a").bsrs
        assert sorted(bsrs.pivots(SUM[3], 0, 5)) == [2, 4]
        assert sorted(bsrs.pivots(SUM[2], 0, 4)) == [3]
        assert sorted(bsrs.pivots(SUM[1], 0, 3)) == [0]

    def test_pivots_empty(self):
        """[] for a key the run never made."""
        state = e_run("aa")
        assert state.bsrs.pivots(S3, 0, 3) == []
        assert state.bsrs.pivots(S3, 2, 1) == []
        assert expr_run("a+a").bsrs.pivots(SUM[3], 0, 2) == []

    def test_single_pivot(self):
        """An empty alternate's element has its one pivot at its extent."""
        bsrs = e_run("aa").bsrs
        for l in range(3):
            assert bsrs.pivots(EMPTY.slots[0], l, l) == [l]

    def test_idempotent_count(self):
        """D: 'a' D | 'a' D | | has two copies of each alternate; every element
        is still made and counted once."""
        state = run_recognize(Elaborator(load_grammar("dup.g")).start_symbol("D"),
                              "aaa")[1]
        assert len(state.bsrs) == len(state.bsrs.snapshot()) == 13

    @given(st.text(alphabet="ab", max_size=4))
    def test_lookup_soundness(self, text):
        state = e_run(text)
        listed = list(state.bsrs)
        for b in listed:
            assert b.pivot in state.bsrs.pivots(b.slot, b.left, b.right)
            assert state.bsrs.has_key(b.slot, b.left, b.right)
        assert len(listed) == len(set(listed)) == len(state.bsrs)
        assert {(b.slot, b.left, b.right) for b in listed} == set(state.bsrs.keys())

    def test_carried_set_is_the_key_set(self):
        """rights(slot, l) is the one set of the keys (slot, l, _): record adds
        to it, and a set that stays empty is seen by no listing."""
        state = fresh()
        bsrs = state.bsrs
        rights = bsrs.rights(S1, 0)
        assert rights == set() and bsrs.rights(S1, 0) is rights
        assert list(bsrs.keys()) == [] and bsrs.nkeys == 0 == len(state.uset)
        assert not bsrs.has_key(S1, 0, 0) and bsrs.pivots(S1, 0, 0) == []
        assert bsrs.record(S1, 0, 2)
        assert rights == {2} and list(bsrs.keys()) == [(S1, 0, 2)]

    def test_dump_order_is_canonical(self):
        state = e_run("aa")
        dumped = state.bsrs.sorted_elements()
        assert dumped == sorted(dumped, key=bsr_sort_key)
        assert len(dumped) == len(set(dumped)) == len(state.bsrs) == 31
        assert set(dumped) == state.bsrs.snapshot()
