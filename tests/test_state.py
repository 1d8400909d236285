"""Grow-only parse structures: idempotent inserts, canonical listings."""
from hypothesis import given, strategies as st

from gllkit.core import (
    Applied,
    BSRElement,
    Commencement,
    ContinuationId,
    Descriptor,
    Slot,
    TokenName,
    bsr_sort_key,
)
from gllkit.dsl import Elaborator
from gllkit.engine import run_recognize
from gllkit.state import ParseState

from helpers import load_grammar

E = Applied("E")
A = TokenName("'a'")
S0 = Slot(E, (), (E, E, E))
S1 = Slot(E, (E,), (E, E))
S2 = Slot(E, (E, E), (E,))
S3 = Slot(E, (E, E, E), ())


def fresh(n=4):
    return ParseState("a" * n)


def e_run(text):
    """The final state of recognizing text with E: E E E | 'a' |."""
    return run_recognize(Elaborator(load_grammar("e.g")).start_symbol("E"), text)[1]


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
        listed = list(e_run("aa").uset)
        assert listed == sorted(listed, key=lambda d: (d.left, d.right, d.slot.sort_key))

    @given(st.text(alphabet="ab", max_size=4))
    def test_size_matches_distinct_inserts(self, text):
        state = e_run(text)
        keys = {(b.slot, b.left, b.right) for b in state.bsrs}
        assert len(state.uset) == len(keys) + len(state.starts)
        assert set(state.uset) == {Descriptor(*k) for k in keys} | {
            Descriptor(slot, l, l) for slot, l in state.starts}


class TestContinuationRelation:
    def test_single_pair(self):
        state = fresh()
        c = Commencement(E, 0)
        cid = ContinuationId(S1, 0)
        cont = object()
        state.grel.add(c, cid, cont)
        assert state.grel.continuations_for(c) == [(cid, cont)]

    def test_unseen_commencement_is_empty(self):
        assert fresh().grel.continuations_for(Commencement(E, 0)) == []

    def test_two_cids_under_one_commencement(self):
        state = fresh()
        c = Commencement(E, 0)
        state.grel.add(c, ContinuationId(S2, 0), "k2")
        state.grel.add(c, ContinuationId(S1, 0), "k1")
        got = state.grel.continuations_for(c)
        assert len(got) == 2
        # canonical order: sorted by continuation id
        assert [cid for cid, _ in got] == [ContinuationId(S1, 0), ContinuationId(S2, 0)]

    def test_first_continuation_wins(self):
        state = fresh()
        c = Commencement(E, 0)
        cid = ContinuationId(S1, 0)
        state.grel.add(c, cid, "first")
        state.grel.add(c, cid, "second")
        assert state.grel.continuations_for(c) == [(cid, "first")]


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
        state.prel.add(c, 1)
        state.prel.add(c, 1)
        assert state.prel.extents_for(c) == [1]
        assert len(state.prel) == 1


def load_forest(state, elements):
    for b in elements:
        state.bsrs.add(b)


class TestBsrSet:
    def test_pivots_ascending(self):
        state = fresh()
        load_forest(state, [BSRElement(S3, 0, 1, 1), BSRElement(S3, 0, 0, 1)])
        assert state.bsrs.pivots(S3, 0, 1) == [0, 1]

    def test_pivots_empty(self):
        assert fresh().bsrs.pivots(S3, 0, 1) == []

    def test_single_pivot(self):
        state = fresh()
        load_forest(state, [BSRElement(S1, 0, 0, 0)])
        assert state.bsrs.pivots(S1, 0, 0) == [0]

    def test_idempotent_count(self):
        state = fresh()
        load_forest(state, [BSRElement(S1, 0, 0, 1)] * 3)
        assert len(state.bsrs) == 1

    @given(st.lists(st.tuples(st.sampled_from([S1, S2, S3]), st.integers(0, 2),
                              st.integers(0, 2), st.integers(0, 2)),
                    max_size=20))
    def test_lookup_soundness(self, raw):
        state = fresh()
        wellformed = [(s, l, k, r) for s, l, k, r in raw if l <= k <= r]
        for s, l, k, r in wellformed:
            state.bsrs.add(BSRElement(s, l, k, r))
        for s, l, k, r in wellformed:
            assert k in state.bsrs.pivots(s, l, r)
        assert len(state.bsrs) == len(set(wellformed))
        assert state.bsrs.snapshot() == {BSRElement(s, l, k, r)
                                         for s, l, k, r in wellformed}

    def test_dump_order_is_canonical(self):
        state = fresh()
        load_forest(state, [BSRElement(S3, 0, 1, 1), BSRElement(S1, 1, 1, 1),
                            BSRElement(S1, 0, 0, 0), BSRElement(S3, 0, 0, 1)])
        dumped = state.bsrs.sorted_elements()
        assert dumped == sorted(dumped, key=bsr_sort_key)
        assert len(dumped) == 4
