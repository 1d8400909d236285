"""Identifier and slot behavior: interning, advancing, rendering."""
import pytest
from hypothesis import example, given, strategies as st

from gllkit.core import (
    Applied,
    Slot,
    TokenName,
    render_id,
    render_slot,
    slot_advance,
)

names = st.text(alphabet="abcXYZ_", min_size=1, max_size=4)


def sym_ids(depth=2):
    if depth == 0:
        return names.map(TokenName)
    sub = sym_ids(depth - 1)
    return st.one_of(
        names.map(TokenName),
        st.tuples(names, st.lists(sub, max_size=3)).map(
            lambda t: Applied(t[0], tuple(t[1]))))


class TestSymbolIds:
    def test_structural_equality(self):
        assert TokenName("a") == TokenName("a")
        assert Applied("X", (TokenName("a"),)) == Applied("X", (TokenName("a"),))
        assert Applied("X") != Applied("Y")
        assert TokenName("X") != Applied("X")

    def test_interning_gives_identity(self):
        assert TokenName("a") is TokenName("a")
        x = Applied("CSV", (TokenName("alpha"),))
        assert x is Applied("CSV", (TokenName("alpha"),))

    def test_render(self):
        assert render_id(TokenName("alpha")) == "%alpha"
        assert render_id(TokenName("'a'")) == "'a'"
        assert render_id(Applied("E")) == "E"
        assert render_id(TokenName("X")) != render_id(Applied("X"))
        inner = Applied("Seq", (TokenName("'a'"), TokenName("'b'")))
        assert render_id(Applied("F", (inner,))) == "F(Seq('a','b'))"


E = Applied("E")
A = TokenName("'a'")


class TestSlots:
    def test_advance_moves_dot_right(self):
        s = Slot(E, (), (E, E, E))
        assert slot_advance(s) == Slot(E, (E,), (E, E))

    def test_advance_to_end(self):
        s = Slot(E, (E, E), (E,))
        assert slot_advance(s) == Slot(E, (E, E, E), ())

    def test_advance_over_token(self):
        csv = Applied("CSV", (TokenName("x"),))
        comma = TokenName("','")
        s = Slot(csv, (csv,), (comma, csv))
        assert slot_advance(s) == Slot(csv, (csv, comma), (csv,))

    def test_advance_rejects_empty_post(self):
        with pytest.raises(ValueError):
            slot_advance(Slot(E, (E,), ()))

    def test_render(self):
        assert render_slot(Slot(E, (E,), (E, E))) == "E ::= E . E E"
        assert render_slot(Slot(E, (), ())) == "E ::= ."
        csv = Applied("CSV", (TokenName("a"),))
        got = render_slot(Slot(csv, (), (csv, TokenName("comma"), csv)))
        assert got == "CSV(%a) ::= . CSV(%a) %comma CSV(%a)"

    @given(st.lists(sym_ids(1), max_size=4))
    def test_full_advance_reaches_end(self, symbols):
        symbols = tuple(symbols)
        s = Slot(E, (), symbols)
        for _ in range(len(symbols)):
            s = slot_advance(s)
        assert s.post == () and s.pre == symbols

    @given(st.lists(sym_ids(1), max_size=3), st.lists(sym_ids(1), max_size=3))
    @example(pre=[TokenName("X"), TokenName("X")], post=[TokenName("X"), Applied("X")])
    def test_render_is_injective(self, pre, post):
        a = Slot(E, tuple(pre), tuple(post))
        b = Slot(E, tuple(post), tuple(pre))
        if a != b:
            assert render_slot(a) != render_slot(b)

    def test_interning(self):
        assert Slot(E, (E,), (A,)) is Slot(E, (E,), (A,))
