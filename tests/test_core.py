"""Identifier and slot behavior: ids per grammar, slot chains, rendering."""
from hypothesis import example, given, strategies as st

from gllkit.core import (
    Applied,
    TokenName,
    render_id,
    render_slot,
)
from gllkit.dsl import Elaborator
from gllkit.engine import AltPlan, Nonterminal, TokenPattern, nonterminal_symbol, token_symbol

from helpers import load_grammar

names = st.text(alphabet="abcXYZ_", min_size=1, max_size=4)


def sym_ids(depth=2):
    if depth == 0:
        return names.map(TokenName)
    sub = sym_ids(depth - 1)
    return st.one_of(
        names.map(TokenName),
        st.tuples(names, st.lists(sub, max_size=3)).map(
            lambda t: Applied(t[0], tuple(t[1]))))


def key(sid):
    """The structure of an id, by which tests compare ids: each grammar makes
    its own, so structurally equal ids need not be one object."""
    return (type(sid).__name__, sid.name, tuple([key(a) for a in sid.args]))


class TestSymbolIds:
    def test_structural_equality(self):
        """Within one grammar, ids are equal exactly when their structure is;
        across grammars, equal structure shows only in `key`."""
        ast = load_grammar("csv.g")
        g = Elaborator(ast)
        assert g.start_symbol("CSV(alpha)").id == g.start_symbol("CSV(alpha)").id
        assert g.start_symbol("CSV(alpha)").id != g.start_symbol("CSV(CSV(alpha))").id
        assert Applied("X") != Applied("Y")
        assert TokenName("X") != Applied("X")
        other = Elaborator(ast).start_symbol("CSV(alpha)").id
        assert other != g.start_symbol("CSV(alpha)").id
        assert key(other) == key(g.start_symbol("CSV(alpha)").id) == (
            "Applied", "CSV", (("TokenName", "alpha", ()),))

    def test_interning_gives_identity(self):
        """One Elaborator resolves CSV(alpha) to one id every time; two
        Elaborators of the same text make two, and a bare constructor call
        is interned nowhere."""
        ast = load_grammar("csv.g")
        first = Elaborator(ast)
        sid = first.start_symbol("CSV(alpha)").id
        assert first.start_symbol("CSV(alpha)").id is sid
        assert first.start_symbol("alpha").id is sid.args[0]
        other = Elaborator(ast).start_symbol("CSV(alpha)").id
        assert other is not sid and other.args[0] is not sid.args[0]
        assert TokenName("a") is not TokenName("a")

    def test_render(self):
        assert render_id(TokenName("alpha")) == "%alpha"
        assert render_id(TokenName("'a'")) == "'a'"
        assert render_id(Applied("E")) == "E"
        assert render_id(TokenName("X")) != render_id(Applied("X"))
        inner = Applied("Seq", (TokenName("'a'"), TokenName("'b'")))
        assert render_id(Applied("F", (inner,))) == "F(Seq('a','b'))"


E = Applied("E")
A = TokenName("'a'")


def symbol(sid):
    """A symbol with the given id: a token that matches nothing, or a
    nonterminal without alternates."""
    if isinstance(sid, TokenName):
        return token_symbol(TokenPattern(lambda t: None, sid.name))
    return Nonterminal(sid, plans=())


def plan(lhs, ids):
    """An alternate of lhs whose symbols have the given ids."""
    return AltPlan(lhs, [symbol(sid) for sid in ids])


class TestSlots:
    def test_render(self):
        assert render_slot(plan(E, (E, E, E)).slots[1]) == "E ::= E . E E"
        assert render_slot(plan(E, ()).slots[0]) == "E ::= ."
        csv = Applied("CSV", (TokenName("a"),))
        got = render_slot(plan(csv, (csv, TokenName("comma"), csv)).slots[0])
        assert got == "CSV(%a) ::= . CSV(%a) %comma CSV(%a)"

    @given(st.lists(sym_ids(1), max_size=4))
    def test_full_advance_reaches_end(self, symbols):
        symbols = tuple(symbols)
        slots = plan(E, symbols).slots
        keys = list(map(key, symbols))
        assert [s.i for s in slots] == list(range(len(symbols) + 1))
        assert all(list(map(key, s.pre + s.post)) == keys for s in slots)
        assert slots[-1].post == () and list(map(key, slots[-1].pre)) == keys

    @given(st.lists(sym_ids(1), max_size=3), st.lists(sym_ids(1), max_size=3))
    @example(pre=[TokenName("X"), TokenName("X")], post=[TokenName("X"), Applied("X")])
    def test_render_is_injective(self, pre, post):
        a = plan(E, pre + post).slots[len(pre)]
        b = plan(E, post + pre).slots[len(post)]
        def keys(slot):
            return (tuple(map(key, slot.pre)), tuple(map(key, slot.post)))
        if keys(a) != keys(b):
            assert render_slot(a) != render_slot(b)

    def test_equal_alternates_are_one_plan(self):
        """Of alternates with equal symbol ids, action and action kind, the
        first is kept; ones that differ only in their action stay apart,
        each with its own slots."""
        a = symbol(A)
        first, empty = nonterminal_symbol(
            "E", (), [((a,),), ((a,),), ((),), ((),)]).plans()
        assert [p.symbols for p in (first, empty)] == [(a,), ()]
        assert first.slots[1].plan is first and first.slots[1].i == 1
        plain, valued = nonterminal_symbol(
            "E", (), [((a,),), ((a,), len), ((a,), len)]).plans()
        assert (plain.action, valued.action) == (None, len)
        assert valued.slots[1].plan is valued and plain.slots[1].plan is plain
