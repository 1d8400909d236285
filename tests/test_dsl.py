"""Grammar format: parsing, validation, elaboration, round-tripping."""
import gc

import pytest
from hypothesis import given, strategies as st

from gllkit.core import Applied, render_id
from gllkit.dsl import (
    Elaborator,
    GrammarAst,
    GrammarError,
    Lit,
    NtDef,
    PatternSpec,
    PrecDecl,
    Ref,
    TokenDecl,
    parse_grammar,
    parse_symref,
    render_grammar,
    validate,
)
from gllkit.engine import nonterminal_symbol, run_recognize
from gllkit.state import ResourceExhausted

from helpers import load_grammar


class TestParsing:
    def test_left_recursive_parameterized_definition(self):
        ast = parse_grammar("CSV(v): CSV(v) ',' CSV(v) | v\n")
        (d,) = ast.definitions
        assert d.name == "CSV" and d.params == ("v",)
        assert len(d.alternates) == 2
        assert len(d.alternates[0]) == 3 and len(d.alternates[1]) == 1
        assert d.alternates[0][1] == Lit(",")

    def test_multi_parameter_definition(self):
        ast = parse_grammar("Within(l, r, x): l x r\n")
        (d,) = ast.definitions
        assert d.params == ("l", "r", "x")
        assert d.alternates == ((Ref("l"), Ref("x"), Ref("r")),)

    def test_empty_alternate(self):
        ast = parse_grammar("X: X |\n")
        (d,) = ast.definitions
        assert d.alternates == ((Ref("X"),), ())

    def test_token_declarations(self):
        ast = parse_grammar("%token alpha %alpha\n%token comma ','\n%token lo [a-c]\n")
        assert ast.tokens == (
            TokenDecl("alpha", PatternSpec("class", "alpha")),
            TokenDecl("comma", PatternSpec("literal", ",")),
            TokenDecl("lo", PatternSpec("set", "a-c")))

    def test_precedence_declarations(self):
        ast = parse_grammar("%left '-' '+'\n%left '*' '/'\nE: E '+' E | 'a'\n")
        assert ast.precedences == (PrecDecl("left", ("'-'", "'+'")),
                                   PrecDecl("left", ("'*'", "'/'")))

    def test_precedence_of_named_tokens(self):
        ast = parse_grammar("%token plus '+'\n%left plus '-'\nE(x): E(x) plus E(x) | x\n")
        assert ast.precedences == (PrecDecl("left", ("plus", "'-'")),)
        assert ast.definitions[0].name == "E"

    def test_comments_and_whitespace(self):
        ast = parse_grammar("-- header\nX: 'a' -- trailing\n   | 'b'\n")
        assert len(ast.definitions[0].alternates) == 2

    def test_definition_header_lookahead(self):
        # an application at the end of one definition must not swallow the
        # next definition's header
        ast = parse_grammar("S: Pair(S, S)\nPair(x, y): x y\n")
        assert [d.name for d in ast.definitions] == ["S", "Pair"]
        assert ast.definitions[0].alternates == ((Ref("Pair", (Ref("S"), Ref("S"))),),)

    def test_name_index(self):
        ast = parse_grammar("%token t 'a'\nS: t\nS: 'b'\nt: 'c'\n")
        assert ast.names is ast.names  # built once
        assert ast.names == {"t": ast.tokens[0], "S": ast.definitions[0]}
        assert ast.token_decl("t") is ast.tokens[0] and ast.definition("t") is None
        assert ast.definition("S") is ast.definitions[0] and ast.token_decl("S") is None
        assert ast.definition("T") is None and ast.token_decl("T") is None

    def test_syntax_error_position(self):
        with pytest.raises(GrammarError) as err:
            parse_grammar("X: )\n")
        assert err.value.line == 1

    def test_unterminated_literal(self):
        with pytest.raises(GrammarError):
            parse_grammar("X: 'ab\n")

    def test_parse_symref(self):
        ref = parse_symref("CSV(alpha)")
        assert ref == Ref("CSV", (Ref("alpha"),))
        with pytest.raises(GrammarError):
            parse_symref("CSV(alpha) extra")


class TestValidation:
    def test_corpus_grammars_are_clean(self):
        for name in ("e.g", "csv.g", "expr.g", "expr_left.g", "list.g", "anbncn.g",
                     "permutation.g", "tuples.g"):
            assert validate(load_grammar(name)) == []

    def test_undefined_name(self):
        diags = validate(parse_grammar("S: T\n"))
        assert len(diags) == 1 and "T" in diags[0]

    def test_arity_mismatch(self):
        text = "Within(l, r, x): l x r\nS: Within('(', ')')\n"
        diags = validate(parse_grammar(text))
        assert len(diags) == 1 and "3 arguments" in diags[0]

    def test_duplicate_definition(self):
        diags = validate(parse_grammar("S: 'a'\nS: 'b'\n"))
        assert any("duplicate definition" in d for d in diags)

    def test_reserved_name(self):
        diags = validate(parse_grammar("__START: 'a'\n"))
        assert any("reserved" in d for d in diags)

    def test_duplicate_parameter(self):
        diags = validate(parse_grammar("P(x, x): x\n"))
        assert any("duplicate parameter" in d for d in diags)

    def test_token_applied_to_arguments(self):
        diags = validate(parse_grammar("%token t 'a'\nS: t(S)\n"))
        assert any("token" in d for d in diags)

    @pytest.mark.parametrize("text, diag", [
        ("%left E\nE: E '+' E | 'a'\n", "%left names 'E', which is not a token"),
        ("%right '+' 'x'\nE: E '+' E | 'a'\n", "%right names 'x', which occurs in no alternate"),
    ])
    def test_precedence_of_no_token_in_use(self, text, diag):
        assert validate(parse_grammar(text)) == [diag]

    def test_precedence_of_a_literal_argument(self):
        text = "%token plus '+'\n%left plus '*'\nE: Bin(E, '*') | E plus E | 'a'\nBin(x, o): x o x\n"
        assert validate(parse_grammar(text)) == []

    def test_elaborator_rejects_invalid(self):
        with pytest.raises(ValueError):
            Elaborator(parse_grammar("S: T\n"))


class TestElaboration:
    def test_tuple_language(self):
        elab = Elaborator(load_grammar("tuples.g"))
        sym = elab.start_symbol("AlphaTuples")
        for text, want in [("(a,b)", True), ("()", True), ("(a)", True),
                           ("(a,)", False), ("a", False)]:
            accepted, _ = run_recognize(sym, text)
            assert accepted == want, text

    def test_instance_identity(self):
        elab = Elaborator(load_grammar("csv.g"))
        sym = elab.start_symbol("CSV(alpha)")
        assert render_id(sym.id) == "CSV(%alpha)"
        assert elab.start_symbol("CSV(alpha)") is sym

    def test_self_instantiating_definition_elaborates(self):
        # instantiation is lazy, so elaboration terminates even though the
        # definition applies itself to ever-larger arguments
        sym = Elaborator(load_grammar("anbncn.g")).start_symbol("Start")
        assert render_id(sym.id) == "Start"

    def test_literal_token_naming(self):
        elab = Elaborator(parse_grammar("S: ','\n"))
        sym = elab.start_symbol("S")
        assert render_id(sym.plans()[0].symbols[0].id) == "','"

    def test_unresolved_start(self):
        with pytest.raises(ValueError):
            Elaborator(parse_grammar("S: 'a'\n")).start_symbol("T")

    def test_words_mode(self):
        ast = parse_grammar("%token let 'x'\nS: let let\n")
        sym = Elaborator(ast, mode="words").start_symbol("S")
        accepted, _ = run_recognize(sym, ["let", "let"])
        assert accepted
        accepted, _ = run_recognize(sym, ["let", "other"])
        assert not accepted

    def test_char_classes(self):
        ast = parse_grammar("%token d %digit\n%token lo [a-cx]\nS: d lo\n")
        sym = Elaborator(ast).start_symbol("S")
        for text, want in [("3a", True), ("9x", True), ("3d", False), ("aa", False)]:
            accepted, _ = run_recognize(sym, text)
            assert accepted == want, text


def letters_and_digits():
    """Two grammars that differ only in what `alpha` matches."""
    text = "%%token alpha [%s]\nSep(s, x): x s Sep(s, x) | x\nL: Sep(',', alpha)\n"
    return Elaborator(parse_grammar(text % "a-z")), Elaborator(parse_grammar(text % "0-9"))


def accepts(sym, text):
    return run_recognize(sym, text)[0]


def applied_ids():
    gc.collect()
    return sum(1 for o in gc.get_objects() if type(o) is Applied)


class TestGrammarsCombine:
    """Each Elaborator's ids are its own, so same-named nonterminals of two
    grammars stay two nonterminals when one run meets both."""

    def xs(self):
        return (Elaborator(parse_grammar("X: 'a'\n")).start_symbol("X"),
                Elaborator(parse_grammar("X: 'b'\n")).start_symbol("X"))

    def test_sequence(self):
        xa, xb = self.xs()
        s = nonterminal_symbol("S", [], [((xa, xb),)])
        assert accepts(s, "ab") and not accepts(s, "aa")

    def test_choice(self):
        xa, xb = self.xs()
        s = nonterminal_symbol("S", [], [((xa,),), ((xb,),)])
        assert accepts(s, "a") and accepts(s, "b")

    def test_same_definitions_over_other_tokens(self):
        letters, digits = letters_and_digits()
        both = nonterminal_symbol("Both", [], [((letters.start_symbol("L"),),),
                                               ((digits.start_symbol("L"),),)])
        for text in ("a,b", "1,2", "7"):
            assert accepts(both, text), text
        assert not accepts(both, "a,2")

    def test_instance_over_another_grammars_token(self):
        letters, digits = letters_and_digits()
        sep, comma = letters.ast.names["Sep"], letters.start_symbol("','")
        both = nonterminal_symbol("Both", [], [
            ((letters.instantiate(sep, (comma, letters.start_symbol("alpha"))),),),
            ((letters.instantiate(sep, (comma, digits.start_symbol("alpha"))),),)])
        assert accepts(both, "a,b") and accepts(both, "1,2")

    def test_ids_are_freed_with_their_grammar(self):
        ast = load_grammar("anbncn.g")
        before = applied_ids()
        elab = Elaborator(ast)
        with pytest.raises(ResourceExhausted):
            run_recognize(elab.start_symbol("Start"), "aabbcc", instantiation_budget=200)
        assert applied_ids() > before + 200
        del elab
        assert applied_ids() == before


token_patterns = st.one_of(
    st.sampled_from("abc,+\n").map(lambda c: PatternSpec("literal", c)),
    st.sampled_from(["alpha", "digit", "any"]).map(lambda c: PatternSpec("class", c)),
    st.sampled_from(["a-c", "xy", "0-9_", "x\ny"]).map(lambda s: PatternSpec("set", s)))
name_st = st.sampled_from(["A", "B", "C_d", "xs"])


@st.composite
def grammar_asts(draw):
    tokens = draw(st.lists(
        st.tuples(st.sampled_from(["t1", "t2"]), token_patterns),
        max_size=2, unique_by=lambda t: t[0]))
    token_names = [n for n, _ in tokens]
    def_names = draw(st.lists(st.sampled_from(["D1", "D2", "D3"]),
                              min_size=1, max_size=3, unique=True))
    symrefs = st.one_of(
        st.sampled_from("ab,\n").map(Lit),
        st.sampled_from(def_names + token_names).map(lambda n: Ref(n)))
    defs = []
    for name in def_names:
        alts = draw(st.lists(st.lists(symrefs, max_size=3).map(tuple),
                             min_size=1, max_size=3).map(tuple))
        defs.append(NtDef(name, (), alts))
    # no token in two groups, which the parser rejects
    declared = draw(st.lists(st.sampled_from(["'+'", "'*'"] + token_names), unique=True))
    precs = []
    while declared:
        size = draw(st.integers(1, len(declared)))
        assoc = draw(st.sampled_from(["left", "right", "nonassoc"]))
        precs.append(PrecDecl(assoc, tuple(declared[:size])))
        declared = declared[size:]
    return GrammarAst(tuple(TokenDecl(n, p) for n, p in tokens), tuple(precs), tuple(defs))


class TestRoundTrip:
    @given(grammar_asts())
    def test_render_then_parse_is_identity(self, ast):
        assert parse_grammar(render_grammar(ast)) == ast


def token_boundaries(text: str) -> list[int]:
    """Every position of rendered grammar text that lies between two tokens
    (or whitespace), found without the lexer: literals and sets are skipped
    whole, names and directives as runs of name characters."""
    cuts, i = [0], 0
    while i < len(text):
        if text[i] == "'":
            i += 3
        elif text[i] == "[":
            i = text.index("]", i) + 1
        elif text[i] == "%" or text[i].isalnum() or text[i] == "_":
            i += 1
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
        else:
            i += 1
        cuts.append(i)
    return cuts


# blanks and comments; each comment ends with its newline, so no padding
# before the bad character can hide it
padding = st.lists(st.sampled_from([" ", "\t", "\n", "-- '[%?\n"]), max_size=4).map("".join)


class TestErrorPositions:
    """Each kind of GrammarError, with its message and (line, column)."""

    @pytest.mark.parametrize("text, message, line, column", [
        ("X: 'ab\n", "unterminated character literal", 1, 4),
        ("X: 'a", "unterminated character literal", 1, 4),
        ("%token t [abc\n", "unterminated character set", 1, 10),
        ("%1 X\n", "bad directive", 1, 1),
        ("X: 'a' %", "bad directive", 1, 8),
        ("X: 'a' ?\n", "unexpected character '?'", 1, 8),
        ("X:\t\t'a' ?\n", "unexpected character '?'", 1, 9),
        ("-- c ?\nX: 'a' -- ok\n  ; \n", "unexpected character ';'", 3, 3),
        ("X: 'a' -- c\n\t\t#\n", "unexpected character '#'", 2, 3),
        ("X: 'a'\r\n  ?", "unexpected character '?'", 2, 3),
        ("X: - 'a'\n", "unexpected character '-'", 1, 4),
        ("%token t", "unexpected end of grammar", 1, 8),
        ("X(a, b", "unexpected end of grammar", 1, 6),
        ("X: P(Q(", "unexpected end of grammar", 1, 7),
        ("\n\n  X", "unexpected end of grammar", 3, 3),
        ("X 'a'\n", "expected ':', found 'a'", 1, 3),
        ("X(a b): 'a'\n", "expected ')', found 'b'", 1, 5),
        ("%token 'a' 'b'\n", "expected 'name', found 'a'", 1, 8),
        ("%token t %foo\n", "expected token pattern, found 'foo'", 1, 10),
        ("X: )\n", "expected declaration, found ')'", 1, 4),
        ("'a'", "expected declaration, found 'a'", 1, 1),
        ("%foo 'a'\n", "unknown directive %foo", 1, 1),
        ("%left X: 'a'\n", "%left needs at least one literal or token name", 1, 7),
        ("X: 'a'\n%right", "%right needs at least one literal or token name", 2, 1),
        ("%left '+' '*' '+'\n", "precedence of '+' declared twice", 1, 15),
        ("%left '+'\n%right '-' '+'\n", "precedence of '+' declared twice", 2, 12),
        ("%token p '+'\n%left p\n%nonassoc\tp\n", "precedence of p declared twice", 3, 11),
    ])
    def test_parse_grammar(self, text, message, line, column):
        with pytest.raises(GrammarError) as err:
            parse_grammar(text)
        assert (str(err.value), err.value.line, err.value.column) == \
            (f"{line}:{column}: {message}", line, column)

    @pytest.mark.parametrize("text, message, line, column", [
        ("CSV(alpha) extra", "trailing input after symbol reference: 'extra'", 1, 12),
        ("CSV(alpha", "unexpected end of grammar", 1, 5),
        ("", "unexpected end of grammar", 1, 1),
        ("|", "expected symbol, found '|'", 1, 1),
    ])
    def test_parse_symref(self, text, message, line, column):
        with pytest.raises(GrammarError) as err:
            parse_symref(text)
        assert (str(err.value), err.value.line, err.value.column) == \
            (f"{line}:{column}: {message}", line, column)

    @pytest.mark.parametrize("text, line, column", [
        ("%token x [a\nb]\nX: ?", 3, 4),
        ("%token x [a\n\nb] ?", 3, 4),
        ("X: '\n'\nY: ?", 3, 4),
        ("X: '\n' ?", 2, 3),
    ])
    def test_newline_inside_set_or_literal_starts_a_line(self, text, line, column):
        with pytest.raises(GrammarError) as err:
            parse_grammar(text)
        assert (err.value.line, err.value.column) == (line, column)

    @given(grammar_asts(), st.data())
    def test_inserted_character_is_located(self, ast, data):
        text = render_grammar(ast)
        at = data.draw(st.sampled_from(token_boundaries(text)))
        before = text[:at] + data.draw(padding)
        bad = before + "?" + data.draw(padding) + data.draw(st.sampled_from(["", "-- ]'"]))
        with pytest.raises(GrammarError) as err:
            parse_grammar(bad + text[at:])
        line = before.count("\n") + 1
        column = len(before) - before.rfind("\n")
        assert (str(err.value), err.value.line, err.value.column) == \
            (f"{line}:{column}: unexpected character '?'", line, column)
