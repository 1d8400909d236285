"""Textual grammar format with parameterized nonterminals.

Surface syntax:

    %token NAME pattern        pattern = 'c' | [items] | %alpha | %digit | %any
    %left 'c' NAME ...         also %right / %nonassoc; later groups bind tighter;
                               a NAME is a %token, and no token is declared twice
    Name(p, q): alt | alt      parameters optional; an empty alt is epsilon
    -- line comment

Alternates are sequences of symbol references: literals 'c', names, or
applications Name(arg, ...). Any nonterminal can serve as a start symbol.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Optional, Union

from .core import Applied
from .engine import (
    AltPlan,
    Nonterminal,
    Symbol,
    Token,
    TokenPattern,
    START_NAME,
    lazy_nonterminal,
    token_symbol,
)
from .forest import PrecedenceFilter


class GrammarError(Exception):
    """Syntax error in a grammar file, with position information."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class PatternSpec:
    """Token pattern: a literal char, a char set, or a builtin class."""

    kind: str  # "literal" | "set" | "class"
    value: str

    def classifier(self):
        if self.kind == "literal":
            lit = self.value
            return lambda t: t if t == lit else None
        if self.kind == "class":
            if self.value == "alpha":
                return lambda t: t if isinstance(t, str) and t.isalpha() else None
            if self.value == "digit":
                return lambda t: t if isinstance(t, str) and t.isdigit() else None
            return lambda t: t
        members = _set_members(self.value)
        return lambda t: t if t in members else None


def _set_members(items: str) -> frozenset:
    """Expand the body of a [...] pattern into its member characters."""
    out = set()
    i = 0
    while i < len(items):
        if i + 2 < len(items) and items[i + 1] == "-":
            lo, hi = items[i], items[i + 2]
            out.update(chr(c) for c in range(ord(lo), ord(hi) + 1))
            i += 3
        else:
            out.add(items[i])
            i += 1
    return frozenset(out)


@dataclass(frozen=True)
class Lit:
    """A literal character used directly in an alternate."""

    char: str

    @property
    def token_name(self) -> str:
        return f"'{self.char}'"


@dataclass(frozen=True)
class Ref:
    """A name reference, possibly applied to arguments."""

    name: str
    args: tuple = ()


SymRef = Union[Lit, Ref]


@dataclass(frozen=True)
class TokenDecl:
    name: str
    pattern: PatternSpec


@dataclass(frozen=True)
class PrecDecl:
    assoc: str  # "left" | "right" | "nonassoc"
    names: tuple[str, ...]  # token names: 'c' for a literal, else a %token's


@dataclass(frozen=True)
class NtDef:
    name: str
    params: tuple[str, ...]
    alternates: tuple[tuple, ...]  # each a tuple of SymRef


@dataclass(frozen=True)
class GrammarAst:
    tokens: tuple[TokenDecl, ...]
    precedences: tuple[PrecDecl, ...]
    definitions: tuple[NtDef, ...]

    @cached_property
    def names(self) -> dict[str, Union[TokenDecl, NtDef]]:
        """Each declared name to its first declaration, a token declaration
        before a definition of the same name (which `validate` rejects)."""
        index: dict[str, Union[TokenDecl, NtDef]] = {}
        for decl in self.tokens + self.definitions:
            index.setdefault(decl.name, decl)
        return index

    def token_decl(self, name: str) -> Optional[TokenDecl]:
        decl = self.names.get(name)
        return decl if isinstance(decl, TokenDecl) else None

    def definition(self, name: str) -> Optional[NtDef]:
        decl = self.names.get(name)
        return decl if isinstance(decl, NtDef) else None


# A token: (kind, text, line, column). The kind is "name", "lit", "set",
# "directive", "end" or the punctuation character itself.
_Token = tuple[str, str, int, int]

# One match per token: the blanks and comments before it, then the token,
# one alternative per kind. The last two alternatives are a character that
# starts no token, which is an error (an unterminated literal or set, a bad
# directive, or any other character), and the end of the text. So the
# matches cover the whole text, and no error is skipped.
_TOKEN_RE = re.compile(r"""
    (?P<skip>(?:[ \t\r\n]|--[^\n]*)*)
    (?: (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<punct>[():,|])
      | '(?P<lit>.)'
      | (?P<set>\[[^\]]*\])
      | (?P<directive>%[A-Za-z_][A-Za-z0-9_]*)
      | (?P<bad>.)
      | \Z )
""", re.VERBOSE | re.DOTALL)

_LEX_ERRORS = {
    "'": "unterminated character literal",
    "[": "unterminated character set",
    "%": "bad directive",
}


def _lex(text: str) -> list[_Token]:
    """Tokens of `text`, then an "end" token at the last token's position
    (1:1 when there is none). Lines and columns count from 1; a newline
    anywhere, also inside a literal or a set, starts a new line."""
    toks = []
    append = toks.append
    line, line_start, pos = 1, 0, 0  # line_start: offset of the line's first character
    # findall, not finditer: it makes no match object per token
    for skip, name, punct, lit, set_, directive, bad in _TOKEN_RE.findall(text):
        if skip:
            if "\n" in skip:
                line += skip.count("\n")
                line_start = pos + skip.rfind("\n") + 1
            pos += len(skip)
        if name:
            append(("name", name, line, pos - line_start + 1))
            pos += len(name)
        elif punct:
            append((punct, punct, line, pos - line_start + 1))
            pos += 1
        elif lit:
            append(("lit", lit, line, pos - line_start + 1))
            pos += 3
            if lit == "\n":
                line += 1
                line_start = pos - 1
        elif set_:
            append(("set", set_[1:-1], line, pos - line_start + 1))
            if "\n" in set_:
                line += set_.count("\n")
                line_start = pos + set_.rfind("\n") + 1
            pos += len(set_)
        elif directive:
            append(("directive", directive[1:], line, pos - line_start + 1))
            pos += len(directive)
        elif bad:
            message = _LEX_ERRORS.get(bad) or f"unexpected character {bad!r}"
            raise GrammarError(message, line, pos - line_start + 1)
        else:
            break  # the end of the text
    line, col = toks[-1][2:] if toks else (1, 1)
    append(("end", "", line, col))
    return toks


class _Parser:
    """Recursive descent over the token list, which ends in an "end" token."""

    def __init__(self, toks: list[_Token]):
        self.toks = toks
        self.pos = 0

    def error(self, tok: _Token, expected: str) -> GrammarError:
        if tok[0] == "end":
            return GrammarError("unexpected end of grammar", tok[2], tok[3])
        return GrammarError(f"expected {expected}, found {tok[1]!r}", tok[2], tok[3])

    def expect(self, kind: str) -> str:
        """The text of the next token, which must be of `kind`."""
        tok = self.toks[self.pos]
        if tok[0] != kind:
            raise self.error(tok, repr(kind))
        self.pos += 1
        return tok[1]

    def parse(self) -> GrammarAst:
        tokens: list[TokenDecl] = []
        precs: list[PrecDecl] = []
        defs: list[NtDef] = []
        toks = self.toks
        while True:
            kind, text, line, col = toks[self.pos]
            if kind == "name":
                defs.append(self.nt_def())
            elif kind == "directive":
                if text == "token":
                    tokens.append(self.token_decl())
                elif text in ("left", "right", "nonassoc"):
                    precs.append(self.prec_decl(precs))
                else:
                    raise GrammarError(f"unknown directive %{text}", line, col)
            elif kind == "end":
                return GrammarAst(tuple(tokens), tuple(precs), tuple(defs))
            else:
                raise self.error(toks[self.pos], "declaration")

    def token_decl(self) -> TokenDecl:
        self.pos += 1
        name = self.expect("name")
        tok = self.toks[self.pos]
        kind, text = tok[0], tok[1]
        if kind == "lit":
            spec = PatternSpec("literal", text)
        elif kind == "set":
            spec = PatternSpec("set", text)
        elif kind == "directive" and text in ("alpha", "digit", "any"):
            spec = PatternSpec("class", text)
        else:
            raise self.error(tok, "token pattern")
        self.pos += 1
        return TokenDecl(name, spec)

    def prec_decl(self, precs: list[PrecDecl]) -> PrecDecl:
        toks = self.toks
        assoc = toks[self.pos][1]
        self.pos += 1
        names: list[str] = []
        while True:
            kind, text, line, col = toks[self.pos]
            if kind == "lit":
                name = f"'{text}'"
            elif kind == "name" and not self._at_definition_header():
                name = text
            else:
                break
            if name in names or any(name in p.names for p in precs):
                raise GrammarError(f"precedence of {name} declared twice", line, col)
            names.append(name)
            self.pos += 1
        if not names:
            raise GrammarError(f"%{assoc} needs at least one literal or token name", line, col)
        return PrecDecl(assoc, tuple(names))

    def _at_definition_header(self) -> bool:
        """True iff the name at the current token starts a definition
        header, NAME [ ( ... ) ] ':'."""
        toks = self.toks
        i = self.pos + 1
        kind = toks[i][0]
        if kind != "(":
            return kind == ":"
        depth = 0
        while kind != "end":
            if kind == "(":
                depth += 1
            elif kind == ")":
                depth -= 1
                if depth == 0:
                    return toks[i + 1][0] == ":"
            i += 1
            kind = toks[i][0]
        return False

    def nt_def(self) -> NtDef:
        toks = self.toks
        name = self.expect("name")
        params: list[str] = []
        if toks[self.pos][0] == "(":
            self.pos += 1
            params.append(self.expect("name"))
            while toks[self.pos][0] == ",":
                self.pos += 1
                params.append(self.expect("name"))
            self.expect(")")
        self.expect(":")
        alternates = [self.alternate()]
        while toks[self.pos][0] == "|":
            self.pos += 1
            alternates.append(self.alternate())
        return NtDef(name, tuple(params), tuple(alternates))

    def alternate(self) -> tuple:
        toks = self.toks
        syms: list[SymRef] = []
        while True:
            kind = toks[self.pos][0]
            if kind == "lit":
                syms.append(Lit(toks[self.pos][1]))
                self.pos += 1
            elif kind == "name" and not self._at_definition_header():
                syms.append(self.symref())
            else:
                return tuple(syms)

    def symref(self) -> SymRef:
        toks = self.toks
        tok = toks[self.pos]
        if tok[0] == "lit":
            self.pos += 1
            return Lit(tok[1])
        if tok[0] != "name":
            raise self.error(tok, "symbol")
        self.pos += 1
        if toks[self.pos][0] != "(":
            return Ref(tok[1])
        self.pos += 1
        args = [self.symref()]
        while toks[self.pos][0] == ",":
            self.pos += 1
            args.append(self.symref())
        self.expect(")")
        return Ref(tok[1], tuple(args))


def parse_grammar(text: str) -> GrammarAst:
    return _Parser(_lex(text)).parse()


def parse_symref(text: str) -> SymRef:
    """Parse a start-symbol reference such as "CSV(alpha)"."""
    parser = _Parser(_lex(text))
    ref = parser.symref()
    kind, rest, line, col = parser.toks[parser.pos]
    if kind != "end":
        raise GrammarError(f"trailing input after symbol reference: {rest!r}", line, col)
    return ref


def render_grammar(ast: GrammarAst) -> str:
    """Canonical textual form; parse_grammar(render_grammar(ast)) == ast."""
    lines = []
    for t in ast.tokens:
        if t.pattern.kind == "literal":
            pat = f"'{t.pattern.value}'"
        elif t.pattern.kind == "set":
            pat = f"[{t.pattern.value}]"
        else:
            pat = f"%{t.pattern.value}"
        lines.append(f"%token {t.name} {pat}")
    for p in ast.precedences:
        lines.append(f"%{p.assoc} " + " ".join(n for n in p.names))
    for d in ast.definitions:
        header = d.name
        if d.params:
            header += "(" + ", ".join(d.params) + ")"
        alts = " | ".join(" ".join(_render_ref(s) for s in alt)
                          for alt in d.alternates)
        lines.append(f"{header}: {alts}")
    return "\n".join(lines) + "\n"


def _render_ref(ref: SymRef) -> str:
    if isinstance(ref, Lit):
        return f"'{ref.char}'"
    if ref.args:
        return ref.name + "(" + ", ".join(_render_ref(a) for a in ref.args) + ")"
    return ref.name


def validate(ast: GrammarAst) -> list[str]:
    """All static violations, one message each; empty means well formed."""
    diags: list[str] = []
    token_names = set()
    for t in ast.tokens:
        if t.name in token_names:
            diags.append(f"duplicate token declaration {t.name!r}")
        token_names.add(t.name)
    def_names = set()
    for d in ast.definitions:
        if d.name == START_NAME:
            diags.append(f"{START_NAME!r} is reserved")
        if d.name in def_names:
            diags.append(f"duplicate definition {d.name!r}")
        def_names.add(d.name)
        if d.name in token_names:
            diags.append(f"{d.name!r} declared both as token and nonterminal")
        seen_params = set()
        for p in d.params:
            if p in seen_params:
                diags.append(f"duplicate parameter {p!r} in {d.name!r}")
            seen_params.add(p)
    arity = {d.name: len(d.params) for d in ast.definitions}
    for d in ast.definitions:
        scope = set(d.params)
        for alt in d.alternates:
            for ref in alt:
                _check_ref(ref, d.name, scope, token_names, arity, diags)
    if ast.precedences:
        _check_precedences(ast, token_names, diags)
    return diags


def _check_ref(ref: SymRef, where: str, scope: set, token_names: set,
               arity: dict, diags: list) -> None:
    if isinstance(ref, Lit):
        return
    if ref.name in scope:
        if ref.args:
            diags.append(f"parameter {ref.name!r} applied to arguments in {where!r}")
    elif ref.name in token_names:
        if ref.args:
            diags.append(f"token {ref.name!r} applied to arguments in {where!r}")
    elif ref.name in arity:
        if len(ref.args) != arity[ref.name]:
            diags.append(
                f"{ref.name!r} expects {arity[ref.name]} arguments, "
                f"got {len(ref.args)} in {where!r}")
    else:
        diags.append(f"undefined name {ref.name!r} in {where!r}")
    for a in ref.args:
        _check_ref(a, where, scope, token_names, arity, diags)


def _check_precedences(ast: GrammarAst, token_names: set, diags: list) -> None:
    # Each declared name is a %token, or a literal that some alternate or
    # argument uses.
    literals = set()
    todo = [ref for d in ast.definitions for alt in d.alternates for ref in alt]
    while todo:
        ref = todo.pop()
        if isinstance(ref, Lit):
            literals.add(ref.token_name)
        else:
            todo.extend(ref.args)
    for p in ast.precedences:
        for name in p.names:
            if not name.startswith("'"):
                if name not in token_names:
                    diags.append(f"%{p.assoc} names {name!r}, which is not a token")
            elif name not in literals:
                diags.append(f"%{p.assoc} names {name}, which occurs in no alternate")


class Elaborator:
    """Turns a validated GrammarAst into an engine Symbol graph.

    The registry is the grammar's symbol table: it maps a token's name, or an
    instance's (definition name, argument ids), to the one Symbol, whose id is
    made with it. So the ids are this grammar's own and are freed with it.
    Instantiation is memoized there and the alternates of each instance are
    built lazily, so self-instantiating definitions elaborate in bounded time.
    """

    def __init__(self, ast: GrammarAst, mode: str = "char"):
        if mode not in ("char", "words"):
            raise ValueError(f"unknown token mode {mode!r}")
        problems = validate(ast)
        if problems:
            raise ValueError("invalid grammar: " + "; ".join(problems))
        self.ast = ast
        self.mode = mode
        self.registry: dict[Union[str, tuple], Symbol] = {}

    def literal_symbol(self, char: str) -> Token:
        name = f"'{char}'"
        sym = self.registry.get(name)
        if sym is None:
            classifier = (lambda t, c=char: t if t == c else None)
            sym = self.registry[name] = token_symbol(TokenPattern(classifier, name))
        return sym

    def declared_token_symbol(self, decl: TokenDecl) -> Token:
        sym = self.registry.get(decl.name)
        if sym is None:
            if self.mode == "words":
                classifier = (lambda t, n=decl.name: t if t == n else None)
            else:
                classifier = decl.pattern.classifier()
            sym = self.registry[decl.name] = token_symbol(TokenPattern(classifier, decl.name))
        return sym

    def resolve(self, ref: SymRef, env: Optional[dict] = None) -> Symbol:
        """The symbol `ref` names, where `env` binds the parameters in scope."""
        if isinstance(ref, Lit):
            return self.literal_symbol(ref.char)
        name = ref.name
        if env and name in env:
            return env[name]
        decl = self.ast.names.get(name)
        if isinstance(decl, NtDef):
            if not ref.args:
                return self.instantiate(decl, ())
            return self.instantiate(decl, tuple([self.resolve(a, env) for a in ref.args]))
        if decl is None:
            raise ValueError(f"unresolved symbol reference {name!r}")
        return self.declared_token_symbol(decl)

    def instantiate(self, defn: NtDef, args: tuple) -> Nonterminal:
        key = (defn.name, tuple([a.id for a in args]))
        sym = self.registry.get(key)
        if sym is None:
            sid = Applied(*key)
            env = dict(zip(defn.params, args)) if args else None
            # a partial (two objects) rather than a closure (a function, four
            # cells and a bound `resolve`): fewer objects for the collector
            sym = self.registry[key] = lazy_nonterminal(
                sid, partial(Elaborator._plans, self, defn, sid, env))
        return sym

    def _plans(self, defn: NtDef, sid: Applied, env: Optional[dict]) -> list:
        return [AltPlan(sid, [self.resolve(s, env) for s in alt]) for alt in defn.alternates]

    def start_symbol(self, start: Union[str, SymRef]) -> Symbol:
        ref = parse_symref(start) if isinstance(start, str) else start
        return self.resolve(ref)

    def precedence_filter(self) -> Optional[PrecedenceFilter]:
        if not self.ast.precedences:
            return None
        return PrecedenceFilter([(p.assoc, p.names) for p in self.ast.precedences])
