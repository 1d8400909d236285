"""Naive continuation-passing recognizer, used as a differential oracle.

Recognizers are composed structurally from a GrammarAst: alternation by
disjunction, sequencing by continuation chaining, no memoization and no
descriptor bookkeeping. Deliberately independent of the engine so the two can
check each other; diverges on left-recursive grammars by design.
"""
from __future__ import annotations

from typing import Callable, Union

from .dsl import GrammarAst, Lit, Ref, SymRef, TokenDecl, parse_symref, validate
from .engine import TokenPattern

# A recognizer takes (input, position, continuation) and reports whether any
# continuation invocation succeeded.
NaiveRecognizer = Callable[[object, int, Callable[[int], bool]], bool]


def naive_token(pattern: TokenPattern) -> NaiveRecognizer:
    classifier = pattern.classifier

    def rec(inp, k: int, c) -> bool:
        return k < len(inp) and classifier(inp[k]) is not None and c(k + 1)

    return rec


def naive_sequence(parts: list[NaiveRecognizer]) -> NaiveRecognizer:
    def rec(inp, k: int, c) -> bool:
        def step(i: int, pos: int) -> bool:
            if i == len(parts):
                return c(pos)
            return parts[i](inp, pos, lambda nxt: step(i + 1, nxt))

        return step(0, k)

    return rec


def naive_alternation(alts: list[NaiveRecognizer]) -> NaiveRecognizer:
    def rec(inp, k: int, c) -> bool:
        return any(alt(inp, k, c) for alt in alts)

    return rec


def naive_run(rec: NaiveRecognizer, inp) -> bool:
    """True iff the whole input is recognized from position 0."""
    n = len(inp)
    return rec(inp, 0, lambda k: k == n)


class NaiveInterpreter:
    """Builds recognizers straight from a grammar AST, per token mode."""

    def __init__(self, ast: GrammarAst, mode: str = "char"):
        if mode not in ("char", "words"):
            raise ValueError(f"unknown token mode {mode!r}")
        problems = validate(ast)
        if problems:
            raise ValueError("invalid grammar: " + "; ".join(problems))
        self.ast = ast
        self.mode = mode
        # key: structural identity of an instantiated definition
        self._memo: dict[tuple, NaiveRecognizer] = {}

    def _literal(self, char: str) -> NaiveRecognizer:
        def rec(inp, k: int, c) -> bool:
            return k < len(inp) and inp[k] == char and c(k + 1)

        return rec

    def _declared(self, decl: TokenDecl) -> NaiveRecognizer:
        name = decl.name
        if self.mode == "words":
            def rec(inp, k: int, c) -> bool:
                return k < len(inp) and inp[k] == name and c(k + 1)

            return rec
        classifier = decl.pattern.classifier()

        def rec(inp, k: int, c) -> bool:
            return k < len(inp) and classifier(inp[k]) is not None and c(k + 1)

        return rec

    def _resolve(self, ref: SymRef, env: dict) -> tuple[tuple, NaiveRecognizer]:
        """Returns (structural key, recognizer) for a symbol reference."""
        if isinstance(ref, Lit):
            return (("lit", ref.char), self._literal(ref.char))
        if ref.name in env:
            return env[ref.name]
        decl = self.ast.names.get(ref.name)
        if decl is None:
            raise ValueError(f"unresolved symbol reference {ref.name!r}")
        if isinstance(decl, TokenDecl):
            return (("tok", ref.name), self._declared(decl))
        args = [self._resolve(a, env) for a in ref.args]
        return self._instantiate(decl, args)

    def _instantiate(self, defn, args: list[tuple]) -> tuple[tuple, NaiveRecognizer]:
        key = ("nt", defn.name, tuple(k for k, _ in args))
        hit = self._memo.get(key)
        if hit is not None:
            return (key, hit)
        env = dict(zip(defn.params, args))
        cell: list = []

        def rec(inp, k: int, c) -> bool:
            if not cell:
                cell.append(naive_alternation([
                    naive_sequence([self._resolve(s, env)[1] for s in alt])
                    for alt in defn.alternates]))
            return cell[0](inp, k, c)

        self._memo[key] = rec
        return (key, rec)

    def recognizer(self, start: Union[str, SymRef]) -> NaiveRecognizer:
        ref = parse_symref(start) if isinstance(start, str) else start
        return self._resolve(ref, {})[1]

    def accepts(self, start: Union[str, SymRef], inp) -> bool:
        return naive_run(self.recognizer(start), inp)
