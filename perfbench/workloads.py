"""The four workloads. Each builds rounds of requests from a seeded RNG.

A request calls gllkit only through `Layers` and returns a small answer that
`check` compares with an independent reference (see reference.py) after the
request's timer has stopped. Grammars that requests share are loaded in
`setup`, which is part of the benchmark's set-up time.

Why each workload exists, and which layer metrics should move which
end-to-end metric on it, is in README.md next to this file.
"""
from __future__ import annotations

import json
import random
import zlib
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

from gllkit.core import Applied
from gllkit.dsl import Lit, Ref, parse_grammar
from gllkit.engine import AltPlan, TokenPattern, char_token, lazy_nonterminal, token_symbol
from gllkit.forest import COUNT_CAP

import reference as ref
from layers import ROOT, Layers

GRAMMARS = ROOT / "grammars"
LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass
class Request:
    kind: str
    key: str  # identifies the inputs
    run: Callable[[Layers], object]
    check: Callable[[object], Optional[str]]


def grammar_text(name: str) -> str:
    return (GRAMMARS / name).read_text()


def expr_text(n_operands: int) -> str:
    return "+".join("a" * n_operands)


def letters(rng: random.Random, n: int) -> list[str]:
    return [rng.choice(LETTERS) for _ in range(n)]


def recognize_request(kind: str, sym, text: str, want: bool) -> Request:
    def run(layers: Layers):
        accepted, _state, _tripped = layers.recognize(sym, text)
        return accepted

    return Request(kind, f"{kind}:{text}", run,
                   lambda got: ref.check_verdict(got, want))


class Ambiguous:
    """Recognition only, on dense and highly ambiguous inputs."""

    name = "ambiguous"
    # Collect garbage before each request, outside its timer. A recognition
    # here allocates hundreds of thousands of objects, and how many full
    # collections fall inside it depends on what earlier requests left
    # behind; collecting first gives every request the same start.
    collect_before = True
    # peak_rss_mib is read after this many rounds, so that a faster program,
    # which runs more rounds, does not read as using more memory
    rss_rounds = 3
    GRAMMARS = {"S1": ("s1.g", "S1"), "S2": ("s2.g", "S2"), "E": ("e.g", "E"),
                "Expr": ("expr.g", "Expr"), "CSV": ("csv.g", "CSV(alpha)")}

    def setup(self, layers: Layers) -> None:
        self.syms = {key: layers.load(grammar_text(f), start)[1]
                     for key, (f, start) in self.GRAMMARS.items()}

    def round(self, rng: random.Random) -> list[Request]:
        sym = self.syms
        reqs = []

        def add(kind: str, grammar: str, text: str, want: bool) -> None:
            reqs.append(recognize_request(kind, sym[grammar], text, want))

        # 13 requests: five fast ones, three copies of E a^55 in the middle,
        # so the median is that request's, and five slow ones, whose two
        # copies of E a^70 hold the latency tail.
        add("expr 40", "Expr", expr_text(40), True)
        add("expr reject", "Expr", expr_text(50) + "+", False)
        add("CSV 50", "CSV", ",".join(letters(rng, 50)), True)
        items = letters(rng, 60)
        cut = 55 + rng.randrange(4)
        add("CSV reject", "CSV", ",".join(items[:cut]) + ",," + ",".join(items[cut:]), False)
        add("S1 a^60", "S1", "a" * 60, True)
        for _ in range(3):
            add("E a^55", "E", "a" * 55, True)
        add("S1 a^90", "S1", "a" * 90, True)
        add("S2 a^90", "S2", "a" * 90, True)
        cut = 69 - rng.randrange(4)
        add("E reject", "E", "a" * cut + "b" + "a" * (69 - cut), False)
        for _ in range(2):
            add("E a^70", "E", "a" * 70, True)
        return reqs


class Forest:
    """Inputs that are cheap to recognize but expensive to walk."""

    name = "forest"
    collect_before = True  # as in Ambiguous
    rss_rounds = 3  # as in Ambiguous
    GRAMMARS = {"S1": ("s1.g", "S1"), "E": ("e.g", "E"), "Expr": ("expr.g", "Expr"),
                "ExprLeft": ("expr_left.g", "Expr"), "Tuples": ("tuples.g", "AlphaTuples"),
                "CSV": ("csv.g", "CSV(alpha)")}

    def setup(self, layers: Layers) -> None:
        self.elabs = {}
        self.syms = {}
        for key, (f, start) in self.GRAMMARS.items():
            self.elabs[key], self.syms[key] = layers.load(grammar_text(f), start)
        self.sum_sym = sum_grammar()
        self._references: dict = {}

    def _reference(self, key, compute):
        if key not in self._references:
            self._references[key] = compute()
        return self._references[key]

    def count(self, kind: str, grammar: str, text: str, want: Callable[[], int]) -> Request:
        sym = self.syms[grammar]

        def run(layers: Layers):
            _acc, state, _t = layers.recognize(sym, text)
            return layers.count(sym, text, state.bsrs)

        return Request(kind, f"{kind}:{text}", run,
                       lambda got: ref.check_count(
                           got, self._reference(("count", grammar, text), want), COUNT_CAP))

    def trees(self, kind: str, grammar: str, start: str, text: str, limit: int,
              total: int) -> Request:
        sym = self.syms[grammar]
        ast = self.elabs[grammar].ast

        def run(layers: Layers):
            _acc, state, _t = layers.recognize(sym, text)
            return layers.trees(sym, text, state.bsrs, limit)

        return Request(kind, f"{kind}:{text}", run,
                       lambda got: ref.check_trees(ast, start, text,
                                                   [ref.shape(t) for t in got], limit, total))

    def round(self, rng: random.Random) -> list[Request]:
        # 16 requests: six fast ones, three copies of the 40-operand count in
        # the middle, so the median is that request's, and seven slow ones,
        # whose two copies of the 9-operator left-associative tree hold the
        # latency tail.
        reqs = [
            self.trees("k trees expr", "Expr", "Expr", expr_text(12), 10, ref.catalan(11)),
            self.count("count E", "E", "a" * 9, lambda: ref.curtailed_count(
                self.elabs["E"].ast, "E", "a" * 9)),
            self.errors("errors expr", "Expr", rng, 40),
            # a^n is in L(E) by construction, so it has at least one tree
            self.trees("first tree E", "E", "E", "a" * 20, 1, 1),
            self.errors("errors CSV", "CSV", rng, 40),
            self.evaluate(rng, 8),
        ]
        reqs += [self.count("count expr", "Expr", expr_text(40), lambda: ref.catalan(39))
                 for _ in range(3)]
        reqs += [
            self.left_assoc(9),
            # C(54) is the largest S1 count below the cap of 10^30
            self.count("count S1", "S1", "a" * 54, lambda: ref.catalan(54)),
            self.count("count expr saturated", "Expr", expr_text(60),
                       lambda: ref.catalan(59)),
            self.deep_tuple(rng, 300),
            self.trees("first tree S1", "S1", "S1", "a" * 100, 1, ref.catalan(100)),
            self.left_assoc(10),
            self.left_assoc(10),
        ]
        return reqs

    def evaluate(self, rng: random.Random, n: int) -> Request:
        digits = [rng.randrange(1, 10) for _ in range(n)]
        ops = [rng.choice("+*") for _ in range(n - 1)]
        text = str(digits[0]) + "".join(o + str(d) for o, d in zip(ops, digits[1:]))
        sym = self.sum_sym

        def run(layers: Layers):
            _acc, state, _t = layers.recognize(sym, text)
            return layers.evaluate(sym, text, state.bsrs)

        def check(got) -> Optional[str]:
            want = ref.bracketing_values(digits, ops)
            if Counter(got) != want:
                return f"{len(got)} values differ from the {want.total()} bracketings"
            return None

        return Request("evaluate sum", f"evaluate sum:{text}", run, check)

    def left_assoc(self, n: int) -> Request:
        """Precedence-filtered first tree: exponential in n at this commit."""
        sym, text = self.syms["ExprLeft"], expr_text(n)
        filters = [self.elabs["ExprLeft"].precedence_filter()]
        want = [ref.left_assoc_tree(n)]

        def run(layers: Layers):
            _acc, state, _t = layers.recognize(sym, text)
            return layers.trees(sym, text, state.bsrs, 1, filters)

        kind = f"left-assoc tree {n - 1} ops"
        return Request(kind, f"{kind}:{text}", run,
                       lambda got: None if [ref.shape(t) for t in got] == want
                       else "not the left-associative tree")

    def deep_tuple(self, rng: random.Random, n: int) -> Request:
        """A deep first tree: raises RecursionError at this commit."""
        text = "(" + ",".join(letters(rng, n)) + ")"
        return self.trees("deep tuple tree", "Tuples", "AlphaTuples", text, 1, 1)

    def errors(self, kind: str, grammar: str, rng: random.Random, n: int) -> Request:
        """A reject whose first bad token is at a known position."""
        sym = self.syms[grammar]
        if grammar == "Expr":
            tokens = list(expr_text(n))
        else:
            tokens = list(",".join(letters(rng, n)))
        bad = len(tokens) - 2 - 2 * rng.randrange(5)
        tokens[bad] = "!"
        text = "".join(tokens)

        def run(layers: Layers):
            accepted, state, _t = layers.recognize(sym, text)
            return accepted, [(r.position, r.got) for r in layers.errors(state)]

        def check(got) -> Optional[str]:
            accepted, reports = got
            if accepted is not False:
                return f"verdict {accepted}, expected False"
            if not reports or any(r != (bad, "!") for r in reports):
                return f"error reports {reports}, expected position {bad}"
            return None

        return Request(kind, f"{kind}:{text}", run, check)


def sum_grammar():
    """Sum: Sum '+' Sum | Sum '*' Sum | digit, with actions that compute the
    value; built through the engine API because the grammar format has no
    semantic actions."""
    sid = Applied("Sum")
    digit = token_symbol(TokenPattern(lambda t: t if t.isdigit() else None, "digit"))
    plus, times = char_token("+"), char_token("*")

    def plans():
        return [AltPlan(sid, (sym, plus, sym), action=lambda c: c[0] + c[2]),
                AltPlan(sid, (sym, times, sym), action=lambda c: c[0] * c[2]),
                AltPlan(sid, (digit,), action=lambda c: int(c[0]))]

    sym = lazy_nonterminal(sid, plans)  # plans() refers to sym itself
    return sym


class Small:
    """Many small requests, each loading its grammar fresh."""

    name = "small"
    collect_before = False  # a collection would cost more than the request
    # as in Ambiguous; 200 rounds (about a quarter of a 24 s run) let the
    # growth of the intern tables show
    rss_rounds = 200
    FILES = ("permutation.g", "list.g", "tuples.g", "csv.g", "anbncn.g")
    BUDGET = 100  # instantiations; anbncn.g never stops minting, so it trips

    def setup(self, layers: Layers) -> None:
        self.texts = {f: grammar_text(f) for f in self.FILES}

    def fresh(self, kind: str, text: str, start: str, tokens: str,
              want: Callable[[], object], budget: Optional[int] = None) -> Request:
        def run(layers: Layers):
            _elab, sym = layers.load(text, start)
            accepted, _state, tripped = layers.recognize(sym, tokens, budget)
            return "trip" if tripped else accepted

        tag = "%08x" % zlib.crc32(text.encode())
        return Request(kind, f"{kind}:{tag}:{tokens}", run,
                       lambda got: None if got == want() else f"{got!r}, expected {want()!r}")

    def round(self, rng: random.Random) -> list[Request]:
        reqs = []
        for _ in range(16):
            text = random_grammar(rng)
            ast = parse_grammar(text)
            start = ast.definitions[0].name
            kind = "random LR" if ref.left_recursive(ast) else "random"
            for tokens in (sample_sentence(rng, ast, start), random_input(rng)):
                reqs.append(self.fresh(
                    kind, text, start, tokens,
                    lambda ast=ast, start=start, tokens=tokens:
                        ref.random_grammar_accepts(ast, start, tokens)))
        for _ in range(6):
            digits = rng.sample("1234", rng.randint(1, 4))
            if rng.random() < 0.5:
                digits.insert(rng.randrange(len(digits) + 1), rng.choice(digits))
            tokens = "".join(digits)
            reqs.append(self.fresh("permutation", self.texts["permutation.g"], "Start",
                                   tokens, lambda t=tokens: ref.permutation_member(t)))
        for _ in range(3):
            m = rng.randint(1, 4)
            tokens = "".join("(" * i + "a" + ")" * i for i in range(m))
            if rng.random() < 0.5:
                tokens = tokens[:-1] if tokens.endswith(")") else tokens + ")"
            reqs.append(self.fresh("list", self.texts["list.g"], "Start", tokens,
                                   lambda t=tokens: ref.nested_list_member(t)))
        for _ in range(3):
            items = ",".join(letters(rng, rng.randint(0, 5)))
            if rng.random() < 0.5:
                items += ","
            tokens = "(" + items + ")"
            reqs.append(self.fresh("tuples", self.texts["tuples.g"], "AlphaTuples",
                                   tokens, lambda t=tokens: ref.tuple_member(t)))
        for _ in range(3):
            tokens = ",".join(letters(rng, rng.randint(1, 6)))
            if rng.random() < 0.5:
                tokens = tokens.replace(",", ",,", 1) if "," in tokens else tokens + ","
            reqs.append(self.fresh("csv", self.texts["csv.g"], "CSV(alpha)", tokens,
                                   lambda t=tokens: ref.csv_member(t)))
        reqs.append(self.fresh("anbncn trip", self.texts["anbncn.g"], "Start",
                               "aabbcc", lambda: "trip", self.BUDGET))
        return reqs


def random_grammar(rng: random.Random, max_nts: int = 4, max_alts: int = 3,
                   max_len: int = 3) -> str:
    """Small random grammar text; empty alternates make nonterminals
    nullable and self-references make them left-recursive."""
    names = [f"N{i}" for i in range(rng.randint(1, max_nts))]
    lines = []
    for name in names:
        alts = []
        for _ in range(rng.randint(1, max_alts)):
            syms = [f"'{rng.choice('ab')}'" if rng.random() < 0.5 else rng.choice(names)
                    for _ in range(rng.randint(0, max_len))]
            alts.append(" ".join(syms))
        lines.append(f"{name}: " + " | ".join(alts))
    return "\n".join(lines) + "\n"


def random_input(rng: random.Random, max_len: int = 6) -> str:
    return "".join(rng.choice("ab") for _ in range(rng.randint(0, max_len)))


def sample_sentence(rng: random.Random, ast, start: str, max_len: int = 6) -> str:
    """A short sentence of the grammar by random expansion, or a random
    string when no short expansion turns up."""
    defs = {d.name: d for d in ast.definitions}
    for _ in range(8):
        out: list[str] = []
        todo = [Ref(start)]
        steps = 0
        while todo and len(out) <= max_len and steps < 40:
            sym = todo.pop()
            steps += 1
            if isinstance(sym, Lit):
                out.append(sym.char)
            else:
                todo.extend(reversed(rng.choice(defs[sym.name].alternates)))
        if not todo and len(out) <= max_len:
            return "".join(out)
    return random_input(rng, max_len)


class Cli:
    """Sequential `python -m gllkit.cli` processes on small inputs."""

    name = "cli"
    collect_before = False  # the work happens in child processes
    rss_rounds = 3  # as in Ambiguous: the largest child of the first rounds
    BUDGET_FUEL = "10000"  # the CLI derives an instantiation budget of fuel // 100

    def setup(self, layers: Layers) -> None:
        pass

    def command(self, kind: str, argv: list[str], want_exit: int,
                check_out: Callable[[str], Optional[str]]) -> Request:
        def check(got) -> Optional[str]:
            code, out = got
            return ref.check_exit(code, want_exit) or check_out(out)

        return Request(kind, f"{kind}:{' '.join(argv)}", lambda layers: layers.process(argv),
                       check)

    def round(self, rng: random.Random) -> list[Request]:
        def lines_are(*want: str):
            return lambda out: None if out.splitlines() == list(want) else f"output {out!r}"

        def first_line_is(want: str):
            return lambda out: None if out.splitlines()[:1] == [want] else f"output {out!r}"

        def stats_accept(out: str) -> Optional[str]:
            try:
                report = json.loads(out)
            except ValueError:
                return f"stats output is not JSON: {out!r}"
            if report.get("result") != "accept" or report.get("uset", 0) < 1:
                return f"stats {report}"
            return None

        items = letters(rng, 3)
        n_ops = 3 + rng.randrange(2)
        n_count = 4 + rng.randrange(3)
        n_stats = 46 + rng.randrange(4)
        csv = ["--grammar", "grammars/csv.g", "--start", "CSV(alpha)", "--text"]
        return [
            self.command("recognize accept", ["recognize", *csv, ",".join(items)], 0,
                         lines_are("accept")),
            self.command("recognize reject", ["recognize", *csv, ",,".join(items)], 1,
                         first_line_is("reject")),
            self.command("parse", ["parse", "--grammar", "grammars/expr_left.g", "--start",
                                   "Expr", "--text", expr_text(n_ops + 1)], 0,
                         lines_are(ref.render_shape(ref.left_assoc_tree(n_ops + 1)),
                                   "1 trees")),
            self.command("parse reject", ["parse", "--grammar", "grammars/expr_left.g",
                                          "--start", "Expr", "--text",
                                          expr_text(n_ops + 1).replace("+", "++", 1)], 1,
                         first_line_is("reject")),
            self.command("count", ["count", "--grammar", "grammars/expr.g", "--start", "Expr",
                                   "--text", expr_text(n_count)], 0,
                         lines_are(str(ref.catalan(n_count - 1)))),
            self.command("anbncn trip", ["recognize", "--grammar", "grammars/anbncn.g",
                                         "--start", "Start", "--text", "aabbcc",
                                         "--fuel", self.BUDGET_FUEL], 2,
                         lambda out: None),
        ] + [
            # Two copies of the slowest command, about 40 ms of recognition on
            # top of start-up, so that the latency tail falls inside one kind
            # of request instead of on whichever start-up happened to stall.
            self.command("stats", ["stats", "--grammar", "grammars/s1.g", "--start", "S1",
                                   "--text", "a" * n_stats, "--format", "json"], 0,
                         stats_accept)
            for _ in range(2)
        ]


WORKLOADS = {w.name: w for w in (Ambiguous, Forest, Small, Cli)}
