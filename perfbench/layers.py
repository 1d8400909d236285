"""The benchmark's calls into gllkit's modules, each timed from outside.

A `Layers` object is the only place the benchmark calls gllkit. With a
`Tracer` attached, every call records a span (request id, span id, parent
id, name, start, end) in memory; without one, the calls run bare. Work
counts are read from the ParseState after every recognition, traced or not,
because they are also the determinism check.
"""
from __future__ import annotations

import os
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from gllkit.dsl import Elaborator, parse_grammar
from gllkit.engine import run_recognize
from gllkit.forest import count_derivations, evaluate, extract_errors, extract_trees
from gllkit.state import ResourceExhausted

ROOT = Path(__file__).resolve().parent.parent
CLI_TIMEOUT_S = 60
_NO_SPAN = nullcontext()


class Tracer:
    """Spans kept in memory until `write` puts them in a file."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.request_id = None

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def innermost(self):
        return self.spans[self._stack[-1]][3] if self._stack else None

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            f.write("request\tspan\tparent\tname\tstart\tend\n")
            for req, sid, parent, name, start, end in self.spans:
                f.write(f"{req}\t{sid}\t{'' if parent is None else parent}\t"
                        f"{name}\t{start:.9f}\t{end:.9f}\n")


def self_times(spans) -> dict:
    """Seconds per layer (the span name up to its first dot): each span's
    duration minus the part of it that its child spans cover."""
    covered: dict[int, float] = {}
    for _req, _sid, parent, _name, start, end in spans:
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    out: dict[str, float] = {}
    for _req, sid, _parent, name, start, end in spans:
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (end - start) - covered.get(sid, 0.0)
    return out


class _Span:
    __slots__ = ("tracer", "name", "sid")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.sid = len(t.spans)
        parent = t._stack[-1] if t._stack else None
        t.spans.append([t.request_id, self.sid, parent, self.name,
                        time.perf_counter(), None])
        t._stack.append(self.sid)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.sid][5] = time.perf_counter()
        t._stack.pop()
        return False


class Layers:
    """Wrapped calls into dsl, engine (with state counts), forest and cli."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        self.counts: dict[str, int] = {}
        self.gc_pause_s = 0.0
        self._gc_start = None

    def _span(self, name: str):
        return _NO_SPAN if self.tracer is None else self.tracer.span(name)

    def _count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # gc.callbacks hook, installed only while tracing
    def on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            inside = self.tracer is not None and self.tracer.innermost() == "engine.recognize"
            self._gc_start = time.perf_counter() if inside else None
        elif self._gc_start is not None:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self._gc_start = None

    # --- dsl ---
    def load(self, text: str, start: str, mode: str = "char"):
        """Grammar text to (Elaborator, start Symbol)."""
        with self._span("dsl.load"):
            elab = Elaborator(parse_grammar(text), mode)
            sym = elab.start_symbol(start)
        self._count("dsl.loads")
        return elab, sym

    # --- engine and state ---
    def recognize(self, sym, tokens, instantiation_budget=None):
        """(accepted, state, tripped); accepted is None when a budget tripped."""
        with self._span("engine.recognize"):
            try:
                accepted, state = run_recognize(
                    sym, tokens, instantiation_budget=instantiation_budget)
                tripped = False
            except ResourceExhausted as err:
                accepted, state, tripped = None, err.state, True
        for name, n in {
            "engine.runs": 1,
            "engine.tokens": len(tokens),
            "engine.descriptors": state.stats.descriptors_processed,
            "engine.instantiations": state.stats.instantiations,
            "engine.budget_trips": int(tripped),
            "state.uset": len(state.uset),
            "state.bsr_elements": len(state.bsrs),
            "state.prel": len(state.prel),
            "state.grel_pairs": sum(1 for _ in state.grel.pairs()),
        }.items():
            self._count(name, n)
        return accepted, state, tripped

    # --- forest ---
    def count(self, sym, tokens, bsrs):
        with self._span("forest.count"):
            got = count_derivations(sym, tokens, bsrs, 0, len(tokens))
        self._count("forest.count_saturated", int(got.saturated))
        return got

    def trees(self, sym, tokens, bsrs, limit: int, filters=()):
        name = "forest.first_tree" if limit == 1 else "forest.k_trees"
        with self._span(name):
            trees = extract_trees(sym, tokens, bsrs, limit=limit, filters=filters)
        self._count("forest.trees_yielded", len(trees))
        return trees

    def evaluate(self, sym, tokens, bsrs):
        with self._span("forest.evaluate"):
            return evaluate(sym, tokens, bsrs, 0, len(tokens))

    def errors(self, state):
        with self._span("forest.errors"):
            return extract_errors(state, 3)

    # --- cli ---
    def process(self, argv: list[str]):
        """One `python -m gllkit.cli` run from the checkout root."""
        with self._span("cli.process"):
            return run_python(["-m", "gllkit.cli", *argv])


def run_python(args: list[str]):
    """(exit code, stdout) of a fresh interpreter that can import gllkit."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    return done.returncode, done.stdout
