"""Command-line front door: recognize, dump forests, enumerate trees, count
derivations or report stats.

Every command loads the grammar, reads the input and recognizes it once;
then its printer writes the answer. parse and count stop at a reject's error
reports; recognize prints them after --oracle has checked the verdict.

Exit codes: 0 accept, 1 reject, 2 operational error (bad grammar, IO, fuel,
or an internal failure such as running out of stack or memory).
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from typing import NamedTuple, Optional

from .core import Applied, SymbolId, render_slot
from .dsl import Elaborator, GrammarError, parse_grammar
from .engine import Symbol, run_recognize
from .forest import count_derivations, extract_errors, extract_trees
from .naive import NaiveInterpreter
from .state import ParseState, ResourceExhausted

DEFAULT_FUEL = 10 ** 7


class CliError(Exception):
    pass


def _read_input(cfg: argparse.Namespace) -> str:
    sources = [cfg.text is not None, cfg.input is not None, cfg.stdin]
    if sum(sources) != 1:
        raise CliError("exactly one of --text, --input, --stdin is required")
    if cfg.text is not None:
        return cfg.text
    if cfg.input is not None:
        try:
            with open(cfg.input, "r") as f:
                return f.read()
        except OSError as e:
            raise CliError(f"cannot read input: {e}")
    return sys.stdin.read()


def _load(cfg: argparse.Namespace):
    try:
        with open(cfg.grammar, "r") as f:
            grammar_text = f.read()
    except OSError as e:
        raise CliError(f"cannot read grammar: {e}")
    try:
        ast = parse_grammar(grammar_text)
        elab = Elaborator(ast, cfg.mode)
        start = elab.start_symbol(cfg.start)
    except (GrammarError, ValueError) as e:
        raise CliError(str(e))
    return elab, start


class Run(NamedTuple):
    """One recognition of the input, as a command's printer reads it."""
    elab: Elaborator
    start: Symbol
    tokens: str | list[str]
    accepted: bool
    state: ParseState
    elapsed: float


def _recognize(cfg: argparse.Namespace) -> Run:
    """Load the grammar, read the input and recognize it under the fuel
    budget and the instantiation budget derived from it (fuel // 100)."""
    elab, start = _load(cfg)
    text = _read_input(cfg)
    tokens = text.split() if cfg.mode == "words" else text
    fuel = None if cfg.fuel == 0 else cfg.fuel
    inst = None if fuel is None else max(1, fuel // 100)
    t0 = time.perf_counter()
    accepted, state = run_recognize(start, tokens, fuel=fuel, instantiation_budget=inst)
    return Run(elab, start, tokens, accepted, state, time.perf_counter() - t0)


def _filters(elab) -> list:
    """The grammar's precedence declarations, as the forest's filters."""
    prec = elab.precedence_filter()
    return [prec] if prec is not None else []


def _sid_json(sid: SymbolId) -> dict:
    if isinstance(sid, Applied):
        return {"nt": sid.name, "args": [_sid_json(a) for a in sid.args]}
    return {"token": sid.name}


def _print_reject(cfg: argparse.Namespace, state: ParseState) -> int:
    reports = extract_errors(state, cfg.errors, accepted=False)
    if cfg.format == "json":
        print(json.dumps({"result": "reject",
                          "errors": [{"position": r.position,
                                      "expected": list(r.expected), "got": r.got}
                                     for r in reports]}))
    else:
        print("reject")
        for r in reports:
            got = "end of input" if r.got is None else repr(r.got)
            print(f"at {r.position}: expected {r.expected[0]}, got {got}")
    return 1


def print_recognize(cfg: argparse.Namespace, run: Run) -> int:
    if cfg.oracle:
        oracle = NaiveInterpreter(run.elab.ast, cfg.mode).accepts(cfg.start, run.tokens)
        if oracle != run.accepted:
            raise CliError(f"oracle mismatch: engine={run.accepted} oracle={oracle}")
    if not run.accepted:
        return _print_reject(cfg, run.state)
    print(json.dumps({"result": "accept"}) if cfg.format == "json" else "accept")
    return 0


def print_bsr(cfg: argparse.Namespace, run: Run) -> int:
    elements = run.state.bsrs.sorted_elements()
    if cfg.format == "json":
        print(json.dumps({
            "result": "accept" if run.accepted else "reject",
            "elements": [{"slot": {"lhs": _sid_json(b.slot.lhs),
                                   "pre": [_sid_json(s) for s in b.slot.pre],
                                   "post": [_sid_json(s) for s in b.slot.post]},
                          "l": b.left, "k": b.pivot, "r": b.right}
                         for b in elements],
            "total": len(elements)}))
    else:
        for b in elements:
            print(f"{render_slot(b.slot)}, {b.left}, {b.pivot}, {b.right}")
        print(f"total: {len(elements)}")
    return 0 if run.accepted else 1


def print_trees(cfg: argparse.Namespace, run: Run) -> int:
    trees = extract_trees(run.start, run.tokens, run.state.bsrs,
                          limit=cfg.max_trees + 1, filters=_filters(run.elab))
    truncated = len(trees) > cfg.max_trees
    trees = trees[:cfg.max_trees]
    if cfg.format == "json":
        print(json.dumps({"result": "accept",
                          "trees": [t.to_json() for t in trees],
                          "truncated": truncated}))
        return 0
    for t in trees:
        print(t.render())
    print(f"{len(trees)} trees (truncated)" if truncated else f"{len(trees)} trees")
    return 0


def print_count(cfg: argparse.Namespace, run: Run) -> int:
    count = count_derivations(run.start, run.tokens, run.state.bsrs, 0,
                              len(run.tokens), _filters(run.elab))
    if cfg.format == "json":
        print(json.dumps({"result": "accept", "count": count.value,
                          "saturated": count.saturated}))
    else:
        print(f"{count.value} (saturated)" if count.saturated else str(count.value))
    return 0


def print_stats(cfg: argparse.Namespace, run: Run) -> int:
    state = run.state
    metrics = {"result": "accept" if run.accepted else "reject",
               "descriptors_processed": state.stats.descriptors_processed,
               "uset": len(state.uset), "bsrs": len(state.bsrs), "prel": len(state.prel)}
    if cfg.format == "json":
        if not cfg.deterministic:
            metrics["wall_time_s"] = run.elapsed
        print(json.dumps(metrics))
    else:
        for name, value in metrics.items():
            print(f"{name.replace('_', ' ')}: {value}")
        if not cfg.deterministic:
            print(f"wall time: {run.elapsed:.6f}s", file=sys.stderr)
    return 0 if run.accepted else 1


PRINTERS = {"recognize": print_recognize, "bsr": print_bsr, "parse": print_trees,
            "count": print_count, "stats": print_stats}


def natural(text: str) -> int:
    """argparse type of counts and budgets: an int, at least 0."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {n}")
    return n


def build_arg_parser() -> argparse.ArgumentParser:
    """Each command accepts only the options it reads; any other is a usage
    error."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--grammar", required=True, help="grammar file path")
    shared.add_argument("--start", required=True,
                        help="start symbol reference, e.g. CSV(alpha)")
    shared.add_argument("--mode", choices=("char", "words"), default="char")
    shared.add_argument("--fuel", type=natural, default=DEFAULT_FUEL,
                        help="descriptor budget, 0 = unlimited")
    shared.add_argument("--format", choices=("text", "json"), default="text")
    source = argparse.ArgumentParser(add_help=False)
    src = source.add_mutually_exclusive_group()
    src.add_argument("--text", help="input given directly on the command line")
    src.add_argument("--input", help="input file path")
    src.add_argument("--stdin", action="store_true", help="read input from stdin")
    errors = argparse.ArgumentParser(add_help=False)
    errors.add_argument("--errors", type=natural, default=3,
                        help="max error reports on reject")

    parser = argparse.ArgumentParser(prog="gllkit",
                                     description="generalized-LL parsing toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    recognize = sub.add_parser("recognize", parents=[shared, source, errors])
    recognize.add_argument("--oracle", action="store_true",
                           help="cross-check against the naive recognizer")
    sub.add_parser("bsr", parents=[shared, source])
    parse = sub.add_parser("parse", parents=[shared, source, errors])
    parse.add_argument("--max-trees", type=natural, default=10)
    sub.add_parser("count", parents=[shared, source, errors])
    stats = sub.add_parser("stats", parents=[shared, source])
    stats.add_argument("--deterministic", action="store_true",
                       help="suppress timing output")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    ns = build_arg_parser().parse_args(argv)
    try:
        run = _recognize(ns)
        if not run.accepted and ns.command in ("parse", "count"):
            return _print_reject(ns, run.state)
        return PRINTERS[ns.command](ns, run)
    except (CliError, ResourceExhausted) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
