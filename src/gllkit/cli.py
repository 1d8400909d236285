"""Command-line front door: recognize, dump forests, enumerate trees, count
derivations, report stats, or benchmark a grammar over growing inputs.

Exit codes: 0 accept, 1 reject, 2 operational error (bad grammar, IO, fuel,
or an internal failure such as running out of stack or memory).
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from .core import Applied, SymbolId, render_slot
from .dsl import Elaborator, GrammarError, parse_grammar
from .engine import run_recognize
from .forest import extract_errors, extract_trees
from . import forest
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


def _tokens(cfg: argparse.Namespace, text: str):
    return text.split() if cfg.mode == "words" else text


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


def _budgets(cfg: argparse.Namespace):
    fuel = None if cfg.fuel == 0 else cfg.fuel
    inst = None if fuel is None else max(1, fuel // 100)
    return fuel, inst


def _filters(elab) -> list:
    """The grammar's precedence declarations, as the forest's filters."""
    prec = elab.precedence_filter()
    return [prec] if prec is not None else []


def _run(cfg: argparse.Namespace, start, tokens) -> tuple[bool, ParseState]:
    fuel, inst = _budgets(cfg)
    return run_recognize(start, tokens, fuel=fuel, instantiation_budget=inst)


def _sid_json(sid: SymbolId) -> dict:
    if isinstance(sid, Applied):
        return {"nt": sid.name, "args": [_sid_json(a) for a in sid.args]}
    return {"token": sid.name}


def _error_json(report) -> dict:
    return {"position": report.position, "expected": list(report.expected),
            "got": report.got}


def _print_reject(cfg: argparse.Namespace, state: ParseState) -> None:
    reports = extract_errors(state, cfg.errors, accepted=False)
    if cfg.format == "json":
        print(json.dumps({"result": "reject",
                          "errors": [_error_json(r) for r in reports]}))
        return
    print("reject")
    for r in reports:
        got = "end of input" if r.got is None else repr(r.got)
        print(f"at {r.position}: expected {r.expected[0]}, got {got}")


def cmd_recognize(cfg: argparse.Namespace) -> int:
    elab, start = _load(cfg)
    tokens = _tokens(cfg, _read_input(cfg))
    accepted, state = _run(cfg, start, tokens)
    if cfg.oracle:
        oracle_accepted = NaiveInterpreter(elab.ast, cfg.mode).accepts(cfg.start, tokens)
        if oracle_accepted != accepted:
            raise CliError(f"oracle mismatch: engine={accepted} oracle={oracle_accepted}")
    if accepted:
        print(json.dumps({"result": "accept"}) if cfg.format == "json" else "accept")
        return 0
    _print_reject(cfg, state)
    return 1


def cmd_bsr(cfg: argparse.Namespace) -> int:
    _elab, start = _load(cfg)
    tokens = _tokens(cfg, _read_input(cfg))
    accepted, state = _run(cfg, start, tokens)
    elements = state.bsrs.sorted_elements()
    if cfg.format == "json":
        print(json.dumps({
            "result": "accept" if accepted else "reject",
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
    return 0 if accepted else 1


def cmd_parse(cfg: argparse.Namespace) -> int:
    elab, start = _load(cfg)
    tokens = _tokens(cfg, _read_input(cfg))
    accepted, state = _run(cfg, start, tokens)
    if not accepted:
        _print_reject(cfg, state)
        return 1
    trees = extract_trees(start, tokens, state.bsrs,
                          limit=cfg.max_trees + 1, filters=_filters(elab))
    truncated = len(trees) > cfg.max_trees
    trees = trees[:cfg.max_trees]
    if cfg.format == "json":
        print(json.dumps({"result": "accept",
                          "trees": [t.to_json() for t in trees],
                          "truncated": truncated}))
        return 0
    for t in trees:
        print(t.render())
    note = f"{len(trees)} trees (truncated)" if truncated else f"{len(trees)} trees"
    print(note)
    return 0


def cmd_count(cfg: argparse.Namespace) -> int:
    elab, start = _load(cfg)
    tokens = _tokens(cfg, _read_input(cfg))
    accepted, state = _run(cfg, start, tokens)
    if not accepted:
        _print_reject(cfg, state)
        return 1
    count = forest.count_derivations(start, tokens, state.bsrs, 0, len(tokens),
                                     _filters(elab))
    if cfg.format == "json":
        print(json.dumps({"result": "accept", "count": count.value,
                          "saturated": count.saturated}))
    else:
        print(f"{count.value} (saturated)" if count.saturated else str(count.value))
    return 0


def cmd_stats(cfg: argparse.Namespace) -> int:
    _elab, start = _load(cfg)
    tokens = _tokens(cfg, _read_input(cfg))
    t0 = time.perf_counter()
    accepted, state = _run(cfg, start, tokens)
    elapsed = time.perf_counter() - t0
    metrics = {
        "result": "accept" if accepted else "reject",
        "descriptors_processed": state.stats.descriptors_processed,
        "uset": len(state.uset),
        "bsrs": len(state.bsrs),
        "prel": len(state.prel),
    }
    if cfg.format == "json":
        if not cfg.deterministic:
            metrics["wall_time_s"] = elapsed
        print(json.dumps(metrics))
    else:
        print(f"result: {metrics['result']}")
        print(f"descriptors processed: {metrics['descriptors_processed']}")
        print(f"uset: {metrics['uset']}")
        print(f"bsrs: {metrics['bsrs']}")
        print(f"prel: {metrics['prel']}")
        if not cfg.deterministic:
            print(f"wall time: {elapsed:.6f}s", file=sys.stderr)
    return 0 if accepted else 1


def cmd_bench(cfg: argparse.Namespace) -> int:
    _elab, start = _load(cfg)
    rows = []
    for size in cfg.sizes:
        tokens = ([cfg.bench_char] * size if cfg.mode == "words"
                  else cfg.bench_char * size)
        t0 = time.perf_counter()
        accepted, _state = _run(cfg, start, tokens)
        elapsed = time.perf_counter() - t0
        rows.append((size, accepted, elapsed))
        print(f"size {size}: {'accept' if accepted else 'reject'}")
        if not cfg.deterministic:
            print(f"size {size}: {elapsed:.6f}s", file=sys.stderr)
    if cfg.format == "json":
        print(json.dumps([{"size": s, "result": "accept" if a else "reject",
                           **({} if cfg.deterministic else {"wall_time_s": e})}
                          for s, a, e in rows]))
    return 0


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
    timing = argparse.ArgumentParser(add_help=False)
    timing.add_argument("--deterministic", action="store_true",
                        help="suppress timing output")
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
    sub.add_parser("stats", parents=[shared, source, timing])
    bench = sub.add_parser("bench", parents=[shared, timing])
    bench.add_argument("--sizes", type=natural, nargs="+", required=True)
    bench.add_argument("--bench-char", default="a",
                       help="character (a word in words mode) replicated "
                            "size times to build each input")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    ns = build_arg_parser().parse_args(argv)
    try:
        if ns.command == "recognize":
            return cmd_recognize(ns)
        if ns.command == "bsr":
            return cmd_bsr(ns)
        if ns.command == "parse":
            return cmd_parse(ns)
        if ns.command == "count":
            return cmd_count(ns)
        if ns.command == "stats":
            return cmd_stats(ns)
        if ns.command == "bench":
            return cmd_bench(ns)
        raise CliError(f"unknown command {ns.command!r}")
    except (CliError, ResourceExhausted) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
