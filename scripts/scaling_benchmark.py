#!/usr/bin/env python3
"""Measure how recognition time grows on three highly ambiguous grammars.

Each grammar derives a^n in exponentially many ways, so any strategy that
enumerates derivations is hopeless; the shared-state engine should stay
polynomial. The report prints per-size wall time, descriptor counts, and
the doubling ratio between consecutive sizes.
"""
import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gllkit.dsl import Elaborator, parse_grammar  # noqa: E402
from gllkit.engine import run_recognize  # noqa: E402

GRAMMARS = Path(__file__).resolve().parent.parent / "grammars"


@dataclass
class BenchConfig:
    sizes: tuple[int, ...] = (25, 50, 100, 200)
    grammars: tuple[tuple[str, str], ...] = (
        ("s1.g", "S1"), ("s2.g", "S2"), ("e.g", "E"))
    repeats: int = 1


def bench_one(config, grammar_file, start):
    text = (GRAMMARS / grammar_file).read_text()
    sym = Elaborator(parse_grammar(text)).start_symbol(start)
    rows = []
    for n in config.sizes:
        best = None
        for _ in range(config.repeats):
            t0 = time.perf_counter()
            accepted, state = run_recognize(sym, "a" * n)
            elapsed = time.perf_counter() - t0
            best = elapsed if best is None else min(best, elapsed)
        assert accepted
        rows.append({"start": start, "n": n, "seconds": best,
                     "descriptors": state.stats.descriptors_processed,
                     "bsrs": len(state.bsrs)})
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+")
    parser.add_argument("--repeats", type=int, default=1)
    args = parser.parse_args(argv)
    config = BenchConfig(repeats=args.repeats)
    if args.sizes:
        config.sizes = tuple(args.sizes)

    for grammar_file, start in config.grammars:
        rows = bench_one(config, grammar_file, start)
        print(f"{start} ({grammar_file})")
        prev = None
        for row in rows:
            ratio = "" if prev is None else f"  x{row['seconds'] / prev:.2f}"
            print(f"  n={row['n']:4d}  {row['seconds']:8.3f}s  "
                  f"{row['descriptors']:9d} descriptors  "
                  f"{row['bsrs']:9d} bsrs{ratio}")
            prev = row["seconds"]
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
