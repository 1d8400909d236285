#!/usr/bin/env python3
"""Run one gllkit benchmark workload as a closed loop and print its metrics.

    python3 perfbench/run.py --workload ambiguous --seed 1 --seconds 24 --trace 0

Run from the root of a gllkit checkout. One caller sends one request at a
time, in rounds of requests built from --seed, until --seconds have passed
(the round in progress is finished, so every run holds whole rounds). Each
answer is checked against an independent reference after its timer stops.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced rounds and prints the per-layer metrics, with the tracing overhead.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 9  # fresh processes timed per run for setup_s
CLI_FLOOR_PROBES = 10  # `python -c pass` and `import gllkit.cli` runs per traced cli run
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it
REQUEST_TIMEOUT_S = 30  # a request still running then fails, so a run always ends
LAYERS = ("dsl", "engine", "forest", "cli")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print 'ready' and exit (used to time set-up)")
    p.add_argument("--replay", action="store_true",
                   help="run the first round untimed, print the work counts of its "
                        "requests as JSON and exit (used to check that they repeat)")
    return p.parse_args(argv)


class Run:
    """Outcomes of the requests of one run."""

    def __init__(self) -> None:
        self.latencies = {False: [], True: []}  # keyed by traced
        self.round_rates = {False: [], True: []}  # requests per second of each round
        self.by_kind: dict[str, list[float]] = {}
        self.failures: Counter = Counter()
        self.first_failure: dict[str, str] = {}
        self.wrong = 0  # answers that differ from the reference
        self.first_round_work: list[dict] = []  # work counts of each request, in order
        self.first_round_counts: dict[str, int] = {}
        self.peak_rss_kib = 0
        self.traced_work: Counter = Counter()
        self.count_mismatches = 0
        self.exit_code_mismatches = 0
        self.rounds = 0

    @property
    def attempted(self) -> int:
        return sum(len(v) for v in self.latencies.values())

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def run_request(req, layers, tracer, traced: bool, run: Run) -> None:
    from reference import EXIT_MISMATCH

    before = dict(layers.counts)
    if traced:
        tracer.request_id = run.attempted
    with _deadline(REQUEST_TIMEOUT_S), tracer.span("request") if traced else nullcontext():
        t0 = time.perf_counter()
        try:
            out, error = req.run(layers), None
        except Exception as exc:  # a failed request is recorded, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
    run.latencies[traced].append(elapsed)
    run.by_kind.setdefault(req.kind, []).append(elapsed)
    problem = error or req.check(out)
    if problem:
        run.failures[req.kind] += 1
        run.first_failure.setdefault(req.kind, problem[:200])
        run.wrong += error is None
        run.exit_code_mismatches += problem.startswith(EXIT_MISMATCH)
    work = {k: v - before.get(k, 0) for k, v in layers.counts.items()
            if v != before.get(k, 0)}
    if not run.rounds:
        run.first_round_work.append(work)
    if traced:
        run.traced_work.update(work)


class RequestTimeout(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise RequestTimeout(f"still running after {REQUEST_TIMEOUT_S} s")


@contextmanager
def _deadline(seconds: float):
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def prepare(name: str, seed: int, layers):
    """The workload set up, the seeded RNG and the first round: the same
    seed gives the same first round, in the same order."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    tracer = layers.tracer
    if tracer:
        tracer.request_id = "setup"
    with tracer.span("setup") if tracer else nullcontext():
        workload.setup(layers)
    rng = random.Random(seed)
    first_round = workload.round(rng)
    rng.shuffle(first_round)
    return workload, rng, first_round


def peak_rss_kib(workload) -> int:
    """Peak resident memory of this process, or for `cli` of its largest child."""
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def measure(workload, rng, first_round, layers, tracer, seconds: float) -> Run:
    """Whole rounds until `seconds` have passed; with a tracer, every second
    round is traced and at least one round of each kind runs."""
    trace = tracer is not None
    run = Run()
    start = time.perf_counter()
    rnd = first_round
    while True:
        traced = trace and run.rounds % 2 == 1
        layers.tracer = tracer if traced else None
        done = len(run.latencies[traced])
        for req in rnd:
            if workload.collect_before:
                gc.collect()
            run_request(req, layers, tracer, traced, run)
        run.round_rates[traced].append(len(rnd) / sum(run.latencies[traced][done:]))
        if not run.rounds:
            run.first_round_counts = dict(layers.counts)
        run.rounds += 1
        if run.rounds == workload.rss_rounds:
            run.peak_rss_kib = peak_rss_kib(workload)
        if time.perf_counter() - start >= seconds and (run.rounds >= 2 or not trace):
            break
        rnd = workload.round(rng)
        rng.shuffle(rnd)
    layers.tracer = None
    if run.rounds < workload.rss_rounds:
        run.peak_rss_kib = peak_rss_kib(workload)
    return run


def first_round_work(layers, rnd) -> list[dict]:
    again = Run()
    for req in rnd:
        run_request(req, layers, None, False, again)
    return again.first_round_work


def count_mismatches(args, work: list[dict]) -> int:
    """Run the first round again in a fresh process (`--replay`), and return
    how many of its requests did different work than they did here."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--replay"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"replay failed with exit code {done.returncode}: "
                           f"{done.stderr[-500:]}")
    again = json.loads(done.stdout.splitlines()[-1])
    return sum(a != b for a, b in zip(work, again, strict=True))


def tail(samples: list[float]):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def setup_seconds(args) -> list[float]:
    """Set-up time of SETUP_PROBES fresh processes: from starting the
    interpreter until it is ready for its first timed request."""
    out = []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            out.append(time.perf_counter() - t0)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return out


def end_to_end(run: Run, workload, args) -> dict:
    lat = run.latencies[False]
    tail_s, tail_pct = tail(lat)
    setups = setup_seconds(args)
    print(f"  latency tail is p{tail_pct:.2f}: {TAIL_BEYOND} of {len(lat)} samples above it")
    print(f"  setup_s is the median of {len(setups)} fresh processes: "
          + " ".join(f"{s:.4f}" for s in setups))
    print(f"  fail_ratio {run.failed / run.attempted:.6f} ({run.failed} of {run.attempted})")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "requests_per_s": (statistics.median(run.round_rates[False]), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(lat), "ms"),
        "latency_tail_ms": (1000 * tail_s, "ms"),
        "peak_rss_mib": (run.peak_rss_kib / 1024, "MiB"),
        "ok_ratio": ((run.attempted - run.failed) / run.attempted, "ratio"),
    }


def cli_floor_ms() -> dict:
    """Median wall time of a bare interpreter and of one that only imports
    gllkit.cli: the part of a CLI run no command-level change can move."""
    from layers import run_python

    probes = {"cli.interpreter_ms": ["-c", "pass"],
              "cli.import_ms": ["-c", "import gllkit.cli"]}
    times: dict[str, list[float]] = {k: [] for k in probes}
    for _ in range(CLI_FLOOR_PROBES):
        for name, argv in probes.items():
            t0 = time.perf_counter()
            run_python(argv)
            times[name].append(1000 * (time.perf_counter() - t0))
    return {k: statistics.median(v) for k, v in times.items()}


# per-layer metrics: mean seconds per call of a span name
CALL_TIMES = {"dsl.load_s": "dsl.load", "engine.recognize_s": "engine.recognize",
              "forest.count_s": "forest.count", "forest.first_tree_s": "forest.first_tree",
              "forest.k_trees_s": "forest.k_trees", "forest.evaluate_s": "forest.evaluate",
              "forest.errors_s": "forest.errors"}
# work per second of traced run_recognize time
RATES = {"engine.descriptors_per_s": "engine.descriptors",
         "engine.tokens_per_s": "engine.tokens",
         "engine.instantiations_per_s": "engine.instantiations"}
# totals over set-up and the first round, deterministic for a seed
COUNTS = ("dsl.loads", "engine.runs", "engine.descriptors", "engine.instantiations",
          "engine.budget_trips", "state.uset", "state.bsr_elements", "state.prel",
          "state.grel_pairs", "forest.trees_yielded", "forest.count_saturated")


def per_layer(run: Run, tracer, layers, workload) -> dict:
    from layers import self_times

    durations: dict[str, list[float]] = {}
    for s in tracer.spans:  # set-up spans too: they hold the shared grammar loads
        durations.setdefault(s[3], []).append(s[5] - s[4])
    recognize = durations.get("engine.recognize", [])
    busy = sum(recognize)
    first = Counter(run.first_round_counts)
    metrics = {}
    for name, span in CALL_TIMES.items():
        d = durations.get(span, [])
        metrics[name] = (sum(d) / len(d) if d else 0.0, "s")
    for name, work in RATES.items():
        metrics[name] = (run.traced_work[work] / busy if busy else 0.0, "1/s")
    for name in COUNTS:
        metrics[name] = (first[name], "count")
    metrics["engine.gc_s"] = (layers.gc_pause_s / len(recognize) if recognize else 0.0, "s")
    metrics["state.bsr_per_descriptor"] = (
        first["state.bsr_elements"] / first["engine.descriptors"]
        if first["engine.descriptors"] else 0.0, "ratio")
    cli_ms = [1000 * d for d in durations.get("cli.process", [])]
    floor = cli_floor_ms() if workload.name == "cli" else {}
    metrics["cli.process_ms"] = (statistics.median(cli_ms) if cli_ms else 0.0, "ms")
    for name in ("cli.import_ms", "cli.interpreter_ms"):
        metrics[name] = (floor.get(name, 0.0), "ms")
    metrics["cli.exit_code_mismatches"] = (run.exit_code_mismatches, "count")
    selfs = self_times([s for s in tracer.spans if s[0] != "setup"])
    for layer in ("request",) + LAYERS:
        metrics[f"{layer}.self_s"] = (selfs.get(layer, 0.0) / len(run.latencies[True]), "s")
    rps = {t: statistics.median(v) for t, v in run.round_rates.items()}
    metrics["trace.overhead_pct"] = (100 * (rps[False] - rps[True]) / rps[False], "%")
    metrics["counts.mismatches"] = (run.count_mismatches, "count")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "gllkit").is_dir() or not (ROOT / "grammars").is_dir():
        print(f"error: {ROOT} is not a gllkit checkout (src/gllkit or grammars/ missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from layers import Layers, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else None
    layers = Layers(tracer)
    workload, rng, first_round = prepare(args.workload, args.seed, layers)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    if args.replay:
        print(json.dumps(first_round_work(layers, first_round)))
        return 0
    print(f"workload {args.workload} seed {args.seed}: set up in "
          f"{time.perf_counter() - T0:.4f} s")

    if tracer:
        gc.callbacks.append(layers.on_gc)
    run = measure(workload, rng, first_round, layers, tracer, args.seconds)
    if tracer:
        gc.callbacks.remove(layers.on_gc)
    run.count_mismatches = count_mismatches(args, run.first_round_work)

    print(f"  {run.attempted} requests in {run.rounds} rounds; median ms by kind:")
    for kind, lat in sorted(run.by_kind.items()):
        fails = f"  FAILED {run.failures[kind]}: {run.first_failure[kind]}" \
            if run.failures[kind] else ""
        print(f"    {kind:28s} {1000 * statistics.median(lat):10.3f} x{len(lat)}{fails}")
    if run.count_mismatches:
        print(f"  work counts differ for {run.count_mismatches} first-round requests "
              "when the round runs again")

    if args.trace:
        metrics = per_layer(run, tracer, layers, workload)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.tsv")
    else:
        metrics = end_to_end(run, workload, args)
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": run.wrong == 0 and run.count_mismatches == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
