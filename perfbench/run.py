"""Run one dhsim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports dhsim from ``src/`` of
that checkout and exits with code 2 if there is none.  One client, one
op in flight (closed loop), no threads of its own.  The address space
of the process and its children is capped at 3 GiB, so a blow-up ends
as a counted MemoryError or BudgetError instead of an OOM kill.

With ``--trace 0`` it runs ops for about S seconds and at least
`MIN_OPS` ops (cli-audit: a fixed number of whole rounds of commands),
and reports the end-to-end metrics:

* ``ops_per_s``: completed ops per second of time spent in ops; the
  correctness checks run between ops and are not counted;
* ``op_p50_ms``: median op latency, as the Harrell-Davis estimate;
  for a mix of commands, the geometric mean over the commands of each
  one's median (see `p50`);
* ``op_tail_ms``: latency at the highest percentile with at least
  `TAIL_BEYOND` samples beyond it; the detail line gives the percentile
  and the sample count;
* ``peak_rss_mib``: the peak RSS of the benchmark's own process or of
  its largest child process, whichever is larger (for cli-audit, where
  every op is a child, the largest child);
* ``setup_s``: import time plus the median of `SETUP_REPEATS` warm-ups,
  each on fresh inputs from the warm-up seed stream;
* ``ok_frac``: ops that neither failed nor gave a wrong result, over ops
  attempted (the complement of the failed fraction, which is 0 when
  all is well and so cannot carry a relative bound).

With ``--trace 1`` it runs the workload's fixed window of ops twice,
traced and then untraced, and reports the per-layer metrics, counted
over the traced window, plus the tracing overhead (traced wall minus
untraced wall).  The untraced replay finds the rotation rewrite tables
the traced window built, which saves it about one percent of op time.
Spans are written to ``.perfbench/`` in the checkout.

Standard output ends with two JSON lines: a detail record (environment,
tail percentile and sample count, errors) and then the result.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

ADDRESS_SPACE = 3 * 2**30
SETUP_REPEATS = 5
CHILD_REPEATS = 3
MIN_OPS = 11
TAIL_BEYOND = 10
HARD_STOP_S = 150.0


def parse_args(argv, spec: dict):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cap_address_space() -> int:
    """Cap this process and its children, so a blow-up is a MemoryError."""
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    soft = ADDRESS_SPACE if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    return soft


def hd_median(values: list) -> float:
    """Harrell-Davis estimate of the median.

    A mean of the order statistics weighted by a Beta((n+1)/2, (n+1)/2)
    density.  On few samples from a two-mode distribution (a pooled
    audit is fast or about twice as slow) it moves smoothly with the
    share of slow samples, where the plain median jumps between modes.
    """
    import numpy as np

    ordered = np.sort(values)
    n = len(ordered)
    grid = np.linspace(0.0, 1.0, 10001)
    density = (grid * (1.0 - grid)) ** ((n - 1) / 2)
    cdf = np.concatenate(([0.0], np.cumsum((density[1:] + density[:-1]) / 2)))
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf / cdf[-1]))
    return float(weights @ ordered)


def p50(latencies: list, kinds: int) -> float:
    """Median latency, per kind of op when ops of `kinds` kinds take turns.

    `latencies` holds ``(index, seconds)``; op ``index`` is of kind
    ``index % kinds``.  With several kinds the result is the geometric
    mean of the kinds' medians.  The median of the pooled mix would sit
    between commands of very different cost and jump between them.
    """
    by_kind: dict = {}
    for index, seconds in latencies:
        by_kind.setdefault(index % kinds, []).append(seconds)
    return math.exp(statistics.fmean(math.log(hd_median(v)) for v in by_kind.values()))


def tail(latencies: list) -> tuple[float, float, int]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it.

    Returns the latency, its percentile and the number of samples beyond.
    """
    ordered = sorted(latencies)
    index = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - index - 1


class Outcome:
    """Attempted, failed and correctness over a sequence of ops."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.errors: list = []
        self.latencies: list = []
        self.busy = 0.0

    def fail(self, index: int, err: BaseException, wrong: bool) -> None:
        self.failed += 1
        self.correct = self.correct and not wrong
        if len(self.errors) < 5:
            self.errors.append(f"op {index}: {type(err).__name__}: {err}")


def run_op(wl, inp, index: int, outcome: Outcome, check=True) -> None:
    """Run one op, time it, then check its result outside the timing."""
    from dhsim.errors import BudgetError

    outcome.attempted += 1
    start = time.perf_counter()
    try:
        out = wl.run(inp)
    except Exception as err:  # recorded and counted, never raised
        outcome.busy += time.perf_counter() - start
        # Running out of memory or budget fails the op; anything else is a bug.
        outcome.fail(index, err, wrong=not isinstance(err, (MemoryError, BudgetError)))
        return
    elapsed = time.perf_counter() - start
    outcome.busy += elapsed
    outcome.latencies.append((index, elapsed))
    if check:
        try:
            wl.check(inp, out)
        except Exception as err:  # CheckFailed, or output the check cannot read
            outcome.fail(index, err, wrong=True)


def child_seconds(argv: list, env: dict) -> float:
    """Median wall time of a fresh Python child, over `CHILD_REPEATS` runs."""
    times = []
    for _ in range(CHILD_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    args = parse_args(argv, spec)
    if not os.path.isfile(os.path.join(SRC, "dhsim", "__init__.py")):
        print(f"error: no dhsim sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    rlimit_as = cap_address_space()

    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import numpy as np
    import dhsim
    import workloads
    import_s = time.perf_counter() - start
    if not os.path.abspath(dhsim.__file__).startswith(SRC + os.sep):
        print(f"error: dhsim imported from {dhsim.__file__}, not {SRC}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        result, detail = measure(args, spec, workloads, workdir, import_s)
    finally:
        shutil.rmtree(workdir)
    detail["env"] = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "rlimit_as_bytes": rlimit_as,
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


def measure(args, spec, workloads, workdir, import_s):
    wl, cli_state = workloads.build(args.workload, ROOT, workdir)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(workdir)
        tracer.install()
        if cli_state is not None:
            cli_state.in_process = True

    setup = []
    for rep in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl.run(wl.make(args.seed, 1, wl.warmup_index(rep)))
        setup.append(time.perf_counter() - start)

    if tracer is None:
        return timed_pass(args, spec, wl, import_s + statistics.median(setup))
    return traced_pass(args, spec, wl, tracer, workloads)


def timed_pass(args, spec, wl, setup_s):
    outcome = Outcome()
    start = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        if wl.round > 1:
            # A fixed number of whole rounds: every run of a given length
            # holds the same mix, and its tail the same percentile.
            done = index >= max(2, round(args.seconds / wl.round_s)) * wl.round
        else:
            done = elapsed >= args.seconds and outcome.attempted >= MIN_OPS
        if done or elapsed >= HARD_STOP_S:
            break
        run_op(wl, wl.make(args.seed, 0, index), index, outcome)
        index += 1
    wall = time.perf_counter() - start
    peak = max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0
    lat = outcome.latencies
    values = {"setup_s": setup_s,
              "peak_rss_mib": peak,
              "ok_frac": (outcome.attempted - outcome.failed) / outcome.attempted}
    detail = {"workload": args.workload, "seed": args.seed, "trace": 0,
              "wall_s": wall, "completed": len(lat),
              "errors": outcome.errors}
    if lat:
        tail_s, pct, beyond = tail([seconds for _, seconds in lat])
        values.update(ops_per_s=len(lat) / outcome.busy,
                      op_p50_ms=1e3 * p50(lat, wl.round),
                      op_tail_ms=1e3 * tail_s)
        detail.update(tail_percentile=pct, tail_samples=len(lat), tail_beyond=beyond)
    return report(spec["end_to_end"], values, outcome), detail


def traced_pass(args, spec, wl, tracer, workloads):
    def check_untraced(inp, out):
        tracer.enabled = False
        wl.check(inp, out)

    traced = Outcome()
    traced_wl = dataclasses.replace(wl, check=check_untraced)
    for index in range(wl.window):
        tracer.enabled = True
        run_op(traced_wl, wl.make(args.seed, 0, index), index, traced)
    tracer.enabled = False
    tracer.uninstall()
    worker_records = tracer.collect_workers()

    plain = Outcome()
    for index in range(wl.window):
        run_op(wl, wl.make(args.seed, 0, index), index, plain, check=False)

    values = tracer.metrics()
    values["cli.import_s"] = child_seconds(["-c", "import dhsim.cli"], workloads.child_env(ROOT))
    values["trace.overhead_s"] = traced.busy - plain.busy
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
    tracer.write_spans(spans_path)
    detail = {"workload": args.workload, "seed": args.seed, "trace": 1,
              "window_ops": wl.window, "traced_wall_s": traced.busy,
              "untraced_wall_s": plain.busy, "spans_file": os.path.relpath(spans_path, ROOT),
              "errors": traced.errors + plain.errors,
              "worker_records": worker_records,
              "note": "spans of the audit's pool workers are merged from files the workers "
                      "write; they overlap cli.main, whose self time includes the pool's "
                      "start, pickling and waiting"}
    traced.failed += plain.failed
    traced.correct = traced.correct and plain.correct
    return report(spec["per_layer"], values, traced), detail


def report(declared, values, outcome) -> dict:
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            raise KeyError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return {"correct": outcome.correct, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
