"""Benchmark of vtt: one workload per process, driven in-process through
vtt's public entry points.

    python3 bench/run.py --workload table --seed 1 --seconds 25 --trace 0

The run sets up the workload several times, then repeats whole rounds of the
workload's operations until --seconds have passed, checks every output and
prints its metrics.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
MIN_TAIL_SAMPLES = 40
# The end-to-end metrics of the result line.  op_p50_ms and op_p90_ms are
# printed only: over ten runs the median latency of enumerate, a handful of
# samples of one 0.5 s operation, spread 0.14-0.27, too close to any bound.
REPORTED_METRICS = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")
# Per-layer metrics that every workload measures; the traced run prints the
# others, which only some workloads reach, on the lines before the result.
REPORTED_LAYER_METRICS = ("cli.self_s", "groups.is_prime_calls", "perm.aut_elements",
                          "enumeration.bytes_per_mask")


def import_vtt() -> SimpleNamespace:
    """A fresh import of vtt from this checkout's src/."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "vtt" or m.startswith("vtt.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    modules = {name: importlib.import_module(f"vtt.{name}") for name in
               ("cli", "counting", "enumeration", "fixtures", "graphs", "groups", "perm")}
    if SRC.resolve() not in Path(modules["cli"].__file__).resolve().parents:
        raise ImportError(f"vtt was imported from {modules['cli'].__file__}, not from {SRC}")
    return SimpleNamespace(**modules)


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


class Session:
    """Runs whole rounds of the operations and keeps what the metrics need.

    Outputs of the first round are checked as soon as each operation ends,
    outside its timing; later rounds must give the same output, compared by
    digest, so the benchmark holds no output across operations."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.first: list[tuple[int, bytes]] = []  # (status, output digest) per op
        self.bad = [False] * len(ops)
        self.problems: list[str] = []
        self.round_wall: list[float] = []
        self.round_cpu: list[float] = []
        self.latencies: list[tuple[int, float]] = []  # (op index, seconds)
        self.attempted = 0
        self.failed = 0

    def run_round(self) -> None:
        wall = cpu = 0.0
        first_round = not self.first
        for i, op in enumerate(self.ops):
            # Every op starts with empty GC generations, as a fresh vtt
            # process would, whatever the ops before it allocated.
            gc.collect()
            span0 = len(self.tracer.spans) if self.tracer else 0
            c0, t0 = cpu_seconds(), perf_counter()
            try:
                status, out = op.run()
            except Exception as exc:  # an op that crashes counts as failed
                traceback.print_exc(file=sys.stderr)
                status, out = -1, f"{type(exc).__name__}: {exc}"
            t1, c1 = perf_counter(), cpu_seconds()
            wall += t1 - t0
            cpu += c1 - c0
            self.attempted += 1
            result = (status, hashlib.sha256(out.encode()).digest())
            if first_round:
                self.first.append(result)
                if status != 0:
                    print(f"failed: {op.name} (exit {status})", file=sys.stderr)
                else:
                    self.mark(i, self.check(op, out, span0))
            elif result != self.first[i]:
                self.mark(i, "output differs between rounds")
            if status != 0 or self.bad[i]:
                self.failed += 1
            else:
                self.latencies.append((i, t1 - t0))
        if first_round:
            digests = {op.name: digest for op, (_, digest) in zip(self.ops, self.first)}
            for i, op in enumerate(self.ops):
                if op.same_as and self.first[i][1] != digests[op.same_as] and not self.bad[i]:
                    self.mark(i, f"output differs from that of {op.same_as}")
                    self.failed += 1
        self.round_wall.append(wall)
        self.round_cpu.append(cpu)

    def check(self, op, out: str, span0: int) -> str | None:
        try:
            problem = op.check(out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problem = f"unparseable output ({type(exc).__name__}: {exc})"
        if self.tracer and op.aut_order is not None:
            orders = [s[4] for s in self.tracer.spans[span0:] if s[0] == "perm.automorphisms"]
            if orders != [op.aut_order]:
                problem = problem or f"|Aut| {orders}, closed form {op.aut_order}"
        return problem

    def mark(self, i: int, problem: str | None) -> None:
        if problem:
            self.problems.append(f"{self.ops[i].name}: {problem}")
            self.bad[i] = True

    def run_for(self, seconds: float, between_rounds=None) -> None:
        end = perf_counter() + seconds
        while True:
            self.run_round()
            if perf_counter() >= end:
                return
            if between_rounds:
                between_rounds()


def spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q[0]:.6g} q3={q[2]:.6g}"


def end_to_end(session: Session, setups: list[float]) -> dict:
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, children)
    lat_ms = [t * 1000 for i, t in session.latencies if not session.bad[i]]
    metrics = {
        "setup_s": (statistics.median(setups), "s", spread(setups)),
        "wall_s": (statistics.median(session.round_wall), "s", spread(session.round_wall)),
        "cpu_s": (statistics.median(session.round_cpu), "s", spread(session.round_cpu)),
        "peak_rss_mb": (peak_kb / 1024, "MB", "larger of process and children"),
        "op_p50_ms": (statistics.median(lat_ms), "ms", f"{len(lat_ms)} ops"),
    }
    if len(lat_ms) >= MIN_TAIL_SAMPLES:
        metrics["op_p90_ms"] = (statistics.quantiles(lat_ms, n=10)[8], "ms", f"{len(lat_ms)} ops")
    else:
        print(f"op_p90_ms not reported: {len(lat_ms)} ops < {MIN_TAIL_SAMPLES}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        return next((code for code in codes if code != 0), 0)

    if not (SRC / "vtt" / "__init__.py").is_file():
        print(f"error: no vtt sources under {SRC}", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("VTT_")]:
        del os.environ[key]  # the workloads pass every flag they depend on
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    setups = []

    def set_up():
        t0 = perf_counter()
        vtt = import_vtt()
        ops = WORKLOADS[args.workload](vtt, random.Random(args.seed), workdir)
        setups.append(perf_counter() - t0)
        return vtt, ops

    try:
        for _ in range(SETUP_REPEATS):
            vtt, ops = set_up()
        gc.freeze()  # the benchmark's own objects stay out of the collections ops pay for
        if args.trace:
            result = traced_run(vtt, ops, args.seconds)
        else:
            modules = {k: m for k, m in sys.modules.items() if k == "vtt" or k.startswith("vtt.")}

            def set_up_again():
                set_up()
                # the ops, and the worker processes that unpickle vtt
                # functions by name, keep using the modules of the first set-ups
                sys.modules.update(modules)
            result = plain_run(ops, args.seconds, setups, set_up_again)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops per round")
    print(json.dumps(result, separators=(",", ":")))
    return 0


def summary(session: Session) -> dict:
    for problem in session.problems:
        print(f"WRONG: {problem}")
    print(f"rounds {len(session.round_wall)}  attempted {session.attempted}  failed {session.failed}")
    return {"correct": not session.problems, "attempted": session.attempted,
            "failed": session.failed}


def plain_run(ops, seconds: float, setups: list[float], set_up) -> dict:
    """Rounds with one more set-up between each two, so that the set-up
    samples spread over the run as the rounds do; the ops keep the modules
    of the first set-ups."""
    session = Session(ops)
    session.run_for(seconds, between_rounds=set_up)
    metrics = end_to_end(session, setups)
    for name, (value, unit, note) in metrics.items():
        print(f"{name:14s} {value:14.6f} {unit:5s} {note}")
    result = summary(session)
    result["metrics"] = {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                         for name in REPORTED_METRICS}
    return result


def traced_run(vtt, ops, seconds: float) -> dict:
    """Traced rounds, then one untraced round whose outputs must match."""
    tracer = tracing.Tracer()
    tracing.install(tracer, vtt)
    session = Session(ops, tracer)
    try:
        session.run_for(seconds)
    finally:
        tracer.restore()
    traced_rounds = len(session.round_wall)
    session.tracer = None
    session.run_round()
    traced_wall = statistics.median(session.round_wall[:traced_rounds])
    untraced_wall = session.round_wall[-1]
    print(f"traced round {traced_wall:.4f} s, untraced round {untraced_wall:.4f} s, "
          f"tracing overhead {traced_wall / untraced_wall - 1:+.1%}")
    layers = tracing.layer_metrics(tracer, traced_rounds)
    for name, (value, unit) in layers.items():
        print(f"{name:36s} {value:16.6f} {unit}")
    result = summary(session)
    result["metrics"] = {name: {"value": layers[name][0], "unit": layers[name][1]}
                         for name in REPORTED_LAYER_METRICS}
    return result


if __name__ == "__main__":
    sys.exit(main())
