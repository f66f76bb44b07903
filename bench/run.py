#!/usr/bin/env python3
"""Benchmark of the intruder command line: time to a checked verdict.

    python3 bench/run.py --workload dy-deduce --seed 1 --seconds 20 --trace 0

One client drives ``intruder.cli.main(argv)`` in-process in a closed loop:
the next op starts only when the previous one has returned.  In-process
calls avoid the 70-90 ms of interpreter start-up a subprocess per op would
add, and they tell a crash from a negative verdict, which the exit status of
a process cannot (both exit 1).  Every op is checked: it fails if it raises,
exits 2, prints the wrong verdict, or exits with another status than its
instance's constructed answer.

A run builds its workload's instance pool from the seed and warms up on the
toy-size pool of the same shapes.  Then it runs passes over the pool, one op
per template with fresh names every op, until ``--seconds`` have gone by; the
run ends with the pass it is in.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced passes and reports the per-layer metrics of the traced
ones: counts from the first traced pass, which repeat exactly for a seed,
and the medians of times (seconds per pass) and ratios over all traced passes.

The last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics; a table of the same figures goes to standard
error.  The exit status is 1 if any op failed, 2 if the program cannot be
loaded from ``src/`` beside this directory.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads as W  # noqa: E402
from tracer import METRICS as LAYER_METRICS, Tracer  # noqa: E402

SETUP_LAUNCHES = 11

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("ok_share", "share"),
    ("peak_rss_mb", "MB"),
)


def load_cli():
    """intruder.cli from this checkout's src/, never an installed copy."""
    sys.path.insert(0, SRC)
    try:
        from intruder import cli
    except ImportError as e:
        print(f"error: cannot import intruder from {SRC}: {e}", file=sys.stderr)
        raise SystemExit(2) from None
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: intruder was loaded from {cli.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return cli


# --- one op ------------------------------------------------------------------


class Ops:
    """Runs CLI invocations in-process and judges their verdicts."""

    def __init__(self, cli, work: str):
        self.cli = cli
        self.work = work

    def call(self, argv: list[str], stdin: str | None = None):
        """(exit status or None if it raised, stdout, seconds, traceback)."""
        out, err = io.StringIO(), io.StringIO()
        saved_stdin = sys.stdin
        if stdin is not None:
            sys.stdin = io.StringIO(stdin)
        crash = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = self.cli.main(argv)
        except SystemExit as e:  # argparse rejects its input with exit 2
            status = 0 if e.code is None else e.code if isinstance(e.code, int) else 1
        except Exception:  # a crash must not read as a negative verdict
            status = None
            crash = traceback.format_exc(limit=4)
        finally:
            dt = time.perf_counter() - t0
            sys.stdin = saved_stdin
        if status == 2 and crash is None:
            crash = err.getvalue().strip()
        return status, out.getvalue(), dt, crash

    def write(self, text: str) -> str:
        path = os.path.join(self.work, "op.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    @staticmethod
    def judge(argv, status, out, crash, expect: int, first_line: str) -> str | None:
        """None when the op gave its expected verdict, else why not."""
        if status is None:
            return f"{' '.join(argv)}: raised\n{crash}"
        if status != expect:
            extra = f": {crash}" if crash else ""
            return f"{' '.join(argv)}: exit {status}, expected {expect}{extra}"
        if not out.startswith(first_line):
            return f"{' '.join(argv)}: printed {out[:80]!r}, expected {first_line!r}"
        return None

    def deduce(self, t: W.Template, i: int):
        argv = ["deduce", "--input", self.write(W.fresh(t.text, i))]
        status, out, dt, crash = self.call(argv)
        want = "derivable\n" if t.expect == 0 else "not derivable\n"
        return dt, self.judge(argv, status, out, crash, t.expect, want)

    def constraints(self, t: W.Template, i: int):
        argv = ["constraints", "--input", self.write(W.fresh(t.text, i)),
                "--strategy", "first-unsolved"]
        status, out, dt, crash = self.call(argv)
        want = "satisfiable" if t.expect == 0 else "unsatisfiable\n"
        return dt, self.judge(argv, status, out, crash, t.expect, want)

    def pipeline(self, t: W.Template, i: int):
        """check, seq2nd, then nd2seq on seq2nd's output through stdin."""
        path = self.write(W.fresh(t.text, i))
        theory = ["--theory", t.theory]
        steps = (
            (["check", "--proof", path] + theory, "valid L proof of:"),
            (["translate", "--proof", path, "--direction", "seq2nd"] + theory,
             '{\n  "system": "N"'),
            (["translate", "--proof", "-", "--direction", "nd2seq"] + theory,
             '{\n  "system": "S"'),
        )
        total, piped = 0.0, None
        for argv, want in steps:
            status, out, dt, crash = self.call(argv, stdin=piped if "-" in argv else None)
            total += dt
            error = self.judge(argv, status, out, crash, 0, want)
            if error is not None:
                return total, error
            piped = out
        return total, None


# --- workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    pool: Callable  # (seed, toy, ops) -> list[Template]
    op: str         # name of the Ops method that runs one template
    theories: tuple[str, ...]  # built by the cold-start probe


def _proof_pool(seed: int, toy: bool, ops: Ops) -> list[W.Template]:
    """Emit one JSON proof per source problem; the ops check and translate it."""
    pool = []
    for t in W.proof_sources(seed, toy):
        argv = ["deduce", "--input", ops.write(t.text), "--emit-proof", "json"]
        status, out, _, crash = ops.call(argv)
        if status != 0:
            raise SystemExit(f"error: set-up could not prove {t.label}: "
                             f"exit {status}\n{crash or ''}")
        pool.append(W.Template(t.label, out, 0, t.theory))
    return pool


WORKLOADS = {
    "dy-deduce": Workload(lambda s, toy, ops: W.dy_pool(s, toy), "deduce", ("empty",)),
    "eq-deduce": Workload(lambda s, toy, ops: W.eq_pool(s, toy), "deduce",
                          ("xor", "ag", "ac")),
    "protocol-solve": Workload(lambda s, toy, ops: W.protocol_pool(s, toy),
                               "constraints", ("empty",)),
    "proof-pipeline": Workload(_proof_pool, "pipeline", ("empty", "xor", "ag", "ac")),
}


# --- measurement ----------------------------------------------------------------


def cold_start_s(theories: tuple[str, ...]) -> float:
    """Median wall time of fresh interpreters that import intruder, build the
    CLI parser and the workload's theories: what a shell user pays per call."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from intruder import cli; from intruder.rewriting import make_theories; "
            "cli.build_parser(); [make_theories((n,)) for n in sys.argv[2:]]")
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        # no timeout: Popen.wait polls with sleeps then, which quantizes the time
        subprocess.run([sys.executable, "-I", "-c", code, SRC, *theories],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Loop:
    """Passes over a pool with a running op index, so names stay fresh."""

    def __init__(self, ops: Ops, workload: Workload, pool: list[W.Template]):
        self.run_op = getattr(ops, workload.op)
        self.pool = pool
        self.next_index = 0
        self.attempted = 0
        self.failures: list[str] = []

    def one_pass(self, pool: list[W.Template] | None = None) -> list[float]:
        latencies = []
        for t in self.pool if pool is None else pool:
            dt, error = self.run_op(t, self.next_index)
            self.next_index += 1
            self.attempted += 1
            latencies.append(dt)
            if error is not None:
                self.failures.append(f"{t.label}: {error}")
        return latencies


def end_to_end(loop: Loop, seconds: float, setup_s: float) -> dict[str, float]:
    start = time.perf_counter()
    passes = [loop.one_pass()]
    # after a fixed amount of work, however fast it went; Linux counts KiB
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while time.perf_counter() - start < seconds:
        passes.append(loop.one_pass())
    latencies = [dt for p in passes for dt in p]
    return {
        "setup_s": setup_s,
        # A pass holds each template once, so its median interpolates between
        # the two middle templates; the median of all ops would jump to one
        # side or the other of the gap between them from run to run.
        "op_p50_ms": statistics.median(statistics.median(p) for p in passes) * 1000.0,
        "op_p95_ms": statistics.quantiles(latencies, n=100, method="inclusive")[94] * 1000.0,
        "ops_per_s": len(latencies) / sum(latencies),
        "ok_share": 1.0 - len(loop.failures) / loop.attempted,
        "peak_rss_mb": rss_mb,
    }


def per_layer(loop: Loop, seconds: float) -> tuple[dict[str, float], Tracer]:
    tracers: list[Tracer] = []
    traced_s: list[float] = []
    untraced_s: list[float] = []
    start = time.perf_counter()
    while not tracers or time.perf_counter() - start < seconds:
        with Tracer() as tr:
            traced_s.append(sum(loop.one_pass()))
        tracers.append(tr)
        untraced_s.append(sum(loop.one_pass()))
    traced = [tr.metrics() for tr in tracers]
    out = {}
    for name, unit in LAYER_METRICS:
        if unit in ("count", "bytes"):
            out[name] = traced[0][name]
        else:
            out[name] = statistics.median(m[name] for m in traced)
    # traced ops/s over untraced ops/s, on the same number of ops per pass
    out["trace.overhead_ratio"] = statistics.median(untraced_s) / statistics.median(traced_s)
    return out, tracers[0]


UNITS = dict(END_TO_END + LAYER_METRICS + (("trace.overhead_ratio", "ratio"),))


def run(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    """Set up, warm up, measure; the result object run.py prints."""
    cli = load_cli()
    spec = WORKLOADS[workload]
    work = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        ops = Ops(cli, work)
        setup_s = None if trace else cold_start_s(spec.theories)
        loop = Loop(ops, spec, spec.pool(seed, toy, ops))
        # warm-up on the same shapes at toy size: lazy set-up in the program
        loop.one_pass(spec.pool(seed, True, ops))
        if trace:
            values, tr = per_layer(loop, seconds)
            _print_call_graph(tr)
        else:
            values = end_to_end(loop, seconds, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in loop.failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    if loop.failures:
        print(f"{len(loop.failures)} of {loop.attempted} ops failed", file=sys.stderr)
    print(f"{workload} seed={seed}: {loop.attempted} ops, "
          f"{len(loop.pool)} templates per pass", file=sys.stderr)
    for name, value in values.items():
        print(f"  {name:40s} {value:14.6g} {UNITS[name]}", file=sys.stderr)
    if not trace:
        print(f"  {'failed_share':40s} {len(loop.failures) / loop.attempted:14.6g} share",
              file=sys.stderr)
    return {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in values.items()},
    }


def _print_call_graph(tr: Tracer, rows: int = 12) -> None:
    print("heaviest spans of the first traced pass (parent -> span: calls, inclusive s)",
          file=sys.stderr)
    for parent, span, calls, secs in tr.call_graph()[:rows]:
        print(f"  {parent} -> {span}: {calls}, {secs:.4f}", file=sys.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
