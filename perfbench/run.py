"""Benchmark of hadamard-forge: sweep6, solve8 and pipeline.

Run from the root of the repository:

    python3 perfbench/run.py --workload sweep6 --seed 1 --seconds 30 --trace 0

Every operation calls `cli.main` in this process with stdout captured,
from one thread.  A run repeats whole rounds of its workload's fixed
operation list until the next round would pass `--seconds`, checks every
output, and prints one JSON object as its last line: the end-to-end
metrics with `--trace 0`, the per-layer metrics of a traced run with
`--trace 1`.  See README.md in this directory.
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
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

SETUP_PROBES = 9

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "results_per_s": "1/s",
    "results_per_op": "count",
    "peak_rss_mb": "MB",
}


@dataclass
class Call:
    argv: list
    rc: object  # exit code, or None when an exception escaped cli.main
    out: str
    seconds: float


@dataclass
class Round:
    op_seconds: list
    results: int


def load_program():
    """Import the program from this checkout's src, never an installed copy."""
    from hadamard_forge import cli

    if os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))) != SRC:
        raise ImportError(f"hadamard_forge was imported from {cli.__file__}")
    return cli


class Harness:
    def __init__(self, workload, seed, smoke):
        self.cli = load_program()
        # numpy comes in with the program, so set-up timing includes it
        import workloads

        self.workloads = workloads
        self.workdir = os.path.join(HERE, "tmp", f"{workload}-{os.getpid()}")
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        try:
            self.wl = workloads.WORKLOADS[workload](seed, self.workdir, self.call, smoke)
        except BaseException:
            self.close()
            raise
        self.seen = {}  # op index -> (signature, results) of its first run
        self.ops_run = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception as exc:  # a crash is a failed operation
                rc = None
                err.write(f"{type(exc).__name__}: {exc}")
            t1 = time.perf_counter()
        if rc is None or rc >= 2:
            print(f"perfbench: {argv[:2]} -> {rc}: {err.getvalue().strip()}",
                  file=sys.stderr)
        return Call(argv, rc, out.getvalue(), t1 - t0)

    def execute(self, i):
        """Run item i of the round once and check it.

        Returns (op seconds, results), or None if a call failed.  An item is
        one operation, except where the workload sets `calls_are_ops`: there
        each CLI call of the item is an operation of its own.
        """
        opdir = None
        if self.wl.uses_files:
            self.ops_run += 1
            opdir = os.path.join(self.workdir, f"op{self.ops_run}")
            os.makedirs(opdir)
        argvs = self.wl.argvs(i, opdir)
        ops = len(argvs) if self.wl.calls_are_ops else 1
        self.attempted += ops
        calls = [self.call(argv) for argv in argvs]
        if self.wl.calls_are_ops:
            seconds = [c.seconds for c in calls]
        else:
            seconds = [sum(c.seconds for c in calls)]
        try:
            if any(c.rc is None or c.rc >= 2 for c in calls):
                self.failed += ops
                return None
            return seconds, self._checked_results(i, calls, opdir)
        finally:
            if opdir is not None:
                shutil.rmtree(opdir)

    def _checked_results(self, i, calls, opdir):
        signature = [(c.rc, c.out) for c in calls]
        if opdir is not None:
            for name in sorted(os.listdir(opdir)):
                with open(os.path.join(opdir, name), "rb") as fh:
                    signature.append((name, fh.read()))
        try:
            if i not in self.seen:
                self.seen[i] = (signature, self.wl.check(i, calls, opdir))
            elif signature != self.seen[i][0]:
                raise self.workloads.CheckFailed(
                    f"op {i} gave other outputs than on its first run")
        except (self.workloads.CheckFailed, ValueError, KeyError, IndexError) as exc:
            # malformed output fails the check like wrong output does
            self.errors.append(f"{self.wl.name} op {i}: {type(exc).__name__}: {exc}")
            self.seen.setdefault(i, (signature, 0))
        return self.seen[i][1]

    def run_rounds(self, budget):
        """Whole rounds until the next one would end after `budget` seconds."""
        rounds = []
        begin = time.perf_counter()
        while True:
            start = time.perf_counter()
            r = Round([], 0)
            for i in range(self.wl.size):
                done = self.execute(i)
                if done is not None:
                    r.op_seconds.extend(done[0])
                    r.results += done[1]
            rounds.append(r)
            now = time.perf_counter()
            if now - begin + (now - start) > budget:
                return rounds


def end_to_end(rounds, setup_s):
    times = [t for r in rounds for t in r.op_seconds]
    if not times:
        raise RuntimeError("every operation failed")
    p90 = statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0]
    rates = [r.results / sum(r.op_seconds) for r in rounds if r.op_seconds]
    values = {
        "setup_s": setup_s,
        "op_p50_ms": 1e3 * statistics.median(times),
        "op_p90_ms": 1e3 * p90,
        "results_per_s": statistics.median(rates),
        "results_per_op": rounds[0].results / len(rounds[0].op_seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def measure_setup(args):
    """Median set-up time of fresh interpreters: import plus input preparation."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def traced_run(harness, args):
    from tracing import Tracer, layer_metrics, metric_specs

    half = args.seconds / 2.0
    untraced = harness.run_rounds(half)
    plain = [t for r in untraced for t in r.op_seconds]
    tracer = Tracer()
    tracer.install()
    try:
        traced = harness.run_rounds(half)
    finally:
        tracer.uninstall()
    times = [t for r in traced for t in r.op_seconds]
    if not plain or not times:
        raise RuntimeError("every operation failed")
    values = layer_metrics(tracer, len(times), sum(times), sum(plain) / len(plain))
    tracer.write(os.path.join(HERE, "out", f"spans-{args.workload}.npz"))
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in metric_specs()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("sweep6", "solve8", "pipeline"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny operation lists, for the self-test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    t0 = time.perf_counter()
    try:
        load_program()
    except ImportError as exc:
        print(f"perfbench: cannot import hadamard_forge from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        # set-up is the import above plus input preparation
        Harness(args.workload, args.seed, args.smoke).close()
        print(repr(time.perf_counter() - t0))
        return 0
    setup_s = None if args.trace else measure_setup(args)
    harness = Harness(args.workload, args.seed, args.smoke)
    try:
        harness.execute(0)  # warm-up, checked, not timed
        harness.attempted = harness.failed = 0
        if args.trace:
            metrics = traced_run(harness, args)
        else:
            metrics = end_to_end(harness.run_rounds(args.seconds), setup_s)
    finally:
        harness.close()
    for err in harness.errors:
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": not harness.errors,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
