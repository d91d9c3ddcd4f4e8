"""Benchmark of the tbtridiag CLI, run in-process through tbtridiag.cli.main.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40

One process, one thread, one closed-loop client: each job is a documented
CLI command (build, verify, triple, selftest) whose input document is fed on
stdin and whose output is captured.  The package is imported from ``src/``
next to this directory.  Inputs are generated from the seed before timing
starts.  The run then repeats passes over the workload's job list for
``--seconds`` seconds.  Each job is timed alone, next to a fixed
reference loop, and its time scaled to a reference machine speed (see
gauge.py); a job is reported at its median over the passes.  Every job's
output is checked against its known answer (see workloads.py).

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it holds the
per-layer metrics (see spans.py), the untraced per-command times and the
tracing overhead.  A readable table goes to stderr either way.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import gauge
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_REPEATS = 15         # before the first pass; one more runs before each pass
COMMANDS = ("build", "verify", "triple", "selftest")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = (                 # an empty tracer lists every count and time it reports
    {name: "count" for name in spans.Tracer(None).counts()}
    | {name: "s" for name in spans.Tracer(None).times()}
    | {"serialize.bytes_out": "bytes", "trace.overhead_s": "s"}
    | {f"cmd.{c}_s": "s" for c in COMMANDS}
)


def import_package():
    """A fresh import of tbtridiag from src/, dropping any earlier one."""
    for name in [n for n in sys.modules if n == "tbtridiag" or n.startswith("tbtridiag.")]:
        del sys.modules[name]
    tb = importlib.import_module("tbtridiag")
    importlib.import_module("tbtridiag.cli")
    return tb


class _Lines(io.StringIO):
    """Captured output that calls on_line after each write ending a line."""

    def __init__(self, on_line):
        super().__init__()
        self.on_line = on_line

    def write(self, text):
        n = super().write(text)
        if text.endswith("\n"):
            self.on_line()
        return n


def run_job(main, argv, stdin_text, on_line):
    """(exit code, stdout, stderr) of main(argv) with stdin_text on stdin.

    on_line runs after each line the job writes to stdout; selftest writes
    as it goes, so its time can be scaled piece by piece (see gauge.py).
    """
    out, err = _Lines(on_line), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:           # a traceback is a wrong answer, not a crash
                traceback.print_exc()
                rc = "traceback"
    finally:
        sys.stdin = saved
    return rc, out.getvalue(), err.getvalue()


def run_pass(inputs, main, clock, split=True):
    """(case, variant, command, rc, out, err, raw s, scaled s) per job of one pass.

    clock is a gauge.Gauge; each job is timed alone.  With split, the clock
    cuts a job at the lines it writes.  Traced passes do not split: the
    reference loop would run inside the open spans and count as their time.
    """
    gc.collect()
    on_line = clock.split if split else (lambda: None)
    results = []
    for case, v, text in inputs:
        doc = text
        for command in case.commands:
            (rc, out, err), raw, scaled = clock.time(
                run_job, main, workloads.argv_for(command), doc, on_line)
            results.append((case, v, command, rc, out, err, raw, scaled))
            if command == "build":
                doc = out
    return results


def job_medians(passes, k):
    """Per job, the median over passes of its raw (k=0) or scaled (k=1) time."""
    return [statistics.median(run[k] for run in runs) for runs in zip(*passes)]


def check(workload, results, pinned):
    """One line per job whose verdict is not its known answer."""
    bad = []
    for case, v, command, rc, out, err, *_ in results:
        key = workloads.job_key(workload, case, command, v)
        why = workloads.mismatch(key, case, command,
                                 workloads.verdict(command, rc, out, err), pinned)
        if why:
            bad.append(f"{key}: {why}")
    return bad


def set_up(inputs):
    """A fresh import of the package plus loading every input; the package."""
    tb = import_package()
    workloads.load_inputs(tb, inputs)
    return tb


def measure(workload, seed, seconds, trace):
    inputs = workloads.make_inputs(import_package(), workload, seed)
    pinned = workloads.load_pinned()
    clock = gauge.Gauge()
    setups = [clock.time(set_up, inputs)[1:] for _ in range(SETUP_REPEATS)]

    plain, traced = [], []              # per pass, each job's (raw s, scaled s) in job order
    counts, times = [], []
    attempted, failed, problems = 0, 0, []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        # Each pass starts from a fresh import: no module-level cache carries over.
        tb, *setup = clock.time(set_up, inputs)
        setups.append(setup)
        main = tb.cli.main
        if trace and len(traced) < len(plain):
            tracer = spans.Tracer(tb)
            tracer.install()
            try:
                results = run_pass(inputs, tracer.span("cli", main), clock, split=False)
            finally:
                tracer.uninstall()
            traced.append([r[-2:] for r in results])
            counts.append(tracer.counts())
            # Self times take the scale of the pass they ran in.
            scale = sum(r[-1] for r in results) / sum(r[-2] for r in results)
            times.append({name: t * scale for name, t in tracer.times().items()})
            if tracer.stats["cli"][0] != len(results):
                problems.append(f"{tracer.stats['cli'][0]} cli spans for {len(results)} jobs")
        else:
            results = run_pass(inputs, main, clock)
            plain.append([r[-2:] for r in results])
        bad = check(workload, results, pinned)
        attempted += len(results)
        failed += len(bad)
        problems.extend(bad)
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds and (traced or not trace):
            break
    if any(c != counts[0] for c in counts):
        problems.append("per-layer counts differ between traced passes")

    # Each job at its median scaled time over the run's passes: see gauge.py.
    best = job_medians(plain, 1)
    per_command = dict.fromkeys(COMMANDS, 0.0)
    for (_, _, command, *_), t in zip(results, best):
        per_command[command] += t
    raw_wall = sum(job_medians(plain, 0))
    table = {"passes": (len(plain) + len(traced), "count"),
             "error_rate": (failed / attempted, "share"),
             "raw_wall_s": (raw_wall, "s"),
             "machine_slowdown": (raw_wall / sum(best), "x"),
             "reference_share": (clock.reference_s / (time.perf_counter() - start), "share")}
    table.update({f"{c}_s": (t, "s") for c, t in per_command.items() if t})
    if trace:
        metrics = dict(counts[0])
        metrics.update({name: statistics.median(t[name] for t in times) for name in times[0]})
        metrics.update({f"cmd.{c}_s": t for c, t in per_command.items()})
        metrics["trace.overhead_s"] = sum(job_medians(traced, 1)) - sum(best)
        units = PER_LAYER
    else:
        metrics = {"setup_s": statistics.median(s for _, s in setups), "wall_s": sum(best),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    table.update({name: (metrics[name], units[name]) for name in units})
    return result, table, problems


def print_table(workload, table, stream):
    print(f"# {workload}", file=stream)
    for name, (value, unit) in table.items():
        print(f"{name:44s} {value:14.6g} {unit}", file=stream)


def run_all(args):
    """Every workload in its own process; tables on stdout."""
    code = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stdout.write(proc.stderr)
        code = code or proc.returncode
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not os.path.isfile(os.path.join(SRC, "tbtridiag", "__init__.py")):
        print(f"error: no tbtridiag package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result, table, problems = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in problems[:20]:
        print(f"WRONG  {line}", file=sys.stderr)
    print_table(args.workload, table, sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
