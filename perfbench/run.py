"""Known-answer benchmark for kappainv.

    python3 perfbench/run.py --workload towers --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload towers --seed 1 --seconds 20 --trace 1

Run from the repository root; the engine is imported from `src/`.  The loop
is closed with one client: cases run one after another in this process, each
as one `kappainv.cli.main([..., "--json", f])` call, the user's path from
parsing through the engine to the report.  Its stdout is scored against the
case's known answer (oracle.py).  Passes over the workload's case list repeat
until `--seconds` have gone by; a started pass always finishes, so every
share is over whole passes.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates untraced
and traced passes and prints the per-layer metrics, per traced pass; the
traced spans of the first traced pass go to `.perfbench-out/`.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from time import perf_counter, perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 11

# The sandbox this benchmark was defined on (2 shared Xeon cores) runs the
# same code up to 40% faster or slower from one minute to the next, which
# no run length averages away.  Case times are therefore rescaled by a
# calibration unit timed next to them (see run_pass); CAL_REF_MS is that
# unit's typical time there, so reported case times are ms at that speed.
CAL_POLY = {(1, 0, 1): Fraction(1), (0, 2, 0): Fraction(-3, 2), (2, 1, 0): Fraction(5, 7)}
CAL_REF_MS = 1.0


def declared_metrics():
    """(end-to-end, per-layer) metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


LAYERS = ("cli", "parse", "kappa", "polyhedron", "poly", "quasiord", "ring", "deform")


class CaseTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CaseTimeout()


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup(fields):
    """Import kappainv from src/ and construct every Field; median of repeats.

    Each repeat drops the package from sys.modules first, so every import is
    a fresh one.  Returns (setup seconds, field-construction ms, cli module).
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "kappainv", "cli.py")):
        raise SystemExit(f"error: no kappainv sources under {src}; run from the repository root")
    sys.path.insert(0, src)
    totals, field_ms = [], []
    for _ in range(SETUP_REPEATS):
        for key in [k for k in sys.modules if k == "kappainv" or k.startswith("kappainv.")]:
            del sys.modules[key]
        t0 = perf_counter()
        kappainv = importlib.import_module("kappainv")
        cli = importlib.import_module("kappainv.cli")
        t1 = perf_counter()
        for p, k, modulus in fields:
            kappainv.Field(p, k, modulus)
        t2 = perf_counter()
        totals.append(t2 - t0)
        field_ms.append((t2 - t1) * 1e3)
    if not os.path.abspath(kappainv.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: kappainv was imported from {kappainv.__file__}, not {src}")
    return statistics.median(totals), statistics.median(field_ms), cli


# ---------------------------------------------------------------------------
# one case, one pass
# ---------------------------------------------------------------------------

class Outcome:
    __slots__ = ("ms", "ref_ms", "stdout", "error", "verdict")

    def __init__(self, ms, stdout, error, verdict):
        self.ms, self.stdout, self.error, self.verdict = ms, stdout, error, verdict
        self.ref_ms = ms

    @property
    def solved(self):
        return self.error is None and self.verdict.solved

    @property
    def wrong(self):
        return self.error is None and self.verdict.wrong


def run_case(cli, case, limit_s, trace=None):
    out, err = io.StringIO(), io.StringIO()
    if trace is not None:
        trace.begin_case(case.id)
    error = None
    code = None
    t0 = perf_counter_ns()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(case.argv))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CaseTimeout:
        error = f"over the {limit_s} s limit"
    except (Exception, SystemExit):
        error = traceback.format_exc(limit=-3)
    ns = perf_counter_ns() - t0
    if trace is not None:
        trace.end_case()
    ms = ns / 1e6
    if error is None and ms > limit_s * 1e3:
        error = f"over the {limit_s} s limit"
    if error is None and code == 1:
        error = f"exit 1 on valid input: {err.getvalue().strip()}"
    verdict = oracle.score(case, code, out.getvalue()) if error is None else None
    if verdict is not None and verdict.malformed:
        error = verdict.malformed
    return Outcome(ms, out.getvalue(), error, verdict)


class Run:
    """Everything measured over the passes of one run."""

    def __init__(self, cases):
        self.cases = cases
        self.ms = []                # per case, rescaled to the reference speed
        self.raw_ms = []            # per case, as timed
        self.solved = self.wrong = self.errors = 0
        self.problems = []          # reasons the run is not correct
        self.first_stdout = None    # per case, from the first pass
        self.digest = None
        self.wrong_ids = set()

    def record_pass(self, outcomes):
        stdouts = [o.stdout for o in outcomes]
        if self.first_stdout is None:
            self.first_stdout = stdouts
            h = hashlib.sha256()
            for case, text in zip(self.cases, stdouts):
                h.update(f"{case.id}\n{text}\n".encode())
            self.digest = h.hexdigest()
        elif stdouts != self.first_stdout:
            changed = [c.id for c, a, b in zip(self.cases, stdouts, self.first_stdout) if a != b]
            self.problems.append(f"output changed between passes: {changed[:5]}")
        for case, o in zip(self.cases, outcomes):
            self.ms.append(o.ref_ms)
            self.raw_ms.append(o.ms)
            self.solved += o.solved
            self.wrong += o.wrong
            if o.error is not None:
                self.errors += 1
                self.problems.append(f"{case.id}: {o.error}")
            elif o.wrong:
                self.wrong_ids.add(case.id)
                if case.defect is None:
                    self.problems.append(f"{case.id}: wrong verdict {o.verdict.statuses}")

    @property
    def attempted(self):
        return len(self.ms)


def calibrate():
    """Time one fixed unit of pure-Python exact arithmetic that shares no code
    with the engine (the oracle's own polynomial power over Q), in ms."""
    t0 = perf_counter_ns()
    oracle.ppow(CAL_POLY, 6, 2, 0)
    return (perf_counter_ns() - t0) / 1e6


def run_pass(cli, cases, limit_s, trace=None):
    """Run every case once; rescale each case time to the reference speed.

    A calibration unit runs after every case.  The machine's speed drifts,
    so each case is rescaled by the median calibration time of the nine
    units around it: ref_ms = ms * CAL_REF_MS / local calibration time.
    """
    outcomes, cal = [], []
    for case in cases:
        outcomes.append(run_case(cli, case, limit_s, trace))
        cal.append(calibrate())
    for i, o in enumerate(outcomes):
        o.ref_ms = o.ms * CAL_REF_MS / statistics.median(cal[max(0, i - 4):i + 5])
    return outcomes


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(names, run, setup_s):
    ms = run.ms
    n = run.attempted
    values = {
        "setup_s": setup_s,
        "cases_per_s": n / (sum(ms) / 1e3),
        "case_ms.p50": statistics.median(ms),
        "case_ms.p90": statistics.quantiles(ms, n=10)[8],
        "solved_share": run.solved / n,
        "trusted_share": 1 - run.wrong / n,
        "completed_share": 1 - run.errors / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: values[name] for name in names}


def per_layer(names, tr, passes, field_ms, untraced_ms, traced_ms, traced_raw_ms):
    """Per traced pass, as timed.  The overhead compares the summed case times
    of traced and untraced passes, both rescaled to the reference speed.

    `<span>.calls` counts a span, `<span>.self_ms` sums its self time,
    `<layer>.self_ms` sums the self time of every span of the layer, and any
    other name is a counter of tracer.COUNTERS.
    """
    calls, self_ms, c = tr.calls, {k: v / 1e6 for k, v in tr.self_ns.items()}, tr.counters
    spans = tracer.SPAN_INDEX

    def ratio(num, den):
        return num / den if den else 0.0

    special = {
        "polyhedron.hull.kept_ratio": ratio(c.get("polyhedron.hull.vertices", 0),
                                            c.get("polyhedron.hull.points", 0)),
        "kappa.binomialize.hit_ratio": ratio(c.get("kappa.binomialize.hits", 0),
                                             calls.get("kappa.binomialize", 0)),
        "quasiord.det.size_max": c.get("quasiord.det.size_max", 0),
        "ring.field_init.ms": field_ms,
        "parse.calls": calls.get("parse.polynomial", 0) / passes,
        "trace.spans": tr.span_count / passes,
        "trace.unattributed_ms": (traced_raw_ms - tr.top_ns / 1e6) / passes,
        "trace.overhead_pct": 100 * (traced_ms - untraced_ms) / untraced_ms,
    }
    values = {}
    for name in names:
        head, _, kind = name.rpartition(".")
        if name in special:
            values[name] = special[name]
        elif kind == "calls" and head in spans:
            values[name] = calls.get(head, 0) / passes
        elif kind == "self_ms" and head in LAYERS:
            values[name] = sum(v for k, v in self_ms.items() if k.startswith(head + ".")) / passes
        elif kind == "self_ms" and head in spans:
            values[name] = self_ms.get(head, 0.0) / passes
        elif name in tracer.COUNTERS:
            values[name] = c.get(name, 0) / passes
        else:
            raise KeyError(f"BENCHMARK.json names a per-layer metric the tracer lacks: {name}")
    return values


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def measure(args):
    e2e_units, layer_units = declared_metrics()
    problems = [f"oracle self-check: {p}" for p in oracle.self_check()]
    cases = workloads.build(args.workload, args.seed)
    limit_s = workloads.TIME_LIMIT_S[args.workload]
    setup_s, field_ms, cli = setup(workloads.fields(cases))
    signal.signal(signal.SIGALRM, _on_alarm)
    run_pass(cli, workloads.reference_cases(), limit_s)  # warm-up, not scored
    run = Run(cases)
    start = perf_counter()
    if not args.trace:
        passes = 0
        while passes == 0 or perf_counter() - start < args.seconds:
            run.record_pass(run_pass(cli, cases, limit_s))
            passes += 1
        units = e2e_units
        metrics = end_to_end(units, run, setup_s)
    else:
        tr = tracer.Tracer()
        passes = 0
        untraced_ms = traced_ms = traced_raw_ms = 0.0
        while passes == 0 or perf_counter() - start < args.seconds:
            outcomes = run_pass(cli, cases, limit_s)
            run.record_pass(outcomes)
            untraced_ms += sum(o.ref_ms for o in outcomes)
            tr.keep = passes == 0
            tr.install()
            try:
                outcomes = run_pass(cli, cases, limit_s, tr)
            finally:
                tr.uninstall()
            run.record_pass(outcomes)
            traced_ms += sum(o.ref_ms for o in outcomes)
            traced_raw_ms += sum(o.ms for o in outcomes)
            passes += 1
        units = layer_units
        metrics = per_layer(units, tr, passes, field_ms, untraced_ms, traced_ms, traced_raw_ms)
        out_dir = os.path.join(ROOT, ".perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        tr.write_spans(spans_path)
        print(f"spans of the first traced pass: {os.path.relpath(spans_path, ROOT)}")
    problems += run.problems
    report(args, run, passes, metrics, units, problems)
    return {"correct": not problems, "attempted": run.attempted, "failed": run.errors,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}


def report(args, run, passes, metrics, units, problems):
    n = run.attempted
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client, sequential  limit {workloads.TIME_LIMIT_S[args.workload]} s/case")
    print(f"  {passes} passes x {len(run.cases)} cases = {n} case samples")
    raw = run.raw_ms
    print(f"  as timed, before rescaling: {n / (sum(raw) / 1e3):.6g} cases/s, "
          f"p50 {statistics.median(raw):.6g} ms, p90 {statistics.quantiles(raw, n=10)[8]:.6g} ms")
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:.6g} {unit}")
    defects = sorted({c.defect for c in run.cases if c.id in run.wrong_ids and c.defect})
    print(f"  wrong_share {run.wrong / n:.6g} ({run.wrong} of {n}; cases "
          f"{', '.join(sorted(run.wrong_ids)) or 'none'})")
    for defect in defects:
        print(f"    known defect: {defect}")
    print(f"  error_share {run.errors / n:.6g} ({run.errors} of {n})")
    print(f"  output digest sha256 {run.digest} (first pass, informational)")
    for problem in problems[:20]:
        print(f"  PROBLEM {problem}")


def run_all(args):
    """Each workload in its own process, one after another."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
