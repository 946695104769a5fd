"""hullforge benchmark: per-command throughput on three seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload bulk-small-q --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

One process, one thread, closed loop: each call starts after the previous
one returns.  With --trace 0 it prints every end-to-end metric; with
--trace 1 it runs the inputs untraced and then traced, and prints every
per-layer metric.  The last line of output is one JSON object with the
keys correct, attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns

STARTED = perf_counter()
ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "hullforge" / "__init__.py").is_file():
    sys.exit(f"error: no hullforge sources under {ROOT / 'src'}")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from hullforge.gf import FieldSpec, make_field  # noqa: E402

from bench import checks, spans  # noqa: E402
from bench.workloads import WORKLOADS, make_round, run_code  # noqa: E402

OPS = ("hull", "diag", "pair", "base", "extend")
PASSES = 8
DIGEST_ROUNDS = 2            # the digest covers these rounds, which always run
ROUNDS_UNTIL_S = 60          # no first-pass round starts after this
PASSES_UNTIL_S = 120         # no repeat pass starts that would end after this

# A fixed plain-Python row reduction mod 7, run beside every code: it
# gauges how fast the machine runs the interpreter at that moment.  REF_NS
# is its time on an idle core of the 2-CPU machine the benchmark was
# defined on, so corrected times read as seconds on that machine.
_ref_rng = random.Random(7)
REF_ROWS = tuple(tuple(_ref_rng.randrange(7) for _ in range(16)) for _ in range(12))
REF_INVERSE = (0, 1, 4, 5, 2, 3, 6)
REF_REPEATS = 16
REF_NS = 2_660_000


def reference():
    for _ in range(REF_REPEATS):
        rows = [list(row) for row in REF_ROWS]
        r = 0
        for c in range(16):
            pivot = next((i for i in range(r, 12) if rows[i][c]), None)
            if pivot is None:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            inv = REF_INVERSE[rows[r][c]]
            rows[r] = [x * inv % 7 for x in rows[r]]
            for i in range(12):
                f = rows[i][c]
                if i != r and f:
                    rows[i] = [(x - f * y) % 7 for x, y in zip(rows[i], rows[r])]
            r += 1
            if r == 12:
                break


SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import hullforge.cli
from hullforge.gf import make_field
for pm in sys.argv[1:]:
    make_field(*map(int, pm.split(",")))
print(time.perf_counter() - t0)
"""


class Tally:
    """Attempted and failed calls, failures by reason, and the digests of
    the answers: `digest` over the first DIGEST_ROUNDS rounds, which every
    run of a seed completes, and `full` over every round run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = Counter()
        self.digest = hashlib.sha256()
        self.full = hashlib.sha256()

    def add(self, reasons_per_call):
        for reasons in reasons_per_call:
            self.attempted += 1
            self.failed += bool(reasons)
            self.reasons.update(reasons)

    def correct(self, known):
        return set(self.reasons) <= known


def measure_setup(fields):
    """Seconds, in a fresh process, to import hullforge.cli and build every
    field of the workload."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    args = [f"{plan.p},{plan.m}" for plan in fields]
    out = subprocess.run([sys.executable, "-c", SETUP_CODE, *args],
                         env=env, cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout.split()[-1])


class Runner:
    """Runs rounds of one workload and keeps the inputs for a replay."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.rounds = []

    def inputs(self, index):
        while len(self.rounds) <= index:
            self.rounds.append(make_round(self.workload, self.seed,
                                          len(self.rounds), self.workdir))
        return self.rounds[index]


def run_pass(runner, budget_ns=None, rounds=None, tracer=None):
    """Yield (round index, CodeRun, scale) over one pass: exactly `rounds`
    rounds, or, when None, rounds until the pipelines used budget_ns (at
    least DIGEST_ROUNDS rounds; none starts after ROUNDS_UNTIL_S).

    scale is REF_NS over the time of the reference run just before the
    code; times multiplied by it read as seconds on an idle machine.
    """
    index = used_ns = 0
    while True:
        if rounds is not None:
            if index == rounds:
                return
        elif index >= DIGEST_ROUNDS and (used_ns >= budget_ns
                                         or perf_counter() - STARTED > ROUNDS_UNTIL_S):
            return
        for inp in runner.inputs(index):
            t0 = perf_counter_ns()
            reference()
            scale = REF_NS / (perf_counter_ns() - t0)
            if tracer is not None:
                tracer.active = True
            run = run_code(inp)
            if tracer is not None:
                tracer.active = False
            used_ns += run.ns
            yield index, run, scale
        index += 1


def record(tally, index, run, check):
    """Add a run's answers to the digests and, with `check`, check them."""
    answers = checks.payloads(run)
    for line in checks.digest_items(run, answers):
        tally.full.update(line.encode() + b"\n")
        if index < DIGEST_ROUNDS:
            tally.digest.update(line.encode() + b"\n")
    if check:
        tally.add(checks.check_run(run, answers))


def end_to_end(workload, runner, seconds, tally):
    """Throughput from up to PASSES passes over the same codes.

    The first pass runs rounds for seconds / PASSES of pipeline time and
    checks every answer; the other passes repeat those codes, and their
    answers must reproduce the first pass's digest.  Every time is scaled
    by the reference run just before its code, so a slowdown of the whole
    machine cancels, and each code and each call keeps the median of its
    scaled times over the passes, so a burst the reference missed drops
    out.  Set-up is measured before every other pass and once at the end,
    and setup_s is the median.  Returns (metrics, rounds, codes, passes).
    """
    setups = [measure_setup(workload.fields)]
    for plan in workload.fields:
        make_field(plan.p, plan.m)
    times = []                # per code: [code samples, [samples per call], [op per call]]
    for index, run, scale in run_pass(runner, budget_ns=seconds * 1e9 / PASSES):
        record(tally, index, run, check=True)
        times.append([[run.ns * scale], [[c.ns * scale] for c in run.calls],
                      [c.op for c in run.calls]])
    rounds = len(runner.rounds)
    passes, pass_s = 1, 0.0
    while passes < PASSES and perf_counter() - STARTED + pass_s < PASSES_UNTIL_S:
        t0 = perf_counter()
        if passes % 2 == 0:
            setups.append(measure_setup(workload.fields))
        repeat = Tally()
        for (code_ns, call_ns, _), (index, run, scale) in zip(
                times, run_pass(runner, rounds=rounds)):
            record(repeat, index, run, check=False)
            code_ns.append(run.ns * scale)
            for samples, call in zip(call_ns, run.calls):
                samples.append(call.ns * scale)
        if repeat.full.digest() != tally.full.digest():
            tally.add([["repeat-mismatch"]])
        passes += 1
        pass_s = perf_counter() - t0
    setups.append(measure_setup(workload.fields))
    median = statistics.median
    per_op = {}
    for _, call_ns, ops in times:
        for op, samples in zip(ops, call_ns):
            stat = per_op.setdefault(op, [0, 0.0])
            stat[0] += 1
            stat[1] += median(samples)
    code_s = sum(median(code_ns) for code_ns, _, _ in times) * 1e-9
    metrics = {"setup_s": (median(setups), "s"),
               "codes_per_s": (len(times) / code_s, "codes/s")}
    for op in OPS:
        calls, ns = per_op.get(op, (0, 0))
        metrics[f"{op}_per_s"] = (calls / (ns * 1e-9) if ns else 0.0, "calls/s")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")
    return metrics, rounds, len(times), passes


def per_layer(workload, runner, seconds, tally):
    """Per-layer metrics: the rounds run once untraced, for seconds / 3 of
    pipeline time, then once traced; the two digests must agree."""
    build_ns = 0
    for plan in workload.fields:
        t0 = perf_counter_ns()
        FieldSpec(plan.p, plan.m)
        build_ns += perf_counter_ns() - t0
        make_field(plan.p, plan.m)
    untraced = Tally()
    untraced_ns = codes = 0
    for index, run, _ in run_pass(runner, budget_ns=seconds * 1e9 / 3):
        record(untraced, index, run, check=False)
        untraced_ns += run.ns
        codes += 1
    rounds = len(runner.rounds)
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    traced_ns = 0
    try:
        for index, run, _ in run_pass(runner, rounds=rounds, tracer=tracer):
            traced_ns += run.ns
            record(tally, index, run, check=True)
    finally:
        spans.restore(patches)
    if untraced.full.digest() != tally.full.digest():
        tally.add([["trace-digest-mismatch"]])
    metrics = spans.layer_metrics(tracer, traced_ns, untraced_ns, build_ns)
    return metrics, rounds, codes, 2


def run_workload(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    work_parent = ROOT / "bench" / "_work"
    work_parent.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=work_parent)
    tally = Tally()
    try:
        runner = Runner(workload, seed, workdir)
        measure = per_layer if trace else end_to_end
        metrics, rounds, codes, passes = measure(workload, runner, seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_parent.rmdir()
        except OSError:
            pass
    correct = tally.correct(checks.KNOWN_DEFECTS)
    report(name, seed, trace, rounds, codes, passes, metrics, tally, correct)
    return {"correct": correct, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {key: {"value": value, "unit": unit}
                        for key, (value, unit) in metrics.items()}}


def report(name, seed, trace, rounds, codes, passes, metrics, tally, correct):
    print(f"workload {name}  seed {seed}  trace {trace}  "
          f"rounds {rounds}  codes {codes}  passes {passes}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<32} {value:>14.6g} {unit}")
    frac = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"  {'failed_frac':<32} {frac:>14.6g} ratio"
          f"  ({tally.failed} of {tally.attempted} calls)")
    reasons = ", ".join(f"{r}: {n}" for r, n in sorted(tally.reasons.items()))
    print(f"  failures by reason: {reasons or 'none'}")
    print(f"  correct: {correct}  digest of the first {DIGEST_ROUNDS} rounds: "
          f"{tally.digest.hexdigest()}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        rc = 0
        for name in WORKLOADS:
            rc |= subprocess.run([sys.executable, __file__, "--workload", name,
                                  "--seed", str(args.seed),
                                  "--seconds", str(args.seconds),
                                  "--trace", str(args.trace)]).returncode
        return rc
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
