"""ssetkit benchmark: seeded CLI workloads, timed to a verified exact answer.

    python3 perfbench/run.py --workload homology|derham|certify|mutated --seed N \
        --seconds S --trace 0|1

Set-up runs in fresh child processes. One untimed child writes the seeded
input files and computes the reference answers (closed forms and sympy, never
ssetkit). With --trace 0, a timed child follows every timed pass (at least
five in a run): it imports ssetkit and writes the same inputs again, without
the sympy oracle, which is the benchmark's cost and not the program's;
setup_s is their median. The run calls ssetkit.cli.main once per job, in
this process, pass after pass over the job list, for about S seconds. The
first pass is a warm-up; every answer of every pass is checked.

--trace 0 prints the end-to-end metrics. Their times are calibrated against
a fixed reference computation run alongside the jobs, and setup_s against a
fixed reference process run alongside each set-up (see "calibration"
below), so that the host's drifting speed cancels; the uncalibrated wall
times are printed above the JSON line. --trace 1 alternates untraced
passes with passes in which tracer.Tracer wraps every public ssetkit
function, prints the per-layer metrics and the tracing overhead, and
reports correct: false if any traced report differs from its untraced
digest.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. attempted counts every job run; failed
counts runs with a wrong answer, an unexpected exit code or a raw exception
escaping cli.main. correct is false when a job with a reference answer
failed, or when tracing changed a report; the jobs of the mutated workload
(seeded corruptions of fixture files, not listed in BENCHMARK.json) count in
failed only.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

import references

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(ROOT, "fixtures")
WORK = os.path.join(ROOT, ".perfbench-work")
OUT = os.path.join(ROOT, ".perfbench-out")
# "mutated" is not in BENCHMARK.json: some of its inputs make the parsers
# raise, and the benchmark's workloads must run without failures.
WORKLOADS = ("homology", "derham", "certify", "mutated")
# Timed set-ups alternate with the timed passes, one after each pass, and
# at least this many run in a run.
SETUP_MIN_REPEATS = 5
SETUP_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--no-oracle", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- calibration ---------------------------------------------------------------
#
# The speed of the shared host swings by up to 2x, in stretches that last
# from a fraction of a second to minutes, so raw wall times of one run do not
# repeat within a tenth. A fixed pure-Python chunk
# of the same kind of work as ssetkit's (Fraction elimination, tuple and dict
# building) runs between jobs; its time slows and speeds up with the host.
# A job's calibrated time is its wall time * REFERENCE_NOMINAL_S / (mean time
# of the two chunks that bracket it). Over 2.7 s windows of ssetkit jobs, the
# quartile spread was 0.28 of the median for wall time and 0.02 for
# calibrated time.

_REF_RNG = random.Random(7)
REFERENCE_MATRIX = [[Fraction(_REF_RNG.randint(-3, 3), _REF_RNG.randint(1, 3)) for _ in range(9)]
                    for _ in range(8)]
# About the chunk's median time on the 2-vCPU machine the benchmark was
# defined on; it only sets the scale of calibrated times.
REFERENCE_NOMINAL_S = 0.003


def reference_chunk():
    """Reduce REFERENCE_MATRIX to row echelon form and build a small dict of
    tuples; returns the rank and the dict size."""
    a = [row[:] for row in REFERENCE_MATRIX]
    rows, cols = len(a), len(a[0])
    r = 0
    for c in range(cols):
        p = next((i for i in range(r, rows) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    d = {}
    for i in range(300):
        d[(i % 17, i // 17)] = tuple(sorted((i * 7) % 13 for _ in range(3)))
    return r, len(d)


# A set-up is process start, imports and interpreted work, and it does not
# follow reference_chunk. It is calibrated like a job, by a reference process
# of the same kinds of work timed just before and after it: a fresh
# interpreter that imports this file's modules (the standard library and
# references.py, not ssetkit) and runs reference_chunk 20 times. Over 40
# set-ups, that halved the quartile spread (0.14 to 0.07), where dividing by
# the chunk tripled it.
REFERENCE_PROCESS = [sys.executable, "-c", "import sys; sys.path.insert(0, %r); import run\n"
                     "for _ in range(20): run.reference_chunk()" % HERE]
# About the reference process's median time on the machine the benchmark was
# defined on; it only sets the scale of setup_s.
REFERENCE_PROCESS_NOMINAL_S = 0.2


# -- set-up ------------------------------------------------------------------


def setup_child(args):
    """Write the inputs and jobs.json into args.setup_only (child process).

    With --no-oracle, references.complex_homology returns placeholders of the
    right shape, so no sympy runs; the expected answers in jobs.json are then
    wrong and only the input files are used."""
    sys.path.insert(0, SRC)
    import jobs

    if args.no_oracle:
        references.complex_homology = lambda faces, cap: ([0] * (cap + 1), [[]] * (cap + 1))
    built = jobs.build(args.workload, args.seed, args.setup_only, FIXTURES)
    with open(os.path.join(args.setup_only, "jobs.json"), "w") as fh:
        json.dump(built, fh, sort_keys=True)


def _inputs_digest(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        if name == "jobs.json":
            continue
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _setup_cmd(args, out, oracle):
    os.makedirs(out)
    return ([sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only", out] + ([] if oracle else ["--no-oracle"]))


def set_up(args, work):
    """Write the inputs with their references in an untimed child process.

    Returns (jobs, input directory, digest of the input files)."""
    inputs = os.path.join(work, "inputs")
    subprocess.run(_setup_cmd(args, inputs, oracle=True), check=True, timeout=SETUP_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    with open(os.path.join(inputs, "jobs.json")) as fh:
        jobs = json.load(fh)
    return jobs, inputs, _inputs_digest(inputs)


def _run_child(cmd):
    """Run cmd to its end and return its wall seconds. A blocking wait, with
    a timer to kill a hung child: subprocess.run with a timeout polls in
    steps of up to 50 ms, which would round the time."""
    t0 = time.perf_counter()
    child = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    timer = threading.Timer(SETUP_TIMEOUT_S, child.kill)
    timer.start()
    try:
        code = child.wait()
    finally:
        timer.cancel()
    seconds = time.perf_counter() - t0
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    return seconds


def timed_set_up(args, work, expected):
    """One set-up without the oracle in a fresh child process, between two
    reference processes; returns (calibrated seconds, wall seconds). It must
    write the same input files as set_up, since the inputs depend on the
    seed alone."""
    out = os.path.join(work, "timed")
    cmd = _setup_cmd(args, out, oracle=False)
    before = _run_child(REFERENCE_PROCESS)
    seconds = _run_child(cmd)
    after = _run_child(REFERENCE_PROCESS)
    same = _inputs_digest(out) == expected
    shutil.rmtree(out)
    if not same:
        raise RuntimeError("set-up is not deterministic for seed %d" % args.seed)
    return seconds * REFERENCE_PROCESS_NOMINAL_S * 2 / (before + after), seconds


# -- running jobs --------------------------------------------------------------


class Outcome:
    __slots__ = ("code", "stdout", "seconds", "error")

    def __init__(self, code, stdout, seconds, error):
        self.code, self.stdout, self.seconds, self.error = code, stdout, seconds, error

    def key(self):
        return (self.code, references.report_digest(self.stdout), self.error is None)


def run_job(cli, argv):
    """One cli.main call, from reading the input file to the rendered report."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a raw exception escaping the CLI is a failure
            error = "%s: %s" % (type(exc).__name__, exc)
        seconds = time.perf_counter() - t0
    return Outcome(code, out.getvalue(), seconds, error)


class Verifier:
    """Checks outcomes against the references; the first outcome of each job
    is checked in full, later ones that render the same report reuse it."""

    def __init__(self, jobs, inputs):
        self.jobs = jobs
        self.inputs = inputs
        self.verdicts = {}          # (job index, outcome key) -> problems
        self.attempted = 0
        self.failed = 0
        self.wrong = 0              # failures of jobs that have a reference answer
        self.failures = {}          # job id -> first problem

    def read_input(self, name):
        with open(os.path.join(self.inputs, name)) as fh:
            return fh.read()

    def record(self, index, outcome):
        job = self.jobs[index]
        cache_key = (index,) + outcome.key()
        if cache_key not in self.verdicts:
            if outcome.error is not None:
                problems = ["raw exception: " + outcome.error]
            else:
                problems = references.check(job["expect"], outcome.code, outcome.stdout, self.read_input)
            self.verdicts[cache_key] = problems
        problems = self.verdicts[cache_key]
        self.attempted += 1
        if problems:
            self.failed += 1
            if "exit_in" not in job["expect"]:
                self.wrong += 1
            self.failures.setdefault(job["id"], problems[0])


def time_reference_chunk():
    t0 = time.perf_counter()
    reference_chunk()
    return time.perf_counter() - t0


def run_pass(cli, argvs, verifier, tracer=None, calibrate=False):
    """Every job once; returns (pass seconds, [outcome], [chunk seconds]).

    Pass seconds sum the jobs' own times. With calibrate, reference_chunk
    runs before every job and once after the last, so that chunks i and i+1
    bracket job i; without, the chunk list is empty."""
    outcomes, chunks = [], []
    for index, argv in enumerate(argvs):
        if calibrate:
            chunks.append(time_reference_chunk())
        if tracer is not None:
            tracer.job_id = index
        outcome = run_job(cli, argv)
        verifier.record(index, outcome)
        outcomes.append(outcome)
    if calibrate:
        chunks.append(time_reference_chunk())
    return sum(o.seconds for o in outcomes), outcomes, chunks


def calibrated_ms(outcomes, chunks):
    """Each job's time in ms, scaled by the chunks that bracket it."""
    return [o.seconds * 1000.0 * REFERENCE_NOMINAL_S * 2 / (chunks[i] + chunks[i + 1])
            for i, o in enumerate(outcomes)]


def resolve(argv, inputs):
    return [os.path.join(inputs, a[1:]) if a.startswith("@") else a for a in argv]


# -- metrics -------------------------------------------------------------------


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(setup_s, pass_seconds, samples_ms):
    return {
        "setup_s": metric(setup_s, "s"),
        "batch_s": metric(statistics.median(pass_seconds), "s"),
        "job_ms.p50": metric(statistics.median(samples_ms), "ms"),
        "job_ms.p90": metric(statistics.quantiles(samples_ms, n=10)[8], "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(traced, untraced_s, gc_runs):
    """Per-layer metrics from the traced passes (see tracer.py)."""
    import tracer as tracing

    out = {}
    for layer in tracing.LAYERS:
        out[layer + ".self_ms"] = metric(statistics.median(t["self_ms"][layer] for t in traced), "ms")
    out["linalg.snf_ms"] = metric(statistics.median(t["snf_ms"] for t in traced), "ms")
    out["linalg.matmul_ms"] = metric(statistics.median(t["matmul_ms"] for t in traced), "ms")
    for name, value in traced[0]["counters"].items():
        out[name] = metric(value, "count.computed" if name in tracing.COMPUTED else "count")
    out["python.gc_ms"] = metric(statistics.median(g[0] for g in gc_runs), "ms")
    out["python.gc_collections"] = metric(statistics.median(g[1] for g in gc_runs), "count")
    out["trace.overhead_ratio"] = metric(
        statistics.median(t["seconds"] for t in traced) / statistics.median(untraced_s), "ratio")
    return out


def write_spans(path, spans):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with gzip.open(path, "wt") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


# -- the run -------------------------------------------------------------------


def measure(args, work, cli, jobs, inputs, digest):
    """Passes for about args.seconds; returns (result dict, summary lines)."""
    argvs = [resolve(job["argv"], inputs) for job in jobs]
    verifier = Verifier(jobs, inputs)
    t_start = time.perf_counter()
    _, warm, _ = run_pass(cli, argvs, verifier)
    baseline = [o.key() for o in warm]
    lines = []
    mismatched = []

    if args.trace == 0:
        pass_seconds, samples, wall_seconds, wall_samples, chunks = [], [], [], [], []
        setup_seconds, setup_walls = [], []
        while True:
            t_pass = time.perf_counter()
            seconds, outcomes, pass_chunks = run_pass(cli, argvs, verifier, calibrate=True)
            calibrated_setup, setup_wall = timed_set_up(args, work, digest)
            setup_seconds.append(calibrated_setup)
            setup_walls.append(setup_wall)
            elapsed = time.perf_counter() - t_pass
            calibrated = calibrated_ms(outcomes, pass_chunks)
            wall_seconds.append(seconds)
            wall_samples.extend(o.seconds * 1000.0 for o in outcomes)
            pass_seconds.append(sum(calibrated) / 1000.0)
            samples.extend(calibrated)
            chunks.extend(pass_chunks)
            if time.perf_counter() - t_start + elapsed > args.seconds:
                break
        while len(setup_seconds) < SETUP_MIN_REPEATS:
            calibrated_setup, setup_wall = timed_set_up(args, work, digest)
            setup_seconds.append(calibrated_setup)
            setup_walls.append(setup_wall)
        metrics = end_to_end(statistics.median(setup_seconds), pass_seconds, samples)
        wall = end_to_end(statistics.median(setup_walls), wall_seconds, wall_samples)
        lines.append("%d jobs x %d timed passes after a warm-up; %d job samples, %d above p90;"
                     " %d timed set-ups"
                     % (len(jobs), len(pass_seconds), len(samples),
                        sum(1 for s in samples if s > metrics["job_ms.p90"]["value"]),
                        len(setup_seconds)))
        lines.append("uncalibrated wall time: setup_s %.4f s, batch_s %.4f s, job_ms.p50 %.4f ms,"
                     " job_ms.p90 %.4f ms; reference chunk %.4f ms (median, nominal %.1f ms)"
                     % (wall["setup_s"]["value"], wall["batch_s"]["value"], wall["job_ms.p50"]["value"],
                        wall["job_ms.p90"]["value"], statistics.median(chunks) * 1000.0,
                        REFERENCE_NOMINAL_S * 1000.0))
    else:
        import tracer as tracing

        tracer = tracing.Tracer()
        untraced_s, gc_runs, traced = [], [], []
        spans = None
        while True:
            with tracing.GcMonitor() as gc_monitor:
                seconds_u, _, _ = run_pass(cli, argvs, verifier)
            untraced_s.append(seconds_u)
            gc_runs.append((gc_monitor.ms, gc_monitor.collections))
            tracer.reset()
            tracer.install()
            try:
                seconds_t, outcomes, _ = run_pass(cli, argvs, verifier, tracer)
            finally:
                tracer.uninstall()
            mismatched += [jobs[i]["id"] for i, o in enumerate(outcomes) if o.key() != baseline[i]]
            traced.append({
                "seconds": seconds_t,
                "self_ms": tracer.layer_self_ms(),
                "snf_ms": tracer.inclusive_ms("invariant_factors", "linalg"),
                "matmul_ms": tracer.inclusive_ms("Matrix.__matmul__", "linalg"),
                "counters": dict(tracer.counters),
            })
            if spans is None:
                spans = tracer.spans()
            if time.perf_counter() - t_start + seconds_u + seconds_t > args.seconds:
                break
        metrics = per_layer(traced, untraced_s, gc_runs)
        unsteady = [n for n, v in traced[0]["counters"].items()
                    if any(t["counters"][n] != v for t in traced[1:])]
        path = os.path.join(OUT, "spans-%s-seed%d.jsonl.gz" % (args.workload, args.seed))
        write_spans(path, spans)
        lines.append("%d jobs x %d untraced + %d traced passes after a warm-up; %d spans per traced pass"
                     " written to %s" % (len(jobs), len(untraced_s), len(traced), len(spans),
                                         os.path.relpath(path, ROOT)))
        lines.append("traced reports identical to untraced: %s" % ("yes" if not mismatched else mismatched))
        if unsteady:
            lines.append("counters that differ between traced passes: %s" % unsteady)

    correct = verifier.wrong == 0 and not mismatched
    result = {
        "correct": correct,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": metrics,
    }
    lines.append("fail_ratio %.6f (%d failed of %d attempted)"
                 % (verifier.failed / verifier.attempted, verifier.failed, verifier.attempted))
    for job_id, problem in sorted(verifier.failures.items()):
        lines.append("  failed %s: %s" % (job_id, problem))
    return result, lines


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isdir(os.path.join(SRC, "ssetkit")):
        print("perfbench: no ssetkit sources under %s" % SRC, file=sys.stderr)
        return 2
    if args.setup_only:
        setup_child(args)
        return 0
    work = os.path.join(WORK, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work)
    try:
        jobs, inputs, digest = set_up(args, work)
        sys.path.insert(0, SRC)
        from ssetkit import cli

        result, lines = measure(args, work, cli, jobs, inputs, digest)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)
    print("perfbench workload %s seed %d, Python %s, %d CPUs"
          % (args.workload, args.seed, sys.version.split()[0], os.cpu_count()))
    for line in lines:
        print("  " + line)
    for name, m in result["metrics"].items():
        print("  %-34s %14.6f %s" % (name, m["value"], m["unit"]))
    print("  correct %s" % result["correct"])
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
