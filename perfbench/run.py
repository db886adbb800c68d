"""spectralab benchmark: seeded CLI workloads, timed end to end and traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pipeline|verify|shapes --seed N \
        --seconds S --trace 0|1

Every job is one `python3 -m spectralab.cli ...` command line run in its own
child process, one at a time (a closed loop with one client), because a user
pays a cold interpreter and cold level tables on every command.  Each child
gets an address-space and CPU-time limit of its own, so a job that blows up
its level table fails instead of exhausting the machine.  The parent imports
no numpy and starts no thread while jobs run; the outputs are checked after
the last job (see checks.py).

The speed of a shared virtual machine drifts by a third within minutes, so
every timed child is followed by a probe: a fixed program, independent of
spectralab, that starts an interpreter, imports numpy and computes.  A job's
time is reported at reference speed: its wall time times PROBE_NOMINAL_S
over the mean wall time of the probes just before and just after it.

--trace 0 measures the end-to-end metrics over the passes of jobs that
workloads.py draws for --seconds.  --trace 1 runs one pass of the jobs untraced and one
under perfbench/tracer.py, and reports the per-layer metrics from the
traced pass and the tracing overhead against the untraced one.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable report.
The full record, machine and versions included, goes to
.perfbench/results/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
TRACER = os.path.join(HERE, "tracer.py")

JOB_ADDRESS_SPACE = 1 << 30   # bytes; the seed commit's largest job peaks at 210 MB RSS
JOB_CPU_SECONDS = 60
DEADLINE_S = 150              # no job starts later than this into the run
OVERRUN = 1.5                 # no pass starts later than OVERRUN * --seconds into the run
SETUP_EVERY = 4               # one timed `import spectralab.cli` before every fourth job
IMPORT_CLI = ["-c", "import spectralab.cli"]

# The probe: interpreter start and the numpy import, exact rational
# arithmetic, a pure-Python loop and numpy passes over 16 MB arrays, the
# kinds of work the jobs do.  It must never change: every reported time
# is scaled by it.
PROBE = (
    "import numpy as np\n"
    "from fractions import Fraction\n"
    "s = 0\n"
    "for i in range(1, 3001):\n"
    "    s += (Fraction(i, 1 + i % 13) * Fraction(7, 1 + i % 11)).numerator\n"
    "x = 0\n"
    "for i in range(150000):\n"
    "    x += i * i % 7\n"
    "a = np.arange(1 << 21, dtype=float)\n"
    "for _ in range(6):\n"
    "    a = np.sqrt(a * a + 1.0)\n"
)
# the probe's wall time at reference speed, a fixed constant close to its
# wall time on the machine described in README.md (2-vCPU Xeon, Python
# 3.11.7, numpy 2.4.6)
PROBE_NOMINAL_S = 0.40

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}

MODULES = ("catalog", "exact", "asymptotics", "spectrum", "oracle", "average",
           "analysis", "cli")

PER_LAYER = {
    "analysis.fourier_coefficients.self_s": "s",
    "analysis.fourier_coefficients.terms": "count",
    "analysis.make_profile.self_s": "s",
    "analysis.frequency_spectrum.self_s": "s",
    "average.g_samples.self_s": "s",
    "average.avg_error_grid.self_s": "s",
    "average.avg_error_grid.points": "count",
    "spectrum.level_arrays.self_s": "s",
    "spectrum.levels.self_s": "s",
    "spectrum.alloc_peak_mb": "MB",
    "spectrum.bytes_per_level": "B",
    "spectrum.count.calls": "count",
    "spectrum.count.p50_us": "us",
    "spectrum.closed_form_identity.calls": "count",
    "spectrum.closed_form_identity.p50_us": "us",
    "exact.calls": "count",
    "exact.self_s": "s",
    "oracle.brute_levels.self_s": "s",
    "oracle.check_equivalence.self_s": "s",
    "oracle.times_checked": "count",
    "asymptotics.surface_constants.calls": "count",
    "asymptotics.surface_constants.self_s": "s",
    "catalog.self_s": "s",
    "cli.emit.self_s": "s",
    "process.spawn_s": "s",
    "trace.overhead_pct": "%",
    **{f"share.{m}": "%" for m in MODULES + ("process",)},
}


class Job:
    """One child process run: what was run, how long, how big, what it printed."""

    def __init__(self, argv, wall_s, rss_mb, code, stdout, stderr, spawned):
        self.argv = argv
        self.wall_s = wall_s
        self.probe_s = PROBE_NOMINAL_S    # mean of the probes around the job
        self.ref_s = wall_s               # wall time at reference speed
        self.rss_mb = rss_mb
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.spawned = spawned
        self.error = None if code == 0 else f"exit status {code}: {stderr[-300:]}"


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (JOB_ADDRESS_SPACE, JOB_ADDRESS_SPACE))
    resource.setrlimit(resource.RLIMIT_CPU, (JOB_CPU_SECONDS, JOB_CPU_SECONDS))


class Runner:
    def __init__(self, root: str, deadline: float):
        self.root = root
        self.deadline = deadline
        self.tmp = os.path.join(root, ".perfbench", "tmp")
        os.makedirs(self.tmp, exist_ok=True)
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.probes = []         # wall times of every probe, in order

    def spawn(self, cmd: list, argv: tuple) -> Job:
        with tempfile.TemporaryFile(dir=self.tmp) as err:
            spawned = time.monotonic()
            proc = subprocess.Popen([sys.executable, *cmd], stdout=subprocess.PIPE,
                                    stderr=err, env=self.env, cwd=self.root,
                                    preexec_fn=_limit_child)
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - spawned
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode(errors="replace")
        return Job(argv, wall, usage.ru_maxrss / 1024.0, proc.returncode,
                   out.decode(errors="replace"), stderr, spawned)

    def probe(self) -> float:
        job = self.spawn(["-c", PROBE], ())
        if job.error:
            raise RuntimeError(f"the speed probe failed: {job.error}")
        self.probes.append(job.wall_s)
        return job.wall_s

    def measure(self, cmd: list, argv: tuple) -> Job:
        """Spawn a timed child between two probes and scale its wall time
        to reference speed."""
        if time.monotonic() > self.deadline:
            job = Job(argv, 0.0, 0.0, -1, "", "", 0.0)
            job.error = "not started: the run reached its deadline"
            return job
        before = self.probes[-1] if self.probes else self.probe()
        job = self.spawn(cmd, argv)
        job.probe_s = (before + self.probe()) / 2
        job.ref_s = job.wall_s * PROBE_NOMINAL_S / job.probe_s
        return job

    def run(self, argv: tuple) -> Job:
        return self.measure(["-m", "spectralab.cli", *argv], argv)

    def run_traced(self, argv: tuple, index: int) -> tuple:
        path = os.path.join(self.tmp, f"trace-{index}.json")
        if os.path.exists(path):
            os.remove(path)
        job = self.measure([TRACER, path, *argv], argv)
        summary = None
        if os.path.exists(path):
            with open(path) as fh:
                summary = json.load(fh)
            os.remove(path)
        return job, summary

    def run_pass(self, jobs: list) -> tuple:
        """(jobs done, the pass's time at reference speed)"""
        done = [self.run(argv) for argv in jobs]
        return done, sum(j.ref_s for j in done)


# --- metrics ---


def tail(values: list) -> tuple:
    """(value, percentile): the highest percentile with ten values beyond
    it, or the upper median when there are too few values for that."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - 11, n // 2)
    return ordered[rank], 100.0 * (rank + 1) / n


def end_to_end(setup: list, passes: list, jobs: list) -> tuple:
    """(metrics, tail percentile) of an untraced run."""
    walls = [j.ref_s for j in jobs if j.spawned]
    tail_s, pct = tail(walls)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(passes),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": tail_s,
        "peak_rss_mb": max(j.rss_mb for j in jobs),
    }, pct


def per_layer(traced: list, traced_wall: float, plain_wall: float) -> dict:
    calls, own = {}, {}
    counters = {}
    durations = {"spectrum.count": [], "spectrum.closed_form_identity": []}
    memory = []
    spawn = []
    job_time = 0.0
    for job, summary in traced:
        job_time += job.wall_s
        if summary is None:
            continue
        spawn.append(summary["ready_monotonic"] - job.spawned)
        for name, n in summary["calls"].items():
            calls[name] = calls.get(name, 0) + n
        for name, s in summary["self_s"].items():
            own[name] = own.get(name, 0.0) + s
        for name, n in summary["counters"].items():
            counters[name] = counters.get(name, 0) + n
        for name, values in summary["durations_s"].items():
            durations[name].extend(values)
        memory.extend(summary["memory"])

    def module(prefix: str, table: dict):
        return sum(v for k, v in table.items() if k.startswith(prefix + "."))

    def p50_us(name: str) -> float:
        return statistics.median(durations[name]) * 1e6 if durations[name] else 0.0

    out = {}
    for name in PER_LAYER:
        if name.endswith(".self_s") and name.count(".") == 2:
            out[name] = own.get(name[:-len(".self_s")], 0.0)
        elif name.endswith(".calls") and name.count(".") == 2:
            out[name] = calls.get(name[:-len(".calls")], 0)
    levels = sum(n for _, _, n in memory)
    out.update({
        "analysis.fourier_coefficients.terms": counters.get("analysis.fourier_coefficients.terms", 0),
        "average.avg_error_grid.points": counters.get("average.avg_error_grid.points", 0),
        "oracle.times_checked": counters.get("oracle.times_checked", 0),
        "spectrum.alloc_peak_mb": max((p for _, p, _ in memory), default=0) / 2 ** 20,
        "spectrum.bytes_per_level": sum(p for _, p, _ in memory) / levels if levels else 0.0,
        "spectrum.count.p50_us": p50_us("spectrum.count"),
        "spectrum.closed_form_identity.p50_us": p50_us("spectrum.closed_form_identity"),
        "exact.calls": module("exact", calls),
        "exact.self_s": module("exact", own),
        "catalog.self_s": module("catalog", own),
        "process.spawn_s": statistics.median(spawn) if spawn else 0.0,
        "trace.overhead_pct": 100.0 * (traced_wall / plain_wall - 1.0),
    })
    shares = {m: 100.0 * module(m, own) / job_time for m in MODULES}
    shares["process"] = 100.0 - sum(shares.values())
    out.update({f"share.{m}": v for m, v in shares.items()})
    return {name: out[name] for name in PER_LAYER}


# --- reporting ---


def machine(root: str) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = os.path.join(root, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(root, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path) as fh:
                    commit = fh.read().strip()
    return {"commit": commit, "python": platform.python_version(),
            "cpu": cpu, "nproc": os.cpu_count()}


def check_outputs(jobs: list, root: str) -> str:
    """Fill in job.error for wrong outputs; return the numpy version."""
    sys.path.insert(0, os.path.join(root, "src"))
    import numpy

    import checks
    try:
        import spectralab.asymptotics
        import spectralab.catalog
        import spectralab.oracle
    except Exception as err:  # a checkout whose library does not import
        for job in jobs:
            job.error = job.error or f"cannot check: spectralab does not import: {err!r}"
        return numpy.__version__
    checker = checks.Checker(spectralab)
    for job in jobs:
        if job.error is None:
            job.error = checker.check(job.argv, job.code, job.stdout)
    return numpy.__version__


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spectralab", "cli.py")):
        print("error: run from the root of a spectralab checkout "
              "(src/spectralab/cli.py not found)", file=sys.stderr)
        return 2

    runner = Runner(root, time.monotonic() + DEADLINE_S)
    report = [f"spectralab benchmark: workload {args.workload}, seed {args.seed}, "
              f"trace {args.trace}"]

    if args.trace == 0:
        # the first start compiles bytecode into the checkout; users pay that once
        runner.spawn(IMPORT_CLI, ())
        passes = workloads.passes(args.workload, args.seed,
                                  workloads.pass_count(args.workload, args.seconds))
        setup, jobs, pass_walls = [], [], []
        measured = time.monotonic()
        for p, pass_jobs in enumerate(passes):
            if p and time.monotonic() - measured > OVERRUN * args.seconds:
                break
            done = []
            for argv in pass_jobs:
                # set-up samples spread over the run, so that one slow
                # moment of the machine does not decide setup_s
                if (len(jobs) + len(done)) % SETUP_EVERY == 0:
                    setup.append(runner.measure(IMPORT_CLI, ()))
                done.append(runner.run(argv))
            jobs.extend(done)
            pass_walls.append(sum(j.ref_s for j in done))
        numpy_version = check_outputs(jobs, root)
        jobs_failed = [j for j in setup + jobs if j.error]
        metrics, pct = end_to_end([s.ref_s for s in setup], pass_walls, jobs)
        raw = statistics.median(j.wall_s for j in jobs)
        notes = {
            "setup_s": f"median of {len(setup)} interpreter starts importing spectralab.cli",
            "wall_s": f"median of {len(pass_walls)} passes of {len(pass_jobs)} jobs each",
            "job_p50_s": f"median of {len(jobs)} jobs; {raw:.4g} s before scaling",
            "job_tail_s": f"p{pct:.1f} of {len(jobs)} jobs, at most 10 beyond it",
            "peak_rss_mb": "largest child ru_maxrss",
        }
        units = END_TO_END
    else:
        pass_jobs = workloads.passes(args.workload, args.seed, 1)[0]
        plain, plain_wall = runner.run_pass(pass_jobs)
        traced = [runner.run_traced(argv, i) for i, argv in enumerate(pass_jobs)]
        traced_wall = sum(job.ref_s for job, _ in traced)
        jobs = plain + [job for job, _ in traced]
        numpy_version = check_outputs(jobs, root)
        jobs_failed = [j for j in jobs if j.error]
        metrics = per_layer(traced, traced_wall, plain_wall)
        notes = {"trace.overhead_pct": f"traced pass {traced_wall:.3f} s, "
                                       f"untraced pass {plain_wall:.3f} s"}
        units = PER_LAYER

    info = dict(machine(root), numpy=numpy_version, seed=args.seed,
                workload=args.workload, trace=args.trace, seconds=args.seconds,
                probe_median_s=round(statistics.median(runner.probes), 4),
                probe_nominal_s=PROBE_NOMINAL_S)
    report.append(" ".join(f"{k}={v}" for k, v in info.items()))
    attempted = len(jobs)
    failed = sum(1 for j in jobs if j.error)
    report.append(f"jobs: {attempted} ({len(pass_jobs)} per pass), failed {failed}, "
                  f"fail_ratio {failed / attempted:.4g}")
    for name, value in metrics.items():
        note = notes.get(name)
        report.append(f"  {name:40s} {value:14.6g} {units[name]:5s}" + (f"  ({note})" if note else ""))
    for job in jobs_failed[:10]:
        report.append(f"  FAILED {' '.join(job.argv) or '(setup)'}: {job.error}")

    result = {"correct": not jobs_failed, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    results_dir = os.path.join(root, ".perfbench", "results")
    os.makedirs(results_dir, exist_ok=True)
    record = dict(result, info=info, notes=notes, fail_ratio=failed / attempted,
                  probes_s=runner.probes,
                  jobs=[{"argv": j.argv, "wall_s": j.wall_s, "ref_s": j.ref_s,
                         "probe_s": j.probe_s, "rss_mb": j.rss_mb,
                         "code": j.code, "error": j.error} for j in jobs])
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results_dir, name), "w") as fh:
        json.dump(record, fh, indent=1)
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
