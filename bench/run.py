"""Benchmark for ulmc: one workload, one seed, end to end or traced.

    python3 bench/run.py --workload ensemble --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; ulmc is imported from ./src.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones (wall_s, chain_steps_per_s, setup_s, peak_rss_mb);
with --trace 1 they are the per-layer ones, from jobs run with span tracing
(BENCHMARK.json's per_layer; the result file holds every layer metric).
A job whose correctness gate trips counts as a failed operation.  Results,
provenance and spans are also written under bench/.out/.
"""

from __future__ import annotations

import os

# Pin the BLAS pool before numpy loads, so every process of a run uses the
# same thread count.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import ctypes
import glob
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / ".out"
WORKLOAD_NAMES = ("ensemble", "logistic", "convergence", "chains", "coupled")

SETUP_SAMPLES = 5  # fresh processes timing import + build; setup_s is their median
MIN_REPS = 3  # a run times at least this many jobs; the first is a warm-up
CHILD_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", choices=("setup", "job"), help=argparse.SUPPRESS)
    return p.parse_args(argv)


def timed_setup(name, seed):
    """Import ulmc and build the workload's target and schedule.

    Returns (workload, ctx, import_s, build_s).  Generating the seeded
    inputs is the benchmark's work and is not timed.
    """
    start = time.perf_counter()
    import ulmc
    import ulmc.cli  # noqa: F401  (the chains and convergence workloads drive the CLI)

    import_s = time.perf_counter() - start
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    inputs = wl.inputs(seed)
    inputs["out_dir"] = str(OUT_DIR)
    start = time.perf_counter()
    ctx = wl.build(ulmc, inputs)
    build_s = time.perf_counter() - start
    return wl, ctx, import_s, build_s


def run_child(args):
    """Fresh-process measurements: set-up times, and for a job child the
    peak resident memory of one job."""
    wl, ctx, import_s, build_s = timed_setup(args.workload, args.seed)
    report = {"import_s": import_s, "build_s": build_s}
    if args.child == "job":
        report["failures"] = wl.check(ctx, wl.run(ctx))
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


def spawn_child(kind, args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", kind,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{kind} child exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_job(wl, ctx):
    start = time.perf_counter()
    out = wl.run(ctx)
    return time.perf_counter() - start, out


class RunClock:
    """Counts `seconds` of closed-loop jobs and takes the fresh-process
    set-up samples: one before the first job, the rest evenly across the
    run, so they see the same phases of a shared host as the jobs do.  Time
    spent in set-up samples does not count towards `seconds`."""

    def __init__(self, seconds, sample_setup):
        self.seconds = seconds
        self.sample_setup = sample_setup
        self.setups = []
        self._start = time.perf_counter()
        self._paused = 0.0

    def _elapsed(self):
        return time.perf_counter() - self._start - self._paused

    def _take_setup(self):
        start = time.perf_counter()
        self.setups.append(self.sample_setup())
        self._paused += time.perf_counter() - start

    def running(self, jobs):
        """Take a set-up sample if one is due; True while jobs should go on."""
        due = self.seconds * len(self.setups) / SETUP_SAMPLES
        if len(self.setups) < SETUP_SAMPLES and self._elapsed() >= due:
            self._take_setup()
        return jobs < MIN_REPS or self._elapsed() < self.seconds

    def finish(self):
        while len(self.setups) < SETUP_SAMPLES:
            self._take_setup()
        return self.setups


def measure(wl, ctx, clock):
    """Closed loop until the clock stops: (job wall times after the warm-up,
    per-job failures)."""
    walls, failures = [], []
    while clock.running(len(walls)):
        wall, out = timed_job(wl, ctx)
        walls.append(wall)
        failures.append(wl.check(ctx, out))
    return walls[1:], failures


def measure_traced(wl, ctx, clock, tracer, ulmc):
    """Alternate untraced and traced jobs; returns the walls of each kind,
    per-job failures and the run ids of the traced jobs."""
    plain, traced, failures, run_ids = [], [], [], []
    job = 0
    while clock.running(len(traced)):
        job += 1
        if job % 2:
            wall, out = timed_job(wl, ctx)
            plain.append(wall)
            failures.append(wl.check(ctx, out))
            continue
        tracer.run_id = job
        tctx = dict(ctx, target=tracer.traced_target(ctx["target"])) if "target" in ctx else ctx
        tracer.install(ulmc)
        try:
            wall, out = timed_job(wl, tctx)
        finally:
            tracer.uninstall()
        traced.append(wall)
        run_ids.append(job)
        failures.append(wl.check(ctx, out))
    # the first job of each kind warms caches
    return plain[1:], traced[1:], failures, run_ids[1:]


def blas_provenance():
    """OpenBLAS version string and the thread count it reports in effect."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so*"))
    info = {"blas_threads_env": BLAS_THREADS}
    try:
        lib = ctypes.CDLL(libs[0])
        get_threads = lib.scipy_openblas_get_num_threads64_
        get_config = lib.scipy_openblas_get_config64_
    except (IndexError, OSError, AttributeError):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["openblas"] = f"{blas.get('name')} {blas.get('version')}"
        info["blas_threads"] = None
        return info
    get_threads.restype = ctypes.c_int
    get_config.restype = ctypes.c_char_p
    info["openblas"] = get_config().decode()
    info["blas_threads"] = get_threads()
    return info


def git_commit():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance():
    import numpy as np
    import scipy

    return {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **blas_provenance(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "ulmc" / "__init__.py").is_file():
        print(f"bench: no ulmc sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    if args.child:
        return run_child(args)

    wl, ctx, _, _ = timed_setup(args.workload, args.seed)
    import ulmc

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance()}

    if args.trace:
        from tracing import REPORTED, Tracer, layer_metrics, unit_of

        tracer = Tracer()
        clock = RunClock(args.seconds, lambda: spawn_child("setup", args))
        plain, traced, failures, run_ids = measure_traced(wl, ctx, clock, tracer, ulmc)
        setups = clock.finish()
        per_job = [layer_metrics(tracer.spans, tracer.counts, rid) for rid in run_ids]
        metrics = {}
        for key in per_job[0][0]:
            unit = unit_of(key)
            # counts repeat exactly from job to job; keep them whole numbers
            middle = statistics.median_low if unit in ("count", "bytes") else statistics.median
            metrics[key] = metric(middle(m[key] for m, _ in per_job), unit)
        metrics["targets.build_s"] = metric(statistics.median(s["build_s"] for s in setups), "s")
        metrics["setup.import_s"] = metric(statistics.median(s["import_s"] for s in setups), "s")
        overhead = statistics.fmean(traced) / statistics.fmean(plain) - 1.0
        metrics["trace.overhead_frac"] = metric(overhead, "fraction")
        wall = statistics.median(traced)
        report["layer_shares"] = {
            layer: statistics.median(layers[layer] for _, layers in per_job) / wall
            for layer in per_job[0][1]
        }
        report["jobs"] = {"untraced": len(plain), "traced": len(traced)}
        report["layer_metrics"] = metrics
        metrics = {key: metrics[key] for key in REPORTED}
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    else:
        job_child = spawn_child("job", args)
        clock = RunClock(args.seconds, lambda: spawn_child("setup", args))
        walls, failures = measure(wl, ctx, clock)
        setups = clock.finish()
        failures.append(job_child["failures"])
        # The mean, not the median: job times are bimodal when the host
        # alternates between fast and slow phases lasting seconds, and the
        # median of such a sample jumps with the phase mix.
        wall_s = statistics.fmean(walls)
        metrics = {
            "wall_s": metric(wall_s, "s"),
            "chain_steps_per_s": metric(wl.chain_steps(ctx) / wall_s, "1/s"),
            "setup_s": metric(statistics.median(s["import_s"] + s["build_s"] for s in setups),
                              "s"),
            "peak_rss_mb": metric(job_child["peak_rss_mb"], "MB"),
        }
        report["jobs"] = {"timed": len(walls), "wall_s_all": walls}

    failed = sum(1 for f in failures if f)
    result = {"correct": failed == 0, "attempted": len(failures), "failed": failed,
              "metrics": metrics}
    report.update(result)
    report["failures"] = [f for f in failures if f]
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({key: report[key] for key in
                      ("provenance", "jobs", "layer_shares", "failures") if key in report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
