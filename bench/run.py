"""relbel benchmark: closed-loop workloads with end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0

Workloads are ``cli-session``, ``finite-decide`` and ``grid-limits``; see
``workloads.py`` for why each exists and which layer it isolates. One client
sends one job at a time and waits for it. The run sets up ``SETUP_REPEATS``
times and reports the median set-up, then runs whole rotations of the job
pool, at least two; the first rotation's duration fixes how many rotations
fill ``--seconds``. Every job's output is checked.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, ``job_s.p50``,
``job_s.tail`` (the highest percentile with at least ten jobs beyond it),
``jobs_per_s`` and ``peak_rss_mb``. ``fail_ratio``, the failed share of the
jobs attempted, is printed with them and carried by the ``attempted`` and
``failed`` fields of the result.

Times are reported at a fixed reference speed. On a shared host the same
code runs 1.4 to 1.8 times slower while another tenant loads the core, in
spells of seconds to minutes, which moves a 30 s median by more than the
bounds in BENCHMARK.json. So the run pins itself, and every process it
starts, to one CPU, and times :func:`gauge`, a fixed task that runs no
relbel code, right before and after every set-up and every job on that CPU.
Each time is scaled by ``GAUGE_REF_S`` over the mean of the two gauge times
around it. A change to relbel moves the jobs and not the gauge; a slow spell
moves both. The wall-clock values are printed as well, as ``wall.<metric>``;
on a 2-vCPU host their spread over five runs was three to six times that of
the scaled values.

``--trace 1`` runs each pool entry once untraced and once traced, then the start-up
probes and size sweeps of ``sweeps.py``, and reports the per-layer metrics:
per-job means over the traced jobs, plus ``trace.overhead_ratio``, the
traced over the untraced ``job_s.p50``. A layer the workload never reaches
reads 0. Spans go to ``.bench_out/trace-<workload>-<seed>.npz``, one array
per span field.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--tiny`` shrinks
every input, for the smoke tests.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("cli-session", "finite-decide", "grid-limits")
SETUP_REPEATS = 3
# about the gauge's time on one core of a 2.0 GHz x86-64 host under CPython
# 3.11; it sets the scale of the reported times and nothing else
GAUGE_REF_S = 0.010
UNITS = {"setup_s": "s", "job_s.p50": "s", "job_s.tail": "s", "jobs_per_s": "1/s"}
# a fixed shuffled list for gauge() to copy and sort
_GAUGE_LIST = list(range(20000))
random.Random(0).shuffle(_GAUGE_LIST)


def gauge() -> float:
    """Seconds a fixed pure-Python task takes now: a list sort and an integer loop.

    It calls no relbel code and allocates one list, so only the speed of
    the CPU moves it.
    """
    gc.disable()
    t = time.perf_counter()
    sorted(_GAUGE_LIST)
    acc = 0
    for i in range(80000):
        acc += i * i % 7
    elapsed = time.perf_counter() - t
    gc.enable()
    return elapsed


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two gauge times, at the reference speed."""
    return seconds * 2.0 * GAUGE_REF_S / (before + after)


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, with one BLAS thread.

    The gauge then measures the CPU the jobs run on. It must run before
    numpy is imported, which reads the thread count once.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="shrink every input (smoke tests)")
    return p.parse_args(argv)


def environment() -> dict:
    """Versions and parallelism, so results from different machines are never mixed."""
    import ctypes
    import glob

    import numpy
    import scipy

    blas_threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                blas_threads = int(getattr(handle, symbol)())
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "machine": platform.machine(),
    }


def run_job(wl, entry, tracer=None, job_id: int = 0) -> tuple[float, bool]:
    """Run one job; return its latency and whether it succeeded."""
    t = time.perf_counter()
    try:
        if tracer is None:
            wl.job(entry)
        else:
            with tracer.job_span(job_id):
                wl.job(entry, tracer)
    except Exception:
        print(f"job {job_id} failed:\n{traceback.format_exc()}", file=sys.stderr)
        return time.perf_counter() - t, False
    return time.perf_counter() - t, True


def closed_loop(wl, seconds: float):
    """Run whole rotations of the pool, one job at a time.

    The first rotation's duration sets the number of rotations: as many as
    fit in ``seconds``, and at least two. Whole rotations count every pool
    entry equally in the medians. The pools are sized so that two rotations
    take about the 30 s that BENCHMARK.json sets, which keeps the job count,
    and with it the tail percentile, the same from run to run.

    Returns the wall-clock latencies, the same latencies at the reference
    speed, and the number of failed jobs.
    """
    latencies, scaled, failed = [], [], 0
    rotations, done = 2, 0
    before = gauge()
    while done < rotations:
        began = time.perf_counter()
        for entry in wl.pool:
            latency, ok = run_job(wl, entry, job_id=len(latencies))
            after = gauge()
            latencies.append(latency)
            scaled.append(at_reference_speed(latency, before, after))
            failed += not ok
            before = after
        done += 1
        if done == 1:
            rotations = max(2, int(seconds // (time.perf_counter() - began)))
    return latencies, scaled, failed


def traced_rotation(wl, tracer):
    """Run every pool entry untraced and traced, back to back.

    Pairing the two runs of an entry in time keeps drift in machine speed
    out of the overhead ratio; the order alternates so neither side always
    finds the entry's inputs warm in cache.
    """
    from tracer import install

    plain, traced, failed = [], [], 0
    for i, entry in enumerate(wl.pool):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                undo = install(tracer)
                try:
                    latency, ok = run_job(wl, entry, tracer, job_id=i)
                finally:
                    undo()
                traced.append(latency)
            else:
                latency, ok = run_job(wl, entry, job_id=i)
                plain.append(latency)
            failed += not ok
    return plain, traced, failed


def tail(latencies):
    """Highest percentile with at least ten jobs beyond it: (value, percentile)."""
    xs = sorted(latencies)
    k = len(xs) - 10
    if k < 1:
        return xs[-1], 100.0
    return xs[k - 1], 100.0 * k / len(xs)


def timings(import_s: float, setups, latencies) -> dict:
    """The end-to-end time metrics of one run."""
    return {
        "setup_s": import_s + statistics.median(setups),
        "job_s.p50": statistics.median(latencies),
        "job_s.tail": tail(latencies)[0],
        "jobs_per_s": len(latencies) / math.fsum(latencies),
    }


def run_workload(args) -> int:
    pin_to_one_cpu()
    before = gauge()
    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import relbel  # noqa: F401
    import relbel.cli  # noqa: F401

    import_s = time.perf_counter() - started
    after = gauge()
    import_ref = at_reference_speed(import_s, before, after)
    before = after
    from workloads import WORKLOADS

    env = environment()
    print(f"env {json.dumps(env, sort_keys=True)}")
    wl = WORKLOADS[args.workload](ROOT, args.seed, args.tiny)
    setups, setups_ref = [], []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t)
        after = gauge()
        setups_ref.append(at_reference_speed(setups[-1], before, after))
        before = after

    metrics = {}
    consistent = True
    if args.trace == 0:
        lat, scaled, failed = closed_loop(wl, args.seconds)
        pct = tail(scaled)[1]
        wall = timings(import_s, setups, lat)
        metrics = {name: (value, UNITS[name]) for name, value in timings(import_ref, setups_ref, scaled).items()}
        metrics["peak_rss_mb"] = (wl.peak_rss_mb(), "MB")
        notes = {"job_s.tail": f"p{pct:.1f} of {len(lat)} jobs"}
        attempted = len(lat)
    else:
        import numpy as np

        import sweeps
        from tracer import Tracer, self_times, summarize

        tracer = Tracer()
        plain, traced, failed = traced_rotation(wl, tracer)
        attempted = len(plain) + len(traced)
        metrics.update(summarize(tracer))
        cols = tracer.columns()
        # every span belongs to one job's tree, so all self times sum to the job times
        job_time = metrics["trace.job_s"][0] * len(traced)
        unattributed = abs(float(self_times(cols).sum()) - job_time)
        if unattributed > 1e-6 * job_time:
            print(f"self times miss the job time by {unattributed!r} s", file=sys.stderr)
            consistent = False
        metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain), "ratio")
        metrics.update(sweeps.start_up_probes(ROOT, 1 if args.tiny else 3))
        metrics.update(sweeps.size_sweeps(args.seed, args.tiny))
        out = ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.npz"
        out.parent.mkdir(exist_ok=True)
        np.savez_compressed(out, names=np.array(tracer.names), env=np.array(json.dumps(env)), **cols)
        notes = {"trace.overhead_ratio": f"{len(traced)} traced and {len(plain)} untraced jobs"}

    print(f"workload {args.workload} seed {args.seed}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name} {value:.6g} {unit}{note}")
    print(f"  fail_ratio {failed / attempted:.6g} ratio  ({failed} of {attempted} jobs)")
    if args.trace == 0:
        for name, value in wall.items():
            print(f"  wall.{name} {value:.6g} {UNITS[name]}")
    result = {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run each workload in its own process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        doc = json.loads(lines[-1])
        summary["correct"] &= doc["correct"]
        summary["attempted"] += doc["attempted"]
        summary["failed"] += doc["failed"]
        for metric, value in doc["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "relbel" / "__init__.py").is_file():
        print(f"error: no relbel package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
