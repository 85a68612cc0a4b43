"""Diagnostics of the traced run: start-up probes and per-layer size sweeps.

The probes time a bare interpreter and the import of ``relbel.cli`` in fresh
child processes, the floor under every cli-session job. Each sweep times
one layer function at growing sizes and reports the slope of log time
against log size, the scaling exponent; ``classify.risk_table`` also
reports the exponent of its peak traced allocation. The sweeps run
untraced, after the traced jobs.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from relbel import classify, decision, evidence, grids, model
from workloads import random_model


def _median_wall(cmd, env, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=120)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


_IMPORTTIME = re.compile(r"import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)")


def import_times(stderr: str, package: str, inner: str) -> tuple[float, float]:
    """Seconds to import ``package``, and of that the part under ``inner``.

    ``-X importtime`` prints each module after its imports, indented two
    spaces per level. ``inner`` counts once at its outermost occurrences,
    whatever module pulled it in.
    """
    total = 0.0
    stack = []  # (depth, outermost inner-module times in that subtree)
    for line in stderr.splitlines():
        hit = _IMPORTTIME.match(line)
        if hit is None:
            continue
        us, depth, name = int(hit.group(1)), len(hit.group(2)) // 2, hit.group(3)
        found = []
        while stack and stack[-1][0] > depth:
            found += stack.pop()[1]
        if name == inner or name.startswith(inner + "."):
            found = [us]
        stack.append((depth, found))
        if depth == 0 and name.split(".")[0] == package:
            total += us
    return total / 1e6, sum(us for _, found in stack for us in found) / 1e6


def start_up_probes(root: Path, repeats: int) -> dict:
    """Interpreter floor, and import times read from ``-X importtime``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = {"cli.interp_s": (_median_wall([sys.executable, "-c", "pass"], env, repeats), "s")}
    totals, scipy_stats = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import relbel.cli"],
            env=env, check=True, capture_output=True, text=True, timeout=120,
        )
        total, stats_part = import_times(proc.stderr, "relbel", "scipy.stats")
        totals.append(total)
        scipy_stats.append(stats_part)
    out["cli.import_s"] = (statistics.median(totals), "s")
    out["cli.import.scipy_stats_s"] = (statistics.median(scipy_stats), "s")
    return out


def _exponent(sizes, values) -> float:
    return float(np.polyfit(np.log(sizes), np.log(values), 1)[0])


def _timed(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def size_sweeps(seed: int, tiny: bool) -> dict:
    rng = np.random.default_rng([seed, 4])
    shrink = 8 if tiny else 1
    repeats = 1 if tiny else 3
    out = {}

    sizes = [n // shrink for n in (500, 1000, 2000, 4000)]
    times = []
    for n_x in sizes:
        fm, psi = random_model(rng, 100 // shrink, 20 // shrink, n_x)
        m = model.validate(fm)
        loss = decision.make_loss("rb", model.psi_marginal(m.prior, psi))
        times.append(_timed(lambda: decision.bayes_rule(m, psi, loss), repeats))
    out["decision.bayes_rule.scaling_exp"] = (_exponent(sizes, times), "exponent")

    sizes = [n // shrink for n in (256, 512, 1024, 2048)]
    times = []
    for n in sizes:
        prior, post = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))

        def lpl():
            loss = decision.make_loss("rb-eta", prior, eta=float(np.median(prior)))
            decision.lpl_region(loss, post, 0.9, prior=prior)

        times.append(_timed(lpl, repeats))
    out["decision.lpl_region.scaling_exp"] = (_exponent(sizes, times), "exponent")

    sizes = [2**k // shrink for k in (12, 14, 16, 18)]
    times = []
    for n in sizes:
        t = evidence.rb_table(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n)))

        def regions():
            evidence.credible_region(t, 0.9, "sup-geq")
            evidence.credible_region(t, 0.9, "quantile-gt")

        times.append(_timed(regions, repeats))
    out["evidence.credible_region.scaling_exp"] = (_exponent(sizes, times), "exponent")

    sizes = [2**k // shrink for k in (10, 12, 14, 16)]
    density = grids.family("normal", mu=0.0, sigma2=1.0).pdf
    times = [_timed(lambda: grids.discretize(density, grids.build_grid(-8.0, 8.0, n)), repeats) for n in sizes]
    out["grids.discretize.scaling_exp"] = (_exponent(sizes, times), "exponent")

    sizes = [n // shrink for n in (25_000, 50_000, 100_000, 200_000)]
    times, peaks = [], []
    for reps in sizes:
        run = lambda: classify.risk_table(1.0, [14.0], 1.0, 10, reps, seed)  # noqa: E731
        times.append(_timed(run, repeats))
        tracemalloc.start()
        run()
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    out["classify.risk_table.scaling_exp"] = (_exponent(sizes, times), "exponent")
    out["classify.risk_table.mem_exp"] = (_exponent(sizes, peaks), "exponent")
    return out
