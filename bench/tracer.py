"""In-memory span tracer that wraps the public functions of every relbel layer.

A layer is one module of the package: ``model``, ``grids``, ``evidence``,
``decision``, ``classify``, ``regress`` and ``limits``, plus ``cli``, whose
click command callbacks are wrapped. ``errors`` only defines exceptions.

:func:`install` replaces each public function of a layer with a wrapper,
both in its own module and wherever another relbel module imported the same
function object by name (``limits`` imports ``discretize``, ``credible_region``
and ``make_loss``, for example). Every wrapped call records one span: id,
parent id, name, start, end and job id. Spans stay in memory, in compact
columns because a finite-decide job makes tens of thousands, until the run
writes them out. A few functions also carry a hook that counts the work the
call did (table cells, loss bytes, rules scored, ...), so ratios are
measured where the work happens. Nothing in the package itself changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("cli", "model", "grids", "evidence", "decision", "classify", "regress", "limits")
LIBRARY_LAYERS = LAYERS[1:]

# root span of one job; its self time is benchmark code (and, for the CLI
# workload, process start-up, interpreter and import in the child)
JOB_SPAN = "bench.job"
NO_PARENT = -1


class Tracer:
    """Span store plus work counters for one traced run (or one CLI child)."""

    def __init__(self, job: int = 0, first_id: int = 0):
        self.ids, self.parents, self.jobs = array("q"), array("q"), array("q")
        self.name_ids = array("i")
        self.starts, self.ends = array("d"), array("d")
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.counts: Counter = Counter()
        # (bytes, bytes per value) of the largest loss matrix built
        self.loss_peak = (0, 0.0)
        self.job = job
        self.next_id = first_id
        self.stack: list[int] = []
        # names of counted density callables evaluated since the last
        # discretize call, and the distinct (job, grid, density) keys seen
        self.touched: set = set()
        self.discretized: set = set()

    def name_id(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def record(self, sid: int, parent: int, name_id: int, start: float, end: float, job: int) -> None:
        self.ids.append(sid)
        self.parents.append(parent)
        self.name_ids.append(name_id)
        self.starts.append(start)
        self.ends.append(end)
        self.jobs.append(job)

    def span(self, name: str):
        """Context manager recording one span around a block of code."""
        return _Span(self, self.name_id(name))

    def job_span(self, job: int):
        """The root span of one job; spans inside it carry its job id."""
        self.job = job
        return self.span(JOB_SPAN)

    def wrap(self, name: str, fn, hook=None):
        nid = self.name_id(name)
        stack = self.stack
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.next_id
            self.next_id += 1
            parent = stack[-1] if stack else NO_PARENT
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.record(sid, parent, nid, start, end, self.job)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
            return result

        return wrapper

    def counted(self, name: str, density):
        """Wrap a density callable the benchmark passes in, counting points."""

        def evaluate(points):
            self.counts["grids.density_points"] += getattr(points, "size", 1)
            self.touched.add(name)
            return density(points)

        return evaluate

    def columns(self) -> dict:
        return {
            "id": np.frombuffer(self.ids, dtype=np.int64),
            "parent": np.frombuffer(self.parents, dtype=np.int64),
            "name": np.frombuffer(self.name_ids, dtype=np.int32),
            "start": np.frombuffer(self.starts, dtype=np.float64),
            "end": np.frombuffer(self.ends, dtype=np.float64),
            "job": np.frombuffer(self.jobs, dtype=np.int64),
        }

    def dump(self, path) -> None:
        """Write spans and counters as JSON (used by a traced CLI child)."""
        doc = {
            "names": self.names,
            "spans": [getattr(self, f).tolist() for f in ("ids", "parents", "name_ids", "starts", "ends", "jobs")],
            "counts": dict(self.counts),
            "loss_peak": self.loss_peak,
            "discretized": sorted(map(repr, self.discretized)),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)

    def adopt(self, path) -> None:
        """Take in a CLI child's dump, hanging its root spans under the current span.

        ``time.perf_counter`` reads the system-wide monotonic clock on Linux, so
        the child's spans nest inside the parent's job span on one time axis.
        """
        with open(path) as fh:
            doc = json.load(fh)
        ids, parents, name_ids, starts, ends, jobs = doc["spans"]
        remap = [self.name_id(n) for n in doc["names"]]
        here = self.stack[-1]
        for sid, parent, nid, start, end, job in zip(ids, parents, name_ids, starts, ends, jobs):
            self.record(sid, here if parent == NO_PARENT else parent, remap[nid], start, end, job)
            self.next_id = max(self.next_id, sid + 1)
        self.counts.update(doc["counts"])
        self.loss_peak = max(self.loss_peak, tuple(doc["loss_peak"]))
        self.discretized.update(doc["discretized"])


class _Span:
    def __init__(self, tracer: Tracer, name_id: int):
        self.tracer, self.name_id = tracer, name_id

    def __enter__(self):
        t = self.tracer
        self.sid = t.next_id
        t.next_id += 1
        self.parent = t.stack[-1] if t.stack else NO_PARENT
        t.stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        t.stack.pop()
        t.record(self.sid, self.parent, self.name_id, self.start, end, t.job)
        return False


# --- work counters at layer boundaries -----------------------------------------


def _rb_table(t: Tracer, a: dict, res) -> None:
    t.counts["evidence.tables"] += 1
    t.counts["evidence.table_cells"] += len(res)


def _make_loss(t: Tracer, a: dict, res) -> None:
    nbytes = res.values.nbytes
    t.loss_peak = max(t.loss_peak, (nbytes, nbytes / res.n))


def _brute_force(t: Tracer, a: dict, res) -> None:
    t.counts["decision.rules_scored"] += a["psi"].n_psi ** a["model"].n_x


def _bayes_rule(t: Tracer, a: dict, res) -> None:
    t.counts["decision.rule_outcomes"] += a["model"].n_x


def _discretize(t: Tracer, a: dict, res) -> None:
    grid = a["grid"]
    t.counts["grids.cells"] += grid.n_cells
    density = tuple(sorted(t.touched)) or ("id", id(a["density"]))
    t.discretized.add((t.job, grid.lo, grid.hi, grid.n_cells, density))
    t.touched.clear()


def _risk_table(t: Tracer, a: dict, res) -> None:
    t.counts["classify.replications"] += a["reps"] * len(res)


def _ladder(t: Tracer, a: dict, res) -> None:
    t.counts["limits.ladder_steps"] += len(a["grids"])


def _region_limit(t: Tracer, a: dict, res) -> None:
    _ladder(t, a, res)
    t.counts["limits.reference_cells"] += a["grids"][-1].n_cells * a["refine_factor"]


def _grid_check(t: Tracer, a: dict, res) -> None:
    t.counts["regress.grid_cells"] += a["grid"].n_cells


HOOKS = {
    "evidence.rb_table": _rb_table,
    "decision.make_loss": _make_loss,
    "decision.brute_force_bayes": _brute_force,
    "decision.bayes_rule": _bayes_rule,
    "grids.discretize": _discretize,
    "classify.risk_table": _risk_table,
    "limits.lambda_limit": _ladder,
    "limits.map_limit_contrast": _ladder,
    "limits.sandwich_double_limit": _ladder,
    "limits.region_limit": _region_limit,
    "regress.rb_grid_check": _grid_check,
}


def install(tracer: Tracer):
    """Wrap every layer's public functions; return a function that undoes it."""
    modules = [importlib.import_module("relbel")]
    modules += [importlib.import_module(f"relbel.{layer}") for layer in LAYERS]
    wrappers = {}
    for layer in LIBRARY_LAYERS:
        mod = sys.modules[f"relbel.{layer}"]
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                qual = f"{layer}.{name}"
                wrappers[id(obj)] = (obj, tracer.wrap(qual, obj, HOOKS.get(qual)))
    patched = []
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])
                patched.append((mod, name, obj))

    # cli: time inside each leaf click command
    cli = sys.modules["relbel.cli"]
    commands = []
    pending = [cli.main]
    while pending:
        group = pending.pop()
        for cmd in group.commands.values():
            if hasattr(cmd, "commands"):
                pending.append(cmd)
            else:
                commands.append((cmd, cmd.callback))
                cmd.callback = tracer.wrap(f"cli.{cmd.name}", cmd.callback)

    def undo():
        for mod, name, obj in patched:
            setattr(mod, name, obj)
        for cmd, callback in commands:
            cmd.callback = callback

    return undo


# --- span analysis ---------------------------------------------------------------


def self_times(cols: dict) -> np.ndarray:
    """Self time per span: its duration minus its children's durations.

    Children of one span run one after another on one thread, so the self
    times of a job's span tree sum to the job span's duration.
    """
    dur = cols["end"] - cols["start"]
    order = np.argsort(cols["id"])
    nested = cols["parent"] != NO_PARENT
    parent_pos = order[np.searchsorted(cols["id"][order], cols["parent"][nested])]
    return dur - np.bincount(parent_pos, weights=dur[nested], minlength=len(dur))


def summarize(tracer: Tracer) -> dict:
    """Per-layer metrics, as per-job means over the traced jobs."""
    cols = tracer.columns()
    names = np.array(tracer.names)
    span_names = names[cols["name"]] if len(cols["name"]) else np.array([], dtype=str)
    layers = np.array([n.split(".", 1)[0] for n in tracer.names])[cols["name"]]
    dur = cols["end"] - cols["start"]
    selfs = self_times(cols)
    is_job = span_names == JOB_SPAN
    n_jobs = max(int(is_job.sum()), 1)
    counts = tracer.counts

    def per_job(v):
        return float(v) / n_jobs

    def inclusive(name):
        return float(dur[span_names == name].sum())

    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (per_job(np.count_nonzero(layers == layer)), "count")
    for layer in LIBRARY_LAYERS:
        m[f"{layer}.self_s"] = (per_job(selfs[layers == layer].sum()), "s")
    m["bench.self_s"] = (per_job(selfs[layers == "bench"].sum()), "s")
    m["trace.job_s"] = (per_job(dur[is_job].sum()), "s")

    m["cli.command_s"] = (per_job(dur[layers == "cli"].sum()), "s")
    m["cli.output_bytes"] = (per_job(counts["cli.output_bytes"]), "bytes")

    reps = counts["classify.replications"]
    m["classify.replications"] = (per_job(reps), "count")
    rt = inclusive("classify.risk_table")
    m["classify.reps_per_s"] = (reps / rt if rt > 0 else 0.0, "1/s")

    m["model.validate_s"] = (per_job(inclusive("model.validate")), "s")
    outcomes = counts["decision.rule_outcomes"]
    posteriors = np.count_nonzero(span_names == "model.posterior")
    m["model.posterior_calls_per_outcome"] = (posteriors / outcomes if outcomes else 0.0, "ratio")

    m["decision.bayes_rule_s"] = (per_job(inclusive("decision.bayes_rule")), "s")
    m["decision.prior_risk_s"] = (per_job(inclusive("decision.prior_risk")), "s")
    m["decision.lpl_region_s"] = (per_job(inclusive("decision.lpl_region")), "s")
    nbytes, per_value = tracer.loss_peak
    m["decision.loss_bytes_peak"] = (float(nbytes), "bytes")
    m["decision.loss_bytes_per_value"] = (float(per_value), "bytes")
    m["decision.rules_scored"] = (per_job(counts["decision.rules_scored"]), "count")

    m["evidence.tables"] = (per_job(counts["evidence.tables"]), "count")
    m["evidence.table_cells"] = (per_job(counts["evidence.table_cells"]), "count")
    m["evidence.credible_region_s"] = (per_job(inclusive("evidence.credible_region")), "s")

    points, cells = counts["grids.density_points"], counts["grids.cells"]
    m["grids.density_points"] = (per_job(points), "count")
    m["grids.density_evals_per_cell"] = (points / cells if cells else 0.0, "ratio")
    n_disc = np.count_nonzero(span_names == "grids.discretize")
    distinct = len(tracer.discretized)
    m["grids.repeat_ratio"] = (n_disc / distinct if distinct else 0.0, "ratio")

    m["limits.ladder_steps"] = (per_job(counts["limits.ladder_steps"]), "count")
    m["limits.reference_cells"] = (per_job(counts["limits.reference_cells"]), "count")
    m["regress.grid_cells"] = (per_job(counts["regress.grid_cells"]), "count")
    return m
