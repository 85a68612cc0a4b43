"""The benchmark's three workloads: inputs made from the seed, jobs and checks.

Every workload is a closed loop with one client: the runner sends the next
job only after the previous one has finished, because relbel users wait for
each answer. Inputs come from ``--seed`` alone and are made at set-up as a
pool of jobs; the pool is one rotation and the runner repeats whole
rotations. Sizes are spread evenly across the pool, so every seed draws the
same spread of sizes with different values, and medians compare across
seeds. A job that raises, exits non-zero or fails a check counts as failed.

Expected metric movements, for later performance work to cite:

* ``cli.interp_s``, ``cli.import_s`` and ``cli.import.scipy_stats_s`` move
  ``job_s.p50`` and ``jobs_per_s`` on cli-session and ``setup_s`` everywhere,
  and should not move ``job_s`` in-process.
* ``cli.command_s`` and ``cli.output_bytes`` move ``job_s.tail`` on
  cli-session.
* ``classify.self_s``, ``classify.replications`` and ``classify.reps_per_s``
  move ``job_s.tail`` and ``peak_rss_mb`` on cli-session.
* ``model.self_s``, ``model.validate_s``, ``model.posterior_calls_per_outcome``
  (2+ today: ``bayes_rule`` and ``unbiasedness_gap`` each recompute every
  posterior), ``decision.bayes_rule_s`` and ``decision.prior_risk_s`` move
  ``job_s.p50`` and ``jobs_per_s`` on finite-decide, and nothing on
  grid-limits.
* ``decision.lpl_region_s``, ``decision.loss_bytes_peak`` and
  ``decision.loss_bytes_per_value`` (8 n today, the loss is dense) move
  ``peak_rss_mb`` and ``job_s.p50`` on grid-limits, and nothing on
  finite-decide.
* ``decision.rules_scored`` is the oracle's work; it must not shrink
  silently.
* ``evidence.self_s``, ``evidence.tables``, ``evidence.table_cells`` and
  ``evidence.credible_region_s`` move ``job_s.p50`` on both in-process
  workloads: per-call cost on finite-decide, per-cell cost on grid-limits.
* ``grids.*``, ``limits.*`` and ``regress.*`` move ``job_s.p50`` on
  grid-limits.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
from scipy import stats

from relbel import decision, evidence, grids, limits, model, regress
from relbel.model import FiniteModel, PsiMap

BENCH_DIR = Path(__file__).resolve().parent


class CheckFailed(Exception):
    """A job's output broke a property that holds on correct code."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def check_table(t: evidence.EvidenceTable) -> None:
    total = math.fsum((t.prior * t.rb).tolist())
    check(abs(total - 1.0) <= 1e-9, f"sum of prior * rb is {total!r}, not 1")


# coprime to the pool sizes used below, so each dimension visits every slice
LATTICE_STEPS = (1, 7, 13)


def lattice(rng, n: int, ranges) -> list[tuple[int, ...]]:
    """``n`` size tuples, one per equal slice of each range, slices paired on a lattice.

    Dimension ``d`` takes slice ``(k * LATTICE_STEPS[d]) % n`` in entry
    ``k``, at a seeded point inside the slice. Every seed gets the same
    spread and pairing of sizes with different values, so pool medians
    compare across seeds.
    """
    return [
        tuple(
            int(lo + (hi - lo) * ((k * step) % n + rng.random()) / n)
            for (lo, hi), step in zip(ranges, LATTICE_STEPS)
        )
        for k in range(n)
    ]


def random_model(rng, n_theta: int, n_psi: int, n_x: int, out=None) -> tuple[FiniteModel, PsiMap]:
    """Unvalidated model with strictly positive Dirichlet rows and a surjective psi.

    The likelihood is written into ``out`` when given, an
    ``(n_theta, n_x)`` array.
    """
    prior = rng.dirichlet(np.full(n_theta, 2.0))
    # normalized gamma draws are Dirichlet(1.5) rows
    likelihood = np.empty((n_theta, n_x)) if out is None else out
    rng.standard_gamma(1.5, out=likelihood)
    likelihood /= likelihood.sum(axis=1, keepdims=True)
    assignment = np.concatenate([np.arange(n_psi), rng.integers(0, n_psi, size=n_theta - n_psi)])
    rng.shuffle(assignment)
    fm = FiniteModel(
        theta_labels=tuple(f"t{i}" for i in range(n_theta)),
        x_labels=tuple(f"x{i}" for i in range(n_x)),
        likelihood=likelihood,
        prior=prior,
    )
    return fm, PsiMap(tuple(int(j) for j in assignment), tuple(f"p{j}" for j in range(n_psi)))


def capped_weights(kind: str, prior: np.ndarray, eta: float) -> np.ndarray:
    """Error weights h of a two-valued loss, for the unbiasedness gap."""
    if kind == "map":
        return np.ones(len(prior))
    if kind == "rb":
        return 1.0 / prior
    return 1.0 / np.maximum(eta, prior)


# --- finite-decide ---------------------------------------------------------------
#
# Why: one complete analysis of a finite model, the decision half of the
# paper. It isolates the per-outcome Python loops of ``model`` and
# ``decision`` and many tiny evidence tables, where per-call overhead
# dominates. It has no grids and no ladders; the three losses share every
# posterior, which the code recomputes today.


class FiniteDecide:
    name = "finite-decide"

    def __init__(self, root: Path, seed: int, tiny: bool):
        self.seed, self.tiny = seed, tiny

    def setup(self) -> None:
        self.pool = None  # one pool alive at a time
        rng = np.random.default_rng([self.seed, 1])
        if self.tiny:
            sizes = lattice(rng, 4, ((10, 20), (3, 6), (40, 80)))
        else:
            sizes = lattice(rng, 20, ((100, 301), (10, 61), (1000, 4001)))
        # all pool likelihoods in one block, so the pool's memory does not
        # depend on how the allocator placed twenty separate arrays
        block = np.empty(sum(t * x for t, _, x in sizes))
        self.pool, at = [], 0
        for n_theta, n_psi, n_x in sizes:
            view = block[at : at + n_theta * n_x].reshape(n_theta, n_x)
            self.pool.append(self._entry(rng, n_theta, n_psi, n_x, view))
            at += n_theta * n_x
        self.job(self._entry(rng, 12, 4, 30))

    def _entry(self, rng, n_theta: int, n_psi: int, n_x: int, out=None) -> dict:
        fm, psi = random_model(rng, n_theta, n_psi, n_x, out)
        n_small_psi = int(rng.integers(2, 4))
        # at most 3^11 rules for the oracle
        n_small_x = int(rng.integers(9, 12)) if n_small_psi == 3 else int(rng.integers(14, 18))
        if self.tiny:
            n_small_x = 5
        small = random_model(rng, int(rng.integers(n_small_psi, 7)), n_small_psi, n_small_x)
        n_samples = 8 if self.tiny else 32
        return {
            "model": fm,
            "psi": psi,
            "eta_share": float(rng.uniform(0.2, 0.8)),
            "outcomes": rng.integers(0, n_x, n_samples).tolist(),
            "gammas": rng.uniform(0.5, 0.99, n_samples).tolist(),
            "psi0": rng.integers(0, n_psi, n_samples).tolist(),
            "small": small,
        }

    def job(self, e: dict, tracer=None) -> None:
        m = model.validate(e["model"])
        psi = e["psi"]
        pi = model.psi_marginal(m.prior, psi)
        eta = e["eta_share"] * float(pi.max())
        rules = {}
        for kind in ("map", "rb", "rb-eta"):
            loss = decision.make_loss(kind, pi, eta=eta if kind == "rb-eta" else None)
            rule, _ = decision.bayes_rule(m, psi, loss)
            decision.prior_risk(m, psi, loss, rule)
            gap = decision.unbiasedness_gap(m, psi, capped_weights(kind, pi, eta), rule)
            if kind == "rb":
                # the evidence rule picks rb >= 1 at every outcome
                check(gap >= -1e-12, f"rb unbiasedness gap {gap!r} < 0")
            rules[kind] = rule

        for x, gamma, psi0 in zip(e["outcomes"], e["gammas"], e["psi0"]):
            post = model.psi_marginal(model.posterior(m, x).posterior, psi)
            t = evidence.rb_table(pi, post, labels=psi.psi_labels)
            check_table(t)
            est = evidence.rb_estimate(t)
            check(rules["rb"].action_per_x[x] == est.index, f"rb action at x={x} is not the rb estimate")
            evidence.plausible_region(t)
            evidence.credible_region(t, gamma, "sup-geq")
            evidence.credible_region(t, gamma, "quantile-gt")
            evidence.assess_hypothesis(t, psi0)

        trace = limits.eta_limit(m, x=e["outcomes"][0], psi=psi)
        threshold = float(pi[trace.target])
        for level, action in zip(trace.parameter_values, trace.actions_or_regions):
            check(level > threshold or action == trace.target, "capped-loss action misses the rb estimate")

        sm, spsi = e["small"]
        sm = model.validate(sm)
        loss = decision.make_loss("rb", model.psi_marginal(sm.prior, spsi))
        _, report = decision.bayes_rule(sm, spsi, loss)
        _, best_risk = decision.brute_force_bayes(sm, spsi, loss)
        check(abs(best_risk - report.prior_risk) <= 1e-12, "oracle risk differs from the Bayes rule risk")

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- grid-limits -----------------------------------------------------------------
#
# Why: the limit laboratory, the paper's second half. It isolates few large
# arrays: quadrature in ``grids``, big sorts in ``evidence`` and dense n^2
# losses in ``decision`` (32-134 MB at the top of a 256- or 512-cell base
# ladder). The four experiments rebuild the same ladder. The per-outcome
# loops of finite-decide are absent.

CASES = ("normal", "beta", "lognormal")


class GridLimits:
    name = "grid-limits"

    def __init__(self, root: Path, seed: int, tiny: bool):
        self.seed, self.tiny = seed, tiny

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        n = 6 if self.tiny else 12
        scale = 8 if self.tiny else 1
        # mostly 256-cell bases, with each case once on a 512-cell base: the
        # median and tail jobs then fall among many jobs of similar cost
        self.pool = [
            self._entry(rng, CASES[i % 3], (512 if i % 4 == 3 else 256) // scale, scale) for i in range(n)
        ]
        self.job(self._entry(rng, "normal", 16, 16))

    def _entry(self, rng, case: str, base: int, scale: int) -> dict:
        u = rng.uniform
        if case == "normal":
            mu, s2 = u(-0.5, 0.5), u(0.7, 1.5)
            fam = grids.family("normal", mu=mu, sigma2=s2)
            lik = limits.gaussian_location_likelihood(mu + u(1.0, 2.5) * math.sqrt(s2), u(0.5, 1.5))
            lo, hi = mu - 7 * math.sqrt(s2), mu + 7 * math.sqrt(s2)
        elif case == "beta":
            # the grid is wider than [0, 1], so zero-prior cells get dropped
            fam = grids.family("beta", alpha=u(2.0, 4.0), beta=u(2.0, 4.0))
            lik = limits.gaussian_location_likelihood(u(0.3, 0.7), u(0.01, 0.05))
            lo, hi = -0.25, 1.25
        else:
            mu, s2 = u(-0.3, 0.3), u(0.2, 0.5)
            fam = grids.family("lognormal", mu=mu, sigma2=s2)
            lik = limits.gaussian_log_location_likelihood(mu + u(0.3, 0.8), u(0.3, 0.8))
            lo, hi = 0.0, math.exp(mu + 7 * math.sqrt(s2))

        # normal prior and normal observation, and their exp images
        m0, s0, s_obs = u(-0.5, 0.5), u(0.7, 1.3), u(0.5, 1.0)
        x_obs = m0 + u(0.5, 1.5)
        w = 1.0 / s0**2 + 1.0 / s_obs**2
        m1, s1 = (m0 / s0**2 + x_obs / s_obs**2) / w, math.sqrt(1.0 / w)
        invariance = (
            stats.norm(m0, s0).cdf,
            stats.norm(m1, s1).cdf,
            stats.lognorm(s=s0, scale=math.exp(m0)).cdf,
            stats.lognorm(s=s1, scale=math.exp(m1)).cdf,
            np.exp,
            grids.build_grid(m0 - 4 * s0, m0 + 4 * s0, 2048 // scale),
        )

        n_obs, k = int(rng.integers(30, 81)), int(rng.integers(2, 6))
        X = rng.normal(size=(n_obs, k))
        spec = regress.RegressionSpec(X, X @ rng.normal(size=k) + rng.normal(size=n_obs), u(0.5, 2.0), u(1.0, 5.0))
        return {
            "density": fam.pdf,
            "likelihood": lik,
            "base": grids.build_grid(lo, hi, base),
            "gamma": u(0.8, 0.97),
            "invariance": invariance,
            "table": (u(0.5, 2.0), u(-1.0, 1.0), u(0.05, 0.5), 2**18 // scale**2),
            "psi0_share": u(0.0, 1.0),
            "regression": (spec, rng.normal(size=k), 2**16 // scale),
        }

    def job(self, e: dict, tracer=None) -> None:
        pdf, lik = e["density"], e["likelihood"]
        if tracer is not None:
            pdf, lik = tracer.counted("prior", pdf), tracer.counted("likelihood", lik)
        ladder = limits.grid_ladder(e["base"], 4)
        limits.region_limit(pdf, lik, e["gamma"], ladder, refine_factor=16)
        limits.lambda_limit(pdf, lik, ladder)
        limits.map_limit_contrast(pdf, lik, ladder)
        limits.sandwich_double_limit(pdf, lik, e["gamma"], ladder, eta_steps=8)

        inv = limits.invariance_demo(*e["invariance"])
        check(inv.rb_index == inv.rb_index_image, "evidence argmax cell moved under the transform")

        s2_prior, mu_post, s2_post, n_cells = e["table"]
        sd = math.sqrt(s2_prior)
        g = grids.build_grid(-8.0 * sd, 8.0 * sd, n_cells)
        t = evidence.table_from_gridded(
            grids.normal_masses(0.0, s2_prior, g), grids.normal_masses(mu_post, s2_post, g)
        )
        check_table(t)
        evidence.credible_region(t, e["gamma"], "sup-geq")
        evidence.credible_region(t, e["gamma"], "quantile-gt")
        evidence.strength(t, int(e["psi0_share"] * (len(t) - 1)))

        spec, w, cells = e["regression"]
        rep = regress.functional_inference(spec, w)
        sd = math.sqrt(rep.sigma2_psi)
        # raises GridTooCoarseError when the grid argmax misses the closed form
        regress.rb_grid_check(spec, w, grids.build_grid(-8.0 * sd, 8.0 * sd, cells))

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- cli-session -------------------------------------------------------------------
#
# Why: what a CLI user waits for. Each job is one ``python -m relbel.cli``
# process running one README command on seeded input files. Interpreter
# start and import are most of every job and the library layers do almost
# nothing, except ``classify table1``, which carries all of ``classify``.
# No job shares work with another.


class CliSession:
    name = "cli-session"

    def __init__(self, root: Path, seed: int, tiny: bool):
        self.seed, self.tiny = seed, tiny
        (root / ".bench_out").mkdir(exist_ok=True)
        # removed when the workload is collected or the interpreter exits
        self._tmp = tempfile.TemporaryDirectory(prefix="cli-", dir=root / ".bench_out")
        self.workdir = Path(self._tmp.name)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def setup(self) -> None:
        from click.testing import CliRunner
        from relbel.cli import main

        rng = np.random.default_rng([self.seed, 3])
        runner = CliRunner()
        self.pool = []
        for argv in self._commands(rng):
            res = runner.invoke(main, argv)
            if res.exit_code != 0:
                raise RuntimeError(f"reference run of {argv} exited {res.exit_code}: {res.output}")
            self.pool.append((argv, res.stdout_bytes))

    def _write(self, name: str, doc) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(doc))
        return str(path)

    def _commands(self, rng) -> list[list[str]]:
        u = rng.uniform
        tiny = self.tiny
        n_theta = int(rng.integers(5, 10) if tiny else rng.integers(20, 61))
        n_psi = int(rng.integers(2, 4) if tiny else rng.integers(4, 13))
        n_x = int(rng.integers(10, 20) if tiny else rng.integers(50, 201))
        fm, psi = random_model(rng, n_theta, n_psi, n_x)
        doc = model.model_to_json(fm, psi)
        mpath = self._write("model.json", doc)
        pi = np.bincount(np.asarray(psi.assignment), weights=fm.prior, minlength=n_psi)
        x = str(int(rng.integers(0, n_x)))
        gamma, psi0 = repr(u(0.5, 0.99)), str(int(rng.integers(0, n_psi)))

        n_train = int(rng.integers(5, 31))
        k_train = int(rng.integers(0, n_train + 1))

        n_obs, k = int(rng.integers(30, 81)), int(rng.integers(2, 6))
        X = rng.normal(size=(n_obs, k))
        y = X @ rng.normal(size=k) + rng.normal(size=n_obs)
        paths = {}
        for name, arr in (("design", X), ("response", y[:, None]), ("w", rng.normal(size=(k, 1)))):
            paths[name] = str(self.workdir / f"{name}.csv")
            np.savetxt(paths[name], arr, delimiter=",", fmt="%.17g")

        eta_cfg = self._write("eta.json", {"model": doc, "x": int(x), "eta_steps": 8})
        mu, s2 = u(-0.5, 0.5), u(0.7, 1.5)
        sd = math.sqrt(s2)
        region_cfg = self._write("region.json", {
            "experiment": "region",
            "prior": {"family": "normal", "mu": mu, "sigma2": s2},
            "likelihood": {"kind": "normal-location", "x": mu + u(1.0, 2.5) * sd, "sigma2": u(0.5, 1.5)},
            "grid": {"lo": mu - 7 * sd, "hi": mu + 7 * sd, "n_cells": 32 if tiny else 512},
            "steps": 4,
            "gamma": u(0.8, 0.97),
            "refine_factor": 16,
        })
        return [
            ["model", "--model", mpath, "--x", x],
            ["evidence", "--model", mpath, "--x", x, "--gamma", gamma, "--convention", "sup-geq", "--psi0", psi0],
            ["evidence", "--model", mpath, "--x", x, "--gamma", gamma, "--convention", "quantile-gt", "--psi0", psi0],
            ["decide", "--model", mpath, "--loss", "rb"],
            ["decide", "--model", mpath, "--loss", "map"],
            ["decide", "--model", mpath, "--loss", "rb-eta", "--eta", repr(u(0.2, 0.8) * float(pi.max()))],
            ["classify", "known", "--psi0", repr(u(0.01, 0.3)), "--psi1", repr(u(0.5, 0.95)),
             "--epsilon", repr(u(0.005, 0.2))],
            ["classify", "predict", "--alpha", repr(u(0.5, 3.0)), "--beta", repr(u(1.0, 100.0)),
             "--n", str(n_train), "--c-bar", repr(k_train / n_train),
             "--f0", repr(u(0.01, 1.0)), "--f1", repr(u(0.01, 1.0))],
            # the paper's Table 1 settings
            ["classify", "table1", "--alpha", "1", "--betas", "1,14,32,100", "--mu", "1", "--n", "10",
             "--reps", "2000" if tiny else "200000", "--seed", str(int(rng.integers(0, 2**31))),
             "--precision", "full"],
            ["regress", "--design", paths["design"], "--response", paths["response"],
             "--sigma2", repr(u(0.5, 2.0)), "--tau2", repr(u(1.0, 5.0)), "--w", paths["w"],
             "--grid-check", "4096" if tiny else "65536"],
            ["limits", "eta", "--config", eta_cfg, "--precision", "full"],
            ["limits", "region", "--config", region_cfg, "--precision", "full"],
        ]

    def job(self, entry, tracer=None) -> None:
        argv, expected = entry
        if tracer is None:
            cmd = [sys.executable, "-m", "relbel.cli", *argv]
        else:
            spans_path = self.workdir / f"spans-{tracer.job}.json"
            cmd = [sys.executable, str(BENCH_DIR / "cli_bootstrap.py"), str(spans_path),
                   str(tracer.job), str(tracer.next_id), *argv]
        proc = subprocess.run(cmd, env=self.env, capture_output=True, timeout=150)
        check(proc.returncode == 0, f"{argv[0]} exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
        check(proc.stdout == expected, f"{' '.join(argv[:2])} output differs from the in-process run")
        if tracer is not None:
            tracer.counts["cli.output_bytes"] += len(proc.stdout)
            tracer.adopt(spans_path)
            spans_path.unlink()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (CliSession, FiniteDecide, GridLimits)}
