"""Write the golden-output corpus: input files, ``cases.json`` and one expected stdout per case.

Run from the repository root with the library on the path::

    PYTHONPATH=src python tests/data/golden/make_corpus.py

Every case is one CLI invocation whose file arguments are relative to this
directory. Its stdout is written to ``out/<name>.txt``; its exit code and
stderr go into ``cases.json``. ``tests/test_golden.py`` replays the cases
and compares bytes, so run this script only together with a deliberate
output change (the rule is stated in that test's docstring).

The inputs are built from integer weights over a power of ten, so each
mass is a short decimal and every row sums to 1 within a few ulps. The
``evidence`` gammas are each table's plausible-region content and its two
float neighbours, where the two credible-region conventions part. Each
model also runs ``model`` (with and without ``--x``) and ``decide`` under
all three losses; ``classify known|predict|table1`` run at the README
settings (``table1`` at 2,000 replications), ``regress`` on an eight-row
design with and without ``--grid-check``, and ``limits`` runs every
experiment on gridded configs, ``eta`` and ``sandwich`` also on tables.
Inputs that once ran with a field ignored (an empty design file, ``--eta``
under another loss, zero ladder steps, a misspelt prior or likelihood
parameter or top-level key) pin their one ``error:`` line, and so does an eta ladder halved
past the float range; a grid that cuts off prior tail mass pins its
``warning:`` lines, and with a likelihood past the float range pins its
warning before its ``error:`` line. One ``evidence`` gamma sits where a level's float prefix
sum and its exact total differ by an ulp. A sandwich table whose next region
adds mass below half an ulp, and a ``classify known`` run whose two class
likelihoods tie, pin how each reads the tie. Three runs at gamma 1, an
``evidence`` table, a ``limits region`` grid and a ``limits sandwich`` table
whose content rounds below 1, each have values whose posterior mass rounds
away in the total. A model document with masses given
as strings and a bool, one with a misspelt psi block, and a grid ladder whose
best evidence cell's ratio overflows pin how each is read. A uniform prior
narrower than its grid runs ``limits region`` and ``limits lambda``, and so
does one whose node values total past the float range; the first also runs
``limits map`` and ``limits sandwich``, and under a likelihood flat to the
float's precision ``limits lambda`` and ``limits map``. Two ``evidence``
runs name a psi0 without prior mass and one out of range, and a
``classify predict`` run has ratios past the float range. Gridded inputs past the
float range (a lognormal ``exp(mu)`` that overflows or is 0, a grid width or
last edge offset that overflows, node values that overflow) pin their one
``error:`` line.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from relbel.cli import main as relbel_main
from relbel.evidence import plausible_region, table_from_model
from relbel.model import model_from_json

HERE = Path(__file__).resolve().parent


def _unit_decimals(weights, digits: int = 6) -> list[float]:
    """Weights as multiples of 10**-digits summing to exactly 10**digits of them."""
    w = np.asarray(weights, dtype=float)
    scale = 10**digits
    k = np.floor(w / w.sum() * scale).astype(np.int64)
    k[np.argsort(-(w / w.sum() * scale - k), kind="stable")[: scale - int(k.sum())]] += 1
    return [int(v) / scale for v in k]


def _models() -> dict[str, tuple[dict, int, int, float]]:
    """Model documents with the outcome index, psi0 and rb-eta cap each is run at."""
    rng = np.random.default_rng(12)
    large = {
        "theta": [f"t{i}" for i in range(40)],
        "x": [f"x{j}" for j in range(300)],
        "likelihood": [_unit_decimals(rng.integers(1, 1000, size=300)) for _ in range(40)],
        "prior": _unit_decimals(rng.integers(1, 1000, size=40)),
    }
    return {
        # theta t1 has no prior mass and drops out of the table
        "zero_prior": (
            {
                "theta": ["t0", "t1", "t2", "t3", "t4"],
                "x": ["x0", "x1", "x2"],
                "likelihood": [
                    [0.2, 0.5, 0.3],
                    [0.6, 0.2, 0.2],
                    [0.1, 0.1, 0.8],
                    [0.45, 0.35, 0.2],
                    [0.3, 0.3, 0.4],
                ],
                "prior": [0.3, 0.0, 0.25, 0.25, 0.2],
            },
            2,
            3,
            0.26,
        ),
        "psi_map": (
            {
                "theta": ["a0", "a1", "b0", "b1", "c0", "c1"],
                "x": ["lo", "mid", "hi"],
                "likelihood": [
                    [0.7, 0.2, 0.1],
                    [0.5, 0.3, 0.2],
                    [0.2, 0.6, 0.2],
                    [0.3, 0.4, 0.3],
                    [0.1, 0.3, 0.6],
                    [0.05, 0.15, 0.8],
                ],
                "prior": [0.1, 0.2, 0.25, 0.15, 0.2, 0.1],
                "psi": {"labels": ["a", "b", "c"], "assignment": [0, 0, 1, 1, 2, 2]},
            },
            1,
            0,
            0.35,
        ),
        # two pairs of equal likelihood rows under a uniform prior tie their ratios
        "tied": (
            {
                "theta": ["t0", "t1", "t2", "t3", "t4"],
                "x": ["x0", "x1"],
                "likelihood": [[0.6, 0.4], [0.6, 0.4], [0.3, 0.7], [0.3, 0.7], [0.1, 0.9]],
                "prior": [0.2, 0.2, 0.2, 0.2, 0.2],
            },
            0,
            2,
            0.3,
        ),
        "large": (large, 137, 5, 0.025),
    }


def _cases() -> list[dict]:
    cases = []
    for name, (doc, x, psi0, eta) in _models().items():
        path = f"{name}.json"
        (HERE / path).write_text(json.dumps(doc) + "\n")
        cases.append({"name": f"model-{name}", "args": ["model", "--model", path]})
        cases.append({"name": f"model-{name}-x", "args": ["model", "--model", path, "--x", str(x)]})
        for loss in ("rb", "map"):
            cases.append({"name": f"decide-{name}-{loss}",
                          "args": ["decide", "--model", path, "--loss", loss]})
        cases.append({"name": f"decide-{name}-rb-eta",
                      "args": ["decide", "--model", path, "--loss", "rb-eta", "--eta", repr(eta)]})
        model, psi = model_from_json(doc)
        content = plausible_region(table_from_model(model, x, psi)).posterior_content
        gammas = {
            "below": math.nextafter(content, -math.inf),
            "at": content,
            "above": math.nextafter(content, math.inf),
        }
        for where, gamma in gammas.items():
            for convention in ("sup-geq", "quantile-gt"):
                cases.append({
                    "name": f"evidence-{name}-{convention}-{where}",
                    "args": ["evidence", "--model", path, "--x", str(x), "--gamma", repr(gamma),
                             "--convention", convention, "--psi0", str(psi0)],
                })
    # theta t1 of zero_prior has no prior mass, and 5 names no theta value at all
    for psi0 in (1, 5):
        cases.append({
            "name": f"evidence-zero_prior-psi0-{psi0}",
            "args": ["evidence", "--model", "zero_prior.json", "--x", "2", "--psi0", str(psi0)],
        })
    cases.append({
        "name": "evidence-tied-gamma-above-one",
        "args": ["evidence", "--model", "tied.json", "--x", "0", "--gamma", "1.5"],
    })
    # the float prefix sum of t0..t3 at x0 reads this gamma; their exact total is one ulp below
    cases.append({
        "name": "evidence-tied-gamma-prefix-sum",
        "args": ["evidence", "--model", "tied.json", "--x", "0", "--gamma", "0.9473684210526316"],
    })
    # at x0 value b's posterior mass 2e-20 rounds away: a's level alone has exact content 1
    rounds_to_one = {
        "theta": ["a", "b"],
        "x": ["x0", "x1"],
        "likelihood": [[0.5, 0.5], [1e-20, 1.0]],
        "prior": [0.5, 0.5],
    }
    (HERE / "rounds_to_one.json").write_text(json.dumps(rounds_to_one) + "\n")
    for convention in ("sup-geq", "quantile-gt"):
        cases.append({
            "name": f"evidence-rounds_to_one-{convention}-gamma-one",
            "args": ["evidence", "--model", "rounds_to_one.json", "--x", "0", "--gamma", "1",
                     "--convention", convention],
        })
    # a Latin-1 outcome label: the file is not UTF-8, so it is not JSON text
    latin1 = {**_models()["tied"][0], "x": ["x\xe9", "x1"]}
    (HERE / "latin1.json").write_bytes(json.dumps(latin1, ensure_ascii=False).encode("latin-1") + b"\n")
    cases.append({
        "name": "evidence-latin1",
        "args": ["evidence", "--model", "latin1.json", "--x", "0"],
    })

    # a subnormal prior mass, or eta, as a denominator: every ratio over it stays finite
    subnormal = {
        "theta": ["t0", "t1", "t2"],
        "x": ["x0", "x1"],
        "likelihood": [[0.5, 0.5], [0.2, 0.8], [0.0, 1.0]],
        "prior": [0.5, 0.5, 5e-324],
    }
    (HERE / "subnormal_prior.json").write_text(json.dumps(subnormal) + "\n")
    cases.append({
        "name": "decide-subnormal_prior-rb",
        "args": ["decide", "--model", "subnormal_prior.json", "--loss", "rb"],
    })
    cases.append({
        "name": "decide-zero_prior-rb-eta-subnormal",
        "args": ["decide", "--model", "zero_prior.json", "--loss", "rb-eta", "--eta", "5e-324"],
    })
    # the posterior mass of t1 at x1 over its subnormal prior mass overflows: exit 3
    overflow = {
        "theta": ["t0", "t1"],
        "x": ["x0", "x1"],
        "likelihood": [[1.0, 1e-310], [0.0, 1.0]],
        "prior": [1.0, 5e-324],
    }
    (HERE / "ratio_overflow.json").write_text(json.dumps(overflow) + "\n")
    cases.append({
        "name": "evidence-ratio_overflow",
        "args": ["evidence", "--model", "ratio_overflow.json", "--x", "1"],
    })
    cases.append({
        "name": "decide-ratio_overflow-rb",
        "args": ["decide", "--model", "ratio_overflow.json", "--loss", "rb"],
    })
    # four values share the ratio 4/3 at x0, in exact arithmetic: a tie that rounding may split
    ratio_ties = {
        "theta": ["t0", "t1", "t2", "t3", "t4", "t5"],
        "x": ["x0", "x1"],
        "likelihood": [[0.5, 0.5], [0.25, 0.75], [0.5, 0.5], [0.5, 0.5], [0.5, 0.5], [0.0, 1.0]],
        "prior": [w / 18 for w in (1, 5, 4, 5, 1, 2)],
    }
    (HERE / "ratio_ties.json").write_text(json.dumps(ratio_ties) + "\n")
    cases.append({
        "name": "evidence-ratio_ties",
        "args": ["evidence", "--model", "ratio_ties.json", "--x", "0"],
    })
    cases.append({
        "name": "decide-ratio_ties-rb",
        "args": ["decide", "--model", "ratio_ties.json", "--loss", "rb"],
    })
    cases.append({
        "name": "decide-ratio_ties-rb-eta",
        "args": ["decide", "--model", "ratio_ties.json", "--loss", "rb-eta",
                 "--eta", repr(2.5 / 18)],
    })
    (HERE / "eta_ratio_ties.json").write_text(
        json.dumps({"model": ratio_ties, "x": 0, "eta_steps": 8}, indent=2) + "\n"
    )
    cases.append({
        "name": "limits-eta-ratio_ties",
        "args": ["limits", "eta", "--config", "eta_ratio_ties.json", "--precision", "full"],
    })
    # psi value B carries no prior mass: model prints its conditional row as null
    empty_fibre = {
        "theta": ["a", "b", "c"],
        "x": ["x0", "x1"],
        "likelihood": [[0.5, 0.5], [0.2, 0.8], [0.9, 0.1]],
        "prior": [0.5, 0.0, 0.5],
        "psi": {"labels": ["A", "B"], "assignment": [0, 1, 0]},
    }
    (HERE / "empty_fibre.json").write_text(json.dumps(empty_fibre) + "\n")
    cases.append({"name": "model-empty_fibre", "args": ["model", "--model", "empty_fibre.json"]})
    # masses given as a bool and as numeric strings, which a float conversion would read
    string_masses = {
        "theta": ["a", "b"],
        "x": ["u", "v"],
        "likelihood": [[True, False], ["0.25", "0.75"]],
        "prior": ["0.5", 0.5],
    }
    (HERE / "string_masses.json").write_text(json.dumps(string_masses) + "\n")
    cases.append({
        "name": "model-string_masses-x",
        "args": ["model", "--model", "string_masses.json", "--x", "0"],
    })
    # a misspelt psi block
    psy = {**_models()["psi_map"][0]}
    psy["psy"] = psy.pop("psi")
    (HERE / "psy_typo.json").write_text(json.dumps(psy) + "\n")
    cases.append({"name": "model-psy_typo", "args": ["model", "--model", "psy_typo.json"]})
    cases.append({
        "name": "classify-known",
        "args": ["classify", "known", "--psi0", "0.05", "--psi1", "0.8", "--epsilon", "0.01"],
    })
    # equal class likelihoods at epsilon 0.5 tie both posterior-mode comparisons
    cases.append({
        "name": "classify-known-tie",
        "args": ["classify", "known", "--psi0", "0.5", "--psi1", "0.5", "--epsilon", "0.5"],
    })
    cases.append({
        "name": "classify-predict",
        "args": ["classify", "predict", "--alpha", "1", "--beta", "100", "--n", "10",
                 "--c-bar", "0.0", "--f0", "0.1", "--f1", "0.3"],
    })
    # no data and a class-0 density of 0 at the new point: both ratios pass the float range
    cases.append({
        "name": "classify-predict-f0-zero",
        "args": ["classify", "predict", "--alpha", "1", "--beta", "1", "--n", "0",
                 "--c-bar", "0", "--f0", "0", "--f1", "0.3"],
    })
    eta = {"model": _models()["psi_map"][0], "x": 1, "eta_steps": 8}
    (HERE / "eta_psi_map.json").write_text(json.dumps(eta, indent=2) + "\n")
    cases.append({
        "name": "limits-eta-psi_map",
        "args": ["limits", "eta", "--config", "eta_psi_map.json", "--precision", "full"],
    })

    # two cells without mass drop out; both inclusions fail at the largest caps
    prior = _unit_decimals([27, 32, 1, 0, 19, 21, 25, 12, 0, 3, 11, 15], 4)
    post = _unit_decimals([23, 16, 6, 0, 1, 2, 6, 39, 0, 26, 30, 10], 4)
    table = {"table": {"prior": prior, "posterior": post}, "gamma": 0.7}
    (HERE / "sandwich_table.json").write_text(json.dumps(table, indent=2) + "\n")
    cases.append({
        "name": "limits-sandwich-table",
        "args": ["limits", "sandwich", "--config", "sandwich_table.json", "--precision", "full"],
    })
    cases.append({
        "name": "limits-eta-table",
        "args": ["limits", "eta", "--config", "sandwich_table.json", "--precision", "full"],
    })
    # the next region adds 1e-20, less than half an ulp of the lower region's content
    roundoff = {"table": {"prior": [0.5, 0.5], "posterior": [1.0, 1e-20]}, "gamma": 0.9}
    (HERE / "sandwich_roundoff.json").write_text(json.dumps(roundoff, indent=2) + "\n")
    cases.append({
        "name": "limits-sandwich-roundoff",
        "args": ["limits", "sandwich", "--config", "sandwich_roundoff.json", "--precision", "full"],
    })
    # gamma 1 above the table's content, which rounds below 1: no level reaches gamma,
    # and the region of every value has the content of the region without the first
    gamma_one = {"table": {"prior": [0.5, 0.5], "posterior": [1e-20, 0.9999999999999999]}, "gamma": 1.0}
    (HERE / "sandwich_gamma_one.json").write_text(json.dumps(gamma_one, indent=2) + "\n")
    cases.append({
        "name": "limits-sandwich-gamma-one",
        "args": ["limits", "sandwich", "--config", "sandwich_gamma_one.json", "--precision", "full"],
    })
    # 1,100 halvings of the largest prior mass 0.5 leave the float range
    underflow = {
        "table": {"prior": [0.5, 0.25, 0.25], "posterior": [0.1, 0.2, 0.7]},
        "eta_steps": 1100,
        "gamma": 0.7,
    }
    (HERE / "eta_underflow.json").write_text(json.dumps(underflow, indent=2) + "\n")
    for experiment in ("eta", "sandwich"):
        cases.append({
            "name": f"limits-{experiment}-eta-underflow",
            "args": ["limits", experiment, "--config", "eta_underflow.json", "--precision", "full"],
        })

    region = {
        "prior": {"family": "lognormal", "mu": 0.1, "sigma2": 0.3},
        "likelihood": {"kind": "normal-location-log", "x": 0.6, "sigma2": 0.5},
        "grid": {"lo": 0.0, "hi": 5.0, "n_cells": 64},
        "steps": 3,
        "gamma": 0.9,
        "refine_factor": 16,
    }
    (HERE / "region_lognormal.json").write_text(json.dumps(region, indent=2) + "\n")
    cases.append({
        "name": "limits-region-lognormal",
        "args": ["limits", "region", "--config", "region_lognormal.json", "--precision", "full"],
    })
    # gamma 1 on one grid whose far cells carry posterior mass that rounds away
    gamma_one = {
        "prior": {"family": "normal", "mu": 0.0, "sigma2": 1.0},
        "likelihood": {"kind": "normal-location", "x": 1.5, "sigma2": 1.0},
        "grid": {"lo": -6.0, "hi": 6.0, "n_cells": 128},
        "steps": 1,
        "gamma": 1.0,
    }
    (HERE / "region_gamma_one.json").write_text(json.dumps(gamma_one, indent=2) + "\n")
    cases.append({
        "name": "limits-region-gamma-one",
        "args": ["limits", "region", "--config", "region_gamma_one.json", "--precision", "full"],
    })
    # a uniform prior on [-1, 3]: the grid's cells outside it carry no prior mass and drop
    uniform = {
        "prior": {"family": "uniform", "a": -1.0, "b": 3.0},
        "likelihood": {"kind": "normal-location", "x": 0.5, "sigma2": 1.0},
        "grid": {"lo": -2.0, "hi": 4.0, "n_cells": 96},
        "steps": 3,
        "gamma": 0.9,
        "refine_factor": 4,
    }
    # a uniform(0, 1e-308) prior on its own support: each node's pdf is 1e308, so a
    # cell's node values total past the float range, though every cell mass is 0.25
    narrow = {**uniform, "prior": {"family": "uniform", "a": 0.0, "b": 1e-308},
              "grid": {"lo": 0.0, "hi": 1e-308, "n_cells": 4}}
    (HERE / "limits_uniform.json").write_text(json.dumps(uniform, indent=2) + "\n")
    (HERE / "limits_uniform_narrow.json").write_text(json.dumps(narrow, indent=2) + "\n")
    for name in ("uniform", "uniform_narrow"):
        for experiment in ("region", "lambda"):
            cases.append({
                "name": f"limits-{experiment}-{name.replace('_', '-')}",
                "args": ["limits", experiment, "--config", f"limits_{name}.json", "--precision", "full"],
            })
    # the uniform ladder has 32, 64 and 128 cells without prior mass; a likelihood of
    # variance 1e30 on it leaves the ratio flat across the cells with prior mass
    flat = {**uniform, "likelihood": {**uniform["likelihood"], "sigma2": 1e30}, "steps": 2}
    del flat["refine_factor"]
    (HERE / "limits_uniform_flat.json").write_text(json.dumps(flat, indent=2) + "\n")
    for name, experiments in (("uniform", ("map", "sandwich")), ("uniform_flat", ("lambda", "map"))):
        for experiment in experiments:
            cases.append({
                "name": f"limits-{experiment}-{name.replace('_', '-')}",
                "args": ["limits", experiment, "--config", f"limits_{name}.json", "--precision", "full"],
            })

    # a normal prior, and a beta prior on its own support; each sandwich at 4 caps per grid
    configs = {
        "normal": {
            "prior": {"family": "normal", "mu": 0.0, "sigma2": 1.0},
            "likelihood": {"kind": "normal-location", "x": 1.3, "sigma2": 0.5},
            "grid": {"lo": -5.0, "hi": 5.0, "n_cells": 32},
            "gamma": 0.9,
            "target": 1.3,
        },
        "beta": {
            "prior": {"family": "beta", "alpha": 3.0, "beta": 2.0},
            "likelihood": {"kind": "normal-location", "x": 0.4, "sigma2": 0.02},
            "grid": {"lo": 0.0, "hi": 1.0, "n_cells": 32},
            "gamma": 0.8,
        },
    }
    for prior, config in configs.items():
        path = f"limits_{prior}.json"
        config = {**config, "steps": 3, "refine_factor": 16, "eta_steps": 4}
        (HERE / path).write_text(json.dumps(config, indent=2) + "\n")
        for experiment in ("region", "sandwich"):
            cases.append({
                "name": f"limits-{experiment}-{prior}",
                "args": ["limits", experiment, "--config", path, "--precision", "full"],
            })
    # the normal config's target is the continuum evidence estimate, the observation x
    # (region and sandwich do not read it); the other two default to the finest grid
    for path in ("limits_normal.json", "limits_beta.json", "region_lognormal.json"):
        for experiment in ("lambda", "map"):
            cases.append({
                "name": f"limits-{experiment}-{path.removesuffix('.json').split('_')[1]}",
                "args": ["limits", experiment, "--config", path, "--precision", "full"],
            })

    # a sharp likelihood far in the prior's tail: the best evidence cell's ratio overflows
    overflow = {
        "prior": {"family": "normal", "mu": 0.0, "sigma2": 1.0},
        "likelihood": {"kind": "normal-location", "x": 38.0, "sigma2": 0.0001},
        "grid": {"lo": -5.0, "hi": 40.0, "n_cells": 512},
        "steps": 2,
    }
    (HERE / "limits_overflow.json").write_text(json.dumps(overflow, indent=2) + "\n")
    for experiment in ("lambda", "map"):
        cases.append({
            "name": f"limits-{experiment}-overflow",
            "args": ["limits", experiment, "--config", "limits_overflow.json", "--precision", "full"],
        })

    for precision in ("default", "full"):
        cases.append({
            "name": f"classify-table1-{precision}",
            "args": ["classify", "table1", "--alpha", "1", "--betas", "1,14,32,100", "--mu", "1",
                     "--n", "10", "--reps", "2000", "--seed", "7", "--precision", precision],
        })

    # an intercept and two covariates over eight rows; the design file has a header row
    design = "a,b,c\n" + "".join(
        f"1,{u},{v}\n" for u, v in
        [(0.5, 1.2), (1.5, -0.3), (2.0, 0.8), (-1.0, 0.1), (0.3, -1.4), (1.1, 2.2), (-0.7, 0.6), (2.4, -0.9)]
    )
    (HERE / "regress_design.csv").write_text(design)
    (HERE / "regress_response.csv").write_text("1.9\n2.1\n3.4\n-0.2\n-0.8\n4.1\n0.5\n1.7\n")
    (HERE / "regress_w.csv").write_text("0,1,1\n")
    regress = ["regress", "--design", "regress_design.csv", "--response", "regress_response.csv",
               "--sigma2", "0.5", "--tau2", "4", "--w", "regress_w.csv"]
    cases.append({"name": "regress", "args": regress})
    cases.append({"name": "regress-grid-check", "args": [*regress, "--grid-check", "4096"]})

    # inputs that once ran with a field ignored: each exits 2 with one error line
    (HERE / "regress_empty.csv").write_text("")
    cases.append({
        "name": "regress-empty-design",
        "args": ["regress", "--design", "regress_empty.csv", *regress[3:]],
    })
    cases.append({
        "name": "decide-psi_map-map-eta",
        "args": ["decide", "--model", "psi_map.json", "--loss", "map", "--eta", "0.3"],
    })
    normal = configs["normal"]
    ignored = {
        "steps0": {**normal, "steps": 0},
        "prior_mean": {**normal, "prior": {"family": "normal", "mean": 3.0, "sigma2": 1.0}},
        "likelihood_sigm2": {
            **normal, "likelihood": {"kind": "normal-location", "x": 1.3, "sigm2": 9.0}
        },
        # a normal(0, 1) prior on [-1.5, 2.0): a tail warning per grid, one line each
        "tail": {**normal, "grid": {"lo": -1.5, "hi": 2.0, "n_cells": 16}, "steps": 2},
    }
    # a misspelt top-level key of a region config
    typo = {**normal, "steps": 2, "refine_facter": 2}
    (HERE / "limits_refine_facter.json").write_text(json.dumps(typo, indent=2) + "\n")
    cases.append({
        "name": "limits-region-refine-facter",
        "args": ["limits", "region", "--config", "limits_refine_facter.json", "--precision", "full"],
    })
    # inputs past the float range: a lognormal scale exp(mu) that overflows or is 0, a
    # grid whose width overflows, and node values that overflow to their limit 0
    lognormal = {**region, "likelihood": {**region["likelihood"], "x": 0.5}}
    past_range = {
        **{
            name: {**lognormal, "prior": {"family": "lognormal", "mu": mu, "sigma2": 1.0}}
            for name, mu in (("lognormal_mu800", 800.0), ("lognormal_mu_minus800", -800.0))
        },
        "grid_width_overflow": {**normal, "grid": {"lo": -1e308, "hi": 1e308, "n_cells": 64}},
        # the width is finite, but the last edge's offset, the width times 32, is not
        "grid_edges_overflow": {**normal, "grid": {"lo": -8e307, "hi": 6.0, "n_cells": 32}},
        "likelihood_x_overflow": {**normal, "likelihood": {**normal["likelihood"], "x": 1e308}},
        "likelihood_sigma2_subnormal": {
            **normal, "likelihood": {**normal["likelihood"], "sigma2": 1e-320}
        },
        "prior_sigma2_subnormal": {**normal, "prior": {**normal["prior"], "sigma2": 1e-320}},
        "grid_far": {**normal, "grid": {"lo": 1e300, "hi": 1e301, "n_cells": 32}},
    }
    for name, config in {**ignored, **past_range}.items():
        path = f"limits_{name}.json"
        (HERE / path).write_text(json.dumps(config, indent=2) + "\n")
        cases.append({
            "name": f"limits-lambda-{name.replace('_', '-')}",
            "args": ["limits", "lambda", "--config", path, "--precision", "full"],
        })
    # the tail grid with a likelihood past the float range: the prior's tail warning
    # comes first, then the joint's error
    tail_error = {**ignored["tail"], "likelihood": past_range["likelihood_x_overflow"]["likelihood"]}
    (HERE / "limits_tail_x_overflow.json").write_text(json.dumps(tail_error, indent=2) + "\n")
    for experiment in ("lambda", "region"):
        cases.append({
            "name": f"limits-{experiment}-tail-x-overflow",
            "args": ["limits", experiment, "--config", "limits_tail_x_overflow.json", "--precision", "full"],
        })
    return cases


def main() -> None:
    os.chdir(HERE)
    (HERE / "out").mkdir(exist_ok=True)
    cases = _cases()
    runner = CliRunner()
    for case in cases:
        res = runner.invoke(relbel_main, case["args"])
        case["exit"] = res.exit_code
        case["stderr"] = res.stderr
        (HERE / "out" / f"{case['name']}.txt").write_bytes(res.stdout_bytes)
    (HERE / "cases.json").write_text(json.dumps(cases, indent=1) + "\n")


if __name__ == "__main__":
    main()
