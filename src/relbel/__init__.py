"""Relative belief inference and prior-based Bayesian decision theory.

Evidence about a quantity of interest is measured by how its posterior
mass compares to its prior mass; estimates, plausible and credible
regions, and hypothesis assessments all follow from that one table. The
decision half of the package builds the matching prior-based losses,
computes exact Bayes rules on finite models, and verifies numerically
that the evidence-based inferences arise as (limits of) those rules.

The seven library modules load on first use: ``import relbel`` imports
none of them, and ``relbel.grids`` (or any other) imports that module when
first read, so each CLI command loads only the layers it runs.
"""

from importlib import import_module

from .errors import NumericalGuardError, RelBelError, ValidationError

_SUBMODULES = ("classify", "decision", "evidence", "grids", "limits", "model", "regress")

__all__ = [
    *_SUBMODULES,
    "NumericalGuardError",
    "RelBelError",
    "ValidationError",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    # PEP 562: reached only while the submodule is not yet an attribute;
    # importing it binds it here, so later reads skip this function
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES})
