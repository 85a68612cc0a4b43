import os

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from relbel.model import FiniteModel, PsiMap, validate

# CI runs draw the same examples every time: examples come from a hash of
# each test, and no database of earlier failures is replayed
settings.register_profile("ci", derandomize=True, database=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


def random_model(rng, max_theta=6, max_x=6, max_psi=4, min_prior=0.01):
    """Random validated model plus a surjective psi assignment.

    Prior masses are rejected below ``min_prior`` and likelihood rows are
    strictly positive, so every outcome is possible and evidence argmax
    ties have probability zero.
    """
    n_theta = int(rng.integers(2, max_theta + 1))
    n_x = int(rng.integers(2, max_x + 1))
    n_psi = int(rng.integers(2, min(max_psi, n_theta) + 1))
    while True:
        prior = rng.dirichlet(np.full(n_theta, 2.0))
        if prior.min() >= min_prior:
            break
    likelihood = rng.dirichlet(np.full(n_x, 1.5), size=n_theta)
    assignment = np.concatenate(
        [np.arange(n_psi), rng.integers(0, n_psi, size=n_theta - n_psi)]
    )
    rng.shuffle(assignment)
    model = validate(
        FiniteModel(
            theta_labels=tuple(f"t{i}" for i in range(n_theta)),
            x_labels=tuple(f"x{i}" for i in range(n_x)),
            likelihood=likelihood,
            prior=prior,
        )
    )
    psi = PsiMap(tuple(int(j) for j in assignment), tuple(f"p{j}" for j in range(n_psi)))
    return model, psi


@st.composite
def finite_models(draw, max_theta=6, max_x=6, max_psi=4, zeros=False):
    """Random validated model plus a surjective psi, drawn for hypothesis.

    Some theta values may carry zero prior mass, though every psi value
    keeps positive mass and every outcome stays possible. Likelihood rows
    are Dirichlet draws, small integers (which make tied actions) or
    entries spread over twelve decades. With ``zeros``, rows may also be
    small integers with zeros, so a psi value can get no posterior mass at
    an outcome (a relative belief ratio of 0).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_theta = draw(st.integers(2, max_theta))
    n_x = draw(st.integers(2, max_x))
    n_psi = draw(st.integers(1, min(max_psi, n_theta)))
    prior = rng.dirichlet(np.ones(n_theta))
    # the first n_psi theta values carry one psi value each and keep their mass
    zero = rng.random(n_theta) < draw(st.sampled_from([0.0, 0.3, 0.6]))
    zero[:n_psi] = False
    prior[zero] = 0.0
    rows = draw(st.sampled_from(["dirichlet", "integers", "decades"] + ["zeros"] * zeros))
    if rows == "integers":
        likelihood = rng.integers(1, 4, size=(n_theta, n_x)).astype(float)
    elif rows == "zeros":
        likelihood = rng.integers(0, 4, size=(n_theta, n_x)).astype(float)
        likelihood[0] = 1.0  # theta 0 keeps its prior mass, so every outcome stays possible
        likelihood[likelihood.sum(axis=1) == 0.0, 0] = 1.0
    else:
        likelihood = rng.dirichlet(np.ones(n_x), size=n_theta)
        if rows == "decades":
            likelihood *= 10.0 ** rng.integers(-12, 1, size=(n_theta, n_x))
    assignment = np.concatenate([np.arange(n_psi), rng.integers(0, n_psi, size=n_theta - n_psi)])
    order = rng.permutation(n_theta)
    model = validate(
        FiniteModel(
            theta_labels=tuple(f"t{i}" for i in range(n_theta)),
            x_labels=tuple(f"x{i}" for i in range(n_x)),
            likelihood=likelihood[order] / likelihood[order].sum(axis=1, keepdims=True),
            prior=prior[order] / prior.sum(),
        )
    )
    psi = PsiMap(tuple(int(j) for j in assignment[order]), tuple(f"p{j}" for j in range(n_psi)))
    return model, psi


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def make_model():
    return random_model
