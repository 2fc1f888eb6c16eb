"""The contract of the public library at its arguments.

Every function that ``consensus_lab`` exports has one valid call here.
Each is made as it is, then again with one argument changed to a value the
function must not take: the wrong length, NaN, an infinity, a complex
number, a ``bool``, a float where an integer is due, a string, a nested
list, an empty list, a negative value, or an unknown label.  Every call
must either refuse with the package's typed error or return a result that
passes the function's own check.  A bare numpy or Python error fails, and
so does any warning.

Model objects (networks, batches, draws) are passed as they are, and so
are specs, but for their network weights: each row that takes a spec is
also called with one network weight NaN, infinite or negative, or one
agent's row all zeros.  What is changed besides is every argument that a
caller gives as numbers, counts, indices, labels, seeds, a path or a
scenario document.  A bare matrix is also given one negative entry, or one
row scaled off 1: the graph analysis takes any finite square array (a 0/1
adjacency matrix included) and must answer, and the Markov entry points
must refuse it.  The changes are drawn with the standard library's
``random`` from fixed seeds.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import math
import os
import random
import re
import warnings
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np
import pytest

import consensus_lab
from consensus_lab import (
    ModelSpec,
    Network,
    PreconditionError,
    ScenarioError,
    empirical_price_stats,
    load_scenario,
    product_generating,
    simulate_batch,
    validate_cis,
    validate_model,
)

from conftest import SCENARIOS, bench_module, scenario_path

SEEDS = (0, 1)
NAN, INF = math.nan, math.inf


def vector_cases(v, rng):
    v = [float(x) for x in v]
    k = rng.randrange(len(v))

    def at(x):
        w = list(v)
        w[k] = x
        return w

    return {"one more value": v + [rng.random()], "one value fewer": v[:-1],
            "nan": at(NAN), "inf": at(INF), "-inf": at(-INF), "complex": at(complex(v[k], 1)),
            "bool": True, "string": str(v[k]), "string entry": at(str(v[k])),
            "nested": [v], "empty": [], "negative": [-abs(x) - rng.random() for x in v]}


def weights_cases(v, rng):
    """A list of coordination weights of any length."""
    cases = vector_cases(v, rng)
    del cases["one more value"], cases["one value fewer"]
    return cases


def real_cases(x, rng):
    return {"nan": NAN, "inf": INF, "-inf": -INF, "complex": complex(x, 1), "bool": True,
            "string": str(x), "nested": [[x]], "empty": [], "none": None,
            "negative": -abs(x) - rng.random()}


def count_cases(n, rng):
    return {"float": n + 0.5, "integral float": float(n), "bool": True, "string": str(n),
            "nested": [n], "empty": [], "none": None, "nan": NAN, "inf": INF,
            "complex": complex(n, 1), "negative": -rng.randint(1, 5)}


def index_cases(k, n, rng):
    return {**count_cases(k, rng), "past the end": n + rng.randrange(3)}


def matrix_cases(m, rng):
    m = np.asarray(m, dtype=float)
    i, j = rng.randrange(len(m)), rng.randrange(len(m))

    def at(x):
        w = m.astype(type(x))
        w[i, j] = x
        return w.tolist()

    scaled = m.copy()
    scaled[i] *= 1.0 + rng.choice((-1, 1)) * rng.uniform(0.01, 0.5)
    return {"not square": m[:-1].tolist(), "one row": m[0].tolist(), "nan": at(NAN),
            "inf": at(INF), "-inf": at(-INF), "complex": at(complex(m[i, j], 1)),
            "bool": True, "string": m.astype(str).tolist(), "nested": [m.tolist()],
            "empty": [], "none": None, "one negative entry": at(-rng.uniform(0.01, 1.0)),
            "one row scaled off 1": scaled.tolist()}


#: Entry points that read a bare matrix as a Markov chain: a matrix that is
#: not row-stochastic is refused, never answered.
MARKOV = ("abel_limit", "eigenvector_centrality", "markov_optimism_check", "mfpt",
          "stationary_distribution", "stationary_perturbation_bound")


def spec_cases(spec, rng):
    """The spec with one network weight changed, or one agent's row zeroed."""
    g = np.array(spec.network.weights)
    i, j = rng.randrange(len(g)), rng.randrange(len(g))

    def at(x):
        w = g.copy()
        w[i, j] = x
        return dataclasses.replace(spec, network=Network(w))

    zero = g.copy()
    zero[i] = 0.0
    return {"network nan": at(NAN), "network inf": at(INF), "network -inf": at(-INF),
            "network negative": at(-rng.uniform(0.01, 1.0)),
            "network zero row": dataclasses.replace(spec, network=Network(zero))}


def label_cases(label, rng):
    return {"unknown": f"zed{rng.randrange(100)}", "empty": "", "bool": True, "number": 0,
            "none": None, "nested": [label]}


def labels_cases(labels, rng):
    return {"unknown": [*labels, f"zed{rng.randrange(100)}"], "one label": labels[0],
            "nested": [list(labels)], "empty": []}


def owner_cases(n, rng):
    return {"past the last": n, "negative": -1, "float": 0.5, "bool": True,
            "unknown": f"zed{rng.randrange(100)}", "nan weight": [NAN] + [1.0] * (n - 1),
            "negative weight": [-1.0] + [1.0] * (n - 1), "short": [1.0] * (n - 1),
            "complex": [1j] + [1.0] * (n - 1), "string": ["1"] * n, "nested": [[1.0] * n]}


def seed_cases(seed, rng):
    return {"negative": -rng.randint(1, 9), "float": seed + 0.5, "string": str(seed),
            "nan": NAN, "complex": complex(seed, 1), "negative entry": [seed, -1]}


def data_cases(data, rng):
    return {"string": "cps", "list": [data], "none": None, "bool": True, "empty": {}}


def path_cases(path, rng):
    return {"missing": os.path.join(SCENARIOS, "no-such-scenario.json"),
            "a directory": SCENARIOS, "not json": __file__}


@dataclass
class Row:
    """One valid call: ``call(**args)``; ``cases[name](args[name], rng)``
    gives the changed values of an argument; ``holds(result, args)`` is
    the function's own check of its answer; ``refusal`` its typed error."""

    call: Callable
    args: dict
    cases: dict
    holds: Callable
    refusal: type = PreconditionError


def finite(*values) -> bool:
    return all(np.isfinite(np.asarray(v, dtype=float)).all() for v in values)


def stochastic(p) -> bool:
    p = np.asarray(p)
    return finite(p) and (p >= 0).all() and np.allclose(p.sum(axis=-1), 1.0, atol=1e-9)


def partition(components, n) -> bool:
    return sorted(i for c in components for i in c) == list(range(n))


P = [[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.4, 0.4, 0.2]]
F = [0.2, 0.9, 0.4, 0.7]
Y = [0.0, 1.0]


@cache
def rows() -> dict[str, Row]:
    cps = load_scenario(scenario_path("cps"))
    cis = load_scenario(scenario_path("tyranny_extreme"))
    with open(scenario_path("cps"), encoding="utf-8") as fh:
        document = json.load(fh)
    draw = product_generating(cps)
    batch = simulate_batch(cps, 0.9, 5, 1, draw)
    own_rows = {t: cps.network.weights[cps.agents.index(cps.agent_of(t))]
                for t in cps.all_signals()}
    n = len(cps.all_signals())

    def mapping_cases(weights, rng):
        t = rng.choice(sorted(weights))
        return {**{f"{t} {case}": {**weights, t: value}
                   for case, value in vector_cases(weights[t], rng).items()},
                f"without {t}": {s: w for s, w in weights.items() if s != t},
                "an unknown label": {**weights, "nobody": weights[t]}}

    return {
        # consensus
        "consensus_expectation": Row(
            consensus_lab.consensus_expectation, dict(spec=cps, y=Y), {"y": vector_cases},
            lambda r, a: finite(r.value) and stochastic(r.weights)),
        "cps_check": Row(consensus_lab.cps_check, dict(spec=cps), {},
                         lambda r, a: r.holds),
        "first_order_vector": Row(
            consensus_lab.first_order_vector, dict(spec=cps, f=F), {"f": vector_cases},
            lambda r, a: r.shape == (n,) and finite(r)),
        "higher_order_expectations": Row(
            consensus_lab.higher_order_expectations, dict(spec=cps, n=3, f=F),
            {"n": count_cases, "f": vector_cases},
            lambda r, a: r.shape == (n,) and finite(r)),
        "pseudopriors": Row(consensus_lab.pseudopriors, dict(spec=cps), {},
                            lambda r, a: all(stochastic(p) for p in r.values())),
        "verify_cps_decomposition": Row(
            consensus_lab.verify_cps_decomposition, dict(spec=cps, y=Y), {"y": vector_cases},
            lambda r, a: r.passed),
        # game
        "best_response_iterates": Row(
            consensus_lab.best_response_iterates,
            dict(spec=cps, beta=0.9, f=F, rounds=5, start=[0.5] * n),
            {"beta": real_cases, "f": vector_cases, "rounds": count_cases,
             "start": vector_cases},
            lambda r, a: len(r) == a["rounds"] + 1 and finite(*r)),
        "convention_limit": Row(
            consensus_lab.convention_limit, dict(spec=cps, y=Y, betas=(0.9, 0.99)),
            {"y": vector_cases, "betas": weights_cases},
            lambda r, a: finite(r.consensus.value, r.gaps) and len(r.gaps) == len(r.betas)),
        "heterogeneous_transform": Row(
            consensus_lab.heterogeneous_transform,
            dict(network=cps.network, beta_vec=[0.9, 0.5]), {"beta_vec": vector_cases},
            lambda r, a: stochastic(r[0].weights) and 0.0 <= r[1] < 1.0),
        "rationalizable_bounds": Row(
            consensus_lab.rationalizable_bounds, dict(spec=cps, beta=0.9, k_max=3, y=Y),
            {"beta": real_cases, "k_max": count_cases, "y": vector_cases},
            lambda r, a: len(r) == a["k_max"] and all(finite(lo, hi) and (lo <= hi).all()
                                                      for lo, hi in r)),
        "solve_beta_game": Row(
            consensus_lab.solve_beta_game, dict(spec=cps, beta=0.9, y=Y),
            {"beta": real_cases, "y": vector_cases},
            lambda r, a: r.actions.shape == (n,) and finite(r.actions) and r.residual < 1e-9),
        "solve_heterogeneous_game": Row(
            consensus_lab.solve_heterogeneous_game, dict(spec=cps, beta_vec=[0.9, 0.5], f=F),
            {"beta_vec": vector_cases, "f": vector_cases},
            lambda r, a: finite(r.actions) and r.residual < 1e-9),
        # interaction
        "absorbing_components": Row(
            consensus_lab.absorbing_components, dict(B=P), {"B": matrix_cases},
            lambda r, a: all(0 <= i < len(a["B"]) for c in r for i in c)),
        "build_first_order_map": Row(consensus_lab.build_first_order_map, dict(spec=cps), {},
                                     lambda r, a: stochastic(r.matrix)),
        "build_interaction_structure": Row(
            consensus_lab.build_interaction_structure,
            dict(spec=cps, type_dependent_weights=own_rows),
            {"type_dependent_weights": mapping_cases},
            lambda r, a: r.matrix.shape == (n, n) and stochastic(r.matrix)),
        "joint_connectedness": Row(
            consensus_lab.joint_connectedness, dict(B=P), {"B": matrix_cases},
            lambda r, a: r[0] == (r[1] is None)),
        "strongly_connected_components": Row(
            consensus_lab.strongly_connected_components, dict(matrix=P),
            {"matrix": matrix_cases}, lambda r, a: partition(r, len(a["matrix"]))),
        # io
        "load_scenario": Row(
            load_scenario, dict(path=scenario_path("cps")), {"path": path_cases},
            lambda r, a: validate_model(r) == [], ScenarioError),
        "parse_scenario": Row(
            consensus_lab.parse_scenario, dict(data=document), {"data": data_cases},
            lambda r, a: validate_model(r) == [], ScenarioError),
        # market
        "cis_generating": Row(
            consensus_lab.cis_generating, dict(cis=cis, prior_agent="alice"),
            {"prior_agent": label_cases}, lambda r, a: stochastic(r.state)),
        "empirical_price_stats": Row(
            empirical_price_stats, dict(batch=batch), {},
            lambda r, a: r.n_runs == 5 and finite(r.mean_price)),
        "product_generating": Row(product_generating, dict(spec=cps), {},
                                  lambda r, a: stochastic(r.state)),
        "simulate_batch": Row(
            simulate_batch,
            dict(spec=cps, beta=0.9, n_runs=3, seed=7, draw=draw, initial_owner=0),
            {"beta": real_cases, "n_runs": count_cases, "seed": seed_cases,
             "initial_owner": lambda v, rng: owner_cases(2, rng)},
            lambda r, a: r.n_runs == a["n_runs"] and (r.durations >= 1).all()
            and finite(r.class_prices)),
        "simulate_market": Row(
            consensus_lab.simulate_market,
            dict(spec=cps, beta=0.9, seed=7, draw=draw, initial_owner="centrality"),
            {"beta": real_cases, "seed": seed_cases,
             "initial_owner": lambda v, rng: owner_cases(2, rng)},
            lambda r, a: len(r.events) == r.duration - 1
            and finite([e.price for e in r.events])),
        # model
        "ex_ante_expectation": Row(
            consensus_lab.ex_ante_expectation,
            dict(spec=cps, agent="ann", prior=[0.5, 0.5], z=[0.2, 0.9]),
            {"agent": label_cases, "prior": vector_cases, "z": vector_cases},
            lambda r, a: finite(r)),
        "validate_model": Row(validate_model, dict(spec=cps, tol=1e-12), {"tol": real_cases},
                              lambda r, a: all(isinstance(v, str) for v in r)),
        # optimism
        "markov_optimism_check": Row(
            consensus_lab.markov_optimism_check,
            dict(Q=P, f=[0.0, 0.5, 1.0], threshold=0.75, delta=0.05, eps=0.2, start=1),
            {"Q": matrix_cases, "f": vector_cases, "threshold": real_cases,
             "delta": real_cases, "eps": real_cases,
             "start": lambda k, rng: index_cases(k, 3, rng)},
            lambda r, a: stochastic(r.distribution) and (r.satisfied or not r.hypotheses_ok)),
        "optimism_hypotheses": Row(
            consensus_lab.optimism_hypotheses, dict(spec=cps, threshold=0.5, f=F),
            {"threshold": real_cases, "f": vector_cases},
            lambda r, a: finite(r.consensus)
            and (not r.hypotheses_hold or r.consensus >= r.bound - 1e-9)),
        "tightness_chain": Row(
            consensus_lab.tightness_chain, dict(m=3, delta=0.3, eps=0.1, perturbation=0.05),
            {"m": count_cases, "delta": real_cases, "eps": real_cases,
             "perturbation": real_cases},
            lambda r, a: isinstance(r, ModelSpec) and validate_model(r) == []),
        # spectral
        "abel_limit": Row(
            consensus_lab.abel_limit, dict(Q=P, z=[0.0, 0.5, 1.0], beta=0.9),
            {"Q": matrix_cases, "z": vector_cases, "beta": real_cases},
            lambda r, a: r.shape == (3,) and finite(r)),
        "eigenvector_centrality": Row(
            consensus_lab.eigenvector_centrality, dict(network=P), {"network": matrix_cases},
            lambda r, a: stochastic(r)),
        "mfpt": Row(consensus_lab.mfpt, dict(Q=P), {"Q": matrix_cases},
                    lambda r, a: finite(r.values) and (r.values >= 1.0).all()),
        "power_trajectory": Row(
            consensus_lab.power_trajectory, dict(Q=P, z=[0.0, 0.5, 1.0], n_max=6),
            {"Q": matrix_cases, "z": vector_cases, "n_max": count_cases},
            lambda r, a: r.vectors.shape == (a["n_max"] + 1, 3) and finite(r.vectors)),
        "stationary_distribution": Row(
            consensus_lab.stationary_distribution, dict(Q=P), {"Q": matrix_cases},
            lambda r, a: stochastic(r.vector)),
        # trade
        "no_trade_test": Row(
            consensus_lab.no_trade_test, dict(B=P), {"B": matrix_cases},
            lambda r, a: not r.has_trade or finite(r.trade)),
        # tyranny
        "build_pi_from_cis": Row(consensus_lab.build_pi_from_cis, dict(cis=cis), {},
                                 lambda r, a: validate_model(r) == []),
        "classify_noise": Row(consensus_lab.classify_noise, dict(cis=cis), {},
                              lambda r, a: set(r.delta) == set(cis.agents)),
        "rounded_structure": Row(
            consensus_lab.rounded_structure, dict(cis=cis, informed=["alice", "bern"]),
            {"informed": labels_cases}, lambda r, a: stochastic(r.model.structure.matrix)),
        "stationary_perturbation_bound": Row(
            consensus_lab.stationary_perturbation_bound,
            dict(B=P, B_ref=np.full((3, 3), 1 / 3)), {"B": matrix_cases, "B_ref": matrix_cases},
            lambda r, a: finite(r.bound) and r.satisfied is not False),
        "validate_cis": Row(validate_cis, dict(cis=cis, tol=1e-12), {"tol": real_cases},
                            lambda r, a: all(isinstance(v, str) for v in r)),
        "verify_tyranny": Row(
            consensus_lab.verify_tyranny, dict(cis=cis, y=Y, ignorant="iggy", tol=1e-12),
            {"y": vector_cases, "ignorant": label_cases, "tol": real_cases},
            lambda r, a: r.passed and finite(r.gap, r.bound)),
    }


PUBLIC = sorted(name for name, obj in vars(consensus_lab).items()
                if inspect.isfunction(obj) and not name.startswith("_"))


def test_every_public_function_has_a_row():
    assert sorted(rows()) == PUBLIC


def test_every_name_the_bench_tracer_wraps_is_a_function_of_its_module():
    # the traced bench pass wraps these by name; a rename would break only
    # that pass, which tier-1 does not run
    traced = bench_module("tracing").TRACED
    missing = [f"{layer}.{name}" for layer, names in traced.items() for name in names
               if not inspect.isfunction(getattr(importlib.import_module(
                   f"consensus_lab.{layer}"), name, None))]
    assert not missing


def _breach(row: Row, args: dict) -> str | None:
    """What breaks the contract in ``row``'s call with ``args``, or None."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = row.call(**args)
        except row.refusal:
            return None
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"
    return None if row.holds(result, args) else f"returned {result!r:.200}"


@pytest.mark.parametrize("name", PUBLIC)
def test_misuse_is_refused_or_answered_correctly(name):
    row = rows()[name]
    # the valid call answers, and its answer passes the check
    try:
        assert row.holds(row.call(**row.args), row.args)
    except row.refusal:
        pytest.fail(f"{name}: the valid call was refused")
    breaches = []
    cases_of = dict(row.cases)
    if "spec" in row.args:
        cases_of["spec"] = spec_cases
    for seed in SEEDS:
        rng = random.Random(f"{name}/{seed}")
        for arg, cases in cases_of.items():
            for case, value in cases(row.args[arg], rng).items():
                problem = _breach(row, {**row.args, arg: value})
                if problem:
                    breaches.append(f"{arg} {case} ({value!r:.60}): {problem}")
    assert not breaches, "\n".join(dict.fromkeys(breaches))


#: The refusal of each change that leaves a bare matrix finite but not row-stochastic.
NOT_STOCHASTIC = {"one negative entry": "matrix: every entry must be non-negative",
                  "one row scaled off 1": r"matrix: row \d sums to \S+ \(expected 1 within 1e-12\)"}


@pytest.mark.parametrize("name", MARKOV)
@pytest.mark.parametrize("case", sorted(NOT_STOCHASTIC))
def test_markov_entry_points_refuse_a_matrix_that_is_not_row_stochastic(name, case):
    row = rows()[name]
    for arg in ("Q", "B", "B_ref", "network"):
        if arg in row.args:
            for seed in SEEDS:
                value = matrix_cases(row.args[arg], random.Random(f"{name}/{seed}"))[case]
                with pytest.raises(PreconditionError, match=NOT_STOCHASTIC[case]):
                    row.call(**{**row.args, arg: value})


@pytest.mark.parametrize("weight", [NAN, INF, -0.5])
@pytest.mark.parametrize("name", ["consensus_expectation", "cps_check", "solve_beta_game"])
def test_a_spec_network_weight_that_is_not_finite_and_non_negative_is_named(name, weight):
    # it ended in "fixed-point residual nan", a stationary residual, or a
    # refusal of the matrix that named no network
    row = rows()[name]
    g = np.array(row.args["spec"].network.weights)
    g[0, 1] = weight
    spec = dataclasses.replace(row.args["spec"], network=Network(g))
    with pytest.raises(PreconditionError, match=re.escape(
            "network.row[ann]: weights must be finite and non-negative with a positive total")):
        row.call(**{**row.args, "spec": spec})


@pytest.mark.parametrize("name", ["consensus_expectation", "cps_check", "solve_beta_game"])
def test_a_spec_belief_row_that_does_not_sum_to_one_is_named(name):
    # validate_model refuses a1's doubled belief, but the builder took it:
    # the game returned b2 near -0.42 for payoffs in [0, 1], and the
    # consensus ended in the stationary gate's ArithmeticError
    row = rows()[name]
    spec = row.args["spec"]
    b = spec.beliefs["a1"]
    doubled = consensus_lab.InterimBelief(
        2 * b.state_marginal, {j: 2 * m for j, m in b.signal_marginals.items()})
    spec = dataclasses.replace(spec, beliefs={**spec.beliefs, "a1": doubled})
    with pytest.raises(PreconditionError, match=re.escape(
            "beliefs.a1.state: sums to 2.0 (expected 1 within 1e-12)")):
        row.call(**{**row.args, "spec": spec})


@pytest.mark.parametrize("name", ["consensus_expectation", "cps_check", "solve_beta_game"])
def test_a_spec_network_row_that_does_not_sum_to_one_is_named(name):
    # validate_model refuses it, but the builder took it: the game returned
    # actions near -0.24 for payoffs in [0, 1], and the consensus ended in
    # the stationary gate's ArithmeticError (residual 0.5)
    row = rows()[name]
    g = np.array(row.args["spec"].network.weights)
    g[0, 1] = 2.0
    spec = dataclasses.replace(row.args["spec"], network=Network(g))
    with pytest.raises(PreconditionError, match=re.escape(
            "network.row[ann]: sums to 2.0 (expected 1 within 1e-12)")):
        row.call(**{**row.args, "spec": spec})
