import numpy as np
import pytest

from consensus_lab.consensus import (
    consensus_expectation,
    first_order_vector,
    higher_order_expectations,
)
from consensus_lab.errors import PreconditionError
from consensus_lab.interaction import build_interaction_structure, joint_connectedness
from consensus_lab.io import load_scenario
from consensus_lab.model import (
    BasicVariable,
    InterimBelief,
    ModelSpec,
    Network,
    validate_model,
)
from consensus_lab.optimism import (
    markov_optimism_check,
    optimism_hypotheses,
    tightness_chain,
)
from consensus_lab.spectral import stationary_distribution

from conftest import random_model, scenario_path, split_signal


def drifting_model(rng, n_agents=3, levels=6, delta_target=0.1, eps_target=0.0):
    """Random model where sub-threshold types expect strictly more
    optimistic counterparties (planted drift)."""
    agents = tuple(f"ag{i}" for i in range(n_agents))
    states = tuple(f"lv{k}" for k in range(levels))
    y = np.linspace(0.0, 1.0, levels)
    signals = {a: tuple(f"{a}k{k}" for k in range(levels)) for a in agents}
    beliefs = {}
    for a in agents:
        for k in range(levels):
            state = np.zeros(levels)
            state[k] = 1.0
            marginals = {}
            for b in agents:
                if b == a:
                    continue
                m = np.zeros(levels)
                if k == levels - 1:
                    if eps_target > 0:
                        m[levels - 2] += eps_target
                        m[levels - 1] += 1.0 - eps_target
                    else:
                        m[levels - 1] += 1.0
                else:
                    # mix of one level up and the top, plus noise below
                    m[min(k + 1, levels - 1)] += 0.6
                    m[levels - 1] += 0.3
                    m[rng.integers(0, k + 1)] += 0.1
                marginals[b] = m
            beliefs[f"{a}k{k}"] = InterimBelief(state, marginals)
    g = np.full((n_agents, n_agents), 1.0 / (n_agents - 1))
    np.fill_diagonal(g, 0.0)
    return ModelSpec(
        states, agents, signals, beliefs, Network(g),
        y=BasicVariable(y, 1.0),
    )


def test_second_order_is_step_two():
    rng = np.random.default_rng(0)
    spec = random_model(rng)
    assert np.allclose(
        higher_order_expectations(spec, 2),
        spec.structure.matrix @ first_order_vector(spec),
        atol=0,
    )


def test_common_knowledge_second_equals_first():
    # every signal pins the state and everyone knows everyone's signal
    beliefs = {
        "p0": InterimBelief([1, 0], {"q": [1, 0]}),
        "p1": InterimBelief([0, 1], {"q": [0, 1]}),
        "q0": InterimBelief([1, 0], {"p": [1, 0]}),
        "q1": InterimBelief([0, 1], {"p": [0, 1]}),
    }
    spec = ModelSpec(
        ("lo", "hi"),
        ("p", "q"),
        {"p": ("p0", "p1"), "q": ("q0", "q1")},
        beliefs,
        Network([[0.0, 1.0], [1.0, 0.0]]),
        y=BasicVariable([0.0, 1.0], 1.0),
    )
    x1 = first_order_vector(spec)
    assert np.allclose(higher_order_expectations(spec, 2), x1, atol=0)


def test_ladder_shifts_levels_up():
    spec = load_scenario(scenario_path("case2"))
    x1 = first_order_vector(spec)
    x2 = higher_order_expectations(spec, 2)
    K = 5
    for i in range(3):
        for k in range(K):
            expected_level = min(k + 1, K - 1)
            assert x2[i * K + k] == pytest.approx(
                x1[i * K + expected_level], abs=1e-15
            )


def test_case1_bound_is_one():
    # everyone believes counterparties sit strictly higher unless at the top
    rng = np.random.default_rng(1)
    spec = drifting_model(rng, eps_target=0.0)
    report = optimism_hypotheses(spec, 1.0)
    assert report.hypotheses_hold
    assert report.shortfall == 0.0
    assert report.bound == pytest.approx(1.0, abs=1e-12)
    assert report.consensus == pytest.approx(1.0, abs=1e-9)


def test_case2_clockwise_relabeling_gives_zero():
    spec = load_scenario(scenario_path("case2"))
    # clockwise orientation: weight on the neighbor believed more pessimistic
    n = 3
    g = np.zeros((n, n))
    for i in range(n):
        g[i, (i + 1) % n] = 1.0
    flipped = ModelSpec(
        spec.states, spec.agents, spec.signals, spec.beliefs,
        Network(g), y=spec.y,
    )
    res = consensus_expectation(flipped)
    assert res.value == pytest.approx(0.0, abs=1e-12)
    # and the mirrored payoff satisfies the optimism bound at threshold one
    mirrored = ModelSpec(
        spec.states, spec.agents, spec.signals, spec.beliefs,
        Network(g), y=BasicVariable(1.0 - spec.y.values, 1.0),
    )
    report = optimism_hypotheses(mirrored, 1.0)
    assert report.hypotheses_hold
    assert report.consensus == pytest.approx(1.0, abs=1e-12)


def test_tightness_chain_reaches_bound_with_equality():
    m, delta, eps = 5, 0.2, 0.05
    spec = tightness_chain(m, delta, eps)
    assert validate_model(spec) == []
    report = optimism_hypotheses(spec, float(m))
    assert report.hypotheses_hold
    assert report.drift == pytest.approx(delta, abs=1e-12)
    assert report.shortfall == pytest.approx(eps, abs=1e-12)
    # stationary mass on the top level is exactly the bound factor
    B = build_interaction_structure(spec)
    f = first_order_vector(spec)
    check = markov_optimism_check(B.matrix, f, float(m), delta, eps)
    assert check.hypotheses_ok
    assert check.mass_above == pytest.approx(1.0 / (1.0 + eps / delta), abs=1e-12)
    assert check.satisfied
    # consensus therefore sits exactly at the mixed level
    assert report.consensus == pytest.approx(
        m * 0.8 + (m - 1) * 0.2, abs=1e-10
    )
    assert report.consensus >= report.bound - 1e-9


def test_tightness_chain_perturbation_continuity():
    m, delta, eps = 5, 0.2, 0.05
    base = tightness_chain(m, delta, eps)
    pert = tightness_chain(m, delta, eps, perturbation=1e-6)
    Bp = build_interaction_structure(pert)
    assert Bp.irreducible
    p = stationary_distribution(Bp.matrix).vector
    idx = Bp.index
    top = p[idx.labels.index("one5")] + p[idx.labels.index("two5")]
    assert top == pytest.approx(0.8, abs=1e-4)


def test_tightness_chain_rejects_bad_parameters():
    with pytest.raises(PreconditionError):
        tightness_chain(0, 0.2, 0.05)
    with pytest.raises(PreconditionError):
        tightness_chain(3, 1.2, 0.05)
    with pytest.raises(PreconditionError, match=r"^perturbation must lie in \[0, 1\)$"):
        tightness_chain(3, 0.2, 0.05, perturbation=1.0)


def test_markov_check_drift_everywhere_absorbs_top():
    # strict ascent below the top, near-absorbing top
    Q = np.array(
        [
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 1e-9, 1.0 - 1e-9],
        ]
    )
    f = np.array([0.0, 0.5, 1.0])
    check = markov_optimism_check(Q, f, 1.0, 0.4, 1e-8)
    assert check.hypotheses_ok
    assert check.mass_above > 0.999
    assert check.satisfied


def test_markov_check_reports_violations():
    Q = np.array([[0.5, 0.5], [0.5, 0.5]])
    f = np.array([0.0, 1.0])
    check = markov_optimism_check(Q, f, 1.0, 0.6, 0.1)
    assert not check.hypotheses_ok
    assert any("state 0" in v for v in check.violations)
    assert any("state 1" in v for v in check.violations)


def test_markov_check_random_rejection_sampled_chains():
    rng = np.random.default_rng(2)
    accepted = 0
    while accepted < 30:
        n = int(rng.integers(3, 8))
        f = np.sort(rng.random(n))
        fbar = f[-1] - 0.05
        delta, eps = 0.05, 0.02
        Q = rng.random((n, n)) + 0.01
        Q = Q / Q.sum(axis=1, keepdims=True)
        drift = Q @ f - f
        ok = all(
            drift[s] >= delta if f[s] < fbar else drift[s] >= -eps
            for s in range(n)
        )
        if not ok:
            continue
        accepted += 1
        check = markov_optimism_check(Q, f, fbar, delta, eps)
        assert check.hypotheses_ok
        assert check.satisfied


def test_optimism_bound_on_planted_random_instances():
    rng = np.random.default_rng(3)
    accepted = 0
    while accepted < 50:
        spec = drifting_model(rng, eps_target=float(rng.uniform(0.0, 0.2)))
        fbar = float(rng.uniform(0.5, 1.0))
        report = optimism_hypotheses(spec, fbar)
        if not report.hypotheses_hold:
            continue
        accepted += 1
        assert report.consensus >= report.bound - 1e-9


def test_report_symmetric_under_payoff_mirror():
    m, delta, eps = 4, 0.25, 0.1
    spec = tightness_chain(m, delta, eps)
    report = optimism_hypotheses(spec, float(m))
    assert report.hypotheses_hold
    mirrored = ModelSpec(
        spec.states, spec.agents, spec.signals, spec.beliefs, spec.network,
        y=BasicVariable(float(m) - spec.y.values, float(m)),
    )
    rep2 = optimism_hypotheses(mirrored, float(m))
    # the mirror is second-order pessimistic, so its own optimism
    # hypotheses fail, and the original report caps m - consensus(mirror)
    assert not rep2.hypotheses_hold
    assert rep2.consensus == pytest.approx(float(m) - report.consensus, abs=1e-10)
    assert float(m) - rep2.consensus >= report.bound - 1e-9


def test_duplicate_signal_invariance():
    m, delta, eps = 3, 0.3, 0.1
    spec = tightness_chain(m, delta, eps, perturbation=1e-3)
    report = optimism_hypotheses(spec, float(m))
    doubled = split_signal(spec, "one2", weights=(0.25, 0.75))
    assert validate_model(doubled) == []
    rep2 = optimism_hypotheses(doubled, float(m))
    assert rep2.drift == pytest.approx(report.drift, abs=1e-10)
    assert rep2.shortfall == pytest.approx(report.shortfall, abs=1e-10)
    assert rep2.bound == pytest.approx(report.bound, abs=1e-10)
    assert rep2.consensus == pytest.approx(report.consensus, abs=1e-10)


def test_reducibility_allowed_in_hypotheses():
    spec = load_scenario(scenario_path("counterexample"))
    ok, _ = joint_connectedness(build_interaction_structure(spec))
    assert not ok
    report = optimism_hypotheses(spec, 0.5)
    # certainty beliefs: no drift anywhere below the threshold
    assert not report.hypotheses_hold


def test_tightness_fixture_matches_generator():
    # the checked-in scenario file is the generator's output
    spec_file = load_scenario(scenario_path("tightness"))
    spec_gen = tightness_chain(5, 0.2, 0.05)
    B_file = build_interaction_structure(spec_file)
    B_gen = build_interaction_structure(spec_gen)
    assert B_file.index.labels == B_gen.index.labels
    assert np.array_equal(B_file.matrix, B_gen.matrix)
    assert np.array_equal(spec_file.y.values, spec_gen.y.values)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_payoffs_are_refused():
    # a NaN payoff used to give bound 0.5 after a RuntimeWarning
    spec = load_scenario(scenario_path("cps"))
    with pytest.raises(PreconditionError, match="^y: every value must be finite$"):
        optimism_hypotheses(spec, 0.5, y=[np.nan, 1.0])
    with pytest.raises(PreconditionError, match="^f: every value must be finite$"):
        optimism_hypotheses(spec, 0.5, f=[np.nan] * len(spec.all_signals()))


@pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf])
def test_a_non_finite_threshold_is_refused(threshold):
    # -inf gave bound -inf with the hypotheses holding; NaN a NaN threshold
    spec = load_scenario(scenario_path("case2"))
    with pytest.raises(PreconditionError, match="^threshold must be finite, got "):
        optimism_hypotheses(spec, threshold)


@pytest.mark.parametrize("start", [-1, 2, 5])
def test_a_start_outside_the_chain_is_refused(start):
    # start=-1 silently used the last state; start=5 raised IndexError
    Q = np.array([[0.5, 0.5], [0.2, 0.8]])
    with pytest.raises(PreconditionError, match=r"^start: state -?\d+ is outside 0\.\.1$"):
        markov_optimism_check(Q, [0.0, 1.0], 0.5, 0.1, 0.1, start=start)
    check = markov_optimism_check(Q, [0.0, 1.0], 0.5, 0.1, 0.1, start=1)
    assert np.allclose(check.distribution, [2 / 7, 5 / 7], atol=1e-12)


@pytest.mark.parametrize("Q, start", [
    ([[0.5, 0.5], [0.5, 0.5]], 0.5),
    (np.eye(2), True),
    (np.eye(2), "1"),
])
def test_a_start_that_is_not_an_integer_is_refused(Q, start):
    # 0.5 ended in numpy's IndexError, True in a ValueError (a boolean index)
    with pytest.raises(PreconditionError,
                       match=rf"^start: state {start!r} is not an integer index$"):
        markov_optimism_check(Q, [0.0, 1.0], 0.5, 0.1, 0.1, start=start)
    # a numpy integer is an index like any other
    checks = [markov_optimism_check(Q, [0.0, 1.0], 0.5, 0.1, 0.1, start=k)
              for k in (1, np.int64(1))]
    assert np.array_equal(checks[0].distribution, checks[1].distribution)


@pytest.mark.parametrize("threshold, delta, eps, f, match", [
    (np.nan, 0.1, 0.1, [0.0, 1.0], "threshold must be finite"),
    (np.inf, 0.1, 0.1, [0.0, 1.0], "threshold must be finite"),
    (0.5, np.nan, 0.1, [0.0, 1.0], "delta and eps"),
    (0.5, np.inf, 0.1, [0.0, 1.0], "delta and eps"),
    (0.5, 0.1, np.nan, [0.0, 1.0], "delta and eps"),
    (0.5, 0.1, np.inf, [0.0, 1.0], "delta and eps"),
    (0.5, 0.1, 0.1, [0.0, np.nan], "f: every value must be finite"),
    (0.5, 0.1, 0.1, [0.0], r"f: expected one value per state \(2\), got shape \(1,\)"),
])
def test_markov_optimism_check_refuses_non_finite_inputs(threshold, delta, eps, f, match):
    # a NaN threshold or f gave hypotheses_ok=True, satisfied=False (a false
    # counterexample), a NaN delta gave bound nan, a short f numpy's ValueError
    Q = np.array([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(PreconditionError, match=match):
        markov_optimism_check(Q, f, threshold, delta, eps)
