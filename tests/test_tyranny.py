import numpy as np
import pytest

from consensus_lab.consensus import consensus_expectation
from consensus_lab.errors import PreconditionError
from consensus_lab.interaction import joint_connectedness
from consensus_lab.io import load_scenario
from consensus_lab.model import BasicVariable, Network
from consensus_lab.tyranny import (
    CISSpec,
    _bfs_diameter,
    build_pi_from_cis,
    classify_noise,
    rounded_structure,
    stationary_perturbation_bound,
    validate_cis,
    verify_tyranny,
)

from conftest import scenario_path


def make_cis(rng, n_states=2, n_agents=3, delta=0.3, eps=1e-3, ignorant_signals=2):
    """Ignorant first agent (uniformly delta-noisy), precise others."""
    states = tuple(f"th{k}" for k in range(n_states))
    agents = tuple(["iggy"] + [f"inf{j}" for j in range(1, n_agents)])
    signals = {
        "iggy": tuple(f"g{k}" for k in range(ignorant_signals)),
    }
    eta = {}
    rows = rng.dirichlet(np.ones(ignorant_signals) * 5.0, size=n_states)
    rows = delta + (1.0 - ignorant_signals * delta) * rows
    eta["iggy"] = rows
    for j in range(1, n_agents):
        a = agents[j]
        signals[a] = tuple(f"p{j}_{k}" for k in range(n_states))
        tech = np.full((n_states, n_states), eps / max(n_states - 1, 1))
        np.fill_diagonal(tech, 1.0 - eps)
        eta[a] = tech
    rho = {}
    for a in agents:
        r = rng.dirichlet(np.ones(n_states) * 4.0)
        rho[a] = 0.1 + 0.8 * r  # keep full support comfortably
        rho[a] = rho[a] / rho[a].sum()
    g = np.full((n_agents, n_agents), 1.0 / (n_agents - 1))
    np.fill_diagonal(g, 0.0)
    y = BasicVariable(rng.random(n_states), 1.0)
    return CISSpec(states, agents, signals, rho, eta, Network(g), y)


def test_bayes_posterior_hand_value():
    rng = np.random.default_rng(0)
    cis = make_cis(rng)
    cis = CISSpec(
        ("th0", "th1"),
        ("iggy", "other"),
        {"iggy": ("g0", "g1"), "other": ("p0", "p1")},
        {"iggy": np.array([0.5, 0.5]), "other": np.array([0.5, 0.5])},
        {
            "iggy": np.array([[0.9, 0.1], [0.2, 0.8]]),
            "other": np.array([[0.7, 0.3], [0.4, 0.6]]),
        },
        Network([[0.0, 1.0], [1.0, 0.0]]),
        BasicVariable([0.0, 1.0], 1.0),
    )
    model = build_pi_from_cis(cis)
    # P(th0 | g0) = 0.9*0.5 / (0.9*0.5 + 0.2*0.5) = 9/11
    assert model.beliefs["g0"].state_marginal[0] == pytest.approx(
        9.0 / 11.0, abs=1e-15
    )
    # belief about the other agent's signal averages his technology
    post = model.beliefs["g0"].state_marginal
    expected = post @ cis.eta["other"]
    assert np.allclose(model.beliefs["g0"].signal_marginals["other"], expected)


def test_uninformative_technology_returns_prior():
    cis = load_scenario(scenario_path("tyranny_extreme"))
    model = build_pi_from_cis(cis)
    for t in ("i_lo", "i_hi"):
        assert np.allclose(
            model.beliefs[t].state_marginal, cis.rho["iggy"], atol=1e-15
        )
    # perfect observers hold point-mass posteriors
    assert np.allclose(model.beliefs["a_lo"].state_marginal, [1.0, 0.0])
    assert np.allclose(model.beliefs["b_hi"].state_marginal, [0.0, 1.0])


def test_bayes_consistency_identity():
    rng = np.random.default_rng(1)
    cis = make_cis(rng, n_states=3)
    model = build_pi_from_cis(cis)
    for a in cis.agents:
        mu = model.priors[a]
        for k, t in enumerate(cis.signals[a]):
            lhs = mu[k] * model.beliefs[t].state_marginal
            rhs = cis.rho[a] * cis.eta[a][:, k]
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_zero_probability_signal_is_named():
    cis = load_scenario(scenario_path("tyranny_extreme"))
    eta = dict(cis.eta)
    eta["alice"] = np.array([[1.0, 0.0], [1.0, 0.0]])  # second signal never seen
    broken = CISSpec(
        cis.states, cis.agents, cis.signals, cis.rho, eta, cis.network, cis.y
    )
    with pytest.raises(PreconditionError, match="a_hi"):
        build_pi_from_cis(broken)


def test_classify_noise_examples():
    cis = load_scenario(scenario_path("tyranny_extreme"))
    profile = classify_noise(cis)
    assert profile.eps["alice"] == 0.0
    assert profile.delta["alice"] == 0.0
    assert profile.eps["iggy"] == float("inf")  # uniform rows: no certain signal
    assert profile.delta["iggy"] == 0.5
    near = CISSpec(
        cis.states,
        ("a", "b"),
        {"a": ("a0", "a1"), "b": ("b0", "b1")},
        {"a": np.array([0.5, 0.5]), "b": np.array([0.5, 0.5])},
        {
            "a": np.array([[0.98, 0.02], [0.02, 0.98]]),
            "b": np.array([[0.6, 0.4], [0.35, 0.65]]),
        },
        Network([[0.0, 1.0], [1.0, 0.0]]),
    )
    p2 = classify_noise(near)
    assert p2.eps["a"] == pytest.approx(0.02, abs=1e-15)
    assert p2.delta["b"] == pytest.approx(0.35, abs=1e-15)


def test_rounding_is_identity_on_deterministic_technologies():
    cis = load_scenario(scenario_path("tyranny_extreme"))
    rounded = rounded_structure(cis, ["alice", "bern"])
    assert np.array_equal(rounded.cis.eta["alice"], cis.eta["alice"])
    model = build_pi_from_cis(cis)
    from consensus_lab.interaction import build_interaction_structure

    B = build_interaction_structure(model)
    assert np.array_equal(rounded.interaction.matrix, B.matrix)


def test_rounded_consensus_equals_ignorant_prior_expectation():
    rng = np.random.default_rng(2)
    for _ in range(5):
        cis = make_cis(rng, n_states=2, eps=5e-3)
        rounded = rounded_structure(cis, [a for a in cis.agents if a != "iggy"])
        res = consensus_expectation(rounded.model)
        expected = float(cis.rho["iggy"] @ cis.y.values)
        assert res.value == pytest.approx(expected, abs=1e-9)


def test_rounding_requires_unique_certain_signal():
    cis = load_scenario(scenario_path("tyranny_extreme"))
    with pytest.raises(PreconditionError, match="iggy"):
        rounded_structure(cis, ["iggy"])


def test_perturbation_bound_zero_for_identical_chains():
    rng = np.random.default_rng(3)
    Q = rng.random((5, 5)) + 0.05
    Q = Q / Q.sum(axis=1, keepdims=True)
    res = stationary_perturbation_bound(Q, Q)
    assert res.bound == 0.0
    assert res.max_relative_error == 0.0
    assert res.satisfied


def test_perturbation_bound_random_chain():
    rng = np.random.default_rng(4)
    for _ in range(10):
        Q = rng.random((6, 6)) + 0.05
        Q = Q / Q.sum(axis=1, keepdims=True)
        E = rng.normal(scale=1e-4, size=(6, 6))
        E -= E.mean(axis=1, keepdims=True)
        P = Q + E
        assert P.min() > 0
        res = stationary_perturbation_bound(P, Q)
        assert res.satisfied
        assert res.max_relative_error <= res.bound + 1e-12


def test_verify_tyranny_extreme_case():
    cis = load_scenario(scenario_path("tyranny_extreme"))
    report = verify_tyranny(cis)
    assert report.eps == 0.0
    assert report.bound == 0.0
    assert report.gap <= 1e-9
    assert report.consensus == pytest.approx(0.7, abs=1e-9)
    assert report.passed


def test_verify_tyranny_grid():
    rng = np.random.default_rng(5)
    for n_states in (2, 3):
        for delta in (0.2, 0.3):
            for eps in (1e-3, 1e-4, 1e-5):
                cis = make_cis(rng, n_states=n_states, delta=delta, eps=eps)
                report = verify_tyranny(cis)
                assert report.passed
                assert report.gap <= report.bound + 1e-12
                assert report.belief_gap_max <= report.belief_gap_bound + 1e-12
                assert (
                    report.perturbation.max_passage_time
                    <= report.passage_time_bound + 1e-9
                )


def test_verify_tyranny_small_gap_for_tiny_eps():
    rng = np.random.default_rng(6)
    cis = make_cis(rng, n_states=2, delta=0.3, eps=1e-4)
    report = verify_tyranny(cis)
    assert report.gap <= 0.01  # y_max is 1 here


def test_gap_shrinks_with_eps():
    # reported rather than strictly asserted: only the bound is a theorem,
    # but the realized gap should clearly fall over two orders of magnitude
    gaps = []
    for eps in (1e-2, 1e-3, 1e-4):
        r = np.random.default_rng(7)  # same draws, eps varies
        cis = make_cis(r, n_states=2, delta=0.25, eps=eps)
        gaps.append(verify_tyranny(cis).gap)
    print(f"gap by eps: {dict(zip((1e-2, 1e-3, 1e-4), gaps))}")
    assert gaps[2] < gaps[0]


def test_prior_lower_bound_fact():
    rng = np.random.default_rng(8)
    cis = make_cis(rng, n_states=3, eps=1e-3)
    model = build_pi_from_cis(cis)
    profile = classify_noise(cis)
    for a in cis.agents:
        if a == "iggy":
            continue
        eps = profile.eps[a]
        rho_min = float(cis.rho[a].min())
        assert model.priors[a].min() >= (1.0 - eps) * rho_min - 1e-15


def test_precondition_failures_are_explained():
    cis = load_scenario(scenario_path("tyranny_extreme"))
    # break completeness
    net = Network(np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]))
    broken = CISSpec(
        cis.states, cis.agents, cis.signals, cis.rho, cis.eta, net, cis.y
    )
    with pytest.raises(PreconditionError, match="complete"):
        verify_tyranny(broken)
    # informed agent with no near-certain signal at all
    eta = dict(cis.eta)
    eta["alice"] = np.array([[0.5, 0.5], [0.5, 0.5]])
    noisy = CISSpec(
        cis.states, cis.agents, cis.signals, cis.rho, eta, cis.network, cis.y
    )
    with pytest.raises(PreconditionError, match="alice"):
        verify_tyranny(noisy)


def test_validate_cis_flags_problems():
    cis = load_scenario(scenario_path("tyranny_extreme"))
    rho = dict(cis.rho)
    rho["iggy"] = np.array([1.0, 0.0])
    bad = CISSpec(
        cis.states, cis.agents, cis.signals, rho, cis.eta, cis.network, cis.y
    )
    assert any("full support" in v for v in validate_cis(bad))


def diameter_oracle(matrix):
    """Longest shortest path by a Python BFS from every source; pairs with
    no path do not count."""
    n = matrix.shape[0]
    best = 0
    for s in range(n):
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in np.nonzero(matrix[u])[0]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        best = max(best, max(dist.values()))
    return best


def test_path_length_matches_bfs_oracle():
    rng = np.random.default_rng(8)
    unreachable = 0
    for _ in range(60):
        n = int(rng.integers(1, 30))
        A = (rng.random((n, n)) < rng.uniform(0.02, 0.3)) * rng.random((n, n))
        unreachable += not joint_connectedness(A)[0]
        assert _bfs_diameter(A) == diameter_oracle(A)
    assert unreachable > 0
    for n_states in (2, 3, 4):
        cis = make_cis(rng, n_states=n_states, n_agents=3, ignorant_signals=3)
        report = verify_tyranny(cis)
        rounded = rounded_structure(cis, list(cis.agents[1:]))
        assert report.max_path_length == diameter_oracle(rounded.interaction.matrix)
