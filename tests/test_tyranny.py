import dataclasses
import math
import os
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from scipy.sparse.csgraph import shortest_path

from consensus_lab import tyranny
from consensus_lab.consensus import consensus_expectation
from consensus_lab.errors import PreconditionError
from consensus_lab.interaction import SparseRows, joint_connectedness
from consensus_lab.io import load_scenario, parse_scenario
from consensus_lab.model import BasicVariable, InterimBelief, ModelSpec, Network
from consensus_lab.spectral import mfpt
from consensus_lab.tyranny import (
    CISSpec,
    _bfs_diameter,
    _eps_noisy,
    build_pi_from_cis,
    classify_noise,
    rounded_structure,
    stationary_perturbation_bound,
    validate_cis,
    verify_tyranny,
)

from conftest import SCENARIOS, bench_gen, cis_scenario, pair_rows, same_layout, scenario_path


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
    assert np.array_equal(rounded.eta["alice"], cis.eta["alice"])
    model = build_pi_from_cis(cis)
    from consensus_lab.interaction import build_interaction_structure

    B = build_interaction_structure(model)
    assert np.array_equal(rounded.model.structure.matrix, B.matrix)


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


def test_a_one_state_chain_needs_no_passage():
    # with no ordered pair of distinct states the largest passage time was
    # the maximum of an empty array, a bare ValueError
    one = np.ones((1, 1))
    assert mfpt(one).max_off_diagonal() == 0.0
    res = stationary_perturbation_bound(one, one)
    assert (res.bound, res.max_passage_time, res.max_relative_error) == (0.0, 0.0, 0.0)
    assert res.satisfied is True


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


@pytest.mark.parametrize("fields, violation", [
    (dict(agents=("iggy",), network=Network([[1.0]], diagonal_allowed=True)),
     "agents: need at least two agents"),
    (dict(rho={"alice": [0.6, 0.3, 0.1]}), "rho.alice: expected one probability per state"),
    (dict(eta={"alice": [[1.0, 0.0]]}), "eta.alice: expected shape (2, 2)"),
    (dict(eta={"alice": [[1.5, -0.5], [0.0, 1.0]]}), "eta.alice: negative entry"),
    (dict(eta={"alice": [[0.9, 0.0], [0.0, 1.0]]}), "eta.alice.row[lo]: does not sum to 1"),
    (dict(network=Network([[0.0, 1.0], [1.0, 0.0]])),
     "network: dimension does not match the agent count"),
], ids=["one agent", "rho shape", "eta shape", "negative eta", "eta row sum",
        "network dimension"])
def test_each_cis_violation_is_reported(fields, violation):
    cis = load_scenario(scenario_path("tyranny_extreme"))
    # a per-agent field overrides that agent's entry only
    fields = {k: {**getattr(cis, k), **v} if k in ("rho", "eta") else v
              for k, v in fields.items()}
    assert validate_cis(dataclasses.replace(cis, **fields)) == [violation]


def test_tyranny_and_rounding_refusals_name_their_cause():
    cis = load_scenario(scenario_path("tyranny_extreme"))
    # alice's technology is exact, so she is nowhere uniformly noisy
    with pytest.raises(PreconditionError, match="^agent alice is not uniformly noisy: some"
                       " signal has zero probability under some state$"):
        verify_tyranny(cis, ignorant="alice")
    with pytest.raises(PreconditionError, match=r"^no payoff given: pass y or set spec\.y$"):
        verify_tyranny(dataclasses.replace(cis, y=None))
    # a third signal that no state sends leaves alice exact, but not one
    # signal per state
    three = dataclasses.replace(
        cis, signals={**cis.signals, "alice": ("a_lo", "a_hi", "a_x")},
        eta={**cis.eta, "alice": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]})
    with pytest.raises(PreconditionError, match=r"^agent alice: rounding needs exactly one"
                       r" signal per state, got 3 signals for 2 states$"):
        rounded_structure(three, ["alice"])


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
    # against the Python BFS and scipy's shortest paths, up to 300 signals
    rng = np.random.default_rng(8)
    unreachable = 0
    cases = [np.zeros((1, 1)), np.ones((1, 1)), np.eye(4), np.roll(np.eye(60), 1, axis=1)]
    for _ in range(60):
        n = int(rng.integers(1, 30))
        cases.append((rng.random((n, n)) < rng.uniform(0.02, 0.3)) * rng.random((n, n)))
    # sparse graphs have the longest paths; the Python oracle is slow on
    # dense large ones
    for n in (120, 300):
        for density in (0.5 / n, 2.0 / n, 6.0 / n, 0.05):
            cases.append((rng.random((n, n)) < density) * rng.random((n, n)))
    for A in cases:
        unreachable += not joint_connectedness(A)[0]
        dist = shortest_path(scipy.sparse.csr_matrix(A != 0), unweighted=True)
        assert _bfs_diameter(SparseRows.of(A)) == diameter_oracle(A) == int(
            dist[np.isfinite(dist)].max())
    assert unreachable > 0
    assert _bfs_diameter(SparseRows.of(cases[3])) == 59
    for n_states in (2, 3, 4):
        cis = make_cis(rng, n_states=n_states, n_agents=3, ignorant_signals=3)
        report = verify_tyranny(cis)
        rounded = rounded_structure(cis, list(cis.agents[1:]))
        assert report.max_path_length == diameter_oracle(rounded.model.structure.matrix)


def _digraph(rng, n, density):
    return (rng.random((n, n)) < density) * rng.random((n, n))


def _ring(n):
    return np.roll(np.eye(n), 1, axis=1)


def test_path_length_on_long_dense_and_degenerate_graphs():
    # 28 more seeded digraphs, 100 with the test above: directed rings, on
    # each side of a 64-signal word too, a sparse and two 67%-dense large
    # graphs, no edges, a lone self-loop, and graphs with sinks and
    # isolated signals, whose stored -0.0 cells are not edges
    rng = np.random.default_rng(40)
    sizes = (63, 64, 65, 128, 129, 300, 1000)
    cases = [_ring(n) for n in sizes]
    cases += [_digraph(rng, 600, 3 / 600), _digraph(rng, 600, 0.67), _digraph(rng, 1000, 0.67)]
    loop = np.zeros((40, 40))
    loop[7, 7] = 1.0
    cases += [np.zeros((40, 40)), loop]
    for _ in range(16):
        n = int(rng.integers(2, 80))
        A = _digraph(rng, n, rng.uniform(0.02, 0.3))
        A[rng.random(n) < 0.2] = 0.0
        isolated = rng.random(n) < 0.2
        A[isolated] = A[:, isolated] = -0.0
        cases.append(A)
    assert len(cases) == 28
    lengths = []
    for A in cases:
        dist = shortest_path(scipy.sparse.csr_matrix(A != 0), unweighted=True)
        lengths.append(_bfs_diameter(SparseRows.of(A)))
        assert lengths[-1] == int(dist[np.isfinite(dist)].max())
        if len(A) < 100:
            assert lengths[-1] == diameter_oracle(A)
    assert lengths[:len(sizes)] == [n - 1 for n in sizes]
    assert lengths[len(sizes) + 1:len(sizes) + 5] == [2, 2, 0, 0]
    # and a graph without signals, which scipy does not take
    assert _bfs_diameter(SparseRows.of(np.zeros((0, 0)))) == 0


def test_path_length_of_a_1000_signal_ring_takes_seconds():
    # one n x n product per breadth-first level took about 44 s
    ring = SparseRows.of(_ring(1000))
    start = time.perf_counter()
    assert _bfs_diameter(ring) == 999
    assert time.perf_counter() - start < 5.0


def test_path_length_of_a_dense_1000_signal_graph_holds_no_n_by_n_array():
    # the 0/1 adjacency matrix, the frontiers and their product peaked at
    # 31.4 MB; the edges' rows and one gathered word row are about 11 MB
    rows = SparseRows.of(_digraph(np.random.default_rng(41), 1000, 0.67))
    tracemalloc.start()
    try:
        assert _bfs_diameter(rows) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000


def dense_cis(rng, n_states=12, eps_range=(0.005, 0.05)):
    """Tyranny-ready model in the style of the benchmark's ``cis_dense``
    family: a uniformly noisy first agent and two eps-noisy agents whose
    certain signals are a random bijection, on a complete network."""
    states = tuple(f"w{k}" for k in range(n_states))
    agents = ("iggy", "ann", "bob")
    signals = {a: tuple(f"{a[0]}{k}" for k in range(n_states)) for a in agents}
    eps = rng.uniform(*eps_range)
    eta = {"iggy": 0.5 / n_states + 0.5 * rng.dirichlet(np.ones(n_states), size=n_states)}
    for a in ("ann", "bob"):
        rows = eps * rng.dirichlet(np.ones(n_states), size=n_states)
        top = rng.permutation(n_states)
        rows[np.arange(n_states), top] = 0.0
        rows[np.arange(n_states), top] = 1.0 - rows.sum(axis=1)
        eta[a] = rows
    rho = {a: 0.2 / n_states + 0.8 * rng.dirichlet(np.ones(n_states)) for a in agents}
    g = 0.1 + 0.8 * rng.dirichlet(np.ones(2), size=3)
    g = np.insert(g.ravel(), [0, 3, 6], 0.0).reshape(3, 3)
    y = BasicVariable(rng.random(n_states), 1.0)
    return CISSpec(states, agents, signals, rho, eta, Network(g), y)


def bayes_reference(cis):
    """The per-signal Bayes construction: one belief per signal, stored by
    the spec; the reference for the block construction."""
    beliefs, priors = {}, {}
    for a in cis.agents:
        mu = priors[a] = cis.rho[a] @ cis.eta[a]
        for ti, t in enumerate(cis.signals[a]):
            if mu[ti] <= 0.0:
                raise PreconditionError(f"signal {t} of agent {a} has zero prior probability")
            posterior = cis.eta[a][:, ti] * cis.rho[a] / mu[ti]
            beliefs[t] = InterimBelief(
                posterior, {j: posterior @ cis.eta[j] for j in cis.agents if j != a})
    return ModelSpec(cis.states, cis.agents, cis.signals, beliefs, cis.network,
                     priors=priors, y=cis.y)


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _cis_fixtures():
    rng = np.random.default_rng(13)
    yield load_scenario(scenario_path("tyranny_extreme"))
    for _ in range(3):
        yield parse_scenario(cis_scenario(rng, n_agents=3, n_states=30))
    yield parse_scenario(cis_scenario(rng, n_agents=3, n_states=7, n_signals=11))
    for _ in range(2):
        yield dense_cis(rng)
    yield make_cis(rng, n_states=3)


def test_block_construction_has_the_bits_of_per_signal_bayes():
    for cis in _cis_fixtures():
        model, ref = build_pi_from_cis(cis), bayes_reference(cis)
        assert _same_bits(model.beliefs.states, ref.beliefs.states)
        assert same_layout(model.beliefs, ref.beliefs)
        assert model.priors.keys() == ref.priors.keys()
        for a, mu in ref.priors.items():
            assert _same_bits(model.priors[a], mu)
        assert not model.beliefs.irregular.any()
        assert _same_bits(model.structure.matrix, ref.structure.matrix)
        for t, b in ref.beliefs.items():
            assert _same_bits(model.beliefs[t].state_marginal, b.state_marginal)
            assert model.beliefs[t].signal_marginals.keys() == b.signal_marginals.keys()
            for j, m in b.signal_marginals.items():
                assert _same_bits(model.beliefs[t].signal_marginals[j], m)


def test_block_construction_builds_no_per_signal_beliefs(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("per-signal construction")

    monkeypatch.setattr(InterimBelief, "__init__", refuse)
    monkeypatch.setattr(tyranny.Beliefs, "stack", refuse)
    cis = parse_scenario(cis_scenario(np.random.default_rng(14), n_states=6))
    build_pi_from_cis(cis).structure


def test_posterior_blocks_have_the_bits_of_one_product_per_row():
    # each block is one batched product, a stack of 1 x k rows; every row
    # must keep the bits of the lone product p @ eta[j], over shapes that
    # include one state, one signal and the benchmark's 50 x 50
    rng = np.random.default_rng(2205)
    agents = ("a", "b", "c")
    g = np.full((3, 3), 0.5) - 0.5 * np.eye(3)
    for n_states, counts in [(1, (1, 4, 2)), (4, (1, 1, 6)), (6, (3, 1, 9)),
                             (17, (31, 1, 5)), (50, (50, 50, 50))]:
        cis = CISSpec(
            tuple(f"w{k}" for k in range(n_states)), agents,
            {x: tuple(f"{x}{k}" for k in range(c)) for x, c in zip(agents, counts)},
            {x: rng.dirichlet(np.ones(n_states)) for x in agents},
            {x: rng.dirichlet(np.ones(c), size=n_states) for x, c in zip(agents, counts)},
            Network(g),
        )
        beliefs = build_pi_from_cis(cis).beliefs
        for i, a in enumerate(agents):
            table = beliefs.states[beliefs.index.blocks[i]]
            for j in agents:
                if j != a:
                    rows = np.array([p @ cis.eta[j] for p in table])
                    assert _same_bits(pair_rows(beliefs, a, j)[0], rows), (n_states, a, j)


def test_an_agent_without_signals_builds_as_the_reference():
    cis = load_scenario(scenario_path("tyranny_extreme"))
    g = np.full((4, 4), 1.0 / 3.0)
    np.fill_diagonal(g, 0.0)
    mute = CISSpec(
        cis.states, cis.agents + ("mute",), {**cis.signals, "mute": ()},
        {**cis.rho, "mute": np.array([0.5, 0.5])},
        {**cis.eta, "mute": np.zeros((2, 0))}, Network(g), cis.y,
    )
    model, ref = build_pi_from_cis(mute), bayes_reference(mute)
    assert _same_bits(model.beliefs.states, ref.beliefs.states)
    assert same_layout(model.beliefs, ref.beliefs)
    assert _same_bits(model.priors["mute"], ref.priors["mute"])
    assert list(model.beliefs) == list(ref.beliefs)
    assert _same_bits(model.structure.matrix, ref.structure.matrix)
    nobody = CISSpec(cis.states, (), {}, {}, {}, Network(np.zeros((0, 0))))
    assert _same_bits(build_pi_from_cis(nobody).beliefs.states,
                      bayes_reference(nobody).beliefs.states)


def eps_noisy_oracle(eta):
    """Smallest eps for which ``eta`` is at most eps-noisy, state by state
    and signal by signal, with the state-to-certain-signal map."""
    n_states, n_signals = eta.shape
    assignment = {}
    for th in range(n_states):
        row = eta[th]
        top = int(np.argmax(row))
        if np.count_nonzero(row == row[top]) > 1:
            return float("inf"), None
        assignment[th] = top
    if len(set(assignment.values())) != n_states:
        return float("inf"), None
    eps = 0.0
    for th, t in assignment.items():
        eps = max(eps, 1.0 - eta[th, t])
        others = [eta[o, t] for o in range(n_states) if o != th]
        if others:
            eps = max(eps, max(others))
    for th, t in assignment.items():
        for other_t in range(n_signals):
            if other_t != t and eta[th, other_t] >= 1.0 - eps and eps < 1.0:
                return float("inf"), None
    return float(eps), assignment


def _technology(rng):
    """A seeded technology: rectangular or square, near-certain, exact 0/1
    (signed zeros included), or coarsely rounded so that ties and entries
    at exactly 1 - eps are common."""
    n_states = int(rng.integers(0, 6))
    n_signals = int(rng.integers(1, 8))
    kind = rng.integers(4)
    if kind == 0:
        return rng.dirichlet(np.ones(n_signals), size=n_states)
    if kind == 1:
        eta = rng.uniform(0.0, 0.3) * rng.dirichlet(np.ones(n_signals), size=n_states)
        top = rng.choice(n_signals, size=n_states, replace=n_states > n_signals)
        eta[np.arange(n_states), top] += 1.0 - eta.sum(axis=1)
        return eta
    if kind == 2:
        eta = np.where(rng.random((n_states, n_signals)) < 0.5, -0.0, 0.0)
        eta[np.arange(n_states), rng.integers(n_signals, size=n_states)] = 1.0
        return eta
    return np.round(rng.dirichlet(np.ones(n_signals), size=n_states), int(rng.integers(1, 3)))


def test_eps_noisy_matches_the_loop_oracle():
    rng = np.random.default_rng(15)
    # no states and no signals; entries above one, where only the initial
    # zero keeps eps from being -0.0
    hand = [np.zeros((0, 0)), np.array([[1.5, -0.0], [-0.5, 1.5]])]
    found = set()
    for eta in hand + [_technology(rng) for _ in range(6000)]:
        eps, assignment = _eps_noisy(eta)
        want_eps, want_assignment = eps_noisy_oracle(eta)
        assert type(eps) is float
        assert eps == want_eps and math.copysign(1.0, eps) == math.copysign(1.0, want_eps)
        assert assignment == want_assignment
        found.add((len(eta) == 0, eps == float("inf"), 0.0 < eps < 1.0))
    # no states, refusals and finite nonzero eps all occur
    assert {(True, False, False), (False, True, False), (False, False, True)} <= found


def _gap_oracle(cis, model, hat):
    """Largest change of any interim marginal, signal by signal, and every
    (signal, counterpart) over its agent's bound, in index order."""
    n_signals = sum(len(cis.signals[a]) for a in cis.agents)
    eps = max(classify_noise(cis).eps[a] for a in cis.agents[1:])
    gap_max, over = 0.0, []
    for a in cis.agents:
        bound = 4.0 * cis.n_states * n_signals * eps / float(cis.rho[a].min())
        for t in cis.signals[a]:
            for j, m in model.beliefs[t].signal_marginals.items():
                gap = float(np.max(np.abs(m - hat.beliefs[t].signal_marginals[j])))
                gap_max = max(gap_max, gap)
                if gap > bound + 1e-12:
                    over.append(f"at {t} about {j}")
    return gap_max, over


def test_belief_gap_matches_the_per_signal_oracle():
    rng = np.random.default_rng(16)
    fixtures = [load_scenario(scenario_path("tyranny_extreme")), dense_cis(rng)]
    fixtures += [make_cis(rng, n_states=n, eps=e) for n in (2, 3) for e in (1e-3, 1e-5)]
    for cis in fixtures:
        report = verify_tyranny(cis)
        rounded = rounded_structure(cis, cis.agents[1:])
        assert (report.belief_gap_max, []) == _gap_oracle(cis, cis.model, rounded.model)


def test_belief_gap_violation_names_the_first_signal_and_counterpart(monkeypatch):
    # a tiny eps makes the bound tiny; the planted gaps keep every
    # marginal a probability vector, so the consensus solves still run
    cis = dense_cis(np.random.default_rng(17), n_states=4, eps_range=(1e-9, 2e-9))
    rounded = rounded_structure(cis, cis.agents[1:])
    beliefs = dict(rounded.model.beliefs.items())
    for t, j in (("b2", "ann"), ("a3", "iggy"), ("a1", "bob")):
        old = beliefs[t]
        beliefs[t] = InterimBelief(old.state_marginal, {
            **old.signal_marginals, j: 0.9 * old.signal_marginals[j] + 0.1 / 4})
    m = rounded.model
    broken = ModelSpec(m.states, m.agents, m.signals, beliefs, m.network, m.priors, m.y)
    # the rounded spec's kept model is the planted one
    vars(rounded)["model"] = broken
    monkeypatch.setattr(tyranny, "rounded_structure", lambda *args: rounded)
    first = _gap_oracle(cis, cis.model, broken)[1][0]
    assert first == "at a1 about bob"
    with pytest.raises(ArithmeticError, match=f"belief perturbation bound violated {first}$"):
        verify_tyranny(cis)


def test_belief_gap_violation_across_two_widths_names_the_first_in_index_order(monkeypatch):
    # iggy's three signals make a stack of width 3 (the beliefs about iggy)
    # beside the width-2 stack of the beliefs about the informed agents;
    # the first violation in index order, (p1_0, iggy), lies in the stack
    # iterated second, ahead of (p1_0, inf2) and (p1_1, inf2) in the first
    cis = make_cis(np.random.default_rng(18), n_states=2, delta=0.1, eps=1e-9,
                   ignorant_signals=3)
    rounded = rounded_structure(cis, cis.agents[1:])
    assert list(cis.model.beliefs.stacks) == list(rounded.model.beliefs.stacks) == [2, 3]
    report = verify_tyranny(cis)
    assert (report.belief_gap_max, []) == _gap_oracle(cis, cis.model, rounded.model)
    beliefs = dict(rounded.model.beliefs.items())
    for t, j in (("p1_1", "inf2"), ("p2_0", "iggy"), ("p1_0", "inf2"), ("p1_0", "iggy")):
        old = beliefs[t]
        beliefs[t] = InterimBelief(old.state_marginal, {
            **old.signal_marginals, j: 0.9 * old.signal_marginals[j] + 0.1 / len(cis.signals[j])})
    m = rounded.model
    broken = ModelSpec(m.states, m.agents, m.signals, beliefs, m.network, m.priors, m.y)
    vars(rounded)["model"] = broken
    monkeypatch.setattr(tyranny, "rounded_structure", lambda *args: rounded)
    over = _gap_oracle(cis, cis.model, broken)[1]
    assert over == ["at p1_0 about iggy", "at p1_0 about inf2", "at p1_1 about inf2",
                    "at p2_0 about iggy"]
    first = over[0]
    with pytest.raises(ArithmeticError, match=f"belief perturbation bound violated {first}$"):
        verify_tyranny(cis)


def test_noise_profile_holds_python_floats_and_texts_show_them():
    cis = load_scenario(scenario_path("tyranny_extreme"))
    eta = dict(cis.eta, alice=np.array([[0.4, 0.35, 0.25], [0.2, 0.5, 0.3]]))
    signals = dict(cis.signals, alice=("a_lo", "a_hi", "a_mid"))
    mid = CISSpec(cis.states, cis.agents, signals, cis.rho, eta, cis.network, cis.y)
    profile = classify_noise(mid)
    assert {type(e) for e in profile.eps.values()} == {float}
    assert profile.eps["alice"] == 0.6
    with pytest.raises(PreconditionError) as exc:
        verify_tyranny(mid)
    assert str(exc.value) == (
        "informed agents must be at most eps-noisy with eps < 1/2;"
        " failing: ['alice'] with eps [0.6]")
    with pytest.raises(PreconditionError) as exc:
        rounded_structure(mid, ["alice"])
    assert str(exc.value) == (
        "agent alice: no unique near-certain signal per state (eps=0.6); cannot round")


def test_non_finite_payoffs_and_unknown_agents_are_refused():
    cis = load_scenario(scenario_path("tyranny_extreme"))
    for y in ([np.nan, 1.0], [0.0, np.inf]):
        with pytest.raises(PreconditionError, match="^y: every value must be finite$"):
            verify_tyranny(cis, y=y)
    with pytest.raises(PreconditionError, match="^ignorant: unknown agent 'nobody'$"):
        verify_tyranny(cis, ignorant="nobody")


def _mfpt_oracle(B, p):
    """Passage times and residual by the expression that read the kept
    dense copy of ``B``: ``Z = inv(I - B + p)``, ``(diag Z - Z) / p``."""
    n = len(B)
    Z = np.linalg.inv(np.eye(n) - B + p)
    M = (np.diag(Z) - Z) / p
    M[np.diag_indices(n)] = 1.0 / p
    hit = np.array(M)
    np.fill_diagonal(hit, 0.0)
    return M, float(np.max(np.abs(M - (1.0 + B @ hit))))


def test_tyranny_path_gives_the_bits_of_its_dense_copy_forms():
    # mfpt, the rounding gap and the path length read B from its stored
    # rows, in place; each gives the bits of the expression on the kept
    # dense copy.  The inverse and the residual product are the calls that
    # depend on the BLAS thread count, so CI runs this under one and two
    structures = []
    for name in sorted(os.listdir(SCENARIOS)):
        spec = load_scenario(os.path.join(SCENARIOS, name))
        structures.append((spec.model if isinstance(spec, CISSpec) else spec).structure)
    gen = bench_gen()
    for k in range(3):
        cis = parse_scenario(gen.cis_dense(np.random.default_rng([1, k])))
        report = verify_tyranny(cis)
        B, rounded = cis.model.structure, rounded_structure(cis, cis.agents[1:]).model.structure
        structures += [B, rounded]
        assert report.perturbation.matrix_gap == float(
            np.max(np.abs(B.matrix - rounded.matrix).sum(axis=1)))
        assert report.max_path_length == _bfs_diameter(SparseRows.of(rounded.matrix)) == 2
    irreducible = [s for s in structures if s.irreducible]
    assert len(irreducible) == 3 + 6
    for structure in irreducible:
        result = mfpt(structure)
        M, residual = _mfpt_oracle(structure.matrix, structure.stationary[0])
        assert result.values.tobytes() == M.tobytes()
        assert np.float64(result.residual).tobytes() == np.float64(residual).tobytes()
    assert mfpt(np.ones((1, 1))).max_off_diagonal() == 0.0
