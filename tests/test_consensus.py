import dataclasses

import numpy as np
import pytest

from consensus_lab.consensus import (
    consensus_expectation,
    cps_check,
    first_order_vector,
    higher_order_expectations,
    pseudopriors,
    verify_cps_decomposition,
)
from consensus_lab.errors import CapabilityError, PreconditionError, ReducibleError
from consensus_lab.interaction import build_interaction_structure
from consensus_lab.io import load_scenario
from consensus_lab.model import (
    BasicVariable,
    InterimBelief,
    ModelSpec,
    Network,
    ex_ante_expectation,
)
from consensus_lab.spectral import eigenvector_centrality

from conftest import (
    random_cps_model,
    random_model,
    recursive_hoae,
    scenario_path,
    sparse_reducible_model,
)


def test_first_order_is_expectation_map():
    rng = np.random.default_rng(0)
    spec = random_model(rng)
    x1 = higher_order_expectations(spec, 1)
    expected = [
        float(spec.beliefs[t].state_marginal @ spec.y.values)
        for a in spec.agents
        for t in spec.signals[a]
    ]
    assert np.allclose(x1, expected, atol=0)


def test_order_zero_rejected():
    rng = np.random.default_rng(1)
    spec = random_model(rng)
    with pytest.raises(PreconditionError):
        higher_order_expectations(spec, 0)


def test_cycle_third_order_is_composition_of_expectations():
    spec = load_scenario(scenario_path("cycle"))
    y = spec.y.values
    # compose the three deterministic belief maps by hand
    E = {}
    for a in spec.agents:
        for t in spec.signals[a]:
            E[t] = spec.beliefs[t]
    x3 = higher_order_expectations(spec, 3)

    def expect_of(agent, t, fn):
        # agent's expectation of a per-signal function of his watched neighbor
        watched = {"one": "two", "two": "three", "three": "one"}[agent]
        m = E[t].signal_marginals[watched]
        return sum(
            float(m[k]) * fn(tj) for k, tj in enumerate(spec.signals[watched])
        )

    def first(t):
        return float(E[t].state_marginal @ y)

    def second(agent):
        def f(t):
            nxt = {"one": "two", "two": "three", "three": "one"}[agent]
            return expect_of(agent, t, first) if False else None

        return f

    # direct composition for agent one: E1 E2 E3 y at each of one's signals
    def e3(t):
        return first(t)

    def e2(t):
        return expect_of("two", t, e3)

    def e1(t):
        return expect_of("one", t, e2)

    for k, t in enumerate(spec.signals["one"]):
        assert x3[k] == pytest.approx(e1(t), abs=1e-15)


def test_matrix_power_matches_recursion_oracle():
    rng = np.random.default_rng(2)
    for _ in range(15):
        spec = random_model(
            rng, n_agents=int(rng.integers(2, 4)), max_signals=3, network_density=0.8
        )
        if len(spec.all_signals()) > 12:
            continue
        y = spec.y.values
        for n in (1, 2, 4, 8):
            ours = higher_order_expectations(spec, n)
            oracle = recursive_hoae(spec, y, n)
            assert np.max(np.abs(ours - oracle)) < 1e-12


def test_hull_bounds_hold_for_all_orders():
    rng = np.random.default_rng(3)
    spec = random_model(rng, n_agents=3)
    x1 = higher_order_expectations(spec, 1)
    for n in range(2, 12):
        xn = higher_order_expectations(spec, n)
        assert xn.min() >= x1.min() - 1e-12
        assert xn.max() <= x1.max() + 1e-12


def test_agent_specific_values_accepted():
    rng = np.random.default_rng(4)
    spec = random_model(rng, n_agents=2)
    f = rng.random(len(spec.all_signals()))
    assert np.allclose(higher_order_expectations(spec, 1, f=f), f)
    B = build_interaction_structure(spec).matrix
    assert np.allclose(higher_order_expectations(spec, 3, f=f), B @ (B @ f))


def test_complete_information_consensus_is_centrality_average():
    gamma = np.array([[0.0, 0.4, 0.6], [0.7, 0.0, 0.3], [0.5, 0.5, 0.0]])
    agents = ("p", "q", "r")
    beliefs = {}
    marg = {a: [1.0] for a in agents}
    state_beliefs = {"p": [0.9, 0.1], "q": [0.4, 0.6], "r": [0.2, 0.8]}
    for a in agents:
        beliefs[f"t_{a}"] = InterimBelief(
            state_beliefs[a], {b: [1.0] for b in agents if b != a}
        )
    spec = ModelSpec(
        ("lo", "hi"),
        agents,
        {a: (f"t_{a}",) for a in agents},
        beliefs,
        Network(gamma),
        y=BasicVariable([0.0, 1.0], 1.0),
    )
    res = consensus_expectation(spec)
    e = eigenvector_centrality(gamma)
    assert np.allclose(res.weights, e, atol=1e-12)
    manual = sum(
        e[i] * float(np.dot(state_beliefs[a], [0.0, 1.0]))
        for i, a in enumerate(agents)
    )
    assert res.value == pytest.approx(manual, abs=1e-12)


def test_constant_payoff_gives_constant_consensus():
    rng = np.random.default_rng(5)
    spec = random_model(rng)
    res = consensus_expectation(spec, y=np.full(spec.n_states, 0.37))
    assert res.value == pytest.approx(0.37, abs=1e-12)


def test_consensus_close_to_high_beta_game():
    from consensus_lab.game import solve_beta_game

    rng = np.random.default_rng(6)
    for _ in range(5):
        spec = random_model(rng, n_agents=3, full_support=True)
        res = consensus_expectation(spec)
        sol = solve_beta_game(spec, 0.9999)
        assert np.max(np.abs(sol.actions - res.value)) < 1e-3


def test_reducible_consensus_per_component_and_absorption():
    spec = load_scenario(scenario_path("counterexample"))
    res = consensus_expectation(spec)
    assert not res.irreducible
    assert res.value is None
    assert {c.signals: c.value for c in res.components} == {
        ("a1", "a2", "a3"): pytest.approx(1.0, abs=1e-12),
        ("b1", "b2", "b3"): pytest.approx(0.0, abs=1e-12),
    }
    # no transient signals here: absorption rows are one-hot
    assert np.allclose(res.absorption.sum(axis=1), 1.0)


def test_single_terminal_component_value():
    spec = load_scenario(scenario_path("case2"))
    res = consensus_expectation(spec)
    assert not res.irreducible
    assert res.value == pytest.approx(1.0, abs=1e-12)
    # every transient signal is absorbed by the single terminal component
    assert np.allclose(res.absorption, 1.0)


def test_pseudopriors_identity_and_representation():
    rng = np.random.default_rng(7)
    for _ in range(8):
        spec = random_model(rng, n_agents=3, full_support=True)
        lam = pseudopriors(spec)
        e = eigenvector_centrality(spec.network)
        blocks = spec.beliefs.index.blocks
        for k in range(10):
            y = rng.random(spec.n_states)
            res = consensus_expectation(spec, y)
            fvec = first_order_vector(spec, y)
            rebuilt = sum(
                e[i] * ex_ante_expectation(spec, a, lam[a], fvec[blocks[i]])
                for i, a in enumerate(spec.agents)
            )
            assert abs(res.value - rebuilt) < 1e-10


def test_centrality_sum_identity():
    rng = np.random.default_rng(8)
    for _ in range(10):
        spec = random_model(rng, n_agents=3, full_support=True)
        res = consensus_expectation(spec)
        e = res.centralities
        blocks = res.structure.index.blocks
        for k, a in enumerate(spec.agents):
            assert res.weights[blocks[k]].sum() == pytest.approx(
                e[k], abs=1e-10
            )


def test_pseudopriors_reducible_raises():
    spec = load_scenario(scenario_path("counterexample"))
    with pytest.raises(ReducibleError):
        pseudopriors(spec)


def test_complete_information_pseudopriors_are_point_masses():
    gamma = np.array([[0.0, 1.0], [1.0, 0.0]])
    beliefs = {
        "ta": InterimBelief([0.6, 0.4], {"q": [1.0]}),
        "tb": InterimBelief([0.3, 0.7], {"p": [1.0]}),
    }
    spec = ModelSpec(
        ("lo", "hi"),
        ("p", "q"),
        {"p": ("ta",), "q": ("tb",)},
        beliefs,
        Network(gamma),
        y=BasicVariable([0.0, 1.0], 1.0),
    )
    lam = pseudopriors(spec)
    assert np.allclose(lam["p"], [1.0]) and np.allclose(lam["q"], [1.0])


def test_cps_check_on_constructed_instance():
    rng = np.random.default_rng(9)
    spec = random_cps_model(rng)
    check = cps_check(spec)
    assert check.holds
    assert check.residual < 1e-12


def test_cps_check_holds_on_every_common_prior_model():
    # a common prior over signal profiles makes the ex ante weights
    # stationary, so the residual is rounding only
    worst = 0.0
    for seed in range(200):
        rng = np.random.default_rng([15, seed])
        spec = random_cps_model(rng, n_agents=int(rng.integers(2, 5)),
                                n_states=int(rng.integers(2, 4)),
                                n_signals=int(rng.integers(2, 5)))
        check = cps_check(spec)
        assert check.holds
        worst = max(worst, check.residual)
    assert worst < 1e-14


def test_cps_check_detects_perturbation():
    rng = np.random.default_rng(10)
    spec = random_cps_model(rng, n_agents=2)
    a, b = spec.agents
    t = spec.signals[a][0]
    belief = spec.beliefs[t]
    moved = np.array(belief.signal_marginals[b])
    moved[0] += 1e-3
    moved[1] -= 1e-3
    beliefs = dict(spec.beliefs)
    beliefs[t] = InterimBelief(belief.state_marginal, {b: moved})
    check = cps_check(dataclasses.replace(spec, beliefs=beliefs))
    assert not check.holds
    # the shifted mass, weighted by a's centrality (1/2) and the signal's
    # prior, leaves one of b's signals and reaches the other
    mu_t = float(spec.priors[a][0])
    assert check.residual == pytest.approx(mu_t * 1e-3, rel=1e-9)


def stationarity_residual(spec):
    """``‖p̂B − p̂‖₁`` summed one belief entry at a time, without ``B``."""
    e = eigenvector_centrality(spec.network)
    mass = {t: e[i] * spec.priors[a][k]
            for i, a in enumerate(spec.agents) for k, t in enumerate(spec.signals[a])}
    flow = dict.fromkeys(mass, 0.0)
    for i, a in enumerate(spec.agents):
        for t in spec.signals[a]:
            for j, b in enumerate(spec.agents):
                w = spec.network.weights[i, j]
                if w == 0:
                    continue
                if b == a:
                    flow[t] += mass[t] * w
                    continue
                for u, q in zip(spec.signals[b], spec.beliefs[t].signal_marginals[b]):
                    flow[u] += mass[t] * w * q
    return sum(abs(flow[t] - mass[t]) for t in mass)


def test_cps_check_gives_a_residual_on_a_100_agent_marginal_model():
    # one product with B: the check once built a tensor with an axis per
    # agent, and refused marginal beliefs because of it
    spec = sparse_reducible_model(np.random.default_rng(5), n_agents=100, n_signals=4)
    uniform = {a: np.full(4, 0.25) for a in spec.agents}
    spec = dataclasses.replace(spec, priors=uniform)
    check = cps_check(spec)
    assert not check.holds
    assert check.residual == pytest.approx(stationarity_residual(spec), rel=1e-12)
    assert check.residual > 0.01


def test_cps_check_holds_without_a_common_prior_over_profiles():
    # three binary agents whose signals differ pairwise with probability
    # 0.9: no joint over profiles has these marginals, but uniform priors
    # are stationary
    flip = [[0.1, 0.9], [0.9, 0.1]]
    agents = ("p", "q", "r")
    signals = {a: (f"{a}0", f"{a}1") for a in agents}
    beliefs = {t: InterimBelief([0.3 + 0.4 * k, 0.7 - 0.4 * k],
                                {b: flip[k] for b in agents if b != a})
               for a in agents for k, t in enumerate(signals[a])}
    gamma = Network([[0.0, 0.5, 0.5], [0.3, 0.0, 0.7], [0.6, 0.4, 0.0]])
    spec = ModelSpec(("lo", "hi"), agents, signals, beliefs, gamma,
                     priors={a: [0.5, 0.5] for a in agents},
                     y=BasicVariable([0.0, 1.0], 1.0))
    check = cps_check(spec)
    assert check.holds
    assert check.residual <= 1e-15 and stationarity_residual(spec) <= 1e-15
    assert verify_cps_decomposition(spec).gap <= 1e-15


def test_cps_check_needs_a_network_with_centralities():
    spec = random_cps_model(np.random.default_rng(16), n_agents=3)
    split = Network([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
    spec = dataclasses.replace(spec, network=split)
    with pytest.raises(ReducibleError):
        cps_check(spec)
    with pytest.raises(CapabilityError, match="priors"):
        cps_check(dataclasses.replace(spec, priors=None))


def test_cps_check_names_an_agent_without_a_prior():
    spec = random_cps_model(np.random.default_rng(13), n_agents=3)
    partial = dict(spec.priors)
    del partial["ag1"]
    spec = dataclasses.replace(spec, priors=partial)
    for check in (cps_check, verify_cps_decomposition):
        with pytest.raises(CapabilityError, match="ag1 has none"):
            check(spec)


def test_ladder_cycle_beliefs_admit_no_common_prior():
    # certainty beliefs whose consensus depends on the orientation of the
    # network cannot be consistent with a common prior over signals
    spec = load_scenario(scenario_path("case2"))
    K = 5
    agents = spec.agents
    beliefs = {}
    point = np.eye(K)
    for i, a in enumerate(agents):
        left = agents[(i - 1) % 3]
        right = agents[(i + 1) % 3]
        for k in range(1, K + 1):
            t = spec.signals[a][k - 1]
            up = min(k + 1, K) - 1
            down = max(k - 1, 1) - 1
            beliefs[t] = InterimBelief(point[k - 1], {left: point[up], right: point[down]})
    for seed in range(3):
        r = np.random.default_rng(seed)
        priors = {a: r.dirichlet(np.ones(K)) for a in agents}
        ladder = ModelSpec(
            spec.states, agents, spec.signals, beliefs, spec.network,
            priors=priors, y=spec.y,
        )
        check = cps_check(ladder)
        assert not check.holds
        assert 0.9 < check.residual == pytest.approx(stationarity_residual(ladder))


def test_cps_decomposition_holds_and_full_common_prior_gives_mean():
    rng = np.random.default_rng(13)
    spec = random_cps_model(rng, common_state_belief=True)
    report = verify_cps_decomposition(spec)
    assert report.passed
    assert report.common_expectation is not None
    assert report.common_gap <= 1e-9


def test_cps_decomposition_across_two_networks():
    rng = np.random.default_rng(14)
    spec = random_cps_model(rng, n_agents=3)
    gamma2 = np.array([[0.0, 0.9, 0.1], [0.2, 0.0, 0.8], [0.6, 0.4, 0.0]])
    alt = ModelSpec(
        spec.states, spec.agents, spec.signals, spec.beliefs,
        Network(gamma2), priors=spec.priors, y=spec.y,
    )
    for s in (spec, alt):
        report = verify_cps_decomposition(s)
        assert report.passed
        assert report.gap <= 1e-9
    # centralities differ, so the weighted averages genuinely move
    e1 = eigenvector_centrality(spec.network)
    e2 = eigenvector_centrality(alt.network)
    assert np.max(np.abs(e1 - e2)) > 1e-3


CPS_MODELS = {
    "cps.json": lambda: load_scenario(scenario_path("cps")),
    "random cps model": lambda: random_cps_model(np.random.default_rng(17), n_agents=3),
}


@pytest.mark.parametrize("make", CPS_MODELS.values(), ids=CPS_MODELS.keys())
def test_cps_decomposition_reads_y_in_every_form(make):
    # an array over states was read as per-signal values: on cps.json the
    # prior expectations came out 0.5/0.5 and the check failed
    spec = make()
    want = verify_cps_decomposition(spec)
    assert want.passed
    for y in (spec.y, spec.y.values):
        assert verify_cps_decomposition(spec, y=y) == want


def test_consensus_invariant_under_relabeling():
    rng = np.random.default_rng(15)
    spec = random_model(rng, n_agents=3, full_support=True)
    res = consensus_expectation(spec)

    perm_states = list(rng.permutation(spec.n_states))
    states = tuple(spec.states[k] for k in perm_states)
    y = BasicVariable(spec.y.values[perm_states], spec.y.bound)
    beliefs = {}
    signals = {}
    for a in spec.agents:
        perm = list(rng.permutation(len(spec.signals[a])))
        signals[a] = tuple(spec.signals[a][k] for k in perm)
    for a in spec.agents:
        for t in spec.signals[a]:
            b = spec.beliefs[t]
            marginals = {}
            for j, m in b.signal_marginals.items():
                order = [spec.signals[j].index(tj) for tj in signals[j]]
                marginals[j] = np.asarray(m)[order]
            beliefs[t] = InterimBelief(b.state_marginal[perm_states], marginals)
    relabeled = ModelSpec(
        states, spec.agents, signals, beliefs, spec.network, y=y
    )
    res2 = consensus_expectation(relabeled)
    assert res2.value == pytest.approx(res.value, abs=1e-12)


def test_agent_specific_values_with_reducible_structure():
    # private per-signal values still yield one consensus per public event
    spec = load_scenario(scenario_path("counterexample"))
    f = np.array([0.9, 0.1, 0.8, 0.2, 0.7, 0.3])
    res = consensus_expectation(spec, f=f)
    assert res.value is None
    vals = {c.signals: c.value for c in res.components}
    assert vals[("a1", "a2", "a3")] == pytest.approx((0.9 + 0.8 + 0.7) / 3, abs=1e-12)
    assert vals[("b1", "b2", "b3")] == pytest.approx((0.1 + 0.2 + 0.3) / 3, abs=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_payoffs_are_refused(bad):
    # a NaN payoff used to give a NaN consensus
    spec = load_scenario(scenario_path("cps"))
    with pytest.raises(PreconditionError, match="^y: every value must be finite$"):
        consensus_expectation(spec, y=[bad, 1.0])
    f = np.zeros(len(spec.all_signals()))
    f[-1] = bad
    with pytest.raises(PreconditionError, match="^f: every value must be finite$"):
        consensus_expectation(spec, f=f)


def test_decomposition_and_first_order_refusals_name_their_cause():
    spec = load_scenario(scenario_path("cps"))
    # one rule states where the payoff comes from
    with pytest.raises(PreconditionError, match=r"^no payoff given: pass y or set spec\.y$"):
        first_order_vector(dataclasses.replace(spec, y=None))
    with pytest.raises(PreconditionError, match=r"^f: expected one value per signal \(4\),"
                       r" got shape \(3,\)$"):
        first_order_vector(spec, f=np.zeros(3))
    moved = dataclasses.replace(spec, priors={**spec.priors, "ann": [0.9, 0.1]})
    residual = cps_check(moved).residual
    with pytest.raises(PreconditionError, match=r"^the priors are not stationary under the"
                       rf" interaction structure \(residual {residual:.3e}\)$"):
        verify_cps_decomposition(moved)
    # each agent's signal reveals the state to both: two public events, and
    # the uniform priors are stationary on each
    exact = {"g": [1.0, 0.0], "b": [0.0, 1.0]}
    beliefs = {f"{x}{k}": InterimBelief(exact[s], {other: exact[s]})
               for x, other in (("a", "bob"), ("b", "ann")) for k, s in ((1, "g"), (2, "b"))}
    public = ModelSpec(("g", "b"), ("ann", "bob"), {"ann": ("a1", "a2"), "bob": ("b1", "b2")},
                       beliefs, Network([[0.0, 1.0], [1.0, 0.0]]),
                       priors={"ann": [0.5, 0.5], "bob": [0.5, 0.5]},
                       y=BasicVariable([0.0, 1.0], 1.0))
    assert cps_check(public).holds and len(public.structure.terminal) == 2
    with pytest.raises(PreconditionError,
                       match=r"^consensus is not unique \(several terminal components\)$"):
        verify_cps_decomposition(public)
