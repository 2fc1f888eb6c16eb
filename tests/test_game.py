import dataclasses
import json
import re
from io import StringIO

import numpy as np
import pytest

from consensus_lab.cli import main
from consensus_lab.consensus import consensus_expectation, first_order_vector
from consensus_lab.errors import PreconditionError
from consensus_lab.game import (
    best_response_iterates,
    convention_limit,
    heterogeneous_transform,
    rationalizable_bounds,
    solve_beta_game,
    solve_heterogeneous_game,
)
from consensus_lab.interaction import component_period
from consensus_lab.io import load_scenario
from consensus_lab.market import product_generating, simulate_batch
from consensus_lab.model import InterimBelief, Network, ex_ante_expectation
from consensus_lab.spectral import abel_limit, power_trajectory
from consensus_lab.tyranny import rounded_structure, stationary_perturbation_bound

from conftest import random_cps_model, random_model, scenario_path


def test_beta_zero_returns_first_order_values():
    rng = np.random.default_rng(0)
    spec = random_model(rng)
    sol = solve_beta_game(spec, 0.0)
    assert np.allclose(sol.actions, first_order_vector(spec), atol=1e-14)


def test_constant_payoff_fixed_point():
    rng = np.random.default_rng(1)
    spec = random_model(rng)
    for beta in (0.0, 0.5, 0.95):
        sol = solve_beta_game(spec, beta, y=np.full(spec.n_states, 0.4))
        assert np.allclose(sol.actions, 0.4, atol=1e-12)


def test_beta_one_rejected_with_pointer_to_convention():
    rng = np.random.default_rng(2)
    spec = random_model(rng)
    with pytest.raises(PreconditionError, match="convention_limit"):
        solve_beta_game(spec, 1.0)


def test_high_beta_spread_and_consensus_distance():
    rng = np.random.default_rng(3)
    spec = random_model(rng, n_agents=3, full_support=True)
    res = consensus_expectation(spec)
    sol = solve_beta_game(spec, 0.9999)
    spread = float(sol.actions.max() - sol.actions.min())
    assert spread <= 10.0 * (1.0 - 0.9999) * spec.y.bound
    assert np.max(np.abs(sol.actions - res.value)) < 1e-3


def test_fixed_point_residual_small():
    rng = np.random.default_rng(4)
    for _ in range(10):
        spec = random_model(rng, n_agents=3)
        sol = solve_beta_game(spec, float(rng.uniform(0.1, 0.99)))
        assert sol.residual <= 1e-10


def test_round_one_interval_and_width_shrinkage():
    rng = np.random.default_rng(5)
    spec = random_model(rng)
    beta, M = 0.8, spec.y.bound
    x1 = first_order_vector(spec)
    bounds = rationalizable_bounds(spec, beta, 12)
    lower1, upper1 = bounds[0]
    assert np.allclose(lower1, (1 - beta) * x1, atol=1e-14)
    assert np.allclose(upper1, (1 - beta) * x1 + beta * M, atol=1e-14)
    eps = np.finfo(float).eps
    for k, (lo, hi) in enumerate(bounds, start=1):
        width = hi - lo
        assert np.allclose(width, beta**k * M, rtol=0, atol=2 * eps)


def test_rationalizable_bounds_without_a_model_payoff():
    # with f and no spec.y, the interval's height is max|f|; with neither
    # payoff there is nothing to bound, and with only an array y there is
    # no action bound
    spec = dataclasses.replace(load_scenario(scenario_path("cps")), y=None)
    beta, f = 0.8, np.array([0.2, -0.9, 0.4, 0.1])
    bounds = rationalizable_bounds(spec, beta, 3, f=f)
    iterates = best_response_iterates(spec, beta, f=f, rounds=3)
    for k, (lo, hi) in enumerate(bounds, start=1):
        assert lo.tobytes() == iterates[k].tobytes()
        assert hi.tobytes() == (iterates[k] + beta**k * 0.9).tobytes()
    with pytest.raises(PreconditionError, match=r"^no payoff given: pass y or set spec\.y$"):
        rationalizable_bounds(spec, beta, 3)
    with pytest.raises(PreconditionError,
                       match=r"^no action bound available: set spec\.y or pass f$"):
        rationalizable_bounds(spec, beta, 3, y=[0.0, 1.0])


def test_solution_inside_every_round_interval():
    rng = np.random.default_rng(6)
    for _ in range(5):
        spec = random_model(rng, n_agents=3)
        beta = float(rng.uniform(0.3, 0.95))
        sol = solve_beta_game(spec, beta)
        for lo, hi in rationalizable_bounds(spec, beta, 10):
            assert np.all(sol.actions >= lo - 1e-12)
            assert np.all(sol.actions <= hi + 1e-12)


def test_contraction_rate_per_step():
    rng = np.random.default_rng(7)
    spec = random_model(rng, n_agents=3)
    beta = 0.9
    sol = solve_beta_game(spec, beta)
    iterates = best_response_iterates(spec, beta, rounds=50)
    errs = [np.max(np.abs(s - sol.actions)) for s in iterates]
    for k in range(len(errs) - 1):
        if errs[k] < 1e-12:
            break
        assert errs[k + 1] <= (beta + 1e-6) * errs[k]


def test_monotone_in_payoff():
    rng = np.random.default_rng(8)
    spec = random_model(rng, n_agents=3)
    y1 = rng.random(spec.n_states)
    y2 = y1 + rng.random(spec.n_states) * 0.5
    s1 = solve_beta_game(spec, 0.7, y=y1)
    s2 = solve_beta_game(spec, 0.7, y=y2)
    assert np.all(s2.actions >= s1.actions - 1e-12)


def test_heterogeneous_transform_identity_case():
    net = Network([[0.0, 1.0], [1.0, 0.0]])
    out, beta_hat = heterogeneous_transform(net, [0.7, 0.7])
    assert beta_hat == 0.7
    assert np.allclose(out.weights, net.weights)


def test_heterogeneous_transform_hand_example():
    net = Network([[0.0, 1.0], [1.0, 0.0]])
    out, beta_hat = heterogeneous_transform(net, [0.9, 0.5])
    assert beta_hat == 0.9
    assert out.weights[1, 1] == pytest.approx(8.0 / 9.0, abs=1e-15)
    assert out.weights[1, 0] == pytest.approx(1.0 / 9.0, abs=1e-15)
    assert out.weights[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(out.weights.sum(axis=1), 1.0)


def test_heterogeneous_transform_with_no_coordination_keeps_the_network():
    # every weight 0: the common weight is 0 and the network is unchanged
    net = Network([[0.0, 1.0], [1.0, 0.0]])
    out, beta_hat = heterogeneous_transform(net, [0.0, 0.0])
    assert beta_hat == 0.0
    assert out.weights.tobytes() == net.weights.tobytes()
    assert out.diagonal_allowed is net.diagonal_allowed
    spec = load_scenario(scenario_path("cps"))
    played = solve_heterogeneous_game(spec, [0.0, 0.0]).actions
    assert played.tobytes() == first_order_vector(spec).tobytes()


def test_heterogeneous_transform_rejects_weight_one():
    net = Network([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(PreconditionError):
        heterogeneous_transform(net, [1.0, 0.5])


def test_heterogeneous_transform_rejects_self_weights():
    net = Network([[0.5, 0.5], [1.0, 0.0]], diagonal_allowed=True)
    with pytest.raises(PreconditionError,
                       match="^heterogeneous_transform expects a zero-diagonal network$"):
        heterogeneous_transform(net, [0.9, 0.5])


def test_transformed_game_matches_direct_heterogeneous_solve():
    rng = np.random.default_rng(9)
    from consensus_lab.model import ModelSpec

    for _ in range(8):
        spec = random_model(rng, n_agents=3, full_support=True)
        betas = rng.uniform(0.2, 0.95, size=3)
        direct = solve_heterogeneous_game(spec, betas)
        net, beta_hat = heterogeneous_transform(spec.network, betas)
        transformed = ModelSpec(
            spec.states, spec.agents, spec.signals, spec.beliefs, net, y=spec.y
        )
        via_transform = solve_beta_game(transformed, beta_hat)
        assert np.max(np.abs(direct.actions - via_transform.actions)) < 1e-10


def test_convention_delegates_to_consensus_and_fits_rate():
    rng = np.random.default_rng(10)
    spec = random_model(rng, n_agents=3, full_support=True)
    report = convention_limit(spec)
    res = consensus_expectation(spec)
    assert report.consensus.value == res.value
    assert report.rate_constant is not None
    for g, b in zip(report.gaps, report.betas):
        assert g <= report.rate_constant * (1 - b) + 1e-12


def test_convention_case1_is_max_expectation():
    spec = load_scenario(scenario_path("case2"))
    report = convention_limit(spec)
    assert report.consensus.value == pytest.approx(1.0, abs=1e-12)


def test_convention_cps_is_weighted_prior_average():
    rng = np.random.default_rng(11)
    spec = random_cps_model(rng)
    from consensus_lab.consensus import verify_cps_decomposition

    report = convention_limit(spec)
    decomposition = verify_cps_decomposition(spec)
    assert report.consensus.value == pytest.approx(
        decomposition.weighted_prior_expectation, abs=1e-9
    )


def test_actions_stay_inside_payoff_range():
    rng = np.random.default_rng(12)
    for _ in range(10):
        spec = random_model(rng, n_agents=3)
        sol = solve_beta_game(spec, float(rng.uniform(0.0, 0.99)))
        assert sol.actions.min() >= -1e-12
        assert sol.actions.max() <= spec.y.bound + 1e-12


def _nan_belief(spec):
    """``spec`` with a NaN in one marginal that fills ``B``, and the refusal
    that names it."""
    t = spec.signals[spec.agents[0]][0]
    b = spec.beliefs[t]
    other = spec.agents[1]
    marg = np.array(b.signal_marginals[other])
    marg[0] = np.nan
    beliefs = dict(spec.beliefs)
    beliefs[t] = InterimBelief(b.state_marginal, {**b.signal_marginals, other: marg})
    return (dataclasses.replace(spec, beliefs=beliefs),
            f"beliefs.{t}.signals.{other}: sums to nan (expected 1 within 1e-12)")


def test_nan_belief_fails_the_residual_gate(monkeypatch):
    # an unvalidated model: a NaN in one belief marginal reached B and the
    # solve returned NaN, which the fixed-point residual gate refused; the
    # builder now refuses the marginal by name, and a NaN solve still
    # fails the gate
    spec = random_model(np.random.default_rng(12))
    bad, refusal = _nan_belief(spec)
    with pytest.raises(PreconditionError, match=re.escape(refusal)):
        solve_beta_game(bad, 0.9)
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full(np.shape(b), np.nan))
    with pytest.raises(ArithmeticError, match="^fixed-point residual nan"):
        solve_beta_game(spec, 0.9)


def test_nan_belief_fails_the_heterogeneous_residual_gate(monkeypatch):
    # as above, with one coordination weight per agent
    spec = random_model(np.random.default_rng(12))
    bad, refusal = _nan_belief(spec)
    with pytest.raises(PreconditionError, match=re.escape(refusal)):
        solve_heterogeneous_game(bad, [0.9, 0.5, 0.3])
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full(np.shape(b), np.nan))
    with pytest.raises(ArithmeticError, match="^fixed-point residual nan"):
        solve_heterogeneous_game(spec, [0.9, 0.5, 0.3])


@pytest.mark.parametrize("top", [1e7, 1e12])
def test_large_payoffs_pass_the_scale_relative_residual_gate(tmp_path, top):
    # actions scale with the payoff, and so does the solve's rounding: at
    # 1e7 the residual is about 1e-9, which an absolute 1e-10 gate refused
    with open(scenario_path("cps"), encoding="utf-8") as fh:
        data = json.load(fh)
    data["y"] = {"values": {"lo": 0.0, "hi": top}, "max": top}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    out = StringIO()
    assert main(["game-solve", str(path), "--beta", "0.9"], out=out) == 0
    spec = load_scenario(path)
    sol = solve_beta_game(spec, 0.9)
    # oracle: the best-response iteration on B, 400 rounds (0.9^400 ~ 5e-19)
    B = spec.structure.matrix
    x1 = first_order_vector(spec)
    s = np.zeros_like(x1)
    for _ in range(400):
        s = 0.1 * x1 + 0.9 * (B @ s)
    assert np.max(np.abs(sol.actions - s)) <= 1e-10 * np.max(np.abs(s))
    assert sol.residual > 1e-10


@pytest.mark.parametrize("nudge, passes", [(0.5e-10, True), (2e-10, False)])
def test_unit_scale_payoffs_keep_the_absolute_residual_gate(monkeypatch, nudge, passes):
    # payoffs in [0, 1] at beta 0.999: max|(1 - beta) x1| is about 1e-3, and
    # the gate stays RESIDUAL_TOL = 1e-10 rather than shrinking with it; a
    # solve that is off by `nudge` in one entry has a residual of `nudge`
    spec = load_scenario(scenario_path("cps"))
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: solve(a, b) + nudge * (np.arange(len(b)) == 0))
    if passes:
        assert solve_beta_game(spec, 0.999).residual == pytest.approx(nudge, rel=1e-3)
    else:
        with pytest.raises(ArithmeticError, match="fixed-point residual"):
            solve_beta_game(spec, 0.999)


BAD_WEIGHTS = [1.0, float("nan"), -0.1, float("inf")]


@pytest.mark.parametrize("beta", BAD_WEIGHTS)
def test_every_beta_check_refuses_weights_outside_the_unit_interval(beta):
    from consensus_lab.spectral import abel_limit

    spec = load_scenario(scenario_path("cps"))
    n = len(spec.all_signals())
    calls = [
        lambda: solve_beta_game(spec, beta),
        lambda: best_response_iterates(spec, beta),
        lambda: rationalizable_bounds(spec, beta, 3),
        lambda: abel_limit(spec.structure, np.ones(n), beta),
        lambda: heterogeneous_transform(spec.network, [0.5, beta]),
        lambda: solve_heterogeneous_game(spec, [beta, 0.5]),
    ]
    for call in calls:
        with pytest.raises(PreconditionError, match=r"must lie in \[0, 1\)"):
            call()


@pytest.mark.parametrize("betas", [[np.nan, 0.5], [0.5, np.nan], [np.nan, np.nan]])
def test_nan_per_agent_weights_are_refused(betas):
    # NaN passed both `>= 1` and `< 0` tests: the transform returned an
    # all-NaN network and the direct solve failed its residual gate
    spec = load_scenario(scenario_path("cps"))
    with pytest.raises(PreconditionError, match="per-agent weight"):
        heterogeneous_transform(spec.network, betas)
    with pytest.raises(PreconditionError, match="per-agent weight"):
        solve_heterogeneous_game(spec, betas)


def test_one_common_weight_solves_as_the_per_agent_game():
    # both solves share one code path; a common weight gives the same bits
    for name in ("cps", "cycle", "case2"):
        spec = load_scenario(scenario_path(name))
        for beta in (0.0, 0.3, 0.9, 0.999):
            common = solve_beta_game(spec, beta)
            per_agent = solve_heterogeneous_game(spec, [beta] * spec.n_agents)
            assert common.actions.tobytes() == per_agent.actions.tobytes()
            assert common.residual == per_agent.residual


def _cps():
    return load_scenario(scenario_path("cps"))


def _public():
    """``cps.json`` with each agent's signal revealing the state to both:
    two terminal classes, so no unique consensus."""
    exact = {"g": [1.0, 0.0], "b": [0.0, 1.0]}
    beliefs = {f"{x}{k}": InterimBelief(exact[s], {other: exact[s]})
               for x, other in (("a", "bob"), ("b", "ann")) for k, s in ((1, "g"), (2, "b"))}
    return dataclasses.replace(_cps(), beliefs=beliefs, priors=None)


def _prices(actions):
    return dataclasses.replace(solve_beta_game(_cps(), 0.9), actions=np.asarray(actions))


@pytest.mark.parametrize("call, message", [
    (lambda: abel_limit(np.full((2, 2), 0.5), [1.0, 2.0, 3.0], beta=0.5),
     "z: expected one value per state (2), got shape (3,)"),
    (lambda: abel_limit(np.full((2, 2), 0.5), [1.0, 2.0, 3.0]),
     "z: expected one value per state (2), got shape (3,)"),
    (lambda: heterogeneous_transform(Network([[0.0, 1.0], [1.0, 0.0]]), [0.5, 0.4, 0.3]),
     "beta_vec: expected one value per agent (2), got shape (3,)"),
    (lambda: convention_limit(_cps(), betas=()),
     "betas: expected at least one coordination weight"),
    (lambda: component_period(np.full((2, 2), 0.5), ()), "component: no members"),
    (lambda: component_period(np.full((2, 2), 0.5), (5,)),
     "component: member 5 is outside 0..1"),
    (lambda: component_period(np.eye(2)[::-1], (-1, 0)),
     "component: member -1 is outside 0..1"),
    (lambda: component_period(np.full((2, 2), 0.5), (0, 0, 1)),
     "component: member 0 is listed twice"),
    (lambda: component_period(np.eye(2)[::-1], (0.5, 1)),
     "component: member 0.5 is not an integer index"),
    (lambda: component_period(np.eye(2)[::-1], (True, False)),
     "component: member True is not an integer index"),
    (lambda: component_period(np.eye(2)[::-1], ((0, 1),)),
     "component: member (0, 1) is not an integer index"),
    (lambda: simulate_batch(_cps(), 0.9, -1, 0, product_generating(_cps())),
     "n_runs must be at least 0, got -1"),
    (lambda: simulate_batch(_cps(), 0.9, True, 0, product_generating(_cps())),
     "n_runs: expected an integer, got True"),
    (lambda: simulate_batch(_cps(), 0.9, 2.0, 0, product_generating(_cps())),
     "n_runs: expected an integer, got 2.0"),
    (lambda: simulate_batch(_cps(), 0.9, 2.5, 0, product_generating(_cps())),
     "n_runs: expected an integer, got 2.5"),
    (lambda: simulate_batch(_cps(), 0.9, "3", 0, product_generating(_cps())),
     "n_runs: expected an integer, got '3'"),
    (lambda: ex_ante_expectation(_cps(), "ann", [np.nan, 1.0], [1.0, 2.0]),
     "prior for ann: weights must be finite and non-negative"),
    (lambda: ex_ante_expectation(_cps(), "ann", [2.0, -1.0], [1.0, 2.0]),
     "prior for ann: weights must be finite and non-negative"),
    (lambda: ex_ante_expectation(_cps(), "eve", [0.5, 0.5], [1.0, 2.0]),
     "ex ante expectation: unknown agent 'eve'"),
    (lambda: ex_ante_expectation(_cps(), "ann", [0.5, 0.5], [np.nan, 1.0]),
     "z for ann: every value must be finite"),
    (lambda: best_response_iterates(_cps(), 0.9, start=np.zeros(3)),
     "start: expected one value per signal (4), got shape (3,)"),
    (lambda: solve_heterogeneous_game(_cps(), [0.5, 0.4, 0.3]),
     "beta_vec: expected one value per agent (2), got shape (3,)"),
    (lambda: power_trajectory(np.full((2, 2), 0.5), [1.0, 2.0, 3.0], 5),
     "z: expected one value per state (2), got shape (3,)"),
    (lambda: power_trajectory(np.full((2, 2), 0.5), [1.0, 2.0], 2.5),
     "n_max: expected an integer, got 2.5"),
    (lambda: stationary_perturbation_bound(np.full((2, 2), 0.5), np.full((3, 3), 1 / 3)),
     "B: shape (2, 2) does not match B_ref's shape (3, 3)"),
    (lambda: first_order_vector(_cps(), f=[0.1, 0.2, 0.3, 0.4j]),
     "f: expected real entries, got complex128"),
    (lambda: solve_beta_game(_cps(), "0.5"), "beta: str is not a numeric array"),
    (lambda: best_response_iterates(_cps(), 0.9, rounds=2.5),
     "rounds: expected an integer, got 2.5"),
    (lambda: rationalizable_bounds(_cps(), 0.9, -1), "k_max must be at least 0, got -1"),
    (lambda: abel_limit(np.full((2, 2), 0.5), [np.nan, 1.0]), "z: every value must be finite"),
    (lambda: convention_limit(_public(), betas=(1.5, np.nan)),
     "betas: every weight must lie in [0, 1), got [1.5, nan]"),
    (lambda: simulate_batch(_cps(), 0.9, 2, 0, product_generating(_cps()), prices=_prices([0, 0])),
     "prices: expected one value per signal (4), got shape (2,)"),
    (lambda: simulate_batch(_cps(), 0.9, 2, 0, product_generating(_cps()),
                            prices=_prices([np.nan] * 4)), "prices: every value must be finite"),
    (lambda: rounded_structure(load_scenario(scenario_path("tyranny_extreme")), ["alice", "zed"]),
     "informed: unknown agent 'zed'"),
], ids=["abel_limit z length", "abel_limit z length, exact mode",
        "heterogeneous_transform weights length", "convention_limit without betas",
        "component_period of no members", "component_period member past the end",
        "component_period negative member", "component_period member twice",
        "component_period float member", "component_period bool members",
        "component_period nested member",
        "simulate_batch with negative runs", "simulate_batch with True runs",
        "simulate_batch with 2.0 runs", "simulate_batch with 2.5 runs",
        "simulate_batch with '3' runs",
        "ex_ante_expectation NaN prior", "ex_ante_expectation negative prior",
        "ex_ante_expectation unknown agent", "ex_ante_expectation NaN z",
        "best_response_iterates start length", "solve_heterogeneous_game weights length",
        "power_trajectory z length", "power_trajectory n_max not an integer",
        "stationary_perturbation_bound sizes", "first_order_vector complex f",
        "solve_beta_game string beta", "best_response_iterates float rounds",
        "rationalizable_bounds negative k_max", "abel_limit NaN z",
        "convention_limit weights with several public events", "simulate_batch short prices",
        "simulate_batch NaN prices", "rounded_structure unknown informed agent"])
def test_library_misuse_is_refused_with_a_typed_error(call, message):
    # each ended in a bare numpy or Python error (ValueError, IndexError,
    # OverflowError, TypeError, KeyError) from deep inside the call, except
    # the component members -1 (read from the end: period 2), 0 twice
    # (accepted), 0.5 and True (truncated: period 2), a batch of True runs
    # (one run), the NaN and negative priors and the NaN z (NaN, 0.0 and
    # NaN returned), and the per-agent game's weights, refused but untested;
    # of the next five, the float rounds and the complex f and string beta
    # ended in a TypeError, and k_max -1 and the NaN z returned [] and NaNs;
    # then the betas (1.5, nan) came back unchecked when no game was solved,
    # a short schedule ended in an IndexError, a NaN one priced trades NaN,
    # and an unknown informed agent was skipped
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        call()
