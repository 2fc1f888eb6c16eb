"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 11 checks the no-trade characterization: a strictly
profitable separable trade exists exactly when some signal is transient
(outside every absorbing component), an irreducible structure never admits
one, and every witness satisfies its gain inequalities.  Reducibility alone
is not enough for trade: ``scenarios/counterexample.json`` splits into two
closed classes with no transient signals, so it is reducible, yet weighting
the gain inequalities by either class's positive stationary vector forces
them all to bind and no strict trade exists.  C11 requires that case to
occur, so it cannot pass under the weaker claim "trade iff reducible".
"""

import time

import numpy as np
import pytest
from scipy import stats as sps

from consensus_lab.consensus import (
    consensus_expectation,
    first_order_vector,
    higher_order_expectations,
    pseudopriors,
    verify_cps_decomposition,
)
from consensus_lab.game import (
    best_response_iterates,
    heterogeneous_transform,
    rationalizable_bounds,
    solve_beta_game,
    solve_heterogeneous_game,
)
from consensus_lab.interaction import (
    absorbing_components,
    build_interaction_structure,
    joint_connectedness,
)
from consensus_lab.io import load_scenario
from consensus_lab.market import (
    empirical_price_stats,
    product_generating,
    simulate_batch,
    simulate_market,
)
from consensus_lab.model import BasicVariable, ModelSpec, ex_ante_expectation
from consensus_lab.optimism import optimism_hypotheses, tightness_chain
from consensus_lab.spectral import (
    abel_limit,
    eigenvector_centrality,
    stationary_distribution,
)
from consensus_lab.trade import no_trade_test
from consensus_lab.tyranny import CISSpec, verify_tyranny

from conftest import random_cps_model, random_model, recursive_hoae, scenario_path
from test_market import geometric_bins
from test_optimism import drifting_model
from test_tyranny import make_cis

FIXTURES = ["cycle", "case2", "counterexample", "tightness", "tyranny_extreme", "cps"]


def irreducible_instances(seed, count, max_agents=4):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        spec = random_model(
            rng,
            n_agents=int(rng.integers(2, max_agents + 1)),
            max_signals=3,
            full_support=True,
        )
        if len(spec.all_signals()) > 12:
            continue
        out.append(spec)
    return out


def test_c01_consensus_identity_and_high_beta_game():
    start = time.perf_counter()
    for spec in irreducible_instances(1001, 200):
        res = consensus_expectation(spec)
        assert res.irreducible
        p = stationary_distribution(res.structure.matrix).vector
        direct = float(p @ first_order_vector(spec))
        assert abs(res.value - direct) <= 1e-10
        sol = solve_beta_game(spec, 0.9999)
        assert np.max(np.abs(sol.actions - res.value)) <= 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\n[C1] PASS: 200 irreducible instances, |c - pFy| <= 1e-10 and"
          f" beta=0.9999 play within 1e-3 ({elapsed:.2f}s)")


def test_c02_centrality_sum_and_representation():
    rng = np.random.default_rng(1002)
    for spec in irreducible_instances(1002, 200):
        res = consensus_expectation(spec)
        e = res.centralities
        blocks = res.structure.index.blocks
        for k, a in enumerate(spec.agents):
            assert abs(res.weights[blocks[k]].sum() - e[k]) <= 1e-10
        lam = pseudopriors(spec)
        for _ in range(10):
            y = rng.random(spec.n_states)
            value = consensus_expectation(spec, y).value
            fvec = first_order_vector(spec, y)
            rebuilt = sum(
                e[k] * ex_ante_expectation(spec, a, lam[a], fvec[blocks[k]])
                for k, a in enumerate(spec.agents)
            )
            assert abs(value - rebuilt) <= 1e-10
    print("\n[C2] PASS: 200 instances: agent weights sum to centralities and"
          " the pseudoprior representation reproduces the consensus"
          " (10 payoffs each)")


def test_c03_cps_decomposition():
    rng = np.random.default_rng(1003)
    for k in range(50):
        spec = random_cps_model(
            rng,
            n_agents=int(rng.integers(2, 4)),
            n_states=int(rng.integers(2, 4)),
            common_state_belief=(k % 2 == 0),
        )
        report = verify_cps_decomposition(spec)
        assert report.gap <= 1e-9
        if k % 2 == 0:
            assert report.common_gap is not None
            assert report.common_gap <= 1e-9
    print("\n[C3] PASS: 50 constructed common-prior-over-signals instances"
          " satisfy the centrality decomposition (and the common-expectation"
          " collapse where applicable)")


def test_c04_complete_information_weights_are_centralities():
    rng = np.random.default_rng(1004)
    for _ in range(40):
        spec = random_model(rng, n_agents=int(rng.integers(2, 6)), max_signals=1)
        res = consensus_expectation(spec)
        e = eigenvector_centrality(spec.network)
        assert np.max(np.abs(res.weights - e)) <= 1e-10
    print("\n[C4] PASS: one-signal models reduce to network centrality weights")


def test_c05_optimism_bound():
    rng = np.random.default_rng(1005)
    checked = 0
    # fixtures first
    for name, fbar in (("case2", 1.0), ("tightness", 5.0)):
        spec = load_scenario(scenario_path(name))
        report = optimism_hypotheses(spec, fbar)
        if report.hypotheses_hold:
            checked += 1
            assert report.consensus >= report.bound - 1e-9
    accepted = 0
    while accepted < 200:
        spec = drifting_model(
            rng,
            n_agents=int(rng.integers(2, 4)),
            levels=int(rng.integers(3, 7)),
            eps_target=float(rng.uniform(0.0, 0.25)),
        )
        fbar = float(rng.uniform(0.4, 1.0))
        report = optimism_hypotheses(spec, fbar)
        if not report.hypotheses_hold:
            continue
        accepted += 1
        assert report.consensus >= report.bound - 1e-9
    print(f"\n[C5] PASS: optimism bound held on {checked} fixtures and 200"
          " rejection-sampled instances with positive drift")


def test_c06_tightness_mass():
    spec = tightness_chain(5, 0.2, 0.05)
    B = build_interaction_structure(spec)
    comp = absorbing_components(B)[0]
    idx = [B.index.labels.index(t) for t in comp]
    p = stationary_distribution(B.matrix[np.ix_(idx, idx)]).vector
    top = sum(
        w for t, w in zip(comp, p) if t.endswith("5")
    )
    assert abs(top - 0.8) <= 1e-10
    assert abs(top - 1.0 / (1.0 + 0.05 / 0.2)) <= 1e-10
    print("\n[C6] PASS: ladder chain (m=5, delta=0.2, eps=0.05) puts"
          " stationary mass exactly 0.8 on the top level")


def test_c07_tyranny_grid():
    start = time.perf_counter()
    rng = np.random.default_rng(1007)
    n_checked = 0
    for n_states in (2, 3):
        for delta in (0.2, 0.3):
            for eps in (1e-3, 1e-4, 1e-5):
                cis = make_cis(rng, n_states=n_states, delta=delta, eps=eps)
                report = verify_tyranny(cis)
                assert report.gap <= report.bound
                assert report.belief_gap_max <= report.belief_gap_bound
                assert (
                    report.perturbation.max_passage_time
                    <= report.passage_time_bound
                )
                n_checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\n[C7] PASS: least-informed bound plus both technical-lemma"
          f" inequalities on {n_checked} grid instances ({elapsed:.2f}s)")


def test_c08_tyranny_extreme_case():
    cis = load_scenario(scenario_path("tyranny_extreme"))
    report = verify_tyranny(cis)
    assert report.gap <= 1e-9
    print("\n[C8] PASS: uninformative agent + perfect others pins the"
          " consensus to the ignorant prior expectation within 1e-9")


def test_c09_game_bounds_contraction_heterogeneous():
    rng = np.random.default_rng(1009)
    eps_mach = np.finfo(float).eps
    spec = random_model(rng, n_agents=3, full_support=True)
    beta, M = 0.9, spec.y.bound
    bounds = rationalizable_bounds(spec, beta, 20)
    for k, (lo, hi) in enumerate(bounds, start=1):
        assert np.max(np.abs((hi - lo) - beta**k * M)) <= 2 * eps_mach
    sol = solve_beta_game(spec, beta)
    errs = [
        np.max(np.abs(s - sol.actions))
        for s in best_response_iterates(spec, beta, rounds=50)
    ]
    for k in range(50):
        if errs[k] < 1e-12:
            break
        assert errs[k + 1] <= (beta + 1e-6) * errs[k]
    for _ in range(10):
        betas = rng.uniform(0.1, 0.95, size=3)
        direct = solve_heterogeneous_game(spec, betas)
        net, beta_hat = heterogeneous_transform(spec.network, betas)
        transformed = ModelSpec(
            spec.states, spec.agents, spec.signals, spec.beliefs, net, y=spec.y
        )
        via = solve_beta_game(transformed, beta_hat)
        assert np.max(np.abs(direct.actions - via.actions)) <= 1e-10
    print("\n[C9] PASS: interval widths exact to machine precision,"
          " contraction rate <= beta + 1e-6, heterogeneous transform matches"
          " the direct solve within 1e-10")


def test_c10_market():
    spec = load_scenario(scenario_path("cps"))
    beta = 0.999
    draw = product_generating(spec)
    prices = solve_beta_game(spec, beta)
    schedule = dict(zip(prices.labels, prices.actions))

    # byte-level reproducibility
    seeds = np.random.SeedSequence(42).spawn(3)
    for s in seeds:
        r1 = simulate_market(spec, beta, s, draw, prices=prices,
                             initial_owner="centrality")
        r2 = simulate_market(spec, beta, s, draw, prices=prices,
                             initial_owner="centrality")
        assert r1 == r2
        for e in r1.events:
            assert e.price == schedule[e.buyer_signal]

    batch1 = simulate_batch(spec, beta, 10_000, 42, draw, prices=prices,
                            initial_owner="centrality")
    batch2 = simulate_batch(spec, beta, 10_000, 42, draw, prices=prices,
                            initial_owner="centrality")
    assert np.array_equal(batch1.durations, batch2.durations)
    assert np.array_equal(batch1.class_prices, batch2.class_prices)

    stats = empirical_price_stats(batch1)
    res = consensus_expectation(spec)
    assert abs(stats.mean_price - res.value) <= 3.0 * stats.price_se

    uppers, probs = geometric_bins(1.0 - beta)
    idx = np.searchsorted(uppers, batch1.durations, side="left")
    counts = np.bincount(idx, minlength=len(uppers)).astype(float)
    expected = probs * batch1.n_runs
    stat = float(((counts - expected) ** 2 / expected).sum())
    crit = sps.chi2.ppf(0.99, len(uppers) - 1)
    assert stat < crit
    print(f"\n[C10] PASS: reproducible runs, schedule prices, mean price"
          f" {stats.mean_price:.6f} within 3se of consensus {res.value:.6f},"
          f" durations geometric (chi2 {stat:.1f} < {crit:.1f})")


def test_c11_no_trade_iff_reducible():
    # The name predates the correction: the claim checked is that a strict
    # separable trade exists exactly when some signal is transient.
    mismatches = []
    cases = {
        "irreducible, no trade": 0,
        "reducible with transients, trade": 0,
        "reducible with closed classes only, no trade": 0,
    }

    def check(name, structure):
        result = no_trade_test(structure)
        irreducible, _ = joint_connectedness(structure)
        terminal = set().union(*map(set, absorbing_components(structure)))
        transient = [t for t in structure.index.labels if t not in terminal]
        if (
            result.has_trade != bool(transient)
            or (irreducible and result.has_trade)
            or result.reducible != (not irreducible)
        ):
            mismatches.append(
                f"{name}: trade_found={result.has_trade},"
                f" irreducible={irreducible}, transient={transient}"
            )
            return
        if result.has_trade:
            x = result.trade
            gains = structure.matrix @ x - x
            if not (
                abs(np.max(np.abs(x)) - 1.0) <= 1e-12
                and gains.min() >= -1e-12
                and gains.max() >= 1e-9
            ):
                mismatches.append(
                    f"{name}: invalid witness, sup-norm {np.max(np.abs(x))},"
                    f" gains in [{gains.min()}, {gains.max()}]"
                )
                return
        if irreducible:
            cases["irreducible, no trade"] += 1
        elif transient:
            cases["reducible with transients, trade"] += 1
        else:
            cases["reducible with closed classes only, no trade"] += 1

    from consensus_lab.tyranny import build_pi_from_cis

    for name in FIXTURES:
        scenario = load_scenario(scenario_path(name))
        model = (
            build_pi_from_cis(scenario)
            if isinstance(scenario, CISSpec)
            else scenario
        )
        check(name, build_interaction_structure(model))

    rng = np.random.default_rng(1011)
    done = 0
    while done < 500:
        spec = random_model(
            rng,
            n_agents=int(rng.integers(2, 4)),
            max_signals=3,
            full_support=rng.random() < 0.3,
            network_density=0.6,
        )
        B = build_interaction_structure(spec)
        if len(B.index) > 10:
            continue
        done += 1
        check(f"random#{done}", B)

    # the closed-classes case is what separates the claim from
    # "trade iff reducible"; only the counterexample fixture supplies it
    mismatches += [f"no structure seen: {c}" for c, k in cases.items() if not k]
    if mismatches:
        print("\n[C11] FAIL: trade existence does not coincide with the"
              " existence of transient signals, a witness is invalid, or a"
              " case is missing:")
        for m in mismatches:
            print(f"  {m}")
    else:
        counts = "; ".join(f"{c}: {k}" for c, k in cases.items())
        print(f"\n[C11] PASS: on {len(FIXTURES) + done} structures a strict"
              f" trade exists exactly when some signal is transient ({counts});"
              " every witness has sup-norm 1 and gains >= -1e-12 with"
              " maximum >= 1e-9")
    assert not mismatches, mismatches


def test_c12_oracle_equivalence():
    rng = np.random.default_rng(1012)
    count = 0
    while count < 20:
        spec = random_model(
            rng, n_agents=int(rng.integers(2, 4)), max_signals=3,
            full_support=False, network_density=0.7,
        )
        if len(spec.all_signals()) > 12:
            continue
        count += 1
        y = spec.y.values
        for n in range(1, 9):
            ours = higher_order_expectations(spec, n)
            assert np.max(np.abs(ours - recursive_hoae(spec, y, n))) <= 1e-12
    for _ in range(5):
        n = 8
        Q = rng.random((n, n)) + 0.02
        Q = Q / Q.sum(axis=1, keepdims=True)
        z = rng.random(n)
        for beta in (0.5, 0.9, 0.99):
            k_max = int(np.ceil(np.log(1e-10 / z.max()) / np.log(beta))) + 1
            acc = np.zeros(n)
            term = z.copy()
            for _ in range(k_max):
                acc += term
                term = beta * (Q @ term)
            assert np.max(np.abs(abel_limit(Q, z, beta=beta) - (1 - beta) * acc)) <= 1e-8
    print("\n[C12] PASS: matrix powers equal the defining recursion to 1e-12"
          " (n <= 8) and the discounted resolvent equals the truncated series"
          " to 1e-8")
