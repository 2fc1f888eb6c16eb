import dataclasses
import re
import warnings
from math import gcd

import numpy as np
import pytest

import consensus_lab
from consensus_lab import interaction, model
from consensus_lab.consensus import consensus_expectation, first_order_vector, pseudopriors
from consensus_lab.errors import PreconditionError
from consensus_lab.interaction import (
    absorbing_components,
    as_structure,
    build_first_order_map,
    build_interaction_structure,
    component_period,
    joint_connectedness,
    strongly_connected_components,
)
from consensus_lab.io import load_scenario, parse_scenario
from consensus_lab.model import BasicVariable, InterimBelief, ModelSpec, Network
from consensus_lab.optimism import markov_optimism_check, tightness_chain
from consensus_lab.spectral import eigenvector_centrality, stationary_distribution
from consensus_lab.trade import no_trade_test

from conftest import (
    beliefs_connected_oracle,
    bench_gen,
    classes_oracle,
    dirichlet,
    irreducible_oracle,
    pair_rows,
    random_cps_model,
    random_model,
    scenario_object,
    scenario_path,
    sparse_reducible_model,
)


def complete_info_spec(gamma):
    """One signal per agent; the structure must collapse onto the network."""
    n = len(gamma)
    agents = tuple(f"ag{i}" for i in range(n))
    beliefs = {
        f"t{i}": InterimBelief(
            [1.0],
            {f"ag{j}": [1.0] for j in range(n) if j != i},
        )
        for i in range(n)
    }
    return ModelSpec(
        ("s",),
        agents,
        {a: (f"t{i}",) for i, a in enumerate(agents)},
        beliefs,
        Network(gamma),
        y=BasicVariable([1.0], 2.0),
    )


def test_first_order_map_rows_and_single_state():
    spec = complete_info_spec([[0.0, 1.0], [1.0, 0.0]])
    F = build_first_order_map(spec)
    assert np.array_equal(F.matrix, np.ones((2, 1)))


def test_first_order_map_deterministic_beliefs_are_unit_rows():
    beliefs = {
        "a1": InterimBelief([1.0, 0.0], {"bob": [1.0]}),
        "a2": InterimBelief([0.0, 1.0], {"bob": [1.0]}),
        "b1": InterimBelief([1.0, 0.0], {"ann": [0.5, 0.5]}),
    }
    spec = ModelSpec(
        ("g", "b"),
        ("ann", "bob"),
        {"ann": ("a1", "a2"), "bob": ("b1",)},
        beliefs,
        Network([[0.0, 1.0], [1.0, 0.0]]),
    )
    F = build_first_order_map(spec)
    assert np.array_equal(F.matrix, [[1, 0], [0, 1], [1, 0]])
    assert np.allclose(F.matrix.sum(axis=1), 1.0)


def test_first_order_apply_dot_products():
    beliefs = {
        "a1": InterimBelief([0.7, 0.3], {"bob": [1.0]}),
        "a2": InterimBelief([0.2, 0.8], {"bob": [1.0]}),
        "b1": InterimBelief([0.5, 0.5], {"ann": [0.5, 0.5]}),
    }
    spec = ModelSpec(
        ("g", "b"),
        ("ann", "bob"),
        {"ann": ("a1", "a2"), "bob": ("b1",)},
        beliefs,
        Network([[0.0, 1.0], [1.0, 0.0]]),
    )
    F = build_first_order_map(spec)
    assert np.allclose((F.matrix @ [0.0, 1.0])[:2], [0.3, 0.8])


def test_complete_information_reduces_to_network():
    gamma = np.array([[0.0, 0.3, 0.7], [0.5, 0.0, 0.5], [1.0, 0.0, 0.0]])
    spec = complete_info_spec(gamma)
    B = build_interaction_structure(spec)
    assert np.allclose(B.matrix, gamma, atol=0)


def test_missing_marginal_for_weighted_neighbor_raises():
    spec = complete_info_spec([[0.0, 1.0], [1.0, 0.0]])
    beliefs = {
        "t0": InterimBelief([1.0], {}),
        "t1": InterimBelief([1.0], {"ag0": [1.0]}),
    }
    broken = ModelSpec(
        spec.states, spec.agents, spec.signals, beliefs, spec.network
    )
    with pytest.raises(PreconditionError, match="no belief marginal"):
        build_interaction_structure(broken)


def test_cycle_fixture_is_a_single_permutation_cycle():
    spec = load_scenario(scenario_path("cycle"))
    B = build_interaction_structure(spec)
    assert B.irreducible and not B.aperiodic
    # deterministic beliefs on a cycle: a 0/1 matrix with one 1 per row
    assert set(np.unique(B.matrix)) == {0.0, 1.0}
    assert np.allclose(B.matrix.sum(axis=1), 1.0)
    assert component_period(B.matrix, tuple(range(6))) == 6


def test_counterexample_fixture_reducible_with_certificate():
    spec = load_scenario(scenario_path("counterexample"))
    B = build_interaction_structure(spec)
    ok, cert = joint_connectedness(B)
    assert not ok
    assert cert == ("a1", "a2", "a3")
    comps = absorbing_components(B)
    assert comps == [("a1", "a2", "a3"), ("b1", "b2", "b3")]


def test_positive_network_is_jointly_connected():
    rng = np.random.default_rng(3)
    spec = random_model(rng, n_agents=3, full_support=True)
    B = build_interaction_structure(spec)
    ok, cert = joint_connectedness(B)
    assert ok and cert is None


def test_block_row_sums_reproduce_network():
    rng = np.random.default_rng(17)
    for _ in range(10):
        spec = random_model(rng, n_agents=3, network_density=0.7)
        B = build_interaction_structure(spec)
        assert np.max(np.abs(B.matrix.sum(axis=1) - 1.0)) < 1e-12
        for s, t in enumerate(B.index.labels):
            i = B.index.agent_of[s]
            for j in range(spec.n_agents):
                blk = B.matrix[s, B.index.blocks[j]].sum()
                assert blk == pytest.approx(
                    spec.network.weights[i, j], abs=1e-12
                )


def test_type_dependent_weights():
    rng = np.random.default_rng(23)
    spec = random_model(rng, n_agents=3)
    labels = [t for a in spec.agents for t in spec.signals[a]]
    weights = {}
    for t in labels:
        i = spec.agents.index(spec.agent_of(t))
        row = rng.dirichlet(np.ones(3))
        row[i] = 0.0
        weights[t] = row / row.sum()
    B = build_interaction_structure(spec, type_dependent_weights=weights)
    assert np.max(np.abs(B.matrix.sum(axis=1) - 1.0)) < 1e-12
    for s, t in enumerate(B.index.labels):
        for j in range(spec.n_agents):
            assert B.matrix[s, B.index.blocks[j]].sum() == pytest.approx(
                weights[t][j], abs=1e-12
            )


def test_joint_connectedness_agrees_with_closure_oracle():
    rng = np.random.default_rng(41)
    seen = {True: 0, False: 0}
    for _ in range(60):
        spec = random_model(
            rng,
            n_agents=int(rng.integers(2, 5)),
            max_signals=3,
            full_support=False,
            network_density=0.6,
        )
        B = build_interaction_structure(spec)
        if len(B.index) > 12:
            continue
        ok, cert = joint_connectedness(B)
        assert ok == irreducible_oracle(B.matrix)
        seen[ok] += 1
        if not ok:
            # the certificate really is closed
            members = [B.index.labels.index(t) for t in cert]
            outside = [k for k in range(len(B.index)) if k not in members]
            assert B.matrix[np.ix_(members, outside)].sum() == 0.0
    assert seen[True] > 0 and seen[False] > 0


def test_period_examples():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert component_period(swap, (0, 1)) == 2
    assert not as_structure(swap).aperiodic
    lazy = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert as_structure(lazy).aperiodic
    # a positive diagonal in each terminal component forces period 1
    rng = np.random.default_rng(2)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        Q = rng.random((n, n)) + 0.01
        Q = Q / Q.sum(axis=1, keepdims=True)
        assert as_structure(Q).aperiodic


def test_absorbing_components_of_reducible_chain():
    # two separate 2-cycles joined by a transient state
    Q = np.zeros((5, 5))
    Q[0, 1] = Q[1, 0] = 1.0
    Q[2, 3] = Q[3, 2] = 1.0
    Q[4, 0] = 0.5
    Q[4, 2] = 0.5
    comps = absorbing_components(Q)
    assert comps == [(0, 1), (2, 3)]
    assert not as_structure(Q).aperiodic


def test_sufficiency_complete_network_and_connected_beliefs():
    rng = np.random.default_rng(7)
    tested = 0
    while tested < 25:
        spec = random_model(
            rng, n_agents=3, max_signals=2, full_support=False, network_density=1.0
        )
        if not beliefs_connected_oracle(spec):
            continue
        tested += 1
        B = build_interaction_structure(spec)
        assert B.irreducible


def test_sufficiency_connected_network_and_full_support_beliefs():
    rng = np.random.default_rng(9)
    tested = 0
    while tested < 25:
        spec = random_model(
            rng, n_agents=4, max_signals=3, full_support=True, network_density=0.4
        )
        if not irreducible_oracle(spec.network.weights):
            continue
        tested += 1
        B = build_interaction_structure(spec)
        assert B.irreducible


def test_scc_ordering_is_deterministic():
    Q = np.zeros((4, 4))
    Q[0, 0] = 1.0
    Q[1, 1] = 1.0
    Q[2, 3] = Q[3, 2] = 1.0
    assert strongly_connected_components(Q) == [(0,), (1,), (2, 3)]


def test_self_loops_in_every_terminal_component_force_aperiodicity():
    Q = np.zeros((4, 4))
    Q[0, 0] = 0.5
    Q[0, 1] = 0.5
    Q[1, 0] = 1.0
    Q[2, 2] = 0.3
    Q[2, 3] = 0.7
    Q[3, 2] = 1.0
    assert absorbing_components(Q) == [(0, 1), (2, 3)]
    assert as_structure(Q).aperiodic


def period_oracle(matrix, component):
    """Per-edge BFS walk: levels from the first member, then the gcd over
    the component's edges of level(u) + 1 - level(v)."""
    comp = list(component)
    members = set(comp)
    if len(comp) == 1:
        return 1 if matrix[comp[0], comp[0]] != 0 else 0
    level = {comp[0]: 0}
    frontier = [comp[0]]
    while frontier:
        nxt = []
        for u in frontier:
            for v in np.nonzero(matrix[u])[0]:
                if v in members and v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    g = 0
    for u in comp:
        for v in np.nonzero(matrix[u])[0]:
            if v in members:
                g = gcd(g, level[u] + 1 - level[v])
    return abs(g)


def planted_cycle(rng, d, per_level):
    """Strongly connected digraph whose edges all go from level l to level
    l + 1 mod d, with a cycle of length d: its period is exactly d."""
    n = d * per_level
    node = rng.permutation(n).reshape(per_level, d)  # node[k, l]: k-th member of level l
    A = np.zeros((n, n))
    tour = node.ravel()  # level order 0, 1, ..., d-1, 0, 1, ... through every node
    A[tour, np.roll(tour, -1)] = rng.random(n) + 0.1
    A[node[0, d - 1], node[0, 0]] = 0.5  # the short cycle through the first members
    for l in range(d):
        src, dst = node[:, l], node[:, (l + 1) % d]
        extra = rng.random((per_level, per_level)) < 0.3
        A[np.ix_(src, dst)] += extra * rng.random((per_level, per_level))
    return A


def test_component_period_matches_bfs_oracle_on_random_digraphs():
    rng = np.random.default_rng(4242)
    planted = {d: 0 for d in range(2, 7)}
    singletons = {0: 0, 1: 0}
    for trial in range(300):
        if trial % 3 == 0:
            d = 2 + (trial // 3) % 5
            A = planted_cycle(rng, d, int(rng.integers(1, 5)))
            assert component_period(A, tuple(range(len(A)))) == d
            planted[d] += 1
        else:
            n = int(rng.integers(1, 25))
            A = (rng.random((n, n)) < rng.uniform(0.03, 0.4)) * rng.random((n, n))
        for comp in strongly_connected_components(A):
            got = component_period(A, comp)
            assert got == period_oracle(A, comp)
            if len(comp) == 1:
                singletons[got] += 1
    assert all(planted.values())
    assert singletons[0] > 0 and singletons[1] > 0


def planted_reducible(rng, periods):
    """Closed classes of the given planted periods (a period of 0 is a
    signal without an out-edge, and a planted period of 1 on one signal is
    a self-loop alone), transient signals feeding them and one another,
    all shuffled."""
    blocks = []
    for d in periods:
        if d == 0:
            blocks.append(np.zeros((1, 1)))
        elif d == 1 and rng.random() < 0.5:
            blocks.append(np.full((1, 1), rng.random() + 0.1))
        else:
            blocks.append(planted_cycle(rng, d, int(rng.integers(1, 4))))
    closed = sum(len(b) for b in blocks)
    n = closed + int(rng.integers(1, 8))
    A = np.zeros((n, n))
    at = 0
    for b in blocks:
        A[at : at + len(b), at : at + len(b)] = b
        at += len(b)
    for s in range(closed, n):
        # each transient signal leaks into a closed class, and may loop
        # among the transient signals, itself included
        A[s, rng.integers(0, closed)] = rng.random() + 0.1
        A[s, rng.integers(closed, n, size=2)] += rng.random(2) * (rng.random(2) < 0.6)
    shuffle = rng.permutation(n)
    return A[np.ix_(shuffle, shuffle)]


def _period_routes(monkeypatch, A):
    """The periods of ``A``'s terminal classes from the structure, from
    component_period and from the oracle (scipy's classes and a plain
    breadth-first search), and whether the one-component search settled it."""
    walks = _tarjan_walks(monkeypatch)
    periods = as_structure(A).periods
    _, terminal, _ = classes_oracle(A)
    return (periods, tuple(component_period(A, c) for c in terminal),
            tuple(period_oracle(A, c) for c in terminal), walks == [])


def test_structure_periods_match_the_oracle_on_both_search_routes(monkeypatch):
    rng = np.random.default_rng(2206)
    seen = {"one component": set(), "several": set(), "singleton periods": set()}
    for trial in range(120):
        d = 1 + (trial // 2) % 6
        if trial % 2 == 0:
            # irreducible: the one-component search's levels give the period
            A = planted_cycle(rng, d, int(rng.integers(1, 5)))
            got, kernel, oracle, one = _period_routes(monkeypatch, A)
            assert one and got == kernel == oracle == (d,)
            # Tarjan's depths on the same graph give the same period
            u, v = np.nonzero(A)
            _, depth = interaction._tarjan(np.searchsorted(u, np.arange(len(A) + 1)).tolist(),
                                           v.tolist())
            zero = np.zeros(len(u), dtype=np.intp)
            assert interaction._periods(np.array(depth), u, v, zero, 1).tolist() == [d]
            seen["one component"].add(d)
        else:
            periods = [d] + rng.integers(0, 7, size=int(rng.integers(1, 4))).tolist()
            A = planted_reducible(rng, periods)
            got, kernel, oracle, one = _period_routes(monkeypatch, A)
            assert not one and got == kernel == oracle
            assert sorted(got) == sorted(periods)
            seen["several"].update(got)
            seen["singleton periods"].update(
                p for c, p in zip(as_structure(A).terminal, got) if len(c) == 1)
    assert seen["one component"] == set(range(1, 7))
    assert seen["several"] == set(range(0, 7))
    assert seen["singleton periods"] == {0, 1}


def test_structure_periods_of_the_benchmark_sparse_model_match_the_oracle(monkeypatch):
    # three terminal classes, one of them the period-2 double cover
    spec = parse_scenario(bench_gen().sparse_reducible(np.random.default_rng(1), 6, 6, 3))
    got, kernel, oracle, one = _period_routes(monkeypatch, spec.structure.matrix)
    assert not one and len(got) == 3 and 2 in got
    assert got == spec.structure.periods == kernel == oracle


def test_component_period_refuses_a_set_that_is_not_strongly_connected():
    # signal 1 flows into the closed class {0}, which never reaches it
    flow = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(PreconditionError, match="not strongly connected"):
        component_period(flow, (0, 1))


@pytest.mark.parametrize("matrix, members", [
    # the first member reaches the second, which does not reach it back
    ([[0, 1], [0, 1]], (0, 1)),
    ([[0, 1], [0, 1]], (1, 0)),
    # a path: the first member reaches every other, and none returns
    ([[0, 1, 0], [0, 0, 1], [0, 0, 0]], (0, 1, 2)),
    # strongly connected only through a signal outside the set
    ([[0, 0, 1], [1, 0, 0], [0, 1, 0]], (0, 1)),
])
def test_component_period_refuses_members_that_do_not_reach_each_other(matrix, members):
    # a search forward from the first member once gave these periods 1 and 0
    with pytest.raises(PreconditionError,
                       match=re.escape(f"component {members} is not strongly connected")):
        component_period(np.array(matrix, dtype=float), members)


def test_component_period_is_the_analysis_of_the_members_block():
    # the 3-cycle 0 -> 2 -> 4 -> 0 inside a larger graph, listed in any order
    A = np.zeros((5, 5))
    A[[0, 2, 4, 1, 3], [2, 4, 0, 0, 1]] = 1.0
    for members in ((0, 2, 4), (4, 0, 2)):
        period = component_period(A, members)
        assert period == 3 and type(period) is int
    # a singleton with and without its self-loop
    assert (component_period(A, (1,)), component_period(np.eye(2), (1,))) == (0, 1)


def test_every_member_of_the_graph_analysis_is_an_int():
    cycle = cycle_matrix(4)
    reducible = np.array([[1.0, 0, 0, 0], [0.5, 0, 0.5, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    sparse = sparse_reducible_model(np.random.default_rng(2), 12, 6)
    structures = [as_structure(cycle), as_structure(reducible),
                  build_interaction_structure(sparse), _model("cps").structure]
    assert [s.irreducible for s in structures] == [True, False, False, True]
    assert structures[1].transient == (1,)
    members = [m for s in structures
               for m in (*sum(s.components + s.terminal, ()), *s.transient)]
    for matrix in (cycle, reducible, sparse.structure.matrix):
        members += sum(strongly_connected_components(matrix), ())
        members += sum(absorbing_components(matrix), ())
    ok, certificate = joint_connectedness(reducible)
    assert (ok, certificate) == (False, (0,))
    members += certificate
    assert members and {type(m) for m in members} == {int}


def cycle_matrix(n, rng=None):
    """The cycle 0 -> 1 -> ... -> n - 1 -> 0, with random weights."""
    weights = np.ones(n) if rng is None else rng.random(n) + 0.1
    A = np.zeros((n, n))
    A[np.arange(n), (np.arange(n) + 1) % n] = weights
    return A


def scc_cases():
    """Seeded digraphs for the SCC kernel, by name.  The last four pass
    the degree test (every vertex has an in-edge and an out-edge) but are
    reducible, so the one-component search must fall through."""
    rng = np.random.default_rng(2020)
    cases = {
        "single signal without a self-loop": np.zeros((1, 1)),
        "single signal with a self-loop": np.full((1, 1), 0.5),
        "self-loops only": np.diag(rng.random(6) + 0.1),
        "no edges": np.zeros((4, 4)),
        "rows with no out-edge": np.triu(rng.random((9, 9)) < 0.4, 1) * rng.random((9, 9)),
        "complete": rng.random((12, 12)) + 0.01,
        "complete without self-loops": (rng.random((7, 7)) + 0.01) * (1 - np.eye(7)),
        "cycle of 8": cycle_matrix(8, rng),
        "planted period 3": planted_cycle(rng, 3, 4),
        "planted period 5": planted_cycle(rng, 5, 2),
    }
    two = np.zeros((9, 9))
    two[:4, :4], two[4:, 4:] = cycle_matrix(4, rng), cycle_matrix(5, rng)
    cases["two disjoint cycles"] = two
    feeding = two.copy()
    feeding[2, 6] = 0.5
    cases["a cycle feeding another"] = feeding
    # the same, with the signals shuffled so that signal 0 sits downstream
    shuffle = rng.permutation(9)
    cases["a cycle feeding another, shuffled"] = feeding[np.ix_(shuffle, shuffle)]
    loops = np.diag(rng.random(5) + 0.1)
    loops[0, 1:] = 0.2  # 0 reaches every signal, and none reaches 0
    cases["a self-looped source into self-loops"] = loops
    return cases


TARJAN = interaction._tarjan


def _tarjan_walks(monkeypatch):
    """A list that gets an entry each time the SCC search falls through to
    Tarjan's search, which the one-component search leaves unwalked."""
    walks = []
    monkeypatch.setattr(interaction, "_tarjan", lambda *lists: walks.append(1) or TARJAN(*lists))
    return walks


@pytest.mark.parametrize("name", list(scc_cases()))
def test_sccs_match_the_scipy_oracle_on_named_graphs(monkeypatch, name):
    A = scc_cases()[name]
    members, terminal, _ = classes_oracle(A)
    walks = _tarjan_walks(monkeypatch)
    assert strongly_connected_components(A) == members
    assert interaction._scc_search(len(A), *np.nonzero(A))[0] == members
    assert absorbing_components(A) == terminal
    u, v = np.nonzero(A)
    starts = np.searchsorted(u, np.arange(len(A) + 1))
    # a lone signal without a self-loop has no edge to pass the degree test
    assert (walks == []) == (len(members) == 1 and len(u) > 0)
    if name in list(scc_cases())[-4:]:
        assert (np.diff(starts) > 0).all() and (np.bincount(v, minlength=len(A)) > 0).all()


def test_sccs_match_the_scipy_oracle_on_seeded_random_digraphs():
    rng = np.random.default_rng(2021)
    shapes = {"one component": 0, "several": 0, "degree test passed, several": 0}
    for trial in range(400):
        n = int(rng.integers(1, 40))
        A = (rng.random((n, n)) < rng.uniform(0.01, 0.3)) * rng.random((n, n))
        members, _, _ = classes_oracle(A)
        assert strongly_connected_components(A) == members
        degrees = (A != 0).any(axis=1).all() and (A != 0).any(axis=0).all()
        shapes["one component" if len(members) == 1 else
               "degree test passed, several" if degrees else "several"] += 1
    assert min(shapes.values()) > 0, shapes


def test_scc_kernel_walks_a_long_chain_without_recursion():
    # a 10^5-signal path, and the same path closed into one component with
    # an extra source in front, so that the search runs 10^5 levels deep
    n = 100_000
    u, v = np.arange(n - 1), np.arange(1, n)
    comps, _ = interaction._scc_search(n, u, v)
    assert comps == [(k,) for k in range(n)]
    # signals 1..n-1 form a cycle and signal 0 feeds it
    comps, _ = interaction._scc_search(n, np.append(u, n - 1), np.append(v, 1))
    assert comps == [(0,), tuple(range(1, n))]


def test_a_search_deeper_than_its_level_budget_is_left_to_tarjan(monkeypatch):
    # a 10^5-signal cycle is one component 10^5 levels deep, past the
    # one-component search's level budget, so Tarjan settles it (the
    # breadth-first levels once took seconds); the bundled cycle and the
    # benchmark's dense models stay on the one-component search
    n = 100_000
    u = np.arange(n)
    walks = _tarjan_walks(monkeypatch)
    comps, depth = interaction._scc_search(n, u, np.roll(u, -1))
    assert comps == [tuple(range(n))] and walks == [1]
    assert interaction._periods(depth, u, np.roll(u, -1), None, 1).tolist() == [n]
    walks.clear()
    cis = parse_scenario(bench_gen().cis_dense(np.random.default_rng([1, 0])))
    assert _model("cycle").structure.irreducible and cis.model.structure.irreducible
    assert walks == []


def test_sccs_of_the_6000_signal_sparse_reducible_model_match_the_oracle():
    scn = bench_gen().sparse_reducible(np.random.default_rng(1), n_agents=600)
    structure = build_interaction_structure(parse_scenario(scn))
    assert len(structure.matrix) == 6000
    members, terminal, transient = classes_oracle(structure.matrix)
    assert structure.components == tuple(members)
    assert structure.terminal == tuple(terminal)
    assert structure.transient == transient


def absorption_oracle(A, terminal, transient):
    """Absorption probabilities by one direct solve per terminal class."""
    out = np.zeros((len(A), len(terminal)))
    T = list(transient)
    for k, comp in enumerate(terminal):
        out[list(comp), k] = 1.0
        if T:
            into = A[np.ix_(T, list(comp))].sum(axis=1)
            out[T, k] = np.linalg.solve(np.eye(len(T)) - A[np.ix_(T, T)], into)
    return out


def test_structure_analysis_matches_independent_oracles():
    rng = np.random.default_rng(515)
    specs = [
        random_model(
            rng,
            n_agents=int(rng.integers(2, 5)),
            max_signals=4,
            full_support=bool(rng.random() < 0.3),
            network_density=float(rng.uniform(0.3, 1.0)),
        )
        for _ in range(150)
    ]
    specs += [sparse_reducible_model(np.random.default_rng(k), 12, 6) for k in range(3)]
    specs += [
        load_scenario(scenario_path(name))
        for name in ("cps", "cycle", "case2", "counterexample", "tightness")
    ]

    def as_ints(classes):
        return [tuple(int(s) for s in c) for c in classes]

    seen = {"irreducible": 0, "transient": 0, "closed classes only": 0}
    for spec in specs:
        B = build_interaction_structure(spec)
        comps, terminal, transient = classes_oracle(B.matrix)
        assert as_ints(B.components) == as_ints(comps)
        assert as_ints(B.terminal) == as_ints(terminal)
        assert tuple(int(s) for s in B.transient) == transient
        periods = tuple(period_oracle(B.matrix, c) for c in terminal)
        assert B.periods == periods
        assert B.irreducible == (len(comps) == 1)
        assert B.aperiodic == all(p == 1 for p in periods)
        expected = absorption_oracle(B.matrix, terminal, transient)
        assert np.max(np.abs(B.absorption - expected)) <= 1e-12
        for comp, p in zip(terminal, B.stationary):
            sub = B.matrix[np.ix_(comp, comp)]
            assert np.abs(p @ sub - p).sum() <= 1e-10
            assert p.min() > 0 and p.sum() == pytest.approx(1.0, abs=1e-12)
        if len(comps) == 1:
            seen["irreducible"] += 1
        elif transient:
            seen["transient"] += 1
        else:
            seen["closed classes only"] += 1
    assert min(seen.values()) > 0, seen


@pytest.fixture
def scc_calls(monkeypatch):
    """Records every SCC search, by its number of vertices: the one search
    that both strongly_connected_components and the structure's analysis
    run, and that also gives the depths the periods are read from."""
    original = interaction._scc_search
    calls = []

    def counted(n, u, v):
        calls.append(n)
        return original(n, u, v)

    monkeypatch.setattr(interaction, "_scc_search", counted)
    return calls


# One SCC search per distinct matrix analysed: the periods come from that
# search's depths, and the class stationary solves reuse the analysis of
# the whole structure, so neither adds one, and the counts below are exact.


def test_consensus_analyses_each_matrix_once(scc_calls):
    # the matrices analysed are B and the agent network
    rng = np.random.default_rng(31)
    reducible = 0
    for _ in range(20):
        spec = random_model(rng, n_agents=3, full_support=False, network_density=0.6)
        scc_calls.clear()
        result = consensus_expectation(spec)
        assert len(scc_calls) == 2
        reducible += not result.irreducible
    assert 0 < reducible < 20


def test_pseudopriors_analyse_each_matrix_once(scc_calls):
    rng = np.random.default_rng(32)
    for _ in range(5):
        spec = random_model(rng, n_agents=3, full_support=True)
        scc_calls.clear()
        pseudopriors(spec)
        assert len(scc_calls) == 2  # B and the network


def test_markov_check_never_analyses_a_structure_again(scc_calls):
    m, delta, eps = 5, 0.2, 0.05
    spec = tightness_chain(m, delta, eps)
    B = build_interaction_structure(spec)
    f = first_order_vector(spec)
    scc_calls.clear()
    check = markov_optimism_check(B, f, float(m), delta, eps)
    assert scc_calls == []
    assert check.mass_above == pytest.approx(1.0 / (1.0 + eps / delta), abs=1e-12)
    # a bare matrix is analysed exactly once
    check = markov_optimism_check(B.matrix, f, float(m), delta, eps)
    assert len(scc_calls) == 1


def per_signal_matrix(spec, type_dependent_weights=None):
    """The interaction matrix filled one signal and one counterpart at a
    time: the reference that the block assembly must match bit for bit,
    errors included."""
    labels = [t for a in spec.agents for t in spec.signals[a]]
    owners = [i for i, a in enumerate(spec.agents) for _ in spec.signals[a]]
    starts = np.cumsum([0] + [len(spec.signals[a]) for a in spec.agents])
    B = np.zeros((len(labels), len(labels)))
    for s, (t, i) in enumerate(zip(labels, owners)):
        if type_dependent_weights is not None:
            row = np.asarray(type_dependent_weights[t], dtype=float)
            if row.shape != (spec.n_agents,):
                raise PreconditionError(
                    f"type-dependent weights for {t}: expected length"
                    f" {spec.n_agents}, got {row.shape}"
                )
        else:
            row = spec.network.weights[i]
        belief = spec.beliefs[t]
        for j in np.flatnonzero(row):
            if j == i:
                B[s, s] += row[j]
                continue
            a_j = spec.agents[j]
            marg = belief.signal_marginals.get(a_j)
            if marg is None:
                raise PreconditionError(
                    f"signal {t}: agent {spec.agents[i]} weights {a_j} but carries no"
                    f" belief marginal over {a_j}'s signals"
                )
            B[s, starts[j]:starts[j + 1]] = row[j] * marg
    return B


def same_bits(a, b):
    """Equal as float64 bit patterns, so -0.0 and +0.0 differ."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def with_self_weights(rng, spec):
    """The spec with a random self-weight on every other agent's row."""
    g = np.array(spec.network.weights)
    for i in range(0, spec.n_agents, 2):
        g[i] *= 1 - rng.uniform(0.1, 0.9)
        g[i, i] = 1 - g[i].sum()
    return dataclasses.replace(spec, network=Network(g, diagonal_allowed=True))


def random_row_weights(rng, spec):
    """A random weight row per signal over the owner and the agents its
    network row weights, some of them left unweighted."""
    weights = {}
    for i, a in enumerate(spec.agents):
        support = spec.network.weights[i] != 0
        support[i] = True
        for t in spec.signals[a]:
            row = rng.dirichlet(np.ones(spec.n_agents)) * support
            row[rng.random(spec.n_agents) < 0.4] = 0.0
            if not row.any():
                row[i] = 1.0
            weights[t] = row / row.sum()
    return weights


def oracle_cases():
    """Seeded specs, each with random type-dependent weights."""
    specs = []
    for seed in range(12):
        rng = np.random.default_rng([61, seed])
        spec = random_model(rng, n_agents=int(rng.integers(2, 6)),
                            n_states=int(rng.integers(1, 4)),
                            max_signals=int(rng.integers(1, 5)),
                            full_support=bool(seed % 2),
                            network_density=float(rng.uniform(0.3, 1.0)))
        specs += [(f"random-{seed}", rng, spec),
                  (f"random-self-{seed}", rng, with_self_weights(rng, spec))]
    for seed in range(3):
        rng = np.random.default_rng([62, seed])
        spec = sparse_reducible_model(rng, n_agents=40, n_signals=8)
        specs += [(f"sparse-{seed}", rng, spec),
                  (f"sparse-self-{seed}", rng, with_self_weights(rng, spec))]
        # some signals list an agent their owner does not weight, others
        # omit it; as built and as parsed
        rng = np.random.default_rng([64, seed])
        spec = listing_unweighted(rng, sparse_reducible_model(rng, n_agents=12, n_signals=6))
        specs += [(f"omitted-{seed}", rng, spec),
                  (f"omitted-parsed-{seed}", rng, parse_scenario(scenario_object(spec)))]
    # full-mode entries, and marginals of a common prior over profiles
    specs.append(("cps", np.random.default_rng(66), load_scenario(scenario_path("cps"))))
    for seed in range(3):
        rng = np.random.default_rng([67, seed])
        specs.append((f"full-{seed}", rng, random_cps_model(
            rng, n_agents=3, n_signals=int(rng.integers(1, 4)))))
    return [(name, spec, random_row_weights(rng, spec)) for name, rng, spec in specs]


def listing_unweighted(rng, spec):
    """The spec with about half of each agent's signals also listing an
    agent their owner does not weight; the other signals omit it."""
    beliefs = dict(spec.beliefs)
    for i, a in enumerate(spec.agents):
        unweighted = [j for j in range(spec.n_agents)
                      if j != i and spec.network.weights[i, j] == 0]
        j = spec.agents[rng.choice(unweighted)]
        for t in spec.signals[a]:
            if rng.random() < 0.5:
                b = beliefs[t]
                beliefs[t] = InterimBelief(b.state_marginal, {
                    **b.signal_marginals, j: dirichlet(rng, len(spec.signals[j]))})
    return dataclasses.replace(spec, beliefs=beliefs)


ORACLE_CASES = oracle_cases()


@pytest.mark.parametrize("name, spec, weights", ORACLE_CASES,
                         ids=[case[0] for case in ORACLE_CASES])
def test_block_assembly_matches_the_per_signal_oracle(name, spec, weights):
    built = build_interaction_structure(spec)
    assert same_bits(built.matrix, per_signal_matrix(spec))
    assert_scanned_analysis(built)
    built = build_interaction_structure(spec, type_dependent_weights=weights)
    assert same_bits(built.matrix, per_signal_matrix(spec, weights))
    assert_scanned_analysis(built)


def assert_scanned_analysis(structure):
    """The builder reads the edges from the blocks it writes: its analysis
    must equal that of a scan of every cell of the matrix.  The scan is the
    analysis's own: the builder may write inf cells, which as_structure
    refuses in a bare matrix."""
    scanned = interaction._analysed(np.array(structure.matrix), index=None)
    assert structure.components == scanned.components
    assert structure.terminal == scanned.terminal and structure.periods == scanned.periods
    assert same_bits(structure.component_of, scanned.component_of)
    assert all(np.array_equal(a, b) and a.dtype == b.dtype
               for a, b in zip(structure.crossing, scanned.crossing))


def odd_marginals():
    """A spec whose ag0 weights only ag1, yet holds a marginal over ag2 with
    -0.0 and inf, and q's marginal over ag1 is [-0.0, inf]; and its fitted
    variant, where that marginal is [-0.0, 1.0] and ag1 weights only ag0,
    so that every odd marginal left is one its owner does not weight."""
    agents = ("ag0", "ag1", "ag2")
    signals = {"ag0": ("p", "q"), "ag1": ("r", "s"), "ag2": ("u",)}
    odd = [-0.0, np.inf]
    beliefs = {
        "p": InterimBelief([1.0], {"ag1": [0.5, 0.5], "ag2": [-0.0]}),
        "q": InterimBelief([1.0], {"ag1": odd, "ag2": [np.inf]}),
        "r": InterimBelief([1.0], {"ag0": [-0.0, 1.0], "ag2": [np.inf]}),
        "s": InterimBelief([1.0], {"ag0": [1.0, -0.0], "ag2": [-0.0]}),
        "u": InterimBelief([1.0], {"ag0": [0.25, 0.75], "ag1": [1.0, -0.0]}),
    }
    g = [[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]]
    spec = ModelSpec(("w",), agents, signals, beliefs, Network(g))
    fit = ModelSpec(("w",), agents, signals,
                    {**beliefs, "q": InterimBelief([1.0], {"ag1": [-0.0, 1.0], "ag2": [np.inf]})},
                    Network([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    return spec, fit


def test_unweighted_marginals_are_never_written():
    spec, fit = odd_marginals()
    # through the network, a marginal that fills B is held to sum to 1
    with pytest.raises(PreconditionError, match=re.escape(
            "beliefs.q.signals.ag1: sums to inf (expected 1 within 1e-12)")):
        build_interaction_structure(spec)
    structure = build_interaction_structure(fit)
    B = structure.matrix
    assert same_bits(B, per_signal_matrix(fit))
    assert same_bits(B[0:4, 4:5], np.zeros((4, 1)))
    # written -0.0 cells are no edges
    assert same_bits(B[1, 2], -0.0) and same_bits(B[2, 0], -0.0)
    assert_scanned_analysis(structure)
    # type-dependent weights are held to the same rule
    weights = {"p": [0, 1, 0], "q": [0, 1, 0], "r": [1, 0, 0], "s": [0.5, 0, 0.5],
               "u": [0, 1, 0]}
    with pytest.raises(PreconditionError, match=re.escape(
            "beliefs.q.signals.ag1: sums to inf (expected 1 within 1e-12)")):
        build_interaction_structure(spec, type_dependent_weights=weights)
    # with q's marginal fitted, s's marginal over ag2, which s weights,
    # sums to 0; made a probability vector, r's inf over ag2 is left
    # unweighted
    with pytest.raises(PreconditionError, match=re.escape(
            "beliefs.s.signals.ag2: sums to 0.0 (expected 1 within 1e-12)")):
        build_interaction_structure(fit, type_dependent_weights=weights)
    fit = dataclasses.replace(fit, beliefs={
        **fit.beliefs, "s": InterimBelief([1.0], {"ag0": [1.0, -0.0], "ag2": [1.0]})})
    structure = build_interaction_structure(fit, type_dependent_weights=weights)
    B = structure.matrix
    assert same_bits(B, per_signal_matrix(fit, weights))
    assert_scanned_analysis(structure)
    assert same_bits(B[2, 4], 0.0) and B[3, 4] == 0.5
    # written -0.0 cells are no edges
    assert same_bits(B[1, 2], -0.0) and same_bits(B[2, 0], -0.0)


def own_rows(spec):
    """Each signal's type-dependent weights: its owner's network row."""
    return {t: spec.network.weights[spec.agents.index(spec.agent_of(t))]
            for t in spec.all_signals()}


@pytest.mark.parametrize("ann, message", [
    ([0.0, 2.0], "type-dependent weights for a1: sums to 2.0 (expected 1 within 1e-12)"),
    ([-0.5, 1.5], "type-dependent weights for a1: negative weight"),
    ([-1e-13, 1.0 + 1e-13], "type-dependent weights for a1: negative weight"),
    ([0.0, 1.0 + 1e-9], "type-dependent weights for a1: sums to 1.000000001"),
], ids=["sum", "negative", "negative-within-tol", "past-tol"])
def test_type_dependent_weight_rows_are_probability_vectors(ann, message):
    # with [0, 2], B's rows once summed to [2, 2, 1, 1]; with [-0.5, 1.5],
    # a negative cell was written; a weight below zero by less than the
    # tolerance is refused as the network refuses it
    spec = load_scenario(scenario_path("cps"))
    weights = {**own_rows(spec), "a1": ann, "a2": ann}
    with pytest.raises(PreconditionError, match=re.escape(message)):
        build_interaction_structure(spec, type_dependent_weights=weights)
    # the first signal that fails is named, as for a row of the wrong length
    weights["a1"] = [0.0, 1.0]
    with pytest.raises(PreconditionError, match=re.escape(message.replace("a1", "a2"))):
        build_interaction_structure(spec, type_dependent_weights=weights)


def test_type_dependent_weights_hold_the_beliefs_they_weight():
    spec = load_scenario(scenario_path("cps"))
    a1 = spec.beliefs["a1"]
    doubled = dataclasses.replace(spec, beliefs={**spec.beliefs, "a1": InterimBelief(
        a1.state_marginal, {"bob": 2 * a1.signal_marginals["bob"]})})
    weights = own_rows(spec)
    message = "beliefs.a1.signals.bob: sums to 2.0 (expected 1 within 1e-12)"
    for w in (None, weights):
        with pytest.raises(PreconditionError, match=re.escape(message)):
            build_interaction_structure(doubled, w)
    # a marginal that a1's own row does not weight fills no cell of B
    structure = build_interaction_structure(doubled, {**weights, "a1": [1.0, 0.0]})
    assert same_bits(structure.matrix, per_signal_matrix(doubled, {**weights, "a1": [1.0, 0.0]}))
    assert np.allclose(structure.matrix.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("state, extra, message", [
    ([0.5, 0.3, 0.2], {}, "beliefs.a1.state: expected length 2, got 3"),
    ([0.7, 0.3], {"eve": [1.0]}, "beliefs.a1.signals.bob: sums to 2.0 (expected 1 within 1e-12)"),
], ids=["state-length", "not-an-agent"])
def test_an_irregular_row_that_fills_b_is_held_to_the_probability_rules(state, extra, message):
    # a1's row is irregular (a state marginal of length 3, or a marginal
    # over a label that is no agent), yet its doubled marginal over bob
    # fills B: B's row sums were once [2, 1, 1, 1], without a refusal
    spec = load_scenario(scenario_path("cps"))
    a1 = spec.beliefs["a1"]
    bad = dataclasses.replace(spec, beliefs={**spec.beliefs, "a1": InterimBelief(
        state, {"bob": 2 * a1.signal_marginals["bob"], **extra})})
    assert bad.beliefs.irregular[0] and not bad.beliefs.irregular[1:].any()
    for weights in (None, own_rows(spec)):
        with pytest.raises(PreconditionError, match=re.escape(message)):
            build_interaction_structure(bad, weights)


def test_type_dependent_weights_name_every_declared_signal_and_no_other():
    spec = load_scenario(scenario_path("cps"))
    weights = own_rows(spec)
    lacking = {t: w for t, w in weights.items() if t != "a2"}
    with pytest.raises(PreconditionError, match=re.escape(
            "type-dependent weights: no row for signal a2")):
        build_interaction_structure(spec, type_dependent_weights=lacking)
    with pytest.raises(PreconditionError, match=re.escape(
            "type-dependent weights: unknown signal(s) ['zz']")):
        build_interaction_structure(spec, type_dependent_weights={**weights, "zz": [0.0, 1.0]})


def representation_cases():
    """Bundled scenarios, bench-generated sparse and cis models, and the
    odd-marginals fixture."""
    gen = bench_gen()
    cases = [(name, load_scenario(scenario_path(name))) for name in
             ("case2", "counterexample", "cps", "cycle", "tightness", "tyranny_extreme")]
    cases += [(f"sparse-{10 * agents}", parse_scenario(gen.sparse_reducible(
        np.random.default_rng([7, agents]), agents))) for agents in (100, 103)]
    cases += [(f"cis-{3 * states}", parse_scenario(gen.cis_dense(
        np.random.default_rng([7, states]), states))) for states in (30, 50)]
    cases.append(("odd-marginals", odd_marginals()[1]))
    return [(name, getattr(spec, "model", spec)) for name, spec in cases]


@pytest.mark.parametrize("name, spec", representation_cases(),
                         ids=[case[0] for case in representation_cases()])
def test_sparse_rows_store_the_dense_matrix_bit_for_bit(name, spec):
    structure = build_interaction_structure(spec)
    rows, B = structure.rows, per_signal_matrix(spec)
    # every cell whose bits are nonzero is stored, signed zeros included
    assert same_bits(rows.dense(), B) and same_bits(structure.matrix, B)
    assert not structure.matrix.flags.writeable
    assert not any(part.flags.writeable for part in (rows.indptr, rows.indices, rows.data))
    assert same_bits(rows.data, B[B.view(np.uint64) != 0])
    # the graph analysis is that of the dense matrix
    comps, terminal, _ = classes_oracle(B)
    assert structure.components == tuple(comps) and structure.terminal == tuple(terminal)
    assert structure.periods == tuple(period_oracle(B, c) for c in terminal)
    assert_scanned_analysis(structure)
    # each component's block, and the weights the analysis keeps
    for comp in structure.components[:20]:
        assert same_bits(rows.block(comp), B[np.ix_(comp, comp)])
    u, v, w = structure.crossing
    assert same_bits(w, B[u, v])
    # a -0.0 self-weight is kept as +0.0: the walk divides by 1 - d * loop,
    # the same for either zero
    assert same_bits(structure.loops, np.diag(B) + 0.0)
    # the product helper: the stored cells' sums, bit for bit at every size
    x = np.random.default_rng(len(B)).random(len(B))
    right, left = rows.product(x), rows.product(x, left=True)
    assert same_bits(right, product_oracle(B, x)) and same_bits(left, product_oracle(B, x, True))
    assert np.allclose(right, B @ x, rtol=1e-14, atol=0)
    assert np.allclose(left, x @ B, rtol=1e-14, atol=0)


def product_oracle(B, x, left=False):
    """``B @ x``, or with ``left`` ``x @ B``, with no BLAS: a Python loop
    over each row's cells with nonzero bits in column order (each column's
    in row order with ``left``)."""
    stored = B.view(np.uint64) != 0
    if left:
        B, stored = B.T, stored.T
    out = np.zeros(len(B))
    for r in range(len(B)):
        total = 0.0
        for c in np.flatnonzero(stored[r]):
            total += float(B[r, c]) * float(x[c])
        out[r] = total
    return out


def error_text(fn, *args):
    with pytest.raises(PreconditionError) as exc:
        fn(*args)
    return str(exc.value)


def test_missing_marginal_error_matches_the_per_signal_oracle():
    for seed in range(30):
        rng = np.random.default_rng([63, seed])
        spec = random_model(rng, n_agents=int(rng.integers(2, 5)), max_signals=3)
        beliefs = dict(spec.beliefs)
        labels = spec.all_signals()
        # drop marginals from a few signals; the first one met must be named
        for t in rng.choice(labels, size=min(3, len(labels)), replace=False):
            b = beliefs[t]
            keep = {j: m for j, m in b.signal_marginals.items() if rng.random() < 0.5}
            beliefs[t] = InterimBelief(b.state_marginal, keep)
        broken = dataclasses.replace(spec, beliefs=beliefs)
        parsed = parse_scenario(scenario_object(broken))
        weights = random_row_weights(rng, spec)
        if seed % 3 == 0:
            # a row of the wrong length, met before or after a missing marginal
            weights[labels[rng.integers(len(labels))]] = [1.0]
        for args in ((broken,), (broken, weights), (parsed,), (parsed, weights),
                     (spec, weights)):
            try:
                per_signal_matrix(*args)
            except PreconditionError as exc:
                assert error_text(build_interaction_structure, *args) == str(exc)
            else:
                got = build_interaction_structure(*args).matrix
                assert same_bits(got, per_signal_matrix(*args))



def without(spec, *labels):
    """The spec with the beliefs of ``labels`` dropped."""
    beliefs = {t: b for t, b in spec.beliefs.items() if t not in labels}
    return dataclasses.replace(spec, beliefs=beliefs)


def test_a_signal_without_a_belief_is_named():
    spec = without(load_scenario(scenario_path("cps")), "a1")
    assert error_text(build_interaction_structure, spec) == "signal a1: no belief"
    f = np.zeros(len(spec.all_signals()))
    assert error_text(lambda: consensus_expectation(spec, f=f)) == "signal a1: no belief"
    assert error_text(consensus_expectation, spec).startswith("signal a1: ")
    # also when its owner weights only himself
    alone = dataclasses.replace(without(spec, "a1", "b2"), network=Network(
        [[1.0, 0.0], [0.5, 0.5]], diagonal_allowed=True))
    assert error_text(build_interaction_structure, alone) == "signal a1: no belief"


def test_a_missing_belief_is_named_alike_with_and_without_f():
    # without f the first-order map said "no state marginal available"
    spec = without(load_scenario(scenario_path("cps")), "a1")
    f = np.zeros(len(spec.all_signals()))
    assert (error_text(consensus_expectation, spec)
            == error_text(lambda: consensus_expectation(spec, f=f))
            == "signal a1: no belief")


@pytest.mark.parametrize("n", [1, 3])
def test_a_network_that_does_not_match_the_agents_is_refused(n):
    # 1 x 1 gave a B whose bob rows were zero, 3 x 3 ended in an IndexError
    spec = load_scenario(scenario_path("cps"))
    spec = dataclasses.replace(spec, network=Network(np.full((n, n), 1 / n),
                                                     diagonal_allowed=True))
    assert error_text(build_interaction_structure, spec) == (
        f"network: shape ({n}, {n}) does not match 2 agents, expected (2, 2)")


def test_the_first_failing_signal_is_named_in_index_order():
    spec = load_scenario(scenario_path("cps"))
    beliefs = dict(spec.beliefs)
    beliefs["a1"] = InterimBelief(beliefs["a1"].state_marginal, {})
    del beliefs["a2"], beliefs["b1"]
    missing = "signal a1: agent ann weights bob but carries no belief marginal over bob's signals"
    assert error_text(build_interaction_structure,
                      dataclasses.replace(spec, beliefs=beliefs)) == missing
    weights = {t: [0.0, 1.0] for t in ("a1", "a2")} | {t: [1.0, 0.0] for t in ("b1", "b2")}
    weights["a1"] = [1.0]
    assert error_text(build_interaction_structure, spec, weights) == (
        "type-dependent weights for a1: expected length 2, got (1,)")
    # a wrong-length row after a failing one in the same agent's block
    weights["a1"], weights["a2"] = [0.0, 1.0], [1.0]
    assert error_text(build_interaction_structure,
                      dataclasses.replace(spec, beliefs=beliefs), weights) == missing
    del beliefs["a1"]
    assert error_text(build_interaction_structure,
                      dataclasses.replace(spec, beliefs=beliefs)) == "signal a1: no belief"


@pytest.mark.parametrize("name", ["cps", "case2", "cycle"])
def test_the_builder_reads_no_per_signal_belief(monkeypatch, name):
    spec = load_scenario(scenario_path(name))
    broken = without(spec, spec.all_signals()[-1])
    beliefs = dict(spec.beliefs)
    t = spec.all_signals()[0]
    beliefs[t] = InterimBelief(beliefs[t].state_marginal, {})
    omitted = dataclasses.replace(spec, beliefs=beliefs)
    B = build_interaction_structure(spec).matrix
    want = [error_text(build_interaction_structure, bad) for bad in (broken, omitted)]

    def refuse(self, t):
        raise AssertionError(f"belief of {t} read")

    monkeypatch.setattr(model.Beliefs, "__getitem__", refuse)
    assert same_bits(build_interaction_structure(spec).matrix, B)
    assert [error_text(build_interaction_structure, bad) for bad in (broken, omitted)] == want


def test_beliefs_are_read_only_views_of_the_agent_arrays():
    rng = np.random.default_rng(68)
    library = listing_unweighted(rng, sparse_reducible_model(rng, n_agents=6, n_signals=6))
    parsed = [parse_scenario(scenario_object(library)), load_scenario(scenario_path("cycle"))]
    for spec in parsed:
        layout = spec.beliefs
        for k, a in enumerate(spec.agents):
            table = layout.states[layout.index.blocks[k]]
            for r, t in enumerate(spec.signals[a]):
                b = spec.beliefs[t]
                assert np.shares_memory(b.state_marginal, table)
                assert same_bits(b.state_marginal, table[r])
                with pytest.raises(ValueError, match="read-only"):
                    b.state_marginal[0] = 0.5
                for j, m in b.signal_marginals.items():
                    rows, listed = pair_rows(layout, a, j)
                    assert listed[r]
                    assert np.shares_memory(m, rows)
                    assert same_bits(m, rows[r])
                    with pytest.raises(ValueError, match="read-only"):
                        m[0] = 0.5
    # beliefs given as objects (also those parsed from full entries) are
    # kept; the arrays hold copies of their vectors
    beliefs = dict(library.beliefs)
    again = dataclasses.replace(library, beliefs=beliefs)
    assert all(again.beliefs[t] is b for t, b in beliefs.items())
    for spec in (library, again, load_scenario(scenario_path("cps"))):
        layout = spec.beliefs
        for k, a in enumerate(spec.agents):
            table = layout.states[layout.index.blocks[k]]
            for r, t in enumerate(spec.signals[a]):
                b = spec.beliefs[t]
                assert not np.shares_memory(b.state_marginal, layout.states)
                assert same_bits(b.state_marginal, table[r])
                for j, m in b.signal_marginals.items():
                    assert same_bits(m, pair_rows(layout, a, j)[0][r])
    for spec in parsed + [library]:
        layout = spec.beliefs
        arrays = [layout.states, *(rows for stack in layout.stacks.values()
                                   for rows in (stack.marginals, stack.listed))]
        assert not any(rows.flags.writeable for rows in arrays)


FIXTURES = ["cps", "case2", "counterexample", "cycle", "tightness", "tyranny_extreme"]


def _model(name):
    scenario = load_scenario(scenario_path(name))
    return getattr(scenario, "model", scenario)


def _index_fixtures():
    rng = np.random.default_rng(41)
    return [_model(name) for name in FIXTURES] + [
        random_model(rng, n_agents=4, max_signals=3),
        sparse_reducible_model(rng, 8, 3),
    ]


def test_the_first_order_map_is_the_state_table_and_shares_the_index():
    for spec in _index_fixtures():
        F = spec.first_order
        assert F.matrix is spec.beliefs.states
        assert np.shares_memory(F.matrix, spec.beliefs.states)
        assert not F.matrix.flags.writeable
        assert F.index is spec.structure.index is spec.beliefs.index
        assert spec.all_signals() == F.index.labels
        for s, t in enumerate(F.index.labels):
            assert spec.agent_of(t) == spec.agents[F.index.agent_of[s]]


def test_signal_index_lives_with_the_beliefs():
    assert consensus_lab.SignalIndex is interaction.SignalIndex is model.SignalIndex
    spec = _model("case2")
    index = spec.beliefs.index
    assert index.agents == spec.agents
    assert index.labels == tuple(t for a in spec.agents for t in spec.signals[a])
    assert index.agent_of.tolist() == [k for k, a in enumerate(spec.agents)
                                       for _ in spec.signals[a]]
    with pytest.raises(KeyError):
        spec.agent_of("nobody")


def test_a_repeated_agent_is_refused_by_both_builders():
    # the first-order map had 6 rows for 4 signals, and B named a
    # marginal of "ann" about "ann"
    spec = dataclasses.replace(_model("cps"), agents=("ann", "ann", "bob"))
    for build in (build_first_order_map, build_interaction_structure):
        with pytest.raises(PreconditionError, match="^agents: duplicate agent label$"):
            build(spec)


def test_an_irreducible_structure_is_solved_as_its_one_terminal_class():
    for spec in _index_fixtures():
        structure = spec.structure
        if structure.irreducible:
            assert structure.terminal == structure.components
            assert same_bits(structure.stationary[0],
                             stationary_distribution(structure.matrix).vector)


def test_an_empty_matrix_is_refused():
    # the analysis ended in numpy's "need at least one array to concatenate"
    empty = np.zeros((0, 0))
    assert strongly_connected_components(empty) == []
    for call in (as_structure, stationary_distribution, joint_connectedness, no_trade_test):
        with pytest.raises(PreconditionError, match="no entries"):
            call(empty)


BARE_MATRIX_ENTRIES = {
    "as_structure": as_structure,
    "stationary_distribution": stationary_distribution,
    "eigenvector_centrality": eigenvector_centrality,
    "no_trade_test": no_trade_test,
    "strongly_connected_components": strongly_connected_components,
    "component_period": lambda matrix: component_period(matrix, (0,)),
}


@pytest.mark.parametrize("entry", list(BARE_MATRIX_ENTRIES))
@pytest.mark.parametrize("matrix, message", [
    (np.full((2, 3), 0.5), "matrix: expected a square array, got shape (2, 3)"),
    (np.full(3, 0.5), "matrix: expected a square array, got shape (3,)"),
    ([["a", "b"], ["c", "d"]], "matrix: list is not a numeric array"),
    (np.array([[1 + 5j, 0], [0, 1]]), "matrix: expected real entries, got complex128"),
    (np.array([[np.nan, 1.0], [1.0, 0.0]]), "matrix: every entry must be finite"),
    (np.array([[np.inf, 1.0], [1.0, 0.0]]), "matrix: every entry must be finite"),
], ids=["2 x 3", "1-D", "not numeric", "complex", "nan", "inf"])
def test_a_matrix_that_is_not_square_and_numeric_is_refused(entry, matrix, message):
    # a 2 x 3 array ended in an IndexError, a 1-D one in "not enough values
    # to unpack", and text in numpy's ValueError; a complex array lost its
    # imaginary parts with only numpy's ComplexWarning (itself raised under
    # -W error::RuntimeWarning), NaN ended in a bare LinAlgError and inf in
    # has_trade=False.  The refusal comes before any cast, so no warning is
    # given, whether warnings are errors or not.
    for action in ("always", "error"):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter(action)
            with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
                BARE_MATRIX_ENTRIES[entry](matrix)
        assert seen == []


def test_a_network_with_a_non_finite_weight_is_refused():
    network = Network([[np.nan, 1.0], [1.0, 0.0]], diagonal_allowed=True)
    with pytest.raises(PreconditionError, match="^matrix: every entry must be finite$"):
        eigenvector_centrality(network)


@pytest.mark.parametrize("kernel", [strongly_connected_components,
                                    lambda matrix: component_period(matrix, (0, 1))],
                         ids=["strongly_connected_components", "component_period"])
def test_the_graph_kernels_take_a_bare_matrix_only(kernel):
    # a structure or a network goes through as_structure, which keeps its
    # analysis; the kernels refuse them with a typed error, not a TypeError
    spec = _model("cps")
    for obj in (spec.structure, spec.network):
        with pytest.raises(PreconditionError,
                           match=f"^matrix: {type(obj).__name__} is not a numeric array$"):
            kernel(obj)


def test_first_order_map_refuses_a_state_marginal_of_the_wrong_length():
    spec = _model("cps")
    beliefs = dict(spec.beliefs)
    beliefs["a1"] = InterimBelief([0.5, 0.3, 0.2], beliefs["a1"].signal_marginals)
    with pytest.raises(PreconditionError, match=r"^signal a1: state marginal has shape"
                       r" \(3,\), expected \(2,\)$"):
        build_first_order_map(dataclasses.replace(spec, beliefs=beliefs))
