import dataclasses
import json
from io import StringIO

import numpy as np
import pytest

from consensus_lab.cli import main
from consensus_lab.consensus import first_order_vector
from consensus_lab.errors import PreconditionError
from consensus_lab.interaction import as_structure, build_interaction_structure
from consensus_lab.io import load_scenario, parse_scenario
from consensus_lab.model import (
    PROB_TOL,
    BasicVariable,
    InterimBelief,
    ModelSpec,
    Network,
    ex_ante_expectation,
    validate_model,
)
from consensus_lab.spectral import eigenvector_centrality

from conftest import (
    dirichlet, pair_rows, random_cps_model, random_model, same_layout, scenario_object,
    scenario_path,
)


def two_agent_spec(**overrides):
    beliefs = {
        "a1": InterimBelief([0.7, 0.3], {"bob": [0.6, 0.4]}),
        "a2": InterimBelief([0.3, 0.7], {"bob": [0.3, 0.7]}),
        "b1": InterimBelief([0.9, 0.1], {"ann": [0.5, 0.5]}),
        "b2": InterimBelief([0.4, 0.6], {"ann": [0.1, 0.9]}),
    }
    kw = dict(
        states=("g", "b"),
        agents=("ann", "bob"),
        signals={"ann": ("a1", "a2"), "bob": ("b1", "b2")},
        beliefs=beliefs,
        network=Network([[0.0, 1.0], [1.0, 0.0]]),
        y=BasicVariable([0.0, 1.0], 1.0),
    )
    kw.update(overrides)
    return ModelSpec(**kw)


def test_wellformed_model_validates():
    assert validate_model(two_agent_spec()) == []


def test_bad_network_row_sum_is_reported_with_location():
    spec = two_agent_spec(network=Network([[0.0, 0.9], [1.0, 0.0]]))
    violations = validate_model(spec)
    assert len(violations) == 1
    assert "network.row[ann]" in violations[0]


def test_duplicate_signal_label_across_agents():
    spec = two_agent_spec(
        signals={"ann": ("a1", "a2"), "bob": ("a1", "b2")},
        beliefs={
            "a1": InterimBelief([0.7, 0.3], {"bob": [0.6, 0.4]}),
            "a2": InterimBelief([0.3, 0.7], {"bob": [0.3, 0.7]}),
            "b2": InterimBelief([0.4, 0.6], {"ann": [0.1, 0.9]}),
        },
    )
    assert any("label already used" in v for v in validate_model(spec))


def test_belief_not_summing_to_one_is_reported():
    bad = two_agent_spec()
    beliefs = dict(bad.beliefs)
    beliefs["a1"] = InterimBelief([0.7, 0.2], {"bob": [0.6, 0.4]})
    spec = two_agent_spec(beliefs=beliefs)
    assert any("beliefs.a1.state" in v for v in validate_model(spec))


def test_diagonal_rejected_unless_allowed():
    net = Network([[0.5, 0.5], [1.0, 0.0]])
    spec = two_agent_spec(network=net)
    assert any("diagonal" in v for v in validate_model(spec))
    ok = two_agent_spec(network=Network([[0.5, 0.5], [1.0, 0.0]], diagonal_allowed=True))
    assert validate_model(ok) == []


_ONE_AGENT_BELIEFS = {"a1": InterimBelief([0.7, 0.3], {}), "a2": InterimBelief([0.3, 0.7], {})}


@pytest.mark.parametrize("overrides, violation", [
    (dict(network=Network([[0.0, 1.0], [1.5, -0.5]], diagonal_allowed=True)),
     "network: negative weight"),
    (dict(agents=("ann",), signals={"ann": ("a1", "a2")}, beliefs=_ONE_AGENT_BELIEFS,
          network=Network([[1.0]], diagonal_allowed=True)),
     "agents: need at least two agents"),
    (dict(agents=("ann", "bob", "bob"), network=Network(0.5 - 0.5 * np.eye(3))),
     "agents: duplicate agent label"),
    (dict(signals={"ann": ("a1", "a2"), "bob": ()}, beliefs=_ONE_AGENT_BELIEFS),
     "signals.bob: agent needs at least one signal"),
    (dict(network=Network([[1.0]])), "network: shape (1, 1) does not match 2 agents"),
    (dict(y=BasicVariable([0.0, 1.0, 0.5], 1.0)), "y: 3 values for 2 states"),
    (dict(y=BasicVariable([0.0, 1.0], 0.0)), "y: bound must be positive"),
    (dict(y=BasicVariable([0.0, 2.0], 1.0)), "y: values outside [0, 1.0]"),
], ids=["negative weight", "one agent", "duplicate agent", "agent without signals",
        "network shape", "y length", "y bound", "y outside its bound"])
def test_each_model_violation_is_reported(overrides, violation):
    # the first violation is the one the override makes; others may follow
    # from it (a duplicate agent's signals are labels used twice)
    assert validate_model(two_agent_spec(**overrides))[0] == violation


@pytest.mark.parametrize("vec, got", [
    (0.5, "shape ()"),
    ([[0.6], [0.4]], "shape (2, 1)"),
    ([[0.6, 0.4]], "shape (1, 2)"),
])
def test_misshapen_vectors_are_reported_as_wrong_lengths(vec, got):
    beliefs = dict(two_agent_spec().beliefs)
    beliefs["a1"] = InterimBelief(vec, {"bob": vec})
    spec = two_agent_spec(beliefs=beliefs, priors={"ann": vec, "bob": [0.5, 0.5]})
    expected = [f"{loc}: expected length 2, got {got}"
                for loc in ("beliefs.a1.state", "beliefs.a1.signals.bob", "priors.ann")]
    assert validate_model(spec) == expected == per_item_violations(spec)
    # the vectors are kept as given, outside the agent arrays
    assert spec.beliefs["a1"].state_marginal.shape == np.shape(vec)
    assert not pair_rows(spec.beliefs, "ann", "bob")[1][0]


def test_a_signal_needs_a_marginal_over_each_agent_its_owner_weights():
    beliefs = dict(two_agent_spec().beliefs)
    beliefs["a1"] = InterimBelief([0.7, 0.3], {})
    spec = two_agent_spec(beliefs=beliefs)
    assert validate_model(spec) == per_item_violations(spec) == [
        "beliefs.a1.signals.bob: missing marginal over an agent the owner weights"]
    # a misshapen signal keeps its own message only
    beliefs["a1"] = InterimBelief([0.7, 0.3, 0.0], {})
    spec = two_agent_spec(beliefs=beliefs)
    assert validate_model(spec) == per_item_violations(spec) == [
        "beliefs.a1.state: expected length 2, got 3"]
    # no marginal over one's own signals, nor over an agent weighted zero
    beliefs["a1"] = InterimBelief([0.7, 0.3], {})
    net = Network([[1.0, 0.0], [0.5, 0.5]], diagonal_allowed=True)
    assert validate_model(two_agent_spec(beliefs=beliefs, network=net)) == []


def test_validation_refuses_exactly_the_omissions_the_builder_refuses():
    refused = 0
    for seed in range(40):
        rng = np.random.default_rng([73, seed])
        spec = random_model(rng, n_agents=int(rng.integers(2, 6)),
                            max_signals=int(rng.integers(1, 6)),
                            network_density=float(rng.uniform(0.2, 1.0)))
        beliefs = dict(spec.beliefs)
        labels = spec.all_signals()
        for t in rng.choice(labels, size=min(3, len(labels)), replace=False):
            b = beliefs[t]
            keep = {j: m for j, m in b.signal_marginals.items() if rng.random() < 0.5}
            beliefs[t] = InterimBelief(b.state_marginal, keep)
        for bad in (dataclasses.replace(spec, beliefs=beliefs),
                    parse_scenario(scenario_object(dataclasses.replace(spec, beliefs=beliefs)))):
            violations = validate_model(bad)
            assert violations == per_item_violations(bad)
            try:
                build_interaction_structure(bad)
            except PreconditionError as exc:
                refused += 1
                # the builder names the first of them in index order,
                # then agent order
                omitted = [v.split(":")[0].split(".")[1::2] for v in violations]
                t, b = min(omitted, key=lambda tb: (labels.index(tb[0]), bad.agents.index(tb[1])))
                assert str(exc).startswith(f"signal {t}: agent ")
                assert f" weights {b} but carries no belief marginal" in str(exc)
            else:
                assert violations == []
    assert 10 < refused < 80


def test_a_scalar_state_marginal_on_a_scenario_is_a_violation():
    spec = load_scenario(scenario_path("cycle"))
    beliefs = dict(spec.beliefs)
    t = spec.signals[spec.agents[0]][0]
    beliefs[t] = InterimBelief(0.5, beliefs[t].signal_marginals)
    bad = dataclasses.replace(spec, beliefs=beliefs)
    assert validate_model(bad) == [
        f"beliefs.{t}.state: expected length {spec.n_states}, got shape ()"]


def test_a_scenario_without_states_is_a_violation(tmp_path):
    # full-mode beliefs without entries: once an empty consistency
    # comparison with the joint, whose np.max raised ValueError
    with open(scenario_path("cps"), encoding="utf-8") as fh:
        data = json.load(fh)
    data["states"] = []
    for b in data["beliefs"].values():
        b["full"] = []
    del data["y"]
    path = tmp_path / "stateless.json"
    path.write_text(json.dumps(data))
    spec = load_scenario(path)
    violations = validate_model(spec)
    assert violations[0] == "states: need at least one state"
    assert violations == per_item_violations(spec)
    assert not any("inconsistent" in v for v in violations)
    assert main(["validate", str(path)], out=StringIO()) == 2


def test_parsed_and_stacked_beliefs_have_the_same_layout():
    rng = np.random.default_rng(12)
    spec = random_model(rng, n_agents=4, max_signals=5, full_support=False)
    beliefs = dict(spec.beliefs)
    # some signals omit a counterpart, some list them in another order
    for k, t in enumerate(spec.all_signals()[::2]):
        b = beliefs[t]
        items = list(b.signal_marginals.items())[::-1]
        beliefs[t] = InterimBelief(b.state_marginal, dict(items[k % 2:]))
    spec = dataclasses.replace(spec, beliefs=beliefs)
    with open(scenario_path("cycle"), encoding="utf-8") as fh:
        data = json.load(fh)
    data.update(states=list(spec.states), agents=list(spec.agents),
                signals={a: list(ts) for a, ts in spec.signals.items()},
                network=spec.network.weights.tolist(),
                beliefs={t: {"marginals": {"state": b.state_marginal.tolist(), "signals": {
                    j: m.tolist() for j, m in b.signal_marginals.items()}}}
                    for t, b in beliefs.items()})
    data.pop("y", None)
    parsed = parse_scenario(data)
    for layout in (spec.beliefs, parsed.beliefs):
        listed = [pair_rows(layout, a, j)[1] for a in spec.agents for j in spec.agents
                  if j != a and len(spec.signals[j]) in layout.stacks]
        # some pair lists its counterpart in some rows only
        assert any(0 < rows.sum() < len(rows) for rows in listed)
        assert layout.index.agents == spec.agents
        assert layout.states.shape == (len(spec.all_signals()), spec.n_states)
        assert all(len(s.signal) == len(s.counterpart) == len(s.listed) == len(s.marginals)
                   for s in layout.stacks.values())
        assert not layout.irregular.any()
    bits = lambda x: np.asarray(x).view(np.uint64)
    assert np.array_equal(bits(parsed.beliefs.states), bits(spec.beliefs.states))
    assert same_layout(parsed.beliefs, spec.beliefs)
    for t, b in beliefs.items():
        assert list(parsed.beliefs[t].signal_marginals) == list(b.signal_marginals)
    # a spec replaced with the same signals keeps the layout, others restack
    same = dataclasses.replace(parsed, network=Network(spec.network.weights))
    assert same.beliefs is parsed.beliefs
    fewer = dataclasses.replace(parsed, signals={**parsed.signals, spec.agents[0]: ()})
    assert fewer.beliefs is not parsed.beliefs
    assert spec.signals[spec.agents[0]][0] not in fewer.beliefs


def test_ex_ante_constant_and_point_mass():
    spec = two_agent_spec()
    assert ex_ante_expectation(spec, "ann", [0.5, 0.5], [5.0, 5.0]) == 5.0
    assert ex_ante_expectation(spec, "ann", [1.0, 0.0], [3.0, 8.0]) == 3.0


def test_ex_ante_two_signal_hand_value():
    # state marginals put 0.3 resp. 0.7 on the second state; y = (0, 1)
    beliefs = {
        "a1": InterimBelief([0.7, 0.3], {"bob": [1.0]}),
        "a2": InterimBelief([0.3, 0.7], {"bob": [1.0]}),
        "b1": InterimBelief([0.5, 0.5], {"ann": [0.5, 0.5]}),
    }
    spec = ModelSpec(
        ("g", "b"),
        ("ann", "bob"),
        {"ann": ("a1", "a2"), "bob": ("b1",)},
        beliefs,
        Network([[0.0, 1.0], [1.0, 0.0]]),
        y=BasicVariable([0.0, 1.0], 1.0),
    )
    ann = first_order_vector(spec)[spec.beliefs.index.blocks[0]]
    assert ex_ante_expectation(spec, "ann", [0.5, 0.5], ann) == pytest.approx(
        0.5, abs=1e-15
    )


def test_ex_ante_dimension_mismatch_names_the_vector():
    spec = two_agent_spec()
    with pytest.raises(PreconditionError, match="prior for ann"):
        ex_ante_expectation(spec, "ann", [1.0], [1.0, 2.0])
    with pytest.raises(PreconditionError, match="z for ann"):
        ex_ante_expectation(spec, "ann", [0.5, 0.5], [1.0])


def test_ex_ante_linear_in_z_and_prior():
    rng = np.random.default_rng(5)
    spec = random_model(rng)
    a = spec.agents[0]
    n = len(spec.signals[a])
    z1, z2 = rng.random(n), rng.random(n)
    p1 = rng.dirichlet(np.ones(n))
    p2 = rng.dirichlet(np.ones(n))
    lhs = ex_ante_expectation(spec, a, p1, 2.0 * z1 + 3.0 * z2)
    rhs = 2.0 * ex_ante_expectation(spec, a, p1, z1) + 3.0 * ex_ante_expectation(
        spec, a, p1, z2
    )
    assert lhs == pytest.approx(rhs, abs=1e-12)
    mix = 0.25 * p1 + 0.75 * p2
    lhs = ex_ante_expectation(spec, a, mix, z1)
    rhs = 0.25 * ex_ante_expectation(spec, a, p1, z1) + 0.75 * ex_ante_expectation(
        spec, a, p2, z1
    )
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_random_models_validate(subtests=None):
    rng = np.random.default_rng(11)
    for _ in range(20):
        assert validate_model(random_model(rng)) == []


def test_spec_mappings_are_read_only_copies():
    beliefs = dict(two_agent_spec().beliefs)
    spec = two_agent_spec(beliefs=beliefs, priors={"ann": [0.5, 0.5]})
    # the caller's dict is copied, so changing it leaves the spec alone
    beliefs["a1"] = beliefs["a2"]
    assert spec.beliefs["a1"] is not spec.beliefs["a2"]
    mappings = [spec.signals, spec.beliefs, spec.priors,
                spec.beliefs["a1"].signal_marginals]
    for mapping in mappings:
        key = next(iter(mapping))
        with pytest.raises(TypeError):
            mapping[key] = mapping[key]
    cis = load_scenario(scenario_path("tyranny_extreme"))
    for mapping in (cis.signals, cis.rho, cis.eta):
        with pytest.raises(TypeError):
            mapping[cis.agents[0]] = mapping[cis.agents[0]]


def test_derived_objects_are_built_once_per_object():
    spec = two_agent_spec()
    assert spec.structure is spec.structure
    assert spec.first_order is spec.first_order
    assert spec.network.structure is spec.network.structure
    assert as_structure(spec.network) is spec.network.structure
    assert eigenvector_centrality(spec.network) is spec.network.structure.stationary[0]
    # a replaced spec is a new object with its own structure
    swapped = dataclasses.replace(spec, network=Network([[0.5, 0.5], [0.5, 0.5]],
                                                        diagonal_allowed=True))
    assert swapped.structure is not spec.structure
    assert swapped.structure.matrix[0, 0] == 0.5
    assert spec.structure.matrix[0, 0] == 0.0
    cis = load_scenario(scenario_path("tyranny_extreme"))
    assert cis.model is cis.model
    assert dataclasses.replace(cis).model is not cis.model


def test_spec_objects_compare_by_identity():
    # generated field equality would compare the numpy fields with `==` and
    # raise "truth value of an array ... is ambiguous"
    a, b = two_agent_spec(), two_agent_spec()
    cis_a = load_scenario(scenario_path("tyranny_extreme"))
    cis_b = load_scenario(scenario_path("tyranny_extreme"))
    pairs = [(a, b), (a.network, b.network), (a.beliefs["a1"], b.beliefs["a1"]),
             (a.y, b.y), (cis_a, cis_b)]
    assert [type(x).__name__ for x, _ in pairs] == [
        "ModelSpec", "Network", "InterimBelief", "BasicVariable", "CISSpec"]
    for x, y in pairs:
        assert x == x
        assert x != y
        assert hash(x) == hash(x)
        assert len({x, y}) == 2


def per_item_violations(spec, tol=PROB_TOL):
    """validate_model checking one vector at a time: the reference the
    array screen must match, violation text and order included."""

    def check_prob(v, location, vec, n):
        # only a 1-D vector of n entries is checked further
        if np.ndim(vec) != 1:
            v.append(f"{location}: expected length {n}, got shape {np.shape(vec)}")
            return
        if len(vec) != n:
            v.append(f"{location}: expected length {n}, got {len(vec)}")
            return
        s = float(np.sum(vec))
        if np.any(np.asarray(vec) < -tol):
            v.append(f"{location}: negative entry")
        if not abs(s - 1.0) <= tol:
            v.append(f"{location}: sums to {s!r} (expected 1 within {tol})")

    v = []
    if spec.n_states < 1:
        v.append("states: need at least one state")
    if spec.n_agents < 2:
        v.append("agents: need at least two agents")
    if len(set(spec.agents)) != spec.n_agents:
        v.append("agents: duplicate agent label")
    seen = {}
    for a in spec.agents:
        ts = spec.signals.get(a)
        if not ts:
            v.append(f"signals.{a}: agent needs at least one signal")
            continue
        for t in ts:
            if t in seen:
                v.append(f"signals.{a}.{t}: label already used by agent {seen[t]}")
            seen[t] = a
    g = spec.network.weights
    if g.shape != (spec.n_agents, spec.n_agents):
        v.append(f"network: shape {g.shape} does not match {spec.n_agents} agents")
    else:
        if np.any(g < 0):
            v.append("network: negative weight")
        for i in np.nonzero(~(np.abs(g.sum(axis=1) - 1.0) <= tol))[0]:
            v.append(f"network.row[{spec.agents[i]}]: sums to {float(g[i].sum())!r}"
                     f" (expected 1 within {tol})")
        if not spec.network.diagonal_allowed:
            for i in np.nonzero(np.abs(np.diag(g)) > 0)[0]:
                v.append(f"network.diagonal[{spec.agents[i]}]: self-weight"
                         " present but diagonal_allowed is false")
    for a in spec.agents:
        for t in spec.signals.get(a, ()):
            b = spec.beliefs.get(t)
            if b is None:
                v.append(f"beliefs.{t}: missing belief")
                continue
            loc = f"beliefs.{t}"
            check_prob(v, f"{loc}.state", b.state_marginal, spec.n_states)
            for j, m in b.signal_marginals.items():
                if j == a or j not in spec.agents:
                    v.append(f"{loc}.signals.{j}: not another agent")
                    continue
                check_prob(v, f"{loc}.signals.{j}", m, len(spec.signals[j]))

    def regular(a, b):
        return b is not None and np.shape(b.state_marginal) == (spec.n_states,) and all(
            j != a and np.shape(m) == (len(spec.signals.get(j, ())),)
            for j, m in b.signal_marginals.items())

    # a regular signal lists a marginal over each agent its owner weights
    if len(set(spec.agents)) == spec.n_agents and g.shape == (spec.n_agents, spec.n_agents):
        for i, a in enumerate(spec.agents):
            for j in np.flatnonzero(g[i]):
                for t in spec.signals.get(a, ()) if j != i else ():
                    b = spec.beliefs.get(t)
                    if regular(a, b) and spec.agents[j] not in b.signal_marginals:
                        v.append(f"beliefs.{t}.signals.{spec.agents[j]}: missing marginal"
                                 " over an agent the owner weights")
    if spec.priors is not None:
        for a, mu in spec.priors.items():
            if a not in spec.agents:
                v.append(f"priors.{a}: unknown agent")
                continue
            check_prob(v, f"priors.{a}", mu, len(spec.signals[a]))
    if spec.y is not None:
        if len(spec.y.values) != spec.n_states:
            v.append(f"y: {len(spec.y.values)} values for {spec.n_states} states")
        if not spec.y.bound > 0:
            v.append("y: bound must be positive")
        elif not np.all((spec.y.values >= 0) & (spec.y.values <= spec.y.bound)):
            v.append(f"y: values outside [0, {spec.y.bound}]")
    return v


def corrupt_vector(rng, vec):
    """A probability vector with one seeded defect, or a sum nudged to
    within a few rounding errors of the default tolerance."""
    v = np.array(vec, dtype=float)
    kind = rng.integers(9)
    k = rng.integers(len(v))
    if kind == 0:
        v = v[:-1]
    elif kind == 1:
        v = np.append(v, 0.0)
    elif kind == 2:
        v[k] = -rng.choice([PROB_TOL / 2, 2 * PROB_TOL, 0.1])
    elif kind == 3:
        v[k] = rng.choice([np.nan, np.inf, -np.inf])
    elif kind == 4:
        v *= 1 + PROB_TOL * rng.choice([0.5, 0.999, 1.0, 1.001, 2.0])
    elif kind == 5:
        v[k] += rng.choice([-1, 1]) * PROB_TOL * (1 + rng.integers(-64, 65) * 2.0**-44)
    elif kind == 6:
        v = np.zeros(0)
    elif kind == 7:
        v[k] += rng.choice([-1, 1]) * rng.uniform(0, 1e-3)
    return v


def corrupted_spec(rng, spec):
    """``spec`` with a few seeded defects in its beliefs and priors."""
    beliefs = dict(spec.beliefs)
    labels = spec.all_signals()
    for t in rng.choice(labels, size=min(len(labels), 4), replace=False):
        b = beliefs[t]
        owner = spec.agent_of(t)
        state = b.state_marginal
        marginals = dict(b.signal_marginals)
        what = rng.integers(7)
        if what == 0:
            state = corrupt_vector(rng, state)
        elif what == 1:
            j = rng.choice(list(marginals))
            marginals[j] = corrupt_vector(rng, marginals[j])
        elif what == 2:
            marginals[rng.choice([owner, "ghost"])] = [1.0]
        elif what == 5:
            del beliefs[t]
            continue
        else:
            state = corrupt_vector(rng, state)
            marginals = {j: corrupt_vector(rng, m) for j, m in marginals.items()}
        beliefs[t] = InterimBelief(state, marginals)
    priors = spec.priors
    if priors is not None:
        priors = {a: corrupt_vector(rng, mu) if rng.random() < 0.5 else mu
                  for a, mu in priors.items()}
        if rng.random() < 0.3:
            priors["ghost"] = [1.0]
    return dataclasses.replace(spec, beliefs=beliefs, priors=priors)


def test_validation_matches_the_per_item_oracle():
    for seed in range(80):
        rng = np.random.default_rng([71, seed])
        if seed % 4 == 3:
            spec = random_cps_model(rng, n_agents=3, n_signals=int(rng.integers(1, 4)))
        else:
            spec = random_model(rng, n_agents=int(rng.integers(2, 5)),
                                max_signals=int(rng.integers(1, 40)),
                                full_support=bool(seed % 2))
        bad = corrupted_spec(rng, spec)
        # tolerances right at, and one step inside, the deviation of some
        # vector, where the exact check flips
        devs = [abs(float(np.sum(b.state_marginal)) - 1.0)
                for b in bad.beliefs.values() if len(b.state_marginal)]
        edges = rng.choice(devs, size=min(3, len(devs)), replace=False)
        tols = [PROB_TOL, 1e-9, 0.0, -1.0, np.nan, np.inf]
        tols += [float(x) for d in edges for x in (d, np.nextafter(d, 0))]
        for tol in tols:
            assert validate_model(spec, tol) == per_item_violations(spec, tol)
            assert validate_model(bad, tol) == per_item_violations(bad, tol)


def test_label_agent_and_marginal_violations_keep_the_oracle_order():
    # cat has no signal, bob reuses ann's a1, and a2 lists no marginal over
    # bob, whom ann weights: the label walk and the uncovered-cell scan run
    spec = two_agent_spec(
        agents=("ann", "cat", "bob"),
        signals={"ann": ("a1", "a2"), "cat": (), "bob": ("a1", "b2")},
        beliefs={
            "a1": InterimBelief([0.7, 0.3], {"bob": [0.6, 0.4]}),
            "a2": InterimBelief([0.3, 0.7], {}),
            "b2": InterimBelief([0.4, 0.6], {"ann": [0.1, 0.9]}),
        },
        network=Network([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
    )
    assert validate_model(spec) == per_item_violations(spec) == [
        "signals.cat: agent needs at least one signal",
        "signals.bob.a1: label already used by agent ann",
        "beliefs.a1.signals.bob: not another agent",
        "beliefs.a2.signals.bob: missing marginal over an agent the owner weights",
    ]


def edge_vectors(rng, vec):
    """``vec`` empty, 0-d, as 2-D columns and a row, with a NaN, and with
    its sum moved to within a few rounding steps of ``PROB_TOL`` from 1."""
    v = np.asarray(vec, dtype=float)
    k = rng.integers(len(v))
    nan = v.copy()
    nan[k] = np.nan
    step = v.copy()
    step[k] += rng.choice([-1, 1]) * PROB_TOL * (1 + rng.integers(-2, 3) * 2.0**-52)
    return [np.zeros(0), np.float64(v.sum()), v[:, None], v[None, :],
            np.repeat(v[:, None] / 2, 2, axis=1), nan, nan[:, None], step, step[:, None]]


def test_validation_matches_the_per_item_oracle_on_edge_vectors():
    for seed in range(40):
        rng = np.random.default_rng([72, seed])
        spec = random_model(rng, n_agents=3, n_states=int(rng.integers(1, 20)),
                            max_signals=int(rng.integers(1, 30)))

        def edge(vec):
            options = edge_vectors(rng, vec)
            return options[rng.integers(len(options))]

        beliefs = dict(spec.beliefs)
        labels = spec.all_signals()
        for t in rng.choice(labels, size=min(len(labels), 6), replace=False):
            b = beliefs[t]
            j = rng.choice(list(b.signal_marginals))
            beliefs[t] = InterimBelief(edge(b.state_marginal),
                                       {**b.signal_marginals, j: edge(b.signal_marginals[j])})
        priors = {a: dirichlet(rng, len(spec.signals[a])) for a in spec.agents}
        for a in rng.choice(spec.agents, size=2, replace=False):
            priors[a] = edge(priors[a])
        bad = dataclasses.replace(spec, beliefs=beliefs, priors=priors)
        vectors = [*priors.values()]
        for b in bad.beliefs.values():
            vectors += [b.state_marginal, *b.signal_marginals.values()]
        # tolerances at, one step inside and one step outside the
        # deviation of some vectors, where the exact check flips
        devs = [abs(float(np.sum(v)) - 1.0) for v in vectors if np.size(v)]
        tols = [PROB_TOL] + [float(x) for d in rng.choice(devs, size=4)
                             for x in (d, np.nextafter(d, 0), np.nextafter(d, np.inf))]
        for tol in tols:
            assert validate_model(bad, tol) == per_item_violations(bad, tol)
