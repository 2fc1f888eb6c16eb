import dataclasses

import numpy as np
import pytest

from consensus_lab.errors import PreconditionError
from consensus_lab.interaction import as_structure
from consensus_lab.io import load_scenario
from consensus_lab.model import (
    BasicVariable,
    InterimBelief,
    ModelSpec,
    Network,
    ex_ante_expectation,
    validate_model,
)
from consensus_lab.spectral import eigenvector_centrality

from conftest import random_model, scenario_path


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


def test_full_mode_marginals_must_match_joint():
    # joint: rows = states, cols = bob's signals
    joint = np.array([[0.42, 0.28], [0.18, 0.12]])
    good = InterimBelief.from_full(joint, ["bob"])
    assert np.allclose(good.state_marginal, [0.7, 0.3])
    assert np.allclose(good.signal_marginals["bob"], [0.6, 0.4])
    bad = InterimBelief(
        [0.5, 0.5], {"bob": [0.6, 0.4]}, full=joint
    )
    beliefs = dict(two_agent_spec().beliefs)
    beliefs["a1"] = bad
    spec = two_agent_spec(beliefs=beliefs)
    assert any("inconsistent with full joint" in v for v in validate_model(spec))


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
    assert ex_ante_expectation(spec, "ann", [0.5, 0.5], spec.y) == pytest.approx(
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
