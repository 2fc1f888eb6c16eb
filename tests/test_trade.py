import numpy as np
import pytest

from consensus_lab.consensus import consensus_expectation
from consensus_lab.errors import PreconditionError
from consensus_lab.interaction import (
    _analysed,
    absorbing_components,
    as_structure,
    build_interaction_structure,
    joint_connectedness,
)
from consensus_lab.io import load_scenario
from consensus_lab.trade import no_trade_test

from conftest import classes_oracle, random_model, scenario_path, sparse_reducible_model


def test_irreducible_structure_admits_no_trade():
    rng = np.random.default_rng(0)
    for _ in range(10):
        spec = random_model(rng, n_agents=3, full_support=True)
        B = build_interaction_structure(spec)
        assert B.irreducible
        result = no_trade_test(B)
        assert not result.has_trade
        assert not result.reducible
        assert result.objective <= 1e-9


def test_never_believed_type_gives_negative_payment_witness():
    # column of zeros: nobody ever assigns the second signal positive weight
    Q = np.array(
        [
            [0.5, 0.0, 0.5, 0.0],
            [0.2, 0.0, 0.4, 0.4],
            [1.0, 0.0, 0.0, 0.0],
            [0.3, 0.0, 0.7, 0.0],
        ]
    )
    result = no_trade_test(Q)
    assert result.has_trade
    assert result.reducible
    x = result.trade
    assert x[1] < 0.0
    gains = Q @ x - x
    assert gains.min() >= -1e-12
    assert gains.max() >= 1e-9
    assert np.max(np.abs(x)) == pytest.approx(1.0, abs=1e-12)


def test_complete_positive_matrix_no_trade():
    n = 4
    Q = np.full((n, n), 1.0 / n)
    result = no_trade_test(Q)
    assert not result.has_trade and not result.reducible


def test_trade_exists_exactly_when_transient_signals_exist():
    rng = np.random.default_rng(1)
    seen_trade = seen_none = 0
    for _ in range(120):
        spec = random_model(
            rng,
            n_agents=int(rng.integers(2, 4)),
            max_signals=3,
            full_support=False,
            network_density=0.6,
        )
        B = build_interaction_structure(spec)
        if len(B.index) > 10:
            continue
        terminal = set().union(*map(set, absorbing_components(B)))
        has_transient = terminal != set(B.index.labels)
        result = no_trade_test(B)
        assert result.has_trade == has_transient
        assert result.reducible == (not B.irreducible)
        seen_trade += result.has_trade
        seen_none += not result.has_trade
    assert seen_trade > 5 and seen_none > 5


def test_two_closed_classes_reducible_but_no_trade():
    # the three-agent cyclic fixture splits into two closed classes with no
    # transient signals; premultiplying the gain inequalities by either
    # class's stationary vector forces them to bind, so no strict trade
    # exists even though the structure is reducible
    spec = load_scenario(scenario_path("counterexample"))
    B = build_interaction_structure(spec)
    ok, _ = joint_connectedness(B)
    assert not ok
    result = no_trade_test(B)
    assert result.reducible
    assert not result.has_trade


def test_ladder_fixture_has_trade_through_transients():
    spec = load_scenario(scenario_path("case2"))
    B = build_interaction_structure(spec)
    result = no_trade_test(B)
    assert result.reducible and result.has_trade
    x = result.trade
    gains = B.matrix @ x - x
    assert gains.min() >= -1e-12
    assert gains.max() >= 1e-9


def test_witness_margin_after_normalization():
    spec = load_scenario(scenario_path("tightness"))
    B = build_interaction_structure(spec)
    result = no_trade_test(B)
    assert result.has_trade
    assert np.max(np.abs(result.trade)) == pytest.approx(1.0, abs=1e-12)
    gains = B.matrix @ result.trade - result.trade
    assert gains.max() >= 1e-9


def test_witness_on_large_sparse_reducible_models():
    # 400 signals, most of them transient with long absorption times; the
    # gain is exactly 1 / max t on every transient signal and 0 elsewhere
    for seed in range(4):
        spec = sparse_reducible_model(np.random.default_rng(seed), 50, 8)
        B = build_interaction_structure(spec)
        _, terminal, transient = classes_oracle(B.matrix)
        assert len(B.index) == 400 and len(terminal) >= 2 and transient
        result = no_trade_test(B)
        assert result.has_trade and result.reducible
        x = result.trade
        assert np.max(np.abs(x)) == pytest.approx(1.0, abs=1e-12)
        T = list(transient)
        t = np.linalg.solve(np.eye(len(T)) - B.matrix[np.ix_(T, T)], np.ones(len(T)))
        gains = B.matrix @ x - x
        assert gains.min() >= -1e-12 and gains.max() >= 1e-9
        assert np.allclose(gains[T], 1.0 / t.max(), rtol=1e-9, atol=0.0)
        assert np.max(np.abs(np.delete(gains, T))) <= 1e-12
        assert result.objective == pytest.approx(len(T) / t.max(), rel=1e-9)


def test_consensus_and_no_trade_solve_the_transient_block_once(factorizations):
    # the consensus does not solve for the absorption matrix it does not
    # print, and no_trade_test reads the structure's cached absorption
    # times, whose walk factors each transient SCC of tightness (four of
    # two signals) once and never the transient block or the whole matrix
    spec = load_scenario(scenario_path("tightness"))
    consensus_expectation(spec)
    assert no_trade_test(spec.structure).has_trade
    assert no_trade_test(spec.structure).has_trade
    structure = spec.structure
    sizes = [len(c) for c in structure.components
             if len(c) > 1 and c not in structure.terminal]
    assert sizes == [2, 2, 2, 2]
    # one more 2 x 2 solve: the two-agent network's centrality
    assert factorizations.count((2, 2)) == 4 + 1
    T, n = len(structure.transient), len(structure.matrix)
    assert (T, T) not in factorizations and (n, n) not in factorizations


@pytest.mark.parametrize("self_weight", [1.0, np.nan])
def test_transient_block_singular_in_floating_point_or_nan_is_refused(self_weight):
    # signal 0 is transient (its edge to 1 is nonzero), but I - B_TT is 0
    # (1e-17 rounds away) or NaN; as_structure refuses a bare NaN matrix,
    # so the structure is analysed as a spec's structure would be
    B = np.array([[self_weight, 1e-17], [0.0, 1.0]])
    structure = _analysed(B, index=None)
    assert structure.transient == (0,)
    for read in (lambda: structure.absorption, lambda: structure.absorption_time,
                 lambda: no_trade_test(structure)):
        with pytest.raises(PreconditionError, match=r"^transient signal 0: \(I - B_TT\)\^-1"):
            read()
