import numpy as np
import pytest

from consensus_lab.consensus import first_order_vector
from consensus_lab.errors import PreconditionError, ReducibleError
from consensus_lab.game import solve_beta_game
from consensus_lab.interaction import _analysed, build_interaction_structure
from consensus_lab.io import load_scenario
from consensus_lab.model import Network
from consensus_lab.optimism import tightness_chain
from consensus_lab.spectral import (
    abel_limit,
    eigenvector_centrality,
    mfpt,
    power_trajectory,
    stationary_distribution,
)

from conftest import random_model, scenario_path


def random_chain(rng, n, floor=0.01):
    Q = rng.random((n, n)) + floor
    return Q / Q.sum(axis=1, keepdims=True)


def test_swap_chain_is_half_half():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    p = stationary_distribution(swap)
    assert np.allclose(p.vector, [0.5, 0.5], atol=1e-12)
    assert p.residual <= 1e-10


def test_tightness_chain_top_level_mass():
    spec = tightness_chain(5, 0.2, 0.05)
    B = build_interaction_structure(spec).matrix
    # terminal block: levels 4 and 5 of both agents
    idx = [4, 5, 10, 11]
    p = stationary_distribution(B[np.ix_(idx, idx)]).vector
    top = p[1] + p[3]
    assert top == pytest.approx(1.0 / (1.0 + 0.05 / 0.2), abs=1e-12)


def test_uniqueness_by_restart_is_moot_for_direct_but_residual_enforced():
    rng = np.random.default_rng(1)
    Q = random_chain(rng, 6)
    p = stationary_distribution(Q)
    assert np.abs(p.vector @ Q - p.vector).sum() <= 1e-10
    assert p.vector.min() > 0
    assert p.vector.sum() == pytest.approx(1.0, abs=1e-12)


def test_nan_entry_fails_the_residual_gate():
    # a NaN entry is an edge, so the chain still looks irreducible; the
    # solve returns NaN and the residual gate must refuse it
    Q = np.array(
        [
            [0.5, 0.5, 0.0, 0.0, 0.0],
            [0.0, 0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5, 0.0],
            [0.0, 0.0, 0.0, 0.5, 0.5],
            [0.5, 0.0, 0.0, 0.0, 0.5],
        ]
    )
    Q[1, 2] = np.nan
    # a bare matrix is refused at entry; a structure built from a spec
    # without validation can still hold the NaN
    with pytest.raises(PreconditionError, match="^matrix: every entry must be finite$"):
        stationary_distribution(Q)
    with pytest.raises(ArithmeticError):
        stationary_distribution(_analysed(Q, index=None))


def test_nan_entry_fails_the_discounted_residual_gate():
    # as above, for the discounted Abel average
    Q = np.roll(np.eye(5), 1, axis=1) * 0.5 + np.eye(5) * 0.5
    Q[1, 2] = np.nan
    with pytest.raises(PreconditionError, match="^matrix: every entry must be finite$"):
        abel_limit(Q, np.arange(5.0), beta=0.9)
    with pytest.raises(ArithmeticError):
        abel_limit(_analysed(Q, index=None), np.arange(5.0), beta=0.9)


def test_stationary_distribution_reads_the_structures_vector():
    # no second solve: the structure's cached per-class vector is returned
    structure = load_scenario(scenario_path("cps")).structure
    assert stationary_distribution(structure).vector is structure.stationary[0]


def test_reducible_input_raises_with_certificate():
    Q = np.eye(3)
    with pytest.raises(ReducibleError) as err:
        stationary_distribution(Q)
    assert len(err.value.certificate) >= 1


def test_reducible_refusal_names_its_closed_set_with_plain_indices():
    # the members were numpy integers, printed as (np.int64(0),)
    with pytest.raises(ReducibleError) as err:
        stationary_distribution([[1.0, 0.0], [0.5, 0.5]])
    assert str(err.value).endswith("closed set (0,)")
    assert err.value.certificate == (0,) and type(err.value.certificate[0]) is int


def test_centrality_cycle_and_doubly_stochastic():
    cycle = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    assert np.allclose(eigenvector_centrality(cycle), 1.0 / 3.0, atol=1e-12)
    ds = np.array([[0.2, 0.8], [0.8, 0.2]])
    assert np.allclose(eigenvector_centrality(ds), 0.5, atol=1e-12)


def test_centrality_asymmetric_two_agent():
    net = Network([[0.5, 0.5], [1.0, 0.0]], diagonal_allowed=True)
    e = eigenvector_centrality(net)
    assert np.allclose(e, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_abel_constant_and_beta_zero():
    rng = np.random.default_rng(2)
    Q = random_chain(rng, 5)
    z = np.full(5, 3.25)
    assert np.allclose(abel_limit(Q, z, beta=0.7), z, atol=1e-12)
    assert np.allclose(abel_limit(Q, z), z, atol=1e-10)
    z2 = rng.random(5)
    assert np.allclose(abel_limit(Q, z2, beta=0.0), z2, atol=1e-15)


def test_abel_matches_truncated_series():
    rng = np.random.default_rng(3)
    Q = random_chain(rng, 7)
    z = rng.random(7)
    for beta in (0.5, 0.9, 0.99):
        k_max = int(np.ceil(np.log(1e-10 / np.max(np.abs(z))) / np.log(beta))) + 1
        acc = np.zeros_like(z)
        term = z.copy()
        for _ in range(k_max):
            acc += term
            term = beta * (Q @ term)
        series = (1.0 - beta) * acc
        assert np.max(np.abs(abel_limit(Q, z, beta=beta) - series)) < 1e-8


def test_abel_near_one_approaches_exact_limit():
    rng = np.random.default_rng(4)
    Q = random_chain(rng, 6)
    z = rng.random(6)
    exact = abel_limit(Q, z)
    near = abel_limit(Q, z, beta=0.999)
    assert np.max(np.abs(near - exact)) < 0.01 * np.max(np.abs(z))


def test_abel_rejects_beta_one():
    Q = np.array([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(PreconditionError):
        abel_limit(Q, [1.0, 0.0], beta=1.0)


def test_mfpt_forced_transitions_and_lazy_chain():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    M = mfpt(swap)
    assert M.values[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert M.values[1, 0] == pytest.approx(1.0, abs=1e-12)
    q = 0.2
    lazy = np.array([[1.0 - q, q], [q, 1.0 - q]])
    assert mfpt(lazy).values[0, 1] == pytest.approx(1.0 / q, abs=1e-10)


def test_mfpt_satisfies_its_linear_system():
    rng = np.random.default_rng(5)
    Q = random_chain(rng, 6)
    M = mfpt(Q)
    assert M.residual <= 1e-9
    # diagonal equals reciprocal stationary mass
    p = stationary_distribution(Q).vector
    assert np.allclose(np.diag(M.values), 1.0 / p, atol=1e-8)


def test_mfpt_monte_carlo_oracle():
    rng = np.random.default_rng(6)
    Q = random_chain(rng, 6)
    M = mfpt(Q)
    source, target = 2, 5
    walks = 1_000_000
    cum = np.cumsum(Q, axis=1)
    pos = np.full(walks, source)
    steps = np.zeros(walks, dtype=np.int64)
    alive = np.arange(walks)
    sim = np.random.default_rng(123)
    while alive.size:
        u = sim.random(alive.size)
        pos_alive = pos[alive]
        nxt = (u[:, None] > cum[pos_alive]).sum(axis=1)
        steps[alive] += 1
        pos[alive] = nxt
        alive = alive[nxt != target]
    mean = steps.mean()
    se = steps.std(ddof=1) / np.sqrt(walks)
    assert abs(mean - M.values[source, target]) <= 3.0 * se


def test_power_trajectory_ergodic_converges_to_consensus_line():
    rng = np.random.default_rng(7)
    Q = random_chain(rng, 5)
    z = rng.random(5)
    traj = power_trajectory(Q, z, 200)
    assert traj.cycle_length == 1
    limit = abel_limit(Q, z)
    assert np.max(np.abs(traj.vectors[-1] - limit)) < 1e-9


def test_power_trajectory_two_agent_swap_cycles():
    # block-antidiagonal structure from a two-agent swap network
    rng = np.random.default_rng(8)
    spec = random_model(rng, n_agents=2, max_signals=2, full_support=True)
    B = build_interaction_structure(spec)
    assert not B.aperiodic
    z = rng.random(len(B.index))
    traj = power_trajectory(B, z, 400)
    assert traj.cycle_length == 2
    # in the limit the two alternating vectors are block-constant and the
    # Abel average of the cycle reproduces the exact limit
    c_vecs = traj.vectors[-traj.cycle_length:]
    for v in c_vecs:
        for blk in B.index.blocks:
            assert np.max(v[blk]) - np.min(v[blk]) < 1e-8
    avg = c_vecs.mean(axis=0)
    p = stationary_distribution(B.matrix).vector
    assert np.allclose(avg, p @ z, atol=1e-8)
    values = sorted({round(float(v[0]), 6) for v in c_vecs} | {round(float(v[-1]), 6) for v in c_vecs})
    assert len(values) <= 2


def test_exact_limit_linear_rate_in_beta():
    rng = np.random.default_rng(9)
    Q = random_chain(rng, 6)
    z = rng.random(6)
    exact = abel_limit(Q, z)
    gaps = []
    for beta in (0.9, 0.99, 0.999):
        gaps.append(np.max(np.abs(abel_limit(Q, z, beta=beta) - exact)) / (1 - beta))
    C = max(gaps)
    assert C < 50.0
    for beta, g in zip((0.9, 0.99, 0.999), gaps):
        assert g <= C + 1e-9


def test_stationary_unique_across_random_restarts():
    rng = np.random.default_rng(10)
    Q = random_chain(rng, 7)
    reference = stationary_distribution(Q).vector
    lazy = 0.5 * (Q + np.eye(7))
    for _ in range(5):
        p = rng.dirichlet(np.ones(7))
        for _ in range(20000):
            nxt = p @ lazy
            if np.abs(nxt - p).sum() < 1e-13:
                p = nxt
                break
            p = nxt
        assert np.max(np.abs(p - reference)) < 1e-9


def test_reducible_errors_from_abel_and_mfpt():
    two_blocks = np.array(
        [
            [0.5, 0.5, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
            [0.0, 0.0, 0.5, 0.5],
        ]
    )
    with pytest.raises(ReducibleError):
        abel_limit(two_blocks, np.ones(4))
    with pytest.raises(ReducibleError):
        mfpt(two_blocks)
    # the discounted average is still fine on reducible input
    out = abel_limit(two_blocks, np.array([1.0, 1.0, 0.0, 0.0]), beta=0.5)
    assert np.allclose(out, [1, 1, 0, 0])


def test_trajectory_without_detected_cycle():
    # slow two-state sticky chain, tiny horizon: no repetition yet
    Q = np.array([[0.999, 0.001], [0.001, 0.999]])
    traj = power_trajectory(Q, np.array([1.0, 0.0]), 12)
    assert traj.cycle_length is None


def mfpt_oracle(Q):
    """One linear solve per target column of the defining system."""
    n = Q.shape[0]
    M = np.zeros((n, n))
    ones = np.ones(n - 1)
    for t in range(n):
        keep = [k for k in range(n) if k != t]
        m = np.linalg.solve(np.eye(n - 1) - Q[np.ix_(keep, keep)], ones)
        M[keep, t] = m
        M[t, t] = 1.0 + Q[t, keep] @ m
    return M


def nearly_decomposable(rng, n, coupling):
    """Two random blocks that leak ``coupling`` of their mass to each other."""
    h = n // 2
    Q = np.zeros((n, n))
    Q[:h, :h] = random_chain(rng, h)
    Q[h:, h:] = random_chain(rng, n - h)
    Q *= 1.0 - coupling
    Q[:h, h:] = coupling / (n - h)
    Q[h:, :h] = coupling / h
    return Q


def test_mfpt_matches_per_column_solves():
    rng = np.random.default_rng(77)
    chains = [random_chain(rng, n) for n in (2, 3, 5, 17, 60, 150, 300)]
    chains.append(random_chain(rng, 40, floor=0.0) ** 4)  # skewed rows
    chains.append(nearly_decomposable(rng, 30, 1e-5))
    for Q in chains:
        Q = Q / Q.sum(axis=1, keepdims=True)
        got = mfpt(Q)
        ref = mfpt_oracle(Q)
        assert np.max(np.abs(got.values - ref) / ref) <= 1e-9
        assert got.residual <= 1e-9 * max(1.0, ref.max())
    # crossing between the two blocks of the last chain takes ~1/coupling steps
    assert ref.max() > 1e4


def test_mfpt_refuses_a_corrupted_chain():
    Q = random_chain(np.random.default_rng(78), 5)
    Q[1, 3] = np.nan
    with pytest.raises(PreconditionError, match="^matrix: every entry must be finite$"):
        mfpt(Q)
    with pytest.raises(ArithmeticError):
        mfpt(_analysed(Q, index=None))


@pytest.mark.parametrize("name", ["cps", "case2", "counterexample", "cycle", "tightness",
                                  "tyranny_extreme"])
def test_discounted_average_is_the_game_solve_bit_for_bit(name):
    # abel_limit and the beta-game share one discounted solve
    scenario = load_scenario(scenario_path(name))
    spec = getattr(scenario, "model", scenario)
    x1 = first_order_vector(spec)
    for beta in (0.0, 0.5, 0.9, 0.999):
        actions = solve_beta_game(spec, beta).actions
        assert abel_limit(spec.structure, x1, beta).tobytes() == actions.tobytes()
        assert abel_limit(spec.structure.matrix, x1, beta).tobytes() == actions.tobytes()


@pytest.mark.parametrize("nudge, passes", [(1e-8, True), (1e-5, False)])
def test_discounted_average_gate_scales_with_the_discounted_payoff(monkeypatch, nudge,
                                                                   passes):
    # the gate is 1e-10 * max(1, (1 - beta) max|z|): 1e-7 here, where it
    # was 1e-10 * max|z| = 1e-4
    Q = np.array([[0.5, 0.5], [0.2, 0.8]])
    z = np.array([1e6, 0.0])
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: solve(a, b) + nudge * (np.arange(len(b)) == 0))
    if passes:
        abel_limit(Q, z, beta=0.999)
    else:
        with pytest.raises(ArithmeticError, match="^fixed-point residual"):
            abel_limit(Q, z, beta=0.999)


@pytest.mark.parametrize("n_max", [-1, -5])
def test_negative_horizon_is_refused(n_max):
    # n_max=-1 raised IndexError
    with pytest.raises(PreconditionError, match="n_max must be at least 0"):
        power_trajectory(np.eye(2)[::-1], [1.0, 0.0], n_max=n_max)
    assert len(power_trajectory(np.eye(2)[::-1], [1.0, 0.0], n_max=0).vectors) == 1
