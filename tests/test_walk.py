"""Differential tests of the solve along the condensation.

Every solve with ``I - D B`` walks the strongly connected components sinks
first.  The reference here is one dense ``np.linalg.solve`` over all
signals (or over the transient block), and on the two small reducible
scenarios an exact rational solve with ``fractions``.
"""

import json
import warnings
from fractions import Fraction
from io import StringIO

import numpy as np
import pytest

from consensus_lab.cli import main
from consensus_lab.consensus import first_order_vector
from consensus_lab.errors import PreconditionError
from consensus_lab.game import solve_beta_game, solve_heterogeneous_game
from consensus_lab.interaction import (
    InteractionStructure,
    as_structure,
    build_interaction_structure,
)
from consensus_lab.io import load_scenario
from consensus_lab.spectral import abel_limit
from consensus_lab.tyranny import CISSpec

from conftest import (
    SINGULAR_TRANSIENT,
    dirichlet,
    random_model,
    scenario_path,
    sparse_reducible_model,
)

SCENARIOS = ["cps", "cycle", "case2", "counterexample", "tightness", "tyranny_extreme"]
BETAS = [0.0, 0.5, 0.9, 0.999]


def _model(name):
    scenario = load_scenario(scenario_path(name))
    return scenario.model if isinstance(scenario, CISSpec) else scenario


def _dense(B, rhs, d):
    return np.linalg.solve(np.eye(len(d)) - d[:, None] * B, rhs)


def _rel(got, ref):
    """Largest difference relative to the reference's largest entry."""
    return float(np.max(np.abs(got - ref)) / max(float(np.max(np.abs(ref))), 1e-300))


def planted_chain(rng, periods, n_blocks, n_singles):
    """A reducible stochastic matrix in shuffled order.

    One terminal class per entry of ``periods``, each a cycle of that many
    subclasses of one to three signals; ``n_blocks`` transient SCCs of two
    to five signals, each on a cycle of its own; ``n_singles`` transient
    singletons, some with a self-loop.  Each transient component also
    leaves to one to three signals made before it.
    """
    rows = []  # (signal, the signals it has an edge to)
    size = 0
    for d in periods:
        subs = []
        for _ in range(d):
            k = int(rng.integers(1, 4))
            subs.append(list(range(size, size + k)))
            size += k
        for r, sub in enumerate(subs):
            rows += [(i, subs[(r + 1) % d]) for i in sub]
    for _ in range(n_blocks):
        k = int(rng.integers(2, 6))
        members = list(range(size, size + k))
        below = size
        size += k
        for m, i in enumerate(members):
            out = [members[(m + 1) % k]]
            if rng.random() < 0.5:
                out.append(members[int(rng.integers(k))])
            if m == 0 or rng.random() < 0.3:
                out += rng.choice(below, size=int(rng.integers(1, 4))).tolist()
            rows.append((i, out))
    for _ in range(n_singles):
        out = rng.choice(size, size=int(rng.integers(1, 4))).tolist()
        if rng.random() < 0.3:
            out.append(size)
        rows.append((size, out))
        size += 1
    B = np.zeros((size, size))
    for i, out in rows:
        out = sorted(set(out))
        B[i, out] = dirichlet(rng, len(out))
    perm = rng.permutation(size)
    return B[np.ix_(perm, perm)]


def _planted(seed):
    rng = np.random.default_rng([19, seed])
    periods = [int(p) for p in rng.integers(1, 7, size=int(rng.integers(1, 4)))]
    periods[0] = 2 + seed % 5
    return planted_chain(rng, periods, int(rng.integers(1, 4)), int(rng.integers(5, 30)))


def _structures():
    """Bundled, planted and seeded structures, with an id each."""
    for name in SCENARIOS:
        yield name, _model(name).structure
    for seed in range(10):
        yield f"planted-{seed}", as_structure(_planted(seed))
    for seed in range(3):
        spec = sparse_reducible_model(np.random.default_rng([19, seed]), 12, 7)
        yield f"sparse-{seed}", spec.structure
    for seed in range(6):
        rng = np.random.default_rng([191, seed])
        spec = random_model(rng, n_agents=4, max_signals=4, full_support=False,
                            network_density=0.5)
        yield f"random-{seed}", spec.structure
        labels = spec.all_signals()
        weights = {}
        for t in labels:
            row = np.where(rng.random(spec.n_agents) < 0.5, dirichlet(rng, spec.n_agents), 0.0)
            row[spec.agents.index(spec.agent_of(t))] += 0.1
            weights[t] = row / row.sum()
        yield f"random-typed-{seed}", build_interaction_structure(spec, weights)


STRUCTURES = dict(_structures())


def test_walk_fixtures_cover_the_planted_shapes():
    periods = set()
    transient_blocks = singles = 0
    for structure in STRUCTURES.values():
        periods |= set(structure.periods)
        closed = set(structure.terminal)
        sizes = [len(c) for c in structure.components if c not in closed]
        transient_blocks += sum(k > 1 for k in sizes)
        singles += sizes.count(1)
    assert {2, 3, 4, 5, 6} <= periods
    assert transient_blocks >= 10 and singles >= 100
    assert sum(len(s.terminal) > 1 for s in STRUCTURES.values()) >= 5


@pytest.mark.parametrize("name", list(STRUCTURES))
def test_walk_matches_the_dense_solve(name):
    structure = STRUCTURES[name]
    B, n = structure.matrix, len(structure.matrix)
    rng = np.random.default_rng(7)
    rhs = rng.standard_normal(n)
    for beta in BETAS:
        d = np.full(n, beta)
        assert _rel(structure.solve(rhs, d), _dense(B, rhs, d)) <= 1e-12
        z = rng.random(n)
        assert _rel(abel_limit(structure, z, beta), _dense(B, (1 - d) * z, d)) <= 1e-12
    # one discount per signal, and several right-hand sides at once
    d = rng.choice(BETAS, size=n)
    many = rng.standard_normal((n, 3))
    assert _rel(structure.solve(many, d), _dense(B, many, d)) <= 1e-12
    if structure.irreducible:
        # the one dense solve with the whole matrix, to the bit
        assert np.array_equal(structure.solve(rhs, d), _dense(B, rhs, d))


@pytest.mark.parametrize("name", list(STRUCTURES))
def test_walk_absorption_matches_the_dense_transient_solve(name):
    structure = STRUCTURES[name]
    B = structure.matrix
    T = list(structure.transient)
    closed = [i for i in range(len(B)) if i not in T]
    I_TT = np.eye(len(T)) - B[np.ix_(T, T)]
    indicators = np.zeros((len(B), len(structure.terminal)))
    for k, comp in enumerate(structure.terminal):
        indicators[list(comp), k] = 1.0
    assert np.array_equal(structure.absorption[closed], indicators[closed])
    if T:
        ref = np.linalg.solve(I_TT, B[T] @ indicators)
        assert _rel(structure.absorption[T], ref) <= 1e-12
        assert _rel(structure.absorption_time, np.linalg.solve(I_TT, np.ones(len(T)))) <= 1e-12
        assert np.allclose(structure.absorption.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    else:
        assert structure.absorption_time.shape == (0,)


@pytest.mark.parametrize("name", SCENARIOS)
def test_walk_game_matches_the_dense_solve(name):
    spec = _model(name)
    B, f = spec.structure.matrix, first_order_vector(spec)
    agent_of = spec.structure.index.agent_of
    for beta in BETAS:
        d = np.full(len(f), beta)
        assert _rel(solve_beta_game(spec, beta).actions, _dense(B, (1 - d) * f, d)) <= 1e-12
    per_agent = np.linspace(0.3, 0.95, spec.n_agents)
    d = per_agent[agent_of]
    got = solve_heterogeneous_game(spec, per_agent).actions
    assert _rel(got, _dense(B, (1 - d) * f, d)) <= 1e-12


def _exact_solve(A, b):
    """Gauss-Jordan elimination over the rationals."""
    n = len(A)
    M = [row + [v] for row, v in zip(A, b)]
    for c in range(n):
        p = next(r for r in range(c, n) if M[r][c] != 0)
        M[c], M[p] = M[p], M[c]
        for r in range(n):
            if r != c and M[r][c] != 0:
                q = M[r][c] / M[c][c]
                M[r] = [a - q * v for a, v in zip(M[r], M[c])]
    return [M[i][n] / M[i][i] for i in range(n)]


def _exact_game(B, f, d):
    n = len(f)
    A = [[Fraction(int(i == j)) - Fraction(d[i]) * Fraction(B[i, j]) for j in range(n)]
         for i in range(n)]
    return _exact_solve(A, [(1 - Fraction(d[i])) * Fraction(f[i]) for i in range(n)])


def _exact_payments(structure):
    B, T = structure.matrix, list(structure.transient)
    A = [[Fraction(int(i == j)) - Fraction(B[i, j]) for j in T] for i in T]
    t = _exact_solve(A, [Fraction(1)] * len(T))
    x = [Fraction(0)] * len(B)
    for i, ti in zip(T, t):
        x[i] = -ti / max(t)
    return x


def _printed(argv, labels):
    """The ``label = value`` lines that ``argv`` prints, in label order."""
    out = StringIO()
    assert main(argv, out=out) == 0
    values = dict(line.strip().split(" = ") for line in out.getvalue().splitlines()
                  if " = " in line)
    return [values[t] for t in labels]


@pytest.mark.parametrize("name", ["case2", "tightness"])
def test_walk_printed_digits_match_the_exact_rational_solution(name):
    # the default beta, 0.99, prints the terminal class's dense solve, whose
    # conditioning allows 2.1e-15 on case2 (t*_5 = 0.99999999999999789)
    spec, path = _model(name), scenario_path(name)
    structure = spec.structure
    B, f, labels = structure.matrix, first_order_vector(spec), structure.index.labels
    per_agent = [0.9, 0.5, 0.7][:spec.n_agents]
    cases = [
        (["game-solve", path, "--beta", "0.9"], _exact_game(B, f, np.full(len(f), 0.9)), 1e-15),
        (["game-solve", path], _exact_game(B, f, np.full(len(f), 0.99)), 3e-15),
        (["game-solve", path, "--beta-per-agent", ",".join(map(str, per_agent))],
         _exact_game(B, f, np.array(per_agent)[structure.index.agent_of]), 1e-15),
        (["no-trade", path], _exact_payments(structure), 1e-15),
    ]
    for argv, exact, tol in cases:
        for text, value in zip(_printed(argv, labels), exact):
            error = abs(Fraction(float(text)) - value)
            assert error <= tol * abs(value), (argv, text, float(value))


def test_walk_refuses_a_singular_transient_block_without_a_runtime_warning(tmp_path, capsys):
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(SINGULAR_TRANSIENT))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["no-trade", str(path)], out=StringIO()) == 3
    assert capsys.readouterr().err == (
        "precondition failure: transient signal a1: (I - B_TT)^-1 is not finite there;"
        " I - B_TT is singular in floating point or not finite\n")


@pytest.mark.parametrize("shift, refusals", [
    (5e-7, {}),
    (-5e-7, {}),
    (2e-6, {"absorption":
            "transient signal 0: absorption probability 1.000002 is outside [0, 1]"}),
    (-2e-6, {"absorption_time":
             "transient signal 1: absorption time 0.999998 is outside [1, inf]"}),
])
def test_transient_solve_refuses_a_finite_result_outside_its_range(monkeypatch, shift, refusals):
    # the chain 0 -> 1 -> 2, 2 absorbing: each transient signal is absorbed
    # with probability 1, after 2 and 1 steps; the solve's transient rows
    # are shifted, and only a shift beyond ABSORPTION_TOL = 1e-6 is refused
    B = np.zeros((3, 3))
    B[0, 1] = B[1, 2] = B[2, 2] = 1.0
    solve = InteractionStructure.solve

    def shifted(self, *args, **kwargs):
        x = solve(self, *args, **kwargs)
        x[list(self.transient)] += shift
        return x

    monkeypatch.setattr(InteractionStructure, "solve", shifted)
    structure = as_structure(B)
    for read, exact in (("absorption", [[1.0], [1.0], [1.0]]), ("absorption_time", [2.0, 1.0])):
        if read in refusals:
            with pytest.raises(PreconditionError) as refused:
                getattr(structure, read)
            assert str(refused.value) == (f"{refusals[read]}; I - B_TT is singular in"
                                          " floating point")
        else:
            assert np.abs(getattr(structure, read) - exact).max() <= abs(shift) + 1e-15


def test_walk_carries_a_singular_block_only_upstream():
    # 0 leaves straight to the absorbing 3; 1 leaves through {2, 4}, a
    # block whose rows sum to 1.0 once 1e-17 rounds away, so I - B is
    # singular there and NaN reaches 1 but not 0
    B = np.zeros((5, 5))
    B[0, 3] = 1.0
    B[1, [2, 3]] = 0.5
    B[2, 4], B[4, 2], B[4, 3] = 1.0, 1.0, 1e-17
    B[3, 3] = 1.0
    structure = as_structure(B)
    assert structure.transient == (0, 1, 2, 4)
    for read in (lambda: structure.absorption, lambda: structure.absorption_time):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(PreconditionError, match=r"^transient signal 1: "):
                read()
