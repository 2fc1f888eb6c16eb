"""Shared instance generators and independent oracles.

Oracles here deliberately avoid the library's matrix pipeline: the
recursion oracle walks the model dictionaries, reachability uses boolean
closure, connectivity of beliefs enumerates product events, and the class
oracle reads scipy's component labels directly.
"""

import importlib.util
import os

import numpy as np
import pytest
import scipy.sparse
from scipy.sparse.csgraph import connected_components

from consensus_lab.model import (
    BasicVariable,
    InterimBelief,
    ModelSpec,
    Network,
)

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


# A scenario whose I - B_TT is exactly singular in floating point.
SINGULAR_TRANSIENT = {
    "kind": "general", "states": ["s1", "s2"], "agents": ["a", "b"],
    "signals": {"a": ["a1", "a2"], "b": ["b1", "b2"]},
    "beliefs": {t: {"marginals": {"state": [0.5, 0.5],
                                  "signals": {"b" if t[0] == "a" else "a": [0.5, 0.5]}}}
                for t in ("a1", "a2", "b1", "b2")},
    # a's weight on b rounds away: its rows sum to 1.0 and I - B_TT is
    # exactly singular in floating point
    "network": {"weights": [[1.0, 1e-17], [0.0, 1.0]], "diagonal_allowed": True},
    "y": {"values": {"s1": 0.0, "s2": 1.0}, "max": 1.0},
}


@pytest.fixture
def scenarios_dir():
    return SCENARIOS


def scenario_path(name):
    return os.path.join(SCENARIOS, name + ".json")


def bench_module(name):
    """The benchmark's module ``bench/<name>.py``."""
    path = os.path.join(os.path.dirname(__file__), "..", "bench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_gen():
    """The benchmark's seeded scenario generators, ``bench/gen.py``."""
    return bench_module("gen")


@pytest.fixture
def factorizations(monkeypatch):
    """Shapes of the matrices handed to a dense solve or inverse (one LU
    factorization each), one entry per call."""
    shapes = []
    for module, name in [(np.linalg, "solve"), (np.linalg, "inv")]:
        original = getattr(module, name)

        def recorded(a, *args, _original=original, **kwargs):
            shapes.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(module, name, recorded)
    return shapes


def dirichlet(rng, n, concentration=1.0):
    v = rng.gamma(concentration, 1.0, size=n)
    return v / v.sum()


def random_model(
    rng,
    n_agents=3,
    n_states=2,
    max_signals=3,
    full_support=True,
    network_density=1.0,
    with_y=True,
):
    """Random marginal-mode model; full-support beliefs unless disabled."""
    agents = tuple(f"ag{i}" for i in range(n_agents))
    states = tuple(f"st{k}" for k in range(n_states))
    signals = {
        a: tuple(f"{a}s{k}" for k in range(rng.integers(1, max_signals + 1)))
        for a in agents
    }
    g = np.zeros((n_agents, n_agents))
    for i in range(n_agents):
        others = [j for j in range(n_agents) if j != i]
        keep = [j for j in others if rng.random() < network_density]
        if not keep:
            keep = [others[rng.integers(len(others))]]
        w = dirichlet(rng, len(keep))
        for j, wj in zip(keep, w):
            g[i, j] = wj
    beliefs = {}
    for a in agents:
        for t in signals[a]:
            marginals = {}
            for b in agents:
                if b == a:
                    continue
                m = dirichlet(rng, len(signals[b]))
                if not full_support:
                    mask = rng.random(len(m)) < 0.4
                    if mask.all():
                        mask[rng.integers(len(m))] = False
                    m = np.where(mask, 0.0, m)
                    m = m / m.sum()
                marginals[b] = m
            beliefs[t] = InterimBelief(dirichlet(rng, n_states), marginals)
    y = BasicVariable(rng.random(n_states), 1.0) if with_y else None
    return ModelSpec(states, agents, signals, beliefs, Network(g), y=y)


def random_cps_model(rng, n_agents=3, n_states=2, n_signals=2, common_state_belief=False):
    """Model with a common prior over signal profiles; each belief holds
    the marginals of the owner's conditional joint over (state, others'
    signals).

    State assessments given a full profile are arbitrary per agent
    unless ``common_state_belief`` forces a single shared one (which
    also equalizes ex ante expectations).
    """
    agents = tuple(f"ag{i}" for i in range(n_agents))
    states = tuple(f"st{k}" for k in range(n_states))
    signals = {a: tuple(f"{a}s{k}" for k in range(n_signals)) for a in agents}
    shape = (n_signals,) * n_agents
    joint = rng.gamma(1.0, 1.0, size=shape) + 0.05
    joint = joint / joint.sum()
    shared_g = rng.random(shape + (n_states,)) + 0.05
    shared_g = shared_g / shared_g.sum(axis=-1, keepdims=True)
    beliefs = {}
    priors = {}
    for i, a in enumerate(agents):
        mu = joint.sum(axis=tuple(k for k in range(n_agents) if k != i))
        priors[a] = mu
        if common_state_belief:
            g = shared_g
        else:
            g = rng.random(shape + (n_states,)) + 0.05
            g = g / g.sum(axis=-1, keepdims=True)
        for ti in range(n_signals):
            sl = [slice(None)] * n_agents
            sl[i] = ti
            cond = joint[tuple(sl)] / mu[ti]
            full = np.moveaxis(
                cond[..., None] * g[tuple(sl)], -1, 0
            )
            others = [b for b in agents if b != a]
            beliefs[signals[a][ti]] = InterimBelief(
                full.sum(axis=tuple(range(1, n_agents))),
                {b: full.sum(axis=tuple(x for x in range(n_agents) if x != 1 + k))
                 for k, b in enumerate(others)})
    g_net = np.zeros((n_agents, n_agents))
    for i in range(n_agents):
        others = [j for j in range(n_agents) if j != i]
        w = dirichlet(rng, len(others))
        g_net[i, others] = w
    y = BasicVariable(rng.random(n_states), 1.0)
    return ModelSpec(states, agents, signals, beliefs, Network(g_net), priors=priors, y=y)


def recursive_hoae(spec, yvals, n):
    """The defining recursion over model dictionaries; no matrices."""
    yvals = np.asarray(yvals, dtype=float)
    x = {}
    for a in spec.agents:
        for t in spec.signals[a]:
            x[t] = float(spec.beliefs[t].state_marginal @ yvals)
    for _ in range(n - 1):
        new = {}
        for i, a in enumerate(spec.agents):
            for t in spec.signals[a]:
                total = 0.0
                for j, b in enumerate(spec.agents):
                    w = float(spec.network.weights[i, j])
                    if w == 0.0:
                        continue
                    if b == a:
                        total += w * x[t]
                    else:
                        m = spec.beliefs[t].signal_marginals[b]
                        total += w * sum(
                            float(m[k]) * x[tj]
                            for k, tj in enumerate(spec.signals[b])
                        )
                new[t] = total
        x = new
    return np.array([x[t] for a in spec.agents for t in spec.signals[a]])


def sparse_reducible_model(rng, n_agents, n_signals, n_states=3):
    """Sparse model with two planted terminal classes and many transients.

    Agents sit on a ring with one or two random chords each.  Slot 0
    believes every neighbour holds slot 0 (a terminal class copying the
    network); slots 1 and 2 believe the neighbour holds the other one (a
    terminal class of period 2).  Every other slot is transient: it
    believes in one random transient slot, plus a terminal slot 30% of
    the time, so absorption takes many steps.
    """
    agents = tuple(f"a{i}" for i in range(n_agents))
    signals = {a: tuple(f"{a}x{k}" for k in range(n_signals)) for a in agents}
    g = np.zeros((n_agents, n_agents))
    for i in range(n_agents):
        others = [j for j in range(n_agents) if j != i]
        chords = rng.choice(others, size=int(rng.integers(1, 3)), replace=False)
        nbrs = sorted({(i + 1) % n_agents, *chords.tolist()})
        g[i, nbrs] = dirichlet(rng, len(nbrs))
    beliefs = {}
    for i, a in enumerate(agents):
        for k, t in enumerate(signals[a]):
            marginals = {}
            for j in np.flatnonzero(g[i]):
                m = np.zeros(n_signals)
                if k == 0:
                    m[0] = 1.0
                elif k in (1, 2):
                    m[3 - k] = 1.0
                else:
                    support = [int(rng.integers(3, n_signals))]
                    if rng.random() < 0.3:
                        support.append(int(rng.integers(0, 3)))
                    m[support] = dirichlet(rng, len(support))
                marginals[agents[j]] = m
            beliefs[t] = InterimBelief(dirichlet(rng, n_states), marginals)
    states = tuple(f"st{k}" for k in range(n_states))
    y = BasicVariable(rng.random(n_states), 1.0)
    return ModelSpec(states, agents, signals, beliefs, Network(g), y=y)


def scenario_object(spec):
    """A general-kind scenario object for a marginal-mode spec."""
    return {
        "states": list(spec.states),
        "agents": list(spec.agents),
        "signals": {a: list(ts) for a, ts in spec.signals.items()},
        "beliefs": {t: {"marginals": {
            "state": b.state_marginal.tolist(),
            "signals": {j: v.tolist() for j, v in b.signal_marginals.items()},
        }} for t, b in spec.beliefs.items()},
        "network": spec.network.weights.tolist(),
        "y": {"values": spec.y.values.tolist(), "max": spec.y.bound},
    }


def pair_rows(beliefs, a, j):
    """Agent ``a``'s rows of the stack over counterpart ``j``, a row per
    signal of ``a`` and contiguous: views of its marginals over ``j``'s
    signals and of the flags of the rows that list ``j``."""
    stack = beliefs.stacks[len(beliefs.signals[j])]
    rows = np.flatnonzero((beliefs.index.agent_of[stack.signal] == beliefs.agents.index(a))
                          & (stack.counterpart == beliefs.agents.index(j)))
    pair = slice(rows[0], rows[-1] + 1) if len(rows) else slice(0, 0)
    assert np.array_equal(rows, np.arange(len(stack.signal))[pair])
    return stack.marginals[pair], stack.listed[pair]


def same_layout(got, want):
    """Whether two :class:`Beliefs` hold the same state table and the same
    stacks, width by width in the same order, bit for bit (-0.0 is not
    +0.0): each stack row's signal, counterpart, flag and marginal."""
    bits = lambda x: np.asarray(x, dtype=float).view(np.uint64)
    return (got.states.shape == want.states.shape
            and np.array_equal(bits(got.states), bits(want.states))
            and list(got.stacks) == list(want.stacks)
            and all(np.array_equal(g.signal, w.signal)
                    and np.array_equal(g.counterpart, w.counterpart)
                    and np.array_equal(g.listed, w.listed)
                    and g.marginals.shape == w.marginals.shape
                    and np.array_equal(bits(g.marginals), bits(w.marginals))
                    for g, w in zip(got.stacks.values(), want.stacks.values())))


def cis_scenario(rng, n_agents=3, n_states=30, n_signals=None, zero_share=0.3):
    """Common-interpretation scenario object (``"kind": "cis"``).

    Each technology row is a Dirichlet draw with about ``zero_share`` of
    its entries zeroed; signal ``k`` keeps positive weight in state
    ``k mod n_states`` and state ``s`` in signal ``s mod n_signals``, so
    every row sums to one and every signal has positive prior probability.
    Full-support priors, a complete network and one payoff per state.
    """
    n_signals = n_states if n_signals is None else n_signals
    states = [f"w{k}" for k in range(n_states)]
    agents = [f"ag{i}" for i in range(n_agents)]
    signals = {a: [f"{a}t{k}" for k in range(n_signals)] for a in agents}
    eta = {}
    for a in agents:
        keep = rng.random((n_states, n_signals)) >= zero_share
        keep[np.arange(n_signals) % n_states, np.arange(n_signals)] = True
        keep[np.arange(n_states), np.arange(n_states) % n_signals] = True
        rows = rng.gamma(1.0, 1.0, size=(n_states, n_signals)) * keep
        eta[a] = (rows / rows.sum(axis=1, keepdims=True)).tolist()
    network = []
    for i in range(n_agents):
        w = dirichlet(rng, n_agents - 1).tolist()
        network.append(w[:i] + [0.0] + w[i:])
    return {
        "kind": "cis",
        "states": states,
        "agents": agents,
        "signals": signals,
        "rho": {a: dirichlet(rng, n_states).tolist() for a in agents},
        "eta": eta,
        "network": network,
        "y": {"values": rng.random(n_states).tolist(), "max": 1.0},
    }


def classes_oracle(A):
    """Strongly connected classes sorted by least member, the terminal ones
    (no edge crosses out of them) and the transient states, from scipy's
    component labels."""
    graph = scipy.sparse.csr_matrix(np.asarray(A) != 0)
    n_comp, label = connected_components(graph, directed=True, connection="strong")
    members = sorted(
        (tuple(np.flatnonzero(label == c)) for c in range(n_comp)), key=lambda m: m[0]
    )
    rows, cols = graph.nonzero()
    leaky = set(label[rows[label[rows] != label[cols]]].tolist())
    terminal = [m for m in members if label[m[0]] not in leaky]
    closed = set().union(*map(set, terminal))
    transient = tuple(s for s in range(len(label)) if s not in closed)
    return members, terminal, transient


def closure_matrix(A):
    """Boolean reachability (paths of length >= 0) via iterated squaring."""
    R = (np.asarray(A) != 0) | np.eye(A.shape[0], dtype=bool)
    for _ in range(int(np.ceil(np.log2(A.shape[0] + 1))) + 1):
        R = R | (R.astype(int) @ R.astype(int) > 0)
    return R


def irreducible_oracle(A):
    R = closure_matrix(A)
    return bool(R.all())


def beliefs_connected_oracle(spec):
    """No nontrivial public product event; needs all marginals present."""
    from itertools import product

    supports = {}
    for a in spec.agents:
        for t in spec.signals[a]:
            for b, m in spec.beliefs[t].signal_marginals.items():
                supports[(t, b)] = {
                    spec.signals[b][k] for k in np.nonzero(np.asarray(m) > 0)[0]
                }

    def nonempty_subsets(labels):
        out = []
        for mask in range(1, 2 ** len(labels)):
            out.append({labels[k] for k in range(len(labels)) if mask >> k & 1})
        return out

    blocks = [nonempty_subsets(spec.signals[a]) for a in spec.agents]
    for combo in product(*blocks):
        if all(
            len(combo[i]) == len(spec.signals[a])
            for i, a in enumerate(spec.agents)
        ):
            continue  # the full event is trivially public
        closed = True
        for i, a in enumerate(spec.agents):
            for t in combo[i]:
                for j, other in enumerate(spec.agents):
                    if other == a:
                        continue
                    if not supports[(t, other)] <= combo[j]:
                        closed = False
                        break
                if not closed:
                    break
            if not closed:
                break
        if closed:
            return False
    return True


def split_signal(spec, signal, weights=(0.5, 0.5)):
    """Duplicate one signal into two identical copies; every other agent
    splits the marginal mass over the copies by ``weights``."""
    owner = spec.agent_of(signal)
    new_labels = (signal + "_a", signal + "_b")
    signals = {}
    for a in spec.agents:
        if a == owner:
            out = []
            for t in spec.signals[a]:
                out.extend(new_labels if t == signal else [t])
            signals[a] = tuple(out)
        else:
            signals[a] = spec.signals[a]
    beliefs = {}
    for a in spec.agents:
        for t in spec.signals[a]:
            b = spec.beliefs[t]
            marginals = {}
            for j, m in b.signal_marginals.items():
                if j == owner:
                    m = np.asarray(m)
                    out = []
                    for k, tj in enumerate(spec.signals[j]):
                        if tj == signal:
                            out.extend([m[k] * weights[0], m[k] * weights[1]])
                        else:
                            out.append(m[k])
                    marginals[j] = np.array(out)
                else:
                    marginals[j] = m
            belief = InterimBelief(b.state_marginal, marginals)
            if t == signal:
                beliefs[new_labels[0]] = belief
                beliefs[new_labels[1]] = belief
            else:
                beliefs[t] = belief
    return ModelSpec(
        spec.states, spec.agents, signals, beliefs, spec.network,
        priors=None, y=spec.y,
    )
