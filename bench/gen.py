"""Seeded scenario generators for the benchmark families.

Every generator takes a ``numpy.random.Generator`` and returns a scenario as
a plain JSON-ready dict; the same generator state gives the same scenario.
The program under test only ever sees the JSON files these dicts are
written to.
"""

from __future__ import annotations

import numpy as np


def _simplex(rng, n: int, floor: float = 0.0) -> list[float]:
    """Random probability vector with every entry at least ``floor``."""
    v = rng.dirichlet(np.ones(n)) * (1.0 - n * floor) + floor
    v = v / v.sum()
    return [float(x) for x in v]


def cis_dense(rng, n_states: int = 50, eps_range=(0.005, 0.05),
              delta_share: float = 0.5) -> dict:
    """Tyranny-ready common-interpretation model on a complete network.

    Three agents.  ``iggy`` is uniformly noisy: every entry of his
    technology is at least ``delta_share / n_states``.  ``ann`` and ``bob``
    are eps-noisy with one signal per state: state k sends its own signal
    (a random bijection) with probability ``1 - eps`` and spreads ``eps``
    over the others.  eps is drawn per model from ``eps_range``.
    """
    states = [f"w{k}" for k in range(n_states)]
    agents = ["iggy", "ann", "bob"]
    signals = {a: [f"{a[0]}{k}" for k in range(n_states)] for a in agents}
    eps = float(rng.uniform(*eps_range))
    floor = delta_share / n_states
    eta = {"iggy": [_simplex(rng, n_states, floor) for _ in range(n_states)]}
    for a in ("ann", "bob"):
        perm = rng.permutation(n_states)
        rows = []
        for k in range(n_states):
            spill = np.array(_simplex(rng, n_states - 1)) * eps
            row = np.insert(spill, perm[k], 0.0)
            row[perm[k]] = 1.0 - row.sum()
            rows.append([float(x) for x in row])
        eta[a] = rows
    network = []
    for i in range(len(agents)):
        w = _simplex(rng, len(agents) - 1, 0.1)
        network.append(w[:i] + [0.0] + w[i:])
    return {
        "kind": "cis",
        "states": states,
        "agents": agents,
        "signals": signals,
        "rho": {a: _simplex(rng, n_states, 0.2 / n_states) for a in agents},
        "eta": eta,
        "network": network,
        "y": {"values": {s: float(rng.random()) for s in states}, "max": 1.0},
    }


def _agent_network(rng, n_agents: int) -> list[list[int]]:
    """Out-neighbours per agent: a ring plus one or two random chords, so
    the network is strongly connected with out-degree 2 or 3."""
    out = []
    for i in range(n_agents):
        nbrs = [(i + 1) % n_agents]
        others = [j for j in range(n_agents) if j != i and j != nbrs[0]]
        extra = rng.choice(others, size=int(rng.integers(1, 3)), replace=False)
        out.append(nbrs + sorted(int(j) for j in extra))
    return out


def sparse_reducible(rng, n_agents: int = 100, n_signals: int = 10,
                     n_states: int = 4) -> dict:
    """General model with planted reducible structure on a sparse network.

    Signal slots per agent (``n_signals >= 6``):

    * slot 0 forms terminal class A: its belief about each neighbour is a
      point mass on the neighbour's slot 0, so the class copies the agent
      network (aperiodic unless every chord closes a cycle whose length
      shares a factor with the ring's);
    * slots 1 and 2 form terminal class P: slot ``1 + p`` believes the
      neighbour holds slot ``2 - p``, the bipartite double cover of the
      network, so the class has period 2;
    * slots 3 and 4 form terminal class C: beliefs split between the
      neighbour's slots 3 and 4 (support 2), aperiodic;
    * every other slot is transient: supports of one or two random
      signals per neighbour, with at least one terminal signal among them.

    The model carries no priors, so ``cps_check`` refuses it before
    allocating a tensor over all signal profiles.
    """
    if n_signals < 6:
        raise ValueError("sparse_reducible needs at least 6 signals per agent")
    agents = [f"a{i}" for i in range(n_agents)]
    states = [f"s{k}" for k in range(n_states)]
    sig = [[f"a{i}x{k}" for k in range(n_signals)] for i in range(n_agents)]
    nbrs = _agent_network(rng, n_agents)
    weights = []
    for i in range(n_agents):
        row = [0.0] * n_agents
        for j, w in zip(nbrs[i], _simplex(rng, len(nbrs[i]), 0.1)):
            row[j] = w
        weights.append(row)

    def point(n, k):
        v = [0.0] * n
        v[k] = 1.0
        return v

    def split(n, ks):
        v = [0.0] * n
        if len(ks) == 1:
            v[ks[0]] = 1.0
        else:
            p = float(rng.uniform(0.2, 0.8))
            v[ks[0]], v[ks[1]] = p, 1.0 - p
        return v

    beliefs = {}
    for i in range(n_agents):
        for k in range(n_signals):
            marg = {}
            for m, j in enumerate(nbrs[i]):
                if k == 0:
                    v = point(n_signals, 0)
                elif k in (1, 2):
                    v = point(n_signals, 3 - k)
                elif k in (3, 4):
                    v = split(n_signals, [3, 4])
                else:
                    size = int(rng.integers(1, 3))
                    ks = sorted(int(x) for x in rng.choice(n_signals, size, replace=False))
                    if m == 0 and min(ks) > 4:
                        ks[0] = int(rng.integers(0, 5))
                        ks = sorted(set(ks))
                    v = split(n_signals, ks)
                marg[agents[j]] = v
            beliefs[sig[i][k]] = {"marginals": {
                "state": _simplex(rng, n_states), "signals": marg}}
    return {
        "kind": "general",
        "states": states,
        "agents": agents,
        "signals": {a: sig[i] for i, a in enumerate(agents)},
        "beliefs": beliefs,
        "network": weights,
        "y": {"values": {s: float(rng.random()) for s in states}, "max": 1.0},
    }
