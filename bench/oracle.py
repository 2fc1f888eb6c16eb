"""Independent reference computations used by the output checks.

Everything here works from the scenario dict the generator wrote, not from
the package under test: the interaction structure is rebuilt directly from
its definition, and graph facts come from ``scipy.sparse.csgraph``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import breadth_first_order, connected_components


@dataclass
class Reference:
    """Interaction structure ``B``, first-order map ``F`` and payoff ``y``."""

    labels: list[str]
    B: np.ndarray
    F: np.ndarray
    y: np.ndarray
    network: np.ndarray
    signals_per_agent: list[int]

    @property
    def x1(self) -> np.ndarray:
        return self.F @ self.y


def reference(scn: dict) -> Reference:
    """Rebuild B, F and y from a ``general`` or ``cis`` scenario dict."""
    agents = scn["agents"]
    signals = scn["signals"]
    labels = [t for a in agents for t in signals[a]]
    pos = {t: k for k, t in enumerate(labels)}
    start = {a: pos[signals[a][0]] for a in agents}
    G = np.array(scn["network"]["weights"] if isinstance(scn["network"], dict)
                 else scn["network"], dtype=float)
    n = len(labels)
    B = np.zeros((n, n))
    F = np.zeros((n, len(scn["states"])))
    if scn.get("kind", "general") == "cis":
        rho = {a: np.array(scn["rho"][a]) for a in agents}
        eta = {a: np.array(scn["eta"][a]) for a in agents}
        for i, a in enumerate(agents):
            post = eta[a] * rho[a][:, None]
            post = post / post.sum(axis=0)
            for ti in range(len(signals[a])):
                s = start[a] + ti
                F[s] = post[:, ti]
                for j, b in enumerate(agents):
                    if j != i and G[i, j] != 0.0:
                        B[s, start[b]:start[b] + len(signals[b])] = (
                            G[i, j] * (post[:, ti] @ eta[b]))
    else:
        for i, a in enumerate(agents):
            for t in signals[a]:
                m = scn["beliefs"][t]["marginals"]
                F[pos[t]] = m["state"]
                for b, vec in m.get("signals", {}).items():
                    j = agents.index(b)
                    B[pos[t], start[b]:start[b] + len(vec)] = G[i, j] * np.array(vec)
    yv = scn["y"]["values"]
    y = np.array([yv[s] for s in scn["states"]] if isinstance(yv, dict) else yv, float)
    return Reference(labels, B, F, y, G, [len(signals[a]) for a in agents])


def full_beliefs_reference(scn: dict) -> Reference:
    """Like :func:`reference` for scenarios whose beliefs are ``full`` joints."""
    scn = dict(scn)
    states = scn["states"]
    beliefs = {}
    for t, b in scn["beliefs"].items():
        state = np.zeros(len(states))
        sig: dict[str, np.ndarray] = {}
        for e in b["full"]:
            state[states.index(e["state"])] += e["p"]
            for other, s in e["others"].items():
                vec = sig.setdefault(other, np.zeros(len(scn["signals"][other])))
                vec[scn["signals"][other].index(s)] += e["p"]
        beliefs[t] = {"marginals": {"state": state.tolist(),
                                    "signals": {k: v.tolist() for k, v in sig.items()}}}
    scn["beliefs"] = beliefs
    return reference(scn)


def classes(B: np.ndarray):
    """SCC count, terminal classes (sorted by least member) and transient signals."""
    graph = scipy.sparse.csr_matrix(B != 0)
    n_comp, lab = connected_components(graph, directed=True, connection="strong")
    members = [np.nonzero(lab == c)[0] for c in range(n_comp)]
    coo = graph.tocoo()
    leaves = set(lab[coo.row[lab[coo.row] != lab[coo.col]]])
    terminal = sorted((members[c] for c in range(n_comp) if c not in leaves),
                      key=lambda m: m[0])
    closed = np.zeros(B.shape[0], bool)
    for m in terminal:
        closed[m] = True
    return n_comp, terminal, np.nonzero(~closed)[0]


def period(B: np.ndarray, members) -> int:
    """Period of a strongly connected class: gcd over its edges of
    ``depth(u) + 1 - depth(v)`` for breadth-first depths from one member."""
    sub = scipy.sparse.csr_matrix(B[np.ix_(members, members)] != 0)
    order, pred = breadth_first_order(sub, 0, directed=True)
    depth = np.zeros(len(members), int)
    for v in order[1:]:
        depth[v] = depth[pred[v]] + 1
    coo = sub.tocoo()
    g = 0
    for d in np.unique(depth[coo.row] + 1 - depth[coo.col]):
        g = gcd(g, int(d))
    return abs(g)


def structure_stats(ref: Reference) -> dict:
    """Size and shape facts recorded for every generated model."""
    n_scc, terminal, transient = classes(ref.B)
    return {
        "signals": len(ref.labels),
        "nnz_B": int(np.count_nonzero(ref.B)),
        "sccs": n_scc,
        "terminal_classes": len(terminal),
        "transient_signals": len(transient),
        "terminal_periods": [period(ref.B, m) for m in terminal],
        "signal_profiles": prod(ref.signals_per_agent),
    }
