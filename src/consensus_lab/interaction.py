"""The interaction structure: a Markov matrix on the union of all signals.

The transition weight from a signal of agent i to a signal of agent j is the
network weight i places on j times i's interim probability of j's signal.
This module builds that matrix by (agent, counterpart) blocks, naming the
first signal it cannot fill, the first-order map sending state payoffs to
per-signal expectations, and the connectivity analysis of the result
(strongly connected components, terminal components, periods), which the
structure carries so that every caller shares one analysis.  It also owns
its Markov solves: each terminal component's stationary vector, by the one
kernel ``stationary_vector``, and every solve with ``I - D B`` (``D`` a
diagonal of discounts), by one walk along the condensation, sinks first,
that factors each component of two or more signals on its own; the
absorption probabilities and times are such walks over the transient
signals.  Each is made on first use and kept, the game's solves excepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import cycle
from typing import Mapping

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import connected_components

from .errors import PreconditionError
from .model import ModelSpec, Network, SignalIndex

#: Residual ceiling enforced on every returned stationary distribution.
STATIONARY_TOL = 1e-10


@dataclass(frozen=True)
class FirstOrderMap:
    """Matrix sending a state payoff vector to per-signal expectations."""

    matrix: np.ndarray
    index: SignalIndex
    states: tuple[str, ...]

    def apply(self, y) -> np.ndarray:
        return self.matrix @ np.asarray(y, dtype=float)


@dataclass(frozen=True)
class InteractionStructure:
    """Row-stochastic matrix over all signals with its graph analysis.

    ``components`` are the strongly connected components sorted by least
    member; ``terminal`` are the closed ones (no edge leaves them), in the
    same order, and ``periods`` gives each terminal component's period.
    ``component_of`` gives each signal's position in ``components``, and
    ``crossing`` holds the edges between components, as source and target
    signals in row-major order.  ``index`` is None for a bare matrix, whose
    states have no labels.  The per-terminal-component stationary vectors,
    the levels of the condensation, the absorption matrix and the
    absorption times are computed on first use and kept.
    """

    matrix: np.ndarray
    index: SignalIndex | None
    components: tuple[tuple[int, ...], ...]
    terminal: tuple[tuple[int, ...], ...]
    periods: tuple[int, ...]
    component_of: np.ndarray
    crossing: tuple[np.ndarray, np.ndarray]

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def labels(self) -> tuple[str, ...] | None:
        return None if self.index is None else self.index.labels

    @property
    def irreducible(self) -> bool:
        return len(self.components) == 1

    @property
    def aperiodic(self) -> bool:
        """True when every terminal component has period one."""
        return all(p == 1 for p in self.periods)

    @cached_property
    def transient(self) -> tuple[int, ...]:
        """Signals outside every terminal component, in index order."""
        closed = np.zeros(len(self.matrix), dtype=bool)
        for comp in self.terminal:
            closed[list(comp)] = True
        return tuple(np.flatnonzero(~closed))

    def names(self, members) -> tuple:
        """Labels of the given signals, or the indices of a bare matrix."""
        if self.index is None:
            return tuple(members)
        return tuple(self.index.labels[i] for i in members)

    @cached_property
    def stationary(self) -> tuple[np.ndarray, ...]:
        """Stationary vector of each terminal component, over its members."""
        # a terminal component is strongly connected by construction
        return tuple(stationary_vector(self.matrix[np.ix_(c, c)]) for c in self.terminal)

    @cached_property
    def _levels(self) -> tuple[_Level, ...]:
        """The condensation's levels, sinks first.

        A component's level is the length of its longest path to a
        terminal component, found by relaxing the crossing edges once per
        level: level 0 holds the terminal components, and every successor
        of a component lies at a lower level.
        """
        label = self.component_of
        u, v = self.crossing
        level = np.zeros(len(self.components), dtype=np.intp)
        while True:
            deeper = level.copy()
            np.maximum.at(deeper, label[u], level[label[v]] + 1)
            if (deeper == level).all():
                break
            level = deeper
        sizes = np.bincount(label)
        signal_level = level[label]
        single = sizes[label] == 1
        # crossing edges by level, each level's grouped by source signal
        # (they come in row-major order)
        order = np.argsort(signal_level[u], kind="stable")
        u, v = u[order], v[order]
        edge_level = signal_level[u]
        levels = []
        for k in range(int(level.max()) + 1):
            singles = np.flatnonzero(single & (signal_level == k))
            blocks = tuple(np.flatnonzero(label == c)
                           for c in np.flatnonzero((level == k) & (sizes > 1)))
            lo, hi = np.searchsorted(edge_level, [k, k + 1])
            src, starts = np.unique(u[lo:hi], return_index=True)
            levels.append(_Level(singles, self.matrix[singles, singles], blocks, src,
                                 starts, v[lo:hi], self.matrix[u[lo:hi], v[lo:hi]]))
        return tuple(levels)

    def solve(self, rhs: np.ndarray, d: np.ndarray, terminal_known: bool = False) -> np.ndarray:
        """``x`` solving ``x = rhs + d * (B @ x)``, ``d`` one discount per
        signal and ``rhs`` a vector or one column per right-hand side.

        The walk goes along the condensation, sinks first.  At each level
        the solved successors' values are added to the right-hand side, all
        singleton components are solved by one vector division, and each
        larger component by one dense solve with ``I - d B`` on its block;
        an irreducible structure is the one dense solve with the whole
        matrix.  A singular component is not finite (a block is set to NaN,
        a singleton divides by zero) and the walk goes on, so neither is
        any signal upstream of it.  With ``terminal_known`` the terminal
        rows of ``rhs`` are taken as the solution there and only the
        transient levels are walked.
        """
        x = np.array(rhs, dtype=float)
        col = (slice(None),) + (None,) * (x.ndim - 1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for level in self._levels[int(terminal_known):]:
                if len(level.dst):
                    pulled = np.add.reduceat(level.weights[col] * x[level.dst], level.starts)
                    x[level.src] += d[level.src][col] * pulled
                s = level.singles
                x[s] /= (1.0 - d[s] * level.loops)[col]
                for m in level.blocks:
                    try:
                        x[m] = np.linalg.solve(
                            np.eye(len(m)) - d[m][:, None] * self.matrix[np.ix_(m, m)], x[m])
                    except np.linalg.LinAlgError:
                        x[m] = np.nan
        return x

    def _transient_solve(self, rhs: np.ndarray) -> np.ndarray:
        """``x = rhs + B x`` on the transient signals, with the terminal rows
        of ``rhs`` as known values there, by the condensation walk; refused
        when not finite, naming the first transient signal where it is not."""
        T = self.transient
        x = self.solve(rhs, np.ones(len(self.matrix)), terminal_known=True)
        bad = ~np.isfinite(x[list(T)])
        if bad.any():
            first = np.argwhere(bad)[0][0]
            raise PreconditionError(
                f"transient signal {self.names(T)[first]}: (I - B_TT)^-1 is not finite"
                " there; I - B_TT is singular in floating point or not finite")
        return x

    @cached_property
    def absorption(self) -> np.ndarray:
        """Probability that each signal is absorbed in each terminal component.

        Rows of terminal signals are indicators; transient rows solve
        ``(I - B_TT) X = B_TC``, one column per terminal component.
        """
        indicators = np.zeros((len(self.matrix), len(self.terminal)))
        for k, comp in enumerate(self.terminal):
            indicators[list(comp), k] = 1.0
        absorption = self._transient_solve(indicators)
        absorption.setflags(write=False)
        return absorption

    @cached_property
    def absorption_time(self) -> np.ndarray:
        """Expected steps from each transient signal (in ``transient`` order)
        into a terminal component: ``t = (I - B_TT)^{-1} 1``."""
        T = list(self.transient)
        steps = np.zeros(len(self.matrix))
        steps[T] = 1.0
        t = self._transient_solve(steps)[T]
        t.setflags(write=False)
        return t


@dataclass(frozen=True)
class _Level:
    """One level of the condensation: its singleton components with their
    self-weights, the members of its larger components, and the crossing
    edges leaving it with their weights, grouped by source (``src[k]``'s
    edges start at ``starts[k]``)."""

    singles: np.ndarray
    loops: np.ndarray
    blocks: tuple[np.ndarray, ...]
    src: np.ndarray
    starts: np.ndarray
    dst: np.ndarray
    weights: np.ndarray


def stationary_vector(Q: np.ndarray) -> np.ndarray:
    """Stationary vector of an irreducible row-stochastic matrix, solved
    directly with a normalization row (periodic chains need no special
    care) and up to two rounds of iterative refinement.  A residual
    ``sum |pQ - p|`` above ``STATIONARY_TOL``, or NaN, raises ArithmeticError."""
    # replace the last equation of (Q^T - I) x = 0 with the normalization
    n = Q.shape[0]
    A = Q.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    x = np.linalg.solve(A, b)
    for _ in range(2):
        r = b - A @ x
        if np.max(np.abs(r)) < 1e-14:
            break
        x = x + np.linalg.solve(A, r)
    x = np.where(np.abs(x) < 1e-15, 0.0, x)
    p = x / x.sum()
    residual = float(np.abs(p @ Q - p).sum())
    if not residual <= STATIONARY_TOL:
        raise ArithmeticError(
            f"stationary solve residual {residual:.3e} exceeds {STATIONARY_TOL:.1e}"
        )
    p.setflags(write=False)
    return p


def _signal_index(spec: ModelSpec) -> SignalIndex:
    """The index its beliefs built; none when an agent label repeats."""
    index = spec.beliefs.index
    if index.agents != spec.agents:
        raise PreconditionError("agents: duplicate agent label")
    return index


def build_first_order_map(spec: ModelSpec) -> FirstOrderMap:
    """The first-order map: the spec's state table, one row per signal."""
    index = _signal_index(spec)
    beliefs = spec.beliefs
    for t in (index.labels[k] for k in np.flatnonzero(beliefs.irregular)):
        if t not in beliefs:
            raise PreconditionError(f"signal {t}: no belief")
        shape = np.shape(beliefs[t].state_marginal)
        if shape != (spec.n_states,):
            raise PreconditionError(f"signal {t}: state marginal has shape {shape},"
                                    f" expected ({spec.n_states},)")
    return FirstOrderMap(beliefs.states, index, spec.states)


def build_interaction_structure(
    spec: ModelSpec,
    type_dependent_weights: Mapping[str, np.ndarray] | None = None,
) -> InteractionStructure:
    """Assemble the interaction structure from network weights and beliefs.

    With ``type_dependent_weights`` each signal carries its own row of
    network weights (a probability vector over agents), replacing the
    owner's row of the network.  A positive self-weight contributes to
    the diagonal: an agent is certain of his own signal.  Agents are
    filled in index order; a refusal names the first signal that fails.
    """
    index = _signal_index(spec)
    beliefs = spec.beliefs
    shape, agents = np.shape(spec.network.weights), (spec.n_agents, spec.n_agents)
    if type_dependent_weights is None and shape != agents:
        raise PreconditionError(f"network: shape {shape} does not match"
                                f" {spec.n_agents} agents, expected {agents}")
    n = len(index)
    B = np.zeros((n, n))
    # agents with a signal that has no belief, sought among irregular rows
    absent = {index.agent_of[k] for k in np.flatnonzero(beliefs.irregular)
              if index.labels[k] not in beliefs}
    for i, block in enumerate(index.blocks):
        cells = B[block]
        if type_dependent_weights is None:
            # the owner's network row, once for all its signals (none
            # when the owner has no signals)
            W, fits = spec.network.weights[i : i + 1][: len(cells)], True
        else:
            W = [np.asarray(type_dependent_weights[t], dtype=float)
                 for t in index.labels[block]]
            fits = all(w.shape == (spec.n_agents,) for w in W)
        if i in absent or not fits:
            raise _unfillable(spec, i, W)
        W = np.asarray(W)
        # only weighted cells are written: unweighted ones stay +0.0
        weighted = W != 0
        for j in np.flatnonzero(weighted.any(axis=0)):
            rows = slice(None) if len(W) == 1 else np.flatnonzero(weighted[:, j])
            if j == i:
                # own signal is known with certainty
                own = np.arange(len(cells))[rows]
                cells[own, block.start + own] = W[rows, j]
                continue
            pair = (spec.agents[i], spec.agents[j])
            if pair not in beliefs.blocks or not beliefs.listed[pair][rows].all():
                raise _unfillable(spec, i, W)
            cells[rows, index.blocks[j]] = W[rows, j, None] * beliefs.blocks[pair][rows]
    return _analysed(B, index)


def _unfillable(spec: ModelSpec, i: int, W) -> PreconditionError:
    """The error of agent ``i``'s first signal that fails, given ``W``, one
    weight row per signal or one for all: checked in turn, its weight row's
    length, its belief, and its marginal over each weighted counterpart."""
    beliefs, n, a = spec.beliefs, spec.n_agents, spec.agents[i]
    for r, (t, w) in enumerate(zip(beliefs.index.labels[beliefs.index.blocks[i]], cycle(W))):
        if np.shape(w) != (n,):
            return PreconditionError(
                f"type-dependent weights for {t}: expected length {n}, got {np.shape(w)}")
        if t not in beliefs:
            return PreconditionError(f"signal {t}: no belief")
        for j, b in enumerate(spec.agents):
            if j != i and beliefs.uncovered(a, b, w[j])[r]:
                return PreconditionError(f"signal {t}: agent {a} weights {b} but carries"
                                         f" no belief marginal over {b}'s signals")


def as_structure(obj) -> InteractionStructure:
    """The analysed structure of an InteractionStructure, a Network or a
    square array; a structure is returned as it is and a network's cached
    analysis is shared, so neither is analysed again."""
    if isinstance(obj, InteractionStructure):
        return obj
    if isinstance(obj, Network):
        return obj.structure
    # a copy, so that freezing it leaves the caller's array writable
    return _analysed(np.array(_weights(obj)), index=None)


def _analysed(B: np.ndarray, index: SignalIndex | None) -> InteractionStructure:
    # one scan for the edges feeds both the SCCs and the terminal test
    u, v = np.nonzero(B != 0)
    graph = scipy.sparse.csr_matrix(
        (np.ones(len(u), dtype=bool), (u, v)), shape=B.shape
    )
    comps = strongly_connected_components(graph)
    # a component is terminal when no edge leaves it
    label = np.empty(len(B), dtype=np.intp)
    label[np.concatenate(comps)] = np.repeat(
        np.arange(len(comps)), [len(c) for c in comps]
    )
    crossing = label[u] != label[v]
    closed = np.ones(len(comps), dtype=bool)
    closed[label[u[crossing]]] = False
    terminal = tuple(c for c, ok in zip(comps, closed) if ok)
    periods = tuple(component_period(B, c) for c in terminal)
    return InteractionStructure(B, index, tuple(comps), terminal, periods, label,
                                (u[crossing], v[crossing]))


def strongly_connected_components(matrix) -> list[tuple[int, ...]]:
    """SCCs of the directed graph of nonzero entries, sorted by least member.

    ``matrix`` may also be a scipy sparse matrix whose stored entries are
    the edges.
    """
    if not scipy.sparse.issparse(matrix):
        matrix = scipy.sparse.csr_matrix(_weights(matrix) != 0)
    n_comp, labels = connected_components(matrix, directed=True, connection="strong")
    # members of each component in index order: a stable sort by label
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels, minlength=n_comp).tolist()
    ends = np.cumsum(sizes).tolist()
    comps = [tuple(order[e - k : e]) for k, e in zip(sizes, ends)]
    return sorted(comps, key=lambda c: c[0])


def component_period(matrix, component) -> int:
    """Period of one strongly connected component (gcd of its cycle lengths).

    Returns 0 for a singleton without a self-loop, which supports no cycle.
    Raises :class:`PreconditionError` when the first member does not reach
    every other member.
    """
    matrix = _weights(matrix)
    comp = list(component)
    if len(comp) == 1:
        return 1 if matrix[comp[0], comp[0]] != 0 else 0
    # BFS levels from the first member, one vectorized step per level;
    # period = gcd over edges of level(u) + 1 - level(v)
    sub = matrix[np.ix_(comp, comp)] != 0
    level = np.full(len(comp), -1)
    level[0] = 0
    frontier = level == 0
    while frontier.any():
        frontier = sub[frontier].any(axis=0) & (level < 0)
        level[frontier] = level.max() + 1
    if (level < 0).any():
        raise PreconditionError(f"component {component} is not strongly connected")
    u, v = np.nonzero(sub)
    return int(abs(np.gcd.reduce(level[u] + 1 - level[v])))


def _weights(obj) -> np.ndarray:
    """The matrix of a structure or a network, or the array itself."""
    if isinstance(obj, InteractionStructure):
        return obj.matrix
    if isinstance(obj, Network):
        return obj.weights
    return np.asarray(obj, dtype=float)


def joint_connectedness(B):
    """Whether the interaction structure is irreducible.

    Returns ``(True, None)`` when every signal communicates with every
    other.  Otherwise returns ``(False, certificate)`` where the
    certificate is a nonempty proper closed set of signals: the first
    terminal component in index order.
    """
    structure = as_structure(B)
    if structure.irreducible:
        return True, None
    return False, structure.names(structure.terminal[0])


def absorbing_components(B) -> list[tuple]:
    """Terminal strongly connected components (no outgoing edges), by index order."""
    structure = as_structure(B)
    return [structure.names(c) for c in structure.terminal]


def aperiodicity(B) -> bool:
    """True when every terminal component has period one, so powers converge."""
    return as_structure(B).aperiodic
