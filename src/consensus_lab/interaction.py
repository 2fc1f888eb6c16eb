"""The interaction structure: a Markov matrix on the union of all signals.

The transition weight from a signal of agent i to a signal of agent j is the
network weight i places on j times i's interim probability of j's signal.
This module builds that matrix from the belief stacks in one scatter per
stack, naming the first signal it cannot fill, the first-order map sending
state payoffs to per-signal expectations, and the connectivity analysis of
the result (strongly connected components, terminal components, periods),
which the structure carries so that every caller shares one analysis.

The matrix is stored as sparse rows (:class:`SparseRows`): every cell whose
float64 bits are nonzero, row by row, so that no n x n array is kept unless
a library caller reads ``structure.matrix``; no package path reads it.  It
is read through three kernels: its cells in row-major order (the graph
analysis's edges, the CSV writer's cells); one dense block per component,
for the Markov solves and the tyranny check's transient copies; and one
product with a vector, summed over the stored cells.  The analysis keeps
the weights of the edges between components and each signal's self-weight,
which the condensation walk reads.  The SCCs come from an iterative Tarjan
search, after a vectorized test that settles a structure of one component;
the periods are read from that search's depths.  Each terminal component's
stationary vector comes from ``stationary_vector``, and every solve with
``I - D B`` (``D`` a diagonal of discounts) from one walk along the
condensation, sinks first, that factors each component of two or more
signals on its own; the absorption probabilities and times are such walks,
refused when out of range.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import PreconditionError
from .model import (
    PROB_TOL, ModelSpec, Network, SignalIndex, _check_prob, _indices, _network_cdf, _ranges,
    _real, check_beliefs, check_network_rows,
)

#: Residual ceiling enforced on every returned stationary distribution.
STATIONARY_TOL = 1e-10

#: Rounding allowed past [0, 1] for an absorption probability, below 1 for a time.
ABSORPTION_TOL = 1e-6


@dataclass(frozen=True)
class SparseRows:
    """A matrix stored by rows: row ``r``'s cells are at columns
    ``indices[indptr[r]:indptr[r + 1]]``, in increasing order, with values
    ``data`` there.  Every cell whose float64 bits are nonzero is stored
    (written ``-0.0`` and ``inf`` cells too), and every other cell is
    ``+0.0``, so the dense matrix is rebuilt bit for bit."""

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        # read-only, so the analysis and the dense copy cannot go stale
        for part in (self.indptr, self.indices, self.data):
            part.setflags(write=False)

    @classmethod
    def of(cls, matrix) -> SparseRows:
        """The cells of a 2-D array whose float64 bits are nonzero."""
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        r, c = np.nonzero(matrix.view(np.uint64))
        indptr = np.searchsorted(r, np.arange(len(matrix) + 1))
        return cls(matrix.shape, indptr, c, matrix[r, c])

    def __len__(self) -> int:
        return self.shape[0]

    def row_of(self) -> np.ndarray:
        """The row of each stored cell."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Positions ``(u, v)`` and values ``w`` of the cells that compare
        nonzero, in row-major order: the weighted edges of the matrix's
        graph."""
        edge = self.data != 0
        if edge.all():
            return self.row_of(), self.indices, self.data
        return self.row_of()[edge], self.indices[edge], self.data[edge]

    def block(self, members) -> np.ndarray:
        """The dense block of the rows and columns ``members``, distinct
        and in increasing order."""
        m = np.asarray(members, dtype=np.intp)
        if len(m) == len(self) == self.shape[1]:
            # a square matrix's members are all its rows, in order
            return self.dense()
        lo = self.indptr[m]
        size = self.indptr[m + 1] - lo
        cells = _ranges(lo, size)
        # each column's position among the members, -1 outside them
        local = np.full(self.shape[1], -1, dtype=np.intp)
        local[m] = np.arange(len(m))
        col = local[self.indices[cells]]
        inside = col >= 0
        out = np.zeros((len(m), len(m)))
        out[np.repeat(np.arange(len(m)), size)[inside], col[inside]] = self.data[cells][inside]
        return out

    def dense(self) -> np.ndarray:
        """The whole matrix as a new dense array."""
        out = np.zeros(self.shape)
        out.reshape(-1)[self.row_of() * self.shape[1] + self.indices] = self.data
        return out

    def product(self, x: np.ndarray, left: bool = False) -> np.ndarray:
        """``B @ x``, or with ``left`` ``x @ B``, for a vector ``x``: each
        row's stored cells summed in column order (each column's in row
        order with ``left``), with no BLAS call, so the bits are the same
        at every size and thread count."""
        if left:
            return np.bincount(self.indices, weights=x[self.row_of()] * self.data,
                               minlength=self.shape[1])
        return np.bincount(self.row_of(), weights=self.data * x[self.indices], minlength=len(self))


@dataclass(frozen=True)
class FirstOrderMap:
    """Matrix sending a state payoff vector to per-signal expectations."""

    matrix: np.ndarray
    index: SignalIndex
    states: tuple[str, ...]


@dataclass(frozen=True)
class InteractionStructure:
    """Row-stochastic matrix over all signals with its graph analysis.

    ``components`` are the strongly connected components sorted by least
    member; ``terminal`` are the closed ones (no edge leaves them), in the
    same order, and ``periods`` gives each terminal component's period.
    ``component_of`` gives each signal's position in ``components``,
    ``crossing`` holds the edges between components, as source and target
    signals in row-major order with their weights, and ``loops`` each
    signal's self-weight (``+0.0`` for a stored ``-0.0``).  ``rows`` stores
    the matrix, read there by every package path; ``matrix`` is the one
    read-only dense copy of it, for library callers, built when first read
    and kept.
    ``index`` is None for a bare matrix, whose states have no labels.  The
    per-terminal-component stationary vectors, the levels of the
    condensation, the absorption matrix and the absorption times are
    computed on first use and kept.
    """

    rows: SparseRows
    index: SignalIndex | None
    components: tuple[tuple[int, ...], ...]
    terminal: tuple[tuple[int, ...], ...]
    periods: tuple[int, ...]
    component_of: np.ndarray
    crossing: tuple[np.ndarray, np.ndarray, np.ndarray]
    loops: np.ndarray

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense matrix, read-only."""
        matrix = self.rows.dense()
        matrix.setflags(write=False)
        return matrix

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
        closed = np.zeros(len(self.rows), dtype=bool)
        for comp in self.terminal:
            closed[list(comp)] = True
        return tuple(np.flatnonzero(~closed).tolist())

    def names(self, members) -> tuple:
        """Labels of the given signals, or the indices of a bare matrix."""
        if self.index is None:
            return tuple(members)
        return tuple(self.index.labels[i] for i in members)

    @cached_property
    def stationary(self) -> tuple[np.ndarray, ...]:
        """Stationary vector of each terminal component, over its members."""
        # a terminal component is strongly connected by construction
        return tuple(stationary_vector(self.rows.block(c)) for c in self.terminal)

    @cached_property
    def _levels(self) -> tuple[_Level, ...]:
        """The condensation's levels, sinks first.

        A component's level is the length of its longest path to a
        terminal component, found by relaxing the crossing edges once per
        level: level 0 holds the terminal components, and every successor
        of a component lies at a lower level.
        """
        label = self.component_of
        u, v, weights = self.crossing
        level = np.zeros(len(self.components), dtype=np.intp)
        while True:
            deeper = level.copy()
            np.maximum.at(deeper, label[u], level[label[v]] + 1)
            if (deeper == level).all():
                break
            level = deeper
        sizes = np.bincount(label)
        signal_level = level[label]
        # crossing edges by level, each level's grouped by source signal
        # (they come in row-major order)
        order = np.argsort(signal_level[u], kind="stable")
        u, v, weights = u[order], v[order], weights[order]
        edge_level = signal_level[u]
        singles = np.flatnonzero(sizes[label] == 1)
        levels = []
        for k in range(int(level.max()) + 1):
            here = singles[signal_level[singles] == k]
            blocks = tuple(np.flatnonzero(label == c)
                           for c in np.flatnonzero((level == k) & (sizes > 1)))
            lo, hi = np.searchsorted(edge_level, [k, k + 1])
            src, starts = np.unique(u[lo:hi], return_index=True)
            levels.append(_Level(here, self.loops[here], blocks, src, starts, v[lo:hi],
                                 weights[lo:hi]))
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
                            np.eye(len(m)) - d[m][:, None] * self.rows.block(m), x[m])
                    except np.linalg.LinAlgError:
                        x[m] = np.nan
        return x

    def _transient_solve(self, rhs: np.ndarray, what: str, lo: float, hi: float) -> np.ndarray:
        """``x = rhs + B x`` on the transient signals, with the terminal rows
        of ``rhs`` as known values there, by the condensation walk; refused,
        naming the first transient signal where it fails, when not finite
        or when ``what`` it solves for is outside ``[lo, hi]`` by more than
        ``ABSORPTION_TOL``."""
        T = self.transient
        x = self.solve(rhs, np.ones(len(self.rows)), terminal_known=True)
        xt = x[list(T)]
        ok = np.isfinite(xt) & (xt >= lo - ABSORPTION_TOL) & (xt <= hi + ABSORPTION_TOL)
        if not ok.all():
            first = np.argmin(ok.all(axis=tuple(range(1, x.ndim))))
            row, fine = np.ravel(xt[first]), np.ravel(ok[first])
            where = f"transient signal {self.names(T)[first]}"
            if not np.isfinite(row).all():
                raise PreconditionError(f"{where}: (I - B_TT)^-1 is not finite there;"
                                        " I - B_TT is singular in floating point or not finite")
            raise PreconditionError(f"{where}: {what} {float(row[~fine][0])!r} is outside"
                                    f" [{lo:g}, {hi:g}]; I - B_TT is singular in floating point")
        return x

    @cached_property
    def absorption(self) -> np.ndarray:
        """Probability that each signal is absorbed in each terminal component.

        Rows of terminal signals are indicators; transient rows solve
        ``(I - B_TT) X = B_TC``, one column per terminal component.
        """
        indicators = np.zeros((len(self.rows), len(self.terminal)))
        for k, comp in enumerate(self.terminal):
            indicators[list(comp), k] = 1.0
        absorption = self._transient_solve(indicators, "absorption probability", 0.0, 1.0)
        absorption.setflags(write=False)
        return absorption

    @cached_property
    def absorption_time(self) -> np.ndarray:
        """Expected steps from each transient signal (in ``transient`` order)
        into a terminal component: ``t = (I - B_TT)^{-1} 1``."""
        T = list(self.transient)
        steps = np.zeros(len(self.rows))
        steps[T] = 1.0
        t = self._transient_solve(steps, "absorption time", 1.0, np.inf)[T]
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
    network weights, replacing the owner's row of the network; the mapping
    must give a row for every declared signal and for no other label.  A
    positive self-weight contributes to the diagonal: an agent is certain
    of his own signal.  First, each network row that fills ``B`` must be
    finite and non-negative with a positive total, then sum to 1 within
    ``PROB_TOL``, whatever tolerance validated it (``network.row[<agent>]``),
    and then (for either kind of weights) each belief that fills ``B``,
    irregular or not, must be a probability vector within ``PROB_TOL``.  A
    refusal then names the first signal in index order that cannot fill
    its row: a bad type-dependent weight row, no belief, or no marginal
    over a weighted counterpart.  Each row's cells, a run per agent that
    its owner's signals weight, are placed by offsets and filled by one
    scatter per stack of ``spec.beliefs``.
    """
    index = _signal_index(spec)
    return _analysed(_filled_rows(spec, index, type_dependent_weights), index)


def _filled_rows(spec: ModelSpec, index: SignalIndex, type_dependent_weights) -> SparseRows:
    """The rows of ``B``, checked and filled by the rules of
    :func:`build_interaction_structure` in a frame of their own, so that
    the cell arrays and the weight rows are freed before the analysis."""
    beliefs, n, m, agent = spec.beliefs, len(index), spec.n_agents, index.agent_of
    first = np.searchsorted(agent, np.arange(m + 1))  # each agent's first signal, and n
    sizes, off, errors = np.diff(first), [], {}
    if type_dependent_weights is None:
        shape = np.shape(spec.network.weights)
        if shape != (m, m):
            raise PreconditionError(f"network: shape {shape} does not match"
                                    f" {m} agents, expected {(m, m)}")
        # the rows of the agents with signals fill B, and each must sum to 1
        used = np.flatnonzero(sizes)
        rows, owners = spec.network.weights[used], np.array(spec.agents, dtype=object)[used]
        _network_cdf(rows, owners)
        check_network_rows(off, owners, rows, PROB_TOL)
        # one weight row per signal, its owner's
        W = spec.network.weights[agent]
    else:
        labels = set(index.labels)
        unknown = [t for t in type_dependent_weights if t not in labels]
        if unknown:
            raise PreconditionError(f"type-dependent weights: unknown signal(s) {unknown}")
        W = np.zeros((n, m))
        for s, t in enumerate(index.labels):
            if t not in type_dependent_weights:
                raise PreconditionError(f"type-dependent weights: no row for signal {t}")
            try:
                w = _real(type_dependent_weights[t], f"type-dependent weights for {t}")
                errors[s] = _weight_row_error(t, w, m)
            except PreconditionError as exc:
                errors[s] = str(exc)
            if not errors[s]:
                W[s] = w
    # each belief's state marginal and each marginal that fills B
    check_beliefs(off, spec, PROB_TOL, W)
    if off:
        raise PreconditionError(off[0])
    # the first signal with a bad weight row, no belief, or a weighted
    # counterpart it lists no marginal over
    bad = beliefs.uncovered(W).any(axis=1)
    bad[[s for s, error in errors.items() if error]] = True
    for s in np.flatnonzero(beliefs.irregular):
        bad[s] |= index.labels[s] not in beliefs
    if bad.any():
        s = int(np.argmax(bad))
        raise _unfillable(spec, s, W[s], errors.get(s))
    # the weighted cells: each signal's own, and its rows of each stack
    # whose counterpart it weights, all listed; weighted[i, j]: a signal
    # of agent i weights agent j
    weighted, picked = np.zeros((m, m), dtype=bool), []
    w = W[np.arange(n), agent]
    own = np.flatnonzero(w)
    weighted[agent[own], agent[own]] = True
    for stack in beliefs.stacks.values():
        k = np.flatnonzero(W[stack.signal, stack.counterpart])
        s, j = stack.signal[k], stack.counterpart[k]
        weighted[agent[s], j] = True
        picked.append((s, j, stack.marginals[k]))
    # where j's columns start among the cells of each of i's rows, and
    # how many cells its rows have; each row's first cell
    spans = np.zeros((m, m + 1), dtype=np.intp)
    np.cumsum(weighted * sizes, axis=1, out=spans[:, 1:])
    offset, head = spans[:, :-1], np.zeros(n + 1, dtype=np.intp)
    np.cumsum(spans[agent, -1], out=head[1:])
    # unweighted cells are never written, so they stay +0.0 (0 * inf is nan)
    values, columns = np.zeros(head[-1]), np.zeros(head[-1], dtype=np.intp)
    # own signal is known with certainty
    at = head[own] + offset[agent[own], agent[own]] + own - first[agent[own]]
    values[at], columns[at] = w[own], own
    for s, j, marginals in picked:
        c = np.arange(marginals.shape[1])
        at = (head[s] + offset[agent[s], j])[:, None] + c
        values[at] = W[s, j][:, None] * marginals
        columns[at] = first[j][:, None] + c
    stored = values.view(np.uint64) != 0
    indptr = np.searchsorted(np.flatnonzero(stored), head)
    return SparseRows((n, n), indptr, columns[stored], values[stored])


def _weight_row_error(t: str, w, n: int) -> str | None:
    """Why the weight row ``w`` of signal ``t`` cannot fill ``B``: its
    length, a weight that is not finite, then a negative weight or a sum
    not within ``PROB_TOL`` of 1; None when it can."""
    if np.shape(w) != (n,):
        return f"type-dependent weights for {t}: expected length {n}, got {np.shape(w)}"
    if not np.isfinite(w).all():
        return f"signal {t}: every weight must be finite"
    if np.any(w < 0):
        return f"type-dependent weights for {t}: negative weight"
    off: list[str] = []
    _check_prob(off, f"type-dependent weights for {t}", w, n, PROB_TOL)
    return off[0] if off else None


def _unfillable(spec: ModelSpec, s: int, w: np.ndarray, error: str | None) -> PreconditionError:
    """The refusal of signal ``s`` with weight row ``w`` and that row's
    error, if any; then no belief, then no marginal over a weighted agent."""
    beliefs = spec.beliefs
    t, a = beliefs.index.labels[s], spec.agents[beliefs.index.agent_of[s]]
    if error or t not in beliefs:
        return PreconditionError(error or f"signal {t}: no belief")
    b = spec.agents[np.argmax(beliefs.uncovered(w, s))]
    return PreconditionError(f"signal {t}: agent {a} weights {b} but carries"
                             f" no belief marginal over {b}'s signals")


def as_structure(obj) -> InteractionStructure:
    """The analysed structure of an InteractionStructure, a Network or a
    square array; a structure is returned as it is and a network's cached
    analysis is shared, so neither is analysed again.  An array is stored
    by the rule of :class:`SparseRows`.  Any other input, or an array that
    is not square, not numeric, complex or not finite, is refused with a
    :class:`PreconditionError`."""
    if isinstance(obj, InteractionStructure):
        return obj
    if isinstance(obj, Network):
        return obj.structure
    B = _square(obj)
    if not B.size:
        raise PreconditionError("interaction structure: the matrix has no entries")
    return _analysed(B, index=None)


def as_chain(obj) -> InteractionStructure:
    """:func:`as_structure` for the Markov entry points: a bare matrix must
    also be row-stochastic, with no negative entry and every row sum within
    ``PROB_TOL`` of 1.  A structure or a network is taken as it is."""
    if not isinstance(obj, (InteractionStructure, Network)):
        obj = _square(obj)
        if (obj < 0).any():
            raise PreconditionError("matrix: every entry must be non-negative")
        sums = obj.sum(axis=1)
        off = np.flatnonzero(~(np.abs(sums - 1.0) <= PROB_TOL))
        if off.size:
            raise PreconditionError(f"matrix: row {off[0]} sums to {float(sums[off[0]])!r}"
                                    f" (expected 1 within {PROB_TOL})")
    return as_structure(obj)


def _analysed(B, index: SignalIndex | None) -> InteractionStructure:
    """The structure of ``B``, its :class:`SparseRows` or a square array
    stored by their rule, with its graph analysis of the cells that
    compare nonzero.  One search gives the SCCs and the depths that the
    periods are read from."""
    rows = B if isinstance(B, SparseRows) else SparseRows.of(B)
    n = len(rows)
    u, v, w = rows.edges()
    comps, depth = _scc_search(n, u, v)
    # a component is terminal when no edge leaves it
    label = np.empty(n, dtype=np.intp)
    label[np.concatenate(comps)] = np.repeat(
        np.arange(len(comps)), [len(c) for c in comps]
    )
    source = label[u]
    crossing = source != label[v]
    closed = np.ones(len(comps), dtype=bool)
    closed[source[crossing]] = False
    terminal = tuple(c for c, ok in zip(comps, closed) if ok)
    periods = _periods(depth, u, v, source, len(comps))[closed]
    loops, own = np.zeros(n), u == v
    loops[u[own]] = w[own]
    return InteractionStructure(rows, index, tuple(comps), terminal, tuple(periods.tolist()),
                                label, (u[crossing], v[crossing], w[crossing]), loops)


def strongly_connected_components(matrix) -> list[tuple[int, ...]]:
    """SCCs of the directed graph of a square array's nonzero entries,
    sorted by least member; other input raises :class:`PreconditionError`.

    A graph in which every vertex has an in-edge and an out-edge, and vertex 0
    reaches and is reached from every vertex, within a budget of levels that
    grows with its edges, is one component: that is settled by two vectorized
    searches.  Any other graph is walked by Tarjan's search (*SIAM J. Comput.*
    1, 1972), iteratively, in time linear in its edges.
    """
    matrix = _square(matrix)
    u, v = np.nonzero(matrix != 0)
    return _scc_search(len(matrix), u, v)[0]


def _scc_search(n: int, u: np.ndarray, v: np.ndarray):
    """The SCCs of ``n`` vertices and the edges ``(u, v)`` in row-major
    order, each a tuple of int members in index order, sorted by least
    member, and each vertex's depth in the search that found them, of which
    every component is a subtree."""
    # the out-edges of vertex k go to v[starts[k]:starts[k + 1]]
    starts = np.searchsorted(u, np.arange(n + 1))
    # one component when every vertex has an in-edge and an out-edge and
    # vertex 0 reaches every vertex along the edges and against them; a
    # level costs about as much as 300 of Tarjan's edges, so a search
    # deeper than its budget is left to Tarjan
    if n and (starts[1:] > starts[:-1]).all() and np.bincount(v, minlength=n).min() > 0:
        levels = max(64, len(u) // 256)
        depth, back = _bfs_depths(starts, v, levels), np.argsort(v, kind="stable")
        against = _bfs_depths(np.searchsorted(v[back], np.arange(n + 1)), u[back], levels)
        if min(depth.min(), against.min()) >= 0:
            return [tuple(range(n))], depth
    labels, depth = (np.array(x, dtype=np.intp) for x in _tarjan(starts.tolist(), v.tolist()))
    # members of each component in index order: a stable sort by label
    order = np.argsort(labels, kind="stable").tolist()
    sizes = np.bincount(labels).tolist()
    ends = np.cumsum(sizes).tolist()
    comps = [tuple(order[e - k : e]) for k, e in zip(sizes, ends)]
    return sorted(comps, key=lambda c: c[0]), depth


def _bfs_depths(starts: np.ndarray, targets: np.ndarray, levels: int) -> np.ndarray:
    """Breadth-first depth of each vertex from vertex 0 (-1 if unreached, or
    deeper than ``levels``, the one-component test's budget), by a search
    that takes each level's out-edges at once; a level costs its edges."""
    n = len(starts) - 1
    depth = np.full(n, -1, dtype=np.intp)
    depth[0] = 0
    # claim[w]: the position in its level's list of new vertices of the
    # copy of w that is kept, so that each is kept once
    frontier, claim = np.zeros(1, dtype=np.intp), np.empty(n, dtype=np.intp)
    while len(frontier) and depth[frontier[0]] < levels:
        lo = starts[frontier]
        reached = targets[_ranges(lo, starts[frontier + 1] - lo)]
        new = reached[depth[reached] < 0]
        depth[new] = depth[frontier[0]] + 1
        claim[new] = np.arange(len(new))
        frontier = new[claim[new] == np.arange(len(new))]
    return depth


def _tarjan(starts: list, targets: list) -> tuple[list, list]:
    """Component label and search depth of each vertex by Tarjan's search
    without recursion: ``path`` holds the vertices being searched, ``pos``
    the next out-edge of each, and ``stack`` the visited, unlabelled ones."""
    n = len(starts) - 1
    index, low, label, depth = [-1] * n, [0] * n, [-1] * n, [0] * n
    stack: list = []
    count = n_comp = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        path, pos = [root], [starts[root]]
        while path:
            node, p = path[-1], pos[-1]
            end = starts[node + 1]
            while p < end:
                w = targets[p]
                p += 1
                if index[w] < 0:
                    # descend into w; node resumes at its next edge
                    pos[-1] = p
                    index[w] = low[w] = count
                    count += 1
                    depth[w] = len(path)
                    stack.append(w)
                    path.append(w)
                    pos.append(starts[w])
                    break
                if label[w] < 0 and index[w] < low[node]:
                    low[node] = index[w]
            else:
                path.pop()
                pos.pop()
                if low[node] == index[node]:
                    while True:
                        w = stack.pop()
                        label[w] = n_comp
                        if w == node:
                            break
                    n_comp += 1
                elif low[node] < low[path[-1]]:
                    low[path[-1]] = low[node]
    return label, depth


def _periods(depth: np.ndarray, u: np.ndarray, v: np.ndarray, group, k: int) -> np.ndarray:
    """Period of each of ``k`` strongly connected components: the gcd of
    ``|depth(u) + 1 - depth(v)|`` over its edges ``(u, v)``, ``group`` giving
    each edge's component (unread when ``k`` is 1), and 0 if it has none.  For
    depths that are, up to a constant, path lengths inside the component,
    each term is a multiple of the period and a cycle's terms sum to its
    length.  An edge that leaves a component changes only that one's value."""
    term = np.abs(depth[u] + 1 - depth[v])
    if k == 1:
        return np.gcd.reduce(term, keepdims=True)
    periods = np.zeros(k, dtype=term.dtype)
    np.gcd.at(periods, group, term)
    return periods


def component_period(matrix, component) -> int:
    """Period of one strongly connected component (gcd of its cycle lengths)
    of a square array's graph of nonzero entries: the structure's own
    analysis of the members' block, read as one component.

    Returns 0 for a singleton without a self-loop, which supports no cycle.
    Raises :class:`PreconditionError` for an input that is not a square
    numeric array, an empty component, a member that is not an integer,
    lies outside the matrix or is listed twice, or when the members are not
    strongly connected among themselves.
    """
    matrix = _square(matrix)
    comp = _indices(component, len(matrix), "component: member")
    if not len(comp):
        raise PreconditionError("component: no members")
    structure = _analysed(matrix[np.ix_(comp, comp)], index=None)
    if not structure.irreducible:
        raise PreconditionError(f"component {component} is not strongly connected")
    return structure.periods[0]


def _square(matrix) -> np.ndarray:
    """A bare matrix as a square array of finite floats; anything else is
    refused, a complex or string array before it is cast."""
    B = _real(matrix, "matrix")
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise PreconditionError(f"matrix: expected a square array, got shape {B.shape}")
    if not np.isfinite(B).all():
        raise PreconditionError("matrix: every entry must be finite")
    return B


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
