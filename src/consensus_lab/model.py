"""Primitive model objects: states, agents, signals, beliefs, network, priors.

Labels are opaque strings.  All numerics run over dense numpy arrays whose
index order is the declaration order of the labels.  Objects are immutable
after construction (arrays are read-only, mappings are read-only copies),
so what is derived from one is built once, on first use, and kept: a
spec's interaction structure and first-order map, a network's analysis.

A spec stores its interim beliefs (:class:`Beliefs`) as one state table,
a row per signal, and one stack per counterpart width, holding every
agent's marginals over the signals of each counterpart of that width.
Marginals are all a belief holds: a scenario's full-mode entries are
summed into them as they are parsed, and no joint over signal profiles is
kept.  For a parsed marginal-mode scenario ``spec.beliefs[t]`` is an
:class:`InterimBelief` over read-only row views of those arrays.

The library's entry points check their arguments through the private
``_real``, ``_vector``, ``_count`` and ``_indices`` here; each refusal is a
:class:`PreconditionError` that names the argument.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from types import MappingProxyType

import numpy as np

from .errors import PreconditionError

#: Default absolute tolerance for probability-vector checks.  Validation
#: accepts an override for parsed inputs with coarser rounding.
PROB_TOL = 1e-12


def _real(x, what: str, scalar: bool = False):
    """``x`` as a float array, or with ``scalar`` as one float: the one
    numeric cast of the entry points.  A value that is not numeric (a
    string included), complex or, with ``scalar``, not a single number is
    refused before it is cast; ``what`` names it."""
    try:
        arr = np.asarray(x)
        if arr.dtype.kind in "biufO":
            arr = arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is not None and arr.dtype.kind == "c":
        raise PreconditionError(f"{what}: expected real entries, got {arr.dtype}")
    if arr is None or arr.dtype.kind != "f":
        raise PreconditionError(f"{what}: {type(x).__name__} is not a numeric array")
    if scalar and arr.ndim:
        raise PreconditionError(f"{what}: expected a number, got shape {arr.shape}")
    return float(arr) if scalar else arr


def _vector(x, n: int, what: str, per: str, finite: bool = True) -> np.ndarray:
    """``x`` as ``n`` floats, one per ``per``, each finite unless ``finite``
    is False (for a caller whose own range test refuses NaN and inf)."""
    v = _real(x, what)
    if v.shape != (n,):
        raise PreconditionError(f"{what}: expected one value per {per} ({n}), got shape {v.shape}")
    if finite and not np.isfinite(v).all():
        raise PreconditionError(f"{what}: every value must be finite")
    return v


def _count(x, k: int, what: str) -> None:
    """Refuse ``x`` unless it is an integer (not a ``bool``) of at least ``k``."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise PreconditionError(f"{what}: expected an integer, got {x!r}")
    if x < k:
        raise PreconditionError(f"{what} must be at least {k}, got {x}")


def _indices(members, n: int, what: str) -> np.ndarray:
    """``members`` as an ``intp`` array of distinct integer indices below
    ``n``; ``what`` names one member in a refusal, as ``"start: state"``."""
    bad = [m for m in members if isinstance(m, bool) or not isinstance(m, (int, np.integer))]
    if bad:
        raise PreconditionError(f"{what} {bad[0]!r} is not an integer index")
    idx = np.array(members, dtype=np.intp)
    outside = (idx < 0) | (idx >= n)
    if outside.any():
        raise PreconditionError(f"{what} {idx[outside][0]} is outside 0..{n - 1}")
    _, first, counts = np.unique(idx, return_index=True, return_counts=True)
    if (counts > 1).any():
        raise PreconditionError(f"{what} {idx[first[counts > 1].min()]} is listed twice")
    return idx


def _cumulative(weights, what: str) -> np.ndarray:
    """Running sums of a weight array, refused unless every weight is finite
    and non-negative and the total is positive."""
    w = np.asarray(weights, dtype=float).reshape(-1)
    cum = np.cumsum(w)
    if not (w.size and w.min() >= 0.0 and 0.0 < cum[-1] < np.inf):
        raise PreconditionError(
            f"{what}: weights must be finite and non-negative with a positive total")
    return cum


def _network_cdf(g: np.ndarray, agents) -> np.ndarray:
    """Running sums of each row of the network weights ``g``, one pass over
    the matrix; agent ``agents[k]``'s row ``k`` is refused as
    :func:`_cumulative` refuses ``network.row[<agent>]``."""
    cum = np.cumsum(g, axis=1)
    bad = np.flatnonzero(~((g >= 0).all(axis=1) & (0 < cum[:, -1]) & (cum[:, -1] < np.inf)))
    if bad.size:
        _cumulative(g[bad[0]], f"network.row[{agents[bad[0]]}]")
    return cum


def check_beta(beta, message: str, n: int | None = None):
    """``beta`` as one coordination weight (a float) or, given ``n``, as one
    weight per agent (an array, named ``beta_vec``); refused with
    ``message`` unless every weight lies in [0, 1), where NaN lies nowhere."""
    beta = (_real(beta, "beta", scalar=True) if n is None
            else _vector(beta, n, "beta_vec", "agent", finite=False))
    if not np.all((0.0 <= beta) & (beta < 1.0)):
        raise PreconditionError(message)
    return beta


def freeze(values, dtype=float) -> np.ndarray:
    """Copy ``values`` into a read-only float array."""
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class InterimBelief:
    """One agent's conditional belief after observing one of his signals.

    Parameters
    ----------
    state_marginal : array over the state space
        Probability of each state given the signal.
    signal_marginals : mapping, other agent label -> array
        Probability over that agent's signals given the owner's signal.
        Agents the owner never weights may be omitted.
    """

    state_marginal: np.ndarray
    signal_marginals: Mapping[str, np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "state_marginal", freeze(self.state_marginal))
        marginals = {j: freeze(v) for j, v in self.signal_marginals.items()}
        object.__setattr__(self, "signal_marginals", MappingProxyType(marginals))

    @classmethod
    def _view(cls, state_marginal, signal_marginals) -> "InterimBelief":
        """A belief over arrays that are read-only already, without copies."""
        belief = object.__new__(cls)
        object.__setattr__(belief, "__dict__", {
            "state_marginal": state_marginal,
            "signal_marginals": MappingProxyType(signal_marginals)})
        return belief


@dataclass(frozen=True)
class SignalIndex:
    """Dense index over the union of all agents' signals.

    Blocks are contiguous in declaration order: agent k's signals occupy
    ``blocks[k]``.  ``agent_of[s]`` is the agent index owning signal s.
    """

    labels: tuple[str, ...]
    agents: tuple[str, ...]
    agent_of: np.ndarray
    blocks: tuple[slice, ...]

    def __len__(self) -> int:
        return len(self.labels)


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _ranges(lo: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges ``lo[k] : lo[k] + counts[k]``, concatenated."""
    return np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts, counts)


def stacked(agents, signals, rows) -> dict | None:
    """Per counterpart width: its pairs' agent and counterpart indices, flags
    of the rows listing it, and their marginals, from each signal's marginals
    by agent in ``rows``; None if a row lists its owner or a non-agent."""
    position, stacks, hi = {a: k for k, a in enumerate(agents)}, {}, 0
    for i, a in enumerate(agents):
        lo, hi = hi, hi + len(signals.get(a, ()))
        kinds = dict.fromkeys(map(tuple, rows[lo:hi]))
        counterparts = dict.fromkeys(chain.from_iterable(kinds))
        if a in counterparts or not counterparts.keys() <= position.keys():
            return None
        # with one kind, every row lists the same counterparts in order
        columns = (zip(*map(dict.values, rows[lo:hi])) if len(kinds) == 1 else
                   ([m[j] for m in rows[lo:hi] if j in m] for j in counterparts))
        for j, marginals in zip(counterparts, columns):
            stack = stacks.setdefault(len(signals.get(j, ())), [[], [], [], []])
            stack[0].append(i)
            stack[1].append(position[j])
            stack[2] += [j in m for m in rows[lo:hi]]
            stack[3] += marginals
    return stacks


@dataclass(frozen=True, eq=False)
class Stack:
    """The marginals of every (agent, counterpart) pair whose counterpart
    has one number of signals, a row per signal of the agent: each row's
    signal (its row of ``B``), counterpart, and whether it lists it."""

    signal: np.ndarray
    counterpart: np.ndarray
    listed: np.ndarray
    marginals: np.ndarray


class Beliefs(Mapping):
    """Read-only mapping from signal label to :class:`InterimBelief`,
    stored as one state table and one stack per counterpart width.

    ``index`` is the :class:`SignalIndex` over the declared signals,
    agents in declaration order; ``states`` holds one state marginal per
    signal in that order.  ``stacks`` holds a :class:`Stack` per
    counterpart width: every agent's marginals over each counterpart of
    that width that some of its signals list, a row per signal of the
    agent.  ``irregular`` marks the rows the arrays do not describe
    alone: a missing belief, or a vector that is not 1-D with one entry per
    state or counterpart signal (or whose counterpart is not another agent).

    A parsed belief is built on first use over read-only row views of
    ``states`` and the stacks.  A belief given as an :class:`InterimBelief`
    is kept as given, and its vectors that fit are copied into the arrays.
    """

    def __init__(self, agents, signals, n_states, states, stacks, beliefs,
                 irregular=None):
        """``stacks`` is what :func:`stacked` returns, its marginals made
        arrays or not; ``beliefs`` maps each label with a belief to it, or
        to its counterparts in order to build it over row views."""
        self.agents = tuple(dict.fromkeys(agents))
        self.signals, self.n_states = signals, n_states
        sizes = np.array([len(signals.get(a, ())) for a in self.agents], dtype=int)
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        self.index = SignalIndex(
            tuple(chain.from_iterable(signals.get(a, ()) for a in self.agents)),
            self.agents, freeze(np.repeat(np.arange(len(sizes)), sizes), int),
            tuple(map(slice, bounds[:-1].tolist(), bounds[1:].tolist())))
        self.states = _readonly(states)
        self.irregular = _readonly(np.zeros(len(states), dtype=bool)
                                   if irregular is None else irregular)
        self._beliefs, self._screens, self.stacks = beliefs, {}, {}
        for width, (owner, other, listed, marginals) in stacks.items():
            rows, flags = sizes[owner], np.array(listed, dtype=bool)
            stack = np.asarray(marginals, dtype=float).reshape(int(flags.sum()), width)
            if not flags.all():
                # the rows that do not list the counterpart are zeros
                stack, given = np.zeros((len(flags), width)), stack
                stack[flags] = given
            self.stacks[width] = Stack(_ranges(bounds[owner], rows), np.repeat(other, rows),
                                       _readonly(flags), _readonly(stack))

    @classmethod
    def stack(cls, beliefs: Mapping, agents, signals, n_states) -> "Beliefs":
        """Store a mapping from label to belief by agent blocks."""
        agents = tuple(dict.fromkeys(agents))
        shapes = {j: (len(signals.get(j, ())),) for j in agents}
        blank = np.zeros(n_states)
        states, rows, irregular, entries = [], [], [], {}
        for a in agents:
            for t in signals.get(a, ()):
                b = beliefs.get(t)
                fits = b is not None and b.state_marginal.shape == (n_states,)
                states.append(b.state_marginal if fits else blank)
                given = {} if b is None else b.signal_marginals
                rows.append({j: m for j, m in given.items()
                             if j != a and m.shape == shapes.get(j)})
                irregular.append(not fits or len(rows[-1]) < len(given))
                # the given belief is kept: it holds read-only copies
                # already, and views would cost an object per signal; a
                # label declared twice is stored at both rows
                if b is not None:
                    entries.setdefault(t, b)
        states = np.array(states, dtype=float).reshape(len(states), n_states)
        return cls(agents, signals, n_states, states, stacked(agents, signals, rows), entries,
                   np.array(irregular, dtype=bool))

    @cached_property
    def _lookup(self) -> tuple[dict, dict]:
        """Each label's first signal, and each (signal, counterpart label)
        pair's stack marginals and row there."""
        first = {t: s for s, t in reversed(list(enumerate(self.index.labels)))}
        rows = {(s, self.agents[j]): (stack.marginals, r) for stack in self.stacks.values()
                for r, (s, j) in enumerate(zip(stack.signal.tolist(), stack.counterpart.tolist()))}
        return first, rows

    def __getitem__(self, t) -> InterimBelief:
        belief = self._beliefs[t]
        if isinstance(belief, tuple):
            first, rows = self._lookup
            s = first[t]
            belief = self._beliefs[t] = InterimBelief._view(
                self.states[s], {j: stack[r] for j in belief for stack, r in [rows[s, j]]})
        return belief

    def __contains__(self, t) -> bool:
        return t in self._beliefs

    def __iter__(self):
        return iter(self._beliefs)

    def __len__(self) -> int:
        return len(self._beliefs)

    @cached_property
    def _covered(self) -> np.ndarray:
        """``[s, j]``: signal ``s`` lists a marginal over agent ``j``, or
        ``j`` is its owner."""
        covered = np.zeros((len(self.states), len(self.agents)), dtype=bool)
        covered[np.arange(len(self.states)), self.index.agent_of] = True
        for stack in self.stacks.values():
            covered[stack.signal[stack.listed], stack.counterpart[stack.listed]] = True
        return covered

    def uncovered(self, weights, rows=slice(None)) -> np.ndarray:
        """Cells ``(s, j)`` of the given signal rows where ``s`` gives
        agent ``j`` a nonzero weight (``weights``: a row of agent weights
        per signal, or one for all) but lists no marginal over ``j``, nor
        owns it: the cells whose part of ``B`` cannot be filled."""
        return (weights != 0) & ~self._covered[rows]

    def screen(self, tol: float) -> np.ndarray:
        """Rows of ``states`` whose belief may break a probability rule:
        irregular ones, and those with a state marginal or a listed
        counterpart marginal that has an entry below ``-tol`` or a sum not
        within ``tol`` of 1, kept per ``tol``.  Each stack is screened as
        one array; each row sum has the bits of ``np.sum`` of it."""
        if tol in self._screens:
            return self._screens[tol]
        flagged = self.irregular | _off(self.states, tol)
        for stack in self.stacks.values():
            flagged[stack.signal[_off(stack.marginals, tol) & stack.listed]] = True
        self._screens[tol] = _readonly(flagged)
        return flagged


def _off(rows: np.ndarray, tol: float) -> np.ndarray:
    return (rows < -tol).any(axis=1) | ~(np.abs(rows.sum(axis=1) - 1.0) <= tol)


@dataclass(frozen=True, eq=False)
class Network:
    """Row-stochastic matrix of coordination weights between agents."""

    weights: np.ndarray
    diagonal_allowed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "weights", freeze(self.weights))

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @cached_property
    def structure(self):
        """The analysed weights; the stationary vector is the centrality."""
        from .interaction import as_structure

        return as_structure(self.weights)


@dataclass(frozen=True, eq=False)
class BasicVariable:
    """A state-measurable payoff with values inside ``[0, bound]``."""

    values: np.ndarray
    bound: float

    def __post_init__(self):
        object.__setattr__(self, "values", freeze(self.values))
        object.__setattr__(self, "bound", float(self.bound))


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """A complete model instance.

    ``signals`` maps each agent to its ordered signal labels; labels are
    globally unique.  ``beliefs`` maps each signal label to the interim
    belief held after observing it; any mapping is stored as
    :class:`Beliefs`, and a :class:`Beliefs` stored for the same agents,
    signals and states (a parsed one, or another spec's) is kept as it is.
    ``priors`` optionally gives each agent an ex ante distribution over
    his own signals.
    """

    states: tuple[str, ...]
    agents: tuple[str, ...]
    signals: Mapping[str, tuple[str, ...]]
    beliefs: Beliefs
    network: Network
    priors: Mapping[str, np.ndarray] | None = None
    y: BasicVariable | None = None

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "agents", tuple(self.agents))
        signals = MappingProxyType({a: tuple(ts) for a, ts in self.signals.items()})
        object.__setattr__(self, "signals", signals)
        beliefs = self.beliefs
        layout = (tuple(dict.fromkeys(self.agents)), signals, self.n_states)
        if not (isinstance(beliefs, Beliefs)
                and (beliefs.agents, beliefs.signals, beliefs.n_states) == layout):
            beliefs = Beliefs.stack(beliefs, self.agents, signals, self.n_states)
        object.__setattr__(self, "beliefs", beliefs)
        if self.priors is not None:
            priors = {a: freeze(v) for a, v in self.priors.items()}
            object.__setattr__(self, "priors", MappingProxyType(priors))

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @cached_property
    def structure(self):
        """The analysed interaction structure."""
        from .interaction import build_interaction_structure

        return build_interaction_structure(self)

    @cached_property
    def first_order(self):
        """The first-order map."""
        from .interaction import build_first_order_map

        return build_first_order_map(self)

    def all_signals(self) -> tuple[str, ...]:
        return self.beliefs.index.labels

    def agent_of(self, signal: str) -> str:
        index = self.beliefs.index
        if signal not in index.labels:
            raise KeyError(signal)
        return index.agents[index.agent_of[index.labels.index(signal)]]


def _check_prob(v: list, loc: str, vec, n: int, tol: float) -> None:
    """Append the violations of one probability vector of ``n`` entries:
    a wrong length or shape, an entry below ``-tol``, a sum not within
    ``tol`` of 1 (NaN fails both tests)."""
    if np.shape(vec) != (n,):
        got = len(vec) if np.ndim(vec) == 1 else f"shape {np.shape(vec)}"
        v.append(f"{loc}: expected length {n}, got {got}")
        return
    if np.any(vec < -tol):
        v.append(f"{loc}: negative entry")
    total = np.sum(vec)
    if not abs(total - 1.0) <= tol:
        v.append(f"{loc}: sums to {float(total)!r} (expected 1 within {tol})")


def check_network_rows(v: list, agents, g: np.ndarray, tol: float) -> None:
    """Append the violations of a square weight matrix ``g`` over
    ``agents``: a negative weight, a row whose sum is not within ``tol``
    of 1 (NaN fails that test)."""
    if np.any(g < 0):
        v.append("network: negative weight")
    for i in np.nonzero(~(np.abs(g.sum(axis=1) - 1.0) <= tol))[0]:
        v.append(f"network.row[{agents[i]}]: sums to {float(g[i].sum())!r}"
                 f" (expected 1 within {tol})")


def check_labels(v: list, agents, signals) -> None:
    """Append the violations of the agent and signal labels; the signals are
    walked one by one only when some label repeats."""
    if len(agents) < 2:
        v.append("agents: need at least two agents")
    if len(set(agents)) != len(agents):
        v.append("agents: duplicate agent label")
    labels = list(chain.from_iterable(signals.get(a) or () for a in agents))
    repeated = len(set(labels)) != len(labels)
    seen: dict[str, str] = {}
    for a in agents:
        ts = signals.get(a)
        if not ts:
            v.append(f"signals.{a}: agent needs at least one signal")
        elif repeated:
            for t in ts:
                if t in seen:
                    v.append(f"signals.{a}.{t}: label already used by agent {seen[t]}")
                seen[t] = a


def check_self_weights(v: list, agents, network: Network) -> None:
    """Append each self-weight of a square network that allows none."""
    if not network.diagonal_allowed:
        for i in np.nonzero(np.abs(np.diag(network.weights)) > 0)[0]:
            v.append(f"network.diagonal[{agents[i]}]: self-weight"
                     " present but diagonal_allowed is false")


def check_payoff(v: list, y: BasicVariable | None, n_states: int) -> None:
    """Append the violations of a payoff ``y``, if given, over ``n_states`` states."""
    if y is None:
        return
    if len(y.values) != n_states:
        v.append(f"y: {len(y.values)} values for {n_states} states")
    if not y.bound > 0:
        v.append("y: bound must be positive")
    elif not np.all((y.values >= 0) & (y.values <= y.bound)):
        v.append(f"y: values outside [0, {y.bound}]")


def check_beliefs(v: list, spec: ModelSpec, tol: float, g: np.ndarray | None = None) -> None:
    """Append the violations of the beliefs that the screen at ``tol`` flags;
    given ``g``, a weight row per signal, of a marginal only where it fills
    ``B`` (over a weighted agent with signals), and none for a missing belief."""
    beliefs, index = spec.beliefs, spec.beliefs.index
    flagged = np.flatnonzero(beliefs.screen(tol))
    spans = dict(zip(index.agents, index.blocks))
    for a in spec.agents if len(flagged) else ():
        span = spans[a]
        for k in flagged[(span.start <= flagged) & (flagged < span.stop)]:
            t = index.labels[k]
            if t not in beliefs:
                if g is None:
                    v.append(f"beliefs.{t}: missing belief")
                continue
            b = beliefs[t]
            loc = f"beliefs.{t}"
            _check_prob(v, f"{loc}.state", b.state_marginal, spec.n_states, tol)
            for j, m in b.signal_marginals.items():
                if j == a or j not in spec.agents:
                    v.append(f"{loc}.signals.{j}: not another agent")
                elif g is None or (g[k, spec.agents.index(j)] != 0 and spec.signals[j]):
                    _check_prob(v, f"{loc}.signals.{j}", m, len(spec.signals[j]), tol)


def validate_model(spec: ModelSpec, tol: float = PROB_TOL) -> list[str]:
    """Check every model invariant; return the violations (empty list = valid).

    Each violation is a human-readable string prefixed with the location
    of the offending field.
    """
    tol = _real(tol, "tol", scalar=True)
    v: list[str] = []
    if spec.n_states < 1:
        v.append("states: need at least one state")
    check_labels(v, spec.agents, spec.signals)

    g = spec.network.weights
    if g.shape != (spec.n_agents, spec.n_agents):
        v.append(f"network: shape {g.shape} does not match {spec.n_agents} agents")
    else:
        check_network_rows(v, spec.agents, g, tol)
        check_self_weights(v, spec.agents, spec.network)

    # the block screen finds the signals to check one vector at a time
    check_beliefs(v, spec, tol)
    beliefs, index, agent_set = spec.beliefs, spec.beliefs.index, set(spec.agents)
    # a regular row needs a marginal over each agent its owner weights;
    # irregular rows are reported above
    if index.agents == spec.agents and g.shape == (spec.n_agents, spec.n_agents):
        uncovered = beliefs.uncovered(g[index.agent_of]) & ~beliefs.irregular[:, None]
        if uncovered.any():
            s, j = np.nonzero(uncovered)
            # by owner, weighted agent, then signal
            for k in np.lexsort((s, j, index.agent_of[s])):
                v.append(f"beliefs.{index.labels[s[k]]}.signals.{spec.agents[j[k]]}:"
                         " missing marginal over an agent the owner weights")

    if spec.priors is not None:
        for a, mu in spec.priors.items():
            if a not in agent_set:
                v.append(f"priors.{a}: unknown agent")
                continue
            _check_prob(v, f"priors.{a}", mu, len(spec.signals[a]), tol)
    check_payoff(v, spec.y, spec.n_states)
    return v


def ex_ante_expectation(spec: ModelSpec, agent: str, prior, z) -> float:
    """Ex ante expectation of ``z``, one value per signal of the agent, under
    a prior over his signals.  For a payoff ``y`` over states, ``z`` is the
    agent's block of the first-order values,
    ``first_order_vector(spec, y)[index.blocks[k]]``.  The prior's weights
    must be finite and non-negative, and ``z`` finite; an unknown agent is
    refused.
    """
    if agent not in spec.agents:
        raise PreconditionError(f"ex ante expectation: unknown agent {agent!r}")
    n = len(spec.signals[agent])
    prior = _vector(prior, n, f"prior for {agent}", "signal", finite=False)
    # NaN fails both comparisons
    if not np.all((prior >= 0.0) & (prior < np.inf)):
        raise PreconditionError(f"prior for {agent}: weights must be finite and non-negative")
    return float(prior @ _vector(z, n, f"z for {agent}", "signal"))
