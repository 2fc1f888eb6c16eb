"""Primitive model objects: states, agents, signals, beliefs, network, priors.

Labels are opaque strings.  All numerics run over dense numpy arrays whose
index order is the declaration order of the labels.  Objects are immutable
after construction (arrays are read-only, mappings are read-only copies),
so what is derived from one is built once, on first use, and kept: a
spec's interaction structure and first-order map, a network's analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import PreconditionError

#: Default absolute tolerance for probability-vector checks.  Validation
#: accepts an override for parsed inputs with coarser rounding.
PROB_TOL = 1e-12


def check_beta(beta, message: str):
    """Raise :class:`PreconditionError` with ``message`` unless every
    coordination weight in ``beta`` (a scalar or an array) lies in
    [0, 1); NaN lies nowhere."""
    if not np.all((0.0 <= beta) & (beta < 1.0)):
        raise PreconditionError(message)


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
    full : optional array
        Joint distribution over (state, other agents' signal profile).
        Axis 0 runs over states; the remaining axes run over the other
        agents' signals in agent declaration order.  Only needed for
        operations that inspect correlation across opponents (common
        prior checks); everything else uses the marginals.
    """

    state_marginal: np.ndarray
    signal_marginals: Mapping[str, np.ndarray]
    full: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "state_marginal", freeze(self.state_marginal))
        marginals = {j: freeze(v) for j, v in self.signal_marginals.items()}
        object.__setattr__(self, "signal_marginals", MappingProxyType(marginals))
        if self.full is not None:
            object.__setattr__(self, "full", freeze(self.full))

    @classmethod
    def from_full(cls, full, other_agents: Sequence[str]) -> "InterimBelief":
        """Build a belief from a joint array, deriving all marginals.

        ``full`` has axis 0 over states and one axis per entry of
        ``other_agents`` (in that order).
        """
        full = np.asarray(full, dtype=float)
        if full.ndim != 1 + len(other_agents):
            raise PreconditionError(
                f"joint belief needs {1 + len(other_agents)} axes, got {full.ndim}"
            )
        signal_axes = tuple(range(1, full.ndim))
        state_marginal = full.sum(axis=signal_axes)
        marginals = {}
        for k, j in enumerate(other_agents):
            keep = 1 + k
            axes = tuple(a for a in range(full.ndim) if a != keep)
            marginals[j] = full.sum(axis=axes)
        return cls(state_marginal, marginals, full)


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
    belief held after observing it.  ``priors`` optionally gives each
    agent an ex ante distribution over his own signals.
    """

    states: tuple[str, ...]
    agents: tuple[str, ...]
    signals: Mapping[str, tuple[str, ...]]
    beliefs: Mapping[str, InterimBelief]
    network: Network
    priors: Mapping[str, np.ndarray] | None = None
    y: BasicVariable | None = None

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "agents", tuple(self.agents))
        signals = {a: tuple(ts) for a, ts in self.signals.items()}
        object.__setattr__(self, "signals", MappingProxyType(signals))
        object.__setattr__(self, "beliefs", MappingProxyType(dict(self.beliefs)))
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
        return tuple(t for a in self.agents for t in self.signals[a])

    def agent_of(self, signal: str) -> str:
        for a in self.agents:
            if signal in self.signals[a]:
                return a
        raise KeyError(signal)


def _screen_probs(violations, checks, tol):
    """Check each ``(position, location, vector, length)`` probability
    vector and insert its violations at the position.

    A vector of the wrong length is reported as such; any other is
    reported when an entry is below ``-tol`` and when its sum is not
    within ``tol`` of 1 (NaN fails both tests).  All vectors are
    concatenated once; those of the right length and one entry count are
    gathered as the rows of one array, whose row sums add each row in
    ``np.sum``'s order, so every sum has the bits of ``np.sum(vector)``.
    """
    if not checks:
        return
    positions, locations, vecs, lengths = zip(*checks)
    sizes = np.array([x.size for x in vecs])
    sized = np.array(list(map(len, vecs))) == lengths
    starts = np.cumsum(sizes) - sizes
    flat = np.concatenate(vecs, axis=None)
    sums = np.zeros(len(vecs))
    for size in np.flatnonzero(np.bincount(sizes[sized])):
        group = np.flatnonzero(sized & (sizes == size))
        sums[group] = flat[starts[group, None] + np.arange(size)].sum(axis=1)
    negative = np.zeros(len(vecs), dtype=bool)
    below = flat < -tol
    if below.any():
        negative[np.repeat(np.arange(len(vecs)), sizes)[below]] = True
    off = ~(np.abs(sums - 1.0) <= tol)
    # from the back, so earlier positions stay valid
    for k in np.flatnonzero(~sized | negative | off)[::-1]:
        loc = locations[k]
        if not sized[k]:
            found = [f"{loc}: expected length {lengths[k]}, got {len(vecs[k])}"]
        else:
            found = [f"{loc}: negative entry"] if negative[k] else []
            if off[k]:
                found.append(f"{loc}: sums to {float(sums[k])!r} (expected 1 within {tol})")
        violations[positions[k]:positions[k]] = found


def validate_model(spec: ModelSpec, tol: float = PROB_TOL) -> list[str]:
    """Check every model invariant; return the violations (empty list = valid).

    Each violation is a human-readable string prefixed with the location
    of the offending field.
    """
    v: list[str] = []
    if spec.n_states < 1:
        v.append("states: need at least one state")
    if spec.n_agents < 2:
        v.append("agents: need at least two agents")
    if len(set(spec.agents)) != spec.n_agents:
        v.append("agents: duplicate agent label")

    seen: dict[str, str] = {}
    for a in spec.agents:
        ts = spec.signals.get(a)
        if not ts:
            v.append(f"signals.{a}: agent needs at least one signal")
            continue
        for t in ts:
            if t in seen:
                v.append(f"signals.{a}.{t}: label already used by agent {seen[t]}")
            seen[t] = a

    g = spec.network.weights
    if g.shape != (spec.n_agents, spec.n_agents):
        v.append(
            f"network: shape {g.shape} does not match {spec.n_agents} agents"
        )
    else:
        if np.any(g < 0):
            v.append("network: negative weight")
        bad = np.nonzero(~(np.abs(g.sum(axis=1) - 1.0) <= tol))[0]
        for i in bad:
            v.append(
                f"network.row[{spec.agents[i]}]: sums to {float(g[i].sum())!r}"
                f" (expected 1 within {tol})"
            )
        if not spec.network.diagonal_allowed:
            for i in np.nonzero(np.abs(np.diag(g)) > 0)[0]:
                v.append(
                    f"network.diagonal[{spec.agents[i]}]: self-weight"
                    " present but diagonal_allowed is false"
                )

    # probability vectors are screened together once the loop is done;
    # each check keeps the position in ``v`` its violations belong at
    checks: list[tuple[int, str, np.ndarray, int]] = []
    agent_set = set(spec.agents)
    n_states = spec.n_states
    for a in spec.agents:
        for t in spec.signals.get(a, ()):
            b = spec.beliefs.get(t)
            if b is None:
                v.append(f"beliefs.{t}: missing belief")
                continue
            loc = f"beliefs.{t}"
            checks.append((len(v), f"{loc}.state", b.state_marginal, n_states))
            for j, m in b.signal_marginals.items():
                if j == a or j not in agent_set:
                    v.append(f"{loc}.signals.{j}: not another agent")
                    continue
                checks.append((len(v), f"{loc}.signals.{j}", m, len(spec.signals[j])))
            if b.full is not None:
                others = [j for j in spec.agents if j != a]
                shape = (spec.n_states,) + tuple(len(spec.signals[j]) for j in others)
                if b.full.shape != shape:
                    v.append(f"{loc}.full: shape {b.full.shape}, expected {shape}")
                    continue
                if np.any(b.full < -tol):
                    v.append(f"{loc}.full: negative entry")
                if not abs(float(b.full.sum()) - 1.0) <= tol:
                    v.append(f"{loc}.full: sums to {float(b.full.sum())!r}")
                rebuilt = InterimBelief.from_full(b.full, others)
                # a state marginal of the wrong length is reported by the screen
                if len(b.state_marginal) == n_states:
                    gap = np.max(np.abs(rebuilt.state_marginal - b.state_marginal))
                    if not gap <= tol:
                        v.append(f"{loc}.state: inconsistent with full joint")
                for j in b.signal_marginals:
                    if j in others and len(b.signal_marginals[j]) == len(
                        spec.signals[j]
                    ):
                        gap = np.max(
                            np.abs(rebuilt.signal_marginals[j] - b.signal_marginals[j])
                        )
                        if not gap <= tol:
                            v.append(f"{loc}.signals.{j}: inconsistent with full joint")

    if spec.priors is not None:
        for a, mu in spec.priors.items():
            if a not in agent_set:
                v.append(f"priors.{a}: unknown agent")
                continue
            checks.append((len(v), f"priors.{a}", mu, len(spec.signals[a])))
    _screen_probs(v, checks, tol)

    if spec.y is not None:
        if len(spec.y.values) != spec.n_states:
            v.append(
                f"y: {len(spec.y.values)} values for {spec.n_states} states"
            )
        if not spec.y.bound > 0:
            v.append("y: bound must be positive")
        elif not np.all((spec.y.values >= 0) & (spec.y.values <= spec.y.bound)):
            v.append(f"y: values outside [0, {spec.y.bound}]")
    return v


def ex_ante_expectation(spec: ModelSpec, agent: str, prior, z) -> float:
    """Ex ante expectation of ``z`` for one agent under a prior over his signals.

    ``z`` is either a per-signal array over the agent's signals or a
    :class:`BasicVariable`; in the latter case each signal's value is the
    conditional expectation of the variable under the signal's
    state marginal.
    """
    labels = spec.signals[agent]
    prior = np.asarray(prior, dtype=float)
    if prior.shape != (len(labels),):
        raise PreconditionError(
            f"prior for {agent}: expected length {len(labels)}, got {prior.shape}"
        )
    if isinstance(z, BasicVariable):
        z = z.values
        per_signal = np.array(
            [float(spec.beliefs[t].state_marginal @ z) for t in labels]
        )
    else:
        per_signal = np.asarray(z, dtype=float)
        if per_signal.shape != (len(labels),):
            raise PreconditionError(
                f"z for {agent}: expected length {len(labels)}, got {per_signal.shape}"
            )
    return float(prior @ per_signal)
