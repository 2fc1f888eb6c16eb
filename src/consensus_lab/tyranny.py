"""Tyranny of the least-informed under a common interpretation of signals.

Agents share the conditional signal distributions but not the priors over
states.  When one agent's technology is uniformly noisy while everyone
else's is nearly deterministic, the consensus expectation approximates the
noisy agent's prior expectation of the payoff.  The quantitative bound runs
through a stationary-distribution perturbation inequality (Cho and Meyer,
2001, Theorem 2.1) applied to the structure in which the informed agents'
signals are rounded to certainty.  A :class:`CISSpec` keeps its noise
classification (``noise``) and its general model (``model``), each built on
first use; the rounded structure is the model of another ``CISSpec``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .consensus import consensus_expectation, state_payoffs
from .errors import PreconditionError
from .interaction import SparseRows, as_chain
from .model import (
    PROB_TOL, BasicVariable, Beliefs, ModelSpec, Network, _real, check_labels,
    check_network_rows, check_payoff, check_self_weights, freeze,
)
from .spectral import mfpt


@dataclass(frozen=True, eq=False)
class CISSpec:
    """Common-interpretation model: shared signal technologies, private priors.

    ``eta[agent]`` is the signal technology, one row per state giving the
    distribution of the agent's signal conditional on that state.
    ``rho[agent]`` is the agent's full-support prior over states.
    """

    states: tuple[str, ...]
    agents: tuple[str, ...]
    signals: Mapping[str, tuple[str, ...]]
    rho: Mapping[str, np.ndarray]
    eta: Mapping[str, np.ndarray]
    network: Network
    y: BasicVariable | None = None

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "agents", tuple(self.agents))
        for name, convert in (("signals", tuple), ("rho", freeze), ("eta", freeze)):
            values = {a: convert(v) for a, v in getattr(self, name).items()}
            object.__setattr__(self, name, MappingProxyType(values))

    @property
    def n_states(self) -> int:
        return len(self.states)

    @cached_property
    def model(self) -> ModelSpec:
        """The general model with Bayes-derived beliefs."""
        return build_pi_from_cis(self)

    @cached_property
    def noise(self) -> NoiseProfile:
        """The noise classification of every agent's technology."""
        return classify_noise(self)


def validate_cis(cis: CISSpec, tol: float = PROB_TOL) -> list[str]:
    """Check CIS invariants; returns violations (empty = valid).  The
    labels, the self-weights and the payoff are held to
    :func:`~consensus_lab.model.validate_model`'s rules, with its texts."""
    tol = _real(tol, "tol", scalar=True)
    v: list[str] = []
    check_labels(v, cis.agents, cis.signals)
    for a in cis.agents:
        rho = cis.rho.get(a)
        if rho is None or rho.shape != (cis.n_states,):
            v.append(f"rho.{a}: expected one probability per state")
            continue
        if not abs(float(rho.sum()) - 1.0) <= tol or np.any(rho < -tol):
            v.append(f"rho.{a}: not a probability vector")
        elif np.any(rho <= 0):
            v.append(f"rho.{a}: must have full support")
        eta = cis.eta.get(a)
        shape = (cis.n_states, len(cis.signals.get(a, ())))
        if eta is None or eta.shape != shape:
            v.append(f"eta.{a}: expected shape {shape}")
            continue
        if np.any(eta < -tol):
            v.append(f"eta.{a}: negative entry")
        bad = np.nonzero(~(np.abs(eta.sum(axis=1) - 1.0) <= tol))[0]
        for th in bad:
            v.append(f"eta.{a}.row[{cis.states[th]}]: does not sum to 1")
    g = cis.network.weights
    if g.shape != (len(cis.agents),) * 2:
        v.append("network: dimension does not match the agent count")
    else:
        check_network_rows(v, cis.agents, g, tol)
        check_self_weights(v, cis.agents, cis.network)
        off = g[~np.eye(len(cis.agents), dtype=bool)]
        if np.any(off <= 0):
            v.append("network: must be complete (positive off-diagonal weights)")
    check_payoff(v, cis.y, cis.n_states)
    return v


def build_pi_from_cis(cis: CISSpec) -> ModelSpec:
    """Derive interim beliefs by Bayes' rule; signals are conditionally
    independent across agents given the state.

    Each agent's posterior table, one row per signal, is his technology's
    transpose reweighted by the prior; the belief about another agent's
    signal averages that agent's technology under the posterior.  Also
    fills in each agent's implied prior over his own signals.  A signal
    with zero prior probability has no posterior and raises.
    """
    agents, tables, stacks, keys, priors = tuple(dict.fromkeys(cis.agents)), [], {}, {}, {}
    for i, a in enumerate(agents):
        mu = priors[a] = cis.rho[a] @ cis.eta[a]
        zero = np.flatnonzero(mu <= 0.0)
        if len(zero):
            raise PreconditionError(f"signal {cis.signals[a][zero[0]]} of agent {a}"
                                    " has zero prior probability")
        # C order and one vector-matrix product per row (a stack of 1 x k
        # rows, not one matrix product) keep a lone posterior vector's bits
        table = np.ascontiguousarray(cis.eta[a].T) * cis.rho[a] / mu[:, None]
        others = tuple(j for j in agents if j != a)
        tables.append(table)
        for j in others if len(table) else ():
            stack = stacks.setdefault(len(cis.signals[j]), [[], [], [], []])
            stack[0].append(i)
            stack[1].append(agents.index(j))
            stack[2] += [True] * len(table)
            stack[3].append(np.matmul(table[:, None, :], cis.eta[j])[:, 0, :])
        keys.update(dict.fromkeys(cis.signals[a], others))
    states = np.concatenate([np.empty((0, cis.n_states)), *tables])  # none without agents
    for stack in stacks.values():
        stack[3] = np.concatenate(stack[3])
    beliefs = Beliefs(cis.agents, cis.signals, cis.n_states, states, stacks, keys)
    return ModelSpec(
        cis.states,
        cis.agents,
        cis.signals,
        beliefs,
        cis.network,
        priors=priors,
        y=cis.y,
    )


@dataclass(frozen=True)
class NoiseProfile:
    """Per-agent noise classification of the signal technologies.

    ``eps[a]`` is the smallest eps for which the technology is at most
    eps-noisy: each state has exactly one near-certain signal (received
    with probability at least 1 - eps, and with probability at most eps
    under every other state).  Infinite when that structure fails.
    ``delta[a]`` is the largest delta for which the technology is
    uniformly at least delta-noisy: its smallest entry.
    """

    eps: dict[str, float]
    delta: dict[str, float]
    certain_signal: dict[str, dict[int, int] | None]


def _eps_noisy(eta: np.ndarray) -> tuple[float, dict[int, int] | None]:
    n_states = len(eta)
    if not n_states:
        return 0.0, {}
    rows, top = np.arange(n_states), eta.argmax(axis=1)
    peak = eta[rows, top]
    ties = (eta == peak[:, None]).sum(axis=1) > 1
    if ties.any() or len(np.unique(top)) != n_states:
        return float("inf"), None
    # each certain signal's probability under the other states
    spill = eta[:, top][~np.eye(n_states, dtype=bool)]
    # at least 0.0, and +0.0 when zero: max keeps the first of equal values
    eps = float(max(0.0, np.max(1.0 - peak), np.max(spill, initial=0.0)))
    # the near-certain signal must be unique at this eps
    rival = eta >= 1.0 - eps
    rival[rows, top] = False
    if eps < 1.0 and rival.any():
        return float("inf"), None
    return eps, dict(enumerate(top.tolist()))


def classify_noise(cis: CISSpec) -> NoiseProfile:
    """Noise classification of every agent's technology."""
    eps, delta, certain = {}, {}, {}
    for a in cis.agents:
        eps[a], certain[a] = _eps_noisy(cis.eta[a])
        delta[a] = float(cis.eta[a].min())
    return NoiseProfile(eps, delta, certain)


def rounded_structure(cis: CISSpec, informed: Sequence[str]) -> CISSpec:
    """The spec with each informed agent's technology rounded to its
    certain version; its ``model`` holds the rounded structure.

    Every state's near-certain signal gets probability one.  Requires
    each informed agent's technology to be at most eps-noisy for some
    eps < 1/2 with the state-to-signal map a bijection onto his signal
    set, so that every signal keeps positive probability.  An unknown agent
    in ``informed`` is refused.  The noise is read from ``cis.noise``.
    """
    unknown = [a for a in informed if a not in cis.agents]
    if unknown:
        raise PreconditionError(f"informed: unknown agent {unknown[0]!r}")
    eta_hat = dict(cis.eta)
    for a in cis.agents:
        if a not in informed:
            continue
        assignment = cis.noise.certain_signal[a]
        if assignment is None or cis.noise.eps[a] >= 0.5:
            raise PreconditionError(
                f"agent {a}: no unique near-certain signal per state"
                f" (eps={cis.noise.eps[a]!r}); cannot round"
            )
        if len(cis.signals[a]) != cis.n_states:
            raise PreconditionError(
                f"agent {a}: rounding needs exactly one signal per state,"
                f" got {len(cis.signals[a])} signals for {cis.n_states} states"
            )
        eta_hat[a] = np.zeros_like(cis.eta[a])
        eta_hat[a][list(assignment), list(assignment.values())] = 1.0
    return CISSpec(cis.states, cis.agents, cis.signals, cis.rho, eta_hat, cis.network, cis.y)


@dataclass(frozen=True)
class PerturbationBound:
    """Stationary sensitivity bound: half the sup-norm of the matrix change
    times the largest mean first passage time of the reference chain."""

    bound: float
    max_relative_error: float | None
    matrix_gap: float
    max_passage_time: float
    satisfied: bool | None


def stationary_perturbation_bound(B, B_ref) -> PerturbationBound:
    """Cho-Meyer bound on relative stationary-distribution errors.

    For each state, ``|p(s) - p_ref(s)| / p_ref(s)`` is at most half the
    max-absolute-row-sum distance between the matrices times the largest
    off-diagonal mean first passage time of the reference chain.  The
    realized maximum relative error is reported when both chains are
    irreducible.  A bare matrix must be row-stochastic.  The distance comes
    from two transient dense copies of the stored rows, subtracted in place.
    """
    perturbed = as_chain(B)
    reference = as_chain(B_ref)
    if perturbed.rows.shape != reference.rows.shape:
        raise PreconditionError(f"B: shape {perturbed.rows.shape} does not match"
                                f" B_ref's shape {reference.rows.shape}")
    gap = perturbed.rows.dense()
    gap -= reference.rows.dense()
    gap = float(np.max(np.abs(gap, out=gap).sum(axis=1)))
    passage = mfpt(reference).max_off_diagonal()
    bound = 0.5 * gap * passage
    max_rel = None
    satisfied = None
    if perturbed.irreducible:
        p = perturbed.stationary[0]
        p_ref = reference.stationary[0]
        max_rel = float(np.max(np.abs(p - p_ref) / p_ref))
        satisfied = max_rel <= bound + 1e-12
    return PerturbationBound(bound, max_rel, gap, passage, satisfied)


@dataclass(frozen=True)
class TyrannyReport:
    """Numerical verification that the consensus tracks the noisiest
    agent's prior expectation, with every intermediate bound."""

    consensus: float
    prior_expectation: float
    gap: float
    bound: float
    eps: float
    delta: float
    noise: NoiseProfile
    belief_gap_max: float
    belief_gap_bound: float
    rounded_consensus: float
    perturbation: PerturbationBound
    passage_time_bound: float
    max_path_length: int
    passed: bool


def _bfs_diameter(rows: SparseRows) -> int:
    """Longest shortest path in the directed graph of the stored rows'
    edges; pairs with no path do not count.  Bit ``t % 64`` of the word
    ``sets[t // 64, s]`` says that ``t`` is within k steps of ``s``; a step
    ORs into each signal with out-edges its successors' sets, one word row
    at a time.  The length is the number of steps in which some set grew,
    at most n - 1.  Bit operations only: no n x n array, no matrix product."""
    u, v, _ = rows.edges()
    has = np.flatnonzero(np.bincount(u, minlength=len(rows)))
    bits, starts = np.arange(len(rows)), np.searchsorted(u, has)
    sets = np.zeros((-(-len(bits) // 64), len(bits)), dtype=np.uint64)
    sets[bits // 64, bits] = np.uint64(1) << (bits % 64).astype(np.uint64)
    for length in range(len(bits) + 1):
        before = sets.copy()
        for word in sets:
            word[has] |= np.bitwise_or.reduceat(word[v], starts)
        if np.array_equal(sets, before):
            return length


def verify_tyranny(
    cis: CISSpec, y=None, ignorant: str | None = None, tol: float = PROB_TOL
) -> TyrannyReport:
    """Check the least-informed bound and its two supporting inequalities.

    The ignorant agent (default: the first) must be uniformly
    delta-noisy with delta > 0; every other agent must be at most
    eps-noisy with eps < 1/2 (eps = 0, perfectly informative, is
    allowed); the network must be complete.  The consensus is then
    within ``4 |states| |signals|^2 / (gamma_min rho_min)^2 * y_max *
    eps / delta`` of the ignorant agent's prior expectation: exactly 0 when
    eps or y_max is 0, and inf when the prefactor overflows or its
    denominator underflows to 0, as the passage-time bound is then.
    ``cis`` is checked first by :func:`validate_cis` at the probability
    tolerance ``tol``.
    """
    problems = validate_cis(cis, tol)
    if problems:
        raise PreconditionError("; ".join(problems))
    if ignorant is None:
        ignorant = cis.agents[0]
    elif ignorant not in cis.agents:
        raise PreconditionError(f"ignorant: unknown agent {ignorant!r}")
    informed = [a for a in cis.agents if a != ignorant]
    profile = cis.noise
    delta = profile.delta[ignorant]
    if delta <= 0.0:
        raise PreconditionError(
            f"agent {ignorant} is not uniformly noisy: some signal has zero"
            " probability under some state"
        )
    eps = max(profile.eps[a] for a in informed)
    if not eps < 0.5:
        bad = [a for a in informed if not profile.eps[a] < 0.5]
        raise PreconditionError(
            f"informed agents must be at most eps-noisy with eps < 1/2;"
            f" failing: {bad} with eps {[profile.eps[a] for a in bad]}"
        )

    model = cis.model
    yv = state_payoffs(model, y)
    y_max = float(np.max(np.abs(yv)))

    result = consensus_expectation(model, yv)
    if result.value is None:
        raise PreconditionError(
            "consensus is not unique; the interaction structure has several"
            " terminal components"
        )
    prior_exp = float(cis.rho[ignorant] @ yv)

    n_states = cis.n_states
    n_signals = sum(len(cis.signals[a]) for a in cis.agents)
    g = cis.network.weights
    gamma_min = float(g[~np.eye(len(cis.agents), dtype=bool)].min())
    rho_min = min(float(cis.rho[a].min()) for a in cis.agents)
    rho_min_ignorant = float(cis.rho[ignorant].min())
    scale = (gamma_min * rho_min) ** 2
    factor = 4.0 * n_states * n_signals**2 / scale if scale else math.inf
    bound = factor * y_max * (eps / delta) if eps and y_max else 0.0

    rounded = rounded_structure(cis, informed).model
    rounded_result = consensus_expectation(rounded, yv)

    # belief perturbation: every interim marginal moves by at most
    # 4 |states| |signals| eps / rho_min_i
    belief_gap_max = 0.0
    belief_bound = 4.0 * n_states * n_signals * eps / rho_min
    blocks, hat = model.beliefs.blocks, rounded.beliefs.blocks
    for a in cis.agents:
        agent_bound = 4.0 * n_states * n_signals * eps / float(cis.rho[a].min())
        others = [j for j in cis.agents if j != a]
        # one row per signal of a, one column per counterpart
        gaps = np.column_stack([np.abs(blocks[a, j] - hat[a, j]).max(axis=1) for j in others])
        belief_gap_max = max(belief_gap_max, float(gaps.max()))
        over = np.argwhere(gaps > agent_bound + 1e-12)
        if len(over):
            r, k = over[0]
            raise ArithmeticError(
                f"belief perturbation bound violated at {cis.signals[a][r]} about {others[k]}"
            )

    scale = delta * rho_min_ignorant * gamma_min**2
    passage_bound = 2.0 / scale if scale else math.inf
    perturbation = stationary_perturbation_bound(result.structure, rounded.structure)
    if perturbation.max_passage_time > passage_bound + 1e-9:
        raise ArithmeticError("mean first passage time bound violated")

    gap = abs(result.value - prior_exp)
    passed = gap <= bound + 1e-12
    return TyrannyReport(
        result.value,
        prior_exp,
        gap,
        bound,
        eps,
        delta,
        profile,
        belief_gap_max,
        belief_bound,
        rounded_result.value,
        perturbation,
        passage_bound,
        _bfs_diameter(rounded.structure.rows),
        passed,
    )
