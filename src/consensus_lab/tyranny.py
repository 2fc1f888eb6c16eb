"""Tyranny of the least-informed under a common interpretation of signals.

Agents share the conditional signal distributions but not the priors over
states.  When one agent's technology is uniformly noisy while everyone
else's is nearly deterministic, the consensus expectation approximates the
noisy agent's prior expectation of the payoff.  The quantitative bound runs
through a stationary-distribution perturbation inequality (Cho and Meyer,
2001, Theorem 2.1) applied to the structure in which the informed agents'
signals are rounded to certainty.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import shortest_path

from .consensus import consensus_expectation, state_payoffs
from .errors import PreconditionError
from .interaction import FirstOrderMap, InteractionStructure, as_structure
from .model import (
    BasicVariable, Beliefs, ModelSpec, Network, check_network_rows, freeze,
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


def validate_cis(cis: CISSpec, tol: float = 1e-12) -> list[str]:
    """Check CIS invariants; returns violations (empty = valid)."""
    v: list[str] = []
    if len(cis.agents) < 2:
        v.append("agents: need at least two agents")
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
        off = g[~np.eye(len(cis.agents), dtype=bool)]
        if np.any(off <= 0):
            v.append("network: must be complete (positive off-diagonal weights)")
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
    tables, columns, keys, priors = [], {}, {}, {}
    for a in cis.agents:
        mu = priors[a] = cis.rho[a] @ cis.eta[a]
        zero = np.flatnonzero(mu <= 0.0)
        if len(zero):
            raise PreconditionError(f"signal {cis.signals[a][zero[0]]} of agent {a}"
                                    " has zero prior probability")
        # C order and one product per row keep a lone posterior vector's bits
        table = np.ascontiguousarray(cis.eta[a].T) * cis.rho[a] / mu[:, None]
        others = tuple(j for j in cis.agents if j != a)
        tables.append(table)
        columns.update(((a, j), (None, np.array([p @ cis.eta[j] for p in table])))
                       for j in others if len(table))
        keys.update(dict.fromkeys(cis.signals[a], others))
    states = np.concatenate([np.empty((0, cis.n_states)), *tables])  # none without agents
    beliefs = Beliefs(cis.agents, cis.signals, cis.n_states, states, columns, keys)
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


@dataclass(frozen=True)
class RoundedStructure:
    """The model rebuilt after rounding informed agents' signals to certainty."""

    cis: CISSpec
    model: ModelSpec
    interaction: InteractionStructure
    first_order: FirstOrderMap


def rounded_structure(cis: CISSpec, informed: Sequence[str]) -> RoundedStructure:
    """Round each informed agent's technology to its certain version.

    Every state's near-certain signal gets probability one.  Requires
    each informed agent's technology to be at most eps-noisy for some
    eps < 1/2 with the state-to-signal map a bijection onto his signal
    set, so that every signal keeps positive probability.
    """
    profile = classify_noise(cis)
    eta_hat = dict(cis.eta)
    for a in cis.agents:
        if a not in informed:
            continue
        assignment = profile.certain_signal[a]
        if assignment is None or profile.eps[a] >= 0.5:
            raise PreconditionError(
                f"agent {a}: no unique near-certain signal per state"
                f" (eps={profile.eps[a]!r}); cannot round"
            )
        if len(cis.signals[a]) != cis.n_states:
            raise PreconditionError(
                f"agent {a}: rounding needs exactly one signal per state,"
                f" got {len(cis.signals[a])} signals for {cis.n_states} states"
            )
        eta_hat[a] = np.zeros_like(cis.eta[a])
        eta_hat[a][list(assignment), list(assignment.values())] = 1.0
    cis_hat = CISSpec(
        cis.states, cis.agents, cis.signals, cis.rho, eta_hat, cis.network, cis.y
    )
    model = cis_hat.model
    return RoundedStructure(cis_hat, model, model.structure, model.first_order)


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
    irreducible.
    """
    perturbed = as_structure(B)
    reference = as_structure(B_ref)
    gap = float(np.max(np.abs(perturbed.matrix - reference.matrix).sum(axis=1)))
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


def _bfs_diameter(matrix) -> int:
    """Longest shortest path in the directed graph of nonzero entries."""
    dist = shortest_path(scipy.sparse.csr_matrix(matrix != 0), unweighted=True)
    return int(dist[np.isfinite(dist)].max())


def verify_tyranny(
    cis: CISSpec, y=None, ignorant: str | None = None
) -> TyrannyReport:
    """Check the least-informed bound and its two supporting inequalities.

    The ignorant agent (default: the first) must be uniformly
    delta-noisy with delta > 0; every other agent must be at most
    eps-noisy with eps < 1/2 (eps = 0, perfectly informative, is
    allowed); the network must be complete.  The consensus is then
    within ``4 |states| |signals|^2 / (gamma_min rho_min)^2 * y_max *
    eps / delta`` of the ignorant agent's prior expectation.
    """
    problems = validate_cis(cis)
    if problems:
        raise PreconditionError("; ".join(problems))
    if ignorant is None:
        ignorant = cis.agents[0]
    elif ignorant not in cis.agents:
        raise PreconditionError(f"ignorant: unknown agent {ignorant!r}")
    informed = [a for a in cis.agents if a != ignorant]
    profile = classify_noise(cis)
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
    if y is None:
        y = cis.y
    if y is None:
        raise PreconditionError("no payoff given: pass y or set cis.y")
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
    bound = (
        4.0
        * n_states
        * n_signals**2
        / (gamma_min * rho_min) ** 2
        * y_max
        * (eps / delta)
    )

    rounded = rounded_structure(cis, informed)
    rounded_result = consensus_expectation(rounded.model, yv)

    # belief perturbation: every interim marginal moves by at most
    # 4 |states| |signals| eps / rho_min_i
    belief_gap_max = 0.0
    belief_bound = 4.0 * n_states * n_signals * eps / rho_min
    blocks, hat = model.beliefs.blocks, rounded.model.beliefs.blocks
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

    passage_bound = 2.0 / (delta * rho_min_ignorant * gamma_min**2)
    perturbation = stationary_perturbation_bound(result.structure, rounded.interaction)
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
        _bfs_diameter(rounded.interaction.matrix),
        passed,
    )
