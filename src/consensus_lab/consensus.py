"""Higher-order average expectations and their consensus limits.

The step-n vector of everyone's iterated average expectations is the
(n-1)-th power of the interaction structure applied to the first-order
vector.  Its Abel-averaged limit, the consensus expectation, is the
stationary distribution applied to first-order values; on a reducible
structure the limit is computed per terminal component, conditional on the
public event that component represents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, PreconditionError, ReducibleError
from .interaction import InteractionStructure, build_interaction_structure
from .model import BasicVariable, ModelSpec, ex_ante_expectation
from .spectral import eigenvector_centrality

#: Tolerance for the common-prior-over-signals check.  Inputs are parsed
#: decimals, so exact equality would be too brittle.
CPS_TOL = 1e-10


def first_order_vector(spec: ModelSpec, y=None, f=None) -> np.ndarray:
    """Resolve the per-signal first-order value vector.

    ``f`` supplies agent-specific values directly (one per signal) and
    takes precedence.  Otherwise ``y`` (a BasicVariable, an array over
    states, or None meaning the model's own variable) is pushed through
    the first-order map.
    """
    if f is not None:
        f = np.asarray(f, dtype=float)
        n = len(spec.all_signals())
        if f.shape != (n,):
            raise PreconditionError(
                f"f: expected one value per signal ({n}), got {f.shape}"
            )
        if not np.all(np.isfinite(f)):
            raise PreconditionError("f: every value must be finite")
        return f
    if y is None:
        y = spec.y
    if y is None:
        raise PreconditionError("no payoff given: pass y or f, or set spec.y")
    return spec.first_order.matrix @ state_payoffs(spec, y)


def state_payoffs(spec: ModelSpec, y) -> np.ndarray:
    """The payoff ``y`` (a BasicVariable or an array over states) as one
    float per state; refused unless it has one finite value per state."""
    if isinstance(y, BasicVariable):
        y = y.values
    y = np.asarray(y, dtype=float)
    if y.shape != (spec.n_states,):
        raise PreconditionError(
            f"y: expected one value per state ({spec.n_states}), got {y.shape}"
        )
    if not np.all(np.isfinite(y)):
        raise PreconditionError("y: every value must be finite")
    return y


def higher_order_expectations(spec: ModelSpec, n: int, y=None, f=None) -> np.ndarray:
    """Step-n average expectation vector over all signals (n >= 1)."""
    if n < 1:
        raise PreconditionError("order n must be at least 1")
    x = first_order_vector(spec, y, f)
    B = spec.structure.matrix
    for _ in range(n - 1):
        x = B @ x
    return x


@dataclass(frozen=True)
class ComponentConsensus:
    """Consensus data for one terminal component (one public event)."""

    signals: tuple[str, ...]
    weights: np.ndarray
    value: float


@dataclass(frozen=True)
class ConsensusResult:
    """Consensus expectation together with the weights that produce it.

    ``value`` is the consensus when it is unique (irreducible structure,
    or a single terminal component); with several terminal components it
    is None and ``components`` carries one value per public event.
    ``weights`` spans all signals, zero on transient ones.  For a
    reducible structure with transient signals, ``absorption`` gives each
    signal's long-run distribution over the terminal components.
    Centralities and pseudopriors are present only when defined
    (irreducible network, resp. irreducible interaction structure).
    """

    irreducible: bool
    value: float | None
    components: tuple[ComponentConsensus, ...]
    weights: np.ndarray | None
    centralities: np.ndarray | None
    pseudopriors: dict[str, np.ndarray] | None
    absorption: np.ndarray | None
    structure: InteractionStructure

    @property
    def component_values(self) -> dict[tuple[str, ...], float]:
        return {c.signals: c.value for c in self.components}


def consensus_expectation(
    spec: ModelSpec,
    y=None,
    f=None,
    type_dependent_weights=None,
) -> ConsensusResult:
    """Consensus expectation of a payoff, handling reducible structures.

    Irreducible: the unique value is the stationary distribution applied
    to first-order values, and agent-type weights, centralities and
    pseudopriors are all reported.  Reducible: one value per terminal
    component (the consensus conditional on that public event), plus
    absorption probabilities for transient signals.
    """
    fvec = first_order_vector(spec, y, f)
    structure = (spec.structure if type_dependent_weights is None
                 else build_interaction_structure(spec, type_dependent_weights))
    index = structure.index

    centralities = None
    if type_dependent_weights is None:
        try:
            centralities = eigenvector_centrality(spec.network)
        except ReducibleError:
            centralities = None

    if structure.irreducible:
        p = structure.stationary[0]
        value = float(p @ fvec)
        comp = ComponentConsensus(index.labels, p, value)
        lam = None if centralities is None else pseudopriors(spec)
        return ConsensusResult(
            True, value, (comp,), p, centralities, lam, None, structure
        )

    components = []
    weights = np.zeros(len(index))
    for comp, p_sub in zip(structure.terminal, structure.stationary):
        value = float(p_sub @ fvec[list(comp)])
        components.append(ComponentConsensus(structure.names(comp), p_sub, value))
        weights[list(comp)] = p_sub
    single = len(components) == 1
    return ConsensusResult(
        False,
        components[0].value if single else None,
        tuple(components),
        weights if single else None,
        centralities,
        None,
        structure.absorption,
        structure,
    )


def pseudopriors(spec: ModelSpec) -> dict[str, np.ndarray]:
    """Per-agent priors representing the consensus as a centrality-weighted sum.

    Each agent's stationary signal weights, normalized by his eigenvector
    centrality, form a probability vector; taking every agent's ex ante
    expectation under these and averaging with centrality weights
    reproduces the consensus for every payoff.
    """
    structure = spec.structure
    if not structure.irreducible:
        raise ReducibleError(
            "pseudopriors need an irreducible interaction structure",
            structure.names(structure.terminal[0]),
        )
    p = structure.stationary[0]
    e = eigenvector_centrality(spec.network)
    index = structure.index
    return {
        a: np.asarray(p[index.block(k)] / e[k])
        for k, a in enumerate(spec.agents)
    }


@dataclass(frozen=True)
class CpsCheck:
    holds: bool
    max_violation: float


def cps_check(spec: ModelSpec, tol: float = CPS_TOL) -> CpsCheck:
    """Test for a common prior over signals.

    Every agent's prior over his own signals, combined with his joint
    interim beliefs about the others, must induce the same distribution
    over full signal profiles.  Needs full-mode beliefs and priors;
    marginal-only models raise :class:`CapabilityError`.
    """
    if spec.priors is None:
        raise CapabilityError("cps_check needs per-agent priors over signals")
    for a in spec.agents:
        if a not in spec.priors:
            raise CapabilityError(f"cps_check needs a prior for every agent; {a} has none")
    # refuse before allocating: the profile tensor has one axis per agent
    for t in spec.all_signals():
        if spec.beliefs[t].full is None:
            raise CapabilityError(
                f"cps_check needs full joint beliefs; signal {t} carries"
                " only marginals"
            )
    sizes = [len(spec.signals[a]) for a in spec.agents]
    joints = []
    for i, a in enumerate(spec.agents):
        P = np.zeros(sizes)
        for ti, t in enumerate(spec.signals[a]):
            others_joint = spec.beliefs[t].full.sum(axis=0)
            sl = [slice(None)] * len(sizes)
            sl[i] = ti
            P[tuple(sl)] = spec.priors[a][ti] * others_joint
        joints.append(P)
    violation = 0.0
    for i in range(1, len(joints)):
        violation = max(violation, float(np.max(np.abs(joints[i] - joints[0]))))
    return CpsCheck(violation <= tol, violation)


@dataclass(frozen=True)
class CpsDecomposition:
    consensus: float
    weighted_prior_expectation: float
    gap: float
    prior_expectations: dict[str, float]
    common_expectation: float | None
    common_gap: float | None
    passed: bool


def verify_cps_decomposition(
    spec: ModelSpec, y=None, tol: float = 1e-9
) -> CpsDecomposition:
    """Check the separability of consensus under a common prior over signals.

    The consensus must equal the centrality-weighted average of agents'
    ex ante expectations; when those expectations all agree, it must
    equal the common value.  Raises when the model has no common prior
    over signals.
    """
    check = cps_check(spec)
    if not check.holds:
        raise PreconditionError(
            f"no common prior over signals (max violation {check.max_violation:.3e})"
        )
    if y is None:
        y = spec.y
    result = consensus_expectation(spec, y)
    if result.value is None:
        raise PreconditionError(
            "consensus is not unique (several terminal components)"
        )
    e = result.centralities
    if e is None:
        raise PreconditionError(
            "the decomposition needs an irreducible network for centralities"
        )
    prior_exp = {
        a: ex_ante_expectation(spec, a, spec.priors[a], y) for a in spec.agents
    }
    weighted = float(
        sum(e[k] * prior_exp[a] for k, a in enumerate(spec.agents))
    )
    gap = abs(result.value - weighted)
    values = np.array([prior_exp[a] for a in spec.agents])
    common = common_gap = None
    if np.max(values) - np.min(values) <= tol:
        common = float(values.mean())
        common_gap = abs(result.value - common)
    passed = gap <= tol and (common_gap is None or common_gap <= tol)
    return CpsDecomposition(
        result.value, weighted, gap, prior_exp, common, common_gap, passed
    )
