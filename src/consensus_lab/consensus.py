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
from .interaction import InteractionStructure
from .model import BasicVariable, ModelSpec, _count, _vector, ex_ante_expectation
from .spectral import eigenvector_centrality

#: Tolerance on the prior stationarity residual of :func:`cps_check`.
#: Inputs are parsed decimals, so exact equality would be too brittle.
CPS_TOL = 1e-10

#: Tolerance of :func:`verify_cps_decomposition` on each gap it checks.
DECOMPOSITION_TOL = 1e-9


def first_order_vector(spec: ModelSpec, y=None, f=None) -> np.ndarray:
    """Resolve the per-signal first-order value vector.

    ``f`` supplies agent-specific values directly (one per signal) and
    takes precedence.  Otherwise the payoff :func:`state_payoffs` reads
    from ``y`` is pushed through the first-order map.
    """
    if f is not None:
        return _vector(f, len(spec.all_signals()), "f", "signal")
    return spec.first_order.matrix @ state_payoffs(spec, y)


def state_payoffs(spec: ModelSpec, y=None) -> np.ndarray:
    """The payoff ``y`` (a BasicVariable, an array over states, or None
    meaning the model's own ``spec.y``) as one float per state; refused
    when there is none, and unless it has one finite value per state."""
    if y is None:
        y = spec.y
    if y is None:
        raise PreconditionError("no payoff given: pass y or set spec.y")
    if isinstance(y, BasicVariable):
        y = y.values
    return _vector(y, spec.n_states, "y", "state")


def higher_order_expectations(spec: ModelSpec, n: int, y=None, f=None) -> np.ndarray:
    """Step-n average expectation vector over all signals (n >= 1)."""
    _count(n, 1, "n")
    x = first_order_vector(spec, y, f)
    rows = spec.structure.rows
    for _ in range(n - 1):
        x = rows.product(x)
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
    signal's long-run distribution over the terminal components, solved
    when first read.
    Centralities and pseudopriors are present only when defined
    (irreducible network, resp. irreducible interaction structure).
    """

    irreducible: bool
    value: float | None
    components: tuple[ComponentConsensus, ...]
    weights: np.ndarray | None
    centralities: np.ndarray | None
    pseudopriors: dict[str, np.ndarray] | None
    structure: InteractionStructure

    @property
    def absorption(self) -> np.ndarray | None:
        """The structure's absorption matrix, solved when first read; None
        when the structure is irreducible."""
        return None if self.irreducible else self.structure.absorption


def consensus_expectation(
    spec: ModelSpec,
    y=None,
    f=None,
) -> ConsensusResult:
    """Consensus expectation of a payoff on ``spec.structure``, one value
    per terminal component.

    Each terminal component's value is its stationary distribution applied
    to its first-order values: the consensus conditional on the public
    event it represents.  An irreducible structure is one terminal
    component, and it also gets pseudopriors (when the network has
    centralities); a reducible one gets absorption probabilities for its
    transient signals, solved only when read.
    """
    fvec = first_order_vector(spec, y, f)
    structure = spec.structure
    try:
        centralities = eigenvector_centrality(spec.network)
    except ReducibleError:
        centralities = None

    components = []
    weights = np.zeros(len(fvec))
    for comp, p_sub in zip(structure.terminal, structure.stationary):
        value = float(p_sub @ fvec[list(comp)])
        components.append(ComponentConsensus(structure.names(comp), p_sub, value))
        weights[list(comp)] = p_sub
    single, irreducible = len(components) == 1, structure.irreducible
    return ConsensusResult(
        irreducible,
        components[0].value if single else None,
        tuple(components),
        weights if single else None,
        centralities,
        pseudopriors(spec) if irreducible and centralities is not None else None,
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
    blocks = structure.index.blocks
    return {
        a: np.asarray(p[blocks[k]] / e[k])
        for k, a in enumerate(spec.agents)
    }


@dataclass(frozen=True)
class CpsCheck:
    holds: bool
    residual: float


def cps_check(spec: ModelSpec) -> CpsCheck:
    """Test the one property of a common prior over signals that the
    consensus decomposition uses: the ex ante weights are stationary under
    the interaction structure.

    ``p̂`` puts mass ``e_i μ_i(t)`` on each signal ``t`` of agent ``i``,
    where ``e`` is the network's eigenvector centrality and ``μ_i`` the
    agent's prior over his signals; ``residual`` is ``‖p̂B − p̂‖₁`` and the
    check holds when it is at most ``CPS_TOL``.  A common prior over signal
    profiles implies ``p̂B = p̂``, but not the reverse.  Models without a
    prior for every agent raise :class:`CapabilityError`, and a prior
    without one weight per signal is refused; a network without a unique
    centrality raises :class:`ReducibleError`.
    """
    if spec.priors is None:
        raise CapabilityError("cps_check needs per-agent priors over signals")
    for a in spec.agents:
        if a not in spec.priors:
            raise CapabilityError(f"cps_check needs a prior for every agent; {a} has none")
    # built first: the builder names a network weight it cannot use
    rows = spec.structure.rows
    e = eigenvector_centrality(spec.network)
    p = np.concatenate([e[k] * _vector(spec.priors[a], len(spec.signals[a]), f"prior for {a}",
                                       "signal", finite=False) for k, a in enumerate(spec.agents)])
    residual = float(np.abs(rows.product(p, left=True) - p).sum())
    return CpsCheck(residual <= CPS_TOL, residual)


@dataclass(frozen=True)
class CpsDecomposition:
    consensus: float
    weighted_prior_expectation: float
    gap: float
    prior_expectations: dict[str, float]
    common_expectation: float | None
    common_gap: float | None
    passed: bool


def verify_cps_decomposition(spec: ModelSpec, y=None) -> CpsDecomposition:
    """Check the separability of consensus under a common prior over signals.

    The consensus must equal the centrality-weighted average of agents'
    ex ante expectations within ``DECOMPOSITION_TOL``; when those
    expectations all agree within it, it must equal the common value.
    Raises unless :func:`cps_check` holds.
    """
    check = cps_check(spec)
    if not check.holds:
        raise PreconditionError(
            "the priors are not stationary under the interaction structure"
            f" (residual {check.residual:.3e})"
        )
    # each agent's first-order values, however y was given
    fvec = first_order_vector(spec, y)
    result = consensus_expectation(spec, f=fvec)
    if result.value is None:
        raise PreconditionError(
            "consensus is not unique (several terminal components)"
        )
    # cps_check refused a network without centralities
    e = result.centralities
    prior_exp = {
        a: ex_ante_expectation(spec, a, spec.priors[a], fvec[span])
        for a, span in zip(spec.agents, spec.first_order.index.blocks)
    }
    weighted = float(
        sum(e[k] * prior_exp[a] for k, a in enumerate(spec.agents))
    )
    gap = abs(result.value - weighted)
    values = np.array([prior_exp[a] for a in spec.agents])
    common = common_gap = None
    if np.max(values) - np.min(values) <= DECOMPOSITION_TOL:
        common = float(values.mean())
        common_gap = abs(result.value - common)
    passed = gap <= DECOMPOSITION_TOL and (common_gap is None or common_gap <= DECOMPOSITION_TOL)
    return CpsDecomposition(
        result.value, weighted, gap, prior_exp, common, common_gap, passed
    )
