"""Contagion of second-order optimism.

When every type that is not yet very optimistic expects its average
counterparty to be strictly more optimistic (drift at least delta), and the
very optimistic types expect at most a small shortfall epsilon, the
stationary mass on optimistic types is at least ``1 / (1 + eps/delta)`` and
the consensus is at least the threshold scaled by the same factor.  The
two-agent ladder chain built here attains that bound exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .consensus import consensus_expectation, first_order_vector
from .errors import PreconditionError
from .interaction import as_chain
from .model import (
    BasicVariable, InterimBelief, ModelSpec, Network, _count, _indices, _real, _vector,
)


@dataclass(frozen=True)
class OptimismReport:
    """Measured drift/shortfall at a threshold, the implied consensus bound,
    and the realized consensus."""

    threshold: float
    drift: float
    shortfall: float
    hypotheses_hold: bool
    bound: float
    consensus: float
    component_values: tuple[float, ...]
    first_order: np.ndarray
    second_order: np.ndarray


def optimism_hypotheses(spec: ModelSpec, threshold: float, y=None, f=None) -> OptimismReport:
    """Evaluate the mild-optimism conditions at a threshold.

    Drift is the smallest second-minus-first-order gap among types whose
    first-order expectation is strictly below the threshold (infinite
    when there are none, in which case the bound is the threshold
    itself).  Shortfall is the largest first-minus-second-order gap among
    types at or above the threshold, floored at zero.  The hypotheses
    hold when the drift is positive; the consensus (computed per
    terminal component when the structure is reducible; the minimum over
    components is reported) is then at least
    ``threshold / (1 + shortfall/drift)``.  The threshold must be finite.
    """
    threshold = _real(threshold, "threshold", scalar=True)
    if not np.isfinite(threshold):
        raise PreconditionError(f"threshold must be finite, got {threshold}")
    x1 = first_order_vector(spec, y, f)
    x2 = spec.structure.rows.product(x1)
    below = x1 < threshold
    drift = float(np.min((x2 - x1)[below])) if below.any() else float("inf")
    above = ~below
    shortfall = max(0.0, float(np.max((x1 - x2)[above]))) if above.any() else 0.0
    hold = drift > 0.0
    if np.isinf(drift):
        bound = threshold
    else:
        bound = threshold / (1.0 + shortfall / drift) if drift > 0 else float("nan")
    result = consensus_expectation(spec, y, f)
    values = tuple(c.value for c in result.components)
    return OptimismReport(
        threshold,
        drift,
        shortfall,
        hold,
        bound,
        min(values),
        values,
        x1,
        x2,
    )


@dataclass(frozen=True)
class MarkovOptimismResult:
    hypotheses_ok: bool
    violations: tuple[str, ...]
    distribution: np.ndarray
    mass_above: float
    bound: float
    satisfied: bool


def markov_optimism_check(
    Q, f, threshold: float, delta: float, eps: float, start: int = 0
) -> MarkovOptimismResult:
    """Check the drift/shortfall conditions for a chain and a score function,
    then verify the stationary-mass inequality.

    The long-run distribution reached from ``start`` is the
    absorption-weighted mixture of the stationary distributions of the
    terminal components reachable from it.  When the hypotheses hold,
    its mass on states scoring at least the threshold must be at least
    ``1 / (1 + eps/delta)``.  All inputs must be finite, and a bare ``Q``
    row-stochastic.
    """
    threshold, delta, eps = (_real(x, what, scalar=True) for x, what in
                             ((threshold, "threshold"), (delta, "delta"), (eps, "eps")))
    if not np.isfinite(threshold):
        raise PreconditionError(f"threshold must be finite, got {threshold}")
    if not (0 < delta < np.inf and 0 < eps < np.inf):
        raise PreconditionError("delta and eps must be positive and finite")
    structure = as_chain(Q)
    n = len(structure.rows)
    _indices((start,), n, "start: state")
    f = _vector(f, n, "f", "state")
    drift = structure.rows.product(f) - f
    violations = []
    for s in range(len(f)):
        if f[s] < threshold and drift[s] < delta - 1e-12:
            violations.append(
                f"state {s}: expected one-step gain {drift[s]:.6g} is below"
                f" the required drift {delta}"
            )
        if f[s] >= threshold and drift[s] < -eps - 1e-12:
            violations.append(
                f"state {s}: expected one-step loss {-drift[s]:.6g} exceeds"
                f" the allowed shortfall {eps}"
            )
    # occupancy limit from the start state: absorption-weighted mixture of
    # the terminal components' stationary vectors
    mix = np.zeros(len(f))
    for comp, p_sub, weight in zip(
        structure.terminal, structure.stationary, structure.absorption[start]
    ):
        mix[list(comp)] += weight * p_sub
    mass = float(mix[f >= threshold].sum())
    bound = 1.0 / (1.0 + eps / delta)
    ok = not violations
    return MarkovOptimismResult(
        ok, tuple(violations), mix, mass, bound, mass >= bound - 1e-12
    )


def tightness_chain(
    m: int, delta: float, eps: float, perturbation: float = 0.0
) -> ModelSpec:
    """Two-agent ladder attaining the optimism bound with equality.

    Each agent has levels 0..m; level k scores k.  Below the top, a step
    moves to the counterparty one level up with probability delta and
    stays at the same level otherwise; at the top it slips one level
    with probability eps and stays otherwise.  The stationary mass on
    the top level is exactly ``1 / (1 + eps/delta)``.

    A positive ``perturbation`` mixes in a uniform belief over the
    counterparty's levels, making the structure irreducible while moving
    the top-level mass only continuously.
    """
    _count(m, 1, "m")
    delta, eps, perturbation = (_real(x, what, scalar=True) for x, what in
                                ((delta, "delta"), (eps, "eps"), (perturbation, "perturbation")))
    if not (0.0 < delta < 1.0 and 0.0 < eps < 1.0):
        raise PreconditionError("delta and eps must lie in (0, 1)")
    if not 0.0 <= perturbation < 1.0:
        raise PreconditionError("perturbation must lie in [0, 1)")
    states = tuple(f"level{k}" for k in range(m + 1))
    agents = ("one", "two")
    signals = {a: tuple(f"{a}{k}" for k in range(m + 1)) for a in agents}
    y = BasicVariable(np.arange(m + 1, dtype=float), float(m))
    beliefs = {}
    uniform = np.full(m + 1, 1.0 / (m + 1))
    for a, other in (("one", "two"), ("two", "one")):
        for k in range(m + 1):
            state_marginal = np.zeros(m + 1)
            state_marginal[k] = 1.0
            row = np.zeros(m + 1)
            if k < m:
                row[k + 1] = delta
                row[k] = 1.0 - delta
            else:
                row[m - 1] = eps
                row[m] = 1.0 - eps
            if perturbation:
                row = (1.0 - perturbation) * row + perturbation * uniform
            beliefs[f"{a}{k}"] = InterimBelief(state_marginal, {other: row})
    network = Network(np.array([[0.0, 1.0], [1.0, 0.0]]))
    return ModelSpec(states, agents, signals, beliefs, network, y=y)
