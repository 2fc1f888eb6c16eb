"""The linear best-response coordination game on the interaction structure.

Each signal's action best-responds to a convex mix of the own first-order
expectation (weight ``1 - beta``) and the network-and-belief weighted average
of counterparties' actions (weight ``beta``).  For ``beta < 1`` the best
response is a contraction, so the game has a unique rationalizable profile,
obtained here by one direct solve along the structure's condensation.
Iterated dominance bounds and the reduction of heterogeneous coordination
weights to a common weight on a modified network are also provided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .consensus import ConsensusResult, consensus_expectation, first_order_vector
from .errors import PreconditionError
from .model import ModelSpec, Network, _count, _real, _vector, check_beta
from .spectral import discounted_solve


@dataclass(frozen=True)
class GameSolution:
    """Equilibrium action per signal for one coordination weight."""

    beta: float
    actions: np.ndarray
    residual: float
    labels: tuple[str, ...]

    def __post_init__(self):
        self.actions.setflags(write=False)


def _payoff_bound(spec: ModelSpec, f) -> float:
    if spec.y is not None:
        return spec.y.bound
    if f is not None:
        return float(np.max(np.abs(f)))
    raise PreconditionError("no action bound available: set spec.y or pass f")


def solve_beta_game(spec: ModelSpec, beta: float, y=None, f=None) -> GameSolution:
    """Unique rationalizable action profile of the coordination game.

    Solves ``s = (1 - beta) x1 + beta B s`` directly, where x1 is the
    first-order value vector and B the interaction structure.  Requires
    ``0 <= beta < 1``; at the boundary the convention is the consensus
    expectation (see :func:`convention_limit`).
    """
    beta = check_beta(beta, f"beta must lie in [0, 1); for the beta -> 1 limit use"
                            f" convention_limit (got {beta})")
    return _solve(spec, np.full(spec.n_agents, beta), y, f, beta)


def _solve(spec: ModelSpec, agent_beta, y, f, beta) -> GameSolution:
    """Solve ``s = (1 - d) x1 + d B s``, ``d`` the per-signal owners'
    weights from ``agent_beta``, by the gated discounted solve; the
    solution reports ``beta``."""
    fvec = first_order_vector(spec, y, f)
    structure = spec.structure
    d = agent_beta[structure.index.agent_of]
    s, residual = discounted_solve(structure, (1.0 - d) * fvec, d)
    return GameSolution(beta, s, residual, structure.index.labels)


def best_response_iterates(
    spec: ModelSpec, beta: float, y=None, f=None, rounds: int = 50, start=None
) -> list[np.ndarray]:
    """Successive best responses from a flat start; the contraction oracle.

    Returns ``rounds + 1`` vectors beginning with the start profile (one
    finite value per signal); ``rounds`` is an integer of at least 0.  The
    sup-norm distance to the fixed point shrinks by at least a factor
    ``beta`` each round.
    """
    beta = check_beta(beta, f"beta must lie in [0, 1), got {beta}")
    _count(rounds, 0, "rounds")
    fvec = first_order_vector(spec, y, f)
    rows = spec.structure.rows
    s = np.zeros_like(fvec) if start is None else _vector(start, len(fvec), "start", "signal")
    out = [s]
    for _ in range(rounds):
        s = (1.0 - beta) * fvec + beta * rows.product(s)
        out.append(s)
    return out


def rationalizable_bounds(
    spec: ModelSpec, beta: float, k_max: int, y=None, f=None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-round interval bounds from iterated deletion of dominated actions.

    Round k keeps exactly the actions between the k-th best response from
    the zero profile, ``(1 - beta) sum_{n <= k} beta^(n-1) x(n)`` (see
    :func:`best_response_iterates`), and that plus ``beta^k M``, an
    interval whose width shrinks by a factor beta per round, pinching onto
    the unique solution.  ``k_max`` is an integer of at least 0.
    """
    _count(k_max, 0, "k_max")
    iterates = best_response_iterates(spec, beta, y, f, rounds=k_max)
    M = _payoff_bound(spec, f)
    return [(iterates[k], iterates[k] + beta**k * M) for k in range(1, k_max + 1)]


def heterogeneous_transform(network: Network, beta_vec) -> tuple[Network, float]:
    """Fold per-agent coordination weights into self-weights on the network.

    Given weights ``beta_vec`` (all in [0, 1)) and a zero-diagonal
    network, returns the modified network and common weight whose game
    has identical play: the common weight is the largest of the
    ``beta_vec`` and each agent's slack becomes a self-weight.
    """
    beta_vec = check_beta(beta_vec, "every per-agent weight must lie in [0, 1); the order"
                                    " of limits matters when some weight reaches 1", network.n)
    g = network.weights
    if np.any(np.diag(g) != 0):
        raise PreconditionError(
            "heterogeneous_transform expects a zero-diagonal network"
        )
    beta_hat = float(beta_vec.max())
    n = network.n
    if beta_hat == 0.0:
        return Network(g, network.diagonal_allowed), 0.0
    self_w = (beta_hat - beta_vec) / (beta_hat * (1.0 - beta_vec))
    out = g * (1.0 - self_w)[:, None]
    out[np.arange(n), np.arange(n)] = self_w
    return Network(out, diagonal_allowed=True), beta_hat


def solve_heterogeneous_game(
    spec: ModelSpec, beta_vec, y=None, f=None
) -> GameSolution:
    """Directly solve the game where each agent has his own coordination weight.

    Solves ``s = (I - D) x1 + D B s`` with D the per-signal diagonal of
    the owners' weights.  Serves as the independent cross-check of
    :func:`heterogeneous_transform`.
    """
    beta_vec = check_beta(beta_vec, "every per-agent weight must lie in [0, 1)", spec.n_agents)
    return _solve(spec, beta_vec, y, f, float("nan"))


@dataclass(frozen=True)
class ConventionReport:
    """Consensus limit plus the measured approach rate of finite-beta play."""

    consensus: ConsensusResult
    betas: tuple[float, ...]
    gaps: tuple[float, ...]
    rate_constant: float | None


def convention_limit(
    spec: ModelSpec, y=None, f=None, betas=(0.9, 0.99, 0.999)
) -> ConventionReport:
    """The common action in the high-coordination limit: the consensus.

    Also reports how fast the finite-beta solution approaches it, as the
    fitted constant C in ``max |s(beta) - c| <= C (1 - beta)``.  ``betas``
    is a non-empty list of weights in [0, 1).
    """
    betas = _real(betas, "betas")
    if betas.ndim != 1 or not betas.size:
        raise PreconditionError("betas: expected at least one coordination weight")
    check_beta(betas, f"betas: every weight must lie in [0, 1), got {betas.tolist()}", len(betas))
    result = consensus_expectation(spec, y, f)
    gaps = []
    rate = None
    if result.value is not None:
        for b in betas:
            s = solve_beta_game(spec, b, y, f)
            gaps.append(float(np.max(np.abs(s.actions - result.value))))
        rate = max(g / (1.0 - b) for g, b in zip(gaps, betas))
    return ConventionReport(result, tuple(betas.tolist()), tuple(gaps), rate)
