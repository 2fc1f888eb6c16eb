"""Markov numerics for row-stochastic matrices.

Stationary distributions, eigenvector centralities, Abel limits of matrix
power series, raw power trajectories with cycle detection, and mean first
passage times.  Every entry point accepts an InteractionStructure, a
Network (analysed once and kept on it) or a square array, and analyses a
bare matrix once.  The stationary vector is the structure's cached one,
solved once per terminal class; the discounted solve is the structure's
walk along its condensation, one dense solve per component of two or more
signals; mean first passage times come from one inversion of the dense
Kemeny-Snell fundamental matrix, built from the stored rows.  A vector ``z``
holds one finite value per state and ``n_max`` is an integer of at least 0,
by the shared checks.  A bare matrix given to the stationary vector, the
centrality, the Abel limit or the passage times must be row-stochastic
(``interaction.as_chain``); ``power_trajectory`` iterates any finite square
array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ReducibleError
# STATIONARY_TOL, the stationary kernel's residual ceiling, is re-exported
from .interaction import (
    STATIONARY_TOL, InteractionStructure, as_chain, as_structure, joint_connectedness,
)
from .model import _count, _vector, check_beta

#: Fixed-point residual ceiling of the discounted solve, relative past unit scale.
RESIDUAL_TOL = 1e-10

#: Largest difference at which :func:`power_trajectory` takes two vectors as repeats.
CYCLE_TOL = 1e-9


@dataclass(frozen=True)
class StationaryDistribution:
    """Left fixed point of a row-stochastic matrix, with its residual."""

    vector: np.ndarray
    residual: float

    def __post_init__(self):
        self.vector.setflags(write=False)


@dataclass(frozen=True)
class MFPTMatrix:
    """Mean first passage times; the diagonal holds mean return times."""

    values: np.ndarray
    residual: float

    def __post_init__(self):
        self.values.setflags(write=False)

    def max_off_diagonal(self) -> float:
        """The largest passage time between distinct states (0 for one state)."""
        off_diagonal = ~np.eye(len(self.values), dtype=bool)
        return float(np.max(self.values, where=off_diagonal, initial=0.0))


@dataclass(frozen=True)
class PowerTrajectory:
    """Sequence Q^n z for n = 0..n_max with a detected limit cycle, if any."""

    vectors: np.ndarray
    cycle_length: int | None


def _require_irreducible(structure: InteractionStructure, what: str):
    ok, cert = joint_connectedness(structure)
    if not ok:
        raise ReducibleError(
            f"{what} needs an irreducible matrix; see absorbing_components"
            f" for the closed set {cert}",
            cert,
        )


def stationary_distribution(Q) -> StationaryDistribution:
    """Unique stationary distribution of an irreducible row-stochastic matrix.

    ``Q`` is an array, an InteractionStructure or a Network and must be
    irreducible; a reducible input raises :class:`ReducibleError`
    carrying a closed-set certificate.  The vector is the structure's
    cached ``stationary[0]`` (see ``interaction.stationary_vector``); a
    residual above ``STATIONARY_TOL``, or NaN, raises ``ArithmeticError``.
    """
    structure = as_chain(Q)
    _require_irreducible(structure, "stationary_distribution")
    p = structure.stationary[0]
    residual = float(np.abs(structure.rows.product(p, left=True) - p).sum())
    return StationaryDistribution(p, residual)


def eigenvector_centrality(network) -> np.ndarray:
    """Unique positive left fixed-point probability vector of the network."""
    structure = as_chain(network)
    _require_irreducible(structure, "eigenvector_centrality")
    return structure.stationary[0]


def discounted_solve(structure: InteractionStructure, own: np.ndarray, d: np.ndarray):
    """``s`` solving ``s = own + d * (B @ s)`` by the structure's walk along
    its condensation, ``d`` one discount per signal, and its fixed-point
    residual, gated relative to ``max(1, max|own|)`` since ``s`` scales
    with ``own`` (NaN fails)."""
    s = structure.solve(own, d)
    residual = float(np.max(np.abs(s - own - d * structure.rows.product(s))))
    if not residual <= RESIDUAL_TOL * max(1.0, float(np.max(np.abs(own)))):
        raise ArithmeticError(f"fixed-point residual {residual:.3e}")
    return s, residual


def abel_limit(Q, z, beta: float | None = None) -> np.ndarray:
    """Abel average of the sequence Q^n z.

    With ``beta`` in [0, 1) returns the discounted average
    ``(1 - beta) * sum_n beta^n Q^n z``, the solution of
    ``x = (1 - beta) z + beta Q x`` by the structure's walk along its
    condensation (the game's solve, so it has the bits of the coordination
    game's actions).  With ``beta=None`` returns the exact limit as the
    discount goes to one, the constant vector whose entries are the
    stationary distribution applied to ``z`` (requires irreducibility).
    """
    structure = as_chain(Q)
    n = len(structure.rows)
    z = _vector(z, n, "z", "state")
    if beta is None:
        _require_irreducible(structure, "abel_limit exact mode")
        return np.full(n, float(structure.stationary[0] @ z))
    d = np.full(n, check_beta(beta, f"beta must lie in [0, 1), got {beta}"))
    return discounted_solve(structure, (1.0 - d) * z, d)[0]


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def mfpt(Q) -> MFPTMatrix:
    """Mean first passage times between all ordered pairs of states.

    Entry (z, z') solves ``M(z, z') = 1 + sum_{w != z'} Q(z, w) M(w, z')``;
    the diagonal is the mean return time ``1 / p(z)``.  All entries come
    from the Kemeny-Snell fundamental matrix ``Z = (I - Q + 1 p)^{-1}`` as
    ``M(z, z') = (Z(z', z') - Z(z, z')) / p(z')``, one inversion in all.
    ``p`` is the structure's cached stationary vector, ``Q`` a transient
    dense copy of its stored rows, and ``M`` is formed in the inverse's own
    array.  The residual of the defining system is gated relative to the
    largest entry; a NaN residual fails the gate, which is what refuses a
    stationary mass that underflowed to 0, with no floating-point warning.
    """
    structure = as_chain(Q)
    _require_irreducible(structure, "mfpt")
    B = structure.rows.dense()
    p = structure.stationary[0]
    A = np.eye(len(B)) - B
    A += p
    M = np.linalg.inv(A)
    np.subtract(np.diag(M).copy(), M, out=M)
    M /= p
    np.fill_diagonal(M, 1.0 / p)
    # the first passage times, 0 on the diagonal, then M - (1 + B @ them)
    np.copyto(A, M)
    np.fill_diagonal(A, 0.0)
    A = B @ A
    A += 1.0
    residual = float(np.max(np.abs(np.subtract(M, A, out=A), out=A)))
    if not residual <= 1e-9 * max(1.0, float(M.max())):
        raise ArithmeticError(f"mean first passage residual {residual:.3e} too large")
    return MFPTMatrix(M, residual)


def power_trajectory(Q, z, n_max: int) -> PowerTrajectory:
    """Iterate x -> Q x and report a limit cycle when the tail repeats.

    The trajectory holds Q^n z for n = 0..n_max, an integer.  The detected
    cycle length is the smallest L whose tail vectors repeat within
    ``CYCLE_TOL``: 1 for an ergodic chain, and on a periodic chain the
    minimal repeat length of the value sequence, a divisor of the
    structural period (equal to it for generic z).  None means no
    repetition was seen within the horizon.
    """
    _count(n_max, 0, "n_max")
    rows = as_structure(Q).rows
    z = _vector(z, len(rows), "z", "state")
    traj = np.empty((n_max + 1, len(z)))
    traj[0] = z
    for n in range(1, n_max + 1):
        traj[n] = rows.product(traj[n - 1])
    cycle = None
    for L in range(1, n_max // 3 + 1):
        checks = range(n_max, max(n_max - 2 * L, L) - 1, -1)
        if all(np.max(np.abs(traj[k] - traj[k - L])) < CYCLE_TOL for k in checks):
            cycle = L
            break
    return PowerTrajectory(traj, cycle)
