"""No-trade characterization of connectivity.

A separable trade is a per-signal payment profile where every type expects
to receive at least what he pays, strictly for someone.  On an irreducible
interaction structure no such trade exists: weighting the inequalities by
the positive stationary distribution forces them all to bind.

The full characterization is that a trade exists if and only if some
signal is transient (lies outside every absorbing component).  When no
signal is transient, every signal lies in a closed class; weighting the
inequalities by each class's positive stationary vector forces them to
bind on that class, so a reducible structure made only of closed classes
has no trade either.  When some signal is transient, the payment
``x = -t / max t``, with ``t`` the expected absorption time, gains exactly
``1 / max t`` on every transient signal and nothing elsewhere.  The test
reads the transient signals and ``t`` off the structure, which solves for
``t`` once and keeps it, and checks the witness against its inequalities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interaction import as_structure

#: Smallest gain a witness must offer some signal.
STRICTNESS_TOL = 1e-9


@dataclass(frozen=True)
class TradeResult:
    """Outcome of the trade search.

    ``trade`` is a payment profile with sup-norm one satisfying the gain
    inequalities with margin at least the strictness tolerance, or None
    when no signal is transient and so no strict profile exists.
    ``objective`` is the witness's summed surplus ``sum_s (Bx - x)(s)``,
    0 when there is no trade.
    """

    trade: np.ndarray | None
    reducible: bool
    objective: float
    labels: tuple | None = None

    @property
    def has_trade(self) -> bool:
        return self.trade is not None


def no_trade_test(B) -> TradeResult:
    """Search for a separable trade with strict expected bilateral gains.

    A trade exists exactly when some signal is transient.  The witness
    is ``x = -t / max t`` with ``t = (I - B_TT)^{-1} 1`` the expected
    absorption time from each transient signal (``structure.absorption_time``,
    refused when not finite): it gains ``1 / max t`` on every transient
    signal and nothing on the terminal ones.
    """
    structure = as_structure(B)
    reducible = not structure.irreducible
    transient = list(structure.transient)
    if not transient:
        return TradeResult(None, reducible, 0.0, structure.labels)
    t = structure.absorption_time
    x = np.zeros(len(structure.rows))
    x[transient] = -t / t.max()
    gains = structure.rows.product(x) - x
    if not (gains.min() >= -1e-12 and gains.max() >= STRICTNESS_TOL):
        raise ArithmeticError("trade witness failed its defining inequalities")
    return TradeResult(x, reducible, float(gains.sum()), structure.labels)
