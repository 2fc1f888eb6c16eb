"""Over-the-counter market simulator.

One asset passes between classes of traders.  Each period the game ends
with probability ``1 - beta`` and the holder consumes the payoff; otherwise
the next buyer class is drawn from the owner's row of the network and the
sale executes at the equilibrium price schedule of the coordination game,
evaluated at the buyer's realized signal.  Prices are not rediscovered in
the simulation; the point of the exercise is that the realized transaction
prices track the schedule and, as trade becomes frequent, the consensus.

Randomness flows through numpy's PCG64 generator with explicit seeding.  A
batch of runs seeds run k with ``SeedSequence(seed).spawn(n)[k]``; a single
run with integer seed s uses ``SeedSequence(s)`` directly.  Each run reads
one stream of uniforms from its own generator: the first is the nature
draw (nature mode only), the next the initial owner (only when the owner
is given as a distribution, such as ``"centrality"``), and after that the
uniforms alternate, continuation then buyer, so the continuation uniforms
sit at ``off, off + 2, ...``.  ``rng.random(a)`` followed by
``rng.random(b)`` gives the same doubles as ``rng.random(a + b)``, so
uniforms are drawn in numpy blocks of any size without changing a run.

A generating distribution is a :class:`NatureDraw` of factors: state
weights and one state-indexed table of signal weights per agent, so it
takes ``O(n_states * sum |signals|)`` memory, never the dense
``n_states x prod |signals|`` joint.  The nature uniform is decoded level
by level: it picks the state from running sums of each state's weight
times its rows' totals, and where it fell inside that state's cell,
rescaled to [0, 1), picks the first agent's signal from its row, and so
on.  That is the cell a search over the dense joint's running sums picks,
except within rounding of a cell boundary.

One kernel serves :func:`simulate_market`, :func:`simulate_batch` and the
CLI.  Once per call it validates the draw and the initial owner and hoists
what every run shares: the state and per-row signal running sums, the
initial-owner running sums (the centrality is computed once), the
network's per-row running sums and the price schedule.  Per run it
decodes the nature uniform with one search per level, finds the duration
with one vectorized scan of the continuation uniforms and the buyers from
an ``n_agents x trades`` table of ``searchsorted(..., side="right")``
lookups, chained from the initial owner.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .consensus import state_payoffs
from .errors import PreconditionError
from .game import GameSolution, solve_beta_game
from .model import ModelSpec, check_beta
from .spectral import eigenvector_centrality

@dataclass(frozen=True)
class TradeEvent:
    period: int
    seller: str
    buyer: str
    price: float
    buyer_signal: str


@dataclass(frozen=True)
class MarketRun:
    """A single completed run: realized draw, holder path, and every trade.

    ``seed`` records the entropy and spawn key of the run's generator, so
    the run can be reproduced exactly.
    """

    beta: float
    seed: tuple
    state: str
    signal_profile: tuple[str, ...]
    holders: tuple[str, ...]
    events: tuple[TradeEvent, ...]
    terminal_payoff: float

    @property
    def duration(self) -> int:
        """Periods until consumption; one more than the number of trades."""
        return len(self.holders)


@dataclass(frozen=True, eq=False)
class NatureDraw:
    """State and signal profile drawn from a generating distribution, kept
    as factors.

    ``state`` weighs the states; ``tables`` holds one ``n_states x
    |signals|`` table per agent, in declaration order, whose row for a
    state weighs the agent's signals in that state.  A cell's weight is
    its state's weight times its signal's entry in every agent's row.  A
    dense joint given as ``state``, with no tables, is one factor over
    all cells: one axis for the states and one per agent.  Weights need
    not be normalized.
    """

    state: np.ndarray
    tables: tuple[np.ndarray, ...] = ()

    @property
    def joint(self) -> np.ndarray:
        """The dense ``n_states x |signals_1| x ...`` product, built on
        every read."""
        joint = np.asarray(self.state, dtype=float)
        for table in self.tables:
            # axis 0 stays the state; each table row is indexed by it
            joint = joint[..., None] * np.expand_dims(table, tuple(range(1, joint.ndim)))
        return joint


@dataclass(frozen=True)
class FixedDraw:
    """State and signal profile fixed by the caller."""

    state: str
    profile: tuple[str, ...]


def product_generating(spec: ModelSpec) -> NatureDraw:
    """Canonical generating distribution for a general model.

    Signals are independent across agents with each agent's
    influence-representing pseudoprior as the marginal; the state is
    independent of the signals, drawn from the first agent's
    prior-implied state distribution (uniform over states when the model
    carries no priors).  Under this distribution and a
    centrality-distributed initial owner, every transaction price has
    expectation exactly equal to the consensus, at every beta.  Each
    agent's table repeats its pseudoprior in every state's row, as a
    read-only broadcast view.
    """
    from .consensus import pseudopriors

    lam = pseudopriors(spec)
    if spec.priors is not None and spec.agents[0] in spec.priors:
        a0 = spec.agents[0]
        mu = spec.priors[a0]
        theta = np.zeros(spec.n_states)
        for k, t in enumerate(spec.signals[a0]):
            theta += mu[k] * spec.beliefs[t].state_marginal
    else:
        theta = np.full(spec.n_states, 1.0 / spec.n_states)
    return NatureDraw(theta, tuple(
        np.broadcast_to(lam[a], (spec.n_states, len(lam[a]))) for a in spec.agents
    ))


def cis_generating(cis, prior_agent: str | None = None) -> NatureDraw:
    """Generating distribution of a common-interpretation model.

    The state is drawn from the named agent's prior (default: the first
    agent's), then signals independently from the shared technologies.
    The prior and the technologies are the draw's factors, not copies.
    """
    if prior_agent is None:
        prior_agent = cis.agents[0]
    if prior_agent not in cis.rho:
        raise PreconditionError(
            f"generating distribution: no prior for agent {prior_agent!r}"
        )
    return NatureDraw(cis.rho[prior_agent], tuple(cis.eta[a] for a in cis.agents))


#: Largest first block of uniforms drawn for a run; a run that needs more
#: doubles its block.  Block sizes never change the stream.
_BLOCK = 4096


def _refused(what: str) -> PreconditionError:
    return PreconditionError(
        f"{what}: weights must be finite and non-negative with a positive total"
    )


def _cumulative(weights, what: str) -> np.ndarray:
    """Running sums of a weight array, refused unless every weight is finite
    and non-negative and the total is positive."""
    w = np.asarray(weights, dtype=float).reshape(-1)
    cum = np.cumsum(w)
    if not (w.size and w.min() >= 0.0 and 0.0 < cum[-1] < np.inf):
        raise _refused(what)
    return cum


#: Largest double below one: a rescaled uniform stays inside its cell.
_BELOW_ONE = float(np.nextafter(1.0, 0.0))


def _pick(cum, u) -> int:
    """Index drawn by the uniform ``u`` from running sums ``cum`` (an array
    or a list): the first whose sum exceeds ``u`` times the total, as
    ``searchsorted(..., side="right")`` finds it, clamped to the last."""
    return min(bisect_right(cum, u * cum[-1]), len(cum) - 1)


class _Kernel:
    """Everything one simulation call shares across its runs, validated once.

    :meth:`run` simulates one run from its own generator in the stream
    layout of :func:`simulate_market`; :meth:`batch` reduces runs to class
    counts as they finish, so no path outlives its run.
    """

    def __init__(self, spec: ModelSpec, beta: float, draw, y=None,
                 prices: GameSolution | None = None, initial_owner=0,
                 allow_own_market: bool = False):
        check_beta(beta, f"beta must lie in [0, 1), got {beta}")
        if prices is None:
            prices = solve_beta_game(spec, beta, y)
        g = spec.network.weights
        if not allow_own_market and np.any(np.diag(g) > 0):
            raise PreconditionError(
                "owner's class has positive self-weight; pass allow_own_market=True"
                " to let the asset be resold into the owner's own market"
            )
        index = spec.first_order.index
        yvec = spec.y if y is None else y
        if yvec is None:
            raise PreconditionError("no payoff given: pass y or set spec.y")
        self.beta = beta
        self.agents = spec.agents
        self.labels = index.labels
        self.actions = np.asarray(prices.actions, dtype=float)
        self.starts = np.array([b.start for b in index.blocks], dtype=np.intp)
        self.yvals = state_payoffs(spec, yvec)
        self.network_cdf = np.cumsum(g, axis=1)
        # about two expected runs' worth of uniforms, two per period
        self.block = int(min(_BLOCK, max(64.0, 4.0 / (1.0 - beta))))
        self._resolve_draw(spec, draw)
        self._resolve_owner(spec, initial_owner)

    def _resolve_draw(self, spec, draw):
        self.nature_cdf = None
        if isinstance(draw, FixedDraw):
            if draw.state not in spec.states:
                raise PreconditionError(f"fixed draw: unknown state {draw.state!r}")
            if len(draw.profile) != spec.n_agents:
                raise PreconditionError(
                    f"fixed draw: profile needs one signal per agent"
                    f" ({spec.n_agents}), got {len(draw.profile)}"
                )
            for k, a in enumerate(spec.agents):
                if draw.profile[k] not in spec.signals[a]:
                    raise PreconditionError(
                        f"fixed draw: {draw.profile[k]!r} is not a signal of {a}"
                    )
            self.fixed = (
                spec.states.index(draw.state),
                tuple(spec.signals[a].index(draw.profile[k])
                      for k, a in enumerate(spec.agents)),
            )
        elif isinstance(draw, NatureDraw):
            sizes = tuple(len(spec.signals[a]) for a in spec.agents)
            factors = [np.asarray(f, dtype=float) for f in (draw.state, *draw.tables)]
            if draw.tables:
                shapes = [(spec.n_states,)] + [(spec.n_states, m) for m in sizes]
            else:
                shapes = [(spec.n_states,) + sizes]
            got = [f.shape for f in factors]
            if got != shapes:
                raise PreconditionError(
                    "generating distribution: expected shape"
                    f" {', '.join(map(str, shapes))}, got {', '.join(map(str, got))}"
                )
            # NaN fails both comparisons; a factor without entries has no cells
            if not all(f.size and f.min() >= 0.0 and f.max() < np.inf for f in factors):
                raise _refused("generating distribution")
            # a state's weight carries its rows' totals, so a state with an
            # all-zero row is never drawn
            row_cdfs = [np.cumsum(t, axis=1) for t in factors[1:]]
            weights = factors[0].reshape(-1)
            for cdfs in row_cdfs:
                weights = weights * cdfs[:, -1]
            self.nature_cdf = _cumulative(weights, "generating distribution")
            self.nature_shape = factors[0].shape
            # each run searches a few short lists of Python floats; only a
            # dense joint's running sums stay an array
            self.row_cdfs = [cdfs.tolist() for cdfs in row_cdfs]
            if row_cdfs:
                self.nature_cdf = self.nature_cdf.tolist()
        else:
            raise PreconditionError(
                "draw must be a NatureDraw (generating distribution) or a FixedDraw"
            )

    def _resolve_owner(self, spec, initial_owner):
        self.owner_cdf = None
        if isinstance(initial_owner, str) and initial_owner != "centrality":
            if initial_owner not in spec.agents:
                raise PreconditionError(f"initial owner: unknown agent {initial_owner!r}")
            self.owner = spec.agents.index(initial_owner)
        elif isinstance(initial_owner, (int, np.integer)):
            if not 0 <= initial_owner < spec.n_agents:
                raise PreconditionError(
                    f"initial owner: agent index {initial_owner} is outside"
                    f" 0..{spec.n_agents - 1}"
                )
            self.owner = int(initial_owner)
        else:
            if isinstance(initial_owner, str):
                dist = eigenvector_centrality(spec.network)
            else:
                dist = np.asarray(initial_owner, dtype=float)
            if dist.shape != (spec.n_agents,):
                raise PreconditionError("initial owner distribution: wrong length")
            self.owner_cdf = _cumulative(dist, "initial owner distribution")

    def signals(self, profile) -> np.ndarray:
        """Signal index of each class's realized signal."""
        return self.starts + np.asarray(profile, dtype=np.intp)

    def decode(self, u: float) -> tuple[int, tuple[int, ...]]:
        """State and signal profile (positions within each agent's signals)
        drawn by the nature uniform ``u``.

        ``u`` picks a cell of the first factor: a state, or a cell of a
        dense joint.  Where it fell inside that cell, rescaled to [0, 1),
        picks the signal in the first agent's row for the state, and so on
        through the agents.
        """
        cum = self.nature_cdf
        cell = _pick(cum, u)
        if not self.row_cdfs:
            # a dense joint: the cell is the state and the whole profile
            theta, *profile = map(int, np.unravel_index(cell, self.nature_shape))
            return theta, tuple(profile)
        theta, profile = cell, []
        for cdfs in self.row_cdfs:
            lo = cum[cell - 1] if cell else 0.0
            u = min((u * cum[-1] - lo) / (cum[cell] - lo), _BELOW_ONE)
            cum = cdfs[theta]
            cell = _pick(cum, u)
            profile.append(cell)
        return theta, tuple(profile)

    def run(self, seed) -> tuple[int, tuple[int, ...], list[int]]:
        """State, signal profile (positions within each agent's signals) and
        holder path of one run; the path starts with the initial owner."""
        rng = np.random.default_rng(seed)
        u = rng.random(self.block)
        off = 0
        if self.nature_cdf is None:
            theta, profile = self.fixed
        else:
            theta, profile = self.decode(float(u[0]))
            off = 1
        if self.owner_cdf is None:
            owner = self.owner
        else:
            owner = _pick(self.owner_cdf, u[off])
            off += 1
        # continuation uniforms sit at off, off + 2, ...; the first below
        # 1 - beta ends the run, and each one before it is followed by a buyer's
        stop = u[off::2] < 1.0 - self.beta
        trades = int(stop.argmax())
        while not stop[trades]:
            u = np.concatenate((u, rng.random(u.size)))
            stop = u[off::2] < 1.0 - self.beta
            trades = int(stop.argmax())
        bids = u[off + 1:off + 2 * trades:2]
        # buyer of trade t from each possible seller, then the chain through it
        table = np.minimum(
            [cdf.searchsorted(bids, side="right") for cdf in self.network_cdf],
            len(self.agents) - 1,
        ).tolist()
        o = owner
        return theta, profile, [owner] + [o := table[o][t] for t in range(trades)]

    def batch(self, seeds, each=None) -> MarketBatch:
        """Run every seed in order, reducing each run to its class counts;
        ``each(k, profile, holders)``, if given, sees run k's path first."""
        n_runs, n = len(seeds), len(self.agents)
        durations = np.empty(n_runs, dtype=np.int64)
        counts = np.empty((n_runs, n), dtype=np.int64)
        class_prices = np.empty((n_runs, n))
        payoffs = np.empty(n_runs)
        for k, seed in enumerate(seeds):
            theta, profile, holders = self.run(seed)
            if each is not None:
                each(k, profile, holders)
            durations[k] = len(holders)
            path = np.fromiter(holders, dtype=np.intp, count=len(holders))
            counts[k] = np.bincount(path[1:], minlength=n)
            class_prices[k] = self.actions[self.signals(profile)]
            payoffs[k] = self.yvals[theta]
        return MarketBatch(self.beta, durations, counts, class_prices, payoffs,
                           self.agents)


def simulate_market(
    spec: ModelSpec,
    beta: float,
    seed,
    draw,
    y=None,
    prices: GameSolution | None = None,
    initial_owner=0,
    allow_own_market: bool = False,
) -> MarketRun:
    """Simulate one run of the trading game.

    Stream layout, fixed for reproducibility: the run's generator yields
    one sequence of uniforms.  The first is the state and signal profile
    (nature mode only); the next is the initial owner (only when the owner
    is given as a distribution, such as ``"centrality"``).  After that the
    uniforms alternate: a continuation uniform, which ends the run when it
    falls below ``1 - beta``, then the buyer-class uniform of the trade it
    allows.  Uniforms are drawn in blocks; block sizes never change the
    stream.  ``prices`` may carry a precomputed schedule; otherwise the
    game is solved at ``beta``.
    """
    kernel = _Kernel(spec, beta, draw, y, prices, initial_owner, allow_own_market)
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    theta, profile, holders = kernel.run(seed)
    sig = kernel.signals(profile)
    agents = spec.agents
    events = tuple(
        TradeEvent(t, agents[a], agents[b], float(kernel.actions[sig[b]]),
                   kernel.labels[sig[b]])
        for t, (a, b) in enumerate(zip(holders, holders[1:]), 1)
    )
    return MarketRun(
        beta,
        (seed.entropy, seed.spawn_key),
        spec.states[theta],
        tuple(spec.signals[a][profile[k]] for k, a in enumerate(agents)),
        tuple(agents[h] for h in holders),
        events,
        float(kernel.yvals[theta]),
    )


@dataclass(frozen=True)
class MarketBatch:
    """Compact aggregate of many runs.

    Per run: duration, trade count, the per-class buy counts, and the
    per-class price implied by the run's signal profile.  This is enough
    to reconstruct the full multiset of transaction prices.
    """

    beta: float
    durations: np.ndarray
    class_counts: np.ndarray
    class_prices: np.ndarray
    terminal_payoffs: np.ndarray
    agents: tuple[str, ...]

    @property
    def n_runs(self) -> int:
        return len(self.durations)

    @property
    def trade_counts(self) -> np.ndarray:
        return self.class_counts.sum(axis=1)

    @property
    def price_sums(self) -> np.ndarray:
        return (self.class_counts * self.class_prices).sum(axis=1)


def simulate_batch(
    spec: ModelSpec,
    beta: float,
    n_runs: int,
    seed,
    draw,
    y=None,
    prices: GameSolution | None = None,
    initial_owner=0,
    allow_own_market: bool = False,
) -> MarketBatch:
    """Simulate independent runs; run k is bit-identical to
    ``simulate_market`` seeded with ``SeedSequence(seed).spawn(n_runs)[k]``.

    Each run is reduced to its class counts as soon as it ends, so memory
    does not grow with run length.
    """
    kernel = _Kernel(spec, beta, draw, y, prices, initial_owner, allow_own_market)
    return kernel.batch(np.random.SeedSequence(seed).spawn(n_runs))


@dataclass(frozen=True)
class PriceStats:
    """Deterministic aggregation of transaction prices and durations."""

    n_runs: int
    n_trades: int
    mean_price: float | None
    price_se: float | None
    price_min: float | None
    price_max: float | None
    class_means: dict[str, float]
    class_quantiles: dict[str, tuple[float, float, float]]
    mean_duration: float
    duration_counts: dict[int, int]


def _weighted_quantiles(values, weights, qs=(0.1, 0.5, 0.9)):
    order = np.argsort(values)
    v = np.asarray(values)[order]
    w = np.asarray(weights, dtype=float)[order]
    cum = np.cumsum(w)
    out = []
    for q in qs:
        k = int(np.searchsorted(cum, q * cum[-1], side="left"))
        out.append(float(v[min(k, len(v) - 1)]))
    return tuple(out)


@np.errstate(over="ignore", invalid="ignore")
def empirical_price_stats(data) -> PriceStats:
    """Summarize runs (a list of :class:`MarketRun` or a :class:`MarketBatch`).

    The summary is taken over the classes that bought, in sorted name
    order, with a class's price zeroed in runs where it bought nothing;
    that order fixes the float summation order.  The price standard error
    is cluster-robust over runs: runs, not individual trades, are the
    independent units.  Prices too large to sum are refused.
    """
    if isinstance(data, MarketBatch):
        bought = np.flatnonzero(data.class_counts.sum(axis=0) > 0)
        cols = sorted(bought, key=lambda k: data.agents[k])
        agents = tuple(data.agents[k] for k in cols)
        durations = data.durations
        counts = data.class_counts[:, cols]
        cprices = np.where(counts > 0, data.class_prices[:, cols], 0.0)
    else:
        runs = list(data)
        agents = tuple(sorted({e.buyer for r in runs for e in r.events}))
        durations = np.array([r.duration for r in runs], dtype=int)
        counts = np.zeros((len(runs), len(agents)), dtype=int)
        cprices = np.zeros((len(runs), len(agents)))
        for ri, r in enumerate(runs):
            for e in r.events:
                k = agents.index(e.buyer)
                counts[ri, k] += 1
                cprices[ri, k] = e.price

    n_runs = len(durations)
    if n_runs == 0:
        raise PreconditionError("no runs to aggregate")
    n_trades = int(counts.sum())
    mean_price = se = pmin = pmax = None
    if n_trades > 0:
        sums = (counts * cprices).sum(axis=1)
        mean_price = float(sums.sum() / n_trades)
        resid = sums - mean_price * counts.sum(axis=1)
        se = float(np.sqrt((resid**2).sum()) / n_trades)
        all_prices = cprices[counts > 0]
        pmin = float(all_prices.min())
        pmax = float(all_prices.max())
    class_means = {}
    class_q = {}
    for k, a in enumerate(agents):
        w = counts[:, k]
        class_means[a] = float((w * cprices[:, k]).sum() / w.sum())
        nz = w > 0
        class_q[a] = _weighted_quantiles(cprices[nz, k], w[nz])
    summary = [v for v in (mean_price, se, *class_means.values()) if v is not None]
    if not np.isfinite(summary).all():
        raise PreconditionError("price summary is not finite: the prices are too large to sum")
    uniq, cnt = np.unique(durations, return_counts=True)
    return PriceStats(
        n_runs,
        n_trades,
        mean_price,
        se,
        pmin,
        pmax,
        class_means,
        class_q,
        float(durations.mean()),
        {int(u): int(c) for u, c in zip(uniq, cnt)},
    )
