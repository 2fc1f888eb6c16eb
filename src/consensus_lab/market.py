"""Over-the-counter market simulator.

One asset passes between classes of traders.  Each period the game ends
with probability ``1 - beta`` and the holder consumes the payoff; otherwise
the next buyer class is drawn from the owner's row of the network and the
sale executes at the equilibrium price schedule of the coordination game,
evaluated at the buyer's realized signal.  Prices are not rediscovered in
the simulation; the point of the exercise is that the realized transaction
prices track the schedule and, as trade becomes frequent, the consensus.

Randomness flows through numpy's PCG64 generator with explicit seeding.  A
batch of runs seeds run k with ``SeedSequence(seed).spawn(n)[k]``, spawned a
block of runs at a time; a single run with integer seed s uses
``SeedSequence(s)`` directly.  Each run reads one stream of uniforms from
its own generator: the first is the nature draw (nature mode only), the
next the initial owner (only when the owner is given as a distribution,
such as ``"centrality"``), and after that the uniforms alternate,
continuation then buyer, so the continuation uniforms sit at
``off, off + 2, ...``.  ``rng.random(a)`` followed by ``rng.random(b)``
gives the same doubles as ``rng.random(a + b)``, so uniforms are drawn in
numpy blocks of any size without changing a run.

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
CLI.  Once per call it holds the network to the structure builder's rules,
also when a price schedule is passed, validates the draw and the initial
owner and hoists what every run shares: the state and per-row signal
running sums, the initial-owner running sums (the centrality is computed
once), each seller's network running sums cut before its last positive
weight, and the price schedule.  Per run it decodes the nature uniform
with one search per level, finds the duration with one vectorized scan of
the continuation uniforms and chains the buyers from the initial owner
into one path array.  Each trade buys from ``bisect_right`` of its bid in
the seller's cut row: the first agent whose running sum exceeds the bid,
or the last weighted agent for a bid at or past every cut.  Where every
row has one positive weight, as on a ring, each seller has one buyer at
every bid: the bids are drawn and skipped, and the path is the orbit of
that seller-to-buyer map from the initial owner, its lead-in of at most n
holders and then its cycle repeated to the run's length.

:func:`empirical_price_stats` summarizes a :class:`MarketBatch`: the mean
price with its standard error over runs, each class's mean price and the
mean duration.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .consensus import state_payoffs
from .errors import PreconditionError
from .game import GameSolution, solve_beta_game
from .model import (
    ModelSpec, _count, _cumulative, _indices, _network_cdf, _readonly, _real, _vector, check_beta,
)
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
    its state's weight times its signal's entry in every agent's row.
    Weights need not be normalized.  A dense joint over all cells is not
    a draw: given as ``state`` it fails the shape check.
    """

    state: np.ndarray
    tables: tuple[np.ndarray, ...] = ()


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
    carries no priors; a prior without one weight per signal is
    refused).  Under this distribution and a
    centrality-distributed initial owner, every transaction price has
    expectation exactly equal to the consensus, at every beta.  Each
    agent's table repeats its pseudoprior in every state's row, as a
    read-only broadcast view.
    """
    from .consensus import pseudopriors

    lam = pseudopriors(spec)
    if spec.priors is not None and spec.agents[0] in spec.priors:
        a0 = spec.agents[0]
        mu = _vector(spec.priors[a0], len(spec.signals[a0]), f"prior for {a0}", "signal",
                     finite=False)
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
    # by equality: an unhashable label is unknown too
    if prior_agent not in tuple(cis.rho):
        raise PreconditionError(
            f"generating distribution: no prior for agent {prior_agent!r}"
        )
    return NatureDraw(cis.rho[prior_agent], tuple(cis.eta[a] for a in cis.agents))


def _seeded(seed) -> np.random.SeedSequence:
    """``SeedSequence(seed)``; an entropy it refuses is refused typed."""
    try:
        return np.random.SeedSequence(seed)
    except (TypeError, ValueError) as exc:
        raise PreconditionError(f"seed: {exc}") from None


#: Largest first block of uniforms drawn for a run; a run that needs more
#: doubles its block.  Block sizes never change the stream.
_BLOCK = 4096


#: Run seeds spawned at a time by a batch: a batch holds one block of
#: them, not a seed per run.
_SEEDS = 256


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
    counts as they finish, so no path outlives its run but for the one
    read-only walk per owner that a one-buyer network's paths are sliced from.
    """

    def __init__(self, spec: ModelSpec, beta: float, draw, y=None,
                 prices: GameSolution | None = None, initial_owner=0,
                 allow_own_market: bool = False):
        beta = check_beta(beta, f"beta must lie in [0, 1), got {beta}")
        # building the structure holds the network to the builder's rules
        # (its shape, each row's weights and sum), which a given price
        # schedule would otherwise skip
        spec.structure
        if prices is None:
            prices = solve_beta_game(spec, beta, y)
        g = spec.network.weights
        # the buyer search assumes each row's running sums ascend
        cdf = _network_cdf(g, spec.agents)
        if not allow_own_market and np.any(np.diag(g) > 0):
            raise PreconditionError(
                "owner's class has positive self-weight; pass allow_own_market=True"
                " to let the asset be resold into the owner's own market"
            )
        index = spec.first_order.index
        self.beta = beta
        self.agents = spec.agents
        self.labels = index.labels
        self.actions = _vector(prices.actions, len(index.labels), "prices", "signal")
        self.starts = np.array([b.start for b in index.blocks], dtype=np.intp)
        self.yvals = state_payoffs(spec, y)
        # a bid at or past a row's total buys from its last weighted agent
        self.last_buyer = len(g) - 1 - np.argmax(g[:, ::-1] > 0, axis=1)
        # where every row has one positive weight, each seller has one buyer at
        # every bid: owner -> (lead-in, cycle, walk) of last_buyer's orbit,
        # filled as owners come up
        self.orbits = {} if np.all(np.count_nonzero(g > 0, axis=1) == 1) else None
        # each seller's running sums before its last weighted agent, which
        # buys at or past the cut
        self.cuts = [cdf[o, :k].tolist() for o, k in enumerate(self.last_buyer.tolist())]
        # about one expected run's worth of uniforms, two per period
        self.block = int(min(_BLOCK, max(64.0, 2.0 / (1.0 - beta))))
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
            factors = [_real(f, "generating distribution") for f in (draw.state, *draw.tables)]
            shapes = [(spec.n_states,)] + [(spec.n_states, m) for m in sizes]
            got = [f.shape for f in factors]
            if got != shapes:
                raise PreconditionError(
                    "generating distribution: expected shape"
                    f" {', '.join(map(str, shapes))}, got {', '.join(map(str, got))}"
                )
            for f in factors:
                _cumulative(f, "generating distribution")
            # a state's weight carries its rows' totals, so a state with an
            # all-zero row is never drawn
            row_cdfs = [np.cumsum(t, axis=1) for t in factors[1:]]
            weights = factors[0]
            for cdfs in row_cdfs:
                weights = weights * cdfs[:, -1]
            # each run searches a few short lists of Python floats
            self.nature_cdf = _cumulative(weights, "generating distribution").tolist()
            self.row_cdfs = [cdfs.tolist() for cdfs in row_cdfs]
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
            # a bool is refused there
            self.owner = int(_indices((initial_owner,), spec.n_agents,
                                      "initial owner: agent index")[0])
        else:
            what = "initial owner distribution"
            dist = (eigenvector_centrality(spec.network) if isinstance(initial_owner, str)
                    else _vector(initial_owner, spec.n_agents, what, "agent", finite=False))
            self.owner_cdf = _cumulative(dist, what)

    def signals(self, profile) -> np.ndarray:
        """Signal index of each class's realized signal."""
        return self.starts + np.asarray(profile, dtype=np.intp)

    def decode(self, u: float) -> tuple[int, tuple[int, ...]]:
        """State and signal profile (positions within each agent's signals)
        drawn by the nature uniform ``u``.

        ``u`` picks the state.  Where it fell inside that state's cell,
        rescaled to [0, 1), picks the signal in the first agent's row for
        the state, and so on through the agents.
        """
        cum = self.nature_cdf
        cell = _pick(cum, u)
        theta, profile = cell, []
        for cdfs in self.row_cdfs:
            lo = cum[cell - 1] if cell else 0.0
            u = min((u * cum[-1] - lo) / (cum[cell] - lo), _BELOW_ONE)
            cum = cdfs[theta]
            cell = _pick(cum, u)
            profile.append(cell)
        return theta, tuple(profile)

    def _orbit(self, owner) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Holders from ``owner`` along ``last_buyer`` up to the first repeat,
        read-only: the lead-in, the cycle, and both as the first walk."""
        step, seen, o = self.last_buyer.tolist(), {}, owner
        while o not in seen:
            seen[o] = len(seen)
            o = step[o]
        holders = _readonly(np.array(list(seen), dtype=np.intp))
        return holders[:seen[o]], holders[seen[o]:], holders

    def run(self, seed) -> tuple[int, tuple[int, ...], np.ndarray]:
        """State, signal profile (positions within each agent's signals) and
        holder path of one run, an ``intp`` array from the initial owner.

        The path chains each bid's buyer, ``bisect_right`` of the bid in the
        seller's cut row, or, where every row has one positive weight, is a
        read-only slice of the owner's walk along ``last_buyer`` (its
        lead-in, then its cycle tiled to twice the length of the last run
        that outgrew it), bids unread."""
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
        if self.orbits is not None:
            # the network fixes the path: a slice of the owner's walk
            lead, cycle, walk = self.orbits.get(owner) or self._orbit(owner)
            if walk.size <= trades:
                reps = -(-2 * (trades + 1) // cycle.size)
                walk = _readonly(np.concatenate((lead, np.tile(cycle, reps))))
            self.orbits[owner] = lead, cycle, walk
            return theta, profile, walk[:trades + 1]
        # each trade's buyer from the seller before it
        cuts = self.cuts
        path = np.empty(trades + 1, dtype=np.intp)
        path[0] = o = owner
        path[1:] = [o := bisect_right(cuts[o], bid)
                    for bid in u[off + 1:off + 2 * trades:2].tolist()]
        return theta, profile, path

    def batch(self, root: np.random.SeedSequence, n_runs: int, each=None) -> MarketBatch:
        """Run ``root.spawn(n_runs)``'s children in order, reducing each run to
        its class counts, state and profile, whose prices and payoffs are
        gathered after the last run; ``each(profile, path)``, if given, sees
        each run's path array first, in run order.  The children are spawned
        a block at a time, which gives the same seeds as one spawn of them all."""
        n = len(self.agents)
        seeds = (s for k in range(0, n_runs, _SEEDS) for s in root.spawn(min(_SEEDS, n_runs - k)))
        durations = np.empty(n_runs, dtype=np.int64)
        counts = np.empty((n_runs, n), dtype=np.int64)
        thetas, profiles = [], []
        for k, seed in enumerate(seeds):
            theta, profile, path = self.run(seed)
            if each is not None:
                each(profile, path)
            durations[k] = len(path)
            counts[k] = np.bincount(path[1:], minlength=n)
            thetas.append(theta)
            profiles += profile
        class_prices = self.actions[self.signals(np.reshape(profiles, (n_runs, n)))]
        return MarketBatch(self.beta, durations, counts, class_prices,
                           self.yvals[np.array(thetas, dtype=np.intp)], self.agents)


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
        seed = _seeded(seed)
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

    Per run: duration, the per-class buy counts, the per-class price
    implied by the run's signal profile, and the terminal payoff.  This is
    enough to reconstruct the full multiset of transaction prices.
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

    Each run is reduced to its class counts as soon as it ends, and the run
    seeds are spawned a block at a time, so memory grows with neither run
    length nor a seed per run.
    """
    _count(n_runs, 0, "n_runs")
    kernel = _Kernel(spec, beta, draw, y, prices, initial_owner, allow_own_market)
    return kernel.batch(_seeded(seed), n_runs)


@dataclass(frozen=True)
class PriceStats:
    """Mean transaction price with its standard error, the mean price of
    each class that bought, and the mean duration of a batch's runs."""

    n_runs: int
    n_trades: int
    mean_price: float | None
    price_se: float | None
    class_means: dict[str, float]
    mean_duration: float


@np.errstate(over="ignore", invalid="ignore")
def empirical_price_stats(batch: MarketBatch) -> PriceStats:
    """Summarize a :class:`MarketBatch`.

    The summary is taken over the classes that bought, in sorted name
    order, with a class's price zeroed in runs where it bought nothing;
    that order fixes the float summation order.  The price standard error
    is cluster-robust over runs: runs, not individual trades, are the
    independent units.  Prices too large to sum are refused.
    """
    if batch.n_runs == 0:
        raise PreconditionError("no runs to aggregate")
    bought = np.flatnonzero(batch.class_counts.sum(axis=0) > 0)
    cols = sorted(bought, key=lambda k: batch.agents[k])
    counts = batch.class_counts[:, cols]
    cprices = np.where(counts > 0, batch.class_prices[:, cols], 0.0)
    n_trades = int(counts.sum())
    mean_price = se = None
    if n_trades > 0:
        sums = (counts * cprices).sum(axis=1)
        mean_price = float(sums.sum() / n_trades)
        resid = sums - mean_price * counts.sum(axis=1)
        se = float(np.sqrt((resid**2).sum()) / n_trades)
    class_means = {}
    for j, k in enumerate(cols):
        w = counts[:, j]
        class_means[batch.agents[k]] = float((w * cprices[:, j]).sum() / w.sum())
    summary = [v for v in (mean_price, se, *class_means.values()) if v is not None]
    if not np.isfinite(summary).all():
        raise PreconditionError("price summary is not finite: the prices are too large to sum")
    return PriceStats(batch.n_runs, n_trades, mean_price, se, class_means,
                      float(batch.durations.mean()))
