import dataclasses
import hashlib
import re
import signal
import tracemalloc
from contextlib import contextmanager
from io import StringIO

import numpy as np
import pytest
from scipy import stats as sps

from consensus_lab.consensus import consensus_expectation
from consensus_lab.errors import PreconditionError
from consensus_lab.game import solve_beta_game
from consensus_lab.market import (
    _BELOW_ONE,
    _BLOCK,
    FixedDraw,
    NatureDraw,
    _Kernel,
    cis_generating,
    empirical_price_stats,
    product_generating,
    simulate_batch,
    simulate_market,
)
from consensus_lab.cli import main
from consensus_lab.io import fmt, load_scenario, parse_scenario
from consensus_lab.model import (
    BasicVariable,
    InterimBelief,
    ModelSpec,
    Network,
    validate_model,
)

from conftest import bench_gen, cis_scenario, random_model, scenario_path


@pytest.fixture(scope="module")
def market_spec():
    rng = np.random.default_rng(100)
    return random_model(rng, n_agents=3, max_signals=2, full_support=True)


def fixed_draw(spec):
    return FixedDraw(spec.states[0], tuple(spec.signals[a][0] for a in spec.agents))


def test_beta_zero_consumes_immediately(market_spec):
    run = simulate_market(market_spec, 0.0, 1, fixed_draw(market_spec))
    assert run.duration == 1
    assert run.events == ()
    assert run.terminal_payoff == float(market_spec.y.values[0])


def test_every_price_is_a_schedule_entry(market_spec):
    spec = market_spec
    prices = solve_beta_game(spec, 0.95)
    schedule = dict(zip(prices.labels, prices.actions))
    draw = product_generating(spec)
    for seed in range(20):
        run = simulate_market(spec, 0.95, seed, draw, prices=prices)
        for e in run.events:
            assert e.price == schedule[e.buyer_signal]  # bit-for-bit
            # buyer's signal matches the run's realized profile
            k = spec.agents.index(e.buyer)
            assert e.buyer_signal == run.signal_profile[k]


def test_same_seed_identical_run(market_spec):
    draw = product_generating(market_spec)
    a = simulate_market(market_spec, 0.9, 1234, draw)
    b = simulate_market(market_spec, 0.9, 1234, draw)
    assert a == b
    c = simulate_market(market_spec, 0.9, 1235, draw)
    assert a != c


def test_batch_reproduces_single_runs(market_spec):
    spec = market_spec
    draw = product_generating(spec)
    prices = solve_beta_game(spec, 0.9)
    batch = simulate_batch(spec, 0.9, 50, 77, draw, prices=prices)
    seeds = np.random.SeedSequence(77).spawn(50)
    schedule = dict(zip(prices.labels, prices.actions))
    for k in (0, 7, 49):
        run = simulate_market(spec, 0.9, seeds[k], draw, prices=prices)
        assert batch.durations[k] == run.duration
        assert batch.class_counts[k].sum() == len(run.events)
        # identical realized prices, class by class (bit-for-bit)
        for j, a in enumerate(spec.agents):
            assert batch.class_prices[k, j] == schedule[run.signal_profile[j]]
            assert batch.class_counts[k, j] == sum(
                1 for e in run.events if e.buyer == a
            )
        assert (batch.class_counts[k] * batch.class_prices[k]).sum() == pytest.approx(
            sum(e.price for e in run.events), rel=1e-12
        )


def test_batch_golden_arrays():
    # SHA-256 of the durations, class_counts and class_prices bytes, captured
    # before the market kernel was vectorized.
    spec = load_scenario(scenario_path("cps"))
    batch = simulate_batch(
        spec, 0.999, 10_000, 42, product_generating(spec),
        prices=solve_beta_game(spec, 0.999), initial_owner="centrality",
    )
    h = hashlib.sha256()
    for arr, dtype in ((batch.durations, np.int64), (batch.class_counts, np.int64),
                       (batch.class_prices, np.float64)):
        assert arr.dtype == dtype
        h.update(np.ascontiguousarray(arr).tobytes())
    assert h.hexdigest() == (
        "854b54182dbaa163216ffbc5b07a6311cd084434af4dd8de905f2a71cabc32fd"
    )


def test_fixed_draw_zero_price_variance(market_spec):
    spec = market_spec
    draw = fixed_draw(spec)
    batch = simulate_batch(spec, 0.8, 300, 5, draw)
    # every run transacts each class at the same price
    assert (batch.class_prices == batch.class_prices[0]).all()


def geometric_bins(p, min_mass=0.04):
    """Integer bins for a geometric sample, each with decent expected mass."""
    uppers = []
    probs = []
    lo = 1
    k = 1
    while 1.0 - sps.geom.cdf(lo - 1, p) >= 2.0 * min_mass:
        mass = sps.geom.cdf(k, p) - sps.geom.cdf(lo - 1, p)
        if mass >= min_mass:
            uppers.append(k)
            probs.append(mass)
            lo = k + 1
            k = lo
        else:
            k += 1
    probs.append(1.0 - sps.geom.cdf(lo - 1, p))
    uppers.append(np.inf)
    return np.array(uppers), np.array(probs)


def test_duration_is_geometric_chi_square():
    spec = load_scenario(scenario_path("cps"))
    beta = 0.9
    batch = simulate_batch(spec, beta, 100_000, 31, product_generating(spec))
    durations = batch.durations
    uppers, probs = geometric_bins(1.0 - beta)
    idx = np.searchsorted(uppers, durations, side="left")
    counts = np.bincount(idx, minlength=len(uppers)).astype(float)
    expected = probs * len(durations)
    stat = float(((counts - expected) ** 2 / expected).sum())
    crit = sps.chi2.ppf(0.99, len(uppers) - 1)
    assert stat < crit


def test_mean_price_tracks_consensus():
    spec = load_scenario(scenario_path("cps"))
    res = consensus_expectation(spec)
    batch = simulate_batch(
        spec, 0.99, 4000, 11, product_generating(spec), initial_owner="centrality"
    )
    stats = empirical_price_stats(batch)
    assert abs(stats.mean_price - res.value) <= 3.0 * stats.price_se


def test_price_spread_shrinks_linearly_in_beta(market_spec):
    spec = market_spec
    res = consensus_expectation(spec)
    spreads = {}
    for beta in (0.9, 0.99, 0.999):
        sol = solve_beta_game(spec, beta)
        spreads[beta] = float(sol.actions.max() - sol.actions.min())
    C = max(s / (1.0 - b) for b, s in spreads.items())
    assert C < 20.0
    for b, s in spreads.items():
        assert s <= C * (1.0 - b) + 1e-15


def test_nature_mode_needs_distribution(market_spec):
    with pytest.raises(PreconditionError, match="NatureDraw"):
        simulate_market(market_spec, 0.5, 0, draw=None)


def test_self_sale_requires_flag():
    rng = np.random.default_rng(200)
    spec = random_model(rng, n_agents=2, max_signals=2)
    from consensus_lab.model import ModelSpec, Network

    net = Network([[0.3, 0.7], [0.5, 0.5]], diagonal_allowed=True)
    spec = ModelSpec(
        spec.states, spec.agents, spec.signals, spec.beliefs, net, y=spec.y
    )
    draw = fixed_draw(spec)
    with pytest.raises(PreconditionError, match="own market"):
        simulate_market(spec, 0.5, 0, draw)
    run = simulate_market(spec, 0.9, 3, draw, allow_own_market=True)
    assert run.duration >= 1


def test_cis_generating_distribution_shape():
    cis = load_scenario(scenario_path("tyranny_extreme"))
    joint = materialized(cis_generating(cis))
    assert joint.shape == (2, 2, 2, 2)
    assert joint.sum() == pytest.approx(1.0, abs=1e-12)
    # informed agents' signals are perfectly correlated with the state
    marg = joint.sum(axis=(1,))  # states x alice x bern
    assert marg[0, 1, :].sum() == pytest.approx(0.0, abs=0)
    assert marg[1, 0, :].sum() == pytest.approx(0.0, abs=0)


def test_empirical_stats_over_run_objects(market_spec):
    # a batch's summary against the events of its runs, one by one
    spec = market_spec
    draw = product_generating(spec)
    stats = empirical_price_stats(simulate_batch(spec, 0.9, 40, 6, draw))
    runs = [simulate_market(spec, 0.9, s, draw)
            for s in np.random.SeedSequence(6).spawn(40)]
    assert stats.n_runs == 40
    total = sum(len(r.events) for r in runs)
    assert stats.n_trades == total > 0
    manual = sum(e.price for r in runs for e in r.events) / total
    assert stats.mean_price == pytest.approx(manual, abs=1e-12)
    assert stats.mean_duration == np.mean([r.duration for r in runs])


def test_fixed_draw_validation(market_spec):
    spec = market_spec
    with pytest.raises(PreconditionError, match="unknown state"):
        simulate_market(spec, 0.5, 0, FixedDraw("nope", ("x",) * 3))
    with pytest.raises(PreconditionError, match="one signal per agent"):
        simulate_market(spec, 0.5, 0, FixedDraw(spec.states[0], ("x",)))
    with pytest.raises(PreconditionError, match="not a signal"):
        simulate_market(
            spec, 0.5, 0,
            FixedDraw(spec.states[0], ("bogus",) * len(spec.agents)),
        )


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in this thread once ``seconds`` have passed, so a
    simulation that never ends fails instead of hanging the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _simulate(entry, spec, beta, draw, **kwargs):
    if entry == "market":
        return simulate_market(spec, beta, 0, draw, **kwargs)
    return simulate_batch(spec, beta, 1, 0, draw, **kwargs)


@pytest.mark.parametrize("entry", ["market", "batch"])
@pytest.mark.parametrize("beta", [1.0, float("nan"), -0.1, 1.5, float("inf")])
def test_beta_outside_unit_interval_is_refused(entry, beta):
    # with a precomputed schedule nothing else checks beta: at 1.0 no run
    # would ever end, and NaN would end every run at once
    spec = load_scenario(scenario_path("cps"))
    prices = solve_beta_game(spec, 0.9)
    with deadline(1.0), pytest.raises(PreconditionError, match="beta"):
        _simulate(entry, spec, beta, product_generating(spec), prices=prices)


def _dense_joint(spec):
    return NatureDraw(materialized(product_generating(spec)))


@pytest.mark.parametrize(
    "draw_of, owner, message",
    [
        (product_generating, -1, "initial owner"),
        (product_generating, 2, "initial owner"),
        (product_generating, "nobody", "initial owner"),
        (product_generating, [np.nan, 1.0], "initial owner"),
        (product_generating, True, "initial owner"),
        (product_generating, [0.5, 0.25, 0.25],
         r"^initial owner distribution: expected one value per agent \(2\), got shape \(3,\)$"),
        (_dense_joint, 0, "generating distribution: expected shape"),
    ],
    ids=["owner -1", "owner past last agent", "unknown owner name",
         "owner distribution with NaN", "owner True", "owner distribution of the wrong length",
         "dense joint"],
)
@pytest.mark.parametrize("entry", ["market", "batch"])
def test_invalid_draw_or_owner_is_refused(entry, draw_of, owner, message):
    spec = load_scenario(scenario_path("cps"))
    with pytest.raises(PreconditionError, match=message):
        _simulate(entry, spec, 0.9, draw_of(spec), initial_owner=owner)


def test_prices_without_any_payoff_are_refused(market_spec):
    from consensus_lab.model import ModelSpec

    spec = market_spec
    prices = solve_beta_game(spec, 0.9)
    bare = ModelSpec(spec.states, spec.agents, spec.signals, spec.beliefs, spec.network)
    draw = fixed_draw(bare)
    with pytest.raises(PreconditionError, match="no payoff given"):
        simulate_market(bare, 0.9, 0, draw, prices=prices)
    with pytest.raises(PreconditionError, match="no payoff given"):
        simulate_batch(bare, 0.9, 3, 0, draw, prices=prices)


@pytest.mark.parametrize("y", [[0.0, 1.0, 2.0], [1.0]], ids=["three-values", "one-value"])
@pytest.mark.parametrize("entry", ["market", "batch"])
def test_payoff_with_a_value_per_state_is_required(entry, y):
    # with a price schedule given, the kernel read y itself: three values
    # on two states ran, one value ended in an IndexError
    spec = load_scenario(scenario_path("cps"))
    prices = solve_beta_game(spec, 0.9)
    with pytest.raises(PreconditionError, match=r"y: expected one value per state \(2\)"):
        _simulate(entry, spec, 0.9, product_generating(spec), y=y, prices=prices)


def test_library_price_summary_matches_the_cli():
    # tyranny_extreme declares iggy, alice, bern: not in name order
    cis = load_scenario(scenario_path("tyranny_extreme"))
    spec = cis.model
    batch = simulate_batch(spec, 0.9, 200, 3, cis_generating(cis),
                           prices=solve_beta_game(spec, 0.9), initial_owner="centrality")
    stats = empirical_price_stats(batch)
    rows = [f"mean_price,,{fmt(stats.mean_price)}", f"price_se,,{fmt(stats.price_se)}"]
    rows += [f"class_mean_price,{a},{fmt(m)}" for a, m in stats.class_means.items()]
    assert list(stats.class_means) == sorted(stats.class_means)
    out = StringIO()
    assert main(["simulate-market", scenario_path("tyranny_extreme"), "--beta", "0.9",
                 "--runs", "200", "--seed", "3", "--format", "csv"], out=out) == 0
    summary = out.getvalue().partition("stat,label,value\n")[2].splitlines()
    assert [r for r in summary if r.startswith(("mean_price", "price_se", "class_"))] == rows


# ------------------------------------------------ the factored nature draw

def materialized(draw):
    """The dense joint built as the market built it before its draws were
    factored: the state weights times each agent's state-indexed rows."""
    joint = np.asarray(draw.state, dtype=float)
    for table in draw.tables:
        table = np.asarray(table)
        shape = (table.shape[0],) + (1,) * (joint.ndim - 1) + (table.shape[1],)
        joint = joint[..., None] * table.reshape(shape)
    return joint


def dense_search(joint, u):
    """The dense search the factored decode replaces: running sums of every
    cell, ``_pick``'s rule (``side="right"``, last-index clamp), then the
    cell's coordinates; returns flat cell indices."""
    cum = np.cumsum(joint.reshape(-1))
    return np.minimum(cum.searchsorted(u * cum[-1], side="right"), cum.size - 1)


def decoded_cells(kernel, shape, u):
    """Flat cell index of each ``(state, profile)`` the kernel decodes."""
    pairs = [kernel.decode(x) for x in u.tolist()]
    return np.ravel_multi_index(
        ([t for t, _ in pairs], *zip(*[p for _, p in pairs])), shape
    )


def _cps():
    spec = load_scenario(scenario_path("cps"))
    return spec, product_generating(spec)


def _tyranny_extreme():
    cis = load_scenario(scenario_path("tyranny_extreme"))
    return cis.model, cis_generating(cis)


def _cis30():
    cis = parse_scenario(cis_scenario(np.random.default_rng(30), 3, 30))
    return cis.model, cis_generating(cis)


def _cis30_unnormalized():
    spec, draw = _cis30()
    return spec, NatureDraw(draw.state * 7.3, tuple(
        t * scale for t, scale in zip(draw.tables, (3.1, 0.02, 50.0))))


DRAWS = {"cps product": _cps, "tyranny_extreme cis": _tyranny_extreme,
         "3 agents x 30 states cis": _cis30,
         "3 agents x 30 states, unnormalized": _cis30_unnormalized}


@pytest.mark.parametrize("make", DRAWS.values(), ids=DRAWS.keys())
def test_factored_decode_matches_the_dense_search(make):
    spec, draw = make()
    joint = materialized(draw)
    u = np.random.default_rng(2024).random(100_000)
    want = dense_search(joint, u)
    kernel = _Kernel(spec, 0.9, draw)
    assert np.array_equal(decoded_cells(kernel, joint.shape, u), want)


@pytest.mark.parametrize("make", DRAWS.values(), ids=DRAWS.keys())
def test_uniform_on_a_cell_boundary_draws_an_adjacent_cell(make):
    spec, draw = make()
    joint = materialized(draw).reshape(-1)
    cum = np.cumsum(joint)
    positive = np.flatnonzero(joint > 0)
    # boundaries after positive cells, all of them or an even spread
    ends = positive[:-1][np.linspace(0, len(positive) - 2, 3000).astype(int)]
    u = cum[ends] / cum[-1]
    got = decoded_cells(_Kernel(spec, 0.9, draw), materialized(draw).shape, u)
    after = positive[positive.searchsorted(ends, side="right")]
    assert np.all((got == ends) | (got == after))


def test_a_uniform_rescaled_to_one_stays_in_positive_cells():
    # (u - 0.3) / (1 - 0.3) rounds to exactly 1 at the largest uniform;
    # unclamped, it would pick the second agent's zero-weight signal
    cis = load_scenario(scenario_path("tyranny_extreme"))
    half = np.full((2, 2), 0.5)
    draw = NatureDraw(np.array([0.3, 0.7]), (half, np.array([[0.5, 0.5], [1.0, 0.0]]), half))
    kernel = _Kernel(cis.model, 0.9, draw)
    assert kernel.decode(_BELOW_ONE) == (1, (1, 0, 1))
    assert kernel.decode(0.0) == (0, (0, 0, 0))


def _bad_factor(factor, value):
    """tyranny_extreme's CIS draw (product draw for ``lam``) with the first
    entry of one factor replaced by ``value``: ``rho`` is the state
    weights, ``eta`` the second agent's technology, ``lam`` the first
    agent's pseudoprior rows."""
    def draw_of(cis):
        draw = product_generating(cis.model) if factor == "lam" else cis_generating(cis)
        factors = [draw.state, *draw.tables]
        k = {"rho": 0, "lam": 1, "eta": 2}[factor]
        factors[k] = np.array(factors[k], dtype=float)
        factors[k].flat[0] = value
        return NatureDraw(factors[0], tuple(factors[1:]))
    return draw_of


BAD_FACTORS = {
    f"{factor} {label}": _bad_factor(factor, value)
    for factor in ("rho", "eta", "lam")
    for label, value in (("NaN", np.nan), ("+inf", np.inf), ("-inf", -np.inf),
                         ("negative", -1e-300))
}
BAD_FACTORS["zero total"] = lambda cis: NatureDraw(
    np.zeros(cis.n_states), tuple(cis.eta[a] for a in cis.agents))
# every state has an agent whose row is all zero
BAD_FACTORS["zero rows in every state"] = lambda cis: NatureDraw(
    cis.rho[cis.agents[0]], (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.eye(2)))


@pytest.mark.parametrize("draw_of", BAD_FACTORS.values(), ids=BAD_FACTORS.keys())
@pytest.mark.parametrize("entry", ["market", "batch"])
def test_bad_factor_is_refused(entry, draw_of):
    cis = load_scenario(scenario_path("tyranny_extreme"))
    with pytest.raises(PreconditionError, match="generating distribution"):
        _simulate(entry, cis.model, 0.9, draw_of(cis))


def test_factors_of_the_wrong_shape_are_refused():
    cis = load_scenario(scenario_path("tyranny_extreme"))
    eta = tuple(cis.eta[a] for a in cis.agents)
    for draw in (NatureDraw(cis.rho["iggy"], eta[:2]),
                 NatureDraw(cis.rho["iggy"], eta[:2] + (eta[2][:, :1],)),
                 NatureDraw(np.ones(3), eta),
                 NatureDraw(np.ones((2, 2, 2))),
                 ):
        with pytest.raises(PreconditionError, match="generating distribution: expected shape"):
            simulate_market(cis.model, 0.9, 0, draw)


def test_a_state_with_an_all_zero_row_is_never_drawn():
    cis = parse_scenario(cis_scenario(np.random.default_rng(31), 3, 30))
    a = cis.agents[1]
    eta = np.array(cis.eta[a])
    eta[[0, 7, 29]] = 0.0
    draw = cis_generating(dataclasses.replace(cis, eta=dict(cis.eta, **{a: eta})))
    assert draw.state[[0, 7, 29]].min() > 0  # positive prior mass
    kernel = _Kernel(cis.model, 0.9, draw)
    cum = np.asarray(kernel.nature_cdf)
    edges = np.concatenate([cum[[6, 7, 28]] / cum[-1], [0.0, _BELOW_ONE]])
    u = np.concatenate([np.random.default_rng(5).random(20_000), edges,
                        np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    states = {kernel.decode(x)[0] for x in u.tolist() if x < 1.0}
    assert states.isdisjoint({0, 7, 29})
    assert len(states) == 27


def test_unknown_prior_agent_is_refused():
    cis = load_scenario(scenario_path("tyranny_extreme"))
    with pytest.raises(PreconditionError, match="'nobody'"):
        cis_generating(cis, "nobody")


def test_cis_draw_holds_the_model_factors():
    cis = load_scenario(scenario_path("tyranny_extreme"))
    draw = cis_generating(cis, "bern")
    assert draw.state is cis.rho["bern"]
    assert all(t is cis.eta[a] for t, a in zip(draw.tables, cis.agents))
    # draws compare by identity, as the model objects do
    assert draw == draw and draw != cis_generating(cis, "bern")


def test_many_agents_run_without_the_dense_joint():
    # 8 agents x 10 signals x 10 states: the dense joint would have 1e9 cells
    cis = parse_scenario(cis_scenario(np.random.default_rng(8), 8, 10, 10))
    spec = cis.model
    tracemalloc.start()
    try:
        draw = cis_generating(cis)
        batch = simulate_batch(spec, 0.9, 1000, 17, draw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cis.n_states * np.prod([t.shape[1] for t in draw.tables]) == 10**9
    assert peak < 5 * 2**20
    assert batch.n_runs == 1000
    # each run's terminal payoff is the payoff of a drawn state
    assert np.isin(batch.terminal_payoffs, spec.y.values).all()


def test_a_bid_past_the_row_total_never_buys_from_a_zero_weight_agent(monkeypatch):
    # c's row sums to 1 - 5e-13, within the validation tolerance; the bid
    # 1 - 1e-13 lies past it and used to buy from c itself at weight zero
    agents = ("a", "b", "c")
    signals = {a: (f"{a}1", f"{a}2") for a in agents}
    beliefs = {t: InterimBelief([0.5, 0.5], {j: [0.5, 0.5] for j in agents if j != a})
               for a in agents for t in signals[a]}
    g = [[0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5 - 5e-13, 0]]
    spec = ModelSpec(("lo", "hi"), agents, signals, beliefs, Network(g),
                     y=BasicVariable([0.0, 1.0], 1.0))
    assert validate_model(spec) == []
    kernel = _Kernel(spec, 0.9, product_generating(spec), initial_owner="c")

    class Uniforms:
        def random(self, size):
            # nature, continue, bid, stop
            return np.array([0.3, 0.9, 1 - 1e-13, 0.0])

    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: Uniforms())
    assert kernel.run(0)[2].tolist() == [2, 1]


def _one_signal_spec(g, diagonal_allowed=False):
    """A model with one signal per agent on the network ``g``: only the
    network differs between the specs the buyer tests build."""
    agents = tuple(f"ag{i}" for i in range(len(g)))
    signals = {a: (f"{a}s",) for a in agents}
    beliefs = {f"{a}s": InterimBelief([0.5, 0.5], {j: [1.0] for j in agents if j != a})
               for a in agents}
    return ModelSpec(("lo", "hi"), agents, signals, beliefs,
                     Network(g, diagonal_allowed=diagonal_allowed),
                     y=BasicVariable([0.0, 1.0], 1.0))


def _searched_buyer(row, bid):
    """The first agent whose running sum of ``row`` exceeds ``bid``; a bid at
    or past the row's total buys from the last agent with positive weight."""
    total = 0.0
    for j, w in enumerate(row):
        total += w
        if bid < total:
            return j
    return max(j for j, w in enumerate(row) if w > 0)


class _OneTrade:
    """A generator whose every draw is a run of one trade at ``bid``: a
    continuation uniform, the bid, then a stop."""

    def __init__(self, bid):
        self.uniforms = np.array([_BELOW_ONE, bid, 0.0])

    def random(self, size):
        return self.uniforms


@pytest.mark.parametrize("n", [*range(2, 13), 100, 200])
def test_the_bin_table_buys_from_the_agent_each_row_search_finds(n, monkeypatch):
    # zero weights, self-weights (under allow_own_market) and rows summing
    # to 1 +- 5e-13; bids at random, on a running sum, one ulp either side of
    # it, and past a row's total; from 100 agents on, a sample of those bids
    # from a sample of sellers
    rng = np.random.default_rng(n)
    own = n % 2 == 0
    g = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
    if not own:
        np.fill_diagonal(g, 0.0)
    g[np.arange(n), (np.arange(n) + 1) % n] += 0.1
    g /= g.sum(axis=1, keepdims=True)
    for i, off in zip(range(n), (5e-13, -5e-13, 0.0)):
        g[i, np.flatnonzero(g[i])[-1]] += off
    spec = _one_signal_spec(g, diagonal_allowed=own)
    cdf = np.cumsum(g, axis=1).ravel()
    edges = np.concatenate([cdf, np.nextafter(cdf, 0), np.nextafter(cdf, 2)])
    if n > 12:
        edges = rng.choice(edges, 60, replace=False)
    bids = np.concatenate([rng.random(200 if n <= 12 else 20), edges,
                           [0.0, 1 - 1e-13, _BELOW_ONE]]).tolist()
    draw, rows = fixed_draw(spec), g.tolist()
    sellers = range(n) if n <= 12 else rng.choice(n, 20, replace=False).tolist()
    prices = {beta: solve_beta_game(spec, beta) for beta in (0.5, 0.999)}
    kernels = [_Kernel(spec, 0.5, draw, prices=prices[0.5], initial_owner=owner,
                       allow_own_market=own) for owner in sellers]
    with monkeypatch.context() as m:
        # run(bid) is one trade at the bid, from the kernel's owner
        m.setattr(np.random, "default_rng", _OneTrade)
        assert [[int(kernel.run(b)[2][1]) for b in bids] for kernel in kernels] == [
            [_searched_buyer(rows[o], b) for b in bids] for o in sellers]
    # whole runs chain the same buyers
    for beta in (0.5, 0.999) if n <= 12 else (0.999,):
        for seed in range(5 if n <= 12 else 2):
            owner = seed * 7 % n
            kernel = _Kernel(spec, beta, draw, prices=prices[beta], initial_owner=owner,
                             allow_own_market=own)
            assert kernel.run(seed)[2].tolist() == _walked_path(rows, beta, seed, owner)


def _walked_path(g, beta, seed, owner):
    """Holder path of a run with a fixed draw and an integer owner, one
    period at a time: a continuation uniform, then a bid and its searched
    buyer."""
    rng = np.random.default_rng(seed)
    path = [owner]
    while True:
        keep, bid = rng.random(2).tolist()
        if keep < 1.0 - beta:
            return path
        path.append(_searched_buyer(g[path[-1]], bid))


def _lead_in(buyer, owner):
    """Holders before the cycle of ``buyer``'s orbit from ``owner``."""
    seen = [owner]
    while buyer[seen[-1]] not in seen:
        seen.append(buyer[seen[-1]])
    return seen.index(buyer[seen[-1]])


@pytest.mark.parametrize("n", range(2, 13))
def test_a_one_buyer_network_walks_the_orbit_of_its_buyer_map(n):
    # a ring, a map with a lead-in (n = 3: 0 -> 1 -> 2 -> 1) and a seeded map
    # that may sell into the owner's own market; rows weigh their one buyer
    # 1 or 1 - 5e-13
    rng = np.random.default_rng(200 + n)
    ring = (np.arange(n) + 1) % n
    lead = np.r_[np.arange(1, n), max(1, n // 2)]
    maps = [ring, lead, rng.integers(0, n, n)]
    short = empty = 0
    for buyer in maps:
        own = bool(np.any(buyer == np.arange(n)))
        g = np.zeros((n, n))
        g[np.arange(n), buyer] = 1.0
        g[0, buyer[0]] -= 5e-13
        spec = _one_signal_spec(g, diagonal_allowed=own)
        for beta, seeds in ((0.5, range(20)), (0.999, range(2))):
            prices = solve_beta_game(spec, beta)
            for owner in range(n):
                kernel = _Kernel(spec, beta, fixed_draw(spec), prices=prices,
                                 initial_owner=owner, allow_own_market=own)
                searched = _Kernel(spec, beta, fixed_draw(spec), prices=prices,
                                   initial_owner=owner, allow_own_market=own)
                searched.orbits = None
                for seed in seeds:
                    path = kernel.run(seed)[2].tolist()
                    assert path == searched.run(seed)[2].tolist()
                    assert path == _walked_path(g.tolist(), beta, seed, owner)
                    # the cached orbit's first part is the lead-in
                    lead_in = kernel.orbits[owner][0].size
                    assert lead_in == _lead_in(buyer.tolist(), owner)
                    empty += len(path) == 1
                    short += len(path) <= lead_in
        # a second positive weight in one row leaves the orbit path
        g[n - 1, [buyer[n - 1], (buyer[n - 1] + 1) % n]] = 0.5
        spec = _one_signal_spec(g, diagonal_allowed=True)
        assert _Kernel(spec, 0.5, fixed_draw(spec), prices=prices,
                       allow_own_market=True).orbits is None
    # runs with no trade, and runs that end before the cycle
    assert empty > 0 and short > 0


def test_a_walk_grown_by_a_longer_run_gives_the_paths_of_fresh_kernels():
    # 0 -> 1 -> 2 -> 3 -> 2: a lead-in of two holders, then a 2-cycle, so the
    # first walk holds four.  One kernel serves the runs shortest first, then
    # longest first: its walk grows run after run, then serves shorter runs
    # from its front
    g = np.zeros((4, 4))
    g[np.arange(4), [1, 2, 3, 2]] = 1.0
    spec = _one_signal_spec(g)
    draw, prices = fixed_draw(spec), solve_beta_game(spec, 0.9)

    def fresh(seed):
        return _Kernel(spec, 0.9, draw, prices=prices).run(seed)[2]

    seeds = sorted(range(60), key=lambda seed: fresh(seed).size)
    kernel = _Kernel(spec, 0.9, draw, prices=prices)
    walks = []
    for seed in seeds + seeds[::-1]:
        path = kernel.run(seed)[2]
        assert not path.flags.writeable
        assert path.tolist() == fresh(seed).tolist()
        assert path.tolist() == _walked_path(g.tolist(), 0.9, seed, 0)
        walks.append(kernel.orbits[0][2].size)
    longest = fresh(seeds[-1]).size
    # runs inside the lead-in, and runs past the first walk
    assert fresh(seeds[0]).size <= 2 and longest > 4
    assert walks[-1] >= longest and len(set(walks)) > 2
    assert not kernel.orbits[0][2].flags.writeable


def _cis_dense_spec():
    """A model of the benchmark's cis_dense shape: 3 agents, 30 states."""
    scenario = parse_scenario(bench_gen().cis_dense(np.random.default_rng([1, 0]), 30))
    return scenario.model, cis_generating(scenario)


@pytest.mark.parametrize("case", ["cps", "cis_dense"])
def test_the_first_draw_never_changes_a_batch(case):
    # the first block of uniforms at 64, at one expected run's worth and at
    # _BLOCK: the same stream, so the same batch
    if case == "cps":
        spec = load_scenario(scenario_path("cps"))
        draw, beta, runs = product_generating(spec), 0.999, 50
    else:
        (spec, draw), beta, runs = _cis_dense_spec(), 0.9, 200
    prices = solve_beta_game(spec, beta)
    batches = []
    for block in (64, None, _BLOCK):
        kernel = _Kernel(spec, beta, draw, prices=prices, initial_owner="centrality")
        kernel.block = block or kernel.block
        batches.append(kernel.batch(np.random.SeedSequence(32), runs))
    assert kernel.block == _BLOCK and _Kernel(
        spec, beta, draw, prices=prices).block == min(_BLOCK, max(64, int(2 / (1 - beta))))
    first = batches[0]
    for batch in batches[1:]:
        for field in ("durations", "class_counts", "class_prices", "terminal_payoffs"):
            assert np.array_equal(getattr(batch, field), getattr(first, field)), field
    assert first.class_counts.sum() > 0
    if case == "cps":
        # runs that read past two blocks of the default draw, two uniforms a period
        assert first.durations.max() > _Kernel(spec, beta, draw, prices=prices).block


def test_a_batch_holds_one_block_of_run_seeds():
    # every run's SeedSequence was spawned before the first run: about 8 MB
    # for 20000 runs on top of the batch's own arrays
    spec = load_scenario(scenario_path("cps"))
    draw = fixed_draw(spec)
    prices = solve_beta_game(spec, 0.0)
    simulate_batch(spec, 0.0, 2, 3, draw, prices=prices)  # numpy's lazy imports
    tracemalloc.start()
    try:
        batch = simulate_batch(spec, 0.0, 20_000, 3, draw, prices=prices)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    own = sum(a.nbytes for a in (batch.durations, batch.class_counts,
                                 batch.class_prices, batch.terminal_payoffs))
    assert peak - own < 2**20


@pytest.mark.parametrize("row", [[1.5, 0.0, -0.5], [np.nan, 0.0, 1.0], [np.inf, 0.0, 0.0],
                                 [0.0, 0.0, 0.0]],
                         ids=["negative", "nan", "inf", "zero total"])
@pytest.mark.parametrize("entry", ["market", "batch"])
def test_a_network_row_the_buyer_search_cannot_read_is_refused(entry, row):
    # library callers skip validate_model, and the prices are given, so the
    # game solve does not see the network: the kernel ran [1.5, 0, -0.5]
    spec = load_scenario(scenario_path("case2"))
    prices = solve_beta_game(spec, 0.9)
    g = np.array(spec.network.weights)
    g[1] = row
    bad = dataclasses.replace(spec, network=Network(g))
    with pytest.raises(PreconditionError, match=re.escape(
            "network.row[agent2]: weights must be finite and non-negative with a positive total")):
        _simulate(entry, bad, 0.9, fixed_draw(bad), prices=prices)


@pytest.mark.parametrize("case, network, message", [
    ("cps", lambda spec: Network((1 - np.eye(3)) / 2),
     "network: shape (3, 3) does not match 2 agents, expected (2, 2)"),
    ("tyranny_extreme", lambda spec: Network(spec.network.weights * [[0.5], [1], [1]]),
     "network.row[iggy]: sums to 0.5 (expected 1 within 1e-12)"),
], ids=["shape", "row sum"])
@pytest.mark.parametrize("entry", ["market", "batch"])
def test_a_given_price_schedule_keeps_the_builders_network_rules(entry, case, network, message):
    # the schedule skips the game solve: a 3 x 3 network on 2 agents ran or
    # ended in a bare ValueError, and a row summing to 0.5 ran, its missing
    # mass bought from the row's last weighted agent
    scenario = load_scenario(scenario_path(case))
    spec = getattr(scenario, "model", scenario)
    prices = solve_beta_game(spec, 0.9)
    bad = dataclasses.replace(spec, network=network(spec))
    with pytest.raises(PreconditionError) as exc:
        _simulate(entry, bad, 0.9, fixed_draw(bad), prices=prices)
    assert str(exc.value) == message


def test_the_kernel_holds_no_table_of_buyers():
    # a complete network on 60 agents: the kernel keeps each seller's cut
    # row, about 0.14 MB, where a buyer for each seller between any two of
    # the rows' distinct running sums took 5.2 MB
    n = 60
    g = np.random.default_rng(60).random((n, n)) + 0.01
    np.fill_diagonal(g, 0.0)
    g /= g.sum(axis=1, keepdims=True)
    spec = _one_signal_spec(g)
    draw, prices = fixed_draw(spec), solve_beta_game(spec, 0.999)
    tracemalloc.start()
    try:
        kernel = _Kernel(spec, 0.999, draw, prices=prices)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert kernel.run(1)[2].tolist() == _walked_path(g.tolist(), 0.999, 1, 0)
