"""Workload definitions: seeded inputs, the fixed op list, and the output
check of every op kind.

A run generates its inputs once from its seed (model ``k`` from
``default_rng([seed, k])``) and repeats the op list in passes.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

import gen
import oracle


class CheckError(Exception):
    """An op's output disagrees with its reference."""


@dataclass
class Model:
    """One generated scenario file and its reference computations."""

    path: str
    scn: dict
    ref: oracle.Reference
    stats: dict
    outputs: dict = field(default_factory=dict)

    @cached_property
    def classes(self):
        return oracle.classes(self.ref.B)


@dataclass
class Op:
    """One subcommand on one model.  ``batch`` holds the keyword arguments
    of the ``simulate_batch`` call that follows a market op."""

    kind: str
    argv: list[str]
    model: Model
    batch: dict | None = None

    @property
    def beta(self) -> float:
        return float(self.argv[self.argv.index("--beta") + 1])


# ---------------------------------------------------------------- workloads

class Workload:
    """A named family of inputs and the fixed op list run on them; why
    each workload is in the benchmark is its ``why`` in BENCHMARK.json."""

    name = ""

    def __init__(self, tiny: bool):
        self.tiny = tiny

    @property
    def params(self) -> dict:
        raise NotImplementedError

    def op_list(self, seed: int, workdir: str) -> list[Op]:
        """Generate the inputs for ``seed`` under ``workdir`` and return
        the op list; the same seed gives the same files and ops."""
        raise NotImplementedError


def _write(workdir, name, scn) -> Model:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scn, fh)
    ref = oracle.reference(scn)
    return Model(path, scn, ref, oracle.structure_stats(ref))


class MarketLong(Workload):
    name = "market_long"

    @property
    def params(self):
        return {"scenario": "scenarios/cps.json", "beta": 0.999,
                "runs": 4 if self.tiny else 50, "ops": 2 if self.tiny else 10}

    def op_list(self, seed, workdir):
        prm = self.params
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        path = os.path.join(root, *prm["scenario"].split("/"))
        with open(path, encoding="utf-8") as fh:
            scn = json.load(fh)
        ref = oracle.full_beliefs_reference(scn)
        model = Model(path, scn, ref, oracle.structure_stats(ref))
        return [_market_op(model, prm["beta"], prm["runs"], seed * 1000 + k)
                for k in range(prm["ops"])]


class CisDense(Workload):
    name = "cis_dense"

    @property
    def params(self):
        return {"models": 3, "n_states": 6 if self.tiny else 50,
                "eps_range": [0.005, 0.05], "beta": 0.9, "runs": 3 if self.tiny else 8}

    def op_list(self, seed, workdir):
        prm = self.params
        beta = str(prm["beta"])
        ops = []
        for k in range(prm["models"]):
            scn = gen.cis_dense(np.random.default_rng([seed, k]), prm["n_states"],
                                tuple(prm["eps_range"]))
            m = _write(workdir, f"cis-{k}.json", scn)
            ops += [
                Op("consensus", ["consensus", m.path], m),
                Op("game-solve", ["game-solve", m.path, "--beta", beta], m),
                Op("verify-optimism", ["verify-optimism", m.path], m),
                Op("no-trade", ["no-trade", m.path], m),
                Op("verify-tyranny", ["verify-tyranny", m.path], m),
                _market_op(m, prm["beta"], prm["runs"], seed * 1000 + k),
                Op("report", ["report", m.path, "--beta", beta], m),
            ]
        return ops


class SparseReducible(Workload):
    name = "sparse_reducible"

    @property
    def params(self):
        size = ({"n_agents": 8, "n_signals": 6, "n_states": 3} if self.tiny
                else {"n_agents": 100, "n_signals": 10, "n_states": 4})
        return {"models": 2, "beta": 0.9, **size}

    def op_list(self, seed, workdir):
        prm = self.params
        beta = str(prm["beta"])
        ops = []
        for k in range(prm["models"]):
            scn = gen.sparse_reducible(np.random.default_rng([seed, k]), prm["n_agents"],
                                       prm["n_signals"], prm["n_states"])
            m = _write(workdir, f"sparse-{k}.json", scn)
            st = m.stats
            if not (st["transient_signals"] and st["terminal_classes"] >= 2
                    and max(st["terminal_periods"]) > 1):
                raise RuntimeError(f"model {k} lacks the planted structure: {st}")
            ops += [
                Op("validate", ["validate", m.path], m),
                Op("build", ["build", m.path, "--format", "csv"], m),
                Op("consensus", ["consensus", m.path], m),
                Op("game-solve", ["game-solve", m.path, "--beta", beta], m),
                Op("verify-optimism", ["verify-optimism", m.path], m),
                Op("no-trade", ["no-trade", m.path], m),
            ]
        return ops


WORKLOADS = {w.name: w for w in (MarketLong, CisDense, SparseReducible)}


def _market_op(model, beta, runs, seed) -> Op:
    argv = ["simulate-market", model.path, "--beta", str(beta), "--runs", str(runs),
            "--seed", str(seed), "--format", "csv"]
    return Op("simulate-market", argv, model,
              {"beta": beta, "n_runs": runs, "seed": seed})


def batch_draw(spec, scenario):
    """The generating distribution the CLI uses for a market op."""
    from consensus_lab import market, tyranny

    if isinstance(scenario, tyranny.CISSpec):
        return market.cis_generating(scenario)
    return market.product_generating(spec)


# ------------------------------------------------------------------- checks

def _require(cond, msg):
    if not cond:
        raise CheckError(msg)


def _close(a, b, tol=1e-12):
    return a == b or abs(a - b) <= tol


def _kv(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, val = line.strip().partition(" = ")
        if sep:
            out[key] = val
    return out


def _labelled(text: str, header: str) -> list[tuple[str, str]]:
    """``  label = value`` lines following ``header``."""
    lines = text.splitlines()
    start = lines.index(header) + 1
    out = []
    for line in lines[start:]:
        if not line.startswith("  "):
            break
        lab, _, val = line.strip().partition(" = ")
        out.append((lab, val))
    return out


def _stationary(B: np.ndarray) -> np.ndarray:
    n = B.shape[0]
    A = np.vstack([B.T - np.eye(n), np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    return np.linalg.lstsq(A, b, rcond=None)[0]


def _terminal_values(m: Model) -> list[float]:
    _, terminal, _ = m.classes
    x1 = m.ref.x1
    return [float(_stationary(m.ref.B[np.ix_(c, c)]) @ x1[c]) for c in terminal]


def check_validate(op, out):
    _require(out == "scenario is valid\n", "validate: unexpected output")


def check_build(op, out):
    ref = op.model.ref
    n, k = ref.B.shape[0], ref.F.shape[1]
    _require(out.startswith("matrix,row,col,value\n"), "build: bad CSV header")
    vals = np.loadtxt(io.StringIO(out), delimiter=",", usecols=3, skiprows=1, ndmin=1)
    _require(vals.shape == (n * n + n * k,), "build: wrong number of cells")
    B = vals[: n * n].reshape(n, n)
    F = vals[n * n:].reshape(n, k)
    _require(np.max(np.abs(B.sum(axis=1) - 1.0)) <= 1e-12, "build: B not row-stochastic")
    _require(np.max(np.abs(B - ref.B)) <= 1e-15, "build: B differs from reference")
    _require(np.max(np.abs(F - ref.F)) <= 1e-15, "build: F differs from reference")
    op.model.outputs["B"] = B


def check_consensus(op, out):
    m = op.model
    _, terminal, _ = m.classes
    x1 = m.ref.x1
    lines = [ln.partition(" = ") for ln in out.splitlines()]
    comps = []
    for key, sep, val in lines:
        kind, _, label = key.partition(" ")
        if kind == "component_consensus":
            comps.append((label.split("|"), float(val), []))
        elif kind == "weight":
            comps[-1][2].append(float(val))
        elif key.startswith("decomposition check"):
            _require(key == "decomposition check PASS", "consensus: decomposition check failed")
    _require(len(comps) == len(terminal), "consensus: wrong number of terminal classes")
    oracle_values = _terminal_values(m)
    for (labels, value, w), c, v_ref in zip(comps, terminal, oracle_values):
        _require(labels == [m.ref.labels[s] for s in c], "consensus: class members differ")
        p = np.array(w)
        _require(abs(p.sum() - 1.0) <= 1e-12, "consensus: weights do not sum to 1")
        res = np.abs(p @ m.ref.B[np.ix_(c, c)] - p).sum()
        _require(res <= 1e-10, f"consensus: stationary residual {res:.3e}")
        _require(abs(value - p @ x1[c]) <= 1e-12, "consensus: value is not p . x1")
        _require(abs(value - v_ref) <= 1e-9, "consensus: value differs from reference")
    if len(terminal) == 1:
        _require(float(_kv(out)["consensus"]) == comps[0][1], "consensus: scalar mismatch")
    m.outputs["consensus"] = out


def check_game(op, out):
    m = op.model
    beta = op.beta
    rows = _labelled(out, "actions")
    _require([lab for lab, _ in rows] == m.ref.labels, "game-solve: signal order")
    s = np.array([float(v) for _, v in rows])
    _require(float(_kv(out)["fixed-point residual"]) <= 1e-10, "game-solve: residual")
    res = np.max(np.abs(s - (1 - beta) * m.ref.x1 - beta * (m.ref.B @ s)))
    _require(res <= 1e-9, f"game-solve: reference residual {res:.3e}")
    m.outputs[("actions", beta)] = dict(rows)
    m.outputs["game-solve"] = out


def check_optimism(op, out):
    m = op.model
    f = _kv(out)
    x1 = m.ref.x1
    x2 = m.ref.B @ x1
    _require(_close(float(f["threshold"]), np.max(x1)),
             "optimism: threshold is not the top first-order value")
    below = x1 < np.max(x1)
    drift = np.min((x2 - x1)[below]) if below.any() else np.inf
    short = max(0.0, np.max((x1 - x2)[~below])) if (~below).any() else 0.0
    _require(_close(float(f["drift"]), drift), "optimism: drift differs from reference")
    _require(_close(float(f["shortfall"]), short), "optimism: shortfall differs from reference")
    _require(abs(float(f["consensus"]) - min(_terminal_values(m))) <= 1e-9,
             "optimism: consensus differs from reference")
    if f["hypotheses_hold"] == "True":
        _require("optimism bound PASS" in out, "optimism: bound failed")
    m.outputs["verify-optimism"] = out


def check_no_trade(op, out):
    m = op.model
    B = m.outputs.get("B", m.ref.B)
    n_scc, _, transient = oracle.classes(B)
    lines = out.splitlines()
    _require(lines[0] == f"reducible: {n_scc > 1}", "no-trade: reducible flag")
    found = "strictly profitable separable trade found" in lines
    _require(found == (len(transient) > 0),
             "no-trade: trade reported iff some signal is transient")
    if found:
        x = np.array([float(v) for _, v in _labelled(out, "payments")])
        gains = B @ x - x
        _require(gains.min() >= -1e-12 and gains.max() > 1e-9, "no-trade: bad witness")
    m.outputs["no-trade"] = out


def check_tyranny(op, out):
    m = op.model
    f = _kv(out)
    _require(float(f["gap"]) <= float(f["bound"]), "verify-tyranny: gap exceeds bound")
    _require("tyranny bound PASS" in out, "verify-tyranny: no PASS")
    _require(abs(float(f["consensus"]) - _terminal_values(m)[0]) <= 1e-9,
             "verify-tyranny: consensus differs from reference")
    prior = np.array(m.scn["rho"][m.scn["agents"][0]]) @ m.ref.y
    _require(abs(float(f["prior_expectation"]) - prior) <= 1e-12,
             "verify-tyranny: prior expectation")
    m.outputs["verify-tyranny"] = out


def check_market(op, out, actions, batch):
    """Events against the game-solve schedule ``actions`` (label -> printed
    action) and the ``simulate_batch`` result of the same seed; returns the
    number of trades."""
    m = op.model
    agents = m.scn["agents"]
    owner = {t: a for a in agents for t in m.scn["signals"][a]}
    G = m.ref.network
    head, _, tail = out.partition("stat,label,value\n")
    events = head.splitlines()
    _require(events[0] == "run,period,seller,buyer,price,buyer_signal", "market: header")
    R = op.batch["n_runs"]
    counts = np.zeros((R, len(agents)), int)
    prices = np.zeros((R, len(agents)))
    last = {}
    for line in events[1:]:
        run, period, seller, buyer, price, sig = line.split(",")
        run, period = int(run), int(period)
        _require(price == actions[sig], "market: price is not the schedule at the buyer's signal")
        _require(owner[sig] == buyer, "market: buyer signal belongs to another agent")
        prev = last.get(run, (0, None))
        _require(period == prev[0] + 1, "market: periods not consecutive")
        _require(prev[1] in (None, seller), "market: seller is not the last buyer")
        _require(G[agents.index(seller), agents.index(buyer)] > 0, "market: off-network trade")
        last[run] = (period, buyer)
        counts[run, agents.index(buyer)] += 1
        prices[run, agents.index(buyer)] = float(price)
    summary = dict((r.split(",")[0], r.split(",")[2]) for r in tail.splitlines())
    _require(int(summary["runs"]) == R, "market: run count")
    _require(int(summary["trades"]) == len(events) - 1, "market: trade count")
    _require(np.array_equal(batch.durations, counts.sum(axis=1) + 1),
             "market: batch durations differ from the CLI's events")
    _require(np.array_equal(batch.class_counts, counts),
             "market: batch class counts differ from the CLI's events")
    _require(np.array_equal(batch.class_prices[counts > 0], prices[counts > 0]),
             "market: batch prices differ from the CLI's events")
    return len(events) - 1


def check_report(op, out):
    m = op.model
    n_scc, terminal, _ = m.classes
    periodic = [oracle.period(m.ref.B, c) for c in terminal]
    parts = [f"== structure ==\nsignals: {len(m.ref.labels)}\n"
             f"irreducible: {n_scc == 1}\naperiodic: {all(p == 1 for p in periodic)}\n"]
    parts += [f"absorbing component: {','.join(m.ref.labels[s] for s in c)}\n"
              for c in terminal]
    sections = [("consensus", "consensus"), ("game", "game-solve"),
                ("optimism", "verify-optimism"), ("no-trade", "no-trade")]
    if m.scn.get("kind") == "cis":
        sections.append(("tyranny", "verify-tyranny"))
    for title, kind in sections:
        _require(kind in m.outputs, f"report: no checked {kind} output to compare")
        parts.append(f"== {title} ==\n{m.outputs[kind]}")
    _require(out == "".join(parts), "report: sections differ from the single commands")


CHECKS = {
    "validate": check_validate,
    "build": check_build,
    "consensus": check_consensus,
    "game-solve": check_game,
    "verify-optimism": check_optimism,
    "no-trade": check_no_trade,
    "verify-tyranny": check_tyranny,
    "report": check_report,
}
