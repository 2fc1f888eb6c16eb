"""Command-line interface.

Exit codes: 0 success, 2 scenario validation failure, 3 precondition
failure inside an operation or an --out artifact that cannot be written,
64 usage error.  Identical inputs, flags and seed produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from io import StringIO

import numpy as np

from . import io as sio
from .consensus import (
    consensus_expectation,
    cps_check,
    first_order_vector,
    verify_cps_decomposition,
)
from .errors import (
    CapabilityError,
    PreconditionError,
    ScenarioError,
)
from .game import heterogeneous_transform, solve_beta_game, solve_heterogeneous_game
from .interaction import absorbing_components
from .market import (
    FixedDraw,
    MarketBatch,
    _Kernel,
    cis_generating,
    empirical_price_stats,
    product_generating,
)
from .model import ModelSpec, validate_model
from .optimism import optimism_hypotheses
from .tyranny import CISSpec, validate_cis, verify_tyranny
from .trade import no_trade_test

fmt = sio.fmt


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _count(raw: str) -> int:
    """argparse type for a non-negative integer."""
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {raw!r}")
    return value


def build_parser() -> _Parser:
    p = _Parser(prog="consensus-lab", description=__doc__)
    sub = p.add_subparsers(dest="command", parser_class=_Parser)
    commands = [
        ("validate", "check a scenario file against every model invariant"),
        ("build", "emit the interaction structure and first-order map"),
        ("consensus", "consensus expectation, weights, centralities, pseudopriors"),
        ("game-solve", "solve the coordination game at a given beta"),
        ("simulate-market", "run the trading simulator"),
        ("verify-optimism", "evaluate the optimism contagion bound"),
        ("verify-tyranny", "evaluate the least-informed bound (cis scenarios)"),
        ("no-trade", "search for a profitable separable trade"),
        ("report", "run every applicable analysis"),
    ]
    for name, help_text in commands:
        c = sub.add_parser(name, help=help_text)
        c.add_argument("scenario", help="path to a scenario JSON file")
        c.add_argument("--out", metavar="DIR", help="directory for CSV artifacts")
        c.add_argument("--format", choices=["csv", "txt"], default="txt")
        c.add_argument("--tol", type=float, default=1e-12,
                       help="probability validation tolerance")
        if name in ("game-solve", "simulate-market", "report"):
            c.add_argument("--beta", type=float, default=0.99)
        if name == "game-solve":
            c.add_argument("--beta-per-agent", metavar="LIST",
                           help="comma-separated per-agent weights, e.g. a=0.9,b=0.5")
        if name in ("verify-optimism", "report"):
            c.add_argument("--fbar", type=float, default=None,
                           help="optimism threshold (default: highest first-order value)")
        if name in ("simulate-market", "report"):
            c.add_argument("--runs", type=_count,
                           default=1 if name == "simulate-market" else 0)
            c.add_argument("--seed", type=_count, default=0)
        if name == "simulate-market":
            c.add_argument("--state", help="fix the realized state")
            c.add_argument("--profile", metavar="LIST",
                           help="comma-separated realized signals, one per agent")
    return p


class _OutError(Exception):
    """An artifact could not be written under ``--out``."""


@contextmanager
def _artifact(args, name: str):
    """The open artifact file ``name`` under ``--out``; an OSError from
    creating, writing or closing it becomes an :class:`_OutError`."""
    try:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise _OutError(f"cannot write --out: {exc}") from exc


def _emit(args, name: str, content: str):
    if args.out:
        with _artifact(args, name) as fh:
            fh.write(content)


def _print_vec(out, title, labels, vec):
    out.write(f"{title}\n")
    for lab, v in zip(labels, np.asarray(vec)):
        out.write(f"  {lab} = {fmt(v)}\n")


def _as_model(scenario) -> ModelSpec:
    return scenario.model if isinstance(scenario, CISSpec) else scenario


def cmd_validate(args, scenario, out) -> int:
    out.write("scenario is valid\n")
    return 0


def cmd_build(args, scenario, out) -> int:
    model = _as_model(scenario)
    structure = model.structure
    labels = structure.index.labels
    if args.out or args.format == "csv":
        matrices = [("interaction", labels, structure.matrix),
                    ("first_order", model.states, model.first_order.matrix)]
    if args.out:
        for name, cols, matrix in matrices:
            with _artifact(args, f"{name}.csv") as fh:
                sio.write_matrix_csv(fh, labels, cols, matrix)
    if args.format == "csv":
        out.write("matrix,row,col,value\n")
        for name, cols, matrix in matrices:
            sio.write_matrix_csv(out, labels, cols, matrix, prefix=f"{name},")
        return 0
    out.write(f"signals: {len(labels)}\n")
    out.write(f"irreducible: {structure.irreducible}\n")
    out.write(f"aperiodic: {structure.aperiodic}\n")
    for comp in absorbing_components(structure):
        out.write(f"absorbing component: {','.join(comp)}\n")
    return 0


def cmd_consensus(args, scenario, out) -> int:
    model = _as_model(scenario)
    result = consensus_expectation(model)
    labels = result.structure.index.labels
    rows: list[tuple[str, str, str]] = []
    if result.value is not None:
        rows.append(("consensus", "", fmt(result.value)))
    for comp in result.components:
        rows.append(("component_consensus", "|".join(comp.signals), fmt(comp.value)))
        for lab, w in zip(comp.signals, comp.weights):
            rows.append(("weight", lab, fmt(w)))
    if result.centralities is not None:
        for a, e in zip(model.agents, result.centralities):
            rows.append(("centrality", a, fmt(e)))
    if result.pseudopriors is not None:
        for a in model.agents:
            for lab, v in zip(model.signals[a], result.pseudopriors[a]):
                rows.append(("pseudoprior", lab, fmt(v)))
    decomposition = None
    try:
        check = cps_check(model)
        if check.holds:
            decomposition = verify_cps_decomposition(model)
            rows.append(("cps_decomposition_gap", "", fmt(decomposition.gap)))
        else:
            rows.append(("cps_violation", "", fmt(check.max_violation)))
    except (CapabilityError, PreconditionError):
        pass
    if args.format == "csv":
        out.write("kind,label,value\n")
        for r in rows:
            out.write(",".join(r) + "\n")
    else:
        for kind, label, value in rows:
            out.write(f"{kind}{' ' + label if label else ''} = {value}\n")
        if decomposition is not None:
            out.write(
                "decomposition check "
                + ("PASS" if decomposition.passed else "FAIL")
                + "\n"
            )
    csv = StringIO()
    csv.write("kind,label,value\n")
    for r in rows:
        csv.write(",".join(r) + "\n")
    _emit(args, "consensus.csv", csv.getvalue())
    return 0


def _parse_beta_per_agent(raw: str, model: ModelSpec) -> np.ndarray:
    parts = [p for p in raw.split(",") if p]
    betas = np.zeros(model.n_agents)
    if all("=" in p for p in parts):
        given = {}
        for p in parts:
            name, _, val = p.partition("=")
            if name not in model.agents:
                raise PreconditionError(f"--beta-per-agent: unknown agent {name!r}")
            given[name] = float(val)
        missing = [a for a in model.agents if a not in given]
        if missing:
            raise PreconditionError(f"--beta-per-agent: missing agent(s) {missing}")
        for k, a in enumerate(model.agents):
            betas[k] = given[a]
    else:
        if len(parts) != model.n_agents:
            raise PreconditionError(
                f"--beta-per-agent: expected {model.n_agents} values"
            )
        betas = np.array([float(p) for p in parts])
    return betas


def cmd_game(args, scenario, out) -> int:
    model = _as_model(scenario)
    if getattr(args, "beta_per_agent", None):
        betas = _parse_beta_per_agent(args.beta_per_agent, model)
        solution = solve_heterogeneous_game(model, betas)
        _, beta_hat = heterogeneous_transform(model.network, betas)
        header = f"heterogeneous betas, common beta {fmt(beta_hat)}\n"
    else:
        solution = solve_beta_game(model, args.beta)
        header = f"beta {fmt(args.beta)}\n"
    csv = StringIO()
    csv.write("signal,action\n")
    for lab, a in zip(solution.labels, solution.actions):
        csv.write(f"{lab},{fmt(a)}\n")
    _emit(args, "actions.csv", csv.getvalue())
    if args.format == "csv":
        out.write(csv.getvalue())
    else:
        out.write(header)
        _print_vec(out, "actions", solution.labels, solution.actions)
        out.write(f"fixed-point residual = {fmt(solution.residual)}\n")
    return 0


def _bought(batch: MarketBatch) -> MarketBatch:
    """The classes that bought, in sorted name order, with prices zeroed
    where a class bought nothing in a run.

    The summary has always been taken from these columns; their order fixes
    the float summation order, so it fixes the printed bytes.
    """
    traded = batch.class_counts.sum(axis=0) > 0
    cols = sorted(np.flatnonzero(traded), key=lambda k: batch.agents[k])
    counts = batch.class_counts[:, cols]
    prices = np.where(counts > 0, batch.class_prices[:, cols], 0.0)
    return MarketBatch(batch.beta, batch.durations, counts, prices,
                       batch.terminal_payoffs, tuple(batch.agents[k] for k in cols))


def cmd_market(args, scenario, out) -> int:
    model = _as_model(scenario)
    if getattr(args, "state", None) or getattr(args, "profile", None):
        if not (args.state and args.profile):
            raise PreconditionError("fixed draws need both --state and --profile")
        draw = FixedDraw(args.state, tuple(args.profile.split(",")))
    elif isinstance(scenario, CISSpec):
        draw = cis_generating(scenario)
    else:
        draw = product_generating(model)
    prices = solve_beta_game(model, args.beta)
    kernel = _Kernel(model, args.beta, draw, prices=prices, initial_owner="centrality")
    events_csv = None
    write_events = None
    if args.format == "csv" or args.out:
        events_csv = StringIO()
        events_csv.write("run,period,seller,buyer,price,buyer_signal\n")
        # price and signal columns of a buy at each signal
        tails = [f"{fmt(float(a))},{lab}\n" for a, lab in zip(kernel.actions, kernel.labels)]

        def write_events(k, profile, holders):
            sig = kernel.signals(profile)
            suffix = [[f"{seller},{buyer},{tails[sig[j]]}"
                       for j, buyer in enumerate(model.agents)]
                      for seller in model.agents]
            events_csv.write("".join([
                f"{k},{t},{suffix[a][b]}"
                for t, (a, b) in enumerate(zip(holders, holders[1:]), 1)
            ]))

    seeds = np.random.SeedSequence(args.seed).spawn(args.runs)
    stats = empirical_price_stats(_bought(kernel.batch(seeds, write_events)))
    summary_csv = StringIO()
    summary_csv.write("stat,label,value\n")
    summary_csv.write(f"runs,,{stats.n_runs}\n")
    summary_csv.write(f"trades,,{stats.n_trades}\n")
    if stats.mean_price is not None:
        summary_csv.write(f"mean_price,,{fmt(stats.mean_price)}\n")
        summary_csv.write(f"price_se,,{fmt(stats.price_se)}\n")
    summary_csv.write(f"mean_duration,,{fmt(stats.mean_duration)}\n")
    for a, m in stats.class_means.items():
        if m is not None:
            summary_csv.write(f"class_mean_price,{a},{fmt(m)}\n")
    if events_csv is not None:
        _emit(args, "events.csv", events_csv.getvalue())
    _emit(args, "summary.csv", summary_csv.getvalue())
    if args.format == "csv":
        out.write(events_csv.getvalue())
        out.write(summary_csv.getvalue())
    else:
        out.write(f"{stats.n_runs} runs, {stats.n_trades} trades\n")
        if stats.mean_price is not None:
            out.write(
                f"mean price = {fmt(stats.mean_price)}"
                f" (se {fmt(stats.price_se)})\n"
            )
        out.write(f"mean duration = {fmt(stats.mean_duration)}\n")
    return 0


def cmd_optimism(args, scenario, out) -> int:
    model = _as_model(scenario)
    threshold = args.fbar
    if threshold is None:
        threshold = float(np.max(first_order_vector(model)))
    report = optimism_hypotheses(model, threshold)
    rows = [
        ("threshold", fmt(report.threshold)),
        ("drift", fmt(report.drift)),
        ("shortfall", fmt(report.shortfall)),
        ("hypotheses_hold", str(report.hypotheses_hold)),
        ("bound", fmt(report.bound)),
        ("consensus", fmt(report.consensus)),
    ]
    if args.format == "csv":
        out.write("field,value\n")
        for k, v in rows:
            out.write(f"{k},{v}\n")
    else:
        for k, v in rows:
            out.write(f"{k} = {v}\n")
        if report.hypotheses_hold:
            ok = report.consensus >= report.bound - 1e-9
            out.write("optimism bound " + ("PASS" if ok else "FAIL") + "\n")
    return 0


def cmd_tyranny(args, scenario, out) -> int:
    if not isinstance(scenario, CISSpec):
        raise PreconditionError(
            "verify-tyranny needs a common-interpretation scenario (kind: cis)"
        )
    report = verify_tyranny(scenario)
    rows = [
        ("consensus", fmt(report.consensus)),
        ("prior_expectation", fmt(report.prior_expectation)),
        ("gap", fmt(report.gap)),
        ("bound", fmt(report.bound)),
        ("eps", fmt(report.eps)),
        ("delta", fmt(report.delta)),
        ("belief_gap_max", fmt(report.belief_gap_max)),
        ("belief_gap_bound", fmt(report.belief_gap_bound)),
        ("max_passage_time", fmt(report.perturbation.max_passage_time)),
        ("passage_time_bound", fmt(report.passage_time_bound)),
        ("max_path_length", str(report.max_path_length)),
    ]
    if args.format == "csv":
        out.write("field,value\n")
        for k, v in rows:
            out.write(f"{k},{v}\n")
    else:
        for k, v in rows:
            out.write(f"{k} = {v}\n")
        out.write("tyranny bound " + ("PASS" if report.passed else "FAIL") + "\n")
    return 0


def cmd_no_trade(args, scenario, out) -> int:
    structure = _as_model(scenario).structure
    result = no_trade_test(structure)
    if args.format == "csv":
        out.write("field,value\n")
        out.write(f"trade_found,{result.has_trade}\n")
        out.write(f"reducible,{result.reducible}\n")
        out.write(f"objective,{fmt(result.objective)}\n")
        if result.has_trade:
            for lab, x in zip(structure.index.labels, result.trade):
                out.write(f"payment.{lab},{fmt(x)}\n")
    else:
        out.write(f"reducible: {result.reducible}\n")
        if result.has_trade:
            out.write("strictly profitable separable trade found\n")
            _print_vec(out, "payments", structure.index.labels, result.trade)
        else:
            out.write("no strictly profitable separable trade exists\n")
    return 0


def cmd_report(args, scenario, out) -> int:
    model = _as_model(scenario)

    def section(title, fn):
        out.write(f"== {title} ==\n")
        try:
            fn()
        except (PreconditionError, CapabilityError) as exc:
            out.write(f"not applicable: {exc}\n")

    section("structure", lambda: cmd_build(args, scenario, out))
    section("consensus", lambda: cmd_consensus(args, scenario, out))
    if model.y is not None:
        args.beta_per_agent = None
        section("game", lambda: cmd_game(args, scenario, out))
    section("optimism", lambda: cmd_optimism(args, scenario, out))
    section("no-trade", lambda: cmd_no_trade(args, scenario, out))
    if isinstance(scenario, CISSpec):
        section("tyranny", lambda: cmd_tyranny(args, scenario, out))
    if getattr(args, "runs", 0):
        section("market", lambda: cmd_market(args, scenario, out))
    return 0


_HANDLERS = {
    "validate": cmd_validate,
    "build": cmd_build,
    "consensus": cmd_consensus,
    "game-solve": cmd_game,
    "simulate-market": cmd_market,
    "verify-optimism": cmd_optimism,
    "verify-tyranny": cmd_tyranny,
    "no-trade": cmd_no_trade,
    "report": cmd_report,
}


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 64
    try:
        scenario = sio.load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    violations = (
        validate_cis(scenario, args.tol)
        if isinstance(scenario, CISSpec)
        else validate_model(scenario, args.tol)
    )
    if violations:
        for v in violations:
            print(f"invalid: {v}", file=sys.stderr)
        return 2
    try:
        return _HANDLERS[args.command](args, scenario, out)
    except (PreconditionError, CapabilityError, _OutError) as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
