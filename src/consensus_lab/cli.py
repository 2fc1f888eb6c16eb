"""Command-line interface.

Exit codes: 0 success, 2 scenario validation failure, 3 precondition
failure inside an operation, a failed residual gate (``ArithmeticError``)
or an --out artifact that cannot be written, 64 usage error, 141 (128 +
SIGPIPE) stdout closed by its reader before the output ended.  report runs
every section: a refusal prints ``not applicable: ...`` and a failed gate
``numerical check failed: ...`` under its header, and after the last
section a failed gate ends report with exit 3 and its line on stderr.
Identical inputs, flags and seed produce byte-identical output per BLAS
thread count when a component has 100 or more signals (one LAPACK solve
each), and for any thread count otherwise.
simulate-market computes its summary before it writes any event row, so a
refused summary writes none, and it formats events.csv one run at a time;
with --format csv and --out, stdout is the written artifact read back.
"""

from __future__ import annotations

import argparse
import functools
import os
import shutil
import sys
from contextlib import contextmanager

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
from .game import solve_beta_game, solve_heterogeneous_game
from .interaction import absorbing_components
from .market import (
    FixedDraw,
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


def _at_least_zero(kind, what: str):
    """argparse type for a finite number >= 0 of type ``kind``, named
    ``what`` in its usage error."""
    def parse(raw: str):
        try:
            value = kind(raw)
        except ValueError:
            value = -1
        if not 0 <= value < np.inf:
            raise argparse.ArgumentTypeError(f"expected {what}, got {raw!r}")
        return value
    return parse


def build_parser() -> _Parser:
    p = _Parser(prog="consensus-lab", description=__doc__)
    sub = p.add_subparsers(dest="command", parser_class=_Parser)
    count = _at_least_zero(int, "a non-negative integer")
    tol = _at_least_zero(float, "a finite number >= 0")
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
        c.add_argument("--tol", type=tol, default=1e-12,
                       help="probability validation tolerance")
        if name in ("game-solve", "simulate-market", "report"):
            # game-solve takes one common beta or one beta per agent
            betas = c.add_mutually_exclusive_group() if name == "game-solve" else c
            betas.add_argument("--beta", type=float, default=0.99)
        if name == "game-solve":
            betas.add_argument("--beta-per-agent", metavar="LIST",
                               help="comma-separated per-agent weights, e.g. a=0.9,b=0.5")
        if name in ("verify-optimism", "report"):
            c.add_argument("--fbar", type=float, default=None,
                           help="optimism threshold (default: highest first-order value)")
        if name in ("simulate-market", "report"):
            c.add_argument("--runs", type=count,
                           default=1 if name == "simulate-market" else 0)
            c.add_argument("--seed", type=count, default=0)
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


#: Characters per read when an artifact's bytes are copied back to stdout.
_CHUNK = 1 << 16


def _emit(args, out, name, pieces):
    """Write the strings ``pieces`` to the ``--out`` artifact ``name`` (if
    any), then to stdout for ``--format csv``.  With both, stdout gets the
    artifact's text read back in chunks of ``_CHUNK`` characters, after
    :func:`_artifact` has closed it: a closed stdout is not an ``--out``
    failure, and no more than a piece or a chunk is held at once."""
    if name is not None and args.out:
        with _artifact(args, name) as fh:
            fh.writelines(pieces)
        if args.format == "csv":
            # newline="": the text as written, with no newline translation
            with open(fh.name, encoding="utf-8", newline="") as back:
                shutil.copyfileobj(back, out, _CHUNK)
    elif args.format == "csv":
        out.writelines(pieces)


def _table(args, out, header: str, rows, name=None):
    """Write ``rows`` (sequences of cells) under ``header`` as CSV through
    :func:`_emit`, formatted once and only when something reads it."""
    if args.format == "csv" or (name is not None and args.out):
        text = "".join([f"{header}\n", *(",".join(r) + "\n" for r in rows)])
        _emit(args, out, name, (text,))


def _pairs(out, pairs, indent=""):
    """Write ``key = value`` text lines."""
    out.write("".join(f"{indent}{k} = {v}\n" for k, v in pairs))


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
        matrices = [("interaction", labels, structure.rows),
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
        if check.holds and result.value is not None:
            decomposition = verify_cps_decomposition(model)
            rows.append(("cps_decomposition_gap", "", fmt(decomposition.gap)))
        else:
            rows.append(("prior_stationarity_residual", "", fmt(check.residual)))
    except (CapabilityError, PreconditionError):
        pass
    _table(args, out, "kind,label,value", rows, "consensus.csv")
    if args.format != "csv":
        _pairs(out, ((f"{kind} {label}" if label else kind, value)
                     for kind, label, value in rows))
        if decomposition is not None:
            out.write(
                "decomposition check "
                + ("PASS" if decomposition.passed else "FAIL")
                + "\n"
            )
    return 0


def _parse_beta_per_agent(raw: str, model: ModelSpec) -> np.ndarray:
    parts = [p for p in raw.split(",") if p]
    if all("=" in p for p in parts):
        given = {}
        for p in parts:
            name, _, val = p.partition("=")
            if name not in model.agents:
                raise PreconditionError(f"--beta-per-agent: unknown agent {name!r}")
            if name in given:
                raise PreconditionError(f"--beta-per-agent: repeated agent {name!r}")
            given[name] = val
        missing = [a for a in model.agents if a not in given]
        if missing:
            raise PreconditionError(f"--beta-per-agent: missing agent(s) {missing}")
        parts = [given[a] for a in model.agents]
    elif len(parts) != model.n_agents:
        raise PreconditionError(
            f"--beta-per-agent: expected {model.n_agents} values"
        )
    try:
        return np.array([float(p) for p in parts])
    except ValueError:
        raise PreconditionError(f"--beta-per-agent: expected numbers, got {raw!r}") from None


def cmd_game(args, scenario, out) -> int:
    model = _as_model(scenario)
    if getattr(args, "beta_per_agent", None):
        betas = _parse_beta_per_agent(args.beta_per_agent, model)
        solution = solve_heterogeneous_game(model, betas)
        header = f"heterogeneous betas, common beta {fmt(float(betas.max()))}\n"
    else:
        solution = solve_beta_game(model, args.beta)
        header = f"beta {fmt(args.beta)}\n"
    actions = [(lab, fmt(a)) for lab, a in zip(solution.labels, solution.actions)]
    _table(args, out, "signal,action", actions, "actions.csv")
    if args.format != "csv":
        out.write(f"{header}actions\n")
        _pairs(out, actions, "  ")
        _pairs(out, [("fixed-point residual", fmt(solution.residual))])
    return 0


def _summary_rows(stats):
    yield "runs", "", str(stats.n_runs)
    yield "trades", "", str(stats.n_trades)
    if stats.mean_price is not None:
        yield "mean_price", "", fmt(stats.mean_price)
        yield "price_se", "", fmt(stats.price_se)
    yield "mean_duration", "", fmt(stats.mean_duration)
    for a, m in stats.class_means.items():
        yield "class_mean_price", a, fmt(m)


def _event_rows(model, kernel, durations, paths, signals):
    """The text of ``events.csv``, the header and then one string per run
    with trades, formatted as it is read from ``paths`` (the holder paths
    end to end, ``durations[k]`` entries for run k) and ``signals`` (each
    class's signal index, a row per run), both ``intp`` bytes.  Each run's
    rows are one join of its "run," lead, then per trade a shared period
    prefix and a (seller, buyer) suffix that carries the next row's lead."""
    yield "run,period,seller,buyer,price,buyer_signal\n"
    agents, n = model.agents, model.n_agents
    holders = np.frombuffer(paths, dtype=np.intp)
    sigs = np.frombuffer(signals, dtype=np.intp).reshape(len(durations), n)
    # price and signal columns of a buy at each signal
    tails = [f"{fmt(float(a))},{lab}\n" for a, lab in zip(kernel.actions, kernel.labels)]
    # "t," for periods 1, 2, ...; grown only by a run longer than any before
    periods = []
    end = 0
    for k, duration in enumerate(durations.tolist()):
        path = holders[end:end + duration]
        end += duration
        trades = duration - 1
        if not trades:
            continue
        lead = f"{k},"
        # "seller,buyer,price,signal\n" and the next lead, at seller * n + buyer
        suffixes = np.array([f"{seller},{buyer},{tails[s]}{lead}" for seller in agents
                             for buyer, s in zip(agents, sigs[k].tolist())], dtype=object)
        periods.extend(f"{t}," for t in range(len(periods) + 1, trades + 1))
        parts = [lead] * (2 * trades + 1)
        parts[1::2] = periods[:trades]
        parts[2::2] = suffixes[path[:-1] * n + path[1:]].tolist()
        parts[-1] = parts[-1][:-len(lead)]
        yield "".join(parts)


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
    # each run's path and signals, 8 bytes a holder and no object a run; the
    # summary comes first, so a refused one writes no row
    paths, signals = bytearray(), bytearray()
    keep = None
    if args.format == "csv" or args.out:
        def keep(profile, path):
            paths.extend(path.tobytes())
            signals.extend(kernel.signals(profile).tobytes())

    batch = kernel.batch(np.random.SeedSequence(args.seed), args.runs, keep)
    stats = empirical_price_stats(batch)
    if keep is not None:
        _emit(args, out, "events.csv",
              _event_rows(model, kernel, batch.durations, paths, signals))
    _table(args, out, "stat,label,value", _summary_rows(stats), "summary.csv")
    if args.format != "csv":
        out.write(f"{stats.n_runs} runs, {stats.n_trades} trades\n")
        if stats.mean_price is not None:
            _pairs(out, [("mean price", f"{fmt(stats.mean_price)} (se {fmt(stats.price_se)})")])
        _pairs(out, [("mean duration", fmt(stats.mean_duration))])
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
    _table(args, out, "field,value", rows)
    if args.format != "csv":
        _pairs(out, rows)
        if report.hypotheses_hold:
            ok = report.consensus >= report.bound - 1e-9
            out.write("optimism bound " + ("PASS" if ok else "FAIL") + "\n")
    return 0


def cmd_tyranny(args, scenario, out) -> int:
    if not isinstance(scenario, CISSpec):
        raise PreconditionError(
            "verify-tyranny needs a common-interpretation scenario (kind: cis)"
        )
    report = verify_tyranny(scenario, tol=args.tol)
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
    _table(args, out, "field,value", rows)
    if args.format != "csv":
        _pairs(out, rows)
        out.write("tyranny bound " + ("PASS" if report.passed else "FAIL") + "\n")
    return 0


def cmd_no_trade(args, scenario, out) -> int:
    structure = _as_model(scenario).structure
    result = no_trade_test(structure)
    payments = ([(lab, fmt(x)) for lab, x in zip(structure.index.labels, result.trade)]
                if result.has_trade else [])
    _table(args, out, "field,value", [
        ("trade_found", str(result.has_trade)),
        ("reducible", str(result.reducible)),
        ("objective", fmt(result.objective)),
        *((f"payment.{lab}", x) for lab, x in payments),
    ])
    if args.format != "csv":
        out.write(f"reducible: {result.reducible}\n")
        if result.has_trade:
            out.write("strictly profitable separable trade found\npayments\n")
            _pairs(out, payments, "  ")
        else:
            out.write("no strictly profitable separable trade exists\n")
    return 0


def cmd_report(args, scenario, out) -> int:
    failed = []

    def section(title, fn):
        out.write(f"== {title} ==\n")
        try:
            fn()
        except (PreconditionError, CapabilityError) as exc:
            out.write(f"not applicable: {exc}\n")
        except ArithmeticError as exc:
            out.write(f"numerical check failed: {exc}\n")
            failed.append(exc)

    section("structure", lambda: cmd_build(args, scenario, out))
    section("consensus", lambda: cmd_consensus(args, scenario, out))
    if scenario.y is not None:
        section("game", lambda: cmd_game(args, scenario, out))
    section("optimism", lambda: cmd_optimism(args, scenario, out))
    section("no-trade", lambda: cmd_no_trade(args, scenario, out))
    if isinstance(scenario, CISSpec):
        section("tyranny", lambda: cmd_tyranny(args, scenario, out))
    if getattr(args, "runs", 0):
        section("market", lambda: cmd_market(args, scenario, out))
    if failed:
        # main reports the first failed gate on stderr, with exit 3
        raise failed[0]
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


@functools.cache
def _parser() -> _Parser:
    """The process's one parser; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = _parser()
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
    except ArithmeticError as exc:
        # a residual gate: the numbers were computed and failed their check
        print(f"numerical check failed: {exc}", file=sys.stderr)
        return 3


def entry():
    # Python's SIGPIPE recipe: a reader that closes stdout early (``| head``)
    # ends the command quietly with the shell's code for it.  The flush in
    # the try catches a close during the last buffered write; devnull on
    # stdout's descriptor leaves the flush at exit nothing to fail on.
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    entry()
