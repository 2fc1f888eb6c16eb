"""Scenario files and CSV export.

A scenario is a JSON object discriminated by its top-level ``kind``:
``general`` (default) carries explicit interim beliefs, ``cis`` carries a
common-interpretation model (state priors plus signal technologies).
Unknown keys are rejected everywhere; error messages carry the file name
and the JSON path of the offending field.  Marginal-mode beliefs are parsed
in one pass into one stack per counterpart width (:class:`Beliefs`).
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Any, Iterable

import numpy as np

from .errors import ScenarioError
from .interaction import SparseRows
from .model import BasicVariable, Beliefs, InterimBelief, ModelSpec, Network, stacked
from .tyranny import CISSpec

#: Round-trippable float formatting used in every CSV cell.
FLOAT_FORMAT = "{:.17g}"


def fmt(x: float) -> str:
    return FLOAT_FORMAT.format(float(x))


def _fail(ctx: str, msg: str):
    raise ScenarioError(f"{ctx}: {msg}")


def _expect(obj, typ, ctx, what):
    if not isinstance(obj, typ):
        _fail(ctx, f"expected {what}, got {type(obj).__name__}")
    return obj


def _take(mapping: dict, ctx: str, required: Iterable[str], optional: Iterable[str] = ()):
    allowed = {*required, *optional}
    if not mapping.keys() <= allowed:
        unknown = sorted(set(mapping) - allowed)
        _fail(ctx, f"unknown key(s) {unknown}; allowed: {sorted(allowed)}")
    for k in required:
        if k not in mapping:
            _fail(ctx, f"missing required key {k!r}")
    return mapping


def _number(obj, ctx) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        _fail(ctx, f"expected a number, got {type(obj).__name__}")
    try:
        return float(obj)
    except OverflowError:
        _fail(ctx, "integer too large for a float")


def _labels(obj, ctx) -> tuple[str, ...]:
    _expect(obj, list, ctx, "a list of labels")
    if not set(map(type, obj)) <= {str}:
        for k, item in enumerate(obj):
            _expect(item, str, f"{ctx}[{k}]", "a string label")
    return tuple(obj)


def _numbers(obj, ctx, n) -> None:
    """Check that ``obj`` is a list of ``n`` numbers (any length when ``n``
    is None); a bad entry is refused with its JSON path by :func:`_number`.

    A list of floats alone is cleared at once.  Any other entry type sends
    every entry through :func:`_number`: ``bool`` and non-numbers are
    refused, and so is an integer beyond the float range.
    """
    _expect(obj, list, ctx, "a list of numbers")
    if n is not None and len(obj) != n:
        _fail(ctx, f"expected {n} entries, got {len(obj)}")
    if not set(map(type, obj)) <= {float}:
        for k, x in enumerate(obj):
            _number(x, f"{ctx}[{k}]")


def _vector(obj, ctx, n=None) -> np.ndarray:
    _numbers(obj, ctx, n)
    return np.array(obj, dtype=float)


def _matrix(obj, ctx, shape) -> np.ndarray:
    _expect(obj, list, ctx, "a list of rows")
    if len(obj) != shape[0]:
        _fail(ctx, f"expected {shape[0]} rows, got {len(obj)}")
    for k, r in enumerate(obj):
        _numbers(r, f"{ctx}[{k}]", shape[1])
    return np.array(obj, dtype=float)


def _parse_network(obj, ctx, n) -> Network:
    if isinstance(obj, list):
        return Network(_matrix(obj, ctx, (n, n)))
    _expect(obj, dict, ctx, "a weight matrix or an object")
    _take(obj, ctx, ["weights"], ["diagonal_allowed"])
    return Network(
        _matrix(obj["weights"], f"{ctx}.weights", (n, n)),
        _expect(obj.get("diagonal_allowed", False), bool, f"{ctx}.diagonal_allowed", "a boolean"),
    )


def _parse_y(obj, ctx, states) -> BasicVariable:
    _expect(obj, dict, ctx, "an object with values and max")
    _take(obj, ctx, ["values", "max"])
    vals = obj["values"]
    if isinstance(vals, dict):
        unknown = sorted(set(vals) - set(states))
        if unknown:
            _fail(f"{ctx}.values", f"unknown state(s) {unknown}")
        missing = [s for s in states if s not in vals]
        if missing:
            _fail(f"{ctx}.values", f"missing state(s) {missing}")
        vec = np.array([_number(vals[s], f"{ctx}.values.{s}") for s in states])
    else:
        vec = _vector(vals, f"{ctx}.values", len(states))
    if not np.isfinite(vec).all():
        _fail(f"{ctx}.values", "every value must be finite")
    bound = _number(obj["max"], f"{ctx}.max")
    if not np.isfinite(bound):
        _fail(f"{ctx}.max", "must be finite")
    return BasicVariable(vec, bound)


def _parse_belief(obj, ctx, agents, signals, states, owner) -> InterimBelief:
    _expect(obj, dict, ctx, "an object")
    _take(obj, ctx, [], ["marginals", "full"])
    if "full" in obj and "marginals" in obj:
        _fail(ctx, "give either marginals or full, not both")
    if "full" in obj:
        # each entry's p is added to its state and to each counterpart's
        # signal, in entry order: the marginals of the joint, which is
        # never built
        others = [a for a in agents if a != owner]
        entries = _expect(obj["full"], list, f"{ctx}.full", "a list of entries")
        state = np.zeros(len(states))
        marginals = {j: np.zeros(len(signals[j])) for j in others}
        for k, ent in enumerate(entries):
            ectx = f"{ctx}.full[{k}]"
            _expect(ent, dict, ectx, "an object")
            _take(ent, ectx, ["state", "others", "p"])
            if ent["state"] not in states:
                _fail(ectx, f"unknown state {ent['state']!r}")
            oth = _expect(ent["others"], dict, f"{ectx}.others", "an object")
            for j in others:
                if j not in oth:
                    _fail(f"{ectx}.others", f"missing signal for agent {j}")
                if oth[j] not in signals[j]:
                    _fail(f"{ectx}.others", f"unknown signal {oth[j]!r} for {j}")
            extra = sorted(set(oth) - set(others))
            if extra:
                _fail(f"{ectx}.others", f"unexpected agent(s) {extra}")
            p = _number(ent["p"], f"{ectx}.p")
            # a negative entry could hide in a marginal that sums it away
            if not p >= 0:
                _fail(f"{ectx}.p", f"expected a probability >= 0, got {p!r}")
            state[states.index(ent["state"])] += p
            for j in others:
                marginals[j][signals[j].index(oth[j])] += p
        return InterimBelief(state, marginals)
    if "marginals" not in obj:
        _fail(ctx, "belief needs either marginals or full")
    m = _expect(obj["marginals"], dict, f"{ctx}.marginals", "an object")
    _take(m, f"{ctx}.marginals", ["state"], ["signals"])
    state_marginal = m["state"]
    _numbers(state_marginal, f"{ctx}.marginals.state", len(states))
    sig = m.get("signals", {})
    _expect(sig, dict, f"{ctx}.marginals.signals", "an object")
    for j, vec in sig.items():
        # ``signals`` is keyed by the agents
        if j == owner or j not in signals:
            _fail(f"{ctx}.marginals.signals", f"{j!r} is not another agent")
        _numbers(vec, f"{ctx}.marginals.signals.{j}", len(signals[j]))
    # the belief turns each screened list into a read-only array
    return InterimBelief(state_marginal, sig)


def _screened_rows(lists, n) -> np.ndarray | None:
    """One array with a row per list, when every entry of ``lists`` is a
    list of ``n`` numbers that :func:`_numbers` clears; else None."""
    if (set(map(type, lists)) <= {list} and set(map(len, lists)) <= {n}
            and set(map(type, chain.from_iterable(lists))) <= {float, int}):
        try:
            return np.fromiter(chain.from_iterable(lists), float, len(lists) * n).reshape(-1, n)
        except OverflowError:
            pass
    return None


def _belief_blocks(bl, agents, signals, n_states) -> Beliefs | None:
    """The beliefs as :class:`Beliefs`, one :func:`_screened_rows` call per
    stack and one for the state table; None when one fails that screen or is
    in full mode: the per-signal parse then names the first error or sums it."""
    labels = [t for a in agents for t in signals[a]]
    try:
        objs = [bl[t] for t in labels]
        ms = [o["marginals"] for o in objs]
        states = [m["state"] for m in ms]
        sigs = [m.get("signals", {}) for m in ms]
    except (KeyError, TypeError):
        # a missing belief, or an entry that is not an object
        return None
    if not (set(map(len, objs)) <= {1}
            and set(chain.from_iterable(ms)) <= {"state", "signals"}
            and set(map(type, sigs)) <= {dict}):
        return None
    stacks, states = stacked(agents, signals, sigs), _screened_rows(states, n_states)
    for width, stack in (stacks or {}).items():
        stack[3] = _screened_rows(stack[3], width)
    if stacks is None or states is None or any(stack[3] is None for stack in stacks.values()):
        return None
    return Beliefs(agents, signals, n_states, states, stacks,
                   dict(zip(labels, map(tuple, sigs))))


def _parse_signals(obj, ctx, agents) -> dict[str, tuple[str, ...]]:
    _expect(obj, dict, ctx, "an object keyed by agent")
    unknown = sorted(set(obj) - set(agents))
    if unknown:
        _fail(ctx, f"unknown agent(s) {unknown}")
    out = {}
    for a in agents:
        if a not in obj:
            _fail(ctx, f"missing signals for agent {a}")
        out[a] = _labels(obj[a], f"{ctx}.{a}")
    return out


def parse_scenario(data: Any, ctx: str = "scenario"):
    """Parse an already-decoded scenario object into a model."""
    _expect(data, dict, ctx, "a JSON object")
    kind = data.get("kind", "general")
    if kind == "general":
        _take(
            data,
            ctx,
            ["states", "agents", "signals", "beliefs", "network"],
            ["kind", "priors", "y"],
        )
        states = _labels(data["states"], f"{ctx}.states")
        agents = _labels(data["agents"], f"{ctx}.agents")
        signals = _parse_signals(data["signals"], f"{ctx}.signals", agents)
        bl = _expect(data["beliefs"], dict, f"{ctx}.beliefs", "an object")
        all_signals = {t: a for a in agents for t in signals[a]}
        unknown = sorted(set(bl) - set(all_signals))
        if unknown:
            _fail(f"{ctx}.beliefs", f"unknown signal(s) {unknown}")
        beliefs = None
        if len(all_signals) == sum(len(signals[a]) for a in agents):
            beliefs = _belief_blocks(bl, agents, signals, len(states))
        if beliefs is None:
            # one signal at a time, so that the first error in declaration
            # order is the one reported; the spec stacks the beliefs
            beliefs = {}
            for t, owner in all_signals.items():
                if t not in bl:
                    _fail(f"{ctx}.beliefs", f"missing belief for signal {t}")
                beliefs[t] = _parse_belief(
                    bl[t], f"{ctx}.beliefs.{t}", agents, signals, states, owner
                )
        network = _parse_network(data["network"], f"{ctx}.network", len(agents))
        priors = None
        if "priors" in data:
            pr = _expect(data["priors"], dict, f"{ctx}.priors", "an object")
            unknown = sorted(set(pr) - set(agents))
            if unknown:
                _fail(f"{ctx}.priors", f"unknown agent(s) {unknown}")
            priors = {
                a: _vector(v, f"{ctx}.priors.{a}", len(signals[a]))
                for a, v in pr.items()
            }
        y = _parse_y(data["y"], f"{ctx}.y", states) if "y" in data else None
        return ModelSpec(states, agents, signals, beliefs, network, priors, y)
    if kind == "cis":
        _take(
            data,
            ctx,
            ["states", "agents", "signals", "rho", "eta", "network"],
            ["kind", "y"],
        )
        states = _labels(data["states"], f"{ctx}.states")
        agents = _labels(data["agents"], f"{ctx}.agents")
        signals = _parse_signals(data["signals"], f"{ctx}.signals", agents)
        rho_obj = _expect(data["rho"], dict, f"{ctx}.rho", "an object")
        eta_obj = _expect(data["eta"], dict, f"{ctx}.eta", "an object")
        rho = {}
        eta = {}
        for a in agents:
            if a not in rho_obj:
                _fail(f"{ctx}.rho", f"missing prior for agent {a}")
            if a not in eta_obj:
                _fail(f"{ctx}.eta", f"missing technology for agent {a}")
            rho[a] = _vector(rho_obj[a], f"{ctx}.rho.{a}", len(states))
            eta[a] = _matrix(
                eta_obj[a], f"{ctx}.eta.{a}", (len(states), len(signals[a]))
            )
        network = _parse_network(data["network"], f"{ctx}.network", len(agents))
        y = _parse_y(data["y"], f"{ctx}.y", states) if "y" in data else None
        return CISSpec(states, agents, signals, rho, eta, network, y)
    _fail(f"{ctx}.kind", f"unknown kind {kind!r} (expected 'general' or 'cis')")


def load_scenario(path):
    """Load and parse a scenario file; raises ScenarioError with context."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_scenario(data, ctx=str(path))


def write_matrix_csv(fh, row_labels, col_labels, matrix, prefix=None):
    """Triplet CSV (row, col, value) with a header line.

    With a ``prefix``, every line starts with it and the header is left to
    the caller, who may stream several matrices under one header.

    ``matrix`` is a structure's :class:`~consensus_lab.interaction.SparseRows`,
    whose stored cells are those whose float64 bits are nonzero, or a 2-D
    array, cut to the labels and stored by that rule; so ``-0.0`` and
    ``0.0`` stay apart. Each row starts from a template filled with ``0.0``
    and only the stored cells are replaced; each distinct value is
    formatted once. So the Python work grows with the rows and the stored
    cells, not with every cell.

    Each row's lines go to ``fh`` as soon as they are formed, so the text
    held at once is one row's, next to the stored cells and their distinct
    values; ``fh`` does its own buffering.
    """
    if not isinstance(matrix, SparseRows):
        matrix = np.asarray(matrix, dtype=np.float64)
        matrix = SparseRows.of(matrix[: len(row_labels), : len(col_labels)])
    if prefix is None:
        fh.write("row,col,value\n")
    if not len(col_labels):
        return
    lead = prefix or ""
    distinct, keys = np.unique(matrix.data.view(np.uint64), return_inverse=True)
    texts = [fmt(v) + "\n" for v in distinct.view(np.float64).tolist()]
    bounds = matrix.indptr.tolist()
    cols = matrix.indices.tolist()
    keys = keys.tolist()
    heads = [f"{c}," for c in col_labels]
    zero = fmt(0.0) + "\n"
    template = [h + zero for h in heads]
    for i, r in enumerate(row_labels):
        cells = template.copy()
        for k in range(bounds[i], bounds[i + 1]):
            j = cols[k]
            cells[j] = heads[j] + texts[keys[k]]
        p = f"{lead}{r},"
        fh.write(p + p.join(cells))
