"""Span recorder that wraps the package's public functions from outside.

The package modules import one another's functions by name (for example
``consensus`` holds its own reference to ``build_interaction_structure``),
so wrapping a function means replacing every module attribute that refers
to it.  Spans stay in memory; :meth:`Tracer.per_layer` reduces them when
the run ends.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

#: Layers are the package modules; each lists the public functions that get
#: a span.  Per-cell helpers such as ``io.fmt`` are left out on purpose: a
#: single report on a large model calls them millions of times.
TRACED = {
    "io": ["load_scenario", "write_matrix_csv"],
    "model": ["validate_model"],
    "interaction": [
        "build_interaction_structure",
        "build_first_order_map",
        "strongly_connected_components",
        "component_period",
        "absorbing_components",
        "joint_connectedness",
    ],
    "spectral": ["stationary_distribution", "eigenvector_centrality", "mfpt"],
    "consensus": [
        "first_order_vector",
        "consensus_expectation",
        "pseudopriors",
        "cps_check",
        "verify_cps_decomposition",
    ],
    "game": ["solve_beta_game"],
    "optimism": ["optimism_hypotheses"],
    "trade": ["no_trade_test"],
    "tyranny": [
        "validate_cis",
        "build_pi_from_cis",
        "classify_noise",
        "rounded_structure",
        "stationary_perturbation_bound",
        "verify_tyranny",
    ],
    "market": [
        "product_generating",
        "cis_generating",
        "simulate_market",
        "simulate_batch",
        "empirical_price_stats",
    ],
    "cli": ["main"],
}

LAYERS = list(TRACED)


class Tracer:
    """Records (name, start, end, parent, op) spans in one thread."""

    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list[int] = []
        self._patched: list = []

    def span(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[sid] = (name, start, end, parent, self.op)

        return traced

    def install(self):
        """Wrap every function in :data:`TRACED` and each CLI subcommand
        handler (as ``cli.<subcommand>``) at all of their import sites."""
        mods = {m: importlib.import_module(f"consensus_lab.{m}") for m in LAYERS}
        wrapped = {}
        for layer, names in TRACED.items():
            for n in names:
                fn = getattr(mods[layer], n)
                wrapped[id(fn)] = (fn, self.span(f"{layer}.{n}", fn))
        handlers = mods["cli"]._HANDLERS
        for sub, fn in handlers.items():
            wrapped[id(fn)] = (fn, self.span(f"cli.{sub}", fn))
        package = importlib.import_module("consensus_lab")
        for table in [handlers, vars(package)] + [vars(m) for m in mods.values()]:
            for key, val in list(table.items()):
                if id(val) in wrapped and wrapped[id(val)][0] is val:
                    table[key] = wrapped[id(val)][1]
                    self._patched.append((table, key, val))

    def uninstall(self):
        for table, key, old in reversed(self._patched):
            table[key] = old
        self._patched.clear()

    def per_layer(self) -> dict[str, dict]:
        """Calls and self time per span name, and self time per layer.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because every call runs in this
        thread.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        layer_s: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            own = end - start - child[k]
            calls[name] += 1
            self_s[name] += own
            layer_s[name.split(".")[0]] += own
        return {"calls": dict(calls), "self_s": dict(self_s), "layer_self_s": dict(layer_s)}
