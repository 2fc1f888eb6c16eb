import json
import tracemalloc
from io import StringIO

import numpy as np
import pytest

from consensus_lab.errors import ScenarioError
from consensus_lab.interaction import build_interaction_structure
from consensus_lab.io import (
    _belief_blocks, _parse_belief, fmt, load_scenario, parse_scenario, write_matrix_csv,
)
from consensus_lab.model import Beliefs, ModelSpec, Network

from conftest import (
    bench_gen, pair_rows, same_layout, scenario_object, scenario_path, sparse_reducible_model,
)


def per_cell_csv(rows, cols, matrix, prefix=None):
    """The writer's contract, one format call per cell."""
    head = "row,col,value\n" if prefix is None else ""
    return head + "".join(
        f"{prefix or ''}{r},{c},{fmt(matrix[i, j])}\n"
        for i, r in enumerate(rows) for j, c in enumerate(cols)
    )


SPECIAL = [0.0, -0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300,
           0.1 + 0.2, 0.3, 1.0, 1 / 3, np.nextafter(1.0, 2.0)]


def special_matrix(rng, shape):
    """Cells drawn from the special values and a few random ones, so values
    repeat, with all-zero rows (one of them negative zero)."""
    pool = np.array(SPECIAL + rng.random(4).tolist())
    m = pool[rng.integers(len(pool), size=shape)]
    m[rng.random(shape) < 0.5] = 0.0
    m[0] = 0.0
    if shape[0] > 2:
        m[2] = -0.0
    return m


def random_matrices():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        yield special_matrix(rng, (n, n))
        yield special_matrix(rng, (n, int(rng.integers(1, 5))))  # F-shaped
    yield np.random.default_rng(9).random((12, 12))  # every cell distinct


def sparse_matrices():
    spec = sparse_reducible_model(np.random.default_rng(4), 40, 10)
    labels = spec.structure.index.labels
    yield labels, labels, spec.structure.matrix
    yield labels, spec.states, spec.first_order.matrix


CASES = [([f"r{i}" for i in range(m.shape[0])], [f"c{j}" for j in range(m.shape[1])], m)
         for m in random_matrices()]


@pytest.mark.parametrize("prefix", [None, "interaction,"])
def test_writer_matches_per_cell_formatting(prefix):
    for rows, cols, matrix in CASES + list(sparse_matrices()):
        fh = StringIO()
        write_matrix_csv(fh, rows, cols, matrix, prefix=prefix)
        assert fh.getvalue() == per_cell_csv(rows, cols, matrix, prefix)


def test_writer_keeps_negative_zero_apart():
    fh = StringIO()
    write_matrix_csv(fh, ["r"], ["a", "b", "c"], np.array([[0.0, -0.0, 0.0]]))
    assert fh.getvalue() == "row,col,value\nr,a,0\nr,b,-0\nr,c,0\n"


def test_writer_truncates_to_the_labels():
    rng = np.random.default_rng(5)
    matrix = special_matrix(rng, (8, 6))
    rows, cols = ["a", "b", "c"], ["x", "y"]
    fh = StringIO()
    write_matrix_csv(fh, rows, cols, matrix)
    assert fh.getvalue() == per_cell_csv(rows, cols, matrix)


class _RecordedWrites:
    """A text sink that keeps, per ``write``, its line count and the
    distinct row labels its lines start with."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        lines = text.splitlines()
        self.writes.append((len(lines), {line.split(",", 1)[0] for line in lines}))


def test_writer_streams_one_row_at_a_time(tmp_path):
    # the benchmark's 1000-signal sparse model: B's 10^6 triplets are about
    # 26 MB of text, which the writer never holds at once
    spec = parse_scenario(bench_gen().sparse_reducible(np.random.default_rng(1)))
    labels, matrix = spec.structure.index.labels, spec.structure.matrix
    with open(tmp_path / "interaction.csv", "w", encoding="utf-8") as fh:
        tracemalloc.start()
        try:
            write_matrix_csv(fh, labels, labels, matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2 * 2**20
    sink = _RecordedWrites()
    write_matrix_csv(sink, labels, labels, matrix)
    assert sink.writes[0] == (1, {"row"})
    assert [lines for lines, _ in sink.writes[1:]] == [len(labels)] * len(labels)
    assert [heads for _, heads in sink.writes[1:]] == [{r} for r in labels]


def _set(path, value):
    """An edit that sets the value at a key path of a scenario."""
    def edit(d):
        for key in path[:-1]:
            d = d[key]
        d[path[-1]] = value
    return edit


def _drop(path):
    def edit(d):
        for key in path[:-1]:
            d = d[key]
        del d[path[-1]]
    return edit


A1 = ["beliefs", "a1", "marginals"]
FULL0 = ["beliefs", "a1", "full", 0]

#: (scenario, edit, message with the file name as ``<file>``).  Each message
#: is the one the per-signal parser gave, except those marked ``number
#: rule``: a list of numbers refuses strings, booleans and other non-numbers
#: as a single number does, naming the entry's path.
CORRUPTED = [
    ("cycle", _set(A1 + ["signals", "one"], [1, 0]),
     "<file>.beliefs.a1.marginals.signals: 'one' is not another agent"),
    ("cycle", _set(A1 + ["signals", "ghost"], [1]),
     "<file>.beliefs.a1.marginals.signals: 'ghost' is not another agent"),
    ("cycle", _set(A1 + ["state"], [1]),
     "<file>.beliefs.a1.marginals.state: expected 2 entries, got 1"),
    ("cycle", _set(A1 + ["state"], "x"),
     "<file>.beliefs.a1.marginals.state: expected a list of numbers, got str"),
    ("cycle", _set(A1 + ["state"], [1, None]),  # number rule
     "<file>.beliefs.a1.marginals.state[1]: expected a number, got NoneType"),
    ("cycle", _set(A1 + ["state"], [1, "0"]),  # number rule
     "<file>.beliefs.a1.marginals.state[1]: expected a number, got str"),
    ("cycle", _set(A1 + ["state"], [True, 0]),  # number rule
     "<file>.beliefs.a1.marginals.state[0]: expected a number, got bool"),
    ("cycle", _set(A1 + ["state"], [[1], 0]),  # number rule
     "<file>.beliefs.a1.marginals.state[0]: expected a number, got list"),
    ("cycle", _set(A1 + ["signals", "two"], [0, False]),  # number rule
     "<file>.beliefs.a1.marginals.signals.two[1]: expected a number, got bool"),
    ("cycle", _set(A1 + ["signals"], []),
     "<file>.beliefs.a1.marginals.signals: expected an object, got list"),
    ("cycle", _drop(A1 + ["state"]),
     "<file>.beliefs.a1.marginals: missing required key 'state'"),
    ("cycle", _set(A1 + ["extra"], 1),
     "<file>.beliefs.a1.marginals: unknown key(s) ['extra']; allowed: ['signals', 'state']"),
    ("cycle", _set(["beliefs", "a1"], []),
     "<file>.beliefs.a1: expected an object, got list"),
    ("cycle", _set(["beliefs", "a1", "full"], []),
     "<file>.beliefs.a1: give either marginals or full, not both"),
    ("cycle", _set(["beliefs", "a1"], {}),
     "<file>.beliefs.a1: belief needs either marginals or full"),
    ("cycle", _drop(["beliefs", "a1"]),
     "<file>.beliefs: missing belief for signal a1"),
    ("cycle", _set(["beliefs", "zz"], {}),
     "<file>.beliefs: unknown signal(s) ['zz']"),
    ("cycle", _set(["network"], [[0, 1, 0], [0, 0, 1]]),
     "<file>.network: expected 3 rows, got 2"),
    ("cycle", _set(["network", 1], [0, 1]),
     "<file>.network[1]: expected 3 entries, got 2"),
    ("cycle", _set(["network", 0], 1),
     "<file>.network[0]: expected a list of numbers, got int"),
    ("cycle", _set(["network", 2, 1], "0"),  # number rule
     "<file>.network[2][1]: expected a number, got str"),
    ("cycle", _set(["network"], {"weights": [[0, 1, 0]] * 3, "bogus": 1}),
     "<file>.network: unknown key(s) ['bogus']; allowed: ['diagonal_allowed', 'weights']"),
    ("cycle", _set(["network"], {"weights": [[0, 1, 0]] * 2}),
     "<file>.network.weights: expected 3 rows, got 2"),
    ("cycle", _set(["network"], "x"),
     "<file>.network: expected a weight matrix or an object, got str"),
    ("cycle", _set(["states"], "s"),
     "<file>.states: expected a list of labels, got str"),
    ("cycle", _set(["agents"], [1, "two", "three"]),
     "<file>.agents[0]: expected a string label, got int"),
    ("cycle", _drop(["signals", "three"]),
     "<file>.signals: missing signals for agent three"),
    ("cycle", _set(["signals", "four"], []),
     "<file>.signals: unknown agent(s) ['four']"),
    ("cycle", _set(["signals", "one"], ["a1", 2]),
     "<file>.signals.one[1]: expected a string label, got int"),
    ("cycle", _set(["y", "values"], {"s0": 1}),
     "<file>.y.values: missing state(s) ['s1']"),
    ("cycle", _set(["y", "values"], {"s0": 1, "s1": 0, "s9": 0}),
     "<file>.y.values: unknown state(s) ['s9']"),
    ("cycle", _set(["y", "values"], {"s0": 1, "s1": True}),
     "<file>.y.values.s1: expected a number, got bool"),
    ("cycle", _set(["y", "values"], [1]),
     "<file>.y.values: expected 2 entries, got 1"),
    ("cycle", _set(["y", "values"], [1, True]),  # number rule
     "<file>.y.values[1]: expected a number, got bool"),
    ("cycle", _set(["y", "max"], "1"),
     "<file>.y.max: expected a number, got str"),
    ("cycle", _set(["y", "extra"], 1),
     "<file>.y: unknown key(s) ['extra']; allowed: ['max', 'values']"),
    ("cycle", _set(["kind"], "odd"),
     "<file>.kind: unknown kind 'odd' (expected 'general' or 'cis')"),
    ("cycle", _set(["extra"], 1),
     "<file>: unknown key(s) ['extra']; allowed: ['agents', 'beliefs', 'kind',"
     " 'network', 'priors', 'signals', 'states', 'y']"),
    ("cycle", _drop(["network"]),
     "<file>: missing required key 'network'"),
    ("cps", _set(FULL0 + ["state"], "nowhere"),
     "<file>.beliefs.a1.full[0]: unknown state 'nowhere'"),
    ("cps", _set(FULL0 + ["others"], {}),
     "<file>.beliefs.a1.full[0].others: missing signal for agent bob"),
    ("cps", _set(FULL0 + ["others"], []),
     "<file>.beliefs.a1.full[0].others: expected an object, got list"),
    ("cps", _set(FULL0 + ["others", "bob"], "zz"),
     "<file>.beliefs.a1.full[0].others: unknown signal 'zz' for bob"),
    ("cps", _set(FULL0 + ["others", "eve"], "b1"),
     "<file>.beliefs.a1.full[0].others: unexpected agent(s) ['eve']"),
    ("cps", _set(FULL0 + ["p"], "lots"),
     "<file>.beliefs.a1.full[0].p: expected a number, got str"),
    ("cps", _set(FULL0 + ["p"], True),
     "<file>.beliefs.a1.full[0].p: expected a number, got bool"),
    ("cps", _set(FULL0 + ["q"], 1),
     "<file>.beliefs.a1.full[0]: unknown key(s) ['q']; allowed: ['others', 'p', 'state']"),
    ("cps", _set(FULL0, []),
     "<file>.beliefs.a1.full[0]: expected an object, got list"),
    ("cps", _set(["beliefs", "a1", "full"], {}),
     "<file>.beliefs.a1.full: expected a list of entries, got dict"),
    ("cps", _set(["beliefs", "a1", "marginals"], {"state": [1, 0]}),
     "<file>.beliefs.a1: give either marginals or full, not both"),
    ("cps", _set(["priors", "eve"], [1]),
     "<file>.priors: unknown agent(s) ['eve']"),
    ("cps", _set(["priors", "ann"], ["0.5", True]),  # number rule
     "<file>.priors.ann[0]: expected a number, got str"),
    ("cps", _set(["priors", "ann"], [0.5, True]),  # number rule
     "<file>.priors.ann[1]: expected a number, got bool"),
    ("cps", _set(["priors", "ann"], [1]),
     "<file>.priors.ann: expected 2 entries, got 1"),
    ("cps", _set(["priors"], []),
     "<file>.priors: expected an object, got list"),
    ("tyranny_extreme", _drop(["rho", "alice"]),
     "<file>.rho: missing prior for agent alice"),
    ("tyranny_extreme", _drop(["eta", "alice"]),
     "<file>.eta: missing technology for agent alice"),
    ("tyranny_extreme", _set(["rho", "iggy"], [0.5, True]),  # number rule
     "<file>.rho.iggy[1]: expected a number, got bool"),
    ("tyranny_extreme", _set(["rho"], []),
     "<file>.rho: expected an object, got list"),
    ("tyranny_extreme", _set(["eta", "iggy"], [[1, 0]]),
     "<file>.eta.iggy: expected 2 rows, got 1"),
    ("tyranny_extreme", _set(["eta", "iggy", 0], [1]),
     "<file>.eta.iggy[0]: expected 2 entries, got 1"),
    ("tyranny_extreme", _set(["eta", "iggy", 1], [0.5, "0.5"]),  # number rule
     "<file>.eta.iggy[1][1]: expected a number, got str"),
    ("tyranny_extreme", _set(["eta", "iggy", 1], "row"),
     "<file>.eta.iggy[1]: expected a list of numbers, got str"),
    ("tyranny_extreme", _set(["priors"], {}),
     "<file>: unknown key(s) ['priors']; allowed: ['agents', 'eta', 'kind',"
     " 'network', 'rho', 'signals', 'states', 'y']"),
    ("tyranny_extreme", _set(["network"], [[0, 1]]),
     "<file>.network: expected 3 rows, got 1"),
    # integers beyond the float range, in every kind of number field
    ("cps", _set(["priors", "ann"], [int("1" * 400), 0.5]),
     "<file>.priors.ann[0]: integer too large for a float"),
    ("cps", _set(FULL0 + ["p"], -10**400),
     "<file>.beliefs.a1.full[0].p: integer too large for a float"),
    ("cps", _set(["y", "values", "hi"], 10**400),
     "<file>.y.values.hi: integer too large for a float"),
    ("cps", _set(["y", "max"], 10**309),
     "<file>.y.max: integer too large for a float"),
    ("cycle", _set(A1 + ["state"], [0.5, 10**400]),
     "<file>.beliefs.a1.marginals.state[1]: integer too large for a float"),
    ("tyranny_extreme", _set(["eta", "iggy", 1], [10**400, 0]),
     "<file>.eta.iggy[1][0]: integer too large for a float"),
    ("tyranny_extreme", _set(["network", 2], [0.5, 0.5, -10**400]),
     "<file>.network[2][2]: integer too large for a float"),
]


@pytest.mark.parametrize("name, edit, message", CORRUPTED,
                         ids=[f"{case[0]}-{k}" for k, case in enumerate(CORRUPTED)])
def test_corrupted_scenarios_are_refused_with_their_path(tmp_path, name, edit, message):
    with open(scenario_path(name), encoding="utf-8") as fh:
        data = json.load(fh)
    edit(data)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ScenarioError) as exc:
        load_scenario(path)
    assert str(exc.value) == message.replace("<file>", str(path))


def hand_built():
    """Rows of one agent that list different counterparts, or the same in
    another order; counterparts of 3, 1 and 2 signals; int entries, -0.0,
    1e308 and inf (the last two in marginals the network does not weight);
    and type-dependent weights under which y1 weights z alone while y's
    other signals weight x, so y1's inf over x meets a zero weight."""
    data = {
        "states": ["lo", "hi"],
        "agents": ["x", "y", "z"],
        "signals": {"x": ["x0", "x1"], "y": ["y0", "y1", "y2"], "z": ["z0"]},
        "beliefs": {t: {"marginals": {"state": state, "signals": signals}}
                    for t, state, signals in [
                        ("x0", [0.25, 0.75], {"y": [0.5, 0.5, 0], "z": [1e308]}),
                        ("x1", [1, 0], {"y": [-0.0, 1.0, 0.0]}),
                        ("y0", [0.5, 0.5], {"z": [1], "x": [-0.0, 1]}),
                        ("y1", [0.5, 0.5], {"x": [float("inf"), -0.0], "z": [1.0]}),
                        ("y2", [0.0, 1.0], {"x": [0.5, 0.5], "z": [1.0]}),
                        ("z0", [0.5, 0.5], {"x": [1, 0], "y": [0.2, 0.3, 0.5]}),
                    ]},
        "network": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]],
    }
    weights = {"x0": [0, 1, 0], "x1": [0, 1, 0], "y0": [1, 0, 0], "y1": [0, 0, 1],
               "y2": [0.5, 0, 0.5], "z0": [0.5, 0.5, 0]}
    return data, weights


def differential_cases():
    """General scenario objects in marginal form: the six bundled
    scenarios (the full-mode and CIS ones through their models), bench-gen
    sparse models of 1000 and 1030 signals and CIS models of 90 and 150,
    and the hand-built variants, with and without type-dependent weights."""
    gen = bench_gen()
    cases = []
    for name in ("case2", "counterexample", "cps", "cycle", "tightness", "tyranny_extreme"):
        with open(scenario_path(name), encoding="utf-8") as fh:
            data = json.load(fh)
        if name in ("cps", "tyranny_extreme"):
            spec = load_scenario(scenario_path(name))
            data = scenario_object(getattr(spec, "model", spec))
        cases.append((name, data, None))
    cases += [(f"sparse-{10 * agents}",
               gen.sparse_reducible(np.random.default_rng([34, agents]), agents), None)
              for agents in (100, 103)]
    cases += [(f"cis-{3 * states}", scenario_object(parse_scenario(gen.cis_dense(
        np.random.default_rng([34, states]), states)).model), None) for states in (30, 50)]
    data, weights = hand_built()
    cases += [("hand-built", data, None), ("hand-built-type-dependent", data, weights)]
    return cases


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@pytest.mark.parametrize("name, data, weights", differential_cases(),
                         ids=[case[0] for case in differential_cases()])
def test_the_block_parse_gives_the_per_signal_parse_bit_for_bit(name, data, weights):
    states, agents = tuple(data["states"]), tuple(data["agents"])
    signals = {a: tuple(data["signals"][a]) for a in agents}
    blocks = _belief_blocks(data["beliefs"], agents, signals, len(states))
    assert blocks is not None
    # the per-signal parse, which the scenario falls back on
    per_signal = Beliefs.stack({t: _parse_belief(data["beliefs"][t], f"beliefs.{t}", agents,
                                                 signals, states, a)
                                for a in agents for t in signals[a]}, agents, signals, len(states))
    assert np.array_equal(bits(blocks.states), bits(per_signal.states))
    assert np.array_equal(blocks.irregular, per_signal.irregular)
    assert same_layout(blocks, per_signal)
    built = []
    for beliefs in (blocks, per_signal):
        spec = ModelSpec(states, agents, signals, beliefs, Network(data["network"]))
        assert spec.beliefs is beliefs
        built.append(build_interaction_structure(spec, weights).rows)
    got, want = built
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(bits(got.data), bits(want.data))
    if name.startswith("hand-built"):
        B = got.dense()
        assert not blocks.irregular.any() and list(pair_rows(blocks, "x", "z")[1]) == [True, False]
        # x1's weighted -0.0 is a stored cell
        assert bits(B[1, 2]) == bits(-0.0) and 2 in got.indices[got.indptr[1]:got.indptr[2]]
        # y1's inf over x is never multiplied by its zero weight: +0.0
        assert np.array_equal(bits(B[3, :2]), [0, 0])
        assert np.isfinite(got.data).all() and np.allclose(B.sum(axis=1), 1.0)
    if name == "hand-built-type-dependent":
        # y0 and y2 weight x, so y's rows hold x's columns
        assert B[2, 1] == 1.0 and B[4, 0] == 0.25
