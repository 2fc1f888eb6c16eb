import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from io import StringIO

import numpy as np
import pytest

from consensus_lab import cli, interaction
from consensus_lab import io as sio
from consensus_lab.cli import main
from consensus_lab.errors import PreconditionError
from consensus_lab.game import solve_beta_game, solve_heterogeneous_game
from consensus_lab.market import cis_generating, product_generating, simulate_market
from consensus_lab.model import validate_model
from consensus_lab.tyranny import CISSpec, validate_cis, verify_tyranny

from conftest import (
    SINGULAR_TRANSIENT,
    bench_gen,
    cis_scenario,
    scenario_object,
    scenario_path,
    sparse_reducible_model,
)

FIXTURES = ["cycle", "case2", "counterexample", "tightness", "tyranny_extreme", "cps"]


def run_cli(argv):
    out = StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


#: Runs each argv list given as JSON through ``cli.main`` with every import
#: of scipy made to fail; prints the exit code and stdout digest of each.
WITHOUT_SCIPY = """
import hashlib, json, sys
from io import StringIO
sys.modules["scipy"] = None
from consensus_lab.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out = StringIO()
    runs.append([main(argv, out=out), hashlib.sha256(out.getvalue().encode()).hexdigest()])
assert not [m for m in sys.modules if m.startswith("scipy.")]
json.dump(runs, sys.stdout)
"""

SUBCOMMANDS = [["validate"], ["build"], ["consensus"], ["game-solve", "--beta", "0.9"],
               ["simulate-market", "--beta", "0.9", "--runs", "2", "--seed", "1"],
               ["verify-optimism"], ["verify-tyranny"], ["no-trade"], ["report", "--runs", "2"]]


def test_every_subcommand_runs_without_scipy(tmp_path):
    # the six bundled scenarios and the benchmark's dense CIS and sparse
    # reducible models: the same exit codes and stdout bytes as a normal run
    paths = [scenario_path(name) for name in FIXTURES]
    for name in ("cis_dense", "sparse_reducible"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(getattr(bench_gen(), name)(np.random.default_rng(1))))
        paths.append(str(path))
    argvs = [[command, path, *options] for path in paths for command, *options in SUBCOMMANDS]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    child = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, json.dumps(argvs)],
                           capture_output=True, text=True, env=env, check=False)
    assert child.returncode == 0, child.stderr[-3000:]
    expected = []
    for argv in argvs:
        code, out = run_cli(argv)
        expected.append([code, hashlib.sha256(out.encode()).hexdigest()])
    assert json.loads(child.stdout) == expected
    # every other call exits 0: the market needs an irreducible structure,
    # verify-tyranny a CIS scenario
    refused = {(argv[0], os.path.basename(argv[1])): code
               for argv, (code, _) in zip(argvs, expected) if code}
    reducible = ["case2", "counterexample", "tightness", "sparse_reducible"]
    general = ["cycle", "cps", *reducible]
    assert refused == {**{("simulate-market", f"{n}.json"): 3 for n in reducible},
                       **{("verify-tyranny", f"{n}.json"): 3 for n in general}}


def test_a_reader_that_closes_stdout_early_ends_the_command_quietly(tmp_path):
    # the 1000-signal sparse model's CSV is about 26 MB, far above a pipe's
    # buffer, so the reader's close always lands while the command writes
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps(bench_gen().sparse_reducible(np.random.default_rng(1))))
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    child = subprocess.Popen(
        [sys.executable, "-m", "consensus_lab.cli", "build", str(path), "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert child.stdout.readline() == b"matrix,row,col,value\n"
    child.stdout.close()
    _, err = child.communicate(timeout=120)
    assert (child.returncode, err.decode()) == (141, "")


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_validate_cycle_ok():
    code, out = run_cli(["validate", scenario_path("cycle")])
    assert code == 0
    assert "valid" in out


def test_validate_rejects_bad_scenario(tmp_path):
    bad = tmp_path / "bad.json"
    data = _load_json(scenario_path("cycle"))
    data["network"][0] = [0, 0.9, 0]
    bad.write_text(json.dumps(data))
    code, out = run_cli(["validate", str(bad)])
    assert code == 2


def test_parse_error_reports_location(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"kind": "general",')
    code, _ = run_cli(["validate", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "line" in err


def test_a_directory_is_a_scenario_error(tmp_path, capsys):
    code, out = run_cli(["validate", str(tmp_path)])
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert re.fullmatch(rf"scenario error: {re.escape(str(tmp_path))}: .*Is a directory.*\n",
                        err), err


def test_a_scenario_without_a_payoff_names_the_one_payoff_rule(tmp_path, capsys):
    # the consensus, the game, optimism, the market and tyranny all read the
    # payoff through one rule, so they refuse with one message
    data = _load_json(scenario_path("tyranny_extreme"))
    del data["y"]
    path = tmp_path / "no_payoff.json"
    path.write_text(json.dumps(data))
    message = "no payoff given: pass y or set spec.y"
    for command in ("consensus", "game-solve", "verify-optimism", "simulate-market",
                    "verify-tyranny"):
        code, out = run_cli([command, str(path)])
        assert (code, out, capsys.readouterr().err) == (3, "", f"precondition failure: {message}\n")
    code, out = run_cli(["report", str(path)])
    assert code == 0 and out.count(f"not applicable: {message}\n") == 3


def test_unknown_key_rejected(tmp_path, capsys):
    bad = tmp_path / "extra.json"
    data = _load_json(scenario_path("cycle"))
    data["surprise"] = 1
    bad.write_text(json.dumps(data))
    code, _ = run_cli(["validate", str(bad)])
    assert code == 2
    assert "surprise" in capsys.readouterr().err


def test_unknown_command_exits_64():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "x.json"])
    assert exc.value.code == 64


def test_consensus_on_cps_fixture_prints_pass():
    code, out = run_cli(["consensus", scenario_path("cps")])
    assert code == 0
    assert "decomposition check PASS" in out.splitlines()
    assert "consensus = 0.48499999999999999" in out


def test_consensus_on_a_cis_model_prints_the_prior_stationarity_residual():
    # heterogeneous priors over states: the ex ante weights are not
    # stationary, so no decomposition is checked
    code, out = run_cli(["consensus", scenario_path("tyranny_extreme")])
    assert code == 0
    assert [ln for ln in out.splitlines() if "prior_stationarity" in ln] == [
        "prior_stationarity_residual = 0.34999999999999998"]
    assert "decomposition" not in out


def test_consensus_prints_the_residual_when_the_priors_hold_but_consensus_is_not_unique(
        tmp_path):
    # each agent is certain of the other's signal: two terminal classes,
    # under which uniform priors are stationary
    certain = {"states": ["lo", "hi"], "agents": ["ann", "bob"],
               "signals": {"ann": ["a1", "a2"], "bob": ["b1", "b2"]},
               "beliefs": {f"{t}{k + 1}": {"marginals": {
                   "state": [1.0 - k, float(k)], "signals": {other: [1.0 - k, float(k)]}}}
                   for t, other in (("a", "bob"), ("b", "ann")) for k in range(2)},
               "network": [[0, 1], [1, 0]],
               "priors": {"ann": [0.5, 0.5], "bob": [0.5, 0.5]},
               "y": {"values": [0.0, 1.0], "max": 1.0}}
    path = tmp_path / "certain.json"
    path.write_text(json.dumps(certain))
    code, out = run_cli(["consensus", str(path)])
    assert code == 0
    assert out.count("component_consensus ") == 2
    assert [ln for ln in out.splitlines() if "prior_stationarity" in ln or "cps_" in ln] == [
        "prior_stationarity_residual = 0"]
    assert "decomposition" not in out


def test_validate_refuses_an_omitted_marginal_over_a_weighted_agent(tmp_path, capsys):
    path = _with("cps", lambda d: d["beliefs"].update(
        a1={"marginals": {"state": [0.8, 0.2]}}), tmp_path)
    for command in ("validate", "consensus"):
        code, out, err = _call([command, path], capsys)
        assert (code, out) == (2, "")
        assert err == ("invalid: beliefs.a1.signals.bob: missing marginal over an agent"
                       " the owner weights\n")


def _product_belief(other, state, signals):
    """A full-mode belief under which the state and ``other``'s signal are
    independent, with the given marginals."""
    return {"full": [{"state": s, "others": {other: u}, "p": ps * pu}
                     for u, pu in signals.items() for s, ps in state.items()]}


def _two_agent_scenario():
    # ann: bob's signal matches hers with probability 0.9; bob: ann's
    # signals are equally likely whatever he sees.  No joint over profiles
    # gives both, but uniform priors are stationary.
    return {
        "states": ["lo", "hi"], "agents": ["ann", "bob"],
        "signals": {"ann": ["a1", "a2"], "bob": ["b1", "b2"]},
        "beliefs": {
            "a1": _product_belief("bob", {"lo": 0.8, "hi": 0.2}, {"b1": 0.9, "b2": 0.1}),
            "a2": _product_belief("bob", {"lo": 0.3, "hi": 0.7}, {"b1": 0.1, "b2": 0.9}),
            "b1": _product_belief("ann", {"lo": 0.6, "hi": 0.4}, {"a1": 0.5, "a2": 0.5}),
            "b2": _product_belief("ann", {"lo": 0.1, "hi": 0.9}, {"a1": 0.5, "a2": 0.5}),
        },
        "network": [[0, 1], [1, 0]],
        "priors": {"ann": [0.5, 0.5], "bob": [0.5, 0.5]},
        "y": {"values": [0.0, 1.0], "max": 1.0},
    }


def _pairwise_flip_scenario():
    # three binary agents whose signals differ pairwise with probability
    # 0.9, in marginal form: no joint over profiles has these marginals
    agents = ["p", "q", "r"]
    flip = [[0.1, 0.9], [0.9, 0.1]]
    return {
        "states": ["lo", "hi"], "agents": agents,
        "signals": {a: [f"{a}0", f"{a}1"] for a in agents},
        "beliefs": {f"{a}{k}": {"marginals": {
            "state": [0.3 + 0.4 * k, 0.7 - 0.4 * k],
            "signals": {b: flip[k] for b in agents if b != a}}}
            for a in agents for k in range(2)},
        "network": [[0, 0.5, 0.5], [0.3, 0, 0.7], [0.6, 0.4, 0]],
        "priors": {a: [0.5, 0.5] for a in agents},
        "y": {"values": [0.0, 1.0], "max": 1.0},
    }


@pytest.mark.parametrize("build", [_two_agent_scenario, _pairwise_flip_scenario],
                         ids=["two-agents-full", "three-agents-marginal"])
def test_stationary_priors_without_a_common_prior_pass_the_decomposition(tmp_path, build):
    # the check once compared joints over profiles: it printed
    # cps_violation = 0.2 on the first and refused the second
    path = tmp_path / "stationary.json"
    path.write_text(json.dumps(build()))
    code, out = run_cli(["consensus", str(path)])
    assert code == 0
    rows = dict(ln.split(" = ") for ln in out.splitlines() if " = " in ln)
    assert float(rows["cps_decomposition_gap"]) <= 1e-15
    assert out.endswith("decomposition check PASS\n")


def _many_agent_full_scenario(n):
    """``n`` binary agents in full mode, two entries per signal: signal k
    says every other agent holds k (state lo) or every other agent holds
    the other one (state hi), each with probability 1/2."""
    agents = [f"g{i}" for i in range(n)]
    signals = {a: [f"{a}_0", f"{a}_1"] for a in agents}
    beliefs = {}
    for a in agents:
        for k in range(2):
            beliefs[signals[a][k]] = {"full": [
                {"state": s, "others": {b: signals[b][m] for b in agents if b != a},
                 "p": 0.5} for s, m in (("lo", k), ("hi", 1 - k))]}
    ring = np.zeros((n, n))
    for i in range(n):
        ring[i, (i - 1) % n] = ring[i, (i + 1) % n] = 0.5
    return {"states": ["lo", "hi"], "agents": agents, "signals": signals,
            "beliefs": beliefs, "network": ring.tolist(),
            "priors": {a: [0.5, 0.5] for a in agents},
            "y": {"values": [0.0, 1.0], "max": 1.0}}


def test_thirty_agents_in_full_mode_build_no_joint(tmp_path):
    # each belief's joint over (state, 29 counterpart signals) would hold
    # 2^30 cells: 8 GiB
    path = tmp_path / "thirty.json"
    path.write_text(json.dumps(_many_agent_full_scenario(30)))
    for command in ("validate", "consensus"):
        start = time.perf_counter()
        code, out = run_cli([command, str(path)])
        assert code == 0 and time.perf_counter() - start < 2.0
        tracemalloc.start()
        try:
            assert run_cli([command, str(path)]) == (code, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20
    assert out.endswith("decomposition check PASS\n")


def _a1_entries(*ps):
    def edit(d):
        for entry, p in zip(d["beliefs"]["a1"]["full"], ps):
            entry["p"] = p
    return edit


# a1's entries in cps.json are 0.48, 0.12, 0.16, 0.24 (lo-b1, hi-b1, lo-b2,
# hi-b2); the first two edits keep every marginal of a1
@pytest.mark.parametrize("edit, flags, message", [
    (_a1_entries(0.74, -0.14, -0.1, 0.5), [],
     "scenario error: {path}.beliefs.a1.full[1].p: expected a probability >= 0, got -0.14"),
    (_a1_entries(0.48, 0.12, 0.4000001, -1e-7), ["--tol", "1e-6"],
     "scenario error: {path}.beliefs.a1.full[3].p: expected a probability >= 0, got -1e-07"),
    (_a1_entries(float("nan")), [],
     "scenario error: {path}.beliefs.a1.full[0].p: expected a probability >= 0, got nan"),
    (_a1_entries(float("inf")), [],
     "invalid: beliefs.a1.state: sums to inf (expected 1 within 1e-12)"),
], ids=["cancelled", "within-tol", "nan", "inf"])
def test_full_mode_entries_must_be_probabilities(tmp_path, capsys, edit, flags, message):
    # the negative entries once passed the parse and were found in the
    # joint by validation (the second not at all under --tol 1e-6)
    path = _with("cps", edit, tmp_path)
    assert run_cli(["validate", path] + flags) == (2, "")
    assert capsys.readouterr().err.splitlines()[0] == message.format(path=path)


def test_verify_optimism_case1_fixture():
    code, out = run_cli(["verify-optimism", scenario_path("case2"), "--fbar", "1.0"])
    assert code == 0
    assert "bound = 1" in out
    assert "consensus = 1" in out
    assert "PASS" in out


def test_verify_tyranny_requires_cis():
    code, _ = run_cli(["verify-tyranny", scenario_path("cycle")])
    assert code == 3


def test_verify_tyranny_extreme_fixture():
    code, out = run_cli(["verify-tyranny", scenario_path("tyranny_extreme")])
    assert code == 0
    assert "tyranny bound PASS" in out.splitlines()
    assert "consensus = 0.7" in out


def test_verify_tyranny_and_report_read_the_tolerance(tmp_path, capsys):
    # alice's prior sums to 1 + 1e-9: valid at --tol 1e-6, and verify_tyranny
    # once checked it again at 1e-12 (exit 3, "not applicable" in report)
    with open(scenario_path("tyranny_extreme")) as fh:
        scn = json.load(fh)
    scn["rho"]["alice"] = [p * (1 + 1e-9) for p in scn["rho"]["alice"]]
    path = tmp_path / "tol.json"
    path.write_text(json.dumps(scn))
    assert run_cli(["validate", str(path), "--tol", "1e-6"]) == (0, "scenario is valid\n")
    code, out = run_cli(["verify-tyranny", str(path), "--tol", "1e-6"])
    assert code == 0 and out.endswith("\ntyranny bound PASS\n")
    code, out = run_cli(["report", str(path), "--tol", "1e-6"])
    assert code == 0 and out.split("== tyranny ==\n")[1].endswith("\ntyranny bound PASS\n")
    assert capsys.readouterr().err == ""
    assert run_cli(["verify-tyranny", str(path)]) == (2, "")
    assert capsys.readouterr().err == "invalid: rho.alice: not a probability vector\n"


@pytest.mark.parametrize("flag", [["--state", "hi"], ["--profile", "a1,b2"]])
def test_a_fixed_draw_needs_both_state_and_profile(capsys, flag):
    assert run_cli(["simulate-market", scenario_path("cps"), *flag]) == (3, "")
    assert capsys.readouterr().err == (
        "precondition failure: fixed draws need both --state and --profile\n")


def test_game_solve_csv_output():
    code, out = run_cli(
        ["game-solve", scenario_path("cps"), "--beta", "0.5", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "signal,action"
    assert len(lines) == 5


def test_game_solve_beta_per_agent():
    code, out = run_cli(
        [
            "game-solve",
            scenario_path("cps"),
            "--beta-per-agent",
            "ann=0.9,bob=0.5",
        ]
    )
    assert code == 0
    assert "heterogeneous" in out


def test_game_solve_beta_per_agent_on_a_network_with_self_weights(tmp_path, capsys):
    # the header once went through heterogeneous_transform, which refuses
    # a self-weight after the game is solved (exit 3)
    path = _with("cps", lambda d: d.update(network={
        "weights": [[0.5, 0.5], [0.5, 0.5]], "diagonal_allowed": True}), tmp_path)
    code, out, err = _call(["game-solve", path, "--beta-per-agent", "ann=0.9,bob=0.5",
                            "--format", "csv"], capsys)
    assert (code, err) == (0, "")
    solution = solve_heterogeneous_game(sio.load_scenario(path), [0.9, 0.5])
    assert out == "signal,action\n" + "".join(
        f"{t},{sio.fmt(a)}\n" for t, a in zip(solution.labels, solution.actions))
    code, out, _ = _call(["game-solve", path, "--beta-per-agent", "ann=0.9,bob=0.5"], capsys)
    assert out.startswith("heterogeneous betas, common beta 0.90000000000000002\n")


def test_game_solve_beta_out_of_range_is_precondition_failure():
    code, _ = run_cli(["game-solve", scenario_path("cps"), "--beta", "1.0"])
    assert code == 3


@pytest.mark.parametrize("weights, message", [
    ("nan,0.5", "every per-agent weight must lie in [0, 1)"),
    ("ann=0.5,bob=nan", "every per-agent weight must lie in [0, 1)"),
    ("ann=abc,bob=0.5", "--beta-per-agent: expected numbers, got 'ann=abc,bob=0.5'"),
    ("0.5,x", "--beta-per-agent: expected numbers, got '0.5,x'"),
    ("0.5,", "--beta-per-agent: expected 2 values"),
    ("ann=0.9,eve=0.5", "--beta-per-agent: unknown agent 'eve'"),
    ("ann=0.9", "--beta-per-agent: missing agent(s) ['bob']"),
    ("ann=0.9,ann=0.1,bob=0.5", "--beta-per-agent: repeated agent 'ann'"),
])
def test_bad_per_agent_weights_are_precondition_failures(capsys, weights, message):
    code, out = run_cli(["game-solve", scenario_path("cps"), "--beta-per-agent", weights])
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == f"precondition failure: {message}\n"


@pytest.mark.parametrize("flags, message", [
    (["--beta", "0.3", "--beta-per-agent", "ann=0.9,bob=0.5"],
     "argument --beta-per-agent: not allowed with argument --beta"),
    (["--beta-per-agent", "ann=0.9,bob=0.5", "--beta", "0.99"],
     "argument --beta: not allowed with argument --beta-per-agent"),
])
def test_game_solve_refuses_a_common_beta_next_to_per_agent_betas(capsys, flags, message):
    # the common beta was once dropped without a word
    code, out, err = _call(["game-solve", scenario_path("cps"), *flags], capsys)
    assert (code, out) == (64, "")
    assert err.startswith("usage: consensus-lab game-solve ")
    assert err.endswith(f"consensus-lab game-solve: error: {message}\n")
    # report keeps its one --beta
    assert _call(["report", scenario_path("cps"), "--beta", "0.3"], capsys)[0] == 0


def test_no_trade_verdicts():
    code, out = run_cli(["no-trade", scenario_path("cps")])
    assert code == 0
    assert "no strictly profitable separable trade" in out
    code, out = run_cli(["no-trade", scenario_path("case2")])
    assert code == 0
    assert "strictly profitable separable trade found" in out.splitlines()


def test_simulate_market_writes_artifacts(tmp_path):
    out_dir = tmp_path / "artifacts"
    code, out = run_cli(
        [
            "simulate-market",
            scenario_path("cps"),
            "--beta",
            "0.9",
            "--runs",
            "20",
            "--seed",
            "3",
            "--out",
            str(out_dir),
        ]
    )
    assert code == 0
    events = (out_dir / "events.csv").read_text()
    summary = (out_dir / "summary.csv").read_text()
    assert events.splitlines()[0] == "run,period,seller,buyer,price,buyer_signal"
    assert summary.splitlines()[0] == "stat,label,value"
    assert "mean_price" in summary


def test_byte_identical_outputs(tmp_path):
    argv = [
        "simulate-market",
        scenario_path("cps"),
        "--beta",
        "0.95",
        "--runs",
        "10",
        "--seed",
        "11",
        "--format",
        "csv",
    ]
    code1, out1 = run_cli(list(argv))
    code2, out2 = run_cli(list(argv))
    assert code1 == code2 == 0
    assert out1 == out2
    code3, out3 = run_cli(argv[:-4] + ["--seed", "12", "--format", "csv"])
    assert out3 != out1


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate-market", "--runs", "-2"],
        ["simulate-market", "--seed", "-1"],
        ["report", "--runs", "-1"],
    ],
)
def test_negative_runs_or_seed_is_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], scenario_path("cps")] + argv[1:], out=StringIO())
    assert exc.value.code == 64


def test_zero_runs_is_precondition_failure(capsys):
    code, out = run_cli(["simulate-market", scenario_path("cps"), "--runs", "0"])
    assert code == 3
    assert out == ""
    assert "no runs to aggregate" in capsys.readouterr().err


def test_build_emits_matrices(tmp_path):
    out_dir = tmp_path / "b"
    code, out = run_cli(
        ["build", scenario_path("cycle"), "--out", str(out_dir)]
    )
    assert code == 0
    assert "irreducible: True" in out
    b_csv = (out_dir / "interaction.csv").read_text().splitlines()
    assert b_csv[0] == "row,col,value"
    assert len(b_csv) == 1 + 36
    f_csv = (out_dir / "first_order.csv").read_text().splitlines()
    assert len(f_csv) == 1 + 12


@pytest.mark.parametrize("name", FIXTURES)
def test_report_runs_on_every_fixture(name):
    code, out = run_cli(["report", scenario_path(name)])
    assert code == 0
    assert "== structure ==" in out
    assert "== consensus ==" in out
    assert "== no-trade ==" in out


def test_report_deterministic():
    a = run_cli(["report", scenario_path("counterexample")])
    b = run_cli(["report", scenario_path("counterexample")])
    assert a == b


def test_tolerance_flag_relaxes_validation(tmp_path):
    data = _load_json(scenario_path("cycle"))
    data["beliefs"]["a1"]["marginals"]["state"] = [0.9999999, 0.0000001999]
    p = tmp_path / "coarse.json"
    p.write_text(json.dumps(data))
    code, _ = run_cli(["validate", str(p)])
    assert code == 2
    code, _ = run_cli(["validate", str(p), "--tol", "1e-6"])
    assert code == 0


def test_scenario_error_paths(tmp_path, capsys):
    data = _load_json(scenario_path("cps"))
    data["beliefs"]["a1"]["full"][0]["p"] = "lots"
    p = tmp_path / "badnum.json"
    p.write_text(json.dumps(data))
    code, _ = run_cli(["validate", str(p)])
    assert code == 2
    assert "expected a number" in capsys.readouterr().err


# SHA-256 of stdout, captured before the market kernel was vectorized; the
# kernel must reproduce every byte.
GOLDEN_MARKET = [
    (["cps", "--beta", "0.999", "--runs", "1000", "--seed", "7", "--format", "csv"],
     "94df36929ee126ee898d2610a7053092220db24f3f602e2f944c3f615c206c2a"),
    (["tyranny_extreme", "--beta", "0.9", "--runs", "200", "--seed", "3",
      "--format", "csv"],
     "831de65f54922847a6d61ad0c46f1f9434ff21988d3b814840a7fb1731b0cdb2"),
    (["cps", "--beta", "0.95", "--runs", "10", "--seed", "11"],
     "799e6fcf6c6b43d4bfca0398122ecfb026bfb99152dcace5c7c71090249ee899"),
    (["cps", "--state", "hi", "--profile", "a1,b2", "--beta", "0.9", "--runs", "20",
      "--seed", "5", "--format", "csv"],
     "a561ebe0d08295bf8fbb432d508856968194abd4b9d8ee9ced23fe0e020fcfdf"),
    # a 3-cycle, one buyer per seller; captured while each run still chained
    # its bids through the bin table, before the path came from the orbit
    (["cycle", "--beta", "0.999", "--runs", "200", "--seed", "3", "--format", "csv"],
     "1925f244aa672f3529747d88fe620c1797b52a16e20e2b82eaa69b0bcef18cca"),
]


@pytest.mark.parametrize("args, digest", GOLDEN_MARKET)
def test_simulate_market_golden_stdout(args, digest):
    code, out = run_cli(["simulate-market", scenario_path(args[0])] + args[1:])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_simulate_market_golden_stdout_on_a_30_state_cis_model(tmp_path):
    # 3 agents x 30 states: a 810,000-cell joint when the market drew from
    # it densely.  Digest captured from that dense draw.
    path = tmp_path / "cis30.json"
    path.write_text(json.dumps(cis_scenario(np.random.default_rng(30), 3, 30)))
    code, out = run_cli(["simulate-market", str(path), "--beta", "0.9", "--runs",
                         "200", "--seed", "4", "--format", "csv"])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "ca049c66dbcc94901b10a52a42224e5a6b0f811e6bd2a67e0fc8b9ec3c9fddae")


@pytest.mark.parametrize("make, argv, digest", [
    (lambda: bench_gen().cis_dense(np.random.default_rng([1, 0]), 30),
     ["--beta", "0.999", "--runs", "20", "--seed", "5"],
     "45f132c9249f5102d4961f48d02fb34a545330b8c18c4d441dabc5f3a0596dd1"),
    (lambda: cis_scenario(np.random.default_rng(12), 12, 3, 2),
     ["--beta", "0.9", "--runs", "200", "--seed", "6"],
     "b087be4201959c52cae0738f8b52ea123dbbd08bdd69a2348bc5f8a13149633b"),
], ids=["benchmark cis_dense model, 30 states", "12-agent complete network"])
def test_simulate_market_csv_golden_on_generated_models(tmp_path, make, argv, digest):
    # digests captured before the buyers came from one table per call: the
    # dense CIS model at beta 0.999 takes that table, while the complete
    # network's 124 distinct running sums at beta 0.9 keep a table per run.
    # The CIS model has 30 states, not the benchmark's 50: at 150 signals
    # the game solve's bits depend on the BLAS thread count
    path = tmp_path / "model.json"
    path.write_text(json.dumps(make()))
    code, out = run_cli(["simulate-market", str(path), *argv, "--format", "csv"])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _events_oracle(scenario, beta, runs, seed):
    """``events.csv`` rendered from one ``simulate_market`` call per run."""
    model = scenario.model if isinstance(scenario, CISSpec) else scenario
    draw = (cis_generating(scenario) if isinstance(scenario, CISSpec)
            else product_generating(model))
    prices = solve_beta_game(model, beta)
    rows = ["run,period,seller,buyer,price,buyer_signal\n"]
    for k, ss in enumerate(np.random.SeedSequence(seed).spawn(runs)):
        run = simulate_market(model, beta, ss, draw, prices=prices,
                              initial_owner="centrality")
        rows += [f"{k},{e.period},{e.seller},{e.buyer},{sio.fmt(e.price)},{e.buyer_signal}\n"
                 for e in run.events]
    return "".join(rows)


def _first_difference(got: str, want: str):
    """``None`` for equal texts, else the first differing line's number and
    both lines (a cheap report: pytest's diff of megabyte strings is slow)."""
    if got == want:
        return None
    a, b = got.splitlines(True), want.splitlines(True)
    k = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return k, a[k:k + 1], b[k:k + 1]


@pytest.mark.parametrize("name, beta, runs, seed", [
    ("cps", "0.999", 12, 21),  # ~1000 trades a run: run and period have several digits
    ("cps", "0.5", 30, 22),  # many runs without a trade
    ("tyranny_extreme", "0.9", 40, 23),
    ("cis3", "0.9", 40, 24),
])
def test_events_csv_matches_one_simulate_market_per_run(tmp_path, name, beta, runs, seed):
    if name == "cis3":
        path = tmp_path / "cis3.json"
        path.write_text(json.dumps(cis_scenario(np.random.default_rng(3), 3, 5)))
    else:
        path = scenario_path(name)
    code, out = run_cli(["simulate-market", str(path), "--beta", beta, "--runs", str(runs),
                         "--seed", str(seed), "--format", "csv", "--out", str(tmp_path / "o")])
    assert code == 0
    events = (tmp_path / "o" / "events.csv").read_text(encoding="utf-8")
    expected = _events_oracle(sio.load_scenario(path), float(beta), runs, seed)
    assert _first_difference(events, expected) is None
    assert out.startswith(events) and out[len(events):].startswith("stat,label,value\n")
    rows = [line.split(",") for line in events.splitlines()[1:]]
    runs_seen = {row[0] for row in rows}
    if beta == "0.5":
        assert 0 < len(runs_seen) < runs
    if beta == "0.999":
        assert len(runs_seen) == runs and max(int(row[1]) for row in rows) >= 100


@pytest.mark.parametrize("name, beta, runs, seed", [
    ("cps", "0.5", 40, 31),
    ("tyranny_extreme", "0.6", 40, 32),
])
def test_events_csv_rows_carry_the_next_lead_at_every_edge(tmp_path, name, beta, runs, seed):
    # each row's suffix carries the next row's "run," lead and a run's last
    # row drops it: runs of exactly one trade, a run without trades between
    # two runs with trades, two-digit run indices, and three agents each
    # selling to both others
    out_dir = tmp_path / "o"
    code, out = run_cli(["simulate-market", scenario_path(name), "--beta", beta, "--runs",
                         str(runs), "--seed", str(seed), "--format", "csv", "--out", str(out_dir)])
    assert code == 0
    events = (out_dir / "events.csv").read_text(encoding="utf-8")
    expected = _events_oracle(sio.load_scenario(scenario_path(name)), float(beta), runs, seed)
    assert _first_difference(events, expected) is None
    rows = [line.split(",") for line in events.splitlines()[1:]]
    trades = Counter(int(row[0]) for row in rows)
    counts = [trades[k] for k in range(runs)]
    assert 1 in counts
    assert any(counts[k - 1] and not counts[k] and counts[k + 1] for k in range(1, runs - 1))
    assert any(counts[10:])
    if name == "tyranny_extreme":
        buyers = {}
        for row in rows:
            buyers.setdefault(row[2], set()).add(row[3])
        assert len(buyers) == 3 and all(len(b) == 2 for b in buyers.values())


def _call(argv, capsys):
    """Exit code, stdout and stderr of one in-process ``main`` call."""
    out = StringIO()
    try:
        code = main(argv, out=out)
    except SystemExit as exc:
        code = exc.code
    return code, out.getvalue(), capsys.readouterr().err


@pytest.mark.parametrize("calls, codes", [
    ([["simulate-market", "cps", "--runs", "-1"], ["simulate-market", "cps", "--runs", "3"]],
     [64, 0]),
    ([["game-solve", "cps", "--beta-per-agent", "ann=0.9,bob=0.5"], ["game-solve", "cps"]],
     [0, 0]),
    ([["consensus", "cps", "--out", "<out>"], ["consensus", "cps", "--format", "csv"]],
     [0, 0]),
], ids=["usage-error-then-valid", "per-agent-then-common", "out-then-stdout"])
def test_repeated_main_calls_match_the_calls_in_isolation(tmp_path, capsys, calls, codes):
    # main parses with one parser per process; a fresh parser stands for a
    # call in a process of its own
    calls = [[scenario_path(a) if a == "cps" else str(tmp_path) if a == "<out>" else a
              for a in argv] for argv in calls]
    isolated = []
    for argv in calls:
        cli._parser.cache_clear()
        isolated.append(_call(argv, capsys))
    cli._parser.cache_clear()
    repeated = [_call(argv, capsys) for argv in calls]
    assert cli._parser.cache_info().misses == 1
    assert repeated == isolated
    assert [code for code, _, _ in repeated] == codes


def _with(name, edit, tmp_path):
    data = _load_json(scenario_path(name))
    edit(data)
    p = tmp_path / f"{name}-edited.json"
    p.write_text(json.dumps(data))
    return str(p)


NAN_EDITS = [
    ("cps", "consensus", lambda d: d["y"]["values"].update(hi=float("nan")), "y.values"),
    ("cps", "consensus", lambda d: d["y"].update(max=float("inf")), "y.max"),
    ("cycle", "consensus",
     lambda d: d["beliefs"]["a1"]["marginals"]["signals"].update(two=[float("nan"), 1]),
     "beliefs.a1.signals.two"),
    ("cps", "consensus", lambda d: d["network"][0].__setitem__(1, float("nan")),
     "network.row[ann]"),
    ("tyranny_extreme", "verify-tyranny",
     lambda d: d["rho"].update(iggy=[float("nan"), 0.7]), "rho.iggy"),
]


@pytest.mark.parametrize(
    "name, command, edit, field", NAN_EDITS,
    ids=["y-value", "y-max", "belief-marginal", "network-weight", "cis-rho"],
)
def test_non_finite_inputs_are_refused(tmp_path, capsys, name, command, edit, field):
    path = _with(name, edit, tmp_path)
    code, out = run_cli([command, path])
    assert code == 2
    assert out == ""
    assert field in capsys.readouterr().err


EPS_REFUSAL = ("informed agents must be at most eps-noisy with eps < 1/2;"
               " failing: ['alice'] with eps [0.6]")


def _alice_mid(d):
    d["signals"]["alice"].append("a_mid")
    d["eta"]["alice"] = [[0.4, 0.35, 0.25], [0.2, 0.5, 0.3]]


def test_eps_refusal_prints_python_floats(tmp_path, capsys):
    # the eps list printed as [np.float64(0.6)]
    path = _with("tyranny_extreme", _alice_mid, tmp_path)
    code, out = run_cli(["verify-tyranny", path])
    assert (code, out, capsys.readouterr().err) == (
        3, "", f"precondition failure: {EPS_REFUSAL}\n")
    code, out = run_cli(["report", path])
    assert code == 0
    assert f"== tyranny ==\nnot applicable: {EPS_REFUSAL}\n" in out


def _tiny_prior(who, t, alice=None):
    def edit(d):
        d["rho"][who] = [t, 1.0 - t]
        if alice:
            d["eta"]["alice"] = alice
    return edit


@pytest.mark.parametrize("edit, bound, passage", [
    *((_tiny_prior("bern", t), 0.0, 53.333333333333336) for t in (1e-160, 1e-300, 5e-324)),
    (_tiny_prior("bern", 1e-300, [[0.99, 0.01], [0.01, 0.99]]), math.inf, 53.333333333333336),
    (lambda d: d["eta"].update(iggy=[[5e-324, 1.0], [0.5, 0.5]]), 0.0, math.inf),
], ids=["bern 1e-160", "bern 1e-300", "bern 5e-324", "noisy alice, bern 1e-300",
        "iggy eta 5e-324"])
def test_tiny_priors_and_noise_give_the_papers_bounds(tmp_path, capsys, edit, bound, passage):
    # bern at 1e-160 printed "bound = nan" and "tyranny bound FAIL" (an
    # overflowed prefactor times eps = 0), and the others exited 3 with
    # "float division by zero" (a square or a product of tiny weights
    # underflowed to 0); the paper's bound is 0 at eps = 0, and inf where
    # its denominator underflows
    path = _with("tyranny_extreme", edit, tmp_path)
    code, out = run_cli(["verify-tyranny", path])
    assert (code, capsys.readouterr().err) == (0, "")
    assert f"\nbound = {sio.fmt(bound)}\n" in out
    assert f"\npassage_time_bound = {sio.fmt(passage)}\n" in out
    assert out.endswith("\ntyranny bound PASS\n")
    code, report = run_cli(["report", path, "--beta", "0.9"])
    assert (code, capsys.readouterr().err) == (0, "")
    assert report.endswith(f"== tyranny ==\n{out}")
    result = verify_tyranny(sio.load_scenario(path))
    assert (result.bound, result.passage_time_bound, result.passed) == (bound, passage, True)


MFPT_NAN = "mean first passage residual nan too large"
MFPT_REDUCIBLE = ("mfpt needs an irreducible matrix; see absorbing_components for the closed"
                  " set ('i_lo', 'i_hi', 'a_hi', 'b_hi')")


@pytest.mark.parametrize("t", [1e-160, 1e-300, 5e-324])
def test_a_tiny_ignorant_prior_is_a_typed_refusal(tmp_path, capsys, t):
    # at 1e-300 and 5e-324 the passage-time bound's denominator underflowed
    # and the command exited 3 with "float division by zero"; at 1e-160 the
    # refusal came after numpy's divide-by-zero warnings on stderr
    path = _with("tyranny_extreme", _tiny_prior("iggy", t), tmp_path)
    cis = sio.load_scenario(path)
    code, out = run_cli(["verify-tyranny", path])
    err = capsys.readouterr().err
    code_report, report = run_cli(["report", path, "--beta", "0.9"])
    if t == 5e-324:
        assert (code, out, err) == (3, "", f"precondition failure: {MFPT_REDUCIBLE}\n")
        assert (code_report, capsys.readouterr().err) == (0, "")
        assert report.endswith(f"== tyranny ==\nnot applicable: {MFPT_REDUCIBLE}\n")
        with pytest.raises(PreconditionError, match=f"^{re.escape(MFPT_REDUCIBLE)}$"):
            verify_tyranny(cis)
    else:
        assert (code, out, err) == (3, "", f"numerical check failed: {MFPT_NAN}\n")
        assert (code_report, capsys.readouterr().err) == (3, err)
        assert report.endswith("== tyranny ==\n")
        with pytest.raises(ArithmeticError, match=f"^{MFPT_NAN}$"):
            verify_tyranny(cis)


PRICE_REFUSAL = "price summary is not finite: the prices are too large to sum"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_prices_too_large_to_sum_are_refused(tmp_path, capsys):
    # the summary printed "mean price = inf (se nan)" with exit 0
    path = _with("cps", lambda d: d.update(y={"values": {"lo": 5e307, "hi": 1e308},
                                              "max": 1e308}), tmp_path)
    code, out = run_cli(["simulate-market", path, "--runs", "20", "--beta", "0.9"])
    assert (code, out, capsys.readouterr().err) == (
        3, "", f"precondition failure: {PRICE_REFUSAL}\n")
    code, out = run_cli(["report", path, "--runs", "3", "--beta", "0.9"])
    assert code == 0
    assert out.endswith(f"== market ==\nnot applicable: {PRICE_REFUSAL}\n")


@pytest.mark.parametrize("row, col, value, message", [
    (0, 0, 0.5, "network.row[iggy]: sums to 1.5 (expected 1 within 1e-12)"),
    (0, 2, 2, "network.row[iggy]: sums to 2.5 (expected 1 within 1e-12)"),
    (2, 1, float("nan"), "network.row[bern]: sums to nan (expected 1 within 1e-12)"),
])
@pytest.mark.parametrize("command", ["validate", "consensus", "verify-optimism"])
def test_cis_network_rows_must_sum_to_one(tmp_path, capsys, command, row, col, value,
                                          message):
    # validate called these valid; consensus then ended in the stationary
    # solve's ArithmeticError
    path = _with("tyranny_extreme", lambda d: d["network"][row].__setitem__(col, value),
                 tmp_path)
    code, out = run_cli([command, path])
    # a self-weight is refused as well, as in a general scenario
    also = ("invalid: network.diagonal[iggy]: self-weight present but diagonal_allowed"
            " is false\n" if row == col else "")
    assert (code, out, capsys.readouterr().err) == (2, "", f"invalid: {message}\n{also}")


def _duplicate_agent(d):
    d["agents"] = ["iggy", "alice", "alice"]
    for key in ("signals", "rho", "eta"):
        del d[key]["bern"]


@pytest.mark.parametrize("edit, messages", [
    (lambda d: d["signals"].update(bern=["a_lo", "a_hi"]),
     ["signals.bern.a_lo: label already used by agent alice",
      "signals.bern.a_hi: label already used by agent alice"]),
    (lambda d: d["signals"].update(alice=["a_lo", "a_lo"]),
     ["signals.alice.a_lo: label already used by agent alice"]),
    (_duplicate_agent,
     ["agents: duplicate agent label", "signals.alice.a_lo: label already used by agent alice",
      "signals.alice.a_hi: label already used by agent alice"]),
    (lambda d: d["network"].__setitem__(0, [0.2, 0.4, 0.4]),
     ["network.diagonal[iggy]: self-weight present but diagonal_allowed is false"]),
    (lambda d: d["y"].update(values=[5, -3]), ["y: values outside [0, 1.0]"]),
], ids=["signals renamed to another agent's", "a signal twice", "an agent twice",
        "a self-weight", "payoffs outside [0, max]"])
def test_cis_scenarios_keep_the_general_label_self_weight_and_payoff_rules(
        tmp_path, capsys, edit, messages):
    # validate called each of these valid: consensus then printed a
    # component of repeated labels or exited 3 on the duplicate agent,
    # simulate-market asked for a library argument, and game-solve printed
    # actions of -0.6
    path = _with("tyranny_extreme", edit, tmp_path)
    code, out = run_cli(["validate", path])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "".join(f"invalid: {m}\n" for m in messages)
    cis = sio.load_scenario(path)
    assert validate_cis(cis) == validate_model(cis.model) == messages
    with pytest.raises(PreconditionError, match=f"^{re.escape('; '.join(messages))}$"):
        verify_tyranny(cis)


@pytest.mark.parametrize("flag", ["false", 0, 1])
def test_diagonal_allowed_must_be_a_json_boolean(tmp_path, capsys, flag):
    # "false" was read as true: the self-weights below validated
    path = _with("cps", lambda d: d.update(network={"weights": [[0.5, 0.5], [1, 0]],
                                                    "diagonal_allowed": flag}), tmp_path)
    code, out = run_cli(["validate", path])
    assert (code, out, capsys.readouterr().err) == (
        2, "", f"scenario error: {path}.network.diagonal_allowed: expected a boolean,"
        f" got {type(flag).__name__}\n")


# SHA-256 of `report --runs 3` stdout, `build --format csv` stdout and the two
# `build --out` files, captured before specs cached their structures.
GOLDEN_BUILD_AND_REPORT = [
    ("cycle", "4b513fad163638acbd6314b6e63b4cf12248e525cfe9cee8874e0fda46c387aa",
     "b01c2278cde50c9551ac05018131638dd7c9a96a2d9239615d4fdb8361c9a534",
     "264c9455da1d0cc194bd1bd404a7735e9d29a69a9983234e1fc93d2cf35cbb44",
     "9c63ed72c14f5390372028cc934e09eff76469cfa7db1473bab5d75e3962a9ad"),
    # report: game (case2, tightness) and no-trade (tightness) digits from
    # the solve along the condensation, each within 2.2e-15 of the exact
    # solution
    ("case2", "a03535c2310e0a6318eae0c1bf8febd096c9f1106eab6fb12d7e1c9b57f62c33",
     "f9c966d4fb7170e9569627f7d7912f2589783e78be764eb7cb31049e590bac28",
     "99b80d472aefce7a36c1af17429e631e5a4d93a8788026ebeb50d411c7309beb",
     "1eefa6553459c4d40433e03ec6bf76ffb3b8dfe556327ddb5b0d78e3d5a3bdcf"),
    ("counterexample", "92cf22da4f479e6df7346cc4ca69e1c7a528807b27357a8afc400627ff03c7d8",
     "457c27a91b73669c9d7ae200c8733be95e6461b3cdd170286644054b5ff0909f",
     "8216b8a1a12c00860b52d32175c4fb51d2f51b010ca22860c5bd622d1d74b526",
     "9c63ed72c14f5390372028cc934e09eff76469cfa7db1473bab5d75e3962a9ad"),
    ("tightness", "f60bb1e0741331c5934354438e8da7d31c01792b59a984ab77b084777ceff84b",
     "fe9693ee13965426e4252dc60ebdf7fcfea9fee44c5d10bc5d9736311a738598",
     "5ece2863b586614c0b53c1a3d194637b7d1b00ddfbeeb01f3aa91ccfc68294c2",
     "37c260b289890bd83ea33e84bcfa3453f72184e8ff2596b7d0b76bd396d777d8"),
    # report: the consensus section gained its prior_stationarity_residual
    # row when the common-prior check began to run on marginal models
    ("tyranny_extreme", "008f8158ba50e27f7d08d2d784b1dc3cdc59f29752192419836e6c00118132a4",
     "af30b1f5166807447def2b4abd64e98ae0cfadaf4bebac3167191f232873ef61",
     "25e49fbce33f0a37e91f7d8179bda943b5b844c36201260ed0b155e2f2ba4c99",
     "8b2bc1bbe3446bde774700a8bd9f31de4e662ae9334d00f79c25e21463433aa4"),
    ("cps", "d13bdad3abfd789021845ec68f2c3c90763437eea04198e9f3248a1aa3584637",
     "4a6599dae5f38c9059216bd68a4daa9849fc12b205b4d3ccaaf47a9ea34cb0f0",
     "c107f3d083b3db1f7b623847d9b4d4f8b66aabe9ff14999dc3ac80fbc2839e6e",
     "1e7be02c6e860b7c4608598c0618b7934fe00c9866efdfa82ed936d6df299aaa"),
]


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name, report, build_csv, interaction, first_order",
                         GOLDEN_BUILD_AND_REPORT)
def test_report_and_build_golden_bytes(tmp_path, name, report, build_csv,
                                       interaction, first_order):
    path = scenario_path(name)
    code, out = run_cli(["report", path, "--runs", "3"])
    assert code == 0 and _sha256(out) == report
    code, out = run_cli(["build", path, "--format", "csv"])
    assert code == 0 and _sha256(out) == build_csv
    code, _ = run_cli(["build", path, "--out", str(tmp_path)])
    assert code == 0
    assert _sha256((tmp_path / "interaction.csv").read_text()) == interaction
    assert _sha256((tmp_path / "first_order.csv").read_text()) == first_order


def test_build_golden_bytes_on_a_sparse_model(tmp_path):
    # 40 agents x 8 signals: 320 signals, most of B's 102,400 cells zero.
    # Digests captured while every cell was formatted on its own.
    spec = sparse_reducible_model(np.random.default_rng(3), 40, 8)
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps(scenario_object(spec)))
    code, out = run_cli(["build", str(path), "--format", "csv"])
    assert code == 0
    assert _sha256(out) == (
        "7bcd10e9e3930f22450119724a0ce46e18ba09983a2097da9704059994691d59")
    code, _ = run_cli(["build", str(path), "--out", str(tmp_path)])
    assert code == 0
    assert _sha256((tmp_path / "interaction.csv").read_text()) == (
        "4cd756cb57afee35b4dd6d84f1c8084ae379933365aad657bc41bcd49e9fa1d6")
    assert _sha256((tmp_path / "first_order.csv").read_text()) == (
        "50e8afc31bb9c509dc853b7af08c407a07d4187e4c55a5eb1aa2e3ada501cbff")


@pytest.mark.parametrize("family, size, validate, build_csv", [
    ("sparse_reducible", 100,
     "393463c233b82d49c4f7f770089bb71172a6becf66798c5f17e7a7ac457fd822",
     "b2356e253995f5b212238a9a4e88a81eb416e0b5279de7ba60c4423c390bd6c9"),
    ("cis_dense", 50,
     "393463c233b82d49c4f7f770089bb71172a6becf66798c5f17e7a7ac457fd822",
     "1eccc8e1eae2a9a541d99b1f2e37c5c63062bdd517384f4e8880291caebf7830"),
], ids=["sparse-1000", "cis-150"])
def test_validate_and_build_csv_golden_bytes_on_benchmark_models(tmp_path, family, size,
                                                                 validate, build_csv):
    # the bench-gen models of 1000 and 150 signals (rng [1, 0]); digests
    # captured while each agent's marginals were stored one block per
    # counterpart and B was filled agent by agent.  Neither command calls
    # BLAS, so the bytes do not depend on the thread count
    path = tmp_path / "model.json"
    path.write_text(json.dumps(getattr(bench_gen(), family)(np.random.default_rng([1, 0]), size)))
    for argv, digest in ((["validate"], validate), (["build", "--format", "csv"], build_csv)):
        code, out = run_cli([argv[0], str(path), *argv[1:]])
        assert code == 0 and _sha256(out) == digest


@pytest.mark.parametrize("argv, digest", [
    (["verify-tyranny"], "462780fccb2fb844ba8cb8bf267786486d16a05c410a524f4a475e4fb1b96c35"),
    (["verify-tyranny", "--format", "csv"],
     "ff3a45415dc1a052953c6667e5f7d09ac36faa398369bb79d4d3076fd3e43d33"),
    (["report", "--beta", "0.9", "--runs", "2"],
     "d3e59760dd037e9c2a226e85ec2a6504d00393dbad556611725a11cfc794fe43"),
], ids=["verify-tyranny", "verify-tyranny csv", "report"])
def test_tyranny_path_golden_bytes_on_a_generated_cis_model(tmp_path, argv, digest):
    # the bench-gen cis_dense model of 90 signals (rng [1, 0]); digests
    # captured while the rounded structure was a record of its model's
    # parts, the walk searched the stored cells for its weights and the
    # structure's dense copy was kept by its rows.  The same under one and
    # two BLAS threads
    path = tmp_path / "cis90.json"
    path.write_text(json.dumps(bench_gen().cis_dense(np.random.default_rng([1, 0]), 30)))
    code, out = run_cli([argv[0], str(path), *argv[1:]])
    assert code == 0 and _sha256(out) == digest


def _count_calls(monkeypatch, counts, targets):
    """Wrap each (home module, name) so that calls add to ``counts``, at
    every module of the package that holds a reference to it."""
    for home, name in targets:
        original = getattr(home, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "consensus_lab":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)


@pytest.fixture
def work_counts(monkeypatch):
    """Counts structure builds, SCC searches and stationary solves."""
    counts = Counter()
    _count_calls(monkeypatch, counts, [(interaction, "build_interaction_structure"),
                                       (interaction, "_scc_search"),
                                       (interaction, "stationary_vector")])
    return counts


@pytest.mark.parametrize("name, builds, sccs, solves", [
    ("cps", 1, 2, 2),  # B; B and the network
    ("tyranny_extreme", 2, 3, 3),  # B and the rounded B; both and the network
])
def test_report_builds_each_structure_once(work_counts, name, builds, sccs, solves):
    code, _ = run_cli(["report", scenario_path(name), "--runs", "3"])
    assert code == 0
    assert work_counts == Counter(build_interaction_structure=builds,
                                  _scc_search=sccs,
                                  stationary_vector=solves)


def test_report_solves_the_transient_block_once(tmp_path, factorizations):
    # the benchmark's sparse_reducible model, seed 1: 1000 signals, 500 of
    # them transient, one transient SCC of 191 signals.  The game and
    # no-trade each walk the condensation and factor that SCC once; no
    # solve is made with the 500 x 500 transient block or the whole matrix
    # (the consensus does not print the absorption matrix)
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps(bench_gen().sparse_reducible(np.random.default_rng(1))))
    code, out = run_cli(["report", str(path)])
    assert code == 0
    # Tarjan's route finds the period-2 terminal class
    assert "aperiodic: False" in out.splitlines()
    structure = sio.load_scenario(str(path)).structure
    sizes = [len(c) for c in structure.components
             if len(c) > 1 and c not in structure.terminal]
    assert sizes == [191]
    assert factorizations.count((191, 191)) == 2
    assert (500, 500) not in factorizations and (1000, 1000) not in factorizations


def test_transient_block_singular_in_floating_point_is_refused(tmp_path, capsys):
    # it passed validation and ended in LinAlgError (exit 1) in consensus,
    # no-trade and report; the consensus needs no transient solve
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(SINGULAR_TRANSIENT))
    assert run_cli(["validate", str(path)])[0] == 0
    code, out = run_cli(["consensus", str(path)])
    assert code == 0 and "component_consensus b1 = 0.5\n" in out
    refusal = ("transient signal a1: (I - B_TT)^-1 is not finite there; I - B_TT is"
               " singular in floating point or not finite")
    assert run_cli(["no-trade", str(path)]) == (3, "")
    assert capsys.readouterr().err == f"precondition failure: {refusal}\n"
    code, out = run_cli(["report", str(path)])
    assert code == 0
    assert f"== no-trade ==\nnot applicable: {refusal}\n" in out


def test_transient_block_singular_in_floating_point_but_finite_is_refused(tmp_path, capsys):
    # a 1e-300 marginal entry makes I - B_TT singular in floating point but
    # leaves the solve finite: the absorption times came out near -4e16 and
    # no-trade and report ended in the witness's ArithmeticError (exit 1)
    scn = bench_gen().sparse_reducible(np.random.default_rng(1), 6, 6, 3)
    scn["beliefs"]["a4x3"]["marginals"]["signals"]["a1"][5] = 1e-300
    path = tmp_path / "finite.json"
    path.write_text(json.dumps(scn))
    assert run_cli(["validate", str(path)])[0] == 0
    # the time's last digits are the LU solve's rounding
    refusal = ("transient signal a0x3: absorption time -[0-9.]+e\\+1[5-8] is outside \\[1, inf\\];"
               " I - B_TT is singular in floating point")
    assert run_cli(["no-trade", str(path)]) == (3, "")
    assert re.fullmatch(f"precondition failure: {refusal}\n", capsys.readouterr().err)
    code, out = run_cli(["report", str(path)])
    assert code == 0
    assert re.search(f"\n== no-trade ==\nnot applicable: {refusal}\n", out)


@pytest.fixture
def csv_writes(monkeypatch):
    """Counts matrix CSV writes."""
    counts = Counter()
    _count_calls(monkeypatch, counts, [(sio, "write_matrix_csv")])
    return counts


@pytest.mark.parametrize("command, name, flags, writes", [
    ("build", "cps", [], 0),  # txt without --out reads no matrix text
    ("report", "cps", ["--runs", "3"], 0),
    ("report", "tyranny_extreme", ["--runs", "3"], 0),
    ("build", "cps", ["--format", "csv"], 2),
    ("build", "cps", ["--out", "DIR"], 2),
])
def test_matrices_are_formatted_only_when_read(tmp_path, csv_writes, command, name,
                                               flags, writes):
    flags = [str(tmp_path) if f == "DIR" else f for f in flags]
    code, _ = run_cli([command, scenario_path(name)] + flags)
    assert code == 0
    assert csv_writes["write_matrix_csv"] == writes


@pytest.mark.parametrize("command", ["build", "consensus", "report", "game-solve",
                                     "simulate-market"])
def test_unwritable_out_is_a_precondition_failure(tmp_path, capsys, command):
    blocker = tmp_path / "afile"
    blocker.write_text("")
    argv = [command, scenario_path("cps"), "--out", str(blocker / "x")]
    # the artifact is written first, so nothing reaches stdout
    printed = "== structure ==\n" if command == "report" else ""
    code, out = run_cli(argv)
    assert (code, out) == (3, printed)
    err = capsys.readouterr().err
    assert err.startswith("precondition failure: cannot write --out: ")
    assert str(blocker / "x") in err
    code, out = run_cli(argv + ["--format", "csv"])
    assert (code, out) == (3, printed)


@pytest.mark.parametrize("argv, artifacts", [
    (["consensus", "cps"], ["consensus.csv"]),
    (["game-solve", "cps"], ["actions.csv"]),
    (["simulate-market", "cps", "--runs", "5"], ["events.csv", "summary.csv"]),
    # long runs of about 1000 trades: cps.json (a 2-cycle) and cycle.json (a
    # 3-cycle) give each seller one buyer, so their holder paths repeat the
    # buyer map's orbit; tyranny_extreme.json's two buyers a seller go
    # through the bin table
    *((["simulate-market", name, "--beta", "0.999", "--runs", "50", "--seed", "1"],
       ["events.csv", "summary.csv"]) for name in ("cps", "cycle", "tyranny_extreme")),
])
def test_csv_stdout_is_the_artifact_bytes(tmp_path, argv, artifacts):
    command, scenario, *flags = argv
    code, out = run_cli([command, scenario_path(scenario), *flags,
                         "--format", "csv", "--out", str(tmp_path)])
    assert code == 0
    assert out == "".join((tmp_path / name).read_text() for name in artifacts)


class _Recording(StringIO):
    """A stdout that records the length of each write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, s):
        self.sizes.append(len(s))
        return super().write(s)


def _long_market(runs, fmt="csv"):
    """A market of about 1000 trades a run, 43 bytes of CSV a trade."""
    return ["simulate-market", scenario_path("cps"), "--beta", "0.999", "--runs", str(runs),
            "--seed", "1", "--format", fmt]


def test_market_csv_is_written_one_run_at_a_time(tmp_path):
    out = _Recording()
    assert main(_long_market(20), out=out) == 0
    text = out.getvalue()
    events, summary = text.split("stat,label,value\n")
    header, *rows = events.splitlines(keepends=True)
    by_run = Counter()
    for r in rows:
        by_run[r.partition(",")[0]] += len(r)
    assert len(by_run) == 20
    bound = max(by_run.values()) + len(header) + len("stat,label,value\n") + len(summary)
    assert max(out.sizes) <= bound < len(text) / 4
    # with --out, stdout is the artifact read back in fixed chunks
    out = _Recording()
    assert main(_long_market(20) + ["--out", str(tmp_path)], out=out) == 0
    assert out.getvalue() == text
    assert max(out.sizes) <= cli._CHUNK


class _Sink:
    """A stdout that keeps nothing."""

    def write(self, s):
        return len(s)

    def writelines(self, pieces):
        for s in pieces:
            self.write(s)


@pytest.mark.parametrize("argv", [
    ["build", "--format", "csv"], ["consensus"], ["game-solve", "--beta", "0.9"],
    ["verify-optimism"], ["no-trade"],
], ids=lambda argv: argv[0])
def test_sparse_ops_never_hold_a_dense_interaction_matrix(tmp_path, argv):
    # the benchmark's 1000-signal sparse model: a dense B alone is 8 MB, and
    # each op peaked at 9.1-9.7 MB when it was built, and game-solve,
    # verify-optimism and no-trade at 4.7-4.8 MB with a dense slab of 488
    # rows (3.9 MB) per product; the parse alone peaks near 2.8 MB
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps(bench_gen().sparse_reducible(np.random.default_rng([7, 0]))))
    argv = [argv[0], str(path), *argv[1:]]
    assert main(argv, out=_Sink()) == 0
    tracemalloc.start()
    try:
        assert main(argv, out=_Sink()) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1000 * 1000 * 4


def test_the_tyranny_path_never_holds_a_dense_interaction_matrix(tmp_path):
    # the benchmark's 150-signal cis_dense model: verify-tyranny and report
    # each peaked at 2.24 MB while mfpt, the rounding gap and the path
    # length read the kept dense copy of B, and at 1.74 MB from the stored
    # rows
    path = tmp_path / "cis.json"
    path.write_text(json.dumps(bench_gen().cis_dense(np.random.default_rng([1, 0]), 50)))
    for argv in (["verify-tyranny", str(path)], ["report", str(path), "--beta", "0.9"]):
        assert main(argv, out=_Sink()) == 0
        tracemalloc.start()
        try:
            assert main(argv, out=_Sink()) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, argv[0]
    cis = sio.load_scenario(path)
    verify_tyranny(cis)
    assert "matrix" not in vars(cis.model.structure)


#: Runs ``python -m consensus_lab.cli`` on the argv given as JSON, with its
#: stdout discarded, and prints that child's peak RSS in MB.  A fresh
#: parent, so no earlier child can set the peak.
PEAK_RSS = """
import json, resource, subprocess, sys
subprocess.run([sys.executable, "-m", "consensus_lab.cli", *json.loads(sys.argv[1])],
               stdout=subprocess.DEVNULL, check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
"""


def test_market_csv_is_never_held_whole():
    # the paths take 8 bytes a holder, a fifth of a row's text; the CSV was
    # held about three times over (a traced peak of 2.1 times its size)
    argv = _long_market(50)
    out = StringIO()
    assert main(argv, out=out) == 0
    size = len(out.getvalue())
    tracemalloc.start()
    try:
        assert main(argv, out=_Sink()) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size > 2**20 and peak < size
    # a whole process: 1000 runs print 38.6 MB of CSV with a peak RSS near
    # 48 MB, and peaked at 149 MB when the whole CSV was held
    argv = ["simulate-market", scenario_path("cps"), "--beta", "0.999", "--runs", "1000",
            "--seed", "7", "--format", "csv"]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    child = subprocess.run([sys.executable, "-c", PEAK_RSS, json.dumps(argv)],
                           capture_output=True, text=True, env=env, check=False, timeout=120)
    assert (child.returncode, child.stderr) == (0, "")
    assert float(child.stdout) < 100


@pytest.mark.parametrize("out_dir", [False, True])
def test_a_refused_summary_writes_no_event(tmp_path, capsys, out_dir):
    huge = _with("cps", lambda d: d.update(y={"values": {"lo": 5e307, "hi": 1e308},
                                              "max": 1e308}), tmp_path)
    flags = ["--format", "csv"] + (["--out", str(tmp_path / "o")] if out_dir else [])
    for argv, message in (([scenario_path("cps"), "--runs", "0"], "no runs to aggregate"),
                          ([huge, "--runs", "20", "--beta", "0.9"], PRICE_REFUSAL)):
        assert run_cli(["simulate-market", *argv, *flags]) == (3, "")
        assert capsys.readouterr().err == f"precondition failure: {message}\n"
        assert not (tmp_path / "o" / "events.csv").exists()


@pytest.mark.parametrize("fmt", ["txt", "csv"])
def test_an_unwritable_events_csv_leaves_stdout_empty(tmp_path, capsys, fmt):
    (tmp_path / "events.csv").mkdir()
    argv = _long_market(20, fmt) + ["--out", str(tmp_path)]
    assert run_cli(argv) == (3, "")
    assert capsys.readouterr().err.startswith("precondition failure: cannot write --out: ")
    assert not (tmp_path / "summary.csv").exists()


@pytest.mark.parametrize("out_dir", [False, True])
def test_a_reader_that_closes_stdout_early_ends_the_market_csv_quietly(tmp_path, out_dir):
    # about 2 MB of CSV, far above a pipe's buffer; with --out, stdout is
    # written after the artifact, so a closed stdout is not an --out failure
    argv = _long_market(50) + (["--out", str(tmp_path)] if out_dir else [])
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    child = subprocess.Popen([sys.executable, "-m", "consensus_lab.cli", *argv],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert child.stdout.readline() == b"run,period,seller,buyer,price,buyer_signal\n"
    child.stdout.close()
    _, err = child.communicate(timeout=120)
    assert (child.returncode, err.decode()) == (141, "")
    assert (tmp_path / "events.csv").exists() == out_dir


def test_priors_for_some_agents_only_skip_the_common_prior_rows(tmp_path, capsys):
    path = _with("cps", lambda d: d["priors"].pop("ann"), tmp_path)
    code, out = run_cli(["consensus", path])
    assert code == 0
    assert "consensus = " in out
    assert "cps_" not in out and "decomposition" not in out
    code, out = run_cli(["report", path])
    assert code == 0
    assert "cps_" not in out
    assert capsys.readouterr().err == ""


CSV_COMMANDS = {
    "consensus": ["consensus"],
    "game": ["game-solve", "--beta", "0.9"],
    "game-per-agent": ["game-solve", "--beta-per-agent", "PER_AGENT"],
    "market": ["simulate-market", "--beta", "0.9", "--runs", "20", "--seed", "3"],
    "optimism": ["verify-optimism"],
    "tyranny": ["verify-tyranny"],
    "no-trade": ["no-trade"],
}


def _csv_digest(tmp_path, name, command):
    """Exit code and SHA-256 of `--format csv --out DIR` stdout followed by
    each artifact under a `== file ==` line, in name order."""
    path = scenario_path(name)
    per_agent = ",".join(["0.9", "0.5", "0.7"][:len(_load_json(path)["agents"])])
    argv = [a.replace("PER_AGENT", per_agent) for a in CSV_COMMANDS[command]]
    out_dir = tmp_path / f"{name}-{command}"
    code, out = run_cli([argv[0], path] + argv[1:] + ["--format", "csv",
                                                     "--out", str(out_dir)])
    parts = [out]
    for f in sorted(os.listdir(out_dir)) if out_dir.exists() else []:
        parts.append(f"== {f} ==\n{(out_dir / f).read_text()}")
    return code, _sha256("".join(parts))


# Exit code and digest of `--format csv --out DIR` output per bundled
# scenario and command (see `_csv_digest`), captured before the CSV
# tables shared one writer.
GOLDEN_CSV = [
    ("cycle", "consensus", 0,
     "01352e341a53393290e43c3c9e030c0cd95790f9b4783b447a26ac840f2dd3f2"),
    ("cycle", "game", 0,
     "c9e9ee88d9a6b571ee8ed371b5d8beeaa5785282c7e65fe43b82234e696962a6"),
    ("cycle", "game-per-agent", 0,
     "e1aa85bbe6c0816864101557965381986625625c1c5358a32c426376ad5ec61d"),
    ("cycle", "market", 0,
     "3098346aee78cc37b5fb2d8494ceeb0c820ccbc797ed5bb88d85b4f72df6eb6f"),
    ("cycle", "optimism", 0,
     "f102e94abd3b4c13236cdbd1bf36418d1f83764d074de9eac2b97dfcc5135b2b"),
    ("cycle", "tyranny", 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("cycle", "no-trade", 0,
     "ad6f973cfbf672ee9c329f69eef930b1b550d775db311d96d69cd20171978700"),
    ("case2", "consensus", 0,
     "59485c7a4b7a91cb0942fd36c98f35cdfc3e65e9e79f63de47d420779bb3a835"),
    # game (case2, tightness) and no-trade (tightness): digits from the solve
    # along the condensation, each within 5.6e-16 of the exact solution
    ("case2", "game", 0,
     "97a133b29d1209ad37c458fc999fde9a300ad5b864345f43192ad7fecb4613ab"),
    ("case2", "game-per-agent", 0,
     "7d3d33dffd5467ce56c24cb1b9976fdb08e5707b3e8b010a3fabd89ac01ab400"),
    ("case2", "market", 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("case2", "optimism", 0,
     "c00e9f07065a07ec30fbf6f4283fcc85533b14a4eced96a85293726c61157f3c"),
    ("case2", "tyranny", 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("case2", "no-trade", 0,
     "dd48968bb5c4f1916f21216217c533c4c95563628f0b2b06615a024dd4ee9a7d"),
    ("counterexample", "consensus", 0,
     "1face56fba4f89c0e6f935b5c14904e4744f68b23e5f1f94966f1c144e2c4808"),
    ("counterexample", "game", 0,
     "a7bdaa3255af10f7c57cf5902b407ba442fc07656fa1716fa684b1d5fcbcec67"),
    ("counterexample", "game-per-agent", 0,
     "a7bdaa3255af10f7c57cf5902b407ba442fc07656fa1716fa684b1d5fcbcec67"),
    ("counterexample", "market", 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("counterexample", "optimism", 0,
     "ffecc16feaee01e64faf641302933861ed849e1a5b726f763fcae6f82b545d0d"),
    ("counterexample", "tyranny", 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("counterexample", "no-trade", 0,
     "18b239162d32db78320f3e25eebe49242d979831c6aaf408481cede04996c1ec"),
    ("tightness", "consensus", 0,
     "796f9665ea74e7bc8f8ac3be7aceedc55407a79f64e49e59e7db95cd0a5eb9b9"),
    ("tightness", "game", 0,
     "3a411eaf9c3046fc8028f8796479ceea194607c910c1b77b1443ed526a57473e"),
    ("tightness", "game-per-agent", 0,
     "bd2e628ade27298abc13ab297fdb230c00bbccf1f9927213b4075ff4b5ab79d0"),
    ("tightness", "market", 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("tightness", "optimism", 0,
     "754e70544fbb734bad136c59fd2e39ae84c750855b854f721fd137d7c508a8ae"),
    ("tightness", "tyranny", 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("tightness", "no-trade", 0,
     "5fd075320640956bc016bc478722c1432ac912a6bb6340a8ceeefecb3603dbc4"),
    # gained the prior_stationarity_residual row (stdout and consensus.csv)
    ("tyranny_extreme", "consensus", 0,
     "4acd9e36b3ef37b3b9512d42f496b0a92de49d097ca3db7efd68fe141e97f799"),
    ("tyranny_extreme", "game", 0,
     "3adec9a449340b81547444114fc6a80ee2378d8214eaf342aaa3dcb4cc7e36a5"),
    ("tyranny_extreme", "game-per-agent", 0,
     "4bb6b0ed74280f809adcdb0b67aca273915a8aeca68836527b606973c7ba08d1"),
    ("tyranny_extreme", "market", 0,
     "218326896add89206e80bc29ef1f23d99b37ece66d4385afc9baf0993ddcd9c2"),
    ("tyranny_extreme", "optimism", 0,
     "576b3799edcca509f5d809805c35eb9e1680a6bb008f6cf72f7cbc371219d9fa"),
    ("tyranny_extreme", "tyranny", 0,
     "86972b05ae5594e245bbc285bd22d30fa6107842a70c790273c9a6e9cbe072a9"),
    ("tyranny_extreme", "no-trade", 0,
     "ad6f973cfbf672ee9c329f69eef930b1b550d775db311d96d69cd20171978700"),
    ("cps", "consensus", 0,
     "39cfa051d68ba9347cf6f9c8f3e60718d6c4453f4e98c068916835aa5600454e"),
    ("cps", "game", 0,
     "5ea3f606ca4ee351790a9f0a5f85ba6fa630b233260e47701e0a85a84d79d349"),
    ("cps", "game-per-agent", 0,
     "49d4cc022bcdedc02bb36957f48a3f8208e92cd21d0659d8c5ecd7c3710575a1"),
    ("cps", "market", 0,
     "f283423349ab44a0bb4edffbe4b08eebabb3d761b7b904821fd8cbdc3e7e86e5"),
    ("cps", "optimism", 0,
     "359dfaf19edf503edfb5e10b732d6d1c83e4537f957169f28e204483a872b65a"),
    ("cps", "tyranny", 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("cps", "no-trade", 0,
     "ad6f973cfbf672ee9c329f69eef930b1b550d775db311d96d69cd20171978700"),
]


@pytest.mark.parametrize("name, command, code, digest", GOLDEN_CSV,
                         ids=[f"{n}-{c}" for n, c, _, _ in GOLDEN_CSV])
def test_csv_stdout_and_artifacts_golden_bytes(tmp_path, name, command, code, digest):
    assert _csv_digest(tmp_path, name, command) == (code, digest)


@pytest.mark.parametrize("fbar", ["nan", "inf", "-inf"])
def test_a_non_finite_fbar_is_a_precondition_failure(capsys, fbar):
    # -inf printed "bound = -inf" and "optimism bound PASS", NaN
    # "threshold = nan" and "FAIL", both with exit 0
    code, out = run_cli(["verify-optimism", scenario_path("case2"), f"--fbar={fbar}"])
    assert (code, out) == (3, "")
    err = capsys.readouterr().err
    assert err == f"precondition failure: threshold must be finite, got {float(fbar)}\n"
    code, out = run_cli(["report", scenario_path("case2"), f"--fbar={fbar}"])
    assert code == 0
    optimism = out.split("== optimism ==\n")[1].split("== no-trade ==")[0]
    assert optimism == f"not applicable: threshold must be finite, got {float(fbar)}\n"


def _doubled_joint(d):
    for entry in d["beliefs"]["a1"]["full"]:
        entry["p"] *= 2


@pytest.mark.parametrize("tol", ["inf", "nan", "-1", "-inf", "1e400", "x"])
@pytest.mark.parametrize("command", ["validate", "consensus", "report"])
def test_tol_must_be_a_finite_number_at_least_zero(tmp_path, capsys, command, tol):
    # on a joint that sums to 2, --tol inf passed validation and ended in
    # the stationary solve's ArithmeticError traceback; --tol nan reported
    # every vector of a valid scenario as invalid, --tol -1 every entry
    # as negative
    for path in (_with("cps", _doubled_joint, tmp_path), scenario_path("cps")):
        with pytest.raises(SystemExit) as exc:
            main([command, path, f"--tol={tol}"], out=StringIO())
        assert exc.value.code == 64
        assert (f"argument --tol: expected a finite number >= 0, got {tol!r}"
                in capsys.readouterr().err)


def test_tol_zero_and_a_finite_tol_still_validate(tmp_path, capsys, monkeypatch):
    assert run_cli(["validate", scenario_path("cps"), "--tol", "0"])[0] == 0
    doubled = _with("cps", _doubled_joint, tmp_path)
    assert run_cli(["validate", doubled, "--tol", "2"])[0] == 0
    # a failed residual gate is exit 3, and report does not call it not
    # applicable.  The doubled joint reached the stationary gate (an
    # ArithmeticError traceback, exit 1, until main mapped a failed gate to
    # exit 3) until the builder refused its belief rows, so the gate fails
    # here on the bundled scenario by a stand-in
    gate = "stationary solve residual 2.857e-01 exceeds 1.0e-10"

    def fail(*args):
        raise ArithmeticError(gate)

    monkeypatch.setattr(cli, "consensus_expectation", fail)
    monkeypatch.setattr(cli, "optimism_hypotheses", fail)
    for command in ("consensus", "verify-optimism", "report"):
        code, out, err = _call([command, scenario_path("cps")], capsys)
        assert (code, err) == (3, f"numerical check failed: {gate}\n")
        assert "not applicable" not in out


def test_a_loose_tol_carries_no_belief_row_off_one_past_the_builder(tmp_path, capsys):
    # valid at --tol 2: game-solve printed b2 = -0.41574519686232836 for
    # payoffs in [0, 1], no-trade found no trade and build printed
    # "aperiodic: False", each with exit 0
    doubled = _with("cps", _doubled_joint, tmp_path)
    refusal = "beliefs.a1.state: sums to 2.0 (expected 1 within 1e-12)"
    for command in (["build"], ["consensus"], ["game-solve", "--beta", "0.9"],
                    ["simulate-market", "--beta", "0.9"], ["verify-optimism"], ["no-trade"]):
        assert _call([command[0], doubled, *command[1:], "--tol", "2"], capsys) == (
            3, "", f"precondition failure: {refusal}\n")
    code, out, err = _call(["report", doubled, "--tol", "2", "--runs", "2"], capsys)
    assert (code, err) == (0, "")
    assert out.count(f"not applicable: {refusal}\n") == 6


def test_a_loose_tol_carries_no_network_row_off_one_past_the_builder(tmp_path, capsys):
    # valid at --tol 0.6: game-solve printed b2 = -0.4009650405033458 for
    # payoffs in [0, 1], and the rest ended in the stationary gate (exit 1)
    path = _with("cps", lambda d: d["network"][0].__setitem__(1, 1.5), tmp_path)
    refusal = "network.row[ann]: sums to 1.5 (expected 1 within 1e-12)"
    assert _call(["validate", path, "--tol", "0.6"], capsys) == (0, "scenario is valid\n", "")
    for command in (["build"], ["consensus"], ["game-solve", "--beta", "0.9"],
                    ["verify-optimism"], ["no-trade"]):
        assert _call([command[0], path, *command[1:], "--tol", "0.6"], capsys) == (
            3, "", f"precondition failure: {refusal}\n")
    code, out, err = _call(["report", path, "--tol", "0.6"], capsys)
    assert (code, err) == (0, "")
    assert out.count(f"not applicable: {refusal}\n") == 5
