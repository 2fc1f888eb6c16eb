import hashlib
import json
import os
import sys
from collections import Counter
from io import StringIO

import numpy as np
import pytest

from consensus_lab import cli, interaction, spectral
from consensus_lab import io as sio
from consensus_lab.cli import main
from consensus_lab.game import solve_beta_game
from consensus_lab.market import cis_generating, product_generating, simulate_market
from consensus_lab.tyranny import CISSpec

from conftest import cis_scenario, scenario_object, scenario_path, sparse_reducible_model

FIXTURES = ["cycle", "case2", "counterexample", "tightness", "tyranny_extreme", "cps"]


def run_cli(argv):
    out = StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


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
    assert "decomposition check PASS" in out
    assert "consensus = 0.48499999999999999" in out


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
    assert "tyranny bound PASS" in out
    assert "consensus = 0.7" in out


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


def test_no_trade_verdicts():
    code, out = run_cli(["no-trade", scenario_path("cps")])
    assert code == 0
    assert "no strictly profitable separable trade" in out
    code, out = run_cli(["no-trade", scenario_path("case2")])
    assert code == 0
    assert "trade found" in out or "payments" in out


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
    assert (code, out, capsys.readouterr().err) == (2, "", f"invalid: {message}\n")


# SHA-256 of `report --runs 3` stdout, `build --format csv` stdout and the two
# `build --out` files, captured before specs cached their structures.
GOLDEN_BUILD_AND_REPORT = [
    ("cycle", "4b513fad163638acbd6314b6e63b4cf12248e525cfe9cee8874e0fda46c387aa",
     "b01c2278cde50c9551ac05018131638dd7c9a96a2d9239615d4fdb8361c9a534",
     "264c9455da1d0cc194bd1bd404a7735e9d29a69a9983234e1fc93d2cf35cbb44",
     "9c63ed72c14f5390372028cc934e09eff76469cfa7db1473bab5d75e3962a9ad"),
    ("case2", "d24c15dd33f9bdf4a12d0e12efee35cb37b2763e89edec42209eadd25b9a7870",
     "f9c966d4fb7170e9569627f7d7912f2589783e78be764eb7cb31049e590bac28",
     "99b80d472aefce7a36c1af17429e631e5a4d93a8788026ebeb50d411c7309beb",
     "1eefa6553459c4d40433e03ec6bf76ffb3b8dfe556327ddb5b0d78e3d5a3bdcf"),
    ("counterexample", "92cf22da4f479e6df7346cc4ca69e1c7a528807b27357a8afc400627ff03c7d8",
     "457c27a91b73669c9d7ae200c8733be95e6461b3cdd170286644054b5ff0909f",
     "8216b8a1a12c00860b52d32175c4fb51d2f51b010ca22860c5bd622d1d74b526",
     "9c63ed72c14f5390372028cc934e09eff76469cfa7db1473bab5d75e3962a9ad"),
    ("tightness", "f7487af86d46d0689925a5fabd2c7eb40fb5ca01ef2ce7b593b7dff849865710",
     "fe9693ee13965426e4252dc60ebdf7fcfea9fee44c5d10bc5d9736311a738598",
     "5ece2863b586614c0b53c1a3d194637b7d1b00ddfbeeb01f3aa91ccfc68294c2",
     "37c260b289890bd83ea33e84bcfa3453f72184e8ff2596b7d0b76bd396d777d8"),
    ("tyranny_extreme", "85471f9bfce1c1abfcb573e8e24174c432180c196e56042cabee74744eefb483",
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
    """Counts structure builds, SCC passes and stationary solves."""
    counts = Counter()
    _count_calls(monkeypatch, counts, [(interaction, "build_interaction_structure"),
                                       (interaction, "strongly_connected_components"),
                                       (spectral, "stationary_distribution")])
    return counts


@pytest.mark.parametrize("name, builds, sccs, solves", [
    ("cps", 1, 2, 2),  # B; B and the network
    ("tyranny_extreme", 2, 3, 3),  # B and the rounded B; both and the network
])
def test_report_builds_each_structure_once(work_counts, name, builds, sccs, solves):
    code, _ = run_cli(["report", scenario_path(name), "--runs", "3"])
    assert code == 0
    assert work_counts == Counter(build_interaction_structure=builds,
                                  strongly_connected_components=sccs,
                                  stationary_distribution=solves)


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
    (["consensus"], ["consensus.csv"]),
    (["game-solve"], ["actions.csv"]),
    (["simulate-market", "--runs", "5"], ["events.csv", "summary.csv"]),
])
def test_csv_stdout_is_the_artifact_bytes(tmp_path, argv, artifacts):
    code, out = run_cli([argv[0], scenario_path("cps")] + argv[1:]
                        + ["--format", "csv", "--out", str(tmp_path)])
    assert code == 0
    assert out == "".join((tmp_path / name).read_text() for name in artifacts)


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
    ("case2", "game", 0,
     "f31d7735173829c2654d17a96d050f1608b505f2991a75cb9177fc97db21ee56"),
    ("case2", "game-per-agent", 0,
     "a864c2af6e6400a72ff98cfa1775ac7e58d7c31c7a01f23ccfbbe6cdc32b9616"),
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
     "858d8e37062c427feae23dc144777bd174a23a9d32e3d744db9f2134fd244264"),
    ("tightness", "game-per-agent", 0,
     "5b99924ec4f21ad8c023e9fdda10cff1e087679e5cfa9bd83c4709402b848c8e"),
    ("tightness", "market", 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("tightness", "optimism", 0,
     "754e70544fbb734bad136c59fd2e39ae84c750855b854f721fd137d7c508a8ae"),
    ("tightness", "tyranny", 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("tightness", "no-trade", 0,
     "44da6a941b8ca97a593f87f1ecddb4e401df859146377f89356168cca191ac61"),
    ("tyranny_extreme", "consensus", 0,
     "799d6f87792636dfc28c42a24e576c6bd298013f41b7ab1c914a8a3c01cc23bf"),
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
