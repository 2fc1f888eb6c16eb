"""Seeded mutation fuzzing of the CLI's exit-code contract.

Each case mutates one site of a bundled scenario and runs one subcommand
through ``cli.main`` in process.  The contract: the run exits 0, 2, 3 or
64 and raises nothing (the suite turns every warning into an error), its
stderr holds only the CLI's own refusal lines, with no bare Python error
text, and an exit-0 ``verify-tyranny`` prints a bound that is not NaN and
``tyranny bound PASS`` exactly when ``gap <= bound + 1e-12``.
"""

import copy
import json
import math
import random
import re
from contextlib import redirect_stderr
from io import StringIO

import pytest

from consensus_lab.cli import main

from conftest import scenario_path

SCENARIOS = ["case2", "counterexample", "cps", "cycle", "tightness", "tyranny_extreme"]
COMMANDS = [["validate"], ["build"], ["consensus"], ["game-solve", "--beta", "0.9"],
            ["simulate-market", "--beta", "0.9", "--runs", "2"], ["verify-optimism"],
            ["verify-tyranny"], ["no-trade"], ["report", "--beta", "0.9"]]
TINY = [1e-160, 1e-300, 5e-324]
NUMBERS = [math.nan, math.inf, -math.inf, 1e308, -0.0]
CASES = 334  # per scenario: about 2000 in all
#: the prefixes of the CLI's own stderr lines: usage, scenario, validation,
#: precondition and residual-gate refusals
REFUSAL = re.compile(r"(usage: |consensus-lab: error: |scenario error: |invalid: "
                     r"|precondition failure: |numerical check failed: )")
#: texts of Python's and numpy's own errors, which a refusal must not carry
BARE = re.compile(r"division by zero|division or modulo|math domain|Traceback|"
                  r"has no attribute|not subscriptable|unsupported operand|could not convert|"
                  r"encountered in|object is not|index \d+ is out of bounds")


def _sites(node, path=()):
    """Every ``(path, value)`` below ``node``, the root excluded."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,), value
        yield from _sites(value, path + (key,))


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _retyped(value, rng):
    """``value`` as a value of another JSON type."""
    if _is_number(value):
        return rng.choice([str(value), [value], None, True])
    if isinstance(value, str):
        return rng.choice([1, [value], None])
    if isinstance(value, list):
        return rng.choice([{}, 1.0, "x"])
    if isinstance(value, dict):
        return rng.choice([list(value.values()), 1.0, "x"])
    return rng.choice([0, "true", [value]])


def _parent(data, path):
    for key in path[:-1]:
        data = data[key]
    return data


def _mutate(data, rng):
    """Mutate one site of ``data`` in place; returns what was done."""
    sites = list(_sites(data))
    keyed = [s for s in sites if isinstance(_parent(data, s[0]), dict)]
    kinds = {
        "drop": keyed,
        "rename": keyed,
        "retype": sites,
        "number": [s for s in sites if _is_number(s[1])],
        "length": [s for s in sites if isinstance(s[1], list) and s[1]],
        "tiny": [s for s in sites if isinstance(s[1], list) and len(s[1]) == 2
                 and all(_is_number(x) and x >= 0 for x in s[1])
                 and abs(sum(s[1]) - 1.0) <= 1e-12],
    }
    kind = rng.choice([k for k, found in kinds.items() if found])
    path, value = rng.choice(kinds[kind])
    parent, key = _parent(data, path), path[-1]
    if kind == "drop":
        del parent[key]
    elif kind == "rename":
        new = f"{key}_x" if rng.random() < 0.5 else rng.choice(list(parent))
        parent[new] = parent.pop(key)
    elif kind == "retype":
        parent[key] = _retyped(value, rng)
    elif kind == "number":
        parent[key] = rng.choice(NUMBERS + [-abs(value) or -1.0])
    elif kind == "length":
        parent[key] = value[:-1] if rng.random() < 0.5 else value + [value[-1]]
    else:
        t = rng.choice(TINY)
        parent[key] = [t, 1.0 - t]
    return kind, path, parent.get(key) if isinstance(parent, dict) else parent[key]


def _field(out, name):
    return float(re.search(rf"^{name} = (\S+)$", out, re.MULTILINE).group(1))


@pytest.mark.parametrize("name", SCENARIOS)
def test_mutated_scenarios_keep_the_exit_code_contract(tmp_path, name):
    with open(scenario_path(name)) as fh:
        original = json.load(fh)
    rng = random.Random(f"fuzz-{name}")
    path = tmp_path / "mutated.json"
    codes, tyranny_runs = set(), 0
    for case in range(CASES):
        data = copy.deepcopy(original)
        kind, site, value = _mutate(data, rng)
        path.write_text(json.dumps(data))
        cis = original["kind"] == "cis" and rng.random() < 0.5
        command = rng.choice([["verify-tyranny"], COMMANDS[-1]] if cis else COMMANDS)
        argv = [command[0], str(path), *command[1:]]
        what = f"case {case}: {kind} at {site} -> {value!r}; {' '.join(command)}"
        out, err = StringIO(), StringIO()
        try:
            with redirect_stderr(err):
                code = main(argv, out=out)
        except Exception as exc:  # the contract allows none
            pytest.fail(f"{what}: {exc!r}")
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 2, 3, 64), what
        assert all(REFUSAL.match(line) for line in err.splitlines()), (what, err)
        assert not BARE.search(err), (what, err)
        codes.add(code)
        if code == 0 and command[0] == "verify-tyranny":
            bound, gap = _field(out, "bound"), _field(out, "gap")
            assert not math.isnan(bound), what
            verdict = "PASS" if gap <= bound + 1e-12 else "FAIL"
            assert out.endswith(f"\ntyranny bound {verdict}\n"), what
            tyranny_runs += 1
    # every scenario has runs that pass and runs that are refused
    assert {0, 2} <= codes
    assert tyranny_runs > 0 or name != "tyranny_extreme"
