"""README's library example runs as written and prints what it says."""

import os
import re
import subprocess
import sys

import consensus_lab

ROOT = os.path.join(os.path.dirname(__file__), "..")


def test_the_library_quickstart_prints_its_commented_values():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    # each print gives one line; a trailing comment states the line it prints
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    stated = {k: line.split("#", 1)[1].strip()
              for k, line in enumerate(prints) if "#" in line}
    assert stated == {0: "0.485", 1: "[0.5 0.5]"}
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(consensus_lab.__file__))}
    child = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                           capture_output=True, text=True, check=False, timeout=120)
    assert (child.returncode, child.stderr) == (0, "")
    lines = child.stdout.splitlines()
    assert len(lines) == len(prints)
    for k, value in stated.items():
        assert lines[k] == value
