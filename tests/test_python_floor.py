"""Every Python file of the project parses at the ``requires-python`` floor,
3.10, so CI's leg on that version meets no syntax it lacks."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_every_python_file_parses_as_python_3_10():
    paths = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))
    assert len(paths) > 30
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
