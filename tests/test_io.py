from io import StringIO

import numpy as np
import pytest

from consensus_lab.io import fmt, write_matrix_csv

from conftest import sparse_reducible_model


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
