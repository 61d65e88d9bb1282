"""`determinant_of` reads the determinant off the elimination record of
`linalg._elimination`; here it must equal the Bareiss determinant of
`helpers.naive_determinant`, an independent algorithm, on the square
matrices cut from the recipes of `test_elimination_oracle`: zero and
repeated rows, large denominators and entries of more than 4300 digits.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings

from homlie.linalg import determinant_of

from helpers import dense, naive_determinant
from test_elimination_oracle import build, recipes

HUGE_ROW = [("huge numerator", 1, 1, 7), ("q", 1, 2)]


@settings(deadline=None)
@example((0, []))  # 0 x 0
@example((2, [HUGE_ROW, [("huge denominator", -2, 3, 1), ("huge numerator", -1, 3, 5)]]))
@example((2, [HUGE_ROW, ("repeat", 0, -1)]))  # singular
@example((3, [[("q", 1, 1), ("q", 2, 1), ("0",)], "zero", [("q", 0, 1), ("q", 1, 3), ("q", 5, 1)]]))
@example((3, [[("0",), ("q", 1, 1), ("0",)], [("0",), ("0",), ("q", 2, 3)],
              [("q", -3, 1), ("0",), ("0",)]]))  # pivot rows out of order
@given(recipes())
def test_determinant_equals_bareiss_on_square_matrices(recipe):
    m = build(recipe)
    n = min(m.rows, m.cols)
    rows = [row[:n] for row in dense(m)[:n]]
    assert determinant_of(rows) == naive_determinant(rows)
