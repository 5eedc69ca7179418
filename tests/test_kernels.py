"""The GF(p) row-rank kernel against plain Gaussian elimination."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liaisonlab import _kernels as K


def _independent_rows(rows, p):
    """Reference for pivot_rows: Gaussian elimination on Python ints against
    a fully reduced basis; row i is kept when it raises the rank."""
    basis = {}  # pivot column -> row that is 1 there and 0 at every other pivot
    out = []
    for i, row in enumerate(rows):
        v = [x % p for x in row]
        for col, b in basis.items():
            c = v[col]
            v = [(x - c * y) % p for x, y in zip(v, b)]
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is None:
            continue
        inv = pow(v[piv], p - 2, p)
        v = [x * inv % p for x in v]
        for col, b in basis.items():
            c = b[piv]
            basis[col] = [(x - c * y) % p for x, y in zip(b, v)]
        basis[piv] = v
        out.append(i)
    return out


@st.composite
def row_lists(draw, p):
    """Rows mod p, some of them combinations of earlier rows, with entries
    biased to 0, 1 and p - 1 (the largest products int64 must hold)."""
    ncols = draw(st.integers(1, 6))
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) % p for j in range(ncols)])
        else:
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
    return rows


@pytest.mark.parametrize("p", [2, 2**31 - 1])
def test_pivot_rows_matches_elimination(p):
    @given(row_lists(p))
    @settings(max_examples=150, deadline=None)
    def check(rows):
        lazy = (np.array(r, dtype=np.int64) for r in rows)
        assert K.pivot_rows(lazy, p) == _independent_rows(rows, p)

    check()
