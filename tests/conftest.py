import numpy as np
import pytest

from liaisonlab.ring import Ring


@pytest.fixture(scope="session")
def R4():
    """GF(32003)[x0..x3], degrevlex."""
    return Ring(4, 32003)


@pytest.fixture(scope="session")
def R3():
    return Ring(3, 32003)


@pytest.fixture(scope="session")
def R5():
    return Ring(5, 32003)


@pytest.fixture(scope="session")
def Rxy():
    return Ring(2, 32003, names=("x", "y"))


@pytest.fixture()
def rng():
    return np.random.default_rng(20240810)


def independent_rows(rows, p):
    """Reference GF(p) elimination on Python ints against a fully reduced
    basis: the indices of the rows that raise the rank of the rows before
    them; their count is the rank."""
    basis = {}  # pivot column -> row that is 1 there and 0 at every other pivot
    out = []
    for i, row in enumerate(rows):
        v = [int(x) % p for x in row]
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
