import numpy as np
import pytest

from liaisonlab.ideals import Ideal
from liaisonlab.ring import Element, Ring


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


@pytest.fixture()
def colon_products(monkeypatch):
    """The ring products formed inside `Ideal.colon` (the product test
    g*h of its skipped generators), as a list of factor pairs; the
    annihilator runs behind the colon multiply no ring elements."""
    products, depth = [], []
    colon, mul = Ideal.colon, Element.__mul__

    def spy_colon(self, other, numerator=None):
        depth.append(other)
        try:
            return colon(self, other, numerator)
        finally:
            depth.pop()

    def spy_mul(f, g):
        if depth:
            products.append((f, g))
        return mul(f, g)

    monkeypatch.setattr(Ideal, "colon", spy_colon)
    monkeypatch.setattr(Element, "__mul__", spy_mul)
    return products


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
