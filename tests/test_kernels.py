"""The term-array kernels against plain-Python references.

`canonicalize` and `merge_sub` are checked against a dict that sums the
coefficients per key mod p, drops zeros and sorts the keys descending, on
degrevlex, lex and block keys, ring and position-over-term modules, and
p = 2 and p = 2^31 - 1.  `pivot_rows` is checked against Gaussian
elimination on Python ints.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liaisonlab import _kernels as K
from liaisonlab.ring import FreeModule, Order, Ring

PRIMES = [2, 2**31 - 1]
ORDERS = [("degrevlex", 0), ("lex", 0), ("block", 1), ("block", 2)]


@lru_cache(maxsize=None)
def _module(nv, order, p, kind, rank):
    ring = Ring(nv, p, Order(*order))
    return FreeModule(ring, (0,) * rank, kind=kind)


@st.composite
def modules(draw, p):
    """A ring or position-over-term module over 1-3 variables, in a
    degrevlex, lex or block order."""
    nv = draw(st.integers(1, 3))
    order = draw(st.sampled_from([o for o in ORDERS if o[1] < nv]))
    kind = draw(st.sampled_from(["ring", "pot"]))
    rank = 1 if kind == "ring" else draw(st.integers(1, 3))
    return _module(nv, order, p, kind, rank)


def _coefficients(p):
    """Any int64-safe integers, biased to 0, 1, p - 1 and their neighbours
    across a multiple of p."""
    return st.one_of(
        st.sampled_from([0, 1, p - 1, p, p + 1, -1, 2 * p - 1]),
        st.integers(-2 * p, 2 * p),
    )


@st.composite
def terms(draw, module, p):
    """Unsorted (exps row, coefficient) pairs with small exponents, so that
    keys repeat."""
    nv = module.ring.nvars
    row = st.tuples(st.integers(0, module.rank - 1), *[st.integers(0, 2)] * nv)
    return draw(st.lists(st.tuples(row, _coefficients(p)), max_size=8))


def _arrays(module, pairs):
    """Term arrays, in the order given, of (exps row, coefficient) pairs."""
    exps = np.array([e for e, _ in pairs], dtype=np.int64).reshape(len(pairs), 1 + module.ring.nvars)
    return module.key_rows(exps), exps, np.array([c for _, c in pairs], dtype=np.int64)


def _reference(module, pairs, p):
    """Canonical arrays by a dict: coefficients summed per key mod p, zeros
    dropped, keys sorted descending."""
    keys, exps, _ = _arrays(module, pairs)
    acc = {}
    for k, e, (_, c) in zip(keys.tolist(), exps.tolist(), pairs):
        s, _ = acc.get(tuple(k), (0, e))
        acc[tuple(k)] = ((s + c) % p, e)
    kept = sorted(((k, e, c) for k, (c, e) in acc.items() if c), reverse=True)
    return (
        np.array([k for k, _, _ in kept], dtype=np.int64).reshape(len(kept), module.keylen),
        np.array([e for _, e, _ in kept], dtype=np.int64).reshape(len(kept), 1 + module.ring.nvars),
        np.array([c for _, _, c in kept], dtype=np.int64),
    )


def _assert_same(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == np.int64 and g.shape == w.shape
        assert np.array_equal(g, w)


@pytest.mark.parametrize("p", PRIMES)
def test_canonicalize_matches_dict_reference(p):
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def check(data):
        module = data.draw(modules(p))
        pairs = data.draw(terms(module, p))
        keys, exps, coeffs = _arrays(module, pairs)
        _assert_same(K.canonicalize(keys, exps, coeffs, p), _reference(module, pairs, p))

    check()


@pytest.mark.parametrize("p", PRIMES)
def test_merge_sub_matches_dict_reference(p):
    """f - g on canonical inputs, including empty sides and terms of g that
    meet f's, with equal coefficients (they cancel) or not."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def check(data):
        module = data.draw(modules(p))
        f_pairs = data.draw(terms(module, p))
        g_pairs = data.draw(terms(module, p))
        shared = data.draw(st.lists(st.sampled_from(f_pairs), max_size=8)) if f_pairs else []
        g_pairs += [(e, c if data.draw(st.booleans()) else c + 1) for e, c in shared]
        f = _reference(module, f_pairs, p)
        g = _reference(module, g_pairs, p)
        inputs = [a.copy() for a in f + g]
        got = K.merge_sub(*f, *g, p)
        want = _reference(module, f_pairs + [(e, -c) for e, c in g_pairs], p)
        _assert_same(got, want)
        _assert_same(f + g, inputs)  # the inputs are left as they were
        assert not any(np.shares_memory(a, b) for a in got for b in f + g)

    check()


@pytest.mark.parametrize("p", PRIMES)
def test_merge_sub_edge_cases(p):
    module = _module(3, ("degrevlex", 0), p, "pot", 2)
    f_pairs = [((0, 2, 0, 0), 1), ((0, 1, 1, 0), p - 1), ((1, 0, 0, 2), 1)]
    f = _reference(module, f_pairs, p)
    zero = _reference(module, [], p)
    negated = _reference(module, [(e, -c) for e, c in f_pairs], p)
    _assert_same(K.merge_sub(*f, *f, p), zero)  # a fully cancelling pair
    _assert_same(K.merge_sub(*f, *zero, p), f)
    _assert_same(K.merge_sub(*zero, *f, p), negated)
    _assert_same(K.merge_sub(*zero, *zero, p), zero)
    _assert_same(K.canonicalize(*_arrays(module, [((1, 0, 0, 2), p), ((1, 0, 0, 2), 0)]), p), zero)


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
