"""The term-array kernels against plain-Python references.

`canonicalize` and `merge_sub` are checked against a dict that sums the
coefficients per key mod p, drops zeros and sorts the keys descending, on
degrevlex, lex and block keys, ring and position-over-term modules, and
p = 2 and p = 2^31 - 1.  `normal_form_arrays` is checked, on the same
modules, against full reduction in a dict: the largest term first, by the
first dividing block, with the reducer table built one `append` at a time.
The packed S-pair of two table elements (`Reducers.s_pair`) is checked
against the array S-polynomial of `Element.mono_mul` and `merge_sub` and
against the dict reference.  `unit_shifts`, the packed shift of each
variable, takes a packed lead to the packed lcm of two leads exactly as
`pack` of the lcm row, for exponents up to MAX_DEGREE.
`ranks` and `pivots` are checked, one stack of same-shaped matrices at a
time, against Gaussian elimination on Python ints
(`conftest.independent_rows`) for each matrix and its transpose, on stacks
of mixed ranks and with no rows or no columns.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liaisonlab import _kernels as K
from liaisonlab.errors import DegreeOverflow
from liaisonlab.ring import Element, FreeModule, Order, Ring

from conftest import independent_rows

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


def _append(table, block, p):
    keys, exps, coeffs = block
    table.append(K.pack(keys, exps), exps, coeffs.tolist(), p)


def _table(blocks, p):
    """A reducer table of canonical elements, appended one at a time."""
    table = K.Reducers()
    for b in blocks:
        _append(table, b, p)
    return table


def _reduce_reference(module, f, blocks, p):
    """Full normal form in a dict keyed by exponent tuples: the term with
    the largest key first, divided by the first block (in list order) whose
    lead has its position and divides it."""

    def key(e):
        return tuple(module.key_rows(np.array([e], dtype=np.int64))[0].tolist())

    pending = {tuple(e): c for e, c in zip(f[1].tolist(), f[2].tolist())}
    rem = {}
    while pending:
        e = max(pending, key=key)
        c = pending.pop(e)
        for _, be, bc in blocks:
            lead = be[0].tolist()
            if lead[0] == e[0] and all(a <= b for a, b in zip(lead[1:], e[1:])):
                q = c * pow(int(bc[0]), p - 2, p) % p
                for t, tc in zip(be[1:].tolist(), bc[1:].tolist()):
                    m = (t[0], *(a + b - l for a, b, l in zip(t[1:], e[1:], lead[1:])))
                    v = (pending.get(m, 0) - q * tc) % p
                    if v:
                        pending[m] = v
                    else:
                        pending.pop(m, None)
                break
        else:
            rem[e] = c
    return _reference(module, list(rem.items()), p)


@st.composite
def reductions(draw, p):
    """A module, an f and a basis of 0-4 blocks with random (often
    non-monic) leads: not a Groebner basis, so the first dividing block
    decides the remainder.  Blocks of one term occur often."""
    module = draw(modules(p))
    f = _reference(module, draw(terms(module, p)), p)
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        b = _reference(module, draw(terms(module, p))[:4], p)
        if len(b[2]):
            blocks.append(b)
    return module, f, blocks


def _check_normal_form(module, f, blocks, p):
    inputs = [a.copy() for a in f + sum(blocks, ())]
    got = K.normal_form_arrays(*f, _table(blocks, p), p)
    _assert_same(got, _reduce_reference(module, f, blocks, p))
    _assert_same(f + sum(blocks, ()), inputs)  # the inputs are left as they were
    return got


@pytest.mark.parametrize("p", PRIMES)
def test_normal_form_arrays_matches_dict_reduction(p):
    @given(reductions(p))
    @settings(max_examples=200, deadline=None)
    def check(case):
        _check_normal_form(*case, p)

    check()


@pytest.mark.parametrize("p", PRIMES)
def test_normal_form_arrays_edge_cases(p):
    module = _module(3, ("lex", 0), p, "ring", 1)

    def el(*pairs):
        return _reference(module, [((0, *e), c) for e, c in pairs], p)

    x0, x1, x2 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    # x0 -> x2 cancels the pending -x2; then x1 -> x2 brings the key back
    f = el((x0, 1), (x1, 1), (x2, -1))
    got = _check_normal_form(module, f, [el((x0, 1), (x2, -1)), el((x1, 1), (x2, -1))], p)
    _assert_same(got, el((x2, 1)))
    # a one-term block removes every multiple of its lead; a later block
    # dividing the same term is never used
    got = _check_normal_form(module, el(((1, 1, 0), 3), (x2, 1)), [el((x0, 3)), el((x0, 1), (x1, 1))], p)
    _assert_same(got, el((x2, 1)))
    # no blocks, a zero f, and an f that reduces to zero
    _check_normal_form(module, el((x0, 1), (x2, 1)), [], p)
    _assert_same(_check_normal_form(module, el(), [el((x0, 1))], p), el())
    _assert_same(_check_normal_form(module, el((x0, 5), (x1, 5)), [el((x0, 1), (x1, 1))], p), el())


@pytest.mark.parametrize("p", PRIMES)
def test_normal_form_arrays_packs_extreme_fields(p):
    """Fields near the int64 bound pack and shift exactly: exponents near
    2^61, block keys whose fields are near -2^61, and a step whose positive
    rise ends at MAX_DEGREE."""
    big = 2**61
    # x0^(2^61) * x1^(2^60 - 1) -> x1^(2^62 - 1) by x0^(2^61) - x1^(2^61 + 2^60)
    lex = _module(2, ("lex", 0), p, "ring", 1)
    f = _reference(lex, [((0, big, 2**60 - 1), 1), ((0, 0, 5), 3)], p)
    block = _reference(lex, [((0, big, 0), 3), ((0, 0, big + 2**60), 1)], p)
    got = _check_normal_form(lex, f, [block], p)
    assert got[1][:, 1:].sum(axis=1).max() == K.MAX_DEGREE
    # block(1) keys (-pos, e0, -e0, e1 + e2, -e2, -e1) of a rank-2 POT module
    pot = _module(3, ("block", 1), p, "pot", 2)
    f = _reference(pot, [((1, big, 2**60, 3), 1), ((1, big - 1, 2**60 + 1, 3), 3), ((0, 1, big, 2**60), 1)], p)
    blocks = [
        _reference(pot, [((1, big, 0, 3), 3), ((1, big - 1, 1, 3), 1)], p),
        _reference(pot, [((0, 1, big - 7, 0), 1), ((0, 0, big - 7, 1), 3)], p),
    ]
    got = _check_normal_form(pot, f, blocks, p)
    assert len(got[2]) and (got[1][:, 0] == 0).any()


@pytest.mark.parametrize("p", PRIMES)
def test_reducers_append_after_a_reduction(p):
    """A table that reduced, then grew, reduces as one built fresh from all
    its elements: an element appended after a reduction divides in the
    next one, after the elements before it."""

    @given(reductions(p), st.data())
    @settings(max_examples=100, deadline=None)
    def check(case, data):
        module, f, blocks = case
        cut = data.draw(st.integers(0, len(blocks)))
        table = _table(blocks[:cut], p)
        _assert_same(K.normal_form_arrays(*f, table, p), _reduce_reference(module, f, blocks[:cut], p))
        for b in blocks[cut:]:
            _append(table, b, p)
        _assert_same(K.normal_form_arrays(*f, table, p), K.normal_form_arrays(*f, _table(blocks, p), p))

    check()


def _packed_s_pair(module, blocks, i, j, p):
    """The S-pair of blocks i and j from their table: seeded from the
    tails, shifted by the packed lcm of the leads, and popped in order
    (zero sums dropped) by a reduction against an empty table."""
    row = np.maximum(blocks[i][1][:1], blocks[j][1][:1])
    lcm = K.pack(module.key_rows(row), row)[0]
    heap, coef = _table(blocks, p).s_pair(i, j, lcm, int(row[0, 1:].sum()), p)
    nexp = 1 + module.ring.nvars
    packed, coeffs = K.reduce_packed(heap, coef, K.Reducers(), nexp, p)
    return (*K.unpack(packed, module.keylen, nexp), np.array(coeffs, dtype=np.int64))


@pytest.mark.parametrize("p", PRIMES)
def test_s_pair_matches_array_s_polynomial(p):
    """The packed S-pair of two table elements with leads at one position
    equals the array S-polynomial m_i*g_i/lc_i - m_j*g_j/lc_j, made by
    `Element.mono_mul` and `merge_sub`, and both equal the dict
    reference."""

    @given(reductions(p), st.data())
    @settings(max_examples=150, deadline=None)
    def check(case, data):
        module, _, blocks = case
        pairs = [
            (i, j)
            for i, a in enumerate(blocks)
            for j, b in enumerate(blocks)
            if i != j and a[1][0, 0] == b[1][0, 0]
        ]
        assume(pairs)
        i, j = data.draw(st.sampled_from(pairs))
        lcm = np.maximum(blocks[i][1][0, 1:], blocks[j][1][0, 1:])
        g_i, g_j = (Element(module, blocks[k]).monic() for k in (i, j))
        s = g_i.mono_mul(lcm - g_i.exps[0, 1:]) - g_j.mono_mul(lcm - g_j.exps[0, 1:])
        terms = []
        for k, sign in ((i, 1), (j, -1)):
            _, exps, coeffs = blocks[k]
            q = sign * pow(int(coeffs[0]), p - 2, p)
            lead = exps[0, 1:].tolist()
            for e, c in zip(exps.tolist(), coeffs.tolist()):
                terms.append(((e[0], *(a + m - b for a, m, b in zip(e[1:], lcm.tolist(), lead))), q * c))
        want = _reference(module, terms, p)
        _assert_same((s.keys, s.exps, s.coeffs), want)
        _assert_same(_packed_s_pair(module, blocks, i, j, p), want)

    check()


@pytest.mark.parametrize("p", PRIMES)
def test_s_pair_degree_bound(p):
    """An S-pair whose terms reach MAX_DEGREE is exact; one past it raises.
    Under lex, g = x0 + x1^(2^61) has rise 2^61 - 1, and its S-pair with
    x0*x1^k is x1^(k + 2^61), of degree lcm + rise."""
    lex = _module(2, ("lex", 0), p, "ring", 1)
    g = _reference(lex, [((0, 1, 0), 1), ((0, 0, 2**61), 1)], p)
    for k in (2**61 - 1, 2**61):
        blocks = [g, _reference(lex, [((0, 1, k), 1)], p)]
        if k + 2**61 > K.MAX_DEGREE:
            with pytest.raises(DegreeOverflow):
                _packed_s_pair(lex, blocks, 0, 1, p)
        else:
            _assert_same(_packed_s_pair(lex, blocks, 0, 1, p), _reference(lex, [((0, 0, K.MAX_DEGREE), 1)], p))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_unit_shifts_pack_the_lcm(data):
    """A lead's packed int plus (lcm - lead) times the unit shifts is the
    packed lcm, for exponents up to MAX_DEGREE: packing is linear."""
    module = data.draw(modules(32003))
    nv = module.ring.nvars
    cap = K.MAX_DEGREE // nv  # every exponent row, and the lcm, has degree <= MAX_DEGREE
    exponent = st.one_of(st.sampled_from([0, 1, cap - 1, cap]), st.integers(0, cap))
    pos = data.draw(st.integers(0, module.rank - 1))
    rows = np.array(
        [[pos, *data.draw(st.lists(exponent, min_size=nv, max_size=nv))] for _ in range(2)],
        dtype=np.int64,
    )
    lcm = rows.max(axis=0, keepdims=True)
    want = K.pack(module.key_rows(lcm), lcm)[0]
    unit = K.unit_shifts(module.key_rows, 1 + nv)
    for lead, row in zip(K.pack(module.key_rows(rows), rows), rows.tolist()):
        assert lead + sum((m - e) * u for m, e, u in zip(lcm[0, 1:].tolist(), row[1:], unit)) == want


@st.composite
def row_lists(draw, p, nrows, ncols):
    """nrows rows of ncols entries mod p, some of them combinations of
    earlier rows, with entries biased to 0, 1 and p - 1 (the largest
    products int64 must hold)."""
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    rows = []
    for _ in range(nrows):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) % p for j in range(ncols)])
        else:
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
    return rows


@st.composite
def stacks(draw, p):
    """1-4 matrices of one shape, up to 10 x 6 and possibly with no rows or
    no columns, each drawn by `row_lists`, so their ranks differ."""
    nrows, ncols = draw(st.integers(0, 10)), draw(st.integers(0, 6))
    mats = [draw(row_lists(p, nrows, ncols)) for _ in range(draw(st.integers(1, 4)))]
    return np.array(mats, dtype=np.int64).reshape(len(mats), nrows, ncols)


@pytest.mark.parametrize("p", PRIMES)
def test_ranks_match_elimination(p):
    @given(stacks(p))
    @settings(max_examples=150, deadline=None)
    def check(stack):
        before = stack.copy()
        got = K.ranks(stack, p)
        assert got.tolist() == [len(independent_rows(m.tolist(), p)) for m in stack]
        # the pivot columns are the columns that raise the rank of those before
        mask = K.pivots(stack, p)
        assert [np.flatnonzero(row).tolist() for row in mask] == [
            independent_rows(m.T.tolist(), p) for m in stack
        ]
        assert np.array_equal(stack, before)

    check()


@pytest.mark.parametrize("p", PRIMES)
def test_ranks_of_a_stack_with_mixed_ranks(p):
    """Full, zero, one and two, side by side in one stack; a stack with no
    matrices, no rows or no columns has no rank to report but zeros."""
    q = p - 1
    stack = [
        [[1, 0, 0], [0, q, 0], [0, 0, 1]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[q, 1, 0], [1, q, 0], [q, 1, 0]],
        [[0, 1, 1], [0, 0, 1], [0, 1, 0]],
    ]
    assert K.ranks(np.array(stack), p).tolist() == [3, 0, 1, 2]
    for shape in [(0, 3, 3), (2, 0, 3), (2, 3, 0)]:
        assert K.ranks(np.zeros(shape, dtype=np.int64), p).tolist() == [0] * shape[0]
