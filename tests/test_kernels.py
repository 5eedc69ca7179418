"""The packed-term kernels against plain-Python references.

The references work on terms as (position, exponents) rows: a dict sums
the coefficients per row mod p, drops zeros and sorts the rows by their
module key (`Order.key`, position first in a POT module), largest first;
only then are the rows packed, by `Packing.pack`, and compared with what
the kernels return.  `canonicalize` and `merge_sub` are checked that way on
degrevlex, lex and block keys, ring and position-over-term modules, and
p = 2 and p = 2^31 - 1.  `normal_form_arrays` is checked, on the same
modules, against full reduction in a dict: the largest term first, by the
first dividing block, with the reducer table built one `append` at a time.
The packed S-pair of two table elements (`Reducers.s_pair`) is checked
against the S-polynomial of `Element.mono_mul` and `merge_sub` and against
the dict reference.  The unit shifts take a packed lead to the packed lcm
of two leads exactly as packing the lcm row does, and `Packing.decode` and
`Packing.degree` read every packed row back, for exponents up to
MAX_DEGREE.
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
    """Any integers, biased to 0, 1, p - 1 and their neighbours across a
    multiple of p."""
    return st.one_of(
        st.sampled_from([0, 1, p - 1, p, p + 1, -1, 2 * p - 1]),
        st.integers(-2 * p, 2 * p),
    )


@st.composite
def terms(draw, module, p):
    """Unsorted (row, coefficient) pairs, a row being (position, exponents),
    with small exponents, so that rows repeat."""
    nv = module.ring.nvars
    row = st.tuples(st.integers(0, module.rank - 1), *[st.integers(0, 2)] * nv)
    return draw(st.lists(st.tuples(row, _coefficients(p)), max_size=8))


def _key(module, row):
    key = module.ring.order.key(row[1:])
    return (-row[0], *key) if module.kind == "pot" else key


def _canonical(module, pairs, p):
    """Canonical rows by a dict: coefficients summed per row mod p, zeros
    dropped, rows sorted by their module key, largest first."""
    acc = {}
    for e, c in pairs:
        acc[tuple(e)] = (acc.get(tuple(e), 0) + c) % p
    return sorted(((e, c) for e, c in acc.items() if c), key=lambda t: _key(module, t[0]), reverse=True)


def _lists(module, pairs):
    """The packed ints and the coefficients of (row, coefficient) pairs, in
    the order given."""
    return [module.packing.pack(module.rank, e[0], e[1:]) for e, _ in pairs], [c for _, c in pairs]


def _assert_same(got, want):
    assert [type(x) for part in got for x in part] == [int] * sum(map(len, want))
    assert tuple(got) == tuple(want)


@pytest.mark.parametrize("p", PRIMES)
def test_canonicalize_matches_dict_reference(p):
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def check(data):
        module = data.draw(modules(p))
        pairs = data.draw(terms(module, p))
        _assert_same(K.canonicalize(*_lists(module, pairs), p), _lists(module, _canonical(module, pairs, p)))

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
        f = _lists(module, _canonical(module, f_pairs, p))
        g = _lists(module, _canonical(module, g_pairs, p))
        inputs = [list(a) for a in f + g]
        got = K.merge_sub(*f, *g, p)
        want = _lists(module, _canonical(module, f_pairs + [(e, -c) for e, c in g_pairs], p))
        _assert_same(got, want)
        assert [*f, *g] == inputs  # the inputs are left as they were
        assert not any(a is b for a in got for b in f + g)

    check()


@pytest.mark.parametrize("p", PRIMES)
def test_merge_sub_edge_cases(p):
    module = _module(3, ("degrevlex", 0), p, "pot", 2)
    f_pairs = [((0, 2, 0, 0), 1), ((0, 1, 1, 0), p - 1), ((1, 0, 0, 2), 1)]

    def canon(pairs):
        return _lists(module, _canonical(module, pairs, p))

    f, zero, negated = canon(f_pairs), canon([]), canon([(e, -c) for e, c in f_pairs])
    _assert_same(K.merge_sub(*f, *f, p), zero)  # a fully cancelling pair
    _assert_same(K.merge_sub(*f, *zero, p), f)
    _assert_same(K.merge_sub(*zero, *f, p), negated)
    _assert_same(K.merge_sub(*zero, *zero, p), zero)
    _assert_same(K.canonicalize(*_lists(module, [((1, 0, 0, 2), p), ((1, 0, 0, 2), 0)]), p), zero)


def _table(module, blocks, p):
    """A reducer table of canonical elements, appended one at a time."""
    table = K.Reducers(module.packing)
    for b in blocks:
        table.append(*_lists(module, b), p)
    return table


def _reduce_reference(module, f, blocks, p):
    """Full normal form in a dict keyed by rows: the term with the largest
    key first, divided by the first block (in list order) whose lead has
    its position and divides it."""
    pending = dict(f)
    rem = {}
    while pending:
        e = max(pending, key=lambda row: _key(module, row))
        c = pending.pop(e)
        for block in blocks:
            lead, lc = block[0]
            if lead[0] == e[0] and all(a <= b for a, b in zip(lead[1:], e[1:])):
                q = c * pow(lc, p - 2, p) % p
                for t, tc in block[1:]:
                    m = (t[0], *(a + b - l for a, b, l in zip(t[1:], e[1:], lead[1:])))
                    v = (pending.get(m, 0) - q * tc) % p
                    if v:
                        pending[m] = v
                    else:
                        pending.pop(m, None)
                break
        else:
            rem[e] = c
    return _lists(module, _canonical(module, list(rem.items()), p))


@st.composite
def reductions(draw, p):
    """A module, an f and a basis of 0-4 blocks with random (often
    non-monic) leads, as canonical rows: not a Groebner basis, so the
    first dividing block decides the remainder.  Blocks of one term occur
    often."""
    module = draw(modules(p))
    f = _canonical(module, draw(terms(module, p)), p)
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        b = _canonical(module, draw(terms(module, p))[:4], p)
        if b:
            blocks.append(b)
    return module, f, blocks


def _check_normal_form(module, f, blocks, p):
    packed, coeffs = _lists(module, f)
    got = K.normal_form_arrays(packed, coeffs, _table(module, blocks, p), p)
    _assert_same(got, _reduce_reference(module, f, blocks, p))
    assert (packed, coeffs) == _lists(module, f)  # the input is left as it was
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
        return _canonical(module, [((0, *e), c) for e, c in pairs], p)

    def check(f, blocks, want):
        _assert_same(_check_normal_form(module, f, blocks, p), _lists(module, want))

    x0, x1, x2 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    # x0 -> x2 cancels the pending -x2; then x1 -> x2 brings the key back
    check(el((x0, 1), (x1, 1), (x2, -1)), [el((x0, 1), (x2, -1)), el((x1, 1), (x2, -1))], el((x2, 1)))
    # a one-term block removes every multiple of its lead; a later block
    # dividing the same term is never used
    check(el(((1, 1, 0), 3), (x2, 1)), [el((x0, 3)), el((x0, 1), (x1, 1))], el((x2, 1)))
    # no blocks, a zero f, and an f that reduces to zero
    check(el((x0, 1), (x2, 1)), [], el((x0, 1), (x2, 1)))
    check(el(), [el((x0, 1))], el())
    check(el((x0, 5), (x1, 5)), [el((x0, 1), (x1, 1))], el())


@pytest.mark.parametrize("p", PRIMES)
def test_normal_form_arrays_packs_extreme_fields(p):
    """Fields near the int64 bound pack and shift exactly: exponents near
    2^61, block keys whose fields are near -2^61, and a step whose positive
    rise ends at MAX_DEGREE."""
    big = 2**61
    # x0^(2^61) * x1^(2^60 - 1) -> x1^(2^62 - 1) by x0^(2^61) - x1^(2^61 + 2^60)
    lex = _module(2, ("lex", 0), p, "ring", 1)
    f = _canonical(lex, [((0, big, 2**60 - 1), 1), ((0, 0, 5), 3)], p)
    block = _canonical(lex, [((0, big, 0), 3), ((0, 0, big + 2**60), 1)], p)
    got = _check_normal_form(lex, f, [block], p)
    assert max(map(lex.packing.degree, got[0])) == K.MAX_DEGREE
    # block(1) keys (-pos, e0, -e0, e1 + e2, -e2, -e1) of a rank-2 POT module
    pot = _module(3, ("block", 1), p, "pot", 2)
    f = _canonical(pot, [((1, big, 2**60, 3), 1), ((1, big - 1, 2**60 + 1, 3), 3), ((0, 1, big, 2**60), 1)], p)
    blocks = [
        _canonical(pot, [((1, big, 0, 3), 3), ((1, big - 1, 1, 3), 1)], p),
        _canonical(pot, [((0, 1, big - 7, 0), 1), ((0, 0, big - 7, 1), 3)], p),
    ]
    got = _check_normal_form(pot, f, blocks, p)
    assert got[0] and 0 in map(pot.packing.position, got[0])


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
        table = _table(module, blocks[:cut], p)
        _assert_same(K.normal_form_arrays(*_lists(module, f), table, p), _reduce_reference(module, f, blocks[:cut], p))
        for b in blocks[cut:]:
            table.append(*_lists(module, b), p)
        fresh = _table(module, blocks, p)
        assert K.normal_form_arrays(*_lists(module, f), table, p) == K.normal_form_arrays(*_lists(module, f), fresh, p)

    check()


def _packed_s_pair(module, blocks, i, j, p):
    """The S-pair of blocks i and j from their table: seeded from the
    tails, shifted by the packed lcm of the leads, and popped in order
    (zero sums dropped) by a reduction against an empty table."""
    (a, _), (b, _) = blocks[i][0], blocks[j][0]
    row = (a[0], *map(max, a[1:], b[1:]))
    lcm = module.packing.pack(module.rank, row[0], row[1:])
    heap, coef = _table(module, blocks, p).s_pair(i, j, lcm, sum(row[1:]), p)
    return K.reduce_packed(heap, coef, K.Reducers(module.packing), p)


@pytest.mark.parametrize("p", PRIMES)
def test_s_pair_matches_array_s_polynomial(p):
    """The packed S-pair of two table elements with leads at one position
    equals the S-polynomial m_i*g_i/lc_i - m_j*g_j/lc_j, made by
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
            if i != j and a[0][0][0] == b[0][0][0]
        ]
        assume(pairs)
        i, j = data.draw(st.sampled_from(pairs))
        lcm = np.maximum(blocks[i][0][0][1:], blocks[j][0][0][1:])
        g_i, g_j = (Element(module, *_lists(module, blocks[k])).monic() for k in (i, j))
        s = g_i.mono_mul(lcm - blocks[i][0][0][1:]) - g_j.mono_mul(lcm - blocks[j][0][0][1:])
        terms = []
        for k, sign in ((i, 1), (j, -1)):
            lead, lc = blocks[k][0]
            q = sign * pow(lc, p - 2, p)
            for e, c in blocks[k]:
                terms.append(((e[0], *(a + m - b for a, m, b in zip(e[1:], lcm.tolist(), lead[1:]))), q * c))
        want = _lists(module, _canonical(module, terms, p))
        _assert_same((s.packed, s.coeffs), want)
        _assert_same(_packed_s_pair(module, blocks, i, j, p), want)

    check()


@pytest.mark.parametrize("p", PRIMES)
def test_s_pair_degree_bound(p):
    """An S-pair whose terms reach MAX_DEGREE is exact; one past it raises.
    Under lex, g = x0 + x1^(2^61) has rise 2^61 - 1, and its S-pair with
    x0*x1^k is x1^(k + 2^61), of degree lcm + rise."""
    lex = _module(2, ("lex", 0), p, "ring", 1)
    g = _canonical(lex, [((0, 1, 0), 1), ((0, 0, 2**61), 1)], p)
    for k in (2**61 - 1, 2**61):
        blocks = [g, _canonical(lex, [((0, 1, k), 1)], p)]
        if k + 2**61 > K.MAX_DEGREE:
            with pytest.raises(DegreeOverflow):
                _packed_s_pair(lex, blocks, 0, 1, p)
        else:
            _assert_same(_packed_s_pair(lex, blocks, 0, 1, p), _lists(lex, [((0, 0, K.MAX_DEGREE), 1)]))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_unit_shifts_pack_the_lcm(data):
    """A lead's packed int plus (lcm - lead) times the unit shifts is the
    packed lcm, for exponents up to MAX_DEGREE: packing is linear.  Every
    packed row decodes back to its position and exponents, and its degree
    reads back exactly."""
    module = data.draw(modules(32003))
    nv = module.ring.nvars
    cap = K.MAX_DEGREE // nv  # every exponent row, and the lcm, has degree <= MAX_DEGREE
    exponent = st.one_of(st.sampled_from([0, 1, cap - 1, cap]), st.integers(0, cap))
    pos = data.draw(st.integers(0, module.rank - 1))
    rows = [(pos, *data.draw(st.lists(exponent, min_size=nv, max_size=nv))) for _ in range(2)]
    lcm = tuple(map(max, *rows))
    P = module.packing
    want = P.pack(module.rank, pos, lcm[1:])
    for row in rows:
        lead = P.pack(module.rank, pos, row[1:])
        assert lead + sum((m - e) * u for m, e, u in zip(lcm[1:], row[1:], P.units[1:])) == want
        assert P.decode(lead) == (pos, row[1:])
        assert P.position(lead) == pos and P.degree(lead) == sum(row[1:])


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
