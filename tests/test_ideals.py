from functools import reduce
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liaisonlab.errors import DegenerateMatrix, DivisionByZero, RingMismatch, UnitIdeal
from liaisonlab.ideals import Ideal, PolyMatrix
from liaisonlab.ring import FreeModule, Ring


def _monomials_upto(R, d):
    out = []
    for t in range(d + 1):
        for combo in combinations_with_replacement(range(R.nvars), t):
            e = [0] * R.nvars
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
    return out


def _divisible(m, g):
    return all(a >= b for a, b in zip(m, g))


def _in_monomial(m, gens):
    return any(_divisible(m, g) for g in gens)


def test_sum_product_basics(R4):
    x0, x1, x2, x3 = R4.gens()
    A = Ideal(R4, [x0, x2])
    B = Ideal(R4, [x1, x2])
    assert (A + B) == Ideal(R4, [x0, x1, x2])
    assert Ideal(R4, [x0]) * Ideal(R4, [x1]) == Ideal(R4, [x0 * x1])
    assert A + A == A


def test_intersection_skew_lines(R4):
    x0, x1, x2, x3 = R4.gens()
    X = Ideal(R4, [x0, x1]).intersect(Ideal(R4, [x2, x3]))
    expect = Ideal(R4, [x0 * x2, x0 * x3, x1 * x2, x1 * x3])
    assert X == expect
    # both inclusions by normal form, and the degree-2 piece has dimension 4
    assert Ideal(R4, [x0, x1]).contains_ideal(X)
    assert Ideal(R4, [x2, x3]).contains_ideal(X)
    assert len([g for g in X.gb if g.degree == 2]) == 4


def test_intersection_trivial(R4):
    x0 = R4.var(0)
    I = Ideal(R4, [x0])
    assert I.intersect(Ideal(R4, [R4.one()])) == I
    assert Ideal(R4, [x0]).intersect(Ideal(R4, [x0 ** 2])) == Ideal(R4, [x0 ** 2])


def _pairwise(ideals):
    return reduce(lambda a, b: a.intersect(b), ideals)


def test_nary_intersect_matches_the_pairwise_fold(R4):
    """One annihilator run over k ideals gives the reduced basis of k - 1
    pairwise runs, on seeded ideals of random forms and monomials."""
    rng = np.random.default_rng(13)
    x0, x1, x2, x3 = R4.gens()
    fixed = [Ideal(R4, [x0, x1]), Ideal(R4, [x2, x3]), Ideal(R4, [x0 ** 2, x1 * x3])]
    for k in (2, 3, 4):
        for _ in range(3):
            ideals = [
                Ideal(R4, [R4.random_poly(int(d), rng) for d in rng.integers(1, 3, size=2)])
                for _ in range(k - 1)
            ] + [fixed[int(rng.integers(0, len(fixed)))]]
            order = rng.permutation(k)
            ideals = [ideals[i] for i in order]
            got = ideals[0].intersect(*ideals[1:])
            assert got == _pairwise(ideals)
            assert all(I.contains_ideal(got) for I in ideals)


def test_nary_intersect_of_nothing_and_of_other_rings(R4, R3):
    x0, x1 = R4.var(0), R4.var(1)
    I = Ideal(R4, [x0 * x1, x1 ** 2])
    assert I.intersect() is I
    J, K = Ideal(R4, [x0]), Ideal(R3, [R3.var(0)])
    for args in [(K,), (J, K), (K, J), (J, J, K)]:
        with pytest.raises(RingMismatch):
            I.intersect(*args)
    with pytest.raises(RingMismatch):
        K.intersect(J)


def test_colon_worked_links(R4):
    x0, x1, x2, x3 = R4.gens()
    c = Ideal(R4, [x0 * x3 - x1 * x2, x0 * x2 - x1 ** 2])
    TC = Ideal(R4, [x0 * x2 - x1 ** 2, x0 * x3 - x1 * x2, x1 * x3 - x2 ** 2])
    assert c.colon(TC) == Ideal(R4, [x0, x1])
    c2 = Ideal(R4, [x0 * x3 - x1 * x2, x0 * x2 ** 2 - x1 ** 2 * x3])
    quart = c2.colon(Ideal(R4, [x0, x1]).intersect(Ideal(R4, [x2, x3])))
    skew = Ideal(R4, [x0, x1]).intersect(Ideal(R4, [x2, x3]))
    assert c2.colon(quart) == skew
    # a self-linked line
    X = Ideal(R4, [x0 * x1, x0 + x1])
    assert X.colon(Ideal(R4, [x0, x1])) == Ideal(R4, [x0, x1])


def test_double_line_pathology(R4):
    x0, x1, x2, x3 = R4.gens()
    IX = Ideal(R4, [x0, x1]).power(2)
    IC1 = Ideal(R4, [x0 ** 2, x0 * x1, x1 ** 2, x0 * x2 ** 2 - x1 * x3 ** 2])
    IC2 = Ideal(R4, [x0, x1])
    assert IX.colon(IC1) == IC2
    assert IX.colon(IC2) == IC2
    assert IX.colon(IC2) != IC1


def test_colon_intersect_against_monomial_oracle(R4, rng):
    """Exhaustive monomial-membership oracles on random monomial ideals."""
    monos = _monomials_upto(R4, 4)
    for trial in range(12):
        gensI = [tuple(int(v) for v in rng.integers(0, 3, 4)) for _ in range(3)]
        gensJ = [tuple(int(v) for v in rng.integers(0, 3, 4)) for _ in range(2)]
        gensI = [g for g in gensI if sum(g)] or [(1, 0, 0, 0)]
        gensJ = [g for g in gensJ if sum(g)] or [(0, 1, 0, 0)]
        I = Ideal(R4, [R4.monomial(g) for g in gensI])
        J = Ideal(R4, [R4.monomial(g) for g in gensJ])
        inter = I.intersect(J)
        colon = I.colon(J)
        for m in monos:
            in_both = _in_monomial(m, gensI) and _in_monomial(m, gensJ)
            assert inter.contains(R4.monomial(m)) == in_both
            # m in (I : J) iff m*g in I for every generator g of J
            in_colon = all(
                _in_monomial(tuple(a + b for a, b in zip(m, g)), gensI)
                for g in gensJ
            )
            assert colon.contains(R4.monomial(m)) == in_colon


def test_colon_by_zero_raises(R4):
    x0, x1 = R4.var(0), R4.var(1)
    with pytest.raises(DivisionByZero):
        Ideal(R4, [x0 * x1]).colon(Ideal(R4, []))
    with pytest.raises(DivisionByZero):
        Ideal(R4, [x0 * x1]).colon(R4.zero())


def test_saturation(R4, Rxy):
    x0, x1, x2, x3 = R4.gens()
    x, y = Rxy.gens()
    # the (x^2, xy) example saturates to (x) in K[x,y] where m = (x,y)
    assert Ideal(Rxy, [x ** 2, x * y]).saturate() == Ideal(Rxy, [x])
    # in four variables the same ideal is already saturated
    I = Ideal(R4, [x0 ** 2, x0 * x1])
    assert I.saturate() == I
    # saturating by a member of the radical gives the unit ideal
    assert Ideal(R4, [x0, x1]).power(2).saturate(x0).is_unit
    sk = Ideal(R4, [x0, x1]).intersect(Ideal(R4, [x2, x3]))
    assert sk.saturate() == sk
    irrelevant = Ideal(R4, [x0, x1]) + Ideal(R4, [x2, x3])
    assert irrelevant.saturate() != irrelevant


def test_eliminate(R4):
    x0, x1, x2, x3 = R4.gens()
    I = Ideal(R4, [x0 * x2 - x1 ** 2])
    assert I.eliminate([]) == I
    E = I.eliminate([0])
    assert E.is_zero
    # shape check: no x1-terms after eliminating x1
    J = Ideal(R4, [x1 - x0 ** 2 if False else x1 * x0 - x2 * x3, x1 * x2 - x0 * x3])
    E2 = J.eliminate([1])
    for g in E2.gb:
        assert all(e[1] == 0 for _, e, _ in g.terms())
    # cross-check: intersect implemented by elimination matches membership
    A = Ideal(R4, [x0, x1])
    B = Ideal(R4, [x2, x3])
    X = A.intersect(B)
    for m in _monomials_upto(R4, 3):
        f = R4.monomial(m)
        assert X.contains(f) == (A.contains(f) and B.contains(f))


def test_maximal_minors(R4):
    x0, x1, x2, x3 = R4.gens()
    A = PolyMatrix(R4, [[x0, x1, x2], [x1, x2, x3]])
    M = A.maximal_minors()
    TC = Ideal(R4, [x0 * x2 - x1 ** 2, x0 * x3 - x1 * x2, x1 * x3 - x2 ** 2])
    assert M == TC
    B = PolyMatrix(R4, [[x0, x1]])
    assert B.maximal_minors() == Ideal(R4, [x0, x1])
    C = PolyMatrix(R4, [[x0, x1], [x2, x3]])
    assert C.maximal_minors() == Ideal(R4, [x0 * x3 - x1 * x2])
    with pytest.raises(DegenerateMatrix):
        PolyMatrix(R4, [[x0 + x1 ** 2, x1], [x2, x3]])


def test_matrix_block_off_row_0_is_checked(R3):
    """A block of entries that shares no row or column with row 0 is held
    to the degree rule as it would be alone."""
    x0, x1, x2 = R3.gens()
    z = R3.zero()
    with pytest.raises(DegenerateMatrix):
        PolyMatrix(R3, [[x1, x2 ** 2], [x2 ** 2, x1]])
    with pytest.raises(DegenerateMatrix):
        PolyMatrix(R3, [[x0, z, z], [z, x1, x2 ** 2], [z, x2 ** 2, x1]])


def test_matrix_degrees_of_a_block_off_row_0(R3):
    """Such a block is solved from its own first row at twist 0."""
    x0, x1, _ = R3.gens()
    z = R3.zero()
    A = PolyMatrix(R3, [[x0, z, z], [z, x1, x1 ** 2], [z, x1 ** 2, x1 ** 3]])
    assert (A.row_degs, A.col_degs) == ([0, 0, -1], [1, 1, 2])
    for i, row in enumerate(A.rows):
        for j, f in enumerate(row):
            assert f.is_zero or f.degree == A.col_degs[j] - A.row_degs[i]


def test_codimension(R4):
    x0, x1, x2, x3 = R4.gens()
    sk = Ideal(R4, [x0, x1]).intersect(Ideal(R4, [x2, x3]))
    assert sk.codimension() == 2
    assert Ideal(R4, [x0, x1, x2]).codimension() == 3
    TC = Ideal(R4, [x0 * x2 - x1 ** 2, x0 * x3 - x1 * x2, x1 * x3 - x2 ** 2])
    assert TC.codimension() == 2
    with pytest.raises(UnitIdeal):
        Ideal(R4, [R4.one()]).codimension()


def _codim_by_support_subsets(ideal):
    """nvars minus the size of the largest set S of variables that holds the
    support of no lead term of the reduced basis: the monomials in S alone
    then survive in R/in(I), no larger such S exists, and |S| is
    dim R/in(I) = dim R/I."""
    n = ideal.ring.nvars
    supports = [{i for i, a in enumerate(e) if a} for e in ideal.lt_exps()]
    return n - max(
        size
        for size in range(n + 1)
        for S in combinations(range(n), size)
        if not any(s <= set(S) for s in supports)
    )


CODIM_RINGS = {n: Ring(n, 32003) for n in range(2, 6)}


@st.composite
def ideals_in_2_to_5_variables(draw):
    """A monomial ideal, or an ideal of sparse random forms of degree 1-3,
    in 2-5 variables; never the unit ideal."""
    R = CODIM_RINGS[draw(st.integers(2, 5))]
    if draw(st.booleans()):
        exps = st.tuples(*[st.integers(0, 3)] * R.nvars).filter(any)
        return Ideal(R, [R.poly({e: 1}) for e in draw(st.lists(exps, min_size=1, max_size=5))])
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        terms = st.tuples(st.sampled_from(R.monomials(draw(st.integers(1, 3)))), st.integers(1, 32002))
        gens.append(R.poly(dict(draw(st.lists(terms, min_size=1, max_size=3)))))
    return Ideal(R, gens)


@given(ideals_in_2_to_5_variables())
@settings(max_examples=60, deadline=None)
def test_codimension_against_the_support_subset_search(I):
    assert I.codimension() == _codim_by_support_subsets(I)


def test_product_inside_intersection(R4, rng):
    for _ in range(5):
        gensI = [R4.random_poly(1, rng), R4.random_poly(2, rng)]
        gensJ = [R4.random_poly(1, rng)]
        I, J = Ideal(R4, gensI), Ideal(R4, gensJ)
        inter = I.intersect(J)
        prod = I * J
        assert inter.contains_ideal(prod)
        assert I.contains_ideal(inter)
        assert J.contains_ideal(inter)


def test_colon_by_a_module_element_is_a_ring_mismatch():
    """Only a ring element divides an ideal, whatever the rank or twist of
    the module the other element lies in."""
    R = Ring(3, 32003)
    x0, x1, x2 = R.gens()
    I = Ideal(R, [x0 * x1, x2 ** 2])
    for bad in (FreeModule(R, (0, 0)).inject(x0, 1), FreeModule(R, (1,)).inject(x1, 0)):
        for colon in (I.colon, I.colon_poly):
            with pytest.raises(RingMismatch):
                colon(bad)


def test_double_colon_on_unmixed(R4):
    x0, x1, x2, x3 = R4.gens()
    c = Ideal(R4, [x0 * x3 - x1 * x2, x0 * x2 - x1 ** 2])
    for I in (
        Ideal(R4, [x0, x1]),
        Ideal(R4, [x0 * x2 - x1 ** 2, x0 * x3 - x1 * x2, x1 * x3 - x2 ** 2]),
    ):
        J = c.colon(I)
        assert c.colon(J) == I


# -- sympy oracle: intersection, colon and saturation ----------------------

P = 32003
RING = Ring(3, P)
T, *X = sympy.symbols("t x0 x1 x2")
DEGREE_MONOMIALS = {d: RING.monomials(d) for d in (1, 2)}


@st.composite
def small_forms(draw):
    """A nonzero form of degree 1 or 2 in 3 variables, as {exps: coeff}."""
    d = draw(st.sampled_from([1, 2]))
    terms = st.tuples(st.sampled_from(DEGREE_MONOMIALS[d]), st.integers(1, P - 1))
    return dict(draw(st.lists(terms, min_size=1, max_size=3)))


small_ideals = st.lists(small_forms(), min_size=1, max_size=3)


def _sympy_expr(terms):
    return sum(c * sympy.Mul(*(x ** a for x, a in zip(X, e))) for e, c in terms.items())


def _t_free(gens, *extra_vars):
    """Generators of the ideal of gens intersected with K[x0, x1, x2], by a
    lex basis with the extra variables first."""
    G = sympy.groebner(gens, *extra_vars, *X, order="lex", modulus=P)
    return [g for g in G.exprs if not g.has(*extra_vars)]


def _sympy_intersect(A, B):
    return _t_free([T * a for a in A] + [(1 - T) * b for b in B], T)


def _grevlex(exprs):
    G = sympy.groebner(exprs, *X, order="grevlex", modulus=P)
    return {
        frozenset((m, int(c) % P) for m, c in g.as_poly(*X, modulus=P, symmetric=False).terms())
        for g in G.exprs
    }


def _ours(ideal):
    return {frozenset((e, c) for _, e, c in g.terms()) for g in ideal.gb}


def _both(gens):
    return Ideal(RING, [RING.poly(f) for f in gens]), [_sympy_expr(f) for f in gens]


@given(small_ideals, small_ideals)
@settings(max_examples=25, deadline=None)
def test_intersect_against_sympy(a, b):
    (I, sI), (J, sJ) = _both(a), _both(b)
    assert _ours(I.intersect(J)) == _grevlex(_sympy_intersect(sI, sJ))


def _sympy_colon_poly(A, f):
    """A : f, as the quotients by f of the generators of A and (f)."""
    quotients = []
    for g in _sympy_intersect(A, [f]):
        q, r = sympy.div(g, f, *X, modulus=P)
        assert r == 0
        quotients.append(q)
    return quotients


@given(small_ideals, small_forms())
@settings(max_examples=20, deadline=None)
def test_colon_poly_against_sympy(a, f):
    I, sI = _both(a)
    assert _ours(I.colon_poly(RING.poly(f))) == _grevlex(_sympy_colon_poly(sI, _sympy_expr(f)))


@given(small_ideals, small_forms(), small_forms(), small_forms(), st.booleans(), st.booleans())
@example([{(2, 0, 0): 1}], {(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1}, True, True)
@settings(max_examples=15, deadline=None)
def test_colon_against_sympy(a, f, g, h, member, multiple):
    """I : (f, g, ...) is the intersection of the colons by its generators.
    K may also hold the first generator of I, whose colon is R, and the
    multiple f*h, whose colon contains I : f: the generators the colon
    skips.  The example has both skips: (x0^2) : (x0, x1, x0^2, x0*x2)."""
    I, sI = _both(a)
    K = [RING.poly(f), RING.poly(g)]
    if member:
        K.append(I.gens[0])
    if multiple:
        K.append(K[0] * RING.poly(h))
    parts = [_sympy_colon_poly(sI, _sympy_expr({e: c for _, e, c in k.terms()})) for k in K]
    expect = reduce(_sympy_intersect, parts)
    assert _ours(I.colon(Ideal(RING, K))) == _grevlex(expect)


def test_colon_by_generators_whose_product_test_fails():
    """(x0*x1) : x0 = (x1), and x1 * x1 is not in (x0*x1): the colon by
    x1 is a part of its own, and the intersection is (x0*x1) again.  In
    (x0*x2, x0^2*x1) : (x0^3, x0) the first part is (x2, x1); x0 * x2 is
    in the ideal but x0 * x1 is not, so x0 is not skipped either."""
    x0, x1, x2 = RING.gens()
    I = Ideal(RING, [x0 * x1])
    assert I.colon(Ideal(RING, [x0, x1])) == I
    I = Ideal(RING, [x0 * x2, x0 ** 2 * x1])
    assert I.colon(Ideal(RING, [x0 ** 3, x0])) == Ideal(RING, [x2, x0 * x1])


def _count_colon_poly(monkeypatch):
    runs = []
    colon_poly = Ideal.colon_poly
    monkeypatch.setattr(Ideal, "colon_poly", lambda self, f: runs.append(f) or colon_poly(self, f))
    return runs


def test_a_gaeta_link_colon_makes_one_colon_poly_run(R5, rng, monkeypatch):
    """A generic 3 x 4 matrix A of linear forms, I its maximal minors and
    c = (a, d) two of them.  Of the four generators of I, a and d lie in c
    and the fourth passes the product test against c : g, g the third, so
    c : I is one annihilator run; it is (a) + I(A_1), A_1 the first two
    columns."""
    A = PolyMatrix(R5, [[R5.random_poly(1, rng) for _ in range(4)] for _ in range(3)])
    I = A.maximal_minors()
    a = A.submatrix(range(3), range(3)).det()
    d = A.submatrix(range(3), [0, 1, 3]).det()
    c = Ideal(R5, [a, d])
    runs = _count_colon_poly(monkeypatch)
    J = c.colon(I)
    assert len(runs) == 1
    assert J == Ideal(R5, [a]) + A.submatrix(range(3), range(2)).maximal_minors()


def test_a_colon_by_an_ideal_inside_makes_no_colon_poly_run(R4, monkeypatch):
    x0, x1, x2, x3 = R4.gens()
    I = Ideal(R4, [x0 * x2 - x1 ** 2, x0 * x3 - x1 * x2, x1 * x3 - x2 ** 2])
    runs = _count_colon_poly(monkeypatch)
    assert I.colon(Ideal(R4, [x0 * x2 - x1 ** 2, x3 * (x1 * x3 - x2 ** 2)])).is_unit
    assert runs == []


@given(small_ideals)
@settings(max_examples=15, deadline=None)
def test_saturate_against_sympy(a):
    """I : m^inf is the intersection of the I : x_i^inf, and each of those
    is (I + (1 - t x_i)) intersected with K[x0, x1, x2]."""
    I, sI = _both(a)
    parts = [_t_free(sI + [1 - T * x], T) for x in X]
    expect = _sympy_intersect(_sympy_intersect(parts[0], parts[1]), parts[2])
    assert _ours(I.saturate()) == _grevlex(expect)


POOL = [RING.var(0), RING.var(1), RING.var(2), RING.var(0) + RING.var(1), RING.var(1) + RING.var(2)]
pool_products = st.lists(st.sampled_from(range(len(POOL))), min_size=1, max_size=3)


def _pool_product(indices):
    return reduce(lambda a, b: a * b, [POOL[i] for i in indices])


@given(
    st.lists(pool_products, min_size=1, max_size=3),
    st.one_of(pool_products, small_forms()),
)
@example([[0, 1]], [0])  # x0 kills x1 mod (x0*x1)
@example([[0, 1]], [2])
@example([[0, 0], [3]], [1])  # f in I: R/(I + f) = R/I
@settings(max_examples=60, deadline=None)
def test_nonzerodivisor_series_matches_the_colon(gens, f):
    """Products of a few linear forms and f a product of some of the same
    forms (often a zero divisor mod I, sometimes in I) or a random form:
    the series test agrees with I : f = I."""
    I = Ideal(RING, [_pool_product(g) for g in gens])
    f = RING.poly(f) if isinstance(f, dict) else _pool_product(f)
    assert I.is_nonzerodivisor(f) == (I.colon_poly(f) == I)


def test_ideals_and_matrices_hold_ring_elements_only():
    """An element of a free module other than the ring is no generator and
    no matrix entry, whatever its rank or twist."""
    R = Ring(3, 32003)
    x0, x1, _ = R.gens()
    F = FreeModule(R, (0, 0))
    with pytest.raises(RingMismatch):
        Ideal(R, [F.inject(x0, 1), F.inject(x1, 0)])
    for bad in (F.inject(x0, 1), FreeModule(R, (1,)).inject(x0, 0), Ring(3, 7).var(0)):
        with pytest.raises(RingMismatch):
            Ideal(R, [bad])
        with pytest.raises(RingMismatch):
            PolyMatrix(R, [[bad]])
    assert Ideal(R, [FreeModule(R, (0,)).rehome(x0)]) == Ideal(R, [x0])
