import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.polys.orderings import monomial_key

from liaisonlab.errors import (
    DegreeOverflow,
    DivisionByZero,
    PrimeCheckFailed,
    RingMismatch,
    ZeroPolynomial,
)
from liaisonlab.groebner import buchberger
from liaisonlab.ring import LEX, MAX_DEGREE, FreeModule, Order, PrimeField, Ring


def test_field_ops():
    F = PrimeField(7)
    assert F.inv(3) == 5  # 3*5 = 15 = 1 mod 7
    F2 = PrimeField(32003)
    a = 12345
    assert a * F2.inv(a) % 32003 == 1
    one = Ring(1, 2).one()
    assert (one + one).is_zero
    with pytest.raises(DivisionByZero):
        F.inv(0)


def test_leading_terms_orders():
    R = Ring(4, 32003)
    x0, x1, x2, x3 = R.gens()
    f = x0 * x2 - x1 ** 2
    # standard degrevlex: the rightmost-nonzero rule puts x1^2 on top
    # (this is the order with initial ideal (x1^2, x1x2, x2^2) for the
    # twisted cubic); the lex leading term is x0*x2.
    assert f.lt() == (0, (0, 2, 0, 0), 32002)
    Rlex = Ring(4, 32003, order=LEX)
    y = Rlex.gens()
    g = y[0] * y[2] - y[1] ** 2
    assert g.lt() == (0, (1, 0, 1, 0), 1)
    c = R.constant(5)
    assert c.lt() == (0, (0, 0, 0, 0), 5)
    with pytest.raises(ZeroPolynomial):
        R.zero().lt()


def test_poly_mul_identities():
    R = Ring(4, 32003)
    x0, x1, x2, x3 = R.gens()
    assert (x0 + x1) * (x0 - x1) == x0 ** 2 - x1 ** 2
    f = x0 * x3 - x1 * x2
    assert f * R.one() == f
    assert f * x0 == x0 ** 2 * x3 - x0 * x1 * x2
    with pytest.raises(RingMismatch):
        other = Ring(3, 32003)
        f * other.var(0)


def _random_poly(R, rng, deg, homogeneous=True):
    return R.random_poly(deg, rng)


def test_ring_axioms_seeded():
    R = Ring(3, 32003)
    rng = np.random.default_rng(1)
    for _ in range(200):
        f = R.random_poly(int(rng.integers(0, 3)), rng)
        g = R.random_poly(int(rng.integers(0, 3)), rng)
        h = R.random_poly(int(rng.integers(0, 3)), rng)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + g == g + f
        assert f - f == R.zero()


@st.composite
def monomials(draw, nv=4, maxdeg=6):
    return tuple(
        draw(st.integers(min_value=0, max_value=maxdeg)) for _ in range(nv)
    )


def _packed(order, e, pos=0):
    F = FreeModule(Ring(len(e), 32003, order), (0,) * (pos + 1))
    return F.packing.pack(F.rank, pos, e)


@given(monomials(), monomials(), monomials())
@settings(max_examples=300, deadline=None)
def test_order_multiplicative(u, v, w):
    """u < v implies uw < vw for every order we ship: multiplying by w adds
    one shift to both packed ints, which keeps their order."""
    uw, vw = tuple(a + c for a, c in zip(u, w)), tuple(b + c for b, c in zip(v, w))
    for order in (Order("degrevlex"), Order("lex"), Order("block", 2)):
        pu, pv, puw, pvw = (_packed(order, e) for e in (u, v, uw, vw))
        assert puw - pu == pvw - pv
        assert (pu > pv) - (pu < pv) == (puw > pvw) - (puw < pvw)


def _block_key(k):
    """block(k), written out: degrevlex on the first k variables, then
    degrevlex on the rest."""

    def key(e):
        head, tail = e[:k], e[k:]
        return (sum(head), tuple(-x for x in reversed(head)), sum(tail), tuple(-x for x in reversed(tail)))

    return key


@given(st.lists(st.tuples(st.integers(0, 2), monomials(maxdeg=4)), min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_packed_ints_sort_in_the_reference_order(terms):
    """Ascending packed ints are the terms in descending order: sympy's
    grevlex and lex keys and a written-out block(2) key for ring terms,
    and, in a POT module, position first (e_0 > e_1 > ...)."""
    for order, key in (
        (Order("degrevlex"), monomial_key("grevlex")),
        (Order("lex"), monomial_key("lex")),
        (Order("block", 2), _block_key(2)),
    ):
        monos = sorted({e for _, e in terms}, key=key, reverse=True)
        assert sorted(monos, key=lambda e: _packed(order, e)) == monos
        pot = sorted(set(terms), key=lambda t: (-t[0], key(t[1])), reverse=True)
        assert sorted(pot, key=lambda t: _packed(order, t[1], t[0])) == pot


R3 = Ring(3, 32003)
F3 = FreeModule(R3, (0, 1))


@pytest.mark.parametrize(
    "builds, error",
    [
        # one exponent for three variables, or two: none is broadcast or
        # truncated
        ([lambda: R3.var(0).mono_mul([2]), lambda: R3.poly({(1, 0): 1})], ValueError),
        ([lambda: R3.var(0).mono_mul((1, -1, 0)), lambda: R3.poly({(0, -1, 2): 1})], DegreeOverflow),
        # a float exponent or coefficient is rejected, never truncated
        (
            [lambda: R3.poly({(1.5, 0, 0): 1}), lambda: R3.var(0).mono_mul((0.5, 0, 0)),
             lambda: R3.var(0).scale(0.5), lambda: R3.var(0).scale(2.7),
             lambda: R3.var(0).mono_mul((1, 0, 0), 0.5)],
            TypeError,
        ),
        # positions outside [0, rank), in both input forms
        (
            [lambda: F3.element({(-1, (1, 0, 0)): 1}), lambda: F3.element({(2, (1, 0, 0)): 1}),
             lambda: F3.element([((2, 1, 0, 0), 1)])],
            ValueError,
        ),
    ],
    ids=["length", "negative", "non-integer", "position"],
)
def test_terms_are_checked_where_they_are_built(builds, error):
    """The one term builder checks every exponent vector and position, and
    every coefficient must be an integer."""
    for build in builds:
        with pytest.raises(error):
            build()
    assert F3.element({(1, (1, 0, 0)): 1}).degree == 2


def test_homogeneous_products():
    R = Ring(3, 32003)
    rng = np.random.default_rng(5)
    for _ in range(50):
        d1, d2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        f, g = R.random_poly(d1, rng), R.random_poly(d2, rng)
        if f.is_zero or g.is_zero:
            continue
        h = f * g
        assert h.is_homogeneous
        assert h.degree == d1 + d2


def test_module_elements():
    R = Ring(3, 32003)
    from liaisonlab.ring import FreeModule

    F = FreeModule(R, (1, 2))
    v = F.element({(0, (1, 0, 0)): 1, (1, (0, 0, 0)): 3})
    assert v.is_homogeneous and v.degree == 2
    w = F.gen(0)
    assert (v - v).is_zero
    assert (v * R.var(1)).degree == 3
    # POT: position 0 dominates
    assert v.lt()[0] == 0


def test_one_packing_per_ring():
    """Modules of every rank and twist over a ring share the ring's one
    packing, and the ring is the rank-1 module at twist 0: a polynomial
    moved there is the same element."""
    for order in (Order("degrevlex"), Order("lex"), Order("block", 1)):
        R = Ring(3, 32003, order)
        assert R.as_module.packing is R.packing
        for twists in ((), (0,), (3,), (0, 0), (1, -2, 5)):
            assert FreeModule(R, twists).packing is R.packing
        assert FreeModule(R, (0,)) == R.as_module
        assert FreeModule(R, (1,)) != R.as_module
        assert FreeModule(R, (0, 0)) != R.as_module
        f = R.poly({(2, 0, 1): 3, (0, 1, 2): 5, (1, 1, 1): 7})
        assert FreeModule(R, (0,)).rehome(f) == f
        assert FreeModule(R, (0,)).element({(0, e): c for _, e, c in f.terms()}) == f
        F = FreeModule(R, (1, 0, 2))
        assert F.component(F.inject(f, 2), 2) == f


def test_prime_bound_at_the_int64_edge():
    """Coefficient products are int64: p must stay below 2^31."""
    R = Ring(2, 2**31 - 1)
    x0, x1 = R.gens()
    assert (-(x0 + x1)) ** 2 == x0 ** 2 + 2 * x0 * x1 + x1 ** 2
    with pytest.raises(PrimeCheckFailed):
        Ring(2, 4294967311)


def test_degree_bound_at_the_int64_edge():
    """Exponents and degrees are int64: every term has degree at most
    MAX_DEGREE = 2^62 - 1, so the sum of two degrees cannot wrap."""
    R = Ring(2, 32003)
    assert R.poly({(MAX_DEGREE, 0): 1}).degree == MAX_DEGREE
    assert (R.poly({(2**61 - 1, 0): 1}) ** 2).degree == 2**62 - 2
    for build in (
        lambda: R.poly({(2**62, 0): 1}) ** 2,
        lambda: R.poly({(2**61, 0): 1}) ** 2,
        lambda: R.poly({(2**63 - 1, 0): 1}),
        lambda: R.poly({(-1, 2): 1}),
        lambda: FreeModule(R, (0, 1)).element({(1, (2**62, 0)): 1}),
    ):
        with pytest.raises(DegreeOverflow):
            build()
    # a coefficient beyond int64 is reduced mod p before it is stored
    assert R.constant(10**30) == R.constant(10**30 % 32003)


@given(
    st.integers(0, MAX_DEGREE),
    st.integers(-3, 3),
    st.integers(0, MAX_DEGREE),
    st.integers(0, MAX_DEGREE),
)
@settings(max_examples=200, deadline=None)
def test_products_near_the_degree_bound(d, excess, s, t):
    """A binomial of degree d times a monomial of degree near
    MAX_DEGREE - d: past the bound the product raises, within it the
    exponents are the exact sums."""
    R = Ring(2, 32003)
    d2 = min(max(MAX_DEGREE - d + excess, 0), MAX_DEGREE)
    e = (s % (d + 1), d - s % (d + 1))
    e2 = (t % (d2 + 1), d2 - t % (d2 + 1))
    f, g = R.poly({e: 1, (0, d): 1}), R.monomial(e2)
    if d + d2 <= MAX_DEGREE:
        expect = R.poly({(e[0] + e2[0], e[1] + e2[1]): 1, (e2[0], d + e2[1]): 1})
        assert f * g == expect and f.mono_mul(e2) == expect
        assert (f * g).degree == d + d2
    else:
        for product in (lambda: f * g, lambda: f.mono_mul(e2)):
            with pytest.raises(DegreeOverflow):
                product()


def _random_element(F, rng):
    v = F.zero()
    for pos, a in enumerate(F.twists):
        v = v + F.inject(F.ring.random_poly(3 - a, rng), pos)
    return v


def test_rehome_matches_the_term_rebuild():
    R = Ring(4, 32003)
    rng = np.random.default_rng(3)
    src = FreeModule(R, (1, 0, 2))
    for target, positions in (
        (FreeModule(R, (1, 0, 2)), None),
        (FreeModule(R, (4, 3, 5)), None),
        (FreeModule(R, (0, 1, 9, 0, 0, 2, 7)), (1, 4, 6)),
    ):
        for _ in range(5):
            v = _random_element(src, rng)
            move = positions or range(src.rank)
            rebuilt = target.element({(move[pos], e): c for pos, e, c in v.terms()})
            moved = target.rehome(v, positions)
            assert moved.module is target
            assert moved == rebuilt
    with pytest.raises(ValueError):
        FreeModule(R, (0,) * 4).rehome(_random_element(src, rng), (2, 1, 3))


@given(
    st.integers(min_value=1, max_value=32002),
    st.sampled_from([7, 101, 32003]),
)
@settings(max_examples=200, deadline=None)
def test_field_inverse_property(a, p):
    F = PrimeField(p)
    a %= p
    if a == 0:
        a = 1
    assert a * F.inv(a) % p == 1


@st.composite
def small_polys(draw, R):
    terms = draw(st.lists(
        st.tuples(monomials(nv=3, maxdeg=3), st.integers(1, 32002)),
        min_size=0, max_size=5,
    ))
    return R.poly({m: c for m, c in terms})


def test_add_mul_properties_hypothesis():
    R = Ring(3, 32003)

    @given(small_polys(R), small_polys(R), small_polys(R))
    @settings(max_examples=120, deadline=None)
    def inner(f, g, h):
        assert f * (g + h) == f * g + f * h
        assert (f + g) - g == f
        assert (f * g) * h == f * (g * h)

    inner()


def test_powers_take_a_non_negative_integer():
    R = Ring(3, 32003)
    x0 = R.var(0)
    assert x0 ** 0 == R.one() and x0 ** 3 == x0 * x0 * x0
    assert x0 ** np.int64(2) == x0 * x0
    with pytest.raises(ValueError):
        x0 ** -1
    for k in (2.7, 2.0):
        with pytest.raises(TypeError):
            x0 ** k
    # only ring elements have powers
    with pytest.raises(TypeError):
        FreeModule(R, (1,)).gen(0) ** 2


@st.composite
def forms(draw, R, maxdeg=3):
    """A nonzero homogeneous form of R of degree at most maxdeg."""
    mons = R.monomials(draw(st.integers(0, maxdeg)))
    coeffs = draw(st.lists(st.integers(0, R.p - 1), min_size=len(mons), max_size=len(mons)))
    f = R.poly(dict(zip(mons, coeffs)))
    assume(not f.is_zero)
    return f


def test_one_element_class_for_the_ring():
    """An element of R.as_module is the same ring element however it was
    built: it compares, prints, multiplies and raises to powers alike, and
    multiplies a module element from either side."""
    R = Ring(3, 32003)
    x0 = R.var(0)
    F = FreeModule(R, (1, 0, 2))

    @given(forms(R), st.integers(0, 2), forms(R, maxdeg=1))
    @settings(max_examples=60, deadline=None)
    def check(f, k, h):
        g = f.monic()
        built = [
            R.poly({e: c for _, e, c in g.terms()}),
            R.as_module.rehome(g),
            FreeModule(R, (0,)).rehome(g),
            F.component(F.inject(g, k), k),
            buchberger([f])[0],
        ]
        for b in built:
            assert b == g
            assert repr(b) == repr(g) and "*e" not in repr(b)
            assert b * x0 == g * x0 == x0 * b
            assert b ** 2 == g * g
        v = F.inject(g, k) + F.gen((k + 1) % 3)
        assert v * h == h * v == F.inject(g * h, k) + F.inject(h, (k + 1) % 3)
        assert 3 * v == v * 3 == v.scale(3)
        assert f"*e{k}" in repr(v)

    check()
    v = F.gen(0)
    with pytest.raises(TypeError):
        v * v
    with pytest.raises(TypeError):
        v * 1.5
    with pytest.raises(RingMismatch):
        v * Ring(3, 7).var(0)
