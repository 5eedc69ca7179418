import math

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import groebner as sympy_groebner
from sympy import symbols

from liaisonlab.errors import DegreeOverflow
from liaisonlab.groebner import (
    annihilator,
    buchberger,
    lift_coordinates,
    normal_form,
    syzygies_of,
)
from liaisonlab.hilbert import free_numerator, series_hf
from liaisonlab.resolution import minimal_generators, submodule_numerator
from liaisonlab.ring import LEX, FreeModule, Ring


def test_ci_groebner_basis(R4):
    x0, x1, x2, x3 = R4.gens()
    G = buchberger([x0 * x3 - x1 * x2, x0 * x2 - x1 ** 2])
    # under standard degrevlex the reduced basis has three elements;
    # verified independently against sympy below and frozen here
    assert len(G) == 3
    strs = {str(g) for g in G}
    assert "x1*x2+32002*x0*x3" in strs
    assert "x1^2+32002*x0*x2" in strs
    assert "x0*x2^2+32002*x0*x1*x3" in strs
    # every S-polynomial reduces to zero (Groebner property, exhaustively)
    for i, gi in enumerate(G):
        for gj in G.elements[i + 1 :]:
            (_, ei, _), (_, ej, _) = gi.lt(), gj.lt()
            lcm = np.maximum(ei, ej)
            s = gi.mono_mul(lcm - ei) - gj.mono_mul(lcm - ej)
            assert normal_form(s, G).is_zero


def test_basic_cases(R4):
    x0, x1, x2, x3 = R4.gens()
    G = buchberger([x0, x1])
    assert [str(g) for g in G] == ["x0", "x1"]
    f = x0 * x2 - x1 ** 2
    G2 = buchberger([f, f])
    assert len(G2) == 1 and G2[0] == f.monic()


def test_normal_form(R4):
    x0, x1, x2, x3 = R4.gens()
    conic = x0 * x2 - x1 ** 2
    G = buchberger([conic])
    # degrevlex leading term is x1^2, so x0^2*x2 is irreducible
    assert normal_form(x0 ** 2 * x2, G) == x0 ** 2 * x2
    nf = normal_form(x0 * x1 ** 2, G)
    assert nf == x0 ** 2 * x2
    # under lex the conic's lead is x0*x2 and one division step fires
    Rlex = Ring(4, 32003, order=LEX)
    y = Rlex.gens()
    Gl = buchberger([y[0] * y[2] - y[1] ** 2])
    assert normal_form(y[0] ** 2 * y[2], Gl) == y[0] * y[1] ** 2
    # member reduces to zero; units don't
    assert normal_form(conic * (x0 + x3), G).is_zero
    G01 = buchberger([x0, x1])
    assert normal_form(R4.one(), G01) == R4.one()


def test_normal_form_past_the_degree_bound_raises():
    """Under lex a reduction step can raise the degree: x0 -> x1^N with
    N = 2^61 takes x0^k to x1^(kN), past MAX_DEGREE = 2^62 - 1 from k = 2
    on.  It raises instead of wrapping the int64 exponents (x0^4 used to
    come back as 1, and x0^3 as x1^(3N))."""
    R = Ring(2, 32003, order=LEX)
    x0, x1 = R.gens()
    for N, k in ((2**61, 4), (2**61, 3), (2**61, 2)):
        with pytest.raises(DegreeOverflow):
            normal_form(x0 ** k, [x0 - R.monomial((0, N))])
    # at and below the bound the exponents are exact
    assert normal_form(x0, [x0 - R.monomial((0, 2**61))]) == R.monomial((0, 2**61))
    assert normal_form(x0 ** 3, [x0 - R.monomial((0, 2**60))]) == R.monomial((0, 3 * 2**60))
    assert normal_form(x0 ** 3 + x0, [x0 - x1]) == x1 ** 3 + x1


def test_buchberger_past_the_degree_bound_at_an_s_pair_raises():
    """Under lex, x0*x1 - x2^N with N = 2^61 reduces the input x0*x1^N to
    x1^(N-1)*x2^N, of degree exactly MAX_DEGREE.  The S-pair of the two
    has the term x1^(N-2)*x2^(2N), past the bound: it raises instead of
    forming that term."""
    R = Ring(3, 32003, order=LEX)
    x0, x1, _ = R.gens()
    N = 2**61
    with pytest.raises(DegreeOverflow):
        buchberger([x0 * x1 - R.monomial((0, 0, N)), x0 * R.monomial((0, N, 0))])


def test_nf_is_linear(R4, rng):
    x0, x1, x2, x3 = R4.gens()
    G = buchberger([x0 * x2 - x1 ** 2, x0 * x3 - x1 * x2])
    for _ in range(20):
        f = R4.random_poly(3, rng)
        g = R4.random_poly(3, rng)
        lhs = normal_form(f + g, G)
        rhs = normal_form(f, G) + normal_form(g, G)
        assert lhs == rhs
        # f - NF(f) is in the ideal
        assert normal_form(f - normal_form(f, G), G).is_zero


def test_membership_random_combinations(R4, rng):
    x0, x1, x2, x3 = R4.gens()
    gens = [x0 * x2 - x1 ** 2, x0 * x3 - x1 * x2, x1 * x3 - x2 ** 2]
    G = buchberger(gens)
    for _ in range(25):
        f = R4.zero()
        for g in gens:
            f = f + g * R4.random_poly(int(rng.integers(0, 3)), rng)
        assert normal_form(f, G).is_zero


def test_canonical_under_permutation(R4, rng):
    for _ in range(5):
        gens = [R4.random_poly(2, rng) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero]
        perm = list(gens)[::-1]
        assert buchberger(gens) == buchberger(perm)


def test_against_sympy(R4, rng):
    sx = symbols("x0 x1 x2 x3")
    p = R4.p

    def to_sympy(f):
        e = 0
        for _, ex, c in f.terms():
            t = sympy.Integer(c)
            for i, a in enumerate(ex):
                t *= sx[i] ** a
            e += t
        return e

    for _ in range(6):
        gens = [R4.random_poly(int(rng.integers(1, 3)), rng) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero]
        G = buchberger(gens)
        sg = sympy_groebner(
            [to_sympy(g) for g in gens], *sx, order="grevlex", modulus=p, symmetric=False
        )
        mine = {
            frozenset({tuple(e): c for _, e, c in g.terms()}.items()) for g in G
        }
        theirs = {
            frozenset(
                {
                    tuple(m): int(c) % p
                    for m, c in q.as_poly(*sx, modulus=p, symmetric=False).terms()
                }.items()
            )
            for q in sg.exprs
        }
        assert mine == theirs


def test_koszul_syzygy(R4):
    x0, x1, x2, x3 = R4.gens()
    G = buchberger([x0, x1])
    syz = syzygies_of(list(G))
    assert len(syz) == 1
    # x1*e0 - x0*e1 (up to sign/scale): apply the presentation map -> 0
    applied = _apply(syz[0], list(G))
    assert applied.is_zero


def test_principal_ideal_torsion_free(R4):
    x0, x1, x2, x3 = R4.gens()
    G = buchberger([x0 * x2 - x1 ** 2])
    assert syzygies_of(list(G)) == []


def test_twisted_cubic_syzygies(R4):
    x0, x1, x2, x3 = R4.gens()
    gens = [x0 * x2 - x1 ** 2, x0 * x3 - x1 * x2, x1 * x3 - x2 ** 2]
    G = buchberger(gens)
    syz = syzygies_of(list(G))
    for s in syz:
        assert _apply(s, list(G)).is_zero
    # Hilbert-Burch: the syzygy module of the 3 quadrics needs 2 generators
    mins = minimal_generators(syz)
    assert len(mins) == 2
    assert all(m.degree == 3 for m in mins)


def _apply(syz, basis):
    ring = basis[0].ring
    acc = ring.zero()
    mod = basis[0].module
    for pos, e, c in syz.terms():
        term = basis[pos].mono_mul(e, c)
        acc = acc + term
    return acc


def test_lift_coordinates_identity(R4, rng):
    """Random members f of <gens> (not a Groebner basis) lift to
    coordinates c with sum c_i g_i = f; a non-member raises."""
    x0, x1, x2, x3 = R4.gens()
    gens = [x0 * x3 - x1 * x2, x0 * x2 - x1 ** 2]
    members = []
    for _ in range(10):
        f = R4.zero()
        for g in gens:
            f = f + g * R4.random_poly(2, rng)
        members.append(f)
    coords = lift_coordinates(gens, members)
    assert all(_apply(c, gens) == f for c, f in zip(coords, members))
    with pytest.raises(ValueError):
        lift_coordinates(gens, [x0 ** 4])


def test_module_buchberger_and_syzygies(R4):
    x0, x1, x2, x3 = R4.gens()
    F = FreeModule(R4, (0, 0))
    v1 = F.inject(x0, 0) + F.inject(x1, 1)
    v2 = F.inject(x1, 0) + F.inject(x2, 1)
    v3 = F.inject(x0 * x2 - x1 ** 2, 0)
    G = buchberger([v1, v2, v3])
    for s in syzygies_of([v1, v2, v3]):
        acc = F.zero()
        for pos, e, c in s.terms():
            acc = acc + [v1, v2, v3][pos].mono_mul(e, c)
        assert acc.is_zero


def test_nf_independent_of_basis_order(R4, rng):
    """The normal form against a reduced basis does not depend on how the
    basis elements are listed."""
    x0, x1, x2, x3 = R4.gens()
    G = list(buchberger([x0 * x2 - x1 ** 2, x0 * x3 - x1 * x2, x1 * x3 - x2 ** 2]))
    for _ in range(10):
        f = R4.random_poly(4, rng)
        perm = list(G)
        rng.shuffle(perm)
        assert normal_form(f, G) == normal_form(f, perm)


def test_gb_invariant_under_unit_scaling(R4, rng):
    gens = [R4.random_poly(2, rng) for _ in range(3)]
    gens = [g for g in gens if not g.is_zero]
    scaled = [g.scale(int(rng.integers(1, R4.p))) for g in gens]
    assert buchberger(gens) == buchberger(scaled)


def test_syzygies_of_zero_entries_are_unit_vectors(R4):
    x0, x1, x2, x3 = R4.gens()
    F = FreeModule(R4, (0,))
    src = FreeModule(R4, (1, 4, 1))
    gens = [F.inject(x0, 0), F.zero(), F.inject(x1, 0)]
    syz = syzygies_of(gens, src)
    assert syz[0] == src.gen(1)
    assert len(syz) == 2 and all(s.module is src for s in syz)
    applied = F.zero()
    for pos, e, c in syz[1].terms():
        applied = applied + gens[pos].mono_mul(e, c)
    assert applied.is_zero
    # the zero map: every basis vector is a syzygy
    two = FreeModule(R4, (2, 3))
    assert syzygies_of([F.zero(), F.zero()], two) == [two.gen(0), two.gen(1)]


# x1 and x0^2 + x1*x2 at position 0: in degrevlex and in lex, no lead of a
# basis holding x1 divides x0^2, so the pair loop admits x0^2 + x1*x2 as it
# stands, with a tail that x1 would reduce
_X1 = {(0, (0, 1, 0)): 1}
_UNREDUCED = {(0, (2, 0, 0)): 3, (0, (0, 1, 1)): 7}


def test_lift_coordinates_through_an_unreduced_input():
    """Coordinates through a generator admitted unreduced round-trip."""
    for order in (None, LEX):
        ring = Ring(3, 32003, order=order)
        x0, x1, x2 = ring.gens()
        gens = [ring.poly({e: c for (_, e), c in terms.items()}) for terms in (_X1, _UNREDUCED)]
        targets = [gens[1], x0 * gens[1] + x2**2 * gens[0], x1 * gens[1] - x0**2 * gens[0]]
        coords = lift_coordinates(gens, targets)
        assert all(_apply(c, gens) == f for c, f in zip(coords, targets))


# -- the ring up to a twist ---------------------------------------------------


@st.composite
def forms(draw, ring):
    """A nonzero form of degree 1-3 with 1-4 terms."""
    monomials = ring.monomials(draw(st.integers(1, 3)))
    support = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=4, unique=True))
    return ring.poly({e: draw(st.integers(1, ring.p - 1)) for e in support})


@pytest.mark.parametrize("order", ["degrevlex", "lex"])
def test_twisted_rank_one_module_matches_the_ring(order):
    """Ring generators moved into R(-a), a != 0: the pair loop takes the
    product criterion there as in the ring, and the reduced basis and the
    minimal generators are the ring's, moved the same way."""
    ring = Ring(3, 32003, order=LEX if order == "lex" else None)
    x0, x1, x2 = ring.gens()

    @given(st.sampled_from([-2, -1, 1, 3]), st.lists(forms(ring), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    # coprime leads, whose S-pair the product criterion drops
    @example(2, [x0**2 + x1 * x2, x1**2 + x0 * x2, x2**3])
    def check(a, gens):
        F = FreeModule(ring, (a,))
        moved = [F.rehome(g) for g in gens]
        basis = buchberger(moved)
        assert basis.module == F
        assert list(basis) == [F.rehome(g) for g in buchberger(gens)]
        assert minimal_generators(moved) == [F.rehome(g) for g in minimal_generators(gens)]

    check()


# -- exactness oracle for syzygies_of ----------------------------------------


@st.composite
def small_maps(draw, ring):
    """(F, source, gens): up to 4 generators of degree 1 or 2 in a free
    module F of rank 1-2 with twists 0 or 1, so every entry has degree
    <= 2; zero generators and scaled duplicates included."""
    F = FreeModule(ring, draw(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=2)))
    degrees, gens = [], []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["form", "form", "zero", "duplicate"]))
        if kind == "duplicate" and gens:
            i = draw(st.integers(0, len(gens) - 1))
            degrees.append(degrees[i])
            gens.append(gens[i].scale(draw(st.integers(1, ring.p - 1))))
            continue
        d = draw(st.sampled_from([1, 2]))
        terms = {}
        if kind != "zero":
            basis = [(pos, e) for pos, a in enumerate(F.twists) for e in ring.monomials(d - a)]
            for pos, e in draw(st.lists(st.sampled_from(basis), max_size=4)):
                terms[pos, e] = draw(st.integers(1, ring.p - 1))
        degrees.append(d)
        gens.append(F.element(terms))
    return F, FreeModule(ring, degrees), gens


@pytest.mark.parametrize("order", ["degrevlex", "lex"])
def test_syzygies_of_is_exact(order):
    """0 -> <syz> -> source -> F is exact at source: every syzygy maps to 0,
    and HS(<syz>) + HS(<gens>) = HS(source), so no syzygy is missing."""
    ring = Ring(3, 32003, order=LEX if order == "lex" else None)
    F1, F2 = FreeModule(ring, (0,)), FreeModule(ring, (0, 1))

    @given(small_maps(ring))
    @settings(max_examples=60, deadline=None)
    # x0^2 + x1*x2 comes in after x1: no basis lead divides its lead, so it
    # is admitted unreduced, with a tail x1 reduces
    @example((F1, FreeModule(ring, (1, 2)), [F1.element(_X1), F1.element(_UNREDUCED)]))
    @example((F2, FreeModule(ring, (1, 2)), [F2.element(_X1), F2.element({**_UNREDUCED, (1, (1, 0, 0)): 5})]))
    def check(case):
        F, source, gens = case
        syz = syzygies_of(gens, source)
        for s in syz:
            assert s.module is source
            image = F.zero()
            for pos, e, c in s.terms():
                image = image + gens[pos].mono_mul(e, c)
            assert image.is_zero
        total = submodule_numerator(source, syz)
        for k, v in submodule_numerator(F, gens).items():
            total[k] = total.get(k, 0) + v
        assert {k: v for k, v in total.items() if v} == free_numerator(source.twists)

    check()


@st.composite
def mixed_degree_maps(draw, ring):
    """(F, source, gens): 2-4 generators of degree 1-3 with 1-3 terms each
    in a free module F of rank 1-2 with twists 0 or 1, so that a low degree
    bound leaves pairs undone."""
    F = FreeModule(ring, draw(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=2)))
    gens = []
    for _ in range(draw(st.integers(2, 4))):
        d = draw(st.integers(1, 3))
        basis = [(pos, e) for pos, a in enumerate(F.twists) for e in ring.monomials(d - a)]
        terms = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=3))
        gens.append(F.element({t: draw(st.integers(1, ring.p - 1)) for t in terms}))
    return F, FreeModule(ring, tuple(g.degree for g in gens)), gens


def _artinian_gens(ring):
    """x0^2, x0*x1, x1^4: the kernel of their map needs generators in
    degrees 3 and 5, and the pair loop has pairs of degree 5 and 6."""
    x0, x1 = ring.var(0), ring.var(1)
    return [x0**2, x0 * x1, x1**4]


@pytest.mark.parametrize("order", ["degrevlex", "lex"])
def test_a_degree_bound_keeps_the_syzygies_below_it(order):
    """syzygies_of(gens, top=d) returns (syzygies, done, more) with done >
    d: the unbounded call's first syzygies, element for element, all of
    degree below done, and its others have degree >= done.  In every
    degree <= d they span the kernel: the Hilbert functions of the two
    spans agree there.  more(inf) goes on with the same run to the
    unbounded call's syzygies."""
    ring = Ring(4, 32003, order=LEX if order == "lex" else None)
    artinian = _artinian_gens(ring)

    @given(mixed_degree_maps(ring), st.integers(1, 5))
    @settings(max_examples=80, deadline=None)
    @example((ring.as_module, FreeModule(ring, (2, 2, 4)), artinian), 3)
    @example((ring.as_module, FreeModule(ring, (2, 2, 4)), artinian), 5)
    def check(case, top):
        _, source, gens = case
        full = syzygies_of(gens, source)
        bounded, done, more = syzygies_of(gens, source, top=top)
        assert done > top
        assert bounded == full[: len(bounded)]
        assert all(s.degree < done for s in bounded)
        assert all(s.degree >= done for s in full[len(bounded):])
        spans = [submodule_numerator(source, syz) for syz in (bounded, full)]
        for d in range(top + 1):
            assert series_hf(spans[0], ring.nvars, d) == series_hf(spans[1], ring.nvars, d)
        assert more(math.inf) == (full, math.inf)

    check()


# -- exactness oracle for annihilator -----------------------------------------


@st.composite
def small_annihilator_cases(draw, ring, twists):
    """(F, v, relations): a nonzero homogeneous v in F, whose component at
    position k has degree d - twists[k], and 1-4 relations of degree 1-2
    in F, now and then a zero one."""
    F = FreeModule(ring, twists)

    def element(degree):
        basis = [(pos, e) for pos, a in enumerate(F.twists) for e in ring.monomials(degree - a)]
        terms = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=4))
        return F.element({t: draw(st.integers(1, ring.p - 1)) for t in terms})

    relations = [
        element(draw(st.sampled_from([1, 2]))) if draw(st.integers(0, 5)) else F.zero()
        for _ in range(draw(st.integers(1, 4)))
    ]
    return F, element(draw(st.sampled_from([2, 3]))), relations


def _numerator_sum(*parts):
    """Sum of c * t^shift * numerator over the (c, shift, numerator) parts."""
    total = {}
    for c, shift, numerator in parts:
        for k, n in numerator.items():
            total[k + shift] = total.get(k + shift, 0) + c * n
    return {k: n for k, n in total.items() if n}


@pytest.mark.parametrize("twists", [(0,), (0, 1)])
def test_annihilator_is_exact(twists):
    """ann(v) = {a : a*v in <relations>}: every returned a has a*v in the
    span, and 0 -> R/ann(-deg v) -> F/<rel> -> F/<rel, v> -> 0 is exact, so
    HS(<rel, v>) - HS(<rel>) = HS(R/ann) shifted by deg v."""
    ring = Ring(3, 32003)
    F = FreeModule(ring, twists)
    v = {**_UNREDUCED, (1, (1, 0, 0)): 5} if len(twists) > 1 else _UNREDUCED

    @given(small_annihilator_cases(ring, twists))
    @settings(max_examples=60, deadline=None)
    # the tracked v comes in after the relation x1, unreduced
    @example((F, F.element(v), [F.element(_X1)]))
    def check(case):
        F, v, relations = case
        ann = annihilator(v, relations)
        live = [g for g in relations if not g.is_zero]
        gb = buchberger(live) if live else []
        for a in ann:
            assert a.module == ring.as_module and a.is_homogeneous
            assert normal_form(v * a, gb).is_zero
        image = _numerator_sum(
            (1, 0, submodule_numerator(F, relations + [v])),
            (-1, 0, submodule_numerator(F, relations)),
        )
        assert image == _numerator_sum(
            (1, v.degree, {0: 1}),
            (-1, v.degree, submodule_numerator(ring.as_module, ann)),
        )

    check()


def test_annihilator_of_zero_raises(R4):
    with pytest.raises(ValueError):
        annihilator(R4.zero(), [R4.var(0)])
