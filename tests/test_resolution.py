import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liaisonlab.errors import NotCM, WrongCodim
from liaisonlab.hilbert import free_numerator
from liaisonlab.ideals import Ideal, PolyMatrix
from liaisonlab import resolution
from liaisonlab.resolution import (
    canonical_module,
    ci_invariant_hf,
    classify,
    deficiency_hf,
    deficiency_table,
    e_type_resolution,
    ext_module,
    ext_numerator,
    is_acm,
    minimal_free_resolution,
    minimal_generators,
    quotient_module,
    self_duality_check,
)
from liaisonlab.ring import FreeModule, Ring

from conftest import independent_rows


def test_line_resolution(R4):
    x0, x1, x2, x3 = R4.gens()
    res = minimal_free_resolution(Ideal(R4, [x0, x1]))
    assert res.length == 2
    assert sorted(res.twists(1)) == [1, 1]
    assert sorted(res.twists(2)) == [2]


def test_twisted_cubic_resolution(R4):
    x0, x1, x2, x3 = R4.gens()
    TC = Ideal(R4, [x0 * x2 - x1 ** 2, x0 * x3 - x1 * x2, x1 * x3 - x2 ** 2])
    res = minimal_free_resolution(TC)
    assert sorted(res.twists(1)) == [2, 2, 2]
    assert sorted(res.twists(2)) == [3, 3]
    cls = classify(TC)
    assert cls["cm"] and cls["cm_type"] == 2 and not cls["gorenstein"]


def test_koszul_tail_twist(R4, rng):
    x0, x1, x2, x3 = R4.gens()
    ci = Ideal(R4, [x0 ** 2 - x1 * x2, x1 ** 3 + x3 ** 3])
    res = minimal_free_resolution(ci)
    assert sorted(res.twists(2)) == [5]  # sum of the degrees
    cls = classify(ci)
    assert cls["gorenstein"] and cls["socle_check"]


def test_alternating_sum_is_numerator(R4, rng):
    """Euler characteristic of every resolution reproduces the numerator."""
    x0, x1, x2, x3 = R4.gens()
    ideals = [
        Ideal(R4, [x0, x1]),
        Ideal(R4, [x0, x1]).intersect(Ideal(R4, [x2, x3])),
        Ideal(R4, [x0 * x2 - x1 ** 2, x0 * x3 - x1 * x2, x1 * x3 - x2 ** 2]),
        Ideal(R4, [R4.random_poly(2, rng), R4.random_poly(2, rng)]),
    ]
    for I in ideals:
        res = minimal_free_resolution(I)
        total = {0: 1}
        sign = -1
        for k in range(1, res.length + 1):
            for a, m in free_numerator(res.twists(k)).items():
                total[a] = total.get(a, 0) + sign * m
            sign = -sign
        total = {k: v for k, v in total.items() if v}
        assert total == I.hilbert().numerator


def test_auslander_buchsbaum(R4, rng):
    for _ in range(5):
        I = Ideal(R4, [R4.random_poly(1, rng), R4.random_poly(2, rng)])
        if I.is_unit or I.is_zero:
            continue
        cls = classify(I)
        assert cls["pd"] + cls["depth"] == R4.nvars


def test_classify_cases(R4):
    x0, x1, x2, x3 = R4.gens()
    M2 = Ideal(R4, [x0, x1]).power(2)
    cls = classify(M2)
    assert cls["cm"] and cls["cm_type"] == 2 and not cls["gorenstein"]
    quart = Ideal(
        R4,
        [x1 * x2 - x0 * x3, x1 ** 3 - x0 ** 2 * x2, x0 * x2 ** 2 - x1 ** 2 * x3, x2 ** 3 - x1 * x3 ** 2],
    )
    cq = classify(quart)
    assert not cq["cm"] and cq["pd"] == 3 and cq["codim"] == 2


def test_self_duality(R4):
    x0, x1, x2, x3 = R4.gens()
    ci = Ideal(R4, [x0 ** 2 - x1 * x2, x1 ** 3 + x2 ** 3 + x3 ** 3])
    assert self_duality_check(ci)
    TC = Ideal(R4, [x0 * x2 - x1 ** 2, x0 * x3 - x1 * x2, x1 * x3 - x2 ** 2])
    assert not self_duality_check(TC)
    sk = Ideal(R4, [x0, x1]).intersect(Ideal(R4, [x2, x3]))
    with pytest.raises(NotCM):
        self_duality_check(sk)


def test_gorenstein_symmetric_h(R4, rng):
    for degs in ((1, 2), (2, 2), (2, 3)):
        gens = [R4.random_poly(d, rng) for d in degs]
        I = Ideal(R4, gens)
        if I.is_unit or I.codimension() != len(degs):
            continue
        cls = classify(I)
        if cls["gorenstein"]:
            hv = I.hilbert().h_vector
            assert tuple(hv) == tuple(reversed(hv))


def test_deficiency_skew_lines(R4):
    x0, x1, x2, x3 = R4.gens()
    sk = Ideal(R4, [x0, x1]).intersect(Ideal(R4, [x2, x3]))
    tab = deficiency_table(sk, range(-4, 7))
    assert set(tab) == {1}  # curves have a single deficiency module
    assert {j: v for j, v in tab[1].items() if v} == {0: 1}
    assert not is_acm(sk)


def test_deficiency_line_conic(R4):
    x0, x1, x2, x3 = R4.gens()
    lc = Ideal(R4, [x2, x3]).intersect(Ideal(R4, [x0, x1 ** 2 - x2 * x3]))
    tab = deficiency_table(lc, range(-4, 7))
    assert {j: v for j, v in tab[1].items() if v} == {0: 1, 1: 1}


def test_acm_iff_zero_deficiency(R4):
    x0, x1, x2, x3 = R4.gens()
    TC = Ideal(R4, [x0 * x2 - x1 ** 2, x0 * x3 - x1 * x2, x1 * x3 - x2 ** 2])
    assert is_acm(TC)


def test_negative_degree_growth_bound(R4):
    """h^1(I_C(j-1)) <= max(0, h^1(I_C(j)) - 1) for j <= 0, for curves."""
    x0, x1, x2, x3 = R4.gens()
    curves = [
        Ideal(R4, [x0, x1]).intersect(Ideal(R4, [x2, x3])),
        Ideal(R4, [x2, x3]).intersect(Ideal(R4, [x0, x1 ** 2 - x2 * x3])),
    ]
    for C in curves:
        tab = deficiency_table(C, range(-6, 3))[1]
        for j in range(-5, 1):
            assert tab[j - 1] <= max(0, tab[j] - 1)


def test_riemann_roch_alternating_sum(R4, rng):
    """h(j) - p(j) = sum_i (-1)^i dim H^i_m(R/I)_j including i = 0 and top."""
    x0, x1, x2, x3 = R4.gens()
    ideals = [
        Ideal(R4, [x0, x1]).intersect(Ideal(R4, [x2, x3])),
        Ideal(R4, [x0 * x2 - x1 ** 2, x0 * x3 - x1 * x2, x1 * x3 - x2 ** 2]),
        Ideal(R4, [x0 ** 2, x0 * x1]),
    ]
    n1 = R4.nvars
    for I in ideals:
        M = quotient_module(I)
        data = I.hilbert()
        window = range(-3, data.reg_index + 4)
        tables = {i: deficiency_hf(M, i, window) for i in range(0, n1 + 1)}
        for j in window:
            alt = sum((-1) ** i * tables[i][j] for i in range(0, n1 + 1))
            assert data.hf(j) - data.hp(j) == alt


def test_e_type(R4):
    x0, x1, x2, x3 = R4.gens()
    TC = Ideal(R4, [x0 * x2 - x1 ** 2, x0 * x3 - x1 * x2, x1 * x3 - x2 ** 2])
    shape, E = e_type_resolution(TC)
    assert shape == [(2, 2, 2)]
    assert sorted(E.F0.twists) == [3, 3] and not E.relations
    sk = Ideal(R4, [x0, x1]).intersect(Ideal(R4, [x2, x3]))
    shape_sk, E_sk = e_type_resolution(sk)
    assert E_sk.relations  # not free: the curve is not ACM
    # H^i_m(E) = H^{i-c}_m(R/I) on the Hilbert level
    window = list(range(-4, 5))
    c = sk.codimension()
    for i in range(c, R4.nvars):
        lhs = deficiency_hf(E_sk, i, window)
        rhs = deficiency_hf(sk, i - c, window)
        assert lhs == rhs


def test_e_type_check_on_curves(R4):
    """The cohomology interchange H^i_m(E) = H^{i-c}_m(R/I), which
    check=True verifies on the default window (raising on a mismatch),
    holds on three curves: the ACM twisted cubic has a free E, the skew
    lines and the rational quartic do not."""
    x0, x1, x2, x3 = R4.gens()
    TC = Ideal(R4, [x0 * x2 - x1 ** 2, x0 * x3 - x1 * x2, x1 * x3 - x2 ** 2])
    sk = Ideal(R4, [x0, x1]).intersect(Ideal(R4, [x2, x3]))
    quartic = Ideal(
        R4, [x1 * x2 - x0 * x3, x1 ** 3 - x0 ** 2 * x2, x0 * x2 ** 2 - x1 ** 2 * x3, x2 ** 3 - x1 * x3 ** 2]
    )
    for I, free in ((TC, True), (sk, False), (quartic, False)):
        _, E = e_type_resolution(I, check=True)
        assert (not E.relations) == free


def test_one_resolution_per_ideal(R4, monkeypatch):
    """The quotient module is built once per ideal, so deficiency tables,
    Ext modules and E-type truncations reuse the resolution `classify`
    made: R/I is resolved once, and only E-type's E again."""
    x0, x1, x2, x3 = R4.gens()
    calls = []
    resolve = resolution.resolve

    def spy(F0, relations):
        calls.append(F0.twists)
        return resolve(F0, relations)

    monkeypatch.setattr(resolution, "resolve", spy)
    I = Ideal(R4, [x0, x1]).intersect(Ideal(R4, [x2, x3]))
    assert quotient_module(I) is quotient_module(I)
    classify(I)
    assert len(calls) == 1
    assert minimal_free_resolution(I) is quotient_module(I).resolution
    deficiency_table(I, range(-3, 3))
    deficiency_hf(I, 1, range(-3, 3))
    ext_module(I, 2)
    e_type_resolution(I)
    assert len(calls) == 1
    # a fresh ideal with the same basis is resolved afresh
    classify(Ideal(R4, list(I.gens)))
    assert len(calls) == 2


def test_canonical_module(R4):
    x0, x1, x2, x3 = R4.gens()
    TC = Ideal(R4, [x0 * x2 - x1 ** 2, x0 * x3 - x1 * x2, x1 * x3 - x2 ** 2])
    K = canonical_module(TC)
    assert K.F0.rank == 2  # CM type 2 forces two generators
    ci = Ideal(R4, [x0 ** 2 - x1 * x2, x1 ** 3 + x2 ** 3 + x3 ** 3])
    Kci = canonical_module(ci)
    assert Kci.F0.rank == 1  # Gorenstein: cyclic canonical module


def test_ext_vanishing_above_pd(R4):
    x0, x1, x2, x3 = R4.gens()
    I = Ideal(R4, [x0, x1])
    M = quotient_module(I)
    assert ext_numerator(M, R4.nvars) == {}  # Ext^{n+1} = 0 for dim > 0


def test_ci_invariant_ci_vanishes(R5, rng):
    f = [R5.random_poly(1, rng), R5.random_poly(1, rng), R5.random_poly(2, rng)]
    I = Ideal(R5, f)
    assert I.codimension() == 3
    tab = ci_invariant_hf(I)
    assert all(v == 0 for row in tab.values() for v in row.values())


@pytest.mark.slow
def test_ci_invariant_rnc_nonzero(R5):
    z = R5.gens()
    B = PolyMatrix(R5, [[z[0], z[1], z[2], z[3]], [z[1], z[2], z[3], z[4]]])
    rnc = B.maximal_minors()
    tab = ci_invariant_hf(rnc, window=range(-1, 5))
    assert any(v != 0 for row in tab.values() for v in row.values())
    # golden value from the first verified run, cross-checked by the
    # Riemann-Roch alternating sum in test below
    assert {j: v for j, v in tab[1].items() if v} == {2: 3}


def test_wrongcodim_guards(R4):
    x0, x1, x2, x3 = R4.gens()
    with pytest.raises(WrongCodim):
        ci_invariant_hf(Ideal(R4, [x0, x1, x2]))  # n = 3 < 4


def test_transpose_is_an_involution(R4, R5):
    """On every differential of the twisted cubic and rational quartic
    resolutions: d^T has entry (r, c) = d(c, r), and (d^T)^T = d."""
    x0, x1, x2, x3 = R4.gens()
    z = R5.gens()
    cases = [
        Ideal(R4, [x0 * x2 - x1 ** 2, x0 * x3 - x1 * x2, x1 * x3 - x2 ** 2]),
        PolyMatrix(R5, [[z[0], z[1], z[2], z[3]], [z[1], z[2], z[3], z[4]]]).maximal_minors(),
    ]
    for I in cases:
        res = minimal_free_resolution(I)
        for k in range(1, res.length + 1):
            cols = list(res.columns(k))
            G = cols[0].module
            dual, tcols = res.dual_columns(k)
            for r, t in enumerate(tcols):
                for c, v in enumerate(cols):
                    assert dual.component(t, c) == G.component(v, r)
            _, back = G.dual().transpose(tcols)
            assert back == cols
            assert all(np.array_equal(a.keys, b.keys) for a, b in zip(back, cols))


def test_ext_module_presentation(R4):
    """ext_module's presented subquotient matches ext_numerator degreewise,
    and detects cyclicity of canonical modules."""
    from liaisonlab.resolution import ext_hf, ext_module
    from liaisonlab.hilbert import series_hf

    x0, x1, x2, x3 = R4.gens()
    cases = [
        Ideal(R4, [x0 ** 2 - x1 * x2, x1 ** 3 + x2 ** 3 + x3 ** 3]),  # CI
        Ideal(R4, [x0 * x2 - x1 ** 2, x0 * x3 - x1 * x2, x1 * x3 - x2 ** 2]),
        Ideal(R4, [x0, x1]).intersect(Ideal(R4, [x2, x3])),
    ]
    for I in cases:
        M = quotient_module(I)
        for i in range(0, R4.nvars + 1):
            numer = ext_numerator(M, i)
            E = ext_module(M, i)
            for j in range(-8, 9):
                assert E.hf(j) == series_hf(numer, R4.nvars, j)
            assert ext_hf(M, i, range(-8, 9)) == [E.hf(j) for j in range(-8, 9)]
    # Ext^c(R/CI, R) is cyclic; for the twisted cubic it needs 2 generators
    ci = cases[0]
    Eci = ext_module(quotient_module(ci), 2)
    assert len(minimal_generators([Eci.F0.gen(i) for i in range(Eci.F0.rank)])) >= 1
    K = canonical_module(ci)
    assert K.F0.rank == 1
    Etc = canonical_module(cases[1])
    assert Etc.F0.rank == 2
    # vanishing above the projective dimension
    assert ext_module(quotient_module(cases[2]), R4.nvars + 1).F0.rank == 0


def test_ci_invariant_licci_by_construction(R5):
    """An ideal CI-linked to a complete intersection (hence licci) has
    vanishing invariant tables, even though it is not a CI itself."""
    from liaisonlab.glicci import is_complete_intersection
    from liaisonlab.liaison import direct_link

    z0, z1, z2, z3, z4 = R5.gens()
    c = Ideal(R5, [z0 * z3, z1 * z4, z2 * (z2 + z3)])
    rec = direct_link(c, Ideal(R5, [z0, z1, z2]))
    J = rec.J
    assert classify(J)["cm"] and J.codimension() == 3
    assert not is_complete_intersection(J)
    tab = ci_invariant_hf(J)
    assert all(v == 0 for row in tab.values() for v in row.values())
    # linking once more (back to a complete intersection) stays zero
    gens = list(J.gb)
    c2 = Ideal(R5, [gens[1], gens[2], gens[3]])
    assert c2.codimension() == 3 and classify(c2)["gorenstein"]
    J2 = direct_link(c2, J).J
    assert is_complete_intersection(J2)
    tab2 = ci_invariant_hf(J2)
    assert all(v == 0 for row in tab2.values() for v in row.values())


# -- oracle for minimal_generators ---------------------------------------------


def _degree_basis(F, d):
    """The (pos, exps) monomial basis of the degree-d piece of F."""
    return [(pos, e) for pos, a in enumerate(F.twists) for e in F.ring.monomials(d - a)]


def _dense_minimal_generators(gens):
    """Reference: graded Nakayama by ranks of graded pieces.  In degree d,
    `independent_rows` reads the monomial multiples of the lower-degree
    generators first and then the degree-d generators, in (degree, leading
    key) order; a generator is kept when its row is a pivot."""
    elems = sorted(
        (g for g in gens if not g.is_zero),
        key=lambda g: (g.degree, tuple(int(x) for x in g.keys[0])),
    )
    kept = []
    for d in sorted({g.degree for g in elems}):
        ring = elems[0].ring
        index = {m: i for i, m in enumerate(_degree_basis(elems[0].module, d))}
        rows = [g.mono_mul(u) for g in elems if g.degree < d for u in ring.monomials(d - g.degree)]
        cands = [g for g in elems if g.degree == d]
        pivots = independent_rows([h.coordinates(index) for h in rows + cands], ring.p)
        kept += [cands[i - len(rows)] for i in pivots if i >= len(rows)]
    return kept


@st.composite
def generator_lists(draw, F):
    """1-5 homogeneous generators in F of degree 1-3: random forms, zero
    ones, scaled duplicates, combinations of monomial multiples of earlier
    generators, and S-polynomials of two earlier generators.  The last two
    lie in the span of the earlier ones, and an S-polynomial often reduces
    to zero only with the help of their S-pair."""
    ring = F.ring
    coeff = st.integers(1, ring.p - 1)
    gens = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(
            ["form", "form", "zero", "duplicate", "combination", "s-poly", "s-poly"]
        ))
        earlier = [g for g in gens if not g.is_zero]
        if kind == "duplicate" and gens:
            gens.append(draw(st.sampled_from(gens)).scale(draw(coeff)))
        elif kind == "combination" and earlier:
            d = draw(st.integers(min(g.degree for g in earlier), 3))
            g = F.zero()
            for h in earlier:
                if h.degree <= d:
                    u = draw(st.sampled_from(ring.monomials(d - h.degree)))
                    g = g + h.mono_mul(u, draw(st.integers(0, ring.p - 1)))
            gens.append(g)
        elif kind == "s-poly" and len(earlier) > 1:
            a, b = draw(st.permutations(earlier))[:2]
            lcm = np.maximum(a.exps[0, 1:], b.exps[0, 1:])
            if a.exps[0, 0] == b.exps[0, 0] and a.degree + int((lcm - a.exps[0, 1:]).sum()) <= 3:
                gens.append(
                    a.mono_mul(lcm - a.exps[0, 1:], ring.field.inv(a.lc()))
                    - b.mono_mul(lcm - b.exps[0, 1:], ring.field.inv(b.lc()))
                )
        elif kind == "zero":
            gens.append(F.zero())
        else:
            basis = _degree_basis(F, draw(st.integers(1, 2)))
            terms = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=3))
            gens.append(F.element({t: draw(coeff) for t in terms}))
    return gens


def _ring_needs_an_s_pair():
    """y^3 = y*(x^2) - (x - y)*(xy + y^2) lies in the span of the quadrics,
    but only their degree-3 S-pair remainder shows it."""
    R = Ring(3, 32003)
    return [R.poly({(2, 0, 0): 1}), R.poly({(1, 1, 0): 1, (0, 2, 0): 1}), R.poly({(0, 3, 0): 1})]


def _twisted_module_needs_an_s_pair():
    """The same at position 1 of R + R(1), twists (0, -1): the S-pair has
    degree 2 and its lcm degree 3, so ordering pairs without the twist
    admits y^3 e_1 before the pair is done."""
    F = FreeModule(Ring(3, 32003), (0, -1))
    return [
        F.element({(1, (2, 0, 0)): 1}),
        F.element({(1, (1, 1, 0)): 1, (1, (0, 2, 0)): 1}),
        F.element({(1, (0, 3, 0)): 1}),
    ]


@pytest.mark.parametrize("twists", [None, (0, 1), (0, -1)], ids=["ring", "pot-0-1", "pot-0-neg1"])
def test_minimal_generators_match_the_dense_reference(twists):
    """The degree-ordered pair loop keeps the same generators, in the same
    order, as graded Nakayama by ranks of graded pieces."""
    ring = Ring(3, 32003)
    F = ring.as_module if twists is None else FreeModule(ring, twists)

    @given(generator_lists(F))
    @example(_ring_needs_an_s_pair())
    @example(_twisted_module_needs_an_s_pair())
    @settings(max_examples=80, deadline=None)
    def check(gens):
        assert minimal_generators(gens) == _dense_minimal_generators(gens)

    check()
