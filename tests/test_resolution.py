from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from liaisonlab.errors import CohomologyMismatch, NotCM, ResolutionIncomplete, WrongCodim
from liaisonlab.groebner import buchberger, generators_and_leads, syzygies_of
from liaisonlab.hilbert import add_numerators, free_numerator, quotient_numerator
from liaisonlab.ideals import Ideal, PolyMatrix
from liaisonlab import groebner, resolution
from liaisonlab.gorenstein import PointSet
from liaisonlab.resolution import (
    BettiTable,
    PresentedModule,
    canonical_module,
    ci_invariant_hf,
    ci_invariant_numerators,
    classify,
    deficiency_hf,
    deficiency_table,
    dual_kernel,
    dual_kernel_numerator,
    e_type_resolution,
    ext_numerator,
    ideal_module,
    is_acm,
    minimal_free_resolution,
    minimal_generators,
    quotient_module,
    self_duality_check,
    structure_twists,
    submodule_numerator,
    tensor_presentation,
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


DEPTH_RINGS = {n: Ring(n, 32003) for n in (2, 3, 4)}


@st.composite
def proper_ideals(draw):
    """A proper nonzero ideal in 3 or 4 variables: 1-4 monomials of degree
    1-3, or 1-5 random forms of degree 1-2 (Artinian from nvars forms on)."""
    ring = DEPTH_RINGS[draw(st.sampled_from([3, 4]))]
    if draw(st.booleans()):
        monomials = st.integers(1, 3).flatmap(lambda d: st.sampled_from(ring.monomials(d)))
        return Ideal(ring, [ring.poly({e: 1}) for e in draw(st.lists(monomials, min_size=1, max_size=4))])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return Ideal(ring, [ring.random_poly(int(rng.integers(1, 3)), rng) for _ in range(draw(st.integers(1, 5)))])


def _depth_example(kind):
    x, y = DEPTH_RINGS[2].gens()
    x0, x1, x2, x3 = DEPTH_RINGS[4].gens()
    if kind == "embedded-point":  # (x^2, xy) = (x) meet (x, y)^2
        return Ideal(x.ring, [x ** 2, x * y])
    if kind == "double-plane":
        return Ideal(x0.ring, [x0, x1]).power(2)
    return Ideal(x0.ring, [x0 ** 2, x1 ** 2, x2 * x3, x2 ** 3, x3 ** 3])  # Artinian


@given(proper_ideals())
@example(_depth_example("embedded-point"))
@example(_depth_example("double-plane"))
@example(_depth_example("artinian"))
@settings(max_examples=40, deadline=None)
def test_positive_depth_is_saturation(X):
    """X^sat / X is H^0_m(R/X), which vanishes exactly when depth R/X >= 1:
    the depth of the Betti table against the iterated colon by m."""
    assume(not X.is_zero)
    assert (classify(X)["depth"] > 0) == (X.saturate() == X)


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


def test_a_module_gets_the_default_window_of_its_regularity(R4):
    """With no window, the tables of a presented module M run over
    -nvars-2 .. reg M + 3, reg M read off its resolution.  For R/I that is
    the window of I itself, which ends at reg I + 2.  The canonical module
    of the twisted cubic is resolved by R(-1)^2 <- R(-2)^3 <- R(-4), so its
    regularity is 2."""
    x0, x1, x2, x3 = R4.gens()
    sk = Ideal(R4, [x0, x1]).intersect(Ideal(R4, [x2, x3]))
    assert deficiency_hf(quotient_module(sk), 1, None) == deficiency_hf(sk, 1, None)
    assert list(deficiency_hf(sk, 1, None)) == list(range(-6, 5))  # reg sk = 2
    TC = Ideal(R4, [x0 * x2 - x1 ** 2, x0 * x3 - x1 * x2, x1 * x3 - x2 ** 2])
    K = canonical_module(TC)
    assert [K.resolution.twists(k) for k in range(K.resolution.length + 1)] == [(1, 1), (2, 2, 2), (4,)]
    table = deficiency_hf(K, 2, None)
    assert list(table) == list(range(-6, 6))
    assert table == deficiency_hf(K, 2, range(-6, 6))


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


def test_e_type_check_mismatch_is_a_typed_error(R4, monkeypatch):
    """check=True raises CohomologyMismatch, an `errors.py` type, when
    H^i_m(E) and H^{i-c}_m(R/I) disagree: here ext_numerator adds t^k to the
    numerator of Ext^k, and the two sides read Ext^k and Ext^(k+c)."""
    x0, x1, x2, x3 = R4.gens()
    ext = resolution.ext_numerator
    monkeypatch.setattr(resolution, "ext_numerator", lambda M, k: add_numerators(ext(M, k), {k: 1}))
    TC = Ideal(R4, [x0 * x2 - x1 ** 2, x0 * x3 - x1 * x2, x1 * x3 - x2 ** 2])
    with pytest.raises(CohomologyMismatch):
        e_type_resolution(TC, check=True)


def test_a_stage_that_misses_its_kernel_series_is_a_typed_error(R4):
    """A numerator that puts the initial degree of K_1 at 1, where x0, x1
    have no syzygy: the run up to degree 1 leaves their pair of degree 2,
    and the series is missing below it, which no higher bound can mend."""
    x0, x1, _, _ = R4.gens()
    M = PresentedModule(R4.as_module, [x0, x1], numerator={0: 1, 1: -1})
    with pytest.raises(ResolutionIncomplete):
        M.resolution


def test_a_resolution_past_the_syzygy_bound_is_a_typed_error(R4, monkeypatch):
    """A stage that hands back its own generators never reaches a zero
    kernel: after nvars + 2 stages resolve raises ResolutionIncomplete."""
    x0, x1, x2, x3 = R4.gens()
    monkeypatch.setattr(resolution, "_kernel_generators", lambda F, gens, kernel: gens)
    TC = Ideal(R4, [x0 * x2 - x1 ** 2, x0 * x3 - x1 * x2, x1 * x3 - x2 ** 2])
    with pytest.raises(ResolutionIncomplete):
        minimal_free_resolution(TC)


def test_one_resolution_per_ideal(R4, monkeypatch):
    """The quotient module is built once per ideal, so deficiency tables
    and E-type truncations reuse the resolution `classify` made: R/I is
    resolved once, and only E-type's E again."""
    x0, x1, x2, x3 = R4.gens()
    calls = []
    resolve = resolution.resolve

    def spy(*args):
        calls.append(args)
        return resolve(*args)

    monkeypatch.setattr(resolution, "resolve", spy)
    I = Ideal(R4, [x0, x1]).intersect(Ideal(R4, [x2, x3]))
    assert quotient_module(I) is quotient_module(I)
    classify(I)
    assert len(calls) == 1
    assert minimal_free_resolution(I) is quotient_module(I).resolution
    deficiency_table(I, range(-3, 3))
    deficiency_hf(I, 1, range(-3, 3))
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


def _difference(a, b):
    out = {k: a.get(k, 0) - b.get(k, 0) for k in set(a) | set(b)}
    return {k: v for k, v in out.items() if v}


def test_ext_numerator_matches_the_dual_kernel(R4, R5):
    """HS(Ext^i) by rank and nullity, with no kernel computed, equals the
    numerator of the generated kernel ker d_{i+1}^T (`dual_kernel`) less
    that of im d_i^T, for every i from -1 to length + 1: on K (x) I of the
    rational normal quartic, R/I of the quartic, the twisted cubic and a
    non-CM double line in P^3."""
    z = R5.gens()
    quartic = PolyMatrix(R5, [[z[0], z[1], z[2], z[3]], [z[1], z[2], z[3], z[4]]]).maximal_minors()
    x0, x1, x2, x3 = R4.gens()
    cubic = PolyMatrix(R4, [[x0, x1, x2], [x1, x2, x3]]).maximal_minors()
    double_line = Ideal(R4, [x0 ** 2, x0 * x1, x1 ** 2, x0 * x2 ** 2 - x1 * x3 ** 2])
    modules = [
        tensor_presentation(canonical_module(quartic), ideal_module(quartic)),
        quotient_module(quartic),
        quotient_module(cubic),
        quotient_module(double_line),
    ]
    for M in modules:
        res = M.resolution
        for i in range(-1, res.length + 2):
            want = {}
            if 0 <= i <= res.length:
                kernel = submodule_numerator(*dual_kernel(res, i))
                assert dual_kernel_numerator(res, i) == kernel
                want = _difference(kernel, submodule_numerator(*res.dual_columns(i)) if i >= 1 else {})
            assert ext_numerator(M, i) == want


def test_ci_invariant_ci_vanishes(R5, rng):
    f = [R5.random_poly(1, rng), R5.random_poly(1, rng), R5.random_poly(2, rng)]
    I = Ideal(R5, f)
    assert I.codimension() == 3
    # H^1_m(K (x) I) is the only table in P^4; its exact series is zero
    assert ci_invariant_numerators(I) == {1: {}}


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


def test_ci_invariant_licci_by_construction(R5):
    """An ideal CI-linked to a complete intersection (hence licci) has a
    vanishing invariant, in every degree, even though it is not a CI
    itself."""
    from liaisonlab.glicci import is_complete_intersection
    from liaisonlab.liaison import direct_link

    z0, z1, z2, z3, z4 = R5.gens()
    c = Ideal(R5, [z0 * z3, z1 * z4, z2 * (z2 + z3)])
    rec = direct_link(c, Ideal(R5, [z0, z1, z2]))
    J = rec.J
    assert classify(J)["cm"] and J.codimension() == 3
    assert not is_complete_intersection(J)
    assert ci_invariant_numerators(J) == {1: {}}
    # linking once more (back to a complete intersection) stays zero
    gens = list(J.gb)
    c2 = Ideal(R5, [gens[1], gens[2], gens[3]])
    assert c2.codimension() == 3 and classify(c2)["gorenstein"]
    J2 = direct_link(c2, J).J
    assert is_complete_intersection(J2)
    assert ci_invariant_numerators(J2) == {1: {}}


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
        key=lambda g: (g.degree, -g.lt()[0], g.ring.order.key(g.lt()[1])),
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
            (pa, ea, _), (pb, eb, _) = a.lt(), b.lt()
            lcm = np.maximum(ea, eb)
            if pa == pb and a.degree + int((lcm - ea).sum()) <= 3:
                gens.append(
                    a.mono_mul(lcm - ea, ring.field.inv(a.lc()))
                    - b.mono_mul(lcm - eb, ring.field.inv(b.lc()))
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
    order, as graded Nakayama by ranks of graded pieces, whether it stops
    after its last input or runs to the end (`generators_and_leads`); the
    leads of the run to the end give the series that the reduced basis'
    leads give."""
    ring = Ring(3, 32003)
    F = ring.as_module if twists is None else FreeModule(ring, twists)

    @given(generator_lists(F))
    @example(_ring_needs_an_s_pair())
    @example(_twisted_module_needs_an_s_pair())
    @settings(max_examples=80, deadline=None)
    def check(gens):
        kept, leads = generators_and_leads(gens)
        assert minimal_generators(gens) == kept == _dense_minimal_generators(gens)
        reduced = [g.lt()[:2] for g in buchberger(gens)]
        twists = gens[0].module.twists
        assert quotient_numerator(twists, leads, 3) == quotient_numerator(twists, reduced, 3)

    check()


# -- oracle for the Hilbert-driven stages --------------------------------------


@st.composite
def mixed_degree_ideals(draw, ring):
    """(F0, gens): 2-4 ring generators of degree 1-4 with 1-3 terms each,
    F0 the ring as a module.
    Their kernels often need generators above their initial degree, where
    the first degree bound of a stage misses."""
    gens = []
    for _ in range(draw(st.integers(2, 4))):
        monomials = ring.monomials(draw(st.integers(1, 4)))
        support = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=3, unique=True))
        gens.append(ring.poly({e: draw(st.integers(1, ring.p - 1)) for e in support}))
    return ring.as_module, gens


def _unbounded_stages(F0, relations):
    """The oracle: the stage loop with no degree bound and no certificate,
    minimal generators and then every syzygy of them, until none is left."""
    stages = []
    cur = relations
    for _ in range(F0.ring.nvars + 2):
        mins = minimal_generators(cur)
        if not mins:
            return stages
        stages.append((tuple(g.degree for g in mins), mins))
        cur = syzygies_of(mins)
    raise AssertionError("the oracle's resolution did not terminate")


def _artinian_case():
    """(x0^2, x0*x1, x1^4) in two variables: K_1 needs generators in
    degrees 3 and 5, so its first bound, at 3, misses."""
    R = Ring(2, 32003)
    x0, x1 = R.gens()
    return R.as_module, [x0**2, x0 * x1, x1**4]


def _ci_case():
    """A (3, 4) complete intersection: one Koszul syzygy, in degree 7."""
    R = Ring(3, 32003)
    x0, x1, x2 = R.gens()
    return R.as_module, [x0**3 + x1 * x2**2, x1**4 + x2**4]


def _tensor_case():
    """K (x) I of the twisted cubic, a module of rank 6."""
    R = Ring(4, 32003)
    TC = PolyMatrix(R, [[R.var(0), R.var(1), R.var(2)], [R.var(1), R.var(2), R.var(3)]]).maximal_minors()
    T = tensor_presentation(canonical_module(TC), ideal_module(TC))
    return T.F0, T.relations


def test_a_module_without_its_numerator_runs_its_relations_once(monkeypatch):
    """K (x) I of the twisted cubic with no numerator given: one pair loop
    on its relations gives both the minimal relations (the same, in the
    same order, as `minimal_generators`) and the numerator, and the
    resolution is the one made with the numerator given."""
    F0, relations = _tensor_case()
    numerator = quotient_numerator(F0.twists, generators_and_leads(relations)[1], F0.ring.nvars)
    given_res = PresentedModule(F0, relations, numerator).resolution
    M = PresentedModule(F0, relations)
    runs = []
    minimal_run = groebner._minimal_run

    def spy(gens, top):
        if gens is M.relations:
            runs.append(top)
        return minimal_run(gens, top)

    monkeypatch.setattr(groebner, "_minimal_run", spy)
    res = M.resolution
    assert M.numerator == numerator
    assert len(runs) == 1
    assert res.columns(1) == minimal_generators(relations)
    assert [(Fk.twists, cols) for Fk, cols in res.stages] == [(Fk.twists, cols) for Fk, cols in given_res.stages]


def test_hilbert_driven_stages_match_the_unbounded_loop(monkeypatch):
    """Every stage of `resolve` (twists and columns, element for element)
    equals that of the loop with no degree bound, and a bound that misses
    is raised: some stage goes on with its run up to a higher bound."""
    bounds = []  # per bounded syzygy run, the bounds it was run to
    syzygies_of = resolution.syzygies_of

    def spy(gens, source=None, top=None):
        if top is None:
            return syzygies_of(gens, source)
        syzygies, done, more = syzygies_of(gens, source, top)
        tops = [top]
        bounds.append(tops)

        def spied(degree):
            tops.append(degree)
            return more(degree)

        return syzygies, done, spied

    monkeypatch.setattr(resolution, "syzygies_of", spy)

    @given(mixed_degree_ideals(Ring(3, 32003)))
    @settings(max_examples=60, deadline=None)
    @example(_artinian_case())
    @example(_ci_case())
    @example(_tensor_case())
    def check(case):
        F0, relations = case
        res = PresentedModule(F0, relations).resolution
        assert [(Fk.twists, cols) for Fk, cols in res.stages] == _unbounded_stages(F0, relations)

    check()
    # a miss goes on with the same run to a higher bound
    assert any(len(tops) > 1 for tops in bounds)
    assert all(tops == sorted(set(tops)) for tops in bounds)


# -- oracle: coordinate changes keep Betti tables and Hilbert series -----------


def _substitute(f, g):
    """f(g x): each x_i -> sum_j g[i][j] x_j, by ring arithmetic."""
    ring = f.ring
    linear = [sum((x * c for x, c in zip(ring.gens(), row)), ring.zero()) for row in g]
    out = ring.zero()
    for _, e, c in f.terms():
        term = ring.constant(c)
        for form, k in zip(linear, e):
            term = term * form**k
        out = out + term
    return out


@st.composite
def coordinate_changes(draw, n, p=32003):
    """A random g in GL_n(F_p), as a list of rows."""
    g = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n), min_size=n, max_size=n))
    assume(len(independent_rows(g, p)) == n)
    return g


@st.composite
def monomial_ideals_and_point_sets(draw):
    """(I, g): I a monomial ideal of 1-4 generators of degree 1-3, or the
    ideal of 1-4 points (1-3 in P^4), in 3-5 variables, and g in GL_nvars(F_p)."""
    n = draw(st.integers(3, 5))
    ring = Ring(n, 32003)
    if draw(st.booleans()):
        exps = st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(lambda e: 0 < sum(e) <= 3)
        I = Ideal(ring, [ring.monomial(e) for e in draw(st.lists(exps, min_size=1, max_size=4))])
    else:
        point = st.lists(st.integers(0, ring.p - 1), min_size=n, max_size=n).filter(any)
        coords = draw(st.lists(point, min_size=1, max_size=4 if n < 5 else 3))
        assume(all(len(independent_rows(pair, ring.p)) == 2 for pair in combinations(coords, 2)))  # distinct points
        I = PointSet(ring, coords).ideal()
    return I, draw(coordinate_changes(n))


def _invariants(I):
    return BettiTable.of_ideal(I).entries, I.hilbert().numerator


@given(monomial_ideals_and_point_sets())
@settings(max_examples=30, deadline=None)
def test_a_coordinate_change_keeps_the_betti_table_and_the_hilbert_series(case):
    """Betti tables and Hilbert numerators are invariant under GL_n(F_p):
    g.I = (f(g x) : f in I) has those of I."""
    I, g = case
    assert _invariants(Ideal(I.ring, [_substitute(f, g) for f in I.gens])) == _invariants(I)


def test_the_coordinate_points_of_p4_under_a_dense_g():
    """g.I for the ideal I = (x_i x_j, i < j) of the coordinate points of
    P^4 and a fixed dense g has the Betti table 10/20/15/4 of I and its
    series.  Here g.I is given by products of two linear forms and
    resolves at once.  The same ideal from the generators of
    `PointSet.ideal` (of the points g^-1 e_i) is the generic-coordinates
    cliff of ROADMAP item 2: 14-20 s against 0.04 s on a 2-core x86
    machine, too slow for this suite."""
    ring = Ring(5, 32003)
    g = np.random.default_rng(0).integers(1, ring.p, (5, 5)).tolist()
    coordinate = Ideal(ring, [ring.var(i) * ring.var(j) for i in range(5) for j in range(i + 1, 5)])
    moved = Ideal(ring, [_substitute(f, g) for f in coordinate.gens])
    assert moved != coordinate
    assert _invariants(moved) == _invariants(coordinate)
    assert BettiTable.of_ideal(moved).entries == {(0, 2): 10, (1, 3): 20, (2, 4): 15, (3, 5): 4}


# -- oracle: Koszul and Eagon-Northcott tables against `resolve` ---------------
#
# Four variables and t(t + c) <= 6 entries: random matrices in five
# variables reach the generic-coordinates cost cliff of `resolve`.

R4_ORACLE = Ring(4, 32003)


def _resolved_twists(I):
    """The twists of F_1, F_2, ... in `resolve`'s resolution of R/I, sorted."""
    res = minimal_free_resolution(I)
    return [sorted(res.twists(k)) for k in range(1, res.length + 1)]


def _check_parity(I):
    """The theorem's twists, when its codimension test passes, are those of
    `resolve`, stage for stage; `BettiTable.of_ideal` gives `resolve`'s
    table either way.  Returns whether a theorem applied."""
    resolved = _resolved_twists(I)
    twists = structure_twists(I, I.codimension())
    if twists is not None:
        assert [sorted(tw) for tw in twists] == resolved
    assert BettiTable.of_ideal(I).entries == Counter((k, a) for k, tw in enumerate(resolved) for a in tw)
    return twists is not None


@st.composite
def _forms(draw, ring, degree):
    """A form of the given degree with 1-3 terms (a nonzero constant for 0)."""
    support = draw(st.lists(st.sampled_from(ring.monomials(degree)), min_size=1, max_size=3, unique=True))
    return ring.poly({e: draw(st.integers(1, ring.p - 1)) for e in support})


@st.composite
def complete_intersection_candidates(draw, ring=R4_ORACLE):
    """1-4 forms of degree 1-3, most of them a regular sequence."""
    degrees = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    return Ideal(ring, [draw(_forms(ring, d)) for d in degrees])


@st.composite
def matrix_minor_ideals(draw, ring=R4_ORACLE):
    """The maximal minors of a t x (t + c) matrix, t(t + c) <= 6, or of its
    transpose, with row twists u_i in {0, 1} and column twists v_j in
    {2, 3}, or in {1, 2, 3} in a quarter of the draws: entry (i, j) is a
    form of degree v_j - u_i, a constant when that is 0."""
    t, n = draw(st.sampled_from([(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 2), (2, 3), (2, 3), (2, 3)]))
    u = draw(st.lists(st.integers(0, 1), min_size=t, max_size=t))
    v = draw(st.lists(st.integers(draw(st.sampled_from([1, 2, 2, 2])), 3), min_size=n, max_size=n))
    rows = [[draw(_forms(ring, vj - ui)) for vj in v] for ui in u]
    if draw(st.booleans()):
        rows = [list(col) for col in zip(*rows)]
    I = PolyMatrix(ring, rows).maximal_minors()
    assume(not I.is_unit)
    return I


def _oracle_matrix(entries, transpose=False):
    """The maximal minors of the matrix entries(x), x the variables of
    GF(32003)[x0..x3] and an int a constant, or of its transpose."""
    rows = [[R4_ORACLE.constant(f) if isinstance(f, int) else f for f in row] for row in entries(R4_ORACLE.gens())]
    if transpose:
        rows = [list(col) for col in zip(*rows)]
    return PolyMatrix(R4_ORACLE, rows).maximal_minors()


def SCROLL(x):
    return [[x[0], x[1], x[2]], [x[1], x[2], x[3]]]


def MIXED(x):
    """u = (0, 1), v = (2, 2, 3): row degrees (2, 2, 3) and (1, 1, 2)."""
    return [[x[0] ** 2, x[1] ** 2 + x[2] * x[3], x[3] ** 3], [x[1], x[2], x[0] ** 2 + x[3] ** 2]]


@given(complete_intersection_candidates())
@settings(max_examples=40, deadline=None)
@example(Ideal(R4_ORACLE, [R4_ORACLE.var(0) ** 2, R4_ORACLE.var(1) ** 3, R4_ORACLE.var(2) * R4_ORACLE.var(3)]))
def test_koszul_tables_match_the_resolution(I):
    """Forms whose ideal has codimension equal to their number are a regular
    sequence: the Koszul table is `resolve`'s, and other ideals fall back."""
    assert _check_parity(I) == (len(I.gens) == I.codimension())


@given(matrix_minor_ideals())
@settings(max_examples=60, deadline=None)
@example(_oracle_matrix(SCROLL))
@example(_oracle_matrix(SCROLL, transpose=True))
@example(_oracle_matrix(MIXED))
@example(_oracle_matrix(MIXED, transpose=True))
def test_eagon_northcott_tables_match_the_resolution(I):
    """Maximal minors of random matrices with mixed degrees, in both
    orientations: when all C(t + c, t) minors are nonzero, every entry lies
    in the maximal ideal and the codimension is c + 1, the Eagon-Northcott
    table is `resolve`'s; otherwise the table still is."""
    _check_parity(I)


def test_the_theorems_apply_to_the_scroll_and_the_mixed_matrix_both_ways():
    for entries in (SCROLL, MIXED):
        for transpose in (False, True):
            assert _check_parity(_oracle_matrix(entries, transpose))
    assert structure_twists(_oracle_matrix(MIXED), 2) == [[3, 4, 4], [6, 5]]


@pytest.mark.parametrize(
    "case, entries",
    [
        # minors x0^2, x0*x2, -x0*x1 share x0: codimension 1 < c + 1 = 2
        ("codimension below c + 1", lambda x: [[x[0], 0, x[1]], [0, x[0], x[2]]]),
        # the minors generate a complete intersection of two of them
        ("a nonzero constant entry", lambda x: [[1, x[0], x[1]], [x[2], x[3] ** 2, x[2] ** 2]]),
        # 3 of C(4, 1) minors, which generate no complete intersection
        ("an all-zero column", lambda x: [[x[0] ** 2, x[0] * x[1], x[1] ** 2, 0]]),
        ("a repeated generator", lambda x: [[x[0], x[1], x[0]]]),
    ],
)
def test_a_matrix_that_fails_the_test_falls_back_to_the_resolution(case, entries):
    I = _oracle_matrix(entries)
    assert not _check_parity(I)
    if case == "a nonzero constant entry":
        # only the entry degrees catch it: 3 minors, codimension 2
        assert len(I.gens) == 3 and I.codimension() == 2
        assert BettiTable.of_ideal(I).entries == {(0, 2): 2, (1, 4): 1}


def test_a_repeated_generator_is_no_regular_sequence(R4):
    x0, x1 = R4.var(0), R4.var(1)
    I = Ideal(R4, [x0 ** 2, x1, x0 ** 2])
    assert structure_twists(I, I.codimension()) is None
    assert BettiTable.of_ideal(I).entries == {(0, 1): 1, (0, 2): 1, (1, 3): 1}
