import math
from functools import reduce
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liaisonlab import _kernels as K
from liaisonlab.errors import (
    CharacteristicTooSmall,
    DuplicatePoint,
    NotACI,
    NotArtinian,
    NotGeometricallyLinked,
    NotRegularSequence,
    PreconditionFailed,
)
from liaisonlab.gorenstein import (
    PointSet,
    aci_gorenstein,
    cayley_bacharach_check,
    complete_intersection,
    dgo_verify,
    sum_of_linked,
    wlp_check,
)
from liaisonlab.ideals import Ideal
from liaisonlab.resolution import classify, self_duality_check
from liaisonlab.ring import MAX_PRIME, Ring

from conftest import independent_rows


def test_complete_intersection(R4):
    x0, x1, x2, x3 = R4.gens()
    ci = complete_intersection([x0 ** 2, x1 ** 3])
    assert ci.codimension() == 2 and ci.hilbert().degree == 6
    cls = classify(ci)
    assert cls["gorenstein"]
    assert self_duality_check(ci)
    with pytest.raises(NotRegularSequence):
        complete_intersection([x0, x0 * x1])
    c2 = complete_intersection([x0 * x3 - x1 * x2, x0 * x2 - x1 ** 2])
    assert c2.codimension() == 2
    # tagged complete intersections classify without a resolution
    assert c2.ci_degrees == (2, 2)


def test_sum_of_linked(R4):
    x0, x1, x2, x3 = R4.gens()
    X = Ideal(R4, [x0 * x1, x2])
    S = sum_of_linked(Ideal(R4, [x0, x2]), Ideal(R4, [x1, x2]), X)
    assert S == Ideal(R4, [x0, x1, x2])
    assert classify(S)["gorenstein"] and classify(S)["codim"] == 3
    with pytest.raises(NotGeometricallyLinked):
        sum_of_linked(Ideal(R4, [x0, x2]), Ideal(R4, [x1, x2]), Ideal(R4, [x0 * x1, x2 ** 2]))


def test_sum_of_linked_line_pairs(R4):
    """Two ACM pairs of incident lines geometrically linked by a CI(2,2).

    (Pairs of *skew* lines are not ACM, so they do not satisfy the
    sum-of-linked-ideals theorem: their sum is the four coordinate points
    with h-vector (1,3), CM type 3 - asserted below as the guard.)
    """
    x0, x1, x2, x3 = R4.gens()
    V1 = Ideal(R4, [x0, x1 * x3])  # lines {x0=x1=0} and {x0=x3=0}
    V2 = Ideal(R4, [x2, x1 * x3])  # lines {x2=x3=0} and {x1=x2=0}
    X = V1.intersect(V2)
    assert X == Ideal(R4, [x0 * x2, x1 * x3])
    S = sum_of_linked(V1, V2, X)
    cls = classify(S)
    assert cls["gorenstein"] and cls["codim"] == 3
    hv = S.hilbert().h_vector
    assert tuple(hv) == tuple(reversed(hv))
    # the skew-pair configuration fails the ACM hypothesis and the sum is
    # genuinely not Gorenstein
    W1 = Ideal(R4, [x0, x1]).intersect(Ideal(R4, [x2, x3]))
    W2 = Ideal(R4, [x0, x3]).intersect(Ideal(R4, [x1, x2]))
    with pytest.raises(NotGeometricallyLinked):
        sum_of_linked(W1, W2, W1.intersect(W2))
    assert not classify(W1 + W2)["gorenstein"]
    assert (W1 + W2).hilbert().h_vector == (1, 3)


def test_aci_gorenstein(R3, R4):
    y0, y1, y2 = R3.gens()
    J = aci_gorenstein(
        complete_intersection([y0 ** 2, y1 ** 2]), Ideal(R3, [y0, y1]).power(2)
    )
    assert J == Ideal(R3, [y0, y1])
    x0, x1, x2, x3 = R4.gens()
    TC = Ideal(R4, [x0 * x2 - x1 ** 2, x0 * x3 - x1 * x2, x1 * x3 - x2 ** 2])
    J2 = aci_gorenstein(
        complete_intersection([x0 * x3 - x1 * x2, x0 * x2 - x1 ** 2]), TC
    )
    assert J2 == Ideal(R4, [x0, x1])
    with pytest.raises(NotACI):
        sk = Ideal(R4, [x0, x1]).intersect(Ideal(R4, [x2, x3]))  # 4 gens, codim 2
        aci_gorenstein(complete_intersection([x0 * x2, x1 * x3]), sk)


def test_points_basic(R3):
    two = PointSet(R3, [(1, 0, 0), (0, 1, 0)])
    assert two.h_vector() == (1, 1)
    with pytest.raises(DuplicatePoint):
        PointSet(R3, [(1, 0, 0), (2, 0, 0)])
    I = two.ideal()
    assert I.codimension() == 2 and I.is_saturated
    with pytest.raises(PreconditionFailed):
        PointSet(R3, [])


def _value(f, pt):
    p = f.ring.p
    return sum(c * math.prod(pow(a, e, p) for a, e in zip(pt, exps)) for _, exps, c in f.terms()) % p


def _iterated_point_ideal(Z):
    """Reference: the point ideals, each from its 2 x 2 minors x_i a_k -
    x_k a_i by polynomial arithmetic, intersected two at a time."""
    R = Z.ring
    parts = []
    for pt in Z.coords:
        k = next(i for i, a in enumerate(pt) if a)
        parts.append(Ideal(R, [R.var(i) * pt[k] - R.var(k) * pt[i] for i in range(R.nvars) if i != k]))
    return reduce(lambda a, b: a.intersect(b), parts)


def test_points_ideal_matches_the_iterated_intersection(R3, R4):
    """P^2 and P^3: general points, points on x_n = 0 (where the last
    variable is a zero divisor) and collinear points."""
    rng = np.random.default_rng(4)
    cases = [
        PointSet.general(R3, 7, rng),
        PointSet(R3, [(1, a, 0) for a in range(3)] + [(0, 1, 0), (1, 2, 5), (3, 1, 1)]),
        PointSet(R3, [(1, a, 2 * a + 1) for a in range(5)]),
        PointSet.general(R4, 6, rng),
        PointSet(R4, [(1, a, a * a, 0) for a in range(4)] + [(0, 0, 1, 0), (2, 1, 7, 3)]),
        PointSet(R4, [(1, a, 0, 0) for a in range(5)] + [(0, 0, 0, 1)]),
    ]
    for Z in cases:
        I = Z.ideal()
        assert I == _iterated_point_ideal(Z)
        assert all(_value(g, pt) == 0 for g in I.gens for pt in Z.coords)
        assert [Z.hf(t) for t in range(5)] == [I.hilbert().hf(t) for t in range(5)]


def test_cb_upp_of_collinear_points_ranks_only_pivot_columns(monkeypatch):
    """14 points on a line of P^3: h_Z(t) = t + 1 of the C(t + 3, 3)
    monomial columns are pivots, and every stack of r-row subsets that
    reaches `ranks` has at most C(14, r) r r entries."""
    R = Ring(4, 32003)
    Z = PointSet(R, [(1, a, 0, 0) for a in range(14)])
    shapes = []
    ranks = K.ranks

    def spy(stack, p):
        shapes.append(np.shape(stack))
        return ranks(stack, p)

    monkeypatch.setattr(K, "ranks", spy)
    rep = cayley_bacharach_check(Z)
    assert rep == {"cb": True, "upp": True, "upp_exhaustive": True, "socle_degree": 13}
    assert Z.h_vector() == (1,) * 14
    assert len(shapes) == 14  # CB, then UPP in t = 0..12
    for S, r, c in shapes:
        assert c <= r and S * r * c <= math.comb(14, r) * r * r


def test_general_points_past_the_points_of_the_plane():
    """P^2 over GF(2) has 7 points: 7 general ones are all of them, and an
    8th cannot be drawn."""
    plane = Ring(3, 2)
    P = PointSet.general(plane, 7, np.random.default_rng(0))
    assert sorted(P.coords) == sorted(pt for pt in product((0, 1), repeat=3) if any(pt))
    with pytest.raises(CharacteristicTooSmall):
        PointSet.general(plane, 8, np.random.default_rng(0))


def test_grid_points(R3):
    grid = PointSet(R3, [(1, a, b) for a in (0, 1) for b in (0, 1, 2)])
    assert grid.h_vector() == (1, 2, 2, 1)
    rep = cayley_bacharach_check(grid)
    assert rep["cb"] and not rep["upp"] and rep["upp_exhaustive"]
    assert dgo_verify(grid, rep)
    assert classify(grid.ideal())["gorenstein"]


def test_conic_points(R3):
    conic6 = PointSet(R3, [(1, t, (t * t) % R3.p) for t in range(6)])
    rep = cayley_bacharach_check(conic6)
    assert rep["cb"] and rep["upp"]
    assert dgo_verify(conic6, rep) == classify(conic6.ideal())["gorenstein"]


def test_collinear_points(R3):
    bad = PointSet(
        R3, [(1, 0, 0), (1, 1, 0), (1, 2, 0), (1, 3, 0), (1, 0, 1), (1, 1, 2)]
    )
    rep = cayley_bacharach_check(bad)
    assert not rep["cb"] and not rep["upp"]
    assert not dgo_verify(bad, rep)
    assert not classify(bad.ideal())["gorenstein"]


def _cb_upp_by_full_enumeration(Z):
    """Reference: CB from every |Z| - 1 subset in degree s - 1, and UPP as
    h_Y(t) = min(|Y|, h_Z(t)) for every proper subset Y and every t <= s + 1."""
    N, s = len(Z), Z.socle_degree()
    cb = all(Z.hf(s - 1, Y) == Z.hf(s - 1) for Y in combinations(range(N), N - 1))
    upp = all(
        Z.hf(t, Y) == min(m, Z.hf(t))
        for m in range(1, N)
        for Y in combinations(range(N), m)
        for t in range(s + 2)
    )
    return cb, upp


CURVES = {"line": lambda a: (1, a, 0), "conic": lambda a: (1, a, a * a)}


@given(
    st.sampled_from([(3, 7), (3, 32003), (4, 7), (4, 32003)]),
    st.sampled_from(sorted(CURVES)),
    st.lists(st.integers(0, 6), unique=True, max_size=6),
    st.lists(st.tuples(*[st.integers(0, 32002)] * 4), min_size=1, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_cb_upp_match_full_subset_enumeration(shape, curve, params, free):
    """Points on a line or a conic, plus a few more: the size-h_Z(t) subsets
    decide UPP as the enumeration of every subset at every degree does."""
    nvars, p = shape
    coords = {}
    for pt in [CURVES[curve](a) + (0,) * (nvars - 3) for a in params] + list(free):
        pt = [a % p for a in pt[:nvars]]
        lead = next((a for a in pt if a), None)
        if lead is not None:
            inv = pow(lead, p - 2, p)
            coords.setdefault(tuple(a * inv % p for a in pt), None)
    assume(coords)
    Z = PointSet(Ring(nvars, p), list(coords))
    rep = cayley_bacharach_check(Z)
    assert (rep["cb"], rep["upp"]) == _cb_upp_by_full_enumeration(Z)
    assert rep["upp_exhaustive"] and rep["socle_degree"] == Z.socle_degree()


def test_upp_sampled_past_5000_subsets(R3):
    """16 points: 8008 subsets of size 6 and of size 10, so those degrees
    are sampled, with the same verdict for the same seed."""
    general = PointSet.general(R3, 16, np.random.default_rng(5))
    assert general.h_vector() == (1, 2, 3, 4, 5, 1)
    rep = cayley_bacharach_check(general, rng=np.random.default_rng(1))
    assert rep["upp"] and not rep["upp_exhaustive"]
    assert rep == cayley_bacharach_check(general, rng=np.random.default_rng(1))
    # 12 of 16 points on a conic: a sampled 6-subset on the conic has rank 5
    conic = [(1, t, t * t % R3.p) for t in range(12)]
    mixed = PointSet(R3, conic + PointSet.general(R3, 4, np.random.default_rng(6)).coords)
    rep = cayley_bacharach_check(mixed, rng=np.random.default_rng(1))
    assert not rep["upp"] and not rep["upp_exhaustive"]


def _upp_by_subset_loop(Z, rng):
    """Reference: UPP by one `hf` per subset of size h_Z(t), for t below the
    socle degree, over the same subsets as `cayley_bacharach_check`: all of
    them, or 200 drawn from rng where there are more than 5000."""
    N = len(Z)
    for t in range(Z.socle_degree()):
        h = Z.hf(t)
        if math.comb(N, h) <= 5000:
            pool = list(combinations(range(N), h))
        else:
            pool = [sorted(rng.choice(N, size=h, replace=False)) for _ in range(200)]
        if not all(Z.hf(t, sub) == h for sub in pool):
            return False
    return True


def test_upp_sampled_matches_a_loop_over_the_same_draws(R3):
    """The two 16-point sets above: one stack of subsets per degree gives
    the verdict of one rank per subset over the same 200 seeded draws,
    and leaves the generator where the loop leaves it."""
    general = PointSet.general(R3, 16, np.random.default_rng(5))
    conic = [(1, t, t * t % R3.p) for t in range(12)]
    mixed = PointSet(R3, conic + PointSet.general(R3, 4, np.random.default_rng(6)).coords)
    for Z, upp in [(general, True), (mixed, False)]:
        loop_rng, stack_rng = np.random.default_rng(1), np.random.default_rng(1)
        assert _upp_by_subset_loop(Z, loop_rng) is upp
        assert cayley_bacharach_check(Z, rng=stack_rng)["upp"] is upp
        assert loop_rng.bit_generator.state == stack_rng.bit_generator.state


def test_cb_upp_of_one_and_two_points(R3):
    """Socle degree 0 and 1: a single point has CB and UPP with nothing to
    rank; two points are independent in degree 0 and each alone keeps
    h(0) = 1."""
    for coords, s in [([(1, 2, 3)], 0), ([(1, 2, 3), (0, 1, 5)], 1)]:
        Z = PointSet(R3, coords)
        rep = cayley_bacharach_check(Z)
        assert rep == {"cb": True, "upp": True, "upp_exhaustive": True, "socle_degree": s}
        assert (rep["cb"], rep["upp"]) == _cb_upp_by_full_enumeration(Z)


def test_five_general_points(R4, rng):
    P = PointSet.general(R4, 5, rng)
    assert dgo_verify(P)
    assert classify(P.ideal())["gorenstein"]
    assert P.h_vector() == (1, 3, 1)


def test_dgo_equals_classify_everywhere(R3, R4, rng):
    cases = [
        PointSet(R3, [(1, a, b) for a in (0, 1) for b in (0, 1, 2)]),
        PointSet(R3, [(1, t, (t * t) % R3.p) for t in range(6)]),
        PointSet(R3, [(1, 0, 0), (1, 1, 0), (1, 2, 0), (1, 3, 0), (1, 0, 1), (1, 1, 2)]),
        PointSet.general(R4, 5, rng),
        PointSet.general(R3, 4, rng),
    ]
    for P in cases:
        assert dgo_verify(P) == classify(P.ideal())["gorenstein"]


def test_points_hf_matches_ideal_hf(R3, rng):
    P = PointSet.general(R3, 7, rng)
    I = P.ideal()
    d = I.hilbert()
    for t in range(0, 6):
        assert P.hf(t) == d.hf(t)


BIG = Ring(4, MAX_PRIME - 1)
SMALL = st.integers(0, 2)
LARGE = st.integers(0, BIG.p - 1)


@given(
    st.lists(st.tuples(SMALL, SMALL, SMALL), min_size=1, max_size=8, unique=True),
    st.tuples(*[LARGE] * 6),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_points_hf_of_subsets_matches_ideal_hf(grid, shear, data):
    """hf by evaluation rank, on a subset of the points, equals the Hilbert
    function of the subset's ideal.  Points of the 3x3x3 grid are often
    collinear or coplanar; a unipotent change of coordinates keeps that and
    makes the coordinates large, so products come near p^2."""
    l10, l20, l21, l30, l31, l32 = shear
    P = PointSet(BIG, [
        (1, a + l10, b + l20 + l21 * a, c + l30 + l31 * a + l32 * b) for a, b, c in grid
    ])
    subset = data.draw(st.lists(st.sampled_from(range(len(P))), min_size=1, unique=True))
    d = PointSet(BIG, [P.coords[i] for i in subset]).ideal().hilbert()
    for t in range(5):
        assert P.hf(t, subset) == d.hf(t)


def test_points_hf_with_large_coordinates():
    """Six collinear points and two more, with coordinates near p = 2^31 - 1
    in every variable, so that each entry of the evaluation matrix at
    t >= 3 is a product of three residues reduced mod p."""
    big = [BIG.p - 1 - k for k in range(6)]
    line = [(1, a + big[0], big[1] + big[2] * a, big[3] + big[4] * a) for a in range(6)]
    P = PointSet(BIG, line + [(1, big[5], big[0], 7), (1, 3, big[1], big[2])])
    d = P.ideal().hilbert()
    p = BIG.p
    for t in range(7):
        # reference: evaluate every monomial with Python integers
        rows = [
            [math.prod(pow(a, e, p) for a, e in zip(pt, m)) % p for m in BIG.monomials(t)]
            for pt in P.coords
        ]
        assert P.hf(t) == len(independent_rows(rows, p)) == d.hf(t)
    assert [P.hf(t, range(6)) for t in range(7)] == [1, 2, 3, 4, 5, 6, 6]


def test_wlp(Rxy):
    x, y = Rxy.gens()
    assert wlp_check(Ideal(Rxy, [x ** 2, y ** 2]))
    assert wlp_check(Ideal(Rxy, [x, y]).power(2))
    with pytest.raises(NotArtinian):
        wlp_check(Ideal(Rxy, [x]))


def test_wlp_gorenstein_factory_output(R3, rng):
    """Artinian Gorenstein with symmetric h-vector: expect WLP (generic)."""
    y0, y1, y2 = R3.gens()
    I = Ideal(R3, [y0 ** 2 - y1 * y2, y1 ** 2 - y0 * y2, y2 ** 2 - y0 * y1])
    cls = classify(I)
    if cls["gorenstein"]:
        hv = I.hilbert().h_vector
        assert tuple(hv) == tuple(reversed(hv))
        assert wlp_check(I, rng=rng)


def test_factory_outputs_are_gorenstein(R4, rng):
    """Every construction path ends classified Gorenstein with symmetric h."""
    x0, x1, x2, x3 = R4.gens()
    outs = [
        complete_intersection([x0 ** 2, x1 ** 3]),
        sum_of_linked(Ideal(R4, [x0, x2]), Ideal(R4, [x1, x2]), Ideal(R4, [x0 * x1, x2])),
        aci_gorenstein(
            complete_intersection([x0 * x3 - x1 * x2, x0 * x2 - x1 ** 2]),
            Ideal(R4, [x0 * x2 - x1 ** 2, x0 * x3 - x1 * x2, x1 * x3 - x2 ** 2]),
        ),
    ]
    for I in outs:
        cls = classify(I)
        assert cls["gorenstein"]
        hv = I.hilbert().h_vector
        assert tuple(hv) == tuple(reversed(hv))
        assert self_duality_check(I)


def test_codim2_gorenstein_is_ci(R4):
    """Gorenstein in codimension two forces two generators (rank argument)."""
    x0, x1, x2, x3 = R4.gens()
    TC = Ideal(R4, [x0 * x2 - x1 ** 2, x0 * x3 - x1 * x2, x1 * x3 - x2 ** 2])
    candidates = [
        aci_gorenstein(
            complete_intersection([x0 * x3 - x1 * x2, x0 * x2 - x1 ** 2]), TC
        ),
        complete_intersection([x0 ** 2 - x1 * x3, x2 ** 3]),
        Ideal(R4, [x0, x1]),
    ]
    for J in candidates:
        cls = classify(J)
        assert cls["gorenstein"] and cls["codim"] == 2
        b0 = sum(r for (i, _), r in cls["betti"].entries.items() if i == 0)
        assert b0 == 2


def test_codim3_gorenstein_odd_generators(R4):
    """Codimension-3 Gorenstein ideals have an odd number of generators
    (Buchsbaum-Eisenbud skew-symmetry); checked on factory outputs."""
    x0, x1, x2, x3 = R4.gens()
    TC = Ideal(R4, [x0 * x2 - x1 ** 2, x0 * x3 - x1 * x2, x1 * x3 - x2 ** 2])
    line = Ideal(R4, [x0, x1])
    X = Ideal(R4, [x0 * x3 - x1 * x2, x0 * x2 - x1 ** 2])
    outs = [
        sum_of_linked(TC, line, X),
        sum_of_linked(
            Ideal(R4, [x0, x2]), Ideal(R4, [x1, x2]), Ideal(R4, [x0 * x1, x2])
        ),
    ]
    for S in outs:
        cls = classify(S)
        assert cls["gorenstein"] and cls["codim"] == 3
        b0 = sum(r for (i, _), r in cls["betti"].entries.items() if i == 0)
        assert b0 % 2 == 1
        assert self_duality_check(S)
