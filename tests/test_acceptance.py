"""Acceptance gate: thirteen criteria, each exact at its stated tolerance,
printing one pass/fail line per criterion.

Run with  pytest tests/test_acceptance.py -v -s  (kernels are pre-warmed by
the session fixture so the timed assertions measure the operations).
"""

import time
from itertools import combinations_with_replacement

import numpy as np
import pytest

from liaisonlab.errors import NotUnmixed
from liaisonlab.gorenstein import PointSet, dgo_verify
from liaisonlab.glicci import (
    gaeta_run,
    glicci_descent,
    is_complete_intersection,
    lift_map,
)
from liaisonlab.hilbert import macaulay_growth_check, si_sequence_check
from liaisonlab.ideals import Ideal, PolyMatrix
from liaisonlab.liaison import basic_double_link, direct_link, liaison_addition
from liaisonlab.resolution import ci_invariant_hf, ci_invariant_numerators, classify, deficiency_table
from liaisonlab.ring import Ring

pytestmark = pytest.mark.acceptance


def _report(num, label, elapsed, limit=None):
    extra = f" ({elapsed:.2f}s" + (f" < {limit:.0f}s)" if limit else ")")
    print(f"criterion {num:2d}: PASS {label}{extra}")
    if limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.1f}s)"


@pytest.fixture(scope="session")
def warm(R4):
    """Kernels are compiled by the autouse conftest fixture."""
    return True


def test_criterion_1_twisted_cubic_link(R4, warm):
    x0, x1, x2, x3 = R4.gens()
    t0 = time.perf_counter()
    c = Ideal(R4, [x0 * x3 - x1 * x2, x0 * x2 - x1 ** 2])
    TC = Ideal(R4, [x0 * x2 - x1 ** 2, x0 * x3 - x1 * x2, x1 * x3 - x2 ** 2])
    rec = direct_link(c, TC)
    assert rec.J == Ideal(R4, [x0, x1])
    assert rec.I.hilbert().degree == 3
    assert rec.J.hilbert().degree == 1
    assert rec.c.hilbert().degree == 4
    el = time.perf_counter() - t0
    _report(1, "twisted cubic <-> line through the quadric pair", el, 1.0)


def test_criterion_2_quartic_link(R4, warm):
    x0, x1, x2, x3 = R4.gens()
    t0 = time.perf_counter()
    c = Ideal(R4, [x0 * x3 - x1 * x2, x0 * x2 ** 2 - x1 ** 2 * x3])
    quart = Ideal(
        R4,
        [x1 * x2 - x0 * x3, x1 ** 3 - x0 ** 2 * x2, x0 * x2 ** 2 - x1 ** 2 * x3, x2 ** 3 - x1 * x3 ** 2],
    )
    rec = direct_link(c, quart)
    skew = Ideal(R4, [x0, x1]).intersect(Ideal(R4, [x2, x3]))
    assert rec.J == skew
    assert not classify(quart)["cm"]
    assert not classify(rec.J)["cm"]
    gI = 1 - quart.hilbert().hp_coeffs[1]
    gJ = 1 - skew.hilbert().hp_coeffs[1]
    assert (gI, gJ) == (0, -1)
    assert 2 * (gI - gJ) == (2 + 3 - 4) * (4 - 2)
    el = time.perf_counter() - t0
    _report(2, "rational quartic <-> skew lines + genus identity", el, 2.0)


def test_criterion_3_artinian_table(warm):
    Rxy = Ring(2, 32003, names=("x", "y"))
    x, y = Rxy.gens()
    t0 = time.perf_counter()
    c = Ideal(Rxy, [x ** 3, y ** 4])
    I = Ideal(Rxy, [x ** 2, x * y, y ** 4])
    rec = direct_link(c, I)
    hI, hc, hJ = I.hilbert(), c.hilbert(), rec.J.hilbert()
    assert hc.reg_index == 6
    rows = {
        "h_I": [1, 2, 1, 1, 0, 0, 0],
        "h_c": [1, 2, 3, 3, 2, 1, 0],
        "h_J_rev": [0, 0, 2, 2, 2, 1, 0],
    }
    for j in range(0, 7):
        assert hI.hf(j) == rows["h_I"][j]
        assert hc.hf(j) == rows["h_c"][j]
        assert hJ.hf(5 - j) == rows["h_J_rev"][j]
        assert hJ.hf(5 - j) == hc.hf(j) - hI.hf(j)
    el = time.perf_counter() - t0
    _report(3, "Artinian link Hilbert-function table, r(R/c)=6", el)


def test_criterion_4_double_line_pathology(R4, warm):
    x0, x1, x2, x3 = R4.gens()
    t0 = time.perf_counter()
    IX = Ideal(R4, [x0, x1]).power(2)
    IC1 = Ideal(R4, [x0 ** 2, x0 * x1, x1 ** 2, x0 * x2 ** 2 - x1 * x3 ** 2])
    IC2 = Ideal(R4, [x0, x1])
    assert IX.colon(IC1) == IC2
    assert IX.colon(IC2) == IC2
    assert IX.colon(IC2) != IC1
    with pytest.raises(NotUnmixed):
        direct_link(IX, IC1, require_gorenstein=False)
    el = time.perf_counter() - t0
    _report(4, "double-line pathology raises NotUnmixed", el)


def test_criterion_5_deficiency_tables(R4, warm):
    x0, x1, x2, x3 = R4.gens()
    t0 = time.perf_counter()
    window = range(-4, 7)
    sk = Ideal(R4, [x0, x1]).intersect(Ideal(R4, [x2, x3]))
    tab = deficiency_table(sk, window)[1]
    assert tab == {j: (1 if j == 0 else 0) for j in window}
    lc = Ideal(R4, [x2, x3]).intersect(Ideal(R4, [x0, x1 ** 2 - x2 * x3]))
    tab2 = deficiency_table(lc, window)[1]
    assert tab2 == {j: (1 if j in (0, 1) else 0) for j in window}
    el = time.perf_counter() - t0
    _report(5, "Hartshorne-Rao tables: skew lines {0:1}, line+conic {0:1,1:1}", el)


def _bdl_instances(R4, rng, count=20):
    """Seeded instances satisfying the basic-double-link hypotheses."""
    x = R4.gens()
    out = []
    while len(out) < count:
        kind = int(rng.integers(0, 3))
        if kind == 0:
            # J principal, I = two linear forms
            i, j = sorted(rng.choice(4, size=2, replace=False))
            J = Ideal(R4, [x[i]])
            I = Ideal(R4, [x[i], x[j]])
        elif kind == 1:
            J = Ideal(R4, [R4.random_poly(2, rng)])
            g = R4.random_poly(1, rng)
            I = J + Ideal(R4, [g])
        else:
            q = [g for g in Ideal(R4, [x[0], x[1]]).intersect(Ideal(R4, [x[2], x[3]])).gb]
            J = Ideal(R4, [q[0] - q[1]])
            I = Ideal(R4, [x[0], x[1]]).intersect(Ideal(R4, [x[2], x[3]]))
        if J.is_zero or J.is_unit or I.is_unit:
            continue
        if I.codimension() != J.codimension() + 1:
            continue
        if not I.contains_ideal(J):
            continue
        if not classify(J)["cm"]:
            continue
        f = R4.random_poly(int(rng.integers(1, 3)), rng)
        if f.is_zero or not J.colon_poly(f) == J:
            continue
        out.append((J, I, f))
    return out


def test_criterion_6_bdl_family(R4, warm):
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    instances = _bdl_instances(R4, rng, 20)
    for J, I, f in instances:
        d = f.degree
        tilde, rep = basic_double_link(J, I, f)
        assert rep["codim_preserved"]
        assert rep["hilbert_identity"]
        assert rep["cohomology_shift"]
        # independent re-check of the shift on a fixed window
        dimq = R4.nvars - I.codimension()
        if dimq >= 2:
            win = range(-3, 6)
            wide = range(-3 - d, 6)
            before = deficiency_table(I, wide)
            after = deficiency_table(tilde, win)
            for i in range(1, dimq):
                for j in win:
                    assert after[i][j] == before[i][j - d]
    el = time.perf_counter() - t0
    _report(6, "20 seeded basic double links: shift + Hilbert identity", el, 60.0)


def test_criterion_7_liaison_addition(R4, warm):
    x0, x1, x2, x3 = R4.gens()
    t0 = time.perf_counter()
    V1 = Ideal(R4, [x0, x1]).intersect(Ideal(R4, [x2, x3]))
    V2 = Ideal(R4, [x0, x2]).intersect(Ideal(R4, [x1, x3]))
    F1 = next(g for g in V2.gb if g.degree == 2)
    q = [g for g in V1.gb if g.degree == 2]
    F2 = q[0] * x0 + q[1] * x3
    assert F1.degree == 2 and F2.degree == 3
    Z, rep = liaison_addition([(V1, F1), (V2, F2)])
    assert Z.hilbert().degree == 10
    assert rep["saturated"]
    tab = deficiency_table(Z, range(-1, 7))[1]
    assert {j: v for j, v in tab.items() if v} == {2: 1, 3: 1}
    el = time.perf_counter() - t0
    _report(7, "liaison addition: degree-10 curve, Rao table {2:1,3:1}", el)


def test_criterion_8_dgo_biconditional(R4, warm):
    R3 = Ring(3, 32003)
    rng = np.random.default_rng(8)
    t0 = time.perf_counter()
    cases = [
        PointSet(R3, [(1, a, b) for a in (0, 1) for b in (0, 1, 2)]),
        PointSet(R3, [(1, t, (t * t) % R3.p) for t in range(6)]),
        PointSet(R3, [(1, 0, 0), (1, 1, 0), (1, 2, 0), (1, 3, 0), (1, 0, 1), (1, 1, 2)]),
        PointSet.general(R4, 5, rng),
        PointSet(
            R4,
            [(1, 0, 0, 0), (1, 1, 0, 0), (1, 2, 0, 0), (1, 3, 0, 0), (1, 0, 1, 0), (1, 1, 2, 3)],
        ),
    ]
    for P in cases:
        assert dgo_verify(P) == classify(P.ideal())["gorenstein"]
    el = time.perf_counter() - t0
    _report(8, "DGO biconditional on 5 configurations", el)


def test_criterion_9_gaeta(R4, warm):
    R5 = Ring(5, 32003)
    rng = np.random.default_rng(9)
    t0 = time.perf_counter()
    x0, x1, x2, x3 = R4.gens()
    A = PolyMatrix(R4, [[x0, x1, x2], [x1, x2, x3]])
    certA = gaeta_run(A, rng)
    assert certA.replay() and is_complete_intersection(certA.end)
    z = R5.gens()
    B = PolyMatrix(R5, [[z[0], z[1], z[2], z[3]], [z[1], z[2], z[3], z[4]]])
    certB = gaeta_run(B, rng)
    assert certB.replay() and is_complete_intersection(certB.end)
    el = time.perf_counter() - t0
    _report(9, "Gaeta on the 2x3 and 2x4 scrolls, certificates replay", el, 30.0)


def test_criterion_10_glicci_family(R4, warm):
    from test_glicci import random_stable_cm

    R3 = Ring(3, 32003)
    y0, y1, y2 = R3.gens()
    rng = np.random.default_rng(10)
    t0 = time.perf_counter()
    # the worked lifting-map example, verbatim
    assert lift_map(R3.monomial((0, 3, 2))) == y1 * (y1 + y0) * (y1 + y0.scale(2)) * y2 * (y2 + y0)
    cert = glicci_descent(Ideal(R3, [y0, y1]).power(2))
    assert cert.replay() and cert.end == Ideal(R3, [y0, y1])
    done = 0
    seen_codims = set()
    while done < 10:
        codim = 2 if done % 2 == 0 else 3
        J = random_stable_cm(R4, codim, rng)
        c = glicci_descent(J)
        assert c.replay()
        assert is_complete_intersection(c.end)
        seen_codims.add(codim)
        done += 1
    assert seen_codims == {2, 3}
    el = time.perf_counter() - t0
    _report(10, "glicci descents: (x0,x1)^2 + 10 seeded stable ideals", el)


def test_criterion_11_macaulay(warm):
    t0 = time.perf_counter()
    r = macaulay_growth_check([1, 3, 1, 2])
    assert not r["valid"] and r["first_violation"] == 2
    r2 = macaulay_growth_check([1, 3, 6, 5, 6])
    assert r2["valid"] and 3 in r2["maximal_growth"]
    assert not si_sequence_check([1, 3, 6, 7, 9, 7, 6, 3, 1])
    el = time.perf_counter() - t0
    _report(11, "Macaulay growth and SI-sequence verdicts", el)


@pytest.mark.slow
def test_criterion_12_ci_invariant(warm):
    R5 = Ring(5, 32003)
    rng = np.random.default_rng(12)
    t0 = time.perf_counter()
    done = 0
    while done < 5:
        degs = [1, 1, int(rng.integers(1, 3))]
        I = Ideal(R5, [R5.random_poly(d, rng) for d in degs])
        if I.is_unit or I.codimension() != 3:
            continue
        assert ci_invariant_numerators(I) == {1: {}}  # zero in every degree
        done += 1
    z = R5.gens()
    B = PolyMatrix(R5, [[z[0], z[1], z[2], z[3]], [z[1], z[2], z[3], z[4]]])
    rnc = B.maximal_minors()
    tab = ci_invariant_hf(rnc, window=range(-1, 5))
    assert any(v != 0 for row in tab.values() for v in row.values())
    el = time.perf_counter() - t0
    _report(12, "CI-liaison invariant: 5 CIs vanish, RNC in P4 does not", el, 300.0)


def test_criterion_13_oracles(warm):
    R = Ring(4, 32003)
    rng = np.random.default_rng(13)
    t0 = time.perf_counter()

    def monomials_upto(d):
        out = []
        for t in range(d + 1):
            for combo in combinations_with_replacement(range(4), t):
                e = [0, 0, 0, 0]
                for i in combo:
                    e[i] += 1
                out.append(tuple(e))
        return out

    probe = monomials_upto(4)
    done = 0
    while done < 50:
        gens = [tuple(int(v) for v in rng.integers(0, 4, 4)) for _ in range(int(rng.integers(1, 4)))]
        gens = [g for g in gens if sum(g)]
        if not gens:
            continue
        I = Ideal(R, [R.monomial(g) for g in gens])
        if I.is_unit:
            continue
        d = I.hilbert()
        # brute-force graded dimension count
        for j in range(0, d.reg_index + 4):
            cnt = 0
            for combo in combinations_with_replacement(range(4), j):
                e = [0, 0, 0, 0]
                for i in combo:
                    e[i] += 1
                if not any(all(g[k] <= e[k] for k in range(4)) for g in gens):
                    cnt += 1
            assert d.hf(j) == cnt
        # colon/intersect vs exhaustive monomial membership
        gensJ = [tuple(int(v) for v in rng.integers(0, 3, 4)) for _ in range(2)]
        gensJ = [g for g in gensJ if sum(g)]
        if gensJ:
            J = Ideal(R, [R.monomial(g) for g in gensJ])
            inter = I.intersect(J)
            colon = I.colon(J)
            for m in probe:
                in_i = any(all(g[k] <= m[k] for k in range(4)) for g in gens)
                in_j = any(all(g[k] <= m[k] for k in range(4)) for g in gensJ)
                assert inter.contains(R.monomial(m)) == (in_i and in_j)
                expect_colon = all(
                    any(
                        all(g[k] <= m[k] + gj[k] for k in range(4))
                        for g in gens
                    )
                    for gj in gensJ
                )
                assert colon.contains(R.monomial(m)) == expect_colon
        done += 1
    el = time.perf_counter() - t0
    _report(13, "oracle suite: 50 monomial ideals, HF + colon/intersect", el)
