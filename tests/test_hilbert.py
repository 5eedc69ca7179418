from itertools import combinations_with_replacement

import pytest

from liaisonlab.errors import NotACurve, UnitIdeal
from liaisonlab.hilbert import (
    degree_and_genus,
    hilbert_data,
    macaulay_bound,
    macaulay_growth_check,
    mono_numerator,
    regularity_index,
    series_hf,
    si_sequence_check,
)
from liaisonlab.ideals import Ideal


def _brute_hf(ideal, j):
    """Count degree-j standard monomials (not divisible by any lt)."""
    R = ideal.ring
    lts = ideal.lt_exps()
    count = 0
    for combo in combinations_with_replacement(range(R.nvars), j):
        e = [0] * R.nvars
        for i in combo:
            e[i] += 1
        if not any(all(g[k] <= e[k] for k in range(R.nvars)) for g in lts):
            count += 1
    return count


def test_twisted_cubic(R4):
    x0, x1, x2, x3 = R4.gens()
    TC = Ideal(R4, [x0 * x2 - x1 ** 2, x0 * x3 - x1 * x2, x1 * x3 - x2 ** 2])
    d = TC.hilbert()
    assert d.h_vector == (1, 2)
    assert d.degree == 3 and d.dim == 2
    for j in range(0, 6):
        assert d.hf(j) == _brute_hf(TC, j)
    assert degree_and_genus(TC) == (3, 0)


def test_ci23(R4):
    x0, x1, x2, x3 = R4.gens()
    ci = Ideal(R4, [x0 ** 2 - x1 * x2, x1 ** 3 + x2 ** 3 + x3 ** 3])
    d = ci.hilbert()
    assert d.h_vector == (1, 2, 2, 1)
    assert d.degree == 6
    assert d.reg_index == 2  # d1 + d2 - n = 2 + 3 - 3


def test_artinian_table(Rxy):
    x, y = Rxy.gens()
    I = Ideal(Rxy, [x ** 2, x * y, y ** 4])
    d = I.hilbert()
    assert [d.hf(j) for j in range(7)] == [1, 2, 1, 1, 0, 0, 0]
    c = Ideal(Rxy, [x ** 3, y ** 4])
    dc = c.hilbert()
    assert dc.reg_index == 6
    assert dc.degree == 12


def test_regularity_index_of_r(R4):
    assert Ideal(R4, []).hilbert().reg_index == -3
    with pytest.raises(UnitIdeal):
        hilbert_data(Ideal(R4, [R4.one()]))


def test_degree_genus_cases(R4):
    x0, x1, x2, x3 = R4.gens()
    sk = Ideal(R4, [x0, x1]).intersect(Ideal(R4, [x2, x3]))
    assert degree_and_genus(sk) == (2, -1)
    assert degree_and_genus(Ideal(R4, [x0, x1])) == (1, 0)
    with pytest.raises(NotACurve):
        degree_and_genus(Ideal(R4, [x0, x1, x2, x3]))


def test_ci_degree_regularity_family(R3, rng):
    """deg CI = prod d_i and r(R/CI) = sum d_i - n on random monomial CIs."""
    n = R3.nvars - 1
    for _ in range(50):
        degs = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, R3.nvars + 1)))]
        gens = [R3.var(i) ** d for i, d in enumerate(degs)]
        I = Ideal(R3, gens)
        d = I.hilbert()
        prod = 1
        for dd in degs:
            prod *= dd
        assert d.degree == prod
        if len(degs) == R3.nvars:  # Artinian
            assert d.reg_index == sum(degs) - R3.nvars + 1
        dimq = R3.nvars - len(degs)
        assert d.dim == dimq


def test_difference_gives_h_vector(R4):
    """Delta^dim of the Hilbert function equals the h-vector for CM ideals."""
    x0, x1, x2, x3 = R4.gens()
    for I in (
        Ideal(R4, [x0 * x2 - x1 ** 2, x0 * x3 - x1 * x2, x1 * x3 - x2 ** 2]),
        Ideal(R4, [x0 ** 2 - x1 * x2, x1 ** 3 + x2 ** 3 + x3 ** 3]),
    ):
        d = I.hilbert()
        vals = [d.hf(j) for j in range(-d.dim, len(d.h_vector) + d.dim + 2)]
        seq = vals
        for _ in range(d.dim):
            seq = [b - a for a, b in zip(seq, seq[1:])]
        # seq[i] is now Delta^dim h at degree i
        assert tuple(seq[: len(d.h_vector)]) == d.h_vector
        assert all(v == 0 for v in seq[len(d.h_vector) :])


def test_macaulay_bound_values():
    assert macaulay_bound(3, 1) == 6
    assert macaulay_bound(6, 2) == 10
    assert macaulay_bound(1, 2) == 1
    assert macaulay_bound(5, 3) == 6  # 5 = C(4,3)+C(2,2) -> C(5,4)+C(3,3)


def test_macaulay_growth_cases():
    r = macaulay_growth_check([1, 3, 1, 2])
    assert not r["valid"] and r["first_violation"] == 2
    r2 = macaulay_growth_check([1, 3, 6, 5, 6])
    assert r2["valid"] and 3 in r2["maximal_growth"]
    r3 = macaulay_growth_check([1, 2, 3, 1, 2])
    assert not r3["valid"] and r3["first_violation"] == 3
    # no sequence with a negative entry is valid, however short
    negative = [([1, -3], 0), ([-1], 0), ([-1, 3, 1], 0), ([1, 3, -1], 1), ([1, 3, 6, 5, -6], 3)]
    for seq, violation in negative:
        r = macaulay_growth_check(seq)
        assert not r["valid"] and r["first_violation"] == violation


def test_si_sequences():
    assert si_sequence_check([1, 3, 6, 7, 6, 3, 1])
    assert not si_sequence_check([1, 3, 6, 7, 9, 7, 6, 3, 1])
    assert si_sequence_check([1])
    assert not si_sequence_check([1, 2, 1, 2, 1])  # not unimodal
    assert si_sequence_check([1, 2, 2, 1])


def test_brute_force_hf_random_monomials(R3, rng):
    for _ in range(20):
        gens = [tuple(int(v) for v in rng.integers(0, 4, 3)) for _ in range(3)]
        gens = [g for g in gens if sum(g)] or [(1, 0, 0)]
        I = Ideal(R3, [R3.monomial(g) for g in gens])
        if I.is_unit:
            continue
        d = I.hilbert()
        for j in range(0, d.reg_index + 4):
            assert d.hf(j) == _brute_hf(I, j)


def _brute_count(gens, j):
    """Degree-j monomials of k[x0, x1, x2] divisible by no generator."""
    count = 0
    for a in range(j + 1):
        for b in range(j - a + 1):
            e = (a, b, j - a - b)
            if not any(all(g[k] <= e[k] for k in range(3)) for g in gens):
                count += 1
    return count


def test_mono_numerator_large_exponents(rng):
    """Pivots on x^k with k up to 50: the numerator still gives every
    Hilbert function value, checked by counting standard monomials."""
    for _ in range(6):
        gens = []
        for _ in range(int(rng.integers(2, 5))):
            g = rng.integers(0, 51, 3) * (rng.random(3) < 0.7)
            gens.append(tuple(int(v) for v in g) if g.any() else (1, 0, 0))
        numer = mono_numerator(gens, 3)
        top = max(numer)
        for j in sorted(set(range(0, top + 3, 13)) | set(range(max(top - 3, 0), top + 3))):
            assert series_hf(numer, 3, j) == _brute_count(gens, j)
