"""Hilbert series, functions, polynomials, h-vectors, degree, genus,
regularity index and Macaulay growth bounds.

The series numerator of R/I is computed from the leading-term monomial
ideal by pivot recursion (split on a power of the most frequent variable),
memoized on the canonical form of the monomial generators.  Everything
downstream (function values, polynomial, h-vector, regularity index) is
derived exactly from that numerator.
"""

import math
from fractions import Fraction

from .errors import NotACurve, UnitIdeal

_memo = {}


def _minimalize(gens):
    """Minimal generators of a monomial ideal given as exponent tuples."""
    out = []
    for m in sorted(gens, key=lambda e: (sum(e), e)):
        if not any(all(g[i] <= m[i] for i in range(len(m))) for g in out):
            out.append(m)
    return tuple(out)


def mono_numerator(gens, nv):
    """Numerator of HS(R/M) over (1-t)^nv for the monomial ideal M.

    gens: iterable of exponent tuples (length nv).  Returns a dict
    degree -> integer coefficient.
    """
    gens = _minimalize(gens)
    key = (gens, nv)
    if key in _memo:
        return dict(_memo[key])
    if not gens:
        res = {0: 1}
    elif any(sum(g) == 0 for g in gens):
        res = {}
    else:
        supports = [tuple(i for i, a in enumerate(g) if a) for g in gens]
        if all(len(s) == 1 for s in supports) and len({s[0] for s in supports}) == len(
            supports
        ):
            # coprime pure powers: product of (1 - t^deg)
            res = {0: 1}
            for g in gens:
                res = _poly_mul(res, {0: 1, sum(g): -1})
        else:
            counts = [0] * nv
            for s in supports:
                if len(s) > 1:
                    for i in s:
                        counts[i] += 1
            piv = max(range(nv), key=lambda i: counts[i])
            # pivot on m = x_piv^k, k the smallest positive exponent of x_piv:
            # N(I) = N(I + (m)) + t^k N(I : m), and I + (m) drops every
            # generator divisible by x_piv, so the depth does not grow with k
            k = min(g[piv] for g in gens if g[piv])
            m = tuple(k if i == piv else 0 for i in range(nv))
            plus = [g for g in gens if g[piv] == 0] + [m]
            colon = [
                tuple(max(a - k, 0) if i == piv else a for i, a in enumerate(g))
                for g in gens
            ]
            na = mono_numerator(plus, nv)
            nb = mono_numerator(colon, nv)
            res = _poly_add(na, _poly_shift(nb, k))
    _memo[key] = dict(res)
    return res


def _poly_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
        if out[k] == 0:
            del out[k]
    return out


def _poly_mul(a, b):
    out = {}
    for i, u in a.items():
        for j, v in b.items():
            k = i + j
            out[k] = out.get(k, 0) + u * v
    return {k: v for k, v in out.items() if v}


def _poly_shift(a, s):
    return {k + s: v for k, v in a.items()}


def _poly_divide_1mt(a):
    """Divide by (1-t); returns (quotient, divisible flag)."""
    if not a:
        return {}, True
    lo, hi = min(a), max(a)
    q = {}
    carry = 0
    for k in range(lo, hi + 1):
        carry += a.get(k, 0)
        if carry:
            q[k] = carry
    if carry != 0:
        return a, False
    return {k: v for k, v in q.items() if v}, True


def binom_int(a, k):
    """Generalized binomial C(a, k) for integer a (may be negative)."""
    if k < 0:
        return 0
    num = 1
    for i in range(k):
        num *= a - i
    return num // math.factorial(k)


def binom_nn(a, k):
    """C(a, k), zero when a < k or a < 0 (series convention)."""
    if a < 0 or a < k:
        return 0
    return math.comb(a, k)


def series_hf(numer, nv, j):
    """Hilbert function value at j from a numerator over (1-t)^nv."""
    return sum(c * binom_nn(j - i + nv - 1, nv - 1) for i, c in numer.items())


class HilbertData:
    """Hilbert data of a graded quotient with series numerator/(1-t)^nv."""

    __slots__ = (
        "numerator",
        "nv",
        "dim",
        "reduced",
        "degree",
        "hp_coeffs",
        "reg_index",
        "h_vector",
        "h_vector_is_honest",
    )

    def __init__(self, numerator, nv):
        self.numerator = dict(numerator)
        self.nv = nv
        red = dict(self.numerator)
        cancelled = 0
        while red:
            q, ok = _poly_divide_1mt(red)
            if not ok:
                break
            red = q
            cancelled += 1
        self.dim = nv - cancelled
        if self.dim < 0:
            # zero module
            self.dim = 0
            red = {}
        self.reduced = red
        self.degree = sum(red.values())
        self.hp_coeffs = self._hp_coeffs()
        self.reg_index = self._reg_index()
        hv, honest = self._h_vector()
        self.h_vector = hv
        self.h_vector_is_honest = honest

    # -- basic values ---------------------------------------------------
    def hf(self, j):
        return series_hf(self.numerator, self.nv, j)

    def hp(self, j):
        d = self.dim
        if d == 0:
            return 0
        return sum(c * binom_int(j - i + d - 1, d - 1) for i, c in self.reduced.items())

    def _hp_coeffs(self):
        """Coefficients h_0..h_{d-1} with p(j) = sum h_k C(j, d-1-k)."""
        d = self.dim
        if d == 0:
            return []
        pts = list(range(d))
        vals = [self.hp(j) for j in pts]
        # solve sum_k h_k C(j, d-1-k) = p(j)
        mat = [[Fraction(binom_int(j, d - 1 - k)) for k in range(d)] for j in pts]
        hs = _solve_fraction(mat, [Fraction(v) for v in vals])
        return [int(h) for h in hs]

    def _reg_index(self):
        if self.numerator == {}:
            return 0
        top = max(self.numerator) if self.numerator else 0
        j = max(top - self.nv + self.dim + 2, top + 1)
        # scan downward from the guaranteed-agreement zone
        if self.hf(j) != self.hp(j):
            raise AssertionError("regularity scan started too low")
        floor = min(min(self.numerator), 0) - self._root_bound() - 3
        while j - 1 >= floor and self.hf(j - 1) == self.hp(j - 1):
            j -= 1
        return j

    def _root_bound(self):
        """Cauchy-style bound on integer roots of the Hilbert polynomial."""
        if self.dim == 0 or not self.reduced:
            return 1
        coeffs = _hp_dense_coeffs(self.reduced, self.dim)
        lead = coeffs[-1]
        if lead == 0:
            return 1
        return 2 + int(max(abs(c / lead) for c in coeffs))

    def _h_vector(self):
        """Numerator after cancelling down to dimension 0 (h-vector when CM)."""
        red = dict(self.reduced)
        honest = True
        for _ in range(self.dim):
            red, ok = _poly_divide_1mt(red)
            if not ok:
                honest = False
                break
        if not honest:
            # forced division leaves a Laurent-style remainder; report the
            # reduced numerator instead, flagged as not a genuine h-vector
            red = dict(self.reduced)
        if not red:
            return (), honest
        lo, hi = min(red), max(red)
        if lo < 0:
            return tuple(red.get(k, 0) for k in range(lo, hi + 1)), honest
        return tuple(red.get(k, 0) for k in range(0, hi + 1)), honest


def _hp_dense_coeffs(reduced, d):
    """Hilbert polynomial as dense coefficient list in j (Fractions)."""
    out = [Fraction(0)] * d
    for i, c in reduced.items():
        # C(j - i + d - 1, d - 1) as polynomial in j
        poly = [Fraction(1)]
        for s in range(d - 1):
            # multiply by (j - i + d - 1 - s)
            shift = Fraction(d - 1 - s - i)
            poly = [Fraction(0)] + poly
            for t in range(len(poly) - 1):
                poly[t] += shift * poly[t + 1]
        poly = [x / math.factorial(d - 1) for x in poly]
        for t, v in enumerate(poly):
            out[t] += c * v
    return out


def _solve_fraction(mat, rhs):
    n = len(rhs)
    a = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


# -- ideal-level API -----------------------------------------------------


def hilbert_data(ideal):
    """HilbertData of R/I, exact, from the leading-term ideal."""
    if ideal.is_unit:
        raise UnitIdeal("Hilbert series of the unit ideal quotient is 0")
    nv = ideal.ring.nvars
    numer = mono_numerator(ideal.lt_exps(), nv)
    data = HilbertData(numer, nv)
    if not ideal.is_zero:
        if data.dim != nv - ideal.codimension():
            raise AssertionError("numerator dimension disagrees with codimension")
    return data


def quotient_numerator(twists, lt_terms, nv):
    """Numerator of HS(F/S) where F has the given twists and S has leading
    terms lt_terms = [(pos, exps), ...]."""
    by_pos = {i: [] for i in range(len(twists))}
    for pos, e in lt_terms:
        by_pos[pos].append(tuple(e))
    total = {}
    for i, a in enumerate(twists):
        total = _poly_add(total, _poly_shift(mono_numerator(by_pos[i], nv), a))
    return total


def free_numerator(twists):
    out = {}
    for a in twists:
        out[a] = out.get(a, 0) + 1
    return out


def regularity_index(ideal):
    return ideal.hilbert().reg_index


def degree_and_genus(ideal):
    """(degree, arithmetic genus) -- genus only for curves (dim R/I = 2)."""
    data = ideal.hilbert()
    if data.dim < 1:
        raise NotACurve("degree/genus needs positive-dimensional quotient")
    if data.dim != 2:
        return data.degree, None
    h1 = data.hp_coeffs[1]
    return data.degree, 1 - h1


def macaulay_bound(h, j):
    """Macaulay upper bound h^<j> for the next value of an O-sequence."""
    if j < 1:
        raise ValueError("Macaulay bound needs j >= 1")
    if h == 0:
        return 0
    rem = h
    parts = []
    jj = j
    while rem > 0 and jj >= 1:
        a = jj
        while math.comb(a + 1, jj) <= rem:
            a += 1
        parts.append((a, jj))
        rem -= math.comb(a, jj)
        jj -= 1
    return sum(math.comb(a + 1, k + 1) for a, k in parts)


def macaulay_growth_check(seq):
    """Check h(j+1) <= h(j)^<j> for j >= 1.

    Returns dict with 'valid', 'first_violation' (index j with the bad
    growth j -> j+1, or None) and 'maximal_growth' (indices with equality).
    No sequence with a negative entry is valid; its first violation is the
    growth into the first negative entry (0 if that is the first entry).
    """
    seq = list(seq)
    maximal = []
    neg = next((i for i, v in enumerate(seq) if v < 0), None)
    if neg is not None:
        return {"valid": False, "first_violation": max(neg - 1, 0), "maximal_growth": maximal}
    for j in range(1, len(seq) - 1):
        bound = macaulay_bound(seq[j], j)
        if seq[j + 1] > bound:
            return {"valid": False, "first_violation": j, "maximal_growth": maximal}
        if seq[j + 1] == bound:
            maximal.append(j)
    return {"valid": True, "first_violation": None, "maximal_growth": maximal}


def si_sequence_check(seq):
    """Symmetric + unimodal + first difference of the first half grows
    within the Macaulay bound."""
    seq = list(seq)
    if not seq or seq[0] != 1:
        return False
    if any(v < 0 for v in seq):
        return False
    if seq != seq[::-1]:
        return False
    peak = max(seq)
    i = seq.index(peak)
    if any(seq[k] > seq[k + 1] for k in range(i)) or any(
        seq[k] < seq[k + 1] for k in range(i, len(seq) - 1)
    ):
        return False
    half = seq[: (len(seq) + 1) // 2]
    diff = [half[0]] + [half[k] - half[k - 1] for k in range(1, len(half))]
    if any(v < 0 for v in diff):
        return False
    return macaulay_growth_check(diff)["valid"]
