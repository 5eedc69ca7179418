"""Hilbert series, functions, polynomials, h-vectors, degree, genus,
regularity index and Macaulay growth bounds.

The series numerator of R/I is computed from the leading-term monomial
ideal by pivot recursion (split on a power of the most frequent variable),
memoized on the canonical form of the monomial generators.  Everything
downstream is derived from that numerator in integer arithmetic: the
Hilbert polynomial's binomial-basis coefficients are its forward
differences at 0..dim-1 (Newton's formula), and the regularity index comes
from a downward scan that a nonzero polynomial of degree dim-1 bounds
(Bruns & Herzog, Cohen-Macaulay Rings, Sec. 4.1).

Dimension has one source: `HilbertData.dim`, the pole order of the series
at t = 1, is the Krull dimension of R/I (ibid.), and `Ideal.codimension`
is nvars minus it.
"""

import math

from .errors import NotACurve, RegularityScanFailed, UnitIdeal

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
            res = add_numerators(na, shift_numerator(nb, k))
    _memo[key] = dict(res)
    return res


def add_numerators(a, b, sign=1):
    """a + sign * b for series numerators kept as {degree: coefficient}
    dicts; no zero coefficient is kept."""
    out = dict(a)
    for k, v in b.items():
        c = out.get(k, 0) + sign * v
        if c:
            out[k] = c
        else:
            out.pop(k, None)
    return out


def _poly_mul(a, b):
    out = {}
    for i, u in a.items():
        for j, v in b.items():
            k = i + j
            out[k] = out.get(k, 0) + u * v
    return {k: v for k, v in out.items() if v}


def shift_numerator(a, s):
    """The numerator a times t^s: the series of a module twisted by -s."""
    return {k + s: v for k, v in a.items()}


def _poly_divide_1mt(a):
    """a / (1-t) for a nonzero polynomial a with a(1) = 0."""
    q = {}
    carry = 0
    for k in range(min(a), max(a)):
        carry += a.get(k, 0)
        if carry:
            q[k] = carry
    return q


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
    """Hilbert data of a graded quotient with series numerator/(1-t)^nv.

    `reduced` is the numerator with every factor (1-t) cancelled, `dim`
    = nv minus their number.  `hp_coeffs` are the forward differences of
    hp at 0..dim-1, highest order first; `reg_index` is 1 + the largest j
    with hf(j) != hp(j).  `h_vector` lays out `reduced`, and
    `h_vector_is_honest` means "dimension 0": it is False for every
    positive-dimensional quotient, Cohen-Macaulay or not."""

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
        self.dim = nv
        while red and sum(red.values()) == 0:
            red = _poly_divide_1mt(red)
            self.dim -= 1
        if self.dim < 0:  # not the numerator of a module: read as zero
            self.dim, red = 0, {}
        self.reduced = red
        self.degree = sum(red.values())
        self.hp_coeffs = self._hp_coeffs()
        self.reg_index = self._reg_index()
        self.h_vector = self._h_vector()
        self.h_vector_is_honest = self.dim == 0

    # -- basic values ---------------------------------------------------
    def hf(self, j):
        return series_hf(self.numerator, self.nv, j)

    def hp(self, j):
        d = self.dim
        if d == 0:
            return 0
        return sum(c * binom_int(j - i + d - 1, d - 1) for i, c in self.reduced.items())

    def _hp_coeffs(self):
        """h_0..h_{d-1} with p(j) = sum h_k C(j, d-1-k); Newton's forward
        formula p(j) = sum_m (D^m p)(0) C(j, m) gives h_k = (D^(d-1-k) p)(0)."""
        vals = [self.hp(j) for j in range(self.dim)]
        diffs = []
        while vals:
            diffs.append(vals[0])
            vals = [b - a for a, b in zip(vals, vals[1:])]
        return diffs[::-1]

    def _reg_index(self):
        """Scan down from where hf and hp must agree.  Below min(numerator)
        hf is 0 and a nonzero hp has at most dim - 1 roots, so the scan
        stops above the floor."""
        if self.numerator == {}:
            return 0
        top = max(self.numerator)
        j = max(top - self.nv + self.dim + 2, top + 1)
        if self.hf(j) != self.hp(j):
            raise RegularityScanFailed(f"regularity scan started too low: hf({j}) != hp({j})")
        floor = min(self.numerator) - self.dim - 1
        while j - 1 >= floor and self.hf(j - 1) == self.hp(j - 1):
            j -= 1
        return j

    def _h_vector(self):
        """`reduced` from degree min(0, lowest); an h-vector when R/I is CM,
        which dimension 0 guarantees (reduced(1) = degree != 0, so no
        further division by (1-t) exists to test it)."""
        red = self.reduced
        if not red:
            return ()
        return tuple(red.get(k, 0) for k in range(min(min(red), 0), max(red) + 1))


# -- ideal-level API -----------------------------------------------------


def hilbert_data(ideal):
    """HilbertData of R/I, exact, from the leading-term ideal."""
    if ideal.is_unit:
        raise UnitIdeal("Hilbert series of the unit ideal quotient is 0")
    nv = ideal.ring.nvars
    return HilbertData(mono_numerator(ideal.lt_exps(), nv), nv)


def quotient_numerator(twists, lt_terms, nv):
    """Numerator of HS(F/S) where F has the given twists and S has leading
    terms lt_terms = [(pos, exps), ...]."""
    by_pos = {i: [] for i in range(len(twists))}
    for pos, e in lt_terms:
        by_pos[pos].append(tuple(e))
    total = {}
    for i, a in enumerate(twists):
        total = add_numerators(total, shift_numerator(mono_numerator(by_pos[i], nv), a))
    return total


def free_numerator(twists):
    out = {}
    for a in twists:
        out[a] = out.get(a, 0) + 1
    return out


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
