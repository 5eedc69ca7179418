"""Ideal-level algebra: sums, products, intersections, colon ideals,
saturation, elimination, ideals of maximal minors, codimension.

Dimension has one source: `Ideal.codimension` is nvars minus the pole
order at t = 1 of the Hilbert series (`hilbert.HilbertData.dim`), which is
the Krull dimension of R/I.

Intersections and colon ideals are annihilators (`groebner.annihilator`):
I_1 cap ... cap I_k is the annihilator of (1, ..., 1) modulo the relations
I_1 e_1 + ... + I_k e_k, one run however many ideals meet, and I : f the
annihilator of f modulo I.  The colon by an ideal intersects the colons by
its generators in one such run, over only the colons that can shrink it:
a generator in I, and a later generator whose colon contains the first
one computed (a membership test per product), add nothing and are not
computed.  A caller that knows the Hilbert series of the colon (a
Gorenstein link) passes it, and a first part with that series is the
colon, with no product formed.  Saturation iterates the colon until the
reduced Groebner basis stabilizes.  Only `Ideal.eliminate` works in an
elimination order.  Whether f is regular on R/I needs no colon: it is one
identity of Hilbert series (`Ideal.is_nonzerodivisor`).
"""

from itertools import combinations

from .errors import (
    DegenerateMatrix,
    DivisionByZero,
    NotHomogeneous,
    RingMismatch,
    UnitIdeal,
)
from .groebner import GroebnerBasis, annihilator, buchberger, normal_form
from .hilbert import add_numerators, hilbert_data, shift_numerator
from .ring import Element, FreeModule, Order, Ring


class Ideal:
    """Homogeneous ideal with a cached reduced Groebner basis.

    Equality is equality of reduced bases; all generators must be
    homogeneous (the grading is load-bearing everywhere downstream).
    """

    __slots__ = ("ring", "gens", "_gb", "_hilbert", "_quotient")

    def __init__(self, ring, gens):
        self.ring = ring
        gens = tuple(g for g in gens if not g.is_zero)
        for g in gens:
            if g.module != ring.as_module:
                raise RingMismatch(f"generator {g} is not an element of the ring")
            if not g.is_homogeneous:
                raise NotHomogeneous(f"generator {g} is not homogeneous")
        self.gens = gens
        self._gb = None
        self._hilbert = None
        self._quotient = None

    # -- basic structure ----------------------------------------------
    @property
    def gb(self):
        if self._gb is None:
            if not self.gens:
                self._gb = GroebnerBasis(self.ring.as_module, [])
            else:
                self._gb = buchberger(self.gens)
        return self._gb

    @property
    def is_zero(self):
        return len(self.gb) == 0

    @property
    def is_unit(self):
        g = self.gb
        return len(g) == 1 and g[0].degree == 0

    def contains(self, f):
        if f.is_zero:
            return True
        return normal_form(f, self.gb).is_zero

    def contains_ideal(self, other):
        return all(self.contains(g) for g in other.gens)

    def lt_exps(self):
        """Leading-term monomial exponents of the reduced basis."""
        return [g.lt()[1] for g in self.gb]

    def __eq__(self, other):
        return (
            isinstance(other, Ideal)
            and other.ring == self.ring
            and self.gb == other.gb
        )

    def __repr__(self):
        return f"Ideal({', '.join(map(str, self.gens))})"

    def canonical_strings(self):
        return [str(g) for g in self.gb]

    # -- arithmetic -----------------------------------------------------
    def _chk(self, other):
        if other.ring != self.ring:
            raise RingMismatch("ideals in different rings")

    def __add__(self, other):
        self._chk(other)
        return Ideal(self.ring, self.gens + other.gens)

    def __mul__(self, other):
        if isinstance(other, Element):
            return Ideal(self.ring, [g * other for g in self.gens])
        self._chk(other)
        return Ideal(
            self.ring,
            [f * g for f in self.gens for g in other.gens],
        )

    __rmul__ = __mul__

    def power(self, k):
        out = Ideal(self.ring, [self.ring.one()])
        for _ in range(k):
            out = out * self
        return out

    def intersect(self, *others):
        """self cap others[0] cap ...: one annihilator run over the direct
        sum of the ideals, however many there are; self when there are
        none."""
        for other in others:
            self._chk(other)
        if not others:
            return self
        one = self.ring.one()
        return _colon_of_parts(self.ring, [(I, one) for I in (self, *others)])

    def colon_poly(self, f):
        """(self : f) for a ring element f (RingMismatch for an element of
        any other module)."""
        if f.module != self.ring.as_module:
            raise RingMismatch(f"{f} is not an element of the ring")
        if f.is_zero:
            raise DivisionByZero("colon by zero")
        return _colon_of_parts(self.ring, [(self, f)])

    def is_nonzerodivisor(self, f, plus=None):
        """Whether the ring element f is regular on R/self, by Hilbert series
        with no colon.  For d = deg f the exact sequence
        0 -> ((self : f)/self)(-d) -> (R/self)(-d) -> R/self -> R/(self + fR) -> 0
        gives HS(R/(self + fR)) = (1 - t^d) HS(R/self) + t^d HS((self : f)/self),
        so the identity without the last term holds exactly when
        self : f = self.  plus: the ideal self + fR, when the caller has
        built it."""
        if f.is_zero:
            raise DivisionByZero("colon by zero")
        if plus is None:
            plus = self + Ideal(self.ring, [f])
        n = self.hilbert().numerator
        return plus.hilbert().numerator == add_numerators(n, shift_numerator(n, f.degree), -1)

    def colon(self, other, numerator=None):
        """(self : other) = intersection of (self : g) over generators g
        (Greuel & Pfister, A Singular Introduction to Commutative
        Algebra), taken in one n-ary `intersect` over the parts that can
        shrink it.  A g in self has self : g = R.  A later g with g*h in
        self for every generator h of the first part P computed has
        P inside self : g.  Neither part is computed, and the colon is the
        unit ideal when every generator is skipped.

        numerator: the Hilbert series numerator of R/(self : other), when
        the caller knows it (a Gorenstein link, `liaison.direct_link`).
        P contains self : other, so when R/P has that numerator the two
        are equal and no further generator is looked at: no product is
        formed.  Otherwise the colon goes on as without it."""
        if isinstance(other, Element):
            return self.colon_poly(other)
        self._chk(other)
        if not other.gens:
            raise DivisionByZero("colon by the zero ideal")
        parts = []
        for g in other.gens:
            if self.contains(g):
                continue
            if parts and all(self.contains(g * h) for h in parts[0].gens):
                continue
            parts.append(self.colon_poly(g))
            if numerator is not None and len(parts) == 1 and parts[0].hilbert().numerator == numerator:
                break
        if not parts:
            return Ideal(self.ring, [self.ring.one()])
        return parts[0].intersect(*parts[1:])

    def saturate(self, by=None):
        """Saturation self : by^infinity (by=None means the irrelevant ideal)."""
        if by is None:
            by = Ideal(self.ring, self.ring.gens())
        cur = self
        while (nxt := cur.colon(by)).gb != cur.gb:
            cur = nxt
        return cur

    def eliminate(self, var_indices):
        """self  intersected with  K[remaining variables] (same ring)."""
        kill = sorted(set(var_indices))
        if not kill:
            return self
        n = self.ring.nvars
        keep = [i for i in range(n) if i not in kill]
        perm = kill + keep  # position j of new ring = old variable perm[j]
        tmp = Ring(n, self.ring.p, Order("block", len(kill)))
        inv = [0] * n
        for newpos, old in enumerate(perm):
            inv[old] = newpos

        def fwd(f):
            return tmp.poly(
                {tuple(e[old] for old in perm): c for _, e, c in f.terms()}
            )

        gens = [fwd(g) for g in self.gens]
        gb = buchberger(gens)
        out = []
        for g in gb:
            if not any(any(e[: len(kill)]) for _, e, _ in g.terms()):
                out.append(
                    self.ring.poly(
                        {tuple(e[inv[i]] for i in range(n)): c for _, e, c in g.terms()}
                    )
                )
        return Ideal(self.ring, out)

    # -- invariants ------------------------------------------------------
    def codimension(self):
        """nvars - dim(R/I), the dimension read off the Hilbert series
        numerator (`hilbert`), the one source of dim R/I."""
        if self.is_unit:
            raise UnitIdeal("codimension of the unit ideal")
        return self.ring.nvars - self.hilbert().dim

    def hilbert(self):
        if self._hilbert is None:
            self._hilbert = hilbert_data(self)
        return self._hilbert

    def is_monomial(self):
        return all(len(g) == 1 for g in self.gb)


def _colon_of_parts(ring, parts):
    """The intersection of the colon ideals I_k : f_k over (I_k, f_k) in
    parts: the annihilator of v = sum f_k e_k modulo the relations g e_k,
    g in I_k, with e_k twisted by -deg f_k so that v has degree 0."""
    F = FreeModule(ring, tuple(-f.degree for _, f in parts))
    v = sum((F.inject(f, k) for k, (_, f) in enumerate(parts)), F.zero())
    relations = [F.inject(g, k) for k, (I, _) in enumerate(parts) for g in I.gens]
    return Ideal(ring, annihilator(v, relations))


class PolyMatrix:
    """Matrix of homogeneous polynomials with consistent degree data.

    Row/column twists (u_i for rows, v_j for columns) satisfy
    deg A[i][j] = v_j - u_i whenever the entry is nonzero.
    """

    __slots__ = ("ring", "rows", "nrows", "ncols", "row_degs", "col_degs")

    def __init__(self, ring, rows):
        self.ring = ring
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise DegenerateMatrix("ragged matrix")
            for f in r:
                if f.module != ring.as_module:
                    raise RingMismatch(f"entry {f} is not an element of the ring")
                if not f.is_homogeneous:
                    raise DegenerateMatrix(f"non-homogeneous entry {f}")
        self.row_degs, self.col_degs = self._degree_data()

    def _degree_data(self):
        """Solve deg A[i][j] = c_j - r_i: each block of entries linked by
        shared rows and columns is propagated from its first row at twist
        0, an all-zero column gets twist 0, and every nonzero entry is
        then checked."""
        r = [None] * self.nrows
        c = [None] * self.ncols
        for first in range(self.nrows):
            if r[first] is not None:
                continue
            r[first] = 0
            todo = [first]
            while todo:
                i = todo.pop()
                for j, f in enumerate(self.rows[i]):
                    if f.is_zero or c[j] is not None:
                        continue
                    c[j] = r[i] + f.degree
                    for k, row in enumerate(self.rows):
                        if r[k] is None and not row[j].is_zero:
                            r[k] = c[j] - row[j].degree
                            todo.append(k)
        c = [0 if v is None else v for v in c]
        for i, row in enumerate(self.rows):
            for j, f in enumerate(row):
                if not f.is_zero and f.degree != c[j] - r[i]:
                    raise DegenerateMatrix("degree matrix violated")
        return r, c

    def submatrix(self, row_idx, col_idx):
        return PolyMatrix(self.ring, [[self.rows[i][j] for j in col_idx] for i in row_idx])

    def det(self):
        if self.nrows != self.ncols:
            raise DegenerateMatrix("determinant of a non-square matrix")
        return _det(self.ring, self.rows)

    def minors(self, t):
        """All t x t minors (Laplace expansion)."""
        out = []
        for ri in combinations(range(self.nrows), t):
            for ci in combinations(range(self.ncols), t):
                out.append(_det(self.ring, [[self.rows[i][j] for j in ci] for i in ri]))
        return out

    def maximal_minors(self):
        t = min(self.nrows, self.ncols)
        return Ideal(self.ring, [m for m in self.minors(t) if not m.is_zero])

    def __repr__(self):
        body = "; ".join(", ".join(str(f) for f in r) for r in self.rows)
        return f"[{body}]"


def _det(ring, rows):
    n = len(rows)
    if n == 0:
        return ring.one()
    if n == 1:
        return rows[0][0]
    acc = ring.zero()
    for j in range(n):
        f = rows[0][j]
        if f.is_zero:
            continue
        minor = [[rows[i][jj] for jj in range(n) if jj != j] for i in range(1, n)]
        term = f * _det(ring, minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc
