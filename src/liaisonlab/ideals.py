"""Ideal-level algebra: sums, products, intersections, colon ideals,
saturation, elimination, ideals of maximal minors, codimension.

Intersections and colon ideals are annihilators (`groebner.annihilator`):
I_1 cap ... cap I_k is the annihilator of (1, ..., 1) modulo the relations
I_1 e_1 + ... + I_k e_k, one run however many ideals meet, and I : f the
annihilator of f modulo I.  The colon by an ideal intersects the colons by
its generators in one such run; saturation iterates the colon until the
reduced Groebner basis stabilizes.  Only `Ideal.eliminate` works in an
elimination order.
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
from .ring import FreeModule, Order, Polynomial, Ring


class Ideal:
    """Homogeneous ideal with a cached reduced Groebner basis.

    Equality is equality of reduced bases; all generators must be
    homogeneous (the grading is load-bearing everywhere downstream).
    """

    __slots__ = ("ring", "gens", "_gb", "_codim", "_hilbert", "_quotient", "ci_degrees")

    def __init__(self, ring, gens):
        self.ring = ring
        gens = tuple(g for g in gens if not g.is_zero)
        for g in gens:
            if g.ring != ring:
                raise RingMismatch("generator from another ring")
            if not g.is_homogeneous:
                raise NotHomogeneous(f"generator {g} is not homogeneous")
        self.gens = gens
        self._gb = None
        self._codim = None
        self._hilbert = None
        self._quotient = None
        self.ci_degrees = None

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
        return all(self.contains(g) for g in other.gens_or_gb())

    def gens_or_gb(self):
        return list(self.gens) if self.gens else list(self.gb)

    def lt_exps(self):
        """Leading-term monomial exponents of the reduced basis."""
        return [tuple(int(x) for x in g.exps[0, 1:]) for g in self.gb]

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
        return Ideal(self.ring, self.gens_or_gb() + other.gens_or_gb())

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return Ideal(self.ring, [g * other for g in self.gens_or_gb()])
        self._chk(other)
        return Ideal(
            self.ring,
            [f * g for f in self.gens_or_gb() for g in other.gens_or_gb()],
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
        """(self : f) for a single polynomial f."""
        if f.is_zero:
            raise DivisionByZero("colon by zero")
        return _colon_of_parts(self.ring, [(self, f)])

    def colon(self, other):
        """(self : other) = intersection of (self : g) over generators g,
        taken in one n-ary `intersect`."""
        if isinstance(other, Polynomial):
            return self.colon_poly(other)
        self._chk(other)
        if not other.gens:
            raise DivisionByZero("colon by the zero ideal")
        parts = [self.colon_poly(g) for g in other.gens]
        return parts[0].intersect(*parts[1:])

    def saturate(self, by=None):
        """Saturation self : by^infinity (by=None means the irrelevant ideal)."""
        if by is None:
            by = Ideal(self.ring, self.ring.gens())
        cur = self
        while (nxt := cur.colon(by)).gb != cur.gb:
            cur = nxt
        return cur

    @property
    def is_saturated(self):
        return self.saturate().gb == self.gb

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

        gens = [fwd(g) for g in self.gens_or_gb()]
        gb = buchberger(gens)
        out = []
        for g in gb:
            if (g.exps[:, 1 : 1 + len(kill)] == 0).all():
                out.append(
                    self.ring.poly(
                        {tuple(e[inv[i]] for i in range(n)): c for _, e, c in g.terms()}
                    )
                )
        return Ideal(self.ring, out)

    # -- invariants ------------------------------------------------------
    def codimension(self):
        """n+1 - dim(R/I), read off the leading-term ideal."""
        if self.is_unit:
            raise UnitIdeal("codimension of the unit ideal")
        if self._codim is None:
            n = self.ring.nvars
            lts = self.lt_exps()
            supports = [frozenset(i for i, a in enumerate(e) if a) for e in lts]
            dim = 0
            for size in range(n, -1, -1):
                found = False
                for S in combinations(range(n), size):
                    sset = set(S)
                    if all(not s <= sset for s in supports):
                        found = True
                        break
                if found:
                    dim = size
                    break
            self._codim = n - dim
        return self._codim

    def hilbert(self):
        from .hilbert import hilbert_data

        if self._hilbert is None:
            self._hilbert = hilbert_data(self)
        return self._hilbert

    def is_monomial(self):
        return all(len(g) == 1 for g in self.gb)


def _colon_of_parts(ring, parts):
    """The intersection of the colon ideals I_k : f_k over (I_k, f_k) in
    parts: the annihilator of v = sum f_k e_k modulo the relations g e_k,
    g in I_k, with e_k twisted by -deg f_k so that v has degree 0."""
    F = FreeModule(ring, tuple(-f.degree for _, f in parts), kind="pot")
    v = sum((F.inject(f, k) for k, (_, f) in enumerate(parts)), F.zero())
    relations = [F.inject(g, k) for k, (I, _) in enumerate(parts) for g in I.gens_or_gb()]
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
                if f.ring != ring:
                    raise RingMismatch("entry from another ring")
                if not f.is_homogeneous:
                    raise DegenerateMatrix(f"non-homogeneous entry {f}")
        self.row_degs, self.col_degs = self._degree_data()

    def _degree_data(self):
        """Solve deg A[i][j] = c_j - r_i by propagation; error if inconsistent."""
        nr, nc = self.nrows, self.ncols
        r = [None] * nr
        c = [None] * nc
        if nr == 0:
            return [], []
        r[0] = 0
        changed = True
        while changed:
            changed = False
            for i in range(nr):
                for j in range(nc):
                    f = self.rows[i][j]
                    if f.is_zero:
                        continue
                    d = f.degree
                    if r[i] is not None and c[j] is None:
                        c[j] = r[i] + d
                        changed = True
                    elif c[j] is not None and r[i] is None:
                        r[i] = c[j] - d
                        changed = True
                    elif r[i] is not None and c[j] is not None:
                        if c[j] - r[i] != d:
                            raise DegenerateMatrix("degree matrix violated")
        # disconnected rows/cols get arbitrary consistent values
        for i in range(nr):
            if r[i] is None:
                r[i] = 0
        for j in range(nc):
            if c[j] is None:
                c[j] = max((self.rows[i][j].degree + r[i]) for i in range(nr) if not self.rows[i][j].is_zero) if any(not self.rows[i][j].is_zero for i in range(nr)) else 0
        return r, c

    def transpose(self):
        return PolyMatrix(self.ring, [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)])

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
