"""Construction and recognition of arithmetically Gorenstein ideals:
complete intersections, sums of geometrically linked ideals, the
almost-complete-intersection link, point configurations with
Cayley-Bacharach / uniform position checks, and Weak Lefschetz tests.
"""

import math
from itertools import combinations

import numpy as np

from . import _kernels as K
from .errors import (
    CharacteristicTooSmall,
    DuplicatePoint,
    NotACI,
    NotArtinian,
    NotGeometricallyLinked,
    NotRegularSequence,
    PreconditionFailed,
    WrongCodim,
)
from .groebner import normal_form
from .ideals import Ideal
from .resolution import classify

_I64 = np.int64


def complete_intersection(forms):
    """Validate a regular sequence (codim = length) and return the ideal."""
    if not forms:
        raise NotRegularSequence("empty form list")
    ring = forms[0].ring
    I = Ideal(ring, forms)
    if I.is_unit or I.codimension() != len(forms):
        raise NotRegularSequence(
            f"codimension {None if I.is_unit else I.codimension()} != {len(forms)} forms"
        )
    I.ci_degrees = tuple(sorted(f.degree for f in forms))
    return I


def sum_of_linked(I1, I2, X):
    """Sum of geometrically linked CM ideals: Gorenstein of codimension c+1."""
    if I1.intersect(I2) != X:
        raise NotGeometricallyLinked("I1 and I2 do not intersect exactly in X")
    cX = classify(X)
    if not cX["gorenstein"]:
        raise NotGeometricallyLinked("the linking ideal is not Gorenstein")
    c = X.codimension()
    for I in (I1, I2):
        if I.codimension() != c:
            raise WrongCodim("summand has wrong codimension")
        if not classify(I)["cm"]:
            raise NotGeometricallyLinked("summand is not Cohen-Macaulay")
    total = I1 + I2
    if total.codimension() != c + 1:
        raise WrongCodim("sum has unexpected codimension")
    cls = classify(total)
    if not cls["gorenstein"]:
        raise NotGeometricallyLinked("sum failed the Gorenstein classification")
    return total


def aci_gorenstein(c, I):
    """J = c : I for an almost complete intersection I = c + (f):
    a CI link away from an ACI always lands on a Gorenstein ideal."""
    from .liaison import direct_link

    cc = classify(c)
    cgens = sum(r for (i, j), r in cc["betti"].entries.items() if i == 0)
    if not cc["gorenstein"] or cgens != c.codimension():
        raise NotACI("the link ideal is not a complete intersection")
    cod = c.codimension()
    clsI = classify(I)
    if not clsI["cm"]:
        raise NotACI("I is not Cohen-Macaulay")
    ngens = sum(r for (i, j), r in clsI["betti"].entries.items() if i == 0)
    if ngens != cod + 1:
        raise NotACI(f"I needs exactly codim+1 = {cod + 1} minimal generators, has {ngens}")
    if I.codimension() != cod:
        raise NotACI("codimension mismatch")
    if not any((c + Ideal(I.ring, [f])) == I for f in I.gens_or_gb()):
        raise NotACI("I is not c plus one extra generator")
    rec = direct_link(c, I)
    J = rec.J
    if not classify(J)["gorenstein"]:
        raise NotACI("the residual failed the Gorenstein classification")
    return J


class PointSet:
    """Reduced points in P^n over GF(p), pairwise distinct up to scalar."""

    __slots__ = ("ring", "coords", "_ideal", "_values", "_pivots")

    def __init__(self, ring, coords):
        self.ring = ring
        self.coords = []
        seen = set()
        for pt in coords:
            pt = tuple(int(a) % ring.p for a in pt)
            if len(pt) != ring.nvars or all(a == 0 for a in pt):
                raise DuplicatePoint(f"invalid point {pt}")
            key = _normalize_point(pt, ring.p)
            if key in seen:
                raise DuplicatePoint(f"repeated point {pt}")
            seen.add(key)
            self.coords.append(key)
        if not self.coords:
            raise PreconditionFailed("a point set needs at least one point")
        self._ideal = None
        self._values = {}
        self._pivots = {}

    def __len__(self):
        return len(self.coords)

    @classmethod
    def general(cls, ring, count, rng):
        """Seeded uniform points (distinct); generic for large p."""
        p, n = ring.p, ring.nvars
        total = (p**n - 1) // (p - 1)  # the points of P^(n-1) over GF(p)
        if count > total:
            raise CharacteristicTooSmall(f"P^{n - 1} over GF({p}) has {total} points, fewer than {count}")
        pts = []
        seen = set()
        while len(pts) < count:
            pt = tuple(int(rng.integers(0, ring.p)) for _ in range(ring.nvars))
            if all(a == 0 for a in pt):
                continue
            key = _normalize_point(pt, ring.p)
            if key in seen:
                continue
            seen.add(key)
            pts.append(key)
        return cls(ring, pts)

    def ideal(self):
        """The ideal of the points: the intersection of the point ideals,
        in one n-ary `Ideal.intersect` run."""
        if self._ideal is None:
            parts = [_point_ideal(self.ring, pt) for pt in self.coords]
            self._ideal = parts[0].intersect(*parts[1:])
        return self._ideal

    # -- Hilbert functions by evaluation rank --------------------------
    def _eval_matrix(self, t):
        """Values mod p of the degree-t monomials (columns, in
        `Ring.monomials` order) at the points (rows), built once per t."""
        if t not in self._values:
            p = self.ring.p
            pts = np.array(self.coords, dtype=_I64)
            # powers[i, v, e] = (coordinate v of point i)^e mod p, e = 0..t
            powers = np.ones(pts.shape + (t + 1,), dtype=_I64)
            for e in range(1, t + 1):
                powers[:, :, e] = powers[:, :, e - 1] * pts % p
            monos = np.array(self.ring.monomials(t), dtype=_I64)
            values = np.ones((len(pts), len(monos)), dtype=_I64)
            for v in range(self.ring.nvars):
                values = values * powers[:, v, monos[:, v]] % p
            self._values[t] = values
        return self._values[t]

    def _pivot_columns(self, t):
        """Mask of the pivot columns of the degree-t evaluation matrix: h(t)
        columns that span its column space, found once per t."""
        if t not in self._pivots:
            self._pivots[t] = K.pivots(self._eval_matrix(t)[None], self.ring.p)[0]
        return self._pivots[t]

    def hf(self, t, subset=None):
        """Hilbert function of the subset's coordinate ring at degree t."""
        if t < 0:
            return 0
        if subset is None:
            return int(self._pivot_columns(t).sum())
        values = self._eval_matrix(t)[list(subset)]
        return int(K.ranks(values[None], self.ring.p)[0])

    def h_vector(self):
        out = []
        t = 0
        prev = 0
        while True:
            cur = self.hf(t)
            out.append(cur - prev)
            if cur == len(self.coords):
                break
            prev = cur
            t += 1
        return tuple(out)

    def socle_degree(self):
        return len(self.h_vector()) - 1


def _normalize_point(pt, p):
    for a in pt:
        if a:
            inv = pow(a, p - 2, p)
            return tuple((x * inv) % p for x in pt)
    raise DuplicatePoint("zero point")


def _point_ideal(ring, pt):
    """The linear forms pt[k] x_i - pt[i] x_k (i != k), k the first nonzero
    coordinate."""
    k = next(i for i, a in enumerate(pt) if a)
    unit = [tuple(int(i == v) for i in range(ring.nvars)) for v in range(ring.nvars)]
    return Ideal(
        ring,
        [ring.poly({unit[i]: pt[k], unit[k]: -pt[i]}) for i in range(ring.nvars) if i != k],
    )


def cayley_bacharach_check(points, rng=None):
    """Cayley-Bacharach (CB) and uniform position (UPP) of a point set Z of
    socle degree s, as a dict report.

    Row i of the evaluation matrix M_t holds the values of the degree-t
    monomials at point i, so a subset Y of the points has h_Y(t) = rank of
    the rows Y of M_t.  Every column of M_t is a combination of its
    h_Z(t) pivot columns, and the same combination holds on every row
    subset, so those columns alone give every h_Y(t).  Each check is one
    `ranks` call on a stack of row subsets of M_t cut to its pivot
    columns, so the stack of all h_Z(t)-row subsets holds C(N, h) x h x h
    entries, h = h_Z(t), however many monomials degree t has.

    CB: dropping any one point keeps h_Z(s - 1); the stack is the N
    drop-one row subsets of M_(s-1).  A single point (s = 0) has CB, as
    h(-1) = 0 for every subset.  UPP: h_Y(t) = min(|Y|, h_Z(t)) for every
    subset Y and every t.  Subsets of independent points stay independent
    and no rank in degree t exceeds h_Z(t), so UPP holds exactly when every
    subset of size h = h_Z(t) has rank h, that is, when every h-row subset
    of M_t is independent; degrees t >= s, where h_Z(t) = |Z|, need no
    check.  Degree t is one stack of all its h-row subsets; a degree with
    more than 5000 of them is checked on 200 seeded random ones, and
    `upp_exhaustive` is then False (Geramita, Kreuzer & Robbiano, Trans.
    AMS 339, 1993)."""
    Z = points
    N = len(Z)
    p = Z.ring.p
    hz = np.cumsum(Z.h_vector())
    s = len(hz) - 1

    def basis(t):
        return Z._eval_matrix(t)[:, Z._pivot_columns(t)]

    cb = True
    if s > 0:
        drop_one = np.nonzero(~np.eye(N, dtype=bool))[1].reshape(N, N - 1)
        cb = bool((K.ranks(basis(s - 1)[drop_one], p) == hz[s - 1]).all())
    upp = True
    upp_exhaustive = True
    rng = rng or np.random.default_rng(0)
    for t in range(s):
        h = int(hz[t])
        if math.comb(N, h) <= 5000:
            subsets = list(combinations(range(N), h))
        else:
            upp_exhaustive = False
            subsets = [sorted(rng.choice(N, size=h, replace=False)) for _ in range(200)]
        if not (K.ranks(basis(t)[np.array(subsets)], p) == h).all():
            upp = False
            break
    return {"cb": cb, "upp": upp, "upp_exhaustive": upp_exhaustive, "socle_degree": s}


def dgo_verify(points, cb_report=None):
    """Arithmetically Gorenstein test for reduced points: symmetric h-vector
    plus the Cayley-Bacharach property."""
    hv = points.h_vector()
    rep = cb_report or cayley_bacharach_check(points)
    return tuple(hv) == tuple(reversed(hv)) and rep["cb"]


def wlp_check(I, rng=None):
    """Weak Lefschetz property of an Artinian quotient, for up to three
    seeded random linear forms; True when one of them gives maximal rank
    in every degree."""
    ring = I.ring
    if I.ring.nvars - I.codimension() != 0:
        raise NotArtinian("WLP needs an Artinian quotient")
    data = I.hilbert()
    hv = [data.hf(j) for j in range(0, len(data.h_vector) + 1)]
    lt = I.lt_exps()
    std = {}
    for t in range(len(hv) + 1):
        std[t] = [
            m
            for m in ring.monomials(t)
            if not any(all(g[i] <= m[i] for i in range(ring.nvars)) for g in lt)
        ]
    rng = rng or np.random.default_rng(0)
    for _ in range(3):
        L = ring.poly(
            {
                tuple(1 if i == k else 0 for i in range(ring.nvars)): int(
                    rng.integers(1, ring.p)
                )
                for k in range(ring.nvars)
            }
        )
        ok = True
        for t in range(len(hv) - 1):
            h0, h1 = hv[t], hv[t + 1] if t + 1 < len(hv) else 0
            if h0 == 0 or h1 == 0:
                continue
            index = {(0, m): i for i, m in enumerate(std[t + 1])}
            images = [normal_form(L.mono_mul(m), I.gb).coordinates(index) for m in std[t]]
            if K.ranks([images], ring.p)[0] != min(h0, h1):
                ok = False
                break
        if ok:
            return True
    return False
