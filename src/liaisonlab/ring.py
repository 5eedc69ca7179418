"""Exact arithmetic foundation: GF(p), monomial orders, graded polynomials
and elements of graded free modules.

Everything is immutable after construction.  An element holds its terms as
packed ints in ascending order, largest term first, with a parallel list of
coefficients (see _kernels).  Monomial-order keys are linear in the
exponents and so is packing, so every term operation is int arithmetic on
the module's packing basis: multiplying by a monomial adds its packed
shift, moving a term to another position adds a multiple of the position's
shift, and neither re-sorts.
"""

from itertools import combinations_with_replacement, groupby
from operator import index, lt

import numpy as np

from . import _kernels as K
from .errors import DegreeOverflow, DivisionByZero, PrimeCheckFailed, RingMismatch, ZeroPolynomial

# Coefficient products of two residues must fit in int64 (dense matrices).
MAX_PRIME = 2**31

# The degree bound of the 64-bit term fields (see _kernels).
MAX_DEGREE = K.MAX_DEGREE


def check_degree(degree):
    """Raise DegreeOverflow for a total degree past MAX_DEGREE."""
    if degree > MAX_DEGREE:
        raise DegreeOverflow(f"total degree {degree} exceeds the bound 2^62 - 1 of the 64-bit term fields")


def is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    """GF(p) for a prime p < 2^31; elements are ints in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p):
        if p >= MAX_PRIME:
            raise PrimeCheckFailed(f"{p} is not below 2^31: int64 coefficient products would overflow")
        if not is_prime(p):
            raise PrimeCheckFailed(f"{p} is not prime")
        self.p = int(p)

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise DivisionByZero("inverse of 0 in GF(p)")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __repr__(self):
        return f"GF({self.p})"


class Order:
    """Monomial order given by an integer key that is linear in the
    exponents.

    Keys compare lexicographically; larger key = larger monomial.  kinds:
    'degrevlex', 'lex', 'block(k)' (first k variables form an elimination
    block, degrevlex inside each block).
    """

    __slots__ = ("kind", "block")

    def __init__(self, kind, block=0):
        if kind not in ("degrevlex", "lex", "block"):
            raise ValueError(f"unknown order {kind!r}")
        self.kind = kind
        self.block = int(block)

    def key(self, e):
        """The key tuple of the exponent vector e."""
        if self.kind == "degrevlex":
            return (sum(e), *(-x for x in reversed(e)))
        if self.kind == "lex":
            return tuple(e)
        head, tail = e[: self.block], e[self.block :]
        return (sum(head), *(-x for x in reversed(head)), sum(tail), *(-x for x in reversed(tail)))

    def __eq__(self, other):
        return (
            isinstance(other, Order)
            and other.kind == self.kind
            and other.block == self.block
        )

    def __repr__(self):
        if self.kind == "block":
            return f"block({self.block})"
        return self.kind


DEGREVLEX = Order("degrevlex")
LEX = Order("lex")


class Ring:
    """K[x_0..x_{nvars-1}] over GF(p) with a fixed monomial order."""

    __slots__ = ("nvars", "field", "order", "names", "_mod", "_packings")

    def __init__(self, nvars, p=32003, order=None, names=None):
        self.nvars = int(nvars)
        self.field = PrimeField(p)
        self.order = order or DEGREVLEX
        self.names = tuple(names) if names else tuple(f"x{i}" for i in range(nvars))
        if len(self.names) != self.nvars:
            raise ValueError("wrong number of variable names")
        self._mod = None
        self._packings = {}

    @property
    def p(self):
        return self.field.p

    @property
    def as_module(self):
        if self._mod is None:
            self._mod = FreeModule(self, (0,), kind="ring")
        return self._mod

    def _packing(self, kind):
        """The term encoding of this ring's modules of a kind, built once.
        A POT key is -position followed by the ring key."""
        if kind not in self._packings:
            nv = self.nvars
            # the ring keys of the position (no variable), then of x_0, x_1, ...
            keys = [self.order.key([int(v == c) for v in range(nv)]) for c in range(-1, nv)]
            if kind == "pot":
                keys = [(-1, *keys[0])] + [(0, *k) for k in keys[1:]]
            self._packings[kind] = K.Packing(keys)
        return self._packings[kind]

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and other.nvars == self.nvars
            and other.field == self.field
            and other.order == self.order
        )

    def __hash__(self):
        return hash((self.nvars, self.p, self.order.kind, self.order.block))

    def __repr__(self):
        return f"GF({self.p})[{','.join(self.names)}]/{self.order!r}"

    # -- constructors -------------------------------------------------
    def poly(self, terms):
        """terms: {exps tuple: coeff} or iterable of (exps, coeff)."""
        if isinstance(terms, dict):
            terms = terms.items()
        module = self.as_module
        return Polynomial(module, *module._canonical((0, e, c) for e, c in terms))

    def zero(self):
        return self.poly({})

    def one(self):
        return self.constant(1)

    def constant(self, c):
        return self.poly({(0,) * self.nvars: c})

    def var(self, i):
        e = [0] * self.nvars
        e[i] = 1
        return self.poly({tuple(e): 1})

    def monomial(self, exps, c=1):
        return self.poly({tuple(exps): c})

    def gens(self):
        return [self.var(i) for i in range(self.nvars)]

    def monomials(self, d):
        """Exponent tuples of the degree-d monomials (none when d < 0)."""
        if d < 0:
            return []
        out = []
        for combo in combinations_with_replacement(range(self.nvars), d):
            e = [0] * self.nvars
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
        return out

    def random_poly(self, degree, rng):
        """Dense-ish random homogeneous polynomial of the given degree."""
        terms = {}
        for m in self.monomials(degree):
            c = int(rng.integers(0, self.p))
            if c:
                terms[m] = c
        return self.poly(terms)


class FreeModule:
    """Graded free module over a Ring: direct sum of R(-a_i).

    kinds:
      ring      rank 1, plain ring order
      pot       position-over-term (e_0 > e_1 > ...), ring order inside:
                the key is -position followed by the ring key
    Twists do not enter the order, so every module of a kind over a ring
    shares one packing basis.
    """

    __slots__ = ("ring", "twists", "kind", "packing")

    def __init__(self, ring, twists, kind="pot"):
        self.ring = ring
        self.twists = tuple(int(t) for t in twists)
        if kind not in ("ring", "pot"):
            raise ValueError(kind)
        if kind == "ring" and len(self.twists) != 1:
            raise ValueError("ring module has rank 1")
        self.kind = kind
        self.packing = ring._packing(kind)

    @property
    def rank(self):
        return len(self.twists)

    def _canonical(self, terms):
        """Canonical term lists of (position, exps, coeff) triples; every
        term is checked as it is packed."""
        pack, rank, p = self.packing.pack, self.rank, self.ring.p
        packed, coeffs = [], []
        for pos, e, c in terms:
            packed.append(pack(rank, pos, e))
            coeffs.append(index(c) % p)
        return K.canonicalize(packed, coeffs, p)

    def element(self, terms):
        """terms: {(pos, exps tuple): coeff} or iterable of ((pos,)+exps, c)."""
        if isinstance(terms, dict):
            terms = ((pos, e, c) for (pos, e), c in terms.items())
        else:
            terms = ((t[0], t[1:], c) for t, c in terms)
        return Element(self, *self._canonical(terms))

    def zero(self):
        return Element(self, [], [])

    def gen(self, i):
        return self.element({(i, (0,) * self.ring.nvars): 1})

    def inject(self, f, pos):
        """Place ring polynomial f at position pos of this POT module."""
        return self.rehome(f, (pos,))

    def component(self, v, pos):
        """Ring polynomial sitting at position pos of v: its terms there, each
        moved to position 0 of the ring module by one subtract."""
        P, rm = self.packing, self.ring.as_module
        at, d = P.position, P.zero - rm.packing.zero + pos * P.units[0]
        terms = [(h - d, c) for h, c in zip(v.packed, v.coeffs) if at(h) == pos]
        return Polynomial(rm, [h for h, _ in terms], [c for _, c in terms])

    def dual(self):
        """F^* = Hom(F, R): the POT module with negated twists."""
        return FreeModule(self.ring, tuple(-t for t in self.twists), kind="pot")

    def rehome(self, v, positions=None):
        """The element v of a POT module (or a ring polynomial), moved into
        this POT module.

        Source position j goes to positions[j] (to j when positions is
        None).  A POT key is the ring key with -position in front and
        twists do not enter it, so a strictly increasing map keeps the term
        order: each term moves by one int add and nothing is re-sorted.
        """
        if self.kind != "pot" or v.ring != self.ring:
            raise RingMismatch("rehome needs a POT target over the same ring")
        src = v.module
        same = positions is None and src.kind == self.kind
        if positions is None:
            positions = range(src.rank)
        elif len(positions) != src.rank or not all(map(lt, positions, positions[1:])):
            raise ValueError("positions must map every source position, strictly increasing")
        if v.is_zero:
            return self.zero()
        P, Q = self.packing, src.packing
        if positions[Q.position(v.packed[0])] < 0 or positions[Q.position(v.packed[-1])] >= self.rank:
            raise ValueError("rehome: a term lands outside the target module")
        if same:
            packed = v.packed  # the same terms
        else:
            # terms sit in runs by position, and each run moves by one shift
            packed = []
            for j, run in groupby(v.packed, Q.position):
                d = P.zero - Q.zero + positions[j] * P.units[0] - j * Q.units[0]
                packed += [h + d for h in run]
        return Element(self, packed, v.coeffs)

    def transpose(self, columns):
        """Transpose of d : F -> G (F this module) given by the columns
        d(e_c) in a POT module G.  Returns (F^*, columns of d^T : G^* -> F^*),
        one column per generator of G.

        Row r of d, read in column order, is already in POT order in F^*:
        the column index becomes the position and each column holds its
        row-r terms in ring order.
        """
        G = columns[0].module
        if G.kind != "pot" or len(columns) != self.rank:
            raise ValueError("transpose needs one column per generator, in a POT module")
        dual = self.dual()
        at, s = G.packing.position, G.packing.units[0]
        packed = [[] for _ in range(G.rank)]
        coeffs = [[] for _ in range(G.rank)]
        for c, v in enumerate(columns):
            for h, x in zip(v.packed, v.coeffs):
                r = at(h)
                packed[r].append(h + (c - r) * s)
                coeffs[r].append(x)
        return dual, [Element(dual, a, b) for a, b in zip(packed, coeffs)]

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, FreeModule)
            and other.ring == self.ring
            and other.twists == self.twists
            and other.kind == self.kind
        )

    def __repr__(self):
        return f"Free({self.ring!r}, twists={self.twists}, {self.kind})"


class Element:
    """Element of a graded free module: its terms as packed ints in
    ascending order (largest term first) and their coefficients in [1, p),
    two parallel lists that are never changed after construction."""

    __slots__ = ("module", "packed", "coeffs")

    def __init__(self, module, packed, coeffs):
        self.module = module
        self.packed = packed
        self.coeffs = coeffs

    # -- basic queries -------------------------------------------------
    @property
    def ring(self):
        return self.module.ring

    @property
    def is_zero(self):
        return not self.coeffs

    def __len__(self):
        return len(self.coeffs)

    def terms(self):
        decode = self.module.packing.decode
        for h, c in zip(self.packed, self.coeffs):
            yield (*decode(h), c)

    def coordinates(self, index):
        """Dense int64 coefficient vector in the columns of index, a
        {(pos, exps): column} map that names every term of the element;
        ring elements sit at pos 0."""
        v = np.zeros(len(index), dtype=np.int64)
        v[[index[pos, e] for pos, e, _ in self.terms()]] = self.coeffs
        return v

    def lt(self):
        if self.is_zero:
            raise ZeroPolynomial("leading term of 0")
        return (*self.module.packing.decode(self.packed[0]), self.coeffs[0])

    def lc(self):
        return self.lt()[2]

    @property
    def degree(self):
        """Degree of the leading term (= total degree when homogeneous)."""
        if self.is_zero:
            raise ZeroPolynomial("degree of 0")
        P, h = self.module.packing, self.packed[0]
        return P.degree(h) + self.module.twists[P.position(h)]

    @property
    def is_homogeneous(self):
        P, twists = self.module.packing, self.module.twists
        return len({P.degree(h) + twists[P.position(h)] for h in self.packed}) <= 1

    # -- arithmetic ----------------------------------------------------
    def _chk(self, other):
        if self.module != other.module:
            raise RingMismatch("elements of different modules/rings")

    def __add__(self, other):
        self._chk(other)
        return self._wrap(*K.canonicalize(self.packed + other.packed, self.coeffs + other.coeffs, self.ring.p))

    def __sub__(self, other):
        self._chk(other)
        return self._wrap(*K.merge_sub(self.packed, self.coeffs, other.packed, other.coeffs, self.ring.p))

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        p = self.ring.p
        c = int(c) % p
        if c == 0:
            return self._wrap([], [])
        return self._wrap(self.packed, [x * c % p for x in self.coeffs])

    def monic(self):
        if self.is_zero:
            return self
        return self.scale(self.ring.field.inv(self.lc()))

    def _top_degree(self):
        """Largest total degree of a term, twists left out (0 for zero)."""
        return max(map(self.module.packing.degree, self.packed), default=0)

    def mono_mul(self, exps, c=1):
        """Multiply by c * monomial: one int add per term, no re-sort."""
        P = self.ring.as_module.packing
        m = P.pack(1, 0, exps)
        p = self.ring.p
        c = int(c) % p
        if c == 0 or self.is_zero:
            return self._wrap([], [])
        check_degree(self._top_degree() + P.degree(m))
        d = m - P.zero
        return self._wrap([h + d for h in self.packed], [x * c % p for x in self.coeffs])

    def poly_mul(self, f):
        """Multiply by a ring polynomial: every product of two terms is one
        int add, then one canonicalize sorts and combines them."""
        if f.ring != self.ring:
            raise RingMismatch("polynomial from another ring")
        if f.is_zero or self.is_zero:
            return self._wrap([], [])
        check_degree(self._top_degree() + f._top_degree())
        z = f.module.packing.zero
        shifts = [g - z for g in f.packed]
        packed = [h + d for h in self.packed for d in shifts]
        coeffs = [a * b for a in self.coeffs for b in f.coeffs]
        return self._wrap(*K.canonicalize(packed, coeffs, self.ring.p))

    def _wrap(self, packed, coeffs):
        return type(self)(self.module, packed, coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.module == other.module
            and self.packed == other.packed
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        if self.is_zero:
            return "0"
        bits = []
        for pos, e, c in self.terms():
            s = _term_str(self.ring, e, c)
            bits.append(f"{s}*e{pos}" if self.module.kind != "ring" else s)
        return "+".join(bits)


class Polynomial(Element):
    """Ring element: module is ring.as_module, position 0."""

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return self.poly_mul(other)
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k):
        k = int(k)
        check_degree(self._top_degree() * k)
        r = self.ring.one()
        b = self
        while k > 0:
            if k & 1:
                r = r * b
            k >>= 1
            if k:
                b = b * b
        return r

    @property
    def is_monomial(self):
        return len(self.coeffs) == 1

    def exps_tuple(self):
        if not self.is_monomial:
            raise ValueError("not a monomial")
        return self.lt()[1]

    def __repr__(self):
        if self.is_zero:
            return "0"
        return "+".join(_term_str(self.ring, e, c) for _, e, c in self.terms())


def _term_str(ring, e, c):
    parts = []
    for i, a in enumerate(e):
        if a == 1:
            parts.append(ring.names[i])
        elif a > 1:
            parts.append(f"{ring.names[i]}^{a}")
    if not parts:
        return str(c)
    body = "*".join(parts)
    return body if c == 1 else f"{c}*{body}"
