"""Exact arithmetic foundation: GF(p), monomial orders, graded polynomials
and elements of graded free modules.

Everything is immutable after construction.  Term data lives in numpy int64
arrays (see _kernels); monomial-order keys are additive, so multiplying by a
monomial is a key shift that preserves sortedness.
"""

from itertools import combinations_with_replacement

import numpy as np

from . import _kernels as K
from .errors import DegreeOverflow, DivisionByZero, PrimeCheckFailed, RingMismatch, ZeroPolynomial

_I64 = np.int64

# Coefficient products of two residues must fit in int64.
MAX_PRIME = 2**31

# The degree bound of the int64 term arrays (see _kernels).
MAX_DEGREE = K.MAX_DEGREE


def check_degree(degree):
    """Raise DegreeOverflow for a total degree past MAX_DEGREE."""
    if degree > MAX_DEGREE:
        raise DegreeOverflow(f"total degree {degree} exceeds the bound 2^62 - 1 of the int64 term arrays")


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
    """Monomial order encoded as an additive integer key.

    Rows of the key matrix compare lexicographically; larger key = larger
    monomial.  kinds: 'degrevlex', 'lex', 'block(k)' (first k variables form
    an elimination block, degrevlex inside each block).
    """

    __slots__ = ("kind", "block")

    def __init__(self, kind, block=0):
        if kind not in ("degrevlex", "lex", "block"):
            raise ValueError(f"unknown order {kind!r}")
        self.kind = kind
        self.block = int(block)

    def keylen(self, nv):
        if self.kind == "degrevlex":
            return nv + 1
        if self.kind == "lex":
            return nv
        return nv + 2

    def keys(self, exps):
        """exps: int64[m, nv] -> int64[m, keylen]."""
        exps = np.asarray(exps, dtype=_I64)
        if exps.ndim == 1:
            exps = exps[None, :]
        if self.kind == "degrevlex":
            return np.concatenate(
                [exps.sum(axis=1, keepdims=True), -exps[:, ::-1]], axis=1
            )
        if self.kind == "lex":
            return exps.copy()
        k = self.block
        return np.concatenate(
            [
                exps[:, :k].sum(axis=1, keepdims=True),
                -exps[:, k - 1 :: -1] if k else exps[:, :0],
                exps[:, k:].sum(axis=1, keepdims=True),
                -exps[:, : k - 1 : -1],
            ],
            axis=1,
        )

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

    __slots__ = ("nvars", "field", "order", "names", "_mod")

    def __init__(self, nvars, p=32003, order=None, names=None):
        self.nvars = int(nvars)
        self.field = PrimeField(p)
        self.order = order or DEGREVLEX
        self.names = tuple(names) if names else tuple(f"x{i}" for i in range(nvars))
        if len(self.names) != self.nvars:
            raise ValueError("wrong number of variable names")
        self._mod = None

    @property
    def p(self):
        return self.field.p

    @property
    def as_module(self):
        if self._mod is None:
            self._mod = FreeModule(self, (0,), kind="ring")
        return self._mod

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
        rows = [((0,) + tuple(e), c) for e, c in terms]
        return Polynomial(self.as_module, _tuples_to_arrays(self.as_module, rows))

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

    The module order is an additive key whose ring part sits in columns
    `ring_cols`.  kinds:
      ring      rank 1, plain ring order
      pot       position-over-term (e_0 > e_1 > ...), ring order inside:
                the key is -position followed by the ring key
    """

    __slots__ = ("ring", "twists", "kind", "keylen", "ring_cols")

    def __init__(self, ring, twists, kind="pot"):
        self.ring = ring
        self.twists = tuple(int(t) for t in twists)
        self.kind = kind
        rk = ring.order.keylen(ring.nvars)
        if kind == "ring":
            if len(self.twists) != 1:
                raise ValueError("ring module has rank 1")
            self.ring_cols = slice(0, rk)
        elif kind == "pot":
            self.ring_cols = slice(1, rk + 1)
        else:
            raise ValueError(kind)
        self.keylen = self.ring_cols.stop

    @property
    def rank(self):
        return len(self.twists)

    def key_rows(self, exps):
        """exps int64[m, 1+nv] (column 0 = position) -> key matrix."""
        exps = np.asarray(exps, dtype=_I64)
        keys = np.zeros((len(exps), self.keylen), dtype=_I64)
        keys[:, self.ring_cols] = self.ring.order.keys(exps[:, 1:])
        if self.kind == "pot":
            keys[:, 0] = -exps[:, 0]
        return keys

    def element(self, terms):
        """terms: {(pos, exps tuple): coeff} or iterable of ((pos,)+exps, c)."""
        if isinstance(terms, dict):
            rows = [((pos,) + tuple(e), c) for (pos, e), c in terms.items()]
        else:
            rows = [(tuple(t), c) for t, c in terms]
        return Element(self, _tuples_to_arrays(self, rows))

    def zero(self):
        return self.element({})

    def gen(self, i):
        return self.element({(i, (0,) * self.ring.nvars): 1})

    def inject(self, f, pos):
        """Place ring polynomial f at position pos of this POT module."""
        return self.rehome(f, (pos,))

    def component(self, v, pos):
        """Ring polynomial sitting at position pos of v."""
        mask = v.exps[:, 0] == pos
        exps = v.exps[mask].copy()
        exps[:, 0] = 0
        rm = self.ring.as_module
        keys = rm.key_rows(exps)
        order = np.lexsort(keys.T[::-1])[::-1]
        return Polynomial(rm, (keys[order], exps[order], v.coeffs[mask][order].copy()))

    def dual(self):
        """F^* = Hom(F, R): the POT module with negated twists."""
        return FreeModule(self.ring, tuple(-t for t in self.twists), kind="pot")

    def rehome(self, v, positions=None):
        """The element v of a POT module (or a ring polynomial), moved into
        this POT module.

        Source position j goes to positions[j] (to j when positions is
        None).  A POT key is the ring key with -position in front and
        twists do not enter it, so a strictly increasing map keeps the term
        order: only the positions change and nothing is re-sorted.
        """
        if self.kind != "pot" or v.ring != self.ring:
            raise RingMismatch("rehome needs a POT target over the same ring")
        exps = v.exps.copy()
        if positions is not None:
            positions = np.asarray(positions, dtype=_I64)
            if len(positions) != v.module.rank or (np.diff(positions) <= 0).any():
                raise ValueError("positions must map every source position, strictly increasing")
            exps[:, 0] = positions[v.exps[:, 0]]
        if len(exps) and (exps[-1, 0] >= self.rank or exps[0, 0] < 0):
            raise ValueError("rehome: a term lands outside the target module")
        keys = np.concatenate([-exps[:, :1], v.keys[:, v.module.ring_cols]], axis=1)
        return Element(self, (keys, exps, v.coeffs.copy()))

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
        col = np.concatenate([np.full(len(v), c, dtype=_I64) for c, v in enumerate(columns)])
        keys = np.concatenate([v.keys for v in columns])
        exps = np.concatenate([v.exps for v in columns])
        coeffs = np.concatenate([v.coeffs for v in columns])
        out = []
        for r in range(G.rank):
            mask = exps[:, 0] == r
            k, e = keys[mask], exps[mask]
            k[:, 0] = -col[mask]
            e[:, 0] = col[mask]
            out.append(Element(dual, (k, e, coeffs[mask])))
        return dual, out

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


def _tuples_to_arrays(module, rows):
    nv = module.ring.nvars
    if not rows:
        return K.empty_terms(1 + nv, module.keylen)
    for t, _ in rows:
        if min(t[1:], default=0) < 0:
            raise DegreeOverflow(f"negative exponent in {tuple(t[1:])}")
        check_degree(sum(t[1:]))
    exps = np.array([t for t, _ in rows], dtype=_I64).reshape(len(rows), 1 + nv)
    coeffs = np.array([c % module.ring.p for _, c in rows], dtype=_I64)
    keys = module.key_rows(exps)
    return K.canonicalize(keys, exps, coeffs, module.ring.p)


class Element:
    """Element of a graded free module (immutable term arrays)."""

    __slots__ = ("module", "keys", "exps", "coeffs")

    def __init__(self, module, arrays):
        self.module = module
        self.keys, self.exps, self.coeffs = arrays

    # -- basic queries -------------------------------------------------
    @property
    def ring(self):
        return self.module.ring

    @property
    def is_zero(self):
        return len(self.coeffs) == 0

    def __len__(self):
        return len(self.coeffs)

    def terms(self):
        for i in range(len(self.coeffs)):
            yield (
                int(self.exps[i, 0]),
                tuple(int(x) for x in self.exps[i, 1:]),
                int(self.coeffs[i]),
            )

    def coordinates(self, index):
        """Dense int64 coefficient vector in the columns of index, a
        {(pos, exps): column} map that names every term of the element;
        ring elements sit at pos 0."""
        v = np.zeros(len(index), dtype=_I64)
        v[[index[pos, e] for pos, e, _ in self.terms()]] = self.coeffs
        return v

    def lt(self):
        if self.is_zero:
            raise ZeroPolynomial("leading term of 0")
        return (
            int(self.exps[0, 0]),
            tuple(int(x) for x in self.exps[0, 1:]),
            int(self.coeffs[0]),
        )

    def lc(self):
        return self.lt()[2]

    def term_degree(self, i):
        return int(self.exps[i, 1:].sum()) + self.module.twists[int(self.exps[i, 0])]

    @property
    def degree(self):
        """Degree of the leading term (= total degree when homogeneous)."""
        if self.is_zero:
            raise ZeroPolynomial("degree of 0")
        return self.term_degree(0)

    @property
    def is_homogeneous(self):
        if self.is_zero:
            return True
        degs = self.exps[:, 1:].sum(axis=1) + np.array(self.module.twists, dtype=_I64)[
            self.exps[:, 0]
        ]
        return bool((degs == degs[0]).all())

    # -- arithmetic ----------------------------------------------------
    def _chk(self, other):
        if self.module != other.module:
            raise RingMismatch("elements of different modules/rings")

    def __add__(self, other):
        self._chk(other)
        return self._wrap(
            K.canonicalize(
                np.concatenate([self.keys, other.keys]),
                np.concatenate([self.exps, other.exps]),
                np.concatenate([self.coeffs, other.coeffs]),
                self.ring.p,
            )
        )

    def __sub__(self, other):
        self._chk(other)
        return self._wrap(
            K.merge_sub(
                self.keys, self.exps, self.coeffs, other.keys, other.exps, other.coeffs,
                self.ring.p,
            )
        )

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = int(c) % self.ring.p
        if c == 0:
            return self._wrap(K.empty_terms(self.exps.shape[1], self.keys.shape[1]))
        return self._wrap((self.keys.copy(), self.exps.copy(), (self.coeffs * c) % self.ring.p))

    def monic(self):
        if self.is_zero:
            return self
        return self.scale(self.ring.field.inv(self.lc()))

    def _top_degree(self):
        """Largest total degree of a term, twists left out (0 for zero)."""
        return int(self.exps[:, 1:].sum(axis=1).max()) if len(self.coeffs) else 0

    def mono_mul(self, exps, c=1):
        """Multiply by c * monomial; keys shift additively, no re-sort."""
        c = int(c) % self.ring.p
        if c == 0 or self.is_zero:
            return self._wrap(K.empty_terms(self.exps.shape[1], self.keys.shape[1]))
        check_degree(self._top_degree() + sum(int(x) for x in exps))
        e = np.zeros((1, self.exps.shape[1]), dtype=_I64)
        e[0, 1:] = exps
        dk = np.zeros((1, self.module.keylen), dtype=_I64)
        dk[:, self.module.ring_cols] = self.ring.order.keys(e[:, 1:])
        return self._wrap(
            (self.keys + dk, self.exps + e, (self.coeffs * c) % self.ring.p)
        )

    def poly_mul(self, f):
        """Multiply by a ring polynomial."""
        if f.ring != self.ring:
            raise RingMismatch("polynomial from another ring")
        if f.is_zero or self.is_zero:
            return self._wrap(K.empty_terms(self.exps.shape[1], self.keys.shape[1]))
        check_degree(self._top_degree() + f._top_degree())
        m, n = len(self.coeffs), len(f.coeffs)
        de = f.exps[:, 1:]
        exps = np.repeat(self.exps, n, axis=0)
        exps[:, 1:] += np.tile(de, (m, 1))
        coeffs = (np.repeat(self.coeffs, n) * np.tile(f.coeffs, m)) % self.ring.p
        keys = self.module.key_rows(exps)
        return self._wrap(K.canonicalize(keys, exps, coeffs, self.ring.p))

    def _wrap(self, arrays):
        cls = type(self)
        return cls(self.module, arrays)

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.module == other.module
            and np.array_equal(self.exps, other.exps)
            and np.array_equal(self.coeffs, other.coeffs)
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
    """Ring element: module is ring.as_module, position column is 0."""

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
        return tuple(int(x) for x in self.exps[0, 1:])

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
