"""Packed terms and the hot kernels on them: exact polynomial reduction over
GF(p), and the one dense GF(p) linear-algebra kernel.

A (module) polynomial is held as two parallel lists:

  packed  strictly ascending Python ints, one per term (`Packing.pack`)
  coeffs  ints in [1, p)

- A term is packed into one Python int: its negated key fields, then its
  exponent fields (position first), each biased by 2^63 into 64 bits, most
  significant first.  A biased field lies in [0, 2^64) exactly when the
  field fits in int64, so the int is a base-2^64 numeral and int order is
  the lexicographic order of the fields: the smallest int is the largest
  term, and ascending ints list the terms largest first (Monagan & Pearce,
  "Polynomial division using dynamic arrays, heaps, and packed exponent
  vectors", CASC 2007).  Equal keys imply equal exponents within a module,
  so the key fields alone decide the order and the identity of a term.
- Keys are linear in the position and the exponents, and so is packing: a
  term's int is the packed zero term plus the position times the position's
  shift plus each exponent times its variable's shift (`Packing.units`).
  Multiplying by a monomial, moving a term to another position and
  changing the module kind are int adds, and they keep the order, because
  module orders are multiplicative.
- That needs every field of every term met to fit in int64: every term has
  total degree <= MAX_DEGREE, which bounds its exponents and key fields by
  2^62 in absolute value.  `Packing.pack` checks every term it builds, and
  every product or reduction step that would take a term past MAX_DEGREE
  raises DegreeOverflow first.  The exponent fields are read back by
  masks: a term's total degree is its variable fields less their biases,
  reduced mod 2^64 - 1 (the sum of base-2^64 digits), exact because it is
  below 2^62.

The term-list kernels are named `canonicalize`, `merge_sub` and
`normal_form_arrays` because the benchmark's per-layer trace
(`perfbench/spans.py`) wraps them by those names, on these paths: element
construction, `+` and products call `canonicalize`, `-` calls
`merge_sub`, and `groebner.normal_form` calls `normal_form_arrays`.  A
later revision of the benchmark may rename them.

- `canonicalize` takes terms in any order, with repeated ints and any
  integer coefficients: it sums the coefficients per int in a dict, sorts
  the ints and drops the sums that vanish mod p.
- `merge_sub` (f - g) merges the two ascending lists in one Python loop,
  combining equal ints mod p and dropping zero sums.
- `reduce_packed` is full reduction against a `Reducers` table by
  heap-based division (Monagan & Pearce); `normal_form_arrays` runs it on
  a copy of f's terms.
  - Packing is linear, so a term times the monomial that takes a
    reducer's lead to its head h is h + delta, with delta the difference of
    the packed tail term and the packed lead (the biases cancel).
  - `Reducers` prepares each basis element once, when it is appended from
    its packed terms: its tail as packed shifts, its tail coefficients
    over its lead coefficient (negated mod p), its largest rise in degree
    (tail over lead), and its lead's exponent fields packed without the
    bias, listed under the lead's position.  Only an element with a
    positive rise costs one degree test per step.
  - `Reducers.s_pair` seeds the pending terms of the S-polynomial of two
    elements i and j from their tails alone.  L, the packed lcm of the two
    leads, is the lcm shift: a shift d = t - lead of i's tail gives L + d,
    the term t times lcm/lead, with no lead in sight.  The leads cancel,
    so the S-pair is the terms L + d over the shifts of i, with
    coefficients p - x_i, and over those of j, with coefficients x_j,
    summed where they meet (x the table's negated coefficients).  L itself
    packs exactly: each lead has degree <= MAX_DEGREE, so every field of
    the lcm fits in int64.  The S-pair's largest degree is deg(L) plus the
    larger rise of i and j; past MAX_DEGREE it raises DegreeOverflow
    before any term is formed.
  - The pending terms sit in a dict of coefficients under a `heapq`
    min-heap of their ints, so the largest term is popped first.  A
    reduction step adds the reducer's tail term by term, one int add, one
    dict lookup and one product mod p each; it costs O(reducer length *
    log n), not a pass over the remainder.  A coefficient that sums to 0
    keeps its dict entry, and a key keeps its one heap entry until popped:
    keys only fall, so a popped key never returns.  The remainder comes
    back packed, largest term first.
  - A term is reduced by the first element, by index, whose lead has its
    position and divides it.  Each popped head is tested against the
    leads at its position, in index order, by the packed divisibility
    test: a biased exponent field (2^63 + e) minus an unbiased one (l),
    both of them in [0, 2^62], stays in (0, 2^64) and so never borrows
    from the next field, and it keeps its top bit exactly when e >= l.

Every kernel runs the same code at every size: there is no size cutoff
and no second path.  `pivots` is the one GF(p) linear-algebra kernel: the
pivot columns of every matrix in an (S, r, c) stack, by fraction-free
Gaussian elimination over all S matrices at once; `ranks` counts them.
  - Column j is one step for the whole stack.  Each matrix takes as its
    pivot q its first row that is nonzero in column j, and every row
    becomes pv * row - row[j] * q, with pv = q[j] != 0; no modular
    inverse is taken.  That clears column j and turns q itself to 0.
    The other rows span, together with q, what they spanned before, and
    q, nonzero in column j, is independent of them: so the step lowers
    the rank by exactly one, and the rank of a matrix is the number of
    steps that found it a pivot.  A zero row is never chosen again.
  - Each step keeps, of the vectors the rows span, those that vanish in
    column j.  So at column j the rows span the vectors of the row space
    that vanish on every earlier column, and column j finds a pivot
    exactly when it is not a combination of the earlier columns: the
    pivot columns are the first basis of the column space in column
    order, and `pivots` reports them as a mask.
  - A matrix with no pivot in column j is zero there and takes pv = 1,
    which leaves it unchanged, so no matrix is singled out by a Python
    loop; a column with no pivot in any matrix is skipped.  The step is
    applied in place to the columns after j (the earlier ones are zero
    in every row).
  - Entries are kept in [0, p) with p < 2^31 (`ring.MAX_PRIME`), so each
    product is below 2^62 and their difference fits in int64.
  It serves point Hilbert functions, Cayley-Bacharach and uniform position
  (one stack of row subsets per degree, on the pivot columns) and Weak
  Lefschetz checks; minimal generators come from the pair loop in
  `groebner`.
"""

import heapq
import struct
from operator import index, mul

import numpy as np

from .errors import DegreeOverflow

_I64 = np.int64

# Exponents are >= 0 and every term has total degree <= MAX_DEGREE, so the
# exponents, degrees and keys of a product of two terms (an S-pair lcm, a
# reduction step) fit in int64.  A product that would pass the bound raises
# DegreeOverflow instead of spilling into the next field.
MAX_DEGREE = 2**62 - 1

# A packed term holds 64-bit fields, each biased by 2^63.
_BIAS = 1 << 63
_MASK = (1 << 64) - 1


class Packing:
    """The packed encoding of the terms of one kind of module over one ring.

    keys lists the key fields of the position and of each variable x_0,
    x_1, ... (one tuple each, all of one length): the key of a term is
    linear in its position and exponents.  zero is the packed zero term
    (position 0, every exponent 0) and units the packed shift of the
    position and of each variable, in that order: what adding 1 to that
    field adds to a term's int.
    """

    __slots__ = ("zero", "units", "nexp", "top", "low", "guard", "varmask", "var_bias", "_fields")

    def __init__(self, keys):
        nexp = len(keys)
        n = len(keys[0]) + nexp
        self.zero = _BIAS * sum(1 << 64 * f for f in range(n))
        self.units = tuple(
            sum(f << 64 * (n - 1 - i) for i, f in enumerate([-k for k in key] + [int(c == v) for v in range(nexp)]))
            for c, key in enumerate(keys)
        )
        self.nexp = nexp
        self.top = 64 * (nexp - 1)  # the position field's shift
        self.low = (1 << 64 * nexp) - 1  # the exponent fields
        self.guard = self.low // _MASK << 63  # the top bit of each
        self.varmask = (1 << self.top) - 1  # the variable fields
        self.var_bias = (self.varmask // _MASK << 63) % _MASK  # their biases, mod 2^64 - 1
        self._fields = struct.Struct(f">{nexp}q")

    def pack(self, rank, pos, exps):
        """The packed int of the term x^exps at position pos of a module of
        the given rank: the one place a term is built from its fields.
        Raises ValueError for a position outside [0, rank) or an exponent
        vector of the wrong length, TypeError for a non-integer entry, and
        DegreeOverflow for a negative exponent or a total degree above
        MAX_DEGREE."""
        exps = [index(e) for e in exps]
        if len(exps) != self.nexp - 1:
            raise ValueError(f"exponent vector {tuple(exps)} has {len(exps)} entries, not {self.nexp - 1}")
        pos = index(pos)
        if not 0 <= pos < rank:
            raise ValueError(f"position {pos} outside a module of rank {rank}")
        if min(exps, default=0) < 0:
            raise DegreeOverflow(f"negative exponent in {tuple(exps)}")
        degree = sum(exps)
        if degree > MAX_DEGREE:
            raise DegreeOverflow(f"total degree {degree} exceeds the bound 2^62 - 1 of the 64-bit term fields")
        return self.zero + pos * self.units[0] + sum(map(mul, exps, self.units[1:]))

    def decode(self, h):
        """(position, exponent tuple) of a packed term."""
        pos, *exps = self._fields.unpack(((h & self.low) ^ self.guard).to_bytes(8 * self.nexp, "big"))
        return pos, tuple(exps)

    def position(self, h):
        """Module position of a packed term."""
        return ((h >> self.top) & _MASK) - _BIAS

    def degree(self, h):
        """Total degree of a packed term, position left out: the variable
        fields summed mod 2^64 - 1, less their biases."""
        return (h & self.varmask) % _MASK - self.var_bias


def canonicalize(packed, coeffs, p):
    """Terms in any order, with repeats and any integer coefficients, as
    canonical lists: ascending ints, coefficients summed mod p, zero sums
    dropped."""
    coef = {}
    get = coef.get
    for h, c in zip(packed, coeffs):
        coef[h] = get(h, 0) + c
    out, out_c = [], []
    for h in sorted(coef):
        c = coef[h] % p
        if c:
            out.append(h)
            out_c.append(c)
    return out, out_c


def merge_sub(f, fc, g, gc, p):
    """f - g for canonical term lists; the result is canonical and shares
    no list with the inputs."""
    m1, m2 = len(f), len(g)
    out, oc = [], []
    i = j = 0
    while i < m1 and j < m2:
        x, y = f[i], g[j]
        if x < y:
            out.append(x)
            oc.append(fc[i])
            i += 1
        elif x > y:
            out.append(y)
            oc.append(p - gc[j])
            j += 1
        else:
            c = (fc[i] - gc[j]) % p
            if c:
                out.append(x)
                oc.append(c)
            i += 1
            j += 1
    out += f[i:]
    oc += fc[i:]
    out += g[j:]
    oc += [p - c for c in gc[j:]]
    return out, oc


def pivots(stack, p):
    """Pivot columns of every matrix of an (S, r, c) stack of int64 entries,
    as an (S, c) bool mask: column j is set when it is independent of the
    columns before it over GF(p).  The stack itself is not changed."""
    a = np.asarray(stack, dtype=_I64) % p
    S, r, c = a.shape
    every = np.arange(S)
    mask = np.zeros((S, c), dtype=bool)
    if r == 0:
        return mask
    for j in range(c):
        col = a[:, :, j]
        nonzero = col != 0
        piv = nonzero.argmax(axis=1)
        has = nonzero[every, piv]
        if not has.any():
            continue
        pv = np.where(has, col[every, piv], 1)
        prow = a[every, piv, j + 1 :]
        rest = a[:, :, j + 1 :]
        rest *= pv[:, None, None]
        rest -= col[:, :, None] * prow[:, None, :]
        rest %= p
        mask[:, j] = has
    return mask


def ranks(stack, p):
    """GF(p) rank of every matrix of an (S, r, c) stack, as an int64 array
    of length S: the number of its pivot columns."""
    return pivots(stack, p).sum(axis=1, dtype=_I64)


class Reducers:
    """Basis elements prepared for reduction, in index order, for terms of
    one `Packing`; `append` adds one nonzero element, given as its packed
    terms and its coefficients (any lead coefficient).

    Per element the table holds its tail as packed shifts (a tail term's
    packed int minus the lead's), its tail coefficients over its lead
    coefficient, negated mod p, its rise in degree (tail over lead), and
    its lead's exponent fields packed without the bias, listed under the
    lead's position.
    """

    __slots__ = ("packing", "tails", "coeffs", "rises", "leads")

    def __init__(self, packing):
        self.packing = packing
        self.tails, self.coeffs, self.rises = [], [], []
        self.leads = {}  # position -> [(index, packed lead exponents)]

    def __len__(self):
        return len(self.tails)

    def append(self, packed, coeffs, p):
        P = self.packing
        lead = packed[0]
        self.leads.setdefault(P.position(lead), []).append((len(self.tails), (lead & P.low) - P.guard))
        self.tails.append([t - lead for t in packed[1:]])
        q = pow(coeffs[0], -1, p)
        self.coeffs.append([p - c * q % p for c in coeffs[1:]])
        v = P.varmask
        self.rises.append(max([(h & v) % _MASK for h in packed]) - (lead & v) % _MASK)

    def s_pair(self, i, j, lcm, degree, p):
        """The S-polynomial of elements i and j, each over its lead
        coefficient, as pending terms for `reduce_packed`: (a heap of packed
        ints, their coefficients).  lcm is the packed lcm of the two leads
        and degree its total degree.  Raises DegreeOverflow where a term of
        the S-polynomial would pass MAX_DEGREE."""
        top = degree + max(self.rises[i], self.rises[j])
        if top > MAX_DEGREE:
            raise DegreeOverflow(
                f"S-pair reaches total degree {top}, above the bound 2^62 - 1 "
                "of the 64-bit term fields"
            )
        # the leads cancel; the tail of i comes in with the sign flipped
        coef = {lcm + d: p - x for d, x in zip(self.tails[i], self.coeffs[i])}
        get = coef.get
        for d, x in zip(self.tails[j], self.coeffs[j]):
            k = lcm + d
            coef[k] = (get(k, 0) + x) % p
        return sorted(coef), coef  # ascending, so a heap


def reduce_packed(heap, coef, reducers, p):
    """Full normal form of pending packed terms against a Reducers table.

    heap is a heap of the packed ints that key coef, their coefficients
    (0 allowed); both are used up.  The largest pending term is reduced
    first, by the first element whose lead divides it.  Returns the
    remainder as (packed ints, coefficients), largest term first; raises
    DegreeOverflow where a reduction step would pass MAX_DEGREE.
    """
    tails, coeffs, rises, leads = reducers.tails, reducers.coeffs, reducers.rises, reducers.leads
    P = reducers.packing
    low, guard, top, v, bias = P.low, P.guard, P.top, P.varmask, P.var_bias
    # a coefficient that sums to 0 keeps its entry.  A key is in `coef`
    # exactly while it has its one heap entry: keys only fall, so a popped
    # key never returns
    out, out_c = [], []
    pop, push, get = heapq.heappop, heapq.heappush, coef.get
    while heap:
        h = pop(heap)
        c = coef.pop(h)
        if not c:
            continue
        # lead l divides e exactly when no field of e - l borrows: each
        # biased field of e minus the unbiased one of l keeps its top bit
        e = h & low
        for j, lead in leads.get((e >> top) - _BIAS, ()):
            if (e - lead) & guard == guard:
                break
        else:
            out.append(h)
            out_c.append(c)
            continue
        if rises[j] > 0:
            degree = (h & v) % _MASK - bias + rises[j]
            if degree > MAX_DEGREE:
                raise DegreeOverflow(
                    f"reduction step reaches total degree {degree}, "
                    "above the bound 2^62 - 1 of the 64-bit term fields"
                )
        # subtract c * (the tail over the lead coefficient), shifted by h
        for d, x in zip(tails[j], coeffs[j]):
            k = h + d
            old = get(k)
            if old is None:
                coef[k] = c * x % p
                push(heap, k)
            else:
                coef[k] = (old + c * x) % p
    return out, out_c


def normal_form_arrays(packed, coeffs, reducers, p):
    """Full normal form of f, given as canonical term lists, against the
    elements of a Reducers table, by `reduce_packed`.  Returns the
    remainder's canonical term lists; raises DegreeOverflow where a
    reduction step would pass MAX_DEGREE."""
    if not len(reducers) or not packed:
        return packed, coeffs
    heap = list(packed)  # ascending, so already a heap
    return reduce_packed(heap, dict(zip(heap, coeffs)), reducers, p)


def backend_name():
    """Name of the kernel implementation, recorded with benchmark results."""
    return "numpy"
