"""Hot term-array kernels for exact polynomial reduction over GF(p).

A (module) polynomial is held as three parallel arrays:

  exps   int64[m, 1+nv]  -- column 0 is the free-module position (0 for ring
                            elements), columns 1.. are variable exponents
  keys   int64[m, K]     -- monomial-order key rows, strictly decreasing in
                            lexicographic row order
  coeffs int64[m]        -- values in [1, p)

Keys are additive (key of a product is the sum of keys), so multiplying by a
monomial is a constant shift and never re-sorts.  Arrays in this form are
canonical; the term-array kernels below return new canonical arrays.

- `canonicalize` takes terms in any order, with repeated keys and any
  integer coefficients: one `np.lexsort` of the key rows, reversed for
  descending order, an adjacent-row inequality mask marks the first row of
  each key, and `np.add.reduceat` sums each run mod p; zero sums are
  dropped.
- `merge_sub` (f - g of two canonical arrays) merges the two key lists,
  taken with one `tolist()` each, in one Python loop with native list
  comparison, so no key row is compared through numpy scalar indexing.
  The loop records the output rows as indices into (f; g) with their
  coefficients, combining equal keys mod p and dropping zero sums; keys
  and exponents are then one fancy index each.  An empty side returns a
  copy of the other at once.
- `reduce_packed` is full reduction against a `Reducers` table by
  heap-based division on packed terms (Monagan & Pearce, "Polynomial
  division using dynamic arrays, heaps, and packed exponent vectors",
  CASC 2007).  `normal_form_arrays` is `pack`, `reduce_packed` and
  `unpack`; the Buchberger pair loop calls `reduce_packed` itself.
  - A term is packed into one Python int (`pack`): its negated key fields,
    then its exponent fields (position first), each biased by 2^63 into
    64 bits, most significant first.  A biased field lies in [0, 2^64)
    exactly when the field fits in int64, so the int is a base-2^64
    numeral and int order is the lexicographic order of the fields: the
    smallest int is the largest term.  Equal keys imply equal exponents
    within a module, so the key fields alone decide the order and the
    identity of a term.  Packing is linear in the fields, so a term times
    the monomial that takes a reducer's lead to its head h is h + delta,
    with delta the difference of the packed tail term and the packed lead
    (the biases cancel).
  - That needs every field of every term met to fit in int64, the same
    precondition the numpy term arithmetic has: every term has total
    degree <= MAX_DEGREE, which bounds its exponents and key fields by
    2^62 in absolute value.  A step that would take a term past
    MAX_DEGREE raises DegreeOverflow first.
  - `Reducers` prepares each basis element once, when it is appended from
    its packed terms: its tail as packed shifts, its tail coefficients
    over its lead coefficient (negated mod p), its largest rise in degree
    (tail over lead), and its lead's exponent fields packed without the
    bias, listed under the lead's position.  Only an element with a
    positive rise costs one degree test per step: homogeneous input never
    does.
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
    dict lookup and one product mod p each, and makes no numpy call; it
    costs O(reducer length * log n), not a pass over the remainder.  A
    coefficient that sums to 0 keeps its dict entry, and a key keeps its
    one heap entry until popped: keys only fall, so a popped key never
    returns.  The remainder comes back packed, largest term first; `unpack`
    turns a list of packed ints into arrays in one vectorised pass.
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

import numpy as np

from .errors import DegreeOverflow

_I64 = np.int64

# Exponents are >= 0 and every term has total degree <= MAX_DEGREE, so the
# exponents, degrees and keys of a product of two terms (an S-pair lcm, a
# reduction step) fit in int64.  A product that would pass the bound raises
# DegreeOverflow instead of wrapping.
MAX_DEGREE = 2**62 - 1

# A packed term holds 64-bit fields, each biased by 2^63: as int64, the
# bias flips the sign bit.
_BIAS = 1 << 63
_SIGN = np.iinfo(_I64).min
_MASK = (1 << 64) - 1


def empty_terms(nexp, nkey):
    return (
        np.empty((0, nkey), dtype=_I64),
        np.empty((0, nexp), dtype=_I64),
        np.empty((0,), dtype=_I64),
    )


def canonicalize(keys, exps, coeffs, p):
    """Sort terms by key (descending), combine duplicates, drop zeros mod p."""
    coeffs = np.asarray(coeffs, dtype=_I64) % p
    keys = np.asarray(keys, dtype=_I64)
    exps = np.asarray(exps, dtype=_I64)
    n = len(coeffs)
    if n == 0:
        return keys.reshape(0, keys.shape[-1] if keys.ndim == 2 else 0), exps.reshape(
            0, exps.shape[-1] if exps.ndim == 2 else 0
        ), coeffs
    keys = keys.reshape(n, -1)
    exps = exps.reshape(n, -1)
    # lexsort's last key is the primary one; its ascending order, reversed,
    # puts the rows in descending order
    idx = np.lexsort(keys.T[::-1])[::-1]
    sk = keys[idx]
    first = np.ones(n, dtype=bool)
    first[1:] = (sk[1:] != sk[:-1]).any(axis=1)
    starts = first.nonzero()[0]
    c = np.add.reduceat(coeffs[idx], starts) % p
    keep = c.nonzero()[0]
    rows = idx[starts[keep]]
    return keys[rows], exps[rows], c[keep]


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


def merge_sub(k1, e1, c1, k2, e2, c2, p):
    """f - g for canonical term arrays; the result is canonical.

    One Python merge of the two sorted key lists (native list comparison)
    records the output rows as indices into (f; g), with their
    coefficients; the key and exponent arrays are then one fancy index
    each into the concatenated inputs.
    """
    m1, m2 = len(c1), len(c2)
    if not m2:
        return k1.copy(), e1.copy(), c1.copy()
    if not m1:
        return k2.copy(), e2.copy(), p - c2
    a, b = k1.tolist(), k2.tolist()
    ca, cb = c1.tolist(), c2.tolist()
    order, oc = [], []
    i = j = 0
    while i < m1 and j < m2:
        x, y = a[i], b[j]
        if x > y:
            order.append(i)
            oc.append(ca[i])
            i += 1
        elif x < y:
            order.append(m1 + j)
            oc.append(p - cb[j])
            j += 1
        else:
            c = (ca[i] - cb[j]) % p
            if c:
                order.append(i)
                oc.append(c)
            i += 1
            j += 1
    order.extend(range(i, m1))
    oc.extend(ca[i:])
    order.extend(range(m1 + j, m1 + m2))
    oc.extend([p - c for c in cb[j:]])
    idx = np.array(order, dtype=np.intp)
    return (
        np.concatenate((k1, k2))[idx],
        np.concatenate((e1, e2))[idx],
        np.array(oc, dtype=_I64),
    )


class Reducers:
    """Basis elements prepared for reduction, in index order; `append` adds
    one nonzero element, given as its packed terms (`pack`), its exponent
    rows and its coefficients (a list, any lead coefficient).

    Per element the table holds its tail as packed shifts (a tail term's
    packed int minus the lead's), its tail coefficients over its lead
    coefficient, negated mod p, its rise in degree (tail over lead), and
    its lead's exponent fields packed without the bias, listed under the
    lead's position.
    """

    __slots__ = ("tails", "coeffs", "rises", "leads")

    def __init__(self):
        self.tails, self.coeffs, self.rises = [], [], []
        self.leads = {}  # position -> [(index, packed lead exponents)]

    def __len__(self):
        return len(self.tails)

    def append(self, packed, exps, coeffs, p):
        lead = packed[0]
        low, guard = _exponent_masks(exps.shape[1])
        self.leads.setdefault(int(exps[0, 0]), []).append((len(self.tails), (lead & low) - guard))
        self.tails.append([t - lead for t in packed[1:]])
        q = pow(coeffs[0], -1, p)
        self.coeffs.append([p - c * q % p for c in coeffs[1:]])
        d = np.add.reduce(exps[:, 1:], axis=1)
        self.rises.append(int(np.maximum.reduce(d) - d[0]))

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
                "of the int64 term arrays"
            )
        # the leads cancel; the tail of i comes in with the sign flipped
        coef = {lcm + d: p - x for d, x in zip(self.tails[i], self.coeffs[i])}
        get = coef.get
        for d, x in zip(self.tails[j], self.coeffs[j]):
            k = lcm + d
            coef[k] = (get(k, 0) + x) % p
        return sorted(coef), coef  # ascending, so a heap


def _exponent_masks(nexp):
    """(the exponent fields of a packed int, the top bit of each)."""
    low = (1 << 64 * nexp) - 1
    return low, low // _MASK << 63


def pack(keys, exps):
    """The packed ints of the terms (rows) of canonical arrays, in order.

    A row's fields go into a buffer least significant first, so that one
    little-endian read of the row is its packed int."""
    n, nexp = exps.shape
    fields = np.empty((n, nexp + keys.shape[1]), dtype=_I64)
    fields[:, :nexp] = exps[:, ::-1]
    np.negative(keys[:, ::-1], out=fields[:, nexp:])
    fields ^= _SIGN
    raw = fields.astype("<i8", copy=False).tobytes()
    width = 8 * fields.shape[1]
    return [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]


def unit_shifts(key_rows, nexp):
    """The packed shift of each variable: what multiplying a term by x_v
    adds to its packed int, for v = 0 .. nexp - 2.  key_rows maps exponent
    rows (position first) to their key rows, linearly.  Packing is linear
    in the fields, so it is the packed int of x_v at position 0 less that
    of the zero term."""
    rows = np.eye(nexp, dtype=_I64)
    rows[0, 0] = 0  # the zero term, then x_0, x_1, ...
    zero, *units = pack(key_rows(rows), rows)
    return [u - zero for u in units]


def unpack(packed, nkey, nexp):
    """The (keys, exps) arrays of packed ints."""
    width = 8 * (nkey + nexp)
    raw = b"".join([h.to_bytes(width, "little") for h in packed])
    fields = np.frombuffer(raw, dtype="<i8").reshape(len(packed), nkey + nexp) ^ _SIGN
    return -fields[:, : nexp - 1 : -1], fields[:, nexp - 1 :: -1].copy()


def reduce_packed(heap, coef, reducers, nexp, p):
    """Full normal form of pending packed terms against a Reducers table.

    heap is a heap of the packed ints that key coef, their coefficients
    (0 allowed); both are used up.  The largest pending term is reduced
    first, by the first element whose lead divides it.  Returns the
    remainder as (packed ints, coefficients), largest term first; raises
    DegreeOverflow where a reduction step would pass MAX_DEGREE.
    """
    tails, coeffs, rises, leads = reducers.tails, reducers.coeffs, reducers.rises, reducers.leads
    low, guard = _exponent_masks(nexp)
    top = 64 * (nexp - 1)  # the position field's shift
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
            degree = sum(((e >> s) & _MASK) - _BIAS for s in range(0, top, 64)) + rises[j]
            if degree > MAX_DEGREE:
                raise DegreeOverflow(
                    f"reduction step reaches total degree {degree}, "
                    "above the bound 2^62 - 1 of the int64 term arrays"
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


def normal_form_arrays(fk, fe, fc, reducers, p):
    """Full normal form of f against the elements of a Reducers table, by
    `reduce_packed`.  Returns canonical term arrays of the remainder;
    raises DegreeOverflow where a reduction step would pass MAX_DEGREE."""
    if not len(reducers) or not len(fc):
        return fk.copy(), fe.copy(), fc.copy()
    nkey, nexp = fk.shape[1], fe.shape[1]
    heap = pack(fk, fe)  # ascending, so already a heap
    out, out_c = reduce_packed(heap, dict(zip(heap, fc.tolist())), reducers, nexp, p)
    if not out:
        return empty_terms(nexp, nkey)
    return (*unpack(out, nkey, nexp), np.array(out_c, dtype=_I64))


def backend_name():
    """Name of the kernel implementation, recorded with benchmark results."""
    return "numpy"
