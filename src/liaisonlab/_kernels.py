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
- `normal_form_arrays` is full reduction against a basis by heap-based
  division (Monagan & Pearce, "Polynomial division using dynamic arrays,
  heaps, and packed exponent vectors", CASC 2007).  The pending terms sit
  in a dict keyed by the negated key tuple, with a `heapq` min-heap of
  those tuples, so the largest term is popped first.  A reduction step
  adds the reducer's shifted tail term by term: the shifted keys,
  exponents and coefficients are one numpy op each and one `tolist()`, so
  a step costs O(reducer length * log n), not a pass over the remainder.
  A coefficient that sums to 0 drops its dict entry; the key keeps its one
  heap entry, which is skipped when popped unless a later step brought the
  key back.  A term is reduced by the first block, by index, whose lead
  has its position and divides it.  Heads are tested one numpy mask each
  until the first irreducible head; the remainder's lead is then final, so
  every pending term is tested against all leads in one batched
  comparison and keeps its first divisor, and terms added later are tested
  when they become the head.  A step that would take a term past
  MAX_DEGREE raises DegreeOverflow.  A block's largest rise in degree
  (tail over lead) is found the first time it reduces in a call, and only
  a block with a positive rise costs one Python comparison per step:
  homogeneous input never does.

Every kernel runs the same code at every size: there is no size cutoff
and no second path.  `pivot_rows` is the GF(p) rank of a sequence of
dense rows; it serves point Hilbert functions and Weak Lefschetz checks
only (minimal generators come from the pair loop in `groebner`).
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

# Cells of one batched divisibility mask (pending terms x leads x columns).
_MASK_CELLS = 1 << 20

_all = np.logical_and.reduce

# Below every (-pos, pos, exponents...) row of a term.
_FLOOR = np.iinfo(_I64).min


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


def pivot_rows(rows, p):
    """Indices of the rows that are independent of all earlier rows, over
    GF(p); their count is the rank.

    rows is any iterable of int64 vectors of one length, read one at a time
    and never held as a matrix.  Each independent row is stored
    pivot-normalized but not inter-reduced, which is fastest when most rows
    reduce to zero after a few steps; a stored row is skipped when the
    vector is zero at its pivot.
    """
    stored = []
    out = []
    for i, vec in enumerate(rows):
        v = np.asarray(vec, dtype=_I64) % p
        for piv, r in stored:
            c = v[piv]
            if c:
                v = (v - c * r) % p
        nz = v.nonzero()[0]
        if nz.size:
            piv = int(nz[0])
            stored.append((piv, (v * pow(int(v[piv]), p - 2, p)) % p))
            out.append(i)
    return out


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


def normal_form_arrays(fk, fe, fc, bk, be, bc, boff, p):
    """Full normal form of f against the basis blocks in (bk, be, bc, boff).

    Block j occupies rows boff[j]:boff[j+1]; its leading term is the first
    row.  The largest pending term is reduced first, by the first block
    whose lead divides it.  Returns canonical term arrays of the remainder;
    raises DegreeOverflow where a reduction step would pass MAX_DEGREE.
    """
    nb = len(boff) - 1
    if not nb or not len(fc):
        return fk.copy(), fe.copy(), fc.copy()
    bounds = boff.tolist()
    # lead rows as (-pos, pos, exponents...), then a row below every term:
    # lead j divides a term exactly when its row is <= the term's row in the
    # same form, and the first such row is block j's, or nb for none.  The
    # rows are the columns of lt_t, which the batched test reads fastest
    lead = be[boff[:-1]]
    lt_t = np.empty((lead.shape[1] + 1, nb + 1), dtype=_I64)
    lt_t[1:, :nb] = lead.T
    np.negative(lead[:, 0], out=lt_t[0, :nb])
    lt_t[:, nb] = _FLOOR
    lt_x = lt_t.T
    # block j -> the most a step with it raises its head's degree, found
    # the first time the block reduces
    excess = {}
    # pending terms by negated key (heap order is ascending), with their
    # exponents and first dividing block.  A key is pushed once: keys only
    # fall, so a popped key never returns, and a cancelled key's entry stays
    # in the heap for the step that may bring it back
    heap = list(map(tuple, (-fk).tolist()))  # ascending, so already a heap
    coef = dict(zip(heap, fc.tolist()))
    exps = dict(zip(heap, fe.tolist()))
    first = {}
    lead_final = False
    out_k, out_e, out_c = [], [], []
    while heap:
        h = heapq.heappop(heap)
        c = coef.pop(h, 0)
        if not c:
            continue
        e = exps[h]
        j = first.get(h)
        if j is None:
            j = int(_all(lt_x <= [-e[0], *e], axis=1).argmax())
        if j == nb:
            out_k.append(h); out_e.append(e); out_c.append(c)
            if not lead_final:
                # the remainder's lead is fixed: test every pending term
                # against the leads at once
                lead_final = True
                if coef:
                    _first_divisors(coef, exps, first, lt_t)
            continue
        s, t = bounds[j], bounds[j + 1]
        if t - s == 1:
            continue
        rise = excess.get(j)
        if rise is None:
            d = np.add.reduce(be[s:t, 1:], axis=1)
            rise = excess[j] = int(np.maximum.reduce(d) - d[0])
        if rise > 0 and sum(e[1:]) + rise > MAX_DEGREE:
            raise DegreeOverflow(
                f"reduction step reaches total degree {sum(e[1:]) + rise}, "
                "above the bound 2^62 - 1 of the int64 term arrays"
            )
        # the terms of -(c / lead coefficient) * (shifted tail), keys negated
        q = p - c * pow(int(bc[s]), -1, p) % p
        gk = (bk[s] + h) - bk[s + 1 : t]
        ge = be[s + 1 : t] + (e - be[s])
        gc = bc[s + 1 : t] * q % p
        for k, x, y in zip(map(tuple, gk.tolist()), gc.tolist(), ge.tolist()):
            old = coef.get(k)
            if old is None:
                coef[k] = x
                if k not in exps:
                    exps[k] = y
                    heapq.heappush(heap, k)
            else:
                x = (old + x) % p
                if x:
                    coef[k] = x
                else:
                    del coef[k]
    if not out_c:
        return empty_terms(fe.shape[1], fk.shape[1])
    return (
        -np.array(out_k, dtype=_I64),
        np.array(out_e, dtype=_I64),
        np.array(out_c, dtype=_I64),
    )


def _first_divisors(coef, exps, first, lt_t):
    """Record in `first` the first dividing block of each pending term, by
    one batched comparison (in chunks of at most _MASK_CELLS cells)."""
    keys = list(coef)
    rows = np.array([[-exps[k][0], *exps[k]] for k in keys], dtype=_I64)
    step = max(1, _MASK_CELLS // lt_t.size)
    for i in range(0, len(keys), step):
        hits = _all(lt_t <= rows[i : i + step, :, None], axis=1)
        first.update(zip(keys[i : i + step], hits.argmax(axis=1).tolist()))


def backend_name():
    """Name of the kernel implementation, recorded with benchmark results."""
    return "numpy"
