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
- `normal_form_arrays` is full reduction against a basis: one
  `merge_sub` per reduced head term.

Both sort-and-combine kernels run the same code at every size: there is no
size cutoff and no second path.  `pivot_rows` is the GF(p) rank of a
sequence of dense rows; it serves point Hilbert functions and Weak
Lefschetz checks only (minimal generators come from the pair loop in
`groebner`).
"""

import numpy as np

_I64 = np.int64


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
    row.  Returns canonical term arrays of the remainder.
    """
    nb = len(boff) - 1
    lt_e = be[boff[:-1]] if nb else be[:0]
    lt_c = bc[boff[:-1]] if nb else bc[:0]
    out_k, out_e, out_c = [], [], []
    ck, ce, cc = fk, fe, fc
    while len(cc):
        head_e = ce[0]
        j = -1
        if nb:
            hits = np.nonzero((lt_e <= head_e).all(axis=1) & (lt_e[:, 0] == head_e[0]))[0]
            if hits.size:
                j = int(hits[0])
        if j < 0:
            out_k.append(ck[0]); out_e.append(ce[0]); out_c.append(cc[0])
            ck, ce, cc = ck[1:], ce[1:], cc[1:]
            continue
        s, t = int(boff[j]), int(boff[j + 1])
        shift_e = head_e - lt_e[j]
        shift_e[0] = 0
        shift_k = ck[0] - bk[s]
        q = (int(cc[0]) * pow(int(lt_c[j]), p - 2, p)) % p
        gk = bk[s + 1 : t] + shift_k
        ge = be[s + 1 : t] + shift_e
        gc = (bc[s + 1 : t] * q) % p
        ck, ce, cc = merge_sub(ck[1:], ce[1:], cc[1:], gk, ge, gc, p)
    K = fk.shape[1]
    E = fe.shape[1]
    if not out_c:
        return empty_terms(E, K)
    return (
        np.array(out_k, dtype=_I64),
        np.array(out_e, dtype=_I64),
        np.array(out_c, dtype=_I64),
    )


def backend_name():
    """Name of the kernel implementation, recorded with benchmark results."""
    return "numpy"
