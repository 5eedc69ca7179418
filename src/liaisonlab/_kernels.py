"""Hot term-array kernels for exact polynomial reduction over GF(p).

A (module) polynomial is held as three parallel arrays:

  exps   int64[m, 1+nv]  -- column 0 is the free-module position (0 for ring
                            elements), columns 1.. are variable exponents
  keys   int64[m, K]     -- monomial-order key rows, strictly decreasing in
                            lexicographic row order
  coeffs int64[m]        -- values in [1, p)

Keys are additive (key of a product is the sum of keys), so multiplying by a
monomial is a constant shift and never re-sorts.  The kernels below implement
the two inner loops that dominate every Groebner-basis run: merge-subtract of
sorted term arrays and full normal-form reduction against a basis.
`pivot_rows` is the GF(p) rank of a sequence of dense rows; it serves point
Hilbert functions and Weak Lefschetz checks only (minimal generators come
from the pair loop in `groebner`).
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
    if len(coeffs) == 0:
        return keys.reshape(0, keys.shape[-1] if keys.ndim == 2 else 0), exps.reshape(
            0, exps.shape[-1] if exps.ndim == 2 else 0
        ), coeffs
    keys = keys.reshape(len(coeffs), -1)
    exps = exps.reshape(len(coeffs), -1)
    uk, inv = np.unique(keys, axis=0, return_inverse=True)
    c = np.zeros(len(uk), dtype=_I64)
    np.add.at(c, inv, coeffs)
    c %= p
    ue = np.empty((len(uk), exps.shape[1]), dtype=_I64)
    ue[inv] = exps
    keep = c != 0
    # np.unique sorts rows ascending lexicographically; we store descending
    return uk[keep][::-1].copy(), ue[keep][::-1].copy(), c[keep][::-1].copy()


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
    """f - g for term arrays already sorted descending; result canonical."""
    m1, m2 = len(c1), len(c2)
    K = k1.shape[1] if m1 else k2.shape[1]
    E = e1.shape[1] if m1 else e2.shape[1]
    ok = np.empty((m1 + m2, K), dtype=_I64)
    oe = np.empty((m1 + m2, E), dtype=_I64)
    oc = np.empty(m1 + m2, dtype=_I64)
    i = j = t = 0
    while i < m1 and j < m2:
        cmp = _row_cmp(k1[i], k2[j])
        if cmp > 0:
            ok[t] = k1[i]; oe[t] = e1[i]; oc[t] = c1[i]; i += 1; t += 1
        elif cmp < 0:
            ok[t] = k2[j]; oe[t] = e2[j]; oc[t] = (p - c2[j]) % p; j += 1; t += 1
        else:
            c = (c1[i] - c2[j]) % p
            if c:
                ok[t] = k1[i]; oe[t] = e1[i]; oc[t] = c; t += 1
            i += 1; j += 1
    while i < m1:
        ok[t] = k1[i]; oe[t] = e1[i]; oc[t] = c1[i]; i += 1; t += 1
    while j < m2:
        ok[t] = k2[j]; oe[t] = e2[j]; oc[t] = (p - c2[j]) % p; j += 1; t += 1
    return ok[:t].copy(), oe[:t].copy(), oc[:t].copy()


def _row_cmp(a, b):
    for x, y in zip(a, b):
        if x > y:
            return 1
        if x < y:
            return -1
    return 0


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
