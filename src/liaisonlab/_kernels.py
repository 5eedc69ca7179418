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
`pivot_rows` is the GF(p) linear algebra on graded pieces: the ranks behind
minimal generators, point Hilbert functions and Weak Lefschetz checks.

Backend selection: numba @njit kernels are used when importable unless the
environment variable LIAISON_NUMBA is set to "0" (pure numpy fallbacks with
identical semantics).  `tests/test_kernels.py` checks that the two agree.
The speed-up of the numba kernels is unverified: the benchmark in
`perfbench/` runs the numpy backend only.
"""

import os

import numpy as np

USE_NUMBA = os.environ.get("LIAISON_NUMBA", "1") != "0"

if USE_NUMBA:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover
        USE_NUMBA = False

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


def _py_modinv(a, p):
    return pow(int(a), p - 2, p)


def _py_merge_sub(k1, e1, c1, k2, e2, c2, p):
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


def _py_normal_form(fk, fe, fc, bk, be, bc, boff, p):
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
        q = (int(cc[0]) * _py_modinv(lt_c[j], p)) % p
        gk = bk[s + 1 : t] + shift_k
        ge = be[s + 1 : t] + shift_e
        gc = (bc[s + 1 : t] * q) % p
        ck, ce, cc = _py_merge_sub(ck[1:], ce[1:], cc[1:], gk, ge, gc, p)
    K = fk.shape[1]
    E = fe.shape[1]
    if not out_c:
        return empty_terms(E, K)
    return (
        np.array(out_k, dtype=_I64),
        np.array(out_e, dtype=_I64),
        np.array(out_c, dtype=_I64),
    )


if USE_NUMBA:

    @njit(cache=True)
    def _nb_modinv(a, p):  # pragma: no cover - exercised via dispatch
        r = np.int64(1)
        b = a % p
        e = p - 2
        while e > 0:
            if e & 1:
                r = (r * b) % p
            b = (b * b) % p
            e >>= 1
        return r

    @njit(cache=True)
    def _nb_merge_sub(k1, e1, c1, k2, e2, c2, p):  # pragma: no cover
        m1 = c1.shape[0]
        m2 = c2.shape[0]
        K = k1.shape[1]
        E = e1.shape[1]
        ok = np.empty((m1 + m2, K), dtype=np.int64)
        oe = np.empty((m1 + m2, E), dtype=np.int64)
        oc = np.empty(m1 + m2, dtype=np.int64)
        i = 0
        j = 0
        t = 0
        while i < m1 and j < m2:
            cmp = 0
            for s in range(K):
                if k1[i, s] > k2[j, s]:
                    cmp = 1
                    break
                if k1[i, s] < k2[j, s]:
                    cmp = -1
                    break
            if cmp > 0:
                for s in range(K):
                    ok[t, s] = k1[i, s]
                for s in range(E):
                    oe[t, s] = e1[i, s]
                oc[t] = c1[i]
                i += 1
                t += 1
            elif cmp < 0:
                for s in range(K):
                    ok[t, s] = k2[j, s]
                for s in range(E):
                    oe[t, s] = e2[j, s]
                oc[t] = (p - c2[j]) % p
                j += 1
                t += 1
            else:
                c = (c1[i] - c2[j]) % p
                if c != 0:
                    for s in range(K):
                        ok[t, s] = k1[i, s]
                    for s in range(E):
                        oe[t, s] = e1[i, s]
                    oc[t] = c
                    t += 1
                i += 1
                j += 1
        while i < m1:
            for s in range(K):
                ok[t, s] = k1[i, s]
            for s in range(E):
                oe[t, s] = e1[i, s]
            oc[t] = c1[i]
            i += 1
            t += 1
        while j < m2:
            for s in range(K):
                ok[t, s] = k2[j, s]
            for s in range(E):
                oe[t, s] = e2[j, s]
            oc[t] = (p - c2[j]) % p
            j += 1
            t += 1
        return ok[:t].copy(), oe[:t].copy(), oc[:t].copy()

    @njit(cache=True)
    def _nb_normal_form(fk, fe, fc, bk, be, bc, boff, p):  # pragma: no cover
        nb = boff.shape[0] - 1
        K = fk.shape[1]
        E = fe.shape[1]
        cap = fc.shape[0] + 16
        out_k = np.empty((cap, K), dtype=np.int64)
        out_e = np.empty((cap, E), dtype=np.int64)
        out_c = np.empty(cap, dtype=np.int64)
        n_out = 0
        ck, ce, cc = fk, fe, fc
        while cc.shape[0] > 0:
            j = -1
            for b in range(nb):
                r = boff[b]
                if be[r, 0] != ce[0, 0]:
                    continue
                ok_div = True
                for s in range(1, E):
                    if be[r, s] > ce[0, s]:
                        ok_div = False
                        break
                if ok_div:
                    j = b
                    break
            if j < 0:
                if n_out == cap:
                    cap *= 2
                    nk = np.empty((cap, K), dtype=np.int64)
                    ne = np.empty((cap, E), dtype=np.int64)
                    nc = np.empty(cap, dtype=np.int64)
                    nk[:n_out] = out_k[:n_out]
                    ne[:n_out] = out_e[:n_out]
                    nc[:n_out] = out_c[:n_out]
                    out_k, out_e, out_c = nk, ne, nc
                for s in range(K):
                    out_k[n_out, s] = ck[0, s]
                for s in range(E):
                    out_e[n_out, s] = ce[0, s]
                out_c[n_out] = cc[0]
                n_out += 1
                ck, ce, cc = ck[1:], ce[1:], cc[1:]
                continue
            s0 = boff[j]
            t0 = boff[j + 1]
            m2 = t0 - s0 - 1
            gk = np.empty((m2, K), dtype=np.int64)
            ge = np.empty((m2, E), dtype=np.int64)
            gc = np.empty(m2, dtype=np.int64)
            q = (cc[0] * _nb_modinv(bc[s0], p)) % p
            for r in range(m2):
                for s in range(K):
                    gk[r, s] = bk[s0 + 1 + r, s] + ck[0, s] - bk[s0, s]
                ge[r, 0] = be[s0 + 1 + r, 0]
                for s in range(1, E):
                    ge[r, s] = be[s0 + 1 + r, s] + ce[0, s] - be[s0, s]
                gc[r] = (bc[s0 + 1 + r] * q) % p
            ck, ce, cc = _nb_merge_sub(ck[1:], ce[1:], cc[1:], gk, ge, gc, p)
        return out_k[:n_out].copy(), out_e[:n_out].copy(), out_c[:n_out].copy()

    merge_sub = _nb_merge_sub
    normal_form_arrays = _nb_normal_form
    modinv = _nb_modinv
else:
    merge_sub = _py_merge_sub
    normal_form_arrays = _py_normal_form
    modinv = _py_modinv


def backend_name():
    return "numba" if USE_NUMBA else "numpy"
