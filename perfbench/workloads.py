"""The benchmark's four workloads: seeded raw inputs, one operation, and the
reference check of its answer.

Inputs are plain ints and strings.  Every op builds fresh library objects
from them, so no Groebner basis or resolution cached on an ``Ideal``
carries over from one op to the next.  ``pool(seed)`` makes a workload's
inputs and op k of a run uses ``pool[k % len(pool)]``.  A run stops only
between rounds of ``round_size`` ops, and the traced run repeats the first
round of inputs.
"""

import contextlib
import io
from itertools import combinations, combinations_with_replacement
from pathlib import Path

import numpy as np

from liaisonlab import cli, glicci, gorenstein, resolution
from liaisonlab.ideals import Ideal, PolyMatrix
from liaisonlab.ring import Ring

P = 32003


def warm_up():
    """One small colon computation, the same one the test suite warms with:
    it reaches the reduction kernels (and would compile them under numba)."""
    R = Ring(4, P)
    x0, x1 = R.var(0), R.var(1)
    Ideal(R, [x0 * x1, x0 + x1]).colon(Ideal(R, [x0, x1]))


def _linear_form(R, coeffs):
    return R.poly({tuple(int(i == k) for i in range(R.nvars)): int(c) for k, c in enumerate(coeffs)})


class CIQuartic:
    """CI-liaison invariant of the rational normal quartic in P^4.

    The seed scales the variables (x_i -> c_i x_i).  That is an automorphism
    of the ring that keeps every monomial, so every op does the same algebra
    with other coefficients, and the answer is the same table.
    """

    name = "ci_quartic"
    round_size = 1
    pool_size = 2
    reference = {1: {-1: 0, 0: 0, 1: 0, 2: 3, 3: 0, 4: 0}}

    def pool(self, seed):
        rng = np.random.default_rng([seed, 1])
        return [tuple(int(c) for c in rng.integers(1, P, size=5)) for _ in range(self.pool_size)]

    def op(self, scales):
        R = Ring(5, P)
        z = [R.var(i).scale(c) for i, c in enumerate(scales)]
        B = PolyMatrix(R, [[z[0], z[1], z[2], z[3]], [z[1], z[2], z[3], z[4]]])
        return resolution.ci_invariant_hf(B.maximal_minors(), window=range(-1, 5))

    def check(self, scales, answer):
        return answer == self.reference


class GaetaGeneric:
    """Gaeta descent of a generic 3x4 matrix of linear forms in
    GF(32003)[x0..x4], and the replay of its certificate."""

    name = "gaeta_generic"
    round_size = 1
    pool_size = 8

    def pool(self, seed):
        out = []
        for k in range(self.pool_size):
            rng = np.random.default_rng([seed, 2, k])
            coeffs = tuple(
                tuple(tuple(int(c) for c in rng.integers(1, P, size=5)) for _ in range(4))
                for _ in range(3)
            )
            out.append((coeffs, (seed, 2, k)))
        return out

    def op(self, raw):
        coeffs, retry_seed = raw
        R = Ring(5, P)
        A = PolyMatrix(R, [[_linear_form(R, c) for c in row] for row in coeffs])
        cert = glicci.gaeta_run(A, np.random.default_rng(retry_seed))
        return cert, cert.replay()

    def check(self, raw, answer):
        cert, replayed = answer
        # replay() re-derives every link and ends by testing that the last
        # ideal is a complete intersection
        return (
            replayed is True
            and len(cert.steps) == 4
            and all(step["kind"] == "link" for step in cert.steps)
        )


# The golden CLI sessions of tests/test_cli.py (GOLDEN_CASES), copied so that
# the workload stays fixed when the golden corpus grows.
GOLDEN_CASES = [
    ("twisted_cubic_link", ["--session", "p3.txt", "link", "--gor", "C22", "--ideal", "TC"]),
    ("quartic_link", ["--session", "p3.txt", "link", "--gor", "C23", "--ideal", "QUARTIC"]),
    ("artinian_link", ["--session", "kxy.txt", "link", "--gor", "C34", "--ideal", "IART"]),
    ("selflink_line", ["--session", "p3.txt", "link", "--gor", "SELFX", "--ideal", "LINE"]),
    ("double_line_pathology", ["--session", "p3.txt", "link", "--gor", "LSQ", "--ideal", "DBLLINE", "--allow-acm"]),
    ("gaeta_scroll_p3", ["--session", "p3.txt", "gaeta", "SCROLL"]),
    ("gaeta_scroll_p4", ["--session", "p4.txt", "gaeta", "SCROLL24"]),
    ("grid_dgo", ["--session", "p2pts.txt", "dgo", "GRID"]),
    ("conic_dgo", ["--session", "p2pts.txt", "dgo", "CONIC6"]),
    ("collinear_dgo", ["--session", "p2pts.txt", "dgo", "COLL"]),
    ("grid_cb", ["--session", "p2pts.txt", "cb-check", "GRID"]),
    ("macaulay_1312", ["macaulay", "1", "3", "1", "2"]),
    ("macaulay_13656", ["macaulay", "1", "3", "6", "5", "6"]),
    ("macaulay_si", ["macaulay", "1", "3", "6", "7", "9", "7", "6", "3", "1"]),
    ("lift_example", ["--session", "p2pts.txt", "lift", "x1^3*x2^2"]),
    ("glicci_m2", ["--session", "p3.txt", "glicci", "M2"]),
    ("betti_tc", ["--session", "p3.txt", "betti", "TC"]),
    ("hilbert_tc", ["--session", "p3.txt", "hilbert", "TC"]),
    ("deficiency_quartic", ["--session", "p3.txt", "--window", "-4", "6", "deficiency", "QUARTIC"]),
]

# the double-line pathology is a mathematical failure: exit 1 with an error report
EXPECTED_EXIT = {"double_line_pathology": 1}


class CLIGolden:
    """The golden CLI sessions through ``cli.main``; one session is one op.

    The seed shuffles the session order of each pass.  The reports embed the
    CLI's default seed, which the goldens were written with, so the CLI gets
    no ``--seed``.
    """

    name = "cli_golden"
    round_size = len(GOLDEN_CASES)
    passes = 4

    def __init__(self, root):
        self.golden = Path(root) / "tests" / "golden"

    def pool(self, seed):
        cases = []
        for name, argv in GOLDEN_CASES:
            argv = list(argv)
            if argv[0] == "--session":
                argv[1] = str(self.golden / "sessions" / argv[1])
            expected = (EXPECTED_EXIT.get(name, 0), (self.golden / f"{name}.json").read_bytes())
            cases.append((name, argv, expected))
        out = []
        for k in range(self.passes):
            order = np.random.default_rng([seed, 3, k]).permutation(len(cases))
            out.extend(cases[i] for i in order)
        return out

    def op(self, case):
        _, argv, _ = case
        buf = io.BytesIO()
        stream = io.TextIOWrapper(buf, encoding="utf-8")
        with contextlib.redirect_stdout(stream):
            code = cli.main(argv)
        stream.flush()
        return code, buf.getvalue()

    def check(self, case, answer):
        return answer == case[2]


def _det_mod(rows, p=P):
    """Determinant mod p of a square matrix of ints, by elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    det = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] % p), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det = det * m[c][c] % p
        inv = pow(m[c][c], p - 2, p)
        for r in range(c + 1, n):
            f = m[r][c] * inv % p
            if f:
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[c])]
    return det % p


def _monomials(degree):
    return [
        tuple(combo.count(i) for i in range(3))
        for combo in combinations_with_replacement(range(3), degree)
    ]


_MONOS = {t: _monomials(t) for t in (1, 2, 3)}


def _eval_row(pt, t):
    row = []
    for e in _MONOS[t]:
        v = 1
        for a, k in zip(pt, e):
            v = v * pow(a, k, P) % P
        row.append(v)
    return row


def _in_general_position(pts, lin):
    """True when the points have the h-vector and CB/UPP answers the
    reference assumes.

    The failures that cost a single condition are the subsets of size
    dim R_t on a curve of degree t: 3 collinear points, 6 on a conic or 10
    on a cubic, one determinant each.  Every other failure needs two or
    more independent conditions.  The Artinian reduction also needs the
    linear form to vanish at none of the points.
    """
    if len({_projective_key(pt) for pt in pts}) != len(pts):
        return False
    if any(sum(a * b for a, b in zip(pt, lin)) % P == 0 for pt in pts):
        return False
    for t in (1, 2, 3):
        rows = [_eval_row(pt, t) for pt in pts]
        size = len(_MONOS[t])
        subsets = combinations(range(len(pts)), size)
        if any(_det_mod([rows[i] for i in sub]) == 0 for sub in subsets):
            return False
    return True


def _projective_key(pt):
    inv = pow(next(a for a in pt if a), P - 2, P)
    return tuple(a * inv % P for a in pt)


class PointsCB:
    """Twelve seeded general points in P^2: ideal by iterated intersection,
    h-vector, exhaustive CB/UPP, DGO, Betti table and WLP of an Artinian
    reduction."""

    name = "points_cb"
    round_size = 2
    pool_size = 8
    count = 12
    reference = {
        "h_vector": (1, 2, 3, 4, 2),
        "cb": True,
        "upp": True,
        "upp_exhaustive": True,
        "dgo": False,
        "betti": {"0": {"4": 3}, "1": {"6": 2}},
        "wlp": True,
    }

    def pool(self, seed):
        out = []
        for k in range(self.pool_size):
            rng = np.random.default_rng([seed, 4, k])
            while True:
                pts = [tuple(int(a) for a in rng.integers(1, P, size=3)) for _ in range(self.count)]
                lin = tuple(int(a) for a in rng.integers(1, P, size=3))
                if _in_general_position(pts, lin):
                    break
            out.append((pts, lin, (seed, 4, k)))
        return out

    def op(self, raw):
        pts, lin, wlp_seed = raw
        R = Ring(3, P)
        Z = gorenstein.PointSet(R, pts)
        I = Z.ideal()
        hv = Z.h_vector()
        rep = gorenstein.cayley_bacharach_check(Z)
        betti = resolution.classify(I)["betti"].to_json()
        artinian = I + Ideal(R, [_linear_form(R, lin)])
        return {
            "h_vector": hv,
            "cb": rep["cb"],
            "upp": rep["upp"],
            "upp_exhaustive": rep["upp_exhaustive"],
            "dgo": gorenstein.dgo_verify(Z, rep),
            "betti": betti,
            "wlp": gorenstein.wlp_check(artinian, rng=np.random.default_rng(wlp_seed)),
        }

    def check(self, raw, answer):
        return answer == self.reference


def make(name, root):
    """The workload called ``name``; ``root`` is the repository checkout."""
    if name == "cli_golden":
        return CLIGolden(root)
    return {"ci_quartic": CIQuartic, "gaeta_generic": GaetaGeneric, "points_cb": PointsCB}[name]()

