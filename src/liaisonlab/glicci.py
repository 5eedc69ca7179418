"""Descents to complete intersections: the generalized Gaeta algorithm for
standard determinantal ideals and the basic-double-link descent for
Cohen-Macaulay stable (Borel-fixed) monomial ideals, with the lifting map
sending monomials to products of distinct linear forms.

Certificates record every elementary step (direct link or basic double
link) with full ideals, so replaying needs no recomputation decisions:
each step is re-derived from its inputs and compared for exact reduced-
basis equality (a link by `liaison.direct_link`, a basic double link by
its sum J + f I), and the end ideal must classify as a complete
intersection.

A Gaeta step tests that d and d' are regular on R/a by Hilbert series
(`Ideal.is_nonzerodivisor`) on the ideals a + dR and a + d'R, which it then
reuses: a + dR for Step II's colon (a + dR) : J = I, and both as the
Gorenstein links when c = 1.  Its two direct links are verified as
`liaison.direct_link` says; both link a Cohen-Macaulay ideal.  When c = 1,
Step II's colon is a direct link too, through the complete intersection
a + dR; so every colon of the descent of a t x (t + 1) matrix, and of
its replay, is a Gorenstein link and is given its known series.  The
descent carries each ideal of minors: the I' = I(A') one step links to is
the I of the next, built once, as are a + J^(c-1) and a + J^c within a
step.

Descent order for stable ideals: initial-degree descent with lifting
variable x_l (basic double links), switching to the next level l+1 when
the residual becomes the unit ideal (descending in codimension once the
initial degree is exhausted); the loop stops as soon as the current ideal is a
complete intersection.
"""

import numpy as np

from .errors import (
    CharacteristicTooSmall,
    GenericityFailure,
    LayerChainBroken,
    NotCM,
    NotMonomial,
    NotStable,
    StepIdentityFailed,
    VariableOutOfRange,
    WrongCodim,
)
from .ideals import Ideal, PolyMatrix
from .liaison import LINK_REJECTIONS, basic_double_link, direct_link
from .resolution import classify, is_complete_intersection


class GlicciCertificate:
    """Ordered elementary steps from a start ideal down to a complete
    intersection.  Steps compose; replay() re-derives every step."""

    __slots__ = ("start", "steps", "end")

    def __init__(self, start, steps, end):
        self.start = start
        self.steps = steps
        self.end = end

    def __len__(self):
        return len(self.steps)

    def replay(self):
        """Recompute each step from its inputs; exact equality throughout.
        A link step is rebuilt by `direct_link`, so its colon is certified
        by the link's known series; a step that `direct_link` rejects (c
        not Gorenstein, a codimension or containment failure, a mixed I,
        a series mismatch) replays as False."""
        cur = self.start
        for step in self.steps:
            if step["from"] != cur:
                return False
            if step["kind"] == "link":
                try:
                    linked = direct_link(step["c"], cur).J
                except LINK_REJECTIONS:
                    return False
                if linked != step["to"]:
                    return False
            elif step["kind"] == "bdl":
                rebuilt = step["j_cm"] + Ideal(
                    cur.ring, [step["f"] * g for g in step["to"].gens]
                )
                if rebuilt != cur:
                    return False
            else:
                return False
            cur = step["to"]
        return cur == self.end and is_complete_intersection(self.end)

    def to_json(self):
        out = {
            "start": self.start.canonical_strings(),
            "end": self.end.canonical_strings(),
            "steps": [],
        }
        for step in self.steps:
            if step["kind"] == "link":
                out["steps"].append(
                    {
                        "kind": "direct-link",
                        "c": step["c"].canonical_strings(),
                        "from": step["from"].canonical_strings(),
                        "to": step["to"].canonical_strings(),
                    }
                )
            else:
                out["steps"].append(
                    {
                        "kind": "basic-double-link",
                        "j": step["j_cm"].canonical_strings(),
                        "f": str(step["f"]),
                        "from": step["from"].canonical_strings(),
                        "to": step["to"].canonical_strings(),
                    }
                )
        return out


# -- Gaeta ------------------------------------------------------------------


def standard_determinantal(A):
    """Ideal of maximal minors of a t x (t+c) matrix, with the expected
    codimension c+1 enforced."""
    t = A.nrows
    c = A.ncols - t
    if c < 0:
        raise WrongCodim("matrix needs at least as many columns as rows")
    I = A.maximal_minors()
    if I.is_unit or I.is_zero or I.codimension() != c + 1:
        raise WrongCodim(
            f"minors do not have the expected codimension {c + 1}"
        )
    return I


def _rand_unit(rng, p):
    return int(rng.integers(1, p))


def _row_op(A, rng):
    """Random elementary row operation between equal-degree rows."""
    ring = A.ring
    pairs = [
        (i, k)
        for i in range(A.nrows)
        for k in range(A.nrows)
        if i != k and A.row_degs[i] == A.row_degs[k]
    ]
    if not pairs:
        return A
    i, k = pairs[int(rng.integers(0, len(pairs)))]
    lam = _rand_unit(rng, ring.p)
    rows = [list(r) for r in A.rows]
    rows[k] = [rows[k][j] + rows[i][j] * lam for j in range(A.ncols)]
    return PolyMatrix(ring, rows)


def _col_op(A, rng):
    ring = A.ring
    pairs = [
        (i, k)
        for i in range(A.ncols)
        for k in range(A.ncols)
        if i != k and A.col_degs[i] == A.col_degs[k]
    ]
    if not pairs:
        return A
    i, k = pairs[int(rng.integers(0, len(pairs)))]
    lam = _rand_unit(rng, ring.p)
    rows = [list(r) for r in A.rows]
    for r in rows:
        r[k] = r[k] + r[i] * lam
    return PolyMatrix(ring, rows)


def _gaeta_attempt(A, I):
    """One Gaeta descent step on a t x (t+c) matrix in the given basis; I = I(A).
    Step II's (a + dR) : J = I is `direct_link(a + dR, J)` when c = 1,
    where a + dR is a complete intersection of codim 2 = codim J, and a
    plain colon for c > 1; either way a miss raises StepIdentityFailed."""
    ring = A.ring
    t = A.nrows
    c = A.ncols - t
    B = A.submatrix(range(t), range(t + c - 1))
    a = B.maximal_minors()
    if a.is_unit or a.is_zero or a.codimension() != c:
        raise GenericityFailure("I(B) does not have codimension c")
    Aprime = B.submatrix(range(t - 1), range(t + c - 1))
    Iprime = Aprime.maximal_minors()
    if Iprime.is_unit or Iprime.is_zero or Iprime.codimension() != c + 1:
        raise GenericityFailure("I(A') does not have codimension c+1")
    A1 = A.submatrix(range(t), range(t - 1))
    J = A1.maximal_minors()
    if J.is_unit or J.is_zero or J.codimension() != 2:
        raise GenericityFailure("I(A_1) does not have codimension 2")
    d = A.submatrix(range(t), list(range(t - 1)) + [t + c - 1]).det()
    if d.is_zero:
        raise GenericityFailure("the auxiliary determinant vanishes")
    ad = a + Ideal(ring, [d])
    if not a.is_nonzerodivisor(d, ad):
        raise GenericityFailure("a : d != a for the chosen column")
    dprime = Aprime.submatrix(range(t - 1), range(t - 1)).det()
    if dprime.is_zero:
        raise GenericityFailure("the primed determinant vanishes")
    adp = a + Ideal(ring, [dprime])
    if not a.is_nonzerodivisor(dprime, adp):
        raise GenericityFailure("a : d' != a")

    # Step II identities (hard failures once genericity holds)
    try:
        back = direct_link(ad, J).J if c == 1 else ad.colon(J)
    except LINK_REJECTIONS as exc:
        raise StepIdentityFailed("(a + dR) : J = I failed") from exc
    if back != I:
        raise StepIdentityFailed("(a + dR) : J = I failed")
    Jc1 = J.power(c - 1)
    G = a + d * Jc1 if c > 1 else ad
    if not classify(G)["gorenstein"] or G.codimension() != c + 1:
        raise StepIdentityFailed("a + d J^(c-1) is not Gorenstein of codimension c+1")
    # a + J^(c-1) (when c > 1) and a + J^c, which both degree identities read
    mid_expected = a + J.power(c)
    mids = {c - 1: a + Jc1, c: mid_expected} if c > 1 else {c: mid_expected}
    dega = a.hilbert().degree
    degmid_c1 = mids[c - 1].hilbert().degree if c > 1 else 0
    if G.hilbert().degree != d.degree * dega + degmid_c1:
        raise StepIdentityFailed(
            "degree identity deg(a + dJ^(c-1)) = deg d * deg a + deg(a + J^(c-1)) failed"
        )
    # Step III degree formula for the powers that the descent uses
    degI = I.hilbert().degree
    for i, mid in mids.items():
        expect = i * (d.degree * dega - degI)
        got = mid.hilbert().degree
        if got != expect:
            raise StepIdentityFailed(
                f"deg(a + J^{i}) = i*(deg d * deg a - deg I) failed ({got} != {expect})"
            )
    rec1 = direct_link(G, I)
    if rec1.J != mid_expected:
        raise StepIdentityFailed("(a + dJ^(c-1)) : I = a + J^c failed")
    Gp = a + dprime * Jc1 if c > 1 else adp
    if not classify(Gp)["gorenstein"] or Gp.codimension() != c + 1:
        raise StepIdentityFailed("a + d' J^(c-1) is not Gorenstein of codimension c+1")
    rec2 = direct_link(Gp, Iprime)
    if rec2.J != mid_expected:
        raise StepIdentityFailed("(a + d'J^(c-1)) : I' = a + J^c failed")
    return {
        "A_next": Aprime,
        "I": I,
        "I_next": Iprime,
        "mid": mid_expected,
        "link_down": rec1,
        "link_up": rec2,
    }


def _gaeta_retry(A, I, rng):
    """Gaeta step on A, whose maximal minors generate I, with up to 25
    seeded retries for genericity; each row or column operation keeps I."""
    last = None
    for attempt in range(25):
        try:
            return _gaeta_attempt(A, I)
        except GenericityFailure as exc:
            last = exc
            # later retries mix harder
            for _ in range(1 + attempt // 3):
                A = _col_op(_row_op(A, rng), rng)
    raise GenericityFailure(f"no generic basis found after 25 retries: {last}")


def gaeta_step(A, rng=None):
    """Gaeta descent step with up to 25 seeded retries for genericity; I(A)
    is built once here, and each retry matrix must give the same ideal."""
    return _gaeta_retry(A, standard_determinantal(A), rng or np.random.default_rng(0))


def gaeta_run(A, rng=None):
    """Iterate Gaeta steps down to a 1-row matrix; replayable certificate.
    The I' = I(A') a step builds and links to is the next step's I, carried
    with its cached basis, Hilbert data and resolution, never rebuilt."""
    rng = rng or np.random.default_rng(0)
    I0 = standard_determinantal(A)
    steps = []
    cur_matrix, cur_ideal = A, I0
    while cur_matrix.nrows >= 2:
        st = _gaeta_retry(cur_matrix, cur_ideal, rng)
        steps.append(
            {"kind": "link", "c": st["link_down"].c, "from": cur_ideal, "to": st["mid"]}
        )
        steps.append(
            {"kind": "link", "c": st["link_up"].c, "from": st["mid"], "to": st["I_next"]}
        )
        cur_matrix, cur_ideal = st["A_next"], st["I_next"]
    if not is_complete_intersection(cur_ideal):
        raise StepIdentityFailed("descent did not end in a complete intersection")
    return GlicciCertificate(I0, steps, cur_ideal)


# -- stable monomial ideals --------------------------------------------------


def _monomial_gens(J):
    if not J.is_monomial():
        raise NotMonomial("operation requires a monomial ideal")
    return J.lt_exps()


def stable_check(J, first=0):
    """Exchange-closedness x_j/x_i (first <= j < i) on minimal generators;
    with first = 0 this is Borel-fixedness for large characteristic."""
    gens = _monomial_gens(J)
    nv = J.ring.nvars
    ltset = gens

    def member(e):
        return any(all(g[k] <= e[k] for k in range(nv)) for g in ltset)

    for m in gens:
        for i in range(first + 1, nv):
            if m[i] == 0:
                continue
            for j in range(first, i):
                e = list(m)
                e[i] -= 1
                e[j] += 1
                if not member(tuple(e)):
                    return False
    return True


class StableDecomposition:
    """Layers of a stable ideal along the lifting variable x_level:
    J = I_0 R + x_level * I' with I' = I_1 R + x_level I_2 R + ...;
    layer ideals live in the tail variables and form an ascending chain
    ending in the unit ideal."""

    __slots__ = ("ideal", "level", "alpha", "layers", "linear", "residual")

    def __init__(self, ideal, level, alpha, layers, linear, residual):
        self.ideal = ideal
        self.level = level
        self.alpha = alpha
        self.layers = layers
        self.linear = linear
        self.residual = residual


def _layer_data(J):
    """(level, linear gens, exps of the nonlinear part) for a descent state."""
    gens = _monomial_gens(J)
    nv = J.ring.nvars
    linear = sorted(
        next(i for i in range(nv) if g[i]) for g in gens if sum(g) == 1
    )
    if linear != list(range(len(linear))):
        raise NotStable("linear generators are not an initial variable segment")
    level = len(linear)
    rest = [g for g in gens if sum(g) > 1]
    for g in rest:
        if any(g[i] for i in range(level)):
            raise LayerChainBroken(
                "nonlinear generators meet the exhausted variables"
            )
    return level, linear, rest


def stable_decompose(J):
    """Split a CM stable monomial ideal along its lifting variable."""
    level, linear, rest = _layer_data(J)
    ring = J.ring
    if not stable_check(J, first=level):
        raise NotStable("ideal is not stable relative to its level")
    if not classify(J)["cm"]:
        raise NotCM("descent needs a Cohen-Macaulay ideal")
    if not rest:
        raise LayerChainBroken("nothing to decompose: the ideal is linear")
    alpha = min(sum(g) for g in rest)
    maxl = max(g[level] for g in rest)
    if maxl != alpha:
        raise LayerChainBroken(
            f"top power of the lifting variable is {maxl}, expected the initial degree {alpha}"
        )
    layers = []
    for k in range(alpha + 1):
        lay = [
            tuple(0 if i <= level else g[i] for i in range(ring.nvars))
            for g in rest
            if g[level] <= k
        ]
        layers.append(
            Ideal(ring, [ring.monomial(e) for e in lay]) if lay else Ideal(ring, [])
        )
    for k in range(alpha):
        if not layers[k + 1].contains_ideal(layers[k]):
            raise LayerChainBroken(f"layer {k} is not inside layer {k + 1}")
    if not layers[alpha].is_unit:
        raise LayerChainBroken("top layer is not the unit ideal")
    xl = ring.var(level)
    lin_polys = [ring.var(i) for i in linear]
    resid_gens = list(lin_polys)
    for k in range(1, alpha + 1):
        resid_gens += [xl ** (k - 1) * ring.monomial(e) for e in layers[k].lt_exps()]
    residual = Ideal(ring, resid_gens)
    # reconstruction: J = I_0 R + linear + x_level * I'
    rebuilt = Ideal(
        ring,
        lin_polys
        + [ring.monomial(e) for e in layers[0].lt_exps()]
        + [xl * g for g in residual.gens],
    )
    if rebuilt != J:
        raise LayerChainBroken("reconstruction J = I_0 R + x_l I' failed")
    dec = StableDecomposition(J, level, alpha, layers, linear, residual)
    # properties of the split
    if not layers[0].is_zero:
        base = Ideal(ring, lin_polys + [ring.monomial(e) for e in layers[0].lt_exps()])
        if not classify(base)["cm"]:
            raise NotCM("I_0 R is not Cohen-Macaulay")
        if base.codimension() != J.codimension() - 1:
            raise LayerChainBroken("I_0 R has unexpected codimension")
        if not residual.contains_ideal(base):
            raise LayerChainBroken("I_0 R is not inside the residual")
    if not classify(residual)["cm"]:
        raise NotCM("the residual is not Cohen-Macaulay")
    if residual.codimension() != J.codimension():
        raise LayerChainBroken("residual has unexpected codimension")
    return dec


def lift_map(mono, level=0):
    """Send a monomial in the tail variables to a product of linear forms:
    each x_j^a becomes x_j (x_j + x_l) ... (x_j + (a-1) x_l)."""
    ring = mono.ring
    if not 0 <= level < ring.nvars:
        raise VariableOutOfRange(f"lifting variable {level} outside the ring")
    if len(mono) != 1:
        raise NotMonomial("lifting map takes a single monomial")
    exps = mono.lt()[1]
    if any(exps[i] for i in range(level + 1)):
        raise NotMonomial("monomial must avoid the lifting variable")
    total = sum(exps)
    if ring.p <= total:
        raise CharacteristicTooSmall("prime too small for distinct shifts")
    xl = ring.var(level)
    out = ring.constant(mono.lc())
    for j, a in enumerate(exps):
        if a == 0:
            continue
        xj = ring.var(j)
        for i in range(a):
            out = out * (xj + xl.scale(i)) if i else out * xj
    return out


def glicci_descent(J):
    """Certificate of basic double links from a CM stable monomial ideal
    down to a complete intersection."""
    if not stable_check(J, first=_layer_data(J)[0]):
        raise NotStable("input is not stable")
    start = J
    steps = []
    cur = J
    guard = 0
    while not is_complete_intersection(cur):
        guard += 1
        if guard > 200:
            raise StepIdentityFailed("descent did not terminate")
        dec = stable_decompose(cur)
        ring = cur.ring
        xl = ring.var(dec.level)
        if dec.residual.is_unit:
            raise StepIdentityFailed(
                "unit residual on a non-complete-intersection state"
            )
        # lift the bottom layer and verify the split identities
        lin_polys = [ring.var(i) for i in dec.linear]
        lifted = [lift_map(ring.monomial(e), dec.level) for e in dec.layers[0].lt_exps()]
        j_cm = Ideal(ring, lin_polys + lifted)
        if not dec.residual.contains_ideal(j_cm):
            raise StepIdentityFailed("lambda(I_0) R is not inside the residual")
        tilde, report = basic_double_link(j_cm, dec.residual, xl, check_cohomology=False)
        if tilde != cur or not report["all"]:
            raise StepIdentityFailed("basic double link reconstruction failed")
        steps.append({"kind": "bdl", "from": cur, "to": dec.residual, "j_cm": j_cm, "f": xl})
        cur = dec.residual
    return GlicciCertificate(start, steps, cur)
