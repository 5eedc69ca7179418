"""Linkage operations: direct links through Gorenstein ideals, invariant
transfer checks, basic double links, liaison addition, mapping-cone
resolution shapes and link-chain bookkeeping.

A direct link J = c : I through a Gorenstein c is built by one colon and
checked, with no second one, on the Ext series of R/I: I must be unmixed,
which no Ext^i(R/I, R) of codimension i > codim c shows (Eisenbud, Huneke
& Vasconcelos, Invent. Math. 110, 1992), and HS(R/J) must be
HS(R/c) - t^T HS(Ext^g(R/I, R)) (see `direct_link`), the series that
also lets the colon stop at its first part.  A link ideal that
need not be Gorenstein is checked by the double colon c : J = I.

A direct link, a basic double link, a liaison addition and an even link
chain each state a graded isomorphism of deficiency modules (Migliore,
*Introduction to Liaison Theory and Deficiency Modules*).  Each is checked
as one equality of Ext series (`resolution.deficiency_numerator`), in every
degree at once, with no degree window.  A liaison addition is saturated
exactly when its depth is positive.  The basic double link's f is shown
regular on R/J by Hilbert series too (`Ideal.is_nonzerodivisor`).
"""

from .errors import (
    CodimMismatch,
    LinkSeriesMismatch,
    MembershipViolation,
    NotGorensteinLink,
    NotRegularSequence,
    NotUnmixed,
    PreconditionFailed,
    UnitIdeal,
)
from .groebner import syzygies_of
from .hilbert import HilbertData, add_numerators, degree_and_genus, free_numerator, shift_numerator
from .ideals import Ideal
from .resolution import (
    Resolution,
    classify,
    deficiency_numerator,
    dual_kernel,
    dual_kernel_numerator,
    ext_numerator,
    minimal_free_resolution,
    quotient_module,
)
from .ring import FreeModule


class LinkRecord:
    """One direct link J = c : I with its verification report."""

    __slots__ = ("c", "I", "J", "s", "_verification")

    def __init__(self, c, I, J, s):
        self.c = c
        self.I = I
        self.J = J
        self.s = s
        self._verification = None

    @property
    def verification(self):
        """The report of `verify_link_invariants`, built on first read."""
        if self._verification is None:
            self._verification = verify_link_invariants(self)
        return self._verification

    def __repr__(self):
        return f"Link(deg c={self.c.hilbert().degree}, deg I={self.I.hilbert().degree}, deg J={self.J.hilbert().degree})"

    def to_json(self):
        return {
            "c": self.c.canonical_strings(),
            "I": self.I.canonical_strings(),
            "J": self.J.canonical_strings(),
            "s": self.s,
            "degrees": {
                "c": self.c.hilbert().degree,
                "I": self.I.hilbert().degree,
                "J": self.J.hilbert().degree,
            },
            "verification": self.verification,
        }


# what `direct_link` raises for a pair (c, I) that it does not link
LINK_REJECTIONS = (CodimMismatch, LinkSeriesMismatch, NotGorensteinLink, NotUnmixed, PreconditionFailed, UnitIdeal)


def direct_link(c, I, require_gorenstein=True):
    """Link I through the Gorenstein ideal c: J = c : I, built by one colon.

    For g = codim c = codim I and R(-T) the last free module of the
    resolution of R/c, (c : I)/c = Hom(R/I, R/c) is Ext^g(R/I, R)(-T), and
    c : (c : I) = I when I is unmixed (Migliore, Sec. 5.2).  Both are read
    off the Ext numerators E_i of R/I (`_link_numerator`).  I has an
    associated prime of codimension i exactly when Ext^i(R/I, R) has
    codimension i (Eisenbud, Huneke & Vasconcelos, Thm 1.1), so NotUnmixed
    is raised, before any colon, when some E_i, i > g, has dimension
    nvars - i.  The Euler characteristic of the dual resolution,
    sum_i (-1)^i E_i(t) = N_I(1/t), then gives E_g, and J is checked against
        N(R/J) = N(R/c) - t^T E_g.
    The colon takes that numerator (`Ideal.colon`): the first colon c : f
    it computes, f a generator of I outside c, contains J, so when its
    series is this one it is J, and no other generator of I is looked at.
    A J whose series still differs raises LinkSeriesMismatch.  For
    Cohen-Macaulay R/I no E_i lies above g, and E_g is N_I reflected,
    (-1)^g N_I(1/t).

    require_gorenstein=False skips the classification test on c and checks
    the double colon c : J = I instead; this exists to demonstrate how
    merely-ACM "links" break (and then NotUnmixed is the error that
    surfaces).
    """
    if require_gorenstein and not classify(c)["gorenstein"]:
        raise NotGorensteinLink("link ideal is not arithmetically Gorenstein")
    if c.codimension() != I.codimension():
        raise CodimMismatch(
            f"codim c = {c.codimension()} != codim I = {I.codimension()}"
        )
    if not I.contains_ideal(c):
        raise PreconditionFailed("link ideal is not contained in I")
    if c == I:
        raise PreconditionFailed("link ideal equals I")
    if require_gorenstein:
        expect = _link_numerator(c, I)
        J = c.colon(I, expect)
        if J.hilbert().numerator != expect:
            raise LinkSeriesMismatch("HS(R/J) != HS(R/c) - t^T HS(Ext^g(R/I, R)) for J = c : I")
    else:
        J = c.colon(I)
        if c.colon(J) != I:
            raise NotUnmixed("double colon c : (c : I) differs from I")
    return LinkRecord(c, I, J, c.hilbert().reg_index - 1)


def _link_numerator(c, I):
    """N(R/c) - t^T E_g, for g = codim c, R(-T) the last free module of the
    resolution of R/c and E_i the numerator of Ext^i(R/I, R): the numerator
    of R/J for J = c : I when c is Gorenstein (see `direct_link`).  Raises
    NotUnmixed when some Ext^i(R/I, R), i > g, has codimension i."""
    cc = classify(c)
    g, T = cc["codim"], cc["betti"].tail_twist()
    M, nv = quotient_module(I), I.ring.nvars
    # (-1)^g E_g = N_I(1/t) - sum over i > g of (-1)^i E_i
    ext = {-k: v for k, v in I.hilbert().numerator.items()}
    for i in range(g + 1, M.resolution.length + 1):
        E = ext_numerator(M, i)
        if HilbertData(E, nv).dim == nv - i:  # {} reads as dimension nv, and i > g >= 1
            raise NotUnmixed(f"Ext^{i}(R/I, R) has codimension {i}: I has an associated prime of codimension {i} > {g}")
        ext = add_numerators(ext, E, -(-1) ** i)
    return add_numerators(c.hilbert().numerator, {T + k: (-1) ** g * v for k, v in ext.items()}, -1)


def _finite_length_series(X, i):
    """The Hilbert series of Ext^(nv-i)(R/X, R), a Laurent polynomial P with
    dim H^i_m(R/X)_j the coefficient of t^(-nv-j) (local duality), when that
    module has finite length; None when it has not."""
    numer = deficiency_numerator(X, i)
    if not numer:  # HilbertData would read {} as dimension nv
        return {}
    data = HilbertData(numer, X.ring.nvars)
    return data.reduced if data.dim == 0 else None


def verify_link_invariants(rec):
    """Evaluate the transfer identities for one link; returns a report
    mapping check name -> bool (or None when not applicable).

    Every check is exact, in every degree.  The Hilbert-function transfer
    of two Cohen-Macaulay ends is the identity `direct_link` checks.  The
    duality H^i_m(R/J) = H^{d-i}_m(R/I)^v(-s), 0 < i < d, compares the
    deficiency modules' series; it reads False unless each has finite
    length, since a module of infinite length is nonzero in infinitely
    many low degrees, where the dual of an Artinian one vanishes."""
    c, I, J, s = rec.c, rec.I, rec.J, rec.s
    hc, hI, hJ = c.hilbert(), I.hilbert(), J.hilbert()
    dimq = hc.dim  # = dim R/I = dim R/J: linked ideals share their codimension
    report = {}
    report["degree_additive"] = hI.degree + hJ.degree == hc.degree
    clsI, clsJ = classify(I), classify(J)
    report["acm_iff_acm"] = clsI["cm"] == clsJ["cm"]
    if clsI["cm"] and clsJ["cm"]:
        report["hilbert_identity"] = hJ.numerator == _link_numerator(c, I)
    else:
        report["hilbert_identity"] = None
    if hI.dim == 2 and hJ.dim == 2:
        lhs = 2 * (degree_and_genus(I)[1] - degree_and_genus(J)[1])
        rhs = (hc.reg_index - 1) * (hI.degree - hJ.degree)
        report["genus_difference"] = lhs == rhs
    else:
        report["genus_difference"] = None
    if dimq >= 2:  # P_J(t) = t^(-2nv-s) P_I(1/t), P from `_finite_length_series`
        top = -2 * c.ring.nvars - s
        pairs = ((_finite_length_series(J, i), _finite_length_series(I, dimq - i)) for i in range(1, dimq))
        report["cohomology_duality"] = all(
            None not in (pJ, pI) and pJ == {top - k: v for k, v in pI.items()} for pJ, pI in pairs
        )
    else:
        report["cohomology_duality"] = None
    report["all"] = all(v for v in report.values() if v is not None)
    return report


def basic_double_link(J, I, f, check_cohomology=True):
    """Basic double link  I~ = J + f*I  (J inside I, codim I = codim J + 1,
    R/J Cohen-Macaulay, J : f = J).  Returns (I~, report)."""
    if not I.contains_ideal(J):
        raise PreconditionFailed("J is not contained in I")
    if I.codimension() != J.codimension() + 1:
        raise PreconditionFailed("codim I must be codim J + 1")
    if not classify(J)["cm"]:
        raise PreconditionFailed("R/J is not Cohen-Macaulay")
    if not J.is_nonzerodivisor(f):
        raise PreconditionFailed("f is a zero divisor modulo J: J : f != J")
    d = f.degree
    tilde = J + Ideal(I.ring, [f * g for g in I.gens])
    report = {"degree_shift": d}
    report["codim_preserved"] = tilde.codimension() == I.codimension()
    # HS(R/I~) = (1 - t^d) HS(R/J) + t^d HS(R/I)
    nJ = J.hilbert().numerator
    expect = add_numerators(nJ, shift_numerator(nJ, d), -1)
    expect = add_numerators(expect, shift_numerator(I.hilbert().numerator, d))
    report["hilbert_identity"] = tilde.hilbert().numerator == expect
    if check_cohomology:
        # H^i_m(R/I~) = H^i_m(R/I)(-d)
        report["cohomology_shift"] = all(
            deficiency_numerator(tilde, i) == shift_numerator(deficiency_numerator(I, i), -d)
            for i in range(1, I.hilbert().dim)
        )
    report["all"] = all(v for k, v in report.items() if isinstance(v, bool))
    return tilde, report


def liaison_addition(parts):
    """I = sum F_i * I_{V_i} with F_i in every other ideal and (F_1..F_r) a
    regular sequence.  Unit ideals are allowed (empty summands).  Returns
    (Ideal, report)."""
    if len(parts) < 2:
        raise PreconditionFailed("liaison addition needs r >= 2 parts")
    ring = parts[0][0].ring
    r = len(parts)
    for i, (V, F) in enumerate(parts):
        if not F.is_homogeneous or F.is_zero:
            raise PreconditionFailed("multiplier polynomials must be nonzero homogeneous")
        for j, (W, _) in enumerate(parts):
            if i != j and not W.contains(F):
                raise MembershipViolation(
                    f"F_{i} does not lie in ideal #{j}"
                )
        if not (V.is_unit or V.codimension() >= r):
            raise PreconditionFailed(f"codim V_{i} < r")
    ci = Ideal(ring, [F for _, F in parts])
    if ci.codimension() != r:
        raise NotRegularSequence("the multipliers do not form a regular sequence")
    total = Ideal(ring, [])
    for V, F in parts:
        total = total + Ideal(ring, [F * g for g in V.gens])
    report = {}
    # Z^sat / Z is H^0_m(R/Z), which vanishes exactly when depth R/Z >= 1
    report["saturated"] = classify(total)["depth"] > 0

    def summed(i):
        # H^i_m(R/Z) = sum of the H^i_m(R/V_k)(-deg F_k), the top one of a
        # part of higher codimension included
        out = {}
        for V, F in parts:
            if not V.is_unit:
                out = add_numerators(out, shift_numerator(deficiency_numerator(V, i), -F.degree))
        return out

    report["cohomology_direct_sum"] = all(
        deficiency_numerator(total, i) == summed(i) for i in range(1, total.hilbert().dim)
    )
    report["all"] = all(v for v in report.values() if isinstance(v, bool))
    return total, report


# -- mapping cone shape prediction -----------------------------------------


class ResolutionShape:
    """Predicted resolution: stages of free twists plus at most one named
    non-free term per stage, with its series numerator for consistency
    checks."""

    __slots__ = ("stages", "target")

    def __init__(self, stages, target):
        self.stages = stages  # list of dicts {"twists": tuple, "module": name|None, "numerator": dict}
        self.target = target

    def alternating_numerator(self):
        """The alternating sum of the stage numerators, free part and
        named module together."""
        total = {}
        for k, st in enumerate(self.stages):
            stage = add_numerators(free_numerator(st["twists"]), st.get("numerator", {}))
            total = add_numerators(total, stage, (-1) ** k)
        return total


def mapping_cone_shapes(rec):
    """Predicted N-type and E-type resolution shapes of J from the link
    (c, I, J), per the interchange of E- and N-type resolutions under
    direct linkage.  Both predictions carry exact numerator checks."""
    c, I, J = rec.c, rec.I, rec.J
    ring = c.ring
    n = ring.nvars - 1
    cod = c.codimension()
    s = c.hilbert().reg_index + n
    D = minimal_free_resolution(c)
    dtw = {k: D.twists(k) for k in range(1, D.length + 1)}
    FI = minimal_free_resolution(I)
    ftw = {k: FI.twists(k) for k in range(1, FI.length + 1)}

    def dual_shift(tws):
        return tuple(s - a for a in tws)

    # N-type of J: 0 -> F1*(-s) -> D_{c-1} + F2*(-s) -> ... -> D_1 + E*(-s) -> J
    e_numer = shift_numerator(dual_kernel_numerator(FI, cod), s)
    stages = [
        {
            "twists": dtw.get(1, ()),
            "module": "E*(-s)",
            "numerator": e_numer,
        }
    ]
    for k in range(2, cod):
        stages.append(
            {"twists": tuple(dtw.get(k, ())) + dual_shift(ftw.get(cod - k + 1, ())), "module": None, "numerator": {}}
        )
    if cod >= 2:
        stages.append({"twists": dual_shift(ftw.get(1, ())), "module": None, "numerator": {}})
    ntype = ResolutionShape(stages, "N")

    # E-type of J via the N-type of I predicted from the reverse link:
    #   N(I)   = D_1 + E_J*(-s),   G_k(I) = D_k + (F^J_{c-k+1})*(-s)  (2<=k<c),
    #   G_c(I) = (F^J_1)*(-s).
    # Then E-type of J has stages D_m + G_{c-m+1}(I)*(-s) and tail N(I)*(-s).
    # Unwinding the double duals: stage 1 is D_1 + F^J_1; stage m (2<=m<c)
    # is D_m + D_{c-m+1}*(-s) + F^J_m; the tail is D_1*(-s) + E_J**.
    FJ = minimal_free_resolution(J)
    gtw = {k: FJ.twists(k) for k in range(1, FJ.length + 1)}
    # Hom(E_J^*, R): present E_J^* by the syzygies of its generators, then
    # read the numerator of the dual kernel of that presentation, with no
    # kernel computed
    _, EJgens = dual_kernel(FJ, cod)
    P = FreeModule(ring, tuple(g.degree for g in EJgens))
    rel = syzygies_of(EJgens, P)
    pres = [(FreeModule(ring, tuple(r.degree for r in rel)), rel)] if rel else []
    estages = [
        {"twists": tuple(dtw.get(1, ())) + tuple(gtw.get(1, ())), "module": None, "numerator": {}}
    ]
    for m in range(2, cod):
        estages.append(
            {
                "twists": tuple(dtw.get(m, ()))
                + dual_shift(dtw.get(cod - m + 1, ()))
                + tuple(gtw.get(m, ())),
                "module": None,
                "numerator": {},
            }
        )
    estages.append(
        {
            "twists": dual_shift(dtw.get(1, ())),
            "module": "N*(-s)",
            "numerator": dual_kernel_numerator(Resolution(P, pres), 0),
        }
    )
    etype = ResolutionShape(estages, "E")

    # HS(J) = HS(R) - HS(R/J)
    target = add_numerators({0: 1}, J.hilbert().numerator, -1)
    checks = {
        "n_type_numerator": ntype.alternating_numerator() == target,
        "e_type_numerator": etype.alternating_numerator() == target,
    }
    return ntype, etype, checks


# -- chains -----------------------------------------------------------------


class LinkChain:
    """Composable sequence of direct links; parity = length mod 2."""

    __slots__ = ("start", "records")

    def __init__(self, start, records=()):
        self.start = start
        self.records = tuple(records)

    @property
    def tail(self):
        return self.records[-1].J if self.records else self.start

    @property
    def parity(self):
        return "even" if len(self.records) % 2 == 0 else "odd"

    def extend(self, c, require_gorenstein=True):
        rec = direct_link(c, self.tail, require_gorenstein=require_gorenstein)
        return LinkChain(self.start, self.records + (rec,))

    def even_shift_check(self):
        """For even chains: the deficiency modules of the two ends agree
        after one global shift, an equality of series numerators in every
        degree (trivially true when both vanish).  The shift is read off the
        lowest degrees of the first pair with a nonzero side."""
        if self.parity != "even" or not self.records:
            return None
        A, B = self.start, self.tail
        pairs = [(deficiency_numerator(A, i), deficiency_numerator(B, i)) for i in range(1, A.hilbert().dim)]
        first = next(((a, b) for a, b in pairs if a or b), None)
        if first is None:
            return True
        a, b = first
        if not (a and b):
            return False
        t = min(b) - min(a)
        return all(nb == shift_numerator(na, t) for na, nb in pairs)

    def to_json(self):
        return {
            "start": self.start.canonical_strings(),
            "parity": self.parity,
            "links": [r.to_json() for r in self.records],
        }


def random_ci_inside(I, degrees, rng):
    """Complete intersection inside I with prescribed generator degrees:
    random combinations of Groebner basis elements, retried (seeded, at
    most 25 times) until the codimension is right."""
    ring = I.ring
    cod = I.codimension()
    if len(degrees) != cod:
        raise CodimMismatch("need codim-many degrees")
    gb = list(I.gb)
    for _ in range(25):
        forms = []
        for d in degrees:
            acc = ring.zero()
            for g in gb:
                dd = d - g.degree
                if dd < 0:
                    continue
                acc = acc + g * ring.random_poly(dd, rng)
            forms.append(acc)
        if any(f.is_zero or f.degree != d for f, d in zip(forms, degrees)):
            continue
        c = Ideal(ring, forms)
        if not c.is_unit and c.codimension() == cod and not c == I:
            return c
    raise NotRegularSequence("could not find a complete intersection inside I")
