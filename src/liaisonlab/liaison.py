"""Linkage operations: direct links through Gorenstein ideals, invariant
transfer checks, basic double links, liaison addition, mapping-cone
resolution shapes and link-chain bookkeeping."""

from .errors import (
    CodimMismatch,
    MembershipViolation,
    NotGorensteinLink,
    NotRegularSequence,
    NotUnmixed,
    PreconditionFailed,
)
from .groebner import syzygies_of
from .hilbert import free_numerator
from .ideals import Ideal
from .resolution import (
    Resolution,
    classify,
    deficiency_table,
    dual_kernel,
    minimal_free_resolution,
    submodule_numerator,
)
from .ring import FreeModule


class LinkRecord:
    """One direct link J = c : I with its verification report."""

    __slots__ = ("c", "I", "J", "s", "verification")

    def __init__(self, c, I, J, s, verification):
        self.c = c
        self.I = I
        self.J = J
        self.s = s
        self.verification = verification

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


def direct_link(c, I, require_gorenstein=True):
    """Link I through the Gorenstein ideal c: J = c : I.

    The double colon c : J = I is verified; failure raises NotUnmixed (the
    signal that I was not unmixed, or that c was not a valid link).  Setting
    require_gorenstein=False skips the classification test on c; this exists
    to demonstrate how merely-ACM "links" break (and then NotUnmixed is the
    error that surfaces).
    """
    if require_gorenstein:
        cc = classify(c)
        if not cc["gorenstein"]:
            raise NotGorensteinLink("link ideal is not arithmetically Gorenstein")
    if c.codimension() != I.codimension():
        raise CodimMismatch(
            f"codim c = {c.codimension()} != codim I = {I.codimension()}"
        )
    if not I.contains_ideal(c):
        raise PreconditionFailed("link ideal is not contained in I")
    if c == I:
        raise PreconditionFailed("link ideal equals I")
    J = c.colon(I)
    back = c.colon(J)
    if back != I:
        raise NotUnmixed("double colon c : (c : I) differs from I")
    s = c.hilbert().reg_index - 1
    rec = LinkRecord(c, I, J, s, {})
    rec.verification = verify_link_invariants(rec)
    return rec


def _common_window(*ideals):
    n = ideals[0].ring.nvars
    reg = max(classify(i)["reg"] for i in ideals)
    return list(range(-n - 2, reg + 3))


def verify_link_invariants(rec):
    """Evaluate the transfer identities for one link; returns a report
    mapping check name -> bool (or None when not applicable)."""
    c, I, J, s = rec.c, rec.I, rec.J, rec.s
    n = c.ring.nvars - 1
    cod = c.codimension()
    hc, hI, hJ = c.hilbert(), I.hilbert(), J.hilbert()
    report = {}
    report["degree_additive"] = hI.degree + hJ.degree == hc.degree
    clsI, clsJ = classify(I), classify(J)
    report["acm_iff_acm"] = clsI["cm"] == clsJ["cm"]
    # CM transfer: from 0 -> K_{R/I}(1-r) -> R/c -> R/J -> 0 together with
    # h_{K_M}(m) = (-1)^dim [h_M - p_M](-m),
    #   h_{R/J}(j) = h_{R/c}(j) + (-1)^(n-cod) [h_{R/I} - p_{R/I}](s-j);
    # the polynomial correction vanishes on Artinian quotients.
    sign = (-1) ** (n - cod)
    if clsI["cm"] and clsJ["cm"]:
        ok = True
        top = max(s + 3, hc.reg_index + 2)
        for j in range(-2, top):
            if hJ.hf(j) != hc.hf(j) + sign * (hI.hf(s - j) - hI.hp(s - j)):
                ok = False
                break
        report["hilbert_identity"] = ok
    else:
        report["hilbert_identity"] = None
    if hI.dim == 2 and hJ.dim == 2:
        gI = 1 - hI.hp_coeffs[1]
        gJ = 1 - hJ.hp_coeffs[1]
        lhs = 2 * (gI - gJ)
        rhs = (rec.c.hilbert().reg_index - 1) * (hI.degree - hJ.degree)
        report["genus_difference"] = lhs == rhs
    else:
        report["genus_difference"] = None
    # cohomological duality: H^i_m(R/J) = H^{n+1-cod-i}_m(R/I)^v(-s)
    dimq = I.ring.nvars - cod
    if dimq >= 2:
        window = _common_window(I, J)
        lo = min(min(window), s - max(window)) - 1
        hi = max(max(window), s - min(window)) + 1
        wide = list(range(lo, hi + 1))
        tI = deficiency_table(I, wide)
        tJ = deficiency_table(J, wide)
        window = wide
        ok = True
        for i in range(1, dimq):
            idual = I.ring.nvars - cod - i
            for j in window:
                lhs = tJ[i][j]
                rhs = tI[idual][s - j] if idual >= 1 else 0
                if lhs != rhs:
                    ok = False
        report["cohomology_duality"] = ok
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
    if not J.colon_poly(f) == J:
        raise PreconditionFailed("f is a zero divisor modulo J: J : f != J")
    d = f.degree
    tilde = J + Ideal(I.ring, [f * g for g in I.gens_or_gb()])
    report = {"degree_shift": d}
    report["codim_preserved"] = tilde.codimension() == I.codimension()
    hilbert_ok = True
    hJ, hI, hT = J.hilbert(), I.hilbert(), tilde.hilbert()
    top = max(classify(I)["reg"], classify(J)["reg"]) + d + 3
    for t in range(0, top):
        if hT.hf(t) != hJ.hf(t) - hJ.hf(t - d) + hI.hf(t - d):
            hilbert_ok = False
            break
    report["hilbert_identity"] = hilbert_ok
    if check_cohomology:
        dimq = I.ring.nvars - I.codimension()
        window = _common_window(I, tilde)
        wid = list(range(min(window) - d - 1, max(window) + d + 1))
        tabI = deficiency_table(I, wid)
        tabT = deficiency_table(tilde, wid)
        ok = True
        for i in range(1, dimq):
            for j in window:
                if tabT[i][j] != tabI[i][j - d]:
                    ok = False
        report["cohomology_shift"] = ok
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
        total = total + Ideal(ring, [F * g for g in V.gens_or_gb()])
    report = {}
    report["saturated"] = total.saturate() == total
    ns = ring.nvars - 1
    dimz = ring.nvars - total.codimension()
    window = _common_window(total, *[V for V, _ in parts if not V.is_unit])
    tabZ = deficiency_table(total, window)
    parts_tabs = []
    for V, F in parts:
        if V.is_unit:
            parts_tabs.append((None, F.degree))
        else:
            wide = list(range(min(window) - F.degree - 1, max(window) + 1))
            parts_tabs.append((deficiency_table(V, wide), F.degree))
    ok = True
    for i in range(1, dimz):
        for j in window:
            expect = 0
            for tab, d in parts_tabs:
                if tab is not None and i in tab:
                    expect += tab[i][j - d]
            if tabZ[i][j] != expect:
                ok = False
    report["cohomology_direct_sum"] = ok
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
        total = {}
        sign = 1
        for st in self.stages:
            numer = dict(free_numerator(st["twists"]))
            for k, v in st.get("numerator", {}).items():
                numer[k] = numer.get(k, 0) + v
            for k, v in numer.items():
                total[k] = total.get(k, 0) + sign * v
            sign = -sign
        return {k: v for k, v in total.items() if v}

    def to_json(self):
        return {
            "target": self.target,
            "stages": [
                {
                    "twists": sorted(st["twists"]),
                    "module": st.get("module"),
                }
                for st in self.stages
            ],
        }


def _ideal_numerator(ideal):
    """Numerator of HS(I) (the ideal as a module)."""
    quot = ideal.hilbert().numerator
    out = {0: 1}
    for k, v in quot.items():
        out[k] = out.get(k, 0) - v
    return {k: v for k, v in out.items() if v}


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
    dualE, Egens = dual_kernel(FI, cod)
    e_numer = _shift_numer(submodule_numerator(dualE, Egens), s)
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
    # take the dual kernel of that presentation
    _, EJgens = dual_kernel(FJ, cod)
    P = FreeModule(ring, tuple(g.degree for g in EJgens), kind="pot")
    rel = syzygies_of(EJgens, P)
    pres = [(FreeModule(ring, tuple(r.degree for r in rel), kind="pot"), rel)] if rel else []
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
            "numerator": submodule_numerator(*dual_kernel(Resolution(P, pres), 0)),
        }
    )
    etype = ResolutionShape(estages, "E")

    target = _ideal_numerator(J)
    checks = {
        "n_type_numerator": ntype.alternating_numerator() == target,
        "e_type_numerator": etype.alternating_numerator() == target,
    }
    return ntype, etype, checks


def _shift_numer(numer, s):
    return {k + s: v for k, v in numer.items()}


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

    def even_shift_check(self, window=None):
        """For even chains: deficiency tables of the two ends agree after one
        global shift (trivially true when both vanish)."""
        if self.parity != "even" or not self.records:
            return None
        A, B = self.start, self.tail
        n1 = A.ring.nvars
        dimq = n1 - A.codimension()
        if dimq < 2:
            return True
        window = window or _common_window(A, B)
        spread = max(abs(min(window)), abs(max(window)))
        wide = list(range(min(window) - 3 * spread, max(window) + 3 * spread))
        tA = deficiency_table(A, wide)
        tB = deficiency_table(B, wide)
        suppA = [(i, j) for i in tA for j, v in tA[i].items() if v]
        suppB = [(i, j) for i in tB for j, v in tB[i].items() if v]
        if not suppA and not suppB:
            return True
        if bool(suppA) != bool(suppB):
            return False
        t = min(j for _, j in suppB) - min(j for _, j in suppA)
        for i in range(1, dimq):
            for j in window:
                if tB[i][j] != tA[i][j - t]:
                    return False
        return True

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
