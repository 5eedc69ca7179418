"""Minimal free resolutions, graded Betti tables, depth/CM/Gorenstein
classification, E-type truncations, Ext modules and deficiency-module
Hilbert functions via local duality.

Resolutions are built stage by stage: minimal generator selection by
graded Nakayama (`groebner.minimal_generators`, one run of the Buchberger
pair loop taking the generators degree by degree and dropping those that
reduce to zero), then the syzygies of the minimal generators.  There is
one syzygy path, `groebner.syzygies_of`: the tag-led S-pair remainders of
one tracked Buchberger run, a generating set and not a Groebner basis,
which the next stage minimises.  Every differential
therefore has entries in the maximal ideal and the Betti numbers are read
off directly.

Everything dual goes through two steps: the transpose of a differential
(`Resolution.dual_columns`, built on `FreeModule.transpose`) and the
kernel of a transposed differential (`dual_kernel`).  Ext modules, their
Hilbert numerators, canonical modules and the mapping-cone shapes of
`liaison` are all assembled from these.
"""

import numpy as np

from .errors import NotCM, UnitIdeal, WrongCodim
from .groebner import buchberger, lift_coordinates, minimal_generators, syzygies_of
from .hilbert import HilbertData, free_numerator, quotient_numerator, series_hf
from .ring import FreeModule


class Resolution:
    """Minimal graded free resolution of a presented module.

    stages[k] = (FreeModule F_{k+1}, columns) with columns the images of the
    generators of F_{k+1} inside F_k (stage -1 being F0).  The module itself
    is F0 / <stages[0] columns>.
    """

    __slots__ = ("F0", "stages")

    def __init__(self, F0, stages):
        self.F0 = F0
        self.stages = stages

    @property
    def length(self):
        return len(self.stages)

    def free_module(self, k):
        """F_k (k = 0 .. length)."""
        if k == 0:
            return self.F0
        return self.stages[k - 1][0]

    def columns(self, k):
        """Columns of d_k : F_k -> F_{k-1} (k = 1 .. length)."""
        return self.stages[k - 1][1]

    def twists(self, k):
        return self.free_module(k).twists

    def dual_columns(self, k):
        """Columns of the transposed map d_k^T : F_{k-1}^* -> F_k^*.

        Returns (module F_k^*, columns indexed by the generators of
        F_{k-1}^*).
        """
        return self.free_module(k).transpose(self.columns(k))


def resolve(F0, relation_gens):
    """Minimal free resolution of  F0 / <relation_gens>.  Hilbert's syzygy
    theorem bounds its length by nvars; a resolution still open after
    nvars + 2 stages raises."""
    ring = F0.ring
    stages = []
    cur = [g for g in relation_gens if not g.is_zero]
    for _ in range(ring.nvars + 2):
        if not cur:
            break
        mins = minimal_generators(cur)
        Fk = FreeModule(ring, tuple(g.degree for g in mins), kind="pot")
        stages.append((Fk, mins))
        cur = [s for s in syzygies_of(mins) if not s.is_zero]
    if cur:
        raise AssertionError("resolution did not terminate within the bound")
    return Resolution(F0, stages)


class PresentedModule:
    """Graded module given as coker of relation columns in a free module."""

    __slots__ = ("F0", "relations", "_resolution", "_numerator")

    def __init__(self, F0, relations):
        self.F0 = F0
        self.relations = [r for r in relations if not r.is_zero]
        self._resolution = None
        self._numerator = None

    @property
    def ring(self):
        return self.F0.ring

    @property
    def resolution(self):
        if self._resolution is None:
            self._resolution = resolve(self.F0, self.relations)
        return self._resolution

    @property
    def numerator(self):
        if self._numerator is None:
            if not self.relations:
                self._numerator = free_numerator(self.F0.twists)
            else:
                gb = buchberger(self.relations)
                lts = [(int(g.exps[0, 0]), tuple(int(x) for x in g.exps[0, 1:])) for g in gb]
                self._numerator = quotient_numerator(
                    self.F0.twists, lts, self.ring.nvars
                )
        return self._numerator

    def hf(self, j):
        return series_hf(self.numerator, self.ring.nvars, j)

    def hilbert(self):
        return HilbertData(self.numerator, self.ring.nvars)


def quotient_module(ideal):
    """R/I as a presented module (F0 = R at twist 0), built once per ideal,
    so every caller shares its resolution."""
    if ideal._quotient is None:
        F0 = FreeModule(ideal.ring, (0,), kind="pot")
        rels = [F0.inject(g, 0) for g in ideal.gens_or_gb()]
        ideal._quotient = PresentedModule(F0, rels)
    return ideal._quotient


def minimal_free_resolution(ideal):
    """Minimal free resolution of R/I (cached with its quotient module)."""
    return quotient_module(ideal).resolution


class BettiTable:
    """Graded Betti numbers of the minimal free resolution of R/I, indexed
    by the resolution of the ideal: row i=0 holds the minimal generators."""

    __slots__ = ("entries", "nv", "codim")

    def __init__(self, entries, nv, codim):
        self.entries = entries  # {(i, j): rank}
        self.nv = nv
        self.codim = codim

    @classmethod
    def of_ideal(cls, ideal):
        res = minimal_free_resolution(ideal)
        entries = {}
        for k in range(1, res.length + 1):
            for a in res.twists(k):
                entries[(k - 1, a)] = entries.get((k - 1, a), 0) + 1
        return cls(entries, ideal.ring.nvars, ideal.codimension())

    @property
    def pd(self):
        """Projective dimension of R/I."""
        if not self.entries:
            return 0
        return max(i for i, _ in self.entries) + 1

    @property
    def depth(self):
        return self.nv - self.pd

    @property
    def regularity(self):
        """Castelnuovo-Mumford regularity of the ideal."""
        return max(j - i for i, j in self.entries) if self.entries else 0

    @property
    def cm_type(self):
        tail = self.pd - 1
        return sum(r for (i, j), r in self.entries.items() if i == tail)

    @property
    def is_cm(self):
        return self.pd == self.codim

    @property
    def is_gorenstein(self):
        return self.is_cm and self.cm_type == 1

    def tail_twist(self):
        tail = self.pd - 1
        return max(j for (i, j) in self.entries if i == tail)

    def rows(self):
        return sorted(self.entries.items())

    def to_json(self):
        out = {}
        for (i, j), r in sorted(self.entries.items()):
            out.setdefault(str(i), {})[str(j)] = r
        return out

    def __repr__(self):
        return f"Betti({self.entries})"


def koszul_betti_entries(degrees):
    """Graded Betti numbers (ideal-indexed) of a Koszul resolution."""
    from itertools import combinations

    entries = {}
    for i in range(1, len(degrees) + 1):
        for S in combinations(degrees, i):
            j = sum(S)
            entries[(i - 1, j)] = entries.get((i - 1, j), 0) + 1
    return entries


def classify(ideal):
    """codim, pd, depth, CM?, CM type, Gorenstein?, reg of the ideal."""
    if ideal.is_unit or ideal.is_zero:
        raise UnitIdeal("classification needs a proper nonzero ideal")
    if getattr(ideal, "ci_degrees", None):
        # complete intersections carry their Koszul table, no recomputation
        B = BettiTable(
            koszul_betti_entries(ideal.ci_degrees),
            ideal.ring.nvars,
            len(ideal.ci_degrees),
        )
    else:
        B = BettiTable.of_ideal(ideal)
    out = {
        "codim": B.codim,
        "pd": B.pd,
        "depth": B.depth,
        "cm": B.is_cm,
        "cm_type": B.cm_type,
        "gorenstein": B.is_gorenstein,
        "reg": B.regularity,
        "betti": B,
    }
    if out["gorenstein"]:
        # tail twist a, codimension c and socle degree s satisfy a - c = s
        hv = ideal.hilbert().h_vector
        s = len(hv) - 1
        a = B.tail_twist()
        out["socle_check"] = a - B.codim == s
        out["h_vector_symmetric"] = tuple(hv) == tuple(reversed(hv))
    return out


def self_duality_check(ideal_or_betti):
    """Betti symmetry beta_{i,j}(R/I) = beta_{c-i, a-j}(R/I) for CM ideals."""
    B = ideal_or_betti if isinstance(ideal_or_betti, BettiTable) else BettiTable.of_ideal(ideal_or_betti)
    if not B.is_cm:
        raise NotCM("self-duality test needs a Cohen-Macaulay table")
    c = B.codim
    a = B.tail_twist()
    # table over R/I: row 0 = {0: 1}, row k = ideal row k-1
    table = {(0, 0): 1}
    for (i, j), r in B.entries.items():
        table[(i + 1, j)] = r
    for i in range(c + 1):
        for j in set(jj for (ii, jj) in table if ii == i) | set(
            a - jj for (ii, jj) in table if ii == c - i
        ):
            if table.get((i, j), 0) != table.get((c - i, a - j), 0):
                return False
    return True


# -- Ext modules and deficiency tables ------------------------------------


def dual_kernel(res, k):
    """Generators of ker(d_{k+1}^T) inside F_k^*: the dual E^* of
    E = coker(d_{k+1}), all of F_k^* at the last stage.  Returns
    (F_k^*, generators)."""
    dual = res.free_module(k).dual()
    if k >= res.length:
        return dual, [dual.gen(c) for c in range(dual.rank)]
    return dual, syzygies_of(res.dual_columns(k + 1)[1], dual)


def _numerator_difference(a, b):
    return {k: v for k, v in ((k, a.get(k, 0) - b.get(k, 0)) for k in set(a) | set(b)) if v}


def ext_numerator(module, i):
    """Series numerator of Ext^i(M, R) = ker d_{i+1}^T / im d_i^T."""
    res = module.resolution
    if i < 0 or i > res.length:
        return {}
    dual, ker = dual_kernel(res, i)
    im = res.dual_columns(i)[1] if i >= 1 else []
    return _numerator_difference(submodule_numerator(dual, ker), submodule_numerator(dual, im))


def submodule_numerator(module, gens):
    """Numerator of HS(S) for the submodule S generated by gens."""
    if not gens:
        return {}
    gb = buchberger(gens)
    lts = [(int(g.exps[0, 0]), tuple(int(x) for x in g.exps[0, 1:])) for g in gb]
    quot = quotient_numerator(module.twists, lts, module.ring.nvars)
    return _numerator_difference(free_numerator(module.twists), quot)


def ext_hf(module, i, degrees):
    """dim_K Ext^i(M, R)_j for j in degrees."""
    numer = ext_numerator(module, i)
    nv = module.ring.nvars
    return [series_hf(numer, nv, j) for j in degrees]


def ext_module(module_or_ideal, i):
    """Ext^i(M, R) as a presented module.

    Generators: the kernel of d_{i+1}^T inside F_i^*; relations: the image
    of d_i^T expressed in kernel coordinates, plus the kernel syzygies.
    """
    M = (
        module_or_ideal
        if isinstance(module_or_ideal, PresentedModule)
        else quotient_module(module_or_ideal)
    )
    res = M.resolution
    ker = dual_kernel(res, i)[1] if 0 <= i <= res.length else []
    if not ker:
        return PresentedModule(FreeModule(M.ring, (), kind="pot"), [])
    Q = FreeModule(M.ring, tuple(g.degree for g in ker), kind="pot")
    rels = syzygies_of(ker, Q)
    if i >= 1:
        rels += lift_coordinates(ker, res.dual_columns(i)[1])
    return PresentedModule(Q, rels)


def deficiency_hf(ideal_or_module, i, window):
    """dim_K H^i_m(M)_j for j in window, via local duality:
    H^i_m(M)^v = Ext^{n+1-i}(M, R)(-n-1)."""
    M = (
        ideal_or_module
        if isinstance(ideal_or_module, PresentedModule)
        else quotient_module(ideal_or_module)
    )
    n1 = M.ring.nvars
    numer = ext_numerator(M, n1 - i)
    return {j: series_hf(numer, n1, -n1 - j) for j in window}


def default_window(ideal):
    n = ideal.ring.nvars
    reg = classify(ideal)["reg"]
    return range(-n - 2, reg + 3)


def deficiency_table(ideal, window=None):
    """{i: {j: dim H^i_m(R/I)_j}} for i = 1..dim(R/I)-1 (projective dim X)."""
    window = list(window) if window is not None else list(default_window(ideal))
    dim = ideal.ring.nvars - ideal.codimension()
    M = quotient_module(ideal)
    return {i: deficiency_hf(M, i, window) for i in range(1, dim)}


def is_acm(ideal, window=None):
    tab = deficiency_table(ideal, window)
    return all(all(v == 0 for v in row.values()) for row in tab.values())


# -- E-type resolutions ----------------------------------------------------


def e_type_resolution(ideal, check=False, window=None):
    """Truncate the minimal free resolution of I at homological degree c-1.

    Returns (shape, E) where shape lists the twists of F_1..F_{c-1} (the
    free part, resolution of the ideal) and E is the (c-1)-st syzygy of I
    as a presented module.  With check=True the cohomology interchange
    H^i_m(E) = H^{i-c}_m(R/I) is verified degreewise on a window (finite
    pieces only) and an AssertionError is raised on mismatch.
    """
    c = ideal.codimension()
    if c < 2:
        raise WrongCodim("E-type truncation needs codimension >= 2")
    res = minimal_free_resolution(ideal)
    # resolution of the ideal: G_k = F_{k+1} of R/I
    shape = [res.twists(k) for k in range(1, c)]
    # E is generated by F_c, whose relations d_{c+1} live in a copy of F_c
    E = PresentedModule(res.free_module(c), res.columns(c + 1) if res.length > c else [])
    if check:
        n1 = ideal.ring.nvars
        win = list(window) if window is not None else list(default_window(ideal))
        M = quotient_module(ideal)
        for i in range(c, n1):
            if deficiency_hf(E, i, win) != deficiency_hf(M, i - c, win):
                raise AssertionError(
                    f"cohomology interchange failed at H^{i}_m(E)"
                )
    return shape, E


def canonical_module(ideal):
    """K_{R/I} = coker(d_c^T)(-n-1) for a CM ideal (codim c)."""
    cls = classify(ideal)
    if not cls["cm"]:
        raise NotCM("canonical module via the dualized resolution needs CM")
    c = cls["codim"]
    res = minimal_free_resolution(ideal)
    dual, cols = res.dual_columns(c)
    n1 = ideal.ring.nvars
    F = FreeModule(ideal.ring, tuple(a + n1 for a in dual.twists), kind="pot")
    return PresentedModule(F, [F.rehome(v) for v in cols])


def tensor_presentation(M, N):
    """Presentation of M (x) N from presentations of M and N."""
    ring = M.ring
    rm, rn = M.F0.rank, N.F0.rank
    twists = tuple(
        M.F0.twists[i] + N.F0.twists[j] for i in range(rm) for j in range(rn)
    )
    F = FreeModule(ring, twists, kind="pot")
    # generator e_i (x) f_j sits at position i * rn + j
    rels = [F.rehome(a, np.arange(rm) * rn + j) for a in M.relations for j in range(rn)]
    rels += [F.rehome(b, i * rn + np.arange(rn)) for i in range(rm) for b in N.relations]
    return PresentedModule(F, rels)


def ideal_module(ideal):
    """The ideal I as a presented module (generators F_1, relations d_2)."""
    res = minimal_free_resolution(ideal)
    return PresentedModule(res.free_module(1), res.columns(2) if res.length >= 2 else [])


def ci_invariant_hf(ideal, window=None):
    """Hilbert tables of H^i_m(K_{R/I} (x) I) for i = 1..n-3 (ACM, codim 3)."""
    cls = classify(ideal)
    if not cls["cm"]:
        raise NotCM("the invariant is defined for ACM subschemes")
    if cls["codim"] != 3:
        raise WrongCodim("the invariant needs codimension 3")
    n = ideal.ring.nvars - 1
    if n < 4:
        raise WrongCodim("needs ambient projective dimension >= 4")
    K = canonical_module(ideal)
    Imod = ideal_module(ideal)
    T = tensor_presentation(K, Imod)
    if window is None:
        window = range(-n - 3, cls["reg"] + 3)
    return {i: deficiency_hf(T, i, list(window)) for i in range(1, n - 2)}
