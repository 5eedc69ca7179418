"""Minimal free resolutions, graded Betti tables, depth/CM/Gorenstein
classification, E-type truncations, Ext series and deficiency-module
Hilbert functions via local duality.

A Betti table, and with it pd and every invariant `classify` reports, is
read off a structure theorem when the ideal's codimension shows that one
applies, and off a resolution otherwise (`BettiTable.of_ideal`):
- Koszul: homogeneous f_1..f_r generating an ideal of codimension r form
  a regular sequence, and the Koszul complex on them is the minimal
  resolution (Bruns & Herzog, *Cohen-Macaulay Rings*, Sec. 1.6);
- Eagon-Northcott: the maximal minors of a t x (t + c) matrix with
  entries in the maximal ideal, when all C(t + c, t) of them are nonzero
  and their ideal has codimension c + 1, are resolved minimally by the
  Eagon-Northcott complex (Eisenbud, *Commutative Algebra*, App. A2.6),
  whose twists follow from the row and column degrees.
The maps of a resolution are only ever built by `resolve`: Ext, canonical
modules, E-type truncations, `ideal_module` and the mapping cones of
`liaison` read them.

Resolutions are built stage by stage: minimal generator selection by
graded Nakayama (`groebner.minimal_generators`, one run of the Buchberger
pair loop taking the generators degree by degree and dropping those that
reduce to zero), then the syzygies of the minimal generators.  There is
one syzygy path, `groebner.syzygies_of`: the tag-led S-pair remainders of
one tracked Buchberger run, a generating set and not a Groebner basis,
which is then minimised.  Every differential therefore has entries in the
maximal ideal and the Betti numbers are read off directly.

The stages are Hilbert-driven (Traverso, JSC 22, 1996; La Scala &
Stillman, JSC 26, 1998).  The series of the kernel K_k of F_k -> F_{k-1}
is known before its syzygies are made: HS(K_k) = HS(F_k) - HS(im d_k),
where HS(im d_1) is HS(F_0) less the module's numerator and im d_{k+1} is
K_k.  A stage runs the tracked pair loop only up to the initial degree of
K_k.  When that left no pair undone, it minimises what was recorded.
Otherwise the syzygies N recorded so far are certified: N is a submodule
of K_k, so it is all of K_k exactly when the series agree.  One untagged
pair loop on the recorded syzygies, run to the end, both minimises them
and gives the lead terms HS(N) is read from
(`groebner.generators_and_leads`).  When the series differ, the lowest
degree of the difference is the first where a generator is missing, and
the same run goes on up to it.  A zero kernel ends the resolution without
a run.  Pairs are done in degree order, so a bounded run's syzygies below
its lowest undone pair are the unbounded run's, in order, and each stage
keeps the same generators as one unbounded run would.

Everything dual goes through two steps: the transpose of a differential
(`Resolution.dual_columns`, built on `FreeModule.transpose`) and the
kernel of a transposed differential (`dual_kernel`).  Canonical modules
and the mapping-cone shapes of `liaison` are assembled from these.  Ext
enters only as exact Hilbert series (`ext_numerator`), which need no
kernel: in each degree a kernel's dimension is its source's less its
image's, and an image's numerator is read off the leading terms of the
transposed columns.
"""

import math
from collections import Counter
from itertools import combinations, combinations_with_replacement

from .errors import CohomologyMismatch, NotCM, ResolutionIncomplete, UnitIdeal, WrongCodim
from .groebner import buchberger, generators_and_leads, minimal_generators, syzygies_of
from .hilbert import add_numerators, free_numerator, quotient_numerator, series_hf
from .ring import FreeModule

# No function here calls `buchberger`; the name stays bound because the
# benchmark's tracer test calls `resolution.buchberger` (ROADMAP item 1a).
_BENCHMARK_BINDINGS = (buchberger,)


class Resolution:
    """Minimal graded free resolution of a presented module.

    stages[k] = (FreeModule F_{k+1}, columns) with columns the images of the
    generators of F_{k+1} inside F_k (stage -1 being F0).  The module itself
    is F0 / <stages[0] columns>.  _images caches `_image_numerator` by k.
    """

    __slots__ = ("F0", "stages", "_images")

    def __init__(self, F0, stages):
        self.F0 = F0
        self.stages = stages
        self._images = {}

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


def resolve(module):
    """Minimal free resolution of a presented module M = F0 / <relations>,
    each stage driven by its kernel's Hilbert series (see the module
    docstring).  When the module's numerator is not yet known, the pair
    loop that minimises the relations also gives it.  Hilbert's syzygy
    theorem bounds its length by nvars; a resolution still open after
    nvars + 2 stages raises."""
    F0 = module.F0
    ring = F0.ring
    stages = []
    if module._numerator is None:
        # one pair loop gives the minimal relations and the module's series
        mins, leads = generators_and_leads(module.relations)
        module._numerator = quotient_numerator(F0.twists, leads, ring.nvars)
    else:
        mins = minimal_generators(module.relations)
    # numerator of HS(im d_1) = HS(F_0) - HS(M)
    image = add_numerators(free_numerator(F0.twists), module.numerator, -1)
    for _ in range(ring.nvars + 2):
        if not mins:
            return Resolution(F0, stages)
        Fk = FreeModule(ring, tuple(g.degree for g in mins))
        stages.append((Fk, mins))
        # HS(K_k) = HS(F_k) - HS(im d_k), and K_k is im d_{k+1}
        image = add_numerators(free_numerator(Fk.twists), image, -1)
        mins = _kernel_generators(Fk, mins, image) if image else []
    raise ResolutionIncomplete("resolution did not terminate within the bound")


def _kernel_generators(F, gens, kernel):
    """Minimal generators of the kernel of F -> G, e_i -> gens[i], from one
    syzygy run bounded by the numerator of its Hilbert series: first at its
    initial degree, then, while pairs are left, up to each first degree
    where the syzygies so far are certified to miss a generator."""
    syz, done, more = syzygies_of(gens, top=min(kernel))
    while done < math.inf:
        # one pair loop minimises the syzygies and reads their span's series
        kept, leads = generators_and_leads(syz)
        span = add_numerators(free_numerator(F.twists), quotient_numerator(F.twists, leads, F.ring.nvars), -1)
        missing = add_numerators(kernel, span, -1)
        if not missing:
            return kept
        top = min(missing)
        if top < done or missing[top] < 0:
            raise ResolutionIncomplete(
                f"syzygies complete below degree {done} miss the kernel's series at degree {top}"
            )
        syz, done = more(top)
    return minimal_generators(syz)


class PresentedModule:
    """Graded module given as coker of relation columns in a free module."""

    __slots__ = ("F0", "relations", "_resolution", "_numerator")

    def __init__(self, F0, relations, numerator=None):
        """numerator: that of HS(F0 / <relations>) when the caller knows
        it; otherwise `resolve` reads it off the pair loop that minimises
        the relations."""
        self.F0 = F0
        self.relations = [r for r in relations if not r.is_zero]
        self._resolution = None
        self._numerator = numerator

    @property
    def ring(self):
        return self.F0.ring

    @property
    def resolution(self):
        if self._resolution is None:
            self._resolution = resolve(self)
        return self._resolution

    @property
    def numerator(self):
        if self._numerator is None:
            self.resolution  # `resolve` stores the numerator
        return self._numerator


def quotient_module(ideal):
    """R/I as a presented module (F0 = R at twist 0), built once per ideal,
    so every caller shares its resolution.  Its numerator is that of the
    ideal's cached Hilbert data."""
    if ideal._quotient is None:
        numerator = {} if ideal.is_unit else ideal.hilbert().numerator
        ideal._quotient = PresentedModule(ideal.ring.as_module, ideal.gens, numerator)
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
        """The table of the Koszul or Eagon-Northcott complex when its
        codimension test passes (`structure_twists`), else of `resolve`."""
        codim = ideal.codimension()
        twists = structure_twists(ideal, codim)
        if twists is None:
            res = minimal_free_resolution(ideal)
            twists = [res.twists(k) for k in range(1, res.length + 1)]
        entries = Counter((k, a) for k, tw in enumerate(twists) for a in tw)
        return cls(dict(entries), ideal.ring.nvars, codim)

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
    def num_generators(self):
        """Number of minimal generators of the ideal (row 0)."""
        return sum(r for (i, _), r in self.entries.items() if i == 0)

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

    def to_json(self):
        out = {}
        for (i, j), r in sorted(self.entries.items()):
            out.setdefault(str(i), {})[str(j)] = r
        return out

    def __repr__(self):
        return f"Betti({self.entries})"


def structure_twists(ideal, codim):
    """Twists of F_1, F_2, ... in the minimal resolution of R/I, read off the
    Koszul or the Eagon-Northcott complex when the codimension shows that
    one of them resolves R/I (see the module docstring); None otherwise.

    Koszul: F_k has one generator per k-subset of the generators, at the
    sum of their degrees.  Eagon-Northcott, for a t x (t + c) matrix with
    row twists u and column twists v (deg A[i][j] = v_j - u_i):
    F_{k+1} = wedge^{t+k} F (x) D_k(G^*) (x) wedge^t G^*, k = 0..c, with one
    generator per (t + k)-subset S of the columns and k-multiset a of the
    rows, at sum_S v - sum_a u - sum u.  A matrix with more rows than
    columns is read transposed, with rows and columns swapped and twists
    negated."""
    gens = ideal.gens
    if len(gens) == codim:
        degrees = [g.degree for g in gens]
        return [[sum(s) for s in combinations(degrees, k)] for k in range(1, codim + 1)]
    A = ideal.matrix
    if A is None:
        return None
    rows, cols = A.row_degs, A.col_degs
    if len(rows) > len(cols):
        rows, cols = [-v for v in cols], [-u for u in rows]
    t, c = len(rows), len(cols) - len(rows)
    if len(gens) != math.comb(t + c, t) or codim != c + 1:
        return None
    if any(f.degree < 1 for row in A.rows for f in row if not f.is_zero):
        return None  # a unit entry: the complex is not minimal
    top = sum(rows)
    return [
        [sum(S) - sum(a) - top for S in combinations(cols, t + k) for a in combinations_with_replacement(rows, k)]
        for k in range(c + 1)
    ]


def classify(ideal):
    """codim, pd, depth, CM?, CM type, Gorenstein?, reg of the ideal."""
    if ideal.is_unit or ideal.is_zero:
        raise UnitIdeal("classification needs a proper nonzero ideal")
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


def is_complete_intersection(ideal):
    """Whether the ideal has as many minimal generators as its codimension."""
    B = classify(ideal)["betti"]
    return B.num_generators == B.codim


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


# -- Ext series and deficiency tables ------------------------------------


def dual_kernel(res, k):
    """Generators of ker(d_{k+1}^T) inside F_k^*: the dual E^* of
    E = coker(d_{k+1}), all of F_k^* at the last stage.  Returns
    (F_k^*, generators)."""
    dual = res.free_module(k).dual()
    if k >= res.length:
        return dual, [dual.gen(c) for c in range(dual.rank)]
    return dual, syzygies_of(res.dual_columns(k + 1)[1], dual)


def _image_numerator(res, k):
    """Numerator of HS(im d_k^T) inside F_k^*, computed once per resolution
    and k; {} when k is outside 1..length (no such map)."""
    if not 1 <= k <= res.length:
        return {}
    if k not in res._images:
        res._images[k] = submodule_numerator(*res.dual_columns(k))
    return res._images[k]


def dual_kernel_numerator(res, k):
    """Numerator of HS(ker d_{k+1}^T), the module `dual_kernel` generates,
    with no kernel computed: in each degree the kernel's dimension is that
    of F_k^* less that of the image of d_{k+1}^T (rank and nullity)."""
    return add_numerators(free_numerator(res.free_module(k).dual().twists), _image_numerator(res, k + 1), -1)


def ext_numerator(module, i):
    """Series numerator of Ext^i(M, R) = ker d_{i+1}^T / im d_i^T, i.e.
    HS(F_i^*) - HS(im d_{i+1}^T) - HS(im d_i^T)."""
    res = module.resolution
    if i < 0 or i > res.length:
        return {}
    return add_numerators(dual_kernel_numerator(res, i), _image_numerator(res, i), -1)


def _lead_numerator(F, gens):
    """Numerator of HS(F / <gens>), read off the leading terms of a
    Groebner basis of the gens (`groebner.generators_and_leads`)."""
    return quotient_numerator(F.twists, generators_and_leads(gens)[1], F.ring.nvars)


def submodule_numerator(module, gens):
    """Numerator of HS(S) for the submodule S generated by gens."""
    return add_numerators(free_numerator(module.twists), _lead_numerator(module, gens), -1)


def deficiency_numerator(ideal_or_module, i):
    """Series numerator of Ext^{n+1-i}(M, R), which holds H^i_m(M) by local
    duality: dim H^i_m(M)_j = dim Ext^{n+1-i}(M, R)_{-n-1-j}."""
    M = (
        ideal_or_module
        if isinstance(ideal_or_module, PresentedModule)
        else quotient_module(ideal_or_module)
    )
    return ext_numerator(M, M.ring.nvars - i)


def _duality_tables(ideal_or_module, numerators, window):
    """{i: {j: coefficient of t^(-nvars-j) in the series of numerators[i]}}, j in window (local duality)."""
    nv = ideal_or_module.ring.nvars
    if window is None:
        window = range(-nv - 2, _regularity(ideal_or_module) + 4)
    window = list(window)
    return {i: {j: series_hf(numer, nv, -nv - j) for j in window} for i, numer in numerators.items()}


def _regularity(ideal_or_module):
    """reg M of a presented module M, the largest a - k over the twists a
    of its resolution's F_k; for an ideal I, reg I - 1 off its Betti table,
    which is reg R/I unless I is zero.  Default tables of M run over
    -nvars-2 .. reg M + 3, so those of I end at reg I + 2."""
    if isinstance(ideal_or_module, PresentedModule):
        res = ideal_or_module.resolution
        return max((a - k for k in range(res.length + 1) for a in res.twists(k)), default=0)
    return BettiTable.of_ideal(ideal_or_module).regularity - 1


def deficiency_hf(ideal_or_module, i, window):
    """dim_K H^i_m(M)_j for j in window (`deficiency_numerator`)."""
    return _duality_tables(ideal_or_module, {i: deficiency_numerator(ideal_or_module, i)}, window)[i]


def deficiency_table(ideal, window=None):
    """{i: {j: dim H^i_m(R/I)_j}} for i = 1..dim(R/I)-1 (projective dim X),
    by default on degrees -nvars-2 .. reg I + 2 (the zero ideal included)."""
    return _duality_tables(ideal, {i: deficiency_numerator(ideal, i) for i in range(1, ideal.hilbert().dim)}, window)


def is_acm(ideal):
    """Whether every deficiency module H^i_m(R/I), 0 < i < dim R/I, is 0."""
    return not any(deficiency_numerator(ideal, i) for i in range(1, ideal.hilbert().dim))


# -- E-type resolutions ----------------------------------------------------


def e_type_resolution(ideal, check=False):
    """Truncate the minimal free resolution of I at homological degree c-1.

    Returns (shape, E) where shape lists the twists of F_1..F_{c-1} (the
    free part, resolution of the ideal) and E is the (c-1)-st syzygy of I
    as a presented module.  With check=True the cohomology interchange
    H^i_m(E) = H^{i-c}_m(R/I) (c <= i <= n) is verified as an equality of
    series numerators (`deficiency_numerator`), in every degree at once,
    and CohomologyMismatch is raised on a mismatch.
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
        for i in range(c, ideal.ring.nvars):
            if deficiency_numerator(E, i) != deficiency_numerator(ideal, i - c):
                raise CohomologyMismatch(f"cohomology interchange failed at H^{i}_m(E)")
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
    F = FreeModule(ideal.ring, tuple(a + n1 for a in dual.twists))
    return PresentedModule(F, [F.rehome(v) for v in cols])


def tensor_presentation(M, N):
    """Presentation of M (x) N from presentations of M and N."""
    ring = M.ring
    rm, rn = M.F0.rank, N.F0.rank
    twists = tuple(
        M.F0.twists[i] + N.F0.twists[j] for i in range(rm) for j in range(rn)
    )
    F = FreeModule(ring, twists)
    # generator e_i (x) f_j sits at position i * rn + j
    rels = [F.rehome(a, range(j, rm * rn, rn)) for a in M.relations for j in range(rn)]
    rels += [F.rehome(b, range(i * rn, (i + 1) * rn)) for i in range(rm) for b in N.relations]
    return PresentedModule(F, rels)


def ideal_module(ideal):
    """The ideal I as a presented module (generators F_1, relations d_2)."""
    res = minimal_free_resolution(ideal)
    return PresentedModule(res.free_module(1), res.columns(2) if res.length >= 2 else [])


def ci_invariant_numerators(ideal):
    """{i: `deficiency_numerator` of K_{R/I} (x) I} for i = 1..n-3 (ACM,
    codim 3): exact, so the invariant vanishes exactly when each is {}."""
    cls = classify(ideal)
    if not cls["cm"]:
        raise NotCM("the invariant is defined for ACM subschemes")
    if cls["codim"] != 3:
        raise WrongCodim("the invariant needs codimension 3")
    n = ideal.ring.nvars - 1
    if n < 4:
        raise WrongCodim("needs ambient projective dimension >= 4")
    T = tensor_presentation(canonical_module(ideal), ideal_module(ideal))
    return {i: deficiency_numerator(T, i) for i in range(1, n - 2)}


def ci_invariant_tables(ideal, numerators, window=None):
    """Hilbert tables of the `ci_invariant_numerators` numerators, on window (default as in `deficiency_table`)."""
    return _duality_tables(ideal, numerators, window)


def ci_invariant_hf(ideal, window=None):
    """Hilbert tables of H^i_m(K_{R/I} (x) I) for i = 1..n-3 (ACM, codim 3)."""
    return ci_invariant_tables(ideal, ci_invariant_numerators(ideal), window)
