"""Buchberger engine for ideals and submodules of graded free modules.

One pair loop (`_pair_loop`) does all the work.  It is the homogeneous
Buchberger algorithm run degree by degree (Kreuzer-Robbiano,
Computational Commutative Algebra 2, Ch. 4): the inputs are admitted in
(degree, leading key) order, and before an input of degree d comes in,
every pending S-pair of degree <= d is done.  The input is reduced against
that truncated basis, and one whose normal form is zero is reported as
redundant; an input whose lead no basis lead divides keeps that lead, so
it is admitted as it stands, unreduced.  Pairs are taken by true degree
(twists included), smallest lcm first, and pruned by Buchberger's product
criterion (rank 1, the ring up to a twist) and the chain criterion
(Gebauer-Moeller, JSC 6, 1988).  `buchberger` returns the canonical
reduced basis, deterministic for a fixed input ideal regardless of
generator order.

Reduction goes through a `_kernels.Reducers` table, which prepares each
basis element once; a `GroebnerBasis` builds its table when first used.
Elements hold their terms packed (see `ring`), so the loop keeps one table
and hands terms to the kernels as they stand: an S-pair is seeded from the
two elements' table tails, shifted by the packed lcm of their leads
(`Reducers.s_pair`), and reduced by `_kernels.reduce_packed`; a remainder
comes back packed, is made monic on its coefficient list and joins the
basis and the table as it is.  The pair bookkeeping is plain Python on the
basis' leads, kept per position as exponent tuples with their packed ints:
an admission pairs the new element with the leads at its position only,
builds each lcm as a tuple and packs it as the new lead's packed int plus
the unit shift of each variable it rises in (packing is linear), and a
popped pair scans the same leads for the chain criterion.

`minimal_generators` is one run of the loop, stopped after its last
input: the generators it does not report redundant are a minimal
generating set (graded Nakayama).  `generators_and_leads` is the same run
taken to the end, with no tags and no interreduction: besides the minimal
generators, its basis' leads generate the lead-term module, which is all
a Hilbert series needs.

Syzygies come out of the same pair loop, run once on the tracked
generators (g_i, e_{r+i}) in F + R^m, F of rank r dominant
(`_augmented_basis`).  The rule: a remainder led by a tag position (>= r)
has no F part, so its tag part is a syzygy; it is recorded, never added
to the basis and never paired.  By Schreyer's theorem (Eisenbud,
Commutative Algebra, Thm 15.10) and the chain criterion (Gebauer-Moeller),
the recorded syzygies generate the syzygy module.  The F-led elements are
a Groebner basis of <g> that carries coordinates in its tag part:
`lift_coordinates` reduces against it.  Neither part is interreduced.
`syzygies_of` can stop the run at a degree bound and go on with it
later.  Pairs go in degree order, so the syzygies recorded are the first
ones the unbounded run records, all of degree below the lowest pair left,
and they generate the syzygies in those degrees.  `resolution.resolve`
bounds each stage at its kernel's initial degree and goes on only when a
generator is missing.

`annihilator` tracks one element v and leaves the relations untagged, so
the recorded tag parts are the ring elements a with a*v in the span of the
relations (colon ideals and intersections, Greuel-Pfister, A Singular
Introduction to Commutative Algebra, Sec. 2.8).
"""

import heapq
import math
from operator import le

from . import _kernels as K
from .errors import RingMismatch
from .ring import FreeModule


class GroebnerBasis:
    """A Groebner basis (`buchberger` returns the reduced one); the elements
    share one module, and their reducer table is built when first needed."""

    __slots__ = ("module", "elements", "_reducers")

    def __init__(self, module, elements):
        self.module = module
        self.elements = tuple(elements)
        self._reducers = None

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    def __eq__(self, other):
        return (
            isinstance(other, GroebnerBasis)
            and self.module == other.module
            and len(self.elements) == len(other.elements)
            and all(a == b for a, b in zip(self.elements, other.elements))
        )

    def reducers(self):
        if self._reducers is None:
            self._reducers = _reducers(self.elements)
        return self._reducers

    def __repr__(self):
        return f"GB<{len(self.elements)} elements>"


def _reducers(elements):
    """A reducer table of nonzero elements, in order."""
    table = K.Reducers(elements[0].module.packing)
    for g in elements:
        table.append(g.packed, g.coeffs, g.ring.p)
    return table


def _reduce(f, table):
    if not len(table):
        return f
    return f._wrap(*K.normal_form_arrays(f.packed, f.coeffs, table, f.ring.p))


def normal_form(f, G):
    """Full normal form of f against a GroebnerBasis (or element list)."""
    if isinstance(G, GroebnerBasis):
        if f.module != G.module:
            raise RingMismatch("normal form in a different module")
        return _reduce(f, G.reducers())
    G = [g for g in G if not g.is_zero]
    if not G:
        return f
    for g in G:
        if f.module is not g.module and f.module != g.module:
            raise RingMismatch("normal form in a different module")
    return _reduce(f, _reducers(G))


def _admission_key(g):
    """(degree, leading key): the order in which the pair loop takes inputs.
    A larger key packs to a smaller int."""
    return g.degree, -g.packed[0]


def buchberger(gens):
    """Reduced Groebner basis of the submodule generated by gens."""
    gens = list(gens)
    if not gens:
        raise ValueError("no generators")
    module = gens[0].module
    for g in gens:
        if g.module != module:
            raise RingMismatch("generators from different modules")
    # no position reaches the rank, so no remainder is set aside
    basis = _pair_loop(gens, module.rank)[0]
    return GroebnerBasis(module, interreduce(basis))


def _pair_loop(gens, boundary, top=math.inf):
    """Buchberger's pair loop over gens, elements of one module, run degree
    by degree.

    The nonzero inputs are admitted in (degree, leading key) order; zero
    ones are skipped.  Before an input of degree d is admitted, every
    pending pair of degree <= d is done, so the basis is a Groebner basis,
    up to degree d, of the inputs admitted so far; the input is then
    reduced against it.  A zero remainder means the input lies in the span
    of the inputs before it.  An input whose lead no basis lead at its
    position divides is not reduced: its normal form would keep that lead,
    so it is nonzero, and the input itself spans the same as its normal
    form with the basis.  It is admitted as it stands, tail unreduced.
    After the last input, the pending pairs of degree <= top are done.

    Returns (basis, syzygies, redundant, resume): redundant holds the
    indices of the inputs whose remainder was zero.  A nonzero remainder,
    of an input or of an S-pair, whose leading term sits at a position >=
    boundary goes to syzygies: it is never added to the basis and never
    paired.  Every other one joins the basis, which is returned as it
    stands (not interreduced): with top infinite, each of its S-pairs
    reduces to zero or to a recorded syzygy.  resume(t) goes on with the
    same run, doing the pending pairs of degree <= t and adding to the
    three lists, and returns done, the lowest degree of a pair left undone
    (inf when none is left).  The run is the unbounded one cut short:
    pairs are done in degree order, a remainder has its pair's degree, and
    a pair's degree exceeds its elements' (no basis lead divides a new
    one), so every remainder so far has degree below done and the unbounded
    run records only syzygies of degree >= done after them.
    """
    module = gens[0].module
    p, twists, packing = module.ring.p, module.twists, module.packing
    basis, syzygies, redundant = [], [], []
    table = K.Reducers(packing)
    # the basis' leads by position: [(index, exponent tuple)]
    leads = {}
    unit = packing.units[1:]
    product_criterion = module.rank == 1  # the ring, up to a twist
    pending = set()
    heap = []

    def reduce(heap, coef):
        return K.reduce_packed(heap, coef, table, p)

    def admit(packed, coeffs):
        """Take a nonzero remainder: its packed terms and coefficients."""
        pos, lead = packing.decode(packed[0])
        if pos >= boundary:
            syzygies.append(gens[0]._wrap(packed, coeffs))
            return
        q = pow(coeffs[0], -1, p)
        coeffs = [c * q % p for c in coeffs]
        j = len(basis)
        basis.append(gens[0]._wrap(packed, coeffs))
        table.append(packed, coeffs, p)
        packed_lead = packed[0]
        same = leads.setdefault(pos, [])
        # pairs (i, j) with a lead at the same position, less those the
        # product criterion drops; rank-1 modules only: a tracked run has
        # rank >= 2, where it would drop Koszul syzygies.  Heap key: the
        # pair's true degree (the lcm's degree plus the twist of its
        # position), then the lcm's negated packed int, which orders the
        # lcms as their module keys do
        for i, other in same:
            if product_criterion and not any(map(min, other, lead)):
                continue
            lcm = tuple(map(max, other, lead))
            packed_lcm = packed_lead + sum((m - e) * u for m, e, u in zip(lcm, lead, unit))
            heapq.heappush(heap, (sum(lcm) + twists[pos], -packed_lcm, i, j, pos, lcm))
            pending.add((i, j))
        same.append((j, lead))

    def pop_pairs(degree):
        while heap and heap[0][0] <= degree:
            d, neg_lcm, i, j, pos, lcm = heapq.heappop(heap)
            pending.remove((i, j))
            # chain criterion: some k with its lead at the same position
            # dividing the lcm, whose pairs with i and with j are both done
            if any(
                k != i and k != j
                and (min(i, k), max(i, k)) not in pending
                and (min(j, k), max(j, k)) not in pending
                and all(map(le, other, lcm))
                for k, other in leads[pos]
            ):
                continue
            packed, coeffs = reduce(*table.s_pair(i, j, -neg_lcm, d - twists[pos], p))
            if packed:
                admit(packed, coeffs)

    live = [i for i, g in enumerate(gens) if not g.is_zero]
    for i in sorted(live, key=lambda i: _admission_key(gens[i])):
        g = gens[i]
        pop_pairs(g.degree)
        packed, coeffs = g.packed, g.coeffs
        # reduction keeps a lead that no basis lead divides, and the basis
        # is not interreduced, so such an input is admitted as it stands
        pos, lead = packing.decode(packed[0])
        if any(all(map(le, other, lead)) for _, other in leads.get(pos, ())):
            heap_in = list(packed)  # ascending, so a heap; reduction uses it up
            packed, coeffs = reduce(heap_in, dict(zip(heap_in, coeffs)))
            if not packed:
                redundant.append(i)
                continue
        admit(packed, coeffs)
    def resume(degree):
        pop_pairs(degree)
        return heap[0][0] if heap else math.inf

    resume(top)
    return basis, syzygies, redundant, resume


def minimal_generators(gens):
    """Minimal generating subset of <gens> (graded Nakayama), in (degree,
    leading key) order.

    One degree-ordered pair loop: a generator of degree d is dropped
    exactly when its normal form against the Groebner basis, truncated at
    degree d, of the generators before it is zero, i.e. when it lies in
    their span.
    """
    # redundancy is settled when the last input is reduced: no pair after it
    return _minimal_run(gens, -math.inf)[0]


def generators_and_leads(gens):
    """(minimal generators, leads) for gens, elements of one module: the
    generators `minimal_generators` keeps, and the leading (position,
    exponents) of a Groebner basis of <gens>, that of the same pair loop
    run to the end, untagged and not interreduced.  The leads generate the
    lead-term module of <gens>, so they give its Hilbert series."""
    kept, basis = _minimal_run(gens, math.inf)
    return kept, [g.lt()[:2] for g in basis]


def _minimal_run(gens, top):
    """The pair loop on the nonzero gens in admission order, pairs done up
    to degree top after the last input: (the inputs it keeps, its basis)."""
    gens = sorted((g for g in gens if not g.is_zero), key=_admission_key)
    if not gens:
        return [], []
    basis, _, redundant, _ = _pair_loop(gens, gens[0].module.rank, top)
    redundant = set(redundant)
    return [g for i, g in enumerate(gens) if i not in redundant], basis


def interreduce(elems):
    """Canonical reduced basis of a Groebner basis: minimal monic
    generators, tails reduced."""
    elems = [g.monic() for g in elems if not g.is_zero]
    if not elems:
        return []
    # keep only elements with minimal leading terms; of equal ones, the first
    leads = [g.lt()[:2] for g in elems]
    keep = [
        g
        for i, (g, (pos, lt)) in enumerate(zip(elems, leads))
        if not any(
            q == pos and all(map(le, m, lt)) and (j < i or m != lt)
            for j, (q, m) in enumerate(leads)
            if j != i
        )
    ]
    # A tail term is below its own leading term, so no element reduces
    # itself; the leads stay, so one pass gives the unique reduced basis.
    G = GroebnerBasis(keep[0].module, keep)
    out = [
        g._wrap(g.packed[:1], g.coeffs[:1]) + normal_form(g._wrap(g.packed[1:], g.coeffs[1:]), G)
        for g in keep
    ]
    out.sort(key=lambda g: g.packed[0])  # largest lead first
    return out


def _augmented_basis(gens, top=math.inf):
    """The pair loop on the witnesses (g_i, e_{r+i}) in F + R^m, F of rank
    r dominant, the tag part twisted by deg g_i, with its pairs done up to
    degree top.  Returns (r, basis, syzygies, resume): the F-led elements
    as a GroebnerBasis, whose tag parts are coordinates, the tag-led
    remainders, which generate the syzygies, and the run's `resume` (see
    `_pair_loop`)."""
    module = gens[0].module
    r = module.rank
    big = FreeModule(module.ring, module.twists + tuple(g.degree for g in gens))
    basis, syzygies, _, resume = _pair_loop([big.rehome(g) + big.gen(r + i) for i, g in enumerate(gens)], r, top)
    return r, GroebnerBasis(big, basis), syzygies, resume


def syzygies_of(gens, source=None, top=None):
    """Generators of the kernel of source -> F, e_i -> gens[i].

    source defaults to the module twisted by the degrees of gens; it
    must be given when some gens[i] is zero, and then e_i is a generator.
    The generators are the recorded syzygies of one pair loop, not a
    Groebner basis.

    With a degree bound top, the loop stops once every pair of degree <=
    top is done, and the call returns (syzygies, done, more): done > top is
    the lowest degree of a pair left undone (inf when none is left: the run
    is complete), and more(t) goes on with the same loop until every pair
    of degree <= t is done and returns (syzygies, done) likewise.  The
    syzygies are the first ones of the unbounded call, element for
    element; all have degree below done, where they generate the kernel,
    and the unbounded call's others have degree >= done.
    """
    gens = list(gens)
    if source is None:
        source = FreeModule(gens[0].ring, tuple(g.degree for g in gens))
    live = [i for i, g in enumerate(gens) if not g.is_zero]
    out = [source.gen(i) for i, g in enumerate(gens) if g.is_zero]
    zeros = len(out)
    syzygies, positions, resume = [], [], lambda degree: math.inf
    if live:
        # only the inputs: more() does the pairs
        r, _, syzygies, resume = _augmented_basis([gens[i] for i in live], -math.inf)
        # tag position r + j is generator live[j]; the F positions stay unused
        positions = [*range(-r, 0), *live]

    def more(degree):
        done = resume(degree)
        out.extend(source.rehome(v, positions) for v in syzygies[len(out) - zeros:])
        return list(out), done

    if top is None:
        return more(math.inf)[0]
    return (*more(top), more)


def lift_coordinates(gens, targets):
    """Express each target as a combination of the generators.

    gens, targets: elements of one free module, targets in <gens>.
    Returns coordinate vectors as elements of the rank-len(gens) free
    module with twists deg(gens), not reduced modulo the syzygies.
    Raises if a target is not a member.
    """
    r, gb, _, _ = _augmented_basis(gens)
    coord = FreeModule(gens[0].ring, tuple(g.degree for g in gens))
    positions = range(-r, gb.module.rank - r)  # tag position r + i is coordinate i
    out = []
    for w in targets:
        lifted = normal_form(gb.module.rehome(w), gb)
        if not lifted.is_zero and lifted.lt()[0] < r:  # POT: the lead has the least position
            raise ValueError("target is not in the span of the generators")
        out.append(coord.rehome(lifted, positions).scale(-1))
    return out


def annihilator(v, relations):
    """Generators of {a in R : a*v in <relations>}, v nonzero, v and the
    relations in one free module F of rank r (or the ring itself).

    One pair loop on the tracked v + e_r and the untagged relations in
    F + R(-deg v), with the boundary at r: the tag parts of the recorded
    remainders generate the annihilator.  They are not a Groebner basis.
    """
    if v.is_zero:
        raise ValueError("annihilator of the zero element")
    relations = list(relations)
    if any(g.module != v.module for g in relations):
        raise RingMismatch("relations from another module")
    r = v.module.rank
    big = FreeModule(v.ring, v.module.twists + (v.degree,))
    gens = [big.rehome(v) + big.gen(r)] + [big.rehome(g) for g in relations]
    syzygies = _pair_loop(gens, r)[1]
    return [big.component(h, r) for h in syzygies]
