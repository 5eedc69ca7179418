"""Buchberger engine for ideals and submodules of graded free modules.

One pair loop (`_pair_loop`) does all the work.  It is the homogeneous
Buchberger algorithm run degree by degree (Kreuzer-Robbiano,
Computational Commutative Algebra 2, Ch. 4): the inputs are admitted in
(degree, leading key) order, and before an input of degree d comes in,
every pending S-pair of degree <= d is done.  The input is reduced against
that truncated basis, and one whose normal form is zero is reported as
redundant.  Pairs are taken by true degree (twists included), smallest
lcm first, and pruned by Buchberger's product criterion (ring case) and
the chain criterion.  `buchberger` returns the canonical reduced basis,
deterministic for a fixed input ideal regardless of generator order.

Reduction goes through a `_kernels.Reducers` table, which prepares each
basis element once; a `GroebnerBasis` builds its table when first used.
The loop keeps one table and works on packed terms: an S-pair is seeded
from the two elements' table tails, shifted by the packed lcm of their
leads (`Reducers.s_pair`), and reduced by `_kernels.reduce_packed`; a
remainder comes back packed, is made monic on its coefficient list and
is appended to the table from its packed ints.  Only what leaves the loop
is unpacked: each basis element and each recorded syzygy, once.  The pair
bookkeeping reads one array of the basis' leading rows: an admission makes
its pairs, with one numpy mask and one `pack` call for their lcms, and a
popped pair tests the chain criterion with one mask.

`minimal_generators` is one run of the loop, stopped after its last
input: the generators it does not report redundant are a minimal
generating set (graded Nakayama).

Syzygies come out of the same pair loop, run once on the tracked
generators (g_i, e_{r+i}) in F + R^m, F of rank r dominant
(`_augmented_basis`).  The rule: a remainder led by a tag position (>= r)
has no F part, so its tag part is a syzygy; it is recorded, never added
to the basis and never paired.  By Schreyer's theorem (Eisenbud,
Commutative Algebra, Thm 15.10) and the chain criterion (Gebauer-Moeller),
the recorded syzygies generate the syzygy module.  The F-led elements are
a Groebner basis of <g> that carries coordinates in its tag part:
`lift_coordinates` reduces against it.  Neither part is interreduced.

`annihilator` tracks one element v and leaves the relations untagged, so
the recorded tag parts are the ring elements a with a*v in the span of the
relations (colon ideals and intersections, Greuel-Pfister, A Singular
Introduction to Commutative Algebra, Sec. 2.8).
"""

import heapq
import math

import numpy as np

from . import _kernels as K
from .errors import RingMismatch
from .ring import FreeModule

_I64 = np.int64

_all = np.logical_and.reduce


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
    table = K.Reducers()
    for g in elements:
        table.append(K.pack(g.keys, g.exps), g.exps, g.coeffs.tolist(), g.ring.p)
    return table


def _reduce(f, table):
    if not len(table):
        return f
    return f._wrap(K.normal_form_arrays(f.keys, f.exps, f.coeffs, table, f.ring.p))


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
    """(degree, leading key): the order in which the pair loop takes inputs."""
    return g.degree, tuple(int(x) for x in g.keys[0])


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
    basis, _, _ = _pair_loop(gens, module.rank)
    return GroebnerBasis(module, interreduce(basis))


def _pair_loop(gens, boundary, top=math.inf):
    """Buchberger's pair loop over gens, elements of one module, run degree
    by degree.

    The nonzero inputs are admitted in (degree, leading key) order; zero
    ones are skipped.  Before an input of degree d is admitted, every
    pending pair of degree <= d is done, so the basis is a Groebner basis,
    up to degree d, of the inputs admitted so far; the input is then
    reduced against it.  A zero remainder means the input lies in the span
    of the inputs before it.  After the last input, the pending pairs of
    degree <= top are done.

    Returns (basis, syzygies, redundant): redundant holds the indices of
    the inputs whose remainder was zero.  A nonzero remainder, of an input
    or of an S-pair, whose leading term sits at a position >= boundary goes
    to syzygies: it is never added to the basis and never paired.  Every
    other one joins the basis, which is returned as it stands (not
    interreduced): with top infinite, each of its S-pairs reduces to zero
    or to a recorded syzygy.
    """
    module = gens[0].module
    p, nkey, nexp = module.ring.p, module.keylen, 1 + module.ring.nvars
    basis, syzygies, redundant = [], [], []
    table = K.Reducers()
    # the basis' leading (position, exponents) rows
    leads = np.empty((0, nexp), dtype=_I64)
    is_ring = module.kind == "ring"
    pending = set()
    heap = []

    def reduce(heap, coef):
        return K.reduce_packed(heap, coef, table, nexp, p)

    def admit(packed, coeffs):
        """Take a nonzero remainder: its packed terms and coefficients."""
        nonlocal leads
        keys, exps = K.unpack(packed, nkey, nexp)
        pos = int(exps[0, 0])
        if pos >= boundary:
            syzygies.append(gens[0]._wrap((keys, exps, np.array(coeffs, dtype=_I64))))
            return
        q = pow(coeffs[0], -1, p)
        coeffs = [c * q % p for c in coeffs]
        j = len(basis)
        basis.append(gens[0]._wrap((keys, exps, np.array(coeffs, dtype=_I64))))
        table.append(packed, exps, coeffs, p)
        lead, older = exps[0, 1:], leads
        leads = np.concatenate((leads, exps[:1]))
        # pairs (i, j) with a lead at the same position, less those the
        # product criterion drops; ring modules only: a tracked run is POT,
        # where it would drop Koszul syzygies
        keep = older[:, 0] == pos
        if is_ring:
            keep &= np.logical_or.reduce(np.minimum(older[:, 1:], lead) != 0, axis=1)
        idx = keep.nonzero()[0]
        rows = np.empty((len(idx), nexp), dtype=_I64)
        rows[:, 0] = pos
        np.maximum(older[idx, 1:], lead, out=rows[:, 1:])
        # heap key: the pair's true degree (the lcm's degree plus the twist
        # of its position), then the module key of the lcm; the entry also
        # carries the packed lcm and its degree, for the S-pair
        lcm_degrees = np.add.reduce(rows[:, 1:], axis=1)
        degrees = (lcm_degrees + module.twists[pos]).tolist()
        keys = module.key_rows(rows)
        for i, d, k, packed_lcm, lcm_degree in zip(
            idx.tolist(), degrees, keys.tolist(), K.pack(keys, rows), lcm_degrees.tolist()
        ):
            heapq.heappush(heap, (d, tuple(k), i, j, packed_lcm, lcm_degree))
            pending.add((i, j))

    def pop_pairs(degree):
        while heap and heap[0][0] <= degree:
            _, _, i, j, packed_lcm, lcm_degree = heapq.heappop(heap)
            if (i, j) not in pending:
                continue
            pending.discard((i, j))
            lcm = np.maximum(leads[i, 1:], leads[j, 1:])
            # chain criterion: some k with its lead at the same position
            # dividing the lcm, whose pairs with i and with j are both done
            hits = (leads[:, 0] == leads[i, 0]) & _all(leads[:, 1:] <= lcm, axis=1)
            if any(
                k != i and k != j
                and (min(i, k), max(i, k)) not in pending
                and (min(j, k), max(j, k)) not in pending
                for k in hits.nonzero()[0].tolist()
            ):
                continue
            packed, coeffs = reduce(*table.s_pair(i, j, packed_lcm, lcm_degree, p))
            if packed:
                admit(packed, coeffs)

    live = [i for i, g in enumerate(gens) if not g.is_zero]
    for i in sorted(live, key=lambda i: _admission_key(gens[i])):
        pop_pairs(gens[i].degree)
        g = gens[i]
        packed = K.pack(g.keys, g.exps)
        packed, coeffs = reduce(packed, dict(zip(packed, g.coeffs.tolist())))
        if packed:
            admit(packed, coeffs)
        else:
            redundant.append(i)
    pop_pairs(top)
    return basis, syzygies, redundant


def minimal_generators(gens):
    """Minimal generating subset of <gens> (graded Nakayama), in (degree,
    leading key) order.

    One degree-ordered pair loop: a generator of degree d is dropped
    exactly when its normal form against the Groebner basis, truncated at
    degree d, of the generators before it is zero, i.e. when it lies in
    their span.
    """
    gens = sorted((g for g in gens if not g.is_zero), key=_admission_key)
    if not gens:
        return []
    # redundancy is settled when the last input is reduced
    _, _, redundant = _pair_loop(gens, gens[0].module.rank, top=gens[-1].degree)
    redundant = set(redundant)
    return [g for i, g in enumerate(gens) if i not in redundant]


def interreduce(elems):
    """Canonical reduced basis of a Groebner basis: minimal monic
    generators, tails reduced."""
    elems = [g.monic() for g in elems if not g.is_zero]
    if not elems:
        return []
    # keep only elements with minimal leading terms; of equal ones, the first
    leads = np.array([g.exps[0] for g in elems])
    keep = []
    for i, lt in enumerate(leads):
        divides = (leads[:, 0] == lt[0]) & _all(leads[:, 1:] <= lt[1:], axis=1)
        divides[i:] &= np.logical_or.reduce(leads[i:] != lt, axis=1)
        if not divides.any():
            keep.append(elems[i])
    # A tail term is below its own leading term, so no element reduces
    # itself; the leads stay, so one pass gives the unique reduced basis.
    G = GroebnerBasis(keep[0].module, keep)
    out = [
        g._wrap((g.keys[:1], g.exps[:1], g.coeffs[:1]))
        + normal_form(g._wrap((g.keys[1:], g.exps[1:], g.coeffs[1:])), G)
        for g in keep
    ]
    out.sort(key=lambda g: tuple(int(x) for x in g.keys[0]), reverse=True)
    return out


def _augmented_basis(gens):
    """The pair loop on the witnesses (g_i, e_{r+i}) in F + R^m, F of rank
    r dominant, the tag part twisted by deg g_i.  Returns (r, basis,
    syzygies): the F-led elements as a GroebnerBasis, whose tag parts are
    coordinates, and the tag-led remainders, which generate the syzygies."""
    module = gens[0].module
    r = module.rank
    big = FreeModule(module.ring, module.twists + tuple(g.degree for g in gens), kind="pot")
    basis, syzygies, _ = _pair_loop([big.rehome(g) + big.gen(r + i) for i, g in enumerate(gens)], r)
    return r, GroebnerBasis(big, basis), syzygies


def syzygies_of(gens, source=None):
    """Generators of the kernel of source -> F, e_i -> gens[i].

    source defaults to the POT module twisted by the degrees of gens; it
    must be given when some gens[i] is zero, and then e_i is a generator.
    The generators are the recorded syzygies of one pair loop, not a
    Groebner basis.
    """
    gens = list(gens)
    if source is None:
        source = FreeModule(gens[0].ring, tuple(g.degree for g in gens), kind="pot")
    live = [i for i, g in enumerate(gens) if not g.is_zero]
    out = [source.gen(i) for i, g in enumerate(gens) if g.is_zero]
    if live:
        r, _, syzygies = _augmented_basis([gens[i] for i in live])
        # tag position r + j is generator live[j]; the F positions stay unused
        positions = np.concatenate([np.arange(-r, 0), live])
        out += [source.rehome(v, positions) for v in syzygies]
    return out


def lift_coordinates(gens, targets):
    """Express each target as a combination of the generators.

    gens, targets: elements of one free module, targets in <gens>.
    Returns coordinate vectors as elements of the rank-len(gens) free
    module with twists deg(gens), not reduced modulo the syzygies.
    Raises if a target is not a member.
    """
    r, gb, _ = _augmented_basis(gens)
    coord = FreeModule(gens[0].ring, tuple(g.degree for g in gens), kind="pot")
    positions = np.arange(gb.module.rank) - r  # tag position r + i is coordinate i
    out = []
    for w in targets:
        lifted = normal_form(gb.module.rehome(w), gb)
        if (lifted.exps[:, 0] < r).any():
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
    big = FreeModule(v.ring, v.module.twists + (v.degree,), kind="pot")
    gens = [big.rehome(v) + big.gen(r)] + [big.rehome(g) for g in relations]
    _, syzygies, _ = _pair_loop(gens, r)
    return [big.component(h, r) for h in syzygies]
