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

`minimal_generators` is one run of the loop: the generators it does not
report redundant are a minimal generating set (graded Nakayama).

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


class GroebnerBasis:
    """A Groebner basis (`buchberger` returns the reduced one); the elements
    share one module and their concatenated arrays are cached."""

    __slots__ = ("module", "elements", "_cat")

    def __init__(self, module, elements):
        self.module = module
        self.elements = tuple(elements)
        self._cat = None

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

    def concat(self):
        if self._cat is None:
            self._cat = _concat(self.module, self.elements)
        return self._cat

    def __repr__(self):
        return f"GB<{len(self.elements)} elements>"


def _concat(module, elements):
    nv = module.ring.nvars
    if not elements:
        return (
            np.empty((0, module.keylen), dtype=_I64),
            np.empty((0, 1 + nv), dtype=_I64),
            np.empty((0,), dtype=_I64),
            np.zeros(1, dtype=_I64),
        )
    ks = np.concatenate([g.keys for g in elements])
    es = np.concatenate([g.exps for g in elements])
    cs = np.concatenate([g.coeffs for g in elements])
    off = np.zeros(len(elements) + 1, dtype=_I64)
    np.cumsum([len(g) for g in elements], out=off[1:])
    return ks, es, cs, off


def normal_form(f, G):
    """Full normal form of f against a GroebnerBasis (or element list)."""
    if isinstance(G, GroebnerBasis):
        if f.module != G.module:
            raise RingMismatch("normal form in a different module")
        bk, be, bc, boff = G.concat()
    else:
        G = [g for g in G if not g.is_zero]
        if not G:
            return f
        for g in G:
            if f.module is not g.module and f.module != g.module:
                raise RingMismatch("normal form in a different module")
        bk, be, bc, boff = _concat(f.module, G)
    return f._wrap(
        K.normal_form_arrays(f.keys, f.exps, f.coeffs, bk, be, bc, boff, f.ring.p)
    )


def _lcm_exps(ea, eb):
    return np.maximum(ea, eb)


def _pair_key(module, pos, lcm):
    """Heap key of an S-pair: its true degree (the lcm's degree plus the
    twist of its position), then the module key of the lcm."""
    row = np.empty((1, 1 + module.ring.nvars), dtype=_I64)
    row[0, 0] = pos
    row[0, 1:] = lcm
    key = module.key_rows(row)[0]
    return (int(lcm.sum()) + module.twists[pos], tuple(int(x) for x in key))


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


def _pair_loop(gens, boundary):
    """Buchberger's pair loop over gens, elements of one module, run degree
    by degree.

    The nonzero inputs are admitted in (degree, leading key) order; zero
    ones are skipped.  Before an input of degree d is admitted, every
    pending pair of degree <= d is done, so the basis is a Groebner basis,
    up to degree d, of the inputs admitted so far; the input is then
    reduced against it.  A zero remainder means the input lies in the span
    of the inputs before it.

    Returns (basis, syzygies, redundant): redundant holds the indices of
    the inputs whose remainder was zero.  A nonzero remainder, of an input
    or of an S-pair, whose leading term sits at a position >= boundary goes
    to syzygies: it is never added to the basis and never paired.  Every
    other one joins the basis, which is returned as it stands (not
    interreduced): each of its S-pairs reduces to zero or to a recorded
    syzygy.
    """
    module = gens[0].module
    basis, syzygies, redundant = [], [], []
    is_ring = module.kind == "ring"
    pending = set()
    heap = []

    def push_pair(i, j):
        gi, gj = basis[i], basis[j]
        pi, ei = gi.exps[0, 0], gi.exps[0, 1:]
        pj, ej = gj.exps[0, 0], gj.exps[0, 1:]
        if pi != pj:
            return
        lcm = _lcm_exps(ei, ej)
        # product criterion; ring modules only: a tracked run is POT, where
        # it would drop Koszul syzygies
        if is_ring and (np.minimum(ei, ej) == 0).all():
            return
        deg, key = _pair_key(module, int(pi), lcm)
        heapq.heappush(heap, (deg, key, i, j))
        pending.add((i, j))

    # the current basis as a GroebnerBasis, which caches its concatenated
    # arrays; built when first needed and dropped when admit appends
    gb = None

    def reduce(f):
        nonlocal gb
        if not basis:
            return f
        if gb is None:
            gb = GroebnerBasis(module, basis)
        return normal_form(f, gb)

    def admit(h):
        nonlocal gb
        if int(h.exps[0, 0]) >= boundary:
            syzygies.append(h)
            return
        basis.append(h.monic())
        gb = None
        for t in range(len(basis) - 1):
            push_pair(t, len(basis) - 1)

    def pop_pairs(degree):
        while heap and heap[0][0] <= degree:
            _, _, i, j = heapq.heappop(heap)
            if (i, j) not in pending:
                continue
            pending.discard((i, j))
            gi, gj = basis[i], basis[j]
            lcm = _lcm_exps(gi.exps[0, 1:], gj.exps[0, 1:])
            # chain criterion
            skip = False
            for k, gk in enumerate(basis):
                if k in (i, j):
                    continue
                if gk.exps[0, 0] != gi.exps[0, 0]:
                    continue
                if (gk.exps[0, 1:] <= lcm).all():
                    pik = (min(i, k), max(i, k))
                    pjk = (min(j, k), max(j, k))
                    if pik not in pending and pjk not in pending:
                        skip = True
                        break
            if skip:
                continue
            s = gi.mono_mul(lcm - gi.exps[0, 1:]) - gj.mono_mul(lcm - gj.exps[0, 1:])
            h = reduce(s)
            if not h.is_zero:
                admit(h)

    live = [i for i, g in enumerate(gens) if not g.is_zero]
    for i in sorted(live, key=lambda i: _admission_key(gens[i])):
        pop_pairs(gens[i].degree)
        h = reduce(gens[i])
        if h.is_zero:
            redundant.append(i)
        else:
            admit(h)
    pop_pairs(math.inf)
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
    _, _, redundant = _pair_loop(gens, gens[0].module.rank)
    redundant = set(redundant)
    return [g for i, g in enumerate(gens) if i not in redundant]


def interreduce(elems):
    """Canonical reduced basis of a Groebner basis: minimal monic
    generators, tails reduced."""
    elems = [g.monic() for g in elems if not g.is_zero]
    # keep only elements with minimal leading terms
    keep = []
    for i, g in enumerate(elems):
        lt = g.exps[0]
        redundant = False
        for j, h in enumerate(elems):
            if i == j:
                continue
            hlt = h.exps[0]
            if hlt[0] == lt[0] and (hlt[1:] <= lt[1:]).all():
                if (hlt[1:] == lt[1:]).all() and j > i:
                    continue  # equal lt: keep the first
                redundant = True
                break
        if not redundant:
            keep.append(g)
    if not keep:
        return []
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
