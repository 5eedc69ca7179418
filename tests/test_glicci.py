from types import SimpleNamespace

import pytest

from liaisonlab import glicci, resolution
from liaisonlab.errors import (
    CharacteristicTooSmall,
    GenericityFailure,
    LinkSeriesMismatch,
    MalformedCertificate,
    NotStable,
    StepIdentityFailed,
    WrongCodim,
)
from liaisonlab.glicci import (
    GlicciCertificate,
    gaeta_run,
    gaeta_step,
    glicci_descent,
    is_complete_intersection,
    lift_map,
    stable_check,
    stable_decompose,
    standard_determinantal,
)
from liaisonlab.ideals import Ideal, PolyMatrix
from liaisonlab.resolution import classify


def _stable_closure(R, exps_list, first=0):
    """Close a monomial set under the exchanges x_j/x_i (j < i)."""
    todo = [tuple(e) for e in exps_list]
    seen = set()
    while todo:
        m = todo.pop()
        if m in seen:
            continue
        seen.add(m)
        for i in range(first + 1, R.nvars):
            if m[i] == 0:
                continue
            for j in range(first, i):
                e = list(m)
                e[i] -= 1
                e[j] += 1
                todo.append(tuple(e))
    return Ideal(R, [R.monomial(e) for e in seen])


def random_stable_cm(R, codim, rng, max_deg=4):
    """Seeded CM stable monomial ideal of the given codimension."""
    while True:
        k = int(rng.integers(1, 4))
        seeds = []
        for _ in range(k):
            e = [0] * R.nvars
            for _ in range(int(rng.integers(1, max_deg + 1))):
                e[int(rng.integers(0, codim))] += 1
            seeds.append(tuple(e))
        # force the pure power of the last active variable so that the
        # ideal is Artinian in x_0..x_{codim-1}, hence CM of that codimension
        d = int(rng.integers(1, max_deg + 1))
        e = [0] * R.nvars
        e[codim - 1] = d
        seeds.append(tuple(e))
        I = _stable_closure(R, seeds)
        if I.is_unit:
            continue
        if I.codimension() != codim:
            continue
        if min(sum(g) for g in I.lt_exps()) > max_deg:
            continue
        if classify(I)["cm"] and stable_check(I):
            return I


def test_standard_determinantal(R4, R5):
    x0, x1, x2, x3 = R4.gens()
    A = PolyMatrix(R4, [[x0, x1, x2], [x1, x2, x3]])
    I = standard_determinantal(A)
    assert I.codimension() == 2
    z = R5.gens()
    B = PolyMatrix(R5, [[z[0], z[1], z[2], z[3]], [z[1], z[2], z[3], z[4]]])
    assert standard_determinantal(B).codimension() == 3
    with pytest.raises(WrongCodim):
        standard_determinantal(PolyMatrix(R4, [[x0, x0, x1], [x0, x0, x2]]))


def test_gaeta_twisted_cubic(R4, rng):
    x0, x1, x2, x3 = R4.gens()
    A = PolyMatrix(R4, [[x0, x1, x2], [x1, x2, x3]])
    st = gaeta_step(A, rng)
    # the shared middle ideal a + J^c is the line (x0, x1)
    assert st["mid"] == Ideal(R4, [x0, x1])
    assert st["link_down"].verification["all"]
    assert st["link_up"].verification["all"]
    cert = gaeta_run(A, rng)
    assert len(cert.steps) == 2
    assert is_complete_intersection(cert.end)
    assert cert.replay()


def test_gaeta_rnc_p4(R5, rng):
    z = R5.gens()
    B = PolyMatrix(R5, [[z[0], z[1], z[2], z[3]], [z[1], z[2], z[3], z[4]]])
    cert = gaeta_run(B, rng)
    assert cert.replay()
    assert is_complete_intersection(cert.end)
    # t = 2, c = 2: exactly one gaeta step = two links, ending at a linear CI
    assert len(cert.steps) == 2
    assert classify(cert.end)["codim"] == 3


def test_gaeta_step_degree_identities(R5, rng):
    """Step II(iv) and the Step III degree formula are checked inside
    gaeta_step; a successful run is the assertion."""
    z = R5.gens()
    B = PolyMatrix(R5, [[z[0], z[1], z[2], z[3]], [z[1], z[2], z[3], z[4]]])
    st = gaeta_step(B, rng)
    G = st["link_down"].c
    assert classify(G)["gorenstein"] and G.codimension() == 3


def test_gaeta_ci_input_noop(R4):
    x0, x1, x2, x3 = R4.gens()
    A = PolyMatrix(R4, [[x0, x1]])
    cert = gaeta_run(A)
    assert len(cert.steps) == 0
    assert cert.end == Ideal(R4, [x0, x1])
    assert cert.replay()


def test_gaeta_3x4_generic(R5, rng):
    """3 x 4 matrix with generic linear entries: two descent rounds."""
    z = R5.gens()
    rows = []
    for i in range(3):
        row = []
        for j in range(4):
            row.append(R5.random_poly(1, rng))
        rows.append(row)
    A = PolyMatrix(R5, rows)
    cert = gaeta_run(A, rng)
    assert len(cert.steps) == 4
    assert cert.replay()


def test_a_gaeta_run_and_its_replay_form_no_colon_product(R5, rng, colon_products):
    """Every colon of the descent of a generic 3 x 4 matrix and of its
    replay is a Gorenstein link (Step II is the first link read
    backwards) told its known series, so no colon runs the product test
    g*h."""
    A = PolyMatrix(R5, [[R5.random_poly(1, rng) for _ in range(4)] for _ in range(3)])
    cert = gaeta_run(A, rng)
    assert len(cert.steps) == 4 and cert.replay()
    assert colon_products == []


def test_a_generic_gaeta_run_and_its_replay_resolve_nothing(R5, rng, monkeypatch):
    """Every ideal the descent of a generic 3 x 4 matrix of linear forms and
    its replay classify is a complete intersection, or carries its matrix
    and has the expected codimension: a + dR and a + d'R, I, I', and the
    middle ideal J = I(A_1).  So every Betti table comes from the Koszul or
    the Eagon-Northcott complex, and `resolve` is never called."""
    calls, resolve = [], resolution.resolve

    def spy(M):
        calls.append(M)
        return resolve(M)

    monkeypatch.setattr(resolution, "resolve", spy)
    A = PolyMatrix(R5, [[R5.random_poly(1, rng) for _ in range(4)] for _ in range(3)])
    cert = gaeta_run(A, rng)
    assert len(cert.steps) == 4 and cert.replay()
    assert calls == []
    # the middle ideal of each step is J = I(A_1), a t x (t - 1) matrix
    middles = [step["to"] for step in cert.steps[::2]]
    assert [(J.matrix.nrows, J.matrix.ncols) for J in middles] == [(3, 2), (2, 1)]


@pytest.mark.parametrize("outcome", ["rejected", "missed"])
def test_a_step_ii_link_that_fails_is_a_step_identity_failure(R4, rng, monkeypatch, outcome):
    """For c = 1 Step II's (a + dR) : J = I is the step's first link
    (a + dR) : I = J read backwards; whether `direct_link` rejects that
    link or returns another J, the step fails on it."""
    x0, x1, x2, x3 = R4.gens()

    def fake(c, I):
        if outcome == "rejected":
            raise LinkSeriesMismatch("fake")
        return SimpleNamespace(J=Ideal(R4, [x0]))

    monkeypatch.setattr(glicci, "direct_link", fake)
    with pytest.raises(StepIdentityFailed, match=r"^\(a \+ dJ\^\(c-1\)\) : I = a \+ J\^c failed$"):
        gaeta_step(PolyMatrix(R4, [[x0, x1, x2], [x1, x2, x3]]), rng)


@pytest.mark.parametrize("shape", ["scroll", "generic"])
def test_a_c1_gaeta_step_makes_two_links_and_none_from_j(R4, R5, rng, monkeypatch, shape):
    """For c = 1 a Gaeta step links I down and I' up, and Step II is the
    first of these read backwards: two `direct_link` calls, none of them
    linking J (= a + J, the middle ideal) through a + dR, and no
    resolution of J unless J is I' (on the scroll J = I' = (x0, x1), the
    up link's I).  The certificate replays."""
    if shape == "scroll":
        x0, x1, x2, x3 = R4.gens()
        A = PolyMatrix(R4, [[x0, x1, x2], [x1, x2, x3]])
    else:
        A = PolyMatrix(R5, [[R5.random_poly(1, rng) for _ in range(4)] for _ in range(3)])
    calls, link = [], glicci.direct_link
    resolved, resolve = [], resolution.resolve

    def spy(c, I):
        calls.append((c, I))
        return link(c, I)

    def spy_resolve(M):
        if M.F0 == A.ring.as_module:
            resolved.append(Ideal(A.ring, M.relations))
        return resolve(M)

    monkeypatch.setattr(glicci, "direct_link", spy)
    monkeypatch.setattr(resolution, "resolve", spy_resolve)
    st = gaeta_step(A, rng)
    down, up = st["link_down"].c, st["link_up"].c
    assert calls == [(down, st["I"]), (up, st["I_next"])]
    assert st["mid"] not in resolved or st["mid"] == st["I_next"]
    assert gaeta_run(A, rng).replay()


def test_stable_check_cases(R3):
    y0, y1, y2 = R3.gens()
    assert stable_check(Ideal(R3, [y1 ** 2, y0 * y1, y0 ** 2]))
    assert not stable_check(Ideal(R3, [y2 ** 2]))
    assert not stable_check(Ideal(R3, [y1 ** 2, y2 ** 3]))
    # Borel-fixedness includes exchanges into the lifting variable:
    # (x1, x2)^2 is exchange-closed away from x0 but x0*x1 is missing
    assert not stable_check(Ideal(R3, [y1 ** 2, y1 * y2, y2 ** 2]))


def test_stable_decompose_m2(R3):
    y0, y1, y2 = R3.gens()
    J = Ideal(R3, [y0, y1]).power(2)
    dec = stable_decompose(J)
    assert dec.alpha == 2
    assert dec.layers[0] == Ideal(R3, [y1 ** 2])
    assert dec.layers[1] == Ideal(R3, [y1])
    assert dec.layers[2].is_unit
    assert dec.residual == Ideal(R3, [y0, y1])


def test_stable_decompose_linear_guard(R3):
    y0, y1, y2 = R3.gens()
    J = Ideal(R3, [y0, y1])
    from liaisonlab.errors import LayerChainBroken

    with pytest.raises(LayerChainBroken):
        stable_decompose(J)  # nothing nonlinear to decompose
    with pytest.raises(NotStable):
        stable_decompose(Ideal(R3, [y2 ** 2]))


def test_lift_map_worked_example(R3):
    y0, y1, y2 = R3.gens()
    m = R3.monomial((0, 3, 2))
    expect = y1 * (y1 + y0) * (y1 + y0.scale(2)) * y2 * (y2 + y0)
    assert lift_map(m) == expect
    assert lift_map(R3.one()) == R3.one()
    assert lift_map(R3.monomial((0, 2, 0))) == y1 * (y1 + y0)
    # squarefree factor multisets: the lift of x1^2 vanishes at distinct points
    small = __import__("liaisonlab.ring", fromlist=["Ring"]).Ring(3, 3)
    with pytest.raises(CharacteristicTooSmall):
        lift_map(small.monomial((0, 2, 2)))


def test_glicci_m2(R3):
    y0, y1, y2 = R3.gens()
    J = Ideal(R3, [y0, y1]).power(2)
    cert = glicci_descent(J)
    assert len(cert.steps) == 1
    st = cert.steps[0]
    # J = lambda(x1^2) R + x0 (x0, x1), with lambda(x1^2) = x1(x1+x0)
    assert st["j_cm"] == Ideal(R3, [y1 * (y1 + y0)])
    assert st["f"] == y0
    assert cert.end == Ideal(R3, [y0, y1])
    assert cert.replay()


def test_glicci_alpha3(R3):
    y0, y1, y2 = R3.gens()
    J = Ideal(R3, [y1 ** 3, y0 * y1 ** 2, y0 ** 2 * y1, y0 ** 3])
    cert = glicci_descent(J)
    assert cert.replay()
    assert cert.end == Ideal(R3, [y0, y1])
    assert len(cert.steps) == 2  # (x0,x1)^3 -> (x0,x1)^2 -> (x0,x1)


def test_glicci_ci_input(R3):
    y0, y1, y2 = R3.gens()
    cert = glicci_descent(Ideal(R3, [y0, y1]))
    assert len(cert.steps) == 0 and cert.replay()


def test_glicci_codim3(R4):
    x0, x1, x2, x3 = R4.gens()
    J = Ideal(R4, [x0, x1, x2]).power(2)
    cert = glicci_descent(J)
    assert cert.replay()
    assert is_complete_intersection(cert.end)


def test_glicci_seeded_family(R4, rng):
    """Random CM stable ideals of codim 2 and 3, alpha <= 4: replayable
    certificates ending in complete intersections."""
    for codim in (2, 3):
        for _ in range(3):
            J = random_stable_cm(R4, codim, rng)
            cert = glicci_descent(J)
            assert cert.replay()
            assert is_complete_intersection(cert.end)
            # every intermediate stays CM (checked via the bdl machinery,
            # but assert the ends explicitly)
            for st in cert.steps:
                assert classify(st["to"])["cm"]


def test_lambda_squarefree_factors(R3, rng):
    """Lift images factor into pairwise distinct linear forms."""
    y0, y1, y2 = R3.gens()
    for _ in range(5):
        e = (0, int(rng.integers(0, 4)), int(rng.integers(0, 4)))
        m = R3.monomial(e)
        f = lift_map(m)
        # evaluate at x0 = 1: the univariate pieces have distinct roots
        assert f.degree == sum(e)


def test_certificate_json_roundtrip_replay(R4, rng):
    """Archived certificates replay after a JSON round trip."""
    import json

    from liaisonlab.cli import certificate_from_json

    x0, x1, x2, x3 = R4.gens()
    cert = glicci_descent(Ideal(R4, [x0, x1]).power(2))
    doc = json.loads(json.dumps(cert.to_json()))
    back = certificate_from_json(R4, doc)
    assert back.replay()
    A = PolyMatrix(R4, [[x0, x1, x2], [x1, x2, x3]])
    certg = gaeta_run(A, rng)
    doc = json.loads(json.dumps(certg.to_json()))
    assert certificate_from_json(R4, doc).replay()
    doc["steps"][0]["to"] = ["x0", "x2"]
    assert certificate_from_json(R4, doc).replay() is False


def test_gaeta_needs_genericity_retry(R4, rng):
    """A matrix whose leading column is degenerate: the seeded row/column
    operations must repair it and the descent still certifies."""
    x0, x1, x2, x3 = R4.gens()
    A = PolyMatrix(R4, [[x0, x1, x2], [x0, x2, x3]])
    I = standard_determinantal(A)  # codim 2, but I(A_1) = (x0) has codim 1
    cert = gaeta_run(A, rng)
    assert cert.start == I
    assert cert.replay()
    assert is_complete_intersection(cert.end)


def test_gaeta_retries_when_d_is_a_zero_divisor(R4, rng, monkeypatch):
    """I(B) = (x1*x3, x2*x3, x2^2 - x0*x1) is a line and a conic, and
    d = x0*x2 - x1*x3 vanishes on the line: the first attempt fails on
    a : d != a and the seeded retries repair it."""
    x0, x1, x2, x3 = R4.gens()
    A = PolyMatrix(R4, [[x2, x3, x0, x3], [x1, R4.zero(), x2, x0]])
    a = A.submatrix(range(2), range(3)).maximal_minors()
    d = A.submatrix(range(2), [0, 3]).det()
    assert a.colon_poly(d) != a
    failures = []
    attempt = glicci._gaeta_attempt

    def spy(*args):
        try:
            return attempt(*args)
        except GenericityFailure as exc:
            failures.append(str(exc))
            raise

    monkeypatch.setattr(glicci, "_gaeta_attempt", spy)
    cert = gaeta_run(A, rng)
    assert failures[0] == "a : d != a for the chosen column"
    assert cert.start == standard_determinantal(A)
    assert cert.replay()


def _tampered(cert, i=None, end=None, **fields):
    """A copy of cert with step i's fields replaced, or its end."""
    steps = [dict(st, **fields) if k == i else dict(st) for k, st in enumerate(cert.steps)]
    return GlicciCertificate(cert.start, steps, cert.end if end is None else end)


def test_replay_rejects_tampered_certificates(R3, R4, rng):
    """Every step is re-derived from its inputs, so a certificate that was
    changed anywhere no longer replays."""
    x0, x1, x2, x3 = R4.gens()
    cert = gaeta_run(PolyMatrix(R4, [[x0, x1, x2], [x1, x2, x3]]), rng)
    assert [st["kind"] for st in cert.steps] == ["link", "link"] and cert.replay()
    other = Ideal(R4, [x0, x2])
    assert not _tampered(cert, 1, to=other, end=other).replay()  # c : from is not to
    assert not _tampered(cert, 1, **{"from": other}).replay()  # from is not the previous to
    assert not _tampered(cert, end=other).replay()  # end is not the last to
    assert not _tampered(cert, 0, kind="unknown").replay()
    y0, y1, y2 = R3.gens()
    bdl = glicci_descent(Ideal(R3, [y0, y1]).power(2))
    assert [st["kind"] for st in bdl.steps] == ["bdl"] and bdl.replay()
    assert not _tampered(bdl, 0, f=y1).replay()  # j_cm + f * to is not from


_GOOD_STEP = {"kind": "direct-link", "c": ["x0"], "from": ["x0"], "to": ["x0"]}


@pytest.mark.parametrize(
    "doc,named",
    [
        ({"start": ["x0"], "end": ["x0"], "steps": [_GOOD_STEP, {**_GOOD_STEP, "kind": "direct-lnk"}]},
         "certificate step 2: unknown kind 'direct-lnk'"),
        ({"start": ["x0"], "end": ["x0"], "steps": [_GOOD_STEP, {k: v for k, v in _GOOD_STEP.items() if k != "c"}]},
         "certificate step 2 (direct-link): missing c"),
        ({"start": ["x0"], "end": ["x0"], "steps": [{"kind": "basic-double-link", "f": "x2", "from": ["x0"], "to": ["x0"]}]},
         "certificate step 1 (basic-double-link): missing j"),
        ({"start": ["x0"], "end": ["x0"], "steps": [_GOOD_STEP, ["x0"]]}, "certificate step 2: unknown kind None"),
        ({"end": ["x0"], "steps": []}, "certificate: missing start"),
    ],
    ids=["misspelt-kind", "link-without-c", "bdl-without-j", "step-not-an-object", "no-start"],
)
def test_a_malformed_certificate_is_a_usage_error(R4, doc, named):
    """A certificate without its start, steps or end, or a step of an
    unknown kind or missing a field of its kind, is a typed error with exit
    code 2 that names the step, not a KeyError."""
    from liaisonlab.cli import certificate_from_json

    with pytest.raises(MalformedCertificate) as exc:
        certificate_from_json(R4, doc)
    assert str(exc.value) == named and exc.value.exit_code == 2


def test_a_link_step_through_a_non_gorenstein_ideal_replays_false(R4):
    """(x0, x1)^2 : DBLLINE is the line (x0, x1), a complete intersection,
    so the colon alone would accept this step.  (x0, x1)^2 is not
    Gorenstein: `direct_link` rejects the step, and the replay reads False
    with no exception."""
    x0, x1, x2, x3 = R4.gens()
    IX = Ideal(R4, [x0, x1]).power(2)
    IC1 = Ideal(R4, [x0 ** 2, x0 * x1, x1 ** 2, x0 * x2 ** 2 - x1 * x3 ** 2])
    line = Ideal(R4, [x0, x1])
    assert IX.colon(IC1) == line and is_complete_intersection(line)
    cert = GlicciCertificate(IC1, [{"kind": "link", "c": IX, "from": IC1, "to": line}], line)
    assert cert.replay() is False
