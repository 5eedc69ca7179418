import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from liaisonlab import cli, errors, resolution
from liaisonlab.cli import main, parse_poly, parse_session
from liaisonlab.errors import (
    DegreeOverflow,
    PrimeCheckFailed,
    SessionSyntaxError,
    VariableOutOfRange,
)
from liaisonlab.ideals import Ideal, PolyMatrix
from liaisonlab.ring import Ring

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"
SESSIONS = GOLDEN / "sessions"

# (golden name, argv) - the regression corpus of worked examples
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


def _sessionize(argv):
    out = list(argv)
    if out and out[0] == "--session":
        out[1] = str(SESSIONS / out[1])
    return out


def _run_capture(argv, tmp_path):
    out = tmp_path / "report.json"
    code = main(["--out", str(out)] + _sessionize(argv))
    return code, out.read_bytes()


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden(name, argv, tmp_path):
    code, blob = _run_capture(argv, tmp_path)
    path = GOLDEN / f"{name}.json"
    if os.environ.get("GOLDEN_UPDATE") == "1":
        path.write_bytes(blob)
    assert path.exists(), f"golden file {name} missing; run with GOLDEN_UPDATE=1"
    assert blob == path.read_bytes()


def test_golden_expected_exit_codes(tmp_path):
    code, blob = _run_capture(GOLDEN_CASES[0][1], tmp_path)
    assert code == 0
    # the double-line pathology is a mathematical failure: exit 1 + error json
    code, blob = _run_capture(
        ["--session", "p3.txt", "link", "--gor", "LSQ", "--ideal", "DBLLINE", "--allow-acm"],
        tmp_path,
    )
    assert code == 1
    doc = json.loads(blob)
    assert doc["error"] == "not-unmixed"


def test_determinism(tmp_path):
    a = _run_capture(GOLDEN_CASES[0][1], tmp_path)[1]
    b = _run_capture(GOLDEN_CASES[0][1], tmp_path)[1]
    assert a == b


def test_seed_embedding(tmp_path):
    out = tmp_path / "r.json"
    main(["--seed", "7", "--out", str(out)] + _sessionize(["--session", "p2pts.txt", "dgo", "GRID"]))
    assert json.loads(out.read_text())["seed"] == 7
    os.environ["LIAISON_SEED"] = "11"
    try:
        main(["--seed", "7", "--out", str(out)] + _sessionize(["--session", "p2pts.txt", "dgo", "GRID"]))
        assert json.loads(out.read_text())["seed"] == 11
    finally:
        del os.environ["LIAISON_SEED"]


def test_parse_errors(R4):
    with pytest.raises(SessionSyntaxError) as exc:
        parse_poly(R4, "x0 +")
    assert exc.value.column > 0
    with pytest.raises(VariableOutOfRange):
        parse_poly(R4, "x7 + x0")
    with pytest.raises(VariableOutOfRange):  # raised by parsing, though no object is read
        parse_session("ring p=32003 vars=x0..x3\nideal A = x0 + x7")
    with pytest.raises(PrimeCheckFailed):
        parse_session("ring p=32004 vars=x0..x3")
    with pytest.raises(SessionSyntaxError):
        parse_session("ring p=32003 vars=x0..x3\nideal A = x0\nideal A = x1")
    with pytest.raises(SessionSyntaxError):
        parse_session("ideal A = x0")  # ring must come first


R3_SMALL = Ring(3, 7)


@st.composite
def expressions(draw, depth=3):
    """(text, ring element) pairs: an expression over GF(7)[x0..x2] and its
    value by ring-element arithmetic; every operation is parenthesised, so
    the text has one reading."""
    R = R3_SMALL
    kinds = ["int", "var"] + (["+", "-", "*", "^", "neg"] if depth else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "int":
        c = draw(st.integers(0, 10**20))
        return str(c), R.constant(c)
    if kind == "var":
        i = draw(st.integers(0, 2))
        return f"x{i}", R.var(i)
    a, f = draw(expressions(depth - 1))
    if kind == "neg":
        return f"(-{a})", -f
    if kind == "^":
        k = draw(st.integers(0, 3))
        return f"({a})^{k}", f ** k
    b, g = draw(expressions(depth - 1))
    value = {"+": lambda: f + g, "-": lambda: f - g, "*": lambda: f * g}[kind]()
    return f"({a}{kind}{b})", value


@given(expressions())
@settings(max_examples=150, deadline=None)
def test_parse_poly_matches_polynomial_arithmetic(case):
    text, value = case
    assert parse_poly(R3_SMALL, text) == value


def test_parse_poly_precedence_and_guards(R4):
    x0, x1, x2, x3 = R4.gens()
    assert parse_poly(R4, "-x0*x1^2 + 3*x2 - x3^0*x3") == -(x0 * x1 ** 2) + x2 * 3 - x3
    assert parse_poly(R4, "2*x0 - 2*x0 + 32003*x1").is_zero
    with pytest.raises(SessionSyntaxError) as exc:
        parse_poly(R4, "x0 + * x1", line_no=3)
    assert (exc.value.line, exc.value.column) == (3, 6)
    with pytest.raises(SessionSyntaxError) as exc:
        parse_poly(R4, "(x0 + x1", line_no=2)
    assert (exc.value.line, exc.value.column) == (2, 9)
    # past the degree bound on ^ and on *, even when the top terms cancel;
    # ^ checks before it multiplies, so a huge power of a binomial fails fast
    with pytest.raises(DegreeOverflow, match="9223372036854775807"):
        parse_poly(R4, "x0^9223372036854775807")
    for text in ["x0^4611686018427387904", "(x0^2305843009213693952)^2",
                 "x0^4611686018427387903*x1 - x0^4611686018427387903*x1",
                 "(x0 + x1)^9223372036854775807"]:
        with pytest.raises(DegreeOverflow):
            parse_poly(R4, text)
    assert parse_poly(R4, "x0^4611686018427387903").degree == 2**62 - 1


def test_argument_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_prime_above_int64_bound_exits_2(tmp_path):
    session = tmp_path / "big.txt"
    session.write_text("ring p=4294967311 vars=x0..x2\nideal I = x0, x1\n")
    out = tmp_path / "report.json"
    assert main(["--out", str(out), "--session", str(session), "gb", "I"]) == 2
    assert json.loads(out.read_bytes())["error"] == "prime-check-failed"


@pytest.mark.parametrize(
    "session,points,error",
    [
        # above 2^31: rejected before any primality test could run for long
        ("ring p=2305843009213693951 vars=x0..x2\nideal I = x0\n", None, "prime-check-failed"),
        ("ring p=abc vars=x0..x2\nideal I = x0\n", None, "syntax-error"),
        ("ring p=32003 vars=x0..x2\npoints I = file(pts.txt)\n", "1 0 0\n1 2 a\n", "syntax-error"),
        ("ring p=32003 vars=x0..x2\npoints I = file(pts.txt)\n", "1 0 0\n1 2\n", "syntax-error"),
        ("ring p=32003 vars=x0..x2\npoints I = file(pts.txt)\n", "1 0 0\n0 0 0\n", "syntax-error"),
        ("ring p=32003 vars=x0..x2\npoints I = file(pts.txt)\n", "1 0 0\n32003 0 0\n", "syntax-error"),
        ("ring p=32003 vars=x0..x2\nideal I = x0+x1^2\n", None, "not-homogeneous"),
        ("ring p=32003 vars=x0..x2\nmatrix I = [[x0, x1^2+x0]]\n", None, "degenerate-matrix"),
        # the exponent would wrap to -2^63 and the ideal read as the unit ideal
        ("ring p=32003 vars=x0..x2\nideal I = x0^9223372036854775807*x0\n", None, "degree-overflow"),
    ],
    ids=["huge-prime", "p-not-integer", "points-not-integer", "point-too-short",
         "point-zero", "point-zero-mod-p",
         "not-homogeneous", "matrix-not-homogeneous", "exponent-overflow"],
)
def test_malformed_input_exits_2(session, points, error, tmp_path):
    (tmp_path / "s.txt").write_text(session)
    if points is not None:
        (tmp_path / "pts.txt").write_text(points)
    out = tmp_path / "report.json"
    assert main(["--out", str(out), "--session", str(tmp_path / "s.txt"), "gb", "I"]) == 2
    doc = json.loads(out.read_bytes())
    assert doc["error"] == error
    if error == "syntax-error":
        assert doc["message"].startswith("line 2," if points else "line 1,")


R3_DECL = "ring p=32003 vars=x0..x2\n"


# each syntax error a session can hold: (session, line, column, message)
SESSION_ERRORS = {
    "second-ring": (R3_DECL + "ring p=7 vars=x0..x2\n", 2, 1, "only one ring per session"),
    "bad-object-name": (R3_DECL + "ideal I-1 = x0\n", 2, 1, "bad object name"),
    "points-without-file": (R3_DECL + "points P = pts.txt\n", 2, 1, "points need file(...)"),
    "unknown-statement": (R3_DECL + "module M = x0\n", 2, 1, "unknown statement 'module'"),
    "ring-without-vars": ("ring p=32003\nideal I = x0\n", 1, 1, "ring needs p=... vars=..."),
    "vars-not-a-range": ("ring p=32003 vars=x0-x2\nideal I = x0\n", 1, 1, "vars must look like x0..xN"),
    "vars-not-from-x0": ("ring p=32003 vars=x1..x2\nideal I = x1\n", 1, 1, "variables start at x0"),
    "unknown-order": ("ring p=32003 vars=x0..x2 order=lexx\nideal I = x0\n", 1, 1, "unknown order 'lexx'"),
    "unknown-ring-field": ("ring p=32003 vars=x0..x2 ordr=lex\nideal I = x0\n", 1, 1, "unknown ring field 'ordr'"),
    "repeated-ring-field": ("ring p=7 p=32003 vars=x0..x2\nideal I = x0\n", 1, 1, "ring field 'p' given twice"),
    "ring-word-without-value": (
        "ring p=32003 vars=x0..x2 lex\nideal I = x0\n", 1, 1, "'lex' is not a field=value pair"
    ),
    "bad-character-in-body": (R3_DECL + "ideal I = x0+$x1\n", 2, 14, "unexpected character '$'"),
    "unknown-variable": (R3_DECL + "ideal I = x0+y0\n", 2, 14, "unknown variable 'y0'"),
}


@pytest.mark.parametrize("session,line,column,message", SESSION_ERRORS.values(), ids=list(SESSION_ERRORS))
def test_session_errors_exit_2_at_their_line(session, line, column, message, tmp_path):
    (tmp_path / "s.txt").write_text(session)
    out = tmp_path / "report.json"
    assert main(["--out", str(out), "--session", str(tmp_path / "s.txt"), "gb", "I"]) == 2
    doc = json.loads(out.read_bytes())
    assert doc["error"] == "syntax-error"
    assert doc["message"] == f"line {line}, column {column}: {message}"


@pytest.mark.parametrize("session,line,column,message", SESSION_ERRORS.values(), ids=list(SESSION_ERRORS))
def test_session_errors_surface_before_any_object_is_read(session, line, column, message):
    """Parsing alone raises each syntax error, though it builds no object."""
    with pytest.raises(SessionSyntaxError) as exc:
        parse_session(session)
    assert (exc.value.line, exc.value.column) == (line, column)


# a malformed object that `gb I` never reads, and the error code of reading
# it (None: a file that cannot be read, which exits 2 with no report)
UNREAD_OBJECTS = {
    "not-homogeneous": ("ideal BAD = x0+x1^2", "not-homogeneous"),
    "degenerate-matrix": ("matrix BAD = [[x0, x1^2+x0]]", "degenerate-matrix"),
    "degree-overflow": ("ideal BAD = x0^9223372036854775807*x0", "degree-overflow"),
    "points-file-missing": ("points BAD = file(missing.txt)", None),
}


@pytest.mark.parametrize("bad,error", UNREAD_OBJECTS.values(), ids=list(UNREAD_OBJECTS))
def test_an_object_is_built_when_a_command_first_reads_it(bad, error, tmp_path):
    """An unread object fails only by its syntax: `gb I` answers as if the
    malformed line were not there.  Read, the object raises its own error,
    whatever kind the command wanted."""
    (tmp_path / "good.txt").write_text(R3_DECL + "ideal I = x0, x1\n")
    (tmp_path / "bad.txt").write_text(R3_DECL + bad + "\nideal I = x0, x1\n")
    good = _run_capture(["--session", str(tmp_path / "good.txt"), "gb", "I"], tmp_path)
    assert good[0] == 0
    assert _run_capture(["--session", str(tmp_path / "bad.txt"), "gb", "I"], tmp_path) == good
    out = tmp_path / "bad-report.json"
    assert main(["--out", str(out), "--session", str(tmp_path / "bad.txt"), "gb", "BAD"]) == 2
    if error is None:
        assert not out.exists()
    else:
        assert json.loads(out.read_bytes())["error"] == error


def test_a_command_builds_only_the_objects_it_reads(tmp_path, monkeypatch):
    """`betti TC` on the 16 objects of p3.txt builds one ideal, and a
    second read of an object returns the object built by the first."""
    built = []

    def spy(cls):
        def build(*args):
            built.append(cls(*args))
            return built[-1]

        return build

    monkeypatch.setattr(cli, "Ideal", spy(Ideal))
    monkeypatch.setattr(cli, "PolyMatrix", spy(PolyMatrix))
    code, blob = _run_capture(dict(GOLDEN_CASES)["betti_tc"], tmp_path)
    assert (code, blob) == (0, (GOLDEN / "betti_tc.json").read_bytes())
    assert len(built) == 1
    sess = parse_session((SESSIONS / "p3.txt").read_text(), base_dir=str(SESSIONS))
    assert sess.get("TC", ("ideal",)) is sess.get("TC", ("ideal",))


@pytest.mark.parametrize("command", ["cb-check", "dgo"])
@pytest.mark.parametrize("points", ["", "# no points here\n\n"], ids=["empty", "comments-only"])
def test_points_file_with_no_points_exits_2(command, points, tmp_path):
    """An empty point set is malformed input, reported at the session line
    that reads the file."""
    (tmp_path / "s.txt").write_text("ring p=32003 vars=x0..x2\npoints Z = file(pts.txt)\n")
    (tmp_path / "pts.txt").write_text(points)
    out = tmp_path / "report.json"
    assert main(["--out", str(out), "--session", str(tmp_path / "s.txt"), command, "Z"]) == 2
    doc = json.loads(out.read_bytes())
    assert doc["error"] == "syntax-error"
    assert doc["message"].startswith("line 2, column 1:") and "no points" in doc["message"]


@pytest.mark.parametrize(
    "case", ["session-is-a-directory", "unreadable", "not-utf8", "points-file-is-a-directory"]
)
def test_unreadable_input_exits_2(case, tmp_path, capsys, monkeypatch):
    """Input that cannot be read is a usage error, not a mathematical one.
    The unreadable session is simulated, since a superuser reads any file
    whatever its mode.  A points file is opened when a command first reads
    its object, so that case reads P."""
    session = tmp_path / "s.txt"
    session.write_text("ring p=32003 vars=x0..x2\nideal I = x0\npoints P = file(pts)\n")
    (tmp_path / "pts").mkdir()
    if case == "session-is-a-directory":
        session = tmp_path
    elif case == "not-utf8":
        session.write_bytes(b"ring p=32003 vars=x0..x2\nideal I = x0 # \xff\xfe\n")
    elif case == "unreadable":

        def denied(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(cli, "open", denied, raising=False)
    command = ["cb-check", "P"] if case == "points-file-is-a-directory" else ["gb", "I"]
    out = tmp_path / "report.json"
    assert main(["--out", str(out), "--session", str(session), *command]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


def test_syntax_errors_in_a_body_report_their_column_in_the_line():
    """Ideal and matrix bodies are tokenized once at their offset in the line,
    so the column counts from the start of the line, leading blanks too."""
    cases = [
        ("ideal A = x0*x1, x1 +* x2", 22),
        ("matrix M = [[x0,x1],[x2,x0 ^^ 2]]", 29),
        ("  ideal  B = x0, x1 x2  # comment", 21),
        ("matrix M = [[x0,x1] [x2,x3]]", 21),
    ]
    for text, col in cases:
        with pytest.raises(SessionSyntaxError) as exc:
            parse_session("ring p=32003 vars=x0..x3\n" + text)
        assert (exc.value.line, exc.value.column) == (2, col), text


def _betti(tmp_path, ideal):
    (tmp_path / "s.txt").write_text(f"ring p=32003 vars=x0..x2\nideal I = {ideal}\n")
    out = tmp_path / "report.json"
    code = main(["--out", str(out), "--session", str(tmp_path / "s.txt"), "betti", "I"])
    return code, json.loads(out.read_bytes())


def test_betti_at_a_huge_degree_lists_no_graded_piece(tmp_path):
    """Minimal generators come from the pair loop, not from the monomials of
    each graded piece; degree 10^6 alone would hold about 5*10^11 of them."""
    code, doc = _betti(tmp_path, "x0^1000000*x1, x1^2")
    assert code == 0
    assert doc["betti"] == {"0": {"2": 1, "1000001": 1}, "1": {"1000002": 1}}


def test_hilbert_at_a_huge_pivot_exponent(tmp_path):
    """The Hilbert numerator pivots on x0^5000 in one step; one power of x0
    at a time, its recursion would be 5000 calls deep."""
    (tmp_path / "s.txt").write_text("ring p=32003 vars=x0..x2\nideal I = x0^5000*x1, x1^2\n")
    out = tmp_path / "report.json"
    assert main(["--out", str(out), "--session", str(tmp_path / "s.txt"), "hilbert", "I"]) == 0
    doc = json.loads(out.read_bytes())
    assert (doc["degree"], doc["dim"]) == (1, 2)
    I = parse_session((tmp_path / "s.txt").read_text()).get("I", ("ideal",))
    assert I.hilbert().numerator == {0: 1, 2: -1, 5001: -1, 5002: 1}


_COLON = Ideal.colon


@pytest.mark.parametrize(
    "owner,name,fake,command,error",
    [
        (resolution, "_kernel_generators", lambda F, gens, kernel: gens, ["betti", "TC"], "resolution-incomplete"),
        # the colon that builds J drops J's last generator
        (Ideal, "colon", lambda self, other, numerator=None: Ideal(self.ring, _COLON(self, other, numerator).gens[:-1]),
         ["link", "--gor", "C22", "--ideal", "TC"], "link-series-mismatch"),
    ],
    ids=["resolution-past-the-bound", "link-series-mismatch"],
)
def test_internal_failures_exit_1_with_a_report(owner, name, fake, command, error, tmp_path, monkeypatch):
    """A failed identity of the algebra is a typed error: the CLI exits 1
    and writes a report naming it."""
    monkeypatch.setattr(owner, name, fake)
    code, report = _run_capture(["--session", "p3.txt", *command], tmp_path)
    assert (code, json.loads(report)["error"]) == (1, error)


def test_betti_past_the_degree_bound_is_a_typed_error(tmp_path):
    code, doc = _betti(tmp_path, "x0^4611686018427387904*x1, x1^2")
    assert (code, doc["error"]) == (2, "degree-overflow")


@pytest.mark.parametrize(
    "argv,env,error",
    [
        (["macaulay", "1", "a", "3"], None, None),
        (["macaulay", "1", "-3"], None, None),
        (["--session", "p3.txt", "lift", "x1^2", "--level", "-1"], None, "variable-out-of-range"),
        (["--session", "p3.txt", "lift", "1", "--level", "9"], None, "variable-out-of-range"),
        (["--session", "p3.txt", "lift", "x1^2", "--level", "9"], None, "variable-out-of-range"),
        (["--session", "p3.txt", "--window", "5", "1", "deficiency", "QUARTIC"], None, None),
        (["--session", "p2pts.txt", "cb-check", "GRID"], "abc", None),
        (["--session", "p2pts.txt", "--seed", "-1", "cb-check", "GRID"], None, None),
        (["--session", "p3.txt", "gb", "NOPE"], None, "session-object"),
        (["--session", "p3.txt", "cb-check", "TC"], None, "session-object"),
        (["--session", "p2pts.txt", "lift", "x1^3*x2^2 # x0"], None, "syntax-error"),
        (["gb", "TC"], None, None),
    ],
    ids=["macaulay-not-integer", "macaulay-negative", "level-negative", "level-too-high-constant",
         "level-too-high", "window-reversed", "env-seed-not-integer", "seed-negative",
         "unknown-object", "object-of-another-kind", "comment-in-a-polynomial-argument",
         "no-session"],
)
def test_malformed_arguments_exit_2(argv, env, error, tmp_path, monkeypatch):
    if env is not None:
        monkeypatch.setenv("LIAISON_SEED", env)
    out = tmp_path / "report.json"
    assert main(["--out", str(out)] + _sessionize(argv)) == 2
    if error is None:  # rejected before any report: by argparse, or for want of --session
        assert not out.exists()
    else:
        assert json.loads(out.read_bytes())["error"] == error


def test_each_dual_image_series_is_computed_once_in_the_quartic_link(tmp_path, monkeypatch):
    """The quartic link reads Ext^3 of the quartic twice, in `direct_link`'s
    unmixedness check and in the report's cohomology duality; the series of
    each image of a transposed differential is computed once per
    resolution and k, and read from the resolution after that."""
    pairs, computed = [], []
    image, submodule = resolution._image_numerator, resolution.submodule_numerator

    def image_spy(res, k):
        pairs.append((res, k))
        return image(res, k)

    def submodule_spy(*args):
        computed.append(args)
        return submodule(*args)

    monkeypatch.setattr(resolution, "_image_numerator", image_spy)
    monkeypatch.setattr(resolution, "submodule_numerator", submodule_spy)
    code, blob = _run_capture(dict(GOLDEN_CASES)["quartic_link"], tmp_path)
    assert (code, blob) == (0, (GOLDEN / "quartic_link.json").read_bytes())
    distinct = {(id(res), k) for res, k in pairs if 1 <= k <= res.length}
    assert len(computed) == len(distinct) < len(pairs)


def test_round_trip(R4):
    x0, x1, x2, x3 = R4.gens()
    I = Ideal(R4, [x0 * x2 - x1 ** 2, x0 * x3 - x1 * x2, x1 * x3 - x2 ** 2])
    strs = I.canonical_strings()
    J = Ideal(R4, [parse_poly(R4, s) for s in strs])
    assert I == J
    # negative coefficients and powers parse too
    f = parse_poly(R4, "-3*x0^2*x1 + x2*x3 - 12")
    assert f == (-3) * x0 ** 2 * x1 + x2 * x3 - R4.constant(12)


def test_session_objects():
    text = (SESSIONS / "p3.txt").read_text()
    sess = parse_session(text, base_dir=str(SESSIONS))
    I = sess.get("TC", ("ideal",))
    assert len(I.gens) == 3
    M = sess.get("SCROLL", ("matrix",))
    assert M.nrows == 2 and M.ncols == 3


def test_cli_subprocess_entry():
    """The module entry point works through a real process."""
    cmd = [
        sys.executable,
        "-m",
        "liaisonlab.cli",
        "macaulay",
        "1",
        "3",
        "1",
        "2",
    ]
    env = dict(os.environ)
    res = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["first_violation"] == 2
    assert doc["schema"] == "liaison-lab/1"


@pytest.mark.parametrize(
    "window,degrees",
    [([], range(-6, 3)), (["--window", "-2", "2"], range(-2, 3))],
    ids=["default-window", "given-window"],
)
def test_deficiency_of_the_zero_ideal(window, degrees, tmp_path):
    """R/0 = R has no deficiency in any degree.  The default window ends at
    the regularity of the Betti table, which the zero ideal has (0), so the
    command answers with and without --window."""
    (tmp_path / "s.txt").write_text("ring p=32003 vars=x0..x3\nideal Z = \n")
    out = tmp_path / "report.json"
    assert main(["--out", str(out), "--session", str(tmp_path / "s.txt")] + window + ["deficiency", "Z"]) == 0
    zeros = {str(j): 0 for j in degrees}
    assert json.loads(out.read_bytes())["tables"] == {"1": zeros, "2": zeros, "3": zeros}


# sessions written to the test's own directory, kept out of the golden corpus
TMP_SESSIONS = {
    # the rational normal quartic of P^4: the 2x2 minors of
    # [[x0, x1, x2, x3], [x1, x2, x3, x4]]
    "quartic_p4.txt": "ring p=32003 vars=x0..x4\nideal Q = x0*x2-x1^2, x0*x3-x1*x2, "
    "x0*x4-x1*x3, x1*x3-x2^2, x1*x4-x2*x3, x2*x4-x3^2\n",
}


# (argv, check of the report) - every command the goldens do not run
COVERAGE_CASES = [
    (["--session", "p3.txt", "gb", "TC"], lambda d: len(d["gb"]) == 3),
    (["--session", "p3.txt", "classify", "TC"], lambda d: d["cm"] and d["cm_type"] == 2),
    (["--session", "p3.txt", "verify-link", "--gor", "C22", "--ideal", "TC"], lambda d: d["ok"]),
    (
        ["--session", "p3.txt", "bdl", "--j", "LINEJ", "--ideal", "LINE", "--f", "x1+x2"],
        lambda d: d["ok"] and sorted(d["result"]) == ["x0", "x1^2+x1*x2"],
    ),
    (
        ["--session", "p3.txt", "liaison-add", "--part", "LINE", "x2^2", "--part", "UNIT", "x0^3+x1^3"],
        lambda d: d["ok"],
    ),
    (
        ["--session", "p3.txt", "sum-linked", "--i1", "LA", "--i2", "LB", "--x", "XL"],
        lambda d: d["gorenstein"] and d["result"] == ["x0", "x1", "x2"],
    ),
    (
        ["--session", "p3.txt", "aci-gor", "--ci", "C22", "--ideal", "TC"],
        lambda d: d["result"] == ["x0", "x1"] and d["gorenstein"],
    ),
    (["--session", "p3.txt", "wlp", "ART"], lambda d: d["wlp"] is True),
    (
        ["--session", "quartic_p4.txt", "--window", "-1", "4", "ci-invariant", "Q"],
        lambda d: d["tables"] == {"1": {"-1": 0, "0": 0, "1": 0, "2": 3, "3": 0, "4": 0}}
        and d["all_zero"] is False,
    ),
]


@pytest.mark.parametrize("argv,expect", COVERAGE_CASES)
def test_cli_command_coverage(argv, expect, tmp_path):
    if argv[1] in TMP_SESSIONS:
        (tmp_path / argv[1]).write_text(TMP_SESSIONS[argv[1]])
        argv = ["--session", str(tmp_path / argv[1])] + argv[2:]
    code, blob = _run_capture(argv, tmp_path)
    assert code == 0, blob
    assert expect(json.loads(blob))


@pytest.mark.parametrize("window", [("-1", "1"), ("3", "9")], ids=["below", "above"])
def test_ci_invariant_all_zero_reads_the_exact_series(window, tmp_path):
    """The invariant of the rational normal quartic is 3 in degree 2, which
    neither window holds: the tables read 0 throughout, and all_zero, read
    off the exact series, is still false."""
    (tmp_path / "q.txt").write_text(TMP_SESSIONS["quartic_p4.txt"])
    argv = ["--session", str(tmp_path / "q.txt"), "--window", *window, "ci-invariant", "Q"]
    code, blob = _run_capture(argv, tmp_path)
    assert code == 0, blob
    doc = json.loads(blob)
    assert set(doc["tables"]["1"].values()) == {0}
    assert doc["all_zero"] is False


def test_every_command_is_exercised():
    """The goldens and the coverage cases run every command of the table,
    so a command added without a case fails here."""
    parse = cli._build_parser().parse_args
    run = {parse(argv).command for _, argv in GOLDEN_CASES}
    run |= {parse(argv).command for argv, _ in COVERAGE_CASES}
    assert run == set(cli.COMMANDS)


def test_usage_errors_exit_2_and_every_other_error_1():
    """`main` exits with the `exit_code` of the error type it catches: 2 for
    malformed input or arguments, 1 for a mathematical failure."""
    usage = {
        errors.SessionSyntaxError,
        errors.SessionObjectError,
        errors.PrimeCheckFailed,
        errors.VariableOutOfRange,
        errors.NotHomogeneous,
        errors.DegenerateMatrix,
        errors.DegreeOverflow,
        errors.MalformedCertificate,
    }
    types = [t for t in vars(errors).values() if isinstance(t, type) and issubclass(t, errors.LiaisonError)]
    assert {t for t in types if t.exit_code == 2} == usage
    assert {t.exit_code for t in types if t not in usage} == {1}
