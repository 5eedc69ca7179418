import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from liaisonlab import cli
from liaisonlab.cli import main, parse_poly, parse_session
from liaisonlab.errors import (
    DegreeOverflow,
    PrimeCheckFailed,
    SessionSyntaxError,
    VariableOutOfRange,
)
from liaisonlab.ideals import Ideal
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
    with pytest.raises(PrimeCheckFailed):
        parse_session("ring p=32004 vars=x0..x3")
    with pytest.raises(SessionSyntaxError):
        parse_session("ring p=32003 vars=x0..x3\nideal A = x0\nideal A = x1")
    with pytest.raises(SessionSyntaxError):
        parse_session("ideal A = x0")  # ring must come first


R3_SMALL = Ring(3, 7)


@st.composite
def expressions(draw, depth=3):
    """(text, Polynomial) pairs: an expression over GF(7)[x0..x2] and its
    value by `Polynomial` arithmetic; every operation is parenthesised, so
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
        ("ring p=32003 vars=x0..x2\nideal I = x0+x1^2\n", None, "not-homogeneous"),
        ("ring p=32003 vars=x0..x2\nmatrix I = [[x0, x1^2+x0]]\n", None, "degenerate-matrix"),
        # the exponent would wrap to -2^63 and the ideal read as the unit ideal
        ("ring p=32003 vars=x0..x2\nideal I = x0^9223372036854775807*x0\n", None, "degree-overflow"),
    ],
    ids=["huge-prime", "p-not-integer", "points-not-integer", "point-too-short",
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
    ],
    ids=["macaulay-not-integer", "macaulay-negative", "level-negative", "level-too-high-constant",
         "level-too-high", "window-reversed", "env-seed-not-integer", "seed-negative",
         "unknown-object", "object-of-another-kind"],
)
def test_malformed_arguments_exit_2(argv, env, error, tmp_path, monkeypatch):
    if env is not None:
        monkeypatch.setenv("LIAISON_SEED", env)
    out = tmp_path / "report.json"
    assert main(["--out", str(out)] + _sessionize(argv)) == 2
    if error is None:  # rejected while parsing the arguments, before any report
        assert not out.exists()
    else:
        assert json.loads(out.read_bytes())["error"] == error


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
    "argv,expect",
    [
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
    ],
)
def test_cli_command_coverage(argv, expect, tmp_path):
    code, blob = _run_capture(argv, tmp_path)
    assert code == 0, blob
    assert expect(json.loads(blob))
