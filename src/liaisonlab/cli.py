"""Command-line surface: a small ring/ideal language, one command table and
canonical JSON reports.

Session files:
    ring p=32003 vars=x0..x3 order=degrevlex
    ideal C = x0*x3-x1*x2, x0*x2-x1^2
    matrix M = [[x0,x1,x2],[x1,x2,x3]]
    points P = file(points.txt)

Expressions evaluate to ring elements with the ring's own arithmetic.
`COMMANDS` maps each command to its argparse arguments and its handler: the
argument parser is built from it and `run` dispatches through it.

Reports are canonical JSON (sorted keys, fixed separators, seed and schema
included): identical (input, seed) pairs produce identical bytes.
Exit codes: 0 success, 1 mathematical failure, 2 usage error.  A typed
error writes a report and exits with its type's `exit_code` (errors.py); a
report whose check failed (ok, agree or replay_ok false) exits 1; arguments
argparse rejects and files that cannot be read exit 2 with no report.
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import LiaisonError, SessionObjectError, SessionSyntaxError, VariableOutOfRange
from .gorenstein import (
    PointSet,
    aci_gorenstein,
    cayley_bacharach_check,
    complete_intersection,
    dgo_verify,
    sum_of_linked,
    wlp_check,
)
from .glicci import GlicciCertificate, gaeta_run, glicci_descent, lift_map
from .hilbert import macaulay_growth_check, si_sequence_check
from .ideals import Ideal, PolyMatrix
from .liaison import basic_double_link, direct_link, liaison_addition
from .resolution import ci_invariant_numerators, ci_invariant_tables, classify, deficiency_table
from .ring import Order, Ring

SCHEMA = "liaison-lab/1"


# -- polynomial/session parsing ---------------------------------------------


class _Tok:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


def _tokenize(text, line_no=1):
    toks = []
    i = 0
    col = 1
    line = line_no
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(_Tok("int", int(text[i:j]), line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] in "_."):
                j += 1
            toks.append(_Tok("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*^(),=[]":
            toks.append(_Tok(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise SessionSyntaxError(f"unexpected character {ch!r}", line, col)
    toks.append(_Tok("end", None, line, col))
    return toks


class PolyParser:
    """Recursive-descent parser for `^ * + -` polynomial expressions.

    Expressions evaluate to ring elements with the ring's own arithmetic,
    whose products and powers raise DegreeOverflow past the degree bound,
    even when the top terms would cancel."""

    def __init__(self, ring, toks, pos=0):
        self.ring = ring
        self.toks = toks
        self.pos = pos

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        t = self.toks[self.pos]
        if kind and t.kind != kind:
            raise SessionSyntaxError(f"expected {kind}, found {t.kind}", t.line, t.col)
        self.pos += 1
        return t

    def parse_expr(self):
        t = self.peek()
        if t.kind in "+-":
            self.take()
        acc = self.parse_term()
        if t.kind == "-":
            acc = -acc
        while self.peek().kind in "+-":
            if self.take().kind == "+":
                acc = acc + self.parse_term()
            else:
                acc = acc - self.parse_term()
        return acc

    def parse_term(self):
        acc = self.parse_factor()
        while self.peek().kind == "*":
            self.take()
            acc = acc * self.parse_factor()
        return acc

    def parse_factor(self):
        base = self.parse_atom()
        if self.peek().kind == "^":
            self.take()
            base = base ** self.take("int").value
        return base

    def parse_atom(self):
        t = self.peek()
        if t.kind == "int":
            self.take()
            return self.ring.constant(t.value)
        if t.kind == "name":
            self.take()
            return self._variable(t)
        if t.kind == "(":
            self.take()
            inner = self.parse_expr()
            self.take(")")
            return inner
        raise SessionSyntaxError(f"expected a polynomial atom, found {t.kind}", t.line, t.col)

    def _variable(self, tok):
        name = tok.value
        if name in self.ring.names:
            return self.ring.var(self.ring.names.index(name))
        if name.startswith("x") and name[1:].isdigit():
            raise VariableOutOfRange(f"{name} outside the declared ring")
        raise SessionSyntaxError(f"unknown variable {name!r}", tok.line, tok.col)


def parse_poly(ring, text, line_no=1):
    p = PolyParser(ring, _tokenize(text, line_no))
    out = p.parse_expr()
    _expect_end(p)
    return out


def _expect_end(parser):
    t = parser.peek()
    if t.kind != "end":
        raise SessionSyntaxError(f"trailing input {t.kind}", t.line, t.col)


def _parse_row(parser):
    """Comma-separated polynomials."""
    polys = [parser.parse_expr()]
    while parser.peek().kind == ",":
        parser.take()
        polys.append(parser.parse_expr())
    return polys


def _parse_matrix(parser):
    """[[f, ...], [g, ...], ...] read from the parser's tokens."""
    parser.take("[")
    rows = []
    while not rows or parser.peek().kind == ",":
        if rows:
            parser.take()
        parser.take("[")
        rows.append(_parse_row(parser))
        parser.take("]")
    parser.take("]")
    _expect_end(parser)
    return PolyMatrix(parser.ring, rows)


class Session:
    """Parsed session: one ring plus named ideals, matrices and point sets."""

    def __init__(self):
        self.ring = None
        self.objects = {}

    def get(self, name, kinds=None):
        if name not in self.objects:
            raise SessionObjectError(f"unknown object {name!r}")
        kind, obj = self.objects[name]
        if kinds and kind not in kinds:
            raise SessionObjectError(f"object {name!r} has kind {kind}, expected {kinds}")
        return obj

    def poly(self, text):
        return parse_poly(self.ring, text)


def parse_session(text, base_dir="."):
    sess = Session()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "ring":
            if sess.ring is not None:
                raise SessionSyntaxError("only one ring per session", line_no, 1)
            sess.ring = _parse_ring_decl(rest, line_no)
            continue
        if sess.ring is None:
            raise SessionSyntaxError("ring must be declared first", line_no, 1)
        if head in ("ideal", "matrix", "points"):
            name, _, body = rest.partition("=")
            name = name.strip()
            if not name or not name.replace("_", "").isalnum():
                raise SessionSyntaxError("bad object name", line_no, 1)
            if name in sess.objects:
                raise SessionSyntaxError(f"duplicate name {name!r}", line_no, 1)
            if head == "points":
                body = body.strip()
                if not (body.startswith("file(") and body.endswith(")")):
                    raise SessionSyntaxError("points need file(...)", line_no, 1)
                path = os.path.join(base_dir, body[5:-1].strip())
                obj = _read_points(sess.ring, path, line_no)
            else:
                # blank out everything before the body, so that each token
                # carries its column in the line
                start = len(raw) - len(raw.lstrip()) + len(line) - len(body)
                parser = PolyParser(sess.ring, _tokenize(" " * start + body, line_no))
                if head == "matrix":
                    obj = _parse_matrix(parser)
                else:
                    gens = _parse_row(parser) if parser.peek().kind != "end" else []
                    _expect_end(parser)
                    obj = Ideal(sess.ring, gens)
            sess.objects[name] = (head, obj)
        else:
            raise SessionSyntaxError(f"unknown statement {head!r}", line_no, 1)
    return sess


def _parse_ring_decl(rest, line_no):
    fields = dict(part.split("=", 1) for part in rest.split() if "=" in part)
    if "p" not in fields or "vars" not in fields:
        raise SessionSyntaxError("ring needs p=... vars=...", line_no, 1)
    try:
        p = int(fields["p"])
    except ValueError:
        raise SessionSyntaxError(f"p={fields['p']} is not an integer", line_no, 1) from None
    spec = fields["vars"]
    if ".." not in spec:
        raise SessionSyntaxError("vars must look like x0..xN", line_no, 1)
    lo, hi = spec.split("..", 1)
    if not (lo.startswith("x") and lo[1:].isdigit() and hi.startswith("x") and hi[1:].isdigit()):
        raise SessionSyntaxError("vars must look like x0..xN", line_no, 1)
    if int(lo[1:]) != 0:
        raise SessionSyntaxError("variables start at x0", line_no, 1)
    n = int(hi[1:])
    order = fields.get("order", "degrevlex")
    if order not in ("degrevlex", "lex"):
        raise SessionSyntaxError(f"unknown order {order!r}", line_no, 1)
    return Ring(n + 1, p, Order(order))


def _read_points(ring, path, decl_line):
    """The points listed in a file, one per line; an error with no line of
    its own in the file (a file with no points) points at decl_line, the
    session line that declares them."""
    pts = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            toks = raw.split("#", 1)[0].split()
            if not toks:
                continue
            try:
                pts.append(tuple(int(tok) for tok in toks))
            except ValueError:
                raise SessionSyntaxError(
                    f"{path}: point coordinates must be integers", line_no, 1
                ) from None
            if len(toks) != ring.nvars:
                raise SessionSyntaxError(
                    f"{path}: a point needs {ring.nvars} coordinates", line_no, 1
                )
            if not any(a % ring.p for a in pts[-1]):
                raise SessionSyntaxError(
                    f"{path}: every coordinate of a point is 0 mod {ring.p}", line_no, 1
                )
    if not pts:
        raise SessionSyntaxError(f"{path}: the file lists no points", decl_line, 1)
    return PointSet(ring, pts)


def certificate_from_json(ring, doc):
    """Rebuild a certificate from its archived JSON for offline replay."""

    def ideal_of(strs):
        return Ideal(ring, [parse_poly(ring, s) for s in strs])

    steps = []
    for st in doc["steps"]:
        if st["kind"] == "direct-link":
            steps.append(
                {
                    "kind": "link",
                    "c": ideal_of(st["c"]),
                    "from": ideal_of(st["from"]),
                    "to": ideal_of(st["to"]),
                }
            )
        else:
            steps.append(
                {
                    "kind": "bdl",
                    "j_cm": ideal_of(st["j"]),
                    "f": parse_poly(ring, st["f"]),
                    "from": ideal_of(st["from"]),
                    "to": ideal_of(st["to"]),
                }
            )
    return GlicciCertificate(ideal_of(doc["start"]), steps, ideal_of(doc["end"]))


# -- reports ------------------------------------------------------------------


def emit_report(payload, seed, out=None):
    doc = dict(payload)
    doc["schema"] = SCHEMA
    doc["version"] = __version__
    doc["seed"] = seed
    data = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    blob = data.encode("utf-8")
    if out:
        with open(out, "wb") as fh:
            fh.write(blob)
    else:
        sys.stdout.buffer.write(blob)
    return blob


def _betti_json(ideal):
    cls = classify(ideal)
    B = cls.pop("betti")
    cls["betti"] = B.to_json()
    return cls


def _hilbert_json(ideal, window):
    d = ideal.hilbert()
    return {
        "h_vector": list(d.h_vector),
        "h_vector_is_honest": d.h_vector_is_honest,
        "degree": d.degree,
        "dim": d.dim,
        "reg_index": d.reg_index,
        "hp_coeffs": d.hp_coeffs,
        "hf": {str(j): d.hf(j) for j in window},
    }


# -- commands ------------------------------------------------------------------
#
# Each handler takes (session, args, rng, w) and returns its report's fields,
# to which `run` adds "command"; w is the --window range or None.


def _gb(session, args, rng, w):
    return {"name": args.name, "gb": session.get(args.name, ("ideal",)).canonical_strings()}


def _hilbert(session, args, rng, w):
    I = session.get(args.name, ("ideal",))
    win = w or range(0, max(8, I.hilbert().reg_index + 3))
    return {"name": args.name, **_hilbert_json(I, win)}


def _betti(session, args, rng, w):
    return {"name": args.name, **_betti_json(session.get(args.name, ("ideal",)))}


def _link(session, args, rng, w):
    c = session.get(args.gor, ("ideal",))
    I = session.get(args.ideal, ("ideal",))
    rec = direct_link(c, I, require_gorenstein=not args.allow_acm)
    return {**rec.to_json(), "ok": rec.verification["all"]}


def _bdl(session, args, rng, w):
    J = session.get(args.j, ("ideal",))
    I = session.get(args.ideal, ("ideal",))
    tilde, report = basic_double_link(J, I, session.poly(args.f))
    return {"result": tilde.canonical_strings(), "report": report, "ok": report["all"]}


def _liaison_add(session, args, rng, w):
    parts = [(session.get(name, ("ideal",)), session.poly(expr)) for name, expr in args.part]
    Z, report = liaison_addition(parts)
    return {
        "result": Z.canonical_strings(),
        "degree": Z.hilbert().degree,
        "report": report,
        "ok": report["all"],
    }


def _sum_linked(session, args, rng, w):
    out = sum_of_linked(*(session.get(name, ("ideal",)) for name in (args.i1, args.i2, args.x)))
    return {"result": out.canonical_strings(), **_betti_json(out)}


def _aci_gor(session, args, rng, w):
    c = complete_intersection(session.get(args.ci, ("ideal",)).gens)
    J = aci_gorenstein(c, session.get(args.ideal, ("ideal",)))
    return {"result": J.canonical_strings(), **_betti_json(J)}


def _cb_check(session, args, rng, w):
    return {"name": args.name, **cayley_bacharach_check(session.get(args.name, ("points",)), rng=rng)}


def _dgo(session, args, rng, w):
    P = session.get(args.name, ("points",))
    val = dgo_verify(P, cayley_bacharach_check(P, rng=rng))
    gorenstein = classify(P.ideal())["gorenstein"]
    return {
        "name": args.name,
        "dgo": val,
        "classify_gorenstein": gorenstein,
        "agree": val == gorenstein,
        "h_vector": list(P.h_vector()),
    }


def _wlp(session, args, rng, w):
    return {"name": args.name, "wlp": wlp_check(session.get(args.name, ("ideal",)), rng=rng)}


def _gaeta(session, args, rng, w):
    cert = gaeta_run(session.get(args.name, ("matrix",)), rng)
    return {"certificate": cert.to_json(), "replay_ok": cert.replay()}


def _glicci(session, args, rng, w):
    cert = glicci_descent(session.get(args.name, ("ideal",)))
    return {"certificate": cert.to_json(), "replay_ok": cert.replay()}


def _lift(session, args, rng, w):
    return {"result": str(lift_map(session.poly(args.monomial), level=args.level))}


def _macaulay(session, args, rng, w):
    seq = args.values
    return {"sequence": seq, **macaulay_growth_check(seq), "si_sequence": si_sequence_check(seq)}


def _tables_json(tab):
    return {str(i): {str(j): v for j, v in row.items()} for i, row in tab.items()}


def _deficiency(session, args, rng, w):
    tab = deficiency_table(session.get(args.name, ("ideal",)), list(w) if w else None)
    return {"name": args.name, "tables": _tables_json(tab)}


def _ci_invariant(session, args, rng, w):
    I = session.get(args.name, ("ideal",))
    numerators = ci_invariant_numerators(I)
    return {
        "name": args.name,
        "tables": _tables_json(ci_invariant_tables(I, numerators, w)),
        # read off the exact series, not the window
        "all_zero": not any(numerators.values()),
    }


_NAME = [(("name",), {})]
_LINK = [
    (("--gor",), {"required": True}),
    (("--ideal",), {"required": True}),
    (("--allow-acm",), {"action": "store_true"}),
]

# command -> (its argparse arguments as (flags, keywords) pairs, its handler)
COMMANDS = {
    "gb": (_NAME, _gb),
    "hilbert": (_NAME, _hilbert),
    "betti": (_NAME, _betti),
    "classify": (_NAME, _betti),
    "link": (_LINK, _link),
    "verify-link": (_LINK, _link),
    "bdl": (
        [(("--j",), {"required": True}), (("--ideal",), {"required": True}), (("--f",), {"required": True})],
        _bdl,
    ),
    "liaison-add": (
        [(("--part",), {"nargs": 2, "action": "append", "required": True, "metavar": ("IDEAL", "POLY")})],
        _liaison_add,
    ),
    "sum-linked": (
        [(("--i1",), {"required": True}), (("--i2",), {"required": True}), (("--x",), {"required": True})],
        _sum_linked,
    ),
    "aci-gor": ([(("--ci",), {"required": True}), (("--ideal",), {"required": True})], _aci_gor),
    "cb-check": (_NAME, _cb_check),
    "dgo": (_NAME, _dgo),
    "wlp": (_NAME, _wlp),
    "gaeta": (_NAME, _gaeta),
    "glicci": (_NAME, _glicci),
    "lift": ([(("monomial",), {}), (("--level",), {"type": int, "default": 0})], _lift),
    "macaulay": ([(("values",), {"nargs": "+", "type": int})], _macaulay),
    "deficiency": (_NAME, _deficiency),
    "ci-invariant": (_NAME, _ci_invariant),
}


def run(session, command, args, seed, window):
    rng = np.random.default_rng(seed)
    w = range(window[0], window[1] + 1) if window else None
    return {"command": command, **COMMANDS[command][1](session, args, rng, w)}


@functools.cache
def _build_parser():
    """The argument parser, built once per process (it holds no state
    between `parse_args` calls)."""
    ap = argparse.ArgumentParser(prog="liaison-lab", description=__doc__)
    ap.add_argument("--session", help="session file (ring/ideal declarations)")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--window", nargs=2, type=int, metavar=("LO", "HI"))
    ap.add_argument("--json", action="store_true", help="(default) canonical JSON output")
    ap.add_argument("--out", help="write the report to FILE")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (arguments, _) in COMMANDS.items():
        c = sub.add_parser(command)
        for flags, keywords in arguments:
            c.add_argument(*flags, **keywords)
    return ap


def main(argv=None):
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
        if args.window and args.window[0] > args.window[1]:
            ap.error("--window needs LO <= HI")
        if args.command == "macaulay" and min(args.values) < 0:
            ap.error("macaulay values must be non-negative")
        seed = args.seed or 0
        env_seed = os.environ.get("LIAISON_SEED")
        if env_seed is not None:
            try:
                seed = int(env_seed)
            except ValueError:
                ap.error(f"LIAISON_SEED must be an integer, not {env_seed!r}")
        if seed < 0:
            ap.error("the seed must be non-negative")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    session = Session()
    try:
        if args.session:
            with open(args.session, "r", encoding="utf-8") as fh:
                text = fh.read()
            session = parse_session(text, base_dir=os.path.dirname(args.session) or ".")
        elif args.command not in ("macaulay",):
            print("error: this command needs --session", file=sys.stderr)
            return 2
        payload = run(session, args.command, args, seed, args.window)
    except LiaisonError as exc:
        emit_report({"error": exc.code, "message": str(exc)}, seed, args.out)
        return exc.exit_code
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    emit_report(payload, seed, args.out)
    ok = payload.get("ok", True)
    if ok is False or payload.get("agree") is False or payload.get("replay_ok") is False:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
