"""Command-line surface: a small ring/ideal language, command dispatch and
canonical JSON reports.

Session files:
    ring p=32003 vars=x0..x3 order=degrevlex
    ideal C = x0*x3-x1*x2, x0*x2-x1^2
    matrix M = [[x0,x1,x2],[x1,x2,x3]]
    points P = file(points.txt)

Reports are canonical JSON (sorted keys, fixed separators, seed and schema
included): identical (input, seed) pairs produce identical bytes.
Exit codes: 0 success, 1 mathematical failure, 2 usage error.
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import (
    DegenerateMatrix,
    DegreeOverflow,
    LiaisonError,
    NotHomogeneous,
    PrimeCheckFailed,
    SessionObjectError,
    SessionSyntaxError,
    VariableOutOfRange,
)
from .gorenstein import (
    PointSet,
    aci_gorenstein,
    cayley_bacharach_check,
    complete_intersection,
    dgo_verify,
    sum_of_linked,
    wlp_check,
)
from .glicci import gaeta_run, glicci_descent, lift_map
from .hilbert import macaulay_growth_check, si_sequence_check
from .ideals import Ideal, PolyMatrix
from .liaison import basic_double_link, direct_link, liaison_addition
from .resolution import ci_invariant_hf, classify, deficiency_table
from .ring import Order, Ring, check_degree

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

    Expressions evaluate to {exponent tuple: coefficient} dicts with
    coefficients in [1, p); `parse_poly` builds the polynomial with one
    `Ring.poly` call."""

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
        p = self.ring.p
        t = self.peek()
        sign = 1
        if t.kind in "+-":
            self.take()
            sign = -1 if t.kind == "-" else 1
        acc = {e: c * sign % p for e, c in self.parse_term().items()}
        while self.peek().kind in "+-":
            sign = 1 if self.take().kind == "+" else -1
            for e, c in self.parse_term().items():
                v = (acc.get(e, 0) + sign * c) % p
                if v:
                    acc[e] = v
                else:
                    acc.pop(e, None)
        return acc

    def parse_term(self):
        acc = self.parse_factor()
        while self.peek().kind == "*":
            self.take()
            acc = _dict_mul(acc, self.parse_factor(), self.ring.p)
        return acc

    def parse_factor(self):
        base = self.parse_atom()
        if self.peek().kind == "^":
            self.take()
            k = self.take("int").value
            check_degree(_dict_degree(base) * k)
            out = {(0,) * self.ring.nvars: 1}
            while k > 0:
                if k & 1:
                    out = _dict_mul(out, base, self.ring.p)
                k >>= 1
                if k:
                    base = _dict_mul(base, base, self.ring.p)
            base = out
        return base

    def parse_atom(self):
        t = self.peek()
        if t.kind == "int":
            self.take()
            c = t.value % self.ring.p
            return {(0,) * self.ring.nvars: c} if c else {}
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
            k = self.ring.names.index(name)
            return {tuple(int(i == k) for i in range(self.ring.nvars)): 1}
        if name.startswith("x") and name[1:].isdigit():
            raise VariableOutOfRange(f"{name} outside the declared ring")
        raise SessionSyntaxError(f"unknown variable {name!r}", tok.line, tok.col)


def _dict_degree(f):
    """Largest total degree of a term of a polynomial dict (0 for zero)."""
    return max(map(sum, f), default=0)


def _dict_mul(f, g, p):
    """Product of two polynomial dicts, past the degree bound an error even
    when its top terms would cancel, as for `Polynomial` products."""
    check_degree(_dict_degree(f) + _dict_degree(g))
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            v = (out.get(e, 0) + c1 * c2) % p
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def parse_poly(ring, text, line_no=1):
    toks = _tokenize(text, line_no)
    p = PolyParser(ring, toks)
    out = p.parse_expr()
    t = p.peek()
    if t.kind != "end":
        raise SessionSyntaxError(f"trailing input {t.kind}", t.line, t.col)
    return ring.poly(out)


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
            body = body.strip()
            if head == "ideal":
                gens = [
                    parse_poly(sess.ring, part, line_no)
                    for part in _split_top(body)
                ]
                sess.objects[name] = ("ideal", Ideal(sess.ring, gens))
            elif head == "matrix":
                sess.objects[name] = ("matrix", _parse_matrix(sess.ring, body, line_no))
            else:
                if not (body.startswith("file(") and body.endswith(")")):
                    raise SessionSyntaxError("points need file(...)", line_no, 1)
                path = os.path.join(base_dir, body[5:-1].strip())
                sess.objects[name] = ("points", _read_points(sess.ring, path, line_no))
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


def _split_top(body):
    parts = []
    depth = 0
    cur = []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return [p for p in (s.strip() for s in parts) if p]


def _parse_matrix(ring, body, line_no):
    body = body.strip()
    if not (body.startswith("[[") and body.endswith("]]")):
        raise SessionSyntaxError("matrix needs [[...],[...]]", line_no, 1)
    inner = body[1:-1]
    rows = []
    depth = 0
    cur = []
    for ch in inner:
        if ch == "[":
            depth += 1
            if depth == 1:
                cur = []
                continue
        if ch == "]":
            depth -= 1
            if depth == 0:
                rows.append("".join(cur))
                continue
        if depth >= 1:
            cur.append(ch)
    mat = [
        [parse_poly(ring, cell, line_no) for cell in _split_top(row)] for row in rows
    ]
    return PolyMatrix(ring, mat)


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
    if not pts:
        raise SessionSyntaxError(f"{path}: the file lists no points", decl_line, 1)
    return PointSet(ring, pts)


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


# -- command implementations ---------------------------------------------------


def run(session, command, args, seed, window):
    rng = np.random.default_rng(seed)
    w = range(window[0], window[1] + 1) if window else None
    if command == "gb":
        I = session.get(args.name, ("ideal",))
        return {"command": "gb", "name": args.name, "gb": I.canonical_strings()}
    if command == "hilbert":
        I = session.get(args.name, ("ideal",))
        win = w or range(0, max(8, I.hilbert().reg_index + 3))
        return {"command": "hilbert", "name": args.name, **_hilbert_json(I, win)}
    if command == "betti":
        I = session.get(args.name, ("ideal",))
        return {"command": "betti", "name": args.name, **_betti_json(I)}
    if command == "classify":
        I = session.get(args.name, ("ideal",))
        return {"command": "classify", "name": args.name, **_betti_json(I)}
    if command == "link" or command == "verify-link":
        c = session.get(args.gor, ("ideal",))
        I = session.get(args.ideal, ("ideal",))
        rec = direct_link(c, I, require_gorenstein=not args.allow_acm)
        out = {"command": command, **rec.to_json()}
        out["ok"] = rec.verification["all"]
        return out
    if command == "bdl":
        J = session.get(args.j, ("ideal",))
        I = session.get(args.ideal, ("ideal",))
        f = session.poly(args.f)
        tilde, report = basic_double_link(J, I, f)
        return {
            "command": "bdl",
            "result": tilde.canonical_strings(),
            "report": report,
            "ok": report["all"],
        }
    if command == "liaison-add":
        parts = []
        for name, expr in args.part:
            V = session.get(name, ("ideal",))
            parts.append((V, session.poly(expr)))
        Z, report = liaison_addition(parts)
        return {
            "command": "liaison-add",
            "result": Z.canonical_strings(),
            "degree": Z.hilbert().degree,
            "report": report,
            "ok": report["all"],
        }
    if command == "sum-linked":
        out = sum_of_linked(
            session.get(args.i1, ("ideal",)),
            session.get(args.i2, ("ideal",)),
            session.get(args.x, ("ideal",)),
        )
        return {"command": "sum-linked", "result": out.canonical_strings(), **_betti_json(out)}
    if command == "aci-gor":
        c = session.get(args.ci, ("ideal",))
        c = complete_intersection(c.gens_or_gb())
        J = aci_gorenstein(c, session.get(args.ideal, ("ideal",)))
        return {"command": "aci-gor", "result": J.canonical_strings(), **_betti_json(J)}
    if command == "cb-check":
        P = session.get(args.name, ("points",))
        rep = cayley_bacharach_check(P, rng=rng)
        return {"command": "cb-check", "name": args.name, **rep}
    if command == "dgo":
        P = session.get(args.name, ("points",))
        rep = cayley_bacharach_check(P, rng=rng)
        val = dgo_verify(P, rep)
        cls = classify(P.ideal())
        return {
            "command": "dgo",
            "name": args.name,
            "dgo": val,
            "classify_gorenstein": cls["gorenstein"],
            "agree": val == cls["gorenstein"],
            "h_vector": list(P.h_vector()),
        }
    if command == "wlp":
        I = session.get(args.name, ("ideal",))
        return {"command": "wlp", "name": args.name, "wlp": wlp_check(I, rng=rng)}
    if command == "gaeta":
        A = session.get(args.name, ("matrix",))
        cert = gaeta_run(A, rng)
        return {
            "command": "gaeta",
            "certificate": cert.to_json(),
            "replay_ok": cert.replay(),
        }
    if command == "glicci":
        I = session.get(args.name, ("ideal",))
        cert = glicci_descent(I)
        return {
            "command": "glicci",
            "certificate": cert.to_json(),
            "replay_ok": cert.replay(),
        }
    if command == "lift":
        mono = session.poly(args.monomial)
        return {"command": "lift", "result": str(lift_map(mono, level=args.level))}
    if command == "macaulay":
        seq = args.values
        growth = macaulay_growth_check(seq)
        return {
            "command": "macaulay",
            "sequence": seq,
            **growth,
            "si_sequence": si_sequence_check(seq),
        }
    if command == "deficiency":
        I = session.get(args.name, ("ideal",))
        win = list(w) if w else None
        tab = deficiency_table(I, win)
        return {
            "command": "deficiency",
            "name": args.name,
            "tables": {
                str(i): {str(j): v for j, v in row.items()} for i, row in tab.items()
            },
        }
    if command == "ci-invariant":
        I = session.get(args.name, ("ideal",))
        tab = ci_invariant_hf(I, w)
        return {
            "command": "ci-invariant",
            "name": args.name,
            "tables": {
                str(i): {str(j): v for j, v in row.items()} for i, row in tab.items()
            },
            "all_zero": all(v == 0 for row in tab.values() for v in row.values()),
        }
    raise LiaisonError(f"unknown command {command}")


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

    def name_cmd(name):
        c = sub.add_parser(name)
        c.add_argument("name")
        return c

    name_cmd("gb")
    name_cmd("hilbert")
    name_cmd("betti")
    name_cmd("classify")
    for cmd in ("link", "verify-link"):
        c = sub.add_parser(cmd)
        c.add_argument("--gor", required=True)
        c.add_argument("--ideal", required=True)
        c.add_argument("--allow-acm", action="store_true")
    c = sub.add_parser("bdl")
    c.add_argument("--j", required=True)
    c.add_argument("--ideal", required=True)
    c.add_argument("--f", required=True)
    c = sub.add_parser("liaison-add")
    c.add_argument("--part", nargs=2, action="append", required=True, metavar=("IDEAL", "POLY"))
    c = sub.add_parser("sum-linked")
    c.add_argument("--i1", required=True)
    c.add_argument("--i2", required=True)
    c.add_argument("--x", required=True)
    c = sub.add_parser("aci-gor")
    c.add_argument("--ci", required=True)
    c.add_argument("--ideal", required=True)
    name_cmd("cb-check")
    name_cmd("dgo")
    name_cmd("wlp")
    name_cmd("gaeta")
    name_cmd("glicci")
    c = sub.add_parser("lift")
    c.add_argument("monomial")
    c.add_argument("--level", type=int, default=0)
    c = sub.add_parser("macaulay")
    c.add_argument("values", nargs="+", type=int)
    name_cmd("deficiency")
    name_cmd("ci-invariant")
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
    except (
        SessionSyntaxError,
        SessionObjectError,
        PrimeCheckFailed,
        VariableOutOfRange,
        NotHomogeneous,
        DegenerateMatrix,  # a matrix that is not graded is malformed session input
        DegreeOverflow,
    ) as exc:
        emit_report({"error": exc.code, "message": str(exc)}, seed, args.out)
        return 2
    except LiaisonError as exc:
        emit_report({"error": exc.code, "message": str(exc)}, seed, args.out)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    emit_report(payload, seed, args.out)
    ok = payload.get("ok", True)
    if ok is False or payload.get("agree") is False or payload.get("replay_ok") is False:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
