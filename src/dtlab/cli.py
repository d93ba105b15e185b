"""Command-line front end.

Reads a declaration file (distributions, functions, transform words), then
executes one query or law-check command against it and prints a
deterministic text report.  Exit codes: 0 for success or a passing law,
1 when a witness or violation is found, 2 for usage and validation errors.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import lab, pwfn
from .dist import Cdf, atom, decompose, make, unif, uniform
from .errors import DtlabError, ParseError, UnknownExample
from .lab import (
    Corpus,
    Pass,
    Witness,
    bernoulli_tail_sequence,
    canonical_corpus,
    commute_check,
    extract_distortion,
    extract_utility,
    lsc_check,
    monotone_check,
    set_commute_check,
)
from .pwfn import _RAT_TEXT, PiecewiseMonotone, format_rat, rat
from .transform import (
    Distort,
    Distortion,
    Push,
    RduForm,
    TransformWord,
    Utility,
    apply_word,
    conjugate_distortion,
    conjugate_utility,
    dual_utility,
    expected_shortfall,
    expected_utility,
    normal_form,
    rank_dependent_value,
    value_at_risk,
)
from .dist import bernoulli, dirac, equals, right_quantile


# -- tokenizer and parser -----------------------------------------------------

_TOKEN = re.compile(
    r"""(?P<ws>[ \t\r]+)
      | (?P<nl>\n)
      | (?P<comment>\#[^\n]*)
      | (?P<rat>-?\d+(?:/\d+)?)
      | (?P<name>[A-Za-z_]\w*)
      | (?P<punct>[\[\](){},;:=|])
    """,
    re.X,
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int


def tokenize(src: str) -> list[Token]:
    toks = []
    line = 1
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", line)
        pos = m.end()
        kind = m.lastgroup
        if kind == "nl":
            line += 1
        elif kind in ("rat", "name", "punct"):
            toks.append(Token(kind, m.group(), line))
    return toks


class Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> Token | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def done(self) -> bool:
        return self.pos >= len(self.toks)

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.toks[-1].line if self.toks else 1
            raise ParseError("unexpected end of input", last)
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line)
        return tok

    def rational(self) -> Fraction:
        tok = self.next()
        if tok.kind != "rat":
            raise ParseError(f"expected a rational, found {tok.text!r}", tok.line)
        try:
            return rat(tok.text)
        except ParseError as exc:
            raise ParseError(str(exc), tok.line) from None

    def name(self) -> str:
        tok = self.next()
        if tok.kind != "name":
            raise ParseError(f"expected a name, found {tok.text!r}", tok.line)
        return tok.text


# -- declarations ---------------------------------------------------------------


@dataclass
class Env:
    dists: dict[str, Cdf] = field(default_factory=dict)
    fns: dict[str, PiecewiseMonotone] = field(default_factory=dict)
    words: dict[str, TransformWord] = field(default_factory=dict)


def parse_mix(p: Parser) -> Cdf:
    p.expect("mix")
    p.expect("(")
    comps = []
    while True:
        tok = p.next()
        if tok.text == "atom":
            p.expect("(")
            x = p.rational()
            p.expect(",")
            w = p.rational()
            p.expect(")")
            comps.append(atom(x, w))
        elif tok.text == "unif":
            p.expect("(")
            a = p.rational()
            p.expect(",")
            b = p.rational()
            p.expect(",")
            w = p.rational()
            p.expect(")")
            comps.append(unif(a, b, w))
        else:
            raise ParseError(f"expected atom or unif, found {tok.text!r}", tok.line)
        sep = p.next()
        if sep.text == ")":
            break
        if sep.text != ",":
            raise ParseError(f"expected ',' or ')', found {sep.text!r}", sep.line)
    return make(comps)


def parse_pw(p: Parser) -> PiecewiseMonotone:
    start = p.expect("pw")
    p.expect("{")
    tok = p.next()
    bounds = None
    tails = None
    if tok.text == "domain":
        p.expect("[")
        a = p.rational()
        p.expect(",")
        b = p.rational()
        p.expect("]")
        bounds = (a, b)
    elif tok.text == "reals":
        p.expect("(")
        s_lo = p.rational()
        p.expect(",")
        s_hi = p.rational()
        p.expect(")")
        tails = (s_lo, s_hi)
    else:
        raise ParseError(f"expected domain or reals, found {tok.text!r}", tok.line)
    p.expect(";")
    p.expect("points")
    points = []
    while p.peek() is not None and p.peek().text == "(":
        p.expect("(")
        x = p.rational()
        p.expect(":")
        left = p.rational()
        nxt = p.next()
        if nxt.text == ",":
            at = p.rational()
            p.expect(",")
            right = p.rational()
            p.expect(")")
        elif nxt.text == ")":
            at = right = left
        else:
            raise ParseError(f"expected ',' or ')', found {nxt.text!r}", nxt.line)
        points.append(pwfn.Breakpoint(x, left, at, right))
    p.expect(";")
    p.expect("}")
    if not points:
        raise ParseError("a pw function needs at least one point", start.line)
    try:
        if bounds is not None:
            f = pwfn.bounded(points)
            if (f.lo, f.hi) != bounds:
                raise ParseError(
                    f"declared domain [{format_rat(bounds[0])},{format_rat(bounds[1])}]"
                    " does not match the endpoint breakpoints",
                    start.line,
                )
            return f
        return pwfn.on_reals(points, *tails)
    except ValueError as exc:
        raise ParseError(str(exc), start.line) from exc


def parse_word_literal(p: Parser, env: Env) -> TransformWord:
    p.expect("[")
    steps: list = []
    if p.peek() is not None and p.peek().text == "]":
        p.next()
        return TransformWord(())
    while True:
        tok = p.next()
        if tok.text not in ("distort", "push"):
            raise ParseError(f"expected distort or push, found {tok.text!r}", tok.line)
        p.expect("(")
        inner = p.peek()
        if inner is not None and inner.text == "pw":
            fn = parse_pw(p)
        else:
            fn = _lookup_fn(env, p.name(), tok.line)
        p.expect(")")
        try:
            if tok.text == "distort":
                steps.append(Distort(Distortion(fn)))
            else:
                steps.append(Push(Utility(fn)))
        except DtlabError as exc:
            raise ParseError(str(exc), tok.line) from exc
        sep = p.next()
        if sep.text == "]":
            break
        if sep.text != ",":
            raise ParseError(f"expected ',' or ']', found {sep.text!r}", sep.line)
    return TransformWord(tuple(steps))


def _lookup_fn(env: Env, name: str, line: int) -> PiecewiseMonotone:
    if name not in env.fns:
        raise ParseError(f"unknown function {name!r}", line)
    return env.fns[name]


def load_env(text: str) -> Env:
    env = Env()
    p = Parser(tokenize(text))
    while not p.done():
        tok = p.next()
        if tok.text == "dist":
            name = p.name()
            _check_fresh(env, name, tok.line)
            p.expect("=")
            try:
                env.dists[name] = parse_mix(p)
            except DtlabError as exc:
                _reraise(exc, tok.line)
        elif tok.text == "fn":
            name = p.name()
            _check_fresh(env, name, tok.line)
            p.expect("=")
            env.fns[name] = parse_pw(p)
        elif tok.text == "word":
            name = p.name()
            _check_fresh(env, name, tok.line)
            p.expect("=")
            env.words[name] = parse_word_literal(p, env)
        else:
            raise ParseError(
                f"expected dist, fn or word, found {tok.text!r}", tok.line
            )
    return env


def _check_fresh(env: Env, name: str, line: int) -> None:
    if name in env.dists or name in env.fns or name in env.words:
        raise ParseError(f"duplicate name {name!r}", line)


def _reraise(exc: DtlabError, line: int):
    if isinstance(exc, ParseError):
        raise exc
    raise ParseError(str(exc), line) from exc


# -- serialization ---------------------------------------------------------------


def serialize_fn(f: PiecewiseMonotone) -> str:
    if f.is_bounded:
        dom = f"domain [{format_rat(f.lo)},{format_rat(f.hi)}]"
    else:
        dom = f"reals({format_rat(f.tails[0])}, {format_rat(f.tails[1])})"
    pts = " ".join(
        f"({format_rat(b.x)} : {format_rat(b.left)}, {format_rat(b.at)}, {format_rat(b.right)})"
        for b in f.breakpoints
    )
    return f"pw {{ {dom}; points {pts}; }}"


def serialize_dist(F: Cdf) -> str:
    atoms, segs = decompose(F)
    parts = [(a.x, 0, f"atom({format_rat(a.x)}, {format_rat(a.w)})") for a in atoms]
    parts += [
        (s.a, 1, f"unif({format_rat(s.a)}, {format_rat(s.b)}, {format_rat(s.w)})")
        for s in segs
    ]
    parts.sort(key=lambda t: (t[0], t[1]))
    return "mix(" + ", ".join(text for _, _, text in parts) + ")"


def serialize_word(w: TransformWord) -> str:
    if not w.steps:
        return "[ ]"
    bits = []
    for step in w.steps:
        if isinstance(step, Distort):
            bits.append(f"distort({serialize_fn(step.d.fn)})")
        else:
            bits.append(f"push({serialize_fn(step.u.fn)})")
    return "[ " + ", ".join(bits) + " ]"


# -- argument resolution ----------------------------------------------------------

_PRIM = re.compile(r"^(distort|push)\((\w+)\)$")


def resolve_dist(env: Env, s: str) -> Cdf:
    if s in env.dists:
        return env.dists[s]
    if s.startswith("mix"):
        p = Parser(tokenize(s))
        F = parse_mix(p)
        if not p.done():
            raise ParseError(f"trailing input after distribution literal {s!r}")
        return F
    raise ParseError(f"unknown distribution {s!r}")


def resolve_fn(env: Env, s: str) -> PiecewiseMonotone:
    if s in env.fns:
        return env.fns[s]
    if s.startswith("pw"):
        p = Parser(tokenize(s))
        f = parse_pw(p)
        if not p.done():
            raise ParseError(f"trailing input after function literal {s!r}")
        return f
    raise ParseError(f"unknown function {s!r}")


def resolve_word(env: Env, s: str) -> tuple[str, TransformWord]:
    """A transform argument: a declared word, distort(fn), or push(fn)."""
    if s in env.words:
        return s, env.words[s]
    m = _PRIM.match(s)
    if m:
        kind, name = m.groups()
        fn = _lookup_fn(env, name, 0) if name in env.fns else resolve_fn(env, name)
        if kind == "distort":
            return s, TransformWord((Distort(Distortion(fn)),))
        return s, TransformWord((Push(Utility(fn)),))
    raise ParseError(f"unknown transform {s!r}")


def load_corpus(args, env: Env) -> Corpus:
    spec = getattr(args, "corpus", "default")
    if spec == "default":
        return canonical_corpus()
    with open(spec, "r", encoding="utf-8") as fh:
        sub = load_env(fh.read())
    if not sub.dists:
        raise ParseError(f"corpus file {spec!r} declares no distributions")
    return Corpus(tuple(sub.dists.items()))


# -- commands ---------------------------------------------------------------------


def cmd_quantile(env: Env, args) -> int:
    from .dist import left_quantile, right_quantile

    F = resolve_dist(env, args.dist)
    t = rat(args.level)
    q = left_quantile(F, t) if args.side == "left" else right_quantile(F, t)
    print(format_rat(q))
    return 0


def cmd_eval(env: Env, args) -> int:
    f = resolve_fn(env, args.fn)
    l, a, r = f.eval3(rat(args.x))
    print(f"left={format_rat(l)} at={format_rat(a)} right={format_rat(r)}")
    return 0


def cmd_apply(env: Env, args) -> int:
    _, word = resolve_word(env, args.transform)
    F = resolve_dist(env, args.dist)
    print(serialize_dist(apply_word(word, F)))
    return 0


def cmd_functional(env: Env, args) -> int:
    names = args.args
    kind = args.kind
    if kind == "eu" and len(names) == 2:
        value = expected_utility(Utility(resolve_fn(env, names[0])), resolve_dist(env, names[1]))
    elif kind == "du" and len(names) == 2:
        value = dual_utility(Distortion(resolve_fn(env, names[0])), resolve_dist(env, names[1]))
    elif kind == "rdu" and len(names) == 3:
        value = rank_dependent_value(
            Distortion(resolve_fn(env, names[0])),
            Utility(resolve_fn(env, names[1])),
            resolve_dist(env, names[2]),
        )
    else:
        raise ParseError(f"functional {kind} takes {'d,u,dist' if kind == 'rdu' else 'fn,dist'}")
    print(format_rat(value))
    return 0


def cmd_risk(env: Env, args) -> int:
    F = resolve_dist(env, args.dist)
    level = rat(args.level)
    value = value_at_risk(level, F) if args.kind == "var" else expected_shortfall(level, F)
    print(format_rat(value))
    return 0


def cmd_commute(env: Env, args) -> int:
    name1, w1 = resolve_word(env, args.t1)
    name2, w2 = resolve_word(env, args.t2)
    corpus = load_corpus(args, env)
    res = commute_check(w1, w2, corpus, law=f"commute({name1},{name2})")
    print(res.report())
    return 0 if isinstance(res, Pass) else 1


def cmd_setcommute(env: Env, args) -> int:
    d = Distortion(resolve_fn(env, args.d))
    u = Utility(resolve_fn(env, args.u))
    form = RduForm(d, u)
    corpus = load_corpus(args, env)
    if args.family == "utilities":
        probes = [Utility(resolve_fn(env, s)) for s in args.probes]
    else:
        probes = [Distortion(resolve_fn(env, s)) for s in args.probes]
    res = set_commute_check(form, args.family, probes, corpus)
    print(res.report())
    return 0 if isinstance(res, Pass) else 1


def cmd_monotone(env: Env, args) -> int:
    name, w = resolve_word(env, args.transform)
    corpus = load_corpus(args, env)
    res = monotone_check(w, corpus, law=f"monotone({name})")
    print(res.report())
    return 0 if isinstance(res, Pass) else 1


def cmd_lsc(env: Env, args) -> int:
    _, w = resolve_word(env, args.transform)
    bound = resolve_dist(env, args.bound)
    seq, limit = bernoulli_tail_sequence()
    res = lsc_check(w, seq, limit, bound)
    print(res.report())
    return 1 if res.violated else 0


def cmd_extract(env: Env, args) -> int:
    name, w = resolve_word(env, args.transform)
    probes = [rat(s) for s in args.at.split(",")]
    corpus = load_corpus(args, env)
    if args.kind == "distortion":
        res = extract_distortion(w, probes, corpus)
    else:
        res = extract_utility(w, probes, corpus)
    print(serialize_fn(res.recovered.fn))
    if res.round_trip_ok:
        print("ROUNDTRIP MATCH")
        return 0
    print("ROUNDTRIP MISMATCH")
    print(res.witness.report())
    return 1


def cmd_normal_form(env: Env, args) -> int:
    _, w = resolve_word(env, args.word)
    form = normal_form(w)
    print(f"d = {serialize_fn(form.d.fn)}")
    print(f"u = {serialize_fn(form.u.fn)}")
    return 0


def cmd_fuzz(env: Env, args) -> int:
    if args.iters < 1:
        raise ParseError(f"--iters must be at least 1, got {args.iters}")
    corpus = lab.corpus_with_random(args.seed, extra=3)
    law = args.law
    if law == "commute":
        res, _ = lab.fuzz_distort_push_commute(args.iters, args.seed, corpus)
    elif law == "pairing":
        res = lab.fuzz_rc_left_pairing(args.iters, args.seed, corpus)
    elif law == "quantile":
        res = lab.fuzz_quantile_identity(args.iters, args.seed, corpus)
    elif law == "set-u":
        res = lab.fuzz_set_commute("utilities", args.iters, args.seed, corpus)
    elif law == "set-d":
        res = lab.fuzz_set_commute("distortions", args.iters, args.seed, corpus)
    elif law == "normal-form":
        res = lab.fuzz_normal_form(args.iters, args.seed, corpus)
    elif law == "collapse":
        res = lab.fuzz_collapse_nonrc(args.iters, args.seed, corpus)
    else:
        raise ParseError(f"unknown fuzz law {law!r}")
    print(res.report())
    return 0 if isinstance(res, Pass) else 1


# -- built-in reproductions ---------------------------------------------------------


def _say(args, line: str) -> None:
    if not args.quiet:
        print(line)


def reproduce_example1(args) -> int:
    half = Fraction(1, 2)
    F = bernoulli(half)
    d = Distortion(pwfn.step_open(half))
    dhat = Distortion(pwfn.step_closed(half))
    from .transform import apply_distortion

    got_d = apply_distortion(d, F)(0)
    got_dhat = apply_distortion(dhat, F)(0)
    _say(args, f"value at 0 after distorting with the jump-above step: expected 0 computed {format_rat(got_d)}")
    _say(args, f"value at 0 after distorting with its right-continuous version: expected 1 computed {format_rat(got_dhat)}")
    ok = got_d == 0 and got_dhat == 1
    print("verdict: MATCH" if ok else "verdict: MISMATCH")
    return 0 if ok else 1


def reproduce_example2(args) -> int:
    half = Fraction(1, 2)
    corpus = canonical_corpus()

    def median_mass(F: Cdf) -> Cdf:
        return dirac(right_quantile(F, half))

    mono = monotone_check(median_mass, corpus, law="monotone")
    print(f"monotone {'PASS' if isinstance(mono, Pass) else 'FAIL'}")
    commute_ok = True
    for i in range(10):
        u = lab.gen_utility(args.seed * 577 + i, "uf")
        res = commute_check(
            median_mass, lambda F, u=u: lab.apply_utility(u, F), corpus
        )
        if isinstance(res, Witness):
            commute_ok = False
            _say(args, res.report())
            break
    print(f"commute {'PASS' if commute_ok else 'FAIL'}")
    seq, limit = bernoulli_tail_sequence()
    res = lsc_check(median_mass, seq, limit, uniform(0, 1))
    print("lsc VIOLATED" if res.violated else "lsc HOLDS")
    d = Distortion(pwfn.step_open(half))
    from .transform import apply_distortion

    same = all(
        equals(median_mass(F), apply_distortion(d, F)) for _, F in corpus
    )
    _say(args, f"equals distortion by the step above 1/2 on the corpus: {'MATCH' if same else 'MISMATCH'}")
    ok = isinstance(mono, Pass) and commute_ok and res.violated and same
    print("verdict: MATCH" if ok else "verdict: MISMATCH")
    return 0 if ok else 1


def reproduce_appendix_e(args) -> int:
    half = Fraction(1, 2)
    u = Utility(pwfn.on_reals([pwfn.Breakpoint(half, half, half, half + 1)], 1, 1))
    d = Distortion(pwfn.step_open(half))
    from .transform import apply_distortion, apply_utility

    F = uniform(0, 1)
    lhs = apply_distortion(d, apply_utility(u, F))(half)
    rhs = apply_utility(u, apply_distortion(d, F))(half)
    _say(args, f"distort-then-push at 1/2: expected 0 computed {format_rat(lhs)}")
    _say(args, f"push-then-distort at 1/2: expected 1 computed {format_rat(rhs)}")
    corpus = canonical_corpus()
    res = commute_check(
        lambda G: apply_distortion(d, G), lambda G: apply_utility(u, G), corpus
    )
    if isinstance(res, Witness):
        _say(args, res.report())
    ok = lhs == 0 and rhs == 1 and isinstance(res, Witness) and res.x == half
    print("verdict: MATCH" if ok else "verdict: MISMATCH")
    return 0 if ok else 1


def reproduce_semigroup(args) -> int:
    word = TransformWord(
        (
            Distort(Distortion(pwfn.step_open(Fraction(1, 2)))),
            Push(Utility(pwfn.affine(1, 1))),
            Distort(Distortion(pwfn.from_points([(0, 0), (Fraction(1, 2), 1), (1, 1)]))),
            Push(Utility(pwfn.affine(2, 0))),
        )
    )
    form = normal_form(word)
    _say(args, f"normal form d = {serialize_fn(form.d.fn)}")
    _say(args, f"normal form u = {serialize_fn(form.u.fn)}")
    corpus = canonical_corpus()
    bad = [
        name
        for name, F in corpus
        if not equals(apply_word(word, F), form(F))
    ]
    ok = not bad
    print("verdict: MATCH" if ok else f"verdict: MISMATCH {' '.join(bad)}")
    return 0 if ok else 1


def reproduce_conjugacy_u(args) -> int:
    u1 = Utility(pwfn.affine(2, 0))
    u2 = Utility(pwfn.affine(1, 1))
    u3 = conjugate_utility(u1, u2)
    expected = pwfn.affine(1, 2)
    _say(args, f"partner utility = {serialize_fn(u3.fn)} (expected {serialize_fn(expected)})")
    identity_holds = pwfn.compose(u3.fn, u1.fn) == pwfn.compose(u1.fn, u2.fn)
    ok = u3.fn == expected and identity_holds
    print("verdict: MATCH" if ok else "verdict: MISMATCH")
    return 0 if ok else 1


def reproduce_conjugacy_d(args) -> int:
    d = Distortion(pwfn.from_points([(0, 0), (Fraction(1, 2), Fraction(1, 4)), (1, 1)]))
    d1 = Distortion(pwfn.step_open(Fraction(1, 2)))
    d2 = conjugate_distortion(d, d1)
    expected = pwfn.step_open(Fraction(1, 4))
    _say(args, f"partner distortion = {serialize_fn(d2.fn)} (expected {serialize_fn(expected)})")
    identity_holds = pwfn.compose(d2.fn, d.fn) == pwfn.compose(d.fn, d1.fn)
    ok = d2.fn == expected and identity_holds
    print("verdict: MATCH" if ok else "verdict: MISMATCH")
    return 0 if ok else 1


REPRODUCTIONS = {
    "example1": reproduce_example1,
    "example2": reproduce_example2,
    "appendixE": reproduce_appendix_e,
    "semigroup": reproduce_semigroup,
    "conjugacy-u": reproduce_conjugacy_u,
    "conjugacy-d": reproduce_conjugacy_d,
}


def cmd_reproduce(env: Env, args) -> int:
    if args.id not in REPRODUCTIONS:
        raise UnknownExample(
            f"unknown reproduction {args.id!r}; choose from {', '.join(sorted(REPRODUCTIONS))}"
        )
    return REPRODUCTIONS[args.id](args)


# -- entry point -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reads a negative fraction such as ``-3/4`` as a positional, like ``-3``."""

    def _parse_optional(self, arg_string):
        if arg_string.startswith("-") and _RAT_TEXT.fullmatch(arg_string):
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--spec", default=None, help="declaration file path, or - for stdin")
    common.add_argument("--corpus", default="default", help="default or a declaration file")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--iters", type=int, default=100)
    common.add_argument("--quiet", action="store_true")

    ap = _Parser(
        prog="dtlab",
        description="Exact queries and law checks for distributional transforms.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quantile", parents=[common])
    q.add_argument("side", choices=["left", "right"])
    q.add_argument("level")
    q.add_argument("dist")
    q.set_defaults(handler=cmd_quantile)

    e = sub.add_parser("eval", parents=[common])
    e.add_argument("fn")
    e.add_argument("x")
    e.set_defaults(handler=cmd_eval)

    a = sub.add_parser("apply", parents=[common])
    a.add_argument("transform")
    a.add_argument("dist")
    a.set_defaults(handler=cmd_apply)

    f = sub.add_parser("functional", parents=[common])
    f.add_argument("kind", choices=["eu", "du", "rdu"])
    f.add_argument("args", nargs="+")
    f.set_defaults(handler=cmd_functional)

    r = sub.add_parser("risk", parents=[common])
    r.add_argument("kind", choices=["var", "es"])
    r.add_argument("level")
    r.add_argument("dist")
    r.set_defaults(handler=cmd_risk)

    c = sub.add_parser("commute", parents=[common])
    c.add_argument("t1")
    c.add_argument("t2")
    c.set_defaults(handler=cmd_commute)

    s = sub.add_parser("setcommute", parents=[common])
    s.add_argument("family", choices=["utilities", "distortions"])
    s.add_argument("d")
    s.add_argument("u")
    s.add_argument("probes", nargs="+")
    s.set_defaults(handler=cmd_setcommute)

    m = sub.add_parser("monotone", parents=[common])
    m.add_argument("transform")
    m.set_defaults(handler=cmd_monotone)

    l = sub.add_parser("lsc", parents=[common])
    l.add_argument("transform")
    l.add_argument("bound")
    l.set_defaults(handler=cmd_lsc)

    x = sub.add_parser("extract", parents=[common])
    x.add_argument("kind", choices=["distortion", "utility"])
    x.add_argument("transform")
    x.add_argument("--at", required=True, help="comma-separated probe levels or points")
    x.set_defaults(handler=cmd_extract)

    z = sub.add_parser("fuzz", parents=[common])
    z.add_argument(
        "law",
        choices=["commute", "pairing", "quantile", "set-u", "set-d", "normal-form", "collapse"],
    )
    z.set_defaults(handler=cmd_fuzz)

    n = sub.add_parser("normal-form", parents=[common])
    n.add_argument("word")
    n.set_defaults(handler=cmd_normal_form)

    p = sub.add_parser("reproduce", parents=[common])
    p.add_argument("id")
    p.set_defaults(handler=cmd_reproduce)

    return ap


def load_env_from_args(args) -> Env:
    if args.spec is None:
        return Env()
    text = sys.stdin.read() if args.spec == "-" else open(args.spec, "r", encoding="utf-8").read()
    return load_env(text)


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        env = load_env_from_args(args)
        return args.handler(env, args)
    except (DtlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
