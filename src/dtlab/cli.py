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
from .dist import Cdf, atom, bernoulli, decompose, dirac, left_quantile, make, right_quantile, unif, uniform
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
    apply_distortion,
    apply_utility,
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

    def rationals(self, n: int, open: str, close: str) -> list[Fraction]:
        """`open` r `,` ... `,` r `close` with n rationals."""
        self.expect(open)
        values = [self.rational()]
        for _ in range(n - 1):
            self.expect(",")
            values.append(self.rational())
        self.expect(close)
        return values

    def more(self, close: str) -> bool:
        """The separator after a list item: True on `,`, False on `close`."""
        sep = self.next()
        if sep.text == close:
            return False
        if sep.text != ",":
            raise ParseError(f"expected ',' or {close!r}, found {sep.text!r}", sep.line)
        return True

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
            comps.append(atom(*p.rationals(2, "(", ")")))
        elif tok.text == "unif":
            comps.append(unif(*p.rationals(3, "(", ")")))
        else:
            raise ParseError(f"expected atom or unif, found {tok.text!r}", tok.line)
        if not p.more(")"):
            return make(comps)


def parse_pw(p: Parser) -> PiecewiseMonotone:
    start = p.expect("pw")
    p.expect("{")
    tok = p.next()
    if tok.text == "domain":
        bounds, tails = tuple(p.rationals(2, "[", "]")), None
    elif tok.text == "reals":
        bounds, tails = None, p.rationals(2, "(", ")")
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
        if p.more(")"):
            at = p.rational()
            p.expect(",")
            right = p.rational()
            p.expect(")")
        else:
            at = right = left
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
        if not p.more("]"):
            return TransformWord(tuple(steps))


def _lookup_fn(env: Env, name: str, line: int | None) -> PiecewiseMonotone:
    if name not in env.fns:
        raise ParseError(f"unknown function {name!r}", line)
    return env.fns[name]


def load_env(text: str) -> Env:
    env = Env()
    decls = {
        "dist": (env.dists, parse_mix),
        "fn": (env.fns, parse_pw),
        "word": (env.words, lambda p: parse_word_literal(p, env)),
    }
    p = Parser(tokenize(text))
    while not p.done():
        tok = p.next()
        if tok.text not in decls:
            raise ParseError(f"expected dist, fn or word, found {tok.text!r}", tok.line)
        table, parse = decls[tok.text]
        name = p.name()
        if name in env.dists or name in env.fns or name in env.words:
            raise ParseError(f"duplicate name {name!r}", tok.line)
        p.expect("=")
        try:
            table[name] = parse(p)
        except ParseError:
            raise
        except DtlabError as exc:
            raise ParseError(str(exc), tok.line) from exc
    return env


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


def _resolve(table: dict, s: str, keyword: str, parse, what: str):
    """A declared name from `table`, or a literal that starts with `keyword`."""
    if s in table:
        return table[s]
    if s.startswith(keyword):
        p = Parser(tokenize(s))
        value = parse(p)
        if not p.done():
            raise ParseError(f"trailing input after {what} literal {s!r}")
        return value
    raise ParseError(f"unknown {what} {s!r}")


def resolve_dist(env: Env, s: str) -> Cdf:
    return _resolve(env.dists, s, "mix", parse_mix, "distribution")


def resolve_fn(env: Env, s: str) -> PiecewiseMonotone:
    return _resolve(env.fns, s, "pw", parse_pw, "function")


def resolve_word(env: Env, s: str) -> tuple[str, TransformWord]:
    """A transform argument: a declared word, distort(fn), or push(fn)."""
    if s in env.words:
        return s, env.words[s]
    m = _PRIM.match(s)
    if m:
        kind, name = m.groups()
        fn = _lookup_fn(env, name, None)
        if kind == "distort":
            return s, TransformWord((Distort(Distortion(fn)),))
        return s, TransformWord((Push(Utility(fn)),))
    raise ParseError(f"unknown transform {s!r}")


def _read(path: str) -> str:
    """The text of a declaration file, which must be UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path!r} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def load_corpus(args) -> Corpus:
    if args.corpus == "default":
        return canonical_corpus()
    sub = load_env(_read(args.corpus))
    if not sub.dists:
        raise ParseError(f"corpus file {args.corpus!r} declares no distributions")
    return Corpus(tuple(sub.dists.items()))


# -- commands ---------------------------------------------------------------------


def _law(res) -> int:
    print(res.report())
    return 0 if isinstance(res, Pass) else 1


def cmd_quantile(env: Env, args) -> int:
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
    corpus = load_corpus(args)
    return _law(commute_check(w1, w2, corpus, law=f"commute({name1},{name2})"))


def cmd_setcommute(env: Env, args) -> int:
    d = Distortion(resolve_fn(env, args.d))
    u = Utility(resolve_fn(env, args.u))
    form = RduForm(d, u)
    corpus = load_corpus(args)
    if args.family == "utilities":
        probes = [Utility(resolve_fn(env, s)) for s in args.probes]
    else:
        probes = [Distortion(resolve_fn(env, s)) for s in args.probes]
    return _law(set_commute_check(form, args.family, probes, corpus))


def cmd_monotone(env: Env, args) -> int:
    name, w = resolve_word(env, args.transform)
    corpus = load_corpus(args)
    return _law(monotone_check(w, corpus, law=f"monotone({name})"))


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
    corpus = load_corpus(args)
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


# Fuzz targets: (iters, seed, corpus) -> result.  Each looks `lab.fuzz_*` up at
# call time, so a wrapper installed on the lab module is the one that runs.
FUZZ = {
    "commute": lambda *a: lab.fuzz_distort_push_commute(*a)[0],
    "pairing": lambda *a: lab.fuzz_rc_left_pairing(*a),
    "quantile": lambda *a: lab.fuzz_quantile_identity(*a),
    "set-u": lambda *a: lab.fuzz_set_commute("utilities", *a),
    "set-d": lambda *a: lab.fuzz_set_commute("distortions", *a),
    "normal-form": lambda *a: lab.fuzz_normal_form(*a),
    "collapse": lambda *a: lab.fuzz_collapse_nonrc(*a),
}


def cmd_fuzz(env: Env, args) -> int:
    if args.iters < 1:
        raise ParseError(f"--iters must be at least 1, got {args.iters}")
    corpus = lab.corpus_with_random(args.seed, extra=3)
    return _law(FUZZ[args.law](args.iters, args.seed, corpus))


# -- built-in reproductions ---------------------------------------------------------


def _say(args, line: str) -> None:
    if not args.quiet:
        print(line)


def _verdict(ok: bool) -> int:
    print("verdict: MATCH" if ok else "verdict: MISMATCH")
    return 0 if ok else 1


def reproduce_example1(args) -> int:
    half = Fraction(1, 2)
    F = bernoulli(half)
    d = Distortion(pwfn.step_open(half))
    dhat = Distortion(pwfn.step_closed(half))
    got_d = apply_distortion(d, F)(0)
    got_dhat = apply_distortion(dhat, F)(0)
    _say(args, f"value at 0 after distorting with the jump-above step: expected 0 computed {format_rat(got_d)}")
    _say(args, f"value at 0 after distorting with its right-continuous version: expected 1 computed {format_rat(got_dhat)}")
    return _verdict(got_d == 0 and got_dhat == 1)


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
        res = lab.commute_check_like_roundtrip(
            lambda F: median_mass(apply_utility(u, F)), lambda F: apply_utility(u, median_mass(F)),
            corpus, "commute",
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
    same = lab.commute_check_like_roundtrip(
        median_mass, TransformWord((Distort(d),)), corpus, "median-mass-is-distortion"
    )
    _say(args, f"equals distortion by the step above 1/2 on the corpus: {'MATCH' if isinstance(same, Pass) else 'MISMATCH'}")
    return _verdict(isinstance(mono, Pass) and commute_ok and res.violated and isinstance(same, Pass))


def reproduce_appendix_e(args) -> int:
    half = Fraction(1, 2)
    u = Utility(pwfn.on_reals([pwfn.Breakpoint(half, half, half, half + 1)], 1, 1))
    d = Distortion(pwfn.step_open(half))
    F = uniform(0, 1)
    lhs = apply_distortion(d, apply_utility(u, F))(half)
    rhs = apply_utility(u, apply_distortion(d, F))(half)
    _say(args, f"distort-then-push at 1/2: expected 0 computed {format_rat(lhs)}")
    _say(args, f"push-then-distort at 1/2: expected 1 computed {format_rat(rhs)}")
    corpus = canonical_corpus()
    res = commute_check(TransformWord((Distort(d),)), TransformWord((Push(u),)), corpus)
    if isinstance(res, Witness):
        _say(args, res.report())
    return _verdict(lhs == 0 and rhs == 1 and isinstance(res, Witness) and res.x == half)


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
    res = lab.commute_check_like_roundtrip(word, form, canonical_corpus(), "semigroup")
    if isinstance(res, Witness):
        _say(args, res.report())
    return _verdict(isinstance(res, Pass))


def reproduce_conjugacy(args) -> int:
    """The partner of a probe under conjugation by g, for utilities or distortions."""
    if args.id == "conjugacy-u":
        what, conjugate = "utility", conjugate_utility
        g, probe = Utility(pwfn.affine(2, 0)), Utility(pwfn.affine(1, 1))
        expected = pwfn.affine(1, 2)
    else:
        what, conjugate = "distortion", conjugate_distortion
        g = Distortion(pwfn.from_points([(0, 0), (Fraction(1, 2), Fraction(1, 4)), (1, 1)]))
        probe = Distortion(pwfn.step_open(Fraction(1, 2)))
        expected = pwfn.step_open(Fraction(1, 4))
    partner = conjugate(g, probe)
    _say(args, f"partner {what} = {serialize_fn(partner.fn)} (expected {serialize_fn(expected)})")
    identity_holds = pwfn.compose(partner.fn, g.fn) == pwfn.compose(g.fn, probe.fn)
    return _verdict(partner.fn == expected and identity_holds)


REPRODUCTIONS = {
    "example1": reproduce_example1,
    "example2": reproduce_example2,
    "appendixE": reproduce_appendix_e,
    "semigroup": reproduce_semigroup,
    "conjugacy-u": reproduce_conjugacy,
    "conjugacy-d": reproduce_conjugacy,
}


def cmd_reproduce(env: Env, args) -> int:
    if args.id not in REPRODUCTIONS:
        raise UnknownExample(
            f"unknown reproduction {args.id!r}; choose from {', '.join(sorted(REPRODUCTIONS))}"
        )
    return REPRODUCTIONS[args.id](args)


# -- entry point -----------------------------------------------------------------

# Commands: name -> (handler, *arguments), each argument a name or a
# (flag, `add_argument` options) pair, added in this order after the options
# every command shares.
COMMANDS = {
    "quantile": (cmd_quantile, ("side", {"choices": ["left", "right"]}), "level", "dist"),
    "eval": (cmd_eval, "fn", "x"),
    "apply": (cmd_apply, "transform", "dist"),
    "functional": (cmd_functional, ("kind", {"choices": ["eu", "du", "rdu"]}), ("args", {"nargs": "+"})),
    "risk": (cmd_risk, ("kind", {"choices": ["var", "es"]}), "level", "dist"),
    "commute": (cmd_commute, "t1", "t2"),
    "setcommute": (
        cmd_setcommute, ("family", {"choices": ["utilities", "distortions"]}), "d", "u", ("probes", {"nargs": "+"})
    ),
    "monotone": (cmd_monotone, "transform"),
    "lsc": (cmd_lsc, "transform", "bound"),
    "extract": (
        cmd_extract, ("kind", {"choices": ["distortion", "utility"]}), "transform",
        ("--at", {"required": True, "help": "comma-separated probe levels or points"}),
    ),
    "fuzz": (cmd_fuzz, ("law", {"choices": FUZZ})),
    "normal-form": (cmd_normal_form, "word"),
    "reproduce": (cmd_reproduce, "id"),
}


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
    for name, (handler, *arguments) in COMMANDS.items():
        cmd = sub.add_parser(name, parents=[common])
        for arg in arguments:
            flag, options = (arg, {}) if isinstance(arg, str) else arg
            cmd.add_argument(flag, **options)
        cmd.set_defaults(handler=handler)
    return ap


def load_env_from_args(args) -> Env:
    if args.spec is None:
        return Env()
    return load_env(sys.stdin.read() if args.spec == "-" else _read(args.spec))


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
