"""The benchmark's four workloads.

Each workload builds its inputs from the run seed at set-up, runs one item
per call to ``item(i)`` through dtlab's public API, and checks the item's
output in ``check(i, out)``, which returns ``(ok, text)``; the runner hashes
``text`` into the run's output digest.  Workloads reach dtlab only through
module attributes (``self.dt.lab.fuzz_set_commute``), never through names
bound at set-up, so the tracer's rebinding sees every call.

Item seeds are derived from the run seed and the item index, so every item
of a run has fresh inputs and the same seed gives the same items.
"""

from __future__ import annotations

import io
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace


def import_dtlab(src_dir: str) -> SimpleNamespace:
    """Import dtlab from the checkout's ``src`` and refuse any other copy."""
    if src_dir not in sys.path:
        sys.path.insert(0, src_dir)
    from dtlab import cli, dist, lab, pwfn, transform

    if not Path(pwfn.__file__).resolve().is_relative_to(Path(src_dir).resolve()):
        raise ImportError(f"dtlab was imported from {pwfn.__file__}, not from {src_dir}")
    return SimpleNamespace(pwfn=pwfn, dist=dist, transform=transform, lab=lab, cli=cli)


def item_seed(seed: int, i: int) -> int:
    return seed * 1_000_003 + i


N_CORPORA = 16  # corpora per run, so no three random cdfs weigh on a whole run


def corpora(dt, seed: int) -> list:
    """`dtlab fuzz`'s corpus (canonical plus 3 seeded cdfs), for 16 derived seeds."""
    return [dt.lab.corpus_with_random(item_seed(seed, -1 - k), extra=3)
            for k in range(N_CORPORA)]


def fn_decl(f) -> str:
    """A function in the declaration grammar (`pw { ... }`)."""
    pts = " ".join(f"({b.x} : {b.left}, {b.at}, {b.right})" for b in f.breakpoints)
    if f.tails is None:
        dom = f"domain [{f.lo},{f.hi}]"
    else:
        dom = f"reals({f.tails[0]}, {f.tails[1]})"
    return f"pw {{ {dom}; points {pts}; }}"


def dist_decl(dist, F) -> str:
    """A distribution in the declaration grammar (`mix(...)`)."""
    atoms, segs = dist.decompose(F)
    parts = [f"atom({a.x}, {a.w})" for a in atoms] + [f"unif({s.a}, {s.b}, {s.w})" for s in segs]
    return "mix(" + ", ".join(parts) + ")"


class SetCommute:
    """Set commutation of collapsed transforms with probe families.

    An item is one `lab.fuzz_set_commute` iteration: a collapsed transform,
    5 probes, 2 orientations, every entry of one of the run's corpora.
    Items alternate between the utility and the distortion family.
    """

    name = "setcommute"
    block = 10
    cycle = None
    probes = 5
    families = ("utilities", "distortions")

    def __init__(self, dt, seed: int):
        self.dt, self.seed = dt, seed
        self.corpora = corpora(dt, seed)

    def item(self, i: int):
        return self.dt.lab.fuzz_set_commute(
            self.families[i % 2], 1, item_seed(self.seed, i),
            self.corpora[i % N_CORPORA], probes_per=self.probes)

    def check(self, i: int, res):
        want = self.probes * 2 * len(self.corpora[i % N_CORPORA])
        ok = isinstance(res, self.dt.lab.Pass) and res.count == want
        return ok, res.report()


class LawFuzz:
    """The five cheap `dtlab fuzz` targets, one fuzz iteration per item.

    A `lab.fuzz_*` call with one iteration reads only the first corpus entry, so
    each item gets one of the run's corpora rotated to start at another
    entry; over the run every target meets every entry.
    """

    name = "lawfuzz"
    block = 200
    cycle = None
    targets = (
        ("commute", "fuzz_distort_push_commute"),
        ("pairing", "fuzz_rc_left_pairing"),
        ("quantile", "fuzz_quantile_identity"),
        ("normal-form", "fuzz_normal_form"),
        ("collapse", "fuzz_collapse_nonrc"),
    )

    def __init__(self, dt, seed: int):
        self.dt, self.seed = dt, seed
        Corpus = dt.lab.Corpus
        self.corpora = [Corpus(c.entries[r:] + c.entries[:r])
                        for c in corpora(dt, seed) for r in range(len(c))]

    def corpus(self, i: int):
        return self.corpora[(i // len(self.targets)) % len(self.corpora)]

    def item(self, i: int):
        _, fuzz = self.targets[i % len(self.targets)]
        return getattr(self.dt.lab, fuzz)(1, item_seed(self.seed, i), self.corpus(i))

    def check(self, i: int, res):
        target, _ = self.targets[i % len(self.targets)]
        text = target
        if target == "commute":
            res, jumps = res
            text += f" jumps={jumps}"
        want = len(self.corpus(i)) if target == "normal-form" else 1
        ok = isinstance(res, self.dt.lab.Pass) and res.count == want
        return ok, f"{text} {res.report()}"


class DeepWords:
    """Long admissible words over complex generators, against complex cdfs.

    An item is the normal form of one word, plus word-wise application and
    `first_difference` against the normal form on every input cdf.  The
    generator complexity stays at 12..15 because `gen_distortion` raises a
    raw ValueError from 16 up; that defect is left visible, not skipped.
    """

    name = "deepwords"
    block = 10
    pool = 200
    cycle = pool
    steps = (16, 24)
    complexity = (12, 15)
    cdf_complexity = 12
    cdf_pool = 256  # gen_cdf's size varies (cv 0.5), so a small pool would weigh on the run
    cdfs_per_item = 4

    def __init__(self, dt, seed: int):
        self.dt, self.seed = dt, seed
        self.cdf_list = [dt.lab.gen_cdf(item_seed(seed, -1 - j), self.cdf_complexity)
                         for j in range(self.cdf_pool)]
        self.words = [self._word(random.Random(f"deepwords|{seed}|{k}"))
                      for k in range(self.pool)]

    def _word(self, rng: random.Random):
        lab, tf = self.dt.lab, self.dt.transform
        steps = []
        for _ in range(rng.randint(*self.steps)):
            c, s = rng.randint(*self.complexity), rng.randrange(1 << 32)
            if rng.random() < 0.5:
                steps.append(tf.Push(lab.gen_utility(s, "uf", c)))
            else:
                steps.append(tf.Distort(lab.gen_distortion(s, "df-rc", c)))
        first = next((k for k, st in enumerate(steps) if isinstance(st, tf.Distort)), None)
        if first is not None and rng.random() < 0.4:
            c, s = rng.randint(*self.complexity), rng.randrange(1 << 32)
            steps[first] = tf.Distort(lab.gen_distortion(s, "df", c))
        return tf.TransformWord(tuple(steps))

    def cdfs(self, i: int) -> list:
        k = self.cdfs_per_item * (i % self.pool)
        return [self.cdf_list[(k + j) % self.cdf_pool] for j in range(self.cdfs_per_item)]

    def item(self, i: int):
        tf, dist = self.dt.transform, self.dt.dist
        word = self.words[i % self.pool]
        form = tf.normal_form(word)
        pairs = [(tf.apply_word(word, F), form(F)) for F in self.cdfs(i)]
        return form, pairs, [dist.first_difference(a, b) for a, b in pairs]

    def check(self, i: int, out):
        form, pairs, diffs = out
        ok = all(d is None for d in diffs)
        text = [fn_decl(form.d.fn), fn_decl(form.u.fn)]
        text += [dist_decl(self.dt.dist, a) for a, _ in pairs]
        return ok, "\n".join(text)


class Session:
    """One user's session: a declaration file generated from a seed, every
    query and law-check command against it, then every `reproduce` id.

    Each query's expected exit code and stdout are computed through the
    library API, not through the CLI; a reproduction must end in a match.
    """

    reproduce_ids = ("example1", "example2", "appendixE", "semigroup",
                     "conjugacy-u", "conjugacy-d")

    def __init__(self, dt, seed: int):
        self.dt = dt
        lab, rng = dt.lab, random.Random(f"cli|{seed}")

        def s():
            return rng.randrange(1 << 32)

        decls = [
            ("dist", "F1", dist_decl(dt.dist, lab.gen_cdf(s(), 4))),
            ("dist", "F2", dist_decl(dt.dist, lab.gen_cdf(s(), 4))),
            ("dist", "u01", "mix(unif(0, 1, 1))"),
        ]
        for name, kind in (("d_any", "df"), ("d_rc", "df-rc"), ("d_strict", "df-strict"),
                           ("pd1", "df-rc"), ("pd2", "df-rc")):
            decls.append(("fn", name, fn_decl(lab.gen_distortion(s(), kind).fn)))
        for name, kind in (("u_cont", "uf"), ("u_left", "uf-left"), ("u_strict", "uf-strict"),
                           ("pu1", "uf"), ("pu2", "uf")):
            decls.append(("fn", name, fn_decl(lab.gen_utility(s(), kind).fn)))
        decls.append(("word", "w1",
                      "[ distort(d_any), push(u_cont), distort(d_rc), push(u_strict) ]"))
        self.spec = "".join(f"{kind} {name} = {body}\n" for kind, name, body in decls)
        self.env = dt.cli.load_env(self.spec)

        def level(den):
            return str(Fraction(rng.randint(1, den - 1), den))

        self.queries = [
            ["quantile", "left", level(24), "F1"],
            ["quantile", "right", level(24), "F2"],
            ["eval", "d_any", level(16)],
            # argparse reads "-3/4" as an option, so a user writes "--" first
            ["eval", "u_left", "--", str(Fraction(rng.randint(-24, 24), 8))],
            ["apply", "w1", "F1"],
            ["functional", "rdu", "d_any", "u_cont", "F1"],
            ["functional", "eu", "u_cont", "F2"],
            ["risk", "es", level(12), "F1"],
            ["risk", "var", level(12), "F2"],
            ["commute", "distort(d_any)", "push(u_cont)"],
            ["commute", "distort(d_any)", "push(u_left)"],
            ["setcommute", "utilities", "d_any", "u_strict", "pu1", "pu2"],
            ["setcommute", "distortions", "d_strict", "u_left", "pd1", "pd2"],
            ["monotone", "distort(d_any)"],
            ["lsc", "distort(d_any)", "u01"],
            ["extract", "distortion", "distort(d_rc)", "--at=1/4,1/2,3/4"],
            ["extract", "utility", "push(u_cont)", "--at=-1,0,1/2,2"],
            ["normal-form", "w1"],
        ]
        self.argvs = [[q[0], "--spec", "-", *q[1:]] for q in self.queries]
        self.argvs += [["reproduce", r, "--seed", str(seed)] for r in self.reproduce_ids]
        self.expected = None

    def prepare(self) -> None:
        self.expected = [self._expect(q) for q in self.queries]

    def _expect(self, q):
        dt, env = self.dt, self.env
        lab, tf, dist, cli = dt.lab, dt.transform, dt.dist, dt.cli
        fmt = dt.pwfn.format_rat
        fns, dists = env.fns, env.dists
        corpus = lab.canonical_corpus()

        def word(text):
            kind, name = text[:-1].split("(")
            step = (tf.Distort(tf.Distortion(fns[name])) if kind == "distort"
                    else tf.Push(tf.Utility(fns[name])))
            return tf.TransformWord((step,))

        def law(res):
            return (0 if isinstance(res, lab.Pass) else 1), res.report() + "\n"

        cmd, args = q[0], [a for a in q[1:] if a != "--"]
        if cmd == "quantile":
            quant = dist.left_quantile if args[0] == "left" else dist.right_quantile
            return 0, fmt(quant(dists[args[2]], Fraction(args[1]))) + "\n"
        if cmd == "eval":
            return 0, "left={} at={} right={}\n".format(
                *map(fmt, fns[args[0]].eval3(Fraction(args[1]))))
        if cmd == "apply":
            return 0, cli.serialize_dist(tf.apply_word(env.words[args[0]], dists[args[1]])) + "\n"
        if cmd == "functional" and args[0] == "rdu":
            value = tf.rank_dependent_value(tf.Distortion(fns[args[1]]),
                                            tf.Utility(fns[args[2]]), dists[args[3]])
            return 0, fmt(value) + "\n"
        if cmd == "functional":
            return 0, fmt(tf.expected_utility(tf.Utility(fns[args[1]]), dists[args[2]])) + "\n"
        if cmd == "risk":
            risk = tf.value_at_risk if args[0] == "var" else tf.expected_shortfall
            return 0, fmt(risk(Fraction(args[1]), dists[args[2]])) + "\n"
        if cmd == "commute":
            return law(lab.commute_check(word(args[0]), word(args[1]), corpus,
                                         law=f"commute({args[0]},{args[1]})"))
        if cmd == "setcommute":
            family, d, u, *probes = args
            make = tf.Utility if family == "utilities" else tf.Distortion
            form = tf.RduForm(tf.Distortion(fns[d]), tf.Utility(fns[u]))
            return law(lab.set_commute_check(form, family, [make(fns[p]) for p in probes],
                                             corpus))
        if cmd == "monotone":
            return law(lab.monotone_check(word(args[0]), corpus, law=f"monotone({args[0]})"))
        if cmd == "lsc":
            seq, limit = lab.bernoulli_tail_sequence()
            res = lab.lsc_check(word(args[0]), seq, limit, dists[args[1]])
            return (1 if res.violated else 0), res.report() + "\n"
        if cmd == "extract":
            extract = lab.extract_distortion if args[0] == "distortion" else lab.extract_utility
            at = [Fraction(x) for x in args[2].removeprefix("--at=").split(",")]
            res = extract(word(args[1]), at, corpus)
            out = cli.serialize_fn(res.recovered.fn) + "\n"
            if res.round_trip_ok:
                return 0, out + "ROUNDTRIP MATCH\n"
            return 1, out + "ROUNDTRIP MISMATCH\n" + res.witness.report() + "\n"
        if cmd == "normal-form":
            form = tf.normal_form(env.words[args[0]])
            return 0, f"d = {cli.serialize_fn(form.d.fn)}\nu = {cli.serialize_fn(form.u.fn)}\n"
        raise ValueError(f"no expected output for {cmd!r}")

    def run(self, k: int):
        out, err = io.StringIO(), io.StringIO()
        stdin, sys.stdin = sys.stdin, io.StringIO(self.spec)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = self.dt.cli.main(self.argvs[k])
                except SystemExit as exc:
                    code = exc.code
        finally:
            sys.stdin = stdin
        return code, out.getvalue(), err.getvalue()

    def check(self, k: int, res):
        code, out, err = res
        if k < len(self.queries):
            ok = (code, out) == self.expected[k]
        else:
            ok = code == 0 and out.rstrip("\n").endswith("verdict: MATCH")
        return ok and not err, f"{' '.join(self.argvs[k])}\n{code}\n{out}{err}"


class Cli:
    """Users' sessions through `dtlab.cli.main(argv)`, in process.

    An item is one command.  The run's sessions follow one another and
    repeat until the run ends.
    """

    name = "cli"
    n_sessions = 8

    def __init__(self, dt, seed: int):
        self.dt = dt
        self.sessions = [Session(dt, item_seed(seed, k)) for k in range(self.n_sessions)]
        self.per = len(self.sessions[0].argvs)
        self.block = self.cycle = self.per * self.n_sessions

    def prepare(self) -> None:
        """Expected (exit code, stdout) of every query, from the library API."""
        for session in self.sessions:
            session.prepare()

    def item(self, i: int):
        return self.sessions[(i // self.per) % self.n_sessions].run(i % self.per)

    def check(self, i: int, res):
        return self.sessions[(i // self.per) % self.n_sessions].check(i % self.per, res)


WORKLOADS = {w.name: w for w in (SetCommute, LawFuzz, DeepWords, Cli)}
