"""Verification lab: law checkers, black-box extraction, seeded generators.

Checks run over a finite corpus of distributions and decide each law
bit-exactly; a failed law yields a Witness that pins down the first
discriminating point.  Generators are deterministic in their seed and
certify their output against the requested function class.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle
from math import lcm
from operator import ne
from typing import Iterable, Iterator, Sequence

from . import pwfn
from .dist import (
    Cdf,
    atom,
    bernoulli,
    dirac,
    decompose,
    first_difference,
    first_dominance_failure,
    left_quantile,
    leq_st,
    make,
    two_point,
    unif,
    uniform,
)
from .errors import ClassError, ExtractionError
from .pwfn import NEG_INF, POS_INF, _first_where, format_rat, rat
from .transform import (
    Distort,
    Distortion,
    Push,
    RduForm,
    Transform,
    TransformWord,
    Utility,
    _collapse,
    apply_distortion,
    apply_utility,
    compose_distortions,
    normal_form,
)


# -- corpus -------------------------------------------------------------------


@dataclass(frozen=True)
class Corpus:
    """Named distributions standing in for a universal quantifier."""

    entries: tuple[tuple[str, Cdf], ...]

    def __iter__(self) -> Iterator[tuple[str, Cdf]]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def canonical_corpus() -> Corpus:
    """The fixed deterministic corpus: point masses, coin flips, a two-point
    mixture, uniforms, and an atom-plus-ramp mixture."""
    half = Fraction(1, 2)
    return Corpus(
        (
            ("dirac(-2)", dirac(-2)),
            ("dirac(0)", dirac(0)),
            ("dirac(1/2)", dirac(half)),
            ("dirac(3)", dirac(3)),
            ("bernoulli(1/4)", bernoulli(Fraction(1, 4))),
            ("bernoulli(1/2)", bernoulli(half)),
            ("two_point(1/3;-1,2)", two_point(Fraction(1, 3), -1, 2)),
            ("uniform(0,1)", uniform(0, 1)),
            ("uniform(-1,1)", uniform(-1, 1)),
            ("atom_plus_ramp", make([atom(0, half), unif(0, 1, half)])),
        )
    )


def corpus_with_random(seed: int, extra: int = 5) -> Corpus:
    """Canonical corpus plus `extra` seeded random distributions."""
    entries = list(canonical_corpus().entries)
    for i in range(extra):
        entries.append((f"seeded-cdf-{seed}-{i}", gen_cdf(seed * 1009 + i)))
    return Corpus(tuple(entries))


# -- results ------------------------------------------------------------------


@dataclass(frozen=True)
class Pass:
    law: str
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"law {self.law} checked no instance")

    def report(self) -> str:
        return f"PASS {self.law} {self.count}"


@dataclass(frozen=True)
class Witness:
    """A concrete law failure: on F, the two sides differ at x."""

    law: str
    name: str
    F: Cdf
    x: Fraction
    lhs: Fraction
    rhs: Fraction

    def report(self) -> str:
        return (
            f"WITNESS {self.law} F={self.name} x={format_rat(self.x)} "
            f"lhs={format_rat(self.lhs)} rhs={format_rat(self.rhs)}"
        )


CheckResult = Pass | Witness


def _tally(law: str, results: Iterable[CheckResult | None]) -> CheckResult:
    """The one decision of a law: the first Witness among the results ends
    it, read lazily so that nothing past it runs; otherwise the law passes
    with the instances counted, a Pass as its count and None as one instance
    that held.  A law that decided no instance raises ValueError (see Pass)."""
    total = 0
    for res in results:
        if isinstance(res, Witness):
            return res
        total += 1 if res is None else res.count
    return Pass(law, total)


@dataclass(frozen=True)
class LscResult:
    violated: bool
    premise_holds: bool
    limit_dominated: bool

    def report(self) -> str:
        return "VIOLATED lsc" if self.violated else "HOLDS lsc"


@dataclass(frozen=True)
class Extraction:
    """Recovered generator plus the probe data and the corpus round-trip."""

    recovered: Distortion | Utility
    samples: tuple[tuple[Fraction, Fraction], ...]
    round_trip_ok: bool
    witness: Witness | None


# -- checkers -----------------------------------------------------------------


def commute_check(
    w1: TransformWord, w2: TransformWord, corpus: Corpus, law: str = "commute"
) -> CheckResult:
    """w1 o w2 = w2 o w1, decided by `_composed_equal`.

    A witness is the smallest breakpoint of the merged representation at
    which the two orders differ.
    """
    return _composed_equal(
        TransformWord(w1.steps + w2.steps), TransformWord(w2.steps + w1.steps), corpus, law
    )


def _composed_equal(
    lhs: TransformWord, rhs: TransformWord, corpus: Corpus, law: str
) -> CheckResult:
    """Decide lhs = rhs.  Words with equal normal forms are one transform on
    every F, so the law is credited with |corpus| instances without applying
    anything; where a form is missing or the forms differ, the corpus
    decides, and its first difference is the witness."""
    left = _collapse(lhs.steps)
    if left is not None and left == _collapse(rhs.steps):
        return Pass(law, len(corpus))
    return commute_check_like_roundtrip(lhs, rhs, corpus, law)


def set_commute_check(
    form: RduForm,
    family: str,
    probes: Sequence[Distortion | Utility],
    corpus: Corpus,
    probe_anyway: bool = False,
) -> CheckResult:
    """Set commutation of a collapsed transform with a whole family.

    For each probe a matching partner is built by conjugation with the
    form's component g (u for utilities, d for distortions), and both
    orientations are verified exactly: partner o T = T o probe, and
    T o partner' = probe o T.  With ``probe_anyway`` a utility that is
    not a strict surjection is probed with its pseudo-inverse instead of
    raising, so genuine failures surface as witnesses; a utility with a
    flat tail has no finite pseudo-inverse and still raises ClassError.

    Each orientation is a pair of words, such as (partner, *T) and
    (*T, probe), decided by `_composed_equal`: by their normal forms where
    they have equal ones, and on the corpus otherwise.  For the first
    orientation the form test is the conjugation identity
    partner o g = g o probe.
    """
    if family == "utilities":
        g = form.u
        eligible = g.cls.strictly_increasing and g.cls.surjective
        if not eligible and not probe_anyway:
            raise ClassError("set commutation with utilities needs a strict surjection")
        if not eligible and 0 in g.fn.tails:
            raise ClassError("a utility with a flat tail has no finite pseudo-inverse")
        inv = pwfn.strict_inverse(g.fn) if eligible else pwfn.pseudo_inverse(g.fn)
        wrap, step = Utility, Push
    elif family == "distortions":
        g = form.d
        if not (g.cls.strictly_increasing and g.cls.continuous):
            raise ClassError(
                "set commutation with distortions needs a strictly increasing continuous one"
            )
        inv = pwfn.strict_inverse(g.fn)
        wrap, step = Distortion, Distort
    else:
        raise ValueError(f"unknown family {family!r}")
    law = f"set-commute-{family}"
    T = form.as_word().steps

    def orientations(probe):
        """The (lhs, rhs) words of each orientation of the probe; partner'
        is built only once the first orientation has passed."""
        if family == "distortions" and not probe.cls.right_continuous:
            raise ClassError("distortion probes must be right-continuous")
        partner = wrap(pwfn.compose(g.fn, pwfn.compose(probe.fn, inv)))
        yield TransformWord((step(partner), *T)), TransformWord((*T, step(probe)))
        partner_r = wrap(pwfn.compose(inv, pwfn.compose(probe.fn, g.fn)))
        yield TransformWord((*T, step(partner_r))), TransformWord((step(probe), *T))

    return _tally(law, (_composed_equal(*o, corpus, law) for p in probes for o in orientations(p)))


def monotone_check(t: Transform, corpus: Corpus, law: str = "monotone") -> CheckResult:
    """Dominance preservation over every ordered corpus pair."""
    images = {name: t(F) for name, F in corpus}
    fails = ((f"{nf}<=st:{ng}", F, first_dominance_failure(images[nf], images[ng]))
             for nf, F in corpus for ng, G in corpus if leq_st(F, G))
    return _tally(law, (None if x is None else Witness(law, name, F, *x) for name, F, x in fails))


def lsc_check(
    t: Transform, sequence: Sequence[Cdf], limit: Cdf, bound: Cdf
) -> LscResult:
    """Dominance along a convergent sequence versus at its limit.

    Violated means every transformed sequence element stays below the bound
    but the transformed limit does not; convergence of the supplied
    sequence is the caller's responsibility; an empty one raises ValueError.
    """
    if not sequence:
        raise ValueError("lsc needs a nonempty sequence")
    premise = all(leq_st(t(F), bound) for F in sequence)
    limit_ok = leq_st(t(limit), bound)
    return LscResult(
        violated=premise and not limit_ok,
        premise_holds=premise,
        limit_dominated=limit_ok,
    )


def bernoulli_tail_sequence(n_lo: int = 2, n_hi: int = 16) -> tuple[list[Cdf], Cdf]:
    """Coin flips drifting up to a fair coin: the stock non-lsc instance."""
    seq = [bernoulli(Fraction(1, 2) - Fraction(1, n)) for n in range(n_lo, n_hi + 1)]
    return seq, bernoulli(Fraction(1, 2))


# -- extraction ---------------------------------------------------------------


def extract_distortion(
    t: Transform, levels: Sequence, corpus: Corpus | None = None
) -> Extraction:
    """Recover a candidate distortion from black-box probes.

    A two-point distribution with cumulative probability p below its upper
    atom reveals the candidate's value at p when the box is a distortion;
    the recovered function interpolates the samples with endpoints pinned
    at (0,0) and (1,1), then is re-tested against the box on the corpus.
    """
    lv = [rat(p) for p in levels]
    if len(set(lv)) != len(lv):
        raise ExtractionError("probe levels must be distinct")
    if any(not 0 < p < 1 for p in lv):
        raise ExtractionError("probe levels must lie strictly between 0 and 1")
    samples = []
    for p in sorted(lv):
        out = t(bernoulli(1 - p))
        v = out(0)
        if not 0 <= v <= 1:
            raise ExtractionError(f"probe at {p} returned {v}, not a cdf value")
        samples.append((p, v))
    values = [v for _, v in samples]
    if any(a > b for a, b in zip(values, values[1:])):
        raise ExtractionError("probe values are not increasing")
    pts = [(Fraction(0), Fraction(0))] + samples + [(Fraction(1), Fraction(1))]
    recovered = Distortion(pwfn.from_points(pts))
    return _round_trip(t, recovered, Distort, samples, corpus, "extract-distortion")


def extract_utility(
    t: Transform, points: Sequence, corpus: Corpus | None = None
) -> Extraction:
    """Recover a candidate utility from the images of point masses.

    Each point mass must map to a point mass; the image locations are
    interpolated and extended with the outermost sample slopes, then the
    candidate is re-tested against the box on the corpus.
    """
    xs = sorted(rat(x) for x in points)
    if len(set(xs)) != len(xs):
        raise ExtractionError("probe points must be distinct")
    samples = []
    for x in xs:
        out = t(dirac(x))
        atoms, segs = decompose(out)
        if segs or len(atoms) != 1 or atoms[0].w != 1:
            raise ExtractionError(f"image of the point mass at {x} is not a point mass")
        samples.append((x, atoms[0].x))
    ys = [y for _, y in samples]
    if any(a > b for a, b in zip(ys, ys[1:])):
        raise ExtractionError("point-mass images are not increasing")
    if len(samples) == 1:
        (x0, y0) = samples[0]
        fn = pwfn.on_reals([pwfn.bp(x0, y0)], 1, 1)
    else:
        s_lo = (samples[1][1] - samples[0][1]) / (samples[1][0] - samples[0][0])
        s_hi = (samples[-1][1] - samples[-2][1]) / (samples[-1][0] - samples[-2][0])
        fn = pwfn.on_reals([pwfn.bp(x, y) for x, y in samples], s_lo, s_hi)
    return _round_trip(t, Utility(fn), Push, samples, corpus, "extract-utility")


def _round_trip(
    t: Transform, recovered: Distortion | Utility, step, samples, corpus: Corpus | None, law: str
) -> Extraction:
    """Re-test a recovered generator, as the one-step word of `step`
    (Distort or Push), against the box on the corpus."""
    res = commute_check_like_roundtrip(
        t, TransformWord((step(recovered),)), corpus or canonical_corpus(), law
    )
    ok = isinstance(res, Pass)
    return Extraction(recovered, tuple(samples), ok, None if ok else res)


def commute_check_like_roundtrip(
    t: Transform, candidate: Transform, corpus: Corpus, law: str
) -> CheckResult:
    """Pointwise corpus agreement between a box and a reconstruction.

    The one corpus loop behind every two-sided law: t is evaluated before
    candidate on each entry, and the first difference becomes the witness.
    """
    return _tally(law, (_differ(law, name, F, t(F), candidate(F)) for name, F in corpus))


def _differ(law: str, name: str, F: Cdf, lhs: Cdf, rhs: Cdf) -> Witness | None:
    """The witness at the first difference of lhs and rhs, or None when they are equal."""
    diff = first_difference(lhs, rhs)
    return None if diff is None else Witness(law, name, F, *diff)


# -- seeded generators ----------------------------------------------------------


DISTORTION_KINDS = ("df", "df-rc", "df-strict")
UTILITY_KINDS = ("uf", "uf-left", "uf-strict", "uf-any")
KINDS = ("cdf",) + DISTORTION_KINDS + UTILITY_KINDS


def gen(seed: int, kind: str, complexity: int = 3):
    """Deterministic seeded value of the requested kind.

    Kinds: ``cdf``; distortions ``df`` (any), ``df-rc`` (right-continuous),
    ``df-strict`` (strictly increasing continuous); utilities ``uf``
    (continuous), ``uf-left`` (left-continuous), ``uf-strict`` (strictly
    increasing continuous surjection), ``uf-any`` (jumps valued at either
    limit or inside).  Output is certified against the requested class
    before being returned.
    """
    if kind == "cdf":
        return gen_cdf(seed, complexity)
    if kind in DISTORTION_KINDS:
        return gen_distortion(seed, kind, complexity)
    if kind in UTILITY_KINDS:
        return gen_utility(seed, kind, complexity)
    raise ValueError(f"unknown kind {kind!r}")


def _rng(seed: int, kind: str, complexity: int) -> random.Random:
    return random.Random(f"{seed}|{kind}|{complexity}")


def _draw(rng: random.Random, lo, hi, den: int) -> tuple[int, int]:
    """One drawn rational n/q in [lo, hi] as its (n, q): q in 1..den, then n;
    lo and hi are ints or Fractions, ceil and floor taken on their integers."""
    q = rng.randint(1, den)
    n = rng.randint(-(-lo.numerator * q // lo.denominator), hi.numerator * q // hi.denominator)
    return n, q


def _sorted_rationals(rng: random.Random, lo, hi, den: int, k: int) -> list[Fraction]:
    """k rationals drawn by `_draw`, ascending: sorted on the exact integer
    keys n·(L // q) = (n/q)·L for L = lcm(1, ..., den)."""
    L = lcm(*range(1, den + 1))
    keys = sorted(n * (L // q) for n, q in (_draw(rng, lo, hi, den) for _ in range(k)))
    return [Fraction(m, L) for m in keys]


def _below(r: float, a: int, b: int) -> bool:
    """r < a/b, decided exactly on the float's integer ratio (float(0.6) < 3/5)."""
    p, q = r.as_integer_ratio()
    return p * b < a * q


# Constant draw pools, ascending, so a sorted index sample is a sorted value sample.
_GRID16 = tuple(Fraction(i, 16) for i in range(1, 16))
_GRID48 = tuple(Fraction(i, 48) for i in range(0, 49))
_INNER48 = _GRID48[1:48]
_GRID4 = tuple(Fraction(i, 4) for i in range(-12, 13))
_GRID8 = tuple(Fraction(i, 8) for i in range(-32, 33))
_STRICT_TAILS = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))
_TAILS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))
_ORIGIN, _TOP = pwfn.bp(0, 0), pwfn.bp(1, 1)  # a distortion's ends


def gen_cdf(seed: int, complexity: int = 3) -> Cdf:
    rng = _rng(seed, "cdf", complexity)
    k = rng.randint(1, max(1, complexity))
    weights = [rng.randint(1, 6) for _ in range(k)]
    total = sum(weights)
    comps = []
    for w in weights:
        mass = Fraction(w, total)
        if _below(rng.random(), 1, 2):
            comps.append(atom(Fraction(*_draw(rng, -3, 3, 4)), mass))
        else:
            a = Fraction(*_draw(rng, -3, 2, 4))
            b = a + Fraction(*_draw(rng, Fraction(1, 4), 2, 4))
            comps.append(unif(a, b, mass))
    return make(comps)


def _sorted_sample(rng: random.Random, pool: Sequence[Fraction], k: int) -> list[Fraction]:
    """sorted(rng.sample(pool, k)) for an ascending pool, drawn and sorted as indices."""
    return [pool[i] for i in sorted(rng.sample(range(len(pool)), k))]


def gen_distortion(seed: int, kind: str = "df", complexity: int = 3) -> Distortion:
    rng = _rng(seed, kind, complexity)
    k = min(rng.randint(0 if kind != "df-strict" else 1, max(1, complexity)), len(_GRID16))
    xs = _sorted_sample(rng, _GRID16, k)
    points = []
    if kind == "df-strict":
        vals = _sorted_sample(rng, _INNER48, k)
        points = [_ORIGIN, *(pwfn.Breakpoint(x, v, v, v) for x, v in zip(xs, vals)), _TOP]
    elif kind == "df-rc":
        jumpy = _below(rng.random(), 3, 5)
        if jumpy and k > 0:
            ladder = _sorted_sample(rng, _GRID48, 2 * k + 1)
            lefts = ladder[0::2][:k]
            ats = ladder[1::2][:k]
            l_end = ladder[2 * k]
            points = [_ORIGIN, *(pwfn.Breakpoint(x, l, a, a) for x, l, a in zip(xs, lefts, ats))]
            points += [pwfn.bp(1, l_end, 1, 1)]
        else:
            vals = _sorted_rationals(rng, 0, 1, 12, k)
            points = [_ORIGIN, *(pwfn.Breakpoint(x, v, v, v) for x, v in zip(xs, vals)), _TOP]
    else:  # any distortion, jumps allowed anywhere
        jumpy = _below(rng.random(), 11, 20)
        if jumpy and k == 0:
            k = 1
            xs = _sorted_sample(rng, _GRID16, 1)
        if jumpy:
            m = 3 * k + 2
            ladder = _sorted_sample(rng, _GRID48, m)
            r0 = ladder[0]
            l_end = ladder[m - 1]
            points = [pwfn.Breakpoint(Fraction(0), Fraction(0), Fraction(0), r0)]
            for i, x in enumerate(xs):
                l, a, r = ladder[1 + 3 * i : 4 + 3 * i]
                points.append(pwfn.Breakpoint(x, l, a, r))
            points.append(pwfn.Breakpoint(Fraction(1), l_end, Fraction(1), Fraction(1)))
        else:
            vals = _sorted_rationals(rng, 0, 1, 12, k)
            points = [_ORIGIN, *(pwfn.Breakpoint(x, v, v, v) for x, v in zip(xs, vals)), _TOP]
    d = Distortion(pwfn.bounded(points))
    _certify_distortion(d, kind)
    return d


def _certify_distortion(d: Distortion, kind: str) -> None:
    c = d.cls
    if (kind == "df-rc" and not c.right_continuous) or (
        kind == "df-strict" and not (c.strictly_increasing and c.continuous)
    ):
        raise ClassError(f"generated distortion is not {kind}")


def gen_utility(seed: int, kind: str = "uf", complexity: int = 3) -> Utility:
    rng = _rng(seed, kind, complexity)
    k = min(rng.randint(1, max(1, complexity)), len(_GRID4))
    xs = _sorted_sample(rng, _GRID4, k)
    if kind == "uf-strict":
        vals = _sorted_sample(rng, _GRID8, k)
        tails = (rng.choice(_STRICT_TAILS), rng.choice(_STRICT_TAILS))
        points = [pwfn.Breakpoint(x, v, v, v) for x, v in zip(xs, vals)]
    elif kind in ("uf-left", "uf-any"):
        w = 2 if kind == "uf-left" else 3  # values drawn per jump
        ladder = _sorted_rationals(rng, -4, 4, 8, w * k)
        points = []
        for i, x in enumerate(xs):
            l, r = ladder[w * i], ladder[w * i + w - 1]
            at = l if w == 2 else rng.choice(ladder[w * i : w * i + w])
            points.append(pwfn.Breakpoint(x, l, at, r))
        tails = (rng.choice(_TAILS), rng.choice(_TAILS))
    else:  # continuous utility; flats allowed
        ladder = _sorted_rationals(rng, -4, 4, 8, k)
        points = [pwfn.Breakpoint(x, v, v, v) for x, v in zip(xs, ladder)]
        tails = (rng.choice(_TAILS), rng.choice(_TAILS))
    u = Utility(pwfn.on_reals(points, *tails))
    _certify_utility(u, kind)
    return u


def _certify_utility(u: Utility, kind: str) -> None:
    c = u.cls
    if (
        (kind == "uf" and not c.continuous)
        or (kind == "uf-left" and not c.left_continuous)
        or (kind == "uf-strict" and not (c.strictly_increasing and c.continuous and c.surjective))
    ):
        raise ClassError(f"generated utility is not {kind}")


# -- function comparison --------------------------------------------------------


def first_fn_difference(f: pwfn.PiecewiseMonotone, g: pwfn.PiecewiseMonotone):
    """Locate a point where two piecewise functions differ: (x, f-val, g-val).

    None when the canonical forms are equal.  Probes the merged breakpoints,
    segment midpoints, and one point beyond each end.
    """
    if f == g:
        return None
    probes = _probe_grid([b.x for b in f.breakpoints + g.breakpoints])
    inside = [x for x in probes if f.in_domain(x) and g.in_domain(x)]
    found = _first_where(ne, f, g, inside)
    if found is None:
        raise AssertionError("functions differ but no probe separates them")
    return found


def _probe_grid(xs: Sequence[Fraction]) -> list[Fraction]:
    """Ascending: the distinct xs, the midpoints between them, and one point beyond each end."""
    xs = sorted(set(xs))
    mids = [(a + b) / 2 for a, b in zip(xs, xs[1:])]
    return sorted([xs[0] - 1, *xs, *mids, xs[-1] + 1])


# -- fuzz drivers -----------------------------------------------------------------


def pairing_formula_value(d: Distortion, u: Utility, F: Cdf, x) -> Fraction:
    """d(F(sup{y : u(y) <= x})), reading F as 0 at -inf and 1 at +inf."""
    y = pwfn.right_inverse(u.fn, rat(x))
    if y is NEG_INF:
        fy = Fraction(0)
    elif y is POS_INF:
        fy = Fraction(1)
    else:
        fy = F(y)
    return d(fy)


def _fuzz(law: str, iters: int, corpus: Corpus, step) -> CheckResult:
    """The seeded fuzz loop: iteration i runs ``step(i, name, F)`` on corpus
    entry i mod |corpus|; the first witness it returns ends the run."""
    return _tally(law, (step(i, name, F) for i, (name, F) in zip(range(iters), cycle(corpus))))


def fuzz_distort_push_commute(
    iters: int, seed: int, corpus: Corpus
) -> tuple[CheckResult, int]:
    """Seeded distortion/continuous-utility pairs: both orders must agree.

    Also reports how many sampled distortions carried a jump.
    """
    law, jumps = "distort-push-commute", 0

    def step(i, name, F):
        nonlocal jumps
        d = gen_distortion(seed * 7919 + i, "df")
        u = gen_utility(seed * 104729 + i, "uf")
        if not d.cls.continuous:
            jumps += 1
        lhs = apply_distortion(d, apply_utility(u, F))
        rhs = apply_utility(u, apply_distortion(d, F))
        return _differ(law, name, F, lhs, rhs)

    return _fuzz(law, iters, corpus, step), jumps


def fuzz_rc_left_pairing(iters: int, seed: int, corpus: Corpus) -> CheckResult:
    """Right-continuous distortion with left-continuous utility: both orders
    agree and match the closed-form value at a deterministic probe grid."""

    def step(i, name, F):
        d = gen_distortion(seed * 3571 + i, "df-rc")
        u = gen_utility(seed * 6397 + i, "uf-left")
        lhs = apply_distortion(d, apply_utility(u, F))
        rhs = apply_utility(u, apply_distortion(d, F))
        witness = _differ("rc-left-pairing", name, F, lhs, rhs)
        if witness is not None:
            return witness
        for x in _probe_grid([b.x for b in lhs.fn.breakpoints + u.fn.breakpoints]):
            want = pairing_formula_value(d, u, F, x)
            got = lhs(x)
            if got != want:
                return Witness("rc-left-pairing-formula", name, F, x, got, want)
        return None

    return _fuzz("rc-left-pairing", iters, corpus, step)


def fuzz_quantile_identity(iters: int, seed: int, corpus: Corpus) -> CheckResult:
    """Lower quantiles of a continuous pushforward pass through the utility."""

    def step(i, name, F):
        u = gen_utility(seed * 2749 + i, "uf")
        rng = random.Random(f"{seed}|quantile|{i}")
        p = Fraction(rng.randint(1, 23), 24)
        lhs = left_quantile(apply_utility(u, F), p)
        rhs = u(left_quantile(F, p))
        return None if lhs == rhs else Witness("quantile-pushforward", name, F, p, lhs, rhs)

    return _fuzz("quantile-pushforward", iters, corpus, step)


def fuzz_set_commute(
    family: str, iters: int, seed: int, corpus: Corpus, probes_per: int = 5
) -> CheckResult:
    """Seeded collapsed transforms set-commute with seeded probe families.

    ``set_commute_check`` also decides each probe's conjugation identity
    partner o g = g o probe, as the form test of its first orientation.
    """
    # Seed multipliers and generator kinds of (distortion, utility, probes).
    if family == "utilities":
        mults, kinds = (433, 439, 443), ("df", "uf-strict", "uf")
    else:
        mults, kinds = (449, 457, 461), ("df-strict", "uf-left", "df-rc")

    def check(i):
        form = RduForm(gen(seed * mults[0] + i, kinds[0]), gen(seed * mults[1] + i, kinds[1]))
        probes = [gen(seed * mults[2] + i * probes_per + j, kinds[2]) for j in range(probes_per)]
        return set_commute_check(form, family, probes, corpus)

    return _tally(f"set-commute-{family}", map(check, range(iters)))


def gen_admissible_word(seed: int, max_len: int = 6) -> TransformWord:
    """Random word: continuous pushforwards, right-continuous distortions,
    except that the leftmost distortion may be arbitrary."""
    rng = random.Random(f"{seed}|word|{max_len}")
    length = rng.randint(0, max_len)
    steps = []
    for j in range(length):
        if rng.random() < 0.5:
            steps.append(Push(gen_utility(seed * 31 + j * 97 + 13, "uf")))
        else:
            steps.append(Distort(gen_distortion(seed * 37 + j * 89 + 17, "df-rc")))
    first_d = next((k for k, s in enumerate(steps) if isinstance(s, Distort)), None)
    if first_d is not None and _below(rng.random(), 2, 5):
        steps[first_d] = Distort(gen_distortion(seed * 41 + 19, "df"))
    return TransformWord(tuple(steps))


def fuzz_normal_form(
    iters: int, seed: int, corpus: Corpus, max_len: int = 6
) -> CheckResult:
    """Collapsing an admissible word must match word-wise evaluation."""

    def check(i):
        word = gen_admissible_word(seed * 1013 + i, max_len)
        return commute_check_like_roundtrip(word, normal_form(word), corpus, "word-normal-form")

    return _tally("word-normal-form", map(check, range(iters)))


def fuzz_collapse_nonrc(iters: int, seed: int, corpus: Corpus) -> CheckResult:
    """Seeded distortion pairs of any continuity: applying
    `compose_distortions(d2, d1)` must equal applying d1 then d2, a law of
    the function class (see `normal_form`), so a witness is a bug."""

    def step(i, name, F):
        d2 = gen_distortion(seed * 509 + i, "df")
        d1 = gen_distortion(seed * 521 + i, "df")
        lhs = apply_distortion(compose_distortions(d2, d1), F)
        rhs = apply_distortion(d2, apply_distortion(d1, F))
        return _differ("distortion-collapse", name, F, lhs, rhs)

    return _fuzz("distortion-collapse", iters, corpus, step)
