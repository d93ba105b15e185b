"""Tests for the verification lab: checkers, extraction, generators."""

import os
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

from dtlab import lab, pwfn
from dtlab.dist import dirac, equals, right_quantile, uniform
from dtlab.errors import ClassError, ExtractionError
from dtlab.lab import (
    Corpus,
    Pass,
    Witness,
    bernoulli_tail_sequence,
    canonical_corpus,
    commute_check,
    commute_check_like_roundtrip,
    corpus_with_random,
    extract_distortion,
    extract_utility,
    first_fn_difference,
    fuzz_collapse_nonrc,
    fuzz_distort_push_commute,
    fuzz_normal_form,
    fuzz_quantile_identity,
    fuzz_rc_left_pairing,
    gen,
    gen_cdf,
    gen_distortion,
    gen_utility,
    lsc_check,
    monotone_check,
    pairing_formula_value,
    set_commute_check,
)
from dtlab.pwfn import Breakpoint, bp
from dtlab.transform import (
    Distortion,
    RduForm,
    Utility,
    _collapse,
    affine_utility,
    apply_distortion,
    apply_utility,
    identity_distortion,
    identity_utility,
)

HALF = Q(1, 2)
STEP = Distortion(pwfn.step_open(HALF))
JUMP_UTILITY = Utility(pwfn.on_reals([Breakpoint(HALF, HALF, HALF, Q(3, 2))], 1, 1))
CORPUS = canonical_corpus()


def distort_by(d):
    return lambda F: apply_distortion(d, F)


def push_by(u):
    return lambda F: apply_utility(u, F)


# -- corpus ------------------------------------------------------------------


def test_canonical_corpus_contents():
    names = [name for name, _ in CORPUS]
    assert len(names) == 10 and len(set(names)) == 10
    assert "uniform(0,1)" in names and "bernoulli(1/2)" in names


def test_corpus_with_random_is_deterministic():
    c1 = corpus_with_random(7, extra=4)
    c2 = corpus_with_random(7, extra=4)
    assert len(c1) == 14
    assert all(equals(F, G) for (_, F), (_, G) in zip(c1, c2))


# -- commute_check -----------------------------------------------------------


def test_commute_check_passes_for_distortion_and_continuous_push():
    res = commute_check(distort_by(STEP), push_by(affine_utility(2, 1)), CORPUS)
    assert isinstance(res, Pass) and res.count == 10


def test_commute_check_witness_matches_known_counterexample():
    res = commute_check(distort_by(STEP), push_by(JUMP_UTILITY), CORPUS)
    assert isinstance(res, Witness)
    assert res.name == "uniform(0,1)"
    assert (res.x, res.lhs, res.rhs) == (HALF, 0, 1)
    assert res.report() == "WITNESS commute F=uniform(0,1) x=1/2 lhs=0 rhs=1"


def test_commute_check_identity_words_pass():
    ident = lambda F: F
    res = commute_check(ident, ident, CORPUS)
    assert isinstance(res, Pass)


# -- set_commute_check -------------------------------------------------------


def test_set_commute_with_utilities_passes():
    form = RduForm(STEP, affine_utility(2, 0))
    probes = [affine_utility(1, 1), Utility(pwfn.on_reals([bp(0, 0)], 0, 1)), affine_utility(3, 0)]
    res = set_commute_check(form, "utilities", probes, CORPUS)
    assert isinstance(res, Pass)


def test_set_commute_with_distortions_passes():
    bend = Distortion(pwfn.from_points([(0, 0), (HALF, Q(1, 4)), (1, 1)]))
    form = RduForm(bend, JUMP_UTILITY)
    probes = [Distortion(pwfn.from_points([(0, 0), (HALF, 1), (1, 1)])), identity_distortion()]
    res = set_commute_check(form, "distortions", probes, CORPUS)
    assert isinstance(res, Pass)


def test_set_commute_stops_at_the_first_witness(monkeypatch):
    # The witness is found in the first orientation of the first probe, so
    # partner' is never built (only that orientation's two words collapse),
    # and the second probe, which is not right-continuous and would raise
    # ClassError, is never reached.
    words = []
    monkeypatch.setattr(lab, "_collapse", lambda steps: words.append(steps) or _collapse(steps))
    form = RduForm(gen_distortion(1, "df-strict"), gen_utility(1, "uf-any"))
    res = set_commute_check(form, "distortions", [gen_distortion(1, "df-rc"), STEP], CORPUS)
    want = "WITNESS set-commute-distortions F=uniform(-1,1) x=-4 lhs=29/192 rhs=5/63"
    assert res.report() == want
    assert len(words) == 2


def test_set_commute_identity_form_passes():
    form = RduForm(identity_distortion(), identity_utility())
    res = set_commute_check(form, "utilities", [affine_utility(1, 5)], CORPUS)
    assert isinstance(res, Pass)


def test_set_commute_evaluates_the_form_once_per_corpus_entry():
    calls = []

    class CountingForm(RduForm):
        def __call__(self, F):
            calls.append(F)
            return super().__call__(F)

    # Left-continuous probes with jumps, before a distortion that is not
    # right-continuous, keep both orientations off the form shortcut, so
    # every instance is decided on the corpus.
    form = CountingForm(gen_distortion(0, "df"), gen_utility(5, "uf-strict"))
    probes = [gen_utility(7, "uf-left"), gen_utility(8, "uf-left")]
    assert not any(p.cls.continuous for p in probes)
    assert not form.d.cls.right_continuous
    res = set_commute_check(form, "utilities", probes, CORPUS)
    assert isinstance(res, Pass) and res.count == 2 * 2 * len(CORPUS)
    # form(F) once per entry, plus form(probe(F)) and form(partner(F)) per probe
    assert len(calls) == len(CORPUS) + 2 * 2 * len(CORPUS)

    # Continuous probes: every orientation is decided by forms, none applied.
    calls.clear()
    form = CountingForm(gen_distortion(3, "df"), gen_utility(5, "uf-strict"))
    probes = [gen_utility(7, "uf"), gen_utility(8, "uf")]
    res = set_commute_check(form, "utilities", probes, CORPUS)
    assert isinstance(res, Pass) and res.count == 2 * 2 * len(CORPUS)
    assert calls == []

    # The inputs of fuzz_set_commute(family, 16, seed=1, ...): every orientation
    # is decided by forms, so the first orientation's component test, the
    # conjugation identity partner o g = g o probe, held for every probe.
    fuzz_inputs = {
        "utilities": ((433, 439, 443), ("df", "uf-strict", "uf")),
        "distortions": ((449, 457, 461), ("df-strict", "uf-left", "df-rc")),
    }
    for family, (mults, kinds) in fuzz_inputs.items():
        for i in range(16):
            form = CountingForm(gen(mults[0] + i, kinds[0]), gen(mults[1] + i, kinds[1]))
            probes = [gen(mults[2] + i * 5 + j, kinds[2]) for j in range(5)]
            res = set_commute_check(form, family, probes, CORPUS)
            assert isinstance(res, Pass) and res.count == 2 * 5 * len(CORPUS), (family, i)
            assert calls == [], (family, i)


def test_set_commute_class_preconditions():
    flat = Utility(pwfn.on_reals([bp(0, 0), bp(1, 0)], 1, 1))
    with pytest.raises(ClassError):
        set_commute_check(RduForm(identity_distortion(), flat), "utilities", [], CORPUS)
    with pytest.raises(ClassError):
        set_commute_check(RduForm(STEP, identity_utility()), "distortions", [], CORPUS)
    with pytest.raises(ClassError):
        set_commute_check(
            RduForm(identity_distortion(), identity_utility()),
            "distortions",
            [STEP],  # probe is not right-continuous
            CORPUS,
        )


def test_set_commute_flat_utility_yields_witness_when_probed():
    # a flat stretch merges point masses, so no partner can track a shift
    flat = Utility(pwfn.on_reals([bp(0, 0), bp(1, 0)], 1, 1))
    form = RduForm(identity_distortion(), flat)
    res = set_commute_check(
        form, "utilities", [affine_utility(1, HALF)], CORPUS, probe_anyway=True
    )
    assert isinstance(res, Witness)


@pytest.mark.parametrize("seed", range(12))
def test_set_commute_probe_anyway_refuses_a_flat_tail(seed):
    # A utility with a zero tail slope has no finite pseudo-inverse.
    form = RduForm(gen(seed, "df"), gen(seed, "uf"))
    probes = [SHIFT, gen(seed, "uf")]
    if 0 in form.u.fn.tails:
        with pytest.raises(ClassError, match="flat tail has no finite pseudo-inverse"):
            set_commute_check(form, "utilities", probes, CORPUS, probe_anyway=True)
    else:
        res = set_commute_check(form, "utilities", probes, CORPUS, probe_anyway=True)
        assert res == corpus_only_set_commute(form, "utilities", probes, CORPUS, True)


# Differential check: the form shortcut against a corpus-only reference.


def corpus_only_set_commute(form, family, probes, corpus, probe_anyway=False):
    """set_commute_check with every orientation decided on the corpus."""
    if family == "utilities":
        g, wrap, apply = form.u, Utility, apply_utility
        strict = g.cls.strictly_increasing and g.cls.surjective
        inv = pwfn.strict_inverse(g.fn) if strict else pwfn.pseudo_inverse(g.fn)
    else:
        g, wrap, apply = form.d, Distortion, apply_distortion
        inv = pwfn.strict_inverse(g.fn)
    law, total = f"set-commute-{family}", 0
    for probe in probes:
        partner = wrap(pwfn.compose(g.fn, pwfn.compose(probe.fn, inv)))
        res = commute_check_like_roundtrip(
            lambda F: apply(partner, form(F)), lambda F: form(apply(probe, F)), corpus, law
        )
        if isinstance(res, Witness):
            return res
        total += res.count
        partner_r = wrap(pwfn.compose(inv, pwfn.compose(probe.fn, g.fn)))
        res = commute_check_like_roundtrip(
            lambda F: form(apply(partner_r, F)), lambda F: apply(probe, form(F)), corpus, law
        )
        if isinstance(res, Witness):
            return res
        total += res.count
    return Pass(law, total)


def _tails_one(u):
    """u with both tail slopes 1, so a pseudo-inverse exists."""
    return Utility(pwfn.on_reals(u.fn.breakpoints, 1, 1))


def _right_continuous(u):
    """u with each jump's value moved to its right limit."""
    bps = [Breakpoint(b.x, b.left, b.right, b.right) for b in u.fn.breakpoints]
    return Utility(pwfn.on_reals(bps, *u.fn.tails))


FLAT = Utility(pwfn.on_reals([bp(0, 0), bp(1, 0)], 1, 1))
SHIFT = affine_utility(1, HALF)

# name -> seed -> (form, family, probes, probe_anyway)
SET_COMMUTE_CASES = {
    "utilities": lambda s: (
        RduForm(gen(s, "df"), gen(s, "uf-strict")), "utilities",
        [gen(100 * s + j, "uf") for j in range(3)], False),
    "distortions": lambda s: (
        RduForm(gen(s, "df-strict"), gen(s, "uf-left")), "distortions",
        [gen(100 * s + j, "df-rc") for j in range(3)], False),
    "uf-left-probes": lambda s: (
        RduForm(identity_distortion(), gen(s, "uf-strict")), "utilities",
        [gen(100 * s + j, "uf-left") for j in range(3)], False),
    "df-with-uf-left-probes": lambda s: (
        RduForm(gen(s, "df"), gen(s, "uf-strict")), "utilities",
        [gen(100 * s + j, "uf-left") for j in range(3)], False),
    "probe-anyway-flat": lambda s: (
        RduForm(gen(s, "df") if s else identity_distortion(), FLAT), "utilities",
        [SHIFT] + [gen(100 * s + j, "uf") for j in range(2)], True),
    "probe-anyway-jumps": lambda s: (
        RduForm(gen(s, "df"), _tails_one(gen(s, "uf-left"))), "utilities",
        [gen(100 * s + j, "uf") for j in range(3)], True),
    "distortions-u-not-left-continuous": lambda s: (
        RduForm(gen(s, "df-strict"), _right_continuous(gen(s, "uf-left"))), "distortions",
        [gen(100 * s + j, "df-rc") for j in range(3)], False),
}
# the cases whose seeds include a failing instance, so witnesses are compared too
WITNESS_CASES = {
    "df-with-uf-left-probes",
    "probe-anyway-flat",
    "probe-anyway-jumps",
    "distortions-u-not-left-continuous",
}


@pytest.mark.parametrize("case", sorted(SET_COMMUTE_CASES))
def test_set_commute_matches_corpus_only_reference(case):
    kinds = set()
    for seed in range(16):
        form, family, probes, anyway = SET_COMMUTE_CASES[case](seed)
        got = set_commute_check(form, family, probes, CORPUS, probe_anyway=anyway)
        want = corpus_only_set_commute(form, family, probes, CORPUS, anyway)
        assert type(got) is type(want), (case, seed)
        if isinstance(want, Pass):
            assert got.count == want.count, (case, seed)
        else:
            assert (got.law, got.name, got.F, got.x, got.lhs, got.rhs) == (
                want.law, want.name, want.F, want.x, want.lhs, want.rhs), (case, seed)
        kinds.add(type(want))
    assert (Witness in kinds) == (case in WITNESS_CASES), case


def test_set_commute_survives_optimize_flag():
    code = (
        "from fractions import Fraction\n"
        "from dtlab import pwfn\n"
        "from dtlab.lab import canonical_corpus, gen, set_commute_check\n"
        "from dtlab.transform import RduForm, Utility, affine_utility, identity_distortion\n"
        "flat = Utility(pwfn.on_reals([pwfn.bp(0, 0), pwfn.bp(1, 0)], 1, 1))\n"
        "for form, probes, anyway in [\n"
        "    (RduForm(gen(0, 'df'), gen(0, 'uf-strict')), [gen(j, 'uf') for j in range(3)], False),\n"
        "    (RduForm(identity_distortion(), flat), [affine_utility(1, Fraction(1, 2))], True),\n"
        "]:\n"
        "    res = set_commute_check(form, 'utilities', probes, canonical_corpus(), anyway)\n"
        "    print(res.report())\n"
    )
    cases = [
        (RduForm(gen(0, "df"), gen(0, "uf-strict")), [gen(j, "uf") for j in range(3)], False),
        (RduForm(identity_distortion(), FLAT), [SHIFT], True),
    ]
    want = "".join(
        corpus_only_set_commute(form, "utilities", probes, CORPUS, anyway).report() + "\n"
        for form, probes, anyway in cases
    )
    assert _run_optimized(code) == want


# -- monotone and lsc -----------------------------------------------------------


def test_monotone_check_for_primitive_transforms():
    assert isinstance(monotone_check(distort_by(STEP), CORPUS), Pass)
    assert isinstance(monotone_check(push_by(JUMP_UTILITY), CORPUS), Pass)


def test_monotone_check_median_point_mass():
    median = lambda F: dirac(right_quantile(F, HALF))
    assert isinstance(monotone_check(median, CORPUS), Pass)


def test_monotone_check_witness_for_decreasing_transform():
    # pick the mean of the reflected distribution: order-reversing
    from dtlab.dist import mean

    flip = lambda F: dirac(-mean(F))
    res = monotone_check(flip, CORPUS)
    assert isinstance(res, Witness)
    assert res.report() == "WITNESS monotone F=dirac(-2)<=st:dirac(0) x=0 lhs=0 rhs=1"


EMPTY = Corpus(())
ZERO_INSTANCE_CASES = {
    "commute": lambda: commute_check(distort_by(STEP), distort_by(STEP), EMPTY),
    "monotone": lambda: monotone_check(distort_by(STEP), EMPTY),
    "set-commute": lambda: set_commute_check(
        RduForm(identity_distortion(), identity_utility()), "utilities", [], CORPUS
    ),
    "fuzz-normal-form": lambda: fuzz_normal_form(1, 0, EMPTY),
    "fuzz-commute": lambda: fuzz_distort_push_commute(1, 0, EMPTY),
    "fuzz-pairing": lambda: fuzz_rc_left_pairing(1, 0, EMPTY),
    "fuzz-quantile": lambda: fuzz_quantile_identity(1, 0, EMPTY),
    "fuzz-collapse": lambda: fuzz_collapse_nonrc(1, 0, EMPTY),
    "lsc": lambda: lsc_check(distort_by(STEP), [], dirac(0), uniform(0, 1)),
    "pass": lambda: Pass("commute", 0),
}


@pytest.mark.parametrize("case", ZERO_INSTANCE_CASES)
def test_no_law_passes_on_zero_instances(case):
    with pytest.raises(ValueError):
        ZERO_INSTANCE_CASES[case]()


def test_lsc_check_median_violated_on_drifting_coins():
    seq, limit = bernoulli_tail_sequence()
    assert [F(0) for F in seq[:3]] == [Q(1), Q(5, 6), Q(3, 4)]
    median = lambda F: dirac(right_quantile(F, HALF))
    res = lsc_check(median, seq, limit, uniform(0, 1))
    assert res.violated and res.premise_holds and not res.limit_dominated


def test_lsc_check_identity_holds():
    seq, limit = bernoulli_tail_sequence()
    res = lsc_check(lambda F: F, seq, limit, uniform(0, 1))
    assert not res.violated


def test_lsc_check_shift_holds_with_shifted_bound():
    seq, limit = bernoulli_tail_sequence()
    res = lsc_check(push_by(affine_utility(1, 1)), seq, limit, uniform(1, 2))
    assert not res.violated
    assert not res.premise_holds  # the dominance chain already fails mid-sequence


# -- extraction ---------------------------------------------------------------------


def test_extract_distortion_identity_samples():
    res = extract_distortion(distort_by(identity_distortion()), [Q(1, 4), HALF, Q(3, 4)])
    assert [v for _, v in res.samples] == [Q(1, 4), HALF, Q(3, 4)]
    assert res.round_trip_ok


def test_extract_distortion_step_sees_left_value_at_jump():
    res = extract_distortion(distort_by(STEP), [Q(1, 4), HALF, Q(3, 4)])
    assert [v for _, v in res.samples] == [0, 0, 1]
    # the continuous interpolant cannot reproduce the jump box
    assert not res.round_trip_ok and res.witness is not None


def test_extract_distortion_rejects_bad_levels():
    t = distort_by(identity_distortion())
    with pytest.raises(ExtractionError):
        extract_distortion(t, [HALF, HALF])
    with pytest.raises(ExtractionError):
        extract_distortion(t, [0, HALF])


def test_extract_utility_affine_recovers_exactly():
    res = extract_utility(push_by(affine_utility(2, 3)), [-1, 0, 2])
    assert [y for _, y in res.samples] == [1, 3, 7]
    assert res.recovered == affine_utility(2, 3)
    assert res.round_trip_ok


def test_extract_utility_flags_distortion_box():
    res = extract_utility(distort_by(STEP), [0])
    assert equals(distort_by(STEP)(dirac(0)), dirac(0))
    assert not res.round_trip_ok


def test_extract_utility_rejects_non_point_mass_images():
    smear = lambda F: uniform(0, 1)
    with pytest.raises(ExtractionError):
        extract_utility(smear, [0, 1])


def test_extract_utility_identity_samples():
    res = extract_utility(push_by(identity_utility()), [-1, 0, 2])
    assert [y for _, y in res.samples] == [-1, 0, 2]
    assert res.round_trip_ok


def test_extract_distortion_flags_pushforward_box():
    res = extract_distortion(push_by(affine_utility(1, 1)), [HALF])
    assert not res.round_trip_ok


# -- generators -----------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["cdf", "df", "df-rc", "df-strict", "uf", "uf-left", "uf-strict"])
def test_gen_deterministic_and_certified(kind):
    for seed in range(25):
        a = gen(seed, kind)
        b = gen(seed, kind)
        if kind == "cdf":
            assert equals(a, b)
        else:
            assert a.fn == b.fn
    # membership spot checks
    if kind == "df-rc":
        assert all(gen(s, kind).cls.right_continuous for s in range(25))
    if kind == "df-strict":
        assert all(
            gen(s, kind).cls.strictly_increasing and gen(s, kind).cls.continuous
            for s in range(25)
        )
    if kind == "uf":
        assert all(gen(s, kind).cls.continuous for s in range(25))
    if kind == "uf-left":
        assert all(gen(s, kind).cls.left_continuous for s in range(25))
    if kind == "uf-strict":
        assert all(gen(s, kind).cls.surjective for s in range(25))


MEMBERSHIP = {
    "df": lambda c: True,
    "df-rc": lambda c: c.right_continuous,
    "df-strict": lambda c: c.strictly_increasing and c.continuous,
    "uf": lambda c: c.continuous,
    "uf-left": lambda c: c.left_continuous,
    "uf-strict": lambda c: c.strictly_increasing and c.continuous and c.surjective,
}


@pytest.mark.parametrize("kind", sorted(MEMBERSHIP))
def test_gen_high_complexity_returns_certified_values(kind):
    # More components may be drawn than the sampling grid holds; the
    # generators clamp instead of raising.
    for complexity in range(16, 41):
        for seed in range(6):
            assert MEMBERSHIP[kind](gen(seed, kind, complexity).cls)


def test_certification_survives_optimize_flag():
    code = (
        "from fractions import Fraction\n"
        "from dtlab import lab, pwfn\n"
        "from dtlab.errors import ClassError\n"
        "from dtlab.transform import Distortion\n"
        "try:\n"
        "    lab._certify_distortion(Distortion(pwfn.step_open(Fraction(1, 2))), 'df-rc')\n"
        "except ClassError:\n"
        "    print('ClassError')\n"
    )
    assert _run_optimized(code) == "ClassError\n"


def _run_optimized(code: str) -> str:
    """Standard output of ``code`` run under ``python -O`` against this dtlab."""
    src = str(Path(pwfn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_gen_produces_jumpy_distortions():
    jumpy = sum(not gen_distortion(s, "df").cls.continuous for s in range(100))
    assert jumpy >= 20


def test_gen_single_component_cdf():
    F = gen_cdf(0, complexity=1)
    atoms, segs = __import__("dtlab.dist", fromlist=["decompose"]).decompose(F)
    assert len(atoms) + len(segs) >= 1


# -- helpers ---------------------------------------------------------------------------


def test_first_fn_difference_locates_divergence():
    f = pwfn.identity(0, 1)
    g = pwfn.from_points([(0, 0), (HALF, Q(1, 4)), (1, 1)])
    x, a, b = first_fn_difference(f, g)
    assert a != b and f(x) == a and g(x) == b
    assert first_fn_difference(f, pwfn.identity(0, 1)) is None


def test_pairing_formula_handles_infinite_preimages():
    bounded_u = Utility(pwfn.on_reals([bp(0, 0), bp(1, 1)], 0, 0))
    F = uniform(0, 1)
    d = identity_distortion()
    # below the range every outcome maps above x, so the set is empty
    assert pairing_formula_value(d, bounded_u, F, Q(-1)) == 0
    # above the range the whole line qualifies
    assert pairing_formula_value(d, bounded_u, F, Q(2)) == 1


def test_collapse_search_finds_no_witness_on_defaults():
    res = fuzz_collapse_nonrc(60, 0, CORPUS)
    assert isinstance(res, Pass)
