"""Tests for the transform algebra: distortions, pushforwards, words,
normal forms, conjugation, functionals and risk measures."""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtlab import pwfn
from dtlab.dist import (
    Atom,
    Cdf,
    Uniform,
    bernoulli,
    decompose,
    dirac,
    equals,
    left_quantile,
    leq_st,
    make,
    mean,
    right_quantile,
    uniform,
)
from dtlab.errors import ClassError, LevelError, NormalFormError, NotInvertibleError
from dtlab.lab import canonical_corpus, gen_cdf, gen_distortion, gen_utility
from dtlab.pwfn import Breakpoint, bp
from dtlab.transform import (
    Distort,
    Distortion,
    Push,
    RduForm,
    TransformWord,
    Utility,
    affine_utility,
    apply_distortion,
    apply_utility,
    apply_word,
    compose_distortions,
    compose_utilities,
    conjugate_distortion,
    conjugate_utility,
    dual_utility,
    expected_shortfall,
    expected_utility,
    identity_distortion,
    identity_utility,
    inverse_distortion,
    normal_form,
    rank_dependent_value,
    value_at_risk,
)

HALF = Q(1, 2)
STEP = Distortion(pwfn.step_open(HALF))
STEP_CLOSED = Distortion(pwfn.step_closed(HALF))
JUMP_UTILITY = Utility(pwfn.on_reals([Breakpoint(HALF, HALF, HALF, Q(3, 2))], 1, 1))
RELU = Utility(pwfn.on_reals([bp(0, 0)], 0, 1))

CORPUS = canonical_corpus()


# -- oracles -------------------------------------------------------------------


def eu_oracle(u: Utility, F: Cdf) -> Q:
    """Integral of u against F: atoms directly, ramps by the exact midpoint
    rule on each affine piece of u."""
    atoms, segs = decompose(F)
    total = sum((a.w * u(a.x) for a in atoms), Q(0))
    for s in segs:
        density = s.w / (s.b - s.a)
        cuts = [s.a] + [x for x in u.fn._xs if s.a < x < s.b] + [s.b]
        for p, q in zip(cuts, cuts[1:]):
            total += density * (q - p) * u((p + q) / 2)
    return total


def es_quantile_integral_oracle(alpha: Q, F: Cdf) -> Q:
    """(1/alpha) * integral of the lower quantile over the top alpha levels,
    using the exact midpoint rule between quantile breakpoints."""
    lo_level = 1 - alpha
    levels = {lo_level, Q(1)}
    for b in F.fn.breakpoints:
        for v in (b.left, b.at):
            if lo_level < v < 1:
                levels.add(v)
    cuts = sorted(levels)
    total = Q(0)
    for s0, s1 in zip(cuts, cuts[1:]):
        total += (s1 - s0) * left_quantile(F, (s0 + s1) / 2)
    return total / alpha


# -- apply_distortion -------------------------------------------------------------


def test_identity_distortion_fixes_everything():
    for _, F in CORPUS:
        assert equals(apply_distortion(identity_distortion(), F), F)


def test_step_distortion_on_fair_coin_is_upper_point_mass():
    F = bernoulli(HALF)
    out = apply_distortion(STEP, F)
    assert right_quantile(F, HALF) == 1
    assert equals(out, dirac(1))


def test_right_limit_vs_right_continuous_version_differ():
    F = bernoulli(HALF)
    assert apply_distortion(STEP, F)(0) == 0
    assert apply_distortion(STEP_CLOSED, F)(0) == 1


def test_distorted_support_stays_inside():
    for _, F in CORPUS:
        a, b = F.support
        out = apply_distortion(STEP, F)
        oa, ob = out.support
        assert a <= oa and ob <= b


# -- apply_utility ------------------------------------------------------------------


def test_identity_utility_fixes_everything():
    for _, F in CORPUS:
        assert equals(apply_utility(identity_utility(), F), F)


def test_affine_pushforward_moves_atoms():
    out = apply_utility(affine_utility(2, 3), bernoulli(HALF))
    atoms, segs = decompose(out)
    assert not segs
    assert [(a.x, a.w) for a in atoms] == [(3, HALF), (5, HALF)]


def test_clamp_pushforward_collapses_negative_mass():
    # oracle: mass of {X <= 0} under U[-1,1] is 1/2; the rest maps affinely
    F = uniform(-1, 1)
    assert F(0) == HALF
    out = apply_utility(RELU, F)
    atoms, segs = decompose(out)
    assert [(a.x, a.w) for a in atoms] == [(0, HALF)]
    assert [(s.a, s.b, s.w) for s in segs] == [(0, 1, HALF)]


def test_jump_pushforward_leaves_gap_empty():
    out = apply_utility(JUMP_UTILITY, uniform(0, 1))
    atoms, segs = decompose(out)
    assert not atoms
    assert [(s.a, s.b, s.w) for s in segs] == [(0, HALF, HALF), (Q(3, 2), 2, HALF)]


def test_pushforward_value_is_cdf_at_sup_preimage():
    # with a left-continuous map, the transformed cdf at x reads the original
    # at sup{y : u(y) <= x}
    F = uniform(0, 1)
    out = apply_utility(JUMP_UTILITY, F)
    for x in [Q(-1), Q(0), Q(1, 4), HALF, Q(1), Q(3, 2), Q(7, 4), Q(2), Q(3)]:
        s = pwfn.right_inverse(JUMP_UTILITY.fn, x)
        assert out(x) == F(s)


def pushforward_by_eval3(u: Utility, F: Cdf) -> Cdf:
    """apply_utility's oracle: each stretch cut at u's breakpoints inside it,
    every cut read by a bisecting `eval3`."""
    atoms, segs = decompose(F)
    out = [Atom(u(a.x), a.w) for a in atoms]
    for s in segs:
        cuts = [s.a] + [x for x in u.fn._xs if s.a < x < s.b] + [s.b]
        for p, q in zip(cuts, cuts[1:]):
            lo, hi, m = u.fn.eval3(p)[2], u.fn.eval3(q)[0], s.w * (q - p) / (s.b - s.a)
            out.append(Atom(lo, m) if lo == hi else Uniform(lo, hi, m))
    return make(out)


# Breakpoints at 0, 1 (a jump), 2 and 3, with a flat piece from 5/2 to 3.
WALKED = Utility(pwfn.on_reals(
    [bp(0, 0), Breakpoint(Q(1), Q(1), Q(1), Q(3)), bp(2, 4), bp(Q(5, 2), 5), bp(3, 5)], 1, 1
))


def test_pushforward_walk_with_stretch_ends_on_breakpoints():
    # stretches [0, 2] and [2, 3] end on u's breakpoints, the first one
    # across u's jump at 1 and the second across its flat piece
    F = make([Uniform(Q(0), Q(2), HALF), Uniform(Q(2), Q(3), Q(1, 4)), Atom(Q(1), Q(1, 4))])
    assert len(decompose(F)[1]) == 2
    assert apply_utility(WALKED, F) == pushforward_by_eval3(WALKED, F)
    inside = uniform(Q(1, 2), Q(11, 4))  # a jump and a flat piece strictly inside
    assert apply_utility(WALKED, inside) == pushforward_by_eval3(WALKED, inside)


def test_pushforward_walk_matches_eval3_on_generated():
    for seed in range(40):
        F = gen_cdf(seed, complexity=6)
        for kind in ("uf", "uf-left", "uf-strict"):
            u = gen_utility(seed, kind, complexity=8)
            assert apply_utility(u, F) == pushforward_by_eval3(u, F), (seed, kind)


def test_pushforward_reads_a_breakpoint_shared_with_the_cdf_once():
    # u jumps at 2 and takes its right limit there; F has an atom at 2 with a
    # stretch after it, which must start past u's breakpoint, not reread it
    u = Utility(pwfn.on_reals([bp(0, 0), Breakpoint(Q(2), Q(1), Q(3), Q(3))], 1, 1))
    F = make([Uniform(Q(1), Q(2), Q(1, 4)), Atom(Q(2), Q(1, 4)), Uniform(Q(2), Q(3), HALF)])
    assert apply_utility(u, F) == pushforward_by_eval3(u, F)


def test_pushforward_walk_matches_eval3_on_jumps_valued_anywhere():
    # uf-any puts each jump's value at its left limit, its right limit or
    # strictly between them
    shapes = set()
    for seed in range(60):
        F = gen_cdf(seed, complexity=6)
        u = gen_utility(seed, "uf-any", complexity=8)
        assert apply_utility(u, F) == pushforward_by_eval3(u, F), seed
        shapes |= {(b.at == b.left, b.at == b.right) for b in u.fn.breakpoints if b.left < b.right}
    assert shapes == {(True, False), (False, True), (False, False)}


# Jumps at 1 and at 3 whose values lie strictly between their limits, as
# the CLI accepts them; a flat piece from 2 to 3 leads into the second.
INSIDE_JUMPS = Utility(pwfn.on_reals(
    [bp(0, 0), Breakpoint(Q(1), Q(1), Q(3, 2), Q(2)), bp(2, 3), Breakpoint(Q(3), Q(3), Q(4), Q(5))],
    Q(1, 2), 0,
))


@pytest.mark.parametrize("F", [
    make([Atom(Q(1), HALF), Uniform(Q(-1), Q(0), HALF)]),  # an atom on the jump
    make([Atom(Q(3), Q(1, 4)), Atom(Q(1), Q(1, 4)), Uniform(Q(2), Q(4), HALF)]),
    make([Uniform(Q(1), Q(5, 2), 1)]),  # a stretch starting on the jump
    make([Uniform(Q(3), Q(4), Q(1, 3)), Uniform(Q(1), Q(3, 2), Q(2, 3))]),
    make([Uniform(Q(0), Q(1), HALF), Uniform(Q(2), Q(3), HALF)]),  # stretches ending on jumps
    make([Uniform(Q(-2), Q(1), Q(3, 4)), Atom(Q(3), Q(1, 4))]),
])
def test_pushforward_through_values_inside_jumps_matches_eval3(F):
    assert apply_utility(INSIDE_JUMPS, F) == pushforward_by_eval3(INSIDE_JUMPS, F)


# -- words ---------------------------------------------------------------------------


def test_empty_word_is_identity():
    assert equals(apply_word(TransformWord(()), uniform(0, 1)), uniform(0, 1))


def test_identity_primitives_word():
    w = TransformWord((Distort(identity_distortion()), Push(identity_utility())))
    F = bernoulli(Q(1, 4))
    assert equals(apply_word(w, F), F)


def test_word_stepwise_evaluation():
    w = TransformWord((Distort(STEP), Push(affine_utility(2, 0))))
    assert equals(apply_word(w, bernoulli(HALF)), dirac(2))


# -- composition laws -----------------------------------------------------------------


def test_compose_utilities_examples():
    u2 = JUMP_UTILITY
    assert compose_utilities(identity_utility(), u2) == u2
    assert compose_utilities(affine_utility(2, 0), affine_utility(1, 1)) == affine_utility(2, 2)
    shifted_relu = compose_utilities(RELU, affine_utility(1, -1))
    assert shifted_relu.fn == pwfn.on_reals([bp(1, 0)], 0, 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_compose_utilities_is_pushforward_functorial(seed):
    u1 = gen_utility(seed * 2, "uf-left")
    u2 = gen_utility(seed * 2 + 1, "uf-left")
    F = gen_cdf(seed)
    lhs = apply_utility(compose_utilities(u1, u2), F)
    rhs = apply_utility(u1, apply_utility(u2, F))
    assert equals(lhs, rhs)


def test_compose_distortions_examples():
    assert compose_distortions(identity_distortion(), STEP) == STEP
    assert compose_distortions(STEP, identity_distortion()) == STEP
    assert compose_distortions(identity_distortion(), identity_distortion()) == identity_distortion()
    double = Distortion(pwfn.from_points([(0, 0), (HALF, 1), (1, 1)]))  # min(2t, 1)
    assert compose_distortions(double, STEP) == STEP


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_compose_distortions_collapses_application(seed):
    d1 = gen_distortion(seed * 2 + 1, "df")
    F = gen_cdf(seed)
    for outer in ("df-rc", "df"):  # the outer distortion need not be right-continuous
        d2 = gen_distortion(seed * 2, outer)
        lhs = apply_distortion(compose_distortions(d2, d1), F)
        rhs = apply_distortion(d2, apply_distortion(d1, F))
        assert equals(lhs, rhs), outer


# -- normal form -----------------------------------------------------------------------


def test_normal_form_single_push():
    u = affine_utility(2, 1)
    form = normal_form(TransformWord((Push(u),)))
    assert form.d == identity_distortion() and form.u == u


def test_normal_form_commutes_push_past_distortion():
    u = affine_utility(2, 0)
    w = TransformWord((Push(u), Distort(STEP)))
    form = normal_form(w)
    assert form.d == STEP and form.u == u
    for _, F in CORPUS:
        assert equals(apply_word(w, F), form(F))
        reversed_w = TransformWord((Distort(STEP), Push(u)))
        assert equals(apply_word(reversed_w, F), form(F))


def test_normal_form_collapses_distortion_run():
    d1 = Distortion(pwfn.from_points([(0, 0), (HALF, Q(1, 4)), (1, 1)]))
    d2 = Distortion(pwfn.from_points([(0, 0), (HALF, 1), (1, 1)]))
    u = affine_utility(1, 1)
    w = TransformWord((Distort(d1), Push(u), Distort(d2)))
    form = normal_form(w)
    assert form.d.fn == pwfn.compose(d1.fn, d2.fn)
    assert form.u == u
    for _, F in CORPUS:
        assert equals(apply_word(w, F), form(F))


def test_normal_form_allows_nonrc_distortion_anywhere():
    rc = Distortion(pwfn.from_points([(0, 0), (HALF, 1), (1, 1)]))
    leftmost = TransformWord((Distort(STEP), Push(affine_utility(1, 1)), Distort(rc)))
    inner = TransformWord((Distort(rc), Distort(STEP)))
    for word in (leftmost, inner):
        form = normal_form(word)
        for _, F in CORPUS:
            assert equals(apply_word(word, F), form(F))


def test_normal_form_rejects_discontinuous_push():
    # A push with no distortion to its right never has to move.
    alone = TransformWord((Push(JUMP_UTILITY),))
    form = normal_form(alone)
    assert form.d == identity_distortion() and form.u == JUMP_UTILITY
    # A left-continuous jump cannot pass a distortion that is not right-continuous.
    with pytest.raises(NormalFormError):
        normal_form(TransformWord((Push(JUMP_UTILITY), Distort(STEP))))
    # ... nor a right-continuous one with such a distortion further right.
    with pytest.raises(NormalFormError):
        normal_form(TransformWord(
            (Push(JUMP_UTILITY), Distort(identity_distortion()), Distort(STEP))
        ))


def test_normal_form_pushes_a_left_continuous_jump_past_a_right_continuous_run():
    # d2 jumps at 1/2 from 1/4 (taking 1/4) to 3/4, so it is not right-continuous;
    # d1 is flat at 1/2 on [1/4, 3/4], so d1 o d2 is continuous and the push may pass.
    d1 = Distortion(pwfn.from_points([(0, 0), (Q(1, 4), HALF), (Q(3, 4), HALF), (1, 1)]))
    d2 = Distortion(pwfn.bounded([bp(0, 0), Breakpoint(HALF, Q(1, 4), Q(1, 4), Q(3, 4)), bp(1, 1)]))
    assert not d2.cls.right_continuous
    word = TransformWord((Push(JUMP_UTILITY), Distort(d1), Distort(d2)))
    form = normal_form(word)
    assert form == RduForm(compose_distortions(d1, d2), JUMP_UTILITY)
    for F in [F for _, F in CORPUS] + [gen_cdf(seed) for seed in range(20)]:
        assert equals(apply_word(word, F), form(F))


def _jump_at_half(at):
    """A utility with one jump at 1/2, from 1/2 to 3/2, taking the value `at` there."""
    return Utility(pwfn.on_reals([Breakpoint(HALF, HALF, at, Q(3, 2))], 1, 1))


def test_normal_form_needs_a_left_continuous_push_before_a_distortion():
    d = gen_distortion(0, "df-rc")
    assert d.cls.right_continuous and not d.cls.continuous
    F = gen_cdf(11, 4)
    # The jump's value at its right limit or strictly inside: pushing first and
    # distorting after are different transforms, so the word has no normal form.
    for at in (Q(3, 2), Q(1)):
        u = _jump_at_half(at)
        word = TransformWord((Push(u), Distort(d)))
        assert not equals(apply_word(word, F), RduForm(d, u)(F)), at
        with pytest.raises(NormalFormError):
            normal_form(word)
    # The jump's value at its left limit: the pairing law moves the push right.
    u = _jump_at_half(HALF)
    word = TransformWord((Push(u), Distort(d)))
    form = normal_form(word)
    assert form == RduForm(d, u)
    for _, G in CORPUS:
        assert equals(apply_word(word, G), form(G))


def _left_continuous_word(seed):
    """1-6 steps: pushes of kind uf-left or uf-any, distortions of kind df-rc
    or df, each drawn at any place in the word."""
    rng = random.Random(f"{seed}|left-continuous-word")
    return TransformWord(tuple(
        Push(gen_utility(seed * 53 + j, rng.choice(("uf-left", "uf-any")))) if rng.random() < 0.5
        else Distort(gen_distortion(seed * 59 + j, rng.choice(("df-rc", "df"))))
        for j in range(rng.randint(1, 6))
    ))


def test_normal_form_matches_word_evaluation_over_left_continuous_pushes():
    corpus = [F for _, F in CORPUS] + [gen_cdf(900 + i, 4) for i in range(10)]
    accepted = moved_a_jump = nonrc_inner = refused = 0
    for seed in range(100):
        word = _left_continuous_word(seed)
        try:
            form = normal_form(word)
        except NormalFormError:
            refused += 1
            continue
        accepted += 1
        moved_a_jump += any(
            isinstance(s, Push) and not s.u.cls.continuous
            and any(isinstance(t, Distort) for t in word.steps[k + 1:])
            for k, s in enumerate(word.steps)
        )
        ds = [s.d for s in word.steps if isinstance(s, Distort)]
        nonrc_inner += any(not d.cls.right_continuous for d in ds[1:])
        for F in corpus:
            assert equals(apply_word(word, F), form(F)), seed
    # the law never passes on zero instances, the widened class is reached,
    # and the push condition still refuses some words
    assert accepted > 0 and moved_a_jump > 0 and nonrc_inner > 0 and refused > 0


# -- conjugation -------------------------------------------------------------------------


def test_conjugate_utility_examples():
    u2 = JUMP_UTILITY
    assert conjugate_utility(identity_utility(), u2) == u2
    got = conjugate_utility(affine_utility(2, 0), affine_utility(1, 1))
    assert got == affine_utility(1, 2)
    got = conjugate_utility(affine_utility(2, 0), RELU)
    assert got == RELU


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_conjugate_utility_symbolic_identity(seed):
    u1 = gen_utility(seed * 2, "uf-strict")
    u2 = gen_utility(seed * 2 + 1, "uf")
    u3 = conjugate_utility(u1, u2)
    assert pwfn.compose(u3.fn, u1.fn) == pwfn.compose(u1.fn, u2.fn)


def test_conjugate_utility_requires_strict_surjection():
    with pytest.raises(NotInvertibleError):
        conjugate_utility(RELU, identity_utility())


def test_conjugate_distortion_examples():
    d1 = STEP
    assert conjugate_distortion(identity_distortion(), d1) == d1
    bend = Distortion(pwfn.from_points([(0, 0), (HALF, Q(1, 4)), (1, 1)]))
    got = conjugate_distortion(bend, d1)
    assert got.fn == pwfn.step_open(Q(1, 4))
    assert pwfn.compose(got.fn, bend.fn) == pwfn.compose(bend.fn, d1.fn)
    double = Distortion(pwfn.from_points([(0, 0), (HALF, 1), (1, 1)]))
    assert conjugate_distortion(identity_distortion(), double) == double


def test_conjugate_distortion_requires_bijection():
    with pytest.raises(NotInvertibleError):
        conjugate_distortion(STEP, identity_distortion())
    with pytest.raises(NotInvertibleError):
        inverse_distortion(STEP)


# -- two-sided pairing and its sharp boundary ----------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_distortion_commutes_with_continuous_pushforward(seed):
    d = gen_distortion(seed * 3, "df")
    u = gen_utility(seed * 3 + 1, "uf")
    F = gen_cdf(seed * 3 + 2)
    lhs = apply_distortion(d, apply_utility(u, F))
    rhs = apply_utility(u, apply_distortion(d, F))
    assert equals(lhs, rhs)


def test_boundary_counterexample_jump_against_jump():
    F = uniform(0, 1)
    lhs = apply_distortion(STEP, apply_utility(JUMP_UTILITY, F))
    rhs = apply_utility(JUMP_UTILITY, apply_distortion(STEP, F))
    assert lhs(HALF) == 0
    assert rhs(HALF) == 1


def test_monotone_transforms_preserve_dominance():
    entries = CORPUS.entries
    for _, F in entries:
        for _, G in entries:
            if not leq_st(F, G):
                continue
            assert leq_st(apply_distortion(STEP, F), apply_distortion(STEP, G))
            assert leq_st(apply_utility(RELU, F), apply_utility(RELU, G))


# -- functionals and risk measures ------------------------------------------------------------


def test_expected_utility_values():
    assert expected_utility(identity_utility(), uniform(0, 1)) == HALF
    for _, F in CORPUS:
        for seed in range(5):
            u = gen_utility(seed, "uf")
            assert expected_utility(u, F) == eu_oracle(u, F)


def test_dual_utility_values():
    assert dual_utility(identity_distortion(), bernoulli(HALF)) == HALF
    # distorted mean of the uniform under the step picks the upper quantile
    assert dual_utility(STEP, uniform(0, 1)) == HALF
    assert right_quantile(uniform(0, 1), HALF) == HALF


def test_rank_dependent_value_composes():
    d, u = STEP, affine_utility(2, 0)
    F = bernoulli(HALF)
    w = TransformWord((Distort(d), Push(u)))
    assert rank_dependent_value(d, u, F) == mean(apply_word(w, F))


def test_value_at_risk_matches_right_quantile_oracle():
    assert value_at_risk(HALF, uniform(0, 1)) == HALF
    for _, F in CORPUS:
        for k in range(1, 8):
            p = Q(k, 8)
            assert value_at_risk(p, F) == right_quantile(F, p)


def test_expected_shortfall_values_and_oracle():
    assert expected_shortfall(HALF, uniform(0, 1)) == Q(3, 4)
    for _, F in CORPUS:
        for alpha in (Q(1, 4), HALF, Q(3, 4), Q(1)):
            assert expected_shortfall(alpha, F) == es_quantile_integral_oracle(alpha, F)


def test_expected_shortfall_full_tail_is_mean():
    for _, F in CORPUS:
        assert expected_shortfall(1, F) == mean(F)


def test_risk_level_ranges():
    F = uniform(0, 1)
    with pytest.raises(LevelError):
        value_at_risk(0, F)
    with pytest.raises(LevelError):
        value_at_risk(1, F)
    with pytest.raises(LevelError):
        expected_shortfall(0, F)


def test_distortion_class_guards():
    with pytest.raises(ClassError):
        Distortion(pwfn.identity(0, 2))
    with pytest.raises(ClassError):
        Distortion(pwfn.from_points([(0, Q(1, 4)), (1, 1)]))
    with pytest.raises(ClassError):
        Utility(pwfn.identity(0, 1))
