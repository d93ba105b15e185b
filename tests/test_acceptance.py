"""Acceptance suite: every criterion checked bit-exactly, one line per run.

All assertions are exact equalities of rationals or canonical forms; there
are no tolerances anywhere.  Run with ``pytest tests/test_acceptance.py -s``
to see the per-criterion verdict lines.
"""

import time
from fractions import Fraction as Q

from dtlab import pwfn
from dtlab.dist import (
    bernoulli,
    dirac,
    equals,
    left_quantile,
    mean,
    right_quantile,
    uniform,
)
from dtlab.lab import (
    Pass,
    bernoulli_tail_sequence,
    canonical_corpus,
    commute_check_like_roundtrip,
    extract_distortion,
    extract_utility,
    fuzz_distort_push_commute,
    fuzz_normal_form,
    fuzz_quantile_identity,
    fuzz_rc_left_pairing,
    fuzz_set_commute,
    gen_distortion,
    gen_utility,
    lsc_check,
    monotone_check,
)
from dtlab.pwfn import Breakpoint
from dtlab.transform import (
    Distortion,
    Utility,
    apply_distortion,
    apply_utility,
    expected_shortfall,
    value_at_risk,
)

HALF = Q(1, 2)
CORPUS = canonical_corpus()
SEED = 0


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_distortions_commute_with_continuous_pushforwards():
    start = time.monotonic()
    result, jumps = fuzz_distort_push_commute(1000, SEED, CORPUS)
    elapsed = time.monotonic() - start
    ok = isinstance(result, Pass) and result.count == 1000 and jumps >= 100
    ok = ok and len(CORPUS) >= 10 and elapsed < 30
    report(
        1,
        ok,
        f"1000 seeded pairs against a {len(CORPUS)}-element corpus, "
        f"{jumps} with jumps, both orders equal, {elapsed:.1f}s",
    )


def test_criterion_2_right_continuous_left_continuous_pairing():
    result = fuzz_rc_left_pairing(500, SEED, CORPUS)
    ok = isinstance(result, Pass) and result.count == 500
    # fixed sharp instance: jump utility against the jump-above step
    u = Utility(pwfn.on_reals([Breakpoint(HALF, HALF, HALF, Q(3, 2))], 1, 1))
    d = Distortion(pwfn.step_open(HALF))
    F = uniform(0, 1)
    lhs = apply_distortion(d, apply_utility(u, F))(HALF)
    rhs = apply_utility(u, apply_distortion(d, F))(HALF)
    ok = ok and lhs == 0 and rhs == 1
    report(
        2,
        ok,
        "500 seeded pairs match the sup-preimage formula; "
        f"fixed counterexample values at 1/2 are {lhs} vs {rhs}",
    )


def test_criterion_3_right_limit_vs_right_continuous_version():
    F = bernoulli(HALF)
    d = Distortion(pwfn.step_open(HALF))
    dhat = Distortion(pwfn.step_closed(HALF))
    got_d = apply_distortion(d, F)(0)
    got_dhat = apply_distortion(dhat, F)(0)
    ok = got_d == 0 and got_dhat == 1
    report(3, ok, f"values at 0 are {got_d} and {got_dhat}, so the versions differ")


def test_criterion_4_median_point_mass_transform():
    def median(F):
        return dirac(right_quantile(F, HALF))

    mono = monotone_check(median, CORPUS)
    commute_ok = all(
        isinstance(
            commute_check_like_roundtrip(
                lambda F: median(apply_utility(u, F)), lambda F: apply_utility(u, median(F)),
                CORPUS, "commute",
            ),
            Pass,
        )
        for u in (gen_utility(SEED * 577 + i, "uf") for i in range(10))
    )
    seq, limit = bernoulli_tail_sequence(2, 16)
    lsc = lsc_check(median, seq, limit, uniform(0, 1))
    step = Distortion(pwfn.step_open(HALF))
    same = all(equals(median(F), apply_distortion(step, F)) for _, F in CORPUS)
    ok = isinstance(mono, Pass) and commute_ok and lsc.violated and same
    report(
        4,
        ok,
        "median point mass: monotone, commutes with 10 seeded continuous "
        "pushforwards, dominance fails only at the limit, equals the step distortion",
    )


def test_criterion_5_quantile_identity_for_pushforwards():
    result = fuzz_quantile_identity(200, SEED, CORPUS)
    ok = isinstance(result, Pass) and result.count == 200
    report(5, ok, "200 seeded lower-quantile identities hold exactly")


def test_criterion_6_set_commutation_with_utilities():
    result = fuzz_set_commute("utilities", 100, SEED, CORPUS, probes_per=5)
    ok = isinstance(result, Pass) and result.count == 100 * 5 * 2 * len(CORPUS)
    report(
        6,
        ok,
        "100 seeded collapsed transforms set-commute with 5 utility probes "
        "each, both directions, conjugation identity exact",
    )


def test_criterion_7_set_commutation_with_distortions():
    result = fuzz_set_commute("distortions", 100, SEED, CORPUS, probes_per=5)
    ok = isinstance(result, Pass) and result.count == 100 * 5 * 2 * len(CORPUS)
    report(
        7,
        ok,
        "100 seeded collapsed transforms set-commute with 5 right-continuous "
        "distortion probes each, both directions",
    )


def test_criterion_8_word_normal_forms():
    result = fuzz_normal_form(200, SEED, CORPUS, max_len=6)
    ok = isinstance(result, Pass)
    report(8, ok, "200 seeded admissible words collapse to matching normal forms")


def _nine_levels_including(jump_points):
    levels = sorted(jump_points)
    pad = (Q(k, 10) for k in range(1, 10))
    seen = set(levels)
    while len(levels) < 9:
        candidate = next(pad)
        if candidate not in seen:
            levels.append(candidate)
            seen.add(candidate)
    return sorted(levels[:9])


def _nine_points_including(breakpoints):
    xs = sorted(breakpoints)
    lo, hi = xs[0], xs[-1]
    extras = [lo - 2, lo - 1, hi + 1, hi + 2, lo - 3, lo - 4, hi + 3, hi + 4, lo - 5]
    seen = set(xs)
    for e in extras:
        if len(xs) >= 9:
            break
        if e not in seen:
            xs.append(e)
            seen.add(e)
    return sorted(xs[:9])


def test_criterion_9_extraction_and_discrimination():
    # recovery of seeded distortions at nine levels, jump points included
    d_ok = True
    for seed in range(25):
        d = gen_distortion(seed, "df")
        interior = [b.x for b in d.fn.breakpoints if 0 < b.x < 1]
        levels = _nine_levels_including(interior)
        res = extract_distortion(lambda F, d=d: apply_distortion(d, F), levels, CORPUS)
        d_ok = d_ok and all(v == d(p) for p, v in res.samples)

    # recovery of seeded continuous utilities at nine points
    u_ok = True
    for seed in range(25):
        u = gen_utility(seed, "uf")
        points = _nine_points_including([b.x for b in u.fn.breakpoints])
        res = extract_utility(lambda F, u=u: apply_utility(u, F), points, CORPUS)
        u_ok = u_ok and all(y == u(x) for x, y in res.samples)
        u_ok = u_ok and res.round_trip_ok and res.recovered == u

    # twenty seeded non-members are flagged by the round-trip
    flagged = 0
    checked = 0
    seed = 0
    while checked < 10:
        d = gen_distortion(seed, "df")
        seed += 1
        if all(equals(apply_distortion(d, F), F) for _, F in CORPUS):
            continue  # acts as the identity here; not a usable non-member probe
        checked += 1
        res = extract_utility(
            lambda F, d=d: apply_distortion(d, F),
            _nine_points_including([Q(-2), Q(0), HALF, Q(3)]),
            CORPUS,
        )
        flagged += not res.round_trip_ok
    seed = 0
    while checked < 20:
        u = gen_utility(seed, "uf")
        seed += 1
        if all(u(x) == x for x in (Q(-2), Q(0), HALF, Q(3))):
            continue  # fixes every corpus point mass; not a usable non-member probe
        checked += 1
        res = extract_distortion(
            lambda F, u=u: apply_utility(u, F),
            _nine_levels_including([]),
            CORPUS,
        )
        flagged += not res.round_trip_ok
    ok = d_ok and u_ok and flagged == 20
    report(
        9,
        ok,
        "25 distortions and 25 utilities recovered exactly at 9 probes; "
        f"{flagged}/20 non-members flagged by the corpus round-trip",
    )


def _es_quantile_integral(alpha, F):
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


def test_criterion_10_risk_functionals():
    U = uniform(0, 1)
    var_ok = value_at_risk(HALF, U) == HALF == right_quantile(U, HALF)
    es_ok = expected_shortfall(HALF, U) == Q(3, 4) == _es_quantile_integral(HALF, U)
    tail_ok = all(
        expected_shortfall(1, F) == mean(F) == _es_quantile_integral(1, F)
        for _, F in CORPUS
    )
    cross_ok = all(
        value_at_risk(p, F) == right_quantile(F, p)
        and expected_shortfall(p, F) == _es_quantile_integral(p, F)
        for _, F in CORPUS
        for p in (Q(1, 4), HALF, Q(7, 8))
    )
    ok = var_ok and es_ok and tail_ok and cross_ok
    report(
        10,
        ok,
        "value-at-risk and expected-shortfall match their quantile-integral "
        "oracles on the corpus; the full tail average equals the mean",
    )
