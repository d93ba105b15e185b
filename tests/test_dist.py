"""Tests for distributions, quantiles, dominance and moments."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtlab import pwfn
from dtlab.dist import (
    Atom,
    Cdf,
    Uniform,
    atom,
    bernoulli,
    decompose,
    dirac,
    equals,
    first_difference,
    left_quantile,
    leq_st,
    make,
    mean,
    merged_abscissas,
    right_quantile,
    unif,
    uniform,
)
from dtlab.errors import LevelError, ParseError, SpecError
from dtlab.lab import canonical_corpus, gen_cdf
from dtlab.pwfn import Breakpoint, bp


def grid(lo, hi, den):
    return [Q(n, den) for n in range(lo * den, hi * den + 1)]


def mean_via_cdf_integral(F: Cdf) -> Q:
    """Independent moment oracle: b - integral of the cdf over [a, b]."""
    a, b = F.support
    bps = F.fn.breakpoints
    area = Q(0)
    for lo, hi in zip(bps, bps[1:]):
        area += (hi.x - lo.x) * (lo.right + hi.left) / 2
    return b - area


# -- construction ------------------------------------------------------------


def test_point_mass_cdf():
    F = dirac(0)
    assert F.eval3(0) == (0, 1, 1)
    assert F.support == (0, 0)


def test_bernoulli_half_cdf():
    F = bernoulli(Q(1, 2))
    assert F(-1) == 0
    assert F(0) == Q(1, 2)
    assert F(Q(1, 2)) == Q(1, 2)
    assert F(1) == 1


def test_standard_uniform_cdf():
    F = uniform(0, 1)
    for x in grid(0, 1, 8):
        assert F(x) == x


def test_make_rejects_bad_specs():
    with pytest.raises(SpecError):
        make([atom(0, Q(1, 2))])  # weights don't sum to 1
    with pytest.raises(SpecError):
        make([atom(0, Q(1, 2)), unif(1, 1, Q(1, 2))])  # empty interval
    with pytest.raises(SpecError):
        make([atom(0, Q(3, 2)), atom(1, Q(-1, 2))])  # negative weight


HALF = Q(1, 2)


@pytest.mark.parametrize("fn, message", [
    (pwfn.identity(0, 1), "flat tails"),  # bounded
    (pwfn.on_reals([bp(0, 0), bp(1, 1)], 1, 0), "flat tails"),
    (pwfn.on_reals([bp(0, 0), bp(1, 1)], 0, 1), "flat tails"),
    (pwfn.on_reals([bp(0, HALF), bp(1, 1)], 0, 0), "from 0 to 1"),
    (pwfn.on_reals([bp(0, 0), bp(1, HALF)], 0, 0), "from 0 to 1"),
    (pwfn.on_reals([bp(0, 0), bp(1, 2)], 0, 0), "from 0 to 1"),
    (pwfn.on_reals([Breakpoint(0, 0, 0, 1)], 0, 0), "right-continuous"),
], ids=["bounded", "lower-tail", "upper-tail", "starts-at-1/2", "ends-at-1/2", "ends-at-2",
        "left-continuous"])
def test_cdf_rejects_a_function_that_is_not_a_cdf(fn, message):
    with pytest.raises(SpecError, match=message):
        Cdf(fn)


def test_make_keeps_exact_and_int_fields_exact():
    F = make([Atom(Q(1, 10), 1)])
    assert F == dirac(Q(1, 10))
    assert mean(F) == Q(1, 10) and type(mean(F)) is Q
    assert make([Atom(1, 1)]) == dirac(1)
    G = make([Uniform(0, 2, Q(1, 2)), Atom(1, "1/2")])
    assert G == make([unif(0, 2, Q(1, 2)), atom(1, Q(1, 2))])
    assert all(
        type(v) is Q for b in G.fn.breakpoints for v in (b.x, b.left, b.at, b.right)
    )


@pytest.mark.parametrize(
    "comps",
    [[Atom(0.1, 1)], [Atom(0, 1.0)], [Uniform(0, 0.5, 1)], [Uniform(0, 1, 0.5), Atom(2, Q(1, 2))]],
)
def test_make_refuses_floats(comps):
    with pytest.raises(ParseError):
        make(comps)


def test_coincident_atoms_merge():
    F = make([atom(0, Q(1, 2)), atom(0, Q(1, 2))])
    assert equals(F, dirac(0))


def test_make_decompose_roundtrip_on_corpus():
    for _, F in canonical_corpus():
        atoms, segs = decompose(F)
        again = make(list(atoms) + list(segs))
        assert equals(F, again)


def brute_mass(components, x, include_x: bool) -> Q:
    """Mass below x (at or below when include_x): every atom and every
    uniform stretch clipped to its interval, summed one by one."""
    m = Q(0)
    for c in components:
        if isinstance(c, Atom):
            if c.x < x or (include_x and c.x == x):
                m += c.w
        else:
            m += c.w * min(max((x - c.a) / (c.b - c.a), Q(0)), Q(1))
    return m


@st.composite
def mixtures(draw):
    """Atoms and uniforms on a coarse grid, so atoms coincide and uniforms
    overlap, share ends or touch atoms; integer weights normalised to 1."""
    weights = draw(st.lists(st.integers(1, 9), min_size=1, max_size=9))
    total = sum(weights)
    comps = []
    for w in weights:
        if draw(st.booleans()):
            comps.append(atom(Q(draw(st.integers(-4, 4)), 2), Q(w, total)))
        else:
            a = Q(draw(st.integers(-6, 4)), 2)
            comps.append(unif(a, a + Q(draw(st.integers(1, 6)), 3), Q(w, total)))
    return comps


@settings(max_examples=200, deadline=None)
@given(mixtures())
def test_make_matches_brute_force_mass(comps):
    F = make(comps)
    xs = sorted({c.x for c in comps if isinstance(c, Atom)}
                | {e for c in comps if not isinstance(c, Atom) for e in (c.a, c.b)})
    assert F.support == (xs[0], xs[-1])
    probes = xs + [(a + b) / 2 for a, b in zip(xs, xs[1:])] + [xs[0] - 1, xs[-1] + 1]
    for x in probes:
        at = brute_mass(comps, x, True)
        assert F.eval3(x) == (brute_mass(comps, x, False), at, at), x


def test_make_stacks_coincident_atoms_and_overlapping_uniforms():
    comps = [atom(0, Q(1, 4)), atom(0, Q(1, 8)), unif(-1, 1, Q(1, 4)), unif(0, 2, Q(3, 8))]
    F = make(comps)
    assert F.eval3(0) == (Q(1, 8), Q(1, 2), Q(1, 2))
    assert F(1) == Q(3, 8) + Q(1, 4) + Q(3, 16)
    for x in grid(-2, 3, 8):
        assert F(x) == brute_mass(comps, x, True)


# -- quantiles -----------------------------------------------------------------


def test_left_quantile_uniform_is_identity():
    F = uniform(0, 1)
    for k in range(1, 8):
        assert left_quantile(F, Q(k, 8)) == Q(k, 8)


def test_left_quantile_bernoulli_half():
    F = bernoulli(Q(1, 2))
    assert left_quantile(F, Q(1, 2)) == 0
    # oracle: smallest grid point where the cdf reaches 3/4
    hits = [x for x in grid(-1, 2, 8) if F(x) >= Q(3, 4)]
    assert min(hits) == 1
    assert left_quantile(F, Q(3, 4)) == 1


def test_right_quantile_examples():
    assert right_quantile(bernoulli(Q(1, 2)), Q(1, 2)) == 1
    assert right_quantile(bernoulli(Q(1, 4)), Q(1, 2)) == 0  # drifted coin, n = 4
    assert right_quantile(uniform(0, 1), Q(1, 3)) == Q(1, 3)


def test_quantile_level_ranges():
    F = uniform(0, 1)
    with pytest.raises(LevelError):
        left_quantile(F, 0)
    with pytest.raises(LevelError):
        right_quantile(F, 1)
    assert left_quantile(F, 1) == 1
    assert right_quantile(F, 0) == 0


def test_quantile_levels_are_checked_on_their_integers():
    F = uniform(0, 1)
    for t in (Q(-1, 2), Q(-7, 3), Q(3, 2), Q(7, 3), Q(2)):
        with pytest.raises(LevelError):
            left_quantile(F, t)
        with pytest.raises(LevelError):
            right_quantile(F, t)
    with pytest.raises(LevelError):
        left_quantile(F, Q(0, 5))
    with pytest.raises(LevelError):
        right_quantile(F, Q(6, 6))
    big = Q(2**70 - 1, 2**70)
    assert left_quantile(F, big) == right_quantile(F, big) == big


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 23))
def test_quantile_galois_laws(seed, num):
    # The left quantile is a genuine adjoint: lq <= x iff t <= F(x).  The
    # right quantile satisfies the two one-sided implications; the
    # biconditional fails precisely at a continuous crossing x = rq with
    # F(rq) = t, so only the implications are asserted.
    F = gen_cdf(seed)
    t = Q(num, 24)
    lq = left_quantile(F, t)
    rq = right_quantile(F, t)
    assert lq <= rq
    for x in grid(-4, 4, 4):
        assert (lq <= x) == (t <= F(x))
        if x < rq:
            assert F(x) <= t
        if F(x) <= t:
            assert x <= rq


# -- stochastic order ------------------------------------------------------------


def pointwise_dominance_oracle(F: Cdf, G: Cdf) -> bool:
    """F(x) >= G(x) checked on a fine grid plus one-sided limits there."""
    xs = grid(-5, 5, 16)
    return all(
        all(f >= g for f, g in zip(F.eval3(x), G.eval3(x))) for x in xs
    )


def test_dominance_shifted_point_masses():
    assert leq_st(dirac(0), dirac(1))
    assert not leq_st(dirac(1), dirac(0))


def test_dominance_bernoulli_pair_matches_oracle():
    # more mass at 1 means stochastically larger: the quarter coin sits below
    lo, hi = bernoulli(Q(1, 4)), bernoulli(Q(1, 2))
    assert pointwise_dominance_oracle(lo, hi)
    assert leq_st(lo, hi)
    assert not pointwise_dominance_oracle(hi, lo)
    assert not leq_st(hi, lo)


def test_dominance_reflexive():
    F = bernoulli(Q(1, 2))
    assert leq_st(F, F)


def test_dominance_is_partial_order_on_corpus():
    entries = canonical_corpus().entries
    for _, F in entries:
        assert leq_st(F, F)
    for _, F in entries:
        for _, G in entries:
            if leq_st(F, G) and leq_st(G, F):
                assert equals(F, G)
            for _, H in entries:
                if leq_st(F, G) and leq_st(G, H):
                    assert leq_st(F, H)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_dominance_agrees_with_grid_oracle(s1, s2):
    F, G = gen_cdf(s1), gen_cdf(s2)
    if leq_st(F, G):
        assert pointwise_dominance_oracle(F, G)
    else:
        xs = {b.x for b in F.fn.breakpoints} | {b.x for b in G.fn.breakpoints}
        assert any(
            any(f < g for f, g in zip(F.eval3(x), G.eval3(x))) for x in xs
        )


# -- moments ------------------------------------------------------------------------


def test_mean_trivials():
    assert mean(dirac(3)) == 3
    assert mean(bernoulli(Q(1, 2))) == Q(1, 2)
    assert mean(uniform(0, 1)) == Q(1, 2)


def test_mean_matches_cdf_integral_oracle_on_corpus():
    for _, F in canonical_corpus():
        assert mean(F) == mean_via_cdf_integral(F)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_mean_matches_cdf_integral_oracle_generated(seed):
    F = gen_cdf(seed)
    assert mean(F) == mean_via_cdf_integral(F)


# -- equality -------------------------------------------------------------------------


def test_equals_same_construction():
    assert equals(dirac(0), make([atom(0, 1)]))
    assert not equals(bernoulli(Q(1, 2)), uniform(0, 1))


def test_merged_abscissas_is_the_sorted_union():
    cdfs = [gen_cdf(seed, c) for seed in range(20) for c in (1, 4, 12)]
    pairs = list(zip(cdfs, cdfs[1:])) + [(F, F) for F in cdfs[:6]]
    pairs += [(gen_cdf(3, 4), gen_cdf(3, 4))]  # equal values, distinct objects
    pairs += [(uniform(0, 1), uniform(2, 3)), (uniform(2, 3), uniform(0, 1))]  # disjoint
    pairs += [(dirac(0), dirac(0)), (dirac(0), dirac(1)), (dirac(1), bernoulli(Q(1, 2)))]
    for F, G in pairs:
        union = sorted({b.x for b in F.fn.breakpoints} | {b.x for b in G.fn.breakpoints})
        assert merged_abscissas(F, G) == union


def test_first_difference_none_iff_equal():
    assert first_difference(dirac(0), make([atom(0, 1)])) is None
    got = first_difference(bernoulli(Q(1, 2)), uniform(0, 1))
    assert got is not None
    x, lhs, rhs = got
    assert x == 0 and lhs == Q(1, 2) and rhs == 0
