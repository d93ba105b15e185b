"""Tests for the piecewise-monotone function calculus."""

import operator
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtlab import pwfn
from dtlab.errors import DomainError, NotInvertibleError, ParseError
from dtlab.lab import DISTORTION_KINDS, KINDS, gen, gen_distortion, gen_utility
from dtlab.pwfn import (
    NEG_INF,
    POS_INF,
    Breakpoint,
    PiecewiseMonotone,
    _eq,
    _interp,
    _le,
    _lt,
    _ne,
    _on_line,
    _sup_walk,
    bp,
    classify,
    compose,
    right_inverse,
    strict_inverse,
)
from test_lab import _run_optimized


def grid(lo, hi, den):
    return [Q(n, den) for n in range(lo * den, hi * den + 1)]


JUMP_AT_HALF = pwfn.on_reals([Breakpoint(Q(1, 2), Q(1, 2), Q(1, 2), Q(3, 2))], 1, 1)


# -- construction and canonical form ----------------------------------------


def test_redundant_interior_point_is_dropped():
    with_extra = pwfn.bounded([bp(0, 0), bp(Q(1, 2), Q(1, 2)), bp(1, 1)])
    assert with_extra == pwfn.identity(0, 1)
    assert len(with_extra.breakpoints) == 2


def test_affine_on_reals_reanchors_at_zero():
    f = pwfn.on_reals([bp(5, 13)], 2, 2)  # 2x + 3 anchored at x=5
    assert f == pwfn.affine(2, 3)
    assert f.breakpoints[0].x == 0


def test_canonicalization_is_idempotent():
    f = pwfn.step_open(Q(1, 3))
    again = PiecewiseMonotone(f.breakpoints, f.tails)
    assert again == f


INVALID_CONSTRUCTIONS = (
    "pwfn.bounded([bp(0, 1), bp(1, 0)])",  # decreasing
    "pwfn.bounded([bp(0, 0)])",  # single point bounded domain
    # a triple out of order
    "PiecewiseMonotone((Breakpoint(Q(0), Q(1), Q(0), Q(0)),), (Q(1), Q(1)))",
    "pwfn.on_reals([bp(0, 0)], -1, 1)",  # negative tail slope
    "pwfn.on_reals([bp(0, 0)], 1, -1)",  # negative upper tail slope
    "pwfn.on_reals([bp(1, 0), bp(0, 1)], 1, 1)",  # abscissas out of order
    "pwfn.bounded([bp(0, 0), bp(1, 1, 1, 2)])",  # right limit beyond the domain's end
    "PiecewiseMonotone((), (Q(1), Q(1)))",  # no breakpoints
)


def test_invalid_constructions_raise():
    for source in INVALID_CONSTRUCTIONS:
        with pytest.raises(ValueError):
            eval(source)


def test_invalid_constructions_raise_under_python_O():
    # the constructor's checks are explicit raises, which -O does not strip
    code = (
        "from fractions import Fraction as Q\n"
        "from dtlab import pwfn\n"
        "from dtlab.pwfn import Breakpoint, PiecewiseMonotone, bp\n"
        f"for source in {INVALID_CONSTRUCTIONS!r}:\n"
        "    try:\n"
        "        eval(source)\n"
        "    except ValueError:\n"
        "        print('ValueError')\n"
    )
    assert _run_optimized(code) == "ValueError\n" * len(INVALID_CONSTRUCTIONS)


def test_constructor_makes_every_field_a_fraction():
    # ints and p/q text are read exactly; the kernels compare stored values
    # on their integers, so nothing else may be stored
    f = pwfn.bounded([Breakpoint(0, 0, 0, 0), Breakpoint(1, "1/2", 1, 1)])
    assert f == pwfn.bounded([bp(0, 0), bp(1, Q(1, 2), 1)])
    g = PiecewiseMonotone((bp(0, 0),), ("1/2", 1))
    assert g.tails == (Q(1, 2), 1)
    for h in (f, g):
        values = [v for b in h.breakpoints for v in (b.x, b.left, b.at, b.right)]
        assert all(type(v) is Q for v in values + list(h.tails or ()))


@pytest.mark.parametrize(
    "build",
    [
        lambda: pwfn.bounded([Breakpoint(0, 0, 0, 0), Breakpoint(0.5, 1, 1, 1)]),
        lambda: pwfn.bounded([Breakpoint(0, 0, 0, 0), Breakpoint(1, 0.5, 1, 1)]),
        lambda: PiecewiseMonotone((bp(0, 0),), (0.5, 1)),
        lambda: PiecewiseMonotone((bp(0, 0),), (1, 0.5)),
    ],
)
def test_constructor_refuses_floats(build):
    with pytest.raises(ParseError):
        build()


def test_flat_tail_encodes_clamped_function():
    relu = pwfn.on_reals([bp(0, 0)], 0, 1)
    assert relu(-5) == 0
    assert relu(3) == 3


# -- eval3 --------------------------------------------------------------------


def test_eval3_identity_interior():
    f = pwfn.identity(0, 1)
    assert f.eval3(Q(1, 2)) == (Q(1, 2), Q(1, 2), Q(1, 2))


def test_eval3_step_at_jump():
    f = pwfn.step_open(Q(1, 2))
    assert f.eval3(Q(1, 2)) == (0, 0, 1)


def test_eval3_reads_stored_triple():
    f = pwfn.on_reals([Breakpoint(Q(0), Q(0), Q(1, 4), Q(1, 2))], 0, 0)
    assert f.eval3(0) == (0, Q(1, 4), Q(1, 2))


def test_eval3_outside_bounded_domain_raises():
    f = pwfn.identity(0, 1)
    with pytest.raises(DomainError):
        f.eval3(2)
    with pytest.raises(DomainError):
        f.eval3(Q(-1, 10))


def test_eval3_endpoint_limits_fall_back_to_value():
    f = pwfn.step_open(Q(1, 2))
    assert f.eval3(0) == (0, 0, 0)
    assert f.eval3(1) == (1, 1, 1)


def test_eval3_one_sided_consistency_across_points():
    f = JUMP_AT_HALF
    xs = grid(-2, 2, 8)
    for a, b in zip(xs, xs[1:]):
        assert f.eval3(a)[2] <= f.eval3(b)[0]


def test_rat_rejects_floats_and_malformed_text():
    assert pwfn.rat("3/4") == Q(3, 4) and pwfn.rat(2) == 2
    for bad in (0.1, 0.5, "1/0", "abc"):
        with pytest.raises(ParseError):
            pwfn.rat(bad)


@pytest.mark.parametrize(
    "text", ["0.5", ".5", "1e-1", "1e3", " 3/4", "3 / 4", "+3", "1_000", "3/-4"]
)
def test_rat_accepts_only_integer_and_fraction_text(text):
    with pytest.raises(ParseError):
        pwfn.rat(text)


def test_rat_reads_integer_and_fraction_text():
    assert [pwfn.rat(t) for t in ("7", "-7", "0", "-0", "6/8", "-3/4")] == [
        7, -7, 0, 0, Q(3, 4), Q(-3, 4)
    ]


# -- right_inverse --------------------------------------------------------------


def test_right_inverse_identity():
    assert right_inverse(pwfn.identity(), 3) == 3


def test_right_inverse_at_jump_matches_grid_oracle():
    # oracle: largest grid point y with f(y) <= 1
    f = JUMP_AT_HALF
    candidates = [y for y in grid(-2, 3, 32) if f(y) <= 1]
    assert max(candidates) == Q(1, 2)
    assert right_inverse(f, 1) == Q(1, 2)


def test_right_inverse_empty_sublevel_set():
    f = pwfn.bounded([bp(0, 0), bp(1, 0)])
    assert right_inverse(f, -1) is NEG_INF


def test_right_inverse_unbounded_above():
    f = pwfn.on_reals([bp(0, 0)], 1, 0)  # constant 0 above 0
    assert right_inverse(f, 0) is POS_INF
    assert right_inverse(f, -2) == -2


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(-12, 12))
def test_right_inverse_galois_property(seed, num):
    f = gen_utility(seed, "uf-left").fn
    x = Q(num, 4)
    s = right_inverse(f, x)
    for y in grid(-5, 5, 4):
        if s is NEG_INF:
            assert f(y) > x
        elif s is POS_INF:
            assert f(y) <= x
        else:
            assert (f(y) <= x) == (y <= s)


# -- compose ----------------------------------------------------------------------


def test_compose_identity_laws():
    g = pwfn.step_open(Q(1, 2))
    assert compose(pwfn.identity(0, 1), g) == g
    assert compose(g, pwfn.identity(0, 1)) == g
    u = JUMP_AT_HALF
    assert compose(pwfn.identity(), u) == u
    assert compose(u, pwfn.identity()) == u


def test_compose_scaling_through_identity():
    f = pwfn.from_points([(0, 0), (1, 2)])
    assert compose(f, pwfn.identity(0, 1)) == f


def test_compose_step_with_identity_has_one_sided_jump():
    c = compose(pwfn.step_open(Q(1, 2)), pwfn.identity(0, 1))
    assert c.eval3(Q(1, 2)) == (0, 0, 1)
    # oracle: pointwise evaluation of f(g(x)) on a dense rational grid
    f, g = pwfn.step_open(Q(1, 2)), pwfn.identity(0, 1)
    for x in grid(0, 1, 16):
        assert c(x) == f(g(x))


def test_compose_jump_onto_jump_uses_one_sided_semantics():
    # outer jumps exactly where the inner jumps to
    outer = pwfn.on_reals([Breakpoint(Q(3, 2), Q(0), Q(0), Q(1))], 0, 0)
    c = compose(outer, JUMP_AT_HALF)
    # above 1/2 the inner exceeds 3/2 strictly, so the outer right limit applies
    assert c.eval3(Q(1, 2)) == (0, 0, 1)


def test_compose_with_flat_inner_takes_point_values():
    outer = pwfn.step_open(Q(1, 2))
    inner = pwfn.bounded([bp(0, Q(1, 2)), bp(1, Q(1, 2))])  # constant 1/2
    c = compose(outer, inner)
    assert c(0) == 0 and c(1) == 0
    assert c == pwfn.bounded([bp(0, 0), bp(1, 0)])


def test_compose_range_mismatch_raises():
    f = pwfn.identity(0, 1)
    g = pwfn.identity(0, 2)
    with pytest.raises(DomainError):
        compose(f, g)
    with pytest.raises(DomainError):
        compose(f, pwfn.identity())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_compose_associativity_on_utilities(seed):
    f = gen_utility(seed * 3 + 0, "uf-left").fn
    g = gen_utility(seed * 3 + 1, "uf").fn
    h = gen_utility(seed * 3 + 2, "uf-left").fn
    assert compose(f, compose(g, h)) == compose(compose(f, g), h)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_compose_associativity_on_distortions(seed):
    d1 = gen_distortion(seed * 3 + 0, "df").fn
    d2 = gen_distortion(seed * 3 + 1, "df").fn
    d3 = gen_distortion(seed * 3 + 2, "df").fn
    assert compose(d1, compose(d2, d3)) == compose(compose(d1, d2), d3)


def _extrapolated(f, g, y, step):
    """Limit of f(g(z)) as z -> y from the side of `step`, assuming f o g is
    affine between y and y + 2 * step."""
    return 2 * f(g(y + step)) - f(g(y + 2 * step))


def _kinks_of_composite(f, g, h):
    """Every abscissa where f o g may break: g's breakpoints, h's, and the
    preimages under g of f's breakpoints (found with `right_inverse`)."""
    points = {b.x for b in g.breakpoints} | {b.x for b in h.breakpoints}
    for b in f.breakpoints:
        y = right_inverse(g, b.x)
        if y not in (NEG_INF, POS_INF) and g.in_domain(y):
            points.add(y)
    return sorted(points)


@st.composite
def composable_pairs(draw):
    """(outer, inner) drawn from the generators of every kind at complexity
    1-14, with the inner range inside the outer domain."""
    outer = draw(st.sampled_from([k for k in KINDS if k != "cdf"]))
    inners = KINDS if outer not in DISTORTION_KINDS else DISTORTION_KINDS + ("cdf",)
    inner = draw(st.sampled_from(inners))
    seeds, levels = st.integers(0, 10**6), st.integers(1, 14)
    f = gen(draw(seeds), outer, draw(levels)).fn
    g = gen(draw(seeds), inner, draw(levels)).fn
    return f, g


@settings(max_examples=150, deadline=None)
@given(composable_pairs())
def test_compose_matches_pointwise_composition_oracle(pair):
    assert_matches_pointwise_composition(*pair)


def assert_matches_pointwise_composition(f, g):
    """compose(f, g) agrees with f(g(y)), read by `eval3`, at every possible
    kink, between kinks and beyond the ends."""
    h = compose(f, g)
    assert h.is_bounded == g.is_bounded
    if g.is_bounded:
        assert (h.lo, h.hi) == (g.lo, g.hi)
    points = _kinks_of_composite(f, g, h)
    for k, y in enumerate(points):
        if k > 0:
            left = _extrapolated(f, g, y, (points[k - 1] - y) / 3)
        elif g.is_bounded:
            left = f(g(y))
        else:
            left = _extrapolated(f, g, y, Q(-1))
        if k < len(points) - 1:
            right = _extrapolated(f, g, y, (points[k + 1] - y) / 3)
        elif g.is_bounded:
            right = f(g(y))
        else:
            right = _extrapolated(f, g, y, Q(1))
        assert h.eval3(y) == (left, f(g(y)), right), y
    probes = [(a + b) / 2 for a, b in zip(points, points[1:])]
    if not g.is_bounded:
        probes += [points[0] - 1, points[0] - 2, points[-1] + 1, points[-1] + 2]
    for y in probes:
        v = f(g(y))
        assert h.eval3(y) == (v, v, v), y


# The sweep reads f's triple at each one-sided value of g with one forward
# pointer; each case below puts that pointer where a bisect would not need care.
F_JUMPS = pwfn.on_reals([bp(0, 0), Breakpoint(Q(1), Q(1), Q(2), Q(3)), bp(2, 4)], 1, 1)


def test_compose_one_sided_values_on_outer_abscissas():
    # g jumps at 0 from 0 through 1 to 2: its left, at and right values are
    # each an abscissa of f
    g = pwfn.on_reals([Breakpoint(Q(0), Q(0), Q(1), Q(2))], 1, 1)
    h = compose(F_JUMPS, g)
    assert h.eval3(0) == (0, 2, 4)
    assert_matches_pointwise_composition(F_JUMPS, g)


def test_compose_flat_inner_pieces_hold_the_pointer():
    # flat lower tail, a flat piece on an abscissa of f, a flat piece between
    # abscissas, a jump out of a flat piece, and a flat upper tail
    g = pwfn.on_reals(
        [bp(0, 1), bp(1, 1), bp(2, Q(3, 2)), Breakpoint(Q(3), Q(3, 2), Q(3, 2), Q(2)), bp(4, 3)],
        0, 0,
    )
    assert_matches_pointwise_composition(F_JUMPS, g)
    assert_matches_pointwise_composition(F_JUMPS, pwfn.on_reals([bp(0, 1)], 0, 0))


def test_compose_inner_values_beyond_outer_breakpoints():
    f = pwfn.on_reals([bp(0, 0), bp(1, 2)], 1, 3)
    below_and_above = pwfn.on_reals(
        [bp(-1, -5), Breakpoint(Q(0), Q(-4), Q(-4), Q(7)), bp(1, 10)], 0, 0
    )
    rising_tails = pwfn.on_reals([bp(-1, -5), bp(1, 10)], 2, 1)
    for g in (below_and_above, rising_tails):
        assert_matches_pointwise_composition(f, g)
    assert compose(f, below_and_above).eval3(0) == (-4, -4, 20)


def test_compose_bounded_outer_at_its_endpoints():
    f = pwfn.from_points([(0, 0), (Q(1, 2), Q(1, 4)), (1, 1)])
    jumps_to_top = pwfn.bounded([bp(0, 0), Breakpoint(Q(1, 2), Q(0), Q(1), Q(1)), bp(1, 1)])
    for g in (jumps_to_top, pwfn.step_open(Q(1, 3)), pwfn.identity(0, 1)):
        assert_matches_pointwise_composition(f, g)
        assert_matches_pointwise_composition(pwfn.step_closed(Q(1, 2)), g)
    cdf = pwfn.on_reals([bp(0, 0, Q(1, 2), Q(1, 2)), bp(1, Q(1, 2), 1, 1)], 0, 0)
    assert_matches_pointwise_composition(f, cdf)


# -- strict_inverse ----------------------------------------------------------------


def test_strict_inverse_affine():
    f = pwfn.affine(2, 3)
    inv = strict_inverse(f)
    assert inv == pwfn.affine(Q(1, 2), Q(-3, 2))


def test_strict_inverse_piecewise_roundtrips():
    f = pwfn.from_points([(0, 0), (Q(1, 2), Q(1, 4)), (1, 1)])
    inv = strict_inverse(f)
    assert inv == pwfn.from_points([(0, 0), (Q(1, 4), Q(1, 2)), (1, 1)])
    assert compose(f, inv) == pwfn.identity(0, 1)
    assert compose(inv, f) == pwfn.identity(0, 1)


def test_strict_inverse_rejects_jumps_and_flats():
    with pytest.raises(NotInvertibleError):
        strict_inverse(pwfn.step_open(Q(1, 2)))
    with pytest.raises(NotInvertibleError):
        strict_inverse(pwfn.on_reals([bp(0, 0)], 0, 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_strict_inverse_roundtrips_on_generated(seed):
    f = gen_utility(seed, "uf-strict").fn
    inv = strict_inverse(f)
    assert compose(f, inv) == pwfn.identity()
    assert compose(inv, f) == pwfn.identity()


# -- classify -----------------------------------------------------------------------


def test_classify_identity_all_flags():
    c = classify(pwfn.identity(0, 1))
    assert c.strictly_increasing and c.continuous
    assert c.left_continuous and c.right_continuous and c.surjective


def test_classify_step():
    c = classify(pwfn.step_open(Q(1, 2)))
    assert c.left_continuous
    assert not c.continuous and not c.right_continuous and not c.strictly_increasing
    assert not c.surjective


def test_classify_jump_utility():
    c = classify(JUMP_AT_HALF)
    assert c.left_continuous
    assert not c.continuous
    assert c.strictly_increasing  # jumps do not break strictness
    assert not c.surjective


def test_classify_clamped_tails_not_surjective():
    c = classify(pwfn.on_reals([bp(0, 0)], 0, 1))
    assert c.continuous and not c.surjective and not c.strictly_increasing


# -- pseudo inverse ---------------------------------------------------------------


def test_pseudo_inverse_matches_right_inverse_pointwise():
    flat = pwfn.on_reals([bp(0, 0), bp(1, 0)], 1, 1)  # flat on [0, 1]
    pinv = pwfn.pseudo_inverse(flat)
    for x in grid(-3, 3, 8):
        assert pinv(x) == right_inverse(flat, x)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(-12, 12))
def test_pseudo_inverse_generated(seed, num):
    u = gen_utility(seed, "uf-strict").fn
    pinv = pwfn.pseudo_inverse(u)
    x = Q(num, 3)
    assert pinv(x) == right_inverse(u, x)


def pseudo_inverse_by_sup_walks(f: PiecewiseMonotone) -> PiecewiseMonotone:
    """pseudo_inverse's oracle: one breakpoint per triple value v of f, with
    the left limit sup{y : f(y) < v} and the value sup{y : f(y) <= v}, each
    read by its own backward sup-walk."""
    values = sorted({v for b in f.breakpoints for v in (b.left, b.at, b.right)})
    bps = []
    for v in values:
        at = right_inverse(f, v)
        bps.append(Breakpoint(v, _sup_walk(f, v, operator.lt), at, at))
    return pwfn.on_reals(bps, 1 / f.tails[0], 1 / f.tails[1])


# A flat stretch on [0, 1] ending in a jump of value 0 (left-continuous) or
# of value 1 (right-continuous), a jump at 0 whose right limit starts a flat
# stretch, and a jump at 3 whose value lies strictly between its limits.
PSEUDO_CASES = (
    pwfn.on_reals([bp(0, 0), Breakpoint(Q(1), Q(0), Q(0), Q(2)), bp(2, 3)], 1, 2),
    pwfn.on_reals([bp(0, 0), Breakpoint(Q(1), Q(0), Q(1), Q(1)), bp(2, 3)], 1, 2),
    pwfn.on_reals([Breakpoint(Q(0), Q(-1), Q(-1), Q(0)), bp(1, 0)], Q(1, 2), 1),
    pwfn.on_reals([bp(1, 1), Breakpoint(Q(3), Q(2), Q(5, 2), Q(4)), bp(4, 4)], 3, Q(1, 3)),
)


def assert_pseudo_inverse_matches_sup_walks(f):
    pinv = pwfn.pseudo_inverse(f)
    assert pinv == pseudo_inverse_by_sup_walks(f)
    for x in grid(-5, 5, 4):
        left, at, _ = pinv.eval3(x)
        assert at == right_inverse(f, x)
        assert left == _sup_walk(f, x, operator.lt)


def test_pseudo_inverse_on_flats_and_jumps_matches_sup_walks():
    for f in PSEUDO_CASES:
        assert_pseudo_inverse_matches_sup_walks(f)


def test_pseudo_inverse_on_generated_jumps_and_flats_matches_sup_walks():
    checked = 0
    for seed in range(60):
        for kind in ("uf", "uf-left"):
            f = gen_utility(seed, kind, complexity=8).fn
            if 0 in f.tails:
                continue
            assert_pseudo_inverse_matches_sup_walks(f)
            checked += 1
    assert checked >= 40


def test_pseudo_inverse_of_jumps_valued_anywhere_matches_sup_walks():
    # uf-any draws jumps valued at the left limit, at the right limit and
    # strictly inside, so the flip must map each breakpoint's left limit back
    checked = inside = 0
    for seed in range(60):
        f = gen_utility(seed, "uf-any", complexity=8).fn
        if 0 in f.tails:
            continue
        assert_pseudo_inverse_matches_sup_walks(f)
        checked += 1
        inside += any(b.left < b.at < b.right for b in f.breakpoints)
    assert checked >= 20 and inside >= 10


# -- exact affine reads -------------------------------------------------------

# Numerators and denominators up to 2**64, of either sign; compose's largest
# denominators on deep words reach 63 bits.
WIDE = 1 << 64
rationals = st.builds(Q, st.integers(-WIDE, WIDE), st.integers(1, WIDE))
small_rationals = st.builds(Q, st.integers(-40, 40), st.integers(1, 12))
values = rationals | small_rationals
slopes = st.one_of(values, st.integers(-5, 5), st.just(Q(0)))


def same_fraction(got, want):
    return type(got) is Q and (got.numerator, got.denominator) == (want.numerator, want.denominator)


@settings(max_examples=150, deadline=None)
@given(values, slopes, values, st.none() | values)
def test_on_line_matches_fraction_arithmetic(y0, s, x0, x):
    x = x0 if x is None else x  # None draws the anchor itself
    got = _on_line(y0, s, x0, x)
    assert same_fraction(got, y0 + s * (x - x0))
    if x == x0 or s == 0:
        assert got == y0


@settings(max_examples=150, deadline=None)
@given(values, values, values, values, st.none() | values, st.booleans())
def test_interp_matches_fraction_arithmetic(x0, x1, y0, y1, x, flat):
    if x0 == x1:
        x1 = x0 + 1
    y1 = y0 if flat else y1
    x = x0 if x is None else x  # None draws the first end itself
    got = _interp(x0, y0, x1, y1, x)
    assert same_fraction(got, y0 + (y1 - y0) * (x - x0) / (x1 - x0))
    if flat:
        assert got is y0
    if x == x0:
        assert got == y0
    if y0 != y1:  # the same line read with its axes swapped: the preimage of got is x
        assert same_fraction(_interp(y0, x0, y1, x1, got), x)


# -- exact comparisons ----------------------------------------------------------


def test_fraction_stores_normalised_integers():
    # _eq and _lt read these slots: lowest terms, with the sign on the numerator
    q = Q(6, -4)
    assert (q._numerator, q._denominator) == (-3, 2)
    assert (Q(0, -7)._numerator, Q(0, -7)._denominator) == (0, 1)
    assert (Q(-8)._numerator, Q(-8)._denominator) == (-8, 1)


compared = values | st.integers(-3, 3).map(Q)


@settings(max_examples=300, deadline=None)
@given(compared, compared, st.integers(-WIDE, WIDE).filter(bool))
def test_eq_and_lt_match_fraction_comparisons(a, b, k):
    twin = Q(a.numerator * k, a.denominator * k)  # a's value, held as another object
    assert twin is not a
    for x, y in ((a, b), (b, a), (a, twin), (twin, a), (a, a)):
        assert _eq(x, y) == (x == y)
        assert _lt(x, y) == (x < y)
        assert _le(x, y) == (x <= y)
        assert _ne(x, y) == (x != y)
