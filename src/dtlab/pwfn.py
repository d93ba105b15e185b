"""Exact calculus of increasing piecewise-linear functions with jumps.

Every value is a `fractions.Fraction`; nothing is ever rounded.  A function
is stored as a strictly x-sorted list of breakpoints, each carrying the
triple (limit from below, value, limit from above), with affine segments
joining the right limit of one breakpoint to the left limit of the next.
The domain is either a closed interval (breakpoints mark its ends) or all
of the reals, in which case the function continues past the extreme
breakpoints with linear tails of nonnegative slope.

Construction always canonicalises: breakpoints that sit on the interior of
an affine stretch and carry no jump are dropped, so two representations of
the same function compare equal with plain ``==``.  The constructor makes
every stored value a `Fraction`, so the kernels compare stored values on
their integers (`_eq`, `_lt`).
"""

from __future__ import annotations

import math
import operator
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import DomainError, NotInvertibleError, ParseError


_RAT_TEXT = re.compile(r"-?[0-9]+(/[0-9]+)?")


def rat(value) -> Fraction:
    """Coerce ints and strings like ``"3/4"`` to an exact rational.

    Floats are refused, since most decimal fractions have no exact binary
    value.  Strings must be an integer or ``p/q`` (no decimals, exponents or
    spaces); other text and zero denominators raise `ParseError`.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise ParseError(f"{value!r} is a float; write it as an integer or p/q")
    if isinstance(value, str) and not _RAT_TEXT.fullmatch(value):
        raise ParseError(f"{value!r} is not a rational; write it as an integer or p/q")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{value!r} is not a rational") from None


def format_rat(q: Fraction) -> str:
    """Serialize as an integer literal or ``p/q``."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


NEG_INF = -math.inf
POS_INF = math.inf
_ZERO = Fraction(0)


def _eq(a: Fraction, b: Fraction) -> bool:
    """a == b for two Fractions: being normalised, they are equal exactly when
    their numerators and their denominators are."""
    return a is b or (a._numerator == b._numerator and a._denominator == b._denominator)


def _lt(a: Fraction, b: Fraction) -> bool:
    """a < b for two Fractions, cross-multiplied over their positive denominators."""
    return a._numerator * b._denominator < b._numerator * a._denominator


ExtendedRat = Union[Fraction, float]


@dataclass(frozen=True, slots=True)
class Breakpoint:
    """One abscissa with its (left limit, value, right limit) triple."""

    x: Fraction
    left: Fraction
    at: Fraction
    right: Fraction


def bp(x, left, at=None, right=None) -> Breakpoint:
    """Breakpoint from rationals; ``bp(x, v)`` is the continuous point (v, v, v)."""
    x = rat(x)
    left = rat(left)
    at = left if at is None else rat(at)
    right = at if right is None else rat(right)
    return Breakpoint(x, left, at, right)


@dataclass(frozen=True, slots=True)
class PiecewiseMonotone:
    """Increasing piecewise-linear function with jumps, in canonical form.

    ``tails is None`` means the domain is the closed interval between the
    first and last breakpoint; otherwise the domain is all reals and
    ``tails`` holds the (lower, upper) linear slopes; ``_slopes[i]`` is the
    slope from breakpoint i to breakpoint i + 1.  The constructor checks its
    input with explicit raises; kernels, whose outputs are ordered by
    construction, call `_canonical` directly.
    """

    breakpoints: tuple[Breakpoint, ...]
    tails: tuple[Fraction, Fraction] | None = None
    _xs: tuple[Fraction, ...] = field(
        init=False, repr=False, compare=False, hash=False, default=()
    )
    _slopes: tuple[Fraction, ...] = field(
        init=False, repr=False, compare=False, hash=False, default=()
    )

    def __post_init__(self):
        bps = tuple(  # every stored value a Fraction; floats raise ParseError
            b if type(b.x) is type(b.left) is type(b.at) is type(b.right) is Fraction
            else Breakpoint(rat(b.x), rat(b.left), rat(b.at), rat(b.right))
            for b in self.breakpoints
        )
        if not bps:
            raise ValueError("at least one breakpoint is required")
        for b in bps:
            if _lt(b.at, b.left) or _lt(b.right, b.at):
                raise ValueError(f"breakpoint triple out of order at x={b.x}")
        for a, c in zip(bps, bps[1:]):
            if not _lt(a.x, c.x):
                raise ValueError("breakpoint abscissas must be strictly increasing")
            if _lt(c.left, a.right):
                raise ValueError(f"function decreases between x={a.x} and x={c.x}")
        if self.tails is None:
            if len(bps) < 2:
                raise ValueError("a bounded domain needs breakpoints at both ends")
            if not (_eq(bps[0].left, bps[0].at) and _eq(bps[-1].at, bps[-1].right)):
                raise ValueError("endpoint limits must equal the endpoint values")
        else:
            lo, hi = map(rat, self.tails)
            if lo < 0 or hi < 0:
                raise ValueError("tail slopes must be nonnegative")
            object.__setattr__(self, "tails", (lo, hi))
        _canonical(bps, self.tails, self)

    # -- domain -----------------------------------------------------------

    @property
    def is_bounded(self) -> bool:
        return self.tails is None

    @property
    def lo(self) -> Fraction:
        return self.breakpoints[0].x

    @property
    def hi(self) -> Fraction:
        return self.breakpoints[-1].x

    def in_domain(self, x: Fraction) -> bool:
        return not self.is_bounded or self.lo <= x <= self.hi

    def value_bounds(self) -> tuple[ExtendedRat, ExtendedRat]:
        """Inf and sup of the function's values (closure of the range)."""
        first, last = self.breakpoints[0], self.breakpoints[-1]
        if self.is_bounded:
            return first.at, last.at
        lo = NEG_INF if self.tails[0]._numerator > 0 else first.left
        hi = POS_INF if self.tails[1]._numerator > 0 else last.right
        return lo, hi

    # -- evaluation -------------------------------------------------------

    def eval3(self, x) -> tuple[Fraction, Fraction, Fraction]:
        """The triple (f(x-), f(x), f(x+)), all read off symbolically.

        At the ends of a bounded domain the one-sided limit that points
        outside falls back to the endpoint value.
        """
        if type(x) is not Fraction:
            x = rat(x)
        return _triple(self, bisect_left(self._xs, x), x)[1]

    def __call__(self, x) -> Fraction:
        return self.eval3(x)[1]


def _canonical(bps: tuple[Breakpoint, ...], tails, into=None) -> PiecewiseMonotone:
    """The canonical function of ordered breakpoints, filled into ``into``
    (a new function when None).  Each segment's slope is computed once; a
    continuous breakpoint whose two neighbouring slopes agree is dropped
    (ends of a bounded domain stay), and each kept breakpoint but the last
    keeps the slope after it, which the dropped ones along it share.
    """
    slopes = [_slope(a, c) for a, c in zip(bps, bps[1:])]
    ends = (None, None) if tails is None else tails
    sides = [ends[0], *slopes, ends[1]]  # the slopes either side of bps[i]: sides[i], sides[i + 1]
    kept = [
        i for i, b in enumerate(bps)
        if (s := sides[i]) is None or (t := sides[i + 1]) is None or not _eq(s, t)
        or not (_eq(b.left, b.at) and _eq(b.at, b.right))
    ]
    if kept:
        keep = tuple(bps[i] for i in kept)
        slopes = tuple(slopes[i] for i in kept[:-1])
    else:
        # Pure affine function on the reals; anchor it at x = 0.
        v = _on_line(bps[0].at, tails[0], bps[0].x, _ZERO)
        keep, slopes = (Breakpoint(_ZERO, v, v, v),), ()
    f = object.__new__(PiecewiseMonotone) if into is None else into
    object.__setattr__(f, "breakpoints", keep)
    object.__setattr__(f, "tails", tails)
    object.__setattr__(f, "_xs", tuple(b.x for b in keep))
    object.__setattr__(f, "_slopes", slopes)
    return f


def _slope(a: Breakpoint, c: Breakpoint) -> Fraction:
    """Slope from a's right limit to c's left limit, normalised once rather
    than after each of the three Fraction operations that spell it."""
    y0, y1, x0, x1 = a.right, c.left, a.x, c.x
    y0d, y1d = y0._denominator, y1._denominator
    dy = y1._numerator * y0d - y0._numerator * y1d
    if not dy:
        return _ZERO
    x0d, x1d = x0._denominator, x1._denominator
    return Fraction(dy * x0d * x1d, (x1._numerator * x0d - x0._numerator * x1d) * y0d * y1d)


def _on_line(y0, s, x0, x) -> Fraction:
    """y0 + s * (x - x0) from integer numerators and denominators, normalised
    once; s may be an int."""
    yd, sd, xd, x0d = y0._denominator, s.denominator, x._denominator, x0._denominator
    den = sd * xd * x0d
    return Fraction(
        y0._numerator * den + yd * s.numerator * (x._numerator * x0d - x0._numerator * xd),
        yd * den,
    )


def _triple(f: PiecewiseMonotone, j: int, x: Fraction):
    """(i, (f(x-), f(x), f(x+))), where i is the index of f's first
    abscissa at or above x, found by walking forward from j."""
    bps, xs = f.breakpoints, f._xs
    m = len(xs)
    xn, xd = x._numerator, x._denominator
    while j < m and (y := xs[j]) is not x and y._numerator * xd < xn * y._denominator:
        j += 1
    if j < m and ((y := xs[j]) is x or y._numerator == xn and y._denominator == xd):
        b = bps[j]
        return j, (b.left, b.at, b.right)
    if f.is_bounded and j in (0, m):
        side = "below" if j == 0 else "above"
        raise DomainError(f"{x} is {side} the domain [{f.lo}, {f.hi}]")
    if j == 0:
        v = _on_line(bps[0].left, f.tails[0], xs[0], x)
    else:
        a = bps[j - 1]
        v = _on_line(a.right, f.tails[1] if j == m else f._slopes[j - 1], a.x, x)
    return j, (v, v, v)


# -- constructors ----------------------------------------------------------


def bounded(points: Iterable[Breakpoint | tuple]) -> PiecewiseMonotone:
    """Function on the closed interval spanned by the given breakpoints."""
    return PiecewiseMonotone(tuple(_as_bp(p) for p in points), None)


def on_reals(points: Iterable[Breakpoint | tuple], tail_lo, tail_hi) -> PiecewiseMonotone:
    """Function on all reals with the given linear tail slopes."""
    return PiecewiseMonotone(
        tuple(_as_bp(p) for p in points), (rat(tail_lo), rat(tail_hi))
    )


def _as_bp(p) -> Breakpoint:
    return p if isinstance(p, Breakpoint) else bp(*p)


def from_points(pairs: Sequence[tuple]) -> PiecewiseMonotone:
    """Continuous piecewise-linear interpolant through (x, y) pairs, on the
    bounded domain they span."""
    return bounded([bp(x, y) for x, y in pairs])


def identity(lo=None, hi=None) -> PiecewiseMonotone:
    """Identity on [lo, hi], or on all reals when no interval is given."""
    if lo is None:
        return affine(1, 0)
    return from_points([(lo, lo), (hi, hi)])


def affine(slope, intercept) -> PiecewiseMonotone:
    """x -> slope*x + intercept on the reals (slope >= 0)."""
    return on_reals([bp(0, intercept)], slope, slope)


def step_open(c) -> PiecewiseMonotone:
    """Indicator of (c, 1] on [0, 1]: 0 up to and at c, 1 strictly above."""
    return bounded([bp(0, 0), bp(c, 0, 0, 1), bp(1, 1)])


def step_closed(c) -> PiecewiseMonotone:
    """Indicator of [c, 1] on [0, 1]: jumps to 1 at c itself."""
    return bounded([bp(0, 0), bp(c, 0, 1, 1), bp(1, 1)])


# -- classification --------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    strictly_increasing: bool
    continuous: bool
    left_continuous: bool
    right_continuous: bool
    surjective: bool


def classify(f: PiecewiseMonotone) -> Classification:
    """Exact membership flags, decided from the representation alone.

    ``surjective`` means the range has no gaps and covers the hull implied
    by the domain: the whole real line for unbounded functions, the closed
    interval between the endpoint values otherwise.
    """
    bps = f.breakpoints
    continuous = all(b.left == b.at == b.right for b in bps)
    left_continuous = all(b.left == b.at for b in bps)
    right_continuous = all(b.at == b.right for b in bps)
    strictly = all(a.right < c.left for a, c in zip(bps, bps[1:]))
    if not f.is_bounded:
        strictly = strictly and f.tails[0] > 0 and f.tails[1] > 0
    surjective = continuous and (f.is_bounded or (f.tails[0] > 0 and f.tails[1] > 0))
    return Classification(
        strictly_increasing=strictly,
        continuous=continuous,
        left_continuous=left_continuous,
        right_continuous=right_continuous,
        surjective=surjective,
    )


# -- operations ------------------------------------------------------------


def right_inverse(f: PiecewiseMonotone, x) -> ExtendedRat:
    """sup{y : f(y) <= x}, with sup of the empty set being -inf.

    Total on the rationals; the result is exact: a breakpoint abscissa, a
    segment preimage, or `POS_INF` / `NEG_INF` (``math.inf`` / ``-math.inf``).
    """
    return _sup_walk(f, rat(x), operator.le)


def _sup_walk(f: PiecewiseMonotone, x: Fraction, op) -> ExtendedRat:
    """sup{y : op(f(y), x)} for op `operator.le` or `operator.lt`.

    Walks down from the upper tail through breakpoints and the segments
    between them; the sup of the empty set is `NEG_INF`.
    """
    bps = f.breakpoints
    last = bps[-1]
    if not f.is_bounded and op(last.right, x):
        s = f.tails[1]
        return POS_INF if s == 0 else last.x + (x - last.right) / s
    for i in range(len(bps) - 1, -1, -1):
        b = bps[i]
        if op(b.at, x):
            return b.x
        if i > 0:
            a = bps[i - 1]
            if op(a.right, x):
                if op(b.left, x):
                    return b.x
                return a.x + (x - a.right) / f._slopes[i - 1]
    if f.is_bounded:
        return NEG_INF
    b0 = bps[0]
    if op(b0.left, x):
        return b0.x
    s = f.tails[0]
    return NEG_INF if s == 0 else b0.x - (b0.left - x) / s


def _first_where(op, f, g, xs):
    """First (x, f-val, g-val) with op(f-val, g-val), or None.

    Walks the ascending abscissas forward through both functions and, at
    each, the value before the left and right limits of the triples.
    """
    i = j = 0
    for x in xs:
        i, ft = _triple(f, i, x)
        j, gt = _triple(g, j, x)
        for k in (1, 0, 2):
            if op(ft[k], gt[k]):
                return x, ft[k], gt[k]
    return None


def compose(
    f: PiecewiseMonotone, g: PiecewiseMonotone, right_limits: bool = False
) -> PiecewiseMonotone:
    """Canonical representation of f o g, built in one sweep along g.

    One-sided limits are composed symbolically: the right limit of f o g at
    a breakpoint x of g is f evaluated at g(x+), using f's own right limit
    there unless g is locally constant just above x.  Inside a rising
    segment or tail of g, f o g breaks only where g crosses an abscissa of
    f, and there it carries f's own triple.  The values of g only increase
    along the sweep, so one forward pointer into f's abscissas finds both.

    With ``right_limits`` each value is replaced by its right limit, which
    gives the right-continuous version of f o g.
    """
    glo, ghi = g.value_bounds()
    if f.is_bounded and (glo < f.lo or ghi > f.hi):
        raise DomainError("range of the inner function leaves the outer domain")
    gbps, gslopes = g.breakpoints, g._slopes
    n = len(gbps)
    s_lo, s_hi = (_ZERO, _ZERO) if g.is_bounded else g.tails
    out: list[Breakpoint] = []
    j = 0  # the abscissas of f before j are placed or passed
    flat_r = not s_lo._numerator  # whether g is flat on the piece before the next breakpoint
    for i, b in enumerate(gbps):
        flat_l = flat_r
        if not flat_l and i == 0:
            j = _preimages(out, f, j, b.x, b.left, s_lo, NEG_INF, b.left, right_limits)
        elif not flat_l:
            a = gbps[i - 1]
            j = _preimages(out, f, j, a.x, a.right, gslopes[i - 1], a.right, b.left, right_limits)
        flat_r = not (gslopes[i] if i < n - 1 else s_hi)._numerator
        j, fl = _triple(f, j, b.left)
        j, fa = (j, fl) if _eq(b.at, b.left) else _triple(f, j, b.at)
        j, fr = (j, fa) if _eq(b.right, b.at) else _triple(f, j, b.right)
        right = fr[1] if flat_r else fr[2]
        at = right if right_limits else fa[1]
        out.append(Breakpoint(b.x, fl[1] if flat_l else fl[0], at, right))
    if s_hi._numerator > 0:
        b = gbps[-1]
        _preimages(out, f, j, b.x, b.right, s_hi, b.right, POS_INF, right_limits)

    tails = None if g.is_bounded else tuple(
        f.tails[k] * s if s._numerator > 0 else _ZERO for k, s in enumerate(g.tails)
    )
    return _canonical(tuple(out), tails)


def _preimages(out, f, j, x0, v0, slope, lo_v, hi_v, right_limits) -> int:
    """Append f's breakpoints whose abscissa t lies strictly between lo_v
    and hi_v, each moved to x0 + (t - v0) / slope, its preimage under one
    rising piece of the inner function; return the index the walk of f's
    abscissas stopped at.

    The value ranges of successive rising pieces are disjoint and
    increasing, so the walk only moves forward.
    """
    fbps, fxs = f.breakpoints, f._xs
    m = len(fxs)
    if lo_v is not NEG_INF:
        while j < m and not _lt(lo_v, fxs[j]):
            j += 1
    inv = None  # 1 / slope, made at the first preimage
    while j < m and (hi_v is POS_INF or _lt(fxs[j], hi_v)):
        t = fbps[j]
        inv = inv or Fraction(slope.denominator, slope.numerator)
        at = t.right if right_limits else t.at
        out.append(Breakpoint(_on_line(x0, inv, v0, t.x), t.left, at, t.right))
        j += 1
    return j


def _put(out: list[Breakpoint], x: Fraction, left: Fraction, at: Fraction) -> None:
    """Append the right-continuous breakpoint (x: left, at, at) to the ascending
    ``out``; at x equal to the last abscissa, keep that one's left limit."""
    if out and _eq(out[-1].x, x):
        left = out.pop().left
    out.append(Breakpoint(x, left, at, at))


def _flip(f: PiecewiseMonotone, tails) -> PiecewiseMonotone:
    """f's graph reflected in the diagonal, right-continuous: each breakpoint's
    limits map back to its abscissa, so flats become jumps and jumps flats."""
    out: list[Breakpoint] = []
    for b in f.breakpoints:
        _put(out, b.left, b.x, b.x)
        _put(out, b.right, b.x, b.x)
    return _canonical(tuple(out), tails)


def strict_inverse(f: PiecewiseMonotone) -> PiecewiseMonotone:
    """Functional inverse of a strictly increasing continuous surjection.

    Round-trips exactly: composing either way yields the identity in
    canonical form.
    """
    c = classify(f)
    if not (c.strictly_increasing and c.continuous and c.surjective):
        raise NotInvertibleError(
            "only strictly increasing continuous surjections are invertible"
        )
    return _flip(f, None if f.is_bounded else (1 / f.tails[0], 1 / f.tails[1]))


def pseudo_inverse(f: PiecewiseMonotone) -> PiecewiseMonotone:
    """x -> sup{y : f(y) <= x} realised as a function on the reals.

    Requires both tail slopes positive so the supremum stays finite; flat
    stretches of f become jumps of the result and jumps become flats.
    """
    if f.is_bounded or f.tails[0] == 0 or f.tails[1] == 0:
        raise NotInvertibleError("pseudo-inverse needs positive tail slopes")
    return _flip(f, (1 / f.tails[0], 1 / f.tails[1]))
