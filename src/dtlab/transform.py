"""The transform algebra on distributions.

Two primitive families act on cdfs: reweighting the cumulative probability
through an increasing map of [0, 1] (a distortion), and pushing the
underlying outcome through an increasing map of the reals (a utility
pushforward).  Words over the primitives evaluate right to left; admissible
words collapse to the normal shape distort-after-push.  Everything is exact.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Callable, Union

from . import pwfn
from .dist import Cdf, mean
from .errors import ClassError, LevelError, NormalFormError, NotInvertibleError
from .pwfn import (
    Classification, PiecewiseMonotone, _canonical, _eq, _lt, _on_line, _put, _triple, classify, rat,
)


@dataclass(frozen=True)
class Distortion:
    """Increasing map of [0, 1] onto itself fixing both endpoints."""

    fn: PiecewiseMonotone
    cls: Classification = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        f = self.fn
        first, last = f.breakpoints[0], f.breakpoints[-1]
        # 0 and 1 read on the normalised integers: p/q == 1 exactly when p == q
        if not f.is_bounded or first.x._numerator != 0 or last.x._numerator != last.x._denominator:
            raise ClassError("a distortion is defined on [0, 1]")
        if first.at._numerator != 0 or last.at._numerator != last.at._denominator:
            raise ClassError("a distortion fixes 0 and 1")
        object.__setattr__(self, "cls", classify(f))

    def __call__(self, t) -> Fraction:
        return self.fn(t)


@dataclass(frozen=True)
class Utility:
    """Increasing map of the reals, with linear tails."""

    fn: PiecewiseMonotone
    cls: Classification = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.fn.is_bounded:
            raise ClassError("a utility is defined on all reals")
        object.__setattr__(self, "cls", classify(self.fn))

    def __call__(self, x) -> Fraction:
        return self.fn(x)


def identity_distortion() -> Distortion:
    return Distortion(pwfn.identity(0, 1))


def identity_utility() -> Utility:
    return Utility(pwfn.identity())


def affine_utility(slope, intercept) -> Utility:
    return Utility(pwfn.affine(slope, intercept))


@dataclass(frozen=True)
class Distort:
    d: Distortion


@dataclass(frozen=True)
class Push:
    u: Utility


Primitive = Union[Distort, Push]


@dataclass(frozen=True)
class TransformWord:
    """Finite composition of primitives, applied right to left."""

    steps: tuple[Primitive, ...] = ()

    def __call__(self, F: Cdf) -> Cdf:
        return apply_word(self, F)


@dataclass(frozen=True)
class RduForm:
    """Collapsed shape of an admissible word: push by u, then distort by d."""

    d: Distortion
    u: Utility

    def __call__(self, F: Cdf) -> Cdf:
        return apply_distortion(self.d, apply_utility(self.u, F))

    def as_word(self) -> TransformWord:
        return TransformWord((Distort(self.d), Push(self.u)))


Transform = Callable[[Cdf], Cdf]


# -- primitive actions -------------------------------------------------------


def apply_distortion(d: Distortion, F: Cdf) -> Cdf:
    """Right limit of d composed with the cdf, as a canonical cdf.

    The right limit is read off the breakpoint triples, never approximated;
    the result is right-continuous by construction even when d is not, and
    its support stays inside F's support.
    """
    return Cdf(pwfn.compose(d.fn, F.fn, right_limits=True))


def apply_utility(u: Utility, F: Cdf) -> Cdf:
    """Distribution of u(X) when X is distributed by F, computed exactly.

    F's graph is carried through u: at each abscissa x of F, and of u inside
    F's support, the result reaches F(x-) at u(x-), F(x) at u(x) and holds
    it up to u(x+).  Between those points both are affine, so a flat piece
    of u merges its ends into an atom and the gap of a jump gets no mass.
    One walk merges F's abscissas with u's; both indices only move forward.
    """
    f, g = F.fn, u.fn
    fbps, gbps, gxs = f.breakpoints, g.breakpoints, g._xs
    out = []
    j, m = bisect_left(gxs, f.lo), len(gxs)  # u's abscissas before j are read
    for i, b in enumerate(fbps):
        if i:  # u's abscissas strictly inside F's stretch before b, where F is continuous
            a, s = fbps[i - 1], f._slopes[i - 1]
            while j < m and _lt(gxs[j], b.x):
                c = gbps[j]
                v = _on_line(a.right, s, a.x, c.x)
                _put(out, c.left, v, v)
                if not _eq(c.right, c.left):
                    _put(out, c.right, v, v)
                j += 1
        j, (ul, ua, ur) = _triple(g, j, b.x)
        if j < m and _eq(gxs[j], b.x):
            j += 1  # u's breakpoint at b is read; the next stretch starts past it
        if _eq(ul, ur):
            _put(out, ul, b.left, b.at)
        else:
            _put(out, ul, b.left, b.left)
            _put(out, ua, b.left, b.at)
            _put(out, ur, b.at, b.at)
    return Cdf(_canonical(tuple(out), (Fraction(0), Fraction(0))))


def apply_word(word: TransformWord, F: Cdf) -> Cdf:
    """Apply the primitives right to left; the empty word is the identity."""
    for step in reversed(word.steps):
        if isinstance(step, Distort):
            F = apply_distortion(step.d, F)
        else:
            F = apply_utility(step.u, F)
    return F


# -- composition and normal form ---------------------------------------------


def compose_utilities(u1: Utility, u2: Utility) -> Utility:
    """u1 o u2; pushing forward by it equals pushing by u2 then u1."""
    return Utility(pwfn.compose(u1.fn, u2.fn))


def compose_distortions(d2: Distortion, d1: Distortion) -> Distortion:
    """d2 o d1; applying it equals applying d1 then d2, for any d1 and d2 (see `normal_form`)."""
    return Distortion(pwfn.compose(d2.fn, d1.fn))


def _collapse(steps) -> tuple[PiecewiseMonotone, PiecewiseMonotone] | None:
    """The raw (d, u) pair of a word's normal form, or None when some push
    cannot move past the distortions to its right; see `normal_form`."""
    right, rc = [], True  # the distortions to the right, nearest last; whether all are rc
    for step in reversed(steps):
        if isinstance(step, Distort):
            right.append(step.d.fn)
            rc = rc and step.d.cls.right_continuous
        elif right and not (step.u.cls.continuous or step.u.cls.left_continuous and (
                rc or classify(reduce(pwfn.compose, reversed(right))).right_continuous)):
            return None
    us = [s.u.fn for s in steps if isinstance(s, Push)]
    return (reduce(pwfn.compose, right[::-1]) if right else pwfn.identity(0, 1),
            reduce(pwfn.compose, us) if us else pwfn.identity())


def normal_form(word: TransformWord) -> RduForm:
    """Collapse an admissible word to a single distort-after-push shape.

    Admissible means that each pushforward can move right past the
    distortions to its right: u is continuous (so it commutes with every
    distortion), or u is left-continuous and the composition of those
    distortions is right-continuous (the pairing law; by the collapse below
    they act as that one distortion).  A push with no distortion to its
    right never moves.  Otherwise `NormalFormError` is raised.

    Once the pushes have moved, every run of distortions collapses to its
    pointwise composition, whatever their continuity.  `apply_distortion(d,
    F)` is the right limit (d o F)+.  Fix x: on some (x, x + e) the cdf F is
    affine, so it is constant there or rises continuously from F(x).  d1 is
    affine just above F(x), so h = d1 o F is continuous on (x, x + e) and
    (d1 o F)+ = h there.  Hence (d2 o (d1 o F)+)+(x) and ((d2 o d1) o F)+(x)
    are both the limit of d2(h(y)) as y falls to x, for every d1 and d2.
    """
    pair = _collapse(word.steps)
    if pair is None:
        raise NormalFormError("a pushforward cannot move past the distortions to its right")
    return RduForm(Distortion(pair[0]), Utility(pair[1]))


# -- conjugation --------------------------------------------------------------


def conjugate_utility(u1: Utility, u2: Utility) -> Utility:
    """The unique u3 with u3 o u1 = u1 o u2, namely u1 o u2 o u1^{-1}.

    u1 must be strictly increasing, continuous and onto the reals.
    """
    if not (u1.cls.strictly_increasing and u1.cls.surjective):
        raise NotInvertibleError("conjugating utility must be a strict surjection")
    inv = pwfn.strict_inverse(u1.fn)
    return Utility(pwfn.compose(u1.fn, pwfn.compose(u2.fn, inv)))


def conjugate_distortion(d: Distortion, d1: Distortion) -> Distortion:
    """The unique d2 with d2 o d = d o d1, namely d o d1 o d^{-1}.

    d must be strictly increasing and continuous (hence a bijection of
    [0, 1]); d1 may be any distortion.  Swapping arguments to the inverse
    direction is ``conjugate_distortion(inverse_distortion(d), d1)``.
    """
    if not (d.cls.strictly_increasing and d.cls.continuous):
        raise NotInvertibleError("conjugating distortion must be a continuous bijection")
    inv = pwfn.strict_inverse(d.fn)
    return Distortion(pwfn.compose(d.fn, pwfn.compose(d1.fn, inv)))


def inverse_distortion(d: Distortion) -> Distortion:
    if not (d.cls.strictly_increasing and d.cls.continuous):
        raise NotInvertibleError("distortion is not invertible")
    return Distortion(pwfn.strict_inverse(d.fn))


# -- functionals and risk measures --------------------------------------------


def expected_utility(u: Utility, F: Cdf) -> Fraction:
    """Mean of the pushforward: the integral of u against F."""
    return mean(apply_utility(u, F))


def dual_utility(d: Distortion, F: Cdf) -> Fraction:
    """Mean of the distorted distribution."""
    return mean(apply_distortion(d, F))


def rank_dependent_value(d: Distortion, u: Utility, F: Cdf) -> Fraction:
    """Mean after pushing through u and distorting by d."""
    return mean(apply_distortion(d, apply_utility(u, F)))


def var_distortion(p) -> Distortion:
    return Distortion(pwfn.step_open(p))


def es_distortion(alpha) -> Distortion:
    """t -> max(0, (t - (1 - alpha)) / alpha) on [0, 1]."""
    alpha = rat(alpha)
    if alpha == 1:
        return identity_distortion()
    return Distortion(pwfn.from_points([(0, 0), (1 - alpha, 0), (1, 1)]))


def value_at_risk(p, F: Cdf) -> Fraction:
    """Upper quantile at level p, computed as a distorted mean."""
    p = rat(p)
    if not 0 < p < 1:
        raise LevelError(f"value-at-risk level must be in (0, 1), got {p}")
    return dual_utility(var_distortion(p), F)


def expected_shortfall(alpha, F: Cdf) -> Fraction:
    """Average of the upper alpha tail of the quantile function."""
    alpha = rat(alpha)
    if not 0 < alpha <= 1:
        raise LevelError(f"expected-shortfall level must be in (0, 1], got {alpha}")
    return dual_utility(es_distortion(alpha), F)
