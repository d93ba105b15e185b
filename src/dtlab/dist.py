"""Compactly supported distributions on the reals, stored as exact cdfs.

A distribution is a right-continuous increasing step-and-ramp function from
0 to 1: point masses are jumps, uniform stretches are affine ramps.  The
representation is canonical, so two equal distributions compare equal
structurally, and the atom/segment decomposition is recoverable exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import LevelError, SpecError
from .pwfn import (
    Breakpoint, PiecewiseMonotone, _canonical, _eq, _first_where, _le, _lt, _merged, _ne, _sup_walk, rat,
)


@dataclass(frozen=True)
class Cdf:
    """Canonical cdf of a compactly supported distribution."""

    fn: PiecewiseMonotone

    def __post_init__(self):
        f = self.fn  # its stored values are Fractions: 0 has numerator 0, 1 has n == d
        if f.is_bounded or f.tails[0]._numerator or f.tails[1]._numerator:
            raise SpecError("a cdf lives on the reals with flat tails")
        lo, hi = f.breakpoints[0].left, f.breakpoints[-1].right
        if lo._numerator or hi._numerator != hi._denominator:
            raise SpecError("a cdf must rise from 0 to 1")
        if not all(_eq(b.at, b.right) for b in f.breakpoints):
            raise SpecError("a cdf must be right-continuous")

    @property
    def support(self) -> tuple[Fraction, Fraction]:
        """Smallest closed interval carrying all the mass."""
        return self.fn.lo, self.fn.hi

    def __call__(self, x) -> Fraction:
        return self.fn(x)

    def eval3(self, x) -> tuple[Fraction, Fraction, Fraction]:
        return self.fn.eval3(x)


# -- components and constructors --------------------------------------------


@dataclass(frozen=True)
class Atom:
    x: Fraction
    w: Fraction


@dataclass(frozen=True)
class Uniform:
    a: Fraction
    b: Fraction
    w: Fraction


def atom(x, w) -> Atom:
    return Atom(rat(x), rat(w))


def unif(a, b, w) -> Uniform:
    return Uniform(rat(a), rat(b), rat(w))


Component = Atom | Uniform


def make(components: Iterable[Component]) -> Cdf:
    """Canonical cdf of a mixture of point masses and uniform stretches.

    Weights must be positive and sum to one; coincident atoms merge and
    overlapping uniforms stack.  Every field passes through `rat`, so a
    float raises `ParseError`.
    """
    comps = [atom(c.x, c.w) if isinstance(c, Atom) else unif(c.a, c.b, c.w) for c in components]
    total = Fraction(0)
    atoms: dict[Fraction, Fraction] = {}
    steps: dict[Fraction, Fraction] = {}  # change of the density at each end of a uniform
    for c in comps:
        if c.w <= 0:
            raise SpecError(f"component weight {c.w} is not positive")
        total += c.w
        if isinstance(c, Atom):
            atoms[c.x] = atoms.get(c.x, Fraction(0)) + c.w
        else:
            if c.a >= c.b:
                raise SpecError(f"uniform needs a < b, got [{c.a}, {c.b}]")
            d = c.w / (c.b - c.a)
            steps[c.a] = steps.get(c.a, 0) + d
            steps[c.b] = steps.get(c.b, 0) - d
    if total != 1:
        raise SpecError(f"weights sum to {total}, not 1")

    # One sorted pass: `mass` is the mass below x, `density` the density just below x.
    bps = []
    mass = density = Fraction(0)
    prev = None
    for x in sorted(atoms.keys() | steps.keys()):
        if density:
            mass += density * (x - prev)
        at = mass + atoms.get(x, 0)
        bps.append(Breakpoint(x, mass, at, at))
        mass, density, prev = at, density + steps.get(x, 0), x
    return Cdf(_canonical(tuple(bps), (Fraction(0), Fraction(0))))


def dirac(x) -> Cdf:
    return make([atom(x, 1)])


def bernoulli(p) -> Cdf:
    """Mass p at 1 and the rest at 0; degenerate at p = 0 or 1."""
    p = rat(p)
    if not 0 <= p <= 1:
        raise SpecError("bernoulli parameter must lie in [0, 1]")
    if p == 0:
        return dirac(0)
    if p == 1:
        return dirac(1)
    return make([atom(0, 1 - p), atom(1, p)])


def uniform(a, b) -> Cdf:
    return make([unif(a, b, 1)])


def two_point(alpha, y, z) -> Cdf:
    """Mass alpha at y and 1 - alpha at z."""
    alpha = rat(alpha)
    return make([atom(y, alpha), atom(z, 1 - alpha)])


def decompose(F: Cdf) -> tuple[list[Atom], list[Uniform]]:
    """Split a canonical cdf back into its atoms and uniform stretches."""
    bps = F.fn.breakpoints
    atoms = [Atom(b.x, b.at - b.left) for b in bps if _lt(b.left, b.at)]
    segs = [
        Uniform(a.x, b.x, b.left - a.right)
        for a, b in zip(bps, bps[1:])
        if _lt(a.right, b.left)
    ]
    return atoms, segs


# -- quantiles ---------------------------------------------------------------


def left_quantile(F: Cdf, t) -> Fraction:
    """inf{x : F(x) >= t} for t in (0, 1]; always attained.

    Computed as sup{x : F(x) < t}, the same set boundary.
    """
    t = rat(t)
    if not 0 < t._numerator <= t._denominator:  # 0 < t <= 1 on t's integers
        raise LevelError(f"left quantile level must be in (0, 1], got {t}")
    return _sup_walk(F.fn, t, _lt)


def right_quantile(F: Cdf, t) -> Fraction:
    """inf{x : F(x) > t} for t in [0, 1), computed as sup{x : F(x) <= t}."""
    t = rat(t)
    if not 0 <= t._numerator < t._denominator:  # 0 <= t < 1 on t's integers
        raise LevelError(f"right quantile level must be in [0, 1), got {t}")
    return _sup_walk(F.fn, t, _le)


# -- order, moments, equality ------------------------------------------------


def merged_abscissas(F: Cdf, G: Cdf) -> list[Fraction]:
    """The union of both cdfs' abscissas, ascending."""
    return _merged(F.fn._xs, G.fn._xs)


def leq_st(F: Cdf, G: Cdf) -> bool:
    """First-order stochastic dominance: F everywhere at least as high as G.

    Decided exactly by comparing the two piecewise representations,
    including one-sided limits, on the merged breakpoint set.
    """
    return _first_where(_lt, F.fn, G.fn, merged_abscissas(F, G)) is None


def first_dominance_failure(F: Cdf, G: Cdf):
    """Smallest merged breakpoint where F dips below G, or None."""
    return _first_where(_lt, F.fn, G.fn, merged_abscissas(F, G))


def equals(F: Cdf, G: Cdf) -> bool:
    """Pointwise equality of cdfs, including all one-sided limits."""
    return F.fn == G.fn


def first_difference(F: Cdf, G: Cdf):
    """Smallest merged breakpoint where two cdfs differ: (x, F-val, G-val).

    Returns None exactly when the cdfs are equal.
    """
    return _first_where(_ne, F.fn, G.fn, merged_abscissas(F, G))


def mean(F: Cdf) -> Fraction:
    """Exact first moment: atoms weigh their location, ramps their midpoint."""
    atoms, segs = decompose(F)
    m = sum((a.x * a.w for a in atoms), Fraction(0))
    m += sum((s.w * (s.a + s.b) / 2 for s in segs), Fraction(0))
    return m
