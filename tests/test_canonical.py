"""Every kernel output is canonical.

The kernels (`compose`, `strict_inverse`, `pseudo_inverse`, `make`,
`apply_distortion`, `apply_utility`, `normal_form`) build their breakpoints
in order and hand them to the canonicaliser without the constructor's
checks.  This sweep rebuilds each output through the validating
`PiecewiseMonotone(bps, tails)`, checks with `Fraction` arithmetic that no
kept breakpoint could be dropped, and puts dropped breakpoints back in to
see `_canonical` take them out again.
"""

from fractions import Fraction

import pytest

from dtlab.dist import decompose, make
from dtlab.lab import DISTORTION_KINDS, KINDS, UTILITY_KINDS, gen, gen_admissible_word
from dtlab.pwfn import (
    Breakpoint, PiecewiseMonotone, _canonical, compose, pseudo_inverse, strict_inverse,
)
from dtlab.transform import apply_distortion, apply_utility, normal_form


def assert_canonical(f):
    assert PiecewiseMonotone(f.breakpoints, f.tails) == f
    bps = f.breakpoints
    assert f._xs == tuple(b.x for b in bps)
    # the slopes either side of each breakpoint, by Fraction operators; None
    # past the ends of a bounded domain, the tails past those of the reals
    ends = (None, None) if f.tails is None else f.tails
    sides = [ends[0], *((c.left - a.right) / (c.x - a.x) for a, c in zip(bps, bps[1:])), ends[1]]
    for i, b in enumerate(bps):
        s, t = sides[i], sides[i + 1]
        droppable = b.left == b.at == b.right and None not in (s, t) and s == t
        # but a pure affine function keeps one breakpoint, anchored at 0
        assert not droppable or len(bps) == 1 and b.x == 0


def with_midpoints(f):
    """f's breakpoints with a continuous breakpoint put in at the midpoint of each segment."""
    bps = f.breakpoints
    out = [bps[0]]
    for a, c in zip(bps, bps[1:]):
        v = (a.right + c.left) / 2
        out += [Breakpoint((a.x + c.x) / 2, v, v, v), c]
    return tuple(out)


def kernel_outputs(seed, level):
    values = {kind: gen(seed, kind, level) for kind in KINDS}
    F = values["cdf"]
    atoms, segs = decompose(F)
    yield make([*segs, *atoms]).fn
    for outer in DISTORTION_KINDS + UTILITY_KINDS:
        inners = KINDS if outer in UTILITY_KINDS else DISTORTION_KINDS + ("cdf",)
        for inner in inners:
            yield compose(values[outer].fn, values[inner].fn)
    for kind in DISTORTION_KINDS:
        yield apply_distortion(values[kind], F).fn
    for kind in UTILITY_KINDS:
        u = values[kind].fn
        yield apply_utility(values[kind], F).fn
        if 0 not in u.tails:
            yield pseudo_inverse(u)
    yield strict_inverse(values["df-strict"].fn)
    yield strict_inverse(values["uf-strict"].fn)
    form = normal_form(gen_admissible_word(seed * 16 + level, max_len=8))
    yield form.d.fn
    yield form.u.fn


@pytest.mark.parametrize("level", range(1, 16))
def test_kernel_outputs_are_canonical(level):
    for seed in range(3):
        for f in kernel_outputs(seed, level):
            assert_canonical(f)


@pytest.mark.parametrize("level", range(1, 16, 2))
def test_canonical_drops_the_midpoints_of_segments(level):
    for seed in range(3):
        for f in kernel_outputs(seed, level):
            assert _canonical(with_midpoints(f), f.tails) == f


def test_kernel_outputs_store_only_fractions():
    # `pwfn._eq` and `pwfn._lt` read every stored value's integers
    for level in range(1, 16):
        for f in kernel_outputs(0, level):
            values = [v for b in f.breakpoints for v in (b.x, b.left, b.at, b.right)]
            assert all(type(v) is Fraction for v in values + list(f.tails or ()))
