"""Tracer coverage self-check.

Run with ``python3 -m pytest perfbench``.  On a short run of each workload,
every wrapped function's traced call count must equal cProfile's count for
the same code, so a call that reaches a function through a name the tracer
did not rebind shows up as an undercount.
"""

import cProfile
import pstats
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, import_dtlab  # noqa: E402

SRC = str(HERE.parent / "src")
ITEMS = {"setcommute": 2, "lawfuzz": 15, "deepwords": 2, "cli": 24}


def profiled_calls(prof: cProfile.Profile) -> dict:
    return {(f, line): nc for (f, line, _), (_, nc, *_) in pstats.Stats(prof).stats.items()}


def untraced(tracer: Tracer, ncalls: dict) -> dict:
    """Wrapped functions whose cProfile count differs from the traced count."""
    out = {}
    for code, traced in tracer.fn_calls.items():
        profiled = ncalls.get((code.co_filename, code.co_firstlineno), 0)
        if profiled != traced:
            out[code.co_name] = (traced, profiled)
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_calls_equal_profiled_calls(name):
    dt = import_dtlab(SRC)
    wl = WORKLOADS[name](dt, 1)
    if hasattr(wl, "prepare"):
        wl.prepare()
    tracer, prof = Tracer(), cProfile.Profile()
    tracer.install(dt)
    try:
        prof.enable()
        for i in range(ITEMS[name]):
            tracer.item = i
            ok, text = wl.check(i, wl.item(i))
            assert ok, text
        prof.disable()
    finally:
        tracer.uninstall()
    assert sum(tracer.fn_calls.values()) > 0
    assert untraced(tracer, profiled_calls(prof)) == {}


def test_a_missed_binding_shows_as_an_undercount():
    dt = import_dtlab(SRC)
    make = dt.dist.make  # a reference taken before the tracer rebinds the name
    tracer, prof = Tracer(), cProfile.Profile()
    tracer.install(dt)
    try:
        prof.enable()
        make([dt.dist.atom(0, 1)])
        dt.dist.bernoulli(dt.pwfn.rat("1/2"))
        prof.disable()
    finally:
        tracer.uninstall()
    assert untraced(tracer, profiled_calls(prof)) == {"make": (1, 2)}


def test_uninstall_restores_every_binding():
    dt = import_dtlab(SRC)
    before = {name: dict(vars(getattr(dt, name))) for name in ("pwfn", "dist", "transform", "lab", "cli")}
    eval3 = dt.pwfn.PiecewiseMonotone.__dict__["eval3"]
    tracer = Tracer()
    tracer.install(dt)
    assert dt.dist.make is not before["dist"]["make"]
    tracer.uninstall()
    for name, attrs in before.items():
        assert dict(vars(getattr(dt, name))) == attrs
    assert dt.pwfn.PiecewiseMonotone.__dict__["eval3"] is eval3
