"""The benchmark tracer finds dtlab's functions by name.

`perfbench/tracer.py` wraps each (module, attribute) it lists and counts
calls per code object, so every listed name must resolve to a function
defined under that name, and no two names may share one code object.
"""

import importlib.util
import inspect
from pathlib import Path

import dtlab
import dtlab.cli
import dtlab.dist
import dtlab.lab
import dtlab.pwfn
import dtlab.transform

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def test_every_traced_name_is_its_own_function():
    codes = set()
    entries = _wrapped()
    for modname, attr, _, _ in entries:
        owner = getattr(dtlab, modname)
        *cls, name = attr.split(".")
        if cls:
            fn = getattr(owner, cls[0]).__dict__[name]
        else:
            fn = vars(owner)[name]
        assert inspect.isfunction(fn), attr
        assert fn.__module__ == f"dtlab.{modname}" and fn.__code__.co_name == name, attr
        codes.add(fn.__code__)
    assert len(codes) == len(entries)
