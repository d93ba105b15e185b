"""The benchmark's tracer can wrap dtlab end to end and changes no result.

`perfbench/tracer.py` rebinds dtlab's functions from outside the package
to count and time them.  A traced set-commutation run must give the same
reports as an untraced one, reach the kernels the benchmark reports on,
and yield exactly the per-layer metrics `BENCHMARK.json` lists.
"""

import importlib.util
import json
import time
from pathlib import Path
from types import SimpleNamespace

from dtlab import cli, dist, lab, pwfn, transform

ROOT = Path(__file__).resolve().parents[1]


def _tracer_module():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _one_iteration_per_family(corpus):
    reports = [lab.fuzz_set_commute(family, 1, 1, corpus).report()
               for family in ("utilities", "distortions")]
    # Jumpy probes before a distortion that is not right-continuous keep this
    # check off the form shortcut, so its words are applied to corpus entries.
    form = transform.RduForm(lab.gen_distortion(0, "df"), lab.gen_utility(5, "uf-strict"))
    probes = [lab.gen_utility(7, "uf-left")]
    # The normal-form round trip applies an RduForm to corpus entries.
    return reports + [lab.set_commute_check(form, "utilities", probes, corpus).report(),
                      lab.fuzz_normal_form(1, 1, corpus).report()]


def test_traced_set_commutation_matches_untraced():
    corpus = lab.corpus_with_random(1, extra=1)
    untraced = _one_iteration_per_family(corpus)
    tracer = _tracer_module().Tracer()
    tracer.install(SimpleNamespace(pwfn=pwfn, dist=dist, transform=transform, lab=lab, cli=cli))
    try:
        t0 = time.perf_counter_ns()
        traced = _one_iteration_per_family(corpus)
        elapsed = time.perf_counter_ns() - t0
    finally:
        tracer.uninstall()
    assert all(report.startswith("PASS ") for report in untraced)
    assert traced == untraced
    calls = dict(zip(tracer.names, tracer.calls))
    assert calls["pwfn.compose"] > 0 and calls["transform.rdu_apply"] > 0
    metrics = tracer.metrics(2, elapsed, 1.0)
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) == {m["name"] for m in listed}
