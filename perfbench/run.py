"""dtlab benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload setcommute --seed 1 --seconds 30 --trace 0

Prints a readable report, then one JSON line with the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``), and writes a
result file under ``perfbench/results/``.  See ``perfbench/README.md``.

Load is one process with one closed-loop caller: the next item starts when
the previous one has returned.  Item times cover dtlab's work only; each
item's output is checked and hashed outside its timer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = str(ROOT / "src")
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, import_dtlab  # noqa: E402

SETUP_CHILDREN = 2  # set-ups in fresh processes, besides the run's own
TAIL_BEYOND = 10  # items the tail percentile leaves above it
TRACE_BASELINE_SHARE = 1 / 3  # of --seconds spent on the untraced pass of a traced run


def set_up(name: str, seed: int):
    """Import dtlab and build the workload's inputs; return it and the time taken."""
    t0 = time.perf_counter()
    dt = import_dtlab(SRC)
    wl = WORKLOADS[name](dt, seed)
    return wl, time.perf_counter() - t0


def child_setup_s(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Loop:
    """Runs items in order, timing each and checking its output."""

    def __init__(self, wl, expected: list[str] | None, tracer: Tracer | None = None):
        self.wl, self.expected, self.tracer = wl, expected, tracer
        self.times_ns: list[int] = []
        self.digests: list[str] = []
        self.failed = 0
        self._chain = hashlib.sha256()
        self.checkpoints: list[str] = []

    def run(self, seconds: float | None = None, count: int | None = None) -> None:
        deadline = time.perf_counter() + seconds if seconds is not None else None
        i = 0
        while count is None or i < count:
            if deadline is not None and i and time.perf_counter() >= deadline:
                break
            self.step(i)
            i += 1

    def step(self, i: int) -> None:
        wl, tr = self.wl, self.tracer
        if tr is not None:
            tr.item = i
        err = None
        t0 = time.perf_counter_ns()
        try:
            out = wl.item(i)
        except Exception:  # an item that raises is a failed item; the run goes on
            err = traceback.format_exc()
        t1 = time.perf_counter_ns()
        self.times_ns.append(t1 - t0)
        if err is None:
            ok, text = wl.check(i, out)
        else:
            ok, text = False, err
        digest = hashlib.sha256(text.encode()).hexdigest()
        cycle = wl.cycle
        if cycle and i >= cycle and digest != self.digests[i - cycle]:
            ok = False
        self.digests.append(digest)
        self._chain.update(digest.encode())
        if (i + 1) % wl.block == 0:
            chk = self._chain.hexdigest()[:16]
            k = len(self.checkpoints)
            if self.expected is not None and k < len(self.expected) and chk != self.expected[k]:
                ok = False
                print(f"item {i}: output digest {chk} differs from the recorded "
                      f"{self.expected[k]}", file=sys.stderr)
            self.checkpoints.append(chk)
        if not ok:
            self.failed += 1
            if self.failed <= 3:
                print(f"item {i} failed:\n{text}", file=sys.stderr)

    @property
    def digest(self) -> str:
        return self._chain.hexdigest()


def e2e_metrics(loop: Loop, setup_s: float) -> tuple[dict, dict]:
    times = sorted(loop.times_ns)
    n = len(times)
    k = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    tail = {"percentile": round(100 * (k + 1) / n, 2), "items": n, "beyond": n - 1 - k}
    values = {
        "items_per_s": n / (sum(times) / 1e9),
        "item_p50_ms": statistics.median(times) / 1e6,
        "item_tail_ms": times[k] / 1e6,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return values, tail


def metric_units(trace: int) -> dict[str, str]:
    """Name and unit of every metric a run reports, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(Path(SRC).rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def load_expected(name: str, seed: int) -> list[str] | None:
    path = HERE / "expected.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(name, {}).get(str(seed))


def record(name: str, seed: int, items: int) -> None:
    """Run the first `items` items untimed and store their digest checkpoints."""
    wl, _ = set_up(name, seed)
    if hasattr(wl, "prepare"):
        wl.prepare()
    loop = Loop(wl, None)
    loop.run(count=items)
    if loop.failed:
        sys.exit(f"{loop.failed} of {items} items failed; nothing recorded")
    path = HERE / "expected.json"
    data = json.loads(path.read_text()) if path.is_file() else {}
    data.setdefault(name, {})[str(seed)] = loop.checkpoints
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(loop.checkpoints)} checkpoints for {name} seed {seed}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record", type=int, metavar="ITEMS",
                    help="store digest checkpoints of the first ITEMS items in expected.json")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dtlab", "__init__.py")):
        print(f"error: no dtlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        _, setup_s = set_up(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.record:
        record(args.workload, args.seed, args.record)
        return 0

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "src_sha256": src_sha256(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
    }
    setups = [child_setup_s(args.workload, args.seed) for _ in range(SETUP_CHILDREN)]
    wl, own = set_up(args.workload, args.seed)
    setups.append(own)
    setup_s = statistics.median(setups)
    if hasattr(wl, "prepare"):
        wl.prepare()
    expected = load_expected(args.workload, args.seed)

    stem = f"{args.workload}-s{args.seed}-t{args.trace}-{time.time_ns()}"
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    if args.trace == 0:
        loop = Loop(wl, expected)
        loop.run(seconds=args.seconds)
        values, info["tail"] = e2e_metrics(loop, setup_s)
        failed, attempted = loop.failed, len(loop.times_ns)
    else:
        base = Loop(wl, expected)
        base.run(seconds=args.seconds * TRACE_BASELINE_SHARE)
        n = len(base.times_ns)
        tracer = Tracer()
        tracer.install(wl.dt)
        try:
            traced = Loop(wl, expected, tracer)
            traced.run(count=n)
        finally:
            tracer.uninstall()
        base_ns, traced_ns = sum(base.times_ns), sum(traced.times_ns)
        values = tracer.metrics(n, traced_ns, traced_ns / base_ns)
        mismatched = sum(a != b for a, b in zip(base.digests, traced.digests))
        if mismatched:
            print(f"{mismatched} traced items differ from their untraced run", file=sys.stderr)
        failed, attempted = base.failed + traced.failed + mismatched, 2 * n
        loop = traced
        tracer.write_spans(out_dir / f"{stem}.spans.tsv.gz")
    units = metric_units(args.trace)
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    info["loadavg_end"] = list(os.getloadavg())
    info.update(setup_samples_s=setups, items=len(loop.times_ns), attempted=attempted,
                failed=failed, digest=loop.digest,
                checked_checkpoints=min(len(loop.checkpoints), len(expected or [])),
                metrics={k: {"value": values[k], "unit": units[k]} for k in values})
    (out_dir / f"{stem}.json").write_text(json.dumps(info, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}"
          f" items {len(loop.times_ns)} digest {loop.digest[:16]}"
          f" checkpoints checked {info['checked_checkpoints']}")
    for k, v in values.items():
        extra = ""
        if k == "item_tail_ms":
            t = info["tail"]
            extra = f" (p{t['percentile']}, {t['beyond']} of {t['items']} items beyond)"
        print(f"{k} {v:.6g} {units[k]}{extra}")
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} items)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": info["metrics"]}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
