"""Span tracer that wraps dtlab's public functions from outside the package.

dtlab's modules bind imported names directly (``from .dist import make`` in
``transform``, ``lab`` and ``cli``; ``from .pwfn import classify`` in
``transform``), so wrapping a function means rebinding every module-level
name that refers to it, plus the class attributes the package calls through
``self``.  Spans (name, start, end, parent, item id) are kept in typed arrays
and written out once, when the run ends.  A span's self time is its duration
minus the durations of its child spans; time spent in the tracer's own
counting hooks is excluded from the parent's self time.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import defaultdict

# (module, attribute, span name, hook).  One span name may cover several
# functions; its calls and self time are summed over them.
WRAPPED = (
    ("pwfn", "compose", "pwfn.compose", "compose"),
    ("pwfn", "PiecewiseMonotone.eval3", "pwfn.eval3", None),
    ("pwfn", "PiecewiseMonotone.__post_init__", "pwfn.construct", "construct"),
    ("pwfn", "right_inverse", "pwfn.right_inverse", None),
    ("pwfn", "strict_inverse", "pwfn.inverse", None),
    ("pwfn", "pseudo_inverse", "pwfn.inverse", None),
    ("pwfn", "classify", "pwfn.classify", None),
    ("dist", "make", "dist.make", "make"),
    ("dist", "first_difference", "dist.first_difference", None),
    ("dist", "leq_st", "dist.dominance", None),
    ("dist", "first_dominance_failure", "dist.dominance", None),
    ("dist", "left_quantile", "dist.quantile", None),
    ("dist", "right_quantile", "dist.quantile", None),
    ("transform", "apply_distortion", "transform.apply_distortion", None),
    ("transform", "apply_utility", "transform.apply_utility", None),
    ("transform", "normal_form", "transform.normal_form", None),
    ("transform", "conjugate_utility", "transform.conjugate", None),
    ("transform", "conjugate_distortion", "transform.conjugate", None),
    ("transform", "RduForm.__call__", "transform.rdu_apply", "rdu"),
    ("lab", "gen", "lab.gen", None),
    ("lab", "gen_cdf", "lab.gen", None),
    ("lab", "gen_distortion", "lab.gen", None),
    ("lab", "gen_utility", "lab.gen", None),
    ("lab", "gen_admissible_word", "lab.gen", None),
    ("lab", "commute_check", "lab.check", None),
    ("lab", "_composed_equal", "lab.check", None),
    ("lab", "set_commute_check", "lab.check", None),
    ("lab", "monotone_check", "lab.check", None),
    ("lab", "lsc_check", "lab.check", None),
    ("lab", "extract_distortion", "lab.check", None),
    ("lab", "extract_utility", "lab.check", None),
    ("lab", "commute_check_like_roundtrip", "lab.check", None),
    ("lab", "first_fn_difference", "lab.check", None),
    ("lab", "fuzz_distort_push_commute", "lab.check", None),
    ("lab", "fuzz_rc_left_pairing", "lab.check", None),
    ("lab", "fuzz_quantile_identity", "lab.check", None),
    ("lab", "fuzz_set_commute", "lab.check", None),
    ("lab", "fuzz_normal_form", "lab.check", None),
    ("lab", "fuzz_collapse_nonrc", "lab.check", None),
    ("cli", "tokenize", "cli.parse", None),
    ("cli", "load_env", "cli.parse", None),
    ("cli", "parse_mix", "cli.parse", None),
    ("cli", "parse_pw", "cli.parse", None),
    ("cli", "parse_word_literal", "cli.parse", None),
    ("cli", "resolve_dist", "cli.parse", None),
    ("cli", "resolve_fn", "cli.parse", None),
    ("cli", "resolve_word", "cli.parse", None),
    ("cli", "serialize_fn", "cli.serialize", None),
    ("cli", "serialize_dist", "cli.serialize", None),
    ("cli", "serialize_word", "cli.serialize", None),
    ("cli", "main", "cli.main", None),
)


def _den_bits(bps) -> int:
    return max(
        max(b.x.denominator.bit_length(), b.left.denominator.bit_length(),
            b.at.denominator.bit_length(), b.right.denominator.bit_length())
        for b in bps
    )


def _hook_compose(tr, args, out, _state):
    nf, ng = len(args[0].breakpoints), len(args[1].breakpoints)
    c = tr.counts
    c["pwfn.compose.bps_in"] += nf + ng
    c["pwfn.compose.bps_out"] += len(out.breakpoints)
    c["pwfn.compose.scan_pairs"] += nf * (ng - 1)
    tr.raise_max("pwfn.compose.den_bits_max", _den_bits(out.breakpoints))


def _before_construct(args):
    return len(args[0].breakpoints)


def _hook_construct(tr, args, _out, given):
    kept = len(args[0].breakpoints)
    tr.counts["pwfn.construct.given"] += given
    tr.counts["pwfn.construct.kept"] += kept
    tr.raise_max("pwfn.construct.bps_max", kept)


def _before_make(args):
    comps = args[0]
    return len(comps) if hasattr(comps, "__len__") else 0


def _hook_make(tr, _args, out, given):
    tr.counts["dist.make.components_in"] += given
    tr.counts["dist.make.bps_out"] += len(out.fn.breakpoints)


def _hook_rdu(tr, args, _out, _state):
    tr.rdu_seen.add(hash((args[0], args[1])))


HOOKS = {
    "compose": (None, _hook_compose),
    "construct": (_before_construct, _hook_construct),
    "make": (_before_make, _hook_make),
    "rdu": (None, _hook_rdu),
}


class Tracer:
    """Wraps dtlab's public functions while installed; collects spans and counts."""

    def __init__(self):
        self.names: list[str] = []
        self._sid: dict[str, int] = {}
        self.item = -1
        self.sp_name = array("i")
        self.sp_item = array("q")
        self.sp_start = array("q")
        self.sp_end = array("q")
        self.sp_parent = array("q")
        self._stack: list[list[int]] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.incl_ns: list[int] = []
        self._active: list[int] = []
        self.fn_calls: dict = {}
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = {}
        self.rdu_seen: set[int] = set()
        self._undo: list[tuple] = []
        for _, _, span, _ in WRAPPED:
            self._span_id(span)

    def _span_id(self, span: str) -> int:
        if span not in self._sid:
            self._sid[span] = len(self.names)
            self.names.append(span)
            for lst in (self.calls, self.self_ns, self.incl_ns, self._active):
                lst.append(0)
        return self._sid[span]

    def raise_max(self, key: str, value: int) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def _wrap(self, span: str, orig, hook: str | None):
        sid = self._span_id(span)
        before, after = HOOKS[hook] if hook else (None, None)
        code = orig.__code__
        self.fn_calls[code] = 0
        tr = self
        stack, active = self._stack, self._active
        calls, self_ns, incl_ns, fn_calls = self.calls, self.self_ns, self.incl_ns, self.fn_calls
        sp_name, sp_item, sp_start, sp_end, sp_parent = (
            self.sp_name, self.sp_item, self.sp_start, self.sp_end, self.sp_parent)
        now = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            parent = stack[-1] if stack else None
            frame = [len(sp_start), 0]
            stack.append(frame)
            active[sid] += 1
            sp_name.append(sid)
            sp_item.append(tr.item)
            sp_parent.append(parent[0] if parent is not None else -1)
            sp_end.append(0)
            t0 = now()
            sp_start.append(t0)
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = now()
                sp_end[frame[0]] = t1
                stack.pop()
                active[sid] -= 1
                dur = t1 - t0
                self_ns[sid] += dur - frame[1]
                calls[sid] += 1
                fn_calls[code] += 1
                if not active[sid]:
                    incl_ns[sid] += dur
                if parent is not None:
                    parent[1] += dur
            if after is not None:
                after(tr, args, result, state)
                if parent is not None:
                    parent[1] += now() - t1
            return result

        return wrapper

    def install(self, dt) -> None:
        """Wrap every function in WRAPPED, in every dtlab module that names it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "dtlab" or name.startswith("dtlab."))]
        for modname, attr, span, hook in WRAPPED:
            mod = getattr(dt, modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[meth]
                setattr(owner, meth, self._wrap(span, orig, hook))
                self._undo.append((owner, meth, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(span, orig, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
                        self._undo.append((m, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def metrics(self, items: int, item_ns: int, overhead_ratio: float) -> dict[str, float]:
        """Per-layer figures: counts and times per item, ratios and maxima as is."""
        sid = self._sid
        per = 1 / items
        m: dict[str, float] = {}

        def calls(span):
            return self.calls[sid[span]]

        for span in ("pwfn.compose", "pwfn.eval3", "pwfn.construct", "pwfn.right_inverse",
                     "pwfn.classify", "dist.make", "dist.first_difference", "dist.dominance",
                     "dist.quantile", "transform.apply_distortion", "transform.apply_utility",
                     "transform.normal_form", "transform.conjugate", "lab.gen", "cli.parse"):
            m[f"{span}.calls"] = calls(span) * per
            m[f"{span}.self_s"] = self.self_ns[sid[span]] / 1e9 * per
        for span in ("lab.check", "cli.serialize", "cli.main"):
            m[f"{span}.self_s"] = self.self_ns[sid[span]] / 1e9 * per
        m["pwfn.inverse.calls"] = calls("pwfn.inverse") * per
        for key in ("pwfn.compose.bps_in", "pwfn.compose.bps_out", "pwfn.compose.scan_pairs",
                    "dist.make.components_in", "dist.make.bps_out"):
            m[key] = self.counts[key] * per
        m["pwfn.compose.den_bits_max"] = self.maxima.get("pwfn.compose.den_bits_max", 0)
        m["pwfn.construct.bps_max"] = self.maxima.get("pwfn.construct.bps_max", 0)
        given = self.counts["pwfn.construct.given"]
        m["pwfn.construct.keep_ratio"] = self.counts["pwfn.construct.kept"] / given if given else 0.0
        m["pwfn.compose.share"] = self.incl_ns[sid["pwfn.compose"]] / item_ns
        m["dist.make.share"] = self.incl_ns[sid["dist.make"]] / item_ns
        rdu = calls("transform.rdu_apply")
        m["transform.rdu_apply.calls"] = rdu * per
        m["transform.rdu_apply.distinct_ratio"] = len(self.rdu_seen) / rdu if rdu else 0.0
        m["trace.overhead_ratio"] = overhead_ratio
        return m

    def write_spans(self, path) -> None:
        """One tab-separated line per span: item, name, start_ns, end_ns, parent index."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("item\tname\tstart_ns\tend_ns\tparent\n")
            fh.writelines(
                f"{i}\t{names[n]}\t{s}\t{e}\t{p}\n"
                for i, n, s, e, p in zip(self.sp_item, self.sp_name, self.sp_start,
                                         self.sp_end, self.sp_parent)
            )
