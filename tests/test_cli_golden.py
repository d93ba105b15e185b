"""Golden CLI transcripts: the exit code, stdout and stderr of `cli.main`.

The cases cover every reproduction (plain, quiet and seeded), every fuzz
target, each query and law command on the DEMO spec of `test_cli`,
malformed spec files, and the parser itself: the top-level help, a bare
`dtlab`, every command's help and three usage errors.  Files are written to
a fresh directory that is the working directory of the run, so messages
that name them stay relative.  argparse wraps its text at the terminal
width, so every run sees ``COLUMNS=80``, the width the file was recorded at.

After an intended change of output, re-record with
``PYTHONPATH=src python tests/test_cli_golden.py`` and review the diff of
``tests/data/cli_golden.json``.
"""

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from dtlab.cli import COMMANDS, main
from test_cli import DEMO

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

# Spec files for the malformed cases; each is read by `quantile left 1/2 a`.
MALFORMED = {
    "bad-char": "dist a = mix(atom(0, 1)) $\n",
    "decimal": "dist a = mix(atom(0.5, 1))\n",
    "zero-den": "dist a = mix(atom(0, 1))\ndist b = mix(atom(0, 1/0))\n",
    "weights": "dist a = mix(atom(0, 1/3))\n",
    "duplicate": "dist a = mix(atom(0, 1))\nfn a = pw { reals(1, 1); points (0 : 0); }\n",
    "keyword": "dist a = mix(atom(0, 1))\nlet b = 1\n",
    "component": "dist a = mix(point(0, 1))\n",
    "separator": "dist a = mix(atom(0, 1/2) atom(1, 1/2))\n",
    "end-of-input": "dist a = mix(atom(0, 1)\n",
    "domain": "dist a = mix(atom(0, 1))\nfn f = pw { domain [0,2]; points (0 : 0) (1 : 1); }\n",
    "no-points": "dist a = mix(atom(0, 1))\nfn f = pw { reals(1, 1); points ; }\n",
    "decreasing": "dist a = mix(atom(0, 1))\nfn f = pw { reals(1, 1); points (0 : 1) (1 : 0); }\n",
    "point-sep": "dist a = mix(atom(0, 1))\nfn f = pw { reals(1, 1); points (0 : 0 ; 1); }\n",
    "unknown-fn": "dist a = mix(atom(0, 1))\nword w = [ distort(g) ]\n",
    "word-step": "dist a = mix(atom(0, 1))\nfn f = pw { reals(1, 1); points (0 : 0); }\nword w = [ f ]\n",
    "word-sep": "dist a = mix(atom(0, 1))\nfn f = pw { reals(1, 1); points (0 : 0); }\n"
    "word w = [ push(f) push(f) ]\n",
    "not-distortion": "dist a = mix(atom(0, 1))\nfn f = pw { reals(1, 1); points (0 : 0); }\n"
    "word w = [ distort(f) ]\n",
    "reals-bracket": "dist a = mix(atom(0, 1))\nfn f = pw { reals[1, 1]; points (0 : 0); }\n",
}
NOT_UTF8 = "dist a = mix(atom(0, 1))\n# caf\udce9\n"  # byte 0xe9 alone is not UTF-8
CORPUS = "dist a = mix(atom(0, 1))\ndist b = mix(unif(0, 1, 1))\n"


def _cases():
    demo = {"demo.dtl": DEMO}
    spec = ["--spec", "demo.dtl"]
    cases = {}
    for rid in ("example1", "example2", "appendixE", "semigroup", "conjugacy-u", "conjugacy-d"):
        cases[f"reproduce-{rid}"] = (["reproduce", rid], {})
        cases[f"reproduce-{rid}-quiet"] = (["reproduce", rid, "--quiet"], {})
        cases[f"reproduce-{rid}-seed7"] = (["reproduce", rid, "--seed", "7"], {})
    cases["reproduce-unknown"] = (["reproduce", "nosuch"], {})
    for law in ("commute", "pairing", "quantile", "set-u", "set-d", "normal-form", "collapse"):
        cases[f"fuzz-{law}"] = (["fuzz", law, "--iters", "3", "--seed", "2"], {})
    cases["fuzz-unknown"] = (["fuzz", "nosuch"], {})
    queries = {
        "quantile-left": ["quantile", "left", "1/2", "bern_half"],
        "quantile-right": ["quantile", "right", "1/2", "bern_half"],
        "quantile-literal": ["quantile", "left", "1/3", "mix(atom(0, 1/2), unif(0, 1, 1/2))"],
        "eval": ["eval", "step_half", "1/2"],
        "eval-negative": ["eval", "u_lin", "-3/4"],
        "eval-literal": ["eval", "pw { reals(1, 1); points (0 : 0); }", "2"],
        "apply-word": ["apply", "w1", "bern_half"],
        "apply-distort": ["apply", "distort(d_bend)", "u01"],
        "apply-push": ["apply", "push(u_jump)", "u01"],
        "apply-empty": ["apply", "empty", "u01"],
        "functional-eu": ["functional", "eu", "u_lin", "bern_half"],
        "functional-du": ["functional", "du", "d_bend", "u01"],
        "functional-rdu": ["functional", "rdu", "d_bend", "u_lin", "u01"],
        "functional-arity": ["functional", "rdu", "u_lin", "bern_half"],
        "risk-var": ["risk", "var", "1/2", "u01"],
        "risk-es": ["risk", "es", "1/2", "u01"],
        "commute-witness": ["commute", "distort(step_half)", "push(u_jump)"],
        "commute-pass": ["commute", "distort(step_half)", "push(u_lin)"],
        "commute-words": ["commute", "w1", "empty"],
        "setcommute-utilities": ["setcommute", "utilities", "d_bend", "u_lin", "u_jump"],
        "setcommute-distortions": ["setcommute", "distortions", "d_bend", "u_lin", "d_bend"],
        "setcommute-witness": ["setcommute", "utilities", "step_half", "u_lin", "u_lin", "u_jump"],
        "setcommute-not-rc": ["setcommute", "distortions", "d_bend", "u_lin", "step_half"],
        "setcommute-not-strict": ["setcommute", "utilities", "d_bend", "u_jump", "u_lin"],
        "monotone": ["monotone", "distort(step_half)"],
        "monotone-word": ["monotone", "w1"],
        "lsc-violated": ["lsc", "distort(step_half)", "u01"],
        "lsc-holds": ["lsc", "push(u_lin)", "u01"],
        "extract-utility": ["extract", "utility", "push(u_lin)", "--at=-1,0,2"],
        "extract-distortion": ["extract", "distortion", "distort(step_half)", "--at=1/4,1/2,3/4"],
        "extract-bend": ["extract", "distortion", "distort(d_bend)", "--at=1/4,1/2,3/4"],
        "extract-not-cdf": ["extract", "distortion", "push(u_lin)", "--at=1/2"],
        "extract-repeated-level": ["extract", "distortion", "distort(d_bend)", "--at=1/2,1/2"],
        "normal-form": ["normal-form", "w1"],
        "normal-form-empty": ["normal-form", "empty"],
        "unknown-dist": ["quantile", "left", "1/2", "nope"],
        "unknown-fn": ["eval", "nope", "1/2"],
        "unknown-transform": ["monotone", "nope"],
        "unknown-primitive-fn": ["monotone", "distort(pwx)"],
        "trailing-literal": ["eval", "pw { reals(1, 1); points (0 : 0); } x", "0"],
        "bad-level": ["quantile", "left", "1/0", "bern_half"],
    }
    for name, argv in queries.items():
        cases[name] = (argv + spec, demo)
    commute = ["commute", "distort(step_half)", "push(u_jump)", *spec]
    cases["corpus-file"] = (commute + ["--corpus", "corpus.dtl"], {**demo, "corpus.dtl": CORPUS})
    cases["corpus-empty"] = (commute + ["--corpus", "empty.dtl"], {**demo, "empty.dtl": ""})
    cases["corpus-missing"] = (commute + ["--corpus", "missing.dtl"], demo)
    cases["corpus-not-utf8"] = (commute + ["--corpus", "latin1.dtl"], {**demo, "latin1.dtl": NOT_UTF8})
    cases["spec-missing"] = (["quantile", "left", "1/2", "a", "--spec", "missing.dtl"], {})
    cases["spec-not-utf8"] = (["quantile", "left", "1/2", "a", "--spec", "latin1.dtl"], {"latin1.dtl": NOT_UTF8})
    for name, text in MALFORMED.items():
        cases[f"malformed-{name}"] = (["quantile", "left", "1/2", "a", "--spec", "bad.dtl"], {"bad.dtl": text})
    cases["help"] = (["--help"], {})
    cases["no-command"] = ([], {})
    for command in COMMANDS:
        cases[f"help-{command}"] = ([command, "--help"], {})
    cases["usage-extract-no-at"] = (["extract", "distortion", "w"], {})
    cases["usage-setcommute-no-probes"] = (["setcommute", "utilities", "d", "u"], {})
    cases["usage-quantile-side"] = (["quantile", "mid", "1/2", "a"], {})
    return cases


CASES = _cases()


def transcript(argv, files, where: Path):
    """(exit code, stdout, stderr) of one `cli.main` call run inside `where`."""
    for name, text in files.items():
        (where / name).write_bytes(text.encode("utf-8", "surrogateescape"))
    out, err = io.StringIO(), io.StringIO()
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(where)
    os.environ["COLUMNS"] = "80"
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return [code, out.getvalue(), err.getvalue()]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_transcript_matches_golden(case, golden, tmp_path):
    argv, files = CASES[case]
    assert transcript(argv, files, tmp_path) == golden[case]


if __name__ == "__main__":
    import tempfile

    record = {}
    for case, (argv, files) in CASES.items():
        with tempfile.TemporaryDirectory() as where:
            record[case] = transcript(argv, files, Path(where))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(record)} transcripts in {GOLDEN}", file=sys.stderr)
