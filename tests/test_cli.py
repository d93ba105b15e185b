"""Tests for the declaration grammar and the command-line front end."""

import textwrap
from fractions import Fraction as Q

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dtlab import cli, pwfn
from dtlab.cli import (
    Parser,
    load_env,
    main,
    parse_mix,
    parse_pw,
    serialize_dist,
    serialize_fn,
    serialize_word,
    tokenize,
)
from dtlab.dist import bernoulli, equals
from dtlab.errors import ParseError
from dtlab.lab import DISTORTION_KINDS, UTILITY_KINDS, canonical_corpus, gen, gen_cdf
from dtlab.transform import apply_word

DEMO = textwrap.dedent(
    """
    # demo declarations
    dist bern_half = mix(atom(0, 1/2), atom(1, 1/2))
    dist u01 = mix(unif(0, 1, 1))
    fn step_half = pw { domain [0,1]; points (0 : 0, 0, 0) (1/2 : 0, 0, 1) (1 : 1, 1, 1); }
    fn u_jump = pw { reals(1, 1); points (1/2 : 1/2, 1/2, 3/2); }
    fn u_lin = pw { reals(2, 2); points (0 : 3); }
    fn d_bend = pw { domain [0,1]; points (0 : 0) (1/2 : 1/4) (1 : 1); }
    word w1 = [ distort(step_half), push(u_lin) ]
    word empty = [ ]
    """
)


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "demo.dtl"
    path.write_text(DEMO, encoding="utf-8")
    return str(path)


# -- grammar ---------------------------------------------------------------------


def test_load_env_declarations(spec_file):
    env = load_env(DEMO)
    assert set(env.dists) == {"bern_half", "u01"}
    assert set(env.fns) == {"step_half", "u_jump", "u_lin", "d_bend"}
    assert set(env.words) == {"w1", "empty"}
    assert equals(env.dists["bern_half"], bernoulli(Q(1, 2)))
    assert env.fns["step_half"] == pwfn.step_open(Q(1, 2))
    assert env.fns["u_lin"] == pwfn.affine(2, 3)
    assert env.words["empty"].steps == ()


def test_parse_error_reports_line_numbers():
    bad = "dist a = mix(atom(0, 1))\nfn b = pw { domain [0,2]; points (0 : 0) (1 : 1); }\n"
    with pytest.raises(ParseError) as err:
        load_env(bad)
    assert "line 2" in str(err.value)


def test_duplicate_names_rejected():
    with pytest.raises(ParseError):
        load_env("dist a = mix(atom(0, 1))\ndist a = mix(atom(1, 1))\n")


def test_invalid_weights_rejected_at_load():
    with pytest.raises(ParseError):
        load_env("dist a = mix(atom(0, 1/2))\n")


def test_whitespace_insensitive():
    squashed = "dist a=mix(atom(0,1/2),atom(1,1/2))"
    spaced = "dist  a =  mix( atom( 0 , 1/2 ) , atom( 1 , 1/2 ) )"
    assert equals(load_env(squashed).dists["a"], load_env(spaced).dists["a"])


# -- serialization round-trips ------------------------------------------------------


def test_dist_serialization_roundtrip():
    for _, F in canonical_corpus():
        text = serialize_dist(F)
        again = parse_mix(Parser(tokenize(text)))
        assert equals(F, again)
    for seed in range(20):
        F = gen_cdf(seed)
        again = parse_mix(Parser(tokenize(serialize_dist(F))))
        assert equals(F, again)


def test_fn_serialization_roundtrip():
    env = load_env(DEMO)
    for f in env.fns.values():
        again = parse_pw(Parser(tokenize(serialize_fn(f))))
        assert again == f


def test_word_serialization_roundtrip():
    env = load_env(DEMO)
    for w in env.words.values():
        text = serialize_word(w)
        again = cli.parse_word_literal(Parser(tokenize(text)), cli.Env())
        F = bernoulli(Q(1, 2))
        assert equals(apply_word(w, F), apply_word(again, F))


# -- commands ------------------------------------------------------------------------


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_quantile_command(capsys, spec_file):
    code, out, _ = run(capsys, ["quantile", "left", "1/2", "bern_half", "--spec", spec_file])
    assert code == 0 and out == "0\n"


def test_commute_command_witness(capsys, spec_file):
    code, out, _ = run(
        capsys,
        ["commute", "distort(step_half)", "push(u_jump)", "--spec", spec_file, "--corpus", "default"],
    )
    assert code == 1
    assert "WITNESS" in out and "x=1/2 lhs=0 rhs=1" in out and "F=uniform(0,1)" in out


def test_commute_command_pass(capsys, spec_file):
    code, out, _ = run(capsys, ["commute", "distort(step_half)", "push(u_lin)", "--spec", spec_file])
    assert code == 0 and out.startswith("PASS")


def test_apply_and_eval_commands(capsys, spec_file):
    code, out, _ = run(capsys, ["apply", "w1", "bern_half", "--spec", spec_file])
    assert code == 0 and out.strip() == "mix(atom(5, 1))"
    code, out, _ = run(capsys, ["eval", "step_half", "1/2", "--spec", spec_file])
    assert code == 0 and out.strip() == "left=0 at=0 right=1"


def test_functional_and_risk_commands(capsys, spec_file):
    code, out, _ = run(capsys, ["functional", "eu", "u_lin", "bern_half", "--spec", spec_file])
    assert code == 0 and out.strip() == "4"
    code, out, _ = run(capsys, ["risk", "es", "1/2", "u01", "--spec", spec_file])
    assert code == 0 and out.strip() == "3/4"
    code, out, _ = run(capsys, ["risk", "var", "1/2", "u01", "--spec", spec_file])
    assert code == 0 and out.strip() == "1/2"


def test_monotone_and_lsc_commands(capsys, spec_file):
    code, out, _ = run(capsys, ["monotone", "distort(step_half)", "--spec", spec_file])
    assert code == 0 and out.startswith("PASS")
    code, out, _ = run(capsys, ["lsc", "distort(step_half)", "u01", "--spec", spec_file])
    assert code == 1 and out.strip() == "VIOLATED lsc"


def test_extract_commands(capsys, spec_file):
    code, out, _ = run(
        capsys,
        ["extract", "utility", "push(u_lin)", "--at=-1,0,2", "--spec", spec_file],
    )
    assert code == 0 and "ROUNDTRIP MATCH" in out
    code, out, _ = run(
        capsys,
        ["extract", "distortion", "distort(step_half)", "--at=1/4,1/2,3/4", "--spec", spec_file],
    )
    assert code == 1 and "ROUNDTRIP MISMATCH" in out


def test_setcommute_command(capsys, spec_file):
    code, out, _ = run(
        capsys,
        ["setcommute", "utilities", "d_bend", "u_lin", "u_jump", "--spec", spec_file],
    )
    assert code == 0 and out.startswith("PASS set-commute-utilities")


def test_normal_form_command_output_reparses(capsys, spec_file):
    code, out, _ = run(capsys, ["normal-form", "w1", "--spec", spec_file])
    assert code == 0
    lines = out.strip().splitlines()
    d_text = lines[0].removeprefix("d = ")
    u_text = lines[1].removeprefix("u = ")
    assert parse_pw(Parser(tokenize(d_text))) == pwfn.step_open(Q(1, 2))
    assert parse_pw(Parser(tokenize(u_text))) == pwfn.affine(2, 3)



JUMP_WORDS = textwrap.dedent(
    """
    fn d_rc = pw { domain [0,1]; points (0 : 0, 0, 0) (1/2 : 0, 1, 1) (1 : 1, 1, 1); }
    fn u_left = pw { reals(1, 1); points (1/2 : 1/2, 1/2, 3/2); }
    fn u_right = pw { reals(1, 1); points (1/2 : 1/2, 3/2, 3/2); }
    word left_jump = [ push(u_left), distort(d_rc) ]
    word right_jump = [ push(u_right), distort(d_rc) ]
    fn d_mid = pw { domain [0,1]; points (0 : 0, 0, 0) (1/2 : 1/4, 1/4, 3/4) (1 : 1, 1, 1); }
    word run = [ distort(d_rc), distort(d_mid) ]
    """
)


def test_normal_form_command_on_pushes_with_jumps(capsys, tmp_path):
    path = tmp_path / "jumps.dtl"
    path.write_text(JUMP_WORDS, encoding="utf-8")
    env = load_env(JUMP_WORDS)
    # A left-continuous jump moves past a right-continuous distortion.
    code, out, err = run(capsys, ["normal-form", "left_jump", "--spec", str(path)])
    assert (code, err) == (0, "")
    d_line, u_line = out.strip().splitlines()
    assert parse_pw(Parser(tokenize(d_line.removeprefix("d = ")))) == env.fns["d_rc"]
    assert parse_pw(Parser(tokenize(u_line.removeprefix("u = ")))) == env.fns["u_left"]
    # A jump that takes its right limit does not: no normal form.
    code, out, err = run(capsys, ["normal-form", "right_jump", "--spec", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    # A run of distortions collapses even when the inner one is not right-continuous.
    code, out, err = run(capsys, ["normal-form", "run", "--spec", str(path)])
    assert (code, err) == (0, "")
    d_line = out.strip().splitlines()[0]
    want = pwfn.compose(env.fns["d_rc"], env.fns["d_mid"])
    assert parse_pw(Parser(tokenize(d_line.removeprefix("d = ")))) == want

def test_fuzz_commands(capsys):
    for law in ["commute", "pairing", "quantile", "normal-form", "collapse"]:
        code, out, _ = run(capsys, ["fuzz", law, "--iters", "20", "--seed", "1"])
        assert code == 0, law
        assert out.startswith("PASS"), law


def test_fuzz_determinism(capsys):
    code1, out1, _ = run(capsys, ["fuzz", "commute", "--iters", "25", "--seed", "9"])
    code2, out2, _ = run(capsys, ["fuzz", "commute", "--iters", "25", "--seed", "9"])
    assert (code1, out1) == (code2, out2)


def test_reproduce_commands(capsys):
    for name in ["example1", "example2", "appendixE", "semigroup", "conjugacy-u", "conjugacy-d"]:
        code, out, _ = run(capsys, ["reproduce", name])
        assert code == 0, name
        assert "MATCH" in out


def test_reproduce_unknown_exits_2(capsys):
    code, _, err = run(capsys, ["reproduce", "nosuch"])
    assert code == 2 and "unknown reproduction" in err


def test_unknown_name_exits_2(capsys, spec_file):
    code, _, err = run(capsys, ["quantile", "left", "1/2", "nope", "--spec", spec_file])
    assert code == 2 and "unknown distribution" in err


def test_bad_spec_file_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.dtl"
    path.write_text("dist a = mix(atom(0, 1/3))\n", encoding="utf-8")
    code, _, err = run(capsys, ["quantile", "left", "1/2", "a", "--spec", str(path)])
    assert code == 2 and "line 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["quantile", "left", "1/0", "bern_half"],
        ["quantile", "left", "abc", "bern_half"],
        ["extract", "utility", "push(u_lin)", "--at=x"],
    ],
)
def test_malformed_rational_arguments_exit_2(capsys, spec_file, argv):
    code, out, err = run(capsys, argv + ["--spec", spec_file])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_malformed_rational_in_spec_file_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.dtl"
    path.write_text("dist a = mix(atom(0, 1))\ndist b = mix(atom(0, 1/0))\n", encoding="utf-8")
    code, _, err = run(capsys, ["quantile", "left", "1/2", "a", "--spec", str(path)])
    assert code == 2 and err.startswith("error: line 2: ")


@pytest.mark.parametrize("x", ["0.5", ".5", "1e-1", "1e3"])
def test_decimal_and_exponent_rationals_exit_2(capsys, spec_file, x):
    code, out, err = run(capsys, ["eval", "u_lin", x, "--spec", spec_file])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "integer or p/q" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["u_lin", "-3/4"], ["u_lin", "--", "-3/4"]])
def test_negative_fraction_is_a_positional(capsys, spec_file, argv):
    code, out, err = run(capsys, ["eval", "--spec", spec_file, *argv])
    assert code == 0 and out == "left=3/2 at=3/2 right=3/2\n" and err == ""


def test_unknown_flag_still_exits_2(capsys, spec_file):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--spec", spec_file, "u_lin", "1/2", "--bogus"])
    assert exc.value.code == 2 and "--bogus" in capsys.readouterr().err


@pytest.mark.parametrize("iters", ["-5", "0"])
def test_fuzz_iters_below_one_exits_2(capsys, iters):
    code, out, err = run(capsys, ["fuzz", "commute", "--iters", iters])
    assert code == 2 and out == "" and "--iters" in err


def test_corpus_from_file(capsys, tmp_path, spec_file):
    corpus_path = tmp_path / "corpus.dtl"
    corpus_path.write_text(
        "dist a = mix(atom(0, 1))\ndist b = mix(unif(0, 1, 1))\n", encoding="utf-8"
    )
    code, out, _ = run(
        capsys,
        [
            "commute",
            "distort(step_half)",
            "push(u_jump)",
            "--spec",
            spec_file,
            "--corpus",
            str(corpus_path),
        ],
    )
    assert code == 1 and "F=b" in out


def test_report_determinism(capsys, spec_file):
    args = ["commute", "distort(step_half)", "push(u_jump)", "--spec", spec_file]
    first = run(capsys, args)
    second = run(capsys, args)
    assert first == second


@pytest.mark.parametrize("flag", ["--spec", "--corpus"])
def test_file_that_is_not_utf8_exits_2(capsys, tmp_path, spec_file, flag):
    path = tmp_path / "latin1.dtl"
    path.write_bytes("dist a = mix(atom(0, 1))\n# café\n".encode("latin-1"))
    argv = {"--spec": ["quantile", "left", "1/2", "a", "--spec", str(path)],
            "--corpus": ["monotone", "distort(step_half)", "--spec", spec_file, "--corpus", str(path)]}
    code, out, err = run(capsys, argv[flag])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(path) in err and "UTF-8" in err


def test_undeclared_function_in_primitive_is_unknown(capsys, spec_file):
    code, out, err = run(capsys, ["monotone", "distort(pwx)", "--spec", spec_file])
    assert (code, out, err) == (2, "", "error: unknown function 'pwx'\n")


# -- the exit-code contract over drawn argv and spec text -------------------------

LEVELS = ["0", "1/2", "1/3", "3/4", "1", "2", "-3/4", "-1", "1/0", "abc", "0.5"]
FUZZ_LAWS = ["commute", "pairing", "quantile", "set-u", "set-d", "normal-form", "collapse"]
REPRODUCE_IDS = ["example1", "example2", "appendixE", "semigroup", "conjugacy-u", "conjugacy-d"]


@st.composite
def spec_texts(draw):
    """Declarations serialized from seeded values, then possibly mutated."""
    seeds = st.integers(0, 10**6)
    lines = [f"dist F{i} = {serialize_dist(gen_cdf(draw(seeds), 2))}" for i in range(2)]
    for name, kinds in (("d0", DISTORTION_KINDS), ("d1", DISTORTION_KINDS), ("u0", UTILITY_KINDS), ("u1", UTILITY_KINDS)):
        lines.append(f"fn {name} = {serialize_fn(gen(draw(seeds), draw(st.sampled_from(kinds)), 2).fn)}")
    prims = ["distort(d0)", "distort(d1)", "push(u0)", "push(u1)"]
    lines.append(f"word w = [ {', '.join(draw(st.lists(st.sampled_from(prims), max_size=3)))} ]")
    text = "\n".join(lines) + "\n"
    at = draw(st.integers(0, len(text)))
    mutation = draw(st.sampled_from(["none"] * 5 + ["delete", "insert", "truncate"]))
    if mutation == "delete":
        text = text[:at] + text[at + draw(st.integers(1, 8)):]
    elif mutation == "insert":
        text = text[:at] + draw(st.text("()[]{},;:=|#/-.0123456789 xpw\n", min_size=1, max_size=4)) + text[at:]
    elif mutation == "truncate":
        text = text[:at]
    return text


@st.composite
def cli_runs(draw):
    text = draw(spec_texts())
    pick = lambda values: draw(st.sampled_from(values))
    dist = lambda: pick(["F0", "F1", "F1", "nope", "mix(atom(0, 1))"])
    fn = lambda: pick(["d0", "d1", "u0", "u1", "nope", "pw { reals(1, 1); points (0 : 0); }"])
    transform = lambda: pick(["w", "distort(d0)", "distort(d1)", "push(u0)", "push(u1)",
                              "distort(u0)", "push(d0)", "nope", "distort(pwx)"])
    level = lambda: pick(LEVELS)
    command = pick(["quantile", "eval", "apply", "functional", "risk", "commute", "setcommute",
                    "monotone", "lsc", "extract", "normal-form", "fuzz", "reproduce"])
    args = {
        "quantile": lambda: [pick(["left", "right"]), level(), dist()],
        "eval": lambda: [fn(), level()],
        "apply": lambda: [transform(), dist()],
        "functional": lambda: pick([["eu", "u0", dist()], ["du", "d0", dist()], ["rdu", "d1", "u1", dist()],
                                    ["eu", fn(), fn(), dist()], ["rdu", fn(), fn(), dist()]]),
        "risk": lambda: [pick(["var", "es"]), level(), dist()],
        "commute": lambda: [transform(), transform()],
        "setcommute": lambda: pick([["utilities", "d0", "u0", "u1"], ["distortions", "d0", "u0", "d1"],
                                    ["utilities", fn(), fn(), fn()]]),
        "monotone": lambda: [transform()],
        "lsc": lambda: [transform(), dist()],
        "extract": lambda: [pick(["distortion", "utility"]), transform(), "--at=" + ",".join(
            draw(st.lists(st.sampled_from(LEVELS), min_size=1, max_size=3)))],
        "normal-form": lambda: [transform()],
        "fuzz": lambda: [pick(FUZZ_LAWS), "--iters", pick(["1", "2"]), "--seed", str(draw(st.integers(0, 50)))],
        "reproduce": lambda: [pick(REPRODUCE_IDS + ["nosuch"]), "--seed", str(draw(st.integers(0, 50)))],
    }[command]()
    options = ["--spec", "spec.dtl"] + pick([[], ["--corpus", "spec.dtl"], ["--quiet"]])
    encoding = pick(["utf-8"] * 9 + ["latin-1"])
    if encoding == "latin-1":
        text += "# café\n"
    return [command, *args, *options], text.encode(encoding)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=cli_runs())
def test_exit_code_contract_on_drawn_commands_and_specs(capsys, tmp_path, monkeypatch, case):
    argv, spec = case
    (tmp_path / "spec.dtl").write_bytes(spec)
    monkeypatch.chdir(tmp_path)
    try:
        code, out, err = run(capsys, argv)
    except SystemExit as exc:
        code, out, err = exc.code, *capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert any(word in out for word in ("WITNESS", "VIOLATED", "MISMATCH")), out
