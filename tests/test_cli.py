import argparse
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from qdeg import cli as cli_module
from qdeg.cli import run
from qdeg.grading import MAX_VERONESE_LEVEL


@pytest.fixture
def cli(capsys):
    def invoke(*argv):
        code = run(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return invoke


def test_parse_command(cli):
    code, out, err = cli("parse", "--vars", "x,y", "x^(1/2) - y^2")
    assert code == 0
    assert out.strip() == "-y^2 + x^(1/2)"
    assert err == ""


def test_parse_json(cli):
    code, out, _ = cli("parse", "--json", "--vars", "x", "2*x^(5/6)")
    assert code == 0
    payload = json.loads(out)
    assert payload["poly"] == "2*x^(5/6)"
    assert payload["terms"] == [{"coeff": "2", "exps": {"x": "5/6"}}]


def test_gcd_command(cli):
    code, out, _ = cli("gcd", "--vars", "x", "x - 1", "x^(1/2) - 1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "gcd: x^(1/2) - 1"


def test_gcd_golden_stdout_with_wide_cofactors(cli):
    """A gcd over Q whose cofactors have entries of several hundred bits;
    the stdout is pinned byte for byte."""
    case = json.loads((Path(__file__).parent / "data" /
                       "cli_gcd_golden.json").read_text())
    code, out, err = cli(*case["argv"])
    assert (code, out, err) == (0, case["stdout"], "")
    assert max(int(x).bit_length() for x in re.findall(r"\d+", out)) > 400


def test_member_commands(cli):
    code, out, _ = cli("member", "--vars", "x", "--ideal", "x^(1/2)", "x")
    assert (code, out.strip()) == (0, "true")
    code, out, _ = cli("member", "--vars", "x", "--ideal", "x", "x^(1/2)")
    assert (code, out.strip()) == (0, "false")
    code, out, _ = cli("radical-member", "--vars", "t", "--ideal", "t^2", "t")
    assert (code, out.strip()) == (0, "true")


def test_cech_json(cli):
    code, out, _ = cli("cech", "--n", "2", "--deg", "-3", "--den", "1",
                       "--box", "3", "--json")
    assert code == 0
    assert json.loads(out)["h"] == [0, 0, 1]


def test_cech_basis(cli):
    code, out, _ = cli("cech", "--n", "2", "--deg", "-3", "--den", "1",
                       "--box", "3", "--basis", "hn")
    assert code == 0
    assert "basis: X0^(-1)*X1^(-1)*X2^(-1)" in out


def test_cech_out_of_range_parameters(cli):
    for extra in ((), ("--basis", "h0"), ("--basis", "hn")):
        code, out, err = cli("cech", "--n", "2", "--deg", "-3", "--den", "0",
                             "--box", "3", *extra)
        assert (code, out) == (1, "")
        assert err.startswith("DegreeLevelMismatch:")
    code, out, err = cli("cech", "--n", "-1", "--deg", "-3", "--den", "1",
                         "--box", "3")
    assert (code, out) == (1, "")
    assert err.startswith("NegativeDimension:")
    # a box in (-1/D, 0) is empty: it no longer counts the zero vector
    code, out, _ = cli("cech", "--n", "2", "--deg", "0", "--den", "2",
                       "--box=-1/3")
    assert (code, out) == (0, "h: 0,0,0\n")


def test_cech_malformed_fractions_are_usage_errors(cli):
    for bad in ("abc", "1/0", "", "1/2/3"):
        code, out, err = cli("cech", "--n", "2", "--deg=" + bad, "--den", "1",
                             "--box", "3")
        assert (code, out) == (2, "")
        assert "argument --deg" in err and "Traceback" not in err
    code, _, err = cli("cech", "--n", "2", "--deg", "0", "--den", "1",
                       "--box", "x")
    assert code == 2 and "argument --box" in err


_GARBAGE = st.text(alphabet="abx/.-+ ", max_size=4)  # no digit: never a number


def _fraction_text(num_range, den_range):
    exact = st.builds(lambda p, q: "%d/%d" % (p, q), st.integers(*num_range),
                      st.integers(*den_range))
    return st.one_of(st.integers(*num_range).map(str), exact, _GARBAGE)


def _assert_clean_exit(argv, empty_ok=False):
    """Exit 0, 1 or 2 without a traceback, printing only on success; with
    empty_ok a success may print nothing (no roots or no points as text)."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if empty_ok:
        assert code == 0 or out.getvalue() == ""
    else:
        assert (code == 0) == (out.getvalue() != "")


@settings(max_examples=80, deadline=None)
@given(n=st.one_of(st.integers(-2, 3).map(str), _GARBAGE),
       deg=_fraction_text((-10 ** 6, 10 ** 6), (-1, 3)),
       den=st.one_of(st.integers(-2, 4).map(str), _GARBAGE),
       box=_fraction_text((-10 ** 6, 10 ** 6), (-1, 3)),
       extra=st.sampled_from([(), ("--json",), ("--basis", "h0"),
                              ("--basis", "hn")]))
def test_cech_fuzz_exit_codes(n, deg, den, box, extra):
    _assert_clean_exit(["cech", "--n=" + n, "--deg=" + deg, "--den=" + den,
                        "--box=" + box, *extra])


_FIELDS = st.sampled_from(["q", "fp:5", "fp:7", "fp:4", "fp:", "fp:x", "r"])
_VARS = st.sampled_from(["", "x", "x,y", "x,y,z", "y,x", "x,x", ",", "1x"])
_EXPRS = st.one_of(
    st.sampled_from(["x - 1", "x^(1/2) - y", "x*y - 1", "x^2 - y^3", "0",
                     "z", "x^(-1)", "(x + y)^(1/2)", "x^(1/3) + 1"]),
    st.text(alphabet="xyz^()/-+*12 ", max_size=6))
_ROOT = st.one_of(st.integers(-3, 5).map(str),
                  st.builds(lambda p, q: "%d/%d" % (p, q), st.integers(-3, 3),
                            st.integers(-1, 3)))
_POINTS = st.one_of(
    st.builds(lambda order, roots: "%s:%s" % (order, ",".join(roots)),
              st.integers(-1, 6), st.lists(_ROOT, max_size=4)),
    st.text(alphabet="a1:,/- ", max_size=6))


@settings(max_examples=80, deadline=None)
@given(field=_FIELDS, names=_VARS, gens=st.lists(_EXPRS, max_size=3),
       point=_POINTS, json_flag=st.booleans())
def test_tangent_fuzz_exit_codes(field, names, gens, point, json_flag):
    argv = ["tangent", "--field", field, "--vars", names, "--point=" + point]
    for g in gens:
        argv += ["--ideal", g]
    _assert_clean_exit(argv + (["--json"] if json_flag else []))


@settings(max_examples=80, deadline=None)
@given(field=_FIELDS, names=_VARS, expr=_EXPRS,
       chart=st.one_of(st.integers(-3, 4).map(str), _GARBAGE),
       json_flag=st.booleans())
def test_dehomog_fuzz_exit_codes(field, names, expr, chart, json_flag):
    argv = ["dehomog", "--field", field, "--vars", names, "--chart=" + chart]
    _assert_clean_exit(argv + (["--json"] if json_flag else []) + ["--", expr])


@settings(max_examples=80, deadline=None)
@given(field=_FIELDS, names=_VARS, exprs=st.lists(_EXPRS, max_size=3),
       json_flag=st.booleans())
def test_parse_and_gcd_fuzz_exit_codes(field, names, exprs, json_flag):
    for command in ("parse", "gcd"):
        argv = [command, "--field", field, "--vars", names]
        _assert_clean_exit(argv + (["--json"] if json_flag else [])
                           + ["--", *exprs])


@settings(max_examples=80, deadline=None)
@given(field=_FIELDS, names=_VARS, expr=_EXPRS, point=_POINTS,
       json_flag=st.booleans())
def test_eval_fuzz_exit_codes(field, names, expr, point, json_flag):
    argv = ["eval", "--field", field, "--vars", names, "--point=" + point]
    _assert_clean_exit(argv + (["--json"] if json_flag else []) + ["--", expr])


@settings(max_examples=80, deadline=None)
@given(field=_FIELDS, names=_VARS, gens=st.lists(_EXPRS, max_size=3),
       level=st.one_of(st.integers(-1, 4).map(str), _GARBAGE),
       json_flag=st.booleans())
def test_variety_fuzz_exit_codes(field, names, gens, level, json_flag):
    argv = ["variety", "--field", field, "--vars", names,
            "--point-level=" + level]
    for g in gens:
        argv += ["--ideal", g]
    _assert_clean_exit(argv + (["--json"] if json_flag else []),
                       empty_ok=not json_flag)


_LARGE_FIELDS = st.sampled_from(["fp:1000000007", "fp:2147483647"])


@settings(max_examples=40, deadline=None)
@given(field=_LARGE_FIELDS, names=_VARS, gens=st.lists(_EXPRS, max_size=3),
       json_flag=st.booleans())
def test_variety_large_field_fuzz_exit_codes(field, names, gens, json_flag):
    # one variable scans one prefix; two or more exceed MAX_SCAN_PREFIXES
    argv = ["variety", "--field", field, "--vars", names]
    for g in gens:
        argv += ["--ideal", g]
    _assert_clean_exit(argv + (["--json"] if json_flag else []),
                       empty_ok=not json_flag)


_BIG = st.integers(10 ** 29, 10 ** 30 - 1).map(str)
_ROOTS_EXPRS = st.one_of(
    _EXPRS,
    st.builds("{} - {}".format, st.sampled_from(["x", "x^(1/2)", "x^2", "x^3"]),
              _BIG),
    st.builds("{}*x^(1/2) - {}".format, _BIG, _BIG),
    st.builds("(x - {})*(x + {})".format, _BIG, _BIG))


@settings(max_examples=80, deadline=None)
@given(field=st.one_of(_FIELDS, _LARGE_FIELDS), names=_VARS,
       expr=_ROOTS_EXPRS, json_flag=st.booleans())
def test_roots_fuzz_exit_codes(field, names, expr, json_flag):
    argv = ["roots", "--field", field, "--vars", names]
    _assert_clean_exit(argv + (["--json"] if json_flag else []) + ["--", expr],
                       empty_ok=not json_flag)


@settings(max_examples=80, deadline=None)
@given(field=_FIELDS, names=_VARS, outer=_VARS,
       exprs=st.lists(_EXPRS, max_size=4), json_flag=st.booleans())
def test_compose_fuzz_exit_codes(field, names, outer, exprs, json_flag):
    argv = ["compose", "--field", field, "--vars", names,
            "--outer-vars=" + outer]
    _assert_clean_exit(argv + (["--json"] if json_flag else [])
                       + ["--", *exprs])


@settings(max_examples=60, deadline=None)
@given(k=st.one_of(st.integers(-3, 12).map(str), _GARBAGE),
       json_flag=st.booleans())
def test_embed_fuzz_exit_codes(k, json_flag):
    _assert_clean_exit(["embed", "--k=" + k] + (["--json"] if json_flag else []))


_DIM_LISTS = st.one_of(
    st.lists(st.integers(-2, 40).map(str), max_size=4).map(",".join),
    st.text(alphabet="0123,-+a ", max_size=6))


@settings(max_examples=80, deadline=None)
@given(a=_DIM_LISTS, b=_DIM_LISTS, json_flag=st.booleans())
def test_kunneth_fuzz_exit_codes(a, b, json_flag):
    _assert_clean_exit(["kunneth", "--a=" + a, "--b=" + b]
                       + (["--json"] if json_flag else []))


@settings(max_examples=60, deadline=None)
@given(field=_FIELDS, names=_VARS, gens=st.lists(_EXPRS, max_size=3),
       expr=_EXPRS, json_flag=st.booleans())
def test_groebner_and_member_and_proper_fuzz_exit_codes(field, names, gens,
                                                        expr, json_flag):
    common = ["--field", field, "--vars", names] + (
        ["--json"] if json_flag else [])
    ideal = [arg for g in gens for arg in ("--ideal", g)]
    _assert_clean_exit(["groebner", *common, "--", *gens])
    _assert_clean_exit(["member", *common, *ideal, "--", expr])
    _assert_clean_exit(["proper", *common, *ideal])


@settings(max_examples=80, deadline=None)
@given(field=_FIELDS, names=_VARS, expr=_EXPRS,
       degree=_fraction_text((-4, 6), (1, 3)),
       new_var=st.sampled_from(["h", "w", "x", "", "1"]),
       at=st.one_of(st.none(), st.integers(-1, 3).map(str), _GARBAGE),
       json_flag=st.booleans())
def test_components_and_homog_fuzz_exit_codes(field, names, expr, degree,
                                              new_var, at, json_flag):
    common = ["--field", field, "--vars", names] + (
        ["--json"] if json_flag else [])
    # the zero polynomial has no components to print
    _assert_clean_exit(["components", *common, "--", expr],
                       empty_ok=not json_flag)
    at = [] if at is None else ["--at=" + at]
    _assert_clean_exit(["homog", *common, "--degree=" + degree,
                        "--new-var=" + new_var, *at, "--", expr])


@settings(max_examples=80, deadline=None)
@given(p=st.one_of(st.sampled_from(["2", "3", "5"]),
                   st.integers(-3, 12).map(str), _GARBAGE),
       names=_VARS, expr=_EXPRS, json_flag=st.booleans())
def test_proot_fuzz_exit_codes(p, names, expr, json_flag):
    _assert_clean_exit(["proot", "--p=" + p, "--vars", names]
                       + (["--json"] if json_flag else []) + ["--", expr])


@settings(max_examples=80, deadline=None)
@given(data=st.data(), field=_FIELDS, names=_VARS, outer=_VARS, g=_EXPRS,
       json_flag=st.booleans())
def test_pullback_fuzz_exit_codes(data, field, names, outer, g, json_flag):
    # often one component per outer variable, so that some maps apply
    arity = len([v for v in outer.split(",") if v.strip()])
    count = data.draw(st.one_of(st.just(arity), st.integers(0, 4)))
    components = data.draw(st.lists(_EXPRS, min_size=count, max_size=count))
    _assert_clean_exit(["pullback", "--field", field, "--vars", names,
                        "--outer-vars=" + outer]
                       + (["--json"] if json_flag else [])
                       + ["--", g, *components])


# Subcommands without a fuzz test, and why.
_NOT_FUZZED = {
    "flatten": "ends in an AttributeError traceback: cli.flatten is bound "
               "to the function, not to the module",
    "noether": "ends in the same AttributeError traceback as flatten",
    "radical-member": "runs for 10 s to over 40 s on tiny random inputs",
}


def test_every_subcommand_is_fuzzed():
    # a test named test_<a>_and_<b>_fuzz_exit_codes fuzzes a and b
    fuzzed = set()
    for name in globals():
        match = re.fullmatch(r"test_(\w+)_fuzz_exit_codes", name)
        if match:
            fuzzed.update(match.group(1).split("_and_"))
    subs, = (a for a in cli_module.build_parser()._actions
             if isinstance(a, argparse._SubParsersAction))
    commands = {c.replace("-", "_") for c in subs.choices}
    excluded = {c.replace("-", "_") for c in _NOT_FUZZED}
    assert excluded <= commands
    assert commands - excluded == commands & fuzzed
    assert not excluded & fuzzed


def test_embed_and_kunneth_parameter_errors(cli):
    for k in ("0", "-1"):
        code, out, err = cli("embed", "--k=" + k)
        assert (code, out) == (1, "") and err.startswith("DegreeLevelMismatch:")
    code, out, err = cli("embed", "--k", str(MAX_VERONESE_LEVEL))
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == MAX_VERONESE_LEVEL + 1
    code, out, err = cli("embed", "--k", str(MAX_VERONESE_LEVEL + 1))
    assert (code, out) == (1, "") and err.startswith("LevelTooLarge:")
    code, out, _ = cli("kunneth", "--a", "1,a", "--b", "1")
    assert (code, out) == (2, "")
    for a in ("1,-1", ","):
        code, out, err = cli("kunneth", "--a=" + a, "--b", "2")
        assert (code, out) == (1, "") and err.startswith("NegativeDimension:")
    assert cli("kunneth", "--a", "0,1", "--b", "0,0,3") == (0, "h: 0,0,0,3\n", "")


def test_compose_arity_error(cli):
    code, out, err = cli("compose", "--outer-vars", "a,b", "--vars", "x",
                         "a*b", "x")
    assert (code, out) == (1, "")
    assert err.startswith("FieldMismatch:")


def test_large_prime_field_answers_at_once(cli):
    start = perf_counter()
    code, out, err = cli("parse", "--field", "fp:100000000000000000039",
                         "--vars", "x", "x")
    assert perf_counter() - start < 1.0
    assert (code, out, err) == (0, "x\n", "")
    code, out, err = cli("parse", "--field", "fp:%d" % 10 ** 25, "--vars", "x",
                         "x")
    assert (code, out) == (1, "") and err.startswith("PrimeTooLarge:")


def test_point_and_chart_errors(cli):
    code, out, err = cli("tangent", "--vars", "x", "--ideal", "x - 1",
                         "--point", "a:1")
    assert (code, out) == (2, "") and "argument --point" in err
    code, out, err = cli("tangent", "--vars", "x,y", "--ideal", "x - 1",
                         "--point", "1:1")
    assert (code, out) == (1, "") and err.startswith("FieldMismatch:")
    code, out, err = cli("eval", "--vars", "x", "--point", "0:1", "x")
    assert (code, out) == (1, "") and err.startswith("RootOrderMismatch:")
    code, out, _ = cli("tangent", "--vars", "x,y", "--point", "1:2,3")
    assert (code, out) == (0, "dim: 2\n")
    code, out, err = cli("dehomog", "--vars", "x,y", "--chart", "5", "x + y")
    assert (code, out) == (1, "") and err.startswith("UnknownVariable:")
    code, out, err = cli("homog", "--vars", "x", "--degree", "2", "--at", "3",
                         "x")
    assert (code, out) == (1, "") and err.startswith("UnknownVariable:")
    code, out, err = cli("parse", "--field", "fp:x", "--vars", "x", "x")
    assert (code, out) == (1, "") and err.startswith("NotPrime:")


def test_negative_fraction_as_separate_argument(cli):
    for deg, box in (("-1/2", "1"), ("-3/2", "-1/2"), ("-2", "1/2")):
        glued = cli("cech", "--n", "1", "--deg=" + deg, "--den", "2",
                    "--box=" + box)
        separate = cli("cech", "--n", "1", "--deg", deg, "--den", "2",
                       "--box", box)
        assert separate == glued and glued[0] == 0
    glued = cli("homog", "--vars", "x", "--degree=-1/2", "x^(-1)")
    separate = cli("homog", "--vars", "x", "--degree", "-1/2", "x^(-1)")
    assert separate == glued == (0, "x^(-1)*h^(1/2)\n", "")
    code, _, err = cli("cech", "--n", "1", "--deg", "-x", "--den", "2",
                       "--box", "1")
    assert code == 2 and "Traceback" not in err


def test_roots_command(cli):
    code, out, _ = cli("roots", "--vars", "x", "x^(1/2) - 2")
    assert (code, out.strip()) == (0, "4")
    # the zeros 2 and -2 of y^3 - y^2 - 4y + 4, y = x^(1/2), are one x = 4
    for field in ("q", "fp:7"):
        code, out, _ = cli("roots", "--field", field, "--vars", "x",
                           "x^(3/2) - x - 4*x^(1/2) + 4")
        assert (code, out) == (0, "1\n4\n")
    code, out, _ = cli("roots", "--json", "--vars", "x",
                       "x^(3/2) - x - 4*x^(1/2) + 4")
    assert json.loads(out) == {"roots": ["1", "4"]}


def test_roots_and_variety_answer_at_once(cli):
    big = "1000000000000000000000000000001"
    for argv, want in (
            (("roots", "--field", "fp:1000000007", "--vars", "x", "x - 3"),
             "3\n"),
            (("roots", "--vars", "x", "x - " + big), big + "\n"),
            (("variety", "--field", "fp:1000000007", "--vars", "x",
              "--ideal", "x - 3"), "1:3|x=3\n")):
        start = perf_counter()
        code, out, err = cli(*argv)
        assert perf_counter() - start < 1.0
        assert (code, out, err) == (0, want, "")


def test_cech_builds_only_spots_that_can_be_nonempty(cli):
    """Every entry -1: one summand, whose only nonempty spot is the last, so
    the answer must not cost O(n^2)."""
    start = perf_counter()
    code, out, err = cli("cech", "--n", "10000", "--deg=-10001", "--den", "1",
                         "--box", "1")
    assert perf_counter() - start < 1.0
    assert (code, out, err) == (0, "h: " + "0," * 10000 + "1\n", "")


def test_cech_size_limits(cli):
    for argv in (("--n", "200", "--deg", "5", "--den", "1", "--box", "5"),
                 ("--n", "3", "--deg", "1000", "--den", "1", "--box", "1",
                  "--basis", "h0")):
        start = perf_counter()
        code, out, err = cli("cech", *argv)
        assert perf_counter() - start < 1.0
        assert (code, out) == (1, "") and err.startswith("CohomologyTooLarge:")


def test_cech_at_large_degree_answers_at_once(cli):
    start = perf_counter()
    code, out, err = cli("cech", "--n", "3", "--deg", "100000", "--den", "1",
                         "--box", "100000")
    assert perf_counter() - start < 1.0
    assert (code, out, err) == (0, "h: 166676666850001,0,0,0\n", "")


def test_fp_coefficient_roots_answer_at_once(cli):
    # a square root mod 10^9 + 7, and non-residues mod 10^7 + 19 and
    # 10^9 + 7, which a scan of the residues takes seconds to rule out
    for field, expr, want in (
            ("fp:1000000007", "(3*x)^(1/2)", (0, "82062379*x^(1/2)\n")),
            ("fp:10000019", "(2*x)^(1/2)", (1, "")),
            ("fp:1000000007", "(5*x)^(1/2)", (1, ""))):
        start = perf_counter()
        code, out, err = cli("parse", "--field", field, "--vars", "x", expr)
        assert perf_counter() - start < 1.0
        assert (code, out) == want
        assert code == 0 or err.startswith("CompositionNotPolynomial:")


def test_variety_scan_limit(cli):
    code, out, err = cli("variety", "--field", "fp:1000000007", "--vars",
                         "x,y", "--ideal", "x - y")
    assert (code, out) == (1, "") and err.startswith("ScanTooLarge:")


def test_eval_command(cli):
    code, out, _ = cli("eval", "--vars", "x,y", "--point", "2:2,3",
                       "x^(1/2) + y")
    assert (code, out.strip()) == (0, "11")


def test_domain_error_exit_1(cli):
    code, out, err = cli("parse", "--vars", "x", "x +")
    assert code == 1
    assert out == ""
    assert err.startswith("SyntaxError:")
    code, _, err = cli("roots", "--vars", "x,y", "x*y")
    assert code == 1 and err.startswith("NotUnivariate:")


def test_usage_error_exit_2(cli):
    code, _, _ = cli("no-such-command")
    assert code == 2
    code, _, _ = cli()
    assert code == 2
    code, _, _ = cli("cech", "--n", "2")  # missing required options
    assert code == 2


def test_reruns_byte_identical(cli):
    argv = ("groebner", "--vars", "x,y", "--json", "y - 1", "x - y^2")
    first = cli(*argv)
    second = cli(*argv)
    assert first == second
    assert first[0] == 0
    basis = json.loads(first[1])["basis"]
    assert set(basis) == {"y - 1", "x - 1"}


def test_compose_command(cli):
    code, out, _ = cli("compose", "--field", "fp:2", "--vars", "x",
                       "--outer-vars", "t", "1 + t^(1/2) + t^2", "1 + x")
    assert (code, out.strip()) == (0, "x^2 + x^(1/2) + 1")
    code, _, err = cli("compose", "--vars", "x", "--outer-vars", "t",
                       "1 + t^(1/2) + t^2", "1 + x")
    assert code == 1 and err.startswith("CompositionNotPolynomial:")


def test_double_dash_option_value_is_usage_error(cli):
    for argv in (("cech", "--n=--", "--deg", "0", "--den", "1", "--box", "1"),
                 ("eval", "--vars", "x", "--point=--", "x"),
                 ("parse", "--field=--", "--vars", "x", "x")):
        code, out, err = cli(*argv)
        assert (code, out) == (2, "") and "expected one argument" in err
    code, out, _ = cli("parse", "--vars", "x", "--", "--x=--")
    assert (code, out) == (1, "")


# ---- one parser per process ----

_MIXED_ARGV = [
    ("member", "--vars", "x", "--ideal", "x^(1/2)", "x"),
    ("member", "--vars", "x", "--ideal", "x - 1", "--ideal", "x + 1", "1"),
    ("proper", "--vars", "x"),
    ("proper", "--vars", "x", "--ideal", "x", "--ideal", "x - 1"),
    ("variety", "--field", "fp:5", "--vars", "x,y", "--ideal", "x - y"),
    ("variety", "--field", "fp:5", "--vars", "x,y", "--ideal", "x*y - 1",
     "--point-level", "2"),
    ("gcd", "--vars", "x", "x - 1", "x^(1/2) - 1"),
    ("parse", "--json", "--vars", "x", "2*x^(5/6)"),
    ("cech", "--n", "2", "--deg", "-3", "--den", "1", "--box", "3",
     "--basis", "hn"),
    ("no-such-command",),
    ("embed", "--k", "3", "--json"),
    ("kunneth", "--a", "0,1", "--b", "0,0,3"),
    ("cech", "--n", "2"),
    ("proper", "--vars", "x", "--ideal", "x"),
]


def _run_captured(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_parser_is_built_once(monkeypatch):
    builds = []
    build = cli_module.build_parser

    def counting_build():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli_module, "build_parser", counting_build)
    monkeypatch.setattr(cli_module, "_parser", None)
    for argv in _MIXED_ARGV:
        _run_captured(argv)
    assert len(builds) == 1


def test_reused_parser_answers_as_a_fresh_one(monkeypatch):
    fresh = []
    for argv in _MIXED_ARGV:
        monkeypatch.setattr(cli_module, "_parser", None)
        fresh.append(_run_captured(argv))
    reused = [_run_captured(argv) for argv in _MIXED_ARGV]
    assert reused == fresh
    # the ideal lists of earlier calls do not carry over
    assert reused[2][:2] == (0, "true\n")
    assert reused[-1][:2] == (0, "true\n")


def test_closed_stdout_exits_1_without_traceback():
    src = str(Path(cli_module.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-m", "qdeg.cli", "embed",
                             "--k", "5000"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    proc.stdout.read(100)
    proc.stdout.close()  # more than a pipe buffer of output is still to come
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err
