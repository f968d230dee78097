"""The qdeg command line: one entry point, subcommands for every operation.

Results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 domain error (with the stable error identifier), 2 usage error.  All
output is exact; fractions print as a/b.

``_COMMANDS`` has one row per subcommand: its name, its handler and its
arguments as (flag, add_argument options) pairs in ``--help`` order.
``run`` reads ``--field`` and ``--vars`` once; a handler takes ``(args,
field, names)`` and returns ``(payload, lines)``, printed as JSON under
``--json``, else line by line.  A word that begins with a single "-" (not
``-h``) is a value: before ``--`` it is glued to a preceding option that
takes one (``--deg -1/2`` reads as ``--deg=-1/2``); anywhere else it is
passed with a leading space, which argparse reads as a positional and the
grammar skips.
"""

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import charp, cohomology, flatten, geometry, grading, ideals
from .errors import FieldMismatch, IntegerTooLong, QdegError
from .fields import QQ, field_from_name
from .parser import parse, print_poly, to_term_list
from .poly import QPolynomial


_INTEGER = re.compile(r"[+-]?[0-9]+")
_ROOT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("not a fraction: %r" % text)


def _dims(text):
    """A comma-separated list of integers (kunneth_dims checks their values)."""
    items = _split_vars(text)
    if not all(_INTEGER.fullmatch(x) for x in items):
        raise argparse.ArgumentTypeError(
            "not a comma-separated list of integers: %r" % text)
    return [int(x) for x in items]


def _point(text):
    """L:u1,u2,... as (L, [u1, u2, ...]): an integer root order and roots
    written as integers or a/b, checked before the field is known."""
    order, colon, roots = text.partition(":")
    order, roots = order.strip(), _split_vars(roots)
    if not (colon and _INTEGER.fullmatch(order)
            and all(_ROOT.fullmatch(r) for r in roots)):
        raise argparse.ArgumentTypeError(
            "not a point L:u1,u2,... with integer or a/b roots: %r" % text)
    return int(order), roots


def _glue_negative_values(argv):
    """Make the words before "--" that begin with one "-" values."""
    out = []
    for i, arg in enumerate(argv):
        if arg == "--":
            return out + argv[i:]
        if not arg.startswith("-") or arg.startswith("--") or arg == "-h":
            out.append(arg)
        elif out and out[-1] in _VALUE_OPTIONS:
            out[-1] += "=" + arg
        else:
            out.append(" " + arg)
    return out


def _reject_empty_values(top, argv):
    """argparse reads ``--opt=--`` as an empty list, not as a missing value."""
    for arg in argv:
        if arg == "--":
            return
        if arg.startswith("--") and arg.endswith("=--"):
            top.error("argument %s: expected one argument" % arg[:-3])


def _split_vars(text):
    return [v.strip() for v in text.split(",") if v.strip()]


def _parse_point(field, point):
    order, roots = point
    return geometry.PointWithRoots(field, order,
                                   tuple(field.parse(r) for r in roots))


def _mono_text(mono, varnames):
    poly = QPolynomial(QQ, len(varnames), {mono: QQ.one})
    return print_poly(poly, varnames)


def _ideal(exprs, field, varnames):
    return ideals.IdealPresentation(
        tuple(parse(e, field, varnames) for e in exprs))


def _cmd_parse(args, field, varnames):
    f = parse(args.exprs[0], field, varnames)
    text = print_poly(f, varnames)
    return {"poly": text, "terms": to_term_list(f, varnames)}, [text]


def _cmd_gcd(args, field, varnames):
    f = parse(args.exprs[0], field, varnames)
    g = parse(args.exprs[1], field, varnames)
    d, u, v = ideals.gcd_univariate(f, g)
    texts = {k: print_poly(p, varnames) for k, p in
             (("gcd", d), ("u", u), ("v", v))}
    return texts, ["%s: %s" % (k, texts[k]) for k in ("gcd", "u", "v")]


def _cmd_groebner(args, field, varnames):
    gb = ideals.groebner(_ideal(args.exprs, field, varnames))
    basis = [print_poly(g, varnames) for g in gb.basis]
    payload = {"level": list(gb.level.orders), "basis": basis}
    lines = ["level: %s" % ",".join(str(x) for x in gb.level.orders)]
    return payload, lines + ["basis: %s" % b for b in basis]


def _cmd_member(args, field, varnames):
    """member and radical-member."""
    f = parse(args.exprs[0], field, varnames)
    test = (ideals.ideal_member if args.command == "member"
            else ideals.radical_member)
    answer = test(f, _ideal(args.ideal, field, varnames))
    return {"member": answer}, ["true" if answer else "false"]


def _cmd_proper(args, field, varnames):
    answer = ideals.is_proper(_ideal(args.ideal, field, varnames))
    return {"proper": answer}, ["true" if answer else "false"]


def _cmd_flatten(args, field, varnames):
    fs = [parse(e, field, varnames) for e in args.exprs]
    fmap, flats = flatten.flatten(fs)
    texts = [print_poly(g, varnames) for g in flats]
    payload = {"level": list(fmap.orders), "polys": texts}
    lines = ["level: %s" % ",".join(str(x) for x in fmap.orders)]
    return payload, lines + texts


def _cmd_noether(args, field, varnames):
    f = parse(args.exprs[0], field, varnames)
    shifts, transformed, (coeff, mono) = flatten.noether_substitution(f)
    text = print_poly(transformed, varnames)
    coeff, mono = field.format(coeff), _mono_text(mono, varnames)
    payload = {"shifts": [str(a) for a in shifts], "transformed": text,
               "leading": {"coeff": coeff, "monomial": mono}}
    return payload, ["shifts: %s" % ",".join(str(a) for a in shifts),
                     "transformed: %s" % text,
                     "leading: %s, %s" % (coeff, mono)]


def _cmd_roots(args, field, varnames):
    f = parse(args.exprs[0], field, varnames)
    roots = [field.format(r) for r in geometry.roots_univariate(f)]
    return {"roots": roots}, roots


def _cmd_eval(args, field, varnames):
    f = parse(args.exprs[0], field, varnames)
    point = _parse_point(field, args.point)
    value = field.format(geometry.evaluate(f, point))
    return {"value": value}, [value]


def _cmd_variety(args, field, varnames):
    points = geometry.variety_bruteforce(_ideal(args.ideal, field, varnames),
                                         args.point_level)
    payload = {"points": [{"order": pt.order,
                           "roots": [field.format(u) for u in pt.roots],
                           "coords": [field.format(x) for x in pt.coordinates()]}
                          for pt in points]}
    return payload, ["%d:%s|x=%s" % (pt["order"], ",".join(pt["roots"]),
                                     ",".join(pt["coords"]))
                     for pt in payload["points"]]


def _cmd_tangent(args, field, varnames):
    # the generators as given: an IdealPresentation would drop zeros
    gens = [parse(e, field, varnames) for e in args.ideal]
    point = _parse_point(field, args.point)
    dim, equations = geometry.tangent_space(gens, point)
    texts = [print_poly(eq, varnames) for eq in equations]
    return ({"dim": dim, "equations": texts},
            ["dim: %d" % dim] + ["eq: %s" % t for t in texts])


def _cmd_components(args, field, varnames):
    f = parse(args.exprs[0], field, varnames)
    items = sorted(grading.homogeneous_components(f).items())
    payload = {str(d): print_poly(p, varnames) for d, p in items}
    return payload, ["%s: %s" % item for item in payload.items()]


def _cmd_homog(args, field, varnames):
    f = parse(args.exprs[0], field, varnames)
    at = args.at if args.at is not None else len(varnames)
    F = grading.homogenize(f, args.degree, at)
    names = varnames[:at] + [args.new_var] + varnames[at:]
    text = print_poly(F, names)
    return {"poly": text, "vars": names}, [text]


def _cmd_dehomog(args, field, varnames):
    f = parse(args.exprs[0], field, varnames)
    g = grading.dehomogenize(f, args.chart)
    names = varnames[:args.chart] + varnames[args.chart + 1:]
    text = print_poly(g, names)
    return {"poly": text, "vars": names}, [text]


def _cmd_embed(args, field, varnames):
    monos = grading.veronese_rational(args.k)
    texts = [_mono_text(m, ["x", "y"]) for m in monos]
    return {"monomials": texts}, texts


def _cmd_cech(args, field, varnames):
    dims = cohomology.twist_dims(args.n, args.deg, args.den, args.box)
    payload = {"h": list(dims.h)}
    lines = ["h: %s" % ",".join(str(x) for x in dims.h)]
    if args.basis is not None:
        find = (cohomology.h0_basis if args.basis == "h0"
                else cohomology.hn_basis)
        basis = find(args.n, args.deg, args.den)
        names = ["X%d" % i for i in range(args.n + 1)]
        payload["basis"] = [_mono_text(mono, names) for mono in basis]
        lines += ["basis: %s" % t for t in payload["basis"]]
    return payload, lines


def _cmd_kunneth(args, field, varnames):
    h = cohomology.kunneth_dims(args.a, args.b)
    return {"h": list(h)}, ["h: %s" % ",".join(str(x) for x in h)]


def _cmd_proot(args, field, varnames):
    field = field_from_name("fp:%d" % args.p)
    f = parse(args.exprs[0], field, varnames)
    text = print_poly(charp.p_th_root(f), varnames)
    return {"poly": text}, [text]


def _cmd_compose(args, field, varnames):
    """compose and pullback: the first expression is over --outer-vars,
    the others over --vars."""
    outer_vars = _split_vars(args.outer_vars)
    f = parse(args.exprs[0], field, outer_vars)
    gs = [parse(e, field, varnames) for e in args.exprs[1:]]
    if args.command == "pullback":
        result = charp.pullback(charp.PolynomialMap(tuple(gs)), f)
    elif len(gs) != len(outer_vars):
        raise FieldMismatch("expected %d inner polynomials" % len(outer_vars))
    else:
        result = charp.compose(f, gs)
    text = print_poly(result, varnames)
    return {"poly": text}, [text]


_FIELD = ("--field", dict(default="q", help="q or fp:<prime>"))
_VARS = ("--vars", dict(default="", help="comma-separated variable names"))
_JSON = ("--json", dict(action="store_true"))
_IDEAL = ("--ideal", dict(action="append", default=[],
                          help="ideal generator (repeatable)"))
_POINT = ("--point", dict(type=_point, required=True,
                          help="point with roots, as L:u1,u2,..."))
_COMMON = (_FIELD, _VARS, _JSON)
_ONE, _TWO, _SOME = (("exprs", dict(nargs=n)) for n in (1, 2, "+"))
_MAP = (("--field", dict(default="q")),
        ("--vars", dict(default="", help="inner (source) variable names")),
        ("--outer-vars", dict(required=True,
                              help="outer (target) variable names")),
        _JSON, _SOME)

_COMMANDS = (
    ("parse", _cmd_parse, _COMMON + (_ONE,)),
    ("gcd", _cmd_gcd, _COMMON + (_TWO,)),
    ("groebner", _cmd_groebner, _COMMON + (_SOME,)),
    ("member", _cmd_member, _COMMON + (_IDEAL, _ONE)),
    ("radical-member", _cmd_member, _COMMON + (_IDEAL, _ONE)),
    ("proper", _cmd_proper, _COMMON + (_IDEAL,)),
    ("flatten", _cmd_flatten, _COMMON + (_SOME,)),
    ("noether", _cmd_noether, _COMMON + (_ONE,)),
    ("roots", _cmd_roots, _COMMON + (_ONE,)),
    ("eval", _cmd_eval, _COMMON + (_POINT, _ONE)),
    ("tangent", _cmd_tangent, _COMMON + (_IDEAL, _POINT)),
    ("components", _cmd_components, _COMMON + (_ONE,)),
    ("dehomog", _cmd_dehomog, _COMMON + (
        _ONE, ("--chart", dict(type=int, required=True)))),
    ("homog", _cmd_homog, _COMMON + (
        _ONE, ("--degree", dict(type=_fraction, required=True)),
        ("--new-var", dict(default="h")),
        ("--at", dict(type=int, default=None)))),
    ("variety", _cmd_variety, _COMMON + (
        _IDEAL, ("--point-level", dict(type=int, default=1)))),
    ("embed", _cmd_embed, (("--k", dict(type=int, required=True)), _JSON)),
    ("cech", _cmd_cech, (("--n", dict(type=int, required=True)),
                         ("--deg", dict(type=_fraction, required=True)),
                         ("--den", dict(type=int, required=True)),
                         ("--box", dict(type=_fraction, required=True)),
                         ("--basis", dict(choices=["h0", "hn"])), _JSON)),
    ("kunneth", _cmd_kunneth, (
        ("--a", dict(type=_dims, required=True,
                     help="comma-separated dimensions")),
        ("--b", dict(type=_dims, required=True)), _JSON)),
    ("proot", _cmd_proot, (("--p", dict(type=int, required=True)),
                           ("--vars", dict(default="")), _JSON, _ONE)),
    ("compose", _cmd_compose, _MAP),
    ("pullback", _cmd_compose, _MAP),
)

# The options that take a value, to which _glue_negative_values glues.
_VALUE_OPTIONS = frozenset(
    flag for _, _, arguments in _COMMANDS for flag, options in arguments
    if flag.startswith("--") and options.get("action") != "store_true")


def build_parser():
    top = argparse.ArgumentParser(prog="qdeg",
                                  description="exact rational-exponent "
                                              "polynomial algebra")
    subs = top.add_subparsers(dest="command", required=True)
    for name, handler, arguments in _COMMANDS:
        sub = subs.add_parser(name)
        for flag, options in arguments:
            sub.add_argument(flag, **options)
        sub.set_defaults(handler=handler)
    return top


_parser = None


def run(argv):
    """Dispatch one invocation; returns the process exit code.  The parser
    is built on the first call and reused by later ones."""
    global _parser
    top = _parser = _parser or build_parser()
    try:
        _reject_empty_values(top, argv)
        args = top.parse_args(_glue_negative_values(argv))
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        field = field_from_name(getattr(args, "field", "q"))
        varnames = _split_vars(getattr(args, "vars", ""))
        payload, lines = args.handler(args, field, varnames)
        for line in [json.dumps(payload)] if args.json else lines:
            print(line)
        return 0
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        error = IntegerTooLong("an integer has more than %d decimal digits"
                               % sys.get_int_max_str_digits())
    except QdegError as exc:
        error = exc
    print("%s: %s" % (error.ident, error), file=sys.stderr)
    return 1


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; send what is left nowhere, so the
        # flush at exit cannot fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
