"""The qdeg command line: one entry point, subcommands for every operation.

Results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 domain error (with the stable error identifier), 2 usage error.  All
output is exact; fractions print as a/b.
"""

import argparse
import json
import re
import sys
from fractions import Fraction

from . import charp, cohomology, flatten, geometry, grading, ideals
from .errors import FieldMismatch, QdegError
from .fields import field_from_name
from .parser import parse, print_poly, to_term_list
from .poly import QPolynomial


# Options that take a fraction.  argparse reads a separate value such as
# "-1/2" as an option, so run() glues it to its option as "--deg=-1/2".
_FRACTION_OPTIONS = ("--deg", "--box", "--degree")
_NEGATIVE_VALUE = re.compile(r"-[0-9.]")
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
    out = []
    for arg in argv:
        if out and out[-1] in _FRACTION_OPTIONS and _NEGATIVE_VALUE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
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
    from .fields import QQ
    poly = QPolynomial(QQ, len(varnames), {mono: QQ.one})
    return print_poly(poly, varnames)


def _emit(args, payload, text_lines):
    if getattr(args, "json", False):
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _field_vars(args):
    field = field_from_name(args.field)
    varnames = _split_vars(args.vars) if args.vars else []
    return field, varnames


def _cmd_parse(args):
    field, varnames = _field_vars(args)
    f = parse(args.exprs[0], field, varnames)
    text = print_poly(f, varnames)
    _emit(args, {"poly": text, "terms": to_term_list(f, varnames)}, [text])


def _cmd_gcd(args):
    field, varnames = _field_vars(args)
    f = parse(args.exprs[0], field, varnames)
    g = parse(args.exprs[1], field, varnames)
    d, u, v = ideals.gcd_univariate(f, g)
    texts = {k: print_poly(p, varnames) for k, p in
             (("gcd", d), ("u", u), ("v", v))}
    _emit(args, texts, ["%s: %s" % (k, texts[k]) for k in ("gcd", "u", "v")])


def _ideal_of(args, field, varnames):
    return ideals.IdealPresentation(
        tuple(parse(e, field, varnames) for e in args.ideal))


def _cmd_groebner(args):
    field, varnames = _field_vars(args)
    gens = ideals.IdealPresentation(
        tuple(parse(e, field, varnames) for e in args.exprs))
    gb = ideals.groebner(gens)
    basis = [print_poly(g, varnames) for g in gb.basis]
    payload = {"level": list(gb.level.orders), "basis": basis}
    lines = ["level: %s" % ",".join(str(x) for x in gb.level.orders)]
    lines += ["basis: %s" % b for b in basis]
    _emit(args, payload, lines)


def _cmd_member(args):
    field, varnames = _field_vars(args)
    f = parse(args.exprs[0], field, varnames)
    answer = ideals.ideal_member(f, _ideal_of(args, field, varnames))
    _emit(args, {"member": answer}, ["true" if answer else "false"])


def _cmd_radical_member(args):
    field, varnames = _field_vars(args)
    f = parse(args.exprs[0], field, varnames)
    answer = ideals.radical_member(f, _ideal_of(args, field, varnames))
    _emit(args, {"member": answer}, ["true" if answer else "false"])


def _cmd_proper(args):
    field, varnames = _field_vars(args)
    answer = ideals.is_proper(_ideal_of(args, field, varnames))
    _emit(args, {"proper": answer}, ["true" if answer else "false"])


def _cmd_flatten(args):
    field, varnames = _field_vars(args)
    fs = [parse(e, field, varnames) for e in args.exprs]
    fmap, flats = flatten.flatten(fs)
    texts = [print_poly(g, varnames) for g in flats]
    payload = {"level": list(fmap.orders), "polys": texts}
    lines = ["level: %s" % ",".join(str(x) for x in fmap.orders)] + texts
    _emit(args, payload, lines)


def _cmd_noether(args):
    field, varnames = _field_vars(args)
    f = parse(args.exprs[0], field, varnames)
    shifts, transformed, (coeff, mono) = flatten.noether_substitution(f)
    text = print_poly(transformed, varnames)
    lead = "%s, %s" % (field.format(coeff), _mono_text(mono, varnames))
    payload = {"shifts": [str(a) for a in shifts], "transformed": text,
               "leading": {"coeff": field.format(coeff),
                           "monomial": _mono_text(mono, varnames)}}
    _emit(args, payload, ["shifts: %s" % ",".join(str(a) for a in shifts),
                          "transformed: %s" % text, "leading: %s" % lead])


def _cmd_roots(args):
    field, varnames = _field_vars(args)
    f = parse(args.exprs[0], field, varnames)
    roots = geometry.roots_univariate(f)
    _emit(args, {"roots": [field.format(r) for r in roots]},
          [field.format(r) for r in roots])


def _cmd_eval(args):
    field, varnames = _field_vars(args)
    f = parse(args.exprs[0], field, varnames)
    point = _parse_point(field, args.point)
    value = geometry.evaluate(f, point)
    _emit(args, {"value": field.format(value)}, [field.format(value)])


def _cmd_variety(args):
    field, varnames = _field_vars(args)
    points = geometry.variety_bruteforce(_ideal_of(args, field, varnames),
                                         args.point_level)
    rows = []
    for pt in points:
        rows.append("%d:%s|x=%s" % (
            pt.order,
            ",".join(field.format(u) for u in pt.roots),
            ",".join(field.format(x) for x in pt.coordinates())))
    payload = {"points": [{"order": pt.order,
                           "roots": [field.format(u) for u in pt.roots],
                           "coords": [field.format(x) for x in pt.coordinates()]}
                          for pt in points]}
    _emit(args, payload, rows)


def _cmd_tangent(args):
    field, varnames = _field_vars(args)
    gens = [parse(e, field, varnames) for e in args.ideal]
    point = _parse_point(field, args.point)
    dim, equations = geometry.tangent_space(gens, point)
    texts = [print_poly(eq, varnames) for eq in equations]
    _emit(args, {"dim": dim, "equations": texts},
          ["dim: %d" % dim] + ["eq: %s" % t for t in texts])


def _cmd_components(args):
    field, varnames = _field_vars(args)
    f = parse(args.exprs[0], field, varnames)
    comps = grading.homogeneous_components(f)
    items = sorted(comps.items())
    payload = {str(d): print_poly(p, varnames) for d, p in items}
    _emit(args, payload, ["%s: %s" % (d, print_poly(p, varnames))
                          for d, p in items])


def _cmd_homog(args):
    field, varnames = _field_vars(args)
    f = parse(args.exprs[0], field, varnames)
    at = args.at if args.at is not None else len(varnames)
    F = grading.homogenize(f, args.degree, at)
    names = varnames[:at] + [args.new_var] + varnames[at:]
    text = print_poly(F, names)
    _emit(args, {"poly": text, "vars": names}, [text])


def _cmd_dehomog(args):
    field, varnames = _field_vars(args)
    f = parse(args.exprs[0], field, varnames)
    g = grading.dehomogenize(f, args.chart)
    names = varnames[:args.chart] + varnames[args.chart + 1:]
    text = print_poly(g, names)
    _emit(args, {"poly": text, "vars": names}, [text])


def _cmd_embed(args):
    monos = grading.veronese_rational(args.k)
    texts = [_mono_text(m, ["x", "y"]) for m in monos]
    _emit(args, {"monomials": texts}, texts)


def _cmd_cech(args):
    dims = cohomology.twist_dims(args.n, args.deg, args.den, args.box)
    payload = {"h": list(dims.h)}
    lines = ["h: %s" % ",".join(str(x) for x in dims.h)]
    names = ["X%d" % i for i in range(args.n + 1)]
    if args.basis == "h0":
        basis = cohomology.h0_basis(args.n, args.deg, args.den)
    elif args.basis == "hn":
        basis = cohomology.hn_basis(args.n, args.deg, args.den)
    else:
        basis = None
    if basis is not None:
        texts = [_mono_text(mono, names) for mono in basis]
        payload["basis"] = texts
        lines += ["basis: %s" % t for t in texts]
    _emit(args, payload, lines)


def _cmd_kunneth(args):
    h = cohomology.kunneth_dims(args.a, args.b)
    _emit(args, {"h": list(h)}, ["h: %s" % ",".join(str(x) for x in h)])


def _cmd_proot(args):
    field = field_from_name("fp:%d" % args.p)
    varnames = _split_vars(args.vars) if args.vars else []
    f = parse(args.exprs[0], field, varnames)
    g = charp.p_th_root(f)
    text = print_poly(g, varnames)
    _emit(args, {"poly": text}, [text])


def _cmd_compose(args):
    field = field_from_name(args.field)
    inner_vars = _split_vars(args.vars) if args.vars else []
    outer_vars = _split_vars(args.outer_vars)
    f = parse(args.exprs[0], field, outer_vars)
    gs = [parse(e, field, inner_vars) for e in args.exprs[1:]]
    if len(gs) != len(outer_vars):
        raise FieldMismatch("expected %d inner polynomials" % len(outer_vars))
    result = charp.compose(f, gs)
    text = print_poly(result, inner_vars)
    _emit(args, {"poly": text}, [text])


def _cmd_pullback(args):
    field = field_from_name(args.field)
    source_vars = _split_vars(args.vars) if args.vars else []
    target_vars = _split_vars(args.outer_vars)
    g = parse(args.exprs[0], field, target_vars)
    phi = charp.PolynomialMap(
        tuple(parse(e, field, source_vars) for e in args.exprs[1:]))
    result = charp.pullback(phi, g)
    text = print_poly(result, source_vars)
    _emit(args, {"poly": text}, [text])


def _add_common(sub, exprs="*", ideal=False, point=False):
    sub.add_argument("--field", default="q", help="q or fp:<prime>")
    sub.add_argument("--vars", default="", help="comma-separated variable names")
    sub.add_argument("--json", action="store_true")
    if ideal:
        sub.add_argument("--ideal", action="append", default=[],
                         help="ideal generator (repeatable)")
    if point:
        sub.add_argument("--point", type=_point, required=True,
                         help="point with roots, as L:u1,u2,...")
    if exprs is not None:
        sub.add_argument("exprs", nargs=exprs)


def build_parser():
    top = argparse.ArgumentParser(prog="qdeg",
                                  description="exact rational-exponent "
                                              "polynomial algebra")
    subs = top.add_subparsers(dest="command", required=True)

    specs = [
        ("parse", _cmd_parse, dict(exprs=1)),
        ("gcd", _cmd_gcd, dict(exprs=2)),
        ("groebner", _cmd_groebner, dict(exprs="+")),
        ("member", _cmd_member, dict(exprs=1, ideal=True)),
        ("radical-member", _cmd_radical_member, dict(exprs=1, ideal=True)),
        ("proper", _cmd_proper, dict(exprs=None, ideal=True)),
        ("flatten", _cmd_flatten, dict(exprs="+")),
        ("noether", _cmd_noether, dict(exprs=1)),
        ("roots", _cmd_roots, dict(exprs=1)),
        ("eval", _cmd_eval, dict(exprs=1, point=True)),
        ("tangent", _cmd_tangent, dict(exprs=None, ideal=True, point=True)),
        ("components", _cmd_components, dict(exprs=1)),
        ("dehomog", _cmd_dehomog, dict(exprs=1)),
        ("homog", _cmd_homog, dict(exprs=1)),
    ]
    for name, func, kw in specs:
        sub = subs.add_parser(name)
        _add_common(sub, **kw)
        sub.set_defaults(func=func)
        if name == "dehomog":
            sub.add_argument("--chart", type=int, required=True)
        if name == "homog":
            sub.add_argument("--degree", type=_fraction, required=True)
            sub.add_argument("--new-var", default="h")
            sub.add_argument("--at", type=int, default=None)

    sub = subs.add_parser("variety")
    _add_common(sub, exprs=None, ideal=True)
    sub.add_argument("--point-level", type=int, default=1)
    sub.set_defaults(func=_cmd_variety)

    sub = subs.add_parser("embed")
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=_cmd_embed)

    sub = subs.add_parser("cech")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--deg", type=_fraction, required=True)
    sub.add_argument("--den", type=int, required=True)
    sub.add_argument("--box", type=_fraction, required=True)
    sub.add_argument("--basis", choices=["h0", "hn"])
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=_cmd_cech)

    sub = subs.add_parser("kunneth")
    sub.add_argument("--a", type=_dims, required=True,
                     help="comma-separated dimensions")
    sub.add_argument("--b", type=_dims, required=True)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=_cmd_kunneth)

    sub = subs.add_parser("proot")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--vars", default="")
    sub.add_argument("--json", action="store_true")
    sub.add_argument("exprs", nargs=1)
    sub.set_defaults(func=_cmd_proot)

    for name, func in (("compose", _cmd_compose), ("pullback", _cmd_pullback)):
        sub = subs.add_parser(name)
        sub.add_argument("--field", default="q")
        sub.add_argument("--vars", default="",
                         help="inner (source) variable names")
        sub.add_argument("--outer-vars", required=True,
                         help="outer (target) variable names")
        sub.add_argument("--json", action="store_true")
        sub.add_argument("exprs", nargs="+")
        sub.set_defaults(func=func)

    return top


def run(argv):
    """Dispatch one invocation; returns the process exit code."""
    top = build_parser()
    try:
        _reject_empty_values(top, argv)
        args = top.parse_args(_glue_negative_values(argv))
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        args.func(args)
    except QdegError as exc:
        print("%s: %s" % (exc.ident, exc), file=sys.stderr)
        return 1
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
