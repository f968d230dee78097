"""The operation lists of the two workloads.

``build(workload, seed, counts)`` turns the seeded inputs of ``gen`` into a
list of ``Op``s: ``ideals_cech`` runs the ideals ops and then the cech ops,
``algebra`` the rest.  Each op makes exactly one call into qdeg's public API
(or one ``qdeg.cli.run``), which is what the benchmark times, and carries a
check built on ``oracles`` plus a canonical text of its result for the
output digest.  Ops run in list order in one closed loop; an op may read
what an earlier op of the same list stored in ``state``.
"""

import contextlib
import io
from fractions import Fraction
from math import lcm

import qdeg
from qdeg import cli
from qdeg.charp import PolynomialMap
from qdeg.cohomology import h0_basis, hn_basis, kunneth_dims, twist_dims
from qdeg.flatten import flatten as flatten_family, noether_substitution
from qdeg.grading import (dehomogenize, homogeneous_components, homogenize,
                          in_irrelevant_ideal, is_homogeneous, scaling_check,
                          veronese_rational)
from qdeg.poly import Monomial, QPolynomial

from . import gen, oracles

# Failures that reproduce at the commit this benchmark was written for and
# are fixed by the ROADMAP's correctness item: qdeg/__init__.py rebinds
# qdeg.flatten to the function, so `qdeg flatten` and `qdeg noether` die
# with AttributeError inside cli.py.  They stay in the mix and count as
# failed ops; any other failure makes the run incorrect.
KNOWN_DEFECTS = {
    "cli.run flatten": "AttributeError",
    "cli.run noether": "AttributeError",
}


class Op:
    """One public call.  ``call()`` does the call and returns its result;
    ``check(result)`` returns None or a message; ``canon(result)`` is the
    canonical text that enters the output digest."""

    __slots__ = ("kind", "label", "call", "check", "canon")

    def __init__(self, kind, label, call, check, canon=repr):
        self.kind = kind
        self.label = label
        self.call = call
        self.check = check
        self.canon = canon


def _field(name, p):
    return qdeg.QQ if name == "q" else qdeg.PrimeField(p)


def _poly(field, nvars, terms):
    p = field.characteristic
    acc = {}
    for exps, c in terms:
        mono = Monomial.make(enumerate(exps))
        acc[mono] = field.add(acc.get(mono, field.zero),
                              oracles.reduce_coeff(c, p))
    return QPolynomial(field, nvars, acc)


def _terms(poly):
    """Plain term list of a qdeg polynomial (read straight from its dict)."""
    out = []
    for mono, c in poly.terms.items():
        exps = [Fraction(0)] * poly.nvars
        for i, e in mono.exps:
            exps[i] = e
        out.append((tuple(exps), c))
    return out


def _canon_poly(poly):
    return repr(sorted((tuple(str(e) for e in exps), str(c))
                       for exps, c in _terms(poly)))


def _expect(value):
    def check(result):
        if result != value:
            return "expected %r, got %r" % (value, result)
        return None
    return check


# ---------------------------------------------------------------------------
# ideals

def _scaled(terms, level):
    return tuple((tuple(Fraction(e, level) for e in exps), c)
                 for exps, c in terms)


def _member_terms(gens, multipliers, p):
    """sum_i c_i * Y_{j_i} * g_i as a plain term list (integer exponents)."""
    acc = {}
    for g, (j, c) in zip(gens, multipliers):
        for exps, a in g:
            e = list(exps)
            e[j] += 1
            key = tuple(e)
            val = acc.get(key, 0) + oracles.reduce_coeff(a, p) * oracles.reduce_coeff(c, p)
            acc[key] = val % p if p else val
    return tuple((k, v) for k, v in sorted(acc.items()) if v)


def _plus_one(terms, nvars):
    acc = dict(terms)
    zero = (0,) * nvars
    acc[zero] = acc.get(zero, 0) + 1
    return tuple((k, v) for k, v in sorted(acc.items()) if v)


def _check_basis(v, p, counts):
    """The reduced basis is monic, minimal and at the level of the inputs;
    every generator reduces to zero by it, every element vanishes at the
    planted root, and the standard monomials are between 1 and the root
    bound in number."""
    gens = [{e: c for e, c in g} for g in v["gens"]]

    def check(gb):
        if gb.level.orders != (v["level"],) * v["nvars"]:
            return "level %r, expected %d" % (gb.level.orders, v["level"])
        basis, leads = [], []
        for g in gb.basis:
            terms = _terms(g)
            if any(e.denominator != 1 for exps, _ in terms for e in exps):
                return "basis element with fractional exponents"
            poly = {tuple(int(e) for e in exps): c for exps, c in terms}
            lead = max(poly, key=oracles.grevlex_key)
            if poly[lead] != 1:
                return "basis element is not monic"
            if oracles.evaluate_terms(terms, v["root"], 1, p) != 0:
                return "basis element does not vanish at the planted root"
            basis.append(poly)
            leads.append(lead)
        for i, a in enumerate(leads):
            for j, b in enumerate(leads):
                if i != j and all(x <= y for x, y in zip(a, b)):
                    return "basis is not minimal"
        if not all(oracles.reduces_to_zero(g, basis, p) for g in gens):
            return "a generator does not reduce to zero"
        got = oracles.standard_monomial_count(leads, v["nvars"])
        bound = gen.ROOT_BOUND[(v["system"], v["size"])]
        if got is None or not 1 <= got <= bound:
            return "%r standard monomials, root bound %d" % (got, bound)
        counts["ideals.groebner.basis_size"] += len(gb.basis)
        counts["ideals.groebner.basis_terms"] += sum(len(g.terms) for g in gb.basis)
        bits = max((max(Fraction(c).numerator.bit_length(),
                        Fraction(c).denominator.bit_length())
                    for g in gb.basis for c in g.terms.values()), default=0)
        counts["ideals.groebner.basis_coeff_bits_max"] = max(
            counts["ideals.groebner.basis_coeff_bits_max"], bits)
        return None
    return check


def _canon_basis(gb):
    return repr((gb.level.orders, [_canon_poly(g) for g in gb.basis]))


def ideals_ops(seed, counts):
    counts.update({"ideals.groebner.basis_size": 0,
                   "ideals.groebner.basis_terms": 0,
                   "ideals.groebner.basis_coeff_bits_max": 0})
    ops = []
    for v in gen.ideal_variants(seed):
        field = _field(v["field"], gen.P_IDEALS)
        p = field.characteristic
        nv, level = v["nvars"], v["level"]
        gens = qdeg.IdealPresentation(tuple(
            _poly(field, nv, _scaled(g, level)) for g in v["gens"]))
        tag = "%s-%d/%s/L%d" % (v["system"], v["size"], v["field"], level)
        ops.append(Op("ideals.groebner", tag,
                      lambda g=gens: qdeg.groebner(g),
                      _check_basis(v, p, counts), _canon_basis))
        pairs = []
        for multipliers in v["members"]:
            member = _member_terms(v["gens"], multipliers, p)
            f_in = _poly(field, nv, _scaled(member, level))
            f_out = _poly(field, nv, _scaled(_plus_one(member, nv), level))
            pairs.append((f_in, f_out))
            ops.append(Op("ideals.ideal_member", tag + "/in",
                          lambda f=f_in, g=gens: qdeg.ideal_member(f, g),
                          _expect(True)))
            ops.append(Op("ideals.ideal_member", tag + "/out",
                          lambda f=f_out, g=gens: qdeg.ideal_member(f, g),
                          _expect(False)))
        ops.append(Op("ideals.is_proper", tag,
                      lambda g=gens: qdeg.is_proper(g), _expect(True)))
        if v["radical"]:
            f_in, f_out = pairs[0]
            ops.append(Op("ideals.radical_member", tag + "/in",
                          lambda f=f_in, g=gens: qdeg.radical_member(f, g),
                          _expect(True)))
            ops.append(Op("ideals.radical_member", tag + "/out",
                          lambda f=f_out, g=gens: qdeg.radical_member(f, g),
                          _expect(False)))
    return ops


# ---------------------------------------------------------------------------
# cech

def _check_twist(n, m, level, box, counts):
    bound, total = int(box * level), int(m * level)

    def check(dims):
        counts["cohomology.twist_dims.multidegrees"] += oracles.count_vectors(
            n + 1, -bound, bound, total)
        want = [0] * (n + 1)
        want[0] += oracles.count_vectors(n + 1, 0, bound, total)
        want[n] += oracles.count_vectors(n + 1, -bound, -1, total)
        if tuple(dims.h) != tuple(want):
            return "h = %r, expected %r" % (dims.h, want)
        return None
    return check


def _check_basis_list(kind, n, m, level):
    total = int(m * level)

    def check(basis):
        want = (oracles.h0_count if kind == "h0" else oracles.hn_count)(n, total)
        if len(basis) != want:
            return "%s basis has %d elements, expected %d" % (kind, len(basis), want)
        seen = set()
        for mono in basis:
            exps = [Fraction(0)] * (n + 1)
            for i, e in mono.exps:
                exps[i] = e
            if sum(exps) != m or any((e * level).denominator != 1 for e in exps):
                return "basis monomial of wrong degree or level"
            if any(e < 0 for e in exps) if kind == "h0" else any(e >= 0 for e in exps):
                return "basis monomial with wrong signs"
            seen.add(tuple(exps))
        if len(seen) != len(basis):
            return "repeated basis monomial"
        return None
    return check


def _canon_monos(basis):
    return repr([tuple((i, str(e)) for i, e in mono.exps) for mono in basis])


def cech_ops(seed, counts):
    counts["cohomology.twist_dims.multidegrees"] = 0
    twists, bases, kunneth = gen.cech_grid(seed)
    ops = []
    for n, m, level, box in twists:
        ops.append(Op("cohomology.twist_dims", "n%d/%s/L%d/box%s" % (n, m, level, box),
                      lambda a=(n, m, level, box): twist_dims(*a),
                      _check_twist(n, m, level, box, counts),
                      lambda d: repr(d.h)))
    for kind, n, m, level in bases:
        fn = h0_basis if kind == "h0" else hn_basis
        ops.append(Op("cohomology.%s_basis" % kind, "n%d/%s/L%d" % (n, m, level),
                      lambda fn=fn, a=(n, m, level): fn(*a),
                      _check_basis_list(kind, n, m, level), _canon_monos))
    for a, b in kunneth:
        ops.append(Op("cohomology.kunneth_dims", "%d+%d" % (len(a), len(b)),
                      lambda a=a, b=b: kunneth_dims(a, b),
                      _expect(oracles.convolve(a, b))))
    return ops


# ---------------------------------------------------------------------------
# algebra

NAMES = ("x", "y", "z")


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue()


def _check_cli(expected, counts):
    def check(result):
        code, out = result
        counts["cli.run.stdout_bytes"] += len(out.encode())
        if code != 0:
            return "exit code %d" % code
        if out != expected:
            return "stdout %r, library gives %r" % (out[:200], expected[:200])
        return None
    return check


def algebra_ops(seed, counts):
    counts.update({"cli.run.stdout_bytes": 0,
                   "geometry.variety_bruteforce.points_scanned": 0})
    data = gen.algebra_inputs(seed)
    state = {}
    ops = []

    def add(kind, label, call, check, canon=repr):
        ops.append(Op(kind, label, call, check, canon))

    # products, printed and parsed back; evaluation must be multiplicative
    for k, (fname, factors) in enumerate(data["products"]):
        field = _field(fname, gen.P_ALGEBRA)
        p = field.characteristic
        nv = len(factors[0][0][0])
        names = NAMES[:nv]
        polys = [_poly(field, nv, t) for t in factors]
        key = "prod%d" % k
        state[key] = polys[0]
        for j, g in enumerate(polys[1:]):
            def mul(key=key, g=g):
                state[key] = state[key] * g
                return state[key]
            add("poly.mul", "%s/%d" % (key, j), mul,
                _check_product(factors[:j + 2], p), _canon_poly)

        def show(key=key, names=names):
            state[key + "/text"] = qdeg.print_poly(state[key], names)
            return state[key + "/text"]
        add("parser.print_poly", key, show,
            lambda text, key=key: _check_printed(text, state[key]))

        def reparse(key=key, field=field, names=names):
            return qdeg.parse(state[key + "/text"], field, names)
        add("parser.parse", key, reparse,
            lambda r, key=key: None if r == state[key] else "parse(print(f)) != f",
            _canon_poly)
        order = 12
        for point in data["points"][:2]:
            roots = point[:nv]
            pt = qdeg.PointWithRoots(field, order, tuple(
                oracles.reduce_coeff(u, p) for u in roots))

            def ev_prod(key=key, pt=pt):
                return qdeg.evaluate(state[key], pt)

            def check_value(value, factors=factors, roots=roots, p=p, order=order):
                want = _product_value(factors, roots, order, p)
                return None if value == want else "value %r, expected %r" % (value, want)
            add("geometry.evaluate", key, ev_prod, check_value)

    for fname, base, e in data["powers"]:
        field = _field(fname, gen.P_ALGEBRA)
        p = field.characteristic
        nv = len(base[0][0])
        f = _poly(field, nv, base)

        def check_pow(r, base=base, e=e, p=p, nv=nv):
            roots = (2, 3, 5)[:nv]
            want = oracles.evaluate_terms(base, roots, 6, p) ** e
            got = oracles.evaluate_terms(_terms(r), roots, 6, p)
            return None if (want % p if p else want) == got else "power value mismatch"
        add("poly.pow", "%s^%d" % (fname, e), lambda f=f, e=e: f ** e, check_pow,
            _canon_poly)

    # flatten / unflatten round trips at the minimal joint level
    for k, (fname, terms) in enumerate(data["small"]):
        field = _field(fname, gen.P_ALGEBRA)
        f = _poly(field, 3, terms)
        want_level = [lcm(*(exps[i].denominator for exps, _ in terms))
                      for i in range(3)]

        def flat(f=f, k=k):
            state["flat%d" % k] = flatten_family([f])
            return state["flat%d" % k]

        def check_flat(r, want=tuple(want_level)):
            fmap, (g,) = r
            if fmap.orders != want:
                return "level %r, expected %r" % (fmap.orders, want)
            if any(e.denominator != 1 for exps, _ in _terms(g) for e in exps):
                return "flattened polynomial has fractional exponents"
            return None
        add("flatten.flatten", "small%d" % k, flat, check_flat,
            lambda r: repr((r[0].orders, _canon_poly(r[1][0]))))

        def unflat(k=k):
            fmap, (g,) = state["flat%d" % k]
            return qdeg.unflatten(fmap, g)
        add("flatten.unflatten", "small%d" % k, unflat,
            lambda r, f=f: None if r == f else "unflatten(flatten(f)) != f",
            _canon_poly)

        # grading on the same polynomial
        add("grading.homogeneous_components", "small%d" % k,
            lambda f=f: homogeneous_components(f),
            lambda r, f=f: _check_components(r, f),
            lambda r: repr(sorted((str(d), _canon_poly(g)) for d, g in r.items())))
        add("grading.is_homogeneous", "small%d" % k,
            lambda f=f: is_homogeneous(f),
            _expect(_degree_if_homogeneous(terms)))
        add("grading.in_irrelevant_ideal", "small%d" % k,
            lambda f=f: in_irrelevant_ideal(f),
            _expect(all(sum(exps) != 0 for exps, _ in terms)))
        top = max(sum(exps) for exps, _ in terms)

        def homog(f=f, top=top, k=k):
            state["homog%d" % k] = homogenize(f, top + 1, 1)
            return state["homog%d" % k]
        add("grading.homogenize", "small%d" % k, homog,
            lambda r, top=top: None if _is_homogeneous_terms(_terms(r), top + 1)
            else "homogenize did not give degree %s" % (top + 1), _canon_poly)
        add("grading.dehomogenize", "small%d" % k,
            lambda k=k: dehomogenize(state["homog%d" % k], 1),
            lambda r, f=f: None if r == f else "dehomogenize(homogenize(f)) != f",
            _canon_poly)

    for k, (fname, terms) in enumerate(data["noether"]):
        field = _field(fname, gen.P_ALGEBRA)
        f = _poly(field, 2, terms)
        add("flatten.noether_substitution", "noether%d" % k,
            lambda f=f: noether_substitution(f), _check_noether,
            lambda r: repr(([str(a) for a in r[0]], _canon_poly(r[1]))))

    # Bezout gcd: d | f, d | g and u*f + v*g = d, by dense arithmetic
    for k, (fname, h, a, b) in enumerate(data["gcd"]):
        field = _field(fname, gen.P_ALGEBRA)
        p = field.characteristic
        hp, ap, bp = (_poly(field, 1, t) for t in (h, a, b))

        def build(k=k, hp=hp, ap=ap, bp=bp):
            state["gcd%d" % k] = (ap * hp, bp * hp)
            return state["gcd%d" % k]
        add("poly.mul", "gcd%d" % k, build,
            lambda r, checks=(_check_product((a, h), p), _check_product((b, h), p)):
            checks[0](r[0]) or checks[1](r[1]),
            lambda r: repr([_canon_poly(x) for x in r]))
        add("ideals.gcd_univariate", "gcd%d/%s" % (k, fname),
            lambda k=k: qdeg.gcd_univariate(*state["gcd%d" % k]),
            lambda r, k=k, p=p: _check_bezout(r, state["gcd%d" % k], p),
            lambda r: repr([_canon_poly(x) for x in r]))

    # roots of a product of planted linear factors in x^(1/2), over Q
    for k, roots in enumerate([(1, -2, 3), (2, 5, -7, 4)]):
        q = qdeg.QQ
        f = QPolynomial.constant(q, 1, 1)
        for r in roots:
            f = f * _poly(q, 1, [((Fraction(1, 2),), 1), ((Fraction(0),), -r)])
        # a zero t of the flattened polynomial is reported as x = t^2
        want = sorted(Fraction(r) ** 2 for r in roots)
        add("geometry.roots_univariate", "roots%d" % k,
            lambda f=f: qdeg.roots_univariate(f),
            lambda r, want=want: _check_roots(r, want))

    # characteristic p over F_5
    fp5 = qdeg.PrimeField(gen.P_CHARP)
    for k, terms in enumerate(data["proot"]):
        f = _poly(fp5, 2, terms)
        add("charp.p_th_root", "proot%d" % k, lambda f=f: qdeg.p_th_root(f),
            lambda r, f=f: None if r ** gen.P_CHARP == f else "p_th_root(f)^p != f",
            _canon_poly)
    cpts = data["charp_points"]
    for k, (outer, inner) in enumerate(data["compose"]):
        f = _poly(fp5, 2, outer)
        gs = [_poly(fp5, 2, t) for t in inner]
        add("charp.compose", "compose%d" % k,
            lambda f=f, gs=gs: qdeg.compose(f, gs),
            lambda r, outer=outer, inner=inner: _check_composite(r, outer, inner, cpts),
            _canon_poly)
    for k, (target, comps) in enumerate(data["pullback"]):
        g = _poly(fp5, 2, target)
        phi = PolynomialMap(tuple(_poly(fp5, 3, t) for t in comps))
        add("charp.pullback", "pullback%d" % k,
            lambda phi=phi, g=g: qdeg.pullback(phi, g),
            lambda r, target=target, comps=comps: _check_composite(r, target, comps, cpts),
            _canon_poly)

    # variety scans over F_31 and tangent spaces
    f31 = qdeg.PrimeField(gen.P_VARIETY)
    for k, (g1, g2, order) in enumerate(data["variety"]):
        ideal = qdeg.IdealPresentation((_poly(f31, 3, g1), _poly(f31, 3, g2)))
        add("geometry.variety_bruteforce", "variety%d/L%d" % (k, order),
            lambda i=ideal, o=order: qdeg.variety_bruteforce(i, o),
            lambda r, g=(g1, g2), o=order: _check_variety(r, g, o, counts),
            lambda r: repr([(pt.order, pt.roots) for pt in r]))
    for k, (fname, order, roots, gens) in enumerate(data["tangent"]):
        field = _field(fname, gen.P_ALGEBRA)
        p = field.characteristic
        shifted = []
        for t in gens:
            c = oracles.evaluate_terms(t, roots, order, p)
            shifted.append(tuple(t) + (((Fraction(0),) * 3, -c),))
        polys = [_poly(field, 3, t) for t in shifted]
        pt = qdeg.PointWithRoots(field, order, tuple(
            oracles.reduce_coeff(u, p) for u in roots))
        add("geometry.tangent_space", "tangent%d/%s" % (k, fname),
            lambda g=polys, pt=pt: qdeg.tangent_space(g, pt),
            lambda r, s=shifted, roots=roots, o=order, p=p: _check_tangent(r, s, roots, o, p),
            lambda r: repr((r[0], [_canon_poly(e) for e in r[1]])))
    for k in data["veronese"]:
        add("grading.veronese_rational", "k%d" % k,
            lambda k=k: veronese_rational(k),
            lambda r, k=k: _check_veronese(r, k), _canon_monos)
    f31pt = qdeg.PointWithRoots(f31, 2, (3, 5, 7))
    for k, (g1, _, _) in enumerate(data["variety"]):
        f = _poly(f31, 3, g1)
        hom = homogeneous_components(f)
        top = max(hom)
        piece = hom[top]
        add("grading.scaling_check", "scale%d" % k,
            lambda piece=piece: scaling_check(piece, 4, f31pt), _expect(True))

    ops.extend(_cli_ops(seed, data, counts))
    return ops


def _product_value(factors, roots, order, p):
    value = oracles.reduce_coeff(1, p)
    for t in factors:
        value = value * oracles.evaluate_terms(t, roots, order, p)
        if p:
            value %= p
    return value


def _check_product(factors, p):
    """The product's value at a fixed point is the product of the values."""
    def check(result):
        roots = (2, 3, 5)[:result.nvars]
        want = _product_value(factors, roots, 12, p)
        got = oracles.evaluate_terms(_terms(result), roots, 12, p)
        return None if got == want else "product value %r, expected %r" % (got, want)
    return check


def _check_printed(text, poly):
    """Terms are joined by ' + ' or ' - ', which no coefficient or exponent
    contains; the round trip itself is the parse op's check."""
    pieces = text.count(" + ") + text.count(" - ") + 1
    if pieces != len(poly.terms):
        return "printed %d terms of %d" % (pieces, len(poly.terms))
    return None


def _is_homogeneous_terms(terms, degree):
    return all(sum(exps) == degree for exps, _ in terms)


def _degree_if_homogeneous(terms):
    degrees = {sum(exps) for exps, _ in terms}
    return degrees.pop() if len(degrees) == 1 else None


def _check_components(comps, f):
    total = QPolynomial.zero(f.field, f.nvars)
    for d, g in comps.items():
        if not _is_homogeneous_terms(_terms(g), d):
            return "component of degree %s is not homogeneous" % d
        total = total + g
    return None if total == f else "components do not sum to f"


def _check_noether(result):
    shifts, transformed, (coeff, mono) = result
    n = transformed.nvars
    terms = _terms(transformed)
    top = max(exps[n - 1] for exps, _ in terms)
    tops = [(exps, c) for exps, c in terms if exps[n - 1] == top]
    if len(tops) != 1 or any(e for e in tops[0][0][:n - 1]):
        return "top power of the last variable is not a single pure term"
    if tops[0][1] != coeff:
        return "reported leading coefficient differs"
    return None


def _check_bezout(result, inputs, p):
    d, u, v = result
    f, g = inputs
    level = lcm(*(exps[0].denominator for x in (f, g, d, u, v)
                  for exps, _ in _terms(x)))
    fd, gd, dd, ud, vd = (oracles.dense(_terms(x), level, p) for x in (f, g, d, u, v))
    if not dd or dd[-1] != 1:
        return "gcd is not monic"
    if oracles.remainder(fd, dd, p) or oracles.remainder(gd, dd, p):
        return "gcd does not divide both inputs"
    lhs = oracles.add_dense(oracles.mul_dense(ud, fd, p),
                            oracles.mul_dense(vd, gd, p), p)
    return None if lhs == dd else "u*f + v*g != gcd"


def _check_roots(found, want):
    return None if sorted(found) == want else "roots %r, expected %r" % (found, want)


def _check_composite(result, outer, inner, points):
    """Evaluation is a homomorphism: (f o g)(P) = f(g_1(P), ..., g_k(P))."""
    p = gen.P_CHARP
    for pt in points:
        nv = result.nvars
        inner_vals = [oracles.evaluate_terms(t, pt[:nv], 1, p) for t in inner]
        want = oracles.evaluate_terms(outer, inner_vals, 1, p)
        got = oracles.evaluate_terms(_terms(result), pt[:nv], 1, p)
        if want != got:
            return "composite value %r, expected %r" % (got, want)
    return None


def _check_variety(points, gens, order, counts):
    p = gen.P_VARIETY
    counts["geometry.variety_bruteforce.points_scanned"] += p ** 3
    want = set()
    for a in range(p):
        for b in range(p):
            for c in range(p):
                roots = (a, b, c)
                if all(oracles.evaluate_terms(g, roots, order, p) == 0 for g in gens):
                    want.add(tuple(pow(u, order, p) for u in roots))
    got = [tuple(pt.coordinates()) for pt in points]
    if len(set(got)) != len(got) or set(got) != want:
        return "variety has %d points, expected %d" % (len(got), len(want))
    return None


def _check_tangent(result, gens, roots, order, p):
    dim, equations = result
    jac = [[oracles.evaluate_terms(oracles.derivative_terms(g, i, p), roots, order, p)
            for g in gens] for i in range(3)]
    want = 3 - oracles.rank(jac, p)
    if dim != want:
        return "tangent dimension %d, expected %d" % (dim, want)
    if len(equations) != len(gens):
        return "wrong number of tangent equations"
    return None


def _check_veronese(monos, k):
    want = [((0, Fraction(k - j, k)), (1, Fraction(j, k))) for j in range(k + 1)]
    got = [tuple((i, e) for i, e in m.exps) for m in monos]
    want = [tuple((i, e) for i, e in w if e) for w in want]
    return None if got == want else "wrong Veronese monomials"


def _cli_ops(seed, data, counts):
    """In-process CLI calls; stdout must equal the library result printed
    the way the CLI prints it."""
    ops = []
    q = qdeg.QQ
    fp = qdeg.PrimeField(gen.P_ALGEBRA)

    def text(terms, field, names):
        return qdeg.print_poly(_poly(field, len(names), terms), names)

    def add(sub, argv, expected):
        ops.append(Op("cli.run", "cli.run " + sub,
                      lambda a=[sub] + argv: _cli(a),
                      _check_cli(expected, counts), lambda r: repr(r)))

    small = [t for _, t in data["small"]]
    xyz = ",".join(NAMES)
    for k in (0, 2):
        f = _poly(q, 3, small[k])
        add("parse", ["--vars", xyz, qdeg.print_poly(f, NAMES)],
            qdeg.print_poly(f, NAMES) + "\n")
    _, h, a, b = data["gcd"][0]
    fa = _poly(q, 1, a) * _poly(q, 1, h)
    fb = _poly(q, 1, b) * _poly(q, 1, h)
    d, u, v = qdeg.gcd_univariate(fa, fb)
    add("gcd", ["--vars", "x", qdeg.print_poly(fa, ["x"]), qdeg.print_poly(fb, ["x"])],
        "gcd: %s\nu: %s\nv: %s\n" % tuple(qdeg.print_poly(x, ["x"]) for x in (d, u, v)))
    # the katsura-3 system of the ideals workload, at level 2
    v0 = gen.ideal_variants(seed)[0]
    nv = v0["nvars"]
    names = ["a", "b", "c", "d"][:nv]
    gens_text = [text(_scaled(g, 2), q, names) for g in v0["gens"]]
    gb = qdeg.groebner(qdeg.IdealPresentation(tuple(
        qdeg.parse(t, q, names) for t in gens_text)))
    add("groebner", ["--vars", ",".join(names)] + gens_text,
        "level: %s\n" % ",".join(str(x) for x in gb.level.orders)
        + "".join("basis: %s\n" % qdeg.print_poly(g, names) for g in gb.basis))
    ideal_args = []
    for t in gens_text:
        ideal_args += ["--ideal", t]
    member = text(_scaled(_member_terms(v0["gens"], v0["members"][0], 0), 2), q, names)
    add("member", ["--vars", ",".join(names)] + ideal_args + [member], "true\n")
    add("proper", ["--vars", ",".join(names)] + ideal_args, "true\n")
    # the two subcommands that fail at this commit (KNOWN_DEFECTS)
    f0 = _poly(q, 3, small[0])
    fmap, (flat0,) = flatten_family([f0])
    add("flatten", ["--vars", xyz, qdeg.print_poly(f0, NAMES)],
        "level: %s\n%s\n" % (",".join(map(str, fmap.orders)),
                              qdeg.print_poly(flat0, NAMES)))
    n0 = _poly(q, 2, data["noether"][0][1])
    shifts, moved, (lc, lm) = noether_substitution(n0)
    lead = qdeg.print_poly(QPolynomial(q, 2, {lm: q.one}), ["x", "y"])
    add("noether", ["--vars", "x,y", qdeg.print_poly(n0, ["x", "y"])],
        "shifts: %s\ntransformed: %s\nleading: %s, %s\n" % (
            ",".join(map(str, shifts)), qdeg.print_poly(moved, ["x", "y"]),
            q.format(lc), lead))
    add("roots", ["--vars", "x", "x^(1/2) - 3"], "9\n")
    pt = data["points"][0]
    f1 = _poly(fp, 3, small[1])
    roots = [int(oracles.reduce_coeff(u, gen.P_ALGEBRA)) for u in pt]
    value = qdeg.evaluate(f1, qdeg.PointWithRoots(fp, 12, tuple(roots)))
    add("eval", ["--field", "fp:%d" % gen.P_ALGEBRA, "--vars", xyz,
                 "--point", "12:" + ",".join(map(str, roots)),
                 qdeg.print_poly(f1, NAMES)], "%d\n" % value)
    f2 = _poly(q, 3, small[2])
    comps = sorted(homogeneous_components(f2).items())
    add("components", ["--vars", xyz, qdeg.print_poly(f2, NAMES)],
        "".join("%s: %s\n" % (dg, qdeg.print_poly(g, NAMES)) for dg, g in comps))
    top = max(sum(exps) for exps, _ in small[2])
    hom = homogenize(f2, top, 3)
    add("homog", ["--vars", xyz, "--degree", str(top), qdeg.print_poly(f2, NAMES)],
        qdeg.print_poly(hom, list(NAMES) + ["h"]) + "\n")
    add("dehomog", ["--vars", xyz + ",h", "--chart", "3",
                    qdeg.print_poly(hom, list(NAMES) + ["h"])],
        qdeg.print_poly(dehomogenize(hom, 3), NAMES) + "\n")
    kv = data["veronese"][0]
    add("embed", ["--k", str(kv)],
        "".join(qdeg.print_poly(QPolynomial(q, 2, {m: q.one}), ["x", "y"]) + "\n"
                for m in veronese_rational(kv)))
    dims = twist_dims(2, Fraction(-6, 2), 2, Fraction(3))
    add("cech", ["--n", "2", "--deg", "-3", "--den", "2", "--box", "3"],
        "h: %s\n" % ",".join(map(str, dims.h)))
    ka, kb = data["kunneth"]
    add("kunneth", ["--a", ",".join(map(str, ka)), "--b", ",".join(map(str, kb))],
        "h: %s\n" % ",".join(map(str, kunneth_dims(ka, kb))))
    fp5 = qdeg.PrimeField(gen.P_CHARP)
    pr = _poly(fp5, 2, data["proot"][0])
    add("proot", ["--p", str(gen.P_CHARP), "--vars", "x,y", qdeg.print_poly(pr, ["x", "y"])],
        qdeg.print_poly(qdeg.p_th_root(pr), ["x", "y"]) + "\n")
    outer, inner = data["compose"][0]
    fo = _poly(fp5, 2, outer)
    gi = [_poly(fp5, 2, t) for t in inner]
    add("compose", ["--field", "fp:%d" % gen.P_CHARP, "--vars", "s,t",
                    "--outer-vars", "x,y", qdeg.print_poly(fo, ["x", "y"])]
        + [qdeg.print_poly(g, ["s", "t"]) for g in gi],
        qdeg.print_poly(qdeg.compose(fo, gi), ["s", "t"]) + "\n")
    target, comps3 = data["pullback"][0]
    gt = _poly(fp5, 2, target)
    cs = [_poly(fp5, 3, t) for t in comps3]
    add("pullback", ["--field", "fp:%d" % gen.P_CHARP, "--vars", "r,s,t",
                     "--outer-vars", "x,y", qdeg.print_poly(gt, ["x", "y"])]
        + [qdeg.print_poly(c, ["r", "s", "t"]) for c in cs],
        qdeg.print_poly(qdeg.pullback(PolynomialMap(tuple(cs)), gt), ["r", "s", "t"]) + "\n")
    return ops


def build(workload, seed, counts):
    """The op list of a workload for a seed; ``counts`` receives the
    benchmark-side counters that the checks accumulate."""
    if workload == "ideals_cech":
        return ideals_ops(seed, counts) + cech_ops(seed, counts)
    return algebra_ops(seed, counts)
