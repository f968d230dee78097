import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import qq_poly, random_poly
from qdeg import upoly
from qdeg.errors import (NotUnivariate, PoleAtPoint, PointNotOnVariety,
                         RootOrderMismatch, ZeroPolynomial)
from qdeg.fields import QQ, PrimeField
from qdeg.flatten import flatten
from qdeg.geometry import (PointWithRoots, evaluate, jacobian,
                           partial_derivative, roots_univariate,
                           tangent_space, variety_bruteforce)
from qdeg.ideals import IdealPresentation
from qdeg.parser import parse
from qdeg.poly import Monomial, QPolynomial

F3 = PrimeField(3)
F5 = PrimeField(5)


def test_evaluate_examples():
    f = qq_poly("x^(1/2) + y", ["x", "y"])
    P = PointWithRoots(QQ, 2, (Fraction(2), Fraction(3)))  # x=4, y=9
    assert evaluate(f, P) == 11

    const = qq_poly("5", ["x"])
    assert evaluate(const, PointWithRoots(QQ, 1, (Fraction(7),))) == 5

    g = qq_poly("x^(1/2) - 2", ["x"])
    assert evaluate(g, PointWithRoots(QQ, 2, (Fraction(2),))) == 0


def test_evaluate_errors():
    f = qq_poly("x^(1/3)", ["x"])
    with pytest.raises(RootOrderMismatch):
        evaluate(f, PointWithRoots(QQ, 2, (Fraction(1),)))
    laurent = QPolynomial.variable(QQ, 1, 0, Fraction(-1, 2))
    with pytest.raises(PoleAtPoint):
        evaluate(laurent, PointWithRoots(QQ, 2, (Fraction(0),)))


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(9)
    for _ in range(200):
        f = random_poly(rng, QQ, 2, max_den=2)
        g = random_poly(rng, QQ, 2, max_den=2)
        P = PointWithRoots(QQ, 2, (Fraction(rng.randint(1, 4)),
                                   Fraction(rng.randint(1, 4))))
        assert evaluate(f + g, P) == evaluate(f, P) + evaluate(g, P)
        assert evaluate(f * g, P) == evaluate(f, P) * evaluate(g, P)


def test_roots_examples():
    assert roots_univariate(qq_poly("x^(1/2) - 2", ["x"])) == [4]
    assert roots_univariate(qq_poly("x", ["x"])) == [0]
    f3 = parse("x^2 - 1", F3, ["x"])
    assert roots_univariate(f3) == [1, 2]
    # the zeros 2 and -2 of the flattened polynomial report x = 4 once
    for field in (QQ, PrimeField(7)):
        f = parse("x^(3/2) - x - 4*x^(1/2) + 4", field, ["x"])
        assert roots_univariate(f) == [1, 4]


def test_roots_errors():
    with pytest.raises(ZeroPolynomial):
        roots_univariate(QPolynomial.zero(QQ, 1))
    with pytest.raises(NotUnivariate):
        roots_univariate(qq_poly("x*y", ["x", "y"]))


def test_roots_evaluate_to_zero_and_complete_over_fp():
    rng = random.Random(17)
    for _ in range(50):
        pairs = [(Fraction(rng.randint(0, 3), rng.choice([1, 2])),
                  rng.randrange(5)) for _ in range(rng.randint(1, 3))]
        f = QPolynomial.from_terms(
            F5, 1, [(Monomial.make([(0, e)]), c) for e, c in pairs])
        if f.is_zero():
            continue
        roots = roots_univariate(f)
        fmap, _ = flatten([f])
        L = fmap.orders[0]
        # oracle: full scan of the original f on the root grid
        expected = set()
        for u in range(5):
            P = PointWithRoots(F5, L, (u,))
            if evaluate(f, P) == 0:
                expected.add(pow(u, L, 5))
        assert set(roots) == expected
        for r in roots:
            assert r in expected


def _times_linear(f, a, b=1):
    """f * (b*x - a), constant term first."""
    return [(b * f[i - 1] if i else 0) - (a * f[i] if i < len(f) else 0)
            for i in range(len(f) + 1)]


@st.composite
def _fp_univariate(draw):
    """(p, coefficients): a cofactor (maybe constant or zero) times planted,
    possibly repeated, linear factors and a power of x, plus maybe a term of
    degree at least p."""
    p = draw(st.sampled_from([2, 3, 5, 7, 31, 101]))
    residue = st.integers(0, p - 1)
    f = draw(st.lists(residue, min_size=1, max_size=4))
    for r in draw(st.lists(residue, max_size=5)):
        f = [c % p for c in _times_linear(f, r)]
    f = [0] * draw(st.integers(0, 2)) + f
    if draw(st.booleans()):
        f += [0] * (max(p - len(f), 0) + draw(st.integers(0, 3)))
        f.append(draw(residue))
    return p, f


@settings(max_examples=200, deadline=None)
@given(case=_fp_univariate(), seed=st.integers(0, 2 ** 32))
@example(case=(2, [0, 1, 1]), seed=0)            # x + x^2: all of F_2
@example(case=(2, [1, 0, 1]), seed=0)            # (x + 1)^2
@example(case=(101, [0, 100] + [0] * 99 + [1]), seed=0)   # x^101 - x
@example(case=(31, [4, 4, 18, 10, 24, 1]), seed=0)  # (x - 3)^3 (x + 1)^2
@example(case=(7, [5]), seed=0)
@example(case=(7, [0, 0]), seed=0)
def test_fp_root_finder_matches_brute_force(case, seed):
    p, f = case
    brute = [a for a in range(p)
             if sum(c * pow(a, i, p) for i, c in enumerate(f)) % p == 0]
    assert upoly.roots(f, p, random.Random(seed)) == brute


def _oracle_rational_roots(f):
    """Zeros a/b of the flattened integer polynomial by trial division:
    a divides the lowest nonzero coefficient and b the leading one."""
    fmap, (g,) = flatten([f])
    dense = [Fraction(0)] * (int(g.total_degree()) + 1)
    for mono, coeff in g.terms.items():
        dense[int(mono.exponent(0))] = coeff
    den = lcm(*(c.denominator for c in dense))
    ints = [int(c * den) for c in dense]
    found = set()
    if ints[0] == 0:
        found.add(Fraction(0))
        while ints[0] == 0:
            ints.pop(0)

    def divisors(n):
        return [d for d in range(1, abs(n) + 1) if n % d == 0]

    for a in divisors(ints[0]):
        for b in divisors(ints[-1]):
            for cand in (Fraction(a, b), Fraction(-a, b)):
                if sum(c * cand ** i for i, c in enumerate(ints)) == 0:
                    found.add(cand)
    return sorted({r ** fmap.orders[0] for r in found})


@st.composite
def _q_univariate(draw):
    """An integer cofactor times planted linear factors b*y - a in
    y = x^(1/L), divided by a small integer."""
    f = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=3))
    for a, b in draw(st.lists(st.tuples(st.integers(-5, 5),
                                        st.integers(1, 3)), max_size=3)):
        f = _times_linear(f, a, b)
    return (draw(st.integers(1, 3)), f, draw(st.integers(1, 3)))


@settings(max_examples=150, deadline=None)
@given(case=_q_univariate())
@example(case=(1, [3, -11, 8, 4], 1))        # (2y - 1)^2 (y + 3)
@example(case=(2, [4, -4, -1, 1], 1))        # the zeros 2 and -2 give x = 4
@example(case=(1, [1, -2, -5, 6], 1))        # (y - 1)(2y + 1)(3y - 1)
@example(case=(3, [0, 0, -4, 12, -9], 5))    # -y^2 (3y - 2)^2 / 5
def test_rational_roots_match_trial_division(case):
    order, coeffs, den = case
    f = QPolynomial.from_terms(
        QQ, 1, [(Monomial.make([(0, Fraction(i, order))]), Fraction(c, den))
                for i, c in enumerate(coeffs)])
    if f.is_zero():
        return
    assert roots_univariate(f) == _oracle_rational_roots(f)


def test_variety_examples():
    gens = IdealPresentation((parse("x^(1/2) - 1", F5, ["x"]),))
    pts = variety_bruteforce(gens, 2)
    assert len(pts) == 1 and pts[0].coordinates() == (1,)

    unit = IdealPresentation((parse("1", F5, ["x"]),))
    assert variety_bruteforce(unit, 1) == []

    origin = IdealPresentation((parse("x", F3, ["x", "y"]),
                                parse("y", F3, ["x", "y"])))
    pts = variety_bruteforce(origin, 1)
    assert [p.coordinates() for p in pts] == [(0, 0)]


def test_zariski_laws_randomized():
    # at root order 1 the roots are the coordinates, so both laws are exact
    rng = random.Random(21)
    done = 0
    while done < 30:
        f = random_poly(rng, F5, 2, max_terms=2, max_den=1)
        g = random_poly(rng, F5, 2, max_terms=2, max_den=1)
        if f.is_zero() or g.is_zero():
            continue
        vf = {p.coordinates() for p in
              variety_bruteforce(IdealPresentation((f,)), 1)}
        vg = {p.coordinates() for p in
              variety_bruteforce(IdealPresentation((g,)), 1)}
        vfg = {p.coordinates() for p in
               variety_bruteforce(IdealPresentation((f * g,)), 1)}
        vboth = {p.coordinates() for p in
                 variety_bruteforce(IdealPresentation((f, g)), 1)}
        assert vfg == vf | vg
        assert vboth == vf & vg
        done += 1


def test_zariski_laws_fractional_level():
    # with genuine roots the union law survives the coordinate projection,
    # while the joint variety can only shrink: distinct roots over the same
    # coordinates need not vanish simultaneously
    rng = random.Random(22)
    done = 0
    while done < 30:
        f = random_poly(rng, F5, 2, max_terms=2, max_den=2)
        g = random_poly(rng, F5, 2, max_terms=2, max_den=2)
        if f.is_zero() or g.is_zero():
            continue
        vf = {p.coordinates() for p in
              variety_bruteforce(IdealPresentation((f,)), 2)}
        vg = {p.coordinates() for p in
              variety_bruteforce(IdealPresentation((g,)), 2)}
        vfg = {p.coordinates() for p in
               variety_bruteforce(IdealPresentation((f * g,)), 2)}
        vboth = {p.coordinates() for p in
                 variety_bruteforce(IdealPresentation((f, g)), 2)}
        assert vfg == vf | vg
        assert vboth <= vf & vg
        done += 1


def test_partial_derivative_examples():
    d = partial_derivative(qq_poly("x^(1/2)", ["x"]), 0)
    assert d == QPolynomial.from_terms(
        QQ, 1, [(Monomial.make([(0, Fraction(-1, 2))]), Fraction(1, 2))])
    assert partial_derivative(qq_poly("7", ["x"]), 0).is_zero()
    assert partial_derivative(qq_poly("x^(1/2)*y", ["x", "y"]), 1) == \
        qq_poly("x^(1/2)", ["x", "y"])


def test_product_rule_randomized():
    rng = random.Random(29)
    for _ in range(200):
        f = random_poly(rng, QQ, 2, max_terms=3)
        g = random_poly(rng, QQ, 2, max_terms=3)
        for i in (0, 1):
            lhs = partial_derivative(f * g, i)
            rhs = f * partial_derivative(g, i) + g * partial_derivative(f, i)
            assert lhs == rhs


def test_jacobian_examples():
    f = qq_poly("x^(1/2) - y^2", ["x", "y"])
    P = PointWithRoots(QQ, 2, (Fraction(1), Fraction(1)))
    assert jacobian([f], P) == [[Fraction(1, 2)], [Fraction(-2)]]

    lin = qq_poly("x + y", ["x", "y"])
    P1 = PointWithRoots(QQ, 1, (Fraction(3), Fraction(4)))
    assert jacobian([lin], P1) == [[1], [1]]

    with pytest.raises(PoleAtPoint):
        jacobian([qq_poly("x^(1/2)", ["x"])],
                 PointWithRoots(QQ, 2, (Fraction(0),)))


def test_tangent_space_examples():
    f = qq_poly("x^(1/2) - y^2", ["x", "y"])
    P = PointWithRoots(QQ, 2, (Fraction(1), Fraction(1)))
    dim, eqs = tangent_space([f], P)
    assert dim == 1
    assert eqs == [qq_poly("1/2*x - 2*y + 3/2", ["x", "y"])]

    lin = qq_poly("x - y", ["x", "y"])
    dim, eqs = tangent_space([lin], PointWithRoots(QQ, 1, (Fraction(0),
                                                           Fraction(0))))
    assert dim == 1 and eqs == [qq_poly("x - y", ["x", "y"])]

    g = qq_poly("x - y^4", ["x", "y"])
    dim, _ = tangent_space([f, g], P)
    assert dim == 1  # rank of ((1/2,-2),(1,-4)) is 1


def test_tangent_space_point_not_on_variety():
    f = qq_poly("x - 1", ["x"])
    with pytest.raises(PointNotOnVariety):
        tangent_space([f], PointWithRoots(QQ, 1, (Fraction(5),)))


def test_tangent_rank_invariance_randomized():
    rng = random.Random(37)
    done = 0
    while done < 100:
        P = PointWithRoots(QQ, 2, (Fraction(rng.randint(1, 3)),
                                   Fraction(rng.randint(1, 3))))
        raw = [random_poly(rng, QQ, 2, max_terms=3, max_den=2)
               for _ in range(2)]
        gens = []
        for h in raw:
            shift = QPolynomial.constant(QQ, 2, evaluate(h, P))
            gens.append(h - shift)
        if any(g.is_zero() for g in gens):
            continue
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        if a * d - b * c == 0:
            continue
        mixed = [gens[0].scale(a) + gens[1].scale(b),
                 gens[0].scale(c) + gens[1].scale(d)]
        try:
            dim1, _ = tangent_space(gens, P)
            dim2, _ = tangent_space(mixed, P)
        except PoleAtPoint:
            continue
        assert dim1 == dim2
        done += 1


# ---- differential: evaluate and variety_bruteforce against a Fraction-
# exponent evaluator written here ----

def _oracle_value(f, order, roots):
    field = f.field
    total = field.zero
    for mono, coeff in f.terms.items():
        for i, e in mono.exps:
            power = e * order
            if power.denominator != 1:
                raise RootOrderMismatch("denominator")
            if power < 0 and roots[i] == 0:
                raise PoleAtPoint("pole")
            if field.characteristic:
                coeff = coeff * pow(roots[i], int(power), field.p) % field.p
            else:
                coeff = coeff * Fraction(roots[i]) ** int(power)
        total = field.add(total, coeff)
    return total


def _oracle_variety(gens, order):
    field = gens[0].field
    p = field.characteristic
    found = {}
    for roots in product(range(p), repeat=gens[0].nvars):
        if all(_oracle_value(g, order, roots) == 0 for g in gens):
            found.setdefault(tuple(pow(u, order, p) for u in roots), roots)
    return list(found.values())


def _outcome(call):
    try:
        return call()
    except (PoleAtPoint, RootOrderMismatch) as exc:
        return type(exc)


_SMALL_POLY = st.lists(
    st.tuples(st.integers(1, 6), st.integers(-2, 4), st.integers(-2, 4),
              st.booleans()),
    min_size=1, max_size=3)


def _poly_at_order(field, spec, order):
    """Exponents are k/order (half-integers at order 2), Laurent allowed."""
    pairs = [(Monomial.make([(0, Fraction(a, order)),
                             (1, Fraction(b, order) if use_y else 0)]),
              field.coerce(c)) for c, a, b, use_y in spec]
    return QPolynomial.from_terms(field, 2, pairs)


@settings(max_examples=120, deadline=None)
@given(field=st.sampled_from([QQ, F5, PrimeField(7)]),
       order=st.sampled_from([1, 2]), spec=_SMALL_POLY,
       roots=st.tuples(st.integers(-3, 4), st.integers(-3, 4)))
def test_evaluate_matches_fraction_exponent_oracle(field, order, spec, roots):
    f = _poly_at_order(field, spec, order)
    point = PointWithRoots(field, order, tuple(field.coerce(u) for u in roots))
    assert (_outcome(lambda: evaluate(f, point))
            == _outcome(lambda: _oracle_value(f, order, point.roots)))


# a generator with nonnegative exponents, or a Laurent one
_GENERATOR = st.one_of(*[
    st.lists(st.tuples(st.integers(1, 30), st.tuples(*[exponent] * 3)),
             min_size=1, max_size=3)
    for exponent in (st.integers(0, 4), st.integers(-2, 4))])


def _poly_in(field, nvars, spec, order):
    """Exponents k/order on the first nvars variables."""
    pairs = [(Monomial.make((i, Fraction(k, order))
                            for i, k in enumerate(exps[:nvars])),
              field.coerce(c)) for c, exps in spec]
    return QPolynomial.from_terms(field, nvars, pairs)


@settings(max_examples=80, deadline=None)
@given(field=st.sampled_from([PrimeField(2), PrimeField(7), PrimeField(31)]),
       nvars=st.integers(1, 3), order=st.integers(1, 3),
       specs=st.lists(_GENERATOR, min_size=1, max_size=3))
@example(field=PrimeField(7), nvars=2, order=1,   # y - 1, then 1/y: no pole
         specs=[[(1, (0, 1, 0)), (6, (0, 0, 0))], [(1, (0, -1, 0))]])
@example(field=PrimeField(7), nvars=2, order=1,   # 1/y first: a pole at y = 0
         specs=[[(1, (0, -1, 0))], [(1, (0, 1, 0)), (6, (0, 0, 0))]])
@example(field=PrimeField(7), nvars=2, order=2,   # 1/x over the zero prefix
         specs=[[(1, (0, 2, 0)), (6, (0, 0, 0))], [(1, (-1, 0, 0))]])
def test_variety_matches_fraction_exponent_oracle(field, nvars, order, specs):
    gens = [_poly_in(field, nvars, spec, order) for spec in specs]
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return
    found = _outcome(lambda: variety_bruteforce(IdealPresentation(gens), order))
    expected = _outcome(lambda: _oracle_variety(gens, order))
    if isinstance(found, list):
        assert all(pt.order == order and pt.field == field for pt in found)
        found = [pt.roots for pt in found]
    assert found == expected


def test_variety_root_order_checked_for_every_generator():
    # the first generator never vanishes, so the scan never evaluates the
    # second; its denominator 3 still does not divide the order 2
    gens = IdealPresentation((parse("1", F5, ["x"]),
                              parse("x^(1/3) - 1", F5, ["x"])))
    with pytest.raises(RootOrderMismatch):
        variety_bruteforce(gens, 2)
    with pytest.raises(RootOrderMismatch):
        variety_bruteforce(IdealPresentation((parse("x - 1", F5, ["x"]),)), 0)
    laurent = IdealPresentation((parse("x^(-1/2) - 1", F5, ["x"]),))
    with pytest.raises(PoleAtPoint):
        variety_bruteforce(laurent, 2)
