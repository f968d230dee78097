import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from helpers import qq_poly, random_poly
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


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from([F3, F5]), order=st.sampled_from([1, 2]),
       specs=st.lists(_SMALL_POLY, min_size=1, max_size=2))
def test_variety_matches_fraction_exponent_oracle(field, order, specs):
    gens = [_poly_at_order(field, spec, order) for spec in specs]
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return
    try:
        points = variety_bruteforce(IdealPresentation(gens), order)
    except PoleAtPoint:
        with pytest.raises(PoleAtPoint):
            _oracle_variety(gens, order)
        return
    assert [pt.roots for pt in points] == _oracle_variety(gens, order)
    assert all(pt.order == order and pt.field == field for pt in points)


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
