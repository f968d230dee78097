import random
from fractions import Fraction
from math import gcd

import pytest

from helpers import qq_poly, random_poly
from qdeg.charp import (MAX_ROOT_FINDER_DEGREE, PolynomialMap,
                        _coefficient_root, compose, compose_maps,
                        fractional_power, p_th_root, pullback)
from qdeg.errors import CompositionNotPolynomial, FieldMismatch, NotPrimeField
from qdeg.fields import QQ, PrimeField, is_prime
from qdeg.parser import parse
from qdeg.poly import QPolynomial

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def fp(text, p, varnames=("x", "y")):
    return parse(text, PrimeField(p), list(varnames))


def test_p_th_root_examples():
    f = fp("x + y", 2)
    r = p_th_root(f)
    assert r == fp("x^(1/2) + y^(1/2)", 2)
    assert r ** 2 == f

    g = fp("x^3 + 2*x", 3, ("x",))
    assert p_th_root(g) == fp("x + 2*x^(1/3)", 3, ("x",))


def test_p_th_root_requires_prime_field():
    with pytest.raises(NotPrimeField):
        p_th_root(qq_poly("x", ["x"]))


def test_p_th_root_randomized():
    for p in (2, 3, 5):
        field = PrimeField(p)
        rng = random.Random(100 + p)
        for _ in range(170):
            f = random_poly(rng, field, 2, max_den=2)
            g = random_poly(rng, field, 2, max_den=2)
            # inverse Frobenius, and additivity because Frobenius is additive
            assert p_th_root(f) ** p == f
            assert p_th_root(f + g) == p_th_root(f) + p_th_root(g)
            assert p_th_root(f * g) == p_th_root(f) * p_th_root(g)


def test_fractional_power_monomial():
    m = qq_poly("4*x^2", ["x"])
    assert fractional_power(m, Fraction(1, 2)) == qq_poly("2*x", ["x"])
    assert fractional_power(qq_poly("x", ["x"]), Fraction(3, 2)) == \
        qq_poly("x^(3/2)", ["x"])
    with pytest.raises(CompositionNotPolynomial):
        fractional_power(qq_poly("2*x", ["x"]), Fraction(1, 2))


def test_fractional_power_of_huge_coefficients():
    # 400-digit numerators and denominators are far beyond float range
    root = Fraction(10 ** 200 - 3, 3 ** 419)
    assert len(str(root.numerator ** 2)) == 400
    assert len(str(root.denominator ** 2)) == 400
    m = QPolynomial.constant(QQ, 1, root ** 2) * qq_poly("x^2", ["x"])
    assert fractional_power(m, Fraction(1, 2)) == \
        QPolynomial.constant(QQ, 1, root) * qq_poly("x", ["x"])
    cube = QPolynomial.constant(QQ, 1, -root ** 3)
    assert fractional_power(cube, Fraction(2, 3)) == \
        QPolynomial.constant(QQ, 1, root ** 2)
    for not_a_square in (root ** 2 + 1, Fraction(10 ** 400 - 1), -root ** 2):
        with pytest.raises(CompositionNotPolynomial):
            fractional_power(QPolynomial.constant(QQ, 1, not_a_square),
                             Fraction(1, 2))


def test_coefficient_root_is_the_least_root_over_fp():
    # the oracle scans the residues in order and keeps the first root of
    # each value; the last cases pass the root finder's limit, so there
    # _coefficient_root scans too
    scanned = [(p, b) for p in (257, 263) for b in (p - 1, 2 * (p - 1))]
    assert all(gcd(b, p - 1) > MAX_ROOT_FINDER_DEGREE for p, b in scanned)
    for p, b in [(p, b) for p in range(2, 200) if is_prime(p)
                 for b in range(1, 13)] + scanned:
        least = {}
        for r in range(p):
            least.setdefault(pow(r, b, p), r)
        field = PrimeField(p)
        for c in range(p):
            assert _coefficient_root(field, c, b) == least.get(c), (p, b, c)


def test_fractional_power_sum_needs_char_p():
    s = qq_poly("x + 1", ["x"])
    with pytest.raises(CompositionNotPolynomial):
        fractional_power(s, Fraction(1, 2))
    assert fractional_power(fp("x + 1", 2, ("x",)), Fraction(1, 2)) == \
        fp("x^(1/2) + 1", 2, ("x",))
    with pytest.raises(CompositionNotPolynomial):
        fractional_power(fp("x + 1", 3, ("x",)), Fraction(1, 2))


def test_compose_char2_example():
    # substituting 1 + x into 1 + x^(1/2) + x^2 stays polynomial over F_2
    # because (1 + x)^(1/2) = 1 + x^(1/2) there
    f1 = fp("1 + x^(1/2) + x^2", 2, ("x",))
    f2 = fp("1 + x", 2, ("x",))
    got = compose(f1, [f2])
    assert got == fp("1 + 1 + x^(1/2) + (1 + x)^2", 2, ("x",))
    assert got == fp("x^2 + x^(1/2) + 1", 2, ("x",))


def test_compose_rational_obstruction():
    f1 = qq_poly("1 + x^(1/2) + x^2", ["x"])
    f2 = qq_poly("1 + x", ["x"])
    with pytest.raises(CompositionNotPolynomial):
        compose(f1, [f2])


def test_compose_integer_exponents():
    f = qq_poly("x^2", ["x"])
    g = qq_poly("x + 1", ["x"])
    assert compose(f, [g]) == qq_poly("x^2 + 2*x + 1", ["x"])
    h = qq_poly("x*y", ["x", "y"])
    assert compose(h, [qq_poly("x + y", ["x", "y"]),
                       qq_poly("x - y", ["x", "y"])]) == \
        qq_poly("x^2 - y^2", ["x", "y"])


def test_compose_arity_and_field_checks():
    f = qq_poly("x*y", ["x", "y"])
    with pytest.raises(FieldMismatch):
        compose(f, [qq_poly("x", ["x"])])
    with pytest.raises(FieldMismatch):
        compose(f, [fp("x", 2, ("x",)), fp("x", 2, ("x",))])


def test_pullback_examples():
    phi = PolynomialMap((fp("x^2", 2, ("x",)),))
    g = fp("x^(1/2)", 2, ("x",))
    assert pullback(phi, g) == fp("x", 2, ("x",))

    psi = PolynomialMap((qq_poly("x + y", ["x", "y"]),
                         qq_poly("x*y", ["x", "y"])))
    s = qq_poly("x0^2 - 2*x1", ["x0", "x1"])
    assert pullback(psi, s) == qq_poly("x^2 + y^2", ["x", "y"])


def test_pullback_is_ring_homomorphism():
    rng = random.Random(7)
    phi = PolynomialMap((fp("x^2 + y", 3),
                         fp("x*y", 3)))
    for _ in range(100):
        g = random_poly(rng, F3, 2, max_den=1)
        h = random_poly(rng, F3, 2, max_den=1)
        assert pullback(phi, g + h) == pullback(phi, g) + pullback(phi, h)
        assert pullback(phi, g * h) == pullback(phi, g) * pullback(phi, h)


def random_integer_map(rng, field, n):
    comps = []
    while len(comps) < n:
        c = random_poly(rng, field, n, max_terms=2, max_den=1, max_num=2)
        comps.append(c)
    return PolynomialMap(tuple(comps))


def test_functoriality_randomized():
    # (outer o inner)^* = inner^* o outer^*
    for field in (QQ, F5):
        rng = random.Random(911)
        for _ in range(100):
            inner = random_integer_map(rng, field, 2)
            outer = random_integer_map(rng, field, 2)
            both = compose_maps(outer, inner)
            g = random_poly(rng, field, 2, max_terms=2, max_den=1, max_num=2)
            assert pullback(both, g) == pullback(inner, pullback(outer, g))


def test_compose_maps_arity_check():
    one = PolynomialMap((qq_poly("x", ["x"]),))
    two = PolynomialMap((qq_poly("x", ["x", "y"]),
                         qq_poly("y", ["x", "y"])))
    with pytest.raises(FieldMismatch):
        compose_maps(two, one)


def test_map_from_images():
    images = (qq_poly("x^2", ["x", "y"]), qq_poly("x + y", ["x", "y"]))
    phi = PolynomialMap(images)
    assert phi.source_arity == 2 and phi.target_arity == 2
    x0 = qq_poly("x0", ["x0", "x1"])
    x1 = qq_poly("x1", ["x0", "x1"])
    assert pullback(phi, x0) == images[0]
    assert pullback(phi, x1) == images[1]


def test_polynomial_map_rejects_mixed_components():
    with pytest.raises(FieldMismatch):
        PolynomialMap((qq_poly("x", ["x"]), fp("x", 2, ("x",))))
