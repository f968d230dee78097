import random
from fractions import Fraction

import pytest

from helpers import qq_poly, random_poly
from qdeg.errors import DegreeLevelMismatch, DegreeTooSmall
from qdeg.fields import QQ
from qdeg.geometry import PointWithRoots
from qdeg.grading import (dehomogenize, homogeneous_components, homogenize,
                          in_irrelevant_ideal, is_homogeneous, scaling_check,
                          veronese_rational)
from qdeg.poly import Monomial, QPolynomial


def test_components_example():
    f = qq_poly("x + x^(1/2)*y^(1/2) + y^2", ["x", "y"])
    comps = homogeneous_components(f)
    assert set(comps) == {Fraction(1), Fraction(2)}
    assert comps[Fraction(1)] == qq_poly("x + x^(1/2)*y^(1/2)", ["x", "y"])
    assert comps[Fraction(2)] == qq_poly("y^2", ["x", "y"])


def test_components_homogeneous_single_bucket():
    f = qq_poly("x^2 + x*y", ["x", "y"])
    assert homogeneous_components(f) == {Fraction(2): f}


def test_components_zero():
    assert homogeneous_components(QPolynomial.zero(QQ, 2)) == {}


def test_components_reassemble_randomized():
    rng = random.Random(5)
    for _ in range(300):
        f = random_poly(rng, QQ, 3)
        total = QPolynomial.zero(QQ, 3)
        for part in homogeneous_components(f).values():
            total = total + part
        assert total == f


def test_is_homogeneous_examples():
    assert is_homogeneous(qq_poly("x^(1/3)*y^(2/3)", ["x", "y"])) == 1
    assert is_homogeneous(qq_poly("x^2 + x", ["x"])) is None
    assert is_homogeneous(qq_poly("x^2 + x*y + y^2", ["x", "y"])) == 2
    assert is_homogeneous(QPolynomial.zero(QQ, 1)) == 0


def test_irrelevant_ideal_predicate():
    assert in_irrelevant_ideal(qq_poly("x + y^(1/2)", ["x", "y"]))
    assert not in_irrelevant_ideal(qq_poly("x + 1", ["x"]))
    assert in_irrelevant_ideal(QPolynomial.zero(QQ, 1))


def test_scaling_check_examples():
    f = qq_poly("x^(1/2)*y^(1/2)", ["x", "y"])
    P = PointWithRoots(QQ, 2, (Fraction(1), Fraction(1)))
    assert scaling_check(f, Fraction(2), P)  # lambda = 4

    c = qq_poly("5", ["x"])
    assert scaling_check(c, Fraction(3), PointWithRoots(QQ, 1, (Fraction(2),)))

    sq = qq_poly("x^2", ["x"])
    assert scaling_check(sq, Fraction(2), PointWithRoots(QQ, 1, (Fraction(3),)))


def test_scaling_check_randomized():
    rng = random.Random(11)
    curated = [
        qq_poly("x^(1/2)*y^(1/2)", ["x", "y"]),
        qq_poly("x^2 + x*y + y^2", ["x", "y"]),
        qq_poly("x^(1/3)*y^(2/3) + x*y^(1/3)*x^(-1/3)", ["x", "y"]),
    ]
    for f in curated:
        for _ in range(20):
            lam_root = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            P = PointWithRoots(QQ, 6, (Fraction(rng.randint(1, 4)),
                                       Fraction(rng.randint(1, 4))))
            assert scaling_check(f, lam_root, P)
    # converse: an inhomogeneous polynomial fails for some lambda
    bad = qq_poly("x^2 + x", ["x"])
    failures = 0
    for lam in range(2, 8):
        if not scaling_check(bad, Fraction(lam),
                             PointWithRoots(QQ, 1, (Fraction(1),))):
            failures += 1
    assert failures > 0


def test_dehomogenize_examples():
    F = qq_poly("x0 + x0^(1/2)*x1^(1/2) + x1", ["x0", "x1"])
    assert dehomogenize(F, 1) == qq_poly("x0 + x0^(1/2) + 1", ["x0"])
    assert dehomogenize(qq_poly("y^3", ["x", "y"]), 1) == \
        qq_poly("1", ["x"])
    assert dehomogenize(qq_poly("x0^2 + x1^2", ["x0", "x1"]), 0) == \
        qq_poly("1 + x1^2", ["x1"])


def test_homogenize_examples():
    f = qq_poly("1 + x^(1/2) + x", ["x"])
    F = homogenize(f, Fraction(1), 1)
    assert F == qq_poly("x1 + x^(1/2)*x1^(1/2) + x", ["x", "x1"])

    g = qq_poly("x^2 + x*y", ["x", "y"])
    assert homogenize(g, Fraction(2), 2) == \
        qq_poly("x^2 + x*y", ["x", "y", "z"])

    assert homogenize(qq_poly("1 + x^2", ["x"]), Fraction(2), 1) == \
        qq_poly("x1^2 + x^2", ["x", "x1"])


def test_homogenize_degree_too_small():
    with pytest.raises(DegreeTooSmall):
        homogenize(qq_poly("x^2", ["x"]), Fraction(1), 1)


def test_homogenize_dehomogenize_roundtrip_randomized():
    rng = random.Random(23)
    done = 0
    while done < 200:
        f = random_poly(rng, QQ, 2)
        deg = f.total_degree()
        d = (deg if deg is not None else Fraction(0)) + rng.randint(0, 2)
        chart = rng.randint(0, 2)
        F = homogenize(f, d, chart)
        assert dehomogenize(F, chart) == f
        assert is_homogeneous(F) in (d, Fraction(0))
        done += 1


def test_veronese_examples():
    assert veronese_rational(2) == [
        Monomial.make([(0, Fraction(1))]),
        Monomial.make([(0, Fraction(1, 2)), (1, Fraction(1, 2))]),
        Monomial.make([(1, Fraction(1))]),
    ]
    assert veronese_rational(1) == [Monomial.make([(0, Fraction(1))]),
                                    Monomial.make([(1, Fraction(1))])]
    k3 = veronese_rational(3)
    assert [m.exponent(1) for m in k3] == [Fraction(0), Fraction(1, 3),
                                           Fraction(2, 3), Fraction(1)]


def test_veronese_needs_a_positive_level():
    for k in (0, -1):
        with pytest.raises(DegreeLevelMismatch):
            veronese_rational(k)


def test_veronese_all_degree_one():
    for k in range(1, 8):
        for mono in veronese_rational(k):
            assert mono.degree() == 1
