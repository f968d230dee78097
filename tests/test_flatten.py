import random
from fractions import Fraction

import pytest

from helpers import qq_poly, random_nonzero_poly, random_poly
from qdeg.errors import (ConstantInput, DegreeLevelMismatch, EmptyInput,
                         FieldMismatch, LaurentNotFlattenable)
from qdeg.fields import QQ
from qdeg.flatten import (FlattenMap, exponent_lcm, flatten, flatten_one,
                          noether_substitution, unflatten)
from qdeg.ideals import IdealPresentation, groebner
from qdeg.poly import Monomial, QPolynomial


def test_exponent_lcm_examples():
    f = qq_poly("x^(1/2) - y^2", ["x", "y"])
    assert exponent_lcm([f]).orders == (2, 1)
    assert exponent_lcm([qq_poly("x + y", ["x", "y"])]).orders == (1, 1)
    pair = [qq_poly("x^(1/2)", ["x"]), qq_poly("x^(1/3)", ["x"])]
    assert exponent_lcm(pair).orders == (6,)


def test_exponent_lcm_empty():
    with pytest.raises(EmptyInput):
        exponent_lcm([])


def test_flatten_examples():
    fmap, (g,) = flatten([qq_poly("x^(1/2) - y^2", ["x", "y"])])
    assert fmap.orders == (2, 1)
    assert g == qq_poly("x - y^2", ["x", "y"])

    f = qq_poly("x - 1", ["x"])
    fmap, (g,) = flatten([f])
    assert fmap.orders == (1,) and g == f

    fmap, gs = flatten([qq_poly("x - 1", ["x"]), qq_poly("x^(1/2) - 1", ["x"])])
    assert fmap.orders == (2,)
    assert gs == [qq_poly("x^2 - 1", ["x"]), qq_poly("x - 1", ["x"])]


def test_flatten_rejects_laurent():
    laurent = QPolynomial.variable(QQ, 1, 0, Fraction(-1, 2))
    with pytest.raises(LaurentNotFlattenable):
        flatten([laurent])


@pytest.mark.parametrize("orders", [(0, 1), (-2, 1), (1, Fraction(1)),
                                    (2.0, 1), ("2", 1), (None,)])
def test_flatten_map_rejects_orders_that_are_not_positive_ints(orders):
    with pytest.raises(DegreeLevelMismatch):
        FlattenMap(orders)


def test_flatten_map_of_no_variables_is_valid():
    assert FlattenMap(()).nvars == 0


@pytest.mark.parametrize("orders", [(2,), (2, 1, 1)])
def test_flatten_rejects_a_level_of_another_variable_count(orders):
    g = qq_poly("x^(1/2) - y", ["x", "y"])
    with pytest.raises(FieldMismatch):
        flatten_one(g, FlattenMap(orders))
    with pytest.raises(FieldMismatch):
        groebner(IdealPresentation((g,)), level=FlattenMap(orders))
    with pytest.raises(FieldMismatch):
        unflatten(FlattenMap(orders), qq_poly("x - y", ["x", "y"]))


def test_groebner_at_a_valid_level():
    g = qq_poly("x^(1/2) - y", ["x", "y"])
    gb = groebner(IdealPresentation((g,)), level=FlattenMap((4, 2)))
    assert gb.basis == (qq_poly("x^2 - y^2", ["x", "y"]),)


def test_unflatten_examples():
    fmap = FlattenMap((2,))
    g = qq_poly("x - 1", ["x"])
    assert unflatten(fmap, g) == qq_poly("x^(1/2) - 1", ["x"])
    assert unflatten(FlattenMap((1,)), g) == g
    fmap2 = FlattenMap((2, 1))
    assert unflatten(fmap2, qq_poly("x - y^2", ["x", "y"])) == \
        qq_poly("x^(1/2) - y^2", ["x", "y"])


def test_roundtrip_randomized():
    rng = random.Random(2024)
    for _ in range(1000):
        f = random_poly(rng, QQ, 2)
        fmap, (g,) = flatten([f])
        assert unflatten(fmap, g) == f


def test_flatten_is_ring_homomorphism():
    rng = random.Random(31)
    for _ in range(200):
        f = random_poly(rng, QQ, 2)
        g = random_poly(rng, QQ, 2)
        fmap = exponent_lcm([f, g]) if not (f.is_zero() and g.is_zero()) \
            else FlattenMap((1, 1))
        assert flatten_one(f * g, fmap) == flatten_one(f, fmap) * flatten_one(g, fmap)
        assert flatten_one(f + g, fmap) == flatten_one(f, fmap) + flatten_one(g, fmap)


def test_noether_xy_example():
    shifts, transformed, (coeff, lead) = noether_substitution(
        qq_poly("x*y", ["x", "y"]))
    assert shifts == (Fraction(3),)
    assert transformed == qq_poly("y^4 + x*y", ["x", "y"])
    assert coeff == Fraction(1)
    assert lead == Monomial.make([(1, Fraction(4))])


def test_noether_pure_power_univariate():
    shifts, transformed, (coeff, lead) = noether_substitution(
        qq_poly("t^5", ["t"]))
    assert shifts == ()
    assert transformed == qq_poly("t^5", ["t"])
    assert (coeff, lead) == (Fraction(1), Monomial.make([(0, Fraction(5))]))


def test_noether_fractional_example():
    f = qq_poly("x^(1/2)*y^(1/2)", ["x", "y"])
    shifts, transformed, (coeff, lead) = noether_substitution(f)
    # leading term is a pure rational power of y
    assert lead.variables() == (1,)
    assert coeff != 0


def test_noether_rejects_constants():
    with pytest.raises(ConstantInput):
        noether_substitution(qq_poly("3", ["x"]))


def test_noether_structural_property_randomized():
    rng = random.Random(55)
    done = 0
    while done < 100:
        nvars = rng.choice([2, 3])
        f = random_nonzero_poly(rng, QQ, nvars, max_terms=3, max_num=2,
                                max_den=2)
        if f.is_constant():
            continue
        _, transformed, (coeff, lead) = noether_substitution(f)
        top = max(m.exponent(nvars - 1) for m in transformed.terms)
        top_terms = [m for m in transformed.terms
                     if m.exponent(nvars - 1) == top]
        assert len(top_terms) == 1
        assert top_terms[0].variables() in ((nvars - 1,), ())
        assert coeff != 0
        done += 1
