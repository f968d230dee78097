import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import random_poly
from qdeg.errors import FieldMismatch
from qdeg.fields import QQ, PrimeField
from qdeg.parser import parse
from qdeg.poly import Monomial, QPolynomial

F2 = PrimeField(2)
F7 = PrimeField(7)


def xvar(field=QQ, nvars=1, e=1):
    return QPolynomial.variable(field, nvars, 0, Fraction(e))


def test_add_like_terms():
    f = xvar(e=Fraction(1, 2))
    assert (f + f).terms == {Monomial.make([(0, Fraction(1, 2))]): Fraction(2)}


def test_add_cancels_in_f2():
    f = xvar(F2, e=Fraction(1, 2))
    assert (f + f).is_zero()


def test_add_identity():
    rng = random.Random(1)
    f = random_poly(rng, QQ, 2)
    assert f + QPolynomial.zero(QQ, 2) == f


def test_mul_exponents_add():
    f = xvar(e=Fraction(1, 2)) * xvar(e=Fraction(1, 3))
    assert f.terms == {Monomial.make([(0, Fraction(5, 6))]): Fraction(1)}


def test_mul_difference_of_roots():
    one = QPolynomial.constant(QQ, 1, 1)
    h = xvar(e=Fraction(1, 2))
    assert (h - one) * (h + one) == xvar(e=1) - one


def test_mul_identity():
    rng = random.Random(2)
    f = random_poly(rng, QQ, 3)
    assert f * QPolynomial.constant(QQ, 3, 1) == f


def test_total_degree_examples():
    x = QPolynomial.variable(QQ, 2, 0)
    y = QPolynomial.variable(QQ, 2, 1)
    xh = QPolynomial.variable(QQ, 2, 0, Fraction(1, 2))
    yh = QPolynomial.variable(QQ, 2, 1, Fraction(1, 2))
    assert (xh * yh + y).total_degree() == 1
    assert (x * x + xh).total_degree() == 2
    assert QPolynomial.zero(QQ, 2).total_degree() is None


def test_field_mismatch_raises():
    with pytest.raises(FieldMismatch):
        xvar(QQ) + xvar(F2)
    with pytest.raises(FieldMismatch):
        QPolynomial.variable(QQ, 1, 0) * QPolynomial.variable(QQ, 2, 0)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)])
def test_ring_laws_randomized(field):
    rng = random.Random(99)
    for _ in range(500):
        f = random_poly(rng, field, 2)
        g = random_poly(rng, field, 2)
        h = random_poly(rng, field, 2)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_degree_additivity_over_q():
    # integral domain: deg(fg) = deg f + deg g for nonzero f, g
    rng = random.Random(7)
    checked = 0
    while checked < 200:
        f = random_poly(rng, QQ, 2)
        g = random_poly(rng, QQ, 2)
        if f.is_zero() or g.is_zero():
            continue
        assert (f * g).total_degree() == f.total_degree() + g.total_degree()
        checked += 1


def test_canonical_form_idempotent():
    rng = random.Random(13)
    for _ in range(200):
        f = random_poly(rng, QQ, 3)
        again = QPolynomial(f.field, f.nvars, dict(f.terms))
        assert again == f and again.terms == f.terms


def test_zero_coefficients_dropped():
    mono = Monomial.make([(0, Fraction(1))])
    f = QPolynomial(QQ, 1, {mono: Fraction(0)})
    assert f.is_zero()


def test_zero_exponents_dropped():
    assert Monomial.make([(0, Fraction(0)), (1, Fraction(2))]) == \
        Monomial.make([(1, Fraction(2))])


def test_sorted_terms_graded_lex():
    x = QPolynomial.variable(QQ, 2, 0)
    y = QPolynomial.variable(QQ, 2, 1)
    f = x + y * y + x * y
    monos = [m for m, _ in f.sorted_terms()]
    degrees = [m.degree() for m in monos]
    assert degrees == sorted(degrees, reverse=True)
    # same degree: lex on variable 0 first
    assert monos[0] == Monomial.make([(0, 1), (1, 1)])


# ---- int exponents inside products and the print order ----

def _fraction_dict_product(f, g):
    """Oracle: the product as the Fraction exponent dicts give it, one
    exponent merge per term pair."""
    field = f.field
    acc = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            exps = dict(m1.exps)
            for i, e in m2.exps:
                exps[i] = exps.get(i, Fraction(0)) + e
            mono = Monomial.make(exps.items())
            acc[mono] = field.add(acc.get(mono, field.zero), field.mul(c1, c2))
    return QPolynomial(field, f.nvars, acc)


def _grlex_key(mono, nvars):
    """Oracle: the print-order key on Fractions (degree, dense exponents)."""
    return (mono.degree(), mono.dense(nvars))


_EXPONENT = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))
_MONOMIAL = st.dictionaries(st.integers(0, 2), _EXPONENT, max_size=3)
_COEFF = st.tuples(st.integers(-3, 3), st.integers(1, 3))
_TERMS = st.lists(st.tuples(_MONOMIAL, _COEFF), max_size=5)


def _poly(field, terms):
    return QPolynomial.from_terms(field, 3, [
        (Monomial.make(exps.items()),
         field.div(field.coerce(a), field.coerce(b))) for exps, (a, b) in terms])


@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from([QQ, F7]), f=_TERMS, g=_TERMS)
@example(field=QQ, f=[({0: Fraction(1, 2)}, (1, 1)), ({}, (1, 1))],
         g=[({0: Fraction(1, 2)}, (1, 1)), ({}, (-1, 1))])
@example(field=F7, f=[({1: Fraction(-1, 3)}, (3, 1))],
         g=[({1: Fraction(1, 3)}, (5, 1)), ({2: Fraction(-5, 6)}, (1, 2))])
def test_mul_matches_fraction_dict_product(field, f, g):
    f, g = _poly(field, f), _poly(field, g)
    got, want = f * g, _fraction_dict_product(f, g)
    assert got == want
    assert list(got.terms) == list(want.terms)
    assert all(m.exps == Monomial.make(m.exps).exps for m in got.terms)


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from([QQ, F7]), f=_TERMS)
def test_print_order_matches_fraction_grlex(field, f):
    f = _poly(field, f)
    key = lambda m: _grlex_key(m, f.nvars)
    assert [m for m, _ in f.sorted_terms()] == sorted(f.terms, key=key,
                                                      reverse=True)
    if not f.is_zero():
        mono = max(f.terms, key=key)
        assert f.leading() == (mono, f.terms[mono])


def test_equal_monomials_hash_equal():
    half = Fraction(1, 2)
    made = Monomial.make([(1, 1), (0, half)])
    multiplied = Monomial.make([(0, Fraction(1, 4)), (2, 3)]).mul(
        Monomial.make([(0, Fraction(1, 4)), (1, Fraction(2, 2)), (2, -3)]))
    parsed, = parse("x^(1/4)*y*x^(1/4)", QQ, ["x", "y", "z"]).terms
    product, = (QPolynomial.variable(QQ, 3, 0, Fraction(1, 6))
                * parse("x^(1/3)*y", QQ, ["x", "y", "z"])).terms
    monos = [made, multiplied, parsed, product]
    assert all(m == made for m in monos)
    assert len({hash(m) for m in monos}) == 1
    assert len(set(monos)) == 1
    assert repr(made) == "Monomial(exps=((0, Fraction(1, 2)), (1, Fraction(1, 1))))"
    assert Monomial.make([]) == Monomial.one() and not Monomial.one().exps
    assert made.mul(Monomial.one()) == made == Monomial.one().mul(made)
    assert made.mul(Monomial.make([(0, -half), (1, -1)])) == Monomial.one()
    assert made != made.exps
