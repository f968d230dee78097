import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_poly
from qdeg.errors import (CompositionNotPolynomial, ExpressionSyntaxError,
                         UnknownVariable)
from qdeg.fields import QQ, PrimeField
from qdeg.parser import (MAX_NESTING, from_term_list, parse, print_poly,
                         to_term_list)
from qdeg.poly import Monomial, QPolynomial

F5 = PrimeField(5)
XY = ["x", "y"]


def test_parse_examples():
    f = parse("x^(1/2) - y^2", QQ, XY)
    assert f == QPolynomial.from_terms(QQ, 2, [
        (Monomial.make([(0, Fraction(1, 2))]), Fraction(1)),
        (Monomial.make([(1, Fraction(2))]), Fraction(-1)),
    ])
    assert parse("0", QQ, XY).is_zero()
    assert parse("2*x^(5/6)", QQ, ["x"]) == QPolynomial.from_terms(
        QQ, 1, [(Monomial.make([(0, Fraction(5, 6))]), Fraction(2))])
    assert parse("(x + 1)^2", QQ, ["x"]) == parse("x^2 + 2*x + 1", QQ, ["x"])


def test_parse_collects_like_terms():
    assert parse("x + x", QQ, ["x"]) == parse("2*x", QQ, ["x"])
    assert parse("x - x", QQ, ["x"]).is_zero()


def test_parse_prime_field_coefficients():
    f = parse("3*x + 7", F5, ["x"])
    assert f == parse("3*x + 2", F5, ["x"])
    # 1/2 = 3 in F_5
    assert parse("1/2*x", F5, ["x"]) == parse("3*x", F5, ["x"])


def test_print_examples():
    assert print_poly(parse("x^(1/2) - y^2", QQ, XY), XY) == "-y^2 + x^(1/2)"
    assert print_poly(QPolynomial.zero(QQ, 2), XY) == "0"
    assert print_poly(parse("2*x^(5/6)", QQ, ["x"]), ["x"]) == "2*x^(5/6)"
    assert print_poly(parse("x*y + 1", QQ, XY), XY) == "x*y + 1"
    laurent = QPolynomial.variable(QQ, 1, 0, Fraction(-1, 2))
    assert print_poly(laurent, ["x"]) == "x^(-1/2)"
    assert parse(print_poly(laurent, ["x"]), QQ, ["x"]) == laurent


def test_roundtrip_randomized():
    for field in (QQ, F5):
        rng = random.Random(606)
        for _ in range(1000):
            f = random_poly(rng, field, 3)
            text = print_poly(f, ["x", "y", "z"])
            assert parse(text, field, ["x", "y", "z"]) == f
            # printing is deterministic and canonical
            assert print_poly(parse(text, field, ["x", "y", "z"]),
                              ["x", "y", "z"]) == text


def test_print_injective_on_sample():
    rng = random.Random(808)
    seen = {}
    for _ in range(500):
        f = random_poly(rng, QQ, 2)
        text = print_poly(f, XY)
        if text in seen:
            assert seen[text] == f
        seen[text] = f


def test_syntax_error_position():
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse("x + + ", QQ, ["x"])
    assert 0 <= exc.value.position <= len("x + + ")
    with pytest.raises(ExpressionSyntaxError):
        parse("", QQ, ["x"])
    with pytest.raises(ExpressionSyntaxError):
        parse("x^", QQ, ["x"])
    with pytest.raises(ExpressionSyntaxError):
        parse("x y", QQ, XY)  # implicit multiplication
    with pytest.raises(ExpressionSyntaxError):
        parse("2x", QQ, ["x"])
    with pytest.raises(ExpressionSyntaxError):
        parse("x^(1/0)", QQ, ["x"])


def test_nesting_depth_limit():
    x = parse("x", QQ, ["x"])
    deepest = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse(deepest, QQ, ["x"]) == x
    assert parse("(" * MAX_NESTING + "x)" + "*(x" + ")" * MAX_NESTING,
                 QQ, ["x"]) == x * x
    for depth in (MAX_NESTING + 1, 2000, 100000):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse("(" * depth + "x" + ")" * depth, QQ, ["x"])
        assert exc.value.position == MAX_NESTING
        assert exc.value.ident == "SyntaxError"


def test_unknown_variable():
    with pytest.raises(UnknownVariable):
        parse("x + w", QQ, XY)


def test_fractional_power_of_sum_rejected_over_q():
    with pytest.raises(CompositionNotPolynomial):
        parse("(x + 1)^(1/2)", QQ, ["x"])
    f = parse("(x + 1)^(1/2)", PrimeField(2), ["x"])
    assert f == parse("x^(1/2) + 1", PrimeField(2), ["x"])


def test_term_list_roundtrip():
    rng = random.Random(909)
    for field in (QQ, F5):
        for _ in range(200):
            f = random_poly(rng, field, 2)
            data = to_term_list(f, XY)
            json.dumps(data)  # serializable
            assert from_term_list(data, field, XY) == f


def test_term_list_example():
    f = parse("x^(1/2) - y^2", QQ, XY)
    data = to_term_list(f, XY)
    assert data == [
        {"coeff": "-1", "exps": {"y": "2"}},
        {"coeff": "1", "exps": {"x": "1/2"}},
    ]


# ---- differential: parse of sums of products against expanded terms ----

_COEFFS = st.tuples(st.integers(0, 9), st.integers(1, 6))
_EXPONENTS = st.tuples(st.integers(-3, 4), st.integers(1, 3))
_FACTORS = st.lists(st.one_of(st.tuples(st.just("c"), _COEFFS),
                              st.tuples(st.sampled_from([0, 1]), _EXPONENTS)),
                    min_size=1, max_size=3)
_TERMS = st.lists(st.tuples(st.booleans(), _FACTORS), min_size=1, max_size=6)


def _factor_text(factor):
    kind, (a, b) = factor
    if kind == "c":
        return "%d/%d" % (a, b) if b != 1 else str(a)
    e = Fraction(a, b)
    return "%s^(%s)" % (XY[kind], e) if e < 0 else "%s^%s" % (XY[kind], e)


def _expanded_term(field, negative, factors):
    """(monomial, coefficient) of one product, multiplied out by hand."""
    coeff, exps = field.one, {}
    for kind, (a, b) in factors:
        if kind == "c":
            coeff = field.mul(coeff, field.div(field.coerce(a), field.coerce(b)))
        else:
            exps[kind] = exps.get(kind, 0) + Fraction(a, b)
    return Monomial.make(exps.items()), field.neg(coeff) if negative else coeff


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from([QQ, PrimeField(7)]), terms=_TERMS,
       echo=st.lists(st.integers(0, 5), max_size=3))
def test_parse_matches_expanded_terms(field, terms, echo):
    # every echoed term is subtracted (it cancels) and added back (reappears)
    for k in echo:
        negative, factors = terms[k % len(terms)]
        terms = terms + [(not negative, factors), (negative, factors)]
    text = ""
    for idx, (negative, factors) in enumerate(terms):
        sign = "-" if negative else ("+" if idx else "")
        text += " %s %s" % (sign, "*".join(map(_factor_text, factors)))
    want = QPolynomial.from_terms(
        field, 2, [_expanded_term(field, neg, fs) for neg, fs in terms])
    assert parse(text, field, XY) == want


def test_parse_builds_the_sum_without_polynomial_additions(monkeypatch):
    terms = ["%d*x^(%d/7)*y" % (k + 1, k) for k in range(2000)]
    text = " + ".join(terms[:1000]) + " - " + " - ".join(terms[1000:])

    def refuse(self, other):
        raise AssertionError("parse added polynomials term by term")

    monkeypatch.setattr(QPolynomial, "__add__", refuse)
    monkeypatch.setattr(QPolynomial, "__sub__", refuse)
    f = parse(text, QQ, XY)
    assert len(f.terms) == 2000
    assert f.terms[Monomial.make([(0, Fraction(1999, 7)), (1, 1)])] == -2000


def test_parse_products_of_numbers_and_variables():
    names = ["x", "y"]

    def mono(*pairs):
        return Monomial.make(pairs)

    assert parse("x*3*y", QQ, names).terms == {mono((0, 1), (1, 1)): 3}
    assert parse("x^(1/2)*x^(1/2)", QQ, names).terms == {mono((0, 1)): 1}
    assert parse("x*x^(-1)", QQ, names).terms == {Monomial.one(): 1}
    assert parse("0*x", QQ, names).is_zero()
    assert parse("5*x", F5, names).is_zero()
    assert parse("2/3*x*3/2", QQ, names).terms == {mono((0, 1)): 1}
    assert parse("2*(x+1)*y^(1/2)", QQ, names).terms == {
        mono((0, 1), (1, Fraction(1, 2))): 2, mono((1, Fraction(1, 2))): 2}
    assert parse("x*(x^(-1)+y)*(y - 1)", F5, names) == parse(
        "y + x*y^2 - 1 - x*y", F5, names)
    # a term that is zero leaves no key behind for a later equal term
    assert list(parse("0*x + y + x", QQ, names).terms) == [mono((1, 1)),
                                                           mono((0, 1))]


def test_parse_builds_monomial_terms_without_polynomial_products(monkeypatch):
    text = " + ".join("%d*x^(%d/5)*y*3*x^(-1/5)" % (k + 1, k)
                      for k in range(200))

    def refuse(self, other):
        raise AssertionError("parse multiplied polynomials for a monomial term")

    monkeypatch.setattr(QPolynomial, "__mul__", refuse)
    f = parse(text, QQ, XY)
    assert len(f.terms) == 200
    assert f.terms[Monomial.make([(0, Fraction(198, 5)), (1, 1)])] == 600


@pytest.mark.parametrize("text, offset", [("\u00b2", 0), ("x^\u00b2", 2),
                                          ("x + 1\u00b2", 5)])
def test_digits_int_cannot_read_are_syntax_errors(text, offset):
    with pytest.raises(ExpressionSyntaxError) as info:
        parse(text, QQ, ["x"])
    assert info.value.position == offset
