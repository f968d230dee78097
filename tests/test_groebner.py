"""Groebner bases checked against an oracle written here: a plain
multivariate division over dicts of exponent tuples, which shares no code
with qdeg.ideals.  The pinned bases are the reduced bases of katsura-3 and
cyclic-4; reduced Groebner bases are unique, so any correct engine
reproduces them exactly."""

from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from qdeg.fields import QQ, PrimeField, RationalField
from qdeg.flatten import FlattenMap, flatten_one
from qdeg.ideals import (IdealPresentation, _divisor, _integral, _lead as
                         _engine_lead, _normal_form, groebner, ideal_member,
                         is_proper, radical_member)
from qdeg.parser import parse
from qdeg.poly import Monomial, QPolynomial

F7 = PrimeField(7)
F32003 = PrimeField(32003)


# ---- the oracle: p = 0 means Q (Fraction coefficients), else F_p ints ----

def _grevlex(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def _lead(f):
    return max(f, key=_grevlex)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _axpy(f, c, shift, g, p):
    """f - c * X^shift * g, as a new dict."""
    out = dict(f)
    for m, gc in g.items():
        key = tuple(x + y for x, y in zip(m, shift))
        val = out.get(key, 0) - c * gc
        if p:
            val %= p
        if val:
            out[key] = val
        else:
            out.pop(key, None)
    return out


def _quotient(a, b, p):
    return a * pow(b, -1, p) % p if p else Fraction(a) / b


def _remainder(f, basis, p):
    """Remainder of f on division by basis; every term is reduced."""
    f, rem = dict(f), {}
    while f:
        m = _lead(f)
        for g in basis:
            lg = _lead(g)
            if _divides(lg, m):
                shift = tuple(x - y for x, y in zip(m, lg))
                f = _axpy(f, _quotient(f[m], g[lg], p), shift, g, p)
                break
        else:
            rem[m] = f.pop(m)
    return rem


def _s_polynomial(f, g, p):
    lf, lg = _lead(f), _lead(g)
    l = tuple(max(x, y) for x, y in zip(lf, lg))
    fshift = tuple(x - y for x, y in zip(l, lf))
    gshift = tuple(x - y for x, y in zip(l, lg))
    a = _axpy({}, -_quotient(1, f[lf], p), fshift, f, p)
    return _axpy(a, _quotient(1, g[lg], p), gshift, g, p)


def _dicts(polys, nvars):
    return [{tuple(int(e) for e in mono.dense(nvars)): c
             for mono, c in g.terms.items()} for g in polys]


def _check_reduced_basis(gens, field):
    p = field.characteristic
    nvars = gens[0].nvars
    ideal = IdealPresentation(tuple(gens))
    gb = groebner(ideal)
    basis = _dicts(gb.basis, nvars)
    if ideal.is_zero_ideal:
        assert basis == []
        return
    assert basis
    leads = [_lead(g) for g in basis]
    for i, (g, lg) in enumerate(zip(basis, leads)):
        assert g[lg] == 1, "not monic"
        for j, lh in enumerate(leads):
            if i != j:
                assert not _divides(lh, lg), "not minimal"
                assert not any(_divides(lh, m) for m in g), "not reduced"
    flats = _dicts([flatten_one(g, gb.level) for g in ideal.generators], nvars)
    for f in flats:
        assert not _remainder(f, basis, p), "a generator does not reduce to 0"
    for i in range(len(basis)):
        for j in range(i):
            s = _s_polynomial(basis[i], basis[j], p)
            assert not _remainder(s, basis, p), \
                "an S-polynomial does not reduce to 0"
    if p and nvars <= 2:
        # the basis lies in the ideal: it vanishes on every common zero
        def value(f, point):
            total = 0
            for m, c in f.items():
                term = c
                for u, e in zip(point, m):
                    term = term * pow(u, e, p)
                total += term
            return total % p
        for point in product(range(p), repeat=nvars):
            if all(value(f, point) == 0 for f in flats):
                assert all(value(g, point) == 0 for g in basis)


# ---- random systems ----

def _system(field, coeffs):
    @st.composite
    def build(draw):
        nvars = draw(st.integers(1, 3))
        exps = st.tuples(*[st.integers(0, 3)] * nvars)
        exps = exps.filter(lambda e: sum(e) <= 3)
        gens = []
        for _ in range(draw(st.integers(1, 3))):
            terms = draw(st.lists(st.tuples(exps, coeffs), min_size=1, max_size=3))
            gens.append(QPolynomial.from_terms(
                field, nvars,
                [(Monomial.make(enumerate(e)), field.coerce(c)) for e, c in terms]))
        return gens
    return build()


_Q_COEFFS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@settings(max_examples=60, deadline=None)
@given(_system(F7, st.integers(0, 6)))
def test_random_bases_over_f7(gens):
    _check_reduced_basis(gens, F7)


# Equal leading monomials: the Gebauer-Moeller update may drop an old pair
# only when its lcm differs from both lcms with the new element.
_SAME_LEADS = [parse(t, QQ, ["x", "y"]) for t in ("x*y + 1", "x*y + y", "x*y")]


@settings(max_examples=60, deadline=None)
@given(_system(QQ, _Q_COEFFS))
@example(_SAME_LEADS)
def test_random_bases_over_q(gens):
    _check_reduced_basis(gens, QQ)


def test_fractional_exponents_over_both_fields():
    for field in (QQ, F7):
        gens = [parse(t, field, ["x", "y"]) for t in
                ("x^(1/2)*y - 1", "y^(3/2) - x", "x^(1/3) + y^(1/2) - 2")]
        _check_reduced_basis(gens, field)


# ---- pinned reduced bases ----

KATSURA3 = (["x0", "x1", "x2", "x3"],
            ["x0 + 2*x1 + 2*x2 + 2*x3 - 1",
             "x0^2 + 2*x1^2 + 2*x2^2 + 2*x3^2 - x0",
             "2*x0*x1 + 2*x1*x2 + 2*x2*x3 - x1",
             "x1^2 + 2*x0*x2 + 2*x1*x3 - x2"])
CYCLIC4 = (["a", "b", "c", "d"],
           ["a + b + c + d", "a*b + b*c + c*d + d*a",
            "a*b*c + b*c*d + c*d*a + d*a*b", "a*b*c*d - 1"])

PINNED = {
    ("katsura3", "q"): [
        "x0 + 2*x1 + 2*x2 + 2*x3 - 1",
        "2*x1*x3 + x2^2 + 32/7*x2*x3 + 27/7*x3^2 - 1/7*x1 - 4/7*x2 - 9/7*x3",
        "x1*x2 - 2*x1*x3 - 23/7*x2*x3 - 24/7*x3^2 + 1/14*x1 + 2/7*x2 + 8/7*x3",
        "x1^2 + 2*x1*x3 + 8/7*x2*x3 + 12/7*x3^2 - 2/7*x1 - 1/7*x2 - 4/7*x3",
        "x2*x3^2 + 10/9*x3^3 - 1/18*x1*x3 - 17/81*x2*x3 - 13/27*x3^2"
        " + 1/54*x1 + 5/162*x2 + 1/27*x3",
        "x1*x3^2 - 1/3*x3^3 - 1/9*x1*x3 + 1/54*x2*x3 + 1/9*x3^2 - 1/36*x1"
        " - 1/27*x2",
        "x3^4 - 362/891*x3^3 + 37/891*x1*x3 + 1841/16038*x2*x3"
        " + 206/2673*x3^2 - 13/10692*x1 - 389/32076*x2 - 47/2673*x3",
    ],
    ("katsura3", "fp"): [
        "x0 + 2*x1 + 2*x2 + 2*x3 + 32002",
        "2*x1*x3 + x2^2 + 18292*x2*x3 + 27435*x3^2 + 27431*x1 + 13715*x2"
        " + 22858*x3",
        "x1*x2 + 32001*x1*x3 + 22856*x2*x3 + 18284*x3^2 + 2286*x1"
        " + 9144*x2 + 4573*x3",
        "x1^2 + 2*x1*x3 + 4573*x2*x3 + 22861*x3^2 + 22859*x1 + 27431*x2"
        " + 13715*x3",
        "x2*x3^2 + 3557*x3^3 + 30225*x1*x3 + 28842*x2*x3 + 5926*x3^2"
        " + 21928*x1 + 25879*x2 + 11853*x3",
        "x1*x3^2 + 21335*x3^3 + 28447*x1*x3 + 21928*x2*x3 + 3556*x3^2"
        " + 31114*x1 + 20150*x2",
        "x3^4 + 12535*x3^3 + 7471*x1*x3 + 6188*x2*x3 + 10117*x3^2"
        " + 10521*x1 + 11393*x2 + 11829*x3",
    ],
    ("cyclic4", "q"): [
        "a + b + c + d",
        "b^2 + 2*b*d + d^2",
        "b*c^2 - b*d^2 + c^2*d - d^3",
        "b*c*d^2 - b*d^3 + c^2*d^2 + c*d^3 - d^4 - 1",
        "b*d^4 + d^5 - b - d",
        "c^3*d^2 + c^2*d^3 - c - d",
        "c^2*d^4 + b*c - b*d + c*d - 2*d^2",
    ],
    ("cyclic4", "fp"): [
        "a + b + c + d",
        "b^2 + 2*b*d + d^2",
        "b*c^2 + 32002*b*d^2 + c^2*d + 32002*d^3",
        "b*c*d^2 + 32002*b*d^3 + c^2*d^2 + c*d^3 + 32002*d^4 + 32002",
        "b*d^4 + d^5 + 32002*b + 32002*d",
        "c^3*d^2 + c^2*d^3 + 32002*c + 32002*d",
        "c^2*d^4 + b*c + 32002*b*d + c*d + 32001*d^2",
    ],
}


def test_pinned_bases_over_q_and_f32003():
    for system, (names, texts) in (("katsura3", KATSURA3), ("cyclic4", CYCLIC4)):
        for field_name, field in (("q", QQ), ("fp", F32003)):
            ideal = IdealPresentation(tuple(parse(t, field, names) for t in texts))
            want = [parse(t, field, names) for t in PINNED[(system, field_name)]]
            assert groebner(ideal).basis == tuple(want)
            # at level 2 each T_i is Y_i^2, and so is every basis element
            square = FlattenMap((2,) * len(names))
            assert groebner(ideal, level=square).basis == \
                tuple(flatten_one(g, square) for g in want)


# ---- the integer core ----

KATSURA3_MEMBERS = {
    # f: (in the ideal, in its radical)
    "x1*x0^2 + 2*x1^3 + 2*x1*x2^2 + 2*x1*x3^2 - x1*x0"
    " - x3*(x1^2 + 2*x0*x2 + 2*x1*x3 - x2)": (True, True),
    "x3^2*(x1^2 + 2*x0*x2 + 2*x1*x3 - x2)^2": (True, True),
    "x3": (False, False),
    "1": (False, False),
}


def test_engine_over_q_makes_no_field_calls(monkeypatch):
    """Over Q the engine computes on ints: with the rational field's
    arithmetic switched off, the answers are the pinned ones."""
    names, texts = KATSURA3
    ideal = IdealPresentation(tuple(parse(t, QQ, names) for t in texts))
    want = tuple(parse(t, QQ, names) for t in PINNED[("katsura3", "q")])
    members = {parse(t, QQ, names): answers
               for t, answers in KATSURA3_MEMBERS.items()}

    def refuse(*args):
        raise AssertionError("field arithmetic in the Groebner core")

    for name in ("add", "sub", "mul", "div", "neg", "inv"):
        monkeypatch.setattr(RationalField, name, refuse)
    with pytest.raises(AssertionError):
        QQ.mul(QQ.one, QQ.one)
    assert groebner(ideal).basis == want
    assert is_proper(ideal)
    for f, (member, radical) in members.items():
        assert ideal_member(f, ideal) == member
        assert radical_member(f, ideal) == radical


def _flat_systems(p):
    """(f, divisors) as flat dicts of field coefficients in 1-3 variables."""
    if p:
        coeffs = st.integers(1, p - 1)
    else:
        small = st.builds(Fraction, st.integers(1, 9), st.integers(1, 4))
        big = st.builds(Fraction, st.integers(1, 10 ** 30), st.integers(1, 10 ** 20))
        coeffs = st.builds(lambda sign, c: sign * c, st.sampled_from((1, -1)),
                           st.one_of(small, big))

    @st.composite
    def build(draw):
        nvars = draw(st.integers(1, 3))
        exps = st.tuples(*[st.integers(0, 3)] * nvars)
        poly = st.dictionaries(exps, coeffs, min_size=1, max_size=4)
        return draw(poly), draw(st.lists(poly, min_size=1, max_size=3))
    return build()


def _engine_divisors(divisors, p):
    out = []
    for g in divisors:
        g = _integral(g, p)
        lead = _engine_lead(g)
        if p:
            assert g[lead] == 1
        else:
            assert g[lead] > 0 and gcd(*g.values()) == 1
        out.append(_divisor(lead, g))
    return out


_BIG = Fraction(10 ** 40, 7)
_MERSENNE = Fraction(1, 2 ** 61 - 1)


@settings(max_examples=80, deadline=None)
@given(_flat_systems(0))
@example(({(2, 0): _BIG, (1, 1): _MERSENNE, (0, 0): Fraction(3)},
          [{(1, 0): _BIG, (0, 1): 3 * _BIG},
           {(0, 1): _MERSENNE, (0, 0): -_BIG}]))
@example(({(3,): _MERSENNE, (1,): _BIG},
          [{(1,): 2 * _BIG, (0,): -4 * _BIG}]))
def test_normal_form_over_q_matches_the_oracle(system):
    f, divisors = system
    f = _integral(f, 0)
    assert gcd(*f.values()) == 1
    s, r = _normal_form(f, _engine_divisors(divisors, 0), 0)
    assert s > 0
    assert {m: Fraction(c, s) for m, c in r.items()} == \
        _remainder({m: Fraction(c) for m, c in f.items()}, divisors, 0)


@settings(max_examples=80, deadline=None)
@given(_flat_systems(7))
def test_normal_form_over_f7_matches_the_oracle(system):
    f, divisors = system
    s, r = _normal_form(f, _engine_divisors(divisors, 7), 7)
    assert s == 1
    assert r == _remainder(f, divisors, 7)
