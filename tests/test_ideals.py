import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import qq_poly, random_poly, univariate
from qdeg.errors import FieldMismatch, NotUnivariate
from qdeg.fields import QQ, PrimeField
from qdeg.flatten import exponent_lcm, flatten, unflatten
from qdeg.ideals import (IdealPresentation, gcd_univariate, groebner,
                         ideal_member, is_proper, radical_member)
from qdeg.parser import parse
from qdeg.poly import Monomial, QPolynomial

F5 = PrimeField(5)
F7 = PrimeField(7)


def ideal(*texts, varnames=("x",)):
    return IdealPresentation(tuple(qq_poly(t, list(varnames)) for t in texts))


def random_univariate(rng, field, max_terms=3):
    pairs = []
    for _ in range(rng.randint(1, max_terms)):
        e = Fraction(rng.randint(0, 3), rng.choice([1, 1, 2, 3]))
        if field.characteristic == 0:
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        else:
            c = rng.randrange(field.characteristic)
        pairs.append((e, c))
    return univariate(field, pairs)


# ---- gcd ----

def test_gcd_root_factor():
    f = qq_poly("x - 1", ["x"])
    g = qq_poly("x^(1/2) - 1", ["x"])
    d, u, v = gcd_univariate(f, g)
    assert d == g
    assert u * f + v * g == d


def test_gcd_with_zero():
    f = qq_poly("2*x^2 + 2", ["x"])
    z = QPolynomial.zero(QQ, 1)
    d, u, v = gcd_univariate(f, z)
    assert d == qq_poly("x^2 + 1", ["x"])
    assert u == qq_poly("1/2", ["x"]) and v.is_zero()


def test_gcd_coprime_roots():
    d, u, v = gcd_univariate(qq_poly("x^(1/2) + 1", ["x"]),
                             qq_poly("x^(1/3) + 1", ["x"]))
    assert d == qq_poly("1", ["x"])


def test_gcd_rejects_multivariate():
    with pytest.raises(NotUnivariate):
        gcd_univariate(qq_poly("x*y", ["x", "y"]), qq_poly("x", ["x", "y"]))


def test_gcd_bezout_randomized():
    for field in (QQ, F5):
        rng = random.Random(4242)
        for _ in range(100):
            f = random_univariate(rng, field)
            g = random_univariate(rng, field)
            d, u, v = gcd_univariate(f, g)
            assert u * f + v * g == d
            if not d.is_zero():
                # gcd divides both inputs: remainder-free at the flatten level
                for h in (f, g):
                    _, uu, vv = gcd_univariate(h, d)
                    assert ideal_member(h, IdealPresentation((d,)))


# ---- groebner ----

def test_groebner_hand_example():
    gb = groebner(ideal("y - 1", "x - y^2", varnames=("x", "y")))
    assert set(gb.basis) == {qq_poly("y - 1", ["x", "y"]),
                             qq_poly("x - 1", ["x", "y"])}


def test_groebner_principal_flattens():
    gb = groebner(ideal("x^(1/2)"))
    assert gb.level.orders == (2,)
    assert gb.basis == (qq_poly("x", ["x"]),)


def test_groebner_unit_ideal():
    gb = groebner(ideal("x", "x - 1"))
    assert gb.basis == (qq_poly("1", ["x"]),)
    assert gb.contains_one()


def test_groebner_deterministic():
    gens = ideal("x^2 - y", "x*y - 1", varnames=("x", "y"))
    assert groebner(gens) == groebner(gens)


# ---- membership ----

def test_member_examples():
    assert ideal_member(qq_poly("x", ["x"]), ideal("x^(1/2)"))
    assert not ideal_member(qq_poly("x^(1/2)", ["x"]), ideal("x"))
    assert ideal_member(QPolynomial.zero(QQ, 1), ideal("x^2 + 1"))


def test_member_absorption_randomized():
    rng = random.Random(77)
    done = 0
    while done < 50:
        gens = IdealPresentation(
            tuple(random_poly(rng, QQ, 2, max_terms=2, max_num=2, max_den=2)
                  for _ in range(2)))
        if gens.is_zero_ideal:
            continue
        f = gens.generators[0]
        any_poly = random_poly(rng, QQ, 2, max_terms=2, max_num=2, max_den=2)
        assert ideal_member(f, gens)
        assert ideal_member(f * any_poly, gens)
        done += 1


def test_member_level_stability_randomized():
    rng = random.Random(88)
    done = 0
    while done < 30:
        gens = IdealPresentation(
            tuple(random_poly(rng, QQ, 2, max_terms=2, max_num=2, max_den=2)
                  for _ in range(2)))
        f = random_poly(rng, QQ, 2, max_terms=2, max_num=2, max_den=2)
        if gens.is_zero_ideal:
            continue
        base = exponent_lcm(list(gens.generators) + [f])
        assert ideal_member(f, gens, level=base) == \
            ideal_member(f, gens, level=base.refine(2))
        done += 1


# ---- radical membership ----

def test_radical_hand_examples():
    assert radical_member(qq_poly("t", ["t"]), ideal("t^2", varnames=("t",)))
    assert radical_member(qq_poly("t^(1/2)", ["t"]), ideal("t", varnames=("t",)))
    assert not radical_member(qq_poly("t - 1", ["t"]), ideal("t", varnames=("t",)))


def test_radical_oracle_equivalence():
    rng = random.Random(3141)
    done = 0
    while done < 50:
        base = random_poly(rng, QQ, 1, max_terms=2, max_num=2, max_den=2)
        if base.is_zero() or base.is_constant():
            continue
        gens = IdealPresentation((base ** rng.randint(1, 3),))
        f = random_poly(rng, QQ, 1, max_terms=2, max_num=2, max_den=2)
        brute = any(ideal_member(f ** n, gens) for n in range(1, 7))
        assert radical_member(f, gens) == brute
        done += 1


# ---- properness ----

def test_proper_examples():
    assert is_proper(ideal("x", "y", varnames=("x", "y")))
    assert not is_proper(ideal("x", "x - 1"))
    assert is_proper(ideal("x^(1/2) - 1", "x - 1"))


def test_proper_implies_common_zero_over_f5():
    from qdeg.geometry import variety_bruteforce
    from qdeg.parser import parse
    curated = [
        (["x^(1/2) - 1"], ["x"], 2),
        (["x - 1", "y - 2"], ["x", "y"], 1),
        (["x^2 - 4"], ["x"], 1),
        (["x", "y"], ["x", "y"], 1),
    ]
    for texts, varnames, level in curated:
        gens = IdealPresentation(tuple(parse(t, F5, varnames) for t in texts))
        assert is_proper(gens)
        assert variety_bruteforce(gens, level)


# ---- mixed fields and variable counts are refused ----

XY = ["x", "y"]


def test_generators_of_mixed_fields_are_refused():
    with pytest.raises(FieldMismatch):
        IdealPresentation((parse("x", QQ, XY), parse("x", F7, XY)))


def test_generators_of_mixed_variable_counts_are_refused():
    with pytest.raises(FieldMismatch):
        IdealPresentation((parse("x", QQ, XY), parse("x + 1", F7, ["x"])))
    with pytest.raises(FieldMismatch):
        IdealPresentation((parse("x", QQ, XY), parse("x + 1", QQ, ["x"])))


def test_zero_generator_of_another_field_is_refused():
    with pytest.raises(FieldMismatch):
        IdealPresentation((parse("x", QQ, XY), QPolynomial.zero(F7, 2)))


def test_member_of_another_field_is_refused():
    gens = IdealPresentation((parse("x^2 - 2", F7, XY),))
    with pytest.raises(FieldMismatch):
        ideal_member(parse("x^2 - 2", QQ, XY), gens)
    with pytest.raises(FieldMismatch):
        ideal_member(QPolynomial.zero(QQ, 2), gens)


def test_member_with_another_variable_count_is_refused():
    gens = IdealPresentation((parse("x", QQ, XY),))
    with pytest.raises(FieldMismatch):
        ideal_member(parse("x", QQ, ["x"]), gens)


def test_radical_member_of_another_field_is_refused():
    gens = IdealPresentation((parse("x^2", F7, XY),))
    with pytest.raises(FieldMismatch):
        radical_member(parse("x", QQ, XY), gens)


def test_radical_member_with_another_variable_count_is_refused():
    gens = IdealPresentation((parse("x^2", QQ, XY),))
    with pytest.raises(FieldMismatch):
        radical_member(parse("x", QQ, ["x"]), gens)


# ---- differential: gcd_univariate against the textbook extended Euclid ----

def _two_cofactor_gcd(f, g):
    """Extended Euclid on the raw remainders with both cofactor recurrences,
    made monic at the end; the reference for gcd_univariate."""
    field = f.field
    if f.is_zero() and g.is_zero():
        return f, f, f
    fmap, flat = flatten([f, g])

    def dense(h):
        out = {int(m.exponent(0)): c for m, c in h.terms.items()}
        return [out.get(i, field.zero) for i in range(max(out, default=-1) + 1)]

    def trim(a):
        while a and a[-1] == field.zero:
            a.pop()
        return a

    def sub(a, b):
        a = a + [field.zero] * (len(b) - len(a))
        return trim([field.sub(x, b[i]) if i < len(b) else x
                     for i, x in enumerate(a)])

    def mul(a, b):
        out = [field.zero] * (len(a) + len(b))
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = field.add(out[i + j], field.mul(x, y))
        return trim(out)

    def divmod_(a, b):
        q = [field.zero] * max(len(a) - len(b) + 1, 0)
        while len(a) >= len(b):
            shift = len(a) - len(b)
            q[shift] = field.div(a[-1], b[-1])
            a = sub(a, [field.zero] * shift + [field.mul(q[shift], c) for c in b])
        return q, a

    (r0, u0, v0), (r1, u1, v1) = ((dense(flat[0]), [field.one], []),
                                  (dense(flat[1]), [], [field.one]))
    while r1:
        q, r = divmod_(r0, r1)
        (r0, u0, v0), (r1, u1, v1) = ((r1, u1, v1),
                                      (r, sub(u0, mul(q, u1)), sub(v0, mul(q, v1))))
    inv = field.inv(r0[-1])

    def lift(a):
        return unflatten(fmap, QPolynomial.from_terms(
            field, 1, [(Monomial.make([(0, i)]), field.mul(c, inv))
                       for i, c in enumerate(a)]))

    return lift(r0), lift(u0), lift(v0)


def _flat_degree(h, fmap):
    return -1 if h.is_zero() else int(flatten([h], fmap)[1][0].total_degree())


_UNIVARIATE = st.lists(st.tuples(st.integers(-4, 4), st.integers(0, 5),
                                 st.sampled_from([1, 1, 2, 3])), max_size=4)


@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from([QQ, PrimeField(7)]), fspec=_UNIVARIATE,
       gspec=_UNIVARIATE, shape=st.sampled_from(["free", "g|f", "const"]))
def test_gcd_matches_two_cofactor_euclid(field, fspec, gspec, shape):
    f = univariate(field, [(Fraction(a, b), c) for c, a, b in fspec])
    g = univariate(field, [(Fraction(a, b), c) for c, a, b in gspec])
    if shape == "g|f":
        f = f * g
    elif shape == "const":
        f = QPolynomial.constant(field, 1, len(fspec))
    result = gcd_univariate(f, g)
    assert result == _two_cofactor_gcd(f, g)
    d, u, v = result
    assert u * f + v * g == d
    if not (f.is_zero() or g.is_zero()):
        # the cofactors of least degree: deg u < deg g - deg d and
        # deg v < deg f - deg d, or constant where that bound is empty
        fmap = exponent_lcm([f, g])
        df, dg, dd = (_flat_degree(h, fmap) for h in (f, g, d))
        assert _flat_degree(u, fmap) <= max(dg - dd - 1, 0)
        assert _flat_degree(v, fmap) <= max(df - dd - 1, 0)


def test_gcd_edge_cases_match_two_cofactor_euclid():
    for field in (QQ, PrimeField(7)):
        x = univariate(field, [(Fraction(1, 2), 1), (0, 3)])
        zero = QPolynomial.zero(field, 1)
        two = QPolynomial.constant(field, 1, 2)
        for f, g in ((zero, zero), (zero, x), (x, zero), (two, x), (x, two),
                     (two, two), (x * x, x), (x, x * x), (x.scale(3), x)):
            assert gcd_univariate(f, g) == _two_cofactor_gcd(f, g)


def test_gcd_makes_no_field_method_call(monkeypatch):
    """The Euclid of gcd_univariate runs on the coefficient lists of upoly,
    not through the field object."""
    cases = []
    for field in (QQ, PrimeField(7)):
        x = univariate(field, [(Fraction(1, 2), 3), (2, 1), (0, 5)])
        y = univariate(field, [(Fraction(3, 2), 2), (0, 1)])
        cases.append((x * y, y * y))
    want = [gcd_univariate(f, g) for f, g in cases]

    def refuse(*args):
        raise AssertionError("field method called")

    for cls in (type(QQ), PrimeField):
        for name in ("add", "sub", "mul", "inv"):
            monkeypatch.setattr(cls, name, refuse)
    for (f, g), expected in zip(cases, want):
        assert gcd_univariate(f, g) == expected
