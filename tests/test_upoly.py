"""Properties of the dense univariate toolkit over Q and F_p, and the
import rule that keeps each module's private helpers its own."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qdeg import upoly

_CHARS = (0, 2, 7, 31)


def _coeff(p):
    if p:
        return st.integers(-2 * p, 2 * p)
    return st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))


def _poly(p, max_size=7):
    """A trimmed coefficient list; over F_p the entries are least residues."""
    coeffs = st.lists(_coeff(p), max_size=max_size)
    return coeffs.map(lambda a: upoly.trim([c % p for c in a] if p else a))


def _nonzero(p, max_size=5):
    return _poly(p, max_size).filter(bool)


def _eq(a, b, p):
    """Equality of coefficient lists, reducing unreduced products mod p."""
    return upoly.sub(a, b, p) == []


def _divides(d, a, p):
    return not upoly.divide(list(a), upoly.monic(d, p), p)


_CASES = st.sampled_from(_CHARS).flatmap(
    lambda p: st.tuples(st.just(p), _poly(p), _poly(p), _nonzero(p)))


@settings(max_examples=300, deadline=None)
@given(_CASES)
def test_division_identity(case):
    p, a, _, m = case
    m = upoly.monic(m, p)
    work = list(a)
    r = upoly.divide(work, m, p)
    q = upoly.trim(work[len(m) - 1:])
    assert len(r) < len(m)
    assert _eq(a, upoly.sub(upoly.mul(q, m), [-c for c in r], p), p)


@settings(max_examples=300, deadline=None)
@given(_CASES)
def test_gcdex_is_a_bezout_gcd(case):
    p, f, g, common = case
    if len(common) > 1:
        # give the pair a common factor half the time
        f, g = upoly.mul(f, common), upoly.mul(g, common)
        f = upoly.trim([c % p for c in f] if p else f)
        g = upoly.trim([c % p for c in g] if p else g)
    d, u, v = upoly.gcdex(f, g, p)
    assert d == upoly.gcd(f, g, p)
    lhs = upoly.sub(upoly.mul(u, f), [-c for c in upoly.mul(v, g)], p)
    assert _eq(lhs, d, p)
    if not f and not g:
        assert d == []
        return
    assert d[-1] == 1
    assert all(_divides(d, h, p) for h in (f, g))
    if len(common) > 1 and f and g:
        assert _divides(common, d, p)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 7, 31]).flatmap(
    lambda p: st.tuples(st.just(p), st.integers(0, p - 1),
                        st.integers(0, 70), _nonzero(p, 5))))
def test_powmod_matches_repeated_products(case):
    p, a, e, m = case
    m = upoly.monic(m, p)
    want = [1]
    for _ in range(e):
        want = upoly.mul(want, [a, 1])
    want = upoly.divide(want, m, p)
    assert upoly.powmod(a, e, m, p) == want


def test_no_module_imports_another_modules_private_names():
    package = Path(upoly.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").startswith("qdeg")
            if internal:
                offenders += ["%s: %s" % (path.name, alias.name)
                              for alias in node.names
                              if alias.name.startswith("_")]
    assert offenders == []


# ---- over Q: the subresultant PRS on integers ----

# Knuth, TAOCP 2, 4.6.1: the degrees run 8, 6, 4, 2, 1, 0, so three steps
# after the first have delta = 2 and use h^(1 - delta) * g^delta.
_KNUTH_U = [-5, 2, 8, -3, -3, 0, 1, 0, 1]
_KNUTH_V = [21, -9, -4, 0, 5, 0, 3]


def test_prs_of_knuths_example_ends_at_the_resultant():
    r, s = upoly.prs(_KNUTH_U, _KNUTH_V, [1], [])
    assert r == [260708]
    t, rest = upoly.quo_rem(upoly.sub(r, upoly.mul(s, _KNUTH_U), 0), _KNUTH_V)
    assert rest == []
    assert upoly.prs(_KNUTH_U, _KNUTH_V, [], []) == (r, [])


def test_quo_rem_over_z():
    assert upoly.quo_rem([-5, 1, 6], [1, 2]) == ([-1, 3], [-4])
    assert upoly.quo_rem([1, 2], [0, 0, 1]) == ([], [1, 2])
    with pytest.raises(ArithmeticError):
        upoly.quo_rem([1, 0, 3], [1, 2])


_BIG = st.builds(Fraction, st.integers(-2 ** 40, 2 ** 40),
                 st.integers(1, 2 ** 40))


@st.composite
def _big_q_pair(draw):
    """f*c and g*c over Q with deg f, deg g <= 25 and 1 <= deg c <= 5, dense
    or with most coefficients zero, 40-bit numerators and denominators."""
    def poly(deg):
        dense = draw(st.booleans())
        return [draw(_BIG) if dense or draw(st.integers(0, 3)) == 0
                else Fraction(0) for _ in range(deg)] + [
            draw(_BIG.filter(bool))]

    df = draw(st.integers(0, 25))
    dg = draw(st.sampled_from([df, draw(st.integers(0, 25))]))
    common = poly(draw(st.integers(1, 5)))
    return upoly.mul(poly(df), common), upoly.mul(poly(dg), common), common


@settings(max_examples=40, deadline=None)
@given(_big_q_pair())
def test_q_gcdex_at_degree_25_is_the_bezout_gcd(case):
    """Beyond the degrees the Fraction oracle reaches: d is monic, divides f
    and g, equals u*f + v*g (so it is the gcd), and u, v meet the degree
    bounds that make (d, u, v) unique."""
    f, g, common = case
    d, u, v = upoly.gcdex(f, g, 0)
    assert d[-1] == 1 and _divides(common, d, 0)
    assert all(_divides(d, h, 0) for h in (f, g))
    assert _eq(upoly.mul(u, f), upoly.sub(d, upoly.mul(v, g), 0), 0)
    assert len(u) <= max(len(g) - len(d), 1)
    assert len(v) <= max(len(f) - len(d), 1)


def test_q_gcdex_builds_fractions_only_for_its_answer(monkeypatch):
    """Over Q the remainder sequence runs on ints.  Counting every Fraction
    constructed, also inside Fraction arithmetic, one gcdex call makes at
    most one per coefficient of its inputs and of its answer."""
    rng = random.Random(5)

    def rational_poly(deg):
        return [Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 99))
                for _ in range(deg)] + [Fraction(1, 3)]

    common = rational_poly(4)
    f = upoly.mul(rational_poly(14), common)
    g = upoly.mul(rational_poly(11), common)
    built = []
    plain_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(cls)
        return plain_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    d, u, v = upoly.gcdex(f, g, 0)
    monkeypatch.undo()
    assert len(d) == 5 and _divides(common, d, 0)
    assert len(built) <= len(d) + len(u) + len(v) + len(f) + len(g)
