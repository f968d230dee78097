"""Properties of the dense univariate toolkit over Q and F_p, and the
import rule that keeps each module's private helpers its own."""

import ast
from fractions import Fraction
from pathlib import Path

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
