"""Characteristic-p features: Frobenius p-th roots, composition of
rational-degree polynomials, and pullbacks along polynomial maps.

Composition substitutes polynomials into fractional powers.  A fractional
power of a sum only exists in characteristic p with a denominator that is a
power of p, where the Frobenius inverse applies term by term; over Q (or for
denominators coprime to p) only single-monomial arguments with exact
coefficient roots compose.  Everything else raises
CompositionNotPolynomial, which is the genuine obstruction of the theory,
not a missing feature.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from random import Random

from . import upoly
from .errors import CompositionNotPolynomial, FieldMismatch, NotPrimeField
from .poly import QPolynomial, divide_exponents

# The largest g = gcd(b, p - 1) whose b-th roots over F_p come from the root
# finder, about 0.14 s at p = 998244353; above it a scan takes ~p/g steps.
MAX_ROOT_FINDER_DEGREE = 128


def p_th_root(f):
    """The inverse Frobenius: g with g^p = f, over F_p.

    Exponents divide by p; coefficients are fixed (c^p = c in F_p)."""
    p = f.field.characteristic
    if not p:
        raise NotPrimeField("p-th root needs a prime field")
    return divide_exponents(f, (p,) * f.nvars)


def _integer_root(x, b):
    """The exact b-th root of an integer x >= 0, or None (Newton's method
    on integers, so any size of x works)."""
    if x < 2:
        return x
    if x.bit_length() <= b:  # 1 < x < 2^b: the root lies strictly in (1, 2)
        return None
    r = 1 << -(-x.bit_length() // b)  # above the root
    while True:
        s = ((b - 1) * r + x // r ** (b - 1)) // b
        if s >= r:
            break
        r = s
    return r if r ** b == x else None


def _coefficient_root(field, c, b):
    """Exact b-th root of a coefficient, or None."""
    if field.characteristic == 0:
        if c < 0 and b % 2 == 0:
            return None
        num = _integer_root(abs(c.numerator), b)
        den = _integer_root(c.denominator, b)
        if num is None or den is None:
            return None
        return Fraction(-num if c < 0 else num, den)
    p = field.characteristic
    if not c % p:
        return 0
    g = gcd(b, p - 1)
    if pow(c, (p - 1) // g, p) != 1:  # not a g-th power, so not a b-th one
        return None
    if g > MAX_ROOT_FINDER_DEGREE:
        return next(r for r in range(p) if pow(r, b, p) == c % p)
    # y -> y^(b/g) permutes the g-th powers, so x^b = c iff x^g = c^u
    u = pow(b // g, -1, (p - 1) // g)
    return upoly.roots([-pow(c, u, p)] + [0] * (g - 1) + [1], p, Random(0))[0]


def fractional_power(g, q):
    """g raised to the nonnegative rational power q, when it exists in the
    ring: integer powers always; monomials via exact coefficient roots;
    sums only through repeated p-th roots in characteristic p."""
    q = Fraction(q)
    if q < 0:
        raise CompositionNotPolynomial("negative power of a polynomial")
    if q.denominator == 1:
        return g ** int(q)
    field = g.field
    if g.is_zero():
        return g
    b = q.denominator
    if len(g.terms) == 1:
        (mono, coeff), = g.terms.items()
        root = _coefficient_root(field, coeff, b)
        if root is None:
            raise CompositionNotPolynomial(
                "coefficient has no exact %d-th root" % b)
        root_poly = divide_exponents(QPolynomial(field, g.nvars, {mono: root}),
                                     (b,) * g.nvars)
        return root_poly ** q.numerator
    p = field.characteristic
    if not p:
        raise CompositionNotPolynomial(
            "fractional power of a sum in characteristic zero")
    left = b  # one p-th root per factor p of b
    while left % p == 0:
        left //= p
        g = p_th_root(g)
    if left != 1:
        raise CompositionNotPolynomial(
            "denominator %d is not a power of the characteristic %d" % (b, p))
    return g ** q.numerator


def compose(f, args):
    """Substitute args[i] for variable i of f, expanding fractional powers
    only where they exist in the ring."""
    if len(args) != f.nvars:
        raise FieldMismatch("arity mismatch: %d variables, %d arguments"
                            % (f.nvars, len(args)))
    field = f.field
    for g in args:
        if g.field != field:
            raise FieldMismatch("argument field differs from f's field")
    target_nvars = args[0].nvars if args else f.nvars
    out = QPolynomial.zero(field, target_nvars)
    for mono, coeff in f.terms.items():
        piece = QPolynomial.constant(field, target_nvars, coeff)
        for i, e in mono.exps:
            piece = piece * fractional_power(args[i], e)
        out = out + piece
    return out


@dataclass(frozen=True)
class PolynomialMap:
    """A map A^n -> A^m given by m component polynomials in n variables."""

    components: tuple

    def __post_init__(self):
        comps = self.components
        if comps:
            field, nvars = comps[0].field, comps[0].nvars
            for c in comps:
                if c.field != field or c.nvars != nvars:
                    raise FieldMismatch("map components disagree on field/universe")

    @property
    def source_arity(self):
        return self.components[0].nvars

    @property
    def target_arity(self):
        return len(self.components)


def pullback(phi, g):
    """The induced algebra homomorphism g -> g o phi."""
    if g.nvars != phi.target_arity:
        raise FieldMismatch("polynomial lives in %d variables, map targets %d"
                            % (g.nvars, phi.target_arity))
    return compose(g, list(phi.components))


def compose_maps(outer, inner):
    """The map outer o inner (components of outer pulled back along inner)."""
    if inner.target_arity != outer.source_arity:
        raise FieldMismatch("maps are not composable")
    return PolynomialMap(tuple(pullback(inner, c) for c in outer.components))


def map_from_images(images):
    """The unique polynomial map whose pullback sends the i-th target
    variable to images[i]."""
    return PolynomialMap(tuple(images))
