"""Reduction to an integer-exponent polynomial ring and back.

The substitution T_i^(1/L_i) -> Y_i, with L_i the lcm of the exponent
denominators of variable i across the inputs, lands every rational-exponent
polynomial in an ordinary polynomial ring where Groebner bases, Euclid and
Noether normalization apply; unflatten divides exponents back out.  Working
at the minimal joint level is sound for membership questions because the
level-L' ring is free over the level-L ring whenever L | L'.

The exponent arithmetic is poly's; this module adds the level and its
checks.  The ideal engine, gcd and roots read ``FlattenMap.flat_terms``
directly and build no flattened polynomial.
"""

from dataclasses import dataclass
from fractions import Fraction

from .charp import compose
from .errors import (ConstantInput, DegreeLevelMismatch, EmptyInput,
                     FieldMismatch, LaurentNotFlattenable)
from .poly import (QPolynomial, divide_exponents, exponent_orders,
                   from_int_terms, int_terms)


@dataclass(frozen=True)
class FlattenMap:
    """Per-variable root orders L_i, each a positive int."""

    orders: tuple

    def __post_init__(self):
        for L in self.orders:
            if type(L) is not int or L < 1:
                raise DegreeLevelMismatch(
                    "root order %r is not a positive integer" % (L,))

    @property
    def nvars(self):
        return len(self.orders)

    def refine(self, factor):
        return FlattenMap(tuple(L * factor for L in self.orders))

    def flat_terms(self, f):
        """The int terms of f at this level (poly.int_terms), checked: every
        exponent becomes a nonnegative int, or LaurentNotFlattenable."""
        _check_level(self, f)
        terms = int_terms(f, self.orders)
        if terms is None or any(min(vec, default=0) < 0 for vec in terms):
            raise LaurentNotFlattenable(
                "an exponent is negative or not in (1/L_i)Z at level %s"
                % (self.orders,))
        return terms


def exponent_lcm(fs):
    """Minimal joint flatten level of a nonempty family of polynomials."""
    fs = list(fs)
    if not fs:
        raise EmptyInput("no polynomials given")
    return FlattenMap(exponent_orders((m for f in fs for m in f.terms),
                                      fs[0].nvars))


def _check_level(fmap, poly):
    if fmap.nvars != poly.nvars:
        raise FieldMismatch("level has %d root orders for %d variables"
                            % (fmap.nvars, poly.nvars))


def flatten_one(f, fmap):
    """Apply T_i^(1/L_i) -> Y_i to a single polynomial at a given level."""
    return from_int_terms(f.field, (1,) * f.nvars, fmap.flat_terms(f))


def flatten(fs, level=None):
    """Flatten a family at its joint minimal level (or a supplied one)."""
    fs = list(fs)
    fmap = level if level is not None else exponent_lcm(fs)
    return fmap, [flatten_one(f, fmap) for f in fs]


def unflatten(fmap, g):
    """Inverse substitution Y_i -> T_i^(1/L_i); round-trips with flatten."""
    _check_level(fmap, g)
    return divide_exponents(g, fmap.orders)


def noether_substitution(f):
    """Shift T_i^(1/L_i) by powers of T_n so the top T_n-term is pure.

    Returns (shift exponents a_1..a_{n-1}, transformed polynomial,
    (leading coefficient, pure T_n power monomial)).  The shift schedule at
    the flattened level is e_i = (1 + flattened total degree)^(n-i), the
    standard bound that forces a unique pure leading power.
    """
    if f.is_constant():
        raise ConstantInput("Noether substitution needs a nonconstant polynomial")
    n = f.nvars
    fmap, (g,) = flatten([f])
    field = f.field

    if n == 1:
        transformed = f
    else:
        d = int(g.total_degree())
        exps = [(1 + d) ** (n - 1 - i) for i in range(n - 1)]
        args = []
        last = QPolynomial.variable(field, n, n - 1)
        for i in range(n - 1):
            args.append(QPolynomial.variable(field, n, i)
                        + QPolynomial.variable(field, n, n - 1, exps[i]))
        args.append(last)
        transformed = unflatten(fmap, compose(g, args))

    shifts = tuple(Fraction(e, fmap.orders[n - 1]) for e in
                   ([] if n == 1 else exps))

    top = max(m.exponent(n - 1) for m in transformed.terms)
    top_terms = [(m, c) for m, c in transformed.terms.items()
                 if m.exponent(n - 1) == top]
    # guaranteed by the shift schedule; a failure here is a bug, not bad input
    assert len(top_terms) == 1 and top_terms[0][0].variables() in ((n - 1,), ())
    lead_mono, lead_coeff = top_terms[0]
    return shifts, transformed, (lead_coeff, lead_mono)
