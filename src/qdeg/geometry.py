"""Points, evaluation, zero sets, derivatives and tangent spaces.

A point is stored together with compatible roots of its coordinates: the
value u_i stands for x_i^(1/L), so x_i = u_i^L and every fractional power
X_i^(a/b) with b | L evaluates exactly as u_i^(aL/b).  No root extraction
ever happens.  The integer powers aL/b are worked out once per polynomial
and order, so a variety scan converts each generator once, not once per
point.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import (FieldMismatch, NotUnivariate, PoleAtPoint,
                     PointNotOnVariety, RootOrderMismatch, ZeroPolynomial)
from .flatten import flatten
from .linalg import matrix_rank
from .poly import Monomial, QPolynomial


def _check_order(order):
    if order < 1:
        raise RootOrderMismatch("root order %d is not positive" % order)


@dataclass(frozen=True)
class PointWithRoots:
    """Root order L and root values u_1..u_n (x_i = u_i^L)."""

    field: object
    order: int
    roots: tuple

    def __post_init__(self):
        _check_order(self.order)

    @property
    def nvars(self):
        return len(self.roots)

    def coordinates(self):
        return tuple(self.field.pow(u, self.order) for u in self.roots)

    def scaled(self, lam_root):
        """The point lambda * x, where lambda = lam_root^L."""
        f = self.field
        return PointWithRoots(f, self.order,
                              tuple(f.mul(lam_root, u) for u in self.roots))


def _root_powers(f, order):
    """The terms of f as (coeff, ((var, integer power), ...)): at root order
    L the exponent a/b of x_i is the power aL/b of the root u_i."""
    terms = []
    for mono, coeff in f.terms.items():
        powers = []
        for i, e in mono.exps:
            if order % e.denominator != 0:
                raise RootOrderMismatch(
                    "exponent denominator %d does not divide root order %d"
                    % (e.denominator, order))
            powers.append((i, e.numerator * (order // e.denominator)))
        terms.append((coeff, tuple(powers)))
    return terms


def _evaluate_powers(field, terms, roots):
    """Value of terms from _root_powers at the root values ``roots``."""
    total = field.zero
    for coeff, powers in terms:
        val = coeff
        for i, power in powers:
            u = roots[i]
            if power < 0 and u == field.zero:
                raise PoleAtPoint("negative power of zero coordinate %d" % i)
            val = field.mul(val, field.pow(u, power))
        total = field.add(total, val)
    return total


def evaluate(f, point):
    """Exact value of f at a point with compatible roots."""
    if point.nvars != f.nvars:
        raise FieldMismatch("point has %d coordinates, polynomial %d variables"
                            % (point.nvars, f.nvars))
    return _evaluate_powers(f.field, _root_powers(f, point.order), point.roots)


def _integer_root_candidates(coeffs):
    """Rational-root candidates p/q for an integer univariate polynomial."""
    low = next(c for c in coeffs if c != 0)
    high = coeffs[-1]

    def divisors(n):
        n = abs(n)
        out = []
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.append(d)
                out.append(n // d)
            d += 1
        return sorted(set(out))

    for p in divisors(low):
        for q in divisors(high):
            yield Fraction(p, q)
            yield Fraction(-p, q)


def roots_univariate(f):
    """All rational (over Q) or all (over F_p) zeros of a one-variable f.

    The polynomial is flattened to integer degrees first; a zero a of the
    flattened polynomial reports the zero a^L of f.
    """
    if f.nvars != 1:
        raise NotUnivariate("roots_univariate needs one variable")
    if f.is_zero():
        raise ZeroPolynomial("zero polynomial has every point as a zero")
    field = f.field
    fmap, (g,) = flatten([f])
    L = fmap.orders[0]
    deg = int(g.total_degree())
    dense = [field.zero] * (deg + 1)
    for mono, coeff in g.terms.items():
        dense[int(mono.exponent(0))] = coeff

    found = set()
    if field.characteristic == 0:
        from math import lcm
        den = lcm(*(c.denominator for c in dense if c != 0))
        ints = [int(c * den) for c in dense]
        if ints[0] == 0:
            found.add(Fraction(0))
            while ints and ints[0] == 0:
                ints.pop(0)
        seen = set()
        for cand in _integer_root_candidates(ints):
            if cand in seen:
                continue
            seen.add(cand)
            if sum(c * cand ** i for i, c in enumerate(ints)) == 0:
                found.add(cand)
        return sorted(r ** L for r in found)
    p = field.characteristic
    for a in range(p):
        if sum(field.mul(c, pow(a, i, p)) for i, c in enumerate(dense)) % p == 0:
            found.add(pow(a, L, p))
    return sorted(found)


def variety_bruteforce(gens, order):
    """All common zeros over F_p, scanned on the root grid at level L.

    Points whose roots induce the same coordinates x_i = u_i^L are
    deduplicated (the first root vector in scan order is kept).
    """
    generators = gens.generators
    if not generators:
        raise ZeroPolynomial("need at least one generator")
    field = generators[0].field
    p = field.characteristic
    if p is None or p == 0:
        raise RootOrderMismatch("brute force enumeration needs a finite field")
    _check_order(order)
    n = generators[0].nvars
    gen_terms = [_root_powers(g, order) for g in generators]
    points = []
    seen = set()
    for roots in product(range(p), repeat=n):
        if all(_evaluate_powers(field, terms, roots) == field.zero
               for terms in gen_terms):
            point = PointWithRoots(field, order, roots)
            coords = point.coordinates()
            if coords not in seen:
                seen.add(coords)
                points.append(point)
    return points


def partial_derivative(f, index):
    """Formal derivative with the power rule extended to rational exponents."""
    field = f.field
    out = []
    for mono, coeff in f.terms.items():
        e = mono.exponent(index)
        if e == 0:
            continue
        if field.characteristic == 0:
            scaled = field.mul(coeff, e)
        else:
            # the residue of a/b; raises DivisionByZero when p divides b
            scaled = field.mul(coeff, field.div(field.coerce(e.numerator),
                                                field.coerce(e.denominator)))
        new_mono = Monomial.make(
            [(i, x) for i, x in mono.exps if i != index] + [(index, e - 1)])
        out.append((new_mono, scaled))
    return QPolynomial.from_terms(field, f.nvars, out)


def jacobian(gens, point):
    """The n x r matrix of partials (rows = variables, columns = generators)."""
    gens = list(gens)
    n = gens[0].nvars if gens else point.nvars
    rows = []
    for i in range(n):
        row = []
        for g in gens:
            row.append(evaluate(partial_derivative(g, i), point))
        rows.append(row)
    return rows


def tangent_space(gens, point):
    """Tangent space at a point of the variety: dimension and the linear
    equations sum_i (df_j/dX_i)(P) (X_i - x_i) = 0."""
    gens = list(gens)
    field = point.field
    for g in gens:
        if evaluate(g, point) != field.zero:
            raise PointNotOnVariety("a generator does not vanish at the point")
    jac = jacobian(gens, point)
    n = len(jac)
    rank = matrix_rank(jac, field)
    coords = point.coordinates()
    equations = []
    for j in range(len(gens)):
        eq = QPolynomial.zero(field, n)
        for i in range(n):
            c = jac[i][j]
            if c == field.zero:
                continue
            shift = QPolynomial.variable(field, n, i) - QPolynomial.constant(
                field, n, coords[i])
            eq = eq + shift.scale(c)
        equations.append(eq)
    return n - rank, equations
