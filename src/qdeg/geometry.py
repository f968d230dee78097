"""Points, evaluation, zero sets, derivatives and tangent spaces.

A point is stored together with compatible roots of its coordinates: the
value u_i stands for x_i^(1/L), so x_i = u_i^L and every fractional power
X_i^(a/b) with b | L evaluates exactly as u_i^(aL/b).  No root extraction
ever happens.  The integer powers aL/b are worked out once per polynomial
and order, so a variety scan converts each generator once, not once per
point.

Zeros over F_p come from upoly.roots.  Over Q the rational zeros of the
square-free part h come from its zeros modulo a prime that divides neither
the leading coefficient nor the discriminant: each is Hensel-lifted past
2|a_0||a_n|, rationally reconstructed and checked exactly (von zur Gathen &
Gerhard, Modern Computer Algebra, ch. 15 and 5.10).  A variety over F_p is
scanned on the first n - 1 roots only: every generator specialises to a
univariate in the last root, and the root finder solves the gcd of the
specialisations.  A scan over more than MAX_SCAN_PREFIXES root prefixes
raises ScanTooLarge instead of running.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, product
from math import gcd, lcm
from random import Random

from .errors import (FieldMismatch, NotUnivariate, PoleAtPoint,
                     PointNotOnVariety, RootOrderMismatch, ScanTooLarge,
                     ZeroPolynomial)
from . import upoly
from .fields import is_prime
from .flatten import flatten
from .linalg import matrix_rank
from .poly import Monomial, QPolynomial

# The most root prefixes p^(n-1) a variety scan visits.  At the limit, two
# small generators in x, y over F_19997 take about 0.3 s, and x^2 - y^2,
# whose every prefix splits a quadratic, about 5 s (Python 3.11, one core of
# a shared 2-core VM).
MAX_SCAN_PREFIXES = 20_000


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


def _fold(e, p):
    """An exponent in [0, p) with u^e = u^fold(e, p) for every u in F_p."""
    return e if e < p else (e - 1) % (p - 1) + 1


# ---------------------------------------------------------------------------
# rational zeros by lifting zeros modulo a prime

def _value(f, x):
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _squarefree_part(f):
    """Primitive integer form of f / gcd(f, f') for an integer f.  The gcd
    over Z made primitive divides f over Z (Gauss's lemma)."""
    d = upoly.prs(f, [i * c for i, c in enumerate(f)][1:], [], [])[0]
    k = gcd(*d) if d[-1] > 0 else -gcd(*d)
    q, rest = upoly.quo_rem(f, [c // k for c in d])
    if rest:
        raise ArithmeticError("gcd(f, f') does not divide f")
    content = gcd(*q)
    return [c // content for c in q]


def _reconstruct(r, m, num_bound):
    """The fraction a/b = r mod m at the first remainder a with
    |a| <= num_bound of Euclid on (m, r).  When some a/b = r mod m has
    |a| <= num_bound and 0 < b <= D with m > 2*num_bound*D, this is it."""
    r0, r1, t0, t1 = m, r, 0, 1
    while r1 > num_bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return Fraction(r1, t1)


def _rational_roots(f):
    """The distinct rational zeros of the nonzero integer polynomial f
    (constant term first)."""
    roots = set()
    if not f[0]:
        roots.add(Fraction(0))
        f = f[next(i for i, c in enumerate(f) if c):]
    if len(f) == 1:
        return roots
    h = _squarefree_part(f)
    dh = [i * c for i, c in enumerate(h)][1:]
    # p keeps the degree of h and leaves it square-free
    p = next(q for q in count(101, 2)
             if is_prime(q) and h[-1] % q and len(upoly.gcd(h, dh, q)) == 1)
    # a zero a/b has a | a_0 and b | a_n
    bound = 2 * abs(h[0]) * abs(h[-1])
    for r in upoly.roots(h, p, Random(0)):
        m = p
        while m <= bound:
            m *= m
            r = (r - _value(h, r) * pow(_value(dh, r), -1, m)) % m
        cand = _reconstruct(r, m, abs(h[0]))
        if _value(h, cand) == 0:
            roots.add(cand)
    return roots


def roots_univariate(f):
    """All rational (over Q) or all (over F_p) zeros of a one-variable f,
    ascending and distinct.

    The polynomial is flattened to integer degrees first; a zero a of the
    flattened polynomial reports the zero a^L of f.
    """
    if f.nvars != 1:
        raise NotUnivariate("roots_univariate needs one variable")
    if f.is_zero():
        raise ZeroPolynomial("zero polynomial has every point as a zero")
    fmap, (g,) = flatten([f])
    L = fmap.orders[0]
    exps = [(int(mono.exponent(0)), c) for mono, c in g.terms.items()]
    p = f.field.characteristic
    if p:
        dense = [0] * min(max(e for e, _ in exps) + 1, p)
        for e, c in exps:
            dense[_fold(e, p)] += c
        return sorted({pow(a, L, p) for a in upoly.roots(dense, p, Random(0))})
    dense = [0] * (max(e for e, _ in exps) + 1)
    den = lcm(*(c.denominator for _, c in exps))
    for e, c in exps:
        dense[e] = int(c * den)
    return sorted({r ** L for r in _rational_roots(dense)})


def variety_bruteforce(gens, order):
    """All common zeros over F_p on the root grid at level L.

    Root vectors are visited in lexicographic order, one prefix u_1..u_{n-1}
    at a time: each generator, times the power of u_n that clears its
    negative exponents, specialises to a univariate in u_n, the gcd of the
    specialisations is taken in order until it is constant, and its zeros
    complete the prefix; a prefix at which every generator vanishes
    identically takes all of F_p.  More than MAX_SCAN_PREFIXES prefixes
    raise ScanTooLarge.  Points
    whose roots induce the same coordinates x_i = u_i^L are deduplicated
    (the first root vector is kept).  PoleAtPoint is raised exactly when
    evaluating the generators in order, stopping at the first nonzero
    value, meets a negative power of a zero root at some root vector.
    """
    generators = gens.generators
    if not generators:
        raise ZeroPolynomial("need at least one generator")
    field = generators[0].field
    p = field.characteristic
    if not p:
        raise RootOrderMismatch("a variety scan needs a finite field")
    _check_order(order)
    n = generators[0].nvars
    gen_terms = [_root_powers(g, order) for g in generators]
    if n == 0:
        return []  # the generators are nonzero constants
    if p ** (n - 1) > MAX_SCAN_PREFIXES:
        raise ScanTooLarge("a scan over %d^%d root prefixes exceeds %d"
                           % (p, n - 1, MAX_SCAN_PREFIXES))
    last = n - 1
    specs = []
    for terms in gen_terms:
        low = min([0] + [pw for _, powers in terms
                         for i, pw in powers if i == last])
        split = [(coeff, tuple((i, pw) for i, pw in powers if i != last),
                  _fold(sum(pw for i, pw in powers if i == last) - low, p))
                 for coeff, powers in terms]
        poles = {i for _, powers in terms for i, pw in powers
                 if pw < 0 and i != last}
        specs.append((split, tuple(poles), low < 0,
                      max(e for _, _, e in split) + 1))

    points = []
    seen = set()
    rng = Random(0)
    for prefix in product(range(p), repeat=last):
        common = None  # gcd so far; None while every specialisation is zero
        for split, poles, pole_at_zero, size in specs:
            if poles and any(not prefix[i] for i in poles):
                # a pole at every root vector over this prefix
                if common is None or upoly.roots(common, p, rng):
                    raise PoleAtPoint("negative power of a zero coordinate")
                common = [1]
                break
            if pole_at_zero and (common is None or not common[0]):
                raise PoleAtPoint("negative power of zero coordinate %d"
                                  % last)
            h = [0] * size
            for coeff, powers, e in split:
                for i, pw in powers:
                    coeff *= pow(prefix[i], pw, p)
                h[e] += coeff
            h = upoly.trim([c % p for c in h])
            if h:
                common = (upoly.monic(h, p) if common is None
                          else upoly.gcd(common, h, p))
                if len(common) == 1:
                    break
        for u in (range(p) if common is None
                  else upoly.roots(common, p, rng)):
            roots = prefix + (u,)
            coords = tuple(pow(x, order, p) for x in roots)
            if coords not in seen:
                seen.add(coords)
                points.append(PointWithRoots(field, order, roots))
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
    return [[evaluate(partial_derivative(g, i), point) for g in gens]
            for i in range(n)]


def tangent_space(gens, point):
    """Tangent space at a point of the variety: dimension and the linear
    equations sum_i (df_j/dX_i)(P) (X_i - x_i) = 0."""
    gens = list(gens)
    field = point.field
    if any(evaluate(g, point) != field.zero for g in gens):
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
