"""Sparse multivariate polynomials with rational exponents.

A monomial maps variable indices to reduced nonzero Fraction exponents; a
polynomial maps monomials to nonzero field coefficients.  Representation is
canonical (zero exponents and zero coefficients are dropped eagerly), so
equality is structural.  Negative exponents are allowed in the Laurent
extension used by derivatives and cohomology bases; ring-level operations
that require nonnegative exponents check for themselves.

Fraction exponents meet int ones only here.  At root orders L_1..L_n the
exponent a/b of variable i is the int aL_i/b: ``int_terms`` gives these
vectors, ``from_int_terms`` maps back and ``exponent_orders`` finds the
least orders.  Products, the print order, flattening, the Groebner engine,
gcd, roots, evaluation and p-th roots work on the vectors and build each
result monomial once (packed exponents, after Monagan & Pearce, CASC 2007).
"""

from fractions import Fraction
from math import lcm
from operator import add, itemgetter, mul

from .errors import FieldMismatch


class Monomial:
    """Product of variable powers; ``exps`` is a sorted tuple of
    (variable index, nonzero Fraction exponent) pairs.

    Monomials are dict keys: ``exps`` must never be rebound after
    construction.  The hash is computed on first use and kept."""

    __slots__ = ("exps", "_hash")

    def __init__(self, exps):
        self.exps = exps
        self._hash = None

    def __eq__(self, other):
        if other.__class__ is not Monomial:
            return NotImplemented
        return self.exps == other.exps

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.exps,))
        return h

    def __repr__(self):
        return "Monomial(exps=%r)" % (self.exps,)

    @staticmethod
    def make(pairs):
        return Monomial(tuple(sorted(
            (i, e if type(e) is Fraction else Fraction(e))
            for i, e in pairs if e)))

    @staticmethod
    def one():
        return _ONE

    def degree(self):
        return sum((e for _, e in self.exps), Fraction(0))

    def exponent(self, i):
        for j, e in self.exps:
            if j == i:
                return e
        return Fraction(0)

    def variables(self):
        return tuple(i for i, _ in self.exps)

    def mul(self, other):
        if not other.exps:
            return self
        if not self.exps:
            return other
        acc = dict(self.exps)
        for i, e in other.exps:
            s = acc.get(i)
            if s is None:
                acc[i] = e
                continue
            s += e
            if s:
                acc[i] = s
            else:
                del acc[i]
        return Monomial(tuple(sorted(acc.items())))

    def dense(self, nvars):
        out = [Fraction(0)] * nvars
        for i, e in self.exps:
            out[i] = e
        return tuple(out)


_ONE = Monomial(())


def exponent_orders(monos, nvars):
    """Per variable, the lcm of its exponent denominators in the monomials
    (1 where there are none): the least orders with int exponents."""
    orders = [1] * nvars
    for mono in monos:
        for i, e in mono.exps:
            if orders[i] % e.denominator:
                orders[i] = lcm(orders[i], e.denominator)
    return tuple(orders)


def int_terms(f, orders):
    """{int exponent vector: coefficient} of f with each exponent e of
    variable i scaled to e*orders[i]; None when one of those is not an int."""
    out = {}
    for mono, coeff in f.terms.items():
        vec = [0] * len(orders)
        for i, e in mono.exps:
            order, den = orders[i], e.denominator
            if order % den:
                return None
            vec[i] = e.numerator * (order // den)
        out[tuple(vec)] = coeff
    return out


def from_int_terms(field, orders, terms):
    """The polynomial whose int_terms at these orders are ``terms``: the
    exponent k of variable i becomes k/orders[i].  One Fraction is made per
    distinct (k, order); monomials are built in variable order, unsorted."""
    by_order = {}
    columns = [by_order.setdefault(order, {}) for order in orders]
    out = []
    for vec, coeff in terms.items():
        exps = []
        for i, k in enumerate(vec):
            if k:
                column = columns[i]
                e = column.get(k)
                if e is None:
                    e = column[k] = Fraction(k, orders[i])
                exps.append((i, e))
        out.append((Monomial(tuple(exps)), coeff))
    return QPolynomial(field, len(orders), out)


def divide_exponents(f, orders):
    """f with the exponents of variable i divided by orders[i]; exact for
    any f, Laurent exponents included."""
    own = exponent_orders(f.terms, f.nvars)
    return from_int_terms(f.field, tuple(map(mul, own, orders)),
                          int_terms(f, own))


def _graded_order(f):
    """(sum, vector) print-order keys of the terms of f, on their int
    vectors at one level for every variable (which keeps the order)."""
    level = lcm(*exponent_orders(f.terms, f.nvars))
    vectors = int_terms(f, (level,) * f.nvars)
    for vec, (mono, coeff) in zip(vectors, f.terms.items()):
        yield (sum(vec), vec), mono, coeff


class QPolynomial:
    """Element of k[T_1,...,T_n]_Q (or its Laurent extension)."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars, terms):
        canon = {}
        for mono, coeff in terms.items() if isinstance(terms, dict) else terms:
            if coeff == field.zero:
                continue
            canon[mono] = coeff
        self.field = field
        self.nvars = nvars
        self.terms = canon

    # ---- constructors ----

    @classmethod
    def zero(cls, field, nvars):
        return cls(field, nvars, {})

    @classmethod
    def constant(cls, field, nvars, value):
        return cls(field, nvars, {Monomial.one(): field.coerce(value)})

    @classmethod
    def variable(cls, field, nvars, index, exponent=1):
        mono = Monomial.make([(index, Fraction(exponent))])
        return cls(field, nvars, {mono: field.one})

    @classmethod
    def from_terms(cls, field, nvars, pairs):
        acc = {}
        for mono, coeff in pairs:
            acc[mono] = field.add(acc.get(mono, field.zero), coeff)
        return cls(field, nvars, acc)

    # ---- predicates ----

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(not m.exps for m in self.terms)

    def _check_compatible(self, other):
        if self.field != other.field:
            raise FieldMismatch("fields differ: %r vs %r" % (self.field, other.field))
        if self.nvars != other.nvars:
            raise FieldMismatch(
                "variable universes differ: %d vs %d" % (self.nvars, other.nvars))

    # ---- arithmetic ----

    def __add__(self, other):
        self._check_compatible(other)
        acc = dict(self.terms)
        f = self.field
        for mono, coeff in other.terms.items():
            acc[mono] = f.add(acc.get(mono, f.zero), coeff)
        return QPolynomial(f, self.nvars, acc)

    def __neg__(self):
        f = self.field
        return QPolynomial(f, self.nvars,
                           {m: f.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_compatible(other)
        f = self.field
        n = self.nvars
        if not self.terms or not other.terms:
            return QPolynomial(f, n, {})
        orders = exponent_orders((*self.terms, *other.terms), n)
        right = list(int_terms(other, orders).items())
        fadd, fmul, zero = f.add, f.mul, f.zero
        acc = {}
        for v1, c1 in int_terms(self, orders).items():
            for v2, c2 in right:
                v = tuple(map(add, v1, v2))
                acc[v] = fadd(acc.get(v, zero), fmul(c1, c2))
        return from_int_terms(f, orders, acc)

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative polynomial power")
        result = QPolynomial.constant(self.field, self.nvars, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def scale(self, coeff):
        f = self.field
        coeff = f.coerce(coeff)
        return QPolynomial(f, self.nvars,
                           {m: f.mul(c, coeff) for m, c in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, QPolynomial) and self.field == other.field
                and self.nvars == other.nvars and self.terms == other.terms)

    def __hash__(self):
        return hash((self.field, self.nvars, frozenset(self.terms.items())))

    # ---- inspection ----

    def sorted_terms(self):
        """Terms in descending graded-lex order (the canonical iteration)."""
        keyed = sorted(_graded_order(self),
                       key=itemgetter(0), reverse=True)
        return [(mono, coeff) for _, mono, coeff in keyed]

    def total_degree(self):
        """Max term degree as a Fraction, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(m.degree() for m in self.terms)

    def leading(self):
        """(monomial, coefficient) of the graded-lex leading term."""
        _, mono, coeff = max(_graded_order(self),
                             key=itemgetter(0))
        return mono, coeff

    def __repr__(self):
        if not self.terms:
            return "QPolynomial(0)"
        bits = []
        for mono, coeff in self.sorted_terms():
            factors = ["T%d^%s" % (i, e) for i, e in mono.exps]
            bits.append("%s*%s" % (self.field.format(coeff),
                                   "*".join(factors) if factors else "1"))
        return "QPolynomial(%s)" % " + ".join(bits)
