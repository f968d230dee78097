"""Sparse multivariate polynomials with rational exponents.

A monomial maps variable indices to reduced nonzero Fraction exponents; a
polynomial maps monomials to nonzero field coefficients.  Representation is
canonical (zero exponents and zero coefficients are dropped eagerly), so
equality is structural.  Negative exponents are allowed in the Laurent
extension used by derivatives and cohomology bases; ring-level operations
that require nonnegative exponents check for themselves.

Exponents are Fractions only at the edges of an operation.  Products and
the print order scale every exponent of the operands once to an int
vector at their joint level (the lcm of the denominators, see
``int_exponents``), work on those vectors, and build each result monomial
once (packed exponents, after Monagan & Pearce, CASC 2007).
"""

from fractions import Fraction
from math import lcm
from operator import add, itemgetter

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

    def scale_exponents(self, q):
        """Raise the monomial to the rational power q."""
        q = Fraction(q)
        return Monomial.make((i, e * q) for i, e in self.exps)

    def is_integral(self):
        return all(e.denominator == 1 for _, e in self.exps)

    def has_negative(self):
        return any(e < 0 for _, e in self.exps)

    def dense(self, nvars):
        out = [Fraction(0)] * nvars
        for i, e in self.exps:
            out[i] = e
        return tuple(out)


_ONE = Monomial(())


def _joint_level(monos):
    """The lcm of the exponent denominators of the monomials (1 if none)."""
    dens = {e.denominator for m in monos for _, e in m.exps}
    dens.discard(1)
    return lcm(*dens) if dens else 1


def int_exponents(mono, nvars, level):
    """The dense exponent vector of mono times level, as ints; level must
    be a multiple of every exponent denominator of mono."""
    out = [0] * nvars
    for i, e in mono.exps:
        out[i] = e.numerator * (level // e.denominator)
    return tuple(out)


def _graded_order(terms, nvars):
    """(sum, vector) print-order keys of the monomials of a term dict, on
    their int vectors at the joint level (scaling by it keeps the order)."""
    level = _joint_level(terms)
    for mono, coeff in terms.items():
        vec = int_exponents(mono, nvars, level)
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

    def constant_value(self):
        return self.terms.get(_ONE, self.field.zero)

    def has_fractional_exponents(self):
        return any(not m.is_integral() for m in self.terms)

    def has_negative_exponents(self):
        return any(m.has_negative() for m in self.terms)

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
        level = _joint_level((*self.terms, *other.terms))
        left = [(int_exponents(m, n, level), c) for m, c in self.terms.items()]
        right = [(int_exponents(m, n, level), c) for m, c in other.terms.items()]
        fadd, fmul, zero = f.add, f.mul, f.zero
        acc = {}
        for v1, c1 in left:
            for v2, c2 in right:
                v = tuple(map(add, v1, v2))
                acc[v] = fadd(acc.get(v, zero), fmul(c1, c2))
        fraction_of = {}
        terms = {}
        for v, c in acc.items():
            if c == zero:
                continue
            exps = []
            for i, k in enumerate(v):
                if k:
                    e = fraction_of.get(k)
                    if e is None:
                        e = fraction_of[k] = Fraction(k, level)
                    exps.append((i, e))
            terms[Monomial(tuple(exps))] = c
        return QPolynomial(f, n, terms)

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
        keyed = sorted(_graded_order(self.terms, self.nvars),
                       key=itemgetter(0), reverse=True)
        return [(mono, coeff) for _, mono, coeff in keyed]

    def total_degree(self):
        """Max term degree as a Fraction, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(m.degree() for m in self.terms)

    def leading(self):
        """(monomial, coefficient) of the graded-lex leading term."""
        _, mono, coeff = max(_graded_order(self.terms, self.nvars),
                             key=itemgetter(0))
        return mono, coeff

    def substitute(self, args):
        """Substitute args[i] for variable i.  Requires nonnegative integer
        exponents on self (general fractional substitution lives in charp)."""
        if len(args) != self.nvars:
            raise FieldMismatch("expected %d substitution arguments" % self.nvars)
        f = self.field
        target_nvars = args[0].nvars if args else 0
        out = QPolynomial.zero(f, target_nvars)
        for mono, coeff in self.terms.items():
            piece = QPolynomial.constant(f, target_nvars, coeff)
            for i, e in mono.exps:
                if e.denominator != 1 or e < 0:
                    raise ValueError("substitute needs nonnegative integer exponents")
                piece = piece * (args[i] ** int(e))
            out = out + piece
        return out

    def __repr__(self):
        if not self.terms:
            return "QPolynomial(0)"
        bits = []
        for mono, coeff in self.sorted_terms():
            factors = ["T%d^%s" % (i, e) for i, e in mono.exps]
            bits.append("%s*%s" % (self.field.format(coeff),
                                   "*".join(factors) if factors else "1"))
        return "QPolynomial(%s)" % " + ".join(bits)
