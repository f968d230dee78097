"""The Q-graded structure: homogeneous pieces, homogenization between
projective charts, the scaling test, degree-one rational embeddings, and the
predicative irrelevant-ideal membership test."""

from fractions import Fraction

from .errors import (DegreeLevelMismatch, DegreeTooSmall, RootOrderMismatch,
                     UnknownVariable)
from .geometry import evaluate
from .poly import Monomial, QPolynomial


def homogeneous_components(f):
    """Bucket terms by exact rational total degree; values sum back to f."""
    buckets = {}
    for mono, coeff in f.terms.items():
        buckets.setdefault(mono.degree(), []).append((mono, coeff))
    return {d: QPolynomial(f.field, f.nvars, dict(pairs))
            for d, pairs in buckets.items()}


def is_homogeneous(f):
    """The common degree of all terms, or None; zero counts as degree 0."""
    if f.is_zero():
        return Fraction(0)
    degrees = {mono.degree() for mono in f.terms}
    if len(degrees) == 1:
        return degrees.pop()
    return None


def in_irrelevant_ideal(f):
    """Membership in A_+ = (elements with all components of positive degree).

    The generator set of A_+ is infinite, so the test is predicative: f lies
    in A_+ iff it has no degree-zero component.
    """
    return Fraction(0) not in homogeneous_components(f)


def scaling_check(f, lam_root, point):
    """Verify f(lambda x) = lambda^d f(x) exactly, where lambda = lam_root^L.

    Homogeneous f of degree d passes for every sample; an inhomogeneous f
    fails for a generic lambda (d is taken as the total degree)."""
    field = f.field
    d = f.total_degree()
    if d is None:
        d = Fraction(0)
    L = point.order
    if (d * L).denominator != 1:
        raise RootOrderMismatch(
            "degree %s is not measurable at root order %d" % (d, L))
    lhs = evaluate(f, point.scaled(lam_root))
    rhs = field.mul(field.pow(lam_root, int(d * L)), evaluate(f, point))
    return lhs == rhs


def dehomogenize(F, chart):
    """Set the chart variable to 1; the universe shrinks by one."""
    if not 0 <= chart < F.nvars:
        raise UnknownVariable("chart %d is not one of the variables 0..%d"
                              % (chart, F.nvars - 1))
    out = []
    for mono, coeff in F.terms.items():
        pairs = []
        for i, e in mono.exps:
            if i == chart:
                continue
            pairs.append((i if i < chart else i - 1, e))
        out.append((Monomial.make(pairs), coeff))
    return QPolynomial.from_terms(F.field, F.nvars - 1, out)


def homogenize(f, d, new_index):
    """Insert a new variable at new_index and pad each term up to degree d.

    Inverse of dehomogenize on the same chart whenever deg f <= d."""
    if not 0 <= new_index <= f.nvars:
        raise UnknownVariable("position %d is outside 0..%d"
                              % (new_index, f.nvars))
    d = Fraction(d)
    deg = f.total_degree()
    if deg is not None and deg > d:
        raise DegreeTooSmall("degree %s exceeds target %s" % (deg, d))
    out = []
    for mono, coeff in f.terms.items():
        pairs = [(i if i < new_index else i + 1, e) for i, e in mono.exps]
        pairs.append((new_index, d - mono.degree()))
        out.append((Monomial.make(pairs), coeff))
    return QPolynomial.from_terms(f.field, f.nvars + 1, out)


def veronese_rational(k):
    """The degree-one embedding monomials x^((k-j)/k) y^(j/k), j = 0..k,
    emitted in ascending powers of y."""
    if k < 1:
        raise DegreeLevelMismatch("level %s is not a positive integer" % k)
    return [Monomial.make([(0, Fraction(k - j, k)), (1, Fraction(j, k))])
            for j in range(k + 1)]
