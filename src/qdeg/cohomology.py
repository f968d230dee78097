"""Cech cohomology of the twisting sheaves O(m), m in Q, on P^n at a finite
denominator level D.

The Cech differential preserves the exponent vector of a monomial, so the
degree-m slice of the complex splits into one finite summand per multidegree
l = (l_0,...,l_n) with sum m.  The monomial X^l lies in the localization at
X_I exactly when every variable with a negative exponent is inverted, so the
summand is the complex of the subsets of {0..n} that contain NEG(l) =
{i : l_i < 0}.  With no negatives it has h^0 = 1, with all n + 1 negative
h^n = 1, and otherwise it is acyclic (Hartshorne III.5.1).  So twist_dims
counts monomials in closed form: h^0 those without negatives, h^n those
without nonnegatives, and every middle spot is 0.  The summands themselves
(complex_for_pattern, multidegree_complex) and their exact sparse rank
(complex_cohomology_dims) stay as a witness that the tests check the closed
form against.  A column of a Cech differential has at most p + 2 nonzero
entries, all +-1, so the d o d check multiplies nonzero entries only.
"""

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import combinations
from math import comb, floor

from .errors import (CohomologyTooLarge, DegreeLevelMismatch, MalformedComplex,
                     NegativeDimension)
from .fields import QQ
from .linalg import matrix_rank
from .poly import Monomial

# The most work twist_dims admits: (n + 1) * (1 + the terms of its two
# inclusion-exclusion sums) * the bit length of (the larger sum + n).  A
# binomial costs more than linearly in its bits, so the largest sets the
# limit: C(2n, n) at n = 83332 takes about 0.4 s, and every admitted input
# answers in under 0.6 s (Python 3.11, one core of a shared 2-core VM).
MAX_TWIST_WORK = 3_000_000
# The most monomials times n that h0_basis or hn_basis lists (a monomial has
# n + 1 exponents).  The largest basis on P^1 takes about 0.3 s through
# `qdeg cech --basis` (same machine); the benchmark's largest has 969.
MAX_BASIS_SIZE = 20_000


@dataclass(frozen=True)
class MultiDegree:
    """Exponent vector l_0..l_n with common denominator dividing the level."""

    parts: tuple

    def negatives(self):
        return frozenset(i for i, l in enumerate(self.parts) if l < 0)


@dataclass
class ChainComplex:
    """Spot dimensions and differentials; diffs[p] maps spot p to spot p+1
    (rows indexed by targets)."""

    dims: tuple
    diffs: tuple
    coefficients: object = dc_field(default_factory=lambda: QQ)

    def __post_init__(self):
        dims, diffs = self.dims, self.diffs
        if len(diffs) != max(len(dims) - 1, 0):
            raise MalformedComplex("expected %d differentials" % (len(dims) - 1))
        for p, mat in enumerate(diffs):
            if len(mat) != dims[p + 1] or any(len(r) != dims[p] for r in mat):
                raise MalformedComplex("differential %d has a wrong shape" % p)
        char = self.coefficients.characteristic
        for p in range(len(diffs) - 1):
            if not _is_zero_product(diffs[p + 1], diffs[p], char):
                raise MalformedComplex("d o d is nonzero at position %d" % p)


def _is_zero_product(a, b, p):
    """Whether the product a*b of two dense matrices is zero (mod p when p
    is nonzero).  Each row of b is read once as its nonzero (column, value)
    pairs, and each row of a accumulates only its nonzero products."""
    b_rows = [[(c, x) for c, x in enumerate(row) if x] for row in b]
    for row in a:
        acc = {}
        for y, pairs in zip(row, b_rows):
            if y:
                for c, x in pairs:
                    acc[c] = acc.get(c, 0) + y * x
        if any(v % p if p else v for v in acc.values()):
            return False
    return True


@dataclass(frozen=True)
class CohomologyDims:
    h: tuple
    n: int
    m: Fraction
    level: int
    box: Fraction


def _subsets_with(n, size, required):
    """Sorted (size)-subsets of {0..n} containing the required set."""
    rest = [i for i in range(n + 1) if i not in required]
    return sorted(tuple(sorted(required.union(extra)))
                  for extra in combinations(rest, size - len(required)))


def complex_for_pattern(n, negatives, coefficients=QQ):
    """The multidegree summand of the Cech complex for P^n, as determined by
    the set of negative-exponent variables.  Spot p holds the (p+1)-subsets
    that contain every negative variable, so it is empty for p + 1 < |neg|."""
    negatives = frozenset(negatives)
    spots = [_subsets_with(n, p + 1, negatives) if p + 1 >= len(negatives)
             else [] for p in range(n + 1)]
    dims = tuple(len(s) for s in spots)
    one, zero = coefficients.one, coefficients.zero
    diffs = []
    for p in range(n):
        index = {sub: k for k, sub in enumerate(spots[p])}
        mat = [[zero] * dims[p] for _ in range(dims[p + 1])]
        for row, target in enumerate(spots[p + 1] if index else ()):
            for t in range(len(target)):
                source = target[:t] + target[t + 1:]
                col = index.get(source)
                if col is None:
                    continue
                sign = one if t % 2 == 0 else coefficients.neg(one)
                mat[row][col] = sign
        diffs.append(mat)
    return ChainComplex(dims, tuple(diffs), coefficients)


def multidegree_complex(l, coefficients=QQ):
    """Cech complex of the single multidegree l (n + 1 exponents)."""
    return complex_for_pattern(len(l.parts) - 1, l.negatives(), coefficients)


def complex_cohomology_dims(c):
    """h_p = dim(spot p) - rank(d_p) - rank(d_{p-1}), by exact elimination."""
    ranks = [matrix_rank(mat, c.coefficients) for mat in c.diffs]
    out = []
    for p, dim in enumerate(c.dims):
        before = ranks[p - 1] if p > 0 else 0
        after = ranks[p] if p < len(c.diffs) else 0
        h = dim - before - after
        if h < 0:
            raise MalformedComplex("negative cohomology dimension")
        out.append(h)
    return out


def _require_level(n, m, level):
    if n < 0:
        raise NegativeDimension("P^%d has negative dimension" % n)
    if level < 1:
        raise DegreeLevelMismatch("level %s is not a positive integer" % level)
    m = Fraction(m)
    if (m * level).denominator != 1:
        raise DegreeLevelMismatch(
            "degree %s is not representable at level %d" % (m, level))
    return m


def _reflect(n, s, c):
    """s, or (n+1)c - s when that is smaller (the map x -> c - x on
    [0, c]^(n+1)); -1 when no vector of that box sums to s."""
    s = min(s, (n + 1) * c - s)
    return s if c >= 0 and s >= 0 else -1


def _terms(n, s, c):
    """The number of terms of _box_count(n, s, c), s already reflected."""
    return 1 + min(n + 1, s // (c + 1)) if s >= 0 else 0


def _box_count(n, s, c):
    """N(n, s, c), the integer vectors in [0, c]^(n+1) that sum to s.  After
    the reflection, inclusion-exclusion over the upper bounds (Stanley,
    Enumerative Combinatorics I, ch. 2) gives
    sum_i (-1)^i C(n+1, i) C(s - i(c+1) + n, n)."""
    s = _reflect(n, s, c)
    return sum((-1) ** i * comb(n + 1, i) * comb(s - i * (c + 1) + n, n)
               for i in range(_terms(n, s, c)))


def twist_dims(n, m, level, box):
    """Cohomology dimensions of O(m) on P^n at denominator level D = level,
    summed over all multidegrees with |l_i| <= box.

    With B = floor(box * D), h^0 counts the vectors in [0, B]^(n+1) that
    sum to Dm, and h^n those in [-B, -1]^(n+1), that is N(n, -Dm-(n+1), B-1)
    after x -> -1 - x; the middle spots are 0.  The work estimate is checked
    before any binomial or the answer's n + 1 entries are made."""
    m = _require_level(n, m, level)
    box = Fraction(box)
    total, bound = int(m * level), floor(box * level)
    sums = [(_reflect(n, total, bound), bound),
            (_reflect(n, -total - n - 1, bound - 1), bound - 1)]
    terms = sum(_terms(n, s, c) for s, c in sums)
    work = (n + 1) * (1 + terms) * (max(s for s, _ in sums) + n).bit_length()
    if work > MAX_TWIST_WORK:
        raise CohomologyTooLarge("the closed form on P^%d (%d terms) is above "
                                 "the limit %d" % (n, terms, MAX_TWIST_WORK))
    h = [0] * (n + 1)
    h[0] = _box_count(n, *sums[0])
    h[n] += _box_count(n, *sums[1])  # on P^0 both land in the one spot
    return CohomologyDims(tuple(h), n, m, level, box)


def _basis(n, level, s, negative):
    """The monomials X^(v/level), sorted by v, for the vectors y of n + 1
    nonnegative integers summing to s (stars and bars), with v = y, or
    v = -1 - y when negative.  Their count C(s + n, n) grows with each
    factor of its product, so MAX_BASIS_SIZE is checked along the way."""
    if s < 0:
        return []
    count, i = 1, 0
    while count * n <= MAX_BASIS_SIZE and i < min(s, n):
        count, i = count * (s + n - i) // (i + 1), i + 1  # C(s + n, i)
    if count * n > MAX_BASIS_SIZE:
        raise CohomologyTooLarge("a basis on P^%d has more than %d monomials"
                                 % (n, MAX_BASIS_SIZE // n))
    sign, shift = (-1, -1) if negative else (1, 0)
    if not n:  # the one vector (s,); s is not bounded on P^0
        return [Monomial.make([(0, Fraction(shift + sign * s, level))])]
    exps = [Fraction(shift + sign * y, level) for y in range(s + 1)]
    monos = []
    for bars in combinations(range(s + n), n):  # ascending y
        edges = (-1,) + bars + (s + n,)
        gaps = zip(edges, edges[1:])
        monos.append(Monomial.make((i, exps[b - a - 1])
                                   for i, (a, b) in enumerate(gaps)))
    return monos[::-1] if negative else monos


def h0_basis(n, m, level):
    """Monomial basis of the global sections of O(m) at the given level:
    nonnegative exponents in (1/D)Z summing to m.  Count is C(Dm+n, n)."""
    total = int(_require_level(n, m, level) * level)
    return _basis(n, level, total, False)


def hn_basis(n, m, level):
    """Monomial basis of the top cohomology at the given level: strictly
    negative exponents summing to m.  Count is C(-Dm-1, n) when -Dm >= n+1."""
    total = int(_require_level(n, m, level) * level)
    return _basis(n, level, -total - n - 1, True)


def kunneth_dims(a, b):
    """Dimension convolution for a product of projective spaces."""
    ha = tuple(a.h) if isinstance(a, CohomologyDims) else tuple(a)
    hb = tuple(b.h) if isinstance(b, CohomologyDims) else tuple(b)
    for h in (ha, hb):
        if not h or min(h) < 0:
            raise NegativeDimension(
                "not a list of cohomology dimensions: %r" % (list(h),))
    out = [0] * (len(ha) + len(hb) - 1)
    for i, x in enumerate(ha):
        for j, y in enumerate(hb):
            out[i + j] += x * y
    return tuple(out)
