"""Cech cohomology of the twisting sheaves O(m), m in Q, on P^n at a finite
denominator level D.

The Cech differential preserves the exponent vector of a monomial, so the
degree-m slice of the complex splits into one finite summand per multidegree
l = (l_0,...,l_n) with sum m.  The monomial X^l lies in the localization at
X_I exactly when every variable with a negative exponent is inverted, so the
summand's shape depends only on NEG(l) = {i : l_i < 0}, and after
relabelling the variables only on |NEG|.  So the summands are counted per
|NEG| in closed form, by inclusion-exclusion, and the cohomology of one
complex per |NEG| is computed by exact sparse rank and cached.  h^0 and h^n
come out as monomial counts; every middle spot vanishes, which the rank
computation re-derives rather than assumes.  A column of a Cech
differential has at most p + 2 nonzero entries, all +-1, so the d o d check
multiplies nonzero entries only.
"""

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, floor

from .errors import (CohomologyTooLarge, DegreeLevelMismatch, MalformedComplex,
                     NegativeDimension)
from .fields import QQ
from .linalg import matrix_rank
from .poly import Monomial

# The most free variables n + 1 - k of a Cech summand built for its rank; it
# has 2^(n+1-k) subsets.  At the limit (n = 11, k = 0, or n = 12, k = 1) one
# summand takes about 1.3 s and 36 MB, one more free variable 4.5 s and
# 93 MB (Python 3.11, one core of a shared 2-core VM).
MAX_FREE_VARIABLES = 12
# The most monomials h0_basis or hn_basis lists.  At the limit, n = 3 takes
# about 1.3 s in the library and 2.5 s through `qdeg cech --basis` (same
# machine); the benchmark's largest basis has 969.
MAX_BASIS_SIZE = 100_000


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


@lru_cache(maxsize=None)
def _pattern_dims(n, k):
    """Cohomology of the summand whose first k variables are negative; by
    relabelling, every multidegree with k negatives has the same."""
    return tuple(complex_cohomology_dims(complex_for_pattern(n, range(k))))


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


def _count_with_negatives(n, total, bound, k):
    """The number of integer vectors in [-bound, bound]^(n+1), bound >= 0,
    that sum to total and have exactly k negative entries.  Shifting each
    negative entry by B = bound leaves r = n+1-k entries in [0, B] and k in
    [0, B-1] summing to T = total + kB; inclusion-exclusion over the upper
    bounds (Stanley, Enumerative Combinatorics I, ch. 2) counts those as
    sum (-1)^(i+j) C(r, i) C(k, j) S(T - i(B+1) - jB), S(s) = C(s+n, n)."""
    r, top, acc = n + 1 - k, total + k * bound, 0
    for i in range(min(r, top // (bound + 1)) + 1):  # top - i(B+1) >= 0
        for j in range(k + 1):
            s = top - i * (bound + 1) - j * bound
            if s < 0:
                break
            acc += (-1) ** (i + j) * comb(r, i) * comb(k, j) * comb(s + n, n)
    return comb(n + 1, k) * acc


def twist_dims(n, m, level, box):
    """Cohomology dimensions of O(m) on P^n at denominator level D = level,
    summed over all multidegrees with |l_i| <= box.

    The multidegrees are counted per number k of negative entries.  Their
    sums fill [-k*bound, (n+1)*bound - k], so the first k whose range holds
    the total gives the most free variables n + 1 - k, and the size limit
    raises there, before anything is counted or built.  With box >= |m| the
    h^0 and h^n sums are complete; middle spots vanish multidegree by
    multidegree, which the rank computation verifies."""
    m = _require_level(n, m, level)
    box = Fraction(box)
    total, bound = int(m * level), floor(box * level)
    h = [0] * (n + 1)
    for k in range(n + 2):
        if not -k * bound <= total <= (n + 1) * bound - k:
            continue  # no multidegree has k negatives
        if n + 1 - k > MAX_FREE_VARIABLES:
            raise CohomologyTooLarge(
                "a Cech summand with %d free variables is above the limit %d"
                % (n + 1 - k, MAX_FREE_VARIABLES))
        count = _count_with_negatives(n, total, bound, k)
        for p, d in enumerate(_pattern_dims(n, k)):
            h[p] += d * count
    return CohomologyDims(tuple(h), n, m, level, box)


def _exponent_vectors(n, total, low, high):
    """Integer vectors of length n+1 with entries in [low, high], given sum."""
    out = []

    def walk(i, remaining, prefix):
        if i == n:
            if low <= remaining <= high:
                out.append(prefix + (remaining,))
            return
        left = n - i
        for v in range(low, high + 1):
            rest = remaining - v
            if rest < low * left or rest > high * left:
                continue
            walk(i + 1, rest, prefix + (v,))

    walk(0, total, ())
    return out


def _basis(n, level, count, total, low, high):
    """The monomials with exponent vectors v/level, v in [low, high]^(n+1)
    summing to total, once their count is checked against MAX_BASIS_SIZE."""
    if count > MAX_BASIS_SIZE:
        raise CohomologyTooLarge("a basis of %d monomials is above the limit %d"
                                 % (count, MAX_BASIS_SIZE))
    return [Monomial.make((i, Fraction(k, level)) for i, k in enumerate(v))
            for v in sorted(_exponent_vectors(n, total, low, high))]


def h0_basis(n, m, level):
    """Monomial basis of the global sections of O(m) at the given level:
    nonnegative exponents in (1/D)Z summing to m.  Count is C(Dm+n, n)."""
    total = int(_require_level(n, m, level) * level)
    return _basis(n, level, h0_count(n, m, level), total, 0, total)


def hn_basis(n, m, level):
    """Monomial basis of the top cohomology at the given level: strictly
    negative exponents summing to m.  Count is C(-Dm-1, n) when -Dm >= n+1."""
    total = int(_require_level(n, m, level) * level)
    return _basis(n, level, hn_count(n, m, level), total, total, -1)


def h0_count(n, m, level):
    total = int(_require_level(n, m, level) * level)
    return comb(total + n, n) if total >= 0 else 0


def hn_count(n, m, level):
    total = int(_require_level(n, m, level) * level)
    return comb(-total - 1, n) if -total >= n + 1 else 0


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
