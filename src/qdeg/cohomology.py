"""Cech cohomology of the twisting sheaves O(m), m in Q, on P^n at a finite
denominator level D.

The Cech differential preserves the exponent vector of a monomial, so the
degree-m slice of the complex splits into one finite summand per multidegree
l = (l_0,...,l_n) with sum m.  The monomial X^l lies in the localization at
X_I exactly when every variable with a negative exponent is inverted, so the
summand's shape depends only on NEG(l) = {i : l_i < 0}, and after
relabelling the variables only on |NEG|.  So the summands are counted per
|NEG| by a dynamic program over the coordinates, and the cohomology of one
complex per |NEG| is computed by exact rank (fraction-free over Q, modular
over F_p) and cached.  h^0 and h^n come out as monomial counts; every middle
spot vanishes, which the rank computation re-derives rather than assumes.
"""

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, floor

from .errors import DegreeLevelMismatch, MalformedComplex, NegativeDimension
from .fields import QQ
from .linalg import matrix_rank
from .poly import Monomial


@dataclass(frozen=True)
class MultiDegree:
    """Exponent vector l_0..l_n with common denominator dividing the level."""

    parts: tuple

    @property
    def total(self):
        return sum(self.parts, Fraction(0))

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
        for p in range(len(diffs) - 1):
            if not _is_zero_product(diffs[p + 1], diffs[p]):
                raise MalformedComplex("d o d is nonzero at position %d" % p)


def _is_zero_product(a, b):
    if not a or not b or not b[0]:
        return True
    for row in a:
        for c in range(len(b[0])):
            if sum(row[k] * b[k][c] for k in range(len(b))) != 0:
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
    need = size - len(required)
    if need < 0:
        return []
    out = []
    for extra in combinations(rest, need):
        out.append(tuple(sorted(set(extra) | set(required))))
    out.sort()
    return out


def complex_for_pattern(n, negatives, coefficients=QQ):
    """The multidegree summand of the Cech complex for P^n, as determined by
    the set of negative-exponent variables."""
    negatives = frozenset(negatives)
    spots = [_subsets_with(n, p + 1, negatives) for p in range(n + 1)]
    dims = tuple(len(s) for s in spots)
    one, zero = coefficients.one, coefficients.zero
    diffs = []
    for p in range(n):
        index = {sub: k for k, sub in enumerate(spots[p])}
        mat = [[zero] * dims[p] for _ in range(dims[p + 1])]
        for row, target in enumerate(spots[p + 1]):
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


def _count_by_negatives(n, total, bound):
    """counts[k] = number of integer vectors in [-bound, bound]^(n+1) that
    sum to total and have exactly k negative entries (0 <= k <= n+1)."""
    states = {0: [1] + [0] * (n + 1)}  # partial sum -> counts by negatives
    for left in range(n, -1, -1):  # coordinates after this one
        step = {}
        for s, by_neg in states.items():
            for v in range(-bound, bound + 1):
                if abs(total - s - v) > bound * left:
                    continue
                row = step.setdefault(s + v, [0] * (n + 2))
                for k in range(n + 1 - left):
                    row[k + (v < 0)] += by_neg[k]
        states = step
    return states.get(total, [0] * (n + 2))


def twist_dims(n, m, level, box):
    """Cohomology dimensions of O(m) on P^n at denominator level D = level,
    summed over all multidegrees with |l_i| <= box.

    With box >= |m| the h^0 and h^n sums are complete; middle spots vanish
    multidegree by multidegree, which the rank computation verifies."""
    m = _require_level(n, m, level)
    box = Fraction(box)
    counts = _count_by_negatives(n, int(m * level), floor(box * level))
    h = [0] * (n + 1)
    for k, cnt in enumerate(counts):
        if cnt:
            for p, d in enumerate(_pattern_dims(n, k)):
                h[p] += d * cnt
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


def h0_basis(n, m, level):
    """Monomial basis of the global sections of O(m) at the given level:
    nonnegative exponents in (1/D)Z summing to m.  Count is C(Dm+n, n)."""
    m = _require_level(n, m, level)
    total = int(m * level)
    if total < 0:
        return []
    vectors = _exponent_vectors(n, total, 0, total)
    return [Monomial.make((i, Fraction(k, level)) for i, k in enumerate(v))
            for v in sorted(vectors)]


def hn_basis(n, m, level):
    """Monomial basis of the top cohomology at the given level: strictly
    negative exponents summing to m.  Count is C(-Dm-1, n) when -Dm >= n+1."""
    m = _require_level(n, m, level)
    total = int(m * level)
    if total > -(n + 1):
        return []
    vectors = _exponent_vectors(n, total, total, -1)
    return [Monomial.make((i, Fraction(k, level)) for i, k in enumerate(v))
            for v in sorted(vectors)]


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
