from fractions import Fraction
from itertools import product
from math import comb
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

import qdeg.cohomology
from qdeg.cohomology import (MAX_BASIS_SIZE, ChainComplex, CohomologyDims,
                             MultiDegree, _box_count,
                             complex_cohomology_dims, complex_for_pattern,
                             h0_basis, hn_basis, kunneth_dims, multidegree_complex, twist_dims)
from qdeg.errors import (CohomologyTooLarge, DegreeLevelMismatch,
                         MalformedComplex, NegativeDimension)
from qdeg.fields import QQ, PrimeField
from qdeg.poly import Monomial


def md(*parts):
    return MultiDegree(tuple(Fraction(p) for p in parts))


def h0_count(n, m, level):
    """C(Dm + n, n): the monomials of degree Dm in n + 1 variables."""
    total = Fraction(m) * level
    assert total.denominator == 1
    return comb(int(total) + n, n) if total >= 0 else 0


def hn_count(n, m, level):
    """C(-Dm - 1, n): the vectors of n + 1 entries <= -1 summing to Dm."""
    total = Fraction(m) * level
    assert total.denominator == 1
    return comb(-int(total) - 1, n) if -total >= n + 1 else 0


def test_all_negative_concentrates_on_top():
    c = multidegree_complex(md(-1, -1, -1))
    assert complex_cohomology_dims(c) == [0, 0, 1]


def test_two_negative_is_exact():
    c = multidegree_complex(md(-1, -1, 2))
    assert c.dims == (0, 1, 1)
    assert complex_cohomology_dims(c) == [0, 0, 0]


def test_no_negative_concentrates_on_h0():
    c = multidegree_complex(md(0, 0, 0))
    assert c.dims == (3, 3, 1)
    assert complex_cohomology_dims(c) == [1, 0, 0]


def test_d_compose_d_is_zero_everywhere():
    # the ChainComplex constructor verifies d o d = 0; build every pattern
    for n in (1, 2, 3):
        for signs in product((-1, 1), repeat=n + 1):
            multidegree_complex(MultiDegree(tuple(Fraction(s) for s in signs)))


def test_complex_dims_trivial_cases():
    zero = ChainComplex((0, 0), (([]),))
    assert complex_cohomology_dims(zero) == [0, 0]
    identity = ChainComplex((1, 1), ([[QQ.one]],))
    assert complex_cohomology_dims(identity) == [0, 0]


def test_malformed_complex_rejected():
    with pytest.raises(MalformedComplex):
        ChainComplex((2, 1), ([[QQ.one]],))  # wrong width
    with pytest.raises(MalformedComplex):
        # two identical nonzero maps: d o d != 0
        ChainComplex((1, 1, 1), ([[QQ.one]], [[QQ.one]]))


def _closed_form(n, k):
    """The cohomology twist_dims assumes for a summand with k negatives."""
    h = [0] * (n + 1)
    if k == 0:
        h[0] = 1
    elif k == n + 1:
        h[n] = 1
    return h


def test_dichotomy_matches_rank_computation():
    # the case analysis: h = (1,0,..,0) iff no negatives, (0,..,0,1) iff all
    # negative, and identically zero otherwise -- re-derived by exact rank
    for n in (1, 2, 3):
        for signs in product((-2, 1), repeat=n + 1):
            l = MultiDegree(tuple(Fraction(s) for s in signs))
            h = complex_cohomology_dims(multidegree_complex(l))
            assert h == _closed_form(n, len(l.negatives()))
    # the witness: by relabelling, the summands with k negatives are those
    # of range(k); rank each over Q and two prime fields
    for n in range(11):
        for k in range(n + 2):
            for field in (QQ, PrimeField(2), PrimeField(32003)):
                c = complex_for_pattern(n, range(k), field)
                assert complex_cohomology_dims(c) == _closed_form(n, k), \
                    (n, k, field)


def test_twist_dims_ranks_no_complex(monkeypatch):
    calls, rank = [], qdeg.cohomology.matrix_rank

    def counting_rank(*args):
        calls.append(args)
        return rank(*args)

    monkeypatch.setattr(qdeg.cohomology, "matrix_rank", counting_rank)
    for n in range(6):
        for total in range(-2 * n - 3, 2 * n + 3):
            twist_dims(n, total, 1, 2)
    assert twist_dims(30, -950, 1, 50).h[30] > 0
    assert calls == []


def test_twist_dims_worked_examples():
    assert twist_dims(2, -3, 1, 3).h == (0, 0, 1)
    assert twist_dims(2, 0, 3, 1).h == (1, 0, 0)
    assert twist_dims(2, -3, 2, 3).h == (0, 0, 10)


def test_twist_dims_level_mismatch():
    with pytest.raises(DegreeLevelMismatch):
        twist_dims(2, Fraction(1, 2), 1, 1)


def test_twist_dims_counts_match_binomials():
    for n in (1, 2):
        for D in (1, 2):
            for num in range(-4 * D, 2 * D + 1):
                m = Fraction(num, D)
                dims = twist_dims(n, m, D, max(abs(m), 1))
                assert dims.h[0] == h0_count(n, m, D)
                assert dims.h[n] == hn_count(n, m, D)
                assert all(x == 0 for x in dims.h[1:n])


def test_level_monotonicity():
    # per-level slices grow with D: the computable shadow of infinite rank
    for m in (1, 2, 3):
        for D in (1, 2, 3):
            assert h0_count(1, m, 2 * D) >= h0_count(1, m, D)
            assert hn_count(2, -m - 2, 2 * D) >= hn_count(2, -m - 2, D)
    assert len(hn_basis(2, -3, 2)) > len(hn_basis(2, -3, 1))


def test_h0_basis_examples():
    basis = h0_basis(1, 1, 2)
    assert basis == [
        Monomial.make([(1, Fraction(1))]),
        Monomial.make([(0, Fraction(1, 2)), (1, Fraction(1, 2))]),
        Monomial.make([(0, Fraction(1))]),
    ] or len(basis) == 3
    assert {frozenset(m.exps) for m in basis} == {
        frozenset({(0, Fraction(1))}),
        frozenset({(0, Fraction(1, 2)), (1, Fraction(1, 2))}),
        frozenset({(1, Fraction(1))}),
    }
    squares = h0_basis(1, 2, 1)
    assert {frozenset(m.exps) for m in squares} == {
        frozenset({(0, Fraction(2))}),
        frozenset({(0, Fraction(1)), (1, Fraction(1))}),
        frozenset({(1, Fraction(2))}),
    }
    assert len(h0_basis(1, 2, 2)) == 5 == comb(2 * 2 + 1, 1)


def test_hn_basis_examples():
    only = hn_basis(2, -3, 1)
    assert only == [Monomial.make([(0, -1), (1, -1), (2, -1)])]
    assert hn_basis(2, -2, 1) == []
    ten = hn_basis(2, -3, 2)
    assert len(ten) == 10
    assert Monomial.make([(0, Fraction(-1, 2)), (1, Fraction(-1, 2)),
                          (2, Fraction(-2))]) in ten


def test_basis_counts_match_formulas():
    for n in (1, 2, 3):
        for num in range(-6, 4):
            assert len(h0_basis(n, num, 1)) == h0_count(n, num, 1)
            assert len(hn_basis(n, num, 1)) == hn_count(n, num, 1)
            assert len(h0_basis(n, Fraction(num, 2), 2)) == \
                h0_count(n, Fraction(num, 2), 2)
            assert len(hn_basis(n, Fraction(num, 2), 2)) == \
                hn_count(n, Fraction(num, 2), 2)


def test_kunneth_rejects_what_is_not_a_dimension_list():
    assert kunneth_dims((0,), (0, 0)) == (0, 0)
    for a, b in (((), (1,)), ((1,), ()), ((1, -1), (2,)), ((2,), (-3,))):
        with pytest.raises(NegativeDimension):
            kunneth_dims(a, b)


def test_kunneth_examples():
    assert kunneth_dims((2, 0), (2, 0)) == (4, 0, 0)
    assert kunneth_dims((0, 1), (0, 1)) == (0, 0, 1)
    assert kunneth_dims((1, 0), (0, 0)) == (0, 0, 0)
    a = twist_dims(1, 1, 1, 1)
    assert kunneth_dims(a, a) == (4, 0, 0)


def _brute_counts(n, bound):
    """total -> counts by number of negatives, over [-bound, bound]^(n+1)."""
    out = {}
    for v in product(range(-bound, bound + 1), repeat=n + 1):
        counts = out.setdefault(sum(v), [0] * (n + 2))
        counts[sum(1 for x in v if x < 0)] += 1
    return out


def _negative_extremes(n, total, bound):
    """(vectors without negatives, vectors without nonnegatives) in
    [-bound, bound]^(n+1) summing to total, by the box count N."""
    return (_box_count(n, total, bound),
            _box_count(n, -total - (n + 1), bound - 1))


def test_count_by_negatives_matches_brute_force():
    # columns 0 and n+1 of the counts by number of negatives
    for n in range(4):
        for bound in range(5):
            brute = _brute_counts(n, bound)
            edge = (n + 1) * bound
            for total in range(-edge - 2, edge + 3):  # inside and beyond
                counts = brute.get(total, [0] * (n + 2))
                assert _negative_extremes(n, total, bound) == \
                    (counts[0], counts[n + 1]), (n, total, bound)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 3), bound=st.integers(0, 4),
       total=st.integers(-30, 30))
def test_count_with_negatives_matches_brute_force_beyond_the_box(
        n, bound, total):
    counts = _brute_counts(n, bound).get(total, [0] * (n + 2))
    assert _negative_extremes(n, total, bound) == (counts[0], counts[n + 1])


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(0, 30), c=st.integers(0, 10 ** 4))
def test_reflected_box_count_matches_the_plain_sum(data, n, c):
    # N(n, s, c) reflects s to (n+1)c - s when that is smaller and returns
    # 0 outside [0, (n+1)c] at once; the plain sum runs over every i
    s = data.draw(st.integers(-3, (n + 1) * c + 3))

    def free(t):
        return comb(t + n, n) if t >= 0 else 0

    want = sum((-1) ** i * comb(n + 1, i) * free(s - i * (c + 1))
               for i in range(n + 2))
    assert _box_count(n, s, c) == want


def test_twist_dims_at_large_degree_and_dimension():
    start = perf_counter()
    assert twist_dims(3, 100000, 1, 100000).h == (166676666850001, 0, 0, 0)
    assert perf_counter() - start < 1.0
    start = perf_counter()
    assert twist_dims(200, 100000, 1, 1).h == (0,) * 201
    assert perf_counter() - start < 1.0


def test_twist_dims_matches_brute_force_at_levels():
    # h^0 counts the vectors without negatives, h^n those without
    # nonnegatives; a box between two level steps is cut to the lower one
    for n in range(4):
        for bound in range(5):
            brute = _brute_counts(n, bound)
            for level in (1, 2, 3):
                for box in (Fraction(bound, level),
                            Fraction(2 * bound + 1, 2 * level)):
                    for total in (-9, -4, -1, 0, 1, 3, 10):
                        counts = brute.get(total, [0] * (n + 2))
                        want = [0] * (n + 1)
                        want[0] += counts[0]
                        want[n] += counts[n + 1]
                        m = Fraction(total, level)
                        assert twist_dims(n, m, level, box).h == tuple(want)


def test_twist_dims_beyond_enumeration():
    # inclusion-exclusion: sum_i (-1)^i C(7,i) C(35-12i, 6) vectors in
    # [-12,-1]^7 summing to -36; every other pattern contributes nothing
    top = sum((-1) ** i * comb(7, i) * comb(35 - 12 * i, 6) for i in range(3))
    assert top == 926233
    assert twist_dims(6, -3, 12, 1).h == (0,) * 6 + (926233,)


def test_out_of_range_parameters_rejected():
    for level in (0, -1, -2):
        with pytest.raises(DegreeLevelMismatch):
            twist_dims(2, -3, level, 3)
        for fn in (h0_basis, hn_basis):
            with pytest.raises(DegreeLevelMismatch):
                fn(2, -3, level)
    with pytest.raises(NegativeDimension):
        twist_dims(-1, -3, 1, 3)
    for fn in (h0_basis, hn_basis):
        with pytest.raises(NegativeDimension):
            fn(-1, 0, 1)


def test_box_below_one_level_step_is_empty():
    # a box in (-1/D, 0) holds no multidegree, not even the zero vector
    assert twist_dims(2, 0, 2, Fraction(-1, 3)).h == (0, 0, 0)
    assert twist_dims(2, 0, 1, Fraction(-1, 2)).h == (0, 0, 0)
    assert twist_dims(2, 0, 1, 0).h == (1, 0, 0)


def test_multidegree_complex_over_prime_field():
    c = multidegree_complex(md(-1, -1, 2), coefficients=PrimeField(5))
    assert complex_cohomology_dims(c) == [0, 0, 0]
    # d o d vanishes mod p, not as an integer sum of residues
    for n in (1, 2, 3):
        for signs in product((-1, 1), repeat=n + 1):
            l = MultiDegree(tuple(Fraction(s) for s in signs))
            over_q = complex_cohomology_dims(multidegree_complex(l))
            for p in (2, 5):
                c = multidegree_complex(l, coefficients=PrimeField(p))
                assert complex_cohomology_dims(c) == over_q


def test_complex_size_limit():
    # answers in closed form where a Cech summand would have 2^13 or 2^201
    # subsets: only the zero vector, and the vectors in [0, 5]^201 with sum 5
    start = perf_counter()
    assert twist_dims(12, 0, 1, 0).h == (1,) + (0,) * 12
    assert twist_dims(13, -1, 1, Fraction(1, 2)).h == (0,) * 14
    assert twist_dims(200, 5, 1, 5).h == (comb(205, 5),) + (0,) * 200
    assert perf_counter() - start < 1.0
    # refused before the n + 1 entries or any binomial are made: an answer
    # of 10^7 + 1 zeros, and a sum of 2501 binomials of up to 10^4 bits
    for args in ((10 ** 7, 10 ** 9, 1, 1), (10000, 5000, 1, 1)):
        start = perf_counter()
        with pytest.raises(CohomologyTooLarge):
            twist_dims(*args)
        assert perf_counter() - start < 0.1


def test_basis_size_limit():
    # on P^1 the counts are Dm + 1 and -Dm - 1
    m = MAX_BASIS_SIZE - 1
    assert len(h0_basis(1, m, 1)) == h0_count(1, m, 1) == MAX_BASIS_SIZE
    assert len(hn_basis(1, -m - 2, 1)) == MAX_BASIS_SIZE
    for fn, m in ((h0_basis, m + 1), (hn_basis, -m - 3)):
        with pytest.raises(CohomologyTooLarge):
            fn(1, m, 1)
    start = perf_counter()
    with pytest.raises(CohomologyTooLarge):
        h0_basis(3, 1000, 1)
    assert perf_counter() - start < 1.0


def test_bases_at_the_dimension_extremes():
    # P^0 has one monomial at any degree; on P^n one monomial has n + 1
    # exponents, so the limit counts monomials times n
    start = perf_counter()
    assert h0_basis(0, 10 ** 30, 1) == [Monomial.make([(0, 10 ** 30)])]
    assert hn_basis(0, -10 ** 30, 1) == [Monomial.make([(0, -10 ** 30)])]
    assert h0_basis(5000, 0, 1) == [Monomial.one()]
    assert hn_basis(5000, -5001, 1) == [
        Monomial.make([(i, -1) for i in range(5001)])]
    with pytest.raises(CohomologyTooLarge):
        h0_basis(2000, 1, 1)  # 2001 monomials
    assert perf_counter() - start < 1.0


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 4), level=st.integers(1, 3), num=st.integers(-12, 8))
def test_serre_duality_at_level(n, level, num):
    # h^n(O(m)) = h^0(O(-m - (n+1)/D)): the canonical twist at level D
    m = Fraction(num, level)
    dual = -m - Fraction(n + 1, level)
    assert hn_count(n, m, level) == h0_count(n, dual, level)
    if n:  # on P^0 the one spot holds h^0 and h^n together
        box = max(abs(m), abs(dual))
        assert twist_dims(n, m, level, box).h[n] == \
            twist_dims(n, dual, level, box).h[0] == hn_count(n, m, level)
