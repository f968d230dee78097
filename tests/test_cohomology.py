from fractions import Fraction
from itertools import product
from math import comb

import pytest

from qdeg.cohomology import (ChainComplex, CohomologyDims, MultiDegree,
                             _count_by_negatives, complex_cohomology_dims,
                             h0_basis, h0_count,
                             hn_basis, hn_count, kunneth_dims,
                             multidegree_complex, twist_dims)
from qdeg.errors import (DegreeLevelMismatch, MalformedComplex,
                         NegativeDimension)
from qdeg.fields import QQ, PrimeField
from qdeg.poly import Monomial


def md(*parts):
    return MultiDegree(tuple(Fraction(p) for p in parts))


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


def test_dichotomy_matches_rank_computation():
    # the case analysis: h = (1,0,..,0) iff no negatives, (0,..,0,1) iff all
    # negative, and identically zero otherwise -- re-derived by exact rank
    for n in (1, 2, 3):
        for signs in product((-2, 1), repeat=n + 1):
            l = MultiDegree(tuple(Fraction(s) for s in signs))
            h = complex_cohomology_dims(multidegree_complex(l))
            neg = l.negatives()
            if not neg:
                assert h == [1] + [0] * n
            elif len(neg) == n + 1:
                assert h == [0] * n + [1]
            else:
                assert h == [0] * (n + 1)


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


def test_count_by_negatives_matches_brute_force():
    for n in range(4):
        for bound in range(5):
            brute = _brute_counts(n, bound)
            edge = (n + 1) * bound
            for total in range(-edge - 2, edge + 3):  # inside and beyond
                assert _count_by_negatives(n, total, bound) == \
                    brute.get(total, [0] * (n + 2)), (n, total, bound)


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
        for fn in (h0_basis, hn_basis, h0_count, hn_count):
            with pytest.raises(DegreeLevelMismatch):
                fn(2, -3, level)
    with pytest.raises(NegativeDimension):
        twist_dims(-1, -3, 1, 3)
    for fn in (h0_basis, hn_basis, h0_count, hn_count):
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
