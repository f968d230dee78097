import random
from fractions import Fraction

import pytest

from qdeg.errors import DivisionByZero, NotInvertible, NotPrime, PrimeTooLarge
from qdeg.fields import (MR_LIMIT, QQ, PrimeField, field_from_name, fp_inv,
                         is_prime, rat_reduce)


def test_rat_reduce_examples():
    assert rat_reduce(2, 4) == Fraction(1, 2)
    r = rat_reduce(-3, -6)
    assert r == Fraction(1, 2) and r.denominator == 2
    z = rat_reduce(0, 5)
    assert z.numerator == 0 and z.denominator == 1


def test_rat_reduce_zero_denominator():
    with pytest.raises(DivisionByZero):
        rat_reduce(1, 0)


def test_fp_inv_examples():
    assert fp_inv(2, 5) == 3
    assert fp_inv(1, 7) == 1
    with pytest.raises(NotInvertible):
        fp_inv(0, 5)


def test_prime_checked_at_construction():
    with pytest.raises(NotPrime):
        PrimeField(6)
    with pytest.raises(NotPrime):
        PrimeField(1)
    PrimeField(2)
    PrimeField(2147483647)  # largest 31-bit prime


def test_field_from_name():
    assert field_from_name("q") == QQ
    assert field_from_name("fp:7") == PrimeField(7)


@pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(2)])
def test_field_axioms_randomized(field):
    rng = random.Random(20240817)

    def sample():
        if field.characteristic == 0:
            return Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        return rng.randrange(field.characteristic)

    for _ in range(1000):
        a, b, c = sample(), sample(), sample()
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b),
                                                          field.mul(a, c))
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
        if a != field.zero:
            assert field.mul(a, field.inv(a)) == field.one


def test_rational_arithmetic_arbitrary_precision():
    big = Fraction(10 ** 50 + 1, 10 ** 50)
    assert QQ.mul(big, big).numerator == (10 ** 50 + 1) ** 2


def test_prime_field_text_form():
    f5 = PrimeField(5)
    assert f5.format(f5.coerce(-1)) == "4"
    assert f5.parse("7") == 2
    assert f5.parse("1/2") == 3  # 2*3 = 6 = 1 mod 5
    assert QQ.format(Fraction(-3, 7)) == "-3/7"


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(-3, 30000) if is_prime(n)] == \
        [n for n in range(-3, 30000) if _trial_division(n)]


def test_is_prime_rejects_pseudoprimes():
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841,
                  29341, 41041, 62745, 63973, 75361, 101101, 126217, 172081,
                  188461, 252601, 278545, 294409, 314821, 334153, 340561,
                  399001, 410041, 449065, 488881, 512461]
    # strong pseudoprimes to the bases 2..7, 2..23 and 2..37, by factors
    strong = [151 * 751 * 28351, 149491 * 747451 * 34233211,
              399165290221 * 798330580441]
    for n in carmichael + strong:
        assert not is_prime(n), n


def test_is_prime_large_primes():
    # the largest primes below 2^31, 2^32, 2^61 and 2^64
    for bits, gap in ((31, 1), (32, 5), (61, 1), (64, 59)):
        assert is_prime(2 ** bits - gap)
        assert not any(is_prime(n) for n in range(2 ** bits - gap + 1, 2 ** bits))
    assert is_prime(100000000000000000039)
    PrimeField(2 ** 61 - 1)


def test_is_prime_refuses_beyond_its_bound():
    for n in (MR_LIMIT, 10 ** 25 + 13, 2 ** 89 - 1):
        with pytest.raises(PrimeTooLarge):
            PrimeField(n)
        with pytest.raises(NotPrime):
            field_from_name("fp:%d" % n)
