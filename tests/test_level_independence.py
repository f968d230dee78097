"""Level independence as an oracle.

A rational-degree polynomial lives in the union of the rings k[x^(1/L)],
and for positive rationals q_i the map x_i -> x_i^(q_i) is an automorphism
of that union.  Answers that do not depend on the level chosen must not
change under it.  The map is applied here on Monomial.make pairs, so the
oracle does not go through the exponent conversions it checks.
"""

import signal
from contextlib import contextmanager
from fractions import Fraction

from hypothesis import given, reject, settings, strategies as st

from qdeg.fields import QQ, PrimeField
from qdeg.grading import homogeneous_components
from qdeg.ideals import (IdealPresentation, gcd_univariate, ideal_member,
                         is_proper)
from qdeg.poly import Monomial, QPolynomial

FIELDS = st.sampled_from([QQ, PrimeField(7), PrimeField(31)])
# seconds per draw; a draw that runs longer is rejected, not failed
TIME_LIMIT = 2.0

_EXPONENT = st.builds(Fraction, st.integers(0, 3), st.integers(1, 3))
_POWER = st.builds(Fraction, st.integers(1, 3), st.integers(1, 3))


def _terms(nvars, max_terms=3):
    return st.lists(st.tuples(st.lists(_EXPONENT, min_size=nvars,
                                       max_size=nvars),
                              st.integers(-4, 4)),
                    min_size=1, max_size=max_terms)


def _poly(field, nvars, terms):
    return QPolynomial.from_terms(field, nvars, [
        (Monomial.make(enumerate(exps)), field.coerce(c))
        for exps, c in terms])


def _substitute(f, powers):
    """x_i -> x_i^(powers[i]), term by term."""
    return QPolynomial(f.field, f.nvars, {
        Monomial.make((i, e * powers[i]) for i, e in mono.exps): c
        for mono, c in f.terms.items()})


class _Slow(Exception):
    pass


@contextmanager
def _time_limit(seconds):
    def stop(signum, frame):
        raise _Slow()

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except _Slow:
        reject()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=150, deadline=None)
@given(field=FIELDS, gens=st.lists(_terms(2), min_size=1, max_size=2),
       cofactors=st.lists(_terms(2, 2), min_size=2, max_size=2),
       other=_terms(2), powers=st.lists(_POWER, min_size=2, max_size=2))
def test_membership_and_properness_do_not_depend_on_the_level(
        field, gens, cofactors, other, powers):
    gens = [_poly(field, 2, g) for g in gens]
    combo = sum((_poly(field, 2, h) * g for h, g in zip(cofactors, gens)),
                QPolynomial.zero(field, 2))
    candidates = [combo, _poly(field, 2, other)]
    ideal = IdealPresentation(gens)
    image = IdealPresentation([_substitute(g, powers) for g in gens])
    with _time_limit(TIME_LIMIT):
        assert is_proper(ideal) == is_proper(image)
        for f in candidates:
            assert ideal_member(f, ideal) == \
                ideal_member(_substitute(f, powers), image)
    assert ideal_member(combo, ideal)


@settings(max_examples=150, deadline=None)
@given(field=FIELDS, f=_terms(1, 4), g=_terms(1, 4), common=_terms(1, 2),
       power=_POWER)
def test_the_monic_gcd_maps_to_the_gcd(field, f, g, common, power):
    c = _poly(field, 1, common)
    f, g = _poly(field, 1, f) * c, _poly(field, 1, g) * c
    with _time_limit(TIME_LIMIT):
        d = gcd_univariate(f, g)[0]
        image = gcd_univariate(_substitute(f, [power]),
                               _substitute(g, [power]))[0]
    assert image == _substitute(d, [power])


@settings(max_examples=100, deadline=None)
@given(field=FIELDS, f=_terms(3, 5), power=_POWER)
def test_homogeneous_components_count_under_a_uniform_power(field, f, power):
    f = _poly(field, 3, f)
    image = _substitute(f, [power] * 3)
    assert len(homogeneous_components(image)) == \
        len(homogeneous_components(f))
