"""Finitely generated ideal algorithms.

Everything runs in the flattened integer-exponent ring at the minimal joint
level of the inputs (see flatten); answers there are answers in the union
ring.  The engine is Buchberger's algorithm under degrevlex: S-pairs wait in
a heap and come out smallest lcm first (normal strategy), the Gebauer-Moeller
update prunes them as each new element comes in, normal forms reduce in place
in descending grevlex order, and a nonzero constant ends the run at once.
Full inter-reduction follows.

The engine computes on plain ints over both fields.  Over Q it is
fraction-free: each input becomes its primitive integer multiple, a
reduction step scales the work polynomial by glc/gcd(glc, c) instead of
dividing, and content leaves once per normal form (Geddes, Czapor &
Labahn, Algorithms for Computer Algebra, 2.6).  Over F_p the same loop runs
on residues with monic divisors.  Fractions appear only where a polynomial
enters and where the monic reduced basis leaves.

Univariate Bezout GCDs come from the extended Euclidean algorithm of
upoly on the dense coefficient lists of the flattened pair.
"""

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, le, sub

from . import upoly
from .errors import NotUnivariate
from .flatten import FlattenMap, exponent_lcm
from .poly import QPolynomial, from_int_terms


@dataclass(frozen=True)
class IdealPresentation:
    """Generators of a finitely generated ideal (zero generators dropped);
    all share one field and one variable count, or FieldMismatch."""

    generators: tuple

    def __init__(self, generators):
        gens = tuple(generators)
        for g in gens[1:]:
            gens[0]._check_compatible(g)
        gens = tuple(g for g in gens if not g.is_zero())
        object.__setattr__(self, "generators", gens)

    @property
    def is_zero_ideal(self):
        return not self.generators


@dataclass(frozen=True)
class GroebnerBasis:
    level: FlattenMap
    basis: tuple          # integer-exponent QPolynomial, monic, reduced
    order: str = "grevlex"

    def contains_one(self):
        return any(g.is_constant() and not g.is_zero() for g in self.basis)


# ---------------------------------------------------------------------------
# flat representation: dict[exponent tuple] -> coefficient, the int terms of
# a polynomial at the level (FlattenMap.flat_terms) and back at level 1
# (poly.from_int_terms).  Inside the engine coefficients are ints; p is the
# characteristic, 0 for Q.

def _grevlex_key(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def _lead(fd):
    return max(fd, key=_grevlex_key)


def _divides(a, b):
    return all(map(le, a, b))


def _mono_lcm(a, b):
    return tuple(map(max, a, b))


def _coprime(a, b):
    return not any(map(min, a, b))


def _make_primitive(fd, lead, p):
    """Over Q: divide an int dict by its content, leading coefficient
    positive.  Over F_p: make it monic on least residues."""
    if p:
        inv = pow(fd[lead], -1, p)
        return {m: c * inv % p for m, c in fd.items()}
    content = gcd(*fd.values())
    if fd[lead] < 0:
        content = -content
    return {m: c // content for m, c in fd.items()}


def _integral(fd, p):
    """The engine's form of a nonzero flat dict with field coefficients:
    over Q its primitive integer multiple, over F_p its monic multiple."""
    if not p:
        den = lcm(*(c.denominator for c in fd.values()))
        fd = {m: c.numerator * (den // c.denominator) for m, c in fd.items()}
    return _make_primitive(fd, _lead(fd), p)


def _engine_input(polys, level):
    """The int terms of the polynomials (all nonzero) at the given or their
    minimal joint level; the level, p and the engine's int dicts."""
    fmap = level if level is not None else exponent_lcm(polys)
    p = polys[0].field.characteristic
    return fmap, p, [_integral(fmap.flat_terms(f), p) for f in polys]


def _divisor(lead, fd):
    """A basis element as the normal form reads it: (leading monomial,
    leading coefficient, the other terms)."""
    return lead, fd[lead], [(m, c) for m, c in fd.items() if m != lead]


def _normal_form(fd, divisors, p):
    """Full reduction of every term of the int dict fd modulo the divisors:
    (s, r) with s*fd - r in the ideal of the divisors, s > 0 and no term of
    r divisible by a leading monomial.

    Over Q the divisors are primitive with positive leading coefficients.
    To cancel c*m by a divisor with leading coefficient glc, the work dict
    and the remainder are scaled by glc/gcd(c, glc) (s collects these
    factors) and (c/gcd)*X^shift*tail is subtracted.  Over F_p the divisors
    are monic and s = 1; work values are reduced mod p when they come up,
    so r holds least residues.

    Pending monomials sit in a min-heap keyed (-degree, reversed exponents),
    which pops them in descending grevlex order, so the remainder lists its
    leading monomial first.  A monomial whose term cancels stays in the heap
    and is skipped when it comes up; work is reduced in place."""
    work = dict(fd)
    heap = [(-sum(m), m[::-1], m) for m in work]
    heapify(heap)
    remainder = {}
    s = 1
    while heap:
        m = heappop(heap)[2]
        c = work.pop(m, None)
        if c is None:
            continue
        if p:
            c %= p
            if not c:
                continue
        for glm, glc, tail in divisors:
            if all(map(le, glm, m)):  # glm divides m
                if glc != 1:
                    g = gcd(c, glc)
                    c //= g
                    scale = glc // g
                    if scale != 1:
                        s *= scale
                        for k in work:
                            work[k] *= scale
                        for k in remainder:
                            remainder[k] *= scale
                shift = tuple(map(sub, m, glm))
                for gm, gc in tail:
                    key = tuple(map(add, gm, shift))
                    old = work.get(key)
                    if old is None:
                        work[key] = -c * gc
                        heappush(heap, (-sum(key), key[::-1], key))
                        continue
                    val = old - c * gc
                    if val:
                        work[key] = val
                    else:
                        del work[key]
                break
        else:
            remainder[m] = c
    return s, remainder


def _spoly(a, b, lcm_ab):
    """A multiple of lc(b) X^(lcm - lm(a)) a - lc(a) X^(lcm - lm(b)) b for
    two divisors, cancelled with lc/gcd multipliers; the leading terms
    cancel and are left out.  Over F_p the divisors are monic and the
    values are left unreduced for the normal form."""
    (la, ca, ta), (lb, cb, tb) = a, b
    g = gcd(ca, cb)
    ma, mb = cb // g, ca // g
    shift = tuple(map(sub, lcm_ab, la))
    out = {tuple(map(add, m, shift)): ma * c for m, c in ta}
    shift = tuple(map(sub, lcm_ab, lb))
    for m, c in tb:
        key = tuple(map(add, m, shift))
        val = out.get(key, 0) - mb * c
        if val:
            out[key] = val
        else:
            out.pop(key, None)
    return out


def _buchberger(flats, p):
    """A minimal Groebner basis of nonzero int dicts as a list of divisors,
    or just the unit when a nonzero constant turns up.  An input may be any
    multiple of its element: it is reduced before it joins the basis.

    Pairs wait in a heap keyed by the grevlex key of their lcm (normal
    strategy); the Gebauer-Moeller update prunes them as each new element
    comes in.  ``active`` holds the indices whose leading monomials are
    minimal; only they reduce and only they form new pairs."""
    basis, leads, active, pairs = [], [], [], []

    def add_normal_form(f):
        """Append the normal form of f unless it is 0; True for a constant."""
        _, h = _normal_form(f, [basis[k] for k in active], p)
        if not h:
            return False
        lh = next(iter(h))
        h = _make_primitive(h, lh, p)
        new = len(basis)
        basis.append(_divisor(lh, h))
        leads.append(lh)
        # chain criterion among the new pairs: drop (new, k) when another
        # new pair's lcm divides lcm(lh, lk), keeping one of equal lcms;
        # coprime pairs take part here and are dropped afterwards
        fresh = [(_mono_lcm(lh, leads[k]), k) for k in active]
        kept = []
        for idx, (l, k) in enumerate(fresh):
            if _coprime(lh, leads[k]) or not any(
                    _divides(l2, l) for l2, _ in fresh[idx + 1:] + kept):
                kept.append((l, k))
        # chain criterion on the old pairs: lh divides their lcm, which
        # differs from both lcms with the new element
        pairs[:] = [q for q in pairs
                    if not _divides(lh, q[3])
                    or _mono_lcm(leads[q[1]], lh) == q[3]
                    or _mono_lcm(leads[q[2]], lh) == q[3]]
        pairs.extend((_grevlex_key(l), new, k, l) for l, k in kept
                     if not _coprime(lh, leads[k]))
        heapify(pairs)
        active[:] = [k for k in active if not _divides(lh, leads[k])]
        active.append(new)
        return not any(lh)

    for f in sorted(flats, key=lambda f: _grevlex_key(_lead(f))):
        if add_normal_form(f):
            return [basis[-1]]
    while pairs:
        _, i, j, l = heappop(pairs)
        if add_normal_form(_spoly(basis[i], basis[j], l)):
            return [basis[-1]]
    return [basis[k] for k in active]


def _has_unit(divisors):
    return any(not any(lead) for lead, _, _ in divisors)


def _reduce_basis(divisors, p):
    """Inter-reduce a minimal basis on ints; the monic field basis as flat
    dicts, each lead + r/(s*lc).  Reduction keeps the leading terms; over
    F_p the divisors are monic and s = 1, so r is the tail already."""
    divisors = sorted(divisors, key=lambda d: _grevlex_key(d[0]))
    reduced = []
    for i, (lead, lc, tail) in enumerate(divisors):
        others = divisors[:i] + divisors[i + 1:]
        s, r = _normal_form(dict(tail), others, p)
        if p:
            reduced.append({lead: 1, **r})
        else:
            d = s * lc
            reduced.append({lead: Fraction(1),
                            **{m: Fraction(c, d) for m, c in r.items()}})
    return reduced


def groebner(gens, level=None):
    """Reduced monic Groebner basis of the flattened ideal (degrevlex)."""
    if gens.is_zero_ideal:
        fmap = level if level is not None else FlattenMap(())
        return GroebnerBasis(fmap, ())
    fmap, p, flats = _engine_input(gens.generators, level)
    field = gens.generators[0].field
    ones = (1,) * gens.generators[0].nvars
    basis = _reduce_basis(_buchberger(flats, p), p)
    return GroebnerBasis(fmap, tuple(from_int_terms(field, ones, g)
                                     for g in basis))


def _check_against(f, gens):
    if gens.generators:
        f._check_compatible(gens.generators[0])


def ideal_member(f, gens, level=None):
    """Is f in the ideal generated by gens inside k[T_1,...,T_n]_Q?"""
    _check_against(f, gens)
    if f.is_zero():
        return True
    if gens.is_zero_ideal:
        return False
    _, p, flats = _engine_input([*gens.generators, f], level)
    _, r = _normal_form(flats[-1], _buchberger(flats[:-1], p), p)
    return not r


def radical_member(f, gens, level=None):
    """Rabinowitsch: f is in the radical iff 1 lies in (gens, f*t - 1)."""
    _check_against(f, gens)
    if f.is_zero():
        return True
    if gens.is_zero_ideal:
        return False
    _, p, flats = _engine_input([*gens.generators, f], level)
    # t is a new last variable.  The engine's f is a multiple a*f, a != 0;
    # t -> a*t maps (gens, f*t - 1) onto (gens, a*f*t - 1), so 1 lies in both
    # or in neither.
    trick = [{m + (0,): c for m, c in g.items()} for g in flats[:-1]]
    ft = {m + (1,): c for m, c in flats[-1].items()}
    ft[(0,) * (f.nvars + 1)] = -1
    return _has_unit(_buchberger(trick + [ft], p))


def is_proper(gens, level=None):
    """True unless the ideal contains 1: Buchberger finds a constant lead."""
    if gens.is_zero_ideal:
        return True
    _, p, flats = _engine_input(gens.generators, level)
    return not _has_unit(_buchberger(flats, p))


# ---------------------------------------------------------------------------
# univariate Bezout GCD

def gcd_univariate(f, g):
    """Monic gcd with Bezout cofactors: u*f + v*g = gcd, at the joint level."""
    for h in (f, g):
        if h.nvars != 1:
            raise NotUnivariate("gcd_univariate needs one-variable polynomials")
    f._check_compatible(g)
    field = f.field
    zero = QPolynomial.zero(field, 1)
    if f.is_zero() and g.is_zero():
        return zero, zero, zero
    fmap = exponent_lcm([f, g])
    dense = []
    for h in (f, g):
        fd = fmap.flat_terms(h)
        top = max(fd, default=(-1,))[0]
        dense.append([fd.get((e,), 0) for e in range(top + 1)])
    d, u, v = upoly.gcdex(*dense, field.characteristic)

    def lift(coeffs):
        return from_int_terms(field, fmap.orders,
                              {(i,): c for i, c in enumerate(coeffs) if c})

    return lift(d), lift(u), lift(v)
