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

Univariate Bezout GCDs come from the extended Euclidean algorithm on the
flattened pair, run on monic remainders: only the f-cofactor u is carried,
and v = (d - u*f)/g is one exact division at the end.
"""

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, le, sub

from .errors import NotUnivariate
from .flatten import FlattenMap, flatten, unflatten
from .poly import Monomial, QPolynomial, int_exponents


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
# flat representation: dict[exponent tuple] -> coefficient.  Inside the
# engine coefficients are ints; p is the characteristic, 0 for Q.

def _to_flat(g):
    out = {}
    for mono, coeff in g.terms.items():
        out[int_exponents(mono, g.nvars, 1)] = coeff
    return out


def _from_flat(field, nvars, fd):
    terms = {}
    for exps, coeff in fd.items():
        terms[Monomial.make(enumerate(exps))] = coeff
    return QPolynomial(field, nvars, terms)


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
    """Flatten the polynomials (all nonzero) at the given or their minimal
    joint level; the level, p and the engine's int dicts."""
    fmap, flats = flatten(polys, level=level)
    p = polys[0].field.characteristic
    return fmap, p, [_integral(_to_flat(g), p) for g in flats]


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
    nvars = gens.generators[0].nvars
    basis = _reduce_basis(_buchberger(flats, p), p)
    return GroebnerBasis(fmap, tuple(_from_flat(field, nvars, g) for g in basis))


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

def _dense_univariate(fd, field):
    if not fd:
        return []
    deg = max(m[0] for m in fd)
    out = [field.zero] * (deg + 1)
    for m, c in fd.items():
        out[m[0]] = c
    return out


def _trim(coeffs, field):
    while coeffs and coeffs[-1] == field.zero:
        coeffs.pop()
    return coeffs


def _monic(r, u, field):
    """r and u divided by the leading coefficient of r."""
    inv_lead = field.inv(r[-1])
    return ([field.mul(c, inv_lead) for c in r],
            [field.mul(c, inv_lead) for c in u])


def _poly_divmod(a, b, field):
    a = list(a)
    q = [field.zero] * max(len(a) - len(b) + 1, 0)
    inv_lead = field.inv(b[-1])
    while len(a) >= len(b) and a:
        shift = len(a) - len(b)
        factor = field.mul(a[-1], inv_lead)
        q[shift] = factor
        for i, bc in enumerate(b):
            a[shift + i] = field.sub(a[shift + i], field.mul(factor, bc))
        _trim(a, field)
    return q, a


def _poly_mul(a, b, field):
    if not a or not b:
        return []
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return _trim(out, field)


def _poly_sub(a, b, field):
    out = [field.zero] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = x
    for i, y in enumerate(b):
        out[i] = field.sub(out[i], y)
    return _trim(out, field)


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
    fmap, (ff, gg) = flatten([f, g])
    fd, gd = (_dense_univariate(_to_flat(ff), field),
              _dense_univariate(_to_flat(gg), field))
    # monic remainder sequence; each u is the f-cofactor of its remainder
    r0, u0 = _monic(fd, [field.one], field) if fd else (fd, [field.one])
    r1, u1 = _monic(gd, [], field) if gd else (gd, [])
    while r1:
        q, r = _poly_divmod(r0, r1, field)
        u = []
        if r:
            r, u = _monic(r, _poly_sub(u0, _poly_mul(q, u1, field), field),
                          field)
        r0, u0, r1, u1 = r1, u1, r, u
    v = []
    if gd:
        v, rem = _poly_divmod(_poly_sub(r0, _poly_mul(u0, fd, field), field),
                              gd, field)
        if rem:
            raise ArithmeticError("gcd_univariate: g does not divide d - u*f")

    def lift(coeffs):
        terms = {(i,): c for i, c in enumerate(coeffs) if c != field.zero}
        return unflatten(fmap, _from_flat(field, 1, terms))

    return lift(r0), lift(u0), lift(v)
