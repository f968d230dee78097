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
enters and where the monic reduced basis leaves.  Each monomial is one int,
its packed degrevlex key (see the flat representation below).

Univariate Bezout GCDs come from the extended Euclidean algorithm of
upoly on the dense coefficient lists of the flattened pair.
"""

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

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
# flat representation: a monomial in n variables is one int, its degrevlex
# key, with S_k = e_1 + ... + e_k in slot k (W bits, from the bottom).  The
# top slot holds the degree, and at equal degree a larger S_(n-1) means a
# smaller e_n, and so on down, so integer order is degrevlex and a product
# is one addition.  The raw form holds e_k in slot k; divisibility and lcms
# read it (Monagan & Pearce, J. Symb. Comp. 46, 2011; Bachmann & Schoenemann,
# ISSAC 1998).  Degrees stay below 2^(W-1), so the top bit of each slot is a
# clear guard bit.  Engine dicts map keys to int coefficients; p is the
# characteristic, 0 for Q.  FlattenMap.flat_terms is packed where it enters,
# and the reduced basis is unpacked once, for poly.from_int_terms.

class _SlotOverflow(Exception):
    """A pair lcm whose degree reaches the guard bit of the top slot."""


class _Slots:
    """The packing of exponent vectors with up to n entries, W bits a slot."""

    def __init__(self, n, width):
        self.n, self.width = n, width
        self.ones = sum(1 << width * k for k in range(n))
        self.guards = self.ones << width - 1
        self.mask = (1 << width * n) - 1

    def key(self, vec):
        """The key of an exponent vector; missing last entries count as 0."""
        raw = sum(e << self.width * k for k, e in enumerate(vec))
        return (raw * self.ones) & self.mask

    def checked_key(self, raw):
        """The key of a raw monomial, or _SlotOverflow when its degree does
        not fit: the first partial sum past 2^(W-1) - 1 sets its guard bit."""
        key = (raw * self.ones) & self.mask
        if key & self.guards:
            raise _SlotOverflow
        return key

    def raw(self, key):
        return key - ((key << self.width) & self.mask)

    def vector(self, key):
        raw, slot = self.raw(key), (1 << self.width) - 1
        return tuple((raw >> self.width * k) & slot for k in range(self.n))

    def divides(self, a, b):
        """Raw a divides raw b: no slot of (b | guards) - a borrows from
        its guard bit."""
        return ((b | self.guards) - a) & self.guards == self.guards

    def lcm(self, a, b):
        """The raw lcm: a's exponent in the slots where (a | guards) - b
        keeps the guard bit, b's in the others."""
        width = self.width
        ge = ((a | self.guards) - b) & self.guards
        take_a = (ge >> width - 1) * ((1 << width) - 1)
        return (a & take_a) | (b & ~take_a)

    def coprime(self, a, b):
        """No variable divides both raw monomials: the guard bit of a slot
        survives (x | guards) - 1 when the slot is nonzero."""
        guards, ones = self.guards, self.ones
        return not ((a | guards) - ones) & ((b | guards) - ones) & guards


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
    """The engine's form of a nonzero packed dict with field coefficients:
    over Q its primitive integer multiple, over F_p its monic multiple."""
    if not p:
        den = lcm(*(c.denominator for c in fd.values()))
        fd = {m: c.numerator * (den // c.denominator) for m, c in fd.items()}
    return _make_primitive(fd, max(fd), p)


def _run_engine(polys, level, compute, extra=0):
    """The level and compute(slots, p, flats) on the engine's dicts of the
    polynomials (all nonzero) at the given or their minimal joint level, with
    ``extra`` slots after their variables.  Slots are 32 bits or wider until
    the inputs fit, and twice as wide again while a pair lcm does not."""
    fmap = level if level is not None else exponent_lcm(polys)
    p = polys[0].field.characteristic
    terms = [fmap.flat_terms(f) for f in polys]
    degree = max(sum(vec) for t in terms for vec in t) + extra
    width = 32
    while degree >> width - 1:
        width *= 2
    while True:
        slots = _Slots(polys[0].nvars + extra, width)
        flats = [_integral({slots.key(vec): c for vec, c in t.items()}, p)
                 for t in terms]
        try:
            return fmap, compute(slots, p, flats)
        except _SlotOverflow:
            width *= 2


def _divisor(slots, lead, fd):
    """A basis element as the normal form reads it: (leading key, its raw
    form, leading coefficient, the other terms)."""
    return (lead, slots.raw(lead), fd[lead],
            [(m, c) for m, c in fd.items() if m != lead])


def _normal_form(slots, fd, divisors, p):
    """Full reduction of every term of the int dict fd modulo the divisors:
    (s, r) with s*fd - r in the ideal of the divisors, s > 0 and no term of
    r divisible by a leading monomial.

    Over Q the divisors are primitive with positive leading coefficients.
    To cancel c*m by a divisor with leading coefficient glc, the work dict
    and the remainder are scaled by glc/gcd(c, glc) (s collects these
    factors) and (c/gcd)*X^shift*tail is subtracted.  Over F_p the divisors
    are monic and s = 1; work values are reduced mod p when they come up,
    so r holds least residues.

    Pending keys sit in a min-heap as -key, which pops them in descending
    grevlex order, so the remainder lists its leading monomial first.  A
    monomial whose term cancels stays in the heap and is skipped when it
    comes up; work is reduced in place."""
    width, mask, guards = slots.width, slots.mask, slots.guards
    work = dict(fd)
    heap = [-m for m in work]
    heapify(heap)
    remainder = {}
    s = 1
    while heap:
        m = -heappop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        if p:
            c %= p
            if not c:
                continue
        raw = (m - ((m << width) & mask)) | guards
        for glm, graw, glc, tail in divisors:
            if (raw - graw) & guards == guards:  # glm divides m
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
                shift = m - glm
                for gm, gc in tail:
                    key = gm + shift
                    old = work.get(key)
                    if old is None:
                        work[key] = -c * gc
                        heappush(heap, -key)
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
    two divisors and the key of their lcm, cancelled with lc/gcd
    multipliers; the leading terms cancel and are left out.  Over F_p the
    divisors are monic and the values are left unreduced for the normal
    form."""
    (la, _, ca, ta), (lb, _, cb, tb) = a, b
    g = gcd(ca, cb)
    ma, mb = cb // g, ca // g
    shift = lcm_ab - la
    out = {m + shift: ma * c for m, c in ta}
    shift = lcm_ab - lb
    for m, c in tb:
        key = m + shift
        val = out.get(key, 0) - mb * c
        if val:
            out[key] = val
        else:
            out.pop(key, None)
    return out


def _buchberger(slots, flats, p):
    """A minimal Groebner basis of nonzero int dicts as a list of divisors,
    or just the unit when a nonzero constant turns up.  An input may be any
    multiple of its element: it is reduced before it joins the basis.

    Pairs wait in a heap as (key of the lcm, i, j, raw lcm), smallest lcm
    first (normal strategy); the Gebauer-Moeller update prunes them as each
    new element comes in.  ``active`` holds the indices whose leading
    monomials are minimal; only they reduce and only they form new pairs.
    A pair lcm that does not fit the slots raises _SlotOverflow."""
    basis, active, pairs = [], [], []

    def add_normal_form(f):
        """Append the normal form of f unless it is 0; True for a constant."""
        _, h = _normal_form(slots, f, [basis[k] for k in active], p)
        if not h:
            return False
        lh = next(iter(h))
        h = _make_primitive(h, lh, p)
        new = len(basis)
        basis.append(_divisor(slots, lh, h))
        rh = basis[new][1]
        # chain criterion among the new pairs: drop (new, k) when another
        # new pair's lcm divides lcm(lh, lk), keeping one of equal lcms;
        # coprime pairs take part here and are dropped afterwards
        fresh = [(slots.lcm(rh, basis[k][1]), k) for k in active]
        kept = []
        for idx, (l, k) in enumerate(fresh):
            if slots.coprime(rh, basis[k][1]) or not any(
                    slots.divides(l2, l) for l2, _ in fresh[idx + 1:] + kept):
                kept.append((l, k))
        # chain criterion on the old pairs: lh divides their lcm, which
        # differs from both lcms with the new element
        pairs[:] = [q for q in pairs
                    if not slots.divides(rh, q[3])
                    or slots.lcm(basis[q[1]][1], rh) == q[3]
                    or slots.lcm(basis[q[2]][1], rh) == q[3]]
        pairs.extend((slots.checked_key(l), new, k, l) for l, k in kept
                     if not slots.coprime(rh, basis[k][1]))
        heapify(pairs)
        active[:] = [k for k in active if not slots.divides(rh, basis[k][1])]
        active.append(new)
        return not lh

    for f in sorted(flats, key=max):
        if add_normal_form(f):
            return [basis[-1]]
    while pairs:
        l, i, j, _ = heappop(pairs)
        if add_normal_form(_spoly(basis[i], basis[j], l)):
            return [basis[-1]]
    return [basis[k] for k in active]


def _has_unit(divisors):
    return any(not lead for lead, _, _, _ in divisors)


def _reduce_basis(slots, divisors, p):
    """Inter-reduce a minimal basis on ints; the monic field basis as
    unpacked flat dicts, each lead + r/(s*lc).  Reduction keeps the leading
    terms; over F_p the divisors are monic and s = 1, so r is the tail
    already."""
    divisors = sorted(divisors, key=lambda d: d[0])
    reduced = []
    for i, (lead, _, lc, tail) in enumerate(divisors):
        others = divisors[:i] + divisors[i + 1:]
        s, r = _normal_form(slots, dict(tail), others, p)
        if p:
            terms = {lead: 1, **r}
        else:
            d = s * lc
            terms = {lead: Fraction(1),
                     **{m: Fraction(c, d) for m, c in r.items()}}
        reduced.append({slots.vector(m): c for m, c in terms.items()})
    return reduced


def groebner(gens, level=None):
    """Reduced monic Groebner basis of the flattened ideal (degrevlex)."""
    if gens.is_zero_ideal:
        fmap = level if level is not None else FlattenMap(())
        return GroebnerBasis(fmap, ())
    fmap, basis = _run_engine(
        gens.generators, level, lambda slots, p, flats:
        _reduce_basis(slots, _buchberger(slots, flats, p), p))
    field = gens.generators[0].field
    ones = (1,) * gens.generators[0].nvars
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

    def reduces_to_zero(slots, p, flats):
        return not _normal_form(slots, flats[-1],
                                _buchberger(slots, flats[:-1], p), p)[1]

    return _run_engine([*gens.generators, f], level, reduces_to_zero)[1]


def radical_member(f, gens, level=None):
    """Rabinowitsch: f is in the radical iff 1 lies in (gens, f*t - 1)."""
    _check_against(f, gens)
    if f.is_zero():
        return True
    if gens.is_zero_ideal:
        return False

    def has_unit(slots, p, flats):
        # t is a new last variable in its own slot, which the inputs' keys
        # leave at 0.  The engine's f is a multiple a*f, a != 0; t -> a*t
        # maps (gens, f*t - 1) onto (gens, a*f*t - 1), so 1 lies in both or
        # in neither.
        t = slots.key((0,) * f.nvars + (1,))
        ft = {m + t: c for m, c in flats[-1].items()}
        ft[0] = -1
        return _has_unit(_buchberger(slots, flats[:-1] + [ft], p))

    return _run_engine([*gens.generators, f], level, has_unit, extra=1)[1]


def is_proper(gens, level=None):
    """True unless the ideal contains 1: Buchberger finds a constant lead."""
    if gens.is_zero_ideal:
        return True
    return not _run_engine(
        gens.generators, level, lambda slots, p, flats:
        _has_unit(_buchberger(slots, flats, p)))[1]


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
