"""Dense univariate arithmetic over Q and F_p.

A polynomial is a list of coefficients, constant term first, trimmed (no
trailing zeros; the zero polynomial is []).  ``p`` is the characteristic:
over F_p (p > 0) the coefficients are int residues, over Q (p = 0) they are
Fractions or ints.  Over F_p the functions accept unreduced ints and, apart
from mul, return least residues.

Euclid runs on monic remainders, so division is only ever by a monic
divisor, in place (von zur Gathen & Gerhard, Modern Computer Algebra, 2.4
and 3.2).  Zeros over F_p come from gcd(f, x^p - x) and equal-degree
splitting by gcd(g, (x + a)^((p-1)/2) - 1), with random a (ch. 14).
"""

from fractions import Fraction


def trim(a):
    """Drop the trailing zeros of a in place; returns a."""
    while a and not a[-1]:
        a.pop()
    return a


def _inv(c, p):
    return pow(c, -1, p) if p else 1 / Fraction(c)


def _scale(a, c, p):
    return [x * c % p for x in a] if p else [x * c for x in a]


def monic(a, p):
    """The nonzero a divided by its leading coefficient."""
    if p:  # inline: the variety scan makes it on every root prefix
        inv = pow(a[-1], -1, p)
        return [c * inv % p for c in a]
    inv = 1 / Fraction(a[-1])
    return [c * inv for c in a]


def divide(a, m, p):
    """The remainder of a by the monic m.  The division runs in place:
    afterwards a[deg m:] holds the quotient."""
    dm = len(m) - 1
    for top in range(len(a) - 1, dm - 1, -1):
        c = a[top] = a[top] % p if p else a[top]
        if c:
            base = top - dm
            for i in range(dm):
                a[base + i] -= c * m[i]
    return trim([c % p for c in a[:dm]] if p else a[:dm])


def mul(a, b):
    """The product; over F_p its coefficients are left unreduced."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b, i):
            out[j] += x * y
    return out


def sub(a, b, p):
    out = list(a) + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    return trim([c % p for c in out] if p else out)


def gcd(a, b, p):
    """Monic gcd of a and b; [] when both are zero."""
    a = trim([c % p for c in a] if p else list(a))
    b = trim([c % p for c in b] if p else list(b))
    while b:
        if len(b) == 1:
            return [1]
        b = monic(b, p)
        a, b = b, divide(a, b, p)
    return monic(a, p) if a else a


def gcdex(f, g, p):
    """(d, u, v) with d the monic gcd of f and g (or [] when both are zero)
    and u*f + v*g = d.  The remainder sequence carries only the f-cofactor
    u of each remainder; v = (d - u*f)/g is one exact division at the end."""
    f = trim([c % p for c in f] if p else list(f))
    g = trim([c % p for c in g] if p else list(g))
    if f:
        inv = _inv(f[-1], p)
        r0, u0 = _scale(f, inv, p), [inv]
    else:
        r0, u0 = [], [1]
    g_monic = monic(g, p) if g else []
    r1, u1 = g_monic, []
    while r1:
        work = list(r0)
        r = divide(work, r1, p)
        u = []
        if r:
            inv = _inv(r[-1], p)
            r = _scale(r, inv, p)
            u = _scale(sub(u0, mul(work[len(r1) - 1:], u1), p), inv, p)
        r0, u0, r1, u1 = r1, u1, r, u
    if not g:
        return r0, u0, []
    work = sub(r0, mul(u0, f), p)
    if divide(work, g_monic, p):
        raise ArithmeticError("gcdex: g does not divide d - u*f")
    return r0, u0, _scale(work[len(g) - 1:], _inv(g[-1], p), p)


def powmod(a, e, m, p):
    """(x + a)^e modulo the monic m over F_p, by square-and-multiply."""
    result = [1]
    for bit in bin(e)[2:]:
        result = divide(mul(result, result), m, p)
        if bit == "1":
            result = divide([a * c + d for c, d in
                             zip(result + [0], [0] + result)], m, p)
    return result


def roots(f, p, rng):
    """The distinct zeros in F_p, ascending, of the polynomial with int
    coefficients f (constant term first); all of F_p when f is zero mod p.
    The splitting draws from rng; the zeros do not depend on it."""
    f = trim([c % p for c in f])
    if not f:
        return list(range(p))
    out = []
    if not f[0]:
        out.append(0)
        f = f[next(i for i, c in enumerate(f) if c):]
    f = monic(f, p)
    if len(f) > 2:
        xp = powmod(0, p, f, p) + [0, 0]
        xp[1] -= 1
        f = gcd(f, xp, p)
    _split(f, p, rng, out)
    return sorted(out)


def _split(g, p, rng, out):
    """Append the zeros of g, a monic product of distinct linear factors
    with g(0) != 0, by equal-degree splitting.  Over F_2 such a g has degree
    at most 1, so p is odd whenever a split is needed."""
    if len(g) == 2:
        out.append(-g[0] % p)
    if len(g) <= 2:
        return
    while True:
        w = powmod(rng.randrange(p), (p - 1) // 2, g, p)
        w[0] -= 1
        d = gcd(g, w, p)
        if 1 < len(d) < len(g):
            break
    rest = list(g)
    divide(rest, d, p)
    _split(d, p, rng, out)
    _split(rest[len(d) - 1:], p, rng, out)
