"""Dense univariate arithmetic over Q and F_p.

A polynomial is a list of coefficients, constant term first, trimmed (no
trailing zeros; the zero polynomial is []).  ``p`` is the characteristic:
over F_p (p > 0) the coefficients are int residues, over Q (p = 0) they are
Fractions or ints.  Over F_p the functions accept unreduced ints and, apart
from mul, return least residues.

Euclid runs on monic remainders over F_p (von zur Gathen & Gerhard, Modern
Computer Algebra, 2.4, 3.2), over Q as the subresultant PRS on ints (Collins
1967; Knuth, TAOCP 2, 4.6.1 C), making Fractions only at the end.  Zeros over
F_p (ch. 14): gcd(f, x^p - x), split by gcd(g, (x+a)^((p-1)/2) - 1), random a.
"""

from fractions import Fraction
from math import lcm


def trim(a):
    """Drop the trailing zeros of a in place; returns a."""
    while a and not a[-1]:
        a.pop()
    return a


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


def quo_rem(a, b):
    """(q, r) with a = q*b + r over Z (b != []); q must be integral."""
    a, n = list(a), len(b) - 1
    for top in range(len(a) - 1, n - 1, -1):
        a[top], rest = divmod(a[top], b[-1])
        if rest:
            raise ArithmeticError("quo_rem: the quotient is not integral")
        a[top - n:top] = [x - a[top] * y for x, y in zip(a[top - n:top], b)]
    return a[n:], trim(a[:n])


def prs(r0, r1, s0, s1):
    """The last nonzero remainder of the subresultant PRS of the int lists
    r0, r1 (deg r0 >= deg r1) and its cofactor, from s0, s1 those of r0, r1."""
    g = h = 1
    while r1:
        delta = len(r0) - len(r1)
        scale = r1[-1] ** (delta + 1)
        q, r = quo_rem([c * scale for c in r0], r1)
        s = sub([c * scale for c in s0], mul(q, s1), 0)
        beta = [g * h ** delta]
        r0, s0, r1, s1 = r1, s1, quo_rem(r, beta)[0], quo_rem(s, beta)[0]
        g, h = r0[-1], r0[-1] ** delta * h // h ** delta
    return r0, s0


def gcd(a, b, p):
    """Monic gcd of a and b; [] when both are zero."""
    if not p:
        return gcdex(a, b, 0)[0]
    a, b = (trim([c % p for c in h]) for h in (a, b))
    while b:
        if len(b) == 1:
            return [1]
        b = monic(b, p)
        a, b = b, divide(a, b, p)
    return monic(a, p) if a else a


def gcdex(f, g, p):
    """(d, u, v): d the monic gcd of f and g ([] when both are zero), u*f +
    v*g = d.  Only u is carried; v is one exact division at the end."""
    if not p:
        a, b = (lcm(*(c.denominator for c in h)) for h in (f, g))
        F, G = (trim([c.numerator * (n // c.denominator) for c in h])
                for h, n in ((f, a), (g, b)))
        r, s = prs(G, F, [], [1]) if len(F) < len(G) else prs(F, G, [1], [])
        t, rest = quo_rem(sub(r, mul(s, F), 0), G) if G else ([], [])
        if rest:
            raise ArithmeticError("gcdex: G does not divide r - s*F")
        lc = r[-1] if r else 1
        return tuple([Fraction(c * n, lc) for c in h]
                     for h, n in ((r, 1), (s, a), (t, b)))
    f, g = (trim([c % p for c in h]) for h in (f, g))
    inv, g_inv = (pow(h[-1], -1, p) if h else 1 for h in (f, g))
    g_monic = [x * g_inv % p for x in g]
    r0, u0, r1, u1 = [x * inv % p for x in f], [inv], g_monic, []
    while r1:
        work = list(r0)
        r = divide(work, r1, p)
        u = []
        if r:
            inv = pow(r[-1], -1, p)
            r = [x * inv % p for x in r]
            u = [x * inv % p for x in sub(u0, mul(work[len(r1) - 1:], u1), p)]
        r0, u0, r1, u1 = r1, u1, r, u
    if not g:
        return r0, u0, []
    work = sub(r0, mul(u0, f), p)
    if divide(work, g_monic, p):
        raise ArithmeticError("gcdex: g does not divide d - u*f")
    return r0, u0, [x * g_inv % p for x in work[len(g) - 1:]]


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
