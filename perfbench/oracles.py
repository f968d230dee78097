"""Independent checks: small exact routines on plain ints and Fractions.

Nothing here calls qdeg.  Each routine recomputes an answer, or a property
an answer must have, from the generated inputs, so that a wrong result from
the code being timed cannot also fool its check.
"""

from fractions import Fraction
from math import comb


def grevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def count_vectors(length, low, high, total):
    """Number of integer vectors of the given length with entries in
    [low, high] that sum to total (dynamic programming over the sum)."""
    if length == 0:
        return 1 if total == 0 else 0
    ways = {0: 1}
    for _ in range(length):
        nxt = {}
        for s, w in ways.items():
            for v in range(low, high + 1):
                nxt[s + v] = nxt.get(s + v, 0) + w
        ways = nxt
    return ways.get(total, 0)


def standard_monomial_count(leads, nvars, cap=100000):
    """Monomials divisible by no leading monomial, or None past ``cap``."""
    seen = set()
    stack = [(0,) * nvars]
    count = 0
    while stack:
        m = stack.pop()
        if m in seen:
            continue
        seen.add(m)
        if any(all(a <= b for a, b in zip(lead, m)) for lead in leads):
            continue
        count += 1
        if count > cap:
            return None
        for i in range(nvars):
            stack.append(m[:i] + (m[i] + 1,) + m[i + 1:])
    return count


def reduces_to_zero(poly, basis, p):
    """Division of ``poly`` by ``basis`` under degrevlex reaches zero.  Each
    is a dict {integer exponent tuple: coefficient}; for a Groebner basis
    this is ideal membership."""
    leads = [(max(g, key=grevlex_key), g) for g in basis]
    poly = {m: reduce_coeff(c, p) for m, c in poly.items() if c}
    while poly:
        m = max(poly, key=grevlex_key)
        for lead, g in leads:
            if all(a <= b for a, b in zip(lead, m)):
                break
        else:
            return False
        factor = poly[m] / g[lead] if p == 0 else poly[m] * pow(g[lead], -1, p)
        shift = tuple(b - a for a, b in zip(lead, m))
        for e, c in g.items():
            key = tuple(x + y for x, y in zip(e, shift))
            value = poly.get(key, 0) - factor * c
            if p:
                value %= p
            if value:
                poly[key] = value
            else:
                poly.pop(key, None)
    return True


def h0_count(n, total):
    return comb(total + n, n) if total >= 0 else 0


def hn_count(n, total):
    return comb(-total - 1, n) if -total >= n + 1 else 0


def convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


# ---------------------------------------------------------------------------
# arithmetic on plain term lists: ((exponent Fractions), coefficient)

def reduce_coeff(c, p):
    """Coefficient in Q (p = 0) or its residue in F_p."""
    c = Fraction(c)
    if p == 0:
        return c
    return c.numerator * pow(c.denominator, -1, p) % p


def power_at(u, e, order, p):
    """u^(e * order) for a root u at the given order; in F_p a p-power
    denominator left over is dropped, since a^(1/p) = a on F_p."""
    k = e * order
    if k.denominator != 1:
        den = k.denominator
        while p and den % p == 0:
            den //= p
        if den != 1:
            raise ValueError("exponent %s not defined at order %d" % (e, order))
        k = Fraction(k.numerator)
    k = int(k)
    if p == 0:
        return Fraction(u) ** k
    if k < 0:
        return pow(pow(int(u) % p, -1, p), -k, p)
    return pow(int(u) % p, k, p)


def evaluate_terms(terms, roots, order, p):
    """Value of sum c * prod x_i^e_i at x_i = roots[i]^order."""
    total = Fraction(0) if p == 0 else 0
    for exps, c in terms:
        val = reduce_coeff(c, p)
        for u, e in zip(roots, exps):
            if e:
                val = val * power_at(u, e, order, p)
                if p:
                    val %= p
        total = total + val
        if p:
            total %= p
    return total


def derivative_terms(terms, index, p):
    out = []
    for exps, c in terms:
        e = exps[index]
        if e == 0:
            continue
        new = list(exps)
        new[index] = e - 1
        scale = e if p == 0 else reduce_coeff(e, p)
        out.append((tuple(new), reduce_coeff(c, p) * scale))
    return out


def rank(rows, p):
    """Rank by Gaussian elimination over Q (p = 0) or F_p."""
    m = [[reduce_coeff(x, p) for x in r] for r in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][col] if p == 0 else pow(m[r][col], -1, p)
        for i in range(r + 1, len(m)):
            f = m[i][col] * inv
            if f:
                m[i] = [(a - f * b) if p == 0 else (a - f * b) % p
                        for a, b in zip(m[i], m[r])]
        r += 1
    return r


# ---------------------------------------------------------------------------
# dense univariate arithmetic for the Bezout check

def dense(terms, level, p):
    """Coefficient list in t = x^(1/level) of a one-variable term list."""
    if not terms:
        return []
    degs = [int(exps[0] * level) for exps, _ in terms]
    out = [Fraction(0) if p == 0 else 0] * (max(degs) + 1)
    for d, (_, c) in zip(degs, terms):
        out[d] = reduce_coeff(c, p)
    return trim(out)


def trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def remainder(a, b, p):
    a = list(a)
    inv = 1 / b[-1] if p == 0 else pow(b[-1], -1, p)
    while len(a) >= len(b) and a:
        shift = len(a) - len(b)
        f = a[-1] * inv
        for i, x in enumerate(b):
            a[shift + i] = a[shift + i] - f * x
            if p:
                a[shift + i] %= p
        trim(a)
    return a


def mul_dense(a, b, p):
    if not a or not b:
        return []
    out = [Fraction(0) if p == 0 else 0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
            if p:
                out[i + j] %= p
    return trim(out)


def add_dense(a, b, p):
    out = [Fraction(0) if p == 0 else 0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = x
    for i, y in enumerate(b):
        out[i] = out[i] + y
        if p:
            out[i] %= p
    return trim(out)
