"""Seeded input generators for the ideals, cech and algebra op families.

Every generator takes the workload seed and returns plain data (tuples of
ints and Fractions), never qdeg objects, so that the inputs can be compared
across seeds and rebuilt by any consumer.  A polynomial is a tuple of
``(exponents, coefficient)`` pairs with one Fraction exponent per variable.

The seed changes coefficients, levels, points and the order of grid entries;
it never changes the supports or the shapes that set how much work an
operation does, so that runs with different seeds stay comparable.
"""

import random
from fractions import Fraction

P_IDEALS = 32003
P_ALGEBRA = 10007
P_VARIETY = 31
P_CHARP = 5


def _rng(workload, seed):
    # str seeds go through sha512, so the stream is the same in every process
    return random.Random("qdeg-bench:%s:%d" % (workload, seed))


def _unit(nvars, i):
    e = [0] * nvars
    e[i] = 1
    return tuple(e)


# ---------------------------------------------------------------------------
# ideals

def katsura_support(n):
    """Monomial supports (integer exponent tuples) of katsura-n in n+1
    variables: one linear equation and n quadrics."""
    nv = n + 1
    eqs = [[_unit(nv, i) for i in range(nv)] + [(0,) * nv]]
    for m in range(n):
        seen = []
        for l in range(-n, n + 1):
            a, b = abs(l), abs(m - l)
            if a > n or b > n:
                continue
            e = [0] * nv
            e[a] += 1
            e[b] += 1
            if tuple(e) not in seen:
                seen.append(tuple(e))
        if _unit(nv, m) not in seen:
            seen.append(_unit(nv, m))
        eqs.append(seen)
    return nv, eqs


def cyclic_support(n):
    """Monomial supports of cyclic-n: the n-1 cyclic sums and x_1...x_n - 1."""
    eqs = []
    for k in range(1, n):
        eq = []
        for i in range(n):
            e = [0] * n
            for j in range(k):
                e[(i + j) % n] += 1
            eq.append(tuple(e))
        eqs.append(eq)
    eqs.append([(1,) * n, (0,) * n])
    return n, eqs


# Bounds on the number of roots, counted with multiplicity: Bezout for
# katsura (one linear and n quadratic equations), the mixed volume for
# cyclic-4.  Generic coefficients attain them; special ones can fall short,
# so the checks use them as bounds.
ROOT_BOUND = {("katsura", 3): 8, ("katsura", 4): 16, ("cyclic", 4): 16}

# (system, size, member queries, radical?); each system runs over Q and
# F_32003, at level 1 and at a seeded fractional level.
IDEAL_PLAN = [("katsura", 3, 4, True), ("cyclic", 4, 1, True), ("katsura", 4, 1, False)]
IDEAL_FIELDS = [("q", False), ("q", True), ("fp", False), ("fp", True)]


def _ideal_coeff(rng, field):
    if field == "q":
        return Fraction(rng.randint(1, 9) * rng.choice((-1, 1)))
    return Fraction(rng.randrange(1, P_IDEALS))


def _value(exps, point, field):
    value = Fraction(1)
    for e, u in zip(exps, point):
        value *= u ** e
    return value if field == "q" else Fraction(int(value) % P_IDEALS)


def _equation(rng, support, root, field):
    """Seeded coefficients on ``support``, the last one solved for so that
    the equation vanishes at ``root`` (its monomial is nonzero there).  The
    draw is repeated while that coefficient comes out 0, so the support,
    and with it the amount of work, is the same for every seed."""
    *head, last = support
    while True:
        terms = [(e, _ideal_coeff(rng, field)) for e in head]
        total = sum(c * _value(e, root, field) for e, c in terms)
        if field == "q":
            c = -total / _value(last, root, field)
        else:
            c = Fraction(-int(total) * pow(int(_value(last, root, field)), -1, P_IDEALS)
                         % P_IDEALS)
        if c:
            return tuple(terms) + ((last, c),)


def ideal_variants(seed):
    """One entry per (system, field, level): generators, a planted root and
    member queries.

    Every generator vanishes at the seeded ``root``, which has no zero
    coordinate, so the ideal is proper whatever the coefficients.  A true
    member is sum_i c_i * Y_{j_i} * g_i with seeded c_i, j_i; the matching
    false member is that sum plus 1, which is 1 at the root and so neither
    in the ideal nor in its radical.  With ``level`` = d every exponent e
    becomes e/d, i.e. x_i is replaced by x_i^(1/d).
    """
    rng = _rng("ideals", seed)
    out = []
    for system, size, members, radical in IDEAL_PLAN:
        nv, support = (katsura_support if system == "katsura"
                       else cyclic_support)(size)
        for field, fractional in IDEAL_FIELDS:
            level = rng.choice((2, 3)) if fractional else 1
            if field == "q":
                root = tuple(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
                             for _ in range(nv))
            else:
                root = tuple(Fraction(rng.randrange(1, P_IDEALS)) for _ in range(nv))
            gens = tuple(_equation(rng, eq, root, field) for eq in support)
            true_members = []
            for _ in range(members):
                true_members.append(tuple(
                    (rng.randrange(nv), _ideal_coeff(rng, field)) for _ in gens))
            out.append({"system": system, "size": size, "field": field,
                        "level": level, "nvars": nv, "gens": gens, "root": root,
                        "members": tuple(true_members), "radical": radical})
    return out


# ---------------------------------------------------------------------------
# cech

# Wide boxes at small n: the multidegree enumeration dominates.  Entries are
# (n, bound = box * level, |level * m|); the seed picks the level (and hence
# the box) and the sign of m, which leave the enumeration size unchanged.
CECH_WIDE = [(4, 16, 6), (4, 16, 2), (4, 14, 4), (3, 40, 10), (3, 30, 3),
             (2, 60, 12)]
# Small boxes at n <= 3: many cheap calls, each a few milliseconds of
# enumeration and thread-pool dispatch.
CECH_SMALL = [(n, bound, t) for n, bounds in ((1, (20, 40, 60, 80)),
                                              (2, (8, 12, 16, 20)),
                                              (3, (3, 4, 6, 8)))
              for bound in bounds for t in (0, 1, 3)] + [
    (3, 10, 2), (3, 10, 5), (2, 12, 4), (1, 20, 7),
    # |level * m| beyond the box: h0 and hn then depend on the box edge
    (2, 4, 10), (3, 3, 9), (1, 20, 30), (2, 6, 15)]
# Tall n at bound 1: complex construction and rank dominate.  Entries are
# (n, level * m); the seed picks the level, with box = 1/level.  Patterns
# are cached per n, so these keep their relative order: each call then
# builds the same patterns whatever the seed.
CECH_TALL = [(8, -5), (8, -4), (7, -4), (7, -3)]
CECH_TALL_LEVELS = (1, 2, 3)
# h0 / hn bases: (n, level * m); the seed picks the level.
CECH_BASES = [(2, 40), (3, 16), (2, -40), (3, -18), (4, 9), (4, -12),
              (1, 200), (1, -200), (2, 20), (2, -22), (3, 10), (3, -12),
              (5, 6), (5, -9), (6, 4), (6, -9)]
CECH_KUNNETH = 16


def _levels_dividing(bound):
    return [d for d in (1, 2, 3, 4, 5, 6, 8, 10) if bound % d == 0]


def cech_grid(seed):
    """The twist_dims grid, the basis requests and the Kunneth pairs.

    Returns (twists, bases, kunneth); a twist is (n, m, level, box) with
    Fractions, a basis request is (kind, n, m, level)."""
    rng = _rng("cech", seed)
    twists = []
    for n, bound, t in CECH_WIDE + CECH_SMALL:
        level = rng.choice(_levels_dividing(bound))
        total = t * rng.choice((-1, 1))
        twists.append((n, Fraction(total, level), level, Fraction(bound, level)))
    tall = []
    for n, total in CECH_TALL:
        level = rng.choice(CECH_TALL_LEVELS)
        tall.append((n, Fraction(total, level), level, Fraction(1, level)))
    slots = sorted(rng.sample(range(len(twists) + len(tall)), len(tall)))
    rng.shuffle(twists)
    for slot, entry in zip(slots, tall):
        twists.insert(slot, entry)
    bases = []
    for n, total in CECH_BASES:
        level = rng.choice((1, 2, 3, 4))
        bases.append(("h0" if total >= 0 else "hn", n, Fraction(total, level),
                      level))
    kunneth = []
    for _ in range(CECH_KUNNETH):
        a = tuple(rng.randint(0, 50) for _ in range(rng.randint(2, 6)))
        b = tuple(rng.randint(0, 50) for _ in range(rng.randint(2, 6)))
        kunneth.append((a, b))
    return twists, bases, kunneth


# ---------------------------------------------------------------------------
# algebra

def _poly(rng, nvars, nterms, max_num, level, coeff):
    terms = {}
    while len(terms) < nterms:
        e = tuple(Fraction(rng.randint(0, max_num), level) for _ in range(nvars))
        terms[e] = coeff(rng)
    return tuple(sorted(terms.items()))


def _q_coeff(rng):
    return Fraction(rng.randint(1, 99) * rng.choice((-1, 1)), rng.choice((1, 1, 2, 3)))


def _p_coeff(p):
    return lambda rng: Fraction(rng.randrange(1, p))


def algebra_inputs(seed):
    """Inputs for every algebra operation, keyed by operation family."""
    rng = _rng("algebra", seed)
    out = {}
    # factors whose products are printed and parsed back: (field, factors)
    out["products"] = [
        ("q", [_poly(rng, 3, 14, 4, 2, _q_coeff),
               _poly(rng, 3, 14, 4, 2, _q_coeff),
               _poly(rng, 3, 5, 2, 3, _q_coeff)]),
        ("fp", [_poly(rng, 3, 16, 4, 2, _p_coeff(P_ALGEBRA)),
                _poly(rng, 3, 16, 4, 3, _p_coeff(P_ALGEBRA)),
                _poly(rng, 3, 3, 2, 1, _p_coeff(P_ALGEBRA))]),
        ("q", [_poly(rng, 2, 10, 6, 3, _q_coeff),
               _poly(rng, 2, 10, 6, 2, _q_coeff)]),
        ("fp", [_poly(rng, 2, 12, 8, 4, _p_coeff(P_ALGEBRA)),
                _poly(rng, 2, 12, 8, 3, _p_coeff(P_ALGEBRA))]),
    ]
    # powers: (field, base, exponent)
    out["powers"] = [("q", _poly(rng, 2, 4, 2, 2, _q_coeff), 6),
                     ("fp", _poly(rng, 3, 3, 2, 3, _p_coeff(P_ALGEBRA)), 7)]
    # small polynomials for flatten / unflatten / noether and grading
    out["small"] = [(("q", "fp")[k % 2],
                     _poly(rng, 3, 6, 4, rng.choice((2, 3, 4, 6)),
                           _q_coeff if k % 2 == 0 else _p_coeff(P_ALGEBRA)))
                    for k in range(12)]
    out["noether"] = [(("q", "fp")[k % 2],
                       _poly(rng, 2, 4, 3, rng.choice((1, 2, 3)),
                             _q_coeff if k % 2 == 0 else _p_coeff(P_ALGEBRA)))
                      for k in range(4)]
    # gcd: f = a*h, g = b*h with h monic, all at level 3 in one variable
    out["gcd"] = []
    for k, (field, deg) in enumerate([("q", 12), ("q", 18), ("fp", 30),
                                      ("fp", 40), ("q", 30), ("fp", 20),
                                      ("q", 24), ("fp", 60)]):
        coeff = _q_coeff if field == "q" else _p_coeff(P_ALGEBRA)
        parts = []
        for d in (deg // 2, deg, deg - 1):
            parts.append(tuple(((Fraction(i, 3),), coeff(rng))
                               for i in range(d + 1)))
        h, a, b = parts
        h = h[:-1] + (((Fraction(deg // 2, 3),), Fraction(1)),)
        out["gcd"].append((field, h, a, b))
    # evaluation points over F_p: (roots at level 6) for products
    out["points"] = [tuple(Fraction(rng.randrange(P_ALGEBRA)) for _ in range(3))
                     for _ in range(6)]
    # characteristic p: p-th roots, compose, pullback over F_5
    out["proot"] = [_poly(rng, 2, 8, 4, rng.choice((1, 5)), _p_coeff(P_CHARP))
                    for _ in range(6)]
    out["compose"] = []
    for _ in range(4):
        outer = _poly(rng, 2, 4, 3, 5, _p_coeff(P_CHARP))
        inner = [_poly(rng, 2, 3, 2, 1, _p_coeff(P_CHARP)) for _ in range(2)]
        out["compose"].append((outer, inner))
    out["pullback"] = []
    for _ in range(4):
        target = _poly(rng, 2, 4, 3, 1, _p_coeff(P_CHARP))
        comps = [_poly(rng, 3, 3, 2, 1, _p_coeff(P_CHARP)) for _ in range(2)]
        out["pullback"].append((target, comps))
    out["charp_points"] = [tuple(Fraction(rng.randrange(P_CHARP)) for _ in range(3))
                           for _ in range(4)]
    # variety over F_31: two generators in three variables, root order 1 or 2
    out["variety"] = [(_poly(rng, 3, 3, 2, 1, _p_coeff(P_VARIETY)),
                       _poly(rng, 3, 3, 2, 1, _p_coeff(P_VARIETY)),
                       rng.choice((1, 2)))
                      for _ in range(3)]
    # tangent spaces: generators g - g(P) vanish at the seeded point P
    out["tangent"] = []
    for k in range(4):
        field = ("q", "fp")[k % 2]
        coeff = _q_coeff if field == "q" else _p_coeff(P_ALGEBRA)
        order = rng.choice((1, 2))
        roots = tuple(Fraction(rng.randint(1, 5)) for _ in range(3))
        gens = [_poly(rng, 3, 4, 2 * order, order, coeff) for _ in range(2)]
        out["tangent"].append((field, order, roots, gens))
    out["veronese"] = [rng.randint(2, 12) for _ in range(4)]
    out["kunneth"] = tuple(tuple(rng.randint(0, 40) for _ in range(rng.randint(2, 5)))
                           for _ in range(2))
    return out
