"""Exact matrix rank by one sparse elimination over Q and F_p.

Each row is read once into a dict {column: value} of its nonzero entries,
cleared of denominators over Q, so the loop runs on integers (residues mod
p).  A sparsest pending row is the pivot row, as in Faugere & Lachartre
(PASCO 2010).  Every row r with an entry f in the pivot column becomes
a*r - b*pivot_row: over Q a/b = pivot/f in lowest terms and r is then
divided by its content; over F_p a = pivot and b = f, mod p.
"""

from math import gcd, lcm


def _sparse_row(row, p):
    """The nonzero entries of a row as {column: int}: residues mod p, or
    over Q the entries times the lcm of their denominators."""
    entries = {c: x for c, x in enumerate(row) if x}
    if p:
        return {c: x % p for c, x in entries.items() if x % p}
    den = lcm(*(x.denominator for x in entries.values()))
    return {c: x.numerator * (den // x.denominator)
            for c, x in entries.items()}


def matrix_rank(rows, field):
    """Exact rank of a matrix of field elements (list of rows)."""
    p = field.characteristic
    pending = [r for r in (_sparse_row(row, p) for row in rows) if r]
    rank = 0
    while pending:
        pending.sort(key=len, reverse=True)
        top = pending.pop()
        col, pivot = next(iter(top.items()))
        rank += 1
        rest = []
        for row in pending:
            f = row.get(col)
            if f:
                g = 1 if p else gcd(pivot, f)
                a, b = pivot // g, f // g
                row = {c: a * x for c, x in row.items()}
                for c, x in top.items():
                    row[c] = row.get(c, 0) - b * x
                if p:
                    row = {c: x % p for c, x in row.items() if x % p}
                else:
                    g = gcd(*row.values())
                    row = {c: x // g for c, x in row.items() if x}
            if row:
                rest.append(row)
        pending = rest
    return rank
