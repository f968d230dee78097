"""Exact coefficient fields: the rationals and prime fields F_p.

Rational elements are ``fractions.Fraction`` values (always reduced, positive
denominator, arbitrary precision).  Prime-field elements are plain ints in
[0, p).  A field object supplies the arithmetic so that all higher modules
stay field-agnostic.
"""

from fractions import Fraction

from .errors import DivisionByZero, NotInvertible, NotPrime, PrimeTooLarge


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to every base above (Sorenson & Webster 2015)
MR_LIMIT = 3317044064679887385961981


def is_prime(p):
    """Deterministic Miller-Rabin with the prime bases 2..41, exact for
    p < MR_LIMIT (about 3.3e24); a larger p raises PrimeTooLarge."""
    if p < 2:
        return False
    if p >= MR_LIMIT:
        raise PrimeTooLarge("primality is decided only below %d" % MR_LIMIT)
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def fp_inv(a, p):
    """Inverse of a mod p; a must be nonzero mod p."""
    if a % p == 0:
        raise NotInvertible("0 has no inverse mod %d" % p)
    return pow(a, -1, p)


class RationalField:
    """The field Q, elements represented as Fraction."""

    name = "q"
    characteristic = 0

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        return Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise NotInvertible("0 has no inverse")
        return 1 / a

    def div(self, a, b):
        if b == 0:
            raise DivisionByZero("division by zero")
        return a / b

    def pow(self, a, e):
        if e < 0 and a == 0:
            raise NotInvertible("0 has no negative power")
        return a ** e

    def parse(self, text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise DivisionByZero("bad rational literal %r" % text)

    def format(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("q")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The field F_p for a prime p, elements are least nonnegative residues."""

    characteristic = None  # set per instance

    def __init__(self, p):
        if not is_prime(p):
            raise NotPrime("%d is not prime" % p)
        self.p = p
        self.characteristic = p
        self.name = "fp:%d" % p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, x):
        return x % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        return fp_inv(a, self.p)

    def div(self, a, b):
        if b % self.p == 0:
            raise DivisionByZero("division by zero in F_%d" % self.p)
        return (a * fp_inv(b, self.p)) % self.p

    def pow(self, a, e):
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a, e, self.p)

    def parse(self, text):
        if "/" in text:
            num, den = text.split("/", 1)
            return self.div(int(num) % self.p, int(den) % self.p)
        return int(text) % self.p

    def format(self, a):
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("fp", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = RationalField()


def field_from_name(name):
    """Field from its CLI spelling: "q" or "fp:<p>"."""
    if name == "q":
        return QQ
    if name.startswith("fp:") and name[3:].isdecimal():
        return PrimeField(int(name[3:]))
    raise NotPrime("unknown field %r" % name)
