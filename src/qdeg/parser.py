"""Text grammar, recursive-descent parser and canonical printer.

Grammar (whitespace-insensitive):

    expr      := ('+'|'-')? term (('+'|'-') term)*
    term      := factor ('*' factor)*
    factor    := coefficient
               | variable ('^' exponent)?
               | '(' expr ')' ('^' exponent)?
    exponent  := integer
               | integer '/' positive-integer
               | '(' ('-')? integer ('/' positive-integer)? ')'
    coefficient := integer | integer '/' positive-integer
    variable  := letter (letter|digit)*

Implicit multiplication is rejected, and so are parentheses nested more
than MAX_NESTING deep (the parser recurses once per level).  The text is
cut into tokens once.  A term multiplies its numbers and variable powers
into one coefficient and one monomial; only parenthesized factors are
multiplied as polynomials, and the terms are summed in one dict.  Fractional
powers of parenthesized expressions go through charp.fractional_power and
may raise CompositionNotPolynomial.  print emits the canonical form
(descending graded-lex terms) and parse(print(f)) == f.
"""

import re
from fractions import Fraction

from .charp import fractional_power
from .errors import ExpressionSyntaxError, UnknownVariable
from .poly import Monomial, QPolynomial

MAX_NESTING = 100
_TOKEN = re.compile(r"\s*(\d+|\w+|\S)")
_UNIT = Fraction(1)


class _Tokens:
    """The text cut once into tokens: runs of decimal digits (what int()
    reads), runs of other word characters, and single other characters.
    Whitespace only separates tokens.  ``peek`` returns the next token,
    None at the end.  Errors give offsets into the text, found only then."""

    def __init__(self, text):
        self.text = text
        self.items = _TOKEN.findall(text) + [None]
        self.i = 0

    def span(self, i):
        """Offsets of token i in the text; (len, len) past the last."""
        for k, match in enumerate(_TOKEN.finditer(self.text)):
            if k == i:
                return match.span(1)
        return len(self.text), len(self.text)

    @property
    def pos(self):
        return self.span(self.i)[0]

    def peek(self):
        return self.items[self.i]

    def take(self, char):
        if self.items[self.i] == char:
            self.i += 1
            return True
        return False

    def expect(self, char):
        if not self.take(char):
            raise ExpressionSyntaxError("expected %r" % char, self.pos)

    def integer(self):
        tok = self.items[self.i]
        if tok is None or not tok.isdecimal():
            raise ExpressionSyntaxError("expected an integer", self.pos)
        self.i += 1
        return int(tok)

    def ratio(self):
        """integer ('/' positive-integer)? as (numerator, denominator)."""
        num = self.integer()
        if not self.take("/"):
            return num, 1
        den = self.integer()
        if den == 0:
            raise ExpressionSyntaxError("zero denominator", self.span(self.i - 1)[1])
        return num, den

    def name(self):
        self.i += 1
        return self.items[self.i - 1]


class _Parser:
    def __init__(self, text, field, varnames):
        self.toks = _Tokens(text)
        self.field = field
        self.varnames = list(varnames)
        self.index = {name: i for i, name in enumerate(self.varnames)}
        self.nvars = len(self.varnames)
        self.depth = 0
        self.exponents = {}

    def parse(self):
        poly = self.expr()
        if self.toks.peek() is not None:
            raise ExpressionSyntaxError("unexpected trailing input", self.toks.pos)
        return poly

    def expr(self):
        """Sum the terms' coefficients into one dict and build the
        polynomial once (adding polynomial by polynomial is quadratic)."""
        field = self.field
        acc = {}
        negate = self.toks.take("-")
        if not negate:
            self.toks.take("+")
        while True:
            for mono, coeff in self.term().items():
                if negate:
                    coeff = field.neg(coeff)
                acc[mono] = field.add(acc.get(mono, field.zero), coeff)
            if self.toks.take("+"):
                negate = False
            elif self.toks.take("-"):
                negate = True
            else:
                return QPolynomial(field, self.nvars, acc)

    def term(self):
        """The terms of one product, as a dict.  Number and variable
        factors multiply into one coefficient and one exponent dict, so a
        product without parentheses builds one monomial; parenthesized
        factors are multiplied as polynomials."""
        field, toks = self.field, self.toks
        coeff = field.one
        exps = {}
        product = None
        while True:
            tok = toks.peek()
            ch = tok[0] if tok is not None else ""
            if ch.isdigit():
                coeff = field.mul(coeff, self.coefficient())
            elif ch.isalpha() or ch == "_":
                i, e = self.variable()
                exps[i] = exps[i] + e if i in exps else e
            else:
                inner = self.factor()
                product = inner if product is None else product * inner
            if not toks.take("*"):
                break
        if coeff == field.zero:
            return {}
        if product is None:
            return {Monomial.make(exps.items()): coeff}
        if exps or coeff != field.one:
            product = QPolynomial(field, self.nvars,
                                  {Monomial.make(exps.items()): coeff}) * product
        return product.terms

    def factor(self):
        """A parenthesized expression, optionally raised to an exponent."""
        tok = self.toks.peek()
        if tok is None:
            raise ExpressionSyntaxError("unexpected end of input", self.toks.pos)
        if tok != "(":
            raise ExpressionSyntaxError("unexpected character %r" % tok[0],
                                        self.toks.pos)
        if self.depth == MAX_NESTING:
            raise ExpressionSyntaxError("parentheses nested deeper than %d"
                                        % MAX_NESTING, self.toks.pos)
        self.toks.expect("(")
        self.depth += 1
        inner = self.expr()
        self.depth -= 1
        self.toks.expect(")")
        if self.toks.take("^"):
            return fractional_power(inner, self.exponent())
        return inner

    def variable(self):
        """(index, exponent) of a variable factor."""
        name = self.toks.name()
        if name not in self.index:
            raise UnknownVariable("unknown variable %r at offset %d"
                                  % (name, self.toks.span(self.toks.i - 1)[0]))
        exponent = self.exponent() if self.toks.take("^") else _UNIT
        return self.index[name], exponent

    def coefficient(self):
        field = self.field
        num, den = self.toks.ratio()
        if den == 1:
            return field.coerce(num)
        if field.characteristic == 0:
            return Fraction(num, den)
        return field.div(field.coerce(num), field.coerce(den))

    def exponent(self):
        """The exponent after '^', one Fraction per distinct value."""
        toks = self.toks
        if toks.take("("):
            sign = -1 if toks.take("-") else 1
            num, den = toks.ratio()
            toks.expect(")")
            num *= sign
        else:
            num, den = toks.ratio()
        e = self.exponents.get((num, den))
        if e is None:
            e = self.exponents[num, den] = Fraction(num, den)
        return e


def parse(text, field, varnames):
    """Parse an expression to a canonical polynomial over the given field
    and declared variable universe."""
    return _Parser(text, field, varnames).parse()


def _format_exponent(e):
    if e.denominator == 1 and e >= 0:
        return "^%d" % e
    if e.denominator == 1:
        return "^(%d)" % e
    return "^(%s)" % e


def _coefficient_is_negative(field, c):
    return field.characteristic == 0 and c < 0


def print_poly(f, varnames):
    """Canonical text: descending graded-lex terms, exponent 1 omitted,
    fractional exponents parenthesized.  parse(print(f)) == f."""
    if f.is_zero():
        return "0"
    field = f.field
    varnames = list(varnames)
    parts = []
    for idx, (mono, coeff) in enumerate(f.sorted_terms()):
        negative = _coefficient_is_negative(field, coeff)
        magnitude = field.neg(coeff) if negative else coeff
        factors = []
        if magnitude != field.one or not mono.exps:
            factors.append(field.format(magnitude))
        for i, e in mono.exps:
            name = varnames[i]
            factors.append(name if e == 1 else name + _format_exponent(e))
        body = "*".join(factors)
        if idx == 0:
            parts.append(("-" if negative else "") + body)
        else:
            parts.append(("- " if negative else "+ ") + body)
    return " ".join(parts)


def to_term_list(f, varnames):
    """JSON term-list form: [{"coeff": str, "exps": {var: "a/b"}}] in
    canonical term order."""
    varnames = list(varnames)
    out = []
    for mono, coeff in f.sorted_terms():
        out.append({
            "coeff": f.field.format(coeff),
            "exps": {varnames[i]: str(e) for i, e in mono.exps},
        })
    return out


def from_term_list(data, field, varnames):
    """Inverse of to_term_list (bit-exact round trip)."""
    index = {name: i for i, name in enumerate(varnames)}
    pairs = []
    for entry in data:
        mono = Monomial.make(
            (index[name], Fraction(e)) for name, e in entry["exps"].items())
        pairs.append((mono, field.parse(entry["coeff"])))
    return QPolynomial.from_terms(field, len(list(varnames)), pairs)
