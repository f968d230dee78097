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
than MAX_NESTING deep (the parser recurses once per level).  Fractional
powers of parenthesized expressions go through charp.fractional_power and
may raise CompositionNotPolynomial.  print emits the canonical form
(descending graded-lex terms) and parse(print(f)) == f.
"""

from fractions import Fraction

from .charp import fractional_power
from .errors import ExpressionSyntaxError, UnknownVariable
from .poly import QPolynomial

MAX_NESTING = 100


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take(self, char):
        if self.peek() == char:
            self.pos += 1
            return True
        return False

    def expect(self, char):
        if not self.take(char):
            raise ExpressionSyntaxError("expected %r" % char, self.pos)

    def integer(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ExpressionSyntaxError("expected an integer", start)
        return int(self.text[start:self.pos])

    def name(self):
        self.skip_ws()
        start = self.pos
        while (self.pos < len(self.text)
               and (self.text[self.pos].isalnum() or self.text[self.pos] == "_")):
            self.pos += 1
        return self.text[start:self.pos]


class _Parser:
    def __init__(self, text, field, varnames):
        self.toks = _Tokens(text)
        self.field = field
        self.varnames = list(varnames)
        self.index = {name: i for i, name in enumerate(self.varnames)}
        self.nvars = len(self.varnames)
        self.depth = 0

    def parse(self):
        poly = self.expr()
        self.toks.skip_ws()
        if self.toks.pos != len(self.toks.text):
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
            for mono, coeff in self.term().terms.items():
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
        poly = self.factor()
        while self.toks.take("*"):
            poly = poly * self.factor()
        return poly

    def factor(self):
        ch = self.toks.peek()
        if ch is None:
            raise ExpressionSyntaxError("unexpected end of input", self.toks.pos)
        if ch.isdigit():
            return self.coefficient()
        if ch == "(":
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
        if ch.isalpha() or ch == "_":
            pos = self.toks.pos
            name = self.toks.name()
            if name not in self.index:
                raise UnknownVariable("unknown variable %r at offset %d"
                                      % (name, pos))
            exponent = Fraction(1)
            if self.toks.take("^"):
                exponent = self.exponent()
            return QPolynomial.variable(self.field, self.nvars,
                                        self.index[name], exponent)
        raise ExpressionSyntaxError("unexpected character %r" % ch, self.toks.pos)

    def coefficient(self):
        num = self.toks.integer()
        if self._slash_ahead():
            self.toks.expect("/")
            den = self.toks.integer()
            if den == 0:
                raise ExpressionSyntaxError("zero denominator", self.toks.pos)
            if self.field.characteristic == 0:
                value = Fraction(num, den)
            else:
                value = self.field.div(self.field.coerce(num),
                                       self.field.coerce(den))
            return QPolynomial.constant(self.field, self.nvars, value)
        return QPolynomial.constant(self.field, self.nvars, num)

    def _slash_ahead(self):
        return self.toks.peek() == "/"

    def exponent(self):
        if self.toks.take("("):
            sign = -1 if self.toks.take("-") else 1
            num = self.toks.integer()
            den = 1
            if self.toks.take("/"):
                den = self.toks.integer()
                if den == 0:
                    raise ExpressionSyntaxError("zero denominator", self.toks.pos)
            self.toks.expect(")")
            return Fraction(sign * num, den)
        num = self.toks.integer()
        if self._slash_ahead():
            self.toks.expect("/")
            den = self.toks.integer()
            if den == 0:
                raise ExpressionSyntaxError("zero denominator", self.toks.pos)
            return Fraction(num, den)
        return Fraction(num)


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
    from .poly import Monomial
    index = {name: i for i, name in enumerate(varnames)}
    pairs = []
    for entry in data:
        mono = Monomial.make(
            (index[name], Fraction(e)) for name, e in entry["exps"].items())
        pairs.append((mono, field.parse(entry["coeff"])))
    return QPolynomial.from_terms(field, len(list(varnames)), pairs)
