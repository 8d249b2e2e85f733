"""A small expression language over named forms and series operations.

Grammar (whitespace insensitive)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' INT)?
    atom   := INT | 'q' | NAME | 'f(' INT ',' INT ',' INT ')'
            | 'basis:k=' INT ',m=' INT
            | 'delta(' expr ')' | 'antiderivative(' expr [',' INT] ')'
            | 'dilate(' expr ',' INT ')' | '(' expr ')'

NAME covers the classical forms (E2, E4, E6, Delta, j, theta, E24, F4a, F4b,
F6, LS8, Triple8, HK_num1, HK_num2) and the half-integral ones (g0, g1, g2,
h0, f4a, f4b, f6half).  An expression has no static valuation, so evaluation
measures what its inverses lose: one pass at the requested window, and if that
comes up d exponents short, one pass widened by d.  The loss is fixed by the
valuations of the subexpressions, not by the working window, so a second
shortfall is a :class:`PrecisionError`.
"""

from __future__ import annotations

import re

from .series import QSeries, UsageError, linear_combine
from .forms import FormName, named_form, quasi_monomial
from .halfint import PLUS_FORM_NAMES, named_plus_form, plus_basis


class ParseError(UsageError):
    """Raised with a position when the expression cannot be parsed."""


_TOKEN_RE = re.compile(
    r"""
    (?P<basis>basis:k=(?P<bk>-?\d+),m=(?P<bm>-?\d+))
  | (?P<number>\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
  | (?P<ws>\s+)
""",
    re.VERBOSE,
)

_FORM_NAMES = {f.value for f in FormName}


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"cannot read expression at position {pos}: {text[pos:pos+12]!r}")
        if m.lastgroup != "ws":
            if m.lastgroup == "basis":
                tokens.append(("basis", (int(m.group("bk")), int(m.group("bm"))), pos))
            elif m.lastgroup == "number":
                tokens.append(("number", int(m.group("number")), pos))
            elif m.lastgroup == "name":
                tokens.append(("name", m.group("name"), pos))
            else:
                tokens.append(("op", m.group("op"), pos))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r} at position {pos}")

    def parse(self):
        node = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input at position {pos}")
        return node

    def expr(self):
        return self._run(self.term, "+-", "sum")

    def term(self):
        return self._run(self.unary, "*/", "product")

    def _run(self, operand, ops: str, kind: str):
        """operand (op operand)* as the operand alone, or as one node
        (kind, first, ((op, operand), ...)) that evaluates left to right."""
        first, rest = operand(), []
        while True:
            tok, val, _ = self.peek()
            if tok != "op" or val not in ops:
                return (kind, first, tuple(rest)) if rest else first
            self.next()
            rest.append((val, operand()))

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return ("neg", self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            node = ("pow", node, self._signed_int())
        return node

    def _signed_int(self) -> int:
        kind, val, pos = self.next()
        sign = 1
        if kind == "op" and val == "-":
            sign = -1
            kind, val, pos = self.next()
        if kind != "number":
            raise ParseError(f"expected integer at position {pos}")
        return sign * val

    def atom(self):
        kind, val, pos = self.next()
        if kind == "number":
            return ("int", val)
        if kind == "basis":
            return ("basis", val)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "name":
            if val == "q":
                return ("q",)
            if val == "f":
                self.expect_op("(")
                a = self._signed_int()
                self.expect_op(",")
                b = self._signed_int()
                self.expect_op(",")
                c = self._signed_int()
                self.expect_op(")")
                return ("monomial", a, b, c)
            if val in ("delta", "antiderivative", "dilate"):
                self.expect_op("(")
                inner = self.expr()
                arg = None
                k2, v2, _ = self.peek()
                if val != "delta" and k2 == "op" and v2 == ",":
                    self.next()
                    arg = self._signed_int()
                self.expect_op(")")
                return (val, inner, arg)
            if val in _FORM_NAMES or val in PLUS_FORM_NAMES:
                return ("form", val)
            raise ParseError(f"unknown name {val!r} at position {pos}")
        raise ParseError(f"unexpected token at position {pos}")


def parse_expression(text: str):
    return _Parser(text).parse()


def _eval(node, work: int) -> QSeries:
    op = node[0]
    if op == "int":
        return QSeries(0, [node[1]] + [0] * max(work, 0))
    if op == "q":
        return QSeries.monomial(1, 1, max(work, 1))
    if op == "form":
        name = node[1]
        if name in PLUS_FORM_NAMES:
            return named_plus_form(name, work).series
        return named_form(name, work)
    if op == "monomial":
        return quasi_monomial(*node[1:4], work)
    if op == "basis":
        k, m = node[1]
        return plus_basis(k, [m], work)[m].series
    if op == "neg":
        return -_eval(node[1], work)
    if op == "sum":
        terms = [(1, node[1])] + [(1 if o == "+" else -1, t) for o, t in node[2]]
        return linear_combine([(sign, _eval(t, work)) for sign, t in terms])
    if op == "product":
        out = _eval(node[1], work)
        for o, factor in node[2]:
            out = out * (_eval(factor, work) if o == "*" else _reciprocal(factor, work))
        return out
    if op == "pow":
        return _eval(node[1], work) ** node[2]
    if op == "delta":
        return _eval(node[1], work).delta()
    if op == "antiderivative":
        order = 1 if node[2] is None else node[2]
        return _eval(node[1], work).antiderivative(order)
    if op == "dilate":
        if node[2] is None:
            raise UsageError("dilate needs a positive integer argument")
        return _eval(node[1], work).substitute_power(node[2])
    raise UsageError(f"unhandled node {op!r}")


def _reciprocal(node, work: int) -> QSeries:
    """1/node; E4^k and E6^k (k >= 1) are the kept monomial inverses, on the
    window [0, work] of the inverse of their expansion."""
    base, k = (node[1], node[2]) if node[0] == "pow" else (node, 1)
    if base in (("form", "E4"), ("form", "E6")) and k >= 1:
        return quasi_monomial(0, -k, 0, work) if base[1] == "E4" else quasi_monomial(0, 0, -k, work)
    return _eval(node, work).inverse()


def _trim_trailing_zeros(f: QSeries) -> QSeries:
    hi = f.prec
    while hi > f.lead and not f.nums[hi - f.lead]:
        hi -= 1
    return f.truncate(hi)


def evaluate(text: str, prec: int, trim: bool = False) -> QSeries:
    """Evaluate an expression through q^prec (PrecisionError when out of reach)."""
    try:  # the parser and _eval recurse per level of nesting
        ast = parse_expression(text)
        out = _eval(ast, prec)
        if out.prec < prec:
            # widen by the shortfall; the q leaf works through at least q^1
            out = _eval(ast, max(prec, 1) + prec - out.prec)
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
    result = out.truncate(prec)
    return _trim_trailing_zeros(result) if trim else result


def normalize(text: str) -> str:
    """Whitespace-insensitive canonical key for caching."""
    return re.sub(r"\s+", "", text)
