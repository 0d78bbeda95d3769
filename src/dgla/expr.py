"""The Lie expression text grammar.

    expr     := term (('+'|'-') term)*
    term     := [rational '*'] tree
    tree     := ident | '[' tree ',' tree ']'
    rational := int ['/' posint]

Whitespace is insignificant between tokens.  A ``rational`` is one token,
with no whitespace inside it, and its digits are the ASCII 0-9; a JSON
rational string is read by the same production (``parse_rational``), so
both accept exactly the same text.  ``ident`` is [A-Za-z_][A-Za-z0-9_']*; the
apostrophe supports deterministic renaming in pushouts.  There is no
leading-sign production: a leading negative term must spell its coefficient
(``-1*a``), and that is what the serializer emits.

The AST is a list of (coefficient, tree) terms, where a coefficient is an
``int`` when it is integral and a ``Fraction`` otherwise (``linalg.exact``),
and a tree is either a generator name (str) or a pair (left_tree,
right_tree).
"""

from fractions import Fraction

from .errors import GrammarError
from .linalg import exact

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_DIGITS = set("0123456789")
_IDENT_CONT = _IDENT_START | _DIGITS | {"'"}

# Deepest bracket nesting accepted; far below the interpreter's recursion
# limit, so a malformed input is a GrammarError and never a RecursionError.
MAX_NESTING = 256


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message):
        raise GrammarError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def peek(self):
        self.skip_ws()
        if self.pos < len(self.text):
            return self.text[self.pos]
        return ""

    def expect(self, ch):
        if self.peek() != ch:
            self.error("expected %r" % ch)
        self.pos += 1

    def parse_ident(self):
        self.skip_ws()
        start = self.pos
        if self.pos >= len(self.text) or self.text[self.pos] not in _IDENT_START:
            self.error("expected identifier")
        self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos] in _IDENT_CONT:
            self.pos += 1
        return self.text[start : self.pos]

    def parse_digits(self):
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == start:
            self.error("expected digits")
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # past the interpreter's limit on digits
            self.error("too many digits")

    def parse_rational(self):
        """The ``rational`` token at the current position."""
        neg = self.text.startswith("-", self.pos)
        if neg:
            self.pos += 1
        num = self.parse_digits()
        den = 1
        if self.text.startswith("/", self.pos):
            self.pos += 1
            den = self.parse_digits()
            if den == 0:
                self.error("zero denominator")
        return exact(Fraction(-num if neg else num, den))

    def parse_tree(self):
        c = self.peek()
        if c == "[":
            if self.depth == MAX_NESTING:
                self.error("brackets nested deeper than %d" % MAX_NESTING)
            self.pos += 1
            self.depth += 1
            left = self.parse_tree()
            self.expect(",")
            right = self.parse_tree()
            self.expect("]")
            self.depth -= 1
            return (left, right)
        return self.parse_ident()

    def at_rational(self):
        c = self.peek()
        return c == "-" or c in _DIGITS

    def parse_term(self):
        if self.at_rational():
            coeff = self.parse_rational()
            self.expect("*")
        else:
            coeff = 1
        return coeff, self.parse_tree()

    def parse_expr(self):
        terms = [self.parse_term()]
        while True:
            c = self.peek()
            if c == "+":
                self.pos += 1
                terms.append(self.parse_term())
            elif c == "-":
                self.pos += 1
                coeff, tree = self.parse_term()
                terms.append((-coeff, tree))
            else:
                break
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("unexpected trailing input")
        return terms


def parse_expression(text):
    """Parse an expression string into AST terms [(coefficient, tree), ...]."""
    return _Parser(text).parse_expr()


def parse_rational(text):
    """The whole of ``text`` read as one ``rational`` token."""
    p = _Parser(text)
    q = p.parse_rational()
    if p.pos != len(text):
        p.error("unexpected trailing input")
    return q


def tree_to_str(tree):
    if isinstance(tree, str):
        return tree
    return "[%s,%s]" % (tree_to_str(tree[0]), tree_to_str(tree[1]))


def rename_tree(tree, mapping):
    """The bracket tree with each generator name replaced by mapping[name]."""
    if isinstance(tree, str):
        return mapping[tree]
    return (rename_tree(tree[0], mapping), rename_tree(tree[1], mapping))


def rational_str(q):
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def terms_to_str(terms):
    """Serialize AST terms; None for the empty sum (zero has no expression)."""
    parts = []
    for i, (coeff, tree) in enumerate(terms):
        if coeff == 0:
            continue
        t = tree_to_str(tree)
        if i == 0 or not parts:
            if coeff == 1:
                parts.append(t)
            else:
                parts.append("%s*%s" % (rational_str(coeff), t))
        elif coeff == 1:
            parts.append("+%s" % t)
        elif coeff == -1:
            parts.append("-%s" % t)
        elif coeff > 0:
            parts.append("+%s*%s" % (rational_str(coeff), t))
        else:
            parts.append("-%s*%s" % (rational_str(-coeff), t))
    if not parts:
        return None
    return "".join(parts)


def tree_generators(tree, out=None):
    """Set of generator names appearing in a bracket tree."""
    if out is None:
        out = set()
    if isinstance(tree, str):
        out.add(tree)
    else:
        tree_generators(tree[0], out)
        tree_generators(tree[1], out)
    return out
