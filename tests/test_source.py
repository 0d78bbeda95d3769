"""Rules about the library's source text, checked on its syntax trees."""

import ast
import os

import dgla

SRC = os.path.dirname(os.path.abspath(dgla.__file__))


def _true_divisions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno


def _integer_literal(node):
    """An int literal, a negated one, or a conditional choosing between such."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _integer_literal(node.operand)
    if isinstance(node, ast.IfExp):
        return _integer_literal(node.body) and _integer_literal(node.orelse)
    return isinstance(node, ast.Constant) and type(node.value) is int


def _integral_fractions(tree):
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "Fraction"
            and len(node.args) == 1
            and not node.keywords
            and _integer_literal(node.args[0])
        ):
            yield node.lineno


def _scan(find):
    """The name:line of every node ``find`` yields in the library's modules."""
    found = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                tree = ast.parse(fh.read(), name)
            found += ["%s:%d" % (name, line) for line in find(tree)]
    return found


def test_no_true_division_in_the_library():
    # exact arithmetic: '/' on two ints makes a float, so coefficients may be
    # ints only while no module divides with it
    assert _scan(_true_divisions) == []


def test_no_integral_fraction_literal_in_the_library():
    # a unit or sign is the int 1 or -1: a coefficient is a Fraction only
    # where there is a denominator, so Fraction(1, 2) stays and Fraction(1) goes
    assert _scan(_integral_fractions) == []


def test_the_scan_sees_both_forms_of_true_division():
    tree = ast.parse("a = b / c\na /= 2\nd = b // c\ne = 'x/y'\n")
    assert sorted(_true_divisions(tree)) == [1, 2]


def test_the_scan_sees_integral_fraction_literals():
    source = [
        "a = Fraction(1)",
        "b = Fraction(-1 if odd else 1)",
        "c = fractions.Fraction(0)",
        "d = Fraction(1 if odd else -(2))",
        "e = Fraction(1, 2)",
        "f = Fraction(-1, 12)",
        "g = Fraction(x)",
        "h = Fraction(1 if odd else x)",
        "i = Fraction('1')",
        "j = Fraction(1.5)",
        "k = exact(1)",
    ]
    tree = ast.parse("\n".join(source))
    assert sorted(_integral_fractions(tree)) == [1, 2, 3, 4]
