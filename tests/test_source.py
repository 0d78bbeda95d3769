"""Rules about the library's source text, checked on its syntax trees."""

import ast
import os

import dgla

SRC = os.path.dirname(os.path.abspath(dgla.__file__))


def _true_divisions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno


def test_no_true_division_in_the_library():
    # exact arithmetic: '/' on two ints makes a float, so coefficients may be
    # ints only while no module divides with it
    found = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                tree = ast.parse(fh.read(), name)
            found += ["%s:%d" % (name, line) for line in _true_divisions(tree)]
    assert found == []


def test_the_scan_sees_both_forms_of_true_division():
    tree = ast.parse("a = b / c\na /= 2\nd = b // c\ne = 'x/y'\n")
    assert sorted(_true_divisions(tree)) == [1, 2]
