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


def _window_definitions(tree):
    """Definitions of d_matrix or d_apply outside the DegreeWindow class."""
    owners = [(tree, None)] + [
        (node, node.name) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    ]
    for owner, name in owners:
        for node in owner.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in ("d_matrix", "d_apply")
                and name != "DegreeWindow"
            ):
                yield node.lineno


def _zero_below_assignments(tree):
    """Assignments of ``zero_below`` to an object other than ``self``."""
    for node in ast.walk(tree):
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for t in targets:
            if (
                isinstance(t, ast.Attribute)
                and t.attr == "zero_below"
                and not (isinstance(t.value, ast.Name) and t.value.id == "self")
            ):
                yield node.lineno


def _named(node, name):
    """node is the name ``name``, bare or as an attribute."""
    return name in (getattr(node, "id", None), getattr(node, "attr", None))


def _scopes(match):
    """A finder of the qualified name of the function around each node that ``match``es."""

    def find(node, scope=()):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from find(child, scope + (child.name,))
                continue
            if match(child):
                yield ".".join(scope)
            yield from find(child, scope)

    return find


def _callers(callee):
    """A finder of the qualified name of the function around each call of ``callee``."""
    return _scopes(lambda node: isinstance(node, ast.Call) and _named(node.func, callee))


def _function(tree, qualname):
    """The definition of the function (or class) named ``qualname`` in a module."""
    node = tree
    for name in qualname.split("."):
        node = next(child for child in node.body
                    if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and child.name == name)
    return node


def _callees(node):
    """The sorted names of the functions that the code under ``node`` calls."""
    return sorted({getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                   for call in ast.walk(node) if isinstance(call, ast.Call)})


def _raisers(exc):
    """A finder of the qualified name of the function around each ``raise exc``."""

    def match(node):
        if not isinstance(node, ast.Raise) or node.exc is None:
            return False
        return _named(node.exc.func if isinstance(node.exc, ast.Call) else node.exc, exc)

    return _scopes(match)


def _scan(find):
    """The name:place of every place (a line or a function) ``find`` yields in the library."""
    found = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                tree = ast.parse(fh.read(), name)
            found += ["%s:%s" % (name, place) for place in find(tree)]
    return found


def test_no_true_division_in_the_library():
    # exact arithmetic: '/' on two ints makes a float, so coefficients may be
    # ints only while no module divides with it
    assert _scan(_true_divisions) == []


def test_no_integral_fraction_literal_in_the_library():
    # a unit or sign is the int 1 or -1: a coefficient is a Fraction only
    # where there is a denominator, so Fraction(1, 2) stays and Fraction(1) goes
    assert _scan(_integral_fractions) == []


def test_only_the_degree_window_reads_differential_blocks():
    # one window for every complex: dg Lie slices, chain slices and CE
    # chains all inherit d_matrix and d_apply from graded.DegreeWindow
    assert _scan(_window_definitions) == []


def test_builders_pass_zero_below_to_the_constructor():
    # a slice's zero_below is data of its builder, not set on a finished slice
    assert _scan(_zero_below_assignments) == []


def test_each_derivation_has_one_leibniz_extension():
    # a derivation is evaluated only through the one extension its evaluator
    # builds; the other extension is the presentation's differential
    assert _scan(_callers("leibniz_extension")) == [
        "derivations.py:_reached_add",
        "presentation.py:DgLaPresentation.__init__",
    ]


def test_every_derivation_evaluation_has_one_entry_point():
    # eval_at adds into a fresh sum, add_eval_at into the caller's, through
    # one evaluator that adds memoized tree images and builds no element
    assert _scan(_callers("_reached_add")) == [
        "derivations.py:Derivation.add_eval_at",
        "derivations.py:FDerivation.eval_at",
    ]
    with open(os.path.join(SRC, "derivations.py")) as fh:
        tree = ast.parse(fh.read())
    assert _callees(_function(tree, "_reached_add")) == [
        "accumulate", "leibniz_extension", "reach", "terms",
    ]


def test_only_the_presentation_reads_letter_masks():
    # one reach filter: derivations, the differential and morphisms split an
    # element's terms through DgLaPresentation.reach (and value masks through
    # letters), never through a filter of their own over the mask list
    assert _scan(_callers("letter_masks")) == [
        "presentation.py:DgLaPresentation.letters",
        "presentation.py:DgLaPresentation.reach",
    ]


def test_generators_are_renamed_only_by_the_pushout():
    # gluing is one construction: a boundary connected sum is the pushout
    # along the empty sub, and every factor map is an inclusion morphism
    assert _scan(_callers("fresh_names")) == ["presentation.py:pushout"]
    # rename_tree's own recursion calls it once per side of a bracket
    assert _scan(_callers("rename_tree")) == [
        "expr.py:rename_tree",
        "expr.py:rename_tree",
        "presentation.py:pushout",
    ]


def test_only_cold_brackets_read_tensors():
    # every expression reaches its normal form through the bracket table: a
    # tensor is expanded and solved only for a basis bracket the table lacks
    assert _scan(_callers("expand_tree")) == [
        "freelie.py:expand_tree",
        "freelie.py:expand_tree",
        "freelie.py:BasisMemo.product",
    ]
    assert _scan(_callers("solve_against_basis")) == [
        "presentation.py:DgLaPresentation.basis_bracket",
    ]


def test_only_the_series_loop_certifies_nilpotency():
    # e(theta) and both gauge actions sum one exponential series, whose
    # loop alone caps its nonzero terms
    assert _scan(_raisers("NotNilpotent")) == ["expmc.py:_series"]


def test_the_scan_names_each_function_that_raises_an_error():
    source = [
        "def exp(theta):",
        "    raise NotNilpotent('theta')",
        "class Gauge:",
        "    def act(self):",
        "        def step(y):",
        "            raise errors.NotNilpotent",
        "        return step",
        "def made_not_raised():",
        "    return NotNilpotent('kept')",
        "def other():",
        "    raise ValueError('NotNilpotent')",
        "def reraise():",
        "    raise",
    ]
    tree = ast.parse("\n".join(source))
    assert list(_raisers("NotNilpotent")(tree)) == ["exp", "Gauge.act.step"]


def test_the_scan_sees_calls_in_every_scope():
    source = [
        "x = f(1)",
        "def g():",
        "    return [f(y) for y in range(2)]",
        "class C:",
        "    def m(self):",
        "        def inner():",
        "            return mod.f(0)",
        "        return h(f)",
    ]
    tree = ast.parse("\n".join(source))
    assert list(_callers("f")(tree)) == ["", "g", "C.m.inner"]


def test_the_scan_names_each_method_that_reads_a_tensor():
    # a normal form that expands and solves its own tensor is found
    source = [
        "class DgLaPresentation:",
        "    def normal_form(self, pairs):",
        "        tensor = {}",
        "        for c, t in pairs:",
        "            for w, x in freelie.expand_tree(t, self._deg_list).items():",
        "                tensor[w] = tensor.get(w, 0) + c * x",
        "        return freelie.solve_against_basis(self.lie_basis(d), tensor)",
        "    def basis_bracket(self, b1, b2):",
        "        return solve_against_basis(self.lie_basis(d), self._bases.product(b1, b2))",
    ]
    tree = ast.parse("\n".join(source))
    assert list(_callers("expand_tree")(tree)) == ["DgLaPresentation.normal_form"]
    assert list(_callers("solve_against_basis")(tree)) == [
        "DgLaPresentation.normal_form",
        "DgLaPresentation.basis_bracket",
    ]


def test_the_scan_lists_the_calls_of_one_function():
    source = [
        "def f(x):",
        "    return g(x)",
        "class C:",
        "    def m(self, out):",
        "        for y in self.items():",
        "            out.add(h(y), [k(z) for z in y])",
        "        return lambda: f(out)",
    ]
    tree = ast.parse("\n".join(source))
    assert _callees(_function(tree, "f")) == ["g"]
    assert _callees(_function(tree, "C.m")) == ["add", "f", "h", "items", "k"]


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


def test_the_scan_sees_window_methods_outside_the_window_class():
    source = [
        "class DegreeWindow:",
        "    def d_matrix(self, d): pass",
        "    def d_apply(self, d, v): pass",
        "class CESlice(ChainComplexSlice):",
        "    def d_matrix(self, k): pass",
        "    def dim(self, k): pass",
        "def d_apply(slc, d, v): pass",
        "class Outer:",
        "    class Inner:",
        "        def d_matrix(self, d): pass",
    ]
    tree = ast.parse("\n".join(source))
    assert sorted(_window_definitions(tree)) == [5, 7, 10]


def test_the_scan_sees_zero_below_set_on_a_finished_slice():
    source = [
        "self.zero_below = zero_below",
        "out.zero_below = True",
        "g.zero_below = L.zero_below = False",
        "zero_below = a and b",
        "out.zero_below &= flag",
        "x = DgLieSlice(w, labels, zero_below=True)",
    ]
    tree = ast.parse("\n".join(source))
    assert sorted(_zero_below_assignments(tree)) == [2, 3, 3, 5]
