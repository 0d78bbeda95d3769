"""Rules about the library's source text, checked on its syntax trees."""

import ast
import os
import re

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


def _foreign_store(node):
    """node writes an attribute of an object other than the name ``self``.

    A store (or del) target that is an attribute, or a subscript of one
    (``p.subalgebras[k] = v``), of anything but ``self``; or a ``setattr``
    or ``delattr`` call on anything but ``self``.  Assignments of every
    form (plain, chained, augmented, annotated, tuple) mark their targets
    so.  A subscript of a local name (``memo[k] = v``) is not an attribute.
    """
    if isinstance(node, ast.Call):
        return (any(_named(node.func, f) for f in ("setattr", "delattr"))
                and not (node.args and _named(node.args[0], "self")))
    if not isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del)):
        return False
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and not (
        isinstance(node.value, ast.Name) and node.value.id == "self"
    )


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


def _self_calling_nested(tree):
    """The qualified name of each function defined in a function that calls itself by name."""

    def find(node, scope=(), in_function=False):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from find(child, scope, in_function)
                continue
            is_function = not isinstance(child, ast.ClassDef)
            if in_function and is_function and any(
                isinstance(call, ast.Call) and getattr(call.func, "id", None) == child.name
                for call in ast.walk(child)
            ):
                yield ".".join(scope + (child.name,))
            yield from find(child, scope + (child.name,), in_function or is_function)

    return find(tree)


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


def test_only_an_objects_own_methods_write_its_attributes():
    # values are built whole: every field is given to its constructor, and a
    # memo is made only by a method of the object that holds it
    assert _scan(_scopes(_foreign_store)) == []


def test_derivations_are_checked_only_where_they_come_from_outside():
    # the public constructor normalizes and checks input and values from
    # another presentation; the derivations module builds every value it
    # has just computed with Derivation._trusted
    assert _scan(_callers("Derivation")) == [
        "derivations.py:extend_by_zero",
        "derivations.py:glue_derivations",
        "io.py:load_derivation",
        "models.py:xi_extend",
    ]


def test_maps_on_generators_are_admitted_by_one_rule():
    # the differential, derivations, f-derivations and morphisms read their
    # values through DgLaPresentation.values_on, the one place that checks a
    # value's degree against its generator's plus a shift; the other readers
    # of an input value at its pointer are sub elements and a homotopy's h
    # parts, which are keyed by powers of t, not by generators
    assert _scan(_callers("normal_form_at")) == [
        "io.py:load_homotopy.part",
        "presentation.py:DgLaPresentation._normalize_sub",
        "presentation.py:DgLaPresentation.values_on",
    ]
    assert _scan(_callers("values_on")) == [
        "derivations.py:Derivation.__init__",
        "derivations.py:FDerivation.__init__",
        "morphisms.py:GeneratorMorphism.__init__",
        "presentation.py:DgLaPresentation.__init__",
    ]


def test_each_derivation_has_one_leibniz_extension():
    # a derivation or f-derivation is evaluated only through the one
    # extension it makes for itself; the other is the presentation's differential
    assert _scan(_callers("leibniz_extension")) == [
        "derivations.py:Derivation._extension",
        "derivations.py:FDerivation._extension",
        "presentation.py:DgLaPresentation.__init__",
    ]


def test_every_derivation_evaluation_has_one_entry_point():
    # eval_at adds into a fresh sum, add_eval_at into the caller's, and a
    # bracket each of its two evaluations per generator into its Hom vector,
    # through one evaluator that sums memoized tree images over a term list
    # in place: it builds no element, and per term it calls only the tree
    # memo (no accumulate, no split of the element)
    assert _scan(_callers("_reached_add")) == [
        "derivations.py:Derivation.add_eval_at",
        "derivations.py:_bracket_slots",
        "derivations.py:_bracket_slots",
        "derivations.py:FDerivation.eval_at",
    ]
    with open(os.path.join(SRC, "derivations.py")) as fh:
        tree = ast.parse(fh.read())
    assert _callees(_function(tree, "_reached_add")) == ["_extension", "get", "items", "tree"]


def test_only_the_presentation_reads_letter_masks():
    # one reach filter: the differential and morphisms split an element's
    # terms through DgLaPresentation.reach, derivations read the masks that
    # term_list lists with each term, and value masks come from letters;
    # none reads the mask list of its own
    assert _scan(_callers("letter_masks")) == [
        "presentation.py:DgLaPresentation.letters",
        "presentation.py:DgLaPresentation.reach",
        "presentation.py:DgLaPresentation.term_list",
    ]


def test_values_gain_no_memo():
    # a memo is owned by the computation that reads it: a derivation slice
    # keeps its basis derivations' term lists, so neither a derivation nor
    # an element gains a field for them (and neither has a __dict__); README
    # lists every memo slot a derivation has beside its data, and no other
    from dgla.derivations import Derivation
    from dgla.presentation import LieElement

    data = {"ambient", "rel", "degree", "values", "_mask"}
    assert set(Derivation.__slots__) <= data | {"_ext", "_base", "_brackets"}
    with open(os.path.join(SRC, "..", "..", "README.md")) as fh:
        readme = fh.read()
    listed = readme[readme.index("`Derivation._"):readme.index("`FDerivation._ext`")]
    assert set(re.findall(r"`(?:Derivation\.)?(_\w+)`", listed)) == set(Derivation.__slots__) - data
    assert set(LieElement.__slots__) <= {"presentation", "degree", "coords"}
    for cls in (Derivation, LieElement):
        assert all("__slots__" in vars(base) for base in cls.__mro__[:-1])
        assert "__dict__" not in cls.__slots__


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


def test_trees_and_words_are_walked_by_their_engines():
    # a map on bracket trees is a TreeMap, CE words grow one degree at a
    # time, BCH words one block at a time, and free-Lie tensors expand in
    # freelie: no nested function recurses
    assert _scan(_self_calling_nested) == []


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


def test_the_scan_names_each_nested_function_that_calls_itself():
    source = [
        "def top(n):",
        "    return top(n - 1)",
        "class C:",
        "    def method(self):",
        "        return self.method()",
        "    def walker(self):",
        "        def mask(t):",
        "            return mask(t[0]) | mask(t[1])",
        "        return mask",
        "def outer():",
        "    def rec(k):",
        "        def deeper(j):",
        "            return deeper(j) + outer()",
        "        return [rec(k - 1) for _ in range(k)]",
        "    def once(k):",
        "        return rec(k)",
        "    return once",
    ]
    tree = ast.parse("\n".join(source))
    assert list(_self_calling_nested(tree)) == [
        "C.walker.mask", "outer.rec", "outer.rec.deeper",
    ]


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


def test_the_scan_sees_every_store_on_another_object():
    # one function per form: its name is found once per foreign target
    source = [
        "def plain(out): out.z0 = z0",
        "def chained(a, b): a = b.x = c.y = {}",
        "def augmented(out): out.count += 1",
        "def annotated(out): out.index: dict = {}",
        "def unpacked(out): out.a, (b, out.c) = pair",
        "def starred(out): first, *out.rest = items",
        "def looped(out):",
        "    for out.i in range(2): pass",
        "def with_as(out):",
        "    with f() as out.fh: pass",
        "def through_attribute(p): p.subalgebras[k] = v",
        "def through_self_attribute(self): self.p.subs[k][j] = v",
        "def deleted(out): del out.memo",
        "def set_by_name(out): setattr(out, 'z0', z0)",
        "def del_by_name(out): delattr(out, 'z0')",
        "def nested(th): th._ext.memo = {}",
        "class C:",
        "    def method(self, other):",
        "        self.memo = {}",
        "        other.memo = self.memo",
        "def zero_below_set(out): out.zero_below = True",
        "def zero_below_chained(g, L): g.zero_below = L.zero_below = False",
        "def zero_below_and(out): out.zero_below &= flag",
        # none of these writes another object
        "def own(self): self.memo = {}; self.memo[k] = v; self.x += 1",
        "def local(memo): memo[k] = v; memo[k][j] = w; x, y = pair",
        "def own_by_name(self): setattr(self, 'memo', {})",
        "def reads(out): return out.memo[k], getattr(out, 'z0')",
        "def zero_below_local(a, b): zero_below = a and b",
        "def zero_below_given(w, labels): x = DgLieSlice(w, labels, zero_below=True)",
    ]
    tree = ast.parse("\n".join(source))
    assert list(_scopes(_foreign_store)(tree)) == [
        "plain", "chained", "chained", "augmented", "annotated", "unpacked", "unpacked",
        "starred", "looped", "with_as", "through_attribute", "through_self_attribute",
        "deleted", "set_by_name", "del_by_name", "nested", "C.method",
        "zero_below_set", "zero_below_chained", "zero_below_chained", "zero_below_and",
    ]
