"""Quasi-free dg Lie presentations over Q.

A DgLaPresentation is a finite list of positive-degree generators, a
differential given on generators, and named designated subalgebras (either a
subset of the generators or a list of elements).  Elements are kept in
normal form: sparse rational coordinate vectors in the canonical
super-Lyndon basis of their degree.

Presentations and elements are immutable after construction; the basis,
bracket and tree caches are per-presentation dicts of immutable values
(atomic updates under the GIL), so instances may be shared freely across
threads.
"""

from fractions import Fraction

from . import expr as expr_mod
from . import freelie, linalg
from .errors import (
    IncompatibleSubs,
    InhomogeneousExpression,
    UnknownGenerator,
    UnsupportedSub,
)
from .graded import ChainComplexSlice, GradedBasis


class GeneratorSplit:
    """A designated subalgebra spanned by a subset of the generators."""

    def __init__(self, names):
        self.names = tuple(names)

    def __repr__(self):
        return "GeneratorSplit(%r)" % (self.names,)


class ElementGenerated:
    """A designated subalgebra generated by a list of elements."""

    def __init__(self, elements):
        self.elements = tuple(elements)

    def __repr__(self):
        return "ElementGenerated(<%d elements>)" % len(self.elements)


class LieElement:
    """Degree-homogeneous element in canonical basis coordinates."""

    __slots__ = ("presentation", "degree", "coords")

    def __init__(self, presentation, degree, coords):
        self.presentation = presentation
        self.degree = degree
        self.coords = {i: Fraction(c) for i, c in coords.items() if c}

    def is_zero(self):
        return not self.coords

    def __add__(self, other):
        degree = self._compat(other)
        out = dict(self.coords)
        for i, c in other.coords.items():
            out[i] = out.get(i, Fraction(0)) + c
        return LieElement(self.presentation, degree, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, q):
        q = Fraction(q)
        return LieElement(
            self.presentation, self.degree, {i: c * q for i, c in self.coords.items()}
        )

    def __neg__(self):
        return self.scale(-1)

    def __eq__(self, other):
        if not isinstance(other, LieElement):
            return NotImplemented
        if self.presentation is not other.presentation:
            return False
        if self.is_zero() and other.is_zero():
            return True
        return self.degree == other.degree and self.coords == other.coords

    def __hash__(self):
        # zeros of every degree are equal, so the degree of zero is not hashed
        degree = self.degree if self.coords else None
        return hash((id(self.presentation), degree, tuple(sorted(self.coords.items()))))

    def _compat(self, other):
        """Degree of self + other: zero takes the degree of the other summand."""
        if self.presentation is not other.presentation:
            raise ValueError("elements of different presentations")
        if self.is_zero():
            return other.degree
        if not other.is_zero() and self.degree != other.degree:
            raise InhomogeneousExpression(
                "cannot add degrees %d and %d" % (self.degree, other.degree)
            )
        return self.degree

    def terms(self):
        """AST terms [(coeff, name-tree), ...] in basis order."""
        p = self.presentation
        basis = p.lie_basis(self.degree)
        out = []
        for i in sorted(self.coords):
            out.append((self.coords[i], p.tree_names(basis[i].tree)))
        return out

    def __repr__(self):
        s = expr_mod.terms_to_str(self.terms())
        return "<LieElement deg %d: %s>" % (self.degree, s if s else "0")

    def linear_part(self):
        """Coefficients on single-generator basis elements: name -> Fraction."""
        p = self.presentation
        basis = p.lie_basis(self.degree)
        out = {}
        for i, c in self.coords.items():
            if isinstance(basis[i].tree, int):
                out[p.generators.entries[basis[i].tree][0]] = c
        return out

    def vector(self):
        """Dense coordinate vector in the canonical basis of its degree."""
        n = len(self.presentation.lie_basis(self.degree))
        v = [Fraction(0)] * n
        for i, c in self.coords.items():
            v[i] = c
        return v


class TreeMap:
    """A map given on generators and extended over bracket trees.

    ``leaf(name)`` is the image of a generator and ``node(u, v, f)`` the
    image of the index tree (u, v), where ``f`` maps subtrees.  One image is
    memoized per index tree for the life of the map, so images must be
    immutable.  Calling the map on an element of ``source`` sums the tree
    images over its coordinates, starting from ``zero``.
    """

    __slots__ = ("source", "leaf", "node", "memo")

    def __init__(self, source, leaf, node):
        self.source = source
        self.leaf = leaf
        self.node = node
        self.memo = {}

    def tree(self, itree):
        if isinstance(itree, int):
            return self.leaf(self.source.generators.entries[itree][0])
        got = self.memo.get(itree)
        if got is None:
            got = self.memo[itree] = self.node(itree[0], itree[1], self.tree)
        return got

    def __call__(self, x, zero):
        if x.presentation is not self.source:
            raise ValueError("element not in the map's source presentation")
        out = zero
        basis = self.source.lie_basis(x.degree)
        for i, c in x.coords.items():
            out = out + self.tree(basis[i].tree).scale(c)
        return out


def leibniz_extension(source, target, degree, leaf, along=None):
    """The derivation of a degree with generator values leaf(name), None for 0.

    Extended by th[u,v] = [th u, m v] + (-1)^{degree |u|} [m u, th v], where
    m is the GeneratorMorphism ``along``, or the identity when it is None.
    """
    m = source.tree_element if along is None else along.tree_map.tree
    degrees = source._deg_list

    def value(name):
        got = leaf(name)
        if got is None:
            return target.zero(source.generators.degree(name) + degree)
        return got

    def node(u, v, f):
        sign = -1 if degree * freelie.tree_degree(u, degrees) % 2 else 1
        return target.bracket(f(u), m(v)) + target.bracket(m(u), f(v)).scale(sign)

    return TreeMap(source, value, node)


class DgLaPresentation:
    """A quasi-free dg Lie algebra given on generators.

    ``generators``: list of (name, degree).  ``differential``: dict
    name -> expression string / AST / LieElement (absent means zero).
    ``subalgebras``: dict name -> GeneratorSplit / ElementGenerated, or the
    JSON forms {"generators": [...]}, {"elements": [expr, ...]}.
    Structural problems (unknown names, malformed expressions) raise at
    construction; mathematical defects (wrong d-degree, d^2 != 0, subs not
    closed) are reported by validate().
    """

    def __init__(self, generators, differential=None, subalgebras=None):
        self.generators = GradedBasis(generators)
        self._deg_list = [d for _, d in self.generators.entries]
        self._basis_cache = {}
        self._bracket_cache = {}
        self.differential = {}
        self._tree_elements = TreeMap(
            self, self.gen, lambda u, v, f: self.bracket(f(u), f(v))
        )
        self._d = leibniz_extension(self, self, -1, self.differential.get)
        for name, value in (differential or {}).items():
            if name not in self.generators.index:
                raise UnknownGenerator("differential on unknown generator %r" % name)
            elt = self.normal_form(value)
            if not elt.is_zero():
                self.differential[name] = elt
        self.subalgebras = {}
        for name, spec in (subalgebras or {}).items():
            self.subalgebras[name] = self._normalize_sub(spec)

    # -- construction helpers ------------------------------------------------

    def _normalize_sub(self, spec):
        if isinstance(spec, (GeneratorSplit, ElementGenerated)):
            spec_obj = spec
        elif isinstance(spec, dict) and "generators" in spec:
            spec_obj = GeneratorSplit(spec["generators"])
        elif isinstance(spec, dict) and "elements" in spec:
            spec_obj = ElementGenerated([self.normal_form(e) for e in spec["elements"]])
        else:
            raise ValueError("bad subalgebra spec %r" % (spec,))
        if isinstance(spec_obj, GeneratorSplit):
            for n in spec_obj.names:
                if n not in self.generators.index:
                    raise UnknownGenerator("subalgebra generator %r unknown" % n)
            order = self.generators.index
            spec_obj = GeneratorSplit(sorted(spec_obj.names, key=order.__getitem__))
        else:
            spec_obj = ElementGenerated([self.normal_form(e) for e in spec_obj.elements])
        return spec_obj

    # -- basis and normal form -----------------------------------------------

    def lie_basis(self, degree):
        """Canonical basis brackets of one degree (possibly empty)."""
        if degree not in self._basis_cache:
            if degree < 1 or not self._deg_list:
                self._basis_cache[degree] = []
            else:
                if min(self._deg_list) < 1:
                    raise ValueError("generators must have positive degree")
                self._basis_cache[degree] = freelie.basis_in_degree(self._deg_list, degree)
        return self._basis_cache[degree]

    def dim(self, degree):
        return len(self.lie_basis(degree))

    def tree_names(self, tree):
        """Convert an index tree to a name tree."""
        if isinstance(tree, int):
            return self.generators.entries[tree][0]
        return (self.tree_names(tree[0]), self.tree_names(tree[1]))

    def tree_indices(self, tree):
        if isinstance(tree, str):
            if tree not in self.generators.index:
                raise UnknownGenerator("unknown generator %r" % tree)
            return self.generators.index[tree]
        return (self.tree_indices(tree[0]), self.tree_indices(tree[1]))

    def zero(self, degree=0):
        return LieElement(self, degree, {})

    def gen(self, name):
        if name not in self.generators.index:
            raise UnknownGenerator("unknown generator %r" % name)
        d = self.generators.degree(name)
        idx = self.generators.index[name]
        basis = self.lie_basis(d)
        for i, b in enumerate(basis):
            if b.tree == idx:
                return LieElement(self, d, {i: Fraction(1)})
        raise AssertionError("generator %r missing from its degree basis" % name)

    def normal_form(self, expression):
        """Normal form of a string / AST / LieElement; idempotent, Q-linear."""
        if isinstance(expression, LieElement):
            if expression.presentation is not self:
                return transfer(expression, self)
            return expression
        if isinstance(expression, str):
            terms = expr_mod.parse_expression(expression)
        else:
            terms = list(expression)
        degree = None
        tensor = {}
        for coeff, tree in terms:
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            itree = self.tree_indices(tree)
            d = freelie.tree_degree(itree, self._deg_list)
            if degree is None:
                degree = d
            elif d != degree:
                raise InhomogeneousExpression(
                    "terms of degrees %d and %d" % (degree, d)
                )
            for w, c in freelie.expand_tree(itree, self._deg_list).items():
                tensor[w] = tensor.get(w, Fraction(0)) + coeff * c
        if degree is None:
            return self.zero()
        tensor = {w: c for w, c in tensor.items() if c}
        coords = freelie.solve_against_basis(self.lie_basis(degree), tensor)
        return LieElement(self, degree, coords)

    def tree_element(self, itree):
        """Normal form of one index tree (memoized)."""
        return self._tree_elements.tree(itree)

    def element_from_vector(self, degree, vector):
        return LieElement(self, degree, {i: c for i, c in enumerate(vector) if c})

    # -- algebra operations ----------------------------------------------------

    def basis_bracket(self, d1, i1, d2, i2):
        key = (d1, i1, d2, i2)
        cached = self._bracket_cache.get(key)
        if cached is None:
            t1 = self.lie_basis(d1)[i1].tree
            t2 = self.lie_basis(d2)[i2].tree
            tensor = freelie.expand_tree((t1, t2), self._deg_list)
            coords = freelie.solve_against_basis(self.lie_basis(d1 + d2), tensor)
            cached = LieElement(self, d1 + d2, coords)
            self._bracket_cache[key] = cached
        return cached

    def bracket(self, x, y):
        """Lie bracket of two elements; bilinear, result in normal form."""
        if x.presentation is not self or y.presentation is not self:
            raise ValueError("bracket of foreign elements")
        if x.is_zero() or y.is_zero():
            return self.zero(x.degree + y.degree)
        out = self.zero(x.degree + y.degree)
        for i, ci in x.coords.items():
            for j, cj in y.coords.items():
                term = self.basis_bracket(x.degree, i, y.degree, j)
                if not term.is_zero():
                    out = out + term.scale(ci * cj)
        return out

    def d_gen(self, name):
        return self.differential.get(
            name, self.zero(self.generators.degree(name) - 1)
        )

    def _d_tree(self, itree):
        return self._d.tree(itree)

    def differential_of(self, x):
        """The differential as a degree -1 derivation, applied to an element."""
        return self._d(x, self.zero(x.degree - 1))

    # -- designated subalgebras -------------------------------------------------

    def sub(self, name):
        if name is None:
            return GeneratorSplit(())
        if name not in self.subalgebras:
            raise KeyError("no subalgebra named %r" % name)
        return self.subalgebras[name]

    def in_generator_span(self, x, names):
        """Membership in the free subalgebra on a generator subset."""
        allowed = {self.generators.index[n] for n in names}
        basis = self.lie_basis(x.degree)

        def ok(tree):
            if isinstance(tree, int):
                return tree in allowed
            return ok(tree[0]) and ok(tree[1])

        return all(ok(basis[i].tree) for i in x.coords)

    def subalgebra_span(self, elements, degree):
        """Span of the Lie subalgebra generated by elements, in one degree.

        Returns a linalg.Subspace in canonical-basis coordinates.  Finite
        because degrees are positive.
        """
        by_degree = {}
        for e in elements:
            if e.is_zero():
                continue
            by_degree.setdefault(e.degree, []).append(e)
        layers = dict(by_degree)
        frontier = list(
            (d, e) for d, es in by_degree.items() for e in es if d <= degree
        )
        while frontier:
            d1, e1 = frontier.pop()
            for d2 in list(layers):
                if d1 + d2 > degree:
                    continue
                for e2 in list(layers[d2]):
                    b = self.bracket(e1, e2)
                    if b.is_zero():
                        continue
                    vecs = [e.vector() for e in layers.get(b.degree, [])]
                    sub = linalg.Subspace.from_vectors(vecs, self.dim(b.degree))
                    if not sub.contains(b.vector()):
                        layers.setdefault(b.degree, []).append(b)
                        if b.degree <= degree:
                            frontier.append((b.degree, b))
        vecs = [e.vector() for e in layers.get(degree, [])]
        return linalg.Subspace.from_vectors(vecs, self.dim(degree))

    def sub_contains(self, subname, x):
        spec = self.sub(subname)
        if x.is_zero():
            return True
        if isinstance(spec, GeneratorSplit):
            return self.in_generator_span(x, spec.names)
        span = self.subalgebra_span(spec.elements, x.degree)
        return span.contains(x.vector())

    # -- validation ----------------------------------------------------------------

    def validate(self):
        """Check the presentation; returns a report, never raises.

        Checks: generator degrees >= 1; d lowers degree by exactly 1; d^2
        normalizes to 0 on every generator; every designated subalgebra is
        closed under d.  Each failure names its witness.
        """
        checks = []
        bad_degree = False
        for name, deg in self.generators.entries:
            if deg < 1:
                checks.append(("generator_degree", False, name))
                bad_degree = True
        if not bad_degree:
            checks.append(("generator_degree", True, None))
        if bad_degree:
            return ValidationReport(checks)
        for name, deg in self.generators.entries:
            dval = self.differential.get(name)
            if dval is not None and not dval.is_zero() and dval.degree != deg - 1:
                checks.append(("d_lowers_degree", False, name))
                return ValidationReport(checks)
        checks.append(("d_lowers_degree", True, None))
        for name, _ in self.generators.entries:
            dd = self.differential_of(self.d_gen(name))
            if not dd.is_zero():
                checks.append(("d_squared", False, name))
                break
        else:
            checks.append(("d_squared", True, None))
        for subname, spec in self.subalgebras.items():
            if isinstance(spec, GeneratorSplit):
                for n in spec.names:
                    dv = self.d_gen(n)
                    if not dv.is_zero() and not self.in_generator_span(dv, spec.names):
                        checks.append(("sub_closed:%s" % subname, False, n))
                        break
                else:
                    checks.append(("sub_closed:%s" % subname, True, None))
            else:
                ok = True
                for k, e in enumerate(spec.elements):
                    de = self.differential_of(e)
                    if de.is_zero():
                        continue
                    span = self.subalgebra_span(spec.elements, de.degree)
                    if not span.contains(de.vector()):
                        checks.append(("sub_closed:%s" % subname, False, "element %d" % k))
                        ok = False
                        break
                if ok:
                    checks.append(("sub_closed:%s" % subname, True, None))
        return ValidationReport(checks)

    # -- indecomposables ---------------------------------------------------------

    def nonsub_generators(self, subname):
        spec = self.sub(subname)
        if isinstance(spec, ElementGenerated):
            for k, e in enumerate(spec.elements):
                if e.linear_part():
                    raise UnsupportedSub(
                        "element %d of sub has a generator-linear term" % k
                    )
            return list(self.generators.entries)
        names = set(spec.names)
        return [(n, d) for n, d in self.generators.entries if n not in names]

    def indecomposables(self, subname):
        """Relative indecomposables as a chain complex slice.

        Basis: the non-sub generators (for an ElementGenerated sub all of
        whose elements are decomposable, the quotient equals the absolute
        indecomposables, so the basis is all generators).  Differential: the
        linear part of d in those generators.  The window pads one zero
        degree on each side so homology over the generator degrees is
        computable.
        """
        gens = self.nonsub_generators(subname)
        degrees = [d for _, d in gens] or [1]
        lo, hi = min(degrees) - 1, max(degrees) + 1
        spaces = {}
        for d in range(lo, hi + 1):
            spaces[d] = GradedBasis([(n, d) for n, gd in gens if gd == d])
        diff = {}
        keep = {n for n, _ in gens}
        for d in range(lo + 1, hi + 1):
            src = spaces[d].names()
            tgt = spaces[d - 1].names()
            if not src or not tgt:
                continue
            m = [[Fraction(0)] * len(src) for _ in tgt]
            for j, n in enumerate(src):
                lin = self.d_gen(n).linear_part()
                for tn, c in lin.items():
                    if tn in keep:
                        m[tgt.index(tn)][j] = c
            diff[d] = m
        return ChainComplexSlice((lo, hi), spaces, diff)

    def is_minimal(self, subname=None):
        """True iff the induced differential on indecomposables vanishes."""
        slice_ = self.indecomposables(subname)
        return all(
            linalg.is_zero_matrix(slice_.d_matrix(d))
            for d in range(slice_.lo + 1, slice_.hi + 1)
        )


class ValidationReport:
    """Outcome of DgLaPresentation.validate(): (check, ok, witness) rows."""

    def __init__(self, checks):
        self.checks = checks

    @property
    def passed(self):
        return all(ok for _, ok, _ in self.checks)

    def failures(self):
        return [(c, w) for c, ok, w in self.checks if not ok]

    def __repr__(self):
        return "<ValidationReport passed=%s failures=%r>" % (self.passed, self.failures())


def transfer(element, target):
    """Re-express an element in another presentation sharing its generator names."""
    if element.is_zero():
        return target.zero(element.degree)
    return target.normal_form(element.terms())


def lie_chain_slice(p, lo, hi):
    """The presentation's underlying chain complex on a degree window."""
    from . import expr as _expr

    spaces = {}
    diff = {}
    for d in range(lo, hi + 1):
        labels = [_expr.tree_to_str(p.tree_names(b.tree)) for b in p.lie_basis(d)]
        spaces[d] = GradedBasis([(s, d) for s in labels])
    for d in range(lo + 1, hi + 1):
        rows = p.dim(d - 1)
        cols = p.dim(d)
        m = [[Fraction(0)] * cols for _ in range(rows)]
        for j, b in enumerate(p.lie_basis(d)):
            img = p._d_tree(b.tree)
            for i, c in img.coords.items():
                m[i][j] = c
        diff[d] = m
    return ChainComplexSlice((lo, hi), spaces, diff)


def presentation_slice(p, lo, hi):
    """The presentation's dg Lie algebra as an explicit slice.

    Positively graded, so degrees <= 0 are genuinely empty and the window
    may start anywhere below 1.
    """
    from fractions import Fraction as _F

    from . import expr as _expr
    from .slices import DgLieSlice

    labels = {}
    for d in range(lo, hi + 1):
        if d < 1:
            labels[d] = []
        else:
            labels[d] = [
                _expr.tree_to_str(p.tree_names(b.tree)) for b in p.lie_basis(d)
            ]
    d_blocks = {}
    for d in range(max(lo + 1, 1), hi + 1):
        rows = p.dim(d - 1) if d - 1 >= 1 else 0
        cols = p.dim(d)
        if rows == 0 or cols == 0:
            continue
        m = [[_F(0)] * cols for _ in range(rows)]
        for j, b in enumerate(p.lie_basis(d)):
            for i, c in p._d_tree(b.tree).coords.items():
                m[i][j] = c
        d_blocks[d] = m

    def bracket_fn(n, i, m_, j):
        out = [_F(0)] * (p.dim(n + m_) if n + m_ >= 1 else 0)
        for k, c in p.basis_bracket(n, i, m_, j).coords.items():
            out[k] = c
        return out

    slc = DgLieSlice((lo, hi), labels, d_blocks, bracket_fn=bracket_fn)
    slc.bounded = False
    return slc


def pushout(p, q, along, correspondence=None):
    """Pushout of two presentations along a shared GeneratorSplit sub.

    ``correspondence`` maps q's sub generator names to p's (default: the
    identity on names); it must be a degree- and d-preserving bijection.
    Returns (pushout_presentation, include_p, include_q).  The shared sub
    keeps p's generator names; q's free generators are renamed by appending
    apostrophes on collision.
    """
    from .morphisms import GeneratorMorphism

    sp = p.sub(along)
    sq = q.sub(along)
    if not isinstance(sp, GeneratorSplit) or not isinstance(sq, GeneratorSplit):
        raise IncompatibleSubs("pushout requires GeneratorSplit subs on both sides")
    if correspondence is None:
        correspondence = {n: n for n in sq.names}
    if set(correspondence) != set(sq.names) or set(correspondence.values()) != set(sp.names):
        raise IncompatibleSubs("correspondence is not a bijection of the subs")
    for qa, pa in correspondence.items():
        if q.generators.degree(qa) != p.generators.degree(pa):
            raise IncompatibleSubs("degree mismatch at %r -> %r" % (qa, pa))

    p_names = [n for n, _ in p.generators.entries]
    q_free = [n for n, _ in q.generators.entries if n not in set(sq.names)]
    taken = set(p_names)
    qmap = dict(correspondence)
    for n in q_free:
        nn = n
        while nn in taken:
            nn = nn + "'"
        qmap[n] = nn
        taken.add(nn)

    gens = list(p.generators.entries) + [
        (qmap[n], q.generators.degree(n)) for n in q_free
    ]
    diff = {}
    for n, _ in p.generators.entries:
        dv = p.d_gen(n)
        if not dv.is_zero():
            diff[n] = dv.terms()
    for n in q_free:
        dv = q.d_gen(n)
        if not dv.is_zero():
            diff[qmap[n]] = [(c, expr_mod.rename_tree(t, qmap)) for c, t in dv.terms()]
    subs = {along: GeneratorSplit(sp.names)}
    po = DgLaPresentation(gens, diff, subs)

    for qa, pa in correspondence.items():
        dq = q.d_gen(qa)
        dq_terms = [(c, expr_mod.rename_tree(t, qmap)) for c, t in dq.terms()]
        if po.normal_form(dq_terms) != po.normal_form(p.d_gen(pa).terms() if not p.d_gen(pa).is_zero() else []):
            raise IncompatibleSubs("correspondence does not commute with d at %r" % qa)

    inc_p = GeneratorMorphism(p, po, {n: po.gen(n) for n, _ in p.generators.entries})
    inc_q = GeneratorMorphism(
        q, po, {n: po.gen(qmap.get(n, n)) for n, _ in q.generators.entries}
    )
    return po, inc_p, inc_q
