"""Quasi-free dg Lie presentations over Q.

A DgLaPresentation is a finite list of positive-degree generators, a
differential given on generators, and named designated subalgebras (either a
subset of the generators or a list of elements).  Elements are kept in
normal form: sparse rational coordinate vectors in the canonical
super-Lyndon basis of their degree.

Presentations and elements are immutable after construction (the subs
too: ``subalgebras`` is a read-only mapping); the basis, tree index, letter
mask, generator, zero, bracket, bracket pattern, tree and indecomposables
caches, and the free-Lie ``BasisMemo`` (Witt table, trees, basis elements,
expansions and their interned words), are per-presentation dicts of values
that are never mutated (atomic updates under the GIL), so instances may be
shared freely across threads.  Every expression is normalized through the
bracket table, and only a cold basis bracket of a new letter pattern
expands and solves a tensor.  Basis elements carry leads certified from
their factors' leads; the expansion memo holds the expansion of a
composite basis element only once such a solve has read it, and nothing
else.

Sums are accumulated at the coordinate level: a bracket, a sum of scaled
elements (``LieElement.add_scaled``, and ``+`` through it) and a sum of
scaled brackets (``DgLaPresentation.bracket_sum``, one node of a Leibniz
extension) each add their products into one ``{index: coefficient}`` dict
with ``linalg.accumulate`` and build one element from its
``linalg.nonzeros``, with no element per term.  A coefficient is an
``int`` wherever it is integral and a ``Fraction`` only where there is a
denominator (``linalg.exact``).
"""

from types import MappingProxyType

from . import expr as expr_mod
from . import freelie, linalg
from .errors import (
    IncompatibleSubs,
    InhomogeneousExpression,
    SchemaError,
    UnknownGenerator,
    UnsupportedSub,
    ValidationReport,
    check_row,
    json_pointer,
)
from .graded import ChainComplexSlice, GradedBasis
from .linalg import accumulate, exact, nonzeros


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


def common_degree(degree, d):
    """The degree of a sum so far (None before its first nonzero term) with a term of degree d."""
    if degree is not None and d != degree:
        raise InhomogeneousExpression("cannot add degrees %d and %d" % (degree, d))
    return d


class LieElement:
    """Degree-homogeneous element in canonical basis coordinates.

    ``coords`` holds only nonzero exact coordinates: ``int`` or
    ``Fraction``, never a float or bool.  The public constructor coerces
    with ``linalg.exact``, so every integral coordinate becomes an ``int``,
    and drops zeros; internal results come from ``_trusted``, whose
    coordinates are already nonzero and exact.  Only arithmetic with a
    real ``Fraction`` scalar, such as BCH's 1/2, leaves an integral
    ``Fraction``.
    """

    __slots__ = ("presentation", "degree", "coords")

    def __init__(self, presentation, degree, coords):
        self.presentation = presentation
        self.degree = degree
        self.coords = {i: exact(c) for i, c in coords.items() if c}

    @classmethod
    def _trusted(cls, presentation, degree, coords):
        """An element on coords that are already nonzero and exact, taken as is."""
        self = object.__new__(cls)
        self.presentation = presentation
        self.degree = degree
        self.coords = coords
        return self

    def is_zero(self):
        return not self.coords

    def __add__(self, other):
        # summed from other's zero: a zero summand takes the other's degree,
        # 0 + 0 keeps other's, and a clash names self's degree first
        return other.presentation.zero(other.degree).add_scaled(((1, self), (1, other)))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, q):
        q = exact(q)
        coords = {i: c * q for i, c in self.coords.items()} if q else {}
        return LieElement._trusted(self.presentation, self.degree, coords)

    def add_scaled(self, terms):
        """self plus the sum of c * v over the (c, v) in ``terms``, accumulated once.

        The coordinates of self and of every c * v are added into one dict,
        and one element is built from its nonzeros.  The result has the
        degree of the first nonzero of self and the v, or self's degree when
        all vanish; a nonzero v of another degree raises
        InhomogeneousExpression.
        """
        p = self.presentation
        degree = self.degree if self.coords else None
        out = dict(self.coords)
        for c, v in terms:
            if v.presentation is not p:
                raise ValueError("elements of different presentations")
            if v.coords:
                degree = common_degree(degree, v.degree)
                accumulate(out, c, v.coords)
        return LieElement._trusted(p, self.degree if degree is None else degree, nonzeros(out))

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
        """Coefficients on single-generator basis elements: name -> coefficient."""
        p = self.presentation
        basis = p.lie_basis(self.degree)
        out = {}
        for i, c in self.coords.items():
            if isinstance(basis[i].tree, int):
                out[p.generators.entries[basis[i].tree][0]] = c
        return out


class TreeMap:
    """A map given on generators and extended over bracket trees.

    ``leaf(name)`` is the image of a generator and ``node(u, v, f)`` the
    image of the index tree (u, v), where ``f`` maps subtrees; one image is
    memoized per tree for the map's life, so images must be immutable.  The
    call on an element of ``source`` sums its tree images (``terms``) with
    one ``zero.add_scaled``.  Tree normal forms, d, derivations, morphisms
    and Hom slot units are all TreeMaps; they walk trees only
    on the terms that the reach filter keeps (``reach`` or ``term_list``).
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

    def terms(self, degree, coords):
        """The (c, image of basis tree i) over the (i, c) in coordinates of one degree."""
        basis = self.source.lie_basis(degree)
        return ((c, self.tree(basis[i].tree)) for i, c in coords.items())

    def __call__(self, x, zero):
        if x.presentation is not self.source:
            raise ValueError("element not in the map's source presentation")
        return zero.add_scaled(self.terms(x.degree, x.coords))


def leibniz_extension(source, target, degree, leaf, along=None):
    """The derivation of a degree with generator values leaf(name), None for 0.

    Extended by th[u,v] = [th u, m v] + (-1)^{degree |u|} [m u, th v], where
    m is the GeneratorMorphism ``along``, or the identity when it is None;
    each node is one ``bracket_sum`` into one coordinate dict.  It kills
    every basis tree with no letter where leaf is not None (``reach``).
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
        return target.bracket_sum(((1, f(u), m(v)), (sign, m(u), f(v))))

    return TreeMap(source, value, node)


def linear_part_block(value, src, tgt):
    """Matrix of the linear parts of value(n) for the generators n in src.

    Column j holds the coefficients of value(src[j]) on the generators tgt,
    one row each; terms on other generators are left out.
    """
    row = {t: i for i, t in enumerate(tgt)}
    return linalg.matrix(len(tgt), len(src), (
        (row[t], j, c)
        for j, n in enumerate(src)
        for t, c in value(n).linear_part().items()
        if t in row
    ))


class DgLaPresentation:
    """A quasi-free dg Lie algebra given on generators.

    ``generators``: list of (name, degree).  ``differential``: dict
    name -> expression string / AST / LieElement (absent means zero).
    ``subalgebras``: dict name -> GeneratorSplit / ElementGenerated, or the
    JSON forms {"generators": [...]}, {"elements": [expr, ...]}, kept
    normalized in the read-only mapping ``subalgebras``: subs are given here.
    Structural problems (unknown names, malformed expressions, a
    differential value whose degree is not its generator's minus one) raise
    at construction (``values_on``); mathematical defects (d^2 != 0, subs
    not closed) are reported by validate().
    """

    def __init__(self, generators, differential=None, subalgebras=None):
        self.generators = GradedBasis(generators)
        self._deg_list = [d for _, d in self.generators.entries]
        bad = [i for i, d in enumerate(self._deg_list) if not 1 <= d <= freelie.MAX_DEGREE]
        if bad:
            raise SchemaError(
                "generator degrees must lie in [1, %d]" % freelie.MAX_DEGREE,
                "/generators/%d/degree" % bad[0],
            )
        self._basis_cache = {}
        self._gens = {}
        self._zeros = {}
        self._bases = freelie.BasisMemo(self._deg_list)
        self._bracket_cache = {}
        self._bracket_patterns = {}
        self._alphabet = (1 << len(self._deg_list)) - 1
        self._lead_index = {}
        self._letter_masks = {}
        self._indecomposables = {}
        self._tree_elements = TreeMap(
            self, self.gen, lambda u, v, f: self.bracket(f(u), f(v))
        )
        values = self.values_on(self, differential or {}, -1, "/differential")
        self.differential = {n: v for n, v in values.items() if not v.is_zero()}
        self._d = leibniz_extension(self, self, -1, self.differential.get)
        self._d_mask = sum(1 << self.generators.index[n] for n in self.differential)
        subs = {name: self._normalize_sub(name, spec) for name, spec in (subalgebras or {}).items()}
        self.subalgebras = MappingProxyType(subs)

    # -- construction helpers ------------------------------------------------

    def _normalize_sub(self, name, spec):
        if isinstance(spec, dict) and "generators" in spec:
            spec = GeneratorSplit(spec["generators"])
        elif isinstance(spec, dict) and "elements" in spec:
            spec = ElementGenerated(spec["elements"])
        elif not isinstance(spec, (GeneratorSplit, ElementGenerated)):
            raise ValueError("bad subalgebra spec %r" % (spec,))
        if isinstance(spec, ElementGenerated):
            at = json_pointer("/subalgebras", name, "elements")
            return ElementGenerated([self.normal_form_at(e, json_pointer(at, k))
                                     for k, e in enumerate(spec.elements)])
        for n in spec.names:
            if n not in self.generators.index:
                raise UnknownGenerator("subalgebra generator %r unknown" % n)
        return GeneratorSplit(sorted(spec.names, key=self.generators.index.__getitem__))

    # -- basis and normal form -----------------------------------------------

    def lie_basis(self, degree):
        """Canonical basis brackets of one degree (possibly empty)."""
        if degree not in self._basis_cache:
            if degree < 1 or not self._deg_list:
                basis = []
            else:
                basis = freelie.basis_in_degree(self._deg_list, degree, self._bases)
            self._basis_cache[degree] = basis
        return self._basis_cache[degree]

    def dim(self, degree):
        """The size of ``lie_basis(degree)``, read from the Witt table (``BasisMemo.size``).

        0 below degree 1.  No basis is built, so a caller can size a whole
        window first; a degree whose basis is too large to build raises the
        SchemaError that building it raises.
        """
        return self._bases.size(degree) if degree >= 1 else 0

    def basis_leads(self, degree):
        """{lead: index} of the basis of one degree (memoized).

        A basis element's lead is the packed word of its tree, and the leads
        of one degree are distinct (``freelie.basis_in_degree``), so a lead
        names its element.
        """
        got = self._lead_index.get(degree)
        if got is None:
            got = self._lead_index[degree] = {
                b.lead: i for i, b in enumerate(self.lie_basis(degree))
            }
        return got

    def letter_masks(self, degree):
        """[the generators at the leaves of basis tree i, as a bitmask] for one degree (memoized).

        Bit g is set when generator g (its index) is a letter of the tree:
        the basis element's ``letters``, set with its lead.
        """
        got = self._letter_masks.get(degree)
        if got is None:
            got = self._letter_masks[degree] = [b.letters for b in self.lie_basis(degree)]
        return got

    def letters(self, x):
        """The generators at the leaves of x's terms, as a bitmask (see ``letter_masks``)."""
        masks, out = self.letter_masks(x.degree), 0
        for i in x.coords:
            out |= masks[i]
        return out

    def reach(self, x, mask):
        """(reached, rest): x's coordinates split by whether a tree's letters meet ``mask``.

        By the Leibniz rule and induction on the tree, a derivation (or d)
        vanishing on the generators off ``mask`` kills the rest, and a Lie
        endomorphism fixing them fixes it.
        """
        if x.presentation is not self:
            raise ValueError("element not in the map's source presentation")
        masks, split = self.letter_masks(x.degree), ({}, {})
        for i, c in x.coords.items():
            split[not masks[i] & mask][i] = c
        return split

    def term_list(self, x):
        """[(basis tree, c, letter mask)] of x's terms, in coordinate order.

        The data of the reach filter, listed once: an evaluation keeps the
        terms whose mask meets its generators (``derivations._reached_add``),
        and a caller that evaluates x many times keeps the list.
        """
        if x.presentation is not self:
            raise ValueError("element not in the map's source presentation")
        basis, masks = self.lie_basis(x.degree), self.letter_masks(x.degree)
        return [(basis[i].tree, c, masks[i]) for i, c in x.coords.items()]

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
        """The zero element of a degree, one shared value per degree (memoized)."""
        got = self._zeros.get(degree)
        if got is None:
            got = self._zeros[degree] = LieElement._trusted(self, degree, {})
        return got

    def gen(self, name):
        """The generator as an element (memoized)."""
        got = self._gens.get(name)
        if got is None:
            if name not in self.generators.index:
                raise UnknownGenerator("unknown generator %r" % name)
            d = self.generators.degree(name)
            i = self.basis_leads(d)[freelie.pack((self.generators.index[name],), self._deg_list)]
            got = self._gens[name] = LieElement._trusted(self, d, {i: 1})
        return got

    def normal_form(self, expression):
        """Normal form of a string / AST / LieElement; idempotent, Q-linear.

        The sum of c * ``tree_element(tree)`` over the expression's terms.
        """
        if isinstance(expression, LieElement):
            if expression.presentation is not self:
                return transfer(expression, self)
            return expression
        if isinstance(expression, str):
            terms = expr_mod.parse_expression(expression)
        else:
            terms = list(expression)
        degree = None
        pairs = []
        for coeff, tree in terms:
            coeff = exact(coeff)
            if coeff == 0:
                continue
            itree = self.tree_indices(tree)
            degree = common_degree(degree, freelie.tree_degree(itree, self._deg_list))
            pairs.append((coeff, itree))
        if degree is None:
            return self.zero()
        x = self.zero(degree).add_scaled((c, self.tree_element(t)) for c, t in pairs)
        # the public constructor stores an integral sum of Fractions as an int
        return LieElement(self, degree, x.coords)

    def normal_form_at(self, expression, pointer):
        """``normal_form`` of an input's value at the JSON ``pointer``.

        A value that mixes degrees is malformed input: a SchemaError there.
        """
        try:
            return self.normal_form(expression)
        except InhomogeneousExpression as e:
            raise SchemaError(str(e), pointer) from None

    def values_on(self, source, values, shift, at):
        """The values of a map given on the generators of ``source``, read here.

        The one admission rule of such a map (the differential, a
        derivation, an f-derivation, a morphism): a name that is no
        generator of ``source`` is an UnknownGenerator; each value is read
        by ``normal_form_at`` at ``json_pointer(at, name)``; and a nonzero
        value whose degree is not its generator's plus ``shift`` is a
        SchemaError there.  Zero values come back as given.
        """
        out = {}
        for name, value in values.items():
            if name not in source.generators.index:
                raise UnknownGenerator("value on unknown generator %r" % name)
            pointer = json_pointer(at, name)
            v = out[name] = self.normal_form_at(value, pointer)
            expected = source.generators.degree(name) + shift
            if v.coords and v.degree != expected:
                raise SchemaError("value on %r has degree %d, expected %d"
                                  % (name, v.degree, expected), pointer)
        return out

    def tree_element(self, itree):
        """Normal form of one index tree (memoized)."""
        return self._tree_elements.tree(itree)

    def element_from_vector(self, degree, vector):
        """The element with the dense coordinate list ``vector``.

        The one dense input of the library; everything else takes sparse
        ``coords``, as the LieElement constructor does.
        """
        return LieElement(self, degree, {i: c for i, c in enumerate(vector) if c})

    # -- algebra operations ----------------------------------------------------

    def basis_bracket(self, d1, i1, d2, i2):
        """[b1, b2] for the basis elements b1 = i1 of degree d1, b2 = i2 of d2 (memoized).

        With t1, t2 their trees, the bracket needs no tensor when (t1, t2) or
        (t2, t1) is the tree of a basis element b of degree d1 + d2: it is b,
        or -(-1)^{d1 d2} b.  Such a b is found by its tree among the basis
        elements the basis memo has built (every one of degree d1 + d2 is,
        once ``basis_leads`` has listed them), and its index by its lead
        (``basis_leads``).  Any other bracket is solved once per letter
        pattern: the degrees of its letters, in generator order, and both
        factors' leads with each letter renamed to its rank among them.  On
        a new pattern it reads both factors' expansions through their basis
        elements, expands their one product and hands it to the solve as its
        work dict (the product is not kept), and keeps the solution's terms
        as (renamed lead, coefficient).  A repeat renames those leads back to
        this bracket's letters and reads their indices from the lead index
        (the free-Lie module docstring says why that is exact); a renamed
        lead that is no basis lead raises.  A bracket on every generator has
        a pattern that cannot recur and is solved.
        """
        key = (d1, i1, d2, i2)
        cached = self._bracket_cache.get(key)
        if cached is None:
            b1 = self.lie_basis(d1)[i1]
            b2 = self.lie_basis(d2)[i2]
            d = d1 + d2
            leads = self.basis_leads(d)
            elements = self._bases.elements  # every basis element built, by tree
            b = elements.get((b1.tree, b2.tree))
            if b is not None:
                coords = {leads[b.lead]: 1}
            elif (b2.tree, b1.tree) in elements:
                coords = {leads[elements[b2.tree, b1.tree].lead]: 1 if d1 * d2 % 2 else -1}
            else:
                basis, width = self.lie_basis(d), self._bases.width
                mask = b1.letters | b2.letters
                pattern = moved = None
                if mask != self._alphabet:
                    letters = [g for g in range(mask.bit_length()) if mask >> g & 1]
                    rank = {g: r for r, g in enumerate(letters)}
                    pattern = (tuple(self._deg_list[g] for g in letters),
                               freelie.rename_letters(b1.lead, width, rank),
                               freelie.rename_letters(b2.lead, width, rank))
                    moved = self._bracket_patterns.get(pattern)
                if moved is None:
                    coords = freelie.solve_against_basis(basis, self._bases.product(b1, b2))
                    if pattern is not None:
                        self._bracket_patterns[pattern] = [
                            (freelie.rename_letters(basis[i].lead, width, rank), c)
                            for i, c in coords.items()
                        ]
                else:
                    coords = {}
                    for w, c in moved:
                        i = leads.get(freelie.rename_letters(w, width, letters))
                        if i is None:
                            raise AssertionError("moved bracket term is no basis lead: %#x" % w)
                        coords[i] = c
            cached = LieElement._trusted(self, d, coords)
            self._bracket_cache[key] = cached
        return cached

    def bracket(self, x, y):
        """Lie bracket of two elements; bilinear, result in normal form."""
        return self.bracket_sum(((1, x, y),))

    def bracket_sum(self, terms):
        """The sum of c * [x, y] over the (c, x, y) in a nonempty ``terms``.

        Every c * [x, y] is added into one dict (``add_bracket``), and one
        element is built from its nonzeros.  The degree is that of the first
        term whose factors are both nonzero, or of the first term when none
        is; such a term of another degree raises InhomogeneousExpression.
        """
        out = {}
        first = degree = None
        for c, x, y in terms:
            if x.presentation is not self or y.presentation is not self:
                raise ValueError("bracket of foreign elements")
            dx, dy = x.degree, y.degree
            if first is None:
                first = dx + dy
            if not (x.coords and y.coords):
                continue
            degree = common_degree(degree, dx + dy)
            self.add_bracket(out, c, dx, x.coords, dy, y.coords)
        return LieElement._trusted(self, first if degree is None else degree, nonzeros(out))

    def add_bracket(self, out, c, dx, x, dy, y):
        """Add c * [x, y] into ``out`` for the coordinates x of degree dx and y of dy.

        Every c * cx * cy * [bx, by] is added with ``linalg.accumulate``,
        each basis bracket read from the bracket cache (``basis_bracket``
        only on a miss).
        """
        cache = self._bracket_cache
        ycoords = y.items()
        for i, ci in x.items():
            if c != 1:
                ci = ci * c
            for j, cj in ycoords:
                b = cache.get((dx, i, dy, j))
                if b is None:
                    b = self.basis_bracket(dx, i, dy, j)
                accumulate(out, ci * cj, b.coords)

    def d_gen(self, name):
        return self.differential.get(
            name, self.zero(self.generators.degree(name) - 1)
        )

    def _d_tree(self, itree):
        return self._d.tree(itree)

    def differential_of(self, x):
        """The differential as a degree -1 derivation, applied to an element.

        Read only on the terms whose letters meet a generator with d != 0
        (``reach``): with d = 0 it is the shared zero, and x is not split.
        """
        if x.presentation is not self:
            raise ValueError("element not in this presentation")
        zero = self.zero(x.degree - 1)
        reached = self._d_mask and self.reach(x, self._d_mask)[0]
        return zero.add_scaled(self._d.terms(x.degree, reached)) if reached else zero

    # -- designated subalgebras -------------------------------------------------

    def sub(self, name):
        if name is None:
            return GeneratorSplit(())
        if name not in self.subalgebras:
            raise KeyError("no subalgebra named %r" % name)
        return self.subalgebras[name]

    def in_generator_span(self, x, names):
        """Membership in the free subalgebra on a generator subset."""
        return not self.letters(x) & ~sum(1 << self.generators.index[n] for n in set(names))

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
                    vecs = [e.coords for e in layers.get(b.degree, [])]
                    if linalg.extend_independent(vecs, [b.coords], self.dim(b.degree)):
                        layers.setdefault(b.degree, []).append(b)
                        if b.degree <= degree:
                            frontier.append((b.degree, b))
        vecs = [e.coords for e in layers.get(degree, [])]
        return linalg.Subspace.from_vectors(vecs, self.dim(degree))

    # -- validation ----------------------------------------------------------------

    def validate(self):
        """Check the presentation; returns a report, never raises.

        Checks: d^2 normalizes to 0 on every generator; every designated
        subalgebra is closed under d.  Each failure names its witness.  The
        rows ``generator_degree`` and ``d_lowers_degree`` always pass: the
        constructor refuses a generator degree outside [1, MAX_DEGREE] and
        a differential value of any degree but its generator's minus one.
        """
        def unclosed(spec):
            if isinstance(spec, GeneratorSplit):
                yield from (n for n in spec.names
                            if not self.in_generator_span(self.d_gen(n), spec.names))
                return
            for k, e in enumerate(spec.elements):
                de = self.differential_of(e)
                if not de.is_zero() and not self.subalgebra_span(
                    spec.elements, de.degree
                ).contains(de.coords):
                    yield "element %d" % k

        checks = [check_row("generator_degree", ()), check_row("d_lowers_degree", ())]
        checks.append(check_row("d_squared", (
            name for name, _ in self.generators.entries
            if not self.differential_of(self.d_gen(name)).is_zero()
        )))
        for subname, spec in self.subalgebras.items():
            checks.append(check_row("sub_closed:%s" % subname, unclosed(spec)))
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
        linear part of d in those generators.  The window has one zero
        degree on each side (the one below as ``zero_below``), so homology
        over the generator degrees is computable.  Memoized per set of
        non-sub generators, on which the complex depends alone, so each is
        built and its d^2 certified once.
        """
        gens = tuple(self.nonsub_generators(subname))
        got = self._indecomposables.get(gens)
        if got is not None:
            return got
        degrees = [d for _, d in gens] or [1]
        lo, hi = min(degrees), max(degrees) + 1
        labels = {d: [n for n, gd in gens if gd == d] for d in range(lo, hi + 1)}
        diff = {
            d: linear_part_block(self.d_gen, labels[d], labels[d - 1])
            for d in range(lo + 1, hi + 1) if labels[d] and labels[d - 1]
        }
        got = self._indecomposables[gens] = ChainComplexSlice(
            (lo, hi), labels, diff, zero_below=True
        )
        return got

    def is_minimal(self, subname=None):
        """True iff the induced differential on indecomposables vanishes."""
        slice_ = self.indecomposables(subname)
        return all(
            linalg.is_zero_matrix(slice_.d_matrix(d))
            for d in range(slice_.lo + 1, slice_.hi + 1)
        )


def transfer(element, target):
    """Re-express an element in another presentation sharing its generator names."""
    if element.is_zero():
        return target.zero(element.degree)
    return target.normal_form(element.terms())


def lie_chain_slice(p, lo, hi):
    """The presentation's underlying chain complex on a degree window."""
    labels = {d: _basis_labels(p, d) for d in range(lo, hi + 1)}
    diff = {d: _d_block(p, d) for d in range(lo + 1, hi + 1)}
    return ChainComplexSlice((lo, hi), labels, diff)


def _basis_labels(p, d):
    """The Lie basis of degree d as expression strings."""
    return [expr_mod.tree_to_str(p.tree_names(b.tree)) for b in p.lie_basis(d)]


def _d_block(p, d):
    """Matrix of the differential from degree d to d - 1 in the Lie bases."""
    return linalg.matrix(p.dim(d - 1), p.dim(d), (
        (i, j, c)
        for j, b in enumerate(p.lie_basis(d))
        for i, c in p._d_tree(b.tree).coords.items()
    ))


def presentation_slice(p, lo, hi):
    """The presentation's dg Lie algebra as an explicit slice.

    Positively graded, so degrees <= 0 are genuinely empty, the window may
    start anywhere below 1, and the slice is ``zero_below``.
    """
    from .slices import DgLieSlice

    labels = {d: _basis_labels(p, d) for d in range(max(lo, 1), hi + 1)}
    d_blocks = {
        d: _d_block(p, d) for d in range(max(lo + 1, 1), hi + 1) if p.dim(d - 1) and p.dim(d)
    }

    def bracket_fn(n, i, m_, j):
        return p.basis_bracket(n, i, m_, j).coords

    return DgLieSlice((lo, hi), labels, d_blocks, bracket_fn, zero_below=True)


def fresh_names(taken, names):
    """{name: new name} for ``names``, each given apostrophes until it is
    not in ``taken`` nor an earlier new name."""
    out = {}
    taken = set(taken)
    for n in names:
        nn = n
        while nn in taken:
            nn = nn + "'"
        out[n] = nn
        taken.add(nn)
    return out


def pushout(p, q, along, correspondence=None):
    """Pushout of two presentations along a shared GeneratorSplit sub.

    ``along`` None is the free product, the pushout along the empty sub,
    and records no sub.  ``correspondence`` maps q's sub generator names
    to p's (default: the identity on names); it must be a degree- and
    d-preserving bijection.  Returns (pushout_presentation, include_p,
    include_q).  The shared sub keeps p's generator names; q's free
    generators are renamed by appending apostrophes on collision.
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
    shared = set(sq.names)
    q_free = [(n, d) for n, d in q.generators.entries if n not in shared]
    qmap = dict(correspondence)
    qmap.update(fresh_names(p_names, [n for n, _ in q_free]))

    gens = list(p.generators.entries) + [(qmap[n], d) for n, d in q_free]
    diff = {n: dv.terms() for n, dv in p.differential.items()}
    diff.update(
        (qmap[n], [(c, expr_mod.rename_tree(t, qmap)) for c, t in dv.terms()])
        for n, dv in q.differential.items() if n not in shared
    )
    subs = {} if along is None else {along: GeneratorSplit(sp.names)}
    po = DgLaPresentation(gens, diff, subs)

    inc_p = GeneratorMorphism(p, po, {n: po.gen(n) for n in p_names})
    inc_q = GeneratorMorphism(q, po, {n: po.gen(qmap[n]) for n, _ in q.generators.entries})
    for qa, pa in correspondence.items():
        if inc_q.apply(q.d_gen(qa)) != inc_p.apply(p.d_gen(pa)):
            raise IncompatibleSubs("correspondence does not commute with d at %r" % qa)
    return po, inc_p, inc_q
