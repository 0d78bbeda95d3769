"""Derivation complexes Der(L rel L') as explicit finite-dimensional slices.

A derivation is recorded by its values on generators; the Leibniz rule
theta([u,v]) = [theta(u), v] + (-1)^{n |u|} [u, theta(v)] extends it.  The
complex carries the differential D(theta) = d.theta - (-1)^{|theta|}theta.d
and the bracket [theta,psi] = theta.psi - (-1)^{|theta||psi|} psi.theta.

Relative subalgebras: a GeneratorSplit sub kills the sub generators (so the
Hom coordinates simply omit them); an ElementGenerated sub imposes the
finitely many linear equations theta(listed element) = 0, which by the
Leibniz rule forces vanishing on the whole generated subalgebra.
"""

from bisect import bisect_right

from . import linalg
from .errors import NotQuasiIso, RhoNotChainMap, SubMismatch, WindowTooNarrow
from .graded import ChainComplexSlice
from .linalg import combination, exact, nonzeros
from .morphisms import _rho_of
from .presentation import GeneratorSplit, LieElement, TreeMap, leibniz_extension, lie_chain_slice
from .slices import DgLieSlice


class Derivation:
    """A degree-homogeneous derivation given by its generator values."""

    __slots__ = ("ambient", "rel", "degree", "values", "_mask", "_ext", "_base", "_brackets")

    def __init__(self, ambient, degree, values, rel=None, check=True):
        degree = int(degree)
        vals = ambient.values_on(ambient, values, degree, "/values")
        vals = {n: v for n, v in vals.items() if not v.is_zero()}
        self._fields(ambient, degree, vals, rel, None)
        if check and rel is not None:
            self._verify_rel()

    @classmethod
    def _trusted(cls, ambient, degree, values, rel=None, base=None):
        """A derivation on values this module has just computed, taken as is.

        ``values`` maps generator names of ``ambient`` to nonzero elements
        of ``ambient`` in normal form, each of its generator's degree plus
        the int ``degree``: the constructor's normal form and degree check
        would hold by construction, and are skipped, as is the sub check.
        Input, and values from another presentation, go through the
        constructor.
        """
        self = object.__new__(cls)
        self._fields(ambient, degree, values, rel, base)
        return self

    def _fields(self, ambient, degree, values, rel, base):
        """Every field: the given ones, the mask of the generators with a value, no memo yet."""
        self.ambient = ambient
        self.degree = degree
        self.rel = rel
        self.values = values
        index = ambient.generators.index
        self._mask = 0
        for name in values:
            self._mask |= 1 << index[name]
        # memos made on first use by the methods named: ``_extension``, ``_bracket``
        self._ext = None
        # (base, q) when this is q * base for a nonzero q (see ``scale``)
        self._base = base
        self._brackets = None

    def _verify_rel(self):
        spec = self.ambient.sub(self.rel)
        if isinstance(spec, GeneratorSplit):
            for n in spec.names:
                if n in self.values:
                    raise SubMismatch("derivation does not vanish on sub generator %r" % n)
        else:
            for k, e in enumerate(spec.elements):
                if not self.eval_at(e).is_zero():
                    raise SubMismatch(
                        "derivation does not kill listed element %d of the sub" % k
                    )

    def value(self, name):
        got = self.values.get(name)
        if got is not None:
            return got
        return self.ambient.zero(self.ambient.generators.degree(name) + self.degree)

    def is_zero(self):
        return not self.values

    def __add__(self, other):
        self._compat(other)
        names = set(self.values) | set(other.values)
        vals = ((n, self.value(n) + other.value(n)) for n in names)
        return Derivation._trusted(self.ambient, self.degree,
                                   {n: v for n, v in vals if v.coords}, self.rel)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, q):
        """q * self.  For q != 0 it records (base, q), nested scales multiplied
        into one factor, and evaluates as q times its base (``add_eval_at``):
        so -theta, the inverse of e(theta), reuses every tree theta has walked.
        """
        q = exact(q)
        base, factor = self._base or (self, 1)
        vals = {n: v.scale(q) for n, v in self.values.items()} if q else {}
        return Derivation._trusted(self.ambient, self.degree, vals, self.rel,
                                   (base, factor * q) if q else None)

    def _compat(self, other):
        if self.ambient is not other.ambient:
            raise ValueError("derivations on different presentations")
        if self.degree != other.degree:
            raise ValueError("derivations of different degrees")
        if self.rel != other.rel:
            raise SubMismatch("derivations relative to different subs")

    def __eq__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        if self.ambient is not other.ambient or self.degree != other.degree:
            return False
        names = set(self.values) | set(other.values)
        return all(self.value(n) == other.value(n) for n in names)

    def eval_at(self, e):
        """Leibniz extension of the generator values, in normal form.

        ``add_eval_at`` into a fresh sum, built into one element; the shared
        zero when nothing is left.
        """
        out, p, degree = {}, self.ambient, e.degree + self.degree
        self.add_eval_at(out, 1, e)
        coords = nonzeros(out)
        return LieElement._trusted(p, degree, coords) if coords else p.zero(degree)

    def add_eval_at(self, out, c, e):
        """Add c * self(e) into ``out`` (``_reached_add`` on e's ``term_list``).

        q * base adds c q * base(e).
        """
        base, q = self._base or (self, 1)
        _reached_add(out, 0, c * q, base, self.ambient.term_list(e))

    def _extension(self):
        """The one Leibniz extension, made on the first evaluation that reaches a term."""
        if self._ext is None:
            self._ext = leibniz_extension(self.ambient, self.ambient, self.degree, self.values.get)
        return self._ext

    def _bracket(self, psi):
        """[self, psi] (``_der_bracket``), held in {id(psi): (psi, [self, psi])} once taken."""
        if self._brackets is None:
            self._brackets = {}
        hit = self._brackets.get(id(psi))
        if hit is None:
            hit = self._brackets[id(psi)] = (psi, _der_bracket(self, psi))
        return hit[1]


def _reached_add(out, off, c, th, terms):
    """out[off + k] += c * th(e)_k for every k, by th's Leibniz extension: the one evaluator.

    ``terms`` is e's ``DgLaPresentation.term_list``: th kills each term
    whose letter mask misses its generators (``reach``), and each other
    term x * b adds c x times b's image, read from th's one extension
    (``_extension``), whose memo holds th's image of every basis tree it
    has reached and is built on the first term reached.  The products are
    summed in place into the caller's dict, as ``linalg.accumulate`` sums
    them (so every entry has the same value and type), at ``off`` plus the
    image's index: no element, no split dict, and no call per term but the
    tree memo's.
    """
    mask, tree = th._mask, None
    get = out.get
    for t, x, m in terms:
        if not m & mask:
            continue
        if tree is None:
            tree = th._extension().tree
        cx = c * x
        image = tree(t).coords
        if cx == 1:
            for k, y in image.items():
                k += off
                z = get(k)
                out[k] = y if z is None else z + y
        elif cx == -1:
            for k, y in image.items():
                k += off
                z = get(k)
                out[k] = -y if z is None else z - y
        else:
            for k, y in image.items():
                k += off
                z = get(k)
                out[k] = y * cx if z is None else z + y * cx


def _value_terms(theta, mask=-1):
    """[term list of theta(n)] over the generators n in order (``term_list``).

    None where theta(n) is 0 or has no letter in ``mask``: an evaluation
    by a derivation on the generators of ``mask`` kills it (``reach``).
    """
    p = theta.ambient
    index = p.generators.index
    out = [None] * len(index)
    for n, v in theta.values.items():
        if p.letters(v) & mask:
            out[index[n]] = p.term_list(v)
    return out


def der_bracket(theta, psi):
    """[theta, psi] = theta.psi - (-1)^{|theta||psi|} psi.theta.

    Taken once per pair of operands: theta holds each of its brackets, and
    the psi it was taken with (so the id key stays valid), for its own
    lifetime, and a repeat returns the same object.  Operands that are
    equal but distinct are bracketed apart.
    """
    if theta.ambient is not psi.ambient:
        raise SubMismatch("derivations on different presentations")
    if theta.rel != psi.rel:
        raise SubMismatch("derivations relative to different subs")
    return theta._bracket(psi)


def _der_bracket(theta, psi):
    """[theta, psi], from its value on each generator (``_bracket_slots``)."""
    p = theta.ambient
    degree = theta.degree + psi.degree
    slots = [{} for _ in p.generators.entries]
    _bracket_slots(theta, _value_terms(theta, psi._mask), psi, _value_terms(psi, theta._mask),
                   slots, [0] * len(slots))
    vals = {}
    for (n, deg), coords in zip(p.generators.entries, slots):
        coords = coords and nonzeros(coords)
        if coords:
            vals[n] = LieElement._trusted(p, deg + degree, coords)
    return Derivation._trusted(p, degree, vals, theta.rel)


def _bracket_slots(theta, theta_terms, psi, psi_terms, outs, offsets):
    """Add [theta, psi](n) into outs[g] at offsets[g], for each generator n = g in order.

    [theta, psi](n) = theta(psi n) - (-1)^{|theta||psi|} psi(theta n) is
    two ``_reached_add`` of the value term lists ``psi_terms`` and
    ``theta_terms`` (``_value_terms``): q * base adds through base with the
    factor q.  Zeros are kept.
    """
    sign = 1 if (theta.degree * psi.degree) % 2 else -1
    bt, qt = theta._base or (theta, 1)
    bp, qp = psi._base or (psi, 1)
    qp *= sign
    for out, off, at_psi, at_theta in zip(outs, offsets, psi_terms, theta_terms):
        if at_psi is not None:
            _reached_add(out, off, qt, bt, at_psi)
        if at_theta is not None:
            _reached_add(out, off, qp, bp, at_theta)


def der_differential(theta):
    """D(theta) = d.theta - (-1)^{|theta|} theta.d, again rel the same sub.

    On a generator n this is d(theta n) - (-1)^{|theta|} theta(dn), one
    sum: d(theta n)'s coordinates, where theta n is nonzero, with
    theta(dn) added into them (``add_eval_at``) where dn is.  A generator
    with neither is skipped.
    """
    p = theta.ambient
    sign = -1 if theta.degree % 2 else 1
    degree = theta.degree - 1
    vals = {}
    for n, deg in p.generators.entries:
        if n in theta.values or n in p.differential:
            out = dict(p.differential_of(theta.values[n]).coords) if n in theta.values else {}
            if n in p.differential:
                theta.add_eval_at(out, -sign, p.differential[n])
            out = nonzeros(out)
            if out:
                vals[n] = LieElement._trusted(p, deg + degree, out)
    return Derivation._trusted(p, degree, vals, theta.rel)


def eval_at(theta, e):
    return theta.eval_at(e)


# -- Hom coordinates -----------------------------------------------------------


def _slot_generators(p, rel):
    """[(name, degree)] of the generators of p that a derivation rel rel determines.

    A GeneratorSplit sub's generators are left out: a derivation vanishes there.
    """
    spec = p.sub(rel)
    skip = set(spec.names) if isinstance(spec, GeneratorSplit) else set()
    return [(name, deg) for name, deg in p.generators.entries if name not in skip]


class _HomLayout:
    """Coordinates on Hom(determined generators of p, p_{* + n}): one slot per generator."""

    def __init__(self, p, rel, n):
        self.p = p
        self.rel = rel
        self.n = n
        self.slots = []
        offset = 0
        for name, deg in _slot_generators(p, rel):
            dim = p.dim(deg + n)
            self.slots.append((name, deg, offset, dim))
            offset += dim
        self.total = offset
        self.offsets = [off for _, _, off, _ in self.slots]
        self.offset = {name: off for name, _, off, _ in self.slots}

    def to_vector(self, theta):
        """The sparse Hom coordinates of a derivation."""
        out = {}
        for name, deg, off, dim in self.slots:
            v = theta.values.get(name)
            if v is not None:
                out.update((off + i, c) for i, c in v.coords.items())
        return out

    def values(self, vec):
        """{generator name: value} of the sparse Hom coordinates vec."""
        coords = {}
        for k in sorted(vec):
            name, deg, off, _ = self.slots[bisect_right(self.offsets, k) - 1]
            coords.setdefault((name, deg), {})[k - off] = vec[k]
        return {name: LieElement(self.p, deg + self.n, c) for (name, deg), c in coords.items()}

    def from_vector(self, vec):
        """The derivation with the sparse Hom coordinates vec."""
        return Derivation._trusted(self.p, self.n, self.values(vec), self.rel)

    def unit(self, k):
        name, deg, off, _ = self.slots[bisect_right(self.offsets, k) - 1]
        value = LieElement._trusted(self.p, deg + self.n, {k - off: 1})
        return Derivation._trusted(self.p, self.n, {name: value}, self.rel)


# -- derivation spaces as kernels ------------------------------------------------
#
# A condition on derivations is a (height, image) pair: image(theta) is the
# sparse vector, below height, of one linear map applied to theta.  A space
# is the kernel of its conditions, stacked in one matrix.


def _condition_space(ncols, unit, conditions):
    """The subspace of Q^ncols on which every condition vanishes, assembled per unit.

    Column k of the one condition matrix stacks, under ``conditions``, the
    images of ``unit(k)``: the k-th coordinate vector's derivation, built
    on its one generator (``_HomLayout.unit``), or pair of them.  The space
    is that matrix's kernel basis; units are built only for a condition.
    Degree 0 of Der and Der_u (whose cycle, indecomposables and rho
    conditions read each unit's values or D(unit)) and the forgetful
    pullback's pair conditions are assembled so; every other degree of
    ``_der_slice`` per Hom slot (``_vanishing_space``).
    """
    tops = [0]
    for height, _ in conditions:
        tops.append(tops[-1] + height)
    ents = []
    for k in range(ncols if conditions else 0):
        u = unit(k)
        for top, (_, image) in zip(tops, conditions):
            ents += [(top + i, k, c) for i, c in image(u).items()]
    return linalg.Subspace.from_kernel(linalg.matrix(tops[-1], ncols, ents), ncols)


def _vanishing_space(p, rel, layout):
    """Degree n != 0 of Der(L rel L'): the kernel of theta -> theta(e) over the listed e.

    The matrix of ``_condition_space`` on ``layout.unit`` and
    ``_vanishing_conditions``, assembled per Hom slot (x, offset) with no
    unit derivation: column offset + k, the unit x -> b_k, stacks u_k(e)
    over the elements e an ElementGenerated sub lists.  Each e's
    ``term_list`` is listed once; each term c * t whose letter mask holds x
    adds c u_k(t) from the slot's one ``TreeMap`` (``_slot_images``), whose
    memo goes with the slot, and ``linalg.matrix`` sums the entries that
    terms share.
    """
    spec = p.sub(rel)
    elements = () if isinstance(spec, GeneratorSplit) else spec.elements
    n = layout.n
    tops, lists = [0], []
    for e in elements:
        lists.append((tops[-1], p.term_list(e)))
        tops.append(tops[-1] + p.dim(e.degree + n))
    ents = []
    for name, deg, off, dim in layout.slots:
        g = p.generators.index[name]
        images = _slot_images(p, n, name, dim).tree
        for top, terms in lists:
            for t, c, mask in terms:
                if mask >> g & 1:
                    for k, image in enumerate(images(t)):
                        ents += [(top + r, off + k, c * x) for r, x in image.items()]
    return linalg.Subspace.from_kernel(linalg.matrix(tops[-1], layout.total, ents), layout.total)


def _slot_images(p, n, x, dim):
    """The TreeMap t -> [u_k(t) for k < dim] over the basis trees t of p, () where all vanish.

    u_k is the degree-n unit sending the generator x to b_k, the k-th basis
    element of degree |x| + n, and every other generator to 0.  A leaf
    gives b_k at x; a tree [t1, t2] gives
    u_k[t1, t2] = [u_k t1, m t2] + (-1)^{n |t1|} [m t1, u_k t2], with m
    = ``tree_element``, each bracket added by ``add_bracket`` into one
    coordinate dict per k.  The empty tuple marks no image, since the
    TreeMap memo takes None for a miss.
    """
    units = [{k: 1} for k in range(dim)]

    def node(t1, t2, f):
        a, b = f(t1), f(t2)
        if not (a or b):
            return ()
        m1, m2 = p.tree_element(t1), p.tree_element(t2)
        d1, d2 = m1.degree, m2.degree
        sign = -1 if n * d1 % 2 else 1
        images = []
        for k in range(dim):
            out = {}
            if a:
                p.add_bracket(out, 1, d1 + n, a[k], d2, m2.coords)
            if b:
                p.add_bracket(out, sign, d1, m1.coords, d2 + n, b[k])
            images.append(nonzeros(out))
        return images

    return TreeMap(p, lambda name: units if name == x else (), node)


def _evaluation(e):
    """The condition image th -> th(e); ``eval_at`` reads only the terms th reaches."""
    return lambda th: th.eval_at(e).coords


def _vanishing_conditions(p, rel, n):
    """theta(e) = 0 for each element e listed by an ElementGenerated sub of p.

    By the Leibniz rule these force vanishing on the generated subalgebra;
    a GeneratorSplit sub is already left out of the Hom coordinates.
    """
    spec = p.sub(rel)
    if isinstance(spec, GeneratorSplit):
        return []
    return [(p.dim(e.degree + n), _evaluation(e)) for e in spec.elements]


def _cycle_condition(p, rel):
    """Degree 0: D(theta) = 0, in the Hom coordinates of degree -1."""
    layout = _HomLayout(p, rel, -1)
    return layout.total, lambda th: layout.to_vector(der_differential(th))


def _indec_condition(p, rel):
    """Degree 0: the induced map on the relative indecomposables vanishes."""
    gens = p.nonsub_generators(rel)
    row = {}
    for s, sd in gens:
        for g, gd in gens:
            if gd == sd:
                row[s, g] = len(row)

    def image(th):
        return {
            row[s, g]: c
            for s, v in th.values.items()
            for g, c in v.linear_part().items()
            if (s, g) in row
        }

    return len(row), image


def _rho_condition(p, rel, rho):
    """Degree 0: rho . theta = 0 on the non-sub generators."""
    row = {}
    for s, deg in p.nonsub_generators(rel):
        for t in rho.target.in_degree(deg + rho.degree):
            row[s, t] = len(row)

    def image(th):
        return {row[s, t]: c for s, v in th.values.items() for t, c in _rho_of(rho, v).items()}

    return len(row), image


class DerSlice(DgLieSlice):
    """A windowed derivation complex with its dg Lie structure.

    Basis elements are Derivation objects, in each degree the kernel basis
    of that degree's stacked conditions (see ``linalg.Subspace``), whose
    matrix ``_der_slice`` assembles per unit in degree 0 and per Hom slot
    in every other degree; the differential and bracket are realized as
    exact matrices and memoized tables in the subspace coordinates.  The
    structure constants sum the tree images memoized by each basis
    derivation's one Leibniz extension, kept for the slice's life, through
    the one evaluator ``_reached_add``: no element per pair or term.  The
    slice lists each basis derivation's values once (``_basis_terms``),
    keyed by (degree, index) and kept for its life, and each pair sums into
    one Hom vector (``_bracket_coords``).  The differential's columns are
    taken on memo-free copies of the basis (``Derivation._trusted`` on the
    same values), so only the bracket fills the basis derivations' memos.
    """

    def __init__(self, p, rel, window, spaces, layouts, zero_below=False):
        self.p = p
        self.rel = rel
        self.spaces = spaces
        self.layouts = layouts
        self.derivations = {}
        self._terms = {}  # memo of ``_basis_terms``
        # the Hom offset of each generator's slot, in generator order, per degree
        self._offsets = {n: [layouts[n].offset.get(x) for x in p.generators.names()]
                         for n in layouts}
        lo, hi = window
        labels = {}
        for n in range(lo, hi + 1):
            vecs = spaces[n].vectors
            self.derivations[n] = [layouts[n].from_vector(v) for v in vecs]
            labels[n] = ["theta%d" % i for i in range(len(vecs))]
        d_blocks = {}
        for n in range(lo + 1, hi + 1):
            cols = []
            for th in self.derivations[n]:
                copy = Derivation._trusted(p, n, th.values, rel)
                cols.append(self.coords(der_differential(copy), n - 1))
            d_blocks[n] = linalg.from_columns(len(self.derivations[n - 1]), cols)
        super().__init__(window, labels, d_blocks, self._bracket_coords, zero_below)

    def coords(self, theta, n):
        """The sparse coordinates of a degree-n derivation in this slice's basis."""
        return self._vector_coords(self.layouts[n].to_vector(theta), n)

    def _vector_coords(self, vec, n):
        c = self.spaces[n].coords(vec)
        if c is None:
            raise SubMismatch(
                "derivation of degree %d is not in the slice subspace" % n
            )
        return c

    def derivation(self, n, coords):
        """The derivation with the sparse coordinates ``coords`` in degree n."""
        return self.layouts[n].from_vector(self.spaces[n].vector(coords))

    def _bracket_coords(self, n, i, m, j):
        """[theta, psi] for basis derivations theta = (n, i), psi = (m, j).

        Its value on each generator (``_bracket_slots``) is summed straight
        into one Hom vector of degree n + m, at that generator's offset;
        ``Subspace.coords`` gives and certifies the result.
        """
        offsets, vec = self._offsets[n + m], {}
        _bracket_slots(self.derivations[n][i], self._basis_terms(n, i),
                       self.derivations[m][j], self._basis_terms(m, j),
                       [vec] * len(offsets), offsets)
        return self._vector_coords(nonzeros(vec), n + m)

    def _basis_terms(self, n, i):
        """The value term lists of basis derivation (n, i), kept for the slice's life."""
        got = self._terms.get((n, i))
        if got is None:
            got = self._terms[n, i] = _value_terms(self.derivations[n][i])
        return got


def _der_slice(p, rel, window, degree0=lambda: [], zero_below=False):
    """Der(L rel L') on [lo, hi], degree 0 also cut by the conditions ``degree0()``.

    Each degree is the kernel of its conditions: the rel-vanishing ones,
    and at degree 0 the cycle condition when the slice is ``zero_below``
    (it vanishes below the window, so D must kill degree 0) and d is
    nonzero, then those ``degree0`` returns.  Degree 0 stacks them per unit
    (``_condition_space``), since those conditions read each unit's values
    or D(unit); every other degree assembles its rel-vanishing matrix by one
    walk per Hom slot (``_vanishing_space``).  A window that reaches a
    free-Lie degree too large to build is refused before any degree is built
    (``_window_degrees``).
    """
    lo, hi = window
    cycles = zero_below and bool(p.differential)
    p.refuse_oversized(_window_degrees(p, rel, window, cycles))
    spaces = {}
    layouts = {}
    for n in range(lo, hi + 1):
        layout = layouts[n] = _HomLayout(p, rel, n)
        if n:
            spaces[n] = _vanishing_space(p, rel, layout)
        else:
            conditions = _vanishing_conditions(p, rel, 0)
            if cycles:
                conditions.append(_cycle_condition(p, rel))
            conditions += degree0()
            spaces[n] = _condition_space(layout.total, layout.unit, conditions)
    return DerSlice(p, rel, (lo, hi), spaces, layouts, zero_below)


def _window_degrees(p, rel, window, cycles):
    """The free-Lie degrees ``_der_slice`` builds, in the order it first reads their sizes.

    Per degree n of the window: each Hom slot's |x| + n (``_HomLayout``),
    then each listed sub element's |e| + n, the target of its condition
    (``_vanishing_space``, ``_vanishing_conditions``); at n = 0 with the
    cycle condition, the Hom slots of degree -1 follow.  The degrees that
    a slot walk reads in between, those of subtrees of e's terms, are left
    to the build.
    """
    lo, hi = window
    spec = p.sub(rel)
    elements = () if isinstance(spec, GeneratorSplit) else spec.elements
    slots = [deg for _, deg in _slot_generators(p, rel)]
    for n in range(lo, hi + 1):
        yield from (deg + n for deg in slots)
        yield from (e.degree + n for e in elements)
        if n == 0 and cycles:
            yield from (deg - 1 for deg in slots)


def der_complex(p, rel, window):
    """Der(L rel L') on a finite degree window, with exact matrices/tables."""
    return _der_slice(p, rel, (int(window[0]), int(window[1])))


def check_rho_chain_map(p, rho):
    """rho must kill d on generators (it kills decomposables by definition)."""
    for name, _ in p.generators.entries:
        if _rho_of(rho, p.d_gen(name)):
            raise RhoNotChainMap("rho(d %s) != 0" % name)


def deru(p, rel, rho, window):
    """The unipotent-part derivation complex tau_{>=0} Der_u(L rel rel).

    Degrees >= 1 carry the full Der(L rel rel)_n.  Degree 0 carries the
    cycles theta with (i) rho . theta = 0 on generators when rho is given
    and (ii) vanishing induced map on the relative indecomposables: the
    kernel basis of these conditions stacked on the rel-vanishing ones, as
    in every other degree.  When d = 0 every derivation is a cycle and (ii)
    is the pr.theta.inc = 0 description.  When d != 0 this is Der_u only if
    the indecomposables representation is semisimple; that hypothesis is
    the caller's to assert.  The window is cut to degrees >= 0, and the
    slice is ``zero_below`` when it starts at 0.  A given rho must kill d
    (RhoNotChainMap otherwise).
    """
    lo, hi = max(0, int(window[0])), int(window[1])
    if rho is not None:
        check_rho_chain_map(p, rho)

    def degree0():
        conditions = [_indec_condition(p, rel)]
        if rho is not None:
            conditions.append(_rho_condition(p, rel, rho))
        return conditions

    # tau_{>=0}: with the degree-0 part cut to cycles (plus conditions), the
    # complex is genuinely zero below the window when it starts at 0
    return _der_slice(p, rel, (lo, hi), degree0, zero_below=lo == 0)


def inclusion_names(inc):
    """{source generator: target generator} of a morphism sending each generator to one."""
    names = {}
    for name, img in inc.images.items():
        lin = img.linear_part()
        if len(img.coords) != 1 or list(lin.values()) != [1]:
            raise SubMismatch("inclusion does not send generators to generators")
        (names[name],) = lin
    return names


def extend_by_zero(theta, inc):
    """theta, a derivation of inc.source, on inc.target: zero off inc's image.

    ``inc`` sends each generator to a generator, as a pushout's inclusions
    do; theta(x) becomes inc(theta(x)) at inc(x).
    """
    if theta.ambient is not inc.source:
        raise SubMismatch("derivation does not live on the inclusion's source")
    names = inclusion_names(inc)
    vals = {names[n]: inc.apply(v) for n, v in theta.values.items()}
    return Derivation(inc.target, theta.degree, vals, check=False)


def glue_derivations(theta, psi, po, inc_p, inc_q, rel=None):
    """The glued derivation on a pushout: extend each side by zero.

    theta lives on inc_p.source, psi on inc_q.source, both vanishing on the
    shared sub; the result is theta~ + psi~ on the pushout, vanishing on
    ``rel`` (checked when given).
    """
    if theta.degree != psi.degree:
        raise ValueError("derivations of different degrees")
    left, right = extend_by_zero(theta, inc_p), extend_by_zero(psi, inc_q)
    overlap = [n for n in left.values if n in right.values]
    if overlap:
        raise SubMismatch("factors overlap at generator %r" % overlap[0])
    vals = {**left.values, **right.values}
    return Derivation(po, theta.degree, vals, rel=rel, check=rel is not None)


class FDerivation:
    """An f-derivation over a morphism m: values on source generators in the target."""

    __slots__ = ("morphism", "degree", "values", "_ext", "_mask")

    def __init__(self, morphism, degree, values):
        self.morphism = morphism
        self.degree = int(degree)
        src = morphism.source
        vals = morphism.target.values_on(src, values, self.degree, "/values")
        self.values = {n: v for n, v in vals.items() if not v.is_zero()}
        self._ext = None
        self._mask = sum(1 << src.generators.index[n] for n in self.values)

    def eval_at(self, e):
        """Twisted Leibniz extension: th[u,v] = [th u, m v] + (-1)^{n|u|}[m u, th v].

        Added into a fresh sum on the terms of e that th reaches
        (``_reached_add``), and built into one element.
        """
        m, out, degree = self.morphism, {}, e.degree + self.degree
        _reached_add(out, 0, 1, self, m.source.term_list(e))
        coords = nonzeros(out)
        return LieElement._trusted(m.target, degree, coords) if coords else m.target.zero(degree)

    def _extension(self):
        """The one twisted Leibniz extension, made on the first evaluation that reaches a term."""
        m = self.morphism
        if self._ext is None:
            self._ext = leibniz_extension(m.source, m.target, self.degree, self.values.get, along=m)
        return self._ext


def homology_map_is_iso(m, lo, hi):
    """Rank check: does m induce isomorphisms H_k for lo <= k <= hi?

    Uses the underlying chain complexes of source and target on a window
    padded by one degree on each side.
    """
    src = lie_chain_slice(m.source, lo - 1, hi + 1)
    tgt = lie_chain_slice(m.target, lo - 1, hi + 1)
    for k in range(lo, hi + 1):
        b_src, reps_src = src.homology_degree(k)
        b_tgt, _ = tgt.homology_degree(k)
        if b_src != b_tgt:
            return False
        boundaries = linalg.columns(tgt.d_matrix(k + 1), tgt.dim(k + 1))
        images = [m.apply(LieElement(m.source, k, r)).coords for r in reps_src]
        if len(linalg.extend_independent(boundaries, images, tgt.dim(k))) != b_tgt:
            return False
    return True


def _intertwining_condition(m, name, deg, n):
    """theta(m name) = m(theta' name) on the pairs (theta, theta'), one of them None."""
    at_mx = _evaluation(m.images[name])

    def image(pair):
        th, thp = pair
        if thp is None:
            return at_mx(th)
        return {i: -c for i, c in m.apply(thp.value(name)).coords.items()}

    return m.target.dim(deg + n), image


def forget_pullback(m, rel_target, rel_source, window):
    """The pullback complex of the forgetful cospan, as a chain slice.

    m : L' -> L must be a quasi-isomorphism of presentations on the window
    (checked by ranks; NotQuasiIso otherwise).  The check runs after both
    Der_u slices are built, so that a window too deep for either is refused
    before any work; a non-quasi-isomorphism m costs both builds before it
    is refused.  The pullback consists of
    pairs (theta, theta') in
    Der_u(L rel rel_target)_n x Der_u(L' rel rel_source)_n with
    theta . m = m . theta' as f-derivations, with the restricted product
    differential.  Returns (slice, left, right, pairs) where left and right
    are the two deru slices and pairs[n] lists the (theta, theta') bases.
    The window is cut to degrees >= 0; when both deru sides vanish below it,
    so does the pullback, and its chain slice gets one zero degree below.
    The pair conditions evaluate memo-free copies of the left basis, so the
    two slices are returned with no memo of that evaluation.
    """
    lo, hi = max(0, int(window[0])), int(window[1])
    qlo = max(1, lo)
    left = deru(m.target, rel_target, None, (lo, hi))
    right = deru(m.source, rel_source, None, (lo, hi))
    if not homology_map_is_iso(m, qlo, max(qlo, hi)):
        raise NotQuasiIso("m is not a quasi-isomorphism on the window")
    src_gens = m.source.generators.entries
    pair_spaces = {}
    pairs = {}
    for n in range(lo, hi + 1):
        nl = len(left.derivations[n])
        units = [(Derivation._trusted(m.target, n, th.values, rel_target), None)
                 for th in left.derivations[n]]
        units += [(None, th) for th in right.derivations[n]]
        conditions = [_intertwining_condition(m, name, deg, n) for name, deg in src_gens]
        space = pair_spaces[n] = _condition_space(len(units), units.__getitem__, conditions)
        pairs[n] = []
        for v in space.vectors:
            vl = {j: x for j, x in v.items() if j < nl}
            vr = {j - nl: x for j, x in v.items() if j >= nl}
            pairs[n].append((left.derivation(n, vl), right.derivation(n, vr)))
    labels = {n: ["pair%d" % i for i in range(pair_spaces[n].dim)] for n in range(lo, hi + 1)}
    product = left.product(right)
    diff = {}
    for n in range(lo + 1, hi + 1):
        d_cols = linalg.columns(product.d_matrix(n), product.dim(n))
        cols = []
        for v in pair_spaces[n].vectors:
            c = pair_spaces[n - 1].coords(combination((x, d_cols[j]) for j, x in v.items()))
            if c is None:
                raise WindowTooNarrow(
                    "pullback differential leaves the pullback at degree %d" % n
                )
            cols.append(c)
        diff[n] = linalg.from_columns(pair_spaces[n - 1].dim, cols)
    slc = ChainComplexSlice((lo, hi), labels, diff, product.zero_below)
    return slc, left, right, pairs
