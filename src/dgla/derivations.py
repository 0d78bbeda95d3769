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

from fractions import Fraction

from . import linalg
from .errors import ModeUnavailable, RhoNotChainMap, SubMismatch
from .morphisms import _rho_of
from .presentation import ElementGenerated, GeneratorSplit, LieElement, leibniz_extension
from .slices import DgLieSlice


class Derivation:
    """A degree-homogeneous derivation given by its generator values."""

    __slots__ = ("ambient", "rel", "degree", "values", "_ext")

    def __init__(self, ambient, degree, values, rel=None, check=True):
        self.ambient = ambient
        self.degree = int(degree)
        self.rel = rel
        self.values = {}
        # the Leibniz extension and its memo, built on the first eval_at so
        # that derivations never evaluated (most der_bracket results) carry none
        self._ext = None
        for name, v in values.items():
            if name not in ambient.generators.index:
                raise ValueError("value on unknown generator %r" % name)
            v = ambient.normal_form(v)
            if not v.is_zero():
                expected = ambient.generators.degree(name) + self.degree
                if v.degree != expected:
                    raise ValueError(
                        "value on %r has degree %d, expected %d"
                        % (name, v.degree, expected)
                    )
                self.values[name] = v
        if check and rel is not None:
            self._check_rel()

    def _check_rel(self):
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
        vals = {n: self.value(n) + other.value(n) for n in names}
        return Derivation(self.ambient, self.degree, vals, rel=self.rel, check=False)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, q):
        return Derivation(
            self.ambient,
            self.degree,
            {n: v.scale(q) for n, v in self.values.items()},
            rel=self.rel,
            check=False,
        )

    def _compat(self, other):
        if self.ambient is not other.ambient:
            raise ValueError("derivations on different presentations")
        if self.degree != other.degree:
            raise ValueError("derivations of different degrees")

    def __eq__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        if self.ambient is not other.ambient or self.degree != other.degree:
            return False
        names = set(self.values) | set(other.values)
        return all(self.value(n) == other.value(n) for n in names)

    def eval_at(self, e):
        """Leibniz extension of the generator values, in normal form."""
        if self._ext is None:
            self._ext = leibniz_extension(
                self.ambient, self.ambient, self.degree, self.values.get
            )
        return self._ext(e, self.ambient.zero(e.degree + self.degree))


def der_bracket(theta, psi):
    """[theta, psi] = theta.psi - (-1)^{|theta||psi|} psi.theta."""
    if theta.ambient is not psi.ambient:
        raise SubMismatch("derivations on different presentations")
    if theta.rel != psi.rel:
        raise SubMismatch("derivations relative to different subs")
    p = theta.ambient
    sign = -1 if (theta.degree * psi.degree) % 2 else 1
    names = set(p.generators.index)
    vals = {}
    for n in names:
        v = theta.eval_at(psi.value(n)) - psi.eval_at(theta.value(n)).scale(sign)
        if not v.is_zero():
            vals[n] = v
    return Derivation(p, theta.degree + psi.degree, vals, rel=theta.rel, check=False)


def der_differential(theta):
    """D(theta) = d.theta - (-1)^{|theta|} theta.d, again rel the same sub."""
    p = theta.ambient
    sign = -1 if theta.degree % 2 else 1
    vals = {}
    for n, _ in p.generators.entries:
        v = p.differential_of(theta.value(n)) - theta.eval_at(p.d_gen(n)).scale(sign)
        if not v.is_zero():
            vals[n] = v
    return Derivation(p, theta.degree - 1, vals, rel=theta.rel, check=False)


def eval_at(theta, e):
    return theta.eval_at(e)


# -- Hom coordinates -----------------------------------------------------------


class _HomLayout:
    """Coordinates on Hom(determined generators, L_{* + n})."""

    def __init__(self, p, rel, n):
        self.p = p
        self.rel = rel
        self.n = n
        spec = p.sub(rel)
        if isinstance(spec, GeneratorSplit):
            skip = set(spec.names)
        else:
            skip = set()
        self.slots = []
        offset = 0
        for name, deg in p.generators.entries:
            if name in skip:
                continue
            dim = p.dim(deg + n)
            self.slots.append((name, deg, offset, dim))
            offset += dim
        self.total = offset

    def to_vector(self, theta):
        out = [Fraction(0)] * self.total
        for name, deg, off, dim in self.slots:
            v = theta.values.get(name)
            if v is not None:
                for i, c in v.coords.items():
                    out[off + i] = c
        return out

    def from_vector(self, vec, check_rel=False):
        vals = {}
        for name, deg, off, dim in self.slots:
            coords = {i: vec[off + i] for i in range(dim) if vec[off + i]}
            if coords:
                vals[name] = LieElement(self.p, deg + self.n, coords)
        return Derivation(
            self.p, self.n, vals, rel=self.rel, check=check_rel
        )

    def unit(self, k):
        return self.from_vector(linalg.unit_vector(self.total, k))


def _der_space(p, rel, n):
    """Subspace of Hom coordinates cut out by the rel-vanishing conditions."""
    layout = _HomLayout(p, rel, n)
    spec = p.sub(rel)
    if isinstance(spec, GeneratorSplit) or not spec.elements:
        return layout, linalg.Subspace.full(layout.total)
    rows = []
    for e in spec.elements:
        tgt_dim = p.dim(e.degree + n)
        if tgt_dim == 0:
            continue
        block = [[Fraction(0)] * layout.total for _ in range(tgt_dim)]
        for k in range(layout.total):
            img = layout.unit(k).eval_at(e)
            for i, c in img.coords.items():
                block[i][k] = c
        rows.extend(block)
    if not rows:
        return layout, linalg.Subspace.full(layout.total)
    return layout, linalg.Subspace.from_kernel(rows, layout.total)


class DerSlice(DgLieSlice):
    """A windowed derivation complex with its dg Lie structure.

    Basis elements are Derivation objects (in RREF order of the defining
    subspace); the differential and bracket are realized as exact matrices
    and memoized tables in the subspace coordinates.
    """

    def __init__(self, p, rel, window, spaces, layouts):
        self.p = p
        self.rel = rel
        self.spaces = spaces
        self.layouts = layouts
        self.derivations = {}
        lo, hi = window
        labels = {}
        for n in range(lo, hi + 1):
            vecs = spaces[n].vectors
            self.derivations[n] = [layouts[n].from_vector(v) for v in vecs]
            labels[n] = ["theta%d" % i for i in range(len(vecs))]
        d_blocks = {}
        for n in range(lo + 1, hi + 1):
            cols = len(self.derivations[n])
            rows = len(self.derivations[n - 1])
            m = linalg.zero_matrix(rows, cols)
            for j, th in enumerate(self.derivations[n]):
                img = der_differential(th)
                c = self.coords(img, n - 1)
                for i, x in enumerate(c):
                    m[i][j] = x
            d_blocks[n] = m
        super().__init__(window, labels, d_blocks, bracket_fn=self._bracket_coords)

    def coords(self, theta, degree=None):
        """Coordinates of a derivation in this slice's basis at its degree."""
        n = theta.degree if degree is None else degree
        vec = self.layouts[n].to_vector(theta)
        c = self.spaces[n].coords(vec)
        if c is None:
            raise SubMismatch(
                "derivation of degree %d is not in the slice subspace" % n
            )
        return c

    def derivation(self, n, vector):
        """The derivation with the given coordinates in degree n."""
        hom = self.spaces[n].vector(vector)
        return self.layouts[n].from_vector(hom)

    def _bracket_coords(self, n, i, m, j):
        br = der_bracket(self.derivations[n][i], self.derivations[m][j])
        return self.coords(br, n + m)


def der_complex(p, rel, window):
    """Der(L rel L') on a finite degree window, with exact matrices/tables."""
    lo, hi = int(window[0]), int(window[1])
    spaces = {}
    layouts = {}
    for n in range(lo, hi + 1):
        layout, space = _der_space(p, rel, n)
        layouts[n] = layout
        spaces[n] = space
    return DerSlice(p, rel, (lo, hi), spaces, layouts)


def _indec_rows(p, rel, layout):
    """Rows expressing 'the induced map on indecomposables vanishes'."""
    gens = p.nonsub_generators(rel)
    keep = {n for n, _ in gens}
    rows = []
    n = layout.n
    for name, deg, off, dim in layout.slots:
        if name not in keep:
            continue
        tgt = [g for g, gd in gens if gd == deg + n]
        if not tgt:
            continue
        basis = p.lie_basis(deg + n)
        for t in tgt:
            row = [Fraction(0)] * layout.total
            for i in range(dim):
                tree = basis[i].tree
                if isinstance(tree, int) and p.generators.entries[tree][0] == t:
                    row[off + i] = Fraction(1)
            rows.append(row)
    return rows


def _rho_rows(p, rho, layout):
    """Rows expressing rho . theta = 0 on generators."""
    rows = []
    n = layout.n
    for name, deg, off, dim in layout.slots:
        basis = p.lie_basis(deg + n)
        src = rho.source.in_degree(deg + n)
        tgt = rho.target.in_degree(deg + n + rho.degree)
        if not src or not tgt:
            continue
        block = rho.block(deg + n)
        for r in range(len(tgt)):
            row = [Fraction(0)] * layout.total
            any_nonzero = False
            for i in range(dim):
                tree = basis[i].tree
                if isinstance(tree, int):
                    gname = p.generators.entries[tree][0]
                    if gname in src:
                        c = block[r][src.index(gname)]
                        if c:
                            row[off + i] = c
                            any_nonzero = True
            if any_nonzero:
                rows.append(row)
    return rows


def check_rho_chain_map(p, rho):
    """rho must kill d on generators (it kills decomposables by definition)."""
    for name, _ in p.generators.entries:
        if _rho_of(rho, p.d_gen(name)):
            raise RhoNotChainMap("rho(d %s) != 0" % name)


def deru(p, rel, rho, window, mode="semisimple-indec"):
    """The unipotent-part derivation complex tau_{>=0} Der_u(L rel rel).

    Degrees >= 1 carry the full Der(L rel rel)_n.  Degree 0 carries the
    cycles theta with (i) rho . theta = 0 on generators when rho is given
    and (ii) vanishing induced map on the relative indecomposables.  In
    trivial-differential mode (only legal when d = 0), the cycle condition
    is vacuous and (ii) is the pr.theta.inc = 0 description.
    """
    lo, hi = int(window[0]), int(window[1])
    lo = max(lo, 0)
    if mode not in ("semisimple-indec", "trivial-differential"):
        raise ValueError("unknown mode %r" % mode)
    if mode == "trivial-differential" and p.differential:
        raise ModeUnavailable(
            "trivial-differential mode on a presentation with nonzero d"
        )
    if rho is not None:
        check_rho_chain_map(p, rho)
    spaces = {}
    layouts = {}
    for n in range(lo, hi + 1):
        layout, space = _der_space(p, rel, n)
        layouts[n] = layout
        if n == 0:
            rows = []
            if mode == "semisimple-indec" and p.differential:
                lay_m1, _ = _der_space(p, rel, -1)
                dmat = []
                for k in range(layout.total):
                    img = der_differential(layout.unit(k))
                    dmat.append(lay_m1.to_vector(img))
                for r in range(lay_m1.total):
                    rows.append([dmat[k][r] for k in range(layout.total)])
            rows.extend(_indec_rows(p, rel, layout))
            if rho is not None:
                rows.extend(_rho_rows(p, rho, layout))
            if rows:
                cond = linalg.Subspace.from_kernel(rows, layout.total)
                space = space.intersection(cond)
        spaces[n] = space
    slc = DerSlice(p, rel, (lo, hi), spaces, layouts)
    # tau_{>=0}: with the degree-0 part cut to cycles (plus conditions), the
    # complex is genuinely zero below the window when it starts at 0
    slc.zero_below = lo == 0
    return slc


def glue_derivations(theta, psi, po, inc_p, inc_q, rel=None):
    """The glued derivation on a pushout: extend each side by zero.

    theta lives on inc_p.source, psi on inc_q.source, both vanishing on the
    shared sub; the result is theta~ + psi~ on the pushout, vanishing on
    ``rel`` (checked when given).
    """
    if theta.ambient is not inc_p.source or psi.ambient is not inc_q.source:
        raise SubMismatch("derivations do not live on the pushout's factors")
    if theta.degree != psi.degree:
        raise ValueError("derivations of different degrees")
    vals = {}
    for name, v in theta.values.items():
        img_name = inc_p.images[name]
        lin = img_name.linear_part()
        if len(lin) != 1 or list(lin.values())[0] != 1:
            raise SubMismatch("inclusion does not send generators to generators")
        vals[list(lin.keys())[0]] = inc_p.apply(v)
    for name, v in psi.values.items():
        img_name = inc_q.images[name]
        lin = img_name.linear_part()
        if len(lin) != 1 or list(lin.values())[0] != 1:
            raise SubMismatch("inclusion does not send generators to generators")
        gname = list(lin.keys())[0]
        if gname in vals:
            raise SubMismatch("factors overlap at generator %r" % gname)
        vals[gname] = inc_q.apply(v)
    return Derivation(po, theta.degree, vals, rel=rel, check=rel is not None)


class FDerivation:
    """An f-derivation over a morphism m: values on source generators in the target."""

    __slots__ = ("morphism", "degree", "values", "_ext")

    def __init__(self, morphism, degree, values):
        self.morphism = morphism
        self.degree = int(degree)
        self.values = {}
        self._ext = None
        src = morphism.source
        tgt = morphism.target
        for name, v in values.items():
            v = tgt.normal_form(v)
            if not v.is_zero():
                expected = src.generators.degree(name) + self.degree
                if v.degree != expected:
                    raise ValueError("f-derivation value degree mismatch at %r" % name)
                self.values[name] = v

    def eval_at(self, e):
        """Twisted Leibniz extension: th[u,v] = [th u, m v] + (-1)^{n|u|}[m u, th v]."""
        m = self.morphism
        if self._ext is None:
            self._ext = leibniz_extension(
                m.source, m.target, self.degree, self.values.get, along=m
            )
        return self._ext(e, m.target.zero(e.degree + self.degree))


def f_der_dims(m, rel_source, window):
    """Dimensions of the f-derivation complex Der_m(L', L rel A') per degree.

    Coordinates: values on the non-rel source generators, in the target.
    For an ElementGenerated rel, the finitely many equations th(element) = 0
    are imposed.
    """
    src = m.source
    tgt = m.target
    spec = src.sub(rel_source)
    dims = {}
    for n in range(window[0], window[1] + 1):
        if isinstance(spec, GeneratorSplit):
            skip = set(spec.names)
            dims[n] = sum(
                tgt.dim(d + n) for name, d in src.generators.entries if name not in skip
            )
        else:
            slots = [(name, d) for name, d in src.generators.entries]
            total = sum(tgt.dim(d + n) for _, d in slots)
            rows = []
            for e in spec.elements:
                tdim = tgt.dim(e.degree + n)
                if tdim == 0:
                    continue
                block = [[Fraction(0)] * total for _ in range(tdim)]
                off = 0
                for name, d in slots:
                    for i in range(tgt.dim(d + n)):
                        vec = linalg.unit_vector(tgt.dim(d + n), i)
                        unit = FDerivation(m, n, {name: tgt.element_from_vector(d + n, vec)})
                        img = unit.eval_at(e)
                        for r, c in img.coords.items():
                            block[r][off + i] = c
                    off += tgt.dim(d + n)
                rows.extend(block)
            dims[n] = total - (linalg.rank(rows, total) if rows else 0)
    return dims


def homology_map_is_iso(m, lo, hi):
    """Rank check: does m induce isomorphisms H_k for lo <= k <= hi?

    Uses the underlying chain complexes of source and target on a window
    padded by one degree on each side.
    """
    from .presentation import lie_chain_slice

    src = lie_chain_slice(m.source, lo - 1, hi + 1)
    tgt = lie_chain_slice(m.target, lo - 1, hi + 1)
    for k in range(lo, hi + 1):
        b_src, reps_src = src.homology_degree(k)
        b_tgt, _ = tgt.homology_degree(k)
        if b_src != b_tgt:
            return False
        boundary_cols = linalg.transpose(
            tgt.d_matrix(k + 1), tgt.dim(k + 1)
        ) if tgt.dim(k + 1) else []
        base = list(boundary_cols)
        images = []
        for r in reps_src:
            elt = m.source.element_from_vector(k, r)
            img = m.apply(elt)
            images.append(img.vector())
        r0 = linalg.rank(base, tgt.dim(k)) if base else 0
        r1 = linalg.rank(base + images, tgt.dim(k)) if base + images else 0
        if r1 - r0 != b_tgt:
            return False
    return True


def forget_pullback(m, rel_target, rel_source, window, rho_target=None,
                    rho_source=None, mode_target="semisimple-indec",
                    mode_source="semisimple-indec", check_qiso=True):
    """The pullback complex of the forgetful cospan, as a chain slice.

    m : L' -> L is a quasi-isomorphism of presentations; the pullback
    consists of pairs (theta, theta') in
    Der_u(L rel rel_target)_n x Der_u(L' rel rel_source)_n with
    theta . m = m . theta' as f-derivations, with the restricted product
    differential.  Returns (slice, left, right, pairs) where left and right
    are the two deru slices and pairs[n] lists the (theta, theta') bases.
    """
    from .errors import NotQuasiIso, WindowTooNarrow
    from .graded import ChainComplexSlice, GradedBasis

    lo, hi = int(window[0]), int(window[1])
    if check_qiso:
        qlo = max(1, lo)
        if not homology_map_is_iso(m, qlo, max(qlo, hi)):
            raise NotQuasiIso("m is not a quasi-isomorphism on the window")
    left = deru(m.target, rel_target, rho_target, (lo, hi), mode=mode_target)
    right = deru(m.source, rel_source, rho_source, (lo, hi), mode=mode_source)
    src_gens = m.source.generators.entries
    pair_spaces = {}
    pairs = {}
    for n in range(lo, hi + 1):
        nl = len(left.derivations[n])
        nr = len(right.derivations[n])
        rows = []
        for name, deg in src_gens:
            tdim = m.target.dim(deg + n)
            if tdim == 0:
                continue
            block = [[Fraction(0)] * (nl + nr) for _ in range(tdim)]
            mx = m.images[name]
            for j, th in enumerate(left.derivations[n]):
                img = th.eval_at(mx)
                for i, c in img.coords.items():
                    block[i][j] = c
            for j, thp in enumerate(right.derivations[n]):
                img = m.apply(thp.value(name))
                for i, c in img.coords.items():
                    block[i][nl + j] -= c
            rows.extend(block)
        if rows:
            space = linalg.Subspace.from_kernel(rows, nl + nr)
        else:
            space = linalg.Subspace.full(nl + nr)
        pair_spaces[n] = space
        pairs[n] = [
            (
                left.derivation(n, v[:nl]),
                right.derivation(n, v[nl:]),
            )
            for v in space.vectors
        ]
    spaces = {
        n: GradedBasis([("pair%d" % i, n) for i in range(pair_spaces[n].dim)])
        for n in range(lo, hi + 1)
    }
    diff = {}
    for n in range(lo + 1, hi + 1):
        nl = len(left.derivations[n])
        rows = pair_spaces[n - 1].dim
        cols = pair_spaces[n].dim
        mmat = linalg.zero_matrix(rows, cols)
        dl = left.d_matrix(n)
        dr = right.d_matrix(n)
        for j, v in enumerate(pair_spaces[n].vectors):
            dv = linalg.matvec(dl, v[:nl]) + linalg.matvec(dr, v[nl:])
            c = pair_spaces[n - 1].coords(dv)
            if c is None:
                raise WindowTooNarrow(
                    "pullback differential leaves the pullback at degree %d" % n
                )
            for i, x in enumerate(c):
                mmat[i][j] = x
        diff[n] = mmat
    slc = ChainComplexSlice((lo, hi), spaces, diff)
    return slc, left, right, pairs
