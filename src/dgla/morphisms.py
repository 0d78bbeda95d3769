"""Morphisms of quasi-free dg Lie presentations, given on generators.

A GeneratorMorphism stores degree-0 images of the source generators in the
target; d-compatibility is a checked property (check_morphism), never an
assumption.  Inversion of relative automorphisms works along the word-length
filtration: invert the linear part, then correct higher word-length terms
until the fixpoint (which is reached because degrees are positive).
"""

from fractions import Fraction

from . import linalg
from .errors import NonMinimalAmbient, NotInvertibleLinearPart
from .graded import GradedBasis, GradedLinearMap
from .presentation import GeneratorSplit, TreeMap


class GeneratorMorphism:
    """A degree-0 map of presentations determined by generator images."""

    def __init__(self, source, target, images):
        self.source = source
        self.target = target
        self.images = {}
        for name, _ in source.generators.entries:
            if name not in images:
                raise ValueError("missing image for generator %r" % name)
        for name, img in images.items():
            if name not in source.generators.index:
                raise ValueError("image for unknown generator %r" % name)
            img = target.normal_form(img)
            self.images[name] = img
        self.tree_map = TreeMap(
            source, self.images.__getitem__, lambda u, v, f: target.bracket(f(u), f(v))
        )

    @classmethod
    def identity(cls, p):
        return cls(p, p, {n: p.gen(n) for n, _ in p.generators.entries})

    def apply(self, x):
        """Image of an element: substitute generator images, renormalize."""
        return self.tree_map(x, self.target.zero(x.degree))

    def compose(self, other):
        """self after other (other's target must be self's source)."""
        if other.target is not self.source:
            raise ValueError("composition mismatch")
        return GeneratorMorphism(
            other.source,
            self.target,
            {n: self.apply(img) for n, img in other.images.items()},
        )

    def __eq__(self, other):
        if not isinstance(other, GeneratorMorphism):
            return NotImplemented
        return (
            self.source is other.source
            and self.target is other.target
            and self.images == other.images
        )

    def linear_block(self, degree):
        """Matrix of the linear part on degree-d generators (rows = target)."""
        src = self.source.generators.in_degree(degree)
        tgt = self.target.generators.in_degree(degree)
        m = [[Fraction(0)] * len(src) for _ in tgt]
        for j, n in enumerate(src):
            lin = self.images[n].linear_part()
            for tn, c in lin.items():
                if tn in tgt:
                    m[tgt.index(tn)][j] = c
        return m


def check_morphism(f, fixed_sub=None, rho=None):
    """Verify a GeneratorMorphism; returns a report, never raises.

    Checks degree preservation, d-commutation on generators (normal forms
    equal), identity on the fixed sub, and rho . f = rho on generators when
    a rho (GradedLinearMap on the generator basis) is supplied.
    """
    checks = []
    ok_deg = True
    for name, deg in f.source.generators.entries:
        img = f.images[name]
        if not img.is_zero() and img.degree != deg:
            checks.append(("degree_preserved", False, name))
            ok_deg = False
    if ok_deg:
        checks.append(("degree_preserved", True, None))
    ok_d = True
    for name, _ in f.source.generators.entries:
        lhs = f.apply(f.source.d_gen(name))
        rhs = f.target.differential_of(f.images[name])
        if lhs != rhs:
            checks.append(("d_commutes", False, name))
            ok_d = False
            break
    if ok_d:
        checks.append(("d_commutes", True, None))
    if fixed_sub is not None:
        spec = f.source.sub(fixed_sub)
        ok_fix = True
        if isinstance(spec, GeneratorSplit):
            for n in spec.names:
                expected = f.target.gen(n)
                if f.images[n] != expected:
                    checks.append(("fixes_sub", False, n))
                    ok_fix = False
                    break
        else:
            for k, e in enumerate(spec.elements):
                img = f.apply(e)
                expected = f.target.normal_form(e.terms())
                if img != expected:
                    checks.append(("fixes_sub", False, "element %d" % k))
                    ok_fix = False
                    break
        if ok_fix:
            checks.append(("fixes_sub", True, None))
    if rho is not None:
        ok_rho = True
        for name, _ in f.source.generators.entries:
            if _rho_of(rho, f.images[name]) != _rho_of(rho, f.source.gen(name) if f.source is f.target else f.source.gen(name)):
                checks.append(("rho_invariant", False, name))
                ok_rho = False
                break
        if ok_rho:
            checks.append(("rho_invariant", True, None))
    from .presentation import ValidationReport

    return ValidationReport(checks)


def _rho_of(rho, element):
    """Apply a generator-level functional to the linear part of an element.

    rho is a GradedLinearMap whose source is the generator basis; it kills
    decomposables (maps of dg Lie algebras into abelian targets do).
    Returns a dict (target_name -> Fraction).
    """
    out = {}
    if element.is_zero():
        return out
    lin = element.linear_part()
    if not lin:
        return out
    d = element.degree
    src = rho.source.in_degree(d)
    tgt = rho.target.in_degree(d + rho.degree)
    if not src or not tgt:
        return out
    vec = [lin.get(n, Fraction(0)) for n in src]
    img = rho.apply(d, vec)
    for i, c in enumerate(img):
        if c:
            out[tgt[i]] = c
    return out


def indec_action(x, sub=None):
    """Induced linear map on relative indecomposables.

    ``x`` is a GeneratorMorphism fixing the sub (degree 0) or a Derivation
    vanishing on it (degree |x|).  Returns a GradedLinearMap on the
    indecomposables basis (the non-sub generators).
    """
    from .derivations import Derivation

    if isinstance(x, GeneratorMorphism):
        p = x.source
        degree = 0
        value = lambda n: x.images[n]
    elif isinstance(x, Derivation):
        p = x.ambient
        degree = x.degree
        value = lambda n: x.value(n)
    else:
        raise TypeError("expected GeneratorMorphism or Derivation")
    gens = p.nonsub_generators(sub)
    basis = GradedBasis(gens)
    keep = {n for n, _ in gens}
    out = GradedLinearMap(basis, basis, degree)
    for d in sorted({deg for _, deg in gens}):
        src = basis.in_degree(d)
        tgt = basis.in_degree(d + degree)
        if not src or not tgt:
            continue
        m = [[Fraction(0)] * len(src) for _ in tgt]
        for j, n in enumerate(src):
            lin = value(n).linear_part()
            for tn, c in lin.items():
                if tn in keep and tn in tgt:
                    m[tgt.index(tn)][j] = c
        out.set_block(d, m)
    return out


def invert_automorphism(f, rel=None):
    """Exact inverse of a relative automorphism of a minimal presentation.

    Works by the word-length filtration: invert the linear part, then
    correct word-length >= 2 terms by iterating u(x) := x - u(h(x) - x)
    until the fixpoint, where h has identity linear part.  The result g
    satisfies g.compose(f) == f.compose(g) == identity exactly.
    """
    if f.source is not f.target:
        raise ValueError("inversion needs an endomorphism")
    p = f.source
    rep = check_morphism(f, fixed_sub=rel)
    if not rep.passed:
        raise ValueError("not a relative morphism: %r" % rep.failures())
    if not p.is_minimal(rel):
        raise NonMinimalAmbient("presentation is not minimal relative to %r" % rel)

    lin_inverse_blocks = {}
    for d in sorted({deg for _, deg in p.generators.entries}):
        block = f.linear_block(d)
        n = len(block)
        if n == 0:
            continue
        aug = [row + ident_row for row, ident_row in zip(block, linalg.identity_matrix(n))]
        red, pivots = linalg.rref(aug, 2 * n)
        if pivots[:n] != list(range(n)):
            raise NotInvertibleLinearPart("linear part singular in degree %d" % d)
        lin_inverse_blocks[d] = [row[n:] for row in red[:n]]

    g0_images = {}
    for d, names in ((d, p.generators.in_degree(d)) for d in sorted({deg for _, deg in p.generators.entries})):
        inv = lin_inverse_blocks.get(d)
        for j, n in enumerate(names):
            terms = []
            for i, tn in enumerate(names):
                c = inv[i][j]
                if c:
                    terms.append((c, tn))
            g0_images[n] = p.normal_form(terms)
    g0 = GeneratorMorphism(p, p, g0_images)

    h = g0.compose(f)
    eta = {n: h.images[n] - p.gen(n) for n, _ in p.generators.entries}
    u = GeneratorMorphism.identity(p)
    max_rounds = max(d for _, d in p.generators.entries) + 2
    for _ in range(max_rounds):
        new_images = {n: p.gen(n) - u.apply(eta[n]) for n, _ in p.generators.entries}
        if new_images == u.images:
            break
        u = GeneratorMorphism(p, p, new_images)
    else:
        raise AssertionError("inversion fixpoint not reached")

    g = u.compose(g0)
    ident = GeneratorMorphism.identity(p)
    if g.compose(f) != ident or f.compose(g) != ident:
        raise AssertionError("inverse verification failed")
    return g
