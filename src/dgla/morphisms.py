"""Morphisms of quasi-free dg Lie presentations, given on generators.

A GeneratorMorphism stores degree-0 images of the source generators in the
target; d-compatibility is a checked property (check_morphism), never an
assumption.  Inversion of relative automorphisms works along the word-length
filtration: invert the linear part, then correct higher word-length terms
until the fixpoint (which is reached because degrees are positive).
``apply`` walks only the terms with a letter that the morphism moves
(``DgLaPresentation.reach``): it fixes every other basis element.
"""

from . import linalg
from .errors import NonMinimalAmbient, NotInvertibleLinearPart, ValidationReport, check_row
from .graded import GradedBasis, GradedLinearMap
from .presentation import GeneratorSplit, LieElement, TreeMap, linear_part_block


class GeneratorMorphism:
    """A degree-0 map of presentations determined by generator images.

    The images are admitted by ``target.values_on`` with shift 0: each
    nonzero image must have its generator's degree, and one that does not
    is a SchemaError at the pointer of its name in ``images``.  A map built
    with ``certify`` keeps ``check_morphism(self, fixed_sub)``, run once on
    the finished map, as ``report``; another has the report None.
    """

    def __init__(self, source, target, images, certify=False, fixed_sub=None):
        self.source = source
        self.target = target
        for name, _ in source.generators.entries:
            if name not in images:
                raise ValueError("missing image for generator %r" % name)
        self.images = target.values_on(source, images, 0, "")
        # the generators not sent to themselves: every one, between two presentations
        self._moved = sum(1 << source.generators.index[n] for n, img in self.images.items()
                          if img != source.gen(n))
        self.tree_map = TreeMap(
            source, self.images.__getitem__, lambda u, v, f: target.bracket(f(u), f(v))
        )
        self.report = check_morphism(self, fixed_sub) if certify else None

    @classmethod
    def identity(cls, p):
        return cls(p, p, {n: p.gen(n) for n, _ in p.generators.entries})

    def apply(self, x):
        """Image of an element: substitute generator images, renormalize.

        Only the terms whose letters meet a moved generator are walked
        (``DgLaPresentation.reach``); the rest are kept as they are.
        """
        reached, out = self.source.reach(x, self._moved)
        if not reached:
            return x if out else self.target.zero(x.degree)
        for c, v in self.tree_map.terms(x.degree, reached):
            linalg.accumulate(out, c, v.coords)
        return LieElement._trusted(self.target, x.degree, linalg.nonzeros(out))

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
        return linear_part_block(
            self.images.__getitem__,
            self.source.generators.in_degree(degree),
            self.target.generators.in_degree(degree),
        )


def check_morphism(f, fixed_sub=None, rho=None):
    """Verify a GeneratorMorphism; returns a report, never raises.

    Reports degree preservation, which GeneratorMorphism checks when it is
    built.  Checks d-commutation on generators (normal forms equal),
    identity on the fixed sub, and rho . f = rho on generators when a rho
    (GradedLinearMap on the generator basis) is supplied.
    """
    src, tgt = f.source, f.target
    checks = [check_row("degree_preserved", ())]
    checks.append(check_row("d_commutes", (
        name for name, _ in src.generators.entries
        if f.apply(src.d_gen(name)) != tgt.differential_of(f.images[name])
    )))
    if fixed_sub is not None:
        spec = src.sub(fixed_sub)
        if isinstance(spec, GeneratorSplit):
            moved = (n for n in spec.names if f.images[n] != tgt.gen(n))
        else:
            moved = (
                "element %d" % k for k, e in enumerate(spec.elements)
                if f.apply(e) != tgt.normal_form(e)
            )
        checks.append(check_row("fixes_sub", moved))
    if rho is not None:
        checks.append(check_row("rho_invariant", (
            name for name, _ in src.generators.entries
            if _rho_of(rho, f.images[name]) != _rho_of(rho, src.gen(name))
        )))
    return ValidationReport(checks)


def _rho_of(rho, element):
    """Apply a generator-level functional to the linear part of an element.

    rho is a GradedLinearMap whose source is the generator basis; it kills
    decomposables (maps of dg Lie algebras into abelian targets do).
    Returns a dict (target_name -> coefficient).
    """
    if element.is_zero():
        return {}
    return _rho_of_linear(rho, element.degree, element.linear_part())


def _rho_of_linear(rho, d, lin):
    """rho on a degree-d element's linear part ``lin`` (generator name -> coefficient)."""
    if not lin:
        return {}
    src = rho.source.in_degree(d)
    tgt = rho.target.in_degree(d + rho.degree)
    if not src or not tgt:
        return {}
    vec = {k: lin[n] for k, n in enumerate(src) if n in lin}
    return {tgt[i]: c for i, c in linalg.matvec(rho.block(d), vec).items()}


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
    basis = GradedBasis(p.nonsub_generators(sub))
    out = GradedLinearMap(basis, basis, degree)
    for d in basis.degrees():
        src = basis.in_degree(d)
        tgt = basis.in_degree(d + degree)
        if src and tgt:
            out.set_block(d, linear_part_block(value, src, tgt))
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

    g0_images = {}
    for d in sorted({deg for _, deg in p.generators.entries}):
        inv = linalg.inverse(f.linear_block(d))
        if inv is None:
            raise NotInvertibleLinearPart("linear part singular in degree %d" % d)
        names = p.generators.in_degree(d)
        terms = {n: [] for n in names}
        for i, j, c in linalg.entries(inv):
            terms[names[j]].append((c, names[i]))
        for n in names:
            g0_images[n] = p.normal_form(terms[n])
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
