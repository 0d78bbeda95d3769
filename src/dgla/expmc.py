"""Exponential groups, Maurer-Cartan machinery, and interval homotopies.

BCH has one path for every class: each weight's terms are read once in the
Lyndon basis on {x < y} and summed from the images that the class check
takes too.  The nilpotency class caps the weight exactly, so every series
here is a finite exact sum.  e(theta) and both gauge actions take their
terms from one loop, ``_series``, which caps the nonzero terms, and sum
them once (``linalg.accumulate``).  The class itself is certified on a
spanning set of each weight of the lower central series (``_check_class``
for a pair, on the images of the two-letter Lyndon basis;
``NilpotentElementGroup`` for all of degree 0).

On derivations the loop of class check, BCH and exp reuses its own work:
``der_bracket`` takes each bracket of two operands once, so ``bch`` reads
the brackets that ``_check_class`` took; ``eval_at`` walks only the trees
a derivation reaches; and e(-theta), the inverse of e(theta), evaluates
-theta through theta (``Derivation.scale``), whose tree memo e(theta) has
already filled.
"""

from fractions import Fraction
from itertools import chain
from math import factorial

from .errors import (
    AxiomFailure,
    ClassExceeded,
    NotNilpotent,
    SchemaError,
    ValidationReport,
    check_row,
)
from .linalg import accumulate, combination, exact, extend_independent
from .morphisms import GeneratorMorphism
from .presentation import DgLaPresentation, GeneratorSplit, TreeMap, common_degree
from .slices import SliceElement


# -- Baker-Campbell-Hausdorff ----------------------------------------------------

# The free Lie algebra on x < y.  Both letters have one even degree, so every
# sign is the degree-0 sign, and the basis trees of degree 2w are the standard
# bracketings of the Lyndon words of weight w.
_FREE_XY = DgLaPresentation([("x", 2), ("y", 2)])
_BCH_TERMS = {}


def _bch_terms(weight):
    """[(c, basis tree of _FREE_XY)]: the weight-w part of BCH(x, y) in the Lyndon basis.

    It is the weight-w part of log(e^x e^y) = sum (-1)^(n-1) Z^n / n in the
    free associative algebra, with Z = e^x e^y - 1.  That is a Lie element,
    so by the Dynkin-Specht-Wever map (Dynkin 1947) it is 1/w times the sum
    of its words' coefficients on their right-nested brackets, which
    ``normal_form`` writes in the basis.  Memoized per weight, on first use.
    """
    got = _BCH_TERMS.get(weight)
    if got is None:
        blocks = {"x" * r + "y" * s: Fraction(1, factorial(r) * factorial(s))
                  for r in range(weight + 1) for s in range(weight + 1 - r) if r + s}
        power, pairs = {"": 1}, []
        for n in range(1, weight + 1):
            step = {}
            for u, cu in power.items():
                accumulate(step, cu, {u + v: c for v, c in blocks.items()
                                      if len(u) + len(v) <= weight})
            power = step
            for word, c in power.items():
                if len(word) == weight:
                    tree = word[-1]
                    for a in reversed(word[:-1]):
                        tree = (a, tree)
                    pairs.append((c * Fraction((-1) ** (n - 1), n * weight), tree))
        basis = _FREE_XY.lie_basis(2 * weight)
        got = _BCH_TERMS[weight] = [
            (c, basis[i].tree) for i, c in sorted(_FREE_XY.normal_form(pairs).coords.items())
        ]
    return got


def _images(x, y, bracket):
    """The TreeMap of x and y over the basis trees of ``_FREE_XY``.

    The image of a tree is the bracket of its factors' images, and zero,
    with no bracket taken, when a factor is zero.
    """
    def node(u, v, f):
        a, b = f(u), f(v)
        return a if a.is_zero() else b if b.is_zero() else bracket(a, b)

    return TreeMap(_FREE_XY, {"x": x, "y": y}.__getitem__, node)


def bch(x, y, bracket, class_bound):
    """BCH(x, y) truncated (exactly, by nilpotency) at the given class.

    x + y plus c times the image (``_images``) of each basis tree of each
    weight's terms (``_bch_terms``), so each bracket is taken once per call.
    At class 3 that is [x,y], [x,[x,y]] and [[x,y],y], for 1/2, 1/12 and
    1/12; class 4 adds (1/24)[x,[[x,y],y]].  These are images that
    ``_check_class`` takes too.
    """
    images = _images(x, y, bracket)
    out = x + y
    for w in range(2, class_bound + 1):
        for c, tree in _bch_terms(w):
            out = out + images.tree(tree).scale(c)
    return out


def _check_class(x, y, bracket, class_bound):
    """Certify that x and y generate a Lie algebra of class <= class_bound.

    For degree-0 elements x and y the Lie algebra they generate is the image
    of the free Lie algebra on {x < y}, whose weight-k part the standard
    bracketings of the Lyndon words of weight k span, so their images
    (``_images``) span the weight-k part of the lower central series.  The
    check walks them weight by weight up to class_bound + 1, returns as soon
    as a whole weight vanishes (every higher weight then vanishes too), and
    raises ClassExceeded when weight class_bound + 1 does not.  At class 3
    that is at most 6 brackets: [x,y], [x,[x,y]], [[x,y],y], [x,[x,[x,y]]],
    [x,[[x,y],y]] and [[[x,y],y],y].  The walk needs only ``is_zero`` of
    the elements.

    The brackets of weights 2 and 3 are those, on the same operands, that
    ``bch`` takes at class 3, so a bracket that memoizes per operand pair
    (``der_bracket``) serves them to ``bch`` without computing them again.
    """
    images = _images(x, y, bracket)
    level = [e for e in (x, y) if not e.is_zero()]
    for weight in range(2, class_bound + 2):
        if not level:
            return
        level = [z for z in (images.tree(b.tree) for b in _FREE_XY.lie_basis(2 * weight))
                 if not z.is_zero()]
    if level:
        raise ClassExceeded(
            "brackets of weight %d do not vanish" % (class_bound + 1)
        )


class NilpotentElementGroup:
    """exp of the degree-0 part of a nilpotent dg Lie slice.

    Multiplication is BCH at the stated nilpotency class.  Construction
    certifies that class for all of degree 0, not pair by pair: it walks
    the lower central series g_0, [g_0, g_0], ... with level k+1 the
    brackets of the basis units with level k, each level cut to a linearly
    independent subset of the same span (so at most dim g_0 elements), and
    raises ClassExceeded unless level class_bound + 1 is zero.
    """

    def __init__(self, carrier, class_bound):
        self.carrier = carrier
        self.class_bound = int(class_bound)
        n = carrier.dim(0)
        units = [SliceElement.unit(carrier, 0, i) for i in range(n)]
        level = units
        for _ in range(self.class_bound):
            if not level:
                break
            brackets = [u.bracket(t) for t in level for u in units]
            keep = extend_independent([], [b.vector for b in brackets], n)
            level = [brackets[k] for k in keep]
        if level:
            raise ClassExceeded(
                "degree 0 has nonzero brackets of weight %d" % (self.class_bound + 1)
            )

    def element(self, vector):
        """The group element with the sparse degree-0 coordinates ``vector``."""
        return SliceElement(self.carrier, 0, vector)

    def identity(self):
        return SliceElement.zero(self.carrier, 0)

    def multiply(self, x, y):
        return bch(x, y, lambda a, b: a.bracket(b), self.class_bound)

    def inverse(self, x):
        return x.scale(-1)


# -- exponential automorphisms --------------------------------------------------


def _series(y, step, cap, message):
    """The terms [(1/(n+1)!, step^n(y))] of an exponential series, while nonzero.

    More than ``cap`` nonzero terms raise NotNilpotent(message).
    """
    terms = []
    while not y.is_zero():
        if len(terms) == cap:
            raise NotNilpotent(message)
        terms.append((Fraction(1, factorial(len(terms) + 1)), y))
        y = step(y)
    return terms


def exp_automorphism(theta):
    """e(theta) = sum theta^n / n! for a nilpotent degree-0 derivation.

    Nilpotency is verified exactly: on each generator the iteration must
    die within dim L_{|gen|} steps.  A generator where theta vanishes is
    fixed (its series ends at the first step) and is not evaluated.  The
    result is an automorphism, and it commutes with d exactly when theta is
    a cycle; check_morphism certifies that, and that e(theta) fixes theta's
    sub (AxiomFailure otherwise), once, as the returned morphism is built
    with that report as its ``report``.  A derivation of nonzero degree is
    a SchemaError at its "degree" key.
    """
    p = theta.ambient
    if theta.degree != 0:
        raise SchemaError("exp needs a degree-0 derivation", "/degree")
    images = {}
    for name, deg in p.generators.entries:
        x = p.gen(name)
        if name in theta.values:
            terms = _series(theta.eval_at(x), theta.eval_at, p.dim(deg) + 1,
                            "theta does not act nilpotently on %r" % name)
            x = x.add_scaled(terms)
        images[name] = x
    f = GeneratorMorphism(p, p, images, certify=True, fixed_sub=theta.rel)
    if not f.report.passed:
        raise AxiomFailure("exp image fails morphism checks: %r" % f.report.failures())
    return f


# -- Maurer-Cartan ----------------------------------------------------------------


def mc_check(tau):
    """(is_mc, residual) with residual = d tau + (1/2)[tau, tau], exact."""
    if tau.degree != -1:
        raise ValueError("an MC candidate must have degree -1")
    residual = tau.d() + tau.bracket(tau).scale(Fraction(1, 2))
    return residual.is_zero(), residual


def gauge_action(theta, x, action):
    """The exponential gauge action of a degree-0 acting element on an MC set.

    Xi_chi(theta)(x) = x + sum_{n>=0} (theta act -)^n (theta act x - chi(theta)) / (n+1)!
    with nilpotency of the action verified by termination (the dimension of
    the module degree bounds the nilpotency index).
    """
    if theta.degree != 0:
        raise ValueError("gauge acting element must have degree 0")
    module, degree = action.module, x.degree

    def step(y):
        return SliceElement(module, degree, action.act_vectors(0, theta.vector, degree, y.vector))

    y = SliceElement(module, degree, combination([
        (1, action.act_vectors(0, theta.vector, degree, x.vector)),
        (-1, action.chi_vector(0, theta.vector)),
    ]))
    terms = _series(y, step, module.dim(degree) + 1, "gauge action is not nilpotent on this slice")
    v = combination((c, y.vector) for c, y in terms)
    return x + SliceElement(module, degree, v) if terms else x


def gauge_action_adjoint(theta, x):
    """The inner gauge action on MC elements of a slice.

    This is the action associated to a graded Lie subalgebra of the slice
    (with zero differential) acting by ad with twist chi = d:
    x + sum (ad_theta)^n ([theta, x] - d theta) / (n+1)!.
    """
    if theta.degree != 0:
        raise ValueError("gauge acting element must have degree 0")
    terms = _series(theta.bracket(x) - theta.d(), theta.bracket, x.slice.dim(x.degree) + 1,
                    "adjoint gauge action is not nilpotent")
    v = combination((c, y.vector) for c, y in terms)
    return x + SliceElement(theta.slice, x.degree, v) if terms else x


# -- polynomial interval forms and homotopy verification -----------------------


class PolyLie:
    """An element of L (x) Omega_1: a 1-part and a dt-part, polynomial in t.

    ``p`` maps powers of t to elements of degree ``degree``; ``q`` maps
    powers of t to elements of degree ``degree + 1`` (the dt-part carries
    |dt| = -1).
    """

    __slots__ = ("target", "degree", "p", "q")

    def __init__(self, target, degree, p=None, q=None):
        self.target = target
        self.degree = degree
        self.p = {k: v for k, v in (p or {}).items() if not v.is_zero()}
        self.q = {k: v for k, v in (q or {}).items() if not v.is_zero()}

    @classmethod
    def constant(cls, element):
        return cls(element.presentation, element.degree, {0: element})

    def is_zero(self):
        return not self.p and not self.q

    def add_scaled(self, terms):
        """self plus the sum of c * v over the (c, v) in ``terms``.

        Each power of t in each part is summed once by
        ``LieElement.add_scaled``, whose degree rule this follows.
        """
        degree = None
        parts = ({}, {})
        for c, v in chain(((1, self),), terms):
            if not v.is_zero():
                degree = common_degree(degree, v.degree)
                for part, vpart in zip(parts, (v.p, v.q)):
                    for k, x in vpart.items():
                        part.setdefault(k, []).append((c, x))
        return _summed(self.target, self.degree if degree is None else degree, parts)

    def __add__(self, other):
        return self.add_scaled([(1, other)])

    def scale(self, c):
        return PolyLie(
            self.target,
            self.degree,
            {k: v.scale(c) for k, v in self.p.items()},
            {k: v.scale(c) for k, v in self.q.items()},
        )

    def bracket(self, other):
        """[x (x) w1, y (x) w2] = (-1)^{|w1||y|} [x,y] (x) w1 w2."""
        T = self.target
        p, q = parts = ({}, {})
        for a, xa in self.p.items():
            for b, yb in other.p.items():
                p.setdefault(a + b, []).append((1, T.bracket(xa, yb)))
            for b, yb in other.q.items():
                q.setdefault(a + b, []).append((1, T.bracket(xa, yb)))
        for a, xa in self.q.items():
            for b, yb in other.p.items():
                sign = -1 if yb.degree % 2 else 1
                q.setdefault(a + b, []).append((sign, T.bracket(xa, yb)))
        return _summed(T, self.degree + other.degree, parts)

    def d(self):
        """d(x t^k) = (dx) t^k + (-1)^{|x|} k x t^{k-1} dt; d(y t^k dt) = (dy) t^k dt."""
        T = self.target
        p, q = parts = ({}, {})
        for k, x in self.p.items():
            p.setdefault(k, []).append((1, T.differential_of(x)))
            if k >= 1:
                q.setdefault(k - 1, []).append((-k if x.degree % 2 else k, x))
        for k, y in self.q.items():
            q.setdefault(k, []).append((1, T.differential_of(y)))
        return _summed(T, self.degree - 1, parts)

    def evaluate(self, t_value):
        """Set t = t_value, dt = 0."""
        t_value = exact(t_value)
        return self.target.zero(self.degree).add_scaled(
            (t_value**k, x) for k, x in self.p.items()
        )

    def __eq__(self, other):
        return (
            isinstance(other, PolyLie)
            and self.target is other.target
            and self.p == other.p
            and self.q == other.q
        )


def _summed(target, degree, parts):
    """A PolyLie from per-power terms, each power summed once.

    ``parts[0][k]`` and ``parts[1][k]`` list the (c, element) terms of t^k in
    the 1-part and in the dt-part, which sits one degree up.
    """
    p, q = (
        {k: target.zero(degree + s).add_scaled(ts) for k, ts in part.items()}
        for s, part in enumerate(parts)
    )
    return PolyLie(target, degree, p, q)


def homotopy_check(h_values, f, g, rel=None):
    """Verify that h is a dg Lie homotopy from f to g relative to a sub.

    ``h_values`` maps each source generator to a PolyLie in the common
    target (or to a pair (one_part, dt_part) of {power: expression} dicts).
    Verifies: h is a map of dg Lie algebras into target (x) Omega_1 on
    generators; ev_0 . h = f; ev_1 . h = g; and h is constant on the rel
    sub.  Returns a report; never raises on mathematical failure.  A
    failing check's witness is the first source generator (or rel element
    ``"element k"``) that fails it, in presentation order.
    """
    src = f.source
    tgt = f.target
    if g.source is not src or g.target is not tgt:
        raise ValueError("f and g must share source and target")
    hmap = {}
    for name, deg in src.generators.entries:
        if name not in h_values:
            raise ValueError("missing homotopy value for generator %r" % name)
        val = h_values[name]
        if not isinstance(val, PolyLie):
            pt, qt = val
            val = PolyLie(
                tgt,
                deg,
                {int(k): tgt.normal_form(v) for k, v in pt.items()},
                {int(k): tgt.normal_form(v) for k, v in qt.items()},
            )
        hmap[name] = val

    h_map = TreeMap(src, hmap.__getitem__, lambda u, v, f: f(u).bracket(f(v)))

    def h_elem(e):
        return h_map(e, PolyLie(tgt, e.degree))

    # hmap is in presentation order
    checks = [
        check_row("dg_lie_map", (n for n in hmap if hmap[n].d() != h_elem(src.d_gen(n)))),
        check_row("ev0_is_f", (n for n in hmap if hmap[n].evaluate(0) != f.images[n])),
        check_row("ev1_is_g", (n for n in hmap if hmap[n].evaluate(1) != g.images[n])),
    ]
    if rel is not None:
        spec = src.sub(rel)
        if isinstance(spec, GeneratorSplit):
            items = ((n, h_elem(src.gen(n)), f.images[n]) for n in spec.names)
        else:
            items = (
                ("element %d" % k, h_elem(e), f.apply(e)) for k, e in enumerate(spec.elements)
            )
        checks.append(check_row("constant_on_rel", (
            label for label, hv, fv in items
            if hv.q or set(hv.p) - {0} or hv.evaluate(0) != fv
        )))
    return ValidationReport(checks)
