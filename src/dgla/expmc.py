"""Exponential groups, Maurer-Cartan machinery, and interval homotopies.

BCH coefficients are hard-coded through weight 4 and produced by the Dynkin
formula beyond; the nilpotency class caps the weight exactly, so every
series here is a finite exact sum.
"""

from fractions import Fraction
from math import factorial

from .errors import ClassExceeded, NotNilpotent
from .morphisms import GeneratorMorphism
from .presentation import TreeMap
from .slices import SliceElement


# -- Baker-Campbell-Hausdorff ----------------------------------------------------


def _dynkin_weight(x, y, bracket, weight):
    """The weight-w part of BCH(x, y) by the Dynkin formula.

    Sums over blocks (r_1,s_1),...,(r_n,s_n) != (0,0) with total weight w:
    coefficient (-1)^{n-1} / (n * w * prod r_i! s_i!) on the right-nested
    bracketing of x^{r_1} y^{s_1} ... x^{r_n} y^{s_n}.
    """
    total = None

    def compositions(rem, blocks):
        if rem == 0:
            yield list(blocks)
            return
        for r in range(rem + 1):
            for s in range(rem - r + 1):
                if r == 0 and s == 0:
                    continue
                blocks.append((r, s))
                yield from compositions(rem - r - s, blocks)
                blocks.pop()

    for blocks in compositions(weight, []):
        n = len(blocks)
        denom = n * weight
        word = []
        for r, s in blocks:
            word.extend([x] * r)
            word.extend([y] * s)
            denom_rs = factorial(r) * factorial(s)
            denom *= denom_rs
        coeff = Fraction((-1) ** (n - 1), denom)
        term = word[-1]
        for z in reversed(word[:-1]):
            term = bracket(z, term)
        term = term.scale(coeff)
        total = term if total is None else total + term
    return total


_BCH_LOW = {
    2: lambda x, y, br: br(x, y).scale(Fraction(1, 2)),
    3: lambda x, y, br: br(x, br(x, y)).scale(Fraction(1, 12))
    + br(y, br(y, x)).scale(Fraction(1, 12)),
    4: lambda x, y, br: br(y, br(x, br(x, y))).scale(Fraction(-1, 24)),
}


def bch(x, y, bracket, class_bound):
    """BCH(x, y) truncated (exactly, by nilpotency) at the given class."""
    out = x + y
    for w in range(2, class_bound + 1):
        if w in _BCH_LOW:
            out = out + _BCH_LOW[w](x, y, bracket)
        else:
            term = _dynkin_weight(x, y, bracket, w)
            if term is not None:
                out = out + term
    return out


def _check_class(x, y, bracket, class_bound):
    """All right-nested brackets of weight class_bound + 1 must vanish."""
    frontier = [x, y]
    for _ in range(class_bound):
        nxt = []
        for t in frontier:
            nxt.append(bracket(x, t))
            nxt.append(bracket(y, t))
        frontier = nxt
    for t in frontier:
        if not t.is_zero():
            raise ClassExceeded(
                "brackets of weight %d do not vanish" % (class_bound + 1)
            )


class NilpotentElementGroup:
    """exp of the degree-0 part of a nilpotent dg Lie slice.

    Multiplication is BCH at the stated nilpotency class, verified on the
    degree-0 basis by iterated bracketing at construction.
    """

    def __init__(self, carrier, class_bound):
        self.carrier = carrier
        self.class_bound = int(class_bound)
        n = carrier.dim(0)
        for i in range(n):
            for j in range(n):
                _check_class(
                    SliceElement.unit(carrier, 0, i),
                    SliceElement.unit(carrier, 0, j),
                    lambda a, b: a.bracket(b),
                    self.class_bound,
                )

    def element(self, vector):
        return SliceElement(self.carrier, 0, vector)

    def identity(self):
        return SliceElement.zero(self.carrier, 0)

    def multiply(self, x, y):
        return bch(x, y, lambda a, b: a.bracket(b), self.class_bound)

    def inverse(self, x):
        return x.scale(-1)


def bch_product(group, x, y):
    """The group law of a NilpotentElementGroup."""
    return group.multiply(x, y)


# -- exponential automorphisms --------------------------------------------------


def exp_automorphism(theta, check=True):
    """e(theta) = sum theta^n / n! for a nilpotent degree-0 derivation.

    Nilpotency is verified exactly: on each generator the iteration must
    die within dim L_{|gen|} steps.  The result is an automorphism; when
    theta is a cycle it commutes with d (and check_morphism is run).
    """
    p = theta.ambient
    if theta.degree != 0:
        raise ValueError("exp needs a degree-0 derivation")
    images = {}
    for name, deg in p.generators.entries:
        acc = p.gen(name)
        term = p.gen(name)
        cap = p.dim(deg) + 1
        n = 0
        while True:
            term = theta.eval_at(term)
            n += 1
            if term.is_zero():
                break
            if n > cap:
                raise NotNilpotent("theta does not act nilpotently on %r" % name)
            acc = acc + term.scale(Fraction(1, factorial(n)))
        images[name] = acc
    f = GeneratorMorphism(p, p, images)
    if check:
        from .morphisms import check_morphism

        rep = check_morphism(f, fixed_sub=theta.rel)
        if not rep.passed:
            raise ValueError("exp image fails morphism checks: %r" % rep.failures())
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
    a = action
    y = SliceElement(
        a.module,
        x.degree,
        [
            u - w
            for u, w in zip(
                a.act_vectors(0, theta.vector, x.degree, x.vector),
                a.chi_vector(0, theta.vector),
            )
        ],
    )
    out = x
    n = 0
    cap = a.module.dim(x.degree) + 1
    while not y.is_zero():
        out = out + y.scale(Fraction(1, factorial(n + 1)))
        y = SliceElement(
            a.module,
            x.degree,
            a.act_vectors(0, theta.vector, x.degree, y.vector),
        )
        n += 1
        if n > cap:
            raise NotNilpotent("gauge action is not nilpotent on this slice")
    return out


def gauge_action_adjoint(theta, x):
    """The inner gauge action on MC elements of a slice.

    This is the action associated to a graded Lie subalgebra of the slice
    (with zero differential) acting by ad with twist chi = d:
    x + sum (ad_theta)^n ([theta, x] - d theta) / (n+1)!.
    """
    if theta.degree != 0:
        raise ValueError("gauge acting element must have degree 0")
    y = theta.bracket(x) - theta.d()
    out = x
    n = 0
    cap = x.slice.dim(x.degree) + 1
    while not y.is_zero():
        out = out + y.scale(Fraction(1, factorial(n + 1)))
        y = theta.bracket(y)
        n += 1
        if n > cap:
            raise NotNilpotent("adjoint gauge action is not nilpotent")
    return out


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

    def __add__(self, other):
        p = dict(self.p)
        for k, v in other.p.items():
            p[k] = p[k] + v if k in p else v
        q = dict(self.q)
        for k, v in other.q.items():
            q[k] = q[k] + v if k in q else v
        return PolyLie(self.target, self.degree, p, q)

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
        deg = self.degree + other.degree
        p = {}
        q = {}
        for a, xa in self.p.items():
            for b, yb in other.p.items():
                _acc(p, a + b, T.bracket(xa, yb))
            for b, yb in other.q.items():
                _acc(q, a + b, T.bracket(xa, yb))
        for a, xa in self.q.items():
            for b, yb in other.p.items():
                sign = -1 if yb.degree % 2 else 1
                _acc(q, a + b, T.bracket(xa, yb).scale(sign))
        return PolyLie(T, deg, p, q)

    def d(self):
        """d(x t^k) = (dx) t^k + (-1)^{|x|} k x t^{k-1} dt; d(y t^k dt) = (dy) t^k dt."""
        T = self.target
        p = {}
        q = {}
        for k, x in self.p.items():
            _acc(p, k, T.differential_of(x))
            if k >= 1:
                sign = Fraction(-k if x.degree % 2 else k)
                _acc(q, k - 1, x.scale(sign))
        for k, y in self.q.items():
            _acc(q, k, T.differential_of(y))
        return PolyLie(T, self.degree - 1, p, q)

    def evaluate(self, t_value):
        """Set t = t_value, dt = 0."""
        t_value = Fraction(t_value)
        out = self.target.zero(self.degree)
        for k, x in self.p.items():
            out = out + x.scale(t_value**k)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, PolyLie)
            and self.target is other.target
            and self.p == other.p
            and self.q == other.q
        )


def _acc(d, k, v):
    if v.is_zero():
        return
    if k in d:
        w = d[k] + v
        if w.is_zero():
            del d[k]
        else:
            d[k] = w
    else:
        d[k] = v


def homotopy_check(h_values, f, g, rel=None):
    """Verify that h is a dg Lie homotopy from f to g relative to a sub.

    ``h_values`` maps each source generator to a PolyLie in the common
    target (or to a pair (one_part, dt_part) of {power: expression} dicts).
    Verifies: h is a map of dg Lie algebras into target (x) Omega_1 on
    generators; ev_0 . h = f; ev_1 . h = g; and h is constant on the rel
    sub.  Returns a report; never raises on mathematical failure.
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

    checks = []
    ok = True
    witness = None
    for name, _ in src.generators.entries:
        lhs = hmap[name].d()
        rhs = h_elem(src.d_gen(name))
        if lhs != rhs:
            ok = False
            witness = name
            break
    checks.append(("dg_lie_map", ok, witness))
    ok0 = all(
        hmap[name].evaluate(0) == f.images[name] for name, _ in src.generators.entries
    )
    checks.append(
        ("ev0_is_f", ok0, None if ok0 else "some generator")
    )
    ok1 = all(
        hmap[name].evaluate(1) == g.images[name] for name, _ in src.generators.entries
    )
    checks.append(("ev1_is_g", ok1, None if ok1 else "some generator"))
    if rel is not None:
        from .presentation import GeneratorSplit

        spec = src.sub(rel)
        okr = True
        witness = None
        if isinstance(spec, GeneratorSplit):
            items = [(n, h_elem(src.gen(n)), f.images[n]) for n in spec.names]
        else:
            items = [
                ("element %d" % k, h_elem(e), f.apply(e))
                for k, e in enumerate(spec.elements)
            ]
        for label, hv, fv in items:
            if hv.q or set(hv.p) - {0} or hv.evaluate(0) != fv:
                okr = False
                witness = label
                break
        checks.append(("constant_on_rel", okr, witness))
    from .presentation import ValidationReport

    return ValidationReport(checks)
