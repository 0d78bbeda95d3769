"""Manifold-facing constructions.

Graded symplectic spaces and their canonical cycle omega, validated manifold
models, the stabilized model (beta, gamma adjoined with d gamma = omega -
beta), the extension of derivations to it, outer actions, twisted semidirect
products, and the two headline builders: the general semidirect dg Lie
algebra over a triple of designated subs, and its block specialization.
"""

from fractions import Fraction
from itertools import chain, combinations_with_replacement, product

from . import freelie, linalg
from .derivations import Derivation, deru
from .errors import (
    AxiomFailure,
    BadPontryaginDegrees,
    NotMinimal,
    NotUnimodular,
    OmegaNotClosed,
    RhoNotChainMap,
    SchemaError,
    ValidationReport,
    check_row,
)
from .graded import GradedBasis, GradedLinearMap
from .morphisms import GeneratorMorphism, _rho_of, _rho_of_linear
from .presentation import (
    DgLaPresentation,
    ElementGenerated,
    GeneratorSplit,
    LieElement,
    linear_part_block,
)
from .linalg import combination
from .slices import DgLieSlice, bilinear, hom_slice, shifted_basis


class SymplecticGVS:
    """A graded vector space with a unimodular graded-antisymmetric pairing.

    ``pairing`` is a ``linalg`` matrix whose (i, j) entry is
    <alpha_i, alpha_j>, nonzero only when the degrees sum to ``m`` (the form
    has degree -m); graded antisymmetry is <v, w> = (-1)^{|v||w|+1} <w, v>.
    Row i of ``duals`` holds the coefficients c_k of the dual basis vector
    alpha_i^# = sum_k c_k alpha_k, the one with <alpha_i^#, alpha_j> = delta_ij.
    """

    def __init__(self, basis, form_degree, pairing):
        self.basis = GradedBasis(basis)
        self.m = -int(form_degree)
        n = len(self.basis)
        if not linalg.has_shape(pairing, n, n):
            raise SchemaError("pairing must be %dx%d, the basis size" % (n, n), "/pairing")
        self.pairing = pairing
        degs = [d for _, d in self.basis.entries]
        value = {(i, j): c for i, j, c in linalg.entries(pairing)}
        # every position where a check can fail, in row-major order
        for i, j in sorted(value.keys() | {(j, i) for i, j in value}):
            c = value.get((i, j), 0)
            if c and degs[i] + degs[j] != self.m:
                raise SchemaError(
                    "pairing nonzero off the complementary degrees", "/pairing/%d/%d" % (i, j)
                )
            sign = 1 if (degs[i] * degs[j]) % 2 else -1
            if c != sign * value.get((j, i), 0):
                raise SchemaError(
                    "pairing is not graded antisymmetric", "/pairing/%d/%d" % (i, j)
                )
        # row i of the inverse solves sum_k x_k <alpha_k, alpha_j> = delta_ij
        self.duals = linalg.inverse(pairing)
        if self.duals is None:
            raise NotUnimodular("pairing matrix is singular")


def omega_element(v, presentation=None):
    """The degree-m cycle (1/2) sum [alpha_i^#, alpha_i] in the free algebra.

    Independent of the choice of basis.  When ``presentation`` is omitted, a
    fresh presentation on the symplectic basis with zero differential is
    created.
    """
    p = presentation
    if p is None:
        p = DgLaPresentation(list(v.basis.entries))
    names = v.basis.names()
    sharps = [[] for _ in names]
    for i, k, c in linalg.entries(v.duals):
        sharps[i].append((c, p.gen(names[k])))
    half = Fraction(1, 2)
    terms = []
    for name, sharp in zip(names, sharps):
        sharp = p.zero(v.basis.degree(name)).add_scaled(sharp)
        terms.append((half, p.bracket(sharp, p.gen(name))))
    omega = p.zero(v.m).add_scaled(terms)
    # the halves sum to integral coordinates: store them as ints
    return LieElement(p, omega.degree, omega.coords)


class ManifoldModel:
    """A validated Stasheff-type model of a manifold with sphere boundary.

    Fields: the symplectic space V (degree -(n-2) pairing), the free Lie
    algebra over V with a differential (``presentation``, whose generators
    are V's basis), and Pontryagin functionals on the degree 4i-1 parts of
    V.  The presentation gains the designated sub "omega" (element-generated
    by omega_V).
    """

    def __init__(self, dimension, v, presentation, pontryagin=None):
        self.dimension = int(dimension)
        self.v = v
        if v.m != self.dimension - 2:
            raise ValueError("pairing degree must be -(dimension - 2)")
        if presentation.generators != v.basis:
            raise ValueError("the presentation's generators are not V's basis")
        self.presentation = presentation
        rep = self.presentation.validate()
        if not rep.passed:
            raise NotMinimal("invalid differential: %r" % rep.failures())
        self.omega = omega_element(v, self.presentation)
        if not self.presentation.differential_of(self.omega).is_zero():
            raise OmegaNotClosed("delta(omega) != 0")
        if not self.presentation.is_minimal(None):
            raise NotMinimal("differential has a nonzero linear part")
        self.presentation.subalgebras["omega"] = ElementGenerated([self.omega])
        self.pontryagin = {}
        for deg, values in (pontryagin or {}).items():
            deg = int(deg)
            if deg % 4 != 3:
                raise BadPontryaginDegrees("functional in degree %d != 4i-1" % deg)
            names = v.basis.in_degree(deg)
            values = [linalg.exact(x) for x in values]
            if len(values) != len(names):
                raise SchemaError(
                    "pontryagin values do not match the degree-%d basis" % deg,
                    "/pontryagin/%d" % deg,
                )
            if any(values):
                self.pontryagin[deg] = values

    def pontryagin_map(self, presentation=None, pi=None):
        """The functional package as a GradedLinearMap into Pi.

        Vanishes outside the 4i-1 generator lines (in particular on beta and
        gamma of a tilde model and on all decomposables).
        """
        p = presentation or self.presentation
        pi = pi or pi_so_basis(max((d for d in self.pontryagin), default=0))
        rho = GradedLinearMap(p.generators, pi, 0)
        for deg, values in self.pontryagin.items():
            src = p.generators.in_degree(deg)
            tgt = pi.in_degree(deg)
            if not tgt:
                continue
            # functionals land on the first pi line of the degree (pi_* SO
            # has exactly one per degree 4i-1)
            value = dict(zip(self.v.basis.in_degree(deg), values))
            ents = [(0, j, value[n]) for j, n in enumerate(src) if n in value]
            rho.set_block(deg, linalg.matrix(len(tgt), len(src), ents))
        return rho


def manifold_model(dimension, generators, pairing, differential=None, pontryagin=None):
    """Validate raw data into a ManifoldModel (see the JSON schema in io).

    ``pairing`` is a ``linalg`` matrix on the generators.
    """
    v = SymplecticGVS(generators, -(int(dimension) - 2), pairing)
    p = DgLaPresentation(list(v.basis.entries), differential)
    return ManifoldModel(dimension, v, p, pontryagin)


def pi_so_basis(top_degree):
    """Rational homotopy of SO: one line in each degree 4i-1 <= top_degree."""
    entries = []
    i = 1
    while 4 * i - 1 <= top_degree:
        entries.append(("pi%d" % (4 * i - 1), 4 * i - 1))
        i += 1
    return GradedBasis(entries)


def tilde_model(model):
    """The stabilized model: adjoin beta (degree m) and gamma (degree m+1).

    d gamma = omega - beta; the designated sub "beta" is the free part on
    beta.  Returns (tilde_presentation, include_beta, project) where project
    sends beta to omega and gamma to zero.  A dimension that puts beta or
    gamma outside the generator degrees [1, freelie.MAX_DEGREE] is a
    SchemaError at /dimension.
    """
    p = model.presentation
    m = model.v.m
    if not 1 <= m < freelie.MAX_DEGREE:
        raise SchemaError(
            "the stabilized model needs beta of degree dimension - 2 in [1, %d)"
            % freelie.MAX_DEGREE,
            "/dimension",
        )
    gens = list(p.generators.entries) + [("beta", m), ("gamma", m + 1)]
    diff = {n: v.terms() for n, v in p.differential.items()}
    omega_terms = model.omega.terms()
    diff["gamma"] = omega_terms + [(-1, "beta")]
    tilde = DgLaPresentation(
        gens,
        diff,
        {
            "beta": GeneratorSplit(["beta"]),
        },
    )
    tilde.subalgebras["omega"] = ElementGenerated([tilde.normal_form(omega_terms)])
    beta_alg = DgLaPresentation([("beta", m)])
    include = GeneratorMorphism(beta_alg, tilde, {"beta": tilde.gen("beta")})
    project = GeneratorMorphism(
        tilde,
        p,
        {
            **{n: p.gen(n) for n, _ in p.generators.entries},
            "beta": model.omega,
            "gamma": p.zero(m + 1),
        },
    )
    return tilde, include, project


def xi_extend(theta, tilde):
    """Extend a derivation rel omega by zero on beta and gamma."""
    vals = {n: tilde.normal_form(v.terms()) for n, v in theta.values.items()}
    return Derivation(tilde, theta.degree, vals, rel="beta", check=False)


class OuterAction:
    """An outer action of a slice ``acting`` on a slice ``module``.

    ``action_fn(n, i, m, j)`` gives the left action of the acting basis
    element (n, i) on the module basis element (m, j), as sparse module
    coordinates {k: c} in degree n+m; ``act`` memoizes it.  ``chi_fn(n, i)``
    gives the degree -1 twist of (n, i), as sparse module coordinates in
    degree n-1; ``twist`` memoizes it.  ``operator(n, i, k)`` is the action
    of (n, i) on the whole degree-k module as one sparse operator, read
    from ``act``.  Callers must not mutate any of them.
    """

    def __init__(self, acting, module, action_fn, chi_fn=None):
        self.acting = acting
        self.module = module
        self._action_fn = action_fn
        self._chi_fn = chi_fn
        self._act_memo = {}
        self._chi_memo = {}
        self._op_memo = {}

    def act(self, n, i, m, j):
        key = (n, i, m, j)
        got = self._act_memo.get(key)
        if got is None:
            got = self._action_fn(n, i, m, j)
            self._act_memo[key] = got
        return got

    def act_vectors(self, n, x, m, y):
        """Bilinear extension of the action to sparse vectors."""
        return bilinear(self.act, n, x, m, y)

    def operator(self, n, i, k):
        """rho(e_i^(n)) on the degree-k module: {l: image of e_l^(k)}.

        Holds only the nonzero images, so it is empty exactly when (n, i)
        acts by zero on degree k.  Memoized.
        """
        key = (n, i, k)
        got = self._op_memo.get(key)
        if got is None:
            got = {}
            for l in range(self.module.dim(k)):
                v = self.act(n, i, k, l)
                if v:
                    got[l] = v
            self._op_memo[key] = got
        return got

    def twist(self, n, i):
        if self._chi_fn is None:
            return {}
        key = (n, i)
        got = self._chi_memo.get(key)
        if got is None:
            got = self._chi_fn(n, i)
            self._chi_memo[key] = got
        return got

    def chi_vector(self, n, x):
        """The twist of a sparse vector of degree n."""
        return combination((c, self.twist(n, i)) for i, c in x.items())


def _after(a, n, i, k, op):
    """rho(e_i^(n)) . op, for a sparse operator ``op`` whose images lie in degree k.

    Reads only the action values that op's nonzero images reach.
    """
    return {l: a.act_vectors(n, {i: 1}, k, v) for l, v in op.items()}


def _first_nonzero_column(terms):
    """The least column l where the sum of c * op over ``terms`` is nonzero, or None.

    ``terms`` are (c, op) pairs of sparse operators {l: vector}; only the
    columns that some op holds are read.
    """
    for l in sorted(set().union(*(op for _, op in terms))):
        if combination((c, op[l]) for c, op in terms if l in op):
            return l
    return None


def outer_action_check(a, window=None):
    """Verify the outer-action axioms on all basis pairs in the window.

    Checks that the action is a map of graded Lie algebras, that chi
    anti-commutes with the differentials (a chain map of degree -1), and the
    two defining equations
        chi([t,p]) = chi(t).p + (-1)^{|t|} t.chi(p)
        d(t.x) = dt.x + (-1)^{|t|} t.dx + [chi(t), x]
    where the right action is x.p = -(-1)^{|x||p|} p.x.  The Lie-map and
    d-of-action axioms are checked as identities between the sparse
    operators ``a.operator`` on each module degree k,
        rho([t,p]) = rho(t) rho(p) - (-1)^{|t||p|} rho(p) rho(t),
        d rho(t) - rho(dt) - (-1)^{|t|} rho(t) d - ad(chi(t)) = 0,
    so their cost follows the operators' nonzero entries, not the module's
    dimension; each is the per-basis-vector identity on every module basis
    element at once.  The Lie-map identity is walked on unordered basis
    pairs (t,p), and on each of them g's bracket must be
    graded-antisymmetric, [p,t] = -(-1)^{|t||p|} [t,p]; the (p,t) identity
    is then -(-1)^{|t||p|} times the (t,p) one, so the check is sound
    without g's own certificate.  That walk is g's own
    (``DgLieSlice._antisymmetry_failures``), so a degree pair it passes is
    certified for g's axiom checks too.  chi of a bracket is walked only on the
    degree pairs (n, m) where chi is nonzero on g_n, g_m or g_{n+m};
    elsewhere every term of its identity is zero.  Returns a report of
    (check, ok, witness) rows; never raises.  Each failing row's witness is the first failing
    case in its axiom's walk order (degrees, then basis indices, ascending;
    an operator identity names its least failing module index), and the
    walk stops there.
    """
    g = a.acting
    L = a.module
    lo = max(g.lo, window[0]) if window else g.lo
    hi = min(g.hi, window[1]) if window else g.hi

    def mod_ok(d):
        return L.lo <= d <= L.hi

    def g_ok(d):
        return g.lo <= d <= g.hi

    def lie_map_failures():
        for n, m in combinations_with_replacement(range(lo, hi + 1), 2):
            ks = [k for k in range(L.lo, L.hi + 1) if mod_ok(n + m + k)]
            if not (g_ok(n + m) and ks):
                continue
            sign = -1 if (n * m) % 2 else 1
            if n == m:
                pairs = list(combinations_with_replacement(range(g.dim(n)), 2))
            else:
                pairs = list(product(range(g.dim(n)), range(g.dim(m))))
            # graded antisymmetry, which makes the (p,t) identity follow from
            # (t,p); a degree pair that passes is certified for g's own checks
            for w in g._antisymmetry_failures([(n, m)]):
                yield ("alpha_antisymmetry",) + w
            for k in ks:
                if not any(a.operator(d, q, k) for d in {n, m, n + m} for q in range(g.dim(d))):
                    continue  # g_n, g_m and g_{n+m} act on L_k by zero: every identity is 0 = 0
                for i, j in pairs:
                    # rho([t,p]) = rho(t) rho(p) - (-1)^{|t||p|} rho(p) rho(t) on L_k
                    terms = [(c, a.operator(n + m, q, k))
                             for q, c in g.bracket(n, i, m, j).items()]
                    terms.append((-1, _after(a, n, i, m + k, a.operator(m, j, k))))
                    terms.append((sign, _after(a, m, j, n + k, a.operator(n, i, k))))
                    l = _first_nonzero_column(terms)
                    if l is not None:
                        yield ("alpha_lie_map", n, i, m, j, k, l)

    g_d = {d: linalg.columns(g.d_matrix(d), g.dim(d)) for d in range(g.lo + 1, g.hi + 1)}
    L_d = {d: linalg.columns(L.d_matrix(d), L.dim(d)) for d in range(L.lo + 1, L.hi + 1)}
    # d out of each module degree as a sparse operator
    d_ops = {d: {l: v for l, v in enumerate(cols) if v} for d, cols in L_d.items()}

    def chi_chain_failures():
        for n in range(max(lo, g.lo + 1), hi + 1):
            if not (mod_ok(n - 1) and mod_ok(n - 2)):
                continue
            for i in range(g.dim(n)):
                # d chi(t) + chi(dt) = 0
                terms = [(1, L.d_apply(n - 1, a.twist(n, i)))]
                terms += [(c, a.twist(n - 1, k)) for k, c in g_d[n][i].items()]
                if combination(terms):
                    yield ("chi_chain", n, i)

    untwisted = {}

    def untwisted_degree(d):
        # chi vanishes on g_d, or its term is left out (chi of g_d below L)
        got = untwisted.get(d)
        if got is None:
            got = untwisted[d] = not (
                mod_ok(d - 1) and any(a.twist(d, i) for i in range(g.dim(d)))
            )
        return got

    def chi_bracket_failures():
        for n, m in product(range(lo, hi + 1), repeat=2):
            chi_n = mod_ok(n - 1) or (n - 1 < L.lo and L.zero_below)
            chi_m = mod_ok(m - 1) or (m - 1 < L.lo and L.zero_below)
            if not (g_ok(n + m) and mod_ok(n + m - 1) and chi_n and chi_m):
                continue
            if all(untwisted_degree(d) for d in (n, m, n + m)):
                continue  # chi vanishes on g_n, g_m and g_{n+m}: every identity is 0 = 0
            # chi(t).p = -(-1)^{|chi t||p|} p.chi(t)
            sgn1 = -1 if ((n - 1) * m) % 2 == 0 else 1
            sgn2 = -1 if n % 2 else 1
            for i, j in product(range(g.dim(n)), range(g.dim(m))):
                terms = [(c, a.twist(n + m, k)) for k, c in g.bracket(n, i, m, j).items()]
                if mod_ok(n - 1):
                    terms.append((-sgn1, bilinear(a.act, m, {j: 1}, n - 1, a.twist(n, i))))
                if mod_ok(m - 1):
                    terms.append((-sgn2, bilinear(a.act, n, {i: 1}, m - 1, a.twist(m, j))))
                if combination(terms):
                    yield ("axiom_chi_bracket", n, i, m, j)

    def d_of_action_failures():
        for n, k in product(range(lo, hi + 1), range(L.lo, L.hi + 1)):
            chi_known = mod_ok(n - 1) or (n - 1 < L.lo and L.zero_below)
            dx_known = mod_ok(k - 1) or (k - 1 < L.lo and L.zero_below)
            dtheta_known = n - 1 >= g.lo or g.zero_below
            if not (mod_ok(n + k) and mod_ok(n + k - 1)
                    and chi_known and dx_known and dtheta_known):
                continue
            sgn = -1 if n % 2 else 1
            for i in range(g.dim(n)):
                # d rho(t) - rho(dt) - (-1)^{|t|} rho(t) d - ad(chi(t)) = 0 on L_k
                terms = [(1, {l: combination((c, L_d[n + k][p]) for p, c in v.items())
                              for l, v in a.operator(n, i, k).items()})]
                if n - 1 >= g.lo:
                    terms += [(-c, a.operator(n - 1, q, k)) for q, c in g_d[n][i].items()]
                if mod_ok(k - 1) and a.operator(n, i, k - 1):
                    terms.append((-sgn, _after(a, n, i, k - 1, d_ops[k])))
                chi = a.twist(n, i) if mod_ok(n - 1) else {}
                if chi:
                    terms.append((-1, {l: bilinear(L.bracket, n - 1, chi, k, {l: 1})
                                       for l in range(L.dim(k))}))
                l = _first_nonzero_column(terms)
                if l is not None:
                    yield ("axiom_d_of_action", n, i, k, l)

    return ValidationReport([
        check_row("action_is_graded_lie_map", lie_map_failures()),
        check_row("chi_anticommutes_with_d", chi_chain_failures()),
        check_row("chi_of_bracket", chi_bracket_failures()),
        check_row("d_of_action", d_of_action_failures()),
    ])


def semidirect(g, L, a, window=None):
    """The twisted semidirect product g |x_chi L of g and an abelian module L.

    Bracket [(t,x),(p,y)] = ([t,p], t.y + x.p) and differential
    d(t,x) = (dt, dx + chi(t)), with x.p = -(-1)^{|x||p|} p.x.  Basis per
    degree: the acting part first, then the module part.

    With L abelian, d^2 = 0, antisymmetry, Jacobi and Leibniz of the product
    split into blocks, and each block is certified once, never on the
    product (AxiomFailure or NotAComplex otherwise):
      - g alone: g's d^2, bracket axioms and Leibniz;
      - L alone: L's d^2, and every in-window bracket of L is zero, which
        makes L's Jacobi and Leibniz and the (g,L,L) Jacobi 0 = 0;
      - mixed: the outer-action axioms on the window.  (g,g,L) Jacobi is
        the action being a Lie map, the L part of d^2 is chi anti-commuting
        with d, and the L part of Leibniz is chi of a bracket on (g,g) pairs
        and d of the action on (g,L) pairs.
    Antisymmetry of the mixed pairs holds by the definition of x.p, and
    Leibniz on (L,g) pairs follows from (g,L) by antisymmetry.
    """
    rep = outer_action_check(a, window)
    if not rep.passed:
        raise AxiomFailure("outer action axioms fail: %r" % rep.failures())
    g.check_d_squared()
    L.check_d_squared()
    L.check_abelian()
    g.check_bracket_axioms()
    g.check_d_leibniz()
    lo = max(g.lo, L.lo) if window is None else window[0]
    hi = min(g.hi, L.hi) if window is None else window[1]
    labels = {
        d: ["g:%s" % s for s in g.labels.get(d, [])]
        + ["m:%s" % s for s in L.labels.get(d, [])]
        for d in range(lo, hi + 1)
    }
    d_blocks = {}
    for d in range(lo + 1, hi + 1):
        gd, top = g.dim(d), g.dim(d - 1)
        chi = ((top + i, j, c) for j in range(gd) for i, c in a.twist(d, j).items())
        d_blocks[d] = linalg.matrix(
            top + L.dim(d - 1),
            gd + L.dim(d),
            chain(linalg.entries(g.d_matrix(d)), chi, linalg.entries(L.d_matrix(d), top, gd)),
        )

    def bracket_fn(n, i, m, j):
        gn, gm, off = g.dim(n), g.dim(m), g.dim(n + m)
        if i < gn and j < gm:
            return g.bracket(n, i, m, j)
        if i < gn:
            v = a.act(n, i, m, j - gm)
        elif j < gm:
            # x.p = -(-1)^{|x||p|} p.x
            sgn = -1 if (n * m) % 2 == 0 else 1
            v = {k: sgn * u for k, u in a.act(m, j, n, i - gn).items()}
        else:
            return {}
        return {off + k: u for k, u in v.items()}

    zero_below = g.zero_below and L.zero_below and g.lo == L.lo == lo
    slc = DgLieSlice((lo, hi), labels, d_blocks, bracket_fn, zero_below)
    slc.acting = g
    slc.module = L
    slc.action = a
    return slc


def _suspended_hom(p, sub, pi, window):
    """tau_{>=0} Hom(s indec_sub(p), pi) plus index bookkeeping.

    The suspension has degrees raised by one and differential negated:
    d(s x) = -s(d x).
    """
    basis = GradedBasis(p.nonsub_generators(sub))
    sbasis = shifted_basis(basis.entries)
    s_blocks = {}
    for d in basis.degrees():
        src, tgt = basis.in_degree(d), basis.in_degree(d - 1)
        if src and tgt:
            s_blocks[d + 1] = linear_part_block(lambda n: p.d_gen(n).scale(-1), src, tgt)
    lo = min(window[0] - 1, -1)
    full = hom_slice(sbasis, s_blocks, pi, (lo, window[1]))
    return full.truncate_nonneg(), full, basis


class _HomModule:
    """Bookkeeping for the module tau_{>=0} Hom(s indec_sub(p), pi).

    Mediates between the truncated module coordinates used by the semidirect
    product and the raw Hom coordinates that the action formulas produce.
    """

    def __init__(self, p, sub, pi, window):
        self.p = p
        self.sub = sub
        self.pi = pi
        self.module, self.full, self.indec_basis = _suspended_hom(p, sub, pi, window)
        self.index = self.full.hom_index
        # (degree, raw position) -> (source name, target name)
        self.functional = {(d, pos): (s, t) for (d, s, t), pos in self.index.items()}

    def raw_basis_vector(self, m, j):
        """The sparse raw Hom coordinates of module basis element j in degree m."""
        if m > 0:
            return {j: 1}
        return self.module.z0.vectors[j]

    def to_module_coords(self, m, raw):
        """The sparse module coordinates of sparse raw Hom coordinates in degree m."""
        if m > 0:
            return raw
        c = self.module.z0.coords(raw)
        if c is None:
            raise AxiomFailure("Hom value in degree 0 is not a cycle")
        return c

    def induced_map(self, theta):
        """The map theta induces on indecomposables: {x: linear part of theta(x)}.

        Holds the indecomposable generators x whose theta(x) has a nonzero
        linear part, in basis order; the right action and the twist of
        theta depend only on this map.
        """
        out = {}
        for x, _ in self.indec_basis.entries:
            val = theta.value(x)
            if not val.is_zero():
                lin = val.linear_part()
                if lin:
                    out[x] = lin
        return out

    def right_action_induced(self, n, induced, m, fvec):
        """(f.theta)(s[x]) = (-1)^{|theta|} f(s[theta(x)]), in sparse raw coordinates.

        theta has degree n and is given by its ``induced_map``.
        """
        sign = -1 if n % 2 else 1
        terms = []
        for pos, c in fvec.items():
            sname, tname = self.functional[m, pos]
            xf = sname[1:]
            # the linear part of theta(x) lives in degree |x| + n, so a
            # nonzero coefficient on xf puts x in degree |xf| - n
            for x, lin in induced.items():
                lam = lin.get(xf)
                if lam:
                    tgt = self.index.get((m + n, "s%s" % x, tname))
                    if tgt is not None:
                        terms.append((sign * c * lam, {tgt: 1}))
        return combination(terms)

    def chi_induced(self, n, induced, rho):
        """(rho~ . theta)(s[x]) = (-1)^{|theta|} rho(theta(x)), in sparse raw coordinates.

        theta has degree n and is given by its ``induced_map``.
        """
        sign = -1 if n % 2 else 1
        terms = []
        degree = self.indec_basis.degree
        for x, lin in induced.items():
            for tname, c in _rho_of_linear(rho, degree(x) + n, lin).items():
                tgt = self.index.get((n - 1, "s%s" % x, tname))
                if tgt is not None:
                    terms.append((sign * c, {tgt: 1}))
        return combination(terms)


def build_g(p, sub_b, sub_a, rho, pi, window):
    """The headline semidirect dg Lie algebra over a triple of subs.

    g = tau_{>=0} Hom(s indec_{sub_b}(p), pi) |x Der_u^rho(p rel sub_a),
    with right action (f.theta)(s[x]) = (-1)^{|theta|} f(s[theta(x)]) of the
    derivation part on the Hom part, and twist chi(theta) = rho~ . theta.
    ``rho`` is a GradedLinearMap from the generator basis into ``pi`` (or
    None for an untwisted product); it must vanish on the sub_b generators
    and kill d (``deru`` checks the latter).  ``pi`` defaults to one line in
    each degree 4i-1 up to the maximum degree of the suspended Hom source.
    """
    if not p.is_minimal(sub_a):
        raise NotMinimal("p is not minimal relative to %r" % sub_a)
    lo, hi = max(0, int(window[0])), int(window[1])
    if rho is not None and sub_b is not None:
        spec = p.sub(sub_b)
        if isinstance(spec, GeneratorSplit):
            for nm in spec.names:
                if _rho_of(rho, p.gen(nm)):
                    raise RhoNotChainMap("rho does not vanish on sub generator %r" % nm)
    if pi is None:
        top = max((d for _, d in p.nonsub_generators(sub_b)), default=0) + 1
        pi = pi_so_basis(top)
    hm = _HomModule(p, sub_b, pi, (lo, hi))
    g = deru(p, sub_a, rho, (lo, hi))

    induced = {}

    def induced_map(n, i):
        got = induced.get((n, i))
        if got is None:
            got = induced[n, i] = hm.induced_map(g.derivations[n][i])
        return got

    def action_fn(n, i, m, j):
        lin = induced_map(n, i)
        if not lin:
            return {}
        right = hm.right_action_induced(n, lin, m, hm.raw_basis_vector(m, j))
        sgn = -1 if (n * m) % 2 == 0 else 1
        return hm.to_module_coords(n + m, {k: sgn * x for k, x in right.items()})

    def chi_fn(n, i):
        return hm.to_module_coords(n - 1, hm.chi_induced(n, induced_map(n, i), rho))

    a = OuterAction(g, hm.module, action_fn, chi_fn if rho is not None else None)
    slc = semidirect(g, hm.module, a, (lo, hi))
    slc.hom_module = hm
    return slc


def build_block_g(model, window):
    """The block dg Lie algebra of a manifold model.

    tau_{>=0} Hom(s V, pi_*(SO) x Q) |x_{p_*} Der_u^p(L rel omega), with the
    outer action (f.theta)(s v) = (-1)^{|theta|} f(s (pr.theta)(v)) and
    chi = p_* the Pontryagin twist.  The Hom part has zero differential
    since V carries none.  When the model's differential is nonzero, the
    degree-0 part is Der_u only under the semisimplicity hypothesis, which
    the caller asserts (see ``deru``).
    """
    top = max((d for _, d in model.v.basis.entries), default=0) + 1
    pi = pi_so_basis(top)
    rho = model.pontryagin_map(model.presentation, pi)
    return build_g(model.presentation, None, "omega", rho, pi, window)
