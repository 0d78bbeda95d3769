"""Manifold-facing constructions.

Graded symplectic spaces and their canonical cycle omega, validated manifold
models, the stabilized model (beta, gamma adjoined with d gamma = omega -
beta), the extension of derivations to it, outer actions, twisted semidirect
products, and the two headline builders: the general semidirect dg Lie
algebra over a triple of designated subs, and its block specialization.
"""

from fractions import Fraction

from . import linalg
from .derivations import Derivation, deru
from .errors import (
    AxiomFailure,
    BadPontryaginDegrees,
    NotMinimal,
    NotUnimodular,
    OmegaNotClosed,
    RhoNotChainMap,
)
from .graded import GradedBasis, GradedLinearMap
from .morphisms import GeneratorMorphism
from .presentation import (
    DgLaPresentation,
    ElementGenerated,
    GeneratorSplit,
)
from .slices import DgLieSlice, hom_slice, shifted_basis


class SymplecticGVS:
    """A graded vector space with a unimodular graded-antisymmetric pairing.

    ``pairing[i][j]`` is <alpha_i, alpha_j>, nonzero only when the degrees
    sum to ``m`` (the form has degree -m); graded antisymmetry is
    <v, w> = (-1)^{|v||w|+1} <w, v>.
    """

    def __init__(self, basis, form_degree, pairing):
        self.basis = GradedBasis(basis)
        self.m = -int(form_degree)
        n = len(self.basis)
        self.pairing = [[Fraction(x) for x in row] for row in pairing]
        if len(self.pairing) != n or any(len(r) != n for r in self.pairing):
            raise ValueError("pairing matrix must be square of the basis size")
        degs = [d for _, d in self.basis.entries]
        for i in range(n):
            for j in range(n):
                if self.pairing[i][j] and degs[i] + degs[j] != self.m:
                    raise ValueError(
                        "pairing nonzero off the complementary degrees at (%d,%d)"
                        % (i, j)
                    )
                sign = Fraction(1 if (degs[i] * degs[j]) % 2 else -1)
                if self.pairing[i][j] != sign * self.pairing[j][i]:
                    raise ValueError("pairing is not graded antisymmetric")
        if n and linalg.rank(self.pairing, n) != n:
            raise NotUnimodular("pairing matrix is singular")

    def dual_basis_matrix(self):
        """Columns c_i with <sum_k c_i[k] alpha_k, alpha_i> = delta_ij."""
        n = len(self.basis)
        out = []
        for i in range(n):
            rhs = [Fraction(1 if j == i else 0) for j in range(n)]
            # unknown x with sum_k x_k <alpha_k, alpha_j> = delta_ij
            rows = [[self.pairing[k][j] for k in range(n)] for j in range(n)]
            x = linalg.solve(rows, n, rhs)
            if x is None:
                raise NotUnimodular("pairing matrix is singular")
            out.append(x)
        return out


def omega_element(v, presentation=None):
    """The degree-m cycle (1/2) sum [alpha_i^#, alpha_i] in the free algebra.

    Independent of the choice of basis.  When ``presentation`` is omitted, a
    fresh presentation on the symplectic basis with zero differential is
    created.
    """
    p = presentation
    if p is None:
        p = DgLaPresentation(list(v.basis.entries))
    duals = v.dual_basis_matrix()
    names = v.basis.names()
    out = p.zero(v.m)
    half = Fraction(1, 2)
    for i, name in enumerate(names):
        sharp = p.zero(v.basis.degree(name))
        for k, c in enumerate(duals[i]):
            if c:
                sharp = sharp + p.gen(names[k]).scale(c)
        out = out + p.bracket(sharp, p.gen(name)).scale(half)
    return out


class ManifoldModel:
    """A validated Stasheff-type model of a manifold with sphere boundary.

    Fields: the symplectic space V (degree -(n-2) pairing), an optional
    differential on the free Lie algebra over V, and Pontryagin functionals
    on the degree 4i-1 parts of V.  ``presentation`` carries the designated
    sub "omega" (element-generated by omega_V).
    """

    def __init__(self, dimension, v, differential=None, pontryagin=None):
        self.dimension = int(dimension)
        self.v = v
        if v.m != self.dimension - 2:
            raise ValueError("pairing degree must be -(dimension - 2)")
        self.presentation = DgLaPresentation(
            list(v.basis.entries), differential or {}
        )
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
            values = [Fraction(x) for x in values]
            if len(values) != len(names):
                raise ValueError("pontryagin values do not match the degree-%d basis" % deg)
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
            m = [[Fraction(0)] * len(src) for _ in tgt]
            names = self.v.basis.in_degree(deg)
            for j, n in enumerate(src):
                if n in names:
                    m[0][j] = values[names.index(n)]
            rho.set_block(deg, m)
        return rho


def manifold_model(dimension, generators, pairing, differential=None, pontryagin=None):
    """Validate raw data into a ManifoldModel (see the JSON schema in io)."""
    v = SymplecticGVS(generators, -(int(dimension) - 2), pairing)
    return ManifoldModel(dimension, v, differential, pontryagin)


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
    sends beta to omega and gamma to zero.
    """
    p = model.presentation
    m = model.v.m
    gens = list(p.generators.entries) + [("beta", m), ("gamma", m + 1)]
    diff = {n: v.terms() for n, v in p.differential.items()}
    omega_terms = model.omega.terms()
    diff["gamma"] = omega_terms + [(Fraction(-1), "beta")]
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

    ``action(n, i, m, j)`` gives the left action of the acting basis element
    (n, i) on the module basis element (m, j), as module coordinates in
    degree n+m; ``chi(n, i)`` gives the degree -1 twist in module
    coordinates.  Results are memoized.
    """

    def __init__(self, acting, module, action_fn, chi_fn=None):
        self.acting = acting
        self.module = module
        self._action_fn = action_fn
        self._chi_fn = chi_fn
        self._act_memo = {}
        self._chi_memo = {}

    def act(self, n, i, m, j):
        key = (n, i, m, j)
        got = self._act_memo.get(key)
        if got is None:
            got = self._action_fn(n, i, m, j)
            self._act_memo[key] = got
        return got

    def act_vectors(self, n, x, m, y):
        out = [Fraction(0)] * self.module.dim(n + m)
        for i, ci in enumerate(x):
            if not ci:
                continue
            for j, cj in enumerate(y):
                if not cj:
                    continue
                for k, bk in enumerate(self.act(n, i, m, j)):
                    if bk:
                        out[k] += ci * cj * bk
        return out

    def chi(self, n, i):
        if self._chi_fn is None:
            return [Fraction(0)] * self.module.dim(n - 1)
        key = (n, i)
        got = self._chi_memo.get(key)
        if got is None:
            got = self._chi_fn(n, i)
            self._chi_memo[key] = got
        return got

    def chi_vector(self, n, x):
        out = [Fraction(0)] * self.module.dim(n - 1)
        for i, ci in enumerate(x):
            if ci:
                for k, bk in enumerate(self.chi(n, i)):
                    if bk:
                        out[k] += ci * bk
        return out


def outer_action_check(a, window=None):
    """Verify the outer-action axioms on all basis pairs in the window.

    Checks that the action is a map of graded Lie algebras, that chi
    anti-commutes with the differentials (a chain map of degree -1), and the
    two defining equations
        chi([t,p]) = chi(t).p + (-1)^{|t|} t.chi(p)
        d(t.x) = dt.x + (-1)^{|t|} t.dx + [chi(t), x]
    where the right action is x.p = -(-1)^{|x||p|} p.x.  Returns a report
    list of (check, ok, witness); never raises.
    """
    g = a.acting
    L = a.module
    lo = max(g.lo, window[0]) if window else g.lo
    hi = min(g.hi, window[1]) if window else g.hi
    checks = []

    def mod_ok(d):
        return L.lo <= d <= L.hi

    def g_ok(d):
        return g.lo <= d <= g.hi

    ok = True
    witness = None
    for n in range(lo, hi + 1):
        for m in range(lo, hi + 1):
            if not g_ok(n + m):
                continue
            for i in range(g.dim(n)):
                for j in range(g.dim(m)):
                    br = g.bracket(n, i, m, j)
                    for k in range(L.lo, L.hi + 1):
                        if not mod_ok(n + m + k):
                            continue
                        for l in range(L.dim(k)):
                            x = linalg.unit_vector(L.dim(k), l)
                            lhs = a.act_vectors(n + m, br, k, x)
                            t1 = a.act_vectors(
                                n, linalg.unit_vector(g.dim(n), i), m + k,
                                a.act_vectors(m, linalg.unit_vector(g.dim(m), j), k, x),
                            )
                            sign = Fraction(-1 if (n * m) % 2 else 1)
                            t2 = a.act_vectors(
                                m, linalg.unit_vector(g.dim(m), j), n + k,
                                a.act_vectors(n, linalg.unit_vector(g.dim(n), i), k, x),
                            )
                            if lhs != [u - sign * w for u, w in zip(t1, t2)]:
                                ok = False
                                witness = ("alpha_lie_map", n, i, m, j, k, l)
    checks.append(("action_is_graded_lie_map", ok, witness))

    ok = True
    witness = None
    for n in range(max(lo, g.lo + 1), hi + 1):
        if not (mod_ok(n - 1) and mod_ok(n - 2)):
            continue
        for i in range(g.dim(n)):
            x = linalg.unit_vector(g.dim(n), i)
            lhs = L.d_apply(n - 1, a.chi_vector(n, x))
            rhs = a.chi_vector(n - 1, g.d_apply(n, x))
            if [u + w for u, w in zip(lhs, rhs)] != [Fraction(0)] * L.dim(n - 2):
                ok = False
                witness = ("chi_chain", n, i)
    checks.append(("chi_anticommutes_with_d", ok, witness))

    ok = True
    witness = None
    for n in range(lo, hi + 1):
        for m in range(lo, hi + 1):
            zb = getattr(L, "zero_below", False)
            chi_n = mod_ok(n - 1) or (n - 1 < L.lo and zb)
            chi_m = mod_ok(m - 1) or (m - 1 < L.lo and zb)
            if not (g_ok(n + m) and mod_ok(n + m - 1) and chi_n and chi_m):
                continue
            for i in range(g.dim(n)):
                for j in range(g.dim(m)):
                    br = g.bracket(n, i, m, j)
                    lhs = a.chi_vector(n + m, br)
                    # chi(t).p = -(-1)^{|chi t||p|} p.chi(t)
                    if mod_ok(n - 1):
                        chit = a.chi(n, i)
                        sgn1 = Fraction(-1 if ((n - 1) * m) % 2 == 0 else 1)
                        t1 = a.act_vectors(m, linalg.unit_vector(g.dim(m), j), n - 1, chit)
                        t1 = [sgn1 * u for u in t1]
                    else:
                        t1 = [Fraction(0)] * L.dim(n + m - 1)
                    if mod_ok(m - 1):
                        sgn2 = Fraction(-1 if n % 2 else 1)
                        t2 = a.act_vectors(n, linalg.unit_vector(g.dim(n), i), m - 1, a.chi(m, j))
                        t2 = [sgn2 * u for u in t2]
                    else:
                        t2 = [Fraction(0)] * L.dim(n + m - 1)
                    if lhs != [u + w for u, w in zip(t1, t2)]:
                        ok = False
                        witness = ("axiom_chi_bracket", n, i, m, j)
    checks.append(("chi_of_bracket", ok, witness))

    ok = True
    witness = None
    for n in range(lo, hi + 1):
        for k in range(L.lo, L.hi + 1):
            zb = getattr(L, "zero_below", False)
            chi_known = mod_ok(n - 1) or (n - 1 < L.lo and zb)
            dx_known = mod_ok(k - 1) or (k - 1 < L.lo and zb)
            dtheta_known = n - 1 >= g.lo or getattr(g, "zero_below", False)
            if not (mod_ok(n + k) and mod_ok(n + k - 1)
                    and chi_known and dx_known and dtheta_known):
                continue
            for i in range(g.dim(n)):
                t = linalg.unit_vector(g.dim(n), i)
                for l in range(L.dim(k)):
                    x = linalg.unit_vector(L.dim(k), l)
                    lhs = L.d_apply(n + k, a.act_vectors(n, t, k, x))
                    if n - 1 >= g.lo:
                        dt = g.d_apply(n, t)
                        t1 = a.act_vectors(n - 1, dt, k, x)
                    else:
                        t1 = [Fraction(0)] * L.dim(n + k - 1)
                    if mod_ok(k - 1):
                        sgn = Fraction(-1 if n % 2 else 1)
                        t2 = a.act_vectors(n, t, k - 1, L.d_apply(k, x))
                        t2 = [sgn * u for u in t2]
                    else:
                        t2 = [Fraction(0)] * L.dim(n + k - 1)
                    if mod_ok(n - 1):
                        t3 = L.bracket_vectors(n - 1, a.chi_vector(n, t), k, x)
                    else:
                        t3 = [Fraction(0)] * L.dim(n + k - 1)
                    rhs = [u + w + z for u, w, z in zip(t1, t2, t3)]
                    if lhs != rhs:
                        ok = False
                        witness = ("axiom_d_of_action", n, i, k, l)
    checks.append(("d_of_action", ok, witness))
    from .presentation import ValidationReport

    return ValidationReport(checks)


def semidirect(g, L, a, window=None, check=True):
    """The twisted semidirect product g |x_chi L as a slice.

    Bracket [(t,x),(p,y)] = ([t,p], [x,y] + t.y + x.p) and differential
    d(t,x) = (dt, dx + chi(t)), with x.p = -(-1)^{|x||p|} p.x.  Basis per
    degree: the acting part first, then the module part.
    """
    if check:
        rep = outer_action_check(a, window)
        if not rep.passed:
            raise AxiomFailure("outer action axioms fail: %r" % rep.failures())
    lo = max(g.lo, L.lo) if window is None else window[0]
    hi = min(g.hi, L.hi) if window is None else window[1]
    labels = {
        d: ["g:%s" % s for s in g.labels.get(d, [])]
        + ["m:%s" % s for s in L.labels.get(d, [])]
        for d in range(lo, hi + 1)
    }
    d_blocks = {}
    for d in range(lo + 1, hi + 1):
        gd, ld = g.dim(d), L.dim(d)
        rows = g.dim(d - 1) + L.dim(d - 1)
        m = linalg.zero_matrix(rows, gd + ld)
        dg = g.d_matrix(d)
        for j in range(gd):
            for i in range(g.dim(d - 1)):
                m[i][j] = dg[i][j]
            chi = a.chi(d, j)
            for i in range(L.dim(d - 1)):
                m[g.dim(d - 1) + i][j] = chi[i]
        dl = L.d_matrix(d)
        for j in range(ld):
            for i in range(L.dim(d - 1)):
                m[g.dim(d - 1) + i][gd + j] = dl[i][j]
        d_blocks[d] = m

    def bracket_fn(n, i, m, j):
        gn, gm = g.dim(n), g.dim(m)
        out_g = [Fraction(0)] * g.dim(n + m)
        out_l = [Fraction(0)] * L.dim(n + m)
        if i < gn and j < gm:
            out_g = g.bracket(n, i, m, j)
        elif i < gn and j >= gm:
            out_l = a.act(n, i, m, j - gm)
        elif i >= gn and j < gm:
            # x.p = -(-1)^{|x||p|} p.x
            sgn = Fraction(-1 if ((n) * (m)) % 2 == 0 else 1)
            v = a.act(m, j, n, i - gn)
            out_l = [sgn * u for u in v]
        else:
            out_l = L.bracket(n, i - gn, m, j - gm)
        return list(out_g) + list(out_l)

    slc = DgLieSlice((lo, hi), labels, d_blocks, bracket_fn=bracket_fn)
    slc.acting = g
    slc.module = L
    slc.action = a
    if check:
        slc.check_d_squared()
        slc.check_bracket_axioms(triple_budget=60)
    return slc


def _indec_slice_data(p, sub):
    """(basis, d_blocks) of the relative indecomposables, unsuspended."""
    gens = p.nonsub_generators(sub)
    basis = GradedBasis(gens)
    keep = {n for n, _ in gens}
    d_blocks = {}
    degs = sorted({d for _, d in gens})
    for d in degs:
        src = basis.in_degree(d)
        tgt = basis.in_degree(d - 1)
        if not src or not tgt:
            continue
        m = [[Fraction(0)] * len(src) for _ in tgt]
        nonzero = False
        for j, n in enumerate(src):
            for tn, c in p.d_gen(n).linear_part().items():
                if tn in keep and tn in tgt:
                    m[tgt.index(tn)][j] = c
                    nonzero = True
        if nonzero:
            d_blocks[d] = m
    return basis, d_blocks


def _suspended_hom(p, sub, pi, window):
    """tau_{>=0} Hom(s indec_sub(p), pi) plus index bookkeeping.

    The suspension has degrees raised by one and differential negated:
    d(s x) = -s(d x).
    """
    basis, d_blocks = _indec_slice_data(p, sub)
    sbasis = shifted_basis(basis.entries)
    s_blocks = {}
    for d, m in d_blocks.items():
        s_blocks[d + 1] = [[-x for x in row] for row in m]
    lo = min(window[0] - 1, -1)
    full = hom_slice(sbasis, s_blocks, pi, (lo, window[1]))
    return full.truncate_nonneg(), full, basis, sbasis


class _HomModule:
    """Bookkeeping for the module tau_{>=0} Hom(s indec_sub(p), pi).

    Mediates between the truncated module coordinates used by the semidirect
    product and the raw Hom coordinates that the action formulas produce.
    """

    def __init__(self, p, sub, pi, window):
        self.p = p
        self.sub = sub
        self.pi = pi
        self.module, self.full, self.indec_basis, self.sbasis = _suspended_hom(
            p, sub, pi, window
        )
        self.index = self.full.hom_index
        self.keep = {n for n, _ in self.indec_basis.entries}

    def raw_basis_vector(self, m, j):
        if m > 0:
            v = [Fraction(0)] * self.full.dim(m)
            v[j] = Fraction(1)
            return v
        return list(self.module.z0.vectors[j])

    def to_module_coords(self, m, raw):
        if m > 0:
            return raw
        c = self.module.z0.coords(raw)
        if c is None:
            raise AxiomFailure("Hom value in degree 0 is not a cycle")
        return c

    def right_action_raw(self, theta, m, fvec):
        """(f.theta)(s[x]) = (-1)^{|theta|} f(s[theta(x)]) in raw coordinates."""
        n = theta.degree
        out = [Fraction(0)] * self.full.dim(n + m)
        sign = Fraction(-1 if n % 2 else 1)
        for (fdeg, sname, tname), pos in self.index.items():
            if fdeg != m:
                continue
            c = fvec[pos]
            if not c:
                continue
            xf = sname[1:]
            want = self.p.generators.degree(xf) - n
            for x in self.indec_basis.in_degree(want):
                lam = theta.value(x).linear_part().get(xf)
                if lam:
                    tgt = self.index.get((m + n, "s%s" % x, tname))
                    if tgt is not None:
                        out[tgt] += sign * c * lam
        return out

    def chi_raw(self, theta, rho):
        """(rho~ . theta)(s[x]) = (-1)^{|theta|} rho(theta(x)), raw coords."""
        n = theta.degree
        out = [Fraction(0)] * self.full.dim(n - 1)
        sign = Fraction(-1 if n % 2 else 1)
        for x, xd in self.indec_basis.entries:
            val = theta.value(x)
            if val.is_zero():
                continue
            comps = _rho_components(self.p, rho, val)
            for tname, c in comps.items():
                tgt = self.index.get((n - 1, "s%s" % x, tname))
                if tgt is not None:
                    out[tgt] += sign * c
        return out


def _rho_components(p, rho, element):
    """rho applied to an element's linear part: dict pi-name -> Fraction."""
    out = {}
    lin = element.linear_part()
    if not lin:
        return out
    d = element.degree
    src = rho.source.in_degree(d)
    tgt = rho.target.in_degree(d + rho.degree)
    if not src or not tgt:
        return out
    vec = [lin.get(nm, Fraction(0)) for nm in src]
    img = rho.apply(d, vec)
    for i, c in enumerate(img):
        if c:
            out[tgt[i]] = c
    return out


def build_g(p, sub_b, sub_a, rho, pi, window, mode="semisimple-indec", check=True):
    """The headline semidirect dg Lie algebra over a triple of subs.

    g = tau_{>=0} Hom(s indec_{sub_b}(p), pi) |x Der_u^rho(p rel sub_a),
    with right action (f.theta)(s[x]) = (-1)^{|theta|} f(s[theta(x)]) of the
    derivation part on the Hom part, and twist chi(theta) = rho~ . theta.
    ``rho`` is a GradedLinearMap from the generator basis into ``pi`` (or
    None for an untwisted product); it must vanish on the sub_b generators
    and kill d.  ``pi`` defaults to one line in each degree 4i-1 up to the
    maximum degree of the suspended Hom source.
    """
    if not p.is_minimal(sub_a):
        raise NotMinimal("p is not minimal relative to %r" % sub_a)
    lo, hi = max(0, int(window[0])), int(window[1])
    if rho is not None:
        from .derivations import check_rho_chain_map

        check_rho_chain_map(p, rho)
        if sub_b is not None:
            spec = p.sub(sub_b)
            if isinstance(spec, GeneratorSplit):
                for nm in spec.names:
                    if _rho_components(p, rho, p.gen(nm)):
                        raise RhoNotChainMap(
                            "rho does not vanish on sub generator %r" % nm
                        )
    basis, _ = _indec_slice_data(p, sub_b)
    if pi is None:
        top = max((d for _, d in basis.entries), default=0) + 1
        pi = pi_so_basis(top)
    hm = _HomModule(p, sub_b, pi, (lo, hi))
    g = deru(p, sub_a, rho, (lo, hi), mode=mode)

    def action_fn(n, i, m, j):
        theta = g.derivations[n][i]
        raw = hm.raw_basis_vector(m, j)
        right = hm.right_action_raw(theta, m, raw)
        sgn = Fraction(-1 if (n * m) % 2 == 0 else 1)
        return hm.to_module_coords(n + m, [sgn * x for x in right])

    def chi_fn(n, i):
        if rho is None:
            return [Fraction(0)] * hm.module.dim(n - 1)
        theta = g.derivations[n][i]
        return hm.to_module_coords(n - 1, hm.chi_raw(theta, rho))

    a = OuterAction(g, hm.module, action_fn, chi_fn)
    slc = semidirect(g, hm.module, a, (lo, hi), check=check)
    slc.hom_module = hm
    return slc


def build_block_g(model, window, mode=None, check=True):
    """The block dg Lie algebra of a manifold model.

    tau_{>=0} Hom(s V, pi_*(SO) x Q) |x_{p_*} Der_u^p(L rel omega), with the
    outer action (f.theta)(s v) = (-1)^{|theta|} f(s (pr.theta)(v)) and
    chi = p_* the Pontryagin twist.  The Hom part has zero differential
    since V carries none.  Mode defaults to trivial-differential when the
    model's differential vanishes and the caller-asserted semisimple-indec
    mode otherwise.
    """
    if mode is None:
        mode = (
            "trivial-differential"
            if not model.presentation.differential
            else "semisimple-indec"
        )
    top = max((d for _, d in model.v.basis.entries), default=0) + 1
    pi = pi_so_basis(top)
    rho = model.pontryagin_map(model.presentation, pi)
    return build_g(
        model.presentation,
        None,
        "omega",
        rho,
        pi,
        window,
        mode=mode,
        check=check,
    )
