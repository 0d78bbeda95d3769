"""End-to-end gluing and comparison pipelines.

Boundary connected sums at the Lie-algebra level, the induced map of the
headline semidirect dg Lie algebras (Hom factors by the direct-sum
identification of indecomposables, derivation factors by extension by
zero), and the forgetful three-term comparison, which reports homology
ranks of both projections and deliberately claims nothing more.
"""

from fractions import Fraction

from . import linalg
from .derivations import Derivation, forget_pullback
from .errors import DimensionMismatch, SemisimplicityNotAsserted, SubMismatch
from .expr import rename_tree
from .graded import betti_numbers
from .models import manifold_model, tilde_model


def _fresh_names(taken, names):
    out = {}
    taken = set(taken)
    for n in names:
        nn = n
        while nn in taken:
            nn = nn + "'"
        out[n] = nn
        taken.add(nn)
    return out


def boundary_connected_sum(m, n):
    """The model of a boundary connected sum: V_M + V_N, block pairing.

    Differentials and Pontryagin functionals are carried over; omega
    additivity (omega_{M natural-sum N} = omega_M + omega_N) is verified
    exactly.  The result records the generator renamings as ``left_names``
    and ``right_names``.
    """
    if m.dimension != n.dimension:
        raise DimensionMismatch(
            "dimensions %d and %d differ" % (m.dimension, n.dimension)
        )
    left_names = {nm: nm for nm, _ in m.v.basis.entries}
    right_names = _fresh_names(
        [nm for nm, _ in m.v.basis.entries], [nm for nm, _ in n.v.basis.entries]
    )
    gens = [(nm, d) for nm, d in m.v.basis.entries] + [
        (right_names[nm], d) for nm, d in n.v.basis.entries
    ]
    k, l = len(m.v.basis), len(n.v.basis)
    pairing = [[Fraction(0)] * (k + l) for _ in range(k + l)]
    for i in range(k):
        for j in range(k):
            pairing[i][j] = m.v.pairing[i][j]
    for i in range(l):
        for j in range(l):
            pairing[k + i][k + j] = n.v.pairing[i][j]

    diff = {}
    for nm, v in m.presentation.differential.items():
        diff[nm] = v.terms()
    for nm, v in n.presentation.differential.items():
        diff[right_names[nm]] = [
            (c, rename_tree(t, right_names)) for c, t in v.terms()
        ]
    pont = {}
    degs = set(m.pontryagin) | set(n.pontryagin)
    for d in degs:
        names = [nm for nm, gd in gens if gd == d]
        vals = []
        mv = dict(zip(m.v.basis.in_degree(d), m.pontryagin.get(d, [0] * m.v.basis.dim(d))))
        nv = dict(
            zip(
                [right_names[x] for x in n.v.basis.in_degree(d)],
                n.pontryagin.get(d, [0] * n.v.basis.dim(d)),
            )
        )
        for nm in names:
            vals.append(mv.get(nm, nv.get(nm, Fraction(0))))
        pont[d] = vals
    out = manifold_model(m.dimension, gens, pairing, diff, pont)
    expected = out.presentation.normal_form(
        m.omega.terms() + [(c, rename_tree(t, right_names)) for c, t in n.omega.terms()]
    )
    if out.omega != expected:
        raise AssertionError("omega additivity failed on the connected sum")
    out.left_names = left_names
    out.right_names = right_names
    return out


class HeadlineGluingMap:
    """The dg Lie map g(M) x g(N) -> g(M natural-sum N) on a window.

    ``blocks[d]`` maps the concatenated (gM_d, gN_d) coordinates to
    g_glued_d coordinates.  ``report`` certifies d- and bracket-
    compatibility on the window.
    """

    def __init__(self, g_left, g_right, g_glued, blocks, report):
        self.g_left = g_left
        self.g_right = g_right
        self.g_glued = g_glued
        self.blocks = blocks
        self.report = report

    def apply(self, d, left_vec, right_vec):
        return linalg.matvec(self.blocks[d], list(left_vec) + list(right_vec))


def _extend_derivation(theta, glued_p, names):
    vals = {}
    for gname, v in theta.values.items():
        vals[names[gname]] = glued_p.normal_form(
            [(c, rename_tree(t, names)) for c, t in v.terms()]
        )
    return Derivation(glued_p, theta.degree, vals, rel=None, check=False)


def _factor_block(g_factor, g_glued, names, d):
    """Matrix embedding one factor's degree-d part into the glued algebra."""
    gf = g_factor.acting
    gg = g_glued.acting
    hf = g_factor.hom_module
    hg = g_glued.hom_module
    nf_der = gf.dim(d)
    nf_hom = g_factor.module.dim(d)
    cols = []
    for i in range(nf_der):
        theta = gf.derivations[d][i]
        ext = _extend_derivation(theta, gg.p, names)
        c = gg.coords(ext, d)
        vec = [Fraction(0)] * g_glued.dim(d)
        for k, x in enumerate(c):
            vec[k] = x
        cols.append(vec)
    for j in range(nf_hom):
        raw = hf.raw_basis_vector(d, j)
        glued_raw = [Fraction(0)] * hg.full.dim(d)
        for (fd, sname, tname), pos in hf.index.items():
            if fd != d:
                continue
            cval = raw[pos]
            if not cval:
                continue
            xname = sname[1:]
            tgt = hg.index.get((d, "s%s" % names[xname], tname))
            if tgt is None:
                raise SubMismatch("Hom functional %r has no glued counterpart" % sname)
            glued_raw[tgt] += cval
        mod_coords = hg.to_module_coords(d, glued_raw)
        vec = [Fraction(0)] * g_glued.dim(d)
        off = gg.dim(d)
        for k, x in enumerate(mod_coords):
            vec[off + k] = x
        cols.append(vec)
    return cols


def glue_headline_g(g_left, g_right, g_glued, left_names, right_names,
                    assert_semisimple=False, check=True):
    """The gluing map on headline semidirect dg Lie algebras.

    Hom factors are combined by the direct-sum identification of the
    indecomposables; derivation factors by extension by zero.  Requires
    the caller to assert semisimplicity of both factors' indecomposables
    representations (the reductive-quotient comparison can genuinely fail
    without it).  The result is verified to be a map of dg Lie algebras on
    the window.
    """
    if not assert_semisimple:
        raise SemisimplicityNotAsserted(
            "pass assert_semisimple=True after checking the hypothesis"
        )
    lo = max(g_left.lo, g_right.lo, g_glued.lo)
    hi = min(g_left.hi, g_right.hi, g_glued.hi)
    blocks = {}
    for d in range(lo, hi + 1):
        cols_l = _factor_block(g_left, g_glued, left_names, d)
        cols_r = _factor_block(g_right, g_glued, right_names, d)
        ncols = g_left.dim(d) + g_right.dim(d)
        rows = g_glued.dim(d)
        # column order: left (derivations, Hom) then right (derivations, Hom)
        mat = linalg.zero_matrix(rows, ncols)
        for j, col in enumerate(cols_l + cols_r):
            for i, x in enumerate(col):
                mat[i][j] = x
        blocks[d] = mat
    report = []
    if check:
        ok = True
        witness = None
        for d in range(lo + 1, hi + 1):
            for j in range(g_left.dim(d) + g_right.dim(d)):
                unit = [Fraction(0)] * (g_left.dim(d) + g_right.dim(d))
                unit[j] = Fraction(1)
                lv, rv = unit[: g_left.dim(d)], unit[g_left.dim(d) :]
                mapped = linalg.matvec(blocks[d], unit)
                dmapped = g_glued.d_apply(d, mapped)
                dl = g_left.d_apply(d, lv)
                dr = g_right.d_apply(d, rv)
                mapped_d = linalg.matvec(blocks[d - 1], list(dl) + list(dr))
                if dmapped != mapped_d:
                    ok = False
                    witness = ("d_compat", d, j)
        report.append(("glue_commutes_with_d", ok, witness))
        ok = True
        witness = None
        budget = 120
        for n in range(lo, hi + 1):
            for m in range(lo, hi + 1):
                if not (lo <= n + m <= hi) or budget <= 0:
                    continue
                nl = g_left.dim(n) + g_right.dim(n)
                ml = g_left.dim(m) + g_right.dim(m)
                for i in range(nl):
                    for j in range(ml):
                        if budget <= 0:
                            break
                        budget -= 1
                        u = [Fraction(0)] * nl
                        u[i] = Fraction(1)
                        v = [Fraction(0)] * ml
                        v[j] = Fraction(1)
                        bl = g_left.bracket_vectors(n, u[: g_left.dim(n)], m, v[: g_left.dim(m)])
                        br = g_right.bracket_vectors(n, u[g_left.dim(n) :], m, v[g_left.dim(m) :])
                        lhs = linalg.matvec(blocks[n + m], list(bl) + list(br))
                        rhs = g_glued.bracket_vectors(
                            n, linalg.matvec(blocks[n], u), m, linalg.matvec(blocks[m], v)
                        )
                        if lhs != rhs:
                            ok = False
                            witness = ("bracket_compat", n, i, m, j)
        report.append(("glue_bracket_compatible", ok, witness))
    from .presentation import ValidationReport

    rep = ValidationReport(report) if check else ValidationReport([])
    if check and not rep.passed:
        raise SubMismatch("gluing map failed verification: %r" % rep.failures())
    return HeadlineGluingMap(g_left, g_right, g_glued, blocks, rep)


def forget_compare(model, window, rho=None, mode=None, use_pontryagin=False):
    """Homology ranks of the three-term forgetful comparison for a model.

    Builds the stabilized model, forms the pullback of
    Der_u(L rel omega) <- . -> Der_u(L~ rel beta) over the projection, and
    reports per-degree homology ranks of all three complexes with
    agreement flags.  No quasi-isomorphism claim is made.
    """
    tilde, inc, proj = tilde_model(model)
    if mode is None:
        mode = (
            "trivial-differential"
            if not model.presentation.differential
            else "semisimple-indec"
        )
    rho_l = rho_r = None
    if use_pontryagin:
        from .models import pi_so_basis

        top = max((d for _, d in model.v.basis.entries), default=0) + 1
        pi = pi_so_basis(top + 2)
        rho_l = model.pontryagin_map(model.presentation, pi)
        rho_r = model.pontryagin_map(tilde, pi)
    lo, hi = int(window[0]), int(window[1])
    # The tilde side always has a nonzero differential, so it runs in the
    # asserted semisimple-indec mode; when the base differential vanishes
    # that assertion is automatic (the indecomposables representation
    # factors through the symplectic group).
    slc, left, right, pairs = forget_pullback(
        proj,
        "omega",
        "beta",
        (lo, hi),
        rho_target=rho_l,
        rho_source=rho_r,
        mode_target=mode,
        mode_source="semisimple-indec",
    )
    k0, k1 = max(0, lo), hi - 1
    b_left = betti_numbers(left.to_chain(pad_below=True), (k0, k1))
    b_right = betti_numbers(right.to_chain(pad_below=True), (k0, k1))
    pad = slc  # pullback slice is genuinely zero below 0 as well
    from .graded import ChainComplexSlice, GradedBasis

    spaces = {d: pad.spaces[d] for d in range(pad.lo, pad.hi + 1)}
    spaces[pad.lo - 1] = GradedBasis([])
    diff = {d: pad.d_matrix(d) for d in range(pad.lo + 1, pad.hi + 1)}
    padded = ChainComplexSlice((pad.lo - 1, pad.hi), spaces, diff)
    b_mid = betti_numbers(padded, (k0, k1))
    rows = []
    for k in range(k0, k1 + 1):
        rows.append(
            {
                "degree": k,
                "left": b_left[k],
                "pullback": b_mid[k],
                "right": b_right[k],
                "left_agrees": b_left[k] == b_mid[k],
                "right_agrees": b_right[k] == b_mid[k],
            }
        )
    return rows
