"""Command-line front end.

Every command reads JSON inputs, runs a computation over an explicit degree
window, and emits a machine-readable report.  Exit codes: 0 when all
verdicts pass, 1 when a verification fails (the report is still written),
2 on malformed input (with a position-annotated message on stderr).

Homology tables for a window [min, max] come from chains built from min - 1;
a slice adds a zero degree below itself only when it vanishes there.

Report files have the shape {"report": <body>, "timing": seconds}; the body
is serialized canonically, so two runs on identical inputs are
byte-identical modulo the timing field.
"""

import argparse
import sys
import time

from . import expr as expr_mod
from . import freelie
from . import io as io_mod
from .ce import ce_cohomology
from .derivations import der_complex, deru
from .errors import DglaError, SchemaError, WindowTooNarrow
from .expmc import exp_automorphism, homotopy_check, mc_check
from .gluing import boundary_connected_sum, forget_compare, glue_headline_g
from .graded import betti_numbers
from .models import build_block_g, build_g, tilde_model
from .morphisms import GeneratorMorphism, check_morphism
from .presentation import DgLaPresentation, LieElement, lie_chain_slice, presentation_slice


def _window(args):
    """The requested degree window; call before any use of --min or --max.

    Bounded like generator degrees and slice windows, by freelie.MAX_DEGREE.
    """
    if args.min > args.max:
        raise SchemaError("window min exceeds max")
    bound = freelie.MAX_DEGREE
    if max(-args.min, args.max) > bound:
        raise SchemaError("window bounds must lie in [-%d, %d]" % (bound, bound))
    return (args.min, args.max)


def _nonneg_window(args):
    """The requested window with min raised to 0, for commands on tau_{>=0} objects."""
    lo, hi = _window(args)
    return max(0, lo), hi


def _load(inputs, path, loader, *args):
    """The JSON file at ``path`` read by an io loader; ``path`` joins the inputs."""
    out = loader(io_mod.load_json_file(path), *args)
    inputs.append(path)
    return out


def _verdict(name, ok, witness=None):
    v = {"name": name, "pass": bool(ok)}
    if witness is not None:
        v["witness"] = str(witness)
    return v


def _report_validation(rep, prefix=""):
    return [
        _verdict(prefix + name, ok, witness) for name, ok, witness in rep.checks
    ]


def _betti_table(b):
    return {str(k): v for k, v in sorted(b.items())}


def cmd_check(args, inputs):
    p = _load(inputs, args.file, io_mod.load_presentation)
    rep = p.validate()
    return {}, _report_validation(rep)


def cmd_homology(args, inputs):
    from .graded import homology as homology_op

    p = _load(inputs, args.file, io_mod.load_presentation)
    w = _window(args)
    # positively graded, so degrees <= 0 are empty and their Betti numbers 0
    c = lie_chain_slice(p, args.min - 1, args.max + 1)
    res = homology_op(c, w)
    betti = {str(k): v[0] for k, v in res.items()}
    reps = {}
    for k, (_, vectors) in res.items():
        if vectors:
            reps[str(k)] = [
                expr_mod.terms_to_str(LieElement(p, k, v).terms())
                for v in vectors
            ]
    dims = {str(d): p.dim(d) for d in range(args.min, args.max + 1)}
    tables = {"betti": betti, "dims": dims}
    if reps:
        tables["cycle_representatives"] = reps
    return tables, []


def cmd_indec(args, inputs):
    p = _load(inputs, args.file, io_mod.load_presentation)
    slc = p.indecomposables(args.sub)
    dims = {str(d): slc.dim(d) for d in range(slc.lo + 1, slc.hi)}
    minimal = p.is_minimal(args.sub)
    return {"dims": dims, "minimal": minimal}, []


def cmd_der(args, inputs):
    if args.rho and not args.deru:
        raise SchemaError("--rho needs --deru: rho cuts only Der_u's degree 0")
    if args.assert_semisimple and not args.deru:
        raise SchemaError("--assert-semisimple needs --deru: only Der_u's degree 0 "
                          "rests on semisimplicity")
    p = _load(inputs, args.file, io_mod.load_presentation)
    rho = None
    if args.rho:
        rho, _ = _load(inputs, args.rho, io_mod.load_rho, p)
    if args.deru:
        if p.differential and not args.assert_semisimple:
            raise SchemaError("--deru with a nonzero differential needs --assert-semisimple")
        slc = deru(p, args.sub, rho, _window(args))
    else:
        slc = der_complex(p, args.sub, _window(args))
    chain = slc.to_chain()
    dims = {str(d): slc.dim(d) for d in range(slc.lo, slc.hi + 1)}
    b = betti_numbers(chain, (chain.lo + 1, chain.hi - 1))
    return {"dims": dims, "betti": _betti_table(b)}, []


def cmd_ce(args, inputs):
    w = _window(args)
    if args.coeff_dim < 0:
        raise SchemaError("--coeff-dim must be at least 0, not %d" % args.coeff_dim)
    g, doc = _load(inputs, args.file, lambda obj: (io_mod.load_slice_or_presentation(obj), obj))
    if isinstance(g, DgLaPresentation):
        g = presentation_slice(g, 0, args.max)
    elif doc.get("bounded"):
        g = g.pad_to(0, args.max)
    b = ce_cohomology(g, args.coeff_dim, w)
    return {"betti": _betti_table(b)}, []


def cmd_model(args, inputs):
    inputs.append(args.file)
    try:
        m = io_mod.load_manifold(io_mod.load_json_file(args.file))
    except SchemaError:
        raise
    except DglaError as e:
        return {}, [_verdict("model_valid", False, e)]
    tables = {
        "omega": expr_mod.terms_to_str(m.omega.terms()) or "0",
        "model": io_mod.serialize_manifold(m),
    }
    return tables, [_verdict("model_valid", True)]


def cmd_tilde(args, inputs):
    m = _load(inputs, args.file, io_mod.load_manifold)
    tilde, inc, proj = tilde_model(m)
    verdicts = []
    verdicts.extend(_report_validation(tilde.validate(), "tilde_"))
    verdicts.append(_verdict("minimal_rel_beta", tilde.is_minimal("beta")))
    verdicts.extend(_report_validation(check_morphism(proj), "projection_"))
    return {"tilde": io_mod.serialize_presentation(tilde)}, verdicts


def cmd_xi(args, inputs):
    m = _load(inputs, args.file, io_mod.load_manifold)
    if m.presentation.differential and not args.assert_semisimple:
        raise SchemaError("xi on a model with nonzero differential needs --assert-semisimple")
    tilde, inc, proj = tilde_model(m)
    lo, hi = _nonneg_window(args)
    ul = deru(m.presentation, "omega", None, (lo - 1, hi + 1))
    ut = deru(tilde, "beta", None, (lo - 1, hi + 1))
    bl = betti_numbers(ul.to_chain(), (lo, hi))
    bt = betti_numbers(ut.to_chain(), (lo, hi))
    verdicts = [
        _verdict("rank_agree_degree_%d" % k, bl[k] == bt[k], "%d vs %d" % (bl[k], bt[k]))
        for k in range(lo, hi + 1)
    ]
    return {"left": _betti_table(bl), "right": _betti_table(bt)}, verdicts


def _g_tables(slc, lo, hi):
    dims = {str(d): slc.dim(d) for d in range(lo, hi + 1)}
    b = betti_numbers(slc.to_chain(), (lo, hi - 1))
    return {"dims": dims, "betti": _betti_table(b)}


def cmd_block_g(args, inputs):
    m = _load(inputs, args.file, io_mod.load_manifold)
    if m.presentation.differential and not args.assert_semisimple:
        raise SchemaError("block-g on a model with nonzero differential needs --assert-semisimple")
    lo, hi = _nonneg_window(args)
    g = build_block_g(m, (lo - 1, hi))
    return _g_tables(g, lo, hi), [_verdict("d_squared_zero", True)]


def cmd_g(args, inputs):
    p = _load(inputs, args.file, io_mod.load_presentation)
    rho = pi = None
    if args.rho:
        rho, pi = _load(inputs, args.rho, io_mod.load_rho, p)
    if p.differential and not args.assert_semisimple:
        raise SchemaError("g on a presentation with nonzero differential needs --assert-semisimple")
    lo, hi = _nonneg_window(args)
    g = build_g(p, args.sub_b, args.sub, rho, pi, (lo - 1, hi))
    return _g_tables(g, lo, hi), [_verdict("d_squared_zero", True)]


def cmd_glue(args, inputs):
    m = _load(inputs, args.left, io_mod.load_manifold)
    n = _load(inputs, args.right, io_mod.load_manifold)
    if not args.assert_semisimple:
        raise SchemaError("glue needs --assert-semisimple")
    mn = boundary_connected_sum(m, n)
    w = _nonneg_window(args)
    # the glued model has both factors' generators, so a window too deep
    # for either is refused by its build, before any factor is built
    gmn = build_block_g(mn, w)
    gm = build_block_g(m, w)
    gn = build_block_g(n, w)
    gmap = glue_headline_g(
        gm, gn, gmn, *mn.inclusions, assert_semisimple=True
    )
    tables = {
        "left_dims": {str(d): gm.dim(d) for d in range(w[0], w[1] + 1)},
        "right_dims": {str(d): gn.dim(d) for d in range(w[0], w[1] + 1)},
        "glued_dims": {str(d): gmn.dim(d) for d in range(w[0], w[1] + 1)},
    }
    return tables, _report_validation(gmap.report, "glue_")


def cmd_connected_sum(args, inputs):
    m = _load(inputs, args.left, io_mod.load_manifold)
    n = _load(inputs, args.right, io_mod.load_manifold)
    mn = boundary_connected_sum(m, n)
    return (
        {
            "model": io_mod.serialize_manifold(mn),
            "omega": expr_mod.terms_to_str(mn.omega.terms()) or "0",
        },
        [_verdict("omega_additive", True)],
    )


def cmd_forget(args, inputs):
    m = _load(inputs, args.file, io_mod.load_manifold)
    if m.presentation.differential and not args.assert_semisimple:
        raise SchemaError("forget on a model with nonzero differential needs --assert-semisimple")
    rows = forget_compare(m, _nonneg_window(args))
    return {"comparison": rows}, []


def cmd_exp(args, inputs):
    p = _load(inputs, args.file, io_mod.load_presentation)
    th = _load(inputs, args.derivation, io_mod.load_derivation, p)
    e = exp_automorphism(th)
    e_inv = exp_automorphism(th.scale(-1))
    ident = GeneratorMorphism.identity(p)
    verdicts = _report_validation(e.report, "exp_")
    verdicts.append(_verdict("exp_inverse_identity", e.compose(e_inv) == ident))
    images = {
        n: expr_mod.terms_to_str(v.terms()) or "0" for n, v in e.images.items()
    }
    return {"images": images}, verdicts


def cmd_mc(args, inputs):
    tau = _load(inputs, args.file, io_mod.load_candidate)
    ok, residual = mc_check(tau)
    labels = tau.slice.labels[-2]
    res = {labels[i]: expr_mod.rational_str(c) for i, c in residual.vector.items()}
    return {"residual": res}, [_verdict("maurer_cartan", ok, res if not ok else None)]


def cmd_homotopy(args, inputs):
    homotopy = _load(inputs, args.file, io_mod.load_homotopy)
    return {}, _report_validation(homotopy_check(*homotopy), "homotopy_")


_FILE = (("file",), {})
_SUB = (("--sub",), {"default": None})
_RHO = (("--rho",), {"default": None})
_SEMISIMPLE = (("--assert-semisimple",), {"action": "store_true"})
_PAIR = [(("left",), {}), (("right",), {})]

# name: handler, takes --min/--max, and the (args, kwargs) of its other
# arguments, in the order they are added (the order of its usage and help)
COMMANDS = {
    "check": (cmd_check, False, [_FILE]),
    "homology": (cmd_homology, True, [_FILE]),
    "indec": (cmd_indec, False, [_FILE, _SUB]),
    "der": (cmd_der, True,
            [_FILE, _SUB, (("--deru",), {"action": "store_true"}), _RHO, _SEMISIMPLE]),
    "ce": (cmd_ce, True, [_FILE, (("--coeff-dim",), {"type": int, "default": 1})]),
    "model": (cmd_model, False, [_FILE]),
    "tilde": (cmd_tilde, False, [_FILE]),
    "xi": (cmd_xi, True, [_FILE, _SEMISIMPLE]),
    "block-g": (cmd_block_g, True, [_FILE, _SEMISIMPLE]),
    "g": (cmd_g, True,
          [_FILE, (("--sub",), {"default": None, "help": "the relative sub (L_A)"}),
           (("--sub-b",), {"default": None, "help": "the Hom-source sub (L_B)"}), _RHO,
           _SEMISIMPLE]),
    "glue": (cmd_glue, True, _PAIR + [_SEMISIMPLE]),
    "connected-sum": (cmd_connected_sum, False, _PAIR),
    "forget": (cmd_forget, True, [_FILE, _SEMISIMPLE]),
    "exp": (cmd_exp, False, [_FILE, (("--derivation",), {"required": True})]),
    "mc": (cmd_mc, False, [_FILE]),
    "homotopy": (cmd_homotopy, False, [_FILE]),
}


def build_parser(command=None):
    """The argument parser of every command, or of ``command`` alone.

    A parser of one command parses an argv that starts with that command
    exactly as the full parser does, with the same help, usage and errors:
    it shows the full command list in the top-level usage.  Only the full
    parser names the command argument in an error (no command, or an
    unknown one), so it is the one to parse any other argv.
    """
    ap = argparse.ArgumentParser(
        prog="dgla",
        description="Exact computations with dg Lie algebra presentations.",
    )
    listed = None if command is None else "{%s}" % ",".join(COMMANDS)
    sub = ap.add_subparsers(dest="command", required=True, metavar=listed)
    for name, (fn, window, arguments) in COMMANDS.items():
        if command is not None and name != command:
            continue
        sp = sub.add_parser(name)
        sp.set_defaults(fn=fn)
        if window:
            sp.add_argument("--min", type=int, required=True)
            sp.add_argument("--max", type=int, required=True)
        sp.add_argument("--out", default=None)
        for a, kw in arguments:
            sp.add_argument(*a, **kw)
    return ap


def run(argv):
    """Parse, dispatch, and write a report; returns (exit_code, payload)."""
    ap = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return (2 if e.code not in (0, None) else 0), None
    start = time.monotonic()
    inputs = []
    try:
        tables, verdicts = args.fn(args, inputs)
    except SchemaError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2, None
    except WindowTooNarrow as e:
        msg = str(e)
        if e.required is not None:
            msg += " (required window: [%d, %d])" % e.required
        print("error: %s" % msg, file=sys.stderr)
        return 2, None
    except KeyError as e:
        # referenced names (subalgebras, generators) must exist in inputs;
        # str(KeyError) would quote its message
        print("error: %s" % (e.args[0] if e.args else e), file=sys.stderr)
        return 2, None
    except DglaError as e:
        verdicts = [_verdict(type(e).__name__, False, e)]
        tables = {}
    body = {
        "command": [args.command] + _echo_args(args),
        "inputs": {path: io_mod.file_sha256(path) for path in inputs},
        "tables": tables,
        "verdicts": verdicts,
    }
    timing = time.monotonic() - start
    if args.out:
        payload = io_mod.write_report_atomic(args.out, body, timing)
    else:
        payload = io_mod.report_payload(body, timing)
        sys.stdout.write(payload)
    ok = all(v["pass"] for v in verdicts)
    return (0 if ok else 1), payload


def _echo_args(args):
    skip = {"fn", "command", "out"}
    out = []
    for k in sorted(vars(args)):
        if k in skip:
            continue
        v = getattr(args, k)
        if v is None or v is False:
            continue
        out.append("%s=%s" % (k, v))
    return out


def main(argv=None):
    code, _ = run(sys.argv[1:] if argv is None else argv)
    return code


if __name__ == "__main__":
    sys.exit(main())
