"""JSON input/output.

Normative schemas (bit-exact):

presentation:
    {"generators": [{"name": str, "degree": int}, ...],
     "differential": {name: expression-string},
     "subalgebras": {name: {"generators": [names]} | {"elements": [expr]}}}

manifold model:
    {"dimension": int,
     "generators": [{"name": str, "degree": int}, ...],
     "pairing": [[rational, ...], ...],
     "differential": {name: expression-string},
     "pontryagin": {degree: [rational, ...]}}

Expression strings follow the grammar in dgla.expr; rationals are JSON
integers or strings "p/q" (floats are rejected everywhere).  Unknown keys
are rejected with a JSON-pointer path.

Non-normative (this artifact's own) schemas, documented in the README:
explicit dg Lie slices, derivations, rho maps, and homotopy inputs.
"""

import hashlib
import json
import os
import tempfile
from fractions import Fraction

from . import expr as expr_mod
from . import linalg
from .errors import SchemaError
from .graded import GradedBasis, GradedLinearMap
from .presentation import DgLaPresentation, GeneratorSplit
from .slices import DgLieSlice


def parse_rational(value, pointer=""):
    if isinstance(value, bool):
        raise SchemaError("expected a rational, got a boolean", pointer)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        parts = value.split("/")
        try:
            if len(parts) == 1:
                return Fraction(int(parts[0]))
            if len(parts) == 2:
                num, den = int(parts[0]), int(parts[1])
                if den <= 0:
                    raise ValueError
                return Fraction(num, den)
        except ValueError:
            pass
        raise SchemaError("malformed rational %r" % value, pointer)
    raise SchemaError("expected a rational (int or 'p/q'), got %r" % (value,), pointer)


def rational_str(q):
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def _require_keys(obj, allowed, required, pointer):
    if not isinstance(obj, dict):
        raise SchemaError("expected an object", pointer)
    for k in obj:
        if k not in allowed:
            raise SchemaError("unknown key %r" % k, "%s/%s" % (pointer, k))
    for k in required:
        if k not in obj:
            raise SchemaError("missing key %r" % k, pointer)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _object(value, pointer):
    """``value`` itself, which must be a JSON object."""
    if not isinstance(value, dict):
        raise SchemaError("expected an object", pointer)
    return value


def _optional_object(obj, key):
    """The object at obj[key]; {} when the key is absent or null."""
    value = obj.get(key)
    return {} if value is None else _object(value, "/" + key)


def _load_generators(lst, pointer):
    if not isinstance(lst, list):
        raise SchemaError("expected a list of generators", pointer)
    out = []
    for i, it in enumerate(lst):
        pt = "%s/%d" % (pointer, i)
        _require_keys(it, {"name", "degree"}, {"name", "degree"}, pt)
        if not isinstance(it["name"], str):
            raise SchemaError("generator name must be a string", pt + "/name")
        if any(it["name"] == n for n, _ in out):
            raise SchemaError("duplicate generator name %r" % it["name"], pt + "/name")
        if not _is_int(it["degree"]):
            raise SchemaError("generator degree must be an integer", pt + "/degree")
        out.append((it["name"], it["degree"]))
    return out


def load_presentation(obj):
    _require_keys(
        obj, {"generators", "differential", "subalgebras"}, {"generators"}, ""
    )
    gens = _load_generators(obj["generators"], "/generators")
    known = {n for n, _ in gens}
    diff = _load_expressions(obj, "differential", known)
    subs = {}
    for name, spec in _optional_object(obj, "subalgebras").items():
        pt = "/subalgebras/%s" % name
        if not isinstance(spec, dict) or set(spec) not in ({"generators"}, {"elements"}):
            raise SchemaError("subalgebra must be {'generators': [...]} or {'elements': [...]}", pt)
        names = spec.get("generators", [])
        if not isinstance(names, list) or any(n not in known for n in names):
            raise SchemaError("subalgebra generators must be generator names", pt)
        elements = spec.get("elements", [])
        if not isinstance(elements, list) or any(not isinstance(e, str) for e in elements):
            raise SchemaError("subalgebra elements must be expression strings", pt)
        if "elements" in spec:
            spec = {"elements": [_parse_known(e, known, pt) for e in elements]}
        subs[name] = spec
    return DgLaPresentation(gens, diff, subs)


def _load_expressions(obj, key, known):
    """The {generator: expression string} object at obj[key], parsed.

    Its keys and the generators of its expressions all lie in ``known``.
    """
    exprs = obj.get(key, {})
    if not isinstance(exprs, dict) or any(not isinstance(v, str) for v in exprs.values()):
        raise SchemaError("%s must map names to expression strings" % key, "/" + key)
    for name in exprs:
        if name not in known:
            raise SchemaError("%s of an unknown generator" % key, "/%s/%s" % (key, name))
    return {n: _parse_known(v, known, "/%s/%s" % (key, n)) for n, v in exprs.items()}


def _parse_known(text, known, pointer):
    """Terms of an expression string whose generators all lie in ``known``."""
    terms = expr_mod.parse_expression(text)
    for _, tree in terms:
        unknown = expr_mod.tree_generators(tree) - known
        if unknown:
            raise SchemaError("unknown generator %r" % min(unknown), pointer)
    return terms


def serialize_presentation(p):
    out = {"generators": [{"name": n, "degree": d} for n, d in p.generators.entries]}
    diff = {}
    for n, _ in p.generators.entries:
        v = p.d_gen(n)
        if not v.is_zero():
            diff[n] = expr_mod.terms_to_str(v.terms())
    if diff:
        out["differential"] = diff
    subs = {}
    for name, spec in p.subalgebras.items():
        if isinstance(spec, GeneratorSplit):
            subs[name] = {"generators": list(spec.names)}
        else:
            subs[name] = {
                "elements": [expr_mod.terms_to_str(e.terms()) for e in spec.elements]
            }
    if subs:
        out["subalgebras"] = subs
    return out


def load_manifold(obj):
    _require_keys(
        obj,
        {"dimension", "generators", "pairing", "differential", "pontryagin"},
        {"dimension", "generators", "pairing"},
        "",
    )
    if not _is_int(obj["dimension"]):
        raise SchemaError("dimension must be an integer", "/dimension")
    gens = _load_generators(obj["generators"], "/generators")
    pairing = obj["pairing"]
    if not isinstance(pairing, list):
        raise SchemaError("pairing must be a matrix", "/pairing")
    mat = []
    for i, row in enumerate(pairing):
        if not isinstance(row, list):
            raise SchemaError("pairing rows must be lists", "/pairing/%d" % i)
        mat.append([parse_rational(x, "/pairing/%d/%d" % (i, j)) for j, x in enumerate(row)])
    diff = _load_expressions(obj, "differential", {n for n, _ in gens})
    pont = {}
    for key, vals in _optional_object(obj, "pontryagin").items():
        pt = "/pontryagin/%s" % key
        try:
            deg = int(key)
        except ValueError:
            raise SchemaError("pontryagin keys are degrees", pt)
        if not isinstance(vals, list):
            raise SchemaError("pontryagin values must be a list", pt)
        pont[deg] = [parse_rational(x, "%s/%d" % (pt, i)) for i, x in enumerate(vals)]
    from .models import manifold_model

    return manifold_model(obj["dimension"], gens, mat, diff, pont)


def serialize_manifold(m):
    out = {
        "dimension": m.dimension,
        "generators": [{"name": n, "degree": d} for n, d in m.v.basis.entries],
        "pairing": [[rational_str(x) for x in row] for row in m.v.pairing],
    }
    diff = {}
    for n, v in m.presentation.differential.items():
        diff[n] = expr_mod.terms_to_str(v.terms())
    if diff:
        out["differential"] = diff
    if m.pontryagin:
        out["pontryagin"] = {
            str(d): [rational_str(x) for x in vals] for d, vals in m.pontryagin.items()
        }
    return out


def load_slice(obj):
    """An explicit finite dg Lie slice (artifact schema, not normative).

    {"window": [lo, hi], "basis": [{"name", "degree"}],
     "differential": {name: {name: rational}},
     "brackets": [{"left": name, "right": name, "value": {name: rational}}],
     "bounded": bool}

    Brackets may be given in one order; the graded-antisymmetric partner is
    filled in automatically.  "bounded": true asserts the algebra vanishes
    outside the window (so it may be padded for CE computations).
    """
    _require_keys(
        obj,
        {"window", "basis", "differential", "brackets", "bounded", "candidate"},
        {"window", "basis"},
        "",
    )
    window = obj["window"]
    if not (isinstance(window, list) and len(window) == 2 and all(map(_is_int, window))):
        raise SchemaError("window must be a list of two integers", "/window")
    lo, hi = window
    entries = _load_generators(obj["basis"], "/basis")
    names = {}
    degrees = {}
    labels = {d: [] for d in range(lo, hi + 1)}
    for n, d in entries:
        if not lo <= d <= hi:
            raise SchemaError("basis element %r outside the window" % n, "/basis")
        names[n] = (d, len(labels[d]))
        degrees[n] = d
        labels[d].append(n)
    d_entries = {}
    for src, row in _optional_object(obj, "differential").items():
        if src not in names:
            raise SchemaError("unknown basis name %r" % src, "/differential")
        d, j = names[src]
        if d - 1 < lo:
            raise SchemaError("differential leaves the window at %r" % src, "/differential")
        for tgt, c in _object(row, "/differential/%s" % src).items():
            if tgt not in names or degrees[tgt] != d - 1:
                raise SchemaError(
                    "differential of %r must land in degree %d" % (src, d - 1),
                    "/differential/%s" % src,
                )
            c = parse_rational(c, "/differential/%s/%s" % (src, tgt))
            d_entries.setdefault(d, []).append((names[tgt][1], j, c))
    d_blocks = {
        d: linalg.matrix(len(labels[d - 1]), len(labels[d]), ents)
        for d, ents in d_entries.items()
    }

    def zero_table(n, m):
        zero = [Fraction(0)] * len(labels[n + m])
        return [[zero] * len(labels[m]) for _ in labels[n]]

    brackets = obj.get("brackets") or []
    if not isinstance(brackets, list):
        raise SchemaError("brackets must be a list", "/brackets")
    tables = {}
    for k, br in enumerate(brackets):
        pt = "/brackets/%d" % k
        _require_keys(br, {"left", "right", "value"}, {"left", "right", "value"}, pt)
        ln, rn = br["left"], br["right"]
        if not (isinstance(ln, str) and ln in names and isinstance(rn, str) and rn in names):
            raise SchemaError("unknown basis names in bracket", pt)
        dn, i = names[ln]
        dm, j = names[rn]
        if not lo <= dn + dm <= hi:
            raise SchemaError("bracket value outside the window", pt)
        vec = [Fraction(0)] * len(labels[dn + dm])
        for tgt, c in _object(br["value"], pt + "/value").items():
            if tgt not in names or degrees[tgt] != dn + dm:
                raise SchemaError("bracket value must be in degree %d" % (dn + dm), pt)
            vec[names[tgt][1]] = parse_rational(c, pt)
        if (dn, dm) not in tables:
            tables[(dn, dm)] = zero_table(dn, dm)
        tables[(dn, dm)][i][j] = vec
        # graded-antisymmetric partner
        sign = Fraction(1 if (dn * dm) % 2 else -1)
        if (dm, dn) not in tables:
            tables[(dm, dn)] = zero_table(dm, dn)
        tab2 = tables[(dm, dn)]
        if all(x == 0 for x in tab2[j][i]):
            tab2[j][i] = [sign * x for x in vec]
    bounded = obj.get("bounded")
    if not isinstance(bounded, (bool, type(None))):
        raise SchemaError("bounded must be a boolean", "/bounded")
    slc = DgLieSlice((lo, hi), labels, d_blocks, bracket_tables=tables)
    slc.bounded = bool(bounded)
    return slc


def load_rho(obj, p):
    """A generator-level map into an abelian graded basis Pi.

    {"pi": [{"name", "degree"}], "values": {gen: {pi_name: rational}}}
    """
    _require_keys(obj, {"pi", "values"}, {"pi"}, "")
    pi = GradedBasis(_load_generators(obj["pi"], "/pi"))
    rho = GradedLinearMap(p.generators, pi, 0)
    cells = {}
    for gname, row in _optional_object(obj, "values").items():
        if gname not in p.generators.index:
            raise SchemaError("unknown generator %r" % gname, "/values")
        for tname, c in _object(row, "/values/%s" % gname).items():
            if tname not in pi.index:
                raise SchemaError("unknown pi element %r" % tname, "/values/%s" % gname)
            if pi.degree(tname) != p.generators.degree(gname):
                raise SchemaError(
                    "rho must preserve degree at %r -> %r" % (gname, tname),
                    "/values/%s" % gname,
                )
            cells[(gname, tname)] = parse_rational(c, "/values/%s/%s" % (gname, tname))
    for d in sorted({deg for _, deg in p.generators.entries}):
        src = p.generators.in_degree(d)
        tgt = pi.in_degree(d)
        if not tgt:
            continue
        ents = [
            (i, j, cells[(g, t)])
            for j, g in enumerate(src)
            for i, t in enumerate(tgt)
            if cells.get((g, t))
        ]
        if ents:
            rho.set_block(d, linalg.matrix(len(tgt), len(src), ents))
    return rho, pi


def load_derivation(obj, p):
    """{"degree": int, "values": {gen: expr}, "rel": name?}"""
    _require_keys(obj, {"degree", "values", "rel"}, {"degree", "values"}, "")
    from .derivations import Derivation

    degree, rel = obj["degree"], obj.get("rel")
    if not _is_int(degree):
        raise SchemaError("degree must be an integer", "/degree")
    if not isinstance(rel, (str, type(None))):
        raise SchemaError("rel must be a subalgebra name", "/rel")
    values = _load_expressions(obj, "values", set(p.generators.index))
    values = {n: p.normal_form(terms) for n, terms in values.items()}
    for name, v in values.items():
        if not v.is_zero() and v.degree != p.generators.degree(name) + degree:
            raise SchemaError("value on %r has the wrong degree" % name, "/values/%s" % name)
    return Derivation(p, degree, values, rel=rel, check=rel is not None)


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        h.update(f.read())
    return h.hexdigest()


def load_json_file(path):
    with open(path, "r") as f:
        text = f.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError("invalid JSON: %s" % e, "")


def canonical_dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def write_report_atomic(path, report_body, timing):
    payload = '{"report":%s,"timing":%s}\n' % (
        canonical_dumps(report_body),
        json.dumps(round(timing, 6)),
    )
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".dgla-report-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return payload
