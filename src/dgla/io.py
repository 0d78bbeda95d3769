"""JSON input/output.

Each input file kind has one declarative schema below (PRESENTATION,
MANIFOLD, SLICE, RHO, DERIVATION, HOMOTOPY), and one walker checks a
document against it before anything is built.  A schema is one of:

    int, bool, str     a JSON value of that type (an int is never a boolean)
    Range(lo, hi)      a JSON integer in [lo, hi]
    RATIONAL           a JSON integer or a string "p" or "p/q", read by the
                       expression grammar's ``rational`` production (floats
                       are rejected)
    Name(kind)         a string naming a declared ``kind``
    Expr(kind)         an expression string (grammar in dgla.expr) over
                       declared ``kind`` names, read as AST terms
    [s]                an array of s
    (s, t)             an array of exactly these entries
    {key: s}           an object with exactly these keys; Opt(s) marks an
                       optional one
    Key(what, pattern) a string that the regex ``pattern`` matches whole,
                       described as ``what``
    Map(key, s)        an object whose keys are ``key`` (str, a Name or a
                       Key) and whose values are s
    One({key: s})      an object with exactly one of these keys
    Declare(kind, s)   s, whose names (the "name" of each entry of an array,
                       or the keys of an object) are the declared ``kind``

A null optional key, and a null Map value, is the same as an absent one.
Any departure from the schema is a SchemaError at the RFC 6901 pointer of
the offending value (of the missing key, for a missing key).  The walker
recurses along the schema, never deeper than the schema is.
"""

import hashlib
import json
import os
import re
import tempfile
from collections import namedtuple

from . import expr as expr_mod
from . import freelie, linalg
from .derivations import Derivation
from .errors import GrammarError, SchemaError, json_pointer as _at
from .expmc import PolyLie
from .graded import GradedBasis, GradedLinearMap
from .models import manifold_model
from .morphisms import GeneratorMorphism
from .presentation import DgLaPresentation, GeneratorSplit
from .slices import DgLieSlice, SliceElement

Opt = namedtuple("Opt", "schema")
Name = namedtuple("Name", "kind")
Expr = namedtuple("Expr", "kind")
Map = namedtuple("Map", "key value")
One = namedtuple("One", "keys")
Declare = namedtuple("Declare", "kind schema")
Key = namedtuple("Key", "what pattern")
Range = namedtuple("Range", "lo hi")
RATIONAL = "rational"

_ENTRIES = [{"name": str, "degree": int}]
# generators are named in expressions, so their names are the grammar's ident
_GENERATORS = [{"name": Key("an identifier", "[A-Za-z_][A-Za-z0-9_']*"), "degree": int}]


def _presentation_schema(gen, sub):
    return {
        "generators": Declare(gen, _GENERATORS),
        "differential": Opt(Map(Name(gen), Expr(gen))),
        "subalgebras": Opt(
            Declare(sub, Map(str, One({"generators": [Name(gen)], "elements": [Expr(gen)]})))
        ),
    }


PRESENTATION = _presentation_schema("generator", "subalgebra")

MANIFOLD = {
    "dimension": int,
    "generators": Declare("generator", _GENERATORS),
    "pairing": [[RATIONAL]],
    "differential": Opt(Map(Name("generator"), Expr("generator"))),
    "pontryagin": Opt(Map(Key("a degree", "0|-?[1-9][0-9]*"), [RATIONAL])),
}

_VECTOR = Map(Name("basis element"), RATIONAL)
# bounded like the command-line window
_WINDOW_END = Range(-freelie.MAX_DEGREE, freelie.MAX_DEGREE)
SLICE = {
    "window": (_WINDOW_END, _WINDOW_END),
    "basis": Declare("basis element", _ENTRIES),
    "differential": Opt(Map(Name("basis element"), _VECTOR)),
    "brackets": Opt(
        [{"left": Name("basis element"), "right": Name("basis element"), "value": _VECTOR}]
    ),
    "bounded": Opt(bool),
    "candidate": Opt(_VECTOR),
}

# Generator names come from the presentation the file is read against.
RHO = {
    "pi": Declare("pi element", _ENTRIES),
    "values": Opt(Map(Name("generator"), Map(Name("pi element"), RATIONAL))),
}
DERIVATION = {
    "degree": int,
    "values": Map(Name("generator"), Expr("generator")),
    "rel": Opt(Name("subalgebra")),
}

_POWERS = Opt(Map(Key("a power of t", "0|[1-9][0-9]*"), Expr("target generator")))
HOMOTOPY = {
    "source": _presentation_schema("source generator", "source subalgebra"),
    "target": _presentation_schema("target generator", "target subalgebra"),
    "f": Map(Name("source generator"), Expr("target generator")),
    "g": Map(Name("source generator"), Expr("target generator")),
    "h": Map(Name("source generator"), {"one": _POWERS, "dt": _POWERS}),
    "rel": Opt(Name("source subalgebra")),
}

_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               bool: "a boolean", float: "a number", type(None): "null"}


def _typed(value, kind, pointer):
    if type(value) is not kind:
        got = _JSON_TYPES.get(type(value), type(value).__name__)
        raise SchemaError("expected %s, got %s" % (_JSON_TYPES[kind], got), pointer)
    return value


def _declared(kind, name, pointer, names):
    if name not in names.get(kind, ()):
        raise SchemaError("unknown %s %r" % (kind, name), pointer)
    return name


def _walk(schema, value, pointer, names):
    """``value`` checked against ``schema``, with rationals read as exact
    coefficients (``linalg.exact``) and expressions as terms; optional keys
    and Map values that are null are dropped.  ``names`` maps each kind to
    its declared names, and gains the kinds that ``schema`` declares."""
    kind = type(schema)
    if kind is dict:
        obj = _typed(value, dict, pointer)
        for key in obj:
            if key not in schema:
                raise SchemaError("unknown key %r" % key, _at(pointer, key))
        out = {}
        for key, sub in schema.items():
            if type(sub) is Opt:
                if obj.get(key) is None:
                    continue
                sub = sub.schema
            elif key not in obj:
                raise SchemaError("missing key %r" % key, _at(pointer, key))
            out[key] = _walk(sub, obj[key], _at(pointer, key), names)
        return out
    if kind is Map:
        out = {}
        for key, item in _typed(value, dict, pointer).items():
            at = _at(pointer, key)
            _walk(schema.key, key, at, names)
            if item is not None:
                out[key] = _walk(schema.value, item, at, names)
        return out
    if kind is One:
        out = _walk({k: Opt(s) for k, s in schema.keys.items()}, value, pointer, names)
        if len(out) != 1:
            raise SchemaError("expected exactly one of the keys %s" % sorted(schema.keys), pointer)
        return out
    if kind is Declare:
        out = _walk(schema.schema, value, pointer, names)
        declared = names[schema.kind] = set()
        for i, name in enumerate(out if isinstance(out, dict) else (e["name"] for e in out)):
            if name in declared:
                raise SchemaError("duplicate %s %r" % (schema.kind, name), _at(pointer, i, "name"))
            declared.add(name)
        return out
    if kind in (list, tuple):
        items = _typed(value, list, pointer)
        if kind is tuple and len(items) != len(schema):
            raise SchemaError("expected an array of %d entries" % len(schema), pointer)
        subs = schema if kind is tuple else schema * len(items)
        return [_walk(s, x, _at(pointer, i), names) for i, (s, x) in enumerate(zip(subs, items))]
    if kind is Name:
        return _declared(schema.kind, _typed(value, str, pointer), pointer, names)
    if kind is Key:
        if not re.fullmatch(schema.pattern, _typed(value, str, pointer)):
            raise SchemaError("%r is not %s" % (value, schema.what), pointer)
        return value
    if kind is Expr:
        try:
            terms = expr_mod.parse_expression(_typed(value, str, pointer))
        except GrammarError as e:
            raise SchemaError(str(e), pointer) from None
        for _, tree in terms:
            for name in sorted(expr_mod.tree_generators(tree)):
                _declared(schema.kind, name, pointer, names)
        return terms
    if schema is RATIONAL:
        return parse_rational(value, pointer)
    if kind is Range:
        n = _typed(value, int, pointer)
        if not schema.lo <= n <= schema.hi:
            raise SchemaError("expected an integer in [%d, %d]" % schema, pointer)
        return n
    return _typed(value, schema, pointer)


def _within(pointer, build, *args):
    """build(*args), with the pointers of its SchemaErrors taken below ``pointer``."""
    try:
        return build(*args)
    except SchemaError as e:
        raise SchemaError(e.message, pointer + (e.pointer or "")) from None


def parse_rational(value, pointer=""):
    if isinstance(value, bool):
        raise SchemaError("expected a rational, got a boolean", pointer)
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return expr_mod.parse_rational(value)
        except GrammarError:
            raise SchemaError("malformed rational %r" % value, pointer) from None
    raise SchemaError("expected a rational (int or 'p/q'), got %r" % (value,), pointer)


def _entries(doc):
    return [(e["name"], e["degree"]) for e in doc]


def _presentation(doc):
    return DgLaPresentation(
        _entries(doc["generators"]), doc.get("differential"), doc.get("subalgebras")
    )


def load_presentation(obj):
    return _presentation(_walk(PRESENTATION, obj, "", {}))


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
    doc = _walk(MANIFOLD, obj, "", {})
    # the file's pairing is the one dense grid: n rows of n values
    grid, n = doc["pairing"], len(doc["generators"])
    if len(grid) != n or any(len(row) != n for row in grid):
        raise SchemaError("pairing must be %dx%d, the basis size" % (n, n), "/pairing")
    pairing = linalg.matrix(n, n, ((i, j, c) for i, r in enumerate(grid) for j, c in enumerate(r)))
    return manifold_model(doc["dimension"], _entries(doc["generators"]), pairing,
                          doc.get("differential"), doc.get("pontryagin"))


def serialize_manifold(m):
    pairing = {(i, j): c for i, j, c in linalg.entries(m.v.pairing)}
    basis = range(len(m.v.basis))
    out = {
        "dimension": m.dimension,
        "generators": [{"name": n, "degree": d} for n, d in m.v.basis.entries],
        "pairing": [[expr_mod.rational_str(pairing.get((i, j), 0)) for j in basis] for i in basis],
    }
    diff = {}
    for n, v in m.presentation.differential.items():
        diff[n] = expr_mod.terms_to_str(v.terms())
    if diff:
        out["differential"] = diff
    if m.pontryagin:
        out["pontryagin"] = {
            str(d): [expr_mod.rational_str(x) for x in vals] for d, vals in m.pontryagin.items()
        }
    return out


def load_slice(obj):
    """An explicit finite dg Lie slice (SLICE; this tool's own file kind).

    Brackets may be given in one order; the graded-antisymmetric partner is
    filled in where the file lists none.  "bounded": true asserts the algebra vanishes
    outside the window; the slice does not keep it, and ``ce`` reads it
    from the file to pad the slice for CE computations.
    """
    return _slice(_walk(SLICE, obj, "", {}))


def load_candidate(obj):
    """The Maurer-Cartan candidate of a slice file, which must carry one: a
    degree -1 SliceElement of a slice whose window covers degrees -1 and -2."""
    doc = _walk(dict(SLICE, candidate=_VECTOR), obj, "", {})
    slc = _slice(doc)
    if not (slc.lo <= -2 and -1 <= slc.hi):
        raise SchemaError("a candidate needs the window to cover degrees -1 and -2", "/window")
    index = {nm: i for i, nm in enumerate(slc.labels[-1])}
    for nm in doc["candidate"]:
        if nm not in index:
            raise SchemaError(
                "candidate %r is not a degree -1 basis element" % nm, _at("/candidate", nm)
            )
    return SliceElement(slc, -1, {index[nm]: c for nm, c in doc["candidate"].items()})


def _slice(doc):
    lo, hi = doc["window"]
    where = {}  # basis name -> (degree, position in its degree)
    labels = {d: [] for d in range(lo, hi + 1)}
    for i, (n, d) in enumerate(_entries(doc["basis"])):
        if not lo <= d <= hi:
            raise SchemaError("basis element %r outside the window" % n, _at("/basis", i, "degree"))
        where[n] = (d, len(labels[d]))
        labels[d].append(n)
    d_entries = {}
    for src, row in doc.get("differential", {}).items():
        d, j = where[src]
        at = _at("/differential", src)
        if d - 1 < lo:
            raise SchemaError("differential leaves the window at %r" % src, at)
        for tgt, c in row.items():
            if where[tgt][0] != d - 1:
                raise SchemaError(
                    "differential of %r must land in degree %d" % (src, d - 1), _at(at, tgt)
                )
            d_entries.setdefault(d, []).append((where[tgt][1], j, c))
    d_blocks = {
        d: linalg.matrix(len(labels[d - 1]), len(labels[d]), ents)
        for d, ents in d_entries.items()
    }

    table = {}
    for k, br in enumerate(doc.get("brackets", [])):
        pt = "/brackets/%d" % k
        dn, i = where[br["left"]]
        dm, j = where[br["right"]]
        if not lo <= dn + dm <= hi:
            raise SchemaError("bracket value outside the window", pt)
        for tgt in br["value"]:
            if where[tgt][0] != dn + dm:
                raise SchemaError(
                    "bracket value must be in degree %d" % (dn + dm), _at(pt, "value", tgt)
                )
        table[(dn, i, dm, j)] = {where[nm][1]: c for nm, c in br["value"].items() if c}
    # the graded-antisymmetric partner of each bracket, where the file lists none
    for (dn, i, dm, j), vec in list(table.items()):
        if (dm, j, dn, i) not in table:
            sign = 1 if (dn * dm) % 2 else -1
            table[(dm, j, dn, i)] = {t: sign * c for t, c in vec.items()}
    return DgLieSlice(
        (lo, hi), labels, d_blocks, bracket_fn=lambda n, i, m, j: table.get((n, i, m, j), {})
    )


def load_slice_or_presentation(obj):
    """A slice file (one with a "window") or else a presentation file."""
    if isinstance(obj, dict) and "window" in obj:
        return load_slice(obj)
    return load_presentation(obj)


def load_rho(obj, p):
    """A generator-level map from ``p`` into an abelian graded basis Pi (RHO)."""
    doc = _walk(RHO, obj, "", {"generator": set(p.generators.index)})
    pi = GradedBasis(_entries(doc["pi"]))
    entries = {}
    for gname, row in doc.get("values", {}).items():
        d = p.generators.degree(gname)
        for tname, c in row.items():
            if pi.degree(tname) != d:
                raise SchemaError(
                    "rho must preserve degree at %r -> %r" % (gname, tname),
                    _at("/values", gname, tname),
                )
            if c:
                ij = (pi.in_degree(d).index(tname), p.generators.in_degree(d).index(gname), c)
                entries.setdefault(d, []).append(ij)
    blocks = {
        d: linalg.matrix(pi.dim(d), p.generators.dim(d), ents) for d, ents in entries.items()
    }
    return GradedLinearMap(p.generators, pi, 0, blocks), pi


def load_derivation(obj, p):
    """A derivation of ``p`` (DERIVATION)."""
    names = {"generator": set(p.generators.index), "subalgebra": set(p.subalgebras)}
    doc = _walk(DERIVATION, obj, "", names)
    rel = doc.get("rel")
    return Derivation(p, doc["degree"], doc["values"], rel=rel, check=rel is not None)


def load_homotopy(obj):
    """The arguments (h_values, f, g, rel) of expmc.homotopy_check (HOMOTOPY).

    A source generator absent from f, g or h maps to zero there.  Each
    nonzero image must have its generator's degree, and each dt-part value
    that degree plus one (|dt| = -1).
    """
    doc = _walk(HOMOTOPY, obj, "", {})
    src = _within("/source", _presentation, doc["source"])
    tgt = _within("/target", _presentation, doc["target"])

    def morphism(key):
        images = doc[key]
        return _within("/" + key, GeneratorMorphism, src, tgt,
                       {n: images.get(n, tgt.zero(d)) for n, d in src.generators.entries})

    def part(powers, degree, pointer):
        out = {}
        for k, terms in powers.items():
            at = _at(pointer, k)
            v = out[int(k)] = tgt.normal_form_at(terms, at)
            if not v.is_zero() and v.degree != degree:
                raise SchemaError("expected degree %d, got %d" % (degree, v.degree), at)
        return out

    h = {}
    for n, d in src.generators.entries:
        parts = doc["h"].get(n, {})
        h[n] = PolyLie(tgt, d, part(parts.get("one", {}), d, _at("/h", n, "one")),
                       part(parts.get("dt", {}), d + 1, _at("/h", n, "dt")))
    return h, morphism("f"), morphism("g"), doc.get("rel")


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        h.update(f.read())
    return h.hexdigest()


def load_json_file(path):
    """The JSON document in the file at ``path``.

    A file that cannot be read, is not UTF-8, or is not JSON (including a
    nesting deeper than the parser's recursion limit) is a SchemaError.
    """
    try:
        with open(path, "rb") as f:
            return json.loads(f.read().decode("utf-8"))
    except OSError as e:
        raise SchemaError("cannot read %s: %s" % (path, e.strerror)) from None
    except (ValueError, RecursionError) as e:
        raise SchemaError("invalid JSON in %s: %s" % (path, e)) from None


def canonical_dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def report_payload(report_body, timing):
    """The one-line report: the canonical body and the timing in seconds."""
    return '{"report":%s,"timing":%s}\n' % (
        canonical_dumps(report_body),
        json.dumps(round(timing, 6)),
    )


def write_report_atomic(path, report_body, timing):
    payload = report_payload(report_body, timing)
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
