"""Per-layer tracing from outside the library.

``Tracer.install`` replaces the public functions of each ``dgla`` module
with wrappers that record a span per call: name, start, end and the
enclosing span. A function is replaced in every ``dgla`` module that binds
it (``deru`` is bound in ``derivations``, ``models`` and ``cli``), and
methods are replaced on their class. A call made while a span of the same
name is open records nothing, so recursive functions (``expand_tree``,
``_d_tree``) and grouped entry points that call each other (``kernel_basis``
calling ``rref``) keep only their outermost span.

Spans stay in memory. ``layer_metrics`` turns them into self times (span
time minus the time of child spans), call counts and the layers' counters;
``dump`` writes them once, at the end of the run.
"""

import collections
import functools
import gzip
import importlib
import json
import sys
from fractions import Fraction
from time import perf_counter

ROOT = "workload"


def _matrix_stats(rows, ncols):
    """(entries, nonzeros, max bit length) of a dense rational matrix."""
    nnz = 0
    bits = 0
    for r in rows:
        for x in r:
            if x:
                nnz += 1
                if type(x) is Fraction:
                    b = max(x.numerator.bit_length(), x.denominator.bit_length())
                else:
                    b = int(x).bit_length()
                if b > bits:
                    bits = b
    return len(rows) * ncols, nnz, bits


def _count_matmul(counters, args, kwargs, result):
    a, b = args[0], args[1]
    inner = len(b)
    cols = len(b[0]) if b else 0
    counters["madds"] += len(a) * inner * cols
    ea, na, _ = _matrix_stats(a, inner)
    eb, nb, _ = _matrix_stats(b, cols)
    counters["entries"] += ea + eb
    counters["nnz"] += na + nb


def _count_elim(counters, args, kwargs, result):
    rows = args[0]
    ncols = args[1] if len(args) > 1 and args[1] is not None else kwargs.get("ncols")
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    entries, nnz, bits = _matrix_stats(rows, ncols)
    counters["entries"] += entries
    counters["nnz"] += nnz
    counters["max_rows"] = max(counters["max_rows"], len(rows))
    counters["max_cols"] = max(counters["max_cols"], ncols)
    counters["max_bits"] = max(counters["max_bits"], bits)


def _count_extend(counters, args, kwargs, result):
    counters["candidates"] += len(args[1])
    counters["kept"] += len(result)


def _count_basis(counters, args, kwargs, result):
    counters["elems"] += len(result)


def _ratio(num, den):
    return num / den if den else 0.0


# Layer metric name, module, wrapped attributes ("Class.method" for
# methods), counter hook, metrics derived from the counters, and the
# workloads the layer is predicted to be heavy on: a layer that records no
# call there means the wiring is broken, and the run stops.
LAYERS = [
    ("linalg.matmul", "dgla.linalg", ["matmul"], _count_matmul,
     {"linalg.matmul.madds": lambda c: c["madds"],
      "linalg.matmul.nnz_frac": lambda c: _ratio(c["nnz"], c["entries"])},
     ["xi_w21"]),
    ("linalg.matvec", "dgla.linalg", ["matvec"], None, {}, ["glue_w21_w11"]),
    ("linalg.elim", "dgla.linalg", ["rank", "rref", "kernel_basis", "pivot_columns", "solve"],
     _count_elim,
     {"linalg.elim.max_rows": lambda c: c["max_rows"],
      "linalg.elim.max_cols": lambda c: c["max_cols"],
      "linalg.elim.nnz_frac": lambda c: _ratio(c["nnz"], c["entries"]),
      "linalg.elim.max_bits": lambda c: c["max_bits"]},
     ["der_w11_deep", "xi_w21"]),
    ("linalg.extend_independent", "dgla.linalg", ["extend_independent"], _count_extend,
     {"linalg.extend_independent.candidates": lambda c: c["candidates"],
      "linalg.extend_independent.kept_ratio": lambda c: _ratio(c["kept"], c["candidates"])},
     ["xi_w21"]),
    ("linalg.subspace", "dgla.linalg",
     ["Subspace.from_kernel", "Subspace.from_vectors", "Subspace.full", "Subspace.coords",
      "Subspace.contains", "Subspace.vector", "Subspace.intersection"], None, {},
     ["der_w11_deep"]),
    ("graded.check_complex", "dgla.graded", ["ChainComplexSlice.check_complex"], None, {},
     ["xi_w21"]),
    ("graded.homology_degree", "dgla.graded", ["ChainComplexSlice.homology_degree"], None, {},
     ["xi_w21"]),
    ("freelie.basis_in_degree", "dgla.freelie", ["basis_in_degree"], _count_basis,
     {"freelie.basis_elems": lambda c: c["elems"]},
     ["der_w11_deep"]),
    ("freelie.expand_tree", "dgla.freelie", ["expand_tree"], None, {},
     ["bch_exp", "der_w11_deep"]),
    ("freelie.solve_against_basis", "dgla.freelie", ["solve_against_basis"], None, {},
     ["bch_exp", "der_w11_deep"]),
    ("presentation.normal_form", "dgla.presentation", ["DgLaPresentation.normal_form"], None, {},
     ["bch_exp", "der_w11_deep"]),
    ("presentation.bracket", "dgla.presentation", ["DgLaPresentation.bracket"], None, {},
     ["bch_exp", "der_w11_deep"]),
    ("presentation.basis_bracket", "dgla.presentation", ["DgLaPresentation.basis_bracket"],
     None, {}, ["bch_exp", "der_w11_deep"]),
    ("presentation.differential_of", "dgla.presentation",
     ["DgLaPresentation.differential_of", "DgLaPresentation._d_tree"], None, {},
     ["bch_exp", "der_w11_deep"]),
    ("derivations.eval_at", "dgla.derivations",
     ["Derivation.eval_at", "FDerivation.eval_at", "eval_at"], None, {},
     ["bch_exp", "der_w11_deep"]),
    ("derivations.der_bracket", "dgla.derivations", ["der_bracket"], None, {},
     ["bch_exp"]),
    ("derivations.der_differential", "dgla.derivations", ["der_differential"], None, {},
     ["der_w11_deep", "xi_w21"]),
    ("derivations.der_complex", "dgla.derivations", ["der_complex"], None, {},
     ["der_w11_deep"]),
    ("derivations.deru", "dgla.derivations", ["deru"], None, {}, ["xi_w21"]),
    ("slices.to_chain", "dgla.slices", ["DgLieSlice.to_chain"], None, {},
     ["der_w11_deep", "xi_w21"]),
    ("slices.check_d_squared", "dgla.slices", ["DgLieSlice.check_d_squared"], None, {},
     ["glue_w21_w11"]),
    ("slices.axioms", "dgla.slices",
     ["DgLieSlice.check_bracket_axioms", "DgLieSlice.check_d_leibniz"], None, {},
     ["glue_w21_w11"]),
    ("slices.bracket", "dgla.slices", ["DgLieSlice.bracket", "DgLieSlice.bracket_vectors"],
     None, {}, ["glue_w21_w11"]),
    ("models.build_g", "dgla.models", ["build_g", "build_block_g"], None, {}, ["glue_w21_w11"]),
    ("models.semidirect", "dgla.models", ["semidirect"], None, {}, ["glue_w21_w11"]),
    ("models.outer_action_check", "dgla.models", ["outer_action_check"], None, {},
     ["glue_w21_w11"]),
    ("models.tilde_model", "dgla.models", ["tilde_model"], None, {}, ["xi_w21"]),
    ("gluing.glue_headline_g", "dgla.gluing", ["glue_headline_g"], None, {}, ["glue_w21_w11"]),
    ("gluing.boundary_connected_sum", "dgla.gluing", ["boundary_connected_sum"], None, {},
     ["glue_w21_w11"]),
    ("expmc.bch", "dgla.expmc", ["bch"], None, {}, ["bch_exp"]),
    ("expmc.exp_automorphism", "dgla.expmc", ["exp_automorphism"], None, {}, ["bch_exp"]),
    ("expmc.check_class", "dgla.expmc", ["_check_class"], None, {}, ["bch_exp"]),
    ("morphisms.apply", "dgla.morphisms",
     ["GeneratorMorphism.apply", "GeneratorMorphism.compose", "GeneratorMorphism.__eq__"],
     None, {}, ["bch_exp"]),
    ("morphisms.check_morphism", "dgla.morphisms", ["check_morphism"], None, {}, ["bch_exp"]),
    ("io.load", "dgla.io",
     ["load_json_file", "load_manifold", "load_presentation", "load_slice", "load_rho",
      "load_derivation"], None, {}, ["xi_w21", "der_w11_deep", "glue_w21_w11"]),
    ("io.serialize", "dgla.io",
     ["serialize_presentation", "serialize_manifold", "canonical_dumps", "file_sha256",
      "write_report_atomic"], None, {}, ["xi_w21", "der_w11_deep", "glue_w21_w11"]),
    ("cli.run", "dgla.cli", ["run"], None, {}, ["xi_w21", "der_w11_deep", "glue_w21_w11"]),
]

# Layers predicted to see no call at all on a workload; a call there means
# the workload no longer isolates the layers it was chosen for.
NEVER_CALLED = {
    "bch_exp": [name for name, *_ in LAYERS if name.startswith("linalg.")],
    "der_w11_deep": [name for name, *_ in LAYERS if name.startswith("models.")],
}


def metric_names():
    """Every per-layer metric as (name, unit, better), in report order."""
    names = []
    for name, _, _, _, derived, _ in LAYERS:
        names += [name + ".self_s", name + ".calls"] + list(derived)
        if name == "presentation.basis_bracket":
            names.append(name + ".hit_ratio")
    names += [ROOT + ".self_s", "trace.wall_s", "trace.root_self_frac", "trace.spans",
              "trace.overhead"]
    out = []
    for name in names:
        if name.endswith("_s"):
            unit = "s"
        elif name.endswith(("_frac", "_ratio", ".overhead")):
            unit = "ratio"
        else:
            unit = "count"
        out.append((name, unit, "higher" if name.endswith("_ratio") else "lower"))
    return out


def wiring_errors(workload, metrics):
    """Layers whose call count contradicts the workload's predictions."""
    errors = []
    for name, _, _, _, _, heavy in LAYERS:
        if workload in heavy and metrics[name + ".calls"] == 0:
            errors.append("%s recorded no call on %s" % (name, workload))
    for name in NEVER_CALLED.get(workload, []):
        if metrics[name + ".calls"]:
            errors.append("%s recorded %d calls on %s, predicted none"
                          % (name, metrics[name + ".calls"], workload))
    return errors


class Tracer:
    """Span recorder for one run; ``run_id`` tags every span it records."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.counters = []
        self.open = []
        self.span_name = []
        self.span_start = []
        self.span_end = []
        self.span_parent = []
        self.stack = []

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
            self.counters.append(collections.defaultdict(int))
            self.open.append(False)
        return self.names.index(name)

    def wrap(self, name, fn, hook=None):
        nid = self._name_id(name)
        counters = self.counters[nid]
        open_ = self.open
        stack = self.stack
        span_name, span_start = self.span_name, self.span_start
        span_end, span_parent = self.span_end, self.span_parent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if open_[nid]:
                return fn(*args, **kwargs)
            open_[nid] = True
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = perf_counter()
                stack.pop()
                open_[nid] = False
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def run_root(self, fn, *args):
        """Call fn(*args) inside the root span; returns its result."""
        return self.wrap(ROOT, fn)(*args)

    def install(self):
        """Wrap every function in LAYERS wherever a dgla module binds it."""
        for _, module, _, _, _, _ in LAYERS:
            importlib.import_module(module)
        modules = [m for k, m in sys.modules.items() if k == "dgla" or k.startswith("dgla.")]
        for name, module, attrs, hook, _, _ in LAYERS:
            mod = sys.modules[module]
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self.wrap(name, raw.__func__, hook)))
                    else:
                        setattr(cls, meth, self.wrap(name, raw, hook))
                    continue
                orig = getattr(mod, attr)
                traced = self.wrap(name, orig, hook)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, traced)
        return self

    def self_times(self):
        """Per-span self time: duration minus the durations of child spans."""
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        own = list(dur)
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                own[parent] -= dur[i]
        return own

    def layer_metrics(self):
        """Per-layer metrics of the recorded spans, as {name: value}."""
        own = self.self_times()
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for nid, s in zip(self.span_name, own):
            self_s[nid] += s
            calls[nid] += 1
        ids = {n: i for i, n in enumerate(self.names)}
        out = {}
        for name, _, _, _, derived, _ in LAYERS:
            nid = ids[name]
            out[name + ".self_s"] = self_s[nid]
            out[name + ".calls"] = calls[nid]
            for key, fn in derived.items():
                out[key] = fn(self.counters[nid])
        out["presentation.basis_bracket.hit_ratio"] = self._hit_ratio(ids)
        root = ids[ROOT]
        roots = [i for i, nid in enumerate(self.span_name) if nid == root]
        wall = sum(self.span_end[i] - self.span_start[i] for i in roots)
        out[ROOT + ".self_s"] = self_s[root]
        out["trace.wall_s"] = wall
        out["trace.root_self_frac"] = _ratio(self_s[root], wall)
        out["trace.spans"] = len(self.span_name)
        return out

    def _hit_ratio(self, ids):
        """Share of basis_bracket calls that expanded no tree (cache hits)."""
        bb, et = ids["presentation.basis_bracket"], ids["freelie.expand_tree"]
        missed = set()
        for i, nid in enumerate(self.span_name):
            if nid != et:
                continue
            p = self.span_parent[i]
            while p >= 0 and self.span_name[p] != bb:
                p = self.span_parent[p]
            if p >= 0:
                missed.add(p)
        total = sum(1 for nid in self.span_name if nid == bb)
        return _ratio(total - len(missed), total)

    def dump(self, path):
        """Write every span, once; each span is [name, start, end, parent]."""
        spans = [
            [self.names[n], s, e, p]
            for n, s, e, p in zip(self.span_name, self.span_start, self.span_end,
                                  self.span_parent)
        ]
        with gzip.open(path, "wt", compresslevel=1) as f:
            json.dump({"run_id": self.run_id, "fields": ["name", "start", "end", "parent"],
                       "spans": spans}, f, separators=(",", ":"))
