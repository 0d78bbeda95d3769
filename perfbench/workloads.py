"""The benchmark's workloads: inputs, the timed operation and the output checks.

Each workload has two sizes. The full size is what the benchmark measures;
the smoke size is a tiny input of the same shape that the self-test runs in
a few seconds. Every check compares against pinned outputs, so a change to
the library that alters a result, a verdict or a report byte is counted as a
failed operation.

Library functions are always looked up as module attributes at call time
(``cli.run``, ``expmc.bch``), never bound at import, so that the traced run's
wrappers are the ones called. ``run`` returns its result and the (start,
end) of each operation on the ``clock`` it is given, which in an untraced
repetition leaves out the time the pace samples take.
"""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction


def canonical_sha256(obj):
    """SHA-256 of the canonical JSON form used for report bodies."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


class CliWorkload:
    """One `dgla` command; one repetition runs it once and is one operation.

    ``pins`` maps a size ("full" or "smoke") to (argv, expected) where
    expected holds the report tables that must match exactly, the verdict
    names that must all pass, and the SHA-256 of the canonical report body
    (the report without its ``timing`` field).
    """

    def __init__(self, name, pins):
        self.name = name
        self.pins = pins

    def setup(self, size, seed):
        from dgla import cli  # noqa: F401  (imports every layer)

        argv, expected = self.pins[size]
        fixtures = [a for a in argv if a.endswith(".json")]
        for path in fixtures:
            with open(path, "rb") as f:
                f.read()
        return {"argv": argv, "expected": expected}

    def run(self, inputs, clock):
        from dgla import cli

        sink = io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(sink):
            try:
                code, payload = cli.run(list(inputs["argv"]))
            except Exception as e:  # a library failure is a failed operation
                code, payload = repr(e), None
        return {"code": code, "payload": payload}, [(t0, clock())]

    def check(self, inputs, result):
        """Mismatch messages, one per failed operation (so at most one)."""
        expected = inputs["expected"]
        if result["code"] != 0 or result["payload"] is None:
            return ["%s exited or raised %s" % (self.name, result["code"])]
        report = json.loads(result["payload"])["report"]
        problems = []
        for key, table in expected["tables"].items():
            got = report["tables"].get(key)
            if got != table:
                problems.append("table %s: got %r, pinned %r" % (key, got, table))
        verdicts = {v["name"]: v["pass"] for v in report["verdicts"]}
        if sorted(verdicts) != sorted(expected["verdicts"]):
            problems.append("verdict names %r, pinned %r" % (sorted(verdicts), expected["verdicts"]))
        failing = [name for name, ok in verdicts.items() if not ok]
        if failing:
            problems.append("failing verdicts %r" % failing)
        digest = canonical_sha256(report)
        if digest != expected["sha256"]:
            problems.append("report sha256 %s, pinned %s" % (digest, expected["sha256"]))
        return ["; ".join(problems)] if problems else []


BCH_GENERATORS = [("a", 2), ("b", 2), ("c", 4), ("e", 6), ("f", 8)]
BCH_MOVED = ("c", "e", "f")
BCH_CLASS = 3


def _random_filtration_derivation(rng, p, names):
    """A degree-0 derivation sending each named generator to a random
    decomposable of its degree, with coefficients in {-1, 0, 1}.

    With weights a, b = 0 and c, e, f = 1, 2, 3 every such derivation
    lowers weight, so any pair has nilpotency class at most 3 and every
    seed gives pairs on which no operation fails.
    """
    from dgla import derivations

    vals = {}
    for name in names:
        deg = p.generators.degree(name)
        basis = p.lie_basis(deg)
        vec = [
            Fraction(rng.randint(-1, 1)) if not isinstance(b.tree, int) else Fraction(0)
            for b in basis
        ]
        if any(vec):
            vals[name] = p.element_from_vector(deg, vec)
    return derivations.Derivation(p, 0, vals)


def _derivation_key(theta):
    return [
        theta.degree,
        sorted(
            (name, v.degree, sorted((i, str(c)) for i, c in v.coords.items()))
            for name, v in theta.values.items()
        ),
    ]


class BchWorkload:
    """Library loop over nilpotent pairs on one presentation.

    Each pair is one operation: the class-3 nilpotency check, BCH, and the
    identities e(bch(x, y)) = e(x) e(y) and e(x) e(-x) = id, as in
    acceptance criterion 6. The pairs come from ``random.Random(seed)``;
    ``pins`` maps a size to (pair count, {seed: SHA-256 of the BCH results}).
    """

    name = "bch_exp"

    def __init__(self, pins):
        self.pins = pins

    def setup(self, size, seed):
        from dgla import morphisms, presentation

        count, digests = self.pins[size]
        rng = random.Random(seed)
        p = presentation.DgLaPresentation(BCH_GENERATORS)
        pairs = [
            (
                _random_filtration_derivation(rng, p, BCH_MOVED),
                _random_filtration_derivation(rng, p, BCH_MOVED),
            )
            for _ in range(count)
        ]
        ident = morphisms.GeneratorMorphism.identity(p)
        return {"pairs": pairs, "ident": ident, "digest": digests.get(seed)}

    def run(self, inputs, clock):
        from dgla import derivations, expmc

        ident = inputs["ident"]
        outcomes = []
        ops = []
        for th, ps in inputs["pairs"]:
            t0 = clock()
            try:
                expmc._check_class(th, ps, derivations.der_bracket, BCH_CLASS)
                z = expmc.bch(th, ps, derivations.der_bracket, BCH_CLASS)
                exp = expmc.exp_automorphism
                product_ok = exp(z) == exp(th).compose(exp(ps))
                inverse_ok = exp(th).compose(exp(th.scale(-1))) == ident
                outcomes.append((z, product_ok, inverse_ok))
            except Exception as e:  # a library failure is a failed operation
                outcomes.append((None, repr(e), None))
            ops.append((t0, clock()))
        return outcomes, ops

    def check(self, inputs, outcomes):
        problems = []
        for k, (z, product_ok, inverse_ok) in enumerate(outcomes):
            if z is None:
                problems.append("pair %d raised %s" % (k, product_ok))
            elif not (product_ok and inverse_ok):
                problems.append(
                    "pair %d: e(bch)=e.e %s, e(x)e(-x)=id %s" % (k, product_ok, inverse_ok)
                )
        pinned = inputs["digest"]
        if pinned is not None and not problems:
            digest = canonical_sha256([_derivation_key(z) for z, _, _ in outcomes])
            if digest != pinned:
                # the results as a whole disagree: charge every pair
                problems.extend(
                    "bch digest %s, pinned %s" % (digest, pinned) for _ in outcomes
                )
        return problems


WORKLOADS = {
    w.name: w
    for w in [
        CliWorkload(
            "xi_w21",
            {
                "full": (
                    ["xi", "fixtures/w21.json", "--min", "0", "--max", "4"],
                    {
                        "tables": {
                            "left": {"0": 0, "1": 0, "2": 4, "3": 0, "4": 20},
                            "right": {"0": 0, "1": 0, "2": 4, "3": 0, "4": 20},
                        },
                        "verdicts": ["rank_agree_degree_%d" % k for k in range(5)],
                        "sha256": "d1536025058eaeeafb9831984f4e252f80d9cd66ff0176b57056523d27c5acd1",
                    },
                ),
                "smoke": (
                    ["xi", "fixtures/w11.json", "--min", "0", "--max", "2"],
                    {
                        "tables": {},
                        "verdicts": ["rank_agree_degree_%d" % k for k in range(3)],
                        "sha256": "e6c8aa5a8c1a91b7fa494f18c7b3c85a9dd5d999d61563053fd1843a2f4ee993",
                    },
                ),
            },
        ),
        BchWorkload({"full": (50, {99: "44991e2aa08a32b3790eb605e81d33844a8e75d344c0752ca0f72291133c9705"}), "smoke": (3, {99: "4963f47a6b9e11c12d91a9d4bcf87b89d7b141c17739a670b2d9d611c3501649"})}),
        CliWorkload(
            "der_w11_deep",
            {
                "full": (
                    ["der", "fixtures/presentation_w11.json", "--sub", "omega",
                     "--min", "0", "--max", "20"],
                    {
                        "tables": {
                            "dims": {
                                "0": 3, "1": 0, "2": 0, "3": 0, "4": 1, "5": 0, "6": 0,
                                "7": 0, "8": 3, "9": 0, "10": 0, "11": 0, "12": 6,
                                "13": 0, "14": 4, "15": 0, "16": 13, "17": 0, "18": 12,
                                "19": 0, "20": 37,
                            },
                            "betti": {
                                "1": 0, "2": 0, "3": 0, "4": 1, "5": 0, "6": 0, "7": 0,
                                "8": 3, "9": 0, "10": 0, "11": 0, "12": 6, "13": 0,
                                "14": 4, "15": 0, "16": 13, "17": 0, "18": 12, "19": 0,
                            },
                        },
                        "verdicts": [],
                        "sha256": "113aec8395d4a9601afae09793478984afaca0d25a9ddd4abf0981f28e40e7c3",
                    },
                ),
                "smoke": (
                    ["der", "fixtures/presentation_w11.json", "--sub", "omega",
                     "--min", "0", "--max", "8"],
                    {"tables": {}, "verdicts": [], "sha256": "73ae905fcdc80787639c266302814319b2580915e2c463306d0ecdb0ae025fe2"},
                ),
            },
        ),
        CliWorkload(
            "glue_w21_w11",
            {
                "full": (
                    ["glue", "fixtures/w21.json", "fixtures/w11.json",
                     "--min", "0", "--max", "4", "--assert-semisimple"],
                    {
                        "tables": {
                            "glued_dims": {"0": 6, "1": 0, "2": 20, "3": 0, "4": 105},
                        },
                        "verdicts": ["glue_glue_commutes_with_d", "glue_glue_bracket_compatible"],
                        "sha256": "a93f15609b63c823ac59b4d0bb7441283f2fdc0c5b711d665fe5bdae4ba2c00c",
                    },
                ),
                "smoke": (
                    ["glue", "fixtures/w11.json", "fixtures/w11.json",
                     "--min", "0", "--max", "2", "--assert-semisimple"],
                    {
                        "tables": {},
                        "verdicts": ["glue_glue_commutes_with_d", "glue_glue_bracket_compatible"],
                        "sha256": "ab8d7f62722d66790fbe627980fb73a23fd5cbb97c7134961610753726a2fc2b",
                    },
                ),
            },
        ),
    ]
}
