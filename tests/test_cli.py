import contextlib
import io
import json
import os
import re
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgla import cli
from dgla import io as io_mod
from dgla.cli import run
from dgla.errors import SchemaError

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _run(*argv):
    return run(list(argv))


def _body(payload):
    return json.loads(payload)["report"]


def test_check_fixture_passes(fixture_path):
    code, payload = _run("check", fixture_path("s2.json"))
    assert code == 0
    body = _body(payload)
    assert all(v["pass"] for v in body["verdicts"])


def test_check_broken_fixture_names_witness(fixture_path):
    code, payload = _run("check", fixture_path("bad_dsquare.json"))
    assert code == 1
    body = _body(payload)
    bad = [v for v in body["verdicts"] if not v["pass"]]
    assert bad and bad[0]["name"] == "d_squared" and bad[0]["witness"] == "c"


def test_homology_table(fixture_path):
    code, payload = _run(
        "homology", fixture_path("s2.json"), "--min", "1", "--max", "3"
    )
    assert code == 0
    assert _body(payload)["tables"]["betti"] == {"1": 1, "2": 1, "3": 0}


@pytest.mark.parametrize("lo", ["0", "-1"])
def test_homology_from_a_window_at_or_below_zero(fixture_path, lo):
    # a presentation is positively graded: degrees <= 0 are empty, so a
    # window from 0 or below reports Betti 0 there and the degrees from 1 as
    # a window from 1 does
    code, payload = _run("homology", fixture_path("presentation_cp2.json"), "--min", lo,
                         "--max", "2")
    assert code == 0
    tables = _body(payload)["tables"]
    _, payload = _run("homology", fixture_path("presentation_cp2.json"), "--min", "1",
                      "--max", "2")
    from_one = _body(payload)["tables"]
    for name in ("betti", "dims"):
        low = {str(d): 0 for d in range(int(lo), 1)}
        assert tables[name] == {**low, **from_one[name]}, name
    assert tables.get("cycle_representatives") == from_one.get("cycle_representatives")


def test_grammar_error_is_exit_2(fixture_path):
    code, payload = _run("check", fixture_path("bad_grammar.json"))
    assert code == 2 and payload is None


def test_schema_error_is_exit_2(fixture_path):
    code, payload = _run("check", fixture_path("bad_schema.json"))
    assert code == 2


_READS_A_PRESENTATION = [
    ["check"],
    ["homology", "--min", "1", "--max", "3"],
    ["indec"],
    ["der", "--min", "0", "--max", "2"],
    ["ce", "--min", "0", "--max", "2"],
    ["exp", "--derivation", "@"],
    # the flag that a nonzero d asks for: the refusal shown is the loader's
    ["g", "--min", "0", "--max", "2", "--assert-semisimple"],
]


@pytest.mark.parametrize("command", _READS_A_PRESENTATION, ids=lambda c: c[0])
@pytest.mark.parametrize(
    "name, pointer",
    [("bad_d_degree_xy.json", "/differential/y"), ("bad_d_degree_abc.json", "/differential/c")],
    ids=["xy", "abc"],
)
def test_a_differential_of_the_wrong_degree_is_exit_2(
    tmp_path, capsys, fixture_path, name, pointer, command
):
    # d y = [x,x] raises degree 1 to 2, and d c = [a,b] keeps degree 4: each
    # is refused when the presentation is built, before any command runs
    derivation = tmp_path / "zero.json"
    derivation.write_text(json.dumps({"degree": 0, "values": {}}))
    argv = [a if a != "@" else str(derivation) for a in command]
    code, payload = _run(argv[0], fixture_path(name), *argv[1:])
    assert code == 2 and payload is None
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith("(at %s)\n" % pointer)


def test_missing_window_is_exit_2(fixture_path):
    code, _ = _run("homology", fixture_path("s2.json"), "--min", "1")
    assert code == 2


def test_model_and_tilde(fixture_path):
    code, payload = _run("model", fixture_path("w11.json"))
    assert code == 0
    assert _body(payload)["tables"]["omega"] == "[a,b]"
    code, payload = _run("tilde", fixture_path("w11.json"))
    assert code == 0
    tilde = _body(payload)["tables"]["tilde"]
    assert tilde["differential"]["gamma"] == "-1*beta+[a,b]"


def test_block_g_dims(fixture_path):
    code, payload = _run(
        "block-g", fixture_path("w11.json"), "--min", "0", "--max", "3"
    )
    assert code == 0
    assert _body(payload)["tables"]["dims"] == {"0": 2, "1": 0, "2": 0, "3": 0}


def test_mc_exit_codes(fixture_path):
    code, _ = _run("mc", fixture_path("mc_slice.json"))
    assert code == 0
    code, payload = _run("mc", fixture_path("mc_bad.json"))
    assert code == 1
    assert _body(payload)["tables"]["residual"] == {"b": "-1/2"}


def test_report_written_to_file_and_deterministic(fixture_path, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        code, _ = _run(
            "ce",
            fixture_path("sl2.json"),
            "--min", "0", "--max", "3",
            "--out", str(out),
        )
        assert code == 0
    b1 = json.loads(out1.read_text())
    b2 = json.loads(out2.read_text())
    assert io_mod.canonical_dumps(b1["report"]) == io_mod.canonical_dumps(b2["report"])
    assert b1["report"]["tables"]["betti"] == {"0": 1, "1": 0, "2": 0, "3": 1}


def test_serialize_roundtrip(fixture_path):
    obj = io_mod.load_json_file(fixture_path("tilde_w11.json"))
    p = io_mod.load_presentation(obj)
    ser = io_mod.serialize_presentation(p)
    p2 = io_mod.load_presentation(ser)
    assert p2.generators.entries == p.generators.entries
    for n, _ in p.generators.entries:
        assert io_mod.serialize_presentation(p2)["generators"] == ser["generators"]
        assert p2.d_gen(n).terms() == p.d_gen(n).terms()


def test_manifold_roundtrip(fixture_path):
    obj = io_mod.load_json_file(fixture_path("twisted9.json"))
    m = io_mod.load_manifold(obj)
    ser = io_mod.serialize_manifold(m)
    m2 = io_mod.load_manifold(ser)
    assert io_mod.serialize_manifold(m2) == ser


def test_rational_strings_rejected_floats():
    with pytest.raises(SchemaError):
        io_mod.parse_rational(1.5)
    with pytest.raises(SchemaError):
        io_mod.parse_rational("1/0")
    assert io_mod.parse_rational("-3/6") == io_mod.parse_rational("-1/2")
    # one grammar: a JSON rational is the expression grammar's rational token,
    # with no underscores, whitespace, plus sign or non-ASCII digits
    for text in ("1_0", " 3 ", "+3", "1/ 2", "\u0663", "1/-2", "3 "):
        with pytest.raises(SchemaError) as raised:
            io_mod.parse_rational(text, "/pairing/0/1")
        assert raised.value.message == "malformed rational %r" % text
        assert raised.value.pointer == "/pairing/0/1"


def test_glue_and_forget_commands(fixture_path):
    code, payload = _run(
        "glue",
        fixture_path("w11.json"),
        fixture_path("w11.json"),
        "--min", "0", "--max", "2",
        "--assert-semisimple",
    )
    assert code == 0
    assert _body(payload)["tables"]["glued_dims"]["0"] == 4
    code, _ = _run(
        "glue",
        fixture_path("w11.json"),
        fixture_path("w11.json"),
        "--min", "0", "--max", "2",
    )
    assert code == 2  # missing assertion flag is a usage error
    code, payload = _run(
        "forget", fixture_path("w11.json"), "--min", "0", "--max", "4"
    )
    assert code == 0


def test_xi_command(fixture_path):
    code, payload = _run(
        "xi", fixture_path("w21.json"), "--min", "0", "--max", "2"
    )
    assert code == 0
    body = _body(payload)
    assert all(v["pass"] for v in body["verdicts"])


def test_exp_command(fixture_path):
    code, payload = _run(
        "exp",
        fixture_path("presentation_w11.json"),
        "--derivation", fixture_path("exp_derivation.json"),
    )
    assert code == 0
    assert _body(payload)["tables"]["images"]["b"] == "a+b"


@pytest.mark.parametrize(
    "presentation, derivation, code, outcome",
    [
        # exp is defined on degree 0 only: a malformed input at its key
        ("presentation_w11.json", {"degree": 1, "values": {}}, 2, "(at /degree)\n"),
        # D theta(gamma) = d theta(gamma) - theta(d gamma) = [a,b] != 0, so e(theta)
        # does not commute with d
        ("tilde_w11.json", {"degree": 0, "values": {"beta": "[a,b]"}}, 1, "AxiomFailure"),
    ],
    ids=["nonzero-degree", "not-a-cycle"],
)
def test_exp_of_an_unusable_derivation(
    tmp_path, capsys, fixture_path, presentation, derivation, code, outcome
):
    f = tmp_path / "derivation.json"
    f.write_text(json.dumps(derivation))
    got, payload = _run("exp", fixture_path(presentation), "--derivation", str(f))
    assert got == code
    if code == 2:
        assert payload is None and capsys.readouterr().err.endswith(outcome)
    else:
        verdicts = _body(payload)["verdicts"]
        assert [(v["name"], v["pass"]) for v in verdicts] == [(outcome, False)]


def test_homotopy_command(fixture_path):
    code, payload = _run("homotopy", fixture_path("homotopy_interp.json"))
    assert code == 0


def test_xi_across_fixture_types(fixture_path):
    # frozen expected ranks, derived by two independent constructions (the
    # omega-relative and beta-relative unipotent complexes)
    expected = {
        "hp2.json": ({"0": 0, "1": 0, "2": 0, "3": 1}, []),
        "twisted9.json": ({"0": 0, "1": 3, "2": 3, "3": 2}, []),
        "cp2.json": ({"0": 0, "1": 1, "2": 0, "3": 1}, ["--assert-semisimple"]),
    }
    for name, (ranks, flags) in expected.items():
        code, payload = _run(
            "xi", fixture_path(name), "--min", "0", "--max", "3", *flags
        )
        assert code == 0, name
        body = _body(payload)
        assert body["tables"]["left"] == ranks, name
        assert body["tables"]["right"] == ranks, name


def _by_degree(tables):
    """Each table of a report as {degree: value}; forget's rows keyed by degree."""
    if "comparison" in tables:
        return {"comparison": {str(r["degree"]): r for r in tables["comparison"]}}
    return tables


@pytest.mark.parametrize("command, top", [("xi", "3"), ("block-g", "4"), ("forget", "4")])
def test_a_window_from_one_reports_the_bottom_degree_of_a_window_from_zero(
    fixture_path, command, top
):
    # homology at the bottom of [1, top] needs degree 0 built, not assumed zero
    tables = {}
    for lo in ("0", "1"):
        code, payload = _run(command, fixture_path("twisted9.json"), "--min", lo,
                             "--max", top, "--assert-semisimple")
        assert code == 0, lo
        tables[lo] = _by_degree(_body(payload)["tables"])
    assert tables["1"].keys() == tables["0"].keys()
    for name, table in tables["1"].items():
        assert "1" in table and "0" not in table
        assert table == {k: tables["0"][name][k] for k in table}, name


@pytest.mark.parametrize("command", [
    ["xi", "w11.json"],
    ["block-g", "w11.json", "--assert-semisimple"],
    ["g", "presentation_w11.json", "--sub", "omega"],
    ["glue", "w11.json", "w11.json", "--assert-semisimple"],
    ["forget", "w11.json"],
], ids=lambda command: command[0])
def test_a_negative_min_reports_the_window_from_zero(fixture_path, command):
    # each of these builds tau_{>=0} objects, which vanish below degree 0
    argv = [fixture_path(a) if a.endswith(".json") else a for a in command]
    reports = {}
    for lo in ("-1", "0"):
        code, payload = _run(*argv, "--min", lo, "--max", "2")
        assert code == 0, lo
        body = _body(payload)
        reports[lo] = (body["tables"], body["verdicts"])
    assert reports["-1"] == reports["0"]


@pytest.mark.parametrize("command", [
    ["xi", "w11.json"],
    ["block-g", "w11.json", "--assert-semisimple"],
    ["g", "presentation_w11.json", "--sub", "omega"],
    ["glue", "w11.json", "w11.json", "--assert-semisimple"],
    ["forget", "w11.json"],
], ids=lambda command: command[0])
def test_a_window_wholly_below_0_gives_empty_tables(fixture_path, command):
    # tau_{>=0} objects have nothing below degree 0, and nothing to certify
    argv = [fixture_path(a) if a.endswith(".json") else a for a in command]
    code, payload = _run(*argv, "--min", "-3", "--max", "-1")
    assert code == 0
    body = _body(payload)
    assert body["tables"] and not any(body["tables"].values())
    assert all(v["pass"] for v in body["verdicts"])


@pytest.mark.parametrize("command, degree", [
    (["block-g", "w11.json", "--assert-semisimple"], "0"),
    (["g", "presentation_w11.json", "--sub", "omega"], "2"),
], ids=lambda arg: arg[0] if isinstance(arg, list) else arg)
def test_a_one_degree_window_reports_dims_and_no_betti_numbers(fixture_path, command, degree):
    # g is built up to max, so its homology is known only below max
    argv = [fixture_path(a) if a.endswith(".json") else a for a in command]
    code, payload = _run(*argv, "--min", degree, "--max", degree)
    assert code == 0
    tables = _body(payload)["tables"]
    _, wide = _run(*argv, "--min", "0", "--max", "3")
    assert tables == {"dims": {degree: _body(wide)["tables"]["dims"][degree]}, "betti": {}}


def _count_calls(monkeypatch, owners, name):
    """A list that gets one entry per call of ``name`` through any of ``owners``."""
    calls = []
    for owner in owners:
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _fn=fn, **k: calls.append(1) or _fn(*a, **k))
    return calls


def test_unknown_subalgebra_is_named_without_quotes(fixture_path, capsys):
    code, payload = _run("der", fixture_path("presentation_w11.json"), "--sub", "nosuch",
                         "--min", "0", "--max", "2")
    assert (code, payload) == (2, None)
    assert capsys.readouterr().err == "error: no subalgebra named 'nosuch'\n"


def test_ce_refuses_a_negative_coefficient_dimension(fixture_path, capsys):
    window = ["--min", "0", "--max", "3"]
    code, payload = _run("ce", fixture_path("sl2.json"), *window, "--coeff-dim", "-1")
    assert (code, payload) == (2, None)
    assert "--coeff-dim" in capsys.readouterr().err
    # the zero module is valid, and its cohomology vanishes
    code, payload = _run("ce", fixture_path("sl2.json"), *window, "--coeff-dim", "0")
    assert code == 0
    assert _body(payload)["tables"]["betti"] == {"0": 0, "1": 0, "2": 0, "3": 0}


def test_each_ce_block_is_assembled_once(monkeypatch, fixture_path):
    from dgla.ce import CESlice

    calls = _count_calls(monkeypatch, [CESlice], "_d_terms")
    code, _ = _run("ce", fixture_path("sl2.json"), "--min", "0", "--max", "3")
    assert code == 0
    # blocks out of C_1 .. C_4; the one out of C_0 is the zero map into the
    # padded degree below
    assert len(calls) == 4


def test_exp_certifies_its_automorphism_once_each_way(monkeypatch, fixture_path):
    from dgla import cli, morphisms

    calls = _count_calls(monkeypatch, [cli, morphisms], "check_morphism")
    code, payload = _run("exp", fixture_path("presentation_w11.json"),
                         "--derivation", fixture_path("exp_derivation.json"))
    assert code == 0
    assert len(calls) == 2  # e(theta) and e(-theta)
    names = [v["name"] for v in _body(payload)["verdicts"]]
    assert names == ["exp_degree_preserved", "exp_d_commutes", "exp_inverse_identity"]


def test_forget_certifies_each_complex_once(monkeypatch, fixture_path):
    from dgla.graded import ChainComplexSlice

    calls = _count_calls(monkeypatch, [ChainComplexSlice], "check_complex")
    code, _ = _run("forget", fixture_path("w11.json"), "--min", "0", "--max", "4")
    assert code == 0
    # two lie chain slices for the quasi-isomorphism, the two deru chains
    # and the pullback
    assert len(calls) == 5 + 1


def test_glue_checks_rho_once_per_model(monkeypatch, fixture_path):
    from dgla import derivations

    calls = _count_calls(monkeypatch, [derivations], "check_rho_chain_map")
    code, _ = _run("glue", fixture_path("w11.json"), fixture_path("w11.json"),
                   "--min", "0", "--max", "2", "--assert-semisimple")
    assert code == 0
    assert len(calls) == 3


def test_glue_certifies_each_indecomposables_once(monkeypatch, fixture_path):
    from dgla.graded import ChainComplexSlice
    from dgla.presentation import DgLaPresentation

    built = []  # (presentation, sub, slice) of every indecomposables call
    checked = []  # every slice whose d^2 certificate ran
    indecomposables = DgLaPresentation.indecomposables
    check_complex = ChainComplexSlice.check_complex

    def recorded_indecomposables(self, subname):
        slc = indecomposables(self, subname)
        built.append((self, subname, slc))
        return slc

    def recorded_check(self):
        checked.append(self)
        return check_complex(self)

    monkeypatch.setattr(DgLaPresentation, "indecomposables", recorded_indecomposables)
    monkeypatch.setattr(ChainComplexSlice, "check_complex", recorded_check)
    code, _ = _run("glue", fixture_path("w21.json"), fixture_path("w11.json"),
                   "--min", "0", "--max", "4", "--assert-semisimple")
    assert code == 0
    # each model's presentation asks twice, rel nothing when it is loaded and
    # rel omega in build_g; an ElementGenerated sub has the absolute
    # indecomposables, so one complex and one certificate serve both
    assert [sub for _, sub, _ in built] == [None] * 3 + ["omega"] * 3
    slices = []
    for p, _, slc in built:
        if all(s is not slc for _, s in slices):
            slices.append((p, slc))
    assert len(slices) == len({id(p) for p, _ in slices}) == 3
    assert [sum(c is slc for c in checked) for _, slc in slices] == [1] * 3


@pytest.mark.parametrize("command", [["g"], ["der", "--deru"]])
def test_a_rho_that_does_not_kill_d_is_a_failed_verdict(tmp_path, fixture_path, command):
    # d gamma = [a,b] - beta, and this rho sees beta
    f = tmp_path / "rho.json"
    f.write_text(json.dumps({"pi": [{"name": "p4", "degree": 4}], "values": {"beta": {"p4": 1}}}))
    code, payload = _run(*command, fixture_path("tilde_w11.json"), "--sub", "beta",
                         "--min", "0", "--max", "2", "--assert-semisimple", "--rho", str(f))
    assert code == 1
    assert _body(payload)["verdicts"] == [
        {"name": "RhoNotChainMap", "pass": False, "witness": "rho(d gamma) != 0"}
    ]


def test_der_refuses_rho_without_deru(fixture_path, capsys):
    # rho cuts only Der_u's degree 0: without --deru the report would name
    # the rho file and hold the tables of the run without it
    code, payload = _run("der", fixture_path("presentation_twisted9.json"),
                         "--rho", fixture_path("rho_twisted9.json"), "--min", "0", "--max", "2")
    assert code == 2 and payload is None
    assert "error: --rho needs --deru" in capsys.readouterr().err


def test_der_refuses_assert_semisimple_without_deru(fixture_path, capsys):
    # only Der_u's degree 0 rests on semisimplicity: without --deru the
    # report would record the flag and hold the tables of the run without it
    code, payload = _run("der", fixture_path("presentation_cp2.json"), "--assert-semisimple",
                         "--min", "0", "--max", "2")
    assert code == 2 and payload is None
    assert "error: --assert-semisimple needs --deru" in capsys.readouterr().err


def test_window_too_narrow_is_exit_2(tmp_path):
    f = tmp_path / "narrow.json"
    f.write_text(
        '{"window": [0, 1], "basis": [{"name": "e", "degree": 0}], "bounded": false}'
    )
    code, payload = _run("ce", str(f), "--min", "0", "--max", "4")
    assert code == 2 and payload is None


def test_ce_assumes_nothing_below_a_window_above_0(tmp_path, capsys):
    basis = [{"name": "x", "degree": 1}, {"name": "y", "degree": 2}]
    window = ("--min", "0", "--max", "2")
    low = tmp_path / "low.json"
    low.write_text(json.dumps({"window": [1, 3], "basis": basis}))
    code, payload = _run("ce", str(low), *window)
    assert code == 2 and payload is None
    assert "required window: [0, 3]" in capsys.readouterr().err
    # a bounded slice vanishes below its window, so ce pads it down to 0
    bounded = tmp_path / "bounded.json"
    bounded.write_text(json.dumps({"window": [1, 3], "basis": basis, "bounded": True}))
    code, payload = _run("ce", str(bounded), *window)
    assert code == 0 and _body(payload)["tables"]["betti"] == {"0": 1, "1": 0, "2": 1}
    # with z in degree 0 and dx = z, the same degrees from 1 give another answer
    ext = tmp_path / "ext.json"
    ext.write_text(json.dumps({
        "window": [0, 3], "basis": [{"name": "z", "degree": 0}] + basis,
        "differential": {"x": {"z": "1"}},
    }))
    code, payload = _run("ce", str(ext), *window)
    assert code == 0 and _body(payload)["tables"]["betti"] == {"0": 1, "1": 0, "2": 0}


def test_ce_names_a_window_that_suffices(fixture_path, tmp_path, capsys):
    # a slice on [-2, 0] is refused for its degrees below 0; the window
    # named must also reach degree 1 for words up to degree 2, so that a
    # slice on it runs, where one on [0, 0] is refused again
    code, payload = _run("ce", fixture_path("mc_slice.json"), "--min", "0", "--max", "2")
    assert code == 2 and payload is None
    assert "required window: [0, 2]" in capsys.readouterr().err
    f = tmp_path / "from0.json"
    for window, code_wanted in (([0, 0], 2), ([0, 2], 0)):
        f.write_text(json.dumps({"window": window, "basis": [{"name": "x", "degree": 0}]}))
        code, payload = _run("ce", str(f), "--min", "0", "--max", "2")
        assert code == code_wanted
    assert _body(payload)["tables"]["betti"] == {"0": 1, "1": 1, "2": 0}


def test_ce_of_a_bracket_failing_jacobi_is_a_failed_verdict(tmp_path):
    # [[x,y],z] + [[y,z],x] + [[z,x],y] = [z,z] + [x,x] + [x,y] = z != 0
    f = tmp_path / "not_lie.json"
    f.write_text(json.dumps({
        "window": [0, 0],
        "basis": [{"name": n, "degree": 0} for n in "xyz"],
        "brackets": [
            {"left": "x", "right": "y", "value": {"z": "1"}},
            {"left": "y", "right": "z", "value": {"x": "1"}},
            {"left": "z", "right": "x", "value": {"x": "1"}},
        ],
        "bounded": True,
    }))
    code, payload = _run("ce", str(f), "--min", "0", "--max", "3")
    assert code == 1
    verdicts = _body(payload)["verdicts"]
    assert [(v["name"], v["pass"]) for v in verdicts] == [("NotAComplex", False)]


_NESTED = "[" * 3000 + "a" + ",a]" * 3000


@pytest.mark.parametrize(
    "obj, where",
    [
        (
            {"generators": [{"name": "a", "degree": 2}, {"name": "a", "degree": 3}]},
            "at /generators/1/name",
        ),
        (
            {
                "generators": [{"name": "a", "degree": 2}],
                "subalgebras": {"s": {"generators": ["a", "zz"]}},
            },
            "at /subalgebras/s",
        ),
        (
            {
                "generators": [{"name": "a", "degree": 2}, {"name": "b", "degree": 3}],
                "differential": {"b": _NESTED},
            },
            "at offset 256",
        ),
        (
            {
                "generators": [{"name": "a", "degree": 2}, {"name": "b", "degree": 3}],
                "differential": {"b": "[a,zz]"},
            },
            "at /differential/b",
        ),
        (
            {
                "generators": [{"name": "a", "degree": 2}],
                "subalgebras": {"s": {"elements": ["[a,zz]"]}},
            },
            "at /subalgebras/s",
        ),
        ({"generators": [{"name": "a", "degree": 2}], "subalgebras": 7}, "at /subalgebras"),
        (
            {
                "generators": [{"name": "a", "degree": -1}, {"name": "b", "degree": 2}],
                "subalgebras": {"s": {"elements": ["[a,b]"]}},
            },
            "at /generators/0/degree",
        ),
        (
            {
                "generators": [{"name": "a", "degree": 2}, {"name": "b", "degree": 3}],
                "differential": {"b": "a + [a,a]"},
            },
            "at /differential/b",
        ),
        (
            {
                "generators": [{"name": "a", "degree": 2}, {"name": "b", "degree": 3}],
                "subalgebras": {"s": {"elements": ["[a,b]", "a + [a,a]"]}},
            },
            "at /subalgebras/s/elements/1",
        ),
        # digits are ASCII: a superscript two or an Arabic-Indic three is no coefficient
        (
            {
                "generators": [{"name": "a", "degree": 2}],
                "subalgebras": {"s": {"elements": ["\u00b2*[a,a]"]}},
            },
            "at /subalgebras/s/elements/0",
        ),
        (
            {
                "generators": [{"name": "a", "degree": 2}],
                "subalgebras": {"s": {"elements": ["\u0663*a"]}},
            },
            "at /subalgebras/s/elements/0",
        ),
    ],
)
def test_malformed_presentation_is_exit_2(tmp_path, capsys, obj, where):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(obj))
    code, payload = _run("check", str(f))
    assert code == 2 and payload is None
    assert where in capsys.readouterr().err


@pytest.mark.parametrize(
    "differential",
    [{"b": "[a,zz]"}, {"zz": "[a,b]"}, {"b": "a + [a,b]"}, {"b": "a"}],
    ids=["unknown-in-value", "unknown-key", "inhomogeneous-value", "wrong-degree-value"],
)
@pytest.mark.parametrize(
    "command", [["model"], ["xi", "--min", "0", "--max", "3"]], ids=["model", "xi"]
)
def test_malformed_manifold_is_exit_2(tmp_path, capsys, fixture_path, differential, command):
    obj = io_mod.load_json_file(fixture_path("w11.json"))
    obj["differential"] = differential
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(obj))
    code, payload = _run(command[0], str(f), *command[1:])
    assert code == 2 and payload is None
    assert "at /differential/%s" % next(iter(differential)) in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [("dimension", 0), ("pairing", [["0", 0], ["-1", "0"]])],
    ids=["off-degree", "not-antisymmetric"],
)
def test_malformed_pairing_is_exit_2(tmp_path, capsys, fixture_path, key, value):
    obj = io_mod.load_json_file(fixture_path("w11.json"))
    obj[key] = value
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(obj))
    code, payload = _run("xi", str(f), "--min", "0", "--max", "2")
    assert code == 2 and payload is None
    assert "at /pairing/0/1" in capsys.readouterr().err


_TWISTED9_G = ["g", "presentation_twisted9.json", "--sub", "omega", "--min", "0", "--max", "3",
               "--assert-semisimple", "--rho"]


@pytest.mark.parametrize(
    "name, path, value, command, pointer",
    [
        ("sl2.json", ["differential"], 7, ["ce", "@", "--min", "0", "--max", "3"], "/differential"),
        ("mc_slice.json", ["brackets"], 7, ["mc", "@"], "/brackets"),
        ("mc_slice.json", ["candidate", "nosuch"], 5, ["mc", "@"], "/candidate/nosuch"),
        ("mc_slice.json", ["candidate", "b"], 5, ["mc", "@"], "/candidate/b"),
        ("rho_twisted9.json", ["values"], 7, _TWISTED9_G + ["@"], "/values"),
        ("exp_derivation.json", ["values"], 7,
         ["exp", "presentation_w11.json", "--derivation", "@"], "/values"),
        ("presentation_w11.json", ["generators", 0, "degree"], 10**6, ["check", "@"],
         "/generators/0/degree"),
        ("empty_model.json", ["dimension"], 2, ["tilde", "@"], "/dimension"),
        ("exp_derivation.json", ["degree"], 2,
         ["exp", "presentation_w11.json", "--derivation", "@"], "/values/b"),
        ("homotopy_interp.json", ["f", "u"], "[z,zz]", ["homotopy", "@"], "/f/u"),
        ("homotopy_interp.json", ["g", "u"], [], ["homotopy", "@"], "/g/u"),
        ("homotopy_interp.json", ["h", "u", "one", "1"], "-1*zz", ["homotopy", "@"],
         "/h/u/one/1"),
        ("homotopy_interp.json", ["h", "u", "dt", "-1"], "w", ["homotopy", "@"], "/h/u/dt/-1"),
        ("homotopy_interp.json", ["h", "zz"], {}, ["homotopy", "@"], "/h/zz"),
        ("homotopy_interp.json", ["h", "u", "zz"], {}, ["homotopy", "@"], "/h/u/zz"),
        ("homotopy_interp.json", ["f", "u"], "[z", ["homotopy", "@"], "/f/u"),
        ("homotopy_interp.json", ["source", "generators", 0, "degree"], 0, ["homotopy", "@"],
         "/source/generators/0/degree"),
        ("homotopy_interp.json", ["target", "subalgebras"], {"s": {"generators": ["zz"]}},
         ["homotopy", "@"], "/target/subalgebras/s/generators/0"),
        ("homotopy_interp.json", ["rel"], "zz", ["homotopy", "@"], "/rel"),
        ("sl2.json", ["window", 1], 10**6, ["ce", "@", "--min", "0", "--max", "1"],
         "/window/1"),
        ("mc_slice.json", ["window", 0], -129, ["mc", "@"], "/window/0"),
        ("homotopy_interp.json", ["f", "u"], "w", ["homotopy", "@"], "/f/u"),
        ("homotopy_interp.json", ["g", "u"], "[z,w]", ["homotopy", "@"], "/g/u"),
        ("homotopy_interp.json", ["h", "u", "one", "1"], "w", ["homotopy", "@"],
         "/h/u/one/1"),
        ("homotopy_interp.json", ["h", "u", "dt", "0"], "z", ["homotopy", "@"], "/h/u/dt/0"),
        ("exp_derivation.json", ["values", "b"], "a + [a,b]",
         ["exp", "presentation_w11.json", "--derivation", "@"], "/values/b"),
        ("homotopy_interp.json", ["f", "u"], "z + [z,w]", ["homotopy", "@"], "/f/u"),
        ("homotopy_interp.json", ["h", "u", "one", "1"], "z + [z,w]", ["homotopy", "@"],
         "/h/u/one/1"),
        ("homotopy_interp.json", ["target", "differential", "w"], "z + [z,z]",
         ["homotopy", "@"], "/target/differential/w"),
        # the stabilized model adjoins beta and gamma of its own
        ("w11.json", ["generators", 0, "name"], "beta", ["tilde", "@"], "/generators/0/name"),
        ("w11.json", ["generators", 1, "name"], "gamma", ["xi", "@", "--min", "0", "--max", "2"],
         "/generators/1/name"),
        ("w11.json", ["generators", 0, "name"], "beta",
         ["forget", "@", "--min", "0", "--max", "2"], "/generators/0/name"),
        # a generator's name is the grammar's ident
        ("w11.json", ["generators", 0, "name"], "a b", ["model", "@"], "/generators/0/name"),
        ("presentation_w11.json", ["generators", 1, "name"], "1b", ["check", "@"],
         "/generators/1/name"),
        ("homotopy_interp.json", ["source", "generators", 0, "name"], "u-", ["homotopy", "@"],
         "/source/generators/0/name"),
    ],
    ids=["slice-differential", "slice-brackets", "candidate-unknown-name",
         "candidate-wrong-degree", "rho-values", "derivation-values", "huge-degree",
         "tilde-dimension", "derivation-degree", "homotopy-unknown-in-f",
         "homotopy-array-as-expression", "homotopy-unknown-in-h", "homotopy-negative-power",
         "homotopy-h-of-unknown-generator", "homotopy-unknown-h-part", "homotopy-grammar",
         "homotopy-nested-degree", "homotopy-nested-subalgebra", "homotopy-unknown-rel",
         "slice-window-past-max-degree", "candidate-window-past-max-degree",
         "homotopy-f-image-degree", "homotopy-g-image-degree", "homotopy-h-one-degree",
         "homotopy-h-dt-degree", "derivation-inhomogeneous-value",
         "homotopy-f-image-inhomogeneous", "homotopy-h-one-inhomogeneous",
         "homotopy-nested-inhomogeneous-differential", "tilde-beta", "xi-gamma",
         "forget-beta", "model-non-ident", "check-non-ident", "homotopy-non-ident"],
)
def test_malformed_value_is_exit_2_at_its_pointer(
    tmp_path, capsys, fixture_path, name, path, value, command, pointer
):
    obj = io_mod.load_json_file(fixture_path(name))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(obj))
    argv = [str(f) if a == "@" else fixture_path(a) if a.endswith(".json") else a for a in command]
    code, payload = _run(*argv)
    assert code == 2 and payload is None
    assert capsys.readouterr().err.endswith("(at %s)\n" % pointer)


@pytest.mark.parametrize("command", [
    ["block-g", "@", "--min", "0", "--max", "2"],
    ["glue", "@", "@", "--min", "0", "--max", "2", "--assert-semisimple"],
], ids=["block-g", "glue"])
def test_a_generator_named_beta_is_refused_only_by_the_stabilized_model(
        tmp_path, fixture_path, command):
    # block-g and glue never adjoin beta and gamma, so the name is free there
    obj = io_mod.load_json_file(fixture_path("w11.json"))
    obj["generators"][0]["name"] = "beta"
    f = tmp_path / "beta.json"
    f.write_text(json.dumps(obj))
    code, _ = _run(*[str(f) if a == "@" else a for a in command])
    assert code == 0


@pytest.mark.parametrize(
    "name, path, command",
    [
        ("presentation_w11.json", ["differential"], ["check", "@"]),
        ("w11.json", ["differential"], ["model", "@"]),
        ("w11.json", ["pontryagin"], ["model", "@"]),
        ("sl2.json", ["brackets"], ["ce", "@", "--min", "0", "--max", "3"]),
        ("mc_slice.json", ["differential", "a", "b"], ["mc", "@"]),
        ("exp_derivation.json", ["values", "b"],
         ["exp", "presentation_w11.json", "--derivation", "@"]),
        ("exp_derivation.json", ["rel"], ["exp", "presentation_w11.json", "--derivation", "@"]),
        ("homotopy_interp.json", ["h", "u", "dt"], ["homotopy", "@"]),
    ],
)
def test_null_is_absent(tmp_path, fixture_path, name, path, command):
    # one rule for every optional key and map entry: null reads as absent
    reports = []
    for null in (True, False):
        obj = io_mod.load_json_file(fixture_path(name))
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if null:
            parent[path[-1]] = None
        else:
            parent.pop(path[-1], None)
        f = tmp_path / "doc.json"
        f.write_text(json.dumps(obj))
        argv = [str(f) if a == "@" else fixture_path(a) if a.endswith(".json") else a
                for a in command]
        code, payload = _run(*argv)
        assert code in (0, 1)
        reports.append(_body(payload)["verdicts"])
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "content",
    [None, "dir", b"\xff\xfe{}", b"[" * 100000, b"1" * 5000],
    ids=["missing", "directory", "not-utf8", "nested-past-recursion-limit", "huge-integer"],
)
def test_unreadable_input_file_is_exit_2(tmp_path, capsys, content):
    path = tmp_path / "input.json"
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    code, payload = _run("check", str(path))
    assert code == 2 and payload is None
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [["homology", "s2.json"], ["der", "presentation_w11.json", "--sub", "omega"]],
    ids=["homology", "der"],
)
def test_window_past_max_degree_is_exit_2(capsys, fixture_path, command):
    # the window is bounded like generator degrees, not by the recursion limit
    argv = [fixture_path(a) if a.endswith(".json") else a for a in command]
    code, payload = _run(*argv, "--min", "2500", "--max", "2502")
    assert code == 2 and payload is None
    assert "window bounds must lie in [-128, 128]" in capsys.readouterr().err
    code, _ = _run(*argv, "--min", "-2502", "--max", "0")
    assert code == 2


def test_window_whose_basis_passes_the_cap_is_exit_2(capsys, fixture_path):
    # two generators of degree 2 have about 2.9e17 basis elements in degree
    # 128; the Witt count refuses them before any word is listed
    start = time.monotonic()
    code, payload = _run("der", fixture_path("presentation_w11.json"), "--sub", "omega",
                         "--min", "126", "--max", "128")
    assert code == 2 and payload is None
    assert time.monotonic() - start < 1
    assert "error: degree 128 of the free Lie algebra has" in capsys.readouterr().err


def test_der_window_past_the_cap_is_refused_before_any_degree_is_built(capsys, fixture_path):
    # degree 38 has 27,594 basis elements, and der reads it first at n = 34,
    # as the target of omega's condition; every degree below it fits
    start = time.monotonic()
    code, payload = _run("der", fixture_path("presentation_w11.json"), "--sub", "omega",
                         "--min", "0", "--max", "40")
    assert code == 2 and payload is None
    assert time.monotonic() - start < 1
    assert ("error: degree 38 of the free Lie algebra has 27594 basis elements, more than"
            " the 20000 allowed") in capsys.readouterr().err


def test_window_at_max_degree_runs(fixture_path):
    code, payload = _run("homology", fixture_path("s2.json"), "--min", "127", "--max", "128")
    assert code == 0
    assert _body(payload)["tables"]["betti"] == {"127": 0, "128": 0}


# Each fixture with the commands its mutations are run through; "@" is the
# mutated file and other .json names are fixtures.
_FUZZED = [
    ("w11.json", [["model", "@"], ["xi", "@", "--min", "0", "--max", "2"]]),
    (
        "presentation_w11.json",
        [["check", "@"], ["der", "@", "--sub", "omega", "--min", "0", "--max", "4"]],
    ),
    ("sl2.json", [["ce", "@", "--min", "0", "--max", "3"]]),
    ("mc_slice.json", [["mc", "@"]]),
    ("rho_twisted9.json", [_TWISTED9_G + ["@"]]),
    (
        "exp_derivation.json",
        [
            ["exp", "presentation_w11.json", "--derivation", "@"],
            ["exp", "tilde_w11.json", "--derivation", "@"],
        ],
    ),
    ("homotopy_interp.json", [["homotopy", "@"]]),
]
_WRONG_TYPES = [7, "7", True, 1.5, [], [7], {}, {"x": 7}]


def _places(obj, path=()):
    """(path, value) of every value inside obj, below the root."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for k, v in items:
        yield path + (k,), v
        yield from _places(v, path + (k,))


def _resolves(obj, pointer):
    """Whether the RFC 6901 pointer names a value inside obj."""
    for token in pointer.split("/")[1:]:
        token = token.replace("~1", "/").replace("~0", "~")
        if isinstance(obj, list) and token.isdigit() and int(token) < len(obj):
            obj = obj[int(token)]
        elif isinstance(obj, dict) and token in obj:
            obj = obj[token]
        else:
            return False
    return True


@st.composite
def _mutated_fixture(draw):
    """A fixture, the commands to run on it, one mutation of its JSON, and
    the pointer of the key that mutation deleted (None for other kinds)."""
    name, commands = draw(st.sampled_from(_FUZZED))
    with open(os.path.join(FIXTURES, name)) as f:
        obj = json.load(f)
    places = list(_places(obj))
    kind = draw(st.sampled_from(["delete", "null", "wrong-type", "name", "degree"]))
    if kind == "name":
        places = [(p, v) for p, v in places if isinstance(v, str) or isinstance(p[-1], str)]
    elif kind == "degree":
        places = [(p, v) for p, v in places if p[-1] in ("degree", "dimension")]
    path, value = draw(st.sampled_from(places))
    parent = obj
    for k in path[:-1]:
        parent = parent[k]
    key = path[-1]
    if kind == "delete":
        del parent[key]
    elif kind == "null":
        parent[key] = None
    elif kind == "wrong-type":
        parent[key] = draw(st.sampled_from([v for v in _WRONG_TYPES if type(v) is not type(value)]))
    elif kind == "name":
        # "a b" is no ident, and beta is a name the stabilized model adjoins
        new = draw(st.sampled_from(["", "zz", "a b", "beta"]))
        if isinstance(value, str):
            parent[key] = new
        else:  # rename an object key
            parent[new] = parent.pop(key)
    else:
        parent[key] = draw(st.sampled_from([0, -1, -4]))
    deleted = "".join("/" + str(k).replace("~", "~0").replace("/", "~1") for k in path)
    return obj, commands, deleted if kind == "delete" else None


@settings(max_examples=60, deadline=None)
@given(_mutated_fixture())
def test_mutated_fixtures_never_traceback(case):
    obj, commands, deleted = case
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "mutated.json")
        with open(path, "w") as f:
            json.dump(obj, f)
        for command in commands:
            argv = [path if a == "@" else os.path.join(FIXTURES, a) if a.endswith(".json") else a
                    for a in command]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code, _ = run(argv)
            assert code in (0, 1, 2)
            # errors about command-line arguments (the window, a --sub the
            # mutation deleted) carry no pointer
            at = re.search(r"\(at (/.*)\)\n\Z", err.getvalue())
            if code == 2 and at:
                assert _resolves(obj, at.group(1)) or at.group(1) == deleted, err.getvalue()


# -- one parser per command ------------------------------------------------------------


def _commands(parser):
    """The subcommand action of a parser built by ``build_parser``."""
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    return sub


def _parsed(parser, argv):
    """(exit code or None, stdout, stderr, parsed arguments or None) of parsing argv."""
    out, err = io.StringIO(), io.StringIO()
    code, parsed = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parsed = vars(parser.parse_args(argv))
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue(), parsed


_ARGV_TAILS = [
    ["f.json"],  # --min missing (or, without a window, well formed)
    ["f.json", "--min", "x", "--max", "1"],  # a bound that is not an integer
    ["f.json", "--min", "0", "--max", "1", "--bogus"],  # an unknown option
    ["-h"],
    [],
    ["a.json", "b.json", "--min", "0", "--max", "2", "--derivation", "d.json"],
]


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_one_command_parser_parses_as_the_full_parser(command):
    full, one = cli.build_parser(), cli.build_parser(command)
    assert list(_commands(one).choices) == [command] and len(_commands(full).choices) == 16
    assert one.format_help() == full.format_help()
    assert one.format_usage() == full.format_usage()
    assert (_commands(one).choices[command].format_help()
            == _commands(full).choices[command].format_help())
    for tail in _ARGV_TAILS:
        argv = [command] + tail
        assert _parsed(one, argv) == _parsed(full, argv), argv


def test_run_builds_the_full_parser_only_without_a_known_command(monkeypatch, capsys, fixture_path):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command) or build(command))
    assert _run("check", fixture_path("s2.json"))[0] == 0
    assert _run("der", fixture_path("s2.json"), "--max", "1") == (2, None)
    assert built == ["check", "der"]
    capsys.readouterr()
    for argv in ([], ["-h"], ["nosuch"], ["--out", "x", "check"]):
        built.clear()
        code, _ = run(argv)
        assert built == [None] and code == (0 if argv == ["-h"] else 2)
    # the full parser names the command argument in its errors
    assert "argument command: invalid choice: 'x'" in capsys.readouterr().err
