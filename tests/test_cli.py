import json
import os

import pytest

from dgla import io as io_mod
from dgla.cli import run
from dgla.errors import SchemaError


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


def test_grammar_error_is_exit_2(fixture_path):
    code, payload = _run("check", fixture_path("bad_grammar.json"))
    assert code == 2 and payload is None


def test_schema_error_is_exit_2(fixture_path):
    code, payload = _run("check", fixture_path("bad_schema.json"))
    assert code == 2


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


def test_window_too_narrow_is_exit_2(tmp_path):
    f = tmp_path / "narrow.json"
    f.write_text(
        '{"window": [0, 1], "basis": [{"name": "e", "degree": 0}], "bounded": false}'
    )
    code, payload = _run("ce", str(f), "--min", "0", "--max", "4")
    assert code == 2 and payload is None


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
    ],
)
def test_malformed_presentation_is_exit_2(tmp_path, capsys, obj, where):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(obj))
    code, payload = _run("check", str(f))
    assert code == 2 and payload is None
    assert where in capsys.readouterr().err
