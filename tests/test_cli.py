import ast
import json
from pathlib import Path

import pytest

import cobcalc
import cobcalc.linalg
from cobcalc.cli import main
from cobcalc.errors import ConfigError
from cobcalc.fgl import LawSpec, build_law
from cobcalc.gkm import flag_gkm, line_bundle_class
from cobcalc.roots import build_root_datum

from .oracles import is_saturated


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fgl_check_passes(capsys):
    code, out, err = run_cli(
        capsys, "fgl", "check", "--law", "universal:4", "--degree", "5"
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"]
    assert "fgl-check: pass" in err


def test_fgl_check_additive(capsys):
    code, out, _ = run_cli(capsys, "fgl", "check", "--law", "additive", "--degree", "6")
    assert code == 0 and json.loads(out)["pass"]


def test_config_error_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "fgl", "check", "--law", "universal:2", "--degree", "6"
    )
    assert code == 2
    assert "error" in err


def test_unknown_type_exit_code(capsys):
    code, _, _ = run_cli(capsys, "verify", "gln", "--type", "f4")
    assert code == 2


def test_unsupported_combination_exit_code(capsys):
    # the relations suite needs a gl_n datum
    code, _, _ = run_cli(capsys, "verify", "gln", "--type", "a2")
    assert code == 2


@pytest.mark.parametrize("law", ["universal:1024", "universal:99999999999999999999"])
def test_universal_law_past_the_packed_generators_exit_code(capsys, law):
    code, out, err = run_cli(
        capsys, "verify", "lemma-div", "--type", "gl2", "--law", law,
        "--degree", "3", "--count", "1",
    )
    assert code == 2 and out == ""
    assert err == (
        f"error: universal law with {law[10:]} generators is above the "
        "supported 1023\n"
    )


def test_a_product_with_a_gl_factor_is_not_gl_n(capsys):
    # gl_n is decided by the root datum, not by the prefix of its label
    argv = ["--type", "product:gl2,a1", "--law", "additive", "--degree", "3"]
    code, out, _ = run_cli(capsys, "gkm", "verify", *argv)
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert "symmetric_relations" not in names
    for suite, what in (("gln", "relations"), ("tensor-iso", "tensor")):
        code, out, err = run_cli(capsys, "verify", suite, *argv)
        assert code == 2 and out == ""
        assert err == f"error: the {what} suite needs a gl_n type\n"


def test_usage_error(capsys):
    assert main(["verify", "nonexistent-suite"]) == 2


def test_verify_gln(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "gln", "--type", "gl2", "--law", "universal:4", "--degree", "5",
    )
    assert code == 0
    assert json.loads(out)["pass"]


def test_verify_lemma_div_small(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "lemma-div", "--type", "a2", "--law", "multiplicative",
        "--degree", "5", "--count", "20",
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"]
    assert report["checks"][0]["samples"] == 20


def test_verify_escalates_failures_to_exit_one(capsys, monkeypatch):
    import cobcalc.verify as verify_mod

    def broken(cfg):
        return {"suite": "demo", "config": {}, "checks": [
            {"name": "x", "pass": False}], "pass": False}

    monkeypatch.setitem(verify_mod._SUITE_FUNCS, "demazure", broken)
    code, out, _ = run_cli(capsys, "verify", "demazure")
    assert code == 1


def test_symmetric_verify(capsys):
    # the symmetric-variety statement runs as the esph suite
    code, out, _ = run_cli(
        capsys,
        "verify", "esph", "--case", "group:psl2",
        "--law", "universal:3", "--degree", "3",
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"]


def test_esph_group_g2_additive_degree_two(capsys):
    # 19,351 rows, 2,290 of them with Fraction values and 12,632 ties
    code, out, _ = run_cli(
        capsys,
        "verify", "esph", "--case", "group:g2", "--law", "additive", "--degree", "2",
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"]
    (subrings,) = [c for c in report["checks"] if c["name"] == "invariant_subrings_coincide"]
    assert [(d["rank"], d["x_tuple_rank"], d["y_rank"]) for d in subrings["degrees"]] == [
        (1, 1, 1), (2, 2, 2), (6, 6, 6)
    ]


def test_esph_group_g2_universal_degree_three(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "esph", "--case", "group:g2", "--law", "universal:3", "--degree", "3",
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_schubert_bott_samelson_artifact(tmp_path, capsys):
    out_path = str(tmp_path / "bs.json")
    code, out, _ = run_cli(
        capsys,
        "schubert", "bott-samelson", "--type", "gl3", "--law", "additive",
        "--word", "1,2", "--degree", "5", "--out", out_path,
    )
    assert code == 0
    artifact = json.loads(out)
    assert set(artifact) == {"e", "1", "2", "12", "21", "121"}
    with open(out_path) as fh:
        assert json.load(fh) == artifact


def _b_lengths(report) -> set:
    """The lengths of the b-vectors of every term in a report."""
    if isinstance(report, dict):
        found = {len(report["b"])} if "b" in report else set()
        return found.union(*map(_b_lengths, report.values()))
    if isinstance(report, list):
        return set().union(*map(_b_lengths, report))
    return set()


@pytest.mark.parametrize(
    "argv,precision",
    [
        (["schubert", "bott-samelson", "--type", "gl2", "--degree", "4", "--word", "1"], 4),
        (["compute", "subring-basis", "--type", "gl2", "--degree", "1"], 5),
        (["compute", "invariants", "--type", "gl2", "--degree", "2"], 5),
    ],
    ids=["bott-samelson", "subring-basis", "invariants"],
)
def test_b_vectors_are_padded_to_the_generators_the_law_builds(capsys, argv, precision):
    """At precision p, universal:N builds b_1..b_min(N, p), and a report
    pads every b-vector to that many entries: N above p changes nothing."""
    outs = {}
    for n in (precision - 1, precision, 1023):
        code, out, _ = run_cli(capsys, *argv, "--law", f"universal:{n}")
        assert code == 0
        outs[n] = out
        assert _b_lengths(json.loads(out)) == {min(n, precision)}, n
    assert outs[1023] == outs[precision]
    assert len(outs[1023]) < 2 * len(outs[precision - 1])


def test_compute_subring_basis(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "subring-basis", "--type", "gl2", "--degree", "1"
    )
    assert code == 0
    artifact = json.loads(out)
    assert artifact["rank"] == 3
    assert len(artifact["basis"]) == 3


def test_compute_names_its_precision_floor(capsys):
    # compute works at precision max(5, --degree): a universal law too small
    # for 5 is refused with that floor named, not only the bare precision
    code, out, err = run_cli(
        capsys, "compute", "subring-basis", "--type", "gl2",
        "--law", "universal:2", "--degree", "1",
    )
    assert code == 2 and out == ""
    assert err == (
        "error: universal law with 2 generators is not faithful at precision 5; "
        "need at least 4 (compute works at precision max(5, --degree) = 5)\n"
    )


def test_compute_invariants(capsys):
    code, out, _ = run_cli(
        capsys,
        "compute", "invariants", "--type", "gl3", "--law", "additive",
        "--degree", "1",
    )
    assert code == 0
    artifact = json.loads(out)
    assert artifact["rank"] == 2  # the constant and s1


def test_compute_invariants_a2_universal_degree_zero(capsys, monkeypatch):
    # an 81x82 system whose integer kernel once took minutes of entry growth
    systems = []

    kernel = cobcalc.linalg.kernel

    def recording(rows, ncols, over="Q"):
        basis = kernel(rows, ncols, over)
        systems.append((rows, ncols, over, basis))
        return basis

    monkeypatch.setattr(cobcalc.linalg, "kernel", recording)
    code, out, _ = run_cli(
        capsys,
        "compute", "invariants", "--type", "a2", "--law", "universal:4",
        "--degree", "0",
    )
    assert code == 0
    [(rows, ncols, over, basis)] = systems
    assert (len(rows), ncols, over) == (81, 82, "Z")
    assert json.loads(out)["rank"] == len(basis)
    for v in basis:
        for r in rows:
            assert sum(a * v.get(c, 0) for c, a in r.items()) == 0
    assert len(basis) == len(kernel(rows, ncols))
    assert is_saturated([[v.get(c, 0) for c in range(ncols)] for v in basis], ncols)


def test_gkm_verify_self_checks(capsys):
    code, out, _ = run_cli(
        capsys, "gkm", "verify", "--type", "gl3", "--law", "universal:4",
        "--degree", "5",
    )
    assert code == 0
    report = json.loads(out)
    assert report["graph"]["vertices"][0] == "e"
    assert report["pass"]


def test_gkm_verify_class_file(tmp_path, capsys):
    ctx = build_law("universal:4", 5)
    graph = flag_gkm(build_root_datum("gl2"), ctx)
    cls = line_bundle_class((1, 0), graph)
    path = str(tmp_path / "class.json")
    with open(path, "w") as fh:
        json.dump(cls.to_json(), fh)
    code, out, _ = run_cli(
        capsys, "gkm", "verify", "--type", "gl2", "--law", "universal:4",
        "--degree", "5", "--class-file", path,
    )
    assert code == 0 and json.loads(out)["pass"]

    # corrupt one entry: class no longer satisfies the congruence
    blob = cls.to_json()
    blob["e"]["terms"][0]["c"] = "7"
    with open(path, "w") as fh:
        json.dump(blob, fh)
    code, out, _ = run_cli(
        capsys, "gkm", "verify", "--type", "gl2", "--law", "universal:4",
        "--degree", "5", "--class-file", path,
    )
    assert code == 1
    assert not json.loads(out)["pass"]


_GL3_ZERO = '{"nvars": 3, "precision": 5, "terms": []}'
_GL2_ZERO = '{"nvars": 2, "precision": 5, "terms": []}'


def _gl2_class(precision=5, t=(1, 0), b=(), c="1"):
    """The same one-term series at both vertices of the gl2 graph."""
    series = {"nvars": 2, "precision": precision,
              "terms": [{"t": list(t), "b": list(b), "c": c}]}
    return json.dumps({"e": series, "1": series})


@pytest.mark.parametrize(
    "content",
    [
        None,
        "{}",
        '{"e": %s, "1": %s}' % (_GL3_ZERO, _GL3_ZERO),
        _gl2_class(precision="3"),
        _gl2_class(c="1/0"),
        _gl2_class(precision=-2),
        _gl2_class(t=(1, 0, 0)),
        _gl2_class(t=(-1, 2)),
        _gl2_class(t=(1.0, 0)),
        _gl2_class(b=(-1,)),
        _gl2_class(t=(3, 3)),
        _gl2_class(b=(1024,)),
        _gl2_class(b=(0,) * 1023 + (1,)),
        _gl2_class(precision=10**9),
    ],
    ids=["missing", "empty", "wrong-nvars", "text-precision", "zero-denominator",
         "negative-precision", "long-exponent", "negative-exponent",
         "float-exponent", "negative-b-exponent", "above-precision",
         "b-weight-past-packing", "b-index-past-packing", "precision-past-packing"],
)
def test_gkm_verify_bad_class_file(tmp_path, capsys, content):
    path = tmp_path / "class.json"
    if content is not None:
        path.write_text(content)
    code, out, err = run_cli(
        capsys, "gkm", "verify", "--type", "gl2", "--degree", "5",
        "--class-file", str(path),
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_class_file_heavy_b_weight_is_packed_wider(tmp_path, capsys):
    # b1^40 weighs more than the narrowest layout holds: the series is packed
    # in a wider one, not refused, and the class (constant) is a member
    code, out, err = _gkm_verify_gl2(tmp_path, capsys, _gl2_class(b=(40,)))
    assert code == 0, err
    assert json.loads(out)["checks"][0]["pass"]


def _gkm_verify_gl2(tmp_path, capsys, content):
    path = tmp_path / "class.json"
    path.write_text(content)
    return run_cli(
        capsys, "gkm", "verify", "--type", "gl2", "--degree", "5",
        "--class-file", str(path),
    )


def test_class_file_precision_above_degree_is_usage_error(tmp_path, capsys):
    # t1^7 at e and 0 at 1 violates the edge congruence in degree 7, which
    # a check through --degree 5 cannot see
    zero = '{"nvars": 2, "precision": 9, "terms": []}'
    series = ('{"nvars": 2, "precision": 9, '
              '"terms": [{"t": [7, 0], "b": [], "c": "1"}]}')
    code, out, err = _gkm_verify_gl2(
        tmp_path, capsys, '{"e": %s, "1": %s}' % (series, zero)
    )
    assert (code, out) == (2, "")
    path = tmp_path / "class.json"
    assert err == f"error: class file {str(path)!r} has precision 9 above --degree 5\n"
    # one series above the degree is enough
    code, out, err = _gkm_verify_gl2(
        tmp_path, capsys, '{"e": %s, "1": %s}' % (_GL2_ZERO, zero)
    )
    assert (code, out) == (2, "") and "precision 9 above --degree 5" in err


def test_class_file_precision_zero_is_usage_error(tmp_path, capsys):
    zero = '{"nvars": 2, "precision": 0, "terms": []}'
    path = tmp_path / "class.json"
    message = (f"error: class file {str(path)!r} has precision 0; "
               "membership needs precision >= 1\n")
    code, out, err = _gkm_verify_gl2(
        tmp_path, capsys, '{"e": %s, "1": %s}' % (zero, zero)
    )
    assert (code, out, err) == (2, "", message)
    # one series of precision 0 is enough
    code, out, err = _gkm_verify_gl2(
        tmp_path, capsys, '{"e": %s, "1": %s}' % (_GL2_ZERO, zero)
    )
    assert (code, out, err) == (2, "", message)
    # precision 1 is enough for the division
    one = _gl2_class(precision=1)
    code, out, _ = _gkm_verify_gl2(tmp_path, capsys, one)
    assert code == 0 and json.loads(out)["pass"]


@pytest.mark.parametrize("precision", [5, 3])
def test_class_file_precision_at_or_below_degree(tmp_path, capsys, precision):
    # t1^2 at e and 0 at 1 fails the congruence in degree 2; t1 at both passes
    failing = {"e": json.loads(_gl2_class(precision, t=(2, 0)))["e"],
               "1": json.loads(_GL2_ZERO)}
    code, out, _ = _gkm_verify_gl2(tmp_path, capsys, json.dumps(failing))
    assert code == 1
    (check,) = json.loads(out)["checks"]
    assert check["witness"] == {"edge": ["e", "1"], "chi": [1, -1], "degree": 2}
    code, out, _ = _gkm_verify_gl2(tmp_path, capsys, _gl2_class(precision))
    assert code == 0 and json.loads(out)["pass"]


def test_byte_identical_reruns(tmp_path, capsys):
    args = [
        "verify", "esph", "--case", "group:psl2", "--law", "universal:3",
        "--degree", "3", "--seed", "11",
    ]
    outs = []
    for path in ("a.json", "b.json"):
        full = str(tmp_path / path)
        code, out, _ = run_cli(capsys, *args, "--out", full)
        assert code == 0
        with open(full, "rb") as fh:
            outs.append(fh.read())
    assert outs[0] == outs[1]


def test_env_override(monkeypatch, capsys):
    monkeypatch.setenv("COBCALC_LAW", "universal:2")
    monkeypatch.setenv("COBCALC_DEGREE", "6")
    code, _, err = run_cli(capsys, "fgl", "check")
    assert code == 2  # the env-supplied combination is invalid
    monkeypatch.setenv("COBCALC_DEGREE", "3")
    code, out, _ = run_cli(capsys, "fgl", "check")
    assert code == 0
    assert json.loads(out)["config"]["law"] == "universal:2"


@pytest.mark.parametrize(
    "name,value,option",
    [
        ("COBCALC_DEGREE", "abc", "--degree"),
        ("COBCALC_SEED", "1.5", "--seed"),
        ("COBCALC_COUNT", "many", "--count"),
        ("COBCALC_COUNT", "0", "--count"),
        ("COBCALC_PROBE_DEGREE", "x", "--probe-degree"),
    ],
)
def test_env_bad_value_is_usage_error(monkeypatch, capsys, name, value, option):
    monkeypatch.setenv(name, value)
    code, out, err = run_cli(capsys, "fgl", "check", "--law", "additive")
    assert code == 2 and out == ""
    assert f"error: argument {option}: " in err


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(
        capsys, "fgl", "check", "--law", "additive", "--degree", "3",
        "--out", str(path),
    )
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write --out ") and err.count("\n") == 1
    assert not path.exists()


@pytest.mark.parametrize("command", ["schubert", "verify"])
def test_word_too_long_for_degree_is_usage_error(capsys, command):
    code, out, err = run_cli(
        capsys, command, "bott-samelson", "--type", "gl3", "--word", "1,2,1",
        "--law", "additive", "--degree", "3",
    )
    assert code == 2 and out == ""
    assert err == "error: word of length 3 needs precision >= 6\n"


def test_verify_bott_samelson_reports_a_skipped_seeded_word(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "bott-samelson", "--type", "gl3", "--law", "additive",
        "--degree", "4",
    )
    assert code == 0
    report = json.loads(out)
    names = [c["name"] for c in report["checks"]]
    assert "word_class_congruences" not in names
    assert report["skipped"]["checks"] == [
        "word_class_congruences", "edge_pair_constancy_after_step",
    ]
    assert report["skipped"]["reason"] == "the seeded word needs precision >= 5"
    code, out, _ = run_cli(
        capsys, "verify", "bott-samelson", "--type", "gl3", "--law", "additive",
        "--degree", "5",
    )
    report = json.loads(out)
    assert code == 0 and "skipped" not in report
    assert "word_class_congruences" in [c["name"] for c in report["checks"]]


def test_config_word_is_one_based(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "bott-samelson", "--type", "gl3", "--law", "additive",
        "--degree", "5", "--word", "1,2",
    )
    assert code == 0
    report = json.loads(out)
    assert report["config"]["word"] == [1, 2]
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["word_class_congruences"]["word"] == [1, 2]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "demazure", "--degree", "1"],
        ["verify", "gln", "--degree", "1"],
        ["verify", "tensor-iso", "--degree", "1"],
        ["verify", "gln", "--degree", "4", "--probe-degree", "6"],
        ["verify", "bott-samelson", "--type", "gl2", "--degree", "1"],
        ["verify", "bott-samelson", "--type", "gl3", "--degree", "2"],
        ["compute", "subring-basis", "--degree", "-1"],
        ["compute", "invariants", "--degree", "-1"],
    ],
    ids=["demazure", "gln", "tensor-iso", "gln-probe", "bott-samelson-gl2",
         "bott-samelson-gl3", "subring-basis", "invariants"],
)
def test_degree_too_small_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "--degree" in err and err.count("\n") == 1


def test_tensor_iso_honours_probe_degree_zero(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "tensor-iso", "--type", "gl2", "--law", "additive",
        "--degree", "2", "--probe-degree", "0",
    )
    assert code == 0
    probe = json.loads(out)["checks"][0]
    assert [d["degree"] for d in probe["degrees"]] == [0]


def test_probe_degree_below_minus_one_rejected(capsys, monkeypatch):
    argv = ("verify", "gln", "--type", "gl2", "--law", "additive", "--degree", "3")
    code, out, err = run_cli(capsys, *argv, "--probe-degree", "-2")
    assert code == 2 and out == ""
    assert err == "error: --probe-degree must be at least -1, got -2\n"
    monkeypatch.setenv("COBCALC_PROBE_DEGREE", "-2")
    assert run_cli(capsys, *argv) == (2, "", err)
    # -1, the default, picks the per-type probe
    code, out, _ = run_cli(capsys, *argv, "--probe-degree", "-1")
    assert code == 0 and json.loads(out)["pass"]


@pytest.mark.parametrize("count", ["0", "-3"])
def test_count_below_one_rejected(capsys, count):
    code, out, err = run_cli(
        capsys, "verify", "lemma-div", "--type", "gl2", "--law", "additive",
        "--degree", "3", "--count", count,
    )
    assert code == 2 and out == ""
    assert f"error: argument --count: must be at least 1, got {count}" in err


@pytest.mark.parametrize("argv", [
    ("verify", "lemma-div", "--type", "gl3", "--degree", "5"),
    ("fgl", "check", "--degree", "4"),
])
def test_multiplicative_zero_scale_is_usage_error(capsys, argv):
    # scale 0 would make the law additive with a zero coefficient value
    code, out, err = run_cli(capsys, *argv, "--law", "multiplicative:0")
    assert code == 2 and out == ""
    assert err == (
        "error: multiplicative law needs a nonzero scale; multiplicative:0 "
        "is the additive law\n"
    )
    for make in (lambda: LawSpec.multiplicative(0),
                 lambda: LawSpec.parse("multiplicative:0")):
        with pytest.raises(ConfigError):
            make()
    assert LawSpec.parse("multiplicative:-2").scale == -2


def test_negative_generator_count_is_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "fgl", "check", "--law", "universal:-1", "--degree", "2"
    )
    assert code == 2 and out == ""
    assert err == "error: universal law needs a generator count >= 0, got -1\n"


def test_bad_word_rejected(capsys):
    code, _, _ = run_cli(
        capsys, "schubert", "bott-samelson", "--type", "gl2", "--word", "x,y"
    )
    assert code == 2
    # letters are 1-based, and the message names the letter as typed
    for argv, letter in (
        (["schubert", "bott-samelson"], 3),
        (["schubert", "bott-samelson"], 0),
        (["verify", "bott-samelson"], 3),
    ):
        code, out, err = run_cli(
            capsys, *argv, "--type", "gl3", "--word", f"1,{letter}"
        )
        assert code == 2 and out == ""
        assert err == f"error: word letter {letter} is not in 1..2 for gl3\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "lemma-div", "--threads", "2"],
        ["fgl", "check", "--cache-dir", "cache"],
        ["gkm", "basis", "--type", "gl2", "--degree", "2"],
        ["symmetric", "verify", "--case", "group:psl2"],
        ["compute", "bott-samelson", "--type", "gl2", "--word", "1"],
        ["fgl", "check", "--law", "additive", "--rational"],
    ],
    ids=["threads", "cache-dir", "gkm-basis", "symmetric-verify",
         "compute-bott-samelson", "rational"],
)
def test_removed_options_rejected(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 2 and out == ""


def test_no_assert_statements_in_package():
    # internal invariants raise InternalConsistencyError: an assert would
    # vanish under python -O
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(cobcalc.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_private_attribute_access_across_objects():
    # a module reads only its own objects' _names: x._name is flagged unless
    # x is self or cls; dunder names are exempt
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(cobcalc.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not (node.attr.startswith("__") and node.attr.endswith("__"))
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    ]
    assert found == []


def test_no_private_names_imported_across_modules():
    # a module imports only public names from the others: from .x import _y
    # is flagged; dunder names are exempt
    found = [
        f"{path.name}:{node.lineno}:{alias.name}"
        for path in sorted(Path(cobcalc.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "cobcalc")
        for alias in node.names
        if alias.name.startswith("_")
        and not (alias.name.startswith("__") and alias.name.endswith("__"))
    ]
    assert found == []


def test_only_the_series_module_reads_packed_keys():
    # the key layout is private to cobcalc.series: every other module, and
    # every test, goes through the tuple view or the opaque coords labels
    packed = {"packed", "packed_in", "packed_sorted", "layout"}
    package = Path(cobcalc.__file__).parent
    paths = [p for p in package.glob("*.py") if p.name != "series.py"]
    paths += Path(__file__).parent.glob("*.py")
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(paths)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in packed
    ]
    assert found == []
