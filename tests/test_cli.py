import json

import pytest

from quiverkit.cli import fixture_path, main
from quiverkit.corpus import PUBLIC_OPS, covered_ops


def _fixture(name):
    return str(fixture_path(name))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_text(capsys):
    code, out, _ = run(capsys, "build", _fixture("d4_clustertilted.q"))
    assert code == 0
    assert "dimension 10" in out


def test_build_json_schema(capsys):
    code, out, _ = run(capsys, "--format", "json", "build",
                       _fixture("d4_clustertilted.q"))
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["dimension"] == 10


def test_build_json_deterministic(capsys):
    _, out1, _ = run(capsys, "--format", "json", "build", _fixture("d4_tilted.q"))
    _, out2, _ = run(capsys, "--format", "json", "build", _fixture("d4_tilted.q"))
    assert out1 == out2


def test_build_single_vertex(capsys, tmp_path):
    p = tmp_path / "one.quiver"
    p.write_text("field: rational\nvertices: 1\n")
    code, out, _ = run(capsys, "build", str(p))
    assert code == 0 and "dimension 1" in out


def test_field_override(capsys, tmp_path):
    code, out, _ = run(capsys, "--field", "rational", "--format", "json",
                       "build", _fixture("d4_clustertilted.q"))
    assert code == 0 and json.loads(out)["dimension"] == 10
    # the override replaces the field line in every spelling the parser
    # reads: 7*a*b is a zero coefficient in gf(7) but kills a*b over Q
    body = "vertices: 1 2 3\narrows: a: 1 -> 2, b: 2 -> 3\nrelations: 7*a*b\n"
    for spelling in ["field: gf(7)", "field : gf(7)", "FIELD: gf(7)",
                     "  Field :gf(7)  # prime"]:
        p = tmp_path / "f.q"
        p.write_text(spelling + "\n" + body)
        code, out, err = run(capsys, "build", str(p))
        assert code == 1 and err.startswith("error:") and "zero in gf(7)" in err
        code, out, err = run(capsys, "--field", "rational", "--format", "json",
                             "build", str(p))
        assert (code, err) == (0, "") and json.loads(out)["dimension"] == 5
        p.write_text(spelling.replace("gf(7)", "rational") + "\n" + body)
        code, out, err = run(capsys, "--field", "gf:7", "build", str(p))
        assert code == 1 and err.startswith("error:") and "zero in gf(7)" in err


def test_quiver_dot(capsys):
    code, out, _ = run(capsys, "--format", "dot", "quiver",
                       _fixture("d4_clustertilted.q"))
    assert code == 0
    assert out.count("->") == 5


def test_mutate_then_acyclic(capsys):
    code, out, _ = run(capsys, "mutate", _fixture("a31_clustertilted.q"), "3", "4")
    assert code == 0
    assert "acyclic: True" in out
    code, out, _ = run(capsys, "is-acyclic", _fixture("a31_clustertilted.q"))
    assert code == 0 and out.strip() == "false"


def test_search_acyclic(capsys):
    code, out, _ = run(capsys, "--format", "json", "--depth", "8",
                       "search-acyclic", _fixture("a31_clustertilted.q"))
    data = json.loads(out)
    assert code == 0 and data["sequence"] is not None


def test_search_acyclic_negative_depth_is_a_domain_error(capsys):
    code, out, err = run(capsys, "--depth", "-1", "search-acyclic",
                         _fixture("a31_clustertilted.q"))
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "depth" in err and "within" not in err


def test_cap_help_names_only_the_knit(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    cap_help = text[text.rindex("--cap CAP"):text.rindex("--depth DEPTH")]
    assert "node cap" in cap_help and "knit" in cap_help
    assert "resolution" not in text


def test_ext_verb(capsys):
    code, out, _ = run(capsys, "ext", _fixture("d4_tilted.q"),
                       "S(1)", "S(4)", "2")
    assert code == 0 and out.strip() == "1"


def test_tau_verb(capsys):
    code, out, _ = run(capsys, "tau", _fixture("d4_clustertilted.q"), "S(2)")
    assert code == 0
    assert "[0, 0, 1, 1]" in out


def test_relext_verb(capsys):
    code, out, _ = run(capsys, "--format", "json", "relext",
                       _fixture("d4_tilted.q"))
    assert code == 0 and json.loads(out)["dimension"] == 10


def test_opext_and_delete(capsys):
    code, out, _ = run(capsys, "--format", "json", "opext",
                       _fixture("d4_clustertilted.q"), "P(1)+P(2)+P(3)")
    assert code == 0 and json.loads(out)["dimension"] == 19
    code, out, _ = run(capsys, "--format", "json", "delete-vertex",
                       _fixture("d5_clustertilted.q"), "5")
    assert code == 0 and json.loads(out)["dimension"] == 10


def test_knit_verb(capsys):
    code, out, _ = run(capsys, "--format", "json", "knit",
                       _fixture("d4_clustertilted.q"))
    data = json.loads(out)
    assert code == 0 and len(data["nodes"]) == 12 and data["complete"]


def test_check_local_slice_verb(capsys):
    code, out, _ = run(capsys, "check-local-slice", _fixture("d4_clustertilted.q"),
                       "--slice", "1/2 3/4,2/4,3/4,2 3/4")
    assert code == 0 and out.strip() == "holds"
    code, out, _ = run(capsys, "check-slice", _fixture("d4_clustertilted.q"),
                       "--slice", "1/2 3/4,2/4,3/4,2 3/4,1")
    assert code == 0 and "violated" in out


def test_check_left_section_verb(capsys):
    code, out, _ = run(capsys, "check-left-section", _fixture("d4_tilted.q"),
                       "--slice", "1/2 3/4,2/4,3/4,2 3/4")
    assert code == 0 and out.strip() == "holds"


def test_check_commute_verb(capsys):
    code, out, _ = run(capsys, "--format", "json", "check-commute",
                       _fixture("d4_tilted.q"), "P(1)+P(2)+P(3)")
    data = json.loads(out)
    assert code == 0 and data["verdict"] == "consistent with isomorphism"


def test_extend_verb(capsys):
    code, out, _ = run(capsys, "--format", "json", "extend",
                       _fixture("d4_clustertilted.q"), "S(2)")
    data = json.loads(out)
    assert code == 0
    assert data["algebra"]["dimension"] == 15
    assert data["report"]["local_slice_passes"] is True


def test_extend_cap_reaches_second_knit(capsys):
    # B' has 20 indecomposables, so a 12-node cap leaves its knit open
    code, out, _ = run(capsys, "--cap", "12", "--format", "json", "extend",
                       _fixture("d4_clustertilted.q"), "S(2)")
    data = json.loads(out)
    assert code == 0
    assert data["report"]["local_slice_passes"] is None


def test_extend_module_off_every_slice_is_a_domain_error(capsys, tmp_path):
    p = tmp_path / "zero.json"
    p.write_text('{"dims": {}, "actions": {}}')
    zero = "error: the module is zero: there is nothing to extend by\n"
    for cap, module, slice_args, want in [
            ("60", f"@{p}", (), zero),
            ("60", f"@{p}", ("--slice", "1/2 3/4,1/2,1/3,1/2 3"), zero),
            # a 4-node knit of B stops before I(3)
            ("4", "P(1)+I(3)", (), "error: a summand of the module is not a fragment node\n")]:
        code, out, err = run(capsys, "--cap", cap, "extend", _fixture("d4_clustertilted.q"),
                             module, *slice_args)
        assert (code, out, err) == (1, "", want)


def test_find_local_slices_verb(capsys):
    code, out, _ = run(capsys, "find-local-slices",
                       _fixture("d4_clustertilted.q"), "P(1)")
    assert code == 0 and out.strip() != "none"


def test_domain_error_exit_one(capsys, tmp_path):
    p = tmp_path / "bad.q"
    p.write_text("field: rational\nvertices: 1\narrows: a: 1 -> 9\n")
    code, out, err = run(capsys, "build", str(p))
    assert code == 1
    assert err.startswith("error:")
    code, out, err = run(capsys, "build", str(tmp_path / "missing.q"))
    assert code == 1 and err.startswith("error:")


def test_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-verb"])
    assert exc.value.code == 2


def test_corpus_passes_and_covers_public_ops(capsys):
    code, out, _ = run(capsys, "corpus")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert lines[-1].endswith("checks passed")
    assert "FAIL" not in out
    assert covered_ops() >= PUBLIC_OPS


def test_module_json_file_argument(capsys, tmp_path):
    import quiverkit
    from quiverkit.corpus import load_fixture
    from quiverkit.repmod import module_to_json, projective
    from quiverkit.algebra import build_algebra
    B = build_algebra(load_fixture("d4_clustertilted.q"))
    mpath = tmp_path / "p2.json"
    mpath.write_text(json.dumps(module_to_json(projective(B, "2"))))
    code, out, _ = run(capsys, "tau", _fixture("d4_clustertilted.q"),
                       "@" + str(mpath))
    assert code == 0 and "[0, 0, 0, 0]" in out  # translate of a projective


@pytest.mark.parametrize("data", [
    {"dims": {"1": 1, "2": 1}, "actions": {"A": [["1"]]}},
    {"dims": {"1": 1, "2": 1, "9": 1}, "actions": {"a": [["1"]]}},
    {"dims": {"1": 1, "2": 1}, "actions": {"a": [["1"]]}, "lable": "M"},
    {"dims": {"1": 1, "2": 1}},
    [{"1": 1, "2": 1}, {"a": [["1"]]}],
    {"dims": {"1": 1.5}, "actions": {}},
    {"dims": {"1": "one"}, "actions": {}},
    {"dims": {"1": -1}, "actions": {}},
    {"dims": {"1": 1, "2": 1}, "actions": {"a": [["x"]]}},
    {"dims": {"1": 1, "2": 1}, "actions": {"a": [["1"], ["1"]]}},
    {"dims": {"1": 1, "2": 1}, "actions": {"a": ["1"]}},
], ids=["unknown-arrow", "unknown-vertex", "unknown-key", "no-actions", "not-an-object",
        "fractional-dim", "string-dim", "negative-dim", "bad-scalar", "wrong-shape",
        "not-rows"])
def test_malformed_module_json_is_a_domain_error(capsys, tmp_path, data):
    # the same module with its keys right is S(1) + S(2) glued by the arrow a
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"dims": {"1": 1, "2": 1}, "actions": {"a": [["1"]]}}))
    assert run(capsys, "tau", _fixture("d4_clustertilted.q"), "@" + str(good))[0] == 0
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "tau", _fixture("d4_clustertilted.q"), "@" + str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_decomposition_error_is_a_domain_error(capsys, tmp_path):
    # P(1)+P(1) over k[x]/(x^3) lies on no local slice: the extension stops
    # with an ARQuiverError before any decomposition can fail
    p = tmp_path / "loop.q"
    p.write_text("field: gf(3)\nvertices: 1\narrows: x: 1 -> 1\nrelations: x*x*x\n")
    code, out, err = run(capsys, "extend", str(p), "P(1)+P(1)")
    assert code == 1
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    # over GF(3) the knit of this B' meets a module whose indecomposability
    # neither a Fitting split, a simple top nor the trace form decides
    code, out, err = run(capsys, "--field", "gf:3", "extend", _fixture("d4_clustertilted.q"),
                         "P(1)+I(2)+I(3)", "--slice", "1/2 3/4,1/2,1/3,1/2 3")
    assert code == 1
    assert err.startswith("error: could not certify indecomposability")
    assert len(err.strip().splitlines()) == 1


def test_knit_names_the_tripped_cap(capsys):
    code, out, _ = run(capsys, "--cap", "8", "knit", _fixture("a31_clustertilted.q"))
    assert code == 0 and out.splitlines()[0] == "8 nodes, complete=False (node_cap)"
    code, out, _ = run(capsys, "--cap", "8", "--format", "json", "knit",
                       _fixture("a31_clustertilted.q"))
    assert code == 0 and json.loads(out)["incomplete_reason"] == "node_cap"
