"""End-to-end runs of the command-line front end."""

import json
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from conftest import CHSH_CONTEXTS, PATH1_CONTEXTS, PATH2_CONTEXTS, \
    PR_BOX_TABLE, standard
from ctxlib import sset
from ctxlib.cli import main
from ctxlib.dist import rat
from ctxlib.rand import make_rng, rand_dist
from ctxlib.sset import (mapping_simplicial, nerve_bundle, sections,
                         theta_simplicial)
from ctxlib.bundles import BundleScenario
from ctxlib.complexes import SimplicialComplex
from ctxlib.events import StandardScenario, elements, event_presheaf


GOLDEN = Path(__file__).parent / "golden"


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


@pytest.fixture()
def path1(tmp_path):
    return write(tmp_path, "path1.json", standard(PATH1_CONTEXTS).to_json())


@pytest.fixture()
def path2(tmp_path):
    return write(tmp_path, "path2.json", standard(PATH2_CONTEXTS).to_json())


@pytest.fixture()
def chsh(tmp_path):
    return write(tmp_path, "chsh.json", standard(CHSH_CONTEXTS).to_json())


@pytest.fixture()
def pr_model(tmp_path):
    return write(tmp_path, "pr.json",
                 {"kind": "model", "distributions": PR_BOX_TABLE})


PATH_MODEL = {"kind": "model", "distributions": {
    "a1,b1": {"0,0": "1/2", "1,1": "1/2"},
    "b1,c1": {"0,0": "1/4", "0,1": "1/4", "1,0": "1/4", "1,1": "1/4"}}}


class TestValidateAndConvert:
    def test_validate_standard(self, capsys, path1):
        code, report = run(capsys, ["validate", path1])
        assert code == 0 and report["ok"]

    def test_validate_model(self, capsys, tmp_path, path1):
        model = write(tmp_path, "m.json", PATH_MODEL)
        code, report = run(capsys, ["validate", model,
                                    "--scenario", path1])
        assert code == 0 and report["ok"]

    def test_validate_bad_file(self, capsys, tmp_path):
        bad = write(tmp_path, "bad.json", {"kind": "nonsense"})
        assert main(["validate", bad]) == 1
        capsys.readouterr()

    def test_standard_vertex_name_with_comma_is_invalid_input(
            self, capsys, tmp_path):
        """A name "a,b" would be split in every key that holds it, so it is
        rejected at input rather than in what convert writes."""
        bad = write(tmp_path, "bad.json", {
            "kind": "standard", "contexts": [["a,b", "c"]],
            "outcomes": {"a,b": ["0", "1"], "c": ["0", "1"]}})
        assert main(["validate", bad]) == 1
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert captured.out == "" and len(lines) == 1
        assert json.loads(lines[0])["error"] == "invalid-input"

    def test_convert_to_bundle_then_validate(self, capsys, tmp_path, path1):
        out = str(tmp_path / "bundle.json")
        assert main(["convert", path1, "--to", "bundle", "-o", out]) == 0
        capsys.readouterr()
        code, report = run(capsys, ["validate", out])
        assert code == 0 and report["ok"]

    def test_convert_witness_names_outcomes(self, capsys, path1):
        code, out = run(capsys, ["convert", path1, "--to", "bundle",
                                 "--witness"])
        assert code == 0
        names = out["witness"]["outcome-names"]["a1,b1"]
        assert names["0,1"] == "(a1|0),(b1|1)"


class TestSectionsAndTensor:
    def test_tensor_then_sections(self, capsys, tmp_path, path1, path2):
        out = str(tmp_path / "tensor.json")
        assert main(["tensor", path1, path2, "-o", out]) == 0
        capsys.readouterr()
        code, res = run(capsys, ["sections", out])
        assert code == 0 and res["count"] == 64

    def test_sections_cap_exhausted(self, capsys, chsh):
        assert main(["sections", chsh, "--cap", "2"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "resource-limit"
        assert err["stage"] == "global_sections"
        assert err["cap"] == 2 and err["estimate"] > 2

    @pytest.mark.parametrize("verb", ["sections", "check", "map"])
    def test_negative_cap_is_invalid_input(self, capsys, tmp_path, chsh,
                                           pr_model, verb):
        """A negative --cap is bad input (exit 1), not a cap that every
        enumeration exceeds (exit 3); --cap 0 is still a cap."""
        f = write(tmp_path, "f.json", standard([["a"]]).to_json())
        g = write(tmp_path, "g.json", standard([["u", "v"]]).to_json())
        argv = {"sections": ["sections", chsh],
                "check": ["check", "--scenario", chsh, "--model", pr_model],
                "map": ["map", "--kind", "event", f, g]}[verb]
        assert main(argv + ["--cap", "-1"]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "invalid-input" and "--cap" in err["detail"]
        assert main(argv + ["--cap", "0"]) == 3

    @pytest.mark.parametrize("mutate", [
        lambda s: s.update({"sets": sorted(s["sets"].items())}),
        lambda s: s["sets"].update({"a1": "01"}),
        lambda s: s.update({"restrictions": list(s["restrictions"])}),
        lambda s: s["restrictions"].update({"a1,b1": {"0,0": "0"}}),
    ], ids=["sets-list", "outcomes-string", "restrictions-list",
            "restriction-key-without-face"])
    def test_malformed_event_scenario_is_invalid_input(self, capsys,
                                                       tmp_path, path_scn,
                                                       mutate):
        scn = path_scn.to_json()
        mutate(scn)
        bad = write(tmp_path, "bad.json", scn)
        assert main(["sections", bad]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "invalid-input"

    def test_non_string_vertex_name_is_invalid_input(self, capsys,
                                                    tmp_path):
        bad = write(tmp_path, "bad.json", {"maximal": [[5, "a"]]})
        assert main(["validate", bad]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "invalid-input"

    @pytest.mark.parametrize("maximal", [[5], [[["x"], "a"]], ["ab"]],
                             ids=["simplex-number", "name-list",
                                  "simplex-string"])
    def test_malformed_maximal_simplex_is_invalid_input(self, capsys,
                                                        tmp_path, maximal):
        bad = write(tmp_path, "bad.json", {"maximal": maximal})
        assert main(["validate", bad]) == 1
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert captured.out == "" and len(lines) == 1
        assert json.loads(lines[0])["error"] == "invalid-input"

    def test_repeated_outcome_rejected(self, capsys, tmp_path):
        g = write(tmp_path, "g.json", {
            "kind": "event", "complex": {"maximal": [["u"]]},
            "sets": {"u": ["0", "0"]}, "restrictions": {}})
        code, out = run(capsys, ["validate", g])
        assert code == 1 and out["failures"] == [
            {"axiom": "distinct-outcomes", "simplex": "u"}]
        f = write(tmp_path, "f.json", standard([["a"]]).to_json())
        assert main(["map", "--kind", "event", f, g]) == 1
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert captured.out == "" and len(lines) == 1
        assert json.loads(lines[0])["error"] == "invalid-input"

    def test_sets_key_outside_the_base_is_invalid_input(self, capsys,
                                                         tmp_path):
        """A sets key naming no simplex of the complex was dropped, and the
        scenario validated."""
        bad = write(tmp_path, "bad.json", {
            "kind": "event", "complex": {"maximal": [["u"]]},
            "sets": {"u": ["0", "1"], "zz": ["5"]}, "restrictions": {}})
        assert main(["validate", bad]) == 1
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert captured.out == "" and len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "invalid-input" and "'zz'" in error["detail"]

    def test_vertex_name_with_restriction_separator(self, capsys, tmp_path):
        scn = event_presheaf(standard([["a>b", "c"]]))
        path = write(tmp_path, "scn.json", scn.to_json())
        code, out = run(capsys, ["sections", path])
        assert code == 0 and out["count"] == 4
        assert out["sections"][0] == "a>b=0;c=0"

    def test_output_is_deterministic(self, capsys, path1, path2):
        _, first = run(capsys, ["tensor", path1, path2])
        code = main(["tensor", path1, path2])
        second = capsys.readouterr().out
        assert code == 0 and json.loads(second) == first


class TestNerve:
    def test_nerve_complex(self, capsys, tmp_path):
        cpx = write(tmp_path, "cpx.json",
                    SimplicialComplex([{"a", "b"}]).to_json())
        code, out = run(capsys, ["nerve-complex", cpx])
        assert code == 0
        assert sorted(out["vertices"]) == ["[a,b]", "[a]", "[b]"]

    def test_nerve_of_bundle(self, capsys, tmp_path, path1):
        bpath = str(tmp_path / "bundle.json")
        main(["convert", path1, "--to", "bundle", "-o", bpath])
        capsys.readouterr()
        code, out = run(capsys, ["nerve", bpath])
        assert code == 0 and out["kind"] == "sset-map" and out["d"] == 2
        assert set(out["components"]) == {"0", "1", "2"}


    def test_nerve_matches_golden_output(self, capsys, tmp_path):
        """The maximals of the total space share v0, so the tuples that
        several maximals give are pinned once each, byte for byte."""
        bundle = BundleScenario(
            SimplicialComplex([{"u0", "v0"}, {"u1", "v0"}, {"v0", "w0"}]),
            SimplicialComplex([{"u", "v"}, {"v", "w"}]),
            {"u0": "u", "u1": "u", "v0": "v", "w0": "w"})
        bpath = write(tmp_path, "bundle.json", bundle.to_json())
        assert main(["nerve", bpath, "--truncate", "2"]) == 0
        golden = GOLDEN / "nerve_path_d2.json"
        assert capsys.readouterr().out == golden.read_text()

    def test_semicolon_vertex_name_is_invalid_input(self, capsys, tmp_path):
        """x;y and y;z would give ({x}, {y;z}) and ({x;y}, {z}) one nerve
        tuple id, so one of the two would be lost."""
        simplex = [["x", "y;z", "x;y", "z"]]
        bpath = write(tmp_path, "bundle.json", {
            "kind": "bundle", "total": {"maximal": simplex},
            "base": {"maximal": simplex},
            "map": {v: v for v in simplex[0]}})
        assert main(["nerve", bpath, "--truncate", "2"]) == 1
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert captured.out == "" and len(lines) == 1
        assert json.loads(lines[0])["error"] == "invalid-input"

    @pytest.mark.parametrize("argv", [
        ["nerve", "B"], ["nerve", "B", "--truncate", "1"],
        ["map", "--kind", "simplicial", "B", "B"],
        ["map", "--kind", "simplicial", "B", "B", "--truncate", "1"]])
    def test_empty_bundle_is_invalid_input(self, capsys, tmp_path, argv):
        empty = write(tmp_path, "empty.json", {
            "kind": "bundle", "base": {"maximal": []},
            "total": {"maximal": []}, "map": {}})
        assert main([empty if a == "B" else a for a in argv]) == 1
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert captured.out == "" and len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "invalid-input"
        assert "nonempty base" in error["detail"]

    @pytest.mark.parametrize("vmap", [[["a", "u"]], {"a": ["u"]}],
                             ids=["map-list", "map-value-list"])
    def test_malformed_bundle_is_invalid_input(self, capsys, tmp_path,
                                               vmap):
        bundle = BundleScenario(SimplicialComplex([{"a"}]),
                                SimplicialComplex([{"u"}]),
                                {"a": "u"}).to_json()
        bundle["map"] = vmap
        bad = write(tmp_path, "bad.json", bundle)
        assert main(["nerve", bad]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "invalid-input"


class TestMap:
    def test_event_kind_counts(self, capsys, tmp_path):
        f = write(tmp_path, "f.json", standard([["a"]]).to_json())
        g = write(tmp_path, "g.json", standard([["u", "v"]]).to_json())
        code, out = run(capsys, ["map", "--kind", "event", f, g])
        assert code == 0
        sizes = {k: len(v) for k, v in out["sets"].items()}
        assert sizes == {"u": 4, "v": 4, "u,v": 16}

    def test_event_kind_matches_golden_output(self, capsys, tmp_path):
        f = write(tmp_path, "f.json", standard([["a"]]).to_json())
        g = write(tmp_path, "g.json", standard([["u", "v"]]).to_json())
        assert main(["map", "--kind", "event", f, g]) == 0
        golden = GOLDEN / "map_event_point_edge.json"
        assert capsys.readouterr().out == golden.read_text()

    def test_event_kind_rejects_nonlocal_target(self, capsys, tmp_path):
        """Two outcomes p, q of the edge restrict to (0, 0): G is not local,
        and [F, G] is only defined for valid event scenarios."""
        f = write(tmp_path, "f.json", standard([["a"]]).to_json())
        g = write(tmp_path, "g.json", {
            "kind": "event", "complex": {"maximal": [["u", "v"]]},
            "sets": {"u": ["0", "1"], "v": ["0", "1"],
                     "u,v": ["p", "q", "r"]},
            "restrictions": {"u,v>u": {"p": "0", "q": "0", "r": "1"},
                             "u,v>v": {"p": "0", "q": "0", "r": "1"}}})
        assert main(["map", "--kind", "event", f, g]) == 1
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert captured.out == "" and len(lines) == 1
        assert json.loads(lines[0])["error"] == "invalid-input"

    def test_event_kind_rejects_shared_outcome_id(self, capsys, tmp_path):
        """Outcomes of G holding ; and > make two maps p,q -> G(y) print as
        one id, which [F, G] would list twice."""
        f = write(tmp_path, "f.json", {
            "kind": "standard", "contexts": [["a"]],
            "outcomes": {"a": ["p", "q"]}})
        g = write(tmp_path, "g.json", {
            "kind": "standard", "contexts": [["y"]],
            "outcomes": {"y": ["0", "0;q>1", "1;q>0"]}})
        assert main(["map", "--kind", "event", f, g]) == 1
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert captured.out == "" and len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "invalid-input"
        assert "(pi:y>[a]|al:p>0;q>1;q>0)" in error["detail"]

    def test_simplicial_kind_matches_golden_output(self, capsys, tmp_path):
        """The m<n>.<k> ids are what `ctx decompose` reads, so their
        numbering is pinned byte for byte."""
        point = BundleScenario(SimplicialComplex([{"a1"}]),
                               SimplicialComplex([{"u"}]), {"a1": "u"})
        edge = BundleScenario(
            SimplicialComplex([{"v0", "w0"}, {"v1", "w1"}]),
            SimplicialComplex([{"v", "w"}]),
            {"v0": "v", "v1": "v", "w0": "w", "w1": "w"})
        f = write(tmp_path, "f.json", point.to_json())
        g = write(tmp_path, "g.json", edge.to_json())
        assert main(["map", "--kind", "simplicial", f, g,
                     "--truncate", "2"]) == 0
        golden = GOLDEN / "map_simplicial_point_edge.json"
        assert capsys.readouterr().out == golden.read_text()

    def test_bundle_kind_matches_golden_output(self, capsys, tmp_path):
        points = BundleScenario(SimplicialComplex([{"a1"}, {"a2"}]),
                                SimplicialComplex([{"u"}]),
                                {"a1": "u", "a2": "u"})
        edge = BundleScenario(
            SimplicialComplex([{"v0", "w0"}, {"v1", "w1"}]),
            SimplicialComplex([{"v", "w"}]),
            {"v0": "v", "v1": "v", "w0": "w", "w1": "w"})
        f = write(tmp_path, "f.json", points.to_json())
        g = write(tmp_path, "g.json", edge.to_json())
        assert main(["map", "--kind", "bundle", f, g]) == 0
        golden = GOLDEN / "map_bundle_two_points_edge.json"
        assert capsys.readouterr().out == golden.read_text()


def bell_3x3x2_payloads(tmp_path):
    """The 3x3x2 Bell scenario and two models on it, built without ctxlib:
    a PR-type model, correlated on every context but a0,b0, and a mixture
    that is uniform over the 64 vertex assignments with 1/6 more on four."""
    contexts = [["a%d" % i, "b%d" % j] for i in range(3) for j in range(3)]
    verts = ["a0", "a1", "a2", "b0", "b1", "b2"]
    scenario = {"kind": "standard", "contexts": contexts,
                "outcomes": {x: ["0", "1"] for x in verts}}
    pr = {"%s,%s" % (a, b): {"0,1": "1/2", "1,0": "1/2"} if (a, b) == (
        "a0", "b0") else {"0,0": "1/2", "1,1": "1/2"} for a, b in contexts}
    weights = [Fraction(1, 192)] * 64
    for k in (3, 17, 40, 61):
        weights[k] += Fraction(1, 6)
    mix = {}
    for w, values in zip(weights, product("01", repeat=6)):
        at = dict(zip(verts, values))
        for a, b in contexts:
            table = mix.setdefault("%s,%s" % (a, b), {})
            o = "%s,%s" % (at[a], at[b])
            table[o] = table.get(o, 0) + w
    mix = {c: {o: str(w) for o, w in t.items()} for c, t in mix.items()}
    return (write(tmp_path, "bell.json", scenario),
            write(tmp_path, "pr.json", {"kind": "model", "distributions": pr}),
            write(tmp_path, "mix.json", {"kind": "model",
                                         "distributions": mix}))


def bell_3x3x3_payloads(tmp_path):
    """The 3x3x3 Bell scenario and two models on it, built without ctxlib:
    a PR-type model, correlated mod 3 on every context and shifted by one
    at a0,b0, and the uniform model."""
    contexts = [["a%d" % i, "b%d" % j] for i in range(3) for j in range(3)]
    scenario = {"kind": "standard", "contexts": contexts,
                "outcomes": {x: ["0", "1", "2"] for c in contexts for x in c}}
    pr = {"%s,%s" % (a, b): {"%d,%d" % (x, (x + ((a, b) == ("a0", "b0")))
                                         % 3): "1/3" for x in range(3)}
          for a, b in contexts}
    uniform = {"%s,%s" % (a, b): {"%s,%s" % o: "1/9"
                                  for o in product("012", repeat=2)}
               for a, b in contexts}
    return (write(tmp_path, "bell.json", scenario),
            write(tmp_path, "pr.json", {"kind": "model", "distributions": pr}),
            write(tmp_path, "uniform.json", {"kind": "model",
                                             "distributions": uniform}))


class TestCheckAndVerify:
    @pytest.mark.parametrize("payloads, model, code, golden", [
        (bell_3x3x2_payloads, 1, 2, "check_pr_3x3x2.json"),
        (bell_3x3x2_payloads, 2, 0, "check_mix_3x3x2.json"),
        (bell_3x3x3_payloads, 1, 2, "check_pr_3x3x3.json"),
        (bell_3x3x3_payloads, 2, 0, "check_uniform_3x3x3.json")],
        ids=["pr-certificate", "mixture-witness", "pr-certificate-3",
             "uniform-witness-3"])
    def test_check_matches_golden_output(self, capsys, tmp_path, payloads,
                                         model, code, golden):
        """The certificate and the witness pin the simplex's pivot path;
        with 3 outcomes the pivots are not all 1."""
        paths = payloads(tmp_path)
        assert main(["check", "--scenario", paths[0],
                     "--model", paths[model]]) == code
        assert capsys.readouterr().out == (GOLDEN / golden).read_text()

    def test_model_without_scenario_is_invalid_input(self, capsys,
                                                     pr_model):
        assert main(["validate", pr_model]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "invalid-input"

    def test_pr_box_contextual(self, capsys, tmp_path, chsh, pr_model):
        vpath = str(tmp_path / "verdict.json")
        code = main(["check", "--scenario", chsh, "--model", pr_model,
                     "-o", vpath])
        capsys.readouterr()
        assert code == 2
        verdict = json.loads(open(vpath).read())
        assert verdict["verdict"] == "contextual"
        assert main(["verify-certificate", vpath, "--scenario", chsh,
                     "--model", pr_model]) == 0
        capsys.readouterr()

    def test_tampered_certificate_rejected(self, capsys, tmp_path, chsh,
                                           pr_model):
        vpath = str(tmp_path / "verdict.json")
        main(["check", "--scenario", chsh, "--model", pr_model, "-o", vpath])
        capsys.readouterr()
        verdict = json.loads(open(vpath).read())
        verdict["certificate"]["y"] = [
            str(-rat(v)) for v in verdict["certificate"]["y"]]
        tampered = write(tmp_path, "tampered.json", verdict)
        assert main(["verify-certificate", tampered, "--scenario", chsh,
                     "--model", pr_model]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("mutate", [
        lambda m: m["distributions"]["x1,y1"].update({"0,0": "abc"}),
        lambda m: m["distributions"]["x1,y1"].update({"0,0": "1/0"}),
        lambda m: m.update(
            {"distributions": sorted(m["distributions"].items())}),
        lambda m: m["distributions"].update({"x1": {"0": "1"}}),
        lambda m: m["distributions"].update({"x1,x2": {"0,0": "1"}}),
        lambda m: m["distributions"].update({"q": {"0": "1"}}),
        lambda m: m["distributions"].update(
            {"y1,x1": m["distributions"]["x1,y1"]}),
    ], ids=["weight-abc", "weight-1-over-0", "distributions-list",
            "face-key", "non-simplex-key", "unknown-vertex-key",
            "duplicate-key"])
    def test_malformed_model_is_invalid_input(self, capsys, tmp_path, chsh,
                                              mutate):
        model = json.loads(json.dumps(
            {"kind": "model", "distributions": PR_BOX_TABLE}))
        mutate(model)
        bad = write(tmp_path, "bad.json", model)
        assert main(["check", "--scenario", chsh, "--model", bad]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "invalid-input"

    def test_flags_of_other_verbs_rejected(self, capsys, chsh, pr_model):
        assert main(["check", "--scenario", chsh, "--model", pr_model,
                     "--truncate", "3"]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "invalid-input"
        assert "--truncate" in err["detail"]

    @pytest.mark.parametrize("verdict", [
        {"verdict": "noncontextual", "witness": [1, 2]},
        {"verdict": "contextual", "certificate": {"y": 5}},
        {"verdict": "contextual", "certificate": ["1"]},
        {"verdict": "noncontextual", "witness": {"x1=0": "abc"}},
    ], ids=["witness-list", "certificate-y-number", "certificate-list",
            "witness-weight-abc"])
    def test_malformed_verdict_is_invalid_input(self, capsys, tmp_path, chsh,
                                                pr_model, verdict):
        """CHSH has 16 global sections, so --cap 1 would exit 3 had they
        been enumerated before the verdict file was checked."""
        bad = write(tmp_path, "bad.json", verdict)
        assert main(["verify-certificate", bad, "--scenario", chsh,
                     "--model", pr_model, "--cap", "1"]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "invalid-input"

    def test_incompatible_model_is_invalid_input(self, capsys, tmp_path,
                                                  path1):
        """verify-certificate runs the compatibility check that check runs,
        so a certificate cannot verify against a model that has no
        consistent marginals."""
        model = write(tmp_path, "m.json", {"kind": "model", "distributions": {
            "a1,b1": {"0,0": "1"}, "b1,c1": {"1,1": "1"}}})
        cert = write(tmp_path, "cert.json", {
            "verdict": "contextual", "certificate": {
                "y": ["0", "1", "0", "1", "0", "-1", "-1", "0", "0"]}})
        for argv in (["check"], ["verify-certificate", cert]):
            assert main(argv + ["--scenario", path1, "--model", model]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            lines = captured.err.strip().splitlines()
            assert len(lines) == 1
            err = json.loads(lines[0])
            assert err["error"] == "invalid-input"
            assert "model is not compatible" in err["detail"]

    @pytest.mark.parametrize("apexes", ["", "cd"],
                             ids=["maximal-edge", "shared-edge"])
    def test_nonlocal_scenario_is_invalid_input(self, capsys, tmp_path,
                                                apexes):
        """Outcomes p and q at a,b both restrict to a=0, b=0, so sections
        keyed by vertex values cannot tell them apart: on the edge alone
        the model p: 1/2, q: 1/2 came back contextual.  With triangles
        a,b,x for x in apexes, each local (x's value says p or q), only the
        shared edge fails."""
        sets = {"a": ["0"], "b": ["0"], "a,b": ["p", "q"]}
        res = {"a,b>a": {"p": "0", "q": "0"}, "a,b>b": {"p": "0", "q": "0"}}
        dists = {} if apexes else {"a,b": {"p": "1/2", "q": "1/2"}}
        for x in apexes:
            top, ids = "a,b," + x, {x + "0": "0", x + "1": "1"}
            sets.update({x: ["0", "1"], top: [x + "0", x + "1"],
                         "a," + x: ["0", "1"], "b," + x: ["0", "1"]})
            res.update({top + ">a,b": {x + "0": "p", x + "1": "q"},
                        top + ">a," + x: ids, top + ">b," + x: ids})
            for y in "ab":
                res["%s,%s>%s" % (y, x, y)] = {"0": "0", "1": "0"}
                res["%s,%s>%s" % (y, x, x)] = {"0": "0", "1": "1"}
            dists[top] = {x + "0": "1/2", x + "1": "1/2"}
        scn = write(tmp_path, "scn.json", {
            "kind": "event", "sets": sets, "restrictions": res,
            "complex": {"maximal": [["a", "b", x] for x in apexes]
                        or [["a", "b"]]}})
        code, report = run(capsys, ["validate", scn])
        assert code == 1 and report["failures"] == [
            {"axiom": "locality", "simplex": "a,b"}]
        flags = ["--scenario", scn, "--model", write(tmp_path, "m.json", {
            "kind": "model", "distributions": dists})]
        cert = write(tmp_path, "cert.json", {
            "verdict": "contextual", "certificate": {"y": ["1", "1", "-1"]}})
        for argv in (["check"] + flags, ["verify-certificate", cert] + flags,
                     ["sections", scn]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            lines = captured.err.strip().splitlines()
            assert len(lines) == 1
            err = json.loads(lines[0])
            assert err["error"] == "invalid-input"
            assert "locality fails at a,b" in err["detail"]

    def test_noncontextual_witness_verifies(self, capsys, tmp_path, path1):
        model = write(tmp_path, "m.json", PATH_MODEL)
        vpath = str(tmp_path / "verdict.json")
        code = main(["check", "--scenario", path1, "--model", model,
                     "-o", vpath])
        capsys.readouterr()
        assert code == 0
        verdict = json.loads(open(vpath).read())
        assert verdict["verdict"] == "noncontextual"
        assert main(["verify-certificate", vpath, "--scenario", path1,
                     "--model", model]) == 0
        capsys.readouterr()

    def test_tampered_witness_rejected(self, capsys, tmp_path, path1):
        """A witness over the LP's own section keys that reproduces another
        model does not verify; neither does one naming an unknown key."""
        model = write(tmp_path, "m.json", PATH_MODEL)
        vpath = str(tmp_path / "verdict.json")
        main(["check", "--scenario", path1, "--model", model, "-o", vpath])
        capsys.readouterr()
        verdict = json.loads(open(vpath).read())
        keys = sorted(verdict["witness"])
        # all the weight on one section, then on a key that is no section
        for witness in ({keys[0]: "1"}, {"a1=0;b1=0": "1"}):
            tampered = write(tmp_path, "tampered.json",
                             {**verdict, "witness": witness})
            code, out = run(capsys, ["verify-certificate", tampered,
                                     "--scenario", path1, "--model", model])
            assert (code, out) == (1, {"verified": False})


class TestPush:
    def test_identity_morphism_preserves_model(self, capsys, tmp_path,
                                               path_scn):
        scn_json = path_scn.to_json()
        morphism = {"kind": "morphism",
                    "source": scn_json,
                    "target": scn_json,
                    "relation": {x: [x] for x in path_scn.base.vertices},
                    "components": {",".join(sorted(sigma)):
                                   {s: s for s in path_scn.sets[sigma]}
                                   for sigma in path_scn.base.simplices()}}
        mpath = write(tmp_path, "mor.json", morphism)
        model = write(tmp_path, "m.json", PATH_MODEL)
        code, out = run(capsys, ["push", "--morphism", mpath,
                                 "--model", model])
        assert code == 0
        assert out["distributions"] == PATH_MODEL["distributions"]
        for field, value in (("relation", []), ("components", {"a1": []})):
            bad = write(tmp_path, "bad.json", {**morphism, field: value})
            assert main(["push", "--morphism", bad, "--model", model]) == 1
            lines = capsys.readouterr().err.strip().splitlines()
            assert len(lines) == 1
            assert json.loads(lines[0])["error"] == "invalid-input"


def mapping_pair(tmp_path):
    """A mapping-bundles file with "d": 1 for two point bundles of two
    fibers each, and a noncontextual distribution on its mapping space."""
    def point_bundle(fibers, base_vertex):
        return BundleScenario(
            SimplicialComplex([{v} for v in fibers]),
            SimplicialComplex([{base_vertex}]),
            {v: base_vertex for v in fibers})

    bf = point_bundle(["a1", "a2"], "u")
    bg = point_bundle(["b1", "b2"], "s")
    spec = write(tmp_path, "mapfg.json",
                 {"kind": "mapping-bundles", "f": bf.to_json(),
                  "g": bg.to_json(), "d": 1})
    ms = mapping_simplicial(nerve_bundle(bf, 1), nerve_bundle(bg, 1),
                            d=1)
    secs = sections(ms.proj)
    r = make_rng(3)
    sd = theta_simplicial(ms.proj, secs,
                          rand_dist(r, [s.key() for s in secs]))
    dist = {"kind": "model",
            "distributions": {"%d:%s" % (n, x): {
                e: str(w) for e, w in sd[(n, x)].items()}
                for (n, x) in sd.table}}
    model = write(tmp_path, "sd.json", dist)
    return spec, model


class TestDecompose:
    def test_noncontextual_decomposition(self, capsys, tmp_path):
        spec, model = mapping_pair(tmp_path)
        code, out = run(capsys, ["decompose", "--scenario", spec,
                                 "--model", model])
        assert code == 0
        assert out["verdict"] == "noncontextual"
        total = sum(rat(p["weight"]) for p in out["decomposition"])
        assert total == 1

    def test_malformed_mapping_bundles_is_invalid_input(self, capsys,
                                                        tmp_path):
        spec, model = mapping_pair(tmp_path)
        good = json.loads(open(spec).read())
        for field, value in (("f", []), ("d", "1"), ("d", 1.5)):
            bad = write(tmp_path, "bad.json", {**good, field: value})
            assert main(["decompose", "--scenario", bad,
                         "--model", model]) == 1
            lines = capsys.readouterr().err.strip().splitlines()
            assert len(lines) == 1
            assert json.loads(lines[0])["error"] == "invalid-input"

    def test_uncovered_distribution_rejected_before_mapping_space(
            self, capsys, tmp_path, monkeypatch):
        """At d = 4 the degree-1 distribution misses simplices of the base,
        and building the mapping space first took seconds.
        mapping_simplicial constructs its MappingSpace before any other
        work, so none may be constructed."""
        spec, model = mapping_pair(tmp_path)
        deep = write(tmp_path, "deep.json",
                     {**json.loads(open(spec).read()), "d": 4})
        calls = []
        monkeypatch.setattr(sset, "MappingSpace",
                            lambda *args: calls.append(args))
        assert main(["decompose", "--scenario", deep, "--model", model]) == 1
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert captured.out == "" and len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "invalid-input"
        assert "coverage" in err["detail"]
        assert calls == []

    @pytest.mark.parametrize("payload", [
        lambda good: {"kind": "model", "distributions": []},
        lambda good: {"kind": "model",
                      "distributions": {"m0.0": {"m0.0": "1"}}},
        lambda good: [{"kind": "model"}],
        lambda good: {"kind": "model",
                      "distributions": {"\u00b2:m0.0": {"m0.0": "1"}}},
        lambda good: {**good, "distributions": {
            **good["distributions"], "0" + min(good["distributions"]):
            good["distributions"][min(good["distributions"])]}},
    ], ids=["distributions-list", "key-without-degree", "top-level-list",
            "superscript-degree", "one-simplex-twice"])
    def test_malformed_distribution_is_invalid_input(self, capsys, tmp_path,
                                                     payload):
        """The last two are a degree that str.isdigit accepts and int
        rejects, and a valid distribution with one of its keys repeated as
        "0<degree>:<simplex>" with the same weights."""
        spec, model = mapping_pair(tmp_path)
        bad = write(tmp_path, "bad.json",
                    payload(json.loads(open(model).read())))
        assert main(["decompose", "--scenario", spec, "--model", bad]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "invalid-input"


class TestUnreadFlagsAndSharedNames:
    """A flag the verb would not read, and names that two outcomes or two
    global sections would share, exit 1 before any output."""

    @pytest.mark.parametrize("argv, detail", [
        (["decompose", "--scenario", "SPEC", "--model", "SD",
          "--truncate", "3"], "--truncate"),
        (["map", "--kind", "event", "F", "G", "--truncate", "1"],
         "--truncate"),
        (["map", "--kind", "bundle", "BF", "BG", "--truncate", "1"],
         "--truncate"),
        (["validate", "F", "--scenario", "MISSING"], "--scenario"),
        (["convert", "F", "--to", "event", "--witness"], "--witness"),
        (["check", "--scenario", "KEYS", "--model", "KEYS_MODEL"],
         "'a=1;b=2;b=x'"),
        (["check", "--scenario", "NAMES", "--model", "NAMES_MODEL"],
         "'1,2,3'"),
        (["tensor", "PIPE_A", "PIPE_B"], "'(1|2|3)'"),
    ], ids=["decompose-truncate", "map-event-truncate", "map-bundle-truncate",
            "validate-scenario-of-a-scenario", "convert-witness-to-event",
            "shared-section-key", "merged-outcome-name",
            "merged-tensor-pair-name"])
    def test_is_invalid_input(self, capsys, tmp_path, argv, detail):
        """KEYS and NAMES are one edge a-b.  Sections a=1, b=2;b=x and
        a=1;b=2, b=x print as one key; outcomes (1,2; 3) and (1; 2,3) print
        as one name.  PIPE_A and PIPE_B are one vertex each, and their
        tensor names the pairs (1|2, 3) and (1, 2|3) alike."""
        f, g = standard([["a"]]), standard([["u", "v"]])
        spec, model = mapping_pair(tmp_path)
        files = {
            "SPEC": spec, "SD": model,
            "F": write(tmp_path, "f.json", f.to_json()),
            "G": write(tmp_path, "g.json", g.to_json()),
            "BF": write(tmp_path, "bf.json",
                        elements(event_presheaf(f)).to_json()),
            "BG": write(tmp_path, "bg.json",
                        elements(event_presheaf(g)).to_json()),
            "MISSING": str(tmp_path / "missing.json"),
            "KEYS": write(tmp_path, "keys.json", StandardScenario(
                [["a", "b"]], {"a": ["1;b=2", "1"],
                               "b": ["x", "2;b=x"]}).to_json()),
            "KEYS_MODEL": write(tmp_path, "keys_model.json", {
                "kind": "model", "distributions": {
                    "a,b": {"1;b=2,x": "1/2", "1,2;b=x": "1/2"}}}),
            "NAMES": write(tmp_path, "names.json", StandardScenario(
                [["a", "b"]], {"a": ["1,2", "1"],
                               "b": ["3", "2,3"]}).to_json()),
            "NAMES_MODEL": write(tmp_path, "names_model.json", {
                "kind": "model", "distributions": {"a,b": {"1,2,3": "1"}}}),
            "PIPE_A": write(tmp_path, "pipe_a.json", StandardScenario(
                [["a"]], {"a": ["1|2", "1"]}).to_json()),
            "PIPE_B": write(tmp_path, "pipe_b.json", StandardScenario(
                [["b"]], {"b": ["3", "2|3"]}).to_json())}
        assert main([files.get(a, a) for a in argv]) == 1
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert captured.out == "" and len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "invalid-input"
        assert detail in error["detail"]


class TestLaws:
    def test_gluing_suite(self, capsys):
        code, report = run(capsys, ["laws", "--suite", "gluing",
                                    "--trials", "25", "--seed", "1"])
        assert code == 0 and report["ok"]
