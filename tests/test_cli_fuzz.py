"""Hypothesis fuzzing of the `ctx` command line, run in process through
cli.main: valid payloads with random subtrees replaced, arbitrary JSON, and
`laws` argv.  Whatever the input, a verb exits 0, 1, 2 or 3 and never with a traceback;
an error goes to stderr as one JSON line."""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction as F

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import CHSH_CONTEXTS, PR_BOX_TABLE, standard
from ctxlib.bundles import BundleScenario
from ctxlib.cli import main
from ctxlib.complexes import SimplicialComplex, skey
from ctxlib.dist import Dist
from ctxlib.events import event_presheaf
from ctxlib.solve import EmpiricalModel, check_contextuality
from ctxlib.sset import (mapping_simplicial, nerve_bundle, sections,
                         theta_simplicial)

CHSH = standard(CHSH_CONTEXTS)
UNIFORM = {"kind": "model", "distributions": {
    k: {o: "1/4" for o in ("0,0", "0,1", "1,0", "1,1")} for k in PR_BOX_TABLE}}
PR = {"kind": "model", "distributions": PR_BOX_TABLE}
VERDICTS = [check_contextuality(event_presheaf(CHSH), EmpiricalModel.from_json(
    event_presheaf(CHSH), model)).to_json() for model in (UNIFORM, PR)]
SCENARIOS = [CHSH.to_json(), event_presheaf(standard([["u", "v"]])).to_json(),
             {"kind": "bundle", "map": {"a": "u", "b": "v"},
              "total": {"maximal": [["a", "b"]]},
              "base": {"maximal": [["u", "v"]]}},
             {"maximal": [["a", "b"], ["b", "c"]]}]
MODELS = [UNIFORM, PR]
EDGE = event_presheaf(standard([["u", "v"]]))
MORPHISM = {"kind": "morphism", "source": EDGE.to_json(),
            "target": EDGE.to_json(),
            "relation": {x: [x] for x in EDGE.base.vertices},
            "components": {skey(s): {o: o for o in EDGE.sets[s]}
                           for s in EDGE.base.simplices()}}
EDGE_MODEL = {"kind": "model",
              "distributions": {"u,v": {"0,0": "1/2", "1,1": "1/2"}}}


def point_bundle(fibers, base_vertex):
    return BundleScenario(SimplicialComplex([{v} for v in fibers]),
                          SimplicialComplex([{base_vertex}]),
                          {v: base_vertex for v in fibers})


BF, BG = point_bundle(["a1", "a2"], "u"), point_bundle(["b1", "b2"], "s")
MAPPING = {"kind": "mapping-bundles", "f": BF.to_json(), "g": BG.to_json(),
           "d": 1}
_PROJ = mapping_simplicial(nerve_bundle(BF, 1), nerve_bundle(BG, 1), d=1).proj
_SECS = sections(_PROJ)
_SD = theta_simplicial(_PROJ, _SECS, Dist(
    {s.key(): F(1, len(_SECS)) for s in _SECS}))
MAPPING_DIST = {"kind": "model", "distributions": {
    "%d:%s" % key: {e: str(w) for e, w in _SD[key].items()}
    for key in _SD.table}}

LEAF = st.one_of(st.none(), st.booleans(), st.integers(-3, 5),
                 st.sampled_from(["", "0", "1", "1/2", "-1", "a", "u",
                                  "u,v", "u,v>u", "x1,y1", "0,0", "abc",
                                  "event", "standard", "model", "bundle",
                                  "contextual"]),
                 st.floats(allow_nan=False, allow_infinity=False))
JSON = st.recursive(LEAF, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.sampled_from(["kind", "maximal", "sets", "complex",
                                     "restrictions", "contexts", "outcomes",
                                     "distributions", "verdict", "y",
                                     "map", "total", "base", "relation",
                                     "components", "source", "f", "d",
                                     "certificate", "witness", "u", "a"]),
                    inner, max_size=3)), max_leaves=8)


def paths(obj, prefix=()):
    """Every path to a subtree of obj, as a tuple of keys and indices."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for k, v in items:
        yield from paths(v, prefix + (k,))


def replaced(obj, path, value):
    if not path:
        return value
    out = dict(obj) if isinstance(obj, dict) else list(obj)
    out[path[0]] = replaced(obj[path[0]], path[1:], value)
    return out


@st.composite
def payloads(draw, seeds):
    """One of the seed payloads with up to three subtrees replaced (none two
    times in five), or, one time in eight, any JSON."""
    if draw(st.integers(0, 7)) == 0:
        return draw(JSON)
    obj = draw(st.sampled_from(seeds))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        path = draw(st.sampled_from(list(paths(obj))))
        obj = replaced(obj, path, draw(JSON))
    return obj


# argv with the files A, B, C, and the seeds each file is drawn from
CASES = [(["validate", "A"], SCENARIOS + MODELS),
         (["validate", "B", "--scenario", "A"], SCENARIOS[:1], MODELS),
         (["sections", "A"], SCENARIOS),
         (["sections", "A", "--cap", "3"], SCENARIOS),
         (["convert", "A", "--to", "event"], SCENARIOS),
         (["convert", "A", "--to", "bundle", "--witness"], SCENARIOS),
         (["tensor", "A", "B"], SCENARIOS[1:3], SCENARIOS[1:3]),
         (["nerve-complex", "A"], SCENARIOS[3:]),
         (["nerve", "A"], SCENARIOS[2:3]),
         (["map", "--kind", "event", "A", "B"], SCENARIOS[1:2],
          SCENARIOS[1:2]),
         (["map", "--kind", "bundle", "A", "B", "--cap", "1000"],
          SCENARIOS[2:3], SCENARIOS[2:3]),
         (["map", "--kind", "simplicial", "A", "B", "--cap", "1000",
           "--truncate", "1"], SCENARIOS[2:3], SCENARIOS[2:3]),
         (["check", "--scenario", "A", "--model", "B"], SCENARIOS[:1],
          MODELS),
         (["verify-certificate", "C", "--scenario", "A", "--model", "B"],
          SCENARIOS[:1], MODELS, VERDICTS),
         (["push", "--morphism", "A", "--model", "B"], [MORPHISM],
          [EDGE_MODEL]),
         (["decompose", "--scenario", "A", "--model", "B"], [MAPPING],
          [MAPPING_DIST])]


@st.composite
def invocations(draw):
    argv, *seeds = draw(st.sampled_from(CASES))
    return argv, [draw(payloads(s)) for s in seeds]


def run_main(argv):
    """Run cli.main in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code, out, err):
    """Exit 0-3; an error is one JSON line on stderr and nothing on stdout,
    and anything else prints JSON on stdout."""
    lines = err.splitlines()
    assert code in (0, 1, 2, 3)
    if lines or code == 3:
        assert code in (1, 3) and len(lines) == 1 and not out
        assert json.loads(lines[0])["error"] == \
            ("resource-limit" if code == 3 else "invalid-input")
    else:
        json.loads(out)


@given(invocations())
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_any_payload_exits_cleanly(invocation):
    argv, objs = invocation
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for name, obj in zip("ABC", objs):
            files[name] = os.path.join(tmp, name + ".json")
            with open(files[name], "w") as handle:
                json.dump(obj, handle)
        result = run_main([files.get(arg, arg) for arg in argv])
    assert_clean_exit(*result)


@given(st.sampled_from(["gluing", "monad", "tensor", "equivalence",
                        "mapping", "bogus"]),
       st.integers(-3, 3), st.integers())
@settings(max_examples=60, deadline=None)
def test_any_laws_argv_exits_cleanly(suite, trials, seed):
    code, out, err = run_main(["laws", "--suite", suite, "--trials",
                               str(trials), "--seed", str(seed)])
    assert_clean_exit(code, out, err)
    if suite == "bogus" or trials < 0:
        assert code == 1 and err
