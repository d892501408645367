"""mapping-scenario: the work of `ctx map --kind event` and
`ctx map --kind bundle`, done in process on pairs of standard scenarios.

Pairs (F -> G, top outcomes of the mapping scenario [F, G]):

- edge -> edge, binary                       576
- edge -> triangle, binary                  1728
- edge -> 4-cycle, binary                   2304
- binary edge -> ternary edge               9801 (event route only)

The seed renames the vertices and relabels the outcomes; sizes do not
depend on it.  Checks, outside the timed region: at every vertex {y} of G's
base the outcome count equals the sum over the simplices u of F's base of
|G(y)|^|F(u)|; the mapping scenario and the mapping bundle validate; and on
seeded sampled simplices the outcomes equal those of the brute-force oracle
bundles.enumerate_direct_mapping.
"""

import itertools
import json

from common import Op, Result, Workload, dumps, expect, rng

from ctxlib import bundles, complexes, events

CYCLE4 = [(0, 1), (1, 2), (2, 3), (0, 3)]
TRIANGLE = [(0, 1), (1, 2), (0, 2)]
EDGE = [(0, 1)]


def standard_json(r, prefix, edges, k):
    """A standard scenario on a graph; names and labels drawn from r."""
    nverts = 1 + max(max(e) for e in edges)
    tags = r.sample(range(10, 100), nverts)
    names = ["%s%d" % (prefix, t) for t in tags]
    labels = [str(x) for x in r.sample(range(10), k)]
    return {"kind": "standard",
            "contexts": [[names[i], names[j]] for i, j in edges],
            "outcomes": {v: list(labels) for v in names}}


def simplices(std):
    """All nonempty faces of the contexts, as sorted tuples."""
    out = set()
    for ctx in std["contexts"]:
        for size in range(1, len(ctx) + 1):
            out.update(itertools.combinations(sorted(ctx), size))
    return sorted(out, key=lambda s: (len(s), s))


def vertex_count(f_std, g_std, y):
    """Outcomes of [F, G] at the vertex {y}: one per simplex u of F and
    function F(u) -> G(y)."""
    gy = len(g_std["outcomes"][y])
    total = 0
    for u in simplices(f_std):
        size = 1
        for v in u:
            size *= len(f_std["outcomes"][v])
        total += gy ** size
    return total


def outcome_name(fiber_key):
    """A fiber simplex of an element bundle, "(x|a),(y|b)", named as the
    standard scenario names that outcome: "a,b" over the sorted vertices."""
    pairs = sorted(complexes.unpair_name(v)
                   for v in complexes.split_key(fiber_key))
    return ",".join(o for _, o in pairs)


def load_std(text):
    return events.event_presheaf(
        events.StandardScenario.from_json(json.loads(text)))


def check_event_output(f_std, g_std, text, samples):
    errors = []
    try:
        mapped = events.EventScenario.from_json(json.loads(text))
    except (ValueError, KeyError) as err:
        return ["output does not load: %s" % err]
    for y in sorted(g_std["outcomes"]):
        got = len(mapped.sets.get(frozenset([y]), ()))
        want = vertex_count(f_std, g_std, y)
        expect(errors, got == want, "%d outcomes at {%s}, expected %d"
               % (got, y, want))
    report = events.validate_event_scenario(mapped)
    expect(errors, report["ok"], "mapping scenario does not validate: %s"
           % report["failures"][:2])
    if errors:
        return errors
    bf = events.elements(load_std(json.dumps(f_std)))
    bg = events.elements(load_std(json.dumps(g_std)))
    for sigma in samples:
        direct = set()
        for pi, amap in bundles.enumerate_direct_mapping(bf, bg, sigma):
            top = bundles.direct_mapping_top(bf, bg, sigma, pi, amap)
            alpha = {outcome_name(s): outcome_name(t)
                     for s, t in top.alpha.items()}
            direct.add(events.MappingElement(sigma, top.pi, alpha).key())
        expect(errors, direct == set(mapped.sets[sigma]),
               "outcomes at %s differ from the direct enumeration"
               % sorted(sigma))
    return errors


def check_bundle_output(f_std, g_std, text):
    errors = []
    try:
        bnd = bundles.BundleScenario.from_json(json.loads(text))
    except (ValueError, KeyError) as err:
        return ["output does not load: %s" % err]
    for y in sorted(g_std["outcomes"]):
        got = sum(1 for v in bnd.total.vertices if bnd.vmap[v] == y)
        want = vertex_count(f_std, g_std, y)
        expect(errors, got == want, "%d fiber vertices over %s, expected %d"
               % (got, y, want))
    report = bundles.validate_bundle(bnd)
    expect(errors, report["ok"], "mapping bundle does not validate: %s"
           % report["failures"][:2])
    return errors


def event_op(name, f_std, g_std, r):
    f_text, g_text = json.dumps(f_std), json.dumps(g_std)
    g_simplices = [frozenset(s) for s in simplices(g_std)]
    samples = r.sample(g_simplices, 2)

    def run(traced):
        f, g = load_std(f_text), load_std(g_text)
        mapped, _ = events.mapping_event_scenario(f, g)
        return Result(dumps(mapped.to_json()))

    def check(result):
        return check_event_output(f_std, g_std, result.text, samples)

    return Op("event-" + name, run, check)


def bundle_op(name, f_std, g_std):
    f_text = json.dumps(events.elements(load_std(json.dumps(f_std)))
                        .to_json())
    g_text = json.dumps(events.elements(load_std(json.dumps(g_std)))
                        .to_json())

    def run(traced):
        bf = bundles.BundleScenario.from_json(json.loads(f_text))
        bg = bundles.BundleScenario.from_json(json.loads(g_text))
        bnd, _, _ = bundles.mapping_bundle_scenario(bf, bg)
        return Result(dumps(bnd.to_json()))

    def check(result):
        return check_bundle_output(f_std, g_std, result.text)

    return Op("bundle-" + name, run, check)


def build(seed, smoke=False, rundir=None, src=None):
    r = rng(seed, "mapping-scenario")
    pairs = [("edge-edge-2", EDGE, 2, EDGE, 2, True)]
    if not smoke:
        pairs += [("edge-triangle-2", EDGE, 2, TRIANGLE, 2, True),
                  ("edge-cycle4-2", EDGE, 2, CYCLE4, 2, True),
                  ("edge2-edge3", EDGE, 2, EDGE, 3, False)]
    ops = []
    for name, fe, fk, ge, gk, with_bundle in pairs:
        f_std = standard_json(r, "x", fe, fk)
        g_std = standard_json(r, "y", ge, gk)
        ops.append(event_op(name, f_std, g_std, r))
        if with_bundle:
            ops.append(bundle_op(name, f_std, g_std))
    return MappingWorkload(ops)


class MappingWorkload(Workload):
    def tampered(self, outputs):
        for op, result in zip(self.ops, outputs):
            if result is None or not op.name.startswith("event-"):
                continue
            obj = json.loads(result.text)
            vertex = min((k for k in obj["sets"] if "," not in k))
            dropped = obj["sets"][vertex].pop()
            for key, table in obj["restrictions"].items():
                table.pop(dropped, None)
                for src, dst in list(table.items()):
                    if dst == dropped:
                        del table[src]
            rejected = bool(op.check(Result(json.dumps(obj))))
            return [("dropped mapping element", rejected)]
        return [("dropped mapping element", False)]
