"""nerve-decompose: the path of the decomposition theorem.

Operations, each from serialized bundles (and a distribution keyed by
mapping-space simplex ids, as `ctx decompose` takes it):

- map-simplicial: nerve_bundle on both sides, then mapping_simplicial at
  d = 2 (point(3) -> point(3), point(2) -> binary edge), as
  `ctx map --kind simplicial` does.
- decompose: nerve_bundle, mapping_simplicial at d = 1 or d = 2, then
  decompose_noncontextual on a seeded noncontextual distribution (a random
  mixture of sections), the work of `ctx decompose`.
- decompose-contextual: the parity model on the triangle, embedded in
  Map(point, triangle bundle) at d = 2; a Farkas certificate is expected.
- compare: compare_nerve_mapping at d = 2 on edge-base pairs.

The seed names the fibers and draws the mixture weights.  Checks: weights
are positive and sum to 1; the weighted sections zeta(morphism) rebuild the
distribution; mu(sd, q) equals the weighted pushforwards of q
along the morphisms for the delta family q of every section of f; the
contextual certificate satisfies y.b > 0 and y.column <= 0 on the system
rebuilt from the serialized distribution, which must be the LP ctxlib
solved; l is simplicial, l(t(s)) = s off the defects, and t is undefined
exactly on the defects.
"""

import json
from fractions import Fraction

from common import (Op, Result, Workload, dumps, expect, farkas_errors, frac,
                    rng)

from ctxlib import bundles, cli, complexes, dist, events, solve, sset
from ctxlib.errors import PreconditionError


def point_bundle(fibers, base_vertex):
    return bundles.BundleScenario(
        complexes.SimplicialComplex([{v} for v in fibers]),
        complexes.SimplicialComplex([{base_vertex}]),
        {v: base_vertex for v in fibers})


def edge_bundle(r, k):
    """The element bundle of a standard edge scenario with k outcomes."""
    u, v = sorted("e%d" % t for t in r.sample(range(10, 100), 2))
    labels = [str(x) for x in r.sample(range(10), k)]
    std = events.StandardScenario([[u, v]], {u: labels, v: labels})
    return events.elements(events.event_presheaf(std))


def identity_edge(r):
    u, v = sorted("w%d" % t for t in r.sample(range(10, 100), 2))
    cpx = complexes.SimplicialComplex([{u, v}])
    return bundles.BundleScenario(cpx, cpx, {u: u, v: v})


def fibers(r, prefix, n):
    return ["%s%d" % (prefix, t) for t in r.sample(range(10, 100), n)]


def parity_bundle():
    """Element bundle of the triangle parity scenario (two edges equal, one
    edge different) and its uniform model moved onto the bundle."""
    base = complexes.SimplicialComplex([{"x", "y"}, {"y", "z"}, {"x", "z"}])
    sets = {frozenset([v]): ("0", "1") for v in "xyz"}
    sets[frozenset("xy")] = ("0,0", "1,1")
    sets[frozenset("yz")] = ("0,0", "1,1")
    sets[frozenset("xz")] = ("0,1", "1,0")
    codim1 = {}
    for edge in base.maximal:
        a, b = sorted(edge)
        for s in sets[edge]:
            sa, sb = s.split(",")
            codim1.setdefault((edge, frozenset([a])), {})[s] = sa
            codim1.setdefault((edge, frozenset([b])), {})[s] = sb
    tri = events.EventScenario(base, sets, codim1)
    bnd = events.elements(tri)
    scn = bundles.to_event(bnd)
    half = Fraction(1, 2)
    dists = {}
    for m in base.maximal:
        rename = {s: complexes.skey(frozenset(
            events.element_name(x, tri.restrict(m, frozenset([x]), s))
            for x in m)) for s in tri.sets[m]}
        dists[m] = dist.Dist([(rename[s], half) for s in tri.sets[m]])
    return bnd, scn, solve.EmpiricalModel(scn, dists)


def contextual_input():
    """The parity distribution pushed into Map(point, triangle) at d = 2."""
    d = 2
    bnd, scn, model = parity_bundle()
    ng = sset.nerve_bundle(bnd, d)
    tsd = solve.simplicial_of_empirical(bnd, scn, model, ng)
    pt = point_bundle(["q0"], "p")
    ms = sset.mapping_simplicial(sset.nerve_bundle(pt, d), ng, d=d)
    total, base = ng.source, ng.target

    def embed(n, y, e):
        xid = sset.nerve_tuple_id(tuple(frozenset(["p"]) if s else
                                        frozenset()
                                        for s in base.payload[(n, y)]))
        px, py = ms.pb_src(n, xid), ms.pb_dst(n, y)
        comp = {m: {} for m in range(d + 1)}
        for m in range(d + 1):
            for pid in px.simp[m]:
                theta, _ = px.payload[(m, pid)]
                comp[m][pid] = complexes.pair_name(
                    sset.theta_id(theta),
                    sset.apply_operator(total, n, e, theta))
        alpha = sset.SSetMap(px, py, comp, check=False)
        return ms.ids[(n, y, xid, alpha.key())]

    table = {(n, y): dist.pushforward(
        lambda e, _n=n, _y=y: embed(_n, _y, e), tsd[(n, y)])
        for n in range(d + 1) for y in base.simp[n]}
    return pt, bnd, d, sset.SimplicialDistribution(table)


def noncontextual_input(r, bf, bg, d):
    ms = sset.mapping_simplicial(sset.nerve_bundle(bf, d),
                                 sset.nerve_bundle(bg, d), d=d)
    secs = sset.sections(ms.proj)
    keys = [s.key() for s in secs]
    picked = r.sample(keys, min(len(keys), 4))
    ws = [r.randint(1, 6) for _ in picked]
    q = dist.Dist([(k, Fraction(w, sum(ws))) for k, w in zip(picked, ws)])
    return sset.theta_simplicial(ms.proj, secs, q)


def distribution_json(sd):
    return {"kind": "model",
            "distributions": {"%d:%s" % (n, x): {e: str(w)
                                                 for e, w in p.items()}
                              for (n, x), p in sorted(sd.table.items())}}


# ---------------------------------------------------------------------------
# Checks


def delta_family(fmap, sec):
    return sset.SimplicialDistribution({
        (n, x): dist.delta(sec(n, x))
        for n in range(fmap.target.d + 1) for x in fmap.target.simp[n]})


def check_decomposition(text, ms, sd):
    errors = []
    out = json.loads(text)
    if not expect(errors, out.get("verdict") == "noncontextual",
                  "verdict %r, expected noncontextual" % out.get("verdict")):
        return errors
    parts = [(frac(p["weight"]), p["morphism"]) for p in out["decomposition"]]
    expect(errors, all(w > 0 for w, _ in parts), "nonpositive weight")
    expect(errors, sum(w for w, _ in parts) == 1, "weights do not sum to 1")
    dets = {det.key(): det for det in sset.enumerate_det_morphisms(ms.f,
                                                                   ms.g)}
    unknown = [k for _, k in parts if k not in dets]
    expect(errors, not unknown, "unknown morphism %s" % unknown[:1])
    if errors:
        return errors
    secs = {k: sset.zeta(ms, dets[k]) for _, k in parts}
    for n in range(ms.g.target.d + 1):
        for y in ms.g.target.simp[n]:
            rebuilt = dist.mixture([(w, dist.delta(secs[k](n, y)))
                                    for w, k in parts])
            if rebuilt != sd[(n, y)]:
                return errors + ["the weighted morphisms do not rebuild the "
                                 "distribution at %s" % ((n, y),)]
    for fsec in sset.sections(ms.f):
        q = delta_family(ms.f, fsec)
        got = sset.mu(ms, sd, q)
        pushed = [(w, sset.push_stochastic(dets[k].to_stochastic(), q))
                  for w, k in parts]
        for key in got.table:
            if dist.mixture([(w, p[key]) for w, p in pushed]) != got[key]:
                return errors + ["mu(sd, q) differs from the weighted "
                                 "pushforwards at %s" % (key,)]
    return errors


def check_certificate(text, ms, dist_text, problem):
    """Rebuild the top-degree system of check_contextuality_simplicial from
    the serialized distribution (one row of ones, then one row per top
    simplex x of the base and simplex e over it, b = p_x(e)), compare it
    with the LP ctxlib solved, and re-check the certificate on it."""
    errors = []
    out = json.loads(text)
    if not expect(errors, out.get("verdict") == "contextual",
                  "verdict %r, expected contextual" % out.get("verdict")):
        return errors
    proj, tables = ms.proj, json.loads(dist_text)["distributions"]
    top = proj.target.d
    over = {}
    for e in proj.source.simp[top]:
        over.setdefault(proj.comp[top][e], []).append(e)
    b = [Fraction(1)]
    row_of = {}
    for x in proj.target.simp[top]:
        tab = tables["%d:%s" % (top, x)]
        for e in over.get(x, []):
            row_of[(x, e)] = len(b)
            b.append(frac(tab.get(e, "0")))
    expect(errors, len(b) == len(problem.A),
           "%d rows rebuilt, the LP has %d" % (len(b), len(problem.A)))
    expect(errors, b == list(problem.b),
           "the LP's right-hand side is not the distribution")
    secs = sset.sections(proj)
    expect(errors, len(secs) == problem.ncols, "%d sections, the LP has %d "
           "columns" % (len(secs), problem.ncols))
    if errors:
        return errors
    columns = ((s.key(), [0] + [row_of[(x, s(top, x))]
                                for x in proj.target.simp[top]])
               for s in secs)
    y = [frac(v) for v in out["certificate"]["y"]]
    return farkas_errors(y, b, columns)


def simplicial_errors(fmap):
    """Does fmap commute with every face and degeneracy?"""
    src, tgt = fmap.source, fmap.target
    for n in range(1, src.d + 1):
        for x in src.simp[n]:
            for i, face in enumerate(src.face[n][x]):
                if fmap.comp[n - 1][face] != tgt.face[n][fmap.comp[n][x]][i]:
                    return ["not simplicial at face %d of %s" % (i, x)]
    for n in range(src.d):
        for x in src.simp[n]:
            for j, deg in enumerate(src.degen[n][x]):
                if fmap.comp[n + 1][deg] != \
                        tgt.degen[n][fmap.comp[n][x]][j]:
                    return ["not simplicial at degeneracy %d of %s" % (j, x)]
    return []


def proj_from_json(obj):
    d = obj["d"]
    source = sset.TruncatedSSet.from_json(obj["source"])
    target = sset.TruncatedSSet.from_json(obj["target"])
    comp = {n: dict(obj["components"][str(n)]) for n in range(d + 1)}
    return sset.SSetMap(source, target, comp, check=False)


# ---------------------------------------------------------------------------
# Operations


def decompose_op(name, bf, bg, d, sd, contextual):
    spec_text = json.dumps({"kind": "mapping-bundles", "f": bf.to_json(),
                            "g": bg.to_json(), "d": d})
    dist_text = json.dumps(distribution_json(sd))

    def run(traced):
        spec = json.loads(spec_text)
        nf = sset.nerve_bundle(bundles.BundleScenario.from_json(spec["f"]),
                               d=spec["d"])
        ng = sset.nerve_bundle(bundles.BundleScenario.from_json(spec["g"]),
                               d=spec["d"])
        ms = sset.mapping_simplicial(nf, ng)
        table = {}
        for key, tab in json.loads(dist_text)["distributions"].items():
            n, x = key.split(":", 1)
            table[(int(n), x)] = dist.Dist({o: dist.rat(v)
                                            for o, v in tab.items()})
        given = sset.SimplicialDistribution(table)
        try:
            parts = solve.decompose_noncontextual(ms, given)
        except PreconditionError as err:
            cert = [dist.rat_str(v) for v in err.certificate]
            return Result(dumps({"verdict": "contextual",
                                 "certificate": {"y": cert}}),
                          (ms, given, err.problem))
        return Result(dumps({"verdict": "noncontextual",
                             "decomposition": [
                                 {"weight": dist.rat_str(w),
                                  "morphism": det.key()}
                                 for w, det in parts]}),
                      (ms, given, None))

    def check(result):
        ms, given, problem = result.aux
        if contextual:
            return check_certificate(result.text, ms, dist_text, problem)
        return check_decomposition(result.text, ms, given)

    return Op(name, run, check)


def map_simplicial_op(name, bf, bg, d):
    f_text, g_text = json.dumps(bf.to_json()), json.dumps(bg.to_json())

    def run(traced):
        nf = sset.nerve_bundle(
            bundles.BundleScenario.from_json(json.loads(f_text)), d=d)
        ng = sset.nerve_bundle(
            bundles.BundleScenario.from_json(json.loads(g_text)), d=d)
        ms = sset.mapping_simplicial(nf, ng, d=d)
        return Result(dumps(cli.sset_map_json(ms.proj)))

    def check(result):
        proj = proj_from_json(json.loads(result.text))
        errors = simplicial_errors(proj)
        covered = {n: set(proj.comp[n].values()) for n in proj.comp}
        for n in range(d + 1):
            missing = set(proj.target.simp[n]) - covered[n]
            expect(errors, not missing, "no mapping simplex over %s"
                   % sorted(missing)[:1])
        return errors

    return Op(name, run, check)


def compare_op(name, bf, bg):
    f_text, g_text = json.dumps(bf.to_json()), json.dumps(bg.to_json())

    def run(traced):
        cmp = sset.compare_nerve_mapping(
            bundles.BundleScenario.from_json(json.loads(f_text)),
            bundles.BundleScenario.from_json(json.loads(g_text)), d=2)
        text = dumps({
            "l": {str(n): cmp.l.comp[n] for n in cmp.l.comp},
            "t": {"%d:%s" % k: v for k, v in sorted(cmp.t.items())},
            "defects": ["%d:%s" % k for k in cmp.defects]})
        return Result(text, cmp)

    def check(result):
        out = json.loads(result.text)
        cmp = result.aux
        errors = simplicial_errors(cmp.l)
        for key, tid in out["t"].items():
            n, sid = key.split(":", 1)
            if tid is None:
                expect(errors, key in out["defects"],
                       "t undefined at %s outside the defects" % key)
            elif out["l"][n].get(tid) != sid:
                errors.append("l(t(%s)) = %s" % (key, out["l"][n].get(tid)))
                break
        for key in out["defects"]:
            expect(errors, out["t"].get(key, "") is None,
                   "t defined at the defect %s" % key)
        expect(errors, len(out["defects"]) < len(out["t"]),
               "t is nowhere defined")
        return errors

    return Op(name, run, check)


def build(seed, smoke=False, rundir=None, src=None):
    r = rng(seed, "nerve-decompose")
    ops = []
    sizes_d1 = [(2, 2)] if smoke else [(2, 2), (3, 2), (3, 3)]
    for a, b in sizes_d1:
        bf = point_bundle(fibers(r, "a", a), "u")
        bg = point_bundle(fibers(r, "b", b), "s")
        ops.append(decompose_op("decompose-p%dp%d-d1" % (a, b), bf, bg, 1,
                                noncontextual_input(r, bf, bg, 1), False))
    bf = point_bundle(fibers(r, "a", 2), "u")
    bg = point_bundle(fibers(r, "b", 2), "s")
    ops.append(decompose_op("decompose-p2p2-d2", bf, bg, 2,
                            noncontextual_input(r, bf, bg, 2), False))
    if not smoke:
        bf = point_bundle(fibers(r, "a", 2), "u")
        bg = identity_edge(r)
        ops.append(decompose_op("decompose-p2edge-d2", bf, bg, 2,
                                noncontextual_input(r, bf, bg, 2), False))
        pt, tri, d, sd = contextual_input()
        ops.append(decompose_op("decompose-parity-d2", pt, tri, d, sd, True))
        ops.append(map_simplicial_op(
            "map-simplicial-p3p3-d2", point_bundle(fibers(r, "a", 3), "u"),
            point_bundle(fibers(r, "b", 3), "s"), 2))
        ops.append(map_simplicial_op(
            "map-simplicial-p2edge2-d2",
            point_bundle(fibers(r, "a", 2), "u"), edge_bundle(r, 2), 2))
    ops.append(compare_op("compare-edge-p1",
                          identity_edge(r), point_bundle(fibers(r, "b", 1),
                                                         "s")))
    if not smoke:
        ops.append(compare_op("compare-edge-p2", identity_edge(r),
                              point_bundle(fibers(r, "b", 2), "s")))
    return NerveWorkload(ops)


class NerveWorkload(Workload):
    def tampered(self, outputs):
        for op, result in zip(self.ops, outputs):
            if result is None or not op.name.startswith("decompose-p"):
                continue
            obj = json.loads(result.text)
            if len(obj["decomposition"]) < 2:
                continue
            first, second = obj["decomposition"][:2]
            shift = Fraction(1, 1000)
            first["weight"] = str(frac(first["weight"]) + shift)
            second["weight"] = str(frac(second["weight"]) - shift)
            rejected = bool(op.check(Result(json.dumps(obj), result.aux)))
            return [("perturbed decomposition weight", rejected)]
        return [("perturbed decomposition weight", False)]
