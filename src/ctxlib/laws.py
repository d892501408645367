"""Randomized law suites: gluing axioms for the distribution monad, nerve
monad laws, monoidal structure, scenario-equivalence round trips, and mapping
scenario agreement.  Shared by the CLI `laws` verb and the test corpus."""

from .bundles import (bundle_iso, direct_mapping_top,
                      enumerate_direct_mapping, pullback_functoriality_iso,
                      to_event, validate_bundle)
from .complexes import (ComplexMap, SimplicialComplex, identity_relation,
                        kleisli_compose, mult_map, nerve_complex, nerve_name,
                        nerve_of_map, pair_name, pair_simplex, project_simplex,
                        skey, tensor_complex, tensor_comparison_map,
                        tensor_relation, unit_map, unpair_name)
from .dist import delta, flatten, glue, pushforward
from .errors import DomainError, ResourceLimitError
from .events import (element_name, element_simplex, elements,
                     mapping_event_scenario, tensor_event,
                     validate_event_scenario)
from .rand import (make_rng, rand_bundle, rand_dist, rand_event,
                   rand_function, rand_lift, rand_relation,
                   rand_relation_into)


def _small_complex(r, max_card=2):
    nv = r.randint(1, 4)
    verts = ["v%d" % i for i in range(nv)]
    maxs = []
    for _ in range(r.randint(1, 3)):
        size = r.randint(1, min(max_card, nv))
        maxs.append(frozenset(r.sample(verts, size)))
    covered = frozenset().union(*maxs)
    maxs.extend(frozenset([v]) for v in verts if v not in covered)
    return SimplicialComplex(maxs)


def _rand_complex_map(r, tgt):
    """A random complex map from a fresh source into tgt."""
    maxs = []
    vmap = {}
    counter = 0
    for _ in range(r.randint(1, 2)):
        m = r.choice(tgt.maximal)
        group = []
        for _ in range(r.randint(1, 3)):
            name = "u%d" % counter
            counter += 1
            vmap[name] = r.choice(sorted(m))
            group.append(name)
        maxs.append(frozenset(group))
    src = SimplicialComplex(maxs)
    return ComplexMap(src, tgt, vmap)


# ---------------------------------------------------------------------------
# Gluing axioms


def _refine(r, fn, prefix):
    """A random factorization fn = fn' . alpha with alpha collapsing within
    the fibers of fn."""
    alpha = {}
    out = {}
    for x, z in fn.items():
        label = "%s_%s_%d" % (prefix, z, r.randint(0, 1))
        alpha[x] = label
        out[label] = z
    return alpha, out


def _gluing_instance(r):
    while True:
        Z = ["z%d" % i for i in range(r.randint(1, 3))]
        X = ["x%d" % i for i in range(r.randint(1, 4))]
        Y = ["y%d" % i for i in range(r.randint(1, 4))]
        f = rand_function(r, X, Z)
        g = rand_function(r, Y, Z)
        common = sorted(set(f.values()) & set(g.values()))
        if common:
            break
    target = rand_dist(r, common)
    p = rand_lift(r, target, lambda z: [x for x in X if f[x] == z])
    q = rand_lift(r, target, lambda z: [y for y in Y if g[y] == z])
    return X, Y, Z, f, g, p, q


def check_gluing(trials, seed):
    r = make_rng(seed)
    failures = []
    for t in range(trials):
        X, Y, Z, f, g, p, q = _gluing_instance(r)
        ff = lambda x: f[x]
        gg = lambda y: g[y]
        m = glue(ff, gg, p, q)

        # 1. section property: both projections return the inputs
        if pushforward(lambda xy: xy[0], m) != p or \
                pushforward(lambda xy: xy[1], m) != q:
            failures.append({"trial": t, "law": "section"})

        # 4. unit preservation on a random compatible pair
        pairs = [(x, y) for x in X for y in Y if f[x] == g[y]]
        if pairs:
            x0, y0 = r.choice(pairs)
            if glue(ff, gg, delta(x0), delta(y0)) != delta((x0, y0)):
                failures.append({"trial": t, "law": "unit"})

        # 2. naturality along fiberwise collapses with injective base
        alpha, f2 = _refine(r, f, "a")
        beta, g2 = _refine(r, g, "b")
        lhs = pushforward(lambda xy: (alpha[xy[0]], beta[xy[1]]), m)
        rhs = glue(lambda a: f2[a], lambda b: g2[b],
                   pushforward(lambda x: alpha[x], p),
                   pushforward(lambda y: beta[y], q))
        if lhs != rhs:
            failures.append({"trial": t, "law": "naturality"})

        # 3. back-and-forth: re-gluing through an intermediate stage
        W = ["w%d" % i for i in range(r.randint(1, 4))]
        pi = rand_function(r, W, Y)
        h = {w: g[pi[w]] for w in W}
        target = pushforward(ff, p)
        if all(any(h[w] == z for w in W) for z in target.support()):
            qw = rand_lift(r, target, lambda z: [w for w in W if h[w] == z])
            inner = glue(ff, gg, p, pushforward(lambda w: pi[w], qw))
            outer = glue(lambda xy: xy[1], lambda w: pi[w], inner, qw)
            direct = glue(ff, lambda w: h[w], p, qw)
            if pushforward(lambda t2: (t2[0][0], t2[1]), outer) != direct:
                failures.append({"trial": t, "law": "back-and-forth"})

        # 5. weak multiplicativity
        lifts = [rand_lift(r, pushforward(gg, q),
                           lambda z: [x for x in X if f[x] == z])
                 for _ in range(r.randint(1, 3))]
        big = rand_dist(r, lifts) if lifts else None
        if big is not None:
            lhs5 = glue(ff, gg, flatten(big), q)
            paired = glue(lambda d: pushforward(ff, d),
                          lambda d: pushforward(gg, d), big, delta(q))
            rhs5 = flatten(pushforward(
                lambda pq: glue(ff, gg, pq[0], pq[1]), paired))
            if lhs5 != rhs5:
                failures.append({"trial": t, "law": "multiplicativity"})

        # 6. gluing with deterministics is natural for arbitrary base maps
        y1 = r.choice(Y)
        fib = [x for x in X if f[x] == g[y1]]
        if fib:
            pdet = rand_dist(r, fib)
            gamma = rand_function(r, Z, ["c0", "c1"])
            alpha6, f6 = _refine(r, {x: gamma[f[x]] for x in X}, "p")
            beta6, g6 = _refine(r, {y: gamma[g[y]] for y in Y}, "q")
            eta = glue(ff, gg, pdet, delta(y1))
            lhs6 = pushforward(lambda xy: (alpha6[xy[0]], beta6[xy[1]]), eta)
            rhs6 = glue(lambda a: f6[a], lambda b: g6[b],
                        pushforward(lambda x: alpha6[x], pdet),
                        delta(beta6[y1]))
            if lhs6 != rhs6:
                failures.append({"trial": t, "law": "deterministic-gluing"})
    return failures


# ---------------------------------------------------------------------------
# Nerve monad laws


def check_monad(trials, seed):
    r = make_rng(seed)
    failures = []
    for t in range(trials):
        # Kleisli unit laws
        rel = rand_relation(r, max_vertices=4, max_simplices=2)
        if kleisli_compose(rel, identity_relation(rel.source)) != rel or \
                kleisli_compose(identity_relation(rel.target), rel) != rel:
            failures.append({"trial": t, "law": "kleisli-unit"})

        # Kleisli associativity over a random composable chain
        d = _small_complex(r)
        r3 = rand_relation_into(r, d)
        r2 = rand_relation_into(r, r3.source)
        r1 = rand_relation_into(r, r2.source)
        if kleisli_compose(kleisli_compose(r3, r2), r1) != \
                kleisli_compose(r3, kleisli_compose(r2, r1)):
            failures.append({"trial": t, "law": "kleisli-associativity"})

        # unit laws of the monad as complex maps
        cpx = _small_complex(r, max_card=3)
        n1 = nerve_complex(cpx)
        mm = mult_map(cpx)
        left = mm.compose(unit_map(n1))
        right = mm.compose(nerve_of_map(unit_map(cpx)))
        ident = {v: v for v in n1.vertices}
        if left.vertex_map != ident or right.vertex_map != ident:
            failures.append({"trial": t, "law": "monad-unit"})

        # associativity, pointwise on the vertices of the triple nerve
        cpx2 = _small_complex(r, max_card=2)
        n1b = nerve_complex(cpx2)
        n2b = nerve_complex(n1b)
        mu = mult_map(cpx2).vertex_map
        mu1 = mult_map(n1b).vertex_map
        for s in n2b.simplices():
            v = nerve_name(s)
            path1 = mu[nerve_name(frozenset(mu[u] for u in s))]
            path2 = mu[mu1[v]]
            if path1 != path2:
                failures.append({"trial": t, "law": "monad-associativity",
                                 "at": v})
                break
    return failures


# ---------------------------------------------------------------------------
# Monoidal structure


def check_tensor(trials, seed):
    r = make_rng(seed)
    failures = []
    for t in range(trials):
        c1 = _small_complex(r)
        c2 = _small_complex(r)
        tc = tensor_complex(c1, c2)

        # projections are simplicial
        try:
            for m in tc.maximal:
                if project_simplex(m, 0) not in c1 or \
                        project_simplex(m, 1) not in c2:
                    raise ValueError
        except ValueError:
            failures.append({"trial": t, "law": "projections"})

        # the comparison map is simplicial (checked by the constructor)
        try:
            phi = tensor_comparison_map(c1, c2)
        except DomainError:
            phi = None
            failures.append({"trial": t, "law": "comparison-simplicial"})

        # comparison naturality against nerve images of complex maps
        h1 = _rand_complex_map(r, c1)
        h2 = _rand_complex_map(r, c2)
        if phi is not None:
            phi_src = tensor_comparison_map(h1.source, h2.source)
            lhs = phi.compose(_tensor_of_maps(nerve_of_map(h1),
                                              nerve_of_map(h2)))
            rhs = nerve_of_map(_tensor_of_maps(h1, h2)).compose(phi_src)
            if any(lhs.vertex_map[v] != rhs.vertex_map[v]
                   for v in phi_src.source.vertices):
                failures.append({"trial": t, "law": "comparison-naturality"})

        # symmetry of the tensor product
        tc2 = tensor_complex(c2, c1)
        try:
            ComplexMap(tc, tc2, _swap_map(tc))
        except Exception:
            failures.append({"trial": t, "law": "symmetry"})

        # relations tensor compatibly with the induced simplex maps
        r1 = rand_relation_into(r, c1)
        r2 = rand_relation_into(r, c2)
        tr = tensor_relation(r1, r2)
        m1 = r.choice(r1.source.maximal)
        m2 = r.choice(r2.source.maximal)
        if tr.induced(pair_simplex(m1, m2)) != \
                pair_simplex(r1.induced(m1), r2.induced(m2)):
            failures.append({"trial": t, "law": "tensor-relation"})

        # tensor of event scenarios is a valid scenario
        if t % 5 == 0:
            e1 = rand_event(r, max_contexts=2, max_context_size=2,
                            max_outcomes=2)
            e2 = rand_event(r, max_contexts=2, max_context_size=2,
                            max_outcomes=2)
            if not validate_event_scenario(tensor_event(e1, e2))["ok"]:
                failures.append({"trial": t, "law": "tensor-event"})
    return failures


def _swap_map(tc):
    return {v: pair_name(unpair_name(v)[1], unpair_name(v)[0])
            for v in tc.vertices}


def _tensor_of_maps(h1, h2):
    src = tensor_complex(h1.source, h2.source)
    tgt = tensor_complex(h1.target, h2.target)
    vm = {v: pair_name(h1.vertex_map[unpair_name(v)[0]],
                       h2.vertex_map[unpair_name(v)[1]])
          for v in src.vertices}
    return ComplexMap(src, tgt, vm)


# ---------------------------------------------------------------------------
# Equivalence round trips


def check_equivalence(trials, seed):
    r = make_rng(seed)
    failures = []
    for t in range(trials):
        # event -> elements -> event is isomorphic via outcome renaming
        scn = rand_event(r, max_contexts=2, max_context_size=3,
                         max_outcomes=2)
        bnd = elements(scn)
        if not validate_bundle(bnd)["ok"]:
            failures.append({"trial": t, "law": "elements-valid"})
            continue
        scn2 = to_event(bnd)
        ok = True
        rename = {}
        for sigma in scn.base.simplices():
            table = {s: skey(element_simplex(scn, sigma, s))
                     for s in scn.sets[sigma]}
            if sorted(table.values()) != sorted(scn2.sets[sigma]):
                ok = False
            rename[sigma] = table
        if ok:
            for (sigma, tau), tbl in scn.codim1.items():
                tbl2 = scn2.codim1[(sigma, tau)]
                for s in scn.sets[sigma]:
                    if tbl2[rename[sigma][s]] != rename[tau][tbl[s]]:
                        ok = False
        if not ok:
            failures.append({"trial": t, "law": "event-round-trip"})

        # bundle -> event -> elements is isomorphic over the same base
        bnd0 = rand_bundle(r, max_contexts=2, max_context_size=2,
                           max_outcomes=2)
        bnd1 = elements(to_event(bnd0))
        fwd = {v: element_name(bnd0.vmap[v], skey(frozenset([v])))
               for v in bnd0.total.vertices}
        try:
            bundle_iso(bnd0, bnd1, fwd)
        except Exception:
            failures.append({"trial": t, "law": "bundle-round-trip"})

        # pullback along a Kleisli composite is the iterated pullback
        rel1 = rand_relation_into(r, bnd0.base)
        rel2 = rand_relation_into(r, rel1.source)
        try:
            pullback_functoriality_iso(bnd0, rel1, rel2)
        except Exception:
            failures.append({"trial": t, "law": "pullback-functoriality"})
    return failures


# ---------------------------------------------------------------------------
# Mapping scenarios


def check_mapping(trials, seed):
    r = make_rng(seed)
    failures = []
    t = 0
    attempts = 0
    while t < trials and attempts < 20 * trials:
        attempts += 1
        scn_f = rand_event(r, max_contexts=1, max_context_size=2,
                           max_outcomes=2)
        scn_g = rand_event(r, max_contexts=1, max_context_size=2,
                           max_outcomes=2)
        try:
            bnd_f = elements(scn_f)
            bnd_g = elements(scn_g)
            mapped, _ = mapping_event_scenario(to_event(bnd_f),
                                               to_event(bnd_g), cap=50000)
        except ResourceLimitError:
            continue          # instance too large to enumerate; redraw
        except Exception:
            failures.append({"trial": t, "law": "mapping-built"})
            t += 1
            continue
        if not validate_event_scenario(mapped)["ok"]:
            failures.append({"trial": t, "law": "mapping-valid"})

        # agreement with the brute-force enumeration over the bundles
        sigma = r.choice(list(mapped.base.simplices()))
        direct = set()
        for pi, amap in enumerate_direct_mapping(bnd_f, bnd_g, sigma,
                                                 cap=50000):
            direct.add(direct_mapping_top(bnd_f, bnd_g, sigma, pi,
                                          amap).key())
        if direct != set(mapped.sets[sigma]):
            failures.append({"trial": t, "law": "mapping-direct-agreement"})
        t += 1
    return failures


SUITES = {
    "gluing": check_gluing,
    "monad": check_monad,
    "tensor": check_tensor,
    "equivalence": check_equivalence,
    "mapping": check_mapping,
}


def run_suite(name, trials, seed):
    if name not in SUITES:
        raise ValueError("unknown suite %r" % name)
    failures = SUITES[name](trials, seed)
    return {"suite": name, "trials": trials, "seed": seed,
            "ok": not failures, "failures": failures}
