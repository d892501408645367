"""Bundle scenarios: simplicial complex maps that are surjective on
simplices, star-locally surjective, and discrete over vertices.  Includes the
inverse functor to the category of elements, pullbacks along simplicial
relations, and the mapping bundle scenario computed via the event route.
"""

from itertools import product

from .complexes import (SimplicialComplex, SimplicialRelation, pair_name, skey,
                        simplex_from_key, unpair_name)
from .errors import DomainError, ResourceLimitError


class BundleScenario:
    """A total complex over a base, mapped vertexwise."""

    __slots__ = ("total", "base", "vmap", "_fibers")

    def __init__(self, total, base, vmap):
        self.total = total
        self.base = base
        self.vmap = dict(vmap)
        missing = set(total.vertices) - set(self.vmap)
        if missing:
            raise DomainError("bundle map not total, missing %s"
                              % sorted(missing))
        self._fibers = None

    def image(self, gamma):
        return frozenset(self.vmap[v] for v in gamma)

    def fibers(self):
        if self._fibers is None:
            fibs = {}
            for gamma in self.total.simplices():
                fibs.setdefault(self.image(gamma), []).append(gamma)
            for sigma in fibs:
                fibs[sigma].sort(key=skey)
            self._fibers = fibs
        return self._fibers

    def fiber(self, sigma):
        sigma = frozenset(sigma)
        if sigma not in self.base:
            raise DomainError("simplex %s not in base" % skey(sigma))
        return list(self.fibers().get(sigma, []))

    def __eq__(self, other):
        return (isinstance(other, BundleScenario)
                and self.total == other.total and self.base == other.base
                and self.vmap == other.vmap)

    def to_json(self):
        return {"kind": "bundle", "base": self.base.to_json(),
                "total": self.total.to_json(), "map": dict(self.vmap)}

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise DomainError("a bundle must be a JSON object")
        vmap = obj["map"]
        if not isinstance(vmap, dict) or \
                not all(isinstance(v, str) for v in vmap.values()):
            raise DomainError("map must send total vertices to base vertex "
                              "names")
        return cls(SimplicialComplex.from_json(obj["total"]),
                   SimplicialComplex.from_json(obj["base"]), dict(vmap))


def face_over(bnd, gamma, tau):
    """The face of gamma over tau; a bundle is discrete over vertices, so
    there is at most one."""
    face = frozenset(v for v in gamma if bnd.vmap[v] in tau)
    if bnd.image(face) != tau:
        raise DomainError("no face of %s lies over %s"
                          % (skey(gamma), skey(tau)))
    return face


def face_transport(bnd, sigma, tau):
    """r: fiber(sigma) -> fiber(tau), the unique face over tau."""
    sigma, tau = frozenset(sigma), frozenset(tau)
    if not tau <= sigma:
        raise DomainError("%s is not a face of %s" % (skey(tau), skey(sigma)))
    return {gamma: face_over(bnd, gamma, tau) for gamma in bnd.fiber(sigma)}


def validate_bundle(bnd):
    failures = []
    for m in bnd.total.maximal:
        if bnd.image(m) not in bnd.base:
            failures.append({"axiom": "simplicial", "simplex": skey(m)})
    if failures:
        return {"ok": False, "failures": failures}
    hit = set(bnd.fibers())
    for sigma in bnd.base.simplices():
        if sigma not in hit:
            failures.append({"axiom": "surjective-on-simplices",
                             "simplex": skey(sigma)})
    for gamma in bnd.total.simplices():
        below = bnd.image(gamma)
        for sigma in bnd.base.star(below):
            if not any(gamma <= g2 and bnd.image(g2) == sigma
                       for g2 in bnd.fibers().get(sigma, [])):
                failures.append({"axiom": "local-surjectivity",
                                 "simplex": skey(gamma), "star": skey(sigma)})
    for gamma in bnd.total.simplices():
        if len(gamma) == 2:
            u, v = sorted(gamma)
            if bnd.vmap[u] == bnd.vmap[v]:
                failures.append({"axiom": "discrete-over-vertices",
                                 "edge": skey(gamma)})
    return {"ok": not failures, "failures": failures}


def to_event(bnd):
    """The event scenario of fibers with face-transport restrictions."""
    from .events import EventScenario, _codim1_faces
    report = validate_bundle(bnd)
    if not report["ok"]:
        raise DomainError("invalid bundle: %s" % report["failures"][:3])
    sets, tables = {}, {}
    for sigma in bnd.base.simplices():
        sets[sigma] = tuple(map(skey, bnd.fiber(sigma)))
        for tau in _codim1_faces(sigma):
            tables[(sigma, tau)] = {skey(g): skey(h) for g, h in
                                    face_transport(bnd, sigma, tau).items()}
    return EventScenario(bnd.base, sets, tables)


# ---------------------------------------------------------------------------
# Pullback along a simplicial relation


def pullback_vertex(x, gamma):
    return pair_name(x, skey(gamma))


def pullback_bundle(bnd, rel):
    """Pull the bundle back along a relation into its base.

    Vertices are pairs (x, A) of a new-base vertex and a total simplex lying
    over its image simplex; a maximal simplex collects, over a maximal
    new-base simplex and one total simplex over its induced image, the unique
    faces over each vertex image.
    """
    if rel.target != bnd.base:
        raise DomainError("relation target is not the bundle base")
    maxs = []
    vmap = {}
    for sigma in rel.source.maximal:
        u = rel.induced(sigma)
        for gamma in bnd.fiber(u):
            fam = []
            for x in sorted(sigma):
                name = pullback_vertex(x, face_over(bnd, gamma, rel(x)))
                vmap[name] = x
                fam.append(name)
            maxs.append(frozenset(fam))
    total = SimplicialComplex(maxs)
    return BundleScenario(total, rel.source,
                          {v: vmap[v] for v in total.vertices})


def decode_pullback_vertex(name):
    x, key = unpair_name(name)
    return x, simplex_from_key(key)


def bundle_iso(src, dst, fwd):
    """Check that fwd is a vertex bijection giving an isomorphism of bundles
    over a common base; returns the inverse map or raises."""
    if src.base != dst.base:
        raise DomainError("bundles live over different bases")
    if sorted(fwd) != list(src.total.vertices):
        raise DomainError("iso candidate is not total")
    inv = {}
    for v, w in fwd.items():
        if w in inv:
            raise DomainError("iso candidate is not injective")
        inv[w] = v
    if sorted(inv) != list(dst.total.vertices):
        raise DomainError("iso candidate is not onto")
    for v in src.total.vertices:
        if dst.vmap[fwd[v]] != src.vmap[v]:
            raise DomainError("iso candidate does not commute with projections")
    for m in src.total.maximal:
        if frozenset(fwd[v] for v in m) not in dst.total:
            raise DomainError("iso candidate does not preserve simplices")
    for m in dst.total.maximal:
        if frozenset(inv[w] for w in m) not in src.total:
            raise DomainError("inverse does not preserve simplices")
    return inv


def pullback_functoriality_iso(bnd, rel1, rel2):
    """The canonical isomorphism between the pullback along a Kleisli
    composite and the iterated pullback; verified, returned as a vertex map
    from the iterated to the one-step total."""
    from .complexes import kleisli_compose
    one_step = pullback_bundle(bnd, kleisli_compose(rel1, rel2))
    first = pullback_bundle(bnd, rel1)
    iterated = pullback_bundle(first, rel2)
    fwd = {}
    for name in iterated.total.vertices:
        x2, family = decode_pullback_vertex(name)
        union = frozenset()
        for inner in family:
            _, gamma_part = decode_pullback_vertex(inner)
            union |= gamma_part
        fwd[name] = pullback_vertex(x2, union)
    bundle_iso(iterated, one_step, fwd)
    return one_step, iterated, fwd


# ---------------------------------------------------------------------------
# Lemma-style fiber identification for nerves


def union_of_family(family):
    return frozenset().union(*family)


def family_over(bnd, base_family, gamma):
    """Inverse of the union map: the faces of gamma over each member."""
    return frozenset(face_over(bnd, gamma, tau) for tau in base_family)


# ---------------------------------------------------------------------------
# Mapping bundle scenario


def mapping_bundle_scenario(bnd_f, bnd_g, cap=200000):
    """The bundle scenario of morphisms from f into restrictions of g,
    computed as the category of elements of the mapping event scenario of the
    fiber functors.  Returns (bundle, mapping scenario, element registry);
    the registry decodes an element only when it is read."""
    from .events import elements, mapping_event_scenario
    mapped, elems = mapping_event_scenario(to_event(bnd_f), to_event(bnd_g),
                                           cap=cap)
    return elements(mapped), mapped, elems


def _pi_choices(domain_cpx, sigma, cap):
    """Each map of sigma's vertices to simplices whose union is a simplex."""
    verts = sorted(sigma)
    sims = list(domain_cpx.simplices())
    count = len(sims) ** len(verts)
    if count > cap:
        raise ResourceLimitError("too many relation candidates", cap=cap,
                                 estimate=count,
                                 stage="enumerate_direct_mapping")
    for combo in product(sims, repeat=len(verts)):
        union = frozenset().union(*combo)
        if union in domain_cpx:
            yield dict(zip(verts, combo))


def enumerate_direct_mapping(bnd_f, bnd_g, sigma, cap=200000):
    """Brute-force enumeration of (pi, alpha) with alpha a full over-base
    morphism from the pulled-back total into the part of g over sigma.

    Used as an independent oracle against the event-route construction.
    """
    sigma = frozenset(sigma)
    delta_sigma = SimplicialComplex([sigma])
    out = []
    for pi in _pi_choices(bnd_f.base, sigma, cap):
        rel = SimplicialRelation(delta_sigma, bnd_f.base, pi)
        pb = pullback_bundle(bnd_f, rel)
        verts = list(pb.total.vertices)
        cands = []
        for name in verts:
            x, _ = decode_pullback_vertex(name)
            cands.append([w for w in bnd_g.total.vertices
                          if bnd_g.vmap[w] == x])
        count = 1
        for c in cands:
            count *= len(c)
            if count > cap:
                raise ResourceLimitError("too many candidate morphisms",
                                         cap=cap, estimate=count,
                                         stage="enumerate_direct_mapping")
        for choice in product(*cands):
            amap = dict(zip(verts, choice))
            if all(frozenset(amap[v] for v in m) in bnd_g.total
                   for m in pb.total.maximal):
                out.append((pi, amap))
    return out


def direct_mapping_top(bnd_f, bnd_g, sigma, pi, amap):
    """Extract the (sigma, pi, top-map) normal form of a direct morphism."""
    from .events import MappingElement
    sigma = frozenset(sigma)
    u = frozenset().union(*(pi[x] for x in sigma))
    alpha_top = {}
    for gamma in bnd_f.fiber(u):
        image = frozenset(
            amap[pullback_vertex(x, face_over(bnd_f, gamma, pi[x]))]
            for x in sorted(sigma))
        alpha_top[skey(gamma)] = skey(image)
    return MappingElement(sigma, pi, alpha_top)
