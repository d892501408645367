"""Event scenarios: finite contravariant functors on the face poset of a
simplicial complex, with validation, morphisms, tensor products, global
sections, the category-of-elements bridge, and the mapping scenario.

Restriction maps are supplied only for codimension-1 inclusions; all other
restrictions are composites, with path independence checked by validation.
"""

from itertools import combinations, product

from .complexes import (SimplicialComplex, identity_relation, kleisli_compose,
                        pair_name, simplex_lists, skey, split_key,
                        strings, tensor_complex, unpair_name)
from .errors import CompositionError, DomainError, ResourceLimitError


def _codim1_faces(sigma):
    return [sigma - {x} for x in sorted(sigma)] if len(sigma) > 1 else []


class EventScenario:
    """Outcome sets per simplex plus codimension-1 restriction tables.

    The constructor demands well-formed tables (an outcome set for every
    simplex, total codim-1 maps with values in the face's set) and
    deterministically closes them under composition.  The three axioms are
    checked by validate_event_scenario, which reports rather than raises.
    """

    __slots__ = ("base", "sets", "codim1", "_res", "_profiles")

    def __init__(self, base, sets, codim1):
        self.base = base
        self.sets = {}
        for sigma in base.simplices():
            if sigma not in sets:
                raise DomainError("no outcome set for %s" % skey(sigma))
            self.sets[sigma] = tuple(sets[sigma])
        self.codim1 = {}
        for sigma in base.simplices():
            for tau in _codim1_faces(sigma):
                table = codim1.get((sigma, tau))
                if table is None:
                    raise DomainError(
                        "missing restriction %s > %s" % (skey(sigma), skey(tau)))
                tset = set(self.sets[tau])
                for s in self.sets[sigma]:
                    if s not in table:
                        raise DomainError(
                            "restriction %s > %s undefined at %r"
                            % (skey(sigma), skey(tau), s))
                    if table[s] not in tset:
                        raise DomainError(
                            "restriction %s > %s maps %r outside the face set"
                            % (skey(sigma), skey(tau), s))
                self.codim1[(sigma, tau)] = {s: table[s]
                                             for s in self.sets[sigma]}
        self._res = {}
        self._profiles = {}

    def restriction_map(self, sigma, tau):
        """The composite restriction F(sigma) -> F(tau) for tau <= sigma."""
        sigma, tau = frozenset(sigma), frozenset(tau)
        if sigma == tau:
            return {s: s for s in self.sets[sigma]}
        if not tau < sigma:
            raise DomainError("%s is not a face of %s" % (skey(tau), skey(sigma)))
        key = (sigma, tau)
        if key not in self._res:
            if len(sigma) - len(tau) == 1:
                self._res[key] = self.codim1[key]
            else:
                # deterministic path: drop the smallest vertex not in tau
                x = min(sorted(sigma - tau))
                mid = sigma - {x}
                first = self.codim1[(sigma, mid)]
                rest = self.restriction_map(mid, tau)
                self._res[key] = {s: rest[first[s]] for s in self.sets[sigma]}
        return self._res[key]

    def restrict(self, sigma, tau, s):
        return self.restriction_map(sigma, tau)[s]

    def vertex_profile(self, sigma, s):
        """Restrictions of s to each vertex of sigma, in sorted vertex order."""
        sigma = frozenset(sigma)
        return tuple(self.restrict(sigma, frozenset([x]), s)
                     for x in sorted(sigma))

    def profile_index(self, sigma):
        sigma = frozenset(sigma)
        if sigma not in self._profiles:
            self._profiles[sigma] = {self.vertex_profile(sigma, s): s
                                     for s in self.sets[sigma]}
        return self._profiles[sigma]

    def __eq__(self, other):
        return (isinstance(other, EventScenario)
                and self.base == other.base
                and self.sets == other.sets
                and self.codim1 == other.codim1)

    def to_json(self):
        return {
            "kind": "event",
            "complex": self.base.to_json(),
            "sets": {skey(s): list(v) for s, v in self.sets.items()},
            "restrictions": {
                "%s>%s" % (skey(s), skey(t)): dict(m)
                for (s, t), m in sorted(self.codim1.items(),
                                        key=lambda kv: (skey(kv[0][0]),
                                                        skey(kv[0][1])))},
        }

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise DomainError("an event scenario must be a JSON object")
        base = SimplicialComplex.from_json(obj["complex"])
        sets, tables = obj["sets"], obj.get("restrictions", {})
        if not isinstance(sets, dict) or \
                not all(map(strings, sets.values())):
            raise DomainError("sets must map simplex keys to lists of "
                              "outcome strings")
        if not isinstance(tables, dict) or \
                not all(isinstance(t, dict) and strings(list(t.values()))
                        for t in tables.values()):
            raise DomainError("restrictions must map <simplex>><face> keys "
                              "to objects of outcomes")
        pairs = {"%s>%s" % (skey(sigma), skey(tau)): (sigma, tau)
                 for sigma in base.simplices()
                 for tau in _codim1_faces(sigma)}
        for key in tables:
            if key not in pairs:
                raise DomainError("restriction key %r is not <simplex>><face> "
                                  "for a codimension-1 face of the base"
                                  % (key,))
        sets = {frozenset(split_key(k)): tuple(v) for k, v in sets.items()}
        return cls(base, sets, {pairs[k]: dict(t) for k, t in tables.items()})


def validate_event_scenario(scn):
    """Check non-triviality, distinct outcomes, local surjectivity (with
    path independence), and locality via the vertex-product criterion.
    Returns a report."""
    failures = []
    for sigma in scn.base.simplices():
        if not scn.sets[sigma]:
            failures.append({"axiom": "non-triviality", "simplex": skey(sigma)})
        elif len(set(scn.sets[sigma])) != len(scn.sets[sigma]):
            failures.append({"axiom": "distinct-outcomes",
                             "simplex": skey(sigma)})
    for (sigma, tau), table in scn.codim1.items():
        if set(table.values()) != set(scn.sets[tau]):
            failures.append({"axiom": "local-surjectivity",
                             "simplex": skey(sigma), "face": skey(tau)})
    # path independence: every codim-1 first step gives the same composite
    for sigma in scn.base.simplices():
        if len(sigma) < 3:
            continue
        for tau in scn.base.simplices():
            if not tau < sigma or len(sigma) - len(tau) < 2:
                continue
            reference = scn.restriction_map(sigma, tau)
            for x in sorted(sigma - tau):
                mid = sigma - {x}
                step = scn.codim1[(sigma, mid)]
                rest = scn.restriction_map(mid, tau)
                if any(rest[step[s]] != reference[s] for s in scn.sets[sigma]):
                    failures.append({"axiom": "functoriality",
                                     "simplex": skey(sigma),
                                     "face": skey(tau), "via": x})
    for sigma in scn.base.simplices():
        if len(sigma) < 2:
            continue
        profiles = [scn.vertex_profile(sigma, s) for s in scn.sets[sigma]]
        if len(set(profiles)) != len(profiles):
            failures.append({"axiom": "locality", "simplex": skey(sigma)})
    return {"ok": not failures, "failures": failures}


def intersection_cover_objects(cover):
    """All nonempty intersections of nonempty subfamilies of the cover."""
    cover = [frozenset(c) for c in cover]
    out = set()
    for r in range(1, len(cover) + 1):
        for picks in combinations(cover, r):
            inter = frozenset.intersection(*picks)
            if inter:
                out.add(inter)
    return sorted(out, key=lambda s: (len(s), skey(s)))


def cover_profile(scn, sigma, cover):
    """Restriction profile of each outcome at sigma over the intersection
    diagram of the cover; used to cross-check the locality criterion."""
    objs = intersection_cover_objects(cover)
    sigma = frozenset(sigma)
    return {s: tuple(scn.restrict(sigma, tau, s) for tau in objs)
            for s in scn.sets[sigma]}


# ---------------------------------------------------------------------------
# Standard scenarios and the event presheaf


class StandardScenario:
    """A measurement cover plus per-vertex outcome sets."""

    def __init__(self, contexts, outcomes):
        self.base = SimplicialComplex(contexts)
        self.outcomes = {x: tuple(outcomes[x]) for x in self.base.vertices}
        for x, vals in self.outcomes.items():
            if not vals:
                raise DomainError("empty outcome set at %s" % x)

    def to_json(self):
        return {"kind": "standard",
                "contexts": [sorted(m) for m in self.base.maximal],
                "outcomes": {x: list(v) for x, v in self.outcomes.items()}}

    @classmethod
    def from_json(cls, obj):
        outcomes = obj["outcomes"]
        if not isinstance(outcomes, dict) or \
                not all(map(strings, outcomes.values())):
            raise DomainError("outcomes must map vertices to lists of "
                              "outcome strings")
        base = SimplicialComplex(simplex_lists(obj["contexts"], "contexts"),
                                 check_names=True)
        return cls(base.maximal, outcomes)


def product_outcome(components):
    return ",".join(components)


def event_presheaf(standard):
    """F(sigma) = product of the vertex outcome sets, with projections."""
    base = standard.base
    sets = {}
    tables = {}
    for sigma in base.simplices():
        verts = sorted(sigma)
        combos = list(product(*[standard.outcomes[x] for x in verts]))
        if len(sigma) == 1:
            sets[sigma] = tuple(c[0] for c in combos)
        else:
            sets[sigma] = tuple(product_outcome(c) for c in combos)
        for tau in _codim1_faces(sigma):
            tverts = sorted(tau)
            idx = [verts.index(x) for x in tverts]
            table = {}
            for c in combos:
                key = c[0] if len(sigma) == 1 else product_outcome(c)
                sub = tuple(c[i] for i in idx)
                table[key] = sub[0] if len(tau) == 1 else product_outcome(sub)
            tables[(sigma, tau)] = table
    return EventScenario(base, sets, tables)


# ---------------------------------------------------------------------------
# Reindexing and morphisms


def reindex(scn, rel):
    """Precompose with the induced simplex map of a relation into the base."""
    if rel.target != scn.base:
        raise DomainError("relation target is not the scenario base")
    base = rel.source
    sets = {}
    tables = {}
    for sigma in base.simplices():
        sets[sigma] = scn.sets[rel.induced(sigma)]
        for tau in _codim1_faces(sigma):
            tables[(sigma, tau)] = scn.restriction_map(rel.induced(sigma),
                                                       rel.induced(tau))
    return EventScenario(base, sets, tables)


class EventMorphism:
    """A relation between the bases plus components over each target simplex."""

    __slots__ = ("source", "target", "relation", "components")

    def __init__(self, source, target, relation, components, check=True):
        self.source = source        # F over Sigma
        self.target = target        # G over Sigma'
        self.relation = relation    # Sigma' -> Sigma
        self.components = {frozenset(s): dict(m) for s, m in components.items()}
        if check:
            if relation.source != target.base or relation.target != source.base:
                raise DomainError("relation does not match the scenario bases")
            for sigma in target.base.simplices():
                comp = self.components.get(sigma)
                if comp is None:
                    raise DomainError("missing component at %s" % skey(sigma))
                u = relation.induced(sigma)
                gset = set(target.sets[sigma])
                for s in source.sets[u]:
                    if comp.get(s) not in gset:
                        raise DomainError(
                            "component at %s is not a map F(%s) -> G(%s)"
                            % (skey(sigma), skey(u), skey(sigma)))

    def component(self, sigma):
        return self.components[frozenset(sigma)]


def validate_event_morphism(mor):
    """Naturality squares for all codimension-1 inclusions."""
    failures = []
    f, g, rel = mor.source, mor.target, mor.relation
    for (sigma, tau) in g.codim1:
        u, v = rel.induced(sigma), rel.induced(tau)
        down = g.restriction_map(sigma, tau)
        left = f.restriction_map(u, v)
        top = mor.component(sigma)
        bot = mor.component(tau)
        for s in f.sets[u]:
            if down[top[s]] != bot[left[s]]:
                failures.append({"square": (skey(sigma), skey(tau)),
                                 "at": s})
    return {"ok": not failures, "failures": failures}


def identity_event_morphism(scn):
    comps = {sigma: {s: s for s in scn.sets[sigma]}
             for sigma in scn.base.simplices()}
    return EventMorphism(scn, scn, identity_relation(scn.base), comps,
                         check=False)


def compose_event_morphisms(m1, m2):
    """m1: F -> G, m2: G -> H; the composite runs F -> H."""
    if m2.source is not m1.target and m2.source != m1.target:
        raise CompositionError("event morphisms do not compose")
    rel = kleisli_compose(m1.relation, m2.relation)
    comps = {}
    for sigma in m2.target.base.simplices():
        mid = m2.relation.induced(sigma)
        first = m1.component(mid)
        second = m2.component(sigma)
        u = rel.induced(sigma)
        comps[sigma] = {s: second[first[s]] for s in m1.source.sets[u]}
    return EventMorphism(m1.source, m2.target, rel, comps)


# ---------------------------------------------------------------------------
# Tensor product


def tensor_event(f1, f2):
    base = tensor_complex(f1.base, f2.base)
    sets = {}
    tables = {}
    parts = {}
    for sigma in base.simplices():
        p1 = frozenset(unpair_name(v)[0] for v in sigma)
        p2 = frozenset(unpair_name(v)[1] for v in sigma)
        parts[sigma] = (p1, p2)
        sets[sigma] = tuple(pair_name(a, b)
                            for a in f1.sets[p1] for b in f2.sets[p2])
    for sigma in base.simplices():
        p1, p2 = parts[sigma]
        for tau in _codim1_faces(sigma):
            q1, q2 = parts[tau]
            r1 = f1.restriction_map(p1, q1)
            r2 = f2.restriction_map(p2, q2)
            tables[(sigma, tau)] = {
                pair_name(a, b): pair_name(r1[a], r2[b])
                for a in f1.sets[p1] for b in f2.sets[p2]}
    return EventScenario(base, sets, tables)


# ---------------------------------------------------------------------------
# Global sections


class GlobalSection:
    """A vertex assignment together with its outcome at every maximal
    simplex; at any other simplex the outcome is restricted on demand from
    the first maximal simplex above it."""

    __slots__ = ("assignment", "values", "scn")

    def __init__(self, assignment, values, scn):
        self.assignment = dict(assignment)
        self.values = values
        self.scn = scn

    def value_at(self, sigma):
        sigma = frozenset(sigma)
        if sigma in self.values:
            return self.values[sigma]
        for m in self.scn.base.maximal:
            if sigma <= m:
                return self.scn.restrict(m, sigma, self.values[m])
        raise DomainError("%s is not a simplex of the base" % skey(sigma))

    def key(self):
        return ";".join("%s=%s" % (x, self.assignment[x])
                        for x in sorted(self.assignment))

    def __eq__(self, other):
        return isinstance(other, GlobalSection) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "GlobalSection(%s)" % self.key()


def global_sections(scn, cap=10 ** 6):
    """All vertex assignments lifting at every maximal simplex, by key.

    A breadth-first join: all partial sections have fixed the same vertices,
    and each is extended only by the outcomes of the next maximal simplex
    that agree there.  cap bounds the partial sections at every level."""
    pos = {}                    # vertex -> its place in each value tuple
    partials = [((), ())]       # (values at the fixed vertices, outcomes)
    for m in scn.base.maximal:
        verts = sorted(m)
        old = [i for i, x in enumerate(verts) if x in pos]
        new = [i for i, x in enumerate(verts) if x not in pos]
        extend = {}
        for profile, s in scn.profile_index(m).items():
            extend.setdefault(tuple(profile[i] for i in old), []).append(
                (tuple(profile[i] for i in new), s))
        at = [pos[verts[i]] for i in old]
        nxt = []
        for values, chosen in partials:
            for more, s in extend.get(tuple(values[j] for j in at), ()):
                nxt.append((values + more, chosen + (s,)))
            if len(nxt) > cap:
                raise ResourceLimitError(
                    "more than %d partial sections" % cap, cap=cap,
                    estimate=len(nxt), stage="global_sections")
        for i in new:
            pos[verts[i]] = len(pos)
        partials = nxt
    out = [GlobalSection(zip(pos, values),
                         dict(zip(scn.base.maximal, chosen)), scn)
           for values, chosen in partials]
    out.sort(key=lambda s: s.key())
    return out


# ---------------------------------------------------------------------------
# Category of elements


def element_name(x, s):
    """Total-space vertex name for outcome s at base vertex x."""
    return pair_name(x, s)


def element_simplex(scn, sigma, s):
    """The simplex of elements(scn) that stands for outcome s at sigma: each
    vertex of sigma paired with the restriction of s to it."""
    return frozenset(map(element_name, sorted(sigma),
                         scn.vertex_profile(sigma, s)))


def elements(scn):
    """The bundle scenario of the category of elements."""
    from .bundles import BundleScenario
    total = SimplicialComplex([element_simplex(scn, sigma, s)
                               for sigma in scn.base.maximal
                               for s in scn.sets[sigma]])
    vmap = {v: unpair_name(v)[0] for v in total.vertices}
    return BundleScenario(total, scn.base, vmap)


# ---------------------------------------------------------------------------
# Mapping scenario [F, G]


class MappingElement:
    """A relation on one simplex plus the top component of a natural map."""

    __slots__ = ("sigma", "pi", "alpha", "_key")

    def __init__(self, sigma, pi, alpha):
        self.sigma = frozenset(sigma)
        self.pi = {x: frozenset(s) for x, s in pi.items()}
        self.alpha = dict(alpha)
        self._key = None

    @property
    def domain(self):
        out = frozenset()
        for s in self.pi.values():
            out |= s
        return out

    def key(self):
        if self._key is None:
            pipart = ";".join("%s>[%s]" % (x, skey(self.pi[x]))
                              for x in sorted(self.pi))
            alpart = ";".join("%s>%s" % (s, self.alpha[s])
                              for s in sorted(self.alpha))
            self._key = "(pi:%s|al:%s)" % (pipart, alpart)
        return self._key

    def __eq__(self, other):
        return isinstance(other, MappingElement) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def mapping_event_scenario(scn_f, scn_g, cap=200000):
    """The event scenario [F, G] over the base of G, together with a registry
    decoding each outcome id back to its (sigma, pi, alpha) element.

    Over a vertex y an element is a simplex u_y of F's base with any map
    beta_y: F(u_y) -> G(y).  Over sigma it is one vertex element per vertex,
    the u_y joining to a simplex u, such that for every s in F(u) the values
    beta_y(s|u_y) are the vertex profile of an outcome alpha(s) of G(sigma).
    For valid F and G these are exactly the natural maps (pi, alpha).  The
    cap bounds |simplices of F|^|sigma| and |G(sigma)|^|F(u)|, and is
    checked before the inputs are validated.
    """
    base, f_sims = scn_g.base, scn_f.base.simplices()
    widest = max((len(scn_f.sets[u]) for u in f_sims), default=0)
    for sigma in base.simplices():
        codom = len(scn_g.sets[sigma])
        for count, what in (
                (len(f_sims) ** len(sigma), "too many relation candidates"),
                (codom ** widest,
                 "function space %d^%d over cap" % (codom, widest))):
            if count > cap:
                raise ResourceLimitError(what, cap=cap, estimate=count,
                                         stage="mapping_event_scenario")
    for name, scn in (("F", scn_f), ("G", scn_g)):
        report = validate_event_scenario(scn)
        if not report["ok"]:
            raise DomainError("[F, G] needs valid event scenarios; %s fails "
                              "%s" % (name, report["failures"][:3]))
    betas = {y: {v: [dict(zip(scn_f.sets[v], images)) for images in product(
                 scn_g.sets[frozenset([y])], repeat=len(scn_f.sets[v]))]
                 for v in f_sims}
             for y in base.vertices}
    families = {}   # sigma -> {((u_y, index into betas[y][u_y]), ...): key}
    elems, sets, tables = {}, {}, {}
    for sigma in base.simplices():
        verts = sorted(sigma)
        index = scn_g.profile_index(sigma)
        found = {}
        # extend each family on sigma minus its last vertex by one entry
        stems = families[sigma - {verts[-1]}] if len(sigma) > 1 else [()]
        for stem in stems:
            firsts = [betas[y][w][i] for y, (w, i) in zip(verts, stem)]
            joined = frozenset().union(*(w for w, _ in stem))
            for v in f_sims:
                u = joined | v
                if u not in scn_f.base:
                    continue
                downs = [scn_f.restriction_map(u, w) for w, _ in stem]
                downs.append(scn_f.restriction_map(u, v))
                for i, beta in enumerate(betas[verts[-1]][v]):
                    cols = list(zip(firsts + [beta], downs))
                    profiles = [tuple(b[down[s]] for b, down in cols)
                                for s in scn_f.sets[u]]
                    if not all(p in index for p in profiles):
                        continue
                    fam = stem + ((v, i),)
                    elem = MappingElement(
                        sigma, {y: w for y, (w, _) in zip(verts, fam)},
                        {s: index[p] for s, p in zip(scn_f.sets[u], profiles)})
                    found[fam] = elem.key()
                    elems[(sigma, elem.key())] = elem
        families[sigma] = found
        sets[sigma] = tuple(sorted(found.values()))
        # the face dropping the k-th vertex drops the k-th entry
        for k, tau in enumerate(_codim1_faces(sigma)):
            tables[(sigma, tau)] = {key: families[tau][fam[:k] + fam[k + 1:]]
                                    for fam, key in found.items()}
    return EventScenario(base, sets, tables), elems
