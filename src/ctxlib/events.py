"""Event scenarios: finite contravariant functors on the face poset of a
simplicial complex, with validation, morphisms, tensor products, global
sections, the category-of-elements bridge, and the mapping scenario.

Restriction maps are supplied only for codimension-1 inclusions; all other
restrictions are composites, with path independence checked by validation.
"""

from collections.abc import Mapping
from itertools import product
from operator import add, itemgetter

from .complexes import (SimplicialComplex, identity_relation, kleisli_compose,
                        pair_name, project_simplex, simplex_lists, skey,
                        split_key, strings, tensor_complex)
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

    @classmethod
    def _of(cls, base, sets, codim1):
        """Tables known total on sets[sigma], in its order, into the faces."""
        scn = cls.__new__(cls)
        scn.base, scn.sets, scn.codim1, scn._res, scn._profiles = (
            base, sets, codim1, {}, {})
        return scn

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
        for key in sets:
            if frozenset(split_key(key)) not in base:
                raise DomainError("sets key %r is not a simplex of the base"
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


def _distinct_names(sigma, names, combos, what):
    """Raise when two of the distinct combos at sigma have one name."""
    owner = dict(zip(names, combos))
    if len(owner) < len(set(combos)):
        shared = next(n for n, c in zip(names, combos) if owner[n] != c)
        raise DomainError("two outcome %s at %s share the name %r"
                          % (what, skey(sigma), shared))


def event_presheaf(standard):
    """F(sigma) = product of the vertex outcome sets, with projections; two
    outcome tuples that product_outcome names alike are a DomainError."""
    base = standard.base
    sets, tables = {}, {}
    for sigma in base.simplices():
        verts = sorted(sigma)
        combos = list(product(*[standard.outcomes[x] for x in verts]))
        sets[sigma] = names = tuple(map(product_outcome, combos))
        _distinct_names(sigma, names, combos, "tuples")
        for tau in _codim1_faces(sigma):
            idx = [verts.index(x) for x in sorted(tau)]
            tables[(sigma, tau)] = {
                key: product_outcome([c[i] for i in idx])
                for key, c in zip(sets[sigma], combos)}
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

    def __init__(self, source, target, relation, components):
        self.source = source        # F over Sigma
        self.target = target        # G over Sigma'
        self.relation = relation    # Sigma' -> Sigma
        self.components = {frozenset(s): dict(m) for s, m in components.items()}
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
    return EventMorphism(scn, scn, identity_relation(scn.base), comps)


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
    """F1 (x) F2, with outcome pairs named pair_name(a, b); two pairs that it
    names alike are a DomainError."""
    base = tensor_complex(f1.base, f2.base)
    parts = {sigma: (project_simplex(sigma, 0), project_simplex(sigma, 1))
             for sigma in base.simplices()}
    sets, tables = {}, {}
    for sigma, (p1, p2) in parts.items():
        pairs = list(product(f1.sets[p1], f2.sets[p2]))
        sets[sigma] = names = tuple(pair_name(a, b) for a, b in pairs)
        _distinct_names(sigma, names, pairs, "pairs")
        for tau in _codim1_faces(sigma):
            r1 = f1.restriction_map(p1, parts[tau][0])
            r2 = f2.restriction_map(p2, parts[tau][1])
            tables[(sigma, tau)] = {pair_name(a, b): pair_name(r1[a], r2[b])
                                    for a, b in pairs}
    return EventScenario(base, sets, tables)


# ---------------------------------------------------------------------------
# Global sections


class GlobalSection:
    """A vertex assignment with its outcome at every maximal simplex, and at
    any other simplex restricted on demand from the first maximal one above.
    Built only by global_sections and on a witness's support: a check keeps
    its sections as section_join's tuples."""

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
            if sigma and sigma <= m:
                return self.scn.restrict(m, sigma, self.values[m])
        raise DomainError("%r is not a simplex of the base" % skey(sigma))

    def key(self):
        return ";".join("%s=%s" % (x, self.assignment[x])
                        for x in sorted(self.assignment))


def _picker(idx):
    """The function taking a tuple to the tuple of its entries at idx."""
    if len(idx) == 1:
        return lambda t, _i=idx[0]: (t[_i],)
    return itemgetter(*idx) if idx else lambda t: ()


def section_join(scn, cap=10 ** 6):
    """The global sections in key order, as (keys, outcomes, section):
    outcomes[t][j] is the j-th one's outcome at the t-th maximal simplex, and
    section(j) builds its GlobalSection.  A breadth-first join of vertex value
    tuples, each extended by the agreeing outcomes of the next maximal
    simplex; cap bounds the partial sections at every level.  Each key is
    joined once from x=v fragments; a key shared by two is a DomainError, as
    is a simplex with two outcomes of the same vertex values (locality)."""
    for sigma in scn.base.simplices():
        if len(scn.profile_index(sigma)) < len(scn.sets[sigma]):
            raise DomainError("locality fails at %s" % skey(sigma))
    pos, partials = {}, [()]    # pos: vertex -> its place in each tuple
    for m in scn.base.maximal:
        verts, index = sorted(m), scn.profile_index(m)
        old = [i for i, x in enumerate(verts) if x in pos]
        fixed = _picker(old)
        new = _picker([i for i, x in enumerate(verts) if x not in pos])
        extend = {}
        for profile in index:
            extend.setdefault(fixed(profile), []).append(new(profile))
        at = _picker([pos[verts[i]] for i in old])
        nxt = []
        for values in partials:
            for more in extend.get(at(values), ()):
                nxt.append(values + more)
            if len(nxt) > cap:
                raise ResourceLimitError(
                    "more than %d partial sections" % cap, cap=cap,
                    estimate=len(nxt), stage="global_sections")
        for x in verts:
            pos.setdefault(x, len(pos))
        partials = nxt
    cols = {x: list(map(itemgetter(p), partials)) for x, p in pos.items()}
    frags = [map({v: "%s=%s" % (x, v) for v in scn.sets[frozenset([x])]}
                 .__getitem__, cols[x]) for x in sorted(pos)]
    # no vertices leaves one section, keyed ""
    keys = list(map(";".join, zip(*frags))) or [""] * len(partials)
    if len(set(keys)) < len(keys):
        last = dict(zip(keys, range(len(keys))))
        shared = next(k for j, k in enumerate(keys) if last[k] != j)
        raise DomainError("two global sections share the key %r" % shared)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    cols = {x: list(map(col.__getitem__, order)) for x, col in cols.items()}
    maxs = scn.base.maximal
    outcomes = [list(map(scn.profile_index(m).__getitem__,
                         zip(*[cols[x] for x in sorted(m)]))) for m in maxs]
    return list(map(keys.__getitem__, order)), outcomes, lambda j: \
        GlobalSection(zip(pos, partials[order[j]]),
                      {m: o[j] for m, o in zip(maxs, outcomes)}, scn)


def global_sections(scn, cap=10 ** 6):
    """All global sections as GlobalSection objects, in key order."""
    keys, _, section = section_join(scn, cap)
    return list(map(section, range(len(keys))))


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
    """The bundle scenario of the category of elements; no top lies inside
    another (one size per maximal simplex, incomparable images across)."""
    from .bundles import BundleScenario
    names = {x: {s: element_name(x, s) for s in scn.sets[frozenset([x])]}
             for x in scn.base.vertices}
    owner = {v: x for x, name in names.items() for v in name.values()}
    if len(owner) < sum(map(len, names.values())):
        raise DomainError("two vertex elements share a name")
    tops = []
    for sigma in scn.base.maximal:
        cols = [(names[x], scn.restriction_map(sigma, [x])) for x in sigma]
        tops += [frozenset([name[down[s]] for name, down in cols])
                 for s in scn.sets[sigma]]
    total = SimplicialComplex._of(tops)
    return BundleScenario(total, scn.base,
                          {v: owner[v] for v in total.vertices})


# ---------------------------------------------------------------------------
# Mapping scenario [F, G]


def _namer(pi, dom):
    """The tags s> for s in the sorted dom, and the id of (pi, alpha) as a
    function of the entries tag + alpha(s)."""
    head = "(pi:%s|al:" % ";".join("%s>[%s]" % (x, skey(pi[x]))
                                   for x in sorted(pi))
    return [s + ">" for s in dom], lambda entries: (
        head + ";".join(entries) + ")")


class MappingElement:
    """A relation on one simplex plus the top component of a natural map."""

    __slots__ = ("sigma", "pi", "alpha", "_key")

    def __init__(self, sigma, pi, alpha):
        self.sigma = frozenset(sigma)
        self.pi = {x: frozenset(s) for x, s in pi.items()}
        self.alpha = dict(alpha)
        self._key = None

    @classmethod
    def _of(cls, sigma, pi, alpha, key):
        """An element from normalized parts and its id; pi may be shared."""
        elem = cls.__new__(cls)
        elem.sigma, elem.pi, elem.alpha, elem._key = sigma, pi, alpha, key
        return elem

    @property
    def domain(self):
        return frozenset().union(*self.pi.values())

    def key(self):
        if self._key is None:
            dom = sorted(self.alpha)
            tags, name = _namer(self.pi, dom)
            self._key = name(map(add, tags, map(self.alpha.get, dom)))
        return self._key


class _Registry(Mapping):
    """(sigma, id) -> the element of [F, G] behind the id, decoded on read
    from its family: pi(y) = u_y, and alpha(s) is the outcome of G(sigma)
    whose vertex profile is (beta_y(s|u_y))_y."""

    def __init__(self, byid, betas, scn_f, scn_g):
        self._byid, self._betas, self._f, self._g = byid, betas, scn_f, scn_g

    def __getitem__(self, key):
        sigma, name = key
        fam, f = self._byid[sigma][name], self._f
        pi = dict(zip(sorted(sigma), [w for w, _ in fam]))
        u = frozenset().union(*pi.values())
        cols = [(f.restriction_map(u, w),
                 dict(zip(f.sets[w], self._betas[x][w][i][1])))
                for x, (w, i) in zip(sorted(sigma), fam)]
        index = self._g.profile_index(sigma)
        return MappingElement._of(sigma, pi, {
            s: index[tuple(b[down[s]] for down, b in cols)]
            for s in sorted(f.sets[u])}, name)

    def __contains__(self, key):
        return key[1] in self._byid.get(key[0], ())

    def __iter__(self):
        return ((s, k) for s, ids in self._byid.items() for k in ids)

    def __len__(self):
        return sum(map(len, self._byid.values()))


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
    The registry decodes on read; the tables are built total, so unchecked.
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
    # beta_y on F(v) is a tuple of images in the order of F(v)
    betas = {y: {v: [((v, i), beta) for i, beta in enumerate(product(
                 scn_g.sets[frozenset([y])], repeat=len(scn_f.sets[v])))]
                 for v in f_sims}
             for y in base.vertices}
    families = {}   # sigma -> {((u_y, index into betas[y][u_y]), ...): key}
    byid, sets, tables = {}, {}, {}     # byid: sigma -> {key: family}
    for sigma in base.simplices():
        verts = sorted(sigma)
        by_stem = {}    # G(sigma) by the profile on all but the last vertex
        for p, t in scn_g.profile_index(sigma).items():
            by_stem.setdefault(p[:-1], {})[p[-1]] = t
        found = {}
        # extend each family on sigma minus its last vertex by one entry
        stems = families[sigma - {verts[-1]}] if len(sigma) > 1 else [()]
        for stem in stems:
            firsts = [dict(zip(scn_f.sets[w], betas[x][w][i][1]))
                      for x, (w, i) in zip(verts, stem)]
            for v in f_sims:
                u = v.union(*(w for w, _ in stem))
                if u not in scn_f.base:
                    continue
                downs = [scn_f.restriction_map(u, w) for w, _ in stem]
                # the read plan: s>alpha(s) = last[beta[r]] for s in dom
                dom = sorted(scn_f.sets[u])
                lasts = [by_stem.get(tuple(b[down[s]] for b, down in
                                           zip(firsts, downs))) for s in dom]
                if None in lasts:   # no outcome of G(sigma) extends the stem
                    continue
                down_v = scn_f.restriction_map(u, v)
                pi = dict(zip(verts, [w for w, _ in stem] + [v]))
                tags, name = _namer(pi, dom)
                plan = [(scn_f.sets[v].index(down_v[s]),
                         {b: tag + t for b, t in last.items()})
                        for s, tag, last in zip(dom, tags, lasts)]
                for vi, beta in betas[verts[-1]][v]:
                    entries = [last.get(beta[r]) for r, last in plan]
                    if None in entries:
                        continue
                    found[stem + (vi,)] = name(entries)
        families[sigma] = found
        byid[sigma] = ids = dict(sorted(zip(found.values(), found)))
        if len(ids) < len(found):
            shared = min(k for f, k in found.items() if ids[k] != f)
            raise DomainError("two elements of [F, G] over %s share the "
                              "outcome id %r" % (skey(sigma), shared))
        sets[sigma] = tuple(ids)
        # the face dropping the k-th vertex drops the k-th entry
        for k, tau in enumerate(_codim1_faces(sigma)):
            face = families[tau]
            tables[(sigma, tau)] = {key: face[fam[:k] + fam[k + 1:]]
                                    for key, fam in ids.items()}
    return (EventScenario._of(base, sets, tables),
            _Registry(byid, betas, scn_f, scn_g))
