"""Seeded random generators for complexes, relations, scenarios, bundles,
distributions, and models.  Deterministic given the seed; shared by the law
suites and the test corpus."""

import random
from fractions import Fraction

from .complexes import SimplicialComplex, SimplicialRelation
from .dist import Dist
from .events import StandardScenario, event_presheaf, elements


def make_rng(seed):
    return random.Random(seed)


def rand_dist(r, items, denom=12):
    """A random rational distribution over the given items."""
    items = list(items)
    weights = [0] * len(items)
    for _ in range(denom):
        weights[r.randrange(len(items))] += 1
    return Dist([(x, Fraction(w, denom))
                 for x, w in zip(items, weights) if w])


def rand_subset(r, items):
    """Each item in with probability 1/2, drawn again while empty."""
    items = list(items)
    while True:
        picked = [x for x in items if r.random() < 0.5]
        if picked:
            return frozenset(picked)


def rand_complex(r, max_vertices=6, max_simplices=3):
    nv = r.randint(1, max_vertices)
    verts = ["v%d" % i for i in range(nv)]
    maxs = []
    for _ in range(r.randint(1, max_simplices)):
        maxs.append(rand_subset(r, verts))
    # make every vertex appear somewhere
    covered = frozenset().union(*maxs)
    for v in verts:
        if v not in covered:
            maxs.append(frozenset([v]))
    return SimplicialComplex(maxs)


def rand_relation_into(r, tgt):
    """A random relation from a fresh complex into tgt.

    Each of one to three groups of one to three fresh vertices maps into
    subsets of one maximal simplex of tgt, so unions over source simplices
    always land in tgt.
    """
    maxs = []
    vmap = {}
    counter = 0
    for _ in range(r.randint(1, 3)):
        m = r.choice(tgt.maximal)
        group = []
        for _ in range(r.randint(1, 3)):
            name = "w%d" % counter
            counter += 1
            vmap[name] = rand_subset(r, m)
            group.append(name)
        maxs.append(frozenset(group))
    src = SimplicialComplex(maxs)
    return SimplicialRelation(src, tgt, vmap)


def rand_relation(r, max_vertices=5, max_simplices=3):
    tgt = rand_complex(r, max_vertices, max_simplices)
    return rand_relation_into(r, tgt)


def rand_standard(r, max_contexts=3, max_context_size=3, max_outcomes=3):
    base = rand_complex(r, max_vertices=max_context_size + 2,
                        max_simplices=max_contexts)
    outcomes = {x: [str(k) for k in range(r.randint(2, max_outcomes))]
                for x in base.vertices}
    return StandardScenario([sorted(m) for m in base.maximal], outcomes)


def rand_event(r, **kw):
    return event_presheaf(rand_standard(r, **kw))


def rand_bundle(r, **kw):
    """A random valid bundle: the category of elements of a random event
    scenario of product type."""
    return elements(rand_event(r, **kw))


def rand_function(r, dom, cod):
    dom, cod = list(dom), list(cod)
    return {x: r.choice(cod) for x in dom}


def rand_lift(r, target, fibers):
    """A random distribution pushing forward to target: mass at each point of
    the target is spread over its fiber."""
    out = []
    for z, w in target.items():
        fib = list(fibers(z))
        local = len(fib) * 2
        counts = [0] * len(fib)
        for _ in range(local):
            counts[r.randrange(len(fib))] += 1
        for x, c in zip(fib, counts):
            if c:
                out.append((x, w * Fraction(c, local)))
    return Dist(out)


def rand_path_model(r, scn, order):
    """A random compatible model on a path scenario, built as a Markov chain
    along the listed vertices (so compatibility holds by construction), with
    weights in eighths at each step."""
    # order: vertex names along the path; contexts are consecutive pairs
    start = order[0]
    outcome_sets = {x: list(scn.sets[frozenset([x])]) for x in order}
    marg = rand_dist(r, outcome_sets[start], 8)
    dists = {}
    for a, b in zip(order, order[1:]):
        cond = {o: rand_dist(r, outcome_sets[b], 8)
                for o in outcome_sets[a]}
        pair = frozenset([a, b])
        joint = []
        for o, w in marg.items():
            for o2, w2 in cond[o].items():
                val = (o, o2) if a < b else (o2, o)
                joint.append((",".join(val), w * w2))
        dists[pair] = Dist(joint)
        marg = Dist([(o2, sum((w * w2 for o, w in marg.items()
                               for o2x, w2 in cond[o].items()
                               if o2x == o2), Fraction(0)))
                     for o2 in outcome_sets[b]])
    return dists
