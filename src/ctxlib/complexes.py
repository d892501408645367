"""Finite simplicial complexes, the nerve-complex monad, simplicial relations
with Kleisli composition, and the tensor product of complexes.

A simplex is a frozenset of vertex names (strings).  Complexes are stored by
their maximal simplices (an antichain); the downward closure is enumerated on
demand.  Vertex names read from JSON must be nonempty, have balanced brackets
and parentheses, and hold no "," or ";" outside them: simplex keys join names
with "," and nerve tuple ids join simplex keys with ";".  Generated names
(nerve vertices "[a,b]", pair vertices "(x|y)") keep their separators inside
brackets, so canonical keys stay unambiguous.
"""

from itertools import combinations

from .errors import CompositionError, DomainError

Simplex = frozenset


def _name_ok(name):
    """A vertex name must not break canonical keys: no top-level comma or
    semicolon, and brackets/parentheses must balance (generated names like
    "[a,b]" are fine because key splitting is bracket-aware)."""
    if not name:
        return False
    depth = 0
    for ch in name:
        if ch in "[(":
            depth += 1
        elif ch in "])":
            depth -= 1
            if depth < 0:
                return False
        elif ch in ",;" and depth == 0:
            return False
    return depth == 0


def skey(sigma):
    """Canonical key of a simplex: sorted vertex names joined by commas."""
    return ",".join(sorted(sigma))


def split_key(text, sep=","):
    """Split on sep, ignoring separators nested in brackets or parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "[(":
            depth += 1
        elif ch in "])":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def strings(obj):
    """Is obj a JSON list of strings?"""
    return isinstance(obj, list) and all(isinstance(v, str) for v in obj)


def simplex_lists(obj, what):
    """obj, if it is a JSON list of lists of vertex names; else DomainError."""
    if not isinstance(obj, list) or not all(map(strings, obj)):
        raise DomainError("%s must be a list of lists of vertex names" % what)
    return obj


def simplex_from_key(key):
    return frozenset(split_key(key))


def nonempty_subsets(sigma):
    items = sorted(sigma)
    return (frozenset(c) for r in range(1, len(items) + 1)
            for c in combinations(items, r))


def _antichain(simplices):
    """The inclusion-maximal sets: largest first, each kept unless a kept set
    through its smallest vertex contains it; the empty set only alone."""
    kept, through = [], {}
    for s in sorted(set(simplices), key=len, reverse=True):
        if not s:
            return kept or [s]      # the empty set sorts last
        if not any(s < t for t in through.get(min(s), ())):
            kept.append(s)
            for x in s:
                through.setdefault(x, []).append(s)
    return kept


class SimplicialComplex:
    """Downward-closed family of nonempty vertex sets, stored by maximals."""

    __slots__ = ("maximal", "vertices", "_simplices")

    def __init__(self, maximal, check_names=False):
        sims = [frozenset(s) for s in maximal]
        verts = frozenset().union(*sims)
        if not all(isinstance(v, str) for v in verts):
            raise DomainError("vertex names must be strings")
        maxs = _antichain(sims)
        if any(not s for s in maxs):
            raise DomainError("simplices must be nonempty")
        self.maximal = tuple(sorted(maxs, key=skey))
        if check_names:
            for v in verts:
                if not _name_ok(v):
                    raise DomainError(
                        "vertex name %r would break canonical keys" % (v,))
        self.vertices = tuple(sorted(verts))
        self._simplices = None

    @classmethod
    def _of(cls, maximal):
        """Nonempty, pairwise incomparable simplices; repeats are merged."""
        cpx, maxs = cls.__new__(cls), set(maximal)
        cpx.maximal = tuple(sorted(maxs, key=skey))
        cpx.vertices = tuple(sorted(frozenset().union(*maxs)))
        cpx._simplices = None
        return cpx

    def __contains__(self, sigma):
        sigma = frozenset(sigma)
        return bool(sigma) and any(sigma <= m for m in self.maximal)

    def simplices(self):
        """All simplices in canonical order (by dimension, then key)."""
        if self._simplices is None:
            seen = set()
            for m in self.maximal:
                seen.update(nonempty_subsets(m))
            self._simplices = tuple(
                sorted(seen, key=lambda s: (len(s), skey(s))))
        return self._simplices

    def star(self, sigma):
        sigma = frozenset(sigma)
        if sigma not in self:
            raise DomainError("simplex %s not in complex" % skey(sigma))
        return [t for t in self.simplices() if sigma <= t]

    def dim(self):
        return max(len(m) for m in self.maximal) - 1

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and self.maximal == other.maximal)

    def __hash__(self):
        return hash(self.maximal)

    def __repr__(self):
        return "SimplicialComplex(%s)" % ([sorted(m) for m in self.maximal],)

    def to_json(self):
        return {"vertices": list(self.vertices),
                "maximal": [sorted(m) for m in self.maximal]}

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise DomainError("a complex must be a JSON object")
        cpx = cls(simplex_lists(obj["maximal"], "maximal"), check_names=True)
        declared = obj.get("vertices")
        if declared is not None and (not strings(declared) or
                                     sorted(declared) != list(cpx.vertices)):
            raise DomainError("declared vertex list disagrees with maximals")
        return cpx


# ---------------------------------------------------------------------------
# Nerve complex


def nerve_name(sigma):
    """Vertex name in the nerve complex for a simplex of the base."""
    return "[" + skey(sigma) + "]"


def nerve_unname(name):
    if not (name.startswith("[") and name.endswith("]")):
        raise DomainError("not a nerve vertex name: %r" % name)
    return frozenset(split_key(name[1:-1]))


def nerve_complex(cpx):
    """Vertices are simplices of the base; a family of simplices is a simplex
    iff its union is a simplex of the base.  Maximal simplices come one per
    maximal base simplex: the full family of its nonempty subsets."""
    maxs = [frozenset(nerve_name(s) for s in nonempty_subsets(m))
            for m in cpx.maximal]
    return SimplicialComplex(maxs)


class ComplexMap:
    """A simplicial-complex map: vertices to vertices, simplices to simplices."""

    __slots__ = ("source", "target", "vertex_map")

    def __init__(self, source, target, vertex_map):
        self.source = source
        self.target = target
        self.vertex_map = dict(vertex_map)
        missing = set(source.vertices) - set(self.vertex_map)
        if missing:
            raise DomainError("map not total, missing %s" % sorted(missing))
        for m in source.maximal:
            if self.image(m) not in target:
                raise DomainError(
                    "image of %s is not a simplex of the target" % skey(m))

    def __call__(self, x):
        return self.vertex_map[x]

    def image(self, sigma):
        return frozenset(self.vertex_map[x] for x in sigma)

    def compose(self, other):
        """self after other."""
        if other.target != self.source:
            raise CompositionError("complex maps do not compose")
        return ComplexMap(other.source, self.target,
                          {x: self.vertex_map[other.vertex_map[x]]
                           for x in other.source.vertices})

    def __eq__(self, other):
        return (isinstance(other, ComplexMap)
                and self.source == other.source
                and self.target == other.target
                and all(self.vertex_map[x] == other.vertex_map[x]
                        for x in self.source.vertices))

    def __hash__(self):
        return hash((self.source, self.target,
                     tuple(sorted(self.vertex_map.items()))))


def nerve_of_map(h):
    """The nerve functor on complex maps: [sigma] goes to [h(sigma)]."""
    src = nerve_complex(h.source)
    tgt = nerve_complex(h.target)
    vm = {v: nerve_name(h.image(nerve_unname(v))) for v in src.vertices}
    return ComplexMap(src, tgt, vm)


def unit_map(cpx):
    """The monad unit as a complex map into the nerve: x to [x]."""
    return ComplexMap(cpx, nerve_complex(cpx),
                      {x: nerve_name(frozenset([x])) for x in cpx.vertices})


def mult_map(cpx):
    """The monad multiplication: a vertex of the double nerve (a family of
    simplices of the base) goes to the union of its members."""
    n1 = nerve_complex(cpx)
    n2 = nerve_complex(n1)
    vm = {}
    for v in n2.vertices:
        family = nerve_unname(v)
        union = frozenset()
        for member in family:
            union |= nerve_unname(member)
        vm[v] = nerve_name(union)
    return ComplexMap(n2, n1, vm)


# ---------------------------------------------------------------------------
# Simplicial relations (Kleisli morphisms into the nerve)


class SimplicialRelation:
    """Assigns to each source vertex a simplex of the target, such that every
    source simplex has its pointwise union land in the target."""

    __slots__ = ("source", "target", "vertex_map")

    def __init__(self, source, target, vertex_map):
        self.source = source
        self.target = target
        self.vertex_map = {x: frozenset(s) for x, s in vertex_map.items()}
        missing = set(source.vertices) - set(self.vertex_map)
        if missing:
            raise DomainError(
                "relation not total, missing %s" % sorted(missing))
        for m in source.maximal:
            if self.induced(m) not in target:
                raise DomainError(
                    "union over %s is not a simplex of the target" % skey(m))

    def __call__(self, x):
        return self.vertex_map[x]

    def induced(self, sigma):
        """The induced simplex map: sigma to the union of its vertex images."""
        out = frozenset()
        for x in sigma:
            out |= self.vertex_map[x]
        return out

    def __eq__(self, other):
        return (isinstance(other, SimplicialRelation)
                and self.source == other.source
                and self.target == other.target
                and all(self.vertex_map[x] == other.vertex_map[x]
                        for x in self.source.vertices))

    def __hash__(self):
        return hash((self.source, self.target,
                     tuple(sorted((x, skey(s))
                                  for x, s in self.vertex_map.items()))))

    def to_json(self):
        return {"source": self.source.to_json(),
                "target": self.target.to_json(),
                "map": {x: sorted(s) for x, s in self.vertex_map.items()}}

    @classmethod
    def from_json(cls, obj):
        return cls(SimplicialComplex.from_json(obj["source"]),
                   SimplicialComplex.from_json(obj["target"]),
                   {x: frozenset(s) for x, s in obj["map"].items()})


def identity_relation(cpx):
    """The Kleisli identity: x to {x}."""
    return SimplicialRelation(cpx, cpx,
                              {x: frozenset([x]) for x in cpx.vertices})


def kleisli_compose(rel1, rel2):
    """Composite of rel1 (middle to target) after rel2 (source to middle)."""
    if rel2.target != rel1.source:
        raise CompositionError("relations do not compose")
    vm = {x: rel1.induced(rel2(x)) for x in rel2.source.vertices}
    return SimplicialRelation(rel2.source, rel1.target, vm)


# ---------------------------------------------------------------------------
# Tensor product


def pair_name(x, y):
    return "(%s|%s)" % (x, y)


def unpair_name(name):
    if not (name.startswith("(") and name.endswith(")")):
        raise DomainError("not a pair vertex name: %r" % name)
    parts = split_key(name[1:-1], sep="|")
    if len(parts) != 2:
        raise DomainError("not a pair vertex name: %r" % name)
    return parts[0], parts[1]


def pair_simplex(sigma, tau):
    return frozenset(pair_name(x, y) for x in sigma for y in tau)


def project_simplex(sigma, which):
    return frozenset(unpair_name(v)[which] for v in sigma)


def tensor_complex(cpx1, cpx2):
    """Vertices are pairs; a set of pairs is a simplex iff both projections
    are simplices.  Maximal simplices are products of maximal simplices."""
    maxs = [pair_simplex(m1, m2)
            for m1 in cpx1.maximal for m2 in cpx2.maximal]
    return SimplicialComplex(maxs)


def tensor_relation(rel1, rel2):
    src = tensor_complex(rel1.source, rel2.source)
    tgt = tensor_complex(rel1.target, rel2.target)
    vm = {}
    for x in rel1.source.vertices:
        for y in rel2.source.vertices:
            vm[pair_name(x, y)] = pair_simplex(rel1(x), rel2(y))
    return SimplicialRelation(src, tgt, vm)


def tensor_comparison_map(cpx1, cpx2):
    """The monoidal comparison: nerve(A) (x) nerve(B) to nerve(A (x) B),
    sending a pair of simplices to their product simplex."""
    src = tensor_complex(nerve_complex(cpx1), nerve_complex(cpx2))
    tgt = nerve_complex(tensor_complex(cpx1, cpx2))
    vm = {}
    for v in src.vertices:
        a, b = unpair_name(v)
        vm[v] = nerve_name(pair_simplex(nerve_unname(a), nerve_unname(b)))
    return ComplexMap(src, tgt, vm)
