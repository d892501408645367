"""Truncated simplicial sets and simplicial scenarios.

Simplicial sets are tabled per degree up to a dimension bound d, with face and
degeneracy tables validated against the simplicial identities wherever both
sides stay within the bound; each one built here is tabulated by one function
from its cells, with faces and degeneracies computed on cells.  On top of
these live nerve spaces of complexes and bundles, sections, simplicial
distributions, stochastic morphisms, the mapping scenario Map(f,g), the nerve
comparison maps, and the convex map mu.
"""

from functools import cache
from itertools import combinations_with_replacement, product
from math import prod

from .complexes import nonempty_subsets, pair_name, skey
from .dist import delta, mixture, product_dist, pushforward
from .errors import CompositionError, DomainError, ResourceLimitError


class TruncatedSSet:
    """Finite simplicial set truncated at degree d.

    simp[n] is the tuple of degree-n simplex ids; face[n][x] lists the faces
    d_0..d_n (n >= 1); degen[n][x] lists s_0..s_n landing in degree n+1
    (n < d).  payload optionally carries structured data per simplex.
    """

    __slots__ = ("d", "simp", "face", "degen", "payload")

    def __init__(self, d, simp, face, degen, payload=None):
        self.d = d
        self.simp = {n: tuple(simp.get(n, ())) for n in range(d + 1)}
        self.face = {n: dict(face.get(n, {})) for n in range(1, d + 1)}
        self.degen = {n: dict(degen.get(n, {})) for n in range(d)}
        self.payload = payload or {}

    def dface(self, n, i, x):
        return self.face[n][x][i]

    def sdegen(self, n, j, x):
        return self.degen[n][x][j]

    def __eq__(self, other):
        return (isinstance(other, TruncatedSSet) and self.d == other.d
                and self.simp == other.simp and self.face == other.face
                and self.degen == other.degen)

    def to_json(self):
        return {"d": self.d,
                "simplices": {str(n): list(self.simp[n])
                              for n in range(self.d + 1)},
                "faces": {str(n): {x: list(v)
                                   for x, v in sorted(self.face[n].items())}
                          for n in range(1, self.d + 1)},
                "degens": {str(n): {x: list(v)
                                    for x, v in sorted(self.degen[n].items())}
                           for n in range(self.d)}}

    @classmethod
    def from_json(cls, obj):
        d = obj["d"]
        return cls(d,
                   {int(n): tuple(v) for n, v in obj["simplices"].items()},
                   {int(n): {x: tuple(v) for x, v in t.items()}
                    for n, t in obj.get("faces", {}).items()},
                   {int(n): {x: tuple(v) for x, v in t.items()}
                    for n, t in obj.get("degens", {}).items()})


def validate_sset(X):
    failures = []
    ids = {n: set(X.simp[n]) for n in X.simp}
    for law, table, shift in (("face", X.face, -1), ("degen", X.degen, 1)):
        for n in table:
            for x in X.simp[n]:
                ops = table[n].get(x)
                if ops is None or len(ops) != n + 1:
                    failures.append({"law": law + "-table", "simplex": (n, x)})
                elif any(s not in ids[n + shift] for s in ops):
                    failures.append({"law": law + "-range", "simplex": (n, x)})
    if failures:
        return {"ok": False, "failures": failures}
    for n in range(2, X.d + 1):
        for x in X.simp[n]:
            for j in range(n + 1):
                for i in range(j):
                    lhs = X.dface(n - 1, i, X.dface(n, j, x))
                    rhs = X.dface(n - 1, j - 1, X.dface(n, i, x))
                    if lhs != rhs:
                        failures.append({"law": "didj", "simplex": (n, x),
                                         "i": i, "j": j})
    for n in range(X.d - 1):
        for x in X.simp[n]:
            for j in range(n + 1):
                for i in range(j + 1):
                    lhs = X.sdegen(n + 1, j + 1, X.sdegen(n, i, x))
                    rhs = X.sdegen(n + 1, i, X.sdegen(n, j, x))
                    if lhs != rhs:
                        failures.append({"law": "sisj", "simplex": (n, x),
                                         "i": i, "j": j})
    for n in range(X.d):
        for x in X.simp[n]:
            for j in range(n + 1):
                sx = X.sdegen(n, j, x)
                for i in range(n + 2):
                    got = X.dface(n + 1, i, sx)
                    if i == j or i == j + 1:
                        want = x
                    elif i < j:
                        want = X.sdegen(n - 1, j - 1, X.dface(n, i, x)) \
                            if n >= 1 else None
                    else:
                        want = X.sdegen(n - 1, j, X.dface(n, i - 1, x)) \
                            if n >= 1 else None
                    if want is not None and got != want:
                        failures.append({"law": "disj", "simplex": (n, x),
                                         "i": i, "j": j})
    return {"ok": not failures, "failures": failures}


def _face_degen(d, cells):
    """Each face d_i of each degree-n cell in cells(n), 1 <= n <= d, then
    each degeneracy s_j, n < d, as (law, index key, index, n, cell, m, op):
    law "face" with key "i" or "degen" with key "j", and op(S, s) applying
    the operator to a degree-n simplex s of S, which lands in degree m."""
    for n in range(1, d + 1):
        for c in cells(n):
            for i in range(n + 1):
                yield ("face", "i", i, n, c, n - 1,
                       lambda S, s, n=n, i=i: S.face[n][s][i])
    for n in range(d):
        for c in cells(n):
            for j in range(n + 1):
                yield ("degen", "j", j, n, c, n + 1,
                       lambda S, s, n=n, j=j: S.degen[n][s][j])


class SSetMap:
    """A degreewise map commuting with faces and degeneracies."""

    __slots__ = ("source", "target", "comp", "_fibers")

    def __init__(self, source, target, comp, check=True):
        self.source = source
        self.target = target
        self.comp = {n: dict(comp.get(n, {})) for n in range(source.d + 1)}
        self._fibers = None
        if check:
            report = validate_sset_map(self)
            if not report["ok"]:
                raise DomainError("not a simplicial map: %s"
                                  % report["failures"][:3])

    def __call__(self, n, x):
        return self.comp[n][x]

    def fiber(self, n, x):
        """The degree-n source simplices over x, in source order."""
        if self._fibers is None:
            fibs = {}
            for m in range(self.source.d + 1):
                for e in self.source.simp[m]:
                    fibs.setdefault((m, self.comp[m][e]), []).append(e)
            self._fibers = {k: tuple(v) for k, v in fibs.items()}
        return self._fibers.get((n, x), ())

    def compose(self, other):
        """self after other."""
        if other.target != self.source:
            raise CompositionError("simplicial maps do not compose")
        comp = {n: {x: self.comp[n][other.comp[n][x]]
                    for x in other.source.simp[n]}
                for n in range(other.source.d + 1)}
        return SSetMap(other.source, self.target, comp, check=False)

    def __eq__(self, other):
        return (isinstance(other, SSetMap) and self.source == other.source
                and self.target == other.target and self.comp == other.comp)

    def key(self):
        return ";".join("%d:%s>%s" % (n, x, self.comp[n][x])
                        for n in sorted(self.comp)
                        for x in sorted(self.comp[n]))


def validate_sset_map(fmap):
    failures = []
    X, Y = fmap.source, fmap.target
    if Y.d < X.d:
        return {"ok": False, "failures": [{"law": "truncation"}]}
    for n in range(X.d + 1):
        ytab = set(Y.simp[n])
        for x in X.simp[n]:
            y = fmap.comp[n].get(x)
            if y not in ytab:
                failures.append({"law": "totality", "simplex": (n, x)})
    if failures:
        return {"ok": False, "failures": failures}
    for law, key, k, n, x, m, op in _face_degen(X.d, X.simp.get):
        if fmap(m, op(X, x)) != op(Y, fmap(n, x)):
            failures.append({"law": law, "simplex": (n, x), key: k})
    return {"ok": not failures, "failures": failures}


def identity_sset_map(X):
    return SSetMap(X, X, {n: {x: x for x in X.simp[n]}
                          for n in range(X.d + 1)}, check=False)


# ---------------------------------------------------------------------------
# Ordinal operators


def monotone_maps(m, n):
    """All monotone maps [m] -> [n] as value tuples of length m+1."""
    return [t for t in combinations_with_replacement(range(n + 1), m + 1)]


def theta_id(theta):
    return ",".join(str(v) for v in theta)


def compose_theta(theta, phi):
    """theta after phi."""
    return tuple(theta[v] for v in phi)


def identity_theta(n):
    return tuple(range(n + 1))


def coface(i, m):
    """The injection [m-1] -> [m] skipping i."""
    return tuple(v for v in range(m + 1) if v != i)


def codegen(j, m):
    """The surjection [m+1] -> [m] repeating j."""
    return tuple(list(range(j + 1)) + list(range(j, m + 1)))


def apply_operator(X, n, x, theta):
    """The contravariant action of a monotone map on a degree-n simplex."""
    m = len(theta) - 1
    if theta == identity_theta(n):
        return x
    # split off a codegeneracy if theta repeats a value
    for i in range(m):
        if theta[i] == theta[i + 1]:
            shorter = theta[:i + 1] + theta[i + 2:]
            return X.sdegen(m - 1, i, apply_operator(X, n, x, shorter))
    # theta strictly monotone and not the identity: peel the largest missing
    missing = max(v for v in range(n + 1) if v not in theta)
    reindexed = tuple(v if v < missing else v - 1 for v in theta)
    return apply_operator(X, n - 1, X.dface(n, missing, x), reindexed)


# ---------------------------------------------------------------------------
# Standard simplices, discrete simplicial sets, products


def _tabulate(d, cells, name, face, degen):
    """The simplicial set whose degree-n simplices (n <= d) are the cells in
    cells[n], named name(n, c), with d_i c = face(n, c, i) and s_j c =
    degen(n, c, j) computed on cells.  The payload decodes each id to its
    cell; the simplicial identities hold in the tables when they hold on
    cells (May, Simplicial Objects in Algebraic Topology, 1967)."""
    levels = [[(name(n, c), c) for c in cells[n]] for n in range(d + 1)]
    return TruncatedSSet(
        d, {n: [sid for sid, _ in level] for n, level in enumerate(levels)},
        {n: {sid: tuple([name(n - 1, face(n, c, i)) for i in range(n + 1)])
             for sid, c in levels[n]} for n in range(1, d + 1)},
        {n: {sid: tuple([name(n + 1, degen(n, c, j)) for j in range(n + 1)])
             for sid, c in levels[n]} for n in range(d)},
        {(n, sid): c for n, level in enumerate(levels) for sid, c in level})


def standard_simplex(n, d):
    if n > d:
        raise DomainError("standard simplex dimension exceeds the bound")
    return _tabulate(d, [monotone_maps(m, n) for m in range(d + 1)],
                     lambda m, t: theta_id(t),
                     lambda m, t, i: t[:i] + t[i + 1:],
                     lambda m, t, j: t[:j + 1] + t[j:])


def discrete_sset(items, d):
    """A set viewed as a simplicial set: constant in every degree."""
    items = tuple(items)
    return _tabulate(d, [items] * (d + 1), lambda n, x: x,
                     lambda n, x, i: x, lambda n, x, j: x)


def discrete_map(func, X, Y):
    """Lift a plain function to a map of discrete simplicial sets."""
    return SSetMap(X, Y, {n: {x: func(x) for x in X.simp[n]}
                          for n in range(X.d + 1)}, check=False)


def _pair_sset(X, Y, d, partners):
    """The simplicial set of pairs (a, b) of degree-n simplices of X and Y,
    for n <= d, with faces and degeneracies taken componentwise, where
    partners(n, a) lists the b paired with a.  The payload decodes an id to
    (a, b)."""
    return _tabulate(
        d, [[(a, b) for a in X.simp[n] for b in partners(n, a)]
            for n in range(d + 1)],
        lambda n, c: pair_name(*c),
        lambda n, c, i: (X.dface(n, i, c[0]), Y.dface(n, i, c[1])),
        lambda n, c, j: (X.sdegen(n, j, c[0]), Y.sdegen(n, j, c[1])))


def product_sset(X, Y):
    return _pair_sset(X, Y, min(X.d, Y.d), lambda n, a: Y.simp[n])


def product_sset_map(f1, f2):
    src = product_sset(f1.source, f2.source)
    tgt = product_sset(f1.target, f2.target)
    comp = {n: {} for n in range(src.d + 1)}
    for (n, pid), (x, y) in src.payload.items():
        comp[n][pid] = pair_name(f1(n, x), f2(n, y))
    return SSetMap(src, tgt, comp, check=False)


# ---------------------------------------------------------------------------
# Nerve spaces


EMPTY = frozenset()


def nerve_tuple_id(entries):
    return "(" + ";".join(skey(e) for e in entries) + ")"


def nerve_face(entries, i):
    n = len(entries)
    if i == 0:
        return entries[1:]
    if i == n:
        return entries[:-1]
    return entries[:i - 1] + (entries[i - 1] | entries[i],) + entries[i + 1:]


def nerve_degen(entries, j):
    return entries[:j] + (EMPTY,) + entries[j:]


def nerve_space(cpx, d):
    """Degree-n simplices are n-tuples over the simplices of the complex plus
    the empty marker, with union a simplex (or everything empty)."""
    if d < 1:
        raise DomainError("truncation must be at least 1")
    cells = [[()]]
    for n in range(1, d + 1):
        seen = {}
        for m in cpx.maximal:
            subs = [EMPTY] + list(nonempty_subsets(m))
            for t in product(subs, repeat=n):
                seen.setdefault(nerve_tuple_id(t), t)
        cells.append([seen[tid] for tid in sorted(seen)])
    return _tabulate(d, cells, lambda n, t: nerve_tuple_id(t),
                     lambda n, t, i: nerve_face(t, i),
                     lambda n, t, j: nerve_degen(t, j))


def nerve_bundle(bnd, d=None):
    """The nerve of a bundle: apply the bundle map entrywise to tuples."""
    if not bnd.base.maximal:
        raise DomainError("the nerve of a bundle needs a nonempty base")
    if d is None:
        d = bnd.base.dim() + 1
    total = nerve_space(bnd.total, d)
    base = nerve_space(bnd.base, d)
    comp = {n: {} for n in range(d + 1)}
    for (n, tid), entries in total.payload.items():
        comp[n][tid] = nerve_tuple_id(tuple(map(bnd.image, entries)))
    return SSetMap(total, base, comp, check=False)


# ---------------------------------------------------------------------------
# Fibers, sections, simplicial distributions


_DONE = object()


def _by_faces(Y, n, ys):
    """The degree-n simplices ys of Y grouped by their tuple of faces."""
    table = {}
    for y in ys:
        table.setdefault(tuple(Y.face[n][y]) if n else (), []).append(y)
    return table


def _extend(face, degen, Y, todo, table, comp):
    """Set comp[n][x] for the simplices (n, x) in todo, listed after their
    faces and degeneracy sources, over values in Y whose faces match those
    set, and yield each time all are set.  Depth first over one assignment,
    branching only on nondegenerate simplices, over the candidates
    table(n, x) groups by face tuple; a degenerate simplex takes the value
    forced by its first s_j from todo, read off degen, which like face is
    shaped like TruncatedSSet's and covers todo.  A branch is cut once a
    later nondegenerate simplex has all its faces set and no candidate."""
    # branches[k]: (n, x, faces of x, candidates by face tuple, degenerate
    # simplices that x forces, later branches whose faces x completes);
    # known[(n, x)]: the branch whose choice sets the value of x;
    # degsrc[(n, z)]: the first (j, parent) in todo with s_j parent = z
    branches, known, degsrc = [], {}, {}
    for n, x in todo:
        for j, z in enumerate(degen[n][x] if n in degen else ()):
            degsrc.setdefault((n + 1, z), (j, x))
        src = degsrc.get((n, x))
        if src is not None:
            k = known[(n, x)] = known[(n - 1, src[1])]
            branches[k][4].append((n, x) + src)
            continue
        k = known[(n, x)] = len(branches)
        xfaces = face[n][x] if n else ()
        last = max([known.get((n - 1, f), -1) for f in xfaces], default=-1)
        if 0 <= last < k - 1:
            branches[last][5].append(k)
        branches.append((n, x, xfaces, table(n, x), [], []))

    def options(k):
        n, _, xfaces, table, _, _ = branches[k]
        below = comp.get(n - 1)
        return table.get(tuple([below[f] for f in xfaces]), ())

    stack = [iter(options(0))] if branches else []
    if not branches:
        yield
    while stack:
        k = len(stack) - 1
        y = next(stack[k], _DONE)
        if y is _DONE:
            stack.pop()
            continue
        n, x, _, _, fills, ahead = branches[k]
        comp[n][x] = y
        for m, z, j, parent in fills:
            comp[m][z] = Y.degen[m - 1][comp[m - 1][parent]][j]
        if not all(options(b) for b in ahead):
            continue
        if k + 1 < len(branches):
            stack.append(iter(options(k + 1)))
        else:
            yield


def enumerate_sset_maps(X, Y, candidates, cap=10 ** 6):
    """All maps X -> Y with values drawn from candidates(n, x), commuting
    with faces, in lexicographic order of the choices (simplices of X by
    degree, candidates in their own order); cap bounds their number."""
    comp = {n: dict.fromkeys(X.simp[n]) for n in range(X.d + 1)}
    if not any(X.simp.values()):
        return [SSetMap(X, Y, comp, check=False)]
    out = []
    for _ in _extend(X.face, X.degen, Y, [(n, x) for n in comp
                                          for x in comp[n]],
                     lambda n, x: _by_faces(Y, n, candidates(n, x)), comp):
        if len(out) == cap:
            raise ResourceLimitError("map enumeration over cap", cap=cap,
                                     estimate=cap + 1,
                                     stage="enumerate_sset_maps")
        out.append(SSetMap(X, Y, comp, check=False))
    return out


def sections(fmap, cap=10 ** 6):
    """All sections of a simplicial scenario, in canonical order."""
    out = enumerate_sset_maps(fmap.target, fmap.source, fmap.fiber, cap=cap)
    out.sort(key=lambda s: s.key())
    return out


class SimplicialDistribution:
    """A distribution over the fiber of every simplex of the base."""

    __slots__ = ("table",)

    def __init__(self, table):
        self.table = {k: v for k, v in table.items()}

    def __getitem__(self, key):
        return self.table[key]

    def __eq__(self, other):
        return (isinstance(other, SimplicialDistribution)
                and self.table == other.table)

    def to_json(self):
        return {"%d:%s" % (n, x): p.to_json()
                for (n, x), p in sorted(self.table.items())}


def coverage_failures(X, sd):
    """The simplices of X at which sd has no distribution."""
    return [{"law": "coverage", "simplex": (n, x)}
            for n in range(X.d + 1) for x in X.simp[n]
            if (n, x) not in sd.table]


def validate_simplicial_distribution(fmap, sd):
    X, E = fmap.target, fmap.source
    failures = coverage_failures(X, sd)
    for n in range(X.d + 1):
        for x in X.simp[n]:
            p = sd.table.get((n, x))
            if p is not None and \
                    not set(p.support()) <= set(fmap.fiber(n, x)):
                failures.append({"law": "support", "simplex": (n, x)})
    if failures:
        return {"ok": False, "failures": failures}
    for law, key, k, n, x, m, op in _face_degen(X.d, X.simp.get):
        got = pushforward(lambda e: op(E, e), sd[(n, x)])
        if got != sd[(m, op(X, x))]:
            failures.append({"law": law + "-marginal", "simplex": (n, x),
                             key: k})
    return {"ok": not failures, "failures": failures}


def theta_simplicial(fmap, secs, q):
    """Mix the delta families of sections with the weights of q (a Dist over
    section keys)."""
    bykey = {s.key(): s for s in secs}
    X = fmap.target
    table = {}
    for n in range(X.d + 1):
        for x in X.simp[n]:
            table[(n, x)] = mixture(
                [(w, delta(bykey[k](n, x))) for k, w in q.items()])
    return SimplicialDistribution(table)


# ---------------------------------------------------------------------------
# Stochastic morphisms


def pullback_sset(fmap, pimap):
    """The levelwise pullback of f: E -> X along pi: Y -> X, with its two
    projections."""
    if fmap.target != pimap.target:
        raise DomainError("pullback legs have different targets")
    E, Y = fmap.source, pimap.source
    P = _pair_sset(E, Y, min(E.d, Y.d),
                   lambda n, e: pimap.fiber(n, fmap(n, e)))
    pe = SSetMap(P, E, {n: {pid: P.payload[(n, pid)][0] for pid in P.simp[n]}
                        for n in range(P.d + 1)}, check=False)
    py = SSetMap(P, Y, {n: {pid: P.payload[(n, pid)][1] for pid in P.simp[n]}
                        for n in range(P.d + 1)}, check=False)
    return P, pe, py


class StochMorphism:
    """A base map pi: Y -> X plus fiberwise distributions on the pullback."""

    __slots__ = ("src", "dst", "pi", "alpha")

    def __init__(self, src, dst, pi, alpha):
        self.src = src      # f: E -> X
        self.dst = dst      # g: F -> Y
        self.pi = pi        # Y -> X
        self.alpha = dict(alpha)   # (n, e, y) -> Dist over F_n

    def at(self, n, e, y):
        return self.alpha[(n, e, y)]


def validate_stoch_morphism(mor):
    failures = []
    f, g, pi = mor.src, mor.dst, mor.pi
    E, X, F, Y = f.source, f.target, g.source, g.target
    d = min(X.d, Y.d)
    for n in range(d + 1):
        for y in Y.simp[n]:
            for e in f.fiber(n, pi(n, y)):
                p = mor.alpha.get((n, e, y))
                if p is None:
                    failures.append({"law": "coverage", "pair": (n, e, y)})
                    continue
                if any(g(n, e2) != y for e2 in p.support()):
                    failures.append({"law": "right-square", "pair": (n, e, y)})
    if failures:
        return {"ok": False, "failures": failures}
    for law, key, k, n, (e, y), m, op in _face_degen(
            d, lambda n: [c[1:] for c in mor.alpha if c[0] == n]):
        got = pushforward(lambda w: op(F, w), mor.alpha[(n, e, y)])
        if got != mor.alpha[(m, op(E, e), op(Y, y))]:
            failures.append({"law": law, "pair": (n, e, y), key: k})
    return {"ok": not failures, "failures": failures}


def identity_stochastic(fmap):
    X = fmap.target
    alpha = {}
    for n in range(X.d + 1):
        for e in fmap.source.simp[n]:
            alpha[(n, e, fmap(n, e))] = delta(e)
    return StochMorphism(fmap, fmap, identity_sset_map(X), alpha)


class DetMorphism:
    """An identity-monad morphism: a base map plus a fiberwise simplex map."""

    __slots__ = ("src", "dst", "pi", "a")

    def __init__(self, src, dst, pi, a):
        self.src = src
        self.dst = dst
        self.pi = pi
        self.a = dict(a)    # (n, e, y) -> e'

    def key(self):
        return (self.pi.key() + "#"
                + ";".join("%d:%s,%s>%s" % (n, e, y, self.a[(n, e, y)])
                           for (n, e, y) in sorted(self.a)))

    def to_stochastic(self):
        return StochMorphism(self.src, self.dst, self.pi,
                             {k: delta(v) for k, v in self.a.items()})


def enumerate_det_morphisms(f, g, cap=10 ** 6):
    """All morphisms f -> g in the identity-monad category of scenarios."""
    X, Y = f.target, g.target
    pis = enumerate_sset_maps(Y, X, lambda n, y: X.simp[n], cap=cap)
    out = []
    for pi in pis:
        P, pe, py = pullback_sset(f, pi)
        amaps = enumerate_sset_maps(
            P, g.source, lambda n, pid: g.fiber(n, P.payload[(n, pid)][1]),
            cap=cap)
        for am in amaps:
            a = {}
            for n in range(P.d + 1):
                for pid in P.simp[n]:
                    e, y = P.payload[(n, pid)]
                    a[(n, e, y)] = am(n, pid)
            out.append(DetMorphism(f, g, pi, a))
    out.sort(key=lambda m: m.key())
    return out


def push_stochastic(mor, sd):
    """Apply a stochastic morphism to a simplicial distribution."""
    f, g, pi = mor.src, mor.dst, mor.pi
    Y = g.target
    table = {}
    for n in range(Y.d + 1):
        for y in Y.simp[n]:
            x = pi(n, y)
            terms = [(w, mor.at(n, e, y))
                     for e, w in sd[(n, x)].items()]
            table[(n, y)] = mixture(terms)
    return SimplicialDistribution(table)


def compose_stochastic(m1, m2):
    """m1: f -> g, m2: g -> h; composite f -> h."""
    if m2.src is not m1.dst and m2.src != m1.dst:
        raise CompositionError("stochastic morphisms do not compose")
    f, h = m1.src, m2.dst
    pi = m1.pi.compose(m2.pi)
    alpha = {}
    Z = m2.dst.target
    d = min(f.target.d, Z.d)
    for n in range(d + 1):
        for z in Z.simp[n]:
            x = pi(n, z)
            ymid = m2.pi(n, z)
            for e in f.fiber(n, x):
                inner = m1.at(n, e, ymid)
                terms = [(w, m2.at(n, e2, z)) for e2, w in inner.items()]
                alpha[(n, e, z)] = mixture(terms)
    return StochMorphism(f, h, pi, alpha)


def tensor_stochastic(m1, m2):
    src = product_sset_map(m1.src, m2.src)
    dst = product_sset_map(m1.dst, m2.dst)
    pi = product_sset_map(m1.pi, m2.pi)
    alpha = {}
    d = src.target.d
    for n in range(d + 1):
        for pid_y in dst.target.simp[n]:
            y1, y2 = dst.target.payload[(n, pid_y)]
            for pid_e in src.fiber(n, pi(n, pid_y)):
                e1, e2 = src.source.payload[(n, pid_e)]
                prod = product_dist(m1.at(n, e1, y1), m2.at(n, e2, y2))
                alpha[(n, pid_e, pid_y)] = pushforward(
                    lambda pair: pair_name(pair[0], pair[1]), prod)
    return StochMorphism(src, dst, pi, alpha)


# ---------------------------------------------------------------------------
# The simplicial mapping scenario Map(f, g)


def pullback_along_simplex(fmap, n, x, d):
    """Restrict a scenario f: E -> X to a degree-n simplex x of the base.

    Degree-m simplices are the pairs (theta, e), named by pair_name, with
    theta: [m] -> [n] monotone and e an m-simplex of E lying over the
    operator action of theta on x; d_i drops entry i of theta and takes d_i
    of e, s_j repeats entry j and takes s_j of e.  The payload decodes an id
    to (theta, e).
    """
    if n > d:
        raise DomainError("standard simplex dimension exceeds the bound")
    E, X = fmap.source, fmap.target
    return _tabulate(
        d, [[(t, e) for t in monotone_maps(m, n)
             for e in fmap.fiber(m, apply_operator(X, n, x, t))]
            for m in range(d + 1)],
        lambda m, c: pair_name(theta_id(c[0]), c[1]),
        lambda m, c, i: (c[0][:i] + c[0][i + 1:], E.dface(m, i, c[1])),
        lambda m, c, j: (c[0][:j + 1] + c[0][j:], E.sdegen(m, j, c[1])))


class MappingSpace:
    """The scenario of morphisms from f into restrictions of g.

    A degree-n simplex over y (in the base of g) is a pair of an n-simplex x
    in the base of f and a fiberwise map alpha from the part of f over x to
    the part of g over y, sending each cell (phi, e) to a (phi, e').  Its
    cell is (y, x, the e' in cells order), which payload decodes its id to;
    ids finds the id from (n, y, x, alpha's SSetMap key).  A face or
    degeneracy theta acts on cells by restriction, reading the values at
    (theta phi, e).

    mapping_simplicial builds degree n from degree n - 1.  Where phi misses
    i, phi = delta_i psi and alpha(phi, e) = (d_i alpha)(psi, e) (May,
    Simplicial Objects in Algebraic Topology, 1967), so alpha is its
    boundary d_0 alpha .. d_n alpha, joined from degree n - 1 with
    d_i d_j = d_(j-1) d_i, plus its values on the cells with phi
    surjective, searched into g's fibers over their faces and degeneracies
    as computed on cells (searched).  Its faces are that boundary, and
    s_j alpha reads alpha through one index per (n, x, j).  No pullback
    simplicial set is built: pb_src and pb_dst, the pullbacks of f and g
    along a simplex, each built once on first use, serve outside callers.
    """

    __slots__ = ("f", "g", "d", "sset", "proj", "ids", "payload",
                 "_px", "_py", "_cells")

    def __init__(self, f, g, d):
        self.f, self.g, self.d, self.sset, self.proj = f, g, d, None, None
        self.ids, self.payload, self._px, self._py, self._cells = \
            {}, {}, {}, {}, {}

    def pb_src(self, n, x):
        if (n, x) not in self._px:
            self._px[(n, x)] = pullback_along_simplex(self.f, n, x, self.d)
        return self._px[(n, x)]

    def pb_dst(self, n, y):
        if (n, y) not in self._py:
            self._py[(n, y)] = pullback_along_simplex(self.g, n, y, self.d)
        return self._py[(n, y)]

    def cells(self, n, x):
        """The cells (m, pid, phi, e) of the pullback of f along x in the
        order of SSetMap.key() (degree, then pid), the position of each
        (m, phi, e), and the format of the key of a map from its values."""
        if (n, x) not in self._cells:
            X = self.f.target
            cells = tuple((m,) + c for m in range(self.d + 1) for c in sorted(
                (pair_name(theta_id(phi), e), phi, e)
                for phi in monotone_maps(m, n)
                for e in self.f.fiber(m, apply_operator(X, n, x, phi))))
            form = ";".join("%d:%s>" % (m, pid.replace("%", "%%"))
                            + pair_name(theta_id(phi), "%s")
                            for m, pid, phi, _ in cells)
            pos = {(m, phi, e): k for k, (m, _, phi, e) in enumerate(cells)}
            self._cells[(n, x)] = (cells, pos, form)
        return self._cells[(n, x)]

    def searched(self, n, x):
        """The cells of cells(n, x) with phi surjective, as (m, position),
        and their faces and degeneracies by position, shaped like
        TruncatedSSet.face and .degen: d_i (phi, e) = (phi without entry i,
        d_i e) and s_j (phi, e) = (phi with entry j repeated, s_j e)."""
        cells, pos, _ = self.cells(n, x)
        todo = [(c[0], k) for k, c in enumerate(cells)
                if len(set(c[2])) == n + 1]

        def rule(degrees, shift, ops, act):
            return {m: {k: tuple([pos[(m + shift, act(cells[k][2], i),
                                       ops[m][cells[k][3]][i])]
                                  for i in range(m + 1)])
                        for mk, k in todo if mk == m} for m in degrees}

        return todo, rule(range(1, self.d + 1), -1, self.f.source.face,
                          lambda phi, i: phi[:i] + phi[i + 1:]), \
            rule(range(self.d), 1, self.f.source.degen,
                 lambda phi, j: phi[:j + 1] + phi[j:])

    def value(self, n, sid, m, phi, e):
        """The e' to which simplex (n, sid) sends the cell (m, phi, e)."""
        _, x, values = self.payload[(n, sid)]
        return values[self.cells(n, x)[1][(m, phi, e)]]

    def simplex_id(self, n, y, x, value):
        """The id of the degree-n simplex over y from x whose fiberwise map
        sends each (phi, e) over x to (phi, value(m, phi, e)) over y."""
        cells, _, form = self.cells(n, x)
        sid = self.ids.get((n, y, x, form % tuple(
            [value(m, phi, e) for m, _, phi, e in cells])))
        if sid is None:
            raise DomainError("no mapping-space simplex over %s from %s "
                              "has this fiberwise map" % (y, x))
        return sid


def mapping_simplicial(f, g, d=None, cap=10 ** 6):
    """Build Map(f, g) as a simplicial scenario over the base of g, degree by
    degree from each simplex's boundary (see MappingSpace)."""
    X, Y, G = f.target, g.target, g.source
    if d is None:
        d = min(X.d, Y.d)
    if d > X.d or d > Y.d:
        raise DomainError("mapping truncation exceeds the scenario bounds")
    ms = MappingSpace(f, g, d)
    levels, total = [], 0

    @cache
    def table(n, y, phi):
        """g's fiber over phi^* y by face tuple."""
        m = len(phi) - 1
        return _by_faces(G, m, g.fiber(m, apply_operator(Y, n, y, phi)))

    @cache
    def index(n, x, theta):
        """Where theta alpha reads alpha: for each cell (m, phi, e) over
        theta^* x, the position of (m, theta phi, e) in cells(n, x)."""
        pos = ms.cells(n, x)[1]
        return [pos[(m, compose_theta(theta, phi), e)] for m, _, phi, e in
                ms.cells(len(theta) - 1, apply_operator(X, n, x, theta))[0]]

    for n in range(d + 1):
        prev, byface, groups, level = levels[-1] if n else [], {}, {}, []
        for a, (y, x, _, faces, _) in enumerate(prev):
            for j in range(len(faces) + 1):
                byface.setdefault((y, x, faces[:j]), []).append(a)
        for x in X.simp[n]:
            xf = X.face[n][x] if n else ()
            cells, _, form = ms.cells(n, x)
            # a cell whose phi misses i is read off alpha_i = d_i alpha: src
            # holds (i, its offset in the boundary alpha_0 + ... + alpha_n)
            src, size = {}, 0
            for i in range(len(xf)):
                at = index(n, x, coface(i, n))
                for p, k in enumerate(at):
                    src.setdefault(k, (i, size + p))
                size += len(at)
            todo, face, degen = ms.searched(n, x)
            offsets = iter(range(size, size + len(todo)))
            gather = [src[k][1] if k in src else next(offsets)
                      for k in range(len(cells))]
            degenerate = {z for t in degen.values() for s in t.values()
                          for z in s}
            faced = [(m, cells[k][2], face[m][k]) for m, k in todo
                     if m and k not in degenerate]
            fixed = {(m - 1, q, src[q][1]) for m, _, qs in faced for q in qs
                     if q in src}
            for y in Y.simp[n]:
                yf = Y.face[n][y] if n else ()
                # a searched cell with all its faces on the boundary bounds
                # each face, given those from earlier alpha_i, by the faces of
                # its candidates: need maps a prefix to the next face's values
                checks = [[] for _ in xf]
                for m, phi, qs in faced:
                    if all(q in src for q in qs):
                        refs, need = sorted((src[q], t) for t, q in
                                            enumerate(qs)), {}
                        for key in table(n, y, phi):
                            key = [key[t] for _, t in refs]
                            for k, v in enumerate(key):
                                need.setdefault(tuple(key[:k]), set()).add(v)
                        for k, ((j, at), _) in enumerate(refs):
                            checks[j].append(
                                (at, [q for (_, q), _ in refs[:k]], need))

                def join(A, bound):
                    # alpha_j lies over (d_j y, d_j x) and has first faces
                    # d_(j-1) alpha_i, i < j; it is looked up by its values
                    # where checked, among the values the checks allow
                    j = len(A)
                    if j == len(xf):
                        yield A, bound
                        return
                    ps = tuple([at - len(bound) for at, _, _ in checks[j]])
                    key = (yf[j], xf[j], tuple([prev[a][3][j - 1] for a in A])
                           if n > 1 else (), ps)
                    grp = groups.get(key)
                    if grp is None:
                        grp = groups[key] = {}
                        for a in byface.get(key[:3], ()):
                            grp.setdefault(tuple([prev[a][2][p] for p in ps]),
                                           []).append(a)
                    sets = [need.get(tuple(map(bound.__getitem__, refs)), ())
                            for _, refs, need in checks[j]]
                    combos = product(*sets)
                    if prod(map(len, sets)) > len(grp):
                        combos = [v for v in grp
                                  if all(map(set.__contains__, sets, v))]
                    for v in combos:
                        for a in grp.get(v, ()):
                            yield from join(A + (a,), bound + prev[a][2])

                comp = {m: {} for m in range(d + 1)}
                for A, bound in join((), ()):
                    for m, q, at in fixed:
                        comp[m][q] = bound[at]
                    for _ in _extend(face, degen, G, todo,
                                     lambda m, k: table(n, y, cells[k][2]),
                                     comp):
                        full = bound + tuple([comp[m][k] for m, k in todo])
                        values = tuple(map(full.__getitem__, gather))
                        level.append((y, x, form % values, values, A))
                        total += 1
                        if total > cap:
                            raise ResourceLimitError(
                                "mapping space over cap", cap=cap,
                                estimate=total, stage="mapping_simplicial")
        level.sort()
        for k, (y, x, key, _, _) in enumerate(level):
            ms.ids[(n, y, x, key)] = "m%d.%d" % (n, k)
        levels.append([(y, x, values, A, "m%d.%d" % (n, k))
                       for k, (y, x, _, values, A) in enumerate(level)])
    found = [{c[:3]: c for c in level} for level in levels]
    ms.sset = _tabulate(
        d, levels, lambda n, c: c[4], lambda n, c, i: levels[n - 1][c[3][i]],
        lambda n, c, j: found[n + 1][(
            Y.degen[n][c[0]][j], X.degen[n][c[1]][j],
            tuple(map(c[2].__getitem__, index(n, c[1], codegen(j, n)))))])
    ms.payload = ms.sset.payload = {k: c[:3]
                                    for k, c in ms.sset.payload.items()}
    ms.proj = SSetMap(ms.sset, Y, {n: {sid: ms.payload[(n, sid)][0]
                                       for sid in ms.sset.simp[n]}
                                   for n in range(d + 1)}, check=False)
    return ms


def zeta(mspace, det):
    """Turn a deterministic morphism f -> g into a section of Map(f, g)."""
    Y = mspace.g.target
    comp = {}
    for n in range(mspace.d + 1):
        comp[n] = {}
        for y in Y.simp[n]:
            comp[n][y] = mspace.simplex_id(
                n, y, det.pi(n, y),
                lambda m, phi, e: det.a[(m, e, apply_operator(Y, n, y, phi))])
    return SSetMap(Y, mspace.sset, comp, check=False)


def zeta_inverse(mspace, section):
    """Turn a section of Map(f, g) back into a deterministic morphism."""
    Y = mspace.g.target
    picomp = {}
    a = {}
    for n in range(mspace.d + 1):
        picomp[n] = {}
        for y in Y.simp[n]:
            sid = section(n, y)
            yy, x, _ = mspace.payload[(n, sid)]
            if yy != y:
                raise DomainError("not a section over %s" % y)
            picomp[n][y] = x
            for e in mspace.f.fiber(n, x):
                a[(n, e, y)] = mspace.value(n, sid, n, identity_theta(n), e)
    pi = SSetMap(Y, mspace.f.target, picomp, check=False)
    return DetMorphism(mspace.f, mspace.g, pi, a)


def mu(mspace, p, q):
    """The convex pairing: mix, per base simplex, the pushforwards of q along
    the top maps (the values at phi = id) of the simplices carried by p."""
    Y = mspace.g.target
    table = {}
    for n in range(mspace.d + 1):
        ident = identity_theta(n)
        for y in Y.simp[n]:
            terms = []
            for sid, w in p[(n, y)].items():
                _, x, _ = mspace.payload[(n, sid)]
                terms.append((w, pushforward(
                    lambda e, _s=sid: mspace.value(n, _s, n, ident, e),
                    q[(n, x)])))
            table[(n, y)] = mixture(terms)
    return SimplicialDistribution(table)


def hom_tensor_to_mapping(f, g, h, det, mspace):
    """Currying: a morphism from the product scenario of f and g into h gives
    a morphism from f into Map(g, h)."""
    E = f.source
    X = f.target
    Z = h.target
    XY = det.pi.target
    picomp = {n: {z: XY.payload[(n, det.pi(n, z))][0] for z in Z.simp[n]}
              for n in range(Z.d + 1)}
    pi1 = SSetMap(Z, X, picomp, check=False)
    b = {}
    for n in range(mspace.d + 1):
        for z in Z.simp[n]:
            x = pi1(n, z)
            y = XY.payload[(n, det.pi(n, z))][1]
            for e in f.fiber(n, x):

                def value(m, phi, ftil):
                    ephi = apply_operator(E, n, e, phi)
                    zbar = apply_operator(Z, n, z, phi)
                    return det.a[(m, pair_name(ephi, ftil), zbar)]

                b[(n, e, z)] = mspace.simplex_id(n, z, y, value)
    return DetMorphism(f, mspace.proj, pi1, b)


# ---------------------------------------------------------------------------
# Comparison of the mapping bundle nerve with the simplicial mapping space


class NerveComparison:
    """The mapping space and the two comparison assignments between it and
    the nerve of the mapping bundle's total space."""

    __slots__ = ("mspace", "l", "t", "defects")

    def __init__(self, mspace, l, t, defects):
        self.mspace = mspace
        self.l = l
        self.t = t
        self.defects = defects


def compare_nerve_mapping(bnd_f, bnd_g, d=None, cap=10 ** 6):
    """Relate the nerve of the mapping bundle scenario to the simplicial
    mapping space of the nerves.

    l sends a tuple of morphism simplices to the pair (base tuple, domain
    tuple) with the blockwise top maps; it is total and simplicial.  t goes
    the other way, entrywise; it is partial: a mapping-space simplex whose
    entries overlap inconsistently, or whose empty entries mismatch between
    the two tuples, has no preimage tuple, and such simplices are reported in
    defects with t undefined there.
    """
    from .bundles import mapping_bundle_scenario
    from .events import MappingElement, element_simplex
    from .complexes import simplex_from_key

    mb, M, elems = mapping_bundle_scenario(bnd_f, bnd_g)
    if d is None:
        d = mb.base.dim() + 1
    Nf = nerve_bundle(bnd_f, d)
    Ng = nerve_bundle(bnd_g, d)
    mspace = mapping_simplicial(Nf, Ng, d=d, cap=cap)

    vset_of = {}
    elem_of = {}
    for sigma in M.base.simplices():
        for key in M.sets[sigma]:
            vset = element_simplex(M, sigma, key)
            vset_of[(sigma, key)] = vset
            elem_of[vset] = (sigma, key)

    NG = nerve_space(mb.total, d)   # the nerve of the mapping bundle total
    NGf = Nf.source
    NGg = Ng.source
    NSp = Ng.target      # nerve space of the base of g
    NS = Nf.target

    def l_value(entries, m, phi, ebar_id):
        """The entry of l's fiberwise map at (phi, ebar) over a tuple of
        morphism simplices: the top maps of the blocks phi cuts out."""
        ebar = NGf.payload[(m, ebar_id)]
        out = []
        for k in range(1, m + 1):
            gamma_k = ebar[k - 1]
            if not gamma_k:
                out.append(EMPTY)
                continue
            block = range(phi[k - 1] + 1, phi[k] + 1)
            u = frozenset().union(
                *[entries[i - 1] for i in block if entries[i - 1]])
            elem_b = elems[elem_of[u]]
            out.append(simplex_from_key(elem_b.alpha[skey(gamma_k)]))
        return nerve_tuple_id(tuple(out))

    lcomp = {}
    for n in range(d + 1):
        lcomp[n] = {}
        for tid in NG.simp[n]:
            entries = NG.payload[(n, tid)]
            decoded = [elem_of[e] if e else None for e in entries]
            yid = nerve_tuple_id(tuple(
                dec[0] if dec else EMPTY for dec in decoded))
            xid = nerve_tuple_id(tuple(
                elems[dec].domain if dec else EMPTY for dec in decoded))
            lcomp[n][tid] = mspace.simplex_id(
                n, yid, xid,
                lambda m, phi, e: l_value(entries, m, phi, e))
    lmap = SSetMap(NG, mspace.sset, lcomp, check=False)

    t = {}
    defects = []
    ngg_index = {m: set(NG.simp[m]) for m in range(d + 1)}
    for n in range(d + 1):
        for sid in mspace.sset.simp[n]:
            yid, xid, _ = mspace.payload[(n, sid)]
            sig = NSp.payload[(n, yid)]
            dom = NS.payload[(n, xid)]
            out, tid = [], None
            for k in range(1, n + 1):
                sig_k, tau_k = sig[k - 1], dom[k - 1]
                if bool(sig_k) != bool(tau_k):
                    break
                if not sig_k:
                    out.append(EMPTY)
                    continue
                phi = (k - 1, k)
                alpha_k = {}
                for gamma in bnd_f.fiber(tau_k):
                    gid = mspace.value(n, sid, 1, phi,
                                       nerve_tuple_id((gamma,)))
                    alpha_k[skey(gamma)] = skey(NGg.payload[(1, gid)][0])
                elem = MappingElement(sig_k,
                                      {v: tau_k for v in sig_k}, alpha_k)
                if (sig_k, elem.key()) not in elems:
                    break
                out.append(vset_of[(sig_k, elem.key())])
            else:
                tid = nerve_tuple_id(tuple(out))
            if tid not in ngg_index[n]:
                tid = None
                defects.append((n, sid))
            t[(n, sid)] = tid
    return NerveComparison(mspace, lmap, t, defects)
