"""Independent oracles used by the tests: exact convex-hull membership by
brute-force subset enumeration, coordinate vectors for empirical models, the
integer tableau and the dense Fraction phase-1 simplex that the library's
revised simplex must agree with exactly, the dense 0/1 rows that its sparse
marginal LP must equal, the breadth-first map search that the library's
depth-first one must agree with map for map, the mapping-space faces and
degeneracies computed on whole fiberwise maps, which the library's value
tables must agree with, the mapping space with one map search per simplex
pair of the bases, which the library's construction from each simplex's
boundary must equal table for table, the simplicial LP over every degree,
whose verdict the library's top-degree LP must match, the
enumerate-and-filter mapping scenario that the library's construction from
vertex elements must agree with element for element, the category of
elements built from one vertex profile per outcome, which the library's
construction from vertex restriction tables must equal, the quadratic
antichain, the copy-and-filter global sections that the library's direct
join must agree with section for section, the hand-tabulated nerve
space and the pullback along a simplex paired from a whole standard
simplex, which the library's simplicial sets tabulated from their cells
must equal table for table, and the restriction profiles over a cover's
intersection diagram that cross-check the locality criterion.

These deliberately avoid the library's LP solver so that they can serve as a
cross-check on it.
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

from ctxlib.dist import ONE, ZERO, rat
from ctxlib.bundles import _pi_choices
from ctxlib.errors import DomainError, ResourceLimitError
from ctxlib.complexes import (SimplicialComplex, nonempty_subsets,
                              pair_name, skey, unpair_name)
from ctxlib.events import (EventScenario, GlobalSection, MappingElement,
                           _codim1_faces, element_simplex)
from ctxlib.solve import LPProblem
from ctxlib.sset import (EMPTY, MappingSpace, SSetMap, TruncatedSSet,
                         _pair_sset, _tabulate, apply_operator, codegen,
                         coface, compose_theta, enumerate_sset_maps,
                         monotone_maps, nerve_degen, nerve_face,
                         nerve_tuple_id, sections, standard_simplex, theta_id)


def model_vector(model, coords):
    """The model as an exact vector over a fixed (context, outcome) order."""
    return [model.dists[sigma](o) for sigma, o in coords]


def coordinates(scn):
    coords = []
    for m in scn.base.maximal:
        for o in scn.sets[m]:
            coords.append((m, o))
    return coords


def _solve_convex(columns, target):
    """Solve sum(l_i * columns[i]) = target with sum(l_i) = 1 by Gaussian
    elimination over the rationals.  Returns the coefficient list when the
    system has a unique consistent solution, else None."""
    k = len(columns)
    rows = [[Fraction(col[i]) for col in columns] + [Fraction(target[i])]
            for i in range(len(target))]
    rows.append([Fraction(1)] * k + [Fraction(1)])
    pivots = []
    r = 0
    for c in range(k):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            return None     # affinely dependent columns; skip this subset
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                coef = rows[i][c]
                rows[i] = [a - coef * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(rows)):
        if rows[i][-1] != 0:
            return None     # inconsistent
    return [rows[j][-1] for j in range(k)]


def in_hull(target, vertices):
    """Is target a convex combination of the vertex vectors?  Brute force.

    Any convex representation must put weight zero on a vertex that is
    positive somewhere the target vanishes, so those vertices are discarded
    first; the remaining subsets are enumerated in increasing size, keeping
    only those whose columns are affinely independent (enough, since a point
    of the hull always has a representation on an affinely independent set).
    """
    kept = [v for v in vertices
            if all(not (v[i] > 0 and target[i] == 0)
                   for i in range(len(target)))]
    for size in range(1, len(kept) + 1):
        for subset in combinations(kept, size):
            sol = _solve_convex(list(subset), target)
            if sol is not None and all(l >= 0 for l in sol):
                return True
    return False


def dense_lp(A, b, columns=None):
    """The LPProblem of the dense 0/1 system A x = b, its columns labelled
    0, 1, ... unless columns are given; any other entry of A raises."""
    n = len(A[0]) if A else len(columns or ())
    if any(v not in (0, 1) for row in A for v in row):
        raise ValueError("lp_feasible takes 0/1 systems only")
    return LPProblem([[j for j, v in enumerate(row) if v] for row in A],
                     list(b),
                     list(range(n)) if columns is None else list(columns))


def _integer_rows(prob):
    """Row i of [A | b] as (nums, den, support): ints over a positive
    denominator, and the columns where A is nonzero."""
    rows = []
    for a, b in zip(prob.A, prob.b):
        den = lcm(b.denominator, *{v.denominator for v in a})
        rows.append(([v.numerator * (den // v.denominator) for v in [*a, b]],
                     den, [j for j, v in enumerate(a) if v]))
    return rows


def _reduced(nums, den):
    """The row nums/den with the common factor of its integers removed."""
    g = gcd(den, *nums)
    if g == 1:
        return nums, den
    return [v // g for v in nums], den // g


def lp_feasible_tableau(prob, bland_after=50):
    """Decide A x = b, x >= 0 exactly on the full fraction-free tableau.

    Returns ("feasible", x) or ("infeasible", y) where y is a Farkas
    certificate: yA <= 0 on every column and y.b > 0.

    Tableau row i is rows[i] / dens[i], the objective row obj / oden: lists
    of ints over a positive denominator, gcd-reduced after every update.
    The entering column has the largest objective entry, or the first
    positive one after bland_after degenerate pivots in a row.
    """
    m = len(prob.b)
    n = prob.ncols
    if m == 0:
        return "feasible", [ZERO] * n
    rows, dens, sign = [], [], []
    irows = _integer_rows(prob)
    oden = lcm(*(den for _, den, _ in irows))
    obj = [0] * n + [oden] * m + [0]
    for i, (nums, den, support) in enumerate(irows):
        sign.append(1 if nums[-1] >= 0 else -1)
        row = [sign[i] * v for v in nums]
        row[n:n] = [0] * m
        row[n + i], f = den, oden // den
        for j in support:
            obj[j] += f * row[j]
        obj[-1] += f * row[-1]
        rows.append(row)
        dens.append(den)
    obj, oden = _reduced(obj, oden)
    basis, stalled = list(range(n, n + m)), 0
    while True:
        top = max(obj[:n], default=0)
        if top <= 0:
            break
        enter = obj.index(top) if stalled < bland_after else \
            next(j for j, v in enumerate(obj) if v > 0)
        # minimum ratio rhs/coef over positive coef (the row denominator
        # cancels), compared by cross-multiplying; ties go to the smallest
        # basis index
        leave = None
        for i, row in enumerate(rows):
            coef = row[enter]
            if coef > 0:
                if leave is None:
                    leave, best_rhs, best_coef = i, row[-1], coef
                    continue
                lhs, rhs = row[-1] * best_coef, best_rhs * coef
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, best_rhs, best_coef = i, row[-1], coef
        if leave is None:
            # the phase-1 objective is bounded below by zero, so an
            # unbounded entering column cannot happen; guard anyway
            raise DomainError("phase-1 simplex detected an unbounded ray")
        stalled = stalled + 1 if best_rhs == 0 else 0
        prow, piv = _reduced(rows[leave], rows[leave][enter])
        rows[leave], dens[leave] = prow, piv
        for i, row in enumerate(rows):
            coef = row[enter]
            if coef and i != leave:
                rows[i], dens[i] = _reduced(
                    [piv * a - coef * p for a, p in zip(row, prow)],
                    dens[i] * piv)
        coef = obj[enter]
        if coef:
            obj, oden = _reduced(
                [piv * a - coef * p for a, p in zip(obj, prow)], oden * piv)
        basis[leave] = enter
    if obj[-1] > 0:
        return "infeasible", [Fraction(sign[i] * obj[n + i], oden)
                              for i in range(m)]
    x = [ZERO] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = Fraction(rows[i][-1], dens[i])
    return "feasible", x


def marginal_rows_dense(scn, model, secs):
    """The dense 0/1 rows of the noncontextuality LP as a full row per
    constraint: one row of ones, then one row per maximal simplex m and
    outcome o, with a 1 for each section whose value at m is o."""
    A = [[1] * len(secs)]
    for m in scn.base.maximal:
        values = [s.value_at(m) for s in secs]
        for o in scn.sets[m]:
            A.append([1 if v == o else 0 for v in values])
    return A


def lp_feasible_fraction(prob, bland_after=50, log=None):
    """Decide A x = b, x >= 0 exactly.

    Returns ("feasible", x) or ("infeasible", y) where y is a Farkas
    certificate: yA <= 0 on every column and y.b > 0.

    The entering column has the largest objective entry, ties to the
    smallest index, except from the bland_after-th degenerate pivot in a
    row (zero right-hand side in the leaving row) until the next
    nondegenerate one, where it is the first positive entry.  If log is a
    list, each pivot appends (rule, entering column, largest-entry column).
    """
    m = len(prob.A)
    n = prob.ncols
    if m == 0:
        return "feasible", [ZERO] * n
    sign = [ONE if prob.b[i] >= 0 else -ONE for i in range(m)]
    rows = []
    for i in range(m):
        row = [sign[i] * v for v in prob.A[i]]
        row += [ONE if k == i else ZERO for k in range(m)]
        row.append(sign[i] * prob.b[i])
        rows.append(row)
    obj = [sum(rows[i][j] for i in range(m)) for j in range(n + m + 1)]
    basis = [n + i for i in range(m)]
    stalled = 0
    while True:
        positive = [j for j in range(n) if obj[j] > 0]
        if not positive:
            break
        dantzig = max(positive, key=lambda j: (obj[j], -j))
        rule = "dantzig" if stalled < bland_after else "bland"
        enter = dantzig if rule == "dantzig" else positive[0]
        if log is not None:
            log.append((rule, enter, dantzig))
        best = None
        for i in range(m):
            coef = rows[i][enter]
            if coef > 0:
                ratio = rows[i][-1] / coef
                if best is None or ratio < best[0] or \
                        (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            # the phase-1 objective is bounded below by zero, so an
            # unbounded entering column cannot happen; guard anyway
            raise DomainError("phase-1 simplex detected an unbounded ray")
        ratio, leave = best
        stalled = stalled + 1 if ratio == 0 else 0
        piv = rows[leave][enter]
        rows[leave] = [v / piv for v in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][enter] != 0:
                coef = rows[i][enter]
                rows[i] = [a - coef * b for a, b in zip(rows[i], rows[leave])]
        if obj[enter] != 0:
            coef = obj[enter]
            obj = [a - coef * b for a, b in zip(obj, rows[leave])]
        basis[leave] = enter
    if obj[-1] > 0:
        cert = [sign[i] * obj[n + i] for i in range(m)]
        return "infeasible", cert
    x = [ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = rows[i][-1]
    return "feasible", x


def lp_feasible_bland(prob):
    """Decide A x = b, x >= 0 exactly, entering by Bland's rule throughout.

    Returns ("feasible", x) or ("infeasible", y) where y is a Farkas
    certificate: yA <= 0 on every column and y.b > 0.
    """
    m = len(prob.A)
    n = prob.ncols
    if m == 0:
        return "feasible", [ZERO] * n
    sign = [ONE if prob.b[i] >= 0 else -ONE for i in range(m)]
    rows = []
    for i in range(m):
        row = [sign[i] * v for v in prob.A[i]]
        row += [ONE if k == i else ZERO for k in range(m)]
        row.append(sign[i] * prob.b[i])
        rows.append(row)
    obj = [sum(rows[i][j] for i in range(m)) for j in range(n + m + 1)]
    basis = [n + i for i in range(m)]
    while True:
        enter = next((j for j in range(n) if obj[j] > 0), None)
        if enter is None:
            break
        best = None
        for i in range(m):
            coef = rows[i][enter]
            if coef > 0:
                ratio = rows[i][-1] / coef
                if best is None or ratio < best[0] or \
                        (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            # the phase-1 objective is bounded below by zero, so an
            # unbounded entering column cannot happen; guard anyway
            raise DomainError("phase-1 simplex detected an unbounded ray")
        _, leave = best
        piv = rows[leave][enter]
        rows[leave] = [v / piv for v in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][enter] != 0:
                coef = rows[i][enter]
                rows[i] = [a - coef * b for a, b in zip(rows[i], rows[leave])]
        if obj[enter] != 0:
            coef = obj[enter]
            obj = [a - coef * b for a, b in zip(obj, rows[leave])]
        basis[leave] = enter
    if obj[-1] > 0:
        cert = [sign[i] * obj[n + i] for i in range(m)]
        return "infeasible", cert
    x = [ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = rows[i][-1]
    return "feasible", x


def verify_certificate_fraction(prob, y):
    """Exact re-check of a Farkas certificate in Fractions: yA <= 0 on
    every column and y.b > 0, summing over nonzero terms only."""
    y = [rat(v) for v in y]
    if len(y) != len(prob.A):
        return False
    ya = [0] * prob.ncols
    for yi, row in zip(y, prob.A):
        if yi:
            for j, a in enumerate(row):
                if a:
                    ya[j] += yi * a
    if any(v > 0 for v in ya):
        return False
    return sum(yi * bi for yi, bi in zip(y, prob.b) if yi) > 0


def verify_witness_fraction(prob, x):
    """Exact re-check of a feasible point in Fractions: x >= 0 and A x = b,
    summing over the support of x only."""
    x = [rat(v) for v in x]
    if len(x) != prob.ncols or any(v < 0 for v in x):
        return False
    support = [(j, v) for j, v in enumerate(x) if v]
    return all(sum(row[j] * v for j, v in support) == b
               for row, b in zip(prob.A, prob.b))


def enumerate_sset_maps_bfs(X, Y, candidates, cap=10 ** 6):
    """All maps X -> Y with values drawn from candidates(n, x), commuting
    with faces; degenerate values are forced by lower degrees, through the
    first (j, parent) in X's own order with s_j parent the simplex."""
    degsrc = {}
    for n in range(X.d):
        for x in X.simp[n]:
            for j, y in enumerate(X.degen[n][x]):
                degsrc.setdefault((n + 1, y), (j, x))
    partials = [{}]
    for n in range(X.d + 1):
        for x in X.simp[n]:
            forced = degsrc.get((n, x))
            nxt = []
            for p in partials:
                if forced is not None:
                    j, parent = forced
                    val = Y.sdegen(n - 1, j, p[(n - 1, parent)])
                    opts = [val]
                else:
                    opts = list(candidates(n, x))
                    if n >= 1:
                        want = tuple(p[(n - 1, X.dface(n, i, x))]
                                     for i in range(n + 1))
                        opts = [y for y in opts
                                if tuple(Y.face[n][y]) == want]
                for y in opts:
                    q = dict(p)
                    q[(n, x)] = y
                    nxt.append(q)
            if len(nxt) > cap:
                raise ResourceLimitError("map enumeration over cap", cap=cap,
                                         estimate=len(nxt),
                                         stage="enumerate_sset_maps")
            partials = nxt
    out = []
    for p in partials:
        comp = {n: {} for n in range(X.d + 1)}
        for (n, x), y in p.items():
            comp[n][x] = y
        out.append(SSetMap(X, Y, comp, check=False))
    return out


def nerve_space_by_loops(cpx, d):
    """The nerve space of a complex with each table written out by hand:
    the tuples over every maximal simplex, deduplicated by id and sorted,
    then their faces and degeneracies id by id."""
    simp = {0: ("()",)}
    payload = {(0, "()"): ()}
    tuples = {0: [()]}
    for n in range(1, d + 1):
        seen = {}
        for m in cpx.maximal:
            subs = [EMPTY] + list(nonempty_subsets(m))
            for t in product(subs, repeat=n):
                seen.setdefault(nerve_tuple_id(t), t)
        simp[n] = tuple(sorted(seen))
        tuples[n] = [seen[tid] for tid in simp[n]]
        payload.update(((n, tid), seen[tid]) for tid in simp[n])
    face = {n: {nerve_tuple_id(t): tuple(nerve_tuple_id(nerve_face(t, i))
                                         for i in range(n + 1))
                for t in tuples[n]} for n in range(1, d + 1)}
    degen = {n: {nerve_tuple_id(t): tuple(nerve_tuple_id(nerve_degen(t, j))
                                          for j in range(n + 1))
                 for t in tuples[n]} for n in range(d)}
    return TruncatedSSet(d, simp, face, degen, payload)


def pullback_along_simplex_by_pairing(fmap, n, x, d):
    """The pullback of f along a degree-n simplex x as the pairs of the
    standard simplex and E that lie over the same simplex of the base, with
    the payload rewritten from (theta id, e) to (theta, e)."""
    D = standard_simplex(n, d)
    below = {(m, tid): apply_operator(fmap.target, n, x, theta)
             for (m, tid), theta in D.payload.items()}
    P = _pair_sset(D, fmap.source, d,
                   lambda m, tid: fmap.fiber(m, below[(m, tid)]))
    P.payload = {(m, pid): (D.payload[(m, tid)], e)
                 for (m, pid), (tid, e) in P.payload.items()}
    return P


def simplex_id_by_map(ms, n, y, x, value):
    """MappingSpace.simplex_id through the fiberwise map itself: build the
    SSetMap that sends each cell (phi, e) of the pullback of f along x to
    the cell (phi, value(m, phi, e)) of the pullback of g along y, and find
    its key in ms.ids."""
    PX = ms.pb_src(n, x)
    comp = {}
    for m in range(ms.d + 1):
        comp[m] = {}
        for pid in PX.simp[m]:
            phi, e = PX.payload[(m, pid)]
            comp[m][pid] = pair_name(theta_id(phi), value(m, phi, e))
    alpha = SSetMap(PX, ms.pb_dst(n, y), comp, check=False)
    return ms.ids[(n, y, x, alpha.key())]


def fiberwise_maps(ms):
    """The fiberwise map of each simplex of a mapping space, by (n, sid):
    every map between the pullbacks that keeps operators, found by the
    breadth-first search and named through ms.ids, which must hold exactly
    these maps."""
    X, Y = ms.f.target, ms.g.target
    out = {}
    for n in range(ms.d + 1):
        for y in Y.simp[n]:
            PY = ms.pb_dst(n, y)
            for x in X.simp[n]:
                PX = ms.pb_src(n, x)

                def candidates(m, pid, _PX=PX, _PY=PY):
                    theta = _PX.payload[(m, pid)][0]
                    return [q for q in _PY.simp[m]
                            if _PY.payload[(m, q)][0] == theta]

                for alpha in enumerate_sset_maps_bfs(PX, PY, candidates):
                    out[(n, ms.ids[(n, y, x, alpha.key())])] = alpha
    assert sorted(out) == sorted(ms.payload)
    return out


def mapping_face_degen_by_maps(ms):
    """The face and degeneracy tables of ms.sset, computed by restricting
    each simplex's whole fiberwise map along the coface or codegeneracy and
    looking the result up with simplex_id_by_map."""
    X, Y = ms.f.target, ms.g.target
    alphas = fiberwise_maps(ms)

    def act(n, sid, theta, k):
        y, x, _ = ms.payload[(n, sid)]
        alpha = alphas[(n, sid)]

        def value(m, phi, e):
            src = pair_name(theta_id(compose_theta(theta, phi)), e)
            return alpha.target.payload[(m, alpha(m, src))][1]

        return simplex_id_by_map(ms, k, apply_operator(Y, n, y, theta),
                                 apply_operator(X, n, x, theta), value)

    face = {n: {sid: tuple(act(n, sid, coface(i, n), n - 1)
                           for i in range(n + 1))
                for sid in ms.sset.simp[n]}
            for n in range(1, ms.d + 1)}
    degen = {n: {sid: tuple(act(n, sid, codegen(j, n), n + 1)
                            for j in range(n + 1))
                 for sid in ms.sset.simp[n]}
             for n in range(ms.d)}
    return face, degen


def mapping_simplicial_by_search(f, g, d=None, cap=10 ** 6):
    """Map(f, g) with every simplex found by its own search: for each
    (n, y, x), every map from the pullback of f along x into g's fibers over
    the operator actions on y, enumerated over every cell at every degree
    up to d, and faces and degeneracies computed by restricting the value
    tables, each result named through ms.ids."""
    X, Y = f.target, g.target
    if d is None:
        d = min(X.d, Y.d)
    if d > X.d or d > Y.d:
        raise DomainError("mapping truncation exceeds the scenario bounds")
    ms = MappingSpace(f, g, d)
    levels = []
    total = 0
    for n in range(d + 1):
        level = []
        for y in Y.simp[n]:
            # a map into the pullback of g along y sends each cell (phi, e)
            # to some (phi, e') with e' over phi^* y: a map into g's fibers
            over = {(m, phi): g.fiber(m, apply_operator(Y, n, y, phi))
                    for m in range(d + 1) for phi in monotone_maps(m, n)}
            for x in X.simp[n]:
                cells, _, form = ms.cells(n, x)
                opts = {pid: over[(m, phi)] for m, pid, phi, _ in cells}
                for alpha in enumerate_sset_maps(
                        ms.pb_src(n, x), g.source, lambda m, pid: opts[pid],
                        cap=cap):
                    values = tuple([alpha(m, pid) for m, pid, _, _ in cells])
                    level.append((y, x, form % values, values))
                    total += 1
                    if total > cap:
                        raise ResourceLimitError(
                            "mapping space over cap", cap=cap,
                            estimate=total, stage="mapping_simplicial")
        level.sort()
        for k, (y, x, key, _) in enumerate(level):
            ms.ids[(n, y, x, key)] = "m%d.%d" % (n, k)
        levels.append([(y, x, values) for y, x, _, values in level])

    def restrict(n, cell, theta, k):
        """theta: [k] -> [n] sends (y, x, alpha) to (theta^* y, theta^* x,
        theta alpha), where (theta alpha)(phi, e) = alpha(theta phi, e)."""
        y, x, values = cell
        pos = ms.cells(n, x)[1]
        x2 = apply_operator(X, n, x, theta)
        return (apply_operator(Y, n, y, theta), x2,
                tuple([values[pos[(m, compose_theta(theta, phi), e)]]
                       for m, _, phi, e in ms.cells(k, x2)[0]]))

    ms.sset = _tabulate(d, levels, lambda n, c: ms.ids[
                            (n, c[0], c[1], ms.cells(n, c[1])[2] % c[2])],
                        lambda n, c, i: restrict(n, c, coface(i, n), n - 1),
                        lambda n, c, j: restrict(n, c, codegen(j, n), n + 1))
    ms.payload = ms.sset.payload
    ms.proj = SSetMap(ms.sset, Y, {n: {sid: ms.payload[(n, sid)][0]
                                       for sid in ms.sset.simp[n]}
                                   for n in range(d + 1)}, check=False)
    return ms


def every_degree_lp(fmap, sd):
    """The LP of check_contextuality_simplicial with the marginal of sd
    constrained at every simplex of every degree, not only the top one, and
    its answer from lp_feasible_fraction: (problem, status, x or y)."""
    secs = sections(fmap)
    X = fmap.target
    A = [[ONE] * len(secs)]
    b = [ONE]
    for n in range(X.d + 1):
        for x in X.simp[n]:
            for o in fmap.fiber(n, x):
                A.append([ONE if s(n, x) == o else ZERO for s in secs])
                b.append(sd[(n, x)](o))
    prob = dense_lp(A, b, columns=[s.key() for s in secs])
    return (prob,) + lp_feasible_fraction(prob)


def antichain_pairwise(simplices):
    """The inclusion-maximal sets, by comparing every pair."""
    sims = set(simplices)
    return [s for s in sims if not any(s < t for t in sims)]


def _alpha_extends(scn_f, scn_g, sigma, pi, alpha):
    """Does the top map factor through every face's restriction kernel?"""
    u = frozenset().union(*pi.values())
    for r in range(1, len(sigma) + 1):
        for tau in combinations(sorted(sigma), r):
            tau = frozenset(tau)
            if tau == sigma:
                continue
            ubar = frozenset().union(*[pi[x] for x in tau])
            down_f = scn_f.restriction_map(u, ubar)
            down_g = scn_g.restriction_map(sigma, tau)
            seen = {}
            for s in scn_f.sets[u]:
                cls = down_f[s]
                img = down_g[alpha[s]]
                if seen.setdefault(cls, img) != img:
                    return False
    return True


def mapping_event_scenario_filtered(scn_f, scn_g, cap=200000):
    """[F, G] by trying every map alpha: F(u) -> G(sigma) for every relation
    pi and keeping those that factor through every face, with each face
    restriction computed from the element and looked up by key."""
    base = scn_g.base
    elems = {}
    sets = {}
    for sigma in base.simplices():
        found = []
        for pi in _pi_choices(scn_f.base, sigma, cap):
            u = frozenset().union(*pi.values())
            dom = scn_f.sets[u]
            codom = scn_g.sets[sigma]
            count = len(codom) ** len(dom)
            if count > cap:
                raise ResourceLimitError(
                    "function space %d^%d over cap" % (len(codom), len(dom)),
                    cap=cap, estimate=count, stage="mapping_event_scenario")
            for images in product(codom, repeat=len(dom)):
                alpha = dict(zip(dom, images))
                if _alpha_extends(scn_f, scn_g, sigma, pi, alpha):
                    found.append(MappingElement(sigma, pi, alpha))
        found.sort(key=lambda e: e.key())
        sets[sigma] = tuple(e.key() for e in found)
        for e in found:
            elems[(sigma, e.key())] = e
    tables = {}
    for sigma in base.simplices():
        for tau in _codim1_faces(sigma):
            table = {}
            for key in sets[sigma]:
                restricted = restrict_mapping_element(
                    scn_f, scn_g, elems[(sigma, key)], tau)
                if (tau, restricted.key()) not in elems:
                    raise DomainError(
                        "restricted mapping element missing at %s" % skey(tau))
                table[key] = restricted.key()
            tables[(sigma, tau)] = table
    return EventScenario(base, sets, tables), elems


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


def elements_by_profiles(scn):
    """The bundle scenario of the category of elements, one vertex profile
    per outcome of each maximal simplex; its tops go through the checked
    constructor and so through complexes._antichain."""
    from ctxlib.bundles import BundleScenario
    total = SimplicialComplex([element_simplex(scn, sigma, s)
                               for sigma in scn.base.maximal
                               for s in scn.sets[sigma]])
    vmap = {v: unpair_name(v)[0] for v in total.vertices}
    return BundleScenario(total, scn.base, vmap)


def restrict_mapping_element(scn_f, scn_g, elem, tau):
    """Restrict (pi, alpha) from its simplex to a face tau."""
    tau = frozenset(tau)
    pi_t = {x: elem.pi[x] for x in tau}
    u = elem.domain
    ubar = frozenset().union(*pi_t.values())
    down_f = scn_f.restriction_map(u, ubar)
    down_g = scn_g.restriction_map(elem.sigma, tau)
    alpha_t = {}
    for s in scn_f.sets[u]:
        alpha_t[down_f[s]] = down_g[elem.alpha[s]]
    return MappingElement(tau, pi_t, alpha_t)


def global_sections_filtered(scn, cap=10 ** 6):
    """All vertex assignments lifting at every maximal simplex, breadth
    first: every partial section is copied and merged with every outcome of
    the next maximal simplex, and the disagreeing merges are dropped."""
    partials = [({}, ())]
    for m in scn.base.maximal:
        choices = sorted(scn.profile_index(m).items())
        verts = sorted(m)
        nxt = []
        for part, chosen in partials:
            for profile, s in choices:
                merged = dict(part)
                ok = True
                for x, o in zip(verts, profile):
                    if merged.get(x, o) != o:
                        ok = False
                        break
                    merged[x] = o
                if ok:
                    nxt.append((merged, chosen + (s,)))
            if len(nxt) > cap:
                raise ResourceLimitError(
                    "more than %d partial sections" % cap, cap=cap,
                    estimate=len(nxt), stage="global_sections")
        partials = nxt
    out = [GlobalSection(assignment, dict(zip(scn.base.maximal, chosen)), scn)
           for assignment, chosen in partials]
    out.sort(key=lambda s: s.key())
    return out
