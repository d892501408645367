"""Empirical models and the exact contextuality decision procedure.

Feasibility of the noncontextuality polytope is decided by a revised phase-1
simplex method over sparse rows, with Dantzig's entering rule and Bland's as
a fallback against cycling.  Each tableau row keeps only its block (its m
entries over the artificial columns) and right-hand side, as integers over
one positive denominator.  Infeasible systems come with a Farkas certificate
that third parties can re-verify without running the solver.
"""

from fractions import Fraction
from math import gcd, lcm

from .complexes import simplex_from_key, skey
from .dist import ONE, ZERO, Dist, mixture, pushforward, rat, rat_str
from .errors import DomainError, PreconditionError
from .events import global_sections


def _exact(v):
    return v if type(v) in (Fraction, int, bool) else rat(v)


_BLAND_AFTER = 50   # degenerate pivots in a row before Bland's rule


class LPProblem:
    """Equality constraints A x = b over nonnegative rational variables,
    each row of A kept as its support and its nonzero values there."""

    __slots__ = ("_rows", "b", "columns", "ncols")

    def __init__(self, A, b, columns=None):
        A = [[_exact(v) for v in row] for row in A]
        self.b = [_exact(v) for v in b]
        if len(A) != len(self.b):
            raise DomainError("matrix and right-hand side sizes differ")
        if len({len(row) for row in A}) > 1:
            raise DomainError("ragged constraint matrix")
        self.columns = list(columns) if columns is not None else None
        if self.columns is not None and A and len(self.columns) != len(A[0]):
            raise DomainError("column label count mismatch")
        self.ncols = len(A[0]) if A else len(self.columns or ())
        self._rows = [([j for j, v in enumerate(row) if v],
                       [v for v in row if v]) for row in A]

    @classmethod
    def _sparse(cls, rows, b, columns):
        """The system of (support, values) rows, taken unchecked."""
        prob = cls.__new__(cls)
        prob._rows, prob.b, prob.columns = rows, b, columns
        prob.ncols = len(columns)
        return prob

    @property
    def A(self):
        dense = [[0] * self.ncols for _ in self._rows]
        for row, (support, values) in zip(dense, self._rows):
            for j, v in zip(support, values):
                row[j] = v
        return dense


def _reduced(nums, den):
    """The row nums/den with the common factor of its integers removed."""
    g = gcd(den, *nums)
    if g == 1:
        return nums, den
    return [v // g for v in nums], den // g


def lp_feasible(prob):
    """Decide A x = b, x >= 0 exactly.

    Returns ("feasible", x) or ("infeasible", y) where y is a Farkas
    certificate: yA <= 0 on every column and y.b > 0.

    Revised simplex: tableau row i keeps only its block, its entries over
    the artificial columns, and its right-hand side, as m + 1 ints rows[i]
    over dens[i] > 0.  Its entry in column j of A is sum_k rows[i][k] C[k][j]
    over dens[i] L, where C = L sign A is integral; the objective row keeps
    these n entries too, over oden L.  gcd reductions rescale a row by a
    positive factor, so the pivots are the full tableau's.  The entering
    column has the largest objective entry, or the first positive one after
    _BLAND_AFTER degenerate pivots in a row.
    """
    m, n = len(prob.b), prob.ncols
    if m == 0:
        return "feasible", [ZERO] * n
    scale = lcm(*{v.denominator for _, values in prob._rows for v in values})
    sign = [1 if v >= 0 else -1 for v in prob.b]
    C = [[s * v.numerator * (scale // v.denominator) for v in values]
         for s, (_, values) in zip(sign, prob._rows)]
    colrows, colvals = [[] for _ in range(n)], [[] for _ in range(n)]
    for k, ((support, _), cs) in enumerate(zip(prob._rows, C)):
        for j, c in zip(support, cs):
            colrows[j].append(k)
            colvals[j].append(c)
    dens = [v.denominator for v in prob.b]
    rows = [[0] * k + [v.denominator] + [0] * (m - k - 1) + [s * v.numerator]
            for k, (s, v) in enumerate(zip(sign, prob.b))]
    oden = lcm(*dens)
    obj = [oden * sum(cs) for cs in colvals] + [oden] * m + \
        [sum(r[-1] * (oden // d) for r, d in zip(rows, dens))]
    obj, oden = _reduced(obj, oden)
    basis, stalled = list(range(n, n + m)), 0
    while True:
        top = max(obj[:n], default=0)
        if top <= 0:
            break
        enter = obj.index(top) if stalled < _BLAND_AFTER else \
            next(j for j, v in enumerate(obj) if v > 0)
        ks, cs = colrows[enter], colvals[enter]
        col = [sum(row[k] * c for k, c in zip(ks, cs)) for row in rows]
        # minimum ratio rhs/coef over positive coef (the row denominator
        # cancels), compared by cross-multiplying; ties go to the smallest
        # basis index
        leave = None
        for i, coef in enumerate(col):
            if coef > 0:
                if leave is None:
                    leave, best_rhs, best_coef = i, rows[i][-1], coef
                    continue
                lhs, rhs = rows[i][-1] * best_coef, best_rhs * coef
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, best_rhs, best_coef = i, rows[i][-1], coef
        if leave is None:
            # the phase-1 objective is bounded below by zero, so an
            # unbounded entering column cannot happen; guard anyway
            raise DomainError("phase-1 simplex detected an unbounded ray")
        stalled = stalled + 1 if best_rhs == 0 else 0
        prow, piv = rows[leave], col[leave]
        for i, coef in enumerate(col):
            if coef and i != leave:
                rows[i], dens[i] = _reduced(
                    [piv * a - coef * p for a, p in zip(rows[i], prow)],
                    dens[i] * piv)
        # the pivot row's original entries, from the rows of A its block uses
        full = [0] * n
        for r, (support, _), cs in zip(prow, prob._rows, C):
            if r:
                for j, c in zip(support, cs):
                    full[j] += r * c
        coef = obj[enter]
        obj, oden = _reduced(
            [piv * a - coef * p for a, p in zip(obj, full + prow)],
            oden * piv)
        rows[leave], dens[leave] = _reduced([scale * v for v in prow], piv)
        basis[leave] = enter
    if obj[-1] > 0:
        return "infeasible", [Fraction(sign[i] * obj[n + i], oden)
                              for i in range(m)]
    x = [ZERO] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = Fraction(rows[i][-1], dens[i])
    return "feasible", x


def _scaled(values):
    """(ints, d): the rationals values as ints over their lcm denominator d."""
    values = [rat(q) for q in values]
    d = lcm(*{q.denominator for q in values})
    return [q.numerator * (d // q.denominator) for q in values], d


def verify_certificate(prob, y):
    """Exact re-check of a Farkas certificate against the system: yA <= 0
    on every column and y.b > 0, with y scaled to integers and summing over
    row supports only."""
    y, _ = _scaled(y)
    if len(y) != len(prob.b):
        return False
    ya = [0] * prob.ncols
    for yi, (support, values) in zip(y, prob._rows):
        if yi:
            for j, a in zip(support, values):
                ya[j] += yi * a
    if any(v > 0 for v in ya):
        return False
    return sum(yi * bi for yi, bi in zip(y, prob.b) if yi) > 0


def verify_witness(prob, x):
    """Exact re-check of a feasible point: x >= 0 and A (d x) = d b for
    integers d x over one d, summing over row supports only."""
    x, d = _scaled(x)
    if len(x) != prob.ncols or any(v < 0 for v in x):
        return False
    return all(sum(a * x[j] for j, a in zip(*row)) == b * d
               for row, b in zip(prob._rows, prob.b))


# ---------------------------------------------------------------------------
# Empirical models on event scenarios


class EmpiricalModel:
    """One distribution per maximal simplex of an event scenario."""

    __slots__ = ("scn", "dists", "_derived")

    def __init__(self, scn, dists):
        self.scn = scn
        self.dists = {}
        extra = set(dists) - set(scn.base.maximal)
        if extra:
            raise DomainError("%s is not a maximal context"
                              % min(map(skey, extra)))
        for m in scn.base.maximal:
            p = dists.get(m)
            if p is None:
                raise DomainError("no distribution at %s" % skey(m))
            outs = set(scn.sets[m])
            if any(s not in outs for s in p.support()):
                raise DomainError("support at %s outside the outcome set"
                                  % skey(m))
            self.dists[m] = p
        self._derived = None

    def derived(self):
        """Distributions on every simplex, pushed down from the maximals
        once.  The compatibility check: raises on disagreement, where
        validate_empirical reports.
        """
        if self._derived is None:
            report = validate_empirical(self.scn, self.dists)
            if not report["ok"]:
                raise DomainError("model is not compatible: %s"
                                  % report["failures"][:3])
            self._derived = report["derived"]
        return self._derived

    def at(self, sigma):
        return self.derived()[frozenset(sigma)]

    def __eq__(self, other):
        return (isinstance(other, EmpiricalModel) and self.scn == other.scn
                and self.dists == other.dists)

    def to_json(self):
        return {"kind": "model",
                "distributions": {skey(m): self.dists[m].to_json()
                                  for m in self.scn.base.maximal}}

    @classmethod
    def from_json(cls, scn, obj):
        tables = obj["distributions"]
        if not isinstance(tables, dict) or \
                not all(isinstance(t, dict) for t in tables.values()):
            raise DomainError("distributions must map context keys to "
                              "objects of outcome weights")
        dists = {}
        for key, table in tables.items():
            sigma = simplex_from_key(key)
            if sigma in dists:
                raise DomainError("two distributions at %s" % skey(sigma))
            dists[sigma] = Dist({o: rat(v) for o, v in table.items()})
        return cls(scn, dists)


def validate_empirical(scn, dists):
    """Compatibility report on a model's complete dists (see EmpiricalModel):
    marginals of the context distributions must agree on every shared face.
    Returns the derived face distributions."""
    failures = []
    derived = {}
    for sigma in scn.base.simplices():
        for m in scn.base.maximal:
            if sigma <= m:
                res = scn.restriction_map(m, sigma)
                q = pushforward(lambda s, _r=res: _r[s], dists[m])
                if sigma in derived and derived[sigma] != q:
                    failures.append({"law": "compatibility",
                                     "face": skey(sigma), "via": skey(m)})
                derived[sigma] = q
    return {"ok": not failures, "failures": failures, "derived": derived}


def theta_event(scn, secs, q):
    """Mix the deterministic models of global sections with the weights of q
    (a Dist over section keys)."""
    bykey = {s.key(): s for s in secs}
    dists = {}
    for m in scn.base.maximal:
        dists[m] = mixture([(w, Dist([(bykey[k].values[m], ONE)]))
                            for k, w in q.items()])
    return EmpiricalModel(scn, dists)


def push_empirical(mor, model):
    """Transport a model along an event morphism."""
    if mor.source != model.scn:
        raise DomainError("model does not live on the morphism source")
    dists = {}
    for m in mor.target.base.maximal:
        u = mor.relation.induced(m)
        comp = mor.component(m)
        dists[m] = pushforward(lambda s, _c=comp: _c[s], model.at(u))
    return EmpiricalModel(mor.target, dists)


# ---------------------------------------------------------------------------
# Contextuality


class Verdict:
    """Outcome of the feasibility decision, with re-checkable evidence."""

    __slots__ = ("contextual", "witness", "certificate", "problem",
                 "sections")

    def __init__(self, contextual, witness, certificate, problem, sections):
        self.contextual = contextual
        self.witness = witness            # Dist over section keys, or None
        self.certificate = certificate    # list of Fractions, or None
        self.problem = problem
        self.sections = sections          # the LP's variables, in order

    @property
    def section_keys(self):
        return self.problem.columns

    def to_json(self):
        if self.contextual:
            return {"verdict": "contextual",
                    "certificate": {"y": [rat_str(v)
                                          for v in self.certificate]}}
        return {"verdict": "noncontextual",
                "witness": {k: rat_str(w)
                            for k, w in self.witness.items()}}


def _decide(prob, secs):
    """Solve the LP over the sections secs and re-check the answer."""
    status, data = lp_feasible(prob)
    if status == "infeasible":
        if not verify_certificate(prob, data):
            raise DomainError("solver produced a non-verifying certificate")
        return Verdict(True, None, data, prob, secs)
    if not verify_witness(prob, data):
        raise DomainError("solver produced a non-verifying witness")
    support = [(k, w) for k, w in zip(prob.columns, data) if w > 0]
    if not support:   # zero-section systems are caught as infeasible above
        raise DomainError("feasible solution with empty support")
    return Verdict(False, Dist(support), None, prob, secs)


def _marginal_lp(secs, sites):
    """Weights over the sections secs that sum to one and reproduce a given
    marginal at every site.  sites yields (values, outcomes, p): the value of
    each section at the site, the site's outcomes in row order, and the
    marginal there."""
    n = len(secs)
    rows, b = [(list(range(n)), [1] * n)], [ONE]
    for values, outcomes, p in sites:
        groups = {}
        for j, v in enumerate(values):
            groups.setdefault(v, []).append(j)
        for o in outcomes:
            support = groups.get(o, [])
            rows.append((support, [1] * len(support)))
            b.append(p(o))
    return LPProblem._sparse(rows, b, [s.key() for s in secs])


def noncontextuality_lp(scn, model, secs):
    """Weights over the global sections secs that sum to one and whose
    mixture of deterministic models reproduces the model on every maximal
    simplex."""
    return _marginal_lp(secs, (([s.values[m] for s in secs], scn.sets[m],
                                model.dists[m]) for m in scn.base.maximal))


def check_contextuality(scn, model, cap=10 ** 6):
    """Decide whether a model extends to a global distribution; raises when
    it is not compatible."""
    model.derived()
    secs = global_sections(scn, cap=cap)
    return _decide(noncontextuality_lp(scn, model, secs), secs)


def check_contextuality_simplicial(fmap, sd, cap=10 ** 6):
    """The simplicial flavor: variables over sections of the scenario map.

    Constraints are imposed at the top degree only: every lower simplex is a
    face of one of its degeneracies, so the lower constraints follow from
    the face marginals of a valid simplicial distribution.
    """
    from .sset import sections, validate_simplicial_distribution
    report = validate_simplicial_distribution(fmap, sd)
    if not report["ok"]:
        raise DomainError("invalid simplicial distribution: %s"
                          % report["failures"][:3])
    secs = sections(fmap, cap=cap)
    n = fmap.target.d
    sites = (([s(n, x) for s in secs], fmap.fiber(n, x), sd[(n, x)])
             for x in fmap.target.simp[n])
    return _decide(_marginal_lp(secs, sites), secs)


# ---------------------------------------------------------------------------
# Transport between the event and simplicial settings


def simplicial_of_empirical(bnd, scn, model, nerve_scn):
    """Transfer a model on the event scenario of a bundle to a simplicial
    distribution on the bundle's nerve, via the fiber identification that
    sends a simplex over the union to its tuple of faces."""
    from .bundles import face_over
    from .sset import EMPTY, SimplicialDistribution, nerve_tuple_id
    derived = model.derived()
    NB = nerve_scn.target
    table = {}
    for n in range(NB.d + 1):
        for xid in NB.simp[n]:
            entries = NB.payload[(n, xid)]
            union = frozenset().union(*entries) if entries else frozenset()
            if not union:
                table[(n, xid)] = Dist([(nerve_tuple_id(
                    tuple(EMPTY for _ in entries)), ONE)])
                continue

            def lift(gkey, _entries=entries):
                gamma = simplex_from_key(gkey)
                return nerve_tuple_id(tuple(
                    face_over(bnd, gamma, sigma) if sigma else EMPTY
                    for sigma in _entries))

            table[(n, xid)] = pushforward(lift, derived[union])
    return SimplicialDistribution(table)


# ---------------------------------------------------------------------------
# Decomposition of noncontextual mapping-space distributions


def decompose_noncontextual(mspace, sd, cap=10 ** 6):
    """Write a noncontextual distribution on the mapping space as a convex
    combination of deterministic morphisms.

    Raises a precondition error carrying the Farkas certificate when the
    distribution is contextual.
    """
    from .sset import zeta_inverse
    verdict = check_contextuality_simplicial(mspace.proj, sd, cap=cap)
    if verdict.contextual:
        err = PreconditionError("distribution on the mapping space is "
                                "contextual; no decomposition exists")
        err.certificate = verdict.certificate
        err.problem = verdict.problem
        raise err
    secs = dict(zip(verdict.section_keys, verdict.sections))
    out = []
    for key, w in verdict.witness.items():
        out.append((w, zeta_inverse(mspace, secs[key])))
    return out
