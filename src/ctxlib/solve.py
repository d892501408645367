"""Empirical models and the exact contextuality decision procedure.

Feasibility of the noncontextuality polytope, a 0/1 system A x = b with any
rational b, is decided by a revised phase-1 simplex method over sparse rows,
with Dantzig's entering rule and Bland's as a fallback against cycling.
Each tableau row keeps only the nonzeros of its block (its row of the basis
inverse) and its right-hand side, as integers over one positive denominator.
Infeasible systems come with a Farkas certificate that third parties can
re-verify without running the solver.  General rational tableaux live in
the tests, as oracles.
"""

from fractions import Fraction
from math import gcd, lcm

from .complexes import simplex_from_key, skey
from .dist import ONE, ZERO, Dist, mixture, pushforward, rat, rat_str
from .errors import DomainError, PreconditionError
from .events import section_join


_BLAND_AFTER = 50   # degenerate pivots in a row before Bland's rule


class LPProblem:
    """Equality constraints A x = b over nonnegative rational variables, A a
    0/1 matrix kept as the support of each row (the columns where it is 1),
    b any rationals, one label per column; taken unchecked."""

    __slots__ = ("_rows", "b", "columns", "ncols")

    def __init__(self, rows, b, columns):
        self._rows, self.b, self.columns = rows, b, columns
        self.ncols = len(columns)

    @property
    def A(self):
        dense = [[0] * self.ncols for _ in self._rows]
        for row, support in zip(dense, self._rows):
            for j in support:
                row[j] = 1
        return dense


def _reduced(nums, den):
    """The row nums/den with the common factor of its integers removed."""
    g = gcd(den, *nums)
    if g == 1:
        return nums, den
    return [v // g for v in nums], den // g


def lp_feasible(prob):
    """Decide A x = b, x >= 0 exactly, for a 0/1 matrix A and any rational b.

    Returns ("feasible", x) or ("infeasible", y) where y is a Farkas
    certificate: yA <= 0 on every column and y.b > 0.

    Revised simplex: tableau row i keeps its block, its entries over the
    artificial columns, as a dict rows[i] {k: int} of nonzeros, and its
    right-hand side rhs[i], over dens[i] > 0; where[k] is the set of rows
    nonzero in block column k.  Row k of sign A is sign[k] on its support,
    so row i's entry in column j of A is sum_k rows[i][k] sign[k] over
    dens[i], summed over where[k] for the rows k of A that hold j.  A pivot
    updates only the rows that column touches, at the pivot row's keys
    (scaling the row first unless the pivot is 1).  The objective row is
    dense, over oden; a pivot subtracts one signed multiple per key of the
    pivot row, on that row of A's support.  gcd reductions rescale a row by
    a positive factor, so the pivots are the full tableau's.  The entering
    column has the largest objective entry, or the first positive one after
    _BLAND_AFTER degenerate pivots in a row.
    """
    m, n = len(prob.b), prob.ncols
    sign = [1 if v >= 0 else -1 for v in prob.b]
    colrows = [[] for _ in range(n)]
    for k, support in enumerate(prob._rows):
        for j in support:
            colrows[j].append(k)
    dens = [v.denominator for v in prob.b]
    rhs = [s * v.numerator for s, v in zip(sign, prob.b)]
    rows = [{k: d} for k, d in enumerate(dens)]
    where = [{k} for k in range(m)]
    oden = lcm(*dens)
    obj = [oden * sum(map(sign.__getitem__, ks)) for ks in colrows] + \
        [oden] * m + [sum(r * (oden // d) for r, d in zip(rhs, dens))]
    obj, oden = _reduced(obj, oden)
    basis, stalled = list(range(n, n + m)), 0
    while True:
        top = max(obj[:n], default=0)
        if top <= 0:
            break
        enter = obj.index(top) if stalled < _BLAND_AFTER else \
            next(j for j, v in enumerate(obj) if v > 0)
        col = {}
        for k in colrows[enter]:
            s = sign[k]
            for i in where[k]:
                col[i] = col.get(i, 0) + rows[i][k] * s
        # minimum ratio rhs/coef over positive coef (the row denominator
        # cancels), compared by cross-multiplying; ties go to the smallest
        # basis index, so the order of col does not matter
        leave = None
        for i, coef in col.items():
            if coef > 0 and (leave is None or (rhs[i] * piv, basis[i]) <
                             (rhs[leave] * coef, basis[leave])):
                leave, piv = i, coef
        if leave is None:
            # the phase-1 objective is bounded below by zero, so an
            # unbounded entering column cannot happen; guard anyway
            raise DomainError("phase-1 simplex detected an unbounded ray")
        prow, prhs = rows[leave], rhs[leave]
        stalled = stalled + 1 if prhs == 0 else 0
        for i, coef in col.items():
            if coef and i != leave:
                row, den = rows[i], dens[i] * piv
                r = rhs[i] * piv - coef * prhs
                if piv != 1:
                    rows[i] = row = {k: a * piv for k, a in row.items()}
                for k, p in prow.items():
                    a = row.get(k, 0) - coef * p
                    if a:
                        row[k] = a
                        where[k].add(i)
                    else:
                        del row[k]
                        where[k].remove(i)
                g = gcd(den, r, *row.values())
                if g != 1:
                    r, den = r // g, den // g
                    for k in row:
                        row[k] //= g
                rhs[i], dens[i] = r, den
        # subtract coef times the pivot row's original entries: per key k,
        # one multiple of sign[k] on the support of row k of A
        coef = obj[enter]
        if piv != 1:
            obj = [piv * a for a in obj]
        for k, r in prow.items():
            r *= coef
            obj[n + k] -= r
            r *= sign[k]
            for j in prob._rows[k]:
                obj[j] -= r
        obj[-1] -= coef * prhs
        obj, oden = _reduced(obj, oden * piv)
        g = gcd(piv, prhs, *prow.values())
        for k in prow:
            prow[k] //= g
        rhs[leave], dens[leave] = prhs // g, piv // g
        basis[leave] = enter
    if obj[-1] > 0:
        return "infeasible", [Fraction(sign[i] * obj[n + i], oden)
                              for i in range(m)]
    x = [ZERO] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = Fraction(rhs[i], dens[i])
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
    for yi, support in zip(y, prob._rows):
        if yi:
            for j in support:
                ya[j] += yi
    if any(v > 0 for v in ya):
        return False
    return sum(yi * bi for yi, bi in zip(y, prob.b) if yi) > 0


def verify_witness(prob, x):
    """Exact re-check of a feasible point: x >= 0 and A (d x) = d b for
    integers d x over one d, summing over row supports only."""
    x, d = _scaled(x)
    if len(x) != prob.ncols or any(v < 0 for v in x):
        return False
    return all(sum(map(x.__getitem__, support)) == b * d
               for support, b in zip(prob._rows, prob.b))


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
        p = self.derived().get(frozenset(sigma))
        if p is None:
            raise DomainError("%r is not a simplex of the base" % skey(sigma))
        return p

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
    Returns the derived face distributions, dists' own at the maximals."""
    failures = []
    derived = dict(dists)
    for sigma in scn.base.simplices():
        for m in scn.base.maximal:
            if sigma <= m and sigma not in dists:
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
    """Outcome of the feasibility decision, with re-checkable evidence;
    sections are built for the witness support only."""

    __slots__ = ("contextual", "witness", "certificate", "problem",
                 "sections")

    def __init__(self, contextual, witness, certificate, problem, sections):
        self.contextual = contextual
        self.witness = witness            # Dist over section keys, or None
        self.certificate = certificate    # list of Fractions, or None
        self.problem = problem
        self.sections = sections          # {key: section}, or None

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


def _decide(prob, section):
    """Solve the LP and re-check the answer; section(j) builds the section
    of column j, called on the witness support only."""
    status, data = lp_feasible(prob)
    if status == "infeasible":
        if not verify_certificate(prob, data):
            raise DomainError("solver produced a non-verifying certificate")
        return Verdict(True, None, data, prob, None)
    if not verify_witness(prob, data):
        raise DomainError("solver produced a non-verifying witness")
    support = [j for j, w in enumerate(data) if w > 0]
    if not support:   # zero-section systems are caught as infeasible above
        raise DomainError("feasible solution with empty support")
    return Verdict(False, Dist([(prob.columns[j], data[j]) for j in support]),
                   None, prob, {prob.columns[j]: section(j) for j in support})


def _marginal_lp(keys, sites):
    """Weights over the sections named keys that sum to one and reproduce a
    given marginal at every site.  sites yields (values, outcomes, p): the
    value of each section at the site, the site's outcomes in row order, and
    the marginal there."""
    rows, b = [list(range(len(keys)))], [ONE]
    for values, outcomes, p in sites:
        groups = {o: [] for o in outcomes}
        for j, v in enumerate(values):
            groups[v].append(j)
        rows += map(groups.__getitem__, outcomes)
        b += map(p, outcomes)
    return LPProblem(rows, b, keys)


def noncontextuality_lp(scn, model, cap=10 ** 6):
    """Weights over the global sections, keys as columns, that sum to one
    and whose mixture of deterministic models reproduces the model (which
    must be compatible) on every maximal simplex; with section(j), the
    GlobalSection of column j (see section_join)."""
    model.derived()
    keys, outcomes, section = section_join(scn, cap)
    maxs = scn.base.maximal
    return _marginal_lp(keys, zip(outcomes, (scn.sets[m] for m in maxs),
                                  (model.dists[m] for m in maxs))), section


def check_contextuality(scn, model, cap=10 ** 6):
    """Decide whether a model extends to a global distribution; raises when
    it is not compatible."""
    return _decide(*noncontextuality_lp(scn, model, cap))


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
    return _decide(_marginal_lp([s.key() for s in secs], sites),
                   secs.__getitem__)


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
    return [(w, zeta_inverse(mspace, verdict.sections[key]))
            for key, w in verdict.witness.items()]
