"""bell-lp: check_contextuality on Bell-type standard scenarios.

Scenario m x m x k: parties a and b with m settings each, every pair
(a_i, b_j) a context, k outcomes per setting.  The inputs are

- PR-type boxes 2x2x2, 3x3x2 and 4x4x2: b - a = 1 (mod k) on one twisted
  context and b = a elsewhere, uniform over the k pairs allowed.  A 2 x 2
  sub-box holding the twist is a PR box, so the model is contextual.  On
  the larger boxes the twist sits on the first context: its position
  changes the pivot count several-fold (3x3x3: 2.2 s at (0, 0), 9.8 s at
  (2, 2)), so it is not seeded there.
- noisy 2x2x2 PR boxes v * PR + (1 - v) * uniform with seeded v on either
  side of 1/2, and v = 1/2 itself.  Fine's theorem (J. Math. Phys. 23,
  1982) gives the verdict: contextual iff some CHSH sum exceeds 2.
- mixtures of deterministic assignments and the uniform model, which are
  noncontextual by construction: seeded 2x2x2 ones, and 3x3x2 ones with
  fixed data.

Every name is seeded but keeps the default order (Names).  Every
certificate and witness is re-checked with this file's own arithmetic
over vertex assignments it enumerates itself.
"""

import itertools
import json
import random
from fractions import Fraction

from common import (Op, Result, Workload, dumps, expect, farkas_errors, frac,
                    rng)

from ctxlib import events, solve

HALF = Fraction(1, 2)


class Names:
    """Seeded names for an m x m x k scenario.  They keep the order of the
    default names a0 < a1 < ... < b0 < ... and 0 < 1 < ..., so renaming
    leaves the LP, and so its pivots and cost, unchanged."""

    def __init__(self, r, m, k):
        self.a = ["a%d" % t for t in sorted(r.sample(range(10, 100), m))]
        self.b = ["b%d" % t for t in sorted(r.sample(range(10, 100), m))]
        self.o = [str(t) for t in sorted(r.sample(range(10), k))]
        self.m, self.k = m, k


def scenario_json(names):
    m = names.m
    return {"kind": "standard",
            "contexts": [[names.a[i], names.b[j]]
                         for i in range(m) for j in range(m)],
            "outcomes": {v: list(names.o) for v in names.a + names.b}}


def model_json(table, names):
    """table: {(i, j): {(a, b): Fraction}} -> the CLI model format."""
    o = names.o
    return {"kind": "model",
            "distributions": {
                "%s,%s" % (names.a[i], names.b[j]): {
                    "%s,%s" % (o[a], o[b]): str(w)
                    for (a, b), w in sorted(dist.items()) if w}
                for (i, j), dist in sorted(table.items())}}


def pr_type(m, k, twist=(0, 0), shift=1):
    return {(i, j): {(a, (a + (shift if (i, j) == twist else 0)) % k):
                     Fraction(1, k) for a in range(k)}
            for i in range(m) for j in range(m)}


def noisy_pr(v, twist):
    pr = pr_type(2, 2, twist)
    return {ij: {(a, b): v * pr[ij].get((a, b), 0) + (1 - v) / 4
                 for a in range(2) for b in range(2)}
            for ij in pr}


def mixture(m, k, r, ndet, uniform_weight):
    uniform_weight = Fraction(uniform_weight)
    dets = [([r.randrange(k) for _ in range(m)],
             [r.randrange(k) for _ in range(m)]) for _ in range(ndet)]
    ws = [r.randint(1, 4) for _ in dets]
    total = sum(ws)
    table = {}
    for i in range(m):
        for j in range(m):
            dist = {(a, b): uniform_weight / (k * k)
                    for a in range(k) for b in range(k)}
            for (xa, xb), w in zip(dets, ws):
                dist[(xa[i], xb[j])] += (1 - uniform_weight) * Fraction(w,
                                                                       total)
            table[(i, j)] = dist
    return table


def chsh_max(table):
    """Largest CHSH sum of a 2 x 2 x 2 box."""
    corr = {ij: sum(w * (1 if a == b else -1) for (a, b), w in d.items())
            for ij, d in table.items()}
    return max(abs(sum(corr[ij] * (-1 if ij == odd else 1) for ij in corr))
               for odd in corr)


def no_signalling(table):
    for i in range(2):
        margs = {sum(w for (a, _), w in table[(i, j)].items() if a == 0)
                 for j in range(2)}
        if len(margs) != 1:
            return False
    for j in range(2):
        margs = {sum(w for (_, b), w in table[(i, j)].items() if b == 0)
                 for i in range(2)}
        if len(margs) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Independent re-check of verdicts


class ExactLP:
    """The noncontextuality system rebuilt from the JSON inputs: one row of
    ones, then one row per (context, outcome) with contexts in sorted-key
    order and outcomes in product order over sorted vertices."""

    def __init__(self, scn, model):
        self.vertices = sorted(scn["outcomes"])
        self.outcomes = scn["outcomes"]
        contexts = sorted((sorted(c) for c in scn["contexts"]),
                          key=",".join)
        self.rows = []
        self.b = [Fraction(1)]
        for ctx in contexts:
            key = ",".join(ctx)
            dist = model["distributions"].get(key, {})
            for combo in itertools.product(*[self.outcomes[v] for v in ctx]):
                label = ",".join(combo)
                self.rows.append((ctx, combo))
                self.b.append(frac(dist.get(label, "0")))
        self.row_of = {(tuple(ctx), combo): 1 + n
                       for n, (ctx, combo) in enumerate(self.rows)}
        self.contexts = contexts
        self.model = model

    def assignments(self):
        for values in itertools.product(*[self.outcomes[v]
                                          for v in self.vertices]):
            yield dict(zip(self.vertices, values))

    def certificate_errors(self, y):
        columns = ((s, [0] + [self.row_of[(tuple(ctx),
                                           tuple(s[v] for v in ctx))]
                              for ctx in self.contexts])
                   for s in self.assignments())
        return farkas_errors(y, self.b, columns)

    def witness_errors(self, witness):
        errors = []
        weights = {}
        for key, w in witness.items():
            parts = dict(item.split("=", 1) for item in key.split(";"))
            if sorted(parts) != self.vertices or any(
                    parts[v] not in self.outcomes[v] for v in parts):
                return ["witness key %r is not a vertex assignment" % key]
            weights[key] = (parts, frac(w))
        expect(errors, all(w > 0 for _, w in weights.values()),
               "witness has a nonpositive weight")
        expect(errors, sum(w for _, w in weights.values()) == 1,
               "witness weights do not sum to 1")
        for n, (ctx, combo) in enumerate(self.rows):
            got = sum(w for parts, w in weights.values()
                      if tuple(parts[v] for v in ctx) == combo)
            if got != self.b[1 + n]:
                errors.append("witness gives %s at %s=%s, model %s"
                              % (got, ",".join(ctx), combo, self.b[1 + n]))
                break
        return errors


def check_verdict(lp, text, contextual):
    try:
        out = json.loads(text)
    except ValueError:
        return ["output is not JSON"]
    errors = []
    verdict = out.get("verdict")
    if not expect(errors, verdict == ("contextual" if contextual
                                      else "noncontextual"),
                  "verdict %r, expected %s" % (verdict, "contextual"
                                               if contextual else
                                               "noncontextual")):
        return errors
    if contextual:
        y = [frac(v) for v in out["certificate"]["y"]]
        errors.extend(lp.certificate_errors(y))
    else:
        errors.extend(lp.witness_errors(out["witness"]))
    return errors


def make_op(name, names, table, contextual):
    scn = scenario_json(names)
    model = model_json(table, names)
    scn_text, model_text = json.dumps(scn), json.dumps(model)
    lp = ExactLP(scn, model)

    def run(traced):
        std = events.StandardScenario.from_json(json.loads(scn_text))
        event = events.event_presheaf(std)
        emp = solve.EmpiricalModel.from_json(event, json.loads(model_text))
        verdict = solve.check_contextuality(event, emp)
        return Result(dumps(verdict.to_json()))

    def check(result):
        return check_verdict(lp, result.text, contextual)

    return Op(name, run, check)


def build(seed, smoke=False, rundir=None, src=None):
    r = rng(seed, "bell-lp")
    ops = [make_op("pr-2x2x2", Names(r, 2, 2),
                   pr_type(2, 2, (r.randrange(2), r.randrange(2))), True),
           make_op("pr-3x3x2", Names(r, 3, 2), pr_type(3, 2), True)]
    if not smoke:
        ops.append(make_op("pr-4x4x2", Names(r, 4, 2), pr_type(4, 2), True))
    visibilities = [HALF, Fraction(r.randint(20, 49), 100),
                    Fraction(r.randint(51, 80), 100)]
    if not smoke:
        visibilities.append(Fraction(r.randint(20, 49), 100))
    for n, v in enumerate(visibilities):
        table = noisy_pr(v, (r.randrange(2), r.randrange(2)))
        if not no_signalling(table):
            raise ValueError("noisy PR box %s signals" % v)
        ops.append(make_op("noisy-pr-2x2x2-%d" % n, Names(r, 2, 2), table,
                           chsh_max(table) > 2))
    for n in range(1 if smoke else 2):
        ops.append(make_op("mix-2x2x2-%d" % n, Names(r, 2, 2),
                           mixture(2, 2, r, 3, Fraction(r.randrange(3), 4)),
                           False))
    # The cost of a 3 x 3 x 2 mixture varies from 0.1 s to 0.5 s with its
    # data, so its data is fixed and only its names are seeded.
    for n in range(1 if smoke else 6):
        fixed = random.Random("bell-lp-mixture:%d" % n)
        ops.append(make_op("mix-3x3x2-%d" % n, Names(r, 3, 2),
                           mixture(3, 2, fixed, 4, Fraction(1, 3)), False))
    return BellWorkload(ops)


class BellWorkload(Workload):
    def tampered(self, outputs):
        out = []
        for op, result in zip(self.ops, outputs):
            if result is None:
                continue
            obj = json.loads(result.text)
            if obj.get("verdict") == "contextual" and "cert" not in dict(out):
                y = obj["certificate"]["y"]
                k = max(range(len(y)), key=lambda i: abs(frac(y[i])))
                y[k] = str(-frac(y[k]))
                out.append(("cert", bool(op.check(Result(json.dumps(obj))))))
            elif obj.get("verdict") == "noncontextual" and \
                    "witness" not in dict(out):
                w = obj["witness"]
                keys = sorted(w)
                w[keys[0]] = str(frac(w[keys[0]]) + Fraction(1, 97))
                if len(keys) > 1:
                    w[keys[1]] = str(frac(w[keys[1]]) - Fraction(1, 97))
                out.append(("witness",
                            bool(op.check(Result(json.dumps(obj))))))
        return [("flipped certificate entry", dict(out).get("cert", False)),
                ("perturbed witness weight", dict(out).get("witness", False))]
