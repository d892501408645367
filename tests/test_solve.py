"""The exact LP solver, empirical models, contextuality verdicts with
machine-checkable evidence, transport to the simplicial setting, and the
decomposition of noncontextual mapping-space distributions."""

import inspect
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import PR_BOX_TABLE, model_of, standard, triangle_parity_scn
from ctxlib import solve, sset
from ctxlib.bundles import BundleScenario, to_event
from ctxlib.complexes import SimplicialComplex, skey
from ctxlib.dist import Dist, delta, mixture, pushforward, rat_str
from ctxlib.errors import DomainError, PreconditionError, ResourceLimitError
from ctxlib.events import (EventScenario, elements, element_name,
                           event_presheaf, global_sections)
from ctxlib.rand import make_rng, rand_dist, rand_event, rand_path_model
from ctxlib.solve import (EmpiricalModel, Verdict, check_contextuality,
                          check_contextuality_simplicial,
                          decompose_noncontextual, lp_feasible,
                          noncontextuality_lp, push_empirical,
                          simplicial_of_empirical, theta_event,
                          validate_empirical, verify_certificate,
                          verify_witness)
from ctxlib.sset import (apply_operator, enumerate_det_morphisms,
                         mapping_simplicial, mu, nerve_bundle, nerve_tuple_id,
                         sections, theta_simplicial, zeta,
                         SimplicialDistribution,
                         validate_simplicial_distribution)
from helpers import (coordinates, dense_lp, every_degree_lp,
                     global_sections_filtered, in_hull, lp_feasible_bland,
                     lp_feasible_fraction, lp_feasible_tableau,
                     marginal_rows_dense, model_vector,
                     verify_certificate_fraction, verify_witness_fraction)

F = Fraction


class TestLP:
    def test_trivial_feasible(self):
        prob = dense_lp([[1]], [1])
        status, x = lp_feasible(prob)
        assert status == "feasible" and x == [F(1)]
        assert verify_witness(prob, x)

    def test_trivial_infeasible(self):
        prob = dense_lp([[1]], [-1])
        status, y = lp_feasible(prob)
        assert status == "infeasible"
        assert verify_certificate(prob, y)

    def test_zero_row_infeasible(self):
        prob = dense_lp([[0]], [1])
        status, y = lp_feasible(prob)
        assert status == "infeasible" and verify_certificate(prob, y)

    def test_empty_system_feasible(self):
        status, x = lp_feasible(dense_lp([], [], columns=[]))
        assert status == "feasible" and x == []

    def test_system_without_rows_keeps_its_columns(self):
        prob = dense_lp([], [], columns=["p", "q"])
        assert prob.ncols == 2 and prob.A == []
        assert lp_feasible(prob) == ("feasible", [F(0), F(0)])
        assert verify_witness(prob, [F(0), F(0)])

    def test_certificate_rejects_wrong_length(self):
        prob = dense_lp([[1]], [-1])
        assert not verify_certificate(prob, [F(-1), F(0)])

    def test_witness_rejects_negative(self):
        prob = dense_lp([[1]], [1])
        assert not verify_witness(prob, [F(-1)])

    def test_random_systems_verify(self):
        """Every answer on small random systems carries verifying evidence;
        systems built from a known nonnegative solution come back feasible."""
        r = make_rng(97)
        for trial in range(200):
            m = r.randint(1, 4)
            n = r.randint(1, 5)
            A = [[F(r.randint(0, 1)) for _ in range(n)] for _ in range(m)]
            if trial % 2 == 0:
                x0 = [F(r.randint(0, 3)) for _ in range(n)]
                b = [sum(row[j] * x0[j] for j in range(n)) for row in A]
                planted = True
            else:
                b = [F(r.randint(-3, 3)) for _ in range(m)]
                planted = False
            prob = dense_lp(A, b)
            status, data = lp_feasible(prob)
            if status == "feasible":
                assert verify_witness(prob, data)
            else:
                assert not planted
                assert verify_certificate(prob, data)


ENTRY = st.one_of(st.just(0), st.just(F(0)), st.integers(-3, 3),
                  st.fractions(-3, 3, max_denominator=6))


@st.composite
def small_systems(draw):
    """A 0/1 system A x = b with up to 6 rows and 8 columns: zero rows and
    columns are likely, and half the time b = A x0 for a nonnegative x0 with
    zeros, so feasible and degenerate systems are common too; else b is
    drawn from ENTRY, negative and fractional entries included."""
    m = draw(st.integers(0, 6))
    n = draw(st.integers(0, 8))
    A = [[draw(st.integers(0, 1)) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):
        x0 = [draw(st.sampled_from([F(0), F(0), F(1), F(1, 2), F(3)]))
              for _ in range(n)]
        b = [sum((a * x for a, x in zip(row, x0)), F(0)) for row in A]
    else:
        b = [draw(ENTRY) for _ in range(m)]
    return dense_lp(A, b)


def sparse_system(r):
    """A sparse 0/1 system A x = b with up to 20 rows and 40 columns, r a
    random.Random.  Half the time b = A x0 for a nonnegative x0 with zeros
    and halves, else b is random with a few negative and fractional
    entries."""
    m, n = r.randint(1, 20), r.randint(1, 40)
    density = r.choice((0.1, 0.2, 0.35))
    A = [[int(r.random() < density) for _ in range(n)] for _ in range(m)]
    if r.random() < 0.5:
        x0 = [r.choice((0, 0, 0, 1, 2, F(1, 2))) for _ in range(n)]
        b = [sum(a * x for a, x in zip(row, x0)) for row in A]
    else:
        b = [r.choice((0, 1, 1, 2, 3, -1, F(1, 3))) for _ in range(m)]
    return dense_lp(A, b)


def bell_scn(m):
    return event_presheaf(standard(
        [["a%d" % i, "b%d" % j] for i in range(m) for j in range(m)]))


def serialized(status, data, keys):
    """The JSON the CLI would print for this answer."""
    if status == "infeasible":
        return {"verdict": "contextual",
                "certificate": {"y": [rat_str(v) for v in data]}}
    return {"verdict": "noncontextual",
            "witness": {k: rat_str(v) for k, v in zip(keys, data) if v > 0}}


def bell_3x3_mixture():
    """A noncontextual 3x3x2 Bell model: uniform over the global sections
    with extra weight on four of them."""
    scn = bell_scn(3)
    secs = global_sections(scn)
    uniform = F(1, 3 * len(secs))
    weights = {s.key(): uniform for s in secs}
    for k in (3, 17, 40, 61):
        weights[secs[k].key()] += F(1, 6)
    return scn, theta_event(scn, secs, Dist(weights))


class TestIntegerTableau:
    """The revised simplex against the full integer tableau it replaced
    (helpers.lp_feasible_tableau) and the dense Fraction tableau with the
    same entering rule (helpers.lp_feasible_fraction): same pivots, same
    answers; and against the Bland-only Fraction tableau
    (helpers.lp_feasible_bland)."""

    @given(small_systems())
    @example(dense_lp([[1, 1, 0], [0, 1, 1], [1, 0, 1]],
                       [F(1, 2), F(2, 3), F(5, 6)]))
    @example(dense_lp([[1, 0, 1], [1, 1, 0]], [F(1, 3), F(-7, 10)]))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_fraction_tableau(self, prob):
        status, data = lp_feasible(prob)
        assert (status, data) == lp_feasible_tableau(prob) == \
            lp_feasible_fraction(prob)
        assert status == lp_feasible_bland(prob)[0]
        assert all(type(v) is Fraction for v in data)
        if status == "feasible":
            assert verify_witness(prob, data)
        else:
            assert verify_certificate(prob, data)

    @given(small_systems())
    @settings(max_examples=100, deadline=None)
    def test_bland_throughout_when_fallback_is_immediate(self, prob):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solve, "_BLAND_AFTER", 0)
            assert lp_feasible(prob) == lp_feasible_bland(prob)

    def test_fallback_after_one_degenerate_pivot(self, monkeypatch):
        """With the fallback after every degenerate pivot, the mixture LP
        enters by Bland's rule where it differs from the largest entry, and
        the answer matches the oracle with the same rule and verifies."""
        monkeypatch.setattr(solve, "_BLAND_AFTER", 1)
        scn, model = bell_3x3_mixture()
        verdict = check_contextuality(scn, model)
        log = []
        oracle = lp_feasible_fraction(verdict.problem, bland_after=1, log=log)
        assert any(rule == "bland" and enter != largest
                   for rule, enter, largest in log)
        assert oracle[0] == "feasible"
        assert verdict.to_json() == serialized(*oracle, verdict.section_keys)
        r = make_rng(11)
        for trial in range(100):
            m, n = r.randint(1, 5), r.randint(1, 7)
            A = [[F(r.randint(0, 1)) for _ in range(n)] for _ in range(m)]
            x0 = [F(r.choice((0, 0, 1, 2))) for _ in range(n)]
            b = [sum(a * x for a, x in zip(row, x0)) for row in A]
            if trial % 2:
                b = [F(r.randint(-2, 2)) for _ in range(m)]
            prob = dense_lp(A, b)
            status, data = lp_feasible(prob)
            assert (status, data) == lp_feasible_fraction(prob, bland_after=1)
            if status == "feasible":
                assert verify_witness(prob, data)
            else:
                assert trial % 2 and verify_certificate(prob, data)

    @given(st.randoms(use_true_random=False).map(sparse_system),
           st.sampled_from([50, 0, 1]))
    @settings(max_examples=100, deadline=None)
    def test_sparse_systems_match_oracles(self, prob, bland_after):
        """Larger sparse 0/1 systems, with the fallback rule at its default,
        immediate and after one degenerate pivot."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solve, "_BLAND_AFTER", bland_after)
            status, data = lp_feasible(prob)
        assert (status, data) == lp_feasible_tableau(prob, bland_after) == \
            lp_feasible_fraction(prob, bland_after)
        if status == "feasible":
            assert verify_witness(prob, data)
        else:
            assert verify_certificate(prob, data)

    def test_sparse_systems_reach_every_row_update(self):
        """On seeded sparse systems the row updates run with a unit and a
        non-unit pivot, and some block entries cancel to zero (their keys
        are deleted), as a line trace of lp_feasible shows."""
        code = lp_feasible.__code__
        lines = inspect.getsource(lp_feasible).splitlines()

        def line_of(text):
            return code.co_firstlineno + next(
                i for i, line in enumerate(lines) if text in line)

        branch, delete = line_of("if piv != 1:"), line_of("del row[k]")
        seen = set()

        def local(frame, event, arg):
            if event == "line" and frame.f_lineno == branch:
                seen.add(frame.f_locals["piv"] == 1)
            elif event == "line" and frame.f_lineno == delete:
                seen.add("cancel")
            return local

        r = make_rng(5)
        previous = sys.gettrace()
        sys.settrace(lambda frame, event, arg:
                     local if frame.f_code is code else None)
        try:
            for _ in range(40):
                lp_feasible(sparse_system(r))
        finally:
            sys.settrace(previous)
        assert seen == {True, False, "cancel"}

    @pytest.mark.parametrize("m, v", [
        (2, 1), (3, 1), (4, 1), (2, F(1, 4)), (2, F(1, 2)), (2, F(3, 4)),
        (3, None), (3, 0)], ids=[
        "pr-2x2x2", "pr-3x3x2", "pr-4x4x2", "noisy-1/4", "noisy-1/2",
        "noisy-3/4", "mixture-3x3x2", "uniform-3x3x2"])
    def test_bell_systems_match_tableau(self, m, v):
        """v PR + (1 - v) uniform on the m x m x 2 Bell scenario, where the
        PR-type box is anticorrelated at (a0, b0) and correlated elsewhere;
        v = None is the 3x3x2 mixture.  The revised simplex gives the
        tableau's answer, and the sparse LP has the old builder's dense 0/1
        rows."""
        if v is None:
            scn, model = bell_3x3_mixture()
        else:
            scn = bell_scn(m)
            pr = model_of(scn, {"a%d,b%d" % (i, j): PR_BOX_TABLE[
                "x2,y2" if (i, j) == (0, 0) else "x1,y1"]
                for i in range(m) for j in range(m)})
            model = EmpiricalModel(scn, {c: mixture([
                (v, p), (1 - v, Dist({o: F(1, 4) for o in scn.sets[c]}))])
                for c, p in pr.dists.items()})
        secs = global_sections(scn)
        prob, _ = noncontextuality_lp(scn, model)
        status, data = lp_feasible(prob)
        assert status == ("infeasible" if v and v > F(1, 2) else "feasible")
        assert (status, data) == lp_feasible_tableau(prob)
        assert prob.A == marginal_rows_dense(scn, model, secs)

    def test_pr_box_certificate_identical(self, chsh_scn):
        verdict = check_contextuality(chsh_scn,
                                      model_of(chsh_scn, PR_BOX_TABLE))
        oracle = lp_feasible_fraction(verdict.problem)
        assert oracle[0] == "infeasible"
        assert verdict.to_json() == serialized(*oracle, verdict.section_keys)

    def test_bell_3x3_mixture_witness_identical(self):
        verdict = check_contextuality(*bell_3x3_mixture())
        oracle = lp_feasible_fraction(verdict.problem)
        assert oracle[0] == "feasible"
        assert verdict.to_json() == serialized(*oracle, verdict.section_keys)

    def test_flipped_certificate_entry_rejected(self, chsh_scn):
        verdict = check_contextuality(chsh_scn,
                                      model_of(chsh_scn, PR_BOX_TABLE))
        y = list(verdict.certificate)
        k = max(range(len(y)), key=lambda i: abs(y[i]))
        y[k] = -y[k]
        assert verify_certificate(verdict.problem, verdict.certificate)
        assert not verify_certificate(verdict.problem, y)

    def test_perturbed_witness_weight_rejected(self):
        scn = bell_scn(2)
        secs = global_sections(scn)
        q = Dist([(secs[1].key(), F(1, 2)), (secs[6].key(), F(1, 2))])
        verdict = check_contextuality(scn, theta_event(scn, secs, q))
        x = [verdict.witness(k) for k in verdict.section_keys]
        assert verify_witness(verdict.problem, x)
        j, k = [i for i, v in enumerate(x) if v][:2]
        moved = list(x)
        moved[j] += F(1, 97)
        moved[k] -= F(1, 97)
        assert not verify_witness(verdict.problem, moved)
        off = next(i for i, v in enumerate(x) if not v)
        moved = list(x)
        moved[off] += F(1, 97)
        moved[j] -= F(1, 97)
        assert not verify_witness(verdict.problem, moved)


@st.composite
def perturbed(draw, v):
    """v unchanged, one entry longer or shorter, with one entry replaced,
    negated throughout, or spelled as strings."""
    v = list(v)
    how = draw(st.sampled_from(["same", "append", "drop", "replace",
                                "negate", "strings"]))
    if how == "append":
        v.append(draw(ENTRY))
    elif how == "drop" and v:
        v.pop()
    elif how == "replace" and v:
        v[draw(st.integers(0, len(v) - 1))] = draw(st.one_of(
            ENTRY, st.just(F(-1, 97)), st.just(F(1, 97))))
    elif how == "negate":
        v = [-q for q in v]
    elif how == "strings":
        v = [rat_str(q) for q in v]
    return v


class TestIntegerVerifiers:
    """The integer verifiers against the Fraction ones they replaced
    (helpers.verify_certificate_fraction, verify_witness_fraction): the same
    answer on the solver's vectors and on perturbations of them."""

    @given(small_systems(), st.data())
    @settings(max_examples=250, deadline=None)
    def test_agree_with_fraction_verifiers(self, prob, data):
        v = data.draw(perturbed(lp_feasible(prob)[1]))
        assert verify_certificate(prob, v) == \
            verify_certificate_fraction(prob, v)
        assert verify_witness(prob, v) == verify_witness_fraction(prob, v)


class TestEmpiricalModel:
    def test_derived_faces(self, path_scn):
        model = model_of(path_scn, {
            "a1,b1": {"0,0": "1/2", "1,1": "1/2"},
            "b1,c1": {"0,0": "1/2", "1,0": "1/2"}})
        at_b = model.at({"b1"})
        assert at_b("0") == F(1, 2) and at_b("1") == F(1, 2)

    @pytest.mark.parametrize("sigma, name", [(set(), "''"),
                                             ({"a", "c"}, "'a,c'")],
                             ids=["empty", "non-edge"])
    def test_at_a_non_simplex_is_a_domain_error(self, sigma, name):
        """On the path a-b-c neither the empty set nor {a, c} is a simplex;
        the error names it, rather than a KeyError from the derived table."""
        scn = event_presheaf(standard([["a", "b"], ["b", "c"]]))
        model = model_of(scn, {"a,b": {"0,0": "1"}, "b,c": {"0,1": "1"}})
        with pytest.raises(DomainError, match="%s is not a simplex" % name):
            model.at(sigma)

    def test_maximal_distributions_are_kept(self, path_scn):
        """At a maximal simplex the derived distribution is the model's own
        (the identity marginal is not rebuilt)."""
        r = make_rng(3)
        for _ in range(5):
            dists = rand_path_model(r, path_scn, ["a1", "b1", "c1"])
            derived = validate_empirical(path_scn, dists)["derived"]
            assert all(derived[m] is dists[m]
                       for m in path_scn.base.maximal)
            assert set(derived) == set(path_scn.base.simplices())

    def test_incompatible_marginals_detected(self, path_scn):
        model = model_of(path_scn, {
            "a1,b1": {"0,0": "1"},
            "b1,c1": {"1,0": "1"}})
        report = validate_empirical(path_scn, model.dists)
        assert not report["ok"]
        assert any(f["law"] == "compatibility" for f in report["failures"])
        with pytest.raises(DomainError, match="model is not compatible"):
            model.derived()

    def test_support_outside_outcomes_rejected(self, path_scn):
        with pytest.raises(DomainError):
            model_of(path_scn, {"a1,b1": {"2,2": "1"},
                                "b1,c1": {"0,0": "1"}})

    def test_json_round_trip(self, path_scn):
        model = model_of(path_scn, {
            "a1,b1": {"0,0": "1/3", "1,1": "2/3"},
            "b1,c1": {"0,1": "1/3", "1,0": "2/3"}})
        assert EmpiricalModel.from_json(path_scn, model.to_json()) == model


def thinned(r, scn):
    """scn with the outcomes at each maximal simplex of two or more vertices
    cut to a random nonempty subset, and its restrictions cut to match."""
    sets = dict(scn.sets)
    for m in scn.base.maximal:
        if len(m) > 1:
            sets[m] = tuple(o for o in sets[m] if r.random() < 0.6) or \
                sets[m][:1]
    return EventScenario(scn.base, sets, {
        (sigma, tau): {o: table[o] for o in sets[sigma]}
        for (sigma, tau), table in scn.codim1.items()})


class TestNoncontextualityLP:
    def test_matches_the_filtered_join_oracle(self):
        """On seeded random scenarios and path models, at several caps, a
        check builds the dense 0/1 system of helpers.marginal_rows_dense
        over helpers.global_sections_filtered, with the oracle's keys as
        columns and the model's marginals as right-hand side, or stops at
        the oracle's resource limit."""
        r = make_rng(37)
        triangle = triangle_parity_scn()
        cases = [(triangle, model_of(triangle, {
            "x,y": {"0,0": "1/2", "1,1": "1/2"},
            "y,z": {"0,0": "1/2", "1,1": "1/2"},
            "x,z": {"0,1": "1/2", "1,0": "1/2"}}))]
        while len(cases) < 60:
            scn = rand_event(r, max_contexts=4, max_context_size=3,
                             max_outcomes=3)
            if len(cases) % 2:      # not every vertex assignment lifts
                scn = thinned(r, scn)
            secs = global_sections_filtered(scn)
            if secs:
                cases.append((scn, theta_event(scn, secs, rand_dist(
                    r, [s.key() for s in secs], 8))))
        for length in range(1, 6):
            order = ["p%d" % i for i in range(length + 1)]
            scn = event_presheaf(standard(
                list(zip(order, order[1:])),
                [str(k) for k in range(r.randint(2, 3))]))
            cases.append((scn, EmpiricalModel(
                scn, rand_path_model(r, scn, order))))
        limits = 0
        for scn, model in cases:
            for cap in (1, 3, 10, 50, 10 ** 6):
                try:
                    secs = global_sections_filtered(scn, cap=cap)
                except ResourceLimitError as want:
                    with pytest.raises(ResourceLimitError) as got:
                        check_contextuality(scn, model, cap=cap)
                    assert (got.value.stage, got.value.estimate) == (
                        want.stage, want.estimate)
                    limits += 1
                    continue
                prob = check_contextuality(scn, model, cap=cap).problem
                assert prob.columns == [s.key() for s in secs]
                assert prob.A == marginal_rows_dense(scn, model, secs)
                assert prob.b == [1] + [model.dists[m](o)
                                        for m in scn.base.maximal
                                        for o in scn.sets[m]]
        assert 0 < limits < 5 * len(cases)


class TestThetaEvent:
    def test_delta_gives_deterministic_model(self, path_scn):
        secs = global_sections(path_scn)
        sec = secs[0]
        model = theta_event(path_scn, secs, delta(sec.key()))
        for m in path_scn.base.maximal:
            assert model.dists[m] == delta(sec.value_at(m))

    def test_theta_image_is_noncontextual(self, path_scn):
        secs = global_sections(path_scn)
        q = Dist({secs[0].key(): F(1, 3), secs[3].key(): F(2, 3)})
        verdict = check_contextuality(path_scn, theta_event(path_scn, secs, q))
        assert not verdict.contextual


class TestEventContextuality:
    def test_random_path_models_noncontextual(self, path_scn):
        r = make_rng(11)
        secs = global_sections(path_scn)
        for _ in range(20):
            model = EmpiricalModel(
                path_scn, rand_path_model(r, path_scn, ["a1", "b1", "c1"]))
            verdict = check_contextuality(path_scn, model)
            assert not verdict.contextual
            assert verify_witness(verdict.problem, [
                verdict.witness(k) for k in verdict.section_keys])
            rebuilt = theta_event(path_scn, secs, verdict.witness)
            assert rebuilt.dists == model.dists

    def test_pr_box_contextual_with_verified_certificate(self, chsh_scn):
        model = model_of(chsh_scn, PR_BOX_TABLE)
        verdict = check_contextuality(chsh_scn, model)
        assert verdict.contextual
        assert verify_certificate(verdict.problem, verdict.certificate)
        assert verdict.to_json()["verdict"] == "contextual"

    def test_deterministic_chsh_models_noncontextual(self, chsh_scn):
        secs = global_sections(chsh_scn)
        assert len(secs) == 16
        for sec in secs:
            model = theta_event(chsh_scn, secs, delta(sec.key()))
            assert not check_contextuality(chsh_scn, model).contextual

    def test_hull_oracle_agrees(self, chsh_scn):
        """Brute-force convex-hull membership, independent of the solver."""
        coords = coordinates(chsh_scn)
        secs = global_sections(chsh_scn)
        verts = [[F(1) if sec.value_at(m) == o else F(0)
                  for m, o in coords] for sec in secs]
        pr = model_of(chsh_scn, PR_BOX_TABLE)
        assert not in_hull(model_vector(pr, coords), verts)
        for sec, vec in zip(secs, verts):
            assert in_hull(vec, verts)

    def _pr_noise_mixture(self, chsh_scn, t):
        pr = model_of(chsh_scn, PR_BOX_TABLE)
        dists = {}
        for m in chsh_scn.base.maximal:
            uniform = Dist({o: F(1, 4) for o in chsh_scn.sets[m]})
            dists[m] = mixture([(t, pr.dists[m]), (1 - t, uniform)])
        return EmpiricalModel(chsh_scn, dists)

    def test_noise_thresholds(self, chsh_scn):
        for t, want in [(F(5, 8), True), (F(1, 2), False), (F(3, 8), False)]:
            model = self._pr_noise_mixture(chsh_scn, t)
            assert check_contextuality(chsh_scn, model).contextual is want

    def test_triangle_parity_strongly_contextual(self, triangle_scn):
        assert global_sections(triangle_scn) == []
        model = model_of(triangle_scn, {
            "x,y": {"0,0": "1/2", "1,1": "1/2"},
            "y,z": {"0,0": "1/2", "1,1": "1/2"},
            "x,z": {"0,1": "1/2", "1,0": "1/2"}})
        verdict = check_contextuality(triangle_scn, model)
        assert verdict.contextual
        assert verify_certificate(verdict.problem, verdict.certificate)


def bundle_model(scn, model):
    """Move a model from a presheaf scenario onto the event scenario of its
    element bundle (outcomes there name fiber simplices)."""
    bnd = elements(scn)
    scn2 = to_event(bnd)
    dists = {}
    for m in scn.base.maximal:
        ren = {s: skey(frozenset(
                   element_name(x, scn.restrict(m, frozenset([x]), s))
                   for x in m))
               for s in scn.sets[m]}
        dists[m] = pushforward(lambda s, _r=ren: _r[s], model.dists[m])
    return bnd, scn2, EmpiricalModel(scn2, dists)


class TestTransport:
    def test_path_model_noncontextual_in_every_flavor(self, path_scn):
        r = make_rng(59)
        model = EmpiricalModel(
            path_scn, rand_path_model(r, path_scn, ["a1", "b1", "c1"]))
        assert not check_contextuality(path_scn, model).contextual
        bnd, scn2, model2 = bundle_model(path_scn, model)
        assert not check_contextuality(scn2, model2).contextual
        ns = nerve_bundle(bnd)
        sd = simplicial_of_empirical(bnd, scn2, model2, ns)
        assert validate_simplicial_distribution(ns, sd)["ok"]
        assert not check_contextuality_simplicial(ns, sd).contextual
        prob, status, x = every_degree_lp(ns, sd)
        assert status == "feasible" and verify_witness(prob, x)

    def test_triangle_contextual_in_both_flavors(self, triangle_scn):
        model = model_of(triangle_scn, {
            "x,y": {"0,0": "1/2", "1,1": "1/2"},
            "y,z": {"0,0": "1/2", "1,1": "1/2"},
            "x,z": {"0,1": "1/2", "1,0": "1/2"}})
        bnd, scn2, model2 = bundle_model(triangle_scn, model)
        v1 = check_contextuality(scn2, model2)
        assert v1.contextual and verify_certificate(v1.problem,
                                                    v1.certificate)
        ns = nerve_bundle(bnd)
        sd = simplicial_of_empirical(bnd, scn2, model2, ns)
        v2 = check_contextuality_simplicial(ns, sd)
        assert v2.contextual
        assert verify_certificate(v2.problem, v2.certificate)
        prob, status, y = every_degree_lp(ns, sd)
        assert status == "infeasible" and verify_certificate(prob, y)

    def test_top_degree_agrees_with_full(self, path_scn):
        """Constraining only the top degree decides the same way as
        constraining every degree, on random compatible models."""
        r = make_rng(73)
        bnd = elements(path_scn)
        scn2 = to_event(bnd)
        ns = nerve_bundle(bnd)
        for _ in range(5):
            model = EmpiricalModel(
                path_scn, rand_path_model(r, path_scn, ["a1", "b1", "c1"]))
            _, _, model2 = bundle_model(path_scn, model)
            sd = simplicial_of_empirical(bnd, scn2, model2, ns)
            top = check_contextuality_simplicial(ns, sd)
            _, status, _ = every_degree_lp(ns, sd)
            assert top.contextual == False and status == "feasible"


def point_bundle(fibers, base_vertex):
    total = SimplicialComplex([{v} for v in fibers])
    base = SimplicialComplex([{base_vertex}])
    return BundleScenario(total, base, {v: base_vertex for v in fibers})


@pytest.fixture(scope="module")
def tiny_mapping():
    nf = nerve_bundle(point_bundle(["a1", "a2"], "u"), 1)
    ng = nerve_bundle(point_bundle(["b1", "b2"], "s"), 1)
    return mapping_simplicial(nf, ng, d=1)


class TestDecompose:
    def test_reconstructs_the_distribution(self, tiny_mapping):
        ms = tiny_mapping
        secs = sections(ms.proj)
        assert len(secs) == 6
        r = make_rng(83)
        for _ in range(10):
            q = rand_dist(r, [s.key() for s in secs])
            sd = theta_simplicial(ms.proj, secs, q)
            parts = decompose_noncontextual(ms, sd)
            assert sum(w for w, _ in parts) == 1
            det_keys = {d.key() for d in
                        enumerate_det_morphisms(ms.f, ms.g)}
            rebuilt = {}
            for w, det in parts:
                assert det.key() in det_keys
                sec = zeta(ms, det)
                for n in range(ms.g.target.d + 1):
                    for y in ms.g.target.simp[n]:
                        rebuilt.setdefault((n, y), []).append(
                            (w, delta(sec(n, y))))
            for key, terms in rebuilt.items():
                assert mixture(terms) == sd[key]

    def test_sections_enumerated_once(self, tiny_mapping, monkeypatch):
        ms = tiny_mapping
        secs = sections(ms.proj)
        sd = theta_simplicial(ms.proj, secs, delta(secs[0].key()))
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return sections(*args, **kwargs)

        monkeypatch.setattr(sset, "sections", counted)
        assert len(decompose_noncontextual(ms, sd)) == 1
        assert len(calls) == 1

    def test_decomposition_matches_mu_on_deltas(self, tiny_mapping):
        """The pairing mu is affine in its first argument: applied to a
        decomposed distribution it is the matching mixture of the pairings
        with the individual deterministic sections."""
        ms = tiny_mapping
        secs = sections(ms.proj)
        r = make_rng(29)
        q = rand_dist(r, [s.key() for s in secs])
        sd = theta_simplicial(ms.proj, secs, q)
        parts = decompose_noncontextual(ms, sd)
        for fsec in sections(ms.f):
            p = SimplicialDistribution({
                (n, x): delta(fsec(n, x))
                for n in range(ms.f.target.d + 1)
                for x in ms.f.target.simp[n]})
            got = mu(ms, sd, p)
            singles = []
            for w, det in parts:
                sec = zeta(ms, det)
                single = SimplicialDistribution({
                    key: delta(sec(*key)) for key in got.table})
                singles.append((w, mu(ms, single, p)))
            for key in got.table:
                assert mixture([(w, m[key]) for w, m in singles]) == got[key]


def triangle_mapping_distribution():
    """A contextual distribution on Map(point-nerve, triangle-nerve): the
    parity model's simplicial distribution embedded fiberwise."""
    tri = triangle_parity_scn()
    model = model_of(tri, {"x,y": {"0,0": "1/2", "1,1": "1/2"},
                           "y,z": {"0,0": "1/2", "1,1": "1/2"},
                           "x,z": {"0,1": "1/2", "1,0": "1/2"}})
    bnd, scn2, model2 = bundle_model(tri, model)
    tns = nerve_bundle(bnd)
    tsd = simplicial_of_empirical(bnd, scn2, model2, tns)
    pt = point_bundle(["q0"], "p")
    nf = nerve_bundle(pt, 2)
    ms = mapping_simplicial(nf, tns, d=2)
    NGg, Y = tns.source, tns.target

    def embed(n, y, e):
        ys = Y.payload[(n, y)]
        x_entries = tuple(frozenset(["p"]) if s else frozenset()
                          for s in ys)
        return ms.simplex_id(
            n, y, nerve_tuple_id(x_entries),
            lambda m, theta, _: apply_operator(NGg, n, e, theta))

    table = {}
    for n in range(3):
        for y in Y.simp[n]:
            table[(n, y)] = pushforward(
                lambda e, _n=n, _y=y: embed(_n, _y, e), tsd[(n, y)])
    return ms, SimplicialDistribution(table)


class TestContextualMapping:
    def test_embedded_parity_distribution_is_valid(self):
        ms, msd = triangle_mapping_distribution()
        assert validate_simplicial_distribution(ms.proj, msd)["ok"]

    def test_no_sections_so_decomposition_fails_with_certificate(self):
        ms, msd = triangle_mapping_distribution()
        assert sections(ms.proj) == []
        with pytest.raises(PreconditionError) as exc:
            decompose_noncontextual(ms, msd)
        err = exc.value
        assert verify_certificate(err.problem, err.certificate)
