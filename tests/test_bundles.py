"""Bundle scenarios: validation, the event round trip, pullbacks, and the
mapping bundle."""

from itertools import combinations, product

import pytest

from ctxlib.bundles import (BundleScenario, bundle_iso, direct_mapping_top,
                            enumerate_direct_mapping, face_transport,
                            family_over, mapping_bundle_scenario,
                            pullback_bundle,
                            pullback_functoriality_iso, pullback_vertex,
                            to_event, union_of_family, validate_bundle)
from ctxlib.complexes import (SimplicialComplex, SimplicialRelation,
                              simplex_from_key, skey)
from ctxlib.errors import DomainError
from ctxlib.events import elements, event_presheaf, validate_event_scenario
from ctxlib.laws import check_equivalence
from ctxlib.rand import make_rng, rand_bundle, rand_relation_into
from conftest import standard, triangle_parity_scn


@pytest.fixture(scope="module")
def path_bundle(path_scn):
    return elements(path_scn)


class TestValidation:
    def test_elements_of_presheaf_is_valid(self, path_bundle):
        assert validate_bundle(path_bundle)["ok"]

    def test_discrete_violation(self):
        total = SimplicialComplex([{"(a|0)", "(a|1)"}])
        base = SimplicialComplex([{"a"}])
        bnd = BundleScenario(total, base, {"(a|0)": "a", "(a|1)": "a"})
        report = validate_bundle(bnd)
        assert any(f["axiom"] == "discrete-over-vertices"
                   for f in report["failures"])

    def test_surjectivity_violation(self):
        total = SimplicialComplex([{"(a|0)"}])
        base = SimplicialComplex([{"a"}, {"c"}])
        bnd = BundleScenario(total, base, {"(a|0)": "a"})
        report = validate_bundle(bnd)
        assert any(f["axiom"] == "surjective-on-simplices"
                   for f in report["failures"])

    def test_star_local_surjectivity_violation(self):
        # both vertices covered, but no edge lies over the base edge
        total = SimplicialComplex([{"(a|0)"}, {"(b|0)"}])
        base = SimplicialComplex([{"a", "b"}])
        bnd = BundleScenario(total, base, {"(a|0)": "a", "(b|0)": "b"})
        report = validate_bundle(bnd)
        assert not report["ok"]
        axioms = {f["axiom"] for f in report["failures"]}
        assert "local-surjectivity" in axioms or \
            "surjective-on-simplices" in axioms

    def test_non_simplicial_image(self):
        total = SimplicialComplex([{"(a|0)", "(c|0)"}])
        base = SimplicialComplex([{"a", "b"}, {"b", "c"}])
        bnd = BundleScenario(total, base, {"(a|0)": "a", "(c|0)": "c"})
        report = validate_bundle(bnd)
        assert any(f["axiom"] == "simplicial" for f in report["failures"])

    def test_json_round_trip(self, path_bundle):
        assert BundleScenario.from_json(path_bundle.to_json()) == path_bundle


class TestFaceTransport:
    def test_unique_face(self, path_bundle):
        edge = frozenset(["a1", "b1"])
        tr = face_transport(path_bundle, edge, frozenset(["a1"]))
        for gamma, face in tr.items():
            assert face < gamma
            assert path_bundle.image(face) == frozenset(["a1"])

    def test_non_face_rejected(self, path_bundle):
        with pytest.raises(DomainError):
            face_transport(path_bundle, frozenset(["a1"]),
                           frozenset(["b1"]))


class TestEventRoundTrip:
    def test_to_event_outcomes_decode(self, path_bundle):
        scn = to_event(path_bundle)
        assert validate_event_scenario(scn)["ok"]
        edge = frozenset(["a1", "b1"])
        for key in scn.sets[edge]:
            gamma = simplex_from_key(key)
            assert path_bundle.image(gamma) == edge

    def test_equivalence_suite(self):
        assert check_equivalence(30, seed=17) == []


class TestPullback:
    def test_along_identity_is_isomorphic(self, path_bundle):
        from ctxlib.complexes import identity_relation
        pb = pullback_bundle(path_bundle, identity_relation(path_bundle.base))
        fwd = {v: pullback_vertex(path_bundle.vmap[v], {v})
               for v in path_bundle.total.vertices}
        bundle_iso(path_bundle, pb, fwd)

    def test_functoriality_random(self):
        r = make_rng(23)
        for _ in range(20):
            bnd = rand_bundle(r, max_contexts=2, max_context_size=2,
                              max_outcomes=2)
            rel1 = rand_relation_into(r, bnd.base)
            rel2 = rand_relation_into(r, rel1.source)
            pullback_functoriality_iso(bnd, rel1, rel2)


class TestFiberIdentification:
    """The nerve fiber over a family of base simplices is in bijection with
    the fiber over the union, by taking faces.  Brute-force cross-check."""

    def _families(self, base, union, limit=3):
        subs = [frozenset(c)
                for r in range(1, len(union) + 1)
                for c in combinations(sorted(union), r)]
        for size in range(1, limit + 1):
            for fam in combinations(subs, size):
                if union_of_family(fam) == union:
                    yield fam

    def test_bijection_on_random_bundles(self):
        r = make_rng(41)
        for _ in range(15):
            bnd = rand_bundle(r, max_contexts=2, max_context_size=2,
                              max_outcomes=2)
            for union in bnd.base.simplices():
                for fam in self._families(bnd.base, union):
                    via_union = {}
                    for gamma in bnd.fiber(union):
                        key = tuple(sorted(
                            skey(s) for s in family_over(bnd, fam, gamma)))
                        assert key not in via_union   # injective
                        via_union[key] = gamma
                    brute = set()
                    for choice in product(*[bnd.fiber(tau) for tau in fam]):
                        glued = union_of_family(choice)
                        if glued in bnd.total and bnd.image(glued) == union:
                            brute.add(tuple(sorted(
                                skey(s) for s in set(choice))))
                    assert set(via_union) == brute


class TestMappingBundle:
    def test_valid_and_matches_direct_route(self):
        f = elements(event_presheaf(standard([["a"]])))
        g = elements(event_presheaf(standard([["u", "v"]])))
        bnd, M, elems = mapping_bundle_scenario(f, g)
        assert validate_bundle(bnd)["ok"]
        for sigma in M.base.simplices():
            direct = set()
            for pi, amap in enumerate_direct_mapping(f, g, sigma):
                direct.add(direct_mapping_top(f, g, sigma, pi, amap).key())
            assert direct == set(M.sets[sigma])

    def test_triangle_target(self):
        f = elements(event_presheaf(standard([["a"]], outcomes=("0",))))
        g = elements(triangle_parity_scn())
        bnd, M, _ = mapping_bundle_scenario(f, g)
        assert validate_bundle(bnd)["ok"]
        sigma = frozenset(["x", "y"])
        direct = {direct_mapping_top(f, g, sigma, pi, amap).key()
                  for pi, amap in enumerate_direct_mapping(f, g, sigma)}
        assert direct == set(M.sets[sigma])
