"""Truncated simplicial sets, nerve spaces, the mapping scenario, and the
comparison maps."""

from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ctxlib import sset
from ctxlib.bundles import BundleScenario
from ctxlib.complexes import SimplicialComplex
from ctxlib.dist import Dist, delta, mixture
from ctxlib.errors import (CompositionError, DomainError,
                           ResourceLimitError)
from ctxlib.events import elements, event_presheaf, global_sections
from ctxlib.rand import make_rng, rand_bundle
from ctxlib.sset import (DetMorphism, SimplicialDistribution, apply_operator,
                         codegen, coface, compare_nerve_mapping,
                         compose_stochastic, compose_theta, discrete_map,
                         discrete_sset, enumerate_det_morphisms,
                         hom_tensor_to_mapping, identity_sset_map,
                         identity_stochastic, identity_theta,
                         mapping_simplicial, monotone_maps, mu, nerve_bundle,
                         nerve_space, pair_name, product_sset,
                         product_sset_map,
                         pullback_along_simplex, pullback_sset,
                         push_stochastic, sections, standard_simplex,
                         tensor_stochastic, theta_id, theta_simplicial,
                         validate_simplicial_distribution, validate_sset,
                         validate_sset_map, validate_stoch_morphism, zeta,
                         zeta_inverse)
from conftest import standard, triangle_parity_scn
from helpers import (enumerate_sset_maps_bfs, fiberwise_maps,
                     mapping_face_degen_by_maps, mapping_simplicial_by_search,
                     nerve_space_by_loops, pullback_along_simplex_by_pairing)

F = Fraction

EDGE = SimplicialComplex([{"a", "b"}])
TRIANGLE = SimplicialComplex([{"a", "b", "c"}])
TWO_MAXIMAL = SimplicialComplex([{"a", "b", "c"}, {"c", "d"}])


def tables(X):
    return X.simp, X.face, X.degen, X.payload


def degenerate(X, n):
    """The degree-n simplices of X that are some s_j of degree n - 1."""
    return {z for s in X.degen[n - 1].values() for z in s} if n else set()


def point_bundle(fiber, base="u"):
    total = SimplicialComplex([{v} for v in fiber])
    return BundleScenario(total, SimplicialComplex([{base}]),
                          {v: base for v in fiber})


@pytest.fixture(scope="module")
def tiny_pair():
    """Two 2-element fibers over one-point bases, as nerve scenarios."""
    nf = nerve_bundle(point_bundle(["a1", "a2"], "u"), 1)
    ng = nerve_bundle(point_bundle(["b1", "b2"], "s"), 1)
    return nf, ng


@pytest.fixture(scope="module")
def tiny_mapping(tiny_pair):
    nf, ng = tiny_pair
    return mapping_simplicial(nf, ng)


class TestStandardSimplex:
    def test_counts(self):
        X = standard_simplex(2, 3)
        assert [len(X.simp[n]) for n in range(4)] == [3, 6, 10, 15]
        assert validate_sset(X)["ok"]

    def test_truncation_bound(self):
        from ctxlib.errors import DomainError
        with pytest.raises(DomainError):
            standard_simplex(3, 2)

    def test_operator_identity(self):
        X = standard_simplex(2, 3)
        for x in X.simp[2]:
            assert apply_operator(X, 2, x, identity_theta(2)) == x

    def test_operator_composition_exhaustive(self):
        X = standard_simplex(2, 3)
        for n in range(3):
            for m in range(n + 1):
                for k in range(m + 1):
                    for theta in monotone_maps(m, n):
                        for phi in monotone_maps(k, m):
                            for x in X.simp[n]:
                                one = apply_operator(
                                    X, m, apply_operator(X, n, x, theta), phi)
                                two = apply_operator(
                                    X, n, x, compose_theta(theta, phi))
                                assert one == two


class TestOrdinalOperators:
    def test_coface_codegen(self):
        assert coface(1, 3) == (0, 2, 3)
        assert codegen(1, 2) == (0, 1, 1, 2)

    def test_compose(self):
        assert compose_theta((0, 2, 2), (1, 2)) == (2, 2)


class TestValidateSSet:
    def test_broken_degeneracy_detected(self):
        X = nerve_space(EDGE, 2)
        bad_degen = {n: dict(X.degen[n]) for n in X.degen}
        bad_degen[1]["(a)"] = ("(a;)", "(a;)")   # s_0 should insert up front
        from ctxlib.sset import TruncatedSSet
        Y = TruncatedSSet(2, X.simp, X.face, bad_degen)
        report = validate_sset(Y)
        assert not report["ok"]
        assert any(f["law"] == "disj" for f in report["failures"])

    def test_missing_face_row_detected(self):
        X = nerve_space(EDGE, 2)
        bad_face = {n: dict(X.face[n]) for n in X.face}
        del bad_face[2]["(a;b)"]
        from ctxlib.sset import TruncatedSSet
        Y = TruncatedSSet(2, X.simp, bad_face, X.degen)
        assert not validate_sset(Y)["ok"]


class TestNerveSpace:
    def test_edge_counts(self):
        X = nerve_space(EDGE, 2)
        assert [len(X.simp[n]) for n in range(3)] == [1, 4, 16]
        assert validate_sset(X)["ok"]

    def test_face_and_degeneracy_values(self):
        X = nerve_space(EDGE, 2)
        assert X.face[2]["(a;b)"] == ("(b)", "(a,b)", "(a)")
        assert X.degen[1]["(a)"] == ("(;a)", "(a;)")

    def test_degenerates_marked(self):
        X = nerve_space(EDGE, 2)
        assert "()" in degenerate(X, 1)
        assert "(a,b)" not in degenerate(X, 1)

    def test_nerve_bundle_is_simplicial(self):
        bnd = elements(event_presheaf(standard([["a1", "b1"], ["b1", "c1"]])))
        fm = nerve_bundle(bnd)
        assert fm.source.d == 2
        assert validate_sset(fm.source)["ok"]
        assert validate_sset(fm.target)["ok"]
        assert validate_sset_map(fm)["ok"]

    def test_sections_match_global_sections(self):
        scn = event_presheaf(standard([["a1", "b1"], ["b1", "c1"]]))
        bnd = elements(scn)
        fm = nerve_bundle(bnd)
        assert len(sections(fm)) == len(global_sections(scn)) == 8

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("cpx", [EDGE, TRIANGLE, TWO_MAXIMAL],
                             ids=["edge", "triangle", "two-maximal"])
    def test_tables_match_hand_written_loops(self, cpx, d):
        assert tables(nerve_space(cpx, d)) == \
            tables(nerve_space_by_loops(cpx, d))


class TestFibers:
    @pytest.mark.parametrize("bnd", [
        elements(event_presheaf(standard([["a1", "b1"], ["b1", "c1"]]))),
        point_bundle(["a1", "a2", "a3"]),
        BundleScenario(EDGE, EDGE, {"a": "a", "b": "b"}),
    ], ids=["path", "point", "edge"])
    def test_fiber_is_the_scan_in_source_order(self, bnd):
        fm = nerve_bundle(bnd)
        for n in range(fm.target.d + 1):
            for x in fm.target.simp[n]:
                assert list(fm.fiber(n, x)) == \
                    [e for e in fm.source.simp[n] if fm(n, e) == x]


class TestFaceDegeneracyFailures:
    """Each validator names the law, the cell and the operator index of a
    face or degeneracy it breaks."""

    @staticmethod
    def scenario():
        """Two points over one point, in degrees 0 and 1."""
        X = discrete_sset(["x"], 1)
        return discrete_map(lambda v: "x", discrete_sset(["p", "q"], 1), X)

    def test_sset_map(self):
        D = standard_simplex(1, 1)
        comp = identity_sset_map(D).comp
        comp[1]["0,0"] = "0,1"
        report = validate_sset_map(sset.SSetMap(D, D, comp, check=False))
        assert report["failures"] == [
            {"law": "face", "simplex": (1, "0,0"), "i": 0},
            {"law": "degen", "simplex": (0, "0"), "j": 0}]

    def test_simplicial_distribution(self):
        sd = SimplicialDistribution({(0, "x"): delta("p"),
                                     (1, "x"): delta("q")})
        report = validate_simplicial_distribution(self.scenario(), sd)
        assert report["failures"] == [
            {"law": "face-marginal", "simplex": (1, "x"), "i": 0},
            {"law": "face-marginal", "simplex": (1, "x"), "i": 1},
            {"law": "degen-marginal", "simplex": (0, "x"), "j": 0}]

    def test_stochastic_morphism(self):
        ident = identity_stochastic(self.scenario())
        ident.alpha[(1, "p", "x")] = delta("q")
        report = validate_stoch_morphism(ident)
        assert report["failures"] == [
            {"law": "face", "pair": (1, "p", "x"), "i": 0},
            {"law": "face", "pair": (1, "p", "x"), "i": 1},
            {"law": "degen", "pair": (0, "p", "x"), "j": 0}]


class TestDiscreteAndProduct:
    def test_discrete_validates(self):
        X = discrete_sset(["p", "q"], 2)
        assert validate_sset(X)["ok"]
        assert X.simp[2] == ("p", "q")
        assert X.payload[(2, "q")] == "q"

    def test_product_validates(self):
        P = product_sset(standard_simplex(1, 2), standard_simplex(1, 2))
        assert validate_sset(P)["ok"]

    def test_product_map(self):
        X = discrete_sset(["p", "q"], 1)
        f = discrete_map(lambda v: "p", X, X)
        pm = product_sset_map(f, identity_sset_map(X))
        assert validate_sset_map(pm)["ok"]

    def test_compose_rejects_mismatched_source(self):
        X = discrete_sset(["x"], 1)
        W = discrete_sset(["w"], 1)
        Y = discrete_sset(["y"], 1)
        f = discrete_map(lambda v: "y", X, Y)
        g = discrete_map(lambda v: "y", W, Y)
        with pytest.raises(CompositionError):
            f.compose(g)


class TestResourceLimits:
    def test_mapping_space_cap_names_stage_and_estimate(self, tiny_pair):
        nf, ng = tiny_pair
        with pytest.raises(ResourceLimitError) as exc:
            mapping_simplicial(nf, ng, cap=1)
        err = exc.value
        assert err.cap == 1 and err.estimate == 2
        assert err.stage == "mapping_simplicial"


POINT = point_bundle(["a1", "a2", "a3"])
PATH = elements(event_presheaf(standard([["a1", "b1"], ["b1", "c1"]])))
TWO_SHEETS = BundleScenario(
    SimplicialComplex([{"v0", "w0"}, {"v1", "w1"}]),
    SimplicialComplex([{"v", "w"}]),
    {"v0": "v", "v1": "v", "w0": "w", "w1": "w"})


def keys(maps):
    return [m.key() for m in maps]


def mapping_tables(ms):
    S = ms.sset
    return S.simp, S.face, S.degen, S.payload, ms.ids, ms.proj.comp


@pytest.fixture
def searches(monkeypatch):
    """Run every map search of the library through the breadth-first oracle
    too, recording both key lists."""
    seen = []
    dfs = sset.enumerate_sset_maps

    def both(X, Y, candidates, cap=10 ** 6):
        got = dfs(X, Y, candidates, cap=cap)
        seen.append((keys(got), keys(enumerate_sset_maps_bfs(
            X, Y, candidates, cap=cap))))
        return got

    monkeypatch.setattr(sset, "enumerate_sset_maps", both)
    return seen


class TestMapEnumeration:
    """The depth-first search returns the breadth-first oracle's maps, in
    the same order, and branches only on nondegenerate simplices."""

    @pytest.mark.parametrize("bnd", [
        POINT, BundleScenario(EDGE, EDGE, {"a": "a", "b": "b"}), TWO_SHEETS,
        PATH, elements(triangle_parity_scn())],
        ids=["point", "edge", "two-sheets", "path", "parity-triangle"])
    def test_sections_match_oracle(self, bnd, searches):
        fm = nerve_bundle(bnd)
        sections(fm)
        assert len(searches) == 1
        got, want = searches[0]
        assert got == want

    @pytest.mark.parametrize("g", [point_bundle(["b1", "b2"], "s"),
                                   TWO_SHEETS], ids=["point", "edge"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_mapping_space_searches_match_oracle(self, g, d, searches):
        """Map(f, g) built from boundaries has the tables of the one built
        by a map search per (n, y, x), and runs no enumerate_sset_maps.
        With g a point, these are the bundles of `ctx decompose`'s tests."""
        nf = nerve_bundle(point_bundle(["a1", "a2"]), d)
        ng = nerve_bundle(g, d)
        assert mapping_tables(mapping_simplicial(nf, ng, d=d)) == \
            mapping_tables(mapping_simplicial_by_search(nf, ng, d=d))
        assert searches == []

    def test_det_morphism_searches_match_oracle(self, searches):
        f, g, h = TestCounting._setup()
        assert len(enumerate_det_morphisms(product_sset_map(f, g), h)) == 20
        assert all(got == want for got, want in searches)
        assert any(len(got) > 1 for got, _ in searches)

    @given(st.integers(0, 10 ** 6), st.integers(1, 2), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_random_nerves_match_oracle(self, seed, d, reverse):
        """The oracle keeps every partial map, so examples whose search
        passes 5000 partials are skipped."""
        bnd = rand_bundle(make_rng(seed), max_contexts=2, max_context_size=2,
                          max_outcomes=2)
        fm = nerve_bundle(bnd, d)

        def candidates(n, x):
            fib = fm.fiber(n, x)
            return fib[::-1] if reverse else fib

        try:
            want = enumerate_sset_maps_bfs(fm.target, fm.source, candidates,
                                           cap=5000)
        except ResourceLimitError:
            assume(False)
        assert keys(sset.enumerate_sset_maps(fm.target, fm.source,
                                             candidates)) == keys(want)

    def test_candidates_asked_once_per_nondegenerate_simplex(self):
        fm = nerve_bundle(PATH)
        X = fm.target
        asked = Counter()

        def candidates(n, x):
            asked[(n, x)] += 1
            return fm.fiber(n, x)

        assert len(sset.enumerate_sset_maps(X, fm.source, candidates)) == 8
        cells = [(n, x) for n in range(X.d + 1) for x in X.simp[n]]
        nondegenerate = [(n, x) for n, x in cells
                         if x not in degenerate(X, n)]
        assert len(nondegenerate) < len(cells)
        assert asked == Counter(nondegenerate)

    def test_deep_search_needs_no_recursion(self):
        """The identity bundle over the complete graph on eight vertices:
        1744 base simplices up to degree 3, one section."""
        verts = ["v%d" % i for i in range(8)]
        k8 = SimplicialComplex([set(e) for e in combinations(verts, 2)])
        fm = nerve_bundle(BundleScenario(k8, k8, {v: v for v in verts}), 3)
        assert sum(len(fm.target.simp[n]) for n in range(4)) == 1744
        assert len(sections(fm)) == 1

    def test_cap_counts_maps(self):
        fm = nerve_bundle(PATH)
        assert len(sections(fm, cap=8)) == 8
        with pytest.raises(ResourceLimitError) as exc:
            sections(fm, cap=7)
        err = exc.value
        assert (err.stage, err.estimate, err.cap) == \
            ("enumerate_sset_maps", 8, 7)

    def test_empty_source_has_one_map(self):
        X = discrete_sset([], 1)
        Y = discrete_sset(["p"], 1)
        assert keys(sset.enumerate_sset_maps(X, Y, lambda n, x: ["p"])) == \
            keys(enumerate_sset_maps_bfs(X, Y, lambda n, x: ["p"])) == [""]


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_operator_composition_on_nerve_space(seed):
    import random
    r = random.Random(seed)
    X = nerve_space(EDGE, 3)
    n = r.randint(0, 3)
    m = r.randint(0, n)
    k = r.randint(0, m)
    theta = tuple(sorted(r.choice(range(n + 1)) for _ in range(m + 1)))
    phi = tuple(sorted(r.choice(range(m + 1)) for _ in range(k + 1)))
    x = r.choice(X.simp[n])
    lhs = apply_operator(X, m, apply_operator(X, n, x, theta), phi)
    rhs = apply_operator(X, n, x, compose_theta(theta, phi))
    assert lhs == rhs


class TestSimplicialDistribution:
    def test_theta_from_sections_is_valid(self):
        bnd = elements(event_presheaf(standard([["a1", "b1"]])))
        fm = nerve_bundle(bnd)
        secs = sections(fm)
        q = Dist({secs[0].key(): F(1, 4), secs[-1].key(): F(3, 4)})
        sd = theta_simplicial(fm, secs, q)
        assert validate_simplicial_distribution(fm, sd)["ok"]

    def test_face_marginal_violation_detected(self):
        bnd = elements(event_presheaf(standard([["a1", "b1"]])))
        fm = nerve_bundle(bnd)
        secs = sections(fm)
        sd = theta_simplicial(fm, secs, delta(secs[0].key()))
        table = dict(sd.table)
        table[(0, "()")] = delta("()")   # fine
        # replace one degree-1 entry with a different fiber element
        key = next((n, x) for (n, x) in table if n == 1
                   and len(table[(n, x)].support()) == 1
                   and table[(n, x)].support()[0] != "()")
        fibers = [e for e in fm.source.simp[1]
                  if fm(1, e) == key[1] and e != table[key].support()[0]]
        if fibers:
            table[key] = delta(fibers[0])
            bad = SimplicialDistribution(table)
            assert not validate_simplicial_distribution(fm, bad)["ok"]


class TestDetMorphismsAndZeta:
    def test_counts_agree(self, tiny_pair, tiny_mapping):
        nf, ng = tiny_pair
        dets = enumerate_det_morphisms(nf, ng)
        secs = sections(tiny_mapping.proj)
        assert len(dets) == len(secs) == 6

    def test_mapping_space_is_simplicial(self, tiny_mapping):
        assert validate_sset(tiny_mapping.sset)["ok"]
        assert validate_sset_map(tiny_mapping.proj)["ok"]
        assert [len(tiny_mapping.sset.simp[n]) for n in range(2)] == [1, 8]

    def test_zeta_is_a_bijection_onto_sections(self, tiny_pair, tiny_mapping):
        nf, ng = tiny_pair
        dets = enumerate_det_morphisms(nf, ng)
        secs = sections(tiny_mapping.proj)
        zkeys = sorted(zeta(tiny_mapping, d).key() for d in dets)
        assert zkeys == sorted(s.key() for s in secs)

    def test_zeta_round_trip(self, tiny_pair, tiny_mapping):
        nf, ng = tiny_pair
        for det in enumerate_det_morphisms(nf, ng):
            sec = zeta(tiny_mapping, det)
            assert validate_sset_map(sec)["ok"]
            # a genuine section: projecting back gives the identity
            proj = tiny_mapping.proj.compose(sec)
            assert proj == identity_sset_map(ng.target)
            back = zeta_inverse(tiny_mapping, sec)
            assert back.key() == det.key()


SMALL_MAPPINGS = ["point-point-d1", "point-point-d2", "point-edge-d2",
                  "parity-d2"]


@pytest.fixture(scope="module")
def small_mappings():
    """Mapping spaces from a point: into a point (d = 1, 2), into an edge
    with two-element fibers (d = 2) and into the parity triangle (d = 2)."""
    edge = BundleScenario(
        SimplicialComplex([{"v0", "w0"}, {"v1", "w1"}]),
        SimplicialComplex([{"v", "w"}]),
        {"v0": "v", "v1": "v", "w0": "w", "w1": "w"})
    pair = point_bundle(["a1", "a2"]), point_bundle(["b1", "b2"], "s")
    cases = dict(zip(SMALL_MAPPINGS, [
        pair + (1,), pair + (2,), (point_bundle(["a1"]), edge, 2),
        (point_bundle(["q0"], "p"), elements(triangle_parity_scn()), 2)]))
    return {name: mapping_simplicial(nerve_bundle(f, d), nerve_bundle(g, d),
                                     d=d)
            for name, (f, g, d) in cases.items()}


class TestMappingSpaceLookups:
    def test_no_pullback_is_built(self, monkeypatch):
        """Map(f, g) is built from its cells: no pullback along a simplex
        and no standard simplex is tabulated."""
        nf = nerve_bundle(point_bundle(["a1", "a2"], "u"), 2)
        ng = nerve_bundle(BundleScenario(EDGE, EDGE, {"a": "a", "b": "b"}), 2)
        built = Counter()

        def counting(name):
            return lambda *args: built.update([name])

        monkeypatch.setattr(sset, "pullback_along_simplex",
                            counting("pullback_along_simplex"))
        monkeypatch.setattr(sset, "standard_simplex",
                            counting("standard_simplex"))
        ms = mapping_simplicial(nf, ng, d=2)
        assert [len(ms.sset.simp[n]) for n in range(3)] == [1, 8, 64]
        assert built == Counter()

    def test_simplex_id_finds_each_simplex_from_its_own_map(
            self, small_mappings):
        for ms in small_mappings.values():
            for (n, sid), alpha in fiberwise_maps(ms).items():
                y, x, _ = ms.payload[(n, sid)]

                def value(m, phi, e):
                    qid = alpha(m, pair_name(theta_id(phi), e))
                    return alpha.target.payload[(m, qid)][1]

                assert ms.simplex_id(n, y, x, value) == sid
                for (m, _), (phi, e) in alpha.source.payload.items():
                    assert ms.value(n, sid, m, phi, e) == value(m, phi, e)
                with pytest.raises(DomainError):
                    ms.simplex_id(n, y, x, lambda m, phi, e: "nowhere")

    @pytest.mark.parametrize("case", SMALL_MAPPINGS)
    def test_faces_and_degeneracies_restrict_whole_maps(self, small_mappings,
                                                        case):
        ms = small_mappings[case]
        assert mapping_face_degen_by_maps(ms) == (ms.sset.face,
                                                  ms.sset.degen)


def small_bundle(r, prefix):
    """One or two points over each vertex of a point or an edge, and over
    an edge a random set of edges between the two fibers."""
    base = r.choice([["u"], ["u", "v"]])
    fibers = {b: ["%s%s%d" % (prefix, b, i) for i in range(r.randint(1, 2))]
              for b in base}
    pairs = [{a, b} for a in fibers["u"] for b in fibers.get("v", [])]
    total = r.sample(pairs, r.randint(0, len(pairs)))
    total += [{a} for b in base for a in fibers[b]
              if not any(a in s for s in total)]
    return BundleScenario(SimplicialComplex(total),
                          SimplicialComplex([set(base)]),
                          {a: b for b in base for a in fibers[b]})


DECOMPOSE_PAIR = (point_bundle(["a1", "a2"], "u"),
                  point_bundle(["b1", "b2"], "s"))


class TestMappingFromBoundaries:
    """Map(f, g) built degree by degree from each simplex's boundary equals,
    table for table, the one built by a map search per (n, y, x)."""

    @pytest.mark.parametrize("case", SMALL_MAPPINGS)
    def test_small_mappings_match_oracle(self, small_mappings, case):
        ms = small_mappings[case]
        assert mapping_tables(ms) == mapping_tables(
            mapping_simplicial_by_search(ms.f, ms.g, d=ms.d))

    @pytest.mark.parametrize("seed", range(16))
    def test_random_pairs_match_oracle(self, seed):
        """d = 3 when both bases are points, else d = 1 or 2."""
        r = make_rng(seed)
        f, g = small_bundle(r, "a"), small_bundle(r, "b")
        d = 3 if len(f.base.vertices) + len(g.base.vertices) == 2 \
            else r.randint(1, 2)
        nf, ng = nerve_bundle(f, d), nerve_bundle(g, d)
        assert mapping_tables(mapping_simplicial(nf, ng, d=d)) == \
            mapping_tables(mapping_simplicial_by_search(nf, ng, d=d))

    def test_empty_edge_fiber_matches_oracle(self):
        """Over an edge whose fiber is empty, a boundary's faces must agree
        on cells that are faces of no searched cell."""
        apart = BundleScenario(SimplicialComplex([{"au"}, {"av"}]), EDGE,
                               {"au": "a", "av": "b"})
        nf = nerve_bundle(apart, 3)
        ng = nerve_bundle(point_bundle(["b1", "b2"], "s"), 3)
        ms = mapping_simplicial(nf, ng, d=3)
        assert [len(ms.sset.simp[n]) for n in range(4)] == [1, 11, 107, 1027]
        assert mapping_tables(ms) == \
            mapping_tables(mapping_simplicial_by_search(nf, ng, d=3))

    @pytest.mark.parametrize("case", SMALL_MAPPINGS + ["decompose-d3"])
    def test_cells_and_searched_tables_match_pullbacks(self, small_mappings,
                                                       case):
        """cells(n, x) lists the cells and payload of the pullback of f
        along x, by id within each degree; searched(n, x) lists its cells
        with phi surjective and gives their faces and degeneracies as that
        pullback tabulates them."""
        ms = small_mappings.get(case) or sset.MappingSpace(
            *(nerve_bundle(b, 3) for b in DECOMPOSE_PAIR), 3)
        for n in range(ms.d + 1):
            for x in ms.f.target.simp[n]:
                P = pullback_along_simplex(ms.f, n, x, ms.d)
                cells = ms.cells(n, x)[0]
                assert cells == tuple((m, pid) + P.payload[(m, pid)]
                                      for m in range(ms.d + 1)
                                      for pid in sorted(P.simp[m]))
                at = {(m, pid): k for k, (m, pid, _, _) in enumerate(cells)}
                todo, face, degen = ms.searched(n, x)
                assert todo == [(m, at[(m, pid)]) for m, pid, phi, _ in cells
                                if set(phi) == set(range(n + 1))]
                for table, shift, want in ((face, -1, P.face),
                                           (degen, 1, P.degen)):
                    assert table == {m: {
                        k: tuple([at[(m + shift, q)]
                                  for q in want[m][cells[k][1]]])
                        for mk, k in todo if mk == m} for m in want}

    def test_decompose_bundle_sizes_at_d3(self):
        nf, ng = (nerve_bundle(b, 3) for b in DECOMPOSE_PAIR)
        S = mapping_simplicial(nf, ng, d=3).sset
        assert [len(S.simp[n]) for n in range(4)] == [1, 8, 38, 158]
        assert [len(set(S.simp[n]) - degenerate(S, n))
                for n in range(4)] == [1, 7, 23, 67]

    def test_cap_errors_match_oracle(self):
        """Below and at each degree's cumulative size.  Where the oracle's
        enumerate_sset_maps stops on one (y, x) with more than cap maps,
        the construction from boundaries stops in mapping_simplicial, at
        the same estimate."""
        nf, ng = (nerve_bundle(b, 3) for b in DECOMPOSE_PAIR)

        def stop(build, cap):
            try:
                build(nf, ng, d=3, cap=cap)
            except ResourceLimitError as err:
                return str(err), err.stage, err.estimate, err.cap
            return None

        renamed = 0
        for cap in (0, 1, 8, 9, 46, 47, 204, 205):
            want = stop(mapping_simplicial_by_search, cap)
            if want is not None and want[1] == "enumerate_sset_maps":
                want = ("mapping space over cap", "mapping_simplicial") + \
                    want[2:]
                renamed += 1
            assert stop(mapping_simplicial, cap) == want
        assert renamed and want is None


class TestMu:
    def _q(self, nf):
        fsecs = sections(nf)
        return theta_simplicial(nf, fsecs,
                                Dist({fsecs[0].key(): F(1, 3),
                                      fsecs[1].key(): F(2, 3)}))

    def test_delta_inputs_push(self, tiny_pair, tiny_mapping):
        nf, ng = tiny_pair
        q = self._q(nf)
        secs = sections(tiny_mapping.proj)
        for det in enumerate_det_morphisms(nf, ng):
            p = theta_simplicial(tiny_mapping.proj, secs,
                                 delta(zeta(tiny_mapping, det).key()))
            assert mu(tiny_mapping, p, q) == \
                push_stochastic(det.to_stochastic(), q)

    def test_affine_in_first_argument(self, tiny_pair, tiny_mapping):
        nf, ng = tiny_pair
        q = self._q(nf)
        dets = enumerate_det_morphisms(nf, ng)
        secs = sections(tiny_mapping.proj)
        Q = Dist({zeta(tiny_mapping, dets[0]).key(): F(1, 2),
                  zeta(tiny_mapping, dets[3]).key(): F(1, 2)})
        p = theta_simplicial(tiny_mapping.proj, secs, Q)
        pushed = [push_stochastic(d.to_stochastic(), q)
                  for d in (dets[0], dets[3])]
        table = {}
        for n in range(tiny_mapping.d + 1):
            for y in ng.target.simp[n]:
                table[(n, y)] = mixture([(F(1, 2), pushed[0][(n, y)]),
                                         (F(1, 2), pushed[1][(n, y)])])
        assert mu(tiny_mapping, p, q) == SimplicialDistribution(table)


class TestCounting:
    """Morphism counts distinguishing the product-hom from the mapping-hom."""

    @staticmethod
    def _setup():
        X = discrete_sset(["x"], 1)
        Y = discrete_sset(["y1", "y2"], 1)
        Z = discrete_sset(["z"], 1)
        E = discrete_sset(["e1", "e2"], 1)
        Fs = discrete_sset(["s", "t1", "t2"], 1)
        G = discrete_sset(["u1", "u2"], 1)
        f = discrete_map(lambda e: "x", E, X)
        g = discrete_map(lambda w: "y1" if w == "s" else "y2", Fs, Y)
        h = discrete_map(lambda u: "z", G, Z)
        return f, g, h

    def test_twenty_vs_thirty_six(self):
        f, g, h = self._setup()
        tensor_dets = enumerate_det_morphisms(product_sset_map(f, g), h)
        assert len(tensor_dets) == 20
        ms = mapping_simplicial(g, h)
        hom_dets = enumerate_det_morphisms(f, ms.proj)
        assert len(hom_dets) == 36

    def test_currying_is_injective(self):
        f, g, h = self._setup()
        ms = mapping_simplicial(g, h)
        hom_keys = {d.key() for d in enumerate_det_morphisms(f, ms.proj)}
        curried = set()
        for det in enumerate_det_morphisms(product_sset_map(f, g), h):
            cur = hom_tensor_to_mapping(f, g, h, det, ms)
            assert isinstance(cur, DetMorphism)
            assert cur.key() in hom_keys
            curried.add(cur.key())
        assert len(curried) == 20


class TestStochastic:
    def test_identity_validates_and_is_neutral(self, tiny_pair):
        nf, _ = tiny_pair
        ident = identity_stochastic(nf)
        assert validate_stoch_morphism(ident)["ok"]
        secs = sections(nf)
        sd = theta_simplicial(nf, secs, Dist({secs[0].key(): F(1, 2),
                                              secs[1].key(): F(1, 2)}))
        assert push_stochastic(ident, sd) == sd

    def test_compose_with_identity(self, tiny_pair):
        nf, ng = tiny_pair
        det = enumerate_det_morphisms(nf, ng)[0]
        m = det.to_stochastic()
        comp = compose_stochastic(identity_stochastic(nf), m)
        assert validate_stoch_morphism(comp)["ok"]
        assert comp.alpha == m.alpha

    def test_tensor_validates(self, tiny_pair):
        nf, ng = tiny_pair
        det = enumerate_det_morphisms(nf, ng)[0].to_stochastic()
        tens = tensor_stochastic(det, det)
        assert validate_stoch_morphism(tens)["ok"]


class TestPullbacks:
    def test_pullback_along_identity(self, tiny_pair):
        nf, _ = tiny_pair
        P, pe, py = pullback_sset(nf, identity_sset_map(nf.target))
        assert validate_sset(P)["ok"]
        assert validate_sset_map(pe)["ok"]
        assert validate_sset_map(py)["ok"]
        assert all(len(P.simp[n]) == len(nf.source.simp[n])
                   for n in range(P.d + 1))

    def test_pullback_along_simplex(self, tiny_pair):
        nf, _ = tiny_pair
        X = nf.target
        P = pullback_along_simplex(nf, 1, X.simp[1][-1], 1)
        assert validate_sset(P)["ok"]

    def test_pullback_along_simplex_bounded_by_truncation(self):
        nf = nerve_bundle(point_bundle(["a1", "a2"]), 2)
        with pytest.raises(DomainError):
            pullback_along_simplex(nf, 2, nf.target.simp[2][0], 1)

    @pytest.mark.parametrize("case", SMALL_MAPPINGS)
    def test_pullback_along_simplex_matches_standard_simplex_pairs(
            self, small_mappings, case):
        ms = small_mappings[case]
        for fmap in (ms.f, ms.g):
            for n in range(ms.d + 1):
                for x in fmap.target.simp[n]:
                    assert tables(pullback_along_simplex(fmap, n, x, ms.d)) \
                        == tables(pullback_along_simplex_by_pairing(
                            fmap, n, x, ms.d))


@pytest.fixture(scope="module")
def cmp():
    bid_edge = BundleScenario(SimplicialComplex([{"u", "v"}]),
                              SimplicialComplex([{"u", "v"}]),
                              {"u": "u", "v": "v"})
    bid_pt = BundleScenario(SimplicialComplex([{"p"}]),
                            SimplicialComplex([{"p"}]), {"p": "p"})
    return compare_nerve_mapping(bid_edge, bid_pt, d=2)


class TestNerveComparison:
    def test_l_is_total_and_simplicial(self, cmp):
        assert validate_sset_map(cmp.l)["ok"]

    def test_t_is_partial_with_frozen_counts(self, cmp):
        total = sum(len(cmp.mspace.sset.simp[n]) for n in range(3))
        defined = sum(1 for v in cmp.t.values() if v is not None)
        assert (defined, total) == (15, 73)
        assert len(cmp.defects) == 58

    def test_defects_come_in_both_kinds(self, cmp):
        NSp = cmp.mspace.g.target
        NSx = cmp.mspace.f.target
        mismatch = overlap = 0
        for (n, sid) in cmp.defects:
            y, x, _ = cmp.mspace.payload[(n, sid)]
            ys = NSp.payload[(n, y)]
            xs = NSx.payload[(n, x)]
            if any(bool(a) != bool(b) for a, b in zip(ys, xs)):
                mismatch += 1
            else:
                overlap += 1
        assert mismatch == 52 and overlap == 6

    def test_l_after_t_is_identity_on_domain(self, cmp):
        checked = 0
        for (n, sid), tid in cmp.t.items():
            if tid is not None:
                assert cmp.l.comp[n][tid] == sid
                checked += 1
        assert checked == 15
