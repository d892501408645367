"""Event scenarios: validation, sections, morphisms, tensor, mapping."""

import pytest

from conftest import (CHSH_CONTEXTS, PATH1_CONTEXTS, standard,
                      triangle_parity_scn)
from helpers import (cover_profile, elements_by_profiles,
                     global_sections_filtered,
                     mapping_event_scenario_filtered)
from ctxlib.complexes import (SimplicialComplex, identity_relation, skey,
                              SimplicialRelation)
from ctxlib import laws
from ctxlib.bundles import mapping_bundle_scenario
from ctxlib.errors import DomainError, ResourceLimitError
from ctxlib.events import (EventMorphism, EventScenario, MappingElement,
                           StandardScenario, compose_event_morphisms, elements,
                           element_name, event_presheaf, global_sections,
                           identity_event_morphism, mapping_event_scenario,
                           reindex, tensor_event, validate_event_morphism,
                           validate_event_scenario)
from ctxlib.laws import check_mapping
from ctxlib.rand import make_rng, rand_event


@pytest.fixture(scope="module")
def path(path_scn):
    return path_scn


def ternary_edge_subset():
    """An edge whose outcomes are four of the six vertex profiles, named
    apart from them: G(u) has three outcomes, G(v) two."""
    u, v, uv = frozenset(["u"]), frozenset(["v"]), frozenset(["u", "v"])
    profiles = {"p": ("0", "0"), "q": ("1", "0"), "r": ("2", "1"),
                "s": ("0", "1")}
    return EventScenario(
        SimplicialComplex([uv]),
        {u: ("0", "1", "2"), v: ("0", "1"), uv: tuple(profiles)},
        {(uv, u): {s: p[0] for s, p in profiles.items()},
         (uv, v): {s: p[1] for s, p in profiles.items()}})


SCENARIOS = {"point": lambda: event_presheaf(standard([["a"]])),
             "point3": lambda: event_presheaf(
                 standard([["a"]], outcomes=("0", "1", "2"))),
             "edge": lambda: event_presheaf(standard([["u", "v"]])),
             "edge3": lambda: event_presheaf(
                 standard([["u", "v"]], outcomes=("0", "1", "2"))),
             "cycle4": lambda: event_presheaf(standard(
                 [["c0", "c1"], ["c1", "c2"], ["c2", "c3"], ["c0", "c3"]])),
             "triangle": triangle_parity_scn,
             "subset": ternary_edge_subset}


class TestPresheaf:
    def test_outcome_set_sizes(self, path_scn):
        sizes = {skey(s): len(v) for s, v in path_scn.sets.items()}
        assert sizes == {"a1": 2, "b1": 2, "c1": 2, "a1,b1": 4, "b1,c1": 4}

    def test_restrictions_are_projections(self, path_scn):
        edge = frozenset(["a1", "b1"])
        assert path_scn.restrict(edge, frozenset(["a1"]), "0,1") == "0"
        assert path_scn.restrict(edge, frozenset(["b1"]), "0,1") == "1"

    def test_validates(self, path_scn):
        assert validate_event_scenario(path_scn)["ok"]

    def test_triangle_context_path_independence(self):
        scn = event_presheaf(standard([["a", "b", "c"]]))
        assert validate_event_scenario(scn)["ok"]
        top = frozenset(["a", "b", "c"])
        assert scn.restrict(top, frozenset(["c"]), "0,1,1") == "1"

    def test_json_round_trip(self, path_scn):
        assert EventScenario.from_json(path_scn.to_json()) == path_scn

    def test_missing_restriction_rejected(self):
        base = SimplicialComplex([{"a", "b"}])
        sets = {frozenset(["a"]): ("0",), frozenset(["b"]): ("0",),
                frozenset(["a", "b"]): ("0,0",)}
        with pytest.raises(DomainError):
            EventScenario(base, sets, {})


class TestValidation:
    def test_triangle_parity_is_valid(self, triangle_scn):
        assert validate_event_scenario(triangle_scn)["ok"]

    def test_local_surjectivity_failure(self):
        base = SimplicialComplex([{"a", "b"}])
        sets = {frozenset(["a"]): ("0", "1"), frozenset(["b"]): ("0",),
                frozenset(["a", "b"]): ("s",)}
        codim1 = {(frozenset(["a", "b"]), frozenset(["a"])): {"s": "0"},
                  (frozenset(["a", "b"]), frozenset(["b"])): {"s": "0"}}
        report = validate_event_scenario(EventScenario(base, sets, codim1))
        assert any(f["axiom"] == "local-surjectivity"
                   for f in report["failures"])

    def test_locality_failure_matches_cover_profile(self):
        # two outcomes at the edge with identical vertex profiles
        base = SimplicialComplex([{"a", "b"}])
        edge = frozenset(["a", "b"])
        sets = {frozenset(["a"]): ("0",), frozenset(["b"]): ("0",),
                edge: ("s", "t")}
        codim1 = {(edge, frozenset(["a"])): {"s": "0", "t": "0"},
                  (edge, frozenset(["b"])): {"s": "0", "t": "0"}}
        scn = EventScenario(base, sets, codim1)
        report = validate_event_scenario(scn)
        assert any(f["axiom"] == "locality" for f in report["failures"])
        profiles = cover_profile(scn, edge, [{"a"}, {"b"}])
        assert profiles["s"] == profiles["t"]

    def test_repeated_outcome_fails(self):
        point = SimplicialComplex([{"u"}])
        scn = EventScenario(point, {frozenset(["u"]): ("0", "0")}, {})
        report = validate_event_scenario(scn)
        assert report["failures"] == [{"axiom": "distinct-outcomes",
                                       "simplex": "u"}]
        with pytest.raises(DomainError, match="distinct-outcomes"):
            mapping_event_scenario(event_presheaf(standard([["a"]])), scn)

    def test_vertex_names_with_restriction_separator_round_trip(self):
        scn = event_presheaf(standard([["a>b", "c"]]))
        assert validate_event_scenario(scn)["ok"]
        assert EventScenario.from_json(scn.to_json()) == scn

    def test_unknown_restriction_key_rejected(self, path_scn):
        obj = path_scn.to_json()
        obj["restrictions"]["a1,b1>c1"] = {}
        with pytest.raises(DomainError, match="a1,b1>c1"):
            EventScenario.from_json(obj)

    def test_locality_holds_matches_cover_profile(self, path_scn):
        edge = frozenset(["a1", "b1"])
        profiles = cover_profile(path_scn, edge, [{"a1"}, {"b1"}])
        assert len(set(profiles.values())) == len(profiles)


class TestSections:
    def test_path_count(self, path_scn):
        assert len(global_sections(path_scn)) == 8

    def test_chsh_count(self, chsh_scn):
        assert len(global_sections(chsh_scn)) == 16

    def test_tensor_path_count(self, tensor_path_scn):
        assert len(global_sections(tensor_path_scn)) == 64

    def test_triangle_parity_has_none(self, triangle_scn):
        assert global_sections(triangle_scn) == []

    def test_cap_names_stage_and_estimate(self, chsh_scn):
        with pytest.raises(ResourceLimitError) as exc:
            global_sections(chsh_scn, cap=2)
        err = exc.value
        assert err.cap == 2 and err.estimate == 4
        assert err.stage == "global_sections"

    def test_join_matches_filtered(self, chsh_scn, tensor_path_scn,
                                   triangle_scn):
        """The same sections, keys, order, assignments and maximal values
        as copying and filtering every merge, or the same resource limit."""
        r = make_rng(13)
        bell3 = event_presheaf(standard(
            [["a%d" % i, "b%d" % j] for i in range(3) for j in range(3)]))
        scns = [chsh_scn, bell3, tensor_path_scn, triangle_scn] + [
            rand_event(r, max_contexts=4, max_context_size=3, max_outcomes=3)
            for _ in range(200)]

        def outcome(join, scn, cap):
            try:
                secs = join(scn, cap=cap)
            except ResourceLimitError as err:
                return err.stage, err.estimate, err.cap, str(err)
            return [(s.key(), list(s.assignment.items()),
                     [s.value_at(m) for m in scn.base.maximal])
                    for s in secs]

        limits = 0
        for scn in scns:
            for cap in (1, 3, 10, 50, 10 ** 6):
                want = outcome(global_sections_filtered, scn, cap)
                assert outcome(global_sections, scn, cap) == want
                limits += isinstance(want, tuple)
        assert 0 < limits < 5 * len(scns)

    def test_section_values_match_assignment(self, path_scn):
        sec = global_sections(path_scn)[0]
        edge = frozenset(["a1", "b1"])
        assert sec.value_at(edge) == "%s,%s" % (sec.assignment["a1"],
                                                sec.assignment["b1"])
        with pytest.raises(DomainError):
            sec.value_at({"a1", "c1"})

    @pytest.mark.parametrize("sigma, name", [(set(), "''"),
                                             ({"a", "c"}, "'a,c'")],
                             ids=["empty", "non-edge"])
    def test_value_at_a_non_simplex_is_a_domain_error(self, sigma, name):
        """On the path a-b-c neither the empty set nor {a, c} is a simplex;
        the error names it, rather than a KeyError from the tables."""
        sec = global_sections(event_presheaf(standard([["a", "b"],
                                                       ["b", "c"]])))[0]
        with pytest.raises(DomainError, match="%s is not a simplex" % name):
            sec.value_at(sigma)

    def test_value_at_every_simplex_is_the_assignment_profile(
            self, chsh_scn, triangle_scn, tensor_path_scn):
        r = make_rng(29)
        scns = [chsh_scn, triangle_scn, tensor_path_scn] + [
            rand_event(r, max_context_size=3) for _ in range(200)]
        checked = 0
        for scn in scns:
            try:
                secs = global_sections(scn, cap=5000)
            except ResourceLimitError:
                continue
            for sigma in scn.base.simplices():
                index = scn.profile_index(sigma)
                for sec in secs:
                    profile = tuple(sec.assignment[x] for x in sorted(sigma))
                    assert sec.value_at(sigma) == index[profile]
                    checked += 1
        assert checked > 50000

    def test_keys_sorted_and_stable(self, path_scn):
        keys = [s.key() for s in global_sections(path_scn)]
        assert keys == sorted(keys)
        assert keys[0] == "a1=0;b1=0;c1=0"


class TestReindex:
    def test_identity(self, path_scn):
        scn2 = reindex(path_scn, identity_relation(path_scn.base))
        assert scn2 == path_scn

    def test_collapse_vertex_to_edge(self, path_scn):
        src = SimplicialComplex([{"p"}])
        rel = SimplicialRelation(src, path_scn.base,
                                 {"p": {"a1", "b1"}})
        scn2 = reindex(path_scn, rel)
        assert scn2.sets[frozenset(["p"])] == \
            path_scn.sets[frozenset(["a1", "b1"])]


class TestMorphisms:
    def test_identity_validates_and_composes(self, path_scn):
        ident = identity_event_morphism(path_scn)
        assert validate_event_morphism(ident)["ok"]
        twice = compose_event_morphisms(ident, ident)
        assert validate_event_morphism(twice)["ok"]

    def test_broken_naturality_detected(self, path_scn):
        comps = {sigma: {s: s for s in path_scn.sets[sigma]}
                 for sigma in path_scn.base.simplices()}
        flip = {"0": "1", "1": "0"}
        comps[frozenset(["a1"])] = flip
        mor = EventMorphism(path_scn, path_scn,
                            identity_relation(path_scn.base), comps)
        assert not validate_event_morphism(mor)["ok"]


class TestTensor:
    def test_counts(self, tensor_path_scn):
        assert len(tensor_path_scn.base.vertices) == 9
        assert len(tensor_path_scn.base.maximal) == 4
        for m in tensor_path_scn.base.maximal:
            assert len(tensor_path_scn.sets[m]) == 16

    def test_validates(self, tensor_path_scn):
        assert validate_event_scenario(tensor_path_scn)["ok"]

    def test_outcome_names_pair_the_factors(self, tensor_path_scn):
        m = next(m for m in tensor_path_scn.base.maximal
                 if skey(m) == "(a1|a2),(a1|b2),(b1|a2),(b1|b2)")
        assert "(0,0|1,0)" in tensor_path_scn.sets[m]


class TestElements:
    def test_chsh_total_vertices(self, chsh_scn):
        bnd = elements(chsh_scn)
        assert len(bnd.total.vertices) == 8
        assert len(bnd.total.maximal) == 16

    def test_element_names(self, path_scn):
        bnd = elements(path_scn)
        assert element_name("a1", "0") in bnd.total.vertices
        assert bnd.vmap[element_name("a1", "0")] == "a1"

    def test_element_names_are_read_from_the_names_table(self):
        """A vertex name may hold |: (a|b|0) is outcome 0 at a|b.  Outcome
        b|c at a and outcome c at a|b would both be named (a|b|c)."""
        bnd = elements(event_presheaf(standard([["a|b", "c"]])))
        assert bnd.vmap[element_name("a|b", "0")] == "a|b"
        clash = StandardScenario([["a", "a|b"]], {"a": ["b|c"], "a|b": ["c"]})
        with pytest.raises(DomainError, match="share a name"):
            elements(event_presheaf(clash))

    @pytest.mark.parametrize("f_name,g_name", [
        ("triangle", "point"), ("triangle", "edge"), ("point", "triangle"),
        ("edge", "triangle"), ("triangle", "triangle"), ("point", "subset")])
    def test_mapped_scenarios_match_profile_oracle(self, f_name, g_name):
        mapped, _ = mapping_event_scenario(SCENARIOS[f_name](),
                                           SCENARIOS[g_name]())
        got, want = elements(mapped), elements_by_profiles(mapped)
        assert got.total == want.total and got.base == want.base
        assert got.vmap == want.vmap

    def test_scenarios_match_profile_oracle(self, chsh_scn, path_scn):
        for scn in (chsh_scn, path_scn, triangle_parity_scn(),
                    ternary_edge_subset()):
            got, want = elements(scn), elements_by_profiles(scn)
            assert (got.total, got.base, got.vmap) == \
                (want.total, want.base, want.vmap)


def registry(elems):
    return {k: (e.sigma, e.pi, e.alpha) for k, e in elems.items()}


def assert_matches_filtered(f, g, cap=200000):
    """The same [F, G], outcome order and element registry as trying every
    map and keeping those that factor through every face."""
    got, got_elems = mapping_event_scenario(f, g, cap=cap)
    want, want_elems = mapping_event_scenario_filtered(f, g, cap=cap)
    assert got == want
    assert registry(got_elems) == registry(want_elems)


class TestMapping:
    def test_tiny_instance_counts(self):
        f = event_presheaf(standard([["a"]]))
        g = event_presheaf(standard([["u", "v"]]))
        mapped, elems = mapping_event_scenario(f, g)
        sizes = {skey(s): len(v) for s, v in mapped.sets.items()}
        assert sizes == {"u": 4, "v": 4, "u,v": 16}
        assert validate_event_scenario(mapped)["ok"]
        # registry decodes every listed outcome
        for sigma, keys in mapped.sets.items():
            for key in keys:
                elem = elems[(sigma, key)]
                assert elem.key() == key
                assert elem.sigma == sigma

    @pytest.mark.parametrize("f_name,g_name", [
        ("triangle", "point"), ("triangle", "edge"), ("point", "triangle"),
        ("edge", "triangle"), ("triangle", "triangle")])
    def test_parity_triangle_matches_filtered(self, f_name, g_name):
        scenarios = {"point": event_presheaf(standard([["a"]])),
                     "edge": event_presheaf(standard([["u", "v"]])),
                     "triangle": triangle_parity_scn()}
        f, g = scenarios[f_name], scenarios[g_name]
        assert_matches_filtered(f, g)

    @pytest.mark.parametrize("f_name,g_name", [
        ("edge", "edge3"), ("edge", "cycle4"), ("point3", "edge"),
        ("point", "subset"), ("edge", "subset")])
    def test_benchmark_shaped_pairs_match_filtered(self, f_name, g_name):
        """The pairs the benchmark maps, with G(y) of three outcomes split
        off the stem, and a G whose edge has only some vertex profiles."""
        f, g = SCENARIOS[f_name](), SCENARIOS[g_name]()
        assert_matches_filtered(f, g)
        mapped, elems = mapping_event_scenario(f, g)
        for sigma, keys in mapped.sets.items():
            for key in keys:
                elem = elems[(sigma, key)]
                assert elem.key() == key
                assert MappingElement(sigma, elem.pi, elem.alpha).key() == key

    @pytest.mark.parametrize("f_name,g_name", [
        ("edge", "edge3"), ("edge", "cycle4"), ("point3", "edge"),
        ("point", "subset"), ("edge", "subset")])
    def test_trusted_tables_pass_the_checked_constructors(self, f_name,
                                                          g_name):
        """The scenario and the total complex of its elements are built
        unchecked; the checked constructors must give them back unchanged."""
        mapped, _ = mapping_event_scenario(SCENARIOS[f_name](),
                                           SCENARIOS[g_name]())
        assert EventScenario.from_json(mapped.to_json()) == mapped
        for (sigma, _), table in mapped.codim1.items():
            assert tuple(table) == mapped.sets[sigma]
        got, want = elements(mapped), elements_by_profiles(mapped)
        checked = SimplicialComplex(got.total.maximal)
        assert (checked, checked.vertices) == (got.total, got.total.vertices)
        assert (got.total, got.base, got.vmap) == \
            (want.total, want.base, want.vmap)

    def test_registry_is_decoded_on_read(self, monkeypatch):
        from ctxlib import events
        made = []

        class Counted(MappingElement):
            __slots__ = ()

            def __new__(cls, *args):
                made.append(cls)
                return super().__new__(cls)

        monkeypatch.setattr(events, "MappingElement", Counted)
        f, g = SCENARIOS["edge"](), SCENARIOS["edge3"]()
        built = [mapping_event_scenario(f, g),
                 mapping_bundle_scenario(elements(f), elements(g))[1:]]
        assert made == []
        for mapped, elems in built:
            assert set(elems) == {(sigma, key) for sigma, keys in
                                  mapped.sets.items() for key in keys}
            assert len(elems) == sum(map(len, mapped.sets.values()))
            sigma = mapped.base.maximal[0]
            key = mapped.sets[sigma][-1]
            assert (sigma, key) in elems and (sigma, "?") not in elems
            assert elems[(sigma, key)].key() == key
        assert len(made) == 2

    def test_rand_event_pairs_match_filtered(self):
        """Seeded pairs, F on at most two vertices and G on up to five;
        the library must hit its cap exactly where the oracle does."""
        built = raised = 0
        widest = 1
        for seed in range(4):
            r = make_rng(seed)
            for _ in range(10):
                f = rand_event(r, max_contexts=2, max_context_size=2,
                               max_outcomes=2)
                g = rand_event(r, max_contexts=2, max_context_size=3,
                               max_outcomes=2)
                try:
                    mapping_event_scenario_filtered(f, g, cap=4000)
                except ResourceLimitError:
                    with pytest.raises(ResourceLimitError) as err:
                        mapping_event_scenario(f, g, cap=4000)
                    assert err.value.stage == "mapping_event_scenario"
                    raised += 1
                    continue
                assert_matches_filtered(f, g, cap=4000)
                built += 1
                widest = max([widest] + [len(m) for m in g.base.maximal])
        assert built >= 30 and raised >= 1 and widest >= 3

    def test_invalid_input_rejected(self):
        edge = SimplicialComplex([{"u", "v"}])
        sigma = frozenset(["u", "v"])
        nonlocal_g = EventScenario(
            edge, {frozenset(["u"]): ("0", "1"), frozenset(["v"]): ("0", "1"),
                   sigma: ("p", "q", "r")},
            {(sigma, frozenset(["u"])): {"p": "0", "q": "0", "r": "1"},
             (sigma, frozenset(["v"])): {"p": "0", "q": "0", "r": "1"}})
        point = event_presheaf(standard([["a"]]))
        with pytest.raises(DomainError, match="locality"):
            mapping_event_scenario(point, nonlocal_g)
        with pytest.raises(DomainError, match="locality"):
            mapping_event_scenario(nonlocal_g, point)
        # the cap is checked first, so an input over it still hits the cap
        with pytest.raises(ResourceLimitError):
            mapping_event_scenario(point, nonlocal_g, cap=2)

    def test_element_key_format(self):
        f = event_presheaf(standard([["a"]]))
        g = event_presheaf(standard([["u", "v"]]))
        mapped, _ = mapping_event_scenario(f, g)
        assert mapped.sets[frozenset(["u"])][0] == \
            "(pi:u>[a]|al:0>0;1>0)"

    def test_mapping_suite(self):
        assert check_mapping(10, seed=5) == []

    def test_mapping_failures_name_their_trial(self, monkeypatch):
        monkeypatch.setattr(laws, "validate_event_scenario",
                            lambda scn: {"ok": False})
        failures = check_mapping(2, seed=5)
        assert [f["trial"] for f in failures
                if f["law"] == "mapping-valid"] == [0, 1]

    def test_mapping_suite_builds_each_scenario_once(self, monkeypatch):
        from ctxlib import events
        built = []

        def build(scn_f, scn_g, cap):
            built.append(mapping_event_scenario(scn_f, scn_g, cap=cap)[0])
            return built[-1], None

        def elems(scn):
            assert all(scn is not m for m in built)
            return elements(scn)

        for module in (laws, events):
            monkeypatch.setattr(module, "mapping_event_scenario", build)
            monkeypatch.setattr(module, "elements", elems)
        assert check_mapping(5, seed=43) == []
        assert len(built) == 5
