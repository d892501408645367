"""Simplicial complexes, the nerve monad, relations, and tensor products."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import antichain_pairwise
from ctxlib.complexes import (ComplexMap, SimplicialComplex, _antichain,
                              SimplicialRelation, identity_relation,
                              kleisli_compose, mult_map, nerve_complex,
                              nerve_name, nerve_unname, nonempty_subsets,
                              pair_name, pair_simplex, project_simplex,
                              simplex_from_key, skey, split_key,
                              tensor_complex, tensor_comparison_map,
                              tensor_relation, unit_map, unpair_name)
from ctxlib.errors import CompositionError, DomainError
from ctxlib.laws import check_monad, check_tensor


PATH = SimplicialComplex([{"a", "b"}, {"b", "c"}])


class TestKeys:
    def test_skey_sorts(self):
        assert skey({"b", "a"}) == "a,b"

    def test_split_key_is_bracket_aware(self):
        assert split_key("[a,b],[c]") == ["[a,b]", "[c]"]
        assert split_key("(x|y),z") == ["(x|y)", "z"]

    def test_simplex_round_trip(self):
        sigma = frozenset(["[a,b]", "c"])
        assert simplex_from_key(skey(sigma)) == sigma

    def test_bad_vertex_names_rejected(self):
        with pytest.raises(DomainError):
            SimplicialComplex([{"a,b"}], check_names=True)
        with pytest.raises(DomainError):
            SimplicialComplex([{"a]"}], check_names=True)

    def test_generated_names_accepted(self):
        SimplicialComplex([{"[a,b]", "(x|y)"}], check_names=True)

    def test_pair_name_round_trip(self):
        name = pair_name("(a|b)", "c")
        assert unpair_name(name) == ("(a|b)", "c")


class TestComplex:
    def test_antichain_reduction(self):
        cpx = SimplicialComplex([{"a", "b"}, {"a"}, {"b"}])
        assert cpx.maximal == (frozenset({"a", "b"}),)

    def test_empty_simplex_rejected(self):
        with pytest.raises(DomainError):
            SimplicialComplex([frozenset()])
        assert SimplicialComplex([set(), {"a"}]).maximal == \
            (frozenset({"a"}),)

    def test_non_string_vertex_name_rejected(self):
        with pytest.raises(DomainError, match="strings"):
            SimplicialComplex([[5, "a"]])

    def test_path_simplices(self):
        assert len(PATH.simplices()) == 5
        assert PATH.dim() == 1
        assert {"a", "b"} in PATH
        assert {"a", "c"} not in PATH

    def test_star(self):
        star = PATH.star({"b"})
        assert sorted(skey(s) for s in star) == ["a,b", "b", "b,c"]

    def test_json_round_trip(self):
        assert SimplicialComplex.from_json(PATH.to_json()) == PATH

    def test_json_vertex_mismatch(self):
        obj = PATH.to_json()
        obj["vertices"] = ["a", "b"]
        with pytest.raises(DomainError):
            SimplicialComplex.from_json(obj)


@st.composite
def small_complexes(draw):
    verts = [f"v{i}" for i in range(draw(st.integers(1, 5)))]
    n = draw(st.integers(1, 3))
    maxs = [frozenset(draw(st.sets(st.sampled_from(verts), min_size=1)))
            for _ in range(n)]
    return SimplicialComplex(maxs)


@given(small_complexes())
@settings(max_examples=60, deadline=None)
def test_downward_closure_and_antichain(cpx):
    sims = set(cpx.simplices())
    for sigma in sims:
        for tau in nonempty_subsets(sigma):
            assert tau in sims
    for m in cpx.maximal:
        assert not any(m < other for other in cpx.maximal)


@given(st.lists(st.frozensets(st.sampled_from("abcdef")), max_size=12),
       st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_antichain_matches_pairwise(family, repeats):
    """Duplicates and the empty set included: the empty set survives only
    when it is the whole family."""
    family = family + family[:repeats]
    got = _antichain(iter(family))
    assert len(got) == len(set(got))
    assert set(got) == set(antichain_pairwise(family))


class TestNerve:
    def test_nerve_of_edge(self):
        edge = SimplicialComplex([{"a", "b"}])
        n = nerve_complex(edge)
        assert sorted(n.vertices) == ["[a,b]", "[a]", "[b]"]
        assert n.maximal == (frozenset({"[a]", "[b]", "[a,b]"}),)

    def test_nerve_of_path(self):
        n = nerve_complex(PATH)
        assert len(n.vertices) == 5
        assert len(n.maximal) == 2

    def test_nerve_names(self):
        assert nerve_name({"b", "a"}) == "[a,b]"
        assert nerve_unname("[a,b]") == frozenset({"a", "b"})

    def test_unit_mult_identities_on_path(self):
        mm = mult_map(PATH)
        n1 = nerve_complex(PATH)
        left = mm.compose(unit_map(n1))
        assert left.vertex_map == {v: v for v in n1.vertices}

    def test_monad_suite(self):
        assert check_monad(40, seed=101) == []


class TestComplexMap:
    def test_non_simplicial_rejected(self):
        tgt = SimplicialComplex([{"x"}, {"y"}])
        with pytest.raises(DomainError):
            ComplexMap(PATH, tgt, {"a": "x", "b": "y", "c": "x"})

    def test_compose_order(self):
        cpx = SimplicialComplex([{"u"}])
        f = ComplexMap(PATH, cpx, {v: "u" for v in PATH.vertices})
        g = ComplexMap(cpx, PATH, {"u": "a"})
        assert g.compose(f).vertex_map == {v: "a" for v in PATH.vertices}
        with pytest.raises(CompositionError):
            f.compose(f)


class TestRelations:
    def test_induced_union(self):
        rel = SimplicialRelation(
            SimplicialComplex([{"p", "q"}]), PATH,
            {"p": {"a", "b"}, "q": {"b"}})
        assert rel.induced({"p", "q"}) == frozenset({"a", "b"})

    def test_non_simplicial_union_rejected(self):
        with pytest.raises(DomainError):
            SimplicialRelation(
                SimplicialComplex([{"p", "q"}]), PATH,
                {"p": {"a"}, "q": {"c"}})

    def test_kleisli_units(self):
        rel = SimplicialRelation(
            SimplicialComplex([{"p"}]), PATH, {"p": {"a", "b"}})
        assert kleisli_compose(rel, identity_relation(rel.source)) == rel
        assert kleisli_compose(identity_relation(PATH), rel) == rel

    def test_kleisli_known_composite(self):
        mid = SimplicialComplex([{"p", "q"}])
        r1 = SimplicialRelation(mid, PATH, {"p": {"a", "b"}, "q": {"b"}})
        src = SimplicialComplex([{"s"}])
        r2 = SimplicialRelation(src, mid, {"s": {"p", "q"}})
        assert kleisli_compose(r1, r2).vertex_map == {
            "s": frozenset({"a", "b"})}

    def test_json_round_trip(self):
        rel = SimplicialRelation(
            SimplicialComplex([{"p"}]), PATH, {"p": {"b", "c"}})
        assert SimplicialRelation.from_json(rel.to_json()) == rel


class TestTensor:
    def test_path_tensor_path_counts(self):
        other = SimplicialComplex([{"a2", "b2"}, {"b2", "c2"}])
        tc = tensor_complex(PATH, other)
        assert len(tc.vertices) == 9
        assert len(tc.maximal) == 4
        assert all(len(m) == 4 for m in tc.maximal)

    def test_projections_are_simplicial(self):
        other = SimplicialComplex([{"a2", "b2"}, {"b2", "c2"}])
        tc = tensor_complex(PATH, other)
        for m in tc.maximal:
            assert project_simplex(m, 0) in PATH
            assert project_simplex(m, 1) in other

    def test_pair_simplex(self):
        assert pair_simplex({"a"}, {"x", "y"}) == frozenset(
            {"(a|x)", "(a|y)"})

    def test_tensor_relation_induced(self):
        rel = identity_relation(PATH)
        tr = tensor_relation(rel, rel)
        m = tr.source.maximal[0]
        assert tr.induced(m) == m

    def test_comparison_map_values(self):
        edge = SimplicialComplex([{"a", "b"}])
        phi = tensor_comparison_map(edge, edge)
        v = pair_name(nerve_name({"a"}), nerve_name({"a", "b"}))
        want = nerve_name(pair_simplex({"a"}, {"a", "b"}))
        assert phi.vertex_map[v] == want

    def test_tensor_suite(self):
        assert check_tensor(25, seed=202) == []
