"""Exact-rational distributions, the monad structure, and gluing."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxlib.dist import (Dist, convex, delta, element_key, flatten, glue,
                         glue_deterministic, mixture, product_dist,
                         pushforward, rat)
from ctxlib.errors import DomainError, PreconditionError
from ctxlib.laws import check_gluing
from ctxlib.rand import make_rng, rand_dist, rand_function, rand_lift

F = Fraction


class TestBasics:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(DomainError):
            Dist({"a": F(1, 2)})

    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            Dist({"a": F(3, 2), "b": F(-1, 2)})

    def test_floats_rejected(self):
        with pytest.raises(DomainError):
            Dist({"a": 0.5, "b": 0.5})
        with pytest.raises(DomainError):
            rat(0.25)

    def test_rat_parses_strings(self):
        assert rat("3/4") == F(3, 4)
        assert rat(1) == F(1)

    def test_duplicates_merge(self):
        p = Dist([("a", F(1, 2)), ("a", F(1, 4)), ("b", F(1, 4))])
        assert p("a") == F(3, 4)

    def test_atoms_are_told_apart_by_value(self):
        p = Dist([(1, F(1, 2)), ("1", F(1, 2))])
        assert len(p.support()) == 2
        assert p(1) == p("1") == F(1, 2)
        assert p != Dist({"1": F(1)})

    @pytest.mark.parametrize("p", [
        Dist([(1, F(1, 2)), ("1", F(1, 2))]),
        product_dist(Dist({"0,0": F(1, 2), "0": F(1, 2)}),
                     Dist({"1": F(1, 2), "0,1": F(1, 2)})),
    ], ids=["int-and-str", "product-pairs"])
    def test_to_json_refuses_atoms_with_equal_keys(self, p):
        with pytest.raises(DomainError):
            p.to_json()

    def test_zero_weights_dropped(self):
        p = Dist([("a", F(1)), ("b", F(0))])
        assert p.support() == ("a",)

    def test_canonical_string(self):
        p = Dist({"b": F(1, 3), "a": F(2, 3)})
        assert p.canonical() == "{a=2/3;b=1/3}"

    @pytest.mark.parametrize("a, b", [
        (1, "1"),
        (("a", "b"), "(a,b)"),
        (frozenset(["x", "y"]), ("x", "y")),
        ("a=1", delta("a")),
        (F(1, 2), "1/2"),
    ], ids=["int-str", "tuple-str", "set-tuple", "str-dist", "fraction-str"])
    def test_canonical_tells_distinct_values_apart(self, a, b):
        assert Dist([(a, 1)]).canonical() != Dist([(b, 1)]).canonical()
        assert delta(delta(a)).canonical() != delta(delta(b)).canonical()

    def test_equal_numbers_read_the_same(self):
        assert Dist([(1, 1)]).canonical() == Dist([(True, 1)]).canonical() \
            == Dist([(F(1), 1)]).canonical() == "{#1=1}"

    def test_canonical_is_independent_of_insertion_order(self):
        assert Dist([(1, F(1, 2)), ("1", F(1, 2))]).canonical() == \
            Dist([("1", F(1, 2)), (1, F(1, 2))]).canonical()

    def test_mixture_of_int_and_str_deltas_serializes(self):
        p = Dist([(Dist([(1, 1)]), F(1, 2)), (Dist([("1", 1)]), F(1, 2))])
        out = p.to_json()
        assert len(out) == 2 and set(out.values()) == {"1/2"}

    def test_element_key_nesting(self):
        assert element_key(("a", frozenset(["y", "x"]))) == "(a,{x,y})"
        assert element_key(delta("z")) == "{z=1}"

    def test_equality_is_structural(self):
        assert Dist({"a": F(1, 2), "b": F(1, 2)}) == \
            Dist([("b", F(1, 2)), ("a", F(1, 2))])


ATOMS = st.one_of(st.integers(0, 3), st.sampled_from(["0", "1", "a"]),
                  st.tuples(st.integers(0, 1), st.sampled_from(["0", "1"])))


@st.composite
def dists_and_maps(draw):
    """A Dist over mixed atoms (1 and "1" share a key) and a map that
    merges them into a few images, also mixed."""
    atoms = draw(st.lists(ATOMS, min_size=1, max_size=6, unique=True))
    weights = [draw(st.integers(1, 6)) for _ in atoms]
    p = Dist([(x, F(w, sum(weights))) for x, w in zip(atoms, weights)])
    images = {x: draw(st.sampled_from([0, "0", 1, "1", (0, "1")]))
              for x in atoms}
    return p, images.__getitem__


def serialized(p):
    try:
        return p.to_json()
    except DomainError as err:
        return str(err)


class TestMonad:
    def test_pushforward_adds_fibers(self):
        p = Dist({"a": F(1, 3), "b": F(1, 3), "c": F(1, 3)})
        q = pushforward(lambda x: "z" if x != "c" else "w", p)
        assert q("z") == F(2, 3) and q("w") == F(1, 3)

    @given(dists_and_maps())
    @settings(max_examples=200)
    def test_pushforward_matches_checked_constructor(self, case):
        """The unchecked pushforward is the checked Dist of the image pairs:
        same atoms in the same order, canonical form and JSON (or the same
        refusal when two atoms share a serialized key)."""
        p, f = case
        q, old = pushforward(f, p), Dist([(f(x), w) for x, w in p.items()])
        assert q == old and q.items() == old.items()
        assert [type(x) for x in q.support()] == \
            [type(x) for x in old.support()]
        assert q.canonical() == old.canonical()
        assert serialized(q) == serialized(old)

    def test_flatten_unit_laws(self):
        p = Dist({"a": F(1, 4), "b": F(3, 4)})
        assert flatten(delta(p)) == p
        assert flatten(pushforward(delta, p)) == p

    def test_flatten_rejects_plain_elements(self):
        with pytest.raises(DomainError):
            flatten(delta("a"))

    def test_convex(self):
        p = convex(F(1, 3), delta("a"), delta("b"))
        assert p("a") == F(1, 3) and p("b") == F(2, 3)

    def test_convex_weight_range(self):
        with pytest.raises(DomainError):
            convex(F(3, 2), delta("a"), delta("b"))

    def test_mixture(self):
        p = mixture([(F(1, 2), delta("a")),
                     (F(1, 2), Dist({"a": F(1, 2), "b": F(1, 2)}))])
        assert p("a") == F(3, 4)

    def test_product(self):
        p = product_dist(Dist({"a": F(1, 2), "b": F(1, 2)}), delta("y"))
        assert p(("a", "y")) == F(1, 2)

    def test_product_keeps_pairs_with_equal_keys_apart(self):
        p = product_dist(Dist({"0,0": F(1, 2), "0": F(1, 2)}),
                         Dist({"1": F(1, 2), "0,1": F(1, 2)}))
        assert len(p.support()) == 4
        assert p(("0,0", "1")) == p(("0", "0,1")) == F(1, 4)


@given(st.lists(st.integers(1, 5), min_size=1, max_size=4),
       st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_flatten_associativity(shape, seed):
    r = make_rng(seed)
    inner = [rand_dist(r, ["x%d" % i for i in range(k)]) for k in shape]
    middle = [rand_dist(r, inner) for _ in range(r.randint(1, 3))]
    big = rand_dist(r, middle)
    assert flatten(flatten(big)) == flatten(pushforward(flatten, big))


class TestGlue:
    def test_hand_computed_example(self):
        f = {"x1": "z0", "x2": "z0", "x3": "z1"}.__getitem__
        g = {"y1": "z0", "y2": "z1"}.__getitem__
        p = Dist({"x1": F(1, 4), "x2": F(1, 4), "x3": F(1, 2)})
        q = Dist({"y1": F(1, 2), "y2": F(1, 2)})
        m = glue(f, g, p, q)
        assert m(("x1", "y1")) == F(1, 4)
        assert m(("x2", "y1")) == F(1, 4)
        assert m(("x3", "y2")) == F(1, 2)
        assert len(m.support()) == 3

    def test_values_with_equal_keys_are_not_glued(self):
        f = {"x1": 1, "x2": "1"}.__getitem__
        g = {"y1": 1, "y2": "1"}.__getitem__
        half = Dist({"x1": F(1, 2), "x2": F(1, 2)})
        m = glue(f, g, half, Dist({"y1": F(1, 2), "y2": F(1, 2)}))
        assert m == Dist({("x1", "y1"): F(1, 2), ("x2", "y2"): F(1, 2)})

    def test_marginal_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            glue(lambda x: "z", lambda y: "w", delta("x"), delta("y"))

    def test_glue_deterministic(self):
        p = Dist({"x1": F(1, 2), "x2": F(1, 2)})
        f = {"x1": "z", "x2": "z"}.__getitem__
        m = glue_deterministic(f, lambda y: "z", p, "y0")
        assert m == pushforward(lambda x: (x, "y0"), p)
        with pytest.raises(PreconditionError):
            glue_deterministic(f, lambda y: "w", p, "y0")

    def test_elementwise_formula_oracle(self):
        """glue agrees with the direct weight formula p(x)q(y)/Df(p)(f(x))."""
        r = make_rng(31)
        for _ in range(200):
            Z = ["z%d" % i for i in range(r.randint(1, 3))]
            X = ["x%d" % i for i in range(r.randint(1, 4))]
            Y = ["y%d" % i for i in range(r.randint(1, 4))]
            f = rand_function(r, X, Z)
            g = rand_function(r, Y, Z)
            common = sorted(set(f.values()) & set(g.values()))
            if not common:
                continue
            target = rand_dist(r, common)
            p = rand_lift(r, target, lambda z: [x for x in X if f[x] == z])
            q = rand_lift(r, target, lambda z: [y for y in Y if g[y] == z])
            m = glue(f.__getitem__, g.__getitem__, p, q)
            marg = pushforward(f.__getitem__, p)
            expected = {}
            for x in p.support():
                for y in q.support():
                    if f[x] == g[y]:
                        expected[(x, y)] = p(x) * q(y) / marg(f[x])
            assert dict(m.items()) == expected

    def test_gluing_axiom_suite(self):
        assert check_gluing(150, seed=7) == []
