import json
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from dgh.digraph import (
    Digraph,
    DigraphMap,
    DigraphPair,
    INFINITY,
    box_hom,
    box_product,
    curry,
    disjoint_union,
    distance,
    enumerate_digraph_maps,
    pair_box_product,
    pi0,
    point,
    power_digraph,
    pushout_along_induced_inclusion,
    uncurry,
)
from dgh.errors import (
    BudgetExceeded,
    InputError,
    NotDigraphMap,
    NotInduced,
    UnknownVertex,
)
from dgh.cli import main
from dgh.covers import in_closure
from dgh.intervals import standard_interval

from conftest import cycle, floyd_warshall, is_isomorphic, line, naive_digraph_maps


class TestConstruction:
    def test_duplicate_vertices_rejected(self):
        with pytest.raises(InputError):
            Digraph(["a", "a"])

    def test_self_loop_rejected(self):
        with pytest.raises(InputError):
            Digraph(["a"], [("a", "a")])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(UnknownVertex):
            Digraph(["a"], [("a", "b")])

    def test_degenerate_arrows_implicit(self):
        g = line(1)
        assert g.is_arrow(0, 0)
        assert g.is_arrow(0, 1)
        assert not g.is_arrow(1, 0)
        assert len(g.arrows) == 1

    def test_opposite_involution(self):
        g = cycle(4)
        assert g.opposite().opposite() == g

    def test_induced_boundary_grid(self):
        grid = box_product(line(4), line(4))
        boundary = [v for v in grid.vertices if v[0] in (0, 4) or v[1] in (0, 4)]
        sub = grid.induced(boundary)
        assert len(sub.vertices) == 16

    def test_disjoint_union_components(self):
        g = disjoint_union(line(1), line(1))
        assert len(pi0(g)) == 2
        assert len(g.vertices) == 4


class TestDigraphMap:
    def test_valid_map(self):
        g = line(1)
        DigraphMap(g, g, {0: 0, 1: 1})
        DigraphMap(g, g, {0: 0, 1: 0})

    def test_arrow_violation_rejected(self):
        g = line(1)
        with pytest.raises(NotDigraphMap):
            DigraphMap(g, g, {0: 1, 1: 0})

    def test_constructor_matches_naive_checker(self):
        g = cycle(3)
        h = line(2)
        accepted = set()
        for images in product(h.vertices, repeat=3):
            try:
                DigraphMap(g, h, dict(zip(g.vertices, images)))
                accepted.add(images)
            except NotDigraphMap:
                pass
        assert accepted == set(naive_digraph_maps(g, h))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 2), min_size=3, max_size=3))
    def test_constructor_differential_random(self, images):
        g = cycle(3)
        h = cycle(3)
        assignment = dict(zip(g.vertices, images))
        naive_ok = all(
            assignment[u] == assignment[v] or (assignment[u], assignment[v]) in h.arrows
            for (u, v) in g.arrows
        )
        if naive_ok:
            DigraphMap(g, h, assignment)
        else:
            with pytest.raises(NotDigraphMap):
                DigraphMap(g, h, assignment)


class TestBoxProduct:
    def test_unit_square(self):
        sq = box_product(line(1), line(1))
        assert len(sq.vertices) == 4
        assert len(sq.arrows) == 4

    def test_monoidal_unit(self):
        g = cycle(3)
        assert is_isomorphic(box_product(g, point()), g)
        assert is_isomorphic(box_product(point(), g), g)

    def test_arrow_count_matches_double_loop_oracle(self):
        g = line(2)
        prod = box_product(g, g)
        expected = 0
        for (a, b) in product(g.vertices, repeat=2):
            for (c, d) in product(g.vertices, repeat=2):
                moves_left = (a, c) in g.arrows and b == d
                moves_right = (b, d) in g.arrows and a == c
                if moves_left or moves_right:
                    expected += 1
        assert len(prod.arrows) == expected == 12

    def test_pair_box_product_boundary(self):
        i2 = standard_interval(2)
        pair = DigraphPair(i2.to_digraph(), (0, 2))
        sq = pair_box_product(pair, pair)
        assert len(sq.ambient.vertices) == 9
        assert len(sq.part) == 8
        assert (1, 1) not in sq.part

    def test_pair_box_product_empty_parts(self):
        g = cycle(3)
        p = DigraphPair(g, ())
        q = pair_box_product(p, p)
        assert q.part == ()


class TestBoxHom:
    def test_evaluation_at_unit(self):
        g = cycle(3)
        hom = box_hom(point(), g)
        assert is_isomorphic(hom, g)

    def test_hom_interval_to_interval(self):
        hom = box_hom(line(1), line(1))
        assert len(hom.vertices) == 3
        assert set(hom.vertices) == {(0, 0), (0, 1), (1, 1)}
        assert len(hom.arrows) == 3

    def test_hom_count_against_naive_oracle(self):
        g, h = line(2), cycle(3)
        hom = box_hom(g, h)
        naive = naive_digraph_maps(g, h)
        assert sorted(hom.vertices) == sorted(naive)
        assert len(hom.vertices) == 12

    def test_budget(self):
        g, h = line(2), cycle(3)
        with pytest.raises(BudgetExceeded):
            box_hom(g, h, vertex_budget=5)

    def test_enumeration_budget_is_exact_on_a_sparse_target(self):
        # each of the 4 steps of the zigzag stays put or moves one way
        # round the 30-cycle: 30 * 2**4 maps
        g, h = line(4), cycle(30)
        assert len(enumerate_digraph_maps(g, h, budget=480)) == 480
        message = r"^more than 479 digraph maps during enumeration$"
        with pytest.raises(BudgetExceeded, match=message):
            enumerate_digraph_maps(g, h, budget=479)

    def test_pinned_value_outside_the_target_is_unknown(self):
        with pytest.raises(UnknownVertex, match=r"^unknown vertex 7$"):
            enumerate_digraph_maps(line(1), cycle(3), pinned={0: (7,)})

    def test_enumeration_matches_naive_on_corpus(self):
        for g in (line(1), line(2), cycle(3)):
            for h in (line(1), cycle(3), line(2, -1)):
                assert enumerate_digraph_maps(g, h) == sorted(
                    naive_digraph_maps(g, h)
                )


class TestPairBoxHom:
    def test_boundary_pinned_hom(self, c3):
        from dgh.digraph import pair_box_hom

        src = DigraphPair(line(1), (0, 1))
        dst = DigraphPair(c3, (0,))
        hom = pair_box_hom(src, dst)
        # both endpoints pinned to the basepoint leaves the constant map
        assert hom.ambient.vertices == ((0, 0),)
        assert hom.part == ((0, 0),)

    def test_pointed_hom(self, c3):
        from dgh.digraph import pair_box_hom

        src = DigraphPair(line(1), (0,))
        dst = DigraphPair(c3, (0,))
        hom = pair_box_hom(src, dst)
        assert set(hom.ambient.vertices) == {(0, 0), (0, 1)}
        assert hom.ambient.arrows == frozenset({((0, 0), (0, 1))})
        assert hom.part == ((0, 0),)


class TestCurrying:
    def test_bijection_and_inverse(self):
        g, h, k = line(1), line(2), cycle(3)
        left = enumerate_digraph_maps(box_product(g, h), k)
        right = set(enumerate_digraph_maps(g, box_hom(h, k)))
        assert {curry(g, h, k, t) for t in left} == right
        for t in left:
            assert uncurry(g, h, k, curry(g, h, k, t)) == t


class TestPushout:
    def test_identity_pushout(self):
        g = cycle(3)
        sub = g.induced([0, 1])
        ident = DigraphMap(sub, sub, {0: 0, 1: 1})
        result, phi_prime, incl = pushout_along_induced_inclusion(g, [0, 1], ident)
        assert is_isomorphic(result, g)

    def test_gluing_two_segments(self):
        # two one-arrow segments glued end to start give a three-vertex path
        g = Digraph(["a0", "a1"], [("a0", "a1")])
        h_prime = Digraph(["b0", "b1"], [("b0", "b1")])
        sub = g.induced(["a1"])
        phi = DigraphMap(sub, h_prime, {"a1": "b0"})
        result, _, _ = pushout_along_induced_inclusion(g, ["a1"], phi)
        assert set(result.vertices) == {"a0", "b0", "b1"}
        assert result.arrows == frozenset({("a0", "b0"), ("b0", "b1")})

    def test_not_induced_rejected(self):
        g = cycle(3)
        wrong_source = Digraph([0, 1])  # misses the induced arrow
        phi = DigraphMap(wrong_source, point(), {0: "*", 1: "*"})
        with pytest.raises(NotInduced):
            pushout_along_induced_inclusion(g, [0, 1], phi)

    def test_complement_preserved(self):
        g = box_product(line(1), line(1))
        part = [(0, 0)]
        phi = DigraphMap.constant(g.induced(part), point("z"), "z")
        result, phi_prime, _ = pushout_along_induced_inclusion(g, part, phi)
        outside = [v for v in g.vertices if v not in part]
        assert all(phi_prime.assignment[v] == v for v in outside)

    def test_universal_property_small_cospans(self):
        # every pair of maps agreeing on the glued part factors uniquely
        g = Digraph(["a", "b"], [("a", "b")])
        h_prime = Digraph(["x"])
        sub = g.induced(["b"])
        phi = DigraphMap(sub, h_prime, {"b": "x"})
        result, phi_prime, incl = pushout_along_induced_inclusion(g, ["b"], phi)
        for target in (cycle(3), line(2)):
            for f_img in naive_digraph_maps(g, target):
                f = dict(zip(g.vertices, f_img))
                for g_img in naive_digraph_maps(h_prime, target):
                    gmap = dict(zip(h_prime.vertices, g_img))
                    if any(
                        f[v] != gmap[phi.assignment[v]] for v in sub.vertices
                    ):
                        continue
                    mediators = [
                        m
                        for m in naive_digraph_maps(result, target)
                        if all(
                            dict(zip(result.vertices, m))[phi_prime.assignment[v]]
                            == f[v]
                            for v in g.vertices
                        )
                        and all(
                            dict(zip(result.vertices, m))[incl.assignment[w]]
                            == gmap[w]
                            for w in h_prime.vertices
                        )
                    ]
                    assert len(mediators) == 1


class TestConnectivityDistance:
    def test_pi0_line(self):
        assert len(pi0(line(5))) == 1

    def test_pi0_disjoint(self):
        assert len(pi0(disjoint_union(line(1), line(1)))) == 2

    def test_distance_cycle(self, c3):
        assert distance(c3, 0, 2) == 2

    def test_distance_infinity(self):
        g = line(2)  # 0 -> 1 <- 2
        assert distance(g, 2, 1) == 1
        assert distance(g, 2, 0) == INFINITY
        assert distance(g, 2, 0) == distance(g, 2, 0) + 1  # sentinel semantics

    def test_unknown_vertex(self, c3):
        with pytest.raises(UnknownVertex):
            distance(c3, 0, 99)

    def test_all_pairs_floyd_warshall(self, o_digraph):
        table = floyd_warshall(o_digraph)
        for u in o_digraph.vertices:
            for v in o_digraph.vertices:
                expected = table[(u, v)]
                got = distance(o_digraph, u, v)
                assert got == expected or (
                    got == INFINITY and expected == float("inf")
                )

    def test_maps_contract_distance(self, c3, c6):
        p = DigraphMap(c6, c3, {i: i % 3 for i in range(6)})
        for u in c6.vertices:
            for v in c6.vertices:
                assert distance(c3, u % 3, v % 3) <= distance(c6, u, v)

    @settings(max_examples=40, deadline=None)
    @given(st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=12))
    def test_distance_quasi_metric_random(self, raw_arrows):
        arrows = [(u, v) for (u, v) in raw_arrows if u != v]
        g = Digraph(range(5), arrows)
        for u in g.vertices:
            assert distance(g, u, u) == 0
            for v in g.vertices:
                for w in g.vertices:
                    assert distance(g, u, w) <= distance(g, u, v) + distance(
                        g, v, w
                    )


C3_JSON = {"vertices": [0, 1, 2], "arrows": [[0, 1], [1, 2], [2, 0]]}


class TestVertexMembership:
    """Every library entry point that takes vertices checks them in one
    place, `Digraph.check_vertices`; the CLI call that takes the same
    vertices from the command line exits 2 with the same message."""

    @pytest.mark.parametrize(
        "call, argv",
        [
            (lambda g: g.induced([0, "z"]), ["check", "oddr", "{g}", "--part", "z", "--eta", "{g}"]),
            (lambda g: DigraphPair(g, ["z"]), ["classes", "{g}", "{g}", "--rel", "z"]),
            (lambda g: distance(g, 0, "z"), ["check", "ddr", "{g}", "--part", "z", "--eta", "{g}"]),
            (lambda g: distance(g, "z", 0), ["pi1", "{g}", "--base", "z"]),
            (
                lambda g: pushout_along_induced_inclusion(g, [0, "z"], DigraphMap.identity(g)),
                ["antower", "{g}", "--base", "z"],
            ),
            (lambda g: in_closure(g, ["z"]), ["classes", "{g}", "{g}", "--target-part", "z"]),
        ],
        ids=["induced", "pair", "distance-target", "distance-source", "pushout", "in-closure"],
    )
    def test_unknown_vertex(self, c3, monkeypatch, capsys, tmp_path, call, argv):
        checked = []
        check_vertices = Digraph.check_vertices

        def spy(g, vertices):
            checked.append(list(vertices))
            return check_vertices(g, checked[-1])

        monkeypatch.setattr(Digraph, "check_vertices", spy)
        with pytest.raises(UnknownVertex, match=r"^unknown vertex 'z'$"):
            call(c3)
        assert any("z" in vertices for vertices in checked)
        path = tmp_path / "c3.json"
        path.write_text(json.dumps(C3_JSON))
        assert main([a.format(g=path) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "unknown vertex 'z'"


class TestHomComponents:
    def test_hom_components_union_find_oracle(self, c3):
        from dgh.digraph import box_hom
        from conftest import naive_components, naive_one_step

        g = line(2)
        hom = box_hom(g, c3)
        edges = [
            (a, b)
            for a in hom.vertices
            for b in hom.vertices
            if a != b and naive_one_step(g, c3, a, b)
        ]
        assert len(pi0(hom)) == naive_components(hom.vertices, edges)


class TestPowerDigraph:
    def test_identity_power(self, c3):
        assert power_digraph(c3, 1) == c3

    def test_power_two_cycle(self, c3):
        d2 = power_digraph(c3, 2)
        assert d2.arrows == frozenset(
            (u, v) for u in range(3) for v in range(3) if u != v
        )

    def test_power_line_oracle(self):
        g = line(3)
        table = floyd_warshall(g)
        d2 = power_digraph(g, 2)
        expected = {
            (u, v)
            for (u, v), d in table.items()
            if u != v and d <= 2
        }
        assert d2.arrows == frozenset(expected)
        assert len(d2.arrows) == 3
