import pytest

from dgh import suites
from dgh.digraph import Digraph, DigraphMap, box_product, point
from dgh.errors import IndexMismatch, NotACover, NotInClosed, UnknownVertex
from dgh.covers import (
    SubdigraphFamily,
    check_cover_equivalence,
    check_cover_union,
    check_union_pushout,
    in_closure,
    is_in_closed,
    is_out_closed,
    nerve_complex,
    nerve_theorem_pipeline,
    out_closure,
    pushout_closure_identity,
)

from conftest import cycle, line


def o_cover(o):
    return SubdigraphFamily(
        o,
        {
            "rows01": [v for v in o.vertices if v[0] in (0, 1)],
            "rows34": [v for v in o.vertices if v[0] in (3, 4)],
            "cols01": [v for v in o.vertices if v[1] in (0, 1)],
            "cols34": [v for v in o.vertices if v[1] in (3, 4)],
        },
    )


class TestClosures:
    def test_in_closure_zigzag(self):
        g = line(2)  # 0 -> 1 <- 2
        assert in_closure(g, [1]) == (0, 1, 2)

    def test_out_closure_arrow(self):
        assert out_closure(line(1), [0]) == (0, 1)

    def test_out_closure_of_boundary_is_o(self, grid44, o_digraph):
        boundary = [v for v in grid44.vertices if v[0] in (0, 4) or v[1] in (0, 4)]
        closure = out_closure(grid44, boundary)
        assert set(closure) == set(o_digraph.vertices)
        assert (2, 2) not in closure

    def test_laws(self, c3):
        for g in (c3, line(3), box_product(line(1), line(1))):
            verts = list(g.vertices)
            for part in ([], verts[:1], verts[:2], verts):
                for clo in (in_closure, out_closure):
                    c = clo(g, part)
                    assert set(part) <= set(c)
                    assert set(clo(g, c)) == set(c)

    def test_is_in_closed(self):
        g = line(1)
        assert is_in_closed(g, [0, 1])
        assert not is_in_closed(g, [1])
        assert is_in_closed(g, [0])
        assert is_out_closed(g, [1])

    def test_unknown_vertex(self, c3):
        with pytest.raises(UnknownVertex):
            in_closure(c3, ["nope"])


class TestNerveComplex:
    def test_o_cover_is_four_cycle(self, o_digraph):
        ner = nerve_complex(o_cover(o_digraph))
        assert sorted(len(f) for f in ner.faces) == [1, 1, 1, 1, 2, 2, 2, 2]
        # opposite strips never meet
        assert ("rows01", "rows34") not in ner.faces
        assert ("cols01", "cols34") not in ner.faces
        h = ner.homology()
        assert h["groups"][0].betti == 1 and h["groups"][1].betti == 1

    def test_single_member(self, c3):
        fam = SubdigraphFamily(c3, {"all": c3.vertices})
        ner = nerve_complex(fam)
        assert ner.faces == {("all",)}

    def test_two_disjoint_members(self):
        g = Digraph(["a", "b"])
        fam = SubdigraphFamily(g, {"left": ["a"], "right": ["b"]})
        ner = nerve_complex(fam)
        assert ner.faces == {("left",), ("right",)}


class TestCoverUnion:
    def test_o_cover_passes(self, o_digraph):
        rep = check_cover_union(o_digraph, o_cover(o_digraph), 2)
        assert rep["pass"]
        assert rep["all_out_closed"] and not rep["all_in_closed"]

    def test_trivial_cover(self, c3):
        fam = SubdigraphFamily(c3, {"all": c3.vertices})
        assert check_cover_union(c3, fam, 2)["pass"]

    def test_not_a_cover_raises(self, c3):
        fam = SubdigraphFamily(c3, {"a": [0, 1]})
        with pytest.raises(NotACover):
            check_cover_union(c3, fam, 2)

    def test_broken_cover_fails_with_witness(self):
        # members cover the vertices but one is not closed, so a cube escapes
        g = line(2)  # 0 -> 1 <- 2
        fam = SubdigraphFamily(g, {"left": [0, 1], "right": [0, 2]})
        rep = check_cover_union(g, fam, 1)
        assert not rep["pass"]
        assert any("witness_cube" in level for level in rep["levels"])


class TestNerveTheorem:
    def test_o_example(self, o_digraph):
        rep = nerve_theorem_pipeline(o_digraph, o_cover(o_digraph), 2)
        assert rep["all_intersections_contractible_evidence"]
        assert rep["homology_agrees_below_top"]
        assert rep["consistent"]

    def test_boundary_restriction(self, boundary44):
        fam = o_cover_restricted(boundary44)
        rep = nerve_theorem_pipeline(boundary44, fam, 2)
        assert rep["consistent"]

    def test_single_contractible_member(self):
        g = line(1)
        fam = SubdigraphFamily(g, {"all": [0, 1]})
        rep = nerve_theorem_pipeline(g, fam, 2)
        assert rep["consistent"]
        assert rep["nerve_complex_homology"][0] == {"rank": 1, "torsion": []}

    def test_mixed_closedness_rejected(self):
        from dgh.errors import MixedClosedness

        g = line(2)  # 0 -> 1 <- 2
        fam = SubdigraphFamily(g, {"out_only": [0, 1], "in_only": [0, 2]})
        with pytest.raises(MixedClosedness):
            nerve_theorem_pipeline(g, fam, 2)


def o_cover_restricted(boundary):
    return SubdigraphFamily(
        boundary,
        {
            "rows01": [v for v in boundary.vertices if v[0] in (0, 1)],
            "rows34": [v for v in boundary.vertices if v[0] in (3, 4)],
            "cols01": [v for v in boundary.vertices if v[1] in (0, 1)],
            "cols34": [v for v in boundary.vertices if v[1] in (3, 4)],
        },
    )


class TestUnionPushout:
    def test_three_vertex_fan(self):
        g = Digraph(["a", "b", "c"], [("b", "a"), ("b", "c")])
        rep = check_union_pushout(g, ["a", "b"], ["b", "c"])
        assert rep["pass"]

    def test_degenerate_whole(self, c3):
        rep = check_union_pushout(c3, c3.vertices, c3.vertices)
        assert rep["pass"]

    def test_o_halves(self, o_digraph):
        top = [v for v in o_digraph.vertices if v[0] <= 2]
        bottom = [v for v in o_digraph.vertices if v[0] >= 2]
        rep = check_union_pushout(o_digraph, top, bottom)
        assert rep["pass"]

    def test_rejects_non_in_closed(self):
        g = line(1)
        with pytest.raises(NotInClosed):
            check_union_pushout(g, [0], [1])


class TestCoverEquivalence:
    def test_boundary_into_o(self, o_digraph, boundary44):
        incl = DigraphMap(
            boundary44, o_digraph, {v: v for v in boundary44.vertices}
        )
        rep = check_cover_equivalence(
            incl, o_cover_restricted(boundary44), o_cover(o_digraph), 2
        )
        assert rep["pass"]
        assert rep["global"] == {"0": True, "1": True}

    def test_identity_trivial(self, c3):
        fam = SubdigraphFamily(c3, {"all": c3.vertices})
        rep = check_cover_equivalence(DigraphMap.identity(c3), fam, fam, 2)
        assert rep["pass"]

    def test_mismatched_names_rejected(self, c3):
        fam = SubdigraphFamily(c3, {"all": c3.vertices})
        fam2 = SubdigraphFamily(c3, {"other": c3.vertices})
        with pytest.raises(IndexMismatch):
            check_cover_equivalence(DigraphMap.identity(c3), fam, fam2, 2)

    def test_breaking_intersection_fails(self):
        # collapse kills the cycle: the global induced map cannot be iso
        g = cycle(3)
        pt = point()
        collapse = DigraphMap.constant(g, pt, "*")
        fam = SubdigraphFamily(g, {"all": g.vertices})
        fam2 = SubdigraphFamily(pt, {"all": pt.vertices})
        rep = check_cover_equivalence(collapse, fam, fam2, 2)
        assert not rep["pass"]


class TestPushoutClosureIdentity:
    def test_identity_map(self):
        g = Digraph(["a", "b", "c"], [("b", "a"), ("b", "c")])
        part = ("a", "b")
        sub = g.induced(part)
        rep = pushout_closure_identity(g, part, DigraphMap.identity(sub))
        assert rep["pass"]

    def test_collapse_boundary_in_grid(self, grid44):
        boundary = tuple(
            v for v in grid44.vertices if v[0] in (0, 4) or v[1] in (0, 4)
        )
        phi = DigraphMap.constant(grid44.induced(boundary), point(), "*")
        rep = pushout_closure_identity(grid44, boundary, phi)
        assert rep["pass"]

    def test_small_corpus_triples(self):
        g = line(2)
        phi = DigraphMap.constant(g.induced((0,)), point(), "*")
        assert pushout_closure_identity(g, (0,), phi)["pass"]

    def test_rejects_non_in_closed(self):
        g = line(1)
        phi = DigraphMap.constant(g.induced((1,)), point(), "*")
        with pytest.raises(NotInClosed):
            pushout_closure_identity(g, (1,), phi)


class TestSaturationSuite:
    def test_program_defect_propagates(self, monkeypatch):
        # only an InputError (a label collision) is skipped as no question
        def defective(*args):
            raise TypeError("defect")

        monkeypatch.setattr(suites, "pushout_along_induced_inclusion", defective)
        with pytest.raises(TypeError, match="defect"):
            suites.suite_saturation()
