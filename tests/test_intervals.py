from itertools import product

import pytest

from dgh.errors import BadIndex, InputError
from dgh.intervals import (
    BASEPOINT,
    FWD,
    BWD,
    Interval,
    TowerSpec,
    all_intervals,
    cantor_interval,
    cantor_projection,
    enumerate_shrinkings,
    is_shrinking,
    sphere_digraph,
    standard_interval,
    truncation,
)


def naive_shrinkings(j, j2):
    """Filter every assignment for monotone + surjective + map."""
    n, m = j.n_arrows, j2.n_arrows
    src, dst = j.to_digraph(), j2.to_digraph()
    out = []
    for images in product(range(m + 1), repeat=n + 1):
        if any(images[i] > images[i + 1] for i in range(n)):
            continue
        if set(images) != set(range(m + 1)):
            continue
        ok = all(
            images[u] == images[v] or (images[u], images[v]) in dst.arrows
            for (u, v) in src.arrows
        )
        if ok:
            out.append(images)
    return sorted(out)


class TestInterval:
    def test_string_round_trip(self):
        j = Interval.from_string("><><")
        assert j.to_string() == "><><"
        assert j.n_arrows == 4

    def test_bad_literal(self):
        with pytest.raises(InputError):
            Interval.from_string(">x<")

    def test_standard_interval_word(self):
        assert standard_interval(4).word == (FWD, BWD, FWD, BWD)
        assert standard_interval(0).word == ()
        assert standard_interval(0, -1).word == ()
        assert standard_interval(3, -1).word == (BWD, FWD, BWD)

    def test_standard_digraph(self):
        g = standard_interval(4).to_digraph()
        assert g.arrows == frozenset({(0, 1), (2, 1), (2, 3), (4, 3)})

    def test_wedge(self):
        j = standard_interval(2)
        j2 = Interval.from_string("<")
        w = j.wedge(j2)
        assert w.n_arrows == 3
        assert w.word == j.word + j2.word
        assert w.to_digraph().arrows == frozenset({(0, 1), (2, 1), (3, 2)})


class TestTruncations:
    def test_r_is_unique_shrinking(self):
        r = truncation("r", 1)
        assert r.image_tuple() == (0, 1, 1)
        assert naive_shrinkings(standard_interval(2), standard_interval(1)) == [
            (0, 1, 1)
        ]

    def test_l_spot_values(self):
        l = truncation("l", 3)
        assert l.assignment[0] == 0
        for k in range(1, 5):
            assert l.assignment[k] == k - 1

    def test_l_signature_flips(self):
        l = truncation("l", 2)
        assert l.source == standard_interval(3, -1).to_digraph()
        assert l.target == standard_interval(2).to_digraph()

    def test_c2_is_composite(self):
        c2 = truncation("c2", 4)
        ll = truncation("c", 4).compose(truncation("c", 6, -1))
        assert c2.image_tuple() == ll.image_tuple()
        assert c2.source == standard_interval(8).to_digraph()

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_c2_is_the_central_clamp(self, n):
        # the assignment `nerve.comparison_map` reads for its 4-step jump
        c2 = truncation("c2", n).assignment
        assert c2 == {x: min(max(x - 2, 0), n) for x in range(n + 5)}

    def test_bad_index(self):
        with pytest.raises(BadIndex):
            truncation("r", 0)
        with pytest.raises(BadIndex):
            truncation("zig", 2)

    def test_truncations_are_shrinkings(self):
        for kind, n in (("r", 1), ("r", 3), ("l", 2), ("c", 2), ("c2", 1)):
            assert is_shrinking(truncation(kind, n))


class TestEnumerateShrinkings:
    def test_identity_only(self):
        shr = enumerate_shrinkings(standard_interval(1), standard_interval(1))
        assert len(shr) == 1
        assert shr[0].image_tuple() == (0, 1)

    def test_longer_target_empty(self):
        j = standard_interval(1)
        j2 = standard_interval(1).wedge(standard_interval(1))
        assert enumerate_shrinkings(j, j2) == []

    def test_cross_check_naive_filter(self):
        for j in all_intervals(4):
            for j2 in all_intervals(3):
                lattice = [s.image_tuple() for s in enumerate_shrinkings(j, j2)]
                assert sorted(lattice) == naive_shrinkings(j, j2)

    def test_composition_closed(self):
        j, j2, j3 = standard_interval(3), standard_interval(2), standard_interval(1)
        for s1 in enumerate_shrinkings(j, j2):
            for s2 in enumerate_shrinkings(j2, j3):
                assert is_shrinking(s2.compose(s1))


class TestCantor:
    def test_word_level_two(self):
        assert cantor_interval(2).word == (BWD, FWD, BWD)

    def test_word_level_three(self):
        # displayed orientation: 0->1<-2->3->4->5<-6->7
        assert cantor_interval(3).word == (FWD, BWD, FWD, FWD, FWD, BWD, FWD)

    def test_projection_composes(self):
        left = cantor_projection(3, 2).image_tuple()
        chained = cantor_projection(2, 1).compose(cantor_projection(3, 2))
        assert chained.image_tuple() == cantor_projection(3, 1).image_tuple()
        assert len(left) == 8

    def test_projection_is_shrinking(self):
        assert is_shrinking(cantor_projection(3, 2))
        assert is_shrinking(cantor_projection(4, 1))

    def test_bad_index(self):
        with pytest.raises(BadIndex):
            cantor_interval(0)
        with pytest.raises(BadIndex):
            cantor_projection(1, 2)


class TestTowers:
    def test_all_kinds_validate(self):
        for kind in ("st", "r", "l", "odd", "cantor"):
            tower = TowerSpec(kind)
            for stage in range(1, 5):
                t = tower.transition(stage)
                assert is_shrinking(t)

    def test_unknown_kind(self):
        with pytest.raises(BadIndex):
            TowerSpec("zag")

    def test_standard_tower_alternates(self):
        tower = TowerSpec("st")
        # transitions alternate r, l starting from stage 1 = r
        r1 = tower.transition(1)
        assert r1.image_tuple() == truncation("r", 1).image_tuple()
        l2 = tower.transition(2)
        assert l2.image_tuple() == truncation("l", 2).image_tuple()
        r3 = tower.transition(3)
        assert r3.image_tuple() == truncation("r", 3, -1).image_tuple()

    def test_standard_tower_signs(self):
        tower = TowerSpec("st")
        signs = [tower.interval(s) for s in range(1, 7)]
        assert [iv.word[0] for iv in signs] == [FWD, FWD, BWD, BWD, FWD, FWD]

    def test_odd_division_tower(self):
        tower = TowerSpec("odd")
        t = tower.transition(1)  # I_3 -> I_1, x -> x // 3
        assert t.image_tuple() == (0, 0, 0, 1)


class TestSpheres:
    def test_dimension_zero_two_points(self):
        s0 = sphere_digraph(standard_interval(1), 0)
        assert len(s0.ambient.vertices) == 2
        assert s0.part == (BASEPOINT,)
        assert not s0.ambient.arrows

    def test_one_arrow_interval_collapses(self):
        s1 = sphere_digraph(standard_interval(1), 1)
        assert len(s1.ambient.vertices) == 1
        assert not s1.ambient.arrows

    def test_two_arrow_interval(self):
        s1 = sphere_digraph(standard_interval(2), 1)
        assert len(s1.ambient.vertices) == 2
        assert s1.ambient.arrows == frozenset({(BASEPOINT, (1,))})

    def test_two_sphere_vertex_count(self):
        s2 = sphere_digraph(standard_interval(2), 2)
        # quotient oracle: 9 grid vertices, 8 boundary collapse to one
        assert len(s2.ambient.vertices) == 2
        assert s2.ambient.arrows == frozenset({(BASEPOINT, (1, 1))})
