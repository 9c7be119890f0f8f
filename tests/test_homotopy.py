import tracemalloc

import pytest

from dgh import digraph, homotopy
from dgh.digraph import (
    Digraph,
    DigraphMap,
    box_hom,
    box_product,
    enumerate_digraph_maps,
    one_step_pairs,
    pi0,
    point,
)
from dgh.errors import BudgetExceeded, NotInClosed, UnknownVertex
from dgh.homotopy import (
    DdrWitness,
    an_tower,
    homotopy_classes,
    loop_stage,
    loop_stage_pullback_check,
    path_stage,
    verify_ddr,
    verify_oddr,
)
from dgh.intervals import BASEPOINT, sphere_digraph, standard_interval
from dgh.nerve import nerve_functor_map
from dgh.homology import induced_homology_map

from conftest import (
    cycle,
    floyd_warshall,
    is_isomorphic,
    line,
    naive_components,
    naive_digraph_maps,
    naive_one_step,
    union_find_classes,
)


def oracle_classes(source, target, rel=(), target_part=None):
    """Independent: full product scan plus BFS over brute one-step edges."""
    rel_pos = [source.index(v) for v in rel]
    maps = []
    for images in naive_digraph_maps(source, target):
        if target_part is not None and any(
            images[p] not in target_part for p in rel_pos
        ):
            continue
        maps.append(images)
    edges = []
    for a in maps:
        for b in maps:
            if a == b:
                continue
            if any(a[p] != b[p] for p in rel_pos):
                continue
            if naive_one_step(source, target, a, b):
                edges.append((a, b))
    return maps, naive_components(maps, edges)


def naive_pairs(source, target, maps, rel_positions=()):
    """The pairs a != b with a one-step arrow maps[a] -> maps[b] that fixes
    the pinned positions, by `naive_one_step` on every ordered pair."""
    return [
        (a, b)
        for a, f in enumerate(maps)
        for b, g in enumerate(maps)
        if a != b
        and all(f[p] == g[p] for p in rel_positions)
        and naive_one_step(source, target, f, g)
    ]


class TestOneStep:
    def test_reflexive(self, c3):
        # the constant step is implicit: the box hom answers it as an arrow,
        # and one_step_pairs never lists it
        i1 = line(1)
        maps = enumerate_digraph_maps(i1, c3)
        hom = box_hom(i1, c3)
        assert all(hom.is_arrow(f, f) for f in maps)
        assert all(a != b for a, b in one_step_pairs(i1, c3, maps))
        assert naive_one_step(i1, c3, maps[0], maps[0])

    def test_constants_into_interval(self):
        # the constant maps at 0 and 1: one arrow, 0 -> 1, and no loop
        assert one_step_pairs(point(), line(1), [(0,), (1,)]) == [(0, 1)]

    def test_paths_into_cycle_match_brute_force(self, c3):
        i2 = line(2)
        maps = enumerate_digraph_maps(i2, c3)
        assert one_step_pairs(i2, c3, maps) == naive_pairs(i2, c3, maps)
        assert one_step_pairs(i2, c3, maps, (0, 2)) == naive_pairs(i2, c3, maps, (0, 2))

    def test_rotated_loops_match_brute_force(self, c3):
        # at stage 6 a single winding-one loop exists (all forward steps
        # forced), so the rotation pairs live at stage 8
        circle = sphere_digraph(standard_interval(8), 1)
        amb = circle.ambient
        maps = enumerate_digraph_maps(amb, c3, pinned={BASEPOINT: (0,)})
        winding_one = [t for t in maps if _winding(amb, t) == 1]
        assert len(winding_one) >= 2
        rel = (amb.index(BASEPOINT),)
        pairs = one_step_pairs(amb, c3, winding_one, rel)
        assert pairs and pairs == naive_pairs(amb, c3, winding_one, rel)


def _winding(sphere_ambient, images):
    lookup = dict(zip(sphere_ambient.vertices, images))
    m = 1 + max(v[0] for v in sphere_ambient.vertices if v != BASEPOINT)

    def value(x):
        return lookup[BASEPOINT] if x in (0, m) else lookup[(x,)]

    total = 0
    word_sign = lambda p: 1 if p % 2 == 0 else -1
    for p in range(m):
        a, b = value(p), value(p + 1)
        if a == b:
            continue
        total += word_sign(p)
    return total // 3


class TestHomotopyClasses:
    def test_point_source_counts_components(self, c3):
        classes = homotopy_classes(point(), c3)
        assert classes.n_classes == len(pi0(c3))
        two = Digraph(["a", "b"])
        assert homotopy_classes(point(), two).n_classes == 2

    def test_pointed_interval_into_cycle_oracle(self, c3):
        src = line(1)
        maps, expected = oracle_classes(src, c3, rel=(0, 1), target_part=(0,))
        classes = homotopy_classes(src, c3, rel_part=(0, 1), target_part=(0,))
        assert classes.n_classes == expected == 1

    def test_loops_on_cycle_oracle(self, c3):
        circle = sphere_digraph(standard_interval(8), 1)
        amb = circle.ambient
        maps, expected = oracle_classes(
            amb, c3, rel=(BASEPOINT,), target_part=(0,)
        )
        classes = homotopy_classes(
            amb, c3, rel_part=(BASEPOINT,), target_part=(0,)
        )
        assert classes.n_classes == expected == 3
        windings = {
            _winding(amb, classes.maps[k])
            for k in range(len(classes.maps))
        }
        assert windings == {-1, 0, 1}

    def test_budget(self, c3):
        with pytest.raises(BudgetExceeded):
            homotopy_classes(line(3), c3, budget=3)

    @pytest.mark.parametrize("rel_part", [(0,), ()])
    def test_unknown_target_part(self, c3, rel_part):
        with pytest.raises(UnknownVertex, match=r"^unknown vertex 'z'$"):
            homotopy_classes(line(1), c3, rel_part=rel_part, target_part=("z",))

    def test_relative_refines_absolute(self, c3):
        src = line(2)
        rel = homotopy_classes(src, c3, rel_part=(0,), target_part=(0,))
        absolute = homotopy_classes(src, c3)
        for x in range(len(rel.maps)):
            for y in range(len(rel.maps)):
                if rel.class_of[x] == rel.class_of[y]:
                    assert absolute.class_of_map(
                        rel.maps[x]
                    ) == absolute.class_of_map(rel.maps[y])

    def test_classes_match_union_find_on_tower_stages(self):
        # the 24 r-tower stages of C3 and C4 at n = 1, boundary pinned
        for g in (cycle(3), cycle(4)):
            stages = an_tower(g, 0, 1, "r", 12).stages
            assert len(stages) == 12
            for classes in stages:
                assert classes.class_of == union_find_classes(
                    classes.source, g, classes.maps, classes.rel_positions
                )

    def test_discrete_maps_are_their_own_classes(self):
        classes = homotopy_classes(Digraph(range(5)), Digraph(range(3)))
        assert classes.class_of == list(range(243))
        assert classes.class_of == union_find_classes(
            classes.source, classes.target, classes.maps
        )

    def test_classes_list_no_pairs_until_edges_is_read(self, c3, monkeypatch):
        real = digraph.one_step_pairs
        calls = []

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(digraph, "one_step_pairs", spy)
        monkeypatch.setattr(homotopy, "one_step_pairs", spy)
        src = line(3)
        classes = homotopy_classes(src, c3, rel_part=(0,), target_part=(0,))
        assert calls == []
        assert classes.edges == real(src, c3, classes.maps, (0,))
        assert classes.edges  # read again from the first read
        assert len(calls) == 1

    def test_many_classes_peak_memory(self):
        # 16,384 classes of one map each: no set is kept per class
        tracemalloc.start()
        try:
            classes = homotopy_classes(Digraph(range(7)), Digraph(range(4)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert classes.n_classes == 16384
        assert peak < 8_000_000


class TestAnTower:
    def test_dimension_zero_counts_components(self):
        g = Digraph(["a", "b", "c"], [("a", "b")])
        tower = an_tower(g, "a", 0, "r", 3)
        assert tower.class_counts() == [2, 2, 2]

    def test_unknown_basepoint(self, c3):
        with pytest.raises(UnknownVertex, match=r"^unknown vertex 'z'$"):
            an_tower(c3, "z", 0, "r", 2)

    def test_point_target_trivial(self):
        for n in (0, 1, 2):
            tower = an_tower(point(), "*", n, "r", 2)
            assert tower.class_counts() == [1, 1]

    def test_cycle_matches_winding_oracle(self, c3):
        tower = an_tower(c3, 0, 1, "r", 8)
        oracle = [
            (s // 2 + s % 2) // 3 + (s // 2) // 3 + 1 for s in range(1, 9)
        ]
        assert tower.class_counts() == oracle == [1, 1, 1, 1, 2, 3, 3, 3]

    def test_cycle_transitions_injective_after_windings_appear(self, c3):
        tower = an_tower(c3, 0, 1, "r", 8)
        first_full = tower.class_counts().index(3) + 1  # both windings present
        for s in range(first_full, 8):
            tr = tower.transitions[s - 1]
            assert len(set(tr)) == len(tr)

    def test_stable_window(self, c3):
        tower = an_tower(c3, 0, 1, "r", 8)
        assert tower.stabilization == (6, 8)

    def test_other_tower_kinds_run(self, c3):
        # transitions validate internally (class representative independence)
        st = an_tower(c3, 0, 1, "st", 5)
        assert st.class_counts()[0] == 1
        cantor = an_tower(c3, 0, 1, "cantor", 3)
        assert len(cantor.class_counts()) == 3

    def test_dimension_two_on_cycle(self, c3):
        # 3-cycles carry nothing in dimension two at small stages
        tower = an_tower(c3, 0, 2, "r", 2)
        assert tower.class_counts() == [1, 1]


class TestPathLoop:
    def test_stage_zero_is_identity(self, c3):
        paths, p0, p1 = path_stage(c3, 0)
        assert is_isomorphic(paths, c3)
        assert p0.image_tuple() == p1.image_tuple()

    def test_loop_count_oracle(self, c3):
        loops = loop_stage(c3, 0, 2)
        expected = sum(
            1
            for images in naive_digraph_maps(standard_interval(2).to_digraph(), c3)
            if images[0] == 0 and images[2] == 0
        )
        assert len(loops.vertices) == expected == 2

    def test_loop_stage_unknown_base(self, c3):
        with pytest.raises(UnknownVertex, match=r"^unknown vertex 9$"):
            loop_stage(c3, 9, 2)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_pullback_identity(self, c3, m):
        assert loop_stage_pullback_check(c3, 0, m)["pass"]

    def test_pullback_identity_corpus(self):
        fan = Digraph(["a", "b", "c"], [("b", "a"), ("b", "c")])
        for m in (1, 2, 3):
            assert loop_stage_pullback_check(fan, "b", m)["pass"]


class TestDdr:
    def test_square_example(self):
        sq = box_product(line(1), line(1))
        eta = {(0, 0): (0, 0), (0, 1): (0, 0), (1, 0): (0, 0), (1, 1): (0, 1)}
        rep = verify_ddr(DdrWitness(sq, [(0, 0)], eta))
        assert rep["pass"]

    def test_whole_part_identity(self, c3):
        rep = verify_ddr(
            DdrWitness(c3, c3.vertices, {v: v for v in c3.vertices})
        )
        assert rep["pass"]

    def test_non_in_closed_part_rejected(self):
        # the endpoint of an arrow is not an in-closed part
        with pytest.raises(NotInClosed):
            verify_ddr(DdrWitness(line(1), [1], {0: 0, 1: 1}))

    def test_identity_eta_fails_distance(self):
        rep = verify_ddr(DdrWitness(line(1), [0], {0: 0, 1: 1}))
        assert not rep["pass"]
        assert not rep["conditions"]["distance-step"]["pass"]
        assert not rep["conditions"]["iterate-reformulation"]["pass"]
        assert rep["conditions"]["reformulation-agrees"]["pass"]

    @pytest.mark.parametrize(
        "g",
        [
            box_product(line(1), line(2)),
            Digraph(range(5), [(0, 2), (1, 2), (1, 3), (2, 4), (3, 4)]),
        ],
        ids=["box-1x2", "two-sources"],
    )
    def test_iterate_witness_is_the_first_failing_pair(self, g):
        """On every in-closed part and every endomap: the iterate verdict
        and witness against Floyd-Warshall distances, the witness being the
        first failing (v, h) with v in vertex order, then h in part order."""
        dist = floyd_warshall(g)

        def expected(part, eta):
            landing = {}
            for v in g.vertices:
                x, n = v, 0
                while x not in part:
                    x, n = eta[x], n + 1
                    if n > len(g.vertices):
                        return repr(v)
                landing[v] = (x, n)
            for v in g.vertices:
                top, n = landing[v]
                for h in part:
                    if v not in part and dist[h, top] + n != dist[h, v]:
                        return (repr(h), repr(v))
            return None

        verts = list(g.vertices)
        parts = [
            [v for i, v in enumerate(verts) if bits >> i & 1]
            for bits in range(1, 1 << len(verts))
        ]
        parts = [p for p in parts if all(u in p for u, v in g.arrows if v in p)]
        checked = 0
        for part in parts:
            for images in enumerate_digraph_maps(g, g):
                eta = dict(zip(verts, images))
                cond = verify_ddr(DdrWitness(g, part, eta))["conditions"]
                want = expected(part, eta)
                assert cond["iterate-reformulation"] == (
                    {"pass": True} if want is None else {"pass": False, "witness": want}
                )
                checked += isinstance(want, tuple)
        assert checked

    def test_cylinder_oddr(self, c3):
        cyl = box_product(c3, line(1))
        eta = {v: (v[0], 0) for v in cyl.vertices}
        rep = verify_oddr(cyl, [(v, 0) for v in c3.vertices], eta)
        assert rep["pass"]

    def test_oddr_rejects_non_in_closed(self):
        with pytest.raises(NotInClosed):
            verify_oddr(line(1), [1], {0: 0, 1: 1})

    def test_ddr_induces_homology_isos(self):
        # evidence that a verified retract is invisible to nerve homology
        sq = box_product(line(1), line(1))
        part = [(0, 0)]
        incl = DigraphMap(sq.induced(part), sq, {(0, 0): (0, 0)})
        cm = nerve_functor_map(incl, 1, 2)
        for deg in (0, 1):
            assert induced_homology_map(cm, deg)["iso"]
