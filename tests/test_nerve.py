import json
import random
import tracemalloc
from itertools import accumulate, product

import pytest
from hypothesis import given, settings, strategies as st

from dgh import nerve
from dgh.config import DEFAULT_MAX_CUBES
from dgh.corpus import fan_out
from dgh.digraph import Digraph, DigraphMap, box_product, point
from dgh.errors import BadIndex, BudgetExceeded, ParityError
from dgh.intervals import standard_interval
from dgh.nerve import (
    boundary_vertices,
    check_rho_properties,
    comparison_map,
    cube_realization,
    horn_inclusion,
    horn_vertices,
    kan_filler_phi,
    kan_filler_report,
    nerve_functor_map,
    nerve_levels,
    rho,
    _drop,
    _grid,
    _insert,
    _merge,
)

from conftest import (
    cycle,
    degenerate_cube_test,
    is_isomorphic,
    line,
    naive_digraph_maps,
    naive_identity_violations,
    naive_naturality_violations,
    rho_bar,
)


class TestRealizations:
    def test_square(self):
        sq = cube_realization(standard_interval(1), 2)
        assert is_isomorphic(sq, box_product(line(1), line(1)))

    def test_grid_vertex_count(self):
        assert len(cube_realization(standard_interval(4), 2).vertices) == 25

    def test_arrow_count_matches_box_product(self):
        cube = cube_realization(standard_interval(2), 2)
        prod = box_product(line(2), line(2))
        assert len(cube.arrows) == len(prod.arrows)

    def test_zero_power_point(self):
        pt = cube_realization(standard_interval(3), 0)
        assert pt.vertices == ((),)


class TestHorns:
    def test_dimension_one_single_endpoint(self):
        horn, cube = horn_inclusion(2, 1, 1, 0)
        assert horn.vertices == ((2,),)
        assert cube.vertices == ((0,), (1,), (2,))
        horn, _ = horn_inclusion(2, 1, 1, 1)
        assert horn.vertices == ((0,),)

    @pytest.mark.parametrize("side", [2, 4])
    @pytest.mark.parametrize("n", [2, 3])
    def test_face_union_oracle(self, side, n):
        for i in range(1, n + 1):
            for eps in (0, 1):
                union = set()
                for j in range(1, n + 1):
                    for delta in (0, 1):
                        if (j, delta) == (i, eps):
                            continue
                        union.update(
                            pt
                            for pt in product(range(side + 1), repeat=n)
                            if pt[j - 1] == delta * side
                        )
                assert set(horn_vertices(side, n, i, eps)) == union

    def test_horn_strictly_inside_boundary(self):
        horn = set(horn_vertices(4, 2, 1, 0))
        boundary = set(boundary_vertices(4, 2))
        assert horn < boundary

    def test_bad_index(self):
        with pytest.raises(BadIndex):
            horn_inclusion(2, 2, 3, 0)
        with pytest.raises(BadIndex):
            horn_inclusion(2, 0, 1, 0)


class TestNerveLevels:
    def test_point_nerve(self):
        x = nerve_levels(point(), 1, 1, 3)
        assert [len(level) for level in x.cubes] == [1, 1, 1, 1]
        assert x.counts()["nondegenerate"] == [1, 0, 0, 0]

    def test_cycle_level_one(self, c3):
        x = nerve_levels(c3, 1, 1, 2)
        assert len(x.cubes[1]) == 6  # 3 degenerate + 3 arrows

    def test_cycle_level_two_nondegenerate_staircases(self, c3):
        # exhaustive grid search oracle: all maps of the unit square
        grid = cube_realization(standard_interval(1), 2)
        all_maps = naive_digraph_maps(grid, c3)
        nondeg = []
        for images in all_maps:
            degenerate, _ = degenerate_cube_test(images, 1, 2)
            if not degenerate:
                nondeg.append(images)
        x = nerve_levels(c3, 1, 1, 2)
        assert len(x.cubes[2]) == len(all_maps) == 18
        assert x.counts()["nondegenerate"][2] == len(nondeg) == 3
        # the nondegenerate squares are the one-step staircases
        for images in nondeg:
            a = images[0]
            assert images == (a, (a + 1) % 3, (a + 1) % 3, (a + 2) % 3)

    def test_identity_validator_accepts_corpus(self, c3):
        for g in (point(), line(2), c3):
            for m in (1, 2):
                x = nerve_levels(g, m, 1, 2)
                assert x.identity_violations() == []

    def test_budget(self, c3):
        with pytest.raises(BudgetExceeded):
            nerve_levels(c3, 1, 1, 2, budget=10)

    # N_2(C3) holds 3 + 12 + 246 cubes up to level 2, and the box hom on
    # the 246 level-2 cubes has 9,744 arrows besides the diagonal, so level
    # 3 holds at least 246 + 9,744 cubes; it holds 426,342
    LEVELS_0_TO_2 = 3 + 12 + 246
    ARROW_BOUND = 246 + 9744

    def spy(self, monkeypatch, name, owner=nerve):
        calls = []
        original = getattr(owner, name)

        def spied(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spied)
        return calls

    def test_arrow_bound_trips_before_the_walk_count(self, c3, monkeypatch):
        counted = self.spy(monkeypatch, "_rank_tables")
        built = self.spy(monkeypatch, "_walk_columns")
        budget = self.LEVELS_0_TO_2 + self.ARROW_BOUND - 1
        with pytest.raises(BudgetExceeded, match=f"nerve exceeds {budget} total cubes at level 3$"):
            nerve_levels(c3, 2, 1, 3, budget=budget)
        assert counted == ["_rank_tables"] * 2  # levels 1 and 2 only
        assert built == ["_walk_columns"] * 2

    def test_walk_count_trips_before_the_level_is_built(self, c3, monkeypatch):
        # the walks are counted from the rank tables' completions
        counted = self.spy(monkeypatch, "_rank_tables")
        built = self.spy(monkeypatch, "_walk_columns")
        for budget in (
            self.LEVELS_0_TO_2 + self.ARROW_BOUND,
            self.LEVELS_0_TO_2 + 426342 - 1,
        ):
            counted.clear()
            built.clear()
            with pytest.raises(BudgetExceeded, match=f"{budget} total cubes at level 3$"):
                nerve_levels(c3, 2, 1, 3, budget=budget)
            assert len(counted) == 3
            assert len(built) == 2
        x = nerve_levels(c3, 2, 1, 3, budget=self.LEVELS_0_TO_2 + 426342)
        assert x.counts()["cubes"] == [3, 12, 246, 426342]

    @pytest.mark.parametrize("m", [1, 2])
    def test_blocks_are_made_per_step_not_per_cube(self, c3, monkeypatch, m):
        # the per-cube blocks of a step are made once per level and the
        # offsets packed into blocks once per table or heads search, never
        # once per cube: as often for 3 target vertices as for 150
        made = self.spy(monkeypatch, "_step_arrows")
        cut = self.spy(monkeypatch, "_packed_blocks")
        runs = []
        for g in (c3, cycle(150)):
            made.clear()
            cut.clear()
            nerve_levels(g, m, 1, 2)
            runs.append((len(made), len(cut)))
        assert runs[0] == runs[1]
        # m steps per level over levels 1 and 2; the heads search on level
        # 1 packs m, and at m = 2 each level-2 face (2, eps) and the
        # degeneracy s_2, walk maps of index 1 one level down, pack their
        # second step
        assert runs[0] == {1: (2, 1), 2: (4, 5)}[m]

    def test_budget_trip_at_level_four_stays_small(self, c3):
        # the level-3 columns of N_2(C3) are built, then the level-3 heads
        # pass the arrow bound after a few of the 426,342 cubes
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match="^nerve exceeds 1000000 total cubes at level 4$"):
                nerve_levels(c3, 2, 1, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 60 * 2**20

    def test_zero_step_levels_repeat_level_zero(self, c3, monkeypatch):
        searched = self.spy(monkeypatch, "_heads", nerve.TruncatedCubicalSet)
        x = nerve_levels(c3, 0, 1, 3)
        assert [list(level) for level in x.cubes] == [[(0,), (1,), (2,)]] * 4
        assert searched == []
        with pytest.raises(BudgetExceeded, match="at level 2$"):
            nerve_levels(c3, 0, 1, 3, budget=8)

    # every word shape: m = 0..3 steps, forward or backward, on digraphs
    # with cycles, sources, sinks and a single vertex
    BUDGET_SHAPES = {
        "c3": cycle(3),
        "fan": fan_out(),
        "i1": line(1),
        "point": point(),
        "zigzag4": Digraph(range(4), [(0, 1), (2, 1), (2, 3), (0, 3)]),
    }

    @pytest.mark.parametrize("name", sorted(BUDGET_SHAPES))
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("m", range(4))
    def test_budget_is_exact_at_every_level(self, m, sign, name):
        # T_k cubes in levels 0..k: a budget of T_k - 1 trips at level k,
        # and a budget of T_2 builds the whole truncation
        g = self.BUDGET_SHAPES[name]
        counts = nerve_levels(g, m, sign, 2).counts()["cubes"]
        for k, total in enumerate(accumulate(counts)):
            short = total - 1
            with pytest.raises(BudgetExceeded, match=f"^nerve exceeds {short} total cubes at level {k}$"):
                nerve_levels(g, m, sign, 2, budget=short)
        assert nerve_levels(g, m, sign, 2, budget=sum(counts)).counts()["cubes"] == counts

    def test_opposite_orientation_duality(self, c3):
        # maps from the reversed interval power match maps into the
        # reversed digraph, level by level
        for g in (c3, line(2)):
            left = nerve_levels(g, 2, -1, 2)
            right = nerve_levels(g.opposite(), 2, 1, 2)
            assert left.counts() == right.counts()

    def test_table_images_match_fiber_test(self, c3):
        # the two degeneracy detectors must agree cube by cube
        x = nerve_levels(c3, 1, 1, 2)
        for n in range(x.top_dim + 1):
            for k, images in enumerate(x.cubes[n]):
                degenerate, _ = degenerate_cube_test(images, x.m, n)
                assert degenerate == (not x.nondegenerate[n][k])


class TestValidatorTeeth:
    def test_corrupted_face_table_detected(self, c3):
        x = nerve_levels(c3, 1, 1, 2)
        table = x.faces[1][(1, 0)]
        original = table[0]
        table[0] = (original + 1) % len(x.cubes[0])
        assert x.identity_violations()  # face-degeneracy identities break
        table[0] = original
        assert not x.identity_violations()

    def test_corrupted_level_map_rejected(self, c3):
        from dgh.errors import InvalidCubicalSet
        from dgh.nerve import CubicalMap

        x = nerve_levels(c3, 1, 1, 2)
        levels = [list(range(len(level))) for level in x.cubes]
        levels[1][0], levels[1][1] = levels[1][1], levels[1][0]
        with pytest.raises(InvalidCubicalSet):
            CubicalMap(x, x, levels)

    def test_identity_list_matches_per_cube_loop(self, c3):
        # corrupt a level-3 face table and a level-2 degeneracy table of
        # N_1(C3), K=3, at several cubes; every identity family is touched
        x = nerve_levels(c3, 1, 1, 3)
        assert x.identity_violations() == naive_identity_violations(x) == []
        face = x.faces[3][(2, 1)]
        for k in (0, 7, 50, len(face) - 1):
            face[k] = (face[k] + 1) % len(x.cubes[2])
        degen = x.degens[2][1]
        for k in (1, 4):
            degen[k] = (degen[k] + 5) % len(x.cubes[2])
        problems = x.identity_violations()
        assert len(problems) > 10
        assert problems == naive_identity_violations(x)
        families = {p.split(":")[0] for p in problems}
        assert families == {
            "face-face",
            "face-degeneracy",
            "degeneracy-degeneracy",
            "face-connection",
            "connection-degeneracy",
        }

    def test_naturality_list_matches_per_cube_loop(self, c3):
        cm = nerve_functor_map(DigraphMap.identity(c3), 1, 3)
        assert cm.naturality_violations() == naive_naturality_violations(cm) == []
        level = cm.levels[2]
        level[3], level[9] = level[9], level[3]
        problems = cm.naturality_violations()
        assert problems
        assert problems == naive_naturality_violations(cm)

    def test_identity_list_form_matches_per_cube_loop(self, monkeypatch):
        # N_1 of the 150-cycle, K=2: the level-2 faces pass through the 300
        # cubes of level 1, more than a byte indexes, so every identity is
        # composed as lists
        x = nerve_levels(cycle(150), 1, 1, 2)
        assert len(x.cubes[1]) == 300
        assert x.identity_violations() == naive_identity_violations(x) == []
        face = x.faces[2][(2, 1)]
        for k in (0, 7, 50, len(face) - 1):
            face[k] = (face[k] + 1) % len(x.cubes[1])
        degen = x.degens[2][1]
        for k in (1, 4):
            degen[k] = (degen[k] + 5) % len(x.cubes[2])
        translate = nerve._translated
        sides = []

        def spy(*args):
            sides.append(translate(*args))
            return sides[-1]

        monkeypatch.setattr(nerve, "_translated", spy)
        problems = x.identity_violations()
        assert all(side is None for side in sides)
        assert len(problems) > 10
        assert problems == naive_identity_violations(x)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_identity_list_matches_per_cube_loop_on_random_entries(self, c3, data):
        # every level of N_1(C3) at K=3 and of N_2(C3) at K=2 has at most 256
        # cubes, so the byte form runs wherever the corrupted entries allow it
        m, K = data.draw(st.sampled_from([(1, 3), (2, 2)]))
        x = nerve_levels(c3, m, 1, K)
        tables = [(t, len(x.cubes[n - 1])) for n in range(1, K + 1) for t in x.faces[n].values()]
        for family in (x.degens, x.connections):
            tables += [(t, len(x.cubes[n])) for n in range(1, K + 1) for t in family[n].values()]
        for _ in range(data.draw(st.integers(1, 4))):
            table, size = data.draw(st.sampled_from(tables))
            k = data.draw(st.integers(0, len(table) - 1))
            table[k] = data.draw(st.integers(0, size - 1))
        assert x.identity_violations() == naive_identity_violations(x)

    @pytest.mark.parametrize("entry", ["len", 255, 256, -1, -400])
    def test_out_of_range_face_entry_matches_per_cube_loop(self, c3, entry):
        # a level-3 face entry past level 2, past a byte or negative is a
        # violation at its cube that names the table, as in the per-cube loop
        x = nerve_levels(c3, 1, 1, 3)
        size = len(x.cubes[2])
        value = size if entry == "len" else entry
        x.faces[3][(2, 1)][7] = value
        problems = x.identity_violations()
        assert problems == naive_identity_violations(x)
        note = f", faces[3][(2, 1)][7] = {value} outside 0..{size - 1}"
        assert [p for p in problems if note in p] == [
            p for p in problems if p.startswith("face-face: (3,") and p.endswith(f", 7){note}")
        ]
        assert any(note in p for p in problems)

    @pytest.mark.parametrize("entry", ["len", 255, 256, -1, -400])
    def test_out_of_range_level_map_entry_matches_per_cube_loop(self, c3, entry):
        cm = nerve_functor_map(DigraphMap.identity(c3), 1, 3)
        size = len(cm.levels[2])
        value = size if entry == "len" else entry
        cm.levels[2][3] = value
        problems = cm.naturality_violations()
        assert problems == naive_naturality_violations(cm)
        # levels[2] is read at cube 3 by the faces of level 2 and by the
        # degeneracies and connections of level 3
        note = f", levels[2][3] = {value} outside 0..{size - 1}"
        read = {(p.split()[0], p.split(" at level ")[1][0]) for p in problems if note in p}
        assert read == {("face", "2"), ("degeneracy", "3"), ("connection", "3")}

    def test_out_of_range_entry_fails_dgh_nerve(self, tmp_path, monkeypatch, capsys):
        from dgh import cli

        build = nerve.TruncatedCubicalSet._build_tables

        def corrupted(x):
            build(x)
            x.faces[2][(2, 1)][5] = -1

        monkeypatch.setattr(nerve.TruncatedCubicalSet, "_build_tables", corrupted)
        path = tmp_path / "c3.json"
        path.write_text(json.dumps({"vertices": [0, 1, 2], "arrows": [[0, 1], [1, 2], [2, 0]]}))
        note = ", faces[2][(2, 1)][5] = -1 outside 0..5"
        assert cli.main(["nerve", str(path), "--m", "1", "--maxdim", "2"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is False
        assert any(note in p for p in report["identity_violations"])
        # homology validates the identities first, and stops at the first
        assert cli.main(["homology", str(path), "--nerve-m", "1", "--maxdim", "2"]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["kind"] == "internal" and error["error"].endswith(note)

    def test_missing_cube_is_invalid(self, c3):
        # N_1(C3) without the square (0, 0, 1, 1): the walk from the
        # constant 1-cube at 0 to the one at 1 is taken out of the level-2
        # adjacency, so level 2 is built without that cube.  That square is
        # the degeneracy s_2 of the arrow 0 -> 1, which then leaves level 2.
        from dgh.errors import InvalidCubicalSet
        from dgh.nerve import TruncatedCubicalSet

        x = nerve_levels(c3, 1, 1, 2)
        edges = list(x.cubes[1])
        steps = [[list(hs) for hs in heads] for heads in x.steps[2]]
        steps[0][edges.index((0, 0))].remove(edges.index((1, 1)))
        y = TruncatedCubicalSet(c3, 1, 1)
        y._add_level(x.steps[1], DEFAULT_MAX_CUBES)
        y._add_level(steps, DEFAULT_MAX_CUBES)
        assert set(x.cubes[2]) - set(y.cubes[2]) == {(0, 0, 1, 1)}
        with pytest.raises(InvalidCubicalSet, match="left the enumerated level 2"):
            y._build_tables()


class TestIdentitySchema:
    def test_cocubical_identities_pointwise(self):
        # soundness of the validator's identity list against the realized
        # coordinate maps themselves
        m = 2
        for n in (1, 2, 3):
            small = _grid(m, n - 1)
            big = _grid(m, n)
            # face-face
            for pt in _grid(m, n - 2) if n >= 2 else []:
                for j in range(1, n + 1):
                    for i in range(j, n):
                        for e in (0, 1):
                            for e2 in (0, 1):
                                left = _insert(_insert(pt, i, e * m), j, e2 * m)
                                right = _insert(_insert(pt, j, e2 * m), i + 1, e * m)
                                assert left == right
            # face-degeneracy
            for pt in small:
                for j in range(1, n + 1):
                    for i in range(1, n + 1):
                        for e in (0, 1):
                            left = _drop(_insert(pt, i, e * m), j)
                            if j == i:
                                assert left == pt
                            elif j < i:
                                assert left == _insert(_drop(pt, j), i - 1, e * m)
                            else:
                                assert left == _insert(_drop(pt, j - 1), i, e * m)
            # face-connection
            for pt in big:
                for j in range(1, n):
                    for i in range(1, n + 1):
                        for e in (0, 1):
                            for e2 in (0, 1):
                                left = _merge(_insert(pt, i, e * m), j, e2)
                                if j < i - 1:
                                    right = _insert(_merge(pt, j, e2), i - 1, e * m)
                                elif j > i:
                                    right = _insert(_merge(pt, j - 1, e2), i, e * m)
                                elif e == e2:
                                    right = pt
                                else:
                                    right = _insert(_drop(pt, j), j, e * m)
                                assert left == right


class TestNerveFunctorMap:
    def test_identity(self, c3):
        cm = nerve_functor_map(DigraphMap.identity(c3), 1, 2)
        for level in cm.levels:
            assert level == list(range(len(level)))

    def test_inclusion_injective(self, o_digraph, boundary44):
        incl = DigraphMap(
            boundary44, o_digraph, {v: v for v in boundary44.vertices}
        )
        cm = nerve_functor_map(incl, 1, 2)
        assert cm.is_injective()

    def test_functoriality_composite(self, c3):
        f = DigraphMap(line(1), c3, {0: 0, 1: 1})
        g = DigraphMap(c3, c3, {0: 1, 1: 2, 2: 0})
        cf = nerve_functor_map(f, 1, 2)
        cg = nerve_functor_map(g, 1, 2)
        cgf = nerve_functor_map(g.compose(f), 1, 2)
        for n in range(3):
            assert [cg.levels[n][k] for k in cf.levels[n]] == cgf.levels[n]

    def test_four_byte_lanes_on_level_three(self, c3):
        # the 426,342 level-3 cubes of N_2(C3) are ranked in 4-byte lanes,
        # the only lanes of that width a nerve test reaches
        assert nerve._lane(426342).size == 4
        cm = nerve_functor_map(DigraphMap.identity(c3), 2, 3)
        for level in cm.levels:
            assert level == list(range(len(level)))
        rotation = DigraphMap(c3, c3, {0: 1, 1: 2, 2: 0})
        cm = nerve_functor_map(rotation, 2, 3)
        source, target, level = cm.source.cubes[3], cm.target.cubes[3], cm.levels[3]
        for k in random.Random(3).sample(range(len(source)), 200):
            assert target[level[k]] == tuple((v + 1) % 3 for v in source[k])


class TestComparisonMaps:
    def test_level_zero_bijection(self, c3):
        cm = comparison_map("r", c3, 1, 2)
        assert sorted(cm.levels[0]) == list(range(len(c3.vertices)))

    def test_injective_all_kinds(self, c3):
        for kind in ("r", "l"):
            assert comparison_map(kind, c3, 1, 2).is_injective()
        assert comparison_map("c2", point(), 1, 2).is_injective()

    def test_c2_sign_and_step(self):
        cm = comparison_map("c2", point(), 1, 1)
        assert cm.target.m == 5
        assert cm.target.sign == 1


class TestKanFiller:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("eps", [0, 1])
    def test_contract_m1(self, n, eps):
        for i in range(1, n + 1):
            rep = kan_filler_report(1, n, i, eps)
            assert rep["pass"], rep

    def test_exhaustive_m1_n2_values(self):
        # direct evaluation over the 7x7 grid for one instance
        phi = kan_filler_phi(1, 2, 1, 0)
        horn = set(horn_vertices(2, 2, 1, 0))
        central = {x: min(max(x - 2, 0), 2) for x in range(7)}
        for v in product(range(7), repeat=2):
            img = phi.assignment[v]
            assert img in horn
            assert img[1] == central[v[1]]
        for v in horn_vertices(6, 2, 1, 0):
            assert phi.assignment[v] == tuple(central[c] for c in v)

    def test_m2(self):
        rep = kan_filler_report(2, 2, 2, 1)
        assert rep["pass"]

    def test_bad_index(self):
        with pytest.raises(BadIndex):
            kan_filler_phi(1, 0, 1, 0)


class TestRho:
    def test_parity_error(self):
        with pytest.raises(ParityError):
            rho(3, 2, 0)
        with pytest.raises(BadIndex):
            rho(0, 2, 0)

    def test_displayed_values(self):
        # the 5x3 cylinder onto the 5-interval, read row by row
        r = rho(2, 1, 0)
        rows = {
            0: [0, 1, 2, 3, 4],
            1: [0, 1, 2, 3, 3],
            2: [0, 1, 2, 2, 2],
        }
        for v2, expected in rows.items():
            got = [r.assignment[(v1, v2)][0] for v1 in range(5)]
            assert got == expected

    def test_bar_end_faces(self):
        # bottom end restores the identity block, top end caps everything
        for n, j in ((2, 0), (2, 1), (3, 1)):
            bar = rho_bar(2, n, j)
            for v in product(range(5), repeat=n):
                bottom = bar.assignment[v + (0,)]
                assert bottom == v[: j + 1] + tuple(min(c, 2) for c in v[j + 1 :])
                top = bar.assignment[v + (4,)]
                assert top == v[:j] + tuple(min(c, 2) for c in v[j:])

    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_properties(self, n, m):
        rep = check_rho_properties(n, m)
        assert rep["pass"], rep

    def test_vacuous_cases_reported_skipped(self):
        rep = check_rho_properties(2, 2)
        skipped = [
            c
            for c in rep["checks"]
            if isinstance(c["status"], str) and c["status"].startswith("skipped")
        ]
        assert skipped  # j = 0 has no inside-large-block faces, j = n-1 none inside small

    def test_program_defect_propagates(self, monkeypatch):
        # only an InputError from the construction is a failed check
        def defective(*args):
            raise TypeError("defect")

        monkeypatch.setattr(nerve, "rho", defective)
        with pytest.raises(TypeError, match="defect"):
            check_rho_properties(2, 2)


class TestDegenerateCubeTest:
    def test_sigma_image(self, c3):
        # constant extension of a 1-cube along the first axis
        edge = (0, 1)  # a 1-cube of the 1-nerve as its image tuple
        square = (0, 1, 0, 1)  # f(x, y) = edge[y]
        degenerate, witness = degenerate_cube_test(square, 1, 2)
        assert degenerate and witness == ("sigma", 1)

    def test_gamma_image(self):
        square = (0, 1, 1, 1)  # f(x, y) = edge[max(x, y)]
        degenerate, witness = degenerate_cube_test(square, 1, 2)
        assert degenerate and witness[0] == "gamma"

    def test_unit_square_nondegenerate_count(self):
        sq = box_product(line(1), line(1))
        x = nerve_levels(sq, 1, 1, 2)
        # hand oracle: the identity square, its transpose, two staircases
        assert x.counts()["nondegenerate"][2] == 4
