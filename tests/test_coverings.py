import pytest
from hypothesis import given, settings, strategies as st

from dgh import coverings, digraph
from dgh.digraph import (
    Digraph,
    DigraphMap,
    box_product,
    count_digraph_maps,
    disjoint_union,
    distance,
    distances_from,
    pi0,
    power_digraph,
)
from dgh.config import MAX_HORN_BASE_MAPS
from dgh.errors import BadIndex, BudgetExceeded, UnknownVertex
from dgh.coverings import (
    _squares_by_enumeration,
    check_lifting_hypotheses,
    check_lifting_hypotheses_dual,
    check_two_covering_filtration,
    check_unique_lifting,
    check_unique_lifting_all_horns,
    covering_witness,
    is_l_covering,
    is_one_covering,
)
from dgh.nerve import horn_inclusion

from conftest import cycle, hypothesis_two_grade, line, spread_lifting, walk_pair_l_covering


@pytest.fixture(scope="module")
def fold():
    c3 = cycle(3)
    c6 = cycle(6)
    return DigraphMap(c6, c3, {i: i % 3 for i in range(6)})


@pytest.fixture(scope="module")
def square_cover():
    # the square 0 -> 1 -> 3, 0 -> 2 -> 3 and its connected double cover:
    # a 1-covering through which the square does not close up
    base = Digraph(range(4), [(0, 1), (1, 3), (0, 2), (2, 3)])
    cover = Digraph(
        [(v, s) for s in (0, 1) for v in range(4)],
        [((u, s), (v, s)) for u, v in ((0, 1), (1, 3), (0, 2)) for s in (0, 1)]
        + [((2, s), (3, 1 - s)) for s in (0, 1)],
    )
    return DigraphMap(cover, base, {v: v[0] for v in cover.vertices})


@pytest.fixture(scope="module")
def non_covering():
    # the i3-c3 golden map: the interval 0->1<-2->3 sent to 0, 1, 1, 2
    i3 = Digraph(range(4), [(0, 1), (2, 1), (2, 3)])
    return DigraphMap(i3, cycle(3), {0: 0, 1: 1, 2: 1, 3: 2})


class TestOneCovering:
    def test_identity(self, c3):
        assert is_one_covering(DigraphMap.identity(c3))

    def test_six_to_three(self, fold):
        assert is_one_covering(fold)

    def test_disjoint_fold(self, c3):
        two = disjoint_union(c3, c3)
        p = DigraphMap(two, c3, {(i, v): v for i in (0, 1) for v in range(3)})
        assert is_one_covering(p)

    def test_non_covering_with_witness(self, c3):
        p = DigraphMap(line(1), c3, {0: 0, 1: 1})
        assert not is_one_covering(p)
        assert covering_witness(p) == {
            "vertex": 0, "edge": (2, 0), "endpoint": 1, "lifts": 0,
        }
        assert covering_witness(DigraphMap.identity(c3)) is None


class TestLCovering:
    def test_two_covering(self, fold):
        rep = is_l_covering(fold, 2)
        assert rep["pass"]
        assert all(rep["conditions"].values())

    def test_fails_at_three(self, fold):
        rep = is_l_covering(fold, 3)
        assert not rep["is_l_covering"]
        assert rep["conditions_agree"]
        assert not any(rep["conditions"].values())

    def test_identity_any_l(self, c3):
        for l in (1, 2, 3, 4):
            assert is_l_covering(DigraphMap.identity(c3), l)["pass"]

    def test_bad_index(self, fold):
        with pytest.raises(BadIndex):
            is_l_covering(fold, 0)

    def test_fiber_distance(self, c3, c6):
        # the fiber over each base vertex sits three apart
        assert distance(c6, 0, 3) == 3

    def test_power_map_is_digraph_map(self, fold):
        # distance contraction makes every power assignment a digraph map
        for k in (1, 2, 3):
            DigraphMap(
                power_digraph(fold.source, k),
                power_digraph(fold.target, k),
                dict(fold.assignment),
            )


@st.composite
def digraph_maps(draw, max_vertices=7):
    """Random digraph maps with at most `max_vertices` source vertices.
    Half are sheeted covers: k copies of a base, each base arrow lifted by
    a random permutation of the sheets, and at times one lift dropped.
    The others assign vertices at random and draw arrows among the pairs
    sent to an arrow or to one vertex."""
    if draw(st.booleans()):
        sheets = draw(st.integers(1, 3))
        size = draw(st.integers(1, max_vertices // sheets))
        base = draw(st.sets(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
                            max_size=6))
        base = Digraph(range(size), [(x, y) for x, y in base if x != y])
        arrows = []
        for x, y in sorted(base.arrows):
            moved = draw(st.permutations(range(sheets)))
            arrows += [((x, s), (y, t)) for s, t in enumerate(moved)]
        dropped = draw(st.sets(st.sampled_from(arrows), max_size=1)) if arrows else set()
        source = Digraph([(v, s) for s in range(sheets) for v in range(size)],
                         [a for a in arrows if a not in dropped])
        return DigraphMap(source, base, {v: v[0] for v in source.vertices})
    size = draw(st.integers(1, 4))
    base = draw(st.sets(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
                        max_size=7))
    base = Digraph(range(size), [(x, y) for x, y in base if x != y])
    over = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=max_vertices))
    allowed = [(u, v) for u in range(len(over)) for v in range(len(over))
               if u != v and (over[u] == over[v] or (over[u], over[v]) in base.arrows)]
    arrows = draw(st.sets(st.sampled_from(allowed), max_size=10)) if allowed else set()
    return DigraphMap(Digraph(range(len(over)), arrows), base, dict(enumerate(over)))


class TestLCoveringOracle:
    """`is_l_covering` reads condition (3) off a distance table bounded at
    depth l; conftest's reference lists walks and compares every pair."""

    @settings(max_examples=300, deadline=None)
    @given(digraph_maps(), st.integers(1, 4))
    def test_reports_match_the_walk_pair_oracle(self, p, l):
        assert is_l_covering(p, l) == walk_pair_l_covering(p, l)

    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_sheeted_cycles(self, l):
        # the 2k-cycle onto the k-cycle is an l-covering exactly for l < k
        for k in (2, 3, 4):
            p = DigraphMap(cycle(2 * k), cycle(k), {i: i % k for i in range(2 * k)})
            report = is_l_covering(p, l)
            assert report == walk_pair_l_covering(p, l)
            assert report["pass"] is (l < k)

    def test_no_walk_is_listed_and_every_search_is_bounded(self, monkeypatch):
        # every successor query comes from a breadth-first search to depth
        # at most l, expanding each vertex once, or from a 1-covering check;
        # listing walks would query successors along each walk
        torus = box_product(cycle(4), cycle(4))
        p, l = DigraphMap.identity(torus), 6
        depths, inside = [], []
        successors = Digraph.successors
        one_covering = coverings.is_one_covering

        def spied_successors(g, v):
            assert inside, "successors queried outside a search or a 1-covering check"
            if inside[-1] is not None:
                assert v not in inside[-1], "a search expanded a vertex twice"
                inside[-1].add(v)
            return successors(g, v)

        def spied_distances(g, u, depth):
            depths.append(depth)
            inside.append(set())
            try:
                return distances_from(g, u, depth)
            finally:
                inside.pop()

        def spied_one_covering(q):
            inside.append(None)
            try:
                return one_covering(q)
            finally:
                inside.pop()

        monkeypatch.setattr(Digraph, "successors", spied_successors)
        monkeypatch.setattr(coverings, "distances_from", spied_distances)
        monkeypatch.setattr(digraph, "distances_from", spied_distances)
        monkeypatch.setattr(coverings, "is_one_covering", spied_one_covering)
        assert is_l_covering(p, l)["pass"]
        assert depths and max(depths) <= l


class TestUniqueLifting:
    def test_point_horn_path_lifting(self, fold):
        horn, cube = horn_inclusion(2, 1, 1, 0)
        rep = check_unique_lifting(fold, horn, cube)
        assert rep["pass"] and rep["squares"] > 0

    def test_square_horns_side_two(self, fold):
        for i in (1, 2):
            for eps in (0, 1):
                horn, cube = horn_inclusion(2, 2, i, eps)
                rep = check_unique_lifting(fold, horn, cube)
                assert rep["pass"], (i, eps, rep)

    def test_identity_covering_lift_is_bottom(self, c3):
        p = DigraphMap.identity(c3)
        horn, cube = horn_inclusion(2, 1, 1, 1)
        rep = check_unique_lifting(p, horn, cube)
        assert rep["pass"]

    def test_fast_path_matches_brute_force(self, fold):
        horn, cube = horn_inclusion(2, 2, 1, 0)
        fast = check_unique_lifting(fold, horn, cube)
        brute = _squares_by_enumeration(fold, horn, cube)
        assert fast["pass"] == brute["pass"] is True
        assert fast["squares"] == brute["squares"]

    def test_fast_path_matches_brute_force_on_failure(self, fold):
        # a path lifts through C6 -> C3, but the closed triangle does not
        a = Digraph([0, 1, 2], [(0, 1), (1, 2)])
        b = cycle(3)
        fast = check_unique_lifting(fold, a, b)
        brute = _squares_by_enumeration(fold, a, b)
        assert fast["pass"] is brute["pass"] is False
        assert fast["unique"] is brute["unique"] is False
        assert fast["squares"] == brute["squares"]
        assert fast["witness"]["beta"] == brute["witness"]["beta"]

    def test_arrow_of_a_outside_b_goes_to_enumeration(self, fold):
        # a shares b's vertices 0 and 2 but its arrow 2 -> 0 is not in b,
        # so a lift of b need not restrict to a map on a
        a = Digraph([0, 2], [(2, 0)])
        b = Digraph([0, 1, 2], [(0, 1), (1, 2)])
        fast = check_unique_lifting(fold, a, b)
        brute = _squares_by_enumeration(fold, a, b)
        assert fast == brute
        assert fast["pass"] is False and fast["squares"] == 3
        assert fast["witness"]["beta"] == ["0", "1", "2"]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_spread_matches_enumeration_on_random_pairs(self, fold, data):
        n = data.draw(st.integers(1, 4))
        steps = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        b_arrows = data.draw(st.sets(steps, max_size=6))
        b = Digraph(range(n), [(u, v) for u, v in b_arrows if u != v])
        a_vertices = data.draw(st.sets(st.sampled_from(b.vertices), min_size=1))
        inside = sorted(
            (u, v) for u, v in b.arrows if u in a_vertices and v in a_vertices
        )
        a_arrows = data.draw(st.sets(st.sampled_from(inside))) if inside else set()
        # now and then an arrow of a that b lacks
        missing = [
            (u, v) for u in a_vertices for v in a_vertices
            if u != v and (u, v) not in b.arrows
        ]
        if missing and data.draw(st.booleans()):
            a_arrows.add(data.draw(st.sampled_from(missing)))
        a = Digraph(sorted(a_vertices), [(u, v) for u, v in a_arrows if u != v])
        fast = check_unique_lifting(fold, a, b)
        brute = _squares_by_enumeration(fold, a, b)
        assert fast["pass"] is brute["pass"]
        assert fast["squares"] == brute["squares"]
        if not fast["pass"]:
            assert fast["witness"]["beta"] == brute["witness"]["beta"]

    @pytest.mark.parametrize(
        "side, n, i, eps",
        [(side, n, i, eps) for side in (2, 3) for n in (1, 2)
         for i in range(1, n + 1) for eps in (0, 1)],
    )
    def test_counted_squares_match_enumeration(self, fold, side, n, i, eps):
        horn, cube = horn_inclusion(side, n, i, eps)
        assert check_unique_lifting(fold, horn, cube) == _squares_by_enumeration(
            fold, horn, cube
        )

    def test_non_covering_matches_enumeration(self, non_covering):
        p = non_covering
        horn, cube = horn_inclusion(2, 2, 2, 1)
        rep = check_unique_lifting(p, horn, cube)
        assert rep == _squares_by_enumeration(p, horn, cube)
        assert rep["pass"] is False and rep["squares"] == 44

    def test_counts_that_differ_fall_back_to_the_spread(self, fold, monkeypatch):
        # C3 -> C3 has 6 maps: the 3 rotations, which no map C3 -> C6 lies
        # over (no square), and the 3 constants, each with 2 lifts.  So
        # S = L = 6 and the counts settle at the root: one count of the base
        # maps, one of the lifts and one of the squares
        c3 = cycle(3)
        assert count_digraph_maps(c3, fold.source) == 6
        counted = []

        def spied(source, target, budget, pinned):
            counted.append(digraph.count_digraph_maps(source, target, budget, pinned))
            return counted[-1]

        monkeypatch.setattr(coverings, "count_digraph_maps", spied)
        rep = check_unique_lifting(fold, c3, c3)
        assert rep == {"squares": 6, "unique": True, "pass": True}
        assert rep == spread_lifting(fold, c3, c3)
        assert counted == [6, 6, 6]

    def test_counted_check_lists_no_map(self, fold, monkeypatch):
        def listing(*args, **kwargs):
            raise AssertionError("a map was listed")

        monkeypatch.setattr(digraph, "iter_digraph_maps", listing)
        monkeypatch.setattr(coverings, "iter_digraph_maps", listing)
        rep = check_unique_lifting(fold, *horn_inclusion(3, 2, 1, 0))
        assert rep == {"squares": 15624, "unique": True, "pass": True}

    def test_vertex_outside_b_is_unknown(self, fold):
        a = Digraph([0, 9], [(0, 9)])
        with pytest.raises(UnknownVertex, match=r"^unknown vertex 9$"):
            check_unique_lifting(fold, a, cycle(3))

    def test_all_horns_match_one_horn_checks(self, fold):
        shared = check_unique_lifting_all_horns(fold, 2, 2)
        for i in (1, 2):
            for eps in (0, 1):
                horn, cube = horn_inclusion(2, 2, i, eps)
                rep = check_unique_lifting(fold, horn, cube)
                assert shared["horns"][f"{i},{eps}"]["squares"] == rep["squares"]

    @pytest.mark.parametrize(
        "name, side, n, verdict",
        [("fold", 2, 1, True), ("fold", 3, 1, True), ("fold", 2, 2, True),
         ("fold", 3, 2, True), ("non_covering", 2, 2, False)],
    )
    def test_all_horns_are_one_horn_checks(self, request, name, side, n, verdict):
        p = request.getfixturevalue(name)
        shared = check_unique_lifting_all_horns(p, side, n)
        assert (shared["side"], shared["n"], shared["pass"]) == (side, n, verdict)
        assert shared["horns"] == {
            f"{i},{eps}": check_unique_lifting(
                p, *horn_inclusion(side, n, i, eps), MAX_HORN_BASE_MAPS
            )
            for i in range(1, n + 1)
            for eps in (0, 1)
        }

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_all_horns_count_the_cube_once(self, fold, monkeypatch, n):
        # the base maps and the lifts of the cube depend on p and the cube
        # alone, so one count of each serves all 2n horns; each horn counts
        # its own squares, and each settles at the root
        targets = []

        def spied(source, target, budget, pinned):
            targets.append(target)
            return digraph.count_digraph_maps(source, target, budget, pinned)

        monkeypatch.setattr(coverings, "count_digraph_maps", spied)
        shared = check_unique_lifting_all_horns(fold, 2, n)
        assert shared["pass"] and len(shared["horns"]) == 2 * n
        assert targets.count(fold.target) == targets.count(fold.source) == 1
        assert len(targets) == 2 + 2 * n

    def test_all_horns_fall_back_when_the_cube_does_not_lift(self, square_cover):
        p = square_cover
        assert is_one_covering(p)
        shared = check_unique_lifting_all_horns(p, 2, 2)
        assert shared["pass"] is False
        for i in (1, 2):
            for eps in (0, 1):
                horn, cube = horn_inclusion(2, 2, i, eps)
                one = check_unique_lifting(p, horn, cube, MAX_HORN_BASE_MAPS)
                brute = _squares_by_enumeration(p, horn, cube)
                assert one["pass"] is brute["pass"] is False
                assert one["witness"]["beta"] == brute["witness"]["beta"]
                assert one == spread_lifting(p, horn, cube)
                assert shared["horns"][f"{i},{eps}"] == one

    @pytest.mark.parametrize("name", ["fold", "square_cover"])
    @pytest.mark.parametrize(
        "side, n, i, eps",
        [(side, n, i, eps) for side in (2, 3) for n in (1, 2)
         for i in range(1, n + 1) for eps in (0, 1)],
    )
    def test_horn_reports_match_the_spread(self, request, name, side, n, i, eps):
        p = request.getfixturevalue(name)
        horn, cube = horn_inclusion(side, n, i, eps)
        assert check_unique_lifting(p, horn, cube) == spread_lifting(p, horn, cube)

    @pytest.mark.parametrize("name", ["fold", "square_cover"])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_reports_match_the_spread_on_random_pairs(self, request, name, data):
        p = request.getfixturevalue(name)
        a, b = data.draw(counted_pairs())
        assert len(pi0(a)) == len(pi0(b)) == 1 and a.arrows <= b.arrows
        assert check_unique_lifting(p, a, b) == spread_lifting(p, a, b)

    @pytest.mark.parametrize("name", ["fold", "square_cover"])
    @pytest.mark.parametrize("side, n, limit", [(2, 1, 3), (3, 1, 3), (2, 2, 3), (3, 2, 24)])
    def test_counts_that_give_up_split_their_prefix(
        self, request, monkeypatch, name, side, n, limit
    ):
        # with a handful of live states most counts give up, the base count
        # included, and the prefixes split, some down to base maps (at 3
        # states the side-3 square would split into its 7,812 base maps)
        p = request.getfixturevalue(name)
        monkeypatch.setattr(coverings, "DEFAULT_MAX_MAPS", limit)
        shared = check_unique_lifting_all_horns(p, side, n)
        for i in range(1, n + 1):
            for eps in (0, 1):
                horn, cube = horn_inclusion(side, n, i, eps)
                expected = spread_lifting(p, horn, cube)
                assert check_unique_lifting(p, horn, cube) == expected
                assert shared["horns"][f"{i},{eps}"] == expected

    @pytest.mark.parametrize("limit", [24, 10**5])
    @pytest.mark.parametrize("name, maps", [("fold", 7812), ("square_cover", 20188)])
    def test_budget_counts_every_base_map(self, request, monkeypatch, limit, name, maps):
        # the side-3 square has `maps` base maps, whether the check passes
        # or fails, and whether or not the counts give up
        p = request.getfixturevalue(name)
        monkeypatch.setattr(coverings, "DEFAULT_MAX_MAPS", limit)
        horn, cube = horn_inclusion(3, 2, 1, 0)
        message = f"^more than {maps - 1} digraph maps during enumeration$"
        with pytest.raises(BudgetExceeded, match=message):
            check_unique_lifting(p, horn, cube, maps - 1)
        assert check_unique_lifting(p, horn, cube, maps) == spread_lifting(p, horn, cube)

    def test_failing_check_lists_no_base_map(self, square_cover, monkeypatch):
        def listing(*args, **kwargs):
            raise AssertionError("a map was listed")

        for module in (digraph, coverings):
            monkeypatch.setattr(module, "iter_digraph_maps", listing)
            monkeypatch.setattr(module, "enumerate_digraph_maps", listing)
        shared = check_unique_lifting_all_horns(square_cover, 4, 2)
        assert shared["pass"] is False
        # what `spread_lifting` gives when it streams the 2,567,778 base
        # maps instead of listing them up front
        beta = [0] * 8 + [1] + [0] * 4 + [1, 0, 0, 1, 1, 3, 1, 0, 0, 0, 2, 0]
        for report in shared["horns"].values():
            assert report == {
                "squares": 817, "unique": False, "pass": False,
                "witness": {"beta": list(map(repr, beta)), "anchor": "(0, 0)", "lifts": 0},
            }


@st.composite
def counted_pairs(draw, max_vertices=5):
    """(a, b) on the counted route of `check_unique_lifting`: b weakly
    connected, and a a weakly connected subdigraph of b that keeps some of
    b's arrows among its vertices, so it need not be induced."""
    n = draw(st.integers(1, max_vertices))
    order = draw(st.permutations(range(n)))
    arrows = set()
    joined = 1
    if n >= 4 and draw(st.booleans()):  # a square w -> x -> z, w -> y -> z
        w, x, y, z = order[:4]
        arrows |= {(w, x), (x, z), (w, y), (y, z)}
        joined = 4
    for k in range(joined, n):  # each other vertex joined to an earlier one
        u, v = order[draw(st.integers(0, k - 1))], order[k]
        arrows.add((u, v) if draw(st.booleans()) else (v, u))
    steps = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    arrows |= {(u, v) for u, v in draw(st.sets(steps, max_size=3)) if u != v}
    b = Digraph(range(n), arrows)
    chosen = {draw(st.sampled_from(b.vertices))}
    kept = set()
    for _ in range(n - 1 - draw(st.integers(0, n - 1))):  # mostly large
        out = sorted((u, v) for u, v in b.arrows if (u in chosen) != (v in chosen))
        if not out:
            break
        u, v = draw(st.sampled_from(out))
        chosen |= {u, v}
        kept.add((u, v))
    inside = sorted((u, v) for u, v in b.arrows if u in chosen and v in chosen)
    kept |= draw(st.sets(st.sampled_from(inside))) if inside else set()
    return Digraph(sorted(chosen), kept), b


class TestHypotheses:
    def test_horn_inclusion_graded(self):
        horn, cube = horn_inclusion(2, 2, 1, 1)
        rep = check_lifting_hypotheses(horn, cube)
        assert rep["1"] and rep["3"]

    def test_failure_raises_with_clause(self):
        # an isolated extra vertex in B breaks reachability from A
        b = Digraph(["a", "b", "x"], [("a", "b")])
        a = b.induced(["a"])
        assert check_lifting_hypotheses(a, b)["1"] is False
        assert check_lifting_hypotheses_dual(a, b)["pass"] is False

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_hypothesis_two_grade_matches_closure(self, data):
        n = data.draw(st.integers(1, 5))
        steps = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        b_arrows = data.draw(st.sets(steps, max_size=12))
        b = Digraph(range(n), [(u, v) for u, v in b_arrows if u != v])
        a_vertices = data.draw(st.sets(st.sampled_from(b.vertices)))
        inside = sorted(
            (u, v) for u, v in b.arrows if u in a_vertices and v in a_vertices
        )
        a_arrows = data.draw(st.sets(st.sampled_from(inside))) if inside else ()
        a = Digraph(sorted(a_vertices), a_arrows)
        assert check_lifting_hypotheses(a, b)["2"] == hypothesis_two_grade(a, b)

    def test_filtration(self):
        for side in (2, 4):
            for i in (1, 2):
                for eps in (0, 1):
                    rep = check_two_covering_filtration(side, 2, i, eps)
                    assert rep["pass"] and rep["full_cube_reached"]

    def test_filtration_literal_fails_somewhere(self):
        # the pairwise form of hypothesis 2 fails at the sink-adding step,
        # only the chained form holds there
        rep = check_two_covering_filtration(2, 2, 1, 1)
        literal = [s["direct_literal"] or s["dual_literal"] for s in rep["steps"]]
        assert not all(literal)
