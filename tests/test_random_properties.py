"""Randomized cross-checks between independent implementations.

Each property pits a library path against a brute-force oracle (or a second
library path derived by entirely different means) on random small digraphs.
"""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from dgh import digraph, nerve
from dgh.digraph import (
    Digraph,
    DigraphMap,
    DigraphPair,
    count_digraph_maps,
    enumerate_digraph_maps,
    one_step_pairs,
    pi0,
)
from dgh.covers import in_closure, is_in_closed, out_closure
from dgh.errors import BudgetExceeded, NotChainMap
from dgh.homology import (
    HomologyCoordinates,
    chain_map_matrices,
    dense_rows,
    homology_summary,
    normalized_chain_complex,
)
from dgh.linalg import solve_integer, unimodular_inverse
from dgh.homotopy import homotopy_classes
from dgh.intervals import FWD, TowerSpec, standard_interval, truncation
from dgh.nerve import (
    boundary_vertices,
    comparison_map,
    cube_realization,
    nerve_functor_map,
    nerve_levels,
)
from dgh.triangulation import _corner_chains, _simplex_keys, _simplex_ranks, triangulate

from conftest import (
    all_pairs_one_step,
    cycle,
    degenerate_cube_test,
    dense_boundaries,
    dense_product,
    dense_noncommuting_degree,
    image_tuple_comparison_levels,
    image_tuple_functor_levels,
    image_tuple_tables,
    line,
    list_extended,
    list_walk_sums,
    naive_components,
    naive_digraph_maps,
    naive_one_step,
    reference_cubical_boundaries,
    reference_triangulated_boundaries,
    reference_triangulated_columns,
    union_find_classes,
)


def digraphs(max_vertices=5, max_arrows=10):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_vertices))
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        raw = draw(st.sets(pairs, max_size=max_arrows))
        return Digraph(range(n), [(u, v) for (u, v) in raw if u != v])

    return build()


@settings(max_examples=200, deadline=None)
@given(
    digraphs(max_vertices=6, max_arrows=9),
    digraphs(max_vertices=4, max_arrows=7),
    st.data(),
)
def test_map_count_is_the_enumerated_count(source, target, data):
    maps = enumerate_digraph_maps(source, target)
    assert count_digraph_maps(source, target) == len(maps)
    pinned = _pins(data, source, target.vertices)
    assert count_digraph_maps(source, target, pinned=pinned) == len(
        enumerate_digraph_maps(source, target, pinned=pinned)
    )


@pytest.mark.parametrize(
    "source, target",
    [
        (Digraph([]), cycle(3)),
        (Digraph([]), Digraph([])),
        (Digraph(range(3)), cycle(3)),
        (Digraph(range(3)), Digraph([])),
        (Digraph(range(5), [(3, 1), (1, 4)]), line(2)),
        (Digraph(range(4), [(0, 3), (3, 0)]), cycle(2)),
    ],
    ids=["empty", "empty-into-empty", "no-arrows", "into-empty", "isolated",
         "two-cycle"],
)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_map_count_on_degenerate_sources(source, target, data):
    maps = enumerate_digraph_maps(source, target)
    assert count_digraph_maps(source, target) == len(maps)
    if source.vertices:
        pinned = _pins(data, source, target.vertices)
        assert count_digraph_maps(source, target, pinned=pinned) == len(
            enumerate_digraph_maps(source, target, pinned=pinned)
        )


def test_map_count_gives_up_past_the_state_budget():
    # sweeping line(3) into C3 holds 3 states, one per image of the last vertex
    assert count_digraph_maps(line(3), cycle(3), budget=3) == 3 * 2**3
    assert count_digraph_maps(line(3), cycle(3), budget=2) is None
    # ten isolated vertices: 3^10 maps, but never more than one state
    assert count_digraph_maps(Digraph(range(10)), cycle(3), budget=1) == 3**10


def _pins(data, source, values):
    """A random pinned subset of `source`, each vertex with its own tuple
    of distinct `values` in a random order (possibly empty)."""
    part = data.draw(st.sets(st.sampled_from(source.vertices)))
    tuples = st.lists(st.sampled_from(values), unique=True) if values else st.just([])
    return {v: tuple(data.draw(tuples)) for v in sorted(part)}


def _check_pinned_maps(source, target, pinned):
    maps = enumerate_digraph_maps(source, target, pinned=pinned)
    assert maps == naive_digraph_maps(source, target, pinned)


@settings(max_examples=150, deadline=None)
@given(
    digraphs(max_vertices=5, max_arrows=9),
    digraphs(max_vertices=4, max_arrows=7),
    st.data(),
)
def test_pinned_maps_match_product_filter(source, target, data):
    # the lister keeps each pinned tuple's order, so its list is the
    # product's list itself, not only the same set
    _check_pinned_maps(source, target, _pins(data, source, target.vertices))


@settings(max_examples=12, deadline=None)
@given(
    st.sampled_from([2, 3]),
    st.sampled_from([1, -1]),
    st.integers(20, 40),
    st.data(),
)
def test_pinned_maps_into_long_cycles(length, sign, size, data):
    # a sparse target: the candidates come from one or two step sets of
    # at most two vertices each; the pins lie near one vertex, so that
    # some of them admit maps
    source, target = line(length, sign), cycle(size)
    centre = data.draw(st.integers(0, size - 1))
    near = [(centre + d) % size for d in range(-3, 4)]
    _check_pinned_maps(source, target, _pins(data, source, near))
    # the counter meets the same sparse step sets, without pins
    maps = enumerate_digraph_maps(source, target)
    assert maps == naive_digraph_maps(source, target)
    assert count_digraph_maps(source, target) == len(maps)


@settings(max_examples=60, deadline=None)
@given(
    digraphs(max_vertices=4, max_arrows=7),
    digraphs(max_vertices=4, max_arrows=7),
    st.data(),
)
def test_one_step_pairs_match_all_pairs_scan(source, target, data):
    maps = enumerate_digraph_maps(source, target)
    rel = data.draw(st.lists(st.sampled_from(range(len(source))), unique=True))
    assert one_step_pairs(source, target, maps, rel) == all_pairs_one_step(
        target, maps, rel
    )
    # the pair list follows the order of `maps`, whatever that order is
    shuffled = data.draw(st.permutations(maps))
    assert one_step_pairs(source, target, shuffled, rel) == all_pairs_one_step(
        target, shuffled, rel
    )


@settings(max_examples=40, deadline=None)
@given(
    digraphs(max_vertices=4, max_arrows=7),
    digraphs(max_vertices=4, max_arrows=7),
    st.data(),
)
def test_one_step_pairs_on_pinned_pair_maps(source, target, data):
    # the relative box hom of pairs: maps sending a part into a part, with
    # homotopies fixed on the source part (as in `pair_box_hom`)
    part = data.draw(st.sets(st.sampled_from(source.vertices)))
    target_part = data.draw(st.sets(st.sampled_from(target.vertices), min_size=1))
    p, q = DigraphPair(source, part), DigraphPair(target, target_part)
    maps = enumerate_digraph_maps(source, target, pinned={v: q.part for v in p.part})
    rel = [source.index(v) for v in p.part]
    assert one_step_pairs(source, target, maps, rel) == all_pairs_one_step(
        target, maps, rel
    )


def test_one_step_pairs_degenerate_inputs():
    c3 = cycle(3)
    empty = Digraph([])
    maps = enumerate_digraph_maps(empty, c3)
    assert maps == [()]
    assert one_step_pairs(empty, c3, maps) == all_pairs_one_step(c3, maps) == []
    assert one_step_pairs(line(2), c3, []) == []


@pytest.mark.parametrize("order", ["enumerated", "reversed", "shuffled"])
def test_one_step_pairs_on_nerve_level_two(order):
    # the 246 cubes of level 2 of N_2(C3), over 9 grid positions: sets wider
    # than a machine word, and reversed or shuffled, consecutive maps share
    # little of their prefix
    c3 = cycle(3)
    maps = list(nerve_levels(c3, 2, 1, 2).cubes[2])
    assert len(maps) == 246
    if order == "reversed":
        maps = maps[::-1]
    elif order == "shuffled":
        maps = random.Random(7).sample(maps, len(maps))
    source = cube_realization(standard_interval(2), 2)
    assert one_step_pairs(source, c3, maps) == all_pairs_one_step(c3, maps)


def test_one_step_pairs_on_pinned_tower_stage():
    # stage 8 of the r tower at n = 1, as `an_tower` builds it: 86 maps into
    # C3 with the boundary pinned to a basepoint
    c3 = cycle(3)
    interval = TowerSpec("r").interval(8)
    source = cube_realization(interval, 1)
    part = boundary_vertices(interval.n_arrows, 1)
    maps = enumerate_digraph_maps(source, c3, pinned={v: (0,) for v in part})
    assert len(maps) == 86
    rel = [source.index(v) for v in part]
    pairs = all_pairs_one_step(c3, maps, rel)
    assert pairs
    assert one_step_pairs(source, c3, maps, rel) == pairs


@pytest.mark.parametrize("size", [128, 129, 300])
def test_one_step_pairs_on_targets_past_one_code_digit(size):
    # a target vertex is coded by base-128 digits, one digit up to 128
    # vertices and two past it: a cycle with chords, from a sample of the
    # maps out of I_2
    target = Digraph(
        range(size),
        {(v, w) for v in range(size) for w in ((v + 1) % size, (v * 129 + 5) % size) if v != w},
    )
    maps = random.Random(size).sample(enumerate_digraph_maps(line(2), target), 300)
    for rel in ((), (1,)):
        assert one_step_pairs(line(2), target, maps, rel) == all_pairs_one_step(
            target, maps, rel
        )


def test_one_step_pairs_lists_every_copy_of_a_repeated_map():
    # maps[k] repeats maps[0]: each copy is a head of the other, and every
    # head of one is listed under both indices
    c3, i2 = cycle(3), line(2)
    maps = enumerate_digraph_maps(i2, c3)
    k = len(maps)
    repeated = maps + maps[::3]
    pairs = one_step_pairs(i2, c3, repeated)
    assert pairs == all_pairs_one_step(c3, repeated)
    assert (0, k) in pairs and (k, 0) in pairs


NERVE_ORACLE_BUDGET = 50_000


@settings(max_examples=50, deadline=None)
@given(
    digraphs(max_vertices=4, max_arrows=8),
    st.integers(0, 3),
    st.sampled_from([1, -1]),
)
def test_walk_levels_are_the_enumerated_cube_maps(g, m, sign):
    # the levels are enumerated by backtracking over the grid, one level at
    # a time, while they fit the budget (up to level 4)
    interval = standard_interval(m, sign)
    enumerated = []
    remaining = NERVE_ORACLE_BUDGET
    for n in range(5):
        try:
            level = enumerate_digraph_maps(cube_realization(interval, n), g, remaining)
        except BudgetExceeded:
            break
        remaining -= len(level)
        enumerated.append(level)
    top = len(enumerated) - 1
    x = nerve_levels(g, m, sign, top, NERVE_ORACLE_BUDGET)
    assert [list(level) for level in x.cubes] == enumerated
    if top < 4:  # the next level is over the budget, for both
        with pytest.raises(BudgetExceeded, match=f"at level {top + 1}$"):
            nerve_levels(g, m, sign, top + 1, NERVE_ORACLE_BUDGET)


TABLE_ORACLE_BUDGET = 20_000


#: level sizes on both sides of every switch of lane width (1, 2, 4 and 8
#: bytes); the lane of a size holds every count up to the size itself
LANE_SIZES = [255, 256, 257, 65535, 65536, 65537, 2**32 - 1, 2**32]


def test_lane_widths_switch_where_the_size_needs_a_wider_lane():
    assert [nerve._lane(size).size for size in LANE_SIZES] == [1, 2, 2, 2, 4, 4, 4, 8]


@st.composite
def walk_steps(draw, max_cubes=5, max_steps=3):
    """The number n of cubes and the step lists of a few steps over them:
    steps[k][a] is a sorted list of cubes, possibly empty."""
    n = draw(st.integers(1, max_cubes))
    heads = st.lists(st.sets(st.integers(0, n - 1)).map(sorted), min_size=n, max_size=n)
    return n, draw(st.lists(heads, min_size=1, max_size=max_steps))


def counts_up_to(length, cap):
    """Lists of `length` counts in 0..cap, cap itself drawn half the time."""
    return st.lists(st.just(cap) | st.integers(0, cap), min_size=length, max_size=length)


@settings(max_examples=150, deadline=None)
@given(st.data(), walk_steps(max_steps=1), st.sampled_from(LANE_SIZES))
def test_packed_extension_matches_the_list_form(data, walk, size):
    # a sum and an offset together reach at most `size`, and reach it when
    # both are drawn at their caps
    n, (heads,) = walk
    step = nerve._step_arrows(heads)
    ends = data.draw(st.lists(st.integers(0, n - 1), max_size=8))
    cap = data.draw(st.integers(0, size))
    sums = data.draw(counts_up_to(len(ends), cap))
    offsets = data.draw(counts_up_to(len(step[0]), size - cap))
    lane = nerve._lane(size)
    blocks = nerve._packed_blocks(offsets, step[2], lane)
    reached, grown = nerve._extended(ends, sums, step, blocks, lane)
    assert (list(reached), grown) == list_extended(ends, sums, step, offsets)


@settings(max_examples=150, deadline=None)
@given(st.data(), walk_steps(), st.sampled_from(LANE_SIZES))
def test_packed_walk_sums_match_the_list_form(data, walk, size):
    # the caps of the first values and of each step's offsets add up to
    # `size`, so every walk sums to at most `size`, and to `size` itself
    # when its every term is drawn at its cap
    n, steps = walk
    arrows = list(map(nerve._step_arrows, steps))
    caps = [size // (len(steps) + 1)] * len(steps)
    first = data.draw(counts_up_to(n, size - sum(caps)))
    offsets = [data.draw(counts_up_to(len(step[0]), cap)) for step, cap in zip(arrows, caps)]
    sums = nerve._walk_sums(arrows, first, offsets, nerve._lane(size))
    assert sums == list_walk_sums(arrows, first, offsets)


def _largest_fitting(build, top_dim):
    """build(K) at the largest K <= top_dim whose nerves fit the budget."""
    for k in range(top_dim, 0, -1):
        try:
            return build(k)
        except BudgetExceeded:
            pass
    return build(0)


@settings(max_examples=60, deadline=None)
@given(
    digraphs(max_vertices=4, max_arrows=8),
    st.integers(0, 3),
    st.sampled_from([1, -1]),
    st.integers(0, 3),
)
def test_walk_rank_tables_match_image_tuple_lookup(g, m, sign, top_dim):
    x = _largest_fitting(lambda k: nerve_levels(g, m, sign, k, TABLE_ORACLE_BUDGET), top_dim)
    assert (x.faces, x.degens, x.connections) == image_tuple_tables(x)
    # the keys in index order, eps inside: the first witness of a
    # triangulation's cores, and naturality messages, are read in this order
    pairs = [[(i, eps) for i in range(1, n + 1) for eps in (0, 1)] for n in range(x.top_dim + 1)]
    assert [
        (list(x.faces[n]), list(x.degens[n]), list(x.connections[n]))
        for n in range(1, x.top_dim + 1)
    ] == [(pairs[n], list(range(1, n + 1)), pairs[n - 1]) for n in range(1, x.top_dim + 1)]
    # the materialised tuples, cut into slices and looked up in the level
    # below, give back the stored columns; reading one cube at a time and
    # the whole level agree
    for n in range(1, x.top_dim + 1):
        level = list(x.cubes[n])
        assert [x.cubes[n][k] for k in range(len(level))] == level
        below = {cube: k for k, cube in enumerate(x.cubes[n - 1])}
        size = (m + 1) ** (n - 1)
        cuts = range(0, len(level[0]), size)
        assert [[below[cube[cut : cut + size]] for cube in level] for cut in cuts] == x.columns[n]
    # the one dict index is level 0's, at K = 0 too
    assert x.index == [{(v,): k for k, v in enumerate(g.vertices)}]
    assert nerve_levels(g, m, sign, 0).index == x.index


def assert_heads_match_all_pairs_scan(x):
    """Every step list of every level n >= 1 of x lists the arrows of the
    box hom on level n-1, constant steps included, as the all-pairs scan
    of the materialised level n-1 finds them; forward steps by their
    heads, backward steps by their tails, each list sorted."""
    word = standard_interval(x.m, x.sign).word
    for n in range(1, x.top_dim + 1):
        cubes = list(x.cubes[n - 1])
        arrows = sorted(all_pairs_one_step(x.target, cubes) + [(a, a) for a in range(len(cubes))])
        for step, lists in zip(word, x.steps[n]):
            assert all(hs == sorted(hs) for hs in lists)
            pairs = [(a, b) if step == FWD else (b, a) for a, hs in enumerate(lists) for b in hs]
            assert sorted(pairs) == arrows


@settings(max_examples=50, deadline=None)
@given(
    digraphs(max_vertices=4, max_arrows=8).filter(lambda g: g.arrows),
    st.integers(1, 3),
    st.sampled_from([1, -1]),
    st.integers(2, 4),
)
def test_slice_wise_heads_match_all_pairs_scan(g, m, sign, top_dim):
    x = _largest_fitting(lambda k: nerve_levels(g, m, sign, k, TABLE_ORACLE_BUDGET), top_dim)
    assert_heads_match_all_pairs_scan(x)


@pytest.mark.parametrize(
    "g, m, sign, top_dim",
    [
        (cycle(3), 1, 1, 4),
        (cycle(3), 1, -1, 4),
        (cycle(3), 2, 1, 3),
        (cycle(3), 2, -1, 3),
        (Digraph("abc", [("b", "a"), ("b", "c")]), 2, 1, 3),
        (Digraph("abc", [("b", "a"), ("b", "c")]), 3, -1, 2),
    ],
)
def test_slice_wise_heads_on_pinned_nerves(g, m, sign, top_dim, monkeypatch):
    # the nerve finds its heads without the bitset search of one_step_pairs
    searched = []
    monkeypatch.setattr(digraph, "one_step_pairs", lambda *args: searched.append(args))
    monkeypatch.setattr(nerve, "one_step_pairs", digraph.one_step_pairs, raising=False)
    x = nerve_levels(g, m, sign, top_dim)
    assert searched == []
    assert_heads_match_all_pairs_scan(x)


@settings(max_examples=40, deadline=None)
@given(
    digraphs(max_vertices=4, max_arrows=6),
    digraphs(max_vertices=4, max_arrows=8),
    st.integers(0, 3),
    st.integers(0, 3),
    st.data(),
)
def test_functor_levels_match_image_tuple_lookup(source, target, m, top_dim, data):
    images = data.draw(st.sampled_from(enumerate_digraph_maps(source, target)))
    phi = DigraphMap(source, target, dict(zip(source.vertices, images)))
    cm = _largest_fitting(lambda k: nerve_functor_map(phi, m, k, TABLE_ORACLE_BUDGET), top_dim)
    assert cm.levels == image_tuple_functor_levels(phi, cm.source, cm.target)


@settings(max_examples=40, deadline=None)
@given(
    digraphs(max_vertices=4, max_arrows=6),
    st.sampled_from([("r", 1), ("l", 1), ("c2", 4)]),
    st.integers(1, 2),
    st.integers(0, 3),
)
def test_comparison_levels_match_image_tuple_lookup(g, kind_delta, m, top_dim):
    kind, delta = kind_delta

    def build(k):
        # the target nerve is the larger one: size it under the budget first
        nerve_levels(g, m + delta, -1 if kind == "l" else 1, k, TABLE_ORACLE_BUDGET)
        return comparison_map(kind, g, m, k)

    cm = _largest_fitting(build, top_dim)
    t = truncation(kind, m).assignment
    assert cm.levels == image_tuple_comparison_levels(t, cm.source, cm.target)


@settings(max_examples=30, deadline=None)
@given(
    digraphs(max_vertices=4, max_arrows=6),
    st.sampled_from([(1, 2), (1, 3), (2, 2)]),
)
def test_counted_simplex_ranks_match_the_keys(g, truncation):
    x = nerve_levels(g, *truncation[:1], 1, truncation[1])
    chains = [_corner_chains(d) for d in range(x.top_dim + 1)]
    # the keys `Triangulation` stores, built without its generator ceiling,
    # which some of these nerves pass (20,948 2-simplices on 4 vertices)
    assert _simplex_ranks(x, chains) == list(map(len, _simplex_keys(x, chains)))


@settings(max_examples=40, deadline=None)
@given(digraphs())
def test_triangulated_homology_matches_cubical(g):
    x = nerve_levels(g, 1, 1, 2)
    assert x.identity_violations() == []
    cubical = homology_summary(x)["groups"]
    simplicial = triangulate(x).homology()["groups"]
    for deg in (0, 1):
        assert cubical[deg] == simplicial[deg]


@settings(max_examples=40, deadline=None)
@given(digraphs(max_vertices=4, max_arrows=7))
def test_classes_match_brute_force_components(g):
    src = line(2)
    classes = homotopy_classes(src, g)
    maps = naive_digraph_maps(src, g)
    edges = [
        (a, b)
        for a in maps
        for b in maps
        if a != b and naive_one_step(src, g, a, b)
    ]
    assert sorted(classes.maps) == sorted(maps)
    assert classes.n_classes == naive_components(maps, edges)


@settings(max_examples=80, deadline=None)
@given(
    digraphs(max_vertices=5, max_arrows=8),
    digraphs(max_vertices=5, max_arrows=10),
    st.data(),
)
def test_classes_match_union_find_over_the_pair_list(source, target, data):
    rel_part = data.draw(st.lists(st.sampled_from(source.vertices), unique=True))
    target_part = data.draw(
        st.none() | st.sets(st.sampled_from(target.vertices), min_size=1)
    )
    classes = homotopy_classes(source, target, rel_part, target_part)
    assert classes.class_of == union_find_classes(
        source, target, classes.maps, classes.rel_positions
    )


@settings(max_examples=60, deadline=None)
@given(digraphs(), st.data())
def test_closure_laws_random(g, data):
    subset = data.draw(st.sets(st.sampled_from(list(g.vertices))))
    for closure in (in_closure, out_closure):
        c = closure(g, subset)
        assert set(subset) <= set(c)
        assert set(closure(g, c)) == set(c)
    assert is_in_closed(g, in_closure(g, subset))


@settings(max_examples=60, deadline=None)
@given(
    digraphs(max_vertices=4, max_arrows=6),
    st.sampled_from([(1, 2), (1, 3), (2, 2)]),
)
def test_boundaries_match_dense_references(g, truncation):
    # the triangulated reference reduces degenerate cubes by the fiber test
    # and a linear scan of the tables, not by the inverted tables
    m, top = truncation
    x = nerve_levels(g, m, 1, top)
    complex_, _ = normalized_chain_complex(x)
    assert dense_boundaries(complex_) == reference_cubical_boundaries(x)
    try:
        t = triangulate(x)
    except BudgetExceeded as exc:
        # some of these nerves pass the generator ceiling (39,168
        # 2-simplices on 3 vertices and 6 arrows at m = 2), and so would
        # the dense reference
        assert "ceiling" in str(exc)
        return
    assert dense_boundaries(t.chain_complex()) == reference_triangulated_boundaries(t)


@settings(max_examples=60, deadline=None)
@given(
    digraphs(max_vertices=4, max_arrows=6),
    st.sampled_from([(1, 2), (1, 3), (2, 2), (2, 3)]),
)
def test_triangulated_columns_match_the_reference_in_order(g, truncation):
    # the rows are computed from the key order, so the keys must be sorted;
    # the reference looks each reduced face up by key, and the entries of a
    # column must come in drop order
    m, top = truncation
    try:
        x = nerve_levels(g, m, 1, top, TABLE_ORACLE_BUDGET)
        t = triangulate(x)
    except BudgetExceeded as exc:
        # at m = 2, K = 3 most of these nerves pass the cube budget, and
        # some others the generator ceiling
        assert "cubes" in str(exc) or "ceiling" in str(exc)
        return
    assert all(keys == sorted(keys) for keys in t.simplices)
    columns = t.chain_complex().columns
    reference = reference_triangulated_columns(t)
    assert [list(map(list, map(dict.items, level))) for level in columns] == [
        list(map(list, map(dict.items, level))) for level in reference
    ]


def _sparse(vector):
    return None if vector is None else {i: c for i, c in enumerate(vector) if c}


@settings(max_examples=100, deadline=None)
@given(
    digraphs(max_vertices=4, max_arrows=6),
    st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
    st.data(),
)
def test_kernel_coordinates_match_integer_solves(g, truncation, data):
    # the sparse left inverse and multiply-back check against a dense solve
    # on the kernel basis, for every boundary column and one drawn non-cycle
    m, top = truncation
    complex_, _ = normalized_chain_complex(nerve_levels(g, m, 1, top))
    for n in range(top):
        coords = HomologyCoordinates(complex_, n)
        kernel = dense_rows(coords.kernel, coords.rank)
        for sparse in complex_.columns[n + 1]:
            column = [sparse.get(i, 0) for i in range(coords.rank)]
            assert coords._kernel_coords(sparse) == _sparse(solve_integer(kernel, column))
        unbounded = [j for j, column in enumerate(complex_.columns[n]) if column]
        if not unbounded:
            continue
        # a generator with a nonzero boundary plus boundaries, which are
        # cycles: the sum's boundary is the generator's
        j = data.draw(st.sampled_from(unbounded))
        chain = [0] * coords.rank
        chain[j] = data.draw(st.sampled_from([-2, -1, 1, 2]))
        for sparse in complex_.columns[n + 1]:
            coefficient = data.draw(st.integers(-2, 2))
            for i, c in sparse.items():
                chain[i] += coefficient * c
        assert coords._kernel_coords(_sparse(chain)) is None
        assert solve_integer(kernel, chain) is None


@settings(max_examples=100, deadline=None)
@given(
    digraphs(max_vertices=4, max_arrows=6),
    st.sampled_from([(1, 1), (1, 2), (2, 1)]),
)
def test_generator_cycles_are_the_kernel_times_the_inverse_of_u(g, truncation):
    # oracle: U of the relation matrix inverted by a second Smith form, whose
    # entries explode on the relation matrices of m = 2, K = 2 (z up to 1,082)
    m, top = truncation
    complex_, _ = normalized_chain_complex(nerve_levels(g, m, 1, top))
    for n in range(top + 1):
        coords = HomologyCoordinates(complex_, n)
        rows = coords.free_rows + coords.torsion_rows
        if not rows:
            assert coords.generator_cycles() == []
            continue
        inverse = unimodular_inverse(coords.u)
        kernel = dense_rows(coords.kernel, coords.rank)
        cycles = dense_product(kernel, [[row[i] for i in rows] for row in inverse], len(rows))
        assert coords.generator_cycles() == [_sparse(column) for column in zip(*cycles)]


@settings(max_examples=80, deadline=None)
@given(digraphs(max_vertices=4, max_arrows=6), st.data())
def test_corrupted_chain_map_rejected_exactly_when_dense_check_fails(g, data):
    # a single level entry is overwritten after the naturality check ran;
    # the nondegenerate cubes carry the chain map, so they are drawn often
    target = data.draw(st.sampled_from([g, cycle(3)]))
    images = data.draw(st.sampled_from(enumerate_digraph_maps(g, target)))
    phi = DigraphMap(g, target, dict(zip(g.vertices, images)))
    cm = nerve_functor_map(phi, 1, 2)
    n = data.draw(st.integers(0, 2))
    nondegenerate = cm.source.nondegenerate_cubes(n)
    assume(nondegenerate)
    cubes = range(len(cm.source.cubes[n]))
    k = data.draw(st.sampled_from(nondegenerate) | st.sampled_from(cubes))
    cm.levels[n][k] = data.draw(st.sampled_from(range(len(cm.target.cubes[n]))))
    expected = dense_noncommuting_degree(cm)
    if expected is None:
        chain_map_matrices(cm)
    else:
        with pytest.raises(NotChainMap, match=f"boundary {expected}$"):
            chain_map_matrices(cm)


@settings(max_examples=40, deadline=None)
@given(digraphs(max_vertices=4, max_arrows=8))
def test_degeneracy_detectors_agree(g):
    x = nerve_levels(g, 1, 1, 2)
    for n in range(3):
        for k, images in enumerate(x.cubes[n]):
            fiber_verdict, _ = degenerate_cube_test(images, 1, n)
            assert fiber_verdict == (not x.nondegenerate[n][k])


@settings(max_examples=40, deadline=None)
@given(digraphs(max_vertices=4, max_arrows=8))
def test_enumeration_matches_product_filter(g):
    src = line(1)
    assert enumerate_digraph_maps(src, g) == sorted(naive_digraph_maps(src, g))


@settings(max_examples=40, deadline=None)
@given(digraphs())
def test_zero_homology_counts_components(g):
    x = nerve_levels(g, 1, 1, 1)
    h0 = homology_summary(x)["groups"][0]
    assert h0.betti == len(pi0(g))
    assert not h0.torsion
