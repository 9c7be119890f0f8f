import hashlib
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from dgh.digraph import Digraph, DigraphMap, box_product, point
from dgh import homology
from dgh.errors import (
    BudgetExceeded,
    InputError,
    InvalidCubicalSet,
    NotChainMap,
    NotConnected,
)
from dgh.homology import (
    ChainComplex,
    GroupPresentation,
    HomologyCoordinates,
    HomologyGroup,
    boundary_columns,
    chain_map_matrices,
    dense_rows,
    homology_summary,
    induced_homology_map,
    normalized_chain_complex,
    pi1_presentation,
)
from dgh.linalg import (
    _rank_and_minor,
    _replay,
    _smith,
    invariant_factors,
    kernel_basis,
    matmul,
    matrix_rank,
    smith_normal_form,
    solve_integer,
)
from dgh.nerve import nerve_functor_map, nerve_levels
from dgh.triangulation import simplicial_homology, triangulate

from conftest import (
    assert_read_rows,
    cycle,
    dense_boundaries,
    dense_noncommuting_degree,
    dense_square_defect,
    determinant,
    determinantal_divisor,
    full_scan_smith,
    identity,
    line,
    transpose,
    value_keys,
)


def Z(rank=1, torsion=()):
    return HomologyGroup(rank, torsion)


class TestSmith:
    def test_zero_matrix(self):
        u, d, v = smith_normal_form([[0, 0], [0, 0]])
        assert d == [[0, 0], [0, 0]]
        assert abs(determinant(u)) == 1 and abs(determinant(v)) == 1

    def test_hand_example(self):
        assert invariant_factors([[2, 4], [6, 8]]) == [2, 4]

    def test_divisibility_chain_and_reconstruction(self):
        a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        u, d, v = smith_normal_form(a)
        assert matmul(matmul(u, a), v) == d
        factors = [d[i][i] for i in range(3) if d[i][i]]
        for x, y in zip(factors, factors[1:]):
            assert y % x == 0

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=5, max_size=5),
            min_size=5,
            max_size=5,
        )
    )
    def test_random_reconstruction(self, a):
        u, d, v = smith_normal_form(a)
        assert matmul(matmul(u, a), v) == d
        assert abs(determinant(u)) == 1
        assert abs(determinant(v)) == 1
        diag = [d[i][i] for i in range(5)]
        assert all(x >= 0 for x in diag)
        nonzero = [x for x in diag if x]
        for x, y in zip(nonzero, nonzero[1:]):
            assert y % x == 0

    def test_kernel_and_solver(self):
        a = [[1, 2, 3], [2, 4, 6]]
        k, _ = kernel_basis(a)
        assert len(k[0]) == 2  # rank 1 in a 3-space
        for j in range(2):
            col = [k[r][j] for r in range(3)]
            assert [sum(a[i][r] * col[r] for r in range(3)) for i in range(2)] == [0, 0]
        assert solve_integer(a, [1, 2]) is not None
        assert solve_integer(a, [1, 3]) is None


@st.composite
def matrices(draw, entries, size=7):
    """Integer matrices up to size x size, 0 x n and n x 0 included, with
    some rows and columns zeroed out."""
    rows, cols = draw(st.integers(0, size)), draw(st.integers(0, size))
    dead_rows = draw(st.sets(st.integers(0, size - 1), max_size=3))
    dead_cols = draw(st.sets(st.integers(0, size - 1), max_size=3))
    return [
        [0 if i in dead_rows or j in dead_cols else draw(entries) for j in range(cols)]
        for i in range(rows)
    ]


class TestUnitPivotElimination:
    """Unit-pivot elimination against the dense Smith form and, for
    matrices without units, against determinantal divisors."""

    def check(self, a):
        u, d, _ = smith_normal_form(a)
        diagonal = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
        factors = [x for x in diagonal if x]
        assert invariant_factors(a) == factors
        assert matrix_rank(a) == len(factors)
        rows, diagonal_read, inverse = smith_normal_form(a, _build_v=False)
        assert diagonal_read == diagonal
        assert_read_rows(rows, inverse, u, d)

    @settings(max_examples=200, deadline=None)
    @given(matrices(st.integers(-3, 3)))
    def test_agrees_with_dense_smith(self, a):
        self.check(a)

    @settings(max_examples=100, deadline=None)
    @given(matrices(st.sampled_from([0, 2, -2, 3, -3, 6, -6]), 6))
    def test_residual_without_units(self, a):
        # oracle: the definition by minors; the dense Smith loop is no oracle
        # here, its entries can explode on unit-free matrices (see below)
        factors = invariant_factors(a)
        assert all(y % x == 0 for x, y in zip(factors, factors[1:]))
        for k in range(1, min(len(a), len(a[0]) if a else 0) + 1):
            expected = prod(factors[:k]) if k <= len(factors) else 0
            assert determinantal_divisor(a, k) == expected

    def test_residual_entries_stay_bounded(self):
        # without units the dense loop's entries pass 10^40 by its fifth
        # pivot on this matrix and it does not finish; modulo a minor it
        # takes milliseconds
        a = [
            [-6, 2, 4, 9, 2, 6, 0],
            [0, 2, 2, 3, 2, -2, 0],
            [6, -6, 9, -6, -6, 6, 4],
            [-6, 6, -2, 2, -6, 4, 4],
            [-2, -2, 3, -6, -2, -6, 9],
            [-6, 0, 9, 3, -2, 3, -6],
            [2, -6, -2, 6, 4, -6, 3],
            [9, 6, -2, 2, 3, -2, -6],
        ]
        assert invariant_factors(a) == [1, 1, 1, 1, 1, 2, 2]
        assert determinantal_divisor(a, 7) == 4


@st.composite
def wide_unit_rich(draw):
    """Sparse matrices up to 6 x 60 with entries in {-2, ..., 2}, most of
    them zero, so nearly every pivot is a unit."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 60))
    entries = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2])
    return draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


@st.composite
def tall_unit_rich(draw):
    """Mostly-zero matrices up to 30 x 40 with entries in {0, +-1, 2}, at
    most three nonzeros a row: long row swaps and sweeps, with nearly
    every pivot a unit.  Denser draws are no oracle test: the loop's
    entries explode on them as on unit-free blocks (about one in seven
    30 x 40 matrices of density 0.3, even with entries +-1 only)."""
    rows, cols = draw(st.integers(1, 30)), draw(st.integers(1, 40))
    entries = st.dictionaries(st.integers(0, cols - 1), st.sampled_from([1, -1, 2]), max_size=3)
    lines = draw(st.lists(entries, min_size=rows, max_size=rows))
    return [[line.get(j, 0) for j in range(cols)] for line in lines]


def diagonal_matrix(diagonal, a):
    """The matrix of a's shape with `diagonal` on its diagonal."""
    cols = len(a[0]) if a else 0
    return [[diagonal[i] if i == j else 0 for j in range(cols)] for i in range(len(a))]


class TestSmithPivotRule:
    """The Smith loop picks the same pivots as the full-scan loop of
    `conftest.full_scan_smith`, so U, D and V are equal entry for entry:
    `dgh compare` prints matrices read off U."""

    def check(self, a):
        assert smith_normal_form(a) == full_scan_smith(a)
        u, d, _ = full_scan_smith(a, with_v=False)
        rows, diagonal, inverse = smith_normal_form(a, _build_v=False)
        assert diagonal_matrix(diagonal, a) == d
        assert_read_rows(rows, inverse, u, d)
        _, minor = _rank_and_minor(a)
        modular = _smith(a, modulus=minor)[1]
        assert diagonal_matrix(modular, a) == full_scan_smith(a, modulus=minor)[1]

    @settings(max_examples=200, deadline=None)
    @given(matrices(st.integers(-3, 3)))
    def test_small_matrices(self, a):
        self.check(a)

    @settings(max_examples=100, deadline=None)
    @given(wide_unit_rich())
    def test_wide_unit_rich_matrices(self, a):
        self.check(a)

    @settings(max_examples=60, deadline=None)
    @given(tall_unit_rich())
    def test_tall_unit_rich_matrices(self, a):
        self.check(a)

    # U, D, V captured from the full-scan loop, one pivot rule each
    @pytest.mark.parametrize(
        "a, expected",
        [
            pytest.param(  # row 0's least entry is 2; the first unit is in row 1
                [[2, 3, 4], [5, 1, 7], [0, -1, 2]],
                (
                    [[0, 1, 0], [-2, 1, -5], [5, -2, 13]],
                    [[1, 0, 0], [0, 1, 0], [0, 0, 32]],
                    [[0, 1, 11], [1, -5, -62], [0, 0, 1]],
                ),
                id="unit-in-later-row",
            ),
            pytest.param(  # the -1 comes before the 1 in row 0
                [[3, -1, 1], [1, 2, 2]],
                (
                    [[-1, 0], [2, 1]],
                    [[1, 0, 0], [0, 1, 0]],
                    [[0, -1, 4], [1, -1, 5], [0, 2, -7]],
                ),
                id="minus-one-first",
            ),
            pytest.param(  # the first of three tied 2s, then the sweep
                [[4, 2, 2], [2, 6, 8]],
                ([[1, 0], [-3, 1]], [[2, 0, 0], [0, 2, 0]], [[0, 0, 1], [1, -1, -7], [0, 1, 5]]),
                id="tied-twos",
            ),
            pytest.param(  # at t = 1 the unit d[0][0] is not searched
                [[1, 0, 0], [0, 2, 3], [0, 3, 1]],
                (
                    [[1, 0, 0], [0, 0, 1], [0, -1, 3]],
                    [[1, 0, 0], [0, 1, 0], [0, 0, 7]],
                    [[1, 0, 0], [0, 0, 1], [0, 1, -3]],
                ),
                id="unit-left-of-t",
            ),
            pytest.param(  # 2 does not divide 3: the sweep adds row 1 to row 0
                [[2, 0], [0, 3]],
                ([[1, 1], [3, 2]], [[1, 0], [0, 6]], [[-1, 3], [1, -2]]),
                id="divisibility-sweep",
            ),
        ],
    )
    def test_pinned_pivots(self, a, expected):
        assert smith_normal_form(a) == expected
        u, d, _ = expected
        rows, diagonal, inverse = smith_normal_form(a, _build_v=False)
        assert diagonal_matrix(diagonal, a) == d
        assert_read_rows(rows, inverse, u, d)
        assert full_scan_smith(a) == expected


class TestKernelBasis:
    """`kernel_basis` reads V off its one Smith form: the kernel is the last
    n - r columns of the full-scan oracle's V, the left inverse is one,
    and the column log replayed inverted is V's two-sided inverse."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(matrices(st.integers(-3, 3)), wide_unit_rich(), tall_unit_rich()))
    @example([[]])
    @example([[0, 0, 0]])
    @example([[0], [0]])
    @example([[0, 0], [0, 0]])
    @example([[0, 2, 0], [0, -4, 0]])
    @example([[1, 0, 3], [0, 0, 0]])
    def test_against_full_scan(self, a):
        cols = len(a[0]) if a else 0
        _, d, v = full_scan_smith(a)
        r = sum(1 for i in range(min(len(d), cols)) if d[i][i])
        kernel, left_inverse = kernel_basis(a)
        assert kernel == [row[r:] for row in v]
        assert matmul(left_inverse, kernel) == identity(cols - r)
        v_inv = _replay(_smith(a)[2], cols, range(cols), inverse=True)
        assert matmul(v, v_inv) == identity(cols) == matmul(v_inv, v)


class TestKernelCoordinates:
    def test_agree_with_solve_integer(self, c3):
        complex_, _ = normalized_chain_complex(nerve_levels(c3, 1, 1, 3))
        for n in (0, 1, 2):
            coords = HomologyCoordinates(complex_, n)
            dense = transpose(dense_boundaries(complex_)[n + 1])
            kernel = dense_rows(coords.kernel, coords.rank)
            for column, sparse in zip(dense, complex_.columns[n + 1], strict=True):
                alpha = coords._kernel_coords(sparse)
                assert alpha is not None
                solution = solve_integer(kernel, column)
                assert alpha == {i: c for i, c in enumerate(solution) if c}

    def test_non_cycle_has_no_coordinates(self, c3):
        complex_, _ = normalized_chain_complex(nerve_levels(c3, 1, 1, 3))
        coords = HomologyCoordinates(complex_, 1)
        edge = [1] + [0] * (complex_.ranks[1] - 1)  # one edge has two ends
        assert coords._kernel_coords({0: 1}) is None
        assert solve_integer(dense_rows(coords.kernel, coords.rank), edge) is None


class TestChainComplex:
    def test_point(self):
        x = nerve_levels(point(), 1, 1, 2)
        complex_, _ = normalized_chain_complex(x)
        assert complex_.ranks == [1, 0, 0]

    def test_cycle_ranks_and_boundaries(self, c3):
        x = nerve_levels(c3, 1, 1, 2)
        complex_, bases = normalized_chain_complex(x)
        assert complex_.ranks == [3, 3, 3]
        # signed incidence of the 3-cycle: each column has a +1 and a -1
        boundaries = dense_boundaries(complex_)
        for col in range(3):
            column = [boundaries[1][row][col] for row in range(3)]
            assert sorted(column) == [-1, 0, 1]
        # staircase squares have vanishing boundary
        assert all(
            all(entry == 0 for entry in row) for row in boundaries[2]
        )

    def test_boundary_squared_rejected(self):
        with pytest.raises(InputError):
            ChainComplex([1, 1, 1], [[{0: 1}], [{0: 1}]])

    def test_boundary_squared_rejected_in_degree_three(self):
        assert dense_square_defect([1, 1, 1, 1], [[], [[0]], [[1]], [[1]]]) == 3
        with pytest.raises(InputError, match="boundary squared is nonzero in degree 3"):
            ChainComplex([1, 1, 1, 1], [[{}], [{0: 1}], [{0: 1}]])

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_sparse_square_check_matches_dense_products(self, data):
        ranks = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=5))

        def column(length):
            entries = data.draw(st.lists(st.integers(-2, 2), min_size=length, max_size=length))
            return {r: c for r, c in enumerate(entries) if c}

        columns = [
            [column(ranks[n - 1]) for _ in range(ranks[n])] for n in range(1, len(ranks))
        ]
        dense = [[]] + [
            [[column.get(r, 0) for column in columns[n - 1]] for r in range(ranks[n - 1])]
            for n in range(1, len(ranks))
        ]
        expected = dense_square_defect(ranks, dense)
        if expected is None:
            assert dense_boundaries(ChainComplex(ranks, columns)) == dense
        else:
            with pytest.raises(InputError, match=f"nonzero in degree {expected}$"):
                ChainComplex(ranks, columns)

    def test_generator_ceiling_checked_before_columns_are_read(self):
        def unread():
            raise AssertionError("columns read before the ceiling check")
            yield

        with pytest.raises(BudgetExceeded, match="chain group 1 has 20001 generators"):
            ChainComplex([1, 20001], unread())

    def test_boundary_columns_sum_and_drop_zeros(self):
        faces = {"a": [(0, 1), (1, -1), (0, -1), (None, 1)], "b": [(2, 1), (2, 1)]}
        assert boundary_columns("ab", faces.get) == [{1: -1}, {2: 2}]


class TestChainMapCheck:
    def test_every_single_corruption_of_the_square_identity(self):
        # each level entry of id_N(square) overwritten with each cube of its
        # level: rejected exactly when a dense commutation square fails
        sq = box_product(line(1), line(1))
        seen = set()
        for n, size in enumerate(nerve_levels(sq, 1, 1, 2).counts()["cubes"]):
            for k in range(size):
                for value in range(size):
                    cm = nerve_functor_map(DigraphMap.identity(sq), 1, 2)
                    cm.levels[n][k] = value
                    expected = dense_noncommuting_degree(cm)
                    seen.add(expected)
                    if expected is None:
                        chain_map_matrices(cm)
                    else:
                        with pytest.raises(NotChainMap, match=f"boundary {expected}$"):
                            chain_map_matrices(cm)
        assert seen == {None, 1, 2}


class TestHomology:
    def test_cycles(self):
        for n in (3, 4, 5, 6):
            summary = homology_summary(nerve_levels(cycle(n), 1, 1, 2))
            assert summary["groups"][0] == Z()
            assert summary["groups"][1] == Z()
            assert summary["truncated_top"]

    def test_point(self):
        summary = homology_summary(nerve_levels(point(), 1, 1, 2))
        assert summary["groups"][0] == Z()
        assert summary["groups"][1] == Z(0)

    def test_unit_square_contractible_below_top(self):
        sq = box_product(line(1), line(1))
        summary = homology_summary(nerve_levels(sq, 1, 1, 2))
        assert summary["groups"][0] == Z()
        assert summary["groups"][1] == Z(0)

    def test_o_example(self, o_digraph):
        summary = homology_summary(nerve_levels(o_digraph, 1, 1, 2))
        assert summary["groups"][0] == Z()
        assert summary["groups"][1] == Z()

    def test_o_example_m2(self, o_digraph):
        # 172 1-cubes and 9,512 2-cubes; the truncated top degree is not read
        summary = homology_summary(nerve_levels(o_digraph, 2, 1, 2))
        assert summary["groups"][0] == Z()
        assert summary["groups"][1] == Z()


class TestInducedMaps:
    def test_identity(self, c3):
        cm = nerve_functor_map(DigraphMap.identity(c3), 1, 2)
        info = induced_homology_map(cm, 1)
        assert info["iso"] and info["matrix"] == [[1]]

    def test_boundary_into_o(self, o_digraph, boundary44):
        incl = DigraphMap(
            boundary44, o_digraph, {v: v for v in boundary44.vertices}
        )
        cm = nerve_functor_map(incl, 1, 2)
        for deg in (0, 1):
            info = induced_homology_map(cm, deg)
            assert info["iso"]
            assert info["matrix"] in ([[1]], [[-1]])

    def test_constant_kills_h1(self, c3):
        const = DigraphMap.constant(c3, c3, 0)
        cm = nerve_functor_map(const, 1, 2)
        info = induced_homology_map(cm, 1)
        assert info["matrix"] == [[0]]
        assert not info["iso"]

    def test_composition_functorial_on_h1(self, c3):
        rot = DigraphMap(c3, c3, {0: 1, 1: 2, 2: 0})
        from dgh.linalg import matmul

        cm_rot = nerve_functor_map(rot, 1, 2)
        cm_sq = nerve_functor_map(rot.compose(rot), 1, 2)
        m1 = induced_homology_map(cm_rot, 1)["matrix"]
        m2 = induced_homology_map(cm_sq, 1)["matrix"]
        assert matmul(m1, m1) == m2


class TestPi1:
    def test_cycle(self, c3):
        x = nerve_levels(c3, 1, 1, 2)
        pres = pi1_presentation(x, 0)
        assert len(pres.generators) == 1
        assert pres.relators == []
        assert pres.abelianization() == Z()

    def test_unit_square_trivial_after_tietze(self):
        sq = box_product(line(1), line(1))
        x = nerve_levels(sq, 1, 1, 2)
        pres = pi1_presentation(x, (0, 0))
        reduced = pres.tietze_reduced()
        assert reduced.generators == []
        assert reduced.relators == []

    def test_abelianization_matches_h1_on_corpus(self, c3, o_digraph):
        fan = Digraph(["a", "b", "c"], [("b", "a"), ("b", "c")])
        for g, base in ((c3, 0), (fan, "b"), (o_digraph, (0, 0))):
            x = nerve_levels(g, 1, 1, 2)
            ab = pi1_presentation(x, base).abelianization()
            h1 = homology_summary(x)["groups"][1]
            assert ab == h1

    def test_disconnected_rejected(self):
        g = Digraph(["a", "b"])
        x = nerve_levels(g, 1, 1, 2)
        with pytest.raises(NotConnected):
            pi1_presentation(x, "a")


class TestTriangulation:
    def test_square_cube_two_triangles(self):
        sq = box_product(line(1), line(1))
        t = triangulate(nerve_levels(sq, 1, 1, 2))
        # one nondegenerate square contributes 2 triangles; the two
        # staircases and the transpose contribute the rest
        top = [s for s in t.simplices[2]]
        assert len(top) >= 2
        id_square_triangles = [
            s for s in top if s[0] == 2 and len(s[2]) == 3
        ]
        assert len(id_square_triangles) == len(top)

    def test_cycle_homology_agrees(self, c3):
        x = nerve_levels(c3, 1, 1, 2)
        cub = homology_summary(x)
        tri = triangulate(x).homology()
        for deg in (0, 1):
            assert cub["groups"][deg] == tri["groups"][deg]

    def test_o_homology_agrees(self, o_digraph):
        x = nerve_levels(o_digraph, 1, 1, 2)
        cub = homology_summary(x)
        tri = triangulate(x).homology()
        for deg in (0, 1):
            assert cub["groups"][deg] == tri["groups"][deg]

    def test_intersections_preserved(self, o_digraph):
        # sub-nerves of two cover members: T of the intersection equals the
        # intersection of the T images, basis element by basis element
        rows01 = [v for v in o_digraph.vertices if v[0] in (0, 1)]
        cols01 = [v for v in o_digraph.vertices if v[1] in (0, 1)]
        both = [v for v in rows01 if v in set(cols01)]
        t_rows = triangulate(nerve_levels(o_digraph.induced(rows01), 1, 1, 2))
        t_cols = triangulate(nerve_levels(o_digraph.induced(cols01), 1, 1, 2))
        t_both = triangulate(nerve_levels(o_digraph.induced(both), 1, 1, 2))
        for k in (0, 1, 2):
            assert value_keys(t_both, k) == value_keys(t_rows, k) & value_keys(t_cols, k)

    def test_simplicial_complex_homology(self):
        square_cycle = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]
        summary = simplicial_homology(square_cycle)
        assert summary["groups"][0] == Z()
        assert summary["groups"][1] == Z()

    def test_oracles_agree_on_two_cycle(self):
        # arrows both ways create nondegenerate squares with repeated
        # corners, so the triangulation must carry loop edges correctly
        g = Digraph(["a", "b"], [("a", "b"), ("b", "a")])
        x = nerve_levels(g, 1, 1, 2)
        cub = homology_summary(x)["groups"]
        tri = triangulate(x).homology()["groups"]
        for deg in (0, 1):
            assert cub[deg] == tri[deg]
        assert cub[1].betti == 0  # the double arrow is invisible below the top

    def test_oracles_agree_on_power_and_sphere(self, c3):
        from dgh.digraph import power_digraph
        from dgh.intervals import sphere_digraph, standard_interval

        extras = [
            power_digraph(c3, 2),
            sphere_digraph(standard_interval(2), 1).ambient,
            sphere_digraph(standard_interval(4), 1).ambient,
        ]
        for g in extras:
            x = nerve_levels(g, 1, 1, 2)
            cub = homology_summary(x)["groups"]
            tri = triangulate(x).homology()["groups"]
            for deg in (0, 1):
                assert cub[deg] == tri[deg]


    def test_k4_triangulation_of_c3_is_pinned(self, c3, monkeypatch):
        # over the generator ceiling (31,314 2-simplices), so lifted here
        # only; the digest was taken from the per-simplex face walk that
        # the group walk replaced, and ChainComplex checks d o d on the way
        monkeypatch.setattr(homology, "MAX_MATRIX_DIM", 100_000)
        complex_ = triangulate(nerve_levels(c3, 1, 1, 4)).chain_complex()
        assert complex_.ranks == [3, 2268, 31314, 80082, 53208]
        digest = hashlib.sha256()
        for n, columns in enumerate(complex_.columns):
            digest.update(f"{n}:".encode())
            for column in columns:
                digest.update(repr(list(column.items())).encode())
        assert digest.hexdigest() == (
            "e37c799036762dc8671d25ab99560c1e55e5f9817e8e7e4ed6a136fef18431d0"
        )

    @pytest.mark.parametrize("level", [1, 2])
    @pytest.mark.parametrize("where", ["before", "past"])
    def test_face_reduced_to_no_simplex_is_invalid(self, c3, level, where):
        # a corrupted d_(1,0) whose entries name no cube of level - 1: the
        # faces that keep only the first corner walk into it, at level 2
        # on the way into d_(1,0) of level 1
        x = nerve_levels(c3, 1, 1, 2)
        bad = -1 if where == "before" else len(x.cubes[level - 1])
        x.faces[level][(1, 0)] = [bad] * len(x.cubes[level])
        t = triangulate(x)
        with pytest.raises(InvalidCubicalSet, match="face reduced to an unknown simplex"):
            t.chain_complex()


class TestPresentationUtilities:
    def test_relator_letters_validated(self):
        with pytest.raises(InputError):
            GroupPresentation(["a"], [((1, 1),)])

    def test_abelianization_torsion(self):
        pres = GroupPresentation(["a"], [((0, 1), (0, 1))])
        assert pres.abelianization() == HomologyGroup(0, (2,))
