"""Shared fixtures and independent oracle helpers.

Oracles here deliberately avoid the library's enumeration/backtracking
paths and its composed index maps: plain product scans, all-pairs and
per-cube loops, BFS, and Floyd-Warshall, so agreement is a genuine
cross-check.
"""

from fractions import Fraction
from itertools import chain, combinations, product, repeat
from math import gcd
from operator import add, contains, mul

import pytest

from dgh.config import DEFAULT_MAX_MAPS
from dgh.coverings import _squares_by_enumeration, is_one_covering
from dgh.digraph import (
    Digraph,
    DigraphMap,
    box_product,
    enumerate_digraph_maps,
    one_step_pairs,
    pi0,
)
from dgh.intervals import standard_interval
from dgh.covers import out_closure
from dgh.homology import dense_rows
from dgh.nerve import (
    _drop,
    _grid,
    _insert,
    _merge,
    cube_realization,
    mixed_realization,
    rho_bar_function,
)



def degenerate_cube_test(images, m, n):
    """Fiber-constancy test against every realized degeneracy and connection.

    Returns (True, witness) with witness ("sigma", i) or ("gamma", i, eps),
    or (False, None) when the cube is nondegenerate.
    """
    grid = _grid(m, n)
    lookup = dict(zip(grid, images))

    def constant_on_fibers(q):
        classes = {}
        for pt in grid:
            key = q(pt)
            val = lookup[pt]
            if classes.setdefault(key, val) != val:
                return False
        return True

    for i in range(1, n + 1):
        if constant_on_fibers(lambda pt, i=i: _drop(pt, i)):
            return True, ("sigma", i)
    for i in range(1, n):
        for eps in (0, 1):
            if constant_on_fibers(lambda pt, i=i, e=eps: _merge(pt, i, e)):
                return True, ("gamma", i, eps)
    return False, None

def cycle(n):
    return Digraph(range(n), [(i, (i + 1) % n) for i in range(n)])


def line(n, sign=1):
    return standard_interval(n, sign).to_digraph()


@pytest.fixture(scope="session")
def c3():
    return cycle(3)


@pytest.fixture(scope="session")
def c6():
    return cycle(6)


@pytest.fixture(scope="session")
def grid44():
    return box_product(line(4), line(4))


@pytest.fixture(scope="session")
def boundary44(grid44):
    verts = [v for v in grid44.vertices if v[0] in (0, 4) or v[1] in (0, 4)]
    return grid44.induced(verts)


@pytest.fixture(scope="session")
def o_digraph(grid44):
    boundary = [v for v in grid44.vertices if v[0] in (0, 4) or v[1] in (0, 4)]
    return grid44.induced(out_closure(grid44, boundary))


# -- independent oracles ----------------------------------------------------------


def naive_digraph_maps(g, h, pinned=None):
    """All digraph maps by filtering the full assignment product, in the
    product's order: each vertex ranges over its tuple in `pinned`, or else
    over every target vertex in target order."""
    pinned = pinned or {}
    pos = {v: k for k, v in enumerate(g.vertices)}
    arrows = [(pos[u], pos[v]) for u, v in g.arrows]
    allowed = set(h.arrows) | {(v, v) for v in h.vertices}
    return [
        images
        for images in product(*[pinned.get(v, h.vertices) for v in g.vertices])
        if all((images[i], images[j]) in allowed for i, j in arrows)
    ]


def naive_one_step(g, h, a, b):
    return all(x == y or (x, y) in h.arrows for x, y in zip(a, b))


def all_pairs_one_step(target, maps, rel_positions=()):
    """Every ordered pair of maps scanned for an arrow maps[a] -> maps[b] in
    the (relative) box hom: the reference for `digraph.one_step_pairs`."""
    pairs = []
    for a, images_a in enumerate(maps):
        allowed = [{x, *target.successors(x)} for x in images_a]
        for p in rel_positions:
            allowed[p] = {images_a[p]}
        pairs.extend(
            (a, b)
            for b, images_b in enumerate(maps)
            if a != b and all(map(contains, allowed, images_b))
        )
    return pairs


class UnionFind:
    """Disjoint sets on 0..n-1; each root is the least member of its set."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)


def union_find_classes(source, target, maps, rel_positions=()):
    """Class of each map by the earlier route of `homotopy_classes`: list
    every one-step pair, union the pairs one at a time, and number the
    classes by least member.  The reference for `one_step_components`."""
    uf = UnionFind(len(maps))
    for a, b in one_step_pairs(source, target, maps, rel_positions):
        uf.union(a, b)
    roots = {}
    return [roots.setdefault(uf.find(k), len(roots)) for k in range(len(maps))]


def hypothesis_two_grade(a, b):
    """Grade of hypothesis 2 of `check_lifting_hypotheses` by the boolean
    transitive closure (Warshall) of the linked relation.

    For each vertex x of b, its in-neighbours u, v from a (arrow or
    equality u -> x in b) are linked when some w of a has w -> u and
    w -> v, arrows or equality, in a.  "pairwise" when every such pair is
    linked, "connected" when the closure links every pair at each x, and
    False when it does not at some x."""

    def step(u, v):
        return u == v or (u, v) in a.arrows

    grades = set()
    for x in b.vertices:
        ins = [u for u in a.vertices if u == x or (u, x) in b.arrows]
        reach = {
            (u, v): any(step(w, u) and step(w, v) for w in a.vertices)
            for u in ins
            for v in ins
        }
        if all(reach.values()):
            continue
        for k in ins:
            for u in ins:
                for v in ins:
                    reach[u, v] = reach[u, v] or (reach[u, k] and reach[k, v])
        grades.add("connected" if all(reach.values()) else "split")
    if "split" in grades:
        return False
    return "connected" if grades else "pairwise"


def is_isomorphic(g, h):
    """Backtracking isomorphism test; intended for small digraphs."""
    if len(g.vertices) != len(h.vertices) or len(g.arrows) != len(h.arrows):
        return False
    gin = {v: len(g.predecessors(v)) for v in g.vertices}
    gout = {v: len(g.successors(v)) for v in g.vertices}
    hin = {v: len(h.predecessors(v)) for v in h.vertices}
    hout = {v: len(h.successors(v)) for v in h.vertices}
    gv = list(g.vertices)
    used = set()
    match = {}

    def extend(k):
        if k == len(gv):
            return True
        v = gv[k]
        for w in h.vertices:
            if w in used or gin[v] != hin[w] or gout[v] != hout[w]:
                continue
            good = True
            for u in gv[:k]:
                mu = match[u]
                if ((u, v) in g.arrows) != ((mu, w) in h.arrows):
                    good = False
                    break
                if ((v, u) in g.arrows) != ((w, mu) in h.arrows):
                    good = False
                    break
            if good:
                match[v] = w
                used.add(w)
                if extend(k + 1):
                    return True
                used.remove(w)
                del match[v]
        return False

    return extend(0)


def rho_bar(m, n, j):
    """The rho-bar map (rho after capping the last cube coordinate to
    {0, 1, 2}) as a DigraphMap, which checks the map property."""
    big, small = standard_interval(m + 2), standard_interval(m)
    domain = cube_realization(big, n + 1)
    target = mixed_realization([big] * (j + 1) + [small] * (n - j - 1))
    image = rho_bar_function(m, n, j)
    return DigraphMap(domain, target, {v: image(v) for v in domain.vertices})


def value_keys(t, k):
    """The k-simplex keys of the triangulation t with the carrier cube given
    by value, for comparing triangulations of sub-nerves inside a common
    ambient nerve."""
    return {
        (level, t.x.cubes[level][cube], chain) for (level, cube, chain) in t.simplices[k]
    }


def naive_components(vertices, edges):
    """BFS components over an explicit symmetric edge list."""
    adjacency = {v: set() for v in vertices}
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    seen = set()
    count = 0
    for v in vertices:
        if v in seen:
            continue
        count += 1
        stack = [v]
        seen.add(v)
        while stack:
            x = stack.pop()
            for y in adjacency[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return count


def floyd_warshall(g):
    big = float("inf")
    verts = list(g.vertices)
    dist = {(u, v): (0 if u == v else big) for u in verts for v in verts}
    for u, v in g.arrows:
        dist[(u, v)] = 1
    for k in verts:
        for i in verts:
            for j in verts:
                alt = dist[(i, k)] + dist[(k, j)]
                if alt < dist[(i, j)]:
                    dist[(i, j)] = alt
    return dist


def determinant(a):
    """Gaussian elimination over the rationals; exact for integer matrices."""
    n = len(a)
    if n == 0:
        return 1
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] / inv
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    assert det.denominator == 1
    return int(det)


def determinantal_divisor(a, k):
    """gcd of all k x k minors of `a` (0 when k exceeds the rank); the
    invariant factors satisfy d_1 * ... * d_k = this divisor."""
    rows, cols = len(a), len(a[0]) if a else 0
    out = 0
    for rs in combinations(range(rows), k):
        for cs in combinations(range(cols), k):
            out = gcd(out, determinant([[a[i][j] for j in cs] for i in rs]))
    return out


def naive_identity_violations(x):
    """The full cubical identity list of a TruncatedCubicalSet, checked cube
    by cube: the reference for `identity_violations`."""
    out = []
    K = x.top_dim
    F, S, C = x.faces, x.degens, x.connections
    at, notes = _stray_reader(_table_names(x))

    def bad(name, detail):
        out.append(f"{name}: {detail}" + "".join(notes))
        notes.clear()

    for n in range(2, K + 1):  # face-face
        for j in range(1, n + 1):
            for i in range(j, n):
                for e in (0, 1):
                    for e2 in (0, 1):
                        for c in range(len(x.cubes[n])):
                            lhs = at(F[n - 1][(i, e)], F[n][(j, e2)], c)
                            rhs = at(F[n - 1][(j, e2)], F[n][(i + 1, e)], c)
                            if lhs != rhs:
                                bad("face-face", (n, i, j, e, e2, c))
    for n in range(1, K + 1):  # face-degeneracy
        for j in range(1, n + 1):
            for i in range(1, n + 1):
                for e in (0, 1):
                    for c in range(len(x.cubes[n - 1])):
                        lhs = at(F[n][(i, e)], S[n][j], c)
                        if j == i:
                            rhs = c
                        elif j < i:
                            rhs = at(S[n - 1][j], F[n - 1][(i - 1, e)], c)
                        else:
                            rhs = at(S[n - 1][j - 1], F[n - 1][(i, e)], c)
                        if lhs != rhs:
                            bad("face-degeneracy", (n, i, j, e, c))
    for n in range(1, K):  # degeneracy-degeneracy
        for i in range(1, n + 1):
            for j in range(1, i + 1):
                for c in range(len(x.cubes[n - 1])):
                    lhs = at(S[n + 1][j], S[n][i], c)
                    rhs = at(S[n + 1][i + 1], S[n][j], c)
                    if lhs != rhs:
                        bad("degeneracy-degeneracy", (n, i, j, c))
    for n in range(2, K):  # connection-connection
        for j in range(1, n):
            for i in range(1, n + 1):
                for e in (0, 1):
                    for e2 in (0, 1):
                        if not (j > i or (i == j and e == e2)):
                            continue
                        if j > i and i > n - 1:
                            continue
                        for c in range(len(x.cubes[n - 1])):
                            lhs = at(C[n + 1][(i, e)], C[n][(j, e2)], c)
                            if j > i:
                                rhs = at(C[n + 1][(j + 1, e2)], C[n][(i, e)], c)
                            else:
                                rhs = at(C[n + 1][(i + 1, e)], C[n][(i, e)], c)
                            if lhs != rhs:
                                bad("connection-connection", (n, i, j, e, e2, c))
    for n in range(2, K + 1):  # face-connection
        for j in range(1, n):
            for i in range(1, n + 1):
                for e in (0, 1):
                    for e2 in (0, 1):
                        for c in range(len(x.cubes[n - 1])):
                            lhs = at(F[n][(i, e)], C[n][(j, e2)], c)
                            if j < i - 1:
                                rhs = at(C[n - 1][(j, e2)], F[n - 1][(i - 1, e)], c)
                            elif j > i:
                                rhs = at(C[n - 1][(j - 1, e2)], F[n - 1][(i, e)], c)
                            elif e == e2:
                                rhs = c
                            else:
                                rhs = at(S[n - 1][j], F[n - 1][(j, e)], c)
                            if lhs != rhs:
                                bad("face-connection", (n, i, j, e, e2, c))
    for n in range(1, K):  # connection-degeneracy
        for j in range(1, n + 1):
            for i in range(1, n + 1):
                for e in (0, 1):
                    for c in range(len(x.cubes[n - 1])):
                        lhs = at(C[n + 1][(i, e)], S[n][j], c)
                        if j < i:
                            rhs = at(S[n + 1][j], C[n][(i - 1, e)], c)
                        elif j == i:
                            rhs = at(S[n + 1][i], S[n][i], c)
                        else:
                            rhs = at(S[n + 1][j + 1], C[n][(i, e)], c)
                        if lhs != rhs:
                            bad("connection-degeneracy", (n, i, j, e, c))
    return out


def naive_naturality_violations(cmap):
    """Naturality of a CubicalMap, checked cube by cube: the reference for
    `naturality_violations`."""
    out = []
    X, Y, L = cmap.source, cmap.target, cmap.levels
    names = _table_names(X)
    names.update((id(level), f"levels[{n}]") for n, level in enumerate(L))
    at, notes = _stray_reader(names)

    def bad(msg):
        out.append(msg + "".join(notes))
        notes.clear()

    for n in range(1, X.top_dim + 1):
        for key, table in X.faces[n].items():
            for c in range(len(X.cubes[n])):
                if at(L[n - 1], table, c) != at(Y.faces[n][key], L[n], c):
                    bad(f"face {key} at level {n} not natural")
        for key, table in X.degens[n].items():
            for c in range(len(X.cubes[n - 1])):
                if at(L[n], table, c) != at(Y.degens[n][key], L[n - 1], c):
                    bad(f"degeneracy {key} at level {n} not natural")
        for key, table in X.connections[n].items():
            for c in range(len(X.cubes[n - 1])):
                if at(L[n], table, c) != at(Y.connections[n][key], L[n - 1], c):
                    bad(f"connection {key} at level {n} not natural")
    return out


def _table_names(x):
    """Each structure table of x by id, named as it is read off x."""
    return {
        id(table): f"{attr}[{n}][{key}]"
        for attr in ("faces", "degens", "connections")
        for n, tables in enumerate(getattr(x, attr))
        for key, table in tables.items()
    }


def _stray_reader(names):
    """at(outer, inner, c) reads outer[inner[c]]; when inner[c] is outside
    0..len(outer)-1 it notes the entry in `notes`, naming the inner table by
    `names`, and returns a marker equal to nothing else."""
    notes = []

    def at(outer, inner, c):
        y = inner[c]
        if 0 <= y < len(outer):
            return outer[y]
        notes.append(f", {names[id(inner)]}[{c}] = {y} outside 0..{len(outer) - 1}")
        return object()

    return at, notes


# -- image-tuple structure tables -------------------------------------------------
#
# Every table entry found by reading a cube at grid positions and looking the
# image tuple up in a dict over the whole target level: the reference for the
# walk ranks of `TruncatedCubicalSet` and of the slice-wise level maps.


def _image_lookup(index, cubes, rows):
    """Each cube read at the grid positions `rows`, located in `index`."""
    return [index[tuple(cube[r] for r in rows)] for cube in cubes]


def image_tuple_tables(x):
    """(faces, degens, connections) of a TruncatedCubicalSet, rebuilt by
    image-tuple lookup."""
    index = [{cube: k for k, cube in enumerate(level)} for level in x.cubes]
    m, K = x.m, x.top_dim
    faces, degens, connections = ([dict() for _ in range(K + 1)] for _ in range(3))
    for n in range(1, K + 1):
        small, big = _grid(m, n - 1), _grid(m, n)
        small_ix = {pt: k for k, pt in enumerate(small)}
        big_ix = {pt: k for k, pt in enumerate(big)}
        for i in range(1, n + 1):
            for eps in (0, 1):
                rows = [big_ix[_insert(pt, i, eps * m)] for pt in small]
                faces[n][(i, eps)] = _image_lookup(index[n - 1], x.cubes[n], rows)
        for i in range(1, n + 1):
            rows = [small_ix[_drop(pt, i)] for pt in big]
            degens[n][i] = _image_lookup(index[n], x.cubes[n - 1], rows)
        for i in range(1, n):
            for eps in (0, 1):
                rows = [small_ix[_merge(pt, i, eps)] for pt in big]
                connections[n][(i, eps)] = _image_lookup(index[n], x.cubes[n - 1], rows)
    return faces, degens, connections


def image_tuple_functor_levels(phi, src, dst):
    """The levels of the nerve functor map of phi: src -> dst, each cube's
    images mapped by phi and looked up in dst."""
    out = []
    for src_level, dst_level in zip(src.cubes, dst.cubes):
        index = {cube: k for k, cube in enumerate(dst_level)}
        out.append([index[tuple(phi.assignment[v] for v in cube)] for cube in src_level])
    return out


def image_tuple_comparison_levels(t, src, dst):
    """The levels of precomposition with the interval map t (a dict from
    the dst side to the src side) from src to dst, by grid rows."""
    out = []
    for n, (src_level, dst_level) in enumerate(zip(src.cubes, dst.cubes)):
        small_ix = {pt: k for k, pt in enumerate(_grid(src.m, n))}
        rows = [small_ix[tuple(t[c] for c in pt)] for pt in _grid(dst.m, n)]
        index = {cube: k for k, cube in enumerate(dst_level)}
        out.append(_image_lookup(index, src_level, rows))
    return out


# -- the walk expansion in list form -------------------------------------------
#
# The reference for `nerve._extended` and `nerve._walk_sums`, which add in
# packed fixed-width lanes: the same expansion with one int addition per
# walk.


def list_extended(ends, sums, step, offsets):
    """The prefixes ending at ends[x] with sums[x], each extended by every
    arrow e of `step` (`nerve._step_arrows`) from its end, in order: the
    heads reached and the sums plus offsets[e], as lists."""
    _, _, bounds, heads, counts = step
    blocks = [offsets[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    repeated = chain.from_iterable(map(repeat, sums, map(counts.__getitem__, ends)))
    grown = list(map(add, repeated, chain.from_iterable(map(blocks.__getitem__, ends))))
    return list(chain.from_iterable(map(heads.__getitem__, ends))), grown


def list_walk_sums(arrows, first, offsets):
    """For each walk d_0 ... d_k along `arrows` (`nerve._step_arrows` per
    step), in lexicographic order, first[d_0] plus offsets[i][e] for the
    arrow e taken at each step i: the one-cube walks, extended step by step
    by `list_extended`."""
    ends, sums = range(len(first)), first
    for step, values in zip(arrows, offsets):
        ends, sums = list_extended(ends, sums, step, values)
    return list(sums)


# -- dense chain-complex references ---------------------------------------------
#
# Boundaries and chain maps as dense row lists built cell by cell, and the
# d∘d and commutation checks as dense products: the references for the
# sparse columns of `dgh.homology.ChainComplex` and `chain_map_matrices`.


def dense_product(a, b, width):
    """The product of row-list matrices, b having `width` columns."""
    out = []
    for arow in a:
        row = [0] * width
        for x, brow in zip(arow, b):
            if x:
                for j, y in enumerate(brow):
                    row[j] += x * y
        out.append(row)
    return out


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def dense_boundaries(complex_):
    """Every boundary map of a chain complex as the dense rows `linalg`
    reads (degree 0's map has no rows)."""
    return [
        dense_rows(columns, rows) for columns, rows in zip(complex_.columns, [0, *complex_.ranks])
    ]


def reference_cubical_boundaries(x):
    """Dense boundaries of the normalized cubical complex: alternating face
    sums over the nondegenerate cubes, degenerate faces dropped."""
    bases = [x.nondegenerate_cubes(n) for n in range(x.top_dim + 1)]
    out = [[]]
    for n in range(1, x.top_dim + 1):
        rows = {cube: k for k, cube in enumerate(bases[n - 1])}
        mat = [[0] * len(bases[n]) for _ in rows]
        for col, cube in enumerate(bases[n]):
            for i in range(1, n + 1):
                for eps, s in ((1, (-1) ** i), (0, -((-1) ** i))):
                    face = x.faces[n][(i, eps)][cube]
                    if face in rows:
                        mat[rows[face]][col] += s
        out.append(mat)
    return out


def reference_reduce(x, level, cube, chain):
    """The canonical representative of (cube, corner chain), or None: the
    fiber test picks the degeneracy or connection witness and a linear scan
    of its table finds the core cube."""
    while True:
        if any(a == b for a, b in zip(chain, chain[1:])):
            return None
        facet = next(
            (
                (axis, eps)
                for axis in range(level)
                for eps in (0, 1)
                if all(pt[axis] == eps for pt in chain)
            ),
            None,
        )
        if facet is not None:
            axis, eps = facet
            cube = x.faces[level][(axis + 1, eps)][cube]
            chain = tuple(pt[:axis] + pt[axis + 1 :] for pt in chain)
            level -= 1
            continue
        if x.nondegenerate[level][cube]:
            return (level, cube, chain)
        degenerate, witness = degenerate_cube_test(x.cubes[level][cube], x.m, level)
        assert degenerate, "degeneracy tables and fiber test disagree"
        if witness[0] == "sigma":
            i = witness[1]
            table = x.degens[level][i]
            chain = tuple(pt[: i - 1] + pt[i:] for pt in chain)
        else:
            _, i, eps = witness
            table = x.connections[level][(i, eps)]
            op = max if eps == 0 else min
            chain = tuple(
                pt[: i - 1] + (op(pt[i - 1], pt[i]),) + pt[i + 1 :] for pt in chain
            )
        cube = table.index(cube)
        level -= 1


def reference_triangulated_boundaries(t):
    """Dense boundaries of a triangulation's simplices, each face reduced
    by `reference_reduce`."""
    out = [[]]
    for k in range(1, len(t.simplices)):
        rows = {simplex: k for k, simplex in enumerate(t.simplices[k - 1])}
        mat = [[0] * len(t.simplices[k]) for _ in rows]
        for col, (level, cube, chain) in enumerate(t.simplices[k]):
            for drop in range(len(chain)):
                face = reference_reduce(t.x, level, cube, chain[:drop] + chain[drop + 1 :])
                if face is not None:
                    mat[rows[face]][col] += (-1) ** drop
        out.append(mat)
    return out


def reference_triangulated_columns(t):
    """Sparse boundary columns of a triangulation's simplices: each face
    reduced by `reference_reduce` and its row looked up by key, the entries
    in drop order and the ones that cancel dropped."""
    out = [[]]
    for k in range(1, len(t.simplices)):
        rows = {simplex: row for row, simplex in enumerate(t.simplices[k - 1])}
        columns = []
        for level, cube, chain in t.simplices[k]:
            column = {}
            for drop in range(len(chain)):
                face = reference_reduce(t.x, level, cube, chain[:drop] + chain[drop + 1 :])
                if face is not None:
                    column[rows[face]] = column.get(rows[face], 0) + (-1) ** drop
            columns.append({row: c for row, c in column.items() if c})
        out.append(columns)
    return out


def dense_square_defect(ranks, boundaries):
    """The first degree n with d_(n-1) d_n nonzero, or None."""
    for n in range(2, len(ranks)):
        if any(map(any, dense_product(boundaries[n - 1], boundaries[n], ranks[n]))):
            return n
    return None


def reference_chain_maps(cmap):
    """Dense per-degree matrices of a cubical map on the nondegenerate
    bases, a degenerate image counting zero."""
    out = []
    for n, level in enumerate(cmap.levels):
        src = cmap.source.nondegenerate_cubes(n)
        dst = {cube: k for k, cube in enumerate(cmap.target.nondegenerate_cubes(n))}
        mat = [[0] * len(src) for _ in dst]
        for col, cube in enumerate(src):
            if level[cube] in dst:
                mat[dst[level[cube]]][col] = 1
        out.append(mat)
    return out


def dense_noncommuting_degree(cmap):
    """The first degree n whose square d f_n = f_(n-1) d fails, by dense
    products, or None."""
    src = reference_cubical_boundaries(cmap.source)
    dst = reference_cubical_boundaries(cmap.target)
    maps = reference_chain_maps(cmap)
    for n in range(1, len(maps)):
        width = len(cmap.source.nondegenerate_cubes(n))
        if dense_product(dst[n], maps[n], width) != dense_product(maps[n - 1], src[n], width):
            return n
    return None


# -- the full-scan Smith loop -----------------------------------------------------
#
# `dgh.linalg._smith` as it was before its pivot search stopped at the first
# unit: every pivot scans the whole remaining block for the first entry of
# least absolute value, and every pivot, a unit included, is swept for
# divisibility entry by entry.  The reference for the pivot order, which
# `dgh compare` prints through U.


def full_scan_smith(a, with_v=True, modulus=None):
    """U, D, V (V None unless `with_v`; U and V None with a `modulus`) by
    the full-scan pivot rule."""
    rows = len(a)
    cols = len(a[0]) if a else 0
    if modulus is None:
        d = [list(row) for row in a]
        u = [[int(i == j) for j in range(rows)] for i in range(rows)]
        v = [[int(i == j) for j in range(cols)] for i in range(cols)] if with_v else None
    else:
        d = [[x % modulus for x in row] for row in a]
        u = v = None

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        if v is not None:
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, factor):
        d[dst] = [x + factor * y for x, y in zip(d[dst], d[src])]
        if modulus is not None:
            d[dst] = [x % modulus for x in d[dst]]
        if u is not None:
            u[dst] = [x + factor * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, factor):
        for row in d:
            row[dst] += factor * row[src]
            if modulus is not None:
                row[dst] %= modulus
        if v is not None:
            for row in v:
                row[dst] += factor * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        if u is not None:
            u[i] = [-x for x in u[i]]

    t = 0
    while True:
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = abs(d[i][j])
                if x and (best is None or x < best):
                    best = x
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            reduced = True
            for i in range(t + 1, rows):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    add_row(t, i, -q)
                    if d[i][t]:
                        swap_rows(t, i)
                        reduced = False
            for j in range(t + 1, cols):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    add_col(t, j, -q)
                    if d[t][j]:
                        swap_cols(t, j)
                        reduced = False
            if reduced:
                break
        stray = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if d[i][j] % d[t][t]:
                    stray = i
                    break
            if stray is not None:
                break
        if stray is not None:
            add_row(stray, t, 1)
            continue
        if d[t][t] < 0:
            negate_row(t)
        t += 1
        if t >= min(rows, cols):
            break
    for i in range(min(rows, cols)):
        if d[i][i] < 0:
            negate_row(i)
    return u, d, v


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def assert_read_rows(rows, inverse, u, d):
    """`rows` and `inverse` (dicts {i: vector}: rows of U and columns of
    U's inverse, as `smith_normal_form(a, _build_v=False)` returns them)
    against the whole U and D of a reference Smith form of `a`: the keys
    are exactly the i whose diagonal entry of D is not 1 (an i past the
    diagonal counts as 0), each row is row i of U, and U times column i
    of the inverse is e_i."""
    width = len(d[0]) if d else 0
    which = [i for i in range(len(u)) if (d[i][i] if i < width else 0) != 1]
    assert list(rows) == list(inverse) == which
    assert [rows[i] for i in which] == [u[i] for i in which]
    unit = identity(len(u))
    for i in which:
        assert [sum(map(mul, row, inverse[i])) for row in u] == unit[i]


# -- the spread route of unique lifting --------------------------------------------
# `dgh.coverings.check_unique_lifting` as it was before one counting descent
# decided it on 1-coverings: every base map is listed, and a lift is spread
# from each anchor, in linear time per base map.  The reference for the
# counted reports, witness anchor included.


def _spread_plan(d, root, position):
    """(schedule, arrows) for spreading a lift over the weakly connected d
    from root, each vertex given by `position`: schedule lists (v, u,
    forward) in breadth-first order, once for each vertex v other than
    root, where u is placed before v and forward says the arrow runs
    u -> v; arrows lists every arrow of d."""
    schedule = []
    seen = {root}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            neighbours = [(v, True) for v in d.successors(u)]
            neighbours += [(v, False) for v in d.predecessors(u)]
            for v, forward in neighbours:
                if v not in seen:
                    seen.add(v)
                    schedule.append((position[v], position[u], forward))
                    nxt.append(v)
        frontier = nxt
    return schedule, [(position[u], position[v]) for u, v in d.arrows]


def _spread(plan, lifts, steps, beta, root, anchor):
    """The lift of the base map `beta` through `anchor` at position `root`,
    or None: each scheduled vertex takes the one vertex of its fiber one
    step from its placed neighbour, and the result must preserve every
    arrow.  Over a 1-covering any lift agrees with the spread."""
    schedule, arrows = plan
    lift = [None] * len(beta)
    lift[root] = anchor
    try:
        for v, u, forward in schedule:
            lift[v] = lifts[lift[u], beta[v], forward]
    except KeyError:
        return None
    if all((lift[u], lift[v]) in steps for u, v in arrows):
        return lift
    return None


def spread_lifting(p, a, b, budget=DEFAULT_MAX_MAPS):
    """The report of `check_unique_lifting(p, a, b, budget)` by spreading.

    On its counted route (a non-empty, its arrows among b's, p a
    1-covering, a and b weakly connected) each base map is listed, and for
    each anchor over the image of a's first vertex a lift of b is spread;
    when that breaks, a spread along a tells a square without a lift (the
    witness) from no square.  Other inputs are listed by
    `_squares_by_enumeration`.
    """
    b.check_vertices(a.vertices)
    if not (
        a.vertices
        and a.arrows <= b.arrows
        and is_one_covering(p)
        and len(pi0(a)) == 1
        and len(pi0(b)) == 1
    ):
        return _squares_by_enumeration(p, a, b, budget)
    e = p.source
    steps = set(e.arrows) | {(v, v) for v in e.vertices}
    # (x, y, forward) -> the vertex w over y with x -> w (forward) or w -> x;
    # one, since p is a 1-covering
    lifts = {}
    for x, w in steps:
        lifts[x, p.assignment[w], True] = w
        lifts[w, p.assignment[x], False] = x
    fibers = {}
    for v in e.vertices:
        fibers.setdefault(p.assignment[v], []).append(v)
    report = {"squares": 0, "unique": True, "pass": True}
    a0 = a.vertices[0]
    root = b.index(a0)
    plan_a = _spread_plan(a, a0, b._index)
    plan_b = _spread_plan(b, a0, b._index)
    for beta in enumerate_digraph_maps(b, p.target, budget=budget):
        for anchor in fibers.get(beta[root], []):
            if _spread(plan_b, lifts, steps, beta, root, anchor) is not None:
                report["squares"] += 1
            elif _spread(plan_a, lifts, steps, beta, root, anchor) is not None:
                report["squares"] += 1
                report["unique"] = False
                report["pass"] = False
                report["witness"] = {
                    "beta": [repr(x) for x in beta],
                    "anchor": repr(anchor),
                    "lifts": 0,
                }
                return report
    return report


# -- distance coverings by listing walks --------------------------------------
# The reference for `dgh.coverings.is_l_covering`, which reads condition (3)
# off a distance table bounded at depth l: here every distance comes from
# Floyd-Warshall, and (3) lists every walk of length <= l and compares every
# pair of walks.


def walks_up_to(g, length):
    """All directed walks (vertex sequences along arrows) of length <= `length`."""
    out = [(v,) for v in g.vertices]
    frontier = list(out)
    for _ in range(length):
        frontier = [walk + (w,) for walk in frontier for w in g.successors(walk[-1])]
        out.extend(frontier)
    return out


def walk_pair_l_covering(p, l):
    """The `is_l_covering` report of p, evaluated from all-pairs distances
    and, for condition (3), from every pair of walks of length <= l."""
    g, h = p.source, p.target
    over = p.assignment
    dist_g, dist_h = floyd_warshall(g), floyd_warshall(h)

    def power_map(k):
        def power(x, dist):
            return Digraph(x.vertices, [pair for pair, d in dist.items() if 1 <= d <= k])

        return DigraphMap(power(g, dist_g), power(h, dist_h), dict(over))

    cond1 = all(is_one_covering(power_map(k)) for k in range(1, l + 1))
    preimage_arrows = {
        (u, v)
        for (u, v), d in dist_g.items()
        if u != v and d <= l and (over[u] == over[v] or (over[u], over[v]) in h.arrows)
    }
    cond2 = is_one_covering(power_map(l)) and preimage_arrows == set(g.arrows)
    cond3 = is_one_covering(p)
    if cond3:
        walks = walks_up_to(g, l)
        cond3 = not any(
            a[0] != b[0] or a[-1] != b[-1]
            for a in walks
            for b in walks
            if (a[0] == b[0] and over[a[-1]] == over[b[-1]])
            or (a[-1] == b[-1] and over[a[0]] == over[b[0]])
        )
    fibers = {}
    for v in g.vertices:
        fibers.setdefault(over[v], []).append(v)

    def fiber_bijections():
        for (a, b), d in dist_h.items():
            if d > l:
                continue
            matches = []
            for x in fibers.get(a, []):
                near = [y for y in fibers.get(b, []) if dist_g[x, y] <= l]
                if len(near) != 1 or dist_g[x, near[0]] != d:
                    return False
                matches.append(near[0])
            if sorted(matches, key=repr) != sorted(fibers.get(b, []), key=repr):
                return False
        return True

    verdicts = {
        "power-one-coverings": cond1,
        "top-power-and-preimage": cond2,
        "path-pair-rigidity": cond3,
        "fiber-bijections": fiber_bijections(),
    }
    agree = len(set(verdicts.values())) == 1
    return {
        "l": l,
        "conditions": verdicts,
        "conditions_agree": agree,
        "is_l_covering": cond1,
        "pass": cond1 and agree,
    }
