"""Shared fixtures and independent oracle helpers.

Oracles here deliberately avoid the library's enumeration/backtracking
paths: plain product scans, BFS, and Floyd-Warshall, so agreement is a
genuine cross-check.
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest

from dgh.digraph import Digraph, box_product
from dgh.intervals import standard_interval
from dgh.covers import out_closure


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


def naive_digraph_maps(g, h):
    """All digraph maps by filtering the full assignment product."""
    out = []
    for images in product(h.vertices, repeat=len(g.vertices)):
        lookup = dict(zip(g.vertices, images))
        if all(
            lookup[u] == lookup[v] or (lookup[u], lookup[v]) in h.arrows
            for (u, v) in g.arrows
        ):
            out.append(images)
    return out


def naive_one_step(g, h, a, b):
    return all(x == y or (x, y) in h.arrows for x, y in zip(a, b))


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
