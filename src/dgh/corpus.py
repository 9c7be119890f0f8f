"""Named example digraphs used by the verification suites and the docs."""

from __future__ import annotations

from .digraph import Digraph, box_product, disjoint_union
from .covers import out_closure
from .intervals import standard_interval
from .nerve import boundary_vertices


def cycle(n):
    return Digraph(range(n), [(i, (i + 1) % n) for i in range(n)])


def line(n, sign=1):
    return standard_interval(n, sign).to_digraph()


def directed_square():
    return box_product(line(1), line(1))


def grid_4x4():
    return box_product(line(4), line(4))


def boundary_4x4():
    return grid_4x4().induced(boundary_vertices(4, 2))


def o_digraph():
    """Out-closure of the boundary inside the 4x4 zigzag grid: the full
    grid with the center vertex (a source) removed."""
    g = grid_4x4()
    return g.induced(out_closure(g, boundary_vertices(4, 2)))


def fan_out():
    """b -> a, b -> c: the 3-vertex out-fan."""
    return Digraph(["a", "b", "c"], [("b", "a"), ("b", "c")])


def two_lines():
    return disjoint_union(line(1), line(1))


def small_corpus():
    """Small digraphs exercised by the property suites."""
    return {
        "point": Digraph(["*"]),
        "i1": line(1),
        "i2": line(2),
        "i3": line(3),
        "i2op": line(2, -1),
        "c3": cycle(3),
        "c4": cycle(4),
        "fan": fan_out(),
        "square": directed_square(),
        "two_points": Digraph(["a", "b"]),
        "two_arrows": Digraph(["a", "b"], [("a", "b"), ("b", "a")]),
        "chain_pair": Digraph(["a", "b", "c"], [("a", "b"), ("a", "c")]),
    }


def tiny_corpus():
    c = small_corpus()
    return {k: c[k] for k in ("point", "i1", "i2", "c3", "fan", "two_points")}
