"""Triangulation of truncated cubical sets and simplicial homology.

Each nondegenerate d-cube contributes one simplex per strictly increasing
chain of cube corners that touches the interior (is not confined to a
facet); the d! top simplices are the saturated corner chains.  Faces of a
simplex are reduced to their canonical representative by walking chains
into facets and collapsing along the degeneracy/connection witnesses of
the carrying cube, which is exactly how the gluing works.

The same Smith kernel also computes homology of abstract simplicial
complexes (used for nerves of covers).
"""

from __future__ import annotations

from itertools import combinations, product

from .errors import InvalidCubicalSet
from .homology import ChainComplex, homology
from .linalg import zeros
from .nerve import degenerate_cube_test


def _corner_chains(d):
    """Strictly increasing chains in {0,1}^d that touch the interior."""
    corners = sorted(product((0, 1), repeat=d), key=lambda c: (sum(c), c))

    def leq(a, b):
        return all(x <= y for x, y in zip(a, b))

    chains = []

    def extend(chain):
        last = chain[-1]
        spanning = all(
            any(pt[i] == 0 for pt in chain) and any(pt[i] == 1 for pt in chain)
            for i in range(d)
        )
        if spanning:
            chains.append(tuple(chain))
        for c in corners:
            if c != last and leq(last, c):
                chain.append(c)
                extend(chain)
                chain.pop()

    if d == 0:
        return [((),)]
    for c in corners:
        extend([c])
    return chains


class Simplex:
    """A reduced simplex: (carrier level, carrier cube index, corner chain)."""

    __slots__ = ("level", "cube", "chain")

    def __init__(self, level, cube, chain):
        self.level = level
        self.cube = cube
        self.chain = chain

    def key(self):
        return (self.level, self.cube, self.chain)

    @property
    def dim(self):
        return len(self.chain) - 1


class Triangulation:
    """The simplicial chain data of a truncated cubical set.

    simplices[k]: list of reduced simplex keys of dimension k; the boundary
    of a simplex drops one chain entry at a time (alternating signs) and
    reduces the result.  Truncation: only simplices carried by cubes of
    dimension <= top_dim exist, so dimensions above top_dim are not built.
    """

    def __init__(self, x):
        self.x = x
        self.m = x.m
        self._chain_cache = {}
        keys = [set() for _ in range(x.top_dim + 1)]
        for d in range(x.top_dim + 1):
            chains = [c for c in _corner_chains(d)]
            for cube in x.nondegenerate_cubes(d):
                for chain in chains:
                    k = len(chain) - 1
                    if k <= x.top_dim:
                        keys[k].add((d, cube, chain))
        self.simplices = [sorted(level) for level in keys]
        self.index = [
            {s: i for i, s in enumerate(level)} for level in self.simplices
        ]

    # -- reduction to the canonical representative -------------------------

    def reduce(self, level, cube, chain):
        """Reduce (cube, corner chain) to its nondegenerate carrier, or
        None when the simplex is degenerate (a repeated chain entry)."""
        x = self.x
        m = self.m
        while True:
            prev = None
            for pt in chain:
                if pt == prev:
                    return None
                prev = pt
            moved = False
            # walk into a facet when every chain corner sits on it
            for axis in range(level):
                for eps in (0, 1):
                    if all(pt[axis] == eps for pt in chain):
                        face_cube = x.faces[level][(axis + 1, eps)][cube]
                        chain = tuple(
                            pt[:axis] + pt[axis + 1 :] for pt in chain
                        )
                        level -= 1
                        cube = face_cube
                        moved = True
                        break
                if moved:
                    break
            if moved:
                continue
            if x.nondegenerate[level][cube]:
                return (level, cube, chain)
            degen, witness = degenerate_cube_test(
                x.cubes[level][cube], m, level
            )
            if not degen:
                raise InvalidCubicalSet(
                    "degeneracy tables and fiber test disagree"
                )
            if witness[0] == "sigma":
                i = witness[1]
                core = self._sigma_core(level, cube, i)
                chain = tuple(pt[: i - 1] + pt[i:] for pt in chain)
                level -= 1
                cube = core
            else:
                _, i, eps = witness
                core = self._gamma_core(level, cube, i, eps)
                op = max if eps == 0 else min
                chain = tuple(
                    pt[: i - 1] + (op(pt[i - 1], pt[i]),) + pt[i + 1 :]
                    for pt in chain
                )
                level -= 1
                cube = core

    def _sigma_core(self, level, cube, i):
        """The (level-1)-cube y with cube = degeneracy_i(y)."""
        table = self.x.degens[level][i]
        for k, image in enumerate(table):
            if image == cube:
                return k
        raise InvalidCubicalSet("missing degeneracy core")

    def _gamma_core(self, level, cube, i, eps):
        table = self.x.connections[level][(i, eps)]
        for k, image in enumerate(table):
            if image == cube:
                return k
        raise InvalidCubicalSet("missing connection core")

    # -- chain complex -------------------------------------------------------

    def chain_complex(self):
        ranks = [len(level) for level in self.simplices]
        boundaries = [zeros(0, ranks[0])]
        for k in range(1, len(ranks)):
            mat = zeros(ranks[k - 1], ranks[k])
            for col, (level, cube, chain) in enumerate(self.simplices[k]):
                for drop in range(len(chain)):
                    sub = chain[:drop] + chain[drop + 1 :]
                    reduced = self.reduce(level, cube, sub)
                    if reduced is None:
                        continue
                    row = self.index[k - 1].get(reduced)
                    if row is None:
                        raise InvalidCubicalSet(
                            "face reduced to an unknown simplex"
                        )
                    mat[row][col] += (-1) ** drop
            boundaries.append(mat)
        return ChainComplex(ranks, boundaries)

    def homology(self, reduced=False):
        return homology(self.chain_complex(), reduced=reduced)

    def value_keys(self, k):
        """Simplex keys with the carrier cube given by value, for comparing
        triangulations of sub-nerves living inside a common ambient nerve."""
        return {
            (level, self.x.cubes[level][cube], chain)
            for (level, cube, chain) in self.simplices[k]
        }


def triangulate(x):
    return Triangulation(x)


# -- abstract simplicial complexes ---------------------------------------------


def simplicial_chain_complex(faces, top_dim=None):
    """Chain complex of an abstract simplicial complex.

    `faces` is an iterable of vertex tuples/frozensets; the downward
    closure is taken automatically.  Vertices must be sortable.
    """
    closed = set()
    for f in faces:
        f = tuple(sorted(set(f)))
        for k in range(1, len(f) + 1):
            for sub in combinations(f, k):
                closed.add(sub)
    if not closed:
        return ChainComplex([0], [zeros(0, 0)])
    max_dim = max(len(f) for f in closed) - 1
    if top_dim is not None:
        max_dim = min(max_dim, top_dim)
    levels = [sorted(f for f in closed if len(f) == k + 1) for k in range(max_dim + 1)]
    index = [{f: i for i, f in enumerate(level)} for level in levels]
    ranks = [len(level) for level in levels]
    boundaries = [zeros(0, ranks[0])]
    for k in range(1, max_dim + 1):
        mat = zeros(ranks[k - 1], ranks[k])
        for col, f in enumerate(levels[k]):
            for drop in range(len(f)):
                sub = f[:drop] + f[drop + 1 :]
                mat[index[k - 1][sub]][col] += (-1) ** drop
        boundaries.append(mat)
    return ChainComplex(ranks, boundaries)


def simplicial_homology(faces, top_dim=None, reduced=False):
    return homology(simplicial_chain_complex(faces, top_dim), reduced=reduced)
