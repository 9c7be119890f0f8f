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

from itertools import combinations, count, product, repeat
from operator import eq

from .errors import InvalidCubicalSet
from .homology import ChainComplex, boundary_columns, check_ranks, homology
from .nerve import _drop, _merge


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


def _simplex_ranks(x, chains):
    """Rank k: the nondegenerate d-cubes times the chains of k+1 corners in
    `chains[d]`, summed over d."""
    ranks = [0] * (x.top_dim + 1)
    for d, level_chains in enumerate(chains):
        n_cubes = sum(x.nondegenerate[d])
        for chain in level_chains:
            ranks[len(chain) - 1] += n_cubes
    return ranks


def _simplex_keys(x, chains):
    """The sorted simplex keys (d, cube, chain) of each dimension."""
    keys = [[] for _ in range(x.top_dim + 1)]
    for d, level_chains in enumerate(chains):
        for cube in x.nondegenerate_cubes(d):
            for chain in level_chains:
                keys[len(chain) - 1].append((d, cube, chain))
    return [sorted(level) for level in keys]


class Triangulation:
    """The simplicial chain data of a truncated cubical set.

    simplices[k]: list of reduced simplex keys of dimension k; the boundary
    of a simplex drops one chain entry at a time (alternating signs) and
    reduces the result.  Truncation: only simplices carried by cubes of
    dimension <= top_dim exist, so dimensions above top_dim are not built.
    """

    def __init__(self, x):
        self.x = x
        chains = [_corner_chains(d) for d in range(x.top_dim + 1)]
        # the generator ceiling, checked on the counts before any key is
        # built: a chain of d+1 corners at most, so no chain is over top_dim
        check_ranks(_simplex_ranks(x, chains))
        self.simplices = _simplex_keys(x, chains)
        self.index = [dict(zip(level, count())) for level in self.simplices]
        # each degenerate cube -> (corner map, its parameters, core cube),
        # read off the degeneracy then the connection tables with the first
        # witness winning: sigma_i by ascending i, then gamma_(i, eps)
        self._cores = [{} for _ in range(x.top_dim + 1)]
        for n in range(1, x.top_dim + 1):
            witnesses = [(_drop, (i,), table) for i, table in x.degens[n].items()]
            witnesses += [(_merge, key, table) for key, table in x.connections[n].items()]
            for op, params, table in reversed(witnesses):
                self._cores[n].update(
                    zip(table, zip(repeat(op), repeat(params), count()))
                )

    # -- reduction to the canonical representative -------------------------

    def reduce(self, level, cube, chain):
        """Reduce (cube, corner chain) to its nondegenerate carrier, or
        None when the simplex is degenerate (a repeated chain entry)."""
        x = self.x
        while True:
            if any(map(eq, chain, chain[1:])):
                return None
            # walk into a facet when every chain corner sits on it
            facet = next(
                (
                    (axis, eps)
                    for axis in range(1, level + 1)
                    for eps in (0, 1)
                    if all(pt[axis - 1] == eps for pt in chain)
                ),
                None,
            )
            if facet is not None:
                cube = x.faces[level][facet][cube]
                chain = tuple(_drop(pt, facet[0]) for pt in chain)
            elif x.nondegenerate[level][cube]:
                return (level, cube, chain)
            else:
                # collapse along the witness: the corners follow its grid map
                op, params, cube = self._cores[level][cube]
                chain = tuple(op(pt, *params) for pt in chain)
            level -= 1

    # -- chain complex -------------------------------------------------------

    def _faces(self, simplex):
        """(row, sign) of each reduced face of a simplex; degenerate faces
        are skipped."""
        level, cube, chain = simplex
        index = self.index[len(chain) - 2]
        for drop in range(len(chain)):
            reduced = self.reduce(level, cube, chain[:drop] + chain[drop + 1 :])
            if reduced is None:
                continue
            row = index.get(reduced)
            if row is None:
                raise InvalidCubicalSet("face reduced to an unknown simplex")
            yield row, (-1) ** drop

    def chain_complex(self):
        columns = (
            boundary_columns(level, self._faces) for level in self.simplices[1:]
        )
        return ChainComplex([len(level) for level in self.simplices], columns)

    def homology(self):
        return homology(self.chain_complex())


def triangulate(x):
    return Triangulation(x)


# -- abstract simplicial complexes ---------------------------------------------


def simplicial_chain_complex(faces):
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
        return ChainComplex([0], [])
    max_dim = max(len(f) for f in closed) - 1
    levels = [sorted(f for f in closed if len(f) == k + 1) for k in range(max_dim + 1)]
    index = {f: i for level in levels for i, f in enumerate(level)}

    def signed_faces(f):
        return ((index[f[:drop] + f[drop + 1 :]], (-1) ** drop) for drop in range(len(f)))

    columns = (boundary_columns(level, signed_faces) for level in levels[1:])
    return ChainComplex([len(level) for level in levels], columns)


def simplicial_homology(faces):
    return homology(simplicial_chain_complex(faces))
