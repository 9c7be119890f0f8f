"""Triangulation of truncated cubical sets and simplicial homology.

Each nondegenerate d-cube contributes one simplex per strictly increasing
chain of cube corners that touches the interior (is not confined to a
facet); the d! top simplices are the saturated corner chains.  A simplex
is keyed (d, cube, chain), and the keys of each dimension k are listed
sorted: by d, then by cube, then by chain among the chains of k + 1
corners at level d.  The boundary reads its rows off that order: the key
(d, cube, chain) of dimension k is row

    base[k][d] + (rank of cube among the nondegenerate d-cubes) * c_k(d)
               + (rank of chain among the chains of k + 1 corners at d),

where c_k(d) is the number of those chains and base[k][d] counts the
k-simplices carried by the levels below d.  No key is looked up.

A face drops one chain entry and is reduced to its canonical
representative, which is exactly how the gluing works.  While the chain
repeats no corner (else the face is degenerate and has no row), it walks
into the first facet that holds every one of its corners; where no facet
does, a nondegenerate cube carries the face, and a degenerate one
collapses along its degeneracy or connection witness, the corners
following the witness's grid map, one level down.  The facet walk depends
only on (level, chain), not on the cube.  So a face chain is reduced on
every nondegenerate d-cube at once: each facet step maps the whole group
through one face table, the group splits where the walk stops by the
level's nondegenerate flags, and its degenerate cubes regroup by witness
and go on with the collapsed chain.

The same Smith kernel also computes homology of abstract simplicial
complexes (used for nerves of covers).
"""

from __future__ import annotations

from itertools import accumulate, chain, combinations, count, product, repeat
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


def _by_length(level_chains, top_dim):
    """[k]: the chains of k + 1 corners, sorted, for k = 0..top_dim."""
    out = [[] for _ in range(top_dim + 1)]
    for corners in level_chains:
        out[len(corners) - 1].append(corners)
    return [sorted(chains) for chains in out]


def _simplex_ranks(x, chains):
    """Rank k: the nondegenerate d-cubes times the chains of k+1 corners in
    `chains[d]`, summed over d."""
    ranks = [0] * (x.top_dim + 1)
    for d, level_chains in enumerate(chains):
        n_cubes = sum(x.nondegenerate[d])
        for corners in level_chains:
            ranks[len(corners) - 1] += n_cubes
    return ranks


def _simplex_keys(x, chains):
    """The simplex keys (d, cube, chain) of each dimension, listed sorted."""
    keys = [[] for _ in range(x.top_dim + 1)]
    for d, level_chains in enumerate(chains):
        cubes = x.nondegenerate_cubes(d)
        for k, sorted_chains in enumerate(_by_length(level_chains, x.top_dim)):
            keys[k] += product((d,), cubes, sorted_chains)
    return keys


def _facet_walk(level, corners):
    """The face tables (level, (axis, eps)) a chain walks through, and the
    level and chain where it touches the interior; None once it repeats a
    corner."""
    steps = []
    while not any(map(eq, corners, corners[1:])):
        facet = next(
            (
                (axis, eps)
                for axis in range(1, level + 1)
                for eps in (0, 1)
                if all(pt[axis - 1] == eps for pt in corners)
            ),
            None,
        )
        if facet is None:
            return steps, level, corners
        steps.append((level, facet))
        corners = tuple(_drop(pt, facet[0]) for pt in corners)
        level -= 1
    return None


class Triangulation:
    """The simplicial chain data of a truncated cubical set.

    simplices[k]: the k-simplex keys (d, cube, chain), listed sorted by
    (d, cube, chain), the order the rows are computed from (see the module
    docstring).  The boundary of a simplex drops one chain entry at a time
    (alternating signs) and reduces the result; `_face_rows` reduces one
    face chain on all the nondegenerate d-cubes at once, and `_row_maps`
    holds the arithmetic.  Truncation: only simplices carried by cubes of
    dimension <= top_dim exist, so dimensions above top_dim are not built.
    """

    def __init__(self, x):
        self.x = x
        chains = [_corner_chains(d) for d in range(x.top_dim + 1)]
        # the generator ceiling, checked on the counts before any key is
        # built: a chain of d+1 corners at most, so no chain is over top_dim
        check_ranks(_simplex_ranks(x, chains))
        self.simplices = _simplex_keys(x, chains)
        # _chains[d][k]: the chains of k + 1 corners at level d, sorted
        self._chains = [_by_length(level_chains, x.top_dim) for level_chains in chains]
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

    # -- rows by arithmetic ----------------------------------------------------

    def _row_maps(self):
        """Per level d: each cube's rank among the nondegenerate d-cubes
        (meaningful at those only), and {chain: (offset, stride)}, so that
        the key (d, cube, chain) is row offset + rank * stride."""
        x = self.x
        ranks = [list(accumulate(flags, initial=0)) for flags in x.nondegenerate]
        base = [0] * (x.top_dim + 1)
        chain_rows = []
        for d, by_length in enumerate(self._chains):
            level = {}
            for k, chains in enumerate(by_length):
                level.update(zip(chains, zip(count(base[k]), repeat(len(chains)))))
                base[k] += ranks[d][-1] * len(chains)
            chain_rows.append(level)
        return ranks, chain_rows

    # -- reduction to the canonical representative -------------------------

    def _face_rows(self, d, face, cubes, row_maps):
        """The row of the face chain `face` reduced on each of the
        nondegenerate d-cubes `cubes`, in their order; None where it
        reduces to a repeated corner (a degenerate simplex)."""
        x = self.x
        ranks, chain_rows = row_maps
        rows = [None] * len(cubes)
        groups = [(d, face, cubes, range(len(cubes)))]
        while groups:
            level, corners, cubes, slots = groups.pop()
            walk = _facet_walk(level, corners)
            if walk is None:
                continue
            steps, level, corners = walk
            for n, facet in steps:
                cubes = list(map(x.faces[n][facet].__getitem__, cubes))
                if min(cubes) < 0 or max(cubes) >= len(x.nondegenerate[n - 1]):
                    raise InvalidCubicalSet("face reduced to an unknown simplex")
            flags = x.nondegenerate[level]
            offset, stride = chain_rows[level][corners]
            rank, cores = ranks[level], self._cores[level]
            collapsed = {}
            for cube, slot in zip(cubes, slots):
                if flags[cube]:
                    rows[slot] = offset + rank[cube] * stride
                else:
                    op, params, core = cores[cube]
                    group = collapsed.setdefault((op, params), ([], []))
                    group[0].append(core)
                    group[1].append(slot)
            for (op, params), group in collapsed.items():
                groups.append((level - 1, tuple(op(pt, *params) for pt in corners), *group))
        return rows

    # -- chain complex -------------------------------------------------------

    def _columns(self, k, row_maps):
        """The boundary columns of the k-simplices, in key order, one level
        d at a time: each face chain is reduced once on every d-cube."""
        signs = [(-1) ** drop for drop in range(k + 1)]

        def faces(rows):
            return zip(rows, signs)

        columns = []
        for d, by_length in enumerate(self._chains):
            cubes = self.x.nondegenerate_cubes(d)
            if not (cubes and by_length[k]):
                continue
            reduced = {}
            per_chain = []
            for corners in by_length[k]:
                drops = []
                for drop in range(k + 1):
                    face = corners[:drop] + corners[drop + 1 :]
                    if face not in reduced:
                        reduced[face] = self._face_rows(d, face, cubes, row_maps)
                    drops.append(reduced[face])
                per_chain.append(zip(*drops))
            # the cells of level d by cube, then by chain
            columns += boundary_columns(chain.from_iterable(zip(*per_chain)), faces)
        return columns

    def chain_complex(self):
        row_maps = self._row_maps()
        columns = (self._columns(k, row_maps) for k in range(1, len(self.simplices)))
        return ChainComplex(list(map(len, self.simplices)), columns)

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
