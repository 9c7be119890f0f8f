"""Cube/horn realizations, truncated cubical nerves, fillers, and rho maps.

An n-cube of the m-nerve of G is a digraph map from the n-fold box power of
the standard m-interval into G, stored as the tuple of its images over the
grid {0..m}^n in lexicographic order.  Level n is built from level n-1 by
the exponential law: its cubes are the m-step walks in the box hom on the
level-(n-1) cubes, concatenated, and they are counted against the cube
budget before any of them is built (`nerve_levels`).

The structure tables are index lists read off the walks.  A level-n cube x
is the walk d_0 ... d_m of its slices (x with first coordinate k is the
level-(n-1) cube d_k), and level n lists the walks in lexicographic order,
so the position of x is the rank of its walk,

    start[d_0] + pos_0[d_0, d_1] + ... + pos_{m-1}[d_{m-1}, d_m],

where start[a] counts the walks that begin before a, and pos_k[a, b] sums,
over the heads b' < b of a at step k, the number of walk completions from
b' (`_rank_tables`; one small table per step over the box-hom arrows and
the constant steps, none over the cubes).  Read slice by slice:

    d_{1,0} x = d_0 and d_{1,1} x = d_m                (the walk ends)
    d_{i,eps} x = (d_{i-1,eps} d_0, ..., d_{i-1,eps} d_m)   for i >= 2
    (phi_* x)   = (phi_* d_0, ..., phi_* d_m)          (`nerve_functor_map`)
    (t^* x)     = (t^* d_t(0), ..., t^* d_t(m+delta))  (`comparison_map`)

so each of these tables maps the walks of level n through a table on level
n-1 and ranks the results (`TruncatedCubicalSet._walk_positions`).  The
degeneracies and connections, X_{n-1} -> X_n, read each cube at the rows
of the realized coordinate maps and `locate` the image tuple: its slices
are looked up in level n-1 and their walk is ranked.  A mapped walk with a
step that is not an arrow is not a cube, and is reported as a structure
map leaving the enumerated level.
"""

from __future__ import annotations

from bisect import insort
from itertools import accumulate, chain, compress, count, product, repeat
from operator import add, itemgetter, ne, sub

from .config import DEFAULT_MAX_CUBES
from .digraph import Digraph, DigraphMap, one_step_pairs
from .errors import BadIndex, BudgetExceeded, InvalidCubicalSet, ParityError
from .intervals import FWD, standard_interval, truncation


# -- realizations ---------------------------------------------------------


def mixed_realization(intervals):
    """Box product of a list of intervals, with coordinate-tuple vertices."""
    sides = [iv.n_arrows for iv in intervals]
    verts = list(product(*(range(s + 1) for s in sides)))
    arrows = []
    for v in verts:
        for axis, iv in enumerate(intervals):
            p = v[axis]
            if p < sides[axis]:
                w = v[:axis] + (p + 1,) + v[axis + 1 :]
                arrows.append((v, w) if iv.word[p] == 1 else (w, v))
    return Digraph(verts, arrows)


def cube_realization(j, n):
    """The n-fold box power of the interval j."""
    if n < 0:
        raise BadIndex("cube dimension must be >= 0")
    return mixed_realization([j] * n)


def boundary_vertices(side, n):
    """The grid points of {0..side}^n with some coordinate at 0 or side, in
    the vertex order of `cube_realization`."""
    return [
        v
        for v in product(range(side + 1), repeat=n)
        if any(c in (0, side) for c in v)
    ]


def horn_vertices(side, n, i, eps):
    if n < 1 or not 1 <= i <= n or eps not in (0, 1):
        raise BadIndex(f"bad horn index (n={n}, i={i}, eps={eps})")
    out = []
    for v in product(range(side + 1), repeat=n):
        if v[i - 1] == (1 - eps) * side:
            out.append(v)
        elif any(v[k] in (0, side) for k in range(n) if k != i - 1):
            out.append(v)
    return out


def horn_inclusion(side, n, i, eps):
    """All faces of the side^n cube except the (i, eps) one, as the induced
    subdigraph `horn` of `cube`; returns (horn, cube)."""
    cube = cube_realization(standard_interval(side), n)
    return cube.induced(horn_vertices(side, n, i, eps)), cube


# -- grid coordinate maps ---------------------------------------------------


def _grid(m, n):
    return list(product(range(m + 1), repeat=n))


def _insert(pt, i, value):
    return pt[: i - 1] + (value,) + pt[i - 1 :]


def _drop(pt, i):
    return pt[: i - 1] + pt[i:]


def _merge(pt, i, eps):
    fused = max(pt[i - 1], pt[i]) if eps == 0 else min(pt[i - 1], pt[i])
    return pt[: i - 1] + (fused,) + pt[i + 1 :]


# -- truncated cubical sets -------------------------------------------------


class TruncatedCubicalSet:
    """Cube lists for dimensions 0..K plus face/degeneracy/connection tables.

    cubes[n]        : list of image tuples over the level-n grid
    steps[n]        : n >= 1, the walk adjacency of level n in interval-word
                      order: steps[n][k][a] lists, sorted, the level-(n-1)
                      cubes that step k of a walk may take from cube a, the
                      constant step included (None at n = 0)
    index[n]        : {image tuple: position} for the levels below the top,
                      and always level 0
    faces[n]        : {(i, eps): index list}, X_n -> X_{n-1},   1 <= i <= n
    degens[n]       : {i: index list},        X_{n-1} -> X_n,   1 <= i <= n
    connections[n]  : {(i, eps): index list}, X_{n-1} -> X_n,   1 <= i <= n-1
    nondegenerate[n]: a flag per level-n cube

    A level-n cube is the walk d_0 ... d_m of its slices in level n-1, and
    the level lists the walks in lexicographic order, so a cube's position
    is the rank of its walk,

        start[d_0] + pos_0[d_0, d_1] + ... + pos_{m-1}[d_{m-1}, d_m],

    with start and pos_k kept in `_ranks[n]`, from `_rank_tables` over the
    arrows of each step of steps[n] listed flat (`_arrows[n]`).  The face
    tables map the walks slice by slice (`_walk_positions`): d_{1,0} x = d_0
    and d_{1,1} x = d_m are the walk ends, and for i >= 2 the slices of
    d_{i,eps} x are d_{i-1,eps} d_0, ..., d_{i-1,eps} d_m.  Degeneracies and
    connections, on the small side X_{n-1} -> X_n, read each cube at the
    grid rows of the coordinate map and locate the image tuple as `locate`
    does.
    """

    def __init__(self, target, m, sign, cubes, steps):
        self.target = target
        self.m = m
        self.sign = sign
        self.top_dim = len(cubes) - 1
        self.cubes = cubes
        self.steps = steps
        self.index = [dict(zip(level, count())) for level in cubes[: max(self.top_dim, 1)]]
        self._arrows = [None] + [list(map(_step_arrows, level)) for level in steps[1:]]
        self._ranks = [None] + [
            _rank_tables(self._arrows[n], len(cubes[n - 1])) for n in range(1, self.top_dim + 1)
        ]
        self.faces = [dict() for _ in range(self.top_dim + 1)]
        self.degens = [dict() for _ in range(self.top_dim + 1)]
        self.connections = [dict() for _ in range(self.top_dim + 1)]
        self._build_tables()
        self.nondegenerate = self._nondegenerate_flags()

    def locate(self, n, image):
        """The position of the image tuple `image` in level n: its m+1
        slices are looked up in level n-1 and their walk is ranked.  Raises
        KeyError when `image` is not a level-n cube."""
        if n == 0:
            return self.index[0][image]
        size = (self.m + 1) ** (n - 1)
        if len(image) != size * (self.m + 1):
            raise KeyError(image)
        index = self.index[n - 1]
        cuts = range(0, len(image), size)
        return self._ranked(n, [[index[image[cut : cut + size]]] for cut in cuts])[0]

    def _ranked(self, n, slices):
        """The level-n positions of the walks whose slice k is slices[k][x],
        one walk per x, from lists of level-(n-1) positions.  Raises
        KeyError when a step is not an arrow."""
        start, pos = self._ranks[n]
        ranks = list(map(start.__getitem__, slices[0]))
        for table, tails, heads in zip(pos, slices, slices[1:]):
            ranks = list(map(add, ranks, map(table.__getitem__, zip(tails, heads))))
        return ranks

    def _walk_positions(self, n, arrows, f, sel):
        """The level-n positions of the walks along `arrows` (another
        level's `_arrows`), mapped slice by slice: the walk d_0 ... d_k goes
        to the level-n walk whose slice j is f[d_sel[j]], with f a list into
        level n-1.  `sel` is monotone and onto, with increments 0 or 1, so
        source step k crosses one target step and the other target steps are
        constant.  Raises InvalidCubicalSet when a mapped walk is not a
        level-n cube."""
        start, pos = self._ranks[n]
        crossed, stays = [], [[] for _ in range(len(arrows) + 1)]
        for j in range(len(sel) - 1):
            if sel[j] == sel[j + 1]:
                stays[sel[j]].append(j)
            else:
                crossed.append(j)
        # pads[k][y]: the rank added by the constant target steps at y that
        # repeat source slice k, if there are any
        pads = [[sum(pos[j][y, y] for j in js) for y in range(len(start))] if js else None
                for js in stays]
        try:
            first = _padded(list(map(start.__getitem__, f)), pads[0], f)
            offsets = []
            for (tails, heads, _), j, pad in zip(arrows, crossed, pads[1:]):
                mapped = list(map(f.__getitem__, heads))
                offs = list(map(pos[j].__getitem__, zip(map(f.__getitem__, tails), mapped)))
                offsets.append(_padded(offs, pad, mapped))
        except KeyError:
            raise _left_level(n) from None
        return _walk_sums(arrows, first, offsets)

    def _located(self, n, rows):
        """The map X_{n-1} -> X_n that reads each level-(n-1) cube at the
        grid positions `rows` and locates the image in level n, as `locate`
        does, one slice of the rows at a time."""
        size = len(rows) // (self.m + 1)
        index = self.index[n - 1]
        try:
            slices = [
                list(map(index.__getitem__, _read_rows(self.cubes[n - 1], rows[cut : cut + size])))
                for cut in range(0, len(rows), size)
            ]
            return self._ranked(n, slices)
        except KeyError:
            raise _left_level(n) from None

    def _build_tables(self):
        m = self.m
        slices = range(m + 1)
        for n in range(1, self.top_dim + 1):
            arrows = self._arrows[n]
            below = range(len(self.cubes[n - 1]))
            faces = self.faces[n]
            # the walk ends: d_0, and d_m = d_0 + sum_k (d_{k+1} - d_k)
            faces[(1, 0)] = _walk_sums(arrows, below, [[0] * len(t) for t, _, _ in arrows])
            faces[(1, 1)] = _walk_sums(arrows, below, [list(map(sub, h, t)) for t, h, _ in arrows])
            for i in range(2, n + 1):
                for eps in (0, 1):
                    faces[(i, eps)] = self._walk_positions(
                        n - 1, arrows, self.faces[n - 1][(i - 1, eps)], slices
                    )
            small = {pt: k for k, pt in enumerate(_grid(m, n - 1))}
            big = _grid(m, n)
            for i in range(1, n + 1):
                self.degens[n][i] = self._located(n, [small[_drop(pt, i)] for pt in big])
            for i in range(1, n):
                for eps in (0, 1):
                    rows = [small[_merge(pt, i, eps)] for pt in big]
                    self.connections[n][(i, eps)] = self._located(n, rows)

    def _nondegenerate_flags(self):
        flags = [[True] * len(level) for level in self.cubes]
        for n in range(1, self.top_dim + 1):
            hit = set()
            for table in self.degens[n].values():
                hit.update(table)
            for table in self.connections[n].values():
                hit.update(table)
            for k in hit:
                flags[n][k] = False
        return flags

    def nondegenerate_cubes(self, n):
        return list(compress(count(), self.nondegenerate[n]))

    def counts(self):
        return {
            "cubes": [len(level) for level in self.cubes],
            "nondegenerate": [sum(flags) for flags in self.nondegenerate],
        }

    # -- the full cubical identity list, checked from the tables alone ----
    #
    # Each identity is a pair of composed index maps per parameter tuple; the
    # violating cubes x come out of `_mismatches` in increasing order, so the
    # list reads parameter loops outside and x innermost.

    def validate_identities(self):
        problems = self.identity_violations()
        if problems:
            raise InvalidCubicalSet(problems[0])

    def identity_violations(self):
        out = []
        K = self.top_dim
        F, S, C = self.faces, self.degens, self.connections

        def bad(name, lhs, rhs, *params):
            for x in _mismatches(lhs, rhs):
                out.append(f"{name}: {(*params, x)}")

        for n in range(2, K + 1):  # face-face
            for j in range(1, n + 1):
                for i in range(j, n):
                    for e in (0, 1):
                        for e2 in (0, 1):
                            lhs = _composed(F[n - 1][(i, e)], F[n][(j, e2)])
                            rhs = _composed(F[n - 1][(j, e2)], F[n][(i + 1, e)])
                            bad("face-face", lhs, rhs, n, i, j, e, e2)
        for n in range(1, K + 1):  # face-degeneracy
            for j in range(1, n + 1):
                for i in range(1, n + 1):
                    for e in (0, 1):
                        lhs = _composed(F[n][(i, e)], S[n][j])
                        if j == i:
                            rhs = range(len(self.cubes[n - 1]))
                        elif j < i:
                            rhs = _composed(S[n - 1][j], F[n - 1][(i - 1, e)])
                        else:
                            rhs = _composed(S[n - 1][j - 1], F[n - 1][(i, e)])
                        bad("face-degeneracy", lhs, rhs, n, i, j, e)
        for n in range(1, K):  # degeneracy-degeneracy
            for i in range(1, n + 1):
                for j in range(1, i + 1):
                    lhs = _composed(S[n + 1][j], S[n][i])
                    rhs = _composed(S[n + 1][i + 1], S[n][j])
                    bad("degeneracy-degeneracy", lhs, rhs, n, i, j)
        for n in range(2, K):  # connection-connection
            for j in range(1, n):
                for i in range(1, n + 1):
                    for e in (0, 1):
                        for e2 in (0, 1):
                            if not (j > i or (i == j and e == e2)):
                                continue
                            if j > i and i > n - 1:
                                continue
                            lhs = _composed(C[n + 1][(i, e)], C[n][(j, e2)])
                            if j > i:
                                rhs = _composed(C[n + 1][(j + 1, e2)], C[n][(i, e)])
                            else:
                                rhs = _composed(C[n + 1][(i + 1, e)], C[n][(i, e)])
                            bad("connection-connection", lhs, rhs, n, i, j, e, e2)
        for n in range(2, K + 1):  # face-connection
            for j in range(1, n):
                for i in range(1, n + 1):
                    for e in (0, 1):
                        for e2 in (0, 1):
                            lhs = _composed(F[n][(i, e)], C[n][(j, e2)])
                            if j < i - 1:
                                rhs = _composed(C[n - 1][(j, e2)], F[n - 1][(i - 1, e)])
                            elif j > i:
                                rhs = _composed(C[n - 1][(j - 1, e2)], F[n - 1][(i, e)])
                            elif e == e2:
                                rhs = range(len(self.cubes[n - 1]))
                            else:
                                rhs = _composed(S[n - 1][j], F[n - 1][(j, e)])
                            bad("face-connection", lhs, rhs, n, i, j, e, e2)
        for n in range(1, K):  # connection-degeneracy
            for j in range(1, n + 1):
                for i in range(1, n + 1):
                    for e in (0, 1):
                        lhs = _composed(C[n + 1][(i, e)], S[n][j])
                        if j < i:
                            rhs = _composed(S[n + 1][j], C[n][(i - 1, e)])
                        elif j == i:
                            rhs = _composed(S[n + 1][i], S[n][i])
                        else:
                            rhs = _composed(S[n + 1][j + 1], C[n][(i, e)])
                        bad("connection-degeneracy", lhs, rhs, n, i, j, e)
        return out


def _read_rows(cubes, rows):
    """Each cube's images at the grid positions `rows`, as tuples."""
    if len(rows) == 1:  # itemgetter of a single row returns the bare image
        return zip(map(itemgetter(rows[0]), cubes))
    return map(itemgetter(*rows), cubes)


def _padded(ranks, pad, slices):
    """ranks plus pad[y] for the slice y of each, when there is a pad."""
    return ranks if pad is None else list(map(add, ranks, map(pad.__getitem__, slices)))


def _left_level(level):
    return InvalidCubicalSet(f"structure map left the enumerated level {level}")


def _composed(outer, inner):
    """The index map x -> outer[inner[x]], lazily."""
    return map(outer.__getitem__, inner)


def _mismatches(lhs, rhs):
    """The positions x, in increasing order, where two index maps differ.
    Both maps are materialised and compared whole first, since they are
    almost always equal."""
    lhs, rhs = list(lhs), list(rhs)
    if lhs == rhs:
        return ()
    return compress(count(), map(ne, lhs, rhs))


def nerve_levels(g, m=1, sign=1, top_dim=2, budget=DEFAULT_MAX_CUBES):
    """Enumerate the truncated m-nerve of g up to dimension top_dim.

    Level 0 is the vertices of g.  Level n >= 1 is built from level n-1 by
    the exponential law Hom(I_m □ I_m^{n-1}, G) ≅ Hom(I_m, G^{I_m^{n-1}}),
    where G^{I_m^{n-1}} is the box hom on the maps of level n-1.  Read along
    its first grid coordinate, a level-n cube is the sequence of its slices
    c_0 ... c_m, each a level-(n-1) cube; the arrows of the first axis make
    step k an arrow c_k -> c_{k+1} of the box hom where the interval's word
    is forward and c_{k+1} -> c_k where it is backward, constant steps
    included, and the arrows of the other axes are those of each slice.
    So the level-n cubes are exactly the m-step walks in that box hom.

    Order: the grid is lexicographic with the first coordinate slowest, so
    a cube's image tuple is the concatenation c_0 + ... + c_m of its
    slices' tuples.  Level n-1 is sorted (lexicographic in target vertex
    order) and its tuples have one length, so the concatenations compare as
    the index sequences of the walks do: generating the walks in
    lexicographic order of indices lists level n in the enumerator's order
    (`enumerate_digraph_maps(cube_realization(interval, n), g)`).

    Budget: raises BudgetExceeded, naming `budget` and the level, when the
    levels hold more than `budget` cubes in total, before any tuple of the
    offending level is built.  The walks are counted exactly first, as a
    vector-matrix product over the adjacency.  The adjacency search stops
    early too: each arrow a -> b, a != b, is its own non-constant walk
    (a, b, b, ...) or (b, a, a, ...), whichever the first step reads, and
    the |X_{n-1}| constant walks are the others, so
    |X_n| >= |X_{n-1}| + #arrows.  The structure tables are built from the
    walk adjacency of every level, only after every level has passed the
    budget.
    """
    interval = standard_interval(m, sign)
    level = list(zip(g.vertices))
    cubes, steps = [], [None]
    remaining = budget
    for n in range(top_dim + 1):
        try:
            if n:
                level, adjacency = _walk_level(g, interval, n, level, remaining)
                steps.append(adjacency)
            if len(level) > remaining:
                raise BudgetExceeded(f"{len(level)} cubes")
        except BudgetExceeded:
            raise BudgetExceeded(
                f"nerve exceeds {budget} total cubes at level {n}"
            ) from None
        remaining -= len(level)
        cubes.append(level)
    return TruncatedCubicalSet(g, m, sign, cubes, steps)


def _walk_level(g, interval, n, prev, remaining):
    """Level n of the nerve from level n-1 (`prev`): the m-step walks in
    the box hom on `prev` and the step head-lists they follow, or
    BudgetExceeded when they number more than `remaining`, raised before
    any walk is built."""
    if not interval.word:  # m = 0: the one-vertex grid, each level is level 0
        return list(prev), []
    out, into = _box_hom_lists(
        cube_realization(interval, n - 1), g, prev, remaining - len(prev)
    )
    steps = [out if step == FWD else into for step in interval.word]
    walks = _walk_count(steps)
    if walks > remaining:
        raise BudgetExceeded(f"{walks} walks")
    return _concatenated_walks(prev, steps), steps


def _box_hom_lists(source, g, maps, arrow_budget):
    """Per map, the sorted indices of its out- and in-neighbours in the box
    hom source -> g, itself included (the constant step)."""
    out = [[] for _ in maps]
    into = [[] for _ in maps]
    for a, b in one_step_pairs(source, g, maps, budget=arrow_budget):
        out[a].append(b)
        into[b].append(a)  # pairs come ordered by a, so `into` is sorted
    for a in range(len(maps)):
        insort(out[a], a)
        insort(into[a], a)
    return out, into


def _walk_count(steps):
    """The number of walks whose step k goes from a to one of steps[k][a]:
    all-ones weights pushed back through the steps, last step first."""
    weights = [1] * len(steps[0])
    for heads in reversed(steps):
        weights = [sum(map(weights.__getitem__, hs)) for hs in heads]
    return sum(weights)


def _step_arrows(heads):
    """The arrows a -> b, b in heads[a], of one step in walk order, as flat
    lists (tails, heads, bounds): the arrows from a are bounds[a] up to
    bounds[a + 1]."""
    counts = list(map(len, heads))
    tails = list(chain.from_iterable(map(repeat, range(len(heads)), counts)))
    return tails, list(chain.from_iterable(heads)), list(accumulate(counts, initial=0))


def _rank_tables(arrows, size):
    """The tables that rank the walks along `arrows` (`_step_arrows` per
    step) over `size` cubes in lexicographic order: start[a] counts the
    walks that begin before a, and pos[k][a, b] counts, over the heads
    b' < b of a at step k, the walk completions from b' (the weights of
    `_walk_count`).  A step that is not an arrow is missing from pos[k]."""
    completions = [1] * size
    pos = []
    for tails, heads, bounds in reversed(arrows):
        passed = list(accumulate(map(completions.__getitem__, heads), initial=0))
        runs = list(map(passed.__getitem__, bounds))
        pos.append(dict(zip(zip(tails, heads), map(sub, passed, map(runs.__getitem__, tails)))))
        completions = list(map(sub, runs[1:], runs))
    pos.reverse()
    return list(accumulate(completions, initial=0))[:-1], pos


def _walk_sums(arrows, first, offsets):
    """For each walk d_0 ... d_k along `arrows` (`_step_arrows` per step),
    in lexicographic order, first[d_0] plus offsets[i][e] for the arrow e
    taken at each step i; on tuples the sum is their concatenation.  The
    one-step walks are the first step's arrows, in order; each later step
    extends the prefixes in order, each by the arrows from its end."""
    if not arrows:
        return list(first)
    (tails, ends, _), *rest = arrows
    sums = list(map(add, map(first.__getitem__, tails), offsets[0]))
    for k, (_, heads, bounds) in enumerate(rest, 1):
        lo = list(map(bounds.__getitem__, ends))
        hi = list(map(bounds[1:].__getitem__, ends))
        runs = list(map(slice, lo, hi))  # the arrows from each prefix's end
        repeated = chain.from_iterable(map(repeat, sums, map(sub, hi, lo)))
        if k < len(rest):
            ends = list(chain.from_iterable(map(heads.__getitem__, runs)))
        sums = list(map(add, repeated, chain.from_iterable(map(offsets[k].__getitem__, runs))))
    return sums


def _concatenated_walks(level, steps):
    """The walks of `steps` as concatenated image tuples of `level`, in
    lexicographic order of their index sequences."""
    arrows = list(map(_step_arrows, steps))
    return _walk_sums(arrows, level, [list(map(level.__getitem__, h)) for _, h, _ in arrows])


# -- maps of truncated cubical sets ----------------------------------------


class CubicalMap:
    """Level-wise index maps between two truncations, checked for naturality."""

    def __init__(self, source, target, levels):
        if source.top_dim != target.top_dim:
            raise BadIndex("cubical map between different truncations")
        self.source = source
        self.target = target
        self.levels = levels
        self.chain_maps = None  # memo of homology.chain_map_matrices
        problems = self.naturality_violations()
        if problems:
            raise InvalidCubicalSet(problems[0])

    def naturality_violations(self):
        out = []
        X, Y, L = self.source, self.target, self.levels
        for n in range(1, X.top_dim + 1):
            # x in the source of `tables`: L_after(table(x)) == table'(L_before(x))
            for kind, tables, images, before, after in (
                ("face", X.faces[n], Y.faces[n], L[n], L[n - 1]),
                ("degeneracy", X.degens[n], Y.degens[n], L[n - 1], L[n]),
                ("connection", X.connections[n], Y.connections[n], L[n - 1], L[n]),
            ):
                for key, table in tables.items():
                    lhs = _composed(after, table)
                    rhs = _composed(images[key], before)
                    msg = f"{kind} {key} at level {n} not natural"
                    out.extend(msg for _ in _mismatches(lhs, rhs))
        return out

    def is_injective(self):
        return all(len(set(level)) == len(level) for level in self.levels)


def nerve_functor_map(phi, m=1, top_dim=2, budget=DEFAULT_MAX_CUBES):
    """Postcomposition with a digraph map, as a map of truncated nerves:
    level n maps each walk slice by slice through level n-1."""
    src = nerve_levels(phi.source, m, 1, top_dim, budget)
    dst = nerve_levels(phi.target, m, 1, top_dim, budget)
    vertices = [(phi.assignment[v],) for (v,) in src.cubes[0]]
    return CubicalMap(src, dst, _slice_wise_levels(src, dst, vertices, range(m + 1)))


_COMPARISON_DELTAS = {"r": 1, "l": 1, "c2": 4}


def comparison_map(kind, g, m, top_dim=2):
    """Precomposition with the truncation t: I_{m+delta} -> I_m of
    `intervals.truncation`: N_m G -> N_{m+delta} G.  Level n sends the
    walk d_0 ... d_m to the walk L(d_t(0)) ... L(d_t(m+delta)), with L the
    map on level n-1.

    'r' keeps the orientation, 'l' flips it, 'c2' keeps it and jumps by 4.
    """
    delta = _COMPARISON_DELTAS[kind]
    src = nerve_levels(g, m, 1, top_dim)
    dst = nerve_levels(g, m + delta, -1 if kind == "l" else 1, top_dim)
    t = truncation(kind, m).assignment
    sel = [t[j] for j in range(m + delta + 1)]
    return CubicalMap(src, dst, _slice_wise_levels(src, dst, src.cubes[0], sel))


def _slice_wise_levels(src, dst, vertices, sel):
    """The level maps src -> dst that send the vertex cubes to the images
    `vertices` and a level-n walk d_0 ... d_m to the walk whose slice j is
    L(d_sel[j]), with L the level n-1 map."""
    try:
        levels = [[dst.locate(0, v) for v in vertices]]
    except KeyError:
        raise _left_level(0) from None
    for n in range(1, src.top_dim + 1):
        levels.append(dst._walk_positions(n, src._arrows[n], levels[-1], sel))
    return levels


# -- the horn filler ---------------------------------------------------------


def kan_filler_phi(m, n, i, eps):
    """The filler map from the cube of side 6m onto the (i, eps)-horn of
    side 2m.  Off the distinguished axis it is the central clamp; on the
    axis it is pushed to the missing face's opposite wall by the sup-distance
    to the clamped band.  Constructing the result as a DigraphMap into the
    horn realization checks both the map property and the landing claim.
    """
    if m < 0 or n < 1 or not 1 <= i <= n or eps not in (0, 1):
        raise BadIndex(f"bad filler index (m={m}, n={n}, i={i}, eps={eps})")
    domain = cube_realization(standard_interval(6 * m), n)
    horn, _ = horn_inclusion(2 * m, n, i, eps)

    def clamp_band(x):
        return min(max(x, 2 * m), 4 * m)

    def central(x):
        return min(max(x - 2 * m, 0), 2 * m)

    def image(v):
        d = max((abs(c - clamp_band(c)) for k, c in enumerate(v) if k != i - 1), default=0)
        out = []
        for k, c in enumerate(v):
            if k != i - 1:
                out.append(central(c))
            elif eps == 0:
                out.append(max(central(c), 2 * m - d))
            else:
                out.append(min(central(c), d))
        return tuple(out)

    assignment = {v: image(v) for v in domain.vertices}
    return DigraphMap(domain, horn, assignment)


def kan_filler_report(m, n, i, eps):
    """Run the three filler assertions; returns a JSON-friendly report."""
    from .errors import NotDigraphMap, UnknownVertex

    report = {"m": m, "n": n, "i": i, "eps": eps, "is_digraph_map": True,
              "lands_in_horn": True, "restricts_to_central_clamp": True}
    try:
        phi = kan_filler_phi(m, n, i, eps)
    except UnknownVertex:
        report["lands_in_horn"] = False
        report["pass"] = False
        return report
    except NotDigraphMap:
        report["is_digraph_map"] = False
        report["pass"] = False
        return report
    central = {x: min(max(x - 2 * m, 0), 2 * m) for x in range(6 * m + 1)}
    for v in horn_vertices(6 * m, n, i, eps):
        expected = tuple(central[c] for c in v)
        if phi.assignment[v] != expected:
            report["restricts_to_central_clamp"] = False
            report["witness"] = list(v)
            break
    report["pass"] = all(
        report[k] for k in ("is_digraph_map", "lands_in_horn", "restricts_to_central_clamp")
    )
    return report


# -- the rho maps ------------------------------------------------------------


def _check_rho_args(m, n, j):
    if m % 2 != 0:
        raise ParityError("rho needs an even base side")
    if m < 2:
        raise BadIndex("rho needs base side >= 2")
    if n < 1 or not 0 <= j <= n - 1:
        raise BadIndex(f"bad rho indices (n={n}, j={j})")


def rho(m, n, j):
    """The fold of the cylinder over the side-(m+2) n-cube onto the mixed
    product with j+1 large coordinates: coordinate j+1 is capped once per
    unit of the cylinder coordinate, later coordinates are capped twice."""
    _check_rho_args(m, n, j)
    big = standard_interval(m + 2)
    small = standard_interval(m)
    two = standard_interval(2)
    domain = mixed_realization([big] * n + [two])
    target = mixed_realization([big] * (j + 1) + [small] * (n - j - 1))

    def image(v):
        out = list(v[:j])
        out.append(min(v[j], m + 2 - v[n]))
        out.extend(min(c, m) for c in v[j + 1 : n])
        return tuple(out)

    return DigraphMap(domain, target, {v: image(v) for v in domain.vertices})


def rho_bar_function(m, n, j):
    """rho composed with capping the last cube coordinate to {0, 1, 2}, as
    a function on grid points."""

    def image(v):
        last = min(v[n], 2)
        out = list(v[:j])
        out.append(min(v[j], m + 2 - last))
        out.extend(min(c, m) for c in v[j + 1 : n])
        return tuple(out)

    return image


def check_rho_properties(n, m):
    """Exhaustively verify the five face identities of the rho-bar maps
    for every 0 <= j <= n-1 and every admissible (i, eps).

    Returns a report dict with one entry per (j, property) and a global
    verdict; vacuous cases are reported as skipped.
    """
    _check_rho_args(m, n, 0)
    report = {"n": n, "m": m, "checks": [], "pass": True}

    def record(name, j, status, detail=None):
        entry = {"property": name, "j": j, "status": status}
        if detail is not None:
            entry["detail"] = detail
        report["checks"].append(entry)
        if status == "fail":
            report["pass"] = False

    small_grid = _grid(m + 2, n)  # domain of the composites with faces

    def cap2(x):
        return min(x, m)

    for j in range(n):
        try:
            rho(m, n, j)
            bar = rho_bar_function(m, n, j)
            record("digraph-map", j, "pass")
        except Exception as exc:  # construction already validates both maps
            record("digraph-map", j, "fail", str(exc))
            continue
        if n >= 2:
            bar_prev_jm1 = rho_bar_function(m, n - 1, j - 1) if j >= 1 else None
            bar_prev_j = rho_bar_function(m, n - 1, j) if j <= n - 2 else None
        # (i): faces inserted strictly inside the large block
        if j >= 1:
            ok = True
            for i in range(1, j + 1):
                for eps in (0, 1):
                    for v in small_grid:
                        lhs = bar(_insert(v, i, eps * (m + 2)))
                        rhs = _insert(bar_prev_jm1(v), i, eps * (m + 2))
                        if lhs != rhs:
                            ok = False
            record("face-inside-large-block", j, "pass" if ok else "fail")
        else:
            record("face-inside-large-block", j, "skipped (vacuous)")
        # (ii): faces inserted strictly inside the small block
        if j <= n - 2:
            ok = True
            for i in range(j + 2, n + 1):
                for eps in (0, 1):
                    for v in small_grid:
                        lhs = bar(_insert(v, i, eps * (m + 2)))
                        rhs = _insert(bar_prev_j(v), i, eps * m)
                        if lhs != rhs:
                            ok = False
            record("face-inside-small-block", j, "pass" if ok else "fail")
        else:
            record("face-inside-small-block", j, "skipped (vacuous)")
        # (iii): the face at the seam factors through the double cap
        for eps in (0, 1):
            quotient = {}
            ok = True
            for v in small_grid:
                key = v[:j] + tuple(cap2(c) for c in v[j:])
                val = bar(_insert(v, j + 1, eps * (m + 2)))
                if quotient.setdefault(key, val) != val:
                    ok = False
            if ok:
                # the induced map on the quotient grid must be a digraph map
                big = standard_interval(m + 2)
                small = standard_interval(m)
                qdom = mixed_realization([big] * j + [small] * (n - j))
                tgt = mixed_realization([big] * (j + 1) + [small] * (n - j - 1))
                try:
                    DigraphMap(qdom, tgt, {v: quotient[v] for v in qdom.vertices})
                except Exception as exc:
                    ok = False
            record(f"seam-face-factors(eps={eps})", j, "pass" if ok else "fail")
        # (iv) and (v): the cylinder end faces
        ok_iv = all(
            bar(v + (m + 2,)) == v[:j] + tuple(cap2(c) for c in v[j:])
            for v in small_grid
        )
        record("end-face-top", j, "pass" if ok_iv else "fail")
        ok_v = all(
            bar(v + (0,)) == v[: j + 1] + tuple(cap2(c) for c in v[j + 1 :])
            for v in small_grid
        )
        record("end-face-bottom", j, "pass" if ok_v else "fail")
    return report
