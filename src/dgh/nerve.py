"""Cube/horn realizations, truncated cubical nerves, fillers, and rho maps.

An n-cube of the m-nerve of G is a digraph map from the n-fold box power of
the standard m-interval into G.  Level 0 is the vertices of G, and a level-n
cube is the m-step walk d_0 ... d_m of its slices in the box hom on level
n-1, the slice d_k being the cube with first grid coordinate k
(`nerve_levels`).

A level n >= 1 is stored as its walks only, in m+1 index columns: column j
holds each cube's slice j as a level-(n-1) position.  The level lists the
walks in lexicographic order, so the position of a cube is the rank of its
walk,

    start[d_0] + pos_0[d_0, d_1] + ... + pos_{m-1}[d_{m-1}, d_m],

where start[a] counts the walks that begin before a, and pos_k[a, b] sums,
over the heads b' < b of a at step k, the number of walk completions from
b' (`_rank_tables`; one small table per step over the box-hom arrows and
the constant steps, none over the cubes).

The walks of a level are expanded from per-cube blocks, made once per step
when the level is added (`_step_arrows`): the head list of each cube, which
is the step's own list, and its arrow count.  A prefix is extended by the
blocks of its end, so extending it costs only its own arrows.  The columns
chain the head blocks: column m lists the heads of each (m-1)-step
prefix's end, and column j < m repeats the end of each j-step prefix once
per walk completing it (`_walk_columns`).  The walk-mapped tables and the
heads search add one offset per arrow taken (`_extended`); the heads search
ranks the one-step prefixes once and reads each cube's in blocks.

Each step of such an expansion is one addition of two big ints, each a row
of fixed-width lanes, one lane per extended prefix: the prefix sums, each
repeated once per arrow taken from its end, and the offsets of those
arrows, packed into per-cube blocks once per table or search
(`_packed_blocks`).  No lane carries into the next.  The offsets are
counts, so no sum is negative; each is looked up before anything is
packed, so a mapped step that is not an arrow is reported first.  A sum
is start[d_0] + pos_0[d_0, d_1] + ... along a prefix of a walk of the
ranked level n, the number of walks listed before the walks that begin
with that prefix, so it is at most |X_n|, and a lane of w = 1, 2, 4 or 8
bytes holds it when |X_n| < 2^(8w) (`_lane`).  The repeats of a column
j < m are joined in lanes the same way.  Every result is read back as a
list of ints, so the tables stay lists.

Every structure map is a walk map, read slice by slice and ranked; x is a
level-n cube with slices d_0 ... d_m, and c a level-(n-1) cube with slices
c_0 ... c_m.  The three bases are the tables of index 1: two columns, and
s_1 and gamma_{1,eps} ranked in level n from lists over the level-(n-1)
columns (`TruncatedCubicalSet._ranked`):

    d_{1,0} x = d_0, d_{1,1} x = d_m                   (columns 0 and m)
    s_1 c             = (c, ..., c)
    gamma_{1,eps} c   = (w_0, ..., w_m), where w_k is the level-(n-1) walk
                        whose slice l is c_max(k,l) (eps = 0) or c_min(k,l)
                        (eps = 1)

One rule gives every other table, and every level map of a map of nerves:
apply index i one level down to each slice, mapping the walks as they are
listed (`TruncatedCubicalSet._walk_positions`).  A face maps level n's
walks into level n-1, a degeneracy or connection level n-1's into level n:

    d_{i+1,eps} x     = (d_{i,eps} d_0, ..., d_{i,eps} d_m)
    s_{i+1} c         = (s_i c_0, ..., s_i c_m)
    gamma_{i+1,eps} c = (gamma_{i,eps} c_0, ..., gamma_{i,eps} c_m)
    (phi_* x)         = (phi_* d_0, ..., phi_* d_m)          (`nerve_functor_map`)
    (t^* x)           = (t^* d_t(0), ..., t^* d_t(m+delta))  (`comparison_map`)

A mapped walk with a step that is not an arrow is not a cube, and is
reported as a structure map leaving the enumerated level.  No image tuple
is stored: `cubes[n]` builds each on read, as the concatenation of its
slices' tuples.

The heads of a cube, slice by slice.  Let d and e be level-n cubes with
slices d_t and e_t.  An arrow d -> e of the box hom asks, at every grid
vertex v, that d(v) = e(v) or d(v) -> e(v) in G.  Every vertex of the grid
lies in exactly one slice, the one of its first coordinate, so d -> e or
d = e iff, for every t, d_t -> e_t is an arrow of the box hom on level n-1
or d_t = e_t.  Those e_t are the heads of d_t, itself included, which are
the forward step lists of level n.  So the heads of d, itself included, are
the level-n walks e with e_t among the heads of d_t for every t: a walk
along the steps of level n constrained slice by slice
(`TruncatedCubicalSet._heads`).  At level 0 the heads of a vertex are its
successors and itself.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from itertools import accumulate, chain, compress, count, islice, product, repeat
from operator import add, mul, ne, sub
from struct import Struct, pack

from .config import DEFAULT_MAX_CUBES
from .digraph import Digraph, DigraphMap
from .errors import BadIndex, BudgetExceeded, InputError, InvalidCubicalSet, ParityError
from .intervals import BWD, FWD, standard_interval, truncation


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
    """Cube levels 0..K, stored as walks (see the module docstring), plus
    face/degeneracy/connection tables.

    cubes[n]        : level n as image tuples over the level-n grid; a list
                      at n = 0, built on read above it (`_ImageTuples`)
    columns[n]      : n >= 1, m+1 index lists: columns[n][j][k] is the
                      level-(n-1) position of slice j of cube k
    steps[n]        : n >= 1, the walk adjacency of level n in interval-word
                      order: steps[n][k][a] lists, sorted, the level-(n-1)
                      cubes that step k of a walk may take from cube a, the
                      constant step included; these are the head blocks of
                      step k
    index           : [{vertex 1-tuple: position}], for level 0 only
    faces[n]        : {(i, eps): index list}, X_n -> X_{n-1},   1 <= i <= n
    degens[n]       : {i: index list},        X_{n-1} -> X_n,   1 <= i <= n
    connections[n]  : {(i, eps): index list}, X_{n-1} -> X_n,   1 <= i <= n-1
    nondegenerate[n]: a bytearray, a flag 1 or 0 per level-n cube

    The arrows of each step of steps[n] are `_arrows[n]`, listed flat and
    in per-cube blocks (`_step_arrows`), and the rank tables start and pos_k
    of level n are `_ranks[n]` (`_rank_tables`).  `_add_level` lists the
    columns from the head blocks and the walk completions of the ranking
    (`_walk_columns`).  The tables s_1 and gamma_{1,eps} rank lists read off
    the level-(n-1) columns (`_ranked`), each table of index i + 1 maps the
    walks of index i's source level as they are listed (`_walk_positions`),
    and the box-hom heads are walks constrained slice by slice (`_heads`);
    the last two extend prefixes by the blocks, adding in packed lanes
    (`_extended`).  The constructor holds level 0, `_add_level` counts and
    appends a level from its step lists, and `_build_tables` builds the
    tables once every level is there (`nerve_levels`).
    """

    def __init__(self, target, m, sign):
        self.target = target
        self.m = m
        self.sign = sign
        self.cubes = [list(zip(target.vertices))]
        self.index = [dict(zip(self.cubes[0], count()))]
        self.steps, self.columns, self._arrows, self._ranks = [None], [None], [None], [None]
        self._word = standard_interval(m, sign).word

    @property
    def top_dim(self):
        return len(self.cubes) - 1

    def _add_level(self, steps, remaining):
        """Append the next level: the walks along `steps`, its step
        head-lists over the current top level.  The walks are counted from
        the rank tables, as the completions from every cube, and
        BudgetExceeded is raised when they number more than `remaining`,
        before any walk is listed."""
        arrows = list(map(_step_arrows, steps))
        start, pos, completions = _rank_tables(arrows, len(self.cubes[-1]))
        walks = sum(completions[0])
        if walks > remaining:
            raise BudgetExceeded(f"{walks} walks")
        columns = _walk_columns(steps, completions)
        self.steps.append(steps)
        self._arrows.append(arrows)
        self._ranks.append((start, pos))
        self.columns.append(columns)
        self.cubes.append(_ImageTuples(self.cubes[-1], columns))

    def _heads(self, arrow_budget):
        """Per cube d of the top level n, the sorted positions of its heads
        in the box hom on level n, d included: at n >= 1 the walks e with e_t
        among the heads of d_t (module docstring), found by extending the
        prefixes e_0 ... e_t along step t to the heads of d_{t+1}.  The
        one-step prefixes are ranked once per search, not once per cube:
        those of d are the blocks of the heads e_0 of d_0.  Raises
        BudgetExceeded as soon as the heads other than the cubes themselves
        number more than `arrow_budget`."""
        n = self.top_dim
        if n == 0:
            g = self.target
            return [sorted([k, *map(g.index, g.successors(v))]) for k, v in enumerate(g.vertices)]
        word = self._word
        steps = self.steps[n]
        below = steps[word.index(FWD)] if FWD in word else _transposed(steps[0])
        allowed = list(map(set, below))
        start, pos = self._ranks[n]
        arrows = self._arrows[n]
        lane = _lane(len(self.cubes[n]))
        # pos[k] holds the arrows of step k in walk order; the first step's
        # blocks hold the ranks of the one-step prefixes e_0 e_1 themselves
        values = [list(p.values()) for p in pos]
        tails, _, _, first_heads, _ = arrows[0]
        values[0] = list(map(add, map(start.__getitem__, tails), values[0]))
        offsets = [_packed_blocks(v, step[2], lane) for v, step in zip(values, arrows)]
        heads, found = [], 0
        for d in zip(*self.columns[n]):
            ends = below[d[0]]
            reached = chain.from_iterable(map(first_heads.__getitem__, ends))
            grown = _unpacked(b"".join(map(offsets[0].__getitem__, ends)), lane)
            for t, slot in enumerate(d[1:], 1):
                reached = list(reached)
                keep = list(map(allowed[slot].__contains__, reached))
                # read lazily by the next step, if there is one
                ranks, ends = compress(grown, keep), compress(reached, keep)
                if t < len(arrows):
                    reached, grown = _extended(list(ends), ranks, arrows[t], offsets[t], lane)
            ranks = list(ranks)
            found += len(ranks) - 1
            if found > arrow_budget:
                raise BudgetExceeded(f"more than {arrow_budget} box-hom arrows")
            heads.append(ranks)
        return heads

    def _ranked(self, n, slices):
        """The level-n positions of the walks whose slice k is slices[k][x],
        one walk per x, from lists of level-(n-1) positions (the bases s_1
        and gamma_{1,eps}); raises InvalidCubicalSet on a step not an arrow."""
        start, pos = self._ranks[n]
        try:
            ranks = list(map(start.__getitem__, slices[0]))
            for table, tails, heads in zip(pos, slices, slices[1:]):
                ranks = list(map(add, ranks, map(table.__getitem__, zip(tails, heads))))
        except KeyError:
            raise _left_level(n) from None
        return ranks

    def _walk_positions(self, n, arrows, f, sel):
        """The level-n positions of the walks along `arrows` (another
        level's `_arrows`), mapped slice by slice: the walk d_0 ... d_k goes
        to the level-n walk whose slice j is f[d_sel[j]], with f a list into
        level n-1.  `sel` is monotone and onto, with increments 0 or 1, so
        source step k crosses one target step and the other target steps are
        constant.  The callers are the tables of index i + 1, with sel the
        identity (`_build_tables`), and the level maps (`_slice_wise_levels`).
        Raises InvalidCubicalSet when a mapped walk is not a level-n cube."""
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
            for (tails, heads, *_), j, pad in zip(arrows, crossed, pads[1:]):
                mapped = list(map(f.__getitem__, heads))
                offs = list(map(pos[j].__getitem__, zip(map(f.__getitem__, tails), mapped)))
                offsets.append(_padded(offs, pad, mapped))
        except KeyError:
            raise _left_level(n) from None
        return _walk_sums(arrows, first, offsets, _lane(len(self.cubes[n])))

    def _build_tables(self):
        m = self.m
        K = self.top_dim
        self.faces, self.degens, self.connections = (
            [dict() for _ in range(K + 1)] for _ in range(3)
        )
        F, S, C = self.faces, self.degens, self.connections
        slices = range(m + 1)
        for n in range(1, K + 1):
            F[n][(1, 0)], F[n][(1, 1)] = self.columns[n][0], self.columns[n][m]
            S[n][1] = self._ranked(n, [range(len(self.cubes[n - 1]))] * (m + 1))
            if n > 1:
                below = self.columns[n - 1]
                for eps, fuse in ((0, max), (1, min)):
                    C[n][(1, eps)] = self._ranked(n, [
                        self._ranked(n - 1, [below[fuse(k, l)] for l in slices]) for k in slices
                    ])
            # index i + 1 at level n is index i at level n - 1 on each slice
            for tables, level, walks in ((F, n - 1, n), (S, n, n - 1), (C, n, n - 1)):
                for key, table in tables[n - 1].items():
                    up = key + 1 if type(key) is int else (key[0] + 1, key[1])
                    tables[n][up] = self._walk_positions(level, self._arrows[walks], table, slices)
        self.nondegenerate = self._nondegenerate_flags()

    def _nondegenerate_flags(self):
        flags = [bytearray(b"\1") * len(level) for level in self.cubes]
        for n in range(1, self.top_dim + 1):
            hit = set()
            for table in self.degens[n].values():
                hit.update(table)
            for table in self.connections[n].values():
                hit.update(table)
            for k in hit:
                flags[n][k] = 0
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
    # Each identity is a pair of composed index maps per parameter tuple,
    # each given as (outer, inner) for x -> outer[inner[x]]; a level's
    # identity map is (None, range).  The violating cubes x come out of
    # `_mismatches` in increasing order, so the list reads parameter loops
    # outside and x innermost.  When the outer tables have at most 256
    # entries (the level-3 face-face identities of N_2(C3) pass through the
    # 246 cubes of level 2), each side is composed by `bytes.translate` at
    # about 1 ns per entry, the byte form; `_mismatches` gives its exact
    # conditions, which a corrupted table can fail.  An inner entry outside
    # its outer table is a violation at its cube, and the report names the
    # table and the entry (`_strays`).

    def validate_identities(self):
        problems = self.identity_violations()
        if problems:
            raise InvalidCubicalSet(problems[0])

    def identity_violations(self):
        out = []
        K = self.top_dim
        F, S, C = self.faces, self.degens, self.connections
        ident = [(None, range(len(level))) for level in self.cubes[:K]]
        forms, names = {}, _table_names(self)

        def bad(name, lhs, rhs, *params):
            for x in _mismatches(lhs, rhs, forms):
                out.append(f"{name}: {(*params, x)}" + _strays(names, (lhs, rhs), x))

        for n in range(2, K + 1):  # face-face
            for j in range(1, n + 1):
                for i in range(j, n):
                    for e in (0, 1):
                        for e2 in (0, 1):
                            lhs = (F[n - 1][(i, e)], F[n][(j, e2)])
                            rhs = (F[n - 1][(j, e2)], F[n][(i + 1, e)])
                            bad("face-face", lhs, rhs, n, i, j, e, e2)
        for n in range(1, K + 1):  # face-degeneracy
            for j in range(1, n + 1):
                for i in range(1, n + 1):
                    for e in (0, 1):
                        lhs = (F[n][(i, e)], S[n][j])
                        if j == i:
                            rhs = ident[n - 1]
                        elif j < i:
                            rhs = (S[n - 1][j], F[n - 1][(i - 1, e)])
                        else:
                            rhs = (S[n - 1][j - 1], F[n - 1][(i, e)])
                        bad("face-degeneracy", lhs, rhs, n, i, j, e)
        for n in range(1, K):  # degeneracy-degeneracy
            for i in range(1, n + 1):
                for j in range(1, i + 1):
                    lhs = (S[n + 1][j], S[n][i])
                    rhs = (S[n + 1][i + 1], S[n][j])
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
                            lhs = (C[n + 1][(i, e)], C[n][(j, e2)])
                            if j > i:
                                rhs = (C[n + 1][(j + 1, e2)], C[n][(i, e)])
                            else:
                                rhs = (C[n + 1][(i + 1, e)], C[n][(i, e)])
                            bad("connection-connection", lhs, rhs, n, i, j, e, e2)
        for n in range(2, K + 1):  # face-connection
            for j in range(1, n):
                for i in range(1, n + 1):
                    for e in (0, 1):
                        for e2 in (0, 1):
                            lhs = (F[n][(i, e)], C[n][(j, e2)])
                            if j < i - 1:
                                rhs = (C[n - 1][(j, e2)], F[n - 1][(i - 1, e)])
                            elif j > i:
                                rhs = (C[n - 1][(j - 1, e2)], F[n - 1][(i, e)])
                            elif e == e2:
                                rhs = ident[n - 1]
                            else:
                                rhs = (S[n - 1][j], F[n - 1][(j, e)])
                            bad("face-connection", lhs, rhs, n, i, j, e, e2)
        for n in range(1, K):  # connection-degeneracy
            for j in range(1, n + 1):
                for i in range(1, n + 1):
                    for e in (0, 1):
                        lhs = (C[n + 1][(i, e)], S[n][j])
                        if j < i:
                            rhs = (S[n + 1][j], C[n][(i - 1, e)])
                        elif j == i:
                            rhs = (S[n + 1][i], S[n][i])
                        else:
                            rhs = (S[n + 1][j + 1], C[n][(i, e)])
                        bad("connection-degeneracy", lhs, rhs, n, i, j, e)
        return out


class _ImageTuples(Sequence):
    """A level n >= 1 as image tuples, built on read: cube k is the
    concatenation of the tuples of its slices, the level-(n-1) cubes
    columns[j][k]."""

    def __init__(self, below, columns):
        self._below = below
        self._columns = columns

    def __len__(self):
        return len(self._columns[0])

    def __getitem__(self, k):
        return sum((self._below[column[k]] for column in self._columns), ())

    def __iter__(self):
        below = list(self._below)
        tuples = map(below.__getitem__, self._columns[0])
        for column in self._columns[1:]:
            tuples = map(add, tuples, map(below.__getitem__, column))
        return tuples


def _transposed(heads):
    """The tails of each cube, sorted, from the sorted heads of each."""
    tails = [[] for _ in heads]
    for a, hs in enumerate(heads):
        for b in hs:
            tails[b].append(a)
    return tails


def _padded(ranks, pad, slices):
    """ranks plus pad[y] for the slice y of each, when there is a pad."""
    return ranks if pad is None else list(map(add, ranks, map(pad.__getitem__, slices)))


def _left_level(level):
    return InvalidCubicalSet(f"structure map left the enumerated level {level}")


def _mismatches(lhs, rhs, forms):
    """The positions x, in increasing order, where outer1[inner1[x]] !=
    outer2[inner2[x]], for lhs = (outer1, inner1) and rhs = (outer2, inner2),
    or where an inner entry is outside 0..len(outer)-1; an outer of None
    stands for the identity.

    Both sides are composed whole and compared first, since they are almost
    always equal.  The byte form (`_translated`) composes in C with
    `bytes.translate`; it applies when every outer table has at most 256
    entries, every entry of the tables is in 0..255 and every inner entry is
    below the length of its outer table.  Otherwise both sides are
    composed as lists (`_composed`).  `forms` keeps what is read off each
    table (`_kept`) for one check over tables that do not change while it
    runs."""
    a = b = None
    if all(outer is None or len(outer) <= 256 for outer, _ in (lhs, rhs)):
        a = _translated(*lhs, forms)
        b = None if a is None else _translated(*rhs, forms)
    if b is None:
        a, b = _composed(*lhs, forms), _composed(*rhs, forms)
    if a == b:
        return ()
    return compress(count(), map(ne, a, b))


def _composed(outer, inner, forms):
    """outer[inner[x]] for every x, as a list, with a marker equal to
    nothing else where inner[x] is outside 0..len(outer)-1.  The inner
    entries are checked before composing: a negative one by `_unsigned`,
    kept in `forms`, and one past the end by the IndexError it raises."""
    if outer is None:
        return list(inner)
    if _kept(forms, _unsigned, inner):
        try:
            return list(map(outer.__getitem__, inner))
        except IndexError:
            pass
    stray, size = object(), len(outer)
    return [outer[y] if 0 <= y < size else stray for y in inner]


def _table_names(x):
    """The face, degeneracy and connection tables of x, by id, named as
    read off x: faces[n][(i, eps)], degens[n][i], connections[n][(i, eps)]."""
    return {
        id(table): f"{attr}[{n}][{key}]"
        for attr in ("faces", "degens", "connections")
        for n, tables in enumerate(getattr(x, attr))
        for key, table in tables.items()
    }


def _strays(names, sides, x):
    """A note for each side (outer, inner) whose inner entry at x is
    outside 0..len(outer)-1, naming the inner table by `names` (by id)."""
    return "".join(
        f", {names[id(inner)]}[{x}] = {inner[x]} outside 0..{len(outer) - 1}"
        for outer, inner in sides
        if outer is not None and not 0 <= inner[x] < len(outer)
    )


def _translated(outer, inner, forms):
    """outer[inner[x]] for every x, as a bytearray, or None when the byte
    form does not apply (`_mismatches`); outer has at most 256 entries."""
    if outer is None:
        return _kept(forms, _byte_form, inner)
    table, data = _kept(forms, _byte_form, outer), _kept(forms, _byte_form, inner)
    if table is None or data is None:
        return None
    # the inner entries past the end of outer are deleted, so they show as
    # a shorter result
    out = data.translate(table.ljust(256, b"\0"), bytes(range(len(outer), 256)))
    return out if len(out) == len(data) else None


def _kept(forms, make, table):
    """make(table), made once per table and kept in `forms` next to the
    table, so that the table's id is not reused while `forms` lives."""
    key = make, id(table)
    if key not in forms:
        forms[key] = table, make(table)
    return forms[key][1]


def _unsigned(table):
    """Whether every entry of an index list is an int of at least 0: the
    table converts to an array of unsigned C longs, at about half the cost
    of its minimum."""
    from array import array  # loaded on first use: 0.3 ms off every start

    try:
        array("L", table)
    except (OverflowError, TypeError):
        return False
    return True


def _byte_form(table):
    """The entries of an index list as a bytearray, or None when one is not
    an int in 0..255.  (`bytearray` reads a list of ints faster than
    `bytes` does.)"""
    try:
        return bytearray(table)
    except (TypeError, ValueError):
        return None


def nerve_levels(g, m=1, sign=1, top_dim=2, budget=DEFAULT_MAX_CUBES):
    """Enumerate the truncated m-nerve of g up to dimension top_dim.

    Level n >= 1 is built from level n-1 by the exponential law
    Hom(I_m □ I_m^{n-1}, G) ≅ Hom(I_m, G^{I_m^{n-1}}),
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
    the index sequences of the walks do: listing the walks in lexicographic
    order of indices lists level n in the enumerator's order
    (`enumerate_digraph_maps(cube_realization(interval, n), g)`).

    Budget: raises BudgetExceeded, naming `budget` and the level, when the
    levels hold more than `budget` cubes in total, before any walk of the
    offending level is listed.  A level n >= 1 holds its walks, counted
    exactly by the completions its rank tables push back through the
    adjacency (`_add_level`), so only level 0 is counted as a list.  The
    adjacency search stops early too: each arrow a -> b, a != b, is its
    own non-constant walk (a, b, b, ...) or (b, a, a, ...), whichever the
    first step reads, and the |X_{n-1}| constant walks are the others, so
    |X_n| >= |X_{n-1}| + #arrows.  That bound caps the heads, the step
    arrays and the rank tables made before the count at the budget.  The
    structure tables are built only after every level has passed the
    budget.
    """
    x = TruncatedCubicalSet(g, m, sign)
    remaining = budget
    for n in range(top_dim + 1):
        try:
            if n:
                x._add_level(_next_steps(x, remaining), remaining)
            elif len(x.cubes[0]) > remaining:
                raise BudgetExceeded(f"{len(x.cubes[0])} cubes")
        except BudgetExceeded:
            raise BudgetExceeded(
                f"nerve exceeds {budget} total cubes at level {n}"
            ) from None
        remaining -= len(x.cubes[n])
    x._build_tables()
    return x


def _next_steps(x, remaining):
    """The step head-lists of the level after the top level of x, in
    interval-word order: the box-hom heads on the top level (`_heads`) at
    the forward steps, and their tails at the backward steps.  Raises
    BudgetExceeded when the level after would hold more than `remaining`
    cubes by the arrow bound (`nerve_levels`)."""
    word = x._word
    if not word:  # m = 0: the one-vertex grid, each level is level 0
        return []
    heads = x._heads(remaining - len(x.cubes[-1]))
    tails = _transposed(heads) if BWD in word else None
    return [heads if step == FWD else tails for step in word]


def _step_arrows(heads):
    """One step's arrows a -> b, b in heads[a], in walk order: the flat
    lists (tails, heads, bounds), the arrows from a being bounds[a] up to
    bounds[a + 1], then the per-cube blocks (heads, counts), the head list
    and the arrow count of each cube.  Made once per step when a level is
    added; every walk expansion of the level extends its prefixes by these
    blocks (`_walk_columns`, `_extended`)."""
    counts = list(map(len, heads))
    tails = list(chain.from_iterable(map(repeat, range(len(heads)), counts)))
    bounds = list(accumulate(counts, initial=0))
    return tails, list(chain.from_iterable(heads)), bounds, heads, counts


def _rank_tables(arrows, size):
    """The tables that rank the walks along `arrows` (`_step_arrows` per
    step) over `size` cubes in lexicographic order: start[a] counts the
    walks that begin before a, and pos[k][a, b] counts, over the heads
    b' < b of a at step k, the walk completions from b'.  A step that is
    not an arrow is missing from pos[k].  Also returns completions[k][a],
    the number of walks along steps k, k+1, ... from a, for k = 0..m: all
    ones pushed back through the steps, last step first, so that
    sum(completions[0]) is the number of walks."""
    completions = [[1] * size]
    pos = []
    for tails, heads, bounds, _, _ in reversed(arrows):
        passed = list(accumulate(map(completions[-1].__getitem__, heads), initial=0))
        runs = list(map(passed.__getitem__, bounds))
        pos.append(dict(zip(zip(tails, heads), map(sub, passed, map(runs.__getitem__, tails)))))
        completions.append(list(map(sub, runs[1:], runs)))
    return list(accumulate(completions[-1], initial=0))[:-1], pos[::-1], completions[::-1]


#: the lanes of a packed walk expansion, narrowest first: an unsigned int
#: of 1, 2, 4 or 8 bytes in native byte order, whose type code `struct` and
#: `memoryview.cast` read as the same C type
_LANES = tuple(map(Struct, ("=B", "=H", "=I", "=Q")))


def _lane(size):
    """The narrowest lane that holds every integer in 0..size.  The sizes
    are list lengths, so size <= sys.maxsize < 2**64 and 8 bytes hold it."""
    return next(lane for lane in _LANES if size < 256 ** lane.size)


def _unpacked(data, lane):
    """The lanes of a packed buffer as a list of ints."""
    return memoryview(data).cast(lane.format[1]).tolist()


def _packed_blocks(values, bounds, lane):
    """A list over the arrows of one step, packed in `lane` and cut into
    per-cube blocks: block a holds the values of the arrows from a, bounds[a]
    up to bounds[a + 1], as bytes.  Made once per table or heads search."""
    packed = pack(f"={len(values)}{lane.format[1]}", *values)
    cuts = [b * lane.size for b in bounds]
    return list(map(packed.__getitem__, map(slice, cuts, islice(cuts, 1, None))))


def _walk_sums(arrows, first, offsets, lane):
    """For each walk d_0 ... d_k along `arrows` (`_step_arrows` per step),
    in lexicographic order, first[d_0] plus offsets[i][e] for the arrow e
    taken at each step i.  The one-step walks are the first step's arrows,
    in order; each later step extends the prefixes in order (`_extended`),
    its offsets packed in `lane` and cut into per-cube blocks once."""
    if not arrows:
        return list(first)
    (tails, ends, *_), *rest = arrows
    sums = list(map(add, map(first.__getitem__, tails), offsets[0]))
    for k, step in enumerate(rest, 1):
        blocks = _packed_blocks(offsets[k], step[2], lane)
        reached, sums = _extended(ends, sums, step, blocks, lane)
        if k < len(rest):
            ends = list(reached)
    return sums


def _extended(ends, sums, step, blocks, lane):
    """The prefixes ending at ends[x] with sums[x], each extended by every
    arrow e of `step` from its end, in order: the heads reached, lazily,
    and the sums plus the offsets of the arrows taken.  Each prefix draws
    the blocks of its end, the head list and arrow count of `step`
    (`_step_arrows`) and blocks[end], its arrows' offsets packed in `lane`
    (`_packed_blocks`), so it costs no more than its own arrows.

    The addition is one big-int addition over the lanes, one lane per
    extended prefix: each sum repeated once per arrow taken from its end,
    joined, plus the offset blocks of the ends, joined.  No lane carries
    into the next when the sums and offsets are non-negative and every
    total fits its lane, as for the ranks of a level of at most `size`
    walks in `_lane(size)` (module docstring).  Each joined buffer is freed
    once its int exists."""
    _, _, _, heads, counts = step
    order = sys.byteorder
    packed = b"".join(map(mul, map(lane.pack, sums), map(counts.__getitem__, ends)))
    total = int.from_bytes(packed, order)
    del packed
    packed = b"".join(map(blocks.__getitem__, ends))
    total += int.from_bytes(packed, order)
    size = len(packed)
    del packed
    grown = _unpacked(total.to_bytes(size, order), lane)
    return chain.from_iterable(map(heads.__getitem__, ends)), grown


def _walk_columns(steps, completions):
    """The m+1 columns of the walks along `steps` (head lists per cube), in
    lexicographic order, with `completions` from `_rank_tables`: column j
    holds each walk's d_j.  The j-step prefixes, in order, are the head
    blocks of step j-1 chained along the (j-1)-step prefixes, and each is
    the start of completions[j][d_j] consecutive walks, so column j < m
    repeats each prefix end that often, as its lane repeated and joined,
    and column m is the ends of the m-step walks themselves."""
    ends, columns = list(range(len(completions[0]))), []
    lane = _lane(len(ends))
    for heads, weights in zip(steps, completions):
        repeats = map(mul, map(lane.pack, ends), map(weights.__getitem__, ends))
        columns.append(_unpacked(b"".join(repeats), lane))
        ends = list(chain.from_iterable(map(heads.__getitem__, ends)))
    return columns + [ends]


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
        forms = {}
        names = _table_names(X) | {id(level): f"levels[{n}]" for n, level in enumerate(L)}
        for n in range(1, X.top_dim + 1):
            # x in the source of `tables`: L_after(table(x)) == table'(L_before(x))
            for kind, tables, images, before, after in (
                ("face", X.faces[n], Y.faces[n], L[n], L[n - 1]),
                ("degeneracy", X.degens[n], Y.degens[n], L[n - 1], L[n]),
                ("connection", X.connections[n], Y.connections[n], L[n - 1], L[n]),
            ):
                for key, table in tables.items():
                    lhs = (after, table)
                    rhs = (images[key], before)
                    msg = f"{kind} {key} at level {n} not natural"
                    out.extend(msg + _strays(names, (lhs, rhs), x)
                               for x in _mismatches(lhs, rhs, forms))
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
        levels = [list(map(dst.index[0].__getitem__, vertices))]
    except KeyError:
        raise _left_level(0) from None
    for n in range(1, src.top_dim + 1):
        levels.append(dst._walk_positions(n, src._arrows[n], levels[-1], sel))
    return levels


# -- the horn filler ---------------------------------------------------------


def _central_clamp(x, m):
    """The central clamp {0..6m} -> {0..2m}: x - 2m, clamped to 0..2m."""
    return min(max(x - 2 * m, 0), 2 * m)


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

    def image(v):
        d = max((abs(c - clamp_band(c)) for k, c in enumerate(v) if k != i - 1), default=0)
        out = []
        for k, c in enumerate(v):
            if k != i - 1:
                out.append(_central_clamp(c, m))
            elif eps == 0:
                out.append(max(_central_clamp(c, m), 2 * m - d))
            else:
                out.append(min(_central_clamp(c, m), d))
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
    for v in horn_vertices(6 * m, n, i, eps):
        expected = tuple(_central_clamp(c, m) for c in v)
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
    # the cylinder coordinate is in 0..2, where the cap leaves it alone
    image = rho_bar_function(m, n, j)
    return DigraphMap(domain, target, {v: image(v) for v in domain.vertices})


def rho_bar_function(m, n, j):
    """rho composed with capping the last cube coordinate to {0, 1, 2}, as
    a function on grid points; on rho's domain the cap is the identity, so
    this is rho's image formula too."""

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
        except InputError as exc:  # construction already validates both maps
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
                except InputError:
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
