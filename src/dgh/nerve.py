"""Cube/horn realizations, truncated cubical nerves, fillers, and rho maps.

An n-cube of the m-nerve of G is a digraph map from the n-fold box power of
the standard m-interval into G, stored as the tuple of its images over the
grid {0..m}^n in lexicographic order.  Level n is built from level n-1 by
the exponential law: its cubes are the m-step walks in the box hom on the
level-(n-1) cubes, concatenated, and they are counted against the cube
budget before any of them is built (`nerve_levels`).  Structure maps
(faces, degeneracies, connections) are computed by precomposition with the
realized coordinate maps and memoized into index tables.
"""

from __future__ import annotations

from bisect import insort
from itertools import compress, count, product
from operator import itemgetter, ne

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

    cubes[n]      : list of image tuples over the level-n grid
    faces[n]      : {(i, eps): index list}, X_n -> X_{n-1},   1 <= i <= n
    degens[n]     : {i: index list},        X_{n-1} -> X_n,   1 <= i <= n
    connections[n]: {(i, eps): index list}, X_{n-1} -> X_n,   1 <= i <= n-1
    """

    def __init__(self, target, m, sign, cubes):
        self.target = target
        self.m = m
        self.sign = sign
        self.top_dim = len(cubes) - 1
        self.cubes = cubes
        self.index = [dict(zip(level, count())) for level in cubes]
        self._grids = [_grid(m, n) for n in range(self.top_dim + 1)]
        self._grid_index = [
            {pt: k for k, pt in enumerate(gr)} for gr in self._grids
        ]
        self.faces = [dict() for _ in range(self.top_dim + 1)]
        self.degens = [dict() for _ in range(self.top_dim + 1)]
        self.connections = [dict() for _ in range(self.top_dim + 1)]
        self._build_tables()
        self.nondegenerate = self._nondegenerate_flags()

    def _table(self, src, rows, dst):
        """The structure map X_src -> X_dst: each level-src cube read at the
        grid positions `rows`, looked up in level dst."""
        return _index_table(self.index[dst], _read_rows(self.cubes[src], rows), dst)

    def _build_tables(self):
        m = self.m
        for n in range(1, self.top_dim + 1):
            small, big = self._grids[n - 1], self._grids[n]
            big_ix = self._grid_index[n]
            small_ix = self._grid_index[n - 1]
            for i in range(1, n + 1):
                for eps in (0, 1):
                    rows = [big_ix[_insert(pt, i, eps * m)] for pt in small]
                    self.faces[n][(i, eps)] = self._table(n, rows, n - 1)
            for i in range(1, n + 1):
                rows = [small_ix[_drop(pt, i)] for pt in big]
                self.degens[n][i] = self._table(n - 1, rows, n)
            for i in range(1, n):
                for eps in (0, 1):
                    rows = [small_ix[_merge(pt, i, eps)] for pt in big]
                    self.connections[n][(i, eps)] = self._table(n - 1, rows, n)

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


def _index_table(index, images, level):
    """Positions of the image tuples `images` in the level's `index`."""
    try:
        return list(map(index.__getitem__, images))
    except KeyError:
        raise InvalidCubicalSet(
            f"structure map left the enumerated level {level}"
        ) from None


def _composed(outer, inner):
    """The index map x -> outer[inner[x]], lazily."""
    return map(outer.__getitem__, inner)


def _mismatches(lhs, rhs):
    """The positions x, in increasing order, where two index maps differ."""
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
    |X_n| >= |X_{n-1}| + #arrows.
    """
    interval = standard_interval(m, sign)
    level = list(zip(g.vertices))
    cubes = []
    remaining = budget
    for n in range(top_dim + 1):
        try:
            if n:
                level = _walk_level(g, interval, n, level, remaining)
            if len(level) > remaining:
                raise BudgetExceeded(f"{len(level)} cubes")
        except BudgetExceeded:
            raise BudgetExceeded(
                f"nerve exceeds {budget} total cubes at level {n}"
            ) from None
        remaining -= len(level)
        cubes.append(level)
    return TruncatedCubicalSet(g, m, sign, cubes)


def _walk_level(g, interval, n, prev, remaining):
    """Level n of the nerve from level n-1 (`prev`): the m-step walks in
    the box hom on `prev`, or BudgetExceeded when they number more than
    `remaining`, raised before any walk is built."""
    word = interval.word
    if not word:  # m = 0: the one-vertex grid, each level is level 0
        return list(prev)
    out, into = _box_hom_lists(
        cube_realization(interval, n - 1), g, prev, remaining - len(prev)
    )
    walks = _walk_count(word, out, into)
    if walks > remaining:
        raise BudgetExceeded(f"{walks} walks")
    return _concatenated_walks(prev, word, out, into)


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


def _walk_count(word, out, into):
    """The number of walks whose step k follows `out` where word[k] is
    forward and `into` where it is backward: all-ones weights pushed back
    through the steps, last step first."""
    weights = [1] * len(out)
    for step in reversed(word):
        heads = out if step == FWD else into
        weights = [sum(map(weights.__getitem__, hs)) for hs in heads]
    return sum(weights)


def _concatenated_walks(level, word, out, into):
    """The walks of `_walk_count` as concatenated image tuples, in
    lexicographic order of their index sequences.  The walks are built one
    start at a time; only the prefixes up to the last step are held, with
    their end index, and the last step emits the image tuples directly."""
    steps = [out if step == FWD else into for step in word]
    last = steps.pop()
    cubes = []
    for start in range(len(level)):
        prefixes = [(start, level[start])]
        for heads in steps:
            prefixes = [(b, image + level[b]) for a, image in prefixes for b in heads[a]]
        cubes += [image + level[b] for a, image in prefixes for b in last[a]]
    return cubes


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
    """Postcomposition with a digraph map, as a map of truncated nerves."""
    src = nerve_levels(phi.source, m, 1, top_dim, budget)
    dst = nerve_levels(phi.target, m, 1, top_dim, budget)
    image = phi.assignment.__getitem__
    levels = [
        _index_table(dst.index[n], (tuple(map(image, c)) for c in src.cubes[n]), n)
        for n in range(top_dim + 1)
    ]
    return CubicalMap(src, dst, levels)


_COMPARISON_DELTAS = {"r": 1, "l": 1, "c2": 4}


def comparison_map(kind, g, m, top_dim=2):
    """Precomposition with the truncation I_{m+delta} -> I_m of
    `intervals.truncation`: N_m G -> N_{m+delta} G.

    'r' keeps the orientation, 'l' flips it, 'c2' keeps it and jumps by 4.
    """
    delta = _COMPARISON_DELTAS[kind]
    src = nerve_levels(g, m, 1, top_dim)
    dst = nerve_levels(g, m + delta, -1 if kind == "l" else 1, top_dim)
    t = truncation(kind, m).assignment
    levels = []
    for n in range(top_dim + 1):
        small_ix = src._grid_index[n]
        rows = [
            small_ix[tuple(t[c] for c in pt)] for pt in dst._grids[n]
        ]
        levels.append(_index_table(dst.index[n], _read_rows(src.cubes[n], rows), n))
    return CubicalMap(src, dst, levels)


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
