"""Normalized cubical homology, induced maps, and fundamental-group
presentations for truncated cubical sets.

The chain complex in degree n has the nondegenerate n-cubes as basis;
boundaries are the alternating face sums with degenerate faces sent to
zero.  Integral homology is computed through Smith normal form.  The top
truncated degree is only a lower bound (its incoming boundary is cut off)
and is flagged as such everywhere.

Every matrix this module keeps is a list of zero-free sparse columns
{row: coefficient}, and maps are composed a column at a time (`_compose`).
Dense rows exist only as the arguments and results of `linalg` calls:
`dense_rows` builds them for the call and `sparse_columns` reads a result
back.
"""

from __future__ import annotations

from itertools import count

from .config import MAX_MATRIX_DIM
from .errors import BudgetExceeded, InputError, NotChainMap, NotConnected
from .linalg import (
    invariant_factors,
    kernel_basis,
    smith_normal_form,
)


class ChainComplex:
    """Integer chain complex: ranks per degree and boundary maps.

    columns[n][j] is the boundary of the j-th degree-n generator as a
    zero-free sparse column {row: coefficient} over the degree n-1 basis;
    degree 0 has the zero map.  This is the only form the complex keeps:
    `dense_rows(columns[n], ranks[n - 1])` is the matrix `linalg` reads.
    """

    def __init__(self, ranks, columns):
        """`columns` yields, for n = 1..top, the list of degree-n boundary
        columns; it is read only after every rank is within the ceiling."""
        self.ranks = list(ranks)
        check_ranks(self.ranks)
        self.top = len(self.ranks) - 1
        self.columns = [[], *columns]
        assert list(map(len, self.columns[1:])) == self.ranks[1:]
        for n in range(2, self.top + 1):
            lower = self.columns[n - 1]
            if any(_compose(lower, column) for column in self.columns[n]):
                raise InputError(f"boundary squared is nonzero in degree {n}")


def check_ranks(ranks):
    """The generator ceiling: BudgetExceeded names the first degree, in
    degree order, whose rank is over `MAX_MATRIX_DIM`."""
    for n, rank in enumerate(ranks):
        if rank > MAX_MATRIX_DIM:
            raise BudgetExceeded(
                f"chain group {n} has {rank} generators, "
                f"over the {MAX_MATRIX_DIM} ceiling"
            )


def boundary_columns(cells, faces):
    """One sparse column per cell: the sum of the signed rows that
    `faces(cell)` yields as (row, sign), a None row (a degenerate face)
    skipped, with the entries that cancel dropped."""
    columns = []
    for cell in cells:
        column = {}
        for row, sign in faces(cell):
            if row is not None:
                column[row] = column.get(row, 0) + sign
        columns.append({row: c for row, c in column.items() if c})
    return columns


def _compose(columns, column):
    """The sparse column sum of c * columns[k] over the entries k: c of
    `column`: a product of sparse maps, one column at a time."""
    out = {}
    for k, c in column.items():
        for row, entry in columns[k].items():
            out[row] = out.get(row, 0) + c * entry
    return {row: c for row, c in out.items() if c}


def dense_rows(columns, height):
    """The `height` x len(columns) matrix of sparse columns as dense rows,
    the form `linalg` reads."""
    rows = [[0] * len(columns) for _ in range(height)]
    for j, column in enumerate(columns):
        for i, c in column.items():
            rows[i][j] = c
    return rows


def sparse_columns(rows, width):
    """The zero-free sparse columns of a matrix of dense rows with `width`
    columns, such as a `linalg` result."""
    dense = zip(*rows) if rows else [()] * width
    return [{i: c for i, c in enumerate(column) if c} for column in dense]


def normalized_chain_complex(x):
    """Chain complex on nondegenerate cubes; also returns the per-degree
    basis (cube indices) used to express induced maps."""
    x.validate_identities()
    bases = [x.nondegenerate_cubes(n) for n in range(x.top_dim + 1)]
    basis_pos = [dict(zip(level, count())) for level in bases]

    def faces(n):
        """The signed face tables of level n, read against the degree n-1 basis."""
        pos = basis_pos[n - 1]
        signed = [
            (x.faces[n][(i, eps)], s)
            for i in range(1, n + 1)
            for eps, s in ((1, (-1) ** i), (0, -((-1) ** i)))
        ]
        return lambda cube: ((pos.get(table[cube]), s) for table, s in signed)

    columns = (boundary_columns(bases[n], faces(n)) for n in range(1, x.top_dim + 1))
    return ChainComplex([len(level) for level in bases], columns), bases


class HomologyGroup:
    """betti, torsion tuple, plus coordinates data for induced maps."""

    def __init__(self, betti, torsion):
        self.betti = betti
        self.torsion = tuple(torsion)

    def as_dict(self):
        return {"rank": self.betti, "torsion": list(self.torsion)}

    def __eq__(self, other):
        return (
            isinstance(other, HomologyGroup)
            and self.betti == other.betti
            and self.torsion == other.torsion
        )

    def __repr__(self):
        parts = ["Z"] * self.betti + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def homology(complex_, reduced=False):
    """Homology groups per degree 0..top; the top degree is truncated
    (its value is only a lower bound) and callers should read `truncated_top`.
    """
    # one factorization per boundary; degree 0 has no outgoing map and the
    # top degree no incoming one
    factors = [[]] + [
        invariant_factors(dense_rows(complex_.columns[n], complex_.ranks[n - 1]))
        for n in range(1, complex_.top + 1)
    ] + [[]]
    groups = []
    for n in range(complex_.top + 1):
        incoming = factors[n + 1]
        betti = complex_.ranks[n] - len(factors[n]) - len(incoming)
        torsion = [d for d in incoming if d > 1]
        if reduced and n == 0:
            betti -= 1
        groups.append(HomologyGroup(betti, torsion))
    return {"groups": groups, "truncated_top": True, "top": complex_.top}


def homology_summary(x, reduced=False):
    complex_, _ = normalized_chain_complex(x)
    return homology(complex_, reduced=reduced)


class HomologyCoordinates:
    """A coordinate system on H_n = ker/im for one chain complex degree.

    Exposes the presentation H = Z^z / rel, where the z kernel coordinates
    of the degree n+1 boundaries are the relation columns, together with
    maps cycle -> coordinates, for computing and comparing induced maps.
    `kernel` (a basis of the cycles) and `left_inverse` (a left inverse of
    it) are zero-free sparse columns, both read off the one Smith form of
    the degree n boundary.  Of the relation matrix's Smith form only the
    rows of U and the columns of its inverse at the free and torsion rows
    are kept, dicts {row: dense vector}, each replayed from that Smith
    loop's operation log.
    """

    def __init__(self, complex_, n):
        self.n = n
        self.rank = rank_n = complex_.ranks[n]
        if n == 0:
            # every 0-chain is a cycle: the kernel and its left inverse are
            # the identity
            self.kernel = self.left_inverse = [{i: 1} for i in range(rank_n)]
        else:
            # a boundary into an empty degree is read as one zero row
            lower = complex_.ranks[n - 1] or 1
            kernel, left_inverse = kernel_basis(dense_rows(complex_.columns[n], lower))
            self.kernel = sparse_columns(kernel, len(left_inverse))
            self.left_inverse = sparse_columns(left_inverse, rank_n)
        self.z = z = len(self.kernel)
        rel = []
        for column in complex_.columns[n + 1] if n < complex_.top else ():
            alpha = self._kernel_coords(column)
            if alpha is None:
                raise NotChainMap("image does not lie in the kernel")
            rel.append(alpha)
        self.u, diagonal, self.u_inv = (
            smith_normal_form(dense_rows(rel, z), _build_v=False) if z else ({}, [], {})
        )
        diag = [x for x in diagonal if x]
        self.factors = diag  # invariant factors of the relation matrix
        self.free_rows = list(range(len(diag), self.z))
        self.torsion_rows = [i for i, f in enumerate(diag) if f > 1]

    def _kernel_coords(self, cycle):
        """The kernel coordinates of `cycle`, a zero-free sparse column
        {row: coefficient}, as a sparse column, or None if it is not in the
        kernel lattice (the multiply-back check)."""
        alpha = _compose(self.left_inverse, cycle)
        return alpha if _compose(self.kernel, alpha) == cycle else None

    def coordinates(self, cycle):
        """(free coordinates, torsion residues) of an n-cycle, a zero-free
        sparse column {row: coefficient}, or None."""
        alpha = self._kernel_coords(cycle)
        if alpha is None:
            return None
        beta = [
            sum(self.u[i][k] * c for k, c in alpha.items())
            for i in self.free_rows + self.torsion_rows
        ]
        n_free = len(self.free_rows)
        tor = [b % self.factors[i] for b, i in zip(beta[n_free:], self.torsion_rows)]
        return beta[:n_free], tor

    def generator_cycles(self):
        """Cycle representatives for free then torsion generators, as
        sparse columns {row: coefficient}."""
        return [
            _compose(self.kernel, {k: c for k, c in enumerate(self.u_inv[i]) if c})
            for i in self.free_rows + self.torsion_rows
        ]

    def group(self):
        return HomologyGroup(len(self.free_rows), [self.factors[i] for i in self.torsion_rows])


def chain_map_matrices(cmap):
    """Per-degree sparse columns of a cubical map on the nondegenerate
    bases: a generator's column is its image, or empty for a degenerate
    image.  Raises NotChainMap when d(f(x)) and f(d(x)) differ for a
    source generator x.  The result is kept on `cmap`, so the complexes
    are built and checked once per map."""
    if cmap.chain_maps is not None:
        return cmap.chain_maps
    src_complex, src_bases = normalized_chain_complex(cmap.source)
    dst_complex, dst_bases = normalized_chain_complex(cmap.target)
    maps = []
    for level, src_basis, dst_basis in zip(cmap.levels, src_bases, dst_bases):
        pos = dict(zip(dst_basis, count()))
        images = (pos.get(level[cube]) for cube in src_basis)
        maps.append(boundary_columns(images, lambda row: ((row, 1),)))
    for n in range(1, cmap.source.top_dim + 1):
        d_dst, d_src = dst_complex.columns[n], src_complex.columns[n]
        for image, boundary in zip(maps[n], d_src):
            if _compose(d_dst, image) != _compose(maps[n - 1], boundary):
                raise NotChainMap(f"level map does not commute with boundary {n}")
    cmap.chain_maps = src_complex, dst_complex, maps
    return cmap.chain_maps


def induced_homology_map(cmap, degree):
    """The induced matrix on homology coordinates (free rows first, then
    torsion rows) plus an isomorphism verdict.

    Isomorphism test: source and target groups agree abstractly and the
    induced map is surjective (then a surjection between isomorphic
    finitely generated abelian groups is an isomorphism).
    """
    src_complex, dst_complex, maps = chain_map_matrices(cmap)
    src = HomologyCoordinates(src_complex, degree)
    dst = HomologyCoordinates(dst_complex, degree)
    columns = []
    for cycle in src.generator_cycles():
        coords = dst.coordinates(_compose(maps[degree], cycle))
        if coords is None:
            raise NotChainMap("image of a cycle is not a cycle")
        free, tor = coords
        columns.append({i: c for i, c in enumerate(free + tor) if c})
    same_shape = src.group() == dst.group()
    surjective = _covers_target(columns, dst)
    return {
        "matrix": dense_rows(columns, len(dst.free_rows) + len(dst.torsion_rows)),
        "source_group": src.group(),
        "target_group": dst.group(),
        "iso": bool(same_shape and surjective),
    }


def _covers_target(columns, dst):
    """Does the image of the induced map, given by its sparse columns on
    the target's coordinates, generate the target group?"""
    n_free = len(dst.free_rows)
    n_rows = n_free + len(dst.torsion_rows)
    if n_rows == 0:
        return True
    # the image plus one relation column f * e_row per torsion row
    stacked = columns + [
        {n_free + k: dst.factors[i]} for k, i in enumerate(dst.torsion_rows)
    ]
    if not stacked:
        return False
    facs = invariant_factors(dense_rows(stacked, n_rows))
    return len(facs) == n_rows and all(abs(f) == 1 for f in facs)


# -- fundamental group ---------------------------------------------------------


class GroupPresentation:
    """Generators (names) and relators (words: tuples of signed indices).

    A letter (k, +1) is the k-th generator, (k, -1) its inverse.
    """

    def __init__(self, generators, relators):
        self.generators = list(generators)
        for word in relators:
            for k, _s in word:
                if not 0 <= k < len(self.generators):
                    raise InputError("relator letter outside the generators")
        self.relators = [tuple(word) for word in relators]

    def abelianization(self):
        """(betti, invariant factors) of the abelianized presentation."""
        columns = boundary_columns(self.relators, lambda word: word)
        facs = invariant_factors(dense_rows(columns, len(self.generators)))
        betti = len(self.generators) - len(facs)
        return HomologyGroup(betti, [d for d in facs if d > 1])

    def tietze_reduced(self):
        """Free reduction plus elimination of length-one relators; a bounded
        cleanup, not a decision procedure."""
        gens = list(self.generators)
        relators = [_free_reduce(w) for w in self.relators]
        changed = True
        while changed:
            changed = False
            unit = next((w for w in relators if len(w) == 1), None)
            if unit is None:
                break
            k = unit[0][0]
            relators = [
                _free_reduce(tuple(l for l in w if l[0] != k)) for w in relators
            ]
            relators = [w for w in relators if w]
            remap = {}
            for idx in range(len(gens)):
                if idx != k:
                    remap[idx] = len(remap)
            gens = [g for idx, g in enumerate(gens) if idx != k]
            relators = [
                tuple((remap[i], s) for i, s in w) for w in relators
            ]
            changed = True
        return GroupPresentation(gens, relators)


def _free_reduce(word):
    out = []
    for letter in word:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def pi1_presentation(x, base):
    """Edge-path presentation from the 2-skeleton of a truncated nerve.

    Generators: nondegenerate 1-cubes outside a breadth-first spanning tree
    of the symmetrized 1-skeleton.  Each nondegenerate 2-cube contributes
    the relator of its boundary loop (tree edges and degenerate edges drop
    out).  Requires a connected 0-skeleton and top dimension >= 2.
    """
    if x.top_dim < 2:
        raise InputError("need the 2-skeleton to present the fundamental group")
    zeros_level = x.cubes[0]
    if base not in x.index[0]:
        base = (base,)  # 0-cubes are singleton image tuples
    if base not in x.index[0]:
        raise InputError(f"basepoint {base!r} is not a 0-cube")
    edges = []  # (tail 0-cube index, head 0-cube index) per nondegenerate 1-cube
    edge_ids = {}
    for k in x.nondegenerate_cubes(1):
        tail = x.faces[1][(1, 0)][k]
        head = x.faces[1][(1, 1)][k]
        edge_ids[k] = len(edges)
        edges.append((tail, head))
    adjacency = {v: [] for v in range(len(zeros_level))}
    for eid, (tail, head) in enumerate(edges):
        adjacency[tail].append((head, eid, 1))
        adjacency[head].append((tail, eid, -1))
    start = x.index[0][base]
    tree_edges = set()
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for w, eid, _ in adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    tree_edges.add(eid)
                    nxt.append(w)
        frontier = nxt
    if len(seen) != len(zeros_level):
        raise NotConnected("the 1-skeleton is not connected")
    gen_of_edge = {}
    generators = []
    for k in x.nondegenerate_cubes(1):
        eid = edge_ids[k]
        if eid not in tree_edges:
            gen_of_edge[eid] = len(generators)
            generators.append(f"e{len(generators)}")
    relators = []
    nondeg1 = set(x.nondegenerate_cubes(1))

    def letters(cube1, sign):
        if cube1 not in nondeg1:
            return ()
        eid = edge_ids[cube1]
        if eid in tree_edges:
            return ()
        return ((gen_of_edge[eid], sign),)

    for k in x.nondegenerate_cubes(2):
        loop = (
            letters(x.faces[2][(1, 0)][k], 1)
            + letters(x.faces[2][(2, 1)][k], 1)
            + letters(x.faces[2][(1, 1)][k], -1)
            + letters(x.faces[2][(2, 0)][k], -1)
        )
        word = _free_reduce(loop)
        if word:
            relators.append(word)
    return GroupPresentation(generators, relators)
