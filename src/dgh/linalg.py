"""Exact integer linear algebra: Smith normal form, kernels, solvers.

Matrices are lists of lists of Python ints (rows).  Everything is exact:
entries can grow, which is why this is integer arithmetic and not floating
point.

Invariant factors and ranks never build a unimodular transform.
`invariant_factors` reads its matrix into sparse rows and first eliminates
unit (+-1) pivots: it takes the unit of the sparsest row that has one and
clears that row with column operations, which splits off a 1 x 1 block.
Only the residual block, which has no unit entry left, goes to the dense
Smith form, and that runs without U or V and modulo a nonzero minor of
full rank, so its entries stay bounded.  The boundary matrices of nerves
are sparse and nearly all of their pivots are units, so the residual is
small or empty.

The dense Smith loop only eliminates: it logs its row and its column
operations, and `_replay` builds U, V or their inverses from a log, each
only for a caller that reads it.  `kernel_basis` reads the kernel and a
left inverse of it off V and V's inverse from one Smith form.

The dense Smith loop takes as pivot the first entry of least absolute
value in row-major order from (t, t).  Its search goes row by row and
stops at the first entry of absolute value 1, since nothing is smaller,
and a unit pivot skips the sweep that checks it divides the rest of the
block.  `dgh compare` prints matrices read off U, so this rule is part of
its output and must not change.

Callers factor each matrix once and read everything they need from that
one result: homology takes ranks and torsion from one factor list per
boundary, and homology coordinates read the kernel and its left inverse
off one factorization of the boundary.
"""

from __future__ import annotations

import heapq
from itertools import compress
from math import gcd


def zeros(r, c):
    return [[0] * c for _ in range(r)]


def identity(n):
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = 1
    return out


def matmul(a, b):
    """Product of row-list matrices."""
    cb = len(b[0]) if b else 0
    out = []
    for row in a:
        new = [0] * cb
        for k, x in enumerate(row):
            if x:
                brow = b[k]
                for j in range(cb):
                    if brow[j]:
                        new[j] += x * brow[j]
        out.append(new)
    return out


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def copy_matrix(a):
    return [list(row) for row in a]


def _smith(a, modulus=None):
    """The one Smith loop: D = U*a*V diagonal, nonnegative, divisibility
    chain, and the logs of the row operations (which make U) and of the
    column operations (which make V), in order.  An operation (src, dst, f)
    adds f times line src to line dst, (i, j, None) swaps lines i and j and
    (t, t, -1) negates line t; the loop builds no transform.

    With a `modulus` every entry is kept reduced modulo it, so D is diagonal
    over the integers modulo `modulus` but need not be a divisibility chain.
    Without one, entries can grow doubly exponentially in the number of
    pivots on dense matrices with no unit.

    The pivot of step t is the first entry of least absolute value in
    row-major order from (t, t).  The search reads one row at a time and
    stops at the first unit; entries modulo `modulus` are nonnegative, so
    there too nothing is smaller than 1.  A unit pivot divides everything
    and skips the divisibility sweep; any other pivot is swept row by row
    and the first row it does not divide is added to row t.  U is printed
    by `dgh compare`, so the pivot rule must not change.
    """
    rows = len(a)
    cols = len(a[0]) if a else 0
    d = copy_matrix(a) if modulus is None else [[x % modulus for x in row] for row in a]
    row_ops, col_ops = [], []

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        row_ops.append((i, j, None))

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        col_ops.append((i, j, None))

    def add_row(src, dst, factor):
        d[dst] = [x + factor * y for x, y in zip(d[dst], d[src])]
        if modulus is not None:
            d[dst] = [x % modulus for x in d[dst]]
        row_ops.append((src, dst, factor))

    def add_col(src, dst, factor):
        for row in d:
            row[dst] += factor * row[src]
            if modulus is not None:
                row[dst] %= modulus
        col_ops.append((src, dst, factor))

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        row_ops.append((i, i, -1))

    t = 0
    while True:
        pivot = best = None
        for i in range(t, rows):
            sizes = list(map(abs, d[i][t:]))
            x = min(filter(None, sizes), default=0)
            if x and (best is None or x < best):
                best, pivot = x, (i, t + sizes.index(x))
                if x == 1:
                    break
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
        # enforce that the pivot divides the remaining block; a unit does
        p = d[t][t]
        if abs(p) != 1:
            stray = next(
                (i for i in range(t + 1, rows) if any(x % p for x in d[i][t + 1 :])), None
            )
            if stray is not None:
                add_row(stray, t, 1)
                continue
        if p < 0:
            negate_row(t)
        t += 1
        if t >= min(rows, cols):
            break
    return row_ops, d, col_ops


def _replay(ops, n, inverse=False):
    """The n x n transform of a `_smith` log: the identity's n vectors with
    the log applied, so row operations give U by rows and column operations
    V by columns.  With `inverse` the same log, in the same order, gives
    U's inverse by columns and V's inverse by rows: adding f times line src
    to line dst is undone by subtracting f times vector dst from vector
    src, and a swap or a sign flip undoes itself."""
    vectors = identity(n)
    for src, dst, f in ops:
        if f is None:
            vectors[src], vectors[dst] = vectors[dst], vectors[src]
        elif src == dst:
            vectors[src] = [-x for x in vectors[src]]
        elif inverse:
            vectors[src] = [x - f * y for x, y in zip(vectors[src], vectors[dst])]
        else:
            vectors[dst] = [x + f * y for x, y in zip(vectors[dst], vectors[src])]
    return vectors


def smith_normal_form(a, *, _build_v=True):
    """U, D, V with U*a*V = D diagonal, nonnegative, divisibility chain,
    and U, V unimodular, replayed from the Smith loop's logs.

    `_build_v=False` is for callers inside the package that read U, its
    inverse and D, but not V: V, by far the largest part for a wide
    matrix, is not built, and the third value is the columns of U's
    inverse (U and D are the same).
    """
    row_ops, d, col_ops = _smith(a)
    u = _replay(row_ops, len(a))
    if not _build_v:
        return u, d, _replay(row_ops, len(a), inverse=True)
    v = _replay(col_ops, len(d[0]) if d else 0)
    return u, d, [list(row) for row in zip(*v)]


def _eliminate_units(rows):
    """Eliminate unit pivots from sparse rows ({row: {col: entry}}) in
    place and return how many were eliminated.

    A unit a[p][c] = +-1 clears the rest of row p by column operations;
    row operations with row p then clear column c without touching any
    other column, so the matrix is equivalent to [1] (+) (the matrix
    without row p and column c).  The pivot is a unit of the sparsest row
    that has one, in its sparsest column, to keep fill-in low.
    """
    cols = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    # a row is re-queued whenever its length changes, so a popped entry
    # whose length is out of date has a fresh copy further on
    queue = [(len(row), i) for i, row in rows.items()]
    heapq.heapify(queue)
    units = 0
    while queue:
        length, p = heapq.heappop(queue)
        row = rows.get(p)
        if row is None or len(row) != length:
            continue
        candidates = [j for j, x in row.items() if x == 1 or x == -1]
        if not candidates:
            continue
        c = min(candidates, key=lambda j: len(cols[j]))
        unit = row[c]
        below = [(i, rows[i][c]) for i in cols.pop(c) if i != p]
        for k, x in row.items():
            if k == c:
                continue
            factor = x * unit  # column k -= factor * column c
            col_k = cols[k]
            col_k.discard(p)
            for i, y in below:
                other = rows[i]
                value = other.get(k, 0) - factor * y
                if value:
                    other[k] = value
                    col_k.add(i)
                elif k in other:
                    del other[k]
                    col_k.discard(i)
            if not col_k:
                del cols[k]
        del rows[p]
        for i, _y in below:
            del rows[i][c]
            heapq.heappush(queue, (len(rows[i]), i))
        units += 1
    return units


def _rank_and_minor(a):
    """The rank r of `a` and the absolute value of a nonzero r x r minor,
    by fraction-free (Bareiss) elimination: every intermediate entry is a
    minor of `a`, so entries stay within the Hadamard bound."""
    m = copy_matrix(a)
    rows = len(m)
    cols = len(m[0]) if m else 0
    r, last = 0, 1
    for c in range(cols):
        p = next((i for i in range(r, rows) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        pivot = m[r][c]
        for i in range(r + 1, rows):
            m[i] = [(pivot * x - m[i][c] * y) // last for x, y in zip(m[i], m[r])]
        r, last = r + 1, pivot
        if r == rows:
            break
    return r, abs(last)


def _chain(values):
    """Invariant factors of diag(values) (all nonzero): replace each pair
    by its gcd and lcm until every value divides the next."""
    out = list(values)
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            g = gcd(out[i], out[j])
            out[i], out[j] = g, out[i] // g * out[j]
    return out


def _residual_factors(a):
    """Nonzero invariant factors of a dense matrix with no unit entry.

    Elimination runs modulo M, a nonzero r x r minor (r the rank), so no
    entry ever exceeds M.  The product d_1...d_r of the factors divides
    every r x r minor, hence M, so over the integers modulo M the Smith
    form is gcd(d_i, M) = d_i for i <= r and 0 beyond: the diagonal the
    loop leaves, taken up to units (gcd with M) and put in divisibility
    order, starts with d_1..d_r.
    """
    rank, modulus = _rank_and_minor(a)
    _, d, _ = _smith(a, modulus=modulus)
    diagonal = [gcd(d[i][i], modulus) for i in range(min(len(d), len(d[0])))]
    return _chain(diagonal)[:rank]


def invariant_factors(a):
    """Nonzero invariant factors of `a`, in divisibility order: a 1 for
    every unit pivot, then the factors of the residual block."""
    rows = {}
    for i, row in enumerate(a):
        nonzero = list(compress(range(len(row)), row))
        if nonzero:
            rows[i] = dict(zip(nonzero, compress(row, row)))
    units = _eliminate_units(rows)
    residual = [row for row in rows.values() if row]
    if not residual:
        return [1] * units
    used = sorted({j for row in residual for j in row})
    dense = [[row.get(j, 0) for j in used] for row in residual]
    return [1] * units + _residual_factors(dense)


def matrix_rank(a):
    return len(invariant_factors(a))


def kernel_basis(a):
    """K, whose columns span the integer kernel lattice of `a` (saturated),
    and a left inverse L of K, both as rows: for one Smith form of rank r,
    V's last n - r columns and the last n - r rows of V's inverse."""
    cols = len(a[0]) if a else 0
    _, d, col_ops = _smith(a)
    r = sum(1 for i in range(min(len(d), cols)) if d[i][i])
    kernel = _replay(col_ops, cols)[r:]
    left_inverse = _replay(col_ops, cols, inverse=True)[r:]
    return [[column[i] for column in kernel] for i in range(cols)], left_inverse


def unimodular_inverse(a):
    """Exact inverse of a unimodular integer matrix."""
    n = len(a)
    u, d, v = smith_normal_form(a)
    for i in range(n):
        assert d[i][i] == 1, "matrix is not unimodular"
    return matmul(v, u)


def solve_integer(a, b):
    """One integer solution x of a x = b, or None."""
    rows = len(a)
    cols = len(a[0]) if a else 0
    if rows == 0:
        return [0] * cols
    u, d, v = smith_normal_form(a)
    ub = mat_vec(u, b)
    y = [0] * cols
    for i in range(rows):
        di = d[i][i] if i < min(rows, cols) else 0
        if i < cols and di:
            if ub[i] % di:
                return None
            y[i] = ub[i] // di
        elif ub[i] != 0:
            return None
    return mat_vec(v, y)
