"""Exact integer linear algebra: Smith normal form, kernels, solvers.

Matrices come in and go out as lists of lists of Python ints (rows).
Everything is exact: entries can grow, which is why this is integer
arithmetic and not floating point.  Inside, `_lines` holds a matrix once,
as zero-free sparse rows plus zero-free sparse columns that mirror each
other; `_add` and `_swap` act on a line (a row or a column) of either side
and mirror it in the other, and are the only line operations here.

Invariant factors and ranks never build a unimodular transform.
`invariant_factors` first eliminates unit (+-1) pivots: it takes the unit
of the sparsest row that has one and clears that row with column
operations, which splits off a 1 x 1 block.  Only the residual block,
which has no unit entry left, goes to the Smith loop, and that runs
modulo a nonzero minor of full rank, so its entries stay bounded.  The
boundary matrices of nerves are sparse and nearly all of their pivots are
units, so the residual is small or empty.

The Smith loop only eliminates: it logs its row and its column
operations and returns the diagonal.  `_replay` walks a log once for each
vector a caller reads: `kernel_basis` replays V and V's inverse past the
rank, homology coordinates U and U's inverse where the diagonal is not 1.

The Smith loop takes as pivot the first entry of least absolute value in
row-major order from (t, t).  Its search goes row by row and stops at the
first entry of absolute value 1, since nothing is smaller, and a unit
pivot skips the sweep that checks it divides the rest of the block.
`dgh compare` prints matrices read off U, so this rule is part of its
output and must not change.

Callers factor each matrix once and read everything they need from that
one result: homology takes ranks and torsion from one factor list per
boundary, and homology coordinates read the kernel and its left inverse
off one factorization of the boundary.
"""

from __future__ import annotations

import heapq
from itertools import compress
from math import gcd


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


def _lines(a, modulus=None):
    """The dense rows `a` as zero-free sparse rows and zero-free sparse
    columns, two lists of dicts {index: entry} that mirror each other;
    with a `modulus` every entry is reduced modulo it."""
    cols = [{} for _ in range(len(a[0]) if a else 0)]
    rows = []
    for i, row in enumerate(a):
        if modulus is not None:
            row = [x % modulus for x in row]
        nonzero = list(compress(range(len(row)), row))
        line = dict(zip(nonzero, map(row.__getitem__, nonzero)))
        rows.append(line)
        for j, x in line.items():
            cols[j][i] = x
    return rows, cols


def _add(lines, cross, src, dst, f, modulus=None):
    """Add f times line src of `lines` to line dst, modulo `modulus` if
    one is given, and mirror the change in `cross`, the other side.  A
    line added -2 times to itself is negated."""
    line = lines[dst]
    for k, x in lines[src].items():
        value = line.get(k, 0) + f * x
        if modulus is not None:
            value %= modulus
        if value:
            line[k] = cross[k][dst] = value
        elif k in line:
            del line[k], cross[k][dst]


def _swap(lines, cross, i, j):
    """Swap lines i and j of `lines` and mirror the swap in `cross`."""
    a, b = lines[i], lines[j]
    lines[i], lines[j] = b, a
    for k in a.keys() | b.keys():
        other = cross[k]
        x, y = other.pop(i, 0), other.pop(j, 0)
        if x:
            other[j] = x
        if y:
            other[i] = y


def _smith(a, modulus=None):
    """The one Smith loop: the log of the row operations (which make U),
    the diagonal of D = U*a*V (nonnegative, a divisibility chain, zeros
    last) and the log of the column operations (which make V).  An
    operation (src, dst, f) adds f times line src to line dst,
    (i, j, None) swaps lines i and j and (t, t, -1) negates line t.

    With a `modulus` every entry is kept reduced modulo it, so D is
    diagonal over the integers modulo `modulus` but need not be a
    divisibility chain.  Without one, entries can grow doubly
    exponentially in the number of pivots on dense matrices with no unit.

    The pivot of step t is the first entry of least absolute value in
    row-major order from (t, t).  The search reads one row at a time and
    stops at the first unit; entries modulo `modulus` are nonnegative, so
    there too nothing is smaller than 1.  The rows, then the columns, past
    t with an entry at t take in index order the quotient's multiple of
    line t, and swap with it if a remainder is left.  A unit pivot divides
    everything and skips the divisibility sweep; any other pivot is swept
    row by row and the first row it does not divide is added to row t.
    U is printed by `dgh compare`, so the pivot rule must not change.
    """
    rows, cols = _lines(a, modulus)
    row_ops, col_ops = [], []
    sides = ((rows, cols, row_ops), (cols, rows, col_ops))
    size = min(len(rows), len(cols))
    t = 0
    while t < size:
        pivot = best = None
        for i in range(t, len(rows)):
            if rows[i]:
                x, j = min((abs(x), j) for j, x in rows[i].items())
                if best is None or x < best:
                    best, pivot = x, (i, j)
                    if x == 1:
                        break
        if pivot is None:
            break
        for (lines, cross, log), k in zip(sides, pivot):
            _swap(lines, cross, t, k)
            log.append((t, k, None))
        reduced = False
        while not reduced:
            reduced = True
            for lines, cross, log in sides:
                for i in sorted(k for k in cross[t] if k > t):
                    q = lines[i][t] // lines[t][t]
                    _add(lines, cross, t, i, -q, modulus)
                    log.append((t, i, -q))
                    if t in lines[i]:
                        _swap(lines, cross, t, i)
                        log.append((t, i, None))
                        reduced = False
        # enforce that the pivot divides the remaining block; a unit does
        p = rows[t][t]
        if abs(p) != 1:
            stray = next(
                (i for i in range(t + 1, len(rows)) if any(x % p for x in rows[i].values())),
                None,
            )
            if stray is not None:
                _add(rows, cols, stray, t, 1, modulus)
                row_ops.append((stray, t, 1))
                continue
        if p < 0:
            _add(rows, cols, t, t, -2)
            row_ops.append((t, t, -1))
        t += 1
    return row_ops, [rows[i].get(i, 0) for i in range(size)], col_ops


def _replay(ops, n, which, inverse=False):
    """The vectors at the indices `which` of the n x n transform of a
    `_smith` log, each by one walk of the log from its end: rows of U or
    columns of V, or with `inverse` columns of U's inverse or rows of V's
    inverse.  Walked back, adding f times line src to line dst adds f
    times entry dst to entry src; inverted, it subtracts f times entry
    src from entry dst.  A swap or a sign flip undoes itself."""
    vectors = []
    for i in which:
        v = [0] * n
        v[i] = 1
        for src, dst, f in reversed(ops):
            if f is None:
                v[src], v[dst] = v[dst], v[src]
            elif src == dst:
                v[src] = -v[src]
            elif inverse:
                v[dst] -= f * v[src]
            else:
                v[src] += f * v[dst]
        vectors.append(v)
    return vectors


def smith_normal_form(a, *, _build_v=True):
    """U, D, V with U*a*V = D diagonal, nonnegative, divisibility chain,
    and U, V unimodular, replayed from the Smith loop's logs.

    `_build_v=False` is for `HomologyCoordinates`, which reads U and its
    inverse only at the rows i whose diagonal entry is not 1 (its free
    and torsion rows; an i past the diagonal counts as 0), and D only on
    its diagonal.  It returns U's rows and the columns of U's inverse at
    those i, each a dict {i: dense vector}, with the diagonal between
    them; nothing else is replayed.
    """
    row_ops, diagonal, col_ops = _smith(a)
    rows, cols = len(a), len(a[0]) if a else 0
    if not _build_v:
        which = [i for i in range(rows) if i >= len(diagonal) or diagonal[i] != 1]
        return (
            dict(zip(which, _replay(row_ops, rows, which))),
            diagonal,
            dict(zip(which, _replay(row_ops, rows, which, inverse=True))),
        )
    d = [[0] * cols for _ in range(rows)]
    for i, x in enumerate(diagonal):
        d[i][i] = x
    v = _replay(col_ops, cols, range(cols))
    return _replay(row_ops, rows, range(rows)), d, [list(row) for row in zip(*v)]


def _eliminate_units(rows, cols):
    """Eliminate unit pivots from the sparse rows and columns of `_lines`
    in place and return how many were eliminated.

    A unit a[p][c] = +-1 clears the rest of row p by column operations;
    row operations with row p then clear column c without touching any
    other column, so the matrix is equivalent to [1] (+) (the matrix
    without row p and column c), and row p and column c are left empty.
    The pivot is a unit of the sparsest row that has one, in its sparsest
    column, to keep fill-in low.
    """
    # a row is re-queued whenever its length changes, so a popped entry
    # whose length is out of date has a fresh copy further on
    queue = [(len(row), i) for i, row in enumerate(rows) if row]
    heapq.heapify(queue)
    units = 0
    while queue:
        length, p = heapq.heappop(queue)
        row = rows[p]
        if len(row) != length:
            continue
        candidates = [j for j, x in row.items() if x == 1 or x == -1]
        if not candidates:
            continue
        c = min(candidates, key=lambda j: len(cols[j]))
        unit = row[c]
        for k, x in list(row.items()):
            if k != c:
                _add(cols, rows, c, k, -x * unit)
        below, cols[c] = cols[c], {}
        for i in below:
            del rows[i][c]
            if i != p:
                heapq.heappush(queue, (len(rows[i]), i))
        units += 1
    return units


def _rank_and_minor(a):
    """The rank r of `a` and the absolute value of a nonzero r x r minor,
    by fraction-free (Bareiss) elimination: every intermediate entry is a
    minor of `a`, so entries stay within the Hadamard bound."""
    m = [list(row) for row in a]
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
    _, diagonal, _ = _smith(a, modulus=modulus)
    return _chain([gcd(x, modulus) for x in diagonal])[:rank]


def invariant_factors(a):
    """Nonzero invariant factors of `a`, in divisibility order: a 1 for
    every unit pivot, then the factors of the residual block."""
    rows, cols = _lines(a)
    units = _eliminate_units(rows, cols)
    residual = [row for row in rows if row]
    if not residual:
        return [1] * units
    used = [j for j, column in enumerate(cols) if column]
    dense = [[row.get(j, 0) for j in used] for row in residual]
    return [1] * units + _residual_factors(dense)


def matrix_rank(a):
    return len(invariant_factors(a))


def kernel_basis(a):
    """K, whose columns span the integer kernel lattice of `a` (saturated),
    and a left inverse L of K, both as rows: for one Smith form of rank r,
    V's last n - r columns and the last n - r rows of V's inverse."""
    cols = len(a[0]) if a else 0
    _, diagonal, col_ops = _smith(a)
    which = range(sum(map(bool, diagonal)), cols)
    kernel = _replay(col_ops, cols, which)
    left_inverse = _replay(col_ops, cols, which, inverse=True)
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
