"""Exact integer linear algebra: Smith normal form, kernels, solvers.

Matrices are lists of lists of Python ints (rows).  Everything is exact;
sizes here are small enough that asymptotics do not matter, but entries
can grow, which is why this is integer arithmetic and not floating point.
"""

from __future__ import annotations


def zeros(r, c):
    return [[0] * c for _ in range(r)]


def identity(n):
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = 1
    return out


def matmul(a, b, cols=None):
    """Product of row-list matrices; `cols` pins the width when b has no
    rows (a 0 x c matrix is [] and forgets c)."""
    cb = len(b[0]) if b else (cols or 0)
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


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def copy_matrix(a):
    return [list(row) for row in a]


def smith_normal_form(a):
    """U, D, V with U*a*V = D diagonal, nonnegative, divisibility chain,
    and U, V unimodular."""
    d = copy_matrix(a)
    rows = len(d)
    cols = len(d[0]) if d else 0
    u = identity(rows)
    v = identity(cols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, factor):
        d[dst] = [x + factor * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + factor * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, factor):
        for row in d:
            row[dst] += factor * row[src]
        for row in v:
            row[dst] += factor * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while True:
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = abs(d[i][j])
                if x and (best is None or x < best):
                    best = x
                    pivot = (i, j)
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
        # enforce that the pivot divides the remaining block
        stray = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if d[i][j] % d[t][t]:
                    stray = i
                    break
            if stray is not None:
                break
        if stray is not None:
            add_row(stray, t, 1)
            continue
        if d[t][t] < 0:
            negate_row(t)
        t += 1
        if t >= min(rows, cols):
            break
    # one more divisibility sweep for entries beyond min(rows, cols) loop exit
    for i in range(min(rows, cols)):
        if d[i][i] < 0:
            negate_row(i)
    return u, d, v


def invariant_factors(a):
    _, d, _ = smith_normal_form(a)
    out = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    return [x for x in out if x != 0]


def matrix_rank(a):
    return len(invariant_factors(a))


def kernel_basis(a):
    """Columns spanning the integer kernel lattice (saturated)."""
    if not a or not a[0]:
        cols = len(a[0]) if a else 0
        return identity(cols)
    u, d, v = smith_normal_form(a)
    r = sum(1 for i in range(min(len(d), len(d[0]))) if d[i][i] != 0)
    cols = len(a[0])
    return [[v[row][j] for j in range(r, cols)] for row in range(cols)]


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
