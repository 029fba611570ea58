"""Exact integer matrix kernel: Hermite and Smith normal forms, determinants,
and integer linear solving.

Everything here works on rectangular sequences of Python ints, so all results
are exact at arbitrary size. No floating point is used anywhere in this module;
index products like p1^m1 * ... * pn^mn overflow machine words quickly, which
is why arbitrary precision is mandatory.
"""

from __future__ import annotations

from itertools import chain
from typing import Optional, Sequence

Matrix = Sequence[Sequence[int]]


def _as_rows(m: Matrix) -> list[list[int]]:
    """Copy into a list of lists, rejecting ragged or non-integer input."""
    rows = [list(r) for r in m]
    if rows:
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged matrix")
        # the exact-type test is the fast path; int subclasses but bool pass too
        if not set(map(type, chain.from_iterable(rows))) <= {int} and any(
                not isinstance(x, int) or isinstance(x, bool)
                for x in chain.from_iterable(rows)):
            raise ValueError("matrix entries must be integers")
    return rows


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _echelon(h: list[list[int]], ncols: int) -> list[tuple[int, int]]:
    """Row-echelon form of h in place, by unimodular row operations.

    Pivots, made positive, are sought in the first ncols columns only, but
    whole rows are combined, so echelonizing [m | I] leaves the transform in
    the right-hand block. Returns the pivot positions (row, col).
    """
    n = len(h)
    pivots: list[tuple[int, int]] = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((i for i in range(rank, n) if h[i][col]), None)
        if piv is None:
            continue
        rp = h[piv]
        h[piv] = h[rank]
        for i in range(rank + 1, n):
            ri = h[i]
            b = ri[col]
            if not b:
                continue
            a = rp[col]
            if b % a == 0:
                q = b // a
                h[i] = [v - q * u for u, v in zip(rp, ri)]
                continue
            g, x, y = _xgcd(a, b)
            ag, bg = a // g, b // g
            rp, h[i] = ([x * u + y * v for u, v in zip(rp, ri)],
                        [ag * v - bg * u for u, v in zip(rp, ri)])
        h[rank] = rp if rp[col] > 0 else [-u for u in rp]
        pivots.append((rank, col))
    return pivots


def _augment(rows: list[list[int]]) -> list[list[int]]:
    """[m | I]: each row followed by its unit vector."""
    n = len(rows)
    return [r + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]


def row_hnf(m: Matrix) -> list[list[int]]:
    """Canonical row-style Hermite Normal Form of the row span of m.

    Zero rows removed, row echelon, pivots positive, entries above each pivot
    reduced into [0, pivot). Two matrices have the same row span over the
    integers iff their HNFs are identical, so lattice equality becomes
    bit-equality on the output.
    """
    h = _as_rows(m)
    pivots = _echelon(h, len(h[0]) if h else 0)
    for r, c in pivots:  # reduce the entries above each pivot
        row = h[r]
        for i in range(r):
            q = h[i][c] // row[c]
            if q:
                h[i] = [t - q * u for t, u in zip(h[i], row)]
    return h[: len(pivots)]


def left_kernel(m: Matrix) -> list[list[int]]:
    """Canonical basis of the integer left kernel {u : u * m = 0}.

    Echelonizing [m | I] leaves a unimodular transform on the right; its rows
    paired with zero echelon rows span the full integer kernel.
    """
    rows = _as_rows(m)
    ncols = len(rows[0]) if rows else 0
    aug = _augment(rows)
    rank = len(_echelon(aug, ncols))
    return row_hnf([r[ncols:] for r in aug[rank:]])


def snf(m: Matrix) -> list[int]:
    """Smith Normal Form diagonal d1 | d2 | ... with trailing zeros.

    The returned list has length min(rows, cols); nonzero entries are positive
    and each divides the next.
    """
    a = _as_rows(m)
    nr = len(a)
    nc = len(a[0]) if a else 0
    size = min(nr, nc)
    diag: list[int] = []
    t = 0
    while t < size:
        piv = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j]:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        i0, j0 = piv
        a[t], a[i0] = a[i0], a[t]
        if j0 != t:
            for row in a:
                row[t], row[j0] = row[j0], row[t]
        while True:
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        for j in range(t, nc):
                            a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            for j in range(t + 1, nc):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        for i in range(t, nr):
                            a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for i in range(t, nr):
                            a[i][t], a[i][j] = a[i][j], a[i][t]
                        dirty = True
            if dirty:
                continue
            # pivot now alone in its row and column; enforce divisibility
            fix = None
            d = a[t][t]
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % d:
                        fix = i
                        break
                if fix is not None:
                    break
            if fix is None:
                break
            for j in range(t, nc):
                a[t][j] += a[fix][j]
        diag.append(abs(a[t][t]))
        t += 1
    diag.extend([0] * (size - len(diag)))
    return diag


def abs_det(m: Matrix) -> int:
    """|det(m)| by fraction-free (Bareiss) elimination; exact for any size."""
    a = _as_rows(m)
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("not square")
    if n == 0:
        return 1
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return abs(a[n - 1][n - 1])


def solve_integer(m: Matrix, target: Sequence[int]) -> Optional[list[int]]:
    """Integer coefficients c with c * m == target, or None if there are none.

    Any valid witness is acceptable; the one returned comes from forward
    substitution against the echelon form, mapped back through the unimodular
    transform.
    """
    rows = _as_rows(m)
    t = list(target)
    if rows and len(t) != len(rows[0]):
        raise ValueError("dimension mismatch")
    if not rows:
        return None if any(t) else []
    ncols = len(t)
    aug = _augment(rows)
    coeffs = [0] * len(rows)
    for r, c in _echelon(aug, ncols):
        row = aug[r]
        q, rem = divmod(t[c], row[c])
        if rem:
            return None
        if q:
            for j in range(c, ncols):
                t[j] -= q * row[j]
            coeffs = [x + q * u for x, u in zip(coeffs, row[ncols:])]
    if any(t):
        return None
    return coeffs
