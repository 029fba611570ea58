"""Exact integer matrix kernel: one row HNF and what follows from it.

Everything here works on rectangular sequences of Python ints, so all results
are exact at arbitrary size. No floating point is used anywhere in this module;
index products like p1^m1 * ... * pn^mn overflow machine words quickly, which
is why arbitrary precision is mandatory.

`_hnf` is the only elimination. The left kernel is read off the HNF of
[m | I] past m's columns (`skip`), as `lattices` reads off A ∩ B; integer
solving (one kernel of [target; m]) and the Smith form (the HNF of rows and
of columns in turn) follow. `abs_det` (Bareiss) is an independent route.
"""

from __future__ import annotations

import math
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


def _hnf(h: list[list[int]], skip: int = 0) -> list[list[int]]:
    """`row_hnf` of rows already checked by `_as_rows`; h is overwritten.

    Only the HNF rows zero on the first `skip` columns are reduced and
    returned: the HNF of the part of the row span that vanishes there.
    """
    n = len(h)
    cols: list[int] = []  # the pivot column of each echelon row
    split = n  # the first echelon row with its pivot at or past skip
    for col in range(len(h[0]) if h else 0):
        rank = len(cols)
        if col == skip:
            split = rank
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
        cols.append(col)
    for r in range(split, len(cols)):  # reduce the entries above each pivot
        row = h[r]
        c = cols[r]
        for i in range(split, r):
            q = h[i][c] // row[c]
            if q:
                h[i] = [t - q * u for t, u in zip(h[i], row)]
    return h[split:len(cols)]


def row_hnf(m: Matrix) -> list[list[int]]:
    """Canonical row-style Hermite Normal Form of the row span of m.

    Zero rows removed, row echelon, pivots positive, entries above each pivot
    reduced into [0, pivot). Two matrices have the same row span over the
    integers iff their HNFs are identical, so lattice equality becomes
    bit-equality on the output.
    """
    return _hnf(_as_rows(m))


def left_kernel(m: Matrix) -> list[list[int]]:
    """Canonical basis of the integer left kernel {u : u * m = 0}.

    [m | I] spans {(u * m, u)}, so its HNF rows past m's columns, cut there,
    are the canonical basis of {u : u * m = 0}.
    """
    rows = _as_rows(m)
    ncols = len(rows[0]) if rows else 0
    aug = [r + [int(i == j) for j in range(len(rows))] for i, r in enumerate(rows)]
    return [r[ncols:] for r in _hnf(aug, ncols)]


def divisibility_chain(ds: Sequence[int]) -> list[int]:
    """Merge pairs by (gcd, lcm) until each entry divides the next.

    diag(a, b) has Smith form diag(gcd, lcm), and Z(a) ⊕ Z(b) ≅ Z(gcd) ⊕
    Z(lcm), so the result is the invariant-factor chain of the list. Zeros
    move to the end.
    """
    ds = list(ds)
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            ds[i], ds[j] = math.gcd(ds[i], ds[j]), math.lcm(ds[i], ds[j])
    return ds


def snf(m: Matrix) -> list[int]:
    """Smith Normal Form diagonal d1 | d2 | ... with trailing zeros.

    The returned list has length min(rows, cols); nonzero entries are positive
    and each divides the next. The row HNF of the matrix and of its transpose
    is taken in turn until every row has one nonzero entry (Kannan–Bachem
    1979), and those are merged by gcd/lcm. This ends: from the second pass
    on the matrix is square, nonsingular and triangular, and each pass makes
    the first unfinished pivot the gcd of its row (or column), so it either
    drops to a proper divisor or divides that line and is isolated in its
    row and column, where later passes leave it.
    """
    h = _as_rows(m)
    size = min(len(h), len(h[0]) if h else 0)
    h = _hnf(h)
    while any(len(r) - r.count(0) != 1 for r in h):
        h = _hnf([list(col) for col in zip(*h)])
    pivots = divisibility_chain(sum(r) for r in h)  # one nonzero per row
    return pivots + [0] * (size - len(pivots))


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

    (u0, u) is in the left kernel of [target; m] iff u0 * target = -u * m.
    The u0 of those vectors are the multiples of the first entry of the
    canonical kernel basis, since only its first row can start nonzero. So a
    solution exists iff that row starts with 1, and then c = -(the rest).
    """
    kernel = left_kernel([list(target)] + [list(r) for r in m])
    if not kernel or kernel[0][0] != 1:
        return None
    return [-u for u in kernel[0][1:]]
