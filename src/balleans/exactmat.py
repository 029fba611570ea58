"""Exact integer matrix kernel: one row HNF and what follows from it.

Everything here works on rectangular sequences of Python ints, so all results
are exact at arbitrary size. No floating point is used anywhere in this module;
index products like p1^m1 * ... * pn^mn overflow machine words quickly, which
is why arbitrary precision is mandatory.

`_extend`, which inserts rows into a reduced row HNF and leaves an echelon
basis with the HNF's pivots, is the only elimination; `_finish`, one pass
from the bottom up, makes that basis the HNF. `row_hnf` extends an empty
basis and finishes it, and `lattices` extends canonical bases without
eliminating them again, finishing only what it returns: a distance reads
just the pivots. The left kernel is the part of the HNF of [m | I] that is
zero on m's columns (`_zero_part` finishes only that part), as `lattices`
reads off A ∩ B; integer solving (one kernel of [target; m]) and the Smith
form (the HNF of rows and of columns in turn) follow. `abs_det` (Bareiss)
is an independent route.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterable, Optional, Sequence

Matrix = Sequence[Sequence[int]]


def _as_rows(m: Matrix) -> list[list[int]]:
    """Copy into a list of lists, rejecting ragged or non-integer input."""
    rows = [list(r) for r in m]
    if len(set(map(len, rows))) > 1:
        raise ValueError("ragged matrix")
    return _check_integers(rows)


def _check_integers(rows: list) -> list:
    """rows, refused unless every entry is an int (bool is not)."""
    # the exact-type test is the fast path; int subclasses but bool pass too
    if not set(map(type, chain.from_iterable(rows))) <= {int} and any(
            not isinstance(x, int) or isinstance(x, bool)
            for x in chain.from_iterable(rows)):
        raise ValueError("matrix entries must be integers")
    return rows


def _extend(h: list, rows: Iterable[Sequence[int]]) -> list:
    """Extend h, a reduced row HNF, in place to an echelon basis of h's rows
    and `rows`, which `_finish` makes their reduced row HNF.

    Each row v walks h in pivot order (Kannan–Bachem 1979). Where v's entry
    b meets a pivot a, v loses (b/a)·row if a | b; otherwise (row, v)
    becomes (x·row + y·v, a'·v − b'·row), with a' = a/g, b' = b/g for
    g = gcd(a, b) and x·a' + y·b' = 1. Where v leads left of the next pivot,
    it becomes a new row. The rows an insertion changed are reduced against
    the rows below them, which keeps entries small. The pivots, positive,
    are already those of the HNF, which differs only above them.
    """
    cols = _pivots(h)
    for v in rows:
        w = len(v)
        lead = 0
        while lead < w and not v[lead]:
            lead += 1
        changed = []
        for i, c in enumerate(cols):
            if c > lead:  # v leads left of this pivot
                break
            if c < lead:
                continue
            row = h[i]
            a, b = row[c], v[c]
            if b % a:
                g = math.gcd(a, b)
                a, b = a // g, b // g
                x = pow(a, -1, abs(b))
                y = (1 - x * a) // b
                h[i] = [x * s + y * t for s, t in zip(row, v)]
                v = [a * t - b * s for s, t in zip(row, v)]
                changed.append(i)
            else:
                q = b // a
                v = [t - q * s for s, t in zip(row, v)]
            while lead < w and not v[lead]:
                lead += 1
        else:
            i = len(cols)
        if lead < w:
            h.insert(i, v if v[lead] > 0 else [-t for t in v])
            cols.insert(i, lead)
            changed.append(i)
        _reduce(h, cols, reversed(changed))
    return h


def _pivots(h: list) -> list[int]:
    """The pivot column of each row of the echelon basis h."""
    return [r.index(next(filter(None, r))) for r in h]


def _finish(h: list) -> list:
    """The reduced row HNF of `_extend`'s echelon basis h, in place: each
    row, bottom up, reduced above the pivots of the rows below it."""
    _reduce(h, _pivots(h), range(len(h) - 2, -1, -1))
    return h


def _zero_part(h: list, ncols: int) -> list[list[int]]:
    """The rows of the HNF of h, an echelon basis from `_extend`, that are
    zero on the first ncols columns, cut there. They are h's last rows, and
    reducing a row reads only the rows below it, so `_finish`'s pass runs
    over these rows alone."""
    cols = _pivots(h)
    first = sum(c < ncols for c in cols)
    _reduce(h, cols, range(len(h) - 2, first - 1, -1))
    return [r[ncols:] for r in h[first:]]


def _reduce(h: list, cols: list[int], ks: Iterable[int]) -> None:
    """Reduce rows ks of h, in turn, above the pivots of the rows below."""
    for k in ks:
        row = h[k]
        for j in range(k + 1, len(h)):
            q = row[cols[j]] // h[j][cols[j]]
            if q:
                row = [s - q * t for s, t in zip(row, h[j])]
        h[k] = row


def row_hnf(m: Matrix) -> list[list[int]]:
    """Canonical row-style Hermite Normal Form of the row span of m.

    Zero rows removed, row echelon, pivots positive, entries above each pivot
    reduced into [0, pivot). Two matrices have the same row span over the
    integers iff their HNFs are identical, so lattice equality becomes
    bit-equality on the output.
    """
    return _finish(_extend([], _as_rows(m)))


def left_kernel(m: Matrix) -> list[list[int]]:
    """Canonical basis of the integer left kernel {u : u * m = 0}.

    [m | I] spans {(u * m, u)}, so its HNF rows that are zero on m's
    columns, cut there, are the canonical basis of {u : u * m = 0}.
    """
    rows = _as_rows(m)
    ncols = len(rows[0]) if rows else 0
    aug = [r + [int(i == j) for j in range(len(rows))] for i, r in enumerate(rows)]
    return _zero_part(_extend([], aug), ncols)


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
    h = _finish(_extend([], h))
    while any(len(r) - r.count(0) != 1 for r in h):
        h = _finish(_extend([], [list(col) for col in zip(*h)]))
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
