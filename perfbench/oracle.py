"""Independent answer routes for the benchmark's checks.

Nothing here calls into `balleans`. Each function recomputes an answer from
a definition or a construction, or uses the from-scratch reference code in
`tests/oracles.py`, so that agreement with the package is a two-route check.
"""

from __future__ import annotations

import importlib.util
import itertools
import math
import os
from typing import Callable, Hashable, Iterable, Optional, Sequence

_REF = None


def reference():
    """The repository's reference implementations, `tests/oracles.py`."""
    global _REF
    if _REF is None:
        path = os.path.join(os.getcwd(), "tests", "oracles.py")
        spec = importlib.util.spec_from_file_location("perfbench_ref_oracles", path)
        if spec is None or spec.loader is None:
            raise FileNotFoundError(path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        _REF = module
    return _REF


# ---------------------------------------------------------------------------
# lattices


def lattice_mu(a_rows, b_rows) -> Optional[int]:
    """mu'(A, B) as max(P(A), P(B)) / P(A + B), None for infinity.

    P is the product of the pivots of an integer echelon basis, and the rank
    is its number of rows. When A, B and A + B have one rank, they span one
    rational space, share pivot columns, and the index of A in A + B is
    P(A) / P(A + B); |B : A∩B| = |A + B : A| by the second isomorphism
    theorem.
    """
    ref = reference()
    bases = [ref.hermite_rows(rows) for rows in (a_rows, b_rows, list(a_rows) + list(b_rows))]
    if len({len(h) for h in bases}) != 1:
        return None
    pa, pb, ps = (math.prod(next(v for v in row if v) for row in h) for h in bases)
    return max(pa, pb) // ps


def constructed_mu(a: Sequence[int], b: Sequence[int]) -> Optional[int]:
    """mu' between the row spans of diag(a)·U and diag(b)·U, U unimodular.

    In U's coordinates the spans are the boxes prod a_i Z and prod b_i Z, so
    the answer is max(prod lcm/a_i, prod lcm/b_i); infinite unless the zero
    positions agree.
    """
    up = down = 1
    for x, y in zip(a, b):
        if (x == 0) != (y == 0):
            return None
        if x:
            lcm = x * y // math.gcd(x, y)
            up *= lcm // x
            down *= lcm // y
    return max(up, down)


def same_span(rows_a, rows_b) -> bool:
    """Do the two row sets span the same subgroup of Z^n?"""
    ref = reference()
    return (all(ref.in_integer_span(r, rows_b) for r in rows_a)
            and all(ref.in_integer_span(r, rows_a) for r in rows_b))


def hnf(rows) -> list[list[int]]:
    """The Hermite normal form of the row span: `hermite_rows`' echelon
    basis with every entry above a pivot reduced into [0, pivot)."""
    h = reference().hermite_rows(rows)
    for r, row in enumerate(h):
        c = next(j for j, v in enumerate(row) if v)
        for i in range(r):
            q = h[i][c] // row[c]
            if q:
                h[i] = [x - q * v for x, v in zip(h[i], row)]
    return h


def smith_invariants(m) -> list[int]:
    """The Smith diagonal from determinantal divisors: d_k = D_k / D_(k-1),
    with D_k the gcd of all k x k minors, and zeros past the rank."""
    ref = reference()
    rows, cols = len(m), len(m[0])
    size = min(rows, cols)
    out, prev = [], 1
    for k in range(1, size + 1):
        g = 0
        for r in itertools.combinations(range(rows), k):
            for c in itertools.combinations(range(cols), k):
                g = math.gcd(g, int(ref.frac_det([[m[i][j] for j in c] for i in r])))
        if g == 0:
            return out + [0] * (size - len(out))
        out.append(g // prev)
        prev = g
    return out


# ---------------------------------------------------------------------------
# finite abelian groups given by their cyclic orders


class Box:
    """Z(m1) ⊕ ... ⊕ Z(mk) on plain tuples: the arithmetic the checks need."""

    def __init__(self, orders: Sequence[int]):
        self.orders = tuple(orders)
        self.zero = (0,) * len(self.orders)

    def normalize(self, x) -> tuple:
        return tuple(c % m for c, m in zip(x, self.orders))

    def add(self, a, b) -> tuple:
        return tuple((x + y) % m for x, y, m in zip(a, b, self.orders))

    def neg(self, a) -> tuple:
        return tuple(-x % m for x, m in zip(a, self.orders))

    def closure(self, gens) -> frozenset:
        return reference().closure(self, gens)

    def symmetrize(self, radius) -> frozenset:
        """F ∪ -F ∪ {0}."""
        out = {self.zero}
        for g in radius:
            g = self.normalize(g)
            out |= {g, self.neg(g)}
        return frozenset(out)


def index_mu(a_set: frozenset, b_set: frozenset) -> int:
    """max(|A : A∩B|, |B : A∩B|) for subgroups given as element sets."""
    return reference().element_count_mu(None, a_set, b_set)


# ---------------------------------------------------------------------------
# exact set cover on bitmasks, for the mu set metric


def min_cover(full: int, sets: Iterable[int]) -> Optional[int]:
    """Fewest masks whose union is `full`, or None if all of them fall short."""
    if not full:
        return 0
    sets = sorted({s & full for s in sets if s & full}, key=lambda s: -bin(s).count("1"))
    union = 0
    for s in sets:
        union |= s
    if union != full:
        return None
    best = bin(full).count("1")

    def search(covered: int, used: int) -> None:
        nonlocal best
        missing = full & ~covered
        if not missing:
            best = min(best, used)
            return
        step = max(bin(s & missing).count("1") for s in sets)
        if used + -(-bin(missing).count("1") // step) >= best:
            return
        low = missing & -missing
        for s in sets:
            if s & low:
                search(covered | s, used + 1)

    search(0, 0)
    return best


def translate_cover(add: Callable, neg: Callable, e: Hashable,
                    parts: list[tuple[frozenset, frozenset]]) -> Optional[int]:
    """Fewest translates F, with e in F, such that F + base covers target for
    every (base, target) pair in `parts`; None for infinity."""
    bits: dict = {}
    for tag, (base, target) in enumerate(parts):
        for t in target - base:
            bits[(tag, t)] = 1 << len(bits)
    full = (1 << len(bits)) - 1
    masks: dict = {}
    for tag, (base, target) in enumerate(parts):
        for t in target - base:
            for b in base:
                g = add(t, neg(b))
                masks[g] = 0
    for g in masks:
        m = 0
        for (tag, t), bit in bits.items():
            base = parts[tag][0]
            if add(neg(g), t) in base:
                m |= bit
        masks[g] = m
    masks.pop(e, None)
    extra = min_cover(full, masks.values())
    return None if extra is None else 1 + extra


def mu_pair(add: Callable, neg: Callable, e: Hashable,
            y: frozenset, z: frozenset) -> tuple[Optional[int], Optional[int]]:
    """(mu, single_set) between nonempty subsets, from the definition.

    mu = max over the two directions of min |F| with e in F and F + base
    covering target; single_set uses one S for both directions. None stands
    for infinity.
    """
    fy = translate_cover(add, neg, e, [(y, z)])
    fz = translate_cover(add, neg, e, [(z, y)])
    mu = None if fy is None or fz is None else max(fy, fz)
    return mu, translate_cover(add, neg, e, [(y, z), (z, y)])


def mu_two_points(orders: Sequence[int], y: frozenset, z: frozenset) -> int:
    """mu(Y, Z) for |Y| = 2 in a group of exponent 2, without a search.

    With Y = {a, b} and d = a + b, a translate g + Y that covers a point z
    covers {z, z + d} and nothing else, so the fewest translates that cover
    Z - Y is the number of cosets of {0, d} that Z - Y meets; e's translate
    is Y itself. The other direction covers at most two points, so its
    search is small.
    """
    if len(y) != 2 or any(m != 2 for m in orders):
        raise ValueError("needs |Y| = 2 in (Z/2)^k")
    box = Box(orders)
    a, b = y
    d = box.add(a, b)
    cosets = {min(x, box.add(x, d)) for x in z - y}
    fz = translate_cover(box.add, box.neg, box.zero, [(z, y)])
    return max(1 + len(cosets), fz)


# ---------------------------------------------------------------------------
# ball enumerators of the subgroup spaces of Z and of the Pruefer chains


def _residues_near_zero(step: int, modulus: int, m: int) -> bool:
    """Is every multiple of `step` mod `modulus` within m of 0 (circularly)?"""
    for r in range(0, modulus, step):
        if min(r, modulus - r) > m:
            return False
    return True


def lz_exp_members(n: int, m: int) -> set[int]:
    """{k : kZ ⊆ nZ + [-m, m] and nZ ⊆ kZ + [-m, m]}, by residue scans.

    kZ ⊆ nZ + F says every residue of the subgroup generated by gcd(k, n) in
    Z/n lies within m of 0, and symmetrically. The second condition puts
    k/gcd(n, k) distinct residues into 2m + 1 classes, so k <= n(2m + 1).
    """
    ok_mod_n = {d: _residues_near_zero(d, n, m)
                for d in range(1, n + 1) if n % d == 0}
    out = set()
    for k in range(1, n * (2 * m + 1) + 1):
        if ok_mod_n[math.gcd(k, n)] and _residues_near_zero(math.gcd(k, n), k, m):
            out.add(k)
    return out


def lz_log_members(n: int, bound: int) -> set[int]:
    """{m : max(lcm/n, lcm/m) <= bound} over the divisors of n.

    With g = gcd(n, m), n = g·a and m = g·b for coprime a, b, and the
    distance is max(a, b); so m = (n/a)·b with a | n and a, b <= bound.
    """
    out = set()
    for a in range(1, bound + 1):
        if n % a:
            continue
        for b in range(1, bound + 1):
            if math.gcd(a, b) == 1:
                out.add(n // a * b)
    return out


def prufer_members(p: int, level: int, bound: int) -> set[int]:
    """Levels j with p^|level - j| <= bound, by a direct scan."""
    top = level + 1
    while p ** (top - level) <= bound:
        top += 1
    return {j for j in range(0, top + 1) if p ** abs(level - j) <= bound}


# ---------------------------------------------------------------------------
# explicit balleans on bitmasks


def point_masks(support: Sequence, radii: Sequence, ball) -> dict:
    """{radius: [ball of point i as a bitmask]} for points indexed by position."""
    index = {x: i for i, x in enumerate(support)}
    return {a: [sum(1 << index[y] for y in ball(x, a)) for x in support]
            for a in radii}


def blown_masks(pmask: list[int]) -> list[int]:
    """B(Y, a) for every subset mask Y, by adding one point at a time."""
    out = [0] * (1 << len(pmask))
    for y in range(1, len(out)):
        low = y & -y
        out[y] = out[y ^ low] | pmask[low.bit_length() - 1]
    return out


def closure_masks(pmask: list[int]) -> list[int]:
    """Transitive closure of each point's ball under the same radius."""
    out = []
    for i in range(len(pmask)):
        cur = 1 << i
        while True:
            nxt = 0
            rest = cur
            while rest:
                low = rest & -rest
                nxt |= pmask[low.bit_length() - 1]
                rest ^= low
            if nxt == cur:
                break
            cur = nxt
        out.append(cur)
    return out


def exp_ball_masks(blown: list[int], y: int) -> list[int]:
    """Masks Z with Z ⊆ B(Y) and Y ⊆ B(Z), from the definition."""
    out = []
    allowed = blown[y]
    z = allowed
    while z:
        if not y & ~blown[z]:
            out.append(z)
        z = (z - 1) & allowed
    return out
