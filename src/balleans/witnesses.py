"""Constructive maps behind the classification results, each designed to be
checked against an independent route.

The embeddings here (prime-exponent tuples into subgroups of the integers,
exponent tuples into Hamming space, finite index sets into elementary abelian
subgroups) all come with closed-form distance predictions; the test suites
compare those predictions with distances computed from scratch by the lattice
and group machinery.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, Optional, Sequence

from ._values import value_class
from .ballean import HammingPoint, _union
from .groups import FAGSubgroup, FiniteAbelianGroup, _is_prime, fag_log_distance
from .lattices import ExtNat, Lattice, lattice_from_generators, member

LZ_ENUMERATION_LIMIT = 10 ** 6

# ---------------------------------------------------------------------------
# prime-exponent tuples in the subgroup space of Z


@value_class
class PrimeTuple:
    """Distinct primes p1 < ... < pn."""

    primes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.primes:
            raise ValueError("at least one prime required")
        if list(self.primes) != sorted(set(self.primes)):
            raise ValueError("primes must be strictly increasing")
        for p in self.primes:
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")

    @property
    def n(self) -> int:
        return len(self.primes)


@value_class
class TaxiPoint:
    """A tuple of natural exponents, measured in the taxi metric."""

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(c < 0 for c in self.coords):
            raise ValueError("coordinates must be >= 0")


def iota(pt: PrimeTuple, m: TaxiPoint) -> Lattice:
    """The subgroup (p1^m1 * ... * pn^mn) Z of Z."""
    if len(m.coords) != pt.n:
        raise ValueError("coordinate count does not match the prime tuple")
    k = math.prod(p ** e for p, e in zip(pt.primes, m.coords))
    return lattice_from_generators(1, [[k]])


def taxi_distance(m: TaxiPoint, mp: TaxiPoint) -> int:
    if len(m.coords) != len(mp.coords):
        raise ValueError("coordinate counts differ")
    return sum(abs(a - b) for a, b in zip(m.coords, mp.coords))


def dlog_closed_form(pt: PrimeTuple, m: TaxiPoint, mp: TaxiPoint) -> ExtNat:
    """mu' between the two image subgroups, in closed form.

    The index of the intersection in each side is the product of the primes
    raised to the one-sided exponent excesses; mu' is the larger of the two
    products.
    """
    if len(m.coords) != pt.n or len(mp.coords) != pt.n:
        raise ValueError("coordinate count does not match the prime tuple")
    up = down = 1
    for p, a, b in zip(pt.primes, m.coords, mp.coords):
        if a > b:
            up *= p ** (a - b)
        elif b > a:
            down *= p ** (b - a)
    return ExtNat.finite(max(up, down))


@value_class
class VerificationReport:
    """Outcome of a verification sweep; violations mean failure."""

    claim: str
    samples: int
    violations: tuple = ()
    max_ratio: Optional[float] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        out: dict = {"claim": self.claim, "samples": self.samples,
                     "violations": [list(v) for v in self.violations],
                     "ok": self.ok}
        if self.max_ratio is not None:
            out["max_ratio"] = self.max_ratio
        return out


def verify_iota_quasi_isometry(pt: PrimeTuple,
                               samples: Sequence[tuple[TaxiPoint, TaxiPoint]]
                               ) -> VerificationReport:
    """Check both quasi-isometry inequalities for the embedding, exactly.

    With mu' the exact integer distance, P = max prime, b = min prime, and
    t the taxi distance, the inequalities log(mu') <= t * log(P) and
    t * log(b) <= n * log(mu') are checked in their exponentiated integer
    forms mu' <= P^t and b^t <= mu'^n — no floating point is involved.
    """
    violations = []
    max_ratio = 0.0
    for m, mp in samples:
        ratio = _check_quasi_isometry(pt, m, mp, dlog_closed_form(pt, m, mp), violations)
        max_ratio = max(max_ratio, ratio)
    return VerificationReport("iota-quasi-isometry", len(samples),
                              tuple(violations), max_ratio)


def _check_quasi_isometry(pt: PrimeTuple, m: TaxiPoint, mp: TaxiPoint,
                          mu: ExtNat, violations: list) -> float:
    """Append the pair's violations, given its distance mu, to violations;
    return log(mu') / (t * log(b)), or 0 when t = 0."""
    t = taxi_distance(m, mp)
    assert mu.is_finite
    if mu.value > pt.primes[-1] ** t:
        violations.append(("upper", m.coords, mp.coords))
    if pt.primes[0] ** t > mu.value ** pt.n:
        violations.append(("lower", m.coords, mp.coords))
    return mu.log() / (t * math.log(pt.primes[0])) if t else 0.0


# ---------------------------------------------------------------------------
# Hamming embedding of exponent tuples


def _stream_prefix(i: int, n: int, length: int) -> list[int]:
    # default disjoint infinite index streams: residue classes mod n,
    # stream i = {i, i+n, i+2n, ...}
    return [i + n * j for j in range(length)]


def hamming_embed(n: int, m: TaxiPoint) -> HammingPoint:
    """phi(m1,...,mn) = union over i of the first m_i + 1 elements of the
    i-th residue-class stream; an isometry onto its image."""
    if len(m.coords) != n:
        raise ValueError("coordinate count does not match the stream count")
    support: set[int] = set()
    for i, mi in enumerate(m.coords):
        support.update(_stream_prefix(i, n, mi + 1))
    return HammingPoint(frozenset(support))


# ---------------------------------------------------------------------------
# elementary abelian correspondence


def elementary_abelian_correspondence(p: int, f: Iterable[int],
                                      fp: Iterable[int],
                                      width: Optional[int] = None
                                      ) -> tuple[ExtNat, ExtNat]:
    """Distance between the coordinate subgroups indexed by f and fp.

    Inside the elementary abelian group of exponent p and the given width,
    H_F is the span of the coordinate vectors indexed by F. Returns the
    computed mu' alongside the predicted p^max(|F \\ F'|, |F' \\ F|).
    """
    fs = frozenset(f)
    fps = frozenset(fp)
    if width is None:
        width = max(fs | fps, default=-1) + 1
    width = max(width, 1)
    if any(i < 0 or i >= width for i in fs | fps):
        raise ValueError("index outside the working width")
    parent = FiniteAbelianGroup((p,) * width)
    computed = fag_log_distance(_coordinate_subgroup(parent, fs),
                                _coordinate_subgroup(parent, fps))
    return computed, elementary_abelian_closed_form(p, fs, fps)


def elementary_abelian_closed_form(p: int, f: frozenset, fp: frozenset) -> ExtNat:
    """The predicted mu'(H_F, H_F') = p^max(|F \\ F'|, |F' \\ F|)."""
    return ExtNat.finite(p ** max(len(f - fp), len(fp - f)))


def _coordinate_subgroup(parent: FiniteAbelianGroup, idx: frozenset) -> FAGSubgroup:
    """H_F in (Z/p)^w, lifted to <e_i : i in F> + p·Z^w = diag(d) with d_i = 1
    for i in F and p otherwise; a diagonal with positive pivots is already
    the canonical row HNF, so no elimination runs."""
    p, width = parent.exponent, parent.k
    basis = []
    for i in range(width):
        row = [0] * width
        row[i] = 1 if i in idx else p
        basis.append(tuple(row))
    return FAGSubgroup._canonical(parent, Lattice(width, tuple(basis)))


# ---------------------------------------------------------------------------
# cyclic-subgroup trees of finite p-groups


@value_class
class TreeCertificate:
    """The graph of cyclic subgroups with index-p containment edges."""

    vertices: tuple[FAGSubgroup, ...]
    edges: tuple[tuple[int, int], ...]  # (child, parent) vertex indices
    root: int
    height: int
    is_tree: bool

    def to_json(self) -> dict:
        return {"vertices": len(self.vertices),
                "edges": [list(e) for e in self.edges],
                "root": self.root, "height": self.height,
                "is_tree": self.is_tree}


def cyclic_subgroup_tree(g: FiniteAbelianGroup) -> TreeCertificate:
    """All cyclic subgroups with an edge whenever one sits in the other with
    prime index; for a p-group this graph is a tree rooted at the trivial
    subgroup with height log_p of the exponent."""
    p, height = _prime_power(g.exponent)
    ms = g.invariant_factors
    subs = []
    generators: set = set()  # every element known to generate a vertex
    for x in g.elements():
        if x in generators:
            continue
        s = FAGSubgroup.from_elements(g, [x])
        n = s.order
        subs.append((n, s.lift.basis, x, s))
        generators.update(tuple(c * v % m for v, m in zip(x, ms))
                          for c in range(1, n + 1) if math.gcd(c, n) == 1)
    subs.sort(key=lambda t: t[:2])
    orders, _, gens, vertices = zip(*subs)
    edges = []
    for i, (order, x) in enumerate(zip(orders, gens)):
        # edge (child, parent): x, so H_i = <x>, lies in H_j with index p;
        # the candidates j, of order p·|H_i|, are one run of the sorted vertices
        lo = bisect.bisect_left(orders, order * p, i)
        hi = bisect.bisect_right(orders, order * p, lo)
        edges += [(j, i) for j in range(lo, hi) if member(x, vertices[j].lift)]
    root = orders.index(1)
    # connectivity + acyclicity: a tree has n-1 edges and is connected
    adj = [0] * len(vertices)
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    seen = reached = 1 << root
    while reached:
        reached = _union(adj, reached) & ~seen
        seen |= reached
    is_tree = len(edges) == len(vertices) - 1 and seen == (1 << len(vertices)) - 1
    return TreeCertificate(vertices, tuple(edges), root, height, is_tree)


def _prime_power(m: int) -> tuple[int, int]:
    """(p, h) with m = p**h, p prime and h >= 1. A finite abelian group is a
    p-group iff its exponent is such a power, and h is then the tree height."""
    p = next((d for d in range(2, math.isqrt(m) + 1) if m % d == 0), m)
    h = 0
    while m > 1 and m % p == 0:
        m //= p
        h += 1
    if m != 1 or h == 0:
        raise ValueError("not a p-group")
    return p, h


# ---------------------------------------------------------------------------
# ball enumerators for the subgroup spaces of Z and the Pruefer groups


# For n, k >= 1 write g = gcd(n, k), n = g*s and k = g*t, so gcd(s, t) = 1.
# The image of kZ in Z/n is the s-element subgroup {0, g, ..., (s-1)g}, and
# the image of nZ in Z/k is the t-element subgroup {0, g, ..., (t-1)g}. Every
# k is (n/s)*t for exactly one divisor s of n and one t coprime to s, so the
# balls below walk those pairs instead of a range of k: the loops follow the
# size of the answer. A pair with gcd(s, t) = c > 1 would name the k of the
# pair (s/c, t/c) under a test at least as strict, so the coprimality test
# changes no answer; it keeps each k from being tested twice.


def _check_budget(family: str, count: int, what: str) -> None:
    if count > LZ_ENUMERATION_LIMIT:
        raise ValueError(f"{family} ball needs {count} {what}; LZ enumeration "
                         f"allows at most {LZ_ENUMERATION_LIMIT}")


def _divisors_upto(n: int, top: int, family: str) -> list[int]:
    """The divisors of n that are <= top, in increasing order.

    Trial division by 1..min(top, isqrt(n)) finds them all: a divisor above
    isqrt(n) is n/a for a divisor a below it, and when top < isqrt(n) no
    divisor <= top lies above isqrt(n).
    """
    trials = min(top, math.isqrt(n))
    _check_budget(family, trials, "trial divisions")
    low = [a for a in range(1, trials + 1) if n % a == 0]
    return low + [n // a for a in reversed(low) if trials < n // a <= top]


def lz_exp_ball_general(n: int, radius: Iterable[int]) -> set[int]:
    """{k : kZ in exp B(nZ, F)} for an arbitrary finite radius set F.

    F is the radius symmetrised, with 0 added. kZ lies inside F + nZ exactly
    when its s-element image {0, g, ..., (s-1)g} in Z/n sits inside F mod n,
    and nZ lies inside F + kZ exactly when {0, g, ..., (t-1)g} sits inside
    F mod k (g, s, t as above). Both images must fit into at most |F|
    residues, so s <= |F| and t <= |F|: the loop runs over the divisors
    s <= |F| of n that pass the first test and the t <= |F| coprime to s.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    f = {0}
    for x in radius:
        f |= {x, -x}
    size = len(f)
    mod_n = {x % n for x in f}
    divisors = [s for s in _divisors_upto(n, size, "LZ-exp")
                if all(j * (n // s) in mod_n for j in range(s))]
    _check_budget("LZ-exp", len(divisors) * size, "candidates")
    out = set()
    for s in divisors:
        g = n // s
        for t in range(1, size + 1):
            if math.gcd(s, t) != 1:
                continue
            k = g * t
            mod_k = {x % k for x in f}
            if all(j * g in mod_k for j in range(t)):
                out.add(k)
    return out


def lz_exp_ball(n: int, m: int) -> set[int]:
    """{k : kZ in exp B(nZ, [-m, m])}, in closed form; {n} whenever n > 3m.

    With g, s, t as above, the multiples of g mod n lie within m of 0 exactly
    when the farthest one, g * floor(s/2), does; likewise mod k with t. So k
    is in the ball iff g * floor(s/2) <= m and g * floor(t/2) <= m, that is
    t <= 2 * floor(m/g) + 1. For s >= 2, g * floor(s/2) = n * floor(s/2) / s
    >= n/3, with equality at s = 3; so n > 3m leaves s = 1, g = n, t = 1.
    """
    if m < 0:
        raise ValueError("radius bound must be >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > 3 * m:
        return {n}
    steps = [n // s for s in _divisors_upto(n, 2 * m + 1, "LZ-exp")
             if n // s * (s // 2) <= m]
    _check_budget("LZ-exp", sum(2 * (m // g) + 1 for g in steps), "candidates")
    return {g * t for g in steps for t in range(1, 2 * (m // g) + 2)
            if math.gcd(n // g, t) == 1}


def lz_log_ball(n: int, bound: int) -> set[int]:
    """{m : mu'(nZ, mZ) <= bound} with mu' = max(lcm/n, lcm/m).

    With g = gcd(n, m), n = g*a and m = g*b, lcm = g*a*b, so mu' = max(b, a):
    the ball is {(n/a) * b : a | n, a <= bound, b <= bound, gcd(a, b) = 1}.
    """
    if n < 1 or bound < 1:
        raise ValueError("n and the bound must be >= 1")
    divisors = _divisors_upto(n, bound, "LZ-log")
    _check_budget("LZ-log", len(divisors) * bound, "candidates")
    return {n // a * b for a in divisors for b in range(1, bound + 1)
            if math.gcd(a, b) == 1}


def prufer_ball(p: int, level: int, bound: int) -> set[int]:
    """Levels j with p^|level - j| <= bound; the chain is (log p) N."""
    if not _is_prime(p):
        raise ValueError("prime required")
    if level < 0 or bound < 1:
        raise ValueError("level >= 0 and bound >= 1 required")
    radius = 0
    while p ** (radius + 1) <= bound:
        radius += 1
    return set(range(max(0, level - radius), level + radius + 1))
