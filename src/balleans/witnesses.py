"""Constructive maps behind the classification results, each designed to be
checked against an independent route.

The embeddings here (prime-exponent tuples into subgroups of the integers,
exponent tuples into Hamming space, finite index sets into elementary abelian
subgroups) all come with closed-form distance predictions; the test suites
compare those predictions with distances computed from scratch by the lattice
and group machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .ballean import HammingPoint
from .groups import FAGSubgroup, FiniteAbelianGroup, _is_prime, fag_log_distance
from .lattices import ExtNat, Lattice, lattice_from_generators

# ---------------------------------------------------------------------------
# prime-exponent tuples in the subgroup space of Z


@dataclass(frozen=True)
class PrimeTuple:
    """Distinct primes p1 < ... < pn with a display log base <= min prime."""

    primes: tuple[int, ...]
    log_base: float = 2.0

    def __post_init__(self) -> None:
        if not self.primes:
            raise ValueError("at least one prime required")
        if list(self.primes) != sorted(set(self.primes)):
            raise ValueError("primes must be strictly increasing")
        for p in self.primes:
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")
        if self.log_base > self.primes[0]:
            raise ValueError("log base must not exceed the smallest prime")

    @property
    def n(self) -> int:
        return len(self.primes)


@dataclass(frozen=True)
class TaxiPoint:
    """A tuple of natural exponents, measured in the taxi metric."""

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(c < 0 for c in self.coords):
            raise ValueError("coordinates must be >= 0")

    @classmethod
    def of(cls, coords: Iterable[int]) -> "TaxiPoint":
        return cls(tuple(coords))


def iota(pt: PrimeTuple, m: TaxiPoint) -> Lattice:
    """The subgroup (p1^m1 * ... * pn^mn) Z of Z."""
    if len(m.coords) != pt.n:
        raise ValueError("coordinate count does not match the prime tuple")
    k = 1
    for p, e in zip(pt.primes, m.coords):
        k *= p ** e
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


@dataclass(frozen=True)
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
    pmax = pt.primes[-1]
    pmin = pt.primes[0]
    violations = []
    max_ratio = 0.0
    for m, mp in samples:
        mu = dlog_closed_form(pt, m, mp)
        t = taxi_distance(m, mp)
        assert mu.is_finite
        if mu.value > pmax ** t:
            violations.append(("upper", m.coords, mp.coords))
        if pmin ** t > mu.value ** pt.n:
            violations.append(("lower", m.coords, mp.coords))
        if t:
            max_ratio = max(max_ratio, mu.log() / (t * math.log(pmin)))
    return VerificationReport("iota-quasi-isometry", len(samples),
                              tuple(violations), max_ratio)


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
    a = _coordinate_subgroup(parent, fs, width)
    b = _coordinate_subgroup(parent, fps, width)
    computed = fag_log_distance(a, b)
    expected = ExtNat.finite(p ** max(len(fs - fps), len(fps - fs)))
    return computed, expected


def _coordinate_subgroup(parent: FiniteAbelianGroup, idx: frozenset,
                         width: int) -> FAGSubgroup:
    gens = [[int(j == i) for j in range(width)] for i in sorted(idx)]
    return FAGSubgroup.from_elements(parent, gens)


# ---------------------------------------------------------------------------
# cyclic-subgroup trees of finite p-groups


@dataclass(frozen=True)
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
    p = _single_prime(g)
    subs: dict = {}
    for x in g.elements():
        s = FAGSubgroup.from_elements(g, [x])
        subs.setdefault(s.lift, s)
    vertices = sorted(subs.values(), key=lambda s: (s.order, s.lift.basis))
    orders = [v.order for v in vertices]
    elem_sets = [v.elements() for v in vertices]
    edges = []
    for i in range(len(vertices)):
        for j in range(len(vertices)):
            # edge (child, parent): child j contains parent i with index p
            if orders[j] == orders[i] * p and elem_sets[i] <= elem_sets[j]:
                edges.append((j, i))
    root = orders.index(1)
    n = len(vertices)
    # connectivity + acyclicity: a tree has n-1 edges and is connected
    adj = {k: set() for k in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {root}
    frontier = [root]
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    is_tree = len(edges) == n - 1 and len(seen) == n
    height = _int_log(g.exponent, p)
    return TreeCertificate(tuple(vertices), tuple(edges), root, height, is_tree)


def _single_prime(g: FiniteAbelianGroup) -> int:
    order = g.order
    p = None
    d = 2
    m = order
    while d * d <= m:
        if m % d == 0:
            p = d
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        if p is not None:
            raise ValueError("not a p-group")
        p = m
    if p is None or any(_strip(mi, p) != 1 for mi in g.invariant_factors):
        raise ValueError("not a p-group")
    return p


def _strip(m: int, p: int) -> int:
    while m % p == 0:
        m //= p
    return m


def _int_log(m: int, p: int) -> int:
    e = 0
    while m > 1:
        if m % p:
            raise ValueError("not a power of the prime")
        m //= p
        e += 1
    return e


# ---------------------------------------------------------------------------
# ball enumerators for the subgroup spaces of Z and the Pruefer groups


def _subgroup_generated_mod(n: int, g: int) -> frozenset:
    """The cyclic subgroup of Z/nZ generated by g (n >= 1)."""
    if n == 1:
        return frozenset({0})
    step = math.gcd(g, n)
    return frozenset(range(0, n, step))


def lz_exp_ball_general(n: int, radius: Iterable[int]) -> set[int]:
    """{k : kZ in exp B(nZ, F)} for an arbitrary finite radius set F.

    kZ lies inside F + nZ exactly when its image in Z/nZ, the cyclic subgroup
    generated by gcd(k, n), sits inside the image of F; symmetrically with n
    and k swapped. The second condition forces the k/gcd(n,k)-element image
    subgroup into a set of at most |F| + 1 residues, which bounds
    k <= n * (|F| + 1) and makes the enumeration finite.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    f = set(radius) | {-x for x in radius} | {0}
    bound = n * len(f)
    out = set()
    qn = frozenset(x % n for x in f) if n > 1 else frozenset({0})
    for k in range(1, bound + 1):
        if not _subgroup_generated_mod(n, math.gcd(k, n)) <= qn:
            continue
        qk = frozenset(x % k for x in f) if k > 1 else frozenset({0})
        if _subgroup_generated_mod(k, math.gcd(n, k)) <= qk:
            out.add(k)
    return out


def lz_exp_ball(n: int, m: int) -> set[int]:
    """{k : kZ in exp B(nZ, [-m, m])}; equal to {n} whenever n > 3m."""
    if m < 0:
        raise ValueError("radius bound must be >= 0")
    return lz_exp_ball_general(n, range(1, m + 1))


def lz_log_ball(n: int, bound: int) -> set[int]:
    """{m : mu'(nZ, mZ) <= bound} with mu' = max(lcm/n, lcm/m)."""
    if n < 1 or bound < 1:
        raise ValueError("n and the bound must be >= 1")
    out = set()
    for m in range(-(-n // bound), n * bound + 1):
        if m < 1:
            continue
        l = n * m // math.gcd(n, m)
        if max(l // n, l // m) <= bound:
            out.add(m)
    return out


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
