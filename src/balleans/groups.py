"""Concrete abelian group families and symbolic classification.

Finite abelian groups are given by invariant factors and their subgroups are
held as intermediate lattices diag(m)·Z^k ⊆ L ⊆ Z^k, which reuses the exact
lattice kernel and gives canonical representatives. Infinite groups enter only
through the closed descriptor grammar (free rank, divisible part, reduced
torsion parts); the classification operations consume exactly that structural
data.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterable, Iterator, Optional, Sequence, Union

from ._values import value_class
from .exactmat import _extend, _finish, divisibility_chain
from .lattices import (
    ExtNat,
    INFINITE,
    Lattice,
    full_lattice,
    log_subgroup_distance,
    member,
    pivot_product,
)


# ---------------------------------------------------------------------------
# finite abelian groups and their subgroups


@value_class
class FiniteAbelianGroup:
    """Z(m1) ⊕ ... ⊕ Z(mk) with the divisibility chain m1 | m2 | ... | mk.

    Elements are k-tuples with coordinate i taken mod m_i.
    """

    invariant_factors: tuple[int, ...]

    def __post_init__(self) -> None:
        ms = self.invariant_factors
        if any(m < 2 for m in ms):
            raise ValueError("invariant factors must be >= 2")
        for a, b in zip(ms, ms[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")

    @classmethod
    def from_orders(cls, orders: Sequence[int]) -> "FiniteAbelianGroup":
        """Canonicalize an arbitrary direct sum of cyclic groups: merging
        pairs by Z(a) ⊕ Z(b) ≅ Z(gcd) ⊕ Z(lcm) leaves a divisibility chain."""
        if any(o < 1 for o in orders):
            raise ValueError("cyclic orders must be >= 1")
        return cls(tuple(d for d in divisibility_chain(orders) if d > 1))

    @property
    def k(self) -> int:
        return len(self.invariant_factors)

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    @property
    def zero(self) -> tuple[int, ...]:
        return (0,) * self.k

    def normalize(self, x: Union[int, Sequence[int]]) -> tuple[int, ...]:
        """Reduce coordinatewise; bare ints are accepted for cyclic groups.
        A coordinate that is not an int, or is a bool, is refused."""
        if isinstance(x, int):
            if self.k != 1:
                raise ValueError("bare integers only valid in cyclic groups")
            x = (x,)
        if len(x) != self.k:
            raise ValueError("element arity does not match the group")
        # the exact-type test is the fast path; int subclasses but bool pass too
        if set(map(type, x)) - {int} and any(
                not isinstance(c, int) or isinstance(c, bool) for c in x):
            raise ValueError("group element coordinates must be integers")
        return tuple(map(operator.mod, x, self.invariant_factors))

    def add(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        return tuple(map(operator.mod, map(operator.add, a, b), self.invariant_factors))

    def neg(self, a: Sequence[int]) -> tuple[int, ...]:
        return tuple(map(operator.mod, map(operator.neg, a), self.invariant_factors))

    def elements(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(*(range(m) for m in self.invariant_factors))

    def element_order(self, a: Sequence[int]) -> int:
        """lcm over coordinates of the order m_i / gcd(x_i, m_i) in Z(m_i)."""
        x = self.normalize(a)
        return math.lcm(*(m // math.gcd(c, m) for c, m in zip(x, self.invariant_factors)))


@value_class
class FAGSubgroup:
    """A subgroup of a finite abelian group, held as its lift in Z^k."""

    parent: FiniteAbelianGroup
    lift: Lattice

    def __post_init__(self) -> None:
        ms = self.parent.invariant_factors
        if self.lift.ambient != len(ms):
            raise ValueError("lift ambient does not match parent")
        for i, m in enumerate(ms):
            row = [m if j == i else 0 for j in range(len(ms))]
            if not member(row, self.lift):
                raise ValueError("lift must contain diag(m) Z^k")

    @classmethod
    def _canonical(cls, parent: FiniteAbelianGroup, lift: Lattice) -> "FAGSubgroup":
        """A subgroup whose lift is known to contain diag(m)·Z^k, built
        without the containment check of `__post_init__`."""
        sub = object.__new__(cls)
        object.__setattr__(sub, "parent", parent)
        object.__setattr__(sub, "lift", lift)
        return sub

    @classmethod
    def from_elements(cls, parent: FiniteAbelianGroup,
                      gens: Iterable[Union[int, Sequence[int]]]) -> "FAGSubgroup":
        """The subgroup generated by gens: diag(m), already a reduced row
        HNF, extended by the normalized gens, so the lift contains
        diag(m)·Z^k by construction."""
        ms = parent.invariant_factors
        diag = [[m if j == i else 0 for j in range(len(ms))] for i, m in enumerate(ms)]
        h = _finish(_extend(diag, [parent.normalize(g) for g in gens]))
        return cls._canonical(parent, Lattice(len(ms), tuple(map(tuple, h))))

    @classmethod
    def trivial(cls, parent: FiniteAbelianGroup) -> "FAGSubgroup":
        return cls.from_elements(parent, [])

    @classmethod
    def whole(cls, parent: FiniteAbelianGroup) -> "FAGSubgroup":
        return cls(parent, full_lattice(parent.k))

    @property
    def order(self) -> int:
        """|G| / |Z^k : lift|, the lift's index being its pivot product."""
        return self.parent.order // pivot_product(self.lift)

    def contains(self, x: Union[int, Sequence[int]]) -> bool:
        return member(list(self.parent.normalize(x)), self.lift)

    def elements(self) -> frozenset:
        """The coset box of the lift's row HNF, whose row i has its pivot
        d_i | m_i in column i: the points sum c_i·row_i mod m with
        0 <= c_i < m_i/d_i are each element once (coordinate i fixes c_i
        given the rows above it), so |H| = prod m_i/d_i."""
        ms = self.parent.invariant_factors
        pts = [self.parent.zero]
        for i, row in enumerate(self.lift.basis):
            steps = [tuple(c * v % m for v, m in zip(row, ms))
                     for c in range(1, ms[i] // row[i])]
            pts += [tuple((a + b) % m for a, b, m in zip(p, q, ms))
                    for q in steps for p in pts]
        return frozenset(pts)


def fag_log_distance(a: FAGSubgroup, b: FAGSubgroup) -> ExtNat:
    """mu' = max(|A : A∩B|, |B : A∩B|); always finite in a finite group.
    Lifts containing diag(m)·Z^k keep every index, so it is the lifts' mu'."""
    if a.parent != b.parent:
        raise ValueError("subgroups of different parents")
    return log_subgroup_distance(a.lift, b.lift)


SUBGROUP_ORDER_LIMIT = 200


def all_subgroups(parent: FiniteAbelianGroup) -> list[FAGSubgroup]:
    """Every subgroup, ordered by increasing order and then by lift basis.

    The lifts diag(m)·Z^k ⊆ L ⊆ Z^k are enumerated as canonical row HNFs:
    row i is (0, ..., 0, d_i, a_i,i+1, ..., a_i,k-1) with d_i | m_i and each
    a_i,c in [0, d_c). Rows are chosen from the bottom up, and a partial
    basis is kept only if m_i·e_i lies in the span of its rows i..k-1; rows
    added later have their pivots left of column i, so they cannot change
    that test.
    """
    if parent.order > SUBGROUP_ORDER_LIMIT:
        raise ValueError("group too large for exhaustive subgroup enumeration")
    ms, k = parent.invariant_factors, parent.k
    partial: list[tuple[tuple[int, ...], ...]] = [()]
    for i in reversed(range(k)):
        m = ms[i]
        m_e_i = [m if j == i else 0 for j in range(k)]
        grown = []
        for rows in partial:
            boxes = [range(r[c]) for c, r in enumerate(rows, i + 1)]
            for d in (d for d in range(1, m + 1) if m % d == 0):
                for tail in itertools.product(*boxes):
                    basis = ((0,) * i + (d,) + tail,) + rows
                    if member(m_e_i, Lattice(k, basis)):
                        grown.append(basis)
        partial = grown
    subs = [FAGSubgroup._canonical(parent, Lattice(k, basis)) for basis in partial]
    return sorted(subs, key=lambda s: (s.order, s.lift.basis))


# ---------------------------------------------------------------------------
# Pruefer subgroups

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13: no composite below it is a strong probable prime to every base in
# _SMALL_PRIMES (Sorenson and Webster, Math. Comp. 86, 2017)
PRIME_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Trial division by _SMALL_PRIMES, then a strong probable-prime test to
    each of them as base: exact below PRIME_LIMIT, past which an n that no
    small prime divides is refused."""
    if n < 2 or any(n % q == 0 for q in _SMALL_PRIMES):
        return n in _SMALL_PRIMES
    if n >= PRIME_LIMIT:
        raise ValueError(f"primality is decided only below PRIME_LIMIT = {PRIME_LIMIT}")
    s = ((n - 1) & -(n - 1)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    return all(x == 1 or n - 1 in (pow(x, 1 << r, n) for r in range(s))
               for x in (pow(a, (n - 1) >> s, n) for a in _SMALL_PRIMES))


@value_class
class PruferSubgroup:
    """A subgroup of the Pruefer p-group: the chain member of order p^level,
    or the whole group when level is None."""

    prime: int
    level: Optional[int]

    def __post_init__(self) -> None:
        if not _is_prime(self.prime):
            raise ValueError("prime required")
        if self.level is not None and self.level < 0:
            raise ValueError("level must be >= 0")

    @property
    def is_whole(self) -> bool:
        return self.level is None


PRUFER_DISTANCE_DIGITS = 4300  # as many as Python converts int -> str by default
_PRUFER_DISTANCE_CAP = 10 ** PRUFER_DISTANCE_DIGITS


def prufer_log_distance(a: PruferSubgroup, b: PruferSubgroup) -> ExtNat:
    """p^|i-j| between finite levels; infinity between the whole group and
    any finite level. The finite chain is isometric to (log p)·N."""
    if a.prime != b.prime:
        raise ValueError("different primes")
    if a.is_whole and b.is_whole:
        return ExtNat.finite(1)
    if a.is_whole or b.is_whole:
        return INFINITE
    gap = abs(a.level - b.level)
    # p^gap >= 2^(gap * (bits(p) - 1)), so a long gap is refused unpowered
    if (gap * (a.prime.bit_length() - 1) >= _PRUFER_DISTANCE_CAP.bit_length()
            or (mu := a.prime ** gap) >= _PRUFER_DISTANCE_CAP):
        raise ValueError(f"Pruefer distance p^|i-j| has more than {PRUFER_DISTANCE_DIGITS} "
                         f"digits; PRUFER_DISTANCE_DIGITS allows at most {PRUFER_DISTANCE_DIGITS}")
    return ExtNat.finite(mu)


# ---------------------------------------------------------------------------
# symbolic cardinals and group descriptors


@value_class
class CardinalToken:
    """0, 1, 2, ..., omega, or 2^kappa, symbolically.

    Comparisons are defined only where the classifiers need them; anything
    that would require GCH is flagged by callers instead of silently decided.
    """

    kind: str  # "finite" | "omega" | "power"
    n: int = 0
    base: Optional["CardinalToken"] = None

    def __post_init__(self) -> None:
        if self.kind not in ("finite", "omega", "power"):
            raise ValueError("bad cardinal kind")
        if self.kind == "finite" and (type(self.n) is not int or self.n < 0):
            raise ValueError(f"finite cardinal must be an integer >= 0: {self.n!r}")
        if self.kind == "power" and self.base is None:
            raise ValueError("power cardinal needs a base")

    @classmethod
    def finite(cls, n: int) -> "CardinalToken":
        return cls("finite", n)

    @classmethod
    def omega(cls) -> "CardinalToken":
        return cls("omega")

    @classmethod
    def two_to_the(cls, base: "CardinalToken") -> "CardinalToken":
        return cls("power", base=base)

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    @property
    def is_zero(self) -> bool:
        return self.kind == "finite" and self.n == 0

    def to_json(self):
        if self.kind == "finite":
            return self.n
        if self.kind == "omega":
            return "omega"
        return {"two_to_the": self.base.to_json()}

    @classmethod
    def from_json(cls, data) -> "CardinalToken":
        if isinstance(data, int):
            return cls.finite(data)
        if data == "omega":
            return cls.omega()
        if isinstance(data, dict) and "two_to_the" in data:
            return cls.two_to_the(cls.from_json(data["two_to_the"]))
        raise ValueError(f"bad cardinal token: {data!r}")

    def __str__(self) -> str:
        if self.kind == "finite":
            return str(self.n)
        if self.kind == "omega":
            return "omega"
        return f"2^{self.base}"


ZERO = CardinalToken.finite(0)
OMEGA = CardinalToken.omega()


@value_class
class ReducedTorsionPart:
    """The reduced p-torsion part of a group: a finite group of known order,
    an infinite group whose n-torsion layers are all finite, or one with an
    infinite layer."""

    kind: str  # "finite" | "layerly_finite" | "not_layerly_finite"
    order: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("finite", "layerly_finite", "not_layerly_finite"):
            raise ValueError("bad reduced torsion kind")
        if self.kind == "finite" and (type(self.order) is not int or self.order < 1):
            raise ValueError(
                f"finite reduced part needs an integer order >= 1: {self.order!r}")

    def to_json(self) -> dict:
        if self.kind == "finite":
            return {"kind": "finite", "order": self.order}
        return {"kind": self.kind}

    @classmethod
    def from_json(cls, data: dict) -> "ReducedTorsionPart":
        data = _json_object(data, "reduced torsion part")
        return cls(data.get("kind"), data.get("order"))


@value_class
class GroupDescriptor:
    """Structure of an abelian group G: reduced free rank, the divisible part
    d(G) (rationals multiplicity plus Pruefer multiplicities per prime), and
    the reduced torsion parts per prime."""

    free_rank: CardinalToken = ZERO
    q_rank: CardinalToken = ZERO
    prufer: tuple[tuple[int, CardinalToken], ...] = ()
    reduced_torsion: tuple[tuple[int, ReducedTorsionPart], ...] = ()

    def __post_init__(self) -> None:
        if any(mult.is_zero for _, mult in self.prufer):
            raise ValueError("Pruefer multiplicities must be nonzero")
        for what, parts in (("Pruefer", self.prufer),
                            ("reduced torsion", self.reduced_torsion)):
            primes = [p for p, _ in parts]
            if not all(map(_is_prime, primes)):
                raise ValueError(f"{what} primes must be prime")
            if any(p >= q for p, q in zip(primes, primes[1:])):
                raise ValueError(f"{what} primes must be strictly increasing")

    # -- structural predicates -------------------------------------------

    @property
    def is_torsion(self) -> bool:
        return self.free_rank.is_zero and self.q_rank.is_zero

    @property
    def torsion_inside_divisible(self) -> bool:
        """t(G) ⊆ d(G), i.e. the reduced part is torsion-free."""
        return not self.reduced_torsion

    def to_json(self) -> dict:
        return {
            "free_rank": self.free_rank.to_json(),
            "divisible": {
                "q_rank": self.q_rank.to_json(),
                "prufer": {str(p): m.to_json() for p, m in self.prufer},
            },
            "reduced_torsion": {str(p): part.to_json()
                                for p, part in self.reduced_torsion},
        }

    @classmethod
    def from_json(cls, data: dict) -> "GroupDescriptor":
        data = _json_object(data, "group descriptor")
        div = _json_object(data.get("divisible", {}), "divisible")

        def by_prime(obj, what: str, parse) -> tuple:
            # sorted by prime alone, so __post_init__ refuses a repeated prime
            pairs = ((int(p), parse(v)) for p, v in _json_object(obj, what).items())
            return tuple(sorted(pairs, key=operator.itemgetter(0)))

        return cls(
            free_rank=CardinalToken.from_json(data.get("free_rank", 0)),
            q_rank=CardinalToken.from_json(div.get("q_rank", 0)),
            prufer=by_prime(div.get("prufer", {}), "prufer", CardinalToken.from_json),
            reduced_torsion=by_prime(data.get("reduced_torsion", {}), "reduced_torsion",
                                     ReducedTorsionPart.from_json),
        )


def _json_object(data, what: str) -> dict:
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {data!r}")
    return data


# convenience builders ------------------------------------------------------

def descriptor_free(rank: int = 1) -> GroupDescriptor:
    """Z^rank."""
    return GroupDescriptor(free_rank=CardinalToken.finite(rank))


def descriptor_rationals(rank: CardinalToken | int = 1) -> GroupDescriptor:
    """Q^(rank)."""
    tok = rank if isinstance(rank, CardinalToken) else CardinalToken.finite(rank)
    return GroupDescriptor(q_rank=tok)


def descriptor_prufer_sum(mults: dict[int, CardinalToken | int]) -> GroupDescriptor:
    """⊕_p (Pruefer p-group)^(mult_p)."""
    prufer = tuple(sorted(
        (p, m if isinstance(m, CardinalToken) else CardinalToken.finite(m))
        for p, m in mults.items()))
    return GroupDescriptor(prufer=prufer)


def descriptor_finite_sylow(orders: dict[int, int]) -> GroupDescriptor:
    """A torsion group with finite Sylow p-subgroups of the given orders."""
    reduced = tuple(sorted(
        (p, ReducedTorsionPart("finite", order=o)) for p, o in orders.items()))
    return GroupDescriptor(reduced_torsion=reduced)


# ---------------------------------------------------------------------------
# classification


@value_class
class IsoPointsReport:
    """How many isolated subgroups a group has, and why."""

    size: CardinalToken
    witness: str


def iso_points_classify(d: GroupDescriptor) -> IsoPointsReport:
    """Size of the set of isolated subgroups, from the descriptor.

    Isolated points exist iff the reduced part is torsion-free (the torsion
    subgroup sits inside the divisible part); their number is then determined
    by the free rank of the divisible part.
    """
    if not d.torsion_inside_divisible:
        return IsoPointsReport(ZERO, "no isolated subgroups: reduced part has torsion")
    r = d.q_rank  # r0, the free rank of the maximal divisible subgroup
    if r.is_zero:
        return IsoPointsReport(CardinalToken.finite(1),
                               "only the maximal divisible subgroup is isolated")
    if r.is_finite and r.n == 1:
        return IsoPointsReport(CardinalToken.finite(2),
                               "the maximal divisible subgroup and its torsion part")
    if r.is_finite:
        return IsoPointsReport(OMEGA,
                               "countably many divisible subgroups with torsion-free complement")
    return IsoPointsReport(CardinalToken.two_to_the(r),
                           "a divisible subgroup per subspace of the rational part")


@value_class
class AsdimReport:
    """Honest output lattice of the asymptotic-dimension classifier."""

    kind: str  # "zero" | "finite" | "infinite" | "unknown"
    n: Optional[int] = None           # for kind == "finite"
    lower_bound: Optional[int] = None  # for kind == "unknown"

    def __post_init__(self) -> None:
        if self.kind not in ("zero", "finite", "infinite", "unknown"):
            raise ValueError("bad asdim kind")
        if self.kind == "finite" and (self.n is None or self.n < 0):
            raise ValueError("finite asdim needs n >= 0")
        if self.kind == "unknown" and (self.lower_bound is None or self.lower_bound < 0):
            raise ValueError("unknown asdim must carry a proven lower bound")

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.n is not None:
            out["n"] = self.n
        if self.lower_bound is not None:
            out["lower_bound"] = self.lower_bound
        return out


def asdim_classify(d: GroupDescriptor) -> AsdimReport:
    """Classify the asymptotic dimension of the logarithmic subgroup space.

    A finite answer forces the group to be torsion with all p-torsion layers
    finite; dimension zero is exactly "torsion with every Sylow subgroup
    finite"; a sum of Pruefer groups over n distinct primes plus a finite
    group has dimension n. A repeated Pruefer prime is an open problem, so the
    classifier reports only the proven lower bound instead of guessing.
    """
    if not d.is_torsion:
        return AsdimReport("infinite")
    for _, mult in d.prufer:
        if not mult.is_finite:
            return AsdimReport("infinite")
    for _, part in d.reduced_torsion:
        if part.kind == "not_layerly_finite":
            return AsdimReport("infinite")
    total_prufer = sum(m.n for _, m in d.prufer)
    n_primes = len(d.prufer)
    if total_prufer > n_primes:
        # some prime repeated: only the N^total lower bound is proven
        return AsdimReport("unknown", lower_bound=total_prufer)
    if any(part.kind == "layerly_finite" for _, part in d.reduced_torsion):
        # an infinite Sylow subgroup rules out dimension 0 but no exact value
        # is available for this shape
        return AsdimReport("unknown", lower_bound=max(1, n_primes))
    if n_primes:
        return AsdimReport("finite", n=n_primes)
    return AsdimReport("zero")


# ---------------------------------------------------------------------------
# connected-component census


@value_class
class ComponentCensus:
    """How many connected components a family's ballean has, and which."""

    family: str
    count: CardinalToken
    detail: str
    components: tuple[str, ...] = ()

    def to_json(self) -> dict:
        out = {"family": self.family, "count": self.count.to_json(),
               "detail": self.detail}
        if self.components:
            out["components"] = list(self.components)
        return out


def component_census(family: str, *, n: Optional[int] = None,
                     prime: Optional[int] = None,
                     group_cardinality: Optional[CardinalToken] = None) -> ComponentCensus:
    """Connected-component counts for the families with a known closed form."""
    if family == "Z^n":
        if n is None or n < 1:
            raise ValueError("Z^n census needs n >= 1")
        if n == 1:
            return ComponentCensus(
                "Z^n", CardinalToken.finite(2),
                "two components: the singleton {0} and all finite-index subgroups",
                ("{{0}}", "all subgroups of finite index"))
        return ComponentCensus(
            "Z^n", OMEGA,
            "countably many components, one per saturation class",
            ("{{0}}", "full-rank subgroups", "countably many per rank 0 < k < n"))
    if family == "prufer":
        if prime is None or not _is_prime(prime):
            raise ValueError("prufer census needs a prime")
        return ComponentCensus(
            "prufer", CardinalToken.finite(2),
            "two components: the singleton {G} and the chain of finite subgroups",
            ("{G}", "the finite chain"))
    if family == "finite_abelian":
        return ComponentCensus("finite_abelian", CardinalToken.finite(1),
                               "bounded, hence a single component")
    if family == "exp_finitary":
        if group_cardinality is None or group_cardinality.is_finite:
            raise ValueError("exp_finitary census needs an infinite cardinality")
        return ComponentCensus(
            "exp_finitary", CardinalToken.two_to_the(group_cardinality),
            "2^|G| components for the hyperspace of an infinite group")
    raise ValueError("no closed form implemented")
