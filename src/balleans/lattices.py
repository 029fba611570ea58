"""Subgroups of Z^n as canonical lattices.

A subgroup of Z^n is held as its unique row-HNF basis, so equality of
subgroups is equality of values. Distances between commensurable subgroups are
carried as the exact integer mu' = max(|A : A∩B|, |B : A∩B|); logarithms are
applied only at display time, with a configurable base.
"""

from __future__ import annotations

import math
from functools import total_ordering
from typing import Optional, Sequence, Union

from . import exactmat
from ._values import value_class


@total_ordering
@value_class
class ExtNat:
    """An element of {1, 2, 3, ...} ∪ {∞}; `value` is None for infinity."""

    value: Optional[int] = None

    def __post_init__(self) -> None:
        if self.value is not None and self.value < 1:
            raise ValueError("finite ExtNat values must be >= 1")

    @classmethod
    def finite(cls, n: int) -> "ExtNat":
        return cls(n)

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def _key(self) -> tuple[int, int]:
        return (0, self.value) if self.value is not None else (1, 0)

    def __lt__(self, other: "ExtNat") -> bool:
        return self._key() < other._key()

    def __mul__(self, other: "ExtNat") -> "ExtNat":
        if self.value is None or other.value is None:
            return ExtNat(None)
        return ExtNat(self.value * other.value)

    def log(self, base: float = math.e) -> float:
        if not 1 < base < math.inf:
            raise ValueError("logarithm base must be a finite number > 1")
        if self.value is None:
            return math.inf
        return math.log(self.value) / math.log(base)

    def to_json(self) -> Union[int, str]:
        return self.value if self.value is not None else "inf"

    @classmethod
    def from_json(cls, data: Union[int, str]) -> "ExtNat":
        if data == "inf":
            return cls(None)
        if type(data) is not int:
            raise ValueError(f"ExtNat value must be an integer or 'inf': {data!r}")
        return cls(data)


INFINITE = ExtNat(None)


@value_class
class Lattice:
    """A subgroup of Z^ambient with `basis` in canonical row HNF.

    Rank 0 (empty basis) is the trivial subgroup {0}, a first-class value.
    Construct through lattice_from_generators unless the rows are already
    known to be canonical.
    """

    ambient: int
    basis: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    def to_json(self) -> dict:
        return {"ambient": self.ambient, "basis": [list(r) for r in self.basis]}

    @classmethod
    def from_json(cls, data: dict) -> "Lattice":
        rows = data.get("basis") if isinstance(data, dict) else None
        if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)
                and "ambient" in data):
            raise ValueError(f"a lattice needs an ambient and a list of rows: {data!r}")
        return lattice_from_generators(data["ambient"], data["basis"])


def lattice_from_generators(ambient: int, gens: Sequence[Sequence[int]]) -> Lattice:
    """Canonical lattice whose point set is the integer row span of gens."""
    if type(ambient) is not int:
        raise ValueError(f"ambient dimension must be an integer: {ambient!r}")
    if ambient < 0:
        raise ValueError("ambient dimension must be >= 0")
    rows = [list(r) for r in gens]
    if any(len(r) != ambient for r in rows):
        raise ValueError("generator length does not match ambient dimension")
    h = exactmat._finish(exactmat._extend([], exactmat._check_integers(rows)))
    return Lattice(ambient, tuple(map(tuple, h)))


def full_lattice(ambient: int) -> Lattice:
    """Z^ambient itself."""
    eye = [[int(i == j) for j in range(ambient)] for i in range(ambient)]
    return Lattice(ambient, tuple(tuple(r) for r in eye))


def trivial_lattice(ambient: int) -> Lattice:
    return Lattice(ambient, ())


def member(x: Sequence[int], lat: Lattice) -> bool:
    """Is x an integer combination of the basis rows?

    `lat.basis` is canonical row HNF, so x reduces against it directly, with
    no echelon pass: each pivot must divide the coordinate it meets, and the
    residue must end at zero.
    """
    if len(x) != lat.ambient:
        raise ValueError("vector length does not match ambient dimension")
    r = list(x)
    for row in lat.basis:
        c = next(j for j, v in enumerate(row) if v)
        q, rem = divmod(r[c], row[c])
        if rem:
            return False
        if q:
            r = [v - q * u for v, u in zip(r, row)]
    return not any(r)


def lattice_sum(a: Lattice, b: Lattice) -> Lattice:
    """A + B: A's canonical basis extended by B's rows."""
    _check_same_ambient(a, b)
    h = exactmat._finish(exactmat._extend(list(a.basis), b.basis))
    return Lattice(a.ambient, tuple(map(tuple, h)))


def lattice_intersection(a: Lattice, b: Lattice) -> Lattice:
    """A ∩ B: the rows [x | x] (x in A), already a reduced HNF with A's
    pivots, extended by the rows [y | 0] (y in B).

    Their row span is {(x + y, x) : x in A, y in B}, and its part that is
    zero on the first n columns is {(0, x) : x in A ∩ B} (Zassenhaus). So the
    HNF rows zero there, cut at column n, are the canonical basis of A ∩ B.
    """
    _check_same_ambient(a, b)
    n = a.ambient
    h = exactmat._extend([x + x for x in a.basis], [y + (0,) * n for y in b.basis])
    return Lattice(n, tuple(map(tuple, exactmat._zero_part(h, n))))


def index_in(a: Lattice, b: Lattice) -> ExtNat:
    """The index |B : A| for A a subgroup of B.

    Raises unless A's rows reduce to zero against B's canonical row-HNF
    basis. Finite iff the ranks agree; then A and B share their pivot
    columns, on which both bases are triangular, so |B : A| = P(A) / P(B)
    (Cohen, GTM 138, §2.4).
    """
    _check_same_ambient(a, b)
    if not all(member(row, b) for row in a.basis):
        raise ValueError("not a subgroup")
    if a.rank < b.rank:
        return INFINITE
    return ExtNat.finite(pivot_product(a) // pivot_product(b))


def saturation(h: Lattice) -> Lattice:
    """The pure closure sat(H) = {x in Z^n : m*x in H for some m != 0}.

    sat(H) = Z^n ∩ Q·H is the left kernel of any integer matrix whose
    columns span ker_Q(B), B the basis, and integer kernels are pure. The
    columns come by fraction-free back-substitution on B, one per non-pivot
    column f: e_f, scaled as each row above f, bottom up, solves for its pivot.
    """
    n = h.ambient
    if h.rank == n:
        return full_lattice(n)
    cols = exactmat._pivots(h.basis)
    kernel = []
    for f in sorted(set(range(n)).difference(cols)):
        y = [int(j == f) for j in range(n)]
        for c, row in zip(reversed(cols), reversed(h.basis)):
            if c < f:
                s = sum(a * b for a, b in zip(row, y))
                g = math.gcd(s, row[c])
                if g != row[c]:
                    y = [v * (row[c] // g) for v in y]
                y[c] = -s // g
        kernel.append(y)
    return Lattice(n, tuple(map(tuple, exactmat.left_kernel(list(zip(*kernel))))))


def commensurable(a: Lattice, b: Lattice) -> bool:
    """Both indices |A : A∩B| and |B : A∩B| finite: mu'(A, B) < ∞."""
    return log_subgroup_distance(a, b).is_finite


def log_subgroup_distance(a: Lattice, b: Lattice) -> ExtNat:
    """mu' = max(|A : A∩B|, |B : A∩B|); infinity iff not commensurable.

    By the second isomorphism theorem A/(A∩B) ≅ (A+B)/B, so the indices are
    |A+B : B| and |A+B : A|: with all ranks equal, mu' = max(P(A), P(B)) /
    P(A+B), P(A+B) read off A's basis extended by B's rows: an echelon
    basis has the HNF's pivots, up to sign (Cohen, GTM 138, §2.4).

    The displayed distance is log(mu') in any base > 1; bases differ only by
    a bounded rescaling, so the exact integer is the authoritative value.
    """
    _check_same_ambient(a, b)
    if a.rank != b.rank:  # no echelon basis of A + B needed
        return INFINITE
    s = exactmat._extend(list(a.basis), b.basis)
    if len(s) != a.rank:
        return INFINITE
    return ExtNat.finite(max(pivot_product(a), pivot_product(b))
                         // math.prod(next(filter(None, row)) for row in s))


def pivot_product(lat: Lattice) -> int:
    """P(L): the product of the pivots (each row's first nonzero entry) of
    L's canonical row-HNF basis. At full rank P(L) = |Z^n : L|."""
    return math.prod(next(filter(None, row)) for row in lat.basis)


def _check_same_ambient(a: Lattice, b: Lattice) -> None:
    if a.ambient != b.ambient:
        raise ValueError("ambient dimensions differ")
