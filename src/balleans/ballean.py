"""Generic ballean machinery on explicit finite instances.

An explicit ballean stores its ball table outright, so the three axioms
(containment, symmetry, upper multiplicativity) are directly checkable and
every derived construction — products, coproducts, cellularization, the
exp-hyperballean — is a finite table transformation. Finite subsets of
concrete abelian groups get the group-ball operations and the exact mu set
metric on top.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping, Optional, Sequence, Union

from ._values import value_class
from .groups import FiniteAbelianGroup
from .lattices import ExtNat

Point = Hashable
Radius = Hashable

EXP_SUPPORT_LIMIT = 12
LZ_ENUMERATION_LIMIT = 10 ** 6
PRODUCT_SIZE_LIMIT = 4096  # cells, points x radii, of a product or coproduct table
ZERO_ONE = bytes.maketrans(b"01", b"\0\1")  # '0'/'1' digits to falsy/truthy bytes


@value_class
class ExplicitBallean:
    """A finite ballean given by its full ball table.

    Construction refuses any table that is not a ball structure (a repeated
    point or radius, keys other than support x radii, a ball leaving the
    support), so the readers need no check of their own; from_table fills
    the balls it is not given with {x}. Axiom checking is the separate
    validate_ballean so that deliberately broken instances can be built
    and reported on.
    """

    support: tuple[Point, ...]
    radii: tuple[Radius, ...]
    balls: Mapping[tuple[Point, Radius], frozenset]  # held read-only, so the check holds

    def __post_init__(self) -> None:  # the mask view indexes points by position
        for kind, items in (("point", self.support), ("radius", self.radii)):
            if len(set(items)) < len(items):
                rep = next(v for i, v in enumerate(items) if v in items[:i])
                raise ValueError(f"repeated {kind}: {rep!r}")
        balls, points = dict(self.balls), frozenset(self.support)
        if balls.keys() != set(itertools.product(self.support, self.radii)) or not all(
                map(points.issuperset, balls.values())):
            raise ValueError("unknown point or radius")
        object.__setattr__(self, "balls", MappingProxyType(balls))

    def __hash__(self) -> int:  # a read-only view does not hash; equal tables share these
        return hash((self.support, self.radii))

    def __reduce__(self):  # a read-only view does not pickle; rebuild through the check
        return type(self), (self.support, self.radii, dict(self.balls))

    @classmethod
    def _canonical(cls, support: tuple, radii: tuple, balls: dict) -> "ExplicitBallean":
        """A table derived from ball structures, built without the check."""
        b = object.__new__(cls)
        b.__dict__.update(support=support, radii=radii, balls=MappingProxyType(balls))
        return b

    @classmethod
    def from_table(cls, support: Iterable[Point], radii: Iterable[Radius],
                   balls: dict) -> "ExplicitBallean":
        sup, rad = tuple(support), tuple(radii)
        table = {(x, a): frozenset({x}) for x in sup for a in rad}
        table.update((k, frozenset(v)) for k, v in balls.items())
        return cls(sup, rad, table)

    def ball(self, x: Point, a: Radius) -> frozenset:
        try:
            return self.balls[(x, a)]
        except KeyError:
            raise ValueError("unknown point or radius") from None

    def set_ball(self, points: Iterable[Point], a: Radius) -> frozenset:
        out = set()
        for x in points:
            out |= self.ball(x, a)
        return frozenset(out)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        """Points and radii through a typed codec, so tuple and frozenset
        identifiers come back as they went in; each ball is one
        [point, radius, members] entry, in support and then radius order.
        A ball object shared by several keys, as in derived tables, is
        encoded once."""
        encoded: dict[int, list] = {}

        def members(ball: frozenset) -> list:
            if id(ball) not in encoded:
                encoded[id(ball)] = _encode_set(ball)
            return encoded[id(ball)]

        return {
            "support": [_encode_id(x) for x in self.support],
            "radii": [_encode_id(a) for a in self.radii],
            "balls": [[_encode_id(x), _encode_id(a), members(self.balls[(x, a)])]
                      for x in self.support for a in self.radii],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ExplicitBallean":
        if not isinstance(data, dict) or not all(
                isinstance(data.get(k), list) for k in ("support", "radii", "balls")):
            raise ValueError("a ballean needs the lists support, radii and balls")
        sup = [_decode_id(x) for x in data["support"]]
        rad = [_decode_id(a) for a in data["radii"]]
        table = {}
        for entry in data["balls"]:
            if not (isinstance(entry, list) and len(entry) == 3
                    and isinstance(entry[2], list)):
                raise ValueError(f"bad ball entry: {entry!r}")
            key = (_decode_id(entry[0]), _decode_id(entry[1]))
            if key in table:
                raise ValueError(f"repeated ball entry: {key!r}")
            table[key] = frozenset(_decode_id(m) for m in entry[2])
        b = cls.from_table(sup, rad, table)
        report = validate_ballean(b)
        if not report.ok:
            raise ValueError(f"invalid ballean: {report.describe()}")
        return b


# Identifier codec: int, str and None stand for themselves; a tuple is
# {"tuple": [...]} and a frozenset {"frozenset": [...]}, members sorted.


def _encode_id(x):
    if x is None or isinstance(x, str) or (isinstance(x, int)
                                          and not isinstance(x, bool)):
        return x
    if isinstance(x, tuple):
        return {"tuple": [_encode_id(v) for v in x]}
    if isinstance(x, frozenset):
        return {"frozenset": _encode_set(x)}
    raise ValueError(f"cannot serialize identifier {x!r}")


def _encode_set(xs) -> list:
    return sorted((_encode_id(x) for x in xs), key=_id_order)


def _id_order(e):
    if isinstance(e, int):
        return (0, e, "")
    return (1, 0, json.dumps(e, sort_keys=True))


def _decode_id(e):
    if e is None or isinstance(e, str) or (isinstance(e, int)
                                          and not isinstance(e, bool)):
        return e
    if isinstance(e, dict) and len(e) == 1:
        (kind, items), = e.items()
        if kind == "tuple" and isinstance(items, list):
            return tuple(_decode_id(v) for v in items)
        if kind == "frozenset" and isinstance(items, list):
            return frozenset(_decode_id(v) for v in items)
    raise ValueError(f"bad identifier: {e!r}")


def discrete_ballean(support: Iterable[Point],
                     radii: Iterable[Radius] = ("*",)) -> ExplicitBallean:
    sup = tuple(support)
    return ExplicitBallean.from_table(sup, radii, {})


def bounded_ballean(support: Iterable[Point],
                    radii: Iterable[Radius] = ("*",)) -> ExplicitBallean:
    sup, rad = tuple(support), tuple(radii)
    everything = frozenset(sup)
    table = {(x, a): everything for x in sup for a in rad}
    return ExplicitBallean.from_table(sup, rad, table)


# ---------------------------------------------------------------------------
# axioms


@value_class
class BalleanValidation:
    """The outcome of validate_ballean: ok, or the first axiom violation found."""

    ok: bool
    containment_violation: Optional[tuple] = None      # (x, radius)
    symmetry_violation: Optional[tuple] = None         # (x, y, radius)
    multiplicativity_violation: Optional[tuple] = None  # (radius, radius, x)

    def describe(self) -> str:
        if self.ok:
            return "valid"
        if self.containment_violation:
            x, a = self.containment_violation
            return f"containment fails: {x!r} not in its own ball at {a!r}"
        if self.symmetry_violation:
            x, y, a = self.symmetry_violation
            return f"symmetry fails between {x!r} and {y!r} at {a!r}"
        a, b, x = self.multiplicativity_violation
        return (f"no radius contains the composed ball at {x!r} "
                f"for radii {a!r}, {b!r}")

    def to_json(self) -> dict:
        out: dict = {"ok": self.ok}
        if not self.ok:
            out["violation"] = self.describe()
        return out


def _ball_masks(b: ExplicitBallean) -> list[list[int]]:
    """Per radius a, the rows of the table over the (distinct) support
    positions: rows[j] is B(x_j, a)."""
    bit = {x: 1 << i for i, x in enumerate(b.support)}
    return [[sum(map(bit.__getitem__, b.balls[(x, a)])) for x in b.support]
            for a in b.radii]


def _transpose(rows: list[int]) -> list[int]:
    """inv[i], the mask of the j with bit i set in rows[j]: column i of the
    rows written as binary digits, last row first, read back as one int."""
    width = f"0{len(rows)}b"
    columns = zip(*(format(r, width) for r in reversed(rows)))
    return [int("".join(c), 2) for c in columns][::-1]


def _union(rows: list[int], m: int) -> int:
    """The OR of rows[i] over the bits i of m."""
    u = 0
    while m:
        low = m & -m
        u |= rows[low.bit_length() - 1]
        m ^= low
    return u


class _MaskSets(dict):
    """mask -> frozenset of the points at its bits, built on first lookup."""

    def __init__(self, points: Sequence):  # empty, as dict.__new__ leaves it
        self.by_bit, self.width = points[::-1], f"0{len(points)}b"

    def __missing__(self, m: int) -> frozenset:
        flags = format(m, self.width).encode().translate(ZERO_ONE)
        s = self[m] = frozenset(itertools.compress(self.by_bit, flags))
        return s


def validate_ballean(b: ExplicitBallean) -> BalleanValidation:
    """Check containment, symmetry, and witnessed upper multiplicativity.

    Multiplicativity demands, for each radius pair (a, b), a single radius g
    with B(B(x,a),b) subset of B(x,g) simultaneously for every x. The first
    violation is reported: containment in support and then radius order,
    symmetry in radius and then support order, with y the first point of
    the support in B(x, a) whose ball misses x.
    """
    views = _ball_masks(b)
    for j, x in enumerate(b.support):
        for a, rows in zip(b.radii, views):
            if not rows[j] >> j & 1:
                return BalleanValidation(False, containment_violation=(x, a))
    for a, rows in zip(b.radii, views):
        for x, r, t in zip(b.support, rows, _transpose(rows)):
            if d := r & ~t:
                y = b.support[(d & -d).bit_length() - 1]
                return BalleanValidation(False, symmetry_violation=(x, y, a))
    for a, rows_a in zip(b.radii, views):
        for c, rows_c in zip(b.radii, views):
            union = {r: _union(rows_c, r) for r in set(rows_a)}
            composed = [union[r] for r in rows_a]
            if not any(all(not u & ~g for u, g in zip(composed, rows_g))
                       for rows_g in views):
                worst = max(zip(composed, b.support), key=lambda t: t[0].bit_count())[1]
                return BalleanValidation(
                    False, multiplicativity_violation=(a, c, worst))
    return BalleanValidation(True)


def ball_iterate(b: ExplicitBallean, x: Point, a: Radius, n: int) -> frozenset:
    """The n-fold composition B(B(...B(x,a)...,a),a)."""
    if n < 0:
        raise ValueError("iteration count must be >= 0")
    b.ball(x, a)  # refuses an unknown point or radius, even at n = 0
    cur = frozenset({x})
    for _ in range(n):
        cur = b.set_ball(cur, a)
    return cur


def _closures(rows: list[int]) -> list[int]:
    """{j} and every position reached from j through the rows: Warshall's
    transitive closure on bitset rows (J. ACM 9, 1962)."""
    reach = list(rows)
    for k, rk in enumerate(reach):  # rk already holds rows 0..k-1's updates
        for i, ri in enumerate(reach):
            if ri >> k & 1:
                reach[i] = ri | rk
    return [r | 1 << j for j, r in enumerate(reach)]


def cellularization(b: ExplicitBallean) -> ExplicitBallean:
    """Replace each ball with its transitive closure; idempotent."""
    members = _MaskSets(b.support)
    table = {(x, a): members[m] for a, rows in zip(b.radii, _ball_masks(b))
             for x, m in zip(b.support, _closures(rows))}
    return ExplicitBallean._canonical(b.support, b.radii, table)


def is_cellular(b: ExplicitBallean) -> bool:
    return all(_closures(rows) == rows for rows in _ball_masks(b))


def connected_components(b: ExplicitBallean) -> list[frozenset]:
    """Partition of the support under reachability through any ball: each
    point not yet seen, in support order, starts one component."""
    adj = [0] * len(b.support)
    for rows in _ball_masks(b):
        adj = [u | r for u, r in zip(adj, rows)]
    members = _MaskSets(b.support)
    seen, out = 0, []
    for j, comp in enumerate(_closures(adj)):
        if not seen >> j & 1:
            seen |= comp
            out.append(members[comp])
    return out


# ---------------------------------------------------------------------------
# products, coproducts, exp


def product_ballean(bs: Sequence[ExplicitBallean]) -> ExplicitBallean:
    """Pointwise product: tuple points, tuple radii, cartesian balls."""
    if not bs:
        raise ValueError("product of an empty list")
    cells = math.prod(len(b.support) for b in bs) * math.prod(len(b.radii) for b in bs)
    if cells > PRODUCT_SIZE_LIMIT:
        raise ValueError(f"product table has {cells} cells; at most {PRODUCT_SIZE_LIMIT}")
    support = list(itertools.product(*(b.support for b in bs)))
    radii = list(itertools.product(*(b.radii for b in bs)))
    table = {}
    for xs in support:
        for rs in radii:
            factors = [b.ball(x, a) for b, x, a in zip(bs, xs, rs)]
            table[(xs, rs)] = frozenset(itertools.product(*factors))
    return ExplicitBallean._canonical(tuple(support), tuple(radii), table)


def coproduct_ballean(bs: Sequence[ExplicitBallean]) -> ExplicitBallean:
    """Disjoint union; a radius picks, per summand, a radius there or None.

    The ball of (i, x) is the injected summand ball when coordinate i of the
    radius is a radius of summand i, and the singleton {(i, x)} when it is
    None — the finite-support case split of the coproduct radii.
    """
    if not bs:
        raise ValueError("coproduct of an empty list")
    if any(None in b.radii for b in bs):
        raise ValueError("a coproduct summand may not have the radius None")
    cells = sum(len(b.support) for b in bs) * math.prod(len(b.radii) + 1 for b in bs)
    if cells > PRODUCT_SIZE_LIMIT:
        raise ValueError(f"coproduct table has {cells} cells; at most {PRODUCT_SIZE_LIMIT}")
    support = [(i, x) for i, b in enumerate(bs) for x in b.support]
    radii = list(itertools.product(*((None,) + tuple(b.radii) for b in bs)))
    table = {}
    for i, b in enumerate(bs):
        for x in b.support:
            for rs in radii:
                if rs[i] is None:
                    table[((i, x), rs)] = frozenset({(i, x)})
                else:
                    table[((i, x), rs)] = frozenset(
                        (i, y) for y in b.ball(x, rs[i]))
    return ExplicitBallean._canonical(tuple(support), tuple(radii), table)


def _exp_balls(rows: list[int], subsets: list[int]) -> tuple[list[int], list[int]]:
    """blown[m], the mask of B(m), and balls[m] = subsets[blown[m]] & covers[m],
    the bitset of exp B(m), per subset mask m. covers[Y] holds the Z meeting
    inv[i] = {j : i in B(x_j)} for each i in Y (Y inside B(Z)):
    covers[Y - low] & meets[i]."""
    full = len(subsets) - 1
    meets = [subsets[full] & ~subsets[full & ~v] for v in _transpose(rows)]
    blown, covers = [0] * (full + 1), [subsets[full]] * (full + 1)
    for m in range(1, full + 1):
        low = m & -m
        i = low.bit_length() - 1
        blown[m] = blown[m ^ low] | rows[i]
        covers[m] = covers[m ^ low] & meets[i]
    return blown, [subsets[u] & c for u, c in zip(blown, covers)]


def _exp_tables(b: ExplicitBallean) -> tuple[list[int], list[tuple]]:
    """subsets, where bit s of subsets[m] is set iff s <= m, and per radius
    (rows, blown, balls)."""
    n = len(b.support)
    if n > EXP_SUPPORT_LIMIT:
        raise ValueError(f"support has {n} points; exp enumeration allows "
                         f"at most {EXP_SUPPORT_LIMIT}")
    views, subsets = _ball_masks(b), [1] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        subsets[m] = subsets[m ^ low] | subsets[m ^ low] << low
    return subsets, [(rows, *_exp_balls(rows, subsets)) for rows in views]


def exp_hyperballean_of(b: ExplicitBallean) -> ExplicitBallean:
    """The hyperballean on all nonempty subsets: Z is within radius a of Y
    iff Z is inside B(Y,a) and Y is inside B(Z,a). Each ball is a bitset of
    _exp_tables over the subset masks, one frozenset per distinct ball."""
    _, radii = _exp_tables(b)
    n = len(b.support)
    masks = [sum(1 << i for i in c) for size in range(1, n + 1)
             for c in itertools.combinations(range(n), size)]
    subset_of = [frozenset()] * (1 << n)
    for m in range(1, 1 << n):  # the lowest-bit recurrence of _exp_tables
        subset_of[m] = subset_of[m & m - 1] | {b.support[(m & -m).bit_length() - 1]}
    members = _MaskSets(subset_of)  # a hit is one dict lookup, no Python call
    table = {(subset_of[y], a): members[balls[y]]
             for a, (_, _, balls) in zip(b.radii, radii) for y in masks}
    return ExplicitBallean._canonical(tuple(subset_of[m] for m in masks), b.radii, table)


def exp_power_inclusion_holds(b: ExplicitBallean, max_n: int = 4) -> bool:
    """Iterated hyperballean balls stay inside the iterated-base description:
    every Z reachable from Y in n exp-steps satisfies Z within B^n(Y) and Y
    within B^n(Z).

    On the bitsets of _exp_tables, reach[y] holds the subsets reached from
    y in n exp steps and rows[j] is B^n({j}); the test is that reach[y]
    lies in the exp ball of y in the table of B^n.
    """
    subsets, radii = _exp_tables(b)
    for rows, blown, exp in radii:
        image: dict = {}  # bitset X -> union of exp[z] over z in X
        reach = {m: 1 << m for m in range(1, len(subsets))}
        for _ in range(max_n):
            _, within = _exp_balls(rows, subsets)
            for y, x in reach.items():
                if x not in image:
                    image[x] = _union(exp, x)
                reach[y] = image[x]
                if image[x] & ~within[y]:
                    return False
            rows = [blown[r] for r in rows]  # B^(n+1)({j}) = B(B^n({j}))
    return True


# ---------------------------------------------------------------------------
# finite subsets of concrete groups


@value_class
class ZWindow:
    """The integers restricted to a working window [-half_width, half_width].

    Group-ball operations raise instead of silently truncating whenever a
    result could leave the window.
    """

    half_width: int
    zero = 0  # the identity, as FiniteAbelianGroup.zero (not a field)

    def __post_init__(self) -> None:
        if self.half_width < 0:
            raise ValueError("window half-width must be >= 0")

    def normalize(self, x: int) -> int:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError("window elements must be integers")
        if abs(x) > self.half_width:
            raise ValueError("element outside the working window")
        return x

    def add(self, a: int, b: int) -> int:
        c = a + b
        if abs(c) > self.half_width:
            raise ValueError("sum leaves the working window")
        return c

    def neg(self, a: int) -> int:
        return -a


Parent = Union[FiniteAbelianGroup, ZWindow]


@value_class
class FiniteSubset:
    """A nonempty finite subset of a finite abelian group or of a window
    of the integers; the points of the exp-hyperballean."""

    parent: Parent
    elements: frozenset

    def __post_init__(self) -> None:
        if not self.elements:
            raise ValueError("exp excludes the empty set")
        for e in self.elements:
            if self.parent.normalize(e) != e:
                raise ValueError(f"{e!r} is not in normal form in {self.parent}")

    @classmethod
    def of(cls, parent: Parent, elements: Iterable) -> "FiniteSubset":
        return cls(parent, frozenset(parent.normalize(e) for e in elements))

    def __len__(self) -> int:
        return len(self.elements)


def symmetrize_radius(parent: Parent, radius: Iterable) -> frozenset:
    """F becomes F ∪ -F ∪ {e}, the canonical group-ball radius."""
    out = {parent.zero}
    for g in radius:
        g = parent.normalize(g)
        out.add(g)
        out.add(parent.neg(g))
    return frozenset(out)


def group_ball(parent: Parent, x, radius_sym: frozenset) -> frozenset:
    """{x} ∪ (F + x) for symmetric-closed F containing the identity."""
    return frozenset(parent.add(g, x) for g in radius_sym)


def exp_ball_membership(z: FiniteSubset, y: FiniteSubset,
                        radius: Iterable) -> bool:
    """Z ∈ exp B(Y, F): mutual containment in each other's group ball."""
    if z.parent != y.parent:
        raise ValueError("subsets of different parents")
    f = symmetrize_radius(z.parent, radius)
    by = set().union(*(group_ball(y.parent, e, f) for e in y.elements))
    if not z.elements <= by:
        return False
    bz = set().union(*(group_ball(z.parent, e, f) for e in z.elements))
    return y.elements <= bz


def exp_ball_enumerate_centered_identity(parent: Parent,
                                         radius: Iterable) -> set[frozenset]:
    """All Z with Z ∈ exp B({e}, F): every nonempty subset of {e} ∪ F ∪ -F.

    Such a Z lies in B(e, F), and e = z + (-z) lies in B(Z, F) for any z in
    Z, as F ∪ -F is symmetric. A ball of more than EXP_SUPPORT_LIMIT points
    is refused. In a ZWindow the balls B(Z, F) reach 2·max|F|, so that sum
    is checked against the window."""
    f = symmetrize_radius(parent, radius)
    universe = sorted(f)  # = B(e, F)
    if len(universe) > EXP_SUPPORT_LIMIT:
        raise ValueError(f"radius ball has {len(universe)} points; exp "
                         f"enumeration allows at most {EXP_SUPPORT_LIMIT}")
    if isinstance(parent, ZWindow):
        parent.add(max(f), max(f))
    return {frozenset(combo) for size in range(1, len(universe) + 1)
            for combo in itertools.combinations(universe, size)}


def g_exp_ball(y: FiniteSubset, radius: Iterable) -> set[frozenset]:
    """{Y} ∪ {g + Y : g ∈ A}; the radius set is used as given, unsymmetrized."""
    out = {y.elements}
    for g in radius:
        g = y.parent.normalize(g)
        out.add(frozenset(y.parent.add(g, e) for e in y.elements))
    return out


# ---------------------------------------------------------------------------
# the exact mu set metric


def _undominated(masks: Iterable[int]) -> tuple[list[int], int]:
    """The masks that no other mask contains (0 only if it is the only
    mask), largest first, and their union. A mask is tested only against the
    kept masks with more bits, and a single bit only against their union."""
    kept: list[int] = []
    union = bigger = size = 0
    for s in sorted(masks, key=int.bit_count, reverse=True):
        if s.bit_count() != size:
            size, bigger = s.bit_count(), len(kept)  # kept[:bigger] have more bits
        if (s & ~union if size == 1 else
                all(s | k != k for k in itertools.islice(kept, bigger))):
            kept.append(s)
            union |= s
    return kept, union


def _min_cover_size(universe: int, sets: Iterable[int],
                    floor: int = 0) -> Optional[int]:
    """Exact minimum number of the int masks in sets whose union covers the
    mask universe, or None if their union falls short. A caller that knows
    the answer is at least floor lets the search stop at a cover that small.

    Reductions first (Caprara, Toth, Fischetti 2000): masks inside another
    mask are dropped, as some minimum cover uses none of them; a set that
    alone holds some element is in every cover, so it is counted, what it
    covers leaves the universe, and the reductions repeat. Then branch and
    bound on the rarest uncovered element, its holders by decreasing gain,
    from a greedy upper bound. A node is pruned by |missing| / (largest gain
    of one set), else by a packing bound: walked rarest first, each missing
    element whose holders share no set with those of the elements counted
    before needs a set of its own. A node where every mask meets missing in
    at most 2 bits, the root included, is finished as an edge cover (Gallai
    1959): |missing| − ν more sets, ν the size of a maximum matching in the
    graph with one edge per 2-bit restriction (Edmonds 1965)."""
    kept, union = _undominated({s & universe for s in sets})
    if union != universe:
        return None
    forced = 0
    while universe:
        once = twice = 0
        for s in kept:
            twice |= once & s
            once |= s
        only = once & ~twice
        if not only:
            break
        for s in kept:
            if s & only:
                universe &= ~s
                forced += 1
        kept = _undominated({s & universe for s in kept})[0]
    if not universe:
        return forced
    floor -= forced

    def edge_cover(missing: int) -> int:  # vertices are bit positions
        edges = [((p & -p).bit_length() - 1, p.bit_length() - 1)
                 for p in (s & missing for s in kept) if p.bit_count() == 2]
        return missing.bit_count() - _max_matching(missing.bit_length(), edges)

    if kept[0].bit_count() <= 2:
        return forced + edge_cover(universe)

    # greedy upper bound
    remaining, best_known = universe, 0
    while remaining:
        remaining &= ~max(kept, key=lambda s: (s & remaining).bit_count())
        best_known += 1

    # per element, rarest first: (bit, holders' indices in kept, holders)
    rarest_first = []
    for e in (1 << i for i in range(universe.bit_length()) if universe >> i & 1):
        held = [j for j, s in enumerate(kept) if s & e]
        rarest_first.append((e, sum(1 << j for j in held), [kept[j] for j in held]))
    rarest_first.sort(key=lambda t: len(t[2]))

    def search(missing: int, used: int) -> None:
        nonlocal best_known
        if not missing:
            best_known = min(best_known, used)
            return
        biggest = max((s & missing).bit_count() for s in kept)
        if used + -(-missing.bit_count() // biggest) >= best_known:
            return
        if biggest <= 2:
            best_known = min(best_known, used + edge_cover(missing))
            return
        packed = blocked = 0
        for e, held, sets_of_e in rarest_first:
            if e & missing and not held & blocked:
                if not blocked:
                    pivot_sets = sets_of_e
                blocked |= held
                packed += 1
        if used + packed >= best_known:
            return
        for s in sorted(pivot_sets, key=lambda s: (s & missing).bit_count(),
                        reverse=True):
            search(missing & ~s, used + 1)
            if best_known <= floor:
                return

    if best_known > floor:
        search(universe, 0)
    return forced + best_known


def _max_matching(n: int, edges: Iterable[tuple[int, int]]) -> int:
    """Size of a maximum matching in the graph on vertices 0..n-1: a greedy
    matching, then Edmonds' blossom algorithm (1965), O(V^3). Each free vertex
    roots one breadth-first search for an augmenting path (a root without one
    never gains one later); an edge between two outer vertices closes an odd
    cycle, a blossom, contracted to its base: all its vertices turn outer."""
    adj: list[list[int]] = [[] for _ in range(n)]
    match = [-1] * n
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
        if match[u] == match[v] == -1:
            match[u], match[v] = v, u

    def augment(root: int) -> None:
        parent, base, outer = [-1] * n, list(range(n)), [False] * n
        outer[root] = True
        queue = [root]
        for v in queue:  # grows while it is walked
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if outer[to]:
                    a = base[v]  # b is the nearest common base of v and to
                    seen = {a}
                    while match[a] != -1:
                        a = base[parent[match[a]]]
                        seen.add(a)
                    b = base[to]
                    while b not in seen:
                        b = base[parent[match[b]]]
                    blossom: set[int] = set()
                    for x, child in ((v, to), (to, v)):
                        while base[x] != b:
                            blossom.update((base[x], base[match[x]]))
                            parent[x], child = child, match[x]
                            x = parent[child]
                    for i in range(n):
                        if base[i] in blossom:
                            base[i] = b
                            if not outer[i]:
                                outer[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        while to != -1:  # flip the path from to back to root
                            v = parent[to]
                            match[v], match[to], to = to, v, match[v]
                        return
                    outer[match[to]] = True
                    queue.append(match[to])

    for root in range(n):
        if match[root] == -1 and adj[root]:
            augment(root)
    return (n - match.count(-1)) // 2


def _translate_cover_masks(parent: Parent, base: frozenset,
                           targets: Sequence) -> dict:
    """For each useful translate g, the mask of the targets inside g + base,
    bit i standing for targets[i]. A target t lies in g + base exactly when
    g = t - b for some b in base.

    Window bounds are deliberately not enforced here: covering translates of
    window subsets are differences of window elements and may exceed the
    window while every covered point still lies inside it.
    """
    if isinstance(parent, ZWindow):
        pairs = ((i, t - b) for i, t in enumerate(targets) for b in base)
    else:
        ms = parent.invariant_factors
        pairs = ((i, tuple(map(operator.mod, map(operator.sub, t, b), ms)))
                 for i, t in enumerate(targets) for b in base)
    out: dict = {}
    for i, g in pairs:
        out[g] = out.get(g, 0) | 1 << i
    return out


@value_class
class MuReport:
    """Both variants of the covering distance between nonempty subsets.

    mu is min over pairs (F, S) with e in both, F+Y covering Z and S+Z
    covering Y, of max(|F|, |S|); the two cover problems are independent, so
    mu = max of the two separate minima. single_set is the one-S variant
    where the same set must cover both directions.
    """

    mu: ExtNat
    single_set: ExtNat

    def to_json(self) -> dict:
        return {"mu": self.mu.to_json(), "single_set": self.single_set.to_json()}


def mu_set_distance(y: FiniteSubset, z: FiniteSubset) -> ExtNat:
    return mu_report(y, z).mu


def mu_report(y: FiniteSubset, z: FiniteSubset) -> MuReport:
    """Exact mu(Y,Z) and the single-set variant, by exact minimum set cover.

    The forced identity covers Y ∩ Z in both directions, so only Z ∖ Y and
    Y ∖ Z need covering. For the single set the universe puts Z ∖ Y on the
    low bits and Y ∖ Z above them, and a translate's mask is the union of
    its masks in the two directions. One S serving both directions is a
    pair (S, S), so single_set >= mu: that search may stop at its first
    cover of mu − 1 translates besides e, which is then minimum."""
    if y.parent != z.parent:
        raise ValueError("subsets of different parents")
    parent = y.parent
    e = parent.zero
    z_only = tuple(z.elements - y.elements)
    y_only = tuple(y.elements - z.elements)
    into_z = _translate_cover_masks(parent, y.elements, z_only)
    into_y = _translate_cover_masks(parent, z.elements, y_only)
    into_z.pop(e, None)
    into_y.pop(e, None)

    def cover_size(targets: tuple, covers: dict, floor: int = 0) -> Optional[int]:
        # min |F| with e in F and the translates in F covering the targets
        extra = _min_cover_size((1 << len(targets)) - 1, covers.values(), floor)
        return None if extra is None else 1 + extra

    fy = cover_size(z_only, into_z)
    sz = cover_size(y_only, into_y)
    if fy is None or sz is None:
        mu, floor = ExtNat.infinity(), 0
    else:
        mu, floor = ExtNat.finite(max(fy, sz)), max(fy, sz) - 1

    both = dict(into_z)
    for g, m in into_y.items():
        both[g] = both.get(g, 0) | m << len(z_only)
    single = cover_size(z_only + y_only, both, floor)
    return MuReport(mu, ExtNat.infinity() if single is None else ExtNat.finite(single))


# ---------------------------------------------------------------------------
# Hamming points


@value_class
class HammingPoint:
    """A finitely supported point of the Hamming space over an index set."""

    support_set: frozenset

    @classmethod
    def of(cls, items: Iterable) -> "HammingPoint":
        return cls(frozenset(items))


def hamming_distance(f: Union[HammingPoint, frozenset, set],
                     g: Union[HammingPoint, frozenset, set]) -> int:
    """|supp f △ supp g|."""
    fs = f.support_set if isinstance(f, HammingPoint) else frozenset(f)
    gs = g.support_set if isinstance(g, HammingPoint) else frozenset(g)
    return len(fs ^ gs)
