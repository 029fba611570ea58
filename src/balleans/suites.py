"""Self-contained verification sweeps over the constructive witnesses.

Each suite checks a closed-form claim against a second computation route
(lattice indices, explicit set arithmetic in a window, exhaustive subgroup
enumeration, or random instance generation) and reports violations; the CLI
`verify` command and the test suite both consume these.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Optional, Sequence

from .ballean import (
    ExplicitBallean,
    FiniteSubset,
    _exp_balls,
    _exp_tables,
    _union,
    cellularization,
    exp_hyperballean_of,
    hamming_distance,
    is_cellular,
    mu_set_distance,
    validate_ballean,
)
from .groups import FiniteAbelianGroup, _is_prime, all_subgroups, fag_log_distance
from .lattices import Lattice, lattice_from_generators, log_subgroup_distance
from .witnesses import (
    PrimeTuple,
    TaxiPoint,
    VerificationReport,
    _coordinate_subgroup,
    cyclic_subgroup_tree,
    dlog_closed_form,
    elementary_abelian_closed_form,
    hamming_embed,
    iota,
    lz_exp_ball,
    taxi_distance,
    verify_iota_quasi_isometry,
)


# ---------------------------------------------------------------------------
# random instances


def random_lattice(rng: random.Random, ambient: int, max_entry: int = 8) -> Lattice:
    rows = [[rng.randint(-max_entry, max_entry) for _ in range(ambient)]
            for _ in range(ambient)]
    return lattice_from_generators(ambient, rows)


def random_ballean(rng: random.Random, max_size: int = 6) -> ExplicitBallean:
    """A random explicit ballean that is valid by construction.

    Radii are neighborhood maps of nested reflexive symmetric relations
    R1 within R2, their square, and the transitive closure of R2; every
    composition of two of these lands inside another, so upper
    multiplicativity always has a witness.
    """
    size = rng.randint(1, max_size)
    points = list(range(size))

    def random_relation(extra_edges: int, base=None):
        rel = {x: {x} for x in points}
        if base is not None:
            for x in points:
                rel[x] |= base[x]
        for _ in range(extra_edges):
            a, b = rng.choice(points), rng.choice(points)
            rel[a].add(b)
            rel[b].add(a)
        return rel

    r1 = random_relation(rng.randint(0, size))
    r2 = random_relation(rng.randint(0, size), base=r1)
    table = {(x, name): frozenset(rel[x])
             for name, rel in (("a", r1), ("b", r2)) for x in points}
    b = ExplicitBallean(tuple(points), ("a", "b"), dict(table))
    closed = cellularization(b)
    table.update({(x, "bb"): b.set_ball(b.ball(x, "b"), "b") for x in points})
    table.update({(x, "cl"): closed.ball(x, "b") for x in points})
    return ExplicitBallean(tuple(points), ("a", "b", "bb", "cl"), table)


# ---------------------------------------------------------------------------
# suites


def _taxi_grid(n: int, max_coord: int) -> list[TaxiPoint]:
    """{0..max_coord}^n; max_coord < 1 is refused, as one point has no pairs."""
    if max_coord < 1:
        raise ValueError(f"max_coord must be >= 1, got {max_coord}")
    return [TaxiPoint(c) for c in itertools.product(range(max_coord + 1), repeat=n)]


def suite_iota(primes: Sequence[int] = (2, 3), max_coord: int = 6,
               samples: int = 300, seed: int = 0) -> VerificationReport:
    """Closed-form distances equal lattice-computed distances on the image
    of the exponent tuples, plus the quasi-isometry inequalities."""
    pt = PrimeTuple(tuple(primes))
    rng = random.Random(seed)
    n = pt.n
    violations = []
    grid = _taxi_grid(n, max_coord)
    pairs = (list(itertools.combinations(grid, 2))
             if len(grid) ** 2 <= 2 * samples
             else [(rng.choice(grid), rng.choice(grid)) for _ in range(samples)])
    image = {m: iota(pt, m) for m in grid}
    for m, mp in pairs:
        closed = dlog_closed_form(pt, m, mp)
        if closed != log_subgroup_distance(image[m], image[mp]):
            violations.append(("closed-form", m.coords, mp.coords))
    qi = verify_iota_quasi_isometry(pt, pairs)
    report = VerificationReport("iota-embedding", len(pairs),
                                tuple(violations) + qi.violations, qi.max_ratio)
    return report


def suite_hamming(n: int = 2, max_coord: int = 6) -> VerificationReport:
    grid = _taxi_grid(n, max_coord)
    points = [(m, hamming_embed(n, m)) for m in grid]
    violations = []
    count = 0
    for (m, x), (mp, xp) in itertools.combinations_with_replacement(points, 2):
        count += 1
        h = hamming_distance(x, xp)
        if h != taxi_distance(m, mp):
            violations.append((m.coords, mp.coords, h))
    return VerificationReport("hamming-embedding-isometry", count,
                              tuple(violations))


def suite_elemab(primes: Sequence[int] = (2, 3), max_index: int = 4
                 ) -> VerificationReport:
    """mu'(H_F, H_F') = p^max(|F \\ F'|, |F' \\ F|) over every pair of
    subsets of {0..max_index}; per prime, one parent group and one lift
    per subset serve all the pairs."""
    width = max_index + 1
    subsets = [frozenset(c) for size in range(width + 1)
               for c in itertools.combinations(range(width), size)]
    violations = []
    count = 0
    for p in primes:
        parent = FiniteAbelianGroup((p,) * width)
        lifts = [(f, _coordinate_subgroup(parent, f, width)) for f in subsets]
        for (f, a), (fp, b) in itertools.combinations_with_replacement(lifts, 2):
            count += 1
            if fag_log_distance(a, b) != elementary_abelian_closed_form(p, f, fp):
                violations.append((p, sorted(f), sorted(fp)))
    return VerificationReport("elementary-abelian-correspondence", count,
                              tuple(violations))


def _abelian_p_groups(max_order: int) -> list[FiniteAbelianGroup]:
    out = []
    for p in filter(_is_prime, range(2, max_order + 1)):
        e = 1
        while p ** (e + 1) <= max_order:
            e += 1
        for total in range(1, e + 1):
            for part in _partitions(total):
                out.append(FiniteAbelianGroup.from_orders(
                    [p ** k for k in part]))
    return out


def _partitions(n: int, largest: Optional[int] = None) -> Iterable[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    top = min(n, largest if largest is not None else n)
    for k in range(top, 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def suite_tree(max_order: int = 81) -> VerificationReport:
    violations = []
    groups = _abelian_p_groups(max_order)
    for g in groups:
        cert = cyclic_subgroup_tree(g)
        if not cert.is_tree:
            violations.append(("not-a-tree", g.invariant_factors))
        if len(cert.edges) != len(cert.vertices) - 1:
            violations.append(("edge-count", g.invariant_factors))
    return VerificationReport("cyclic-subgroup-trees", len(groups),
                              tuple(violations))


def lz_exp_ball_windowed(n: int, m: int) -> set[int]:
    """Independent route for the integer-subgroup exp balls: explicit set
    arithmetic inside the window [-W, W], W = 4 n (2m + 1)."""
    bound = n * (2 * m + 1)
    w = 4 * bound
    f = range(-m, m + 1)
    out = set()

    def multiples(k: int, reach: int) -> range:  # kZ ∩ [-reach, reach]
        return range(-(reach // k) * k, reach + 1, k)

    blown_n = {x + d for x in multiples(n, w) for d in f}
    inner_n = multiples(n, w - m)
    for k in range(1, bound + 1):
        if not all(x in blown_n for x in multiples(k, w - m)):
            continue
        blown_k = {x + d for x in multiples(k, w) for d in f}
        if all(x in blown_k for x in inner_n):
            out.add(k)
    return out


def suite_lzball(max_n: int = 20, max_m: int = 3) -> VerificationReport:
    violations = []
    count = 0
    for n in range(1, max_n + 1):
        for m in range(0, max_m + 1):
            count += 1
            ball = lz_exp_ball(n, m)
            if ball != lz_exp_ball_windowed(n, m):
                violations.append(("window-mismatch", n, m))
            if n > 3 * m and ball != {n}:
                violations.append(("singleton", n, m))
    return VerificationReport("integer-subgroup-exp-balls", count,
                              tuple(violations))


def suite_mu_index() -> VerificationReport:
    """The covering distance between subgroups equals the index formula."""
    violations = []
    count = 0
    for factors in ((12,), (2, 4)):
        g = FiniteAbelianGroup(factors)
        subs = [(a, FiniteSubset(g, a.elements())) for a in all_subgroups(g)]
        for (a, ya), (b, yb) in itertools.combinations_with_replacement(subs, 2):
            count += 1
            if mu_set_distance(ya, yb) != fag_log_distance(a, b):
                violations.append((factors, sorted(a.elements()),
                                   sorted(b.elements())))
    return VerificationReport("mu-equals-index-formula", count,
                              tuple(violations))


def exp_power_inclusion_holds(b: ExplicitBallean, max_n: int = 4) -> bool:
    """Iterated hyperballean balls stay inside the iterated-base description:
    every Z reachable from Y in n exp-steps satisfies Z within B^n(Y) and Y
    within B^n(Z).

    On the masks and bitsets of `ballean._exp_tables`, reach[y] holds the
    subsets reached from y in n exp steps and rows[j] is B^n({j}); the test
    is that reach[y] lies in the exp ball of y in the table of B^n. From
    max_n = 2 on, a ball naming a point outside the support raises.
    """
    subsets, radii = _exp_tables(b)
    for rows, stray, blown, exp in radii:
        if stray and max_n > 1:
            raise ValueError("unknown point or radius")
        image: dict = {}  # bitset X -> union of exp[z] over z in X
        reach = {m: 1 << m for m in range(1, len(subsets))}
        for _ in range(max_n):
            inv = [sum(1 << j for j, r in enumerate(rows) if r >> i & 1)
                   for i in range(len(rows))]
            _, within = _exp_balls(rows, inv, subsets)
            for y, x in reach.items():
                if x not in image:
                    image[x] = _union(exp, x)
                reach[y] = image[x]
                if image[x] & ~within[y]:
                    return False
            rows = [blown[r] for r in rows]  # B^(n+1)({j}) = B(B^n({j}))
    return True


def suite_cellular(count: int = 25, seed: int = 0, max_size: int = 5
                   ) -> VerificationReport:
    rng = random.Random(seed)
    violations = []
    for i in range(count):
        b = random_ballean(rng, max_size=max_size)
        if not validate_ballean(b).ok:
            violations.append(("generator-invalid", i))
            continue
        if not exp_power_inclusion_holds(b, max_n=3):
            violations.append(("power-inclusion", i))
        c = cellularization(b)
        if not is_cellular(exp_hyperballean_of(c)):
            violations.append(("exp-not-cellular", i))
    return VerificationReport("hyperballean-cellularity", count,
                              tuple(violations))


def suite_axioms(seed: int = 0, triples: int = 200) -> VerificationReport:
    """Extended-metric axioms for the subgroup distance and the Hamming
    distance: symmetry, identity, and the (multiplicative) triangle law."""
    rng = random.Random(seed)
    violations = []
    for i in range(triples):
        a, b, c = (random_lattice(rng, 2, 6) for _ in range(3))
        dab = log_subgroup_distance(a, b)
        dba = log_subgroup_distance(b, a)
        dbc = log_subgroup_distance(b, c)
        dac = log_subgroup_distance(a, c)
        if dab != dba:
            violations.append(("symmetry", i))
        if dac > dab * dbc:
            violations.append(("triangle", i))
        if log_subgroup_distance(a, a).value != 1:
            violations.append(("identity", i))
    for i in range(triples):
        f, g, h = (frozenset(rng.sample(range(10), rng.randint(0, 6)))
                   for _ in range(3))
        if hamming_distance(f, g) != hamming_distance(g, f):
            violations.append(("hamming-symmetry", i))
        if hamming_distance(f, h) > hamming_distance(f, g) + hamming_distance(g, h):
            violations.append(("hamming-triangle", i))
        if hamming_distance(f, f):
            violations.append(("hamming-identity", i))
    return VerificationReport("metric-axioms", 2 * triples, tuple(violations))


# name -> (suite, the options of `verify` it takes besides its defaults)
SUITES = {
    "iota": (suite_iota, frozenset({"seed", "max_coord"})),
    "hamming": (suite_hamming, frozenset({"max_coord"})),
    "elemab": (suite_elemab, frozenset()),
    "tree": (suite_tree, frozenset()),
    "lzball": (suite_lzball, frozenset()),
    "mu-index": (suite_mu_index, frozenset()),
    "cellular": (suite_cellular, frozenset({"seed"})),
    "axioms": (suite_axioms, frozenset({"seed"})),
}


def run_suite(name: str, seed: int = 0, **options) -> VerificationReport:
    """Run the suite `name`; `seed` goes only to a suite that takes one."""
    fn, takes = SUITES[name]
    if "seed" in takes:
        options["seed"] = seed
    return fn(**options)


def run_all(seed: int = 0) -> list[VerificationReport]:
    return [run_suite(name, seed) for name in SUITES]
