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
    cyclic_subgroup_tree,
    dlog_closed_form,
    elementary_abelian_correspondence,
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

    def compose(r, s):
        return {x: set().union(*(s[y] for y in r[x])) for x in points}

    def closure(r):
        cur = r
        while True:
            nxt = compose(cur, cur)
            if nxt == cur:
                return cur
            cur = nxt

    r1 = random_relation(rng.randint(0, size))
    r2 = random_relation(rng.randint(0, size), base=r1)
    layers = {"a": r1, "b": r2, "bb": compose(r2, r2), "cl": closure(r2)}
    table = {(x, name): frozenset(rel[x])
             for name, rel in layers.items() for x in points}
    return ExplicitBallean(tuple(points), tuple(layers), table)


# ---------------------------------------------------------------------------
# suites


def suite_iota(primes: Sequence[int] = (2, 3), max_coord: int = 6,
               samples: int = 300, seed: int = 0) -> VerificationReport:
    """Closed-form distances equal lattice-computed distances on the image
    of the exponent tuples, plus the quasi-isometry inequalities."""
    pt = PrimeTuple(tuple(primes))
    rng = random.Random(seed)
    n = pt.n
    violations = []
    grid = [TaxiPoint(c) for c in
            itertools.product(range(max_coord + 1), repeat=n)]
    pairs = (list(itertools.combinations(grid, 2))
             if len(grid) ** 2 <= 2 * samples
             else [(rng.choice(grid), rng.choice(grid)) for _ in range(samples)])
    for m, mp in pairs:
        closed = dlog_closed_form(pt, m, mp)
        direct = log_subgroup_distance(iota(pt, m), iota(pt, mp))
        if closed != direct:
            violations.append(("closed-form", m.coords, mp.coords))
    qi = verify_iota_quasi_isometry(pt, pairs)
    report = VerificationReport("iota-embedding", len(pairs),
                                tuple(violations) + qi.violations, qi.max_ratio)
    return report


def suite_hamming(n: int = 2, max_coord: int = 6) -> VerificationReport:
    grid = [TaxiPoint(c) for c in
            itertools.product(range(max_coord + 1), repeat=n)]
    violations = []
    count = 0
    for m, mp in itertools.combinations_with_replacement(grid, 2):
        count += 1
        h = hamming_distance(hamming_embed(n, m), hamming_embed(n, mp))
        if h != taxi_distance(m, mp):
            violations.append((m.coords, mp.coords, h))
    return VerificationReport("hamming-embedding-isometry", count,
                              tuple(violations))


def suite_elemab(primes: Sequence[int] = (2, 3), max_index: int = 4
                 ) -> VerificationReport:
    indices = list(range(max_index + 1))
    subsets = [frozenset(c) for size in range(len(indices) + 1)
               for c in itertools.combinations(indices, size)]
    width = max_index + 1
    violations = []
    count = 0
    for p in primes:
        for f, fp in itertools.combinations_with_replacement(subsets, 2):
            count += 1
            computed, expected = elementary_abelian_correspondence(
                p, f, fp, width=width)
            if computed != expected:
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
            if lz_exp_ball(n, m) != lz_exp_ball_windowed(n, m):
                violations.append(("window-mismatch", n, m))
            if n > 3 * m and lz_exp_ball(n, m) != {n}:
                violations.append(("singleton", n, m))
    return VerificationReport("integer-subgroup-exp-balls", count,
                              tuple(violations))


def suite_mu_index(seed: int = 0) -> VerificationReport:
    """The covering distance between subgroups equals the index formula."""
    violations = []
    count = 0
    for factors in ((12,), (2, 4)):
        g = FiniteAbelianGroup(factors)
        subs = all_subgroups(g)
        for a, b in itertools.combinations_with_replacement(subs, 2):
            count += 1
            ya = FiniteSubset(g, a.elements())
            yb = FiniteSubset(g, b.elements())
            if mu_set_distance(ya, yb) != fag_log_distance(a, b):
                violations.append((factors, sorted(a.elements()),
                                   sorted(b.elements())))
    return VerificationReport("mu-equals-index-formula", count,
                              tuple(violations))


def exp_power_inclusion_holds(b: ExplicitBallean, max_n: int = 4) -> bool:
    """Iterated hyperballean balls stay inside the iterated-base description:
    every Z reachable from Y in n exp-steps satisfies Z within B^n(Y) and Y
    within B^n(Z)."""
    expb = exp_hyperballean_of(b)
    for a in b.radii:
        blown = {}  # subset -> n-fold base ball, filled per n
        for y in expb.support:
            cur = {y}
            for n in range(1, max_n + 1):
                cur = set().union(*(expb.ball(z, a) for z in cur))
                for z in cur:
                    zn = blown.get((z, n))
                    if zn is None:
                        zn = blown[(z, n)] = _set_ball_power(b, z, a, n)
                    yn = blown.get((y, n))
                    if yn is None:
                        yn = blown[(y, n)] = _set_ball_power(b, y, a, n)
                    if not (z <= yn and y <= zn):
                        return False
    return True


def _set_ball_power(b: ExplicitBallean, s: frozenset, a, n: int) -> frozenset:
    cur = s
    for _ in range(n):
        cur = b.set_ball(cur, a)
    return cur


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
    "mu-index": (suite_mu_index, frozenset({"seed"})),
    "cellular": (suite_cellular, frozenset({"seed"})),
    "axioms": (suite_axioms, frozenset({"seed"})),
}


def run_all(seed: int = 0) -> list[VerificationReport]:
    return [fn(**({"seed": seed} if "seed" in options else {}))
            for fn, options in SUITES.values()]
