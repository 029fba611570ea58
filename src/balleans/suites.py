"""Self-contained verification sweeps over the constructive witnesses.

Each suite checks a closed-form claim against a second computation route
(lattice indices, set arithmetic in a window on characteristic vectors,
exhaustive subgroup enumeration, or random instance generation) and reports
violations; the CLI `verify` command and the test suite both consume these.
"""

from __future__ import annotations

import itertools
import os
import random
import threading
from typing import Callable, Iterable, Optional, Sequence

from .ballean import (
    ExplicitBallean,
    FiniteSubset,
    cellularization,
    exp_hyperballean_of,
    exp_power_inclusion_holds,
    hamming_distance,
    is_cellular,
    mu_set_distance,
    validate_ballean,
)
from .groups import FiniteAbelianGroup, _is_prime, all_subgroups, fag_log_distance
from .lattices import lattice_from_generators, log_subgroup_distance
from .witnesses import (
    PrimeTuple,
    TaxiPoint,
    VerificationReport,
    _check_quasi_isometry,
    _coordinate_subgroup,
    cyclic_subgroup_tree,
    dlog_closed_form,
    elementary_abelian_closed_form,
    hamming_embed,
    iota,
    lz_exp_ball,
    taxi_distance,
)


# ---------------------------------------------------------------------------
# fanning a suite's independent checks out over the usable cores

# A fork costs the caller about 0.7 ms and a child's answer reaches it about
# 3 ms after the fork (a 2-core Linux VM, Python 3.11), while every suite that
# fans out takes 15-45 ms in one process. At 4 workers the forks add 2 ms to
# the caller's own slice, so more would stop paying for the smaller suites;
# no machine with more than 2 usable cores was measured.
_MAX_WORKERS = 4


def _workers(samples: int) -> int:
    """How many processes share the samples: the usable cores, at most
    _MAX_WORKERS and one per sample; 1 where fork is missing or unsafe (a
    second thread may hold a lock the child would inherit held)."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return min(len(os.sched_getaffinity(0)), _MAX_WORKERS, samples)


def _fan_out(check: Callable[..., list], samples: Sequence) -> list:
    """The lists check(s) for s in samples, joined in that order. With k > 1
    workers, k - 1 forked children each take every k-th sample and answer
    through a pipe, and the caller takes the rest. A child's exception is
    raised here; every child is killed if still running and reaped before
    this returns or raises, whatever interrupts it."""
    k = _workers(len(samples))
    if k < 2:
        return [v for s in samples for v in check(s)]
    import pickle
    import signal

    children = []  # (pid, read end of its pipe)
    try:
        for i in range(1, k):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                status = 1
                try:
                    os.close(r)
                    try:
                        answer = (True, [check(s) for s in samples[i::k]])
                    except Exception as e:
                        answer = (False, e)
                    with os.fdopen(w, "wb") as out:
                        out.write(pickle.dumps(answer))
                    status = 0
                finally:
                    os._exit(status)
            children.append((pid, os.fdopen(r, "rb")))
            os.close(w)
        results = [None] * len(samples)
        results[0::k] = [check(s) for s in samples[0::k]]
        for i, (pid, pipe) in enumerate(children, 1):
            data = pipe.read()
            if not data:
                raise RuntimeError("a suite worker ended without an answer")
            ok, answer = pickle.loads(data)
            if not ok:
                raise answer
            results[i::k] = answer
        return [v for vs in results for v in vs]
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


# ---------------------------------------------------------------------------
# random instances


def _random_rows(rng: random.Random, ambient: int, max_entry: int
                 ) -> list[list[int]]:
    """ambient random generator rows of Z^ambient, entries in
    [-max_entry, max_entry]."""
    return [[rng.randint(-max_entry, max_entry) for _ in range(ambient)]
            for _ in range(ambient)]


def random_ballean(rng: random.Random, max_size: int = 6) -> ExplicitBallean:
    """A random explicit ballean that is valid by construction.

    Radii are neighborhood maps of nested reflexive symmetric relations
    R1 within R2, their square, and the transitive closure of R2; every
    composition of two of these lands inside another, so upper
    multiplicativity always has a witness.
    """
    return _ballean_of(*_random_relations(rng, max_size))


def _random_relations(rng: random.Random, max_size: int) -> tuple[dict, dict]:
    """R1 and R2 of random_ballean as point -> neighbours: all its rng calls."""
    size = rng.randint(1, max_size)
    points = list(range(size))

    def random_relation(extra_edges: int, base: dict) -> dict:
        rel = {x: {x, *base.get(x, ())} for x in points}
        for _ in range(extra_edges):
            a, b = rng.choice(points), rng.choice(points)
            rel[a].add(b)
            rel[b].add(a)
        return rel

    r1 = random_relation(rng.randint(0, size), {})
    return r1, random_relation(rng.randint(0, size), r1)


def _ballean_of(r1: dict, r2: dict) -> ExplicitBallean:
    """random_ballean's ballean of the relations R1 within R2."""
    points = list(r1)
    table = {(x, name): frozenset(rel[x])
             for name, rel in (("a", r1), ("b", r2)) for x in points}
    b = ExplicitBallean(tuple(points), ("a", "b"), dict(table))
    closed = cellularization(b)
    table.update({(x, "bb"): b.set_ball(b.ball(x, "b"), "b") for x in points})
    table.update({(x, "cl"): closed.ball(x, "b") for x in points})
    return ExplicitBallean(tuple(points), ("a", "b", "bb", "cl"), table)


# ---------------------------------------------------------------------------
# suites


# the most grid points suite_iota, and pairs of points suite_hamming, check:
# at the limit, iota on {0..255}^2 and hamming on {0..18}^2 each take about
# 0.2 s (a 2-core Linux VM, Python 3.11)
GRID_LIMIT = 1 << 16


def _taxi_grid(n: int, max_coord: int, pairs: bool = False) -> list[TaxiPoint]:
    """{0..max_coord}^n. Refused before anything is built: max_coord < 1, as
    one point has no pairs, and a grid of more than GRID_LIMIT points, or
    with `pairs` of more than GRID_LIMIT unordered pairs of its points."""
    if max_coord < 1:
        raise ValueError(f"max_coord must be >= 1, got {max_coord}")
    size = (max_coord + 1) ** n
    count = size * (size + 1) // 2 if pairs else size
    if count > GRID_LIMIT:
        raise ValueError(f"the grid {{0..{max_coord}}}^{n} has {count} "
                         f"{'pairs' if pairs else 'points'}; GRID_LIMIT allows "
                         f"at most {GRID_LIMIT}")
    return [TaxiPoint(c) for c in itertools.product(range(max_coord + 1), repeat=n)]


def suite_iota(primes: Sequence[int] = (2, 3), max_coord: int = 6,
               samples: int = 300, seed: int = 0) -> VerificationReport:
    """Closed-form distances equal lattice-computed distances on the image
    of the exponent tuples, plus the quasi-isometry inequalities."""
    pt = PrimeTuple(tuple(primes))
    rng = random.Random(seed)
    violations = []
    grid = _taxi_grid(pt.n, max_coord)
    pairs = (list(itertools.combinations(grid, 2))
             if len(grid) ** 2 <= 2 * samples
             else [(rng.choice(grid), rng.choice(grid)) for _ in range(samples)])
    image = {m: iota(pt, m) for m in set(itertools.chain.from_iterable(pairs))}
    qi = []
    max_ratio = 0.0
    for m, mp in pairs:
        closed = dlog_closed_form(pt, m, mp)
        if closed != log_subgroup_distance(image[m], image[mp]):
            violations.append(("closed-form", m.coords, mp.coords))
        max_ratio = max(max_ratio, _check_quasi_isometry(pt, m, mp, closed, qi))
    return VerificationReport("iota-embedding", len(pairs),
                              tuple(violations + qi), max_ratio)


def suite_hamming(n: int = 2, max_coord: int = 6) -> VerificationReport:
    grid = _taxi_grid(n, max_coord, pairs=True)
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
    pairs = []
    for p in primes:
        parent = FiniteAbelianGroup((p,) * width)
        lifts = [(f, _coordinate_subgroup(parent, f)) for f in subsets]
        pairs += [(p, f, a, fp, b) for (f, a), (fp, b)
                  in itertools.combinations_with_replacement(lifts, 2)]

    def check(pair) -> list:
        p, f, a, fp, b = pair
        if fag_log_distance(a, b) != elementary_abelian_closed_form(p, f, fp):
            return [(p, sorted(f), sorted(fp))]
        return []

    return VerificationReport("elementary-abelian-correspondence", len(pairs),
                              tuple(_fan_out(check, pairs)))


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
    groups = _abelian_p_groups(max_order)

    def check(g: FiniteAbelianGroup) -> list:
        cert = cyclic_subgroup_tree(g)
        violations = []
        if not cert.is_tree:
            violations.append(("not-a-tree", g.invariant_factors))
        if len(cert.edges) != len(cert.vertices) - 1:
            violations.append(("edge-count", g.invariant_factors))
        return violations

    return VerificationReport("cyclic-subgroup-trees", len(groups),
                              tuple(_fan_out(check, groups)))


def lz_exp_ball_windowed(n: int, m: int) -> set[int]:
    """Independent route for the integer-subgroup exp balls: explicit set
    arithmetic inside the window [-W, W], W = 4 n (2m + 1).

    k is in the ball when jZ ∩ [-(W - m), W - m] lies in the blown-up set
    iZ ∩ [-W, W] + [-m, m] for (j, i) = (k, n) and for (j, i) = (n, k).
    Each blown-up set is a characteristic vector over [-W - m, W + m] (a
    bytearray, filled by 2m + 1 strided slice assignments), and each
    inclusion is one strided slice of it searched for a 0. k's own vector
    is built only once kZ has passed the first inclusion, which few k do, so
    the other k cost only the points of kZ they read.
    """
    if m < 0:
        raise ValueError("radius bound must be >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    bound = n * (2 * m + 1)
    w = 4 * bound
    zero = w + m  # the index of 0; index x + zero stands for x
    inner = w - m
    top = zero + inner + 1  # jZ ∩ [-inner, inner]: [zero - inner // j * j:top:j]

    def blown(i: int) -> bytearray:  # iZ ∩ [-w, w] + [-m, m]
        flags = bytearray(2 * zero + 1)
        least = zero - w // i * i  # the index of iZ's least point in [-w, w]
        count = 2 * (w // i) + 1
        ones = b"\x01" * count
        for start in range(least - m, least + m + 1):
            flags[start:start + (count - 1) * i + 1:i] = ones
        return flags

    has_n = blown(n)
    inner_n = slice(zero - inner // n * n, top, n)
    return {k for k in range(1, bound + 1)
            if 0 not in has_n[zero - inner // k * k:top:k]
            and 0 not in blown(k)[inner_n]}


def suite_lzball(max_n: int = 20, max_m: int = 3) -> VerificationReport:
    cases = [(n, m) for n in range(1, max_n + 1) for m in range(0, max_m + 1)]
    violations = []
    for n, m in cases:
        ball = lz_exp_ball(n, m)
        if ball != lz_exp_ball_windowed(n, m):
            violations.append(("window-mismatch", n, m))
        if n > 3 * m and ball != {n}:
            violations.append(("singleton", n, m))
    return VerificationReport("integer-subgroup-exp-balls", len(cases),
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


def suite_cellular(count: int = 25, seed: int = 0, max_size: int = 5
                   ) -> VerificationReport:
    rng = random.Random(seed)
    drawn = [(i, _random_relations(rng, max_size)) for i in range(count)]

    def check(sample) -> list:
        i, relations = sample
        b = _ballean_of(*relations)
        if not validate_ballean(b).ok:
            return [("generator-invalid", i)]
        violations = []
        if not exp_power_inclusion_holds(b, max_n=3):
            violations.append(("power-inclusion", i))
        c = cellularization(b)
        if not is_cellular(exp_hyperballean_of(c)):
            violations.append(("exp-not-cellular", i))
        return violations

    return VerificationReport("hyperballean-cellularity", count,
                              tuple(_fan_out(check, drawn)))


def suite_axioms(seed: int = 0, triples: int = 200) -> VerificationReport:
    """Extended-metric axioms for the subgroup distance and the Hamming
    distance: symmetry, identity, and the (multiplicative) triangle law."""

    def lattice_laws(i, *rows) -> list:
        a, b, c = (lattice_from_generators(2, r) for r in rows)
        dab, dba, dbc, dac = (log_subgroup_distance(x, y)
                              for x, y in ((a, b), (b, a), (b, c), (a, c)))
        violations = []
        if dab != dba:
            violations.append(("symmetry", i))
        if dac > dab * dbc:
            violations.append(("triangle", i))
        if log_subgroup_distance(a, a).value != 1:
            violations.append(("identity", i))
        return violations

    def hamming_laws(i, f, g, h) -> list:
        violations = []
        if hamming_distance(f, g) != hamming_distance(g, f):
            violations.append(("hamming-symmetry", i))
        if hamming_distance(f, h) > hamming_distance(f, g) + hamming_distance(g, h):
            violations.append(("hamming-triangle", i))
        if hamming_distance(f, f):
            violations.append(("hamming-identity", i))
        return violations

    rng = random.Random(seed)
    # the lattice triples, then the Hamming ones, both in the order drawn,
    # so the violations come in that order too
    drawn = [(lattice_laws, i, *(_random_rows(rng, 2, 6) for _ in range(3)))
             for i in range(triples)]
    drawn += [(hamming_laws, i, *(frozenset(rng.sample(range(10), rng.randint(0, 6)))
                                  for _ in range(3))) for i in range(triples)]
    return VerificationReport("metric-axioms", 2 * triples, tuple(
        _fan_out(lambda sample: sample[0](*sample[1:]), drawn)))


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
