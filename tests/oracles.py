"""Independent reference implementations used only by the tests.

Everything here is written from scratch against the definitions — rational
Gaussian elimination for ranks and membership, a self-contained Hermite
reduction for canonical residues, breadth-first coset counting for subgroup
indices, and additive-closure subgroup enumeration — so that agreement with
the package is a genuine two-route check rather than the same code twice.
Some are the package's former routes, kept as references; those call into
the package only where the old route did.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def frac_rank(rows) -> int:
    """Rank over the rationals by plain Gaussian elimination."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def frac_det(rows) -> Fraction:
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for i in range(col + 1, n):
            f = m[i][col] * inv
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return det


def smith_invariants(rows) -> list[int]:
    """The Smith diagonal from determinantal divisors: d_k = D_k / D_(k-1),
    with D_k the gcd of all k x k minors (each a `frac_det`), and zeros past
    the rank. The search for D_k stops at the first minor that makes it 1."""
    nr, nc = len(rows), len(rows[0]) if rows else 0
    size = min(nr, nc)
    out, prev = [], 1
    for k in range(1, size + 1):
        g = 0
        for r in itertools.combinations(range(nr), k):
            for c in itertools.combinations(range(nc), k):
                g = math.gcd(g, int(frac_det([[rows[i][j] for j in c]
                                              for i in r])))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            return out + [0] * (size - len(out))
        out.append(g // prev)
        prev = g
    return out


def in_integer_span(x, rows) -> bool:
    """Is x an integer combination of rows? Decided by canonical reduction:
    the residue is zero exactly on lattice points."""
    return not any(reduce_mod(list(x), hermite_rows(rows)))


def hermite_rows(rows) -> list[list[int]]:
    """Row-reduced integer form (own implementation): echelon with positive
    pivots via repeated division steps."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return []
    cols = len(work[0])
    out = []
    for col in range(cols):
        while True:
            having = [r for r in work if r[col]]
            if len(having) <= 1:
                break
            # Euclid: reduce everything by the smallest leading entry
            having.sort(key=lambda r: abs(r[col]))
            base = having[0]
            rest = [r for r in work if not r[col]]
            new = [base]
            for r in having[1:]:
                q = r[col] // base[col]
                reduced = [a - q * b for a, b in zip(r, base)]
                if any(reduced):
                    new.append(reduced)
            work = new + rest
        having = [r for r in work if r[col]]
        if having:
            pivot_row = having[0]
            if pivot_row[col] < 0:
                pivot_row = [-v for v in pivot_row]
            out.append(pivot_row)
            work = [r for r in work if not r[col]]
    return out


def reduce_mod(x, hermite_basis):
    """Canonical residue of x modulo the integer span of the echelon rows:
    each pivot coordinate is folded into [0, pivot). Two vectors reduce to
    the same residue exactly when their difference lies in the lattice."""
    x = list(x)
    for row in hermite_basis:
        col = next(i for i, v in enumerate(row) if v)
        q = x[col] // row[col]
        if q:
            x = [a - q * b for a, b in zip(x, row)]
    return x


def hnf_by_echelon(rows, skip: int = 0) -> list[list[int]]:
    """The package's former row HNF: a column echelon pass (extended-gcd
    row pairs), then one pass reducing the entries above each pivot.

    Only the HNF rows zero on the first `skip` columns are reduced and
    returned: the HNF of the part of the row span that vanishes there.
    Nothing is reduced before the end, so entries can grow steeply with size.
    """
    h = [list(r) for r in rows]
    n = len(h)
    cols: list[int] = []  # the pivot column of each echelon row
    split = n  # the first echelon row with its pivot at or past skip
    for col in range(len(h[0]) if h else 0):
        rank = len(cols)
        if col == skip:
            split = rank
        piv = next((i for i in range(rank, n) if h[i][col]), None)
        if piv is None:
            continue
        rp = h[piv]
        h[piv] = h[rank]
        for i in range(rank + 1, n):
            ri = h[i]
            b = ri[col]
            if not b:
                continue
            a = rp[col]
            if b % a == 0:
                q = b // a
                h[i] = [v - q * u for u, v in zip(rp, ri)]
                continue
            g, x, y = _euclid(a, b)
            ag, bg = a // g, b // g
            rp, h[i] = ([x * u + y * v for u, v in zip(rp, ri)],
                        [ag * v - bg * u for u, v in zip(rp, ri)])
        h[rank] = rp if rp[col] > 0 else [-u for u in rp]
        cols.append(col)
    for r in range(split, len(cols)):  # reduce the entries above each pivot
        row = h[r]
        c = cols[r]
        for i in range(split, r):
            q = h[i][c] // row[c]
            if q:
                h[i] = [t - q * u for t, u in zip(h[i], row)]
    return h[split:len(cols)]


def _euclid(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g, by the extended
    Euclidean algorithm."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def oracle_mu_prime(a_gens, b_gens):
    """max(|A : A∩B|, |B : A∩B|) or None for non-commensurable, computed by
    counting residues of one lattice modulo the other.

    Cosets of A∩B inside A biject with residues of A's points modulo B, so
    breadth-first closure over generator steps, canonicalized by Hermite
    reduction modulo B, counts the index directly.
    """
    ra = frac_rank(a_gens) if a_gens else 0
    rb = frac_rank(b_gens) if b_gens else 0
    stacked = [list(r) for r in a_gens] + [list(r) for r in b_gens]
    rs = frac_rank(stacked) if stacked else 0
    if not (ra == rb == rs):
        return None
    ia = coset_count(a_gens, b_gens)
    ib = coset_count(b_gens, a_gens)
    return max(ia, ib)


def coset_count(a_gens, b_gens, cap: int = 2_000_000) -> int:
    """|A : A∩B| as the number of residues of A's points modulo B."""
    basis = hermite_rows(b_gens)
    width = len(a_gens[0]) if a_gens else (len(b_gens[0]) if b_gens else 0)
    start = tuple(reduce_mod([0] * width, basis))
    seen = {start}
    frontier = [start]
    gens = [list(g) for g in a_gens] + [[-v for v in g] for g in a_gens]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple(reduce_mod([c + v for c, v in zip(cur, g)],
                                   basis))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
                if len(seen) > cap:
                    raise RuntimeError("coset count exceeded the safety cap")
    return len(seen)


def saturation_by_two_kernels(lat):
    """The package's former `lattices.saturation`: the integer vectors
    orthogonal to everything orthogonal to H, as two left kernels (the
    first a canonical integer basis of ker(B), B the basis)."""
    from balleans.exactmat import left_kernel
    from balleans.lattices import Lattice, full_lattice

    n = lat.ambient
    if lat.rank == n:
        return full_lattice(n)
    transpose = [[row[j] for row in lat.basis] for j in range(n)]
    orth = left_kernel(transpose)
    back = [[row[j] for row in orth] for j in range(n)]
    return Lattice(n, tuple(tuple(r) for r in left_kernel(back)))


# ---------------------------------------------------------------------------
# finite-group oracles


def closure(parent, gens):
    """The subgroup generated, by additive closure over element tuples."""
    zero = parent.zero
    out = {zero}
    frontier = [zero]
    norm = [parent.normalize(g) for g in gens]
    while frontier:
        cur = frontier.pop()
        for g in norm:
            nxt = parent.add(cur, g)
            if nxt not in out:
                out.add(nxt)
                frontier.append(nxt)
    # closure under inverses comes free: the group is finite
    return frozenset(out)


def all_subgroup_element_sets(parent, max_gens: int = 2) -> set[frozenset]:
    """Every subgroup as an element set, by closing small generator tuples."""
    elems = list(parent.elements())
    out = {closure(parent, [])}
    for k in range(1, max_gens + 1):
        for gens in itertools.combinations(elems, k):
            out.add(closure(parent, gens))
    return out


def elements_by_membership(sub) -> frozenset:
    """The package's former `FAGSubgroup.elements`: every element of the
    parent that passes the subgroup's membership test."""
    return frozenset(e for e in sub.parent.elements() if sub.contains(e))


def all_subgroups_by_closure(parent) -> list:
    """The package's former `all_subgroups`: the subgroups generated by every
    k-tuple of elements (k the rank), deduplicated by lift."""
    from balleans.groups import FAGSubgroup

    seen = {}
    for gens in itertools.combinations_with_replacement(list(parent.elements()), parent.k):
        sub = FAGSubgroup.from_elements(parent, gens)
        seen.setdefault(sub.lift, sub)
    trivial = FAGSubgroup.trivial(parent)
    seen.setdefault(trivial.lift, trivial)
    return list(seen.values())


def coordinate_subgroup_by_closure(parent, idx, width: int):
    """The package's former `witnesses._coordinate_subgroup`: the subgroup
    generated by the coordinate vectors e_i, i in idx, through
    `FAGSubgroup.from_elements` and its row HNF."""
    from balleans.groups import FAGSubgroup

    gens = [[int(j == i) for j in range(width)] for i in sorted(idx)]
    return FAGSubgroup.from_elements(parent, gens)


def is_prime_by_trial_division(p: int) -> bool:
    """Primality by trial division up to sqrt(p): the package's former route."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def subspace_count(p: int, k: int) -> int:
    """The number of subgroups of (Z/p)^k: the sum over j of the Gaussian
    binomials [k choose j]_p, each a product of (p^(k-i) - 1)/(p^(i+1) - 1)."""
    total = 0
    for j in range(k + 1):
        num = den = 1
        for i in range(j):
            num *= p ** (k - i) - 1
            den *= p ** (i + 1) - 1
        total += num // den
    return total


def element_count_mu(parent, a_set, b_set) -> int:
    """max of the two indices via raw cardinalities."""
    cap = a_set & b_set
    assert len(a_set) % len(cap) == 0 and len(b_set) % len(cap) == 0
    return max(len(a_set) // len(cap), len(b_set) // len(cap))


# ---------------------------------------------------------------------------
# explicit balleans and covers


def require_ball_structure(support, radii, balls) -> None:
    """Raise ValueError("unknown point or radius") unless the table is a
    ball structure: one ball per (point, radius) of support x radii, and
    every ball a subset of the support. The reference for the check that
    `ExplicitBallean` makes at construction, besides repeated points and
    radii."""
    points = frozenset(support)
    if set(balls) != {(x, a) for x in points for a in radii} or not all(
            ball <= points for ball in balls.values()):
        raise ValueError("unknown point or radius")


def exp_hyperballean_reference(b):
    """(support, radii, balls) of the exp-hyperballean on frozensets, from
    the definition: Z is in the ball of Y at a iff Z ⊆ B(Y, a) and
    Y ⊆ B(Z, a), over every nonempty subset, by size and then in
    combinations order."""
    subsets = [frozenset(c)
               for size in range(1, len(b.support) + 1)
               for c in itertools.combinations(b.support, size)]
    balls = {}
    for a in b.radii:
        blown = {y: frozenset().union(*(b.balls[(x, a)] for x in y))
                 for y in subsets}
        for y in subsets:
            balls[(y, a)] = frozenset(
                z for z in subsets if z <= blown[y] and y <= blown[z])
    return tuple(subsets), tuple(b.radii), balls


def cellularization_by_unions(b) -> dict:
    """The ball table of `ballean.cellularization(b)`: at (x, a), {x} and
    the points reached from it, as the fixpoint of Y -> Y ∪ B(Y, a) from
    {x}, one whole `set_ball` per step."""
    table = {}
    for x in b.support:
        for a in b.radii:
            cur = frozenset({x})
            while (nxt := cur | b.set_ball(cur, a)) != cur:
                cur = nxt
            table[(x, a)] = cur
    return table


def validate_by_sets(b):
    """The package's former `ballean.validate_ballean`: the three axioms
    checked on the frozenset table, containment in support and then radius
    order, symmetry in radius and then support order with y in support
    order."""
    from balleans.ballean import BalleanValidation

    for x in b.support:
        for a in b.radii:
            if x not in b.ball(x, a):
                return BalleanValidation(False, containment_violation=(x, a))
    for a in b.radii:
        for x in b.support:
            for y in b.support:
                if y in b.ball(x, a) and x not in b.ball(y, a):
                    return BalleanValidation(False, symmetry_violation=(x, y, a))
    for a in b.radii:
        for c in b.radii:
            composed = {x: b.set_ball(b.ball(x, a), c) for x in b.support}
            if not any(all(composed[x] <= b.ball(x, g) for x in b.support)
                       for g in b.radii):
                worst = max(b.support, key=lambda x: len(composed[x]))
                return BalleanValidation(
                    False, multiplicativity_violation=(a, c, worst))
    return BalleanValidation(True)


def components_by_search(b) -> list:
    """The package's former `ballean.connected_components`: a depth-first
    search from each point not yet seen, through every radius's ball, in
    support order."""
    seen, out = set(), []
    for x in b.support:
        if x not in seen:
            comp, frontier = {x}, [x]
            while frontier:
                y = frontier.pop()
                for z in set().union(*(b.ball(y, a) for a in b.radii)) - comp:
                    comp.add(z)
                    frontier.append(z)
            seen |= comp
            out.append(frozenset(comp))
    return out


def exp_power_inclusion_by_sets(b, max_n: int = 4) -> bool:
    """The package's former `exp_power_inclusion_holds`: walk the exp balls
    of `ballean.exp_hyperballean_of(b)` as frozensets and compare every
    reached Z with B^n(Y), and Y with B^n(Z), by repeated `set_ball`."""
    from balleans import ballean

    expb = ballean.exp_hyperballean_of(b)
    for a in b.radii:
        blown = {}  # (subset, n) -> n-fold base ball
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


def _set_ball_power(b, s, a, n: int):
    cur = s
    for _ in range(n):
        cur = b.set_ball(cur, a)
    return cur


def min_cover_brute(universe, sets):
    """Fewest of the sets whose union contains universe, trying every
    combination by size; None when even all of them fall short."""
    universe = frozenset(universe)
    sets = [frozenset(s) for s in sets]
    for k in range(len(sets) + 1):
        for combo in itertools.combinations(sets, k):
            if universe <= frozenset().union(*combo):
                return k
    return None


def min_cover_search(universe: int, sets, floor: int = 0):
    """The package's former `ballean._min_cover_size`: the same branch and
    bound on int masks (dominance filter, greedy upper bound, rarest
    element first, cardinality bound) with no edge-cover step, so it
    enumerates where every set has at most 2 elements. floor is accepted
    and ignored: the search always proves its minimum."""
    if not universe:
        return 0
    kept = []
    for s in sorted({s & universe for s in sets} - {0},
                    key=int.bit_count, reverse=True):
        if all(s | k != k for k in kept):
            kept.append(s)
    union = 0
    for s in kept:
        union |= s
    if union != universe:
        return None
    remaining, greedy = universe, 0
    while remaining:
        remaining &= ~max(kept, key=lambda s: (s & remaining).bit_count())
        greedy += 1
    best_known = greedy
    holders = {1 << i: [s for s in kept if s >> i & 1]
               for i in range(universe.bit_length()) if universe >> i & 1}
    rarest_first = sorted(holders, key=lambda e: len(holders[e]))

    def search(covered: int, used: int) -> None:
        nonlocal best_known
        if used >= best_known:
            return
        missing = universe & ~covered
        if not missing:
            best_known = used
            return
        biggest = max((s & missing).bit_count() for s in kept)
        if used + -(-missing.bit_count() // biggest) >= best_known:
            return
        pivot = next(e for e in rarest_first if e & missing)
        for s in holders[pivot]:
            search(covered | s, used + 1)

    search(0, 0)
    return best_known


def max_matching_brute(n: int, edges) -> int:
    """Size of a maximum matching on vertices 0..n-1 by exhaustion: the
    lowest vertex left is either unmatched or matched to one of its
    neighbours left, memoized on the set of vertices left."""
    adj = [0] * n
    for u, v in edges:
        if u != v:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    memo = {0: 0}

    def best(left: int) -> int:
        if left not in memo:
            low = left & -left
            out = best(left ^ low)
            nbrs = adj[low.bit_length() - 1] & left
            while nbrs:
                other = nbrs & -nbrs
                out = max(out, 1 + best(left ^ low ^ other))
                nbrs ^= other
            memo[left] = out
        return memo[left]

    return best((1 << n) - 1)


def mu_two_points_elementary(y, z):
    """mu(Y, Z) for Y = {a, b} in (Z/2)^k, elements as 0/1 tuples.

    A translate of Y is a coset of D = {0, a + b}, and every coset of D is
    one, so covering Z ∖ Y takes one translate per coset of D it meets, plus
    the forced identity. The other direction covers at most two points and
    is found by brute force over all translates of Z."""
    a, b = sorted(y)
    add = lambda u, v: tuple((p + q) % 2 for p, q in zip(u, v))
    d = add(a, b)
    forward = 1 + len({min(t, add(t, d)) for t in z - y})
    zero = (0,) * len(a)
    translates = [frozenset(t for t in y - z if add(t, g) in z)
                  for g in itertools.product((0, 1), repeat=len(a)) if g != zero]
    backward = 1 + min_cover_brute(y - z, translates)
    return max(forward, backward)


def _subgroup_generated_mod(n: int, g: int) -> frozenset:
    """The cyclic subgroup of Z/nZ generated by g (n >= 1)."""
    if n == 1:
        return frozenset({0})
    step = math.gcd(g, n)
    return frozenset(range(0, n, step))


def lz_exp_scan(n: int, radius) -> set[int]:
    """{k : kZ in exp B(nZ, F)} by testing every k <= n * |F|.

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


def lz_log_scan(n: int, bound: int) -> set[int]:
    """{m : max(lcm/n, lcm/m) <= bound} by testing every m in [n/bound, n*bound]."""
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


# ---------------------------------------------------------------------------
# verification suites, pair by pair


def suite_iota_per_pair(primes=(2, 3), max_coord: int = 6, samples: int = 300,
                        seed: int = 0):
    """The package's former `suites.suite_iota`: both iota images rebuilt
    for every pair."""
    import random

    from balleans import suites
    from balleans.lattices import log_subgroup_distance
    from balleans.witnesses import (PrimeTuple, VerificationReport,
                                    dlog_closed_form, iota,
                                    verify_iota_quasi_isometry)

    pt = PrimeTuple(tuple(primes))
    rng = random.Random(seed)
    violations = []
    grid = suites._taxi_grid(pt.n, max_coord)
    pairs = (list(itertools.combinations(grid, 2))
             if len(grid) ** 2 <= 2 * samples
             else [(rng.choice(grid), rng.choice(grid)) for _ in range(samples)])
    for m, mp in pairs:
        closed = dlog_closed_form(pt, m, mp)
        direct = log_subgroup_distance(iota(pt, m), iota(pt, mp))
        if closed != direct:
            violations.append(("closed-form", m.coords, mp.coords))
    qi = verify_iota_quasi_isometry(pt, pairs)
    return VerificationReport("iota-embedding", len(pairs),
                              tuple(violations) + qi.violations, qi.max_ratio)


def suite_hamming_per_pair(n: int = 2, max_coord: int = 6):
    """The package's former `suites.suite_hamming`: both Hamming images
    rebuilt for every pair."""
    from balleans import suites
    from balleans.ballean import hamming_distance
    from balleans.witnesses import VerificationReport, hamming_embed, taxi_distance

    violations = []
    count = 0
    grid = suites._taxi_grid(n, max_coord)
    for m, mp in itertools.combinations_with_replacement(grid, 2):
        count += 1
        h = hamming_distance(hamming_embed(n, m), hamming_embed(n, mp))
        if h != taxi_distance(m, mp):
            violations.append((m.coords, mp.coords, h))
    return VerificationReport("hamming-embedding-isometry", count,
                              tuple(violations))


def suite_elemab_per_pair(primes=(2, 3), max_index: int = 4):
    """The package's former `suites.suite_elemab`: a fresh parent group and
    two coordinate lifts in every `elementary_abelian_correspondence` call."""
    from balleans.witnesses import (VerificationReport,
                                    elementary_abelian_correspondence)

    indices = list(range(max_index + 1))
    subsets = [frozenset(c) for size in range(len(indices) + 1)
               for c in itertools.combinations(indices, size)]
    violations = []
    count = 0
    for p in primes:
        for f, fp in itertools.combinations_with_replacement(subsets, 2):
            count += 1
            computed, expected = elementary_abelian_correspondence(
                p, f, fp, width=max_index + 1)
            if computed != expected:
                violations.append((p, sorted(f), sorted(fp)))
    return VerificationReport("elementary-abelian-correspondence", count,
                              tuple(violations))


def suite_lzball_per_pair(max_n: int = 20, max_m: int = 3):
    """The package's former `suites.suite_lzball`: `lz_exp_ball` called once
    per check."""
    from balleans.suites import lz_exp_ball_windowed
    from balleans.witnesses import VerificationReport, lz_exp_ball

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


def suite_mu_index_per_pair():
    """The package's former `suites.suite_mu_index`: both `FiniteSubset`s
    rebuilt for every pair."""
    from balleans.ballean import FiniteSubset, mu_set_distance
    from balleans.groups import FiniteAbelianGroup, all_subgroups, fag_log_distance
    from balleans.witnesses import VerificationReport

    violations = []
    count = 0
    for factors in ((12,), (2, 4)):
        g = FiniteAbelianGroup(factors)
        for a, b in itertools.combinations_with_replacement(all_subgroups(g), 2):
            count += 1
            ya = FiniteSubset(g, a.elements())
            yb = FiniteSubset(g, b.elements())
            if mu_set_distance(ya, yb) != fag_log_distance(a, b):
                violations.append((factors, sorted(a.elements()),
                                   sorted(b.elements())))
    return VerificationReport("mu-equals-index-formula", count,
                              tuple(violations))


def cyclic_subgroup_tree_by_scan(g):
    """The package's former `witnesses.cyclic_subgroup_tree`: every ordered
    pair of vertices tested for an index-p containment edge."""
    from balleans.groups import FAGSubgroup
    from balleans.witnesses import TreeCertificate, _prime_power

    p, height = _prime_power(g.exponent)
    ms = g.invariant_factors
    subs = []
    generators: set = set()
    for x in g.elements():
        if x in generators:
            continue
        s = FAGSubgroup.from_elements(g, [x])
        subs.append(s)
        n = s.order
        generators.update(tuple(c * v % m for v, m in zip(x, ms))
                          for c in range(1, n + 1) if math.gcd(c, n) == 1)
    vertices = sorted(subs, key=lambda s: (s.order, s.lift.basis))
    orders = [v.order for v in vertices]
    elem_sets = [v.elements() for v in vertices]
    edges = [(j, i) for i in range(len(vertices)) for j in range(len(vertices))
             if orders[j] == orders[i] * p and elem_sets[i] <= elem_sets[j]]
    root = orders.index(1)
    n = len(vertices)
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
    return TreeCertificate(tuple(vertices), tuple(edges), root, height, is_tree)
