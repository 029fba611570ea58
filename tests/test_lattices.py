import json
import random

import pytest

from balleans.exactmat import row_hnf
from balleans.lattices import (
    ExtNat,
    INFINITE,
    Lattice,
    commensurable,
    full_lattice,
    index_in,
    lattice_from_generators,
    lattice_intersection,
    lattice_sum,
    log_subgroup_distance,
    member,
    pivot_product,
    saturation,
    trivial_lattice,
)
from oracles import (coset_count, frac_rank, in_integer_span, oracle_mu_prime,
                     saturation_by_two_kernels)


class TestExtNat:
    def test_ordering(self):
        assert ExtNat.finite(2) < ExtNat.finite(5) < INFINITE
        assert max(ExtNat.finite(3), INFINITE) == INFINITE

    def test_multiplication(self):
        assert ExtNat.finite(3) * ExtNat.finite(4) == ExtNat.finite(12)
        assert ExtNat.finite(3) * INFINITE == INFINITE

    def test_log(self):
        assert ExtNat.finite(8).log(2) == pytest.approx(3.0)
        assert ExtNat.finite(1).log() == 0.0
        assert INFINITE.log() == float("inf")
        for base in (1.0, 0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                ExtNat.finite(2).log(base)

    def test_json_round_trip(self):
        for v in (ExtNat.finite(7), INFINITE):
            assert ExtNat.from_json(json.loads(json.dumps(v.to_json()))) == v

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ExtNat.finite(0)

    @pytest.mark.parametrize("data", [2.7, 2.0, True, False, "2", None, [2]])
    def test_json_rejects_non_integers(self, data):
        with pytest.raises(ValueError):
            ExtNat.from_json(data)


class TestConstruction:
    def test_canonical_equality(self):
        a = lattice_from_generators(2, [[2, 4], [0, 6]])
        b = lattice_from_generators(2, [[2, 10], [0, -6], [2, 4]])
        assert a == b  # same span, bit-identical canonical form

    def test_trivial_and_full(self):
        assert trivial_lattice(3).rank == 0
        assert full_lattice(3).rank == 3
        assert member([5, -7, 2], full_lattice(3))
        assert not member([1, 0, 0], trivial_lattice(3))

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            lattice_from_generators(2, [[1, 2, 3]])

    def test_json_round_trip(self):
        lat = lattice_from_generators(2, [[2, 4]])
        assert Lattice.from_json(json.loads(json.dumps(lat.to_json()))) == lat

    @pytest.mark.parametrize("ambient", [2.0, "2", True, None])
    def test_rejects_non_integer_ambient(self, ambient):
        with pytest.raises(ValueError):
            Lattice.from_json({"ambient": ambient, "basis": [[2, 4]]})
        with pytest.raises(ValueError):
            lattice_from_generators(ambient, [[3]])

    @pytest.mark.parametrize("data", [
        {"ambient": 2}, {"basis": [[2, 4]]}, {}, [1, 2], "x", None, 3,
        {"ambient": 2, "basis": None}, {"ambient": 2, "basis": [2, 4]},
        {"ambient": 2, "basis": [[2, "4"]]}, {"ambient": 2, "basis": [[2.0, 4]]},
        {"ambient": 1, "basis": [[True]]}, {"ambient": 2, "basis": [[2, 4, 6]]},
    ])
    def test_json_rejects_malformed_shapes(self, data):
        with pytest.raises(ValueError):
            Lattice.from_json(data)


class TestMembershipSumIntersection:
    def test_member_oracle(self):
        rng = random.Random(2)
        for _ in range(60):
            gens = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(2)]
            lat = lattice_from_generators(3, gens)
            x = [rng.randint(-12, 12) for _ in range(3)]
            assert member(x, lat) == in_integer_span(x, gens)

    def test_sum_contains_both(self):
        a = lattice_from_generators(2, [[2, 0]])
        b = lattice_from_generators(2, [[0, 3]])
        s = lattice_sum(a, b)
        assert member([2, 0], s) and member([0, 3], s)
        assert s.rank == 2

    def test_intersection_fixture(self):
        a = lattice_from_generators(1, [[4]])
        b = lattice_from_generators(1, [[6]])
        assert lattice_intersection(a, b) == lattice_from_generators(1, [[12]])

    def test_intersection_is_largest_common(self):
        rng = random.Random(3)
        for _ in range(40):
            a = lattice_from_generators(
                2, [[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)])
            b = lattice_from_generators(
                2, [[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)])
            cap = lattice_intersection(a, b)
            for row in cap.basis:
                assert member(list(row), a) and member(list(row), b)
            # no common point strictly between: scan a small box
            for x in range(-4, 5):
                for y in range(-4, 5):
                    if member([x, y], a) and member([x, y], b):
                        assert member([x, y], cap)

    def test_intersection_canonical_with_the_right_rank_and_index(self):
        # rank(A∩B) = rank A + rank B - rank(A+B); at full rank
        # |Z^n : A∩B| = |Z^n : A| |Z^n : B| / |Z^n : A+B|, so a canonical
        # sublattice of both with that index is A∩B itself
        rng = random.Random(12)
        full = 0
        for _ in range(300):
            n = rng.randint(1, 6)
            a, b = (lattice_from_generators(
                n, [[rng.randint(-6, 6) for _ in range(n)]
                    for _ in range(rng.randint(0, n + 1))]) for _ in range(2))
            if rng.random() < 0.3:  # share rows, so A and B overlap more
                b = lattice_from_generators(n, list(a.basis[:1]) + list(b.basis))
            cap, s = lattice_intersection(a, b), lattice_sum(a, b)
            assert all(member(list(row), a) and member(list(row), b)
                       for row in cap.basis)
            assert row_hnf(cap.basis) == [list(r) for r in cap.basis]
            assert cap.rank == a.rank + b.rank - s.rank
            if a.rank == b.rank == n:
                full += 1
                assert pivot_product(cap) == \
                    pivot_product(a) * pivot_product(b) // pivot_product(s)
        assert full >= 30

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            lattice_sum(full_lattice(2), full_lattice(3))


class TestIndexAndSaturation:
    def test_index_fixtures(self):
        z = full_lattice(1)
        assert index_in(lattice_from_generators(1, [[6]]), z) == ExtNat.finite(6)
        assert index_in(trivial_lattice(1), z) == INFINITE
        assert index_in(trivial_lattice(1), trivial_lattice(1)) == ExtNat.finite(1)

    def test_index_not_subgroup(self):
        with pytest.raises(ValueError):
            index_in(lattice_from_generators(1, [[3]]),
                     lattice_from_generators(1, [[2]]))

    def test_index_multiplicative_in_towers(self):
        a = lattice_from_generators(2, [[4, 0], [0, 6]])
        b = lattice_from_generators(2, [[2, 0], [0, 3]])
        c = full_lattice(2)
        assert index_in(a, b) * index_in(b, c) == index_in(a, c)

    def test_full_rank_index_is_abs_det(self):
        rng = random.Random(9)
        from balleans import exactmat
        for _ in range(30):
            n = rng.choice([2, 3])
            gens = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            lat = lattice_from_generators(n, gens)
            if lat.rank == n:
                assert index_in(lat, full_lattice(n)) == \
                    ExtNat.finite(exactmat.abs_det(gens))

    def test_saturation_fixture(self):
        h = lattice_from_generators(2, [[2, 4]])
        assert saturation(h) == lattice_from_generators(2, [[1, 2]])

    def test_saturation_properties(self):
        rng = random.Random(4)
        for _ in range(40):
            n = rng.choice([2, 3])
            h = lattice_from_generators(
                n, [[rng.randint(-6, 6) for _ in range(n)]
                    for _ in range(rng.randint(0, n))])
            s = saturation(h)
            assert s.rank == h.rank
            assert saturation(s) == s
            if h.rank:
                assert index_in(h, s).is_finite


class TestDistance:
    def test_fixtures(self):
        d = log_subgroup_distance(lattice_from_generators(1, [[24]]),
                                  lattice_from_generators(1, [[18]]))
        assert d == ExtNat.finite(4)
        a = lattice_from_generators(2, [[1, 0]])
        b = lattice_from_generators(2, [[0, 1]])
        assert log_subgroup_distance(a, b) == INFINITE

    def test_identity_and_symmetry(self):
        rng = random.Random(5)
        for _ in range(30):
            a = lattice_from_generators(
                2, [[rng.randint(-6, 6) for _ in range(2)] for _ in range(2)])
            b = lattice_from_generators(
                2, [[rng.randint(-6, 6) for _ in range(2)] for _ in range(2)])
            assert log_subgroup_distance(a, a) == ExtNat.finite(1)
            assert log_subgroup_distance(a, b) == log_subgroup_distance(b, a)

    def test_commensurable_iff_finite(self):
        rng = random.Random(6)
        for _ in range(40):
            n = rng.choice([2, 3])
            a = lattice_from_generators(
                n, [[rng.randint(-5, 5) for _ in range(n)]
                    for _ in range(rng.randint(1, n))])
            b = lattice_from_generators(
                n, [[rng.randint(-5, 5) for _ in range(n)]
                    for _ in range(rng.randint(1, n))])
            assert commensurable(a, b) == log_subgroup_distance(a, b).is_finite

    def test_commensurable_iff_equal_saturation(self):
        rng = random.Random(7)
        for _ in range(40):
            a = lattice_from_generators(
                2, [[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)])
            b = lattice_from_generators(
                2, [[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)])
            assert commensurable(a, b) == (saturation(a) == saturation(b))

    def test_against_residue_counting_oracle(self):
        # n = 1..4 with 0..n+1 generators, so trivial and rank-deficient
        # pairs occur; entries stay small enough for coset counting
        rng = random.Random(8)
        bound = {1: 12, 2: 8, 3: 5, 4: 3}
        for _ in range(400):
            n = rng.randint(1, 4)
            ga, gb = ([[rng.randint(-bound[n], bound[n]) for _ in range(n)]
                       for _ in range(rng.randint(0, n + 1))] for _ in range(2))
            a = lattice_from_generators(n, ga)
            b = lattice_from_generators(n, gb)
            d = log_subgroup_distance(a, b)
            om = oracle_mu_prime(ga, gb)
            if om is None:
                assert not d.is_finite
            else:
                assert d == ExtNat.finite(om)
            assert commensurable(a, b) == (om is not None)
            # |A : A∩B| is finite iff rank B = rank(A+B), and then counts
            # the residues of A's points modulo B
            rb, rs = (frac_rank(g) if g else 0 for g in (gb, ga + gb))
            want = ExtNat.finite(coset_count(ga, gb)) if rb == rs else INFINITE
            assert index_in(lattice_intersection(a, b), a) == want


def _unimodular(rng, n):
    """A product of 2n random row additions, redrawn until its entries lie
    in [-8, 8], so that diag(a)·U with a_i <= 12 keeps entries within ±99."""
    while True:
        u = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(2 * n if n > 1 else 0):
            i, j = rng.sample(range(n), 2)
            u[i] = [x + rng.choice((-1, 1)) * y for x, y in zip(u[i], u[j])]
        if all(abs(x) <= 8 for row in u for x in row):
            return u


def _distance_pair(rng, n):
    """Generators of two subgroups of Z^n with entries in [-99, 99], and
    whether the pair is constructed (small indices). Random pairs have n - 1
    to n + 1 rows, or fewer; constructed ones are diag(a)·U and diag(b)·U in
    a random order, with zeros in a and b one time in three, in the same
    places half of those times; shared ones are two mixes of one set of
    fewer than n rows."""
    kind = rng.choice(("random", "random", "constructed", "shared")) if n else "random"
    if kind == "random":
        return ([[rng.randint(-99, 99) for _ in range(n)]
                 for _ in range(rng.randint(0, n + 1))] for _ in range(2)), False
    if kind == "shared":
        base = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(rng.randint(0, n - 1))]

        def mix():
            cs = [[rng.randint(-2, 2) for _ in base] for _ in range(len(base) + 1)]
            return [[sum(c * x for c, x in zip(row, col)) for col in zip(*base)]
                    for row in cs] if base else []

        return (mix(), mix()), False
    u = _unimodular(rng, n)
    a, b = ([rng.randint(1, 12) for _ in range(n)] for _ in range(2))
    if rng.random() < 1 / 3:
        zeros = set(rng.sample(range(n), rng.randint(1, n)))
        for i in zeros:
            a[i] = 0
        for i in zeros if rng.random() < 0.5 else {rng.randrange(n)}:
            b[i] = 0
    ga, gb = ([[x * v for v in row] for x, row in zip(d, u)] for d in (a, b))
    rng.shuffle(ga)
    return (ga, gb), True


class TestDistanceFromEchelonBasis:
    """mu' and commensurability are read off an echelon basis of A + B, not
    its canonical form: they equal the pivot formula over `lattice_sum`,
    and residue counting where the indices are small."""

    def test_matches_pivot_products_of_the_sum_and_residue_counts(self):
        rng = random.Random(28)
        seen = {"finite-deficient": 0, "finite-full": 0, "same-rank-infinite": 0,
                "rank-infinite": 0, "ambient-0": 0, "counted": 0}
        for _ in range(1500):
            n = rng.randint(0, 12)
            (ga, gb), constructed = _distance_pair(rng, n)
            a, b = lattice_from_generators(n, ga), lattice_from_generators(n, gb)
            s = lattice_sum(a, b)
            finite = a.rank == b.rank == s.rank
            want = (ExtNat.finite(max(pivot_product(a), pivot_product(b))
                                  // pivot_product(s)) if finite else INFINITE)
            assert log_subgroup_distance(a, b) == log_subgroup_distance(b, a) == want
            assert commensurable(a, b) == commensurable(b, a) == finite
            seen["ambient-0" if not n else
                 ("finite-full" if a.rank == n else "finite-deficient") if finite else
                 "same-rank-infinite" if a.rank == b.rank else "rank-infinite"] += 1
            if n <= 4 and (constructed or not finite):
                om = oracle_mu_prime(ga, gb)
                assert want == (INFINITE if om is None else ExtNat.finite(om))
                seen["counted"] += 1
        assert min(seen.values()) >= 20, seen


class TestSaturationByOneKernel:
    def test_matches_two_kernels_at_every_rank(self):
        # ranks 0..n for n = 0..12: r generators of a random span, scaled
        # by a random r x r matrix so that the span is seldom saturated
        rng = random.Random(29)
        for n in range(13):
            for r in range(n + 1):
                for _ in range(8):
                    base = [[rng.randint(-99, 99) for _ in range(n)] for _ in range(r)]
                    mix = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(r)]
                    gens = base + [[sum(c * row[j] for c, row in zip(m, base))
                                    for j in range(n)] for m in mix]
                    lat = lattice_from_generators(n, gens if rng.random() < 0.5 else gens[r:])
                    assert saturation(lat) == saturation_by_two_kernels(lat), gens
