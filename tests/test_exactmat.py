import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from balleans import exactmat
from balleans.groups import FAGSubgroup, FiniteAbelianGroup
from balleans.lattices import (Lattice, lattice_from_generators, lattice_intersection,
                               lattice_sum, member, saturation)
from oracles import frac_det, frac_rank, hnf_by_echelon, in_integer_span, smith_invariants


def rand_matrix(rng, rows, cols, lim=9):
    return [[rng.randint(-lim, lim) for _ in range(cols)] for _ in range(rows)]


# up to 6x6 with entries in [-99, 99]: the old Smith elimination grew its
# entries to millions of bits from 5x5 on
wide = st.integers(min_value=-99, max_value=99)
wide_matrices = st.integers(1, 6).flatmap(
    lambda c: st.lists(st.lists(wide, min_size=c, max_size=c),
                       min_size=1, max_size=6))
wide_square = st.integers(2, 6).flatmap(
    lambda n: st.lists(st.lists(wide, min_size=n, max_size=n),
                       min_size=n, max_size=n))


def rand_smith_case(rng):
    """Up to 6x6 with entries in [-99, 99]. In about a third the last row is
    zero or the sum or difference of two rows drawn in [-49, 49], so the rank
    drops; in another third every row carries a common factor."""
    r, c = rng.randint(1, 6), rng.randint(1, 6)
    kind = rng.randrange(3)
    if kind == 0 and r > 2:
        m = rand_matrix(rng, r, c, 49)
        sign = rng.choice((-1, 0, 1))
        m[-1] = [x + sign * y for x, y in zip(m[0], m[1])] if sign else [0] * c
    elif kind == 1:
        m = []
        for _ in range(r):
            f = rng.choice((1, 2, 3, 6))
            m.append([f * x for x in rand_matrix(rng, 1, c, 99 // f)[0]])
    else:
        m = rand_matrix(rng, r, c, 99)
    return m


def rand_echelon_case(rng):
    """Up to 9x9, zero width and zero rows included, entries bounded by one
    of 1, 2, 5, 20 or 99; in about a third the last row is a combination of
    two others, and in another third every row carries a common factor."""
    r, c = rng.randint(0, 9), rng.randint(0, 9)
    m = rand_matrix(rng, r, c, rng.choice((1, 2, 5, 20, 99)))
    kind = rng.randrange(3)
    if kind == 0 and r > 2:
        f = rng.choice((-2, -1, 1, 3))
        m[-1] = [x + f * y for x, y in zip(m[0], m[1])]
    elif kind == 1:
        f = rng.choice((2, 3, 6))
        m = [[f * x for x in row] for row in m]
    return m


def check_reduced(h):
    """Row echelon, positive pivots, entries above each pivot in [0, pivot)."""
    cols = [next(j for j, x in enumerate(r) if x) for r in h]
    assert cols == sorted(set(cols))
    for i, (row, c) in enumerate(zip(h, cols)):
        assert row[c] > 0
        assert all(0 <= above[c] < row[c] for above in h[:i])


class TestRowHnf:
    def test_fixture(self):
        assert exactmat.row_hnf([[2, 4], [0, 3]]) == [[2, 1], [0, 3]]

    def test_empty_and_zero(self):
        assert exactmat.row_hnf([]) == []
        assert exactmat.row_hnf([[0, 0], [0, 0]]) == []

    @given(wide_matrices)
    @settings(max_examples=80, deadline=None)
    def test_idempotent(self, m):
        h = exactmat.row_hnf(m)
        assert exactmat.row_hnf(h) == h

    def test_canonical_under_unimodular_transform(self):
        rng = random.Random(11)
        for _ in range(40):
            m = rand_matrix(rng, 3, 3, 6)
            # random unimodular transform: shear + swap + sign flips
            u = [[1, 0, 0], [rng.randint(-3, 3), 1, 0],
                 [rng.randint(-3, 3), rng.randint(-3, 3), -1]]
            um = [[sum(u[i][k] * m[k][j] for k in range(3)) for j in range(3)]
                  for i in range(3)]
            assert exactmat.row_hnf(um) == exactmat.row_hnf(m)

    @given(wide_matrices)
    @settings(max_examples=80, deadline=None)
    def test_canonical_under_row_shuffle(self, m):
        h = exactmat.row_hnf(m)
        shuffled = list(reversed(m)) + [m[0]]
        assert exactmat.row_hnf(shuffled) == h

    @given(wide_matrices)
    @settings(max_examples=80, deadline=None)
    def test_same_integer_span(self, m):
        h = exactmat.row_hnf(m)
        assert frac_rank(m) == len(h)
        for row in m:
            assert in_integer_span(row, h)
        for row in h:
            assert in_integer_span(row, m)

    def test_pivots_positive_and_reduced(self):
        rng = random.Random(5)
        for _ in range(50):
            h = exactmat.row_hnf(rand_matrix(rng, 3, 3))
            pivots = []
            for r in h:
                c = next(i for i, v in enumerate(r) if v)
                assert r[c] > 0
                pivots.append((c, r[c]))
            for i, (c, p) in enumerate(pivots):
                for j in range(i):
                    assert 0 <= h[j][c] < p

    def test_rejects_ragged_and_floats(self):
        with pytest.raises(ValueError):
            exactmat.row_hnf([[1, 2], [3]])
        with pytest.raises(ValueError):
            exactmat.row_hnf([[1.5, 2]])
        with pytest.raises(ValueError):
            exactmat.row_hnf([[True, False]])


    @pytest.mark.parametrize("seed", range(8))
    def test_24x24_stays_fast(self, seed):
        # seed 3 took 30 s while entries were reduced only at the end
        m = rand_matrix(random.Random(seed), 24, 24, 99)
        t0 = time.perf_counter()
        h = exactmat.row_hnf(m)
        assert time.perf_counter() - t0 < 1.0
        # full rank: a reduced HNF holding every row, with the rows' index
        # |det m| as its pivot product, is the HNF of their span
        det = exactmat.abs_det(m)
        assert det and math.prod(r[i] for i, r in enumerate(h)) == det
        lat = Lattice(24, tuple(map(tuple, h)))
        assert all(member(r, lat) for r in m)
        check_reduced(h)


class TestAgainstEchelonOracle:
    """Every elimination route equals the former echelon-then-reduce HNF."""

    def test_routes_equal_echelon_then_reduce(self):
        rng = random.Random(14)
        for _ in range(2000):
            m = rand_echelon_case(rng)
            c = len(m[0]) if m else rng.randint(0, 9)
            h = exactmat.row_hnf(m)
            assert h == hnf_by_echelon(m), m
            for skip in range(c + 1):  # the rows zero on the first skip columns
                assert [r for r in h if not any(r[:skip])] == hnf_by_echelon(m, skip)
            aug = [r + [int(i == j) for j in range(len(m))] for i, r in enumerate(m)]
            assert exactmat.left_kernel(m) == [r[c:] for r in hnf_by_echelon(aug, c)]
            k = rng.randint(0, len(m))
            echelon = exactmat._extend(hnf_by_echelon(m[:k]), m[k:])
            # the HNF's pivot columns and pivots already, before the last pass
            assert [(c, r[c]) for r, c in zip(echelon, exactmat._pivots(echelon))] == \
                [(c, r[c]) for r, c in zip(h, exactmat._pivots(h))]
            assert exactmat._finish(echelon) == h
            a, b = lattice_from_generators(c, m[:k]), lattice_from_generators(c, m[k:])
            want = hnf_by_echelon(a.basis + b.basis)
            assert lattice_sum(a, b).basis == tuple(map(tuple, want))
            zassenhaus = [x + x for x in a.basis] + [y + (0,) * c for y in b.basis]
            want = [tuple(r[c:]) for r in hnf_by_echelon(zassenhaus, c)]
            assert lattice_intersection(a, b).basis == tuple(want)

    def test_lifts_equal_echelon_then_reduce(self):
        rng = random.Random(15)
        for _ in range(1000):
            parent = FiniteAbelianGroup.from_orders(
                [rng.choice((1, 2, 3, 4, 6, 12, 25)) for _ in range(rng.randint(0, 5))])
            ms = parent.invariant_factors
            gens = [tuple(rng.randrange(-99, 100) for _ in ms)
                    for _ in range(rng.randint(0, 4))]
            diag = [[m if j == i else 0 for j in range(len(ms))] for i, m in enumerate(ms)]
            want = hnf_by_echelon([list(parent.normalize(g)) for g in gens] + diag)
            assert FAGSubgroup.from_elements(parent, gens).lift.basis == tuple(map(tuple, want))


class TestLeftKernel:
    @given(wide_matrices)
    @settings(max_examples=80, deadline=None)
    def test_annihilates_and_complete(self, m):
        k = exactmat.left_kernel(m)
        for u in k:
            prod = [sum(c * row[j] for c, row in zip(u, m))
                    for j in range(len(m[0]))]
            assert not any(prod)
        assert len(k) == len(m) - frac_rank(m)
        # canonical, and saturated: with the rank and the annihilation above,
        # k spans the whole integer kernel
        assert exactmat.row_hnf(k) == k
        lat = lattice_from_generators(len(m), k)
        assert saturation(lat) == lat

    # 24 x 48 leaves 24 free columns, each a back-substituted kernel vector
    @pytest.mark.parametrize("seed, rows, cols", [(s, 31, 32) for s in range(4)]
                             + [(48, 24, 48)], ids=["0", "1", "2", "3", "24x48"])
    def test_31x32_saturation_stays_fast(self, seed, rows, cols):
        # seed 3 took 25 s while the kernel's transform block grew unreduced
        m = rand_matrix(random.Random(seed), rows, cols, 99)
        t0 = time.perf_counter()
        sat = saturation(lattice_from_generators(cols, m))
        assert time.perf_counter() - t0 < 1.0
        # holding every row, of the rows' rank, and pure: that is sat(H)
        assert all(member(r, sat) for r in m)
        assert sat.rank == frac_rank(m)
        assert exactmat.snf(sat.basis) == [1] * sat.rank

    def test_matches_echelon_oracle_past_several_image_rows(self):
        # the rows of the HNF of [m | I] that lead in m's columns, here
        # 2 to 6 of them, are no longer reduced; the kernel rows must not move
        rng = random.Random(30)
        for _ in range(300):
            c = rng.randint(2, 6)
            m = rand_matrix(rng, rng.randint(c + 1, 10), c, rng.choice((9, 99)))
            if rng.random() < 0.3:  # a repeated column lowers the rank
                m = [r + [r[0]] for r in m]
            aug = [r + [int(i == j) for j in range(len(m))] for i, r in enumerate(m)]
            assert frac_rank(m) >= 2
            assert exactmat.left_kernel(m) == \
                [r[len(m[0]):] for r in hnf_by_echelon(aug, len(m[0]))]

    def test_kernel_is_saturated(self):
        # a scaled kernel vector with unit content must itself be in the kernel
        k = exactmat.left_kernel([[2, 4], [1, 2], [3, 6]])
        assert len(k) == 2
        for u in k:
            assert in_integer_span(u, k)


def check_smith_chain(d, m):
    """Positive nonzero entries, each dividing the next, zeros after them,
    as many nonzeros as the rank."""
    nz = [x for x in d if x]
    assert all(x > 0 for x in nz)
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    assert d == nz + [0] * (len(d) - len(nz))
    assert len(d) == min(len(m), len(m[0]))
    assert len(nz) == frac_rank(m)


class TestSnf:
    def test_fixtures(self):
        assert exactmat.snf([[2, 0], [0, 3]]) == [1, 6]
        assert exactmat.snf([[4, 0], [0, 6]]) == [2, 12]
        assert exactmat.snf([[0, 0], [0, 0]]) == [0, 0]
        assert exactmat.snf([[2, 0, 0]]) == [2]
        assert exactmat.snf([[0], [4], [6]]) == [2]
        assert exactmat.snf([]) == []

    @given(wide_matrices)
    @settings(max_examples=60, deadline=None)
    def test_divisibility_chain(self, m):
        check_smith_chain(exactmat.snf(m), m)

    @given(wide_square)
    @settings(max_examples=60, deadline=None)
    def test_product_equals_det(self, m):
        assert math.prod(exactmat.snf(m)) == abs(frac_det(m))

    def test_matches_determinantal_divisors(self):
        rng = random.Random(12)
        for _ in range(1000):
            m = rand_smith_case(rng)
            assert exactmat.snf(m) == smith_invariants(m), m

    @pytest.mark.parametrize("n", [5, 6, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_past_the_old_cliff(self, n, seed):
        # the old elimination did not finish a 5x5 matrix at seed 0
        m = rand_matrix(random.Random(seed), n, n, 99)
        t0 = time.perf_counter()
        d = exactmat.snf(m)
        assert time.perf_counter() - t0 < 1.0
        assert d == smith_invariants(m)
        assert math.prod(d) == exactmat.abs_det(m)
        check_smith_chain(d, m)

    def test_matches_sympy(self):
        normalforms = pytest.importorskip("sympy.matrices.normalforms")
        from sympy import Matrix, ZZ
        rng = random.Random(13)
        for _ in range(200):
            m = rand_smith_case(rng)
            s = normalforms.smith_normal_form(Matrix(m), domain=ZZ)
            assert exactmat.snf(m) == [abs(s[i, i]) for i in
                                       range(min(len(m), len(m[0])))], m


class TestAbsDet:
    @given(st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(wide, min_size=n, max_size=n),
                           min_size=n, max_size=n)))
    @settings(max_examples=100, deadline=None)
    def test_matches_fraction_determinant(self, m):
        assert exactmat.abs_det(m) == abs(frac_det(m))

    def test_empty_is_one(self):
        assert exactmat.abs_det([]) == 1

    def test_not_square(self):
        with pytest.raises(ValueError):
            exactmat.abs_det([[1, 2]])


class TestSolveInteger:
    def test_fixtures(self):
        assert exactmat.solve_integer([[2, 0], [0, 3]], [4, 9]) == [2, 3]
        assert exactmat.solve_integer([[2]], [3]) is None
        assert exactmat.solve_integer([], [0, 0]) == []
        assert exactmat.solve_integer([], [1]) is None

    def test_rank_deficient_fixtures(self):
        m = [[2, 4], [1, 2], [3, 6]]
        got = exactmat.solve_integer(m, [5, 10])
        assert [sum(c * r[j] for c, r in zip(got, m)) for j in range(2)] == [5, 10]
        assert exactmat.solve_integer(m, [1, 3]) is None
        assert exactmat.solve_integer([[0, 0]], [0, 0]) is not None

    @given(wide_matrices, st.lists(st.integers(-9, 9), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_witness_is_valid(self, m, coeffs):
        coeffs = (coeffs + [0] * len(m))[: len(m)]
        target = [sum(c * row[j] for c, row in zip(coeffs, m))
                  for j in range(len(m[0]))]
        got = exactmat.solve_integer(m, target)
        assert got is not None
        rebuilt = [sum(c * row[j] for c, row in zip(got, m))
                   for j in range(len(m[0]))]
        assert rebuilt == target

    @given(wide_matrices, st.lists(wide, min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_membership_oracle(self, m, target):
        target = (target + [0] * len(m[0]))[: len(m[0])]
        got = exactmat.solve_integer(m, target)
        assert (got is not None) == in_integer_span(target, m)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            exactmat.solve_integer([[1, 2]], [1])
