import itertools
import json
import random
from collections import Counter

import pytest

from balleans.ballean import FiniteSubset
from balleans.groups import (
    PRIME_LIMIT,
    PRUFER_DISTANCE_DIGITS,
    AsdimReport,
    CardinalToken,
    FAGSubgroup,
    FiniteAbelianGroup,
    GroupDescriptor,
    OMEGA,
    PruferSubgroup,
    ReducedTorsionPart,
    ZERO,
    _is_prime,
    all_subgroups,
    asdim_classify,
    component_census,
    descriptor_finite_sylow,
    descriptor_free,
    descriptor_prufer_sum,
    descriptor_rationals,
    fag_log_distance,
    iso_points_classify,
    prufer_log_distance,
)
from balleans.lattices import ExtNat, INFINITE, lattice_from_generators
from oracles import (
    all_subgroup_element_sets,
    all_subgroups_by_closure,
    closure,
    element_count_mu,
    elements_by_membership,
    is_prime_by_trial_division,
    subspace_count,
)


def brute_order(orders, x):
    """Order of x in Z(m1) ⊕ ... by repeated addition."""
    n, cur = 1, list(x)
    while any(c % m for c, m in zip(cur, orders)):
        cur = [c + v for c, v in zip(cur, x)]
        n += 1
    return n


class TestFiniteAbelianGroup:
    def test_invariant_factor_validation(self):
        with pytest.raises(ValueError):
            FiniteAbelianGroup((4, 2))  # no divisibility chain
        with pytest.raises(ValueError):
            FiniteAbelianGroup((1,))

    def test_from_orders_canonicalizes(self):
        g = FiniteAbelianGroup.from_orders([6, 4])
        assert g.invariant_factors == (2, 12)
        assert g.order == 24 and g.exponent == 12

    def test_arithmetic(self):
        g = FiniteAbelianGroup((2, 4))
        assert g.add((1, 3), (1, 2)) == (0, 1)
        assert g.neg((1, 1)) == (1, 3)
        assert g.element_order((0, 1)) == 4
        assert len(list(g.elements())) == 8

    def test_normalize_refuses_coordinates_that_are_not_ints(self):
        # these were once rewritten: (1.5, 2) to (1, 2), ('3', 1) to (1, 1)
        g = FiniteAbelianGroup((2, 4))
        for bad in ((1.5, 2), ("3", 1), (True, 1), (1, None)):
            with pytest.raises(ValueError, match="must be integers"):
                g.normalize(bad)
            with pytest.raises(ValueError, match="must be integers"):
                FiniteSubset.of(g, [(0, 0), bad])
        with pytest.raises(ValueError, match="must be integers"):
            FiniteAbelianGroup((5,)).normalize(True)
        assert g.normalize((3, -1)) == (1, 3)
        assert FiniteAbelianGroup((5,)).normalize(7) == (2,)

    def test_from_orders_and_element_order_brute_force(self):
        for orders in ([1], [6], [4, 6], [2, 3, 4], [9, 6, 1], [8, 12, 2]):
            g = FiniteAbelianGroup.from_orders(orders)
            # same order, and the chain's last factor is the exponent
            box = list(itertools.product(*(range(m) for m in orders)))
            assert g.order == len(box)
            exponent = max((brute_order(orders, x) for x in box), default=1)
            assert g.exponent == exponent
            # the number of elements of each order is an isomorphism invariant
            counts = Counter(brute_order(orders, x) for x in box)
            assert Counter(brute_order(g.invariant_factors, e)
                           for e in g.elements()) == counts
        for factors in ((12,), (2, 4), (3, 9), (2, 2, 6)):
            g = FiniteAbelianGroup(factors)
            for e in g.elements():
                assert g.element_order(e) == brute_order(factors, e)


class TestFAGSubgroup:
    def test_generated_fixture(self):
        g = FiniteAbelianGroup((12,))
        s = FAGSubgroup.from_elements(g, [4])
        assert s.elements() == closure(g, [4]) == frozenset({(0,), (4,), (8,)})
        assert s.order == 3

    def test_trivial_and_whole(self):
        g = FiniteAbelianGroup((2, 4))
        assert FAGSubgroup.trivial(g).order == 1
        assert FAGSubgroup.whole(g).order == 8
        assert FAGSubgroup.from_elements(g, [(1, 0), (0, 1)]).order == 8

    def test_distance_fixtures(self):
        g = FiniteAbelianGroup((12,))
        a = FAGSubgroup.from_elements(g, [2])
        b = FAGSubgroup.from_elements(g, [3])
        assert fag_log_distance(a, b) == ExtNat.finite(3)
        assert fag_log_distance(a, a) == ExtNat.finite(1)
        g2 = FiniteAbelianGroup((2, 2))
        x = FAGSubgroup.from_elements(g2, [(1, 0)])
        y = FAGSubgroup.from_elements(g2, [(0, 1)])
        assert fag_log_distance(x, y) == ExtNat.finite(2)

    def test_parent_mismatch(self):
        a = FAGSubgroup.trivial(FiniteAbelianGroup((4,)))
        b = FAGSubgroup.trivial(FiniteAbelianGroup((6,)))
        with pytest.raises(ValueError):
            fag_log_distance(a, b)

    def test_lift_must_contain_diag_m(self):
        g = FiniteAbelianGroup((2, 4))
        with pytest.raises(ValueError, match="diag"):
            FAGSubgroup(g, lattice_from_generators(2, [[2, 0], [0, 8]]))
        with pytest.raises(ValueError, match="diag"):
            FAGSubgroup(g, lattice_from_generators(2, [[1, 1]]))
        with pytest.raises(ValueError, match="ambient"):
            FAGSubgroup(g, lattice_from_generators(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        s = FAGSubgroup.from_elements(g, [(1, 1)])
        assert FAGSubgroup(g, lattice_from_generators(2, [[1, 1], [0, 2]])) == s

    def test_elements_match_membership_filter(self):
        for factors in ((12,), (2, 4, 8), (3, 9), (4, 4, 4), (2,) * 5):
            for s in all_subgroups(FiniteAbelianGroup(factors)):
                elems = s.elements()
                assert elems == elements_by_membership(s)
                assert s.order == len(elems)
        rng = random.Random(11)
        for _ in range(150):
            g = FiniteAbelianGroup.from_orders(
                [rng.choice([2, 3, 4, 6, 8, 9]) for _ in range(rng.randint(1, 3))])
            gens = [tuple(rng.randrange(m) for m in g.invariant_factors)
                    for _ in range(rng.randint(0, 3))]
            s = FAGSubgroup.from_elements(g, gens)
            assert s.elements() == elements_by_membership(s) == closure(g, gens)
            assert s.order == len(s.elements())

    def test_all_subgroups_matches_closure_enumeration(self):
        for factors in ((12,), (2, 4), (3, 9)):
            g = FiniteAbelianGroup(factors)
            subs = all_subgroups(g)
            assert {s.elements() for s in subs} == all_subgroup_element_sets(g)
            for s in subs:
                assert s.order == len(s.elements())

    def test_all_subgroups_matches_tuple_closure(self):
        for factors in ((4, 4, 4), (2, 4, 8), (3, 9)):
            g = FiniteAbelianGroup(factors)
            subs = all_subgroups(g)
            old = all_subgroups_by_closure(g)
            assert len(subs) == len({s.lift for s in subs}) == len(old)
            assert {s.elements() for s in subs} == {s.elements() for s in old}
            assert [(s.order, s.lift.basis) for s in subs] == \
                sorted((s.order, s.lift.basis) for s in subs)

    def test_all_subgroups_counts_match_gaussian_binomials(self):
        assert [subspace_count(2, k) for k in range(7)] == [1, 2, 5, 16, 67, 374, 2825]
        assert [subspace_count(3, k) for k in range(5)] == [1, 2, 6, 28, 212]
        for p, top in ((2, 6), (3, 4)):
            for k in range(top + 1):
                g = FiniteAbelianGroup((p,) * k)
                assert len(all_subgroups(g)) == subspace_count(p, k)

    def test_all_subgroups_guard(self):
        with pytest.raises(ValueError, match="too large"):
            all_subgroups(FiniteAbelianGroup((2,) * 8))

    def test_distance_matches_element_counting(self):
        g = FiniteAbelianGroup((2, 4))
        subs = all_subgroups(g)
        for a in subs:
            for b in subs:
                d = fag_log_distance(a, b)
                assert d.value == element_count_mu(g, a.elements(), b.elements())


class TestPrufer:
    def test_distance_fixtures(self):
        assert prufer_log_distance(PruferSubgroup(2, 3),
                                   PruferSubgroup(2, 5)) == ExtNat.finite(4)
        assert prufer_log_distance(PruferSubgroup(2, 4),
                                   PruferSubgroup(2, 4)) == ExtNat.finite(1)
        assert prufer_log_distance(PruferSubgroup(2, None),
                                   PruferSubgroup(2, 7)) == INFINITE
        assert prufer_log_distance(PruferSubgroup(2, None),
                                   PruferSubgroup(2, None)) == ExtNat.finite(1)

    def test_prime_validation(self):
        with pytest.raises(ValueError):
            PruferSubgroup(4, 1)
        with pytest.raises(ValueError):
            prufer_log_distance(PruferSubgroup(2, 1), PruferSubgroup(3, 1))

    def test_gap_past_the_digit_bound_refused(self):
        cap = 10 ** PRUFER_DISTANCE_DIGITS
        for p in (2, 3, 10 ** 18 + 3):
            gap = 0  # the largest gap with p^gap below the cap
            while p ** (gap + 1) < cap:
                gap += 1
            far = PruferSubgroup(p, gap)
            assert prufer_log_distance(PruferSubgroup(p, 0), far).value == p ** gap
            for level in (gap + 1, 10 ** 12, 10 ** 4000):
                with pytest.raises(ValueError, match="PRUFER_DISTANCE_DIGITS"):
                    prufer_log_distance(PruferSubgroup(p, 0), PruferSubgroup(p, level))


class TestIsPrime:
    def test_matches_trial_division_below_1e5(self):
        assert [n for n in range(-3, 10 ** 5)
                if _is_prime(n) != is_prime_by_trial_division(n)] == []

    def test_strong_pseudoprimes_and_large_primes(self):
        # 3215031751 passes bases 2, 3, 5 and 7; 3825123056546413051 every
        # base up to 23; psi_12 every base up to 37, and fails 41
        for n in (3215031751, 3825123056546413051, 318665857834031151167461):
            assert not _is_prime(n)
        assert _is_prime(10 ** 18 + 3)

    def test_refuses_past_the_limit(self):
        with pytest.raises(ValueError, match="PRIME_LIMIT"):
            _is_prime(PRIME_LIMIT)
        assert not _is_prime(2 * PRIME_LIMIT)  # a small factor still decides

    def test_matches_sympy_on_20_to_24_digits(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(24)
        draws = [rng.randrange(10 ** 19, 10 ** 24) for _ in range(2000)]
        draws += [sympy.nextprime(n) for n in draws[:200]]
        assert [n for n in draws if _is_prime(n) != sympy.isprime(n)] == []


class TestDescriptors:
    def test_json_round_trip(self):
        d = GroupDescriptor(
            free_rank=CardinalToken.finite(2),
            q_rank=OMEGA,
            prufer=((2, CardinalToken.finite(1)), (5, OMEGA)),
            reduced_torsion=((3, ReducedTorsionPart("finite", 27)),
                             (7, ReducedTorsionPart("layerly_finite"))),
        )
        assert GroupDescriptor.from_json(
            json.loads(json.dumps(d.to_json()))) == d

    def test_cardinal_tokens(self):
        assert CardinalToken.from_json("omega") == OMEGA
        big = CardinalToken.two_to_the(OMEGA)
        assert CardinalToken.from_json(big.to_json()) == big
        assert str(big) == "2^omega"

    def test_validation(self):
        with pytest.raises(ValueError):
            GroupDescriptor(prufer=((4, CardinalToken.finite(1)),))
        one = CardinalToken.finite(1)
        for primes in ((3, 2), (2, 2), (2, 5, 3)):
            with pytest.raises(ValueError, match="Pruefer primes must be strictly"):
                GroupDescriptor(prufer=tuple((p, one) for p in primes))
            with pytest.raises(ValueError, match="reduced torsion primes must be"):
                GroupDescriptor(reduced_torsion=tuple(
                    (p, ReducedTorsionPart("finite", p)) for p in primes))
        GroupDescriptor(prufer=((2, one), (3, one)),
                        reduced_torsion=((2, ReducedTorsionPart("finite", 4)),))


class TestIsoPoints:
    def test_size_table(self):
        # free of rank 1: one isolated subgroup
        assert iso_points_classify(descriptor_free(1)).size == CardinalToken.finite(1)
        # rationals: two
        assert iso_points_classify(descriptor_rationals(1)).size == CardinalToken.finite(2)
        # rationals squared: countably many
        assert iso_points_classify(descriptor_rationals(2)).size == OMEGA
        # infinitely many rational summands: 2^omega
        assert iso_points_classify(descriptor_rationals(OMEGA)).size == \
            CardinalToken.two_to_the(OMEGA)
        # reduced torsion kills all isolated points
        vec = GroupDescriptor(
            reduced_torsion=((2, ReducedTorsionPart("layerly_finite")),))
        assert iso_points_classify(vec).size == ZERO
        # a Pruefer group alone: divisible, free rank 0 -> one
        assert iso_points_classify(
            descriptor_prufer_sum({2: 1})).size == CardinalToken.finite(1)


class TestAsdim:
    def test_fixtures(self):
        assert asdim_classify(descriptor_free(1)).kind == "infinite"
        r = asdim_classify(descriptor_prufer_sum({2: 1}))
        assert (r.kind, r.n) == ("finite", 1)
        r = asdim_classify(descriptor_prufer_sum({2: 1, 3: 1, 5: 1}))
        assert (r.kind, r.n) == ("finite", 3)
        assert asdim_classify(
            descriptor_finite_sylow({2: 8, 3: 9})).kind == "zero"
        r = asdim_classify(descriptor_prufer_sum({2: 2}))
        assert (r.kind, r.lower_bound) == ("unknown", 2)

    def test_infinite_branches(self):
        assert asdim_classify(descriptor_rationals(1)).kind == "infinite"
        assert asdim_classify(
            descriptor_prufer_sum({2: OMEGA})).kind == "infinite"
        d = GroupDescriptor(
            reduced_torsion=((2, ReducedTorsionPart("not_layerly_finite")),))
        assert asdim_classify(d).kind == "infinite"

    def test_honest_unknown_for_infinite_layerly_finite_sylow(self):
        d = GroupDescriptor(
            reduced_torsion=((2, ReducedTorsionPart("layerly_finite")),))
        r = asdim_classify(d)
        assert r.kind == "unknown" and r.lower_bound >= 1

    def test_report_validation(self):
        with pytest.raises(ValueError):
            AsdimReport("unknown")


class TestComponentCensus:
    def test_fixtures(self):
        c = component_census("Z^n", n=1)
        assert c.count == CardinalToken.finite(2)
        assert component_census("Z^n", n=3).count == OMEGA
        assert component_census("prufer", prime=5).count == CardinalToken.finite(2)
        assert component_census("finite_abelian").count == CardinalToken.finite(1)
        c = component_census("exp_finitary", group_cardinality=OMEGA)
        assert c.count == CardinalToken.two_to_the(OMEGA)

    def test_errors(self):
        with pytest.raises(ValueError):
            component_census("wild-family")
        with pytest.raises(ValueError):
            component_census("exp_finitary",
                             group_cardinality=CardinalToken.finite(6))
