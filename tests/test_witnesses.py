import itertools
import math
import os
import random
import threading
import time

import pytest

from balleans import ballean, suites
from balleans.ballean import (
    BalleanValidation,
    ExplicitBallean,
    cellularization,
    discrete_ballean,
    exp_hyperballean_of,
    hamming_distance,
)
from balleans.groups import FiniteAbelianGroup
from balleans.lattices import INFINITE, ExtNat, lattice_from_generators, log_subgroup_distance
from balleans.suites import (
    SUITES,
    exp_power_inclusion_holds,
    lz_exp_ball_windowed,
    random_ballean,
    run_all,
    suite_cellular,
    suite_lzball,
)
from balleans.witnesses import (
    PrimeTuple,
    TaxiPoint,
    TreeCertificate,
    _coordinate_subgroup,
    cyclic_subgroup_tree,
    dlog_closed_form,
    elementary_abelian_correspondence,
    hamming_embed,
    iota,
    lz_exp_ball,
    lz_exp_ball_general,
    lz_log_ball,
    prufer_ball,
    taxi_distance,
    verify_iota_quasi_isometry,
)

from oracles import (
    coordinate_subgroup_by_closure,
    cyclic_subgroup_tree_by_scan,
    exp_power_inclusion_by_sets,
    require_ball_structure,
    lz_exp_scan,
    lz_exp_window_by_sets,
    lz_log_scan,
    suite_elemab_per_pair,
    suite_hamming_per_pair,
    suite_iota_per_pair,
    suite_lzball_per_pair,
    suite_mu_index_per_pair,
)


class TestIota:
    def test_fixtures(self):
        pt = PrimeTuple((2, 3))
        assert iota(pt, TaxiPoint((3, 1))) == lattice_from_generators(1, [[24]])
        assert iota(pt, TaxiPoint((0, 0))) == lattice_from_generators(1, [[1]])
        assert iota(pt, TaxiPoint((1, 2))) == lattice_from_generators(1, [[18]])

    def test_prime_tuple_validation(self):
        with pytest.raises(ValueError):
            PrimeTuple((3, 2))
        with pytest.raises(ValueError):
            PrimeTuple((2, 4))

    def test_taxi_distance(self):
        assert taxi_distance(TaxiPoint((3, 1)), TaxiPoint((1, 2))) == 3
        assert taxi_distance(TaxiPoint((0, 0)), TaxiPoint((2, 5))) == 7
        with pytest.raises(ValueError):
            taxi_distance(TaxiPoint((1,)), TaxiPoint((1, 2)))


class TestDlogClosedForm:
    def test_fixtures(self):
        pt = PrimeTuple((2, 3))
        assert dlog_closed_form(pt, TaxiPoint((3, 1)),
                                TaxiPoint((1, 2))) == ExtNat.finite(4)
        assert dlog_closed_form(pt, TaxiPoint((2, 2)),
                                TaxiPoint((2, 2))) == ExtNat.finite(1)
        p2 = PrimeTuple((2,))
        assert dlog_closed_form(p2, TaxiPoint((3,)),
                                TaxiPoint((1,))) == ExtNat.finite(4)

    def test_matches_lattice_computation(self):
        pt = PrimeTuple((2, 3, 5))
        rng = random.Random(0)
        for _ in range(200):
            m = TaxiPoint(tuple(rng.randint(0, 6) for _ in range(3)))
            mp = TaxiPoint(tuple(rng.randint(0, 6) for _ in range(3)))
            assert dlog_closed_form(pt, m, mp) == \
                log_subgroup_distance(iota(pt, m), iota(pt, mp))

    def test_quasi_isometry_report(self):
        pt = PrimeTuple((2,))
        pairs = [(TaxiPoint((a,)), TaxiPoint((b,)))
                 for a in range(11) for b in range(11)]
        rep = verify_iota_quasi_isometry(pt, pairs)
        assert rep.ok and rep.samples == 121
        assert rep.max_ratio <= 1.0 + 1e-12  # single prime: exact isometry


class TestHammingEmbed:
    def test_fixtures(self):
        f10 = hamming_embed(2, TaxiPoint((1, 0)))
        f00 = hamming_embed(2, TaxiPoint((0, 0)))
        assert f10.support_set == {0, 1, 2}
        assert f00.support_set == {0, 1}
        assert hamming_distance(f10, f00) == 1
        f21 = hamming_embed(2, TaxiPoint((2, 1)))
        assert hamming_distance(f21, f00) == 3

    def test_isometry_exhaustive_n2(self):
        grid = [TaxiPoint(c) for c in itertools.product(range(5), repeat=2)]
        for m, mp in itertools.combinations(grid, 2):
            assert hamming_distance(hamming_embed(2, m), hamming_embed(2, mp)) \
                == taxi_distance(m, mp)


class TestElementaryAbelian:
    def test_fixtures(self):
        c, e = elementary_abelian_correspondence(2, {0, 1}, {1, 2})
        assert c == e == ExtNat.finite(2)
        c, e = elementary_abelian_correspondence(2, {0, 3}, {0, 3})
        assert c == e == ExtNat.finite(1)
        c, e = elementary_abelian_correspondence(3, {0}, set())
        assert c == e == ExtNat.finite(3)

    def test_small_sweep(self):
        subsets = [frozenset(c) for s in range(4)
                   for c in itertools.combinations(range(3), s)]
        for f, fp in itertools.combinations_with_replacement(subsets, 2):
            c, e = elementary_abelian_correspondence(2, f, fp, width=3)
            assert c == e

    def test_diagonal_lift_matches_generated_subgroup(self):
        for p in (2, 3, 5):
            for width in range(1, 6):
                g = FiniteAbelianGroup((p,) * width)
                for size in range(width + 1):
                    for f in itertools.combinations(range(width), size):
                        lifted = _coordinate_subgroup(g, frozenset(f))
                        assert lifted == coordinate_subgroup_by_closure(
                            g, f, width), (p, width, f)


def _outcome(check, b, max_n):
    try:
        return check(b, max_n)
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestExpPowerInclusion:
    def test_matches_set_route(self):
        rng = random.Random(70)
        for i in range(40):
            b = random_ballean(rng, max_size=6)
            for max_n in range(1, 5):
                assert exp_power_inclusion_holds(b, max_n) is True, (i, max_n)
                assert exp_power_inclusion_by_sets(b, max_n) is True, (i, max_n)

    def test_out_of_support_entries_raise_like_set_route(self):
        rng = random.Random(71)
        outcomes = set()
        for i in range(300):
            size = rng.randint(1, 5)
            radii = ("a", "b")[:rng.randint(1, 2)]
            # each ball holds its centre and up to three of the support's
            # points or two points beyond it
            table = {(x, a): frozenset({x} | set(rng.sample(range(size + 2),
                                                            rng.randint(0, 3))))
                     for x in range(size) for a in radii}
            outside = any(m >= size for ball in table.values() for m in ball)
            try:  # a table whose balls leave the support is refused when built
                b = ExplicitBallean(tuple(range(size)), radii, table)
            except ValueError as exc:
                assert outside, table
                with pytest.raises(ValueError, match=f"^{exc}$"):
                    require_ball_structure(tuple(range(size)), radii, table)
                outcomes.add(f"ValueError: {exc}")
                continue
            assert not outside, table
            for max_n in range(1, 5):
                got = _outcome(exp_power_inclusion_holds, b, max_n)
                assert got == _outcome(exp_power_inclusion_by_sets, b, max_n), \
                    (table, max_n)
                outcomes.add(got)
        assert outcomes == {True, "ValueError: unknown point or radius"}

    @pytest.mark.parametrize("keep", ["all", "outward", "inward"])
    def test_inflated_table_is_caught(self, monkeypatch, keep):
        # the law holds for every table exp_hyperballean_of returns, so make
        # both routes read a larger one: every subset, or only the Z within
        # B(Y) (which breaks the half Y within B^n(Z)), or only the Z with Y
        # within B(Z) (which breaks the half Z within B^n(Y)). The set route
        # reads exp_hyperballean_of, the mask route the exp ball bitsets of
        # _exp_tables, both in ballean.
        real, real_tables = ballean.exp_hyperballean_of, ballean._exp_tables
        kept = {"all": lambda z, y, inside: True,
                "outward": lambda z, y, inside: inside(z, y),
                "inward": lambda z, y, inside: inside(y, z)}[keep]

        def inflated(b):
            e = real(b)
            blown = {(y, a): b.set_ball(y, a) for y, a in e.balls}
            return ExplicitBallean(e.support, e.radii, {
                (y, a): frozenset(z for z in e.support if kept(
                    z, y, lambda u, v: u <= blown[(v, a)]))
                for y, a in e.balls})

        def inflated_tables(b):
            subsets, radii = real_tables(b)
            masks = range(1, len(subsets))
            return subsets, [(rows, blown, [
                sum(1 << z for z in masks
                    if kept(z, y, lambda u, v: not u & ~blown[v]))
                for y in range(len(subsets))]) for rows, blown, _ in radii]

        monkeypatch.setattr(ballean, "_exp_tables", inflated_tables)
        monkeypatch.setattr(ballean, "exp_hyperballean_of", inflated)
        b = discrete_ballean(range(2))
        assert exp_power_inclusion_holds(b, 1) is False
        assert exp_power_inclusion_by_sets(b, 1) is False
        rng = random.Random(72)
        results = []
        for i in range(30):
            b = random_ballean(rng, max_size=6)
            for max_n in (1, 3):
                got = exp_power_inclusion_holds(b, max_n)
                assert got == exp_power_inclusion_by_sets(b, max_n), (i, max_n)
                results.append(got)
        assert False in results and True in results


class TestCyclicSubgroupTree:
    def test_z4_z2_fixture(self):
        cert = cyclic_subgroup_tree(FiniteAbelianGroup((2, 4)))
        assert len(cert.vertices) == 6
        assert cert.is_tree and cert.height == 2
        root_sub = cert.vertices[cert.root]
        assert root_sub.order == 1
        # the three order-2 subgroups hang off the root
        root_children = [a for a, b in cert.edges if b == cert.root]
        assert len(root_children) == 3

    def test_chain_fixtures(self):
        cert = cyclic_subgroup_tree(FiniteAbelianGroup((8,)))
        assert len(cert.vertices) == 4 and cert.height == 3 and cert.is_tree
        cert = cyclic_subgroup_tree(FiniteAbelianGroup((5,)))
        assert len(cert.vertices) == 2 and cert.height == 1 and cert.is_tree

    def test_rejects_non_p_group(self):
        for orders in ((6,), (2, 6), (), (3, 12)):
            with pytest.raises(ValueError, match="not a p-group"):
                cyclic_subgroup_tree(FiniteAbelianGroup(orders))

    def test_matches_the_all_pairs_scan(self):
        groups = suites._abelian_p_groups(81)
        assert len(groups) == 64
        for g in groups:
            assert cyclic_subgroup_tree(g).to_json() == \
                cyclic_subgroup_tree_by_scan(g).to_json(), g.invariant_factors


class TestLzBalls:
    def test_exp_fixtures(self):
        assert lz_exp_ball(7, 2) == {7}
        assert lz_exp_ball(4, 0) == {4}
        assert lz_exp_ball_general(5, []) == {5}

    def test_exp_windowed_agreement(self):
        for n in range(1, 16):
            for m in range(0, 4):
                assert lz_exp_ball(n, m) == lz_exp_ball_windowed(n, m)

    def test_log_fixtures(self):
        assert lz_log_ball(6, 2) == {3, 6, 12}
        assert lz_log_ball(9, 1) == {9}
        assert lz_log_ball(1, 3) == {1, 2, 3}

    def test_log_ball_is_exact_sublevel_set(self):
        n, bound = 12, 4
        ball = lz_log_ball(n, bound)
        for m in range(1, n * bound * 2):
            l = n * m // math.gcd(n, m)
            assert (m in ball) == (max(l // n, l // m) <= bound)



class TestLzBallEnumerators:
    """The divisor enumerations against the candidate scans of
    `tests/oracles.py`, the windowed set arithmetic of `suites`, and each
    other."""

    def test_exp_matches_scan(self):
        rng = random.Random(4)
        cases = [(n, m) for n in range(1, 40) for m in range(0, 9)]
        cases += [(rng.randint(1, 600), rng.randint(0, 8)) for _ in range(60)]
        for n, m in cases:
            assert lz_exp_ball(n, m) == lz_exp_scan(n, range(1, m + 1)), (n, m)

    def test_exp_matches_window(self):
        rng = random.Random(5)
        cases = [(600, 8), (360, 8), (1, 8)]
        cases += [(rng.randint(1, 600), rng.randint(0, 8)) for _ in range(25)]
        for n, m in cases:
            assert lz_exp_ball(n, m) == lz_exp_ball_windowed(n, m), (n, m)

    def test_window_matches_set_route(self):
        # the characteristic vectors against the former route's Python sets
        # and the closed form: every n <= 120 with m <= 8, then seeded
        # random cases up to (600, 12)
        rng = random.Random(29)
        cases = [(n, m) for n in range(1, 121) for m in range(0, 9)]
        cases += [(rng.randint(1, 600), rng.randint(0, 12)) for _ in range(60)]
        for n, m in cases:
            assert lz_exp_ball_windowed(n, m) == lz_exp_window_by_sets(n, m) \
                == lz_exp_ball(n, m), (n, m)

    @pytest.mark.parametrize("n,m,message", [
        (0, 1, "n must be >= 1"),
        (-2, 1, "n must be >= 1"),
        (3, -1, "radius bound must be >= 0"),
        (0, -1, "radius bound must be >= 0"),
    ])
    def test_window_refuses_what_the_closed_form_refuses(self, n, m, message):
        for route in (lz_exp_ball, lz_exp_ball_windowed):
            with pytest.raises(ValueError, match=f"^{message}$"):
                route(n, m)

    def test_general_matches_closed_form(self):
        rng = random.Random(6)
        cases = [(n, m) for n in range(1, 60) for m in range(0, 9)]
        cases += [(rng.randint(1, 600), rng.randint(0, 8)) for _ in range(200)]
        for n, m in cases:
            assert lz_exp_ball_general(n, range(1, m + 1)) == lz_exp_ball(n, m)

    def test_general_matches_scan(self):
        rng = random.Random(7)
        for _ in range(800):
            n = rng.randint(1, 120)
            radius = [rng.randint(-3 * n, 3 * n)
                      for _ in range(rng.randint(0, 6))]
            assert lz_exp_ball_general(n, radius) == lz_exp_scan(n, radius), \
                (n, radius)
        for n in range(1, 30):
            assert lz_exp_ball_general(n, []) == lz_exp_scan(n, []) == {n}

    def test_log_matches_scan(self):
        rng = random.Random(8)
        cases = [(n, k) for n in range(1, 200) for k in range(1, 9)]
        cases += [(rng.randint(200, 2000), rng.randint(1, 8)) for _ in range(150)]
        for n, k in cases:
            assert lz_log_ball(n, k) == lz_log_scan(n, k), (n, k)

    @pytest.mark.parametrize("n, bound", [(3 * 10 ** 7, 2), (720720, 12)])
    def test_log_large_members(self, n, bound):
        ball = lz_log_ball(n, bound)
        assert n in ball
        for m in ball:
            l = n * m // math.gcd(n, m)
            assert max(l // n, l // m) <= bound
            g = math.gcd(n, m)
            a, b = n // g, m // g
            assert a <= bound and b <= bound and m == n // a * b

    def test_exp_singleton_above_3m(self):
        assert lz_exp_ball(10 ** 30, 10 ** 6) == {10 ** 30}
        assert lz_exp_ball(3 * 10 ** 6 + 1, 10 ** 6) == {3 * 10 ** 6 + 1}
        assert lz_exp_ball(3 * 10 ** 6, 10 ** 6) == {10 ** 6, 2 * 10 ** 6,
                                                      3 * 10 ** 6}

    def test_budget_refusals(self):
        with pytest.raises(ValueError, match="LZ-log ball needs 1000000000 "
                           "candidates; LZ enumeration allows at most 1000000"):
            lz_log_ball(1, 10 ** 9)
        with pytest.raises(ValueError, match="LZ-log ball needs 1000000000 "
                           "trial divisions"):
            lz_log_ball(10 ** 30, 10 ** 9)
        with pytest.raises(ValueError, match="LZ-exp ball needs [0-9]+ "
                           "candidates; LZ enumeration allows at most 1000000"):
            lz_exp_ball(10 ** 6, 10 ** 9)
        with pytest.raises(ValueError, match="LZ-exp ball needs [0-9]+ "
                           "trial divisions"):
            lz_exp_ball(10 ** 30, 10 ** 30)


class TestPruferBall:
    def test_fixtures(self):
        assert prufer_ball(2, 5, 4) == {3, 4, 5, 6, 7}
        assert prufer_ball(7, 3, 1) == {3}
        assert prufer_ball(3, 0, 3) == {0, 1}

    def test_size_growth(self):
        for k in range(0, 4):
            ball = prufer_ball(2, 10, 2 ** k)
            assert len(ball) == 2 * k + 1


class TestSuites:
    def test_all_suites_pass(self):
        for rep in run_all(seed=0):
            assert rep.ok, rep.to_json()

    def test_deterministic_under_seed(self):
        a = suite_cellular(count=5, seed=3)
        b = suite_cellular(count=5, seed=3)
        assert a == b

    @pytest.mark.parametrize("suite", [suites.suite_iota, suites.suite_hamming])
    @pytest.mark.parametrize("max_coord", [0, -3])
    def test_max_coord_below_one_refused(self, suite, max_coord):
        # a one-point grid has no pairs: the suite would pass with 0 samples
        with pytest.raises(ValueError, match="max_coord must be >= 1"):
            suite(max_coord=max_coord)

    def test_max_coord_one_has_samples(self):
        assert suites.suite_iota(max_coord=1).samples > 0
        assert suites.suite_hamming(max_coord=1).samples > 0

    # the largest grid each suite admits: 256^2 = 65536 points for iota, and
    # 19^2 = 361 points, so 361 * 362 / 2 = 65341 pairs, for hamming
    @pytest.mark.parametrize("suite, at_limit, samples", [
        (suites.suite_iota, 255, 300), (suites.suite_hamming, 18, 65341)])
    def test_grid_at_the_limit_in_seconds(self, suite, at_limit, samples):
        assert suites.GRID_LIMIT == 65536
        start = time.perf_counter()
        report = suite(max_coord=at_limit)
        assert time.perf_counter() - start < 5.0
        assert report.ok and report.samples == samples

    @pytest.mark.parametrize("suite, past_limit, count", [
        (suites.suite_iota, 256, "66049 points"),
        (suites.suite_hamming, 19, "80200 pairs"),
        # 10^10 points, which would take hours to build
        (suites.suite_iota, 99999, "10000000000 points")])
    def test_grid_past_the_limit_refused(self, suite, past_limit, count):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"has {count}; GRID_LIMIT allows "
                                             f"at most 65536"):
            suite(max_coord=past_limit)
        assert time.perf_counter() - start < 1.0

    def test_suite_registry(self):
        assert set(SUITES) == {"iota", "hamming", "elemab", "tree", "lzball",
                               "mu-index", "cellular", "axioms"}


# each skew makes a compared function wrong on some inputs, so that the
# suite and its former route both list violations, in the same order
SKEWED_ROUTES = [
    ("suite_iota", suite_iota_per_pair, "dlog_closed_form",
     ("suites", "witnesses"),
     lambda real: lambda pt, m, mp: real(pt, m, mp) * ExtNat.finite(
         1 + (m.coords[0] == 1))),
    ("suite_hamming", suite_hamming_per_pair, "taxi_distance",
     ("suites", "witnesses"),
     lambda real: lambda m, mp: real(m, mp) + (m.coords[-1] == 2)),
    ("suite_elemab", suite_elemab_per_pair, "elementary_abelian_closed_form",
     ("suites", "witnesses"),
     lambda real: lambda p, f, fp: real(p, f, fp) * ExtNat.finite(
         1 + (0 in f and p == 3))),
    ("suite_lzball", suite_lzball_per_pair, "lz_exp_ball_windowed",
     ("suites",),
     lambda real: lambda n, m: set() if n % 7 == 0 else real(n, m)),
    ("suite_mu_index", suite_mu_index_per_pair, "mu_set_distance",
     ("suites", "ballean"),
     lambda real: lambda y, z: real(y, z) * ExtNat.finite(
         1 + (len(y.elements) == 2))),
]


def _skew(monkeypatch, name, modules, skew):
    wrong = skew(getattr(suites, name))
    for mod in modules:
        monkeypatch.setattr(f"balleans.{mod}.{name}", wrong)


class TestSuitesMatchPerPairRoutes:
    """The suites build each point's lift, embedding or subset once; the
    former routes in `tests/oracles.py` rebuild them for every pair, and
    must give equal reports, violations included."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("primes,max_coord",
                             [((2, 3), 1), ((2, 3), 3), ((2, 3), 6), ((2, 3, 5), 3)])
    def test_iota(self, seed, primes, max_coord):
        kw = dict(primes=primes, max_coord=max_coord, seed=seed)
        assert suites.suite_iota(**kw) == suite_iota_per_pair(**kw)

    @pytest.mark.parametrize("n,max_coord", [(2, 1), (2, 3), (2, 6), (3, 3)])
    def test_hamming(self, n, max_coord):
        assert suites.suite_hamming(n, max_coord) == \
            suite_hamming_per_pair(n, max_coord)

    @pytest.mark.parametrize("primes,max_index", [((2, 3), 4), ((5,), 2)])
    def test_elemab(self, primes, max_index):
        assert suites.suite_elemab(primes, max_index) == \
            suite_elemab_per_pair(primes, max_index)

    def test_lzball_and_mu_index(self):
        assert suites.suite_lzball() == suite_lzball_per_pair()
        assert suites.suite_lzball(7, 1) == suite_lzball_per_pair(7, 1)
        assert suites.suite_mu_index() == suite_mu_index_per_pair()

    @pytest.mark.parametrize("suite,route,name,modules,skew", SKEWED_ROUTES)
    def test_violations_reported_alike(self, monkeypatch, suite, route, name,
                                       modules, skew):
        _skew(monkeypatch, name, modules, skew)
        report = getattr(suites, suite)()
        assert report.violations
        assert report == route()


class TestFanOut:
    """`suites._fan_out` splits a suite's samples over forked children when
    more than one core is usable; the reports must not depend on it."""

    @pytest.fixture
    def cores(self, monkeypatch):
        """use(n) makes n cores usable; forks lists every fork since."""
        forks = []
        real_fork = os.fork

        def fork():
            forks.append(os.getpid())
            return real_fork()

        def use(n):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid: set(range(n)), raising=False)
            forks.clear()

        monkeypatch.setattr(os, "fork", fork)
        use.forks = forks
        return use

    @staticmethod
    def _no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("name,seed", [
        ("elemab", 0), ("tree", 0), ("lzball", 0),
        *((name, seed) for name in ("cellular", "axioms")
          for seed in (0, 1, 7, 1003))])
    def test_reports_equal_on_one_and_two_cores(self, cores, name, seed):
        # lzball runs in-process on any number of cores: forking costs it
        # more than it saves
        reports = []
        for n, forked in ((1, False), (2, name != "lzball")):
            cores(n)
            reports.append(suites.run_suite(name, seed))
            assert bool(cores.forks) == forked
        assert reports[0] == reports[1]
        assert reports[0].ok and reports[0].samples > 0
        self._no_child_left()

    @pytest.mark.parametrize("suite,route,name,modules,skew", SKEWED_ROUTES)
    def test_violations_reported_alike_on_two_cores(self, monkeypatch, cores,
                                                    suite, route, name,
                                                    modules, skew):
        _skew(monkeypatch, name, modules, skew)
        cores(2)
        report = getattr(suites, suite)()
        assert report.violations
        assert report == route()

    @pytest.mark.parametrize("n", [2, 3])
    def test_results_in_input_order(self, cores, n):
        cores(n)
        out = suites._fan_out(lambda s: [(s, os.getpid())], list(range(11)))
        assert [s for s, _ in out] == list(range(11))
        pids = [pid for _, pid in out]
        assert pids[0::n] == [os.getpid()] * len(pids[0::n])
        assert len(set(pids)) == n and len(cores.forks) == n - 1
        self._no_child_left()

    @pytest.mark.parametrize("bad", [6, 7])  # the caller's slice, a child's
    def test_exception_surfaces_and_children_are_reaped(self, cores, bad):
        def check(s):
            if s == bad:
                raise ArithmeticError(f"sample {s} is bad")
            return [s]

        cores(2)
        with pytest.raises(ArithmeticError, match="^sample %d is bad$" % bad):
            suites._fan_out(check, list(range(10)))
        assert cores.forks
        self._no_child_left()

    def test_interrupt_kills_a_busy_child(self, cores):
        class Interrupt(BaseException):
            pass

        def check(s):
            if s == 0:
                raise Interrupt()
            time.sleep(60)  # only the child's slice gets here
            return []

        cores(2)
        start = time.perf_counter()
        with pytest.raises(Interrupt):
            suites._fan_out(check, [0, 1])
        assert time.perf_counter() - start < 10
        self._no_child_left()

    def test_second_thread_keeps_work_in_process(self, cores):
        cores(2)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait, args=(30,))
        other.start()
        try:
            out = suites._fan_out(lambda s: [os.getpid()], list(range(8)))
        finally:
            stop.set()
            other.join(timeout=30)
        assert not other.is_alive()
        assert out == [os.getpid()] * 8 and not cores.forks


class TestSuitesReportTheirOwnViolations:
    """A closed form made wrong on known pairs: each suite lists exactly
    those pairs, in-process and with a forked child computing part of them,
    and a child's exception reaches the caller."""

    @pytest.fixture(params=[1, 2], ids=["one-worker", "two-workers"])
    def workers(self, request, monkeypatch):
        forks = []
        real_fork = os.fork

        def fork():
            forks.append(os.getpid())
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(suites, "_workers", lambda samples: request.param)
        return request.param, forks

    def test_elemab_lists_the_wrong_pairs(self, monkeypatch, workers):
        real = suites.elementary_abelian_closed_form
        monkeypatch.setattr(suites, "elementary_abelian_closed_form", lambda p, f, fp: (
            real(p, f, fp) * ExtNat.finite(3 if p == 3 and f == {0} else 1)))
        report = suites.suite_elemab()
        # subsets of {0..4} by size, then in combination order; {0} is the
        # second, so the pairs ({0}, F') with F' from {0} on are the wrong ones
        subsets = [sorted(c) for k in range(6) for c in itertools.combinations(range(5), k)]
        assert report.violations == tuple((3, [0], fp) for fp in subsets[1:])
        assert report.samples == 2 * 32 * 33 // 2
        k, forks = workers
        assert len(forks) == k - 1
        TestFanOut._no_child_left()

    def test_iota_lists_the_wrong_pairs(self, monkeypatch, workers):
        # with 4^2 grid points every pair is checked, in combination order;
        # a closed form of 2 keeps each of these pairs inside the
        # quasi-isometry bounds, so only the closed-form check fires
        wrong_pairs = [((0, 0), (0, 1)), ((1, 1), (1, 2)), ((2, 0), (2, 2))]
        real = suites.dlog_closed_form
        monkeypatch.setattr(suites, "dlog_closed_form", lambda pt, m, mp: (
            ExtNat.finite(2) if (m.coords, mp.coords) in wrong_pairs else real(pt, m, mp)))
        report = suites.suite_iota(max_coord=3)
        assert report.samples == 16 * 15 // 2
        assert report.violations == tuple(("closed-form", m, mp) for m, mp in wrong_pairs)
        assert not workers[1]  # iota checks its pairs in-process

    def test_lzball_lists_the_wrong_cases(self, monkeypatch, workers):
        # n itself dropped from the ball of (3, 2) and of (5, 1); cases run
        # n by n, m by m within each; (3, 2) has n <= 3m, so only the window
        # disagrees, while (5, 1) also breaks the singleton law
        real = suites.lz_exp_ball
        monkeypatch.setattr(suites, "lz_exp_ball", lambda n, m: (
            real(n, m) - {n} if (n, m) in {(3, 2), (5, 1)} else real(n, m)))
        report = suites.suite_lzball()
        assert report.samples == 20 * 4
        assert report.violations == (("window-mismatch", 3, 2),
                                      ("window-mismatch", 5, 1),
                                      ("singleton", 5, 1))
        assert not workers[1]  # lzball checks its cases in-process

    def test_iota_lists_the_quasi_isometry_violations(self, monkeypatch, workers):
        # a closed form of 1 at taxi distance 2 breaks b^t <= mu'^n, one of
        # 1000 at taxi distance 1 breaks mu' <= P^t; the closed-form entries
        # come first, then the quasi-isometry ones, each in pair order
        wrong = {((0, 0), (1, 1)): 1, ((0, 1), (0, 2)): 1000}
        real = suites.dlog_closed_form
        monkeypatch.setattr(suites, "dlog_closed_form", lambda pt, m, mp: (
            ExtNat.finite(wrong[m.coords, mp.coords]) if (m.coords, mp.coords) in wrong
            else real(pt, m, mp)))
        report = suites.suite_iota(max_coord=3)
        assert report.violations == (("closed-form", (0, 0), (1, 1)),
                                     ("closed-form", (0, 1), (0, 2)),
                                     ("lower", (0, 0), (1, 1)),
                                     ("upper", (0, 1), (0, 2)))
        assert not workers[1]

    def test_tree_lists_the_wrong_groups(self, monkeypatch, workers):
        # groups run by prime, then by order; (2, 2) is no tree, (3, 9) loses
        # an edge and (49,) both
        real = suites.cyclic_subgroup_tree

        def wrong(g):
            cert = real(g)
            ms = g.invariant_factors
            return TreeCertificate(cert.vertices,
                                   cert.edges[1:] if ms in {(3, 9), (49,)} else cert.edges,
                                   cert.root, cert.height,
                                   cert.is_tree and ms not in {(2, 2), (49,)})

        monkeypatch.setattr(suites, "cyclic_subgroup_tree", wrong)
        report = suites.suite_tree()
        assert report.samples == 64
        assert report.violations == (("not-a-tree", (2, 2)), ("edge-count", (3, 9)),
                                     ("not-a-tree", (49,)), ("edge-count", (49,)))
        k, forks = workers
        assert len(forks) == k - 1
        TestFanOut._no_child_left()

    def test_cellular_lists_the_wrong_balleans(self, monkeypatch, workers):
        # the 25 balleans suite_cellular draws at seed 0, in its order; each
        # picked one, and its exp hyperballean, is unique among them. Ballean
        # 3 is called invalid, and so its other checks are skipped
        rng = random.Random(0)
        drawn = [random_ballean(rng, max_size=5) for _ in range(25)]
        invalid, no_power, no_cells = ([drawn[i] for i in picks]
                                       for picks in ((3,), (3, 6, 18), (3, 8, 18)))
        hypers = [exp_hyperballean_of(cellularization(b)) for b in no_cells]
        real_validate, real_power, real_cellular = (
            suites.validate_ballean, suites.exp_power_inclusion_holds, suites.is_cellular)
        monkeypatch.setattr(suites, "validate_ballean", lambda b: (
            BalleanValidation(False) if b in invalid else real_validate(b)))
        monkeypatch.setattr(suites, "exp_power_inclusion_holds", lambda b, max_n: (
            b not in no_power and real_power(b, max_n=max_n)))
        monkeypatch.setattr(suites, "is_cellular", lambda h: h not in hypers and real_cellular(h))
        report = suites.suite_cellular()
        assert report.samples == 25
        assert report.violations == (("generator-invalid", 3), ("power-inclusion", 6),
                                     ("exp-not-cellular", 8), ("power-inclusion", 18),
                                     ("exp-not-cellular", 18))
        k, forks = workers
        assert len(forks) == k - 1
        TestFanOut._no_child_left()

    def test_axioms_list_the_wrong_triples(self, monkeypatch, workers):
        # the triples suite_axioms(seed=0, triples=6) draws, in its order:
        # six of lattices of Z^2, then six of sets
        rng = random.Random(0)
        lats = [[lattice_from_generators(2, suites._random_rows(rng, 2, 6)) for _ in "abc"]
                for _ in range(6)]
        sets = [[frozenset(rng.sample(range(10), rng.randint(0, 6))) for _ in "fgh"]
                for _ in range(6)]
        # d(A, B) doubled one way in triple 1, d(A, C) infinite in triple 3,
        # d(A, A) = 2 in triple 4; and for the sets, h(f, g) one more one way
        # in triple 0, h(f, h) 100 more in triple 2, h(f, f) = 1 in triple 5
        wrong_d = {(lats[1][0], lats[1][1]): lambda d: d * ExtNat.finite(2),
                   (lats[3][0], lats[3][2]): lambda d: INFINITE,
                   (lats[4][0], lats[4][0]): lambda d: ExtNat.finite(2)}
        wrong_h = {(sets[0][0], sets[0][1]): 1, (sets[2][0], sets[2][2]): 100,
                   (sets[5][0], sets[5][0]): 1}
        real_d, real_h = suites.log_subgroup_distance, suites.hamming_distance
        monkeypatch.setattr(suites, "log_subgroup_distance", lambda x, y: (
            wrong_d.get((x, y), lambda d: d)(real_d(x, y))))
        monkeypatch.setattr(suites, "hamming_distance", lambda f, g: (
            real_h(f, g) + wrong_h.get((f, g), 0)))
        report = suites.suite_axioms(triples=6)
        assert report.samples == 12
        assert report.violations == (("symmetry", 1), ("triangle", 3), ("identity", 4),
                                     ("hamming-symmetry", 0), ("hamming-triangle", 2),
                                     ("hamming-identity", 5))
        k, forks = workers
        assert len(forks) == k - 1
        TestFanOut._no_child_left()

    def test_a_childs_exception_reaches_the_caller(self, monkeypatch):
        # with two workers the child checks the odd pairs; the second pair
        # is (p = 2, {}, {0})
        monkeypatch.setattr(suites, "_workers", lambda samples: 2)
        real = suites.elementary_abelian_closed_form

        def wrong(p, f, fp):
            if p == 2 and not f and fp == {0}:
                raise ArithmeticError(f"raised in {os.getpid()}")
            return real(p, f, fp)

        monkeypatch.setattr(suites, "elementary_abelian_closed_form", wrong)
        with pytest.raises(ArithmeticError, match=r"^raised in \d+$") as caught:
            suites.suite_elemab()
        assert str(caught.value) != f"raised in {os.getpid()}"
        TestFanOut._no_child_left()
