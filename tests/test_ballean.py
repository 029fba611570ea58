import copy
import json
import os
import pickle
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from balleans import ballean
from balleans.ballean import (
    BalleanValidation,
    ExplicitBallean,
    _max_matching,
    _min_cover_size,
    FiniteSubset,
    HammingPoint,
    ZWindow,
    ball_iterate,
    bounded_ballean,
    cellularization,
    connected_components,
    coproduct_ballean,
    discrete_ballean,
    exp_ball_enumerate_centered_identity,
    exp_ball_membership,
    exp_hyperballean_of,
    exp_power_inclusion_holds,
    g_exp_ball,
    hamming_distance,
    is_cellular,
    mu_report,
    mu_set_distance,
    product_ballean,
    symmetrize_radius,
    validate_ballean,
)
from balleans.groups import FiniteAbelianGroup, all_subgroups, fag_log_distance
from balleans.lattices import ExtNat
from balleans.suites import random_ballean

from oracles import (
    cellularization_by_unions,
    closure,
    components_by_search,
    element_count_mu,
    exp_hyperballean_reference,
    exp_power_inclusion_by_sets,
    max_matching_brute,
    min_cover_brute,
    min_cover_search,
    mu_two_points_elementary,
    require_ball_structure,
    validate_by_sets,
)

# the mu pair shapes of perfbench's finite-cover workload: (orders, |Y|, |Z|)
# for random subsets, and the groups of its coset pairs
MU_RANDOM = [((2,) * 8, 1, 6), ((2,) * 8, 2, 8), ((2,) * 8, 2, 12),
             ((2,) * 8, 3, 8), ((2,) * 8, 3, 10), ((2,) * 8, 3, 12),
             ((2,) * 6, 2, 8), ((2,) * 6, 3, 10), ((4,) * 3, 2, 8),
             ((4,) * 3, 3, 10), ((24,), 2, 8), ((24,), 3, 10), ((60,), 3, 12)]
MU_COSET = [(2,) * 6, (4,) * 3, (24,), (60,), (2,) * 8]


def three_point():
    return ExplicitBallean.from_table(
        ["a", "b", "c"], ["r"],
        {("a", "r"): {"a", "b"},
         ("b", "r"): {"a", "b", "c"},
         ("c", "r"): {"b", "c"}})


class TestValidation:
    def test_three_point_fails_multiplicativity(self):
        rep = validate_ballean(three_point())
        assert not rep.ok
        assert rep.multiplicativity_violation is not None
        assert "a" in rep.describe()

    def test_discrete_and_bounded_valid(self):
        assert validate_ballean(discrete_ballean(range(4))).ok
        assert validate_ballean(bounded_ballean(range(4))).ok

    def test_symmetry_violation_detected(self):
        b = ExplicitBallean.from_table(
            [0, 1], ["r"], {(0, "r"): {0, 1}, (1, "r"): {1}})
        rep = validate_ballean(b)
        assert not rep.ok and rep.symmetry_violation is not None

    def test_containment_violation_detected(self):
        b = ExplicitBallean.from_table([0, 1], ["r"], {(0, "r"): {1}, (1, "r"): {0}})
        rep = validate_ballean(b)
        assert not rep.ok and rep.containment_violation is not None

    def test_random_generator_always_valid(self):
        rng = random.Random(0)
        for _ in range(30):
            assert validate_ballean(random_ballean(rng)).ok

    def test_report_does_not_depend_on_the_hash_seed(self):
        # string points hash differently under each PYTHONHASHSEED, so a
        # report read off a frozenset walk would change with it; the first
        # table, whose ball names a point outside the support, is refused
        # at construction whatever the seed
        script = (
            "from balleans.ballean import ExplicitBallean, validate_ballean\n"
            "t = ExplicitBallean.from_table\n"
            "for support, balls in ((('p', 'q'), {('p', 'a'): {'p', 'q', 'zz'},\n"
            "                                     ('q', 'a'): {'q'}}),\n"
            "                       (('p', 'q', 'r'), {('p', 'a'): {'p', 'q', 'r'}})):\n"
            "    try:\n"
            "        b = t(support, ('a',), balls)\n"
            "    except ValueError as exc:\n"
            "        print('ValueError:', exc)\n"
            "    else:\n"
            "        print(validate_ballean(b).to_json())\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        outs = set()
        for seed in range(8):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            outs.add(subprocess.run([sys.executable, "-c", script], env=env,
                                    capture_output=True, text=True,
                                    check=True).stdout)
        assert outs == {"ValueError: unknown point or radius\n"
                        "{'ok': False, 'violation': \"symmetry fails between "
                        "'p' and 'q' at 'a'\"}\n"}


class TestBallsAndCellularization:
    def test_iterate_fixtures(self):
        b = three_point()
        assert ball_iterate(b, "a", "r", 2) == frozenset({"a", "b", "c"})
        assert ball_iterate(b, "a", "r", 1) == b.ball("a", "r")
        d = discrete_ballean(range(3))
        assert ball_iterate(d, 0, "*", 5) == frozenset({0})

    def test_unknown_point(self):
        with pytest.raises(ValueError):
            ball_iterate(three_point(), "z", "r", 1)

    def test_unknown_radius(self):
        for n in range(3):
            with pytest.raises(ValueError, match="^unknown point or radius$"):
                ball_iterate(three_point(), "a", "s", n)

    def test_cellularization_fixture(self):
        c = cellularization(three_point())
        assert c.ball("a", "r") == frozenset({"a", "b", "c"})

    def test_cellularization_idempotent_extensive(self):
        rng = random.Random(1)
        for _ in range(20):
            b = random_ballean(rng)
            c = cellularization(b)
            assert cellularization(c).balls == c.balls
            for key, ball in b.balls.items():
                assert ball <= c.balls[key]
            assert is_cellular(c)

    def test_discrete_bounded_already_cellular(self):
        assert is_cellular(discrete_ballean(range(3)))
        assert is_cellular(bounded_ballean(range(3)))

    def test_closure_stops_when_balls_miss_their_centres(self):
        # set_ball alone cycles {0} -> {1} -> {0}; the closure is the union
        b = ExplicitBallean.from_table((0, 1), ("a",),
                                       {(0, "a"): {1}, (1, "a"): {0}})
        c = cellularization(b)
        assert c.ball(0, "a") == c.ball(1, "a") == frozenset({0, 1})
        assert not is_cellular(b)
        assert is_cellular(c)

    def test_cellularization_matches_unions_on_arbitrary_tables(self):
        # every reader of the mask view against its set route in
        # tests/oracles.py, on tables where no axiom need hold: balls may miss
        # their centre or be asymmetric. A table that is no ball structure
        # (a ball names a point outside the support, is missing, or has a
        # key outside support x radii) is refused at construction, exactly
        # where require_ball_structure refuses it.
        routes = {"validate": (validate_ballean, validate_by_sets),
                  "cellularization": (lambda b: cellularization(b).balls,
                                      cellularization_by_unions),
                  "is_cellular": (is_cellular,
                                  lambda b: cellularization_by_unions(b) == b.balls),
                  "components": (connected_components, components_by_search)}
        rng = random.Random(11)
        seen = set()
        for trial in range(600):
            table = _arbitrary_table(rng, trial)
            max_n = rng.randint(1, 3)
            b = _outcome(ExplicitBallean, *table)
            assert _outcome(require_ball_structure, *table) == (
                b if isinstance(b, str) else None), (trial, table)
            if isinstance(b, str):
                seen.add(("construction", b))
                continue
            for name, (route, reference) in routes.items():
                want = _outcome(reference, b)
                assert _outcome(route, b) == want, (trial, name, b)
                if isinstance(want, BalleanValidation):
                    got = validate_ballean(b)
                    assert got.describe() == want.describe(), trial
                    assert got.to_json() == want.to_json(), trial
                    want = want.describe().split()[0]
                seen.add((name, want if isinstance(want, (bool, str)) else "value"))
            want = _outcome(exp_power_inclusion_by_sets, b, max_n)
            assert _outcome(exp_power_inclusion_holds, b, max_n) == want, (trial, b)
            seen.add(("power", want))
        assert seen == {
            ("construction", _UNKNOWN), ("validate", "containment"),
            ("validate", "symmetry"), ("validate", "no"), ("validate", "valid"),
            ("cellularization", "value"), ("is_cellular", True),
            ("is_cellular", False), ("components", "value"), ("power", True)}


_UNKNOWN = "ValueError: unknown point or radius"


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _arbitrary_table(rng, trial):
    """(support, radii, balls) of up to 7 points with no axiom guaranteed.
    Every other table starts from a reflexive symmetric relation so that
    symmetry and multiplicativity are reached; then a ball may lose its
    centre, gain a one-way edge or a point outside the support, its key may
    be dropped, or a ball may be added at a point or radius outside the
    table's."""
    support = list(range(rng.randint(1, 7)))
    if trial % 3 == 0:
        support = [f"p{x}" for x in support]
    radii = [f"r{j}" for j in range(rng.randint(1, 3))]
    table = {}
    for a in radii:
        if trial % 2:
            table.update({(x, a): set(rng.sample(support, rng.randint(0, len(support))))
                          for x in support})
            continue
        rel = {x: {x} for x in support}
        for _ in range(rng.randint(0, len(support))):
            x, y = rng.choice(support), rng.choice(support)
            rel[x].add(y)
            rel[y].add(x)
        table.update({(x, a): rel[x] for x in support})
    for _ in range(rng.choice([0, 0, 0, 1, 2]) if len(table) > 1 else 0):
        x, a = rng.choice(list(table))
        change = rng.randrange(5)
        if change == 0:
            table[(x, a)].discard(x)
        elif change == 1:
            table[(x, a)].add(rng.choice(support))
        elif change == 2:
            table[(x, a)].add(rng.choice(["stray", 99, (0, 1)]))
        elif change == 3:
            table.pop((x, a), None)
        else:
            table[rng.choice([("stray", a), (x, "r9")])] = {x}
    return tuple(support), tuple(radii), {k: frozenset(v) for k, v in table.items()}


class TestComponents:
    def test_fixtures(self):
        assert len(connected_components(discrete_ballean(range(4)))) == 4
        assert len(connected_components(bounded_ballean(range(4)))) == 1

    def test_coproduct_components(self):
        cop = coproduct_ballean([bounded_ballean(range(2)),
                                 bounded_ballean(range(3))])
        comps = sorted(len(c) for c in connected_components(cop))
        assert comps == [2, 3]
        assert len(cop.support) == 5
        assert validate_ballean(cop).ok

    def test_point_outside_the_support_refused(self):
        # refused at construction, so no reader (set_ball, ball_iterate,
        # product_ballean, to_json, the mask readers) can see the stray
        # point 5 or 'zz', or drop the extra key ('x', 'a'); stray is what
        # from_table makes of {('p', 'a'): {'p', 'zz'}}
        one_way = {(0, "r"): frozenset({0, 5}), (1, "r"): frozenset({1})}
        stray = {("p", "a"): frozenset({"p", "zz"}), ("q", "a"): frozenset({"q"})}
        extra = {("p", "a"): frozenset({"p"}), ("q", "a"): frozenset({"q"}),
                 ("x", "a"): frozenset({"p"})}
        for support, radii, balls in (((0, 1), ("r",), one_way),
                                      (("p", "q"), ("a",), stray),
                                      (("p", "q"), ("a",), extra)):
            for build in (ExplicitBallean, ExplicitBallean.from_table,
                          require_ball_structure):
                with pytest.raises(ValueError, match="^unknown point or radius$"):
                    build(support, radii, balls)
        with pytest.raises(ValueError, match="^unknown point or radius$"):
            ExplicitBallean.from_table(("p", "q"), ("a",), {("p", "a"): {"p", "zz"}})


class TestProductCoproduct:
    def test_product_of_discrete_is_discrete(self):
        p = product_ballean([discrete_ballean(range(2)),
                             discrete_ballean(range(3))])
        assert all(len(ball) == 1 for ball in p.balls.values())
        assert validate_ballean(p).ok

    def test_product_of_bounded_is_bounded(self):
        p = product_ballean([bounded_ballean(range(2)),
                             bounded_ballean(range(3))])
        assert all(len(ball) == 6 for ball in p.balls.values())

    def test_product_with_three_point(self):
        p = product_ballean([three_point(), bounded_ballean(range(2))])
        assert len(p.support) == 6
        assert p.ball(("a", 0), ("r", "*")) == frozenset(
            {("a", 0), ("a", 1), ("b", 0), ("b", 1)})

    def test_coproduct_of_singletons(self):
        cop = coproduct_ballean([discrete_ballean([0]), discrete_ballean([0])])
        assert all(len(ball) == 1 for ball in cop.balls.values())

    def test_coproduct_refuses_summand_radius_none(self):
        # None is the coproduct's own "no radius" marker
        for radii in ([None], [0, None]):
            with pytest.raises(ValueError):
                coproduct_ballean([bounded_ballean(["x", "y"], radii=radii)])
        with pytest.raises(ValueError):
            coproduct_ballean([discrete_ballean([0]),
                               discrete_ballean([1], radii=[None])])

    def test_bounded_ballean_reads_radii_once(self):
        b = bounded_ballean(["x", "y"], radii=iter(["r"]))
        assert b.radii == ("r",)
        assert b.ball("x", "r") == frozenset({"x", "y"})

    def test_size_limit(self):
        big = discrete_ballean(range(70))
        with pytest.raises(ValueError):
            product_ballean([big, big])

    def test_table_limit_counts_points_times_radii(self):
        # PRODUCT_SIZE_LIMIT = 4096 cells, counted before any ball is built;
        # eight 2-point, 3-radius factors (256 x 6561) once took 11.9 s, and
        # sixteen 1-point summands (16 x 65536) 4.2 s
        grid = lambda n, r: discrete_ballean(range(n), radii=range(r))
        past = [(product_ballean, [grid(17, 241), grid(1, 1)]),  # 4097 cells
                (product_ballean, [grid(2, 3)] * 8),
                (coproduct_ballean, [grid(17, 240)]),  # 17 x 241 = 4097
                (coproduct_ballean, [grid(1, 1)] * 16)]
        for build, parts in past:
            start = time.perf_counter()
            with pytest.raises(ValueError, match=r"table has \d+ cells; at most 4096$"):
                build(parts)
            assert time.perf_counter() - start < 0.1
        p = product_ballean([bounded_ballean(range(8), radii=range(16)),
                             bounded_ballean(range(2), radii=range(16))])
        assert (len(p.support), len(p.radii)) == (16, 256)
        assert all(len(ball) == 16 for ball in p.balls.values())
        c = coproduct_ballean([grid(15, 15), grid(1, 15)])
        assert (len(c.support), len(c.radii), len(c.balls)) == (16, 256, 4096)


class TestDerivedTables:
    # cellularization, exp_hyperballean_of, product_ballean and
    # coproduct_ballean build their tables without the construction check

    @staticmethod
    def _inputs(rng):
        """Ball structures where no axiom need hold, 1 to 5 points and 1 to
        3 radii, with shared ball objects."""
        yield discrete_ballean([0])
        yield bounded_ballean(["x"], radii=["r", "s"])
        yield bounded_ballean(range(4))  # one ball object under every key
        yield three_point()
        for trial in range(60):
            support, radii, balls = _arbitrary_table(rng, trial)
            if len(support) <= 5 and _outcome(
                    require_ball_structure, support, radii, balls) is None:
                if trial % 4 == 1:  # equal balls become one object
                    shared = {v: v for v in balls.values()}
                    balls = {k: shared[v] for k, v in balls.items()}
                yield ExplicitBallean(support, radii, balls)
            yield random_ballean(rng, max_size=4)

    def test_derived_tables_pass_the_construction_check(self):
        rng = random.Random(12)
        inputs = list(self._inputs(rng))
        seen = set()
        for i, b in enumerate(inputs):
            c = inputs[rng.randrange(len(inputs))]
            for name, derive in (("cellularization", lambda: cellularization(b)),
                                 ("exp", lambda: exp_hyperballean_of(b)),
                                 ("product", lambda: product_ballean([b, c])),
                                 ("coproduct", lambda: coproduct_ballean([b, c]))):
                d = derive()
                require_ball_structure(d.support, d.radii, d.balls)
                assert ExplicitBallean(d.support, d.radii, d.balls) == d, (i, name)
                seen.add((name, len(b.support) == 1, len(b.radii) == 1))
        assert len(seen) == 16

    def test_tables_stay_read_only_after_construction(self):
        # a table changed after the check would reach the readers unchecked
        table = {("p", "a"): frozenset({"p"}), ("q", "a"): frozenset({"p", "q"})}
        b = ExplicitBallean(("p", "q"), ("a",), table)
        table[("p", "a")] = frozenset({"p", "zz"})  # the caller's dict is not the table
        del table[("q", "a")]
        assert b.ball("p", "a") == {"p"} and len(b.balls) == 2
        for t in (b, ExplicitBallean.from_table(("p", "q"), ("a",), {}),
                  cellularization(b), exp_hyperballean_of(b),
                  product_ballean([b, b]), coproduct_ballean([b, b])):
            key = next(iter(t.balls))
            with pytest.raises(TypeError):
                t.balls[key] = frozenset({"zz"})
            with pytest.raises(TypeError):
                del t.balls[key]
            assert pickle.loads(pickle.dumps(t)) == t == copy.deepcopy(t)
        assert b.set_ball(b.support, "a") == {"p", "q"}
        assert not validate_ballean(b).ok  # reported (symmetry), not a KeyError


class TestExpHyperballean:
    def test_singleton_base(self):
        e = exp_hyperballean_of(bounded_ballean([0]))
        assert e.support == (frozenset({0}),)

    def test_discrete_exp_fixture(self):
        e = exp_hyperballean_of(discrete_ballean(["a", "b"]))
        assert e.ball(frozenset({"a"}), "*") == frozenset({frozenset({"a"})})

    def test_singletons_subballean_matches_base(self):
        rng = random.Random(2)
        for _ in range(10):
            b = random_ballean(rng, max_size=5)
            e = exp_hyperballean_of(b)
            for x in b.support:
                for a in b.radii:
                    singles = {next(iter(z)) for z in
                               e.ball(frozenset({x}), a) if len(z) == 1}
                    assert singles == set(b.ball(x, a))

    def test_support_limit(self):
        with pytest.raises(ValueError, match="support has 13 points; exp "
                           "enumeration allows at most 12"):
            exp_hyperballean_of(discrete_ballean(range(13)))

    @staticmethod
    def _assert_matches_reference(b):
        e = exp_hyperballean_of(b)
        support, radii, balls = exp_hyperballean_reference(b)
        assert e.support == support
        assert e.radii == radii
        assert e.balls == balls

    def test_matches_reference_on_arbitrary_tables(self):
        # no axiom holds: balls may miss their centre, be asymmetric, or
        # name points outside the support, which construction and
        # require_ball_structure refuse; the table cut down to the support
        # matches
        rng = random.Random(5)
        refused = 0
        for trial in range(150):
            n = rng.randint(1, 6)
            support = list(range(n)) if trial % 2 else [f"p{i}" for i in range(n)]
            pool = support + ["stray", 99, (0, 1)]
            radii = [f"r{j}" for j in range(rng.randint(1, 3))]
            table = {(x, a): frozenset(rng.sample(pool, rng.randint(0, n + 2)))
                     for x in support for a in radii}
            inside = {k: ball & set(support) for k, ball in table.items()}
            self._assert_matches_reference(
                ExplicitBallean(tuple(support), tuple(radii), inside))
            if inside != table:
                refused += 1
                for build in (ExplicitBallean, require_ball_structure):
                    with pytest.raises(ValueError, match="^unknown point or radius$"):
                        build(tuple(support), tuple(radii), table)
        assert 0 < refused < 150

    def test_matches_reference_on_valid_balleans(self):
        rng = random.Random(6)
        for _ in range(12):
            self._assert_matches_reference(random_ballean(rng, max_size=8))

    @staticmethod
    def _cover_shaped(rng, size):
        # radii r1 <= r2, r2 o r2 and the closure of r2, as in the finite-cover
        # benchmark: r2 holds a path through every point, so the closure is
        # the whole support
        def relation(base, edges, path=False):
            rel = {x: {x} | base[x] for x in range(size)}
            pairs = [(rng.randrange(size), rng.randrange(size)) for _ in range(edges)]
            order = rng.sample(range(size), size) if path else []
            for a, c in pairs + list(zip(order, order[1:])):
                rel[a].add(c)
                rel[c].add(a)
            return rel

        r1 = relation({x: set() for x in range(size)}, rng.randint(0, size))
        r2 = relation(r1, rng.randint(0, size), path=True)
        r22 = {x: set().union(*(r2[y] for y in r2[x])) for x in range(size)}
        radii = {"r1": r1, "r2": r2, "r22": r22,
                 "closure": {x: set(range(size)) for x in range(size)}}
        table = {(x, a): frozenset(rel[x]) for a, rel in radii.items()
                 for x in range(size)}
        return ExplicitBallean(tuple(range(size)), tuple(radii), table)

    def test_matches_reference_on_cover_shaped_balleans(self):
        rng = random.Random(9)
        for size in (7, 8, 9):
            b = self._cover_shaped(rng, size)
            assert validate_ballean(b).ok
            self._assert_matches_reference(b)

    def test_matches_reference_on_empty_and_one_point_supports(self):
        self._assert_matches_reference(ExplicitBallean((), ("r",), {}))
        self._assert_matches_reference(ExplicitBallean(
            ("x",), ("r", "s"), {("x", "r"): frozenset({"x"}),
                                 ("x", "s"): frozenset()}))

    def test_equal_balls_share_one_frozenset(self):
        rng = random.Random(10)
        for b in [self._cover_shaped(rng, 8), random_ballean(rng, max_size=6)]:
            e = exp_hyperballean_of(b)
            assert len({id(v) for v in e.balls.values()}) == len(set(e.balls.values()))

    def test_exp_of_cellular_is_cellular(self):
        rng = random.Random(3)
        for _ in range(10):
            b = cellularization(random_ballean(rng, max_size=5))
            assert is_cellular(exp_hyperballean_of(b))


class TestGroupExpBalls:
    def test_membership_fixtures(self):
        g = FiniteAbelianGroup((12,))
        y = FiniteSubset.of(g, [0])
        assert exp_ball_membership(FiniteSubset.of(g, [1, 11]), y, [1])
        assert exp_ball_membership(y, y, [1])
        assert not exp_ball_membership(FiniteSubset.of(g, [6]), y, [1])

    def test_empty_subset_rejected(self):
        g = FiniteAbelianGroup((12,))
        with pytest.raises(ValueError):
            FiniteSubset.of(g, [])

    def test_elements_outside_the_parent_rejected(self):
        z4 = FiniteAbelianGroup((4,))
        for parent, bad in ((z4, (5,)), (z4, (-1,)), (z4, (1, 2)), (z4, 1),
                            (FiniteAbelianGroup((2, 4)), (1,)),
                            (ZWindow(3), 100), (ZWindow(3), -4)):
            with pytest.raises(ValueError):
                FiniteSubset(parent, frozenset({bad}))
        # FiniteSubset.of still reduces to the normal form
        assert FiniteSubset.of(z4, [(5,), 2]).elements == {(1,), (2,)}
        assert FiniteSubset(ZWindow(3), frozenset({-3, 3})).elements == {-3, 3}

    def test_enumerate_fixture(self):
        g = FiniteAbelianGroup((12,))
        got = exp_ball_enumerate_centered_identity(g, [1])
        universe = {(0,), (1,), (11,)}
        expected = {frozenset(s) for s in
                    [{(0,)}, {(1,)}, {(11,)}, {(0,), (1,)}, {(0,), (11,)},
                     {(1,), (11,)}, {(0,), (1,), (11,)}]}
        assert got == expected
        for z in got:
            assert z <= universe and len(z) <= 3

    def test_enumerate_empty_radius(self):
        g = FiniteAbelianGroup((5,))
        assert exp_ball_enumerate_centered_identity(g, []) == {frozenset({(0,)})}

    def test_enumerate_brute_force_cross_check(self):
        import itertools
        g = FiniteAbelianGroup((8,))
        radius = [1, 2]
        got = exp_ball_enumerate_centered_identity(g, radius)
        f = symmetrize_radius(g, radius)
        center = {(0,)}
        brute = set()
        elems = list(g.elements())
        for size in range(1, len(f) + 1):
            for combo in itertools.combinations(elems, size):
                z = set(combo)
                bz = {g.add(gg, x) for x in z for gg in f}
                by = {g.add(gg, x) for x in center for gg in f}
                if z <= by and center <= bz:
                    brute.add(frozenset(z))
        assert got == brute

    def test_enumerate_refuses_large_radius_ball(self):
        g = FiniteAbelianGroup((64,))
        with pytest.raises(ValueError, match="radius ball has 13 points; exp "
                           "enumeration allows at most 12"):
            exp_ball_enumerate_centered_identity(g, range(1, 7))
        assert len(exp_ball_enumerate_centered_identity(
            g, [1, 2, 3, 4, 5, 32])) == 2 ** 12 - 1

    def test_enumerate_zwindow_matches_membership(self):
        # the subsets the membership test accepts, and a raise exactly where
        # the membership test raises: some B(Z, F) leaves the window, which
        # happens iff 2·max|F| > half-width
        import itertools
        for hw in range(0, 9):
            w = ZWindow(hw)
            center = FiniteSubset.of(w, [0])
            for radius in ([], [1], [-2], [1, 3], [2, -4], [4]):
                if any(abs(r) > hw for r in radius):
                    continue
                universe = sorted(symmetrize_radius(w, radius))
                try:
                    expected = {
                        frozenset(c) for size in range(1, len(universe) + 1)
                        for c in itertools.combinations(universe, size)
                        if exp_ball_membership(FiniteSubset(w, frozenset(c)),
                                               center, radius)}
                except ValueError as e:
                    assert str(e) == "sum leaves the working window"
                    assert 2 * max(map(abs, radius)) > hw
                    with pytest.raises(ValueError,
                                       match="sum leaves the working window"):
                        exp_ball_enumerate_centered_identity(w, radius)
                else:
                    assert 2 * max(map(abs, radius), default=0) <= hw
                    assert exp_ball_enumerate_centered_identity(w, radius) == expected

    def test_g_exp_fixture(self):
        g = FiniteAbelianGroup((6,))
        y = FiniteSubset.of(g, [0, 3])
        assert g_exp_ball(y, [1]) == {frozenset({(0,), (3,)}),
                                      frozenset({(1,), (4,)})}
        assert g_exp_ball(y, []) == {y.elements}
        for z in g_exp_ball(y, [1, 2, 5]):
            assert len(z) == len(y)

    def test_g_exp_inside_exp(self):
        g = FiniteAbelianGroup((8,))
        y = FiniteSubset.of(g, [0, 2])
        radius = [1, 7]  # symmetric-closed up to inversion
        for z in g_exp_ball(y, radius):
            assert exp_ball_membership(FiniteSubset(g, z), y, radius)

    def test_identity_of_both_parent_kinds(self):
        assert ZWindow(2).zero == 0
        assert symmetrize_radius(ZWindow(2), [2]) == {-2, 0, 2}
        assert symmetrize_radius(FiniteAbelianGroup((6,)), [2]) == {(0,), (2,), (4,)}

    def test_zwindow_refuses_overflow(self):
        w = ZWindow(5)
        y = FiniteSubset.of(w, [4])
        with pytest.raises(ValueError):
            exp_ball_membership(y, FiniteSubset.of(w, [5]), [3])


class TestMu:
    def test_fixtures(self):
        g = FiniteAbelianGroup((6,))
        y = FiniteSubset.of(g, [0])
        z = FiniteSubset.of(g, [0, 3])
        assert mu_set_distance(y, y) == ExtNat.finite(1)
        assert mu_set_distance(y, z) == ExtNat.finite(2)
        rep = mu_report(y, z)
        assert rep.single_set >= rep.mu

    def test_subgroup_pair_fixture(self):
        g = FiniteAbelianGroup((12,))
        a = FiniteSubset.of(g, [0, 2, 4, 6, 8, 10])
        b = FiniteSubset.of(g, [0, 3, 6, 9])
        assert mu_set_distance(a, b) == ExtNat.finite(3)

    def test_matches_index_formula_on_subgroups(self):
        g = FiniteAbelianGroup((2, 4))
        subs = all_subgroups(g)
        for i, a in enumerate(subs):
            for b in subs[i:]:
                ya = FiniteSubset(g, a.elements())
                yb = FiniteSubset(g, b.elements())
                assert mu_set_distance(ya, yb) == fag_log_distance(a, b)

    def test_parent_mismatch(self):
        a = FiniteSubset.of(FiniteAbelianGroup((4,)), [0])
        b = FiniteSubset.of(FiniteAbelianGroup((6,)), [0])
        with pytest.raises(ValueError):
            mu_set_distance(a, b)

    def test_symmetry(self):
        rng = random.Random(4)
        g = FiniteAbelianGroup((10,))
        elems = list(g.elements())
        for _ in range(20):
            y = FiniteSubset.of(g, rng.sample(elems, rng.randint(1, 4)))
            z = FiniteSubset.of(g, rng.sample(elems, rng.randint(1, 4)))
            assert mu_set_distance(y, z) == mu_set_distance(z, y)


class TestMinCover:
    def test_matches_brute_force(self):
        # sets may reach outside the universe, repeat, nest, or fail to cover
        rng = random.Random(7)
        outcomes = set()
        for _ in range(400):
            universe = frozenset(rng.sample(range(10), rng.randint(0, 8)))
            sets = [frozenset(rng.sample(range(10), rng.randint(0, 4)))
                    for _ in range(rng.randint(0, 12))]
            mask = lambda s: sum(1 << x for x in s)
            got = _min_cover_size(mask(universe), [mask(s) for s in sets])
            want = min_cover_brute(universe, sets)
            assert got == want, (sorted(universe), [sorted(s) for s in sets])
            outcomes.add(want is None)
        assert outcomes == {True, False}

    def test_sets_of_at_most_two_match_brute_force(self):
        # the edge-cover step: stars, odd cycles with pendant vertices,
        # disconnected graphs, singletons, infeasible systems, random graphs
        def cycle(k, first=0):
            return [{first + i, first + (i + 1) % k} for i in range(k)]

        systems = [(range(6), [{0, i} for i in range(1, 6)]),
                   (range(8), [{0, i} for i in range(1, 5)] + [{5, 6}, {6, 7}]),
                   (range(12), cycle(3) + cycle(5, 3) + [{8, 9}, {9, 10}, {11}]),
                   (range(10), cycle(7) + [{7, 8}, {8, 9}, {9, 7}]),
                   (range(5), cycle(3) + [{3}]),
                   (range(6), cycle(5)),
                   # the greedy start leaves augmenting paths through blossoms
                   (range(8), [{2, 5}, {4, 5}, {2, 6}, {3, 6}, {1, 4}, {0, 5},
                               {1, 3}, {1, 7}, {1, 5}, {0, 1}, {0, 7}]),
                   (range(8), [{5, 6}, {1, 7}, {1, 5}, {4, 7}, {0, 7}, {0, 5},
                               {2, 3}, {0, 6}])]
        for k in (3, 5, 7):
            for ends in ([0], [0, 1], [0, 2], list(range(k))):
                pendants = [{v, k + j} for j, v in enumerate(ends)]
                systems.append((range(k + len(ends)), cycle(k) + pendants))
                systems.append((range(k + len(ends)), pendants + cycle(k)[::-1]))
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(0, 10)
            sets = [set(rng.sample(range(n + 1), rng.randint(1, min(2, n + 1))))
                    for _ in range(rng.randint(0, 14))]
            systems.append((range(n), sets))
        mask = lambda s: sum(1 << x for x in s)
        outcomes = set()
        for universe, sets in systems:
            want = min_cover_brute(universe, sets)
            assert _min_cover_size(mask(universe), map(mask, sets)) == want, (
                list(universe), sets)
            outcomes.add(want is None)
        assert outcomes == {True, False}

    def test_reductions_and_floor_match_brute_force(self):
        # systems rich in singletons, repeated sets and elements with a
        # single holder, so that dominance and forced sets fire, often in
        # cascades; any floor up to the answer leaves the answer unchanged
        rng = random.Random(16)
        mask = lambda s: sum(1 << x for x in s)
        outcomes, forced, systems = set(), 0, []
        for _ in range(1500):
            n = rng.randint(0, 12)
            sets = []
            for _ in range(rng.randint(0, 13)):
                roll = rng.random()
                if roll < 0.3 or not n:
                    sets.append({rng.randrange(n + 1)})
                elif roll < 0.45 and sets:
                    sets.append(set(rng.choice(sets)))
                else:
                    sets.append(set(rng.sample(range(n), rng.randint(1, min(4, n)))))
            for x in rng.sample(range(n), rng.randint(0, n)):
                # x keeps one holder, or none
                for s in sets:
                    s.discard(x)
                if sets and rng.random() < 0.8:
                    rng.choice(sets).add(x)
                    forced += 1
            systems.append((n, sets))
        for _ in range(1500):
            # dense: sets of 3 to 5 elements, so the search itself runs
            n = rng.randint(6, 12)
            systems.append((n, [set(rng.sample(range(n), rng.randint(3, 5)))
                                for _ in range(rng.randint(4, 14))]))
        for n, sets in systems:
            want = min_cover_brute(range(n), sets)
            for floor in range(0 if want is None else want + 1):
                assert _min_cover_size(mask(range(n)), map(mask, sets), floor) == want, (
                    n, sets, floor)
            assert _min_cover_size(mask(range(n)), map(mask, sets)) == want
            outcomes.add(want is None)
        assert outcomes == {True, False} and forced > 1500

    def test_max_matching_matches_brute_force(self):
        rng = random.Random(3)
        for _ in range(400):
            n = rng.randint(0, 16)
            density = rng.random() * 0.5
            edges = [(u, v) if rng.random() < 0.5 else (v, u)
                     for u in range(n) for v in range(u + 1, n)
                     if rng.random() < density]
            rng.shuffle(edges)
            assert _max_matching(n, edges) == max_matching_brute(n, edges), (n, edges)

    def test_mu_matches_search_without_edge_cover(self, monkeypatch):
        # finite-cover-shaped pairs: MuReports equal those of the former
        # search, and the edge-cover step ran on some of them
        rng = random.Random(10)
        pairs = []
        for orders, ny, nz in MU_RANDOM:
            elems = list(FiniteAbelianGroup(orders).elements())
            pairs += [(orders, rng.sample(elems, ny), rng.sample(elems, nz))
                      for _ in range(8)]
        for orders in MU_COSET:
            g = FiniteAbelianGroup(orders)
            elems = list(g.elements())
            cosets = 0
            while cosets < 4:
                h, k = (closure(g, rng.sample(elems, rng.randint(1, 2))) for _ in "hk")
                if len(h) <= 8 and len(k) <= 8:
                    shift = rng.choice(elems)
                    pairs.append((orders, [g.add(shift, x) for x in h],
                                  [g.add(shift, x) for x in k]))
                    cosets += 1
        subsets = [(FiniteSubset.of(FiniteAbelianGroup(o), y),
                    FiniteSubset.of(FiniteAbelianGroup(o), z)) for o, y, z in pairs]
        matchings = []
        real = ballean._max_matching
        monkeypatch.setattr(ballean, "_max_matching",
                            lambda n, edges: matchings.append(n) or real(n, edges))
        got = [mu_report(y, z) for y, z in subsets]
        assert matchings
        monkeypatch.setattr(ballean, "_min_cover_size", min_cover_search)
        assert got == [mu_report(y, z) for y, z in subsets]


class TestMuCliffs:
    def test_two_points_in_elementary_abelian(self):
        # |Y| = 2 in (Z/2)^8, where the cover search once ran for minutes
        g = FiniteAbelianGroup((2,) * 8)
        elems = list(g.elements())
        for seed in range(6):
            rng = random.Random(seed)
            for size in (20, 40):
                y = frozenset(rng.sample(elems, 2))
                z = frozenset(rng.sample(elems, size))
                rep = mu_report(FiniteSubset(g, y), FiniteSubset(g, z))
                assert rep.mu == ExtNat.finite(mu_two_points_elementary(y, z))
                assert rep.single_set >= rep.mu

    def test_large_coset_pair_gives_the_index(self, monkeypatch):
        # |H| = 16, |K| = 4 in (Z/4)^3, shifted by the same element; past
        # the two fixed pairs, a sweep with H ∩ K = 0, where each pair once
        # took 0.3-0.5 s (as the former search still does on the last one)
        g = FiniteAbelianGroup((4, 4, 4))
        elems = list(g.elements())
        rng = random.Random(8)
        cases = [((3, 2, 1), closure(g, h_gens), closure(g, k_gens))
                 for h_gens, k_gens in ((((3, 3, 3), (1, 0, 3)), ((3, 3, 0),)),
                                        (((0, 3, 1), (1, 3, 0)), ((1, 1, 2),)))]
        while len(cases) < 300:
            h = closure(g, rng.sample(elems, 2))
            k = closure(g, rng.sample(elems, rng.randint(1, 2)))
            if len(h) == 16 and len(k) == 4 and len(h & k) == 1:
                cases.append((rng.choice(elems), h, k))
        for shift, h, k in cases:
            assert (len(h), len(k)) == (16, 4)
            y = FiniteSubset(g, frozenset(g.add(shift, x) for x in h))
            z = FiniteSubset(g, frozenset(g.add(shift, x) for x in k))
            rep = mu_report(y, z)
            assert rep.mu == ExtNat.finite(element_count_mu(g, h, k))
            assert rep.single_set >= rep.mu
        monkeypatch.setattr(ballean, "_min_cover_size", min_cover_search)
        assert mu_report(y, z) == rep


def translate_masks(g, base, targets) -> dict:
    """{h: mask of the targets inside h + base} for h ≠ e, bit i standing
    for targets[i], by coordinatewise subtraction t − b."""
    out = {}
    for i, t in enumerate(targets):
        for b in base:
            h = tuple((x - y) % m for x, y, m in zip(t, b, g.invariant_factors))
            out[h] = out.get(h, 0) | 1 << i
    out.pop(g.zero, None)
    return out


class TestFourPointCliffs:
    # the former search passed 5 s on 8 of these pairs; it finishes the
    # single-set cover within a second only on these seeds
    SINGLE_SET_SEEDS = {(4,) * 4: {0, 1, 2, 3, 5, 6, 7, 8, 9, 15, 16, 19},
                        (3,) * 5: {0, 2, 3, 4, 5, 6, 7, 8, 10, 11, 13, 14, 18}}

    @pytest.mark.parametrize("orders", [(4,) * 4, (3,) * 5])
    def test_matches_the_former_search(self, orders):
        # |Y| = 4, |Z| = 40, seeds 0-19: Y then Z by random.Random(seed).sample
        # of the elements in order; mu from the former search on the two
        # direction covers, single_set on the seeds above
        g = FiniteAbelianGroup(orders)
        elems = list(g.elements())
        full = lambda targets: (1 << len(targets)) - 1
        for seed in range(20):
            rng = random.Random(seed)
            y, z = frozenset(rng.sample(elems, 4)), frozenset(rng.sample(elems, 40))
            rep = mu_report(FiniteSubset(g, y), FiniteSubset(g, z))
            z_only, y_only = sorted(z - y), sorted(y - z)
            into_z, into_y = translate_masks(g, y, z_only), translate_masks(g, z, y_only)
            extra = max(min_cover_search(full(z_only), into_z.values()),
                        min_cover_search(full(y_only), into_y.values()))
            assert rep.mu == ExtNat.finite(1 + extra), seed
            assert rep.single_set >= rep.mu
            if seed in self.SINGLE_SET_SEEDS[orders]:
                both = dict(into_z)
                for h, m in into_y.items():
                    both[h] = both.get(h, 0) | m << len(z_only)
                single = min_cover_search(full(z_only + y_only), both.values())
                assert rep.single_set == ExtNat.finite(1 + single), seed


class TestHamming:
    def test_fixtures(self):
        assert hamming_distance({1, 2}, {2, 3}) == 2
        assert hamming_distance({1, 5}, {1, 5}) == 0
        assert hamming_distance(set(), {1, 2, 3}) == 3
        assert hamming_distance(HammingPoint.of([1]), HammingPoint.of([2])) == 2


class TestJson:
    def test_round_trip(self):
        b = bounded_ballean(range(3), radii=["r"])
        again = ExplicitBallean.from_json(json.loads(json.dumps(b.to_json())))
        assert again.balls == b.balls

    def test_from_table_refuses_ball_outside_support_and_radii(self):
        for stray in ((1, "r"), (0, "s")):
            with pytest.raises(ValueError, match="unknown point or radius"):
                ExplicitBallean.from_table([0], ["r"], {stray: {0}})
        b = ExplicitBallean.from_table([0, 1], ["r"], {(1, "r"): {0, 1}})
        assert b.ball(0, "r") == frozenset({0})
        assert b.ball(1, "r") == frozenset({0, 1})

    def test_repeated_points_radii_and_ball_entries_refused(self):
        with pytest.raises(ValueError, match="^repeated point: 0$"):
            ExplicitBallean.from_table([0, 0, 1], ["r"], {})
        with pytest.raises(ValueError, match="^repeated radius: 'r'$"):
            discrete_ballean(["x", "y"], radii=["r", "s", "r"])
        with pytest.raises(ValueError, match=r"^repeated point: \(1, 2\)$"):
            ExplicitBallean(((1, 2), 0, (1, 2)), ("r",), {})
        data = discrete_ballean([0, 1]).to_json()
        data["balls"].append([0, "*", [0]])
        with pytest.raises(ValueError, match=r"^repeated ball entry: \(0, '\*'\)$"):
            ExplicitBallean.from_json(data)
        data = discrete_ballean([0, 1]).to_json()
        data["support"].append(1)
        with pytest.raises(ValueError, match="^repeated point: 1$"):
            ExplicitBallean.from_json(data)

    def test_invalid_rejected_on_load(self):
        bad = three_point().to_json()
        with pytest.raises(ValueError):
            ExplicitBallean.from_json(bad)

    def test_lossless_round_trip_of_derived_balleans(self):
        rng = random.Random(41)
        a = bounded_ballean(range(2), radii=["r"])
        b = discrete_ballean(["x", "y"], radii=[0, 1])
        derived = [product_ballean([a, b]), coproduct_ballean([a, b]),
                   exp_hyperballean_of(a), exp_hyperballean_of(b),
                   product_ballean([coproduct_ballean([a, b]), a]),
                   exp_hyperballean_of(product_ballean([a, b]))]
        for _ in range(5):
            r = random_ballean(rng, max_size=4)
            derived += [cellularization(r), exp_hyperballean_of(r),
                        cellularization(product_ballean([r, b]))]
        for d in derived:
            again = ExplicitBallean.from_json(json.loads(json.dumps(d.to_json())))
            assert again == d
            assert [type(x) for x in again.support] == [type(x) for x in d.support]

    def test_round_trip_of_arbitrary_valid_tables(self):
        # valid balleans relabelled with identifiers of mixed types: None,
        # negative ints, strings, nested tuples and frozensets
        rng = random.Random(45)
        atoms = [None, 0, -1, -7, 3, "", "a", "-1"]

        def ident(depth=0):
            roll = rng.randrange(5 if depth < 2 else 2)
            if roll < 3:
                return rng.choice(atoms)
            kind = tuple if roll == 3 else frozenset
            return kind(ident(depth + 1) for _ in range(rng.randint(0, 3)))

        def relabel(items):
            out: dict = {}
            for x in items:
                while (y := ident()) in out.values():
                    pass
                out[x] = y
            return out

        def types(x):  # the type tree, members of a frozenset in any order
            if isinstance(x, tuple):
                return tuple, list(map(types, x))
            if isinstance(x, frozenset):
                return frozenset, sorted(map(repr, map(types, x)))
            return type(x)

        kinds = set()
        for trial in range(80):
            base = random_ballean(rng, max_size=6)
            if trial % 2:
                base = cellularization(base)
            points, radii = relabel(base.support), relabel(base.radii)
            b = ExplicitBallean(tuple(points.values()), tuple(radii.values()), {
                (points[x], radii[a]): frozenset(map(points.get, ball))
                for (x, a), ball in base.balls.items()})
            again = ExplicitBallean.from_json(json.loads(json.dumps(b.to_json())))
            assert again == b, trial
            for got, want in ((again.support, b.support), (again.radii, b.radii),
                              *((again.balls[k], b.balls[k]) for k in b.balls)):
                assert types(got) == types(want), trial
            kinds |= {type(x) for x in b.support + b.radii}
        assert kinds == {type(None), int, str, tuple, frozenset}

    def test_shared_balls_encoded_once_as_per_key(self):
        def per_key(b):  # each ball encoded afresh
            return [[ballean._encode_id(x), ballean._encode_id(a),
                     ballean._encode_set(b.balls[(x, a)])]
                    for x in b.support for a in b.radii]

        def exp_of_path(n):  # radii 0..n-1
            return exp_hyperballean_of(ExplicitBallean.from_table(
                range(n), range(n), {(i, r): {j for j in range(n) if abs(i - j) <= r}
                                     for i in range(n) for r in range(n)}))

        rng = random.Random(43)
        a = bounded_ballean(range(2), radii=["r"])
        derived = [exp_hyperballean_of(product_ballean([a, a])), exp_of_path(6)]
        for _ in range(5):
            r = random_ballean(rng, max_size=4)
            derived += [cellularization(r), exp_hyperballean_of(r)]
        for d in derived:
            assert d.to_json()["balls"] == per_key(d)
        # 2040 keys and 527 distinct balls; encoded per key it took 3.6 s
        e = exp_of_path(8)
        start = time.perf_counter()
        data = e.to_json()
        assert time.perf_counter() - start < 2.0
        assert len({id(m) for _, _, m in data["balls"]}) == 527

    def test_unsupported_or_malformed_identifiers_refused(self):
        with pytest.raises(ValueError):
            discrete_ballean([1.5]).to_json()
        with pytest.raises(ValueError):
            discrete_ballean([True]).to_json()
        good = discrete_ballean([(0, 1)]).to_json()
        for bad_id in ([0, 1], {"tuple": [0], "frozenset": []}, {"set": [0]},
                       {"tuple": 0}, 1.5, True):
            data = json.loads(json.dumps(good))
            data["support"] = [bad_id]
            with pytest.raises(ValueError):
                ExplicitBallean.from_json(data)
        for data in ([], {"support": [0], "radii": ["*"]},
                     {"support": [0], "radii": ["*"], "balls": [[0, "*"]]},
                     {"support": [0], "radii": ["*"], "balls": [[1, "*", [1]]]}):
            with pytest.raises(ValueError):
                ExplicitBallean.from_json(data)
