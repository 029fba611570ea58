"""The benchmark's four workloads: seeded query generators and answer checks.

Every workload is a closed loop with one client: the next query is sent only
after the previous one has returned. Queries come in rounds. A round holds
one query for each slot of the workload's fixed mix, and each slot draws
fresh inputs from a narrow size range. So every seed runs the same mix of
sizes, and only the values inside each slot change; this is what keeps the
medians and tails steady from seed to seed.

A query is `call(lib)`, timed, plus `check(answer)`, untimed, which returns
None for a correct answer or a description of the mismatch. `lib` holds the
`balleans` modules; queries reach every function through its module, so a
traced run sees each call.
"""

from __future__ import annotations

import json
import math
import os
import random
from typing import Callable, Optional

import oracle


class Query:
    __slots__ = ("slot", "key", "call", "check")

    def __init__(self, slot: str, key, call: Callable, check: Callable):
        self.slot = slot
        self.key = key        # hashable description of the input
        self.call = call      # call(lib) -> answer, the timed part
        self.check = check    # check(answer) -> None or a mismatch message


def _expect(got, want, what: str = "answer") -> Optional[str]:
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


def _rows_key(rows) -> tuple:
    return tuple(tuple(r) for r in rows)


# ---------------------------------------------------------------------------
# integer lattices with answers known by construction


def _unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """A product of 2n random elementary row additions with multiplier ±1,
    drawn again until no entry exceeds 3 in size, so that the cost of a
    constructed input does not hang on a rare large entry."""
    while True:
        u = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(2 * n if n > 1 else 0):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-1, 1))
            ui, uj = u[i], u[j]
            for t in range(n):
                ui[t] += c * uj[t]
        if max(abs(x) for row in u for x in row) <= 3:
            return u


def _remix(rng: random.Random, rows: list[list[int]]) -> list[list[int]]:
    """The same row span, reached through a random unimodular change of
    generators plus one redundant sum of two rows."""
    mix = _unimodular(rng, len(rows))
    out = [[sum(c * row[j] for c, row in zip(coeffs, rows))
            for j in range(len(rows[0]))] for coeffs in mix]
    if len(out) > 1:
        i, j = rng.sample(range(len(out)), 2)
        out.append([x + y for x, y in zip(out[i], out[j])])
    rng.shuffle(out)
    return out


def constructed_pair(rng: random.Random, n: int):
    """Generators of diag(a)·U and diag(b)·U, remixed, with mu' known.

    About 30% of pairs have zero entries, which makes them rank-deficient;
    half of those share their zero positions and so keep a finite answer.
    """
    u = _unimodular(rng, n)
    a = [rng.randint(1, 12) for _ in range(n)]
    b = [rng.randint(1, 12) for _ in range(n)]
    if rng.random() < 0.3:
        zeros = set(rng.sample(range(n), rng.randint(1, max(1, n // 3))))
        b_zeros = zeros if rng.random() < 0.5 else zeros ^ {rng.randrange(n)}
        for i in zeros:
            a[i] = 0
        for i in b_zeros:
            b[i] = 0
    ga = _remix(rng, [[x * v for v in row] for x, row in zip(a, u)])
    gb = _remix(rng, [[x * v for v in row] for x, row in zip(b, u)])
    return ga, gb, oracle.constructed_mu(a, b)


def random_pair(rng: random.Random, n: int, bound: int = 99):
    """Independent random generator sets, mostly of full rank."""

    def gens():
        k = n - 1 if rng.random() < 1 / 6 else rng.randint(n, n + 1)
        return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(max(k, 1))]

    return gens(), gens()


def deficient_span(rng: random.Random, n: int):
    """Generators of a rank-r sublattice, r < n, and its saturation's rows.

    The rows a_i·u_i (i in I) of diag(a)·U span a sublattice whose
    saturation is spanned by the unimodular rows u_i themselves.
    """
    u = _unimodular(rng, n)
    keep = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
    scale = [rng.randint(1, 12) for _ in keep]
    rows = [[a * v for v in u[i]] for a, i in zip(scale, keep)]
    return _remix(rng, rows), [u[i] for i in keep]


def _distance_query(slot, n, ga, gb, want) -> Query:
    def call(lib):
        lat = lib.lattices
        return lat.log_subgroup_distance(lat.lattice_from_generators(n, ga),
                                         lat.lattice_from_generators(n, gb))

    def check(ans):
        expected = oracle.lattice_mu(ga, gb) if want == "oracle" else want
        return _expect(ans.value, expected, "mu'")

    return Query(slot, (slot, _rows_key(ga), _rows_key(gb)), call, check)


def _saturation_query(slot, n, gens, sat_rows) -> Query:
    def call(lib):
        lat = lib.lattices
        return lat.saturation(lat.lattice_from_generators(n, gens))

    def check(ans):
        got = [list(r) for r in ans.basis]
        if len(got) != len(sat_rows) or not oracle.same_span(got, sat_rows):
            return f"saturation: got {got}, want the span of {sat_rows}"
        return None

    return Query(slot, (slot, _rows_key(gens)), call, check)


FAG_SHAPES = [(12,), (12, 12), (12,) * 3, (12,) * 4, (12,) * 5,
              (2,) * 7, (3,) * 6, (4, 8, 16, 32)]


def _random_elements(rng: random.Random, orders, count: int) -> list[tuple]:
    return [tuple(rng.randrange(m) for m in orders) for _ in range(count)]


def _fag_query(slot, orders, ga, gb) -> Query:
    def call(lib):
        grp = lib.groups
        parent = grp.FiniteAbelianGroup.from_orders(list(orders))
        a = grp.FAGSubgroup.from_elements(parent, ga)
        b = grp.FAGSubgroup.from_elements(parent, gb)
        return grp.fag_log_distance(a, b)

    def check(ans):
        box = oracle.Box(orders)
        return _expect(ans.value, oracle.index_mu(box.closure(ga), box.closure(gb)), "mu'")

    return Query(slot, (slot, orders, tuple(ga), tuple(gb)), call, check)


def lattice_dist_round(rng: random.Random, r: int) -> list[Query]:
    """22 distance pairs in Z^2..Z^12, 6 saturations, 9 finite-group distances."""
    out = []
    for n in range(2, 13):
        ga, gb = random_pair(rng, n)
        out.append(_distance_query(f"random-Z{n}", n, ga, gb, "oracle"))
        ga, gb, want = constructed_pair(rng, n)
        out.append(_distance_query(f"constructed-Z{n}", n, ga, gb, want))
    for n in (3, 5, 7, 9, 11, 12):
        gens, sat = deficient_span(rng, n)
        out.append(_saturation_query(f"saturation-Z{n}", n, gens, sat))
    shapes = FAG_SHAPES + [(12,) * rng.randint(1, 5)]
    for i, orders in enumerate(shapes):
        ga = _random_elements(rng, orders, rng.randint(1, 3))
        gb = _random_elements(rng, orders, rng.randint(1, 3))
        out.append(_fag_query(f"fag-{i}", orders, ga, gb))
    return out


# ---------------------------------------------------------------------------
# finite covers, exp balls and explicit balleans


def _subset(rng: random.Random, orders, size: int) -> frozenset:
    out: set = set()
    while len(out) < size:
        out.add(tuple(rng.randrange(m) for m in orders))
    return frozenset(out)


def _mu_query(slot, orders, y: frozenset, z: frozenset, index_answer=None) -> Query:
    def call(lib):
        bl = lib.ballean
        parent = lib.groups.FiniteAbelianGroup(orders)
        return bl.mu_report(bl.FiniteSubset(parent, y), bl.FiniteSubset(parent, z))

    def check(ans):
        box = oracle.Box(orders)
        mu, single = oracle.mu_pair(box.add, box.neg, box.zero, y, z)
        if index_answer is not None and mu != index_answer:
            return f"cover oracle {mu} disagrees with the index formula {index_answer}"
        return (_expect(ans.mu.value, mu, "mu")
                or _expect(ans.single_set.value, single, "single_set"))

    return Query(slot, (slot, orders, y, z), call, check)


MU_RANDOM = [((2,) * 8, 1, 6), ((2,) * 8, 2, 8), ((2,) * 8, 2, 12),
             ((2,) * 8, 3, 8), ((2,) * 8, 3, 10), ((2,) * 8, 3, 12),
             ((2,) * 6, 2, 8), ((2,) * 6, 3, 10), ((4,) * 3, 2, 8),
             ((4,) * 3, 3, 10), ((24,), 2, 8), ((24,), 3, 10), ((60,), 3, 12)]
MU_SUBGROUP = [(2,) * 6, (4,) * 3, (24,), (60,), (2,) * 8]
EXP_BALL = [((24,), 3), ((2,) * 8, 6), ((60,), 3)]


def _small_subgroup(rng: random.Random, box, most: int = 8) -> frozenset:
    """A subgroup generated by one or two random elements, of order <= most."""
    while True:
        h = box.closure(_random_elements(rng, box.orders, rng.randint(1, 2)))
        if len(h) <= most:
            return h


def _coset_pair(rng: random.Random, orders):
    """g + H and g + K for random subgroups of order <= 8: mu is the index.

    Larger cosets are past the cover search's cliff: with |H| = 16 and
    |K| = 4 in (Z/4)^3 one mu_report runs for minutes.
    """
    box = oracle.Box(orders)
    h, k = _small_subgroup(rng, box), _small_subgroup(rng, box)
    g = _random_elements(rng, orders, 1)[0]
    shift = lambda s: frozenset(box.add(g, x) for x in s)
    return shift(h), shift(k), oracle.index_mu(h, k)


def _exp_ball_query(slot, orders, radius) -> Query:
    def call(lib):
        parent = lib.groups.FiniteAbelianGroup(orders)
        return lib.ballean.exp_ball_enumerate_centered_identity(parent, radius)

    def check(ans):
        # Z ∈ exp B({e}, F) iff Z ⊆ F and e ∈ Z + F, which F ∋ e makes
        # automatic: the ball is every nonempty subset of F ∪ -F ∪ {e}.
        f = oracle.Box(orders).symmetrize(radius)
        bad = [z for z in ans if not z or not z <= f]
        return _expect((len(ans), bad), (2 ** len(f) - 1, []), "(members, strays)")

    return Query(slot, (slot, orders, tuple(radius)), call, check)


def random_relations(rng: random.Random, size: int) -> dict:
    """Radii of a valid ballean on range(size), valid by construction.

    r1 ⊆ r2 are reflexive symmetric relations; the radii are r1, r2, r2∘r2
    and the transitive closure of r2. Any composition of two of them lies
    inside the closure, so upper multiplicativity has a witness. r2 holds a
    random path through every point, so the closure is always the whole
    support and the size of the exp-hyperballean varies little between seeds.
    """
    points = range(size)

    def relation(edges: int, base=None) -> dict:
        rel = {x: {x} | (base[x] if base else set()) for x in points}
        for _ in range(edges):
            a, b = rng.randrange(size), rng.randrange(size)
            rel[a].add(b)
            rel[b].add(a)
        return rel

    def add_path(rel: dict) -> dict:
        order = rng.sample(range(size), size)
        for a, b in zip(order, order[1:]):
            rel[a].add(b)
            rel[b].add(a)
        return rel

    def compose(r, s):
        return {x: set().union(*(s[y] for y in r[x])) for x in points}

    r1 = relation(rng.randint(0, size))
    r2 = add_path(relation(rng.randint(0, size), r1))
    closed = r2
    while (nxt := compose(closed, closed)) != closed:
        closed = nxt
    return {"a": r1, "b": r2, "bb": compose(r2, r2), "cl": closed}


def _ballean_query(slot, op: str, rel: dict) -> Query:
    size = len(rel["a"])
    radii = tuple(rel)

    def call(lib):
        bl = lib.ballean
        table = {(x, a): frozenset(rel[a][x]) for a in radii for x in range(size)}
        b = bl.ExplicitBallean(tuple(range(size)), radii, table)
        return getattr(bl, op)(b)

    def check(ans):
        pm = oracle.point_masks(range(size), radii, lambda x, a: rel[a][x])
        if op == "validate_ballean":
            return _expect(ans.ok, True, "valid")
        if op == "cellularization":
            want = {(x, a): m for a in radii for x, m in enumerate(oracle.closure_masks(pm[a]))}
            got = {key: sum(1 << y for y in ball) for key, ball in ans.balls.items()}
            return _expect(got, want, "cellular balls")
        masks = {s: sum(1 << x for x in s) for s in ans.support}
        if sorted(masks.values()) != list(range(1, 2 ** size)):
            return "exp support is not every nonempty subset"
        for a in radii:
            blown = oracle.blown_masks(pm[a])
            for y, ym in masks.items():
                got = {masks[z] for z in ans.balls[(y, a)]}
                if got != set(oracle.exp_ball_masks(blown, ym)):
                    return f"exp ball of {sorted(y)} at {a!r} differs"
        return None

    key = (slot, tuple(tuple(sorted(rel[a][x])) for a in radii for x in range(size)))
    return Query(slot, key, call, check)


def finite_cover_round(rng: random.Random, r: int) -> list[Query]:
    """13 random-subset and 5 coset mu pairs, 3 exp balls, 8 ballean ops.

    exp_hyperballean_of on 9 points runs twice, so that the p95 tail falls
    inside its times and not on the edge between two slots' times. On 6
    points it runs twice too: the round's median query then falls inside
    its steady times, and not on the gap between two groups of mu queries.
    """
    out = []
    for i, (orders, ny, nz) in enumerate(MU_RANDOM):
        out.append(_mu_query(f"mu-random-{i}", orders, _subset(rng, orders, ny),
                             _subset(rng, orders, nz)))
    for i, orders in enumerate(MU_SUBGROUP):
        y, z, index = _coset_pair(rng, orders)
        out.append(_mu_query(f"mu-coset-{i}", orders, y, z, index))
    for i, (orders, count) in enumerate(EXP_BALL):
        radius = sorted(_subset(rng, orders, count) - {(0,) * len(orders)})
        out.append(_exp_ball_query(f"exp-ball-{i}", orders, radius))
    for slot, op, size in (("validate-9", "validate_ballean", 9),
                           ("cellularize-9", "cellularization", 9),
                           ("exp-6", "exp_hyperballean_of", 6),
                           ("exp-6b", "exp_hyperballean_of", 6),
                           ("exp-7", "exp_hyperballean_of", 7),
                           ("exp-8", "exp_hyperballean_of", 8),
                           ("exp-9", "exp_hyperballean_of", 9),
                           ("exp-9b", "exp_hyperballean_of", 9)):
        out.append(_ballean_query(slot, op, random_relations(rng, size)))
    return out


# ---------------------------------------------------------------------------
# small interactive queries through the CLI


def _cli_query(slot, argv: list[str], check_json: Callable) -> Query:
    """The answer is (exit code, stdout); `check_json` sees the parsed output."""

    def call(lib):
        return lib.run_cli(argv)

    def check(ans):
        code, text = ans
        if code != 0:
            return f"exit code {code} for {argv}"
        try:
            payload = json.loads(text)
        except ValueError:
            return f"stdout is not JSON for {argv}"
        return check_json(payload)

    return Query(slot, (slot, tuple(argv)), call, check)


def _mu_field(want: Optional[int]):
    return "inf" if want is None else want


def _check_distance(want: Optional[int]):
    def check(out):
        if out.get("mu") != _mu_field(want):
            return _expect(out.get("mu"), _mu_field(want), "mu")
        log = out.get("log")
        if want is not None and not math.isclose(log, math.log(want) / math.log(out["base"]),
                                                 rel_tol=1e-9, abs_tol=1e-12):
            return f"log {log} does not match mu {want}"
        return None
    return check


def _span(rows) -> str:
    return "span[" + ",".join("(" + ",".join(map(str, r)) + ")" for r in rows) + "]"


def _parse_span(text: str) -> list[list[int]]:
    body = text[len("span["):-1]
    return [[int(v) for v in part.strip("()").split(",")]
            for part in body.replace("),(", ")|(").split("|") if part]


def _element(e: tuple) -> str:
    return str(e[0]) if len(e) == 1 else "(" + ",".join(map(str, e)) + ")"


def _group_text(orders) -> str:
    return "Z(" + ",".join(map(str, orders)) + ")"


CLI_GROUPS = [(12,), (2, 4), (2, 4, 8), (3, 9), (60,)]


# Descriptor files for `profile`: (descriptor, expected asdim, expected size of
# the isolated-point set), following the classification: asdim is finite only
# for torsion groups with finite Pruefer multiplicities and layerly finite
# reduced parts, and equals the number of Pruefer primes when none repeats;
# isolated subgroups exist only when the reduced part is torsion-free, and
# then number 1, 2, omega or 2^r by the rational rank r.
def _descriptors(rng: random.Random) -> list[tuple[dict, dict, str]]:
    primes = [2, 3, 5, 7, 11, 13]
    few = sorted(rng.sample(primes, rng.randint(1, 4)))
    fin = sorted(rng.sample(primes, rng.randint(1, 3)))
    rank = rng.randint(1, 5)
    q = rng.randint(2, 6)
    return [
        ({"free_rank": rank}, {"kind": "infinite"}, "1"),
        ({"divisible": {"q_rank": 1}}, {"kind": "infinite"}, "2"),
        ({"divisible": {"q_rank": q}}, {"kind": "infinite"}, "omega"),
        ({"divisible": {"q_rank": "omega"}}, {"kind": "infinite"}, "2^omega"),
        ({"divisible": {"prufer": {str(p): 1 for p in few}}},
         {"kind": "finite", "n": len(few)}, "1"),
        ({"divisible": {"prufer": {str(few[0]): 2}}},
         {"kind": "unknown", "lower_bound": 2}, "1"),
        ({"reduced_torsion": {str(p): {"kind": "finite", "order": p ** rng.randint(1, 4)}
                              for p in fin}}, {"kind": "zero"}, "0"),
        ({"divisible": {"prufer": {str(few[0]): 1}},
          "reduced_torsion": {str(fin[0]): {"kind": "layerly_finite"}}},
         {"kind": "unknown", "lower_bound": 1}, "0"),
    ]


def cli_setup(rng: random.Random, out_dir: str) -> list[tuple[str, dict, str]]:
    """Write the descriptor files; return (path, asdim, iso size) triples."""
    os.makedirs(out_dir, exist_ok=True)
    files = []
    for i, (desc, asdim, iso) in enumerate(_descriptors(rng)):
        path = os.path.join(out_dir, f"descriptor-{i}.json")
        with open(path, "w") as fh:
            json.dump(desc, fh)
        files.append((path, asdim, iso))
    return files


def _cli_dist_lattice(rng, slot, n, constructed: bool) -> Query:
    if constructed:
        ga, gb, want = constructed_pair(rng, n)
    else:
        ga, gb = random_pair(rng, n, bound=20)
        want = None
    argv = ["dist", "--group", f"Z^{n}", "--sub", _span(ga), "--sub", _span(gb)]
    if constructed:
        return _cli_query(slot, argv, _check_distance(want))
    return _cli_query(slot, argv, lambda out: _check_distance(oracle.lattice_mu(ga, gb))(out))


def _cli_dist_fag(rng, slot, orders) -> Query:
    ga = _random_elements(rng, orders, rng.randint(1, 2))
    gb = _random_elements(rng, orders, rng.randint(1, 2))
    sub = lambda gens: "gen{" + ",".join(_element(e) for e in gens) + "}"
    argv = ["dist", "--group", _group_text(orders), "--sub", sub(ga), "--sub", sub(gb)]

    def check(out):
        box = oracle.Box(orders)
        return _check_distance(oracle.index_mu(box.closure(ga), box.closure(gb)))(out)

    return _cli_query(slot, argv, check)


def _cli_prufer(rng, slot) -> Query:
    p = rng.choice([2, 3, 5, 7])
    i, j = rng.randint(0, 30), rng.randint(0, 30)
    whole = rng.random() < 0.2
    subs = ["whole" if whole else f"H_{i}@{p}", f"H_{j}@{p}"]
    want = None if whole else p ** abs(i - j)
    return _cli_query(slot, ["dist", "--group", f"prufer@{p}", "--sub", subs[0],
                             "--sub", subs[1]], _check_distance(want))


def _cli_saturate(rng, slot, n) -> Query:
    gens, sat = deficient_span(rng, n)

    def check(out):
        got = _parse_span(out["saturation"])
        if len(got) != len(sat) or not oracle.same_span(got, sat):
            return f"saturation {out['saturation']} is not the span of {sat}"
        return None

    return _cli_query(slot, ["saturate", "--group", f"Z^{n}", "--sub", _span(gens)], check)


def _cli_ball(slot, argv, want_members: set) -> Query:
    return _cli_query(slot, argv, lambda out: _expect(set(out["members"]), want_members,
                                                      "members"))


def _cli_lz_exp(rng, slot, lo, hi, ms) -> Query:
    n, m = rng.randint(lo, hi), rng.choice(ms)
    return _cli_ball(slot, ["ball", "--family", "LZ-exp", "--n", str(n), "--m", str(m)],
                     {f"{k}Z" for k in oracle.lz_exp_members(n, m)})


def _cli_lz_log(rng, slot, lo, hi, ks) -> Query:
    n, k = rng.randint(lo, hi), rng.choice(ks)
    return _cli_ball(slot, ["ball", "--family", "LZ-log", "--n", str(n), "--K", str(k)],
                     {f"{m}Z" for m in oracle.lz_log_members(n, k)})


def _cli_prufer_ball(rng, slot) -> Query:
    p, level, k = rng.choice([2, 3, 5]), rng.randint(0, 50), rng.randint(1, 1000)
    return _cli_ball(slot, ["ball", "--family", "prufer", "--p", str(p), "--n", str(level),
                            "--K", str(k)],
                     {f"H_{j}@{p}" for j in oracle.prufer_members(p, level, k)})


def _cli_component(rng, slot) -> Query:
    family = rng.choice(["Z^n", "prufer", "finite"])
    if family == "Z^n":
        n = rng.randint(1, 5)
        argv, want = ["component", "--family", "Z^n", "--n", str(n)], 2 if n == 1 else "omega"
    elif family == "prufer":
        p = rng.choice([2, 3, 5, 7, 11])
        argv, want = ["component", "--family", "prufer", "--p", str(p)], 2
    else:
        argv, want = ["component", "--family", "finite"], 1
    return _cli_query(slot, argv, lambda out: _expect(out.get("count"), want, "count"))


def _cli_exp_ball(rng, slot) -> Query:
    orders = rng.choice([(12,), (2, 4)])
    radius = sorted(_subset(rng, orders, 2))
    f = oracle.Box(orders).symmetrize(radius)

    def check(out):
        got = {frozenset(tuple(e) for e in z) for z in out["members"]}
        return _expect(len(got), 2 ** len(f) - 1, "members") or \
            _expect(all(z and z <= f for z in got), True, "members inside F")

    return _cli_query(slot, ["exp-ball", "--group", _group_text(orders),
                             "--radius", ",".join(_element(e) for e in radius)], check)


def _cli_mu(rng, slot) -> Query:
    orders = rng.choice([(12,), (2, 4), (2, 2, 2)])
    y, z = _subset(rng, orders, rng.randint(1, 3)), _subset(rng, orders, rng.randint(2, 4))
    text = lambda s: "{" + ",".join(_element(e) for e in sorted(s)) + "}"
    argv = ["mu", "--group", _group_text(orders), "--set", text(y), "--set", text(z)]

    def check(out):
        box = oracle.Box(orders)
        mu, single = oracle.mu_pair(box.add, box.neg, box.zero, y, z)
        return _check_distance(mu)(out) or _expect(out.get("single_set"), _mu_field(single),
                                                    "single_set")

    return _cli_query(slot, argv, check)


def _cli_profile(rng, slot, files) -> Query:
    path, asdim, iso = files[rng.randrange(len(files))]

    def check(out):
        return _expect(out.get("asdim"), asdim, "asdim") or \
            _expect(out.get("iso_points", {}).get("size"), iso, "iso_points size")

    return _cli_query(slot, ["profile", "--descriptor", path], check)


def cli_mix_round(rng: random.Random, r: int, files) -> list[Query]:
    """18 queries: distances, saturation, balls, census, exp-ball, mu, profile."""
    k, l = rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)
    g = math.gcd(k, l)
    out = [_cli_query("dist-Z", ["dist", "--group", "Z", "--sub", f"{k}Z", "--sub", f"{l}Z"],
                      _check_distance(max(k // g, l // g)))]
    for n in (2, 3, 4):
        out.append(_cli_dist_lattice(rng, f"dist-Z{n}", n, constructed=True))
    out.append(_cli_dist_lattice(rng, "dist-Z3-random", 3, constructed=False))
    out.append(_cli_dist_fag(rng, "dist-fag", CLI_GROUPS[r % len(CLI_GROUPS)]))
    out.append(_cli_dist_fag(rng, "dist-fag-cyclic", rng.choice([(12,), (60,)])))
    out.append(_cli_prufer(rng, "dist-prufer"))
    out.append(_cli_saturate(rng, "saturate", rng.choice([3, 4])))
    # the two large balls carry half of a round's time, so their radius is
    # fixed: with a random one, a round's time would follow a coin toss
    out.append(_cli_lz_exp(rng, "ball-lz-exp-small", 1, 60, (0, 1, 2, 3)))
    out.append(_cli_lz_exp(rng, "ball-lz-exp-large", 400, 500, (3,)))
    out.append(_cli_lz_log(rng, "ball-lz-log-small", 1, 1000, (1, 2, 3, 4, 5, 6)))
    out.append(_cli_lz_log(rng, "ball-lz-log-large", 80_000, 100_000, (2,)))
    out.append(_cli_prufer_ball(rng, "ball-prufer"))
    out.append(_cli_component(rng, "component"))
    out.append(_cli_exp_ball(rng, "exp-ball"))
    out.append(_cli_mu(rng, "mu"))
    out.append(_cli_profile(rng, "profile", files))
    return out


# ---------------------------------------------------------------------------
# the verification suites through the CLI

# Sample counts each suite reports, fixed by its definition: iota draws 300
# random pairs from a 7x7 grid; hamming takes the 1225 unordered pairs of that
# grid with repetition; elemab pairs the 32 subsets of {0..4}, 528 ways, for
# two primes; tree visits the 64 abelian p-groups of order <= 81; lzball
# covers n <= 20 and m <= 3; mu-index pairs the 6 subgroups of Z(12) and the
# 8 of Z(2)+Z(4); cellular draws 25 balleans; axioms checks 200 triples twice.
SUITE_SAMPLES = {"iota": 300, "hamming": 1225, "elemab": 1056, "tree": 64,
                 "lzball": 80, "mu-index": 57, "cellular": 25, "axioms": 400}
SUITE_CLAIMS = {"iota": "iota-embedding", "hamming": "hamming-embedding-isometry",
                "elemab": "elementary-abelian-correspondence",
                "tree": "cyclic-subgroup-trees", "lzball": "integer-subgroup-exp-balls",
                "mu-index": "mu-equals-index-formula", "cellular": "hyperballean-cellularity",
                "axioms": "metric-axioms"}
# Suites whose result depends on --seed; the others ignore it, so from the
# second round on their input repeats an earlier one.
SEEDED_SUITES = {"iota", "cellular", "axioms"}


def verify_round(seed: int, r: int) -> list[Query]:
    """The eight suites in a fixed order; the seed advances every round."""
    suite_seed = seed * 1000 + r
    out = []
    for name in SUITE_SAMPLES:
        argv = ["verify", "--suite", name, "--seed", str(suite_seed)]

        def check(reports, name=name):
            if len(reports) != 1:
                return f"{len(reports)} reports"
            rep = reports[0]
            return (_expect(rep.get("claim"), SUITE_CLAIMS[name], "claim")
                    or _expect(rep.get("samples"), SUITE_SAMPLES[name], "samples")
                    or _expect((rep.get("ok"), rep.get("violations")), (True, []),
                               "(ok, violations)"))

        key = ("verify", name, suite_seed if name in SEEDED_SUITES else None)
        q = _cli_query(name, argv, check)
        q.key = key
        out.append(q)
    return out


# ---------------------------------------------------------------------------


class Workload:
    """A named closed-loop workload.

    `make_round(rng, r, env)` builds round r; env holds the seed and whatever
    `setup` returned. tail_pct is the fixed percentile reported as
    latency_tail_ms: the highest of 80, 90, 95, 97, 99 and 99.9 that left at
    least ten samples beyond it in every 25-second run, and that repeated
    from seed to seed, when the benchmark was defined. In lattice-dist p99
    falls where the times of the n = 11 and 12 distances climb steeply, and
    it moved by 10 to 20% between seeds; p97 moved by 3%. It stays fixed so
    that both sides of a change report the same percentile.
    """

    def __init__(self, name, tail_pct, time_limit_s, make_round, setup=None):
        self.name = name
        self.tail_pct = tail_pct
        self.time_limit_s = time_limit_s
        self._make_round = make_round
        self._setup = setup
        self._state = None

    def setup(self, seed: int, out_dir: str) -> None:
        if self._setup is not None:
            self._state = self._setup(random.Random(f"setup-{seed}"), out_dir)

    def rounds(self, seed: int):
        """Rounds of queries for this seed, the same on every call."""
        rng = random.Random(seed)
        env = {"seed": seed, "state": self._state}
        r = 0
        while True:
            yield self._make_round(rng, r, env)
            r += 1

    def first_query(self, seed: int) -> Query:
        """The untimed first query, from its own stream so that no timed
        input repeats it."""
        return next(self.rounds(seed + 10 ** 9))[0]


WORKLOADS = {
    w.name: w for w in (
        Workload("lattice-dist", 97, 10.0, lambda rng, r, env: lattice_dist_round(rng, r)),
        Workload("finite-cover", 95, 10.0, lambda rng, r, env: finite_cover_round(rng, r)),
        Workload("cli-mix", 99, 10.0,
                 lambda rng, r, env: cli_mix_round(rng, r, env["state"]),
                 setup=lambda rng, d: cli_setup(rng, os.path.join(d, "descriptors"))),
        Workload("verify-all", 80, 60.0, lambda rng, r, env: verify_round(env["seed"], r)),
    )
}
