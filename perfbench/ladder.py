"""Size ladders: where each layer's cost cliff starts.

Each ladder runs in one child process, one child at a time. The child runs
its rungs in order of size, reports each rung's time on its stdout and then
checks its answer off the clock; the parent kills it when a rung runs past
the limit. An alarm inside the process would not do: `snf` on a 5x5 matrix
grows its entries to millions of bits, and the interpreter can spend a long
time inside one big-integer operation.

Run a single ladder by hand from the repository root:

    python3 perfbench/ladder.py row_hnf --seed 0
"""

from __future__ import annotations

import argparse
import os
import random
import select
import subprocess
import sys
import time
import types

LIMIT_S = 1.0     # a rung that takes longer than this is past the cliff
GAP_S = 30.0      # time allowed between rungs, for answer checks and inputs

# name -> (metric, what the size means, rungs)
LADDERS = {
    "row_hnf": ("max_n", "n for an n x n matrix, entries in [-99, 99]",
                [4, 8, 12, 16, 20, 24, 28, 32, 40, 48, 64]),
    "snf": ("max_n", "n for an n x n matrix, entries in [-99, 99]", [2, 3, 4, 5, 6, 8]),
    "distance": ("max_n", "n for a random pair of n x n generator sets, entries in [-99, 99]",
                 [2, 4, 6, 8, 12, 16, 20, 24, 32, 40, 48]),
    "mu": ("max_z", "|Z| for |Y| = 2 in (Z/2)^8", [8, 12, 16, 20, 24, 28, 32, 40, 48, 64]),
    "exp_hyperballean": ("max_points", "points of a random valid ballean", list(range(4, 15))),
    "all_subgroups": ("max_order", "|G| for G = (Z/2)^k", [2, 4, 8, 16, 32, 64]),
    "lz_exp_ball": ("max_n", "n with m = 3",
                    [125, 250, 500, 1000, 2000, 4000, 8000, 16000, 32000]),
    "lz_log_ball": ("max_n", "n with K = 2", [10 ** 4, 3 * 10 ** 4, 10 ** 5, 3 * 10 ** 5,
                                              10 ** 6, 3 * 10 ** 6, 10 ** 7, 3 * 10 ** 7]),
}

# subgroup counts of (Z/2)^k, k = 0..6: sums of Gaussian binomials at q = 2
SUBGROUPS_OF_2K = {1: 1, 2: 2, 4: 5, 8: 16, 16: 67, 32: 374, 64: 2825}


def _matrix(rng, n):
    return [[rng.randint(-99, 99) for _ in range(n)] for _ in range(n)]


def _rung(name: str, size: int, rng: random.Random):
    """Return (run, check) for one rung: run() is timed, check(result) is not."""
    import oracle
    import workloads
    from balleans import ballean, exactmat, groups, lattices, witnesses

    if name == "row_hnf":
        m = _matrix(rng, size)
        return (lambda: exactmat.row_hnf(m)), lambda h: h == oracle.hnf(m)
    if name == "snf":
        m = _matrix(rng, size)
        return (lambda: exactmat.snf(m)), lambda d: d == oracle.smith_invariants(m)
    if name == "distance":
        ga, gb = _matrix(rng, size), _matrix(rng, size)

        def run():
            return lattices.log_subgroup_distance(lattices.lattice_from_generators(size, ga),
                                                  lattices.lattice_from_generators(size, gb))
        return run, lambda d: d.value == oracle.lattice_mu(ga, gb)
    if name == "mu":
        orders = (2,) * 8
        y = workloads._subset(rng, orders, 2)
        z = workloads._subset(rng, orders, size)
        parent = groups.FiniteAbelianGroup(orders)

        def run():
            return ballean.mu_report(ballean.FiniteSubset(parent, y),
                                     ballean.FiniteSubset(parent, z))
        return run, lambda rep: rep.mu.value == oracle.mu_two_points(orders, y, z)
    if name == "exp_hyperballean":
        q = workloads._ballean_query("ladder", "exp_hyperballean_of",
                                     workloads.random_relations(rng, size))
        return (lambda: q.call(types.SimpleNamespace(ballean=ballean))), \
            lambda e: q.check(e) is None
    if name == "all_subgroups":
        k = size.bit_length() - 1
        g = groups.FiniteAbelianGroup((2,) * k)
        return (lambda: groups.all_subgroups(g)), lambda subs: len(subs) == SUBGROUPS_OF_2K[size]
    if name == "lz_exp_ball":
        return (lambda: witnesses.lz_exp_ball(size, 3)), \
            lambda ks: ks == oracle.lz_exp_members(size, 3)
    if name == "lz_log_ball":
        return (lambda: witnesses.lz_log_ball(size, 2)), \
            lambda ms: ms == oracle.lz_log_members(size, 2)
    raise ValueError(f"unknown ladder {name!r}")


def child(name: str, seed: int) -> None:
    """Run the rungs of one ladder. For each rung print `start`, then `done`
    with its time or `refused`, then `checked` with 1 for a right answer."""
    rng = random.Random(f"{name}-{seed}")
    for size in LADDERS[name][2]:
        run, check = _rung(name, size, rng)
        print(f"start {size}", flush=True)
        t0 = time.perf_counter()
        try:
            result = run()
        except ValueError as e:
            print(f"refused {size} {e}", flush=True)
            return
        seconds = time.perf_counter() - t0
        print(f"done {size} {seconds:.6f}", flush=True)
        print(f"checked {size} {int(bool(check(result)))}", flush=True)
        if seconds > LIMIT_S:
            return


def _lines(proc: subprocess.Popen, timeout: float):
    """Yield stdout lines; yield None when `timeout` passes without a line."""
    buf = b""
    fd = proc.stdout.fileno()
    while True:
        while b"\n" in buf:
            line, buf = buf.split(b"\n", 1)
            yield line.decode()
        ready, _, _ = select.select([fd], [], [], timeout)
        if not ready:
            yield None
            continue
        chunk = os.read(fd, 4096)
        if not chunk:
            return
        buf += chunk


def run_ladder(name: str, seed: int) -> dict:
    """Run one ladder in a child; return its rungs and the largest size that
    finished within the limit with a right answer (0 when none did)."""
    cmd = [sys.executable, os.path.abspath(__file__), name, "--seed", str(seed)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
    rungs: list[dict] = []
    status = "ladder ended"
    started = None
    try:
        deadline = time.monotonic() + GAP_S
        for line in _lines(proc, 0.05):
            now = time.monotonic()
            if line is None:
                if now > deadline:
                    if started is not None:
                        rungs.append({"size": started, "seconds": None, "ok": None})
                        status = f"killed at size {started} after {LIMIT_S} s"
                    else:
                        status = "killed between rungs"
                    break
                continue
            kind, size, *rest = line.split(" ", 2)
            if kind == "start":
                started = int(size)
                deadline = now + LIMIT_S + 0.25
            elif kind == "done":
                seconds = float(rest[0])
                rungs.append({"size": int(size), "seconds": seconds, "ok": None})
                started = None
                deadline = now + GAP_S
                if seconds > LIMIT_S:
                    status = f"size {size} took {seconds:.3f} s"
            elif kind == "checked":
                rungs[-1]["ok"] = rest[0] == "1"
            elif kind == "refused":
                rungs.append({"size": int(size), "seconds": None, "ok": None})
                status = f"refused size {size}: {rest[0] if rest else ''}"
                started = None
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    finished = [r["size"] for r in rungs if r["seconds"] is not None
                and r["seconds"] <= LIMIT_S and r["ok"]]
    return {"metric": f"ladder.{name}.{LADDERS[name][0]}", "size_means": LADDERS[name][1],
            "rungs": rungs,
            "max": max(finished, default=0), "stopped": status,
            "failed": sum(1 for r in rungs if r["ok"] is False)}


def main() -> None:
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, here)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ladder", choices=sorted(LADDERS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    child(args.ladder, args.seed)


if __name__ == "__main__":
    main()
