"""Set-up time of one workload, measured in a fresh process.

Prints one JSON line: the seconds from before `import balleans` to the
checked answer of the workload's first query, and whether it was correct.
The query's inputs are generated before the clock starts.

    python3 perfbench/probe.py lattice-dist --seed 0
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def main() -> None:
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, here)
    import workloads
    from run import OUT_DIR, Lib

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    wl = workloads.WORKLOADS[args.workload]
    wl.setup(args.seed, OUT_DIR)
    query = wl.first_query(args.seed)

    t0 = time.perf_counter()
    import balleans  # noqa: F401
    import balleans.cli  # noqa: F401
    answer = query.call(Lib())
    seconds = time.perf_counter() - t0
    print(json.dumps({"setup_s": seconds, "ok": query.check(answer) is None}))


if __name__ == "__main__":
    main()
