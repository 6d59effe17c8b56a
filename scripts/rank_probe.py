#!/usr/bin/env python3
"""Memory probe for ``evaluate.rank_pool``: what ranking one test pool holds.

Each mode ranks a random float32 pool of ``--pairs`` pairs at width
``--width`` in both metric spaces and both directions, with two partitions
(a shuffled 40% and the sorted rest), and prints one JSON line:

* ``peak``: the ``tracemalloc`` peak of the ranking, in pool matrices
  (pairs² float32 cells).
* ``limit``: the ranking in a child process under an address-space limit
  of ``--limit-gib`` GiB (``RLIMIT_AS``), so an over-budget pool ends in
  ``MemoryError`` instead of the OOM killer; reports the child's exit code,
  CPU seconds and maximum RSS.

``--src`` imports ``tkgalign`` from another source tree, to probe another
commit with the same script. Run from the repository root, e.g.::

    python3 scripts/rank_probe.py peak --pairs 2000
    python3 scripts/rank_probe.py limit --pairs 25960 --limit-gib 4
"""
import argparse
import json
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np


def rank(pairs: int, width: int, traced: bool) -> dict:
    from tkgalign.evaluate import rank_pool

    rng = np.random.default_rng(0)
    reps = rng.normal(size=(2 * pairs, width)).astype(np.float32)
    pool = np.stack([np.arange(pairs), pairs + rng.permutation(pairs)], axis=1)
    order = rng.permutation(pairs)
    partitions = (("highly", order[:2 * pairs // 5]), ("lowly", np.sort(order[2 * pairs // 5:])))
    if traced:
        tracemalloc.start()
    t0 = time.process_time()
    reports = rank_pool(reps, pool, spaces=("l1", "csls"), directions=("g1->g2", "g2->g1"),
                        partitions=partitions)
    if not traced:  # tracemalloc slows every allocation
        return {"reports": len(reports), "rank_cpu_s": round(time.process_time() - t0, 2)}
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"reports": len(reports), "peak_pool_matrices": round(peak / (4 * pairs ** 2), 4)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("mode", choices=("peak", "limit", "child"))
    ap.add_argument("--pairs", type=int, default=2000)
    ap.add_argument("--width", type=int, default=16)
    ap.add_argument("--limit-gib", type=float, default=4.0)
    ap.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    args = ap.parse_args()
    sys.path.insert(0, str(args.src))
    record = {"mode": args.mode, "pairs": args.pairs, "width": args.width, "src": str(args.src)}
    if args.mode in ("peak", "child"):
        record.update(rank(args.pairs, args.width, traced=args.mode == "peak"))
    else:
        limit = int(args.limit_gib * 2 ** 30)
        argv = [sys.executable, __file__, "child", "--pairs", str(args.pairs),
                "--width", str(args.width), "--src", str(args.src)]
        proc = subprocess.run(argv, capture_output=True, text=True,
                              preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        tail = (proc.stderr.strip().splitlines() or [""])[-1]
        record.update(limit_gib=args.limit_gib, exit=proc.returncode,
                      cpu_s=round(usage.ru_utime + usage.ru_stime, 1),
                      max_rss_mib=round(usage.ru_maxrss / 1024, 1),
                      child=json.loads(proc.stdout) if proc.returncode == 0 else tail)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
