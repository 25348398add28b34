"""Print the seconds a fresh interpreter spends importing halfgrids and
running one warm-up item of a workload, then the seconds the reference job
takes right after, in the same process.

    python3 bench/probe.py stack-invariants
"""

import statistics
import sys
import time

import gen
import run


def main() -> None:
    workload = sys.argv[1]
    item = gen.warmup_item(workload)
    start = time.perf_counter()
    hg = run.import_program()
    run.run_item(hg, workload, item)
    setup_s = time.perf_counter() - start
    print(setup_s, statistics.median(run.reference_s() for _ in range(3)))


if __name__ == "__main__":
    main()
