"""One benchmark pass in a fresh process; prints its record as JSON.

Started by ``run.py``, one process per pass, so every pass starts with the
caches a ``repro run`` process starts with.  ``--warm-kernels`` only loads
(and on first use builds) the native kernels.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    load_kernels,
    run_pass,
    setup_only,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scratch", type=Path,
                        default=ROOT / ".bench_build" / "perfbench")
    parser.add_argument("--trace", type=Path, default=None, metavar="FILE",
                        help="record spans and write a Chrome trace here")
    parser.add_argument("--no-oracle", action="store_true")
    parser.add_argument("--warm-kernels", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop where the timed region would start")
    args = parser.parse_args(argv)
    if args.warm_kernels:
        print(json.dumps(load_kernels()))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        print(json.dumps(setup_only(WORKLOADS[args.workload], args.seed)))
        return 0
    record = run_pass(WORKLOADS[args.workload], args.seed, args.scratch,
                      trace_path=args.trace, oracle=not args.no_oracle)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
