"""Run one workload of the diskvec benchmark and print its result.

    python3 bench/run.py --workload query-small-cache --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The line before it is the run record.
--records PATH also writes one JSON line per query of the first measured pass.
Run it from the repository root; it imports diskvec from src/.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def main(argv: list[str] | None = None) -> int:
    # One client and one BLAS thread: the other core is left to the machine,
    # which makes timings steadier on a small shared host. Set before numpy
    # is first imported.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(SRC))
    try:
        import harness
    except ModuleNotFoundError as exc:
        print(f"cannot import the benchmark or diskvec from {SRC}: {exc}", file=sys.stderr)
        return 2

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--records", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    result = harness.run(harness.WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), args.records)
    print("run " + json.dumps(result.record))
    print(result.line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
