"""Time the similarity layout of each commit at growing n and record it.

    python3 tools/layout_scale.py --commits PARENT CHANGE --out BENCH_<sha>.json

Each commit runs from its own `git archive`, in a fresh directory, and each
measurement in a fresh child process with one BLAS thread. Every commit lays
out the same seeded Gaussian blobs, drawn as the benchmark's harness draws
them (8 blobs of spread 1 around centres of spread 10), at dim 16 and 20
nodes to a page, the benchmark's page capacity. Per n it records the best of
--repeats timed `build_similarity_layout` calls, the commits taking turns to
run first, then the tracemalloc peak of one more call and the layout's
`mean_intra_page_distance`. The result is written under the key
"layout_scale" of --out, which keeps any other keys it already holds.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
from bench_pairs import export, merge_into  # noqa: E402

DIM, BLOBS, PAGE_CAPACITY = 16, 8, 20

# Runs in the child, from the exported tree, so that it imports that tree's diskvec.
MEASURE = """
import json, sys, time, tracemalloc
import numpy as np
sys.path.insert(0, "src")
from diskvec import layout, vecdata

n, dim, blobs, cap, seed, traced = (int(a) for a in sys.argv[1:])
rng = np.random.default_rng(seed)
centers = rng.normal(0.0, 10.0, size=(blobs, dim))
members = rng.integers(0, blobs, size=n)
ds = vecdata.VectorDataset(
    (centers[members] + rng.normal(0.0, 1.0, size=(n, dim))).astype(np.float32))
if not traced:
    start = time.perf_counter()
    layout.build_similarity_layout(ds, cap, seed=seed)
    print(json.dumps({"s": time.perf_counter() - start}))
    sys.exit()
tracemalloc.start()
lm = layout.build_similarity_layout(ds, cap, seed=seed)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(json.dumps({
    "tracemalloc_peak_mb": peak / 2**20, "clusters": int(lm.k_clusters),
    "mean_intra_page_distance": layout.mean_intra_page_distance(ds, lm),
}))
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--commits", nargs="+", required=True)
    parser.add_argument("--sizes", type=lambda s: [int(x) for x in s.split(",")],
                        default=[4_000, 20_000, 50_000])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    shas = [subprocess.run(["git", "-C", str(ROOT), "rev-parse", ref], check=True,
                           capture_output=True, text=True).stdout.strip()
            for ref in args.commits]
    commits: dict[str, dict] = {sha: {} for sha in shas}
    with tempfile.TemporaryDirectory() as tmp:
        for sha in shas:
            export(sha, Path(tmp) / sha)

        def measure(sha: str, n: int, traced: bool) -> dict:
            argv = [str(v) for v in (n, DIM, BLOBS, PAGE_CAPACITY, args.seed, int(traced))]
            out = subprocess.run([sys.executable, "-c", MEASURE, *argv], cwd=Path(tmp) / sha,
                                 env=env, check=True, capture_output=True, text=True).stdout
            print(sha[:7], n, out.strip(), file=sys.stderr)
            return json.loads(out)

        for n in args.sizes:
            times: dict[str, list[float]] = {sha: [] for sha in shas}
            for r in range(args.repeats):
                for sha in shas if r % 2 == 0 else shas[::-1]:
                    times[sha].append(measure(sha, n, traced=False)["s"])
            for sha in shas:
                commits[sha][str(n)] = {"best_s": min(times[sha]), "times_s": times[sha],
                                        **measure(sha, n, traced=True)}

    merge_into(args.out, {"layout_scale": {
        "command": "python3 tools/layout_scale.py --commits " + " ".join(args.commits)
                   + f" --sizes {','.join(map(str, args.sizes))} --seed {args.seed}"
                   + f" --repeats {args.repeats}",
        "method": f"Gaussian blobs ({BLOBS} blobs, dim {DIM}, seed {args.seed}) laid out at "
                  f"{PAGE_CAPACITY} nodes to a page with the layout's default iterations; "
                  f"best of {args.repeats} wall-clock runs, the commits taking turns to run "
                  "first, then the tracemalloc peak of one more; each run in its own process "
                  "with one BLAS thread, each commit from its own git archive.",
        "nproc": os.cpu_count(),
        "commits": commits,
    }})
    return 0


if __name__ == "__main__":
    sys.exit(main())
