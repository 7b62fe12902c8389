"""Run interleaved benchmark pairs of two commits and write a BENCH_<sha>.json.

    python3 tools/bench_pairs.py --parent SHA --change SHA --claim TEXT \
        --claimed io_ops_per_query --claimed-workload query-small-cache \
        --seeds 1-10 --seconds 20 --out BENCH_<sha>.json

Without --claimed the file records the pairs and bounds of a change that
claims no gain. --claimed and --claimed-workload are checked against the
change's BENCHMARK.json before the first run; a name it lacks exits 2.

Each side runs from its own `git archive` of its commit, in a fresh
directory, through the unchanged `bench/run.py`. Per workload there is one
pair per seed; the parent runs first on odd seeds and the change on even
ones. The end-to-end metrics, their units, directions and bounds come from
the change's BENCHMARK.json. One traced run per side (change first) on the
first seed of each workload fills "traced"; with one run per side, its
timings and bench.trace_overhead_ratio are single readings, not a paired
measurement. The file's "verdict" states the claimed metric's result and
each metric's no-regression status (see no_regression_status) with its
median against its bound; what the runs showed beyond that is added by hand
as verdict.not_as_predicted.
The record's keys are written into --out, which keeps any other keys it
already holds (such as those of tools/layout_scale.py and
tools/static_share.py).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def export(sha: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", sha],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run(tree: Path, workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One bench/run.py run; returns (run record, result line)."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    lines = subprocess.run(cmd, cwd=tree, check=True, capture_output=True,
                           text=True).stdout.splitlines()
    return json.loads(lines[-2].removeprefix("run ")), json.loads(lines[-1])


def summary(runs: list[float]) -> dict:
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "runs": runs}


def no_regression_status(parent: list[float], change: list[float], better: str,
                         bound: float) -> str:
    """"worse", "not worse" or "unresolved" for one end-to-end metric on one
    workload, from each side's runs, paired by seed. Where the parent's
    interquartile range, as a share of its median, exceeds the bound, the
    runs spread too widely to tell, so the status is unresolved, unless every
    change run is better than every parent run, or every pair is identical
    (then the spread is the seeds' own, and no run moved). Otherwise the
    change is worse when its median is worse than the parent's by more than
    the bound, as a share of the parent's."""
    sign = 1 if better == "lower" else -1
    if change == parent or all(sign * (p - c) > 0 for p in parent for c in change):
        return "not worse"
    q1, median, q3 = np.percentile(parent, [25, 50, 75])
    if q3 - q1 > bound * abs(median):
        return "unresolved"
    worse = sign * (np.median(change) - median) / abs(median)
    return "worse" if worse > bound else "not worse"


def merge_into(path: Path, record: dict) -> None:
    """Write record's keys into the JSON object at path, keeping its other
    keys; a missing file starts empty."""
    report = json.loads(path.read_text()) if path.exists() else {}
    report.update(record)
    path.write_text(json.dumps(report, indent=1) + "\n")


def seeds_arg(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def claim_error(spec: dict, claimed: str | None, workload: str | None) -> str | None:
    """Why --claimed and --claimed-workload cannot be judged against spec, a
    BENCHMARK.json, or None when they can (or when no gain is claimed)."""
    if claimed is None:
        return None if workload is None else "--claimed-workload needs --claimed"
    metrics = [m["name"] for m in spec["end_to_end"]]
    workloads = [w["name"] for w in spec["workloads"]]
    if claimed not in metrics:
        return f"--claimed {claimed!r} is not an end-to-end metric: {', '.join(metrics)}"
    if workload is None:
        return "--claimed needs --claimed-workload"
    if workload not in workloads:
        return f"--claimed-workload {workload!r} is not a workload: {', '.join(workloads)}"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--claim", required=True)
    parser.add_argument("--claimed", default=None,
                        help="the end-to-end metric claimed; omit when no gain is claimed")
    parser.add_argument("--claimed-workload", default=None)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--method-note", default="", help="appended to the method text")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    shas = {side: subprocess.run(["git", "-C", str(ROOT), "rev-parse", getattr(args, side)],
                                 check=True, capture_output=True, text=True).stdout.strip()
            for side in SIDES}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(shas[side], trees[side])
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        problem = claim_error(spec, args.claimed, args.claimed_workload)
        if problem:
            parser.error(problem)
        workloads, traced = {}, {}
        host = None
        for w in (entry["name"] for entry in spec["workloads"]):
            out = {side: {"records": [], "results": []} for side in SIDES}
            first = []
            for seed in args.seeds:
                order = SIDES if seed % 2 else SIDES[::-1]
                first.append(order[0])
                for side in order:
                    record, result = run(trees[side], w, seed, args.seconds, trace=False)
                    out[side]["records"].append(record)
                    out[side]["results"].append(result)
                    print(w, seed, side, json.dumps(result["metrics"]), file=sys.stderr,
                          flush=True)
            host = {key: out["change"]["records"][0][key]
                    for key in ("python", "numpy", "nproc", "blas_threads", "os_page_cache")}
            metrics = {}
            for m in spec["end_to_end"]:
                runs = {side: [r["metrics"][m["name"]]["value"] for r in out[side]["results"]]
                        for side in SIDES}
                sign = 1 if m["better"] == "lower" else -1
                diffs = [sign * (p - c) for p, c in zip(runs["parent"], runs["change"])]
                parent, change = summary(runs["parent"]), summary(runs["change"])
                metrics[m["name"]] = {
                    "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                    "change_wins": sum(d > 0 for d in diffs),
                    "change_losses": sum(d < 0 for d in diffs),
                    "ties": sum(d == 0 for d in diffs),
                    "median_change_over_parent": change["median"] / parent["median"],
                    "parent_iqr": parent["q3"] - parent["q1"],
                    "status": no_regression_status(runs["parent"], runs["change"],
                                                   m["better"], m["bound"]),
                    "parent": parent, "change": change,
                }
            timing_keys = out["change"]["records"][0]["timings"]
            workloads[w] = {
                "seeds": args.seeds, "first": first, "metrics": metrics,
                "run_record_timings": {
                    key: {side: summary([r["timings"][key] for r in out[side]["records"]])
                          for side in SIDES}
                    for key in timing_keys
                },
                **{key: {side: [r[key] for r in out[side]["results"]] for side in SIDES}
                   for key in ("failed", "attempted", "correct")},
                "theta": {side: [r["theta"] for r in out[side]["records"]] for side in SIDES},
            }
            seed = args.seeds[0]
            traced[w] = {
                "seed": seed,
                "runs_per_side": 1,
                "command": f"python3 bench/run.py --workload {w} --seed {seed} "
                           f"--seconds {args.seconds:g} --trace 1 (change first)",
                **{side: {name: entry["value"] for name, entry in
                          run(trees[side], w, seed, args.seconds, trace=True)[1]["metrics"].items()}
                   for side in SIDES[::-1]},
            }

    pairs = len(args.seeds)
    verdict = "no gain claimed"
    if args.claimed:
        claimed = workloads[args.claimed_workload]["metrics"][args.claimed]
        gap = abs(claimed["parent"]["median"] - claimed["change"]["median"])
        met = claimed["change_wins"] >= 0.9 * pairs and gap > claimed["parent_iqr"]
        verdict = (f"{'met' if met else 'not met'}: change won {claimed['change_wins']} of "
                   f"{pairs} pairs; median {claimed['parent']['median']:.4f} -> "
                   f"{claimed['change']['median']:.4f} "
                   f"({claimed['median_change_over_parent'] - 1:+.1%}), a difference of "
                   f"{gap:.4f} against the parent's interquartile range of "
                   f"{claimed['parent_iqr']:.4f}")
    bounds = []
    for w, entry in workloads.items():
        for name, m in entry["metrics"].items():
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (m["change"]["median"] - m["parent"]["median"]) / m["parent"]["median"]
            bounds.append(f"{w} {name}: {m['status']}; median {m['parent']['median']:.6g} -> "
                          f"{m['change']['median']:.6g} ({'worse' if worse > 0 else 'not worse'} "
                          f"by {abs(worse):.2%} against a bound of {m['bound']:.0%}, parent "
                          f"interquartile range {m['parent_iqr'] / m['parent']['median']:.2%} "
                          f"of its median; "
                          f"change better in {m['change_wins']}, worse in {m['change_losses']}, "
                          f"tied in {m['ties']} of {pairs} pairs)")
    merge_into(args.out, {
        "claim": args.claim,
        "verdict": {
            "claim": verdict,
            "bounds": "; ".join(bounds),
            "not_as_predicted": "",
        },
        "parent": shas["parent"],
        "change": shas["change"],
        "command": f"python3 bench/run.py --workload W --seed S --seconds {args.seconds:g} "
                   "(each side from its own git archive of the commit, in a fresh directory)",
        "method": "per workload, one pair per seed; the side that runs first alternates "
                  "(parent first on odd seeds). Medians and quartiles are numpy.percentile "
                  f"(linear) over the {pairs} runs of a side. change_wins counts pairs where "
                  "the change is better in the metric's direction; ties count for neither. "
                  "Each metric's status is unresolved where the parent's interquartile "
                  "range exceeds the bound as a share of its median, unless every change "
                  "run beats every parent run or every pair is identical (then not "
                  "worse); otherwise worse when the change's median is worse than the "
                  "parent's by more than the bound. "
                  "\"traced\" holds one traced run per side on the first seed, so its "
                  "timings and trace overhead ratio are single readings, not pairs."
                  + (f" {args.method_note}" if args.method_note else ""),
        "host": host,
        "traced": traced,
        "workloads": workloads,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
