"""Alternating parent/change pairs of the benchmark, summarized as a BENCH file.

    python3 tools/bench_pairs.py --parent ../parent --change ../change \
        --seeds 3 17 --pairs 10 --seconds 38 --raw pairs.jsonl --out BENCH_<n>.json \
        --parent-label "<sha>, from git archive" --change-label "..." --claim "..."

``--parent`` and ``--change`` are two source trees, each with its own
``perfbench/`` and ``BENCHMARK.json``.  For each seed, pair i runs every
workload in turn, the parent first when i is even and the change first when
odd, each run as ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` in its own tree.  Every run's result line is appended to
``--raw`` as it finishes, and a rerun skips the runs already recorded there,
so an interrupted series resumes.  The summary gives, per workload, seed and
end-to-end metric, both sides' lists, medians and quartiles (inclusive
method), the ratio of medians, the pairs the change wins, and whether the
gap between the medians exceeds the parent's quartile distance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy

WORKLOADS = ("campaign-deep", "campaign-wide", "hunt-soak")
SIDES = ("parent", "change")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--raw", required=True, help="JSON lines, one per run; resumed from")
    p.add_argument("--out", required=True)
    p.add_argument("--parent-label", required=True)
    p.add_argument("--change-label", required=True)
    p.add_argument("--claim", required=True)
    return p.parse_args(argv)


def _run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "error": (proc.stderr or proc.stdout)[-2000:]}


def _schedule(seeds, pairs):
    for seed in seeds:
        for i in range(pairs):
            for workload in WORKLOADS:
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    yield seed, i, workload, side


def _summary(records, seeds, pairs, bench: dict) -> dict:
    by_key = {(r["seed"], r["pair"], r["workload"], r["side"]): r["result"] for r in records}
    results = {}
    for seed in seeds:
        for workload in WORKLOADS:
            runs = {side: [by_key[(seed, i, workload, side)] for i in range(pairs)]
                    for side in SIDES}
            entry = {
                "pairs": pairs,
                "correct": {side: [bool(r.get("correct")) for r in runs[side]] for side in SIDES},
                "failed": {side: sum(r.get("failed", 0) for r in runs[side]) for side in SIDES},
                "attempted": {side: sum(r.get("attempted", 0) for r in runs[side])
                              for side in SIDES},
                "metrics": {},
            }
            for metric in bench["end_to_end"]:
                name, better = metric["name"], metric["better"]
                values = {side: [r.get("metrics", {}).get(name, {}).get("value")
                                 for r in runs[side]] for side in SIDES}
                summary = {"better": better, **values}
                if all(v is not None for side in SIDES for v in values[side]):
                    parent, change = values["parent"], values["change"]
                    pq = statistics.quantiles(parent, n=4, method="inclusive")
                    cq = statistics.quantiles(change, n=4, method="inclusive")
                    pm, cm = statistics.median(parent), statistics.median(change)
                    wins = sum((c > p) if better == "higher" else (c < p)
                               for p, c in zip(parent, change))
                    summary.update(parent_median=pm, parent_quartiles=[pq[0], pq[2]],
                                   change_median=cm, change_quartiles=[cq[0], cq[2]],
                                   ratio_change_over_parent=cm / pm, change_wins=wins,
                                   median_gap_exceeds_parent_iqr=abs(cm - pm) > pq[2] - pq[0])
                entry["metrics"][name] = summary
            results[f"{workload}@seed{seed}"] = entry
    return results


def main(argv=None) -> int:
    args = _parse(argv)
    records = []
    if os.path.exists(args.raw):
        with open(args.raw, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
    done = {(r["seed"], r["pair"], r["workload"], r["side"]) for r in records}
    trees = {"parent": args.parent, "change": args.change}
    for seed, i, workload, side in _schedule(args.seeds, args.pairs):
        if (seed, i, workload, side) in done:
            continue
        result = _run(trees[side], workload, seed, args.seconds)
        record = {"seed": seed, "pair": i, "workload": workload, "side": side, "result": result}
        records.append(record)
        with open(args.raw, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        print(seed, i, workload, side, json.dumps(result.get("metrics", result))[:300],
              flush=True)
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    out = {
        "what": ("alternating parent/change pairs of `python3 perfbench/run.py --workload W "
                 f"--seed S --seconds {args.seconds:g} --trace 0`, each side run from its own "
                 "checkout, by tools/bench_pairs.py"),
        "parent": args.parent_label,
        "change": args.change_label,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": numpy.__version__,
                 "note": "shared host whose speed moves within minutes; compare ratios"},
        "order": ("pair i runs the parent first when i is even, the change first when odd; "
                  "each pair runs every workload in turn, both sides of a workload back to "
                  "back; " + ", then ".join(f"seed {s}'s {args.pairs} pairs" for s in args.seeds)),
        "claim": args.claim,
        "results": _summary(records, args.seeds, args.pairs, bench),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
