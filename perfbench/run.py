"""loewner-lab benchmark: one run of one workload.

    python3 perfbench/run.py --workload campaign-deep --seed 3 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` into this interpreter, which drives the workload.  With
``--trace 0`` the run measures the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` it makes a traced run and measures the
per-layer metrics.  Every run first passes the correctness gate (see
``gate.py``); a run that fails it prints ``"correct": false`` and no
numbers.  The last line of standard output is the result as JSON; the lines
before it give provenance and every metric with its unit.  ``--smoke``
shrinks every workload for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
from workloads import WORKLOADS, input_key, write_calls  # noqa: E402


class BenchError(Exception):
    pass


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    return p.parse_args(argv)


def _git_sha(root: str):
    """HEAD of the checkout read from ``.git`` directly, or None outside git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def _source_sha256(package_dir: str) -> str:
    sha = hashlib.sha256()
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            sha.update(name.encode())
            with open(os.path.join(package_dir, name), "rb") as fh:
                sha.update(hashlib.sha256(fh.read()).digest())
    return sha.hexdigest()


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _rate(passes, jobs: int) -> float:
    """Instances over wall time, summed over every pass at this jobs level.

    On a shared host whose cores slow by up to half for seconds at a time,
    the time-weighted rate over the whole run varies less between runs than
    the median or the fastest of a handful of passes."""
    ran = [p for p in passes if p["jobs"] == jobs]
    return sum(p["attempted"] for p in ran) / sum(p["wall_s"] for p in ran)


def _import_library(src: str):
    """Import the library and the measuring code from ``src``, and no other copy."""
    package = os.path.join(src, "loewner_lab")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise BenchError(f"no loewner_lab sources under {src}; run from a source checkout")
    sys.path.insert(0, src)
    import loewner_lab
    import measure

    where = os.path.realpath(loewner_lab.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise BenchError(f"loewner_lab imported from {where}, not from {src}")
    return loewner_lab, measure


def run(args, root: str) -> dict:
    src = os.path.join(root, "src")
    loewner_lab, measure = _import_library(src)
    import numpy as np

    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    key = input_key(args.seed)
    traced = bool(args.trace)
    version = loewner_lab.__version__
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    try:
        calls = write_calls(args.workload, key, args.smoke, workdir)
        if traced:
            probe_calls = write_calls(args.workload, key, args.smoke, workdir, True)
            trace_file = os.path.join(out_dir, f"trace-{args.workload}.tsv")
            result = measure.traced(calls, probe_calls, key, trace_file)
        else:
            result = measure.timed(calls, args.seconds, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    kind = WORKLOADS[args.workload][0]
    pins = None if args.smoke else gate.load_pins()
    passes = result["passes"]
    problems = gate.check_pinned(pins, kind, passes, version, args.workload, key)
    if traced:
        problems += gate.check_trace(result)
        if result["probe"]:
            problems += gate.check_pinned(pins, kind, [result["probe"]], version,
                                          f"{args.workload}:probe", key)
            passes = passes + [result["probe"]]
    values = dict(result["layers"]) if traced else {
        "setup_s": statistics.median(result["setups_s"]),
        "instances_per_s": _rate(passes, 1),
        "instances_per_s_jobs2": _rate(passes, 2),
        "peak_rss_mb": peak_rss_mb,
    }
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    declared = bench["per_layer"] if traced else bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    provenance = {
        "workload": args.workload, "seed": args.seed, "input_set": key,
        "trace": args.trace, "smoke": args.smoke, "version": version,
        "git_sha": _git_sha(root),
        "source_sha256": _source_sha256(os.path.dirname(loewner_lab.__file__)),
        "nproc": _nproc(), "python": platform.python_version(), "numpy": np.__version__,
        "report_sha256": passes[0]["report_sha256"],
    }
    full = {"provenance": provenance, "problems": problems, "metrics": metrics,
            "attempted": attempted, "failed": failed, "raw": result}
    if traced:
        full["calibration"] = [(dim, us, source, measure.ROADMAP_EIG_US[dim])
                               for dim, (us, source) in sorted(result["calibration"].items())]
    with open(os.path.join(out_dir, f"last-{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)
    return full


def _summary_lines(full: dict, workload: str, traced: bool) -> list:
    lines = [f"provenance {json.dumps(full['provenance'], sort_keys=True)}"]
    metrics = dict(full["metrics"])
    if not traced:
        metrics["failed_share"] = {"value": full["failed"] / full["attempted"], "unit": "share"}
        if WORKLOADS[workload][0] == "hunt":
            metrics["attempts_per_s"] = metrics["instances_per_s"]
    lines += [f"metric {name} {m['value']!r} {m['unit']}" for name, m in sorted(metrics.items())]
    if traced:
        cal = [f"d{dim} {us:.1f} us ({source} operands) vs {ref:.0f} us ({us / ref:.2f}x)"
               for dim, us, source, ref in full["calibration"]]
        lines.append("calibration eig_us against the ROADMAP table: " + "; ".join(cal))
    return lines


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.path.dirname(HERE)
    try:
        full = run(args, root)
    except (BenchError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if full["problems"]:
        for problem in full["problems"]:
            print(f"gate: {problem}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": full["attempted"],
                          "failed": full["failed"], "metrics": {}}))
        return 1
    for line in _summary_lines(full, args.workload, bool(args.trace)):
        print(line)
    print(json.dumps({"correct": True, "attempted": full["attempted"],
                      "failed": full["failed"], "metrics": full["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
