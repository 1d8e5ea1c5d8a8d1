"""Timed and traced passes of one workload, in the benchmark's interpreter.

A pass runs every call of the workload once through ``loewner_lab.cli.main``
and keeps the canonical report bytes of each call: the campaign report
file, or what a hunt prints.  ``timed`` alternates passes at jobs 1 and
jobs 2 until the time is up, with set-up measurements spread between them.
``traced`` makes one untraced and one traced pass at jobs 1, runs the
workload's probe calls once, traced, then times the eigensolver on operands
captured during the traced pass and cross-checks them against LAPACK.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

import loewner_lab
import loewner_lab.cli as cli
from loewner_lab import hermitian
from tracer import OPERANDS_PER_DIM, Tracer
from workloads import Call

MIN_PAIRS = 2
SETUP_SAMPLES = 9
EIG_DIMS = (2, 4, 8, 12, 16)
# ROADMAP's hand-taken Jacobi timings (2-core host, Python 3.11.7, numpy 2.4.6).
ROADMAP_EIG_US = {2: 92.0, 4: 1160.0, 8: 5600.0, 16: 26000.0}
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)
TAIL_BEYOND = 10
HERE = os.path.dirname(os.path.abspath(__file__))


class _ThreadStdout(io.TextIOBase):
    """Keeps each thread's prints apart while two hunts run side by side."""

    def __init__(self):
        self._buffers: dict[int, list] = {}
        self._lock = threading.Lock()

    def write(self, s):
        with self._lock:
            self._buffers.setdefault(threading.get_ident(), []).append(s)
        return len(s)

    def take(self) -> str:
        with self._lock:
            return "".join(self._buffers.pop(threading.get_ident(), []))


def _invoke(call: Call, jobs: int, out: _ThreadStdout) -> dict:
    argv = list(call.argv) + (["--jobs", str(jobs)] if call.kind == "campaign" else [])
    rc = cli.main(argv)
    printed = out.take()
    if call.kind == "campaign":
        with open(call.report, "rb") as fh:
            report = fh.read()
    else:
        report = printed.encode("utf-8")
    return {"rc": rc, "report": report}


def run_pass(calls, jobs: int) -> dict:
    """Run every call once; return wall time, counts and the report digest."""
    out = _ThreadStdout()
    saved, sys.stdout = sys.stdout, out
    try:
        t0 = time.perf_counter()
        if calls[0].kind == "hunt" and jobs > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(lambda c: _invoke(c, jobs, out), calls))
        else:
            results = [_invoke(c, jobs, out) for c in calls]
        wall = time.perf_counter() - t0
    finally:
        sys.stdout = saved
    summary = summarize(calls, [r["report"] for r in results])
    summary.update(jobs=jobs, wall_s=wall, rcs=[r["rc"] for r in results])
    return summary


def summarize(calls, reports) -> dict:
    """Counts read from canonical reports, and the digest of all of them."""
    attempted = failed = cells_run = cells_skipped = 0
    found = []
    for call, report in zip(calls, reports):
        obj = json.loads(report)
        if call.kind == "campaign":
            for cell in obj["cells"]:
                if cell.get("skipped"):
                    cells_skipped += 1
                else:
                    cells_run += 1
                    attempted += cell["pass_count"] + cell["fail_count"]
                    failed += cell["fail_count"]
        else:
            found.append(obj["found"])
            if obj["found"]:
                attempted += obj["attempt"] + 1
                failed += 1
            else:
                attempted += obj["budget"]
    sha = hashlib.sha256()
    for report in reports:
        sha.update(hashlib.sha256(report).digest())
    return {"attempted": attempted, "failed": failed, "cells_run": cells_run,
            "cells_skipped": cells_skipped, "found": found, "report_sha256": sha.hexdigest()}


def setup_once(argv, env: dict) -> float:
    """Seconds from starting a fresh interpreter to the first library call."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *argv], env=env,
                          stdout=subprocess.PIPE, text=True, timeout=60, check=True)
    return float(proc.stdout.split()[-1]) - t0


def timed(calls, seconds: float, env: dict) -> dict:
    """Pairs of passes at jobs 1 and 2, in alternating order, until the next
    pair would overrun ``seconds``.  SETUP_SAMPLES set-up measurements are
    spread over the run in step with the clock, so they sample the same
    range of host speed as the passes do."""
    passes, setups = [], []
    t_start = time.perf_counter()

    def setups_due(share: float) -> None:
        while len(setups) < SETUP_SAMPLES * share:
            setups.append(setup_once(calls[0].argv, env))

    pairs = 0
    while True:
        t_pair = time.perf_counter()
        for jobs in ((1, 2) if pairs % 2 == 0 else (2, 1)):
            passes.append(run_pass(calls, jobs))
            setups_due(min(1.0, (time.perf_counter() - t_start) / seconds))
        pairs += 1
        now = time.perf_counter()
        if pairs >= MIN_PAIRS and (now - t_start) + (now - t_pair) > seconds:
            setups_due(1.0)
            return {"passes": passes, "setups_s": setups}


def traced(calls, probe_calls, key: int, trace_file: str) -> dict:
    untraced = run_pass(calls, 1)
    tracer = Tracer(loewner_lab)
    tracer.install()
    try:
        traced_pass = run_pass(calls, 1)
        probe = run_pass(probe_calls, 1) if probe_calls else None
    finally:
        tracer.uninstall()
    not_restored = tracer.check_restored()
    tracer.write(trace_file)
    traced_wall = traced_pass["wall_s"] + (probe["wall_s"] if probe else 0.0)
    layers = layer_metrics(tracer, [traced_pass] + ([probe] if probe else []), traced_wall)
    layers["trace.overhead_share"] = traced_pass["wall_s"] / untraced["wall_s"] - 1.0
    eig, calibration = eigen_metrics(tracer.operands, key)
    layers.update(eig)
    return {
        "passes": [untraced, traced_pass],
        "probe": probe,
        "layers": layers,
        "calibration": calibration,
        "not_restored": not_restored,
    }


def tail(durations_ns) -> tuple[float, float, float]:
    """(p50 ms, tail ms, tail percentile): the tail is the highest ladder
    percentile with at least TAIL_BEYOND calls beyond it."""
    if not durations_ns:
        return 0.0, 0.0, 0.0
    ordered = sorted(durations_ns)
    n = len(ordered)
    pct = max([p for p in TAIL_LADDER if n * (1.0 - p / 100.0) >= TAIL_BEYOND] or [50.0])

    def at(p):
        return ordered[min(n - 1, int(p / 100.0 * n))] * 1e-6

    return at(50.0), at(pct), pct


def layer_metrics(tracer: Tracer, traced: list, wall_s: float) -> dict:
    stats = tracer.span_stats()
    empty = {"calls": 0, "raised": 0, "self_s": 0.0, "durations_ns": []}

    def get(name):
        return stats.get(name, empty)

    def grouped_self(prefix):
        return sum(s["self_s"] for name, s in stats.items() if name.startswith(prefix))

    instances = max(tracer.instances, 1)
    out = {"trace.instances": tracer.instances, "trace.wall_s": wall_s}
    for name in ("hermitian.eigendecompose", "hermitian.eigenvalues_of",
                 "hermitian.apply_scalar_function", "hermitian.loewner_leq",
                 "maps.apply", "maps.apply_sum", "instances.validate_instance",
                 "serialize.digest", "seeding.spawn_rng", "chains.build_chain",
                 "chains.evaluate_chain"):
        out[f"{name}.calls"] = get(name)["calls"]
        out[f"{name}.self_s"] = get(name)["self_s"]
    for name in ("serialize.dumps_canonical", "cli.main", "campaign.run_campaign",
                 "functions.eval"):
        out[f"{name}.self_s"] = get(name)["self_s"]
    for group in ("maps.sample_map", "instances.sample"):
        out[f"{group}.calls"] = tracer.outermost(group)
        out[f"{group}.self_s"] = grouped_self(group)
    for name in ("chains.build_chain", "chains.evaluate_chain"):
        p50, tail_ms, pct = tail(get(name)["durations_ns"])
        out[f"{name}.p50_ms"] = p50
        out[f"{name}.tail_ms"] = tail_ms
        out[f"{name}.tail_pct"] = pct
    quads = get("instances.sample_quadruple")["calls"] - get("instances.sample_quadruple")["raised"]
    draws = tracer.count_nested("hermitian.positive_part", "instances.sample_quadruple")
    out["instances.sample.attempts_per_quadruple"] = draws / quads if quads else 0.0
    out["hermitian.eig.fresh_per_instance"] = tracer.fresh_eig / instances
    out["hermitian.eig.repeat_share"] = tracer.repeat_eig / max(tracer.fresh_eig, 1)
    out["hermitian.matrices_per_instance"] = tracer.matrices / instances
    out["functions.scalar_evals_per_instance"] = get("functions.eval")["calls"] / instances
    out["campaign.cells_run"] = sum(p["cells_run"] for p in traced)
    out["campaign.cells_skipped"] = sum(p["cells_skipped"] for p in traced)
    return out


def _synthetic_operands(dim: int, key: int) -> list:
    rng = np.random.default_rng([key, dim])
    ops = []
    for _ in range(8):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        ops.append((g + g.conj().T) / 2.0)
    return ops


def _eig_us(ops) -> float:
    """Median microseconds of a fresh full Jacobi decomposition, over
    OPERANDS_PER_DIM runs that cycle through ``ops``."""
    times = []
    for i in range(max(OPERANDS_PER_DIM, len(ops))):
        matrix = hermitian.HermitianMatrix(ops[i % len(ops)])
        t0 = time.perf_counter()
        hermitian.eigendecompose(matrix)
        times.append((time.perf_counter() - t0) * 1e6)
    return statistics.median(times)


def eigen_metrics(captured: dict, key: int) -> tuple[dict, dict]:
    """Kernel metrics from the operands captured in the traced pass, and the
    calibration figures compared with ROADMAP's table.

    ``hermitian.eig_us.dN`` is timed on captured operands only, and is 0 for a
    dimension the workload never decomposed.  The calibration line needs
    every ROADMAP dimension, so a dimension without captured operands is
    timed there on seeded random Hermitian operands and labelled so.  Every
    captured operand is cross-checked against ``numpy.linalg.eigh``.
    """
    out = {f"hermitian.eig_us.d{dim}": _eig_us(captured[dim]) if dim in captured else 0.0
           for dim in EIG_DIMS}
    calibration = {}
    for dim in ROADMAP_EIG_US:
        if dim in captured:
            calibration[dim] = (out[f"hermitian.eig_us.d{dim}"], "captured")
        else:
            calibration[dim] = (_eig_us(_synthetic_operands(dim, key)), "synthetic")
    worst_err = worst_res = 0.0
    for ops in captured.values():
        for op in ops:
            matrix = hermitian.HermitianMatrix(op)
            err, res = _cross_check(matrix.entries, hermitian.eigendecompose(matrix))
            worst_err, worst_res = max(worst_err, err), max(worst_res, res)
    out["hermitian.eig_max_rel_err"] = worst_err
    out["hermitian.eig_max_residual"] = worst_res
    return out, calibration


def _cross_check(a: np.ndarray, dec) -> tuple[float, float]:
    """Eigenvalue error against LAPACK relative to the spectral norm, and the
    reconstruction residual relative to the Frobenius norm."""
    reference = np.linalg.eigh(a)[0]
    scale = max(float(np.max(np.abs(reference))), 1e-300)
    err = float(np.max(np.abs(np.asarray(dec.eigenvalues) - reference))) / scale
    fro = max(float(np.linalg.norm(a)), 1e-300)
    res = float(np.linalg.norm(a - dec.reconstruct())) / fro
    return err, res
