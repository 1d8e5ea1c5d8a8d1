"""Golden byte-identity of campaign reports, and the fold of cell outcomes.

Two campaign reports are pinned by SHA-256 at jobs 1, 2 and 4 and with a
window of 2 instances:

* deep: the LC-QUAD, LC-MAP-V2 (mixed map) and LC-MULTI (family) cells at
  dims 5 and 8, three instances per cell;
* wide: eight theorems, three functions and three maps at dims 2 and 4, one
  instance per cell, with skipped cells between the runnable ones.

How a campaign schedules its sampling, validation, chain builds and
eigensolves, within a cell or across cells, on the calling thread or in
worker processes, may change; its report bytes may not.  A pool that cannot
start or loses a worker raises, and leaves no process behind.  On the
benchmark's campaign-deep and campaign-wide configs, every Jacobi run is a
member of a stack, and on the deep golden config every member's
decomposition agrees with LAPACK.
"""

import errno
import hashlib
import json
import multiprocessing
import os
import sys
import threading
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from loewner_lab import __version__, campaign, chains, hermitian
from loewner_lab.campaign import CampaignConfig, run_campaign
from loewner_lab.chains import resolve_theorem, sample_instance_for, window_outcomes
from loewner_lab.cli import main
from loewner_lab.errors import HypothesisViolation
from loewner_lab.functions import parse_function_spec
from loewner_lab.seeding import spawn_rng
from loewner_lab.serialize import dumps_canonical

GOLDEN_CONFIG = {
    "theorem_ids": ["LC-QUAD", "LC-MAP-V2", "LC-MULTI"],
    "function_specs": ["exp"],
    "map_specs": ["mixed", "family:n=3"],
    "dims": [5, 8],
    "mm_ranges": [[0.5, 2.5], [-1.0, 1.0]],
    "instances_per_cell": 3,
    "tol": 1e-9,
    "seed": 29,
}
GOLDEN_SHA256 = "fa0eb801887407a1feb83d0127c472c4c665a1be192587dec0c573f5df8d5a49"
WIDE_CONFIG = {
    "theorem_ids": ["JM-BASE", "LC-QUAD", "LC-MAP", "SQ-MAP", "LC-MULTI", "SQ-MERCER", "LC-MID",
                    "SQ-QUAD"],
    "function_specs": ["exp", "pow:p=-1", "pow:p=2"],
    "map_specs": ["identity", "mixed", "family:n=3"],
    "dims": [2, 4],
    "mm_ranges": [[-1.0, 1.0], [0.5, 2.5]],
    "instances_per_cell": 1,
    "tol": 1e-9,
    "seed": 11,
}
WIDE_SHA256 = "e3a625ac6e4c88e1202c580ece7d437429edb8f6ab5d7083ab289b93544c3bac"
PINNED = {"deep": (GOLDEN_CONFIG, GOLDEN_SHA256), "wide": (WIDE_CONFIG, WIDE_SHA256)}


def _report_sha(config: dict, jobs: int) -> str:
    report = run_campaign(CampaignConfig.from_dict(config), jobs=jobs)
    return hashlib.sha256(dumps_canonical(report.to_dict()).encode()).hexdigest()


@pytest.mark.parametrize("name, jobs", [("deep", 1), ("deep", 2), ("deep", 4),
                                        ("wide", 1), ("wide", 2), ("wide", 4)],
                         ids=["1", "2", "4", "wide-1", "wide-2", "wide-4"])
def test_campaign_report_is_byte_identical(name, jobs):
    config, sha = PINNED[name]
    assert _report_sha(config, jobs) == sha


@pytest.mark.parametrize("name", sorted(PINNED))
def test_campaign_report_does_not_depend_on_the_cell_window(name, monkeypatch):
    monkeypatch.setattr(chains, "WINDOW", 2)
    config, sha = PINNED[name]
    assert _report_sha(config, 1) == sha


def test_window_pool_with_more_workers_than_cores_matches_serial(monkeypatch):
    # Windows of two instances give the pool many windows in flight, jobs 4
    # asks for more workers than a 2-core host has, and a tiny switch
    # interval makes the parent's threads interleave as often as possible.
    monkeypatch.setattr(chains, "WINDOW", 2)
    config = CampaignConfig.from_dict(WIDE_CONFIG)
    serial = dumps_canonical(run_campaign(config, jobs=1).to_dict())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = _guarded(lambda: dumps_canonical(run_campaign(config, jobs=4).to_dict()))
    finally:
        sys.setswitchinterval(interval)
    assert pooled == serial


_START_THREAD = threading.Thread.start


def _guarded(target, timeout=120):
    """``target()`` run in a thread joined with a timeout: its value, or the
    error it raised.  Either way no worker process may be left running."""
    box = {}

    def run():
        try:
            box["value"] = target()
        except BaseException as exc:
            box["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    _START_THREAD(thread)
    thread.join(timeout)
    left = multiprocessing.active_children()
    for process in left:  # so that a failure here does not hang the exit
        process.terminate()
        process.join()
    assert not thread.is_alive(), "run_campaign did not return within the timeout"
    assert left == []
    if "error" in box:
        raise box["error"]
    return box.get("value")


@pytest.fixture
def four_cores(monkeypatch):
    """Windows of two instances, on a host that reports four cores, so a
    pool starts whatever this host has."""
    monkeypatch.setattr(chains, "WINDOW", 2)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)


def _campaign_cli(config: dict, tmp_path, jobs: int) -> int:
    path = tmp_path / "c.json"
    path.write_text(dumps_canonical(config))
    return main(["campaign", "--config", str(path), "--out", str(tmp_path / "r.json"),
                 "--jobs", str(jobs)])


def test_windows_run_in_worker_processes_at_jobs_2(four_cores, monkeypatch, tmp_path):
    log = tmp_path / "pids"

    def recording(*args, **kwargs):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return window_outcomes(*args, **kwargs)

    monkeypatch.setattr(campaign, "window_outcomes", recording)
    assert _guarded(lambda: _report_sha(WIDE_CONFIG, 2)) == WIDE_SHA256
    pids = log.read_text().split()
    assert len(pids) > 2 and str(os.getpid()) not in pids and len(set(pids)) <= 2


@pytest.mark.parametrize("cls, error", [
    (threading.Thread, RuntimeError("can't start new thread")),
    (multiprocessing.process.BaseProcess, OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))),
], ids=["thread", "process"])
def test_a_pool_that_cannot_start_raises(cls, error, four_cores, monkeypatch, tmp_path):
    # The pool forks its workers, then starts its manager thread.
    def refuse(self):
        raise error

    monkeypatch.setattr(cls, "start", refuse)
    with pytest.raises(type(error)):
        _guarded(lambda: run_campaign(CampaignConfig.from_dict(WIDE_CONFIG), jobs=2))
    assert _guarded(lambda: _campaign_cli(WIDE_CONFIG, tmp_path, 2)) == 2


def test_a_worker_that_dies_raises(four_cores, monkeypatch, tmp_path):
    parent = os.getpid()

    def dying(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return window_outcomes(*args, **kwargs)

    monkeypatch.setattr(campaign, "window_outcomes", dying)
    with pytest.raises(BrokenProcessPool):
        _guarded(lambda: run_campaign(CampaignConfig.from_dict(WIDE_CONFIG), jobs=2))
    assert _guarded(lambda: _campaign_cli(WIDE_CONFIG, tmp_path, 2)) == 2


# Three cells of one instance each: three windows of one instance.
THREE_WINDOWS = dict(GOLDEN_CONFIG, theorem_ids=["LC-QUAD"], dims=[2, 3, 4],
                     instances_per_cell=1)


@pytest.mark.parametrize("jobs, cores, workers", [
    (100000, 64, 3), (2, 64, 2), (100000, 2, 2), (100000, 1, 0), (100000, None, 0), (1, 64, 0),
])
def test_pool_size_is_bounded_by_jobs_windows_and_cores(jobs, cores, workers, monkeypatch):
    monkeypatch.setattr(chains, "WINDOW", 1)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    config = CampaignConfig.from_dict(THREE_WINDOWS)
    serial = dumps_canonical(run_campaign(config, jobs=1).to_dict())
    start = multiprocessing.process.BaseProcess.start
    started = []

    def counting(self):
        started.append(self)
        if len(started) > 4:  # a broken bound must not fork many workers
            raise OSError(errno.EAGAIN, "refused past four workers")
        return start(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting)
    assert _guarded(lambda: dumps_canonical(run_campaign(config, jobs=jobs).to_dict())) == serial
    assert len(started) == workers


def _digest_of(cfg: CampaignConfig, cell_index: int, instance_index: int) -> str:
    """The instance digest, drawn again on the campaign's own stream; the
    config has one theorem without a map and one function, so cell i runs
    at the i-th dim."""
    spec = resolve_theorem(cfg.theorem_ids[0])
    f = parse_function_spec(cfg.function_specs[0])
    rng = spawn_rng(cfg.seed, cell_index, instance_index)
    lo, hi = cfg.mm_ranges[instance_index % len(cfg.mm_ranges)]
    m, big_m = campaign._draw_mm(rng, float(lo), float(hi))
    return sample_instance_for(spec, f, cfg.dims[cell_index], m, big_m, rng).digest()


# One cell of four instances, and four cells of one instance each.
ONE_CELL = dict(GOLDEN_CONFIG, theorem_ids=["LC-QUAD"], dims=[5], instances_per_cell=4)
FOUR_CELLS = dict(GOLDEN_CONFIG, theorem_ids=["LC-QUAD"], dims=[2, 3, 4, 5], instances_per_cell=1)


@pytest.mark.parametrize("module, target, config", [
    (campaign, "sample_instance_for", ONE_CELL), (chains, "build_chain", ONE_CELL),
    (campaign, "sample_instance_for", FOUR_CELLS), (chains, "build_chain", FOUR_CELLS),
], ids=["sample_instance_for", "build_chain", "sample_instance_for-cells", "build_chain-cells"])
def test_error_in_one_instance_keeps_serial_fold(module, target, config, monkeypatch):
    # An absurdly tight tolerance fails every chain, so each instance leaves
    # a digest in its cell's ``failing``; the second instance drawn raises
    # instead.
    cfg = CampaignConfig.from_dict(dict(config, tol=1e-30))
    stage = getattr(module, target)
    original = stage.steps
    calls = []

    def second_call_raises(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise HypothesisViolation("injected", "second instance")
        return original(*args, **kwargs)

    monkeypatch.setattr(stage, "steps", second_call_raises)
    cells = run_campaign(cfg).cells
    per_cell = cfg.instances_per_cell
    expected = [[_digest_of(cfg, c, i) for i in range(per_cell)] for c in range(len(cfg.dims))]
    expected[1 // per_cell][1 % per_cell] = "error:HypothesisViolation:injected: second instance"
    assert [(cell.pass_count, cell.fail_count) for cell in cells] == [(0, per_cell)] * len(cells)
    assert [list(cell.failing) for cell in cells] == expected


@pytest.mark.parametrize("module, target, dim_of", [
    (campaign, "sample_instance_for", lambda args: args[2]),
    (chains, "build_chain", lambda args: args[1].dim),
], ids=["sample_instance_for", "build_chain"])
def test_error_in_one_instance_folds_the_same_at_jobs_2(module, target, dim_of, four_cores,
                                                       monkeypatch):
    # The injection is keyed by the drawn instance, not by a call count, so
    # it raises in whichever process draws the dim-3 cell's instance.
    cfg = CampaignConfig.from_dict(dict(FOUR_CELLS, tol=1e-30))
    stage = getattr(module, target)
    original = stage.steps

    def dim_3_raises(*args, **kwargs):
        if dim_of(args) == 3:
            raise HypothesisViolation("injected", "dim 3")
        return original(*args, **kwargs)

    monkeypatch.setattr(stage, "steps", dim_3_raises)
    expected = [[_digest_of(cfg, c, 0)] for c in range(len(cfg.dims))]
    expected[1] = ["error:HypothesisViolation:injected: dim 3"]
    for jobs in (1, 2):
        cells = _guarded(lambda: run_campaign(cfg, jobs=jobs).cells)
        assert [(cell.pass_count, cell.fail_count) for cell in cells] == [(0, 1)] * len(cells)
        assert [list(cell.failing) for cell in cells] == expected


# The campaign-deep and campaign-wide configs of the benchmark's input set 3
# (perfbench/workloads.py), whose report digests perfbench/digests.json pins.
_BENCH_RANGES = [[-1.0, 1.0], [0.5, 2.5]]
BENCH_DEEP = [{
    "theorem_ids": ["LC-QUAD", "LC-MAP-V2", "LC-MULTI"], "function_specs": ["exp"],
    "map_specs": ["mixed", "family:n=3"], "dims": [8, 16], "mm_ranges": _BENCH_RANGES[::-1],
    "instances_per_cell": 4, "tol": 1e-9, "seed": 3,
}]
BENCH_WIDE = [{
    "theorem_ids": ["JM-BASE", "MOS-BASE", "LC-QUAD", "LC-POW", "LC-MID", "LC-MAP", "LC-MAP-V2",
                    "LC-MAP-V3", "LC-MULTI", "LC-MERCER", "SQ-MAP", "SQ-POW", "SQ-MAP-V2",
                    "SQ-MAP-V3", "SQ-MULTI-A", "SQ-MULTI-B", "SQ-MERCER", "SQ-QUAD", "SQ-MID"],
    "function_specs": ["exp", "pow:p=-1", "pow:p=2", "pow:p=2.5"],
    "map_specs": ["identity", "pinching", "compression", "mixed", "family:n=3"], "dims": [2, 4],
    "mm_ranges": _BENCH_RANGES, "instances_per_cell": 1, "tol": 1e-9, "seed": 3,
}, {
    "theorem_ids": ["JM-BASE", "MOS-BASE", "LC-QUAD", "LC-MID", "LC-MAP", "LC-MAP-V2",
                    "LC-MAP-V3", "LC-MULTI", "LC-MERCER"],
    "function_specs": ["exp"], "map_specs": ["pinching", "family:n=3"], "dims": [12],
    "mm_ranges": _BENCH_RANGES, "instances_per_cell": 1, "tol": 1e-9, "seed": 3,
}]


@pytest.mark.parametrize("workload, configs", [("campaign-deep", BENCH_DEEP),
                                               ("campaign-wide", BENCH_WIDE)])
def test_nine_in_ten_jacobi_runs_are_stacked(workload, configs, monkeypatch):
    # Every member run is a stack member: no matrix is read before a round
    # requested it, so the stack-of-one entry ``_jacobi`` never runs.
    serial, many = hermitian._jacobi, hermitian._jacobi_many
    runs = {"serial": 0, "stacked": 0}
    inside = []

    def counted_serial(matrix, want_vectors):
        runs["serial"] += not inside
        return serial(matrix, want_vectors)

    def counted_many(stack, want_vectors):
        runs["stacked"] += len(stack)
        inside.append(None)
        try:
            return many(stack, want_vectors)
        finally:
            inside.pop()

    monkeypatch.setattr(hermitian, "_jacobi", counted_serial)
    monkeypatch.setattr(hermitian, "_jacobi_many", counted_many)
    digest = hashlib.sha256()
    for config in configs:
        report = run_campaign(CampaignConfig.from_dict(config))
        text = dumps_canonical(report.to_dict()) + "\n"
        digest.update(hashlib.sha256(text.encode()).digest())
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "digests.json"), encoding="utf-8") as fh:
        assert digest.hexdigest() == json.load(fh)[__version__][workload][3]
    assert runs["serial"] == 0 and runs["stacked"] > 0, runs


def test_every_stacked_member_agrees_with_lapack(monkeypatch):
    # The independent cross-check of the runtime kernel, on what a campaign
    # actually decomposes: eigenvalue error relative to the spectral norm and
    # reconstruction residual relative to the Frobenius norm, both <= 1e-10.
    many = hermitian._jacobi_many
    members = []

    def recorded(stack, want_vectors):
        results = many(stack, want_vectors)
        members.extend(zip(stack, results))
        return results

    monkeypatch.setattr(hermitian, "_jacobi_many", recorded)
    run_campaign(CampaignConfig.from_dict(GOLDEN_CONFIG))
    assert members
    for a, result in members:
        assert result is not None
        lam, vec = result
        reference = np.linalg.eigh(a)[0]
        scale = max(float(np.max(np.abs(reference))), 1e-300)
        assert float(np.max(np.abs(lam - reference))) <= 1e-10 * scale
        residual = float(np.linalg.norm(a - (vec * lam) @ vec.conj().T))
        assert residual <= 1e-10 * max(float(np.linalg.norm(a)), 1e-300)
