"""Golden byte-identity of campaign reports, and the fold of cell outcomes.

Two campaign reports are pinned by SHA-256 at jobs 1 and 2 and with a
window of 2 instances:

* deep: the LC-QUAD, LC-MAP-V2 (mixed map) and LC-MULTI (family) cells at
  dims 5 and 8, three instances per cell;
* wide: eight theorems, three functions and three maps at dims 2 and 4, one
  instance per cell, with skipped cells between the runnable ones.

How a campaign schedules its sampling, validation, chain builds and
eigensolves, within a cell or across cells, may change; its report bytes
may not.
"""

import hashlib
import sys
import threading

import pytest

from loewner_lab import campaign, chains
from loewner_lab.campaign import CampaignConfig, run_campaign
from loewner_lab.chains import resolve_theorem, sample_instance_for, window_outcomes
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


@pytest.mark.parametrize("name, jobs", [("deep", 1), ("deep", 2), ("wide", 1), ("wide", 2)],
                         ids=["1", "2", "wide-1", "wide-2"])
def test_campaign_report_is_byte_identical(name, jobs):
    config, sha = PINNED[name]
    assert _report_sha(config, jobs) == sha


@pytest.mark.parametrize("name", sorted(PINNED))
def test_campaign_report_does_not_depend_on_the_cell_window(name, monkeypatch):
    monkeypatch.setattr(chains, "WINDOW", 2)
    config, sha = PINNED[name]
    assert _report_sha(config, 1) == sha


def test_window_pool_with_more_workers_than_cores_matches_serial(monkeypatch):
    # Windows of two instances give the pool many windows in flight, and a
    # tiny switch interval makes its threads interleave as often as possible.
    monkeypatch.setattr(chains, "WINDOW", 2)
    config = CampaignConfig.from_dict(WIDE_CONFIG)
    serial = dumps_canonical(run_campaign(config, jobs=1).to_dict())
    pooled = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(
            target=lambda: pooled.append(dumps_canonical(run_campaign(config, jobs=4).to_dict())),
            daemon=True)
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    assert pooled == [serial]


def test_windows_run_in_order_on_the_calling_thread(monkeypatch):
    # At jobs 2 every window runs on the thread that called
    # run_campaign, and no thread is started along the way.
    monkeypatch.setattr(chains, "WINDOW", 2)
    callers = []

    def recording(*args, **kwargs):
        callers.append(threading.get_ident())
        return window_outcomes(*args, **kwargs)

    def refuse(self):
        raise AssertionError("run_campaign started a thread")

    monkeypatch.setattr(campaign, "window_outcomes", recording)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert _report_sha(WIDE_CONFIG, 2) == WIDE_SHA256
    assert len(callers) > 1 and set(callers) == {threading.get_ident()}


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
    original = getattr(module, target)
    calls = []

    def second_call_raises(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise HypothesisViolation("injected", "second instance")
        return original(*args, **kwargs)

    monkeypatch.setattr(module, target, second_call_raises)
    cells = run_campaign(cfg).cells
    per_cell = cfg.instances_per_cell
    expected = [[_digest_of(cfg, c, i) for i in range(per_cell)] for c in range(len(cfg.dims))]
    expected[1 // per_cell][1 % per_cell] = "error:HypothesisViolation:injected: second instance"
    assert [(cell.pass_count, cell.fail_count) for cell in cells] == [(0, per_cell)] * len(cells)
    assert [list(cell.failing) for cell in cells] == expected
