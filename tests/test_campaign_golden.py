"""Golden byte-identity of campaign reports, and the fold of cell outcomes.

The report of a small campaign over the LC-QUAD, LC-MAP-V2 (mixed map) and
LC-MULTI (family) cells at dims 5 and 8, three instances per cell, is pinned
by SHA-256 at jobs 1 and 2.  How a cell schedules its sampling, validation,
chain builds and eigensolves may change; its report bytes may not.
"""

import hashlib

import pytest

from loewner_lab import campaign, chains
from loewner_lab.campaign import CampaignConfig, run_campaign
from loewner_lab.chains import resolve_theorem, sample_instance_for
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


def _report_sha(jobs: int) -> str:
    report = run_campaign(CampaignConfig.from_dict(GOLDEN_CONFIG), jobs=jobs)
    return hashlib.sha256(dumps_canonical(report.to_dict()).encode()).hexdigest()


@pytest.mark.parametrize("jobs", [1, 2])
def test_campaign_report_is_byte_identical(jobs):
    assert _report_sha(jobs) == GOLDEN_SHA256


def test_campaign_report_does_not_depend_on_the_cell_window(monkeypatch):
    monkeypatch.setattr(chains, "WINDOW", 2)
    assert _report_sha(1) == GOLDEN_SHA256


def _digest_of(cfg: CampaignConfig, cell_index: int, instance_index: int) -> str:
    """The instance digest, drawn again on the campaign's own stream."""
    spec = resolve_theorem(cfg.theorem_ids[0])
    f = parse_function_spec(cfg.function_specs[0])
    rng = spawn_rng(cfg.seed, cell_index, instance_index)
    lo, hi = cfg.mm_ranges[instance_index % len(cfg.mm_ranges)]
    m, big_m = campaign._draw_mm(rng, float(lo), float(hi))
    return sample_instance_for(spec, f, cfg.dims[0], m, big_m, rng).digest()


@pytest.mark.parametrize("module, target", [(campaign, "sample_instance_for"),
                                            (chains, "build_chain")],
                         ids=["sample_instance_for", "build_chain"])
def test_error_in_one_instance_keeps_serial_fold(module, target, monkeypatch):
    # An absurdly tight tolerance fails every chain, so each instance leaves
    # a digest in ``failing``; the second instance raises instead.
    cfg = CampaignConfig.from_dict(dict(
        GOLDEN_CONFIG, theorem_ids=["LC-QUAD"], dims=[5], instances_per_cell=4, tol=1e-30))
    original = getattr(module, target)
    calls = []

    def second_call_raises(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise HypothesisViolation("injected", "second instance")
        return original(*args, **kwargs)

    monkeypatch.setattr(module, target, second_call_raises)
    cell, = run_campaign(cfg).cells
    assert (cell.pass_count, cell.fail_count) == (0, 4)
    assert list(cell.failing) == [
        _digest_of(cfg, 0, 0),
        "error:HypothesisViolation:injected: second instance",
        _digest_of(cfg, 0, 2),
        _digest_of(cfg, 0, 3),
    ]
