"""Campaign runner: configuration, cell planning, determinism, reports."""

import json

import pytest

from loewner_lab import chains
from loewner_lab.campaign import (
    CampaignConfig,
    emit_report,
    plan_cells,
    plan_windows,
    run_campaign,
)
from loewner_lab.errors import ConfigError, IoError
from loewner_lab.serialize import dumps_canonical


def small_config(**overrides):
    base = {
        "theorem_ids": ["lc-quad", "sq-map"],
        "function_specs": ["exp", "pow:p=2"],
        "map_specs": ["identity", "mixed"],
        "dims": [1, 2],
        "mm_ranges": [[0.5, 2.5]],
        "instances_per_cell": 3,
        "tol": 1e-9,
        "seed": 11,
    }
    base.update(overrides)
    return base


def test_config_roundtrip_and_validation():
    cfg = CampaignConfig.from_dict(small_config())
    assert cfg.instances_per_cell == 3
    assert cfg.to_dict()["theorem_ids"] == ["lc-quad", "sq-map"]


@pytest.mark.parametrize(
    "patch, fragment",
    [
        ({"instances_per_cell": 0}, "instances_per_cell"),
        ({"instances_per_cell": "3"}, "instances_per_cell"),
        ({"tol": 0.0}, "tol"),
        ({"dims": [0]}, "dims"),
        ({"dims": []}, "dims"),
        ({"theorem_ids": ["nope"]}, "theorem_ids"),
        ({"function_specs": ["mystery"]}, "function_specs"),
        ({"mm_ranges": [[2.0, 1.0]]}, "mm_ranges"),
        ({"mm_ranges": []}, "mm_ranges"),
        ({"tol": float("nan")}, "tol"),
        ({"instances_per_cell": True}, "instances_per_cell"),
        ({"mm_ranges": [[0.5, float("nan")]]}, "mm_ranges"),
        ({"map_specs": ["identity", "bogus"]}, "map_specs"),
        ({"map_specs": ["compression:k=two"]}, "map_specs"),
        ({"map_specs": ["family:n=0"]}, "map_specs"),
        ({"seed": True}, "seed"),
        ({"seed": 5.7}, "seed"),
        ({"seed": "x"}, "seed"),
        ({"dims": [2, 17]}, "dims"),
        ({"mm_ranges": [5]}, "mm_ranges"),
        ({"theorem_ids": []}, "theorem_ids: must be non-empty"),
        ({"function_specs": []}, "function_specs: must be non-empty"),
        ({"map_specs": []}, "map_specs: must be non-empty"),
    ],
)
def test_config_rejects_bad_values(patch, fragment):
    with pytest.raises(ConfigError) as err:
        CampaignConfig.from_dict(small_config(**patch))
    assert fragment in str(err.value)


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError) as err:
        CampaignConfig.from_dict(small_config(extra=1))
    assert "extra" in str(err.value)


def test_config_rejects_missing_fields():
    bad = small_config()
    del bad["dims"]
    with pytest.raises(ConfigError):
        CampaignConfig.from_dict(bad)


def test_plan_dedupes_map_axis_for_map_free_theorems():
    cfg = CampaignConfig.from_dict(small_config())
    cells = plan_cells(cfg)
    lc_quad_cells = [c for c in cells if c[0] == "LC-QUAD"]
    # 2 functions x 1 map slot x 2 dims
    assert len(lc_quad_cells) == 4
    sq_map_cells = [c for c in cells if c[0] == "SQ-MAP"]
    assert len(sq_map_cells) == 8


def test_run_campaign_counts_and_skips():
    cfg = CampaignConfig.from_dict(small_config())
    report = run_campaign(cfg)
    assert report.verdict == "pass"
    for cell in report.cells:
        if cell.skipped:
            assert cell.skip_reason
            assert cell.pass_count == cell.fail_count == 0
        else:
            assert cell.pass_count + cell.fail_count == cfg.instances_per_cell
    mismatched = [
        c for c in report.cells
        if c.skipped and c.theorem == "SQ-MAP" and c.function == "exp"
    ]
    assert mismatched and all(c.skip_reason == "function class mismatch" for c in mismatched)


def test_campaign_deterministic_across_runs_and_jobs():
    cfg = CampaignConfig.from_dict(small_config())
    blobs = {
        dumps_canonical(run_campaign(cfg, jobs=j).to_dict())
        for j in (1, 1, 4, 8)
    }
    assert len(blobs) == 1


@pytest.mark.parametrize("jobs", [0, -3, 1.5, True, "2"])
def test_run_campaign_rejects_bad_jobs(jobs):
    cfg = CampaignConfig.from_dict(small_config())
    with pytest.raises(ConfigError) as err:
        run_campaign(cfg, jobs=jobs)
    assert "jobs" in str(err.value)


def test_campaign_seed_changes_results():
    r1 = run_campaign(CampaignConfig.from_dict(small_config(seed=1)))
    r2 = run_campaign(CampaignConfig.from_dict(small_config(seed=2)))
    assert dumps_canonical(r1.to_dict()) != dumps_canonical(r2.to_dict())


def test_emit_report_writes_canonical_json(tmp_path):
    cfg = CampaignConfig.from_dict(small_config(instances_per_cell=1))
    report = run_campaign(cfg)
    out = tmp_path / "report.json"
    emit_report(report, out)
    text = out.read_text()
    parsed = json.loads(text)
    assert set(parsed) == {"config", "cells", "verdict", "seed", "version"}
    assert parsed["seed"] == 11
    assert text == dumps_canonical(report.to_dict()) + "\n"


def test_emit_report_unwritable_path(tmp_path):
    cfg = CampaignConfig.from_dict(small_config(instances_per_cell=1))
    report = run_campaign(cfg)
    with pytest.raises(IoError):
        emit_report(report, tmp_path / "missing-dir" / "report.json")


def test_family_theorem_requires_family_spec():
    cfg = CampaignConfig.from_dict(small_config(
        theorem_ids=["lc-mercer"], function_specs=["exp"],
        map_specs=["identity", "family:n=3"], dims=[2],
    ))
    report = run_campaign(cfg)
    by_map = {c.map_spec: c for c in report.cells}
    assert by_map["identity"].skipped and "family" in by_map["identity"].skip_reason
    assert not by_map["family:n=3"].skipped
    assert by_map["family:n=3"].pass_count == cfg.instances_per_cell


@pytest.mark.parametrize("map_spec, dim, reason", [
    ("compression:k=3", 2, "compression k=3 exceeds dim 2"),
    ("pinching:blocks=0|1", 3, "blocks ((0,), (1,)) are not a partition of 0..2"),
    ("family:n=3", 2, "needs a single map, not a family"),
])
def test_single_map_that_cannot_act_at_dim_skips_cell(map_spec, dim, reason):
    cfg = CampaignConfig.from_dict(small_config(
        theorem_ids=["lc-map"], function_specs=["exp"], map_specs=[map_spec], dims=[dim],
    ))
    report = run_campaign(cfg)
    assert [c.skip_reason for c in report.cells] == [reason]
    assert report.passed


def test_positive_domain_function_needs_positive_range():
    cfg = CampaignConfig.from_dict(small_config(
        theorem_ids=["lc-quad"], function_specs=["pow:p=-1"],
        mm_ranges=[[-1.0, 2.0]], dims=[1],
    ))
    report = run_campaign(cfg)
    assert all(c.skipped for c in report.cells)
    assert "no compatible (m, M) range" in report.cells[0].skip_reason


def test_single_cell_exp_has_equality_links_near_zero_gap():
    # the geometric step is exact for exp, so the smallest observed link
    # eigenvalue sits at the equality links, i.e. essentially zero
    cfg = CampaignConfig.from_dict(small_config(
        theorem_ids=["lc-quad"], function_specs=["exp"], map_specs=["identity"],
        dims=[1], instances_per_cell=1, seed=5,
    ))
    report = run_campaign(cfg)
    cell = report.cells[0]
    assert not cell.skipped and cell.pass_count == 1
    assert cell.equality_links >= 2
    assert abs(cell.min_link_eigenvalue) <= 1e-12


def test_overtight_tolerance_fails_cells_with_digests():
    # equality links carry roundoff of order 1e-15, so an absurdly tight
    # tolerance must flip the verdict and record failing digests
    cfg = CampaignConfig.from_dict(small_config(
        theorem_ids=["lc-quad"], function_specs=["exp"], map_specs=["identity"],
        dims=[2], instances_per_cell=2, tol=1e-30,
    ))
    report = run_campaign(cfg)
    assert report.verdict == "fail"
    cell = report.cells[0]
    assert cell.fail_count > 0
    assert cell.failing


# -- windows across cells ---------------------------------------------------------


@pytest.mark.parametrize("per_cell", [1, 2, 3, 5, 17])
def test_windows_hold_one_dimension_in_near_equal_parts(per_cell):
    dims = [2, 4, 12, 2, 4, 8, 8, 8, 3, 16, 2, 1, 1, 5]
    for workers in (1, 2, 3, 8):
        windows = plan_windows(per_cell, dims, workers)
        # Every instance once, in cell order within its dimension.
        for dim in set(dims):
            assert [pair for window in windows for pair in window if dims[pair[0]] == dim] == [
                (c, i) for c in range(len(dims)) if dims[c] == dim for i in range(per_cell)]
        assert sum(map(len, windows)) == len(dims) * per_cell
        by_dim = {}
        for window in windows:
            (dim,) = {dims[cell] for cell, _ in window}
            by_dim.setdefault(dim, []).append(len(window))
        for dim, sizes in by_dim.items():
            n = dims.count(dim) * per_cell
            assert max(sizes) - min(sizes) <= 1 and max(sizes) <= chains.WINDOW
            assert len(sizes) == max(min(workers, n), -(-n // chains.WINDOW))


def test_windows_split_each_dimension_for_the_workers(monkeypatch):
    def cells(*spans):
        return [(cell, i) for cell, start, stop in spans for i in range(start, stop)]

    # Two dims: one window each at one worker, one per cell at two.
    assert plan_windows(4, [8, 16, 8, 16]) == [cells((0, 0, 4), (2, 0, 4)),
                                               cells((1, 0, 4), (3, 0, 4))]
    assert plan_windows(4, [8, 16, 8, 16], 2) == [cells((0, 0, 4)), cells((2, 0, 4)),
                                                  cells((1, 0, 4)), cells((3, 0, 4))]
    # Over WINDOW (16 here): ceil(n / WINDOW) near-equal windows, a cell split
    # across two.
    monkeypatch.setattr(chains, "WINDOW", 16)
    assert plan_windows(20, [2, 1, 2]) == [cells((0, 0, 13)), cells((0, 13, 20), (2, 0, 6)),
                                           cells((2, 6, 20)), cells((1, 0, 10)),
                                           cells((1, 10, 20))]
    # More workers than instances: one window per instance.
    assert plan_windows(1, [12] * 3, 8) == [cells((0, 0, 1)), cells((1, 0, 1)), cells((2, 0, 1))]
    monkeypatch.setattr(chains, "WINDOW", 2)
    assert plan_windows(1, [2] * 5) == [cells((0, 0, 1)), cells((1, 0, 1), (2, 0, 1)),
                                        cells((3, 0, 1), (4, 0, 1))]
