"""Configuration-driven randomized verification campaigns.

A campaign is the product of theorem ids, function specs, map specs, and
dimensions.  Every cell draws ``instances_per_cell`` fresh instances, builds
the registered chain, and aggregates link verdicts.

Every cell is planned up front: a skip reason, or a draw of its instances.
``plan_windows`` groups the runnable instances by dimension into windows, so
that each round of a window decomposes one full stack, whichever cells its
instances come from.  Each window runs through ``chains.window_outcomes``
(``_run_window``), and each cell is folded from its own instances' records.
Instance streams are keyed by ``(seed, cell_index, instance_index)``, and
reports are serialized canonically (sorted keys, 17-significant-digit
floats), so identical configurations produce byte-identical reports at any
window size and any ``jobs``.  At ``jobs`` 1 windows run in order on the
calling thread; at ``jobs`` > 1 they run in a pool of forked worker
processes, largest first.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, fields, replace
from functools import lru_cache, partial

from . import __version__, chains
from .errors import ConfigError, IoError, LoewnerLabError
from .chains import (compatible_ranges, draw_steps, input_misfit, resolve_theorem,
                     window_outcomes)
from .functions import parse_function_spec
from .hermitian import check_dims, check_int, check_tolerance, is_real
from .maps import parse_map_spec
from .seeding import spawn_rng
from .serialize import dumps_canonical

_NO_MAP_LABEL = "-"


@dataclass(frozen=True)
class CampaignConfig:
    theorem_ids: tuple
    function_specs: tuple
    map_specs: tuple
    dims: tuple
    mm_ranges: tuple
    instances_per_cell: int
    tol: float
    seed: int

    @classmethod
    def from_dict(cls, obj: dict) -> "CampaignConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        names = [f.name for f in fields(cls)]
        unknown = set(obj) - set(names)
        if unknown:
            raise ConfigError(f"unknown config field(s): {', '.join(sorted(unknown))}")
        missing = [k for k in names if k not in obj and k != "seed"]
        if missing:
            raise ConfigError(f"missing config field(s): {', '.join(missing)}")
        cfg = cls(
            theorem_ids=tuple(str(t) for t in _require_list(obj, "theorem_ids")),
            function_specs=tuple(str(s) for s in _require_list(obj, "function_specs")),
            map_specs=tuple(str(s) for s in _require_list(obj, "map_specs")),
            dims=tuple(_require_list(obj, "dims")),
            mm_ranges=tuple(tuple(r) if isinstance(r, list) else r
                            for r in _require_list(obj, "mm_ranges")),
            instances_per_cell=obj["instances_per_cell"],
            tol=obj["tol"],
            seed=obj.get("seed", 0),
        )
        cfg.validate()
        return cfg

    def validate(self) -> None:
        for name, parse in (("theorem_ids", resolve_theorem),
                            ("function_specs", parse_function_spec), ("map_specs", parse_map_spec)):
            if not getattr(self, name):
                raise ConfigError(f"{name}: must be non-empty")
            for entry in getattr(self, name):
                try:
                    parse(entry)
                except LoewnerLabError as exc:
                    raise ConfigError(f"{name}: {exc}") from None
        check_dims(self.dims)
        if not self.mm_ranges:
            raise ConfigError("mm_ranges: must be non-empty")
        for r in self.mm_ranges:
            if (not isinstance(r, (list, tuple)) or len(r) != 2
                    or not all(is_real(x) for x in r) or r[0] >= r[1]):
                raise ConfigError(f"mm_ranges: each range must be [lo, hi] with lo < hi, got {r!r}")
        check_int(self.instances_per_cell, "instances_per_cell", 1)
        check_tolerance(self.tol)
        check_int(self.seed, "seed")

    def to_dict(self) -> dict:
        return {
            "theorem_ids": list(self.theorem_ids),
            "function_specs": list(self.function_specs),
            "map_specs": list(self.map_specs),
            "dims": [int(d) for d in self.dims],
            "mm_ranges": [[float(lo), float(hi)] for lo, hi in self.mm_ranges],
            "instances_per_cell": int(self.instances_per_cell),
            "tol": float(self.tol),
            "seed": int(self.seed),
        }


def _require_list(obj, key):
    v = obj.get(key)
    if not isinstance(v, (list, tuple)):
        raise ConfigError(f"{key}: must be a list")
    return v


@dataclass(frozen=True)
class CellResult:
    theorem: str
    function: str
    map_spec: str
    dim: int
    skipped: bool = False
    skip_reason: str = ""
    pass_count: int = 0
    fail_count: int = 0
    min_link_eigenvalue: float | None = None
    equality_links: int = 0
    failing: tuple = ()

    def to_dict(self) -> dict:
        out = {
            "theorem": self.theorem,
            "function": self.function,
            "map": self.map_spec,
            "dim": int(self.dim),
            "pass_count": int(self.pass_count),
            "fail_count": int(self.fail_count),
            "equality_links": int(self.equality_links),
            "min_link_eigenvalue": self.min_link_eigenvalue,
            "failing": list(self.failing),
        }
        if self.skipped:
            out["skipped"] = True
            out["reason"] = self.skip_reason
        return out


@dataclass(frozen=True)
class CampaignReport:
    config: CampaignConfig
    cells: tuple
    verdict: str
    seed: int
    version: str = __version__

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "cells": [c.to_dict() for c in self.cells],
            "verdict": self.verdict,
            "seed": int(self.seed),
            "version": self.version,
        }


# ---------------------------------------------------------------------------
# Cell planning
# ---------------------------------------------------------------------------


def _draw_mm(rng, lo: float, hi: float) -> tuple[float, float]:
    """m in the lower 40% of the range, M at least 0.3 widths above it."""
    width = hi - lo
    m = lo + 0.4 * width * float(rng.random())
    floor = m + 0.3 * width
    big_m = floor + (hi - floor) * float(rng.random())
    return m, big_m


def _plan_cell(config: CampaignConfig, cell_index: int, theorem_id: str,
               f_spec: str, map_spec: str, dim: int):
    """The cell's result header and ``draw(i)``; a cell that cannot run has
    its whole (skipped) result and no draw."""
    spec = resolve_theorem(theorem_id)
    f = parse_function_spec(f_spec)
    label = _NO_MAP_LABEL if spec.map_mode == "none" else map_spec
    header = CellResult(theorem=spec.id, function=f_spec, map_spec=label, dim=dim)
    reason = input_misfit(spec, f, map_spec, dim, config.mm_ranges)
    if reason is not None:
        return replace(header, skipped=True, skip_reason=reason), None
    ranges = compatible_ranges(spec, f, config.mm_ranges)

    def draw(i: int):
        rng = spawn_rng(config.seed, cell_index, i)
        lo, hi = ranges[i % len(ranges)]
        m, big_m = _draw_mm(rng, float(lo), float(hi))
        return draw_steps(spec, f, map_spec, dim, m, big_m, rng)

    return header, draw


def _record(outcome) -> tuple:
    """An instance's outcome as the fold reads it: (min_link_eigenvalue,
    equality_links, passed, failing entry or None)."""
    if isinstance(outcome, LoewnerLabError):
        return None, 0, False, f"error:{type(outcome).__name__}:{outcome}"
    return (outcome.min_link_eigenvalue, outcome.equality_links, outcome.passed,
            None if outcome.passed else outcome.instance_digest)


def _fold(header: CellResult, records) -> CellResult:
    passes = fails = equalities = 0
    min_eig: float | None = None
    failing: list[str] = []
    for instance_min, instance_equalities, passed, entry in records:
        if instance_min is not None:
            min_eig = instance_min if min_eig is None else min(min_eig, instance_min)
        equalities += instance_equalities
        if passed:
            passes += 1
        else:
            fails += 1
            if len(failing) < 5:
                failing.append(entry)
    return replace(header, pass_count=passes, fail_count=fails, min_link_eigenvalue=min_eig,
                   equality_links=equalities, failing=tuple(failing))


def plan_cells(config: CampaignConfig):
    """The cell grid in deterministic order.  Theorems that use no map are
    paired with the placeholder map label once instead of once per spec."""
    cells = []
    for t in config.theorem_ids:
        spec = resolve_theorem(t)
        map_axis = config.map_specs if spec.map_mode != "none" else config.map_specs[:1]
        for f_spec in config.function_specs:
            for map_spec in map_axis:
                for dim in config.dims:
                    cells.append((spec.id, f_spec, map_spec, int(dim)))
    return cells


def plan_windows(per_cell: int, dims, workers: int = 1) -> list:
    """Group the instances of the runnable cells, ``per_cell`` each at the
    given dims in order, into windows of (cell, instance) pairs.

    A window holds one dimension, so each of its rounds decomposes one
    stack.  A dimension's n instances, in cell order, split into
    max(min(workers, n), ceil(n / ``chains.WINDOW``)) near-equal windows.
    """
    by_dim: dict[int, list] = {}
    for cell, dim in enumerate(dims):
        by_dim.setdefault(dim, []).extend((cell, i) for i in range(per_cell))
    windows = []
    for instances in by_dim.values():
        n = len(instances)
        parts = max(min(workers, n), -(-n // chains.WINDOW))
        windows.extend(instances[j * n // parts:(j + 1) * n // parts] for j in range(parts))
    return windows


@lru_cache(maxsize=1)
def _plan(config: CampaignConfig) -> tuple:
    """Every cell's (header, draw) in cell order, and the draws of the
    runnable cells.  The last plan is kept, so pool workers forked after
    ``run_campaign`` plans inherit it instead of planning again."""
    planned = [_plan_cell(config, idx, *cell) for idx, cell in enumerate(plan_cells(config))]
    return planned, [draw for _, draw in planned if draw is not None]


def _run_window(config: CampaignConfig, window) -> list:
    """The records (see ``_record``) of one window's instances, in order."""
    draws = _plan(config)[1]
    outcomes = window_outcomes(
        [partial(draws[cell], i) for cell, i in window],
        config.tol, seed=config.seed)
    return [_record(outcome) for outcome in outcomes]


def _pool_map(config: CampaignConfig, windows, costs, workers: int) -> list:
    """``_run_window`` over ``windows`` in ``workers`` processes, submitted
    in descending order of cost and returned in window order.  On any error
    the workers are stopped before it is raised again."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # Fork, so that workers inherit the imported library and the plan.
    # Python 3.14's default, forkserver, would re-import __main__ and numpy
    # in every worker, and fails outright when __main__ has no main guard.
    # Fork copies no other thread, so a caller must not hold a lock in one.
    # The pool's workers are recorded as they start, so that a teardown stops
    # them and no child that another thread starts.
    fork, started = multiprocessing.get_context("fork"), []

    class Context(type(fork)):
        class Process(fork.Process):
            def start(self):
                super().start()
                started.append(self)

    pool = ProcessPoolExecutor(workers, mp_context=Context())
    try:
        futures = {w: pool.submit(_run_window, config, windows[w])
                   for w in sorted(range(len(windows)), key=costs.__getitem__, reverse=True)}
        records = [futures[w].result() for w in range(len(windows))]
    except BaseException:
        # A pool whose manager thread never started, or whose worker died,
        # leaves workers that no shutdown tells to exit, so they go first.
        # Shutdown then joins a running manager thread, which may be reaping
        # them too, and raises RuntimeError for one that never started.
        for process in started:
            process.terminate()
            process.join()
        with contextlib.suppress(RuntimeError):
            pool.shutdown(cancel_futures=True)
        raise
    pool.shutdown()
    return records


def run_campaign(config: CampaignConfig, jobs: int = 1) -> CampaignReport:
    """Execute every cell, window by window.  ``jobs`` must be an integer
    >= 1.  Windows are planned for min(jobs, cores) workers; with one worker
    or one window they run in order on the calling thread, otherwise in a
    pool of min(jobs, windows, cores) forked processes, the costliest (by
    instances x dim^3) first.  The report is deterministic in (config, seed)
    at any ``jobs``: each instance owns a counter-keyed stream and each cell
    is folded from its own records in instance order."""
    config.validate()
    check_int(jobs, "jobs", 1)
    planned, _ = _plan(config)
    dims = [header.dim for header, draw in planned if draw is not None]
    workers = min(jobs, os.cpu_count() or 1)
    windows = plan_windows(config.instances_per_cell, dims, workers)
    workers = min(workers, len(windows))
    if workers > 1:
        costs = [len(window) * dims[window[0][0]] ** 3 for window in windows]
        per_window = _pool_map(config, windows, costs, workers)
    else:
        per_window = map(partial(_run_window, config), windows)
    records = [[] for _ in dims]
    for window, window_records in zip(windows, per_window):
        for (cell, _), record in zip(window, window_records):
            records[cell].append(record)
    runnable = iter(records)
    results = [header if draw is None else _fold(header, next(runnable))
               for header, draw in planned]
    any_fail = any(c.fail_count > 0 for c in results)
    return CampaignReport(
        config=config,
        cells=tuple(results),
        verdict="fail" if any_fail else "pass",
        seed=config.seed,
    )


def emit_report(report: CampaignReport, path) -> None:
    """Write the canonical JSON report; raises IoError on unwritable paths."""
    text = dumps_canonical(report.to_dict()) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write report to {path}: {exc}") from exc
