"""The benchmark's workloads: what each one feeds ``loewner_lab.cli.main``.

Inputs depend only on the input-set key, ``seed % INPUT_SETS``, so every
seed maps onto one of a fixed number of input sets whose canonical report
digests are pinned in ``digests.json``.  The library sees nothing but the
generated configs and argv.

A pass runs every call of a workload once.  ``jobs`` is the degree of
parallelism inside that one process: campaigns get ``--jobs <jobs>``; the
two hunts of ``hunt-soak`` run one after the other at 1 and side by side on
two threads at 2, since ``hunt`` has no ``--jobs`` of its own.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

INPUT_SETS = 32

ALL_THEOREMS = (
    "JM-BASE", "MOS-BASE", "LC-QUAD", "LC-POW", "LC-MID", "LC-MAP", "LC-MAP-V2",
    "LC-MAP-V3", "LC-MULTI", "LC-MERCER", "SQ-MAP", "SQ-POW", "SQ-MAP-V2",
    "SQ-MAP-V3", "SQ-MULTI-A", "SQ-MULTI-B", "SQ-MERCER", "SQ-QUAD", "SQ-MID",
)
WIDE_FUNCTIONS = ("exp", "pow:p=-1", "pow:p=2", "pow:p=2.5")
WIDE_MAPS = ("identity", "pinching", "compression", "mixed", "family:n=3")
EXP_THEOREMS = ("JM-BASE", "MOS-BASE", "LC-QUAD", "LC-MID", "LC-MAP", "LC-MAP-V2",
                "LC-MAP-V3", "LC-MULTI", "LC-MERCER")
# Theorems that draw quadruples with A >= 0: the non-negative sampler.
NONNEG_QUADRUPLE_THEOREMS = ("LC-QUAD", "LC-POW", "LC-MAP", "SQ-MAP", "SQ-POW", "SQ-MAP-V2",
                             "SQ-MAP-V3", "SQ-QUAD", "SQ-MULTI-A", "SQ-MULTI-B")


@dataclass(frozen=True)
class Call:
    """One invocation of the CLI.  ``report`` names the campaign report file;
    a hunt's canonical report is what it prints."""

    kind: str  # "campaign" | "hunt"
    argv: tuple
    report: str = ""


def _campaign(theorems, functions, maps, dims, ranges, per_cell, key):
    return {
        "theorem_ids": list(theorems),
        "function_specs": list(functions),
        "map_specs": list(maps),
        "dims": list(dims),
        "mm_ranges": [list(r) for r in ranges],
        "instances_per_cell": per_cell,
        "tol": 1e-9,
        "seed": key,
    }


def campaign_deep(key: int, smoke: bool) -> list:
    dims, per_cell = ((2, 3), 1) if smoke else ((8, 16), 4)
    return [_campaign(("LC-QUAD", "LC-MAP-V2", "LC-MULTI"), ("exp",),
                      ("mixed", "family:n=3"), dims, ((0.5, 2.5), (-1.0, 1.0)), per_cell, key)]


def campaign_wide(key: int, smoke: bool) -> list:
    # [-1, 1] comes first so that, at one instance per cell, every cell that
    # admits a negative m uses it and the cells that need m > 0 use [0.5, 2.5].
    ranges = ((-1.0, 1.0), (0.5, 2.5))
    small = _campaign(ALL_THEOREMS, WIDE_FUNCTIONS, WIDE_MAPS, (2,) if smoke else (2, 4),
                      ranges, 1, key)
    # Dimension 12 for every theorem that runs with exp and never draws
    # through the non-negative quadruple sampler, so its cost follows the
    # eigensolver and not the sampler's rejection count.
    large = _campaign(EXP_THEOREMS, ("exp",), ("pinching", "family:n=3"),
                      (3,) if smoke else (12,), ranges, 1, key)
    return [small, large]


def nonneg_probe(key: int, smoke: bool) -> list:
    """The non-negative quadruple sampler at dimension 12.

    Its rejection count is heavy-tailed across input sets (2 to 80 draws per
    quadruple, and on some sets ExhaustedRetries after 1000), which would
    swamp any end-to-end throughput.  So these cells run once, traced, in
    every traced run of campaign-wide, where
    instances.sample.attempts_per_quadruple reports them."""
    return [_campaign(NONNEG_QUADRUPLE_THEOREMS, ("pow:p=-1", "pow:p=2"),
                      ("mixed", "family:n=3"), (3,) if smoke else (12,),
                      ((0.5, 2.5),), 1, key)]


def hunt_soak(key: int, smoke: bool) -> list:
    budget = "20" if smoke else "300"
    common = ("--budget", budget, "--seed", str(key), "--dims", "1,2,3")
    return [
        ("hunt", "--theorem", "lc-quad", "--function", "exp") + common,
        ("hunt", "--theorem", "sq-map", "--function", "pow:p=2", "--map", "mixed") + common,
    ]


# name -> (kind, inputs of the timed passes, inputs run once more in traced runs)
WORKLOADS = {
    "campaign-deep": ("campaign", campaign_deep, None),
    "campaign-wide": ("campaign", campaign_wide, nonneg_probe),
    "hunt-soak": ("hunt", hunt_soak, None),
}


def input_key(seed: int) -> int:
    return seed % INPUT_SETS


def write_calls(workload: str, key: int, smoke: bool, workdir: str, probe: bool = False) -> list:
    """Write the workload's configs into ``workdir`` and return its calls;
    with ``probe``, the calls a traced run adds (possibly none)."""
    kind, make, make_probe = WORKLOADS[workload]
    if probe:
        make = make_probe or (lambda key, smoke: [])
    if kind == "hunt":
        return [Call("hunt", tuple(argv)) for argv in make(key, smoke)]
    calls = []
    for i, config in enumerate(make(key, smoke)):
        name = f"{'probe' if probe else 'config'}-{i}"
        cfg_path = os.path.join(workdir, f"{name}.json")
        report = os.path.join(workdir, f"{name}-report.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        calls.append(Call("campaign", ("campaign", "--config", cfg_path, "--out", report),
                          report))
    return calls
