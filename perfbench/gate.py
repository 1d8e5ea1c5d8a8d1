"""Correctness gate applied to every benchmark run before any number is
reported.

* Every pass of a run, at jobs 1 and jobs 2, must produce byte-identical
  canonical reports (compared through their SHA-256).
* That digest must equal the one pinned in ``digests.json`` for
  (``loewner_lab.__version__``, workload, input set).  A run with no pin
  fails; only the smoke runs of the benchmark's own tests skip this check.
* Every hunt must print ``found:false`` and exit 0; a campaign may exit 0
  or 1 (1 means failing instances, which are counted), never 2.
* A traced run must restore every name it wrapped, and the eigensolver must
  agree with LAPACK within ROADMAP's 1e-10 gate.
"""

from __future__ import annotations

import json
import os

EIG_GATE = 1e-10
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def load_pins(path: str = DIGESTS) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def pinned_digest(pins: dict, version: str, workload: str, key: int):
    """The pinned digest, or None when this version or workload has none."""
    table = pins.get(version, {}).get(workload)
    return table[key] if table else None


def check_passes(kind: str, passes: list, pin) -> list:
    """Problems with the passes of one run; empty when the gate holds.
    ``pin`` None compares the passes only with each other."""
    problems = []
    digests = {p["report_sha256"] for p in passes}
    if len(digests) != 1:
        problems.append(f"canonical reports differ across passes: {sorted(digests)}")
    if pin is not None and digests != {pin}:
        problems.append(f"report digest {sorted(digests)} does not match the pinned {pin}")
    for p in passes:
        allowed = (0,) if kind == "hunt" else (0, 1)
        if any(rc not in allowed for rc in p["rcs"]):
            problems.append(f"jobs {p['jobs']} pass exited with codes {p['rcs']}")
        if any(p["found"]):
            problems.append("a hunt without relaxation reported found:true")
    return problems


def check_pinned(pins, kind: str, passes: list, version: str, table: str, key: int) -> list:
    """``check_passes`` against the digest pinned for (version, table, key);
    a missing pin is a problem.  ``pins`` is None on a smoke run, which has
    nothing pinned."""
    if pins is None:
        return check_passes(kind, passes, None)
    pin = pinned_digest(pins, version, table, key)
    if pin is None:
        return [f"no digest pinned for {table}, input set {key}, version {version}; "
                "run perfbench/pin.py"]
    return check_passes(kind, passes, pin)


def check_trace(result: dict) -> list:
    problems = []
    if result["not_restored"]:
        problems.append(f"names not restored after tracing: {result['not_restored']}")
    for name in ("hermitian.eig_max_rel_err", "hermitian.eig_max_residual"):
        if not result["layers"][name] <= EIG_GATE:
            problems.append(f"{name} = {result['layers'][name]!r} exceeds {EIG_GATE}")
    return problems
