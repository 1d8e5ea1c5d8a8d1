"""The benchmark's own tests, at smoke size.

    python3 -m pytest perfbench -q

Run from the root of a source checkout.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import loewner_lab  # noqa: E402
import gate  # noqa: E402
from measure import run_pass, summarize  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, write_calls  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)

# Metrics the benchmark's notes promise beyond BENCHMARK.json: failed_share is
# carried by "attempted"/"failed" because it is 0 on a healthy run, and a hunt
# attempt is one instance, so attempts_per_s is instances_per_s on hunt-soak.
EXTRA_SUMMARY = {"failed_share": "share"}
HUNT_SUMMARY = {"attempts_per_s": "1/s"}
PROVENANCE = {"git_sha", "source_sha256", "nproc", "python", "numpy", "seed", "version"}


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture
def workdir():
    out = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as path:
        yield path


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if not trace:
            assert m["value"] > 0, name
    summary = {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}
    expected = {m["name"]: m["unit"] for m in declared}
    if not trace:
        expected.update(EXTRA_SUMMARY)
        if WORKLOADS[workload][0] == "hunt":
            expected.update(HUNT_SUMMARY)
    assert summary == expected
    provenance = json.loads(lines[0].split(" ", 1)[1])
    assert PROVENANCE <= set(provenance)
    assert any(line.startswith("calibration ") for line in lines) == bool(trace)


def test_runs_without_sources_fail_without_a_result():
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("hunt-soak", 0, cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_layer_self_times_sum_to_at_most_the_traced_wall(workdir):
    calls = (write_calls("campaign-wide", 1, True, workdir)
             + write_calls("campaign-wide", 1, True, workdir, probe=True))
    tracer = Tracer(loewner_lab)
    tracer.install()
    try:
        traced = run_pass(calls, 1)
    finally:
        tracer.uninstall()
    stats = tracer.span_stats()
    assert stats["cli.main"]["calls"] == len(calls) == 3
    assert 0 < sum(s["self_s"] for s in stats.values()) <= traced["wall_s"]


def test_tracing_restores_every_name_and_leaves_reports_unchanged(workdir):
    modules = {name: dict(vars(mod)) for name, mod in sys.modules.items()
               if name == "loewner_lab" or name.startswith("loewner_lab.")}
    calls = write_calls("hunt-soak", 2, True, workdir)
    before = run_pass(calls, 1)["report_sha256"]
    tracer = Tracer(loewner_lab)
    tracer.install()
    try:
        during = run_pass(calls, 1)["report_sha256"]
    finally:
        tracer.uninstall()
    assert tracer.check_restored() == []
    for name, snapshot in modules.items():
        now = vars(sys.modules[name])
        assert all(now[attr] is value for attr, value in snapshot.items()), name
    assert tracer.instances == 2 * 20
    assert before == during == run_pass(calls, 1)["report_sha256"]


def test_a_tampered_report_fails_the_gate(workdir):
    calls = write_calls("campaign-deep", 3, True, workdir)
    good = run_pass(calls, 1)
    assert gate.check_passes("campaign", [good, dict(good, jobs=2)], good["report_sha256"]) == []
    with open(calls[0].report, "rb") as fh:
        report = fh.read()
    tampered = report.replace(b'"pass_count":1', b'"pass_count":2', 1)
    assert tampered != report
    bad = dict(good, **summarize(calls, [tampered]))
    assert gate.check_passes("campaign", [good, bad], None)
    assert gate.check_passes("campaign", [bad, dict(bad, jobs=2)], good["report_sha256"])


def test_a_hunt_that_finds_something_fails_the_gate():
    found = {"jobs": 1, "rcs": [1, 0], "found": [True, False], "report_sha256": "x"}
    assert len(gate.check_passes("hunt", [found], None)) == 2


def test_a_version_without_pins_fails_the_gate():
    pins = gate.load_pins()
    pin = gate.pinned_digest(pins, loewner_lab.__version__, "hunt-soak", 0)
    passes = [{"jobs": 1, "rcs": [0, 0], "found": [False, False], "report_sha256": pin}]
    assert gate.check_pinned(pins, "hunt", passes, loewner_lab.__version__, "hunt-soak", 0) == []
    assert gate.check_pinned(pins, "hunt", passes, "0.0.0-unpinned", "hunt-soak", 0)
