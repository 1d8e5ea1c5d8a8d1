"""Pin the canonical report digest of every input set in ``digests.json``.

    python3 perfbench/pin.py [workload ...]

Run from the root of a source checkout after a change that is meant to
alter reports, and only then: the pins are what the correctness gate
compares every benchmark run against.  Digests are keyed by
``loewner_lab.__version__``.  The calls a traced run of ``campaign-wide``
adds have their own table, ``campaign-wide:probe``.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import loewner_lab  # noqa: E402
from gate import DIGESTS, load_pins  # noqa: E402
from measure import run_pass  # noqa: E402
from workloads import INPUT_SETS, WORKLOADS, write_calls  # noqa: E402


def pin(workload: str, probe: bool, workdir: str) -> list:
    digests = []
    for key in range(INPUT_SETS):
        calls = write_calls(workload, key, False, workdir, probe)
        result = run_pass(calls, 1)
        digests.append(result["report_sha256"])
        print(f"{workload} probe={probe} set {key}: {result['attempted']} attempted, "
              f"{result['failed']} failed, {result['wall_s']:.2f} s", flush=True)
    return digests


def main(names) -> None:
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tables = {}
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        for workload in names or sorted(WORKLOADS):
            tables[workload] = pin(workload, False, workdir)
            if WORKLOADS[workload][2]:
                tables[f"{workload}:probe"] = pin(workload, True, workdir)
    pins = load_pins()
    pins.setdefault(loewner_lab.__version__, {}).update(tables)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
