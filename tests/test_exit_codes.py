"""Property test of the exit-code contract of every command.

Whatever the arguments, ``main`` returns 0, 1 or 2 and raises nothing.  It
returns 1 only beside a report that says fail: a chain report with
``passed: false``, a found hunt whose report fails, or a campaign report
whose verdict is ``fail``.  It returns 0 only beside a report that says
pass, and 2 with nothing on stdout.

Arguments are drawn valid, then one of them is spoiled about a third of the
time, so that every exit code is reached.  A tolerance of 1e-30 makes
rounding fail chains whose hypotheses hold.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from loewner_lab.chains import RELAXATIONS  # noqa: E402
from loewner_lab.cli import main  # noqa: E402

CONTRACT = settings(max_examples=40, deadline=None, derandomize=True, database=None)

# (theorem, function) pairs whose function class fits
FITTING = [("lc-quad", "exp"), ("lc-quad", "pow:p=-1"), ("lc-pow", "pow:p=-1"),
           ("sq-quad", "pow:p=2"), ("lc-map", "exp"), ("sq-map", "pow:p=2"),
           ("mos-base", "exp"), ("lc-mid", "exp"), ("lc-multi", "exp")]


def _spoiled(*bad):
    """None (keep the arguments valid) twice as often as one spoiled value."""
    return st.sampled_from([None] * len(bad) * 2 + list(bad))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue()


def _check(rc, out, says_fail):
    """``says_fail`` reads the payload printed with exit 0 or 1."""
    assert rc in (0, 1, 2)
    if rc == 2:
        assert out == ""
    else:
        assert says_fail(out) == (rc == 1)


@CONTRACT
@given(pair=st.sampled_from(FITTING), relax=st.sampled_from([None, *RELAXATIONS]),
       budget=st.integers(0, 6), seed=st.integers(0, 30),
       map_spec=st.sampled_from(["identity", "mixed", "pinching", "compression", "family:n=2"]),
       dims=st.sampled_from(["1", "1,2", "2,3"]),
       mm=st.sampled_from([("1.0", "2.0"), ("0.5", "2.5")]),
       tol=st.sampled_from(["1e-9", "1e-30"]),
       bad=_spoiled(("--tol", "nan"), ("--tol", "-1"), ("--dims", "0"), ("--dims", "1,a"),
                    ("--budget", "-1"), ("--m", "3"), ("--function", "bogus"),
                    ("--theorem", "bogus"), ("--relax", "bogus"), ("--map", "bogus"),
                    ("--map", "pinching:blocks=0|1")))
def test_hunt_exit_codes(pair, relax, budget, seed, map_spec, dims, mm, tol, bad):
    argv = ["hunt", "--theorem", pair[0], "--function", pair[1], "--budget", str(budget),
            "--seed", str(seed), "--map", map_spec, "--dims", dims, "--m", mm[0],
            "--M", mm[1], "--tol", tol, *(["--relax", relax] if relax else []), *(bad or ())]
    rc, out = _run(argv)

    def says_fail(text):
        payload = json.loads(text)
        if payload["found"]:
            assert payload["report"]["passed"] is False
        return payload["found"]

    _check(rc, out, says_fail)


QUADRUPLE = {
    "A": {"dim": 1, "re": [[0.0]]},
    "B": {"dim": 1, "re": [[2.0]]},
    "C": {"dim": 1, "re": [[2.0]]},
    "m": 1.0,
    "M": 3.0,
}
# relation -> D, so that A+D against B+C = 4 is what the relation says
SIDES = {"sum-leq": 5.0, "equal-sum": 4.0, "sum-geq": 3.5}


@CONTRACT
@given(pair=st.sampled_from(FITTING), relation=st.sampled_from(sorted(SIDES)),
       tol=st.sampled_from(["1e-9", "1e-30"]), seed=st.integers(0, 5),
       bad=_spoiled(("--tol", "0"), ("--tol", "nan"), ("--function", "pow:p="),
                    ("--theorem", "bogus"), ("--instance", "/nonexistent.json"),
                    ("--map", "bogus")))
def test_verify_exit_codes(pair, relation, tol, seed, bad):
    inst = dict(QUADRUPLE, relation=relation, D={"dim": 1, "re": [[SIDES[relation]]]})
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(inst, fh)
        rc, out = _run(["verify", "--theorem", pair[0], "--instance", path, "--function",
                        pair[1], "--tol", tol, "--seed", str(seed), *(bad or ())])
    _check(rc, out, lambda text: json.loads(text)["passed"] is False)


@settings(CONTRACT, max_examples=25)
@given(pairs=st.lists(st.sampled_from(FITTING), min_size=1, max_size=2),
       maps=st.lists(st.sampled_from(["identity", "pinching", "family:n=2"]),
                     min_size=1, max_size=2),
       dims=st.lists(st.integers(1, 3), min_size=1, max_size=2),
       mm_range=st.sampled_from([[0.5, 2.5], [-1.0, 1.0]]), instances=st.integers(1, 2),
       tol=st.sampled_from([1e-9, 1e-30]), seed=st.integers(0, 30),
       bad=_spoiled(("dims", [0]), ("mm_ranges", [[2.0, 1.0]]), ("instances_per_cell", 0),
                    ("tol", 0.0), ("seed", -1), ("map_specs", ["bogus"]),
                    ("theorem_ids", ["bogus"]), ("function_specs", ["bogus"])))
def test_campaign_exit_codes(pairs, maps, dims, mm_range, instances, tol, seed, bad):
    config = {"theorem_ids": [t for t, _ in pairs], "function_specs": [f for _, f in pairs],
              "map_specs": maps, "dims": dims, "mm_ranges": [mm_range],
              "instances_per_cell": instances, "tol": tol, "seed": seed}
    config.update([bad] if bad else [])
    with tempfile.TemporaryDirectory() as tmp:
        cfg, report = os.path.join(tmp, "config.json"), os.path.join(tmp, "report.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        rc, out = _run(["campaign", "--config", cfg, "--out", report])

        def says_fail(text):
            with open(report, encoding="utf-8") as fh:
                verdict = json.load(fh)["verdict"]
            assert text.startswith(f"campaign {verdict}:")
            return verdict == "fail"

        _check(rc, out, says_fail)
