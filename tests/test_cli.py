"""Command-line surface and exit-code contract."""

import json

import pytest

import loewner_lab.chains as chains
import loewner_lab.cli as cli
from loewner_lab.cli import main
from loewner_lab.instances import SumRelation, sample_quadruple


WORKED_INSTANCE = {
    "A": {"dim": 1, "re": [[0.0]]},
    "B": {"dim": 1, "re": [[2.0]]},
    "C": {"dim": 1, "re": [[2.0]]},
    "D": {"dim": 1, "re": [[5.0]]},
    "m": 1.0,
    "M": 3.0,
    "relation": "sum-leq",
}


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def campaign_config(seed=42):
    return {
        "theorem_ids": ["lc-quad", "lc-map"],
        "function_specs": ["exp"],
        "map_specs": ["pinching"],
        "dims": [1, 2],
        "mm_ranges": [[0.0, 2.0]],
        "instances_per_cell": 4,
        "tol": 1e-9,
        "seed": seed,
    }


def test_verify_worked_instance_passes(tmp_path, capsys):
    inst = write_json(tmp_path / "q.json", WORKED_INSTANCE)
    rc = main(["verify", "--theorem", "lc-quad", "--instance", inst,
               "--function", "exp", "--tol", "1e-9"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["theorem"] == "LC-QUAD"
    assert len(payload["links"]) == 4


def test_verify_exit_2_on_inconsistent_instance(tmp_path, capsys):
    inst = dict(WORKED_INSTANCE)
    inst["relation"] = "sum-geq"  # declared relation does not hold
    path = write_json(tmp_path / "bad.json", inst)
    rc = main(["verify", "--theorem", "lc-quad", "--instance", path,
               "--function", "exp"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_verify_exit_1_when_tolerance_cannot_absorb_roundoff(tmp_path, capsys):
    # at dim 3 the equality links carry ~1e-16 roundoff (seed pinned), so
    # an absurdly tight tolerance flips the verdict to a failure
    quad = sample_quadruple(3, 0.5, 2.0, SumRelation.SUM_LEQ, seed=0)
    path = write_json(tmp_path / "q3.json", quad.to_dict())
    rc = main(["verify", "--theorem", "lc-quad", "--instance", path,
               "--function", "exp", "--tol", "1e-30"])
    assert rc == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


def test_verify_map_theorem_with_map_spec(tmp_path, capsys):
    quad = sample_quadruple(2, 1.0, 2.0, SumRelation.EQUAL, seed=3)
    path = write_json(tmp_path / "eq.json", quad.to_dict())
    rc = main(["verify", "--theorem", "lc-map", "--instance", path,
               "--function", "exp", "--map", "pinching:blocks=0|1"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_verify_unknown_function_exit_2(tmp_path, capsys):
    path = write_json(tmp_path / "q.json", WORKED_INSTANCE)
    rc = main(["verify", "--theorem", "lc-quad", "--instance", path,
               "--function", "mystery"])
    assert rc == 2


def test_verify_missing_file_exit_2(capsys):
    rc = main(["verify", "--theorem", "lc-quad", "--instance", "/nonexistent.json",
               "--function", "exp"])
    assert rc == 2


def test_usage_error_exit_2(capsys):
    assert main(["verify"]) == 2
    assert main(["frobnicate"]) == 2


def test_campaign_cli_roundtrip_and_determinism(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", campaign_config())
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    rc1 = main(["campaign", "--config", cfg, "--out", str(out1), "--seed", "42"])
    rc2 = main(["campaign", "--config", cfg, "--out", str(out2), "--seed", "42",
                "--jobs", "8"])
    assert rc1 == 0 and rc2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["verdict"] == "pass"
    assert report["seed"] == 42


def test_campaign_bad_config_exit_2(tmp_path, capsys):
    cfg = campaign_config()
    cfg["instances_per_cell"] = 0
    path = write_json(tmp_path / "c.json", cfg)
    rc = main(["campaign", "--config", path, "--out", str(tmp_path / "r.json")])
    assert rc == 2
    assert "instances_per_cell" in capsys.readouterr().err


def test_campaign_unwritable_out_exit_2(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", campaign_config())
    rc = main(["campaign", "--config", cfg, "--out", str(tmp_path / "no" / "r.json")])
    assert rc == 2


def test_hunt_exit_code_and_payload(capsys):
    rc = main(["hunt", "--theorem", "lc-quad", "--relax", "cond-i-f",
               "--function", "pow:p=-1", "--budget", "2000", "--seed", "7"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["found"] is True
    assert payload["report"]["passed"] is False
    assert "instance" in payload


def test_hunt_without_relaxation_exits_0(capsys):
    rc = main(["hunt", "--theorem", "lc-quad", "--function", "pow:p=-1",
               "--budget", "200", "--seed", "7"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["found"] is False


def test_hunt_unknown_relaxation_exit_2(capsys):
    rc = main(["hunt", "--theorem", "lc-quad", "--relax", "nope",
               "--function", "exp", "--budget", "10", "--seed", "0"])
    assert rc == 2


def test_version_flag(capsys):
    assert main(["--version"]) == 0


# -- malformed input: typed error, exit 2, nothing sampled ----------------------


@pytest.fixture
def no_sampling(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled before rejecting the input")

    monkeypatch.setattr(chains, "draw_steps", refuse)
    monkeypatch.setattr(cli, "sample_map", refuse)


@pytest.mark.parametrize("flags, fragment", [
    (["--tol", "-1"], "tol"),
    (["--tol", "nan"], "tol"),
    (["--budget", "-5"], "budget"),
    (["--m", "2.0", "--M", "2.0"], "m < M"),
    (["--dims", "1,17"], "--dims"),
    (["--theorem", "sq-map", "--function", "pow:p=2", "--map", "bogus"], "bogus"),
    (["--dims", "1,a"], "--dims"),
    (["--theorem", "sq-map", "--function", "pow:p=2", "--map", "pinching:blocks=0|1",
      "--dims", "2,3"], "not a partition of 0..2"),
    (["--theorem", "sq-map"], "function class mismatch: exp is not superquadratic"),
    (["--map", "bogus"], "bogus"),
    (["--theorem", "lc-multi", "--map", "bogus"], "bogus"),
    (["--relax", "cond-i-f"], "cond-i-f cannot break its clause alone: its f clause holds"),
    (["--relax", "cond-ii-sum"], "cond-ii-sum cannot break its clause alone: its f clause fails"),
    (["--relax", "cond-ii-f", "--function", "pow:p=-1"], "cond-ii-f cannot break"),
    (["--relax", "cond-i-sum", "--function", "pow:p=-1"], "cond-i-sum cannot break"),
    (["--M", "inf"], "m, M: must be finite numbers"),
    (["--m=-inf"], "m, M: must be finite numbers"),
    (["--seed", "-1"], "seed: must be an integer >= 0, got -1"),
    # f(m) = f(M): the other condition holds whatever sum relation is drawn.
    (["--function", "const:c=2", "--relax", "cond-i-sum", "--budget", "32", "--seed", "0"],
     "cond-i-sum cannot break the hypothesis: its f clause holds both ways"),
    (["--theorem", "sq-quad", "--function", "const:c=-1", "--relax", "cond-ii-sum"],
     "cond-ii-sum cannot break the hypothesis"),
    (["--function", "pow:p=0", "--relax", "cond-ii-sum"], "cond-ii-sum cannot break the hypothesis"),
    (["--theorem", "lc-map", "--map", "family:n=3"], "needs a single map, not a family"),
    (["--function", "pow:p=-1", "--m", "0"], "no compatible (m, M) range for this function"),
    (["--theorem", "sq-quad", "--function", "pow:p=2", "--m", "-0.5"],
     "no compatible (m, M) range for this function"),
    (["--theorem", "lc-multi", "--map", "pinching"], "needs a map family"),
])
def test_hunt_rejects_bad_arguments_before_sampling(flags, fragment, no_sampling, capsys):
    rc = main(["hunt", "--theorem", "lc-quad", "--function", "exp", *flags])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert fragment in captured.err


@pytest.mark.parametrize("flags, fragment", [
    (["--theorem", "lc-quad", "--seed", "-1"], "seed: must be an integer >= 0, got -1"),
    (["--theorem", "lc-map", "--map", "mixed", "--seed", "-1"], "seed: must be an integer >= 0"),
    (["--theorem", "lc-quad", "--map", "bogus"], "bogus"),
    (["--theorem", "lc-map", "--map", "compression:k=two"], "compression:k=two"),
])
def test_verify_rejects_bad_arguments_before_sampling(flags, fragment, tmp_path, no_sampling,
                                                      capsys):
    path = write_json(tmp_path / "q.json", WORKED_INSTANCE)
    rc = main(["verify", "--instance", path, "--function", "exp", *flags])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert fragment in captured.err


def test_verify_rejects_a_member_with_its_own_bounds(tmp_path, capsys):
    # Member 1 holds for its own (m, M) = (0.5, 1.5) but not for the shared
    # (1, 2).  Only member 0's bounds were compared, so the chain ran and
    # failed (exit 1).
    def quadruple(a, b, c, d, m, big_m):
        return {"A": {"dim": 2, "re": [[a, 0.0], [0.0, a]]},
                "B": {"dim": 2, "re": [[b, 0.0], [0.0, b]]},
                "C": {"dim": 2, "re": [[c, 0.0], [0.0, c]]},
                "D": {"dim": 2, "re": [[d, 0.0], [0.0, d]]},
                "m": m, "M": big_m, "relation": "equal-sum"}

    inst = {"quadruples": [quadruple(0.5, 1.2, 1.8, 2.5, 1.0, 2.0),
                           quadruple(0.4, 0.6, 1.4, 1.6, 0.5, 1.5)],
            "m": 1.0, "M": 2.0, "family": "family:n=2", "family_seed": 0}
    path = write_json(tmp_path / "multi.json", inst)
    rc = main(["verify", "--theorem", "lc-multi", "--instance", path, "--function", "exp"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "shared (m, M) differs from member quadruples" in captured.err


def test_verify_negative_tol_exit_2(tmp_path, no_sampling, capsys):
    path = write_json(tmp_path / "q.json", WORKED_INSTANCE)
    rc = main(["verify", "--theorem", "lc-map", "--instance", path,
               "--function", "exp", "--tol", "-1"])
    assert rc == 2
    assert "tol" in capsys.readouterr().err


def test_verify_degenerate_interval_exit_2(tmp_path, capsys):
    inst = dict(WORKED_INSTANCE, m=2.0, M=2.0)
    inst["B"] = inst["C"] = {"dim": 1, "re": [[2.0]]}
    path = write_json(tmp_path / "flat.json", inst)
    rc = main(["verify", "--theorem", "lc-quad", "--instance", path, "--function", "exp"])
    assert rc == 2
    assert "m < M" in capsys.readouterr().err


def square(value, dim):
    return {"dim": dim, "re": [[value if i == j else 0.0 for j in range(dim)] for i in range(dim)]}


@pytest.mark.parametrize("matrix_a, fragment", [
    ({"dim": 2, "re": [[0.0, float("nan")], [float("nan"), 0.0]]}, "finite"),
    (square(0.0, 17), "dim must be in 1..16"),
])
def test_verify_rejects_bad_matrix_file(matrix_a, fragment, tmp_path, capsys):
    dim = matrix_a["dim"]
    inst = dict(WORKED_INSTANCE, A=matrix_a, B=square(2.0, dim), C=square(2.0, dim),
                D=square(5.0, dim))
    path = write_json(tmp_path / "bad.json", inst)
    rc = main(["verify", "--theorem", "lc-quad", "--instance", path, "--function", "exp"])
    assert rc == 2
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("patch, fragment", [
    ({"A": dict(square(0.0, 2), dim=2.7)}, "dim must be in 1..16 and an integer, got 2.7"),
    ({"A": dict(square(0.0, 1), dim=True)}, "got True"),
    ({"A": dict(square(0.0, 1), dim="x")}, "got 'x'"),
    ({"A": {"dim": 1, "re": [["x"]]}}, '"re" must be 1x1 numbers'),
    ({"A": {"dim": 1, "re": [[0.0]], "im": [[0.0, 1.0]]}}, '"im" must be 1x1'),
    ({"m": "x"}, '"m": must be a finite number'),
    ({"M": None}, '"M": must be a finite number'),
    ({"m": True}, '"m": must be a finite number'),
    ({"m": None}, '"m": must be a finite number, got None'),
    ({"M": float("inf")}, '"M": must be a finite number, got inf'),
    ({"C": None}, "instance lacks matrix field(s): C"),
])
def test_verify_rejects_malformed_instance_fields(patch, fragment, tmp_path, capsys):
    inst = {key: value for key, value in dict(WORKED_INSTANCE, **patch).items()
            if value is not None}
    path = write_json(tmp_path / "bad.json", inst)
    rc = main(["verify", "--theorem", "lc-quad", "--instance", path, "--function", "exp"])
    assert rc == 2
    err = capsys.readouterr().err
    assert fragment in err and "unexpected" not in err


@pytest.mark.parametrize("payload, fragment", [
    ([WORKED_INSTANCE], "instance must be a JSON object, got list"),
    ({"B_list": 5, "m": 1.0, "M": 2.0}, '"B_list": must be a list of JSON objects'),
    ({"quadruples": [5], "m": 1.0, "M": 2.0}, '"quadruples": must be a list of JSON objects'),
])
def test_verify_rejects_malformed_instance_layout(payload, fragment, tmp_path, capsys):
    path = write_json(tmp_path / "bad.json", payload)
    rc = main(["verify", "--theorem", "lc-multi", "--instance", path, "--function", "exp"])
    assert rc == 2
    err = capsys.readouterr().err
    assert fragment in err and "unexpected" not in err


def test_campaign_config_array_with_seed_override_exit_2(tmp_path, capsys):
    path = write_json(tmp_path / "c.json", [campaign_config()])
    rc = main(["campaign", "--config", path, "--out", str(tmp_path / "r.json"), "--seed", "3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config must be a JSON object" in err and "unexpected" not in err
    assert not (tmp_path / "r.json").exists()


def test_campaign_unknown_map_spec_exit_2(tmp_path, capsys):
    cfg = campaign_config()
    cfg["map_specs"] = ["bogus"]
    path = write_json(tmp_path / "c.json", cfg)
    rc = main(["campaign", "--config", path, "--out", str(tmp_path / "r.json")])
    assert rc == 2
    assert "map_specs" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_campaign_jobs_below_1_exit_2(jobs, tmp_path, capsys):
    path = write_json(tmp_path / "c.json", campaign_config())
    rc = main(["campaign", "--config", path, "--out", str(tmp_path / "r.json"), "--jobs", jobs])
    assert rc == 2
    assert "jobs" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_campaign_nan_tol_exit_2(tmp_path, capsys):
    cfg = campaign_config()
    cfg["tol"] = float("nan")
    path = write_json(tmp_path / "c.json", cfg)
    rc = main(["campaign", "--config", path, "--out", str(tmp_path / "r.json")])
    assert rc == 2
    assert "tol" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("error", [RuntimeError, ZeroDivisionError, KeyError])
def test_unexpected_error_exit_2_not_1(error, monkeypatch, capsys):
    def broken(theorem_id):
        raise error("boom")

    monkeypatch.setattr(cli, "resolve_theorem", broken)
    rc = main(["verify", "--theorem", "lc-quad", "--instance", "x.json", "--function", "exp"])
    assert rc == 2
    assert error.__name__ in capsys.readouterr().err
