"""Golden bytes of found hunts, and the order in which a hunt's outcomes
are read.

The CLI stdout of two hunts that find a counterexample is pinned by
SHA-256.  How a hunt schedules its sampling, chain builds and eigensolves
may change; what it prints may not.  A hunt returns its first failing
attempt, or raises the first error, whichever comes first in attempt order,
and draws exactly ``budget`` attempts when nothing fails.
"""

import hashlib

import pytest

import loewner_lab.chains as chains
from loewner_lab.chains import hunt_counterexample
from loewner_lab.cli import main
from loewner_lab.errors import HypothesisViolation
from loewner_lab.functions import exp_function, parse_function_spec

FOUND_HUNTS = [
    (["--theorem", "lc-quad", "--relax", "cond-i-f", "--function", "pow:p=-1", "--seed", "7"],
     "0d899664aba513222e600e501c22fc134104c833c8b9f349b7d163a54b025b0f"),
    (["--theorem", "lc-map", "--relax", "equal-sum", "--map", "mixed", "--function", "exp",
      "--seed", "13"],
     "64060e248a6792cf149ffe27b30ccaeb54f36365b862111d5764e4e9b2d9e59d"),
]


@pytest.mark.parametrize("flags, sha", FOUND_HUNTS)
def test_found_hunt_stdout_is_byte_identical(flags, sha, capsys):
    assert main(["hunt", *flags]) == 1
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha


# The lc-map equal-sum hunt at seed 13 first fails at attempt 5.
FIRST_FAIL = 5


def _map_hunt(budget: int):
    return hunt_counterexample("lc-map", "equal-sum", budget, 13, exp_function(),
                               map_spec="mixed")


def _raise_at(monkeypatch, target: str, attempt: int) -> None:
    """Make the call of ``chains.<target>``'s steps for one attempt raise.
    Both targets are called once per attempt, in attempt order: this hunt's
    attempts take the same rounds to reach each of them."""
    stage = getattr(chains, target)
    original = stage.steps
    calls = []

    def raising(*args, **kwargs):
        calls.append(None)
        if len(calls) == attempt + 1:
            raise HypothesisViolation("injected", f"attempt {attempt}")
        return original(*args, **kwargs)

    monkeypatch.setattr(stage, "steps", raising)


def test_first_failure_is_found_at_its_attempt():
    result = _map_hunt(2000)
    assert (result.attempt_index, result.attempts) == (FIRST_FAIL, FIRST_FAIL + 1)
    assert not result.report.passed


@pytest.mark.parametrize("target", ["sample_instance_for", "build_chain"])
def test_error_before_the_first_failure_is_raised(target, monkeypatch):
    _raise_at(monkeypatch, target, FIRST_FAIL - 2)
    with pytest.raises(HypothesisViolation, match=f"injected: attempt {FIRST_FAIL - 2}"):
        _map_hunt(2000)


@pytest.mark.parametrize("target", ["sample_instance_for", "build_chain"])
def test_error_after_the_first_failure_is_not_reached(target, monkeypatch):
    expected = _map_hunt(2000)
    _raise_at(monkeypatch, target, FIRST_FAIL + 2)
    result = _map_hunt(2000)
    assert result.attempt_index == FIRST_FAIL
    assert result.report.to_dict() == expected.report.to_dict()
    assert result.instance.digest() == expected.instance.digest()


def test_budget_cuts_the_last_attempts(monkeypatch):
    assert _map_hunt(FIRST_FAIL) is None
    assert _map_hunt(FIRST_FAIL + 1).attempt_index == FIRST_FAIL

    original = chains.sample_instance_for.steps
    drawn = []

    def counting(*args, **kwargs):
        drawn.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(chains.sample_instance_for, "steps", counting)
    assert hunt_counterexample("lc-quad", None, 37, 8, exp_function()) is None
    assert len(drawn) == 37


def test_a_hunt_that_fails_at_once_builds_one_window(monkeypatch):
    # Attempts run in windows of WINDOW, so a first attempt that fails is
    # reported once its window, min(budget, WINDOW) attempts, is built.
    original = chains.build_chain.steps
    built = []

    def counting(*args, **kwargs):
        built.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(chains.build_chain, "steps", counting)
    for budget in (3, 2000):
        built.clear()
        result = hunt_counterexample("lc-quad", "cond-i-f", budget, 7,
                                     parse_function_spec("pow:p=-1"))
        assert (result.attempt_index, result.attempts) == (0, 1)
        assert len(built) == min(budget, chains.WINDOW)
