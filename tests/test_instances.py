"""Instance forge: constrained tuple construction and validation."""

import numpy as np
import pytest

import loewner_lab.instances as forge
from loewner_lab.errors import (DegenerateInterval, DimensionMismatch, ExhaustedRetries,
                                ShapeMismatch)
from loewner_lab.hermitian import HermitianMatrix, positive_part, spectral_bounds
from loewner_lab.instances import (
    MidpointInstance,
    QuadrupleInstance,
    SumRelation,
    instance_from_dict,
    sample_mercer_family,
    sample_midpoint,
    sample_quadruple,
    sample_quadruple_family,
    sample_sandwiched_matrix,
    validate_instance,
)


def test_sandwich_degenerate_interval_is_constant():
    out = sample_sandwiched_matrix(1, 2.0, 2.0, 0)
    assert out.entries[0, 0] == pytest.approx(2.0)
    z = sample_sandwiched_matrix(2, 0.0, 0.0, 1)
    assert np.allclose(z.entries, 0.0)


def test_sandwich_respects_bounds():
    for seed in range(10):
        a = sample_sandwiched_matrix(4, 1.0, 3.0, seed)
        lo, hi = spectral_bounds(a)
        assert lo >= 1.0 - 1e-12 and hi <= 3.0 + 1e-12


def test_equal_sum_scalar_construction_hits_boundary():
    # With B = C = [2], m = 1, M = 3 and no extra shift the construction
    # lands exactly on A = [1], D = [3].
    eye = HermitianMatrix.identity(1)
    b = c = 2.0 * eye
    s = b + c
    p0 = positive_part(4.0 * eye - s)
    assert np.allclose(p0.entries, 0.0)
    a = 1.0 * eye - p0
    d = s - a
    inst = QuadrupleInstance(A=a, B=b, C=c, D=d, m=1.0, M=3.0, relation=SumRelation.EQUAL)
    assert validate_instance(inst) == []
    assert a.entries[0, 0] == pytest.approx(1.0)
    assert d.entries[0, 0] == pytest.approx(3.0)


@pytest.mark.parametrize("relation", list(SumRelation))
@pytest.mark.parametrize("nonneg", [False, True])
def test_sampled_quadruples_validate(relation, nonneg):
    for seed in range(6):
        dim = 1 + seed % 4
        inst = sample_quadruple(dim, 1.0, 3.0, relation, nonneg_A=nonneg, seed=seed)
        assert validate_instance(inst, 1e-10) == []
        if nonneg:
            assert spectral_bounds(inst.A)[0] >= -1e-12


def test_equal_sum_is_exact():
    for seed in range(10):
        inst = sample_quadruple(3, 0.5, 2.0, SumRelation.EQUAL, seed=seed)
        gap = np.linalg.norm(
            (inst.A + inst.D).entries - (inst.B + inst.C).entries
        )
        scale = (inst.A + inst.D).fro_norm
        assert gap <= 1e-12 * max(1.0, scale)


def test_quadruple_determinism():
    a = sample_quadruple(3, 1.0, 2.0, SumRelation.EQUAL, seed=42).to_dict()
    b = sample_quadruple(3, 1.0, 2.0, SumRelation.EQUAL, seed=42).to_dict()
    assert a == b


def test_quadruple_rejects_degenerate_interval():
    with pytest.raises(DegenerateInterval):
        sample_quadruple(2, 2.0, 2.0, SumRelation.EQUAL, seed=0)
    with pytest.raises(DegenerateInterval):
        sample_quadruple(2, 0.0, 1.0, SumRelation.EQUAL, nonneg_A=True, seed=0)


def test_exhausted_retries_when_nonneg_has_no_room(monkeypatch):
    # m tiny relative to the interval width: the positive-part shift below m
    # almost surely exceeds m, so the nonneg cap cannot be satisfied
    monkeypatch.setattr(forge, "MAX_RETRIES", 5)
    with pytest.raises(ExhaustedRetries):
        sample_quadruple(6, 0.05, 1.0, SumRelation.EQUAL, nonneg_A=True, seed=12)


def test_validate_flags_bad_quadruple():
    one = lambda v: HermitianMatrix([[float(v)]])
    inst = QuadrupleInstance(A=one(2), B=one(1.5), C=one(1.5), D=one(3),
                             m=1.0, M=3.0, relation=SumRelation.SUM_LEQ)
    violations = validate_instance(inst)
    assert any("lambda_max(A) > m" in v for v in violations)


def test_validate_flags_wrong_relation():
    one = lambda v: HermitianMatrix([[float(v)]])
    inst = QuadrupleInstance(A=one(0.5), B=one(1.5), C=one(1.5), D=one(3),
                             m=1.0, M=2.0, relation=SumRelation.EQUAL)
    violations = validate_instance(inst)
    assert any("A+D = B+C violated" in v for v in violations)


def test_midpoint_scalar_example():
    one = lambda v: HermitianMatrix([[float(v)]])
    inst = MidpointInstance(A=one(0), D=one(4), m=1.0, M=3.0)
    assert validate_instance(inst) == []


def test_sampled_midpoints_validate():
    for seed in range(8):
        inst = sample_midpoint(2 + seed % 3, 1.0, 3.0, nonneg_A=(seed % 2 == 0), seed=seed)
        assert validate_instance(inst) == []


def test_mercer_endpoint_reflection():
    one = HermitianMatrix([[1.0]])
    inst = forge.MercerInstance(
        B_list=(1.0 * one,), m=1.0, M=3.0,
        family=forge.sample_map_family(1, 1, 0),
        family_spec="family:n=1", family_seed=0,
    )
    assert inst.reflected(0).entries[0, 0] == pytest.approx(3.0)


def test_mercer_center_is_reflection_fixed_point():
    mid = HermitianMatrix.diagonal([2.0, 2.0])
    inst = forge.MercerInstance(
        B_list=(mid,), m=1.0, M=3.0,
        family=forge.sample_map_family(1, 2, 0),
        family_spec="family:n=1", family_seed=0,
    )
    assert np.allclose(inst.reflected(0).entries, mid.entries)


def test_sampled_mercer_validates():
    for seed in range(6):
        inst = sample_mercer_family(3, 2, 1.0, 3.0, seed=seed)
        assert validate_instance(inst) == []


def test_sampled_multi_validates():
    for seed in range(4):
        inst = sample_quadruple_family(3, 2, 1.0, 3.0, nonneg_A=True, seed=seed)
        assert validate_instance(inst) == []


def test_instance_file_roundtrips():
    quad = sample_quadruple(2, 1.0, 2.0, SumRelation.EQUAL, seed=5)
    back = instance_from_dict(quad.to_dict())
    assert back.to_dict() == quad.to_dict()
    assert back.digest() == quad.digest()

    mercer = sample_mercer_family(3, 2, 1.0, 2.0, seed=6)
    back = instance_from_dict(mercer.to_dict())
    assert back.to_dict() == mercer.to_dict()
    # family realization reproduces from (spec, seed)
    probe = HermitianMatrix([[1.0, 0.25], [0.25, 1.5]])
    assert np.allclose(back.family.apply_sum(probe).entries,
                       mercer.family.apply_sum(probe).entries)

    mid = sample_midpoint(2, 1.0, 2.0, seed=7)
    assert instance_from_dict(mid.to_dict()).to_dict() == mid.to_dict()

    multi = sample_quadruple_family(2, 2, 1.0, 2.0, seed=8)
    assert instance_from_dict(multi.to_dict()).to_dict() == multi.to_dict()


@pytest.mark.parametrize("patch, error", [
    ({"A": {"dim": 2.7, "re": [[0.0, 0.0], [0.0, 0.0]]}}, DimensionMismatch),
    ({"A": {"dim": True, "re": [[0.0]]}}, DimensionMismatch),
    ({"A": {"dim": "x", "re": [[0.0]]}}, DimensionMismatch),
    ({"A": {"dim": 1, "re": [["x"]]}}, DimensionMismatch),
    ({"m": "x"}, ShapeMismatch),
    ({"m": None}, ShapeMismatch),
    ({"M": False}, ShapeMismatch),
    ({"D": None}, ShapeMismatch),
    ({"nonneg_A": "false"}, ShapeMismatch),
    ({"nonneg_A": 0}, ShapeMismatch),
    ({"relation": "sum-less"}, ShapeMismatch),
    ({"relation": ["equal-sum"]}, ShapeMismatch),
])
def test_malformed_instance_file_raises_typed_error(patch, error):
    obj = {key: value for key, value in
           dict(sample_quadruple(1, 1.0, 2.0, seed=3).to_dict(), **patch).items()
           if value is not None}
    with pytest.raises(error):
        instance_from_dict(obj)


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [False]])
@pytest.mark.parametrize("sampled", [
    sample_quadruple(2, 1.0, 2.0, nonneg_A=True, seed=3),
    sample_midpoint(2, 1.0, 2.0, nonneg_A=True, seed=4),
], ids=["quadruple", "midpoint"])
def test_nonneg_A_must_be_a_json_bool(sampled, value):
    # "false" was read with bool() as True, and the instance validated
    # against A >= 0.
    obj = sampled.to_dict()
    for flag in (True, False):
        assert instance_from_dict(dict(obj, nonneg_A=flag)).nonneg_A is flag
    assert instance_from_dict({k: v for k, v in obj.items() if k != "nonneg_A"}).nonneg_A is False
    with pytest.raises(ShapeMismatch, match="nonneg_A"):
        instance_from_dict(dict(obj, nonneg_A=value))


@pytest.mark.parametrize("value", [2.7, True, "x", -1, None, "3"])
@pytest.mark.parametrize("sampled", [
    sample_mercer_family(2, 2, 1.0, 2.0, seed=5),
    sample_quadruple_family(2, 2, 1.0, 2.0, seed=6),
], ids=["mercer", "multi"])
def test_family_seed_must_be_an_integer_at_least_0(sampled, value):
    # 2.7 was truncated to 2 and true read as 1; "x" and -1 raised an
    # unexpected ValueError.
    obj = sampled.to_dict()
    assert instance_from_dict(obj).to_dict() == obj
    with pytest.raises(ShapeMismatch, match="family_seed"):
        instance_from_dict(dict(obj, family_seed=value))


@pytest.mark.parametrize("obj", [[], 5, "B", {"quadruples": 5, "m": 1.0, "M": 2.0},
                                 {"quadruples": ["x"], "m": 1.0, "M": 2.0},
                                 {"B_list": {"dim": 1}, "m": 1.0, "M": 2.0}])
def test_malformed_instance_layout_raises_shape_mismatch(obj):
    with pytest.raises(ShapeMismatch):
        instance_from_dict(obj)


def test_bulk_sampling_all_validate():
    checked = 0
    for seed in range(120):
        dim = 1 + seed % 6
        relation = list(SumRelation)[seed % 3]
        nonneg = seed % 2 == 0
        inst = sample_quadruple(dim, 1.0, 2.5, relation, nonneg_A=nonneg, seed=seed)
        assert validate_instance(inst, 1e-10) == [], (seed, dim, relation)
        checked += 1
    assert checked == 120
