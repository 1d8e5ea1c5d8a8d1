"""Inequality engine: builders, evaluation, baselines, counterexample hunts.

The 1x1 consistency tests compare every chain term against the plain-float
reference in scalar_oracle, which shares no code with the package.
"""

import dataclasses
import math
import zlib

import numpy as np
import pytest

import scalar_oracle as oracle
import loewner_lab.chains as chains
import loewner_lab.hermitian as herm
import loewner_lab.instances as instances
from loewner_lab.errors import (
    ConfigError,
    DimensionMismatch,
    HypothesisViolation,
    LoewnerLabError,
    ShapeMismatch,
    UnknownRelaxation,
    UnknownTheorem,
)
from loewner_lab.chains import (
    RELAXATIONS,
    THEOREMS,
    baseline_chain,
    build_chain,
    evaluate_chain,
    geometric_interpolant,
    hunt_counterexample,
    resolve_theorem,
    sample_instance_for,
)
from loewner_lab.functions import (
    FunctionDescriptor,
    Interval,
    exp_function,
    parse_function_spec,
    power_function,
    tilde_t,
)
from loewner_lab.hermitian import (
    HermitianMatrix,
    apply_scalar_function,
    drive,
    gather,
    loewner_leq,
)
from loewner_lab.instances import (
    MercerInstance,
    MidpointInstance,
    QuadrupleInstance,
    SumRelation,
    sample_mercer_family,
    sample_midpoint,
    sample_quadruple,
    sample_quadruple_family,
)
from loewner_lab.maps import IdentityMap, sample_map
from loewner_lab.seeding import spawn_rng


def one(v):
    return HermitianMatrix([[float(v)]])


def scalar(mat):
    return float(mat.entries[0, 0].real)


WORKED = QuadrupleInstance(A=one(0), B=one(2), C=one(2), D=one(5),
                           m=1.0, M=3.0, relation=SumRelation.SUM_LEQ)
WORKED_NONNEG = QuadrupleInstance(A=one(0), B=one(2), C=one(2), D=one(5),
                                  m=1.0, M=3.0, relation=SumRelation.SUM_LEQ,
                                  nonneg_A=True)


# -- worked examples ----------------------------------------------------------


def test_lc_quad_worked_chain_values():
    chain = build_chain("lc-quad", WORKED, exp_function())
    values = [scalar(t) for t in chain.terms]
    e = math.e
    expected = [2 * e**2, 2 * e**2, e + e**3, 1 + e**5, 1 + e**5]
    for got, want in zip(values, expected):
        assert got == pytest.approx(want, rel=1e-12)
    report = evaluate_chain(chain, 1e-9)
    assert report.passed
    assert [lk.equality for lk in report.links] == [True, False, False, True]
    assert report.links[1].min_eigenvalue == pytest.approx(e + e**3 - 2 * e**2, rel=1e-10)
    assert report.links[2].min_eigenvalue == pytest.approx(1 + e**5 - e - e**3, rel=1e-10)


def test_sq_quad_worked_chain_values():
    chain = build_chain("sq-quad", WORKED_NONNEG, power_function(2))
    assert scalar(chain.terms[0]) == pytest.approx(10.0, abs=1e-12)
    assert scalar(chain.terms[1]) == pytest.approx(14.0, abs=1e-11)
    assert evaluate_chain(chain, 1e-9).passed


def test_two_term_chain_equal_terms_pass_with_equality():
    a = HermitianMatrix([[1.0, 0.5], [0.5, 2.0]])
    from loewner_lab.chains import ExpressionChain

    chain = ExpressionChain(theorem="LC-QUAD", terms=(a, a), labels=("x", "x"))
    rep = evaluate_chain(chain, 1e-9)
    assert rep.passed and rep.links[0].equality


def test_reversed_chain_fails():
    chain = build_chain("lc-quad", WORKED, exp_function())
    from loewner_lab.chains import ExpressionChain

    flipped = ExpressionChain(
        theorem="LC-QUAD", terms=tuple(reversed(chain.terms)),
        labels=tuple(reversed(chain.labels)),
    )
    rep = evaluate_chain(flipped, 1e-9)
    assert not rep.passed
    assert rep.links[1].min_eigenvalue < 0


# -- scalar-oracle consistency on 1x1 instances -------------------------------


def fn_pairs_for(spec):
    if spec.power_predicate is not None:
        if "p <= 0" in spec.power_description:
            return [(power_function(-1), oracle.RECIP)]
        return [(power_function(2), oracle.SQUARE), (power_function(3), oracle.CUBE)]
    if spec.required_class == "superquadratic":
        return [(power_function(2), oracle.SQUARE), (power_function(3), oracle.CUBE)]
    if spec.required_class == "log-convex":
        return [(exp_function(), oracle.EXP), (power_function(-1), oracle.RECIP)]
    return [(exp_function(), oracle.EXP), (power_function(2), oracle.SQUARE)]


def oracle_terms(tid, inst, sf):
    m, M = inst.m, inst.M
    if isinstance(inst, QuadrupleInstance):
        a, b, c, d = (scalar(inst.A), scalar(inst.B), scalar(inst.C), scalar(inst.D))
        return {
            "LC-QUAD": lambda: oracle.lc_quad_terms(sf, a, b, c, d, m, M),
            "LC-POW": lambda: oracle.lc_quad_terms(sf, a, b, c, d, m, M),
            "LC-MAP": lambda: oracle.lc_quad_terms(sf, a, b, c, d, m, M),
            "LC-MAP-V2": lambda: oracle.lc_quad_terms(sf, a, b, c, d, m, M),
            "LC-MAP-V3": lambda: oracle.lc_quad_terms(sf, a, b, c, d, m, M),
            "MOS-BASE": lambda: oracle.mos_base_terms(sf, a, b, c, d),
            "SQ-MAP": lambda: oracle.sq_map_terms(sf, a, b, c, d, m, M),
            "SQ-POW": lambda: oracle.sq_map_terms(sf, a, b, c, d, m, M),
            "SQ-MAP-V2": lambda: oracle.sq_map_terms(sf, a, b, c, d, m, M),
            "SQ-MAP-V3": lambda: oracle.sq_map_terms(sf, a, b, c, d, m, M),
            "SQ-QUAD": lambda: oracle.sq_quad_terms(sf, a, b, c, d, m, M),
        }[tid]()
    if isinstance(inst, MidpointInstance):
        a, d = scalar(inst.A), scalar(inst.D)
        if tid == "LC-MID":
            return oracle.lc_mid_terms(sf, a, d, m, M)
        return oracle.sq_mid_terms(sf, a, d, m, M)
    if isinstance(inst, MercerInstance):
        bs = [scalar(b) for b in inst.B_list]
        ws = [mp.weight for mp in inst.family.maps]
        return {
            "JM-BASE": lambda: oracle.jm_base_terms(sf, bs, ws, m, M),
            "LC-MERCER": lambda: oracle.lc_mercer_terms(sf, bs, ws, m, M),
            "SQ-MERCER": lambda: oracle.sq_mercer_terms(sf, bs, ws, m, M),
        }[tid]()
    quads = [(scalar(q.A), scalar(q.B), scalar(q.C), scalar(q.D)) for q in inst.quadruples]
    ws = [mp.weight for mp in inst.family.maps]
    return {
        "LC-MULTI": lambda: oracle.lc_multi_terms(sf, quads, ws, m, M),
        "SQ-MULTI-A": lambda: oracle.sq_multi_a_terms(sf, quads, ws, m, M),
        "SQ-MULTI-B": lambda: oracle.sq_multi_b_terms(sf, quads, ws, m, M),
    }[tid]()


@pytest.mark.parametrize("tid", sorted(THEOREMS))
def test_scalar_consistency_on_1x1(tid):
    spec = THEOREMS[tid]
    for idx, (f, sf) in enumerate(fn_pairs_for(spec)):
        for k in range(6):
            rng = spawn_rng(640 + idx, k)
            inst = sample_instance_for(spec, f, 1, 1.0, 2.0, rng)
            maps = (
                sample_map(("identity", "pinching", "compression", "mixed")[k % 4], 1, rng)
                if spec.map_mode == "single" else None
            )
            chain = build_chain(tid, inst, f, maps)
            got = [scalar(t) for t in chain.terms]
            want = oracle_terms(tid, inst, sf)
            assert len(got) == len(want)
            for g_val, w_val in zip(got, want):
                assert g_val == pytest.approx(w_val, rel=1e-12, abs=1e-12), (tid, f.id, k)


# -- structural expectations ---------------------------------------------------


def test_chain_lengths_match_registry_shapes():
    expected = {
        "JM-BASE": 2, "MOS-BASE": 2,
        "LC-QUAD": 5, "LC-POW": 5, "LC-MID": 5,
        "LC-MAP": 5, "LC-MAP-V2": 5, "LC-MAP-V3": 5, "LC-MULTI": 5,
        "LC-MERCER": 3,
        "SQ-MAP": 2, "SQ-POW": 2, "SQ-MAP-V2": 2, "SQ-MAP-V3": 2,
        "SQ-MULTI-A": 2, "SQ-MULTI-B": 2, "SQ-MERCER": 2, "SQ-QUAD": 2, "SQ-MID": 2,
    }
    assert set(expected) == set(THEOREMS)
    for tid, spec in THEOREMS.items():
        f = fn_pairs_for(spec)[0][0]
        rng = spawn_rng(99, zlib.crc32(tid.encode()) % 1000)
        inst = sample_instance_for(spec, f, 2, 1.0, 2.0, rng)
        maps = sample_map("mixed", 2, rng) if spec.map_mode == "single" else None
        chain = build_chain(tid, inst, f, maps)
        assert len(chain.terms) == expected[tid], tid


def test_lc_mercer_final_term_is_endpoint_sum():
    f = exp_function()
    inst = sample_mercer_family(3, 2, 0.5, 2.0, seed=3)
    chain = build_chain("lc-mercer", inst, f)
    endpoint = (f(inst.m) + f(inst.M)) * HermitianMatrix.identity(chain.terms[-1].dim)
    gap = np.linalg.norm(chain.terms[-1].entries - endpoint.entries)
    assert gap <= 1e-10 * max(1.0, endpoint.fro_norm)
    # the tent weight vanishes at both endpoints, which is what collapses it
    assert tilde_t(inst.m, inst.m, inst.M) == pytest.approx(0.0)
    assert tilde_t(inst.M, inst.m, inst.M) == pytest.approx(0.0)


def test_equality_links_for_exp():
    for seed in range(5):
        inst = sample_quadruple(3, 0.5, 2.0, SumRelation.SUM_LEQ, seed=seed)
        rep = evaluate_chain(build_chain("lc-quad", inst, exp_function()), 1e-9)
        assert rep.passed
        assert rep.links[0].equality and rep.links[3].equality


def test_commutation_shortcut_matches_factor_product():
    # the compiled interpolant term equals the product of its three
    # functional-calculus factors, which commute as functions of one matrix
    f = power_function(-1)
    inst = sample_quadruple(4, 1.0, 2.0, SumRelation.EQUAL, seed=9)
    m, M = inst.m, inst.M
    g = geometric_interpolant(f, m, M)
    compiled = apply_scalar_function(inst.B, g)

    from loewner_lab.functions import kf_constant

    kf = kf_constant(f, m, M)
    factors = [
        FunctionDescriptor(id="k^w", domain=Interval.real_line(), classes=frozenset(),
                           eval_fn=lambda t: kf ** tilde_t(t, m, M)),
        FunctionDescriptor(id="fm^w", domain=Interval.real_line(), classes=frozenset(),
                           eval_fn=lambda t: f(m) ** ((M - t) / (M - m))),
        FunctionDescriptor(id="fM^w", domain=Interval.real_line(), classes=frozenset(),
                           eval_fn=lambda t: f(M) ** ((t - m) / (M - m))),
    ]
    mats = [apply_scalar_function(inst.B, fd).entries for fd in factors]
    product = HermitianMatrix(mats[0] @ mats[1] @ mats[2])
    err = np.linalg.norm(compiled.entries - product.entries)
    assert err <= 1e-10 * max(1.0, compiled.fro_norm)


def test_condition_monotone_in_d():
    # under condition (i), growing D keeps the chain passing
    rng = np.random.default_rng(33)
    inst = sample_quadruple(3, 1.0, 2.0, SumRelation.SUM_LEQ, seed=4)
    f = exp_function()
    assert evaluate_chain(build_chain("lc-quad", inst, f), 1e-9).passed
    for _ in range(5):
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        bigger = QuadrupleInstance(
            A=inst.A, B=inst.B, C=inst.C,
            D=inst.D + HermitianMatrix(g @ g.conj().T),
            m=inst.m, M=inst.M, relation=inst.relation,
        )
        assert evaluate_chain(build_chain("lc-quad", bigger, f), 1e-9).passed


def test_refinement_sandwich_on_random_instances():
    # first term matches the baseline left side, last the baseline right
    # side, and every middle term sits between them
    for tid in ("LC-QUAD", "LC-MAP", "LC-MAP-V2", "LC-MAP-V3", "LC-MULTI"):
        spec = THEOREMS[tid]
        f = exp_function()
        rng = spawn_rng(55, zlib.crc32(tid.encode()) % 997)
        inst = sample_instance_for(spec, f, 3, 0.5, 2.0, rng)
        maps = sample_map("mixed", 3, rng) if spec.map_mode == "single" else None
        chain = build_chain(tid, inst, f, maps)
        base = baseline_chain(tid, inst, f, maps)
        assert np.allclose(chain.terms[0].entries, base.terms[0].entries)
        assert np.allclose(chain.terms[-1].entries, base.terms[-1].entries)
        assert evaluate_chain(base, 1e-9).passed
        for middle in chain.terms[1:-1]:
            assert loewner_leq(base.terms[0], middle, 1e-9).is_leq
            assert loewner_leq(middle, base.terms[-1], 1e-9).is_leq


def test_sq_refinement_tightens_baseline():
    f = power_function(2)
    for tid in ("SQ-MAP", "SQ-MAP-V2", "SQ-MAP-V3", "SQ-QUAD", "SQ-MID"):
        spec = THEOREMS[tid]
        rng = spawn_rng(56, zlib.crc32(tid.encode()) % 997)
        inst = sample_instance_for(spec, f, 2, 1.0, 2.0, rng)
        maps = sample_map("compression:k=2", 2, rng) if spec.map_mode == "single" else None
        chain = build_chain(tid, inst, f, maps)
        base = baseline_chain(tid, inst, f, maps)
        assert evaluate_chain(chain, 1e-9).passed
        assert evaluate_chain(base, 1e-9).passed
        # refined left side dominates the baseline left side; refined right
        # side is dominated by the baseline right side
        assert loewner_leq(base.terms[0], chain.terms[0], 1e-9).is_leq
        assert loewner_leq(chain.terms[-1], base.terms[-1], 1e-9).is_leq


# -- hypothesis validation ------------------------------------------------------


def test_unknown_theorem():
    with pytest.raises(UnknownTheorem):
        build_chain("lc-nope", WORKED, exp_function())


def test_theorem_lookup_case_insensitive():
    assert resolve_theorem("Lc-Quad").id == "LC-QUAD"


def test_function_class_mismatch():
    with pytest.raises(HypothesisViolation) as err:
        build_chain("sq-map", WORKED_NONNEG, exp_function(), IdentityMap(1))
    assert "function class mismatch" in str(err.value)


def test_power_requirement():
    with pytest.raises(HypothesisViolation):
        build_chain("lc-pow", WORKED, exp_function())
    with pytest.raises(HypothesisViolation):
        inst = sample_quadruple(1, 1.0, 2.0, SumRelation.EQUAL, nonneg_A=True, seed=0)
        build_chain("sq-pow", inst, power_function(1.5), IdentityMap(1))


def test_shape_mismatch_instance_kind():
    with pytest.raises(ShapeMismatch):
        build_chain("lc-mid", WORKED, exp_function())


def test_a_structural_error_comes_before_validation():
    # Each instance fails validation too: B+C and A+D differ in dim, or B
    # lies below m.  The map check reads no spectrum and comes first.
    quad = sample_quadruple(2, 1.0, 2.0, SumRelation.EQUAL, seed=1)
    wide_a = dataclasses.replace(quad, A=HermitianMatrix(np.eye(3)))
    with pytest.raises(ShapeMismatch, match="map expects dim 2, instance has dim 3"):
        build_chain("lc-map", wide_a, exp_function(), IdentityMap(2))
    out_of_bounds = dataclasses.replace(quad, m=1.9)
    with pytest.raises(ShapeMismatch, match="map expects dim 3, instance has dim 2"):
        baseline_chain("lc-map-v2", out_of_bounds, exp_function(), IdentityMap(3))


@pytest.mark.parametrize("tid, f_spec", [("LC-QUAD", "exp"), ("LC-MAP", "exp"),
                                         ("SQ-MAP", "pow:p=2")])
def test_a_quadruple_of_mixed_dims_keeps_the_validation_error(tid, f_spec):
    # Building D - MI would fail first, on "3 vs 2"; validation's own sum
    # A + D fails, as it always did, on "2 vs 3".
    quad = sample_quadruple(2, 1.0, 2.0, SumRelation.EQUAL, True, seed=1)
    mixed = dataclasses.replace(quad, D=HermitianMatrix(4.0 * np.eye(3)))
    with pytest.raises(DimensionMismatch, match="dimensions differ: 2 vs 3"):
        build_chain(tid, mixed, parse_function_spec(f_spec), IdentityMap(2))


_ONE_OF_EACH_KIND = (WORKED, sample_midpoint(1, 1.0, 2.0), sample_mercer_family(2, 1, 1.0, 2.0),
                     sample_quadruple_family(2, 1, 1.0, 2.0))


@pytest.mark.parametrize("tid", sorted(THEOREMS))
def test_a_wrong_instance_kind_is_a_shape_mismatch(tid):
    # The kind is checked before the operands are built from the fields
    # the theorem's kind has, so no KeyError or AttributeError escapes.
    spec = THEOREMS[tid]
    kind = spec.instance_kind.__name__
    for inst in _ONE_OF_EACH_KIND:
        if isinstance(inst, spec.instance_kind):
            continue
        for build in (build_chain, baseline_chain):
            with pytest.raises(ShapeMismatch, match=f"{tid} expects a {kind}"):
                build(tid, inst, exp_function(), IdentityMap(1))


def test_map_required():
    inst = sample_quadruple(2, 1.0, 2.0, SumRelation.EQUAL, seed=1)
    with pytest.raises(ShapeMismatch):
        build_chain("lc-map", inst, exp_function())


def test_equal_sum_hypothesis_enforced():
    inst = sample_quadruple(2, 1.0, 2.0, SumRelation.SUM_LEQ, seed=2)
    with pytest.raises(HypothesisViolation) as err:
        build_chain("lc-map", inst, exp_function(), IdentityMap(2))
    assert "A+D = B+C" in str(err.value)


def test_equal_sum_hypothesis_reads_the_validation_verdict():
    # D off by 0.9 of the effective tolerance on each eigenvalue: validation
    # judges the sums equal, and so does the build, though the difference's
    # Frobenius norm exceeds that tolerance.
    inst = sample_quadruple(4, 1.0, 2.0, SumRelation.EQUAL, seed=3)
    lhs, rhs, _ = inst._sum_sides
    eff = herm.DEFAULT_PSD_TOL * max(1.0, lhs.fro_norm + rhs.fro_norm)
    inst = dataclasses.replace(inst, D=inst.D + 0.9 * eff * herm.HermitianMatrix.identity(4))
    assert instances.validate_instance(inst) == []
    assert (inst.D - inst.B - inst.C + inst.A).fro_norm > eff
    build_chain("LC-MAP", inst, exp_function(), IdentityMap(4))


@pytest.mark.parametrize("tol", [0.0, True, math.inf, "1e-9"])
@pytest.mark.parametrize("call", [
    lambda tol: build_chain("lc-quad", WORKED, exp_function(), tol=tol),
    lambda tol: hunt_counterexample("lc-quad", None, 1, 0, exp_function(), tol=tol),
], ids=["build_chain", "hunt"])
def test_tolerance_must_be_a_finite_number_above_zero(call, tol):
    with pytest.raises(ConfigError, match="tol: must be a finite number > 0"):
        call(tol)


def test_condition_hypothesis_enforced():
    # decreasing f with a sum-leq instance satisfies neither condition
    inst = sample_quadruple(1, 1.0, 2.0, SumRelation.SUM_LEQ, nonneg_A=True, seed=3)
    with pytest.raises(HypothesisViolation) as err:
        build_chain("lc-quad", inst, power_function(-1))
    assert "condition" in str(err.value)


def test_invalid_spectra_rejected():
    bad = QuadrupleInstance(A=one(2.5), B=one(1.5), C=one(1.5), D=one(3),
                            m=1.0, M=2.0, relation=SumRelation.SUM_LEQ)
    with pytest.raises(HypothesisViolation):
        build_chain("lc-quad", bad, exp_function())


# -- counterexample hunting -----------------------------------------------------


def test_hunt_finds_reciprocal_counterexample():
    res = hunt_counterexample("lc-quad", "cond-i-f", 2000, 7, power_function(-1))
    assert res is not None
    assert not res.report.passed
    # the failing instance satisfies the sum clause of condition (i) but
    # inverts the endpoint comparison, which is what was relaxed
    inst = res.instance
    assert loewner_leq(inst.B + inst.C, inst.A + inst.D, 1e-9).is_leq
    assert 1.0 / inst.m > 1.0 / inst.M


def test_hunt_clean_hypotheses_find_nothing():
    assert hunt_counterexample("lc-quad", None, 400, 7, power_function(-1)) is None
    assert hunt_counterexample("lc-quad", None, 400, 8, exp_function()) is None


def test_hunt_zero_budget():
    assert hunt_counterexample("lc-quad", "cond-i-f", 0, 7, power_function(-1)) is None


def test_hunt_equal_sum_relaxation_on_map_theorem():
    res = hunt_counterexample("lc-map", "equal-sum", 2000, 13, exp_function(),
                              map_spec="mixed")
    assert res is not None and not res.report.passed


def test_hunt_unknown_relaxation():
    with pytest.raises(UnknownRelaxation):
        hunt_counterexample("lc-quad", "drop-everything", 10, 0, exp_function())
    with pytest.raises(UnknownRelaxation):
        hunt_counterexample("lc-quad", "equal-sum", 10, 0, exp_function())
    with pytest.raises(UnknownRelaxation):
        hunt_counterexample("lc-map", "cond-i-f", 10, 0, exp_function())
    with pytest.raises(UnknownRelaxation):
        hunt_counterexample("lc-mid", "cond-i-f", 10, 0, exp_function())


@pytest.mark.parametrize("dims", [(), (0,), (17,), (1, True)])
def test_hunt_rejects_bad_dims_before_sampling(dims, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled before rejecting the dims")

    monkeypatch.setattr(chains, "draw_steps", refuse)
    with pytest.raises(ConfigError) as err:
        hunt_counterexample("lc-quad", None, 5, 0, exp_function(), dims=dims)
    assert "dims" in str(err.value)


@pytest.mark.parametrize("budget", [2.5, True, "3"])
def test_hunt_rejects_non_integer_budget_before_sampling(budget, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled before rejecting the budget")

    monkeypatch.setattr(chains, "draw_steps", refuse)
    with pytest.raises(ConfigError) as err:
        hunt_counterexample("lc-quad", None, budget, 0, exp_function())
    assert "budget" in str(err.value)


@pytest.mark.parametrize("tid", ["lc-quad", "lc-multi"])
def test_hunt_parses_the_map_spec_of_every_theorem(tid, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled before rejecting the map spec")

    with monkeypatch.context() as patched:
        patched.setattr(chains, "draw_steps", refuse)
        with pytest.raises(LoewnerLabError) as err:
            hunt_counterexample(tid, None, 2, 0, exp_function(), map_spec="bogus")
        assert "bogus" in str(err.value)
        if tid == "lc-multi":  # a family theorem needs a family spec, as in a campaign
            with pytest.raises(ConfigError, match="needs a map family"):
                hunt_counterexample(tid, None, 2, 0, exp_function(), map_spec="identity")
    specs = [None, "family:n=3"] if tid == "lc-multi" else [None, "identity", "family:n=3"]
    for spec in specs:
        assert hunt_counterexample(tid, None, 1, 0, exp_function(), map_spec=spec) is None


@pytest.mark.parametrize("tid, sampler", [("lc-multi", "sample_quadruple_family"),
                                          ("lc-mercer", "sample_mercer_family")])
@pytest.mark.parametrize("map_spec, size", [("family:n=2", 2), (None, 3)])
def test_hunt_draws_families_of_the_map_spec_size(tid, sampler, map_spec, size, monkeypatch):
    stage = getattr(chains, sampler)
    original, sizes = stage.steps, []

    def recording(n, *args, **kwargs):
        sizes.append(n)
        return original(n, *args, **kwargs)

    monkeypatch.setattr(stage, "steps", recording)
    assert hunt_counterexample(tid, None, 4, 0, exp_function(), map_spec=map_spec) is None
    assert sizes == [size] * 4


@pytest.mark.parametrize("tid, f_spec", [("LC-QUAD", "exp"), ("SQ-QUAD", "pow:p=2"),
                                         ("LC-MID", "exp"), ("SQ-MID", "pow:p=2")])
def test_build_decomposes_no_operand_twice(tid, f_spec, monkeypatch):
    # Validation and the condition (i)/(ii) check compare the same B+C and
    # A+D, so their difference must be decomposed once, not once for each;
    # and the chain's W is the midpoint (A+D)/2 that validation decomposed.
    spec, f = THEOREMS[tid], parse_function_spec(f_spec)
    inst = sample_instance_for(spec, f, 4, 0.5, 2.0, spawn_rng(61, 2))
    operands = []
    kernel = herm._jacobi_many

    def counting(stack, want_vectors):
        operands.extend(matrix.tobytes() for matrix in stack)
        return kernel(stack, want_vectors)

    monkeypatch.setattr(herm, "_jacobi_many", counting)
    build_chain(tid, inst, f)
    assert operands and len(operands) == len(set(operands))


def _rounds(steps):
    """The result of ``steps`` and how many rounds they requested in."""
    rounds = 0
    while True:
        try:
            herm.eigendecompose_many(next(steps))
        except StopIteration as stop:
            return stop.value, rounds
        rounds += 1


@pytest.mark.parametrize("tid, f_spec, map_spec", [
    ("LC-MAP-V2", "exp", "mixed"), ("LC-MAP", "exp", "mixed:count=3"),
    ("MOS-BASE", "exp", "compression"), ("LC-MAP", "pow:p=-1", "mixed"),
    ("SQ-MAP", "pow:p=2", "mixed")])
def test_a_draw_keeps_the_stream_order_of_the_instance_then_its_map(tid, f_spec, map_spec):
    # Instance and map draw side by side in one round, or in turn after a
    # non-negative quadruple, and either way give the bytes of drawing the
    # instance first and then the map from the same stream.
    spec, f = THEOREMS[tid], parse_function_spec(f_spec)
    nonneg = chains.needs_nonneg_instances(spec, f)
    for key in range(4):
        drawn, rounds = _rounds(chains.draw_steps(spec, f, map_spec, 3, 0.5, 2.0,
                                                  spawn_rng(74, key)))
        rng = spawn_rng(74, key)
        inst = sample_instance_for(spec, f, 3, 0.5, 2.0, rng)
        phi = sample_map(map_spec, 3, rng)
        assert drawn.instance.to_dict() == inst.to_dict()
        assert drawn.maps.apply(inst.B).entries.tobytes() == phi.apply(inst.B).entries.tobytes()
        assert nonneg or rounds == 1


def test_hunt_deterministic():
    a = hunt_counterexample("lc-quad", "cond-i-f", 500, 21, power_function(-1))
    b = hunt_counterexample("lc-quad", "cond-i-f", 500, 21, power_function(-1))
    assert a is not None and b is not None
    assert a.attempt_index == b.attempt_index
    assert a.instance.digest() == b.instance.digest()


# -- the term table -------------------------------------------------------------


def _fitting_function(spec):
    if spec.power_predicate is not None and "p <= 0" in spec.power_description:
        return power_function(-1)
    if spec.required_class == "superquadratic" or spec.power_predicate is not None:
        return power_function(2)
    return exp_function()


@pytest.mark.parametrize("relaxed", RELAXATIONS)
@pytest.mark.parametrize("tid", sorted(THEOREMS))
def test_build_and_hunt_share_the_relaxation_rule(tid, relaxed):
    spec = THEOREMS[tid]
    f = _fitting_function(spec)
    inst = sample_instance_for(spec, f, 1, 1.0, 2.0, spawn_rng(5, 0))
    maps = IdentityMap(1) if spec.map_mode == "single" else None

    def accepts(call):
        try:
            call()
        except UnknownRelaxation:
            return False
        except HypothesisViolation:  # a later check on the instance, not the rule
            pass
        return True

    built = accepts(lambda: build_chain(tid, inst, f, maps, relaxed=relaxed))
    hunted = accepts(lambda: hunt_counterexample(tid, relaxed, 0, 0, f))
    assert built == hunted == (relaxed in spec.relaxations)


_COND = ("cond-i-f", "cond-i-sum", "cond-ii-f", "cond-ii-sum")
# id -> (map_mode, condition, needs_nonneg, relaxations)
REGISTRY_HYPOTHESES = {
    "JM-BASE": ("family", "none", False, ()),
    "MOS-BASE": ("single", "equal-sum", False, ("equal-sum",)),
    "LC-QUAD": ("none", "either-condition", False, _COND),
    "LC-POW": ("none", "either-condition", False, _COND),
    "LC-MID": ("none", "none", False, ()),
    "LC-MAP": ("single", "equal-sum", False, ("equal-sum",)),
    "LC-MAP-V2": ("single", "equal-sum", False, ("equal-sum",)),
    "LC-MAP-V3": ("single", "equal-sum", False, ("equal-sum",)),
    "LC-MULTI": ("family", "none", False, ()),
    "LC-MERCER": ("family", "none", False, ()),
    "SQ-MAP": ("single", "equal-sum", True, ("equal-sum",)),
    "SQ-POW": ("single", "equal-sum", True, ("equal-sum",)),
    "SQ-MAP-V2": ("single", "equal-sum", True, ("equal-sum",)),
    "SQ-MAP-V3": ("single", "equal-sum", True, ("equal-sum",)),
    "SQ-MULTI-A": ("family", "none", True, ()),
    "SQ-MULTI-B": ("family", "none", True, ()),
    "SQ-MERCER": ("family", "none", True, ()),
    "SQ-QUAD": ("none", "either-condition", True, _COND),
    "SQ-MID": ("none", "none", True, ()),
}


def test_registry_hypotheses_are_pinned():
    got = {tid: (s.map_mode, s.condition, s.needs_nonneg, s.relaxations)
           for tid, s in THEOREMS.items()}
    assert got == REGISTRY_HYPOTHESES


def test_base_labels_name_exactly_the_stripped_terms():
    for tid, spec in THEOREMS.items():
        ends = (spec.terms[0], spec.terms[-1])
        for term, base in zip(ends, spec.baseline_terms):
            assert (base.atoms != term.atoms) == (term.base is not None), (tid, term.label)
            assert base.label == (term.base or term.label)


def test_sq_mercer_baseline_is_jm_base():
    f = power_function(2)
    inst = sample_mercer_family(3, 3, 0.5, 2.0, seed=8)
    sq = baseline_chain("sq-mercer", inst, f)
    jm = build_chain("jm-base", inst, f)
    assert sq.labels == jm.labels
    for a, b in zip(sq.terms, jm.terms):
        assert np.array_equal(a.entries, b.entries)


# -- windows: stages as decomposition steps, run in rounds --------------------

# (theorem, function, dim, map, stream key).  Under the budgets the window
# test sets, the first SQ-MAP quadruple is rejected three times before it is
# drawn, the second exhausts its retries, and the dim-3 LC-QUAD instance does
# not converge: two Jacobi sweeps finish a 2x2 matrix but not a 3x3 one.
MIXED_WINDOW = [
    ("SQ-MAP", "pow:p=2", 2, "mixed", 7),
    ("LC-QUAD", "exp", 2, None, 1),
    ("SQ-MAP", "pow:p=2", 2, "mixed", 92),
    ("LC-MULTI", "exp", 2, None, 2),
    ("LC-QUAD", "exp", 3, None, 3),
    ("LC-MAP-V2", "exp", 2, "mixed", 4),
    ("SQ-MULTI-A", "pow:p=2", 2, None, 5),
    ("LC-MERCER", "exp", 2, None, 6),
    ("LC-MID", "exp", 1, None, 8),
    ("SQ-QUAD", "pow:p=2", 2, None, 9),
]


def _window_draw(tid, f_spec, dim, map_spec, key):
    spec, f = THEOREMS[tid], parse_function_spec(f_spec)

    def draw():
        rng = spawn_rng(71, key)
        inst = yield from sample_instance_for.steps(spec, f, dim, 0.5, 2.0, rng)
        maps = (yield from sample_map.steps(map_spec, dim, rng)) if map_spec else None
        return chains.Drawn(spec, f, inst, maps)

    return draw


def _one_at_a_time(tid, f_spec, dim, map_spec, key):
    spec, f = THEOREMS[tid], parse_function_spec(f_spec)
    rng = spawn_rng(71, key)
    try:
        inst = sample_instance_for(spec, f, dim, 0.5, 2.0, rng)
        maps = sample_map(map_spec, dim, rng) if map_spec else None
        return evaluate_chain(build_chain(tid, inst, f, maps, tol=1e-9), 1e-9, seed=71)
    except LoewnerLabError as exc:
        return exc


def _summary(outcome):
    if isinstance(outcome, LoewnerLabError):
        return type(outcome).__name__, str(outcome)
    return outcome.to_dict(), outcome.instance.to_dict()


def test_a_mixed_window_gives_the_outcomes_of_one_instance_at_a_time(monkeypatch):
    monkeypatch.setattr(instances, "MAX_RETRIES", 3)
    with pytest.raises(instances.ExhaustedRetries):  # the first quadruple takes four attempts
        sample_instance_for(THEOREMS["SQ-MAP"], power_function(2), 2, 0.5, 2.0, spawn_rng(71, 7))
    monkeypatch.setattr(instances, "MAX_RETRIES", 4)
    monkeypatch.setattr(herm, "JACOBI_SWEEP_BUDGET", 2)
    expected = [_summary(_one_at_a_time(*case)) for case in MIXED_WINDOW]
    window = chains.window_outcomes([_window_draw(*case) for case in MIXED_WINDOW], 1e-9,
                                    seed=71)
    assert [_summary(outcome) for outcome in window] == expected
    errors = [kind for kind, _ in expected if isinstance(kind, str)]
    assert errors == ["ExhaustedRetries", "NonConvergence"]


def test_one_shot_stages_give_the_bytes_drawn_side_by_side():
    # Eight quadruples over the three relations, half with A >= 0, eight
    # mixed maps, and the LC-MAP-V2 chains of the equal-sum quadruples.
    relations = list(SumRelation)

    def quadruple(k, sampler):
        return sampler(4, 0.5, 2.0, relations[k % 3], k % 2 == 0, spawn_rng(72, k))

    keys = range(8)
    alone = [quadruple(k, sample_quadruple) for k in keys]
    side_by_side = drive(gather([quadruple(k, sample_quadruple.steps) for k in keys]))
    assert [q.to_dict() for q in side_by_side] == [q.to_dict() for q in alone]

    maps = [sample_map("mixed:count=3", 4, spawn_rng(73, k)) for k in keys]
    drawn = drive(gather([sample_map.steps("mixed:count=3", 4, spawn_rng(73, k)) for k in keys]))
    for phi, ref in zip(drawn, maps):
        assert phi.weights.tobytes() == ref.weights.tobytes()
        assert [u.tobytes() for u in phi.unitaries] == [u.tobytes() for u in ref.unitaries]

    f = exp_function()
    equal = [(q, phi) for q, phi in zip(alone, maps) if q.relation is SumRelation.EQUAL]
    built = drive(gather([build_chain.steps("LC-MAP-V2", q, f, phi) for q, phi in equal]))
    for chain, (q, phi) in zip(built, equal):
        ref = build_chain("LC-MAP-V2", q, f, phi)
        assert [t.entries.tobytes() for t in chain.terms] == [t.entries.tobytes()
                                                               for t in ref.terms]
