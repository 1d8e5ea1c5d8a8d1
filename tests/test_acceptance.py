"""Acceptance suite.

Each test prints one `[PASS]`/`[FAIL]` line for its criterion (run with
``pytest tests/test_acceptance.py -v -s`` to see them) and asserts the
criterion at its stated tolerance.  Criteria 2, 3, and 4 share their
sampled instances with criterion 6 through module-scoped fixtures so the
refinement implication really runs on every instance.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

import scalar_oracle as oracle
from loewner_lab.campaign import CampaignConfig, run_campaign
from loewner_lab.chains import (
    THEOREMS,
    baseline_chain,
    build_chain,
    evaluate_chain,
    hunt_counterexample,
    sample_instance_for,
)
from loewner_lab.functions import (
    check_logconvex_chain,
    check_superquadratic_characterization,
    exp_function,
    parse_function_spec,
    power_function,
)
from loewner_lab.hermitian import (HermitianMatrix, drive, eigendecompose, eigendecompose_many,
                                   gather, loewner_leq)
from loewner_lab.instances import (
    QuadrupleInstance,
    SumRelation,
    sample_quadruple,
    validate_instance,
)
from loewner_lab.maps import sample_map, verify_unital
from loewner_lab.seeding import spawn_rng
from loewner_lab.serialize import dumps_canonical

TOL_CHAIN = 1e-8
MAP_KINDS = ("identity", "pinching", "compression", "mixed")
# Instances checked side by side in one window, so that every round's
# requests make same-dimension stacks of several matrices each.
WINDOW = 64


def announce(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


@dataclass
class Run:
    theorem: str
    inst: object
    f: object
    maps: object
    chain: object
    report: object


def _draw_mm(rng, lo, hi):
    width = hi - lo
    m = lo + 0.4 * width * float(rng.random())
    floor = m + 0.3 * width
    return m, floor + (hi - floor) * float(rng.random())


def _run_block(theorems, fn_cycle, dims, count, seed_base, family_size=3):
    """Shared workload for criteria 2-4; returns runs and per-theorem time.

    A theorem's instances run side by side in windows of ``WINDOW``, so
    their spectra are decomposed in stacks; each draws from its own stream,
    so the runs are those of one instance at a time."""
    runs = []
    timing = {}
    for t_idx, tid in enumerate(theorems):
        spec = THEOREMS[tid]

        def run_steps(i):
            f, (lo, hi) = fn_cycle[i % len(fn_cycle)]
            rng = spawn_rng(seed_base + t_idx, i)
            dim = dims[i % len(dims)]
            m, big_m = _draw_mm(rng, lo, hi)
            inst = yield from sample_instance_for.steps(spec, f, dim, m, big_m, rng,
                                                        family_size=family_size)
            maps = ((yield from sample_map.steps(MAP_KINDS[i % 4], dim, rng))
                    if spec.map_mode == "single" else None)
            chain = yield from build_chain.steps(tid, inst, f, maps, tol=TOL_CHAIN)
            report = yield from evaluate_chain.steps(chain, TOL_CHAIN)
            return Run(tid, inst, f, maps, chain, report)

        start = time.perf_counter()
        for first in range(0, count, WINDOW):
            steps = [run_steps(i) for i in range(first, min(first + WINDOW, count))]
            runs.extend(drive(gather(steps)))
        timing[tid] = time.perf_counter() - start
        # Every 50th instance again through the one-instance calls.
        for run in runs[-count::50]:
            alone = evaluate_chain(build_chain(tid, run.inst, run.f, run.maps, tol=TOL_CHAIN),
                                   TOL_CHAIN)
            assert alone.to_dict() == run.report.to_dict()
    return runs, timing


@pytest.fixture(scope="module")
def lc_block():
    fn_cycle = [
        (exp_function(), (0.0, 2.0)),
        (power_function(-1), (0.5, 2.5)),
    ]
    return _run_block(("LC-QUAD", "LC-MAP", "LC-MAP-V2", "LC-MAP-V3"),
                      fn_cycle, (1, 2, 3, 4, 5, 6), 1000, seed_base=200)


@pytest.fixture(scope="module")
def family_block():
    fn_cycle = [
        (exp_function(), (0.5, 2.5)),
        (power_function(-1), (0.5, 2.5)),
    ]
    return _run_block(("LC-MULTI", "LC-MERCER"), fn_cycle, (1, 2, 3, 4), 500,
                      seed_base=300, family_size=3)


@pytest.fixture(scope="module")
def sq_block():
    fn_cycle = [
        (power_function(2), (0.5, 2.5)),
        (power_function(3), (0.5, 2.5)),
        (power_function(2.5), (0.5, 2.5)),
    ]
    theorems = ("SQ-MAP", "SQ-MAP-V2", "SQ-MAP-V3", "SQ-MULTI-A",
                "SQ-MULTI-B", "SQ-MERCER", "SQ-QUAD", "SQ-MID")
    return _run_block(theorems, fn_cycle, (1, 2, 3, 4), 1000, seed_base=400)


# -- criterion 1: scalar three-term chain on dense grids ----------------------


def test_criterion_1_scalar_chain_suite():
    start = time.perf_counter()
    cases = [
        ("exp", np.exp, np.linspace(-1.0, 1.5, 50)),
        ("exp:a=2", lambda t: np.exp(2.0 * t), np.linspace(-1.0, 1.5, 50)),
        ("pow:p=-1", lambda t: t ** -1.0, np.linspace(0.5, 3.0, 50)),
        ("pow:p=-2", lambda t: t ** -2.0, np.linspace(0.5, 3.0, 50)),
    ]
    alphas = np.round(np.linspace(0.0, 1.0, 101), 2)
    r_of_alpha = np.minimum(alphas, 1.0 - alphas)
    worst = math.inf
    checked = 0
    for spec_id, fv, grid in cases:
        f = parse_function_spec(spec_id)
        for x in grid:
            fx = float(fv(x))
            fy = fv(grid)
            fmid = fv((x + grid) / 2.0)
            kf = fmid * fmid / (fx * fy)
            points = np.outer(alphas, x) + np.outer(1.0 - alphas, grid)
            left = fv(points)
            middle = np.exp(
                np.outer(r_of_alpha, np.log(kf))
                + np.outer(alphas, np.full_like(grid, math.log(fx)))
                + np.outer(1.0 - alphas, np.log(fy))
            )
            right = np.outer(alphas, np.full_like(grid, fx)) + np.outer(1.0 - alphas, fy)
            scale1 = np.maximum(1.0, np.maximum(np.abs(left), np.abs(middle)))
            scale2 = np.maximum(1.0, np.maximum(np.abs(middle), np.abs(right)))
            worst = min(
                worst,
                float(np.min((middle - left) / scale1)),
                float(np.min((right - middle) / scale2)),
            )
            checked += left.size
        # route a slice of the same grid through the library checker
        for x in grid[::7]:
            for y in grid[::7]:
                for alpha in alphas[::5]:
                    res = check_logconvex_chain(f, float(x), float(y), float(alpha),
                                                tol=1e-12)
                    assert res.all_ok, (spec_id, x, y, alpha, res.link_slack)
                    checked += 1
        # reversed regime on domain-admissible points
        for x in grid[::7]:
            for y in grid[::7]:
                for alpha in (-1.0, -0.5, 1.5, 2.0):
                    point = alpha * float(x) + (1.0 - alpha) * float(y)
                    if not f.domain.contains(point):
                        continue
                    res = check_logconvex_chain(f, float(x), float(y), alpha, tol=1e-12)
                    assert not res.forward
                    assert res.all_ok, (spec_id, x, y, alpha, res.link_slack)
                    checked += 1
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-12 and elapsed < 10.0
    announce(1, ok, f"{checked} grid checks, worst relative slack {worst:.3e}, "
                    f"runtime {elapsed:.1f}s (< 10s)")
    assert worst >= -1e-12
    assert elapsed < 10.0


# -- criterion 2: log-convex chains at scale ----------------------------------


def test_criterion_2_lc_chains(lc_block):
    runs, timing = lc_block
    failures = [r for r in runs if not r.report.passed]
    worst = min(r.report.min_link_eigenvalue for r in runs)
    slow = {t: dt for t, dt in timing.items() if dt >= 60.0}
    ok = not failures and not slow
    announce(2, ok, f"4 theorems x 1000 instances (dims 1-6), worst link "
                    f"eigenvalue {worst:.3e}, per-theorem runtime "
                    + ", ".join(f"{t}={dt:.1f}s" for t, dt in timing.items()))
    assert not failures, failures[:3]
    assert not slow, f"over 60s budget: {slow}"


# -- criterion 3: family chains ------------------------------------------------


def test_criterion_3_family_chains(family_block):
    runs, timing = family_block
    failures = [r for r in runs if not r.report.passed]
    endpoint_bad = []
    for r in runs:
        if r.theorem != "LC-MERCER":
            continue
        final = r.chain.terms[-1]
        expect = (r.f(r.inst.m) + r.f(r.inst.M)) * HermitianMatrix.identity(final.dim)
        gap = float(np.linalg.norm(final.entries - expect.entries))
        if gap > 1e-10 * max(1.0, expect.fro_norm):
            endpoint_bad.append((r.inst.digest(), gap))
    ok = not failures and not endpoint_bad
    announce(3, ok, f"LC-MULTI and LC-MERCER, 500 instances each with n=3 "
                    f"families; {len(endpoint_bad)} endpoint mismatches")
    assert not failures, failures[:3]
    assert not endpoint_bad, endpoint_bad[:3]


# -- criterion 4: superquadratic chains -----------------------------------------


def test_criterion_4_sq_chains(sq_block):
    runs, timing = sq_block
    failures = [r for r in runs if not r.report.passed]
    worst = min(r.report.min_link_eigenvalue for r in runs)
    ok = not failures
    announce(4, ok, f"8 theorems x 1000 instances, f in {{t^2, t^3, t^2.5}}, "
                    f"worst link eigenvalue {worst:.3e}")
    assert not failures, [(r.theorem, r.f.id, r.report.min_link_eigenvalue)
                          for r in failures[:3]]


# -- criterion 5: equality regressions ------------------------------------------


def test_criterion_5_equality_regressions():
    # (a) the geometric step is exact for exp, so links 1 and 4 are equalities
    bad_equalities = []
    for i in range(100):
        rng = spawn_rng(500, i)
        dim = 1 + i % 6
        m, big_m = _draw_mm(rng, 0.0, 2.0)
        inst = sample_instance_for(THEOREMS["LC-QUAD"], exp_function(), dim, m, big_m, rng)
        rep = evaluate_chain(build_chain("LC-QUAD", inst, exp_function()), TOL_CHAIN)
        if not (rep.links[0].equality and rep.links[3].equality):
            bad_equalities.append(inst.digest())

    # (b) the refined Jensen slack vanishes identically for t^2
    sq = power_function(2)
    worst_char = 0.0
    grid = np.linspace(0.0, 4.0, 20)
    for x in grid:
        for y in grid:
            for alpha in np.linspace(0.0, 1.0, 11):
                res = check_superquadratic_characterization(
                    sq, float(x), float(y), float(alpha), tol=1e-12
                )
                worst_char = max(worst_char, abs(res.slack))

    # (c) the worked 1x1 chain against the plain-float reference
    one = lambda v: HermitianMatrix([[float(v)]])
    inst = QuadrupleInstance(A=one(0), B=one(2), C=one(2), D=one(5),
                             m=1.0, M=3.0, relation=SumRelation.SUM_LEQ)
    chain = build_chain("LC-QUAD", inst, exp_function())
    got = [float(t.entries[0, 0].real) for t in chain.terms]
    want = oracle.lc_quad_terms(oracle.EXP, 0.0, 2.0, 2.0, 5.0, 1.0, 3.0)
    e = math.e
    closed_form = [2 * e**2, 2 * e**2, e + e**3, 1 + e**5, 1 + e**5]
    worked_err = max(
        abs(g - w) / max(1.0, abs(w)) for g, w in zip(got, want)
    )
    closed_err = max(
        abs(g - w) / max(1.0, abs(w)) for g, w in zip(got, closed_form)
    )

    ok = not bad_equalities and worst_char <= 1e-12 and worked_err <= 1e-12 \
        and closed_err <= 1e-12
    announce(5, ok, f"equalities on 100 exp instances, |char slack| max "
                    f"{worst_char:.2e}, worked-instance error {worked_err:.2e}")
    assert not bad_equalities, bad_equalities[:3]
    assert worst_char <= 1e-12
    assert worked_err <= 1e-12
    assert closed_err <= 1e-12


# -- criterion 6: refinement implication ----------------------------------------


def _refinement_steps(run):
    """Steps to the refinement problems of one stashed run: the baseline is
    built and evaluated, then every sandwich difference is requested in one
    round, so a window of runs decomposes them as stacks."""
    base = yield from baseline_chain.steps(run.theorem, run.inst, run.f, run.maps, tol=TOL_CHAIN)
    base_passed = (yield from evaluate_chain.steps(base, TOL_CHAIN)).passed
    lo, hi = base.terms[0], base.terms[-1]
    if len(run.chain.terms) > 2:
        checks = [check for middle in run.chain.terms[1:-1]
                  for check in ((lo, middle, "middle below baseline LHS"),
                                (middle, hi, "middle above baseline RHS"))]
    else:
        checks = [(lo, run.chain.terms[0], "refined LHS below baseline LHS"),
                  (run.chain.terms[-1], hi, "refined RHS above baseline RHS")]
    diffs = [upper - lower for lower, upper, _ in checks]
    yield diffs
    problems = [] if base_passed else [(run.theorem, "baseline fails", base.instance_digest)]
    problems += [(run.theorem, message, base.instance_digest)
                 for (lower, upper, message), diff in zip(checks, diffs)
                 if not loewner_leq(lower, upper, TOL_CHAIN, diff=diff).is_leq]
    return problems


def test_criterion_6_refinement_implication(lc_block, family_block, sq_block):
    runs = [run for block, _ in (lc_block, family_block, sq_block) for run in block]
    problems = []
    for start in range(0, len(runs), WINDOW):
        window = drive(gather([_refinement_steps(run) for run in runs[start:start + WINDOW]]))
        problems.extend(found for run_problems in window for found in run_problems)
    ok = not problems
    announce(6, ok, f"baseline and sandwich checks on {len(runs)} stashed instances "
                    f"({len(problems)} problems)")
    assert not problems, problems[:5]


# -- criterion 7: counterexample necessity ---------------------------------------


def test_criterion_7_hunt_necessity():
    start = time.perf_counter()
    found = hunt_counterexample("LC-QUAD", "cond-i-f", 10_000, 7,
                                power_function(-1), dims=(1, 2, 3), m=1.0, M=2.0)
    clean = hunt_counterexample("LC-QUAD", None, 10_000, 7,
                                power_function(-1), dims=(1, 2, 3), m=1.0, M=2.0)
    elapsed = time.perf_counter() - start
    ok = found is not None and clean is None
    detail = "no counterexample found"
    if found is not None:
        detail = (f"counterexample at attempt {found.attempt_index} "
                  f"(dim {found.instance.dim}), clean sweep "
                  f"{'clean' if clean is None else 'BROKEN'}, {elapsed:.0f}s")
    announce(7, ok, detail)
    assert found is not None
    assert not found.report.passed
    assert found.instance.dim in (1, 2, 3)
    assert clean is None


# -- criterion 8: infrastructure ---------------------------------------------------


def test_criterion_8_infrastructure():
    # eigensolver reconstruction on 1000 random matrices, dims up to 16,
    # decomposed as stacks
    rng = np.random.default_rng(800)
    matrices = []
    for i in range(1000):
        dim = 1 + i % 16
        matrices.append(HermitianMatrix(rng.normal(size=(dim, dim))
                                        + 1j * rng.normal(size=(dim, dim))))
    eigendecompose_many(matrices)
    worst_resid = 0.0
    for a in matrices:
        dec = eigendecompose(a)
        resid = float(np.linalg.norm(dec.reconstruct() - a.entries))
        worst_resid = max(worst_resid, resid / max(1e-300, a.fro_norm))
    eig_ok = worst_resid <= 1e-10

    # every sampled map kind passes verification
    maps_ok = True
    for kind in MAP_KINDS:
        for dim in (1, 2, 3, 4, 5, 6):
            for seed in (0, 1):
                if not verify_unital(sample_map(kind, dim, seed + 13 * dim), 100, seed).passed:
                    maps_ok = False

    # 10000 sampled instances all validate at 1e-10, sampled and validated
    # side by side in windows, so their spectra are decomposed in stacks
    def sampled_violations(i):
        dim = 1 + i % 8
        relation = list(SumRelation)[i % 3]
        nonneg = (i // 3) % 2 == 0
        inst = yield from sample_quadruple.steps(dim, 1.0, 1.9, relation, nonneg_A=nonneg, seed=i)
        return (yield from validate_instance.steps(inst, 1e-10))

    bad_instances = 0
    for start in range(0, 10_000, WINDOW):
        steps = [sampled_violations(i) for i in range(start, min(start + WINDOW, 10_000))]
        bad_instances += sum(1 for violations in drive(gather(steps)) if violations)
    inst_ok = bad_instances == 0

    # campaign determinism across repeated runs and parallelism 1 vs 8
    cfg = CampaignConfig.from_dict({
        "theorem_ids": ["lc-quad", "lc-map", "sq-map"],
        "function_specs": ["exp", "pow:p=2"],
        "map_specs": ["pinching", "mixed"],
        "dims": [1, 2, 3],
        "mm_ranges": [[0.5, 2.0]],
        "instances_per_cell": 5,
        "tol": 1e-9,
        "seed": 99,
    })
    blobs = {dumps_canonical(run_campaign(cfg, jobs=j).to_dict()) for j in (1, 1, 8)}
    campaign_ok = len(blobs) == 1

    ok = eig_ok and maps_ok and inst_ok and campaign_ok
    announce(8, ok, f"eig residual {worst_resid:.2e} (<=1e-10), maps "
                    f"{'ok' if maps_ok else 'FAIL'}, {bad_instances} invalid "
                    f"instances of 10000, campaign determinism "
                    f"{'ok' if campaign_ok else 'FAIL'}")
    assert eig_ok
    assert maps_ok
    assert inst_ok
    assert campaign_ok
