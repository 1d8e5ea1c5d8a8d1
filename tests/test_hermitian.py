"""Core matrix layer: eigensolver, functional calculus, Loewner order."""

import math

import numpy as np
import pytest

from loewner_lab.errors import (
    DimensionMismatch,
    DomainViolation,
    NonConvergence,
    NotHermitian,
)
from loewner_lab.functions import (
    FunctionDescriptor,
    Interval,
    exp_function,
    power_function,
)
from loewner_lab.hermitian import (
    HermitianMatrix,
    Relation,
    apply_scalar_function,
    eigendecompose,
    eigenvalues_of,
    loewner_leq,
    positive_part,
    spectral_bounds,
)


def random_hermitian(dim, rng, scale=1.0):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianMatrix(scale * g)


def poly_descriptor(coeffs):
    def ev(t, c=tuple(coeffs)):
        acc = 0.0
        for a in reversed(c):
            acc = acc * t + a
        return acc

    return FunctionDescriptor(
        id=f"poly{tuple(coeffs)}", domain=Interval.real_line(),
        classes=frozenset(), eval_fn=ev,
    )


# -- eigendecompose ----------------------------------------------------------


def test_eigendecompose_identity():
    dec = eigendecompose(HermitianMatrix.identity(2))
    assert np.allclose(dec.eigenvalues, [1.0, 1.0])
    assert np.allclose(dec.vectors.conj().T @ dec.vectors, np.eye(2), atol=1e-14)


def test_eigendecompose_pauli_x():
    dec = eigendecompose(HermitianMatrix([[0, 1], [1, 0]]))
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_eigendecompose_random_reconstruction():
    rng = np.random.default_rng(7)
    for dim in range(1, 17):
        a = random_hermitian(dim, rng)
        dec = eigendecompose(a)
        residual = np.linalg.norm(dec.reconstruct() - a.entries)
        assert residual <= 1e-10 * max(1.0, a.fro_norm)
        assert np.all(np.diff(dec.eigenvalues) >= 0)
        orth = np.linalg.norm(dec.vectors.conj().T @ dec.vectors - np.eye(dim))
        assert orth <= 1e-10


def test_eigendecompose_nonconvergence_when_budget_exhausted(monkeypatch):
    import loewner_lab.hermitian as herm
    from loewner_lab.errors import NonConvergence

    monkeypatch.setattr(herm, "JACOBI_SWEEP_BUDGET", 0)
    with pytest.raises(NonConvergence):
        eigendecompose(HermitianMatrix([[0, 1], [1, 0]]))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("entry", [1e160, math.nan])
def test_spectrum_of_a_matrix_whose_norm_is_not_finite_raises(entry):
    # At 1e160 ||A||_F overflows, and an infinite threshold would pass the
    # unrotated diagonal, [0, 0], off as the spectrum.
    with pytest.raises(NonConvergence):
        eigenvalues_of(HermitianMatrix([[0.0, entry], [entry, 0.0]]))


def test_eigendecompose_matches_lapack():
    rng = np.random.default_rng(11)
    for dim in (2, 5, 9, 16):
        a = random_hermitian(dim, rng)
        mine = eigendecompose(a).eigenvalues
        ref = np.linalg.eigvalsh(a.entries)
        assert np.allclose(mine, ref, atol=1e-11 * max(1.0, a.fro_norm))


# -- apply_scalar_function ---------------------------------------------------


def test_apply_square_to_pauli_x():
    out = apply_scalar_function(HermitianMatrix([[0, 1], [1, 0]]), poly_descriptor([0, 0, 1]))
    assert np.allclose(out.entries, np.eye(2), atol=1e-13)


def test_apply_sqrt_to_diagonal():
    half = FunctionDescriptor(
        id="sqrt", domain=Interval.positive_reals(include_zero=True),
        classes=frozenset(), eval_fn=math.sqrt,
    )
    out = apply_scalar_function(HermitianMatrix.diagonal([1.0, 4.0]), half)
    assert np.allclose(out.entries, np.diag([1.0, 2.0]), atol=1e-13)


def test_apply_exp_closed_form():
    out = apply_scalar_function(HermitianMatrix([[0, 1], [1, 0]]), exp_function())
    expect = np.array(
        [[math.cosh(1.0), math.sinh(1.0)], [math.sinh(1.0), math.cosh(1.0)]]
    )
    assert np.allclose(out.entries, expect, atol=1e-12)


def test_apply_rejects_out_of_domain_eigenvalue():
    with pytest.raises(DomainViolation):
        apply_scalar_function(HermitianMatrix.diagonal([-1.0, 2.0]), power_function(-1))


def test_apply_clamps_boundary_eigenvalue():
    # lambda = -1e-14 is within the clamp window of the closed boundary 0
    a = HermitianMatrix.diagonal([-1e-14, 1.0])
    out = apply_scalar_function(a, power_function(2))
    assert spectral_bounds(out)[0] >= 0.0


def test_functional_calculus_composition():
    rng = np.random.default_rng(3)
    outer = poly_descriptor([1.0, -2.0, 0.5])
    inner = poly_descriptor([0.0, 1.0, 1.0])
    composed = FunctionDescriptor(
        id="outer.inner", domain=Interval.real_line(), classes=frozenset(),
        eval_fn=lambda t: outer(inner(t)),
    )
    for dim in (2, 4, 7):
        a = random_hermitian(dim, rng)
        direct = apply_scalar_function(a, composed)
        staged = apply_scalar_function(apply_scalar_function(a, inner), outer)
        err = np.linalg.norm(direct.entries - staged.entries)
        assert err <= 1e-9 * max(1.0, direct.fro_norm)


def test_identity_and_constant_functions():
    rng = np.random.default_rng(4)
    ident = poly_descriptor([0.0, 1.0])
    const = poly_descriptor([2.5])
    a = random_hermitian(5, rng)
    assert np.linalg.norm(apply_scalar_function(a, ident).entries - a.entries) <= 1e-10 * max(
        1.0, a.fro_norm
    )
    out = apply_scalar_function(a, const)
    assert np.linalg.norm(out.entries - 2.5 * np.eye(5)) <= 1e-10


def test_scalar_order_preservation_transfers_to_operators():
    # f >= g pointwise when f - g is a squared polynomial; then f(A) >= g(A).
    rng = np.random.default_rng(5)
    for trial in range(8):
        dim = int(rng.integers(2, 7))
        a = random_hermitian(dim, rng)
        base = [float(rng.normal()) for _ in range(3)]
        square_root = [float(rng.normal()) for _ in range(2)]
        g = poly_descriptor(base)
        p, q = square_root
        square = [p * p, 2 * p * q, q * q]
        f = poly_descriptor([b + s for b, s in zip(base + [0.0], square + [0.0])][:3])
        lo = apply_scalar_function(a, g)
        hi = apply_scalar_function(a, f)
        assert loewner_leq(lo, hi, 1e-10).is_leq


# -- positive_part -----------------------------------------------------------


def test_positive_part_diagonal():
    out = positive_part(HermitianMatrix.diagonal([2.0, -3.0]))
    assert np.allclose(out.entries, np.diag([2.0, 0.0]), atol=1e-13)


def test_positive_part_fixed_point_on_psd():
    rng = np.random.default_rng(6)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    psd = HermitianMatrix(g @ g.conj().T)
    out = positive_part(psd)
    assert np.linalg.norm(out.entries - psd.entries) <= 1e-10 * max(1.0, psd.fro_norm)


def test_positive_part_projects_pauli_x():
    out = positive_part(HermitianMatrix([[0, 1], [1, 0]]))
    assert np.allclose(out.entries, [[0.5, 0.5], [0.5, 0.5]], atol=1e-13)


_CLAMP_AT_ZERO = FunctionDescriptor(id="clamp", domain=Interval.real_line(),
                                    classes=frozenset(), eval_fn=lambda t: t if t > 0 else 0)


def _positive_part_cases(dim, rng):
    """Random, negative definite and rank-deficient matrices, and diagonals
    holding exact 0.0, -0.0 and negative eigenvalues.  Symmetrization turns
    -0.0 into 0.0, so -0.0 comes from a positive scaling that underflows."""
    diag = np.resize([0.0, -1.5, 2.0, 0.0], dim)
    underflow = HermitianMatrix(np.diag(np.resize([-1e-300, 1.0, -1e-300], dim))) * 1e-300
    ones = np.ones((dim, dim))
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return [random_hermitian(dim, rng), HermitianMatrix(-(g @ g.conj().T)),
            HermitianMatrix(ones), HermitianMatrix(-ones), HermitianMatrix(np.diag(diag)),
            HermitianMatrix(np.zeros((dim, dim))), underflow]


@pytest.mark.parametrize("dim", range(1, 7))
def test_positive_part_has_the_bytes_of_the_functional_calculus(dim):
    rng = np.random.default_rng(dim)
    for x in _positive_part_cases(dim, rng):
        expected = apply_scalar_function(x, _CLAMP_AT_ZERO).entries
        assert positive_part(x).entries.tobytes() == expected.tobytes()


@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_positive_part_of_an_infinite_eigenvalue_raises(value):
    with np.errstate(invalid="ignore"), pytest.raises(DomainViolation, match="positive-part"):
        positive_part(HermitianMatrix([[value]]))


def test_positive_part_of_a_nan_eigenvalue_is_zero():
    with np.errstate(invalid="ignore"):
        out = positive_part(HermitianMatrix([[math.nan]]))
    assert out.entries.tobytes() == np.zeros((1, 1), dtype=complex).tobytes()


def test_positive_part_dominates_input():
    rng = np.random.default_rng(8)
    a = random_hermitian(5, rng)
    out = positive_part(a)
    assert spectral_bounds(out)[0] >= -1e-12
    assert loewner_leq(a, out, 1e-10).is_leq


# -- loewner_leq and spectral_bounds ----------------------------------------


def test_loewner_identity_vs_twice_identity():
    v = loewner_leq(HermitianMatrix.identity(3), 2.0 * HermitianMatrix.identity(3))
    assert v.relation is Relation.LESS_OR_EQUAL
    assert v.min_eigenvalue_of_difference == pytest.approx(1.0)


def test_loewner_reflexive_equal():
    rng = np.random.default_rng(9)
    a = random_hermitian(4, rng)
    v = loewner_leq(a, a)
    assert v.relation is Relation.EQUAL
    assert v.is_leq and v.is_geq


def test_loewner_incomparable():
    a = HermitianMatrix.diagonal([1.0, 1.0])
    b = HermitianMatrix([[1, 1], [1, 1]])
    v = loewner_leq(a, b)
    assert v.relation is Relation.INCOMPARABLE
    assert v.min_eigenvalue_of_difference == pytest.approx(-1.0)
    assert v.max_eigenvalue_of_difference == pytest.approx(1.0)


def test_loewner_transitive_on_constructed_triple():
    rng = np.random.default_rng(10)
    a = random_hermitian(4, rng)
    g1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    g2 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = a + HermitianMatrix(g1 @ g1.conj().T)
    c = b + HermitianMatrix(g2 @ g2.conj().T)
    assert loewner_leq(a, b).is_leq
    assert loewner_leq(b, c).is_leq
    assert loewner_leq(a, c).is_leq


def test_loewner_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        loewner_leq(HermitianMatrix.identity(2), HermitianMatrix.identity(3))


def test_spectral_bounds_examples():
    assert spectral_bounds(HermitianMatrix.diagonal([1.0, 5.0])) == pytest.approx((1.0, 5.0))
    c = 0.7
    lo, hi = spectral_bounds(c * HermitianMatrix.identity(3))
    assert lo == pytest.approx(c) and hi == pytest.approx(c)
    assert spectral_bounds(HermitianMatrix([[0, 1], [1, 0]])) == pytest.approx((-1.0, 1.0))


# -- construction and file format --------------------------------------------


def test_construction_symmetrizes_roundoff():
    a = np.array([[1.0, 0.5 + 1e-15], [0.5, 2.0]])
    m = HermitianMatrix(a, strict=True)
    assert np.allclose(m.entries, m.entries.conj().T)


def test_construction_rejects_genuinely_nonhermitian():
    with pytest.raises(NotHermitian):
        HermitianMatrix([[1.0, 1.0], [0.0, 1.0]], strict=True)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_strict_construction_rejects_non_finite(bad):
    with pytest.raises(NotHermitian):
        HermitianMatrix([[1.0, bad], [bad, 1.0]], strict=True)


def test_matrix_json_roundtrip_complex():
    rng = np.random.default_rng(12)
    a = random_hermitian(3, rng)
    back = HermitianMatrix.from_dict(a.to_dict())
    assert np.allclose(back.entries, a.entries, atol=1e-15)


def test_matrix_json_real_omits_im():
    a = HermitianMatrix.diagonal([1.0, 2.0])
    d = a.to_dict()
    assert "im" not in d
    back = HermitianMatrix.from_dict(d)
    assert np.allclose(back.entries, a.entries)
