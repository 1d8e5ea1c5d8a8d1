"""Positive unital maps: application, verification, sampling, spec parsing."""

import re

import numpy as np
import pytest

from loewner_lab.errors import DimensionMismatch, SpecParseError, UnknownKind
from loewner_lab.hermitian import HermitianMatrix, loewner_leq
from loewner_lab.maps import (
    CompressionMap,
    IdentityMap,
    MixedUnitaryMap,
    PinchingMap,
    map_misfit,
    parse_map_spec,
    sample_map,
    sample_map_family,
    verify_unital,
)


def test_pinching_singletons_extracts_diagonal():
    phi = PinchingMap(2, ((0,), (1,)))
    out = phi.apply(HermitianMatrix([[1, 2], [2, 5]]))
    assert np.allclose(out.entries, np.diag([1.0, 5.0]))


def test_compression_to_first_basis_vector():
    v = np.array([[1.0], [0.0]])
    phi = CompressionMap(v)
    out = phi.apply(HermitianMatrix([[1, 2], [2, 5]]))
    assert out.dim == 1
    assert out.entries[0, 0] == pytest.approx(1.0)


def test_mixed_unitary_average_with_swap():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    phi = MixedUnitaryMap([0.5, 0.5], [np.eye(2), swap])
    out = phi.apply(HermitianMatrix.diagonal([1.0, 5.0]))
    assert np.allclose(out.entries, np.diag([3.0, 3.0]))


def test_apply_map_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        IdentityMap(2).apply(HermitianMatrix.identity(3))


def test_verify_unital_identity():
    rep = verify_unital(IdentityMap(3), 10, 0)
    assert rep.passed
    assert rep.unital_deviation == 0.0
    assert rep.linearity_deviation <= 1e-14


def test_verify_unital_valid_compression():
    phi = sample_map("compression:k=2", 4, 3)
    rep = verify_unital(phi, 100, 1)
    assert rep.passed


def test_verify_unital_catches_non_isometry():
    v = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])  # V*V = diag(1, 4) != I
    rep = verify_unital(CompressionMap(v), 10, 0)
    assert not rep.passed
    assert rep.unital_deviation > 1.0


def test_sample_map_unknown_kind():
    with pytest.raises(UnknownKind):
        sample_map("hadamard", 2, 0)
    with pytest.raises(SpecParseError):
        sample_map("compression:k=9", 4, 0)
    with pytest.raises(SpecParseError, match="needs a single map, not a family"):
        sample_map("family:n=3", 4, 0)


@pytest.mark.parametrize("spec, parsed", [
    ("identity", ("identity", {})),
    ("pinching:blocks=0,1|2", ("pinching", {"blocks": ((0, 1), (2,))})),
    ("compression:k=2", ("compression", {"k": 2})),
    ("mixed-unitary:count=3", ("mixed-unitary", {"count": 3})),
    ("family:n=3", ("family", {"n": 3})),
])
def test_parse_map_spec_reads_single_maps_and_families(spec, parsed):
    assert parse_map_spec(spec) == parsed


@pytest.mark.parametrize("spec, error, message", [
    ("hadamard", UnknownKind, "unknown map kind 'hadamard'"),
    ("compression:k=0", SpecParseError, "compression k must be >= 1, got 0"),
    ("mixed:k=2", SpecParseError, "unknown parameter 'k' in 'mixed:k=2'"),
    ("family", SpecParseError, "\"family\" requires n=<int>: 'family'"),
    ("family:n=0", SpecParseError, "family n must be >= 1, got 0"),
    ("family:n=x", SpecParseError, "bad n in 'family:n=x'"),
    ("family:k=2", SpecParseError, "unknown parameter 'k' in 'family:k=2'"),
])
def test_parse_map_spec_rejects(spec, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        parse_map_spec(spec)


def test_map_misfit_names_a_family():
    assert map_misfit("family:n=3", 2) == "needs a single map, not a family"
    assert map_misfit("compression:k=2", 2) is None


def test_sample_map_deterministic():
    a = sample_map("mixed:count=3", 3, 17)
    b = sample_map("mixed:count=3", 3, 17)
    assert np.allclose(a.weights, b.weights)
    for u, v in zip(a.unitaries, b.unitaries):
        assert np.allclose(u, v)


def test_sampled_pinching_partitions_are_valid():
    for seed in range(8):
        phi = sample_map("pinching", 4, seed)
        assert sorted(i for b in phi.blocks for i in b) == [0, 1, 2, 3]
        assert verify_unital(phi, 20, seed).passed


def test_all_sampled_kinds_pass_verification():
    for seed, spec in enumerate(("identity", "pinching", "compression", "mixed")):
        for dim in (1, 2, 4, 6):
            phi = sample_map(spec, dim, seed + 10 * dim)
            rep = verify_unital(phi, 100, seed)
            assert rep.passed, (spec, dim, rep)


def test_order_preservation_of_sampled_maps():
    rng = np.random.default_rng(31)
    for spec in ("identity", "pinching", "compression", "mixed"):
        phi = sample_map(spec, 4, 5)
        for _ in range(10):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            a = HermitianMatrix(g)
            p = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            b = a + HermitianMatrix(p @ p.conj().T)
            assert loewner_leq(phi.apply(a), phi.apply(b), 1e-10).is_leq, spec


def test_family_unit_sum_and_determinism():
    fam1 = sample_map_family(3, 2, 9)
    fam2 = sample_map_family(3, 2, 9)
    assert fam1.unit_sum_deviation() <= 1e-12
    a = HermitianMatrix([[1, 1j], [-1j, 2]])
    assert np.allclose(fam1.apply_sum(a).entries, fam2.apply_sum(a).entries)


def test_family_singleton_is_unital():
    fam = sample_map_family(1, 3, 4)
    assert fam.unit_sum_deviation() <= 1e-12


def test_family_of_two_identities_reconstructs_input():
    from loewner_lab.maps import MapFamily, ScaledMap

    fam = MapFamily((ScaledMap(0.5, IdentityMap(2)), ScaledMap(0.5, IdentityMap(2))))
    a = HermitianMatrix([[2, 1], [1, 0]])
    assert np.allclose(fam.apply_sum(a).entries, a.entries)


def test_family_spectrum_containment():
    # images of operators with spectrum in [m, M] stay in [m, M]
    from loewner_lab.hermitian import spectral_bounds
    from loewner_lab.instances import sample_sandwiched_matrix

    m, M = -0.5, 2.0
    eps = 1e-10 * (abs(m) + abs(M) + 1.0)
    for seed in range(6):
        fam = sample_map_family(3, 3, seed)
        a = sample_sandwiched_matrix(3, m, M, seed + 100)
        lo, hi = spectral_bounds(fam.apply_sum(a))
        assert lo >= m - eps and hi <= M + eps
