"""The Jacobi kernels against the reference loop, bit for bit.

Every pinned report digest depends on the last bits of the spectra, so the
kernel, alone (``_jacobi``, a stack of one) and on every member of a stack
(``_jacobi_many``), must return the same bytes as the reference loop in
``jacobi_reference`` for eigenvalues and eigenvectors alike.
"""

import numpy as np
import pytest

from jacobi_reference import reference_jacobi
from loewner_lab import hermitian as herm
from loewner_lab.errors import NonConvergence
from loewner_lab.hermitian import (
    HermitianMatrix,
    eigendecompose,
    eigendecompose_many,
    eigenvalues_of,
)

KINDS = ("real", "complex", "near-diagonal", "zero", "repeated", "integer")


def _operand(dim: int, kind: str) -> np.ndarray:
    rng = np.random.default_rng([dim, KINDS.index(kind)])
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    if kind == "real":
        g = g.real
    elif kind == "near-diagonal":
        g = np.diag(rng.normal(size=dim)) + 1e-9 * g
    elif kind == "zero":
        g = np.zeros((dim, dim))
    elif kind == "repeated":
        q, _ = np.linalg.qr(g)
        g = (q * np.resize([1.0, 2.0], dim)) @ q.conj().T
    elif kind == "integer":
        # exact zeros and ties in the products, where signed zeros show
        g = np.round(2.0 * g)
    return HermitianMatrix(g).entries


def _same_bytes(x, y) -> bool:
    if x is None or y is None:
        return x is None and y is None
    return (x.dtype == y.dtype and x.shape == y.shape
            and x.flags.c_contiguous == y.flags.c_contiguous
            and x.tobytes() == y.tobytes())


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dim", range(1, 17))
def test_kernel_matches_reference_bytes(dim, kind):
    matrix = _operand(dim, kind)
    for want_vectors in (True, False):
        lam, vec = herm._jacobi(matrix, want_vectors)
        ref_lam, ref_vec = reference_jacobi(matrix, want_vectors)
        assert _same_bytes(lam, ref_lam), (dim, kind, want_vectors)
        assert _same_bytes(vec, ref_vec), (dim, kind, want_vectors)


def test_eigenvalues_then_vectors_run_jacobi_once(monkeypatch):
    calls = []
    kernel = herm._jacobi

    def counting(matrix, want_vectors):
        calls.append(want_vectors)
        return kernel(matrix, want_vectors)

    monkeypatch.setattr(herm, "_jacobi", counting)
    m = HermitianMatrix(_operand(5, "complex"))
    lam = eigenvalues_of(m)
    dec = eigendecompose(m)
    assert len(calls) == 1
    assert lam is dec.eigenvalues


def _mixed_stack(dim: int) -> list:
    """The six kinds, plus random members scaled far apart and a diagonal
    one: members that converge at sweep 0, after one sweep (near-diagonal)
    and after several, and zero-norm members that never rotate."""
    rng = np.random.default_rng([dim, 99])
    extra = []
    for scale in (1e-150, 1.0, 1e5):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        extra.append(HermitianMatrix(scale * g).entries)
    extra.append(HermitianMatrix(np.diag(rng.normal(size=dim))).entries)
    return [_operand(dim, kind) for kind in KINDS] + extra + [_operand(dim, "zero")]


@pytest.mark.parametrize("want_vectors", [True, False])
@pytest.mark.parametrize("dim", range(1, 17))
def test_batched_kernel_matches_reference_bytes(dim, want_vectors):
    stack = _mixed_stack(dim)
    results = herm._jacobi_many(stack, want_vectors)
    assert len(results) == len(stack)
    for index, (matrix, result) in enumerate(zip(stack, results)):
        ref_lam, ref_vec = reference_jacobi(matrix, want_vectors)
        assert result is not None, (dim, index)
        assert _same_bytes(result[0], ref_lam), (dim, index, want_vectors)
        assert _same_bytes(result[1], ref_vec), (dim, index, want_vectors)


def test_eigendecompose_many_fills_caches_with_serial_bytes():
    rng = np.random.default_rng(5)
    matrices = [HermitianMatrix(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
                for d in [3] * 6 + [6] * 65]
    small = HermitianMatrix(rng.normal(size=(5, 5)))  # a group of one is a stack of one
    eigendecompose_many(matrices + [small, matrices[0]])
    for matrix in matrices + [small]:
        assert matrix._eig is not None
        lam, vec = reference_jacobi(matrix.entries, True)
        assert _same_bytes(matrix._eig.eigenvalues, lam)
        assert _same_bytes(matrix._eig.vectors, vec)


def test_eigendecompose_many_splits_large_groups_evenly(monkeypatch):
    sizes = []
    kernel = herm._jacobi_many

    def recording(stack, want_vectors):
        sizes.append(len(stack))
        return kernel(stack, want_vectors)

    monkeypatch.setattr(herm, "_jacobi_many", recording)
    rng = np.random.default_rng(6)
    count = 2 * herm.BATCH_MAX + 1
    eigendecompose_many([HermitianMatrix(rng.normal(size=(2, 2))) for _ in range(count)])
    assert sum(sizes) == count and len(sizes) == 3
    assert max(sizes) <= herm.BATCH_MAX and max(sizes) - min(sizes) <= 1


def test_eigendecompose_many_leaves_non_converging_members_unfilled(monkeypatch):
    monkeypatch.setattr(herm, "JACOBI_SWEEP_BUDGET", 1)
    rng = np.random.default_rng(8)
    hard = [HermitianMatrix(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
            for _ in range(6)]
    easy = HermitianMatrix(np.diag(np.arange(6.0)))
    eigendecompose_many(hard + [easy])  # never raises
    assert easy._eig is not None
    for matrix in hard:
        assert matrix._eig is None
        with pytest.raises(NonConvergence) as batched:
            eigendecompose(matrix)
        with pytest.raises(NonConvergence) as serial:
            herm._jacobi(matrix.entries, True)
        assert str(batched.value) == str(serial.value) == (
            "Jacobi sweeps exhausted (1) at dim 6; off-diagonal norm still above "
            f"{herm.JACOBI_CONV_TOL * matrix.fro_norm:.3e}")
