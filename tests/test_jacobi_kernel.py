"""The Jacobi kernel against the reference loop, bit for bit.

Every pinned report digest depends on the last bits of the spectra, so the
runtime kernel must return the same bytes as the reference loop in
``jacobi_reference`` for eigenvalues and eigenvectors alike.
"""

import numpy as np
import pytest

from jacobi_reference import reference_jacobi
from loewner_lab import hermitian as herm
from loewner_lab.hermitian import HermitianMatrix, eigendecompose, eigenvalues_of

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
