"""The Jacobi kernels against the reference loop, bit for bit.

Every pinned report digest depends on the last bits of the spectra, so the
kernel, alone (``_jacobi``, a stack of one) and on every member of a stack
(``_jacobi_many``), must return the same bytes as the reference loop in
``jacobi_reference`` for eigenvalues and eigenvectors alike.  That holds
also where the kernel's stacked convergence test leaves a member to
``_off_norm``, the reference's own test.
"""

import warnings

import numpy as np
import pytest

from jacobi_reference import reference_jacobi
from loewner_lab import hermitian as herm
from loewner_lab.campaign import CampaignConfig, run_campaign
from test_campaign_golden import PINNED
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


def _band_stack(dim: int) -> list:
    """Members whose off-diagonal norm sits at threshold x (1 -+ 1e-12), so
    close that only ``_off_norm`` decides them, one with a NaN entry, and
    members whose threshold^2 lies below 1e-280 or above 1e280, the last
    one's norm overflowing."""
    rng = np.random.default_rng([dim, 17])
    stack = []
    for factor in (1.0 - 1e-12, 1.0 + 1e-12):
        a = np.diag(rng.normal(size=dim)).astype(np.complex128)
        # One pair (0, dim - 1) = x, conj(x) with sqrt(2)|x| = r ||A||_F and
        # ||A||_F^2 = ||diag||_F^2 + 2|x|^2, where r = JACOBI_CONV_TOL * factor.
        r = herm.JACOBI_CONV_TOL * factor
        x = r * np.linalg.norm(a) / np.sqrt(2.0 - 2.0 * r * r) * np.exp(1j * rng.uniform(0, 6))
        a[0, dim - 1], a[dim - 1, 0] = x, np.conj(x)
        stack.append(a)
    nan = HermitianMatrix(rng.normal(size=(dim, dim))).entries.copy()
    nan[0, dim - 1] = np.nan
    g = HermitianMatrix(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))).entries
    huge = 5e153 / np.linalg.norm(g) * g  # threshold 5e140, finite squares
    vast = 1e160 * g  # its norm overflows
    return stack + [nan, _mixed_stack(dim)[len(KINDS)], huge, vast]


NOT_FINITE = (2, 5)  # the _band_stack members whose norm is NaN or overflows


@pytest.fixture
def off_norm_calls(monkeypatch) -> list:
    """One entry per ``_off_norm`` call, the kernel's per-member fallback."""
    calls = []
    off_norm = herm._off_norm
    monkeypatch.setattr(herm, "_off_norm", lambda a: calls.append(None) or off_norm(a))
    return calls


# The vast member's norm overflows in both loops.
@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
@pytest.mark.parametrize("want_vectors", [True, False])
@pytest.mark.parametrize("dim", range(2, 17))
def test_stacked_convergence_test_leaves_close_calls_to_off_norm(dim, want_vectors,
                                                                  off_norm_calls):
    stack = _band_stack(dim)
    results = herm._jacobi_many(stack, want_vectors)
    assert off_norm_calls  # the band and the out-of-range members reach it
    for index, (matrix, result) in enumerate(zip(stack, results)):
        if index in NOT_FINITE:  # left undecomposed
            assert result is None
            with pytest.raises(NonConvergence):
                reference_jacobi(matrix, want_vectors)
            continue
        ref_lam, ref_vec = reference_jacobi(matrix, want_vectors)
        assert _same_bytes(result[0], ref_lam), (dim, index, want_vectors)
        assert _same_bytes(result[1], ref_vec), (dim, index, want_vectors)


@pytest.mark.parametrize("dim", range(1, 17))
def test_kernel_warns_on_no_stack_that_was_silent(dim):
    stacks = [_mixed_stack(dim)] + ([_band_stack(dim)[:-1]] if dim > 1 else [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for stack in stacks:
            for want_vectors in (True, False):
                herm._jacobi_many(stack, want_vectors)


@pytest.mark.parametrize("name", ["deep", "wide"])
def test_golden_campaigns_decide_convergence_without_off_norm(name, off_norm_calls):
    run_campaign(CampaignConfig.from_dict(PINNED[name][0]), jobs=1)
    assert not off_norm_calls


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


def test_eigendecompose_many_runs_one_stack_per_dimension(monkeypatch):
    stacks = []
    kernel = herm._jacobi_many

    def recording(stack, want_vectors):
        stacks.append((stack[0].shape[0], len(stack)))
        return kernel(stack, want_vectors)

    monkeypatch.setattr(herm, "_jacobi_many", recording)
    rng = np.random.default_rng(6)
    dims = [2] * 65 + [3] * 40 + [2] * 5
    eigendecompose_many([HermitianMatrix(rng.normal(size=(d, d))) for d in dims])
    assert stacks == [(2, 70), (3, 40)]


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
