"""Reference cyclic Jacobi loop for the kernel test.

This is the rotation loop that ``hermitian._jacobi`` ran before it kept
``[A; V]`` in one stacked array: one copy and one update per column and
row of A, and a separate update of V.  The runtime kernel must reproduce
its eigenvalues and eigenvectors bit for bit, because every pinned report
digest depends on them.  Do not tidy this module: its value is that it is
the old arithmetic, call for call.
"""

from __future__ import annotations

import math

import numpy as np

from loewner_lab.errors import NonConvergence
from loewner_lab.hermitian import JACOBI_CONV_TOL, JACOBI_SWEEP_BUDGET


def reference_jacobi(matrix: np.ndarray, want_vectors: bool):
    """Cyclic Jacobi sweeps on a complex Hermitian matrix.

    Returns (eigenvalues ascending, vectors or None).  Raises NonConvergence
    if the off-diagonal mass has not collapsed within the sweep budget.
    """
    n = matrix.shape[0]
    a = np.array(matrix, dtype=np.complex128, copy=True)
    v = np.eye(n, dtype=np.complex128) if want_vectors else None
    scale = float(np.linalg.norm(a))
    if n == 1 or scale == 0.0:
        lam = np.sort(np.diag(a).real.copy()) if n > 1 else np.array([a[0, 0].real])
        return lam, v
    threshold = JACOBI_CONV_TOL * scale
    # Elements this small cannot push the off-norm back above threshold.
    skip = threshold / (2.0 * n)

    # A NaN or overflowing norm gives no threshold to converge below.
    for _ in range(JACOBI_SWEEP_BUDGET if math.isfinite(scale) else 0):
        off = _off_norm(a)
        if off <= threshold:
            lam = np.diag(a).real.copy()
            order = np.argsort(lam, kind="stable")
            lam = lam[order]
            if want_vectors:
                v = np.ascontiguousarray(v[:, order])
            return lam, v
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                beta = abs(apq)
                if beta <= skip:
                    continue
                phase = apq / beta
                tau = (a[q, q].real - a[p, p].real) / (2.0 * beta)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                s_ph = s * phase
                # A <- A U with U acting on columns (p, q).
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - np.conj(s_ph) * col_q
                a[:, q] = s_ph * col_p + c * col_q
                # A <- U* A.
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s_ph * row_q
                a[q, :] = np.conj(s_ph) * row_p + c * row_q
                # Numerical hygiene: the rotation zeroes (p, q) exactly.
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
                if want_vectors:
                    vp = v[:, p].copy()
                    vq = v[:, q].copy()
                    v[:, p] = c * vp - np.conj(s_ph) * vq
                    v[:, q] = s_ph * vp + c * vq
    raise NonConvergence(
        f"Jacobi sweeps exhausted ({JACOBI_SWEEP_BUDGET}) at dim {n}; "
        f"off-diagonal norm still above {threshold:.3e}"
    )


def _off_norm(a: np.ndarray) -> float:
    """Frobenius norm of the off-diagonal part, computed directly (a
    difference of squared norms would lose the small values that matter
    for convergence)."""
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))
