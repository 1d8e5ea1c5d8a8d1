"""Dense Hermitian matrices: arithmetic, eigendecomposition, functional
calculus, and comparison in the positive-semidefinite (Loewner) order.

Everything downstream builds on this module.  Matrices are immutable value
objects; the eigendecomposition is cached on the instance, so asking for the
spectrum, the bounds, and several scalar functions of one matrix costs one
Jacobi run, which yields eigenvalues and vectors together.

The eigensolver is a cyclic Jacobi iteration for complex Hermitian input.
It converges when the off-diagonal Frobenius norm drops below
``JACOBI_CONV_TOL`` times the input norm, within a fixed sweep budget.
Self-contained and highly accurate at the dimensions this package targets
(1 to 16); not tuned for anything larger.  Its rotation arithmetic is fixed
operation for operation, because every pinned report digest depends on the
last bits of the spectra.

``eigendecompose_many`` fills the caches of many matrices at once.  It groups
them by dimension and runs each group of at least ``BATCH_MIN`` through
``_jacobi_many``, which rotates a whole stack in the same cyclic order, one
vectorized update per (p, q) pair, and yields for every member the bytes
``_jacobi`` yields for it.  Below ``BATCH_MIN`` a stack's numpy calls per
rotation cost more than the serial calls they replace, so smaller groups
are left to the serial kernel, run when a matrix is first read.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatch, DomainViolation, NonConvergence, NotHermitian

# The supported dimensions are 1..MAX_DIM; files and configs beyond it are rejected.
MAX_DIM = 16
# Construction-time symmetrization rejects asymmetry above this, relative to ||A||_F.
HERMITIAN_ASYM_TOL = 1e-12
# Jacobi convergence: off-diagonal Frobenius norm <= JACOBI_CONV_TOL * ||A||_F.
JACOBI_CONV_TOL = 1e-13
JACOBI_SWEEP_BUDGET = 64
# eigendecompose_many leaves a same-dimension group smaller than this to the
# serial kernel: below it the batched kernel's numpy calls per rotation cost
# more than the serial calls they replace (break-even measured at 4 to 6
# members across dims 2 to 16).
BATCH_MIN = 6
# ... and splits a larger group into near-equal stacks of at most BATCH_MAX,
# which bounds the kernel's working array (8 KB per member at dim 16) and so
# the process's peak memory, at little cost in speed.
BATCH_MAX = 32
# Eigenvalues within DOMAIN_CLAMP_TOL * ||A||_F of a closed domain boundary are
# clamped onto it before a scalar function is applied.
DOMAIN_CLAMP_TOL = 1e-12
# Default relative tolerance for PSD verdicts.
DEFAULT_PSD_TOL = 1e-9
# Two expressions count as equal when they differ by less than this, relative
# to max(1, |lhs|, |rhs|) in the appropriate norm.
EQUALITY_TOL = 1e-10


class Relation(enum.Enum):
    LESS_OR_EQUAL = "less-or-equal"
    GREATER_OR_EQUAL = "greater-or-equal"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


class HermitianMatrix:
    """Immutable dense complex Hermitian matrix.

    Entries are symmetrized as (A + A*)/2 on construction.  ``strict=True``
    additionally rejects non-finite entries and input whose asymmetry exceeds
    ``HERMITIAN_ASYM_TOL * ||A||_F``; use it for data read from files, where
    silent symmetrization would mask genuinely non-Hermitian input.
    """

    __slots__ = ("_entries", "_fro", "_eig")

    def __init__(self, entries, *, strict: bool = False):
        arr = np.asarray(entries, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise DimensionMismatch("dimension must be >= 1")
        if strict:
            if not np.all(np.isfinite(arr)):
                raise NotHermitian("entries must be finite numbers")
            fro = float(np.linalg.norm(arr))
            asym = float(np.linalg.norm(arr - arr.conj().T))
            if asym > HERMITIAN_ASYM_TOL * max(fro, 1e-300):
                raise NotHermitian(
                    f"asymmetry {asym:.3e} exceeds {HERMITIAN_ASYM_TOL:.0e} * ||A||_F"
                )
        herm = (arr + arr.conj().T) / 2.0
        herm.setflags(write=False)
        self._entries = herm
        self._fro = float(np.linalg.norm(herm))
        self._eig = None

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def fro_norm(self) -> float:
        return self._fro

    # -- arithmetic (always re-wraps, so results stay Hermitian) -----------

    def __add__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        self._check_dim(other)
        return HermitianMatrix(self._entries + other._entries)

    def __sub__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        self._check_dim(other)
        return HermitianMatrix(self._entries - other._entries)

    def __mul__(self, scalar: float) -> "HermitianMatrix":
        return HermitianMatrix(self._entries * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "HermitianMatrix":
        return HermitianMatrix(-self._entries)

    def _check_dim(self, other: "HermitianMatrix") -> None:
        if self.dim != other.dim:
            raise DimensionMismatch(f"dimensions differ: {self.dim} vs {other.dim}")

    @classmethod
    def identity(cls, dim: int) -> "HermitianMatrix":
        return cls(np.eye(dim))

    @classmethod
    def zero(cls, dim: int) -> "HermitianMatrix":
        return cls(np.zeros((dim, dim)))

    @classmethod
    def diagonal(cls, values) -> "HermitianMatrix":
        return cls(np.diag(np.asarray(values, dtype=float)))

    # -- file format --------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready object: {"dim", "re", "im"}; "im" dropped when real."""
        out = {"dim": self.dim, "re": [[float(v) for v in row] for row in self._entries.real]}
        if np.any(self._entries.imag != 0.0):
            out["im"] = [[float(v) for v in row] for row in self._entries.imag]
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "HermitianMatrix":
        if not isinstance(obj, dict) or "dim" not in obj or "re" not in obj:
            raise NotHermitian('matrix object must carry "dim" and "re" keys')
        dim = obj["dim"]
        if not isinstance(dim, int) or isinstance(dim, bool) or not 1 <= dim <= MAX_DIM:
            raise DimensionMismatch(f"dim must be in 1..{MAX_DIM} and an integer, got {dim!r}")

        def entries(key: str) -> np.ndarray:
            try:
                arr = np.asarray(obj[key], dtype=float)
            except (TypeError, ValueError):
                raise DimensionMismatch(f'"{key}" must be {dim}x{dim} numbers') from None
            if arr.shape != (dim, dim):
                raise DimensionMismatch(f'"{key}" must be {dim}x{dim}, got {arr.shape}')
            return arr

        arr = entries("re").astype(np.complex128)
        if obj.get("im") is not None:
            arr += 1j * entries("im")
        return cls(arr, strict=True)


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in ascending order and matching orthonormal column vectors."""

    eigenvalues: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.eigenvalues) @ self.vectors.conj().T


@dataclass(frozen=True)
class LoewnerVerdict:
    """Outcome of a PSD comparison of B - A.

    ``min_eigenvalue_of_difference`` is reported exactly as computed;
    ``tolerance_used`` is the effective (already scaled) tolerance.
    """

    relation: Relation
    min_eigenvalue_of_difference: float
    max_eigenvalue_of_difference: float
    tolerance_used: float

    @property
    def is_leq(self) -> bool:
        return self.relation in (Relation.LESS_OR_EQUAL, Relation.EQUAL)

    @property
    def is_geq(self) -> bool:
        return self.relation in (Relation.GREATER_OR_EQUAL, Relation.EQUAL)


# ---------------------------------------------------------------------------
# Jacobi eigensolver
# ---------------------------------------------------------------------------


def _jacobi(matrix: np.ndarray, want_vectors: bool):
    """Cyclic Jacobi sweeps on a complex Hermitian matrix.

    Returns (eigenvalues ascending, vectors or None).  Raises NonConvergence
    if the off-diagonal mass has not collapsed within the sweep budget.

    A and, when wanted, V are stacked as ``[A; V]`` in one column-major
    array, so one update of a contiguous column rotates both.  Every update
    is a 1-D numpy operation: 2-D broadcast forms select other complex loops
    and change the last bits, and every pinned report depends on these bits.
    A is never updated from V, so the eigenvalues do not depend on
    ``want_vectors``.
    """
    a = np.asarray(matrix, dtype=np.complex128)
    n = a.shape[0]
    scale = float(np.linalg.norm(a))
    if n == 1 or scale == 0.0:
        lam = np.sort(np.diag(a).real.copy()) if n > 1 else np.array([a[0, 0].real])
        return lam, np.eye(n, dtype=np.complex128) if want_vectors else None
    threshold = JACOBI_CONV_TOL * scale
    # Elements this small cannot push the off-norm back above threshold.
    skip = threshold / (2.0 * n)
    stacked = np.zeros((2 * n if want_vectors else n, n), dtype=np.complex128, order="F")
    stacked[:n] = a
    if want_vectors:
        stacked[n:] = np.eye(n)
    a = stacked[:n]
    a_imag = a.imag
    cols = list(stacked.T)
    rows = list(a)
    # The rotation's c, s e^{i phi} and its conjugate, held in 0-d complex
    # arrays: numpy would convert the scalars to these same operands on
    # every call, so the products are unchanged and each call is cheaper.
    cos_, sin_, sin_conj = (np.zeros((), dtype=np.complex128) for _ in range(3))

    for _ in range(JACOBI_SWEEP_BUDGET):
        off = _off_norm(a)
        if off <= threshold:
            lam = np.diag(a).real.copy()
            order = np.argsort(lam, kind="stable")
            lam = lam[order]
            v = np.ascontiguousarray(stacked[n:, order]) if want_vectors else None
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
                cos_[()] = c
                sin_[()] = s_ph
                sin_conj[()] = np.conj(s_ph)
                # [A; V] <- [A; V] U with U acting on columns (p, q).
                col_p, col_q = cols[p], cols[q]
                new_p = cos_ * col_p - sin_conj * col_q
                new_q = sin_ * col_p + cos_ * col_q
                col_p[...] = new_p
                col_q[...] = new_q
                # A <- U* A.
                row_p, row_q = rows[p], rows[q]
                new_p = cos_ * row_p - sin_ * row_q
                new_q = sin_conj * row_p + cos_ * row_q
                row_p[...] = new_p
                row_q[...] = new_q
                # Numerical hygiene: the rotation zeroes (p, q) exactly and
                # leaves a real diagonal.
                a[p, q] = 0.0
                a[q, p] = 0.0
                a_imag[p, p] = 0.0
                a_imag[q, q] = 0.0
    raise NonConvergence(
        f"Jacobi sweeps exhausted ({JACOBI_SWEEP_BUDGET}) at dim {n}; "
        f"off-diagonal norm still above {threshold:.3e}"
    )


def _jacobi_many(stack, want_vectors: bool) -> list:
    """``_jacobi`` on a stack of same-dimension Hermitian matrices at once.

    ``stack`` is a sequence of square arrays of one dimension.  Returns one
    ``(eigenvalues, vectors or None)`` per member, the bytes ``_jacobi``
    returns for it, or None for a member that has not converged within the
    sweep budget; it never raises.  Members rotate in the kernel's cyclic
    p < q order, one vectorized update per pair; each keeps its own
    threshold and skip, a member whose (p, q) entry is not above its skip
    sits that rotation out, and a converged member leaves the stack at the
    sweep where ``_jacobi`` would return.  Zero-norm and 1x1 members take
    ``_jacobi`` itself.

    Member m holds the columns of its ``[A; V]`` as rows ``work[m, j]``, so
    a column update is contiguous and a row update of A strided, as in
    ``_jacobi``.  Two operations would change the last bits if vectorized
    naively: ``np.abs`` of a complex array (``np.hypot`` of its parts
    matches the scalar ``abs``), and complex-by-float division (dividing by
    ``beta + 0j`` matches the scalar ``apq / beta``).
    """
    out = [None] * len(stack)
    scales, live = [], []
    for i, a in enumerate(stack):
        a = np.asarray(a, dtype=np.complex128)
        scale = float(np.linalg.norm(a))
        if a.shape[0] == 1 or scale == 0.0:
            out[i] = _jacobi(a, want_vectors)
        else:
            scales.append(scale)
            live.append((i, a))
    if not live:
        return out
    n = live[0][1].shape[0]
    ids = np.array([i for i, _ in live], dtype=np.intp)
    threshold = JACOBI_CONV_TOL * np.array(scales)
    skip = threshold / (2.0 * n)
    work = np.zeros((ids.size, n, 2 * n if want_vectors else n), dtype=np.complex128)
    for m, (_, a) in enumerate(live):
        work[m, :, :n] = a.T
    if want_vectors:
        work[:, :, n:] = np.eye(n)
    work_real, work_imag = work.real, work.imag

    for _ in range(JACOBI_SWEEP_BUDGET):
        keep = np.ones(ids.size, dtype=bool)
        for m in range(ids.size):
            a = work[m, :, :n].T
            if _off_norm(a) <= threshold[m]:
                lam = np.diag(a).real.copy()
                order = np.argsort(lam, kind="stable")
                v = np.ascontiguousarray(work[m, :, n:].T[:, order]) if want_vectors else None
                out[ids[m]] = (lam[order], v)
                keep[m] = False
        if not keep.all():
            ids, threshold, skip = ids[keep], threshold[keep], skip[keep]
            if not ids.size:
                return out
            work = work[keep]
            work_real, work_imag = work.real, work.imag
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = work[:, q, p]
                beta = np.hypot(apq.real, apq.imag)
                # A NaN entry would rotate in _jacobi and not here, but it
                # makes the member's threshold NaN: it converges in neither.
                busy = beta > skip
                count = np.count_nonzero(busy)
                if not count:
                    continue
                sel = slice(None)
                if count < busy.size:
                    sel = np.flatnonzero(busy)
                    apq, beta = apq[sel], beta[sel]
                phase = apq / (beta + 0j)
                tau = (work_real[sel, q, q] - work_real[sel, p, p]) / (2.0 * beta)
                root = np.sqrt(1.0 + tau * tau)
                t = 1.0 / (np.abs(tau) + root)
                t = np.where(tau >= 0.0, t, -t)
                c = 1.0 / np.sqrt(1.0 + t * t)
                s_ph = (t * c) * phase
                cos_ = c.astype(np.complex128)[:, None]
                sin_ = s_ph[:, None]
                sin_conj = np.conj(s_ph)[:, None]
                # [A; V] <- [A; V] U with U acting on columns (p, q).
                col_p, col_q = work[sel, p], work[sel, q]
                new_p = cos_ * col_p - sin_conj * col_q
                new_q = sin_ * col_p + cos_ * col_q
                work[sel, p] = new_p
                work[sel, q] = new_q
                # A <- U* A.
                row_p, row_q = work[sel, :, p], work[sel, :, q]
                new_p = cos_ * row_p - sin_ * row_q
                new_q = sin_conj * row_p + cos_ * row_q
                work[sel, :, p] = new_p
                work[sel, :, q] = new_q
                # Numerical hygiene, as in _jacobi.
                work[sel, q, p] = 0.0
                work[sel, p, q] = 0.0
                work_imag[sel, p, p] = 0.0
                work_imag[sel, q, q] = 0.0
    return out


def _off_norm(a: np.ndarray) -> float:
    """Frobenius norm of the off-diagonal part, computed directly (a
    difference of squared norms would lose the small values that matter
    for convergence)."""
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))


def _store(matrix: HermitianMatrix, lam: np.ndarray, vec: np.ndarray) -> None:
    lam.setflags(write=False)
    vec.setflags(write=False)
    matrix._eig = EigenDecomposition(eigenvalues=lam, vectors=vec)


def eigendecompose(matrix: HermitianMatrix) -> EigenDecomposition:
    """Full eigendecomposition, cached on the matrix instance."""
    if matrix._eig is None:
        _store(matrix, *_jacobi(matrix.entries, want_vectors=True))
    return matrix._eig


def eigendecompose_many(matrices) -> None:
    """Fill the cached decomposition of every matrix not yet decomposed,
    with the bytes ``eigendecompose`` would cache.

    Matrices are grouped by dimension, and each group of at least
    ``BATCH_MIN`` runs through the batched kernel, in near-equal stacks of
    at most ``BATCH_MAX``.  Never raises: a matrix
    in a smaller group, or one that has not converged, is left for
    ``eigendecompose``, which runs the serial kernel, and raises its
    ``NonConvergence``, when the matrix is first read.
    """
    groups: dict[int, dict] = {}
    for matrix in matrices:
        if matrix._eig is None:
            groups.setdefault(matrix.dim, {})[id(matrix)] = matrix
    for group in groups.values():
        if len(group) < BATCH_MIN:
            continue
        members = list(group.values())
        parts = -(-len(members) // BATCH_MAX)
        for j in range(parts):
            stack = members[j * len(members) // parts:(j + 1) * len(members) // parts]
            results = _jacobi_many([m.entries for m in stack], want_vectors=True)
            for matrix, result in zip(stack, results):
                if result is not None:
                    _store(matrix, *result)


def eigenvalues_of(matrix: HermitianMatrix) -> np.ndarray:
    """Eigenvalues (ascending) of the cached full decomposition, so a matrix
    whose vectors are needed later is not decomposed twice."""
    return eigendecompose(matrix).eigenvalues


# ---------------------------------------------------------------------------
# Functional calculus and order comparison
# ---------------------------------------------------------------------------


def apply_scalar_function(matrix: HermitianMatrix, f) -> HermitianMatrix:
    """f(A) by the eigendecomposition route: V diag(f(lambda)) V*.

    Every eigenvalue must lie in f's declared domain; values within
    ``DOMAIN_CLAMP_TOL * ||A||_F`` of a closed boundary are clamped onto it
    first (instance generators intentionally touch boundaries, e.g. A = mI).
    Raises DomainViolation naming the offending eigenvalue otherwise.
    """
    dec = eigendecompose(matrix)
    window = DOMAIN_CLAMP_TOL * matrix.fro_norm
    vals = []
    for lam in dec.eigenvalues:
        t = f.domain.snap(float(lam), window)
        if t is None:
            raise DomainViolation(
                f"eigenvalue {lam!r} outside domain {f.domain} of {f.id}", value=float(lam)
            )
        vals.append(f(t))
    fd = np.asarray(vals, dtype=float)
    out = (dec.vectors * fd) @ dec.vectors.conj().T
    return HermitianMatrix(out)


_POS_PART = None


def positive_part(matrix: HermitianMatrix) -> HermitianMatrix:
    """Functional calculus of t -> max(t, 0); the result is PSD and >= A."""
    global _POS_PART
    if _POS_PART is None:
        from .functions import FunctionDescriptor, Interval

        _POS_PART = FunctionDescriptor(
            id="positive-part",
            domain=Interval.real_line(),
            classes=frozenset({"convex", "non-negative"}),
            eval_fn=lambda t: t if t > 0.0 else 0.0,
        )
    return apply_scalar_function(matrix, _POS_PART)


def spectral_bounds(matrix: HermitianMatrix) -> tuple[float, float]:
    lam = eigenvalues_of(matrix)
    return float(lam[0]), float(lam[-1])


def check_tolerance(tol: float) -> None:
    """A PSD tolerance must be a finite number >= 0."""
    if not 0.0 <= tol < math.inf:
        raise ConfigError(f"tol: must be a finite number >= 0, got {tol!r}")


def check_int(value, name: str, least: int = 0, error=ConfigError) -> int:
    """A count or seed must be an integer (not a bool) >= ``least``; returns
    it, and raises ``error`` otherwise."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise error(f"{name}: must be an integer >= {least}, got {value!r}")
    return value


def check_dims(dims, name: str = "dims") -> tuple:
    """Dimensions to sample at must be a non-empty sequence of integers (not
    bools) in 1..MAX_DIM; returns them as a tuple."""
    dims = tuple(dims)
    if not dims:
        raise ConfigError(f"{name}: must be non-empty")
    for d in dims:
        if not isinstance(d, int) or isinstance(d, bool) or not 1 <= d <= MAX_DIM:
            raise ConfigError(f"{name}: entries must be integers in 1..{MAX_DIM}, got {d!r}")
    return dims


def loewner_leq(a: HermitianMatrix, b: HermitianMatrix, tol: float = DEFAULT_PSD_TOL, *,
                diff: HermitianMatrix | None = None) -> LoewnerVerdict:
    """Compare A and B in the Loewner order via the spectrum of B - A.

    The effective tolerance is ``tol * max(1, ||A||_F + ||B||_F)``, so chains
    mixing terms of very different magnitude are judged consistently.
    ``diff`` is B - A when the caller already holds it, so that its cached
    decomposition is read rather than a fresh difference decomposed.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    check_tolerance(tol)
    if diff is None:
        diff = b - a
    lam = eigenvalues_of(diff)
    lo, hi = float(lam[0]), float(lam[-1])
    eff = tol * max(1.0, a.fro_norm + b.fro_norm)
    leq = lo >= -eff
    geq = hi <= eff
    if leq and geq:
        rel = Relation.EQUAL
    elif leq:
        rel = Relation.LESS_OR_EQUAL
    elif geq:
        rel = Relation.GREATER_OR_EQUAL
    else:
        rel = Relation.INCOMPARABLE
    return LoewnerVerdict(
        relation=rel,
        min_eigenvalue_of_difference=lo,
        max_eigenvalue_of_difference=hi,
        tolerance_used=eff,
    )
