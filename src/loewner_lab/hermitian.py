"""Dense Hermitian matrices: arithmetic, eigendecomposition, functional
calculus, and comparison in the positive-semidefinite (Loewner) order.

Everything downstream builds on this module.  Matrices are immutable value
objects; the eigendecomposition is cached on the instance, so asking for the
spectrum, the bounds, and several scalar functions of one matrix costs one
Jacobi run, which yields eigenvalues and vectors together.

The eigensolver is a cyclic Jacobi iteration for complex Hermitian input.
It converges when the off-diagonal Frobenius norm drops below
``JACOBI_CONV_TOL`` times the input norm, within a fixed sweep budget; a
stacked sum of squares decides that for every member at once.
Self-contained and highly accurate at the dimensions this package targets
(1 to 16); not tuned for anything larger.  Its rotation arithmetic is fixed
operation for operation, because every pinned report digest depends on the
last bits of the spectra.

The one rotation loop, ``_jacobi_many``, rotates a stack of same-dimension
matrices in cyclic order, one vectorized update per (p, q) pair, and yields
for every member the bytes it would yield for that member alone.
``eigendecompose_many`` fills the caches of many matrices at once, one stack
per dimension; a matrix read before it was requested is decomposed alone,
as a stack of one.

A stage that reads spectra is written as decomposition steps, a generator
that yields the matrices it is about to read and returns its result.
``drive`` runs steps alone, ``gather`` runs several side by side in rounds
so that what they request is decomposed together, and ``stepwise`` turns
steps into the one-shot function that drives them.
"""

from __future__ import annotations

import enum
import functools
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
        self._entries, self._fro, self._eig = herm, None, None

    @classmethod
    def _trusted(cls, entries: np.ndarray) -> "HermitianMatrix":
        """Wrap entries that symmetrization would return unchanged, bit for bit."""
        out = cls.__new__(cls)
        entries.setflags(write=False)
        out._entries, out._fro, out._eig = entries, None, None
        return out

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def fro_norm(self) -> float:
        if self._fro is None:
            self._fro = float(np.linalg.norm(self._entries))
        return self._fro

    # -- arithmetic -----------------------------------------------------------
    # Sums, differences and positive scalings of symmetrized real or generic
    # complex entries come out symmetrized bit for bit; only the sign of a
    # zero can differ, beside an exactly zero real part.  Negation and other
    # scalings leave -0 in both imaginary parts of a real off-diagonal pair,
    # which symmetrization turns back to +0, so they take the full constructor.

    def __add__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        self._check_dim(other)
        return HermitianMatrix._trusted(self._entries + other._entries)

    def __sub__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        self._check_dim(other)
        return HermitianMatrix._trusted(self._entries - other._entries)

    def __mul__(self, scalar: float) -> "HermitianMatrix":
        scalar = float(scalar)
        return (HermitianMatrix._trusted if scalar > 0.0 else HermitianMatrix)(
            self._entries * scalar)

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
    """``_jacobi_many`` on a stack of one: (eigenvalues ascending, vectors or
    None).  Raises NonConvergence on a norm that is not finite, or if the
    off-diagonal mass has not collapsed within the sweep budget."""
    (result,) = _jacobi_many([matrix], want_vectors)
    if result is None:
        a = np.asarray(matrix, dtype=np.complex128)
        norm = float(np.linalg.norm(a))
        if not math.isfinite(norm):
            raise NonConvergence(f"Frobenius norm is {norm} at dim {a.shape[0]}; no Jacobi "
                                 "sweep ran")
        raise NonConvergence(
            f"Jacobi sweeps exhausted ({JACOBI_SWEEP_BUDGET}) at dim {a.shape[0]}; "
            f"off-diagonal norm still above {JACOBI_CONV_TOL * norm:.3e}"
        )
    return result


def _jacobi_many(stack, want_vectors: bool) -> list:
    """Cyclic Jacobi sweeps on a stack of same-dimension complex Hermitian
    matrices at once, the only rotation loop of this module.

    ``stack`` is a sequence of square arrays of one dimension.  Returns one
    ``(eigenvalues ascending, vectors or None)`` per member, or None for a
    member that has not converged within the sweep budget; it never raises.
    Each member's bytes are those of the reference loop in
    ``tests/jacobi_reference.py``, whichever members share its stack.
    Members rotate in cyclic p < q order, one vectorized update per pair;
    each keeps its own threshold and skip, a member whose (p, q) entry is
    not above its skip sits that rotation out, and a member converges at the
    first sweep that finds its off-diagonal norm below its threshold: its
    stacked sum of squared off-diagonal A entries is below threshold^2
    (1 - 1e-9), or ``_off_norm`` says so for a sum within 1e-9 of threshold^2
    or a threshold^2 outside [1e-280, 1e280].  Either sum of 2n(n - 1)
    non-negative squares is within 2n^2 u (6e-14 at n = 16) of exact, so
    outside the band they agree.  A converged member leaves the stack, the
    members after it moving down in place.  A zero-norm or 1x1 member is its
    own diagonal, and a member whose norm is NaN or overflows is None.

    Member m holds the columns of its ``[A; V]`` as rows ``work[m, j]``, so
    a column update is contiguous and a row update of A strided.  Two
    operations would change the last bits if vectorized naively: ``np.abs``
    of a complex array (``np.hypot`` of its parts matches the scalar
    ``abs``), and complex-by-float division (dividing by ``beta + 0j``
    matches the scalar ``apq / beta``).  A is never updated from V, so the
    eigenvalues do not depend on ``want_vectors``.
    """
    out = [None] * len(stack)
    scales, live = [], []
    for i, a in enumerate(stack):
        a = np.asarray(a, dtype=np.complex128)
        scale = float(np.linalg.norm(a))
        n = a.shape[0]
        if n == 1 or scale == 0.0:
            lam = np.sort(np.diag(a).real.copy()) if n > 1 else np.array([a[0, 0].real])
            out[i] = lam, np.eye(n, dtype=np.complex128) if want_vectors else None
        elif math.isfinite(scale):
            scales.append(scale)
            live.append((i, a))
    if not live:
        return out
    n = live[0][1].shape[0]
    ids = np.array([i for i, _ in live], dtype=np.intp)
    threshold = JACOBI_CONV_TOL * np.array(scales)
    skip = threshold / (2.0 * n)
    sure = (threshold >= 1e-140) & (threshold <= 1e140)
    band = np.where(sure, threshold, np.nan)[:, None] ** 2 * [1.0 - 1e-9, 1.0 + 1e-9]
    off = np.repeat(1.0 - np.eye(n), 2, axis=1)  # A's off-diagonal in a float64 view
    work = np.zeros((ids.size, n, 2 * n if want_vectors else n), dtype=np.complex128)
    for m, (_, a) in enumerate(live):
        work[m, :, :n] = a.T
    if want_vectors:
        work[:, :, n:] = np.eye(n)
    work_real, work_imag, parts = work.real, work.imag, work.view(np.float64)[:, :, :2 * n]

    for _ in range(JACOBI_SWEEP_BUDGET):
        squares = np.einsum("mij,mij,ij->m", parts, parts, off)
        below, above = squares < band[:, 0], squares > band[:, 1]
        kept = 0
        for m in range(ids.size):
            a = work[m, :, :n].T
            if below[m] or not above[m] and _off_norm(a) <= threshold[m]:
                lam = np.diag(a).real.copy()
                order = np.argsort(lam, kind="stable")
                v = np.ascontiguousarray(work[m, :, n:].T[:, order]) if want_vectors else None
                out[ids[m]] = (lam[order], v)
                continue
            if kept < m:  # in place, so that one working array stays live
                for per_member in (work, ids, threshold, skip, band):
                    per_member[kept] = per_member[m]
            kept += 1
        if kept < ids.size:
            if not kept:
                return out
            ids, threshold, skip, band, work = (x[:kept] for x in (ids, threshold, skip, band, work))
            work_real, work_imag, parts = work.real, work.imag, work.view(np.float64)[:, :, :2 * n]
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = work[:, q, p]
                beta = np.hypot(apq.real, apq.imag)
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
                # Numerical hygiene: the rotation zeroes (p, q) exactly and
                # leaves a real diagonal.
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

    Matrices are grouped by dimension, and each group runs through the
    kernel as one stack; the caller's window bounds how many there are.
    Never raises: a matrix that has not converged is left for
    ``eigendecompose``, which raises its ``NonConvergence`` when the matrix
    is first read.
    """
    groups: dict[int, dict] = {}
    for matrix in matrices:
        if matrix._eig is None:
            groups.setdefault(matrix.dim, {})[id(matrix)] = matrix
    for group in groups.values():
        stack = list(group.values())
        results = _jacobi_many([m.entries for m in stack], want_vectors=True)
        for matrix, result in zip(stack, results):
            if result is not None:
                _store(matrix, *result)


def drive(steps):
    """Run decomposition steps alone to their result.

    Steps are a generator (PEP 342) that yields the matrices whose spectra
    it is about to read and returns its result; each yield is decomposed
    with ``eigendecompose_many`` before the steps are resumed."""
    while True:
        try:
            requests = next(steps)
        except StopIteration as stop:
            return stop.value
        eigendecompose_many(requests)


def stepwise(steps):
    """Decorator for a stage written as decomposition steps: the function
    it returns runs them alone with ``drive``, and keeps them as its
    ``steps`` attribute for callers that run several side by side."""
    @functools.wraps(steps)
    def run(*args, **kwargs):
        return drive(steps(*args, **kwargs))

    run.steps = steps
    return run


def gather(steps):
    """Steps that run ``steps`` side by side and return their results in
    order; an error raised in one of them is raised from here.

    Each round advances every unfinished step, in order, to its next request,
    and yields the requests of the round together.  Steps that draw from one
    stream must draw nothing after their first request.
    """
    results = [None] * len(steps)
    live = range(len(steps))
    while live:
        requests, running = [], []
        for i in live:
            try:
                requests.extend(next(steps[i]))
                running.append(i)
            except StopIteration as stop:
                results[i] = stop.value
        if running:
            yield requests
        live = running
    return results


def with_first_request(steps, extra):
    """Steps that run ``steps``, adding ``extra`` to their first request if any."""
    try:
        request = next(steps)
    except StopIteration as stop:
        return stop.value
    yield [*request, *extra]
    return (yield from steps)


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


def positive_part(matrix: HermitianMatrix) -> HermitianMatrix:
    """V max(lambda, 0) V*: PSD and >= A.  A NaN eigenvalue counts as 0, and
    an infinite one raises DomainViolation."""
    dec = eigendecompose(matrix)
    lam = dec.eigenvalues
    if np.isinf(lam).any():
        t = lam[np.isinf(lam)][0]
        raise DomainViolation(f"eigenvalue {t!r} outside domain (-inf, inf) of positive-part",
                              value=float(t))
    out = (dec.vectors * np.where(lam > 0.0, lam, 0.0)) @ dec.vectors.conj().T
    return HermitianMatrix(out)


def spectral_bounds(matrix: HermitianMatrix) -> tuple[float, float]:
    lam = eigenvalues_of(matrix)
    return float(lam[0]), float(lam[-1])


def is_real(x) -> bool:
    """A finite real number that is not a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def check_tolerance(tol: float) -> None:
    """The one PSD tolerance rule, for configs, the CLI and the library: ``is_real``, > 0."""
    if not is_real(tol) or tol <= 0:
        raise ConfigError(f"tol: must be a finite number > 0, got {tol!r}")


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
