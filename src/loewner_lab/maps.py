"""Positive (unital) linear maps on Hermitian matrices, and families whose
unit images sum to the identity.

Four concrete kinds are shipped: the identity, pinchings onto a block
partition, compressions V* A V by an isometry, and mixed-unitary averages
sum w_j U_j A U_j*.  Together they exercise dimension change, block
structure, and convex mixing.  Families are built from sub-unital members
w_i * Phi_i with positive weights summing to one.

Map specs have one grammar, checked without drawing anything by
:func:`parse_map_spec`.  Single maps, realized by :func:`sample_map`:

    "identity"
    "pinching"                      random block partition
    "pinching:blocks=0,1|2,3"       explicit partition
    "compression"                   random output dimension k in 1..dim
    "compression:k=<int>"
    "mixed"                         two random unitaries
    "mixed:count=<int>"

and families of n maps, realized by :func:`sample_map_family`:

    "family:n=<int>"                n required
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SpecParseError, UnknownKind
from .hermitian import (HermitianMatrix, eigendecompose, eigendecompose_many, eigenvalues_of,
                        gather, stepwise)
from .seeding import as_generator


class PositiveUnitalMap:
    """Base class; concrete kinds implement ``apply`` on raw ndarrays."""

    kind = "abstract"

    def __init__(self, input_dim: int, output_dim: int):
        self.input_dim = int(input_dim)
        self.output_dim = int(output_dim)

    def apply(self, matrix: HermitianMatrix) -> HermitianMatrix:
        if matrix.dim != self.input_dim:
            raise DimensionMismatch(
                f"{self.kind} map expects dim {self.input_dim}, got {matrix.dim}"
            )
        return HermitianMatrix(self._apply_raw(matrix.entries))

    def _apply_raw(self, arr: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class IdentityMap(PositiveUnitalMap):
    kind = "identity"

    def __init__(self, dim: int):
        super().__init__(dim, dim)

    def _apply_raw(self, arr: np.ndarray) -> np.ndarray:
        return arr


class PinchingMap(PositiveUnitalMap):
    """Zero every entry outside the given block partition of indices."""

    kind = "pinching"

    def __init__(self, dim: int, blocks):
        super().__init__(dim, dim)
        blocks = tuple(tuple(int(i) for i in b) for b in blocks)
        misfit = _partition_misfit(blocks, dim)
        if misfit is not None:
            raise SpecParseError(misfit)
        self.blocks = blocks
        mask = np.zeros((dim, dim), dtype=float)
        for b in blocks:
            idx = np.array(b)
            mask[np.ix_(idx, idx)] = 1.0
        self._mask = mask

    def _apply_raw(self, arr: np.ndarray) -> np.ndarray:
        return arr * self._mask


class CompressionMap(PositiveUnitalMap):
    """A -> V* A V for an n x k matrix V.  Unital exactly when V*V = I_k;
    the constructor does not enforce that, so deliberately broken maps can
    be fed to :func:`verify_unital`."""

    kind = "compression"

    def __init__(self, isometry: np.ndarray):
        v = np.asarray(isometry, dtype=np.complex128)
        if v.ndim != 2:
            raise DimensionMismatch("isometry must be a 2-d array")
        super().__init__(v.shape[0], v.shape[1])
        self.isometry = v

    def _apply_raw(self, arr: np.ndarray) -> np.ndarray:
        return self.isometry.conj().T @ arr @ self.isometry


class MixedUnitaryMap(PositiveUnitalMap):
    """A -> sum_j w_j U_j A U_j* with positive weights summing to one."""

    kind = "mixed"

    def __init__(self, weights, unitaries):
        unitaries = [np.asarray(u, dtype=np.complex128) for u in unitaries]
        if not unitaries:
            raise SpecParseError("mixed-unitary map needs at least one unitary")
        dim = unitaries[0].shape[0]
        super().__init__(dim, dim)
        w = np.asarray(weights, dtype=float)
        if w.shape != (len(unitaries),) or np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-12:
            raise SpecParseError("weights must be positive and sum to 1")
        self.weights = w
        self.unitaries = unitaries

    def _apply_raw(self, arr: np.ndarray) -> np.ndarray:
        out = np.zeros_like(arr)
        for w, u in zip(self.weights, self.unitaries):
            out += w * (u @ arr @ u.conj().T)
        return out


class ScaledMap(PositiveUnitalMap):
    """w * Phi for a unital Phi; the sub-unital building block of families."""

    kind = "scaled"

    def __init__(self, weight: float, base: PositiveUnitalMap):
        if weight <= 0:
            raise SpecParseError("scale weight must be positive")
        super().__init__(base.input_dim, base.output_dim)
        self.weight = float(weight)
        self.base = base

    def _apply_raw(self, arr: np.ndarray) -> np.ndarray:
        return self.weight * self.base._apply_raw(arr)


@dataclass(frozen=True)
class MapFamily:
    """Maps Phi_1..Phi_n with sum_i Phi_i(I) = I."""

    maps: tuple

    @property
    def size(self) -> int:
        return len(self.maps)

    @property
    def input_dim(self) -> int:
        return self.maps[0].input_dim

    @property
    def output_dim(self) -> int:
        return self.maps[0].output_dim

    def apply_sum(self, matrices) -> HermitianMatrix:
        """sum_i Phi_i(A_i); pass a single matrix to use it for every i."""
        if isinstance(matrices, HermitianMatrix):
            matrices = [matrices] * self.size
        if len(matrices) != self.size:
            raise DimensionMismatch(f"expected {self.size} matrices, got {len(matrices)}")
        total = np.zeros((self.output_dim, self.output_dim), dtype=np.complex128)
        for phi, a in zip(self.maps, matrices):
            total += phi.apply(a).entries
        return HermitianMatrix(total)

    def unit_sum_deviation(self) -> float:
        eye = HermitianMatrix.identity(self.input_dim)
        s = self.apply_sum(eye)
        return float(np.linalg.norm(s.entries - np.eye(self.output_dim)))


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnitalityReport:
    passed: bool
    unital_deviation: float
    linearity_deviation: float
    positivity_min_eigenvalue: float
    samples: int


def verify_unital(phi: PositiveUnitalMap, samples: int, seed) -> UnitalityReport:
    """Check Phi(I) = I, linearity, and positivity on random inputs.

    Unitality must hold within 1e-12 in Frobenius norm; linearity and
    positivity are checked on ``samples`` random Hermitian / PSD inputs with
    tolerances relative to the sample scale.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = as_generator(seed)
    n = phi.input_dim
    eye_out = np.eye(phi.output_dim)
    unital_dev = float(np.linalg.norm(phi.apply(HermitianMatrix.identity(n)).entries - eye_out))

    lin_dev = 0.0
    positivity = []
    for _ in range(samples):
        a = _random_hermitian(n, rng)
        b = _random_hermitian(n, rng)
        coeff = float(rng.normal())
        lhs = phi.apply(a + coeff * b).entries
        rhs = phi.apply(a).entries + coeff * phi.apply(b).entries
        scale = max(1.0, a.fro_norm + abs(coeff) * b.fro_norm)
        lin_dev = max(lin_dev, float(np.linalg.norm(lhs - rhs)) / scale)

        psd = _random_psd(n, rng)
        positivity.append((psd, phi.apply(psd)))
    eigendecompose_many([image for _, image in positivity])
    pos_min = 0.0
    for psd, image in positivity:
        pos_min = min(pos_min, float(eigenvalues_of(image)[0]) / max(1.0, psd.fro_norm))
    ok = unital_dev <= 1e-12 and lin_dev <= 1e-12 and pos_min >= -1e-12
    return UnitalityReport(
        passed=ok,
        unital_deviation=unital_dev,
        linearity_deviation=lin_dev,
        positivity_min_eigenvalue=pos_min,
        samples=samples,
    )


def _random_hermitian(dim: int, rng: np.random.Generator) -> HermitianMatrix:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianMatrix(g)


def _random_psd(dim: int, rng: np.random.Generator) -> HermitianMatrix:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianMatrix(g @ g.conj().T)


def random_isometry(dim: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Orthonormalized Gaussian columns with phase-fixed R diagonal; Haar
    distributed unitary when k == dim."""
    z = (rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _random_partition(dim: int, rng: np.random.Generator):
    k = int(rng.integers(1, dim + 1))
    labels = rng.integers(0, k, size=dim)
    blocks = [tuple(int(i) for i in np.flatnonzero(labels == lab)) for lab in range(k)]
    blocks = [b for b in blocks if b]
    return tuple(blocks)


def _parse_params(tail: str, spec: str) -> dict:
    params = {}
    if not tail:
        return params
    for piece in tail.split(";"):
        key, sep, value = piece.partition("=")
        if not sep or not key:
            raise SpecParseError(f"bad map parameter {piece!r} in {spec!r}")
        params[key] = value
    return params


# Map kinds and the one parameter each accepts; a family requires its n.
_MAP_PARAMS = {"identity": None, "pinching": "blocks", "compression": "k",
               "mixed": "count", "mixed-unitary": "count", "family": "n"}


def parse_map_spec(spec: str) -> tuple[str, dict]:
    """Check a single-map or family spec string without drawing anything.
    Returns the kind and its typed parameters: ``blocks`` as tuples of
    indices, ``k``, ``count`` and ``n`` as integers >= 1."""
    head, _, tail = str(spec).partition(":")
    if head not in _MAP_PARAMS:
        raise UnknownKind(f"unknown map kind {spec!r}")
    params = _parse_params(tail, spec)
    for key, value in params.items():
        if key != _MAP_PARAMS[head]:
            raise SpecParseError(f"unknown parameter {key!r} in {spec!r}")
        try:
            if key == "blocks":
                params[key] = tuple(tuple(int(i) for i in grp.split(",") if i != "")
                                    for grp in value.split("|"))
            else:
                params[key] = int(value)
        except ValueError:
            raise SpecParseError(f"bad {key} in {spec!r}") from None
        if key != "blocks" and params[key] < 1:
            raise SpecParseError(f"{head} {key} must be >= 1, got {params[key]}")
    if head == "family" and "n" not in params:
        raise SpecParseError(f'"family" requires n=<int>: {spec!r}')
    return head, params


def _partition_misfit(blocks, dim: int) -> str | None:
    """Why ``blocks`` is not a partition of 0..dim-1 into non-empty blocks."""
    seen = sorted(i for b in blocks for i in b)
    if seen != list(range(dim)) or any(len(b) == 0 for b in blocks):
        return f"blocks {blocks} are not a partition of 0..{dim - 1}"
    return None


def map_misfit(spec: str, dim: int) -> str | None:
    """Why ``spec`` is no single map that can act on dim x dim matrices, or
    None when it is one.  A family spec never is; of the single maps, only
    an explicit compression ``k`` and explicit pinching blocks depend on
    the dim."""
    head, params = parse_map_spec(spec)
    if head == "family":
        return "needs a single map, not a family"
    k = params.get("k", 1)
    if k > dim:
        return f"compression k={k} exceeds dim {dim}"
    return _partition_misfit(params["blocks"], dim) if "blocks" in params else None


@stepwise
def sample_map(kind: str, dim: int, seed) -> PositiveUnitalMap:
    """Realize a map from its spec string, deterministic in the seed.

    Random details (partitions, isometries, unitaries, weights) are drawn
    from the seed stream; explicit parameters in the string pin them down.
    As steps, a mixed map draws every Gaussian matrix, then requests them in
    one round and takes their eigenbases as its unitaries.
    """
    if dim < 1:
        raise DimensionMismatch("dim must be >= 1")
    head, params = parse_map_spec(kind)
    misfit = map_misfit(kind, dim)
    if misfit is not None:
        raise SpecParseError(misfit)
    rng = as_generator(seed)
    if head == "identity":
        return IdentityMap(dim)
    if head == "pinching":
        blocks = params["blocks"] if "blocks" in params else _random_partition(dim, rng)
        return PinchingMap(dim, blocks)
    if head == "compression":
        k = params["k"] if "k" in params else int(rng.integers(1, dim + 1))
        return CompressionMap(random_isometry(dim, k, rng))
    count = params.get("count", 2)  # mixed, mixed-unitary
    weights = rng.dirichlet(np.ones(count))
    drawn = [_random_hermitian(dim, rng) for _ in range(count)]
    yield drawn
    return MixedUnitaryMap(weights, [np.asarray(eigendecompose(h).vectors) for h in drawn])


@stepwise
def sample_map_family(n: int, dim: int, seed) -> MapFamily:
    """n sub-unital maps w_i * Phi_i with flat-simplex weights, so the unit
    images sum to the identity.  Base maps keep output dim equal to input
    dim (compressions enter with k = dim, i.e. a unitary rotation).  As
    steps, a member draws nothing after its request, so the members draw in
    turn and request in one round."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = as_generator(seed)
    weights = rng.dirichlet(np.ones(n))
    bases = yield from gather([_family_member_steps(dim, rng) for _ in range(n)])
    return MapFamily(maps=tuple(ScaledMap(float(w), base) for w, base in zip(weights, bases)))


def _family_member_steps(dim: int, rng: np.random.Generator):
    kinds = ("identity", "pinching", "mixed", f"compression:k={dim}")
    return (yield from sample_map.steps(kinds[int(rng.integers(0, len(kinds)))], dim, rng))


def parse_family_spec(spec: str) -> int:
    """The n of a "family:n=<int>" spec."""
    head, params = parse_map_spec(spec)
    if head != "family":
        raise SpecParseError(f"not a family spec: {spec!r}")
    return params["n"]
