"""Random operator tuples satisfying the spectral and sum constraints the
inequality chains assume.

Feasible tuples are measure-zero or rare under naive independent sampling,
so each sampler builds the constraints in by construction:

* ``equal-sum`` quadruples place A at ``mI - positive_part((M+m)I - B - C) - Q``
  and set ``D = B + C - A``, which forces A <= mI and D >= MI exactly.
* ``sum-leq`` / ``sum-geq`` quadruples use the analogous positive-part shift
  on one endpoint, then add a small strict PSD margin.

All sampling is deterministic in ``(parameters, seed)`` through splittable
counter-based streams; parallel campaigns reproduce serial output.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInterval, ExhaustedRetries, ShapeMismatch
from .hermitian import (
    HermitianMatrix,
    Relation,
    loewner_leq,
    positive_part,
    spectral_bounds,
)
from .maps import MapFamily, parse_family_spec, random_isometry, sample_map_family
from .seeding import as_generator
from .serialize import digest

MAX_RETRIES = 1000


class SumRelation(enum.Enum):
    EQUAL = "equal-sum"
    SUM_LEQ = "sum-leq"  # B + C <= A + D
    SUM_GEQ = "sum-geq"  # A + D <= B + C

    @classmethod
    def from_string(cls, s: str) -> "SumRelation":
        for rel in cls:
            if rel.value == s:
                return rel
        raise ShapeMismatch(f"unknown sum relation {s!r}")


@dataclass(frozen=True)
class QuadrupleInstance:
    """Operators A <= m <= B, C <= M <= D with a declared sum relation."""

    A: HermitianMatrix
    B: HermitianMatrix
    C: HermitianMatrix
    D: HermitianMatrix
    m: float
    M: float
    relation: SumRelation
    nonneg_A: bool = False

    @property
    def dim(self) -> int:
        return self.A.dim

    def to_dict(self) -> dict:
        return {
            "A": self.A.to_dict(),
            "B": self.B.to_dict(),
            "C": self.C.to_dict(),
            "D": self.D.to_dict(),
            "m": float(self.m),
            "M": float(self.M),
            "relation": self.relation.value,
            "nonneg_A": self.nonneg_A,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "QuadrupleInstance":
        return cls(
            A=HermitianMatrix.from_dict(obj["A"]),
            B=HermitianMatrix.from_dict(obj["B"]),
            C=HermitianMatrix.from_dict(obj["C"]),
            D=HermitianMatrix.from_dict(obj["D"]),
            m=float(obj["m"]),
            M=float(obj["M"]),
            relation=SumRelation.from_string(obj.get("relation", "equal-sum")),
            nonneg_A=bool(obj.get("nonneg_A", False)),
        )

    def digest(self) -> str:
        return digest(self.to_dict())


@dataclass(frozen=True)
class MercerInstance:
    """Operators B_1..B_n with spectra in [m, M] plus a map family.

    The reflected operators C_i = (M+m)I - B_i automatically land in [m, M];
    they are derived, not stored.  ``family_spec``/``family_seed`` record how
    the family was realized so files round-trip exactly.
    """

    B_list: tuple
    m: float
    M: float
    family: MapFamily
    family_spec: str = ""
    family_seed: int = 0

    @property
    def size(self) -> int:
        return len(self.B_list)

    @property
    def dim(self) -> int:
        return self.B_list[0].dim

    def reflected(self, i: int) -> HermitianMatrix:
        return (self.M + self.m) * HermitianMatrix.identity(self.dim) - self.B_list[i]

    def to_dict(self) -> dict:
        return {
            "B_list": [b.to_dict() for b in self.B_list],
            "m": float(self.m),
            "M": float(self.M),
            "family": self.family_spec or f"family:n={self.size}",
            "family_seed": int(self.family_seed),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "MercerInstance":
        b_list = tuple(HermitianMatrix.from_dict(it) for it in obj["B_list"])
        spec = obj.get("family", f"family:n={len(b_list)}")
        seed = int(obj.get("family_seed", 0))
        n = parse_family_spec(spec)
        if n != len(b_list):
            raise ShapeMismatch(f"family size {n} does not match {len(b_list)} operators")
        family = sample_map_family(n, b_list[0].dim, seed)
        return cls(B_list=b_list, m=float(obj["m"]), M=float(obj["M"]),
                   family=family, family_spec=spec, family_seed=seed)

    def digest(self) -> str:
        return digest(self.to_dict())


@dataclass(frozen=True)
class MidpointInstance:
    """A pair with A <= m <= (A+D)/2 <= M <= D."""

    A: HermitianMatrix
    D: HermitianMatrix
    m: float
    M: float
    nonneg_A: bool = False

    @property
    def dim(self) -> int:
        return self.A.dim

    def midpoint(self) -> HermitianMatrix:
        return 0.5 * (self.A + self.D)

    def to_dict(self) -> dict:
        return {
            "A": self.A.to_dict(),
            "D": self.D.to_dict(),
            "m": float(self.m),
            "M": float(self.M),
            "nonneg_A": self.nonneg_A,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "MidpointInstance":
        return cls(
            A=HermitianMatrix.from_dict(obj["A"]),
            D=HermitianMatrix.from_dict(obj["D"]),
            m=float(obj["m"]),
            M=float(obj["M"]),
            nonneg_A=bool(obj.get("nonneg_A", False)),
        )

    def digest(self) -> str:
        return digest(self.to_dict())


@dataclass(frozen=True)
class MultiQuadrupleInstance:
    """n equal-sum quadruples sharing (m, M), plus a matching map family."""

    quadruples: tuple
    m: float
    M: float
    family: MapFamily
    family_spec: str = ""
    family_seed: int = 0

    @property
    def size(self) -> int:
        return len(self.quadruples)

    @property
    def dim(self) -> int:
        return self.quadruples[0].dim

    def to_dict(self) -> dict:
        return {
            "quadruples": [q.to_dict() for q in self.quadruples],
            "m": float(self.m),
            "M": float(self.M),
            "family": self.family_spec or f"family:n={self.size}",
            "family_seed": int(self.family_seed),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "MultiQuadrupleInstance":
        quads = tuple(QuadrupleInstance.from_dict(it) for it in obj["quadruples"])
        spec = obj.get("family", f"family:n={len(quads)}")
        seed = int(obj.get("family_seed", 0))
        n = parse_family_spec(spec)
        if n != len(quads):
            raise ShapeMismatch(f"family size {n} does not match {len(quads)} quadruples")
        family = sample_map_family(n, quads[0].dim, seed)
        return cls(quadruples=quads, m=float(obj["m"]), M=float(obj["M"]),
                   family=family, family_spec=spec, family_seed=seed)

    def digest(self) -> str:
        return digest(self.to_dict())


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


def sample_sandwiched_matrix(dim: int, lo: float, hi: float, seed) -> HermitianMatrix:
    """Random Hermitian matrix with eigenvalues drawn uniformly from
    [lo, hi], conjugated by a Haar unitary."""
    if lo > hi:
        raise DegenerateInterval(f"need lo <= hi, got [{lo}, {hi}]")
    rng = as_generator(seed)
    lam = rng.uniform(lo, hi, size=dim)
    if dim == 1:
        return HermitianMatrix([[lam[0]]])
    u = random_isometry(dim, dim, rng)
    return HermitianMatrix((u * lam) @ u.conj().T)


def _sample_psd_bounded(dim: int, max_norm: float, rng: np.random.Generator) -> HermitianMatrix:
    """PSD matrix with operator norm at most max_norm (eigenvalues uniform
    in [0, max_norm]); a non-positive cap gives zero and draws nothing."""
    if max_norm <= 0.0:
        return HermitianMatrix.zero(dim)
    return sample_sandwiched_matrix(dim, 0.0, max_norm, rng)


def default_q_scale(m: float, M: float) -> float:
    """Default spread of A below m and D above M: a quarter interval width
    keeps chain gaps well-scaled."""
    return 0.25 * (M - m)


def sample_quadruple(
    dim: int,
    m: float,
    M: float,
    relation: SumRelation | str = SumRelation.EQUAL,
    nonneg_A: bool = False,
    seed=0,
    q_scale: float | None = None,
) -> QuadrupleInstance:
    """Quadruple with B, C sandwiched in [m, M], A below m, D above M, and
    the requested sum relation holding exactly by construction.

    With ``nonneg_A`` the shift below m is capped so A stays PSD; parameter
    combinations that leave no room (for example a positive-part shift
    already larger than m) are resampled, up to MAX_RETRIES.
    """
    if isinstance(relation, str):
        relation = SumRelation.from_string(relation)
    if M <= m:
        raise DegenerateInterval(f"need m < M, got m={m}, M={M}")
    if nonneg_A and m <= 0:
        raise DegenerateInterval(f"nonneg_A requires m > 0, got m={m}")
    rng = as_generator(seed)
    if q_scale is None:
        q_scale = default_q_scale(m, M)
    eye = HermitianMatrix.identity(dim)

    for _ in range(MAX_RETRIES):
        B = sample_sandwiched_matrix(dim, m, M, rng)
        C = sample_sandwiched_matrix(dim, m, M, rng)
        S = B + C

        if relation is SumRelation.EQUAL:
            P0 = positive_part((M + m) * eye - S)
            cap = _shift_cap(P0, m, q_scale, nonneg_A)
            if cap is None:
                continue
            Q = _sample_psd_bounded(dim, cap, rng)
            A = m * eye - P0 - Q
            D = S - A
        elif relation is SumRelation.SUM_LEQ:
            cap = q_scale if not nonneg_A else min(q_scale, m)
            P_A = _sample_psd_bounded(dim, cap, rng)
            A = m * eye - P_A
            lift = positive_part(S - A - M * eye)
            D = M * eye + lift + _sample_psd_bounded(dim, q_scale, rng)
        else:  # SUM_GEQ: A + D <= B + C
            D = M * eye + _sample_psd_bounded(dim, q_scale, rng)
            P0 = positive_part(D + m * eye - S)
            cap = _shift_cap(P0, m, q_scale, nonneg_A)
            if cap is None:
                continue
            A = m * eye - P0 - _sample_psd_bounded(dim, cap, rng)

        inst = QuadrupleInstance(A=A, B=B, C=C, D=D, m=m, M=M,
                                 relation=relation, nonneg_A=nonneg_A)
        if nonneg_A and spectral_bounds(A)[0] < 0.0:
            continue
        return inst
    raise ExhaustedRetries(
        f"could not satisfy {relation.value} with nonneg_A={nonneg_A} at dim {dim}, "
        f"m={m}, M={M} within {MAX_RETRIES} attempts"
    )


def _shift_cap(p0: HermitianMatrix, m: float, q_scale: float, nonneg: bool) -> float | None:
    """Largest extra PSD norm allowed below m; None when even P0 overshoots."""
    if not nonneg:
        return q_scale
    room = m - spectral_bounds(p0)[1]
    if room <= 0.0:
        return None
    return min(q_scale, room)


def sample_midpoint(dim: int, m: float, M: float, nonneg_A: bool = False, seed=0,
                    q_scale: float | None = None) -> MidpointInstance:
    """Pair (A, D) with A <= m <= (A+D)/2 <= M <= D.

    With shifts bounded by a quarter interval width the midpoint lands in
    [m, M] automatically, so no rejection is needed."""
    if M <= m:
        raise DegenerateInterval(f"need m < M, got m={m}, M={M}")
    if nonneg_A and m <= 0:
        raise DegenerateInterval(f"nonneg_A requires m > 0, got m={m}")
    rng = as_generator(seed)
    if q_scale is None:
        q_scale = default_q_scale(m, M)
    q_scale = min(q_scale, M - m)
    eye = HermitianMatrix.identity(dim)
    cap = q_scale if not nonneg_A else min(q_scale, m)
    A = m * eye - _sample_psd_bounded(dim, cap, rng)
    D = M * eye + _sample_psd_bounded(dim, q_scale, rng)
    return MidpointInstance(A=A, D=D, m=m, M=M, nonneg_A=nonneg_A)


def sample_mercer_family(n: int, dim: int, m: float, M: float, seed=0) -> MercerInstance:
    if M <= m:
        raise DegenerateInterval(f"need m < M, got m={m}, M={M}")
    rng = as_generator(seed)
    b_list = tuple(sample_sandwiched_matrix(dim, m, M, rng) for _ in range(n))
    family_seed = int(rng.integers(0, 2**62))
    family = sample_map_family(n, dim, family_seed)
    return MercerInstance(B_list=b_list, m=m, M=M, family=family,
                          family_spec=f"family:n={n}", family_seed=family_seed)


def sample_quadruple_family(
    n: int, dim: int, m: float, M: float, nonneg_A: bool = False, seed=0
) -> MultiQuadrupleInstance:
    """n equal-sum quadruples sharing (m, M) plus a map family of size n."""
    rng = as_generator(seed)
    quads = tuple(
        sample_quadruple(dim, m, M, SumRelation.EQUAL, nonneg_A=nonneg_A, seed=rng)
        for _ in range(n)
    )
    family_seed = int(rng.integers(0, 2**62))
    family = sample_map_family(n, dim, family_seed)
    return MultiQuadrupleInstance(quadruples=quads, m=m, M=M, family=family,
                                  family_spec=f"family:n={n}", family_seed=family_seed)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_instance(inst, tol: float = 1e-10) -> list[str]:
    """Check every invariant of the instance numerically.

    Returns a list of violation strings (empty means valid); each names the
    constraint and the offending eigenvalue.  Spectral bounds use a
    tolerance relative to max(1, |m|, |M|); sum relations use the Loewner
    comparison at ``tol``.
    """
    if isinstance(inst, QuadrupleInstance):
        return _validate_quadruple(inst, tol)
    if isinstance(inst, MercerInstance):
        return _validate_mercer(inst, tol)
    if isinstance(inst, MidpointInstance):
        return _validate_midpoint(inst, tol)
    if isinstance(inst, MultiQuadrupleInstance):
        out = []
        for i, q in enumerate(inst.quadruples):
            if q.relation is not SumRelation.EQUAL:
                out.append(f"quadruple[{i}] relation is {q.relation.value}, expected equal-sum")
            out.extend(f"quadruple[{i}]: {v}" for v in _validate_quadruple(q, tol))
        if abs(inst.m - inst.quadruples[0].m) > 0 or abs(inst.M - inst.quadruples[0].M) > 0:
            out.append("shared (m, M) differs from member quadruples")
        dev = inst.family.unit_sum_deviation()
        if dev > 1e-12:
            out.append(f"family unit images sum to I off by {dev:.3e}")
        if inst.family.size != inst.size:
            out.append(f"family size {inst.family.size} != {inst.size} quadruples")
        return out
    raise ShapeMismatch(f"cannot validate object of type {type(inst).__name__}")


def _eps(inst_m: float, inst_M: float, tol: float) -> float:
    return tol * max(1.0, abs(inst_m), abs(inst_M))


def _validate_quadruple(inst: QuadrupleInstance, tol: float) -> list[str]:
    out: list[str] = []
    eps = _eps(inst.m, inst.M, tol)
    for name, mat in (("A", inst.A), ("B", inst.B), ("C", inst.C), ("D", inst.D)):
        if mat.dim != inst.dim:
            out.append(f"{name} has dim {mat.dim}, expected {inst.dim}")
    lo_a, hi_a = spectral_bounds(inst.A)
    if hi_a > inst.m + eps:
        out.append(f"lambda_max(A) > m: {hi_a!r} > {inst.m!r}")
    if inst.nonneg_A and lo_a < -eps:
        out.append(f"lambda_min(A) < 0: {lo_a!r}")
    for name, mat in (("B", inst.B), ("C", inst.C)):
        lo, hi = spectral_bounds(mat)
        if lo < inst.m - eps:
            out.append(f"lambda_min({name}) < m: {lo!r} < {inst.m!r}")
        if hi > inst.M + eps:
            out.append(f"lambda_max({name}) > M: {hi!r} > {inst.M!r}")
    lo_d, _ = spectral_bounds(inst.D)
    if lo_d < inst.M - eps:
        out.append(f"lambda_min(D) < M: {lo_d!r} < {inst.M!r}")

    sum_bc = inst.B + inst.C
    sum_ad = inst.A + inst.D
    verdict = loewner_leq(sum_bc, sum_ad, tol)
    if inst.relation is SumRelation.EQUAL and verdict.relation is not Relation.EQUAL:
        out.append(
            f"A+D = B+C violated: spectrum of difference in "
            f"[{verdict.min_eigenvalue_of_difference!r}, {verdict.max_eigenvalue_of_difference!r}]"
        )
    elif inst.relation is SumRelation.SUM_LEQ and not verdict.is_leq:
        out.append(f"B+C <= A+D violated: min eig {verdict.min_eigenvalue_of_difference!r}")
    elif inst.relation is SumRelation.SUM_GEQ and not verdict.is_geq:
        out.append(f"A+D <= B+C violated: max eig {verdict.max_eigenvalue_of_difference!r}")
    return out


def _validate_mercer(inst: MercerInstance, tol: float) -> list[str]:
    out: list[str] = []
    eps = _eps(inst.m, inst.M, tol)
    for i, b in enumerate(inst.B_list):
        lo, hi = spectral_bounds(b)
        if lo < inst.m - eps:
            out.append(f"lambda_min(B_{i}) < m: {lo!r} < {inst.m!r}")
        if hi > inst.M + eps:
            out.append(f"lambda_max(B_{i}) > M: {hi!r} > {inst.M!r}")
    dev = inst.family.unit_sum_deviation()
    if dev > 1e-12:
        out.append(f"family unit images sum to I off by {dev:.3e}")
    if inst.family.size != inst.size:
        out.append(f"family size {inst.family.size} != {inst.size} operators")
    if inst.family.input_dim != inst.dim:
        out.append(f"family input dim {inst.family.input_dim} != {inst.dim}")
    return out


def _validate_midpoint(inst: MidpointInstance, tol: float) -> list[str]:
    out: list[str] = []
    eps = _eps(inst.m, inst.M, tol)
    lo_a, hi_a = spectral_bounds(inst.A)
    if hi_a > inst.m + eps:
        out.append(f"lambda_max(A) > m: {hi_a!r} > {inst.m!r}")
    if inst.nonneg_A and lo_a < -eps:
        out.append(f"lambda_min(A) < 0: {lo_a!r}")
    lo_d, _ = spectral_bounds(inst.D)
    if lo_d < inst.M - eps:
        out.append(f"lambda_min(D) < M: {lo_d!r} < {inst.M!r}")
    w = inst.midpoint()
    lo_w, hi_w = spectral_bounds(w)
    if lo_w < inst.m - eps:
        out.append(f"lambda_min((A+D)/2) < m: {lo_w!r} < {inst.m!r}")
    if hi_w > inst.M + eps:
        out.append(f"lambda_max((A+D)/2) > M: {hi_w!r} > {inst.M!r}")
    return out


def instance_from_dict(obj: dict):
    """Dispatch on the keys of an instance file object."""
    if "quadruples" in obj:
        return MultiQuadrupleInstance.from_dict(obj)
    if "B_list" in obj:
        return MercerInstance.from_dict(obj)
    if "B" in obj:
        return QuadrupleInstance.from_dict(obj)
    if "A" in obj and "D" in obj:
        return MidpointInstance.from_dict(obj)
    raise ShapeMismatch("unrecognized instance file layout")
