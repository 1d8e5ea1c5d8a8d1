"""Random operator tuples satisfying the spectral and sum constraints the
inequality chains assume.

Feasible tuples are measure-zero or rare under naive independent sampling,
so each sampler builds the constraints in by construction:

* ``equal-sum`` quadruples place A at ``mI - positive_part((M+m)I - B - C) - Q``
  and set ``D = B + C - A``, which forces A <= mI and D >= MI exactly.
* ``sum-leq`` / ``sum-geq`` quadruples use the analogous positive-part shift
  on one endpoint, then add a small strict PSD margin.

All sampling is deterministic in ``(parameters, seed)`` through splittable
counter-based streams, whatever order instances are drawn in.  Samplers and
validation are decomposition steps (see ``hermitian.gather``): each sampler
makes its draws in one fixed order, and requests a spectrum before it reads
it, after every draw that does not depend on it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import DegenerateInterval, ExhaustedRetries, ShapeMismatch
from .hermitian import (
    DEFAULT_PSD_TOL,
    HermitianMatrix,
    Relation,
    check_int,
    gather,
    is_real,
    loewner_leq,
    positive_part,
    spectral_bounds,
    stepwise,
)
from .maps import UNIT_SUM_TOL, MapFamily, check_family, random_isometry, sample_map_family
from .seeding import as_generator
from .serialize import digest

MAX_RETRIES = 1000
# Spread of A below m and D above M as a share of M - m: a quarter interval
# width keeps chain gaps well-scaled.
SHIFT_SHARE = 0.25


class SumRelation(enum.Enum):
    EQUAL = "equal-sum"
    SUM_LEQ = "sum-leq"  # B + C <= A + D
    SUM_GEQ = "sum-geq"  # A + D <= B + C


# How instance files hold a field, by its annotation (a string in this module):
# matrices and member quadruples as their own objects, bounds as floats.
_ENCODERS = {"HermitianMatrix": HermitianMatrix.to_dict, "float": float, "int": int,
             "bool": bool, "tuple": lambda items: [it.to_dict() for it in items],
             "SumRelation": lambda relation: relation.value}


class _Instance:
    """Behaviour shared by every instance kind."""

    def to_dict(self) -> dict:
        """The instance file object, one key per field; a map family is
        written as the ``family`` spec and ``family_seed`` it is realized from."""
        out = {}
        for fld in fields(self):
            if fld.name == "family":
                out["family"] = self.family_spec or f"family:n={self.size}"
            elif fld.name != "family_spec":
                out[fld.name] = _ENCODERS[fld.type](getattr(self, fld.name))
        return out

    def digest(self) -> str:
        return digest(self.to_dict())

    def _bound_violations(self, name: str, mat: HermitianMatrix, tol: float, lower=None,
                          upper=None, nonneg: bool = False) -> list[str]:
        """Violations of lower <= X <= upper, each bound the name of the
        field m or M (or None), and with ``nonneg`` of X >= 0; checked in
        that order at a tolerance relative to max(1, |m|, |M|)."""
        eps = tol * max(1.0, abs(self.m), abs(self.M))
        lo, hi = spectral_bounds(mat)
        out = []
        if lower is not None and lo < getattr(self, lower) - eps:
            out.append(f"lambda_min({name}) < {lower}: {lo!r} < {getattr(self, lower)!r}")
        if upper is not None and hi > getattr(self, upper) + eps:
            out.append(f"lambda_max({name}) > {upper}: {hi!r} > {getattr(self, upper)!r}")
        if nonneg and lo < -eps:
            out.append(f"lambda_min({name}) < 0: {lo!r}")
        return out


@dataclass(frozen=True, kw_only=True)
class _FamilyInstance(_Instance):
    """An instance carrying a map family, recorded in files as the
    ``(family_spec, family_seed)`` pair it is realized from."""

    family: MapFamily
    family_spec: str = ""
    family_seed: int = 0

    @staticmethod
    def _family_from_dict(obj: dict, members: tuple) -> dict:
        spec = obj.get("family", f"family:n={len(members)}")
        seed = check_int(obj.get("family_seed", 0), '"family_seed"', error=ShapeMismatch)
        check_family(spec, len(members), error=ShapeMismatch)
        return {"family": sample_map_family(len(members), members[0].dim, seed),
                "family_spec": spec, "family_seed": seed}

    def _family_violations(self, noun: str) -> list[str]:
        out = []
        dev = self.family.unit_sum_deviation()
        if dev > UNIT_SUM_TOL:
            out.append(f"family unit images sum to I off by {dev:.3e}")
        if self.family.size != self.size:
            out.append(f"family size {self.family.size} != {self.size} {noun}")
        return out


def _family_steps(n: int, dim: int, rng: np.random.Generator):
    """Steps to the family fields of a sampled instance, drawn last from ``rng``."""
    seed = int(rng.integers(0, 2**62))
    return {"family": (yield from sample_map_family.steps(n, dim, seed)),
            "family_spec": f"family:n={n}", "family_seed": seed}


@dataclass(frozen=True)
class QuadrupleInstance(_Instance):
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

    @classmethod
    def from_dict(cls, obj: dict) -> "QuadrupleInstance":
        parts = _fields(obj, "A", "B", "C", "D")
        relation = obj.get("relation", "equal-sum")
        try:
            relation = SumRelation(relation)
        except ValueError:
            raise ShapeMismatch(f"unknown sum relation {relation!r}") from None
        return cls(**parts, relation=relation, nonneg_A=_flag(obj, "nonneg_A"))

    @cached_property
    def _sum_sides(self) -> tuple:
        lhs, rhs = self.B + self.C, self.A + self.D
        return lhs, rhs, rhs - lhs

    def sum_verdict(self, tol: float):
        """B+C against A+D in the Loewner order.  The difference is built
        once per instance, so validation and a chain's sum hypothesis read
        one decomposition of it."""
        lhs, rhs, diff = self._sum_sides
        return loewner_leq(lhs, rhs, tol, diff=diff)

    def _violations(self, tol: float):
        yield self.A, self.B, self.C, self.D, self._sum_sides[2]
        named = (("A", self.A), ("B", self.B), ("C", self.C), ("D", self.D))
        out = [f"{name} has dim {mat.dim}, expected {self.dim}"
               for name, mat in named if mat.dim != self.dim]
        out += self._bound_violations("A", self.A, tol, upper="m", nonneg=self.nonneg_A)
        out += self._bound_violations("B", self.B, tol, lower="m", upper="M")
        out += self._bound_violations("C", self.C, tol, lower="m", upper="M")
        out += self._bound_violations("D", self.D, tol, lower="M")

        verdict = self.sum_verdict(tol)
        lo, hi = verdict.min_eigenvalue_of_difference, verdict.max_eigenvalue_of_difference
        if self.relation is SumRelation.EQUAL and verdict.relation is not Relation.EQUAL:
            out.append(f"A+D = B+C violated: spectrum of difference in [{lo!r}, {hi!r}]")
        elif self.relation is SumRelation.SUM_LEQ and not verdict.is_leq:
            out.append(f"B+C <= A+D violated: min eig {lo!r}")
        elif self.relation is SumRelation.SUM_GEQ and not verdict.is_geq:
            out.append(f"A+D <= B+C violated: max eig {hi!r}")
        return out


@dataclass(frozen=True)
class MercerInstance(_FamilyInstance):
    """Operators B_1..B_n with spectra in [m, M] plus a map family.

    The reflected operators C_i = (M+m)I - B_i automatically land in [m, M];
    they are derived, not stored.
    """

    B_list: tuple
    m: float
    M: float

    @property
    def size(self) -> int:
        return len(self.B_list)

    @property
    def dim(self) -> int:
        return self.B_list[0].dim

    def reflected(self, i: int) -> HermitianMatrix:
        return (self.M + self.m) * HermitianMatrix.identity(self.dim) - self.B_list[i]

    @classmethod
    def from_dict(cls, obj: dict) -> "MercerInstance":
        b_list = tuple(HermitianMatrix.from_dict(it) for it in _objects(obj, "B_list"))
        return cls(B_list=b_list, **_fields(obj),
                   **cls._family_from_dict(obj, b_list))

    def _violations(self, tol: float):
        yield self.B_list
        out: list[str] = []
        for i, b in enumerate(self.B_list):
            out += self._bound_violations(f"B_{i}", b, tol, lower="m", upper="M")
        out += self._family_violations("operators")
        if self.family.input_dim != self.dim:
            out.append(f"family input dim {self.family.input_dim} != {self.dim}")
        return out


@dataclass(frozen=True)
class MidpointInstance(_Instance):
    """A pair with A <= m <= (A+D)/2 <= M <= D."""

    A: HermitianMatrix
    D: HermitianMatrix
    m: float
    M: float
    nonneg_A: bool = False

    @property
    def dim(self) -> int:
        return self.A.dim

    @cached_property
    def midpoint(self) -> HermitianMatrix:
        return 0.5 * (self.A + self.D)

    @classmethod
    def from_dict(cls, obj: dict) -> "MidpointInstance":
        return cls(**_fields(obj, "A", "D"),
                   nonneg_A=_flag(obj, "nonneg_A"))

    def _violations(self, tol: float):
        yield self.A, self.D, self.midpoint
        return (self._bound_violations("A", self.A, tol, upper="m", nonneg=self.nonneg_A)
                + self._bound_violations("D", self.D, tol, lower="M")
                + self._bound_violations("(A+D)/2", self.midpoint, tol, lower="m", upper="M"))


@dataclass(frozen=True)
class MultiQuadrupleInstance(_FamilyInstance):
    """n equal-sum quadruples sharing (m, M), plus a matching map family."""

    quadruples: tuple
    m: float
    M: float

    @property
    def size(self) -> int:
        return len(self.quadruples)

    @property
    def dim(self) -> int:
        return self.quadruples[0].dim

    @classmethod
    def from_dict(cls, obj: dict) -> "MultiQuadrupleInstance":
        quads = tuple(QuadrupleInstance.from_dict(it) for it in _objects(obj, "quadruples"))
        return cls(quadruples=quads, **_fields(obj),
                   **cls._family_from_dict(obj, quads))

    def _violations(self, tol: float):
        found = yield from gather([q._violations(tol) for q in self.quadruples])
        out = []
        for i, (q, violations) in enumerate(zip(self.quadruples, found)):
            if q.relation is not SumRelation.EQUAL:
                out.append(f"quadruple[{i}] relation is {q.relation.value}, expected equal-sum")
            out.extend(f"quadruple[{i}]: {v}" for v in violations)
        if any(q.m != self.m or q.M != self.M for q in self.quadruples):
            out.append("shared (m, M) differs from member quadruples")
        return out + self._family_violations("quadruples")


@stepwise
def validate_instance(inst, tol: float = DEFAULT_PSD_TOL) -> list[str]:
    """Check every invariant of the instance numerically.

    Returns a list of violation strings (empty means valid); each names the
    constraint and the offending eigenvalue.  Spectral bounds use a
    tolerance relative to max(1, |m|, |M|); sum relations use the Loewner
    comparison at ``tol``.  Its steps request every matrix whose spectrum
    it reads in one round.
    """
    if not isinstance(inst, _Instance):
        raise ShapeMismatch(f"cannot validate object of type {type(inst).__name__}")
    return (yield from inst._violations(tol))


def _fields(obj, *keys: str) -> dict:
    """The bounds m and M of an instance file object, each a finite number,
    and its matrices named by ``keys``."""
    for key in ("m", "M"):
        v = obj.get(key)
        if not is_real(v):
            raise ShapeMismatch(f'"{key}": must be a finite number, got {v!r}')
    missing = [key for key in keys if key not in obj]
    if missing:
        raise ShapeMismatch(f"instance lacks matrix field(s): {', '.join(missing)}")
    return {"m": float(obj["m"]), "M": float(obj["M"]),
            **{key: HermitianMatrix.from_dict(obj[key]) for key in keys}}


def _flag(obj: dict, key: str) -> bool:
    """An optional JSON bool, false when absent."""
    v = obj.get(key, False)
    if not isinstance(v, bool):
        raise ShapeMismatch(f'"{key}": must be true or false, got {v!r}')
    return v


def _objects(obj: dict, key: str) -> list:
    items = obj[key]
    if not isinstance(items, list) or not all(isinstance(it, dict) for it in items):
        raise ShapeMismatch(f'"{key}": must be a list of JSON objects, got {items!r}')
    return items


def instance_from_dict(obj: dict):
    """Dispatch on the keys of an instance file object."""
    if not isinstance(obj, dict):
        raise ShapeMismatch(f"instance must be a JSON object, got {type(obj).__name__}")
    if "quadruples" in obj:
        return MultiQuadrupleInstance.from_dict(obj)
    if "B_list" in obj:
        return MercerInstance.from_dict(obj)
    if "B" in obj:
        return QuadrupleInstance.from_dict(obj)
    if "A" in obj and "D" in obj:
        return MidpointInstance.from_dict(obj)
    raise ShapeMismatch("unrecognized instance file layout")


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


def _check_interval(m: float, M: float, nonneg_A: bool = False) -> None:
    if M <= m:
        raise DegenerateInterval(f"need m < M, got m={m}, M={M}")
    if nonneg_A and m <= 0:
        raise DegenerateInterval(f"nonneg_A requires m > 0, got m={m}")


@stepwise
def sample_quadruple(dim: int, m: float, M: float, relation: SumRelation = SumRelation.EQUAL,
                     nonneg_A: bool = False, seed=0) -> QuadrupleInstance:
    """Quadruple with B, C sandwiched in [m, M], A below m, D above M, and
    the requested sum relation holding exactly by construction.

    With ``nonneg_A`` the shift below m is capped so A stays PSD; parameter
    combinations that leave no room (for example a positive-part shift
    already larger than m) are resampled, up to MAX_RETRIES.

    As steps: without ``nonneg_A`` no draw depends on a spectrum, so the one
    attempt makes every draw before its one request.  With it, the cap reads
    lambda_max(P0) before Q is drawn and A >= 0 is checked, so each attempt
    requests one matrix at a time.
    """
    _check_interval(m, M, nonneg_A)
    rng = as_generator(seed)
    spread = SHIFT_SHARE * (M - m)
    eye = HermitianMatrix.identity(dim)

    for _ in range(MAX_RETRIES):
        B = sample_sandwiched_matrix(dim, m, M, rng)
        C = sample_sandwiched_matrix(dim, m, M, rng)
        S = B + C

        if relation is SumRelation.SUM_LEQ:
            cap = spread if not nonneg_A else min(spread, m)
            A = m * eye - _sample_psd_bounded(dim, cap, rng)
            margin = _sample_psd_bounded(dim, spread, rng)
            excess = S - A - M * eye
            yield (excess,)
            D = M * eye + positive_part(excess) + margin
        else:  # EQUAL places A below P0 and sets D = S - A; SUM_GEQ draws D first
            D = None
            if relation is SumRelation.SUM_GEQ:
                D = M * eye + _sample_psd_bounded(dim, spread, rng)
            shifted = (M + m) * eye - S if D is None else D + m * eye - S
            if nonneg_A:
                yield (shifted,)
                P0 = positive_part(shifted)
                yield (P0,)
                cap = min(spread, m - spectral_bounds(P0)[1])
                if cap <= 0.0:  # even P0 overshoots m
                    continue
                Q = _sample_psd_bounded(dim, cap, rng)
            else:
                Q = _sample_psd_bounded(dim, spread, rng)
                yield (shifted,)
                P0 = positive_part(shifted)
            A = m * eye - P0 - Q
            if D is None:
                D = S - A

        if nonneg_A:
            yield (A,)
            if spectral_bounds(A)[0] < 0.0:
                continue
        return QuadrupleInstance(A=A, B=B, C=C, D=D, m=m, M=M,
                                 relation=relation, nonneg_A=nonneg_A)
    raise ExhaustedRetries(
        f"could not satisfy {relation.value} with nonneg_A={nonneg_A} at dim {dim}, "
        f"m={m}, M={M} within {MAX_RETRIES} attempts"
    )


def sample_midpoint(dim: int, m: float, M: float, nonneg_A: bool = False,
                    seed=0) -> MidpointInstance:
    """Pair (A, D) with A <= m <= (A+D)/2 <= M <= D.

    With shifts bounded by a quarter interval width the midpoint lands in
    [m, M] automatically, so no rejection is needed."""
    _check_interval(m, M, nonneg_A)
    rng = as_generator(seed)
    spread = SHIFT_SHARE * (M - m)
    eye = HermitianMatrix.identity(dim)
    cap = spread if not nonneg_A else min(spread, m)
    A = m * eye - _sample_psd_bounded(dim, cap, rng)
    D = M * eye + _sample_psd_bounded(dim, spread, rng)
    return MidpointInstance(A=A, D=D, m=m, M=M, nonneg_A=nonneg_A)


@stepwise
def sample_mercer_family(n: int, dim: int, m: float, M: float, seed=0) -> MercerInstance:
    _check_interval(m, M)
    rng = as_generator(seed)
    b_list = tuple(sample_sandwiched_matrix(dim, m, M, rng) for _ in range(n))
    return MercerInstance(B_list=b_list, m=m, M=M, **(yield from _family_steps(n, dim, rng)))


@stepwise
def sample_quadruple_family(
    n: int, dim: int, m: float, M: float, nonneg_A: bool = False, seed=0
) -> MultiQuadrupleInstance:
    """n equal-sum quadruples sharing (m, M) plus a map family of size n.

    As steps: without ``nonneg_A`` a quadruple draws nothing after its
    request, so the quadruples and the family draw in turn and request in
    one round; with it each quadruple runs to its end before the next draws.
    """
    rng = as_generator(seed)
    steps = [sample_quadruple.steps(dim, m, M, SumRelation.EQUAL, nonneg_A, rng)
             for _ in range(n)]
    steps.append(_family_steps(n, dim, rng))
    if nonneg_A:
        drawn = []
        for step in steps:
            drawn.append((yield from step))
    else:
        drawn = yield from gather(steps)
    return MultiQuadrupleInstance(quadruples=tuple(drawn[:-1]), m=m, M=M, **drawn[-1])
