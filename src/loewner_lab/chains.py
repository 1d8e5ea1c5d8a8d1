"""Compile inequality statements into chains of Hermitian terms, evaluate
the positive-semidefinite verdict of every adjacent link, and hunt for
counterexamples under relaxed hypotheses.

Theorems are data.  Every operator-valued sub-expression depends on one
operator argument, so each compiles to one scalar function applied by
functional calculus, and a registry row lists its chain terms as a label
plus a signed sum of atoms ``(coef, placement, fn, operand)``:

* placement: DIR f(X), IN P(f(X)) or OUT f(P(X)); over a map family IN is
  sum_i P_i(f(X_i)) and OUT applies f to the bar sum Xbar = sum_i P_i(X_i).
* fn: F, f itself; G, the geometric interpolant
  g(t) = K^w(t) f(m)^((M-t)/(M-m)) f(M)^((t-m)/(M-m)), K = f((m+M)/2)^2 /
  (f(m) f(M)), w the tent weight vanishing at m and M, between f and the
  chord on [m, M] for log-convex f; H, the superquadratic penalty
  h(t) = ((M-t) f(t-m) + (t-m) f(M-t)) / (M-m); ID, the operand itself; or
  CONST, the named scalar f(m), f(M), f(0) or intercept, times I.
* operand: A, B, C, D, B+C, the midpoint W = (A+D)/2, Mercer's (M+m)I-B,
  or the shifts mI-A and D-MI, built over the raw operators or, for OUT,
  over their images (so OUT on mI-A is mI - P(A)).
* coef: a number or a scalar name (slope, intercept, gap); a leading "-"
  subtracts.  The chord through (m, f(m)) and (M, f(M)) is written out as
  slope * X + intercept * I.

So ``T("P(g(B))+P(g(C))", (1, IN, G, "B"), (1, IN, G, "C"))`` is the term
P(g(B)) + P(g(C)).  An item may be a group ``(coef, items)``.  The nesting
is the floating-point grouping, fixed so that every report stays
byte-identical: a sum folds left, and a group is summed first, then scaled
or subtracted whole (SQ-MAP subtracts its outer corrections as one group,
SQ-MAP-V2 folds them in one by one).  Within a build each operand is mapped
once and each (placement, fn, operand) applied once, so no operator is
decomposed twice.

Baselines are derived: the first and last terms with every refinement atom
removed (H, anything on a shift, and CONST f(0)), labelled by ``base``.
So are the hypotheses beyond the function class: a row names its instance
kind, function class, terms and optional power restriction, and the map
mode, the sum hypothesis and A >= 0 follow from those (``TheoremSpec``).

Drawing, building and evaluating are decomposition steps (see
``hermitian.gather``).  A build requests every spectrum validation reads
and every operand a function is applied to in one round, an evaluation
every link difference in one, and a draw the instance's spectra and a
single map's matrices in one, unless the instance draws in turn.
``window_outcomes`` runs a window's instances side by side in rounds, so
each round's requests are decomposed as same-dimension stacks.  Each drawn
instance carries its own theorem and function, so a campaign window spans
cells; a hunt runs its attempts in windows of ``WINDOW`` and reads their
outcomes in attempt order.

Registry ids (case-insensitive):

    JM-BASE    MOS-BASE
    LC-QUAD    LC-POW     LC-MID     LC-MAP     LC-MAP-V2  LC-MAP-V3
    LC-MULTI   LC-MERCER
    SQ-MAP     SQ-POW     SQ-MAP-V2  SQ-MAP-V3
    SQ-MULTI-A SQ-MULTI-B SQ-MERCER  SQ-QUAD    SQ-MID

On SQ-MULTI-B and SQ-MERCER the penalty is applied inside each map,
sum_i Phi_i(h(B_i)).  Forming h from sum_i Phi_i(f(B_i)) instead mixes
functions of two different operators (not even Hermitian) and the claim is
false already for scalars: f(t) = t^2, (A,B,C,D) = (0, 1.5, 1.5, 3) with
(m, M) = (1, 3) gives left side 6.75 against right side 6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

from .errors import (ConfigError, DegenerateInterval, DimensionMismatch, HypothesisViolation,
                     LoewnerLabError, ShapeMismatch, UnknownRelaxation, UnknownTheorem)
from .functions import (CONVEX, LOG_CONVEX, SUPERQUADRATIC, FunctionDescriptor, Interval,
                        interpolation_constants, tilde_t)
from .hermitian import (DEFAULT_PSD_TOL, EQUALITY_TOL, HermitianMatrix, Relation,
                        apply_scalar_function, check_dims, check_int, check_tolerance, drive,
                        gather, loewner_leq, spectral_bounds, stepwise, with_first_request)
from .instances import (MercerInstance, MidpointInstance, MultiQuadrupleInstance,
                        QuadrupleInstance, SumRelation, _FamilyInstance, sample_mercer_family,
                        sample_midpoint, sample_quadruple, sample_quadruple_family,
                        validate_instance)
from .maps import PositiveUnitalMap, check_family, map_misfit, parse_map_spec, sample_map
from .seeding import spawn_rng

RELAXATIONS = ("cond-i-f", "cond-i-sum", "cond-ii-f", "cond-ii-sum", "equal-sum")


# ---------------------------------------------------------------------------
# Scalar building blocks
# ---------------------------------------------------------------------------


def chord_coefficients(f: FunctionDescriptor, m: float, M: float) -> tuple[float, float]:
    """Slope and intercept of the line through (m, f(m)) and (M, f(M))."""
    fm, fM = f(m), f(M)
    slope = (fM - fm) / (M - m)
    intercept = (fm * M - fM * m) / (M - m)
    return slope, intercept


def geometric_interpolant(f: FunctionDescriptor, m: float, M: float) -> FunctionDescriptor:
    """The K-weighted geometric mean of f(m) and f(M); requires f > 0 at
    m, (m+M)/2, and M.  Defined on f's whole domain."""
    consts = interpolation_constants(f, m, M)
    fm, fM = f(m), f(M)
    log_k = math.log(consts.kf)
    log_fm = math.log(fm)
    log_fM = math.log(fM)
    width = M - m

    def g(t: float) -> float:
        w_hi = (t - m) / width
        return math.exp(tilde_t(t, m, M) * log_k + (1.0 - w_hi) * log_fm + w_hi * log_fM)

    return FunctionDescriptor(
        id=f"geom[{f.id};{m:g},{M:g}]",
        domain=f.domain,
        classes=frozenset(),
        eval_fn=g,
    )


def superquadratic_penalty(f: FunctionDescriptor, m: float, M: float) -> FunctionDescriptor:
    """h(t) = ((M-t) f(t-m) + (t-m) f(M-t)) / (M-m) on [m, M]."""
    width = M - m

    def h(t: float) -> float:
        return ((M - t) * f(t - m) + (t - m) * f(M - t)) / width

    return FunctionDescriptor(
        id=f"penalty[{f.id};{m:g},{M:g}]",
        domain=Interval.closed(m, M),
        classes=frozenset(),
        eval_fn=h,
    )


# ---------------------------------------------------------------------------
# Chain and report types
# ---------------------------------------------------------------------------


def _digest_of(instance) -> str:
    return instance.digest() if instance is not None else ""


@dataclass(frozen=True)
class ExpressionChain:
    """Ordered Hermitian terms asserted pairwise comparable, ascending, and
    the instance they were built on (its digest is computed only when read)."""

    theorem: str
    terms: tuple
    labels: tuple
    instance: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if len(self.terms) < 2:
            raise ShapeMismatch("a chain needs at least two terms")
        dims = {t.dim for t in self.terms}
        if len(dims) != 1:
            raise ShapeMismatch(f"chain terms live in different dimensions: {sorted(dims)}")

    @property
    def instance_digest(self) -> str:
        return _digest_of(self.instance)


@dataclass(frozen=True)
class LinkReport:
    lower_label: str
    upper_label: str
    min_eigenvalue: float
    diff_fro_norm: float
    verdict: str
    equality: bool
    tolerance_used: float


@dataclass(frozen=True)
class ChainReport:
    theorem: str
    links: tuple
    passed: bool
    tolerance: float
    instance: object = field(default=None, repr=False, compare=False)
    seed: int | None = None

    @property
    def instance_digest(self) -> str:
        return _digest_of(self.instance)

    @property
    def min_link_eigenvalue(self) -> float:
        return min(link.min_eigenvalue for link in self.links)

    @property
    def equality_links(self) -> int:
        return sum(1 for link in self.links if link.equality)

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "passed": self.passed,
            "tolerance": float(self.tolerance),
            "instance_digest": self.instance_digest,
            "seed": self.seed,
            "links": [
                {
                    "lower": lk.lower_label,
                    "upper": lk.upper_label,
                    "min_eigenvalue": float(lk.min_eigenvalue),
                    "diff_fro_norm": float(lk.diff_fro_norm),
                    "verdict": lk.verdict,
                    "equality": lk.equality,
                    "tolerance_used": float(lk.tolerance_used),
                }
                for lk in self.links
            ],
        }


@stepwise
def evaluate_chain(chain: ExpressionChain, tol: float = DEFAULT_PSD_TOL,
                   seed: int | None = None) -> ChainReport:
    """Check every adjacent pair in the Loewner order.

    A link holds when the smallest eigenvalue of (upper - lower) stays above
    minus the effective tolerance; it is flagged an equality when the
    difference is negligible relative to the terms.  Its steps request
    every link difference in one round.
    """
    differences = tuple(hi - lo for lo, hi in zip(chain.terms, chain.terms[1:]))
    yield differences
    links = []
    ok = True
    for lo, hi, diff, l_lo, l_hi in zip(chain.terms, chain.terms[1:], differences,
                                         chain.labels, chain.labels[1:]):
        verdict = loewner_leq(lo, hi, tol, diff=diff)
        equality = diff.fro_norm <= EQUALITY_TOL * max(1.0, lo.fro_norm, hi.fro_norm)
        ok = ok and verdict.is_leq
        links.append(
            LinkReport(
                lower_label=l_lo,
                upper_label=l_hi,
                min_eigenvalue=verdict.min_eigenvalue_of_difference,
                diff_fro_norm=diff.fro_norm,
                verdict=verdict.relation.value,
                equality=equality,
                tolerance_used=verdict.tolerance_used,
            )
        )
    return ChainReport(
        theorem=chain.theorem,
        links=tuple(links),
        passed=ok,
        tolerance=tol,
        instance=chain.instance,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Hypothesis checks
# ---------------------------------------------------------------------------


def _f_leq(a: float, b: float, tol: float) -> bool:
    return a <= b + tol * max(1.0, abs(a), abs(b))


def _check_sum_condition(inst: QuadrupleInstance, f: FunctionDescriptor,
                         tol: float, relaxed: str | None) -> None:
    """Condition (i): B+C <= A+D and f(m) <= f(M); condition (ii) is the
    mirror image.  ``relaxed`` names the single clause to skip."""
    fm, fM = f(inst.m), f(inst.M)
    verdict = inst.sum_verdict(tol)
    sum_leq, sum_geq = verdict.is_leq, verdict.is_geq
    f_i, f_ii = _f_leq(fm, fM, tol), _f_leq(fM, fm, tol)
    kept = {  # relaxation -> the other clause of its condition, which must hold
        "cond-i-f": (sum_leq, "condition (i) sum clause", "B+C <= A+D fails"),
        "cond-i-sum": (f_i, "condition (i) f clause", f"f(m)={fm} > f(M)={fM}"),
        "cond-ii-f": (sum_geq, "condition (ii) sum clause", "A+D <= B+C fails"),
        "cond-ii-sum": (f_ii, "condition (ii) f clause", f"f(M)={fM} > f(m)={fm}"),
    }
    holds, condition, detail = kept.get(relaxed) or (
        (sum_leq and f_i) or (sum_geq and f_ii), "neither condition (i) nor (ii)",
        f"sum_leq={sum_leq}, sum_geq={sum_geq}, f(m)={fm}, f(M)={fM}")
    if not holds:
        raise HypothesisViolation(condition, detail)


def _check_equal_sum(inst: QuadrupleInstance, tol: float) -> None:
    """A+D = B+C as validation judges it, from the sum verdict it decomposed."""
    if inst.sum_verdict(tol).relation is not Relation.EQUAL:
        lo, hi = spectral_bounds(inst._sum_sides[2])
        raise HypothesisViolation("A+D = B+C", f"spectrum of difference in [{lo!r}, {hi!r}]")


def _check_nonneg(matrices, tol: float, what: str) -> None:
    for name, mat in matrices:
        lo = spectral_bounds(mat)[0]
        if lo < -tol * max(1.0, mat.fro_norm):
            raise HypothesisViolation(f"0 <= {what}", f"lambda_min({name}) = {lo!r}")


def _check_relaxation(spec: "TheoremSpec", relaxed: str | None) -> None:
    """The one relaxation rule: a relaxation must be known and must name a
    hypothesis the theorem has."""
    if relaxed is None:
        return
    if relaxed not in RELAXATIONS:
        raise UnknownRelaxation(f"unknown relaxation {relaxed!r}")
    if relaxed not in spec.relaxations:
        raise UnknownRelaxation(f"relaxation {relaxed!r} does not apply to {spec.id}")


def _check_function_class(spec: "TheoremSpec", f: FunctionDescriptor) -> None:
    unmet = spec.unmet_function_class(f)
    if unmet is not None:
        raise HypothesisViolation("function class mismatch", f"{f.id} is not {unmet}")


# ---------------------------------------------------------------------------
# The term table
# ---------------------------------------------------------------------------

DIR, IN, OUT = "direct", "inside", "outside"
F, G, H, ID, CONST = "f", "g", "h", "id", "const"
SHIFTS = ("mI-A", "D-MI")

# Composite operands over the base operators; ``x`` looks a base operator up
# (raw or mapped) and ``eye`` gives the identity of that space.
_OPERANDS = {
    "B+C": lambda x, m, M, eye: x("B") + x("C"),
    "(M+m)I-B": lambda x, m, M, eye: (M + m) * eye() - x("B"),
    "mI-A": lambda x, m, M, eye: m * eye() - x("A"),
    "D-MI": lambda x, m, M, eye: x("D") - M * eye(),
}


class Term(NamedTuple):
    """A chain term: label, signed sum of atoms and groups, and the label
    of what is left once the refinement atoms are removed."""

    label: str
    atoms: tuple
    base: str | None = None


def T(label: str, *atoms, base: str | None = None) -> Term:
    return Term(label, atoms, base)


def _is_refinement(atom) -> bool:
    _, _, fn, operand = atom
    return fn == H or operand in SHIFTS or (fn == CONST and operand == "f(0)")


def _strip(items) -> tuple:
    kept = []
    for item in items:
        if len(item) == 2:
            inner = _strip(item[1])
            if inner:
                kept.append((item[0], inner))
        elif not _is_refinement(item):
            kept.append(item)
    return tuple(kept)


class _Evaluator:
    """Evaluates table terms on one instance.  Within one build every
    operand, operator image, applied function and scalar is computed once.
    ``operands`` lists every matrix a function is applied to, built ahead of
    the fold so that they can be decomposed together."""

    def __init__(self, spec: "TheoremSpec", inst, f: FunctionDescriptor, maps):
        self.inst, self.f, self.memo = inst, f, {}
        # Base name -> operator, per member; one member unless a family.
        if isinstance(inst, MercerInstance):
            self.members = [{"B": b} for b in inst.B_list]
        elif isinstance(inst, MidpointInstance):  # W is the midpoint validation decomposed
            self.members = [{"A": inst.A, "D": inst.D, "W": inst.midpoint}]
        else:
            self.members = [vars(q) for q in getattr(inst, "quadruples", [inst])]
        self.family = inst.family if spec.map_mode == "family" else None
        self.phi = maps
        mapped = self.family or (maps if spec.map_mode == "single" else None)
        self.out_dim = mapped.output_dim if mapped is not None else inst.dim

    def _cached(self, key, compute):
        if key not in self.memo:
            self.memo[key] = compute()
        return self.memo[key]

    def _eye(self, dim: int) -> HermitianMatrix:
        return self._cached(("I", dim), lambda: HermitianMatrix.identity(dim))

    def _matrix(self, value) -> HermitianMatrix:
        return value if isinstance(value, HermitianMatrix) else value * self._eye(self.out_dim)

    def _push(self, xs: list) -> HermitianMatrix:
        """P(X) of the one member, or sum_i P_i(X_i) over a family."""
        return self.family.apply_sum(xs) if self.family is not None else self.phi.apply(xs[0])

    def _expr(self, name: str, x, dim: int) -> HermitianMatrix:
        if name in ("A", "B", "C", "D", "W"):
            return x(name)
        return _OPERANDS[name](x, self.inst.m, self.inst.M, lambda: self._eye(dim))

    def _operand(self, name: str, mapped: bool):
        """The operand over the images of the base operators (the bar sums
        over a family), or over the raw operators as a list, one per member."""
        def image(n):
            return self._cached(("P", n), lambda: self._push([mem[n] for mem in self.members]))

        def build():
            if mapped:
                return self._expr(name, image, self.out_dim)
            return [self._expr(name, mem.__getitem__, self.inst.dim) for mem in self.members]

        return self._cached(("X", name, mapped), build)

    def _apply(self, fn: str, x: HermitianMatrix) -> HermitianMatrix:
        if fn == ID:
            return x
        if fn == F:
            return apply_scalar_function(x, self.f)
        shape = geometric_interpolant if fn == G else superquadratic_penalty
        return apply_scalar_function(
            x, self._cached(fn, lambda: shape(self.f, self.inst.m, self.inst.M)))

    def _scalar(self, name: str) -> float:
        f, m, M = self.f, self.inst.m, self.inst.M
        if name in ("slope", "intercept"):
            return self._cached("chord", lambda: chord_coefficients(f, m, M))[name == "intercept"]
        if name == "gap":
            return self._cached(name, lambda: f(M - m) / (M - m))
        return self._cached(name, lambda: f({"f(m)": m, "f(M)": M, "f(0)": 0.0}[name]))

    def _inputs(self, place: str, operand: str) -> list:
        """What an atom applies its function to: the mapped operand for OUT,
        every member's raw operand for IN, the one raw operand for DIR."""
        x = self._operand(operand, place == OUT)
        return [x] if place == OUT else x if place == IN else x[:1]

    def operands(self, terms) -> list:
        return [x for t in terms for _, place, fn, operand in _atoms(t.atoms)
                if fn not in (ID, CONST) for x in self._inputs(place, operand)]

    def _atom(self, place: str, fn: str, operand: str):
        if fn == CONST:
            return self._scalar(operand)

        def value():
            values = [self._apply(fn, x) for x in self._inputs(place, operand)]
            return self._push(values) if place == IN else values[0]

        return self._cached((place, fn, operand), value)

    def fold(self, items) -> HermitianMatrix:
        """Left fold of signed, scaled items.  Constants add up as scalars
        until they meet an operator or the sum ends, then become multiples
        of I."""
        acc = None
        for coef, *rest in items:
            value = self.fold(rest[0]) if len(rest) == 1 else self._atom(*rest)
            negative = coef.startswith("-") if isinstance(coef, str) else coef < 0
            scale = self._scalar(coef.lstrip("-")) if isinstance(coef, str) else abs(coef)
            if scale != 1:
                value = scale * value
            if acc is None:
                acc = -value if negative else value
                continue
            if isinstance(acc, HermitianMatrix) != isinstance(value, HermitianMatrix):
                acc, value = self._matrix(acc), self._matrix(value)
            acc = acc - value if negative else acc + value
        return self._matrix(acc)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def _atoms(items):
    """Every atom, groups included."""
    for item in items:
        if len(item) == 2:
            yield from _atoms(item[1])
        else:
            yield item


@dataclass(frozen=True)
class TheoremSpec:
    """A registry row.  Three hypotheses follow from its shape and are
    derived once per row:

    * map_mode: ``family`` on a family instance, else ``single`` when an
      atom is placed IN or OUT, else ``none``;
    * condition: on a quadruple, ``equal-sum`` (A+D = B+C) under a map and
      ``either-condition`` ((i) or (ii)) without one; else ``none``;
    * needs_nonneg: superquadratic f lives on [0, inf), so A >= 0, m >= 0.
    """

    id: str
    description: str
    instance_kind: type  # the instance class the theorem is stated on
    required_class: str
    terms: tuple
    power_predicate: object = None
    power_description: str = ""
    map_mode: str = field(init=False)  # none | single | family
    condition: str = field(init=False)  # equal-sum | either-condition | none
    needs_nonneg: bool = field(init=False)

    def __post_init__(self):
        if issubclass(self.instance_kind, _FamilyInstance):
            map_mode = "family"
        elif any(atom[1] in (IN, OUT) for t in self.terms for atom in _atoms(t.atoms)):
            map_mode = "single"
        else:
            map_mode = "none"
        if self.instance_kind is not QuadrupleInstance:
            condition = "none"
        else:
            condition = "equal-sum" if map_mode == "single" else "either-condition"
        object.__setattr__(self, "map_mode", map_mode)
        object.__setattr__(self, "condition", condition)
        object.__setattr__(self, "needs_nonneg", self.required_class == SUPERQUADRATIC)

    @property
    def relaxations(self) -> tuple:
        """The hypotheses a counterexample hunt may drop."""
        if self.condition == "equal-sum":
            return ("equal-sum",)
        if self.condition == "either-condition":
            return RELAXATIONS[:4]
        return ()

    def unmet_function_class(self, f: FunctionDescriptor) -> str | None:
        """What f fails to be among the function hypotheses: the required
        class, else the power condition; None when f qualifies."""
        if self.required_class not in f.classes:
            return self.required_class
        p = f.params.get("p")
        if self.power_predicate is not None and (p is None or not self.power_predicate(p)):
            return self.power_description
        return None

    @property
    def baseline_terms(self) -> tuple:
        """First and last terms with every refinement atom removed."""
        return tuple(Term(t.base or t.label, _strip(t.atoms))
                     for t in (self.terms[0], self.terms[-1]))


# The SQ outer corrections f(shift) + gap * shift, subtracted as one group.
_OUTER_DIR = ((1, DIR, F, "mI-A"), ("gap", DIR, ID, "mI-A"),
              (1, DIR, F, "D-MI"), ("gap", DIR, ID, "D-MI"))
_OUTER_MAP = ((1, IN, F, "mI-A"), ("gap", OUT, ID, "mI-A"),
              (1, IN, F, "D-MI"), ("gap", OUT, ID, "D-MI"))
_F_M_PLUS_F_M = ((1, DIR, CONST, "f(m)"), (1, DIR, CONST, "f(M)"))

_LC_QUAD = (
    T("f(B)+f(C)", (1, DIR, F, "B"), (1, DIR, F, "C")),
    T("g(B)+g(C)", (1, DIR, G, "B"), (1, DIR, G, "C")),
    T("chord(B+C)", ("slope", DIR, ID, "B+C"), (2.0, DIR, CONST, "intercept")),
    T("g(A)+g(D)", (1, DIR, G, "A"), (1, DIR, G, "D")),
    T("f(A)+f(D)", (1, DIR, F, "A"), (1, DIR, F, "D")))
_SQ_MAP = (
    T("f(P(B))+f(P(C))", (1, OUT, F, "B"), (1, OUT, F, "C")),
    T("P(f(A))+P(f(D)) - penalties", (1, IN, F, "A"), (1, IN, F, "D"),
      (-1, OUT, H, "B"), (-1, OUT, H, "C"), (-1, _OUTER_MAP), base="P(f(A))+P(f(D))"))

THEOREMS: dict[str, TheoremSpec] = {t.id: t for t in (
    TheoremSpec(
        "JM-BASE", "two-term Mercer baseline for convex f",
        MercerInstance, CONVEX, (
            T("f(W)", (1, OUT, F, "(M+m)I-B")),
            T("f(m)+f(M) - S_i P_i(f(B_i))", *_F_M_PLUS_F_M, (-1, IN, F, "B")))),
    TheoremSpec(
        "MOS-BASE", "two-term map baseline for convex f",
        QuadrupleInstance, CONVEX, (
            T("f(P(B))+f(P(C))", (1, OUT, F, "B"), (1, OUT, F, "C")),
            T("P(f(A))+P(f(D))", (1, IN, F, "A"), (1, IN, F, "D")))),
    TheoremSpec(
        "LC-QUAD", "five-term log-convex chain, no maps",
        QuadrupleInstance, LOG_CONVEX, _LC_QUAD),
    TheoremSpec(
        "LC-POW", "LC-QUAD specialized to t^p with p <= 0",
        QuadrupleInstance, LOG_CONVEX, _LC_QUAD,
        power_predicate=lambda p: p <= 0, power_description="a power with p <= 0"),
    TheoremSpec(
        "LC-MID", "five-term log-convex chain at the midpoint pair",
        MidpointInstance, LOG_CONVEX, (
            T("f(W)", (1, DIR, F, "W")),
            T("g(W)", (1, DIR, G, "W")),
            T("chord(W)", ("slope", DIR, ID, "W"), (1, DIR, CONST, "intercept")),
            T("(g(A)+g(D))/2", (0.5, ((1, DIR, G, "A"), (1, DIR, G, "D")))),
            T("(f(A)+f(D))/2", (0.5, ((1, DIR, F, "A"), (1, DIR, F, "D")))))),
    TheoremSpec(
        "LC-MAP", "five-term log-convex chain, map inside on B,C side",
        QuadrupleInstance, LOG_CONVEX, (
            T("P(f(B))+P(f(C))", (1, IN, F, "B"), (1, IN, F, "C")),
            T("P(g(B))+P(g(C))", (1, IN, G, "B"), (1, IN, G, "C")),
            T("chord(P(B+C))", ("slope", OUT, ID, "B+C"), (2.0, DIR, CONST, "intercept")),
            T("g(P(A))+g(P(D))", (1, OUT, G, "A"), (1, OUT, G, "D")),
            T("f(P(A))+f(P(D))", (1, OUT, F, "A"), (1, OUT, F, "D")))),
    TheoremSpec(
        "LC-MAP-V2", "five-term log-convex chain, map outside on B,C side",
        QuadrupleInstance, LOG_CONVEX, (
            T("f(P(B))+f(P(C))", (1, OUT, F, "B"), (1, OUT, F, "C")),
            T("g(P(B))+g(P(C))", (1, OUT, G, "B"), (1, OUT, G, "C")),
            T("chord(P(B+C))", ("slope", OUT, ID, "B+C"), (2.0, DIR, CONST, "intercept")),
            T("P(g(A))+P(g(D))", (1, IN, G, "A"), (1, IN, G, "D")),
            T("P(f(A))+P(f(D))", (1, IN, F, "A"), (1, IN, F, "D")))),
    TheoremSpec(
        "LC-MAP-V3", "five-term log-convex chain, mixed placement",
        QuadrupleInstance, LOG_CONVEX, (
            T("P(f(B))+f(P(C))", (1, IN, F, "B"), (1, OUT, F, "C")),
            T("P(g(B))+g(P(C))", (1, IN, G, "B"), (1, OUT, G, "C")),
            T("chord(P(B+C))", ("slope", OUT, ID, "B+C"), (2.0, DIR, CONST, "intercept")),
            T("g(P(A))+P(g(D))", (1, OUT, G, "A"), (1, IN, G, "D")),
            T("f(P(A))+P(f(D))", (1, OUT, F, "A"), (1, IN, F, "D")))),
    TheoremSpec(
        "LC-MULTI", "five-term log-convex chain over a map family",
        MultiQuadrupleInstance, LOG_CONVEX, (
            T("S_i P_i(f(B_i)) + f(S_i P_i(C_i))", (1, IN, F, "B"), (1, OUT, F, "C")),
            T("S_i P_i(g(B_i)) + g(S_i P_i(C_i))", (1, IN, G, "B"), (1, OUT, G, "C")),
            T("chord(S_i P_i(B_i+C_i))",
              ("slope", OUT, ID, "B+C"), (2.0, DIR, CONST, "intercept")),
            T("g(S_i P_i(A_i)) + S_i P_i(g(D_i))", (1, OUT, G, "A"), (1, IN, G, "D")),
            T("f(S_i P_i(A_i)) + S_i P_i(f(D_i))", (1, OUT, F, "A"), (1, IN, F, "D")))),
    TheoremSpec(
        "LC-MERCER", "three-term Mercer interpolation for log-convex f",
        MercerInstance, LOG_CONVEX, (
            T("S_i P_i(f(B_i)) + f(W)", (1, IN, F, "B"), (1, OUT, F, "(M+m)I-B")),
            T("S_i P_i(g(B_i)) + g(W)", (1, IN, G, "B"), (1, OUT, G, "(M+m)I-B")),
            T("f(m)+f(M)", *_F_M_PLUS_F_M))),
    TheoremSpec(
        "SQ-MAP", "superquadratic refinement, map inside",
        QuadrupleInstance, SUPERQUADRATIC, _SQ_MAP),
    TheoremSpec(
        "SQ-POW", "SQ-MAP specialized to t^p with p >= 2",
        QuadrupleInstance, SUPERQUADRATIC, _SQ_MAP,
        power_predicate=lambda p: p >= 2, power_description="a power with p >= 2"),
    TheoremSpec(
        "SQ-MAP-V2", "superquadratic refinement, map outside",
        QuadrupleInstance, SUPERQUADRATIC, (
            T("P(f(B))+P(f(C))", (1, IN, F, "B"), (1, IN, F, "C")),
            T("f(P(A))+f(P(D)) - penalties", (1, OUT, F, "A"), (1, OUT, F, "D"),
              (-1, IN, H, "B"), (-1, IN, H, "C"),
              (-1, OUT, F, "mI-A"), ("-gap", OUT, ID, "mI-A"),
              (-1, OUT, F, "D-MI"), ("-gap", OUT, ID, "D-MI"), base="f(P(A))+f(P(D))"))),
    # Mixed placement: B enters through f(P(B)), so its penalty is h(P(B));
    # C enters through P(f(C)), so its penalty sits inside the map.  A and D
    # mirror that pairing.
    TheoremSpec(
        "SQ-MAP-V3", "superquadratic refinement, mixed placement",
        QuadrupleInstance, SUPERQUADRATIC, (
            T("f(P(B))+P(f(C))", (1, OUT, F, "B"), (1, IN, F, "C")),
            T("P(f(A))+f(P(D)) - penalties", (1, IN, F, "A"), (1, OUT, F, "D"),
              (-1, OUT, H, "B"), (-1, IN, H, "C"),
              (-1, IN, F, "mI-A"), ("-gap", OUT, ID, "mI-A"),
              (-1, OUT, F, "D-MI"), ("-gap", OUT, ID, "D-MI"), base="P(f(A))+f(P(D))"))),
    TheoremSpec(
        "SQ-MULTI-A", "superquadratic family refinement, combinations outside",
        MultiQuadrupleInstance, SUPERQUADRATIC, (
            T("f(Bbar)+f(Cbar) + penalties", (1, OUT, F, "B"), (1, OUT, F, "C"),
              (1, OUT, H, "B"), (1, OUT, H, "C"), base="f(Bbar)+f(Cbar)"),
            T("S_i P_i(f(A_i))+S_i P_i(f(D_i)) - penalties", (1, IN, F, "A"), (1, IN, F, "D"),
              (-1, ((1, IN, F, "mI-A"), (1, IN, F, "D-MI"),
                    ("gap", ((1, OUT, ID, "mI-A"), (1, OUT, ID, "D-MI"))))),
              base="S_i P_i(f(A_i))+S_i P_i(f(D_i))"))),
    TheoremSpec(
        "SQ-MULTI-B", "superquadratic family refinement, mixed placement",
        MultiQuadrupleInstance, SUPERQUADRATIC, (
            T("S_i P_i(f(B_i)) + f(Cbar) + penalties", (1, IN, F, "B"), (1, OUT, F, "C"),
              (1, IN, H, "B"), (1, OUT, H, "C"), base="S_i P_i(f(B_i))+f(Cbar)"),
            T("f(Abar) + S_i P_i(f(D_i)) - penalties", (1, OUT, F, "A"), (1, IN, F, "D"),
              (-1, OUT, F, "mI-A"), ("-gap", OUT, ID, "mI-A"),
              (-1, IN, F, "D-MI"), ("-gap", OUT, ID, "D-MI"), base="f(Abar)+S_i P_i(f(D_i))"))),
    TheoremSpec(
        "SQ-MERCER", "superquadratic Mercer refinement",
        MercerInstance, SUPERQUADRATIC, (
            T("f(W) + penalties", (1, OUT, F, "(M+m)I-B"), (1, IN, H, "B"),
              (1, OUT, H, "(M+m)I-B"), base="f(W)"),
            T("f(m)+f(M)-2f(0) - S_i P_i(f(B_i))", *_F_M_PLUS_F_M,
              (-2, DIR, CONST, "f(0)"), (-1, IN, F, "B"),
              base="f(m)+f(M) - S_i P_i(f(B_i))"))),
    TheoremSpec(
        "SQ-QUAD", "superquadratic refinement under condition (i)/(ii)",
        QuadrupleInstance, SUPERQUADRATIC, (
            T("f(B)+f(C) + penalties", (1, DIR, F, "B"), (1, DIR, F, "C"),
              (1, DIR, H, "B"), (1, DIR, H, "C"), base="f(B)+f(C)"),
            T("f(A)+f(D) - penalties", (1, DIR, F, "A"), (1, DIR, F, "D"),
              (-1, _OUTER_DIR), base="f(A)+f(D)"))),
    TheoremSpec(
        "SQ-MID", "superquadratic refinement at the midpoint pair",
        MidpointInstance, SUPERQUADRATIC, (
            T("f(W) + penalty", (1, DIR, F, "W"), (1, DIR, H, "W"), base="f(W)"),
            T("(f(A)+f(D))/2 - penalties",
              (0.5, ((1, DIR, F, "A"), (1, DIR, F, "D"), (-1, _OUTER_DIR))),
              base="(f(A)+f(D))/2"))),
)}


def resolve_theorem(theorem_id: str) -> TheoremSpec:
    spec = THEOREMS.get(str(theorem_id).upper())
    if spec is None:
        raise UnknownTheorem(f"unknown theorem id {theorem_id!r}")
    return spec


def _compile(spec: TheoremSpec, terms, name: str, inst, f, maps, tol: float, relaxed: str | None):
    """Steps to the chain of ``terms``, raising on the first unmet hypothesis:
    the checks that read no spectrum, then validation, whose one round also
    requests the operands a function is applied to, then the rest; then the fold."""
    check_tolerance(tol)
    if not isinstance(inst, spec.instance_kind):
        raise ShapeMismatch(f"{spec.id} expects a {spec.instance_kind.__name__}, "
                            f"got {type(inst).__name__}")
    if not inst.m < inst.M:
        raise DegenerateInterval(f"need m < M, got m={inst.m!r}, M={inst.M!r}")
    if spec.map_mode == "single":
        if not isinstance(maps, PositiveUnitalMap):
            raise ShapeMismatch(f"{spec.id} needs a single positive unital map")
        if maps.input_dim != inst.dim:
            raise ShapeMismatch(f"map expects dim {maps.input_dim}, instance has dim {inst.dim}")
    evaluator = _Evaluator(spec, inst, f, maps)
    try:
        operands = evaluator.operands(terms)
    except DimensionMismatch:  # members of different dims; the fold raises it again
        operands = []
    violations = yield from with_first_request(validate_instance.steps(inst, tol), operands)
    if violations:
        raise HypothesisViolation("instance invariants", violations[0])
    _check_relaxation(spec, relaxed)
    _check_function_class(spec, f)
    if spec.needs_nonneg:
        if inst.m < 0:
            raise HypothesisViolation("0 <= m", f"m = {inst.m}")
        if isinstance(inst, (QuadrupleInstance, MidpointInstance)):
            _check_nonneg([("A", inst.A)], tol, "A")
        elif isinstance(inst, MultiQuadrupleInstance):
            _check_nonneg([(f"A_{i}", q.A) for i, q in enumerate(inst.quadruples)], tol, "A_i")
    if spec.condition == "equal-sum" and relaxed != "equal-sum":
        _check_equal_sum(inst, tol)
    elif spec.condition == "either-condition":
        _check_sum_condition(inst, f, tol, relaxed)
    return ExpressionChain(
        theorem=name,
        terms=tuple(evaluator.fold(t.atoms) for t in terms),
        labels=tuple(t.label for t in terms),
        instance=inst,
    )


@stepwise
def build_chain(theorem, instance, f: FunctionDescriptor, maps=None, *,
                relaxed: str | None = None, tol: float = DEFAULT_PSD_TOL) -> ExpressionChain:
    """Compile the registered chain for this theorem on a concrete instance.

    Hypotheses are checked first (HypothesisViolation / ShapeMismatch name
    the failing condition); ``relaxed`` skips exactly one named clause,
    which is how the counterexample hunter probes necessity.
    """
    spec = resolve_theorem(theorem if isinstance(theorem, str) else theorem.id)
    return (yield from _compile(spec, spec.terms, spec.id, instance, f, maps, tol, relaxed))


@stepwise
def baseline_chain(theorem, instance, f: FunctionDescriptor, maps=None, *,
                   tol: float = DEFAULT_PSD_TOL) -> ExpressionChain:
    """The two-term envelope of the theorem with every refinement stripped;
    the full chain passing implies this passes."""
    spec = resolve_theorem(theorem if isinstance(theorem, str) else theorem.id)
    return (yield from _compile(spec, spec.baseline_terms, f"{spec.id}:baseline", instance, f,
                                maps, tol, None))


# ---------------------------------------------------------------------------
# Instance policy shared by the hunter and the campaign runner: each asks
# ``input_misfit`` whether the theorem can run on its inputs, then picks the
# stream, dim, (m, M) and relation, and draws through ``draw_steps``
# ---------------------------------------------------------------------------


def condition_relation(f: FunctionDescriptor, m: float, M: float) -> SumRelation:
    """The sum direction that matches f's slope sign on [m, M]: condition (i)
    wants B+C <= A+D when f(m) <= f(M), condition (ii) the reverse."""
    return SumRelation.SUM_LEQ if f(m) <= f(M) else SumRelation.SUM_GEQ


def needs_nonneg_instances(spec: TheoremSpec, f: FunctionDescriptor) -> bool:
    return spec.needs_nonneg or f.domain.lo >= 0.0


def compatible_ranges(spec: TheoremSpec, f: FunctionDescriptor, ranges) -> list:
    """The (m, M) ranges instances can be drawn on: those with m > 0 when
    the instances must be non-negative."""
    need_positive = needs_nonneg_instances(spec, f)
    return [r for r in ranges if not need_positive or r[0] > 0.0]


def input_misfit(spec: TheoremSpec, f: FunctionDescriptor, map_spec: str, dim: int,
                 ranges) -> str | None:
    """Why the theorem cannot run on f and the map spec at dim with (m, M)
    drawn from ``ranges``, or None when it can; ``ranges`` None asks nothing
    of (m, M).  The map spec is parsed whatever the theorem, so a malformed one raises."""
    unmet = spec.unmet_function_class(f)
    if unmet == spec.required_class:
        return "function class mismatch"
    if unmet is not None:
        return f"function is not {unmet}"
    if spec.map_mode == "single":
        misfit = map_misfit(map_spec, dim)
        if misfit is not None:
            return misfit
    elif parse_map_spec(map_spec)[0] != "family" and spec.map_mode == "family":
        return "needs a map family"
    if ranges is not None and not compatible_ranges(spec, f, ranges):
        return "no compatible (m, M) range for this function"
    return None


def check_fit(spec: TheoremSpec, f: FunctionDescriptor, map_spec, dims, m: float, M: float,
              *, instance=None) -> str:
    """The map spec a hunt or ``verify`` runs on: ``map_spec``, or if None "identity", or on a
    family theorem ``verify``'s ``instance``'s own family, else "family:n=3".  Raises unless f
    fits the theorem's class, ``input_misfit`` passes every dim (asking (m, M) only with no
    ``instance``, as a hunt draws on it), and an instance of a family theorem has n members."""
    _check_function_class(spec, f)
    own_family = spec.map_mode == "family" and isinstance(instance, spec.instance_kind)
    if map_spec is None:
        map_spec = ("identity" if spec.map_mode != "family" else
                    f"family:n={instance.size}" if own_family else "family:n=3")
    for dim in dims:
        misfit = input_misfit(spec, f, map_spec, dim, [(m, M)] if instance is None else None)
        if misfit is not None:
            raise ConfigError(f"{spec.id} cannot run on map {map_spec!r} at dim {dim} "
                              f"with m={m!r}, M={M!r}: {misfit}")
    if own_family:
        check_family(map_spec, instance.size)
    return map_spec


@stepwise
def sample_instance_for(spec: TheoremSpec, f: FunctionDescriptor, dim: int,
                        m: float, M: float, rng, *, family_size: int = 3,
                        relation: SumRelation | None = None):
    """Sample an instance matching the theorem's shape and hypotheses."""
    nonneg = needs_nonneg_instances(spec, f)
    if spec.instance_kind is QuadrupleInstance:
        if relation is None:
            relation = (SumRelation.EQUAL if spec.condition == "equal-sum"
                        else condition_relation(f, m, M))
        return (yield from sample_quadruple.steps(dim, m, M, relation, nonneg, rng))
    if spec.instance_kind is MultiQuadrupleInstance:
        return (yield from sample_quadruple_family.steps(family_size, dim, m, M, nonneg, rng))
    if spec.instance_kind is MercerInstance:
        return (yield from sample_mercer_family.steps(family_size, dim, m, M, rng))
    return sample_midpoint(dim, m, M, nonneg_A=nonneg, seed=rng)


class Drawn(NamedTuple):
    """A drawn instance with the theorem, function and map its chain is
    built from; a window's draws are steps that return one."""

    spec: TheoremSpec
    f: FunctionDescriptor
    instance: object
    maps: object


def draw_steps(spec: TheoremSpec, f: FunctionDescriptor, map_spec: str, dim: int,
               m: float, M: float, rng, *, relation: SumRelation | None = None):
    """Steps to the ``Drawn`` of one instance: the instance, then a single-map
    theorem's map, from the one stream ``rng``.  A family instance has the
    spec's ``n`` members, 3 when the spec names none.  The map requests in
    the instance's first round, or after a non-negative quadruple, the one
    instance that draws after a request."""
    family_size = parse_map_spec(map_spec)[1].get("n", 3)
    inst_steps = sample_instance_for.steps(spec, f, dim, m, M, rng, family_size=family_size,
                                           relation=relation)
    if spec.map_mode != "single":
        return Drawn(spec, f, (yield from inst_steps), None)
    map_steps = sample_map.steps(map_spec, dim, rng)
    if needs_nonneg_instances(spec, f):
        return Drawn(spec, f, (yield from inst_steps), (yield from map_steps))
    return Drawn(spec, f, *(yield from gather([inst_steps, map_steps])))


# A window runs at most this many instances, and so bounds its rounds' stacks and
# the kernel's working array.  32 took hunt-soak from 570 kernel calls to 300 for
# +0.6 MB peak RSS (+1.4%); 48 costs +2.8-3.0% and 64 +3.9%.
WINDOW = 32


def _outcome_steps(draw, tol: float, seed: int | None, relaxed: str | None):
    """Steps to one instance's ChainReport, or to the LoewnerLabError that
    stopped it."""
    try:
        d = yield from draw()
        chain = yield from build_chain.steps(d.spec, d.instance, d.f, d.maps, relaxed=relaxed,
                                             tol=tol)
        return (yield from evaluate_chain.steps(chain, tol, seed))
    except LoewnerLabError as exc:
        return exc


def window_outcomes(draws, tol: float, *, seed: int | None, relaxed: str | None = None) -> list:
    """The ChainReport, or the LoewnerLabError that stopped it, of the
    instance each ``draw()`` returns steps to (see ``draw_steps``), in order.

    The window runs every instance's draw, build and evaluation steps side
    by side in rounds (``hermitian.gather``), at most one per stage unless
    the draw runs in turn, and decomposes each round's requests as stacks of
    one dimension.  Each instance draws from its own stream, values depend
    neither on the rounds nor on which instances share a stack, and a
    matrix ``eigendecompose_many`` cannot finish raises when it is read, so
    outcomes and errors are those of one instance at a time.
    """
    return drive(gather([_outcome_steps(draw, tol, seed, relaxed) for draw in draws]))


_RELAX_RELATIONS = {  # relations sampled in turn, so that only the named clause breaks
    "cond-i-f": (SumRelation.SUM_LEQ,), "cond-ii-sum": (SumRelation.SUM_LEQ,),
    "cond-i-sum": (SumRelation.SUM_GEQ,), "cond-ii-f": (SumRelation.SUM_GEQ,),
    "equal-sum": (SumRelation.SUM_LEQ, SumRelation.SUM_GEQ),
}


@dataclass(frozen=True)
class HuntResult:
    instance: object
    report: ChainReport
    attempts: int
    attempt_index: int


def hunt_counterexample(theorem, relaxation: str | None, budget: int, seed: int,
                        f: FunctionDescriptor, *, map_spec: str | None = None,
                        dims=(1, 2, 3), m: float = 1.0, M: float = 2.0,
                        tol: float = DEFAULT_PSD_TOL) -> HuntResult | None:
    """Sample up to ``budget`` instances violating only the named hypothesis
    and return the first whose chain fails, or None; an error met first is raised.

    With ``relaxation=None`` the instances satisfy all hypotheses, so a
    non-None result would witness a bug rather than a sharp hypothesis.
    ``map_spec`` None means the default of ``check_fit``.  Arguments are
    checked before anything is sampled.
    """
    spec = resolve_theorem(theorem)
    _check_relaxation(spec, relaxation)
    check_int(budget, "budget")
    check_int(seed, "seed")
    check_tolerance(tol)
    if not (math.isfinite(m) and math.isfinite(M)):
        raise ConfigError(f"m, M: must be finite numbers, got m={m!r}, M={M!r}")
    if not m < M:
        raise DegenerateInterval(f"need m < M, got m={m!r}, M={M!r}")
    dims = check_dims(dims)
    map_spec = check_fit(spec, f, map_spec, dims, m, M)
    if relaxation in RELAXATIONS[:4]:  # its f clause must fail if dropped, hold if kept
        fm, fM = f(m), f(M)
        lo, hi = (fm, fM) if relaxation.startswith("cond-i-") else (fM, fm)
        if _f_leq(lo, hi, tol) == relaxation.endswith("-f"):
            state = "holds" if relaxation.endswith("-f") else "fails"
            raise HypothesisViolation(f"{relaxation} cannot break its clause alone",
                                      f"its f clause {state} at f(m)={fm}, f(M)={fM}")
        if relaxation.endswith("-sum") and _f_leq(hi, lo, tol):
            # f(m) ~ f(M), so every attempt would meet the other condition in full.
            raise HypothesisViolation(f"{relaxation} cannot break the hypothesis",
                                      f"its f clause holds both ways at f(m)={fm}, f(M)={fM}")
    relations = _RELAX_RELATIONS.get(relaxation, (None,))

    def draw(attempt: int):
        return draw_steps(spec, f, map_spec, dims[attempt % len(dims)], m, M,
                          spawn_rng(seed, attempt), relation=relations[attempt % len(relations)])

    for start in range(0, budget, WINDOW):
        draws = [partial(draw, i) for i in range(start, min(start + WINDOW, budget))]
        outcomes = window_outcomes(draws, tol, seed=seed, relaxed=relaxation)
        for attempt, outcome in enumerate(outcomes, start):
            if isinstance(outcome, LoewnerLabError):
                raise outcome
            if not outcome.passed:
                return HuntResult(instance=outcome.instance, report=outcome,
                                  attempts=attempt + 1, attempt_index=attempt)
    return None
