"""Scalar functions with declared convexity classes, the interpolation
constants they induce, and scalar-level inequality checkers.

A FunctionDescriptor bundles a plain scalar map with its domain and a set of
declared classes (log-convex, convex, superquadratic, non-negative).  Classes
are declared, not inferred; the checkers in this module spot-verify them.

Built-in specs accepted by :func:`parse_function_spec`:

    "exp"            e^t on all reals
    "exp:a=<real>"   e^(a t) on all reals
    "pow:p=<real>"   t^p; domain (0, inf) for p <= 0, [0, inf) otherwise
    "recip"          shorthand for pow:p=-1
    "const:c=<real>" the constant c

Power functions are log-convex for p <= 0 and superquadratic for p >= 2.
Constants with value in [-2, -1] are declared superquadratic (any function
with range inside that interval is).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Mapping

from .errors import DegenerateInterval, DivisionByZero, DomainViolation, SpecParseError
from .hermitian import EQUALITY_TOL

LOG_CONVEX = "log-convex"
CONVEX = "convex"
SUPERQUADRATIC = "superquadratic"
NON_NEGATIVE = "non-negative"


@dataclass(frozen=True)
class Interval:
    """Real interval with independent open/closed endpoint flags."""

    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool

    @classmethod
    def real_line(cls) -> "Interval":
        return cls(-math.inf, math.inf, False, False)

    @classmethod
    def closed(cls, lo: float, hi: float) -> "Interval":
        return cls(lo, hi, True, True)

    @classmethod
    def positive_reals(cls, include_zero: bool) -> "Interval":
        return cls(0.0, math.inf, include_zero, False)

    def contains(self, t: float) -> bool:
        if t < self.lo or (t == self.lo and not self.lo_closed):
            return False
        if t > self.hi or (t == self.hi and not self.hi_closed):
            return False
        return True

    def snap(self, t: float, window: float) -> float | None:
        """Return t, or the closed boundary it sits within ``window`` of,
        or None when t is genuinely outside."""
        if self.contains(t):
            return t
        if self.lo_closed and abs(t - self.lo) <= window:
            return self.lo
        if self.hi_closed and abs(t - self.hi) <= window:
            return self.hi
        return None

    def __str__(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo:g}, {self.hi:g}{right}"


@dataclass(frozen=True)
class FunctionDescriptor:
    """A scalar function together with its domain and declared classes."""

    id: str
    domain: Interval
    classes: frozenset
    eval_fn: Callable[[float], float]
    params: Mapping[str, float] = field(default_factory=dict)

    def __call__(self, t: float) -> float:
        return self.eval_fn(t)

    @property
    def is_log_convex(self) -> bool:
        return LOG_CONVEX in self.classes

    @property
    def is_convex(self) -> bool:
        return CONVEX in self.classes

    @property
    def is_superquadratic(self) -> bool:
        return SUPERQUADRATIC in self.classes

    def require_domain(self, t: float, what: str = "argument") -> float:
        if not self.domain.contains(t):
            raise DomainViolation(f"{what} {t!r} outside domain {self.domain} of {self.id}", value=t)
        return t


# ---------------------------------------------------------------------------
# Built-in functions and spec parsing
# ---------------------------------------------------------------------------


def exp_function(a: float = 1.0) -> FunctionDescriptor:
    """e^(a t); log-convex for every a since log f is linear."""
    spec = "exp" if a == 1.0 else f"exp:a={a:g}"
    return FunctionDescriptor(
        id=spec,
        domain=Interval.real_line(),
        classes=frozenset({LOG_CONVEX, CONVEX, NON_NEGATIVE}),
        eval_fn=lambda t, _a=float(a): math.exp(_a * t),
        params={"a": float(a)},
    )


def power_function(p: float, spec_id: str | None = None) -> FunctionDescriptor:
    """t^p.  Non-integer powers are computed as exp(p ln t).

    Domain is (0, inf) for p <= 0 and [0, inf) for p > 0, with 0^p = 0.
    """
    p = float(p)
    classes = {NON_NEGATIVE}
    if p <= 0:
        classes |= {LOG_CONVEX, CONVEX}
        domain = Interval.positive_reals(include_zero=False)
    else:
        domain = Interval.positive_reals(include_zero=True)
        if p >= 1:
            classes.add(CONVEX)
        if p >= 2:
            classes.add(SUPERQUADRATIC)

    def _pow(t: float, _p: float = p) -> float:
        if t == 0.0:
            if _p > 0:
                return 0.0
            raise DomainViolation(f"0^({_p}) undefined", value=0.0)
        if t < 0.0:
            raise DomainViolation(f"negative base {t} for power {_p}", value=t)
        return math.exp(_p * math.log(t))

    return FunctionDescriptor(
        id=spec_id or f"pow:p={p:g}",
        domain=domain,
        classes=frozenset(classes),
        eval_fn=_pow,
        params={"p": p},
    )


def constant_function(c: float) -> FunctionDescriptor:
    """The constant c.  Superquadratic when c lies in [-2, -1]."""
    c = float(c)
    classes = {CONVEX}
    if -2.0 <= c <= -1.0:
        classes.add(SUPERQUADRATIC)
        domain = Interval.positive_reals(include_zero=True)
    else:
        domain = Interval.real_line()
    if c > 0:
        classes |= {LOG_CONVEX, NON_NEGATIVE}
    elif c == 0:
        classes.add(NON_NEGATIVE)
    return FunctionDescriptor(
        id=f"const:c={c:g}",
        domain=domain,
        classes=frozenset(classes),
        eval_fn=lambda t, _c=c: _c,
        params={"c": c},
    )


def parse_function_spec(spec: str) -> FunctionDescriptor:
    """Parse a CLI function spec string.  Parsing is exact; unknown ids are
    rejected with SpecParseError."""
    if not isinstance(spec, str) or not spec:
        raise SpecParseError(f"empty or non-string function spec: {spec!r}")
    head, _, tail = spec.partition(":")
    if head == "exp":
        if not tail:
            return exp_function()
        return exp_function(_single_param(spec, tail, "a"))
    if head == "recip":
        if tail:
            raise SpecParseError(f'"recip" takes no parameters: {spec!r}')
        return power_function(-1.0, spec_id="recip")
    if head == "pow":
        return power_function(_single_param(spec, tail, "p"))
    if head == "const":
        return constant_function(_single_param(spec, tail, "c"))
    raise SpecParseError(f"unknown function id: {spec!r}")


def _single_param(spec: str, tail: str, name: str) -> float:
    key, sep, value = tail.partition("=")
    if key != name or not sep:
        raise SpecParseError(f"expected {name}=<real> in {spec!r}")
    try:
        number = float(value)
    except ValueError:
        raise SpecParseError(f"bad numeric value in {spec!r}") from None
    if not math.isfinite(number):
        raise SpecParseError(f"{name} must be a finite number in {spec!r}")
    return number


# ---------------------------------------------------------------------------
# Interpolation constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InterpolationConstants:
    """The midpoint ratio K_f over an interval [m, M].

    For log-convex f the ratio never exceeds 1, which is exactly what makes
    the geometric interpolation step an improvement."""

    kf: float
    m: float
    M: float

    def __post_init__(self):
        if not self.kf > 0.0:
            raise DivisionByZero(f"K_f must be positive, got {self.kf!r}")


def kf_constant(f: FunctionDescriptor, x: float, y: float) -> float:
    """f((x+y)/2)^2 / (f(x) f(y)); at most 1 for log-convex f."""
    f.require_domain(x)
    f.require_domain(y)
    mid = (x + y) / 2.0
    f.require_domain(mid, "midpoint")
    if not f.is_log_convex:
        warnings.warn(f"{f.id} is not declared log-convex; K_f may exceed 1", RuntimeWarning)
    denom = f(x) * f(y)
    if denom == 0.0:
        raise DivisionByZero(f"f(x) f(y) = 0 for {f.id} at x={x}, y={y}")
    num = f(mid)
    return num * num / denom


def interpolation_constants(f: FunctionDescriptor, m: float, M: float) -> InterpolationConstants:
    """Bundle K_f with the interval it was computed over."""
    return InterpolationConstants(kf=kf_constant(f, m, M), m=float(m), M=float(M))


def r_alpha(alpha: float) -> float:
    return min(alpha, 1.0 - alpha)


def tilde_t(t: float, m: float, big_m: float) -> float:
    """1/2 - |t - (m+M)/2| / (M - m); equals r_alpha((M - t)/(M - m))."""
    if big_m <= m:
        raise DegenerateInterval(f"need m < M, got m={m}, M={big_m}")
    return 0.5 - abs(t - (m + big_m) / 2.0) / (big_m - m)


# ---------------------------------------------------------------------------
# Scalar chain checkers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainCheckResult:
    """Outcome of the three-term scalar chain check.

    ``values`` holds (f at the combination, geometric middle, arithmetic end).
    ``forward`` records the orientation: ascending when alpha is in [0, 1],
    descending otherwise.  Slacks are oriented so that >= 0 means the link
    holds exactly.
    """

    values: tuple[float, float, float]
    forward: bool
    link_ok: tuple[bool, bool]
    link_slack: tuple[float, float]
    link_equality: tuple[bool, bool]

    @property
    def all_ok(self) -> bool:
        return self.link_ok[0] and self.link_ok[1]


def _link_state(lo: float, hi: float, tol: float) -> tuple[bool, float, bool]:
    scale = max(1.0, abs(lo), abs(hi))
    slack = hi - lo
    return slack >= -tol * scale, slack, abs(slack) <= EQUALITY_TOL * scale


def check_logconvex_chain(
    f: FunctionDescriptor, x: float, y: float, alpha: float, tol: float = 1e-12
) -> ChainCheckResult:
    """Check f(ax+(1-a)y) <= K^r(a) f(x)^a f(y)^(1-a) <= a f(x)+(1-a) f(y).

    For alpha outside [0, 1] the combination must still lie in the domain and
    both inequalities reverse.  Link tolerances are relative to
    max(1, |side|, |side|).
    """
    f.require_domain(x)
    f.require_domain(y)
    point = alpha * x + (1.0 - alpha) * y
    f.require_domain(point, "combination alpha*x+(1-alpha)*y")
    fx, fy = f(x), f(y)
    if fx <= 0.0 or fy <= 0.0:
        raise DomainViolation(f"{f.id} must be positive for the geometric term", value=min(fx, fy))
    kf = kf_constant(f, x, y)
    left = f(point)
    middle = math.exp(
        r_alpha(alpha) * math.log(kf) + alpha * math.log(fx) + (1.0 - alpha) * math.log(fy)
    )
    right = alpha * fx + (1.0 - alpha) * fy
    forward = 0.0 <= alpha <= 1.0
    if forward:
        ok1, s1, e1 = _link_state(left, middle, tol)
        ok2, s2, e2 = _link_state(middle, right, tol)
    else:
        ok1, s1, e1 = _link_state(middle, left, tol)
        ok2, s2, e2 = _link_state(right, middle, tol)
    return ChainCheckResult(
        values=(left, middle, right),
        forward=forward,
        link_ok=(ok1, ok2),
        link_slack=(s1, s2),
        link_equality=(e1, e2),
    )


@dataclass(frozen=True)
class CharacterizationResult:
    ok: bool
    slack: float
    lhs: float
    rhs: float


def check_superquadratic_characterization(
    f: FunctionDescriptor, x: float, y: float, alpha: float, tol: float = 1e-12
) -> CharacterizationResult:
    """Slack of the refined Jensen form that characterizes superquadraticity:

        f(ax+(1-a)y) <= a f(x) + (1-a) f(y)
                        - a f((1-a)|x-y|) - (1-a) f(a|x-y|)

    Returns slack = rhs - lhs; passes when slack >= -tol.
    """
    if x < 0 or y < 0:
        raise DomainViolation(f"x, y must be >= 0, got ({x}, {y})", value=min(x, y))
    if not 0.0 <= alpha <= 1.0:
        raise DomainViolation(f"alpha must lie in [0, 1], got {alpha}", value=alpha)
    for t in (x, y, (1.0 - alpha) * abs(x - y), alpha * abs(x - y), alpha * x + (1.0 - alpha) * y):
        f.require_domain(t)
    lhs = f(alpha * x + (1.0 - alpha) * y)
    rhs = (
        alpha * f(x)
        + (1.0 - alpha) * f(y)
        - alpha * f((1.0 - alpha) * abs(x - y))
        - (1.0 - alpha) * f(alpha * abs(x - y))
    )
    slack = rhs - lhs
    return CharacterizationResult(ok=slack >= -tol, slack=slack, lhs=lhs, rhs=rhs)


@dataclass(frozen=True)
class DefinitionCheckResult:
    ok: bool
    worst_slack: float
    c_s: float
    worst_t: float


def check_superquadratic_definition(
    f: FunctionDescriptor, s: float, t_grid, tol: float = 1e-12
) -> DefinitionCheckResult:
    """Grid check of f(t) - f(s) - f(|t-s|) >= c_s (t - s).

    The slope constant is existential in the definition; the candidate used
    here is a central finite difference of g(t) = f(t) - f(|t-s|) at t = s
    (one-sided when s sits at the domain boundary).  A failure therefore
    reads "fails with the derivative candidate", not as a disproof.
    """
    if s < 0:
        raise DomainViolation(f"s must be >= 0, got {s}", value=s)
    f.require_domain(s)
    h = 1e-6 * max(1.0, s)

    def g(t: float) -> float:
        return f(t) - f(abs(t - s))

    if f.domain.contains(s - h):
        c_s = (g(s + h) - g(s - h)) / (2.0 * h)
    else:
        c_s = (g(s + h) - g(s)) / h
    worst = math.inf
    worst_t = s
    for t in t_grid:
        if t < 0:
            raise DomainViolation(f"grid point {t} is negative", value=t)
        f.require_domain(t, "grid point")
        f.require_domain(abs(t - s), "gap |t-s|")
        slack = f(t) - f(s) - f(abs(t - s)) - c_s * (t - s)
        if slack < worst:
            worst = slack
            worst_t = t
    return DefinitionCheckResult(ok=worst >= -tol, worst_slack=worst, c_s=c_s, worst_t=worst_t)
