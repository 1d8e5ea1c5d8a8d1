"""An independent oracle for the chains that use no map, at n > 1.

Each chain of LC-QUAD, LC-POW, LC-MID, SQ-QUAD and SQ-MID is written out
here from its statement, with functional calculus by ``numpy.linalg.eigh``,
f(X) = V f(L) V*.  With the chord slope s = (f(M) - f(m)) / (M - m) and
intercept c = (M f(m) - m f(M)) / (M - m), the geometric interpolant
g(t) = K^w(t) f(m)^((M-t)/(M-m)) f(M)^((t-m)/(M-m)) where
K = f((m+M)/2)^2 / (f(m) f(M)) and w(t) = 1/2 - |t - (m+M)/2| / (M - m),
the penalty h(t) = ((M-t) f(t-m) + (t-m) f(M-t)) / (M-m), gap = f(M-m) / (M-m),
W = (A+D)/2 and R = f(mI-A) + gap (mI-A) + f(D-MI) + gap (D-MI):

    LC-QUAD, LC-POW  f(B)+f(C) <= g(B)+g(C) <= s(B+C) + 2cI <= g(A)+g(D) <= f(A)+f(D)
    LC-MID           f(W) <= g(W) <= sW + cI <= (g(A)+g(D))/2 <= (f(A)+f(D))/2
    SQ-QUAD          f(B)+f(C) + h(B)+h(C) <= f(A)+f(D) - R
    SQ-MID           f(W) + h(W) <= (f(A)+f(D) - R)/2

The scalar functions are plain Python, and nothing is taken from the
library's term table, its evaluator or its scalar helpers: the library only
samples the instances and builds the chains under test.  Every term must
agree with ``build_chain`` to 1e-10 relative to max(1, ||term||_F), at dims
2 to 6, for every function that the theorem's class admits.
"""

import math

import numpy as np
import pytest

from loewner_lab.chains import build_chain
from loewner_lab.functions import parse_function_spec
from loewner_lab.instances import SumRelation, sample_midpoint, sample_quadruple

REL = 1e-10
DIMS = range(2, 7)
SEEDS = range(2)

# Log-convex functions: exp(a t) for every a, t^p for p <= 0, and c > 0.
POWERS_AT_MOST_0 = {
    "recip": lambda t: 1.0 / t,
    "pow:p=-0.5": lambda t: t ** -0.5,
    "pow:p=-2": lambda t: t ** -2.0,
    "pow:p=0": lambda t: 1.0,
}
LOG_CONVEX = {
    "exp": math.exp,
    "exp:a=-1.5": lambda t: math.exp(-1.5 * t),
    "exp:a=0.5": lambda t: math.exp(0.5 * t),
    "const:c=2": lambda t: 2.0,
    **POWERS_AT_MOST_0,
}
# Superquadratic functions: t^p for p >= 2, and c in [-2, -1].
SUPERQUADRATIC = {
    "pow:p=2": lambda t: t * t,
    "pow:p=2.5": lambda t: t ** 2.5,
    "pow:p=3": lambda t: t ** 3,
    "const:c=-1": lambda t: -1.0,
    "const:c=-1.5": lambda t: -1.5,
    "const:c=-2": lambda t: -2.0,
}


def calc(x: np.ndarray, phi) -> np.ndarray:
    """phi(X) = V phi(L) V* by numpy.linalg.eigh."""
    lam, v = np.linalg.eigh(x)
    return (v * np.array([phi(float(t)) for t in lam])) @ v.conj().T


def _scalars(f, m, M):
    fm, fM = f(m), f(M)
    width = M - m

    def g(t):
        k = f((m + M) / 2.0) ** 2 / (fm * fM)
        w = 0.5 - abs(t - (m + M) / 2.0) / width
        return k ** w * fm ** ((M - t) / width) * fM ** ((t - m) / width)

    def h(t):
        t = min(max(t, m), M)  # spectra of operators in [m, M], up to rounding
        return ((M - t) * f(t - m) + (t - m) * f(M - t)) / width

    slope = (fM - fm) / width
    intercept = (M * fm - m * fM) / width
    return g, h, slope, intercept, f(width) / width


def _nonneg(f):
    """f on [0, inf): eigenvalues a rounding below 0 are read as 0."""
    return lambda t: f(max(t, 0.0))


def lc_quad(f, A, B, C, D, m, M):
    g, _, s, c, _ = _scalars(f, m, M)
    eye = np.eye(A.shape[0])
    return [calc(B, f) + calc(C, f), calc(B, g) + calc(C, g), s * (B + C) + 2.0 * c * eye,
            calc(A, g) + calc(D, g), calc(A, f) + calc(D, f)]


def lc_mid(f, A, D, m, M):
    g, _, s, c, _ = _scalars(f, m, M)
    W = (A + D) / 2.0
    return [calc(W, f), calc(W, g), s * W + c * np.eye(A.shape[0]),
            (calc(A, g) + calc(D, g)) / 2.0, (calc(A, f) + calc(D, f)) / 2.0]


def _outer(f, A, D, m, M, gap):
    """R = f(mI-A) + gap (mI-A) + f(D-MI) + gap (D-MI)."""
    eye = np.eye(A.shape[0])
    low, high = m * eye - A, D - M * eye
    return calc(low, _nonneg(f)) + gap * low + calc(high, _nonneg(f)) + gap * high


def sq_quad(f, A, B, C, D, m, M):
    _, h, _, _, gap = _scalars(f, m, M)
    return [calc(B, f) + calc(C, f) + calc(B, h) + calc(C, h),
            calc(A, f) + calc(D, f) - _outer(f, A, D, m, M, gap)]


def sq_mid(f, A, D, m, M):
    _, h, _, _, gap = _scalars(f, m, M)
    W = (A + D) / 2.0
    return [calc(W, f) + calc(W, h),
            (calc(A, f) + calc(D, f) - _outer(f, A, D, m, M, gap)) / 2.0]


CHAINS = {"LC-QUAD": (lc_quad, LOG_CONVEX), "LC-POW": (lc_quad, POWERS_AT_MOST_0),
          "LC-MID": (lc_mid, LOG_CONVEX), "SQ-QUAD": (sq_quad, SUPERQUADRATIC),
          "SQ-MID": (sq_mid, SUPERQUADRATIC)}


def _intervals(f_spec, tid):
    """(m, M) pairs with m > 0 when f lives on the half line or the theorem
    needs A >= 0, and one pair below 0 otherwise."""
    nonneg = tid.startswith("SQ") or f_spec.startswith(("pow", "recip"))
    return nonneg, [(0.5, 2.0), (1.0, 3.0)] + ([] if nonneg else [(-1.0, 1.0)])


def _cases(tid, f_spec, f):
    """(instance, oracle terms) for every dim, interval and seed."""
    oracle = CHAINS[tid][0]
    nonneg, intervals = _intervals(f_spec, tid)
    for dim in DIMS:
        for m, M in intervals:
            for seed in SEEDS:
                if tid.endswith("MID"):
                    inst = sample_midpoint(dim, m, M, nonneg_A=nonneg, seed=seed)
                    yield inst, oracle(f, inst.A.entries, inst.D.entries, m, M)
                    continue
                relation = SumRelation.SUM_LEQ if f(m) <= f(M) else SumRelation.SUM_GEQ
                inst = sample_quadruple(dim, m, M, relation, nonneg_A=nonneg, seed=seed)
                yield inst, oracle(f, inst.A.entries, inst.B.entries, inst.C.entries,
                                   inst.D.entries, m, M)


@pytest.mark.parametrize("tid, f_spec", [(tid, f_spec) for tid, (_, functions) in CHAINS.items()
                                         for f_spec in functions])
def test_every_term_agrees_with_the_written_out_chain(tid, f_spec):
    f = CHAINS[tid][1][f_spec]
    disagreements = []
    for inst, expected in _cases(tid, f_spec, f):
        chain = build_chain(tid, inst, parse_function_spec(f_spec))
        assert len(chain.terms) == len(expected)
        for label, term, want in zip(chain.labels, chain.terms, expected):
            err = float(np.linalg.norm(term.entries - want))
            scale = max(1.0, float(np.linalg.norm(want)))
            if not err <= REL * scale:
                disagreements.append((inst.dim, inst.m, label, err / scale))
    assert not disagreements, disagreements[:5]
