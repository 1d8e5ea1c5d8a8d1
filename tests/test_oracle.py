"""An independent oracle for every chain, at n > 1.

Each chain is written out here from its statement, with functional calculus
by ``numpy.linalg.eigh``, f(X) = V f(L) V*, and each positive map applied
from its public data: a pinching keeps the diagonal blocks of ``blocks``, a
compression is V* X V for its ``isometry``, a mixed map is
sum_j w_j U_j X U_j* over its ``weights`` and ``unitaries``, and a family
member is its ``weight`` times its ``base`` map.  With the chord slope
s = (f(M) - f(m)) / (M - m) and intercept c = (M f(m) - m f(M)) / (M - m),
the geometric interpolant g(t) = K^w(t) f(m)^((M-t)/(M-m)) f(M)^((t-m)/(M-m))
where K = f((m+M)/2)^2 / (f(m) f(M)) and w(t) = 1/2 - |t - (m+M)/2| / (M - m),
the penalty h(t) = ((M-t) f(t-m) + (t-m) f(M-t)) / (M-m), gap = f(M-m) / (M-m),
W = (A+D)/2 and R = f(mI-A) + gap (mI-A) + f(D-MI) + gap (D-MI):

    LC-QUAD, LC-POW  f(B)+f(C) <= g(B)+g(C) <= s(B+C) + 2cI <= g(A)+g(D) <= f(A)+f(D)
    LC-MID           f(W) <= g(W) <= sW + cI <= (g(A)+g(D))/2 <= (f(A)+f(D))/2
    SQ-QUAD          f(B)+f(C) + h(B)+h(C) <= f(A)+f(D) - R
    SQ-MID           f(W) + h(W) <= (f(A)+f(D) - R)/2

Under a map P, X^ is P(X), and over a family P_1..P_n with members
(A_i, B_i, C_i, D_i), or B_i for a Mercer list, X^ is the bar sum
sum_i P_i(X_i) and P(f(X)) reads sum_i P_i(f(X_i)).  R^ is R with each f
inside the map and each shift mapped, P(f(mI-A)) + gap (mI-A)^ + ..., and
R^^ is R with every term mapped, f((mI-A)^) + gap (mI-A)^ + ...:

    MOS-BASE         f(B^)+f(C^) <= P(f(A))+P(f(D))
    LC-MAP           P(f(B))+P(f(C)) <= P(g(B))+P(g(C)) <= s(B+C)^ + 2cI
                       <= g(A^)+g(D^) <= f(A^)+f(D^)
    LC-MAP-V2        the same with P outside on B, C and inside on A, D
    LC-MAP-V3        P(f(B))+f(C^) <= P(g(B))+g(C^) <= s(B+C)^ + 2cI
                       <= g(A^)+P(g(D)) <= f(A^)+P(f(D)); LC-MULTI over a family
    SQ-MAP, SQ-POW   f(B^)+f(C^) <= P(f(A))+P(f(D)) - h(B^)-h(C^) - R^
    SQ-MAP-V2        P(f(B))+P(f(C)) <= f(A^)+f(D^) - P(h(B))-P(h(C)) - R^^
    SQ-MAP-V3        f(B^)+P(f(C)) <= P(f(A))+f(D^) - h(B^)-P(h(C))
                       - P(f(mI-A)) - gap (mI-A)^ - f((D-MI)^) - gap (D-MI)^
    SQ-MULTI-A       f(B^)+f(C^) + h(B^)+h(C^) <= P(f(A))+P(f(D)) - R^
    SQ-MULTI-B       P(f(B))+f(C^) + P(h(B))+h(C^) <= f(A^)+P(f(D))
                       - f((mI-A)^) - gap (mI-A)^ - P(f(D-MI)) - gap (D-MI)^
    JM-BASE          f(V) <= (f(m)+f(M))I - P(f(B)), with V = (M+m)I - B^
    LC-MERCER        P(f(B))+f(V) <= P(g(B))+g(V) <= (f(m)+f(M))I
    SQ-MERCER        f(V) + P(h(B))+h(V) <= (f(m)+f(M)-2f(0))I - P(f(B))

``baseline_chain`` keeps the first and last terms without their
refinements: no h, nothing on a shift, no f(0).

The scalar functions are plain Python, and nothing is taken from the
library's term table, its evaluator, its map application or its scalar
helpers: the library only samples the instances and maps and builds the
chains under test.  Every term of every chain and baseline must agree with
the library to 1e-10 relative to max(1, ||term||_F), at dims 2 to 6, for
every function that the theorem's class admits; a map chain meets all four
map kinds, and a family chain families of 2 and 3 members.
"""

import math

import numpy as np
import pytest

from loewner_lab.chains import baseline_chain, build_chain
from loewner_lab.functions import parse_function_spec
from loewner_lab.instances import (SumRelation, sample_mercer_family, sample_midpoint,
                                   sample_quadruple, sample_quadruple_family)
from loewner_lab.maps import (CompressionMap, IdentityMap, MixedUnitaryMap, PinchingMap,
                              ScaledMap, sample_map)

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


POWERS_AT_LEAST_2 = {spec: fn for spec, fn in SUPERQUADRATIC.items() if spec.startswith("pow")}
# Every function above is convex.
CONVEX = {**LOG_CONVEX, **SUPERQUADRATIC}
MAP_KINDS = ("identity", "pinching", "compression", "mixed")
FAMILY_SIZES = (2, 3)


def calc(x: np.ndarray, phi) -> np.ndarray:
    """phi(X) = V phi(L) V* by numpy.linalg.eigh, on the Hermitian part of X."""
    lam, v = np.linalg.eigh((x + x.conj().T) / 2.0)
    return (v * np.array([phi(float(t)) for t in lam])) @ v.conj().T


def apply_map(phi, x: np.ndarray) -> np.ndarray:
    """phi(X) from the map's public data."""
    if isinstance(phi, ScaledMap):
        return phi.weight * apply_map(phi.base, x)
    if isinstance(phi, PinchingMap):
        out = np.zeros_like(x)
        for block in phi.blocks:
            out[np.ix_(block, block)] = x[np.ix_(block, block)]
        return out
    if isinstance(phi, CompressionMap):
        return phi.isometry.conj().T @ x @ phi.isometry
    if isinstance(phi, MixedUnitaryMap):
        return sum(w * (u @ x @ u.conj().T) for w, u in zip(phi.weights, phi.unitaries))
    assert isinstance(phi, IdentityMap)
    return x


class Mapped:
    """The maps P_1..P_n of a family, or P alone, with the named operands of
    each member: ``bar`` is sum_i P_i(X_i), ``inside`` sum_i P_i(fn(X_i))
    and ``outside`` fn(sum_i P_i(X_i))."""

    def __init__(self, maps, members):
        self.maps, self.members = maps, members
        self.eye = np.eye(self.bar("B").shape[0])

    def bar(self, name: str) -> np.ndarray:
        return sum(apply_map(phi, x[name]) for phi, x in zip(self.maps, self.members))

    def inside(self, fn, name: str) -> np.ndarray:
        return sum(apply_map(phi, calc(x[name], fn)) for phi, x in zip(self.maps, self.members))

    def outside(self, fn, name: str) -> np.ndarray:
        return calc(self.bar(name), fn)


def _quadruple_operands(q, m, M) -> dict:
    A, B, C, D = (x.entries for x in (q.A, q.B, q.C, q.D))
    eye = np.eye(A.shape[0])
    return {"A": A, "B": B, "C": C, "D": D, "B+C": B + C, "mI-A": m * eye - A,
            "D-MI": D - M * eye}


def _mercer_operands(b, m, M) -> dict:
    return {"B": b.entries, "V": (M + m) * np.eye(b.dim) - b.entries}


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


def _ends(terms):
    """A chain without refinements, and its baseline: its first and last terms."""
    return terms, [terms[0], terms[-1]]


# Each oracle returns the chain's terms and its baseline's two terms.

def lc_quad(f, A, B, C, D, m, M):
    g, _, s, c, _ = _scalars(f, m, M)
    eye = np.eye(A.shape[0])
    return _ends([calc(B, f) + calc(C, f), calc(B, g) + calc(C, g), s * (B + C) + 2.0 * c * eye,
                  calc(A, g) + calc(D, g), calc(A, f) + calc(D, f)])


def lc_mid(f, A, D, m, M):
    g, _, s, c, _ = _scalars(f, m, M)
    W = (A + D) / 2.0
    return _ends([calc(W, f), calc(W, g), s * W + c * np.eye(A.shape[0]),
                  (calc(A, g) + calc(D, g)) / 2.0, (calc(A, f) + calc(D, f)) / 2.0])


def _outer(f, A, D, m, M, gap):
    """R = f(mI-A) + gap (mI-A) + f(D-MI) + gap (D-MI)."""
    eye = np.eye(A.shape[0])
    low, high = m * eye - A, D - M * eye
    return calc(low, _nonneg(f)) + gap * low + calc(high, _nonneg(f)) + gap * high


def sq_quad(f, A, B, C, D, m, M):
    _, h, _, _, gap = _scalars(f, m, M)
    low, high = calc(B, f) + calc(C, f), calc(A, f) + calc(D, f)
    return [low + calc(B, h) + calc(C, h), high - _outer(f, A, D, m, M, gap)], [low, high]


def sq_mid(f, A, D, m, M):
    _, h, _, _, gap = _scalars(f, m, M)
    W = (A + D) / 2.0
    high = (calc(A, f) + calc(D, f)) / 2.0
    return ([calc(W, f) + calc(W, h), high - _outer(f, A, D, m, M, gap) / 2.0],
            [calc(W, f), high])


def mos_base(f, x, m, M):
    return _ends([x.outside(f, "B") + x.outside(f, "C"), x.inside(f, "A") + x.inside(f, "D")])


def _lc_map(f, x, m, M, b, c, a, d):
    """The five LC terms with B, C, A and D each placed inside or outside."""
    g, _, s, icpt, _ = _scalars(f, m, M)
    return _ends([b(f, "B") + c(f, "C"), b(g, "B") + c(g, "C"),
                  s * x.bar("B+C") + 2.0 * icpt * x.eye,
                  a(g, "A") + d(g, "D"), a(f, "A") + d(f, "D")])


def lc_map(f, x, m, M):
    return _lc_map(f, x, m, M, x.inside, x.inside, x.outside, x.outside)


def lc_map_v2(f, x, m, M):
    return _lc_map(f, x, m, M, x.outside, x.outside, x.inside, x.inside)


def lc_map_v3(f, x, m, M):
    return _lc_map(f, x, m, M, x.inside, x.outside, x.outside, x.inside)


def sq_map(f, x, m, M):
    _, h, _, _, gap = _scalars(f, m, M)
    fp = _nonneg(f)
    low = x.outside(f, "B") + x.outside(f, "C")
    high = x.inside(f, "A") + x.inside(f, "D")
    outer = (x.inside(fp, "mI-A") + gap * x.bar("mI-A")
             + x.inside(fp, "D-MI") + gap * x.bar("D-MI"))
    return [low, high - x.outside(h, "B") - x.outside(h, "C") - outer], [low, high]


def sq_map_v2(f, x, m, M):
    _, h, _, _, gap = _scalars(f, m, M)
    fp = _nonneg(f)
    low = x.inside(f, "B") + x.inside(f, "C")
    high = x.outside(f, "A") + x.outside(f, "D")
    outer = (x.outside(fp, "mI-A") + gap * x.bar("mI-A")
             + x.outside(fp, "D-MI") + gap * x.bar("D-MI"))
    return [low, high - x.inside(h, "B") - x.inside(h, "C") - outer], [low, high]


def sq_map_v3(f, x, m, M):
    _, h, _, _, gap = _scalars(f, m, M)
    fp = _nonneg(f)
    low = x.outside(f, "B") + x.inside(f, "C")
    high = x.inside(f, "A") + x.outside(f, "D")
    outer = (x.inside(fp, "mI-A") + gap * x.bar("mI-A")
             + x.outside(fp, "D-MI") + gap * x.bar("D-MI"))
    return [low, high - x.outside(h, "B") - x.inside(h, "C") - outer], [low, high]


def sq_multi_a(f, x, m, M):
    _, h, _, _, gap = _scalars(f, m, M)
    fp = _nonneg(f)
    low = x.outside(f, "B") + x.outside(f, "C")
    high = x.inside(f, "A") + x.inside(f, "D")
    outer = (x.inside(fp, "mI-A") + x.inside(fp, "D-MI")
             + gap * (x.bar("mI-A") + x.bar("D-MI")))
    return [low + x.outside(h, "B") + x.outside(h, "C"), high - outer], [low, high]


def sq_multi_b(f, x, m, M):
    _, h, _, _, gap = _scalars(f, m, M)
    fp = _nonneg(f)
    low = x.inside(f, "B") + x.outside(f, "C")
    high = x.outside(f, "A") + x.inside(f, "D")
    outer = (x.outside(fp, "mI-A") + gap * x.bar("mI-A")
             + x.inside(fp, "D-MI") + gap * x.bar("D-MI"))
    return [low + x.inside(h, "B") + x.outside(h, "C"), high - outer], [low, high]


def jm_base(f, x, m, M):
    return _ends([x.outside(f, "V"), (f(m) + f(M)) * x.eye - x.inside(f, "B")])


def lc_mercer(f, x, m, M):
    g = _scalars(f, m, M)[0]
    return _ends([x.inside(f, "B") + x.outside(f, "V"), x.inside(g, "B") + x.outside(g, "V"),
                  (f(m) + f(M)) * x.eye])


def sq_mercer(f, x, m, M):
    h = _scalars(f, m, M)[1]
    low = x.outside(f, "V")
    ends = f(m) + f(M)
    return ([low + x.inside(h, "B") + x.outside(h, "V"),
             (ends - 2.0 * f(0.0)) * x.eye - x.inside(f, "B")],
            [low, ends * x.eye - x.inside(f, "B")])


# id -> (oracle, functions of its class, instance kind)
CHAINS = {
    "LC-QUAD": (lc_quad, LOG_CONVEX, "quadruple"), "LC-POW": (lc_quad, POWERS_AT_MOST_0, "quadruple"),
    "LC-MID": (lc_mid, LOG_CONVEX, "midpoint"), "SQ-QUAD": (sq_quad, SUPERQUADRATIC, "quadruple"),
    "SQ-MID": (sq_mid, SUPERQUADRATIC, "midpoint"),
    "MOS-BASE": (mos_base, CONVEX, "map"), "LC-MAP": (lc_map, LOG_CONVEX, "map"),
    "LC-MAP-V2": (lc_map_v2, LOG_CONVEX, "map"), "LC-MAP-V3": (lc_map_v3, LOG_CONVEX, "map"),
    "SQ-MAP": (sq_map, SUPERQUADRATIC, "map"), "SQ-POW": (sq_map, POWERS_AT_LEAST_2, "map"),
    "SQ-MAP-V2": (sq_map_v2, SUPERQUADRATIC, "map"),
    "SQ-MAP-V3": (sq_map_v3, SUPERQUADRATIC, "map"),
    "LC-MULTI": (lc_map_v3, LOG_CONVEX, "family"),
    "SQ-MULTI-A": (sq_multi_a, SUPERQUADRATIC, "family"),
    "SQ-MULTI-B": (sq_multi_b, SUPERQUADRATIC, "family"),
    "JM-BASE": (jm_base, CONVEX, "mercer"), "LC-MERCER": (lc_mercer, LOG_CONVEX, "mercer"),
    "SQ-MERCER": (sq_mercer, SUPERQUADRATIC, "mercer"),
}


def _intervals(f_spec, tid):
    """(m, M) pairs with m > 0 when f lives on the half line or the theorem
    needs A >= 0, and one pair below 0 otherwise."""
    nonneg = tid.startswith("SQ") or f_spec in SUPERQUADRATIC or f_spec in POWERS_AT_MOST_0
    return nonneg, [(0.5, 2.0), (1.0, 3.0)] + ([] if nonneg else [(-1.0, 1.0)])


def _map_case(kind, dim, m, M, nonneg, k):
    """(instance, map, oracle terms) of case k of a chain with a map or a
    family: map kinds and family sizes cycle with k."""
    if kind == "map":
        inst = sample_quadruple(dim, m, M, SumRelation.EQUAL, nonneg_A=nonneg, seed=k)
        phi = sample_map(MAP_KINDS[k % len(MAP_KINDS)], dim, 1000 + k)
        return inst, phi, Mapped([phi], [_quadruple_operands(inst, m, M)])
    n = FAMILY_SIZES[k % len(FAMILY_SIZES)]
    if kind == "family":
        inst = sample_quadruple_family(n, dim, m, M, nonneg_A=nonneg, seed=k)
        members = [_quadruple_operands(q, m, M) for q in inst.quadruples]
    else:
        inst = sample_mercer_family(n, dim, m, M, seed=k)
        members = [_mercer_operands(b, m, M) for b in inst.B_list]
    return inst, None, Mapped(inst.family.maps, members)


def _cases(tid, f_spec, f):
    """(instance, map, oracle terms and baseline) for every dim, interval
    and seed; a chain with a map or a family takes one seed per dim and
    interval, and the cycle of map kinds or family sizes."""
    oracle, _, kind = CHAINS[tid]
    nonneg, intervals = _intervals(f_spec, tid)
    k = 0
    for dim in DIMS:
        for m, M in intervals:
            if kind not in ("quadruple", "midpoint"):
                inst, phi, x = _map_case(kind, dim, m, M, nonneg, k)
                k += 1
                yield inst, phi, oracle(f, x, m, M)
                continue
            for seed in SEEDS:
                if kind == "midpoint":
                    inst = sample_midpoint(dim, m, M, nonneg_A=nonneg, seed=seed)
                    yield inst, None, oracle(f, inst.A.entries, inst.D.entries, m, M)
                    continue
                relation = SumRelation.SUM_LEQ if f(m) <= f(M) else SumRelation.SUM_GEQ
                inst = sample_quadruple(dim, m, M, relation, nonneg_A=nonneg, seed=seed)
                yield inst, None, oracle(f, inst.A.entries, inst.B.entries, inst.C.entries,
                                         inst.D.entries, m, M)


@pytest.mark.parametrize("tid, f_spec", [(tid, f_spec) for tid, (_, functions, _) in CHAINS.items()
                                         for f_spec in functions])
def test_every_term_agrees_with_the_written_out_chain(tid, f_spec):
    f = CHAINS[tid][1][f_spec]
    disagreements = []
    for inst, phi, expected in _cases(tid, f_spec, f):
        for build, want in zip((build_chain, baseline_chain), expected):
            chain = build(tid, inst, parse_function_spec(f_spec), phi)
            assert len(chain.terms) == len(want)
            for label, term, value in zip(chain.labels, chain.terms, want):
                err = float(np.linalg.norm(term.entries - value))
                scale = max(1.0, float(np.linalg.norm(value)))
                if not err <= REL * scale:
                    disagreements.append((chain.theorem, inst.dim, inst.m, label, err / scale))
    assert not disagreements, disagreements[:5]
