"""Worst-case force magnitude: Z-eigenvector solve, certified bounds and their checks.

The quantity of interest is the largest principal-eigenvalue magnitude of
the moment-dependent gradient matrix over all unit moments (lambda_bar).
It is attained at a Z-eigenvector of the symmetric operator tensor.
They come from the null space of a Macaulay matrix or, through an
invariant plane, from two trigonometric polynomials of the plane;
self_eigenvectors says when the set is certified complete, and
lambda_bar is the best of them, exact to rounding.  The planar
structure gives closed forms and a chain of bounds around it:

    ||P|| <= |lambda_MF| <= lambda_P <= lambda_bar <= |lambda_MF| + ||P||/2

with branch-dependent refinements.  When the in-plane maximum lambda_P
reaches 2||P||, it equals lambda_bar exactly.

verify_theorems checks the theorems on the exact lambda_bar with no
sampling slack.  Its cross-check is one-sided: a seeded Fibonacci
lattice of moments gives lower bounds on lambda_bar, and one above it
means the solve missed a Z-eigenvector.  lambda_bar_bruteforce, the
lattice refined by gradient ascent, remains as a sampling lower-bound
oracle for tests and reference runs; no command calls it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import (
    GRAM_DEGENERACY_RTOL,
    PlanarStructure,
    _distinct,
    gram_spectrum,
    self_eigenvectors,
    self_eigenvectors_batch,
)
from .corpus import random_algebra, random_frame, random_moments
from .dipoles import MagneticAlgebra
from .linalg3 import canonical_sign, det3, principal_axis, principal_split, spread_ratio, unit
from .sphere import fibonacci_sphere, sphere_ascent

_Z = np.array([0.0, 0.0, 1.0])
CHAIN_RTOL = 1e-9  # the chain holds exactly: its flags, branch dead band and plane tie allow rounding only
IDENTITY_RTOL = 1e-12  # verify's checks of exact identities allow this much rounding, relative to each one's scale


class Branch(enum.Enum):
    PLANE_DOMINANT = "PLANE_DOMINANT"
    P_DOMINANT = "P_DOMINANT"
    DEGENERATE = "DEGENERATE"


class CandidateKind(enum.Enum):
    GRAM_TOP = "GRAM_TOP"
    IN_PLANE_MAX = "IN_PLANE_MAX"
    EIGEN_SELF = "EIGEN_SELF"
    DETZERO = "DETZERO"


def principal_split_batch(alg: MagneticAlgebra, Ms):
    """(lam, delta, r) arrays for a batch of moments, from the invariants of F over the scale.

    Unscaled, det F is a cube of the scale and underflows in the far field.
    """
    s = alg.scale or 1.0
    f = alg.matrices(Ms) / s
    lam, delta = principal_split(0.5 * np.einsum("nab,nab->n", f, f), det3(f))
    return lam * s, delta * s, spread_ratio(lam, delta)


def principal_abs(alg: MagneticAlgebra, M) -> float:
    """|principal eigenvalue| of the matrix induced by one moment: one row of principal_split_batch."""
    return abs(float(principal_split_batch(alg, np.asarray(M, dtype=float)[None])[0][0]))


class WorstCase(NamedTuple):
    """Worst-case magnitude with its moment M_bar and the direction m_bar it acts on.

    complete is true when lambda_bar is the maximum over a Z-eigenvector
    set certified complete, so exact to rounding.
    """

    lambda_bar: float
    M_bar: np.ndarray
    m_bar: np.ndarray
    complete: bool = False


def _worst_case(alg: MagneticAlgebra, x, complete=False) -> WorstCase:
    """The triple at moment x, with m_bar the principal eigenvector of F_x and value ||F_x m_bar||."""
    m_bar_moment = canonical_sign(x)
    f = alg.matrix(m_bar_moment)
    _, m_bar = principal_axis(f)
    return WorstCase(float(np.linalg.norm(f @ m_bar)), m_bar_moment, m_bar, complete)


def lambda_bar_exact(alg: MagneticAlgebra) -> WorstCase:
    """Worst-case magnitude at the best Z-eigenvector found, with its maximizers.

    By Banach's theorem on the symmetric operator tensor, lambda_bar is
    the largest |x^T F_x x| over unit x, attained at a Z-eigenvector, so
    it is exact to rounding whenever self_eigenvectors finds the best of
    them; complete is true when it certifies its set complete.  A zonal
    operator's is not (its cone is a continuum), yet its axis, which
    beats the cone by a factor sqrt(5), gives lambda_bar exactly.  The
    triple is finished from the eigensolver, as in lambda_bar_bruteforce.
    Memoized on alg: callers share it and must not modify it.
    """
    if alg.is_trivial():
        return WorstCase(0.0, _Z.copy(), _Z.copy())
    key = ("lambda_bar_exact",)
    if key not in alg.memo:
        sol = self_eigenvectors(alg)
        m = np.array(sol.moments)
        tau = (m[:, None, :] @ alg.matrices(m) @ m[:, :, None])[:, 0, 0]  # x^T F_x x, as x @ F_x @ x rounds it
        alg.memo[key] = _worst_case(alg, sol.moments[int(np.argmax(np.abs(tau)))], sol.complete)
    return alg.memo[key]


def lambda_bar_bruteforce(
    alg: MagneticAlgebra, n_samples=20000, refine_steps=100, seed=0
) -> WorstCase:
    """Sampling lower bound on the worst-case magnitude, with maximizers.

    An oracle independent of the Z-eigenvector solve, for tests and for
    the benchmark's dense reference.  Deterministic given
    (n_samples, seed): a seeded rotation of the Fibonacci lattice picks
    the start (ties to the lowest index), then projected gradient ascent
    refines it; the triple is finished as in lambda_bar_exact.
    """
    n_samples = int(n_samples)
    if n_samples < 100:
        raise ValueError("need at least 100 samples")
    if alg.is_trivial():
        return WorstCase(0.0, _Z.copy(), _Z.copy())
    pts = fibonacci_sphere(n_samples) @ random_frame(np.random.default_rng(seed)).T
    vals = np.abs(principal_split_batch(alg, pts)[0])
    best = int(np.argmax(vals))
    m0, v0 = pts[best], float(vals[best])
    m_ref, v_ref = sphere_ascent(
        lambda m: principal_abs(alg, m), m0, steps=refine_steps
    )
    if v_ref < v0:
        m_ref, v_ref = m0, v0
    return _worst_case(alg, m_ref)


class PlaneMax(NamedTuple):
    value: float
    moment: np.ndarray


def _plane_quadratic(alg, plane):
    """Gram quadratic form restricted to the in-plane frame."""
    e1, e2 = plane.frame()
    g = alg.gram
    return e1, e2, float(e1 @ g @ e1), float(e1 @ g @ e2), float(e2 @ g @ e2)


def in_plane_abs(tr2, pm):
    """|principal eigenvalue| for an in-plane moment from scalar data.

    tr2 is the squared Frobenius norm of the induced matrix and pm the
    coupling P . M; works elementwise on arrays.
    """
    tr2 = np.asarray(tr2, dtype=float)
    pm = np.abs(np.asarray(pm, dtype=float))
    root = np.sqrt(np.maximum(2.0 * tr2 - 3.0 * pm * pm, 0.0))
    return np.maximum(0.5 * (pm + root), pm)


def lambda_plane(alg: MagneticAlgebra, plane: PlanarStructure) -> PlaneMax:
    """Maximum |principal eigenvalue| over unit in-plane moments.

    An in-plane moment M sends the normal to (P . M) n, so by Banach's
    theorem the maximum is max(||P||, max |tau|) over unit in-plane x,
    tau = x^T F_x x.  The objective is evaluated at theta = 0, where
    |P . M| = ||P||, and at the stationary points of tau, read from the
    solve: on an invariant plane they are the Z-eigenvectors in it, which
    self_eigenvectors finds, and the angle of every Z-eigenvector's
    projection is a candidate, as any angle is a valid moment.  Not
    memoized: bounds_report's report carries the result on.
    """
    e1, e2, a, b, c = _plane_quadratic(alg, plane)
    x = np.reshape(self_eigenvectors(alg).moments, (-1, 3))
    thetas = np.concatenate([[0.0], np.arctan2(x @ e2, x @ e1)])
    ct, st = np.cos(thetas), np.sin(thetas)
    vals = in_plane_abs(a * ct * ct + 2.0 * b * ct * st + c * st * st, plane.norm_P * ct)
    i = int(np.argmax(vals))
    moment = canonical_sign(ct[i] * e1 + st[i] * e2)
    return PlaneMax(float(vals[i]), moment)


def plane_gram_moment(alg: MagneticAlgebra, plane: PlanarStructure):
    """Top Gram eigenpair restricted to the normal and the plane.

    The normal is always a Gram eigenvector, so the top eigenvector can
    be taken either as the normal itself or from the plane; restricting
    the choice this way keeps the closed form below applicable even when
    the top eigenvalue is degenerate.  An isotropic in-plane block gives
    the frame's second axis (Q_hat when P is nonzero), so the choice
    follows the geometry rather than rounding.  Returns (M_F, lambda_F);
    the normal's eigenvalue is plane.gram_eigenvalue.  Not memoized, as
    lambda_plane.
    """
    e1, e2, a, b, c = _plane_quadratic(alg, plane)
    lam_n = plane.gram_eigenvalue
    disc = float(np.hypot(0.5 * (a - c), b))  # squaring Gram entries underflows in the far field
    mu = 0.5 * (a + c) + disc
    if mu < lam_n:
        return plane.n_hat, lam_n
    if 2.0 * disc <= GRAM_DEGENERACY_RTOL * mu:
        return canonical_sign(e2), mu
    # eigenvector of [[a, b], [b, c]] for mu: pick the better-conditioned
    # of the two cofactor forms; both vanish only when the block is mu*I
    c1 = np.array([mu - c, b])
    c2 = np.array([b, mu - a])
    n1, n2 = np.hypot(*c1), np.hypot(*c2)
    coeff = c1 / n1 if n1 >= n2 else c2 / n2
    return canonical_sign(coeff[0] * e1 + coeff[1] * e2), mu


@dataclass(frozen=True, eq=False)
class ExtremalReport:
    branch: Branch
    lambda_bar: float
    M_bar: np.ndarray
    m_bar: np.ndarray
    norm_P: float
    abs_lambda_MF: float
    lambda_P: float
    M_P: np.ndarray | None
    lambda_F: float
    M_F: np.ndarray | None
    lambda_bar_certified: float | None  # exact value in the plane-dominant branch
    bounds: dict
    chain_ok: dict

    @property
    def all_ok(self) -> bool:
        return all(self.chain_ok.values())


def _degenerate_report() -> ExtremalReport:
    zeros = {
        "chain_upper": 0.0,
        "refined_upper": 0.0,
        "gram_plus_third": None,
        "plane_ratio": None,
        "plane_formula_upper": 0.0,
        "sqrt_two_thirds_lambda_F": 0.0,
    }
    return ExtremalReport(
        branch=Branch.DEGENERATE,
        lambda_bar=0.0,
        M_bar=_Z.copy(),
        m_bar=_Z.copy(),
        norm_P=0.0,
        abs_lambda_MF=0.0,
        lambda_P=0.0,
        M_P=None,
        lambda_F=0.0,
        M_F=None,
        lambda_bar_certified=0.0,
        bounds=zeros,
        chain_ok={"degenerate": True},
    )


def bounds_report(alg: MagneticAlgebra, plane: PlanarStructure | None) -> ExtremalReport:
    """Evaluate the whole bound chain for one invariant plane.

    The branch compares lambda_P against 2||P|| with a small dead band;
    every inequality is recorded as a non-strict flag at tolerance
    CHAIN_RTOL times the value scale.  The planes of one algebra share its
    memoized lambda_bar_exact.
    """
    if alg.is_trivial():
        return _degenerate_report()
    if plane is None:
        raise ValueError("invariant plane required for a bounds report")

    wc = lambda_bar_exact(alg)
    pm = lambda_plane(alg, plane)
    m_f, lam_f = plane_gram_moment(alg, plane)
    abs_mf = float(in_plane_abs(lam_f, abs(float(plane.P @ m_f))))
    pn = plane.norm_P

    scale = max(wc.lambda_bar, pm.value, abs_mf, pn, 1e-300)
    tol = CHAIN_RTOL * scale

    chain_upper = abs_mf + 0.5 * pn
    sqrt_23 = float(np.sqrt(2.0 * lam_f / 3.0))
    plane_formula = 0.5 * (pn + float(np.sqrt(max(2.0 * lam_f - 3.0 * pn * pn, 0.0))))

    if pm.value >= 2.0 * pn - tol:
        branch = Branch.PLANE_DOMINANT
        gram_plus_third = None
        plane_ratio = None
        refined_upper = plane_formula
        certified = pm.value
        branch_ok = (
            abs(wc.lambda_bar - pm.value) <= tol
            and pm.value <= plane_formula + tol
            and plane_formula <= sqrt_23 + tol
        )
    else:
        branch = Branch.P_DOMINANT
        gram_plus_third = abs_mf + pn / 3.0
        plane_ratio = 2.0 * pn * float(np.sqrt(pn / (3.0 * pn - pm.value)))
        refined_upper = min(gram_plus_third, plane_ratio)
        certified = None
        branch_ok = wc.lambda_bar <= refined_upper + tol

    chain_ok = {
        "norm_p_le_lambda_mf": pn <= abs_mf + tol,
        "lambda_mf_le_lambda_p": abs_mf <= pm.value + tol,
        "lambda_p_le_lambda_bar": pm.value <= wc.lambda_bar + tol,
        "lambda_bar_le_chain_upper": wc.lambda_bar <= chain_upper + tol,
        "squares_bracket": (
            abs_mf ** 2 <= wc.lambda_bar ** 2 + tol * scale
            and wc.lambda_bar ** 2 <= (2.0 / 3.0) * lam_f + tol * scale
        ),
        "branch_bound": branch_ok,
    }

    return ExtremalReport(
        branch=branch,
        lambda_bar=wc.lambda_bar,
        M_bar=wc.M_bar,
        m_bar=wc.m_bar,
        norm_P=pn,
        abs_lambda_MF=abs_mf,
        lambda_P=pm.value,
        M_P=pm.moment,
        lambda_F=lam_f,
        M_F=m_f,
        lambda_bar_certified=certified,
        bounds={
            "chain_upper": chain_upper,
            "refined_upper": refined_upper,
            "gram_plus_third": gram_plus_third,
            "plane_ratio": plane_ratio,
            "plane_formula_upper": plane_formula,
            "sqrt_two_thirds_lambda_F": sqrt_23,
        },
        chain_ok=chain_ok,
    )


@dataclass(frozen=True, eq=False)
class Candidate:
    moment: np.ndarray
    kind: CandidateKind
    lambda_abs: float


def locate_candidates(alg: MagneticAlgebra, report: ExtremalReport, n_starts=50) -> list[Candidate]:
    """Candidate maximizer moments, by provenance.

    GRAM_TOP: top Gram eigenvector(s); IN_PLANE_MAX: the in-plane
    maximizer; EIGEN_SELF: moments that are eigenvectors of their own
    matrix, from self_eigenvectors; DETZERO duplicates any candidate
    whose matrix is singular, |det F| <= 1e-9 over the scale.  report is
    bounds_report's for one plane: its M_F, M_P and lambda_P are that
    plane's Gram moment and in-plane maximum.  n_starts is unused, as
    the solve takes no starts; bench/tracing.py still reads it.  The
    Gram spectrum and the Z-eigenvectors come from alg's memos, which
    analyze fills first; magnitudes take one principal_split_batch,
    determinants one det3.
    """
    if alg.is_trivial():
        return []
    # a degenerate top eigenvalue leaves eigh's basis arbitrary: only the canonical M_F is used
    gs = gram_spectrum(alg)
    m_f = report.M_F
    seen = _distinct([unit(m) for m in ([m_f] if gs.multiplicity > 1 else [gs.eigenvectors[:, -1], m_f])], 1e-9)
    eigen = self_eigenvectors(alg).moments
    lam = np.abs(principal_split_batch(alg, [*seen, *eigen])[0]).tolist()
    out = [Candidate(m, CandidateKind.GRAM_TOP, v) for m, v in zip(seen, lam)]
    out.append(Candidate(report.M_P, CandidateKind.IN_PLANE_MAX, report.lambda_P))
    out += [Candidate(m, CandidateKind.EIGEN_SELF, v) for m, v in zip(eigen, lam[len(seen):])]
    det = det3(alg.matrices([c.moment for c in out]) / alg.scale)
    out += [Candidate(c.moment, CandidateKind.DETZERO, c.lambda_abs) for c, d in zip(out, det) if abs(d) <= 1e-9]

    order = {k: i for i, k in enumerate(CandidateKind)}
    out.sort(key=lambda c: (-c.lambda_abs, order[c.kind], c.moment[0], c.moment[1], c.moment[2]))
    return out


def _within(residual, bound):
    """(residual, ok) of a check whose residual may not exceed bound."""
    return residual, residual <= bound


def verify_theorems(
    alg: MagneticAlgebra,
    plane: PlanarStructure | None,
    trials=1000,
    seed=0,
    n_samples=2000,
) -> dict:
    """Numerical spot checks of the structural guarantees, on exact worst cases.

    (a) the squared chain lambda_MF^2 <= lambda_bar^2 <= (2/3) lambda_F;
    (b) no sampled moment beats the top Gram moment in magnitude while
    exceeding its spread ratio; (c) ||P|| <= |lambda_MF| <= lambda_P,
    only with a plane; (d) the worst-case magnitude is subadditive across
    algebra sums; (e) no moment of the seeded n_samples-point Fibonacci
    lattice beats lambda_bar.  lambda_bar is lambda_bar_exact throughout,
    so (a) and (d) need no sampling slack.  Every sample is a lower bound
    on the true worst case, so (e) holds at rounding unless the
    Z-eigenvector solve missed the maximizer.  (a) and (c) allow
    CHAIN_RTOL, as the chain flags do, and the others IDENTITY_RTOL of
    their scale.  Returns name -> (residual, ok), each residual signed
    (negative means margin); that of (e) is relative to lambda_bar.  The
    rng draws the moments of (b) and then the algebra other of (d); the
    Z-eigenvectors of alg, other and alg + other come from one
    self_eigenvectors_batch call, which lambda_bar_exact reads back.
    """
    rng = np.random.default_rng(seed)
    checks = {}
    if alg.is_trivial():
        zero = (0.0, True)  # vacuous on the zero operator
        return {k: zero for k in ("squares_bracket", "spread_ordering", "subadditive", "exact_above_lattice")}

    # the draws keep their order; the three worst cases share one stacked solve
    ms = random_moments(rng, int(trials))
    other = random_algebra(rng)
    both = alg + other
    self_eigenvectors_batch([alg, other, both])
    lam_bar = lambda_bar_exact(alg).lambda_bar
    gs = gram_spectrum(alg)

    if plane is not None:
        m_f, lam_f = plane_gram_moment(alg, plane)
    else:
        m_f, lam_f = gs.M_F, gs.lambda_F
    lam_mf, delta_mf, r_mf = (float(x[0]) for x in principal_split_batch(alg, m_f[None, :]))
    abs_mf = abs(lam_mf)

    tol_sq = CHAIN_RTOL * max(lam_f, 1e-300)
    res_a = max(abs_mf ** 2 - lam_bar ** 2, lam_bar ** 2 - (2.0 / 3.0) * lam_f)
    checks["squares_bracket"] = _within(float(res_a), tol_sq)

    lam, delta, r = principal_split_batch(alg, ms)
    beats = lam ** 2 > abs_mf ** 2 + tol_sq
    res_b = float((r[beats] - r_mf).max()) if beats.any() else -1.0
    checks["spread_ordering"] = _within(res_b, IDENTITY_RTOL)  # spread ratios lie in [0, 1]

    if plane is not None:
        pm = lambda_plane(alg, plane)
        tol_c = CHAIN_RTOL * max(pm.value, 1e-300)
        res_c = max(plane.norm_P - abs_mf, abs_mf - pm.value)
        checks["plane_chain"] = _within(float(res_c), tol_c)

    lam_1 = lambda_bar_exact(other).lambda_bar
    lam_01 = lambda_bar_exact(both).lambda_bar
    res_d = lam_01 - lam_bar - lam_1
    checks["subadditive"] = _within(float(res_d), IDENTITY_RTOL * (lam_bar + lam_1))

    lattice = fibonacci_sphere(n_samples) @ random_frame(np.random.default_rng(seed)).T
    res_e = float(np.abs(principal_split_batch(alg, lattice)[0]).max()) / lam_bar - 1.0
    checks["exact_above_lattice"] = _within(res_e, IDENTITY_RTOL)
    return checks
